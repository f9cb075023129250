"""Acceptance suite: each verify check at N = 256, check_<name> as test_<name>."""

import inspect
import re

import pytest

from nonlocal_eigen.verify import VerifySuite


@pytest.fixture(scope="module")
def suite():
    return VerifySuite(N=256, seed=0)


def _passes(check):
    def test(suite):
        assert (result := suite.run(check)).passed, result
    return test


for _check in VerifySuite.CHECKS:
    globals()["test_" + _check.removeprefix("check_")] = _passes(_check)


def test_martin_constant_logged(suite):
    assert "kernel candidate" in suite.run("check_martin_constant").detail


def test_checks_are_the_check_methods_in_definition_order():
    defs = re.findall(r"def (check_\w+)", inspect.getsource(VerifySuite))
    assert VerifySuite.CHECKS == defs and len(set(defs)) == len(defs) == 26


def test_a_crashed_check_keeps_its_name(suite, monkeypatch):
    names = [r.name for r in suite.run_all()]
    for check in VerifySuite.CHECKS:
        monkeypatch.setattr(VerifySuite, check, lambda self: 1 / 0)
    assert [(r.name, r.passed) for r in suite.run_all()] == [(n, False) for n in names]
