"""The committed benchmark records, ``BENCH_*.json``, speak of the declared
benchmark: each says what it measured, on which machine and how, and its
end-to-end figures and its claim name workloads and metrics that
``BENCHMARK.json`` declares, so a renamed workload or metric fails here."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
METRICS = {m["name"] for m in DECLARED["end_to_end"]}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("what", "machine", "method", "end_to_end"):
        assert record.get(key), key
    assert set(record["end_to_end"]) <= WORKLOADS
    if "claim" in record:
        workload, metric = record["claim"]["metric"].split(" ")
        assert workload in WORKLOADS and metric in METRICS
