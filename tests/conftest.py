"""Session set-up shared by every test module."""

import warnings

# When a @given test fails, hypothesis's pytest plugin imports this module to
# print a patch for the failing example.  One of its dependencies
# (mypy_extensions) warns on import; under filterwarnings = error that warning
# becomes an INTERNALERROR and ends the session, so no later test runs.
# Importing it once here, with DeprecationWarning ignored, keeps a failing
# property test one failure among the others.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
