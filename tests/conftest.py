"""The one `hl verify --suite all` run on the shipped fixtures that the tests read."""

import io
import time
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from heavylight import cli, verify


@pytest.fixture(scope="session")
def verify_all():
    """`hl verify --suite all`, run once: its exit code, its stdout, its wall time
    in seconds and the rows of each suite by name.  The rows are recorded by
    wrapping the suites that `run_suite` looks up by name; a suite that raised
    has none."""
    rows = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in verify.SUITES["all"]:
            suite = getattr(verify, name)
            mp.setattr(verify, name, lambda name=name, suite=suite: rows.setdefault(name, suite()))
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = cli.main(["verify", "--suite", "all"])
        elapsed = time.perf_counter() - start
    return SimpleNamespace(code=code, stdout=out.getvalue(), elapsed=elapsed, rows=rows)
