"""Pytest fixtures shared by the test files: the one `hl verify --suite all` run on
the shipped fixtures that the tests read, and edited copies of those fixtures."""

import time
from collections import Counter
from types import SimpleNamespace

import pytest

from heavylight import verify
from heavylight.fixtures import default_fixture_dir, load_fixture

from helpers import run_cli


@pytest.fixture(scope="session")
def verify_all():
    """`hl verify --suite all`, run once: its exit code, its stdout, its wall time
    in seconds, the rows of each suite by name and the number of times each
    fixture was loaded.  The suites of the run share one `verify.RunInputs`, which
    loads each fixture once.  The rows are recorded by wrapping the suites that
    `run_suite` looks up by name; a suite that raised has none."""
    rows, loads = {}, Counter()

    def load(name):
        loads[name] += 1
        return load_fixture(name)

    with pytest.MonkeyPatch.context() as mp:
        for name in verify.SUITES["all"]:
            suite = getattr(verify, name)
            mp.setattr(verify, name,
                       lambda run, name=name, suite=suite: rows.setdefault(name, suite(run)))
        mp.setattr(verify, "load_fixture", load)
        start = time.perf_counter()
        code, stdout, _ = run_cli(["verify", "--suite", "all"])
        elapsed = time.perf_counter() - start
    return SimpleNamespace(code=code, stdout=stdout, elapsed=elapsed, rows=rows, loads=loads)


@pytest.fixture
def edited_fixtures(tmp_path, monkeypatch):
    """A function `edit(name, old, new)`: it copies the shipped fixtures into
    `tmp_path` with `old` replaced by `new` in fixture `name`, points
    HL_FIXTURE_DIR at the copy and returns its directory."""
    def edit(name, old, new):
        for path in default_fixture_dir().glob("*.hlf"):
            text = path.read_text()
            if path.stem == name:
                assert old in text, (name, old)
                text = text.replace(old, new)
            (tmp_path / path.name).write_text(text)
        monkeypatch.setenv("HL_FIXTURE_DIR", str(tmp_path))
        return tmp_path
    return edit
