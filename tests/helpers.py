"""Plain helpers shared by the test files: a module loaded by path, and a
captured `hl` run."""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout

from heavylight.cli import main


def load_path(name, path):
    """The Python file at `path`, run as a module named `name`, the way
    `python path` would run it; nothing needs to be on sys.path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(args) -> tuple:
    """`hl args`, in process: its exit code, its stdout and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()
