"""No line of the package, the tools or the tests is longer than 105
characters, so their line counts cannot shrink by joining lines."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 105


def test_no_source_line_is_over_the_limit():
    paths = sorted(path for d in ("src/heavylight", "tools", "tests") for path in ROOT.glob(f"{d}/*.py"))
    assert paths
    long = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in paths
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []
