"""The mutation table of tools/mutants.py matches the tree: every `old` occurs
exactly once in its file and differs from its `new`, so a change that rewrites
a guarded line must carry its mutant forward.  Running the mutants is left to
`python tools/mutants.py`; one pytest child checks that a run out of memory is
told apart from a kill."""

from pathlib import Path

from helpers import load_path

mutants = load_path("mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")


def test_every_mutant_applies_to_the_tree_exactly_once():
    assert mutants.MUTANTS
    assert mutants.table_problems() == []


def test_a_dangling_test_id_is_a_table_problem(monkeypatch):
    mid, path, old, new, _ = mutants.MUTANTS[0]
    dangling = "tests/test_uvpoly.py::test_renamed_away[case]"
    monkeypatch.setattr(mutants, "MUTANTS", ((mid, path, old, new, (dangling,)),))
    assert mutants.table_problems() == [f"{mid}: no test {dangling}"]


def test_a_child_past_its_memory_limit_is_a_memout(tmp_path):
    # The child asks for more than its whole address-space limit, and for
    # nothing unless it runs under the runner's limit, so a missing limit
    # fails as a kill.
    (tmp_path / "test_big.py").write_text(
        "import resource\n"
        "def test_past_the_limit():\n"
        "    limit = resource.getrlimit(resource.RLIMIT_AS)[0]\n"
        f"    assert limit == {mutants.MEMORY_LIMIT}\n"
        "    bytearray(limit + 1)\n"
    )
    assert mutants.run_pytest(tmp_path, ["test_big.py"]) == "memout"
