"""The off-diagonal identities of the benchmark's `offdiag` workload.

perfbench/offdiag.py builds seeded series whose coefficients are rational
and off-diagonal (denominators 5, 7 and 11 on u and v^2), so they take the
general path of every coefficient operation, and checks each series
operation by a round trip or by the rank specialisation.  The module is
loaded by path, the way the benchmark loads it, and only read.
"""

from pathlib import Path

import pytest

from helpers import load_path

OFFDIAG = Path(__file__).resolve().parents[1] / "perfbench" / "offdiag.py"


@pytest.mark.parametrize("seed", [1, 2])
def test_offdiag_identities_hold(seed):
    offdiag = load_path("perfbench_offdiag", OFFDIAG)
    checks = offdiag.run(offdiag.make_inputs(seed))
    assert checks and [name for name, ok in checks if not ok] == []
