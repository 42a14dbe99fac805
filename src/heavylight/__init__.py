"""Exact symmetric-function series and Hodge-Deligne pipelines for
heavy/light moduli of weighted stable curves.

All arithmetic is exact (arbitrary-precision rationals); every series value
is immutable and safe to share across threads.
"""

from .bisymseries import BiSymSeries, coproduct, exp2_of_p1
from .fixtures import SeriesFixture, load_fixture, parse_fixture, write_fixture
from .partitions import gen_partitions, mn_character, z_of
from .pipeline import (
    HeavyLightResult,
    closed_series,
    closed_series_numeric,
    genus0_numeric_closed_form,
    genus1_light_chi_egf,
    genus1_stable_chi_egf,
    legendre_check,
    open_series,
    open_series_numeric,
    slice_n1,
    stability_ok,
    tail_free_series,
    tropical_euler,
)
from .powerseries import FormalPS1, FormalPS2
from .symseries import SymSeries
from .uvpoly import NotDiagonalError, UVPoly, parse_uvpoly

__version__ = "0.1.0"
