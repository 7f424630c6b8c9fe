"""Every integer input is converted and range-checked by ``check_count``.

One row per entry point that takes a count: the value just outside its
range, and the one message form that ``check_count`` gives for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from hextorus.cli import write_svg
from hextorus.construct import planar_patch, strip_tiling, type_i_minimal
from hextorus.covering import build_cover
from hextorus.embed import CurveParams, RectEmbedding, drape_tiling, hopf_torus_mesh, rect_torus_mesh
from hextorus.lattice import HnfTriple, check_count, enumerate_hnf, rectangular_solve
from hextorus.moduli import RegionGrid, sample_region, type_iii_boundary

SIGMA = (0.3 + 0.45j, 0.2 + 0.525j)  # the strip's equal-sides condition for h = 1.2
CURVE = CurveParams(1.0, 0.3, 1)


def two_tile():
    # the README's 2-tile document
    return type_i_minimal(0.6j, (0.24 + 0.17j, -0.18 + 0.27j))


REFUSALS = {
    "search bound low": (
        lambda: rectangular_solve(2j, HnfTriple(1, 1, 0), bound=0),
        "search bound must be at least 1, got 0",
    ),
    "search bound high": (
        lambda: rectangular_solve(2j, HnfTriple(1, 1, 0), bound=1025),
        "search bound must be at most 1024, got 1025",
    ),
    "index": (lambda: enumerate_hnf(0), "index must be at least 1, got 0"),
    "strip extent": (
        lambda: strip_tiling(1.2, 0.9, 0.15, SIGMA, "+", mode="patch", extent=-1),
        "extent must be at least 0, got -1",
    ),
    "patch extent": (lambda: planar_patch(two_tile(), 0), "extent must be at least 1, got 0"),
    "svg extent": (lambda: write_svg(two_tile(), 0), "extent must be at least 1, got 0"),
    "cover tile count": (
        lambda: build_cover(two_tile(), HnfTriple(10000, 10000, 1)),
        "cover tile count must be at most 1048576, got 200000000",
    ),
    "k": (lambda: CurveParams(1.0, 0.3, 0), "k must be at least 1, got 0"),
    "nu": (lambda: rect_torus_mesh(1.0, 7, 8), "nu must be at least 8, got 7"),
    "nv": (lambda: rect_torus_mesh(1.0, 8, 7), "nv must be at least 8, got 7"),
    "n_theta": (lambda: hopf_torus_mesh(CURVE, 7, 8), "n_theta must be at least 8, got 7"),
    "n_phi": (lambda: hopf_torus_mesh(CURVE, 8, 7), "n_phi must be at least 8, got 7"),
    "subdivisions": (
        lambda: drape_tiling(two_tile(), RectEmbedding(0.6), subdivisions=31),
        "subdivisions must be at least 32, got 31",
    ),
    "surface resolution": (
        lambda: drape_tiling(two_tile(), RectEmbedding(0.6), surface_res=0),
        "surface resolution must be at least 1, got 0",
    ),
    "grid nx": (
        lambda: RegionGrid((0, 1, 0, 1), 1, 3, np.zeros((3, 1), bool)),
        "nx must be at least 2, got 1",
    ),
    "grid ny": (
        lambda: RegionGrid((0, 1, 0, 1), 3, 1, np.zeros((1, 3), bool)),
        "ny must be at least 2, got 1",
    ),
    "grid nx not integral": (
        lambda: RegionGrid((0, 1, 0, 1), 2.5, 3, np.zeros((3, 2), bool)),
        "nx must be an integer, got 2.5",
    ),
    "sample nx": (lambda: sample_region("iii", (), nx=1, ny=4), "nx must be at least 2, got 1"),
    "sample ny": (lambda: sample_region("iii", (), nx=4, ny=1), "ny must be at least 2, got 1"),
    "samples": (lambda: type_iii_boundary(1), "samples must be at least 2, got 1"),
}


@pytest.mark.parametrize("call,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_count_out_of_range_is_refused_in_one_form(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_the_range_is_checked_on_the_converted_int():
    assert check_count(12.0, "n", 12, 12) == 12 and check_count(12.0, "n").__class__ is int
    with pytest.raises(ValueError, match=r"^n must be at least 13, got 12$"):
        check_count(12.0, "n", 13)
    with pytest.raises(ValueError, match=r"^n must be at most 11, got 12$"):
        check_count(np.int64(12), "n", most=11)
    assert check_count(-(10**30), "n") == -(10**30)  # an end left as None is open
