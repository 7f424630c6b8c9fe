"""The hashed validator and is_minimal against the dense all-pairs reference.

Both must give the same census, per-side partner counts, per-cluster
through-side counts, failure list, exception type and minimality answer on
every input: valid covers of each family, broken carriers, a tolerance of
zero, a change of basis and rescaled tilings.
"""

from __future__ import annotations

import importlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import dense_oracle
from hextorus.construct import (
    GenericityWarning,
    central_minimal,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.geom import Polygon
from hextorus.lattice import HnfTriple

warnings.simplefilter("ignore", GenericityWarning)

# the package exports functions of the same names as these modules
covering = importlib.import_module("hextorus.covering")
validate = importlib.import_module("hextorus.validate")

BASES = {
    "i": lambda: type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j)),
    "ii": lambda: type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j)),
    "iii": lambda: type_iii_minimal(0.05 + 0.22j),
    "cs": lambda: central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j),
    "strip": lambda: strip_tiling(1.2, 0.9, 0.15, (0.3 + 0.45j, 0.2 + 0.525j), "+-"),
}

# (m, n; l) per family; the last one lifts each family to 48-192 tiles
TRIPLES = {
    "i": [(1, 1, 0), (2, 1, 1), (1, 3, 0), (3, 2, 2), (4, 6, 1)],
    "ii": [(1, 1, 0), (2, 1, 0), (3, 4, 1)],
    "iii": [(1, 1, 0), (3, 1, 2), (2, 2, 1), (8, 8, 3)],
    "cs": [(1, 1, 0), (2, 1, 1), (5, 3, 4), (12, 8, 7)],
    "strip": [(1, 1, 0), (1, 2, 0), (4, 3, 3)],
}


def carrier(t, tiles=None, alpha=None, beta=None):
    return SimpleNamespace(
        alpha=t.alpha if alpha is None else alpha,
        beta=t.beta if beta is None else beta,
        tiles=tuple(t.tiles if tiles is None else tiles),
    )


def outcome(module, minimal, tiling, tol):
    """Everything the two implementations must agree on."""
    try:
        analysis = module._Analysis(tiling, tol)
        report = module.validate(tiling, tol)
    except validate.ToleranceAmbiguityError as exc:
        found = (type(exc),)
    else:
        found = (
            report.census,
            report.failures,
            analysis.partner_count.tolist(),
            analysis.through_count.tolist(),
        )
    return found, minimal(tiling, tol)


def assert_agree(tiling, tol=1e-9):
    hashed = outcome(validate, covering.is_minimal, tiling, tol)
    dense = outcome(dense_oracle, dense_oracle.is_minimal, tiling, tol)
    assert hashed == dense


def broken(t, how, k):
    tiles = list(t.tiles)
    if how == "nudge":
        corners = list(tiles[k].corners)
        corners[2] += 1e-3 * (0.6 + 0.8j)
        tiles[k] = Polygon(tuple(corners), tiles[k].labels)
    elif how == "drop":
        del tiles[k]
    else:
        tiles[k] = tiles[k].translated(0.05 * (0.8 - 0.6j))
    return carrier(t, tiles)


COVERS = [(kind, h) for kind in TRIPLES for h in TRIPLES[kind]]


@pytest.mark.parametrize("kind,h", COVERS, ids=[f"{k}-{m}.{n}.{l}" for k, (m, n, l) in COVERS])
def test_covers_agree(kind, h):
    tiling = covering.build_cover(BASES[kind](), HnfTriple(*h))
    assert_agree(tiling)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_rotated_corner_lists_agree(kind):
    # tile k lists its corners from corner k mod n, so a symmetry meets
    # other tiles from a non-zero cyclic start
    t = covering.build_cover(BASES[kind](), HnfTriple(2, 2, 1))
    tiles = [
        Polygon(p.corners[k % len(p):] + p.corners[: k % len(p)])
        for k, p in enumerate(t.tiles)
    ]
    assert_agree(carrier(t, tiles))


@pytest.mark.parametrize("how", ["nudge", "drop", "shift"])
@pytest.mark.parametrize("kind", sorted(BASES))
def test_broken_carriers_agree(kind, how):
    base = BASES[kind]()
    cover = covering.build_cover(base, HnfTriple(*TRIPLES[kind][-2]))
    assert_agree(broken(cover, how, len(cover.tiles) // 3))


@pytest.mark.parametrize("kind", sorted(BASES))
def test_empty_carrier_agrees(kind):
    assert_agree(carrier(BASES[kind](), tiles=()))


def test_ambiguous_nudge_raises_in_both():
    base = covering.build_cover(BASES["i"](), HnfTriple(2, 1, 1))
    t0 = base.tiles[0]
    nudged = Polygon((t0.corners[0] + 2e-9,) + t0.corners[1:], t0.labels)
    tiling = carrier(base, (nudged,) + base.tiles[1:])
    found, _ = outcome(validate, covering.is_minimal, tiling, 1e-9)
    assert found == (validate.ToleranceAmbiguityError,)
    assert_agree(tiling)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_zero_tolerance_agrees(kind):
    assert_agree(covering.build_cover(BASES[kind](), HnfTriple(2, 1, 1)), tol=0.0)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_change_of_basis_agrees(kind):
    t = covering.build_cover(BASES[kind](), HnfTriple(2, 2, 1))
    assert_agree(carrier(t, beta=t.alpha + t.beta))
    assert_agree(carrier(t, alpha=2 * t.alpha + t.beta, beta=5 * t.alpha + 3 * t.beta))


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("kind", sorted(BASES))
def test_rescaled_agrees(kind, scale):
    t = covering.build_cover(BASES[kind](), HnfTriple(3, 1, 1))
    tiles = [Polygon(tuple(scale * z for z in p.corners), p.labels) for p in t.tiles]
    assert_agree(carrier(t, tiles, scale * t.alpha, scale * t.beta))


def test_half_vertices_agree():
    brick = Polygon((0j, 1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j, 0 + 1j))
    assert_agree(SimpleNamespace(alpha=2 + 0j, beta=0.5 + 1j, tiles=(brick,)))


def test_large_cover_validates():
    # 1,728 tiles: beyond what the dense reference can check in test time
    t = covering.build_cover(BASES["iii"](), HnfTriple(24, 24, 0))
    f = len(t.tiles)
    report = validate.validate(t)
    assert report.passed, report.failures[:3]
    c = report.census
    assert (c.v, c.e, c.h) == (2 * f, 3 * f, 0)
    assert not covering.is_minimal(t)
    assert np.array_equal(validate._Analysis(t, 1e-9).partner_count, np.ones(6 * f))
