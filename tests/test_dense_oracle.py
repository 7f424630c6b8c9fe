"""The hashed validator and is_minimal against the dense all-pairs reference.

Both must give the same census, per-side partner counts, per-cluster
through-side counts, failure list, exception type and minimality answer on
every input: valid covers of each family, broken carriers, a tolerance of
zero, a change of basis and rescaled tilings. The reference decides each
tile with the scalar is_simple, congruent and corner_angle, so the carriers
below that fail a batched check (a bow tie, a degenerate tile, odd corner
counts, mirrored and non-congruent tiles, angle sums) test that the scalar
code re-decides those tiles as it did before.
"""

from __future__ import annotations

import importlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_oracle
from hextorus.construct import (
    GenericityWarning,
    central_minimal,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.geom import (
    DegenerateError,
    Polygon,
    congruent,
    congruent_rows,
    first_violation,
    reflection,
    simple_rows,
)
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
    except DegenerateError as exc:
        found = (type(exc), str(exc))
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


def codes(tiling, tol=1e-9):
    return {code for code, _ in validate.validate(tiling, tol).failures}


def replaced(t, changes):
    tiles = list(t.tiles)
    for k, corners in changes.items():
        tiles[k] = Polygon(tuple(corners))
    return carrier(t, tiles)


def cover(kind, h=(3, 2, 1)):
    return covering.build_cover(BASES[kind](), HnfTriple(*h))


@pytest.mark.parametrize("kind", sorted(BASES))
def test_bow_tie_tile_agrees(kind):
    t = cover(kind)
    c = t.tiles[3].corners
    tiling = replaced(t, {3: (c[0], c[2], c[1]) + c[3:]})
    assert "non-simple-tile" in codes(tiling)
    assert_agree(tiling)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_degenerate_tile_raises_the_same_error(kind):
    # a side longer than the polygon check's 1e-9 but within tol
    t = cover(kind)
    c = list(t.tiles[2].corners)
    c[4] = c[3] + 5e-7
    tiling = replaced(t, {2: c})
    with pytest.raises(DegenerateError, match="corners 3 and 4 coincide"):
        validate.validate(tiling, 1e-6)
    assert_agree(tiling, 1e-6)


@pytest.mark.parametrize("first", [False, True])
@pytest.mark.parametrize("kind", sorted(BASES))
def test_odd_corner_counts_agree(kind, first):
    # a pentagon and a heptagon (a corner inserted mid-side) among hexagons,
    # the heptagon at tile 0 when first is set
    t = cover(kind)
    k = 0 if first else 4
    five, seven = t.tiles[1].corners, t.tiles[k].corners
    mid = (seven[2] + seven[3]) / 2
    tiling = replaced(t, {1: five[:2] + five[3:], k: seven[:3] + (mid,) + seven[3:]})
    failures = validate.validate(tiling).failures
    assert [code for code, _ in failures[:2]] == ["bad-side-count"] * 2
    assert_agree(tiling)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_mirrored_tiles_agree(kind):
    # a mirror image is congruent through the reflecting candidates; a
    # mirror image with one corner moved is congruent to nothing
    t = cover(kind)
    mirror = reflection(0.1 + 0.2j, 0.7)
    bent = list(t.tiles[5].transformed(mirror).corners)
    bent[2] += 1e-3 * (0.6 + 0.8j)
    tiling = replaced(t, {3: t.tiles[3].transformed(mirror).corners, 5: bent})
    failures = validate.validate(tiling).failures
    assert ("non-congruent-tile", "tile 5 not congruent to tile 0") in failures
    assert ("non-congruent-tile", "tile 3 not congruent to tile 0") not in failures
    assert_agree(tiling)


def turned_first_tile(t, worst):
    """t with tile 0 listed from its shortest side and its corner 1 moved
    across that side so far that the best isometry onto the other tiles
    misses some corner by about ``worst``."""
    c = list(t.tiles[0].corners)
    k = min(range(6), key=lambda k: abs(c[(k + 1) % 6] - c[k]))
    c = c[k:] + c[:k]
    normal = 1j * (c[1] - c[0]) / abs(c[1] - c[0])

    def tiles(delta):
        moved = c[:1] + [c[1] + delta * normal] + c[2:]
        return (Polygon(tuple(moved)),) + t.tiles[1:]

    def residual(delta):
        a, b = tiles(delta)[0], t.tiles[1]
        g = congruent(a, b, 1e-3)
        return max(abs(g.isometry(z) - b.corners[j]) for z, j in zip(a.corners, g.mapping))

    # the residual is linear in a small turn
    delta = 0.25 * worst * (worst / residual(0.25 * worst))
    return carrier(t, tiles(delta)), delta


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("scale", [1 - 1e-5, 1 - 1e-13, 1 + 1e-13, 1 + 1e-5])
def test_congruence_within_rounding_of_tol_agrees(scale, tol):
    # every tile misses tile 0 by tol times scale; within 1e-12 of tol
    # congruent_rows abstains and the scalar congruent decides
    t = cover("iii")
    tiling, delta = turned_first_tile(t, tol * scale)
    assert delta < 0.9 * tol  # corner 1 stays in its cluster
    stack = np.array([p.corners for p in tiling.tiles[1:]])
    sure = congruent_rows(tiling.tiles[0], stack, tol).tolist()
    assert sure == [tol * abs(scale - 1) > 1e-12 and scale < 1] * len(stack)
    failures = validate.validate(tiling, tol).failures
    bad = [text for code, text in failures if code == "non-congruent-tile"]
    if abs(scale - 1) > 1e-6:
        assert len(bad) == (0 if scale < 1 else len(t.tiles) - 1)
    assert_agree(tiling, tol)


@pytest.mark.parametrize("h", [(1, 1, 0), (2, 1, 0), (3, 2, 1)])
@pytest.mark.parametrize("signs", ["+-", "++-", "++--+", "+-+--"])
def test_strip_tilings_agree(signs, h):
    # strip tiles are mirror images of tile 0 for some runs of signs
    base = strip_tiling(1.2, 0.9, 0.15, (0.3 + 0.45j, 0.2 + 0.525j), signs)
    t = covering.build_cover(base, HnfTriple(*h))
    assert any(congruent(t.tiles[0], p).isometry.reflect for p in t.tiles)
    assert validate.validate(t).passed
    assert_agree(t)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_angle_sum_failure_agrees(kind):
    # moving one corner turns the angles of its neighbours, whose vertices
    # keep degree 3
    t = cover(kind)
    c = list(t.tiles[2].corners)
    c[3] += 1e-4 * (0.6 + 0.8j)
    tiling = replaced(t, {2: c})
    assert "angle-sum" in codes(tiling)
    assert_agree(tiling)


def hexagon(radii, turns):
    angles = np.cumsum(turns) / np.sum(turns) * 2 * np.pi
    return [complex(r * np.cos(a), r * np.sin(a)) for r, a in zip(radii, angles)]


RADII = st.lists(st.floats(0.2, 2.0), min_size=6, max_size=6)
TURNS = st.lists(st.floats(0.1, 1.0), min_size=6, max_size=6)
SHUFFLE = st.permutations(range(6))


@given(st.lists(st.tuples(RADII, TURNS, SHUFFLE), min_size=1, max_size=8))
def test_simple_rows_equal_first_violation(draws):
    # star-shaped hexagons, simple in their own order, shuffled into bow ties
    rows = [[hexagon(r, t)[k] for k in order] for r, t, order in draws]
    expected = [first_violation(c) is None for c in rows]
    assert simple_rows(np.array(rows)).tolist() == expected


@given(
    RADII,
    TURNS,
    st.integers(0, 5),
    st.floats(0.05, 0.95),
    st.integers(-6, 6),
    st.sampled_from([1e-9, 1e-6, 1e-3]),
)
def test_simple_rows_at_the_tolerance(radii, turns, side, at, ulps, tol):
    # a corner placed off a non-adjacent side by tol, give or take a few ulps
    c = hexagon(radii, turns)
    a, b = c[side], c[(side + 1) % 6]
    normal = 1j * (b - a) / abs(b - a)
    gap = tol * (1.0 + ulps * 2.0**-52)
    c[(side + 3) % 6] = a + at * (b - a) + gap * normal
    assert simple_rows(np.array([c]), tol).tolist() == [first_violation(c, tol) is None]


def test_huge_coordinates_give_the_reference_report_without_warnings():
    # the README's 2-tile tiling scaled by 1e300: coordinates overflow in
    # the array passes, which must not leak numpy warnings
    t = type_i_minimal(0.6j, (0.24 + 0.17j, -0.18 + 0.27j))
    s = 1e300
    tiles = [Polygon(tuple(s * z for z in p.corners)) for p in t.tiles]
    tiling = carrier(t, tiles, s * t.alpha, s * t.beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate.validate(tiling)
        cen = validate.census(tiling)
    with np.errstate(all="ignore"):
        reference = dense_oracle.validate(tiling)
    assert report == reference and cen == reference.census
    assert not report.passed
