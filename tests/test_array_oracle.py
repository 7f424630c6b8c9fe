"""The live-cell simplicity mask, the sort-built conformality stencils, the
one-pass OBJ writer and the table-driven rectangular search against the
reference copies in ``array_oracle``.

The mask must give the same bits, conformality the same float bit for bit
(or the same error) and write_obj the same text, on the moduli grids of the
benchmark, non-finite parameters, scalar, empty and broadcast corners, the
meshes the package builds and meshes with shuffled, rotated or reversed
quads, holes, boundaries and vertices of valence other than four.
rectangular_solve must give the same modulus bit for bit, or None, or the
same exception, on HNF triples of indices 1..60 at four search bounds, for
square-root, random and extreme targets, also while its cache evicts.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import array_oracle
from hextorus.cli import write_obj
from hextorus.construct import (
    OMEGA3,
    GenericityWarning,
    hexagon_corners,
    type_i_minimal,
    type_iii_minimal,
)
from hextorus.covering import enumerate_coverings
from hextorus.embed import (
    OMEGA3_CURVE,
    HopfEmbedding,
    Mesh3,
    RectEmbedding,
    conformality,
    drape_tiling,
    hopf_torus_mesh,
    rect_embed,
    rect_torus_mesh,
)
from hextorus.geom import DegenerateError, corner_angle, corner_angles, simple_mask
from hextorus.lattice import _search_images, enumerate_hnf, rectangular_solve
from hextorus.moduli import _normalize_fixed, sample_region

warnings.simplefilter("ignore", GenericityWarning)

# the five grids of the moduli_enumerate benchmark, with the i and cs
# parameters one of its seeds draws
GRIDS = {
    "i": ("i", (-0.13621462680072627 + 1.2884287034284043j, -0.07233240970005195 + 0.2883949347535637j)),
    "ii-one": ("ii", (1.0, 0.2 + 0.2j)),
    "ii-two": ("ii", (1.0, 0.35 - 0.1j)),
    "iii": ("iii", None),
    "cs": ("cs", (1.2128548684383031 - 0.2957209487763067j, 0.12348975553750041 + 1.2436781800396086j)),
}
TOLS = (0.0, 1e-9, 1e-3)


def old_bits(kind, fixed, free, tol=1e-9):
    key, norm = _normalize_fixed(kind, fixed)
    return array_oracle.simple_mask(hexagon_corners(key, norm, free), tol)


def assert_same_bits(new, old):
    assert isinstance(new, np.ndarray) and new.dtype == old.dtype == bool
    assert new.shape == old.shape
    assert np.array_equal(new, old)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_benchmark_grids(name):
    kind, fixed = GRIDS[name]
    grid = sample_region(kind, fixed, nx=512, ny=512)
    assert_same_bits(grid.bits, old_bits(kind, fixed, grid.cell_centers()))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grids_at_each_tolerance(name, tol):
    kind, fixed = GRIDS[name]
    grid = sample_region(kind, fixed, nx=96, ny=80, tol=tol)
    assert_same_bits(grid.bits, old_bits(kind, fixed, grid.cell_centers(), tol))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_non_finite_parameters(name):
    kind, fixed = GRIDS[name]
    rng = np.random.default_rng(7)
    free = rng.uniform(-1.5, 1.5, (40, 30)) + 1j * rng.uniform(-1.5, 1.5, (40, 30))
    for value in (np.nan, np.inf, -np.inf):
        free.real[rng.random(free.shape) < 0.05] = value
        free.imag[rng.random(free.shape) < 0.05] = value
    free[0, 0] = complex(np.nan, np.nan)
    free[0, 1] = complex(np.inf, -np.inf)
    key, norm = _normalize_fixed(kind, fixed)
    with np.errstate(all="ignore"):
        for tol in TOLS:
            corners = hexagon_corners(key, norm, free)
            assert_same_bits(simple_mask(corners, tol), array_oracle.simple_mask(corners, tol))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_scalar_corners(name):
    kind, fixed = GRIDS[name]
    key, norm = _normalize_fixed(kind, fixed)
    rng = np.random.default_rng(3)
    for z in rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-1.5, 1.5, 40):
        for free in (complex(z), np.asarray(z)):
            corners = hexagon_corners(key, norm, free)
            assert_same_bits(simple_mask(corners), array_oracle.simple_mask(corners))
    # every corner a 0-d array
    corners = tuple(np.asarray(c) for c in hexagon_corners(key, norm, np.asarray(0.1 + 0.2j)))
    assert_same_bits(simple_mask(corners), array_oracle.simple_mask(corners))


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4, 2)])
def test_empty_shapes(shape):
    corners = hexagon_corners("iii", (), np.zeros(shape, dtype=complex))
    assert_same_bits(simple_mask(corners), array_oracle.simple_mask(corners))


@pytest.mark.parametrize("tol", TOLS)
def test_broadcast_shapes(tol):
    # corners of a jittered regular hexagon, each with its own broadcast shape
    rng = np.random.default_rng(11)
    shapes = [(7, 1), (1, 9), (), (7, 9), (1, 1), (9,)]
    corners = []
    for k, shape in enumerate(shapes):
        jitter = rng.normal(0.0, 0.45, shape) + 1j * rng.normal(0.0, 0.45, shape)
        corners.append(np.exp(1j * math.pi * k / 3) + jitter)
    corners[2] = complex(corners[2])
    assert_same_bits(simple_mask(corners, tol), array_oracle.simple_mask(corners, tol))


def test_touching_and_degenerate_cells():
    # free parameters on a lattice through the type-iii boundary points, so
    # that some cells touch or collapse exactly
    free = np.array([0j, 1 + 0j, -1 + 0j, 0.5 + 0.5j, 0.25j, np.exp(1j * math.pi / 3)])
    for kind, fixed in GRIDS.values():
        for tol in TOLS:
            assert_same_bits(
                simple_mask(hexagon_corners(*_normalize_fixed(kind, fixed), free), tol),
                old_bits(kind, fixed, free, tol),
            )


# conformality ---------------------------------------------------------------


def outcome(fn, mesh):
    """The float as hex, or the error type and message."""
    try:
        with np.errstate(all="ignore"):
            return fn(mesh).hex()
    except ValueError as exc:
        return (type(exc), str(exc))


def assert_same_defect(mesh):
    assert outcome(conformality, mesh) == outcome(array_oracle.conformality, mesh)


@pytest.mark.parametrize("res", [64, 128, 256])
def test_rect_meshes(res):
    assert_same_defect(rect_torus_mesh(1.0, res, res))


@pytest.mark.parametrize("res", [48, 96])
def test_hopf_meshes(res):
    assert_same_defect(hopf_torus_mesh(OMEGA3_CURVE, res, res)[0])


def rect_drape(res):
    tiling = type_i_minimal(0.8j, (0.2 + 0.2j, -0.15 + 0.25j))
    return drape_tiling(tiling, RectEmbedding(0.8), surface_res=res)


def hopf_drape(res):
    return drape_tiling(type_iii_minimal(0.05 + 0.22j), HopfEmbedding(OMEGA3_CURVE), surface_res=res)


@pytest.mark.parametrize("res", [24, 48, 96, 192])
@pytest.mark.parametrize("drape", [rect_drape, hopf_drape])
def test_drapes(drape, res):
    mesh = drape(res)
    assert_same_defect(mesh)
    assert write_obj(mesh) == array_oracle.write_obj(mesh)


def remesh(mesh, quads, uv=None):
    return Mesh3(mesh.vertices, quads, np.zeros(len(quads), dtype=int), mesh.uv if uv is None else uv)


def lifted(uv):
    """A smooth, far from conformal surface over the flat points uv."""
    u, v = uv[:, 0], uv[:, 1]
    return np.stack([u + 0.3 * v * v, v, 0.4 * np.sin(2.0 * u) * np.cos(v)], axis=1)


def patch(n, m, keep=None, jitter=0.0, seed=0):
    """Open n x m grid of quads (only those ``keep`` marks) over jittered uv."""
    rng = np.random.default_rng(seed)
    u, v = np.meshgrid(np.arange(n + 1.0), np.arange(m + 1.0), indexing="ij")
    uv = np.stack([u.ravel(), v.ravel()], axis=1) * 0.2
    uv += rng.uniform(-jitter, jitter, uv.shape)
    idx = np.arange((n + 1) * (m + 1)).reshape(n + 1, m + 1)
    quads = np.stack(
        [idx[:-1, :-1].ravel(), idx[1:, :-1].ravel(), idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()],
        axis=1,
    )
    if keep is not None:
        quads = quads[keep.ravel()]
    return Mesh3(lifted(uv), quads, np.zeros(len(quads), dtype=int), uv)


def stitched_torus(n, m):
    """Closed n x m torus: the last row and column of quads wrap around."""
    i, j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    uv = np.stack([i.ravel() / n, j.ravel() / m], axis=1)
    vertices = rect_embed(1.0, uv[:, 0], uv[:, 1])
    idx = np.arange(n * m).reshape(n, m)
    corner = [idx, np.roll(idx, -1, axis=0), np.roll(idx, (-1, -1), axis=(0, 1)), np.roll(idx, -1, axis=1)]
    quads = np.stack(corner, axis=-1).reshape(-1, 4)
    return Mesh3(vertices, quads, np.zeros(len(quads), dtype=int), uv)


def polar_patch(k, rings, seed=0):
    """A valence-k centre ringed by quads: the ring around it alternates
    valence-4 spoke vertices and valence-3 vertices between the spokes."""
    rng = np.random.default_rng(seed)
    uv = [(0.0, 0.0)]
    ring = []
    for r in range(1, rings + 1):
        start = len(uv)
        for t in range(2 * k):
            radius = r + (0.4 if r == 1 and t % 2 else 0.0) + rng.uniform(-0.05, 0.05)
            uv.append((radius * math.cos(math.pi * t / k), radius * math.sin(math.pi * t / k)))
        ring.append([start + t for t in range(2 * k)])
    quads = [(0, ring[0][2 * i], ring[0][2 * i + 1], ring[0][(2 * i + 2) % (2 * k)]) for i in range(k)]
    for inner, outer in zip(ring, ring[1:]):
        for t in range(2 * k):
            s = (t + 1) % (2 * k)
            quads.append((inner[t], outer[t], outer[s], inner[s]))
    uv = 0.2 * np.array(uv)
    return Mesh3(lifted(uv), np.array(quads), np.zeros(len(quads), dtype=int), uv)


def test_shuffled_quad_order():
    rng = np.random.default_rng(1)
    for mesh in (rect_torus_mesh(1.0, 32, 24), patch(9, 8, jitter=0.03), polar_patch(5, 4)):
        assert_same_defect(remesh(mesh, mesh.quads[rng.permutation(len(mesh.quads))]))


def test_rotated_and_reversed_quads():
    rng = np.random.default_rng(2)
    for mesh in (rect_torus_mesh(1.0, 24, 32), patch(8, 9, jitter=0.03), polar_patch(3, 4)):
        quads = np.array([np.roll(q, int(rng.integers(4))) for q in mesh.quads])
        assert_same_defect(remesh(mesh, quads))
        quads = quads.copy()  # Mesh3 froze the first copy
        flip = rng.random(len(quads)) < 0.5
        quads[flip] = quads[flip, ::-1]
        assert_same_defect(remesh(mesh, quads))
        assert_same_defect(remesh(mesh, quads[rng.permutation(len(quads))]))


@pytest.mark.parametrize("seed", range(4))
def test_open_patches(seed):
    assert_same_defect(patch(6, 5, jitter=0.04, seed=seed))
    assert_same_defect(patch(12, 7, jitter=0.02, seed=seed))


def test_stitched_torus():
    # every vertex has a full star, and the stencils across the seam see
    # the jump of the flat coordinates by one period
    assert_same_defect(stitched_torus(16, 12))


@pytest.mark.parametrize("k", [3, 5, 6])
def test_valence_other_than_four(k):
    for seed in range(3):
        assert_same_defect(polar_patch(k, 4, seed))
        assert_same_defect(polar_patch(k, 2, seed))


@pytest.mark.parametrize("seed", range(6))
def test_holes_and_notches(seed):
    # missing quads leave boundary vertices with four neighbours but only
    # three quads, whose first neighbour decides whether they get axes
    rng = np.random.default_rng(seed)
    for n, m in ((8, 7), (14, 11)):
        keep = rng.random((n, m)) > 0.12
        assert_same_defect(patch(n, m, keep, jitter=0.03, seed=seed))
    ell = np.ones((7, 7), dtype=bool)
    ell[4:, 4:] = False
    assert_same_defect(patch(7, 7, ell, jitter=0.03, seed=seed))
    # a single small patch has few stencil rows, so each one shows
    keep = rng.random((5, 5)) > 0.2
    assert_same_defect(patch(5, 5, keep, jitter=0.05, seed=seed))


def test_sheared_chart():
    mesh = rect_torus_mesh(1.0, 32, 32)
    sheared = np.stack([mesh.uv[:, 0] + 0.3 * mesh.uv[:, 1], mesh.uv[:, 1]], axis=1)
    assert_same_defect(remesh(mesh, mesh.quads, sheared))


def test_infinite_defect():
    mesh = patch(6, 6, jitter=0.02)
    flat = mesh.uv.copy()
    flat[:, 1] = 0.0  # every uv stencil is singular
    assert outcome(conformality, remesh(mesh, mesh.quads, flat)) == math.inf.hex()
    assert_same_defect(remesh(mesh, mesh.quads, flat))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_interior_vertex(n):
    mesh = patch(n, n)
    assert outcome(conformality, mesh) == (ValueError, "mesh has no interior vertices")
    assert_same_defect(mesh)


def test_no_quads():
    mesh = Mesh3(np.zeros((3, 3)), np.zeros((0, 4), dtype=int), np.zeros(0, dtype=int), np.zeros((3, 2)))
    assert_same_defect(mesh)


def test_write_obj_groups_out_of_order():
    mesh = rect_drape(24)
    rng = np.random.default_rng(4)
    groups = rng.integers(-2, 5, len(mesh.quads))
    shuffled = Mesh3(mesh.vertices, mesh.quads, groups, mesh.uv, mesh.polylines)
    assert write_obj(shuffled) == array_oracle.write_obj(shuffled)


# corner angles --------------------------------------------------------------

HEXAGONS = [
    tuple(np.exp(1j * math.pi * k / 3) for k in range(6)),
    (0j, 2 + 0j, 2 + 1j, 1 + 0.4j, 0.2 + 1.3j, -0.5 + 0.6j),
    tuple(c for c in type_iii_minimal(0.05 + 0.22j).tiles[0].corners),
]


@pytest.mark.parametrize("corners", HEXAGONS + [h[::-1] for h in HEXAGONS])
def test_corner_angles_match_corner_angle(corners):
    assert corner_angles(corners) == tuple(corner_angle(corners, k) for k in range(6))


def test_corner_angles_degenerate_side_raises():
    corners = [0j, 1 + 0j, 1 + 0j, 1j]
    with pytest.raises(DegenerateError, match="zero-length side at corner 1"):
        corner_angles(corners)
    with pytest.raises(DegenerateError, match="zero-length side at corner 1"):
        corner_angle(corners, 1)


# rectangular search -----------------------------------------------------------

RNG = np.random.default_rng(2024)
TARGETS = (
    [2j * math.sqrt(3.0), OMEGA3, 1 + 4j]
    + [1j * math.sqrt(k) for k in range(1, 41)]
    + [complex(x, y) for x, y in zip(RNG.uniform(-0.5, 0.5, 40), RNG.uniform(0.2, 5.0, 40))]
    # extremes; near the float limit some images are not finite, and the
    # loop raises on reaching one
    + [1e-300j, 1e300j, 1e300 + 1j, 1.7e308j, 1e308 + 1j]
)
TRIPLES = [h for index in range(1, 61) for h in enumerate_hnf(index)]
# each target takes every STRIDE-th triple at a bound, from its own offset,
# so every triple is checked at bounds 1, 2 and 8 (the loop walks about
# 1.2*bound**2 maps, 5,040 at 64, so bound 64 takes a sample)
STRIDE = {1: 8, 2: 8, 8: 16, 64: 256}


def solve_outcome(solve, target, h, bound):
    try:
        x = solve(target, h, bound)
    except Exception as exc:  # the same exception type is the same outcome
        return type(exc)
    return None if x is None else (type(x), x.real.hex(), x.imag.hex())


def assert_same_solutions(cases):
    for target, h, bound in cases:
        old = solve_outcome(array_oracle.rectangular_solve, target, h, bound)
        assert solve_outcome(rectangular_solve, target, h, bound) == old, (target, h, bound)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", range(len(TARGETS)), ids=[repr(t) for t in TARGETS])
def test_rectangular_solve_matches_loop(p):
    target = TARGETS[p]
    assert_same_solutions(
        (target, h, bound)
        for bound, stride in STRIDE.items()
        for h in TRIPLES[(-p) % stride :: stride]
    )


@pytest.mark.parametrize("tiles", [12, 48, 240])
def test_enumerate_ii_rows_match_loop(tiles):
    target = 2j * math.sqrt(3.0)
    old = [
        (h, array_oracle.rectangular_solve(target, h))
        for h in enumerate_hnf(tiles // 4)
    ]
    rows = enumerate_coverings("ii", target, tiles)
    assert [(h, x.real.hex(), x.imag.hex()) for h, x in rows] == [
        (h, x.real.hex(), x.imag.hex()) for h, x in old if x is not None
    ]


def test_rectangular_solve_through_cache_eviction():
    # 48 (target, bound) keys in turn, six times the cache size, so every
    # call builds its table anew after the first round
    keys = [(t, b) for t in TARGETS[:12] for b in STRIDE]
    _search_images.cache_clear()
    assert_same_solutions(
        (target, h, bound) for h in TRIPLES[1::300] for target, bound in keys
    )
    info = _search_images.cache_info()
    assert info.currsize == info.maxsize < len(keys) <= info.misses
