"""The blocked simplicity mask, the grid-sliced conformality stencils, the
bulk OBJ writer, the table-driven rectangular search and the
unlabelled-points tile assignment against the reference copies in
``array_oracle``.

The mask must give the same bits, conformality the same float bit for bit
(or the same error) and write_obj the same text, on the moduli grids of the
benchmark, non-finite parameters, scalar, empty and broadcast corners, stacks
of rows with bad loops planted at the block edges, the meshes the package
builds (square and not), open grid patches, and random OBJ records;
conformality refuses quad meshes that are not vertex grids (shuffled, rotated
or reversed quads, holes, stitched seams, vertices of valence other than
four). rectangular_solve must give each modulus that the map-by-map search
finds at four search bounds, bit for bit, on HNF triples of indices 1..60 for
square-root and random targets, and a covering isometric to the target where
the search finds none; at the float limit its outcomes are pinned. Drapes
must group their quads as the all-points loop does, also where a quad centre
escapes every tile and is snapped (the "++--" strip keeps the parent's
mislabels), and the box-filtered even-odd test must give the all-points
test's mask. Conformality and write_obj work in blocks, so
they are also compared on grids and records one row either side of a block
edge, with a singular stencil or a NaN in one block only.
"""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import array_oracle
from hextorus import cli, embed, geom
from hextorus.cli import write_obj
from hextorus.construct import (
    OMEGA3,
    GenericityWarning,
    central_minimal,
    family,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.covering import build_cover, enumerate_coverings
from hextorus.embed import (
    OMEGA3_CURVE,
    HopfEmbedding,
    Mesh3,
    RectEmbedding,
    _grid_quads,
    _grid_shape,
    _point_in_polygon,
    conformality,
    drape_tiling,
    hopf_torus_mesh,
    rect_embed,
    rect_torus_mesh,
)
from hextorus.geom import (
    DegenerateError,
    _rows,
    corner_angle,
    corner_angles,
    first_violation,
    seg_point_dist,
    simple_mask,
)
from hextorus.lattice import (
    HnfTriple,
    LatticeFrame,
    covering_modulus,
    enumerate_hnf,
    lattices_isometric,
    rectangular_solve,
)
from hextorus.moduli import sample_region

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


def corners_of(kind, fixed, free):
    """The prototile corners of a family at its fixed parameters and the free ones."""
    fam = family(kind)
    return fam.corners(*fam.check(fixed), free)


def old_bits(kind, fixed, free, tol=1e-9):
    return array_oracle.simple_mask(corners_of(kind, fixed, free), tol)


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
    with np.errstate(all="ignore"):
        for tol in TOLS:
            corners = corners_of(kind, fixed, free)
            assert_same_bits(simple_mask(corners, tol), array_oracle.simple_mask(corners, tol))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_scalar_corners(name):
    kind, fixed = GRIDS[name]
    rng = np.random.default_rng(3)
    for z in rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-1.5, 1.5, 40):
        for free in (complex(z), np.asarray(z)):
            corners = corners_of(kind, fixed, free)
            assert_same_bits(simple_mask(corners), array_oracle.simple_mask(corners))
    # every corner a 0-d array
    corners = tuple(np.asarray(c) for c in corners_of(kind, fixed, np.asarray(0.1 + 0.2j)))
    assert_same_bits(simple_mask(corners), array_oracle.simple_mask(corners))


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4, 2)])
def test_empty_shapes(shape):
    corners = corners_of("iii", None, np.zeros(shape, dtype=complex))
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


@pytest.mark.parametrize("tol", TOLS)
def test_stacked_corners(tol):
    # the transpose of an (f, 6) stack of loops, as validate passes it, and
    # a stack with more axes give the bits of the corners one by one
    rng = np.random.default_rng(13)
    shape = (3000, 6)
    jitter = rng.normal(0.0, 0.45, shape) + 1j * rng.normal(0.0, 0.45, shape)
    loops = np.exp(1j * np.pi * np.arange(6) / 3) + jitter
    expected = array_oracle.simple_mask(tuple(loops.T), tol)
    assert expected.any() and not expected.all()
    assert_same_bits(simple_mask(loops.T, tol), expected)
    assert_same_bits(simple_mask(loops.T.reshape(6, 60, 50), tol), expected.reshape(60, 50))


def test_touching_and_degenerate_cells():
    # free parameters on a lattice through the type-iii boundary points, so
    # that some cells touch or collapse exactly
    free = np.array([0j, 1 + 0j, -1 + 0j, 0.5 + 0.5j, 0.25j, np.exp(1j * math.pi / 3)])
    for kind, fixed in GRIDS.values():
        for tol in TOLS:
            assert_same_bits(
                simple_mask(corners_of(kind, fixed, free), tol),
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


def assert_refused(mesh):
    assert outcome(conformality, mesh) == (ValueError, "mesh quads are not a vertex grid")


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
        assert_refused(remesh(mesh, mesh.quads[rng.permutation(len(mesh.quads))]))


def test_rotated_and_reversed_quads():
    rng = np.random.default_rng(2)
    for mesh in (rect_torus_mesh(1.0, 24, 32), patch(8, 9, jitter=0.03), polar_patch(3, 4)):
        quads = np.array([np.roll(q, int(rng.integers(4))) for q in mesh.quads])
        assert_refused(remesh(mesh, quads))
        quads = quads.copy()  # Mesh3 froze the first copy
        flip = rng.random(len(quads)) < 0.5
        quads[flip] = quads[flip, ::-1]
        assert_refused(remesh(mesh, quads))
        assert_refused(remesh(mesh, quads[rng.permutation(len(quads))]))


@pytest.mark.parametrize("seed", range(4))
def test_open_patches(seed):
    assert_same_defect(patch(6, 5, jitter=0.04, seed=seed))
    assert_same_defect(patch(12, 7, jitter=0.02, seed=seed))


def test_stitched_torus():
    # every vertex has a full star, but the quads wrap around: not a grid
    assert_refused(stitched_torus(16, 12))


@pytest.mark.parametrize("k", [3, 5, 6])
def test_valence_other_than_four(k):
    for seed in range(3):
        assert_refused(polar_patch(k, 4, seed))
        assert_refused(polar_patch(k, 2, seed))


@pytest.mark.parametrize("seed", range(6))
def test_holes_and_notches(seed):
    # a grid with quads missing is not a grid
    rng = np.random.default_rng(seed)
    for n, m in ((8, 7), (14, 11)):
        keep = rng.random((n, m)) > 0.12
        assert_refused(patch(n, m, keep, jitter=0.03, seed=seed))
    ell = np.ones((7, 7), dtype=bool)
    ell[4:, 4:] = False
    assert_refused(patch(7, 7, ell, jitter=0.03, seed=seed))
    keep = rng.random((5, 5)) > 0.2
    assert_refused(patch(5, 5, keep, jitter=0.05, seed=seed))


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


# block edges -----------------------------------------------------------------


def block_rows(m1):
    """Interior grid rows per conformality block of an m1-column grid."""
    return max(1, embed._BLOCK // m1)


def grid_case(m1, interior):
    """A jittered grid of m1 columns and the given interior rows over the
    unit square, lifted to a smooth surface."""
    n1 = interior + 4
    rng = np.random.default_rng(m1 + interior)
    i, j = np.meshgrid(np.arange(n1), np.arange(m1), indexing="ij")
    uv = np.stack([i.ravel(), j.ravel()], axis=1) + rng.uniform(-0.02, 0.02, (n1 * m1, 2))
    uv /= max(n1, m1)
    quads = _grid_quads(n1, m1)
    return Mesh3(lifted(uv), quads, np.zeros(len(quads), dtype=int), uv)


def singular_row(values, n1, m1, row, p, q):
    """The grid values with both five-point differences zero along a row:
    the row alternates p and q, and the two rows after it repeat the two
    before it."""
    grid = values.reshape(n1, m1, -1).copy()
    grid[row, 0::2], grid[row, 1::2] = p, q
    grid[row + 1], grid[row + 2] = grid[row - 1], grid[row - 2]
    return grid.reshape(values.shape)


def without_last_row(mesh, n1, m1):
    """The grid mesh less its last row of vertices."""
    quads = _grid_quads(n1 - 1, m1)
    return Mesh3(mesh.vertices[:-m1], quads, np.zeros(len(quads), dtype=int), mesh.uv[:-m1])


@pytest.mark.parametrize("m1", [5, 1000, 2731])
def test_conformality_block_edges(m1):
    rows = block_rows(m1)
    for interior in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 1} - {0}):
        assert_same_defect(grid_case(m1, interior))


@pytest.mark.parametrize("m1", [5, 2731])
@pytest.mark.parametrize("chart", ["uv", "vertices"])
def test_singular_stencil_only_in_last_block(m1, chart):
    # the last block holds one row, the last interior one; a zero det_uv
    # (a singular uv stencil) or a zero lam_min (a zero xyz stencil) there,
    # and only there, still gives inf
    interior = 2 * block_rows(m1) + 1
    mesh = grid_case(m1, interior)
    n1 = interior + 4
    if chart == "uv":
        uv = singular_row(mesh.uv, n1, m1, n1 - 3, (0.1, 0.3), (0.5, -0.2))
        mesh = Mesh3(mesh.vertices, mesh.quads, mesh.groups, uv)
    else:
        vertices = singular_row(mesh.vertices, n1, m1, n1 - 3, (5.0, 5.0, 5.0), (5.0, -5.0, 5.0))
        mesh = Mesh3(vertices, mesh.quads, mesh.groups, mesh.uv)
    assert outcome(conformality, mesh) == math.inf.hex()
    assert_same_defect(mesh)
    assert math.isfinite(conformality(without_last_row(mesh, n1, m1)))


@pytest.mark.parametrize("m1", [5, 2731])
@pytest.mark.parametrize("side", [0, 1])
def test_singular_stencil_at_a_block_edge(m1, side):
    # the last interior row of the first block, or the first of the second:
    # a block that skipped or lost a row of the grid would miss it
    rows = block_rows(m1)
    mesh = grid_case(m1, 2 * rows + 1)
    n1 = 2 * rows + 5
    uv = singular_row(mesh.uv, n1, m1, rows + 1 + side, (0.1, 0.3), (0.5, -0.2))
    mesh = Mesh3(mesh.vertices, mesh.quads, mesh.groups, uv)
    assert outcome(conformality, mesh) == math.inf.hex()
    assert_same_defect(mesh)


def test_quad_area_is_norm_of_cross():
    # Mesh3's blocked area check measures |a x b| as np.linalg.norm(np.cross)
    # did, bit for bit, over magnitudes from 1e-75 to 1e75
    rng = np.random.default_rng(7)
    a, b = (
        rng.standard_normal((100_000, 3)) * 10.0 ** rng.integers(-75, 75, (100_000, 3))
        for _ in range(2)
    )
    want = np.linalg.norm(np.cross(a, b), axis=-1)
    assert np.array_equal(embed._cross_norm(a, b), want)


def test_nan_block_outweighs_a_singular_block():
    # uv near the float limit make det_uv NaN in the first block; the zero
    # det_uv of the last block then no longer decides, as in one pass
    m1 = 1000
    interior = 2 * block_rows(m1) + 1
    mesh = grid_case(m1, interior)
    n1 = interior + 4
    uv = singular_row(mesh.uv, n1, m1, n1 - 3, (0.1, 0.3), (0.5, -0.2))
    uv[: 5 * m1] *= 1e160
    mesh = Mesh3(mesh.vertices, mesh.quads, mesh.groups, uv)
    assert outcome(array_oracle.conformality, mesh) == math.nan.hex()
    assert_same_defect(mesh)


@pytest.mark.parametrize("rows", [-1, 0, 1])
def test_write_obj_block_edges(rows):
    # block +- 1 rows of every record kind, one face run across the block
    # edge, and uv columns that mix -0.0 and 0.0
    n = cli._BLOCK + rows
    rng = np.random.default_rng(n)
    mesh = SimpleNamespace(
        vertices=rng.standard_normal((n, 3)),
        uv=rng.choice([0.0, -0.0, 0.25, -0.25, 5e-324, -5e-324], size=(n, 2)),
        quads=rng.integers(0, n, (n, 4)),
        groups=(np.arange(n) >= n - 2).astype(int),
        polylines=(rng.standard_normal((n, 3)), rng.standard_normal((2, 3))),
    )
    text = write_obj(mesh)
    assert text == array_oracle.write_obj(mesh)
    assert "vt -0 0\n" in text and "vt 0 -0\n" in text


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
    # extremes: 1e300 + 1j and 1e308 + 1j are the lattice of 1j
    + [1e-300j, 1e300j, 1e300 + 1j, 1.7e308j, 1e308 + 1j]
)
# at 1e-300j and 1e300j the loop's hits at l > 0 are rounding artefacts (the
# lattice <4, 2 + 1e-300j> has the modulus 1/2 + 1e300j, not 1e300j), and at
# 1.7e308j it raises on reaching an image that is not finite; the rule's
# outcomes are pinned instead
FLOAT_LIMIT = (1e-300j, 1e300j, 1.7e308j)
TRIPLES = [h for index in range(1, 61) for h in enumerate_hnf(index)]
# each target takes every STRIDE-th triple at a bound, from its own offset,
# so every triple is checked at bounds 1, 2 and 8 (the loop walks about
# 1.2*bound**2 maps, 5,040 at 64, so bound 64 takes a sample)
STRIDE = {1: 8, 2: 8, 8: 16, 64: 256}


def solve_outcome(solve, *args):
    try:
        x = solve(*args)
    except Exception as exc:  # the same exception type is the same outcome
        return type(exc)
    return None if x is None else (type(x), x.real.hex(), x.imag.hex())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", range(len(TARGETS)), ids=[repr(t) for t in TARGETS])
def test_rectangular_solve_matches_loop(p):
    target = TARGETS[p]
    # the search runs on the target less the integer nearest its real part,
    # the same lattice
    shifted = target - round(target.real)
    for bound, stride in STRIDE.items():
        for h in TRIPLES[(-p) % stride :: stride]:
            new = solve_outcome(rectangular_solve, target, h)
            if target in FLOAT_LIMIT:
                # only the vertical line through the target fits, at l = 0;
                # at 1.7e308j and m > n its height is not finite
                pinned = solve_outcome(lambda: 1j * (h.m * target.imag / h.n)) if h.l == 0 else None
                assert new == pinned, (target, h)
                continue
            old = solve_outcome(array_oracle.rectangular_solve, shifted, h, bound)
            if old is not None:
                assert new == old, (target, h, bound)
            elif new is not None:  # a hit past the loop's bound
                x = rectangular_solve(target, h)
                assert x.real == 0.0 and lattices_isometric(covering_modulus(x, h), target)


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


# distinct checks ------------------------------------------------------------
# the mask runs each crossing, point-side distance and side length once; the
# reference evaluates all 27 tests of a hexagon on every cell


@pytest.mark.parametrize("tol", [-1e-3, math.nan])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grids_at_negative_and_nan_tolerance(name, tol):
    kind, fixed = GRIDS[name]
    grid = sample_region(kind, fixed, nx=96, ny=80, tol=tol)
    assert_same_bits(grid.bits, old_bits(kind, fixed, grid.cell_centers(), tol))


@pytest.mark.parametrize("tol", [-1e-3, math.nan])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_non_finite_parameters_at_negative_and_nan_tolerance(name, tol):
    kind, fixed = GRIDS[name]
    rng = np.random.default_rng(5)
    free = rng.uniform(-1.5, 1.5, (40, 30)) + 1j * rng.uniform(-1.5, 1.5, (40, 30))
    for value in (np.nan, np.inf, -np.inf):
        free.real[rng.random(free.shape) < 0.05] = value
        free.imag[rng.random(free.shape) < 0.05] = value
    with np.errstate(all="ignore"):
        corners = corners_of(kind, fixed, free)
        assert_same_bits(simple_mask(corners, tol), array_oracle.simple_mask(corners, tol))


@pytest.mark.parametrize("tol", TOLS + (-1e-3, 0.05))
@pytest.mark.parametrize("n", [5, 7])
def test_random_loops(n, tol):
    # jittered regular n-gons, many of them tangled; on half the cells the
    # corners snap to a coarse grid, so that sides touch, overlap and collapse
    rng = np.random.default_rng(n)
    cells = 6000
    corners = []
    for k in range(n):
        jitter = rng.normal(0.0, 0.5, cells) + 1j * rng.normal(0.0, 0.5, cells)
        z = np.exp(2j * math.pi * k / n) + jitter
        z[: cells // 2] = np.round(z[: cells // 2] * 2.0) / 2.0
        corners.append(z.reshape(60, 100))
    new = simple_mask(corners, tol)
    assert_same_bits(new, array_oracle.simple_mask(corners, tol))
    if tol >= 0.0:
        assert 0 < new.sum() < new.size


def test_a_crossing_clears_its_test_below_zero():
    # corners near 1e154, where the dot products of seg_point_dist overflow:
    # in arrays some distance of a cross test is NaN, but its sides cross,
    # and below zero a crossing's distance 0 passes, so the loop passes
    loop = [
        -5.29603458821852e153 + 5.668215624899972e153j,
        -3.44802311572478e153 + 3.604412114006904e153j,
        -4.262462790533869e153 + 4.547984538756714e153j,
        -4.344727872856304e153 - 4.372809780670383e153j,
        4.440863647751336e153 - 5.030572394280863e153j,
    ]
    corners = [np.array([z]) for z in loop]
    with np.errstate(all="ignore"):
        rows, _, tests = _rows(5)
        touches = {rows[at] for kind, *_, at in tests if kind == "touch"}
        nan = [at for at in rows if np.isnan(seg_point_dist(*(corners[k] for k in at)))]
        assert nan and not set(nan) & touches
        for tol in (-1e-3, 1e-9):
            expected = first_violation(loop, tol) is None
            assert expected == (tol < 0)
            assert_same_bits(simple_mask(corners, tol), array_oracle.simple_mask(corners, tol))
            assert simple_mask(corners, tol).tolist() == [expected]
            assert simple_mask(loop, tol) == expected
            assert simple_mask(tuple(np.array([loop]).T), tol).tolist() == [expected]


def test_scalar_corners_with_nan():
    # all-scalar corners take the scalar arithmetic; a NaN or infinite corner
    # gives the reference's outcome at every tolerance
    base = [complex(np.exp(1j * math.pi * k / 3)) for k in range(6)]
    nan, inf = math.nan, math.inf
    odd = [complex(nan, 0.0), complex(0.0, nan), complex(nan, inf), complex(inf, 0.0)]
    for tol in TOLS + (-1e-3, nan):
        for k in range(6):
            for z in odd:
                corners = base[:k] + [z] + base[k + 1 :]
                assert_same_bits(simple_mask(corners, tol), array_oracle.simple_mask(corners, tol))


# blocks ------------------------------------------------------------------------
# the mask decides a stack of rows _BLOCK at a time, dropping the rows each
# kind of check rejects; bad loops at the edges of every block must keep
# their bits, and so must the rows around them

STACK_TOLS = (0.0, 1e-9, 1e-3, 0.05, -1e-3, math.nan)


def plant(row, defect):
    """The hexagon row with one defect: a bow tie, corner 2 folded back onto
    side 0 (a touch), a zero-length side, a NaN or an infinite corner."""
    row = row.copy()
    if defect == "bow tie":
        row[[0, 1]] = row[[1, 0]]
    elif defect == "touch":
        row[2] = (row[0] + row[1]) / 2.0
    elif defect == "degenerate":
        row[1] = row[0]
    else:
        row[3] = complex(math.nan, 0.0) if defect == "nan" else complex(math.inf, 0.0)
    return row


def assert_stack_bits(stack, tol):
    bits = simple_mask(tuple(stack.T), tol)
    assert_same_bits(bits, array_oracle.simple_mask(tuple(stack.T), tol))
    finite = np.isfinite(stack).all(axis=1)
    expected = [first_violation(row, tol) is None for row in stack[finite].tolist()]
    assert bits[finite].tolist() == expected


@pytest.mark.parametrize("defect", ["bow tie", "touch", "degenerate", "nan", "inf"])
def test_defects_at_block_edges(defect):
    block = geom._BLOCK
    rng = np.random.default_rng(17)
    regular = np.exp(1j * np.pi * np.arange(6) / 3)
    jitter = rng.normal(0.0, 0.6, (2 * block + 3, 6)) + 1j * rng.normal(0.0, 0.6, (2 * block + 3, 6))
    stack = regular + jitter  # about a quarter of the rows not simple at tol >= 0
    for k in (0, block - 1, block, 2 * block - 1, 2 * block, 2 * block + 2):
        stack[k] = plant(stack[k], defect)
    with np.errstate(all="ignore"):
        for tol in STACK_TOLS:
            assert_stack_bits(stack, tol)


def test_empty_and_one_row_stacks():
    regular = np.exp(1j * np.pi * np.arange(6) / 3)
    with np.errstate(all="ignore"):
        for tol in STACK_TOLS:
            assert_stack_bits(np.zeros((0, 6), dtype=complex), tol)
            for defect in (None, "bow tie", "touch", "degenerate", "nan", "inf"):
                row = regular if defect is None else plant(regular, defect)
                assert_stack_bits(row[None, :], tol)


# grid stencils ---------------------------------------------------------------


NON_SQUARE = {
    "rect-32x24": lambda: rect_torus_mesh(1.0, 32, 24),
    "hopf-40x56": lambda: hopf_torus_mesh(OMEGA3_CURVE, 40, 56)[0],
}


@pytest.mark.parametrize("name", sorted(NON_SQUARE))
def test_non_square_meshes(name):
    mesh = NON_SQUARE[name]()
    assert _grid_shape(mesh.quads, len(mesh.vertices)) is not None
    assert_same_defect(mesh)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, m", [(3, 3), (4, 9), (9, 4), (12, 7)])
def test_jittered_grid_patches(n, m, seed):
    mesh = patch(n, m, jitter=0.03, seed=seed)
    assert _grid_shape(mesh.quads, len(mesh.vertices)) == (n + 1, m + 1)
    assert_same_defect(mesh)


def test_grid_quads_are_shared_and_read_only():
    quads = _grid_quads(9, 9)
    assert rect_torus_mesh(1.0, 8, 8).quads is quads
    with pytest.raises(ValueError):
        quads[0, 0] = 1
    assert quads[0, 0] == 0


# OBJ bytes -------------------------------------------------------------------

# signed zeros, subnormals and magnitudes near the ends of the float range
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]
COORD = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)


@given(st.data())
def test_write_obj_bytes(data):
    # write_obj reads the arrays only, so random coordinates go in without
    # Mesh3's degenerate-quad check
    nv = data.draw(st.integers(0, 9))
    nq = data.draw(st.integers(0, 12)) if nv else 0
    spread = data.draw(st.sampled_from([0, 1, 3, 1 << 40]))
    mesh = SimpleNamespace(
        vertices=data.draw(arrays(np.float64, (nv, 3), elements=COORD)),
        uv=data.draw(arrays(np.float64, (nv, 2), elements=COORD)),
        quads=data.draw(arrays(np.int64, (nq, 4), elements=st.integers(0, max(nv - 1, 0)))),
        groups=data.draw(arrays(np.int64, nq, elements=st.integers(-spread, spread))),
        polylines=tuple(
            data.draw(arrays(np.float64, (k, 3), elements=COORD))
            for k in data.draw(st.lists(st.integers(0, 5), max_size=4))
        ),
    )
    assert write_obj(mesh) == array_oracle.write_obj(mesh)


# tile assignment -------------------------------------------------------------

SIGMA_I = (0.2 + 0.2j, -0.15 + 0.25j)
STRIP_SIGMA = (0.3 + 0.45j, 0.2 + 0.525j)  # Im(2t - i) = h/2 for h = 1.2
HOPF = HopfEmbedding(OMEGA3_CURVE)

# (tiling, target) per name; the free vector tip of rect-2-on-centre is the
# centre of a quad of the res-96 drape, where no tile's even-odd test holds it
DRAPES = {
    "rect-2": lambda: (type_i_minimal(0.8j, SIGMA_I), RectEmbedding(0.8)),
    "rect-2-on-centre": lambda: (
        type_i_minimal(0.8j, (0.2 + 0.2j, -0.203125 + 0.1978839555740006j)),
        RectEmbedding(0.8),
    ),
    "rect-3": lambda: (
        build_cover(central_minimal(1.0, 0.8j, 0.6 + 0.3j), HnfTriple(1, 3, 0)),
        RectEmbedding(2.4),
    ),
    "rect-4": lambda: (type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j)), RectEmbedding(1.0)),
    "rect-strip": lambda: (strip_tiling(1.2, 0.9, 0.15, STRIP_SIGMA, "++--"), RectEmbedding(1.0 / 3.0)),
    "hopf-2": lambda: (type_i_minimal(OMEGA3, SIGMA_I), HOPF),
    "hopf-3": lambda: (type_iii_minimal(0.05 + 0.22j), HOPF),
    "hopf-4": lambda: (
        build_cover(central_minimal(1.0, OMEGA3, 0.6 + 0.2j), HnfTriple(2, 2, 0)),
        HOPF,
    ),
    "hopf-strip": lambda: (
        strip_tiling(1.2, 0.6 * math.sqrt(3.0), 0.6, STRIP_SIGMA, "+"),
        HOPF,
    ),
}


def drape_centres(name, res, monkeypatch):
    """The drape, its tiling and the quad centres it assigned to tiles."""
    tiling, target = DRAPES[name]()
    assign = embed._assign_tiles
    seen = []

    def spy(t, centers):
        seen.append(centers)
        return assign(t, centers)

    monkeypatch.setattr(embed, "_assign_tiles", spy)
    mesh = drape_tiling(tiling, target, surface_res=res)
    (centres,) = seen
    return mesh, tiling, centres


def escaped(tiling, points):
    """How many points no tile holds by the even-odd test, over the oracle's
    81 lattice shifts."""
    reduced = LatticeFrame(tiling.alpha, tiling.beta).reduce(points)
    held = np.zeros(len(points), dtype=bool)
    for tile in tiling.tiles:
        corners = np.array(tile.corners, dtype=complex)
        for da in array_oracle.SHIFTS:
            for db in array_oracle.SHIFTS:
                held |= _point_in_polygon(corners + da * tiling.alpha + db * tiling.beta, reduced)
    return int((~held).sum())


@pytest.mark.parametrize("res", [24, 48, 96, 192])
@pytest.mark.parametrize("name", sorted(DRAPES))
def test_tile_assignment_matches_all_points_loop(name, res, monkeypatch):
    mesh, tiling, centres = drape_centres(name, res, monkeypatch)
    assert np.array_equal(mesh.groups, array_oracle._assign_tiles(tiling, centres))


@pytest.mark.parametrize("name, res", [("rect-2-on-centre", 96)])
def test_tile_assignment_snaps_as_the_loop_does(name, res, monkeypatch):
    mesh, tiling, centres = drape_centres(name, res, monkeypatch)
    assert escaped(tiling, centres) > 0
    assert np.array_equal(mesh.groups, array_oracle._assign_tiles(tiling, centres))


SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]


def polygon(data, n):
    """n corners at unit scale: a star-shaped (simple) loop, a random one
    (often self-crossing), or one on a small integer grid, where sides run
    horizontal and corners share coordinates."""
    shape = data.draw(st.sampled_from(["star", "random", "grid"]))
    if shape == "grid":
        coord = st.integers(-3, 3).map(float)
        return np.array([complex(data.draw(coord), data.draw(coord)) for _ in range(n)])
    unit = st.floats(-2.0, 2.0, allow_nan=False)
    if shape == "random":
        return np.array([complex(data.draw(unit), data.draw(unit)) for _ in range(n)])
    turns = np.sort([data.draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True)) for _ in range(n)])
    radii = np.array([data.draw(st.floats(0.1, 2.0)) for _ in range(n)])
    return radii * np.exp(1j * turns)


def edge_values(values, data):
    """The box's ends of the values, one float past each, their own values
    and a few drawn ones, past the ends too."""
    lo, hi = values.min(), values.max()
    width = hi - lo or 1.0
    pad = 1e-12 * (np.max(np.abs(values)) + 1.0)
    near = [lo - pad, hi + pad, lo - 2.0 * pad, hi + 2.0 * pad, lo - 0.5 * pad, hi + 0.5 * pad]
    drawn = [lo + width * data.draw(st.floats(-0.5, 1.5)) for _ in range(4)]
    ends = [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), lo, hi]
    return np.array([*ends, *near, *values, *drawn])


@given(st.data())
def test_point_in_polygon_box_filter_is_exact(data):
    # the box-filtered test against the all-points one, at scales 1e-12 to
    # 1e12 and away from the origin, on points on and just off the box's
    # edges and corners, at the polygon's corners and at drawn points
    n = data.draw(st.integers(3, 8))
    scale = data.draw(st.sampled_from(SCALES))
    shift = data.draw(st.sampled_from([0j, 1 + 1j, -1e3 + 5e2j]))
    corners = (polygon(data, n) + shift) * scale
    xs, ys = edge_values(corners.real, data), edge_values(corners.imag, data)
    points = np.add.outer(xs, 1j * ys)
    with np.errstate(over="ignore"):  # sides a subnormal height apart
        got = _point_in_polygon(corners, points)
        want = array_oracle._point_in_polygon(corners, points)
    assert got.shape == points.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "corners, point",
    [
        ([-0.934 + 0.413j, 0.137 - 0.032j, -0.954 - 0.451j], np.nextafter(0.137, 1) - 0.032j),
        ([-0.317 - 0.039j, 0.856 - 0.09j, 0.779 + 0.334j], np.nextafter(-0.317, -1) - 0.039j),
    ],
)
def test_point_one_float_past_the_box(corners, point):
    # at a corner's height the crossing of the side into that corner rounds
    # past the corner, so the all-points test holds a point one float right
    # (or left) of the box; the box's pad keeps it
    corners, points = np.array(corners), np.array([point])
    assert array_oracle._point_in_polygon(corners, points)[0]
    assert _point_in_polygon(corners, points)[0]


def test_tile_assignment_of_tile_corners():
    # corners and side midpoints lie on tile boundaries, so some escape
    escapes = 0
    for name in sorted(DRAPES):
        tiling = DRAPES[name]()[0]
        corners = np.array([tile.corners for tile in tiling.tiles], dtype=complex)
        points = np.concatenate([corners, (corners + np.roll(corners, -1, axis=1)) / 2.0]).ravel()
        escapes += escaped(tiling, points)
        assert np.array_equal(
            embed._assign_tiles(tiling, points), array_oracle._assign_tiles(tiling, points)
        )
    assert escapes > 0
