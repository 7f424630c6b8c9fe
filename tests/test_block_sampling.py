"""sample_region's certified blocks against the per-cell mask.

sample_region decides whole blocks of cells from bounds on the simplicity
checks and sends only the cells no bound decides through simple_mask. Its
bits must equal simple_mask at every cell centre: on the benchmark grids at
several sizes and tolerances, on boxes a few ulps to 1e-300 wide across a
region boundary and at a parameter whose orientations sit at rounding level,
on boxes near 1e150 and at 2048x2048. On the 512x512 benchmark grids the
share of cells that reach the mask is bounded, so a block path that stops
certifying fails here and not only in the benchmark.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from hextorus import moduli
from hextorus.construct import hexagon_corners
from hextorus.geom import _atoms, seg_point_dist, simple_mask
from hextorus.moduli import _Certificates, _normalize_fixed, membership_mask, sample_region
from test_array_oracle import GRIDS

SIZES = [(2, 2), (7, 5), (96, 80), (333, 517), (512, 512)]
TOLS = [0.0, 1e-9, 1e-3, 0.05, -1e-3, math.nan]

# the parameter of the false crossing: the float orientations of sides 1
# and 4 are (0, 2.2e-16, 0, 2.2e-16), the exact ones +6.5e-17
FALSE_CROSSING = (
    "cs",
    (1.444972264821635 - 0.11519312133595888j, -0.3509614164664442 + 1.1889583932228174j),
    0.11906810168317028 + 0.8476374890218876j,
)

# share of the cells of each 512x512 grid at tol 1e-9 that reach the mask:
# 0.9%, 2.0%, 3.9%, 0.9% and 11.9% when these bounds were set
MASKED_SHARE = {"i": 0.02, "ii-one": 0.04, "ii-two": 0.08, "iii": 0.02, "cs": 0.18}


def cell_bits(kind, fixed, grid, tol, rows=256):
    """simple_mask at every cell centre of grid, a band of rows at a time."""
    key, norm = _normalize_fixed(kind, fixed)
    centers = grid.cell_centers()
    return np.concatenate(
        [simple_mask(hexagon_corners(key, norm, centers[k : k + rows]), tol) for k in range(0, grid.ny, rows)]
    )


def sample(kind, fixed, bbox=None, nx=64, ny=64, tol=1e-9):
    """sample_region with numpy warnings raised as errors, and the count of
    the cells it sent through the mask."""
    masked = []

    def counted(corners, tol):
        masked.append(max(map(np.size, corners)))
        return simple_mask(corners, tol)

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(moduli, "simple_mask", counted)
        grid = sample_region(kind, fixed, bbox, nx=nx, ny=ny, tol=tol)
    return grid, sum(masked)


def assert_cell_bits(kind, fixed, grid, tol=1e-9):
    expected = cell_bits(kind, fixed, grid, tol)
    assert grid.bits.dtype == bool and grid.bits.shape == expected.shape
    assert np.array_equal(grid.bits, expected)


def boundary_point(kind, fixed, tol=1e-9):
    """A point within an ulp or two of a region boundary at tol: bisection
    between two neighbouring cells of a coarse grid that differ. Above
    tol 0.01 the two cells are both members at tol 0, so that a distance or
    a side length reaches tol there, not a crossing."""
    grid = sample_region(kind, fixed, nx=96, ny=80, tol=tol)
    edge = grid.bits[:, 1:] != grid.bits[:, :-1]
    if tol > 0.01:
        members = sample_region(kind, fixed, nx=96, ny=80, tol=0.0).bits
        edge &= members[:, 1:] & members[:, :-1]
    k, j = np.argwhere(edge)[0]
    a, b = grid.cell_centers()[k, j : j + 2]
    inside = membership_mask(kind, fixed, np.array([a]), tol)[0]
    for _ in range(80):
        mid = (a + b) / 2
        if mid in (a, b):
            break
        if membership_mask(kind, fixed, np.array([mid]), tol)[0] == inside:
            a = mid
        else:
            b = mid
    return (a + b) / 2


def box(center, width):
    return (center.real - width / 2, center.real + width / 2, center.imag - width / 2, center.imag + width / 2)


def blocks(sure, rng, count=600):
    """Random blocks over the box, of half-widths 1e-3 to 1, and blocks
    centred where an orientation's gradient vanishes, where only the
    quadratic part of its bound holds it."""
    x, y = rng.uniform(-2.5, 2.5, (2, count))
    hx = 10.0 ** rng.uniform(-3.0, 0.0, count)
    hy = hx * rng.uniform(0.5, 2.0, count)
    _, cx, cy, cxx, cxy, cyy = (t[:, 0] for t in sure.poly)
    hessian = np.moveaxis(np.array([[2 * cxx, cxy], [cxy, 2 * cyy]]), 2, 0)
    solvable = np.abs(np.linalg.det(hessian)) > 1e-9
    at = -np.linalg.solve(hessian[solvable], np.stack([cx, cy], 1)[solvable, :, None])[..., 0]
    for h in (0.05, 0.2, 0.5):
        x, y = np.concatenate([x, at[:, 0]]), np.concatenate([y, at[:, 1]])
        hx, hy = np.concatenate([hx, np.full(len(at), h)]), np.concatenate([hy, np.full(len(at), h)])
    return x, y, hx, hy


@pytest.mark.parametrize("tol", [1e-9, 0.05, 0.3])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_bounds_hold_over_blocks(name, tol):
    # every orientation sign and every distance a bound certifies over a
    # block holds at 9x9 points of it, in the per-cell arithmetic
    kind, fixed = GRIDS[name]
    key, norm = _normalize_fixed(kind, fixed)
    sure = _Certificates(key, norm, tol, np.array([-3.0, 3.0]), np.array([-3.0, 3.0]))
    x, y, hx, hy = blocks(sure, np.random.default_rng(3))
    s = np.linspace(-1.0, 1.0, 9)
    px = (x + sure.x0)[:, None, None] + hx[:, None, None] * s[:, None]
    py = (y + sure.y0)[:, None, None] + hy[:, None, None] * s
    c = np.broadcast_arrays(*hexagon_corners(key, norm, (px + 1j * py).reshape(len(x), -1)))
    crossings, distances, sides, _ = _atoms(6)
    pos, neg = sure.signs(x, y, hx, hy)
    for k, role in enumerate([(0, 1, 2), (0, 1, 3), (2, 3, 0), (2, 3, 1)]):
        for j, crossing in enumerate(crossings):
            p, q, r = (c[crossing[i]] for i in role)
            u, v = q - p, r - p
            o = u.real * v.imag - u.imag * v.real
            assert (o[pos[k, j]] > 0).all() and (o[neg[k, j]] < 0).all()
    far = sure.far(x, y, hx, hy)
    for k, (a, b, p) in enumerate(list(distances) + [(a, a, b) for a, b in sides]):
        assert (seg_point_dist(c[a], c[b], c[p])[far[k]] > tol).all()
    assert pos.any() and neg.any() and far.any()


def test_signs_come_by_role_crossing_and_block():
    kind, fixed = GRIDS["cs"]
    key, norm = _normalize_fixed(kind, fixed)
    sure = _Certificates(key, norm, 1e-9, np.array([-3.0, 3.0]), np.array([-3.0, 3.0]))
    x, y = np.linspace(-1.0, 1.0, 5), np.linspace(1.0, -1.0, 5)
    pos, neg = sure.signs(x, y, np.full(5, 0.01), np.full(5, 0.01))
    assert pos.shape == neg.shape == (4, len(_atoms(6)[0]), 5)
    assert pos.any() and neg.any() and not (pos & neg).any()


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grids_equal_the_cell_mask(name, size, tol):
    kind, fixed = GRIDS[name]
    grid, _ = sample(kind, fixed, nx=size[0], ny=size[1], tol=tol)
    assert_cell_bits(kind, fixed, grid, tol)


@pytest.mark.parametrize("tol", [1e-9, 0.05])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_narrow_boxes_across_a_boundary(name, tol):
    # a crossing's boundary at tol 1e-9, a distance's at 0.05; 8 ulps wide,
    # the cells straddle it by an ulp or two
    kind, fixed = GRIDS[name]
    z = boundary_point(kind, fixed, tol)
    for width in (8 * math.ulp(max(abs(z.real), abs(z.imag))), 1e-12, 1e-6):
        grid, masked = sample(kind, fixed, box(z, width), nx=61, ny=67, tol=tol)
        assert_cell_bits(kind, fixed, grid, tol)
        assert 0 < grid.bits.sum() < grid.bits.size
        if width > 1e-9:  # blocks away from the boundary are certified
            assert masked < grid.bits.size


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_boxes_at_the_false_crossing(tol):
    # orientations at rounding level: no certificate may decide a cell the
    # float mask decides the other way; in the box 8 ulps wide some cells
    # land on the parameter itself, which the mask rejects
    kind, fixed, u = FALSE_CROSSING
    for width in (8 * math.ulp(u.imag), 1e-12):
        grid, _ = sample(kind, fixed, box(u, width), nx=40, ny=36, tol=tol)
        assert_cell_bits(kind, fixed, grid, tol)
        assert width > 1e-14 or not grid.bits.all()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_boxes_1e300_wide(name):
    # near the origin, where a box can be 1e-300 wide: the squared block
    # half-widths underflow, and the bits still follow
    kind, fixed = GRIDS[name]
    for z in (0j, 3e-299 - 7e-299j):
        grid, _ = sample(kind, fixed, box(z, 1e-300), nx=33, ny=31)
        assert_cell_bits(kind, fixed, grid)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_coordinates_near_1e150_certify_nothing(name):
    # the orientation margin, 1e-12 times the squared coordinate scale,
    # passes 1e280: every cell goes through the mask, with no warning
    kind, fixed = GRIDS[name]
    grid, masked = sample(kind, fixed, (0.9e150, 1.1e150, -1.2e150, 1.0e150), nx=24, ny=20)
    assert_cell_bits(kind, fixed, grid)
    assert masked == grid.bits.size


@pytest.mark.parametrize("scale", [1e-150, 1e-160])
def test_tiny_lattices_certify_nothing(scale):
    # a centrally symmetric lattice and box scaled down until the margins
    # would underflow
    _, (alpha, beta) = GRIDS["cs"]
    fixed = (alpha * scale, beta * scale)
    bbox = tuple(scale * v for v in (-3.0, 3.0, -3.0, 3.0))
    grid, masked = sample("cs", fixed, bbox, nx=40, ny=40, tol=0.0)
    assert_cell_bits("cs", fixed, grid, 0.0)
    assert 0 < grid.bits.sum() < grid.bits.size
    assert masked == grid.bits.size


@pytest.mark.parametrize("tol", [-1e-3, math.nan])
def test_negative_and_nan_tolerance_certify_nothing(tol):
    grid, masked = sample(*GRIDS["iii"], nx=50, ny=40, tol=tol)
    assert masked == grid.bits.size


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_share_of_cells_masked(name):
    kind, fixed = GRIDS[name]
    grid, masked = sample(kind, fixed, nx=512, ny=512)
    assert masked / grid.bits.size < MASKED_SHARE[name]
    assert_cell_bits(kind, fixed, grid)


def test_a_2048_grid():
    kind, fixed = GRIDS["ii-two"]
    grid, masked = sample(kind, fixed, nx=2048, ny=2048)
    assert masked / grid.bits.size < MASKED_SHARE["ii-two"] / 2
    assert_cell_bits(kind, fixed, grid)
