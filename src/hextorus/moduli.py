"""Moduli spaces of the minimal tilings: membership, sampling, components.

A free parameter is admissible exactly when the corresponding constructor
succeeds, i.e. its hexagon is simple. The family table
(:data:`hextorus.construct.FAMILIES`) checks a family's fixed parameters,
gives the lattice that frames its default box and the exact slopes of its
corners, which bound the checks over blocks of cells. Membership applies the
constructors' own corner formulas (``Family.corners``) and simplicity test
(:mod:`hextorus.geom`), to one parameter or a whole grid.
:func:`sample_region` gives the bits of that test at every cell centre, but
decides whole blocks of cells at once where certified bounds on its checks
allow, and runs the per-cell test only on cells near a region boundary.
Components of a sampled region come from :func:`hextorus.lattice.components`.
"""

from __future__ import annotations

import cmath
import math

from ._np import np
from ._value import value_type
from .construct import B_POINT, R_POINT, Family, family
from .geom import MERGE_TOL, _cross, _rows, first_violation, seg_point_dist, simple_mask
from .lattice import check_count, components


@value_type("bbox", "nx", "ny", "bits")
class RegionGrid:
    """Boolean occupancy sampled over an axis-aligned box.

    The box is (xmin, xmax, ymin, ymax). bits[k, j] is the membership at the
    center of cell (j, k), stored read-only; row 0 is the bottom of the box
    (smallest y).
    """

    def __init__(
        self, bbox: tuple[float, float, float, float], nx: int, ny: int, bits: np.ndarray
    ) -> None:
        xmin, xmax, ymin, ymax = bbox = tuple(float(v) for v in bbox)
        if not all(map(math.isfinite, bbox)):
            raise ValueError(f"bbox must be finite, got {bbox}")
        if not (xmax > xmin and ymax > ymin):
            raise ValueError(f"degenerate bbox {bbox}")
        nx, ny = check_count(nx, "nx", 2), check_count(ny, "ny", 2)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (ny, nx):
            raise ValueError(f"bits shape {bits.shape} != (ny, nx)")
        bits.setflags(write=False)
        self.__dict__.update(bbox=bbox, nx=nx, ny=ny, bits=bits)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The real parts of the cell centers by column and their imaginary
        parts by row."""
        xmin, xmax, ymin, ymax = self.bbox
        xs = xmin + (np.arange(self.nx) + 0.5) * (xmax - xmin) / self.nx
        ys = ymin + (np.arange(self.ny) + 0.5) * (ymax - ymin) / self.ny
        return xs, ys

    def cell_centers(self) -> np.ndarray:
        """Complex coordinates of all cell centers, shape (ny, nx)."""
        xs, ys = self.axes()
        return xs[None, :] + 1j * ys[:, None]


def membership_mask(kind: str, fixed, free, tol: float = MERGE_TOL) -> np.ndarray:
    """Vectorized membership over an array of free parameters."""
    fam = family(kind)
    with np.errstate(all="ignore"):  # overflow and NaN just fail the tests
        return simple_mask(fam.corners(*fam.check(fixed), np.asarray(free, complex)), tol)


def membership(kind: str, fixed, free: complex, tol: float = MERGE_TOL) -> bool:
    """True iff the constructor of the given kind succeeds at this parameter."""
    fam = family(kind)
    return first_violation(fam.corners(*fam.check(fixed), complex(free)), tol) is None


def _default_bbox(fam: Family, fixed) -> tuple[float, float, float, float]:
    g1, g2 = fam.lattice(*fixed)
    cell = (0j, g1, g2, g1 + g2)
    x0, x1 = min(z.real for z in cell), max(z.real for z in cell)
    y0, y1 = min(z.imag for z in cell), max(z.imag for z in cell)
    w, h = x1 - x0, y1 - y0
    return (x0 - 1.5 * w, x1 + 1.5 * w, y0 - 1.5 * h, y1 + 1.5 * h)


_BLOCK = 64  # cells on a side of the largest block sample_region decides at once
# cells on a side of the smallest: a certificate costs about what the mask
# costs on 4 to 16 cells, so undecided 4x4 blocks go to the mask cell by
# cell (2x2 leaves measured as fast, 1x1 and 8x8 ones slower)
_LEAF = 4
# blocks per call of _Certificates.decide and cells per call of simple_mask
# in sample_region, which bound its memory beyond the bits
_PASS = 1024
_CHUNK = 8192
_ROUNDING = 1e-12  # certificates' margin, relative to the coordinate scale
# certify only while the orientation margin is far from under- and overflow
_MARGIN_RANGE = (1e-280, 1e280)


class _Certificates:
    """Bounds on the simplicity test of ``geom._rows(6)`` over blocks of cells.

    The corners are real-affine in the free parameter z = x + iy:
    A + B*z + C*conj(z), with the family's exact ``slopes`` (B, C). At the
    offset (x, y) from the box centre they are at + x*dx + y*dy, with
    dx = B + C and dy = i(B - C). So each of the 24 rows (a, b, p), read as
    an orientation (twice the signed area of a corner triangle), is a real
    quadratic in (x, y): over a block of half-widths (hx, hy) it differs from
    its centre value by at most its exact gradient there times the
    half-widths plus its constant quadratic part. Read as the distance of p
    from the side ab (a side length is that of b from the side aa), it moves
    at most by the larger of the reaches |d| hx + |e| hy of p - a and p - b,
    d and e their slopes. A bound decides only beyond a margin of _ROUNDING
    times the coordinate scale (squared for orientations), far above the
    rounding of these bounds and of the per-cell arithmetic, so a block
    within rounding of a sign change or of tol stays undecided.
    """

    def __init__(self, fam: Family, fixed, tol, xs, ys):
        self.tol = tol
        rows, crossings, tests = _rows(6)
        self.roles = np.array(crossings).T  # roles[k, j]: the row of role k of crossing j
        sides = tuple((a, a, b) for kind, a, b, _ in tests if kind == "degenerate")
        self.dist = np.array(rows + sides).T  # the rows, then the sides as distances
        b, c = (np.array(v, complex) for v in fam.slopes)
        self.dx, self.dy = b + c, 1j * (b - c)
        self.x0, self.y0 = (xs[0] + xs[-1]) / 2, (ys[0] + ys[-1]) / 2
        self.at = np.array(fam.corners(*fixed, complex(self.x0, self.y0)), complex)
        p, q, r = self.dist[:, : len(rows), None]  # one row per orientation, against the blocks
        u, pu, qu = (w[q] - w[p] for w in (self.at, self.dx, self.dy))
        v, pv, qv = (w[r] - w[p] for w in (self.at, self.dx, self.dy))
        self.poly = (
            _cross(u, v),
            _cross(pu, v) + _cross(u, pv),
            _cross(qu, v) + _cross(u, qv),
            _cross(pu, pv),
            _cross(pu, qv) + _cross(qu, pv),
            _cross(qu, qv),
        )
        a, b, p = self.dist
        self.slopes = tuple(
            np.abs(d[p] - d[e])[:, None] for e in (a, b) for d in (self.dx, self.dy)
        )
        # the coordinate scale: a bound on every corner anywhere in the box
        reach = np.abs(self.dx) * (xs[-1] - xs[0]) / 2 + np.abs(self.dy) * (ys[-1] - ys[0]) / 2
        scale = float(np.max(np.abs(self.at) + reach))
        self.margin = _ROUNDING * scale
        self.margin2 = _ROUNDING * scale * scale

    def signs(self, x, y, hx, hy):
        """(certainly positive, certainly negative) per orientation and
        block, shaped (role, crossing, block), for blocks centred at the
        offsets (x, y) from the box centre with half-widths (hx, hy)."""
        c, cx, cy, cxx, cxy, cyy = self.poly
        gx = cx + 2.0 * cxx * x + cxy * y
        gy = cy + cxy * x + 2.0 * cyy * y
        value = c + 0.5 * (x * (gx + cx) + y * (gy + cy))
        spread = np.abs(gx) * hx + np.abs(gy) * hy
        spread += np.abs(cxx) * (hx * hx) + np.abs(cxy) * (hx * hy) + np.abs(cyy) * (hy * hy)
        pos, neg = value - spread > self.margin2, value + spread < -self.margin2
        return pos[self.roles], neg[self.roles]

    def far(self, x, y, hx, hy):
        """Per distance (the rows, then the sides) and block: the distance
        certainly exceeds tol."""
        corner = self.at[:, None] + self.dx[:, None] * x + self.dy[:, None] * y
        a, b, p = self.dist
        dxa, dya, dxb, dyb = self.slopes
        moved = np.fmax(dxa * hx + dya * hy, dxb * hx + dyb * hy)
        return seg_point_dist(corner[a], corner[b], corner[p]) - moved > self.tol + self.margin

    def decide(self, left, right, bottom, top):
        """(all members, all non-members) per block, for blocks whose
        extreme cell centres lie at the given coordinates."""
        x, y = (left + right) / 2 - self.x0, (bottom + top) / 2 - self.y0
        hx, hy = (right - left) / 2, (top - bottom) / 2
        pos, neg = self.signs(x, y, hx, hy)
        # per crossing of sides ab and cd: c and d certainly on opposite
        # sides of the line ab, a and b of the line cd, one pair certainly
        # on one side
        apart = (pos[0] & neg[1]) | (neg[0] & pos[1])
        across = (pos[2] & neg[3]) | (neg[2] & pos[3])
        level = (pos[0] & pos[1]) | (neg[0] & neg[1]) | (pos[2] & pos[3]) | (neg[2] & neg[3])
        inside = level.all(axis=0)
        at = np.flatnonzero(inside)  # only these can still be all members
        inside[at] = self.far(x[at], y[at], hx[at], hy[at]).all(axis=0)
        return inside, (apart & across).any(axis=0)


def sample_region(
    kind: str,
    fixed,
    bbox: tuple[float, float, float, float] | None = None,
    nx: int = 512,
    ny: int = 512,
    tol: float = MERGE_TOL,
) -> RegionGrid:
    """Sample membership at every cell center of a grid.

    The bits are those of ``simple_mask`` at every cell centre, decided a
    block of cells at a time: the grid splits into a quadtree of blocks,
    64 cells on a side down to 4, and :class:`_Certificates` bound the rows
    of the simplicity test (``geom._rows``) over each block from its
    centre. A block is all non-members where one crossing's four
    orientation signs are certain and say "crosses", and all members where
    every crossing is certainly uncrossed and every point-side distance and
    side length certainly exceeds tol; otherwise it splits. A sign or a
    comparison with tol is certain only beyond a margin of 1e-12 times the
    coordinate scale (its square for orientations), so the float arithmetic
    of the per-cell test cannot decide a certified cell the other way. The
    cells of undecided 4x4 blocks, those near a region boundary, go through
    ``simple_mask`` at their ``cell_centers()`` values. A negative or NaN
    tol, or a coordinate scale at which the margins would under- or
    overflow (outside about 1e-134 to 1e146), certifies nothing and masks
    every cell.

    Memory beyond the bits stays bounded at any grid size: the
    certificates take at most 1024 blocks and the mask at most 8192 cells
    at a time, and member blocks are set through a block view of bits
    padded to whole 64-cell blocks, of which the grid's bits are a view.
    """
    fam = family(kind)
    norm = fam.check(fixed)
    if bbox is None:
        bbox = _default_bbox(fam, norm)
    nx, ny = check_count(nx, "nx", 2), check_count(ny, "ny", 2)
    # a zero-stride grid checks the box and gives the axes
    xs, ys = RegionGrid(tuple(bbox), nx, ny, np.broadcast_to(False, (ny, nx))).axes()
    bits = np.zeros((-(-ny // _BLOCK) * _BLOCK, -(-nx // _BLOCK) * _BLOCK), dtype=bool)
    low, high = _MARGIN_RANGE
    with np.errstate(all="ignore"):
        sure = _Certificates(fam, norm, tol, xs, ys)
        if tol >= 0.0 and low <= sure.margin2 <= high:
            bk, bj = _open_blocks(sure, xs, ys, bits)
            per = _CHUNK // (_LEAF * _LEAF)
            cells = (_cells(bk[at : at + per], bj[at : at + per], (ny, nx)) for at in range(0, len(bk), per))
        else:  # every cell, in raster order
            cells = (np.divmod(np.arange(at, min(at + _CHUNK, ny * nx)), nx) for at in range(0, ny * nx, _CHUNK))
        for ci, cj in cells:
            bits[ci, cj] = simple_mask(fam.corners(*norm, xs[cj] + 1j * ys[ci]), tol)
    return RegionGrid(tuple(bbox), nx, ny, bits[:ny, :nx])


def _open_blocks(sure: _Certificates, xs, ys, bits) -> tuple[np.ndarray, np.ndarray]:
    """Set the blocks certified all members in bits, padded to whole
    _BLOCK-cell blocks, and return the indices (row, column) of the
    _LEAF-cell blocks that no certificate decides."""
    ny, nx = len(ys), len(xs)
    size = _BLOCK
    bk, bj = (a.ravel() for a in np.indices((bits.shape[0] // size, bits.shape[1] // size)))
    while True:
        r0, c0 = bk * size, bj * size
        r1, c1 = np.minimum(r0 + size, ny) - 1, np.minimum(c0 + size, nx) - 1
        inside, outside = np.empty((2, len(bk)), dtype=bool)
        for at in range(0, len(bk), _PASS):
            s = slice(at, at + _PASS)
            inside[s], outside[s] = sure.decide(xs[c0[s]], xs[c1[s]], ys[r0[s]], ys[r1[s]])
        blocks = bits.reshape(bits.shape[0] // size, size, bits.shape[1] // size, size)
        blocks[bk[inside], :, bj[inside], :] = True
        bk, bj = bk[~(inside | outside)], bj[~(inside | outside)]
        if size == _LEAF:
            return bk, bj
        size //= 2  # each open block splits into its quarters inside the grid
        bk = (2 * bk[:, None] + [0, 0, 1, 1]).ravel()
        bj = (2 * bj[:, None] + [0, 1, 0, 1]).ravel()
        keep = (bk * size < ny) & (bj * size < nx)
        bk, bj = bk[keep], bj[keep]


def _cells(bk, bj, shape) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the cells in the _LEAF-cell blocks (bk, bj),
    clipped to a grid of the given shape."""
    di, dj = (a.ravel() for a in np.indices((_LEAF, _LEAF)))
    ci, cj = (bk[:, None] * _LEAF + di).ravel(), (bj[:, None] * _LEAF + dj).ravel()
    keep = (ci < shape[0]) & (cj < shape[1])
    return ci[keep], cj[keep]


def connected_components(g: RegionGrid) -> tuple[int, np.ndarray]:
    """4-connectivity component count and per-cell labels of the true cells.

    Labels 1..count number the components in raster order of their first
    cell, as scipy.ndimage.label does; 0 marks the other cells.
    """
    bits = g.bits
    # number the horizontal runs of true cells in raster order, from 1
    starts = bits & ~np.pad(bits[:, :-1], ((0, 0), (1, 0)))
    run_of = np.cumsum(starts).reshape(bits.shape) * bits
    # runs in adjacent rows touch along a stretch of columns true in both
    # rows; the first column of each stretch names the touching pair once
    both = bits[:-1] & bits[1:]
    first = both & ~np.pad(both[:, :-1], ((0, 0), (1, 0)))
    # components of runs are numbered by their first run, in raster order
    run_label, roots = components(
        int(starts.sum()), run_of[:-1][first] - 1, run_of[1:][first] - 1
    )
    labels = np.zeros(bits.shape, dtype=np.int32)
    labels[bits] = run_label[run_of[bits] - 1] + 1
    return len(roots), labels


@value_type("center", "radius", "theta0", "theta1", "points")
class Arc:
    """Circular arc sampled as a polyline."""


def type_iii_boundary(samples: int) -> list[Arc]:
    """Three boundary arcs of the type iii moduli region.

    The primary arc runs from G' to R on the circle centered at B; the other
    two are its rotations by +-120 degrees about the origin. Every P on the
    primary arc sees the chord G'R under the inscribed angle 5pi/6.
    """
    samples = check_count(samples, "samples", 2)
    radius = abs(R_POINT - B_POINT)
    arcs = []
    for k in range(3):
        rot = cmath.exp(2j * math.pi * k / 3.0)
        center = rot * B_POINT
        theta0 = math.pi / 6.0 + 2.0 * math.pi * k / 3.0
        theta1 = math.pi / 2.0 + 2.0 * math.pi * k / 3.0
        thetas = np.linspace(theta0, theta1, samples)
        points = tuple(center + radius * cmath.exp(1j * th) for th in thetas)
        arcs.append(Arc(center, radius, theta0, theta1, points))
    return arcs
