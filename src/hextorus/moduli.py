"""Moduli spaces of the minimal tilings: membership, sampling, components.

A free parameter is admissible exactly when the corresponding constructor
succeeds, i.e. its hexagon is simple. Membership applies the constructors' own
corner formulas (:func:`hextorus.construct.hexagon_corners`) and simplicity
test (:mod:`hextorus.geom`), to one parameter or to a whole grid at once.
:func:`sample_region` gives the bits of that test at every cell centre, but
decides whole blocks of cells at once where certified bounds on its checks
allow, and runs the per-cell test only on cells near a region boundary.
Components of a sampled region come from :func:`hextorus.lattice.components`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._np import np
from .construct import B_POINT, OMEGA3, R_POINT, hexagon_corners
from .geom import MERGE_TOL, _atoms, _cross, first_violation, seg_point_dist, simple_mask
from .lattice import check_lattice, check_modulus, components

KINDS = ("i", "ii", "iii", "cs")


def _check_resolution(nx, ny) -> None:
    if nx < 2 or ny < 2:
        raise ValueError("grid resolution must be at least 2x2")


@dataclass(frozen=True)
class RegionGrid:
    """Boolean occupancy sampled over an axis-aligned box.

    bits[k, j] is the membership at the center of cell (j, k); row 0 is the
    bottom of the box (smallest y).
    """

    bbox: tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)
    nx: int
    ny: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        xmin, xmax, ymin, ymax = (float(v) for v in self.bbox)
        object.__setattr__(self, "bbox", (xmin, xmax, ymin, ymax))
        if not all(map(math.isfinite, self.bbox)):
            raise ValueError(f"bbox must be finite, got {self.bbox}")
        if not (xmax > xmin and ymax > ymin):
            raise ValueError(f"degenerate bbox {self.bbox}")
        _check_resolution(self.nx, self.ny)
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (self.ny, self.nx):
            raise ValueError(f"bits shape {bits.shape} != (ny, nx)")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

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


def _fixed_i(fixed):
    tau, i = fixed
    return check_modulus(tau), complex(i)


def _fixed_ii(fixed):
    y, i = fixed
    y = float(y)
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"y must be positive, got {y}")
    return y, complex(i)


def _fixed_iii(fixed):
    if fixed not in (None, (), []):
        raise ValueError("type iii has no fixed parameters")
    return ()


def _fixed_cs(fixed):
    alpha, beta = fixed
    return check_lattice(alpha, beta)


# per family: its fixed parameters checked and normalized, and the lattice
# generators they give
_FAMILIES = {
    "i": (_fixed_i, lambda f: (1.0 + 0j, f[0])),
    "ii": (_fixed_ii, lambda f: (1.0 + 0j, 1j * f[0])),
    "iii": (_fixed_iii, lambda f: (1.0 + 0j, OMEGA3)),
    "cs": (_fixed_cs, lambda f: f),
}


def _normalize_fixed(kind: str, fixed):
    key = str(kind).strip().lower()
    if key not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    return key, _FAMILIES[key][0](fixed)


def membership_mask(kind: str, fixed, free, tol: float = MERGE_TOL) -> np.ndarray:
    """Vectorized membership over an array of free parameters."""
    key, fixed = _normalize_fixed(kind, fixed)
    with np.errstate(all="ignore"):  # overflow and NaN just fail the tests
        return simple_mask(hexagon_corners(key, fixed, np.asarray(free, complex)), tol)


def membership(kind: str, fixed, free: complex, tol: float = MERGE_TOL) -> bool:
    """True iff the constructor of the given kind succeeds at this parameter."""
    key, fixed = _normalize_fixed(kind, fixed)
    return first_violation(hexagon_corners(key, fixed, complex(free)), tol) is None


def _default_bbox(key: str, fixed) -> tuple[float, float, float, float]:
    g1, g2 = _FAMILIES[key][1](fixed)
    xs = [0.0, g1.real, g2.real, (g1 + g2).real]
    ys = [0.0, g1.imag, g2.imag, (g1 + g2).imag]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w, h = x1 - x0, y1 - y0
    return (x0 - 1.5 * w, x1 + 1.5 * w, y0 - 1.5 * h, y1 + 1.5 * h)


_BLOCK = 64  # cells on a side of the largest block sample_region decides at once
# cells on a side of the smallest: a certificate costs about what the mask
# costs on 4 to 16 cells, so undecided 4x4 blocks go to the mask cell by
# cell (2x2 leaves measured as fast, 1x1 and 8x8 ones slower)
_LEAF = 4
_ROUNDING = 1e-12  # certificates' margin, relative to the coordinate scale
# certify only while the orientation margin is far from under- and overflow
_MARGIN_RANGE = (1e-280, 1e280)


class _Certificates:
    """Bounds on the checks of ``geom._atoms(6)`` over blocks of cells.

    The corners are real-affine in the free parameter: at the offset (x, y)
    from the box centre they are at + x*dx + y*dy, with dx and dy taken
    from corners at 0, s and s*1j. So each crossing orientation, the signed
    area of one of 18 corner triangles, is a real quadratic in (x, y): over
    a block of half-widths (hx, hy) it differs from its centre value by at
    most its exact gradient there times the half-widths plus its constant
    quadratic part. The distance of corner p from the side ab (a side
    length is that of its far end from the side aa) moves at most by the
    larger of the reaches |d| hx + |e| hy of p - a and p - b, d and e their
    slopes. A bound decides only beyond a margin of _ROUNDING times the
    coordinate scale (squared for orientations), far above the rounding of
    these bounds and of the per-cell arithmetic, so a block within rounding
    of a sign change or of tol stays undecided.
    """

    def __init__(self, key, fixed, tol, xs, ys):
        self.tol = tol
        crossings, distances, sides, _ = _atoms(6)
        # orientations cross(q - p, r - p) as in geom._crosses, by role
        # (a, b, c), (a, b, d), (c, d, a), (c, d, b) and then by crossing
        orients = [
            t
            for role in zip(*(((a, b, c), (a, b, d), (c, d, a), (c, d, b)) for a, b, c, d in crossings))
            for t in role
        ]
        triangles = {t: i for i, t in enumerate(sorted({tuple(sorted(t)) for t in orients}))}
        self.crossings = len(crossings)

        def rows(p, q, r):
            # orientation (p, q, r) is + or - the area of its triangle, as
            # (p, q, r) is an even or odd permutation of it
            i, n = triangles[tuple(sorted((p, q, r)))], len(triangles)
            return (i, i + n) if (p < q) + (q < r) + (p < r) in (1, 3) else (i + n, i)

        # per orientation, its rows in (area certainly > 0, area certainly < 0)
        self.signs_at = np.array([rows(*t) for t in orients]).T
        # s is a power of two at least as large as the corners at 0, so that
        # the differences keep their precision for large fixed parameters
        at0 = np.array(hexagon_corners(key, fixed, 0j), complex)
        s = math.ldexp(1.0, math.frexp(max(1.0, *np.abs(at0)))[1])
        at1, ati = (np.array(hexagon_corners(key, fixed, z), complex) for z in (s, s * 1j))
        self.dx, self.dy = (at1 - at0) / s, (ati - at0) / s
        self.x0, self.y0 = (xs[0] + xs[-1]) / 2, (ys[0] + ys[-1]) / 2
        self.at = np.array(hexagon_corners(key, fixed, complex(self.x0, self.y0)), complex)
        p, q, r = np.array(list(triangles)).T
        u, v = self.at[q] - self.at[p], self.at[r] - self.at[p]
        pu, pv = self.dx[q] - self.dx[p], self.dx[r] - self.dx[p]
        qu, qv = self.dy[q] - self.dy[p], self.dy[r] - self.dy[p]
        self.poly = tuple(
            t[:, None]
            for t in (
                _cross(u, v),
                _cross(pu, v) + _cross(u, pv),
                _cross(qu, v) + _cross(u, qv),
                _cross(pu, pv),
                _cross(pu, qv) + _cross(qu, pv),
                _cross(qu, qv),
            )
        )
        self.dist = np.array(list(distances) + [(a, a, b) for a, b in sides]).T
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
        sure = np.concatenate([value - spread > self.margin2, value + spread < -self.margin2])
        return tuple(sure[k].reshape(4, self.crossings, len(x)) for k in self.signs_at)

    def far(self, x, y, hx, hy):
        """Per distance (the distance atoms, then the sides) and block: the
        distance certainly exceeds tol."""
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
    64 cells on a side down to 4, and :class:`_Certificates` bound the
    distinct simplicity checks (``geom._atoms``) over each block from its
    centre. A block is all non-members where one crossing's four
    orientation signs are certain and say "crosses", and all members where
    every crossing is certainly uncrossed and every point-side distance and
    side length certainly exceeds tol; otherwise it splits. A sign or a
    comparison with tol is certain only beyond a margin of 1e-12 times the
    coordinate scale (its square for orientations), so the float arithmetic
    of the per-cell test cannot decide a certified cell the other way. The
    cells of undecided 4x4 blocks, those near a region boundary, go through
    ``simple_mask`` on the ``cell_centers()`` values. A negative or NaN tol,
    or a coordinate scale at which the margins would under- or overflow
    (outside about 1e-134 to 1e146), certifies nothing and masks every cell.
    """
    key, norm = _normalize_fixed(kind, fixed)
    if bbox is None:
        bbox = _default_bbox(key, norm)
    nx, ny = int(nx), int(ny)
    _check_resolution(nx, ny)
    grid = RegionGrid(tuple(bbox), nx, ny, np.zeros((ny, nx), dtype=bool))
    xs, ys = grid.axes()
    bits = np.zeros((grid.ny, grid.nx), dtype=bool)
    lo, hi = _MARGIN_RANGE
    with np.errstate(all="ignore"):
        sure = _Certificates(key, norm, tol, xs, ys)
        if tol >= 0.0 and lo <= sure.margin2 <= hi:
            ci, cj = _open_cells(sure, xs, ys, bits)
        else:
            ci, cj = (a.ravel() for a in np.indices(bits.shape))
        bits[ci, cj] = simple_mask(hexagon_corners(key, norm, xs[cj] + 1j * ys[ci]), tol)
    return RegionGrid(grid.bbox, grid.nx, grid.ny, bits)


def _open_cells(sure: _Certificates, xs, ys, bits) -> tuple[np.ndarray, np.ndarray]:
    """Set the cells of the blocks certified all members in bits and return
    the rows and columns of the cells that no certificate decides."""
    ny, nx = bits.shape
    size = _BLOCK
    bk, bj = (a.ravel() for a in np.indices(((ny - 1) // size + 1, (nx - 1) // size + 1)))
    while True:
        r0, c0 = bk * size, bj * size
        r1, c1 = np.minimum(r0 + size, ny) - 1, np.minimum(c0 + size, nx) - 1
        inside, outside = sure.decide(xs[c0], xs[c1], ys[r0], ys[r1])
        bits[_cells(bk[inside], bj[inside], size, bits.shape)] = True
        bk, bj = bk[~(inside | outside)], bj[~(inside | outside)]
        if size == _LEAF:
            return _cells(bk, bj, size, bits.shape)
        size //= 2  # each open block splits into its quarters inside the grid
        bk = (2 * bk[:, None] + [0, 0, 1, 1]).ravel()
        bj = (2 * bj[:, None] + [0, 1, 0, 1]).ravel()
        keep = (bk * size < ny) & (bj * size < nx)
        bk, bj = bk[keep], bj[keep]


def _cells(bk, bj, size, shape) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the cells in the blocks (bk, bj) of the given
    size, clipped to a grid of the given shape."""
    di, dj = (a.ravel() for a in np.indices((size, size)))
    ci, cj = (bk[:, None] * size + di).ravel(), (bj[:, None] * size + dj).ravel()
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


@dataclass(frozen=True)
class Arc:
    """Circular arc sampled as a polyline."""

    center: complex
    radius: float
    theta0: float
    theta1: float
    points: tuple[complex, ...]


def type_iii_boundary(samples: int) -> list[Arc]:
    """Three boundary arcs of the type iii moduli region.

    The primary arc runs from G' to R on the circle centered at B; the other
    two are its rotations by +-120 degrees about the origin. Every P on the
    primary arc sees the chord G'R under the inscribed angle 5pi/6.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("need at least 2 samples per arc")
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
