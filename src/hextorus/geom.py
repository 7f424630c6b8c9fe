"""Planar geometry kernel: isometries, labeled polygons, simplicity, congruence.

Points of the plane are represented as complex numbers ``x + 1j*y``.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

Point2 = complex

MERGE_TOL = 1e-9


class DegenerateError(ValueError):
    """Polygon with coincident consecutive corners (a zero-length side)."""


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _dot(a: complex, b: complex) -> float:
    return a.real * b.real + a.imag * b.imag


@dataclass(frozen=True)
class Isometry:
    """Plane isometry ``z -> mult * (conj(z) if reflect else z) + shift``.

    ``mult`` is a unit complex number; ``reflect`` selects the
    orientation-reversing branch.
    """

    mult: complex = 1.0 + 0j
    shift: complex = 0j
    reflect: bool = False

    def __post_init__(self) -> None:
        if not (_finite(self.mult) and _finite(self.shift)):
            raise ValueError("non-finite isometry data")
        if abs(abs(self.mult) - 1.0) > 1e-12:
            raise ValueError(f"linear part is not orthogonal: |mult|={abs(self.mult)}")

    @property
    def orientation(self) -> int:
        return -1 if self.reflect else 1

    @property
    def linear(self) -> np.ndarray:
        """Linear part as a 2x2 orthogonal matrix acting on (x, y) columns."""
        a, b = self.mult.real, self.mult.imag
        if self.reflect:
            return np.array([[a, b], [b, -a]])
        return np.array([[a, -b], [b, a]])

    @property
    def translation(self) -> Point2:
        return self.shift

    def __call__(self, z: Point2) -> Point2:
        return self.mult * (z.conjugate() if self.reflect else z) + self.shift

    def apply_all(self, points) -> tuple[Point2, ...]:
        return tuple(self(z) for z in points)

    def compose(self, other: Isometry) -> Isometry:
        """The isometry acting as ``self`` after ``other``."""
        if self.reflect:
            mult = self.mult * other.mult.conjugate()
            shift = self.mult * other.shift.conjugate() + self.shift
        else:
            mult = self.mult * other.mult
            shift = self.mult * other.shift + self.shift
        return Isometry(mult, shift, self.reflect != other.reflect)

    def inverse(self) -> Isometry:
        if self.reflect:
            return Isometry(
                (1.0 / self.mult).conjugate(),
                -(self.shift / self.mult).conjugate(),
                True,
            )
        return Isometry(1.0 / self.mult, -self.shift / self.mult, False)


def identity() -> Isometry:
    return Isometry()


def translation(v: Point2) -> Isometry:
    return Isometry(1.0 + 0j, v, False)


def rotation(angle: float, center: Point2 = 0j) -> Isometry:
    m = cmath.exp(1j * angle)
    return Isometry(m, center - m * center, False)


def reflection(anchor: Point2, direction: float) -> Isometry:
    """Reflection across the line through ``anchor`` at angle ``direction``."""
    m = cmath.exp(2j * direction)
    return Isometry(m, anchor - m * anchor.conjugate(), True)


def glide(anchor: Point2, direction: float, shift: float) -> Isometry:
    """Reflection across a line composed with a translation along it."""
    return translation(cmath.rect(shift, direction)).compose(
        reflection(anchor, direction)
    )


@dataclass(frozen=True)
class Polygon:
    """Ordered corner list with per-corner labels (default 0..n-1).

    Corners of a simple polygon are stored counterclockwise by convention;
    constructors that produce clockwise data reverse it before building.
    """

    corners: tuple[Point2, ...]
    labels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        corners = tuple(complex(z) for z in self.corners)
        object.__setattr__(self, "corners", corners)
        if len(corners) < 3:
            raise ValueError("polygon needs at least 3 corners")
        for z in corners:
            if not _finite(z):
                raise ValueError("non-finite corner coordinate")
        n = len(corners)
        for k in range(n):
            if abs(corners[(k + 1) % n] - corners[k]) <= MERGE_TOL:
                raise DegenerateError(f"corners {k} and {(k + 1) % n} coincide")
        labels = tuple(self.labels) if self.labels else tuple(range(n))
        if len(labels) != n:
            raise ValueError("label count must match corner count")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.corners)

    def transformed(self, g: Isometry) -> Polygon:
        return Polygon(g.apply_all(self.corners), self.labels)

    def translated(self, v: Point2) -> Polygon:
        return Polygon(tuple(z + v for z in self.corners), self.labels)

    def reversed(self) -> Polygon:
        """Same point set traversed in the opposite order, labels riding along."""
        return Polygon(self.corners[::-1], self.labels[::-1])


def _corners(p) -> tuple[Point2, ...]:
    if isinstance(p, Polygon):
        return p.corners
    c = tuple(complex(z) for z in p)
    if len(c) < 3:
        raise ValueError("polygon needs at least 3 corners")
    return c


def corner_table(polygons) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The corners of the polygons as one flat table, in polygon order.

    Returns (corners, sizes, first, owner): the complex corners, each
    polygon's corner count, the flat index of its corner 0, and the polygon
    each corner belongs to.
    """
    sizes = np.fromiter((len(p.corners) for p in polygons), dtype=np.int64, count=len(polygons))
    first = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(sizes)), sizes)
    corners = np.fromiter(
        itertools.chain.from_iterable(p.corners for p in polygons),
        dtype=complex,
        count=int(sizes.sum()),
    )
    return corners, sizes, first, owner


def signed_area(p) -> float:
    c = _corners(p)
    n = len(c)
    return 0.5 * sum(_cross(c[k], c[(k + 1) % n]) for k in range(n))


def _angle_at(c, k: int, ccw: bool) -> float:
    n = len(c)
    e_in = c[k % n] - c[(k - 1) % n]
    e_out = c[(k + 1) % n] - c[k % n]
    if abs(e_in) <= MERGE_TOL or abs(e_out) <= MERGE_TOL:
        raise DegenerateError(f"zero-length side at corner {k}")
    turn = math.atan2(_cross(e_in, e_out), _dot(e_in, e_out))
    return math.pi - turn if ccw else math.pi + turn


def corner_angle(p, k: int) -> float:
    """Interior angle at corner ``k`` of a simple polygon, in (0, 2pi)."""
    c = _corners(p)
    return _angle_at(c, k, signed_area(c) >= 0.0)


def corner_angles(p) -> tuple[float, ...]:
    """Interior angles at all corners of a simple polygon, in corner order:
    :func:`corner_angle` for every k, with one orientation test."""
    c = _corners(p)
    ccw = signed_area(c) >= 0.0
    return tuple(_angle_at(c, k, ccw) for k in range(len(c)))


def seg_point_dist(a, b, p):
    """Distance from p to the segment ab: a float for complex scalars, a
    float array for complex arrays (mixed with scalars) that broadcast."""
    ab = b - a
    denom = _dot(ab, ab)
    t = _dot(p - a, ab)
    if isinstance(t, float):
        t = 0.0 if denom == 0.0 else min(1.0, max(0.0, t / denom))
    else:
        t = np.clip(t / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    return abs(a + t * ab - p)


def seg_seg_dist(a, b, c, d):
    """Distance between the segments ab and cd, 0 where they cross.

    For arrays the four point-segment distances are taken only where the
    segments do not cross.
    """
    d1 = _cross(b - a, c - a)
    d2 = _cross(b - a, d - a)
    d3 = _cross(d - c, a - c)
    d4 = _cross(d - c, b - c)
    crossing = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    del d1, d2, d3, d4  # free them before the gathers below
    if crossing is True:
        return 0.0
    if crossing is False:
        return min(
            min(seg_point_dist(a, b, c), seg_point_dist(a, b, d)),
            min(seg_point_dist(c, d, a), seg_point_dist(c, d, b)),
        )
    apart = np.flatnonzero(~crossing)
    a, b, c, d = (_gather(z, crossing.shape, apart) for z in (a, b, c, d))
    out = np.zeros(crossing.shape)
    out.flat[apart] = np.minimum(
        np.minimum(seg_point_dist(a, b, c), seg_point_dist(a, b, d)),
        np.minimum(seg_point_dist(c, d, a), seg_point_dist(c, d, b)),
    )
    return out


def _side_length(a, b):
    return abs(b - a)


@functools.lru_cache(maxsize=8)
def _tests(n: int) -> tuple:
    """The simplicity tests of an n-corner loop in reporting order, as
    (kind, i, j, distance, picker of its corner arguments): the loop is
    simple iff every distance exceeds the tolerance."""
    nxt = [(k + 1) % n for k in range(n)]  # side k runs from corner k to nxt[k]
    pick = operator.itemgetter
    tests = [("degenerate", k, nxt[k], _side_length, pick(k, nxt[k])) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j - i == 1 or (i == 0 and j == n - 1):
                s, t = (n - 1, 0) if (i == 0 and j == n - 1) else (i, j)
                # adjacent sides share corner t; only the far endpoints may
                # come near the other side
                tests.append(("touch", s, t, seg_point_dist, pick(t, nxt[t], s)))
                tests.append(("touch", s, t, seg_point_dist, pick(s, nxt[s], nxt[t])))
            else:
                tests.append(("cross", i, j, seg_seg_dist, pick(i, nxt[i], j, nxt[j])))
    return tuple(tests)


def first_violation(corners, tol: float = MERGE_TOL):
    """First simplicity violation of a corner loop, or None.

    Returns ("degenerate"|"touch"|"cross", i, j) where i, j are corner or
    side indices. Unlike :func:`is_simple` this never raises, so callers can
    treat degeneracy as plain rejection.
    """
    c = tuple(complex(z) for z in corners)
    for kind, i, j, dist, pick in _tests(len(c)):
        if not dist(*pick(c)) > tol:  # a NaN distance fails, as in simple_mask
            return (kind, i, j)
    return None


# crossing sides reject most non-simple loops, so the mask tests them first
_MASK_ORDER = {"cross": 0, "touch": 1, "degenerate": 2}


def simple_mask(corners, tol: float = MERGE_TOL) -> np.ndarray:
    """Array form of :func:`first_violation`: True where the loop is simple.

    The corners are complex arrays or scalars that broadcast to one shape.
    The tests run crossings first, each only on the cells that passed every
    earlier one: array corners are gathered down to those cells whenever a
    test rejects some, while scalar corners stay scalars.
    """
    corners = tuple(corners)
    shape = np.broadcast_shapes(*map(np.shape, corners))
    tests = sorted(_tests(len(corners)), key=lambda test: _MASK_ORDER[test[0]])
    live = None  # flat indices of the cells still live, None while all are
    for _, _, _, dist, pick in tests:
        ok = np.broadcast_to(dist(*pick(corners)) > tol, shape if live is None else live.shape)
        keep = np.flatnonzero(ok)
        if len(keep) == ok.size:
            continue
        live = keep if live is None else live[keep]
        corners = tuple(_gather(z, ok.shape, keep) for z in corners)
        if not len(live):
            break
    if live is None:
        return np.ones(shape, dtype=bool)
    bits = np.zeros(math.prod(shape), dtype=bool)
    bits[live] = True
    return bits.reshape(shape)


@functools.lru_cache(maxsize=8)
def _test_groups(n: int) -> tuple:
    """The tests of ``_tests(n)`` grouped by distance function, as
    (distance, corner indices): row a of the indices is argument a of the
    distance, one column per test."""
    groups: dict = {}
    for _, _, _, dist, pick in _tests(n):
        groups.setdefault(dist, []).append(pick(range(n)))
    return tuple((dist, np.array(picks).T) for dist, picks in groups.items())


def simple_rows(stack, tol: float = MERGE_TOL) -> np.ndarray:
    """Row form of :func:`first_violation`: True where row k of the (f, n)
    complex array ``stack`` is a simple loop.

    One call per distance function evaluates its tests on every row at
    once (for hexagons 9 crossings, 12 touches and 6 side lengths). The
    arithmetic is that of the scalar tests, so a row passes exactly when
    ``first_violation`` finds nothing; where a distance is NaN the scalar
    ``min`` may pass it, so callers re-decide failed rows with the scalar
    test.
    """
    stack = np.asarray(stack, dtype=complex)
    ok = np.ones(len(stack), dtype=bool)
    for dist, args in _test_groups(stack.shape[1]):
        ok &= (dist(*(stack[:, col] for col in args)) > tol).all(axis=1)
    return ok


def _gather(z, shape, at):
    """A corner broadcast to ``shape``, at the flat indices ``at``; a scalar
    stays a scalar."""
    if np.ndim(z) == 0:
        return z
    if np.shape(z) == shape:
        return np.ravel(z)[at]
    return np.broadcast_to(z, shape).flat[at]


def is_simple(p, tol: float = MERGE_TOL) -> bool:
    """True iff no two non-adjacent sides come within ``tol`` and adjacent
    sides meet only at their shared corner."""
    c = _corners(p)
    violation = first_violation(c, tol)
    if violation is not None and violation[0] == "degenerate":
        raise DegenerateError(f"corners {violation[1]} and {violation[2]} coincide")
    return violation is None


@dataclass(frozen=True)
class Congruence:
    """Witness that corner k of one polygon maps to corner mapping[k] of another."""

    mapping: tuple[int, ...]
    isometry: Isometry


def _candidates(ca, tol: float):
    """The correspondences :func:`congruent` tries, in its order: (reflect,
    the corners of a, conjugated if reflect, and the corner of b each one
    must land on)."""
    n = len(ca)
    for reflect in (False, True):
        za = tuple(z.conjugate() for z in ca) if reflect else ca
        if abs(za[1] - za[0]) <= tol:
            continue
        for direction in (1, -1):
            for shift in range(n):
                yield reflect, za, tuple((shift + direction * k) % n for k in range(n))


def congruent(a, b, tol: float = MERGE_TOL) -> Congruence | None:
    """Find an isometry (either orientation) carrying polygon a onto b.

    Corner k of a must land on corner mapping[k] of b, for some cyclic shift
    and direction. Returns None when no isometry matches within tol.
    """
    ca, cb = _corners(a), _corners(b)
    n = len(ca)
    if len(cb) != n:
        return None
    for reflect, za, idx in _candidates(ca, tol):
        mult = (cb[idx[1]] - cb[idx[0]]) / (za[1] - za[0])
        if abs(mult) == 0.0:
            continue
        mult /= abs(mult)
        offset = cb[idx[0]] - mult * za[0]
        if all(abs(mult * za[k] + offset - cb[idx[k]]) <= tol for k in range(n)):
            return Congruence(idx, Isometry(mult, offset, reflect))
    return None


def congruent_rows(a, stack, tol: float = MERGE_TOL) -> np.ndarray:
    """Row form of ``congruent(a, row, tol) is not None`` that may abstain.

    ``stack`` is an (f, n) complex array of n-corner loops, n the corner
    count of a. The candidates of :func:`congruent` are tried in its order
    with its formulas, each on the rows no earlier one accepted. numpy's
    complex division differs from Python's in the last bits, so a row is
    accepted only when every residual is below tol by a margin of 1e-12
    times its largest coordinate; False means "not shown congruent" and is
    re-decided by the scalar test.
    """
    ca = _corners(a)
    stack = np.asarray(stack, dtype=complex)
    sure = np.zeros(len(stack), dtype=bool)
    scale = np.fmax(np.abs(stack).max(axis=1, initial=0.0), max(map(abs, ca)))
    limit = tol - 1e-12 * scale
    live = np.arange(len(stack))
    for _, za, idx in _candidates(ca, tol):
        cb = stack[live][:, idx]
        mult = (cb[:, 1] - cb[:, 0]) / (za[1] - za[0])
        mult /= np.abs(mult)
        offset = cb[:, 0] - mult * za[0]
        resid = np.abs(mult[:, None] * np.array(za) + offset[:, None] - cb)
        hit = resid.max(axis=1) <= limit[live]
        sure[live[hit]] = True
        live = live[~hit]
        if not len(live):
            break
    return sure
