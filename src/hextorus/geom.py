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

from ._np import np

Point2 = complex

MERGE_TOL = 1e-9
_BLOCK = 2048  # cells per block of simple_mask: 512 and 1024 were no faster


class DegenerateError(ValueError):
    """Polygon with coincident consecutive corners (a zero-length side), or
    with two that are not a finite distance apart."""


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
        if not (cmath.isfinite(self.mult) and cmath.isfinite(self.shift)):
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
        return tuple(map(self, points))

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
        corners = tuple(map(complex, self.corners))
        object.__setattr__(self, "corners", corners)
        if len(corners) < 3:
            raise ValueError("polygon needs at least 3 corners")
        if not all(map(cmath.isfinite, corners)):
            raise ValueError("non-finite corner coordinate")
        n = len(corners)
        for k, side in enumerate(map(operator.sub, corners[1:] + corners[:1], corners)):
            if abs(side) <= MERGE_TOL:
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
    return 0.5 * sum(map(_cross, c, c[1:] + c[:1]))


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
    return abs(_seg_point_gap(a, b, p))


def _seg_point_gap(a, b, p):
    """The vector from p to its nearest point on the segment ab."""
    ab = b - a
    denom = _dot(ab, ab)
    t = _dot(p - a, ab)
    if isinstance(t, float):
        t = t / denom if denom != 0.0 else 0.0
        t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0  # clipped, NaN to 0
    else:
        t = np.clip(t / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    return a + t * ab - p


def _crosses(a, b, c, d):
    """True where the segments ab and cd cross: each has one end strictly
    left of the other's line and one end not (scalars or arrays)."""
    ab, cd = b - a, d - c
    return ((_cross(ab, c - a) > 0) != (_cross(ab, d - a) > 0)) & (
        (_cross(cd, a - c) > 0) != (_cross(cd, b - c) > 0)
    )


@functools.lru_cache(maxsize=8)
def _tests(n: int) -> tuple:
    """The simplicity tests of an n-corner loop in reporting order, as
    (kind, i, j, pickers of the corners of the checks of ``_atoms`` it reads):
    the loop is simple iff every test's distance exceeds the tolerance."""
    nxt = [(k + 1) % n for k in range(n)]  # side k runs from corner k to nxt[k]
    pick = functools.cache(operator.itemgetter)  # one picker per check
    tests = [("degenerate", k, nxt[k], (pick(k, nxt[k]),)) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j - i == 1 or (i == 0 and j == n - 1):
                s, t = (n - 1, 0) if (i == 0 and j == n - 1) else (i, j)
                # adjacent sides share corner t; only the far endpoints may
                # come near the other side
                tests.append(("touch", s, t, (pick(t, nxt[t], s),)))
                tests.append(("touch", s, t, (pick(s, nxt[s], nxt[t]),)))
            else:
                a, b, c, d = i, nxt[i], j, nxt[j]
                at = ((a, b, c, d), (a, b, c), (a, b, d), (c, d, a), (c, d, b))
                tests.append(("cross", i, j, tuple(pick(*x) for x in at)))
    return tuple(tests)


@functools.lru_cache(maxsize=8)
def _scalar_plan(n: int) -> tuple:
    """What first_violation reads: ``_tests(n)``, then its pickers of the
    crossings, distances and sides of ``_atoms(n)``."""
    tests = _tests(n)
    pickers = {pick(range(n)): pick for *_, picks in tests for pick in picks}
    return tests, *(tuple(map(pickers.get, group)) for group in _atoms(n)[:3])


_CHECK = {2: lambda a, b: abs(b - a), 3: seg_point_dist, 4: _crosses}  # by corner count


def _passes_outright(c, check: dict, tol: float, crossings, distances, sides) -> bool:
    """Whether the loop c has no crossing and every distance and side above
    tol, crossings first, as they reject most loops. The checks it works
    out are kept in check, by the picker of their corners."""
    for pick in crossings:
        check[pick] = crossed = _crosses(*pick(c))
        if crossed:
            return False
    for pick in distances:
        check[pick] = gap = abs(_seg_point_gap(*pick(c)))
        if not gap > tol:
            return False
    return all(abs(b - a) > tol for a, b in (pick(c) for pick in sides))


def first_violation(corners, tol: float = MERGE_TOL):
    """First simplicity violation of a corner loop, or None.

    Returns ("degenerate"|"touch"|"cross", i, j) where i, j are corner or
    side indices. Unlike :func:`is_simple` this never raises, so callers can
    treat degeneracy as plain rejection; a length past the float range
    (Python's abs raises OverflowError) fails the first test that reads it,
    as a NaN one does. The tests rest on the distinct
    checks of ``_atoms``, as :func:`simple_mask` does, each worked out at
    most once per call; only a loop that fails one runs the tests in order.
    """
    c = tuple(complex(z) for z in corners)
    tests, *atoms = _scalar_plan(len(c))
    check = {}
    try:
        if _passes_outright(c, check, tol, *atoms):
            return None
    except OverflowError:  # from abs: decided where the tests reach it
        pass

    def value(pick):
        if pick not in check:
            at = pick(c)
            try:
                check[pick] = _CHECK[len(at)](*at)
            except OverflowError:  # -inf fails the test, whatever the other distances
                check[pick] = -math.inf
        return check[pick]

    for kind, i, j, picks in tests:
        if kind != "cross":
            gap = value(picks[0])
        elif value(picks[0]):
            gap = 0.0
        else:
            ab_c, ab_d, cd_a, cd_b = map(value, picks[1:])
            gap = min(min(ab_c, ab_d), min(cd_a, cd_b))
        if not gap > tol:  # a NaN distance fails, as in simple_mask
            return (kind, i, j)
    return None


@functools.lru_cache(maxsize=8)
def _atoms(n: int) -> tuple:
    """The distinct checks behind the tests of ``_tests(n)``, as corner index
    tuples: (crossings, distances, sides, touches).

    A crossing (a, b, c, d) asks whether the sides ab and cd cross, a
    distance (a, b, p) is that of corner p from the side ab, a side (a, b)
    is its length, and touches are the distances of the touch tests. A cross
    test has its crossing and four distances, each shared with another test
    (for a hexagon 9 crossings, 24 distances and 6 sides for 27 tests). The
    scalar :func:`first_violation` and the array :func:`simple_mask` both
    rest on this one list.
    """
    crossings, touches, sides = (
        tuple(dict.fromkeys(picks[0](range(n)) for k, _, _, picks in _tests(n) if k == kind))
        for kind in ("cross", "touch", "degenerate")
    )
    distances = dict.fromkeys(touches)
    for a, b, c, d in crossings:  # the ends of each side against the other side
        distances.update(dict.fromkeys([(a, b, c), (a, b, d), (c, d, a), (c, d, b)]))
    return crossings, tuple(distances), sides, touches


def _checks(n: int, tol: float) -> tuple:
    """(check, corner index tuples) per kind of atom, crossings first: a loop
    is simple where each check is True on its corners at each tuple."""
    crossings, distances, sides, touches = _atoms(n)

    def exceeds(gap):
        # |gap| > tol as Python's abs decides it: numpy's complex abs can
        # differ from it in the last bit, so lengths within a few ulps of
        # tol are measured again with np.hypot, which agrees with it
        length = abs(gap)
        ok = length > tol
        near = np.abs(length - tol) <= 4.0 * np.spacing(tol)
        if near.any():
            ok[near] = np.hypot(gap.real[near], gap.imag[near]) > tol
        return ok

    def far(a, b, p):
        return exceeds(_seg_point_gap(a, b, p))

    def cross(a, b, c, d):
        if 0.0 > tol:  # a crossing's distance 0 passes, whatever the four others
            return _crosses(a, b, c, d) | far(a, b, c) & far(a, b, d) & far(c, d, a) & far(c, d, b)
        return np.logical_not(_crosses(a, b, c, d))

    def long(a, b):
        return exceeds(b - a)

    return (cross, crossings), (far, touches if 0.0 > tol else distances), (long, sides)


def simple_mask(corners, tol: float = MERGE_TOL) -> np.ndarray:
    """Array form of :func:`first_violation`: True where the loop is simple.

    The corners are complex arrays or scalars that broadcast to one shape.
    They are stacked into one row of corners per cell, and the cells are
    decided _BLOCK at a time: each kind of distinct check (``_checks``, on
    the atom list ``_atoms`` that the scalar form shares) runs as one pass
    over the block's live cells, and the cells it rejects are dropped before
    the next kind: the crossings, which reject most loops, then each
    point-side distance once, then the sides. A cell's bit is the AND of the
    comparisons its tests make in array arithmetic, except that a length
    within a few ulps of tol is measured as Python's abs does. NaN and
    overflow just fail or pass comparisons, without numpy warnings.
    """
    corners = tuple(corners)
    shape = np.broadcast_shapes(*map(np.shape, corners))
    stack = np.stack(np.broadcast_arrays(*corners)).reshape(len(corners), -1)
    checks = [(check, np.array(group).T) for check, group in _checks(len(corners), tol) if group]
    bits = np.zeros(stack.shape[1], dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, len(bits), _BLOCK):
            block = stack[:, lo : lo + _BLOCK]
            live = np.arange(lo, lo + block.shape[1])
            for check, at in checks:  # at[k] is corner k of each check
                keep = np.flatnonzero(check(*block[at]).all(axis=0))
                if len(keep) < len(live):
                    block, live = block[:, keep], live[keep]
            bits[live] = True
    return bits.reshape(shape)


def is_simple(p, tol: float = MERGE_TOL) -> bool:
    """True iff no two non-adjacent sides come within ``tol`` and adjacent
    sides meet only at their shared corner."""
    c = _corners(p)
    violation = first_violation(c, tol)
    if violation is not None and violation[0] == "degenerate":
        _, i, j = violation
        try:
            finite = math.isfinite(abs(c[j] - c[i]))
        except OverflowError:
            finite = False
        apart = "coincide" if finite else "are not a finite distance apart"
        raise DegenerateError(f"corners {i} and {j} {apart}")
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
