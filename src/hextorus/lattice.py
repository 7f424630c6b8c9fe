"""Flat-torus modulus arithmetic.

A torus modulus is a complex number tau with Im(tau) > 0, standing for the
lattice Z + Z*tau. This module provides the SL(2,Z) action and reduction,
Hermite normal form for finite-index sublattices, sublattice enumeration,
covering moduli, lattice isometry tests, the exact rule for rectangular
minimal moduli, the covolume of a lattice, the lattice frame that reduces
points modulo a lattice, the hash that finds the lattice copies of points
that lie close to other points, and the connected components of a graph on
such points.
"""

from __future__ import annotations

import functools
import math
from math import gcd

from ._np import np
from ._value import value_type

TOL = 1e-9

_BOUNDARY_EPS = 1e-12

_CANDIDATES = 1 << 14  # candidate copies a NearPairs query tests at a time
_COPIES = 1 << 20  # copies NearPairs may store past 25 per point
_MAX_TRIPLES = 1 << 20  # HNF triples enumerate_hnf lists at most


class SingularBasisError(ValueError):
    """Integer basis with zero determinant spans no finite-index sublattice."""


def check_modulus(tau: complex) -> complex:
    tau = complex(tau)
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise ValueError("modulus must be finite")
    if not tau.imag > 0:
        raise ValueError(f"modulus must lie in the upper half plane, got {tau}")
    return tau


def check_height(y, name: str) -> float:
    """The height of a rectangular modulus i*y as a float; ValueError unless
    it is finite and positive."""
    y = float(y)
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"{name} must be positive, got {y}")
    return y


def check_count(n, name: str, least: int | None = None, most: int | None = None) -> int:
    """n as an int; ValueError unless it is integral (12.0 is 12) and
    least <= n <= most, where an end given as None is open."""
    if n.__class__ is not int:  # an int, the common case, is not converted again
        try:
            whole = int(n) == n
        except (TypeError, ValueError, OverflowError):  # not a number, NaN or inf
            whole = False
        if not whole:
            raise ValueError(f"{name} must be an integer, got {n!r}")
        n = int(n)
    if least is not None and n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    if most is not None and n > most:
        raise ValueError(f"{name} must be at most {most}, got {n}")
    return n


def check_tolerance(tol) -> float:
    """tol as a float; ValueError unless it is a finite number >= 0."""
    try:
        if 0.0 <= tol < math.inf:
            return float(tol)
    except TypeError:  # not a number
        pass
    raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")


def covolume(alpha: complex, beta: complex) -> float:
    """Signed area alpha.real*beta.imag - alpha.imag*beta.real of the cell
    spanned by alpha and then beta; positive iff Im(beta/alpha) > 0."""
    return alpha.real * beta.imag - alpha.imag * beta.real


def check_lattice(alpha: complex, beta: complex) -> tuple[complex, complex]:
    """The generators as complex numbers; ValueError unless both are finite
    and covolume(alpha, beta) > 0, i.e. Im(beta/alpha) > 0."""
    alpha, beta = complex(alpha), complex(beta)
    finite = all(map(math.isfinite, (alpha.real, alpha.imag, beta.real, beta.imag)))
    if not (finite and covolume(alpha, beta) > 0):
        raise ValueError("lattice generators must satisfy Im(beta/alpha) > 0")
    return alpha, beta


def _egcd(u: int, v: int) -> tuple[int, int, int]:
    """(g, x, y) with x*u + y*v = g = gcd(u, v) >= 0."""
    old_r, r = u, v
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


@value_type("a", "b", "c", "d")
class UnimodularMap:
    """Moebius map tau -> (c + d*tau)/(a + b*tau) with ad - bc = 1."""

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        a, b, c, d = check_count(a, "a"), check_count(b, "b"), check_count(c, "c"), check_count(d, "d")
        self.__dict__.update(a=a, b=b, c=c, d=d)  # the message shows self
        if a * d - b * c != 1:
            raise ValueError(f"determinant of {self} must be 1")

    def __call__(self, tau: complex) -> complex:
        tau = complex(tau)
        return (self.c + self.d * tau) / (self.a + self.b * tau)

    def compose(self, other: UnimodularMap) -> UnimodularMap:
        """The map acting as ``self`` after ``other``."""
        # in the standard (numerator-first) matrix form [[d, c], [b, a]] the
        # composite is the matrix product
        d = self.d * other.d + self.c * other.b
        c = self.d * other.c + self.c * other.a
        b = self.b * other.d + self.a * other.b
        a = self.b * other.c + self.a * other.a
        return UnimodularMap(a, b, c, d)

    def inverse(self) -> UnimodularMap:
        return UnimodularMap(self.d, -self.b, -self.c, self.a)


IDENTITY_MAP = UnimodularMap(1, 0, 0, 1)


@value_type("a", "b", "c", "d")
class IntBasis:
    """Sublattice of Z + Z*tau generated by a + b*tau and c + d*tau."""

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        a, b, c, d = check_count(a, "a"), check_count(b, "b"), check_count(c, "c"), check_count(d, "d")
        self.__dict__.update(a=a, b=b, c=c, d=d)  # the message shows self
        if a * d - b * c == 0:
            raise SingularBasisError(f"basis {self} has zero determinant")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c


@value_type("m", "n", "l")
class HnfTriple:
    """Sublattice Z*m + Z*(l + n*tau) in Hermite normal form."""

    def __init__(self, m: int, n: int, l: int) -> None:
        m, n, l = check_count(m, "m"), check_count(n, "n"), check_count(l, "l")
        self.__dict__.update(m=m, n=n, l=l)  # the messages show self
        if m < 1 or n < 1:
            raise ValueError(f"m and n must be positive in {self}")
        if not 0 <= l < m:
            raise ValueError(f"l must satisfy 0 <= l < m in {self}")

    @property
    def index(self) -> int:
        return self.m * self.n


def hnf_of_basis(basis: IntBasis | tuple[int, int, int, int]) -> HnfTriple:
    """Hermite normal form (m, n; l) of the sublattice spanned by the basis."""
    if not isinstance(basis, IntBasis):
        basis = IntBasis(*basis)
    n, x, y = _egcd(basis.b, basis.d)  # n > 0, since det != 0
    m = abs(basis.det) // n
    l = (x * basis.a + y * basis.c) % m
    return HnfTriple(m, n, l)


def enumerate_hnf(index: int) -> list[HnfTriple]:
    """All HNF triples of the given sublattice index, sorted by (m, l).

    There are sigma(index) of them, the sum of the divisors of index; an
    index with more than 2**20 raises ValueError. As sigma(index) > index
    for index > 1, an index of 2**20 or more is refused before any search.
    """
    index = check_count(index, "index", 1)
    low = [m for m in range(1, math.isqrt(index) + 1) if index % m == 0] if index < _MAX_TRIPLES else []
    divisors = low + [index // m for m in reversed(low) if m * m != index]
    if not divisors or sum(divisors) > _MAX_TRIPLES:
        raise ValueError(f"index {index} has more than {_MAX_TRIPLES} HNF triples")
    return [HnfTriple(m, index // m, l) for m in divisors for l in range(m)]


def covering_modulus(tau: complex, h: HnfTriple) -> complex:
    """Modulus of the covering torus C/(Z*m + Z*(l + n*tau))."""
    tau = check_modulus(tau)
    return (h.l + h.n * tau) / h.m


def sl2_reduce(tau: complex) -> tuple[complex, UnimodularMap]:
    """Reduced representative of tau under SL(2,Z), with a witnessing map.

    The representative has Re in [-1/2, 1/2) and |tau| >= 1; on the boundary
    circle |tau| = 1 the sign ambiguity is broken toward Re <= 0.
    """
    tau = check_modulus(tau)
    witness = IDENTITY_MAP

    def step(mu: UnimodularMap) -> None:
        nonlocal tau, witness
        tau = mu(tau)
        witness = mu.compose(witness)

    for _ in range(1000):
        k = -math.floor(tau.real + 0.5)
        if k != 0:
            step(UnimodularMap(1, 0, k, 1))
        if abs(tau) < 1.0 - _BOUNDARY_EPS:
            step(UnimodularMap(0, 1, -1, 0))
            continue
        break
    else:
        raise ArithmeticError(f"reduction of {tau} did not terminate")
    if abs(abs(tau) - 1.0) <= _BOUNDARY_EPS and tau.real > _BOUNDARY_EPS:
        # on |tau| = 1 inversion acts by Re -> -Re; no further translation
        # is needed (up to eps at the corner Re = 1/2)
        step(UnimodularMap(0, 1, -1, 0))
    if tau.real >= 0.5 - _BOUNDARY_EPS:
        # the wall Re = 1/2 is excluded from [-1/2, 1/2); identify with -1/2
        step(UnimodularMap(1, 0, -1, 1))
    return tau, witness


def lattices_isometric(tau1: complex, tau2: complex, tol: float = TOL) -> bool:
    """True iff the two lattices agree up to rotation and scaling."""
    r1, _ = sl2_reduce(tau1)
    r2, _ = sl2_reduce(tau2)
    return abs(r1 - r2) <= tol


def rectangular_solve(target: complex, h: HnfTriple, bound=None) -> complex | None:
    """Purely imaginary modulus x with covering_modulus(x, h) isometric to
    target, or None when there is none.

    x exists iff an SL(2,Z) image w of the target has Re w = l/m (mod 1), and
    then x = i*m*Im(w)/n. The map back sends that vertical line to an
    integral geodesic A*|z|^2 + B*Re(z) + C = 0 of discriminant
    B^2 - 4AC = k^2, k = m/gcd(l, m), through the reduced target x0 + i*y0.
    Its radius k/(2A) is at least y0, so A runs from 0 to k/(2*y0), and B is
    a root of B^2 + 4*A*x0*B + 4*A^2*|x0 + i*y0|^2 - k^2 = 0. The map sends
    one of the geodesic's two cusps p/q to infinity, so its bottom row is
    (a, b) = (-p, q) on the reduced target. The list is complete, so None
    means that no rectangular modulus covers the target along h. Of the
    maps that fit, the one with the least (max(|a|, |b|), |b|, b, a) gives x.

    ``bound`` is ignored: perfbench's moduli_enumerate still passes a search
    bound, and the benchmark change of ROADMAP item 1 drops it.
    """
    target = check_modulus(target)
    # the same lattice, exactly: far from Re = 0 the images of the target
    # would lose its imaginary part to rounding
    tau = target - round(target.real)
    reduced, mu = sl2_reduce(tau)
    x0, y0 = reduced.real, reduced.imag
    m, n, l = h.m, h.n, h.l
    k = m // gcd(l, m)
    # (p, q) for each cusp p/q; A = 0 is the vertical line through x0
    cusps = {(1, 0), (round(k * x0), k)}
    # the factor 1 + TOL keeps A = k/(2*y0) whichever way y0 was rounded
    for A in range(1, math.floor(k / (2.0 * y0) * (1.0 + TOL)) + 1):
        s = math.sqrt(max(k * k - 4.0 * A * A * y0 * y0, 0.0))
        for B in {round(-2.0 * A * x0 + s), round(-2.0 * A * x0 - s)}:
            if (B * B - k * k) % (4 * A) == 0:  # C is an integer
                cusps.update(((k - B, 2 * A), (-k - B, 2 * A)))
    rows = set()
    for p, q in cusps:
        # the row (-p, q) on the reduced target, composed with mu, one sign
        g = gcd(p, q)
        a, b = (q * mu.c - p * mu.a) // g, (q * mu.d - p * mu.b) // g
        rows.add((a, b) if (a, b) > (0, 0) else (-a, -b))
    for a, b in sorted(rows, key=lambda r: (max(abs(r[0]), abs(r[1])), abs(r[1]), r[1], r[0])):
        _, d, c = _egcd(a, b)  # a*d + b*c = 1: the map (-c + d*tau)/(a + b*tau)
        w0 = (-c + d * tau) / (a + b * tau)
        if not math.isfinite(w0.real):
            continue
        # adding t to the top row along (a, b) shifts the image by t; pick
        # the one shot at Re = l/m
        t = round(l / m - w0.real)
        if abs(w0.real + t - l / m) <= TOL:
            return 1j * (m * w0.imag / n)
    return None


def components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the nodes 0..n-1 under the edges (a[k], b[k]).

    Returns (label, first): components are numbered 0, 1, ... in order of
    their least node, label[v] is the number of the component of node v and
    first[c] the least node of component c, so first is increasing.
    """
    root = np.arange(n)
    # hook each root onto the smaller root it touches, then flatten, until
    # the ends of every edge share a root: the least node of their component
    while not np.array_equal(root[a], root[b]):
        ra, rb = root[a], root[b]
        np.minimum.at(root, ra, rb)
        np.minimum.at(root, rb, ra)
        while not np.array_equal(root[root], root):
            root = root[root]
    first = np.flatnonzero(root == np.arange(n))
    return np.searchsorted(first, root), first


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values (numpy's unique imports numpy.ma on first use)."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _finite_or_nan(pts) -> np.ndarray:
    """The points as a flat complex array, NaN where not finite (inf warns)."""
    pts = np.asarray(pts, dtype=complex).ravel()
    return pts if np.isfinite(pts).all() else np.where(np.isfinite(pts), pts, np.nan)


class LatticeFrame:
    """The lattice Z*alpha + Z*beta in coordinates.

    ``frac`` gives the coordinates of points in the basis (alpha, beta) as a
    trailing axis of length 2, ``norm`` the Euclidean length of such a
    coordinate vector, ``residual`` that length after subtracting the nearest
    integer coordinates, ``reduce`` moves points into the fundamental
    parallelogram [0, 1) alpha + [0, 1) beta, and ``reduced`` is the frame of
    a reduced basis, which every ``NearPairs`` of this frame shares. Parallel
    or zero generators raise ValueError.
    """

    def __init__(self, alpha: complex, beta: complex):
        self.alpha, self.beta = complex(alpha), complex(beta)
        self.basis = np.array(
            [[self.alpha.real, self.alpha.imag], [self.beta.real, self.beta.imag]]
        )
        flat = covolume(self.alpha, self.beta) == 0.0  # NaN passes: validate reports it
        try:
            self.inv_basis = np.linalg.inv(self.basis)
        except np.linalg.LinAlgError:  # nearly parallel: the elimination rounds to zero
            flat = True
        if flat:
            raise ValueError(
                f"lattice generators {self.alpha} and {self.beta} are parallel or zero"
            )

    def frac(self, pts) -> np.ndarray:
        # the real and imaginary parts of contiguous complex numbers, viewed
        # as a trailing axis of length 2
        pts = np.asarray(pts, dtype=complex, order="C")
        return pts[..., None].view(float) @ self.inv_basis

    def norm(self, frac_delta: np.ndarray) -> np.ndarray:
        xy = frac_delta @ self.basis
        return np.hypot(xy[..., 0], xy[..., 1])

    def residual(self, frac_delta: np.ndarray) -> np.ndarray:
        """Length of a coordinate difference less its rounding: two points
        meet modulo the lattice when that of their difference is small."""
        return self.norm(frac_delta - np.round(frac_delta))

    def reduce(self, pts) -> np.ndarray:
        frac = self.frac(pts)
        frac -= np.floor(frac)
        return frac[..., 0] * self.alpha + frac[..., 1] * self.beta

    @functools.cached_property
    def reduced(self) -> LatticeFrame:
        """The frame of a reduced basis of this lattice (itself if not finite)."""
        tau = self.beta / self.alpha
        sign = 1.0 if tau.imag >= 0.0 else -1.0
        try:
            _, mu = sl2_reduce(sign * tau)
        except ValueError:
            return self
        alpha, beta = self.alpha, sign * self.beta
        return LatticeFrame(mu.a * alpha + mu.b * beta, mu.c * alpha + mu.d * beta)


class NearPairs:
    """The lattice copies of reference points within a radius of query points.

    A sort-based spatial hash (Teschner et al., "Optimized Spatial Hashing for
    Collision Detection of Deformable Objects", VMV 2003). The reference
    points are reduced into the fundamental parallelogram of a reduced basis,
    copied across its edges as far as their radius reaches, and sorted by
    square grid cell of side the largest radius; a query point reads the
    3 x 3 cells around its own reduced position with ``searchsorted``.
    ``radius`` is one radius for all reference points or one per point. A
    negative or NaN radius admits no copy, a zero one only points that
    coincide up to rounding. Each radius is widened by a margin for rounding,
    1e-9 times the longer reduced basis vector plus 1e-12 times the largest
    finite reference point, so every copy within it is found; callers decide
    each candidate themselves. Radii so far beyond the lattice that their
    copies would outnumber ``_COPIES`` and 25 per point keep only the copies
    up to two reduced steps beyond the parallelogram, which hold each point's
    nearest copy, so ``pairs`` stays complete and ``copies`` does not.
    """

    def __init__(self, frame: LatticeFrame, ref, radius):
        # row i: reduced basis vector i in the caller's basis, exact integers
        self.steps = np.round(frame.reduced.basis @ frame.inv_basis)
        self.frame = frame = frame.reduced
        ref = _finite_or_nan(ref)
        self.n_ref = len(ref)
        frac = frame.frac(ref)
        finite = np.isfinite(frac).all(axis=-1)
        scale = max(abs(frame.alpha), abs(frame.beta))
        size = np.abs(ref[finite]).max(initial=0.0)
        reach = np.asarray(radius, dtype=float) + 1e-9 * scale + 1e-12 * size
        # a negative or NaN radius admits no copy
        index = np.flatnonzero(finite & (reach > 0.0))
        frac = frac.take(index, axis=0)  # take: row gathers at a fraction of the cost
        home = np.floor(frac)
        frac -= home
        reach = np.broadcast_to(reach, (self.n_ref,))[index]
        self.cell = reach.max(initial=0.0)
        # the copy of a point shifted by k*alpha + j*beta lies within reach of
        # the parallelogram only if (k, j) plus its coordinates lies within
        # margin of [0, 1]^2
        margin = reach[:, None] * np.hypot(frame.inv_basis[0], frame.inv_basis[1])
        lo, hi = np.ceil(-margin - frac), np.floor(1.0 + margin - frac)
        span = hi - lo + 1.0
        if not np.dot(span[:, 0], span[:, 1]) <= max(_COPIES, 25 * len(index)):
            # the nearest copy of a point has |k|, |j| <= 1 (2 for rounding)
            lo = np.maximum(lo, -2.0)
            span = np.minimum(hi, 2.0) - lo + 1.0
        lo, span = lo.astype(np.int64), span.astype(np.int64)
        copies = span[:, 0] * span[:, 1]
        src = np.repeat(np.arange(len(index)), copies)
        j = np.arange(len(src)) - np.repeat(np.cumsum(copies) - copies, copies)
        k = lo.take(src, axis=0) + np.stack(np.divmod(j, span[:, 1].take(src)), axis=-1)
        pts = frac.take(src, axis=0) + k  # each copy in reduced coordinates
        pts = pts[:, 0] * frame.alpha + pts[:, 1] * frame.beta
        cx, cy = self._cells(pts)
        # a cell is keyed by the ranks of its two coordinates, which stay below
        # the point count whatever the ratio of the coordinates to the radius
        self.xs, self.ys = _distinct(cx), _distinct(cy)
        key = np.searchsorted(self.xs, cx) * len(self.ys) + np.searchsorted(self.ys, cy)
        order = np.argsort(key, kind="stable")
        src = src[order]
        self.key, self.pts, self.src, self.reach = key[order], pts[order], index[src], reach[src]
        # each stored copy less its reference point, in reduced coordinates
        self.shift = k.take(order, axis=0) - home.take(src, axis=0)

    def _cells(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.floor(pts.real / self.cell).astype(np.int64),
            np.floor(pts.imag / self.cell).astype(np.int64),
        )

    def _near(self, query):
        """Blocks of (query index, stored copy) of the stored copies within reach
        of a query point, each with the query points' reduced coordinates' floors."""
        frac = self.frame.frac(_finite_or_nan(query))
        home = np.floor(frac)
        frac -= home
        z = frac[:, 0] * self.frame.alpha + frac[:, 1] * self.frame.beta
        index = np.flatnonzero(np.isfinite(z))
        if not len(index) or not len(self.key):
            return
        cx, cy = self._cells(z[index])
        # queries by column, so that the keys searched below come nearly
        # sorted, which searchsorted reads fastest
        order = np.argsort(cx, kind="stable")
        index, cx, cy = index[order], cx[order], cy[order]
        z = z[index]
        # the cells (cx + dx, cy - 1 .. cy + 1) of the three columns dx are
        # one run of keys each; only the columns that hold a point are read
        cx = np.concatenate([cx - 1, cx, cx + 1])
        row = np.searchsorted(self.xs, cx)
        run = np.flatnonzero(self.xs[np.minimum(row, len(self.xs) - 1)] == cx)
        run_query = run % len(z)  # the query point of each run
        row, cy = row[run] * len(self.ys), cy[run_query]
        start = np.searchsorted(self.key, row + np.searchsorted(self.ys, cy - 1, side="left"))
        count = np.searchsorted(self.key, row + np.searchsorted(self.ys, cy + 1, side="right"))
        count -= start
        # test the candidates about _CANDIDATES at a time, whole runs each,
        # so that memory stays bounded however many points the cells hold
        cuts = np.searchsorted(np.cumsum(count), np.arange(_CANDIDATES, count.sum(), _CANDIDATES))
        cuts = [0, *cuts.tolist(), len(count)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            n = count[a:b]
            q = np.repeat(run_query[a:b], n)
            r = np.arange(len(q)) - np.repeat(np.cumsum(n) - n - start[a:b], n)
            gap = z[q]
            gap -= self.pts[r]
            near = np.abs(gap) <= self.reach[r]
            q, r, gap = index[q[near]], r[near], None  # freed before the caller's turn
            yield q, r, home

    def pairs(self, query) -> tuple[np.ndarray, np.ndarray]:
        """(query index, reference index) of every pair of points within the
        radius of each other modulo the lattice, each pair once, sorted."""
        keys = [q * self.n_ref + self.src[r] for q, r, _ in self._near(query)]
        keys = _distinct(np.concatenate(keys)) if keys else np.zeros(0, dtype=np.int64)
        return keys // self.n_ref, keys % self.n_ref

    def copies(self, query):
        """Blocks of (query index, reference index, shift), one row per copy
        within the radius of a query point: the shift's integer coordinates
        (exact floats) in the caller's basis carry the reference to the copy."""
        for q, r, home in self._near(query):
            yield q, self.src[r], (self.shift.take(r, axis=0) + home.take(q, axis=0)) @ self.steps
