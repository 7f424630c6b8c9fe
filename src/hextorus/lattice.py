"""Flat-torus modulus arithmetic.

A torus modulus is a complex number tau with Im(tau) > 0, standing for the
lattice Z + Z*tau. This module provides the SL(2,Z) action and reduction,
Hermite normal form for finite-index sublattices, sublattice enumeration,
covering moduli, lattice isometry tests, and a bounded search for rectangular
minimal moduli.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import gcd

TOL = 1e-9

_BOUNDARY_EPS = 1e-12


class SingularBasisError(ValueError):
    """Integer basis with zero determinant spans no finite-index sublattice."""


def check_modulus(tau: complex) -> complex:
    tau = complex(tau)
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise ValueError("modulus must be finite")
    if not tau.imag > 0:
        raise ValueError(f"modulus must lie in the upper half plane, got {tau}")
    return tau


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


@dataclass(frozen=True)
class UnimodularMap:
    """Moebius map tau -> (c + d*tau)/(a + b*tau) with ad - bc = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
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


def sl2_apply(mu: UnimodularMap, tau: complex) -> complex:
    return mu(check_modulus(tau))


@dataclass(frozen=True)
class IntBasis:
    """Sublattice of Z + Z*tau generated by a + b*tau and c + d*tau."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c == 0:
            raise SingularBasisError(f"basis {self} has zero determinant")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c


@dataclass(frozen=True)
class HnfTriple:
    """Sublattice Z*m + Z*(l + n*tau) in Hermite normal form."""

    m: int
    n: int
    l: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be positive in {self}")
        if not 0 <= self.l < self.m:
            raise ValueError(f"l must satisfy 0 <= l < m in {self}")

    @property
    def index(self) -> int:
        return self.m * self.n


def hnf_of_basis(basis: IntBasis | tuple[int, int, int, int]) -> HnfTriple:
    """Hermite normal form (m, n; l) of the sublattice spanned by the basis."""
    if not isinstance(basis, IntBasis):
        basis = IntBasis(*basis)
    a, b, c, d = basis.a, basis.b, basis.c, basis.d
    n, x, y = _egcd(b, d)
    if n == 0:
        # both generators are real: rank 1, cannot have finite index, and
        # det != 0 already rules it out; keep the guard for plain tuples
        raise SingularBasisError(f"basis {basis} spans no finite-index sublattice")
    m = abs(basis.det) // n
    l = (x * a + y * c) % m
    return HnfTriple(m, n, l)


def enumerate_hnf(index: int) -> list[HnfTriple]:
    """All HNF triples of the given sublattice index, sorted by (m, l)."""
    if index < 1:
        raise ValueError("index must be a positive integer")
    triples = []
    for m in range(1, index + 1):
        if index % m == 0:
            n = index // m
            triples.extend(HnfTriple(m, n, l) for l in range(m))
    return sorted(triples, key=lambda h: (h.m, h.l))


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


@functools.lru_cache(maxsize=8)
def _search_maps(bound: int) -> tuple[tuple[int, int, int, int], ...]:
    """(a, b, d0, c0) with a*d0 - b*c0 = 1, one per sign class of coprime
    (a, b) with entries up to bound, ordered small entries first."""
    pairs = [
        (a, b)
        for a in range(bound + 1)
        for b in range(-bound, bound + 1)
        if gcd(a, b) == 1 and (a > 0 or b > 0)
    ]
    pairs.sort(key=lambda p: (max(abs(p[0]), abs(p[1])), abs(p[1]), p[1]))
    maps = []
    for a, b in pairs:
        _, x, y = _egcd(a, b)
        maps.append((a, b, x, -y))
    return tuple(maps)


def rectangular_solve(
    target: complex, h: HnfTriple, bound: int = 64
) -> complex | None:
    """Purely imaginary modulus x with covering_modulus(x, h) isometric to target.

    Searches unimodular maps with all entries bounded by ``bound``; returns the
    first modulus found (identity map first) or None when the search is
    exhausted. A None is "none up to bound", not a nonexistence proof.
    """
    target = check_modulus(target)
    m, n, l = h.m, h.n, h.l
    for a, b, d0, c0 in _search_maps(bound):
        tau0 = (c0 + d0 * target) / (a + b * target)
        # adding t to (c, d) along (a, b) shifts the image by t; pick the one
        # shot at Re = l/m
        t = round(l / m - tau0.real)
        c, d = c0 + t * a, d0 + t * b
        if max(abs(c), abs(d)) > bound:
            continue
        if abs(tau0.real + t - l / m) > TOL:
            continue
        return 1j * (m * tau0.imag / n)
    return None
