"""Constructors for minimal hexagonal torus tilings and planar patches.

Each constructor builds the tile set of one minimal tiling from its free
parameters and returns a TorusTiling; parameters outside the moduli space of
the construction (the hexagon degenerates, or sides cross) raise
ModuliViolation. The validator in :mod:`hextorus.validate` is the independent
check that outputs really tile.
"""

from __future__ import annotations

import cmath
import math
import warnings

from ._value import value_type
from .geom import MERGE_TOL, Isometry, Polygon, first_violation, rotation, signed_area
from .hexagon import _generic_flag, _spec, spec_from_polygon
from .lattice import HnfTriple, IntBasis, check_count, check_height, check_lattice, check_modulus
from .lattice import covering_modulus, covolume, hnf_of_basis, lattices_isometric, rectangular_solve

OMEGA3 = complex(-0.5, math.sqrt(3.0) / 2.0)

ROT120 = cmath.exp(2j * math.pi / 3.0)

# anchor vertices of the three-tile construction on Z + Z*omega3
R_POINT = cmath.exp(1j * math.pi / 3.0) / 3.0
G_POINT = complex(-1.0 / 3.0, 0.0)
B_POINT = cmath.exp(-1j * math.pi / 3.0) / 3.0
G_PRIME = G_POINT + 1.0


class ModuliViolation(ValueError):
    """Parameters fall outside the moduli space of the construction."""

    def __init__(self, message: str, kind: str = "", i: int = -1, j: int = -1):
        super().__init__(message)
        self.kind = kind
        self.i = i
        self.j = j


class GenericityWarning(UserWarning):
    """The constructed prototile violates its type's genericity conditions."""


@value_type("i", "t")
class FreeVector:
    """Free vector with initial point ``i`` and terminal point ``t``."""

    def __init__(self, i: complex, t: complex) -> None:
        i, t = complex(i), complex(t)
        try:
            short = abs(t - i) <= MERGE_TOL
        except OverflowError:  # longer than any float: the hexagon test refuses it
            short = False
        if short:
            raise ModuliViolation(f"free vector from {i} to {t} has zero length", "degenerate")
        self.__dict__.update(i=i, t=t)


def _free_vector(sigma) -> FreeVector:
    if isinstance(sigma, FreeVector):
        return sigma
    i, t = sigma
    return FreeVector(complex(i), complex(t))


@value_type("alpha", "beta", "tiles", "provenance")
class TorusTiling:
    """Tiles filling one fundamental domain of the lattice Z*alpha + Z*beta.

    ``provenance`` defaults to a new empty dict.
    """

    def __init__(
        self,
        alpha: complex,
        beta: complex,
        tiles: tuple[Polygon, ...],
        provenance: dict | None = None,
    ) -> None:
        alpha, beta, tiles = complex(alpha), complex(beta), tuple(tiles)
        if not tiles:
            raise ValueError("tiling needs at least one tile")
        check_lattice(alpha, beta)
        covol = covolume(alpha, beta)
        total = sum(abs(signed_area(t)) for t in tiles)
        if abs(total - covol) > 1e-6 * covol:
            raise ValueError(f"tile area {total} does not fill the fundamental domain {covol}")
        provenance = {} if provenance is None else provenance
        self.__dict__.update(alpha=alpha, beta=beta, tiles=tiles, provenance=provenance)

    @property
    def covolume(self) -> float:
        return covolume(self.alpha, self.beta)

    @property
    def modulus(self) -> complex:
        return self.beta / self.alpha


@value_type("tiles", "provenance")
class PlanarPatch:
    """Finite set of planar tiles expanded from a torus tiling.

    ``provenance`` defaults to a new empty dict.
    """

    def __init__(self, tiles: tuple[Polygon, ...], provenance: dict | None = None) -> None:
        provenance = {} if provenance is None else provenance
        self.__dict__.update(tiles=tuple(tiles), provenance=provenance)


def _glide_ii(y: float) -> Isometry:
    return Isometry(-1.0 + 0j, 0.5 + 0.5j * y, True)  # glide along x = 1/4


def _corners_i(u, v, i, t) -> tuple:
    # the prototile of two-tile strips spanned by u and v
    return (v, i - u, 0j, i - t, t, i - t + v)


def _corners_ii(y, i, t) -> tuple:
    gamma_inv = _glide_ii(y).inverse()
    return (t, -t, gamma_inv(i), gamma_inv(t), 1.0 - i, i)


def _corners_iii(P) -> tuple:
    # P_R and P_B are P rotated by +-120 degrees about R and B
    p_r, p_b = R_POINT + ROT120 * (P - R_POINT), B_POINT + ROT120.conjugate() * (P - B_POINT)
    return (P, R_POINT, p_r, G_PRIME, p_b, B_POINT)


def _orbit_ii(y, i) -> tuple[Isometry, ...]:
    # the half turn about the origin and the glide; tile 0 is the identity
    # image of the prototile, so its zeros are positive
    rho, gamma = rotation(math.pi), _glide_ii(y)
    return (Isometry(), rho, gamma, rho.compose(gamma))


def _free_modulus(target: complex, h: HnfTriple, bound: int) -> complex:
    return (h.m * target - h.l) / h.n


def _cover_iii(target: complex, h: HnfTriple, bound: int) -> complex | None:
    # one triple per orbit of the rotation by omega3, which multiplies the
    # sublattice of Z + Z*omega3 by omega3; with omega3^2 = -1 - omega3 its
    # coordinates map (x, y) -> (-y, x - y)
    a = hnf_of_basis(IntBasis(0, h.m, -h.n, h.l - h.n))
    b = hnf_of_basis(IntBasis(0, a.m, -a.n, a.l - a.n))
    first = h == min(h, a, b, key=lambda g: (g.m, g.n, g.l))
    return OMEGA3 if first and lattices_isometric(covering_modulus(OMEGA3, h), target) else None


@value_type(
    "kind", "provenance", "fixed", "normalize", "lattice", "tiles", "corners", "slopes", "orbit",
    "cover",
)
class Family:
    """A family of minimal tilings whose tiles are images of one prototile.

    ``provenance`` is the tilings' kind. ``normalize`` checks the fixed
    parameters that ``fixed`` names, and ``lattice``, ``corners`` and
    ``orbit`` take them normalized. The six ``corners(*fixed, z)`` at the
    free parameter z (a complex scalar or array) are A + B*z + C*conj(z),
    with per-corner ``slopes`` (B, C).
    ``orbit`` carries the prototile to each tile (None: it is the tile).
    ``cover(target, h, bound)`` is the minimal modulus whose covering along
    the triple h is the target torus, or None.
    """

    def check(self, fixed) -> tuple:
        """The fixed parameters, a sequence (None for none), normalized."""
        try:
            values = () if fixed is None else tuple(fixed)
        except TypeError:  # a scalar
            values = None
        if values is None or len(values) != len(self.fixed):
            if not self.fixed:
                raise ValueError(f"type {self.kind} has no fixed parameters")
            raise ValueError(f"type {self.kind} takes the fixed parameters {self.fixed}")
        return self.normalize(*values)

    def build(self, fixed: tuple, free: complex, provenance: dict) -> TorusTiling:
        """The tiling at normalized fixed parameters and a free one, with the
        kind and then ``provenance`` as its provenance, or ModuliViolation."""
        proto = _hexagon(self.corners(*fixed, free))
        tiles = [proto if g is None else _oriented(proto.transformed(g)) for g in self.orbit(*fixed)]
        tiling = TorusTiling(*self.lattice(*fixed), tiles, {"kind": self.provenance, **provenance})
        return _warn_if_nongeneric(tiling, tiles[0], stacklevel=4)


FAMILIES = {
    f.kind: f
    for f in (
        Family("i", "type_i", ("tau", "i"), lambda tau, i: (check_modulus(tau), complex(i)),
               lambda tau, i: (1.0 + 0j, tau), 2, lambda tau, i, t: _corners_i(1.0, tau, i, t),
               ((0, 0, 0, -1, 1, -1), (0,) * 6), lambda tau, i: (None, rotation(math.pi, i / 2.0)),
               _free_modulus),
        # corner 3 is the glide's image of t, so it moves with conj(t)
        Family("ii", "type_ii", ("y", "i"), lambda y, i: (check_height(y, "y"), complex(i)),
               lambda y, i: (1.0 + 0j, 1j * y), 4, _corners_ii,
               ((1, -1, 0, 0, 0, 0), (0, 0, 0, -1, 0, 0)), _orbit_ii, rectangular_solve),
        Family("iii", "type_iii", (), lambda: (), lambda: (1.0 + 0j, OMEGA3), 3, _corners_iii,
               ((1, 0, ROT120, 0, ROT120.conjugate(), 0), (0,) * 6),
               lambda: (None, *(rotation(a * math.pi / 3.0, R_POINT) for a in (2.0, -2.0))),
               _cover_iii),
        Family("cs", "central", ("alpha", "beta"), check_lattice, lambda alpha, beta: (alpha, beta), 1,
               lambda alpha, beta, u: (u, beta - u, u - alpha, -u, u - beta, alpha - u),
               ((1, -1, 1, -1, 1, -1), (0,) * 6), lambda alpha, beta: (None,), _free_modulus),
    )
}


def family(kind) -> Family:
    """The family of a kind ("i", "ii", "iii" or "cs", in any case)."""
    key = str(kind).strip().lower()
    if key not in FAMILIES:
        raise ValueError(f"kind must be one of {tuple(FAMILIES)}")
    return FAMILIES[key]


def _hexagon(corners) -> Polygon:
    """Build a simple hexagon, counterclockwise, or raise ModuliViolation."""
    violation = first_violation(corners)
    if violation is not None:
        kind, i, j = violation
        raise ModuliViolation(
            f"hexagon is not simple: {kind} involving corners/sides {i} and {j}",
            kind,
            i,
            j,
        )
    return _oriented(Polygon(tuple(corners)))


def _oriented(p: Polygon) -> Polygon:
    return p if signed_area(p) > 0 else p.reversed()


def _warn_if_nongeneric(tiling: TorusTiling, prototile: Polygon, stacklevel: int = 3) -> TorusTiling:
    """The tiling, after a GenericityWarning if the prototile violates the
    genericity conditions of the tiling's kind. Unless _hexagon reversed the
    prototile (labels 5..0), its corners are those _hexagon tested, in order
    and up to the sign of a zero, so only a reversed one is tested again.
    The warning points ``stacklevel`` frames up, at the constructor's caller."""
    kind = tiling.provenance["kind"]
    flag = "generic_" + kind.removeprefix("type_")  # type_i: generic_i, strip: generic_strip
    spec = (spec_from_polygon if prototile.labels[0] else _spec)(prototile)
    if not _generic_flag(spec, flag):
        warnings.warn(
            f"prototile violates the {kind} genericity conditions",
            GenericityWarning,
            stacklevel=stacklevel,
        )
    return tiling


def type_i_minimal(tau: complex, sigma) -> TorusTiling:
    """Two-tile minimal tiling of the torus C/(Z + Z*tau).

    The prototile is determined by the free vector sigma; the companion tile
    is its half-turn image about the midpoint of sigma's initial point.
    """
    tau = check_modulus(tau)
    sigma = _free_vector(sigma)
    return FAMILIES["i"].build((tau, sigma.i), sigma.t, {"tau": tau, "sigma": (sigma.i, sigma.t)})


def type_ii_minimal(y: float, sigma) -> TorusTiling:
    """Four-tile minimal tiling of the rectangular torus C/(Z + Z*iy).

    The tile set is the orbit of one hexagon under the half turn about the
    origin and the glide reflection along the vertical line x = 1/4 with
    shift y/2.
    """
    y = check_height(y, "y")
    sigma = _free_vector(sigma)
    return FAMILIES["ii"].build((y, sigma.i), sigma.t, {"y": y, "sigma": (sigma.i, sigma.t)})


def type_iii_minimal(P: complex) -> TorusTiling:
    """Three-tile minimal tiling of the hexagonal torus C/(Z + Z*omega3).

    The hexagon has corners [P, R, P_R, G', P_B, B] where P_R and P_B are the
    rotations of P by +-120 degrees about R and B; the other two tiles are
    its rotations by +-120 degrees about R.
    """
    P = complex(P)
    return FAMILIES["iii"].build((), P, {"P": P})


def central_minimal(alpha: complex, beta: complex, u: complex) -> TorusTiling:
    """Single-tile tiling by a centrally symmetric hexagon filling C/(Z*alpha + Z*beta)."""
    alpha, beta = check_lattice(alpha, beta)
    u = complex(u)
    return FAMILIES["cs"].build((alpha, beta), u, {"alpha": alpha, "beta": beta, "u": u})


def strip_tiling(
    h: float,
    w: float,
    s: float,
    sigma,
    signs: str,
    mode: str = "torus",
    extent: int | None = None,
) -> TorusTiling | PlanarPatch:
    """Tiling built from vertical two-tile strips with chosen directions.

    Each strip repeats with vertical period i*h; consecutive strips are
    offset by w + i*sign*s, where the sign flips the strip upside down. The
    prototile must have its two strip-boundary sides of equal length, which
    pins Im(2t - i) = h/2 for the free vector. The sign word is a string of
    + and -. With mode="torus" it is one period, giving 2*len(signs) tiles; with
    mode="patch" the word is laid out literally as a finite planar patch of
    2*(2*extent+1) tiles per strip (extent 1 by default). Only patch mode
    takes an extent.
    """
    h, w, s = check_height(h, "h"), check_height(w, "w"), float(s)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not isinstance(signs, str):
        raise ValueError(f"sign word must be a string of + and -, got {signs!r}")
    bad = [ch for ch in signs if ch not in "+-"]
    if bad:
        raise ValueError(f"sign word may only contain + and -, got {bad[0]!r}")
    if not signs:
        raise ValueError("sign word must be nonempty")
    if mode not in ("torus", "patch"):
        raise ValueError(f"mode must be 'torus' or 'patch', got {mode!r}")
    if mode == "torus" and extent is not None:
        raise ValueError("mode 'torus' does not take an extent; mode 'patch' does")
    extent = check_count(1 if extent is None else extent, "extent", 0)
    sigma = _free_vector(sigma)
    i, t = sigma.i, sigma.t
    u = complex(w, s)
    v = complex(0.0, h)
    if abs((2.0 * t - i).imag - h / 2.0) > 1e-9:
        raise ModuliViolation(
            "strip prototile needs equal boundary sides: Im(2t - i) = h/2",
            "strip-boundary",
        )
    t1 = _hexagon(_corners_i(u, v, i, t))
    t2 = _oriented(t1.transformed(rotation(math.pi, i / 2.0)))
    base = (t1, t2.translated(-u))
    # flipping a strip reflects it across the horizontal line through the
    # left boundary anchor, which the equal-sides condition keeps on-grid
    mirror_y = (i - t - u).imag
    flip = Isometry(1.0 + 0j, 2j * mirror_y, True)  # z -> conj(z) + 2i*mirror_y
    flipped = tuple(_oriented(tile.transformed(flip)) for tile in base)

    offsets = [0j]
    for sign in signs:
        offsets.append(offsets[-1] + complex(w, s if sign == "+" else -s))

    provenance = {
        "kind": "strip",
        "h": h,
        "w": w,
        "s": s,
        "sigma": (i, t),
        "signs": signs,
    }
    rows = range(-extent, extent + 1) if mode == "patch" else (0,)
    tiles = tuple(
        tile.translated(c + j * v)
        for c, sign in zip(offsets, signs)
        for j in rows
        for tile in (base if sign == "+" else flipped)
    )
    if mode == "patch":
        return PlanarPatch(tiles, provenance)
    # the word's p plus and q minus strips advance by (p + q)*w + i*(p - q)*s
    alpha = complex(len(signs) * w, (signs.count("+") - signs.count("-")) * s)
    return _warn_if_nongeneric(TorusTiling(alpha, v, tiles, provenance), t1)


def planar_patch(t: TorusTiling, extent: int) -> PlanarPatch:
    """All lattice translates k*alpha + j*beta of the tiles for |k|,|j| <= extent."""
    extent = check_count(extent, "extent", 1)
    shifts = range(-extent, extent + 1)
    return PlanarPatch(
        translates(t, shifts, shifts),
        {"kind": "patch", "extent": extent, "source": dict(t.provenance)},
    )


def translates(t: TorusTiling, ks, js) -> tuple[Polygon, ...]:
    """The tiles of t translated by k*alpha + j*beta, for k in ks and then j
    in js, tile order innermost."""
    return tuple(
        tile.translated(k * t.alpha + j * t.beta) for k in ks for j in js for tile in t.tiles
    )
