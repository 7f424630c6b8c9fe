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
from dataclasses import dataclass, field

from .geom import (
    MERGE_TOL,
    Isometry,
    Polygon,
    first_violation,
    rotation,
    signed_area,
)
from .hexagon import _spec, classify, spec_from_polygon
from .lattice import check_lattice, check_modulus, covolume

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


@dataclass(frozen=True)
class FreeVector:
    """Free vector with initial point ``i`` and terminal point ``t``."""

    i: complex
    t: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "i", complex(self.i))
        object.__setattr__(self, "t", complex(self.t))
        try:
            short = abs(self.t - self.i) <= MERGE_TOL
        except OverflowError:  # longer than any float: the hexagon test refuses it
            short = False
        if short:
            raise ModuliViolation(
                f"free vector from {self.i} to {self.t} has zero length",
                "degenerate",
            )


def _free_vector(sigma) -> FreeVector:
    if isinstance(sigma, FreeVector):
        return sigma
    i, t = sigma
    return FreeVector(complex(i), complex(t))


@dataclass(frozen=True)
class TorusTiling:
    """Tiles filling one fundamental domain of the lattice Z*alpha + Z*beta."""

    alpha: complex
    beta: complex
    tiles: tuple[Polygon, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "tiles", tuple(self.tiles))
        if not self.tiles:
            raise ValueError("tiling needs at least one tile")
        check_lattice(self.alpha, self.beta)
        covol = self.covolume
        total = sum(abs(signed_area(t)) for t in self.tiles)
        if abs(total - covol) > 1e-6 * covol:
            raise ValueError(
                f"tile area {total} does not fill the fundamental domain {covol}"
            )

    @property
    def covolume(self) -> float:
        return covolume(self.alpha, self.beta)

    @property
    def modulus(self) -> complex:
        return self.beta / self.alpha


@dataclass(frozen=True)
class PlanarPatch:
    """Finite set of planar tiles expanded from a torus tiling."""

    tiles: tuple[Polygon, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiles", tuple(self.tiles))


def _glide_ii(y: float) -> Isometry:
    return Isometry(-1.0 + 0j, 0.5 + 0.5j * y, True)  # glide along x = 1/4


def hexagon_corners(kind: str, fixed, free) -> tuple:
    """The six prototile corners of a family, affine in its free parameter.

    ``fixed`` is (tau, i) for "i", (y, i) for "ii", () for "iii", (alpha,
    beta) for "cs" and (u, v, i) for "strip"; ``free`` is t (P for "iii", u
    for "cs"), a complex scalar or array, and the corners follow suit.
    """
    if kind in ("i", "strip"):
        u, v, i = (1.0, *fixed) if kind == "i" else fixed
        return (v, i - u, 0j, i - free, free, i - free + v)
    if kind == "ii":
        y, i = fixed
        gamma_inv = _glide_ii(y).inverse()
        return (free, -free, gamma_inv(i), gamma_inv(free), 1.0 - i, i)
    if kind == "iii":
        p_r = R_POINT + ROT120 * (free - R_POINT)
        p_b = B_POINT + ROT120.conjugate() * (free - B_POINT)
        return (free, R_POINT, p_r, G_PRIME, p_b, B_POINT)
    if kind == "cs":
        alpha, beta = fixed
        return (free, beta - free, free - alpha, -free, free - beta, alpha - free)
    raise ValueError(f"unknown family {kind!r}")


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


def _warn_if_nongeneric(tiling: TorusTiling, prototile: Polygon) -> TorusTiling:
    """The tiling, after a GenericityWarning if the prototile violates the
    genericity conditions of the tiling's kind. Unless _hexagon reversed the
    prototile (labels 5..0), its corners are those _hexagon tested, in order
    and up to the sign of a zero, so only a reversed one is tested again."""
    kind = tiling.provenance["kind"]
    flag = "generic_" + kind.removeprefix("type_")  # type_i: generic_i, strip: generic_strip
    spec = (spec_from_polygon if prototile.labels[0] else _spec)(prototile)
    if not getattr(classify(spec), flag):
        warnings.warn(
            f"prototile violates the {kind} genericity conditions",
            GenericityWarning,
            stacklevel=3,
        )
    return tiling


def type_i_minimal(tau: complex, sigma) -> TorusTiling:
    """Two-tile minimal tiling of the torus C/(Z + Z*tau).

    The prototile is determined by the free vector sigma; the companion tile
    is its half-turn image about the midpoint of sigma's initial point.
    """
    tau = check_modulus(tau)
    sigma = _free_vector(sigma)
    i, t = sigma.i, sigma.t
    t1 = _hexagon(hexagon_corners("i", (tau, i), t))
    t2 = _oriented(t1.transformed(rotation(math.pi, i / 2.0)))
    provenance = {"kind": "type_i", "tau": tau, "sigma": (i, t)}
    return _warn_if_nongeneric(TorusTiling(1.0 + 0j, tau, (t1, t2), provenance), t1)


def type_ii_minimal(y: float, sigma) -> TorusTiling:
    """Four-tile minimal tiling of the rectangular torus C/(Z + Z*iy).

    The tile set is the orbit of one hexagon under the half turn about the
    origin and the glide reflection along the vertical line x = 1/4 with
    shift y/2.
    """
    y = float(y)
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"y must be positive, got {y}")
    sigma = _free_vector(sigma)
    i, t = sigma.i, sigma.t
    rho = rotation(math.pi)  # z -> -z
    gamma = _glide_ii(y)
    t2 = _hexagon(hexagon_corners("ii", (y, i), t))
    tiles = tuple(
        _oriented(t2.transformed(g))
        for g in (Isometry(), rho, gamma, rho.compose(gamma))
    )
    provenance = {"kind": "type_ii", "y": y, "sigma": (i, t)}
    return _warn_if_nongeneric(TorusTiling(1.0 + 0j, 1j * y, tiles, provenance), tiles[0])


def type_iii_minimal(P: complex) -> TorusTiling:
    """Three-tile minimal tiling of the hexagonal torus C/(Z + Z*omega3).

    The hexagon has corners [P, R, P_R, G', P_B, B] where P_R and P_B are the
    rotations of P by +-120 degrees about R and B; the other two tiles are
    its rotations by +-120 degrees about R.
    """
    P = complex(P)
    hexagon = _hexagon(hexagon_corners("iii", (), P))
    tiles = (
        hexagon,
        _oriented(hexagon.transformed(rotation(2.0 * math.pi / 3.0, R_POINT))),
        _oriented(hexagon.transformed(rotation(-2.0 * math.pi / 3.0, R_POINT))),
    )
    provenance = {"kind": "type_iii", "P": P}
    return _warn_if_nongeneric(TorusTiling(1.0 + 0j, OMEGA3, tiles, provenance), hexagon)


def central_minimal(alpha: complex, beta: complex, u: complex) -> TorusTiling:
    """Single-tile tiling by a centrally symmetric hexagon filling C/(Z*alpha + Z*beta)."""
    alpha, beta = check_lattice(alpha, beta)
    u = complex(u)
    hexagon = _hexagon(hexagon_corners("cs", (alpha, beta), u))
    provenance = {"kind": "central", "alpha": alpha, "beta": beta, "u": u}
    return _warn_if_nongeneric(TorusTiling(alpha, beta, (hexagon,), provenance), hexagon)


def _parse_signs(signs) -> tuple[int, ...]:
    if isinstance(signs, str):
        word = []
        for ch in signs:
            if ch == "+":
                word.append(1)
            elif ch == "-":
                word.append(-1)
            else:
                raise ValueError(f"sign word may only contain + and -, got {ch!r}")
    else:
        word = [int(v) for v in signs]
        if any(v not in (1, -1) for v in word):
            raise ValueError("sign sequence entries must be +1 or -1")
    if not word:
        raise ValueError("sign word must be nonempty")
    return tuple(word)


def strip_tiling(
    h: float,
    w: float,
    s: float,
    sigma,
    signs,
    mode: str = "torus",
    extent: int = 1,
) -> TorusTiling | PlanarPatch:
    """Tiling built from vertical two-tile strips with chosen directions.

    Each strip repeats with vertical period i*h; consecutive strips are
    offset by w + i*sign*s, where the sign flips the strip upside down. The
    prototile must have its two strip-boundary sides of equal length, which
    pins Im(2t - i) = h/2 for the free vector. With mode="torus" the sign
    word is one period of the tiling, giving 2*len(signs) tiles; with
    mode="patch" the word is laid out literally as a finite planar patch of
    2*(2*extent+1) tiles per strip.
    """
    h, w, s = float(h), float(w), float(s)
    if not (h > 0 and w > 0):
        raise ValueError("strip periods h and w must be positive")
    word = _parse_signs(signs)
    if mode not in ("torus", "patch"):
        raise ValueError(f"mode must be 'torus' or 'patch', got {mode!r}")
    sigma = _free_vector(sigma)
    i, t = sigma.i, sigma.t
    u = complex(w, s)
    v = complex(0.0, h)
    if abs((2.0 * t - i).imag - h / 2.0) > 1e-9:
        raise ModuliViolation(
            "strip prototile needs equal boundary sides: Im(2t - i) = h/2",
            "strip-boundary",
        )
    t1 = _hexagon(hexagon_corners("strip", (u, v, i), t))
    t2 = _oriented(t1.transformed(rotation(math.pi, i / 2.0)))
    base = (t1, t2.translated(-u))
    # flipping a strip reflects it across the horizontal line through the
    # left boundary anchor, which the equal-sides condition keeps on-grid
    mirror_y = (i - t - u).imag
    flip = Isometry(1.0 + 0j, 2j * mirror_y, True)  # z -> conj(z) + 2i*mirror_y
    flipped = tuple(_oriented(tile.transformed(flip)) for tile in base)

    offsets = [0j]
    for sign in word:
        offsets.append(offsets[-1] + complex(w, sign * s))

    provenance = {
        "kind": "strip",
        "h": h,
        "w": w,
        "s": s,
        "sigma": (i, t),
        "signs": "".join("+" if sign > 0 else "-" for sign in word),
    }
    rows = range(-extent, extent + 1) if mode == "patch" else (0,)
    tiles = tuple(
        tile.translated(c + j * v)
        for c, sign in zip(offsets, word)
        for j in rows
        for tile in (base if sign > 0 else flipped)
    )
    if mode == "patch":
        return PlanarPatch(tiles, provenance)
    # the word's p plus and q minus strips advance by (p + q)*w + i*(p - q)*s
    alpha = complex(len(word) * w, sum(word) * s)
    return _warn_if_nongeneric(TorusTiling(alpha, v, tiles, provenance), t1)


def planar_patch(t: TorusTiling, extent: int) -> PlanarPatch:
    """All lattice translates k*alpha + j*beta of the tiles for |k|,|j| <= extent."""
    extent = int(extent)
    if extent < 1:
        raise ValueError("extent must be at least 1")
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
