"""Prototile metadata: angle/length spec extraction and type classification.

A hexagon with corners labeled i in Z_6 has interior angles [i] and side
lengths |i|, where side i runs from corner i to corner i+1. The classifier
checks the three hexagonal prototile types, the centrally symmetric case, and
the genericity conditions under which each minimal tiling is unique.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .geom import MERGE_TOL, Polygon, corner_angles, is_simple

TWO_PI = 2.0 * math.pi
TWO_THIRDS_PI = TWO_PI / 3.0


class NotSimpleError(ValueError):
    """Polygon whose sides cross or touch."""


@dataclass(frozen=True)
class HexagonSpec:
    """Angles and side lengths of a labeled hexagon.

    angles[i] is the interior angle at the corner labeled i; lengths[i] is
    the length of the side from corner i to corner i+1 (mod 6).
    """

    angles: tuple[float, ...]
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        angles = tuple(float(a) for a in self.angles)
        lengths = tuple(float(x) for x in self.lengths)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "lengths", lengths)
        if len(angles) != 6 or len(lengths) != 6:
            raise ValueError("hexagon spec needs 6 angles and 6 lengths")
        for a in angles:
            if not 0.0 < a < TWO_PI:
                raise ValueError(f"corner angle {a} outside (0, 2pi)")
        for x in lengths:
            if not x > MERGE_TOL:
                raise ValueError(f"side length {x} not positive")
        if abs(sum(angles) - 2.0 * TWO_PI) > 1e-9:
            raise ValueError("corner angles must sum to 4pi")
        scale = max(1.0, max(lengths))
        gap = abs(self.corners()[0] - self._walk_end())
        if gap > 1e-9 * scale:
            raise ValueError(f"sides do not close up (gap {gap})")

    def corners(self, start: complex = 0j, heading: float = 0.0) -> tuple[complex, ...]:
        """Corner coordinates traced counterclockwise from ``start``."""
        pts = [complex(start)]
        theta = heading
        for k in range(5):
            pts.append(pts[-1] + cmath.rect(self.lengths[k], theta))
            theta += math.pi - self.angles[(k + 1) % 6]
        return tuple(pts)

    def _walk_end(self) -> complex:
        pts = self.corners()
        theta = sum(math.pi - self.angles[(k + 1) % 6] for k in range(5))
        return pts[-1] + cmath.rect(self.lengths[5], theta)


def spec_from_polygon(p: Polygon) -> HexagonSpec:
    """Extract the angle/length spec of a simple labeled hexagon."""
    if not isinstance(p, Polygon):
        p = Polygon(tuple(p))
    if len(p) != 6:
        raise ValueError(f"hexagon required, got {len(p)} corners")
    if not is_simple(p):
        raise NotSimpleError("polygon sides cross or touch")
    pos = {label: k for k, label in enumerate(p.labels)}
    if sorted(pos) != [0, 1, 2, 3, 4, 5]:
        raise ValueError("corner labels must be a permutation of 0..5")
    corner = corner_angles(p)
    angles, lengths = [], []
    for i in range(6):
        j, j_next = pos[i], pos[(i + 1) % 6]
        if (j_next - j) % 6 not in (1, 5):
            raise ValueError("labels must run cyclically around the hexagon")
        angles.append(corner[j])
        lengths.append(abs(p.corners[j_next] - p.corners[j]))
    return HexagonSpec(tuple(angles), tuple(lengths))


@dataclass(frozen=True)
class TypeReport:
    """Classification flags, genericity, and worst residual per condition.

    A flag is set iff the corresponding residual is at most the tolerance the
    report was computed with. Residuals mix radians (angle conditions) and
    length units (side conditions); each is the best over all 12 relabelings.
    """

    type_i: bool
    type_ii: bool
    type_iii: bool
    central: bool
    generic_i: bool
    generic_ii: bool
    generic_iii: bool
    generic_central: bool
    generic_strip: bool
    residual_i: float
    residual_ii: float
    residual_iii: float
    residual_central: float
    tol: float


def relabelings(angles, lengths):
    """All 12 relabelings: 6 rotations and 6 reflected rotations."""
    out = []
    for r in range(6):
        out.append(
            (
                tuple(angles[(i + r) % 6] for i in range(6)),
                tuple(lengths[(i + r) % 6] for i in range(6)),
            )
        )
    for r in range(6):
        out.append(
            (
                tuple(angles[(r - j) % 6] for j in range(6)),
                tuple(lengths[(r - j - 1) % 6] for j in range(6)),
            )
        )
    return out


def _residual_i(a, l) -> float:
    return max(abs(a[0] + a[1] + a[2] - TWO_PI), abs(l[2] - l[5]))


def _residual_ii(a, l) -> float:
    return max(
        abs(a[0] + a[1] + a[3] - TWO_PI),
        abs(l[1] - l[3]),
        abs(l[2] - l[5]),
    )


def _residual_iii(a, l) -> float:
    return max(
        abs(a[1] - TWO_THIRDS_PI),
        abs(a[3] - TWO_THIRDS_PI),
        abs(a[5] - TWO_THIRDS_PI),
        abs(l[0] - l[1]),
        abs(l[2] - l[3]),
        abs(l[4] - l[5]),
    )


def _residual_central(a, l) -> float:
    # opposite sides parallel and equal reduces to equal opposite angles and
    # lengths once the angle sum is pinned at 4pi
    return max(
        max(abs(a[j] - a[j + 3]) for j in range(3)),
        max(abs(l[j] - l[j + 3]) for j in range(3)),
    )


def _distinct_from_rest(l, k: int, tol: float) -> bool:
    return all(abs(l[k] - l[j]) > tol for j in range(6) if j != k)


def _generic_i(a, l, tol: float) -> bool:
    return (
        _distinct_from_rest(l, 0, tol)
        and _distinct_from_rest(l, 1, tol)
        and abs(l[3] - l[4]) > tol
    )


def _generic_strip(a, l, tol: float) -> bool:
    return (
        _distinct_from_rest(l, 0, tol)
        and _distinct_from_rest(l, 1, tol)
        and abs(l[3] - l[4]) <= tol
    )


def _generic_ii(a, l, tol: float) -> bool:
    return (
        _distinct_from_rest(l, 0, tol)
        and _distinct_from_rest(l, 4, tol)
        and abs(l[1] - l[2]) > tol
        and abs(a[2] - a[3]) > tol
    )


def _generic_iii(a, l, tol: float) -> bool:
    return (
        abs(l[0] - l[2]) > tol
        and abs(l[2] - l[4]) > tol
        and abs(l[0] - l[4]) > tol
        and all(abs(a[j] - TWO_THIRDS_PI) > tol for j in (0, 2, 4))
    )


def _generic_central(a, l, tol: float) -> bool:
    return (
        abs(l[0] - l[1]) > tol
        and abs(l[1] - l[2]) > tol
        and abs(l[0] - l[2]) > tol
    )


def classify(s: HexagonSpec, tol: float = 1e-9) -> TypeReport:
    """Classify a hexagon spec over all relabelings."""
    res_i = res_ii = res_iii = res_c = math.inf
    gen_i = gen_ii = gen_iii = gen_c = gen_strip = False
    for a, l in relabelings(s.angles, s.lengths):
        r = _residual_i(a, l)
        res_i = min(res_i, r)
        if r <= tol:
            gen_i = gen_i or _generic_i(a, l, tol)
            gen_strip = gen_strip or _generic_strip(a, l, tol)
        r = _residual_ii(a, l)
        res_ii = min(res_ii, r)
        if r <= tol:
            gen_ii = gen_ii or _generic_ii(a, l, tol)
        r = _residual_iii(a, l)
        res_iii = min(res_iii, r)
        if r <= tol:
            gen_iii = gen_iii or _generic_iii(a, l, tol)
        r = _residual_central(a, l)
        res_c = min(res_c, r)
        if r <= tol:
            gen_c = gen_c or _generic_central(a, l, tol)
    return TypeReport(
        type_i=res_i <= tol,
        type_ii=res_ii <= tol,
        type_iii=res_iii <= tol,
        central=res_c <= tol,
        generic_i=gen_i,
        generic_ii=gen_ii,
        generic_iii=gen_iii,
        generic_central=gen_c,
        generic_strip=gen_strip,
        residual_i=res_i,
        residual_ii=res_ii,
        residual_iii=res_iii,
        residual_central=res_c,
        tol=tol,
    )
