"""Prototile metadata: angle/length spec extraction and type classification.

A hexagon with corners labeled i in Z_6 has interior angles [i] and side
lengths |i|, where side i runs from corner i to corner i+1. The classifier
checks the three hexagonal prototile types, the centrally symmetric case, and
the genericity conditions under which each minimal tiling is unique.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator

from ._value import value_type
from .geom import MERGE_TOL, Polygon, corner_angles, is_simple

TWO_PI = 2.0 * math.pi
TWO_THIRDS_PI = TWO_PI / 3.0


class NotSimpleError(ValueError):
    """Polygon whose sides cross or touch."""


@value_type("angles", "lengths")
class HexagonSpec:
    """Angles and side lengths of a labeled hexagon.

    angles[i] is the interior angle at the corner labeled i; lengths[i] is
    the length of the side from corner i to corner i+1 (mod 6).
    """

    def __init__(self, angles: tuple[float, ...], lengths: tuple[float, ...]) -> None:
        angles = tuple(float(a) for a in angles)
        lengths = tuple(float(x) for x in lengths)
        self.__dict__.update(angles=angles, lengths=lengths)  # _walk reads them
        if len(angles) != 6 or len(lengths) != 6:
            raise ValueError("hexagon spec needs 6 angles and 6 lengths")
        for a in angles:
            if not 0.0 < a < TWO_PI:
                raise ValueError(f"corner angle {a} outside (0, 2pi)")
        for x in lengths:
            if not x > MERGE_TOL:
                raise ValueError(f"side length {x} not positive")
            if x == math.inf:
                raise ValueError("side length inf not finite")
        if abs(sum(angles) - 2.0 * TWO_PI) > 1e-9:
            raise ValueError("corner angles must sum to 4pi")
        scale = max(1.0, max(lengths))
        walk = self._walk()
        gap = abs(walk[0] - walk[6])
        if not gap <= 1e-9 * scale:  # a NaN gap does not close up either
            raise ValueError(f"sides do not close up (gap {gap})")

    def corners(self) -> tuple[complex, ...]:
        """Corner coordinates traced counterclockwise from corner 0 at the
        origin, side 0 along the positive real axis."""
        return tuple(self._walk()[:6])

    def _walk(self) -> list[complex]:
        """The six corners, then the end of side 5, where a closed walk
        returns to the origin."""
        pts, theta = [0j], 0.0
        for k in range(6):
            pts.append(pts[-1] + cmath.rect(self.lengths[k], theta))
            theta += math.pi - self.angles[(k + 1) % 6]
        return pts


def spec_from_polygon(p: Polygon) -> HexagonSpec:
    """Extract the angle/length spec of a simple labeled hexagon."""
    if not isinstance(p, Polygon):
        p = Polygon(tuple(p))
    if len(p) != 6:
        raise ValueError(f"hexagon required, got {len(p)} corners")
    if not is_simple(p):
        raise NotSimpleError("polygon sides cross or touch")
    return _spec(p)


def _spec(p: Polygon) -> HexagonSpec:
    """The spec of a labeled hexagon already known to be simple."""
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


@value_type(
    "type_i", "type_ii", "type_iii", "central", "generic_i", "generic_ii", "generic_iii",
    "generic_central", "generic_strip", "residual_i", "residual_ii", "residual_iii",
    "residual_central", "tol",
)
class TypeReport:
    """Classification flags, genericity, and worst residual per condition.

    A flag is set iff the corresponding residual is at most the tolerance the
    report was computed with. Residuals mix radians (angle conditions) and
    length units (side conditions); each is the best over all 12 relabelings.
    """


# the corner and side read as label k in each relabeling: the 6 rotations,
# then the 6 reflected rotations
_RELABELINGS = [(operator.itemgetter(*[(k + r) % 6 for k in range(6)]),) * 2 for r in range(6)] + [
    tuple(operator.itemgetter(*[(r - k - s) % 6 for k in range(6)]) for s in (0, 1)) for r in range(6)
]


def relabelings(angles, lengths):
    """All 12 relabelings: 6 rotations and 6 reflected rotations."""
    return [(corner(angles), side(lengths)) for corner, side in _RELABELINGS]


def _residuals(a, l) -> tuple[float, float, float, float]:
    """The residuals of the type i, ii and iii and central conditions at one
    labeling (each a max of non-negative terms, none NaN for a spec)."""
    a0, a1, a2, a3, a4, a5 = a
    l0, l1, l2, l3, l4, l5 = l
    l25 = abs(l2 - l5)
    return (
        max(abs(a0 + a1 + a2 - TWO_PI), l25),
        max(abs(a0 + a1 + a3 - TWO_PI), abs(l1 - l3), l25),
        max(
            abs(a1 - TWO_THIRDS_PI),
            abs(a3 - TWO_THIRDS_PI),
            abs(a5 - TWO_THIRDS_PI),
            abs(l0 - l1),
            abs(l2 - l3),
            abs(l4 - l5),
        ),
        # opposite sides parallel and equal reduces to equal opposite angles
        # and lengths once the angle sum is pinned at 4pi
        max(abs(a0 - a3), abs(a1 - a4), abs(a2 - a5), abs(l0 - l3), abs(l1 - l4), l25),
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


# each condition's TypeReport flag, in the order of _residuals, and the
# genericity flags it decides, each tested on the relabelings that meet it
_CONDITIONS = (
    ("type_i", {"generic_i": _generic_i, "generic_strip": _generic_strip}),
    ("type_ii", {"generic_ii": _generic_ii}),
    ("type_iii", {"generic_iii": _generic_iii}),
    ("central", {"generic_central": _generic_central}),
)


def classify(s: HexagonSpec, tol: float = 1e-9) -> TypeReport:
    """Classify a hexagon spec over all relabelings."""
    labelings = relabelings(s.angles, s.lengths)
    fields = {"tol": tol}
    columns = zip(*itertools.starmap(_residuals, labelings))
    for (flag, generics), res in zip(_CONDITIONS, columns):
        fields[flag] = holds = min(res) <= tol
        fields["residual_" + flag.removeprefix("type_")] = min(res)
        for name, generic in generics.items():
            fields[name] = holds and any(
                generic(a, l, tol) for (a, l), r in zip(labelings, res) if r <= tol
            )
    return TypeReport(**fields)
