"""Prototile metadata: angle/length spec extraction and type classification.

A hexagon with corners labeled i in Z_6 has interior angles [i] and side
lengths |i|, where side i runs from corner i to corner i+1. The classifier
checks the three hexagonal prototile types, the centrally symmetric case, and
the genericity conditions under which each minimal tiling is unique.
"""

from __future__ import annotations

import cmath
import functools
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


# The table. A relation sets two terms equal, its residual their absolute
# difference: [k] is the angle and |k| the length at label k, [i]+[j]+[k]
# adds in the order written, and |k|=|*| is |k| equal to any other side.
_FORCED = {  # the relations each TypeReport condition forces
    "type_i": "[0]+[1]+[2]=2pi |2|=|5|",
    "type_ii": "[0]+[1]+[3]=2pi |1|=|3| |2|=|5|",
    "type_iii": "[1]=2pi/3 [3]=2pi/3 [5]=2pi/3 |0|=|1| |2|=|3| |4|=|5|",
    # opposite sides parallel and equal reduces to equal opposite angles
    # and lengths once the angle sum is pinned at 4pi
    "central": "[0]=[3] [1]=[4] [2]=[5] |0|=|3| |1|=|4| |2|=|5|",
}
_GENERIC = {  # flag: (condition, relations that must also hold, relations that must fail)
    "generic_i": ("type_i", "", "|0|=|*| |1|=|*| |3|=|4|"),
    "generic_ii": ("type_ii", "", "|0|=|*| |4|=|*| |1|=|2| [2]=[3]"),
    "generic_iii": ("type_iii", "", "|0|=|2| |2|=|4| |0|=|4| [0]=2pi/3 [2]=2pi/3 [4]=2pi/3"),
    "generic_central": ("central", "", "|0|=|1| |1|=|2| |0|=|2|"),
    "generic_strip": ("type_i", "|3|=|4|", "|0|=|*| |1|=|*|"),
}
_RESIDUAL = {flag: "residual_" + flag.removeprefix("type_") for flag in _FORCED}


@value_type(*_FORCED, *_GENERIC, *_RESIDUAL.values(), "tol")
class TypeReport:
    """Classification flags, genericity, and worst residual per condition.

    A flag is set iff the corresponding residual is at most the tolerance the
    report was computed with. Residuals mix radians (angle conditions) and
    length units (side conditions); each is the best over all 12 relabelings.
    With [k] the angle and |k| the length at label k, the conditions are
    type_i: [0]+[1]+[2] = 2pi and |2| = |5|;
    type_ii: [0]+[1]+[3] = 2pi, |1| = |3| and |2| = |5|;
    type_iii: [1] = [3] = [5] = 2pi/3, |0| = |1|, |2| = |3| and |4| = |5|;
    central: [k] = [k+3] and |k| = |k+3| for k = 0, 1, 2.
    The genericity flags of classify follow them, then residual_i,
    residual_ii, residual_iii, residual_central and tol.
    """


# the corner and side read as label k in each relabeling: the 6 rotations,
# then the 6 reflected rotations
_RELABELINGS = [(operator.itemgetter(*[(k + r) % 6 for k in range(6)]),) * 2 for r in range(6)] + [
    tuple(operator.itemgetter(*[(r - k - s) % 6 for k in range(6)]) for s in (0, 1)) for r in range(6)
]


def relabelings(angles, lengths):
    """All 12 relabelings: 6 rotations and 6 reflected rotations."""
    return [(corner(angles), side(lengths)) for corner, side in _RELABELINGS]


# the terms [0]..[5], |0|..|5|, 2pi/3 and 2pi in classify's order; sums follow
_SIMPLE = [f"[{k}]" for k in range(6)] + [f"|{k}|" for k in range(6)] + ["2pi/3", "2pi"]


def _rows(relations: str, sums: dict, pairs: dict) -> list[tuple[int, ...]]:
    """The residual indices of the relations at each of the 12 relabelings.
    sums maps the angles (i, j, k), i < j, of each sum ([i] + [j]) + [k] to
    its index and pairs the two terms (u, v), u < v, of each relation to
    its index; a sum or relation not yet there is added."""
    texts = []
    for text in relations.split():  # |k|=|*| is |k|=|m| at each side m other than k
        texts += [text.replace("*", m) for m in "012345" if m != text[1]] if "*" in text else [text]
    rows = []
    for corner, side in relabelings(range(6), range(6, 12)):
        at = dict(zip(_SIMPLE, (*corner, *side, 12, 13)))  # 2pi/3 and 2pi stay
        row = []
        for text in texts:
            left, right = ([at[t] for t in term.split("+")] for term in text.split("="))
            if len(left) == 3:  # [i] and [j] commute bit for bit, [k] does not
                i, j, k = left
                left = [len(_SIMPLE) + sums.setdefault((min(i, j), max(i, j), k), len(sums))]
            row.append(pairs.setdefault(tuple(sorted(left + right)), len(pairs)))
        rows.append(tuple(row))
    return rows


@functools.lru_cache(maxsize=8)
def _table(conditions: tuple[str, ...], flags: tuple[str, ...]):
    """The index tables of the given conditions and genericity flags, over
    only the sums and relations that they read: the sums and pairs of
    :func:`_rows`, the rows of each condition (meets), and each flag's
    condition and, at each relabeling, the relations that must hold and
    the row of those that must fail (tests). Built on first use, so a
    command that classifies nothing does not build classify's."""
    sums, pairs = {}, {}
    meets = {
        flag: [operator.itemgetter(*row) for row in _rows(_FORCED[flag], sums, pairs)] for flag in conditions
    }
    tests = {}
    for name in flags:
        flag, hold, fail = _GENERIC[name]
        fails = [operator.itemgetter(*row) for row in _rows(fail, sums, pairs)]
        tests[name] = flag, list(zip(_rows(hold, sums, pairs), fails))
    return list(sums), list(pairs), meets, tests


def _residuals(s: HexagonSpec, sums, pairs) -> list[float]:
    """The residual of each relation of a table, in the order of its pairs;
    a term past the simple ones is one of its sums."""
    a = s.angles
    terms = (*a, *s.lengths, TWO_THIRDS_PI, TWO_PI, *(a[i] + a[j] + a[k] for i, j, k in sums))
    # never NaN for a spec, so a row's max does not depend on the order of its relations
    return [abs(terms[u] - terms[v]) for u, v in pairs]


def _generic(tests, met: list[float], r: list[float], tol: float) -> bool:
    """A genericity flag from its tests, the worst residual of its
    condition at each relabeling (met) and the residuals r: some
    relabeling meets the condition and passes the tests."""
    return any(
        x <= tol < min(fail(r)) and all(r[k] <= tol for k in hold) for x, (hold, fail) in zip(met, tests)
    )


def _generic_flag(s: HexagonSpec, name: str, tol: float = 1e-9) -> bool:
    """``getattr(classify(s, tol), name)`` for a genericity flag, from only
    the relations that its condition and tests read."""
    flag, _, _ = _GENERIC[name]
    sums, pairs, meets, tests = _table((flag,), (name,))
    r = _residuals(s, sums, pairs)
    return _generic(tests[name][1], [max(row(r)) for row in meets[flag]], r, tol)


def classify(s: HexagonSpec, tol: float = 1e-9) -> TypeReport:
    """Classify a hexagon spec over all relabelings.

    A genericity flag is set iff one relabeling meets its condition and the
    relations that must hold, and fails each that must fail; |k| = |*| is
    |k| equal to any other side:
    generic_i: type i; fails |0| = |*|, |1| = |*| and |3| = |4|;
    generic_ii: type ii; fails |0| = |*|, |4| = |*|, |1| = |2| and [2] = [3];
    generic_iii: type iii; fails |0| = |2|, |2| = |4|, |0| = |4| and [0], [2], [4] = 2pi/3;
    generic_central: central; fails |0| = |1|, |1| = |2| and |0| = |2|;
    generic_strip: type i and |3| = |4|; fails |0| = |*| and |1| = |*|.
    """
    sums, pairs, meets, tests = _table(tuple(_FORCED), tuple(_GENERIC))
    r = _residuals(s, sums, pairs)
    fields, met = {"tol": tol}, {}
    for flag, rows in meets.items():
        met[flag] = [max(row(r)) for row in rows]
        fields[_RESIDUAL[flag]] = least = min(met[flag])
        fields[flag] = least <= tol
    for name, (flag, rows) in tests.items():
        fields[name] = fields[flag] and _generic(rows, met[flag], r, tol)
    return TypeReport(**fields)
