"""The all-cells simplicity mask, the test-by-test scalar simplicity walk,
the dict-walk conformality, the per-group OBJ writer, the map-by-map
rectangular search, the all-points tile assignment of a drape and the
generator-built classifier, kept as the reference.

These are ``hextorus.geom.simple_mask``, ``hextorus.geom.first_violation``,
``hextorus.embed.conformality``, ``hextorus.cli.write_obj``,
``hextorus.lattice.rectangular_solve``, ``hextorus.embed._assign_tiles`` and
``hextorus.hexagon.relabelings`` and ``classify`` as they were before the mask
tested only the cells still live, the scalar walk worked out each distinct
check once, the conformality stencils were built with numpy sorts, the OBJ
faces were written in one pass, the rectangular search read a cached table of
map images, the tile assignment tested only the points still unlabelled and
the classifier read index tables. They are copied unchanged, apart from this
header and its imports, so that ``test_array_oracle.py`` and
``test_scalar_oracle.py`` can compare the new code against them bit for bit.
The scalar walk's ``seg_seg_dist`` and ``seg_point_dist`` are the mask's,
which do the same arithmetic on scalars.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from hextorus.embed import _point_in_polygon
from hextorus.geom import MERGE_TOL
from hextorus.hexagon import TWO_PI, TWO_THIRDS_PI, HexagonSpec, TypeReport
from hextorus.lattice import TOL, HnfTriple, LatticeFrame, _search_maps, check_modulus


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _dot(a: complex, b: complex) -> float:
    return a.real * b.real + a.imag * b.imag


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
    """Distance between the segments ab and cd, 0 where they cross."""
    d1 = _cross(b - a, c - a)
    d2 = _cross(b - a, d - a)
    d3 = _cross(d - c, a - c)
    d4 = _cross(d - c, b - c)
    crossing = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    if crossing is True:
        return 0.0
    least = min if crossing is False else np.minimum
    nearest = least(
        least(seg_point_dist(a, b, c), seg_point_dist(a, b, d)),
        least(seg_point_dist(c, d, a), seg_point_dist(c, d, b)),
    )
    return nearest if crossing is False else np.where(crossing, 0.0, nearest)


def _gaps(c):
    """(kind, i, j, distance) per test, in reporting order, lazily: the
    corner loop is simple iff every distance exceeds the tolerance."""
    n = len(c)
    ends = [c[(k + 1) % n] for k in range(n)]  # side k runs from c[k] to ends[k]
    for k in range(n):
        yield "degenerate", k, (k + 1) % n, abs(ends[k] - c[k])
    for i in range(n):
        for j in range(i + 1, n):
            if j - i == 1 or (i == 0 and j == n - 1):
                s, t = (n - 1, 0) if (i == 0 and j == n - 1) else (i, j)
                # adjacent sides share corner t; only the far endpoints may
                # come near the other side
                yield "touch", s, t, seg_point_dist(c[t], ends[t], c[s])
                yield "touch", s, t, seg_point_dist(c[s], ends[s], ends[t])
            else:
                yield "cross", i, j, seg_seg_dist(c[i], ends[i], c[j], ends[j])


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


def simple_mask(corners, tol: float = MERGE_TOL) -> np.ndarray:
    """Array form of :func:`first_violation`: True where the loop is simple.

    The corners are complex arrays or scalars that broadcast to one shape.
    """
    ok = np.ones(np.broadcast_shapes(*map(np.shape, corners)), dtype=bool)
    for _, _, _, gap in _gaps(corners):
        ok &= gap > tol
        del gap  # free it before the next distance array is built
    return ok


def conformality(mesh: Mesh3) -> float:
    """Worst anisotropy of the uv -> R3 map over interior vertices.

    Each vertex whose quad star extends to a full two-ring gets two
    five-point central-difference axes, one per opposite-neighbor pair.
    The same stencil differences both the positions and the uv chart and
    the chain rule combines them, so the fourth-order truncation error is
    far below the anisotropy of any genuinely non-conformal map. The
    return value is the max over vertices of sqrt(lambda_max/lambda_min)
    - 1 for the pullback metric J^T J (0 for an exactly conformal map).
    """
    edge: dict[int, dict[int, set[int]]] = {}
    for qi, quad in enumerate(mesh.quads):
        q = [int(i) for i in quad]
        for k in range(4):
            i, j = q[k], q[(k + 1) % 4]
            edge.setdefault(i, {}).setdefault(j, set()).add(qi)
            edge.setdefault(j, {}).setdefault(i, set()).add(qi)
    # Opposite neighbors share no quad with each other through the center;
    # that pairs each full 4-star into two grid axes, and repeating the
    # pairing at a neighbor walks one more step along the same axis.
    pairs: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for v, nbrs in edge.items():
        if len(nbrs) != 4:
            continue
        names = list(nbrs)
        first = names[0]
        opposite = [n for n in names[1:] if not (nbrs[first] & nbrs[n])]
        if len(opposite) != 1:
            continue
        rest = [n for n in names[1:] if n != opposite[0]]
        pairs[v] = ((first, opposite[0]), (rest[0], rest[1]))

    def _extend(v: int, n: int) -> int:
        got = pairs.get(n)
        if got is None:
            return -1
        for a, b in got:
            if a == v:
                return b
            if b == v:
                return a
        return -1

    stars: list[list[int]] = []
    for v, ((p1, m1), (p2, m2)) in pairs.items():
        row = [
            v,
            p1,
            m1,
            _extend(v, p1),
            _extend(v, m1),
            p2,
            m2,
            _extend(v, p2),
            _extend(v, m2),
        ]
        if -1 not in row:
            stars.append(row)
    if not stars:
        raise ValueError("mesh has no interior vertices")
    idx = np.array(stars)

    def _deriv(values: np.ndarray, base: int) -> np.ndarray:
        plus1 = values[idx[:, base]]
        minus1 = values[idx[:, base + 1]]
        plus2 = values[idx[:, base + 2]]
        minus2 = values[idx[:, base + 3]]
        return (8.0 * (plus1 - minus1) - (plus2 - minus2)) / 12.0

    m_x = np.stack(
        [_deriv(mesh.vertices, 1), _deriv(mesh.vertices, 5)], axis=1
    )  # (n, 2, 3) rows d xyz / d index
    m_uv = np.stack(
        [_deriv(mesh.uv, 1), _deriv(mesh.uv, 5)], axis=1
    )  # (n, 2, 2) rows d uv / d index
    det_uv = m_uv[:, 0, 0] * m_uv[:, 1, 1] - m_uv[:, 0, 1] * m_uv[:, 1, 0]
    if np.min(np.abs(det_uv)) <= 1e-300:
        return math.inf
    inv_uv = (
        np.stack(
            [
                np.stack([m_uv[:, 1, 1], -m_uv[:, 0, 1]], axis=-1),
                np.stack([-m_uv[:, 1, 0], m_uv[:, 0, 0]], axis=-1),
            ],
            axis=1,
        )
        / det_uv[:, None, None]
    )
    jt = np.einsum("nab,nbc->nac", inv_uv, m_x)  # (n, 2, 3) rows of J^T
    g = np.einsum("nab,ncb->nac", jt, jt)  # pullback metric (n, 2, 2)
    tr = g[:, 0, 0] + g[:, 1, 1]
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    disc = np.sqrt(np.maximum(tr * tr / 4.0 - det, 0.0))
    lam_max = tr / 2.0 + disc
    lam_min = tr / 2.0 - disc
    if np.min(lam_min) <= 0.0:
        return math.inf
    return float(np.max(np.sqrt(lam_max / lam_min) - 1.0))


def write_obj(mesh) -> str:
    """ASCII OBJ: v/vt/f records grouped as tile_<i>, l records for edges."""
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for uv in mesh.uv:
        lines.append(f"vt {uv[0]:.9g} {uv[1]:.9g}")
    for gid in sorted(set(int(g) for g in mesh.groups)):
        lines.append(f"g tile_{gid}")
        for quad, group in zip(mesh.quads, mesh.groups):
            if int(group) != gid:
                continue
            lines.append("f " + " ".join(f"{i + 1}/{i + 1}" for i in quad))
    base = len(mesh.vertices)
    for i, polyline in enumerate(mesh.polylines):
        lines.append(f"g tile_{i}_edges")
        for p in polyline:
            lines.append(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")
        lines.append("l " + " ".join(str(base + k + 1) for k in range(len(polyline))))
        base += len(polyline)
    return "\n".join(lines) + "\n"


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


def _assign_tiles(tiling, centers: np.ndarray) -> np.ndarray:
    """Tile index containing each flat point of the tiling's plane."""
    alpha, beta = tiling.alpha, tiling.beta
    reduced = LatticeFrame(alpha, beta).reduce(centers)
    labels = np.full(centers.shape, -1, dtype=int)
    for index, tile in enumerate(tiling.tiles):
        corners = np.array(tile.corners, dtype=complex)
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                todo = labels < 0
                if not todo.any():
                    return labels
                hit = _point_in_polygon(corners + da * alpha + db * beta, reduced)
                labels[todo & hit] = index
    # Boundary-of-tile centers can escape the even-odd test; snap them to
    # the nearest tile centroid so every quad gets a group.
    if (labels < 0).any():
        centroids = np.array(
            [np.mean(np.array(t.corners)) for t in tiling.tiles], dtype=complex
        )
        offsets = np.array(
            [da * alpha + db * beta for da in (-1, 0, 1) for db in (-1, 0, 1)]
        )
        miss = np.nonzero(labels < 0)
        pts = reduced[miss]
        d = np.abs(
            pts[:, None, None] - (centroids[None, :, None] + offsets[None, None, :])
        )
        labels[miss] = np.argmin(d.min(axis=2), axis=1)
    return labels


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


# each condition's TypeReport flag, its residual, and the genericity flags
# it decides, each tested on the relabelings that meet the condition
_CONDITIONS = (
    ("type_i", _residual_i, {"generic_i": _generic_i, "generic_strip": _generic_strip}),
    ("type_ii", _residual_ii, {"generic_ii": _generic_ii}),
    ("type_iii", _residual_iii, {"generic_iii": _generic_iii}),
    ("central", _residual_central, {"generic_central": _generic_central}),
)


def classify(s: HexagonSpec, tol: float = 1e-9) -> TypeReport:
    """Classify a hexagon spec over all relabelings."""
    labelings = relabelings(s.angles, s.lengths)
    fields = {"tol": tol}
    for flag, residual, generics in _CONDITIONS:
        res = [residual(a, l) for a, l in labelings]
        fields[flag] = holds = min(res) <= tol
        fields["residual_" + flag.removeprefix("type_")] = min(res)
        for name, generic in generics.items():
            fields[name] = holds and any(
                generic(a, l, tol) for (a, l), r in zip(labelings, res) if r <= tol
            )
    return TypeReport(**fields)
