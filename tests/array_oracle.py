"""The all-cells simplicity mask, the dict-walk conformality, the
per-group OBJ writer and the map-by-map rectangular search, kept as the
reference.

These are ``hextorus.geom.simple_mask``, ``hextorus.embed.conformality``,
``hextorus.cli.write_obj`` and ``hextorus.lattice.rectangular_solve`` as they
were before the mask tested only the cells still live, the conformality
stencils were built with numpy sorts, the OBJ faces were written in one pass
and the rectangular search read a cached table of map images. They are
copied unchanged, apart from this header and its imports, so that
``test_array_oracle.py`` can compare the new code against them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from hextorus.geom import MERGE_TOL
from hextorus.lattice import TOL, HnfTriple, _search_maps, check_modulus


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


def first_violation(corners, tol: float = MERGE_TOL):
    """First simplicity violation of a corner loop, or None.

    Returns ("degenerate"|"touch"|"cross", i, j) where i, j are corner or
    side indices. Unlike :func:`is_simple` this never raises, so callers can
    treat degeneracy as plain rejection.
    """
    for kind, i, j, gap in _gaps(tuple(complex(z) for z in corners)):
        if not gap > tol:  # a NaN distance fails, as in simple_mask
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
