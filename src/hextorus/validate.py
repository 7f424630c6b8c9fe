"""Independent validator for monohedral side-to-side hexagonal torus tilings.

Checks that the tiles of a TorusTiling really tile the torus: every side is
matched by exactly one reversed side modulo the lattice, every vertex is a
full vertex of degree 3 with angles summing to 2pi, all tiles are congruent,
and the areas fill one fundamental domain. The checks work directly on corner
coordinates and share no code with the constructors' corner formulas.

Two points meet modulo the lattice when the difference of their lattice
coordinates, less its rounding, is at most tol long. The pairs worth testing
come from a spatial hash modulo the lattice (``lattice.NearPairs``), which
returns every pair of points within a given radius of each other:
- corner pairs within 3*tol, for clustering, for the ambiguity band
  (tol, 3*tol], and for side matching, since side k can match side j only
  if the start of k meets the end of j;
- cluster and side-midpoint pairs within half the longest side plus tol,
  for half vertices.
Every pair the formulas could accept is among these candidates, and each
candidate is accepted or rejected by the same formulas an all-pairs
comparison applies. So verdicts, censuses and failure lists are those of
the all-pairs check, while time and memory grow with the corner count
instead of its square.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .geom import congruent, corner_angles, is_simple, seg_point_dist
from .lattice import LatticeFrame, NearPairs

ANGLE_TOL = 1e-9


class ToleranceAmbiguityError(ValueError):
    """Corner distances fall in the undecidable band (tol, 3*tol)."""


@dataclass(frozen=True)
class TilingCensus:
    """Vertex/edge/tile counts of a candidate tiling.

    v and h count full and half vertices (a half vertex lies strictly inside
    some side). v_k histograms full vertices by corner count (the degree for
    a genuine tiling); h_l histograms half vertices by corner count plus the
    number of sides passing through.
    """

    v: int
    h: int
    e: int
    f: int
    v_k: dict[int, int]
    h_l: dict[int, int]

    @property
    def identities_hold(self) -> bool:
        return (
            (self.v + self.h) - self.e + self.f == 0
            and 6 * self.f + self.h == 2 * self.e
            and 2 * self.v + self.h == 4 * self.f
        )


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    census: TilingCensus
    failures: tuple[tuple[str, str], ...]


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least member index of the connected component of each of n nodes
    under the edges (a[k], b[k])."""
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        np.minimum.at(low, b, label[a])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


class _Analysis:
    """Corner clustering and side matching of one tiling, modulo the lattice."""

    def __init__(self, tiling, tol: float):
        self.tol = tol
        tiles = tiling.tiles
        self.f = len(tiles)
        self.frame = LatticeFrame(tiling.alpha, tiling.beta)

        corners = []
        nxt = []  # corner index of the next corner around the same tile
        self.owner = []  # (tile index, corner position)
        for ti, tile in enumerate(tiles):
            n = len(tile.corners)
            for ci, z in enumerate(tile.corners):
                nxt.append(len(corners) - ci + (ci + 1) % n)
                corners.append(z)
                self.owner.append((ti, ci))
        self.corners = np.array(corners, dtype=complex)
        self.angles = np.array([a for tile in tiles for a in corner_angles(tile)])
        # side k runs from corner k to corner nxt[k], so side prev[k] ends at
        # corner k, and side k belongs to owner[k]
        nxt = np.array(nxt, dtype=np.int64)
        self.side_p = self.corners
        self.side_q = self.corners[nxt]
        self.prev = np.empty_like(nxt)
        self.prev[nxt] = np.arange(len(nxt))

        self._match_sides(*self._cluster())
        self._find_half_vertices()

    def _cluster(self) -> tuple[np.ndarray, np.ndarray]:
        """Cluster the corners; return the corner pairs within 3*tol."""
        tol = self.tol
        frac = self.frame.frac(self.corners)
        a, b = NearPairs(self.frame, self.corners, 3.0 * tol).pairs(self.corners)
        dist = self.frame.residual(frac[a] - frac[b])
        close = dist <= tol
        roots = _components(len(self.corners), a[close], b[close])
        ambiguous = np.flatnonzero(
            (dist > tol) & (dist <= 3.0 * tol) & (roots[a] != roots[b])
        )
        if len(ambiguous):
            k = ambiguous[0]
            raise ToleranceAmbiguityError(
                f"corners {int(a[k])} and {int(b[k])} are {dist[k]:.3e} apart, "
                f"inside the ambiguous band ({tol:.1e}, {3 * tol:.1e}]"
            )
        # a root is the least corner index of its cluster, so clusters are
        # numbered in order of their first corner
        is_root = roots == np.arange(len(roots))
        first = np.flatnonzero(is_root)
        self.cluster_of = (np.cumsum(is_root) - 1)[roots]
        self.n_clusters = len(first)
        order = np.argsort(self.cluster_of, kind="stable")
        sizes = np.bincount(self.cluster_of, minlength=self.n_clusters)
        self.members = np.split(order, np.cumsum(sizes))[:-1]
        self.reps = self.corners[first]
        return a, b

    def _match_sides(self, a: np.ndarray, b: np.ndarray) -> None:
        # sides k and j can match only if the start of k lies within tol of
        # the end of j, so the corner pairs (k, end of j) are the candidates
        tol = self.tol
        k, j = a, self.prev[b]
        pf = self.frame.frac(self.side_p)
        qf = self.frame.frac(self.side_q)
        d1 = pf[k] - qf[j]
        offsets = np.round(d1)
        r1 = self.frame.norm(d1 - offsets)
        d2 = qf[k] - pf[j]
        r2 = self.frame.norm(d2 - offsets)
        matched = (r1 <= tol) & (r2 <= tol)
        self.partner_count = np.bincount(k[matched], minlength=len(self.side_p))
        # the match relation is symmetric, so pairs with k <= j (k == j for
        # torus-wrapping self-matches) count unordered pairs
        self.pairs = int(np.count_nonzero(k[matched] <= j[matched]))

    def _find_half_vertices(self) -> None:
        # a cluster on side s lies within half its length plus tol of the
        # side's midpoint, so those pairs are the candidates
        tol = self.tol
        mids = (self.side_p + self.side_q) / 2.0
        half = np.fmax.reduce(np.abs(self.side_q - self.side_p), initial=0.0) / 2.0
        c, s = NearPairs(self.frame, mids, half + tol).pairs(self.reps)
        mid_f = self.frame.frac(mids)
        rep_f = self.frame.frac(self.reps)
        base = np.round(rep_f[c] - mid_f[s])
        z, p, q = self.reps[c], self.side_p[s], self.side_q[s]
        through = np.zeros(len(c), dtype=bool)
        for ox in (-1.0, 0.0, 1.0):
            for oy in (-1.0, 0.0, 1.0):
                k = base + np.array([ox, oy])
                shift_xy = k @ self.frame.basis
                shift = shift_xy[..., 0] + 1j * shift_xy[..., 1]
                a = p + shift
                b = q + shift
                on_interior = (
                    (seg_point_dist(a, b, z) <= tol)
                    & (np.abs(z - a) > tol)
                    & (np.abs(z - b) > tol)
                )
                through |= on_interior
        self.through_count = np.bincount(c[through], minlength=self.n_clusters)
        self.is_half = self.through_count > 0

    def census(self) -> TilingCensus:
        unmatched = int((self.partner_count == 0).sum())
        e = self.pairs + unmatched
        v_k: Counter = Counter()
        h_l: Counter = Counter()
        for c in range(self.n_clusters):
            size = len(self.members[c])
            if self.is_half[c]:
                h_l[size + int(self.through_count[c])] += 1
            else:
                v_k[size] += 1
        v = int(sum(v_k.values()))
        h = int(sum(h_l.values()))
        return TilingCensus(v, h, e, self.f, dict(v_k), dict(h_l))


def census(tiling, tol: float = 1e-9) -> TilingCensus:
    """Cluster corners and match sides modulo the lattice; count everything."""
    return _Analysis(tiling, tol).census()


def validate(tiling, tol: float = 1e-9) -> ValidationReport:
    """Full validation: side matching, vertex structure, congruence, area."""
    failures: list[tuple[str, str]] = []
    tiles = tiling.tiles
    for idx, tile in enumerate(tiles):
        if len(tile.corners) != 6:
            failures.append(
                ("bad-side-count", f"tile {idx} has {len(tile.corners)} corners")
            )
        elif not is_simple(tile, tol):
            failures.append(("non-simple-tile", f"tile {idx} is not simple"))

    analysis = _Analysis(tiling, tol)
    cen = analysis.census()

    for k, count in enumerate(analysis.partner_count):
        ti, ci = analysis.owner[k]
        if count == 0:
            failures.append(("unmatched-side", f"side {ci} of tile {ti}"))
        elif count > 1:
            failures.append(
                ("multi-matched-side", f"side {ci} of tile {ti} has {count} partners")
            )

    for c in range(analysis.n_clusters):
        where = f"vertex near {analysis.reps[c]:.6g}"
        if analysis.is_half[c]:
            failures.append(("half-vertex", where))
            continue
        size = len(analysis.members[c])
        if size != 3:
            failures.append(("vertex-degree", f"{where} has degree {size}"))
        angle_sum = float(analysis.angles[analysis.members[c]].sum())
        if abs(angle_sum - 2.0 * np.pi) > max(tol, ANGLE_TOL):
            failures.append(
                ("angle-sum", f"{where} angles sum to {angle_sum:.12g}")
            )

    for idx in range(1, len(tiles)):
        if len(tiles[idx].corners) == len(tiles[0].corners):
            if congruent(tiles[0], tiles[idx], tol) is None:
                failures.append(
                    ("non-congruent-tile", f"tile {idx} not congruent to tile 0")
                )

    covol = abs(
        tiling.alpha.real * tiling.beta.imag - tiling.alpha.imag * tiling.beta.real
    )
    total = 0.0
    for tile in tiles:
        area = 0.0
        cs = tile.corners
        for k in range(len(cs)):
            a, b = cs[k], cs[(k + 1) % len(cs)]
            area += a.real * b.imag - a.imag * b.real
        total += abs(area) / 2.0
    if abs(total - covol) > 1e-6 * covol:
        failures.append(
            ("area-mismatch", f"tile area {total} vs fundamental domain {covol}")
        )

    if not cen.identities_hold:
        failures.append(("census-identity", f"census {cen} violates the count identities"))

    return ValidationReport(not failures, cen, tuple(failures))
