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
- cluster and side-midpoint pairs within half that side's length plus tol,
  each side with its own radius, for half vertices. Of the nine lattice
  copies of a side that the half-vertex test tries for such a pair, only
  those whose midpoint lies within that radius of the cluster, whose line
  passes within tol of it and whose ends lie more than tol from it get the
  full test.
Every pair and copy the formulas could accept is among these candidates
(each bound carries a margin for rounding), and each candidate is accepted
or rejected by the same formulas an all-pairs comparison applies. So
verdicts, censuses and failure lists are those of the all-pairs check,
while time and memory grow with the corner count instead of its square.

The per-tile checks run as a few array passes over one flat corner table
(``geom.corner_table``) instead of Python loops over tiles, corners and
clusters, each with the formulas of the scalar code:
- simplicity of the 6-corner tiles, one pass per kind of check over the
  (f, 6) stack, a block of tiles at a time: 9 side crossings read from 24
  orientations, each point-side distance once (24) and 6 side lengths
  (``geom.simple_mask``);
- orientation, tile areas and corner angles, from per-tile shoelace sums in
  corner order and ``math.atan2``, so every value is the scalar one;
- vertex degrees and angle sums per cluster, through ``np.bincount``;
- congruence to tile 0, all ≤ 24 candidate isometries of ``geom.congruent``
  tried on all tiles at once (``geom.congruent_rows``).
What the arrays cannot settle goes back to the scalar code, in tile order:
a tile that fails the simplicity pass is non-simple if a corner is not
finite and is otherwise re-decided by ``is_simple`` (which also raises the
``DegenerateError``), and a tile not shown congruent, or shown congruent
only within a rounding margin of tol, by ``congruent``.
Only sides without exactly one partner, and clusters that are half
vertices, have a degree other than 3 or an angle sum near or past the
tolerance, are examined one at a time to write their failures. So the
reports are those of the per-tile loops.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter

from ._np import np
from ._value import value_type
from .geom import (
    MERGE_TOL,
    _cross,
    _dot,
    congruent,
    congruent_rows,
    corner_angles,
    corner_table,
    is_simple,
    seg_point_dist,
    simple_mask,
)
from .lattice import LatticeFrame, NearPairs, components, covolume

ANGLE_TOL = 1e-9

# the lattice shifts, in coordinates, around the nearest one
_NEIGHBOURS = [(ox, oy) for ox in (-1.0, 0.0, 1.0) for oy in (-1.0, 0.0, 1.0)]
_BLOCK = 2048  # candidate pairs per half-vertex test
_ROUNDING = 1e-12  # half-vertex bounds' margin, relative to the coordinates


class ToleranceAmbiguityError(ValueError):
    """Corner distances fall in the undecidable band (tol, 3*tol)."""


@value_type("v", "h", "e", "f", "v_k", "h_l")
class TilingCensus:
    """Vertex/edge/tile counts of a candidate tiling.

    v and h count full and half vertices (a half vertex lies strictly inside
    some side). v_k histograms full vertices by corner count (the degree for
    a genuine tiling); h_l histograms half vertices by corner count plus the
    number of sides passing through.
    """

    @property
    def identities_hold(self) -> bool:
        return (
            (self.v + self.h) - self.e + self.f == 0
            and 6 * self.f + self.h == 2 * self.e
            and 2 * self.v + self.h == 4 * self.f
        )


@value_type("passed", "census", "failures")
class ValidationReport:
    """Verdict of :func:`validate`: whether the tiling passed, its census,
    and its failures as (kind, message) pairs."""


class _Analysis:
    """Corner clustering and side matching of one tiling, modulo the lattice.

    ``table`` is ``corner_table(tiling.tiles)`` when the caller has it.
    """

    def __init__(self, tiling, tol: float, table=None):
        self.tol = tol
        tiles = tiling.tiles
        self.f = len(tiles)
        self.frame = LatticeFrame(tiling.alpha, tiling.beta)

        corners, sizes, first, self.owner = table or corner_table(tiles)
        # corner k sits at position[k] of tile owner[k]; side k runs from
        # corner k to corner nxt[k], so side prev[k] ends at corner k
        start, size = first[self.owner], sizes[self.owner]
        self.position = np.arange(len(corners)) - start
        nxt = start + (self.position + 1) % size
        self.prev = start + (self.position - 1) % size
        self.corners = corners
        self.side_p = corners
        self.side_q = corners[nxt]
        # the shoelace and corner_angles term by term: per-tile sums in
        # corner order, and math.atan2, whose last bits np.arctan2 misses
        self.areas = 0.5 * _tile_sums(_cross(corners, self.side_q), sizes, first)
        e_in, e_out = corners - corners[self.prev], self.side_q - corners
        if (np.abs(e_in) <= MERGE_TOL).any():  # e_out is e_in of the next corner
            # corner_angles raises the DegenerateError of the first such tile
            self.angles = np.array([a for tile in tiles for a in corner_angles(tile.corners)])
        else:
            turn = np.fromiter(
                map(math.atan2, _cross(e_in, e_out).tolist(), _dot(e_in, e_out).tolist()),
                dtype=float,
                count=len(corners),
            )
            self.angles = np.where(self.areas[self.owner] >= 0.0, np.pi - turn, np.pi + turn)

        self._match_sides(*self._cluster())
        self._find_half_vertices()

    def _cluster(self) -> tuple[np.ndarray, np.ndarray]:
        """Cluster the corners; return the corner pairs within 3*tol."""
        tol = self.tol
        frac = self.frame.frac(self.corners)
        a, b = NearPairs(self.frame, self.corners, 3.0 * tol).pairs(self.corners)
        dist = self.frame.residual(frac[a] - frac[b])
        close = dist <= tol
        # clusters are numbered in order of their first corner
        label, first = components(len(self.corners), a[close], b[close])
        ambiguous = np.flatnonzero((dist > tol) & (dist <= 3.0 * tol) & (label[a] != label[b]))
        if len(ambiguous):
            k = ambiguous[0]
            raise ToleranceAmbiguityError(
                f"corners {int(a[k])} and {int(b[k])} are {dist[k]:.3e} apart, "
                f"inside the ambiguous band ({tol:.1e}, {3 * tol:.1e}]"
            )
        self.n_clusters = len(first)
        self.order = np.argsort(label, kind="stable")
        self.sizes = np.bincount(label, minlength=self.n_clusters)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.angle_sums = np.bincount(label, self.angles, minlength=self.n_clusters)
        self.reps = self.corners[first]
        return a, b

    def members(self, c: int) -> np.ndarray:
        """The corners of cluster c, in corner order."""
        return self.order[self.offsets[c] : self.offsets[c] + self.sizes[c]]

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
        # a cluster inside side s lies within half the side's length plus tol
        # of its midpoint, within tol of its line and more than tol from both
        # of its ends: the pairs within the first bound are the candidates,
        # and of the nine lattice copies of the side the test tries, those
        # within all three bounds get the full test; each bound has a margin,
        # relative to the coordinates, far above their rounding
        tol, frame = self.tol, self.frame
        mids = (self.side_p + self.side_q) / 2.0
        side = self.side_q - self.side_p
        length = np.abs(side)
        size = np.abs(self.corners)
        margin = _ROUNDING * (
            size[np.isfinite(size)].max(initial=0.0) + abs(frame.alpha) + abs(frame.beta)
        )
        reach = length / 2.0 + tol + margin
        slack = (tol + margin) * length + margin * reach  # |cross(side, offset)|
        c, s = NearPairs(frame, mids, reach).pairs(self.reps)
        base = np.round(frame.frac(self.reps)[c] - frame.frac(mids)[s])
        neighbours = np.array(_NEIGHBOURS)
        shifts = neighbours @ frame.basis
        shifts = shifts[:, 0] + 1j * shifts[:, 1]
        through = np.zeros(len(c), dtype=bool)
        for lo in range(0, len(c), _BLOCK):
            cb, sb, kb = c[lo : lo + _BLOCK], s[lo : lo + _BLOCK], base[lo : lo + _BLOCK]
            # the offset of the cluster from the midpoint of the base copy,
            # and then of copy base + neighbours[i], as a (9, block) test
            xy = kb @ frame.basis
            w = self.reps[cb] - mids[sb] - (xy[:, 0] + 1j * xy[:, 1])
            i, j = np.nonzero(np.abs(w - shifts[:, None]) <= reach[sb])
            v, d = w[j] - shifts[i], side[sb[j]]
            near = (
                (np.abs(d.real * v.imag - d.imag * v.real) <= slack[sb[j]])
                & (np.abs(v + d / 2.0) > tol - margin)
                & (np.abs(v - d / 2.0) > tol - margin)
            )
            i, j = i[near], j[near]
            # the full test, each shift computed from its lattice coordinates
            shift_xy = (kb[j] + neighbours[i]) @ frame.basis
            shift = shift_xy[:, 0] + 1j * shift_xy[:, 1]
            z, a, b = self.reps[cb[j]], self.side_p[sb[j]] + shift, self.side_q[sb[j]] + shift
            on_interior = (
                (seg_point_dist(a, b, z) <= tol) & (np.abs(z - a) > tol) & (np.abs(z - b) > tol)
            )
            through[lo + j[on_interior]] = True
        self.through_count = np.bincount(c[through], minlength=self.n_clusters)
        self.is_half = self.through_count > 0

    def census(self) -> TilingCensus:
        e = self.pairs + int((self.partner_count == 0).sum())
        full, half = ~self.is_half, self.is_half
        v_k = Counter(self.sizes[full].tolist())
        h_l = Counter((self.sizes + self.through_count)[half].tolist())
        return TilingCensus(int(full.sum()), int(half.sum()), e, self.f, dict(v_k), dict(h_l))


def _tile_sums(x: np.ndarray, sizes: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per-tile sums of a per-corner array, added in corner order as Python's
    sum adds them."""
    total = np.zeros(len(sizes))
    for j in range(sizes.max(initial=0)):
        rows = np.flatnonzero(sizes > j)
        total[rows] += x[first[rows] + j]
    return total


def _rows(table, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tiles of n corners and their (tiles, n) corner array."""
    corners, sizes, first, _ = table
    rows = np.flatnonzero(sizes == n)
    return rows, corners[first[rows][:, None] + np.arange(n)]


def census(tiling, tol: float = 1e-9) -> TilingCensus:
    """Cluster corners and match sides modulo the lattice; count everything."""
    # overflow and NaN just fail the tests' comparisons, without numpy warnings
    with np.errstate(all="ignore"):
        return _Analysis(tiling, tol).census()


def validate(tiling, tol: float = 1e-9) -> ValidationReport:
    """Full validation: side matching, vertex structure, congruence, area."""
    with np.errstate(all="ignore"):  # as in census
        failures: list[tuple[str, str]] = []
        tiles = tiling.tiles
        table = corner_table(tiles)
        sizes = table[1]
        suspect = sizes != 6
        rows, stack = _rows(table, 6)
        suspect[rows] = ~simple_mask(stack.T, tol)
        for idx in np.flatnonzero(suspect).tolist():
            corners = tiles[idx].corners
            if sizes[idx] != 6:
                failures.append(("bad-side-count", f"tile {idx} has {sizes[idx]} corners"))
            elif not (all(map(cmath.isfinite, corners)) and is_simple(corners, tol)):
                failures.append(("non-simple-tile", f"tile {idx} is not simple"))

        analysis = _Analysis(tiling, tol, table)
        cen = analysis.census()

        for k in np.flatnonzero(analysis.partner_count != 1).tolist():
            ti, ci = analysis.owner[k], analysis.position[k]
            count = analysis.partner_count[k]
            if count == 0:
                failures.append(("unmatched-side", f"side {ci} of tile {ti}"))
            else:
                failures.append(
                    ("multi-matched-side", f"side {ci} of tile {ti} has {count} partners")
                )

        # the array sums may differ from the exact ones in the last bits, so the
        # flag allows for that and each flagged cluster is decided as before
        off = np.abs(analysis.angle_sums - 2.0 * np.pi) > max(tol, ANGLE_TOL) - 1e-12
        for c in np.flatnonzero(analysis.is_half | (analysis.sizes != 3) | off).tolist():
            where = f"vertex near {analysis.reps[c]:.6g}"
            if analysis.is_half[c]:
                failures.append(("half-vertex", where))
                continue
            members = analysis.members(c)
            size = len(members)
            if size != 3:
                failures.append(("vertex-degree", f"{where} has degree {size}"))
            angle_sum = float(analysis.angles[members].sum())
            if abs(angle_sum - 2.0 * np.pi) > max(tol, ANGLE_TOL):
                failures.append(
                    ("angle-sum", f"{where} angles sum to {angle_sum:.12g}")
                )

        if len(tiles):
            rows, stack = _rows(table, sizes[0])
            rows, stack = rows[1:], stack[1:]  # rows[0] is tile 0
            for idx in rows[~congruent_rows(tiles[0].corners, stack, tol)].tolist():
                if congruent(tiles[0].corners, tiles[idx].corners, tol) is None:
                    failures.append(
                        ("non-congruent-tile", f"tile {idx} not congruent to tile 0")
                    )

        covol = abs(covolume(tiling.alpha, tiling.beta))
        total = sum(np.abs(analysis.areas).tolist(), 0.0)
        if abs(total - covol) > 1e-6 * covol:
            failures.append(
                ("area-mismatch", f"tile area {total} vs fundamental domain {covol}")
            )

        if not cen.identities_hold:
            failures.append(("census-identity", f"census {cen} violates the count identities"))

        return ValidationReport(not failures, cen, tuple(failures))
