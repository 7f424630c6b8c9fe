"""Independent validator for monohedral side-to-side hexagonal torus tilings.

Checks that the tiles of a TorusTiling really tile the torus: every side is
matched by exactly one reversed side modulo the lattice, every vertex is a
full vertex of degree 3 with angles summing to 2pi, all tiles are congruent,
and the areas fill one fundamental domain. The checks work directly on corner
coordinates and share no code with the constructors' corner formulas.

Two points meet modulo the lattice when the difference of their lattice
coordinates, less its rounding, is at most tol long. The candidates come
from a spatial hash modulo the lattice (``lattice.NearPairs``), which finds
in a reduced basis every lattice copy of a point within a radius of another:
- corner pairs within 3*tol, for clustering and for the ambiguity band
  (tol, 3*tol]; side matching reuses the pairs within tol and their lattice
  shifts (side k can match side j only if the start of k meets the end of j);
- for half vertices, each copy of a side whose midpoint lies within half its
  length plus tol of a cluster, shifted by the integer coordinates the hash
  gives in the tiling's basis, and tested in full.
Each candidate is decided by the formulas of an all-pairs comparison, so the
reports are its reports, in whichever basis the tiling gives its lattice,
while time and memory grow with the corner count instead of its square.

The per-tile checks run as a few array passes over one flat corner table
(``geom.corner_table``) instead of Python loops over tiles, corners and
clusters, each with the formulas of the scalar code:
- simplicity of the 6-corner tiles, one pass per kind of check over the
  (f, 6) stack, a block of tiles at a time: 24 rows, each side against its
  4 far corners, read as orientations for the 9 side crossings and then as
  point-side distances, and 6 side lengths (``geom.simple_mask``);
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
from .lattice import LatticeFrame, NearPairs, _distinct, check_tolerance, components, covolume

ANGLE_TOL = 1e-9


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
        self.tol = check_tolerance(tol)
        tiles = tiling.tiles
        self.f = len(tiles)
        self.frame = LatticeFrame(tiling.alpha, tiling.beta)

        corners, sizes, first, self.owner = table or corner_table(tiles)
        # corner k sits at position[k] of tile owner[k]; side k runs from
        # corner k to corner nxt[k], so side prev[k] ends at corner k
        start, size = first[self.owner], sizes[self.owner]
        self.position = np.arange(len(corners)) - start
        self.nxt = start + (self.position + 1) % size
        self.prev = start + (self.position - 1) % size
        self.corners = corners
        self.side_q = corners[self.nxt]
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

    def _cluster(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cluster the corners; return the corner pairs (a, b) within tol and
        the rounded lattice coordinates of a - b."""
        tol = self.tol
        self.frac = self.frame.frac(self.corners)
        a, b = NearPairs(self.frame, self.corners, 3.0 * tol).pairs(self.corners)
        delta = self.frac[a] - self.frac[b]
        shifts = np.round(delta)
        dist = self.frame.norm(delta - shifts)
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
        return a[close], b[close], shifts[close]

    def members(self, c: int) -> np.ndarray:
        """The corners of cluster c, in corner order."""
        return self.order[self.offsets[c] : self.offsets[c] + self.sizes[c]]

    def _match_sides(self, k: np.ndarray, b: np.ndarray, shifts: np.ndarray) -> None:
        # side k matches side j when the start of k meets the end of j, which
        # is corner b of the pairs within tol, and the end of k meets the
        # start of j under the same lattice shift
        j = self.prev[b]
        far = self.frame.norm(self.frac[self.nxt[k]] - self.frac[j] - shifts)
        hit = far <= self.tol
        k, j = k[hit], j[hit]
        self.partner_count = np.bincount(k, minlength=len(self.corners))
        # the match relation is symmetric, so pairs with k <= j (k == j for
        # torus-wrapping self-matches) count unordered pairs
        self.pairs = int(np.count_nonzero(k <= j))

    def _find_half_vertices(self) -> None:
        # a cluster inside side s lies within half its length plus tol of its
        # midpoint; each copy that near gets the full test, in a call whose
        # arrays go before the next block, and each (cluster, side) counts once
        mids = (self.corners + self.side_q) / 2.0
        reach = np.abs(self.side_q - self.corners) / 2.0 + self.tol
        n = len(mids)
        through = [np.zeros(0, dtype=np.int64)]
        for c, s, k in NearPairs(self.frame, mids, reach).copies(self.reps):
            inside = self._inside(c, s, k)
            through.append(c[inside] * n + s[inside])
        through = _distinct(np.concatenate(through)) // n
        self.through_count = np.bincount(through, minlength=self.n_clusters)
        self.is_half = self.through_count > 0

    def _inside(self, c: np.ndarray, s: np.ndarray, k: np.ndarray) -> np.ndarray:
        """True where cluster c lies inside side s shifted by coordinates k."""
        tol = self.tol
        xy = k @ self.frame.basis
        shift = xy[:, 0] + 1j * xy[:, 1]
        z, a, b = self.reps[c], self.corners[s] + shift, self.side_q[s] + shift
        return (seg_point_dist(a, b, z) <= tol) & (np.abs(z - a) > tol) & (np.abs(z - b) > tol)

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
    tol = check_tolerance(tol)
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
            where = f"side {analysis.position[k]} of tile {analysis.owner[k]}"
            count = analysis.partner_count[k]
            if count == 0:
                failures.append(("unmatched-side", where))
            else:
                failures.append(("multi-matched-side", f"{where} has {count} partners"))

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
