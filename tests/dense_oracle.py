"""The dense all-pairs validator and minimality test, kept as the reference.

These are the O(f^2) implementations that ``hextorus.validate`` and
``hextorus.covering.is_minimal`` had before corner pairs were found through a
spatial hash modulo the lattice. They are copied unchanged, apart from this
header and its imports, so that the differential tests in
``test_dense_oracle.py`` compare the hashed code against them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from hextorus.geom import congruent, corner_angle, is_simple
from hextorus.validate import (
    ANGLE_TOL,
    TilingCensus,
    ToleranceAmbiguityError,
    ValidationReport,
)


class _Analysis:
    """Corner clustering and side matching of one tiling, modulo the lattice."""

    def __init__(self, tiling, tol: float):
        self.tol = tol
        tiles = tiling.tiles
        self.f = len(tiles)
        alpha, beta = complex(tiling.alpha), complex(tiling.beta)
        self.basis = np.array(
            [[alpha.real, alpha.imag], [beta.real, beta.imag]]
        )
        self.inv_basis = np.linalg.inv(self.basis)

        corners = []
        self.owner = []  # (tile index, corner position)
        for ti, tile in enumerate(tiles):
            for ci, z in enumerate(tile.corners):
                corners.append(z)
                self.owner.append((ti, ci))
        self.corners = np.array(corners, dtype=complex)
        self.angles = np.array(
            [corner_angle(tiles[ti], ci) for ti, ci in self.owner]
        )

        starts, ends = [], []
        self.side_owner = []
        for ti, tile in enumerate(tiles):
            n = len(tile.corners)
            for ci in range(n):
                starts.append(tile.corners[ci])
                ends.append(tile.corners[(ci + 1) % n])
                self.side_owner.append((ti, ci))
        self.side_p = np.array(starts, dtype=complex)
        self.side_q = np.array(ends, dtype=complex)

        self._cluster()
        self._match_sides()
        self._find_half_vertices()

    def _frac(self, pts: np.ndarray) -> np.ndarray:
        xy = np.stack([pts.real, pts.imag], axis=-1)
        return xy @ self.inv_basis

    def _embed_norm(self, frac_delta: np.ndarray) -> np.ndarray:
        xy = frac_delta @ self.basis
        return np.hypot(xy[..., 0], xy[..., 1])

    def _cluster(self) -> None:
        tol = self.tol
        frac = self._frac(self.corners)
        diff = frac[:, None, :] - frac[None, :, :]
        dist = self._embed_norm(diff - np.round(diff))
        n = len(self.corners)
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        close = np.argwhere(dist <= tol)
        for a, b in close:
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[rb] = ra
        roots = [find(k) for k in range(n)]
        ambiguous = np.argwhere((dist > tol) & (dist <= 3.0 * tol))
        for a, b in ambiguous:
            if roots[int(a)] != roots[int(b)]:
                raise ToleranceAmbiguityError(
                    f"corners {int(a)} and {int(b)} are {dist[a, b]:.3e} apart, "
                    f"inside the ambiguous band ({tol:.1e}, {3 * tol:.1e}]"
                )
        index_of_root: dict[int, int] = {}
        self.cluster_of = []
        for k in range(n):
            r = roots[k]
            if r not in index_of_root:
                index_of_root[r] = len(index_of_root)
            self.cluster_of.append(index_of_root[r])
        self.n_clusters = len(index_of_root)
        self.members: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for k, c in enumerate(self.cluster_of):
            self.members[c].append(k)
        self.reps = np.array(
            [self.corners[m[0]] for m in self.members], dtype=complex
        )

    def _match_sides(self) -> None:
        tol = self.tol
        pf = self._frac(self.side_p)
        qf = self._frac(self.side_q)
        d1 = pf[:, None, :] - qf[None, :, :]
        offsets = np.round(d1)
        r1 = self._embed_norm(d1 - offsets)
        d2 = qf[:, None, :] - pf[None, :, :]
        r2 = self._embed_norm(d2 - offsets)
        self.matches = (r1 <= tol) & (r2 <= tol)
        self.partner_count = self.matches.sum(axis=1)

    def _find_half_vertices(self) -> None:
        tol = self.tol
        mid_f = self._frac((self.side_p + self.side_q) / 2.0)
        rep_f = self._frac(self.reps)
        base = np.round(rep_f[:, None, :] - mid_f[None, :, :])
        z = self.reps[:, None]
        through = np.zeros((self.n_clusters, len(self.side_p)), dtype=bool)
        for ox in (-1.0, 0.0, 1.0):
            for oy in (-1.0, 0.0, 1.0):
                k = base + np.array([ox, oy])
                shift_xy = k @ self.basis
                shift = shift_xy[..., 0] + 1j * shift_xy[..., 1]
                a = self.side_p[None, :] + shift
                b = self.side_q[None, :] + shift
                ab = b - a
                denom = ab.real**2 + ab.imag**2
                t = ((z - a).real * ab.real + (z - a).imag * ab.imag)
                t = np.clip(t / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
                seg_d = np.abs(a + t * ab - z)
                on_interior = (
                    (seg_d <= tol) & (np.abs(z - a) > tol) & (np.abs(z - b) > tol)
                )
                through |= on_interior
        self.through_count = through.sum(axis=1)
        self.is_half = self.through_count > 0

    def census(self) -> TilingCensus:
        # the match relation is symmetric, so the upper triangle (with the
        # diagonal for torus-wrapping self-matches) counts unordered pairs
        pairs = int(np.triu(self.matches).sum())
        unmatched = int((self.partner_count == 0).sum())
        e = pairs + unmatched
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
        ti, ci = analysis.side_owner[k]
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


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _quotient_dist(d: complex, alpha: complex, beta: complex) -> float:
    """Distance from d to the nearest lattice point (for near-zero tests)."""
    det = _cross(alpha, beta)
    x = _cross(d, beta) / det
    y = _cross(alpha, d) / det
    x -= round(x)
    y -= round(y)
    return abs(x * alpha + y * beta)


def _maps_tiles_to_tiles(t: TorusTiling, delta: complex, tol: float) -> bool:
    """Does translation by delta permute the tile set modulo the lattice?"""
    for tile in t.tiles:
        shifted = tuple(z + delta for z in tile.corners)
        n = len(shifted)
        hit = False
        for other in t.tiles:
            if len(other.corners) != n:
                continue
            for start in range(n):
                if all(
                    _quotient_dist(
                        shifted[k] - other.corners[(start + k) % n],
                        t.alpha,
                        t.beta,
                    )
                    <= tol
                    for k in range(n)
                ):
                    hit = True
                    break
            if hit:
                break
        if not hit:
            return False
    return True


def is_minimal(t: TorusTiling, tol: float = 1e-9) -> bool:
    """True iff no translation outside the lattice preserves the tile set.

    Any such translation must send tile 0 to some tile j, so the centroid
    differences are a complete candidate list.
    """
    centroids = [
        sum(tile.corners) / len(tile.corners) for tile in t.tiles
    ]
    for j in range(1, len(t.tiles)):
        delta = centroids[j] - centroids[0]
        if _quotient_dist(delta, t.alpha, t.beta) <= tol:
            continue  # lattice translation, not a proper symmetry
        if _maps_tiles_to_tiles(t, delta, tol):
            return False
    return True
