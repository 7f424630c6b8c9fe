"""Coverings of minimal tilings: build, test minimality, enumerate for a torus.

A finite-index sublattice in Hermite normal form (m, n; l) turns a tiling of
C/(Z*alpha + Z*beta) into one of C/(Z*m*alpha + Z*(l*alpha + n*beta)) with
m*n times as many tiles. Enumeration inverts this: given a target torus and a
tile count, list the sublattice triples whose minimal tiling exists.
"""

from __future__ import annotations

import cmath

from ._np import np
from .construct import FAMILIES, TorusTiling, family, translates
from .geom import corner_table
from .lattice import HnfTriple, LatticeFrame, NearPairs, check_count, check_modulus, check_tolerance
from .lattice import enumerate_hnf

MINIMAL_TILE_COUNT = {kind: f.tiles for kind, f in FAMILIES.items()}
_MAX_TILES = 1 << 20  # tiles build_cover makes at most


def build_cover(t: TorusTiling, h: HnfTriple) -> TorusTiling:
    """Covering tiling of t along the sublattice (m, n; l): at most 2**20 tiles."""
    if not isinstance(h, HnfTriple):
        h = HnfTriple(*h)
    check_count(len(t.tiles) * h.index, "cover tile count", most=_MAX_TILES)
    return TorusTiling(
        h.m * t.alpha,
        h.l * t.alpha + h.n * t.beta,
        translates(t, range(h.m), range(h.n)),
        {"kind": "cover", "triple": (h.m, h.n, h.l), "source": dict(t.provenance)},
    )


def is_minimal(t: TorusTiling, tol: float = 1e-9) -> bool:
    """True iff no translation outside the lattice preserves the tile set.

    Any such translation must send tile 0 to some tile j, so the centroid
    differences are a complete candidate list. A candidate preserves the tile
    set when every shifted tile meets a tile of its corner count corner by
    corner from some cyclic start, each corner within tol modulo the lattice.
    The corners that a shifted corner 0 meets are looked up in a hash of all
    corners; a candidate under which corner 0 of tile 1 meets no corner is
    dropped before the full test.
    """
    tol = check_tolerance(tol)
    tiles = t.tiles
    if len(tiles) < 2:
        return True
    frame = LatticeFrame(t.alpha, t.beta)
    corners, sizes, first, owner = corner_table(tiles)
    index = NearPairs(frame, corners, tol)

    def meets(a, b):
        return frame.residual(frame.frac(a - b)) <= tol

    centroids = [sum(tile.corners) / len(tile.corners) for tile in tiles]
    deltas = np.array(centroids[1:], dtype=complex) - centroids[0]
    deltas = deltas[~meets(deltas, 0.0)]  # lattice translations are no symmetry
    q, r = index.pairs(corners[first[1]] + deltas)
    q = q[meets(corners[first[1]] + deltas[q], corners[r])]
    for delta in deltas[np.bincount(q, minlength=len(deltas)) > 0]:
        tile, r = index.pairs(corners[first] + delta)
        other = owner[r]
        keep = sizes[other] == sizes[tile]
        tile, other, start = tile[keep], other[keep], (r - first[other])[keep]
        # every corner of each (tile, other tile, cyclic start) candidate
        n = sizes[tile]
        cand = np.repeat(np.arange(len(tile)), n)
        k = np.arange(len(cand)) - np.repeat(np.cumsum(n) - n, n)
        ok = meets(
            corners[first[tile][cand] + k] + delta,
            corners[first[other][cand] + (start[cand] + k) % n[cand]],
        )
        fits = np.bincount(cand[~ok], minlength=len(tile)) == 0
        if np.bincount(tile[fits], minlength=len(tiles)).all():
            return False
    return True


def enumerate_coverings(
    kind: str, target: complex, tile_count: int
) -> list[tuple[HnfTriple, complex]]:
    """All (sublattice triple, minimal modulus) giving the target torus.

    kind selects the construction family: "i", "ii", "iii", or "cs". The tile
    count must be a multiple of the family's minimal tile count (2, 4, 3, 1).
    Each triple is kept when the family's covering rule (``Family.cover``)
    gives a minimal modulus: families i and cs admit every triple (the
    minimal modulus is free); ii keeps the triples along which a rectangular
    minimal modulus covers the target (``rectangular_solve``, exact), one
    modulus each; iii fixes the hexagonal lattice, so triples are
    canonicalized over its rotation symmetry and kept when the covering is
    isometric to the target. A minimal modulus that is not finite (a target
    near the float limit) raises OverflowError. The triples are those of
    ``enumerate_hnf``, which refuses an index with more than 2**20 of them.
    """
    fam = family(kind)
    target = check_modulus(target)
    tile_count = check_count(tile_count, "tile count")
    if tile_count < 1 or tile_count % fam.tiles != 0:
        raise ValueError(f"tile count {tile_count} is not a positive multiple of {fam.tiles}")
    triples = enumerate_hnf(tile_count // fam.tiles)
    rows = [(h, x) for h in triples if (x := fam.cover(target, h)) is not None]
    for h, x in rows:
        if not cmath.isfinite(x):
            raise OverflowError(f"the minimal modulus for ({h.m},{h.n};{h.l}) is not finite: {x}")
    return rows
