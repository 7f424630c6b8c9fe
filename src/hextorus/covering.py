"""Coverings of minimal tilings: build, test minimality, enumerate for a torus.

A finite-index sublattice in Hermite normal form (m, n; l) turns a tiling of
C/(Z*alpha + Z*beta) into one of C/(Z*m*alpha + Z*(l*alpha + n*beta)) with
m*n times as many tiles. Enumeration inverts this: given a target torus and a
tile count, list the sublattice triples whose minimal tiling exists.
"""

from __future__ import annotations

from ._np import np
from .construct import OMEGA3, TorusTiling, translates
from .geom import corner_table
from .lattice import (
    HnfTriple,
    IntBasis,
    LatticeFrame,
    NearPairs,
    check_modulus,
    covering_modulus,
    enumerate_hnf,
    hnf_of_basis,
    lattices_isometric,
    rectangular_solve,
)

MINIMAL_TILE_COUNT = {"i": 2, "ii": 4, "iii": 3, "cs": 1}


def build_cover(t: TorusTiling, h: HnfTriple) -> TorusTiling:
    """Covering tiling of t along the sublattice (m, n; l)."""
    if not isinstance(h, HnfTriple):
        h = HnfTriple(*h)
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


def _rotated_triple(h: HnfTriple) -> HnfTriple:
    # multiply the sublattice of Z + Z*omega3 by omega3; with
    # omega3^2 = -1 - omega3 the coordinates map (x, y) -> (-y, x - y)
    return hnf_of_basis(IntBasis(0, h.m, -h.n, h.l - h.n))


def _rotation_orbit_min(h: HnfTriple) -> HnfTriple:
    a = _rotated_triple(h)
    b = _rotated_triple(a)
    return min(h, a, b, key=lambda x: (x.m, x.n, x.l))


def enumerate_coverings(
    kind: str, target: complex, tile_count: int, bound: int = 64
) -> list[tuple[HnfTriple, complex]]:
    """All (sublattice triple, minimal modulus) giving the target torus.

    kind selects the construction family: "i", "ii", "iii", or "cs". The tile
    count must be a multiple of the family's minimal tile count (2, 4, 3, 1).
    Families i and cs admit every triple (the minimal modulus is free); ii
    keeps triples where a rectangular minimal modulus exists up to the search
    bound; iii fixes the hexagonal lattice, so triples are canonicalized over
    its rotation symmetry and kept when the covering is isometric to the
    target.

    ``bound`` (at least 1, for every kind) is used by family ii only: it
    bounds the entries of the unimodular maps ``rectangular_solve`` searches.
    A triple missing from a family-ii list has no rectangular minimal modulus
    up to that bound, which is not a proof that it has none. The search
    table has about 1.2*bound**2 maps (5,040 at 64), so the cost and memory
    grow with the square of the bound.
    """
    key = str(kind).strip().lower()
    if key not in MINIMAL_TILE_COUNT:
        raise ValueError(f"kind must be one of {sorted(MINIMAL_TILE_COUNT)}")
    target = check_modulus(target)
    f0 = MINIMAL_TILE_COUNT[key]
    tile_count = int(tile_count)
    if tile_count < 1 or tile_count % f0 != 0:
        raise ValueError(
            f"tile count {tile_count} is not a positive multiple of {f0}"
        )
    if bound < 1:
        raise ValueError(f"search bound must be at least 1, got {bound}")
    index = tile_count // f0
    results: list[tuple[HnfTriple, complex]] = []
    for h in enumerate_hnf(index):
        if key in ("i", "cs"):
            results.append((h, (h.m * target - h.l) / h.n))
        elif key == "ii":
            x = rectangular_solve(target, h, bound)
            if x is not None:
                results.append((h, x))
        else:
            if h != _rotation_orbit_min(h):
                continue
            if lattices_isometric(covering_modulus(OMEGA3, h), target):
                results.append((h, OMEGA3))
    return results
