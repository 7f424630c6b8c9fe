"""moduli_enumerate: map moduli regions and enumerate coverings.

Every round samples one 512x512 region grid per family, including both
grids of acceptance criterion 07, labels the components of each, writes each
as PGM, and sweeps seeded single ``membership`` calls over grid cells (two
thirds of them member cells). Each answer must equal the grid bit and the
success of the matching constructor.
It then enumerates the coverings of the 2*sqrt(3)i torus by the i, ii, iii
and cs families along a tile-count ladder ending at 240 tiles, and drapes
small tilings onto conformal tori (see drape.py). ``validate`` is only
called inside those drapes, on 2- and 3-tile tilings.
"""

from __future__ import annotations

import cmath
import math
import statistics

import numpy as np

from hextorus.construct import (
    G_PRIME,
    OMEGA3,
    R_POINT,
    ModuliViolation,
    central_minimal,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.cli import write_pgm
from hextorus.covering import MINIMAL_TILE_COUNT, enumerate_coverings
from hextorus.lattice import (
    covering_modulus,
    enumerate_hnf,
    lattices_isometric,
    rectangular_solve,
    sl2_reduce,
)
from hextorus.moduli import (
    connected_components,
    membership,
    sample_region,
    type_iii_boundary,
)

import drape
from inputs import draw_in_moduli

GRID = 512
# 480 membership operations per round put the median inside the membership
# cluster and make the tail p99, which falls among the 512x512 samples
SWEEP_PER_GRID = 96
SWEEP_MEMBERS = 64
TARGET = 2j * math.sqrt(3.0)
ENUM_TILES = (12, 48, 240)
ENUM_KINDS = ("i", "ii", "iii", "cs")
SEARCH_BOUND = 64  # enumerate_coverings' default bound for family ii
# acceptance criterion 01: the exact 12-tile covering tables
TABLE_12 = {
    "i": {(1, 6, 0), (2, 3, 0), (2, 3, 1)}
    | {(3, 2, l) for l in range(3)}
    | {(6, 1, l) for l in range(6)},
    "ii": {(1, 3, 0), (3, 1, 0)},
    "iii": {(1, 4, 0)},
}
# acceptance criterion 07: component counts of two family-ii regions
CRITERION_07 = (((1.0, 0.2 + 0.2j), 1), ((1.0, 0.35 - 0.1j), 2))


def _sigma1(k: int) -> int:
    return sum(d for d in range(1, k + 1) if k % d == 0)


def _constructor_of(kind: str, fixed):
    """Constructor of the family as a function of the free parameter."""
    if kind == "i":
        return lambda z: type_i_minimal(fixed[0], (fixed[1], z))
    if kind == "ii":
        return lambda z: type_ii_minimal(fixed[0], (fixed[1], z))
    if kind == "iii":
        return type_iii_minimal
    return lambda z: central_minimal(fixed[0], fixed[1], z)


def regions(rng) -> list[tuple[str, object, int | None]]:
    """(kind, fixed parameters, expected component count or None) per grid."""
    (tau, (i, _)), _ = draw_in_moduli(rng, "i")
    (alpha, beta, _), _ = draw_in_moduli(rng, "cs")
    grids = [("i", (tau, i), None)]
    grids += [("ii", fixed, count) for fixed, count in CRITERION_07]
    grids += [("iii", (), None), ("cs", (alpha, beta), None)]
    return grids


def _check_pgm(op, data: bytes, bits: np.ndarray) -> None:
    ny, nx = bits.shape
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    op.check(data[: len(header)] == header, "PGM header")
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
    op.check(pixels.size == nx * ny, "PGM size")
    op.check(np.array_equal(pixels.reshape(ny, nx) == 255, bits[::-1]), "PGM pixels")


def grid_ops(run, rng, kind: str, fixed, expect: int | None) -> None:
    size = f"{GRID}x{GRID}"
    grid = None
    with run.op("sample", size=size) as op:
        grid = op.call(
            "moduli.sample_region", sample_region, kind, fixed, nx=GRID, ny=GRID, size=size
        )
        op.count("moduli.sample_region.cells", grid.bits.size)
        op.count("moduli.sample_region.members", int(grid.bits.sum()))
        run.sample("cells", grid.bits.size)
        op.check(grid.bits.shape == (GRID, GRID), "grid shape")
    if grid is None:
        return
    with run.op("components", size=size) as op:
        count, labels = op.call("moduli.connected_components", connected_components, grid)
        op.count("moduli.connected_components.components", count)
        op.check(np.array_equal(labels > 0, grid.bits), "labels cover exactly the members")
        op.check(int(labels.max(initial=0)) == count, "label numbering")
        if expect is not None:
            op.check(count == expect, f"{kind} {fixed}: {count} components, want {expect}")
    with run.op("write_pgm", size=size) as op:
        data = op.call("cli.write_pgm", write_pgm, grid)
        _check_pgm(op, data, grid.bits)

    # a fixed share of member cells keeps the sweep's mix of fast (rejected)
    # and slow (constructed) operations the same for every seed
    members = np.flatnonzero(grid.bits)
    others = np.flatnonzero(~grid.bits)
    n_in = SWEEP_MEMBERS if members.size else 0
    picks = list(rng.choice(members, size=n_in)) if n_in else []
    picks += list(rng.choice(others, size=SWEEP_PER_GRID - n_in))
    centers = grid.cell_centers().ravel()
    build = _constructor_of(kind, fixed)
    for cell in picks:
        z = complex(centers[cell])
        with run.op("membership") as op:
            inside = op.call("moduli.membership", membership, kind, fixed or None, z)
            run.sample("membership_s", op.elapsed)
            try:
                op.call("construct", build, z)
                built = True
                op.count("construct.accepted")
            except ModuliViolation:
                built = False
            op.check(inside == built, f"membership {inside} but constructor {built} at {z}")
            op.check(inside == bool(grid.bits.flat[cell]), f"membership {inside} vs grid at {z}")


def boundary_op(run) -> None:
    with run.op("boundary") as op:
        arcs = op.call("moduli.type_iii_boundary", type_iii_boundary, 41)
        op.check(len(arcs) == 3, "three boundary arcs")
        for p in arcs[0].points[1:-1]:
            angle = abs(cmath.phase((G_PRIME - p) / (R_POINT - p)))
            op.check(abs(angle - 5 * math.pi / 6) <= 1e-9, "inscribed angle 5pi/6")


def _attribute_enumerate(op, kind: str, index: int) -> None:
    """Inner lattice calls of enumerate_coverings, repeated in traced runs."""
    triples = op.attribute("lattice.enumerate_hnf", enumerate_hnf, index, size=index)
    if triples is None:
        return
    if kind == "ii":
        nones = op.attribute(
            "lattice.rectangular_solve",
            lambda: sum(rectangular_solve(TARGET, h, SEARCH_BOUND) is None for h in triples),
            size=index,
        )
        op.count("lattice.rectangular_solve.calls", len(triples))
        op.count("lattice.rectangular_solve.none", nones)
    elif kind == "iii":
        op.attribute(
            "lattice.sl2_reduce",
            lambda: [sl2_reduce(covering_modulus(OMEGA3, h)) for h in triples],
            size=index,
        )
        op.count("lattice.sl2_reduce.calls", len(triples))


def enumerate_op(run, kind: str, tiles: int) -> None:
    index = tiles // MINIMAL_TILE_COUNT[kind]
    with run.op("enumerate", size=f"{kind}:{tiles}") as op:
        rows = op.call(
            "covering.enumerate_coverings",
            enumerate_coverings,
            kind,
            TARGET,
            tiles,
            size=f"{kind}:{tiles}",
        )
        run.sample("enumerate_s", op.elapsed)
        op.count("covering.enumerate_coverings.triples", _sigma1(index))
        op.count("covering.enumerate_coverings.hits", len(rows))
        _attribute_enumerate(op, kind, index)
        found = {(h.m, h.n, h.l) for h, _ in rows}
        if tiles == 12 and kind in TABLE_12:
            op.check(found == TABLE_12[kind], f"{kind} 12-tile table {sorted(found)}")
        if kind in ("i", "cs"):
            op.check(len(rows) == _sigma1(index), f"{kind}: {len(rows)} rows at index {index}")
        for h, tau_min in rows:
            op.check(h.m * h.n == index, f"triple {h} has the wrong index")
            if kind == "ii":
                op.check(abs(tau_min.real) <= 1e-12, f"ii modulus {tau_min} not rectangular")
            op.check(
                lattices_isometric(covering_modulus(tau_min, h), TARGET),
                f"{kind} {h}: covering of {tau_min} is not the target torus",
            )


def run_round(run, rng) -> None:
    for kind, fixed, expect in regions(rng):
        grid_ops(run, rng, kind, fixed, expect)
    boundary_op(run)
    for kind in ENUM_KINDS:
        for tiles in ENUM_TILES:
            enumerate_op(run, kind, tiles)
    drape.run_part(run, rng)


def warm_up(rng) -> None:
    sample_region("ii", CRITERION_07[0][0], nx=64, ny=64)
    connected_components(sample_region("iii", (), nx=64, ny=64))
    membership("iii", None, 0.05 + 0.22j)
    for kind in ENUM_KINDS:
        enumerate_coverings(kind, TARGET, 12)
    drape.warm_up(rng)


def views(rounds) -> dict:
    cells = sum(sum(r.samples["cells"]) for r in rounds)
    busy = sum(
        t for r in rounds for t, k in zip(r.latencies, r.kinds) if k == "sample"
    )
    return {
        "cells_per_s": (cells / busy, "1/s"),
        "membership_us": (
            1e6 * statistics.median(t for r in rounds for t in r.samples["membership_s"]),
            "us",
        ),
        "enumerate_s": (
            statistics.median(sum(r.samples["enumerate_s"]) for r in rounds),
            "s",
        ),
        "quads_per_s": (drape.quads_per_s(rounds), "1/s"),
    }
