"""lift_validate: lift in-moduli tilings along a tile-count ladder and check them.

Every round draws one base tiling per family, lifts it with ``build_cover``
along the ladder 12 -> 48 (-> 192 -> 432 for the families below), and runs
``validate``, ``is_minimal`` and ``classify`` of tile 0 on each tiling; one
operation lifts and checks one tiling. Long primitive sign words give
minimal strip tilings of 16-48 tiles, where ``is_minimal`` runs its worst
case (every candidate rejected, answer True).
Fifteen of the 74 operations validate broken carriers, which must fail.
"""

from __future__ import annotations

import cmath
import math
import statistics
import warnings
from types import SimpleNamespace

from hextorus.construct import GenericityWarning
from hextorus.covering import build_cover, is_minimal
from hextorus.geom import Polygon, congruent, is_simple
from hextorus.hexagon import classify, spec_from_polygon
from hextorus.validate import census, validate

from inputs import FAMILIES, construct_in_moduli, triple_for

# Tile-count rungs above the base tiling, per family, each through its own
# seeded triple. The six 12-tile covers per family form the cluster the
# median operation falls in, and the two 48-tile covers the cluster the p90
# tail falls in, so neither statistic sits on the gap between clusters of
# unlike operations. The 432 rung is the dense validator's worst case and
# runs once per round.
SMALL = (12,) * 6 + (48, 48)
RUNGS = {
    "i": SMALL + (192,),
    "ii": SMALL,
    "iii": SMALL + (192, 432),
    "cs": SMALL,
    "strip": SMALL,
}
LONG_WORDS = (8, 16, 24)  # 16, 32 and 48 tiles
BROKEN_RUNG = 48  # the first 48-tile cover is also validated broken each way
BREAKAGES = ("nudge", "drop", "shift")
FAMILY_FLAG = {
    "i": "type_i",
    "ii": "type_ii",
    "iii": "type_iii",
    "cs": "central",
    "strip": "type_i",
}
LARGE = 192  # tile count whose full check is reported as check_large_ms


def _classify_tile(tile):
    return classify(spec_from_polygon(tile))


def _attribute_validate(op, tiling, f: int) -> None:
    """Inner calls of validate, repeated on the same input in traced runs."""
    op.attribute("validate.census", census, tiling, size=f)
    op.attribute("geom.is_simple", lambda: [is_simple(t) for t in tiling.tiles], size=f)
    tiles = tiling.tiles
    op.attribute(
        "geom.congruent", lambda: [congruent(tiles[0], t) for t in tiles[1:]], size=f
    )


def _validate(op, tiling):
    f = len(tiling.tiles)
    report = op.call("validate.validate", validate, tiling, size=f)
    op.count("validate.validate.tiles", f)
    op.count("validate.validate.corners", sum(len(t.corners) for t in tiling.tiles))
    return report


def check(run, rng, base, kind: str, index: int):
    """Lift the base through a seeded triple of this index, then check it."""
    f = len(base.tiles) * index
    with run.op("check", size=f) as op:
        tiling = base
        if index > 1:
            tiling = op.call("covering.build_cover", build_cover, base, triple_for(rng, index))
            op.count("covering.build_cover.tiles_out", len(tiling.tiles))
        report = _validate(op, tiling)
        minimal = op.call("covering.is_minimal", is_minimal, tiling, size=f)
        flags = op.call("hexagon.classify", _classify_tile, tiling.tiles[0])
        if f == LARGE:
            run.sample("check_large_s", op.elapsed)
        run.sample("validate_tiles", f)
        op.count("covering.is_minimal.candidates", f - 1)
        op.count("covering.is_minimal.true", float(minimal))
        _attribute_validate(op, tiling, f)
        c = report.census
        op.check(len(tiling.tiles) == f, f"cover has {len(tiling.tiles)} tiles, want {f}")
        op.check(report.passed, f"{kind} {f} tiles failed: {report.failures[:3]}")
        op.check((c.v, c.e, c.h) == (2 * f, 3 * f, 0), f"census {c} of {f} tiles")
        op.check(minimal == (index == 1), f"is_minimal {minimal} at index {index}")
        op.check(getattr(flags, FAMILY_FLAG[kind]), f"tile 0 not {FAMILY_FLAG[kind]}")
        return tiling
    return None


def broken(rng, tiling, how: str) -> SimpleNamespace:
    """Plain carrier with one defect; TorusTiling would refuse the area change."""
    tiles = list(tiling.tiles)
    k = int(rng.integers(len(tiles)))
    turn = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if how == "nudge":
        corners = list(tiles[k].corners)
        corners[int(rng.integers(len(corners)))] += 1e-3 * turn
        tiles[k] = Polygon(tuple(corners), tiles[k].labels)
    elif how == "drop":
        del tiles[k]
    else:
        tiles[k] = tiles[k].translated(0.05 * turn)
    return SimpleNamespace(alpha=tiling.alpha, beta=tiling.beta, tiles=tuple(tiles))


def reject(run, carrier, how: str) -> None:
    f = len(carrier.tiles)
    with run.op("reject", size=f) as op:
        report = _validate(op, carrier)
        run.sample("validate_tiles", f)
        _attribute_validate(op, carrier, f)
        codes = {code for code, _ in report.failures}
        op.check(not report.passed, f"{how}: broken carrier passed")
        op.check("unmatched-side" in codes, f"{how}: no unmatched-side in {sorted(codes)}")


def construct(run, rng, kind: str, word_len: int | None = None):
    with run.op("construct") as op:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GenericityWarning)
            tiling = construct_in_moduli(op, rng, kind, word_len)
        op.count("construct.genericity_warnings", len(caught))
        return tiling
    return None  # the failed construction is counted; skip its ladder


def run_round(run, rng) -> None:
    for kind in FAMILIES:
        base = construct(run, rng, kind)
        if base is None:
            continue
        check(run, rng, base, kind, 1)
        broken_done = False
        for target in RUNGS[kind]:
            cover = check(run, rng, base, kind, max(2, round(target / len(base.tiles))))
            if cover is not None and target == BROKEN_RUNG and not broken_done:
                for how in BREAKAGES:
                    reject(run, broken(rng, cover, how), how)
                broken_done = True
    for length in LONG_WORDS:
        strip = construct(run, rng, "strip", word_len=length)
        if strip is not None:
            check(run, rng, strip, "strip", 1)


def warm_up(rng) -> None:
    from harness import Run

    run = Run(None)
    for kind in FAMILIES:
        check(run, rng, construct(run, rng, kind), kind, 2)
    if run.failed:
        raise RuntimeError("warm-up failed: " + run.errors[0])


def views(rounds) -> dict:
    """Workload metrics beyond the shared end-to-end set."""
    tiles = sum(sum(r.samples["validate_tiles"]) for r in rounds)
    busy = sum(
        t for r in rounds for t, k in zip(r.latencies, r.kinds) if k in ("check", "reject")
    )
    large = [t for r in rounds for t in r.samples["check_large_s"]]
    return {
        "tiles_per_s": (tiles / busy, "1/s"),
        "check_large_ms": (1e3 * statistics.median(large), "ms"),
    }
