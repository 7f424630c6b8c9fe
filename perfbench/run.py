"""hextorus benchmark: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload lift_validate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The workload names, metric names, units
and bounds are in BENCHMARK.json; perfbench/README.md says what each metric
means and which per-layer metric should move which end-to-end metric.

A run sets up several times in fresh interpreters (``setup_s`` is their
median), then runs whole rounds of the workload's fixed, seeded work until
``--seconds`` have passed and at least two rounds are done. With
``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced rounds, prints the per-layer metrics of the
traced rounds (per round), and writes every span to perfbench/out. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("lift_validate", "moduli_enumerate", "cli_cold")
SETUPS = 3
MIN_ROUNDS = 2
# per-layer ratios: numerator count over a denominator count or span count
RATIOS = {
    "construct.accept_ratio": ("construct.accepted", "construct"),
    "covering.is_minimal.true_ratio": ("covering.is_minimal.true", "covering.is_minimal"),
    "covering.enumerate_coverings.hit_ratio": (
        "covering.enumerate_coverings.hits",
        "covering.enumerate_coverings.triples",
    ),
    "lattice.rectangular_solve.none_ratio": (
        "lattice.rectangular_solve.none",
        "lattice.rectangular_solve.calls",
    ),
    "moduli.sample_region.member_ratio": (
        "moduli.sample_region.members",
        "moduli.sample_region.cells",
    ),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="hextorus benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workload(name: str):
    """Import the workload with src on the path and bytecode kept in perfbench/out."""
    if not (ROOT / "src" / "hextorus" / "__init__.py").is_file():
        raise SystemExit(f"error: no hextorus sources under {ROOT / 'src'}")
    OUT.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(ROOT / "src"))
    from hextorus.construct import GenericityWarning

    warnings.simplefilter("ignore", GenericityWarning)
    return importlib.import_module(name)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ram_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "machine": platform.machine(),
    }


def measure_setup(wl, workload: str, seed: int) -> list[float]:
    """Wall time of SETUPS fresh interpreters, each importing and warming up."""
    from procs import python

    argv = getattr(wl, "SETUP_ARGV", None) or [
        str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"
    ]
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        proc = python(*argv)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr[-800:]}")
    return times


def run_rounds(wl, rng, seconds: float, trace: bool):
    from harness import Run, Tracer

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    start = perf_counter()
    k = 0
    while k < MIN_ROUNDS or perf_counter() - start < seconds:
        run = Run(tracer if trace and k % 2 else None)
        wl.run_round(run, rng)
        (traced if run.tracer else untraced).append(run)
        k += 1
    return untraced, traced, tracer


def end_to_end(wl, rounds, setup_times) -> tuple[dict, dict]:
    from harness import nearest_rank, tail_percentile

    lat = [t for r in rounds for t in r.latencies]
    pct = tail_percentile(rounds[0].attempted * MIN_ROUNDS)
    peak_kib = wl.peak_rss_kib() if hasattr(wl, "peak_rss_kib") else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "ops_per_s": (len(lat) / sum(r.wall_s for r in rounds), "1/s"),
        "op_tail_ms": (1e3 * nearest_rank(lat, pct), "ms"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    attempted = sum(r.attempted for r in rounds)
    extra = dict(wl.views(rounds))
    extra["op_p50_ms"] = (1e3 * nearest_rank(lat, 50.0), "ms")
    extra["fail_ratio"] = (sum(r.failed for r in rounds) / attempted, "ratio")
    extra["op_tail_pct"] = (pct, "%")
    extra["ops"] = (attempted, "count")
    return metrics, extra


def per_layer(names, tracer, traced, untraced) -> dict:
    summary = tracer.summary()
    counts = tracer.counts
    n = len(traced)

    def calls(layer: str) -> float:
        key = f"{layer}.calls"
        return counts[key] if key in counts else summary.get(layer, {}).get("calls", 0)

    out = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            value = statistics.median(r.wall_s for r in traced) - statistics.median(
                r.wall_s for r in untraced
            )
        elif name == "trace.spans":
            value = len(tracer.spans) / n
        elif name == "bench.op.self_s":
            value = sum(
                own for s, own in zip(tracer.spans, tracer.self_times())
                if s[0].startswith("op.")
            ) / n
        elif name.startswith("cli.cmd."):
            value = summary.get(name[: -len("_s")], {}).get("busy_s", 0.0) / n
        elif name in RATIOS:
            num, den = RATIOS[name]
            base = counts.get(den) or summary.get(den, {}).get("calls", 0)
            value = counts.get(num, 0.0) / base if base else 0.0
        else:
            layer, stat = name.rsplit(".", 1)
            if stat == "calls":
                value = calls(layer) / n
            elif stat == "busy_s":
                value = summary.get(layer, {}).get("busy_s", 0.0) / n
            else:
                value = counts.get(name, 0.0) / n
        out[name] = (float(value), unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = load_workload(args.workload)
    import numpy as np

    if args.setup_only:
        wl.warm_up(np.random.default_rng([args.seed, 1]))
        return 0

    from procs import prime_cache

    cache = prime_cache()
    setup_times = measure_setup(wl, args.workload, args.seed)
    wl.warm_up(np.random.default_rng([args.seed, 1]))
    untraced, traced, tracer = run_rounds(
        wl, np.random.default_rng(args.seed), args.seconds, bool(args.trace)
    )
    rounds = untraced + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    e2e, extra = end_to_end(wl, untraced, setup_times)
    for r in rounds:
        for err in r.errors:
            print(err, file=sys.stderr)

    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = per_layer(names, tracer, traced, untraced)
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        metrics = {name: e2e[name] for name, _ in names}
        for name, unit in names:
            if e2e[name][1] != unit:
                raise RuntimeError(f"{name}: unit {e2e[name][1]} but BENCHMARK.json says {unit}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "bytecode_cache": cache,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "setup_s": setup_times,
        "round_wall_s": [r.wall_s for r in untraced],
        "end_to_end": e2e,
        "workload_metrics": extra,
        "metrics": metrics,
    }
    if tracer is not None:
        record["trace_summary"] = tracer.summary()
        record["spans"] = tracer.spans
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} rounds={len(untraced)}+{len(traced)} "
          f"environment={json.dumps(record['environment'])} cache={json.dumps(cache)}")
    for name, (value, unit) in {**e2e, **extra, **(metrics if args.trace else {})}.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
