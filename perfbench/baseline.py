"""Print the baseline rows from traced runs' records in perfbench/out.

    python3 perfbench/run.py --workload <each> --seed 1 --trace 1
    python3 perfbench/baseline.py

Each row is the median duration of one public call at one input size over
every matching span in every traced record found.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"

# (row label, span name, size label or None for every size)
ROWS = (
    ("construct (one constructor call)", "construct", None),
    ("validate, 3 tiles", "validate.validate", 3),
    ("validate, 48 tiles", "validate.validate", 48),
    ("validate, 192 tiles", "validate.validate", 192),
    ("validate, 432 tiles", "validate.validate", 432),
    ("is_minimal, 192 tiles", "covering.is_minimal", 192),
    ("enumerate_coverings ii, 2*sqrt(3)i, 240 tiles", "covering.enumerate_coverings", "ii:240"),
    ("sample_region, 512x512", "moduli.sample_region", "512x512"),
    ("drape_tiling, res 96", "embed.drape_tiling", 96),
    ("write_obj, res 192", "cli.write_obj", 192),
    ("conformality, res 192", "embed.conformality", 192),
    ("conformality(rect_torus_mesh(1, 256, 256))", "embed.conformality", 256),
    ("cold import hextorus", "cli.cmd.import", None),
    ("cold hextorus validate (2 tiles)", "cli.cmd.validate", None),
)


def main() -> None:
    durations: dict[tuple, list[float]] = {}
    for path in sorted(OUT.glob("*-trace1.json")):
        for name, start, end, _, _, attribution, size in json.loads(path.read_text())["spans"]:
            if not attribution:
                durations.setdefault((name, size), []).append(end - start)
                durations.setdefault((name, None), []).append(end - start)
    print("| Row | Median | Spans |\n| --- | --- | --- |")
    for label, name, size in ROWS:
        d = durations.get((name, size))
        if d:
            print(f"| {label} | {statistics.median(d) * 1e3:.4g} ms | {len(d)} |")
        else:
            print(f"| {label} | not measured | 0 |")


if __name__ == "__main__":
    main()
