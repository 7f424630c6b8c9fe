"""cli_cold: the README command chain as cold child processes, one at a time.

Every round runs a cold ``import hextorus`` and then construct -> validate
-> classify -> cover -> validate cover -> enumerate -> moduli sample ->
render svg -> render obj rect -> construct iii -> render obj hopf:w3, each
as a fresh interpreter calling the ``hextorus`` console-script entry point
declared in pyproject.toml. Only here does every command pay the import and
the document parsing. Every output is compared with the same computation
made in this process.
"""

from __future__ import annotations

import functools
import resource
import shutil
import statistics
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

from hextorus.cli import document_from_tiling, serialize_document, write_pgm
from hextorus.covering import enumerate_coverings
from hextorus.moduli import sample_region

from inputs import draw_in_moduli, triple_for
from procs import OUT, entry_point, python

MODULI_GRID = 256
OBJ_RES = 96  # the CLI's default --res
TARGET_TAU = "0,3.4641016151377544"  # 2*sqrt(3)i, as in the README


def cli_argv(*args: str) -> list[str]:
    module, func = entry_point().split(":")
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())", *args]


def _pair(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def plan(rng) -> dict:
    """Seeded parameters of one chain and the expected outputs (untimed)."""
    y = float(rng.uniform(0.5, 1.5))
    (_, sigma), two = draw_in_moduli(rng, "i", 1j * y)
    (p,), star = draw_in_moduli(rng, "iii")
    h = triple_for(rng, int(rng.choice([2, 3, 4, 6])))
    tiles = int(rng.choice([12, 24, 36]))
    rows = enumerate_coverings("ii", complex(0.0, 3.4641016151377544), tiles)
    return {
        "y": y,
        "sigma": sigma,
        "p": p,
        "triple": h,
        "tiles": tiles,
        "two_doc": serialize_document(document_from_tiling(two)),
        "star_doc": serialize_document(document_from_tiling(star)),
        "enum_rows": {(r.m, r.n, r.l) for r, _ in rows},
    }


@functools.cache
def expected_pgm() -> bytes:
    return write_pgm(sample_region("iii", (), nx=MODULI_GRID, ny=MODULI_GRID))


def _read(work: Path, name: str) -> str:
    return (work / name).read_text(encoding="utf-8")


def _obj_faces(op, work: Path, name: str) -> None:
    text = _read(work, name)
    faces = text.count("\nf ")
    op.check(faces == OBJ_RES * OBJ_RES, f"{name}: {faces} faces")


def chain(pl: dict) -> list[tuple[str, list[str], object]]:
    """(command name, child argv, output check) in README order."""
    y, (i, t), h = pl["y"], pl["sigma"], pl["triple"]
    index = h.m * h.n

    def ok_construct(doc_key, name):
        return lambda op, work, out: op.check(_read(work, name) == pl[doc_key], f"{name} differs")

    def ok_validate(f):
        census = f"census: f={f} v={2 * f} e={3 * f} h=0"
        return lambda op, work, out: op.check(
            "passed: yes" in out and census in out, f"validate output {out!r}"
        )

    def ok_enumerate(op, work, out):
        rows = set()
        for line in out.splitlines()[1:]:
            m, n, l = line.split(")")[0].strip("(").replace(";", ",").split(",")
            rows.add((int(m), int(n), int(l)))
        op.check(rows == pl["enum_rows"], f"enumerate rows {sorted(rows)}")

    def ok_svg(op, work, out):
        root = ET.fromstring(_read(work, "two_tile.svg"))
        count = sum(1 for _ in root.iter("{http://www.w3.org/2000/svg}polygon"))
        op.check(count == 2, f"{count} SVG polygons")

    return [
        ("import", ["-c", "import hextorus"], None),
        (
            "construct",
            cli_argv("construct", "--type=i", f"--tau=0,{y:.17g}", f"--i={_pair(i)}",
                     f"--t={_pair(t)}", "-o", "two_tile.json"),
            ok_construct("two_doc", "two_tile.json"),
        ),
        ("validate", cli_argv("validate", "two_tile.json"), ok_validate(2)),
        (
            "classify",
            cli_argv("classify", "two_tile.json"),
            lambda op, work, out: op.check("type_i: yes" in out, f"classify output {out!r}"),
        ),
        (
            "cover",
            cli_argv("cover", "two_tile.json", f"--m={h.m}", f"--n={h.n}", f"--l={h.l}",
                     "-o", "cover.json"),
            lambda op, work, out: op.check(
                _read(work, "cover.json").count('"corners"') == 2 * index, "cover tile count"
            ),
        ),
        ("validate_cover", cli_argv("validate", "cover.json"), ok_validate(2 * index)),
        (
            "enumerate",
            cli_argv("enumerate", "--type=ii", f"--tau={TARGET_TAU}", f"--tiles={pl['tiles']}"),
            ok_enumerate,
        ),
        (
            "moduli_sample",
            cli_argv("moduli", "sample", "--type=iii", f"--grid={MODULI_GRID},{MODULI_GRID}",
                     "-o", "star.pgm"),
            lambda op, work, out: op.check(
                (work / "star.pgm").read_bytes() == expected_pgm(), "star.pgm differs"
            ),
        ),
        ("render_svg", cli_argv("render", "svg", "two_tile.json", "-o", "two_tile.svg"), ok_svg),
        (
            "render_obj_rect",
            cli_argv("render", "obj", "two_tile.json", "--embed=rect", "-o", "two_tile.obj"),
            lambda op, work, out: _obj_faces(op, work, "two_tile.obj"),
        ),
        (
            "construct_iii",
            cli_argv("construct", "--type=iii", f"--p={_pair(pl['p'])}", "-o", "star_tiling.json"),
            ok_construct("star_doc", "star_tiling.json"),
        ),
        (
            "render_obj_hopf",
            cli_argv("render", "obj", "star_tiling.json", "--embed=hopf:w3", "-o", "hopf.obj"),
            lambda op, work, out: _obj_faces(op, work, "hopf.obj"),
        ),
    ]


def run_round(run, rng) -> None:
    pl = plan(rng)
    expected_pgm()
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        for name, argv, ok in chain(pl):
            with run.op(name) as op:
                proc = op.call(f"cli.cmd.{name}", python, *argv, cwd=work)
                run.sample("chain_s", op.elapsed)
                failure = f"{name} exited {proc.returncode}: {proc.stderr[-500:]}"
                op.check(proc.returncode == 0, failure)
                if ok is not None:
                    ok(op, work, proc.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)


SETUP_ARGV = ["-c", "import hextorus"]  # one cold set-up: a fresh interpreter importing hextorus


def warm_up(rng) -> None:
    expected_pgm()


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def views(rounds) -> dict:
    return {"cli_chain_s": (statistics.median(sum(r.samples["chain_s"]) for r in rounds), "s")}
