"""Draping part of the moduli_enumerate round.

Seeded 2-tile tilings are draped onto ``RectEmbedding`` tori and 3-tile
tilings onto the Hopf torus of the hexagonal modulus, over a
``surface_res`` ladder ending at 192. One render operation drapes a tiling,
measures the mesh's ``conformality`` and writes it as OBJ; each tiling also
gets ``write_svg`` and a document round trip. One drape must be refused
with ``IncompatibilityError``. The tilings are seeded inputs (their
constructors are measured in lift_validate), and the validator only sees
them inside ``drape_tiling``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from hextorus.cli import (
    document_from_tiling,
    parse_document,
    serialize_document,
    tiling_from_document,
    write_obj,
    write_svg,
)
from hextorus.embed import (
    OMEGA3_CURVE,
    HopfEmbedding,
    IncompatibilityError,
    RectEmbedding,
    conformality,
    drape_tiling,
    hopf_torus_mesh,
    rect_torus_mesh,
)
from hextorus.lattice import sl2_reduce
from hextorus.validate import validate

from inputs import draw_in_moduli

RES_LADDER = (24, 48, 96, 192)
RECT_PER_RUNG = {24: 1, 48: 2, 96: 1, 192: 1}
HOPF_RUNGS = (48, 96)
HOPF = HopfEmbedding(OMEGA3_CURVE)
MESH_RES = 256  # conformality(rect_torus_mesh(1, 256, 256)) is a baseline row
HOPF_MESH_RES = 96


def max_defect(res: int) -> float:
    """Ceiling on the conformality defect at a resolution.

    The Hopf torus of the hexagonal modulus is the worst mesh here (1.58 at
    res 16, 1.2e-3 at res 192); the defect must fall at least quadratically.
    """
    return 2.0 * (16.0 / res) ** 2


def render_op(run, tiling, target, res: int) -> None:
    """Drape one tiling at one resolution, measure conformality, write OBJ."""
    f = len(tiling.tiles)
    with run.op("render", size=res) as op:
        mesh = op.call(
            "embed.drape_tiling", drape_tiling, tiling, target, surface_res=res, size=res
        )
        defect = op.call("embed.conformality", conformality, mesh, size=res)
        text = op.call("cli.write_obj", write_obj, mesh, size=res)
        run.sample("quads", len(mesh.quads))
        op.count("embed.drape_tiling.quads", len(mesh.quads))
        op.count("cli.write_obj.bytes", len(text))
        op.attribute("validate.validate", validate, tiling, size=f)
        op.count("validate.validate.tiles", f)
        op.count("validate.validate.corners", 6 * f)
        op.attribute(
            "lattice.sl2_reduce",
            lambda: (sl2_reduce(tiling.modulus), sl2_reduce(target.modulus)),
        )
        op.count("lattice.sl2_reduce.calls", 2)
        op.check(len(mesh.quads) == res * res, f"{len(mesh.quads)} quads at res {res}")
        groups = np.asarray(mesh.groups)
        op.check(groups.min() >= 0 and groups.max() < f, "quad group out of range")
        op.check(len(mesh.polylines) == f, "one boundary polyline per tile")
        op.check(0.0 <= defect <= max_defect(res), f"conformality defect {defect} at res {res}")
        faces = text.count("\nf ")
        op.check(faces == len(mesh.quads), f"OBJ has {faces} faces, mesh {len(mesh.quads)}")
        op.check(text.count("\nl ") == f, "one OBJ polyline per tile")


def tiling_ops(run, tiling) -> None:
    f = len(tiling.tiles)
    with run.op("write_svg", size=f) as op:
        svg = op.call("cli.write_svg", write_svg, tiling)
        polygons = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}polygon")
        op.check(sum(1 for _ in polygons) == f, "one SVG polygon per tile")
    with run.op("roundtrip", size=f) as op:

        def write(t) -> str:
            doc = op.call("cli.document_from_tiling", document_from_tiling, t)
            return op.call("cli.serialize_document", serialize_document, doc)

        text = write(tiling)
        doc = op.call("cli.parse_document", parse_document, text)
        again = write(op.call("cli.tiling_from_document", tiling_from_document, doc))
        op.check(again == text, "document round trip is not byte-identical")


def refuse_op(run, rng) -> None:
    tau = complex(rng.uniform(0.15, 0.35), rng.uniform(0.8, 2.0))
    _, tiling = draw_in_moduli(rng, "i", tau)
    with run.op("refuse") as op:
        try:
            target = RectEmbedding(tau.imag)
            op.call("embed.drape_tiling", drape_tiling, tiling, target, surface_res=48)
        except IncompatibilityError:
            return
        op.check(False, f"drape of modulus {tau} onto a rectangular torus was not refused")


def run_part(run, rng) -> None:
    for res in RES_LADDER:
        jobs = []
        for _ in range(RECT_PER_RUNG[res]):
            y = rng.uniform(0.5, 1.5)
            jobs.append((draw_in_moduli(rng, "i", 1j * y)[1], RectEmbedding(y)))
        if res in HOPF_RUNGS:
            jobs.append((draw_in_moduli(rng, "iii")[1], HOPF))
        for tiling, target in jobs:
            render_op(run, tiling, target, res)
            tiling_ops(run, tiling)
    refuse_op(run, rng)
    with run.op("mesh", size=MESH_RES) as op:
        mesh = op.call(
            "embed.rect_torus_mesh", rect_torus_mesh, 1.0, MESH_RES, MESH_RES, size=MESH_RES
        )
        defect = op.call("embed.conformality", conformality, mesh, size=MESH_RES)
        op.check(0.0 <= defect <= max_defect(MESH_RES), f"rect mesh defect {defect}")
    res = HOPF_MESH_RES
    with run.op("mesh", size=res) as op:
        mesh, modulus = op.call(
            "embed.hopf_torus_mesh", hopf_torus_mesh, OMEGA3_CURVE, res, res, size=res
        )
        op.check(len(mesh.quads) == res * res, "hopf mesh quad count")
        same = abs(sl2_reduce(modulus)[0] - sl2_reduce(HOPF.modulus)[0]) <= 1e-6
        op.check(same, "hopf modulus")


def warm_up(rng) -> None:
    from harness import Run

    run = Run(None)
    jobs = (
        (draw_in_moduli(rng, "i", 0.8j)[1], RectEmbedding(0.8)),
        (draw_in_moduli(rng, "iii")[1], HOPF),
    )
    for tiling, target in jobs:
        render_op(run, tiling, target, 16)
        tiling_ops(run, tiling)
    if run.failed:
        raise RuntimeError("warm-up failed: " + run.errors[0])


def quads_per_s(rounds) -> float:
    """Draped quads per second of render (drape, conformality, write_obj) latency."""
    quads = sum(sum(r.samples["quads"]) for r in rounds)
    busy = sum(t for r in rounds for t, k in zip(r.latencies, r.kinds) if k == "render")
    return quads / busy
