"""Command line surface and the tiling-document interchange format.

Documents are UTF-8 JSON with a fixed key order and 17-significant-digit
decimals, so that serialize(parse(text)) == text for files this tool wrote.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from types import SimpleNamespace

from ._np import np
from .construct import (
    OMEGA3,
    TorusTiling,
    central_minimal,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from .covering import build_cover, enumerate_coverings
from .geom import Polygon
from .hexagon import classify, spec_from_polygon
from .lattice import HnfTriple, covolume
from .validate import ValidationReport, validate

FORMAT_TAG = "tiling-document/1"


class DocumentError(ValueError):
    """Malformed tiling document."""


# ---------------------------------------------------------------------------
# canonical JSON emitter


def _num(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _emit(value, parts: list[str]) -> None:
    if value is None:
        parts.append("null")
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, (bool, int, float)):
        parts.append(_num(value))
    elif isinstance(value, complex):
        _emit([value.real, value.imag], parts)
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(value):
            if k:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(value, dict):
        parts.append("{")
        for k, (key, item) in enumerate(value.items()):
            if k:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _emit(item, parts)
        parts.append("}")
    else:
        raise DocumentError(f"cannot serialize {type(value).__name__}")


def serialize_document(doc: dict) -> str:
    parts: list[str] = []
    _emit(doc, parts)
    return "".join(parts) + "\n"


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    _check_document(doc)
    return doc


# squares of coordinate differences stay finite below this magnitude
_MAX_COORDINATE = 1e150


def _pair(value, field: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
        or not all(map(math.isfinite, value))
    ):
        raise DocumentError(f"{field}: expected finite [re, im], got {value!r}")
    if not all(abs(c) <= _MAX_COORDINATE for c in value):
        raise DocumentError(
            f"{field}: coordinates must not exceed {_MAX_COORDINATE:g} in magnitude, "
            f"got {value!r}"
        )
    return complex(float(value[0]), float(value[1]))


def _check_document(doc) -> None:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if doc.get("format") != FORMAT_TAG:
        raise DocumentError(f"format: expected {FORMAT_TAG!r}, got {doc.get('format')!r}")
    lattice = doc.get("lattice")
    if not isinstance(lattice, dict):
        raise DocumentError("lattice: expected an object")
    alpha = _pair(lattice.get("alpha"), "lattice.alpha")
    beta = _pair(lattice.get("beta"), "lattice.beta")
    if not covolume(alpha, beta) > 0:
        raise DocumentError("lattice: covolume must be positive (Im(beta/alpha) > 0)")
    tiles = doc.get("tiles")
    if not isinstance(tiles, list) or not tiles:
        raise DocumentError("tiles: expected a non-empty array")
    for i, tile in enumerate(tiles):
        if not isinstance(tile, dict):
            raise DocumentError(f"tiles[{i}]: expected an object")
        corners = tile.get("corners")
        if not isinstance(corners, list) or len(corners) != 6:
            raise DocumentError(f"tiles[{i}].corners: expected 6 points")
        for j, c in enumerate(corners):
            _pair(c, f"tiles[{i}].corners[{j}]")
        labels = tile.get("labels")
        if labels is not None and (
            not isinstance(labels, list)
            or not all(type(k) is int for k in labels)
            or sorted(labels) != [0, 1, 2, 3, 4, 5]
        ):
            raise DocumentError(f"tiles[{i}].labels: expected a permutation of 0..5")
    if not isinstance(doc.get("provenance"), dict):
        raise DocumentError("provenance: expected an object")


def _provenance_json(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_provenance_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _provenance_json(v) for k, v in value.items()}
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    return str(value)


def _validation_json(report: ValidationReport) -> dict:
    c = report.census
    return {
        "passed": report.passed,
        "census": {
            "v": c.v,
            "h": c.h,
            "e": c.e,
            "f": c.f,
            "v_k": [[k, n] for k, n in sorted(c.v_k.items())],
            "h_l": [[k, n] for k, n in sorted(c.h_l.items())],
        },
        "failures": [[code, detail] for code, detail in report.failures],
    }


def document_from_tiling(tiling, validation: ValidationReport | None = None) -> dict:
    doc = {
        "format": FORMAT_TAG,
        "lattice": {
            "alpha": [tiling.alpha.real, tiling.alpha.imag],
            "beta": [tiling.beta.real, tiling.beta.imag],
        },
        "tiles": [
            {
                "corners": [[c.real, c.imag] for c in tile.corners],
                "labels": list(tile.labels),
            }
            for tile in tiling.tiles
        ],
        "provenance": _provenance_json(tiling.provenance),
    }
    if validation is not None:
        doc["validation"] = _validation_json(validation)
    return doc


def tiling_from_document(doc: dict, strict: bool = True):
    """Rebuild a tiling from a parsed document.

    With ``strict`` the result is a TorusTiling, which refuses tiles that do
    not fill the fundamental domain.  Commands that exist to diagnose broken
    documents pass ``strict=False`` and get a plain carrier instead, so the
    validator can report every failure as data.
    """
    alpha = _pair(doc["lattice"]["alpha"], "lattice.alpha")
    beta = _pair(doc["lattice"]["beta"], "lattice.beta")
    tiles = []
    for tile in doc["tiles"]:
        corners = tuple(complex(x, y) for x, y in tile["corners"])
        labels = tuple(tile.get("labels") or range(6))
        tiles.append(Polygon(corners, labels))
    if not strict:
        return SimpleNamespace(
            alpha=alpha,
            beta=beta,
            tiles=tuple(tiles),
            provenance=dict(doc["provenance"]),
        )
    return TorusTiling(alpha, beta, tuple(tiles), dict(doc["provenance"]))


# ---------------------------------------------------------------------------
# file plumbing


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def _load_tiling(path: str, strict: bool = True):
    return tiling_from_document(parse_document(_read_text(path)), strict=strict)


# ---------------------------------------------------------------------------
# renderers


def write_pgm(grid) -> bytes:
    """P5 image of a RegionGrid; 255 marks members, top row is largest y."""
    header = f"P5\n{grid.nx} {grid.ny}\n255\n".encode("ascii")
    rows = np.where(grid.bits[::-1], 255, 0).astype(np.uint8)
    return header + rows.tobytes()


_PALETTES = {
    "type_i": {0: "#2ca02c", 1: "#1f77b4", 2: "#d62728", 5: "#d62728"},
    "type_ii": {1: "#d62728", 3: "#d62728", 2: "#1f77b4", 5: "#1f77b4"},
    "type_iii": {
        0: "#d62728",
        1: "#d62728",
        2: "#2ca02c",
        3: "#2ca02c",
        4: "#1f77b4",
        5: "#1f77b4",
    },
    "central": {
        0: "#d62728",
        3: "#d62728",
        1: "#1f77b4",
        4: "#1f77b4",
        2: "#2ca02c",
        5: "#2ca02c",
    },
}
_PALETTES["strip"] = _PALETTES["type_i"]


def _doc_kind(provenance: dict) -> str:
    kind = provenance.get("kind", "")
    if kind == "cover" and isinstance(provenance.get("source"), dict):
        return _doc_kind(provenance["source"])
    return kind


def _side_label(labels, j: int) -> int:
    nxt = labels[(j + 1) % 6]
    if nxt == (labels[j] + 1) % 6:
        return labels[j]
    return nxt


def write_svg(tiling, extent: int = 1) -> str:
    """SVG drawing of extent x extent fundamental-domain translates."""
    if extent < 1:
        raise ValueError("extent must be at least 1")
    palette = _PALETTES.get(_doc_kind(tiling.provenance), {})
    alpha, beta = tiling.alpha, tiling.beta
    xs: list[float] = []
    ys: list[float] = []
    fills: list[str] = []
    strokes: list[str] = []
    for k in range(extent):
        for j in range(extent):
            shift = k * alpha + j * beta
            for tile in tiling.tiles:
                corners = [c + shift for c in tile.corners]
                pts = " ".join(f"{c.real:.9g},{-c.imag:.9g}" for c in corners)
                fills.append(f'<polygon points="{pts}" fill="#f5f5f0" stroke="none"/>')
                for s in range(6):
                    a = corners[s]
                    b = corners[(s + 1) % 6]
                    color = palette.get(_side_label(tile.labels, s), "#000000")
                    strokes.append(
                        f'<line x1="{a.real:.9g}" y1="{-a.imag:.9g}" '
                        f'x2="{b.real:.9g}" y2="{-b.imag:.9g}" '
                        f'stroke="{color}"/>'
                    )
                xs.extend(c.real for c in corners)
                ys.extend(-c.imag for c in corners)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    margin = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    width = x1 - x0 + 2 * margin
    height = y1 - y0 + 2 * margin
    stroke_width = 0.004 * max(width, height)
    body = "\n".join(fills + strokes)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0 - margin:.9g} {y0 - margin:.9g} {width:.9g} {height:.9g}">\n'
        f'<g stroke-width="{stroke_width:.9g}" stroke-linecap="round">\n'
        f"{body}\n"
        "</g>\n</svg>\n"
    )


def _records(fmt: str, rows: np.ndarray) -> str:
    """One fmt record per row of a 2-d array, formatted with one % operation."""
    return (fmt * len(rows)) % tuple(rows.ravel().tolist())


def write_obj(mesh) -> str:
    """ASCII OBJ: v/vt/f records grouped as tile_<i>, l records for edges.

    Records are formatted in bulk: one % operation for the vertices, one
    for the uv, one per face group and one per polyline.
    """
    vertex = "v %.9g %.9g %.9g\n"
    parts = [_records(vertex, mesh.vertices), _records("vt %.9g %.9g\n", mesh.uv)]
    # faces by group, in mesh order within each group
    by_group = np.argsort(mesh.groups, kind="stable")
    groups = mesh.groups[by_group]
    heads = np.flatnonzero(np.r_[len(groups) > 0, groups[1:] != groups[:-1]])
    faces = np.repeat(mesh.quads[by_group] + 1, 2, axis=1)
    for gid, run in zip(groups[heads].tolist(), np.split(faces, heads[1:])):
        parts.append(f"g tile_{gid}\n")
        parts.append(_records("f %d/%d %d/%d %d/%d %d/%d\n", run))
    base = len(mesh.vertices)
    for i, polyline in enumerate(mesh.polylines):
        parts.append(f"g tile_{i}_edges\n")
        parts.append(_records(vertex, polyline))
        parts.append("l " + " ".join(map(str, range(base + 1, base + len(polyline) + 1))) + "\n")
        base += len(polyline)
    return "".join(parts) or "\n"  # an empty mesh is one empty line


# ---------------------------------------------------------------------------
# argument helpers


def _parse_complex(text: str, allow_w3: bool = False) -> complex:
    if allow_w3 and text.strip().lower() in ("w3", "omega3"):
        return OMEGA3
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}") from exc


def _parse_tau(text: str) -> complex:
    return _parse_complex(text, allow_w3=True)


def _parse_embed(text: str):
    from .embed import CurveParams, OMEGA3_CURVE

    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "rect":
        if not rest:
            return ("rect", None)
        try:
            return ("rect", float(rest))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected rect or rect:A, got {text!r}") from None
    if head == "hopf":
        if rest.strip().lower() in ("w3", "omega3"):
            return ("hopf", OMEGA3_CURVE)
        try:
            a, b, k = rest.split(",")
            a, b, k = float(a), float(b), int(k)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected hopf:a,b,k with an integer k, or hopf:w3, got {text!r}"
            ) from None
        try:
            return ("hopf", CurveParams(a, b, k))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown embedding {text!r}")


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
        if 0.0 <= tol < math.inf:
            return tol
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def _require(args, names: list[str], kind: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise ValueError(f"--type {kind} requires {flags}")


# ---------------------------------------------------------------------------
# subcommands


# per construct --type: the flags it needs and the constructor call
_CONSTRUCTORS = {
    "i": (["tau", "i", "t"], lambda a: type_i_minimal(a.tau, (a.i, a.t))),
    "ii": (["y", "i", "t"], lambda a: type_ii_minimal(a.y, (a.i, a.t))),
    "iii": (["p"], lambda a: type_iii_minimal(a.p)),
    "cs": (["alpha", "beta", "u"], lambda a: central_minimal(a.alpha, a.beta, a.u)),
    "strip": (
        ["h", "w", "s", "i", "t", "signs"],
        lambda a: strip_tiling(a.h, a.w, a.s, (a.i, a.t), a.signs),
    ),
}

# per moduli sample --type: the flags of its fixed parameters, in order
_MODULI_FIXED = {"i": ["tau", "i"], "ii": ["y", "i"], "iii": [], "cs": ["alpha", "beta"]}


def _cmd_construct(args) -> int:
    flags, build = _CONSTRUCTORS[args.type]
    _require(args, flags, args.type)
    tiling = build(args)
    _write_text(args.output, serialize_document(document_from_tiling(tiling)))
    return 0


def _cmd_validate(args) -> int:
    tiling = _load_tiling(args.doc, strict=False)
    report = validate(tiling, tol=args.tol)
    c = report.census
    print(f"passed: {'yes' if report.passed else 'no'}")
    print(f"census: f={c.f} v={c.v} e={c.e} h={c.h}")
    for code, detail in report.failures:
        print(f"fail: {code}: {detail}")
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    tiling = _load_tiling(args.doc, strict=False)
    report = classify(spec_from_polygon(tiling.tiles[0]), tol=args.tol)
    for name in ("type_i", "type_ii", "type_iii", "central"):
        residual = getattr(report, "residual_" + name.removeprefix("type_"))
        print(f"{name}: {'yes' if getattr(report, name) else 'no'} (residual {residual:.3e})")
    for kind in ("i", "ii", "iii", "central", "strip"):
        print(f"generic_{kind}: {'yes' if getattr(report, 'generic_' + kind) else 'no'}")
    return 0


def _cmd_cover(args) -> int:
    tiling = _load_tiling(args.doc)
    cover = build_cover(tiling, HnfTriple(args.m, args.n, args.l))
    _write_text(args.output, serialize_document(document_from_tiling(cover)))
    return 0


def _cmd_enumerate(args) -> int:
    rows = enumerate_coverings(args.type, args.tau, args.tiles, bound=args.bound)
    print(f"# type {args.type}: {len(rows)} covering(s) with {args.tiles} tiles")
    for triple, tau_min in rows:
        print(
            f"({triple.m},{triple.n};{triple.l}) "
            f"tau_min={tau_min.real:.9g},{tau_min.imag:.9g}"
        )
    return 0


def _cmd_moduli_sample(args) -> int:
    from .moduli import sample_region

    names = _MODULI_FIXED[args.type]
    _require(args, names, args.type)
    nx, ny = args.grid
    fixed = tuple(getattr(args, name) for name in names)
    grid = sample_region(args.type, fixed, bbox=args.bbox, nx=nx, ny=ny)
    _write_bytes(args.output, write_pgm(grid))
    return 0


def _cmd_render_svg(args) -> int:
    tiling = _load_tiling(args.doc)
    _write_text(args.output, write_svg(tiling, extent=args.extent))
    return 0


def _cmd_render_obj(args) -> int:
    from .embed import HopfEmbedding, RectEmbedding, drape_tiling

    tiling = _load_tiling(args.doc)
    family, param = args.embed
    if family == "rect":
        if param is None:
            tau = tiling.modulus
            if abs(tau.real) > 1e-9:
                raise ValueError(
                    f"tiling modulus {tau} is not rectangular; pass --embed rect:A"
                )
            param = tau.imag
        target = RectEmbedding(param)
    else:
        target = HopfEmbedding(param)
    mesh = drape_tiling(tiling, target, surface_res=args.res, subdivisions=args.subdiv)
    _write_text(args.output, write_obj(mesh))
    return 0


def _grid_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected NX,NY, got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _bbox_quad(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected X0,X1,Y0,Y1, got {text!r}")
    return tuple(float(p) for p in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hextorus",
        description="Monohedral hexagonal tilings of flat tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a minimal tiling")
    p.add_argument("--type", required=True, choices=["i", "ii", "iii", "cs", "strip"])
    p.add_argument("--tau", type=_parse_tau, help="modulus RE,IM (or w3)")
    p.add_argument("--i", type=_parse_complex, help="free vector base point RE,IM")
    p.add_argument("--t", type=_parse_complex, help="free vector tip RE,IM")
    p.add_argument("--y", type=float, help="rectangular modulus height")
    p.add_argument("--p", type=_parse_tau, help="type iii free point RE,IM")
    p.add_argument("--alpha", type=_parse_complex, help="lattice generator RE,IM")
    p.add_argument("--beta", type=_parse_complex, help="lattice generator RE,IM")
    p.add_argument("--u", type=_parse_complex, help="central free vector RE,IM")
    p.add_argument("--h", type=float, help="strip height")
    p.add_argument("--w", type=float, help="strip period width")
    p.add_argument("--s", type=float, help="strip shear per period")
    p.add_argument("--signs", help="strip sign word, e.g. ++- (use --signs=+- form)")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("validate", help="check a tiling document")
    p.add_argument("doc", nargs="?", default="-")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="classify the prototile")
    p.add_argument("doc", nargs="?", default="-")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cover", help="build a covering tiling")
    p.add_argument("doc", nargs="?", default="-")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("enumerate", help="list coverings with a given tile count")
    p.add_argument("--type", required=True, choices=["i", "ii", "iii", "cs"])
    p.add_argument("--tau", type=_parse_tau, required=True)
    p.add_argument("--tiles", type=int, required=True)
    p.add_argument("--bound", type=int, default=64)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("moduli", help="moduli space tools")
    msub = p.add_subparsers(dest="moduli_command", required=True)
    ps = msub.add_parser("sample", help="sample a moduli region to PGM")
    ps.add_argument("--type", required=True, choices=["i", "ii", "iii", "cs"])
    ps.add_argument("--tau", type=_parse_tau)
    ps.add_argument("--i", type=_parse_complex)
    ps.add_argument("--y", type=float)
    ps.add_argument("--alpha", type=_parse_complex)
    ps.add_argument("--beta", type=_parse_complex)
    ps.add_argument("--grid", type=_grid_pair, default=(512, 512))
    ps.add_argument("--bbox", type=_bbox_quad, default=None)
    ps.add_argument("-o", "--output", default="-")
    ps.set_defaults(func=_cmd_moduli_sample)

    p = sub.add_parser("render", help="render a tiling")
    rsub = p.add_subparsers(dest="render_command", required=True)
    pr = rsub.add_parser("svg", help="flat drawing with side colors")
    pr.add_argument("doc", nargs="?", default="-")
    pr.add_argument("--extent", type=int, default=1)
    pr.add_argument("-o", "--output", default="-")
    pr.set_defaults(func=_cmd_render_svg)
    pr = rsub.add_parser("obj", help="conformal 3d mesh")
    pr.add_argument("doc", nargs="?", default="-")
    pr.add_argument("--embed", type=_parse_embed, required=True)
    pr.add_argument("--res", type=int, default=96)
    pr.add_argument("--subdiv", type=int, default=32)
    pr.add_argument("-o", "--output", default="-")
    pr.set_defaults(func=_cmd_render_obj)

    return parser


# the variables OpenBLAS reads for its thread count when numpy starts
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    # hextorus's BLAS calls are (n, 2) @ (2, 2) products and 2x2 inverses,
    # which gain nothing from worker threads, and starting them costs a cold
    # command about 70 ms; a user's own setting wins, and a numpy already
    # started keeps its threads
    if "numpy._core" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
