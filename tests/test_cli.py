"""End-to-end tests of the command line interface, run in process."""

from __future__ import annotations

import io
import json
import math
import random
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hextorus.cli import (
    FORMAT_TAG,
    DocumentError,
    main,
    parse_document,
    serialize_document,
    tiling_from_document,
    write_svg,
)
from hextorus.construct import GenericityWarning, TorusTiling
from hextorus.geom import Polygon

warnings.simplefilter("ignore", GenericityWarning)

# equals form throughout: values like -0.15,0.25 would otherwise be taken
# for option strings by argparse
CONSTRUCT_ARGS = {
    "i": ["--type=i", "--tau=0,0.6", "--i=0.2,0.2", "--t=-0.15,0.25"],
    "ii": ["--type=ii", "--y=1", "--i=0.35,0.05", "--t=0.12,0.15"],
    "iii": ["--type=iii", "--p=0.05,0.22"],
    "cs": ["--type=cs", "--alpha=1.4,0.5", "--beta=0.2,0.8", "--u=0.6,0.4"],
    "strip": [
        "--type=strip",
        "--h=1.2",
        "--w=0.9",
        "--s=0.15",
        "--i=0.3,0.45",
        "--t=0.2,0.525",
        "--signs=+-",
    ],
}


# a value each type flag parses, to offer it to the types that do not take it
FLAG_VALUES = {
    "tau": "0,1", "i": "0.1,0.1", "t": "0.2,0.1", "y": "3", "p": "0.05,0.22",
    "alpha": "1,0", "beta": "0,1", "u": "0.5,0.5", "h": "1", "w": "1", "s": "0",
    "signs": "+-",
}


def foreign_flags(argv: list[str], flags) -> list[str]:
    """The flags a --type's argv does not give, of those named."""
    given = {arg.partition("=")[0].removeprefix("--") for arg in argv}
    return [flag for flag in flags if flag not in given]


def construct_doc(tmp_path, kind: str, name: str = "tiling.json") -> str:
    path = str(tmp_path / name)
    assert main(["construct", *CONSTRUCT_ARGS[kind], "-o", path]) == 0
    return path


def usage_error(capsys, argv: list[str]) -> str:
    """The error line argparse prints for argv, after checking it exits 2."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: hextorus ")
    return lines[-1]


class TestConstructAndValidate:
    @pytest.mark.parametrize("kind", sorted(CONSTRUCT_ARGS))
    def test_construct_then_validate(self, tmp_path, capsys, kind):
        path = construct_doc(tmp_path, kind)
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "passed: yes" in out

    def test_document_structure(self, tmp_path):
        path = construct_doc(tmp_path, "i")
        doc = json.loads(Path(path).read_text())
        assert doc["format"] == FORMAT_TAG
        assert len(doc["tiles"]) == 2
        assert all(len(t["corners"]) == 6 for t in doc["tiles"])
        assert doc["provenance"]["kind"] == "type_i"

    def test_construct_to_stdout(self, capsys):
        assert main(["construct", *CONSTRUCT_ARGS["iii"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["tiles"]) == 3

    def test_perturbed_corner_fails_validation(self, tmp_path, capsys):
        path = construct_doc(tmp_path, "i")
        doc = json.loads(Path(path).read_text())
        doc["tiles"][0]["corners"][0][0] += 1e-3
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert main(["validate", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "passed: no" in out
        assert "fail: unmatched-side" in out

    def test_missing_parameters_reported(self, capsys):
        assert main(["construct", "--type", "i", "--tau", "0,0.6"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--i" in err and "--t" in err

    @pytest.mark.parametrize("kind", sorted(CONSTRUCT_ARGS))
    def test_flags_of_other_types_refused(self, tmp_path, capsys, kind):
        out = tmp_path / "tiling.json"
        for flag in foreign_flags(CONSTRUCT_ARGS[kind], FLAG_VALUES):
            argv = ["construct", *CONSTRUCT_ARGS[kind], f"--{flag}={FLAG_VALUES[flag]}"]
            assert main([*argv, "-o", str(out)]) == 1
            assert capsys.readouterr().err == f"error: --type {kind} does not take --{flag}\n"
        assert not out.exists()

    def test_every_foreign_flag_is_named(self, capsys):
        assert main(["construct", "--type=iii", "--p=0.05,0.22", "--tau=0,1", "--y=3"]) == 1
        assert capsys.readouterr().err == "error: --type iii does not take --tau, --y\n"

    def test_bad_flag_value_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["construct", "--type", "nope"])
        with pytest.raises(SystemExit):
            main(["construct", "--type", "i", "--tau", "zzz"])


class TestDocumentRoundTrip:
    def test_serialize_parse_byte_identity(self, tmp_path):
        path = construct_doc(tmp_path, "cs")
        text = Path(path).read_text()
        assert serialize_document(parse_document(text)) == text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_not_serialized(self, value):
        with pytest.raises(DocumentError, match=f"^cannot serialize the number {value!r}$"):
            serialize_document({"provenance": {"note": [1.0, value]}})

    def test_corners_survive_bit_exact(self, tmp_path):
        path = construct_doc(tmp_path, "iii")
        tiling = tiling_from_document(parse_document(Path(path).read_text()))
        reserialized = serialize_document(parse_document(Path(path).read_text()))
        again = tiling_from_document(parse_document(reserialized))
        for a, b in zip(tiling.tiles, again.tiles):
            assert a.corners == b.corners

    def test_keys_the_writer_does_not_write_are_kept(self, tmp_path, capsys):
        """A document with a validation report and another extra key still
        parses, validates and round-trips byte for byte."""
        doc = parse_document(Path(construct_doc(tmp_path, "ii")).read_text())
        doc["validation"] = {"passed": True, "census": {"v": 8, "h": 8}, "failures": []}
        doc["note"] = "written by another tool"
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text
        path = tmp_path / "extra.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 0
        assert "passed: yes" in capsys.readouterr().out

    def test_malformed_json_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_format_tag_reports_field(self, tmp_path, capsys):
        path = construct_doc(tmp_path, "i")
        doc = json.loads(Path(path).read_text())
        doc["format"] = "something-else"
        (tmp_path / "tag.json").write_text(json.dumps(doc))
        assert main(["validate", str(tmp_path / "tag.json")]) == 1
        assert "format: expected" in capsys.readouterr().err

    def test_bad_labels_report_path(self, tmp_path, capsys):
        path = construct_doc(tmp_path, "i")
        doc = json.loads(Path(path).read_text())
        doc["tiles"][0]["labels"] = [0, 1, 2, 3, 4, 4]
        (tmp_path / "labels.json").write_text(json.dumps(doc))
        assert main(["validate", str(tmp_path / "labels.json")]) == 1
        assert "tiles[0].labels" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("beta", [2.0, 0.0], "lattice: covolume"),  # beta parallel to alpha
            ("beta", [float("nan"), 0.6], "lattice.beta"),
            ("labels", [0.0, 1, 2, 3, 4, 5.0], "tiles[0].labels"),
        ],
        ids=["zero-covolume", "nan-generator", "float-labels"],
    )
    def test_malformed_document_is_one_error_line(
        self, tmp_path, capsys, field, value, where
    ):
        path = construct_doc(tmp_path, "i")
        doc = json.loads(Path(path).read_text())
        if field == "labels":
            doc["tiles"][0]["labels"] = value
        else:
            doc["lattice"][field] = value
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert main(["validate", str(tmp_path / "bad.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {where}")

    @staticmethod
    def scaled_readme_doc(tmp_path, scale):
        """The README's 2-tile document with lattice and corners scaled."""
        path = tmp_path / "two_tile.json"
        assert main(
            ["construct", "--type=i", "--tau=0,0.6", "--i=0.24,0.17", "--t=-0.18,0.27",
             "-o", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        doc["lattice"] = {k: [x * scale for x in v] for k, v in doc["lattice"].items()}
        for tile in doc["tiles"]:
            tile["corners"] = [[x * scale, y * scale] for x, y in tile["corners"]]
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_coordinates_up_to_1e150_give_no_numpy_warning(self, tmp_path, capsys, command):
        path = self.scaled_readme_doc(tmp_path, 1e150)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            main([command, path])
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_huge_coordinates_are_one_error_line(self, tmp_path, capsys, command, scale):
        path = self.scaled_readme_doc(tmp_path, scale)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, path]) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: lattice.alpha: coordinates must not exceed 1e+150")

    def test_one_huge_corner_is_one_error_line(self, tmp_path, capsys):
        path = self.scaled_readme_doc(tmp_path, 1.0)
        doc = json.loads(Path(path).read_text())
        doc["tiles"][1]["corners"][4] = [0.5, -2e150]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert main(["validate", str(tmp_path / "bad.json")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: tiles[1].corners[4]: coordinates must not exceed")

    def test_overflowing_parameter_is_the_non_member_error(self, tmp_path, capsys):
        # a side of the hexagon too long for Python's abs
        args = ["--type=cs", "--alpha=1,0", "--beta=0,1", "--u=7e307,7e307"]
        assert main(["construct", *args, "-o", str(tmp_path / "x.json")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: hexagon is not simple: degenerate involving corners/sides 0 and 1"]

    def test_missing_file_is_an_error_not_a_crash(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stdin_dash_path(self, tmp_path, capsys, monkeypatch):
        path = construct_doc(tmp_path, "i")
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(path).read_text()))
        assert main(["validate", "-"]) == 0
        assert "passed: yes" in capsys.readouterr().out


class TestClassifyCommand:
    def test_type_flags_printed(self, tmp_path, capsys):
        path = construct_doc(tmp_path, "i")
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "type_i: yes" in out
        assert "central: no" in out
        assert "generic_i:" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["validate", "classify"])
def test_non_finite_or_negative_tolerance_is_a_usage_error(
    tmp_path, capsys, command, value
):
    path = construct_doc(tmp_path, "i")
    line = usage_error(capsys, [command, path, f"--tol={value}"])
    assert line == (
        f"hextorus {command}: error: argument --tol: "
        f"expected a finite number >= 0, got {value!r}"
    )


class TestCoverCommand:
    def test_cover_multiplies_tiles(self, tmp_path, capsys):
        path = construct_doc(tmp_path, "i")
        out_path = str(tmp_path / "cover.json")
        assert main(["cover", path, "--m", "1", "--n", "3", "--l", "0", "-o", out_path]) == 0
        doc = json.loads(Path(out_path).read_text())
        assert len(doc["tiles"]) == 6
        assert main(["validate", out_path]) == 0
        assert "census: f=6" in capsys.readouterr().out

    def test_cover_past_the_cap_is_one_error_line(self, tmp_path, capsys):
        # the README's 2-tile document: m = n = 10**4 asks for 2 * 10**8 tiles
        path = str(tmp_path / "two_tile.json")
        readme = ["--type=i", "--tau=0,0.6", "--i=0.24,0.17", "--t=-0.18,0.27"]
        assert main(["construct", *readme, "-o", path]) == 0
        out_path = tmp_path / "cover.json"
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["cover", path, "--m=10000", "--n=10000", "--l=1", "-o", str(out_path)]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and not out_path.exists()
        assert captured.err.splitlines() == [
            "error: cover tile count must be at most 1048576, got 200000000"
        ]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_provenance_is_one_error_line_and_no_file(self, tmp_path, capsys, value):
        # the parser takes NaN and Infinity, but JSON has no such number, so
        # a document written with one could not be read back
        path = construct_doc(tmp_path, "cs")
        doc = json.loads(Path(path).read_text())
        doc["provenance"]["note"] = value
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        out_path = tmp_path / "cover.json"
        capsys.readouterr()
        argv = ["cover", str(tmp_path / "bad.json"), "--m=1", "--n=2", "--l=0", "-o", str(out_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: cannot serialize the number {value!r}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "tiling.json"]


class TestEnumerateCommand:
    TAU = f"0,{2 * math.sqrt(3)}"

    def test_type_iii_single_row(self, capsys):
        assert main(["enumerate", "--type", "iii", "--tau", self.TAU, "--tiles", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "1 covering(s) with 12 tiles" in lines[0]
        assert lines[1].startswith("(1,4;0) tau_min=-0.5,")

    def test_type_ii_two_rows(self, capsys):
        assert main(["enumerate", "--type", "ii", "--tau", self.TAU, "--tiles", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("(1,3;0)")
        assert lines[2].startswith("(3,1;0)")

    def test_bad_tile_count_errors(self, capsys):
        assert main(["enumerate", "--type", "ii", "--tau", self.TAU, "--tiles", "10"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, tiles", [("i", 4), ("cs", 2)])
    def test_non_finite_minimal_modulus_is_one_error_line(self, capsys, kind, tiles):
        assert main(["enumerate", f"--type={kind}", "--tau=0,1.7e308", f"--tiles={tiles}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: the minimal modulus for (2,1;0) is not finite")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--type=cs", "--tau=0,1", "--tiles=1000000000000"], "index 1000000000000 has more than 1048576 HNF triples"),
        ],
        ids=["tiles"],
    )
    def test_unbounded_work_is_one_error_line(self, capsys, args, message):
        start = time.perf_counter()
        assert main(["enumerate", *args]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


class TestModuliSampleCommand:
    def test_pgm_output_deterministic(self, tmp_path):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        args = ["moduli", "sample", "--type", "iii", "--grid", "64,64"]
        assert main([*args, "-o", str(a)]) == 0
        assert main([*args, "-o", str(b)]) == 0
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert data.startswith(b"P5\n64 64\n255\n")
        assert len(data) == len(b"P5\n64 64\n255\n") + 64 * 64
        assert 255 in data[-64 * 64 :]

    def test_missing_fixed_parameters(self, capsys):
        assert main(["moduli", "sample", "--type", "i", "--grid", "32,32"]) == 1
        assert "--tau" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, fixed",
        [
            ("i", ["--tau=0,1", "--i=0.1,0.1"]),
            ("ii", ["--y=1", "--i=0.1,0.1"]),
            ("iii", []),
            ("cs", ["--alpha=1,0", "--beta=0,1"]),
        ],
    )
    def test_flags_of_other_types_refused(self, tmp_path, capsys, kind, fixed):
        out = tmp_path / "region.pgm"
        argv = ["moduli", "sample", f"--type={kind}", *fixed, "--grid=4,4", "-o", str(out)]
        assert main(argv) == 0
        out.unlink()
        for flag in foreign_flags(fixed, ("tau", "i", "y", "alpha", "beta")):
            assert main([*argv, f"--{flag}={FLAG_VALUES[flag]}"]) == 1
            assert capsys.readouterr().err == f"error: --type {kind} does not take --{flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, form",
        [
            (["moduli", "sample", "--type=iii", "--grid=3,4.5"], "NX,NY"),
            (["moduli", "sample", "--type=iii", "--bbox=0,1,a,2"], "X0,X1,Y0,Y1"),
            (["construct", "--type=iii", "--p=1,x"], "RE,IM"),
            (["construct", "--type=iii", "--p=w3"], "RE,IM"),
        ],
    )
    def test_bad_comma_list_names_its_form(self, capsys, argv, form):
        flag, _, value = argv[-1].partition("=")
        line = usage_error(capsys, argv)
        assert line.endswith(f"argument {flag}: expected {form}, got {value!r}")

    @pytest.mark.parametrize("grid", ["0,0", "-3,4", "4,-3", "1,4"])
    def test_grid_below_two_by_two_is_one_error_line(self, tmp_path, capsys, grid):
        nx, ny = map(int, grid.split(","))
        name, value = ("nx", nx) if nx < 2 else ("ny", ny)
        out = tmp_path / "region.pgm"
        args = ["moduli", "sample", "--type=iii", f"--grid={grid}", "-o", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {name} must be at least 2, got {value}"]
        assert not out.exists()

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_non_finite_bbox_is_one_error_line(self, tmp_path, capsys, slot, value):
        bbox = ["0", "1", "0", "1"]
        bbox[slot] = value
        out = tmp_path / "region.pgm"
        args = ["moduli", "sample", "--type=iii", "--grid=4,4", f"--bbox={','.join(bbox)}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*args, "-o", str(out)]) == 1
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bbox must be finite")
        assert not out.exists()


@pytest.mark.parametrize(
    "where, argv",
    [
        ("moduli.sample_region", ["moduli", "sample", "--type=iii", "--grid=300000,300000"]),
        ("embed.drape_tiling", ["render", "obj", "DOC", "--embed=rect", "--res=200000"]),
    ],
)
@pytest.mark.parametrize(
    "message, line",
    [
        (
            "Unable to allocate 83.8 GiB for an array with shape (300000, 300000) and data type bool",
            "error: out of memory (Unable to allocate 83.8 GiB for an array with shape (300000, 300000) "
            "and data type bool)",
        ),
        ("", "error: out of memory"),
    ],
)
def test_a_refused_allocation_is_one_error_line(tmp_path, capsys, monkeypatch, where, argv, message, line):
    # the allocation is refused by a stand-in, never made
    module, name = where.split(".")

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    argv = [construct_doc(tmp_path, "i") if arg == "DOC" else arg for arg in argv]
    monkeypatch.setattr(f"hextorus.{module}.{name}", refuse)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
    assert not out.exists()


class TestRenderSvg:
    def test_svg_parses_with_expected_shapes(self, tmp_path):
        path = construct_doc(tmp_path, "i")
        out_path = str(tmp_path / "tiling.svg")
        assert main(["render", "svg", path, "-o", out_path]) == 0
        root = ET.parse(out_path).getroot()
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib
        ns = "{http://www.w3.org/2000/svg}"
        polygons = root.findall(f".//{ns}polygon")
        lines = root.findall(f".//{ns}line")
        assert len(polygons) == 2
        assert len(lines) == 12

    def test_extent_scales_counts(self, tmp_path):
        path = construct_doc(tmp_path, "iii")
        out_path = str(tmp_path / "tiling.svg")
        assert main(["render", "svg", path, "--extent", "2", "-o", out_path]) == 0
        root = ET.parse(out_path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}polygon")) == 3 * 4

    def test_extent_must_be_integral(self, tmp_path):
        with open(construct_doc(tmp_path, "iii")) as fh:
            tiling = tiling_from_document(parse_document(fh.read()))
        with pytest.raises(ValueError, match=r"^extent must be an integer, got 1\.5$"):
            write_svg(tiling, extent=1.5)
        assert write_svg(tiling, extent=2.0) == write_svg(tiling, extent=2)

    @pytest.mark.parametrize("extent,copies", [(100000000, 2 * 10**16), (257, 132098)])
    def test_extent_past_the_cap_is_one_error_line(self, tmp_path, capsys, extent, copies):
        # the README's 2-tile document: extent 256 draws 2 * 256**2 = 2**17
        # tile copies, the most write_svg draws, so 257 is the first refused
        path = str(tmp_path / "two_tile.json")
        readme = ["--type=i", "--tau=0,0.6", "--i=0.24,0.17", "--t=-0.18,0.27"]
        assert main(["construct", *readme, "-o", path]) == 0
        out_path = tmp_path / "two_tile.svg"
        assert main(["render", "svg", path, "--extent", str(extent), "-o", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out_path.exists()
        assert captured.err.splitlines() == [
            f"error: extent {extent} draws {copies} tile copies, over the 131072 cap"
        ]

    @pytest.mark.parametrize(
        "corners",
        [(0, 1, 1 + 1j, 1j), (0, 0.5, 1, 1 + 0.5j, 1 + 1j, 0.5 + 1j, 1j, 0.5j)],
        ids=["4 corners", "8 corners"],
    )
    def test_every_side_of_a_tile_is_drawn(self, corners):
        # validate reports such carriers as data, so they must draw
        tile = Polygon(corners)
        root = ET.fromstring(write_svg(TorusTiling(1, 1j, [tile])))
        ns = "{http://www.w3.org/2000/svg}"
        drawn = []
        for line in root.findall(f".//{ns}line"):
            x1, y1, x2, y2 = (float(line.get(k)) for k in ("x1", "y1", "x2", "y2"))
            drawn.append((complex(x1, -y1), complex(x2, -y2)))  # the SVG's y runs down
        c = tile.corners
        assert drawn == [(c[k], c[(k + 1) % len(c)]) for k in range(len(c))]

    @pytest.mark.parametrize("where", ["kind", "source-kind"])
    def test_kind_not_a_string_gets_no_palette(self, tmp_path, capsys, where):
        # as an unknown kind does: every side black
        path = construct_doc(tmp_path, "i")
        cover = str(tmp_path / "cover.json")
        assert main(["cover", path, "--m=1", "--n=2", "--l=0", "-o", cover]) == 0
        doc = json.loads(Path(cover).read_text())
        if where == "kind":
            doc["provenance"]["kind"] = ["x"]
        else:
            doc["provenance"]["source"]["kind"] = {}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        out_path = str(tmp_path / "tiling.svg")
        assert main(["render", "svg", str(tmp_path / "bad.json"), "-o", out_path]) == 0
        assert capsys.readouterr().err == ""
        ns = "{http://www.w3.org/2000/svg}"
        lines = ET.parse(out_path).getroot().findall(f".//{ns}line")
        assert len(lines) == 24 and {line.get("stroke") for line in lines} == {"#000000"}


# what a mutation puts in place of a value, or None to delete the entry
MUTANTS = [
    lambda: None, lambda: True, lambda: False, lambda: math.nan, lambda: 1e308, lambda: -1e308,
    lambda: "x", lambda: [0.5, 1], lambda: {"kind": "type_i"},
]
DROP = "drop"


def entries(node, path=()):
    """The path of every entry below a parsed document's root, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from entries(value, path + (key,))


def mutate(doc, rng: random.Random) -> None:
    """Replace one entry of the document by a mutant, or delete it."""
    *parents, key = rng.choice(list(entries(doc)))
    parent = doc
    for step in parents:
        parent = parent[step]
    mutant = rng.choice(MUTANTS + [DROP])
    if mutant is DROP:
        del parent[key]
    else:
        parent[key] = mutant()


def run_in_process(capsys, argv) -> tuple[int, str]:
    """main's exit code for argv (2 for an argparse exit) and its stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("seed", range(4))
def test_mutated_documents_never_crash(tmp_path, capsys, seed):
    # each command returns 0 or 1, or exits 2 through argparse, with at most
    # one error line; an exception or a RuntimeWarning (an error under the
    # pytest settings) fails the test
    rng = random.Random(seed)
    sources = {
        kind: json.loads(Path(construct_doc(tmp_path, kind)).read_text()) for kind in CONSTRUCT_ARGS
    }
    bad, out = str(tmp_path / "bad.json"), str(tmp_path / "out")
    commands = [
        ["validate", bad], ["classify", bad], ["cover", bad, "--m=1", "--n=2", "--l=0", "-o", out],
        ["render", "svg", bad, "-o", out], ["render", "obj", bad, "--embed=rect", "--res=8", "-o", out],
    ]
    capsys.readouterr()
    for _ in range(100):
        doc = json.loads(json.dumps(sources[rng.choice(sorted(sources))]))
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng)
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        for argv in commands:
            code, err = run_in_process(capsys, argv)
            assert code in (0, 1, 2), (argv, doc)
            assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, (argv, doc, err)


def nested_document(tmp_path, name: str) -> str:
    """A valid document whose extra key holds 100,000 nested arrays, or whose
    provenance nests 990 or 900 cover sources, written as text."""
    with open(construct_doc(tmp_path, "i")) as fh:
        doc = json.load(fh)
    provenance = json.dumps(doc.pop("provenance"))
    head = json.dumps(doc)[:-1] + ', "provenance": '
    if name == "arrays":
        return head + provenance + ', "extra": ' + "[" * 100_000 + "]" * 100_000 + "}"
    levels = int(name)
    return head + '{"kind": "cover", "source": ' * levels + provenance + "}" * levels + "}"


@pytest.mark.parametrize("name", ["arrays", "990", "900"])
def test_deeply_nested_documents_never_crash(tmp_path, capsys, name):
    # every command handles the document or refuses it alike, with one error
    # line; the first two are past what the parser can follow
    path, out = str(tmp_path / "deep.json"), str(tmp_path / "out")
    (tmp_path / "deep.json").write_text(nested_document(tmp_path, name))
    commands = [
        ["validate", path], ["classify", path],
        ["cover", path, "--m=1", "--n=2", "--l=0", "-o", out], ["render", "svg", path, "-o", out],
    ]
    capsys.readouterr()
    codes = []
    for argv in commands:
        code, err = run_in_process(capsys, argv)
        assert code in (0, 1) and "Traceback" not in err, (argv, err)
        assert sum(line.startswith("error:") for line in err.splitlines()) == code, (argv, err)
        codes.append(code)
    assert len(set(codes)) == 1
    assert name == "900" or codes[0] == 1


class TestRenderObj:
    def test_obj_counts(self, tmp_path):
        path = construct_doc(tmp_path, "i")
        out_path = str(tmp_path / "mesh.obj")
        assert main(
            ["render", "obj", path, "--embed", "rect", "--res", "48", "-o", out_path]
        ) == 0
        kinds: dict[str, int] = {}
        groups = []
        for line in Path(out_path).read_text().splitlines():
            head = line.split(" ", 1)[0]
            kinds[head] = kinds.get(head, 0) + 1
            if head == "g":
                groups.append(line.split()[1])
        assert kinds["vt"] == 49 * 49
        assert kinds["f"] == 48 * 48
        assert kinds["v"] == 49 * 49 + 2 * 193
        assert kinds["l"] == 2
        assert groups == ["tile_0", "tile_1", "tile_0_edges", "tile_1_edges"]

    def test_hopf_preset_target(self, tmp_path):
        path = construct_doc(tmp_path, "iii")
        out_path = str(tmp_path / "mesh.obj")
        assert main(
            ["render", "obj", path, "--embed", "hopf:w3", "--res", "48", "-o", out_path]
        ) == 0
        text = Path(out_path).read_text()
        assert "g tile_2" in text

    def test_oblique_modulus_needs_explicit_rect(self, tmp_path, capsys):
        args = CONSTRUCT_ARGS["i"].copy()
        args[args.index("--tau=0,0.6")] = "--tau=0.3,2"
        path = str(tmp_path / "oblique.json")
        assert main(["construct", *args, "-o", path]) == 0
        assert main(["render", "obj", path, "--embed", "rect", "--res", "48"]) == 1
        assert "rect:A" in capsys.readouterr().err

    def test_mismatched_embed_refused(self, tmp_path, capsys):
        path = construct_doc(tmp_path, "i")
        assert main(
            ["render", "obj", path, "--embed", "rect:2", "--res", "48"]
        ) == 1
        assert "reduces to" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "embed,reason",
        [
            (
                "hopf:1,2,3",
                "curve must stay strictly between the poles: "
                "need 0 < a-|b| and a+|b| < pi, got a=1.0, b=2.0",
            ),
            ("rect:x", "expected rect or rect:A, got 'rect:x'"),
            ("hopf:1,2,x", "expected hopf:a,b,k with an integer k, or hopf:w3, got 'hopf:1,2,x'"),
        ],
    )
    def test_bad_embed_is_a_usage_error_with_its_reason(self, tmp_path, capsys, embed, reason):
        path = construct_doc(tmp_path, "i")
        line = usage_error(capsys, ["render", "obj", path, f"--embed={embed}"])
        assert line == f"hextorus render obj: error: argument --embed: {reason}"

    @pytest.mark.parametrize("res", ["0", "-3"])
    @pytest.mark.parametrize("kind,embed", [("i", "rect"), ("iii", "hopf:w3")])
    def test_non_positive_resolution_is_one_error_line(
        self, tmp_path, capsys, kind, embed, res
    ):
        path = construct_doc(tmp_path, kind)
        out_path = tmp_path / "mesh.obj"
        capsys.readouterr()
        assert main(
            ["render", "obj", path, f"--embed={embed}", f"--res={res}", "-o", str(out_path)]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "resolution" in lines[0]
        assert not out_path.exists()
