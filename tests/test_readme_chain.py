"""The README "Quick start (CLI)" chain, run in process, against pinned outputs.

Each command of the README block runs through ``cli.main`` in a scratch
directory. JSON, PGM and SVG files and the printed reports must match the
recorded SHA-256 digests byte for byte. OBJ vertex coordinates go through
numpy's trigonometry, whose last bits may differ between CPUs, so for the two
OBJ files only the ``g``, ``f`` and ``l`` records (digested) and the vertex
count are pinned.
"""

from __future__ import annotations

import hashlib
import pathlib
import shlex
import warnings

from hextorus.cli import main
from hextorus.construct import GenericityWarning

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# outputs of the chain as recorded before the consolidation of the lattice
# helpers; a change here is a change of the tool's observable output
FILE_DIGESTS = {
    "two_tile.json": "813c056e971dfd8c459ad23f9a518740ff5a7bebfba349685cc820a4ba04e646",
    "cover.json": "34d6316597074e6497b52e9b28d79ece18aab805d29b7dcf77f0c4f467cd0f18",
    "star.pgm": "a958a61d686b11d5f59e92eb742806f7ee1e8227c0222301e4e1c9c75b589e99",
    "two_tile.svg": "b778ed07b6a7152478c8c0df56dc2a3d6de537787c39d43ca9a633fdfea804e4",
    "star_tiling.json": "e212657efc7999e09953793ca2a77193bb3decedd8c32d6d1ab166c654841651",
}
STDOUT_DIGESTS = {
    "validate": "b0c6a2346afbf8c6da07d18a304c570e76c2e2b0b61b4d878c2e2d87b90bc3cd",
    "classify": "19afdc6ca82e70a406ee508c740a5607a8c7e08a370248f71ed0fd0aa95e8759",
    "enumerate": "5f0f1d81f7e3e1bc8e2f69d81fa3ee276ef10275c6af5ccf381220f47aee24c5",
}
OBJ_RECORDS = {
    "two_tile.obj": (
        "d62d2c95060d766e8203823cf91a552a26e7c41c5ccb78e4bd592a95f9525d86",
        9795,
    ),
    "hopf.obj": (
        "ea344c16aa4cedcd4c09c4ecea1a8f9e0faf974d0bab422bc043251e9eb16b3a",
        9988,
    ),
}


def readme_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start (CLI)", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("hextorus ")
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def obj_record(data: bytes) -> tuple[str, int]:
    lines = data.decode("ascii").splitlines()
    kept = [line for line in lines if line.split(" ", 1)[0] in ("g", "f", "l")]
    vertices = sum(1 for line in lines if line.startswith("v "))
    return sha256("\n".join(kept).encode("ascii")), vertices


def test_readme_chain_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    stdout = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GenericityWarning)
        for argv in readme_commands():
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            if argv[0] in STDOUT_DIGESTS:
                stdout[argv[0]] = sha256(out.encode("utf-8"))
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(files) == sorted([*FILE_DIGESTS, *OBJ_RECORDS])
    assert {name: sha256(files[name]) for name in FILE_DIGESTS} == FILE_DIGESTS
    assert stdout == STDOUT_DIGESTS
    assert {name: obj_record(files[name]) for name in OBJ_RECORDS} == OBJ_RECORDS
