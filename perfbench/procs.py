"""Child interpreters: environment, bytecode cache and the console-script entry.

Every child imports hextorus from src and keeps its bytecode in the
benchmark's own cache under perfbench/out, so nothing is written into src
and every measured child finds the same warm cache (filled by
``prime_cache`` before any measurement).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
PYCACHE = OUT / "pycache"
TIMEOUT_S = 120


def entry_point() -> str:
    """``module:function`` of the hextorus console script in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["hextorus"]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONHASHSEED"] = "0"
    return env


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run one child interpreter to completion; a timeout kills and reaps it."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def _pyc_count() -> int:
    return sum(1 for _ in PYCACHE.rglob("*.pyc")) if PYCACHE.exists() else 0


def prime_cache() -> dict:
    """Import everything the CLI imports once; report the cache state."""
    before = _pyc_count()
    t0 = os.times().elapsed
    proc = python("-c", f"import hextorus, {entry_point().split(':')[0]}")
    if proc.returncode != 0:
        raise RuntimeError(f"priming import failed: {proc.stderr[-800:]}")
    return {
        "prefix": str(PYCACHE.relative_to(ROOT)),
        "pyc_before": before,
        "pyc_after": _pyc_count(),
        "prime_s": os.times().elapsed - t0,
    }
