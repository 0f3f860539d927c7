"""Locations inside the checkout the benchmark runs from.

The benchmark builds nothing: it imports the library from ``src/`` of
the same checkout and writes its by-products (daemon logs, stores,
traces, per-run summaries) under ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src/``; exits with
    code 2 when the checkout has no library to benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library at {SRC}; nothing to benchmark\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the same ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env
