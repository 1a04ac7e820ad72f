"""Pin the code under test to this checkout's ``src/``."""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


class PinError(RuntimeError):
    pass


def import_cliffkit():
    """Import cliffkit from ``ROOT/src``; raise PinError if it resolves elsewhere."""
    if not (SRC / "cliffkit" / "__init__.py").is_file():
        raise PinError(f"no cliffkit package under {SRC}")
    if "cliffkit" not in sys.modules:
        sys.path.insert(0, str(SRC))
    ck = importlib.import_module("cliffkit")
    where = Path(ck.__file__).resolve()
    if SRC not in where.parents:
        raise PinError(f"cliffkit resolved to {where}, not under {SRC}")
    return ck


def child_env():
    """Environment for child interpreters: same source tree, no stray paths."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env
