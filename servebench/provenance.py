"""Provenance stamped on every result record.

The thread environment is recorded exactly as found: the benchmark never
sets a BLAS or OpenMP thread variable, so an oversubscribed worker pool
shows up in the numbers rather than being hidden by the harness.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

__all__ = ["THREAD_VARS", "provenance"]

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


def _git(root: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _git_state(root: Path) -> tuple[str | None, bool | None]:
    """``(sha, dirty)`` when ``root`` is itself a git work tree, else ``(None, None)``."""
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != root.resolve():
        return None, None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return (sha.strip() if sha else None), (bool(status.strip()) if status is not None else None)


def source_digest(root: Path, dirs: tuple[str, ...] = ("src", "servebench")) -> str:
    """SHA-256 over the program and benchmark sources (works without git)."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted((root / d).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}


def provenance(root: Path, workload: str, seed: int, traced: bool) -> dict:
    sha, dirty = _git_state(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(root),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
        "workload": workload,
        "seed": seed,
        "traced": traced,
    }
