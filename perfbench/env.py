"""Paths, BLAS thread cap, metric catalog and the environment record of a run.

Nothing here imports numpy at module level: cap_blas_threads must run before
the first numpy import of the process.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"    # run records and temp dirs; ignored by git
BENCHMARK_FILE = ROOT / "BENCHMARK.json"   # workloads and metric catalog

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Let BLAS use at most nproc threads (child processes inherit the cap)."""
    cap = nproc()
    for var in _THREAD_VARS:
        raw = os.environ.get(var, "")
        if not raw.isdigit() or not 1 <= int(raw) <= cap:
            os.environ[var] = str(cap)


def load_gradtrack():
    """Import gradtrack from this checkout's src/, never from site-packages."""
    pkg = SRC / "gradtrack"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gradtrack package at {pkg}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import gradtrack
    if Path(gradtrack.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported {gradtrack.__file__}, expected {pkg}")
    return gradtrack


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (or without git)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the BENCHMARK.json metrics of one kind
    ("end_to_end" or "per_layer"), in the file's order."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _openblas_runtime_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(gradtrack) -> dict:
    """What a result was measured on: code, interpreter, numpy and BLAS."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "gradtrack_file": gradtrack.__file__,
        "git_commit": git_commit(),
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads_env": {var: os.environ.get(var) for var in _THREAD_VARS},
            "threads_runtime": _openblas_runtime_threads(),
        },
    }
