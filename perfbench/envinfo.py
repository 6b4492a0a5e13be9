"""The environment block printed with every benchmark result.

Everything here is read-only: versions, the BLAS build and its thread
count, core count and affinity, load average, CPU steal from /proc/stat and
the git commit when the checkout has one.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
from pathlib import Path

import numpy as np


def _blas() -> dict:
    info: dict = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name", "unknown")
        info["version"] = deps.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_sample() -> dict:
    """Load average and the aggregate /proc/stat CPU counters (ticks)."""
    sample = {"loadavg": list(os.getloadavg())}
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        ticks = [int(v) for v in fields[1:]]
        sample["total_ticks"] = sum(ticks[:8])
        sample["steal_ticks"] = ticks[7] if len(ticks) > 7 else 0
    except (OSError, ValueError, IndexError):
        sample["total_ticks"] = sample["steal_ticks"] = None
    return sample


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        # Never pinned: pinning to fewer cores than the process is given
        # would hide a later change that uses them.
        "pinned": False,
        "git_commit": _git_commit(root),
    }


def cpu_delta(before: dict, after: dict) -> dict:
    """Load before and after a run, and the share of CPU time stolen."""
    out = {"loadavg_before": before["loadavg"], "loadavg_after": after["loadavg"]}
    if before["total_ticks"] is not None and after["total_ticks"] is not None:
        total = after["total_ticks"] - before["total_ticks"]
        steal = after["steal_ticks"] - before["steal_ticks"]
        out["steal_ticks"] = steal
        out["steal_share"] = steal / total if total > 0 else 0.0
    return out
