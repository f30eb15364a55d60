"""Record of the machine and libraries a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import re
from pathlib import Path

import numpy as np


def _cache_sizes() -> dict[str, int]:
    """Bytes per cache level (L2, L3) of cpu0, read from sysfs."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or level == "1":
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        sizes[f"L{level}"] = int(size.rstrip("KMG")) * mult
    return sizes


def _blas() -> dict[str, object]:
    """BLAS name and the thread count the loaded OpenBLAS will use."""
    info: dict[str, object] = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = cfg.get("name")
        info["version"] = cfg.get("version")
    except (KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["library"] = os.path.basename(lib_path)
                    info["threads"] = fn()
                    return info
    return info


def environment(matrix_bytes: int | None = None) -> dict[str, object]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    caches = _cache_sizes()
    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "caches_bytes": caches,
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "load": "one duke process at a time; BLAS threads as above",
    }
    if matrix_bytes is not None:
        env["matrix_bytes"] = matrix_bytes
        if "L3" in caches:
            env["matrix_over_l3"] = round(matrix_bytes / caches["L3"], 4)
            env["row_bandwidth_note"] = (
                "row_gb_per_s_computed counts n*dim*8 bytes per metric row; "
                "the matrix fits in L3 here, so it is not DRAM bandwidth"
                if matrix_bytes <= caches["L3"] else
                "row_gb_per_s_computed counts n*dim*8 bytes per metric row")
    return env
