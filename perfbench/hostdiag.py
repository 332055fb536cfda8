"""Host-drift diagnostics recorded with every run.

These numbers describe the host while a run measured; they are never
used to scale a metric or to drop a run.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np


def reference_probe() -> Dict[str, float]:
    """Time a fixed numpy kernel and a fixed pure-Python loop.

    The work never changes, so a slower probe after a run than before
    it means the host slowed down, not the program.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((256, 256))
    values = rng.standard_normal(1 << 18)
    t0 = time.perf_counter()
    for _ in range(20):
        b = a @ a
        np.sort(values)
        np.exp(values)
    t1 = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    t2 = time.perf_counter()
    return {"numpy_s": t1 - t0, "python_s": t2 - t1,
            "checksum": float(b[0, 0]) + total}


def cpu_ticks() -> Dict[str, int]:
    """Aggregate ``total`` and ``steal`` clock ticks from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return {}
    ticks = [int(x) for x in fields[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user/nice.
    return {"total": sum(ticks[:8]), "steal": ticks[7] if len(ticks) > 7 else 0}


def steal_between(before: Dict[str, int], after: Dict[str, int]) -> Dict:
    """Steal time between two :func:`cpu_ticks` readings."""
    if not before or not after:
        return {"available": False}
    hz = os.sysconf("SC_CLK_TCK")
    total = after["total"] - before["total"]
    steal = after["steal"] - before["steal"]
    return {"available": True, "steal_s": steal / hz,
            "steal_share": steal / total if total else 0.0}


def host_provenance(repo_root: Path) -> Dict:
    """``host_provenance()`` from ``benchmarks/conftest.py``."""
    path = repo_root / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    except (ImportError, OSError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return module.host_provenance()
