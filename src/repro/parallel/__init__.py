"""Multi-core evaluation: shared-memory planes and a process-pool
scoring service.

The mitigation engine is embarrassingly parallel at two levels —
Algorithm 1 scores many independent single-sector candidates per
iteration, and operators evaluate many independent upgrade scenarios
per maintenance window.  This package exploits both on top of the
PR-4 delta engine:

* :class:`SharedPlaneStore` (``shm.py``) maps the incumbent's nine
  (H, W) :class:`~repro.model.roi.RoiBaseline` rasters into POSIX
  shared memory once, so worker processes score candidates against
  them zero-copy instead of receiving multi-megabyte pickles per task;
* :class:`EvaluationService` (``service.py``) owns a process pool that
  fans :meth:`Evaluator.score_candidates` batches out as load-balanced
  chunks pulled from a shared task queue, scores each chunk with the
  serial windowed kernel (:func:`repro.model.roi.score_candidate`),
  reassembles utilities in deterministic candidate order (bitwise
  identical to the serial path) and falls back to the serial kernel
  below a configurable batch-size threshold where IPC overhead loses;
* :func:`UpgradePlanner.sweep_scenarios` reuses the same pool
  machinery to run independent upgrade scenarios concurrently.

Everything degrades gracefully: one worker, a daemonic caller (a
worker cannot fork grandchildren), a missing ``fork`` start method or
a stale path-loss epoch all route back to the serial path, so results
never depend on where they were computed.

Instrumentation lands under ``magus.parallel.*``: the ``tasks``
(chunks dispatched), ``steals`` (chunks absorbed by workers beyond
their even share), ``worker_busy_ns`` (summed in-worker compute time)
and ``shm_{allocated,released}_bytes`` counters, plus the
``shm_bytes`` gauge (bytes currently resident in shared memory —
back to zero after ``close()``).  Each chunk result additionally
carries a :class:`~repro.obs.telemetry.WorkerTelemetry` payload that
the service merges into the parent registry under a
``pid=…,worker=…`` label (see :mod:`repro.obs.telemetry`).
"""

from .service import (DEFAULT_MIN_PARALLEL_BATCH, EvaluationService,
                      resolve_workers)
from .shm import SharedArrayHandle, SharedPlaneStore

__all__ = [
    "DEFAULT_MIN_PARALLEL_BATCH",
    "EvaluationService",
    "SharedArrayHandle",
    "SharedPlaneStore",
    "resolve_workers",
]
