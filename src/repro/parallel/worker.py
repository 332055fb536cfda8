"""Worker-process side of the evaluation service.

Everything in this module runs inside pool workers (plus the tiny
parent-side shims that set up the fork-inherited state).  The contract
with :mod:`repro.parallel.service`:

* the parent sets :data:`_FORK_STATE` (and, for scenario sweeps,
  :data:`_SWEEP_STATE`) **before** creating the pool, so ``fork``
  children inherit the engine / planner copy-on-write — no pickling;
  under ``spawn`` the same payload arrives through the initializer;
* a :class:`RoiScoreTask` carries the incumbent's
  :class:`~repro.model.roi.RoiBaseline` raster *handles* into shared
  memory plus compact single-sector moves and each move's window
  (footprint or full grid); the worker maps the rasters once per
  baseline (cached by block name) and runs the serial kernel
  :func:`repro.model.roi.score_candidate` itself — bitwise identical
  to the serial path, regardless of chunking.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..model import roi as _roi
from ..model.engine import AnalysisEngine
from ..model.network import Configuration, SectorSetting
from ..obs import get_registry, trace
from ..obs.telemetry import (WorkerTelemetry, drain_worker_telemetry,
                             reset_worker_observability)
from .shm import SharedArrayHandle, attach_array, attach_block

__all__ = ["RoiScoreTask", "WorkerState"]

#: Attached baselines kept per worker (mirrors the store capacity).
_WORKER_CACHE_SIZE = 2


@dataclass
class WorkerState:
    """The per-process evaluation context every score task runs in."""

    engine: AnalysisEngine
    ue_density: np.ndarray
    utility: object          # UtilityFunction with a pure ``per_ue``
    #: Optional :class:`~repro.faults.chaos.ChaosInjector`; when set,
    #: workers offer each chunk to it (which may SIGKILL this process).
    chaos: object = None


@dataclass(frozen=True)
class RoiScoreTask:
    """One chunk of windowed ROI candidates against one baseline.

    ``handles`` map the nine (H, W) baseline rasters (see
    :data:`repro.model.roi._BASELINE_ARRAYS`) — no plane stack; the
    changed rows are recomputed from the fork-inherited path-loss
    database.  ``boxes`` carries each move's window (a footprint
    union, or the full grid).
    """

    chunk_index: int
    config: Configuration                   # the baseline configuration
    handles: Dict[str, SharedArrayHandle]   # RoiBaseline rasters
    moves: Tuple[Tuple[int, SectorSetting], ...]  # (sector, new setting)
    boxes: Tuple[Tuple[int, int, int, int], ...]  # per-move ROI window


# -- process-global state ----------------------------------------------
#: Set by the parent immediately before forking a scoring pool.
_FORK_STATE: Optional[WorkerState] = None
#: Set by the parent immediately before forking a sweep-capable pool.
_SWEEP_STATE: Optional[tuple] = None
#: The child's bound state (established by :func:`_init_worker`).
_STATE: Optional[WorkerState] = None
#: Attached ROI baselines: block name -> (baseline, shm block).
_ROI_BASELINES: "OrderedDict[str, tuple]" = OrderedDict()


def _init_worker(payload: Optional[WorkerState] = None) -> None:
    """Pool initializer: bind the worker's evaluation context.

    ``payload`` is ``None`` under ``fork`` (the state is inherited via
    :data:`_FORK_STATE`) and the pickled :class:`WorkerState` under
    ``spawn``.  The fork also inherits the parent's *populated*
    registry and finished spans; reset both so the telemetry each
    chunk ships home is a clean worker-local delta.
    """
    global _STATE
    _STATE = payload if payload is not None else _FORK_STATE
    _ROI_BASELINES.clear()
    reset_worker_observability()


def _attach_roi_baseline(task: RoiScoreTask) -> "_roi.RoiBaseline":
    """Map the task's baseline from shared memory (cached per block)."""
    key = task.handles["total_mw"].block
    cached = _ROI_BASELINES.get(key)
    if cached is not None:
        _ROI_BASELINES.move_to_end(key)
        return cached[0]
    block = attach_block(key)      # one export = one block
    views = {name: attach_array(handle, block)
             for name, handle in task.handles.items()}
    baseline = _roi.RoiBaseline.from_arrays(
        task.config, _STATE.engine.pathloss.cache_epoch, views)
    _ROI_BASELINES[key] = (baseline, block)
    while len(_ROI_BASELINES) > _WORKER_CACHE_SIZE:
        _, (_, old_block) = _ROI_BASELINES.popitem(last=False)
        old_block.close()
    return baseline


def _score_roi_chunk(task: RoiScoreTask
                     ) -> Tuple[int, list, WorkerTelemetry]:
    """Score one windowed candidate chunk.

    The per-candidate loop runs :func:`repro.model.roi.score_candidate`
    — the same kernel the serial path and the parent-side quarantine
    rescue use, so chunk placement cannot perturb a bit.  Returns
    ``(index, utilities, telemetry)``: ``telemetry`` is this chunk's
    :class:`WorkerTelemetry` — the worker registry's capture-and-reset
    delta (including the chunk's ``magus.engine.evaluations``) plus
    any completed spans — which the parent merges pid/worker-labeled.
    """
    t0 = time.perf_counter_ns()
    state = _STATE
    if state.chaos is not None:
        # Chaos injection point: may SIGKILL this worker or stall the
        # chunk past its deadline (the supervision tests' trigger).
        state.chaos.on_chunk(task.chunk_index)
    with trace.span("magus.parallel.score_roi_chunk",
                    chunk=task.chunk_index, candidates=len(task.moves)):
        baseline = _attach_roi_baseline(task)
        base = list(task.config.settings)
        utilities = []
        for (sector_id, setting), box in zip(task.moves, task.boxes):
            settings = list(base)
            settings[sector_id] = setting
            config = Configuration(tuple(settings))
            utilities.append(_roi.score_candidate(
                state.engine, baseline, config, sector_id, box,
                state.ue_density, state.utility))
    busy_ns = time.perf_counter_ns() - t0
    registry = get_registry()
    registry.counter("magus.engine.evaluations").inc(len(task.moves))
    registry.counter("magus.parallel.chunks").inc()
    registry.counter("magus.parallel.worker_busy_ns").inc(busy_ns)
    return task.chunk_index, utilities, drain_worker_telemetry(busy_ns)


def _run_sweep_item(index: int):
    """Run one planner scenario from the fork-inherited sweep state."""
    planner, scenarios, kwargs = _SWEEP_STATE
    return planner.mitigate(scenarios[index], **kwargs)
