"""Worker-process side of the evaluation service.

Everything in this module runs inside pool workers (plus the tiny
parent-side shims that set up the fork-inherited state).  The contract
with :mod:`repro.parallel.service`:

* the parent sets :data:`_FORK_STATE` (and, for scenario sweeps,
  :data:`_SWEEP_STATE`) **before** creating the pool, so ``fork``
  children inherit the engine / planner copy-on-write — no pickling;
  under ``spawn`` the same payload arrives through the initializer;
* a :class:`ScoreTask` (full-grid windows) carries only the
  incumbent's *handles* into shared memory plus compact single-sector
  moves; the worker maps the planes once per incumbent (cached by
  block name) and scores its chunk with the standard
  :meth:`AnalysisEngine.evaluate_batch`, reducing each candidate's
  utility over its own raster — bitwise identical to the serial
  windowed kernel, regardless of chunking;
* a :class:`RoiScoreTask` (footprint windows) carries the baseline's
  raster handles plus each move's window, and runs the serial kernel
  :func:`repro.model.roi.score_candidate` itself.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..model import roi as _roi
from ..model.engine import AnalysisEngine, DeltaIncumbent
from ..model.network import Configuration, SectorSetting
from ..obs import get_registry, trace
from ..obs.telemetry import (WorkerTelemetry, drain_worker_telemetry,
                             reset_worker_observability)
from .shm import SharedArrayHandle, attach_array, attach_handle_block

__all__ = ["RoiScoreTask", "ScoreTask", "WorkerState"]

#: Attached incumbents kept per worker (mirrors the store capacity).
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
class ScoreTask:
    """One chunk of single-sector candidates against one incumbent."""

    chunk_index: int
    config: Configuration                   # the incumbent configuration
    handles: Dict[str, SharedArrayHandle]   # planes/serving/runner arrays
    moves: Tuple[Tuple[int, SectorSetting], ...]  # (sector, new setting)


@dataclass(frozen=True)
class RoiScoreTask:
    """One chunk of windowed ROI candidates against one baseline.

    ``handles`` map the nine (H, W) baseline rasters (see
    :data:`repro.model.roi._BASELINE_ARRAYS`) — no plane stack; the
    changed rows are recomputed from the fork-inherited path-loss
    database.  ``boxes`` carries each move's ROI window.
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
#: Attached incumbents: planes block name -> (incumbent, shm blocks).
_INCUMBENTS: "OrderedDict[str, tuple]" = OrderedDict()
#: Attached ROI baselines: total_mw block name -> (baseline, blocks).
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
    _INCUMBENTS.clear()
    _ROI_BASELINES.clear()
    reset_worker_observability()


def _attach_incumbent(task: ScoreTask) -> DeltaIncumbent:
    """Map the task's incumbent from shared memory (cached per block)."""
    key = task.handles["planes"].block
    cached = _INCUMBENTS.get(key)
    if cached is not None:
        _INCUMBENTS.move_to_end(key)
        return cached[0]
    blocks = {}
    views = {}
    for name, handle in task.handles.items():
        # ``handle.block`` is the shm segment name or the spill-file
        # path; attach_handle_block dispatches on ``handle.path``.
        block = blocks.get(handle.block)
        if block is None:
            block = blocks[handle.block] = attach_handle_block(handle)
        views[name] = attach_array(handle, block)
    incumbent = DeltaIncumbent(
        task.config, views["planes"], views["total_mw"],
        views["raw_serving"], views["best_mw"],
        _STATE.engine.pathloss.cache_epoch)
    incumbent._runner = (views["runner_val"], views["runner_idx"])
    _INCUMBENTS[key] = (incumbent, list(blocks.values()))
    while len(_INCUMBENTS) > _WORKER_CACHE_SIZE:
        _, (_, old_blocks) = _INCUMBENTS.popitem(last=False)
        for block in old_blocks:
            block.close()
    return incumbent


def _attach_views(handles: Dict[str, SharedArrayHandle]
                  ) -> Tuple[Dict[str, np.ndarray], list]:
    """Map every handle's array, sharing attached blocks."""
    blocks = {}
    views = {}
    for name, handle in handles.items():
        block = blocks.get(handle.block)
        if block is None:
            block = blocks[handle.block] = attach_handle_block(handle)
        views[name] = attach_array(handle, block)
    return views, list(blocks.values())


def _attach_roi_baseline(task: RoiScoreTask) -> "_roi.RoiBaseline":
    """Map the task's baseline from shared memory (cached per block)."""
    key = task.handles["total_mw"].block
    cached = _ROI_BASELINES.get(key)
    if cached is not None:
        _ROI_BASELINES.move_to_end(key)
        return cached[0]
    views, blocks = _attach_views(task.handles)
    baseline = _roi.RoiBaseline.from_arrays(
        task.config, _STATE.engine.pathloss.cache_epoch, views)
    _ROI_BASELINES[key] = (baseline, blocks)
    while len(_ROI_BASELINES) > _WORKER_CACHE_SIZE:
        _, (_, old_blocks) = _ROI_BASELINES.popitem(last=False)
        for block in old_blocks:
            block.close()
    return baseline


def _score_roi_chunk(task: RoiScoreTask
                     ) -> Tuple[int, Optional[list], WorkerTelemetry]:
    """Score one windowed candidate chunk.

    The per-candidate loop runs :func:`repro.model.roi.score_candidate`
    — the same kernel the serial path and the parent-side quarantine
    rescue use, so chunk placement cannot perturb a bit.
    """
    t0 = time.perf_counter_ns()
    state = _STATE
    if state.chaos is not None:
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
    registry.counter("magus.parallel.chunks").inc()
    registry.counter("magus.parallel.worker_busy_ns").inc(busy_ns)
    return task.chunk_index, utilities, drain_worker_telemetry(busy_ns)


def _score_chunk(task: ScoreTask
                 ) -> Tuple[int, Optional[list], WorkerTelemetry]:
    """Score one candidate chunk.

    Returns ``(index, utilities, telemetry)``: ``utilities`` is
    ``None`` when the engine refused the batch (e.g. a move that is
    not a single-sector change arrived anyway — the parent then
    rescores the whole request serially), and ``telemetry`` is this
    chunk's :class:`WorkerTelemetry` — the worker registry's
    capture-and-reset delta plus any completed spans — which the
    parent merges pid/worker-labeled.
    """
    t0 = time.perf_counter_ns()
    state = _STATE
    if state.chaos is not None:
        # Chaos injection point: may SIGKILL this worker or stall the
        # chunk past its deadline (the supervision tests' trigger).
        state.chaos.on_chunk(task.chunk_index)
    utilities = None
    with trace.span("magus.parallel.score_chunk",
                    chunk=task.chunk_index, candidates=len(task.moves)):
        incumbent = _attach_incumbent(task)
        base = list(task.config.settings)
        configs = []
        for sector_id, setting in task.moves:
            settings = list(base)
            settings[sector_id] = setting
            configs.append(Configuration(tuple(settings)))
        batch = state.engine.evaluate_batch(incumbent, configs,
                                            state.ue_density)
        if batch is not None:
            # Each candidate's utility is summed over its own raster
            # only (the serial kernel's reduction), so chunk
            # boundaries cannot perturb the result.
            values = (state.utility.per_ue(batch.rate_bps)
                      * state.ue_density)
            sums = values.reshape(values.shape[0], -1).sum(axis=1)
            utilities = [float(u) for u in sums]
    busy_ns = time.perf_counter_ns() - t0
    registry = get_registry()
    registry.counter("magus.parallel.chunks").inc()
    registry.counter("magus.parallel.worker_busy_ns").inc(busy_ns)
    return task.chunk_index, utilities, drain_worker_telemetry(busy_ns)


def _run_sweep_item(index: int):
    """Run one planner scenario from the fork-inherited sweep state."""
    planner, scenarios, kwargs = _SWEEP_STATE
    return planner.mitigate(scenarios[index], **kwargs)
