"""The process-pool evaluation service (parent side).

:class:`EvaluationService` fans batches of single-sector candidates
out across a pool of worker processes.  Design constraints, in order:

1. **Bitwise identity with the serial path.**  Chunks are fixed by a
   deterministic partition of the candidate list, each candidate's
   utility is reduced over its own raster inside the worker, and
   results are reassembled in candidate order — so neither the
   chunking nor completion order can perturb a single bit.  Workers
   run the serial windowed kernel itself
   (:func:`repro.model.roi.score_candidate`) on every window,
   footprint or full grid (:meth:`score_batch_roi`;
   :meth:`score_batch` is a thin adapter onto it).  Winner
   confirmation stays canonical in the caller.
2. **Zero-copy inputs.**  The incumbent's nine (H, W)
   :class:`~repro.model.roi.RoiBaseline` rasters are exported once per
   anchor through a :class:`~repro.parallel.shm.SharedPlaneStore` —
   never the (S, H, W) plane stack; tasks carry only array *handles*
   plus compact ``(sector, setting)`` moves and their windows.  Under
   the ``fork`` start method the engine itself (path-loss rasters
   included) is inherited copy-on-write at pool start.
3. **Load balancing.**  Candidates are split into several chunks per
   worker, pulled from the pool's shared task queue: a worker that
   finishes early simply takes the next chunk — work stealing without
   a bespoke scheduler.  ``magus.parallel.steals`` counts the chunks
   workers absorbed beyond their even share.
4. **Supervised degradation.**  Every dispatched chunk runs under a
   deadline (``chunk_deadline_s``); a chunk whose worker dies (SIGKILL
   leaves its ``AsyncResult`` forever un-ready — detected by polling
   the pool's worker pids) or times out is re-dispatched to a freshly
   respawned pool, bounded by a respawn budget.  A chunk that fails
   twice is *quarantined*: re-scored serially in the parent while the
   rest of the dispatch stays on the pool, so one poisoned chunk
   degrades only itself.  Completed chunks are never recomputed.
   Every decision lands in the flight recorder and the
   ``magus.parallel.{chunk_retries,pool_respawns,chunks_quarantined}``
   counters (rendered in the run report's ``parallel:`` section).
   Batches below ``min_parallel_batch``, a single-worker service, a
   daemonic caller or a stale path-loss epoch still return ``None`` —
   the caller's serial kernel answers instead, with identical
   results.

The service is a context manager; :meth:`close` terminates the pool
and unlinks every shared-memory block, and is always safe to call
again (the pool restarts lazily on the next large batch).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import roi as _roi
from ..model.engine import AnalysisEngine, DeltaIncumbent
from ..model.network import Configuration
from ..obs import get_flight_recorder, get_logger, get_registry
from ..obs.telemetry import WorkerTelemetry, merge_worker_telemetry
from . import worker as _worker
from .shm import SharedPlaneStore

__all__ = ["DEFAULT_MIN_PARALLEL_BATCH", "EvaluationService",
           "resolve_workers"]

_LOG = get_logger("parallel.service")

#: Below this many candidates one vectorized in-process pass beats the
#: pool round-trip (dispatch + result pickling) on every machine we
#: measured; the bench's fallback-threshold check keeps this honest.
DEFAULT_MIN_PARALLEL_BATCH = 8

#: Chunks submitted per worker: >1 so the shared task queue can
#: rebalance when chunks run at different speeds (work stealing), not
#: so many that per-chunk dispatch overhead dominates.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Upper bound on candidates per chunk — same peak-memory bound as the
#: evaluator's serial batching.
_MAX_CHUNK = 64

#: Default per-chunk deadline; override with ``chunk_deadline_s`` (or
#: `--chunk-deadline-s` on the CLI).
_RESULT_TIMEOUT_S = 600.0

#: Full-pool respawns allowed per dispatch before failed chunks go
#: straight to serial quarantine.
DEFAULT_MAX_POOL_RESPAWNS = 2

#: After a worker death is detected, chunks still in flight get this
#: long to land before being declared lost with it (the dead worker's
#: chunk can never land; its siblings usually finish in milliseconds).
_DEATH_GRACE_S = 5.0

#: Poll interval of the supervision loop.
_POLL_S = 0.02


def resolve_workers(workers: Optional[int]) -> int:
    """Default worker count: one per available core."""
    if workers is None:
        try:
            return max(len(os.sched_getaffinity(0)), 1)
        except AttributeError:  # pragma: no cover — non-Linux
            return os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def _in_daemon() -> bool:
    """Pool workers are daemonic and cannot fork grandchildren."""
    return multiprocessing.current_process().daemon


class EvaluationService:
    """Scores candidate batches on a process pool over shared planes."""

    def __init__(self, engine: AnalysisEngine, ue_density: np.ndarray,
                 utility, workers: Optional[int] = None, *,
                 min_parallel_batch: int = DEFAULT_MIN_PARALLEL_BATCH,
                 chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER,
                 chunk_deadline_s: Optional[float] = None,
                 max_pool_respawns: int = DEFAULT_MAX_POOL_RESPAWNS,
                 chaos=None) -> None:
        if min_parallel_batch < 1:
            raise ValueError("min_parallel_batch must be >= 1")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be >= 1")
        if chunk_deadline_s is not None and chunk_deadline_s <= 0:
            raise ValueError("chunk_deadline_s must be positive")
        if max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be non-negative")
        self.engine = engine
        self.ue_density = np.asarray(ue_density, dtype=float)
        self.utility = utility
        self.workers = resolve_workers(workers)
        self.min_parallel_batch = min_parallel_batch
        self.chunks_per_worker = chunks_per_worker
        self.chunk_deadline_s = (chunk_deadline_s
                                 if chunk_deadline_s is not None
                                 else _RESULT_TIMEOUT_S)
        self.max_pool_respawns = max_pool_respawns
        #: Optional :class:`~repro.faults.chaos.ChaosInjector` handed
        #: to workers (via WorkerState) so chaos plans can SIGKILL or
        #: stall chunks from inside the pool.
        self.chaos = chaos
        self._pool = None
        self._pool_epoch: Optional[int] = None
        self._store = SharedPlaneStore()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._pool is not None

    def usable(self) -> bool:
        """Whether this process can ever profit from the pool."""
        return self.workers >= 2 and not _in_daemon()

    def start(self) -> None:
        """Fork the pool now (normally done lazily on the first batch)."""
        self._ensure_pool()

    def restart(self) -> None:
        """Tear the pool down and fork a fresh one.

        Needed when fork-inherited state must be refreshed — new
        path-loss rasters after :meth:`invalidate_caches`, or a
        just-installed scenario-sweep payload.
        """
        self._shutdown_pool()
        self._ensure_pool()

    def close(self) -> None:
        """Terminate workers and unlink shared memory (idempotent)."""
        self._shutdown_pool()
        self._store.close()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_pool(self) -> None:
        if not self.usable():
            return
        epoch = self.engine.pathloss.cache_epoch
        if self._pool is not None:
            if self._pool_epoch == epoch:
                return
            # Fork-inherited rasters are stale; re-fork from the
            # current parent state.
            _LOG.info("pathloss epoch changed (%s -> %s); restarting "
                      "worker pool", self._pool_epoch, epoch)
            self._shutdown_pool()
        methods = multiprocessing.get_all_start_methods()
        state = _worker.WorkerState(engine=self.engine,
                                    ue_density=self.ue_density,
                                    utility=self.utility,
                                    chaos=self.chaos)
        # Workers must share this process's resource tracker, so that
        # their shared-memory attaches land in the owner's registry
        # (see shm.attach_block) instead of starting trackers that
        # would unlink live blocks when a worker exits.
        resource_tracker.ensure_running()
        if "fork" in methods:
            ctx = multiprocessing.get_context("fork")
            # Children inherit the engine (path-loss rasters included)
            # copy-on-write: set the module global before forking.
            _worker._FORK_STATE = state
            initargs = (None,)
        else:  # pragma: no cover — non-fork platforms
            ctx = multiprocessing.get_context()
            initargs = (state,)
        self._pool = ctx.Pool(processes=self.workers,
                              initializer=_worker._init_worker,
                              initargs=initargs)
        self._pool_epoch = epoch

    def _shutdown_pool(self) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        self._pool_epoch = None
        pool.terminate()
        pool.join()

    # ------------------------------------------------------------------
    # candidate scoring
    # ------------------------------------------------------------------
    def score_batch(self, incumbent: DeltaIncumbent,
                    configs: Sequence[Configuration]
                    ) -> Optional[List[float]]:
        """Utilities for single-sector ``configs`` vs. ``incumbent``.

        An adapter onto :meth:`score_batch_roi`: resolves each
        candidate's window and the incumbent's baseline, then scores
        through the pool.  Returns ``None`` whenever the serial path
        should answer instead: a candidate that is not a single-sector
        change, a stale incumbent epoch (both seen by
        ``engine.single_sector_change``), or any of
        :meth:`score_batch_roi`'s fallbacks.  ``incumbent`` must be
        finished (see :meth:`RoiBaseline.from_incumbent`).
        """
        windows = []
        for config in configs:
            changed = self.engine.single_sector_change(incumbent, config)
            if changed is None:
                return None
            windows.append((changed, self.engine.roi_window(
                incumbent, config, changed)))
        if not windows:
            return []
        baseline = _roi.RoiBaseline.from_incumbent(
            incumbent, self.utility, self.ue_density)
        return self.score_batch_roi(baseline, configs, windows)

    def score_batch_roi(self, baseline: "_roi.RoiBaseline",
                        configs: Sequence[Configuration],
                        windows: Sequence[Tuple[int, tuple]]
                        ) -> Optional[List[float]]:
        """Windowed utilities for single-sector ``configs``.

        ``windows`` pairs each config with its ``(changed, box)``
        window as resolved by ``AnalysisEngine.roi_window`` — a
        footprint union or the full grid.  The candidates are split
        into deterministic chunks, and each worker scores its chunk
        against the baseline's nine shared (H, W) rasters.  Returns
        ``None`` whenever the serial path should answer instead: batch
        below the threshold, unusable pool, stale baseline, or a
        dispatch abandoned after exhausted retries.  On success the
        values are bitwise identical to
        :func:`repro.model.roi.score_candidate` run serially.
        """
        k = len(configs)
        if k == 0:
            return []
        if not self.usable() or k < self.min_parallel_batch:
            return None
        if baseline.epoch != self.engine.pathloss.cache_epoch:
            get_flight_recorder().record(
                "pool_fallback", reason="stale_baseline_epoch",
                candidates=k)
            return None
        self._ensure_pool()
        if self._pool is None:
            return None
        # Exported once per baseline; later batches hit the store.
        handles = self._store.export((baseline.config, baseline.epoch),
                                     baseline.export_arrays())
        moves = [(changed, config.settings[changed])
                 for config, (changed, _) in zip(configs, windows)]
        boxes = [box for _, box in windows]
        chunk_count = min(k, self.workers * self.chunks_per_worker)
        chunk_count = max(chunk_count, math.ceil(k / _MAX_CHUNK))
        bounds = np.linspace(0, k, chunk_count + 1).astype(int)
        tasks = [
            _worker.RoiScoreTask(
                chunk_index=i, config=baseline.config, handles=handles,
                moves=tuple(moves[bounds[i]:bounds[i + 1]]),
                boxes=tuple(boxes[bounds[i]:bounds[i + 1]]))
            for i in range(chunk_count) if bounds[i] < bounds[i + 1]]

        def rescore_serially(task: _worker.RoiScoreTask):
            # Quarantine path: same per-candidate score_candidate loop
            # as the worker, run in the parent.
            base = list(task.config.settings)
            utilities = []
            for (sector_id, setting), box in zip(task.moves, task.boxes):
                settings = list(base)
                settings[sector_id] = setting
                config = Configuration(tuple(settings))
                utilities.append(_roi.score_candidate(
                    self.engine, baseline, config, sector_id, box,
                    self.ue_density, self.utility))
            return task.chunk_index, utilities, None

        results = self._dispatch(_worker._score_roi_chunk, tasks,
                                 serial_fn=rescore_serially)
        if results is None:
            return None
        # ``_dispatch`` returns results in task (= chunk) order.
        scores = [u for _index, utilities, _telemetry in results
                  for u in utilities]
        # Same parent-side accounting as the serial kernel (workers
        # count into their own forked registries, merged labeled).
        self.engine._eval_counter.inc(k)
        get_registry().counter("magus.engine.evaluations").inc(k)
        self.engine._count_windows(boxes)
        return scores

    # ------------------------------------------------------------------
    # generic fan-out (scenario sweeps ride the same pool)
    # ------------------------------------------------------------------
    def run_tasks(self, fn: Callable, items: Sequence,
                  timeout_s: Optional[float] = None,
                  progress: Optional[Callable[[int], None]] = None,
                  serial_fn: Optional[Callable] = None) -> Optional[list]:
        """Run ``fn(item)`` for every item on the pool, results ordered.

        ``progress`` (if given) is called with the completed-item count
        after each result lands — sweeps use it to publish live
        throughput gauges.  ``serial_fn`` (default ``fn``-less) rescues
        quarantined items in the parent; without one, a dispatch whose
        retries are exhausted returns ``None`` — but items that *did*
        complete are never recomputed on the pool either way.
        """
        if not items:
            return []
        if not self.usable():
            return None
        self._ensure_pool()
        if self._pool is None:
            return None
        return self._dispatch(fn, items, timeout_s=timeout_s,
                              progress=progress, serial_fn=serial_fn)

    # -- supervised dispatch -------------------------------------------
    def _worker_pids(self) -> frozenset:
        procs = getattr(self._pool, "_pool", None) or ()
        return frozenset(p.pid for p in procs)

    def _dispatch(self, fn: Callable, items: Sequence,
                  timeout_s: Optional[float] = None,
                  progress: Optional[Callable[[int], None]] = None,
                  serial_fn: Optional[Callable] = None) -> Optional[list]:
        """Run every item with per-chunk supervision.

        The state machine per chunk: *submitted* → *done* on a clean
        result; → *failed(reason)* on deadline expiry, worker death or
        a worker-raised exception.  First failure re-dispatches the
        chunk (``chunk_retries``), respawning the pool first when the
        failure implicates it (``pool_respawns``, bounded by
        ``max_pool_respawns``); second failure quarantines the chunk
        to ``serial_fn`` in the parent (``chunks_quarantined``) while
        the rest of the dispatch stays on the pool.
        """
        registry = get_registry()
        recorder = get_flight_recorder()
        deadline_s = (timeout_s if timeout_s is not None
                      else self.chunk_deadline_s)
        n = len(items)
        results: List = [None] * n
        done = [False] * n
        failures = [0] * n
        respawns = 0
        registry.counter("magus.parallel.tasks").inc(n)
        #: index -> [AsyncResult, deadline (monotonic)]
        pending: Dict[int, list] = {}
        pids = frozenset()

        def submit(indices: Sequence[int]) -> None:
            now = time.monotonic()
            for i in indices:
                pending[i] = [self._pool.apply_async(fn, (items[i],)),
                              now + deadline_s]

        def await_round() -> List[Tuple[int, str, Optional[str]]]:
            """Drain ``pending``; return failures as (index, reason,
            error).  On a detected worker death the remaining chunks'
            deadlines shrink to a grace window — the dead worker's
            chunk can never land, and its siblings either finish
            within the grace or share its fate."""
            nonlocal pids
            failed: List[Tuple[int, str, Optional[str]]] = []
            death_seen = False
            while pending:
                progressed = False
                now = time.monotonic()
                for i in list(pending):
                    handle, deadline_at = pending[i]
                    if handle.ready():
                        del pending[i]
                        progressed = True
                        try:
                            results[i] = handle.get(0)
                        except Exception as exc:
                            failed.append((i, "worker_raised",
                                           f"{type(exc).__name__}: {exc}"))
                        else:
                            done[i] = True
                            if progress is not None:
                                progress(sum(done))
                    elif now >= deadline_at:
                        del pending[i]
                        progressed = True
                        failed.append((
                            i,
                            "worker_died" if death_seen else "deadline",
                            None))
                if not pending:
                    break
                current = self._worker_pids()
                if current != pids:
                    if pids - current:
                        death_seen = True
                        recorder.record(
                            "worker_death",
                            lost_pids=sorted(pids - current),
                            in_flight=len(pending))
                        grace = now + min(_DEATH_GRACE_S, deadline_s)
                        for entry in pending.values():
                            entry[1] = min(entry[1], grace)
                    pids = current
                if not progressed:
                    time.sleep(_POLL_S)
            return failed

        submit(range(n))
        pids = self._worker_pids()
        while True:
            failed = await_round()
            if not failed:
                break
            retry: List[int] = []
            quarantine: List[int] = []
            pool_suspect = False
            for i, reason, error in failed:
                failures[i] += 1
                recorder.record("chunk_failed", chunk=i, reason=reason,
                                error=error, attempt=failures[i])
                pool_suspect = pool_suspect or reason != "worker_raised"
                (quarantine if failures[i] >= 2 else retry).append(i)
            if retry and pool_suspect and respawns >= self.max_pool_respawns:
                # Budget exhausted: no healthy pool to retry on.
                recorder.record("respawn_budget_exhausted",
                                chunks=sorted(retry))
                quarantine.extend(retry)
                retry = []
            if retry:
                if pool_suspect:
                    respawns += 1
                    registry.counter("magus.parallel.pool_respawns").inc()
                    recorder.record("pool_respawn", attempt=respawns,
                                    chunks=sorted(retry))
                    self._shutdown_pool()
                    self._ensure_pool()
                    if self._pool is None:   # pragma: no cover — daemon
                        quarantine.extend(retry)
                        retry = []
                    else:
                        pids = frozenset()
                if retry:
                    registry.counter(
                        "magus.parallel.chunk_retries").inc(len(retry))
                    for i in retry:
                        recorder.record("chunk_retry", chunk=i,
                                        attempt=failures[i] + 1)
                    submit(retry)
                    pids = self._worker_pids()
            # Serial quarantine rescue runs in the parent while any
            # retried chunks execute on the pool.
            for i in quarantine:
                registry.counter(
                    "magus.parallel.chunks_quarantined").inc()
                recorder.record("chunk_quarantined", chunk=i,
                                failures=failures[i],
                                rescued=serial_fn is not None)
                if serial_fn is None:
                    _LOG.warning(
                        "chunk %d failed %d times and no serial rescue "
                        "is available; abandoning the dispatch "
                        "(completed chunks: %d/%d)",
                        i, failures[i], sum(done), n)
                    recorder.record(
                        "pool_fallback", reason="dispatch_failed",
                        completed=sum(done), submitted=n)
                    self._shutdown_pool()
                    return None
                results[i] = serial_fn(items[i])
                done[i] = True
                if progress is not None:
                    progress(sum(done))
        self._merge_telemetry([r for r in results if r is not None],
                              registry)
        return results

    def _merge_telemetry(self, results: list, registry) -> None:
        """Fold per-chunk worker telemetry into the parent registry.

        Every score-chunk result carries a :class:`WorkerTelemetry`
        (the worker's capture-and-reset registry delta plus completed
        spans).  Each payload merges pid/worker-labeled — that is the
        per-worker breakdown the run report renders — while the
        parent-side unlabeled aggregates (total busy time, steals)
        derive from the same payloads.  Steal accounting: with
        ``chunks_per_worker`` chunks on the shared queue, an even
        world gives every worker ``ceil(tasks / workers)``; anything a
        worker ran beyond that share it stole from a slower sibling.
        """
        payloads = [result[2] for result in results
                    if (isinstance(result, tuple) and len(result) == 3
                        and isinstance(result[2], WorkerTelemetry))]
        if not payloads:
            return
        per_pid: dict = {}
        busy_total = 0
        for payload in payloads:
            per_pid[payload.pid] = per_pid.get(payload.pid, 0) + 1
            busy_total += payload.busy_ns
            merge_worker_telemetry(payload, registry=registry)
        fair = math.ceil(len(payloads) / self.workers)
        steals = sum(max(0, count - fair) for count in per_pid.values())
        if steals:
            registry.counter("magus.parallel.steals").inc(steals)
        registry.counter("magus.parallel.worker_busy_ns").inc(busy_total)
