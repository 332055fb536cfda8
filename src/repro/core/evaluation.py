"""The Evaluation component (paper Figure 6).

:class:`Evaluator` binds the analysis engine, the fixed UE raster and a
utility function, and answers "how good is configuration C?" — the
feedback that "guides the selection of configurations iteratively until
Magus converges to a satisfactory configuration".

Configurations are immutable and hashable, so results are memoized:
search algorithms freely re-ask about configurations they have seen
(e.g. the incumbent at every iteration) without re-running the model.
The evaluator also counts *distinct* model evaluations, which is the
cost metric of the search-heuristic ablation.

Three evaluation strategies are supported (``strategy=`` knob):

``"delta"`` (default)
    Cache-missing configurations are answered incrementally when they
    differ from a recently evaluated incumbent in a single sector
    (:meth:`AnalysisEngine.evaluate_delta` — bitwise identical to the
    full pass), falling back to a full evaluation otherwise
    (``magus.engine.delta_fallbacks`` counts the misses).

``"full"``
    Every cache miss runs the complete Formula 1-4 pass — the ablation
    baseline, also reachable via the CLI's ``--no-delta``.

``"parallel"``
    The delta strategy, plus a process-pool
    :class:`~repro.parallel.EvaluationService` (``workers=N``) that
    fans large :meth:`score_candidates` batches across cores.  Results
    are bitwise identical to ``"delta"``; batches below the service's
    threshold — and every single-configuration query — stay serial.

:meth:`score_candidates` scores every single-sector candidate through
one windowed kernel (:func:`repro.model.roi.score_candidate`): the
window is the changed sector's footprint union where the backend
stores footprints, the full grid otherwise.  Candidate scores are never
cached, so accepted candidates are always confirmed canonically.

A parallel evaluator owns worker processes: call :meth:`close` (or use
the evaluator as a context manager) when done.  The serial strategies
make both a no-op.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import roi as _roi
from ..model.engine import AnalysisEngine, DeltaIncumbent
from ..model.network import Configuration
from ..model.snapshot import NetworkState
from ..obs import Counter, CostMeter, get_registry
from .utility import UtilityFunction, get_utility

__all__ = ["Evaluator", "EVALUATION_STRATEGIES"]

EVALUATION_STRATEGIES = ("full", "delta", "parallel")


class Evaluator:
    """Memoizing ``f(C)`` oracle over a fixed engine + UE population."""

    def __init__(self, engine: AnalysisEngine, ue_density: np.ndarray,
                 utility: UtilityFunction | str = "performance",
                 cache_size: int = 512,
                 strategy: str = "delta",
                 workers: Optional[int] = None,
                 min_parallel_batch: Optional[int] = None,
                 chunk_deadline_s: Optional[float] = None,
                 chaos=None) -> None:
        if ue_density.shape != engine.grid.shape:
            raise ValueError("UE raster does not match engine grid")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if strategy not in EVALUATION_STRATEGIES:
            raise ValueError(
                f"unknown evaluation strategy {strategy!r}; "
                f"expected one of {EVALUATION_STRATEGIES}")
        self.engine = engine
        self.ue_density = np.asarray(ue_density, dtype=float)
        self.utility = (get_utility(utility)
                        if isinstance(utility, str) else utility)
        self.strategy = strategy
        self.workers = workers
        self.min_parallel_batch = min_parallel_batch
        self.chunk_deadline_s = chunk_deadline_s
        self.chaos = chaos
        self._service = None
        if strategy == "parallel":
            # Construction is cheap — the pool forks lazily on the
            # first batch above the threshold.
            from ..parallel import EvaluationService
            kwargs = {}
            if min_parallel_batch is not None:
                kwargs["min_parallel_batch"] = min_parallel_batch
            if chunk_deadline_s is not None:
                kwargs["chunk_deadline_s"] = chunk_deadline_s
            if chaos is not None:
                kwargs["chaos"] = chaos
            self._service = EvaluationService(
                engine, self.ue_density, self.utility, workers, **kwargs)
        self._cache: "OrderedDict[Configuration, Tuple[NetworkState, float]]" = \
            OrderedDict()
        self._cache_size = cache_size
        # Most-recent delta anchors, parent-first: enough to cover the
        # search pattern of one incumbent probed by many one-sector
        # trials, and chains of one-sector moves (gradual compensation).
        self._incumbents: List[DeltaIncumbent] = []
        # Cached ROI baselines, keyed like the anchors they derive
        # from — the weighted per-UE raster in each is the expensive
        # part worth keeping across score_candidates calls.
        self._roi_baselines: "OrderedDict[tuple, _roi.RoiBaseline]" = \
            OrderedDict()
        # Always-on distinct-evaluation counter; searches meter their
        # spent cost against it via :meth:`cost_meter`.
        self._eval_counter = Counter("evaluator.model_evaluations")

    @property
    def model_evaluations(self) -> int:
        """Distinct (cache-missing) model evaluations performed."""
        return self._eval_counter.value

    @model_evaluations.setter
    def model_evaluations(self, value: int) -> None:
        self._eval_counter.reset(value)

    def cost_meter(self) -> CostMeter:
        """A zero-point meter over the model-evaluation counter.

        ``meter = evaluator.cost_meter(); ...; meter.spent()`` reads how
        many distinct evaluations the enclosed work consumed — the
        search algorithms' cost metric — without the before/after
        counter-diff idiom.
        """
        return self._eval_counter.meter()

    # ------------------------------------------------------------------
    def state_of(self, config: Configuration) -> NetworkState:
        """The full snapshot for ``config`` (memoized)."""
        return self._lookup(config)[0]

    def utility_of(self, config: Configuration) -> float:
        """``f(C)`` under the bound utility (memoized)."""
        return self._lookup(config)[1]

    def rescore(self, config: Configuration,
                utility: UtilityFunction | str) -> float:
        """``f(C)`` under a *different* utility, reusing the snapshot.

        This is how Table 2's cross-recovery cells are computed: the
        plan is found under one utility and re-scored under another.
        """
        other = get_utility(utility) if isinstance(utility, str) else utility
        return other.evaluate(self.state_of(config))

    def with_utility(self, utility: UtilityFunction | str) -> "Evaluator":
        """A sibling evaluator sharing the engine and UE raster.

        The sibling owns its own (lazily forked) worker pool when the
        strategy is ``"parallel"``; close both when done.
        """
        return Evaluator(self.engine, self.ue_density, utility,
                         cache_size=self._cache_size,
                         strategy=self.strategy,
                         workers=self.workers,
                         min_parallel_batch=self.min_parallel_batch,
                         chunk_deadline_s=self.chunk_deadline_s,
                         chaos=self.chaos)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the parallel service, if any (idempotent)."""
        if self._service is not None:
            self._service.close()

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def score_candidates(self,
                         configs: Sequence[Configuration]) -> List[float]:
        """``f(C)`` for each candidate, through the windowed kernel.

        Candidates that differ from a recent incumbent in exactly one
        sector are scored by :func:`repro.model.roi.score_candidate`
        inside their window (or on the pool, see
        :meth:`_score_windows`); the rest (and everything under
        ``strategy="full"`` or a custom ``UtilityFunction.evaluate``
        override) go through the canonical memoized path.  Kernel
        scores are ranking-grade — bitwise equal to the canonical
        value except where the kernel's incremental total moves an
        SINR across a CQI step (seen on float32 planes only) — and
        are **not** cached, so callers must confirm the winning
        candidate via :meth:`utility_of` before accepting.
        """
        configs = list(configs)
        scores: List[Optional[float]] = [None] * len(configs)
        registry = get_registry()
        remaining: List[int] = []
        for i, config in enumerate(configs):
            hit = self._cache.get(config)
            if hit is not None:
                self._cache.move_to_end(config)
                registry.counter("magus.evaluator.cache_hits").inc()
                scores[i] = hit[1]
            else:
                remaining.append(i)
        if remaining and self._batchable():
            engine = self.engine
            for incumbent in list(self._incumbents):
                items: List[Tuple[int, int, _roi.Box]] = []
                for i in remaining:
                    changed = engine.single_sector_change(incumbent,
                                                          configs[i])
                    if changed is not None:
                        items.append((i, changed, engine.roi_window(
                            incumbent, configs[i], changed)))
                if not items:
                    continue
                for i, value in self._score_windows(incumbent, configs,
                                                    items).items():
                    scores[i] = value
                self._eval_counter.inc(len(items))
                registry.counter(
                    "magus.evaluator.model_evaluations").inc(len(items))
                remaining = [i for i in remaining if scores[i] is None]
                if not remaining:
                    break
        for i in remaining:
            scores[i] = self.utility_of(configs[i])
        return [float(s) for s in scores]

    def _batchable(self) -> bool:
        # A custom ``evaluate`` override may inspect the whole state;
        # the kernel only materializes the rate raster.
        return (self.strategy in ("delta", "parallel")
                and type(self.utility).evaluate is UtilityFunction.evaluate)

    def _score_windows(self, incumbent: DeltaIncumbent,
                       configs: Sequence[Configuration],
                       items: Sequence[Tuple[int, int, _roi.Box]]
                       ) -> Dict[int, float]:
        """``{index: utility}`` for one incumbent's candidates.

        ``items`` holds ``(index, changed sector, window)`` triples.
        With a pool, every window — footprint or full grid — fans out
        through one
        :meth:`~repro.parallel.EvaluationService.score_batch_roi`
        call; whatever the pool declines (no pool, batch under the
        threshold, stale epoch, abandoned dispatch...) runs through
        the serial kernel.  Both routes are bitwise identical.
        """
        engine = self.engine
        baseline = self._roi_baseline(incumbent)
        values = None
        if self._service is not None:
            # The service does the engine accounting for what it scores.
            values = self._service.score_batch_roi(
                baseline, [configs[i] for i, _, _ in items],
                [(changed, box) for _, changed, box in items])
        if values is None:
            values = [_roi.score_candidate(engine, baseline, configs[i],
                                           changed, box, self.ue_density,
                                           self.utility)
                      for i, changed, box in items]
            engine._eval_counter.inc(len(items))
            get_registry().counter("magus.engine.evaluations").inc(
                len(items))
            engine._count_windows([box for _, _, box in items])
        return dict(zip((i for i, _, _ in items), values))

    def _roi_baseline(self, incumbent: DeltaIncumbent) -> _roi.RoiBaseline:
        key = (incumbent.config, incumbent.epoch)
        hit = self._roi_baselines.get(key)
        if hit is not None:
            self._roi_baselines.move_to_end(key)
            return hit
        baseline = _roi.RoiBaseline.from_incumbent(
            incumbent, self.utility, self.ue_density)
        self._roi_baselines[key] = baseline
        # Mirror the two-anchor incumbent ring.
        while len(self._roi_baselines) > 2:
            self._roi_baselines.popitem(last=False)
        return baseline

    # ------------------------------------------------------------------
    def _lookup(self, config: Configuration) -> Tuple[NetworkState, float]:
        hit = self._cache.get(config)
        if hit is not None:
            self._cache.move_to_end(config)
            get_registry().counter("magus.evaluator.cache_hits").inc()
            return hit
        if self.strategy == "full":
            state = self.engine.evaluate(config, self.ue_density)
        else:                     # "delta" and "parallel" share the path
            state = self._evaluate_delta(config)
        value = self.utility.evaluate(state)
        self._eval_counter.inc()
        get_registry().counter("magus.evaluator.model_evaluations").inc()
        entry = (state, value)
        if self._cache_size > 0:
            self._cache[config] = entry
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return entry

    def _evaluate_delta(self, config: Configuration) -> NetworkState:
        """Incremental evaluation against a recent incumbent.

        Falls back to (and re-anchors on) a full evaluation when no
        incumbent is a single-sector parent of ``config``.
        """
        for incumbent in list(self._incumbents):
            result = self.engine.evaluate_delta(incumbent, config,
                                                self.ue_density)
            if result is not None:
                state, child = result
                self._remember(incumbent, child)
                return state
        get_registry().counter("magus.engine.delta_fallbacks").inc()
        state, incumbent = self.engine.evaluate_with_incumbent(
            config, self.ue_density)
        self._remember(None, incumbent)
        return state

    def _remember(self, parent: Optional[DeltaIncumbent],
                  child: DeltaIncumbent) -> None:
        """Keep (parent, child) as the delta anchors, parent first.

        Parent-first matters: a search probes one incumbent with many
        one-sector trials, so the shared parent must survive each
        trial's arrival; keeping the child too makes one-sector *chains*
        (tilt ladders, gradual compensation runs) incremental as well.
        """
        ring = [child] if parent is None else [parent, child]
        configs = {inc.config for inc in ring}
        ring.extend(inc for inc in self._incumbents
                    if inc.config not in configs)
        self._incumbents = ring[:2]

    # ------------------------------------------------------------------
    def received_power_tensor(self, config: Configuration) -> np.ndarray:
        """Per-sector RP planes for ``config`` (candidate pre-filtering).

        Exposed for Algorithm 1's cheap "can sector b possibly improve
        an affected grid?" test, which needs every sector's received
        power, not just the serving one.
        """
        return self.engine._received_power_dbm(config)
