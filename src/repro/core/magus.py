"""The Magus facade: proactive model-based mitigation planning.

This is the library's primary entry point.  Given a network, an
analysis engine and a UE population (or a prebuilt
:class:`~repro.synthetic.market.StudyArea`), :class:`Magus` plans the
mitigation for a set of sectors being upgraded:

1. snapshot ``C_before`` and compute ``f(C_before)``;
2. derive ``C_upgrade`` (targets off-air, nothing tuned) — the
   counterfactual the operator would suffer without Magus;
3. search for ``C_after`` with the requested tuning strategy
   (power / tilt / joint / naive / brute-force);
4. optionally expand the plan into a gradual pre-upgrade migration
   schedule with a guaranteed utility floor of ``f(C_after)``.

Every quantity of the paper's evaluation (recovery ratio, handover
peaks, convergence traces) falls out of the returned value objects.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..model.engine import AnalysisEngine
from ..model.network import CellularNetwork, Configuration
from ..obs import get_flight_recorder, get_logger, get_registry, trace
from .azimuth import AzimuthSearchSettings, tune_azimuth
from .brute import BruteForceSettings, tune_brute_force
from .evaluation import Evaluator
from .feedback import FeedbackResult, FeedbackSettings, reactive_feedback
from .gradual import (GradualResult, GradualSettings, gradual_migration,
                      simulate_direct)
from .joint import tune_joint
from .naive import NaiveSettings, tune_naive
from .plan import MitigationResult, TuningResult, recovery_ratio
from .search import PowerSearchSettings, tune_power
from .tilt import TiltSearchSettings, tune_tilt
from .utility import UtilityFunction

__all__ = ["Magus", "TUNING_STRATEGIES"]

_LOG = get_logger("core.magus")

#: Strategy names accepted by :meth:`Magus.plan_mitigation`.
TUNING_STRATEGIES = ("power", "tilt", "joint", "naive", "azimuth")


class Magus:
    """Proactive model-based mitigation for planned sector downtime."""

    def __init__(self, network: CellularNetwork, engine: AnalysisEngine,
                 ue_density: np.ndarray,
                 utility: UtilityFunction | str = "performance",
                 power_settings: Optional[PowerSearchSettings] = None,
                 tilt_settings: Optional[TiltSearchSettings] = None,
                 default_config: Optional[Configuration] = None,
                 evaluation_strategy: str = "delta",
                 workers: Optional[int] = None,
                 chunk_deadline_s: Optional[float] = None,
                 chaos=None) -> None:
        self.network = network
        self.evaluator = Evaluator(engine, ue_density, utility,
                                   strategy=evaluation_strategy,
                                   workers=workers,
                                   chunk_deadline_s=chunk_deadline_s,
                                   chaos=chaos)
        self.power_settings = power_settings or PowerSearchSettings()
        self.tilt_settings = tilt_settings or TiltSearchSettings()
        self.default_config = (default_config
                               or network.planned_configuration())

    @classmethod
    def from_area(cls, area, utility: UtilityFunction | str = "performance",
                  **kwargs) -> "Magus":
        """Bind to a :class:`~repro.synthetic.market.StudyArea`.

        Uses the area's *planned* (pre-optimized) configuration as the
        default ``C_before``.
        """
        kwargs.setdefault("default_config", area.c_before)
        return cls(area.network, area.engine, area.ue_density,
                   utility=utility, **kwargs)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release evaluator resources (the parallel worker pool)."""
        self.evaluator.close()

    def __enter__(self) -> "Magus":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def plan_mitigation(self, target_sectors: Sequence[int],
                        tuning: str = "joint",
                        c_before: Optional[Configuration] = None
                        ) -> MitigationResult:
        """Plan ``C_after`` for taking ``target_sectors`` off-air.

        ``tuning`` selects the search strategy (see
        :data:`TUNING_STRATEGIES`); ``c_before`` defaults to the
        operator-planned configuration.
        """
        targets = tuple(target_sectors)
        if not targets:
            raise ValueError("need at least one target sector")
        c_before = c_before or self.default_config
        for t in targets:
            if not c_before.is_active(t):
                raise ValueError(f"target sector {t} is already off-air")
        meter = self.evaluator.cost_meter()
        recorder = get_flight_recorder()
        with trace.span("magus.plan_mitigation", tuning=tuning,
                        targets=len(targets)):
            recorder.record("search_pass", phase="baseline_eval",
                            tuning=tuning, targets=list(targets))
            with trace.span("magus.baseline_eval"):
                baseline_state = self.evaluator.state_of(c_before)
                f_before = self.evaluator.utility_of(c_before)
            recorder.record("search_pass", phase="upgrade_eval",
                            tuning=tuning, f_before=f_before)
            with trace.span("magus.upgrade_eval"):
                c_upgrade = c_before.with_offline(targets)
                f_upgrade = self.evaluator.utility_of(c_upgrade)

            recorder.record("search_pass", phase="tuning", tuning=tuning,
                            f_upgrade=f_upgrade)
            with trace.span("magus.tuning", strategy=tuning):
                result = self._run_tuner(tuning, c_upgrade,
                                         baseline_state, targets)

        get_registry().counter("magus.plan.model_evaluations").inc(
            meter.spent())
        recorder.record("search_pass", phase="complete", tuning=tuning,
                        f_after=result.final_utility,
                        evaluations=meter.spent(),
                        termination=result.termination)
        _LOG.info("plan tuning=%s targets=%s recovery=%.4f evals=%d "
                  "steps=%d termination=%s", tuning, list(targets),
                  recovery_ratio(f_before, f_upgrade,
                                 result.final_utility),
                  meter.spent(), result.n_steps, result.termination)
        return MitigationResult(
            target_sectors=targets,
            c_before=c_before, c_upgrade=c_upgrade,
            c_after=result.final_config,
            f_before=f_before, f_upgrade=f_upgrade,
            f_after=result.final_utility,
            tuning=result,
            utility_name=self.evaluator.utility.name)

    def _run_tuner(self, tuning: str, c_upgrade: Configuration,
                   baseline_state, targets) -> TuningResult:
        if tuning == "power":
            return tune_power(self.evaluator, self.network, c_upgrade,
                              baseline_state, targets, self.power_settings)
        if tuning == "tilt":
            return tune_tilt(self.evaluator, self.network, c_upgrade,
                             targets, self.tilt_settings)
        if tuning == "joint":
            return tune_joint(self.evaluator, self.network, c_upgrade,
                              baseline_state, targets,
                              power_settings=self.power_settings,
                              tilt_settings=self.tilt_settings)
        if tuning == "azimuth":
            return tune_azimuth(self.evaluator, self.network, c_upgrade,
                                targets,
                                AzimuthSearchSettings(
                                    neighbor_radius_m=self.power_settings.neighbor_radius_m,
                                    max_neighbors=self.power_settings.max_neighbors))
        if tuning == "naive":
            return tune_naive(self.evaluator, self.network, c_upgrade,
                              targets,
                              NaiveSettings(
                                  unit_db=self.power_settings.unit_db,
                                  neighbor_radius_m=self.power_settings.neighbor_radius_m,
                                  max_neighbors=self.power_settings.max_neighbors))
        raise ValueError(
            f"unknown tuning strategy {tuning!r}; "
            f"expected one of {TUNING_STRATEGIES}")

    # ------------------------------------------------------------------
    def brute_force_plan(self, target_sectors: Sequence[int],
                         settings: Optional[BruteForceSettings] = None
                         ) -> MitigationResult:
        """Exhaustive ``C_after`` for tiny instances (validation only)."""
        targets = tuple(target_sectors)
        c_before = self.default_config
        f_before = self.evaluator.utility_of(c_before)
        c_upgrade = c_before.with_offline(targets)
        f_upgrade = self.evaluator.utility_of(c_upgrade)
        neighbors = self.network.neighbors_of(
            targets, radius_m=self.power_settings.neighbor_radius_m,
            max_neighbors=self.power_settings.max_neighbors)
        result = tune_brute_force(self.evaluator, self.network, c_upgrade,
                                  neighbors, settings)
        return MitigationResult(
            target_sectors=targets, c_before=c_before,
            c_upgrade=c_upgrade, c_after=result.final_config,
            f_before=f_before, f_upgrade=f_upgrade,
            f_after=result.final_utility, tuning=result,
            utility_name=self.evaluator.utility.name)

    # ------------------------------------------------------------------
    def gradual_schedule(self, plan: MitigationResult,
                         settings: Optional[GradualSettings] = None
                         ) -> GradualResult:
        """Expand a plan into the Figure-11 gradual migration."""
        return gradual_migration(self.evaluator, self.network,
                                 plan.c_before, plan.c_after,
                                 plan.target_sectors, settings)

    def direct_migration_stats(self, plan: MitigationResult):
        """Handover stats of the one-shot comparator for ``plan``."""
        return simulate_direct(self.evaluator, plan.c_before, plan.c_after)

    # ------------------------------------------------------------------
    def execute_rollout(self, plan: MitigationResult,
                        settings: Optional[GradualSettings] = None,
                        *, policy=None, injector=None,
                        checkpoint_path: Optional[str] = None,
                        apply_fn=None, floor_tolerance: float = 1e-6):
        """Plan the gradual schedule for ``plan`` and apply it resiliently.

        Returns ``(gradual, rollout)`` — the
        :class:`~repro.core.gradual.GradualResult` schedule and the
        :class:`~repro.faults.RolloutResult` of executing it through a
        :class:`~repro.faults.ResilientExecutor` (retry/backoff on
        failed pushes, ``f(C_after)``-floor validation of every step,
        last-known-good fallback, checkpoint/resume when
        ``checkpoint_path`` is given).
        """
        # Imported lazily: repro.faults depends on repro.core, so a
        # module-level import here would be circular.
        from ..faults.executor import ResilientExecutor
        gradual = self.gradual_schedule(plan, settings)
        executor = ResilientExecutor(
            self.evaluator, network=self.network, policy=policy,
            injector=injector, apply_fn=apply_fn,
            checkpoint_path=checkpoint_path,
            floor_tolerance=floor_tolerance)
        return gradual, executor.execute(gradual)

    # ------------------------------------------------------------------
    def reactive_feedback_run(self, target_sectors: Sequence[int],
                              settings: Optional[FeedbackSettings] = None,
                              warm_start: Optional[Configuration] = None,
                              injector=None) -> FeedbackResult:
        """The SON-style comparator, optionally warm-started.

        ``warm_start=plan.c_after`` realizes the paper's future-work
        idea of seeding feedback control with Magus's model output;
        ``injector`` corrupts the controller's measurements per its
        fault plan.
        """
        targets = tuple(target_sectors)
        start = warm_start or self.default_config.with_offline(targets)
        return reactive_feedback(self.evaluator, self.network, start,
                                 targets, settings, injector=injector)
