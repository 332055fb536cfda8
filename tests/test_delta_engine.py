"""Parity of the incremental delta-evaluation engine (PR 4).

The delta path's contract is *bitwise* agreement with the canonical
full pass — exact serving map and utility, identical rasters — under
any single-sector perturbation (power, tilt, azimuth, on/off).  The
property tests below walk random perturbation chains and compare every
incremental snapshot against a from-scratch evaluation; the batched
scorer is held to exact serving/rate/utility (its SINR raster carries
an incrementally updated total-power plane, checked at rtol 1e-10).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.evaluation import Evaluator
from repro.core.utility import PerformanceUtility, UtilityFunction
from repro.model.engine import AnalysisEngine
from repro.model.linkrate import LinkAdaptation
from repro.model.load import uniform_per_sector_density
from repro.model.network import CellularNetwork
from repro.model.pathloss import PathLossDatabase
from repro.model.propagation import Environment
from repro.model.roi import EMPTY_BOX
from repro.model.snapshot import NO_SERVICE

from conftest import make_sectors

_UTILITY = PerformanceUtility()


def _assert_states_equal(delta_state, full_state) -> None:
    """Bitwise parity on every snapshot field the paper's model emits."""
    assert np.array_equal(delta_state.serving, full_state.serving)
    assert np.array_equal(delta_state.raw_serving, full_state.raw_serving)
    assert np.array_equal(delta_state.rp_best_dbm, full_state.rp_best_dbm)
    assert np.array_equal(delta_state.interference_dbm,
                          full_state.interference_dbm)
    assert np.array_equal(delta_state.sinr_db, full_state.sinr_db)
    assert np.array_equal(delta_state.max_rate_bps, full_state.max_rate_bps)
    assert np.array_equal(delta_state.n_ue, full_state.n_ue)
    assert np.array_equal(delta_state.rate_bps, full_state.rate_bps)
    assert (_UTILITY.evaluate(delta_state)
            == _UTILITY.evaluate(full_state))


# -- move generation ----------------------------------------------------
_MOVES = st.lists(
    st.tuples(st.sampled_from(["power", "tilt", "toggle", "azimuth"]),
              st.integers(min_value=0, max_value=2),
              st.sampled_from([-6.0, -3.0, -1.0, 1.0, 2.0, 3.0, 6.0])),
    min_size=1, max_size=8)


def _apply_move(network: CellularNetwork, config, move):
    kind, sector, value = move
    spec = network.sector(sector)
    if kind == "power":
        new = float(np.clip(config.power_dbm(sector) + value,
                            spec.min_power_dbm, spec.max_power_dbm))
        return config.with_power(sector, new)
    if kind == "tilt":
        rng = spec.tilt_range
        new = float(np.clip(config.tilt_deg(sector) + value,
                            rng.min_deg, rng.max_deg))
        return config.with_tilt(sector, new)
    if kind == "azimuth":
        return config.with_azimuth_offset(sector, value * 5.0)
    if config.is_active(sector):
        return config.with_offline([sector])
    return config.with_online([sector])


def _expected_window(engine, incumbent, config, changed):
    """The window on an unclipped backend: the full grid, except for a
    sector that stays off-air (it radiates nowhere, before or after)."""
    if not (incumbent.config.is_active(changed)
            or config.is_active(changed)):
        return EMPTY_BOX
    return engine.full_window


class TestDeltaParity:
    """evaluate_delta == evaluate, bitwise, along perturbation chains."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_random_perturbation_chain(self, moves, toy_engine,
                                       toy_network, toy_density):
        config = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(
            config, toy_density)
        for move in moves:
            new_config = _apply_move(toy_network, config, move)
            result = toy_engine.evaluate_delta(incumbent, new_config,
                                               toy_density)
            full = toy_engine.evaluate(new_config, toy_density)
            if new_config == config:
                # No-op move: not a single-sector change, delta refuses.
                assert result is None
            else:
                assert result is not None
                delta_state, incumbent = result
                _assert_states_equal(delta_state, full)
            config = new_config

    def test_every_move_takes_full_grid_window(self, toy_engine,
                                               toy_network, toy_density):
        """The default unclipped backend has no footprints: every
        single-sector move — power, tilt, off-air, on-air, azimuth —
        takes the full-grid window (a fresh state), except that a
        sector staying off-air has an empty one."""
        base = toy_network.planned_configuration()
        for start in (base, base.with_offline([1])):
            _, incumbent = toy_engine.evaluate_with_incumbent(start,
                                                              toy_density)
            for kind in ("power", "tilt", "toggle", "azimuth"):
                for sector in range(toy_network.n_sectors):
                    config = _apply_move(toy_network, start,
                                         (kind, sector, -3.0))
                    if config == start:
                        continue
                    assert (toy_engine.roi_window(incumbent, config, sector)
                            == _expected_window(toy_engine, incumbent,
                                                config, sector))
                    state, _ = toy_engine.evaluate_delta(
                        incumbent, config, toy_density)
                    _assert_states_equal(
                        state, toy_engine.evaluate(config, toy_density))

    def test_off_air_to_on_air(self, toy_engine, toy_network, toy_density):
        base = toy_network.planned_configuration().with_offline([1])
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        revived = base.with_online([1])
        state, _ = toy_engine.evaluate_delta(incumbent, revived,
                                             toy_density)
        _assert_states_equal(state, toy_engine.evaluate(revived,
                                                        toy_density))
        assert (state.serving == 1).any()

    def test_all_sectors_off(self, toy_engine, toy_network, toy_density):
        base = toy_network.planned_configuration().with_offline([0, 1])
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        dark = base.with_offline([2])
        state, dark_inc = toy_engine.evaluate_delta(incumbent, dark,
                                                    toy_density)
        _assert_states_equal(state, toy_engine.evaluate(dark, toy_density))
        assert (state.serving == NO_SERVICE).all()
        assert (state.rate_bps == 0.0).all()
        # ... and back out of the blackout from the all-off incumbent.
        lit = dark.with_online([0])
        state, _ = toy_engine.evaluate_delta(dark_inc, lit, toy_density)
        _assert_states_equal(state, toy_engine.evaluate(lit, toy_density))

    def test_multi_sector_change_refused(self, toy_engine, toy_network,
                                         toy_density):
        base = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        two = base.with_power(0, 38.0).with_power(2, 38.0)
        assert toy_engine.evaluate_delta(incumbent, two, toy_density) is None

    def test_stale_incumbent_refused_after_invalidation(
            self, toy_engine, toy_network, toy_density):
        base = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        toy_engine.pathloss.invalidate_caches()
        trial = base.with_power(0, 38.0)
        assert (toy_engine.evaluate_delta(incumbent, trial, toy_density)
                is None)


class TestBatchParity:
    """evaluate_batch: exact serving/rate/utility, near-exact SINR."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_batch_matches_canonical(self, moves, toy_engine,
                                     toy_network, toy_density):
        base = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        configs = []
        for move in moves:
            candidate = _apply_move(toy_network, base, move)
            if candidate != base:
                configs.append(candidate)
        if not configs:
            return
        batch = toy_engine.evaluate_batch(incumbent, configs, toy_density)
        assert batch is not None
        for k, config in enumerate(configs):
            full = toy_engine.evaluate(config, toy_density)
            assert np.array_equal(batch.serving[k], full.serving)
            assert np.array_equal(batch.max_rate_bps[k], full.max_rate_bps)
            assert np.array_equal(batch.n_ue[k], full.n_ue)
            assert np.array_equal(batch.rate_bps[k], full.rate_bps)
            assert np.allclose(batch.sinr_db[k], full.sinr_db,
                               rtol=1e-10, atol=0.0)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_full_grid_kernel_matches_batch(self, moves, toy_engine,
                                            toy_network, toy_density):
        """The windowed kernel at the full-grid window (the only window
        on this unclipped backend) == evaluate_batch's per-candidate
        reduction == evaluate, bitwise, from any reachable incumbent."""
        from repro.model.roi import RoiBaseline, score_candidate
        config = toy_network.planned_configuration()
        for move in moves[:-1]:
            config = _apply_move(toy_network, config, move)
        _, incumbent = toy_engine.evaluate_with_incumbent(config,
                                                          toy_density)
        baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY,
                                              toy_density)
        candidates = [c for c in dict.fromkeys(
            _apply_move(toy_network, config, (kind, sector, value))
            for kind, sector, value in moves
            for kind in ("power", "tilt", "toggle", "azimuth"))
            if c != config]
        batch = toy_engine.evaluate_batch(incumbent, candidates,
                                          toy_density)
        reduced = (_UTILITY.per_ue(batch.rate_bps) * toy_density).reshape(
            len(candidates), -1).sum(axis=1)
        for k, candidate in enumerate(candidates):
            changed = toy_engine.single_sector_change(incumbent, candidate)
            window = toy_engine.roi_window(incumbent, candidate, changed)
            assert window == _expected_window(toy_engine, incumbent,
                                              candidate, changed)
            score = score_candidate(toy_engine, baseline, candidate,
                                    changed, window, toy_density, _UTILITY)
            assert score == float(reduced[k])
            assert score == _UTILITY.evaluate(
                toy_engine.evaluate(candidate, toy_density))

    def test_batch_rejects_multi_sector_candidates(self, toy_engine,
                                                   toy_network,
                                                   toy_density):
        base = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        two = base.with_power(0, 38.0).with_power(1, 38.0)
        assert toy_engine.evaluate_batch(incumbent, [two],
                                         toy_density) is None

    def test_single_sector_network(self, toy_grid):
        """The runner-up comparator degenerates safely at S=1."""
        network = CellularNetwork(make_sectors([(0.0, 0.0)],
                                               power_dbm=35.0,
                                               max_power_dbm=41.0))
        db = PathLossDatabase.from_environment(
            network, Environment.flat(toy_grid), shadowing_sigma_db=0.0)
        engine = AnalysisEngine(db, link=LinkAdaptation())
        density = uniform_per_sector_density(
            engine.evaluate(network.planned_configuration(),
                            np.zeros(engine.grid.shape)), 90.0)
        base = network.planned_configuration()
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        lowered = base.with_power(0, 20.0)
        batch = engine.evaluate_batch(incumbent, [lowered], density)
        full = engine.evaluate(lowered, density)
        assert np.array_equal(batch.serving[0], full.serving)
        assert np.array_equal(batch.rate_bps[0], full.rate_bps)


class TestEvaluatorStrategies:
    """The strategy knob: delta and full answer identically."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_strategies_agree_exactly(self, moves, toy_engine,
                                      toy_network, toy_density):
        delta_ev = Evaluator(toy_engine, toy_density, "performance",
                             strategy="delta")
        full_ev = Evaluator(toy_engine, toy_density, "performance",
                            strategy="full")
        config = toy_network.planned_configuration()
        for move in moves:
            config = _apply_move(toy_network, config, move)
            assert (delta_ev.utility_of(config)
                    == full_ev.utility_of(config))
            _assert_states_equal(delta_ev.state_of(config),
                                 full_ev.state_of(config))

    def test_score_candidates_matches_utility_of(self, toy_engine,
                                                 toy_network, toy_density):
        evaluator = Evaluator(toy_engine, toy_density, "performance",
                              strategy="delta")
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)          # anchor the incumbent
        candidates = [base.with_power(0, 38.0), base.with_power(1, 33.0),
                      base.with_tilt(2, 6.0), base.with_offline([1]),
                      base.with_azimuth_offset(0, 15.0),
                      base.with_tilt(0, 0.0).with_power(0, 41.0)]
        scores = evaluator.score_candidates(candidates)
        reference = Evaluator(toy_engine, toy_density, "performance",
                              strategy="full")
        for config, score in zip(candidates, scores):
            assert score == reference.utility_of(config)

    def test_score_candidates_full_strategy_falls_back(
            self, toy_engine, toy_network, toy_density):
        evaluator = Evaluator(toy_engine, toy_density, "performance",
                              strategy="full")
        base = toy_network.planned_configuration()
        candidates = [base.with_power(0, 38.0), base.with_power(1, 33.0)]
        scores = evaluator.score_candidates(candidates)
        assert scores == [evaluator.utility_of(c) for c in candidates]

    def test_custom_utility_override_not_batched(self, toy_engine,
                                                 toy_network, toy_density):
        class WorstGrid(UtilityFunction):
            name = "worst-grid"

            def per_ue(self, rate_bps):
                return np.asarray(rate_bps, dtype=float)

            def evaluate(self, state):   # non-additive: max-min fairness
                return float(state.rate_bps.min())

        evaluator = Evaluator(toy_engine, toy_density, WorstGrid(),
                              strategy="delta")
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)
        candidates = [base.with_power(0, 38.0)]
        scores = evaluator.score_candidates(candidates)
        assert scores == [evaluator.utility_of(candidates[0])]

    def test_unknown_strategy_rejected(self, toy_engine, toy_density):
        with pytest.raises(ValueError, match="strategy"):
            Evaluator(toy_engine, toy_density, "performance",
                      strategy="turbo")

    def test_delta_metrics_counted(self, toy_engine, toy_network,
                                   toy_density):
        from repro.obs import MetricsRegistry, set_registry
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            evaluator = Evaluator(toy_engine, toy_density, "performance",
                                  strategy="delta")
            base = toy_network.planned_configuration()
            evaluator.utility_of(base)                   # fallback (anchor)
            evaluator.utility_of(base.with_power(0, 38.0))   # delta hit
            snap = registry.snapshot()
            assert snap["magus.engine.delta_fallbacks"]["value"] == 1
            assert snap["magus.engine.delta_evaluations"]["value"] == 1
        finally:
            set_registry(previous)


class TestSearchParityEndToEnd:
    """Full mitigation plans agree across strategies on the toy world."""

    @pytest.mark.parametrize("tuning", ["power", "tilt", "joint"])
    def test_plans_agree(self, tuning, toy_network, toy_engine,
                         toy_density):
        from repro.core.magus import Magus
        plans = {}
        for strategy in ("delta", "full"):
            magus = Magus(toy_network, toy_engine, toy_density,
                          evaluation_strategy=strategy)
            plans[strategy] = magus.plan_mitigation([1], tuning=tuning)
        assert (plans["delta"].c_after == plans["full"].c_after)
        assert (plans["delta"].f_after == plans["full"].f_after)


# ----------------------------------------------------------------------
def _parallel_evaluator(engine, density, workers,
                        min_parallel_batch=2) -> Evaluator:
    """A pool-backed evaluator eager enough to engage on toy batches."""
    return Evaluator(engine, density, _UTILITY, strategy="parallel",
                     workers=workers,
                     min_parallel_batch=min_parallel_batch)


def _power_ladder(network, config, sectors, deltas):
    """Single-sector power candidates around ``config`` (in-range)."""
    candidates = []
    for sector in sectors:
        spec = network.sector(sector)
        for delta in deltas:
            power = float(np.clip(config.power_dbm(sector) + delta,
                                  spec.min_power_dbm,
                                  spec.max_power_dbm))
            candidates.append(config.with_power(sector, power))
    return candidates


class TestParallelParity:
    """``strategy="parallel"`` is bitwise-identical to the serial path.

    ``workers=1`` must degrade to pure serial (no pool at all);
    ``workers=6`` oversubscribes the host's cores — correctness cannot
    depend on the worker count.
    """

    @pytest.mark.parametrize("workers", [1, 2, 6])
    def test_score_candidates_bitwise(self, workers, toy_network,
                                      toy_engine, toy_density):
        base = toy_network.planned_configuration()
        candidates = _power_ladder(toy_network, base, (0, 1, 2),
                                   (-3.0, -1.0, 1.0, 2.0, 3.0))
        serial = Evaluator(toy_engine, toy_density, _UTILITY,
                           strategy="delta")
        serial.utility_of(base)
        want = serial.score_candidates(candidates)
        with _parallel_evaluator(toy_engine, toy_density,
                                 workers) as parallel:
            parallel.utility_of(base)
            got = parallel.score_candidates(candidates)
        assert got == want

    def test_workers_1_never_forks(self, toy_network, toy_engine,
                                   toy_density):
        base = toy_network.planned_configuration()
        with _parallel_evaluator(toy_engine, toy_density, 1) as ev:
            ev.utility_of(base)
            ev.score_candidates(_power_ladder(
                toy_network, base, (0, 1, 2), (-1.0, 1.0, 2.0)))
            assert not ev._service.running

    @given(moves=_MOVES)
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_chain_bitwise(self, moves, toy_network, toy_engine,
                                  toy_density):
        """Parity holds from any reachable incumbent, not just C_before."""
        config = toy_network.planned_configuration()
        for move in moves:
            config = _apply_move(toy_network, config, move)
        candidates = _power_ladder(toy_network, config, (0, 1, 2),
                                   (-2.0, -1.0, 1.0, 2.0))
        serial = Evaluator(toy_engine, toy_density, _UTILITY,
                           strategy="delta")
        serial.utility_of(config)
        want = serial.score_candidates(candidates)
        with _parallel_evaluator(toy_engine, toy_density, 2) as parallel:
            parallel.utility_of(config)
            assert parallel.score_candidates(candidates) == want

    @pytest.mark.parametrize("tuning", ["power", "tilt", "joint"])
    @pytest.mark.parametrize("workers", [1, 2, 6])
    def test_plans_agree(self, tuning, workers, toy_network, toy_engine,
                         toy_density):
        from repro.core.magus import Magus
        serial = Magus(toy_network, toy_engine, toy_density,
                       evaluation_strategy="delta")
        want = serial.plan_mitigation([1], tuning=tuning)
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel",
                   workers=workers) as magus:
            if magus.evaluator._service is not None:
                magus.evaluator._service.min_parallel_batch = 2
            got = magus.plan_mitigation([1], tuning=tuning)
        assert got.c_after == want.c_after
        assert got.f_after == want.f_after
        assert got.tuning.n_steps == want.tuning.n_steps

    def test_brute_force_agrees(self, toy_network, toy_engine,
                                toy_density):
        from repro.core.brute import BruteForceSettings
        from repro.core.magus import Magus
        settings_ = BruteForceSettings(unit_db=2.0, max_delta_db=4.0)
        serial = Magus(toy_network, toy_engine, toy_density,
                       evaluation_strategy="delta")
        want = serial.brute_force_plan([1], settings_)
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel", workers=2) as magus:
            magus.evaluator._service.min_parallel_batch = 2
            got = magus.brute_force_plan([1], settings_)
        assert got.c_after == want.c_after
        assert got.f_after == want.f_after

    def test_gradual_agrees(self, toy_network, toy_engine, toy_density):
        from repro.core.magus import Magus
        serial = Magus(toy_network, toy_engine, toy_density,
                       evaluation_strategy="delta")
        plan_s = serial.plan_mitigation([1], tuning="power")
        want = serial.gradual_schedule(plan_s)
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel", workers=2) as magus:
            magus.evaluator._service.min_parallel_batch = 2
            plan_p = magus.plan_mitigation([1], tuning="power")
            got = magus.gradual_schedule(plan_p)
        assert plan_p.c_after == plan_s.c_after
        assert got.configs == want.configs
        assert got.utilities == want.utilities
        assert got.compensation_steps == want.compensation_steps
