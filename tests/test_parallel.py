"""The multi-core evaluation subsystem (PR 5).

Covers the three layers of :mod:`repro.parallel` plus the sites that
own pools: the shared-memory plane store (packing, LRU eviction,
unlink-on-close), the :class:`EvaluationService` (threshold and
staleness fallbacks, counters, worker lifecycle — no orphans after
``close()``), and the planner-level scenario sweep.  Bitwise parity of
the parallel *strategy* lives in ``test_delta_engine.py``; here the
parity checks target the service API directly.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro
from repro.core.evaluation import Evaluator
from repro.core.utility import PerformanceUtility
from repro.obs import MetricsRegistry, set_registry
from repro.parallel import (DEFAULT_MIN_PARALLEL_BATCH, EvaluationService,
                            SharedPlaneStore, resolve_workers)
from repro.parallel.shm import attach_array, attach_block

_UTILITY = PerformanceUtility()


def _ladder(network, config, sectors, deltas):
    out = []
    for sector in sectors:
        spec = network.sector(sector)
        for delta in deltas:
            power = float(np.clip(config.power_dbm(sector) + delta,
                                  spec.min_power_dbm,
                                  spec.max_power_dbm))
            out.append(config.with_power(sector, power))
    return out


def _incumbent_of(engine, config, density):
    _, incumbent = engine.evaluate_with_incumbent(config, density)
    return incumbent


@pytest.fixture
def registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield multiprocessing  # placeholder; tests read via get_registry
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
class TestSharedPlaneStore:
    def test_roundtrip_and_alignment(self):
        arrays = {"a": np.arange(12, dtype=np.float64).reshape(3, 4),
                  "b": np.arange(5, dtype=np.int64),
                  "c": np.array([[1.5]])}
        with SharedPlaneStore() as store:
            handles = store.export("k", arrays)
            assert set(handles) == set(arrays)
            block = attach_block(handles["a"].block)
            try:
                for name, handle in handles.items():
                    assert handle.offset % 64 == 0
                    view = attach_array(handle, block)
                    assert np.array_equal(view, arrays[name])
                    assert not view.flags.writeable
            finally:
                block.close()

    def test_export_is_cached_and_lru_bounded(self):
        with SharedPlaneStore(capacity=2) as store:
            first = store.export("k1", {"x": np.ones(4)})
            assert store.export("k1", {"x": np.ones(4)}) is first
            store.export("k2", {"x": np.ones(4)})
            store.export("k3", {"x": np.ones(4)})
            assert len(store) == 2
            assert "k1" not in store and "k3" in store

    def test_close_unlinks_blocks(self):
        store = SharedPlaneStore()
        handles = store.export("k", {"x": np.ones(8)})
        name = handles["x"].block
        store.close()
        assert store.exported_bytes == 0
        with pytest.raises(FileNotFoundError):
            attach_block(name)
        store.close()               # idempotent


# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_default_is_positive(self):
        assert resolve_workers(None) >= 1

    def test_explicit_passthrough(self):
        assert resolve_workers(5) == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


# ----------------------------------------------------------------------
class TestEvaluationService:
    def _service(self, engine, density, workers=2, **kwargs):
        kwargs.setdefault("min_parallel_batch", 2)
        return EvaluationService(engine, density, _UTILITY, workers,
                                 **kwargs)

    def test_score_batch_matches_serial(self, toy_network, toy_engine,
                                        toy_density):
        base = toy_network.planned_configuration()
        candidates = _ladder(toy_network, base, (0, 1, 2),
                             (-2.0, -1.0, 1.0, 2.0))
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        serial = Evaluator(toy_engine, toy_density, _UTILITY,
                           strategy="delta")
        serial.utility_of(base)
        want = serial.score_candidates(candidates)
        with self._service(toy_engine, toy_density) as service:
            got = service.score_batch(incumbent, candidates)
        assert got == want

    def test_close_leaves_no_orphans(self, toy_network, toy_engine,
                                     toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        service = self._service(toy_engine, toy_density)
        assert service.score_batch(
            incumbent, _ladder(toy_network, base, (0, 1), (-1.0, 1.0))
        ) is not None
        assert service.running
        service.close()
        assert not service.running
        assert multiprocessing.active_children() == []
        service.close()             # idempotent

    def test_small_batch_falls_back(self, toy_network, toy_engine,
                                    toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        with self._service(
                toy_engine, toy_density,
                min_parallel_batch=DEFAULT_MIN_PARALLEL_BATCH) as service:
            few = _ladder(toy_network, base, (0,), (-1.0, 1.0))
            assert service.score_batch(incumbent, few) is None
            assert not service.running   # never even forked

    def test_single_worker_falls_back(self, toy_network, toy_engine,
                                      toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        with self._service(toy_engine, toy_density,
                           workers=1) as service:
            many = _ladder(toy_network, base, (0, 1, 2),
                           (-2.0, -1.0, 1.0, 2.0))
            assert service.score_batch(incumbent, many) is None

    def test_stale_epoch_falls_back_then_recovers(
            self, toy_network, toy_engine, toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        many = _ladder(toy_network, base, (0, 1, 2),
                       (-2.0, -1.0, 1.0, 2.0))
        with self._service(toy_engine, toy_density) as service:
            assert service.score_batch(incumbent, many) is not None
            toy_engine.pathloss.invalidate_caches()
            # The old incumbent's planes may be stale: refuse it.
            assert service.score_batch(incumbent, many) is None
            # A fresh incumbent re-forks the pool and works again.
            fresh = _incumbent_of(toy_engine, base, toy_density)
            serial = Evaluator(toy_engine, toy_density, _UTILITY,
                               strategy="delta")
            serial.utility_of(base)
            assert (service.score_batch(fresh, many)
                    == serial.score_candidates(many))

    def test_multi_sector_candidate_falls_back(
            self, toy_network, toy_engine, toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        two_sector = base.with_power(0, 36.0).with_power(1, 36.0)
        batch = _ladder(toy_network, base, (0, 1, 2),
                        (-1.0, 1.0)) + [two_sector]
        with self._service(toy_engine, toy_density) as service:
            assert service.score_batch(incumbent, batch) is None

    def test_counters(self, registry, toy_network, toy_engine,
                      toy_density):
        from repro.obs import get_registry
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        many = _ladder(toy_network, base, (0, 1, 2),
                       (-2.0, -1.0, 1.0, 2.0))
        with self._service(toy_engine, toy_density) as service:
            assert service.score_batch(incumbent, many) is not None
            resident = get_registry().gauge(
                "magus.parallel.shm_bytes").value
            assert resident and resident > 0
        reg = get_registry()
        assert reg.counter("magus.parallel.tasks").value > 0
        assert reg.counter("magus.parallel.worker_busy_ns").value > 0
        assert reg.counter("magus.engine.roi_evaluations").value \
            == len(many)
        # S1: shm accounting balances — everything allocated was
        # released on close and the resident gauge is back to zero.
        allocated = reg.counter("magus.parallel.shm_allocated_bytes").value
        released = reg.counter("magus.parallel.shm_released_bytes").value
        assert allocated > 0
        assert released == allocated
        assert reg.gauge("magus.parallel.shm_bytes").value == 0

    @pytest.mark.parametrize("n_sectors", [3, 9])
    def test_resident_shm_is_one_baseline_export(self, registry, toy_grid,
                                                 n_sectors):
        """Workers get the incumbent's nine (H, W) baseline rasters,
        never its (S, H, W) plane stack: resident shared memory after
        ``score_batch`` is one baseline export, whatever the sector
        count."""
        from conftest import make_sectors

        from repro.model.engine import AnalysisEngine
        from repro.model.load import uniform_per_sector_density
        from repro.model.network import CellularNetwork
        from repro.model.pathloss import PathLossDatabase
        from repro.model.propagation import Environment
        from repro.model.roi import RoiBaseline
        from repro.obs import get_registry

        xs = np.linspace(-1_200.0, 1_200.0, n_sectors)
        network = CellularNetwork(make_sectors(
            [(x, 0.0) for x in xs], azimuths=[90.0] * n_sectors,
            power_dbm=35.0, max_power_dbm=41.0))
        engine = AnalysisEngine(PathLossDatabase.from_environment(
            network, Environment.flat(toy_grid), shadowing_sigma_db=0.0,
            seed=0))
        base = network.planned_configuration()
        density = uniform_per_sector_density(
            engine.evaluate(base, np.zeros(engine.grid.shape)), 90.0)
        incumbent = _incumbent_of(engine, base, density)
        many = _ladder(network, base, (0, 1, 2), (-2.0, -1.0, 1.0, 2.0))
        arrays = RoiBaseline.from_incumbent(
            incumbent, _UTILITY, density).export_arrays()
        want = 0
        for arr in arrays.values():
            want = -(-want // 64) * 64 + arr.nbytes    # 64-byte aligned
        assert all(arr.shape == engine.grid.shape
                   for arr in arrays.values())
        with self._service(engine, density) as service:
            assert service.score_batch(incumbent, many) is not None
            resident = get_registry().gauge(
                "magus.parallel.shm_bytes").value
        assert resident == want

    def test_evaluator_close_shuts_pool(self, toy_network, toy_engine,
                                        toy_density):
        base = toy_network.planned_configuration()
        evaluator = Evaluator(toy_engine, toy_density, _UTILITY,
                              strategy="parallel", workers=2,
                              min_parallel_batch=2)
        evaluator.utility_of(base)
        evaluator.score_candidates(_ladder(toy_network, base, (0, 1, 2),
                                           (-1.0, 1.0, 2.0)))
        evaluator.close()
        assert multiprocessing.active_children() == []

    def test_pool_close_prints_nothing(self):
        """Pool shutdown leaves stderr empty (no resource-tracker
        ``KeyError`` tracebacks, no leaked-segment warnings).  The
        second pool forks after the tracker is already running, which
        is when workers share the owner's tracker."""
        script = textwrap.dedent("""
            from repro.core.evaluation import Evaluator
            from repro.synthetic.market import AreaDimensions, build_area
            from repro.synthetic.placement import AreaType

            area = build_area(AreaType.SUBURBAN, seed=42,
                              dims=AreaDimensions(tuning_side_m=1_600.0,
                                                  margin_m=800.0,
                                                  cell_size_m=200.0))
            base = area.c_before
            ladder = [base.with_power(s, base.power_dbm(s) - d)
                      for s in range(area.network.n_sectors)
                      if base.is_active(s) for d in (1.0, 2.0)]
            for _ in range(2):
                with Evaluator(area.engine, area.ue_density,
                               "performance", strategy="parallel",
                               workers=2, min_parallel_batch=2) as ev:
                    ev.utility_of(base)
                    ev.score_candidates(ladder)
                    assert ev._service.running
            """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_executor_fallback_closes_pool(self, toy_network,
                                           toy_engine, toy_density):
        """The exit-code-3 abort path may not orphan workers."""
        from repro.faults import (FaultInjector, FaultPlan, PushFaults,
                                  ResilientExecutor, RetryPolicy)
        from repro.core.magus import Magus
        plan_spec = FaultPlan(push=PushFaults(
            fail_steps=tuple(range(64)), fail_attempts=99))
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel", workers=2) as magus:
            magus.evaluator._service.min_parallel_batch = 2
            plan = magus.plan_mitigation([1], tuning="power")
            gradual = magus.gradual_schedule(plan)
            executor = ResilientExecutor(
                magus.evaluator, network=magus.network,
                injector=FaultInjector(plan_spec),
                policy=RetryPolicy(max_attempts=2, base_delay_s=0.0))
            rollout = executor.execute(gradual)
            assert not rollout.completed
            # _fall_back closed the evaluator's pool on abort.
            assert not magus.evaluator._service.running
            assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
class TestLRUCacheConcurrency:
    def test_concurrent_gain_tensor_mw(self, toy_network, toy_pathloss):
        """Hammer the mW caches from threads; no corruption, right data."""
        base = toy_network.planned_configuration()
        tilts = tuple(base.tilt_deg(s)
                      for s in range(toy_network.n_sectors))
        want = toy_pathloss.gain_tensor_mw(tilts).copy()
        alt = tuple(t + 1.0 for t in tilts)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    got = toy_pathloss.gain_tensor_mw(tilts)
                    if not np.array_equal(got, want):
                        raise AssertionError("corrupted tensor")
                    toy_pathloss.gain_tensor_mw(alt)
                    toy_pathloss.gain_matrix_mw(0, tilts[0])
            except Exception as exc:   # surfaced in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_lru_cache_pickles_without_lock(self):
        import pickle
        from repro.model.pathloss import LRUCache
        cache = LRUCache(4)
        cache.put("a", 1)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get("a") == 1
        clone.put("b", 2)           # the recreated lock works
        assert "b" in clone


# ----------------------------------------------------------------------
class TestScenarioSweep:
    def test_sweep_matches_serial(self, small_area):
        from repro.upgrades.planner import UpgradePlanner
        from repro.upgrades.scenario import UpgradeScenario
        scenarios = [UpgradeScenario.SINGLE_SECTOR,
                     UpgradeScenario.FULL_SITE]
        planner = UpgradePlanner(small_area)
        want = [planner.mitigate(s, tuning="power") for s in scenarios]
        got = planner.sweep_scenarios(scenarios, workers=2,
                                      tuning="power")
        assert [o.scenario for o in got] == scenarios
        for parallel, serial in zip(got, want):
            assert parallel.plan.c_after == serial.plan.c_after
            assert parallel.plan.f_after == serial.plan.f_after
        assert multiprocessing.active_children() == []

    def test_sweep_serial_fallback_single_worker(self, small_area):
        from repro.upgrades.planner import UpgradePlanner
        from repro.upgrades.scenario import UpgradeScenario
        planner = UpgradePlanner(small_area)
        outcomes = planner.sweep_scenarios(
            [UpgradeScenario.SINGLE_SECTOR], workers=1, tuning="power")
        assert len(outcomes) == 1
        assert outcomes[0].scenario is UpgradeScenario.SINGLE_SECTOR
