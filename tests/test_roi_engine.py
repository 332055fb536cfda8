"""Windowed evaluation: the one single-sector scoring kernel.

The windowed engine's contract is *bitwise* agreement with the dense
path: footprint boxes bound exactly the nonzero gain cells, and every
scoring route — delta snapshots, candidate scoring, the process pool —
produces identical floats whatever the window.  The property tests
below drive random perturbation chains through a clipped backend
(floor high enough that windows are genuinely small on the toy grid)
and through every case whose window is the full grid (unclipped
dicts, azimuth offsets, full-grid footprints, ``roi=False``), on
float64 dict and float32 packed backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.evaluation import Evaluator
from repro.core.utility import PerformanceUtility, UtilityFunction
from repro.model.engine import AnalysisEngine
from repro.model.linkrate import LinkAdaptation
from repro.model.pathloss import (DEFAULT_CLIP_FLOOR_DB, PathLossDatabase,
                                  plane_footprint)
from repro.model.plossdb import load_packed, save_packed
from repro.model.propagation import Environment
from repro.model.roi import (EMPTY_BOX, RoiBaseline, box_area,
                             box_is_empty, box_union, score_candidate)
from repro.obs import MetricsRegistry, set_registry
from repro.obs.report import RunReport

from conftest import make_sectors
from test_delta_engine import _MOVES, _apply_move, _assert_states_equal

_UTILITY = PerformanceUtility()

#: On the 20x20 toy grid the default -150 dB floor leaves every
#: footprint covering the whole grid (so ROI would only ever fall
#: back); -110 dB shrinks the boxes to ~20-35% of the grid, which is
#: the regime the windowed kernels must be exercised in.
_FLOOR = -110.0


def _clipped_pathloss(toy_grid, toy_network,
                      floor=_FLOOR) -> PathLossDatabase:
    return PathLossDatabase.from_environment(
        toy_network, Environment.flat(toy_grid),
        shadowing_sigma_db=0.0, seed=0, clip_floor_db=floor)


@pytest.fixture
def clipped_pathloss(toy_grid, toy_network) -> PathLossDatabase:
    return _clipped_pathloss(toy_grid, toy_network)


@pytest.fixture
def roi_engine(clipped_pathloss) -> AnalysisEngine:
    return AnalysisEngine(clipped_pathloss, link=LinkAdaptation(), roi=True)


@pytest.fixture
def dense_engine(toy_grid, toy_network) -> AnalysisEngine:
    """A dense comparator over an identical (but separate) database."""
    return AnalysisEngine(_clipped_pathloss(toy_grid, toy_network),
                          link=LinkAdaptation(), roi=False)


@pytest.fixture
def density(roi_engine, toy_network) -> np.ndarray:
    from repro.model.load import uniform_per_sector_density
    baseline = roi_engine.evaluate(toy_network.planned_configuration(),
                                   np.zeros(roi_engine.grid.shape))
    return uniform_per_sector_density(baseline, 90.0)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def _candidate_fan(network, base):
    """One candidate per knob per sector (all single-sector changes)."""
    out = []
    for s in range(network.n_sectors):
        spec = network.sector(s)
        out.append(base.with_power(s, max(base.power_dbm(s) - 3.0,
                                          spec.min_power_dbm)))
        out.append(base.with_tilt(s, min(base.tilt_deg(s) + 2.0,
                                         spec.tilt_range.max_deg)))
        if base.is_active(s):
            out.append(base.with_offline([s]))
    return out


# ----------------------------------------------------------------------
class TestFootprints:
    """The v3 boxes bound exactly the nonzero cells of each plane."""

    def test_boxes_tight_and_exact(self, clipped_pathloss, toy_network):
        for s in range(toy_network.n_sectors):
            for tilt in toy_network.sector(s).tilt_range.settings:
                box = clipped_pathloss.footprint(s, tilt)
                plane = clipped_pathloss.gain_matrix_mw(s, tilt)
                rows, cols = np.nonzero(plane)
                assert rows.size, "clipped toy plane unexpectedly empty"
                assert box == (int(rows.min()), int(rows.max()) + 1,
                               int(cols.min()), int(cols.max()) + 1)
                r0, r1, c0, c1 = box
                outside = plane.copy()
                outside[r0:r1, c0:c1] = 0.0
                assert not outside.any()

    def test_unclipped_dict_returns_none(self, toy_pathloss):
        assert toy_pathloss.clip_floor_db is None
        assert toy_pathloss.footprint(0, 8.0) is None

    def test_azimuth_offset_returns_none(self, clipped_pathloss):
        tilt = clipped_pathloss.network.sector(0).tilt_range.normal_deg
        assert clipped_pathloss.footprint(0, tilt) is not None
        assert clipped_pathloss.footprint(
            0, tilt, azimuth_offset_deg=10.0) is None

    def test_packed_table_matches_dict_scan(self, tmp_path, toy_grid,
                                            toy_network, clipped_pathloss):
        path = str(tmp_path / "toy.plossdb")
        save_packed(clipped_pathloss, path)
        loaded = load_packed(path)
        assert loaded.clip_floor_db == _FLOOR
        for s in range(toy_network.n_sectors):
            for tilt in loaded.packed_store.tilt_values:
                want = clipped_pathloss.footprint(s, tilt)
                # Packed planes are the same float32 quantization the
                # dict path clips, so the boxes agree exactly.
                assert loaded.footprint(s, tilt) == want

    def test_box_helpers(self):
        assert plane_footprint(np.zeros((4, 4))) == EMPTY_BOX
        assert box_is_empty(EMPTY_BOX)
        assert box_area(EMPTY_BOX) == 0
        a, b = (1, 3, 2, 5), (2, 6, 0, 3)
        assert box_union(a, EMPTY_BOX) == a
        assert box_union(EMPTY_BOX, b) == b
        assert box_union(a, b) == (1, 6, 0, 5)
        assert box_area(a) == 6


# ----------------------------------------------------------------------
class TestRoiDeltaParity:
    """Windowed evaluate_delta == full evaluate, bitwise."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_random_perturbation_chain(self, moves, roi_engine,
                                       toy_network, density):
        config = toy_network.planned_configuration()
        _, incumbent = roi_engine.evaluate_with_incumbent(config, density)
        for move in moves:
            new_config = _apply_move(toy_network, config, move)
            if new_config == config:
                config = new_config
                continue
            result = roi_engine.evaluate_delta(incumbent, new_config,
                                               density)
            assert result is not None
            state, incumbent = result
            _assert_states_equal(state,
                                 roi_engine.evaluate(new_config, density))
            config = new_config

    def test_windowed_path_taken(self, registry, roi_engine, toy_network,
                                 density):
        base = toy_network.planned_configuration()
        _, incumbent = roi_engine.evaluate_with_incumbent(base, density)
        trial = base.with_tilt(1, base.tilt_deg(1) + 2.0)
        roi_engine.evaluate_delta(incumbent, trial, density)
        snap = registry.snapshot()
        assert snap["magus.engine.roi_evaluations"]["value"] == 1
        assert snap["magus.engine.roi_cells"]["value"] > 0
        H, W = roi_engine.grid.shape
        assert snap["magus.engine.roi_cells"]["value"] < H * W

    def test_toggle_off_and_on(self, roi_engine, toy_network, density):
        base = toy_network.planned_configuration()
        _, incumbent = roi_engine.evaluate_with_incumbent(base, density)
        dark = base.with_offline([1])
        state, inc_dark = roi_engine.evaluate_delta(incumbent, dark,
                                                    density)
        _assert_states_equal(state, roi_engine.evaluate(dark, density))
        lit = dark.with_online([1])
        state, _ = roi_engine.evaluate_delta(inc_dark, lit, density)
        _assert_states_equal(state, roi_engine.evaluate(lit, density))

    def test_azimuth_move_falls_back_correctly(self, registry, roi_engine,
                                               toy_network, density):
        """Rotated patterns have no stored box: the full-grid window,
        same result."""
        base = toy_network.planned_configuration()
        _, incumbent = roi_engine.evaluate_with_incumbent(base, density)
        turned = base.with_azimuth_offset(1, 10.0)
        assert (roi_engine.roi_window(incumbent, turned, 1)
                == roi_engine.full_window)
        state, _ = roi_engine.evaluate_delta(incumbent, turned, density)
        _assert_states_equal(state, roi_engine.evaluate(turned, density))
        snap = registry.snapshot()
        H, W = roi_engine.grid.shape
        assert snap["magus.engine.roi_evaluations"]["value"] == 1
        assert snap["magus.engine.roi_cells"]["value"] == H * W
        assert "magus.engine.roi_fallbacks" not in snap


# ----------------------------------------------------------------------
class TestRoiScoreParity:
    """score_candidates: ROI on == ROI off, exact floats."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_random_candidates_bitwise(self, moves, roi_engine,
                                       dense_engine, toy_network, density):
        base = toy_network.planned_configuration()
        configs = []
        for move in moves:
            candidate = _apply_move(toy_network, base, move)
            if candidate != base:
                configs.append(candidate)
        if not configs:
            return
        roi_ev = Evaluator(roi_engine, density, "performance")
        dense_ev = Evaluator(dense_engine, density, "performance")
        assert roi_ev.utility_of(base) == dense_ev.utility_of(base)
        assert (roi_ev.score_candidates(configs)
                == dense_ev.score_candidates(configs))

    def test_windowed_path_taken(self, registry, roi_engine, toy_network,
                                 density):
        base = toy_network.planned_configuration()
        evaluator = Evaluator(roi_engine, density, "performance")
        evaluator.utility_of(base)
        candidates = _candidate_fan(toy_network, base)
        evaluator.score_candidates(candidates)
        snap = registry.snapshot()
        assert (snap["magus.engine.roi_evaluations"]["value"]
                == len(candidates))

    def test_packed_backend_bitwise(self, tmp_path, toy_grid, toy_network,
                                    clipped_pathloss, registry):
        path = str(tmp_path / "toy.plossdb")
        save_packed(clipped_pathloss, path)
        roi_db, dense_db = load_packed(path), load_packed(path)
        roi_eng = AnalysisEngine(roi_db, link=LinkAdaptation(), roi=True)
        dense_eng = AnalysisEngine(dense_db, link=LinkAdaptation(),
                                   roi=False)
        base = toy_network.planned_configuration()
        from repro.model.load import uniform_per_sector_density
        density = uniform_per_sector_density(
            roi_eng.evaluate(base, np.zeros(roi_eng.grid.shape)), 90.0)
        roi_ev = Evaluator(roi_eng, density, "performance")
        dense_ev = Evaluator(dense_eng, density, "performance")
        assert roi_ev.utility_of(base) == dense_ev.utility_of(base)
        candidates = _candidate_fan(toy_network, base)
        assert (roi_ev.score_candidates(candidates)
                == dense_ev.score_candidates(candidates))
        snap = registry.snapshot()
        assert snap["magus.engine.roi_evaluations"]["value"] > 0

    def test_custom_utility_exact(self, registry, roi_engine,
                                  toy_network, density):
        """A non-additive utility skips the partial-sum scorer (no
        batch path), but the windowed delta underneath ``utility_of``
        builds the full state, so any ``evaluate`` override stays
        exact."""
        class WorstGrid(UtilityFunction):
            name = "worst-grid"

            def per_ue(self, rate_bps):
                return np.asarray(rate_bps, dtype=float)

            def evaluate(self, state):   # non-additive
                return float(state.rate_bps.min())

        evaluator = Evaluator(roi_engine, density, WorstGrid())
        assert not evaluator._batchable()
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)
        candidates = [base.with_power(0, 38.0)]
        scores = evaluator.score_candidates(candidates)
        assert scores == [evaluator.utility_of(candidates[0])]
        assert ("magus.engine.batched_candidates"
                not in registry.snapshot())

    def test_plans_agree_with_and_without_roi(self, roi_engine,
                                              dense_engine, toy_network,
                                              density):
        from repro.core.magus import Magus
        plans = {}
        for name, engine in (("roi", roi_engine), ("dense", dense_engine)):
            magus = Magus(toy_network, engine, density)
            plans[name] = magus.plan_mitigation([1], tuning="joint")
        assert plans["roi"].c_after == plans["dense"].c_after
        assert plans["roi"].f_after == plans["dense"].f_after


# ----------------------------------------------------------------------
#: Backends for the kernel parity matrix: ``(name, clip floor, packed)``.
#: -110 dB gives small windows on the toy grid; -125 dB gives windows
#: between half the grid and all of it.
_BACKENDS = [("dict-f64", None, False),
             ("dict-f64-clip110", -110.0, False),
             ("dict-f64-clip125", -125.0, False),
             ("packed-f32", None, True),
             ("packed-f32-clip125", -125.0, True)]


def _backend(name, floor, packed, toy_grid, toy_network, tmp_path):
    db = PathLossDatabase.from_environment(
        toy_network, Environment.flat(toy_grid),
        shadowing_sigma_db=0.0, seed=0, clip_floor_db=floor)
    if packed:
        path = str(tmp_path / f"{name}.plossdb")
        save_packed(db, path)
        db = load_packed(path)
        assert db.plane_dtype == np.float32
    return db


def _move_fan(network, base):
    """Power (down and up), tilt (up and down), off-air, on-air and
    azimuth-offset moves of every sector, all single-sector."""
    out = []
    for s in range(network.n_sectors):
        spec = network.sector(s)
        if not base.is_active(s):
            out.append(base.with_online([s]))
            continue
        power = base.power_dbm(s)
        out.append(base.with_power(s, max(power - 3.0,
                                          spec.min_power_dbm)))
        out.append(base.with_power(s, min(power + 2.0,
                                          spec.max_power_dbm)))
        for step in (-2.0, 2.0):
            out.append(base.with_tilt(s, float(np.clip(
                base.tilt_deg(s) + step, spec.tilt_range.min_deg,
                spec.tilt_range.max_deg))))
        out.append(base.with_offline([s]))
        out.append(base.with_azimuth_offset(s, 10.0))
    return [c for c in dict.fromkeys(out) if c != base]


def _assert_canonical(score, want, db) -> None:
    """Kernel score vs. the canonical utility.

    Bitwise on float64 planes.  On float32 planes the incremental
    total the kernel shares with ``evaluate_batch`` (``total + new -
    old``) rounds differently from the canonical re-summed total;
    measured here, off-air moves of the edge sectors at -125 dB shift
    a few SINRs across a CQI step (2 of 31 candidates, 1.3e-4
    relative).  Searches confirm every winner canonically.
    """
    if db.plane_dtype == np.float64:
        assert score == want
    else:
        assert abs(score - want) <= 1e-3 * abs(want)


class TestKernelParity:
    """The windowed kernel at any window == evaluate_batch's
    per-candidate reduction == evaluate, and windowed evaluate_delta ==
    evaluate on every raster — on float64 dict and float32 packed
    backends, with and without a clip floor, with ``roi`` on and off."""

    @pytest.mark.parametrize("roi", [True, False])
    @pytest.mark.parametrize("name,floor,packed", _BACKENDS)
    def test_kernel_matches_batch_and_canonical(self, name, floor, packed,
                                                roi, toy_grid, toy_network,
                                                tmp_path):
        from repro.model.load import uniform_per_sector_density
        db = _backend(name, floor, packed, toy_grid, toy_network, tmp_path)
        engine = AnalysisEngine(db, link=LinkAdaptation(), roi=roi)
        full_window = engine.full_window
        assert full_window == (0, db.grid.shape[0], 0, db.grid.shape[1])
        base = toy_network.planned_configuration()
        density = uniform_per_sector_density(
            engine.evaluate(base, np.zeros(engine.grid.shape)), 90.0)
        shares = []
        for start in (base, base.with_offline([1])):
            _, incumbent = engine.evaluate_with_incumbent(start, density)
            baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY,
                                                  density)
            candidates = _move_fan(toy_network, start)
            batch = engine.evaluate_batch(incumbent, candidates, density)
            reduced = (_UTILITY.per_ue(batch.rate_bps) * density).reshape(
                len(candidates), -1).sum(axis=1)
            for k, config in enumerate(candidates):
                changed = engine.single_sector_change(incumbent, config)
                full = engine.evaluate(config, density)
                window = engine.roi_window(incumbent, config, changed)
                shares.append(box_area(window) / db.grid.n_cells)
                for box in {window, full_window}:
                    score = score_candidate(engine, baseline, config,
                                            changed, box, density, _UTILITY)
                    assert score == float(reduced[k]), (name, config, box)
                    _assert_canonical(score, _UTILITY.evaluate(full), db)
                state, _ = engine.evaluate_delta(incumbent, config,
                                                 density)
                _assert_states_equal(state, full)
        if not roi or (floor is None and not packed):
            # No footprints in play: every window is the full grid.
            assert set(shares) == {1.0}
        elif floor == -125.0:
            # Windows wider than half the grid, short of all of it.
            assert any(0.5 < share < 1.0 for share in shares)
        elif floor == -110.0:
            assert min(shares) < 0.5

    @pytest.mark.parametrize("name,floor,packed", _BACKENDS)
    def test_evaluator_scores_match_canonical(self, name, floor, packed,
                                              toy_grid, toy_network,
                                              tmp_path):
        """score_candidates through the kernel == a fresh canonical
        evaluation, for every move kind and backend."""
        from repro.model.load import uniform_per_sector_density
        db = _backend(name, floor, packed, toy_grid, toy_network, tmp_path)
        engine = AnalysisEngine(db, link=LinkAdaptation())
        reference = AnalysisEngine(db, link=LinkAdaptation())
        base = toy_network.planned_configuration()
        density = uniform_per_sector_density(
            engine.evaluate(base, np.zeros(engine.grid.shape)), 90.0)
        evaluator = Evaluator(engine, density, _UTILITY)
        evaluator.utility_of(base)
        candidates = _move_fan(toy_network, base)
        scores = evaluator.score_candidates(candidates)
        for score, config in zip(scores, candidates):
            _assert_canonical(
                score, _UTILITY.evaluate(reference.evaluate(config,
                                                            density)), db)


# ----------------------------------------------------------------------
class TestRoiParallelParity:
    """The pool ships ROI baselines; results stay bitwise-serial."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_scores_bitwise(self, workers, registry, roi_engine,
                                 dense_engine, toy_network, density):
        base = toy_network.planned_configuration()
        candidates = _candidate_fan(toy_network, base)
        serial = Evaluator(dense_engine, density, _UTILITY)
        serial.utility_of(base)
        want = serial.score_candidates(candidates)
        with Evaluator(roi_engine, density, _UTILITY,
                       strategy="parallel", workers=workers,
                       min_parallel_batch=2) as pooled:
            pooled.utility_of(base)
            got = pooled.score_candidates(candidates)
        assert got == want
        snap = registry.snapshot()
        assert snap["magus.engine.roi_evaluations"]["value"] > 0

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_random_chain_bitwise(self, moves, roi_engine, dense_engine,
                                  toy_network, density):
        config = toy_network.planned_configuration()
        for move in moves:
            config = _apply_move(toy_network, config, move)
        candidates = _candidate_fan(toy_network, config)
        serial = Evaluator(dense_engine, density, _UTILITY)
        serial.utility_of(config)
        want = serial.score_candidates(candidates)
        with Evaluator(roi_engine, density, _UTILITY,
                       strategy="parallel", workers=2,
                       min_parallel_batch=2) as pooled:
            pooled.utility_of(config)
            assert pooled.score_candidates(candidates) == want


# ----------------------------------------------------------------------
class TestRoiFallbacks:
    """Every case without a footprint window takes the full-grid
    window through the same kernel, never a wrong answer."""

    def _assert_all_full_grid(self, registry, engine, n_windows):
        snap = registry.snapshot()
        assert snap["magus.engine.roi_evaluations"]["value"] == n_windows
        assert (snap["magus.engine.roi_cells"]["value"]
                == n_windows * engine.grid.n_cells)
        assert "magus.engine.roi_fallbacks" not in snap
        assert "magus.engine.batched_candidates" not in snap

    def test_unclipped_dict_always_falls_back(self, registry, toy_engine,
                                              toy_network, toy_density):
        assert toy_engine.roi           # default-on ...
        evaluator = Evaluator(toy_engine, toy_density, "performance")
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)
        candidates = _candidate_fan(toy_network, base)
        scores = evaluator.score_candidates(candidates)
        # ... but footprints are unavailable, so every window is the
        # full grid.
        self._assert_all_full_grid(registry, toy_engine, len(candidates))
        reference = [evaluator.utility_of(c) for c in candidates]
        assert scores == reference

    def test_full_grid_footprint_falls_back(self, registry, toy_grid,
                                            toy_network):
        """At the -150 dB default floor the toy boxes cover the grid,
        so every window is the full grid."""
        db = _clipped_pathloss(toy_grid, toy_network,
                               floor=DEFAULT_CLIP_FLOOR_DB)
        H, W = db.grid.shape
        tilt = toy_network.sector(0).tilt_range.normal_deg
        assert box_area(db.footprint(0, tilt)) == H * W
        engine = AnalysisEngine(db, link=LinkAdaptation(), roi=True)
        from repro.model.load import uniform_per_sector_density
        base = toy_network.planned_configuration()
        density = uniform_per_sector_density(
            engine.evaluate(base, np.zeros(engine.grid.shape)), 90.0)
        evaluator = Evaluator(engine, density, "performance")
        evaluator.utility_of(base)
        # Off-air candidates shrink to the old footprint, still the
        # full grid here.
        candidates = _candidate_fan(toy_network, base)
        scores = evaluator.score_candidates(candidates)
        self._assert_all_full_grid(registry, engine, len(candidates))
        assert scores == [evaluator.utility_of(c) for c in candidates]

    def test_roi_opt_out(self, registry, roi_engine, dense_engine,
                         toy_network, density):
        """``roi=False`` on the engine makes every window the full
        grid, with the scores of the footprint windows."""
        assert not dense_engine.roi
        base = toy_network.planned_configuration()
        candidates = _candidate_fan(toy_network, base)
        dense_ev = Evaluator(dense_engine, density, "performance")
        dense_ev.utility_of(base)
        scores = dense_ev.score_candidates(candidates)
        self._assert_all_full_grid(registry, dense_engine, len(candidates))
        roi_ev = Evaluator(roi_engine, density, "performance")
        roi_ev.utility_of(base)
        assert roi_ev.score_candidates(candidates) == scores

    def test_roi_default_leaves_engine_setting(self, roi_engine,
                                               dense_engine, density):
        """The flag is set once, where the engine is built; an
        evaluator never changes it."""
        Evaluator(roi_engine, density, "performance")
        Evaluator(dense_engine, density, "performance",
                  strategy="parallel", workers=2).close()
        assert roi_engine.roi
        assert not dense_engine.roi

    def test_baseline_requires_anchored_state(self, roi_engine,
                                              toy_network, density):
        _, incumbent = roi_engine.evaluate_with_incumbent(
            toy_network.planned_configuration(), density)
        baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY, density)
        assert baseline.config == incumbent.config
        incumbent.state = None          # never ran ``_finish``
        with pytest.raises(ValueError, match="finished incumbent"):
            RoiBaseline.from_incumbent(incumbent, _UTILITY, density)


# ----------------------------------------------------------------------
class TestRoiReport:
    def test_report_has_roi_section(self, registry, roi_engine,
                                    toy_network, density):
        evaluator = Evaluator(roi_engine, density, "performance")
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)
        evaluator.score_candidates(_candidate_fan(toy_network, base))
        report = RunReport.from_registry("test", registry=registry)
        roi = report.roi_metrics()
        assert roi["magus.engine.roi_evaluations"] > 0
        assert "magus.engine.roi_fallbacks" not in roi
        # Footprint windows on the clipped toy grid: a real fraction.
        assert 0.0 < roi["mean_window_share"] < 1.0
        assert roi["mean_window_share"] == (
            roi["magus.engine.roi_cells"]
            / (roi["magus.engine.roi_evaluations"]
               * roi_engine.grid.n_cells))
        assert "roi:" in report.to_table()
        assert "mean_window_share" in report.to_table()

    def test_report_share_is_one_on_full_grid(self, registry, toy_engine,
                                              toy_network, toy_density):
        evaluator = Evaluator(toy_engine, toy_density, "performance")
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)
        evaluator.score_candidates(_candidate_fan(toy_network, base))
        roi = RunReport.from_registry("test",
                                      registry=registry).roi_metrics()
        assert roi["mean_window_share"] == 1.0

    def test_report_omits_empty_roi_section(self, registry):
        report = RunReport.from_registry("test", registry=registry)
        assert report.roi_metrics() == {}
        assert "roi:" not in report.to_table()
