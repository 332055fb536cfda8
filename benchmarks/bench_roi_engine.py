"""PR-10 perf harness: sparse region-of-influence candidate scoring.

Times candidate scoring through footprint windows against the dense
batch path and probes the paper-scale market.  "Dense" is
:meth:`AnalysisEngine.evaluate_batch` in chunks of 64 plus the
per-candidate utility reduction (:func:`_dense_batch_scores`) — what
an ``Evaluator`` without footprint windows ran before every candidate
went through the windowed kernel.

* ``test_roi_scoring_speedup`` — the 60-sector 120x120 bench area is
  re-clipped at ``-110`` dB (at the default ``-150`` dB floor the
  suburban footprints stay full-grid) and packed;
  ``Evaluator.score_candidates`` over a 57-candidate power ladder must
  be a >=2x best-of-N speedup over the dense batch path, after a
  bitwise parity gate.  An informational row (no bar) times the same
  kernel with footprint windows against full-grid windows
  (``roi=False``).  The CI perf-smoke step runs exactly this with
  ``--quick``.
* ``test_packed_roi_parity_subprocess`` — a fresh process builds a
  small clipped v3 market, memory-maps it back and asserts the header
  carries the clip floor + footprint table and that dense and windowed
  scoring (batch and delta) agree bitwise.
* ``test_parallel_roi_bar`` — the >=3x @ 8-worker parallel-ROI bar;
  recorded as an explicit skip on hosts with fewer than 8 CPUs so the
  checked-in JSON cannot be mistaken for a pass.
* ``test_paper_scale_roi`` — the 1000+-sector 600x600 16-tilt market
  packed at ``-115`` dB (measured mean footprint ~0.08 of the grid;
  the default floor keeps boxes full-grid at this scale, see
  DESIGN.md).  ROI candidate scoring must be >=5x over dense.  Opt-in
  via ``BENCH_PR10_FULL=1`` (~30 GB scratch disk, ~11 min of build),
  an explicit skip row otherwise.

Results are written to ``BENCH_pr10.json`` at the repo root.  The
module doubles as the probe binary
(``python benchmarks/bench_roi_engine.py --probe build|score|parity``);
every probe prints one JSON line so timings and peak RSS come from a
process that has done nothing else.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List

_REPO_ROOT = Path(__file__).resolve().parents[1]
_OUT_PATH = Path(os.environ.get("BENCH_PR10_OUT",
                                str(_REPO_ROOT / "BENCH_pr10.json")))
_FULL = os.environ.get("BENCH_PR10_FULL") == "1"
#: Clip floor for the CI quick scenario.  Measured on the 120x120
#: suburban bench area: mean footprint 0.14 of the grid (max 0.85 —
#: one straddling sector's window covers most of the grid).
_QUICK_FLOOR_DB = -110.0
#: Clip floor for the paper-scale point (mean footprint ~0.08).
_FULL_FLOOR_DB = -115.0

_RESULTS: List[dict] = []


# ----------------------------------------------------------------------
# probe plumbing (subprocess side runs without pytest/conftest)
# ----------------------------------------------------------------------
def _reset_peak_rss() -> None:
    """Zero this process's RSS high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:  # pragma: no cover — non-Linux / restricted procfs
        pass


def _maxrss_mb() -> float:
    """Peak RSS of this process in MB."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:  # pragma: no cover — non-Linux
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _best_s(fn, rounds: int) -> float:
    """Best-of-N wall time.

    The speedup bars compare two code paths on the same inputs; the
    minimum over rounds estimates the uncontended cost of each, which
    is what survives a noisy shared CI runner (a median still soaks
    up whatever the neighbors were doing).
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _power_trials(network, config, batch: int) -> list:
    """Single-sector +1 dB power trials, one per sector up to ``batch``."""
    trials = []
    for s in range(min(batch, network.n_sectors)):
        trial = config.with_power_delta(
            s, 1.0, max_power_dbm=network.sector(s).max_power_dbm)
        if trial != config:
            trials.append(trial)
    return trials


def _dense_batch_scores(engine, incumbent, configs, density,
                        utility) -> list:
    """The dense reference: ``evaluate_batch`` in chunks of 64 plus the
    per-candidate weighted reduction."""
    scores = []
    for start in range(0, len(configs), 64):
        batch = engine.evaluate_batch(incumbent, configs[start:start + 64],
                                      density)
        weighted = utility.per_ue(batch.rate_bps) * density
        scores.extend(float(u) for u in
                      weighted.reshape(weighted.shape[0], -1).sum(axis=1))
    return scores


def _roi_counters(registry) -> dict:
    """The ``magus.engine.roi_*`` counter values from one registry."""
    snap = registry.snapshot()
    return {name.rsplit(".", 1)[-1]: meta["value"]
            for name, meta in snap.items()
            if name.startswith("magus.engine.roi_")}


def _probe_build(args) -> dict:
    """Stream a clip-floored square market to ``args.path``."""
    from bench_packed_market import _tilt_ladder

    from repro.model.plossdb import read_header
    from repro.synthetic.market import build_packed_market
    from repro.synthetic.placement import AreaType

    if args.reuse and os.path.exists(args.path):
        header = read_header(args.path)   # raises if truncated/corrupt
        if (header["version"] >= 3
                and header.get("clip_floor_db") == args.clip_floor_db):
            return {"probe": "build", "reused": True,
                    "n_sectors": header["n_sectors"],
                    "n_tilts": len(header["tilt_values"]),
                    "clip_floor_db": header.get("clip_floor_db"),
                    "grid_cells": args.grid_cells,
                    "file_mb": os.path.getsize(args.path) / 1e6,
                    "build_s": None, "maxrss_mb": _maxrss_mb()}
    t0 = time.perf_counter()
    header = build_packed_market(
        args.path, seed=args.seed, area_type=AreaType(args.area),
        grid_cells=args.grid_cells, cell_size_m=args.cell_size,
        tilt_values=_tilt_ladder(args.area, args.tilts),
        clip_floor_db=args.clip_floor_db)
    build_s = time.perf_counter() - t0
    return {"probe": "build", "reused": False,
            "n_sectors": header["n_sectors"],
            "n_tilts": len(header["tilt_values"]),
            "clip_floor_db": header.get("clip_floor_db"),
            "grid_cells": args.grid_cells,
            "file_mb": os.path.getsize(args.path) / 1e6,
            "build_s": build_s, "maxrss_mb": _maxrss_mb()}


def _probe_score(args) -> dict:
    """Memory-map ``args.path`` and time dense vs. ROI scoring.

    Anchors one incumbent for the dense batch path and one delta
    evaluator with footprint windows, parity-gates the two score
    vectors (must be *bitwise* equal), then times both over the same
    single-sector power trials — the Algorithm-1 inner loop.  The
    window counters are recorded alongside.
    """
    import numpy as np

    from repro.core.evaluation import Evaluator
    from repro.model.engine import AnalysisEngine
    from repro.model.plossdb import load_packed
    from repro.obs import MetricsRegistry, set_registry

    registry = MetricsRegistry()
    set_registry(registry)
    t0 = time.perf_counter()
    db = load_packed(args.path)
    load_s = time.perf_counter() - t0
    sparsity = db.validate() or {}
    network = db.network
    density = np.ones(db.grid.shape)
    config = network.planned_configuration()
    trials = _power_trials(network, config, args.batch)

    ev_roi = Evaluator(AnalysisEngine(db), density, cache_size=0,
                       strategy="delta")
    t0 = time.perf_counter()
    dense_engine = AnalysisEngine(db, roi=False)
    _, incumbent = dense_engine.evaluate_with_incumbent(config, density)
    anchor_s = time.perf_counter() - t0

    def dense():
        return _dense_batch_scores(dense_engine, incumbent, trials,
                                   density, ev_roi.utility)

    ev_roi.utility_of(config)
    parity = dense() == ev_roi.score_candidates(trials)

    dense_s = _best_s(dense, args.rounds)
    roi_s = _best_s(lambda: ev_roi.score_candidates(trials),
                    args.rounds)
    return {"probe": "score", "n_sectors": network.n_sectors,
            "grid": list(db.grid.shape),
            "n_tilts": len(db.packed_store.tilt_values),
            "clip_floor_db": db.clip_floor_db,
            "mean_footprint_ratio": sparsity.get("mean_footprint_ratio"),
            "max_footprint_ratio": sparsity.get("max_footprint_ratio"),
            "n_candidates": len(trials), "rounds": args.rounds,
            "timing": f"best-of-{args.rounds}",
            "load_s": load_s, "anchor_s": anchor_s,
            "dense_best_s": dense_s, "roi_best_s": roi_s,
            "speedup": dense_s / roi_s if roi_s > 0 else float("inf"),
            "parity": bool(parity),
            **_roi_counters(registry),
            "maxrss_mb": _maxrss_mb()}


def _probe_parity(args) -> dict:
    """Build a small clipped v3 market; check format + parity fresh.

    The contracts CI cares about: the on-disk header carries the clip
    floor and the footprint table; batch scoring and the windowed
    delta agree bitwise with their dense counterparts; footprint
    windows actually resolved (mean window share below 1).
    """
    import numpy as np

    from repro.core.evaluation import Evaluator
    from repro.model.engine import AnalysisEngine
    from repro.model.plossdb import load_packed, read_header
    from repro.obs import MetricsRegistry, set_registry
    from repro.synthetic.market import build_packed_market

    registry = MetricsRegistry()
    set_registry(registry)
    t0 = time.perf_counter()
    build_packed_market(args.path, seed=3, grid_cells=args.grid_cells,
                        cell_size_m=args.cell_size,
                        clip_floor_db=args.clip_floor_db)
    build_s = time.perf_counter() - t0
    header = read_header(args.path)
    db = load_packed(args.path)
    network = db.network
    density = np.ones(db.grid.shape)
    config = network.planned_configuration()

    trials = _power_trials(network, config, args.batch)
    ladder = list(db.packed_store.tilt_values)
    tilt = next(t for t in ladder
                if t != config.settings[0].tilt_deg)
    trials.append(config.with_tilt(0, tilt))

    ev_roi = Evaluator(AnalysisEngine(db), density, cache_size=0,
                       strategy="delta")
    ev_roi.utility_of(config)
    dense_engine = AnalysisEngine(db, roi=False)
    _, incumbent = dense_engine.evaluate_with_incumbent(config, density)
    scores_equal = (_dense_batch_scores(dense_engine, incumbent, trials,
                                        density, ev_roi.utility)
                    == ev_roi.score_candidates(trials))

    # Windowed delta vs. the full evaluation on the mapped planes.
    engine = ev_roi.engine
    _, incumbent = engine.evaluate_with_incumbent(config, density)
    full = engine.evaluate(trials[0], density)
    delta, _ = engine.evaluate_delta(incumbent, trials[0], density)
    delta_equal = (np.array_equal(full.serving, delta.serving)
                   and np.array_equal(full.sinr_db, delta.sinr_db)
                   and np.array_equal(full.rate_bps, delta.rate_bps))
    counters = _roi_counters(registry)
    return {"probe": "parity", "n_sectors": network.n_sectors,
            "grid": list(db.grid.shape),
            "format_version": header["version"],
            "clip_floor_db": header.get("clip_floor_db"),
            "has_footprints": bool(db.packed_store.has_footprints),
            "n_candidates": len(trials),
            "scores_bitwise_equal": bool(scores_equal),
            "delta_bitwise_equal": bool(delta_equal),
            "mean_window_share": counters["roi_cells"] / (
                counters["roi_evaluations"] * db.grid.n_cells),
            "build_s": build_s, **counters,
            "maxrss_mb": _maxrss_mb()}


def _run_probe(probe_args: List[str]) -> dict:
    """Run one probe in a fresh interpreter; parse its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *probe_args],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, (
        f"probe {probe_args} failed:\n{proc.stderr[-4000:]}")
    line = proc.stdout.strip().splitlines()[-1]
    return json.loads(line)


# ----------------------------------------------------------------------
# benches (pytest side)
# ----------------------------------------------------------------------
def test_roi_scoring_speedup(bench_area_120, quick):
    """Footprint-windowed score_candidates: >=2x over dense at CI scale.

    The bench area's rasters are re-clipped at ``_QUICK_FLOOR_DB`` and
    packed (the stock area uses the conservative default floor, whose
    suburban footprints are full-grid).  The dense side is
    :func:`_dense_batch_scores`.  Parity is asserted bitwise before
    any timing: the speedup must not come at the cost of a single
    ulp.  The kernel with full-grid windows (``roi=False``) is timed
    too, as an informational row without a bar.
    """
    from repro.core.evaluation import Evaluator
    from repro.model.engine import AnalysisEngine
    from repro.model.pathloss import PathLossDatabase
    from repro.model.plossdb import pack_database
    from repro.obs import get_registry

    from conftest import neighbor_power_ladder, report

    area = bench_area_120
    base = area.pathloss
    db = PathLossDatabase(area.grid, area.network, base._rasters,
                          base.tilt_model, validate=False,
                          clip_floor_db=_QUICK_FLOOR_DB)
    db.attach_packed(pack_database(db))
    sparsity = db.validate()
    config, cands = neighbor_power_ladder(
        area, units=(1.0, 2.0, -1.0, -2.0))
    link = area.engine.link
    density = area.ue_density
    dense_engine = AnalysisEngine(db, link=link, roi=False)
    _, incumbent = dense_engine.evaluate_with_incumbent(config, density)
    ev_roi = Evaluator(AnalysisEngine(db, link=link, roi=True), density,
                       cache_size=0, strategy="delta")
    ev_full = Evaluator(AnalysisEngine(db, link=link, roi=False), density,
                        cache_size=0, strategy="delta")
    ev_roi.utility_of(config)
    ev_full.utility_of(config)

    def dense():
        return _dense_batch_scores(dense_engine, incumbent, cands,
                                   density, ev_roi.utility)

    # Parity gate before timing (bitwise, not approximate).
    registry = get_registry()
    before = _roi_counters(registry)
    roi_scores = ev_roi.score_candidates(cands)
    counters = {name: value - before.get(name, 0)
                for name, value in _roi_counters(registry).items()}
    assert dense() == roi_scores, (
        "windowed scores diverged from the dense batch path")
    assert ev_full.score_candidates(cands) == roi_scores, (
        "full-grid windows diverged from footprint windows")
    assert counters.get("roi_cells", 0) < (
        len(cands) * area.grid.n_cells), (
        "no footprint window resolved — every window was the full grid")

    rounds = 5 if quick else 7
    dense_s = _best_s(dense, rounds)
    roi_s = _best_s(lambda: ev_roi.score_candidates(cands), rounds)
    full_s = _best_s(lambda: ev_full.score_candidates(cands), rounds)
    speedup = dense_s / roi_s if roi_s > 0 else float("inf")
    row = {
        "scenario": "suburban-60s-120x120-power-ladder",
        "mode": "roi-vs-dense-score-candidates",
        "n_sectors": area.network.n_sectors,
        "grid": list(area.grid.shape),
        "clip_floor_db": _QUICK_FLOOR_DB,
        "mean_footprint_ratio": sparsity["mean_footprint_ratio"],
        "max_footprint_ratio": sparsity["max_footprint_ratio"],
        "n_candidates": len(cands), "rounds": rounds,
        "timing": f"best-of-{rounds}",
        "dense_best_s": dense_s, "roi_best_s": roi_s,
        "speedup": speedup, **counters,
    }
    _RESULTS.append(row)
    _RESULTS.append({"scenario": row["scenario"],
                     "mode": "speedup-bar-2x", "status": "asserted",
                     "speedup": speedup})
    window_share = counters["roi_cells"] / (
        counters["roi_evaluations"] * area.grid.n_cells)
    _RESULTS.append({"scenario": row["scenario"],
                     "mode": "footprint-vs-full-grid-window",
                     "status": "informational (no bar)",
                     "rounds": rounds, "timing": f"best-of-{rounds}",
                     "full_grid_best_s": full_s, "roi_best_s": roi_s,
                     "mean_window_share": window_share,
                     "speedup": full_s / roi_s if roi_s > 0
                     else float("inf")})
    report(f"\nroi vs dense score_candidates "
           f"({area.network.n_sectors} sectors, {len(cands)} candidates, "
           f"floor {_QUICK_FLOOR_DB:g} dB): "
           f"dense {dense_s * 1e3:.1f} ms, roi {roi_s * 1e3:.1f} ms "
           f"-> {speedup:.2f}x; full-grid windows "
           f"{full_s * 1e3:.1f} ms (mean window share "
           f"{window_share:.3f})")
    assert speedup >= 2.0, (
        f"ROI scoring speedup {speedup:.2f}x is below the 2x "
        f"acceptance bar")


def test_packed_roi_parity_subprocess(tmp_path):
    """v3 pack → mmap → dense/ROI bitwise parity in a fresh process."""
    from conftest import report

    row = _run_probe(["--probe", "parity",
                      "--path", str(tmp_path / "roi.plossdb"),
                      "--clip-floor-db", str(_QUICK_FLOOR_DB)])
    row.update(scenario="urban-96x96-roi-parity",
               mode="packed-v3-roi-parity")
    _RESULTS.append(row)
    report(f"\nparity probe: {row['n_sectors']} sectors, format v"
           f"{row['format_version']}, floor {row['clip_floor_db']:g} dB, "
           f"windows {row.get('roi_evaluations', 0)} (mean share "
           f"{row['mean_window_share']:.3f}), "
           f"peak RSS {row['maxrss_mb']:.0f} MB")
    assert row["format_version"] >= 3
    assert row["clip_floor_db"] == _QUICK_FLOOR_DB
    assert row["has_footprints"], "v3 file lost its footprint table"
    assert row["scores_bitwise_equal"], (
        "dense and ROI candidate scores diverged in the fresh process")
    assert row["delta_bitwise_equal"], (
        "windowed delta diverged from the full evaluation")
    assert row["mean_window_share"] < 1.0, (
        "parity probe never resolved a footprint window")


def test_parallel_roi_bar(bench_area_120, quick):
    """>=3x @ 8 workers: parallel ROI scoring vs. serial dense.

    Asserted only where it can honestly run; on smaller hosts the JSON
    records an explicit skip (the serial >=2x bar above still gates).
    """
    from conftest import neighbor_power_ladder, report

    cores = os.cpu_count() or 1
    if cores < 8:
        _RESULTS.append({
            "scenario": "suburban-60s-120x120-power-ladder",
            "mode": "roi-parallel-speedup-bar-3x-at-8-workers",
            "status": f"skipped (needs >=8 cores, have {cores}; "
                      f"serial roi-vs-dense bar asserted above)"})
        report(f"\n(parallel ROI bar not run: {cores} core(s) < 8)")
        return

    from repro.core.evaluation import Evaluator
    from repro.model.engine import AnalysisEngine
    from repro.model.pathloss import PathLossDatabase
    from repro.model.plossdb import pack_database

    area = bench_area_120
    base = area.pathloss
    db = PathLossDatabase(area.grid, area.network, base._rasters,
                          base.tilt_model, validate=False,
                          clip_floor_db=_QUICK_FLOOR_DB)
    db.attach_packed(pack_database(db))
    config, cands = neighbor_power_ladder(
        area, units=(1.0, 2.0, -1.0, -2.0))
    link = area.engine.link
    density = area.ue_density
    dense_engine = AnalysisEngine(db, link=link, roi=False)
    _, incumbent = dense_engine.evaluate_with_incumbent(config, density)

    def dense():
        return _dense_batch_scores(dense_engine, incumbent, cands,
                                   density, ev_par.utility)

    rounds = 3 if quick else 7
    with Evaluator(AnalysisEngine(db, link=link, roi=True), density,
                   cache_size=0, strategy="parallel", workers=8,
                   min_parallel_batch=2) as ev_par:
        dense_s = _best_s(dense, rounds)
        ev_par.utility_of(config)
        assert ev_par.score_candidates(cands) == dense()
        par_s = _best_s(lambda: ev_par.score_candidates(cands), rounds)
    speedup = dense_s / par_s if par_s > 0 else float("inf")
    _RESULTS.append({
        "scenario": "suburban-60s-120x120-power-ladder",
        "mode": "roi-parallel-speedup-bar-3x-at-8-workers",
        "status": "asserted", "workers": 8, "rounds": rounds,
        "timing": f"best-of-{rounds}",
        "dense_best_s": dense_s, "parallel_roi_best_s": par_s,
        "speedup": speedup})
    report(f"\nparallel ROI (8 workers): dense {dense_s * 1e3:.1f} ms, "
           f"parallel roi {par_s * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 3.0, (
        f"parallel ROI speedup {speedup:.2f}x below the 3x bar")


def test_paper_scale_roi(quick):
    """Paper-scale acceptance: >=5x ROI speedup at 1000+ sectors.

    Builds (or reuses) the 600x600 16-tilt market packed at
    ``_FULL_FLOOR_DB`` and times dense vs. ROI candidate scoring in a
    fresh probe process.  Needs ~30 GB scratch disk and ~11 minutes of
    build, so it is opt-in via ``BENCH_PR10_FULL=1`` and recorded as
    an explicit skip otherwise.
    """
    from conftest import report

    if not _FULL:
        _RESULTS.append({
            "scenario": "urban-600x600-16t",
            "mode": "paper-scale-roi-acceptance",
            "status": "skipped (BENCH_PR10_FULL not set; needs ~30 GB "
                      "scratch disk and ~11 min of build time)"})
        report("\n(paper-scale 600x600 ROI point not run: "
               "BENCH_PR10_FULL not set)")
        return

    scratch = os.environ.get("BENCH_PR10_DIR") or tempfile.gettempdir()
    path = os.path.join(scratch,
                        "magus-market-600x600-16t-roi.plossdb")
    try:
        built = _run_probe(["--probe", "build", "--path", path,
                            "--grid-cells", "600", "--cell-size", "16.0",
                            "--tilts", "16",
                            "--clip-floor-db", str(_FULL_FLOOR_DB),
                            "--reuse"])
        scored = _run_probe(["--probe", "score", "--path", path,
                             "--batch", "48", "--rounds", "3"])
    finally:
        if os.path.exists(path) and os.environ.get(
                "BENCH_PR10_KEEP") != "1":
            os.remove(path)
    _RESULTS.append({**built, "scenario": "urban-600x600-16t",
                     "mode": "pack-build"})
    _RESULTS.append({**scored, "scenario": "urban-600x600-16t",
                     "mode": "roi-vs-dense-score-candidates"})
    _RESULTS.append({"scenario": "urban-600x600-16t",
                     "mode": "paper-scale-roi-acceptance",
                     "status": "asserted",
                     "n_sectors": scored["n_sectors"],
                     "speedup": scored["speedup"]})
    build_s = built["build_s"]
    report(f"\nurban-600x600-16t (floor {_FULL_FLOOR_DB:g} dB): "
           f"{scored['n_sectors']} sectors, build "
           f"{'reused' if built['reused'] else f'{build_s:.0f}s'}, "
           f"dense {scored['dense_best_s']:.2f}s, "
           f"roi {scored['roi_best_s']:.2f}s "
           f"-> {scored['speedup']:.1f}x "
           f"(mean footprint {scored['mean_footprint_ratio']:.3f}, "
           f"eval peak RSS {scored['maxrss_mb']:.0f} MB)")
    assert scored["n_sectors"] >= 1000, (
        f"paper-scale market only placed {scored['n_sectors']} sectors")
    assert scored["parity"], (
        "paper-scale ROI scores diverged from the dense path")
    assert scored["speedup"] >= 5.0, (
        f"paper-scale ROI speedup {scored['speedup']:.2f}x is below "
        f"the 5x acceptance bar")


def test_write_results_json():
    """Persist machine-readable results (runs last in this file)."""
    from conftest import host_provenance, report

    assert _RESULTS, "timing tests must run before the JSON writer"
    payload = {
        "schema": "magus.bench-pr10/1",
        "generated_by": "benchmarks/bench_roi_engine.py",
        "full_scale_run": _FULL,
        "host": host_provenance(),
        "results": _RESULTS,
    }
    _OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
    report(f"\nwrote {_OUT_PATH}")


# ----------------------------------------------------------------------
def _main() -> None:
    import argparse
    parser = argparse.ArgumentParser(
        description="PR-10 ROI-scoring probes (one JSON line each)")
    parser.add_argument("--probe", required=True,
                        choices=("build", "score", "parity"))
    parser.add_argument("--path", required=True,
                        help="plossdb file to build or load")
    parser.add_argument("--area", default="urban")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid-cells", type=int, default=96)
    parser.add_argument("--cell-size", type=float, default=24.0)
    parser.add_argument("--tilts", type=int, default=None,
                        help="keep the last K placement-ladder tilts")
    parser.add_argument("--clip-floor-db", type=float,
                        default=_QUICK_FLOOR_DB)
    parser.add_argument("--batch", type=int, default=48,
                        help="score probe: single-sector power trials")
    parser.add_argument("--rounds", type=int, default=3,
                        help="score probe: timing repetitions")
    parser.add_argument("--reuse", action="store_true",
                        help="build probe: reuse an existing valid file")
    args = parser.parse_args()
    _reset_peak_rss()
    probe = {"build": _probe_build, "score": _probe_score,
             "parity": _probe_parity}[args.probe]
    print(json.dumps(probe(args)))


if __name__ == "__main__":
    _main()
