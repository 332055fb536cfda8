"""PR-7 perf harness: packed tilt-major path-loss storage.

Times the packed-storage tentpole against the dict-of-arrays baseline
and probes the paper-scale memory-mapped market:

* ``test_packed_query_speedup`` — rotating-tilt ``gain_tensor_mw``
  sweeps on the 60-sector 120x120 bench area, sized so neither the
  tensor LRU nor the per-row cache can answer: the packed tensor must
  be a >=5x median speedup over the dict recompute path (the PR-7
  acceptance bar), with every packed plane bitwise equal to the
  float32-quantized dict result.
* ``test_pack_load_evaluate_smoke`` — a small urban market is streamed
  to disk, memory-mapped back and full/delta parity-checked inside a
  fresh subprocess whose peak RSS must stay under ``BENCH_PR7_RSS_MB``
  (default 2048 MB) — the CI perf-smoke step runs exactly this.
* ``test_scaling_curves`` — pack-build / mmap-evaluate probes at
  increasing grid scale.  The paper-scale acceptance point (the
  1000+-sector 600x600 16-tilt market: ~23 GB logical tensor, build to
  disk, evaluate under a 4 GB peak-RSS ceiling) runs when
  ``BENCH_PR7_FULL=1``; otherwise it is recorded as an explicit skip so
  the checked-in JSON cannot be mistaken for a pass.

Results are written to ``BENCH_pr7.json`` at the repo root.  The module
doubles as the probe binary the subprocess tests invoke
(``python benchmarks/bench_packed_market.py --probe build|eval|smoke``);
every probe prints one JSON line with its timings and ``ru_maxrss`` so
memory numbers come from a process that has done nothing else.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
_OUT_PATH = Path(os.environ.get("BENCH_PR7_OUT",
                                str(_REPO_ROOT / "BENCH_pr7.json")))
_FULL = os.environ.get("BENCH_PR7_FULL") == "1"
#: Peak-RSS ceiling for the small-market smoke probe (MB).
_SMOKE_RSS_MB = float(os.environ.get("BENCH_PR7_RSS_MB", "2048"))
#: The paper-scale acceptance ceiling (MB): "evaluates on a laptop".
_FULL_RSS_MB = 4096.0

_RESULTS: List[dict] = []


# ----------------------------------------------------------------------
# probe plumbing (subprocess side runs without pytest/conftest)
# ----------------------------------------------------------------------
def _reset_peak_rss() -> None:
    """Zero this process's RSS high-water mark (Linux).

    ``ru_maxrss``/``VmHWM`` survive ``fork``+``exec`` on Linux, so a
    probe subprocess launched from a fat pytest parent would otherwise
    inherit — and report — the *parent's* peak.  Writing ``5`` to
    ``clear_refs`` resets the counter so the measurement covers only
    what the probe itself does.
    """
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


def _tilt_ladder(area: str, n_tilts: Optional[int]) -> Optional[list]:
    """The last ``n_tilts`` placement-ladder settings for ``area``.

    Mirrors the CLI ``pack --tilts`` semantics: the planned tilt
    (``normal_tilt_deg``) is always inside the retained suffix, so
    ``planned_configuration`` stays on-ladder.
    """
    if n_tilts is None:
        return None
    from repro.model.antenna import TiltRange
    from repro.synthetic.placement import AreaType, PlacementParameters
    params = PlacementParameters.for_area(AreaType(area))
    ladder = TiltRange(normal_deg=params.normal_tilt_deg, min_deg=0.0,
                       max_deg=params.normal_tilt_deg + 4.0,
                       step_deg=0.5).settings
    if not 0 < n_tilts <= len(ladder):
        raise SystemExit(f"--tilts must be in [1, {len(ladder)}]")
    return list(ladder[-n_tilts:])


def _probe_build(args) -> dict:
    """Stream a square market to ``args.path``; report cost + size."""
    from repro.model.plossdb import read_header
    from repro.synthetic.market import build_packed_market
    from repro.synthetic.placement import AreaType
    if args.reuse and os.path.exists(args.path):
        header = read_header(args.path)   # raises if truncated/corrupt
        return {"probe": "build", "reused": True,
                "n_sectors": header["n_sectors"],
                "n_tilts": len(header["tilt_values"]),
                "grid_cells": args.grid_cells,
                "file_mb": os.path.getsize(args.path) / 1e6,
                "build_s": None, "maxrss_mb": _maxrss_mb()}
    t0 = time.perf_counter()
    header = build_packed_market(
        args.path, seed=args.seed, area_type=AreaType(args.area),
        grid_cells=args.grid_cells, cell_size_m=args.cell_size,
        tilt_values=_tilt_ladder(args.area, args.tilts))
    build_s = time.perf_counter() - t0
    return {"probe": "build", "reused": False,
            "n_sectors": header["n_sectors"],
            "n_tilts": len(header["tilt_values"]),
            "grid_cells": args.grid_cells,
            "file_mb": os.path.getsize(args.path) / 1e6,
            "build_s": build_s, "maxrss_mb": _maxrss_mb()}


def _probe_eval(args) -> dict:
    """Memory-map ``args.path`` and run the Algorithm-1 inner loop.

    Load, anchor the delta incumbent (one full evaluation over the mmap
    planes) and score a batch of single-sector power trials — the same
    call pattern ``Evaluator.score_candidates`` issues during tuning.
    The printed ``maxrss_mb`` is the probe's whole-process peak, which
    is what the 4 GB paper-scale acceptance bar is asserted against.
    """
    import numpy as np

    from repro.core.evaluation import Evaluator
    from repro.model.engine import AnalysisEngine
    from repro.model.plossdb import load_packed

    t0 = time.perf_counter()
    db = load_packed(args.path)
    load_s = time.perf_counter() - t0
    engine = AnalysisEngine(db)
    network = db.network
    density = np.ones(db.grid.shape)
    config = network.planned_configuration()
    evaluator = Evaluator(engine, density, cache_size=0, strategy="delta")
    t0 = time.perf_counter()
    evaluator.utility_of(config)
    anchor_s = time.perf_counter() - t0
    trials = []
    for s in range(min(args.batch, network.n_sectors)):
        trial = config.with_power_delta(
            s, 1.0, max_power_dbm=network.sector(s).max_power_dbm)
        if trial != config:
            trials.append(trial)
    t0 = time.perf_counter()
    utilities = evaluator.score_candidates(trials)
    score_s = time.perf_counter() - t0
    return {"probe": "eval", "n_sectors": network.n_sectors,
            "grid": list(db.grid.shape),
            "n_tilts": len(db.packed_store.tilt_values),
            "n_candidates": len(trials),
            "load_s": load_s, "anchor_s": anchor_s, "score_s": score_s,
            "finite_utilities": all(np.isfinite(u) for u in utilities),
            "file_mb": os.path.getsize(args.path) / 1e6,
            "maxrss_mb": _maxrss_mb()}


def _probe_smoke(args) -> dict:
    """End-to-end pack → mmap-load → parity in one fresh process.

    Checks the two contracts CI cares about: the loaded database's
    full and delta evaluations agree bitwise (float32 planes on both
    sides), and packed row views equal the matching gather rows.  The
    returned peak RSS covers build + load + both evaluations.
    """
    import numpy as np

    from repro.model.engine import AnalysisEngine
    from repro.model.plossdb import load_packed
    from repro.synthetic.market import build_packed_market

    t0 = time.perf_counter()
    build_packed_market(args.path, seed=3, grid_cells=args.grid_cells,
                        cell_size_m=args.cell_size)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    db = load_packed(args.path)
    load_s = time.perf_counter() - t0
    network = db.network
    engine = AnalysisEngine(db)
    density = np.ones(db.grid.shape)
    config = network.planned_configuration()

    # Row views against the gathered stack (same stored bytes).
    tilts = np.array([st.tilt_deg for st in config.settings])
    stack = db.gain_tensor_mw(tilts)
    rows_ok = all(
        np.array_equal(stack[s], db.gain_matrix_mw(s, tilts[s]))
        for s in (0, network.n_sectors // 2, network.n_sectors - 1))

    # Full vs. delta parity on the memory-mapped planes.
    t0 = time.perf_counter()
    _, incumbent = engine.evaluate_with_incumbent(config, density)
    trial = config.with_power_delta(
        0, 2.0, max_power_dbm=network.sector(0).max_power_dbm)
    full = engine.evaluate(trial, density)
    delta, _ = engine.evaluate_delta(incumbent, trial, density)
    eval_s = time.perf_counter() - t0
    parity = (np.array_equal(full.serving, delta.serving)
              and np.array_equal(full.sinr_db, delta.sinr_db)
              and np.array_equal(full.rate_bps, delta.rate_bps))
    return {"probe": "smoke", "n_sectors": network.n_sectors,
            "grid": list(db.grid.shape),
            "n_tilts": len(db.packed_store.tilt_values),
            "build_s": build_s, "load_s": load_s, "eval_s": eval_s,
            "plane_dtype": str(db.plane_dtype),
            "parity_rows": bool(rows_ok),
            "parity_full_delta": bool(parity),
            "file_mb": os.path.getsize(args.path) / 1e6,
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
def test_packed_query_speedup(bench_area_120, quick):
    """Rotating-tilt tensor queries: packed >=5x over dict recompute.

    Every assignment shifts the whole suburban ladder by one position,
    so the sweep touches ``len(ladder) * n_sectors`` distinct
    (sector, tilt) rows — more than the row cache holds and more
    assignments than the tensor LRU holds.  The dict path therefore
    pays honest recomputation, exactly like a tilt-tuning search that
    keeps moving; the packed path answers from the precomputed tensor.
    """
    import numpy as np

    from repro.model.pathloss import PathLossDatabase, clip_gains_mw
    from repro.model.plossdb import pack_database

    from conftest import median_s, report

    area = bench_area_120
    base = area.pathloss
    dict_db = PathLossDatabase(area.grid, area.network, base._rasters,
                               base.tilt_model, validate=False)
    packed_db = PathLossDatabase(area.grid, area.network, base._rasters,
                                 base.tilt_model, validate=False)
    packed_db.attach_packed(pack_database(packed_db))
    ladder = packed_db.packed_store.tilt_values
    n = area.network.n_sectors
    assignments = [
        np.array([ladder[(j + s) % len(ladder)] for s in range(n)])
        for j in range(len(ladder))]

    # Parity gate before timing: packed gather must be bitwise equal to
    # the float32-quantized dict recompute, clipped at the pack's floor
    # right after the cast exactly as the packer does (the storage
    # contract).
    for tilts in assignments[:1 if quick else 3]:
        want = clip_gains_mw(
            np.power(10.0, dict_db.gain_tensor(tilts) / 10.0
                     ).astype(np.float32),
            packed_db.clip_floor_db)
        got = packed_db.gain_tensor_mw(tilts)
        assert got.dtype == np.float32
        assert np.array_equal(got, want), (
            "packed gain_tensor_mw diverged from the quantized dict path")

    def sweep(db):
        for tilts in assignments:
            db.gain_tensor_mw(tilts)

    rounds = 2 if quick else 5
    dict_s = median_s(lambda: sweep(dict_db), rounds)
    packed_s = median_s(lambda: sweep(packed_db), rounds)
    speedup = dict_s / packed_s if packed_s > 0 else float("inf")
    row = {
        "scenario": "suburban-60s-120x120-rotating-ladder",
        "mode": "packed-vs-dict-gain-tensor-mw",
        "n_sectors": n, "grid": list(area.grid.shape),
        "n_tilts": len(ladder),
        "queries_per_sweep": len(assignments),
        "dict_median_s": dict_s, "packed_median_s": packed_s,
        "speedup": speedup, "rounds": rounds,
        "packed_mb": packed_db.packed_store.nbytes / 1e6,
    }
    _RESULTS.append(row)
    _RESULTS.append({"scenario": row["scenario"],
                     "mode": "speedup-bar-5x", "status": "asserted",
                     "speedup": speedup})
    report(f"\npacked vs dict gain_tensor_mw "
           f"({n} sectors, {len(ladder)} tilts/sweep): "
           f"dict {dict_s * 1e3:.1f} ms, packed {packed_s * 1e3:.2f} ms "
           f"-> {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"packed query speedup {speedup:.2f}x is below the 5x "
        f"acceptance bar")


def test_pack_load_evaluate_smoke(tmp_path):
    """Small-market pack → mmap → parity probe under an RSS ceiling."""
    from conftest import report

    row = _run_probe(["--probe", "smoke",
                      "--path", str(tmp_path / "smoke.plossdb")])
    row.update(scenario="urban-96x96-smoke", mode="pack-load-evaluate",
               rss_ceiling_mb=_SMOKE_RSS_MB)
    _RESULTS.append(row)
    report(f"\nsmoke: {row['n_sectors']} sectors, "
           f"build {row['build_s']:.1f}s, load {row['load_s'] * 1e3:.0f} ms, "
           f"peak RSS {row['maxrss_mb']:.0f} MB "
           f"(ceiling {_SMOKE_RSS_MB:.0f} MB)")
    assert row["plane_dtype"] == "float32"
    assert row["parity_rows"], "packed row views diverged from gather"
    assert row["parity_full_delta"], (
        "full vs delta evaluation diverged on the memory-mapped database")
    assert row["maxrss_mb"] < _SMOKE_RSS_MB, (
        f"smoke probe peak RSS {row['maxrss_mb']:.0f} MB exceeds the "
        f"{_SMOKE_RSS_MB:.0f} MB ceiling")


def test_scaling_curves(tmp_path, quick):
    """Build/evaluate cost at increasing market scale.

    Small points always run (in-process disk use is transient); the
    600x600 16-tilt paper-scale point needs ~30 GB of scratch disk and
    ~10 CPU-minutes, so it is opt-in via ``BENCH_PR7_FULL=1`` and
    recorded as an explicit skip otherwise.
    """
    from conftest import report

    points = [(150, 16.0, 8)] if quick else [(150, 16.0, 8),
                                             (300, 16.0, 8)]
    for cells, cell_size, tilts in points:
        path = tmp_path / f"scale-{cells}.plossdb"
        built = _run_probe(["--probe", "build", "--path", str(path),
                            "--grid-cells", str(cells),
                            "--cell-size", str(cell_size),
                            "--tilts", str(tilts)])
        scored = _run_probe(["--probe", "eval", "--path", str(path),
                             "--batch", "48"])
        assert scored["finite_utilities"]
        scenario = f"urban-{cells}x{cells}-{tilts}t"
        _RESULTS.append({**built, "scenario": scenario,
                         "mode": "pack-build"})
        _RESULTS.append({**scored, "scenario": scenario,
                         "mode": "mmap-eval"})
        report(f"\n{scenario}: {built['n_sectors']} sectors, "
               f"build {built['build_s']:.1f}s "
               f"({built['file_mb']:.0f} MB), anchor "
               f"{scored['anchor_s']:.2f}s, score[{scored['n_candidates']}] "
               f"{scored['score_s']:.2f}s, eval RSS "
               f"{scored['maxrss_mb']:.0f} MB")
        os.remove(path)

    if not _FULL:
        _RESULTS.append({
            "scenario": "urban-600x600-16t", "mode":
            "paper-scale-acceptance",
            "status": "skipped (BENCH_PR7_FULL not set; needs ~30 GB "
                      "scratch disk and ~10 min of build time)"})
        report("\n(paper-scale 600x600 point not run: BENCH_PR7_FULL "
               "not set)")
        return

    scratch = os.environ.get("BENCH_PR7_DIR") or tempfile.gettempdir()
    path = os.path.join(scratch, "magus-market-600x600-16t.plossdb")
    try:
        built = _run_probe(["--probe", "build", "--path", path,
                            "--grid-cells", "600", "--cell-size", "16.0",
                            "--tilts", "16", "--reuse"])
        scored = _run_probe(["--probe", "eval", "--path", path,
                             "--batch", "48"])
    finally:
        if os.path.exists(path) and os.environ.get(
                "BENCH_PR7_KEEP") != "1":
            os.remove(path)
    _RESULTS.append({**built, "scenario": "urban-600x600-16t",
                     "mode": "pack-build"})
    _RESULTS.append({**scored, "scenario": "urban-600x600-16t",
                     "mode": "mmap-eval", "rss_ceiling_mb": _FULL_RSS_MB})
    _RESULTS.append({"scenario": "urban-600x600-16t",
                     "mode": "paper-scale-acceptance",
                     "status": "asserted",
                     "n_sectors": scored["n_sectors"],
                     "maxrss_mb": scored["maxrss_mb"]})
    build_s = built["build_s"]
    report(f"\nurban-600x600-16t: {scored['n_sectors']} sectors, "
           f"{built['file_mb'] / 1e3:.1f} GB on disk, build "
           f"{'reused' if built['reused'] else f'{build_s:.0f}s'}, "
           f"anchor {scored['anchor_s']:.1f}s, "
           f"score[{scored['n_candidates']}] {scored['score_s']:.1f}s, "
           f"eval peak RSS {scored['maxrss_mb']:.0f} MB "
           f"(ceiling {_FULL_RSS_MB:.0f} MB)")
    assert scored["n_sectors"] >= 1000, (
        f"paper-scale market only placed {scored['n_sectors']} sectors")
    assert scored["finite_utilities"]
    assert scored["maxrss_mb"] < _FULL_RSS_MB, (
        f"paper-scale eval peak RSS {scored['maxrss_mb']:.0f} MB "
        f"exceeds the 4 GB laptop ceiling")


def test_write_results_json():
    """Persist machine-readable results (runs last in this file)."""
    from conftest import host_provenance, report

    assert _RESULTS, "timing tests must run before the JSON writer"
    payload = {
        "schema": "magus.bench-pr7/1",
        "generated_by": "benchmarks/bench_packed_market.py",
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
        description="PR-7 packed-storage probes (one JSON line each)")
    parser.add_argument("--probe", required=True,
                        choices=("build", "eval", "smoke"))
    parser.add_argument("--path", required=True,
                        help="plossdb file to build or load")
    parser.add_argument("--area", default="urban")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid-cells", type=int, default=96)
    parser.add_argument("--cell-size", type=float, default=24.0)
    parser.add_argument("--tilts", type=int, default=None,
                        help="keep the last K placement-ladder tilts")
    parser.add_argument("--batch", type=int, default=48,
                        help="eval probe: single-sector power trials")
    parser.add_argument("--reuse", action="store_true",
                        help="build probe: reuse an existing valid file")
    args = parser.parse_args()
    _reset_peak_rss()
    probe = {"build": _probe_build, "eval": _probe_eval,
             "smoke": _probe_smoke}[args.probe]
    print(json.dumps(probe(args)))


if __name__ == "__main__":
    _main()
