"""Tests of the benchmark's own pieces.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.model.geometry import Region  # noqa: E402
from repro.synthetic.market import AreaDimensions, build_area  # noqa: E402
from repro.synthetic.placement import AreaType, build_network  # noqa: E402

SITES = {6: (18, 19, 20), 9: (27, 28, 29), 10: (30, 31, 32),
         14: (42, 43, 44)}


def _light_area(area_type: AreaType):
    """The parts of a study area the ticket stream reads, without the
    path-loss build or offline planning."""
    dims = AreaDimensions.for_area(area_type)
    tuning = Region.square(dims.tuning_side_m)
    network = build_network(tuning.expanded(dims.margin_m), area_type,
                            seed=wl.AREA_SEED)
    return SimpleNamespace(network=network, tuning_region=tuning,
                           c_before=network.planned_configuration())


# ----------------------------------------------------------------------
# ticket stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("area_type", list(AreaType))
def test_same_seed_same_stream_other_seed_other_stream(area_type):
    sites = wl.tuning_sites(_light_area(area_type))
    assert wl.day_tickets(sites, 7) == wl.day_tickets(sites, 7)
    assert wl.day_tickets(sites, 7) != wl.day_tickets(sites, 8)


def test_day_covers_every_sector_and_site_and_multi_site_shapes():
    day = wl.day_tickets(SITES, 3)
    sector_of_site = {s: site for site, ids in SITES.items() for s in ids}
    singles = sorted(t for shape, t in day if shape == "a")
    assert singles == sorted((s,) for s in sector_of_site)
    assert sorted(t for shape, t in day if shape == "b") == sorted(
        SITES.values())
    multi = [t for shape, t in day if shape == "c"]
    assert len(multi) == len(set(multi)) == len(SITES)
    for targets in multi:
        sites = {sector_of_site[s] for s in targets}
        assert 2 <= len(targets) == len(sites) <= 4


def test_small_multi_site_universe_is_covered_whole():
    two_sites = {3: (9, 10, 11), 4: (12, 13, 14)}
    multi = {t for shape, t in wl.day_tickets(two_sites, 1) if shape == "c"}
    assert multi == {(a, b) for a in two_sites[3] for b in two_sites[4]}


def test_standard_areas_have_tuning_sites():
    for area_type in AreaType:
        sites = wl.tuning_sites(_light_area(area_type))
        assert len(sites) >= 2
        assert all(len(ids) == 3 for ids in sites.values())


# ----------------------------------------------------------------------
# metrics and BENCHMARK.json
# ----------------------------------------------------------------------
def test_printed_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layer == layertrace.PER_LAYER_UNITS
    for units in (run.END_TO_END_UNITS, layertrace.PER_LAYER_UNITS):
        line = json.loads(run.result_line(
            True, 1, 0, {name: 1.0 for name in units}, units))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    listed = {w["name"] for w in spec["workloads"]}
    assert listed <= set(wl.WORKLOADS)


def test_tail_leaves_ten_tickets_beyond_and_is_never_the_maximum():
    latencies = [float(i) for i in range(25)]
    value, pct = run.tail_latency(latencies)
    assert pct == 60.0
    assert 13.0 < value < 16.0 < max(latencies)
    assert run.quantile(latencies, 0.5) == pytest.approx(12.0)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (pytest.approx(2.0), 50.0)


def test_quantile_is_smooth_where_an_order_statistic_jumps():
    fast, slow = [1.0] * 10, [2.0] * 10
    nudged = fast[:-1] + [2.0 - 1e-9] + slow
    jump = abs(float(sorted(nudged)[9]) - sorted(fast + slow)[9])
    assert jump > 0.9
    assert abs(run.quantile(nudged, 0.5)
               - run.quantile(fast + slow, 0.5)) < 0.3


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def _originals():
    out = {}
    for target in layertrace.TARGETS:
        owner, attr = target.resolve()
        out[(owner, attr)] = vars(owner)[attr]
    return out


def test_install_wraps_every_import_site_and_uninstall_restores():
    import repro.core.joint as joint
    import repro.core.magus as magus
    import repro.core.search as search
    import repro.synthetic.placement as placement

    before = _originals()
    imported = (magus.tune_joint, joint.tune_power, search.tune_power)
    log = layertrace.SpanLog()
    patches = layertrace.install(log)
    try:
        assert magus.tune_joint is not imported[0]
        assert joint.tune_power is search.tune_power is not imported[1]
        placement.build_network(Region.square(3_000.0), AreaType.URBAN)
        kinds = [layertrace.KINDS[s[0]] for s in log.spans]
        assert kinds == ["synthetic.network"]
    finally:
        leftovers = layertrace.uninstall(patches)
    assert leftovers == []
    assert _originals() == before
    assert (magus.tune_joint, joint.tune_power,
            search.tune_power) == imported


def _span(kind, start, end, parent, count=0):
    return [layertrace.KINDS.index(kind), start, end, parent, 0, count]


def test_layer_metrics_self_times_reconcile_with_wall_time():
    spans = [
        _span("planning.optimize", 1.0, 5.0, -1),
        _span("evaluation.utility", 1.5, 3.5, 0),
        _span("engine.delta", 2.0, 3.0, 1),
        _span("evaluation.utility", 4.0, 4.5, 0),      # a cache hit
        _span("search.joint", 6.0, 9.0, -1),
        _span("search.power", 6.5, 8.5, 4),
        _span("evaluation.score", 7.0, 8.0, 5, count=12),
        _span("engine.batch", 7.2, 7.8, 6, count=12),
    ]
    report = layertrace.layer_metrics(spans, traced_wall_s=10.0,
                                      untraced_wall_s=9.0, tickets=2)
    m = report.metrics
    assert report.reconciled
    assert m["trace.untraced_s"] == pytest.approx(3.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert m["planning.busy_s"] == 4.0
    assert m["planning.self_s"] == pytest.approx(1.5)
    assert m["planning.utility_calls"] == 2
    assert m["evaluation.cache_hit_ratio"] == 0.5
    assert m["search.self_s"] == pytest.approx(2.0)
    assert m["search.candidates_per_ticket"] == 6.0
    assert m["engine.batch_candidates"] == 12
    assert m["roi.hit_ratio"] == 0.0
    assert report.layer_self_s["engine"] == pytest.approx(1.6)
    assert sum(report.layer_self_s.values()) + 3.0 == pytest.approx(10.0)


def test_overlapping_spans_do_not_reconcile():
    spans = [_span("search.joint", 0.0, 1.0, -1),
             _span("search.power", 0.5, 2.0, 0)]     # ends after parent
    report = layertrace.layer_metrics(spans, 2.0, 2.0, 1)
    assert not report.reconciled


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_area():
    dims = AreaDimensions(tuning_side_m=3_000.0, margin_m=2_000.0,
                          cell_size_m=350.0)
    return build_area(AreaType.SUBURBAN, seed=wl.AREA_SEED, dims=dims)


def test_gate_passes_planned_tickets_and_flags_a_one_ulp_error(small_area):
    workload = wl.WORKLOADS["suburban-gradual"]
    ticket = wl.day_tickets(wl.tuning_sites(small_area), 1)[0]
    good = wl.plan_ticket(small_area, workload, ticket)
    repeat = wl.plan_ticket(small_area, workload, ticket)
    off = dataclasses.replace(
        good, f_after=math.nextafter(good.f_after, math.inf), problems=[])
    wl.check_tickets(small_area, [good, repeat, off])
    assert good.error is None and not good.failed and not repeat.failed
    assert off.f_after != good.f_after
    assert off.failed and any("fresh evaluate" in p for p in off.problems)
