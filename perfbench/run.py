#!/usr/bin/env python3
"""Ticket-stream benchmark: set up a study area, plan a day of tickets.

Run from the repository root::

    python3 perfbench/run.py --workload suburban-gradual --seed 1 \\
        --seconds 14 --trace 0

``--trace 0`` builds the area several times (``setup_s`` is their
median), then plans whole days of the seeded ticket stream in a closed
loop until ``--seconds`` have passed and reports the end-to-end
metrics.  ``--trace 1`` plans whole days untraced for half of
``--seconds``, then repeats the same set-up and tickets with every
layer wrapped and reports the per-layer metrics.  The last line of
stdout is the result as one JSON object; the line before it summarises
the run, and ``.perfbench_out/`` keeps the per-ticket details, host
diagnostics and (traced runs) the spans.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import betainc

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

#: Area builds per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Timed tickets a tail percentile must leave beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "ticket_p50_s": "s",
    "ticket_tail_s": "s",
    "tickets_per_min": "1/min",
    "recovery_mean": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="ticket-stream seed (the area is fixed)")
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="plan whole days of tickets until this "
                             "many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted average of all order statistics.  A day holds few
    distinct tickets, so a single order statistic jumps between two
    tickets' latencies when host noise reorders them; the weighted
    average moves smoothly instead.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def tail_latency(latencies: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` at the highest percentile that leaves at
    least :data:`TAIL_BEYOND` timed tickets beyond it, so never the
    maximum.  Too few tickets fall back to the median."""
    n = len(latencies)
    q = (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 0.5
    return quantile(latencies, q), 100.0 * q


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> str:
    """The contract's last stdout line: exactly the named metrics."""
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}})


def _build_timed(wl, workload, scratch: Path):
    """Free the previous area first, then time one fresh set-up."""
    gc.collect()
    t0 = time.perf_counter()
    area = wl.build(workload, scratch)
    return area, time.perf_counter() - t0


def _ticket_details(records) -> List[dict]:
    return [{"shape": r.ticket[0], "targets": list(r.ticket[1]),
             "latency_s": r.latency_s, "recovery": r.recovery,
             "error": r.error, "problems": r.problems} for r in records]


def untraced_run(wl, workload, seed: int, seconds: float, scratch: Path):
    setup_samples = []
    for i in range(SETUPS):
        area = None
        shutil.rmtree(scratch / f"setup{i - 1}", ignore_errors=True)
        area, elapsed = _build_timed(wl, workload, scratch / f"setup{i}")
        setup_samples.append(elapsed)
    day = wl.day_tickets(wl.tuning_sites(area), seed)
    gc.collect()
    records, loop_wall = wl.run_stream(area, workload, day, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check_tickets(area, records)

    done = [r for r in records if not r.failed]
    latencies = [r.latency_s for r in done]
    tail, tail_pct = tail_latency(latencies) if latencies else (0.0, 0.0)
    day_done = [r for r in records[:len(day)] if not r.failed]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ticket_p50_s": quantile(latencies, 0.5) if latencies else 0.0,
        "ticket_tail_s": tail,
        "tickets_per_min": 60.0 * len(done) / loop_wall,
        "recovery_mean": (statistics.fmean(r.recovery for r in day_done)
                          if day_done else 0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    failed = len(records) - len(done)
    details = {"setup_samples_s": setup_samples, "day_tickets": len(day),
               "tickets": len(records), "timed_tickets": len(done),
               "tail_percentile": tail_pct, "loop_wall_s": loop_wall,
               "ticket_log": _ticket_details(records)}
    return (result_line(failed == 0, len(records), failed, metrics,
                        END_TO_END_UNITS), details)


def traced_run(wl, layertrace, workload, seed: int, seconds: float,
               scratch: Path):
    # Untraced pass: one set-up, whole days for half the time.
    area, setup_u = _build_timed(wl, workload, scratch / "untraced")
    day = wl.day_tickets(wl.tuning_sites(area), seed)
    records_u, loop_u = wl.run_stream(area, workload, day, seconds / 2)
    untraced_wall = setup_u + loop_u
    wl.check_tickets(area, records_u)
    area = None
    shutil.rmtree(scratch / "untraced", ignore_errors=True)

    # Traced pass: the same set-up and the same tickets, every layer
    # wrapped.  The gate runs after the wrappers are gone.
    tickets = [r.ticket for r in records_u]
    log = layertrace.SpanLog()
    gc.collect()
    patches = layertrace.install(log)
    try:
        t0 = time.perf_counter()
        area = wl.build(workload, scratch / "traced")
        records_t = []
        for i, ticket in enumerate(tickets):
            log.request = i
            records_t.append(wl.plan_ticket(area, workload, ticket))
        traced_wall = time.perf_counter() - t0
    finally:
        leftovers = layertrace.uninstall(patches)
    wl.check_tickets(area, records_t)

    report = layertrace.layer_metrics(log.spans, traced_wall,
                                      untraced_wall, len(records_t))
    records = records_u + records_t
    failed = sum(r.failed for r in records)
    correct = failed == 0 and report.reconciled and not leftovers
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"kinds": layertrace.KINDS,
                   "fields": ["kind", "start", "end", "parent", "request",
                              "count"],
                   "tickets": [list(t[1]) for t in tickets],
                   "spans": log.spans}, fh, separators=(",", ":"))
    details = {"tickets": len(records_t), "traced_wall_s": traced_wall,
               "untraced_wall_s": untraced_wall,
               "layer_self_s": report.layer_self_s,
               "reconcile_error_s": report.reconcile_error_s,
               "min_self_s": report.min_self_s,
               "reconciled": report.reconciled,
               "still_wrapped": leftovers, "spans": len(log.spans),
               "spans_file": str(spans_path.relative_to(ROOT)),
               "ticket_log": _ticket_details(records)}
    return (result_line(correct, len(records), failed, report.metrics,
                        layertrace.PER_LAYER_UNITS), details)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run it from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostdiag
    import layertrace
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        ticks_before = hostdiag.cpu_ticks()
        probe_before = hostdiag.reference_probe()
        if args.trace:
            line, details = traced_run(wl, layertrace, workload, args.seed,
                                       args.seconds, scratch)
        else:
            line, details = untraced_run(wl, workload, args.seed,
                                         args.seconds, scratch)
        probe_after = hostdiag.reference_probe()
        steal = hostdiag.steal_between(ticks_before, hostdiag.cpu_ticks())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    details.update(workload=workload.name, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   probe_before=probe_before, probe_after=probe_after,
                   steal=steal, host=hostdiag.host_provenance(ROOT))
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(details, fh, indent=1)
    summary = {k: v for k, v in details.items() if k != "ticket_log"}
    print("perfbench " + json.dumps(summary))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
