"""Per-layer tracing from outside the library.

:func:`install` replaces the public functions listed in :data:`TARGETS`
with wrappers that record one span per call (kind, start, end, parent,
request, work count) into a :class:`SpanLog`; :func:`uninstall` puts
every original object back.  Spans stay in memory until the run writes
them out.  :func:`layer_metrics` turns a span log into the per-layer
metrics and reconciles them with the traced wall time.

A function imported by name into other modules (``from .search import
tune_power``) is replaced in every ``repro`` module that holds it, so
calls through any of those names are traced.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Marks a wrapper so a restore check can find any left behind.
_WRAPPED = "__perfbench_original__"


def _nth(index: int, name: str) -> Callable:
    """Work count = ``len`` of the argument at ``index`` (or ``name``)."""
    def count(args, kwargs, result) -> int:
        value = args[index] if len(args) > index else kwargs[name]
        return len(value)
    return count


def _if_served(count: Callable) -> Callable:
    """Count only calls the pool answered (``None`` = serial fallback)."""
    return lambda args, kwargs, result: (
        0 if result is None else count(args, kwargs, result))


def _steps(args, kwargs, result) -> int:
    return result.n_steps


@dataclass(frozen=True)
class Target:
    """One wrapped function: the span kind it records and its count."""

    kind: str
    module: str
    qualname: str
    count: Optional[Callable] = None

    @property
    def layer(self) -> str:
        return self.kind.split(".", 1)[0]

    def resolve(self) -> Tuple[object, str]:
        """The module or class that holds the function, and its name."""
        owner = importlib.import_module(self.module)
        *path, attr = self.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr


#: Every wrapped public function, by layer.  ``kind`` groups functions
#: whose time is one metric (two gathers, two incumbent rebuilds).
TARGETS: Tuple[Target, ...] = (
    Target("synthetic.environment", "repro.synthetic.terrain",
           "generate_environment"),
    Target("synthetic.network", "repro.synthetic.placement", "build_network"),
    Target("synthetic.ue_counts", "repro.synthetic.users", "sector_ue_counts"),
    Target("pathloss.build", "repro.model.pathloss",
           "PathLossDatabase.from_environment"),
    Target("pathloss.gather", "repro.model.pathloss",
           "PathLossDatabase.gain_tensor_mw"),
    Target("pathloss.gather", "repro.model.pathloss",
           "PathLossDatabase.gain_matrix_mw"),
    Target("plossdb.pack", "repro.model.plossdb", "stream_database"),
    Target("plossdb.load", "repro.model.plossdb", "load_packed"),
    Target("engine.rebuild", "repro.model.engine", "AnalysisEngine.evaluate"),
    Target("engine.rebuild", "repro.model.engine",
           "AnalysisEngine.evaluate_with_incumbent"),
    Target("engine.delta", "repro.model.engine",
           "AnalysisEngine.evaluate_delta"),
    Target("engine.batch", "repro.model.engine",
           "AnalysisEngine.evaluate_batch", _nth(2, "configs")),
    Target("roi.score", "repro.model.roi", "score_candidate",
           lambda args, kwargs, result: 1),
    Target("evaluation.score", "repro.core.evaluation",
           "Evaluator.score_candidates",
           lambda args, kwargs, result: len(result)),
    Target("evaluation.utility", "repro.core.evaluation",
           "Evaluator.utility_of"),
    Target("planning.optimize", "repro.core.planning",
           "optimize_planned_configuration"),
    Target("search.joint", "repro.core.joint", "tune_joint"),
    Target("search.power", "repro.core.search", "tune_power"),
    Target("search.tilt", "repro.core.tilt", "tune_tilt"),
    Target("gradual.migration", "repro.core.gradual", "gradual_migration",
           _steps),
    Target("parallel.dense", "repro.parallel.service",
           "EvaluationService.score_batch", _if_served(_nth(2, "configs"))),
    Target("parallel.roi", "repro.parallel.service",
           "EvaluationService.score_batch_roi",
           _if_served(_nth(2, "configs"))),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))
KINDS = tuple(dict.fromkeys(t.kind for t in TARGETS))


class SpanLog:
    """In-memory spans: ``[kind, start, end, parent, request, count]``.

    ``parent`` is the index of the enclosing span (-1 at top level);
    ``request`` identifies the set-up (-1) or the ticket that caused
    the span.  The library runs these calls on one thread, so one
    stack suffices.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request = -1

    def wrap(self, fn: Callable, kind: int,
             count: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [kind, 0.0, 0.0, stack[-1] if stack else -1,
                    log.request, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        setattr(wrapper, _WRAPPED, fn)
        return wrapper


# ----------------------------------------------------------------------
# install / uninstall
# ----------------------------------------------------------------------
#: ``(owner, attribute, original)``: what :func:`uninstall` puts back.
Patch = Tuple[object, str, object]


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def install(log: SpanLog) -> List[Patch]:
    """Wrap every :data:`TARGETS` function; returns the patches."""
    for target in TARGETS:
        importlib.import_module(target.module)
    modules = _repro_modules()
    patches: List[Patch] = []
    for target in TARGETS:
        owner, attr = target.resolve()
        kind = KINDS.index(target.kind)
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(log.wrap(raw.__func__, kind,
                                               target.count))
            else:
                wrapped = log.wrap(raw, kind, target.count)
            patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        wrapped = log.wrap(raw, kind, target.count)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is raw:
                    patches.append((module, name, raw))
                    setattr(module, name, wrapped)
    return patches


def uninstall(patches: Sequence[Patch]) -> List[str]:
    """Restore every patched attribute; returns what is still wrapped.

    An empty list means every wrapped function is the original object
    again, in every ``repro`` module and class.
    """
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    leftovers = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in patches
                 if vars(owner)[attr] is not original]
    for module in _repro_modules():
        for name, value in vars(module).items():
            if hasattr(value, _WRAPPED):
                leftovers.append(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if hasattr(func, _WRAPPED):
                        leftovers.append(
                            f"{module.__name__}.{name}.{attr}")
    return sorted(set(leftovers))


# ----------------------------------------------------------------------
# spans -> per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric names and units, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "synthetic.busy_s": "s",
    "pathloss.build_s": "s",
    "pathloss.gather_calls": "count",
    "pathloss.gather_s": "s",
    "plossdb.pack_s": "s",
    "plossdb.load_s": "s",
    "engine.rebuild_calls": "count",
    "engine.rebuild_s": "s",
    "engine.delta_calls": "count",
    "engine.delta_s": "s",
    "engine.batch_calls": "count",
    "engine.batch_candidates": "count",
    "engine.batch_s": "s",
    "roi.candidates": "count",
    "roi.score_s": "s",
    "roi.hit_ratio": "ratio",
    "evaluation.score_calls": "count",
    "evaluation.candidates": "count",
    "evaluation.score_self_s": "s",
    "evaluation.utility_calls": "count",
    "evaluation.cache_hit_ratio": "ratio",
    "planning.busy_s": "s",
    "planning.self_s": "s",
    "planning.utility_calls": "count",
    "search.power_s": "s",
    "search.tilt_s": "s",
    "search.self_s": "s",
    "search.candidates_per_ticket": "count/ticket",
    "gradual.busy_s": "s",
    "gradual.self_s": "s",
    "gradual.steps": "count",
    "parallel.calls": "count",
    "parallel.candidates": "count",
    "parallel.wait_s": "s",
    "parallel.worker_rss_mb": "MB",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.untraced_share": "ratio",
    "trace.overhead_s": "s",
    "trace.tickets": "count",
}


@dataclass
class LayerReport:
    """Per-layer metrics plus the reconciliation against wall time."""

    metrics: Dict[str, float]
    layer_self_s: Dict[str, float]
    reconcile_error_s: float
    min_self_s: float

    @property
    def reconciled(self) -> bool:
        """Layer self times + untraced time add up to the traced wall,
        and every child span lies inside its parent (no negative self
        time)."""
        return (abs(self.reconcile_error_s)
                <= 1e-6 * max(1.0, self.metrics["trace.wall_s"])
                and self.min_self_s >= -1e-9
                and self.metrics["trace.untraced_s"] >= -1e-9)


def layer_metrics(spans: Sequence[list], traced_wall_s: float,
                  untraced_wall_s: float, tickets: int) -> LayerReport:
    """Aggregate a span log over a traced region of ``traced_wall_s``.

    * ``*_calls`` count every call; ``*_s`` (busy) sums the spans not
      nested in a span of the same kind, so recursion is not counted
      twice; ``*_self_s`` subtracts the time covered by child spans.
    * ``trace.untraced_s`` is the traced wall time no span covers, so
      the layers' self times plus it equal the wall time.
    """
    n = len(spans)
    kind = [s[0] for s in spans]
    parent = [s[3] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    layer_of_kind = [k.split(".", 1)[0] for k in KINDS]
    layer = [layer_of_kind[k] for k in kind]

    child_time = [0.0] * n
    has_engine_below = [False] * n
    for i in range(n - 1, -1, -1):       # children come after parents
        p = parent[i]
        if p >= 0:
            child_time[p] += duration[i]
            if has_engine_below[i] or layer[i] == "engine":
                has_engine_below[p] = True
    self_time = [duration[i] - child_time[i] for i in range(n)]

    # Forward pass: bit masks of the kinds on each span's ancestor chain.
    above = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            above[i] = above[p] | (1 << kind[p])

    def mask(layer_name: str) -> int:
        return sum(1 << k for k, name in enumerate(layer_of_kind)
                   if name == layer_name)

    calls = {k: 0 for k in KINDS}
    busy = {k: 0.0 for k in KINDS}
    self_by_kind = {k: 0.0 for k in KINDS}
    work = {k: 0 for k in KINDS}
    for i in range(n):
        name = KINDS[kind[i]]
        calls[name] += 1
        work[name] += spans[i][5]
        self_by_kind[name] += self_time[i]
        if not above[i] >> kind[i] & 1:
            busy[name] += duration[i]
    layer_self = {layer_name: 0.0 for layer_name in LAYERS}
    for name, value in self_by_kind.items():
        layer_self[name.split(".", 1)[0]] += value

    utility = KINDS.index("evaluation.utility")
    score = KINDS.index("evaluation.score")
    utility_calls = calls["evaluation.utility"]
    utility_hits = sum(1 for i in range(n)
                       if kind[i] == utility and not has_engine_below[i])
    in_search, in_planning = mask("search"), mask("planning")
    search_candidates = sum(spans[i][5] for i in range(n)
                            if kind[i] == score and above[i] & in_search)
    planning_utility = sum(1 for i in range(n)
                           if kind[i] == utility and above[i] & in_planning)
    roi_candidates = work["roi.score"] + work["parallel.roi"]
    single_sector = (roi_candidates + work["engine.batch"]
                     + work["parallel.dense"])

    root_time = sum(duration[i] for i in range(n) if parent[i] < 0)
    untraced = traced_wall_s - root_time
    # Children's peak RSS is inherited across exec, so it is only the
    # pool workers' when the run used a pool.
    pool_calls = calls["parallel.dense"] + calls["parallel.roi"]
    worker_rss_kb = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                     if pool_calls else 0)
    metrics = {
        "synthetic.busy_s": sum(busy[k] for k in KINDS
                                if k.startswith("synthetic.")),
        "pathloss.build_s": busy["pathloss.build"],
        "pathloss.gather_calls": calls["pathloss.gather"],
        "pathloss.gather_s": busy["pathloss.gather"],
        "plossdb.pack_s": busy["plossdb.pack"],
        "plossdb.load_s": busy["plossdb.load"],
        "engine.rebuild_calls": calls["engine.rebuild"],
        "engine.rebuild_s": busy["engine.rebuild"],
        "engine.delta_calls": calls["engine.delta"],
        "engine.delta_s": busy["engine.delta"],
        "engine.batch_calls": calls["engine.batch"],
        "engine.batch_candidates": work["engine.batch"],
        "engine.batch_s": busy["engine.batch"],
        "roi.candidates": roi_candidates,
        "roi.score_s": busy["roi.score"],
        "roi.hit_ratio": (roi_candidates / single_sector
                          if single_sector else 0.0),
        "evaluation.score_calls": calls["evaluation.score"],
        "evaluation.candidates": work["evaluation.score"],
        "evaluation.score_self_s": self_by_kind["evaluation.score"],
        "evaluation.utility_calls": utility_calls,
        "evaluation.cache_hit_ratio": (utility_hits / utility_calls
                                       if utility_calls else 0.0),
        "planning.busy_s": busy["planning.optimize"],
        "planning.self_s": self_by_kind["planning.optimize"],
        "planning.utility_calls": planning_utility,
        "search.power_s": busy["search.power"],
        "search.tilt_s": busy["search.tilt"],
        "search.self_s": layer_self["search"],
        "search.candidates_per_ticket": (search_candidates / tickets
                                         if tickets else 0.0),
        "gradual.busy_s": busy["gradual.migration"],
        "gradual.self_s": layer_self["gradual"],
        "gradual.steps": work["gradual.migration"],
        "parallel.calls": pool_calls,
        "parallel.candidates": work["parallel.dense"] + work["parallel.roi"],
        "parallel.wait_s": busy["parallel.dense"] + busy["parallel.roi"],
        "parallel.worker_rss_mb": worker_rss_kb / 1024.0,
        "trace.wall_s": traced_wall_s,
        "trace.untraced_s": untraced,
        "trace.untraced_share": (untraced / traced_wall_s
                                 if traced_wall_s > 0 else 0.0),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.tickets": tickets,
    }
    error = sum(layer_self.values()) + untraced - traced_wall_s
    return LayerReport(metrics=metrics, layer_self_s=layer_self,
                       reconcile_error_s=error,
                       min_self_s=min(self_time, default=0.0))
