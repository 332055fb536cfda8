"""Workloads, ticket streams, the closed ticket loop and its correctness gate.

A workload names a study area and the CLI options one ``repro-magus
mitigate`` invocation would use on it.  Set-up builds the area exactly
as ``mitigate`` does before planning; a ticket is then planned the way
one ``mitigate`` invocation plans it: a fresh :class:`Magus` over the
shared, already-built area, ``tuning="joint"``, closed again before the
next ticket.  Nothing in here changes the library; it only calls its
public API.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.magus import Magus
from repro.core.plan import recovery_ratio
from repro.core.utility import get_utility
from repro.model.engine import AnalysisEngine
from repro.model.network import Configuration
from repro.synthetic.market import StudyArea, build_area
from repro.synthetic.placement import AreaType

#: Area seed: the CLI's ``--seed`` default.  The benchmark's own
#: ``--seed`` varies the ticket stream only, so every run plans on the
#: same area and set-up does the same work.
AREA_SEED = 0

#: An area that allows at most this many distinct multi-site (Figure
#: 9c) tickets gets all of them in every day; a larger one gets a
#: seeded sample of one per tuning site, as many as whole-site tickets.
MULTI_SITE_WHOLE = 9

#: A ticket: its Figure 9 shape label and the sorted target sectors.
Ticket = Tuple[str, Tuple[int, ...]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an area and the ``mitigate`` options."""

    name: str
    area_type: str
    gradual: bool = False   # ``mitigate --gradual``
    plossdb: bool = False   # ``mitigate --plossdb FILE`` (packed, mmap'd)
    workers: int = 1        # ``mitigate --workers N``

    @property
    def strategy(self) -> str:
        """``Magus(evaluation_strategy=...)`` as the CLI derives it."""
        return "parallel" if self.workers > 1 else "delta"


def _pool_workers() -> int:
    """Two workers, never more processes than usable CPUs."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return max(1, min(2, usable))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("suburban-gradual", "suburban", gradual=True),
        Workload("rural-packed", "rural", plossdb=True),
        Workload("urban-pool2", "urban", workers=_pool_workers()),
    )
}


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def build(workload: Workload, scratch: Path) -> StudyArea:
    """Build the workload's study area: the whole of ``setup_s``.

    Terrain, path loss (or streaming a ``magus.plossdb/3`` file with
    the default clip floor into ``scratch`` and memory-mapping it),
    offline planning and the baseline, as ``mitigate`` does.
    """
    plossdb = None
    if workload.plossdb:
        scratch.mkdir(parents=True, exist_ok=True)
        plossdb = str(scratch / f"{workload.area_type}.plossdb")
    return build_area(AreaType(workload.area_type), seed=AREA_SEED,
                      evaluation_strategy="delta", plossdb=plossdb,
                      roi=True)


# ----------------------------------------------------------------------
# ticket stream
# ----------------------------------------------------------------------
def tuning_sites(area: StudyArea) -> Dict[int, Tuple[int, ...]]:
    """``{site_id: sector_ids}`` for the sites inside the tuning region."""
    sites: Dict[int, List[int]] = {}
    for sector in area.network.sectors:
        if (area.tuning_region.contains(sector.x, sector.y)
                and area.c_before.is_active(sector.sector_id)):
            sites.setdefault(sector.site_id, []).append(sector.sector_id)
    return {site: tuple(sorted(ids)) for site, ids in sorted(sites.items())}


def _multi_site_universe(sites: Dict[int, Tuple[int, ...]]) -> int:
    """How many distinct Figure 9c tickets the sites allow."""
    total = 0
    for k in range(2, min(4, len(sites)) + 1):
        for chosen in itertools.combinations(sites.values(), k):
            n = 1
            for sectors in chosen:
                n *= len(sectors)
            total += n
    return total


def day_tickets(sites: Dict[int, Tuple[int, ...]], seed: int) -> List[Ticket]:
    """One day of upgrade tickets, in a seeded order.

    The day holds every single-sector ticket (Figure 9a), every
    whole-site ticket (9b), and tickets taking one sector at each of
    2-4 distinct sites (9c): all of those when there are at most
    :data:`MULTI_SITE_WHOLE`, else a seeded sample of one per site.
    Covering 9a and 9b completely keeps most of the day the same for
    every seed, so a seed changes the 9c draw and the order, and
    barely how hard the day is.
    """
    if len(sites) < 2:
        raise ValueError("the tuning region needs at least two sites")
    rng = random.Random(seed)
    site_ids = sorted(sites)
    tickets: List[Ticket] = [("a", (s,)) for site in site_ids
                             for s in sites[site]]
    tickets += [("b", sites[site]) for site in site_ids]
    universe = _multi_site_universe(sites)
    want = universe if universe <= MULTI_SITE_WHOLE else len(sites)
    multi: List[Ticket] = []
    seen = set()
    while len(multi) < want:
        chosen = rng.sample(site_ids, rng.randint(2, min(4, len(site_ids))))
        targets = tuple(sorted(rng.choice(sites[s]) for s in chosen))
        if targets not in seen:
            seen.add(targets)
            multi.append(("c", targets))
    tickets += multi
    rng.shuffle(tickets)
    return tickets


# ----------------------------------------------------------------------
# the closed ticket loop
# ----------------------------------------------------------------------
@dataclass
class TicketRecord:
    """One planned ticket: its latency, its outputs and its checks."""

    ticket: Ticket
    latency_s: float
    error: Optional[str] = None
    c_after: Optional[Configuration] = None
    f_before: float = float("nan")
    f_upgrade: float = float("nan")
    f_after: float = float("nan")
    utility_name: str = "performance"
    gradual_final: Optional[Configuration] = None
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def recovery(self) -> float:
        return recovery_ratio(self.f_before, self.f_upgrade, self.f_after)


def plan_ticket(area: StudyArea, workload: Workload,
                ticket: Ticket) -> TicketRecord:
    """Plan one ticket as one ``mitigate`` invocation does after set-up.

    The latency covers the fresh :class:`Magus`, the plan, the gradual
    schedule where the workload asks for it, and closing the evaluator
    (on ``urban-pool2`` that forks and shuts down the worker pool).
    A ticket that raises is recorded, with its traceback on stderr.
    """
    t0 = time.perf_counter()
    try:
        with Magus.from_area(area, evaluation_strategy=workload.strategy,
                             workers=workload.workers) as magus:
            plan = magus.plan_mitigation(ticket[1], tuning="joint")
            gradual = (magus.gradual_schedule(plan)
                       if workload.gradual else None)
    except Exception:  # the loop keeps going; the ticket counts as failed
        latency = time.perf_counter() - t0
        trace = traceback.format_exc()
        sys.stderr.write(f"ticket {ticket} raised:\n{trace}")
        return TicketRecord(ticket, latency,
                            error=trace.strip().splitlines()[-1])
    latency = time.perf_counter() - t0
    return TicketRecord(
        ticket, latency, c_after=plan.c_after, f_before=plan.f_before,
        f_upgrade=plan.f_upgrade, f_after=plan.f_after,
        utility_name=plan.utility_name,
        gradual_final=None if gradual is None else gradual.final_config)


def run_stream(area: StudyArea, workload: Workload,
               day: Sequence[Ticket],
               seconds: float) -> Tuple[List[TicketRecord], float]:
    """Closed loop, one client: plan the whole day, again and again,
    until ``seconds`` have passed.

    Only whole days are planned, so the tickets behind the latency
    percentiles are the same mix in every run however fast the host
    is.  Returns the records and the loop's wall time.
    """
    records: List[TicketRecord] = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        for ticket in day:
            records.append(plan_ticket(area, workload, ticket))
    return records, time.perf_counter() - start


# ----------------------------------------------------------------------
# correctness gate (outside every timed region)
# ----------------------------------------------------------------------
def check_tickets(area: StudyArea, records: Sequence[TicketRecord]) -> None:
    """Fill each record's ``problems``; an empty list means it passed.

    * ``f_after`` equals ``f(C_after)`` re-scored by a fresh
      :meth:`AnalysisEngine.evaluate` *bitwise*, as the delta, batch,
      ROI and packed parity suites promise;
    * every target sector is off-air in ``C_after``;
    * ``f_after >= f_upgrade``;
    * a gradual schedule ends at ``C_after``;
    * a repeated ticket reproduces the first plan exactly.
    """
    base = area.engine
    engine = AnalysisEngine(area.pathloss, link=base.link,
                            noise_dbm=base.noise_dbm,
                            min_rp_dbm=base.min_rp_dbm)
    fresh: Dict[Tuple[str, Configuration], float] = {}
    first: Dict[Tuple[int, ...], TicketRecord] = {}
    for record in records:
        if record.error is not None:
            continue
        problems = record.problems
        key = (record.utility_name, record.c_after)
        if key not in fresh:
            state = engine.evaluate(record.c_after, area.ue_density)
            fresh[key] = get_utility(record.utility_name).evaluate(state)
        if not fresh[key] == record.f_after:
            problems.append(f"f_after {record.f_after!r} != fresh "
                            f"evaluate {fresh[key]!r}")
        on_air = [t for t in record.ticket[1] if record.c_after.is_active(t)]
        if on_air:
            problems.append(f"targets {on_air} still on-air in C_after")
        if not record.f_after >= record.f_upgrade:
            problems.append(f"f_after {record.f_after!r} < f_upgrade "
                            f"{record.f_upgrade!r}")
        if (record.gradual_final is not None
                and record.gradual_final != record.c_after):
            problems.append("gradual schedule does not end at C_after")
        earlier = first.setdefault(record.ticket[1], record)
        if earlier is not record and (earlier.c_after != record.c_after
                                      or earlier.f_after != record.f_after):
            problems.append("repeat of the ticket planned differently")
