"""Windowed candidate scoring: the one single-sector scoring kernel.

A single-sector change can move received power only inside the
candidate's *window* (:meth:`~repro.model.engine.AnalysisEngine.roi_window`):
the union of the changed sector's old and new footprint boxes when the
backend stores them, the full grid otherwise.  A sector's gain plane
is exactly zero outside its footprint once the pack/build-time
``clip_floor_db`` has zeroed negligible gains at the f64->f32
quantization point (see :func:`~repro.model.pathloss.clip_gains_mw`),
so every raster outside a footprint window is *bitwise* unchanged.  On
the default unclipped backend every window is the full grid, and the
same kernel is simply the dense computation.

The subtlety is Formula 3: serving flips inside the window change the
per-sector UE loads, which changes the shared rate at cells *outside*
the window that are served by a straddling sector.  A cached
outside-window utility partial sum alone is therefore wrong.
:func:`score_candidate` instead assembles the candidate's full-grid
rate raster from cheap O(H*W) passes (array copies, one bincount, one
division — no transcendentals), then recomputes the per-UE utility
term only at cells whose rate actually changed, reusing the baseline's
cached ``per_ue(rate)*density`` raster everywhere else.  Because
``per_ue`` is elementwise-pure and the final reduction runs over the
same contiguous full-grid layout as a per-candidate reduction of
:meth:`~repro.model.engine.AnalysisEngine.evaluate_batch`, the
returned utility is bitwise identical to that reduction (and to the
utility of :meth:`~repro.model.engine.AnalysisEngine.evaluate`) — at
O(|window| + |rate-changed|) transcendental cost instead of O(H*W).

The exactness argument (including why windowed totals must not re-sum
a sliced plane stack) is laid out in DESIGN.md, "Sparse ROI
evaluation".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

import numpy as np

from .network import Configuration
from .snapshot import NO_SERVICE

__all__ = ["EMPTY_BOX", "Box", "RoiBaseline", "box_area", "box_is_empty",
           "box_union", "score_candidate"]

#: Half-open ``(row0, row1, col0, col1)`` bounding box in grid coords.
Box = Tuple[int, int, int, int]

#: The canonical empty box (an off-air sector's footprint).
EMPTY_BOX: Box = (0, 0, 0, 0)


def box_is_empty(box: Box) -> bool:
    return box[0] >= box[1] or box[2] >= box[3]


def box_area(box: Box) -> int:
    return max(box[1] - box[0], 0) * max(box[3] - box[2], 0)


def box_union(a: Box, b: Box) -> Box:
    """Smallest box covering both (an empty operand is the identity)."""
    if box_is_empty(a):
        return b
    if box_is_empty(b):
        return a
    return (min(a[0], b[0]), max(a[1], b[1]),
            min(a[2], b[2]), max(a[3], b[3]))


#: The arrays a worker needs to score candidates against one
#: incumbent — nine (H, W) rasters, never the (S, H, W) plane stack
#: (~100x smaller at paper scale).
_BASELINE_ARRAYS = ("total_mw", "raw_serving", "best_mw", "runner_val",
                    "runner_idx", "serving", "max_rate_bps", "rate_bps",
                    "weighted")


@dataclass
class RoiBaseline:
    """One incumbent's derived rasters, ready for windowed scoring.

    ``total_mw``/``raw_serving``/``best_mw`` and the runner-up pair
    come straight from the :class:`~repro.model.engine.DeltaIncumbent`;
    ``serving``/``max_rate_bps``/``rate_bps`` from its finished
    :class:`~repro.model.snapshot.NetworkState`; ``weighted`` is the
    cached ``utility.per_ue(rate_bps) * ue_density`` raster the
    rate-compare trick patches.  Deliberately excludes the plane
    stack: the changed sector's old plane row is recomputed from the
    path-loss database, which is bitwise identical by the
    ``_sector_plane_mw`` contract.
    """

    config: Configuration
    epoch: int
    total_mw: np.ndarray      # (H, W) incumbent total received power
    raw_serving: np.ndarray   # (H, W) int32 pre-mask serving argmax
    best_mw: np.ndarray       # (H, W) winning plane value
    runner_val: np.ndarray    # (H, W) second-best plane value
    runner_idx: np.ndarray    # (H, W) int32 second-best sector
    serving: np.ndarray       # (H, W) post-floor serving (NO_SERVICE)
    max_rate_bps: np.ndarray  # (H, W) single-user rate
    rate_bps: np.ndarray      # (H, W) load-shared rate
    weighted: np.ndarray      # (H, W) per_ue(rate) * ue_density
    #: Baseline-only window arrays memoized per (changed, box): the
    #: old plane window and the serving comparator pair are identical
    #: for every candidate that flips the same sector within the same
    #: ROI (a power ladder), so they are computed once per sector
    #: rather than once per candidate.  Local to each process — never
    #: shipped through shared memory.
    window_cache: Dict[Tuple[int, Box], Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_incumbent(cls, incumbent, utility,
                       ue_density: np.ndarray) -> "RoiBaseline":
        """Build from a finished incumbent (one that ran ``_finish``).

        Raises :class:`ValueError` on an unfinished incumbent; workers
        rebuild baselines from shared memory with :meth:`from_arrays`.
        """
        state = incumbent.state
        if state is None:
            raise ValueError(
                "RoiBaseline needs a finished incumbent (from "
                "evaluate_with_incumbent or evaluate_delta)")
        runner_val, runner_idx = incumbent.runner_up()
        weighted = utility.per_ue(state.rate_bps) * ue_density
        return cls(config=incumbent.config, epoch=incumbent.epoch,
                   total_mw=incumbent.total_mw,
                   raw_serving=incumbent.raw_serving,
                   best_mw=incumbent.best_mw,
                   runner_val=runner_val, runner_idx=runner_idx,
                   serving=state.serving,
                   max_rate_bps=state.max_rate_bps,
                   rate_bps=state.rate_bps, weighted=weighted)

    def export_arrays(self) -> Dict[str, np.ndarray]:
        """The shm-exportable raster set (see ``_BASELINE_ARRAYS``)."""
        return {name: getattr(self, name) for name in _BASELINE_ARRAYS}

    @classmethod
    def from_arrays(cls, config: Configuration, epoch: int,
                    views: Mapping[str, np.ndarray]) -> "RoiBaseline":
        """Rebuild from attached shared-memory views (worker side)."""
        return cls(config=config, epoch=epoch,
                   **{name: views[name] for name in _BASELINE_ARRAYS})


def score_candidate(engine, baseline: RoiBaseline,
                    config: Configuration, changed: int, box: Box,
                    ue_density: np.ndarray, utility) -> float:
    """Utility of one single-sector candidate via its window.

    Bitwise identical to scoring ``config`` through
    ``engine.evaluate_batch`` + the per-candidate weighted reduction.
    ``changed`` is the one sector ``config`` flips vs.
    ``baseline.config``; ``box`` is its window from
    ``engine.roi_window`` (both plane rows are exactly zero outside
    it; the full grid when footprints are unknown).
    """
    r0, r1, c0, c1 = box
    win = (slice(r0, r1), slice(c0, c1))
    new_w = engine._sector_plane_mw(config, changed, box)
    cached = baseline.window_cache.get((changed, box))
    if cached is None:
        old_w = engine._sector_plane_mw(baseline.config, changed, box)
        s0 = baseline.raw_serving[win]
        # Comparator per grid, exactly as evaluate_batch: the
        # runner-up where the changed sector already serves, the
        # incumbent best elsewhere.  Outside the window the changed
        # sector's plane is zero before and after, so the wins test
        # is a no-op there.
        mask = s0 == changed
        comp_val = np.where(mask, baseline.runner_val[win],
                            baseline.best_mw[win])
        comp_idx = np.where(mask, baseline.runner_idx[win], s0)
        cached = (old_w, comp_val, comp_idx)
        if len(baseline.window_cache) < 512:
            baseline.window_cache[(changed, box)] = cached
    old_w, comp_val, comp_idx = cached
    # The dense batch path's incremental total, restricted to the
    # window (outside it new - old is exactly 0-0).
    total_w = baseline.total_mw[win] + (new_w - old_w)
    wins = (new_w > comp_val) | ((new_w == comp_val)
                                 & (changed < comp_idx))
    best_w = np.where(wins, new_w, comp_val)
    raw_w = np.where(wins, np.int32(changed), comp_idx).astype(np.int32)

    sinr_w = engine._sinr_raster(total_w, best_w)
    rmax_w = engine.link.max_rate_bps(sinr_w)
    rmax_w = np.where(best_w >= 10.0 ** (float(engine.min_rp_dbm) / 10.0),
                      rmax_w, 0.0)
    serving_w = np.where(rmax_w > 0.0, raw_w, NO_SERVICE)

    # Full-grid assembly: Formula 3's load coupling reaches outside
    # the window (a serving flip changes the shared rate of every
    # cell on the affected sectors), so loads and rates are rebuilt
    # over the whole grid — cheap passes only, no transcendentals.
    serving_k = engine._patched(baseline.serving, box, serving_w)
    rmax_k = engine._patched(baseline.max_rate_bps, box, rmax_w)
    n_ue = engine._shared_load(serving_k, ue_density)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_k = np.where(n_ue > 0, rmax_k / np.maximum(n_ue, 1e-12),
                          rmax_k)

    # Rate-compare trick: per_ue (the transcendental) runs only where
    # the rate value moved.  per_ue is elementwise-pure, so cells with
    # an unchanged rate keep a bit-identical weighted term; the final
    # sum reduces the same contiguous (H*W) float64 layout as the
    # dense batch's row-wise reduction, hence the same pairwise tree.
    weighted = baseline.weighted.copy()
    stale = rate_k != baseline.rate_bps
    if stale.any():
        weighted[stale] = utility.per_ue(rate_k[stale]) * ue_density[stale]
    return float(weighted.sum())
