"""The vectorized analysis engine (paper Section 4.1, Formulae 1-4).

Given the path-loss database, a configuration and a UE population, the
engine computes received power, serving assignment, SINR, single-user
rate and load-shared actual rate for every grid — the "Analysis Model"
box of the paper's Figure 6.  This is the inner loop of every search
algorithm, so everything is NumPy-tensorized, and incremental
evaluation sits on top of the canonical pass (:meth:`evaluate`, the
reference every fast path is checked against):

* **mW-domain plane caching** — the canonical pass works on cached
  linear-domain gain planes ``10^(L/10)`` (see
  :meth:`PathLossDatabase.gain_tensor_mw`), so a power-only candidate
  scales one plane by the scalar ``10^(P/10)`` instead of
  re-exponentiating the whole ``(n_sectors, rows, cols)`` tensor.
* **windows** — a single-sector change can move received power only
  inside its window (:meth:`roi_window`): the union of the changed
  sector's old and new footprints when the backend stores footprint
  boxes (``clip_floor_db`` zeroed sub-floor gains, see
  :meth:`PathLossDatabase.footprint`), and the full grid otherwise —
  which includes the default unclipped ``dict`` backend, rotated
  patterns and ``roi=False`` (CLI ``--no-roi``).  Dense evaluation is
  just the full-grid window.
* **one windowed kernel** — :meth:`evaluate_delta` turns a
  :class:`DeltaIncumbent` plus one changed sector into the candidate's
  full :class:`NetworkState`, and
  :func:`repro.model.roi.score_candidate` scores a candidate's
  utility; both work inside the window only and are *bitwise
  identical* to :meth:`evaluate` (see DESIGN.md, "Evaluation
  strategies" and "Sparse ROI evaluation").
* **batched candidate scoring** — :meth:`evaluate_batch` stacks K
  single-sector candidates along a batch axis; the parity tests'
  reference for the windowed kernel.

The searches reach these through :class:`~repro.core.evaluation.Evaluator`,
which owns strategy selection and fallback accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import Counter, get_registry
from .linkrate import LinkAdaptation
from .network import Configuration
from .pathloss import PathLossDatabase
from .roi import EMPTY_BOX, Box, box_area, box_union
from .snapshot import NO_SERVICE, NetworkState

__all__ = ["AnalysisEngine", "BatchResult", "DeltaIncumbent",
           "DEFAULT_NOISE_DBM"]

#: Thermal noise over 10 MHz (-174 dBm/Hz + 70 dB) plus a 7 dB UE noise
#: figure: the paper's "Noise" term in Formula 2.
DEFAULT_NOISE_DBM = -97.0


class DeltaIncumbent:
    """The linear-domain state of one evaluated configuration.

    Everything a single-sector re-evaluation needs: the per-sector mW
    planes, the total-power plane, and the (pre-mask) serving argmax
    with its winning values.  ``planes`` is owned by this object and
    mutated never — delta evaluations copy it.  ``state`` is the
    finished :class:`NetworkState` this incumbent was evaluated into
    (set by ``_finish``); footprint windows copy its rasters and
    recompute only the window.
    """

    __slots__ = ("config", "planes", "total_mw", "raw_serving",
                 "best_mw", "epoch", "state", "_runner")

    def __init__(self, config: Configuration, planes: np.ndarray,
                 total_mw: np.ndarray, raw_serving: np.ndarray,
                 best_mw: np.ndarray, epoch: int) -> None:
        self.config = config
        self.planes = planes
        self.total_mw = total_mw
        self.raw_serving = raw_serving
        self.best_mw = best_mw
        self.epoch = epoch
        self.state: Optional[NetworkState] = None
        self._runner: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def runner_up(self) -> Tuple[np.ndarray, np.ndarray]:
        """Second-best plane value and its (first-index) sector per grid.

        The batch scorer's comparator for grids currently served by the
        changed sector.  With a single sector there is no competitor:
        the value is ``-inf`` so the changed sector always wins.
        """
        if self._runner is None:
            n_sectors = self.planes.shape[0]
            if n_sectors == 1:
                runner_val = np.full(self.raw_serving.shape, -np.inf)
                runner_idx = self.raw_serving.copy()
            else:
                # Streaming top-2 selection, one plane at a time:
                # O(H*W) scratch instead of copying the whole stack
                # (the copy is GBs for packed markets).  Pure selection
                # of existing plane values with first-index tie-breaks,
                # so the result is bitwise identical to masking the
                # serving row out of a stack copy and taking argmax.
                best = self.planes[0].copy()
                best_idx = np.zeros(best.shape, dtype=np.int32)
                runner_val = np.full(best.shape, -np.inf,
                                     dtype=self.planes.dtype)
                runner_idx = np.zeros(best.shape, dtype=np.int32)
                for s in range(1, n_sectors):
                    plane = self.planes[s]
                    promote = plane > best
                    # The demoted best becomes the runner-up...
                    runner_val = np.where(promote, best, runner_val)
                    runner_idx = np.where(promote, best_idx, runner_idx)
                    # ...and a non-promoting plane may still beat it
                    # (strict >: equal values keep the earlier index).
                    challenge = ~promote & (plane > runner_val)
                    runner_val = np.where(challenge, plane, runner_val)
                    runner_idx = np.where(challenge, np.int32(s),
                                          runner_idx)
                    best = np.where(promote, plane, best)
                    best_idx = np.where(promote, np.int32(s), best_idx)
            self._runner = (runner_val, runner_idx)
        return self._runner


@dataclass(frozen=True)
class BatchResult:
    """Vectorized scores of K single-sector candidates.

    All arrays carry a leading batch axis of length K.  ``serving``,
    ``max_rate_bps``, ``n_ue`` and ``rate_bps`` are exact (identical to
    the canonical pass); ``sinr_db`` uses an incrementally updated
    total-power plane and may differ from the canonical value by
    ~1e-15 relative — which is why batch results are never cached and
    accepted candidates are always re-evaluated canonically.
    """

    serving: np.ndarray       # (K, H, W) int, NO_SERVICE where unservable
    sinr_db: np.ndarray       # (K, H, W)
    max_rate_bps: np.ndarray  # (K, H, W)
    n_ue: np.ndarray          # (K, H, W)
    rate_bps: np.ndarray      # (K, H, W)


class AnalysisEngine:
    """Evaluates configurations against a fixed UE population.

    Parameters
    ----------
    pathloss:
        The per-sector/tilt gain database over the analysis raster.
    link:
        SINR -> rate mapping (defaults to the paper's 10 MHz LTE).
    noise_dbm:
        Receiver noise floor entering Formula 2.
    min_rp_dbm:
        Grids where even the best sector's received power falls below
        this are treated as unservable regardless of SINR; planning
        tools apply the same RSRP-style floor (and the paper's Figure 4
        black pixels use "receive power below a threshold").
    roi:
        Shrink windows to footprint boxes where the backend has them
        (default on; the default unclipped backend has none, so its
        windows are the full grid either way).  ``False`` makes every
        window the full grid.  Results are bitwise identical either
        way.
    """

    def __init__(self, pathloss: PathLossDatabase,
                 link: Optional[LinkAdaptation] = None,
                 noise_dbm: float = DEFAULT_NOISE_DBM,
                 min_rp_dbm: float = -120.0,
                 roi: bool = True) -> None:
        self.pathloss = pathloss
        self.link = link or LinkAdaptation()
        self.noise_dbm = noise_dbm
        self.min_rp_dbm = min_rp_dbm
        self.roi = roi
        self.grid = pathloss.grid
        rows, cols = self.grid.shape
        #: The window covering the whole grid (dense evaluation).
        self.full_window: Box = (0, rows, 0, cols)
        # Always-on per-engine evaluation counter (ablation benches read
        # it through the ``evaluations`` property); the active metrics
        # registry is additionally updated on every evaluation.
        self._eval_counter = Counter("engine.evaluations")

    @property
    def evaluations(self) -> int:
        """Total model evaluations (full, delta or batched candidates)."""
        return self._eval_counter.value

    @evaluations.setter
    def evaluations(self, value: int) -> None:
        self._eval_counter.reset(value)

    # ------------------------------------------------------------------
    # canonical (full) evaluation
    # ------------------------------------------------------------------
    def evaluate(self, config: Configuration,
                 ue_density: np.ndarray) -> NetworkState:
        """Full grid/sector snapshot for ``config`` (Formulae 1-4)."""
        self._eval_counter.inc()
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc()
        with registry.timer("magus.engine.evaluate").time():
            return self._evaluate(config, ue_density)

    def _evaluate(self, config: Configuration,
                  ue_density: np.ndarray) -> NetworkState:
        """The uninstrumented evaluation body (overhead baseline)."""
        self._validate(config, ue_density)
        return self._finish(self._prepare(config), ue_density)

    def evaluate_with_incumbent(
            self, config: Configuration, ue_density: np.ndarray
            ) -> Tuple[NetworkState, DeltaIncumbent]:
        """Canonical evaluation that also returns the delta anchor.

        The :class:`DeltaIncumbent` captures the linear-domain planes
        this evaluation was computed from, so subsequent single-sector
        candidates can be answered by :meth:`evaluate_delta`.
        """
        self._eval_counter.inc()
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc()
        with registry.timer("magus.engine.evaluate").time():
            self._validate(config, ue_density)
            incumbent = self._prepare(config)
            return self._finish(incumbent, ue_density), incumbent

    # ------------------------------------------------------------------
    # single-sector delta evaluation
    # ------------------------------------------------------------------
    def single_sector_change(self, incumbent: DeltaIncumbent,
                             config: Configuration) -> Optional[int]:
        """The one sector ``config`` changes vs. the incumbent, if any.

        ``None`` when the configurations are identical, differ in more
        than one sector, or the path-loss caches were invalidated since
        the incumbent was captured (its planes may be stale).
        """
        if incumbent.epoch != self.pathloss.cache_epoch:
            return None
        if config.n_sectors != incumbent.config.n_sectors:
            return None
        diff = incumbent.config.diff(config)
        if len(diff) != 1:
            return None
        return next(iter(diff))

    def evaluate_delta(self, incumbent: DeltaIncumbent,
                       config: Configuration, ue_density: np.ndarray
                       ) -> Optional[Tuple[NetworkState, DeltaIncumbent]]:
        """Re-evaluate ``config`` incrementally from ``incumbent``.

        Only the changed sector's mW plane is rebuilt, and only inside
        its window (:meth:`roi_window`); outside the window that plane
        is exactly zero before and after.  The serving argmax is
        repaired locally (a changed plane can only capture grids from
        the old winner or release the grids it served), and the total
        is re-summed over the swapped plane stack — *not* updated
        incrementally — so every derived raster is bitwise identical
        to :meth:`evaluate`.  A full-grid window computes a fresh
        state.  A footprint window reuses the incumbent's arrays and
        state outside the box: the stack is elementwise unchanged
        there, the sequential order of :func:`_accumulate_planes`
        makes the total decomposable, and the wins test and the
        restricted argmax are no-ops outside.  Returns ``None`` when
        the change is not a single-sector one (caller falls back).
        """
        changed = self.single_sector_change(incumbent, config)
        if changed is None:
            return None
        self._eval_counter.inc()
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc()
        registry.counter("magus.engine.delta_evaluations").inc()
        with registry.timer("magus.engine.evaluate").time():
            self._validate(config, ue_density)
            box = self.roi_window(incumbent, config, changed)
            self._count_windows([box])
            r0, r1, c0, c1 = box
            win = (slice(r0, r1), slice(c0, c1))
            planes = incumbent.planes.copy()
            # The old row is zero outside the window (the window covers
            # its footprint), so only the window needs overwriting.
            new_row = planes[changed]
            new_row[win] = self._sector_plane_mw(config, changed, box)
            total_w = _accumulate_planes(planes, box)

            s0 = incumbent.raw_serving[win]
            b0 = incumbent.best_mw[win]
            nr = new_row[win]
            # Grids served by someone else: the changed sector wins iff
            # it now beats the old best (first-index tie-break).
            wins = (nr > b0) | ((nr == b0) & (changed < s0))
            raw_w = np.where(wins, np.int32(changed), s0)
            best_w = np.where(wins, nr, b0)
            # Grids the changed sector was serving: full (restricted)
            # argmax — its plane may have dropped below any competitor.
            mask = s0 == changed
            if mask.any():
                sub = planes[:, r0:r1, c0:c1][:, mask]
                sub_arg = sub.argmax(axis=0)
                raw_w[mask] = sub_arg.astype(np.int32)
                best_w[mask] = sub[sub_arg, np.arange(sub.shape[1])]

            new_incumbent = DeltaIncumbent(
                config, planes,
                self._patched(incumbent.total_mw, box, total_w),
                self._patched(incumbent.raw_serving, box, raw_w),
                self._patched(incumbent.best_mw, box, best_w),
                self.pathloss.cache_epoch)
            state = self._finish(new_incumbent, ue_density,
                                 incumbent.state, box)
            return state, new_incumbent

    # ------------------------------------------------------------------
    # region-of-influence windows
    # ------------------------------------------------------------------
    def roi_window(self, incumbent: DeltaIncumbent,
                   config: Configuration, changed: int) -> Box:
        """The changed sector's window: every cell whose power can move.

        The union of the sector's footprints under the incumbent and
        candidate settings when both are known; otherwise the full
        grid (:attr:`full_window`) — an unclipped backend such as the
        default ``dict`` one, a rotated pattern, or ``roi=False``.
        """
        if self.roi:
            old_box = self._setting_footprint(
                changed, incumbent.config.settings[changed])
            new_box = self._setting_footprint(changed,
                                              config.settings[changed])
            if old_box is not None and new_box is not None:
                return box_union(old_box, new_box)
        return self.full_window

    def _count_windows(self, boxes: Sequence[Box]) -> None:
        """Window accounting for the run report's ``roi:`` section:
        ``roi_cells / (roi_evaluations * grid_cells)`` is the mean
        share of the grid a window covered."""
        registry = get_registry()
        registry.counter("magus.engine.roi_evaluations").inc(len(boxes))
        registry.counter("magus.engine.roi_cells").inc(
            sum(box_area(box) for box in boxes))
        registry.gauge("magus.engine.grid_cells").set(self.grid.n_cells)

    def _setting_footprint(self, sector_id: int,
                           setting) -> Optional[Box]:
        """One setting's footprint; off-air sectors radiate nowhere."""
        if not setting.active:
            return EMPTY_BOX
        return self.pathloss.footprint(sector_id, setting.tilt_deg,
                                       setting.azimuth_offset_deg)

    # ------------------------------------------------------------------
    # batched candidate scoring
    # ------------------------------------------------------------------
    def evaluate_batch(self, incumbent: DeltaIncumbent,
                       configs: Sequence[Configuration],
                       ue_density: np.ndarray) -> Optional[BatchResult]:
        """Score K single-sector candidates in one vectorized pass.

        Every candidate must differ from the incumbent in exactly one
        sector (any knob: power, tilt, azimuth or on/off state);
        returns ``None`` otherwise.  Serving, rmax, loads and rates are
        exact; only SINR carries the incremental total-power update
        (see :class:`BatchResult`).
        """
        changed: List[int] = []
        for config in configs:
            sector = self.single_sector_change(incumbent, config)
            if sector is None:
                return None
            changed.append(sector)
        if not changed:
            return None
        self._validate(configs[0], ue_density)
        k = len(configs)
        self._eval_counter.inc(k)
        registry = get_registry()
        registry.counter("magus.engine.evaluations").inc(k)
        registry.counter("magus.engine.batched_candidates").inc(k)
        with registry.timer("magus.engine.evaluate_batch").time():
            b_idx = np.asarray(changed, dtype=np.int32)
            new_rows = np.stack([self._sector_plane_mw(c, b)
                                 for c, b in zip(configs, changed)])
            old_rows = incumbent.planes[b_idx]
            total_mw = incumbent.total_mw[None] + (new_rows - old_rows)

            serving0 = incumbent.raw_serving
            runner_val, runner_idx = incumbent.runner_up()
            # Comparator per grid: for grids the changed sector already
            # serves, the runner-up; for the rest, the incumbent best.
            mask = serving0[None] == b_idx[:, None, None]
            comp_val = np.where(mask, runner_val[None],
                                incumbent.best_mw[None])
            comp_idx = np.where(mask, runner_idx[None], serving0[None])
            bb = b_idx[:, None, None]
            wins = (new_rows > comp_val) | ((new_rows == comp_val)
                                            & (bb < comp_idx))
            best_mw = np.where(wins, new_rows, comp_val)
            raw_serving = np.where(wins, bb, comp_idx).astype(np.int32)

            sinr_db, rp_best_dbm, interference_dbm = self._radio_rasters(
                total_mw, best_mw)
            rmax = self.link.max_rate_bps(sinr_db)
            rmax = np.where(best_mw >= _dbm_to_mw_scalar(self.min_rp_dbm),
                            rmax, 0.0)
            serving = np.where(rmax > 0.0, raw_serving, NO_SERVICE)
            n_ue = self._shared_load_batch(serving, ue_density)
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = np.where(n_ue > 0, rmax / np.maximum(n_ue, 1e-12),
                                rmax)
            return BatchResult(serving=serving, sinr_db=sinr_db,
                               max_rate_bps=rmax, n_ue=n_ue,
                               rate_bps=rate)

    # ------------------------------------------------------------------
    # shared internals
    # ------------------------------------------------------------------
    def _validate(self, config: Configuration,
                  ue_density: np.ndarray) -> None:
        if config.n_sectors != self.pathloss.network.n_sectors:
            raise ValueError("configuration does not match network")
        if ue_density.shape != self.grid.shape:
            raise ValueError("UE density raster shape mismatch")
        if not np.all(np.isfinite(ue_density)):
            raise ValueError("UE density must be finite (corrupt raster?)")
        if np.any(ue_density < 0):
            raise ValueError("UE density must be non-negative")

    def _prepare(self, config: Configuration) -> DeltaIncumbent:
        """Formulae 1-2 in the linear domain: planes, total, serving."""
        planes = self._planes_mw(config)
        total_mw = _accumulate_planes(planes)
        raw_serving = planes.argmax(axis=0).astype(np.int32)
        best_mw = np.take_along_axis(planes, raw_serving[None], axis=0)[0]
        return DeltaIncumbent(config, planes, total_mw, raw_serving,
                              best_mw, self.pathloss.cache_epoch)

    def _finish(self, incumbent: DeltaIncumbent, ue_density: np.ndarray,
                prev: Optional[NetworkState] = None,
                box: Optional[Box] = None) -> NetworkState:
        """Formulae 2-4 from the prepared linear-domain arrays.

        Without ``prev`` (or with a full-grid ``box``) every raster is
        computed over the whole grid.  With ``prev`` — the state of an
        incumbent whose arrays agree with these outside ``box`` — only
        the window is recomputed:
        the dB rasters and the single-user rate are elementwise in
        ``total_mw``/``best_mw``, so ``prev``'s values are bitwise
        reusable outside it.  Loads and shared rates couple globally
        through Formula 3 and are rebuilt over the whole grid (cheap,
        non-transcendental).
        """
        if prev is None:
            box = self.full_window
        r0, r1, c0, c1 = box
        win = (slice(r0, r1), slice(c0, c1))
        best_w = incumbent.best_mw[win]
        sinr_w, rp_w, itf_w = self._radio_rasters(incumbent.total_mw[win],
                                                  best_w)
        rmax_w = self.link.max_rate_bps(sinr_w)
        # The RSRP-style floor, compared in the linear domain.
        rmax_w = np.where(best_w >= _dbm_to_mw_scalar(self.min_rp_dbm),
                          rmax_w, 0.0)
        serving_w = np.where(rmax_w > 0.0, incumbent.raw_serving[win],
                             NO_SERVICE)
        if prev is None:
            sinr_db, rp_best_dbm, interference_dbm = sinr_w, rp_w, itf_w
            rmax, serving = rmax_w, serving_w
        else:
            sinr_db = self._patched(prev.sinr_db, box, sinr_w)
            rp_best_dbm = self._patched(prev.rp_best_dbm, box, rp_w)
            interference_dbm = self._patched(prev.interference_dbm, box,
                                             itf_w)
            rmax = self._patched(prev.max_rate_bps, box, rmax_w)
            serving = self._patched(prev.serving, box, serving_w)
        n_ue = self._shared_load(serving, ue_density)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(n_ue > 0, rmax / np.maximum(n_ue, 1e-12), rmax)
        state = NetworkState(
            grid=self.grid, config=incumbent.config, serving=serving,
            rp_best_dbm=rp_best_dbm, interference_dbm=interference_dbm,
            sinr_db=sinr_db, max_rate_bps=rmax, n_ue=n_ue,
            rate_bps=rate, ue_density=np.asarray(ue_density, dtype=float),
            raw_serving=incumbent.raw_serving)
        incumbent.state = state
        return state

    def _patched(self, base: np.ndarray, box: Box,
                 window: np.ndarray) -> np.ndarray:
        """``base`` with ``window`` written over ``box`` (a new array;
        a full-grid window is returned as is)."""
        if box == self.full_window:
            return window
        r0, r1, c0, c1 = box
        out = base.copy()
        out[r0:r1, c0:c1] = window
        return out

    def _radio_rasters(self, total_mw: np.ndarray, best_mw: np.ndarray):
        """Formula 2 rasters (dB domain) from linear power planes."""
        sinr_db = self._sinr_raster(total_mw, best_mw)
        interference_mw = np.maximum(total_mw - best_mw, 0.0)
        with np.errstate(divide="ignore"):
            rp_best_dbm = np.where(
                best_mw > 0.0,
                10.0 * np.log10(np.maximum(best_mw, 1e-300)),
                -np.inf)
            interference_dbm = np.where(
                interference_mw > 0,
                10.0 * np.log10(np.maximum(interference_mw, 1e-300)),
                -np.inf)
        return sinr_db, rp_best_dbm, interference_dbm

    def _sinr_raster(self, total_mw: np.ndarray,
                     best_mw: np.ndarray) -> np.ndarray:
        """Formula 2's SINR alone — the only dB raster batch scoring
        needs, split out so ROI windows skip the other two log10
        passes."""
        noise_mw = _dbm_to_mw_scalar(self.noise_dbm)
        interference_mw = np.maximum(total_mw - best_mw, 0.0)
        with np.errstate(divide="ignore"):
            sinr_db = 10.0 * np.log10(
                np.maximum(best_mw, 1e-300)
                / (noise_mw + interference_mw))
        # Grids where no sector radiates at all (everything off-air).
        return np.where(best_mw > 0.0, sinr_db, -np.inf)

    def _planes_mw(self, config: Configuration) -> np.ndarray:
        """Formula 1 per sector, linear domain:
        ``10^(RP_b(g)/10) = 10^(P_b/10) * 10^(L_b(T_b,g)/10)``.

        Off-air sectors radiate nothing: their factor is exactly 0, so
        they can neither serve nor interfere.
        """
        gains_mw = self.pathloss.gain_tensor_mw(config.tilts(),
                                                config.azimuth_offsets())
        # Factors are cast to the plane dtype *before* the multiply:
        # under the packed float32 backend every path must perform the
        # same f32*f32 elementwise product (NEP-50 would otherwise
        # silently promote to float64 and break full/delta parity).
        # For the float64 dict path the cast is a no-op.
        factors = self._power_factors(config).astype(gains_mw.dtype,
                                                     copy=False)
        return gains_mw * factors[:, None, None]

    def _sector_plane_mw(self, config: Configuration, sector_id: int,
                         box: Optional[Box] = None) -> np.ndarray:
        """One sector's linear received-power plane, over ``box``
        (default: the full grid).

        Bitwise identical to row ``sector_id`` of :meth:`_planes_mw`
        restricted to ``box``: the same cached gain row is sliced
        before the same scalar multiply, and an elementwise product
        commutes with slicing.
        """
        r0, r1, c0, c1 = self.full_window if box is None else box
        setting = config.settings[sector_id]
        if not setting.active:
            return np.zeros((r1 - r0, c1 - c0),
                            dtype=self.pathloss.plane_dtype)
        gain_mw = self.pathloss.gain_matrix_mw(
            sector_id, setting.tilt_deg, setting.azimuth_offset_deg)
        # Index the vectorized factor computation rather than applying
        # scalar ``**``: both paths must round identically (cast to the
        # plane dtype first, for the same parity reason as _planes_mw).
        factors = self._power_factors(config).astype(gain_mw.dtype,
                                                     copy=False)
        return gain_mw[r0:r1, c0:c1] * factors[sector_id]

    @staticmethod
    def _power_factors(config: Configuration) -> np.ndarray:
        with np.errstate(over="ignore"):
            factors = np.power(10.0, config.powers() / 10.0)
        return np.where(config.active_mask(), factors, 0.0)

    # ------------------------------------------------------------------
    def _received_power_dbm(self, config: Configuration) -> np.ndarray:
        """Formula 1 per sector: ``RP_b(g) = P_b + L_b(T_b, g)``.

        The dB-domain tensor, kept for the SINR pre-filter and hand
        verification; the evaluation paths work in the linear domain.
        Off-air sectors radiate nothing: their plane is set to -inf so
        they can neither serve nor interfere.
        """
        gains = self.pathloss.gain_tensor(config.tilts(),
                                           config.azimuth_offsets())
        powers = config.powers()[:, None, None]
        rp = powers + gains
        inactive = ~config.active_mask()
        if inactive.any():
            rp = rp.copy()
            rp[inactive] = -np.inf
        return rp

    @staticmethod
    def _shared_load(serving: np.ndarray, ue_density: np.ndarray) -> np.ndarray:
        """Formula 3: ``N(g)`` = UEs attached to grid g's serving sector."""
        served = serving >= 0
        if served.all():
            # Fast path: every cell served, so the masked gather is
            # the identity.  bincount visits the same weights in the
            # same flat order, so the loads (and the gathered n_ue)
            # are bitwise identical to the masked branch.
            flat_serving = serving.ravel()
            loads = np.bincount(flat_serving,
                                weights=ue_density.ravel())
            return loads[flat_serving].reshape(serving.shape)
        n_ue = np.zeros(serving.shape)
        if not served.any():
            return n_ue
        flat_serving = serving[served]
        loads = np.bincount(flat_serving,
                            weights=ue_density[served])
        n_ue[served] = loads[flat_serving]
        return n_ue

    def _shared_load_batch(self, serving: np.ndarray,
                           ue_density: np.ndarray) -> np.ndarray:
        """Formula 3 across the batch axis via one offset bincount."""
        k = serving.shape[0]
        n_sectors = self.pathloss.network.n_sectors
        n_ue = np.zeros(serving.shape)
        served = serving >= 0
        if not served.any():
            return n_ue
        offsets = (np.arange(k, dtype=np.int64)
                   * n_sectors)[:, None, None]
        flat_ids = (serving + offsets)[served]
        weights = np.broadcast_to(ue_density, serving.shape)[served]
        loads = np.bincount(flat_ids, weights=weights,
                            minlength=k * n_sectors)
        n_ue[served] = loads[flat_ids]
        return n_ue


def _accumulate_planes(planes: np.ndarray,
                       box: Optional[Box] = None) -> np.ndarray:
    """Total received power: the plane stack summed over sectors.

    Explicitly sequential (``total += planes[s]`` in sector order)
    rather than ``planes.sum(axis=0)``: NumPy's reduction order over a
    strided axis depends on the inner extent, so a *sliced* stack sum
    is not bitwise-stable against the full-grid one (observed on
    width-1 windows).  A fixed accumulation order makes the total
    decomposable by construction — summing inside a window slice
    yields exactly the full total's window — which is what lets the
    windowed delta reuse the incumbent's total outside the ROI.  On
    any grid with more than one cell NumPy's own axis-0 reduction is
    element-sequential too, so this matches the historical
    ``planes.sum(axis=0)`` bit for bit (planes are non-negative, so
    starting from +0.0 is exact).
    """
    if box is None:
        view = planes
    else:
        r0, r1, c0, c1 = box
        view = planes[:, r0:r1, c0:c1]
    total = np.zeros(view.shape[1:], dtype=planes.dtype)
    for s in range(view.shape[0]):
        np.add(total, view[s], out=total)
    return total


def _dbm_to_mw_scalar(dbm: float) -> float:
    return float(10.0 ** (float(dbm) / 10.0))


def _dbm_to_mw(dbm: np.ndarray) -> np.ndarray:
    """dBm -> milliwatts, mapping -inf to exactly 0."""
    with np.errstate(over="ignore"):
        mw = np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)
    return np.where(np.isneginf(dbm), 0.0, mw)
