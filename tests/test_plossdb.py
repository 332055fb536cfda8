"""The packed tilt-major path-loss store and on-disk format (PR 7).

Three layers: the in-memory :class:`PackedGainStore` (float32 parity
with the dict-of-rasters path, off-ladder fallback quantization, the
vectorized ``validate()`` sweep), the ``magus.plossdb/1`` on-disk
format (byte-identical round trips, streamed builds, actionable errors
for bad magic / version drift / truncation / interrupted builds), and
the loaded memory-mapped database as a drop-in engine backend (full vs
delta parity, process-pool scoring over spilled plane files).
"""

from __future__ import annotations

import glob
import json
import os
import tempfile

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.planning import PlanningSettings
from repro.core.utility import PerformanceUtility
from repro.model.engine import AnalysisEngine
from repro.model.pathloss import (DEFAULT_CLIP_FLOOR_DB,
                                  DEFAULT_PROFILE_CACHE_SIZE,
                                  PathLossDatabase)
from repro.model.plossdb import (FORMAT_NAME, FORMAT_VERSION, MAGIC,
                                 PackedDatabaseWriter, PackedGainStore,
                                 default_tilt_values, load_packed,
                                 pack_database, read_header, save_packed,
                                 stream_database, verify_sections)
from repro.model.propagation import Environment
from repro.parallel import EvaluationService
from repro.synthetic.market import AreaDimensions, build_area
from repro.synthetic.placement import AreaType


def _packed_clone(db: PathLossDatabase) -> PathLossDatabase:
    """A second database over the same rasters, with a packed store."""
    clone = PathLossDatabase(db.grid, db.network, db._rasters,
                             db.tilt_model, validate=False)
    clone.attach_packed(pack_database(clone))
    return clone


def _rotating_assignments(ladder, n_sectors):
    return [np.array([ladder[(j + s) % len(ladder)]
                      for s in range(n_sectors)])
            for j in range(len(ladder))]


@pytest.fixture
def packed_db(toy_pathloss) -> PathLossDatabase:
    return _packed_clone(toy_pathloss)


# ----------------------------------------------------------------------
class TestPackedStore:
    def test_tensor_matches_quantized_dict(self, toy_pathloss, packed_db):
        """Packed gathers == float32-quantized dict recomputation."""
        ladder = packed_db.packed_store.tilt_values
        assert ladder == default_tilt_values(toy_pathloss.network)
        for tilts in _rotating_assignments(ladder,
                                           toy_pathloss.network.n_sectors):
            want = np.power(10.0, toy_pathloss.gain_tensor(tilts) / 10.0
                            ).astype(np.float32)
            got = packed_db.gain_tensor_mw(tilts)
            assert got.dtype == np.float32
            assert not got.flags.writeable
            assert np.array_equal(got, want)

    def test_row_view_matches_gather(self, packed_db):
        ladder = packed_db.packed_store.tilt_values
        n = packed_db.network.n_sectors
        tilts = np.array([ladder[s % len(ladder)] for s in range(n)])
        stack = packed_db.gain_tensor_mw(tilts)
        for s in range(n):
            assert np.array_equal(stack[s],
                                  packed_db.gain_matrix_mw(s, tilts[s]))

    def test_off_ladder_fallback_is_quantized(self, packed_db):
        """Off-grid tilts recompute but still emit float32 planes."""
        assert 2.5 not in packed_db.packed_store.tilt_values
        row = packed_db.gain_matrix_mw(0, 2.5)
        assert row.dtype == np.float32
        want = np.power(10.0, packed_db.gain_matrix(0, 2.5) / 10.0
                        ).astype(np.float32)
        assert np.array_equal(row, want)
        # A mixed assignment (one off-ladder tilt) falls back as a whole
        # but stays float32 so delta incumbents remain comparable.
        n = packed_db.network.n_sectors
        tilts = np.full(n, packed_db.packed_store.tilt_values[0])
        tilts[0] = 2.5
        assert packed_db.gain_tensor_mw(tilts).dtype == np.float32

    def test_azimuth_offset_bypasses_store(self, packed_db):
        plain = packed_db.gain_matrix_mw(0, 4.0)
        rotated = packed_db.gain_matrix_mw(0, 4.0,
                                           azimuth_offset_deg=30.0)
        assert rotated.dtype == np.float32
        assert not np.array_equal(plain, rotated)

    def test_attach_rejects_shape_mismatch(self, toy_pathloss):
        db = PathLossDatabase(toy_pathloss.grid, toy_pathloss.network,
                              toy_pathloss._rasters, validate=False)
        n = db.network.n_sectors
        H, W = db.grid.shape
        wrong_sectors = PackedGainStore(
            np.ones((n + 1, 2, H, W), np.float32), (2.0, 4.0))
        with pytest.raises(ValueError, match="sectors"):
            db.attach_packed(wrong_sectors)
        wrong_grid = PackedGainStore(
            np.ones((n, 2, H + 1, W), np.float32), (2.0, 4.0))
        with pytest.raises(ValueError, match="grid"):
            db.attach_packed(wrong_grid)

    def test_validate_names_bad_packed_sector(self, toy_pathloss):
        """The vectorized sweep reports which sector blocks are bad."""
        db = PathLossDatabase(toy_pathloss.grid, toy_pathloss.network,
                              toy_pathloss._rasters, validate=False)
        base = pack_database(db)
        gains = np.array(base.gains_mw)          # writable copy
        gains[1, 0, 0, 0] = np.nan
        db.attach_packed(PackedGainStore(gains, base.tilt_values))
        with pytest.raises(ValueError, match=r"sectors \[1\]"):
            db.validate()

    def test_invalidate_detaches_packed_store(self, packed_db):
        epoch = packed_db.cache_epoch
        packed_db.invalidate_caches()
        assert packed_db.packed_store is None
        assert packed_db.cache_epoch == epoch + 1
        # Recomputed planes must stay comparable with existing float32
        # state, so the plane dtype survives the detach.
        assert packed_db.plane_dtype == np.float32
        assert packed_db.gain_matrix_mw(0, 4.0).dtype == np.float32

    def test_shared_profile_cache_is_bounded(self, toy_grid, toy_network):
        db = PathLossDatabase.from_environment(
            toy_network, Environment.flat(toy_grid),
            shadowing_sigma_db=0.0, seed=0, tilt_model="shared-delta")
        for tilt in np.linspace(0.0, 8.0, DEFAULT_PROFILE_CACHE_SIZE * 3):
            db.gain_matrix(0, float(tilt))
        assert len(db._shared_profiles) <= DEFAULT_PROFILE_CACHE_SIZE
        db.invalidate_caches()
        assert len(db._shared_profiles) == 0


# ----------------------------------------------------------------------
class TestOnDiskFormat:
    def test_save_and_stream_are_byte_identical(self, tmp_path, toy_grid,
                                                toy_network, toy_pathloss):
        """Two saves agree, and the streamed builder produces the very
        same bytes as packing the in-memory database (same helpers,
        same seeds)."""
        a, b, c = (tmp_path / n for n in ("a.plossdb", "b.plossdb",
                                          "c.plossdb"))
        save_packed(toy_pathloss, a)
        save_packed(toy_pathloss, b)
        assert a.read_bytes() == b.read_bytes()
        stream_database(c, toy_network, Environment.flat(toy_grid),
                        shadowing_sigma_db=0.0, seed=0)
        assert c.read_bytes() == a.read_bytes()

    def test_header_carries_identity(self, tmp_path, toy_pathloss):
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        header = read_header(path)
        assert header["format"] == FORMAT_NAME
        assert header["version"] == FORMAT_VERSION
        assert header["n_sectors"] == toy_pathloss.network.n_sectors
        assert tuple(header["tilt_values"]) == default_tilt_values(
            toy_pathloss.network)
        assert header["file_bytes"] == os.path.getsize(path)

    def test_bad_magic_is_actionable(self, tmp_path):
        path = tmp_path / "junk.plossdb"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            read_header(path)

    def test_version_mismatch_is_actionable(self, tmp_path):
        path = tmp_path / "future.plossdb"
        future = FORMAT_VERSION + 1
        raw = json.dumps({"format": FORMAT_NAME,
                          "version": future}).encode()
        path.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw)
        with pytest.raises(ValueError, match=f"version {future}"):
            read_header(path)

    def test_truncated_file_is_actionable(self, tmp_path, toy_pathloss):
        path = tmp_path / "cut.plossdb"
        save_packed(toy_pathloss, path)
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(ValueError, match="re-run the pack"):
            read_header(path)

    def test_interrupted_build_fails_loudly(self, tmp_path, toy_pathloss):
        """A build that dies mid-stream leaves a headerless file that
        no loader will silently accept."""
        path = tmp_path / "dead.plossdb"
        ladder = default_tilt_values(toy_pathloss.network)
        H, W = toy_pathloss.grid.shape
        with pytest.raises(RuntimeError, match="power cut"):
            with PackedDatabaseWriter(path, toy_pathloss.grid,
                                      toy_pathloss.network,
                                      ladder) as writer:
                planes = np.ones((len(ladder), H, W), np.float32)
                writer.write_sector(0, toy_pathloss._rasters[0], planes)
                raise RuntimeError("power cut")
        assert path.exists()
        with pytest.raises(ValueError, match="bad magic"):
            read_header(path)
        with pytest.raises(ValueError):
            load_packed(path)

    def test_incomplete_close_is_rejected(self, tmp_path, toy_pathloss):
        path = tmp_path / "partial.plossdb"
        writer = PackedDatabaseWriter(path, toy_pathloss.grid,
                                      toy_pathloss.network,
                                      default_tilt_values(
                                          toy_pathloss.network))
        try:
            with pytest.raises(ValueError, match="sector"):
                writer.close()
        finally:
            writer.abort()


# ----------------------------------------------------------------------
class TestLoadedDatabase:
    @pytest.fixture
    def loaded(self, tmp_path, toy_pathloss) -> PathLossDatabase:
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        return load_packed(path)

    def test_loaded_matches_in_memory_pack(self, toy_pathloss, packed_db,
                                           loaded):
        assert loaded.is_file_backed
        assert loaded.plane_dtype == np.float32
        ladder = loaded.packed_store.tilt_values
        for tilts in _rotating_assignments(ladder,
                                           loaded.network.n_sectors):
            assert np.array_equal(loaded.gain_tensor_mw(tilts),
                                  packed_db.gain_tensor_mw(tilts))

    def test_full_delta_parity_on_mmap(self, loaded, toy_density):
        engine = AnalysisEngine(loaded)
        network = loaded.network
        base = network.planned_configuration()
        _, incumbent = engine.evaluate_with_incumbent(base, toy_density)
        for trial in (base.with_power(0, 38.0),
                      base.with_tilt(1, 6.0),
                      base.with_power(2, 30.0)):
            full = engine.evaluate(trial, toy_density)
            delta, _ = engine.evaluate_delta(incumbent, trial,
                                             toy_density)
            assert np.array_equal(full.serving, delta.serving)
            assert np.array_equal(full.sinr_db, delta.sinr_db)
            assert np.array_equal(full.rate_bps, delta.rate_bps)

    def test_parallel_scoring_on_mmap_matches_serial(self, loaded,
                                                     toy_density):
        """On a file-backed engine the pool's scores are bitwise equal
        to the serial kernel's, and scoring writes no temp plane file
        (workers share the baseline rasters through /dev/shm)."""
        pattern = os.path.join(tempfile.gettempdir(), "magus-planes-*")
        before = set(glob.glob(pattern))
        engine = AnalysisEngine(loaded)
        network = loaded.network
        base = network.planned_configuration()
        candidates = [base.with_power(s, p) for s in range(3)
                      for p in (30.0, 33.0, 38.0)]
        serial = Evaluator(engine, toy_density, PerformanceUtility(),
                           strategy="delta")
        serial.utility_of(base)
        want = serial.score_candidates(candidates)
        _, incumbent = engine.evaluate_with_incumbent(base, toy_density)
        with EvaluationService(engine, toy_density, PerformanceUtility(),
                               workers=2,
                               min_parallel_batch=2) as service:
            got = service.score_batch(incumbent, candidates)
            assert service.running
            assert set(glob.glob(pattern)) == before
        assert got == want
        assert set(glob.glob(pattern)) == before


# ----------------------------------------------------------------------
class TestMarketIntegration:
    DIMS = AreaDimensions(tuning_side_m=1_600.0, margin_m=800.0,
                          cell_size_m=200.0)

    def test_build_area_packed_backend(self):
        area = build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                          planning=PlanningSettings(max_passes=0),
                          pathloss_backend="packed")
        assert area.pathloss.packed_store is not None
        assert not area.pathloss.is_file_backed
        assert np.isfinite(area.baseline.rate_bps[
            area.baseline.serving >= 0]).all()

    def test_build_area_plossdb_roundtrip(self, tmp_path):
        path = str(tmp_path / "area.plossdb")
        first = build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                           planning=PlanningSettings(max_passes=0),
                           plossdb=path)
        assert first.pathloss.is_file_backed
        assert os.path.exists(path)
        # Second build memory-maps the existing file.
        again = build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                           planning=PlanningSettings(max_passes=0),
                           plossdb=path)
        assert again.pathloss.is_file_backed
        assert np.array_equal(first.baseline.sinr_db,
                              again.baseline.sinr_db)

    def test_build_area_plossdb_mismatch_guard(self, tmp_path):
        path = str(tmp_path / "area.plossdb")
        build_area(AreaType.SUBURBAN, seed=42, dims=self.DIMS,
                   planning=PlanningSettings(max_passes=0), plossdb=path)
        with pytest.raises(ValueError, match="different network"):
            build_area(AreaType.SUBURBAN, seed=43, dims=self.DIMS,
                       planning=PlanningSettings(max_passes=0),
                       plossdb=path)


# ----------------------------------------------------------------------
def _downgrade_to_v2(path) -> None:
    """Rewrite a v3 file's header as a pre-ROI v2 header in place.

    The roi section and clip floor disappear from the header (the
    section's bytes become dead padding); offsets and checksums of the
    remaining sections are untouched, so the result is exactly what an
    older build would read.
    """
    preamble = len(MAGIC) + 8
    with open(path, "r+b") as fh:
        head = fh.read(preamble)
        header_len = int.from_bytes(head[len(MAGIC):], "little")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        header["version"] = 2
        header.pop("clip_floor_db", None)
        header["sections"].pop("roi", None)
        raw = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
        assert len(raw) <= header_len
        fh.seek(len(MAGIC))
        fh.write(len(raw).to_bytes(8, "little"))
        fh.write(raw + b"\x00" * (header_len - len(raw)))


class TestRoiFormat:
    """The v3 ROI sidecar: persisted boxes, legacy files, sparsity."""

    def test_v3_header_and_roi_section(self, tmp_path, toy_pathloss):
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        header = read_header(path)
        assert header["version"] == 3
        assert header["clip_floor_db"] == DEFAULT_CLIP_FLOOR_DB
        spec = header["sections"]["roi"]
        assert spec["shape"] == [header["n_sectors"],
                                 header["n_tilts"], 4]
        assert "roi" in verify_sections(path, header)
        loaded = load_packed(path)
        assert loaded.packed_store.has_footprints
        assert loaded.clip_floor_db == DEFAULT_CLIP_FLOOR_DB

    def test_clip_floor_none_is_persisted(self, tmp_path, toy_pathloss):
        path = tmp_path / "raw.plossdb"
        save_packed(toy_pathloss, path, clip_floor_db=None)
        assert read_header(path)["clip_floor_db"] is None
        assert load_packed(path).clip_floor_db is None

    def test_v2_file_still_loads(self, tmp_path, toy_pathloss):
        new, old = tmp_path / "v3.plossdb", tmp_path / "v2.plossdb"
        save_packed(toy_pathloss, new)
        save_packed(toy_pathloss, old)
        _downgrade_to_v2(old)
        assert read_header(old)["version"] == 2
        legacy = load_packed(old)
        assert not legacy.packed_store.has_footprints
        assert legacy.clip_floor_db is None
        current = load_packed(new)
        assert np.array_equal(np.asarray(legacy.packed_store.gains_mw),
                              np.asarray(current.packed_store.gains_mw))
        # Lazy boxes still bound the nonzero cells exactly, so the
        # windowed engine stays *correct* on legacy files (just not
        # pre-sparsified).
        box = legacy.packed_store.footprint(0, 0)
        plane = np.asarray(legacy.packed_store.row(0, 0))
        rows, cols = np.nonzero(plane)
        assert box == (int(rows.min()), int(rows.max()) + 1,
                       int(cols.min()), int(cols.max()) + 1)

    def test_validate_reports_sparsity(self, toy_grid, toy_network):
        db = PathLossDatabase.from_environment(
            toy_network, Environment.flat(toy_grid),
            shadowing_sigma_db=0.0, seed=0, clip_floor_db=-110.0)
        db.attach_packed(pack_database(db))      # inherits the floor
        report = db.validate()
        assert report["clip_floor_db"] == -110.0
        assert 0.0 < report["mean_footprint_ratio"] \
            <= report["max_footprint_ratio"] < 1.0
        ratios = report["per_sector_footprint_ratio"]
        assert len(ratios) == toy_network.n_sectors
        assert all(0.0 < r <= 1.0 for r in ratios)

    def test_validate_dict_backend_returns_none(self, toy_pathloss):
        assert toy_pathloss.validate() is None

    def test_pack_database_inherits_floor(self, toy_grid, toy_network,
                                          toy_pathloss):
        assert (pack_database(toy_pathloss).clip_floor_db
                == DEFAULT_CLIP_FLOOR_DB)
        clipped = PathLossDatabase.from_environment(
            toy_network, Environment.flat(toy_grid),
            shadowing_sigma_db=0.0, seed=0, clip_floor_db=-110.0)
        assert pack_database(clipped).clip_floor_db == -110.0
