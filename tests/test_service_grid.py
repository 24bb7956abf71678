"""Determinism, spill and reload of the precomputed metric grids.

The sharding contract under test: a shard is a pure function of
(spec, node, L ratio) because every shard starts from
``reset_warm_starts()``, so ``build_grid`` produces **byte-identical**
tensors for any ``--jobs`` value.  The spill contract: grids land in
the disk cache keyed by (axes digest, model schema hash), so a model
edit silently orphans stale tensors and ``load_grid`` reports a miss
instead of serving physics from an older revision.
"""

import numpy as np
import pytest

from repro import cache as cache_mod
from repro import perf
from repro.cache import grid_path
from repro.errors import ParameterError
from repro.service import GridSpec, build_grid, load_grid, store_grid
from repro.scaling.roadmap import node_by_name
from repro.service.contract import ALL_METRICS, DESIGN_METRICS, VDD_METRICS
from repro.service.exact import _snm_mv, exact_design

#: Smallest legal spec: 2 shards, 2 targets, 2 supplies (one node).
MICRO = GridSpec(nodes=("65nm",), l_ratios=(1.5, 2.0),
                 log10_ioff=(-10.5, -10.0), vdd_v=(0.25, 0.30))


@pytest.fixture(scope="module")
def micro_grid():
    return build_grid(MICRO)


class TestSpecValidation:
    def test_needs_a_node(self):
        with pytest.raises(ParameterError, match="at least one node"):
            GridSpec(nodes=(), l_ratios=(1.0, 2.0),
                     log10_ioff=(-11.0, -10.0), vdd_v=(0.2, 0.3))

    def test_axes_need_two_points(self):
        with pytest.raises(ParameterError, match="l_ratios"):
            GridSpec(nodes=("65nm",), l_ratios=(1.5,),
                     log10_ioff=(-11.0, -10.0), vdd_v=(0.2, 0.3))

    def test_axes_strictly_increasing(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            GridSpec(nodes=("65nm",), l_ratios=(2.0, 1.5),
                     log10_ioff=(-11.0, -10.0), vdd_v=(0.2, 0.3))

    def test_no_sub_unity_length_ratio(self):
        with pytest.raises(ParameterError, match="etched length"):
            GridSpec(nodes=("65nm",), l_ratios=(0.9, 2.0),
                     log10_ioff=(-11.0, -10.0), vdd_v=(0.2, 0.3))

    def test_vdd_positive(self):
        with pytest.raises(ParameterError, match="positive"):
            GridSpec(nodes=("65nm",), l_ratios=(1.5, 2.0),
                     log10_ioff=(-11.0, -10.0), vdd_v=(-0.1, 0.3))

    def test_grid_id_is_a_pure_axes_digest(self):
        same = GridSpec(nodes=("65nm",), l_ratios=(1.5, 2.0),
                        log10_ioff=(-10.5, -10.0), vdd_v=(0.25, 0.30))
        other = GridSpec(nodes=("65nm",), l_ratios=(1.5, 2.0),
                         log10_ioff=(-10.5, -10.0), vdd_v=(0.25, 0.35))
        assert same.grid_id() == MICRO.grid_id()
        assert other.grid_id() != MICRO.grid_id()

    def test_meta_round_trip_is_bitwise(self):
        again = GridSpec.from_meta(MICRO.to_meta())
        assert again == MICRO
        assert again.grid_id() == MICRO.grid_id()


class TestBuild:
    def test_shapes_and_finiteness(self, micro_grid):
        assert MICRO.shape == (1, 2, 2, 2)
        for metric in VDD_METRICS:
            assert micro_grid.tensors[metric].shape == (1, 2, 2, 2)
        for metric in DESIGN_METRICS:
            assert micro_grid.tensors[metric].shape == (1, 2, 2)
        # This window sits well inside the feasible region: every
        # metric must fill (NaN here would mean a solver regression).
        for metric in ALL_METRICS:
            assert np.isfinite(micro_grid.tensors[metric]).all(), metric

    def test_sharded_build_is_byte_identical(self, micro_grid):
        """The determinism contract: --jobs 2 equals --jobs 1 bitwise
        (each shard resets its warm starts; assembly is spec-ordered)."""
        perf.reset()
        sharded = build_grid(MICRO, jobs=2)
        for metric in ALL_METRICS:
            assert (sharded.tensors[metric].tobytes()
                    == micro_grid.tensors[metric].tobytes()), metric
        counts = perf.snapshot()
        assert counts["service.grid.shards"] == 2
        assert counts["service.grid.points"] == 8

    def test_shard_snm_is_bitwise_the_exact_tier(self, micro_grid):
        """The shard's one stacked SNM extraction gives every cell the
        bits of the exact tier's one-design helper."""
        node = node_by_name("65nm")
        for i, ratio in enumerate(MICRO.l_ratios):
            for j, log_t in enumerate(MICRO.log10_ioff):
                design = exact_design(node, ratio * node.l_poly_nm,
                                      10.0 ** log_t)
                for k, vdd in enumerate(MICRO.vdd_v):
                    cell = micro_grid.tensors["snm_mv"][0, i, j, k]
                    assert cell == _snm_mv(design, vdd), (i, j, k)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ParameterError, match="jobs"):
            build_grid(MICRO, jobs=0)


class TestSpill:
    def test_store_load_round_trip(self, micro_grid, monkeypatch,
                                   tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        micro_grid.error_bounds_rel = {m: 1e-4 for m in ALL_METRICS}
        path = store_grid(micro_grid)
        assert path is not None and path.exists()
        assert path.name.startswith(f"grid-{MICRO.grid_id()}-")
        loaded = load_grid(MICRO)
        assert loaded is not None
        assert loaded.spec == MICRO
        assert loaded.schema_hash == micro_grid.schema_hash
        assert loaded.error_bounds_rel == micro_grid.error_bounds_rel
        for metric in ALL_METRICS:
            assert (loaded.tensors[metric].tobytes()
                    == micro_grid.tensors[metric].tobytes()), metric

    def test_schema_hash_change_orphans_the_grid(self, micro_grid,
                                                 monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert store_grid(micro_grid) is not None
        assert load_grid(MICRO) is not None
        # A model-source edit changes the hash: the old file's name no
        # longer matches, so the load is a miss, never a stale answer.
        monkeypatch.setattr(cache_mod, "_SCHEMA_HASH",
                            "deadbeefdeadbeef")
        assert load_grid(MICRO) is None

    def test_corrupt_spill_is_a_miss(self, micro_grid, monkeypatch,
                                     tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store_grid(micro_grid)
        grid_path(MICRO.grid_id()).write_bytes(b"not an npz")
        assert load_grid(MICRO) is None

    def test_noop_when_cache_disabled(self, micro_grid, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert store_grid(micro_grid) is None
        assert load_grid(MICRO) is None
