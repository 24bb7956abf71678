"""Tests for the caching layers (in-process memo + on-disk family cache)."""

from repro import perf
from repro.cache import (
    LRUMemo,
    cache_dir,
    clear_disk_cache,
    load_family,
    model_schema_hash,
    store_family,
)
from repro.device import nfet


class TestLRUMemo:
    def test_hit_and_miss_counters(self):
        memo = LRUMemo("testmemo", maxsize=4)
        perf.reset()
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert perf.get("cache.testmemo.misses") == 1
        assert perf.get("cache.testmemo.hits") == 1

    def test_eviction_is_lru(self):
        memo = LRUMemo("testmemo", maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1          # touch 'a' so 'b' is LRU
        memo.put("c", 3)
        assert memo.get("b") is None
        assert memo.get("a") == 1
        assert len(memo) == 2

    def test_clear(self):
        memo = LRUMemo("testmemo")
        memo.put("a", 1)
        memo.clear()
        assert memo.get("a") is None


class TestDeviceMemo:
    """Every build is a fresh device that reads the calibration globals."""

    PARAMS = dict(l_poly_nm=63, t_ox_nm=2.1, n_sub_cm3=1.31e18,
                  n_p_halo_cm3=1.7e18)

    def test_different_parameters_differ(self):
        other = dict(self.PARAMS, n_sub_cm3=1.32e18)
        assert nfet(**self.PARAMS) is not nfet(**other)

    def test_calibration_override_bypasses_stale_entries(self):
        from repro.scaling.sensitivity import calibration
        base = nfet(**self.PARAMS)
        with calibration(sce_prefactor=11.0):
            harsher = nfet(**self.PARAMS)
        assert harsher.ss_v_per_dec > base.ss_v_per_dec


class TestDiskCache:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_dir() is None
        assert load_family("family-super-vth") is None

    def test_round_trip(self, monkeypatch, tmp_path, super_family):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        perf.reset()
        assert load_family("family-test") is None        # cold: miss
        store_family("family-test", super_family)
        reloaded = load_family("family-test")            # warm: hit
        assert reloaded is not None
        assert reloaded.node_names() == super_family.node_names()
        original = super_family.design("32nm").nfet
        round_tripped = reloaded.design("32nm").nfet
        assert round_tripped.profile.n_sub_cm3 == original.profile.n_sub_cm3
        assert perf.get("cache.family.misses") == 1
        assert perf.get("cache.family.hits") == 1

    def test_schema_hash_versions_entries(self, monkeypatch, tmp_path,
                                          super_family):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store_family("family-test", super_family)
        # A model change re-hashes the sources and misses the old entry.
        import repro.cache as cache_mod
        monkeypatch.setattr(cache_mod, "_SCHEMA_HASH", "deadbeefdeadbeef")
        assert load_family("family-test") is None

    def test_clear_disk_cache(self, monkeypatch, tmp_path, super_family):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store_family("family-test", super_family)
        assert clear_disk_cache() == 1
        assert load_family("family-test") is None

    def test_schema_hash_is_stable(self):
        assert model_schema_hash() == model_schema_hash()
        assert len(model_schema_hash()) == 16
