"""Artifact-cache tests: hit/miss, corruption tolerance, restart skip (PR 7).

Covers the persistent compiled-artifact store (``repro.cache``): factor /
level-schedule payload roundtrips, version-mismatch and
corrupt-file degradation (recompute, never crash), the dispatcher's warm-up
counters, and — via subprocesses — a restarted process skipping
factorization-adjacent recomputation.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.cache as cache
from repro.matgen.poisson import poisson2d
from repro.matgen.random_matrices import random_spd
from repro.precond.ilu0 import ilu0_factor
from repro.sparse.triangular import TriangularFactor, clear_levels_memo, compute_levels

pytestmark = pytest.mark.tier1

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


@pytest.fixture
def artifacts(tmp_path):
    """Point the artifact store at a temp dir; restore and reset afterwards."""
    old = cache.set_artifacts_dir(str(tmp_path / "artifacts"))
    cache.reset_cold_start_stats()
    clear_levels_memo()
    try:
        yield tmp_path / "artifacts"
    finally:
        cache.set_artifacts_dir(old)
        cache.reset_cold_start_stats()
        clear_levels_memo()


def _subprocess_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env.pop("REPRO_ARTIFACTS", None)
    env.update(extra)
    return env


class TestStorePrimitives:
    def test_disabled_store_is_inert(self):
        old = cache.set_artifacts_dir("")
        try:
            assert not cache.artifacts_enabled()
            assert cache.load_arrays("ilu0", "abc") is None
            assert not cache.store_arrays("ilu0", "abc", {"x": np.arange(3)})
        finally:
            cache.set_artifacts_dir(old)

    def test_roundtrip_and_counters(self, artifacts):
        key = cache.artifact_key("levels", 7, np.arange(4), 1.5)
        assert cache.load_arrays("levels", key) is None      # miss
        assert cache.store_arrays("levels", key,
                                  {"rows": np.arange(5, dtype=np.int32)},
                                  cost_ms=12.5)
        loaded = cache.load_arrays("levels", key)
        assert loaded is not None
        assert np.array_equal(loaded["rows"], np.arange(5, dtype=np.int32))
        stats = cache.cold_start_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["errors"] == 0
        assert stats["saved_ms"] == pytest.approx(12.5)
        assert stats["by_kind"]["levels"]["hits"] == 1

    def test_key_distinguishes_dtype_and_content(self):
        a = cache.artifact_key("k", np.arange(4, dtype=np.int32))
        b = cache.artifact_key("k", np.arange(4, dtype=np.int64))
        c = cache.artifact_key("k", np.arange(5, dtype=np.int32))
        assert len({a, b, c}) == 3

    def test_corrupt_file_degrades_to_miss(self, artifacts):
        key = cache.artifact_key("junk")
        cache.store_arrays("ilu0", key, {"x": np.arange(3)})
        path = artifacts / "ilu0" / (key + ".npz")
        path.write_bytes(b"this is not a zip file")
        assert cache.load_arrays("ilu0", key) is None
        stats = cache.cold_start_stats()
        assert stats["errors"] == 1 and stats["misses"] == 1

    def test_truncated_file_degrades_to_miss(self, artifacts):
        key = cache.artifact_key("trunc")
        cache.store_arrays("ilu0", key, {"x": np.arange(100)})
        path = artifacts / "ilu0" / (key + ".npz")
        path.write_bytes(path.read_bytes()[:40])
        assert cache.load_arrays("ilu0", key) is None

    def test_version_mismatch_degrades_to_miss(self, artifacts):
        key = cache.artifact_key("ver")
        directory = artifacts / "ilu0"
        directory.mkdir(parents=True)
        np.savez(directory / (key + ".npz"),
                 __version__=np.array([cache.ARTIFACT_VERSION + 1]),
                 __cost_ms__=np.array([1.0]),
                 x=np.arange(3))
        assert cache.load_arrays("ilu0", key) is None
        assert cache.cold_start_stats()["errors"] == 1

    def test_unwritable_dir_is_nonfatal(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        old = cache.set_artifacts_dir(str(target))
        try:
            assert not cache.store_arrays("ilu0", "k", {"x": np.arange(2)})
        finally:
            cache.set_artifacts_dir(old)


class TestFactorAndLevelArtifacts:
    def test_ilu0_factors_bit_identical_across_cache(self, artifacts):
        A = random_spd(500, seed=3)
        L1, U1 = ilu0_factor(A, alpha=1.1)
        assert cache.cold_start_stats()["by_kind"]["ilu0"]["stores"] == 1
        L2, U2 = ilu0_factor(A, alpha=1.1)
        assert cache.cold_start_stats()["by_kind"]["ilu0"]["hits"] == 1
        for X, Y in ((L1, L2), (U1, U2)):
            assert np.array_equal(X.values, Y.values)
            assert np.array_equal(X.indices, Y.indices)
            assert np.array_equal(X.indptr, Y.indptr)

    def test_ilu0_alpha_is_part_of_the_key(self, artifacts):
        A = random_spd(300, seed=4)
        _, U1 = ilu0_factor(A, alpha=1.0)
        _, U2 = ilu0_factor(A, alpha=2.0)
        assert not np.array_equal(U1.values, U2.values)
        assert cache.cold_start_stats()["by_kind"]["ilu0"]["hits"] == 0

    def test_corrupt_factor_payload_recomputes(self, artifacts):
        A = random_spd(300, seed=5)
        L1, _ = ilu0_factor(A)
        for path in (artifacts / "ilu0").glob("*.npz"):
            path.write_bytes(b"garbage")
        L2, _ = ilu0_factor(A)
        assert np.array_equal(L1.values, L2.values)

    def test_level_schedule_roundtrip(self, artifacts):
        A = poisson2d(30)
        lower, _ = ilu0_factor(A)
        ref = [lvl.copy() for lvl in
               compute_levels(lower.indices, lower.indptr, lower=True)]
        clear_levels_memo()
        again = compute_levels(lower.indices, lower.indptr, lower=True)
        assert cache.cold_start_stats()["by_kind"]["levels"]["hits"] >= 1
        assert len(again) == len(ref)
        for a, b in zip(again, ref):
            assert a.dtype == np.int32
            assert np.array_equal(a, b)

    def test_levels_memo_dedups_without_artifacts(self):
        old = cache.set_artifacts_dir("")
        clear_levels_memo()
        try:
            A = poisson2d(25)
            lower, _ = ilu0_factor(A)
            first = compute_levels(lower.indices, lower.indptr, lower=True)
            second = compute_levels(lower.indices, lower.indptr, lower=True)
            assert all(np.array_equal(a, b) for a, b in zip(first, second))
            factor = TriangularFactor(lower, lower=True, unit_diagonal=True)
            assert all(np.array_equal(a, b)
                       for a, b in zip(factor.levels, first))
        finally:
            cache.set_artifacts_dir(old)
            clear_levels_memo()


class TestDispatcherColdStart:
    def test_prewarm_and_summary_counters(self, artifacts):
        from repro.serve.dispatcher import BatchDispatcher

        mats = [random_spd(400, seed=s) for s in range(2)]
        rng = np.random.default_rng(0)
        with BatchDispatcher(max_batch=2, cache_size=2, max_workers=2) as d:
            d.prewarm(mats)
            cold = d.stats.summary()["cold_start"]
            assert cold["prewarms"] == 2
            assert cold["artifacts"]["stores"] > 0
            # prewarmed setups are cache hits for the first real batch
            f = d.submit(mats[0], rng.standard_normal(400))
            d.drain()
            f.result()
            assert d.stats.cache_hits >= 1
            assert d.stats.cache_misses == 2          # the prewarm builds

    def test_prewarm_after_close_raises(self, artifacts):
        from repro.serve.dispatcher import BatchDispatcher, DispatcherClosed

        d = BatchDispatcher()
        d.close()
        with pytest.raises(DispatcherClosed):
            d.prewarm([random_spd(100, seed=0)])

    def test_opportunistic_warmup_of_evicted_fingerprint(self, artifacts):
        import time

        from repro.serve.dispatcher import BatchDispatcher

        mats = [random_spd(300, seed=s) for s in range(3)]
        rng = np.random.default_rng(1)
        with BatchDispatcher(max_batch=8, cache_size=1, max_workers=2) as d:
            for m in mats:
                d.submit(m, rng.standard_normal(300))
            d.drain()                      # builds 3, evicts at least 2
            d.submit(mats[0], rng.standard_normal(300))
            deadline = time.monotonic() + 5.0
            while (d.stats.opportunistic_warmups == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            d.drain()
            assert d.stats.summary()["cold_start"]["opportunistic_warmups"] >= 1


class TestRestartSkipsRecompute:
    CHILD = textwrap.dedent("""
        import json, sys
        import numpy as np
        import repro.cache as cache
        from repro.matgen.poisson import poisson2d
        from repro.precond.block_jacobi import BlockJacobiIC0

        bj = BlockJacobiIC0(poisson2d(40), nblocks=4)
        digest = 0.0
        for block in bj._blocks:
            digest += float(np.abs(block._lower.off_vals).sum())
            digest += sum(int(lvl.sum()) for lvl in block._lower.levels)
        stats = cache.cold_start_stats()
        print(json.dumps({"digest": repr(digest),
                          "hits": stats["hits"],
                          "misses": stats["misses"],
                          "stores": stats["stores"],
                          "by_kind": stats["by_kind"]}))
    """)

    def test_restarted_process_skips_factorization(self, tmp_path):
        env = _subprocess_env(REPRO_ARTIFACTS=str(tmp_path / "store"))
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", self.CHILD],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        first, second = runs
        assert first["stores"] > 0
        assert second["hits"] > 0, second
        # the restart re-derived no ILU(0) factors and no level schedules
        assert second["by_kind"]["ilu0"]["misses"] == 0
        assert second["by_kind"]["levels"]["misses"] == 0
        assert second["digest"] == first["digest"]

    def test_unset_artifacts_reproduces_uncached_results(self, tmp_path):
        env_cached = _subprocess_env(REPRO_ARTIFACTS=str(tmp_path / "store"))
        env_plain = _subprocess_env()
        digests = []
        for env in (env_cached, env_cached, env_plain):
            proc = subprocess.run([sys.executable, "-c", self.CHILD],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(
                json.loads(proc.stdout.strip().splitlines()[-1])["digest"])
        assert digests[0] == digests[1] == digests[2]


class TestArtifactGC:
    """Size/age-bounded pruning of the store (``repro.cache.gc``)."""

    def _fill(self, n=6, kind="ilu0", size=512):
        rng = np.random.default_rng(7)
        for i in range(n):
            assert cache.store_arrays(kind, f"key{i}", {"v": rng.random(size)})
            path = Path(cache.artifacts_dir()) / kind / f"key{i}.npz"
            # stagger mtimes so LRU order is unambiguous (key0 oldest)
            stamp = 1_000_000 + i * 1000
            os.utime(path, (stamp, stamp))

    def test_disabled_store_reports_inert(self):
        old = cache.set_artifacts_dir("")
        try:
            report = cache.gc(max_mb=1)
            assert report == {"enabled": False, "scanned": 0, "bytes": 0,
                              "removed": 0, "removed_bytes": 0, "kept": 0,
                              "kept_bytes": 0, "dry_run": False}
        finally:
            cache.set_artifacts_dir(old)

    def test_size_prune_drops_least_recently_used(self, artifacts):
        self._fill(6)
        one = os.path.getsize(artifacts / "ilu0" / "key0.npz")
        budget_mb = (2.5 * one) / (1024 * 1024)   # room for ~2 artifacts
        report = cache.gc(max_mb=budget_mb)
        assert report["scanned"] == 6
        assert report["removed"] == 4
        assert report["kept"] == 2
        # the two *newest-touched* survive
        assert not (artifacts / "ilu0" / "key0.npz").exists()
        assert (artifacts / "ilu0" / "key4.npz").exists()
        assert (artifacts / "ilu0" / "key5.npz").exists()
        stats = cache.cold_start_stats()["gc"]
        assert stats["runs"] == 1
        assert stats["removed"] == 4
        assert stats["removed_bytes"] == report["removed_bytes"]

    def test_hit_touch_protects_hot_artifact(self, artifacts):
        self._fill(4)
        # a load hit refreshes key0's mtime, so it outranks key1..key3
        assert cache.load_arrays("ilu0", "key0") is not None
        one = os.path.getsize(artifacts / "ilu0" / "key1.npz")
        report = cache.gc(max_mb=(1.5 * one) / (1024 * 1024))
        assert report["removed"] == 3
        assert (artifacts / "ilu0" / "key0.npz").exists()

    def test_age_prune(self, artifacts):
        self._fill(3)
        fresh = artifacts / "ilu0" / "keyfresh.npz"
        assert cache.store_arrays("ilu0", "keyfresh", {"v": np.ones(8)})
        report = cache.gc(max_age_days=1)
        assert report["removed"] == 3
        assert fresh.exists()

    def test_dry_run_removes_nothing(self, artifacts):
        self._fill(3)
        report = cache.gc(max_mb=0.0001, dry_run=True)
        assert report["dry_run"] and report["removed"] == 3
        assert sorted(p.name for p in (artifacts / "ilu0").iterdir()) == [
            "key0.npz", "key1.npz", "key2.npz"]
        assert cache.cold_start_stats()["gc"]["runs"] == 0

    def test_env_bounds_and_validation(self, artifacts, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS_MAX_MB", "12.5")
        monkeypatch.setenv("REPRO_ARTIFACTS_MAX_AGE_DAYS", "30")
        assert cache.configured_max_mb() == 12.5
        assert cache.configured_max_age_days() == 30
        monkeypatch.setenv("REPRO_ARTIFACTS_MAX_MB", "not-a-number")
        with pytest.raises(ValueError):
            cache.configured_max_mb()
        monkeypatch.setenv("REPRO_ARTIFACTS_MAX_MB", "0")
        assert cache.configured_max_mb() is None   # non-positive = unbounded

    def test_auto_gc_fires_on_write_path(self, artifacts, monkeypatch):
        import importlib

        gcmod = importlib.import_module("repro.cache.gc")
        monkeypatch.setenv("REPRO_ARTIFACTS_MAX_MB", "0.001")  # ~1 KB budget
        monkeypatch.setattr(gcmod, "_STORES_SINCE_GC", 0)
        monkeypatch.setattr(gcmod, "AUTO_GC_EVERY", 4)
        rng = np.random.default_rng(3)
        for i in range(4):
            cache.store_arrays("levels", f"auto{i}", {"v": rng.random(2048)})
        stats = cache.cold_start_stats()["gc"]
        assert stats["runs"] >= 1
        assert stats["removed"] >= 1

    def test_auto_gc_noop_without_bounds(self, artifacts, monkeypatch):
        import importlib

        gcmod = importlib.import_module("repro.cache.gc")
        monkeypatch.delenv("REPRO_ARTIFACTS_MAX_MB", raising=False)
        monkeypatch.delenv("REPRO_ARTIFACTS_MAX_AGE_DAYS", raising=False)
        monkeypatch.setattr(gcmod, "_STORES_SINCE_GC", 0)
        monkeypatch.setattr(gcmod, "AUTO_GC_EVERY", 1)
        cache.store_arrays("levels", "nb", {"v": np.ones(64)})
        assert cache.cold_start_stats()["gc"]["runs"] == 0
