"""CLI coverage for ``repro store`` and the sharded ``repro sweep`` flags.

Error paths are first-class here: every bad shard spec, self-merge and
corrupted store must exit non-zero with a message naming the offending
argument or key, because these commands are what a multi-host campaign
scripts against.
"""

import json

import pytest

from repro.__main__ import main
from repro.sweep import ResultStore
from repro.sweep.store import save_payload, stable_hash
from store_faults import damage


@pytest.fixture()
def store_env(tmp_path, monkeypatch):
    """Point the default store somewhere disposable."""
    root = tmp_path / "store"
    monkeypatch.setenv("REPRO_STORE", str(root))
    return root


def _seed_store(root, n=3):
    store = ResultStore(root)
    keys = []
    for i in range(n):
        key = stable_hash({"n": i})
        save_payload(store, "test", key, {"n": i})
        keys.append(key)
    return store, keys


class TestSweepShardErrors:
    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("3/2", "between 1 and 2"),
            ("0/0", "count must be at least 1"),
            ("0/2", "between 1 and 2"),
            ("banana", "i/N"),
            ("1/2/3", "i/N"),
            ("a/b", "integers"),
            ("/2", "i/N"),
        ],
    )
    def test_bad_shard_specs_exit_nonzero(self, spec, fragment, capsys, store_env):
        assert main(["sweep", "--kernels", "ycc", "--shard", spec, "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "--shard" in out and fragment in out and spec in out

    def test_store_and_store_root_conflict(self, capsys, tmp_path):
        assert main([
            "sweep", "--kernels", "ycc", "--store", str(tmp_path / "a"),
            "--store-root", str(tmp_path / "b"), "--quiet",
        ]) == 1
        assert "--store" in capsys.readouterr().out

    def test_shard_store_root_layout(self, capsys, tmp_path, monkeypatch):
        """--shard i/N + --store-root writes under DIR/shard-i-of-N."""
        from repro.sweep import clear_memory_caches

        clear_memory_caches()
        root = tmp_path / "campaign"
        assert main([
            "sweep", "--kernels", "addblock", "--isas", "mmx64", "--ways", "2",
            "--shard", "1/1", "--store-root", str(root), "--quiet",
        ]) == 0
        assert len(ResultStore(root / "shard-1-of-1")) > 0
        assert "shard 1/1" in capsys.readouterr().out
        clear_memory_caches()


class TestStoreMerge:
    def test_merge_onto_itself_exits_nonzero(self, capsys, tmp_path):
        root = tmp_path / "s"
        _seed_store(root)
        assert main([
            "store", "--store-root", str(root), "merge", str(root),
        ]) == 1
        assert "itself" in capsys.readouterr().out

    def test_merge_happy_path(self, capsys, tmp_path):
        _seed_store(tmp_path / "a")
        _seed_store(tmp_path / "b")
        dest = tmp_path / "merged"
        assert main([
            "store", "--store-root", str(dest),
            "merge", str(tmp_path / "a"), str(tmp_path / "b"),
        ]) == 0
        out = capsys.readouterr().out
        assert "3 records merged in" in out
        assert len(ResultStore(dest)) == 3

    def test_merge_conflict_exits_nonzero_naming_key(self, capsys, tmp_path):
        key = stable_hash("contended")
        for root, cycles in ((tmp_path / "a", 1), (tmp_path / "b", 2)):
            save_payload(ResultStore(root), "test", key, {"cycles": cycles})
        assert main([
            "store", "--store-root", str(tmp_path / "a"), "merge",
            str(tmp_path / "b"),
        ]) == 1
        assert key in capsys.readouterr().out

    def test_merge_conflict_still_merges_remaining_sources(self, capsys, tmp_path):
        """A conflict in shard 1 must not leave shard 2 unmerged."""
        key = stable_hash("contended")
        save_payload(ResultStore(tmp_path / "dest"), "test", key, {"cycles": 1})
        save_payload(ResultStore(tmp_path / "a"), "test", key, {"cycles": 2})
        _, b_keys = _seed_store(tmp_path / "b")
        assert main([
            "store", "--store-root", str(tmp_path / "dest"),
            "merge", str(tmp_path / "a"), str(tmp_path / "b"),
        ]) == 1
        dest = ResultStore(tmp_path / "dest")
        assert all(k in dest for k in b_keys)  # shard b fully merged
        assert dest.load(key)["payload"] == {"cycles": 1}  # ours kept


class TestStoreVerify:
    def test_clean_store_verifies(self, capsys, store_env):
        _seed_store(store_env)
        assert main(["store", "verify"]) == 0
        assert "all payloads intact" in capsys.readouterr().out

    def test_corrupted_payload_exits_nonzero_naming_key(self, capsys, store_env):
        store, keys = _seed_store(store_env)
        victim = keys[1]
        damage(store, victim, "edit")  # silent bit-flip, still valid JSON
        assert main(["store", "verify"]) == 1
        out = capsys.readouterr().out
        assert victim in out and "hash mismatch" in out

    def test_disabled_store_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        assert main(["store", "verify"]) == 1
        assert "--store-root" in capsys.readouterr().out


class TestStoreStatsGc:
    def test_stats_reports_kinds_and_code_versions(self, capsys, store_env):
        _seed_store(store_env)
        assert main(["store", "stats"]) == 0
        out = capsys.readouterr().out
        assert "3 records" in out and "test: 3" in out and "(current)" in out

    def test_gc_removes_only_dead_code_versions(self, capsys, store_env):
        store, keys = _seed_store(store_env)
        stale = stable_hash("stale")
        store.save(stale, {"kind": "test", "code": "e" * 64, "payload": {}})
        assert main(["store", "gc"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert stale not in store
        assert all(key in store for key in keys)

    def test_gc_keep_code_flag(self, capsys, store_env):
        store, _ = _seed_store(store_env)
        stale = stable_hash("stale")
        store.save(stale, {"kind": "test", "code": "e" * 64, "payload": {}})
        assert main(["store", "gc", "--keep-code", "e" * 64]) == 0
        assert stale in store

    def test_gc_dry_run(self, capsys, store_env):
        store, _ = _seed_store(store_env)
        stale = stable_hash("stale")
        store.save(stale, {"kind": "test", "code": "e" * 64, "payload": {}})
        assert main(["store", "gc", "--dry-run"]) == 0
        assert "[dry-run]" in capsys.readouterr().out
        assert stale in store


class TestStoreExportImport:
    def test_roundtrip_via_cli(self, capsys, tmp_path, monkeypatch):
        root = tmp_path / "src"
        monkeypatch.setenv("REPRO_STORE", str(root))
        _, keys = _seed_store(root)
        archive = tmp_path / "x.tar.gz"
        assert main(["store", "export", str(archive)]) == 0
        assert main([
            "store", "--store-root", str(tmp_path / "fresh"), "import",
            str(archive),
        ]) == 0
        out = capsys.readouterr().out
        assert "exported 3 records" in out and "imported 3 records" in out
        fresh = ResultStore(tmp_path / "fresh")
        assert sorted(fresh.iter_keys()) == sorted(keys)

    def test_import_missing_archive_exits_nonzero(self, capsys, store_env):
        assert main(["store", "import", str(store_env / "nope.tar.gz")]) == 1
        assert "nope.tar.gz" in capsys.readouterr().out

    def test_import_with_rejected_members_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        """An archive that lost records in transit must fail the script."""
        import io
        import tarfile

        archive = tmp_path / "damaged.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            info = tarfile.TarInfo("records/zz/nothex.json")
            info.size = 2
            tar.addfile(info, io.BytesIO(b"{}"))
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s"))
        assert main(["store", "import", str(archive)]) == 1
        assert "1 rejected" in capsys.readouterr().out

    def test_export_to_unwritable_path_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        root = tmp_path / "src"
        monkeypatch.setenv("REPRO_STORE", str(root))
        _seed_store(root)
        obstruction = tmp_path / "file"
        obstruction.write_text("not a directory")
        assert main(["store", "export", str(obstruction / "x.tar.gz")]) == 1
        assert "failed" in capsys.readouterr().out


class TestStoreStatsJson:
    def test_json_flag_emits_schema_stamped_mapping(self, capsys, store_env):
        _seed_store(store_env)
        assert main(["store", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        # The stable machine contract scripts and /metrics rely on.
        assert stats["schema"] == 1
        assert stats["records"] == 3
        assert stats["by_kind"] == {"test": 3}
        assert set(stats) >= {
            "schema", "root", "records", "bytes", "by_kind",
            "code_versions", "current_code", "unstamped", "corrupt",
        }

    def test_json_output_is_pure_json(self, capsys, store_env):
        _seed_store(store_env)
        assert main(["store", "stats", "--json"]) == 0
        out = capsys.readouterr().out
        # No prose mixed in: the whole stdout must parse.
        json.loads(out)


class TestStoreMissing:
    def test_complete_axes_exit_zero(self, capsys, store_env):
        from repro.sweep import SweepPoint, run_point

        run_point(
            SweepPoint(kernel="addblock", version="mmx64", way=2),
            store=ResultStore(store_env),
        )
        assert main([
            "store", "missing",
            "--kernels", "addblock", "--machines", "mmx64", "--ways", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "1/1 points present, 0 missing" in out

    def test_incomplete_axes_exit_two_listing_keys(self, capsys, store_env):
        from repro.sweep import SweepPoint, point_key

        _seed_store(store_env)  # unrelated records only
        assert main([
            "store", "missing",
            "--kernels", "addblock", "--machines", "mmx64", "--ways", "2,4",
        ]) == 2
        out = capsys.readouterr().out
        assert "0/2 points present, 2 missing" in out
        key = point_key(SweepPoint(kernel="addblock", version="mmx64", way=2))
        assert key in out and "addblock/mmx64/2way" in out

    def test_grid_flag_names_known_grids(self, capsys, store_env):
        assert main(["store", "missing", "--grid", "nope"]) == 1
        assert "unknown grid" in capsys.readouterr().out

    def test_bad_axis_values_exit_one(self, capsys, store_env):
        assert main(["store", "missing", "--kernels", "nope"]) == 1
        assert "unknown kernel" in capsys.readouterr().out
        assert main(["store", "missing", "--ways", "x"]) == 1
        assert "integers" in capsys.readouterr().out
