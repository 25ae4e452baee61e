"""Tests for the unified sweep runner (repro.runner).

Covers the ISSUE-1 acceptance surface: cache hit/miss semantics, hash
stability across processes, parallel-vs-serial result equality,
corrupted-cache-entry recovery, and the guarantee that a warm cache
never re-invokes the per-point function.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.experiments import campaign_for, fig10
from repro.runner import (
    Campaign,
    ResultCache,
    Sweep,
    cached_call,
    canonical_params,
    code_version,
    point_key,
    run_campaign,
    run_sweep,
)


def _counting_point(params):
    """Pure point fn that tallies invocations in an append-only file."""
    with open(params["counter"], "a") as fh:
        fh.write("x")
    return {"x": params["x"], "square": params["x"] ** 2}


def _tamper(cache, sweep, key, edit):
    """Rewrite the log line holding ``key``'s last put record in place
    (same file, as an editor or a bad disk would): ``edit`` maps the old
    line to the new one."""
    path = cache.log_path(sweep)
    lines = path.read_bytes().splitlines(keepends=True)
    idx = max(
        i for i, line in enumerate(lines)
        if line.startswith(b'{"op":"put","key":"%s"' % key.encode())
    )
    lines[idx] = edit(lines[idx].rstrip(b"\n")) + b"\n"
    path.write_bytes(b"".join(lines))


def _calls(counter: Path) -> int:
    return len(counter.read_text()) if counter.exists() else 0


def _counting_sweep(tmp_path: Path, n: int = 4, name: str = "counting") -> Sweep:
    tmp_path.mkdir(parents=True, exist_ok=True)
    counter = tmp_path / "calls.txt"
    points = tuple({"x": x, "counter": str(counter)} for x in range(n))
    return Sweep(name=name, run_fn=_counting_point, points=points)


class TestHashing:
    def test_key_is_deterministic(self):
        params = {"a": 1, "b": [1, 2], "c": "x"}
        assert point_key("e", params, code="c0") == point_key("e", params, code="c0")

    def test_key_ignores_dict_order(self):
        assert point_key("e", {"a": 1, "b": 2}, code="c0") == point_key(
            "e", {"b": 2, "a": 1}, code="c0"
        )

    def test_key_separates_experiments_params_code(self):
        base = point_key("e", {"a": 1}, code="c0")
        assert point_key("f", {"a": 1}, code="c0") != base
        assert point_key("e", {"a": 2}, code="c0") != base
        assert point_key("e", {"a": 1}, code="c1") != base

    def test_canonical_params_rejects_non_json(self):
        with pytest.raises(TypeError):
            canonical_params({"fn": lambda: None})

    def test_code_version_is_short_hex(self):
        version = code_version()
        assert len(version) == 16
        int(version, 16)

    def test_key_stable_across_processes(self):
        """sha256 of canonical JSON must not depend on the process."""
        params = {"d": 2.5, "c": "x", "b": [1, 2], "a": 1}
        expected = point_key("exp", params, code="deadbeef")
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro.runner.hashing import point_key;"
            "print(point_key('exp',"
            " {'a': 1, 'b': [1, 2], 'c': 'x', 'd': 2.5}, code='deadbeef'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == expected


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k1", {"a": 1}, [{"row": 1}])
        value, hit = cache.get("s", "k1")
        assert hit and value == [{"row": 1}]

    def test_missing_is_miss(self, tmp_path):
        _, hit = ResultCache(tmp_path).get("s", "nope")
        assert not hit

    def test_corrupted_entry_is_healed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k1", {}, {"ok": True})
        _tamper(cache, "s", "k1", lambda line: line[:20])  # torn record
        _, hit = cache.get("s", "k1")
        assert not hit
        assert "k1" not in cache.manifest_keys("s")  # healed away

    def test_key_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k1", {}, {"ok": True})
        assert cache.manifest_keys("s") == {"k1"}  # index built
        # Same length, so the index still points k1 at this record.
        _tamper(cache, "s", "k1",
                lambda line: line.replace(b'"k1"', b'"k9"'))
        _, hit = cache.get("s", "k1")
        assert not hit

    def test_put_is_atomic_no_temp_left(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k1", {}, list(range(100)))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_put_rejects_unserializable(self, tmp_path):
        with pytest.raises(TypeError):
            ResultCache(tmp_path).put("s", "k1", {}, object())

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s1", "k1", {}, 1)
        cache.put("s2", "k2", {}, 2)
        stats = cache.stats()
        assert stats.entries == 2 and stats.sweeps == ("s1", "s2")
        assert cache.clear("s1") == 1
        assert cache.stats().entries == 1
        assert cache.clear() == 1
        assert cache.stats().entries == 0


class TestRunSweep:
    def test_cold_run_computes_every_point(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        result = run_sweep(sweep, cache=ResultCache(tmp_path / "cache"))
        assert result.misses == 4 and result.hits == 0
        assert _calls(tmp_path / "calls.txt") == 4
        assert [r["square"] for r in result.rows] == [0, 1, 4, 9]

    def test_warm_run_never_calls_point_fn(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(sweep, cache=cache)
        warm = run_sweep(sweep, cache=cache)
        assert warm.hits == 4 and warm.misses == 0
        assert _calls(tmp_path / "calls.txt") == 4  # unchanged: zero re-runs
        assert warm.rows == cold.rows

    def test_no_cache_always_computes(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        run_sweep(sweep)
        run_sweep(sweep)
        assert _calls(tmp_path / "calls.txt") == 8

    def test_code_version_change_invalidates(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache, code="v1")
        second = run_sweep(sweep, cache=cache, code="v2")
        assert second.misses == 4
        assert _calls(tmp_path / "calls.txt") == 8

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_sweep(_counting_sweep(tmp_path / "a", n=6))
        parallel = run_sweep(_counting_sweep(tmp_path / "b", n=6), jobs=3)
        strip = lambda rows: json.dumps(rows)  # noqa: E731
        assert strip(parallel.rows) == strip(serial.rows)
        assert _calls(tmp_path / "b" / "calls.txt") == 6

    def test_parallel_fills_cache_for_serial(self, tmp_path):
        sweep = _counting_sweep(tmp_path, n=6)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, jobs=3, cache=cache)
        warm = run_sweep(sweep, jobs=1, cache=cache)
        assert warm.hits == 6
        assert _calls(tmp_path / "calls.txt") == 6

    def test_corrupted_entry_recovery_end_to_end(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(sweep, cache=cache)
        _tamper(cache, sweep.name, cold.outcomes[2].key,
                lambda line: b"not json at all")
        healed = run_sweep(sweep, cache=cache)
        assert healed.hits == 3 and healed.misses == 1
        assert healed.rows == cold.rows
        _, hit = cache.get(sweep.name, cold.outcomes[2].key)
        assert hit  # the repaired entry is valid again

    def test_progress_streams_in_point_order(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache)
        events = []
        run_sweep(sweep, cache=cache, progress=events.append)
        assert [e.index for e in events] == [0, 1, 2, 3]
        assert all(e.cached and e.total == 4 for e in events)

    def test_campaign_totals(self, tmp_path):
        campaign = Campaign(
            "both",
            (
                _counting_sweep(tmp_path / "a", n=2, name="a"),
                _counting_sweep(tmp_path / "b", n=3, name="b"),
            ),
        )
        cache = ResultCache(tmp_path / "cache")
        cold = run_campaign(campaign, cache=cache)
        assert cold.misses == 5 and cold.hits == 0
        warm = run_campaign(campaign, cache=cache)
        assert warm.hits == 5 and warm.misses == 0
        assert list(warm.tables) == ["a", "b"]


class TestFig10Acceptance:
    """ISSUE 1 acceptance: parallel == serial bytes; warm cache = 0 runs."""

    def test_parallel_cached_run_matches_serial_and_warms(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = fig10.sweep(scale=8)
        serial_rows = fig10.run(scale=8)

        cold = run_sweep(sweep, jobs=4, cache=cache)
        assert json.dumps(cold.rows) == json.dumps(serial_rows)
        assert cold.misses == len(sweep.points)

        def forbidden(params):
            raise AssertionError("per-point function called on a warm cache")

        warm_sweep = Sweep(
            name=sweep.name,
            run_fn=forbidden,
            points=sweep.points,
            aggregate=sweep.aggregate,
            title=sweep.title,
        )
        warm = run_sweep(warm_sweep, jobs=4, cache=cache)
        assert warm.hits == len(sweep.points) and warm.misses == 0
        assert json.dumps(warm.rows) == json.dumps(serial_rows)


class TestCachedCall:
    def test_memoizes(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []
        fn = lambda x: (calls.append(x), x * 2)[1]  # noqa: E731
        assert cached_call("t", fn, 21, cache=cache) == 42
        assert cached_call("t", fn, 21, cache=cache) == 42
        assert calls == [21]

    def test_unserializable_results_pass_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        fn = lambda: object()  # noqa: E731
        first = cached_call("t", fn, cache=cache)
        second = cached_call("t", fn, cache=cache)
        assert first is not second  # computed each time, never cached
        assert cache.stats().entries == 0

    def test_disable_env_bypasses_store(self, tmp_path, monkeypatch):
        """$REPRO_CACHE_DISABLE (the CLI's --no-cache export) must keep
        default-store cached_call from reading or writing anything."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        calls = []
        fn = lambda x: (calls.append(x), x * 2)[1]  # noqa: E731
        assert cached_call("t", fn, 21) == 42
        assert cached_call("t", fn, 21) == 42
        assert calls == [21, 21]  # computed twice
        assert ResultCache(tmp_path).stats().entries == 0  # nothing written

    def test_disable_env_off_spellings_keep_cache_on(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []
        fn = lambda x: (calls.append(x), x * 2)[1]  # noqa: E731
        for off in ("0", "false", "no", ""):
            monkeypatch.setenv("REPRO_CACHE_DISABLE", off)
            assert cached_call("t", fn, 21) == 42
        assert calls == [21]  # first call cached, the rest were hits

    def test_explicit_cache_wins_over_disable_env(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        cache = ResultCache(tmp_path)
        calls = []
        fn = lambda x: (calls.append(x), x * 2)[1]  # noqa: E731
        assert cached_call("t", fn, 21, cache=cache) == 42
        assert cached_call("t", fn, 21, cache=cache) == 42
        assert calls == [21]  # memoized: the explicit store is used

    def test_unwritable_store_degrades_to_compute(self, tmp_path, monkeypatch):
        """A read-only shared store must not crash point functions that
        memoize through cached_call — compute-without-caching instead."""

        def no_put(self, *a, **k):
            raise PermissionError("read-only store")

        monkeypatch.setattr(ResultCache, "put", no_put)
        cache = ResultCache(tmp_path)
        calls = []
        fn = lambda x: (calls.append(x), x * 2)[1]  # noqa: E731
        assert cached_call("t", fn, 21, cache=cache) == 42
        assert cached_call("t", fn, 21, cache=cache) == 42
        assert calls == [21, 21]  # computed each time, never crashed


class TestCampaignRegistry:
    def test_every_experiment_has_a_campaign(self):
        from repro.experiments import ALL_EXPERIMENTS

        for name in ALL_EXPERIMENTS:
            campaign = campaign_for(name)
            assert campaign.sweeps, name
            for sweep in campaign.sweeps:
                assert sweep.points, f"{name}:{sweep.name}"
                for params in sweep.points:
                    json.dumps(params)  # points must be JSON-able data

    def test_scale_forwarded_where_supported(self):
        scaled = campaign_for("fig10", scale=8)
        assert all("/8" in p["workload"] for p in scaled.sweeps[0].points)
        # fig04 has no scale parameter; passing one must not break it.
        assert campaign_for("fig04", scale=8).sweeps


class TestSweepCLI:
    def test_sweep_unknown_name_exits_2(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["sweep", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_sweep_runs_and_warms(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        argv = ["sweep", "maxreuse", "--cache-dir", str(tmp_path), "--quiet"]
        assert cli_main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "maxreuse: 0 cached, 1 computed" in cold_out
        assert cli_main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "maxreuse: 1 cached, 0 computed" in warm_out

    def test_sweep_no_cache_writes_nothing(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        argv = [
            "sweep", "maxreuse", "--cache-dir", str(tmp_path),
            "--no-cache", "--quiet",
        ]
        assert cli_main(argv) == 0
        assert "cache disabled" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_cache_info_and_clear(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        ResultCache(tmp_path).put("s", "k", {}, 1)
        assert cli_main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries   : 1" in capsys.readouterr().out
        assert cli_main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert ResultCache(tmp_path).stats().entries == 0


class TestCodeVersionFreshness:
    """code_version must track source edits within one process."""

    def _fake_package(self, tmp_path: Path) -> Path:
        root = tmp_path / "pkg"
        root.mkdir(parents=True)
        (root / "a.py").write_text("x = 1\n")
        (root / "sub").mkdir()
        (root / "sub" / "b.py").write_text("y = 2\n")
        return root

    def test_edit_changes_version_in_process(self, tmp_path):
        """Regression: a process-lifetime lru_cache once pinned the first
        digest forever, serving stale cached sweep results to long-lived
        sessions (REPL/Jupyter) that edit code and re-run."""
        root = self._fake_package(tmp_path)
        before = code_version(root)
        assert code_version(root) == before  # snapshot-memoized
        (root / "a.py").write_text("x = 10  # edited\n")
        after = code_version(root)
        assert after != before
        assert code_version(root) == after

    def test_new_and_deleted_files_change_version(self, tmp_path):
        root = self._fake_package(tmp_path)
        v0 = code_version(root)
        (root / "c.py").write_text("z = 3\n")
        v1 = code_version(root)
        assert v1 != v0
        (root / "c.py").unlink()
        assert code_version(root) == v0  # back to the original source set

    def test_default_root_is_stable_within_run(self):
        assert code_version() == code_version()

    def test_run_sweep_picks_up_edits_between_runs(self, tmp_path):
        """End to end: editing the (fake) package between two sweeps of
        the same process yields different cache keys — the second run
        recomputes instead of serving the first run's entries."""
        root = self._fake_package(tmp_path / "src")
        cache = ResultCache(tmp_path / "cache")
        sweep = _counting_sweep(tmp_path / "w", n=2)
        counter = tmp_path / "w" / "calls.txt"
        run_sweep(sweep, cache=cache, code=code_version(root))
        assert _calls(counter) == 2
        run_sweep(sweep, cache=cache, code=code_version(root))
        assert _calls(counter) == 2  # warm
        (root / "a.py").write_text("x = 99\n")
        run_sweep(sweep, cache=cache, code=code_version(root))
        assert _calls(counter) == 4  # invalidated by the edit


def _journal_lines(cache, sweep):
    """Every line of a sweep's log."""
    return cache.log_path(sweep).read_text().splitlines()


class TestManifest:
    """The per-sweep append-only journal that indexes the cache."""

    def test_put_appends_and_stats_fold(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put("s", f"k{i}", {"i": i}, i)
        manifest = cache.manifest("s")
        assert sorted(manifest) == ["k0", "k1", "k2"]
        # One line per record: the sizes plus newlines are the log.
        log_size = cache.log_path("s").stat().st_size
        assert sum(manifest.values()) + len(manifest) == log_size
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.bytes == sum(manifest.values())
        assert stats.sweeps == ("s",)

    def test_stats_is_an_index_read(self, tmp_path, monkeypatch):
        """Acceptance: stats() never globs or stats entry files once the
        manifests exist — O(sweeps), not O(entries)."""
        cache = ResultCache(tmp_path)
        cache.put("s1", "k1", {"a": 1}, [1])
        cache.put("s2", "k2", {"a": 2}, [2])

        def forbidden(self, *a, **k):
            raise AssertionError("stats() touched the entry files")

        monkeypatch.setattr(ResultCache, "entries", forbidden)
        monkeypatch.setattr(ResultCache, "rebuild_manifest", forbidden)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.sweeps == ("s1", "s2")
        assert stats.bytes > 0

    def test_flat_layout_is_a_cold_miss(self, tmp_path):
        """Directories of the older one-file-per-entry layouts — flat
        (``<sweep>/<key>.json`` plus ``<sweep>/MANIFEST.jsonl``) and
        sharded (``<sweep>/<key[:2]>/<key>.json`` plus a manifest per
        shard) — are not read: every point misses, run_sweep
        recomputes it into the log, and ``clear`` still removes the
        directory."""
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache, code="v1")
        root = cache.root / sweep.name
        records = list(cache.entries(sweep.name))
        cache.log_path(sweep.name).unlink()
        for i, record in enumerate(records):
            key = record.pop("key")
            record.pop("op")
            entry = json.dumps(record)
            journal = json.dumps({"op": "put", "key": key}) + "\n"
            where = root if i % 2 else root / key[:2]
            where.mkdir(exist_ok=True)
            (where / f"{key}.json").write_text(entry)
            with open(where / "MANIFEST.jsonl", "a") as fh:
                fh.write(journal)
        assert len(list(root.rglob("*.json"))) == 4

        flat = ResultCache(tmp_path / "cache")
        assert flat.manifest_keys(sweep.name) == set()
        assert flat.stats().entries == 0
        again = run_sweep(sweep, cache=flat, code="v1")
        assert again.hits == 0 and again.misses == 4
        assert _calls(tmp_path / "calls.txt") == 8  # recomputed
        assert len(flat.manifest_keys(sweep.name)) == 4  # now in the log
        warm = run_sweep(sweep, cache=ResultCache(tmp_path / "cache"),
                         code="v1")
        assert warm.hits == 4 and _calls(tmp_path / "calls.txt") == 8
        assert flat.clear() == 4
        assert not root.exists()

    def test_entries_live_in_one_log_per_sweep(self, tmp_path):
        """Layout acceptance: a sweep directory holds exactly one file,
        its log, with one line per record and no per-entry files."""
        cache = ResultCache(tmp_path)
        cache.put("s", "abcd", {}, 1)
        cache.put("s", "abxy", {}, 2)
        cache.put_many("s", [("cdef", {}, 3)])
        cache.put("t", "abcd", {}, 4)
        assert cache.log_path("s") == tmp_path / "s" / "LOG.jsonl"
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "LOG.jsonl"
        ]
        assert len(_journal_lines(cache, "s")) == 3
        assert sorted(cache.manifest("s")) == ["abcd", "abxy", "cdef"]
        assert [r["key"] for r in cache.entries("s")] == [
            "abcd", "abxy", "cdef"
        ]
        assert [r["result"] for r in cache.entries()] == [1, 2, 3, 4]
        assert cache.get("t", "abcd") == (4, True)

    def test_corrupt_manifest_is_rebuilt(self, tmp_path):
        """Garbage lines and a torn tail are salvaged around: the index
        skips them, and ``rebuild_manifest`` rewrites the log without
        them."""
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put("s", f"k{i}", {"i": i}, i)
        with open(cache.log_path("s"), "a") as fh:
            fh.write('not json\n{"op":"put","key":"k9","form')
        assert cache.stats().entries == 3  # salvaged around
        assert sorted(cache.rebuild_manifest("s")) == ["k0", "k1", "k2"]
        assert len(_journal_lines(cache, "s")) == 3
        for i in range(3):
            assert cache.get("s", f"k{i}") == (i, True)

    def test_healed_entry_records_a_del(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, 0)
        cache.put("s", "k1", {}, 1)
        _tamper(cache, "s", "k0",
                lambda line: line.replace(b'"format":1', b'"format":7'))
        _, hit = cache.get("s", "k0")  # heals: appends the del
        assert not hit
        assert json.loads(_journal_lines(cache, "s")[-1]) == {
            "op": "del", "key": "k0"
        }
        assert sorted(cache.manifest_keys("s")) == ["k1"]
        assert cache.stats().entries == 1
        fresh = ResultCache(tmp_path)  # the del is on disk, not in memory
        assert sorted(fresh.manifest_keys("s")) == ["k1"]

    def test_manifest_keys_tolerate_missing_sweep(self, tmp_path):
        assert ResultCache(tmp_path).manifest_keys("nope") == set()

    def test_concurrent_writers_share_one_journal(self, tmp_path):
        """Two cache handles appending to the same sweep must both land."""
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        a.put("s", "ka", {}, 1)
        b.put("s", "kb", {}, 2)
        assert sorted(a.manifest_keys("s")) == ["ka", "kb"]

    def test_clear_counts_do_not_stat(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k", {"a": 1}, 1)
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_readonly_cache_still_serves_index_reads(
        self, tmp_path, monkeypatch
    ):
        """A torn log and a corrupt record on a read-only mount: heals,
        salvage and compaction cannot persist, but reads must still
        serve correct numbers and values instead of crashing (root
        ignores permission bits, so this is simulated by failing every
        open for writing and every temp-file creation)."""
        import repro.runner.cache as cache_mod

        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, 0)
        cache.put("s", "k1", {}, 1)
        for _ in range(6):
            cache.put("s", "k2", {}, 2)  # dead records to compact
        _tamper(cache, "s", "k0",
                lambda line: line.replace(b'"format":1', b'"format":7'))
        with open(cache.log_path("s"), "a") as fh:
            fh.write("torn{garbage")
        before = cache.log_path("s").read_bytes()
        real_open = os.open

        def read_only_open(path, flags, *a, **k):
            if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
                raise OSError("read-only file system")
            return real_open(path, flags, *a, **k)

        def no_write(*a, **k):
            raise OSError("read-only file system")

        monkeypatch.setattr(cache_mod.os, "open", read_only_open)
        monkeypatch.setattr(cache_mod.tempfile, "mkstemp", no_write)
        stats = cache.stats()
        assert stats.entries == 3 and stats.sweeps == ("s",)
        assert sorted(cache.manifest_keys("s")) == ["k0", "k1", "k2"]
        assert cache.get_many("s", ["k0", "k1", "k2"]) == {"k1": 1, "k2": 2}
        assert sorted(cache.rebuild_manifest("s")) == ["k0", "k1", "k2"]
        assert cache.compact("s") == 0
        assert cache.log_path("s").read_bytes() == before  # nothing persisted

    def test_put_survives_unwritable_manifest(self, tmp_path, monkeypatch):
        """A refused log write fails that commit alone (``OSError``,
        which ``cached_call`` degrades to compute-without-caching): the
        log keeps every earlier commit, and later commits land."""
        import repro.runner.cache as cache_mod

        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, {"ok": True})

        def no_write(fd, data):
            raise OSError("write refused")

        monkeypatch.setattr(cache_mod.os, "write", no_write)
        with pytest.raises(OSError):
            cache.put("s", "k1", {}, 1)
        value, hit = cache.get("s", "k0")
        assert hit and value == {"ok": True}
        monkeypatch.undo()
        cache.put("s", "k2", {}, 2)
        assert sorted(cache.manifest_keys("s")) == ["k0", "k2"]

    def test_put_survives_short_writes(self, tmp_path, monkeypatch):
        """A commit loops until the kernel took every byte."""
        import repro.runner.cache as cache_mod

        real_write = os.write
        calls = []

        def short_write(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:7]))

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(cache_mod.os, "write", short_write)
        entries = [(f"k{i}", {"i": i}, [i] * 5) for i in range(4)]
        assert cache.put_many("s", entries) == 4
        monkeypatch.undo()
        assert len(calls) > 4
        assert cache.get_many("s", [k for k, _, _ in entries]) == {
            k: v for k, _, v in entries
        }
        assert len(_journal_lines(cache, "s")) == 4


class TestResume:
    """run_sweep(resume=True): manifest-driven skip of existing points."""

    def test_resume_skips_listed_points(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache, code="v1")
        assert _calls(tmp_path / "calls.txt") == 4
        resumed = run_sweep(sweep, cache=cache, code="v1", resume=True)
        assert resumed.hits == 4 and resumed.misses == 0
        assert _calls(tmp_path / "calls.txt") == 4  # nothing recomputed

    def test_resume_after_partial_run(self, tmp_path):
        """The killed-sweep scenario: only some entries exist; resume
        computes exactly the rest and the rows match a full run."""
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        full = run_sweep(sweep, cache=ResultCache(tmp_path / "ref"), code="v1")
        # Simulate the kill: seed the cache with only the first 2 points.
        partial = Sweep(name=sweep.name, run_fn=sweep.run_fn,
                        points=sweep.points[:2])
        run_sweep(partial, cache=cache, code="v1")
        calls_before = _calls(tmp_path / "calls.txt")
        resumed = run_sweep(sweep, cache=cache, code="v1", resume=True)
        assert resumed.hits == 2 and resumed.misses == 2
        assert _calls(tmp_path / "calls.txt") == calls_before + 2
        assert json.dumps(resumed.rows) == json.dumps(full.rows)

    def test_resume_validates_stale_manifest_listings(self, tmp_path):
        """A listed key whose record went bad is recomputed, not
        trusted — the index is a hint, never the data."""
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(sweep, cache=cache, code="v1")
        victim = cold.outcomes[1].key
        assert victim in cache.manifest_keys(sweep.name)
        # Same length: the in-memory index still lists the victim.
        _tamper(cache, sweep.name, victim,
                lambda line: line.replace(b'"result"', b'"resuXt"'))
        assert victim in cache.manifest_keys(sweep.name)
        resumed = run_sweep(sweep, cache=cache, code="v1", resume=True)
        assert resumed.hits == 3 and resumed.misses == 1
        assert json.dumps(resumed.rows) == json.dumps(cold.rows)

    def test_resume_requires_cache(self, tmp_path):
        with pytest.raises(ValueError, match="requires a cache"):
            run_sweep(_counting_sweep(tmp_path), resume=True)


class TestManifestCompaction:
    """Folding dead journal history away, crash-safely (ISSUE 8)."""

    @staticmethod
    def _churn(cache, n_keys=2, rewrites=12):
        for _ in range(rewrites):
            for i in range(n_keys):
                cache.put("s", f"k{i}", {"i": i}, i)

    def test_compact_drops_dead_records_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._churn(cache)
        lines_before = _journal_lines(cache, "s")
        dropped = cache.compact("s")
        assert dropped == len(lines_before) - 2
        lines = _journal_lines(cache, "s")
        assert len(lines) == 2  # exactly the fold: one put per live key
        assert sorted(cache.manifest("s")) == ["k0", "k1"]
        for i in range(2):
            value, hit = cache.get("s", f"k{i}")
            assert hit and value == i

    def test_compact_noop_when_nothing_dead(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, 0)
        before = _journal_lines(cache, "s")
        assert cache.compact("s") == 0
        assert _journal_lines(cache, "s") == before

    def test_compaction_preserves_quarantine_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._churn(cache)
        cache.quarantine("s", "bad", {"x": -1}, "permanent failure")
        assert cache.compact("s") > 0
        assert "bad" in cache.quarantined("s")

    def test_manifest_read_auto_compacts_churned_journal(self, tmp_path):
        """Opportunistic compaction: a plain index read rewrites a
        journal whose dead history outnumbers its live entries."""
        cache = ResultCache(tmp_path)
        self._churn(cache)
        assert len(_journal_lines(cache, "s")) > 2
        assert sorted(cache.manifest("s")) == ["k0", "k1"]  # triggers it
        assert len(_journal_lines(cache, "s")) == 2

    def test_small_journals_never_churn(self, tmp_path):
        """The floor: a handful of dead records is not worth a rewrite."""
        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, 0)
        cache.put("s", "k0", {}, 0)  # one dead record
        lines = _journal_lines(cache, "s")
        cache.manifest("s")
        assert _journal_lines(cache, "s") == lines

    def test_torn_compaction_leaves_manifest_intact(
        self, tmp_path, monkeypatch
    ):
        """Crash between writing the compacted temp file and the rename:
        the old journal must survive untouched and no temp debris leak
        into the fold."""
        import repro.runner.cache as cache_mod

        cache = ResultCache(tmp_path)
        self._churn(cache)
        before = _journal_lines(cache, "s")

        def torn_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(cache_mod.os, "replace", torn_replace)
        assert cache.compact("s") == 0  # best-effort: reports nothing done
        monkeypatch.undo()
        assert _journal_lines(cache, "s") == before
        assert not list((tmp_path / "s").rglob("*.tmp"))
        assert cache.compact("s") > 0  # the retry completes the fold
        assert sorted(cache.manifest_keys("s")) == ["k0", "k1"]


class TestBulkIO:
    """put_many/get_many: a resolved batch costs one log write and one
    fsync, never one per point."""

    ENTRIES = [
        ("ab0000", {"i": 0}, 0),
        ("ab0001", {"i": 1}, 1),
        ("ab0002", {"i": 2}, 2),
        ("cd0000", {"i": 3}, 3),
        ("cd0001", {"i": 4}, 4),
    ]

    def test_put_many_matches_scalar_puts(self, tmp_path):
        scalar, bulk = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
        for key, params, value in self.ENTRIES:
            scalar.put("s", key, params, value)
        assert bulk.put_many("s", self.ENTRIES) == len(self.ENTRIES)
        # Entry sizes can differ by a byte (timestamp width), so compare
        # the indexed key sets, not the byte column.
        assert sorted(scalar.manifest("s")) == sorted(bulk.manifest("s"))
        for key, _, value in self.ENTRIES:
            got, hit = bulk.get("s", key)
            assert hit and got == value

    def test_put_many_one_write_one_fsync(self, tmp_path, monkeypatch):
        import repro.runner.cache as cache_mod

        cache = ResultCache(tmp_path)
        cache.put("s", "zz", {}, 0)  # the log exists: one open, no mkdir
        calls = []

        def counting(name):
            real = getattr(os, name)

            def step(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return step

        for name in ("open", "write", "fsync", "mkdir", "replace"):
            monkeypatch.setattr(cache_mod.os, name, counting(name))
        cache.put_many("s", self.ENTRIES, batch=True)
        monkeypatch.undo()
        # 5 entries: one open of the log, one write, one fsync.
        assert sorted(calls) == ["fsync", "open", "write"]
        assert sorted(cache.manifest_keys("s")) == sorted(
            [k for k, _, _ in self.ENTRIES] + ["zz"]
        )

    def test_put_many_stamps_batch_provenance(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many("s", self.ENTRIES, batch=True)
        assert cache.stats().batch_entries == len(self.ENTRIES)

    def test_get_many_returns_hits_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many("s", self.ENTRIES)
        keys = [k for k, _, _ in self.ENTRIES]
        hits = cache.get_many("s", keys + ["ab9999", "ee0000"])
        assert hits == {k: v for k, _, v in self.ENTRIES}

    def test_stats_fold_is_memoized_on_snapshot(self, tmp_path, monkeypatch):
        """Repeated index reads of an unchanged log cost one fstat,
        not a re-read+re-fold, and a grown log is read from where the
        index stopped."""
        import repro.runner.cache as cache_mod

        cache = ResultCache(tmp_path)
        cache.put_many("s", self.ENTRIES)
        first = cache.stats()
        size = cache.log_path("s").stat().st_size

        reads = []
        original = os.pread

        def counting(fd, n, offset):
            reads.append((n, offset))
            return original(fd, n, offset)

        monkeypatch.setattr(cache_mod.os, "pread", counting)
        assert cache.stats() == first
        assert reads == []  # folds served from memo
        cache.put("s", "ab0077", {}, 7)
        reads.clear()
        assert cache.stats().entries == first.entries + 1
        assert reads and min(offset for _, offset in reads) >= size - 32
        monkeypatch.undo()


#: Appends 500 single-entry commits, re-putting a churn key in
#: between so the log always has dead records to compact away.
_APPENDER = """
import sys
from repro.runner import ResultCache
cache = ResultCache(sys.argv[1])
for i in range(500):
    cache.put("s", f"w{i:03d}", {"i": i}, i)
    cache.put("s", "churn", {}, i)
"""

#: Compacts (and salvage-rebuilds) the same log in a loop until the
#: appender is done; prints how many rewrites it made.
_COMPACTOR = """
import os, sys
from repro.runner import ResultCache
cache = ResultCache(sys.argv[1])
rewrites = 0
while not os.path.exists(sys.argv[2]):
    rewrites += cache.compact("s") > 0
    cache.rebuild_manifest("s")
    rewrites += 1
print(rewrites)
"""


class TestLogInvariants:
    """The log's crash and concurrency guarantees."""

    def test_compaction_racing_appends_loses_nothing(self, tmp_path):
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        cache = ResultCache(tmp_path / "cache")
        cache.put("s", "seed", {}, -1)
        done = tmp_path / "appender-done"
        compactor = subprocess.Popen(
            [sys.executable, "-c", _COMPACTOR, str(cache.root), str(done)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            subprocess.run(
                [sys.executable, "-c", _APPENDER, str(cache.root)],
                env=env, check=True, timeout=120,
            )
        finally:
            done.touch()
            out, _ = compactor.communicate(timeout=120)
        assert compactor.returncode == 0
        assert int(out) > 0  # the log really was rewritten under the appender
        expected = {f"w{i:03d}": i for i in range(500)}
        expected.update(seed=-1, churn=499)
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get_many("s", expected) == expected
        assert fresh.manifest_keys("s") == set(expected)

    def test_torn_tail_costs_only_the_torn_record(self, tmp_path):
        """Truncate the log mid-record (a writer killed mid-write), then
        commit again: the new records and every complete old one read
        back, the torn one is a miss, and the next write starts on a
        fresh line."""
        cache = ResultCache(tmp_path)
        old = [(f"k{i}", {"i": i}, {"v": [i] * 3}) for i in range(5)]
        cache.put_many("s", old)
        log = cache.log_path("s")
        data = log.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        cut = last + (len(data) - last) // 2
        with open(log, "r+b") as fh:
            fh.truncate(cut)
        assert not log.read_bytes().endswith(b"\n")

        reader = ResultCache(tmp_path)
        assert reader.manifest_keys("s") == {"k0", "k1", "k2", "k3"}
        new = [("n0", {}, 10), ("n1", {}, 11)]
        assert ResultCache(tmp_path).put_many("s", new) == 2
        lines = log.read_bytes().splitlines()
        assert len(lines) == 7  # 4 complete, 1 torn, 2 new
        for line in lines[:4] + lines[5:]:
            json.loads(line)
        want = {k: v for k, _, v in old[:4] + new}
        for handle in (reader, ResultCache(tmp_path)):  # warm and cold
            assert handle.get_many("s", [k for k, _, _ in old + new]) == want
            assert handle.get("s", "k4") == (None, False)

    def test_threads_share_one_handle(self, tmp_path):
        """Reader threads and a writer on one ResultCache (the serve
        daemon's shape): lookups only ever see valid records, so
        nothing is healed away."""
        cache = ResultCache(tmp_path)
        expected = {f"k{i:03d}": i for i in range(300)}
        stop = threading.Event()
        wrong = []

        def reader():
            while not stop.is_set():
                hits = cache.get_many("s", expected)
                wrong.extend(k for k, v in hits.items() if v != expected[k])
                cache.stats()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-scan
        try:
            for thread in threads:
                thread.start()
            for key, value in expected.items():
                cache.put("s", key, {}, value)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert '"op":"del"' not in cache.log_path("s").read_text()
        assert cache.get_many("s", expected) == expected
