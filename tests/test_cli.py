"""End-to-end tests for the ``python -m repro`` command line.

Everything goes through :func:`repro.__main__.main` with an explicit
argv, asserting exit codes, ``--backend``/``--resume``/``--keep-going``
plumbing, and the human-readable output the CI smoke jobs grep for.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main as cli_main
from repro.runner import ResultCache


def _sweep_argv(tmp_path, *extra):
    return [
        "sweep", "maxreuse", "--cache-dir", str(tmp_path), "--quiet", *extra
    ]


class TestExitCodes:
    def test_list_is_zero(self, capsys):
        assert cli_main([]) == 0
        out = capsys.readouterr().out
        assert "Available experiments" in out and "--backend" in out

    def test_unknown_experiment_is_two(self, capsys):
        assert cli_main(["sweep", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_bad_backend_is_two(self, tmp_path, capsys):
        assert cli_main(_sweep_argv(tmp_path, "--backend", "quantum")) == 2

    def test_resume_without_cache_is_two(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path, "--resume", "--no-cache")
        assert cli_main(argv) == 2
        assert "--resume needs the cache" in capsys.readouterr().out

    def test_sweep_help_is_zero(self, capsys):
        with pytest.MonkeyPatch.context():
            assert cli_main(["sweep", "--help"]) == 0
        assert "--backend" in capsys.readouterr().out

    def test_bad_cache_action_is_two(self, tmp_path):
        assert cli_main(["cache", "explode", "--cache-dir", str(tmp_path)]) == 2


class TestBackendPlumbing:
    @pytest.mark.parametrize("backend", ["serial", "process", "persistent"])
    def test_backend_runs_and_stamps(self, backend, tmp_path, capsys):
        argv = _sweep_argv(tmp_path, "--backend", backend, "--jobs", "2")
        assert cli_main(argv) == 0
        assert "maxreuse: 0 cached, 1 computed" in capsys.readouterr().out
        # The explicit backend is stamped into the cached entry's params.
        [entry] = ResultCache(tmp_path).entries("maxreuse")
        assert entry["params"]["backend"] == backend

    def test_backends_keep_separate_cache_namespaces(self, tmp_path, capsys):
        for backend in ("serial", "process"):
            assert cli_main(_sweep_argv(tmp_path, "--backend", backend)) == 0
        capsys.readouterr()
        assert len(list(ResultCache(tmp_path).entries("maxreuse"))) == 2

    def test_auto_backend_leaves_points_unstamped(self, tmp_path, capsys):
        assert cli_main(_sweep_argv(tmp_path)) == 0
        capsys.readouterr()
        [entry] = ResultCache(tmp_path).entries("maxreuse")
        assert "backend" not in entry["params"]

    def test_warm_rerun_is_fully_cached(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path, "--backend", "persistent")
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert "maxreuse: 1 cached, 0 computed" in capsys.readouterr().out


class TestResume:
    def test_resume_recomputes_only_missing(self, tmp_path, capsys):
        """Simulate a killed run: drop one entry and ``--resume`` must
        recompute exactly that point."""
        argv = ["sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet"]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        cache = ResultCache(tmp_path)
        keys = sorted(cache.manifest_keys("bounds"))
        assert len(keys) >= 2
        assert cache.discard("bounds", keys[:1]) == 1

        assert cli_main([*argv, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert f"bounds: {len(keys) - 1} cached, 1 computed" in resumed
        # The published table is identical to the uninterrupted run's.
        strip = lambda out: [  # noqa: E731
            line for line in out.splitlines() if " in " not in line
        ]
        assert strip(resumed) == strip(cold)

    def test_resume_on_complete_cache_computes_nothing(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path)
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main([*argv, "--resume"]) == 0
        assert "maxreuse: 1 cached, 0 computed" in capsys.readouterr().out


class TestCacheCommand:
    def test_info_reports_manifest_counts(self, tmp_path, capsys):
        ResultCache(tmp_path).put("s", "k", {}, 1)
        assert cli_main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 1" in out and "sweeps    : s" in out

    def test_info_never_opens_entry_files(self, tmp_path, capsys, monkeypatch):
        """Acceptance: ``cache info`` is an index read, not a glob."""
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put("s", f"k{i}", {"i": i}, i)

        def forbidden(self, *a, **k):
            raise AssertionError("cache info touched the entry files")

        monkeypatch.setattr(ResultCache, "entries", forbidden)
        monkeypatch.setattr(ResultCache, "rebuild_manifest", forbidden)
        assert cli_main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries   : 5" in capsys.readouterr().out

    def test_rebuild_restores_corrupt_manifest(self, tmp_path, capsys):
        """``cache rebuild`` salvages a log with a garbage line, a
        record of a stale format and a torn tail down to its valid
        records."""
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put("s", f"k{i}", {"i": i}, i)
        log = cache.log_path("s")
        stale = log.read_text().splitlines()[0].replace(
            '"key":"k0","format":1', '"key":"k8","format":7'
        )
        with open(log, "a") as fh:
            fh.write(f"torn{{garbage\n{stale}\n{{\"op\":\"put\",\"ke")
        assert cli_main(["cache", "rebuild", "--cache-dir", str(tmp_path)]) == 0
        assert "rebuilt manifests for 3 entries" in capsys.readouterr().out
        assert cache.stats().entries == 3
        assert len(log.read_text().splitlines()) == 3
        assert log.read_text().endswith("\n")

    def test_clear(self, tmp_path, capsys):
        ResultCache(tmp_path).put("s", "k", {}, 1)
        assert cli_main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert ResultCache(tmp_path).stats().entries == 0

    def test_compact_folds_dead_history(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        for _ in range(10):
            cache.put("s", "k", {}, 1)  # nine dead records
        assert cli_main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        assert "9 dead record(s) dropped" in capsys.readouterr().out
        assert len(cache.log_path("s").read_text().splitlines()) == 1
        value, hit = cache.get("s", "k")
        assert hit and value == 1

    def test_compact_includes_service_journal(self, tmp_path, capsys):
        from repro.service.journal import ServiceJournal

        ResultCache(tmp_path).put("s", "k", {}, 1)
        journal = ServiceJournal(tmp_path)
        journal.request("t1", "s", 4)
        journal.done("t1")
        assert cli_main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "compacted service journal: 2 record(s) dropped" in out
        assert journal.fold() == {}


class TestCacheEnvExport:
    """--cache-dir/--no-cache must also govern worker-side cached_call
    lookups (exported via the environment for the invocation), and the
    environment must be restored afterwards."""

    def test_cache_dir_reaches_cached_call(self, tmp_path, capsys):
        """The robustness baselines (cached_call inside the point fn)
        land under --cache-dir, not the default store."""
        import os

        default_store = os.environ["REPRO_CACHE_DIR"]  # set by conftest
        argv = [
            "sweep", "robustness", "--scale", "8", "--scenario",
            "dropout:0.25", "--cache-dir", str(tmp_path), "--quiet",
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "bench").is_dir()  # baselines under --cache-dir
        assert not list(ResultCache(default_store).entries())
        assert os.environ["REPRO_CACHE_DIR"] == default_store  # restored

    def test_enabled_cache_overrides_inherited_kill_switch(
        self, tmp_path, capsys, monkeypatch
    ):
        """REPRO_CACHE_DISABLE=1 left in the shell must not defeat an
        invocation that explicitly asks for caching."""
        import os

        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        argv = _sweep_argv(tmp_path)
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert ResultCache(tmp_path).stats().entries == 1  # cache used
        assert os.environ["REPRO_CACHE_DISABLE"] == "1"  # restored

    def test_no_cache_writes_no_baselines_anywhere(self, tmp_path, capsys):
        import os

        default_store = os.environ["REPRO_CACHE_DIR"]
        argv = [
            "sweep", "robustness", "--scale", "8", "--scenario",
            "dropout:0.25", "--cache-dir", str(tmp_path), "--no-cache",
            "--quiet",
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert not list(tmp_path.iterdir())
        assert not list(ResultCache(default_store).entries())
        assert "REPRO_CACHE_DISABLE" not in os.environ  # restored


class TestKeepGoing:
    def test_keep_going_reports_failures_and_exits_one(
        self, tmp_path, capsys, monkeypatch
    ):
        """A failing point under --keep-going yields the partial table,
        a failure count in the summary, and exit code 1."""
        import repro.experiments.bounds as bounds

        real_point = bounds._point

        def flaky(params):
            if params["m"] == bounds.DEFAULT_MEMORIES[1]:
                raise RuntimeError("injected failure")
            return real_point(params)

        monkeypatch.setattr(bounds, "_point", flaky)
        argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet",
            "--keep-going",
        ]
        assert cli_main(argv) == 1
        out = capsys.readouterr().out
        assert "(1 failed)" in out

    def test_default_aborts_with_exit_one(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.bounds as bounds

        def always_fail(params):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(bounds, "_point", always_fail)
        argv = ["sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet"]
        assert cli_main(argv) == 1
        assert "sweep failed" in capsys.readouterr().err

    def test_keep_going_summary_lists_failing_params(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments.bounds as bounds

        real_point = bounds._point

        def flaky(params):
            if params["m"] == bounds.DEFAULT_MEMORIES[1]:
                raise RuntimeError("injected failure")
            return real_point(params)

        monkeypatch.setattr(bounds, "_point", flaky)
        argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet",
            "--keep-going",
        ]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "did not produce results" in err
        assert f"'m': {bounds.DEFAULT_MEMORIES[1]}" in err
        assert "injected failure" in err


class TestFaultToleranceFlags:
    """--retries/--timeout/--max-failures/--chaos/--retry-quarantined."""

    def test_bad_chaos_spec_is_two(self, tmp_path, capsys):
        assert cli_main(_sweep_argv(tmp_path, "--chaos", "bogus=1")) == 2
        assert "bad --chaos" in capsys.readouterr().out

    def test_bad_retries_is_two(self, tmp_path, capsys):
        assert cli_main(_sweep_argv(tmp_path, "--retries", "-1")) == 2
        assert "bad arguments" in capsys.readouterr().out

    def test_retry_quarantined_requires_resume(self, tmp_path, capsys):
        assert cli_main(_sweep_argv(tmp_path, "--retry-quarantined")) == 2
        assert "--retry-quarantined" in capsys.readouterr().out

    def test_transient_chaos_with_retries_matches_clean_run(
        self, tmp_path, capsys
    ):
        """Acceptance: seeded transient chaos plus retries produces the
        clean run's table, cache keys, and exit code."""
        clean_dir, chaos_dir = tmp_path / "clean", tmp_path / "chaos"
        argv = ["sweep", "bounds", "--quiet"]
        assert cli_main([*argv, "--cache-dir", str(clean_dir)]) == 0
        clean_out = capsys.readouterr().out
        assert cli_main(
            [*argv, "--cache-dir", str(chaos_dir),
             "--chaos", "fail=0.4,seed=5", "--retries", "2"]
        ) == 0
        chaos_out = capsys.readouterr().out
        strip = lambda out: [  # noqa: E731
            line for line in out.splitlines() if " in " not in line
        ]
        assert strip(chaos_out) == strip(clean_out)
        assert sorted(ResultCache(clean_dir).manifest("bounds")) == sorted(
            ResultCache(chaos_dir).manifest("bounds")
        )

    def test_permanent_chaos_trips_breaker_then_resume_skips(
        self, tmp_path, capsys
    ):
        """Acceptance: a permanent profile trips the breaker with the
        structured report and quarantines; --resume then skips the
        quarantined points (exit 1 both times, the run is incomplete)."""
        argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet",
            "--chaos", "fail=0.4,seed=5,sticky=permanent",
            "--retries", "1", "--max-failures", "1",
        ]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "circuit breaker opened" in err and "attempts=2" in err
        quarantined = ResultCache(tmp_path).quarantined("bounds")
        assert len(quarantined) == 1

        assert cli_main(
            ["cache", "info", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "quarantined: 1 known-permanent" in capsys.readouterr().out

        resume_argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet",
            "--resume", "--keep-going",
        ]
        assert cli_main(resume_argv) == 1
        captured = capsys.readouterr()
        assert "(1 quarantined, skipped)" in captured.out
        assert "did not produce results" in captured.err

        # --retry-quarantined without chaos computes the point and clears
        assert cli_main([*resume_argv, "--retry-quarantined"]) == 0
        capsys.readouterr()
        assert ResultCache(tmp_path).quarantined("bounds") == {}

    def test_progress_shows_retry_and_failure_counts(
        self, tmp_path, capsys
    ):
        argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path),
            "--chaos", "fail=0.4,seed=5,sticky=permanent",
            "--retries", "1", "--keep-going",
        ]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "RETRYING" in err
        assert "FAILED" in err and "failed, 0 quarantined]" in err


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        """scipy is imported only by the functions that solve with it,
        so starting the CLI does not pay for it."""
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import sys\n"
            "import repro.__main__\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stdout + out.stderr
