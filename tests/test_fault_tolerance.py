"""Tests for the fault-tolerance layer (ISSUE 7).

Covers the tentpole surface: RetryPolicy determinism and validation,
per-point timeouts, the max-failures circuit breaker with its
structured report, quarantine lifecycle in the cache manifest, the
ChaosBackend fault injector (including real worker SIGKILLs healed by
the persistent pool), the byte-invisibility of the inert policy, and
crash recovery of a sweep whose worker is killed externally mid-run.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    ChaosBackend,
    ChaosFault,
    ChaosSpec,
    CircuitOpenError,
    ResultCache,
    RetryPolicy,
    Sweep,
    SweepPointError,
    create_backend,
    run_sweep,
)
from repro.runner.backends.chaos import decide

BACKEND_NAMES = ("serial", "process", "persistent")


def _square_point(params):
    return {"x": params["x"], "square": params["x"] ** 2}


def _slow_point(params):
    time.sleep(params.get("sleep", 0.05))
    return {"x": params["x"]}


def _sweep(n=8, name="ft", fn=_square_point, **extra):
    return Sweep(
        name=name, run_fn=fn, points=tuple({"x": x, **extra} for x in range(n))
    )


def _entry_shapes(cache, sweep):
    """Every live entry minus its write timestamp, for byte-identity."""
    out = {}
    for entry in cache.entries(sweep):
        entry.pop("created")
        out[entry["key"]] = entry
    return out


class TestRetryPolicy:
    def test_inert_by_default(self):
        assert not RetryPolicy().active
        assert RetryPolicy(retries=1).active
        assert RetryPolicy(timeout=1.0).active
        assert RetryPolicy(max_failures=1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"backoff": -0.1},
            {"jitter": 1.5},
            {"timeout": 0.0},
            {"max_failures": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(retries=4, backoff=0.1, backoff_cap=0.3, seed=7)
        delays = [policy.delay(r, "sweep-a") for r in (1, 2, 3, 4)]
        assert delays == [policy.delay(r, "sweep-a") for r in (1, 2, 3, 4)]
        for round_no, delay in enumerate(delays, start=1):
            base = min(0.1 * 2 ** (round_no - 1), 0.3)
            assert base * (1 - policy.jitter) <= delay <= base
        # distinct sweeps desynchronize, distinct seeds too
        assert policy.delay(1, "sweep-b") != delays[0]
        assert RetryPolicy(retries=4, seed=8).delay(1, "sweep-a") != delays[0]

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(retries=3, backoff=0.2, backoff_cap=10.0, jitter=0.0)
        assert [policy.delay(r) for r in (1, 2, 3)] == [0.2, 0.4, 0.8]


class TestChaosSpec:
    def test_parse_roundtrip(self):
        spec = ChaosSpec.parse("fail=0.2,hang=0.1,crash=0.05,hang_s=2,seed=7,sticky=3")
        assert spec == ChaosSpec(
            fail=0.2, hang=0.1, crash=0.05, hang_s=2.0, seed=7, sticky=3
        )
        assert ChaosSpec.parse("fail=0.5,sticky=permanent").sticky == -1
        assert not ChaosSpec.parse("").active

    @pytest.mark.parametrize("arg", ["fail", "bogus=1", "fail=2.0", "sticky=0"])
    def test_parse_rejects(self, arg):
        with pytest.raises(ValueError):
            ChaosSpec.parse(arg)

    def test_decide_is_deterministic_and_attempt_free(self):
        spec = ChaosSpec(fail=0.5, seed=3)
        points = [{"x": i} for i in range(64)]
        first = [decide(spec, p, 0) for p in points]
        assert first == [decide(spec, p, 0) for p in points]
        assert any(first) and not all(first)  # some faulty, some not
        # sticky=1: every fault clears on attempt 1
        assert all(decide(spec, p, 1) is None for p in points)
        # permanent: never clears
        perm = ChaosSpec(fail=0.5, seed=3, sticky=-1)
        assert [decide(perm, p, 9) for p in points] == first

    def test_severity_order(self):
        spec = ChaosSpec(fail=1.0, hang=1.0, crash=1.0, seed=0)
        assert decide(spec, {"x": 1}, 0) == "crash"


class TestByteInvisibility:
    """The inert policy must not change a single backend call."""

    def test_default_run_issues_historic_map_calls(self):
        calls = []

        class SpyBackend:
            jobs = 1

            def map(self, fn, items, **kwargs):
                calls.append(kwargs)
                from repro.runner.backends.base import run_one

                for params in items:
                    yield run_one(fn, params)

            def close(self):
                pass

        run_sweep(_sweep(), backend=SpyBackend())
        run_sweep(_sweep(), backend=SpyBackend(), retry=RetryPolicy())
        assert calls == [{}, {}]  # no new keywords on the historic path

    def test_transient_chaos_converges_byte_identical(self, tmp_path):
        clean_cache = ResultCache(tmp_path / "clean")
        clean = run_sweep(_sweep(), cache=clean_cache, code="v")
        for name in BACKEND_NAMES:
            chaos_cache = ResultCache(tmp_path / f"chaos-{name}")
            with create_backend(name, jobs=3) as inner:
                backend = ChaosBackend(
                    inner=inner, spec=ChaosSpec(fail=0.4, seed=5)
                )
                result = run_sweep(
                    _sweep(), cache=chaos_cache, code="v", backend=backend,
                    retry=RetryPolicy(retries=2, backoff=0.001),
                    on_error="keep",
                )
            assert result.errors == 0
            assert [o.key for o in result.outcomes] == [
                o.key for o in clean.outcomes
            ]
            assert [o.value for o in result.outcomes] == [
                o.value for o in clean.outcomes
            ]
            assert _entry_shapes(chaos_cache, "ft") == _entry_shapes(
                clean_cache, "ft"
            )
            assert sorted(chaos_cache.manifest("ft")) == sorted(
                clean_cache.manifest("ft")
            )

    def test_crash_injection_heals_persistent_pool(self, tmp_path):
        clean = run_sweep(_sweep(16), code="v")
        with create_backend("persistent", jobs=3) as inner:
            backend = ChaosBackend(
                inner=inner, spec=ChaosSpec(crash=0.2, fail=0.1, seed=11)
            )
            result = run_sweep(
                _sweep(16), code="v", backend=backend,
                retry=RetryPolicy(retries=3, backoff=0.001), on_error="keep",
            )
            respawns = inner.respawns
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]
        assert respawns > 0  # the kills were real


class TestTimeout:
    @pytest.mark.parametrize("name", ("process", "persistent"))
    def test_hang_reaped_and_retried(self, name):
        """A hang far longer than the timeout costs ~timeout, and the
        sticky=1 retry computes the correct value."""
        clean = run_sweep(_sweep(8), code="v")
        with create_backend(name, jobs=3) as inner:
            backend = ChaosBackend(
                inner=inner, spec=ChaosSpec(hang=0.4, hang_s=30.0, seed=7)
            )
            start = time.perf_counter()
            result = run_sweep(
                _sweep(8), code="v", backend=backend,
                retry=RetryPolicy(retries=1, timeout=0.5, backoff=0.001),
                on_error="keep",
            )
            elapsed = time.perf_counter() - start
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]
        assert elapsed < 10.0  # nowhere near the 30 s hangs

    def test_timeout_without_retries_fails_the_point(self):
        with create_backend("process", jobs=2) as inner:
            backend = ChaosBackend(
                inner=inner, spec=ChaosSpec(hang=1.0, hang_s=30.0, seed=0)
            )
            result = run_sweep(
                _sweep(2), backend=backend,
                retry=RetryPolicy(timeout=0.3), on_error="keep",
            )
        assert result.errors == 2
        assert all(
            "PointTimeout" in o.error for o in result.outcomes
        )

    def test_serial_backend_ignores_timeout(self):
        # Documented: serial never interrupts a point.
        result = run_sweep(
            _sweep(2, fn=_slow_point, sleep=0.05), backend="serial",
            retry=RetryPolicy(timeout=0.001), on_error="keep",
        )
        assert result.errors == 0


class TestCircuitBreaker:
    def test_breaker_trips_with_structured_report(self, tmp_path):
        cache = ResultCache(tmp_path)
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        with pytest.raises(CircuitOpenError) as excinfo:
            run_sweep(
                _sweep(), cache=cache, code="v", backend=backend,
                retry=RetryPolicy(
                    retries=1, backoff=0.001, max_failures=2
                ),
                on_error="keep",
            )
        report = excinfo.value.report
        assert report.sweep == "ft"
        assert report.max_failures == 2
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure["attempts"] == 2
            assert "ChaosFault" in failure["error"]
        payload = report.to_dict()
        assert json.dumps(payload)  # structured and serialisable
        assert payload["total"] == 8
        assert "circuit breaker opened" in report.render()

    def test_breaker_never_trips_below_threshold(self):
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        result = run_sweep(
            _sweep(), backend=backend,
            retry=RetryPolicy(retries=1, backoff=0.001, max_failures=100),
            on_error="keep",
        )
        assert 0 < result.errors < 8

    def test_on_error_raise_still_wins(self):
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        with pytest.raises(SweepPointError):
            run_sweep(
                _sweep(), backend=backend,
                retry=RetryPolicy(retries=1, backoff=0.001, max_failures=2),
            )


class TestQuarantine:
    def _fail_permanently(self, cache, max_failures=None):
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        return run_sweep(
            _sweep(), cache=cache, code="v", backend=backend,
            retry=RetryPolicy(
                retries=1, backoff=0.001, max_failures=max_failures
            ),
            on_error="keep",
        )

    def test_exhausted_retries_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = self._fail_permanently(cache)
        quarantined = cache.quarantined("ft")
        assert len(quarantined) == result.errors > 0
        for record in quarantined.values():
            assert record["op"] == "quarantine"
            assert "ChaosFault" in record["error"]
            assert "x" in record["params"]
        # quarantined keys are not in the live index and have no file
        assert not set(quarantined) & set(cache.manifest("ft"))
        stats = cache.stats()
        assert stats.quarantined == len(quarantined)
        assert stats.per_sweep == (("ft", stats.entries, stats.quarantined),)

    def test_no_quarantine_without_retry_budget(self, tmp_path):
        """retries=0 keeps the historic contract: failed points stay
        uncached and unquarantined, resume recomputes them."""
        cache = ResultCache(tmp_path)
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        result = run_sweep(
            _sweep(), cache=cache, code="v", backend=backend, on_error="keep"
        )
        assert result.errors > 0
        assert cache.quarantined("ft") == {}

    def test_resume_skips_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = self._fail_permanently(cache)
        result = run_sweep(
            _sweep(), cache=cache, code="v", resume=True, on_error="keep",
            retry=RetryPolicy(retries=1, backoff=0.001),
        )
        assert result.quarantined == first.errors
        assert result.errors == 0
        assert result.misses == 0  # nothing recomputed
        assert result.hits == 8 - first.errors
        statuses = {o.status for o in result.outcomes}
        assert statuses == {"ok", "quarantined"}

    def test_retry_quarantined_clears_on_success(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = self._fail_permanently(cache)
        assert cache.quarantined("ft")
        # clean backend this time: the points compute and clear
        result = run_sweep(
            _sweep(), cache=cache, code="v", resume=True,
            retry_quarantined=True,
            retry=RetryPolicy(retries=1, backoff=0.001), on_error="keep",
        )
        assert result.errors == result.quarantined == 0
        assert result.misses == first.errors
        assert cache.quarantined("ft") == {}
        assert cache.stats().quarantined == 0
        assert len(cache.manifest("ft")) == 8

    def test_quarantine_survives_manifest_rebuild(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fail_permanently(cache)
        before = cache.quarantined("ft")
        assert before
        live = cache.manifest_keys("ft")
        # tear the log: a garbage line, then a torn tail
        with open(cache.log_path("ft"), "a") as handle:
            handle.write('{torn-line\n{"op":"quarantine","key":"x","par')
        fresh = ResultCache(tmp_path)
        assert fresh.quarantined("ft") == before  # salvaged, not amnestied
        assert fresh.manifest_keys("ft") == live  # live index salvaged too
        fresh.rebuild_manifest("ft")  # the forced salvage keeps them
        assert ResultCache(tmp_path).quarantined("ft") == before
        assert ResultCache(tmp_path).manifest_keys("ft") == live

    def test_breaker_leaves_quarantine_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CircuitOpenError):
            self._fail_permanently(cache, max_failures=2)
        assert len(cache.quarantined("ft")) == 2


class TestCrashRecovery:
    """Acceptance: kill -9 of a worker mid-sweep costs only requeues."""

    def test_external_sigkill_mid_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = _sweep(16, fn=_slow_point, sleep=0.05)
        clean = run_sweep(sweep, code="v")
        killed = []

        with create_backend("persistent", jobs=2) as backend:
            def assassin(event):
                if not killed and event.index >= 1:
                    victims = backend.worker_pids()
                    os.kill(victims[0], signal.SIGKILL)
                    killed.append(victims[0])

            result = run_sweep(
                sweep, cache=cache, code="v", backend=backend,
                progress=assassin,
            )
            assert killed, "test never fired the kill"
            assert backend.respawns >= 1

        # the sweep completed correctly despite the murder
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]
        # log integrity: parsable, no torn lines, no duplicates
        lines = cache.log_path("ft").read_text().splitlines()
        records = [json.loads(line) for line in lines if line.strip()]
        put_keys = [r["key"] for r in records if r["op"] == "put"]
        assert len(put_keys) == len(set(put_keys)) == 16
        # resume recomputes nothing
        again = run_sweep(sweep, cache=cache, code="v", resume=True)
        assert again.hits == 16 and again.misses == 0


class TestHypothesisConvergence:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fail=st.floats(min_value=0.0, max_value=0.9),
        sticky=st.integers(min_value=1, max_value=2),
    )
    def test_transient_chaos_always_converges(self, seed, fail, sticky):
        """Property: any transient profile with enough retries produces
        exactly the failure-free outcome."""
        sweep = _sweep(6, name="hyp")
        clean = run_sweep(sweep, code="v")
        backend = ChaosBackend(
            inner="serial",
            spec=ChaosSpec(fail=fail, seed=seed, sticky=sticky),
        )
        result = run_sweep(
            sweep, code="v", backend=backend,
            retry=RetryPolicy(retries=sticky, backoff=0.0, jitter=0.0),
            on_error="keep",
        )
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]


class TestAlarmGuard:
    """run_one's SIGALRM bracket must not clobber a caller's alarm."""

    @pytest.fixture(autouse=True)
    def _pristine_sigalrm(self):
        handler = signal.getsignal(signal.SIGALRM)
        yield
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, handler)

    def test_preexisting_handler_and_timer_survive_guarded_point(self):
        from repro.runner.backends.base import run_one

        fired = []

        def user_handler(signum, frame):
            fired.append(signum)

        signal.signal(signal.SIGALRM, user_handler)
        signal.setitimer(signal.ITIMER_REAL, 60.0)

        task = run_one(_square_point, {"x": 3}, timeout=5.0)
        assert task.error is None and task.value["square"] == 9

        # The displaced handler is back, and the caller's 60s alarm is
        # re-armed with (roughly) the time it had left.
        assert signal.getsignal(signal.SIGALRM) is user_handler
        remaining = signal.setitimer(signal.ITIMER_REAL, 0.0)[0]
        assert 55.0 < remaining <= 60.0
        assert not fired

    def test_user_alarm_due_during_point_still_fires(self):
        from repro.runner.backends.base import run_one

        fired = []

        def user_handler(signum, frame):
            fired.append(time.monotonic())

        signal.signal(signal.SIGALRM, user_handler)
        signal.setitimer(signal.ITIMER_REAL, 0.1)

        # The point outlives the caller's alarm; the guard owns the
        # single ITIMER_REAL meanwhile, then re-arms the displaced
        # alarm floored at a tick so it fires promptly afterwards.
        task = run_one(_slow_point, {"x": 1, "sleep": 0.3}, timeout=5.0)
        assert task.error is None
        deadline = time.monotonic() + 2.0
        while not fired and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fired, "displaced alarm never fired after the point"

    def test_timeout_still_enforced_with_displaced_handler(self):
        from repro.runner.backends.base import run_one

        signal.signal(signal.SIGALRM, lambda s, f: None)
        task = run_one(_slow_point, {"x": 1, "sleep": 5.0}, timeout=0.2)
        assert task.error is not None and "PointTimeout" in task.error
