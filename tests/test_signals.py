"""Graceful interruption of in-flight CLI sweeps.

SIGINT and SIGTERM of a ``python -m repro sweep`` subprocess must tear
the worker pool down (no orphaned processes), exit with the
conventional 130/143 code, leave the sweep's cache log
well-formed, and let ``--resume`` finish the campaign with results
byte-identical to an uninterrupted run.  In process, a signal landing
at any step of a cache commit is delivered only after the commit.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import ResultCache

REPO = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

#: Injected per-point hang: every fig10 point sleeps this long before
#: completing with its correct value, so the campaign is reliably
#: in-flight when the signal lands (21 points ≈ 21s on 2 workers).
HANG_S = 2.0
CHAOS = f"hang=1,hang_s={HANG_S:g},seed=0"


def _sweep_cmd(cache_dir, *extra):
    return [
        sys.executable, "-m", "repro", "sweep", "fig10",
        "--cache-dir", str(cache_dir), "--scale", "8",
        "--backend", "persistent", "--jobs", "2", "--quiet", *extra,
    ]


def _entry_shapes(cache_dir):
    """Every fig10 entry minus its write timestamp, for byte-identity."""
    out = {}
    for record in ResultCache(cache_dir).entries("fig10"):
        record.pop("created", None)
        out[record["key"]] = record
    return out


def _log_records(cache_dir, sweep):
    """Every line of a sweep's log, parsed (a torn line fails)."""
    log = ResultCache(cache_dir).log_path(sweep)
    text = log.read_text() if log.exists() else ""
    assert not text or text.endswith("\n"), "torn tail"
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _wait_for_entries(cache_dir, n, deadline_s=30.0):
    """Block until ``n`` completed points have been cached."""
    deadline = time.monotonic() + deadline_s
    cache = ResultCache(cache_dir)
    while time.monotonic() < deadline:
        if len(cache.manifest_keys("fig10")) >= n:
            return
        time.sleep(0.05)
    raise AssertionError(f"no {n} cache entries within {deadline_s}s")


def _assert_group_gone(pgid, deadline_s=10.0):
    """The sweep process group (CLI + pool workers) fully exited."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned processes survive in group {pgid}")


class TestInterruptedSweep:
    @pytest.mark.parametrize(
        "signo,code",
        [(signal.SIGINT, 130), (signal.SIGTERM, 143)],
        ids=["sigint", "sigterm"],
    )
    def test_interrupt_then_resume_byte_identical(
        self, tmp_path, signo, code
    ):
        interrupted = tmp_path / "interrupted"
        clean = tmp_path / "clean"

        # Uninterrupted reference run (no chaos: the hang only delays,
        # never changes values, so the caches must end up identical).
        subprocess.run(
            _sweep_cmd(clean), env=ENV, check=True, timeout=120,
            capture_output=True,
        )
        reference = _entry_shapes(clean)
        assert len(reference) == 21

        proc = subprocess.Popen(
            _sweep_cmd(interrupted, "--chaos", CHAOS),
            env=ENV, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _wait_for_entries(interrupted, 2)
            proc.send_signal(signo)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)

        assert proc.returncode == code, err
        assert "rerun with --resume" in err
        _assert_group_gone(proc.pid)

        # The log survived the interrupt well-formed: every line
        # parses, no duplicate puts, and every put is readable.
        records = _log_records(interrupted, "fig10")
        puts = [r["key"] for r in records if r["op"] == "put"]
        assert len(puts) == len(set(puts)) >= 2
        hits = ResultCache(interrupted).get_many("fig10", puts)
        assert sorted(hits) == sorted(puts)
        done_before = len(puts)

        # --resume completes only the remainder, byte-identically.
        result = subprocess.run(
            _sweep_cmd(interrupted, "--resume"),
            env=ENV, timeout=120, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert _entry_shapes(interrupted) == reference
        again = _log_records(interrupted, "fig10")
        final_puts = {r["key"] for r in again if r["op"] == "put"}
        assert len(final_puts) == 21 and set(puts) <= final_puts
        assert done_before < 21  # the interrupt really landed mid-sweep


class _Terminated(BaseException):
    """Raised by the SIGTERM handler the CLI-style test installs."""


def _raise_terminated(signum, frame):  # noqa: ARG001
    raise _Terminated()


class TestCommitHoldsSignals:
    """A signal landing at any step of a ``put_many`` commit is
    delivered only once the commit is whole: every value of the commit
    is readable, the log ends on a complete record, and no temp file is
    left behind."""

    ENTRIES = [
        (f"{prefix}{i:04d}", {"i": i}, i)
        for prefix in ("ab", "cd", "ef")
        for i in range(2)
    ]
    #: Every ``os`` call a commit into an existing log makes.
    STEPS = ("open", "fstat", "stat", "pread", "write", "fsync", "close")

    def _commit(self, root, monkeypatch, signo=None, at=None):
        """Commit ``ENTRIES`` into a log holding one earlier record,
        with every cache ``os`` step counted; after the ``at``-th step,
        send ``signo`` to this process.  Returns the number of steps
        taken."""
        ResultCache(root).put("s", "seed", {}, -1)
        calls = [0]

        def hook(real):
            def step(*args, **kwargs):
                result = real(*args, **kwargs)
                calls[0] += 1
                if calls[0] == at:
                    os.kill(os.getpid(), signo)
                return result
            return step

        with monkeypatch.context() as patch:
            for name in self.STEPS:
                patch.setattr(os, name, hook(getattr(os, name)))
            ResultCache(root).put_many("s", self.ENTRIES)
        return calls[0]

    @pytest.mark.parametrize(
        "signo,handler,expected",
        [
            (signal.SIGINT, signal.default_int_handler, KeyboardInterrupt),
            (signal.SIGTERM, _raise_terminated, _Terminated),
        ],
        ids=["sigint", "sigterm"],
    )
    def test_signal_at_every_commit_step(
        self, tmp_path, monkeypatch, signo, handler, expected
    ):
        steps = self._commit(tmp_path / "dry", monkeypatch)
        # open, lock check (fstat + stat), tail check (fstat + pread),
        # one write, one fsync, close
        assert steps == 8
        expected_values = {"seed": -1, **{k: v for k, _, v in self.ENTRIES}}
        previous = signal.signal(signo, handler)
        try:
            for at in range(1, steps + 1):
                root = tmp_path / f"step{at}"
                with pytest.raises(expected):
                    self._commit(root, monkeypatch, signo, at)
                records = _log_records(root, "s")
                assert len(records) == 7, f"torn log after step {at}"
                hits = ResultCache(root).get_many("s", expected_values)
                assert hits == expected_values, f"lost values after step {at}"
                assert not list(root.rglob("*.tmp"))
        finally:
            signal.signal(signo, previous)


#: A pool-owning process with the CLI's kind of SIGTERM handler: it
#: starts a 2-worker persistent pool 20 times, terminates each one
#: mid-map and prints every worker pid it saw.  The points return large
#: values, so a worker that unwinds on SIGTERM instead of dying blocks
#: flushing its result queue and hangs the pool's join.
_TERMINATE_SCRIPT = """
import signal
from repro.runner.backends import create_backend

class Terminated(BaseException):
    pass

def on_sigterm(signum, frame):
    raise Terminated()

signal.signal(signal.SIGTERM, on_sigterm)
pids = []
for _ in range(20):
    backend = create_backend("persistent", 2)
    results = backend.map(
        bulky_points.bulky, [{"x": i} for i in range(64)]
    )
    next(results)
    pids.extend(backend.worker_pids())
    backend.terminate()
print(" ".join(map(str, pids)))
"""


class TestPoolWorkersDefaultSigterm:
    def test_terminate_mid_map_under_raising_handler(self, tmp_path):
        (tmp_path / "bulky_points.py").write_text(
            "def bulky(params):\n"
            "    return str(params['x']) * 200_000\n"
        )
        env = {
            **ENV,
            "PYTHONPATH": os.pathsep.join([ENV["PYTHONPATH"], str(tmp_path)]),
        }
        proc = subprocess.Popen(
            [sys.executable, "-c", "import bulky_points\n" + _TERMINATE_SCRIPT],
            env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise AssertionError("terminate() hung on a worker")
        assert proc.returncode == 0, err
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 40
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
