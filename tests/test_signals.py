"""Graceful interruption of in-flight CLI sweeps.

SIGINT and SIGTERM of a ``python -m repro sweep`` subprocess must tear
the worker pool down (no orphaned processes), exit with the
conventional 130/143 code, leave the sweep's cache manifest
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
    for path in sorted(Path(cache_dir, "fig10").glob("*/*.json")):
        record = json.loads(path.read_text())
        record.pop("created", None)
        out[path.name] = record
    return out


def _wait_for_entries(cache_dir, n, deadline_s=30.0):
    """Block until ``n`` completed points have been cached."""
    deadline = time.monotonic() + deadline_s
    target = Path(cache_dir, "fig10")
    while time.monotonic() < deadline:
        if len(list(target.glob("*/*.json"))) >= n:
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

        # The journals survived the interrupt well-formed: every line
        # parses, no duplicate puts, and each put names a real entry
        # (one manifest per shard directory touched).
        def journal_records(root):
            return [
                json.loads(line)
                for manifest in sorted(root.glob("*/MANIFEST.jsonl"))
                for line in manifest.read_text().splitlines()
                if line.strip()
            ]

        records = journal_records(interrupted / "fig10")
        puts = [r["key"] for r in records if r["op"] == "put"]
        assert len(puts) == len(set(puts)) >= 2
        for key in puts:
            assert (interrupted / "fig10" / key[:2] / f"{key}.json").is_file()
        done_before = len(puts)

        # --resume completes only the remainder, byte-identically.
        result = subprocess.run(
            _sweep_cmd(interrupted, "--resume"),
            env=ENV, timeout=120, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert _entry_shapes(interrupted) == reference
        again = journal_records(interrupted / "fig10")
        final_puts = {r["key"] for r in again if r["op"] == "put"}
        assert len(final_puts) == 21 and set(puts) <= final_puts
        assert done_before < 21  # the interrupt really landed mid-sweep


class _Terminated(BaseException):
    """Raised by the SIGTERM handler the CLI-style test installs."""


def _raise_terminated(signum, frame):  # noqa: ARG001
    raise _Terminated()


class TestCommitHoldsSignals:
    """A signal landing at any step of a ``put_many`` commit is
    delivered only once the commit is whole: every entry file on disk
    has its journal ``put`` record and no temp file is left behind."""

    #: Two entries in each of three shards.
    ENTRIES = [
        (f"{prefix}{i:04d}", {"i": i}, i)
        for prefix in ("ab", "cd", "ef")
        for i in range(2)
    ]
    STEPS = ("replace", "write", "fsync")

    def _commit(self, root, monkeypatch, signo=None, at=None):
        """Commit ``ENTRIES`` with every cache ``os`` step counted;
        after the ``at``-th step, send ``signo`` to this process.
        Returns the number of steps taken."""
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
        assert steps == 12  # 6 entry renames, 3 appends, 3 fsyncs
        previous = signal.signal(signo, handler)
        try:
            for at in range(1, steps + 1):
                root = tmp_path / f"step{at}"
                with pytest.raises(expected):
                    self._commit(root, monkeypatch, signo, at)
                entries = {p.stem for p in root.glob("s/*/*.json")}
                journaled = {
                    record["key"]
                    for manifest in root.glob("s/*/MANIFEST.jsonl")
                    for record in map(json.loads,
                                      manifest.read_text().splitlines())
                    if record["op"] == "put"
                }
                assert entries <= journaled, f"unjournaled after step {at}"
                assert entries == {k for k, _, _ in self.ENTRIES}
                assert not list(root.rglob("*.tmp"))
        finally:
            signal.signal(signo, previous)
