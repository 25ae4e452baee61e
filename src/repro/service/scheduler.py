"""Campaign-level scheduling: batches, leases, fair interleaving.

The daemon funnels every client's sweep request through one
:class:`CampaignScheduler`, which owns the warm worker pool.  Each
request's cache-miss points are sliced into **batches**; a single
dispatcher thread drains the batch queues **round-robin across
sessions**, so two concurrent clients see their campaigns interleave
fairly over the shared fleet instead of queueing behind each other —
within a batch, the persistent pool still fans the points out over
every worker.

Each dispatched batch holds a **lease**: a deadline the batch must show
progress against, renewed (heartbeat) every time one of its points
resolves.  A batch whose lease expires — a worker wedged on a point
with no per-point timeout armed, a blocked I/O call, a livelocked
extension — has its pool workers killed, and the managed pool's
existing dead-worker healing requeues the in-flight work exactly as it
does for an external ``kill -9``; the pool's ``MAX_BATCH_REQUEUES``
guard keeps a genuinely poisonous batch from crash-looping forever.
Lease enforcement therefore needs real worker processes (``jobs >=
2``), the same caveat as per-point timeouts on the serial backend.

Batch leases and completions are journalled (:mod:`~repro.service.
journal`) *after* their results are in the result cache, so the
recovery invariant holds: anything the journal calls complete is
re-servable from cache, and a killed daemon owes only its leased,
uncompleted batches.
"""

from __future__ import annotations

import importlib
import os
import signal
import threading
import time
import traceback
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.runner.backends.base import PointFn, TaskResult
from repro.runner.cache import ResultCache
from repro.service.journal import ServiceJournal
from repro.service.session import Session

__all__ = ["CampaignScheduler"]


def resolve_token(token: Tuple[str, str]) -> PointFn:
    """Import-resolve a ``(module, qualname)`` point-function token."""
    module_name, qualname = token
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class _Batch:
    """One leased unit of work: a slice of a session's missing points."""

    __slots__ = ("session", "id", "indices", "deadline", "expiries")

    def __init__(self, session: Session, batch_id: int, indices: List[int]):
        self.session = session
        self.id = batch_id
        self.indices = indices
        self.deadline = 0.0
        self.expiries = 0


class _Job:
    """Scheduler-side bookkeeping for one session's request."""

    __slots__ = ("session", "batches")

    def __init__(self, session: Session):
        self.session = session
        self.batches: Deque[_Batch] = deque()


class CampaignScheduler:
    """Round-robin batch dispatcher over one warm persistent pool."""

    def __init__(
        self,
        backend,
        cache: Optional[ResultCache],
        journal: ServiceJournal,
        lease_s: float = 120.0,
        heartbeat_s: float = 0.25,
        batch_points: Optional[int] = None,
        housekeeping: Optional[Callable[[], None]] = None,
    ) -> None:
        self.backend = backend
        self.cache = cache
        self.journal = journal
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s
        self.batch_points = batch_points
        self.housekeeping = housekeeping
        self.lease_expiries = 0  # observability/tests
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._work = threading.Event()
        self._stop = threading.Event()
        self._draining = False
        self._active: Optional[_Batch] = None
        self._threads: List[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        for name, target in (
            ("repro-serve-dispatch", self._dispatch_loop),
            ("repro-serve-leases", self._monitor_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, drain: bool = True) -> None:
        """Stop dispatching.  ``drain`` finishes the currently leased
        batch first; otherwise the pool is torn down under it and the
        batch aborts."""
        self._draining = True
        if not drain:
            terminate = getattr(self.backend, "terminate", None)
            if terminate is not None:
                terminate()
        self._stop.set()
        self._work.set()
        for thread in self._threads:
            thread.join(timeout=max(10.0, self.lease_s))

    # -- intake ---------------------------------------------------------

    def submit(self, session: Session) -> None:
        """Accept one request: serve its cache hits immediately, queue
        batches for the misses."""
        self.journal.request(session.token, session.sweep, len(session.items))
        if self._draining:
            self.journal.abort(session.token, "draining")
            session.post({"event": "abort", "reason": "daemon is draining"})
            return
        missing: List[int] = []
        hits: List[dict] = []
        cached = (
            self.cache.get_many(session.sweep, session.keys)
            if self.cache is not None and session.keys is not None
            else {}
        )
        for idx in range(len(session.items)):
            if cached and session.keys[idx] in cached:
                hits.append({
                    "event": "result", "index": idx,
                    "value": cached[session.keys[idx]],
                    "seconds": 0.0, "error": None, "cached": True,
                })
            else:
                missing.append(idx)
        session.post_many(hits)
        job = _Job(session)
        if not missing:
            # Journal before notifying: a client that saw the terminal
            # event must find the journal already consistent.
            self.journal.done(session.token)
            session.post({"event": "done"})
            return
        # Each batch pays one pool-map pipeline fill (~1ms), so the
        # default leans large; batches stay the fairness quantum for
        # interleaving clients, and leases renew per *point* regardless.
        size = self.batch_points or max(
            1, getattr(self.backend, "jobs", 1) * 16
        )
        for b, lo in enumerate(range(0, len(missing), size)):
            job.batches.append(_Batch(session, b, missing[lo : lo + size]))
        with self._lock:
            self._jobs[session.token] = job
        self._work.set()

    def cancel(self, token: str) -> bool:
        """Drop a session's queued batches (the active one finishes)."""
        with self._lock:
            job = self._jobs.get(token)
            if job is None:
                return False
            job.session.cancelled = True
            job.batches.clear()
            if self._active is None or self._active.session.token != token:
                del self._jobs[token]
                self.journal.abort(token, "cancelled by client")
                job.session.post({"event": "abort", "reason": "cancelled"})
        return True

    # -- dispatch -------------------------------------------------------

    def _next_batch(self) -> Optional[_Batch]:
        """Round-robin: take the head batch of the least-recently-served
        session that still has queued work."""
        with self._lock:
            for token in list(self._jobs):
                job = self._jobs[token]
                if job.batches:
                    self._jobs.move_to_end(token)  # fair: back of the line
                    batch = job.batches.popleft()
                    self._active = batch
                    batch.deadline = time.monotonic() + self.lease_s
                    return batch
        return None

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set() or not self._draining:
            if self._stop.is_set():
                break
            batch = self._next_batch()
            if batch is None:
                self._work.clear()
                self._work.wait(timeout=0.5)
                continue
            try:
                self._run_batch(batch)
            finally:
                with self._lock:
                    self._active = None
                self._finish_if_done(batch.session)
        self._abort_queued("daemon is draining")

    def _run_batch(self, batch: _Batch) -> None:
        session = batch.session
        self.journal.lease(
            session.token, batch.id, batch.indices,
            time.time() + self.lease_s,
        )
        items = [session.items[i] for i in batch.indices]
        wrap = tuple(session.wrap) if session.wrap else None
        resolved = 0
        # Cheap points resolve every few microseconds; posting each one
        # individually costs a wake-encode-send cycle across three
        # threads.  Buffer them into bursts — flushed on size, on
        # staleness (so slow points still stream promptly), and always
        # before the batch's completion is journalled.
        pending: List[dict] = []
        flushed_at = time.monotonic()
        try:
            fn = resolve_token(session.fn_token)
            results = self.backend.map(
                fn, items, timeout=session.timeout, wrap=wrap
            )
            for idx, task in zip(batch.indices, results):
                pending.append(self._resolve_point(session, idx, task))
                resolved += 1
                now = time.monotonic()
                batch.deadline = now + self.lease_s  # heartbeat
                if len(pending) >= 8 or now - flushed_at > 0.01:
                    session.post_many(pending)
                    pending, flushed_at = [], now
        except Exception:
            # The batch must resolve no matter what broke (token import,
            # a torn-down pool on force-stop): error out its unresolved
            # points, keep the daemon alive.  ``zip`` consumed results
            # in order, so the unresolved points are exactly the tail.
            error = traceback.format_exc()
            for idx in batch.indices[resolved:]:
                pending.append({
                    "event": "result", "index": idx, "value": None,
                    "seconds": 0.0, "error": error, "cached": False,
                })
        session.post_many(pending)
        self.journal.complete(session.token, batch.id)

    def _resolve_point(
        self, session: Session, idx: int, task: TaskResult
    ) -> dict:
        """Cache a resolved point; return its (unposted) result event."""
        error = task.error
        value = task.value
        if error is None and self.cache is not None and session.keys is not None:
            try:
                self.cache.put(
                    session.sweep, session.keys[idx], session.items[idx], value
                )
            except (TypeError, OSError):
                pass  # non-JSON value or read-only store: serve uncached
        return {
            "event": "result", "index": idx, "value": value,
            "seconds": task.seconds, "error": error, "cached": False,
        }

    def _finish_if_done(self, session: Session) -> None:
        with self._lock:
            job = self._jobs.get(session.token)
            if job is None or job.batches:
                return
            if self._active is not None and self._active.session is session:
                return
            del self._jobs[session.token]
        if session.cancelled:
            self.journal.abort(session.token, "cancelled by client")
            session.post({"event": "abort", "reason": "cancelled"})
        else:
            self.journal.done(session.token)
            session.post({"event": "done"})

    def _abort_queued(self, reason: str) -> None:
        with self._lock:
            jobs, self._jobs = list(self._jobs.values()), OrderedDict()
        for job in jobs:
            self.journal.abort(job.session.token, reason)
            job.session.post({"event": "abort", "reason": reason})

    # -- leases ---------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            self._check_lease()
            if self.housekeeping is not None:
                self.housekeeping()

    def _check_lease(self) -> None:
        with self._lock:
            batch = self._active
            if batch is None or time.monotonic() <= batch.deadline:
                return
            # Expired: no point of this batch resolved within lease_s.
            batch.deadline = time.monotonic() + self.lease_s
            batch.expiries += 1
            self.lease_expiries += 1
        pids = []
        worker_pids = getattr(self.backend, "worker_pids", None)
        if worker_pids is not None:
            pids = worker_pids()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        # The dispatcher is blocked consuming backend.map; the pool's
        # liveness poll sees the kills, respawns, and requeues — the
        # lease-expiry requeue IS the pool's dead-worker requeue.
        self.journal.lease(
            batch.session.token, batch.id, batch.indices,
            time.time() + self.lease_s,
        )

    # -- observability --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            queued = sum(len(job.batches) for job in self._jobs.values())
            active = self._active.session.token if self._active else None
        return {
            "queued_batches": queued,
            "active": active,
            "lease_expiries": self.lease_expiries,
            "respawns": getattr(self.backend, "respawns", 0),
        }
