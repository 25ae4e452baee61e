"""Warm-worker persistent pool — the campaign backend, self-healing.

One long-lived set of worker processes per backend instance, reused
across every ``map`` call (i.e. across all sweeps of a campaign and
across repeated campaigns in one session).  Unlike the first
incarnation (a ``multiprocessing.Pool``), the workers are managed
directly so the pool can *survive its own workers dying*:

* **function shipping** — tasks never pickle the point function.  Each
  task carries a ``(module, qualname)`` token; a worker resolves the
  token by import **once**, caches the callable in a per-process
  registry, and serves every later batch of any sweep using that
  function from the cache.  The parent verifies the token resolves back
  to the very callable it was given, so a closure, lambda or
  monkeypatched function silently falls back to inline execution
  instead of running the wrong code.
* **batching** — points are grouped into batches sized to a few batches
  per worker, amortising the per-task IPC round-trip that dominates
  cheap points.  Each worker holds at most two batches (one running,
  one prefetched) so a crash forfeits little; results are flattened
  back into strict input order.
* **failure isolation** — a worker wraps every point individually; a
  raising point yields an errored :class:`TaskResult` while the rest of
  the batch, the worker, and the pool live on.
* **self-healing** — the parent polls worker liveness (``exitcode``)
  while waiting for results.  A worker that dies (``kill -9``, OOM, a
  segfaulting extension) is respawned and its in-flight batches are
  requeued to the survivors, so an external kill costs only the points
  of the forfeited batches.  A batch that kills its worker repeatedly
  (:data:`MAX_BATCH_REQUEUES` exceeded) comes back as errored results
  instead of crash-looping the pool.
* **timeouts** — a per-point wall-clock ``timeout`` (see
  :meth:`PersistentBackend.map`) is enforced *inside* each worker via
  ``SIGALRM`` (:func:`repro.runner.backends.base.run_one`), so a hung
  point becomes an ordinary errored result, not a stuck sweep.

Use it whenever one session runs more than one sweep: the pool spin-up
that the ``process`` backend pays per sweep is paid once here, and
in-process memo caches inside worker processes (e.g. the robustness
baseline lookup) stay warm from sweep to sweep.
"""

from __future__ import annotations

import importlib
import os
import queue as queue_mod
import signal
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.runner.backends.base import (
    PointFn,
    TaskResult,
    pool_context,
    register,
    run_one,
)

__all__ = ["MAX_BATCH_REQUEUES", "PersistentBackend"]

Token = Tuple[str, str]  # (module, qualname)
#: A worker-side wrapper spec: factory token plus JSON-able kwargs.  The
#: worker resolves the factory by import and applies it to the resolved
#: point function (``factory(fn, requeue=n, **kwargs)``) — how the chaos
#: backend injects faults inside real workers without pickling closures.
WrapSpec = Tuple[str, str, Mapping[str, Any]]

#: Times a batch is re-dispatched after killing its worker before its
#: points are reported as errors instead (guards against a point that
#: deterministically crashes every process it touches).
MAX_BATCH_REQUEUES = 2

#: How often (seconds) the parent wakes from the result wait to poll
#: worker liveness.
_POLL_S = 0.05

#: Per-worker registry: token -> resolved point function.
_FN_CACHE: dict = {}
#: Test hook installed by the pool initializer; called on cache misses.
_RESOLVE_PROBE: Optional[Callable[[Token], None]] = None


def _init_worker(resolve_probe: Optional[Callable[[Token], None]]) -> None:
    """Worker start-up: begin with an empty function cache."""
    global _RESOLVE_PROBE
    _FN_CACHE.clear()
    _RESOLVE_PROBE = resolve_probe


def _resolve(token: Token) -> PointFn:
    """Import-resolve ``token``; memoized for the worker's lifetime."""
    fn = _FN_CACHE.get(token)
    if fn is None:
        if _RESOLVE_PROBE is not None:
            _RESOLVE_PROBE(token)
        module_name, qualname = token
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        fn = _FN_CACHE[token] = obj
    return fn


def apply_wrap(fn: PointFn, wrap: Optional[WrapSpec], requeue: int = 0) -> PointFn:
    """Apply a :data:`WrapSpec` to ``fn`` (identity when ``wrap`` is None).

    ``requeue`` is how many times the executing batch has already been
    re-dispatched after a worker crash; wrappers that model transient
    faults fold it into their attempt accounting.
    """
    if wrap is None:
        return fn
    module_name, qualname, kwargs = wrap
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj(fn, requeue=requeue, **kwargs)


def _run_batch(
    token: Token, batch: List[Mapping[str, Any]], options: Mapping[str, Any]
) -> List[Tuple[Any, float, Optional[str]]]:
    """Worker: evaluate one batch of points with the token's function.

    Every point is isolated; a resolution failure (module vanished
    between parent check and worker import) errors the whole batch but
    still returns results instead of raising through the pool.
    """
    try:
        fn = apply_wrap(
            _resolve(token), options.get("wrap"), options.get("requeue", 0)
        )
    except Exception:
        import traceback

        error = traceback.format_exc()
        return [(None, 0.0, error) for _ in batch]
    timeout = options.get("timeout")
    out = []
    for params in batch:
        result = run_one(fn, params, timeout=timeout)
        out.append((result.value, result.seconds, result.error))
    return out


def _worker_main(inq, outq, resolve_probe) -> None:
    """Worker process loop: serve batches until the ``None`` sentinel.

    The blocking ``get`` is bounded so the worker can notice it has
    been orphaned: a parent that is SIGKILLed never sends the sentinel,
    and a worker blocked forever on a dead queue leaks one process per
    crash.  Reparenting (``getppid`` changes) is the exit signal.

    SIGTERM goes back to the default action first: a forked worker
    inherits its parent's handler (the CLI's raises), and a worker that
    unwinds on ``terminate()`` instead of dying can hang the pool's
    join.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _init_worker(resolve_probe)
    parent = os.getppid()
    poll_s = float(os.environ.get("REPRO_WORKER_ORPHAN_POLL_S", "5.0"))
    while True:
        try:
            task = inq.get(timeout=poll_s)
        except queue_mod.Empty:
            if os.getppid() != parent:
                break  # orphaned: the pool owner died without cleanup
            continue
        if task is None:
            break
        gen, batch_id, token, batch, options = task
        # ``outq`` is a SimpleQueue, so this thread writes the reply
        # itself, under the queue's cross-process lock, before it takes
        # the next batch: a worker that dies inside a point (a crash, a
        # chaos kill) must never die holding that lock, or every other
        # worker blocks on it.
        outq.put((gen, batch_id, _run_batch(token, batch, options)))


def _token_for(fn: PointFn) -> Optional[Token]:
    """The importable address of ``fn``, or ``None`` when it has none.

    ``None`` (lambdas, closures, methods, monkeypatched replacements
    whose module attribute no longer is ``fn``) routes the call to the
    inline fallback.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None
    try:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except Exception:
        return None
    return (module, qualname) if obj is fn else None


class _Batch:
    """Parent-side bookkeeping for one dispatched batch."""

    __slots__ = ("id", "items", "requeues")

    def __init__(self, batch_id: int, items: List[Mapping[str, Any]]):
        self.id = batch_id
        self.items = items
        self.requeues = 0


class _Worker:
    """One managed worker process plus its private task queue."""

    __slots__ = ("process", "inq", "in_flight")

    def __init__(self, ctx, outq, resolve_probe):
        self.inq = ctx.Queue()
        self.in_flight: List[_Batch] = []
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.inq, outq, resolve_probe),
            daemon=True,
        )
        self.process.start()

    def alive(self) -> bool:
        return self.process.is_alive()


@register
class PersistentBackend:
    """A warm, self-healing worker pool shared by every sweep of a session."""

    name = "persistent"
    #: The chaos backend probes this: wrappers travel as import tokens
    #: in the task options and are applied inside the real workers.
    supports_wrap = True

    def __init__(
        self,
        jobs: int = 1,
        batch_size: Optional[int] = None,
        resolve_probe: Optional[Callable[[Token], None]] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.batch_size = batch_size  # None: sized per map call
        self._resolve_probe = resolve_probe
        self._ctx = pool_context()
        self._workers: List[_Worker] = []
        self._outq = None
        self._gen = 0  # map-call generation; stale results are discarded
        #: Workers respawned after unexpected deaths (observability/tests).
        self.respawns = 0

    # -- pool lifecycle -------------------------------------------------

    def _ensure_workers(self) -> None:
        if self._outq is None:
            self._outq = self._ctx.SimpleQueue()
        while len(self._workers) < self.jobs:
            self._workers.append(
                _Worker(self._ctx, self._outq, self._resolve_probe)
            )

    def warm(self) -> None:
        """Spawn the pool now instead of lazily at the first ``map``.

        The serve daemon calls this before starting any service thread,
        so the ``fork`` happens while the process is still
        single-threaded.
        """
        self._ensure_workers()

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (diagnostics and crash tests)."""
        return [
            w.process.pid for w in self._workers
            if w.process.pid is not None and w.alive()
        ]

    @property
    def _pool(self):
        """Truthy while warm workers exist (kept for back-compat probes)."""
        return tuple(self._workers) or None

    def close(self) -> None:
        """Shut the pool down; the next ``map`` would start a fresh one."""
        for worker in self._workers:
            try:
                worker.inq.put(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()
        self._drop_queues()

    def terminate(self) -> None:
        """Drop the pool *now*, abandoning any queued batches.

        The abort path: ``close()`` would first drain everything
        already submitted, which on an errored sweep means silently
        simulating the whole remainder before the failure surfaces.
        """
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join()
        self._drop_queues()

    def _drop_queues(self) -> None:
        self._workers = []
        if self._outq is not None:
            self._outq.close()
            self._outq = None

    def __enter__(self) -> "PersistentBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ------------------------------------------------------

    def _batches(self, items: Sequence[Mapping[str, Any]]) -> List[_Batch]:
        """Slice ``items`` into order-preserving batches.

        Default size targets ~4 batches per worker — large enough to
        amortise IPC on cheap points, small enough that the tail of a
        sweep still load-balances across the pool (and that a crashed
        worker forfeits little).
        """
        size = self.batch_size or max(1, len(items) // (self.jobs * 4))
        return [
            _Batch(i // size, list(items[i : i + size]))
            for i in range(0, len(items), size)
        ]

    def _dispatch(self, worker: _Worker, batch: _Batch, token, options) -> None:
        worker.in_flight.append(batch)
        worker.inq.put(
            (self._gen, batch.id, token, batch.items,
             {**options, "requeue": batch.requeues})
        )

    def _heal(self, pending: List[_Batch], done: Dict[int, list]) -> None:
        """Respawn dead workers, requeueing whatever they were running.

        A batch that has already crashed :data:`MAX_BATCH_REQUEUES`
        workers is completed as errored results instead of re-dispatched
        — one poisonous point must not crash-loop the pool forever.
        """
        for idx, worker in enumerate(self._workers):
            if worker.alive():
                continue
            worker.process.join()  # reap
            orphans, worker.in_flight = worker.in_flight, []
            self._workers[idx] = _Worker(
                self._ctx, self._outq, self._resolve_probe
            )
            self.respawns += 1
            for batch in orphans:
                if batch.id in done:
                    continue  # its result raced in just before the death
                batch.requeues += 1
                if batch.requeues > MAX_BATCH_REQUEUES:
                    done[batch.id] = [
                        (None, 0.0,
                         f"worker died {batch.requeues} times while computing "
                         f"this batch (params: {dict(params)!r})")
                        for params in batch.items
                    ]
                else:
                    pending.insert(0, batch)

    def map(
        self,
        fn: PointFn,
        items: Sequence[Mapping[str, Any]],
        *,
        timeout: Optional[float] = None,
        attempt: int = 0,
        wrap: Optional[WrapSpec] = None,
    ) -> Iterator[TaskResult]:
        if not items:
            return
        token = _token_for(fn)
        if token is None or self.jobs <= 1:
            # Unshippable function, or nothing to fan out over: inline
            # is byte-identical and cheaper.  Wrappers still apply (the
            # chaos backend downgrades worker kills to exceptions here);
            # timeouts are not enforced inline, as with the serial
            # backend.
            inline_fn = apply_wrap(fn, wrap)
            for params in items:
                yield run_one(inline_fn, params)
            return

        self._gen += 1
        gen = self._gen
        self._ensure_workers()
        options = {"timeout": timeout, "wrap": wrap}
        batches = self._batches(items)
        total_batches = len(batches)
        pending = list(batches)
        done: Dict[int, list] = {}  # batch id -> raw result triples
        next_out = 0  # next batch id to yield
        delivered = 0

        def fill_workers() -> None:
            # Each worker holds at most 2 batches: one running, one
            # prefetched — enough to hide the dispatch round-trip, small
            # enough that a crash forfeits little work.
            for worker in self._workers:
                while pending and len(worker.in_flight) < 2:
                    self._dispatch(worker, pending.pop(0), token, options)

        def reap(batch_id: int) -> None:
            for worker in self._workers:
                for batch in worker.in_flight:
                    if batch.id == batch_id:
                        worker.in_flight.remove(batch)
                        return

        try:
            fill_workers()
            while next_out < total_batches:
                while next_out not in done:
                    # SimpleQueue.get has no timeout; poll its reader
                    # (as concurrent.futures.process does).
                    if not self._outq._reader.poll(_POLL_S):
                        self._heal(pending, done)
                        fill_workers()
                        continue
                    rgen, batch_id, results = self._outq.get()
                    if rgen != gen or batch_id in done:
                        continue  # stale generation or post-requeue duplicate
                    done[batch_id] = results
                    reap(batch_id)
                    fill_workers()
                for value, seconds, error in done.pop(next_out):
                    delivered += 1  # before the yield: a close() while
                    # suspended there must count this result as served
                    yield TaskResult(value=value, seconds=seconds, error=error)
                next_out += 1
        except GeneratorExit:
            # Closed by the consumer.  After the final result the frame
            # is still suspended at its last yield, so a close() on a
            # fully-served sweep lands here too — and must leave the
            # warm pool alone.  Only a genuine mid-sweep abandonment
            # (error abort with work still queued) terminates the pool:
            # the queued batches must not silently run to completion.
            if delivered < len(items):
                self.terminate()
            raise
