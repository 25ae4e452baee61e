"""Fresh-pool process backend — one pool per ``map`` call.

The point function is shipped **once per worker** through the pool
initializer (it lands in a module global), so each task pickles only
its parameter mapping.  The previous runner pickled ``(fn, params)``
per task; for a top-level function the reference is small, but the
initializer route means the per-task payload is exactly the params and
nothing else, and it is the same mechanism the persistent backend's
worker-side function cache builds on.

:func:`parallel_map` keeps the historic helper API (yield
``(value, seconds)``, propagate exceptions) for callers that want raw
fan-out without the sweep orchestrator.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.runner.backends.base import (
    PointFn,
    TaskResult,
    pool_context,
    register,
    run_one,
)

__all__ = ["ProcessBackend", "parallel_map"]

#: The point function installed in this worker by the pool initializer.
_WORKER_FN: Optional[PointFn] = None
#: Per-point wall-clock timeout installed alongside it (``None`` = off).
_WORKER_TIMEOUT: Optional[float] = None


def _install_fn(
    fn: PointFn,
    on_install: Optional[Callable[[], None]] = None,
    timeout: Optional[float] = None,
) -> None:
    """Pool initializer: receive the point function once per worker.

    SIGTERM goes back to the default action first, so ``terminate()``
    kills a forked worker even when the parent installed a raising
    handler (as the CLI does).
    """
    global _WORKER_FN, _WORKER_TIMEOUT
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_FN = fn
    _WORKER_TIMEOUT = timeout
    if on_install is not None:
        on_install()


def _run_installed(params: Mapping[str, Any]) -> Tuple[Any, float, Optional[str]]:
    """Worker task: run the installed function on one point, capturing
    failure as ``(None, seconds, traceback)`` — plain tuples cross the
    pipe cheaply and unconditionally."""
    result = run_one(_WORKER_FN, params, timeout=_WORKER_TIMEOUT)
    return result.value, result.seconds, result.error


def _run_installed_raw(params: Mapping[str, Any]) -> Tuple[Any, float]:
    """Worker task for :func:`parallel_map`: exceptions propagate."""
    start = time.perf_counter()
    value = _WORKER_FN(params)
    return value, time.perf_counter() - start


@register
class ProcessBackend:
    """A fresh ``multiprocessing`` pool per sweep.

    Simple and hermetic — worker state cannot leak between sweeps —
    at the cost of paying pool start-up once per ``map`` call.  Small
    inputs (one point, or ``jobs <= 1``) run inline, preserving the
    historic serial fast path where closures work and tests can
    monkeypatch the point function.
    """

    name = "process"

    def __init__(self, jobs: int = 1, initializer_probe=None) -> None:
        self.jobs = max(1, jobs)
        # Test hook: called in each worker when the function is installed.
        self._initializer_probe = initializer_probe

    def map(
        self,
        fn: PointFn,
        items: Sequence[Mapping[str, Any]],
        *,
        timeout: Optional[float] = None,
        attempt: int = 0,
    ) -> Iterator[TaskResult]:
        workers = min(self.jobs, len(items))
        if workers <= 1:
            for params in items:
                yield run_one(fn, params)
            return
        with pool_context().Pool(
            processes=workers,
            initializer=_install_fn,
            initargs=(fn, self._initializer_probe, timeout),
        ) as pool:
            for value, seconds, error in pool.imap(
                _run_installed, list(items), chunksize=1
            ):
                yield TaskResult(value=value, seconds=seconds, error=error)

    def close(self) -> None:  # pools are per-call; nothing persists
        pass

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parallel_map(
    fn: PointFn, items: Sequence[Mapping[str, Any]], jobs: int
) -> Iterator[Tuple[Any, float]]:
    """Yield ``(value, seconds)`` for each item, in input order.

    ``jobs <= 1`` (or a single item) runs inline — no pool, so closures
    and monkeypatched functions work in tests and callers pay zero
    process overhead on the serial path.  The point function is sent
    once per worker via the pool initializer; every task pickles only
    its params.  Behaviour is byte-identical to the historic
    ``runner.pool.parallel_map``, including exception propagation.
    """
    if jobs <= 1 or len(items) <= 1:
        for params in items:
            start = time.perf_counter()
            value = fn(params)
            yield value, time.perf_counter() - start
        return
    with pool_context().Pool(
        processes=min(jobs, len(items)),
        initializer=_install_fn,
        initargs=(fn,),
    ) as pool:
        yield from pool.imap(_run_installed_raw, list(items), chunksize=1)
