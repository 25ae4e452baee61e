"""The ``remote`` backend: sweeps through the ``repro serve`` daemon.

:class:`RemoteBackend` obeys the same three backend rules as everyone
else — ordered lazy results, failures as errored :class:`TaskResult`\\ s,
importable point functions — but evaluates nothing itself: it ships the
point function as a ``(module, qualname)`` token plus the raw items to
the daemon, which computes on its warm pool and streams one event per
resolved point back over the socket.  Events can arrive out of input
order (the daemon serves cache hits immediately); a small reorder
buffer releases results in order as the ready prefix grows.

The backend is where the *client-side* robustness policy lives:

* a dropped connection re-attaches with the session's resume token and
  the last ``seq`` seen, replaying missed events from the daemon's
  ring buffer;
* an ``unknown-token`` reply (the daemon was restarted — its sessions
  died with it) or a ``gap`` (we were away longer than the ring
  remembers) falls back to **resubmitting only the not-yet-received
  points**, which is cheap because everything the old incarnation
  completed is served straight from the shared result cache;
* when the reconnect budget (``$REPRO_REMOTE_RETRIES``, delay
  ``$REPRO_REMOTE_RETRY_DELAY``) runs dry, the still-missing points
  resolve as errored results — the backend contract forbids raising
  mid-sweep — so ``sweep`` exits nonzero and ``--resume`` completes
  the campaign once a daemon is back.

Only an unreachable daemon *before any work starts* raises
(:class:`DaemonUnreachable`): that is a configuration error, not a
mid-campaign fault, and deserves a loud immediate failure.

Chaos integration (``supports_connection_chaos``): the chaos wrapper
hands this backend a ``faults`` map of item index → ``"drop"`` (sever
the socket abruptly after that result arrives) or ``"dkill"``
(``SIGKILL`` the daemon itself, pid learned from the hello reply).
Both are injected through the real transport, so the reconnect and
resubmit paths above are exercised by genuine torn streams.
"""

from __future__ import annotations

import os
import signal as _signal
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.runner.backends.base import (
    CacheContext,
    PointFn,
    TaskResult,
    register,
    run_one,
)
from repro.runner.backends.persistent import _token_for, apply_wrap
from repro.service.client import (
    DaemonUnreachable,
    ServeAborted,
    ServeClient,
    ServeError,
)
from repro.service.protocol import FrameError

__all__ = ["RemoteBackend"]


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return default


@register
class RemoteBackend:
    """Dispatch points to a ``repro serve`` daemon over a local socket."""

    name = "remote"
    #: Wrap tokens (chaos) travel through the protocol into the
    #: daemon's pool workers, like the persistent backend they run on.
    supports_wrap = True
    #: The orchestrator passes cache addressing so the daemon can serve
    #: hits and journal fresh results into the shared store.
    supports_context = True
    #: The chaos wrapper may inject connection drops / daemon kills.
    supports_connection_chaos = True

    def __init__(
        self,
        jobs: int = 1,
        socket_path: Optional[str] = None,
    ) -> None:
        # ``jobs`` is accepted for registry uniformity; parallelism is
        # the daemon's (it owns the pool), not the client's.
        self.jobs = max(1, jobs)
        self.socket_path = socket_path
        self.reconnect_retries = _env_int("REPRO_REMOTE_RETRIES", 5)
        self.reconnect_delay = _env_float("REPRO_REMOTE_RETRY_DELAY", 0.25)
        #: Connection kept warm between map() calls: a campaign of many
        #: sweeps pays connect+hello once, not once per sweep.
        self._warm_client: Optional[ServeClient] = None

    # -- backend contract ----------------------------------------------

    def map(
        self,
        fn: PointFn,
        items: Sequence[Mapping[str, Any]],
        *,
        timeout: Optional[float] = None,
        attempt: int = 0,
        wrap: Optional[Tuple[str, str, Dict[str, Any]]] = None,
        context: Optional[CacheContext] = None,
        faults: Optional[Dict[int, str]] = None,
    ) -> Iterator[TaskResult]:
        del attempt  # retry rounds resubmit; the daemon has no use for it
        items = list(items)
        if not items:
            return iter(())
        token = _token_for(fn)
        if token is None:
            # A closure or <locals> function cannot cross the socket by
            # name; evaluate inline, like the persistent pool's own
            # unresolvable-function fallback.
            return self._inline(fn, items, timeout, wrap)
        return self._stream(token, items, timeout, wrap, context, dict(faults or {}))

    def close(self) -> None:
        """Drop the warm connection; the daemon outlives us."""
        if self._warm_client is not None:
            self._warm_client.close()
            self._warm_client = None

    def __enter__(self) -> "RemoteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ------------------------------------------------------

    def _inline(
        self,
        fn: PointFn,
        items: Sequence[Mapping[str, Any]],
        timeout: Optional[float],
        wrap,
    ) -> Iterator[TaskResult]:
        wrapped = apply_wrap(fn, wrap)
        for params in items:
            yield run_one(wrapped, params, timeout)

    def _stream(
        self,
        fn_token: Tuple[str, str],
        items: List[Mapping[str, Any]],
        timeout: Optional[float],
        wrap,
        context: Optional[CacheContext],
        faults: Dict[int, str],
    ) -> Iterator[TaskResult]:
        total = len(items)
        sweep = context.sweep if context is not None else "adhoc"
        keys = list(context.keys) if context is not None else None
        client, self._warm_client = self._warm_client, None
        if client is None or not client.connected:
            client = ServeClient(self.socket_path)
            client.connect()  # unreachable before any work: raise, loudly
        keep = False
        received: Dict[int, TaskResult] = {}
        next_out = 0
        session_token: Optional[str] = None
        #: daemon-side index -> our index for the current submission.
        index_map: List[int] = []
        last_seq = 0
        retries_left = self.reconnect_retries
        try:
            while len(received) < total:
                try:
                    if not client.connected:
                        client.connect()
                    if session_token is None:
                        index_map = [i for i in range(total) if i not in received]
                        reply = client.submit(
                            sweep,
                            [items[i] for i in index_map],
                            [keys[i] for i in index_map] if keys else None,
                            fn_token,
                            timeout=timeout,
                            wrap=wrap,
                        )
                        session_token = reply["token"]
                        last_seq = 0
                    terminal = None
                    for frame in client.events():
                        last_seq = int(frame.get("seq", last_seq))
                        event = frame.get("event")
                        if event == "result":
                            local = index_map[int(frame["index"])]
                            if local not in received:
                                received[local] = TaskResult(
                                    value=frame.get("value"),
                                    seconds=float(frame.get("seconds") or 0.0),
                                    error=frame.get("error"),
                                )
                            # Hold the last result back until the
                            # terminal frame is consumed: the caller
                            # stops pulling at the final yield, and the
                            # connection is only reusable once "done"
                            # has been read off it.
                            while next_out in received and len(received) < total:
                                yield received[next_out]
                                next_out += 1
                            self._maybe_inject(client, faults.pop(local, None))
                        else:
                            terminal = frame
                            break
                    if terminal is None:
                        raise FrameError("event stream ended without a terminal")
                    kind = terminal.get("event")
                    if kind == "done":
                        keep = True  # stream ended in sync: reusable
                        break  # everything submitted has resolved
                    if kind == "abort":
                        raise ServeAborted(
                            str(terminal.get("reason") or "request aborted")
                        )
                    # gap: the ring forgot our position; the cache has
                    # everything completed meanwhile — resubmit the rest.
                    client.close()
                    session_token = None
                except ServeAborted:
                    raise
                except ServeError as exc:
                    # attach/submit rejected: unknown-token means the
                    # daemon restarted and owes us nothing — resubmit.
                    session_token = None
                    client.close()
                    if "unknown-token" not in str(exc):
                        retries_left -= 1
                        if retries_left < 0:
                            self._fail_missing(received, total, exc)
                            break
                        time.sleep(self.reconnect_delay)
                except (OSError, FrameError, DaemonUnreachable) as exc:
                    client.close()
                    retries_left -= 1
                    if retries_left < 0:
                        self._fail_missing(received, total, exc)
                        break
                    time.sleep(self.reconnect_delay)
                    if session_token is not None:
                        try:
                            client.connect()
                            client.attach(session_token, last_seq)
                        except ServeError:
                            # unknown-token: a restarted daemon owes us
                            # nothing — resubmit what is still missing.
                            client.close()
                            session_token = None
                        except (OSError, FrameError, DaemonUnreachable):
                            client.close()  # next iteration retries
        except ServeAborted as exc:
            self._fail_missing(received, total, exc)
        finally:
            if keep and client.connected and self._warm_client is None:
                self._warm_client = client
            else:
                client.close()
        if len(received) < total:
            self._fail_missing(
                received, total,
                ServeError("stream ended with results missing"),
            )
        while next_out < total:
            # Flush the tail: either the terminal arrived with results
            # buffered out of order, or _fail_missing errored the rest.
            yield received[next_out]
            next_out += 1

    def _maybe_inject(self, client: ServeClient, fault: Optional[str]) -> None:
        """Fire a chaos connection fault through the real transport."""
        if fault == "drop":
            client.drop_connection()
            raise FrameError("chaos: injected connection drop")
        if fault == "dkill":
            if client.daemon_pid:
                try:
                    os.kill(client.daemon_pid, _signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
            client.close()
            raise FrameError("chaos: injected daemon kill")

    @staticmethod
    def _fail_missing(
        received: Dict[int, TaskResult], total: int, exc: Exception
    ) -> None:
        """Resolve every still-missing point as an errored result —
        the backend contract forbids raising mid-sweep."""
        error = (
            f"{type(exc).__name__}: {exc}\n"
            "remote backend lost the sweep daemon; rerun with --resume "
            "once a daemon is serving again\n"
        )
        for idx in range(total):
            if idx not in received:
                received[idx] = TaskResult(
                    value=None, seconds=0.0, error=error, exception=exc
                )
