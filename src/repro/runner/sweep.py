"""The declarative sweep runner.

A :class:`Sweep` is a named list of parameter *points* plus a pure
per-point function; a :class:`Campaign` is an ordered collection of
sweeps (one experiment module may expose several, e.g. the LU study).
:func:`run_sweep` consults the content-addressed result cache first,
fans the remaining points out over an execution backend
(:mod:`repro.runner.backends` — inline, fresh process pool, or warm
persistent workers), streams ordered progress back through a callback
as each point resolves, and hands the ordered point results to the
sweep's ``aggregate`` hook to build the experiment's published rows.

Design rules the experiment modules follow:

* **points are data** — JSON-able mappings of scalars, so they hash
  stably (:mod:`repro.runner.hashing`) and cross process boundaries;
* **the point function is pure and top-level** — it rebuilds platform /
  workload objects from the point's parameters, returns JSON-able
  values, and is importable by reference for the pooled backends;
* **aggregation is deterministic in point order** — results are always
  delivered to ``aggregate`` in declaration order, so serial, pooled
  and cached runs produce byte-identical rows.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.backends import CacheContext, ExecutionBackend, resolve_backend
from repro.runner.backends.persistent import _token_for
from repro.runner.cache import ResultCache
from repro.runner.hashing import code_version, point_key

__all__ = [
    "BatchableFn",
    "Campaign",
    "CampaignResult",
    "CircuitOpenError",
    "FAILED",
    "FailureReport",
    "PointOutcome",
    "Progress",
    "RetryPolicy",
    "Sweep",
    "SweepPointError",
    "SweepResult",
    "run_campaign",
    "run_sweep",
    "stamp_points",
]


def stamp_points(
    points: Sequence[Mapping[str, Any]], **common: Any
) -> Tuple[Mapping[str, Any], ...]:
    """Stamp shared knob values into every point of a sweep.

    The uniform way experiment declarations thread cross-cutting knobs
    (the simulation ``engine``, the execution ``backend``) into their
    points: the knob lands in each point mapping, so it reaches the pure
    per-point function, participates in the cache key, and crosses
    process boundaries like any other parameter.  ``None`` values are
    skipped (knob not applicable / leave the per-point default).

    Stamping deliberately splits the cache namespace per knob value —
    even for sweeps where a knob is inert — so cache entries always
    record exactly the parameters the point ran with.  (That is what
    makes the CI backend matrix meaningful: each backend computes its
    own entries, and the rows can be compared for byte-identity instead
    of the later backends trivially replaying the first one's cache.)
    """
    common = {k: v for k, v in common.items() if v is not None}
    if not common:
        return tuple(points)
    return tuple({**p, **common} for p in points)


PointFn = Callable[[Mapping[str, Any]], Any]
AggregateFn = Callable[[List[Any]], Any]
#: The batched-evaluation contract: a top-level pure function mapping a
#: *list* of point parameter mappings to the list of their results, in
#: order — element ``i`` must be byte-identical to ``run_fn(points[i])``.
#: Sweeps declare one beside their per-point ``run_fn`` (see
#: :attr:`Sweep.batch_fn`); the runner dispatches whole point-groups
#: through it and falls back to the scalar path per point whenever a
#: group fails.
BatchableFn = Callable[[List[Mapping[str, Any]]], List[Any]]


@dataclass(frozen=True)
class RetryPolicy:
    """The sweep runner's fault-tolerance knobs.

    The default-constructed policy is **inert**: no retries, no
    timeout, no breaker — and, by design, byte-invisible (an inert
    policy makes :func:`run_sweep` issue exactly the same backend
    calls, cache keys, and manifest records as a build without the
    retry layer at all).

    Attributes:
        retries: extra attempts per failed point (0 = fail fast).
        backoff: base delay before retry round 1, seconds; round ``r``
            waits ``backoff * 2**(r-1)``, capped at ``backoff_cap``.
        backoff_cap: upper bound on any single round's delay.
        jitter: fraction of the delay randomized *downward* —
            deterministically, seeded by ``(seed, sweep, round)`` — so
            reruns sleep identical amounts while distinct sweeps
            desynchronize.
        seed: jitter seed.
        timeout: per-point wall-clock limit, seconds, enforced inside
            the worker by the process/persistent backends (the serial
            backend never interrupts a point — see ``docs/runner.md``).
            A timed-out point fails with a ``PointTimeout`` error and
            is retried like any other failure.
        max_failures: circuit breaker — abort the whole sweep with a
            :class:`CircuitOpenError` (carrying a structured
            :class:`FailureReport`) as soon as this many points have
            *permanently* failed, i.e. exhausted their retry budget
            under ``on_error="keep"``.  ``None`` disables the breaker.
    """

    retries: int = 0
    backoff: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    timeout: Optional[float] = None
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff and backoff_cap must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError(
                f"max_failures must be >= 1, got {self.max_failures}"
            )

    @property
    def active(self) -> bool:
        """Whether any knob departs from the inert default."""
        return bool(
            self.retries or self.timeout is not None
            or self.max_failures is not None
        )

    def delay(self, round_no: int, token: str = "") -> float:
        """Seconds to sleep before retry round ``round_no`` (1-based).

        Exponential in the round, capped, with deterministic jitter:
        the same ``(seed, token, round)`` always sleeps the same
        amount, so retried runs stay reproducible end to end.
        """
        base = min(self.backoff * (2.0 ** (round_no - 1)), self.backoff_cap)
        if base <= 0 or not self.jitter:
            return max(base, 0.0)
        digest = hashlib.sha256(
            f"{self.seed}\0{token}\0{round_no}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 - self.jitter * frac)


@dataclass(frozen=True)
class FailureReport:
    """What the circuit breaker knew when it opened.

    ``failures`` holds one mapping per permanently failed point:
    ``{"params": {...}, "error": <summary line>, "attempts": n}``.
    ``resolved`` counts points with final outcomes (cached, computed,
    or failed) at trip time — the rest of the sweep was abandoned.
    """

    sweep: str
    total: int
    resolved: int
    max_failures: int
    failures: Tuple[Mapping[str, Any], ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep,
            "total": self.total,
            "resolved": self.resolved,
            "max_failures": self.max_failures,
            "failures": [dict(f) for f in self.failures],
        }

    def render(self) -> str:
        lines = [
            f"sweep {self.sweep!r}: circuit breaker opened after "
            f"{len(self.failures)} permanent point failure(s) "
            f"(max-failures={self.max_failures}); "
            f"{self.resolved}/{self.total} points resolved before abort"
        ]
        for failure in self.failures:
            lines.append(
                f"  - params={failure['params']!r} "
                f"attempts={failure['attempts']}: {failure['error']}"
            )
        return "\n".join(lines)


class CircuitOpenError(RuntimeError):
    """Too many permanent point failures — the sweep was aborted.

    Raised by :func:`run_sweep` when :attr:`RetryPolicy.max_failures`
    is reached; carries the structured :class:`FailureReport` as
    ``.report``.
    """

    def __init__(self, report: FailureReport):
        self.report = report
        super().__init__(report.render())


def _error_summary(error: Optional[str]) -> str:
    """One informative line out of a worker's error text.

    Tracebacks end with ``ExceptionType: message``; the runner's own
    synthesized errors (timeouts, dead workers) lead with it.
    """
    lines = [l for l in (error or "").strip().splitlines() if l.strip()]
    if not lines:
        return "unknown error"
    return lines[-1] if lines[0].startswith("Traceback") else lines[0]


class SweepPointError(RuntimeError):
    """A sweep point raised and the ``on_error="raise"`` policy is active.

    Carries the failing sweep/params and the worker's formatted
    traceback; the original exception object is chained (``__cause__``)
    when the point ran in-process.
    """

    def __init__(self, sweep: str, params: Mapping[str, Any], error: str):
        self.sweep = sweep
        self.params = dict(params)
        self.error = error
        super().__init__(
            f"point {self.params!r} of sweep {sweep!r} failed:\n{error}"
        )


def _normalize(value: Any) -> Any:
    """JSON-round-trip a computed value so it matches its cached shape.

    Cached points come back from disk JSON-decoded (tuples as lists,
    non-string dict keys as strings); normalizing fresh results the
    same way keeps cold, warm, and partially-warm runs byte-identical.
    Values outside JSON (only possible in cache-less library use) pass
    through untouched.
    """
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError):
        return value


#: Placeholder for a failed point's slot in the values an aggregate
#: sees under ``on_error="keep"`` — a sentinel rather than ``None`` so
#: a point function that legitimately returns ``None`` is never
#: confused with a failure.
FAILED = object()


def _concat(values: List[Any]) -> Any:
    """Default aggregation: concatenate list results, else keep the list.

    :data:`FAILED` holes (failed points under ``on_error="keep"``) are
    dropped; successful rows — including legitimate ``None`` results —
    still publish.
    """
    values = [v for v in values if v is not FAILED]
    if values and all(isinstance(v, list) for v in values):
        rows: List[Any] = []
        for v in values:
            rows.extend(v)
        return rows
    return list(values)


@dataclass(frozen=True)
class Sweep:
    """A named set of points evaluated by one pure function.

    Attributes:
        name: cache namespace and progress label (e.g. ``"fig10"``).
        run_fn: top-level pure function mapping one point's parameters
            to a JSON-able result.
        points: the parameter mappings, in publication order.
        aggregate: combines the ordered point results into the
            experiment's rows; defaults to list concatenation.
        title: heading used when the CLI prints the aggregated table.
        batch_fn: optional :data:`BatchableFn` — a top-level pure
            function evaluating a whole list of points at once
            (typically via :func:`repro.engine.run_batch`), returning
            one result per point in order, each byte-identical to
            ``run_fn`` on that point.  When present (and batching is
            enabled), the runner dispatches cache-miss points in groups
            through it; any group that errors falls back to the scalar
            per-point path, so caching, retries, and quarantine stay
            per-point either way.
    """

    name: str
    run_fn: PointFn
    points: Tuple[Mapping[str, Any], ...]
    aggregate: Optional[AggregateFn] = None
    title: Optional[str] = None
    batch_fn: Optional[BatchableFn] = None

    def rows(self, values: List[Any]) -> Any:
        """Aggregated rows for point results ``values`` (in order)."""
        return (self.aggregate or _concat)(values)


@dataclass(frozen=True)
class Campaign:
    """An ordered collection of sweeps run and reported together."""

    name: str
    sweeps: Tuple[Sweep, ...]


@dataclass(frozen=True)
class Progress:
    """One progress event, streamed as each point resolves (in order)."""

    sweep: str
    index: int
    total: int
    params: Mapping[str, Any]
    cached: bool
    seconds: float
    status: str = "ok"


@dataclass(frozen=True)
class PointOutcome:
    """A resolved point: parameters, cache key (empty string when run
    without a cache), value, provenance.

    ``status`` is ``"ok"``, ``"error"``, or ``"quarantined"``.  Errored
    points (only possible under ``on_error="keep"``) carry the worker
    traceback in ``error``, a ``None`` value, and are never written to
    the cache — a later ``--resume`` run re-computes exactly those,
    *except* points the cache has quarantined as known-permanent
    failures: those resolve as ``status="quarantined"`` without being
    computed (pass ``retry_quarantined=True`` to opt back in).

    ``batch`` is provenance: the value was computed by the sweep's
    ``batch_fn`` as part of a dispatched point-group rather than by a
    scalar ``run_fn`` call (the value itself is identical either way).
    """

    params: Mapping[str, Any]
    key: str
    value: Any
    cached: bool
    seconds: float
    status: str = "ok"
    error: Optional[str] = None
    batch: bool = False


@dataclass
class SweepResult:
    """Everything :func:`run_sweep` learned about one sweep.

    ``batch_groups`` counts the point-groups the batched dispatch path
    resolved (0 for scalar-only runs); it feeds the CLI's ``[K groups]``
    summary suffix.
    """

    name: str
    outcomes: List[PointOutcome] = field(default_factory=list)
    rows: Any = None
    elapsed: float = 0.0
    title: Optional[str] = None
    batch_groups: int = 0

    @property
    def hits(self) -> int:
        """Points served from the cache."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def errors(self) -> int:
        """Points that failed (kept under ``on_error="keep"``)."""
        return sum(1 for o in self.outcomes if o.status == "error")

    @property
    def quarantined(self) -> int:
        """Points skipped as known-permanent failures on resume."""
        return sum(1 for o in self.outcomes if o.status == "quarantined")

    @property
    def misses(self) -> int:
        """Points actually computed this run (successfully or not)."""
        return len(self.outcomes) - self.hits - self.quarantined


@dataclass
class CampaignResult:
    """Ordered sweep results plus campaign-level totals."""

    name: str
    sweeps: List[SweepResult] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.sweeps)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.sweeps)

    @property
    def errors(self) -> int:
        return sum(s.errors for s in self.sweeps)

    @property
    def quarantined(self) -> int:
        return sum(s.quarantined for s in self.sweeps)

    @property
    def batch_groups(self) -> int:
        return sum(s.batch_groups for s in self.sweeps)

    @property
    def elapsed(self) -> float:
        return sum(s.elapsed for s in self.sweeps)

    @property
    def tables(self) -> dict:
        """Sweep name → aggregated rows."""
        return {s.name: s.rows for s in self.sweeps}


def _map(
    backend: ExecutionBackend,
    fn: PointFn,
    items: Sequence[Mapping[str, Any]],
    timeout: Optional[float],
    attempt: int,
    context: Optional[CacheContext] = None,
):
    """Dispatch to the backend, invisibly when fault tolerance is off.

    With no timeout and attempt 0 the call is *argument-identical* to
    the pre-fault-tolerance runner — the byte-invisibility guarantee:
    a failure-free default run issues exactly the historic backend
    calls (so third-party backends without the new keywords keep
    working, and nothing about dispatch order or results can shift).

    ``context`` (cache addressing for the points being mapped) is only
    ever non-``None`` for backends that declared ``supports_context``
    — the ``remote`` backend, so the serve daemon can serve cache hits
    and journal fresh results — and those calls carry the keyword
    explicitly; every other backend keeps seeing the historic
    signatures above.
    """
    if context is not None:
        return backend.map(
            fn, items, timeout=timeout, attempt=attempt, context=context
        )
    if timeout is None and attempt == 0:
        return backend.map(fn, items)
    return backend.map(fn, items, timeout=timeout, attempt=attempt)


def _close(computed) -> None:
    """Close a backend result generator, if it is one."""
    close = getattr(computed, "close", None)
    if close is not None:
        close()


#: Largest point-group one batch dispatch carries.  Matches the
#: vectorized engine's sweet spot (per-event numpy overhead amortizes
#: well before 64 points, while group trace matrices stay small) and
#: bounds what one group failure forfeits to the scalar fallback.
_MAX_BATCH = 64


def _batch_groups(indices: Sequence[int], jobs: int) -> List[List[int]]:
    """Slice point indices into contiguous declaration-order groups.

    Contiguity matters: neighbouring sweep points usually share decision
    structure (same algorithm, stepped rates), which is exactly what the
    vectorized engine groups on.  Size targets one group per worker so
    batch dispatch still fans out, capped at :data:`_MAX_BATCH`.
    """
    size = max(1, min(_MAX_BATCH, -(-len(indices) // max(1, jobs))))
    return [list(indices[i : i + size]) for i in range(0, len(indices), size)]


def _batch_entry(item: Mapping[str, Any]) -> List[Any]:
    """Worker-side batch adapter: one dispatched point-group.

    A top-level function so every backend can ship it by import token;
    the *sweep's* batch function travels inside the item as its own
    ``(module, qualname)`` token plus the group's point mappings —
    exactly the purity rules per-point dispatch already imposes.
    """
    obj: Any = importlib.import_module(item["module"])
    for part in item["qualname"].split("."):
        obj = getattr(obj, part)
    return obj([dict(p) for p in item["points"]])


def run_sweep(
    sweep: Sweep,
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[Progress], None] | None = None,
    code: str | None = None,
    backend: ExecutionBackend | str | None = None,
    resume: bool = False,
    on_error: str = "raise",
    retry: RetryPolicy | None = None,
    retry_quarantined: bool = False,
    batch: bool = True,
) -> SweepResult:
    """Evaluate every point of ``sweep``, cheapest source first.

    Args:
        sweep: the declaration to run.
        jobs: worker processes for the cache-miss points (1 = inline).
        cache: result cache, or ``None`` to recompute everything and
            write nothing (the default — library callers like the
            experiments' ``run()`` helpers stay side-effect free).
        progress: callback streamed one event per point, in point
            order, as each point resolves (cached points immediately,
            computed points as the backend delivers them).
        code: code-version override for the cache keys (tests only).
        backend: execution backend — a registry name (``"serial"``,
            ``"process"``, ``"persistent"``), an already-constructed
            :class:`~repro.runner.backends.ExecutionBackend` (the
            campaign path: pass one instance to keep persistent workers
            warm across sweeps), or ``None``/``"auto"`` for the historic
            default (inline when ``jobs <= 1``, fresh pool otherwise).
        resume: consult the sweep's cache index (one read of the
            sweep's log) for which points already exist and look up
            only those; points missing from the index — the tail a
            killed run never wrote, or failed points, which are never
            cached — are recomputed, everything else is loaded.
            Requires ``cache``.
        on_error: ``"raise"`` (default) re-raises the first failing
            point as :class:`SweepPointError`; ``"keep"`` records the
            failure as a ``status="error"`` outcome and keeps the
            sweep running.  Aggregation then sees the failed points as
            :data:`FAILED` sentinel holes in their original positions
            (the default aggregation drops them; a custom aggregate
            that raises on the holes yields the successful values
            unaggregated).
        retry: the :class:`RetryPolicy` — bounded per-point retries
            with deterministic backoff, a per-point timeout, and the
            ``max_failures`` circuit breaker.  ``None`` (the default)
            is the inert policy: the runner behaves, byte for byte,
            as if the fault-tolerance layer did not exist.
        retry_quarantined: on a ``resume`` run, re-attempt points the
            cache has quarantined as known-permanent failures instead
            of skipping them (a success clears the quarantine record).
        batch: allow batched dispatch (default on).  Takes effect only
            when the sweep declares a ``batch_fn`` that is shippable by
            import token; cache-miss points then go out as whole
            point-groups first, and any group that fails re-enters the
            ordinary scalar path — per-point retries, quarantine, and
            ``on_error`` semantics included.  ``--no-batch`` (or
            ``batch=False``) restores pure per-point dispatch.  Cache
            keys, point order, and aggregated rows are identical either
            way; only the manifest's provenance stamps differ.

    Point results reach ``sweep.aggregate`` in declaration order no
    matter which points were cached or which backend ran the rest, so
    the aggregated rows are identical across all execution modes.
    Retries change neither: a point that succeeds on attempt ``k``
    produces the same value, cache key, and manifest record as one
    that succeeds on attempt 0, and results still stream in
    declaration order (a retried point simply resolves late, after a
    ``status="retry"`` progress event per failed attempt).
    """
    if resume and cache is None:
        raise ValueError("resume=True requires a cache")
    if on_error not in ("raise", "keep"):
        raise ValueError(f"on_error must be 'raise' or 'keep', got {on_error!r}")
    policy = retry or RetryPolicy()
    start = time.perf_counter()
    total = len(sweep.points)
    if cache and code is None:
        # Resolve the code version once per sweep: one cheap re-stat of
        # the package sources, and every point of the sweep is keyed
        # against the same snapshot.
        code = code_version()
    keys = [point_key(sweep.name, p, code) for p in sweep.points] if cache else []
    resolved: List[Optional[PointOutcome]] = [None] * total

    known = cache.manifest_keys(sweep.name) if (cache and resume) else None
    quarantined = (
        cache.quarantined(sweep.name)
        if (cache and resume and not retry_quarantined)
        else {}
    )
    # A manifest listing is a hint, not a promise: get_many still
    # validates every record and reports a stale or corrupt one as a
    # miss to recompute.
    hits = cache.get_many(sweep.name, [
        key for key in keys
        if key not in quarantined and (known is None or key in known)
    ]) if cache else {}
    missing: List[int] = []
    for idx, params in enumerate(sweep.points):
        if cache and keys[idx] in quarantined:
            # A known-permanent failure from a previous run: resolve it
            # as quarantined instead of burning its full retry budget
            # again.  --retry-quarantined opts back in.
            resolved[idx] = PointOutcome(
                params, keys[idx], None, False, 0.0,
                status="quarantined",
                error=quarantined[keys[idx]].get("error"),
            )
        elif cache and keys[idx] in hits:
            resolved[idx] = PointOutcome(
                params, keys[idx], hits[keys[idx]], True, 0.0
            )
        else:
            missing.append(idx)

    exec_backend, owned = resolve_backend(backend, jobs)
    result = SweepResult(name=sweep.name, title=sweep.title)

    def emit(
        idx: int, status: str, seconds: float, cached: bool = False
    ) -> None:
        if progress:
            progress(
                Progress(
                    sweep=sweep.name,
                    index=idx,
                    total=total,
                    params=sweep.points[idx],
                    cached=cached,
                    seconds=seconds,
                    status=status,
                )
            )

    def commit(
        indices: Sequence[int], values: Sequence[Any], seconds: float,
        batch: bool = False,
    ) -> None:
        """Record freshly computed values: normalise them, resolve their
        points and write them to the cache in one ``put_many``."""
        entries: List[Tuple[str, Mapping[str, Any], Any]] = []
        for idx, value in zip(indices, values):
            params, key = sweep.points[idx], keys[idx] if cache else ""
            value = _normalize(value)
            entries.append((key, params, value))
            resolved[idx] = PointOutcome(
                params, key, value, False, seconds, batch=batch
            )
        if cache:
            cache.put_many(sweep.name, entries, batch=batch)

    failures: List[Dict[str, Any]] = []

    def fail(idx: int, task, attempts: int) -> None:
        """A point is out of attempts: keep, raise, or trip the breaker."""
        params, key = sweep.points[idx], keys[idx] if cache else ""
        if on_error == "raise":
            raise SweepPointError(
                sweep.name, params, task.error
            ) from task.exception
        resolved[idx] = PointOutcome(
            params, key, None, False, task.seconds,
            status="error", error=task.error,
        )
        if cache and policy.retries > 0:
            # The point failed every attempt of an explicit retry
            # budget: quarantine it so resumes stop paying for it.
            # (Without a retry policy nothing is journalled — failed
            # points stay uncached and resume recomputes them, the
            # historic behaviour.)
            cache.quarantine(sweep.name, key, params, _error_summary(task.error))
        failures.append(
            {"params": dict(params), "error": _error_summary(task.error),
             "attempts": attempts}
        )
        emit(idx, "error", task.seconds)
        if policy.max_failures is not None and len(failures) >= policy.max_failures:
            raise CircuitOpenError(
                FailureReport(
                    sweep=sweep.name,
                    total=total,
                    resolved=sum(1 for o in resolved if o is not None),
                    max_failures=policy.max_failures,
                    failures=tuple(failures),
                )
            )

    def _context(indices: Sequence[int]) -> Optional[CacheContext]:
        """Cache addressing for a dispatch round, for backends that
        asked for it (``supports_context``)."""
        if cache is None or not getattr(exec_backend, "supports_context", False):
            return None
        return CacheContext(
            sweep=sweep.name,
            root=str(cache.root),
            code=code,
            keys=tuple(keys[i] for i in indices),
        )

    if batch and missing and sweep.batch_fn is not None:
        token = _token_for(sweep.batch_fn)
        if token is not None:
            # The batch round: ship whole point-groups through the
            # sweep's batch function first.  A successful group resolves
            # its points here (round 0 below still emits them in
            # declaration order); a failed group leaves its points in
            # ``missing`` for per-point dispatch, retries and all.
            groups = _batch_groups(missing, jobs)
            items = [
                {
                    "module": token[0],
                    "qualname": token[1],
                    "points": [dict(sweep.points[i]) for i in group],
                }
                for group in groups
            ]
            group_timeout = (
                policy.timeout * max(len(g) for g in groups)
                if policy.timeout is not None
                else None
            )
            dispatched = _map(
                exec_backend, _batch_entry, items, group_timeout, 0
            )
            try:
                for group, task in zip(groups, dispatched):
                    values = task.value if task.error is None else None
                    if isinstance(values, list) and len(values) == len(group):
                        commit(group, values, task.seconds / len(group), True)
                        result.batch_groups += 1
            finally:
                _close(dispatched)
            missing = [i for i in missing if resolved[i] is None]

    # Per-point rounds: round 0 walks the whole sweep in declaration
    # order, emitting what is already resolved and dispatching the
    # rest; each later round re-dispatches only the points that are
    # still failing.
    pending, computed = missing, None
    try:
        for round_no in range(policy.retries + 1):
            if round_no:
                if not pending:
                    break
                delay = policy.delay(round_no, sweep.name)
                if delay > 0:
                    time.sleep(delay)
            _close(computed)
            computed = _map(
                exec_backend,
                sweep.run_fn,
                [sweep.points[i] for i in pending],
                policy.timeout,
                round_no,
                _context(pending),
            )
            still_failing: List[int] = []
            for idx in range(total) if round_no == 0 else pending:
                if resolved[idx] is None:
                    task = next(computed)
                    if task.error is None:
                        commit([idx], [task.value], task.seconds)
                    elif round_no < policy.retries:
                        still_failing.append(idx)
                        emit(idx, "retry", task.seconds)
                        continue
                    else:
                        fail(idx, task, attempts=round_no + 1)
                        continue
                outcome = resolved[idx]
                emit(idx, outcome.status, outcome.seconds, outcome.cached)
            pending = still_failing
    finally:
        _close(computed)  # tear down a mid-sweep pool on error paths
        if owned:
            exec_backend.close()
    result.outcomes.extend(resolved)
    # Aggregates are positional, so they always see the full-length
    # values list — failed points (on_error="keep") appear as the
    # :data:`FAILED` sentinel in their slots rather than silently
    # shifting later values into earlier ones.  The default aggregation
    # drops the holes; a custom aggregate that cannot digest them falls
    # back to the successful values unaggregated (a partial sweep has
    # no trustworthy table).
    values = [
        o.value if o.status == "ok" else FAILED for o in result.outcomes
    ]
    if result.errors == 0 and result.quarantined == 0:
        result.rows = sweep.rows(values)
    else:
        try:
            result.rows = sweep.rows(values)
        except Exception:
            result.rows = [v for v in values if v is not FAILED]
    result.elapsed = time.perf_counter() - start
    return result


def run_campaign(
    campaign: Campaign,
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[Progress], None] | None = None,
    code: str | None = None,
    backend: ExecutionBackend | str | None = None,
    resume: bool = False,
    on_error: str = "raise",
    retry: RetryPolicy | None = None,
    retry_quarantined: bool = False,
    batch: bool = True,
) -> CampaignResult:
    """Run every sweep of ``campaign`` in order; see :func:`run_sweep`.

    The backend is resolved **once** for the whole campaign, so a
    ``"persistent"`` spec keeps its warm workers (and their in-process
    memo caches) alive from sweep to sweep — the scenario that backend
    exists for.  The retry policy (and its circuit breaker budget)
    applies per sweep.
    """
    exec_backend, owned = resolve_backend(backend, jobs)
    result = CampaignResult(name=campaign.name)
    try:
        for sweep in campaign.sweeps:
            result.sweeps.append(
                run_sweep(
                    sweep, jobs, cache, progress, code,
                    backend=exec_backend, resume=resume, on_error=on_error,
                    retry=retry, retry_quarantined=retry_quarantined,
                    batch=batch,
                )
            )
    finally:
        if owned:
            exec_backend.close()
    return result
