"""Unified sweep runner: declarative experiments, pluggable execution
backends, a manifest-indexed result store.

The experiment modules declare their work as :class:`Sweep`\\ s (points +
a pure per-point function) grouped into :class:`Campaign`\\ s;
:func:`run_sweep` / :func:`run_campaign` execute them on an
interchangeable :class:`~repro.runner.backends.ExecutionBackend`
(``serial`` inline, ``process`` fresh pool, ``persistent`` warm
workers) with results memoized in a content-addressed on-disk
:class:`ResultCache` that keeps each sweep in one append-only log, so a
commit is one write and ``cache info`` and ``--resume`` read one
index.  ``python -m repro sweep <name>`` is the
CLI front-end; ``benchmarks/conftest.py`` reuses the same cache through
:func:`cached_call`.  A :class:`RetryPolicy` adds the fault-tolerance
layer — bounded retries with deterministic backoff, per-point
timeouts, a ``max_failures`` circuit breaker, and cache-level
quarantine of known-permanent failures — proven against the
deterministic :class:`~repro.runner.backends.ChaosBackend` fault
injector.  See ``docs/runner.md`` for the architecture.
"""

from repro.runner.backends import (
    BACKENDS,
    CacheContext,
    ChaosBackend,
    ChaosFault,
    ChaosSpec,
    ExecutionBackend,
    PersistentBackend,
    PointTimeout,
    ProcessBackend,
    RemoteBackend,
    SerialBackend,
    TaskResult,
    create_backend,
    parallel_map,
    resolve_backend,
)
from repro.runner.cache import (
    CacheStats,
    ResultCache,
    cached_call,
    default_cache_dir,
)
from repro.runner.hashing import canonical_params, code_version, point_key
from repro.runner.prescreen import (
    PrescreenResult,
    PrescreenUnsupported,
    ScoredPoint,
    default_score,
    prescreen_sweep,
)
from repro.runner.sweep import (
    FAILED,
    BatchableFn,
    Campaign,
    CampaignResult,
    CircuitOpenError,
    FailureReport,
    PointOutcome,
    Progress,
    RetryPolicy,
    Sweep,
    SweepPointError,
    SweepResult,
    run_campaign,
    run_sweep,
    stamp_points,
)

__all__ = [
    "BACKENDS",
    "BatchableFn",
    "CacheContext",
    "CacheStats",
    "Campaign",
    "CampaignResult",
    "ChaosBackend",
    "ChaosFault",
    "ChaosSpec",
    "CircuitOpenError",
    "ExecutionBackend",
    "FAILED",
    "FailureReport",
    "PersistentBackend",
    "PointOutcome",
    "PointTimeout",
    "PrescreenResult",
    "PrescreenUnsupported",
    "ProcessBackend",
    "Progress",
    "RemoteBackend",
    "ResultCache",
    "RetryPolicy",
    "ScoredPoint",
    "SerialBackend",
    "Sweep",
    "SweepPointError",
    "SweepResult",
    "TaskResult",
    "cached_call",
    "canonical_params",
    "code_version",
    "create_backend",
    "default_cache_dir",
    "default_score",
    "parallel_map",
    "point_key",
    "prescreen_sweep",
    "resolve_backend",
    "run_campaign",
    "run_sweep",
    "stamp_points",
]
