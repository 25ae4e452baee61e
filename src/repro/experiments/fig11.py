"""Figure 11 — run-to-run variation.

The paper repeats identical executions five times and observes up to a
~6 % spread, concluding that algorithms within 6 % of each other should
be considered equivalent.  We reproduce the *analysis*: the platform's
``c``/``w`` parameters receive lognormal jitter (calibrated σ) per run,
and the maximum relative gap between runs of the same algorithm is
reported.

One sweep point = one algorithm (its ``runs`` jittered executions
happen inside the point).  Each point draws from its own RNG stream,
seeded by ``(seed, algorithm index)``, so points are independent of
execution order — a requirement for parallel fan-out and caching.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.analysis.tables import format_table
from repro.engine import BatchItem, run_batch
from repro.engine.launch import run_scalar
from repro.platform.model import perturbed
from repro.platform.named import ut_cluster_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points
from repro.schedulers import SECTION8_SCHEDULERS, section8_scheduler
from repro.workloads import FIG10_WORKLOADS, Workload

__all__ = ["run", "main", "sweep", "campaign"]


def _items(params: Mapping) -> list:
    """The point's ``runs`` jittered engine inputs, in draw order.

    Drawing the platforms up front consumes the RNG stream exactly as
    the original per-run loop did (scheduler construction never touches
    the stream), so the scalar and batched paths see identical
    platforms.  Each item builds a fresh scheduler instance per run
    (some keep per-run state).
    """
    rng = np.random.default_rng((params["seed"], params["algo_index"]))
    base = ut_cluster_platform(p=8)
    shape = Workload(
        params["workload"], params["n_a"], params["n_ab"], params["n_b"]
    ).shape(80)
    return [
        BatchItem(
            scheduler=lambda a=params["algorithm"]: section8_scheduler(a),
            platform=perturbed(base, rng, params["sigma"]),
            shape=shape,
            engine=params.get("engine", "fast"),
        )
        for _ in range(params["runs"])
    ]


def _row(params: Mapping, times: Sequence[float]) -> dict:
    lo, hi = min(times), max(times)
    return {
        "algorithm": params["algorithm"],
        "runs": params["runs"],
        "min_s": lo,
        "mean_s": sum(times) / len(times),
        "max_s": hi,
        "spread_pct": 100.0 * (hi - lo) / lo,
    }


def _point(params: Mapping) -> dict:
    """Repeat one algorithm ``runs`` times under platform jitter."""
    return _row(params, [run_scalar(item).makespan for item in _items(params)])


def _batch_points(points: Sequence[Mapping]) -> list:
    """Batched fig11 evaluation: flatten every point's jittered runs
    into one item stream so runs group across points as well as within
    them (they share the decision structure whenever the jitter leaves
    scheduler choices untouched)."""
    items = [_items(params) for params in points]
    traces = iter(run_batch([item for runs in items for item in runs]))
    return [
        _row(params, [next(traces).makespan for _ in runs])
        for params, runs in zip(points, items)
    ]


def sweep(
    runs: int = 5, sigma: float = 0.02, scale: int = 8, seed: int = 2007,
    engine: str = "fast", backend: str | None = None,
) -> Sweep:
    """Declare one jittered-repeat point per Section 8 algorithm."""
    workload = FIG10_WORKLOADS[0].scaled(scale)
    points = tuple(
        {
            "algorithm": name,
            "algo_index": index,
            "runs": runs,
            "sigma": sigma,
            "seed": seed,
            "workload": workload.name,
            "n_a": workload.n_a,
            "n_ab": workload.n_ab,
            "n_b": workload.n_b,
        }
        for index, name in enumerate(SECTION8_SCHEDULERS)
    )
    return Sweep(
        name="fig11",
        run_fn=_point,
        points=stamp_points(points, engine=engine, backend=backend),
        title="Figure 11: run-to-run variation (jittered platform)",
        batch_fn=_batch_points,
    )


def campaign(
    scale: int = 8, engine: str = "fast", backend: str | None = None
) -> Campaign:
    """The Figure 11 campaign (a single sweep)."""
    return Campaign(
        "fig11", (sweep(scale=scale, engine=engine, backend=backend),)
    )


def run(
    runs: int = 5,
    sigma: float = 0.02,
    scale: int = 8,
    seed: int = 2007,
    engine: str = "fast",
    jobs: int = 1,
    backend: str | None = None,
) -> list[dict]:
    """Repeat each algorithm ``runs`` times under platform jitter.

    Returns per-algorithm min/max/mean makespan and the max spread
    ``(max-min)/min`` — the paper's Figure 11 quantity.
    """
    return run_sweep(
        sweep(
            runs=runs, sigma=sigma, scale=scale, seed=seed, engine=engine,
            backend=backend,
        ),
        jobs=jobs,
        backend=backend,
    ).rows


def main() -> None:
    """Print the Figure 11 variation table."""
    rows = run()
    print(format_table(rows, title="Figure 11: run-to-run variation (jittered platform)"))
    worst = max(r["spread_pct"] for r in rows)
    print(
        f"\nMax spread observed: {worst:.1f}% — the paper reports ~6%; "
        "algorithms within this band count as equivalent."
    )


if __name__ == "__main__":
    main()
