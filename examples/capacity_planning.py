"""Capacity planning: query a huge configuration grid interactively.

The original version of this example swept seven memory sizes under one
algorithm with the full simulator.  The analytic model engine
(``run_scheduler(engine="model")``) answers the same question two to
three orders of magnitude faster per point, which changes what is
feasible: instead of hand-picking a few configurations, *enumerate the
whole design space* — memory budget × worker count × algorithm — and
only pay for full simulations on the shortlist.

Three stages:

1. **Grid query** — estimate every (memory, workers, algorithm) triple
   with the model engine.  The default grid is a few thousand points
   and runs in seconds; crank ``--memory-points``/``--worker-step`` up
   and the same loop handles million-point grids in minutes (the
   reported queries/second is the number to extrapolate with).
2. **Shortlist** — the cheapest configurations (GB·machines) whose
   *estimated* makespan meets the turnaround target.
3. **Verify** — the shortlist is re-run at full fidelity through the
   runner's model pre-screening (:func:`repro.runner.prescreen_sweep`
   plus :func:`repro.runner.run_sweep`), confirming the estimates
   within the model's validated error envelope (docs/engines.md).

Run with::

    python examples/capacity_planning.py [--memory-points N] [--keep K]
"""

from __future__ import annotations

import argparse
import time
from typing import Mapping

from repro.analysis import format_table
from repro.engine import BatchItem
from repro.experiments.batching import evaluate_batch, evaluate_point
from repro.platform import ut_cluster_platform
from repro.runner import Sweep, prescreen_sweep, run_sweep
from repro.schedulers import SECTION8_SCHEDULERS, section8_scheduler
from repro.workloads import Workload

#: Workload and deadline of the original example, kept for continuity.
WORKLOAD = ("nightly batch", 8000, 8000, 32000)
TARGET_S = 1200.0
Q = 80


def _item(params: Mapping) -> BatchItem:
    """One configuration's engine inputs, rebuilt from its scalars."""
    platform = ut_cluster_platform(
        p=params["p"], memory_mb=params["memory_mb"], q=params["q"]
    )
    workload = Workload(
        params["workload"], params["n_a"], params["n_ab"], params["n_b"]
    )
    return BatchItem(
        scheduler=lambda: section8_scheduler(params["algorithm"]),
        platform=platform,
        shape=workload.shape(params["q"]),
        engine=params.get("engine", "fast"),
    )


def _row(params: Mapping, trace) -> dict:
    return {
        "memory_mb": params["memory_mb"],
        "p": params["p"],
        "algorithm": params["algorithm"],
        "makespan_s": trace.makespan,
        "workers": len(trace.enrolled_workers),
        "gb_machines": params["p"] * params["memory_mb"] / 1024.0,
    }


def _point(params: Mapping) -> dict:
    """One configuration, simulated or estimated per ``params['engine']``.

    Top-level and pure so the sweep runner can cache it and fan it out
    across processes like any experiment point.
    """
    return evaluate_point(params, _item, _row)


def _batch_points(points) -> list:
    """Batched grid evaluation (the :data:`repro.runner.BatchableFn`
    contract): whole point-groups go through the vectorized engine,
    with per-point scalar fallback wherever configurations differ
    structurally."""
    return evaluate_batch(points, _item, _row)


def build_grid(
    scale: int = 1, memory_points: int = 12, worker_step: int = 2
) -> tuple:
    """The (memory × workers × algorithm) point grid, as sweep points."""
    name, n_a, n_ab, n_b = WORKLOAD
    lo, hi = 48.0, 768.0
    memories = [
        round(lo * (hi / lo) ** (i / (memory_points - 1)), 1)
        if memory_points > 1 else lo
        for i in range(memory_points)
    ]
    return tuple(
        {
            "workload": name,
            "n_a": max(n_a // scale, 4 * Q),
            "n_ab": max(n_ab // scale, 4 * Q),
            "n_b": max(n_b // scale, 4 * Q),
            "algorithm": algorithm,
            "p": p,
            "memory_mb": memory_mb,
            "q": Q,
        }
        for memory_mb in memories
        for p in range(2, 17, worker_step)
        for algorithm in SECTION8_SCHEDULERS
    )


def main(
    scale: int = 1,
    memory_points: int = 12,
    worker_step: int = 2,
    keep: int = 6,
) -> None:
    points = build_grid(scale, memory_points, worker_step)
    name = WORKLOAD[0]
    target = TARGET_S / scale
    print(f"Workload: {name} (scale 1/{scale}), turnaround target {target:.0f} s")
    print(f"Design space: {len(points)} configurations "
          f"({memory_points} memory sizes x workers x {len(SECTION8_SCHEDULERS)} algorithms)\n")

    # 1. Query the whole grid with the model engine — batched: the
    #    grid is grouped by structural signature and each group's
    #    closed-form recurrence runs vectorized across its points
    #    (bitwise-identical to the scalar loop it replaced).
    start = time.perf_counter()
    estimates = _batch_points([{**p, "engine": "model"} for p in points])
    elapsed = time.perf_counter() - start
    rate = len(points) / elapsed if elapsed > 0 else float("inf")
    print(
        f"Model engine answered {len(points)} queries in {elapsed:.2f} s "
        f"({rate:,.0f} queries/s -> a million-point grid would take "
        f"~{1_000_000 / rate / 60:.1f} min)"
    )

    # 2. Shortlist: cheapest estimated-feasible configurations.
    feasible = [e for e in estimates if e["makespan_s"] <= target]
    print(f"Estimated feasible under the target: {len(feasible)} configurations")
    if not feasible:
        print("\nNo configuration meets the target; add bandwidth, not RAM —")
        print("the port is the bottleneck at every memory size.")
        return
    feasible.sort(key=lambda e: (e["gb_machines"], e["makespan_s"]))
    print(format_table(
        feasible[:keep],
        title=f"Cheapest estimated-feasible configurations (model engine)",
    ))

    # 3. Verify the shortlist at full fidelity via runner pre-screening:
    #    score by estimated cost-with-feasibility, keep the best, simulate.
    def score(params: Mapping, row: Mapping) -> float:
        cost = params["p"] * params["memory_mb"] / 1024.0
        return cost if row["makespan_s"] <= target else float("inf")

    screened = prescreen_sweep(
        Sweep(
            name="capacity", run_fn=_point, points=points,
            batch_fn=_batch_points,
        ),
        keep=keep,
        score=score,
    )
    verified = run_sweep(screened.sweep).rows
    for row in verified:
        row["meets_target"] = row["makespan_s"] <= target
    print()
    print(format_table(verified, title="Shortlist re-simulated (fast engine)"))

    best = min(
        (r for r in verified if r["meets_target"]),
        key=lambda r: (r["gb_machines"], r["makespan_s"]),
        default=None,
    )
    if best is None:
        print("\nEvery shortlisted estimate missed the target under full "
              "simulation — widen --keep (the envelope is ~10%).")
    else:
        print(
            f"\nCheapest verified configuration: {best['algorithm']} with "
            f"{best['p']} workers x {best['memory_mb']:.0f} MB "
            f"({best['gb_machines']:.1f} GB-machines) -> "
            f"{best['makespan_s']:.0f} s."
        )
        print(
            "Diminishing returns beyond that: CCR falls as 2/sqrt(m), so "
            "doubling memory buys only ~30% less traffic."
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--memory-points", type=int, default=12)
    parser.add_argument("--worker-step", type=int, default=2)
    parser.add_argument("--keep", type=int, default=6)
    args = parser.parse_args()
    main(
        scale=args.scale,
        memory_points=args.memory_points,
        worker_step=args.worker_step,
        keep=args.keep,
    )
