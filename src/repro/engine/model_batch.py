"""Vectorized analytic-model evaluation: many estimates per heap walk.

The model engine (:mod:`repro.engine.model`) already reduced one point
to a 3-event-per-chunk heap walk, but capacity-planning grids evaluate
*millions* of such points and pay that walk once each — even when
hundreds of neighbouring points (the same scheduler on rate-perturbed
platforms) share the identical chunk streams and dispatch order.  For
such a group the walk's control flow is a function of the *structure*,
and only the clock arithmetic depends on ``c_i``/``w_i`` — which
vectorizes.

:func:`run_model_batch` applies :func:`repro.engine.batch.run_batch`'s
discipline to the estimator:

1. **Group by structure** through
   :func:`repro.engine.launch.launch_groups`, the grouping both batched
   tiers share: a cheap pre-key, then the scheduler's plan tokens
   (:meth:`~repro.schedulers.base.ChunkScheduler.plan_signatures`) with
   one representative launch per group, else the structural signature
   of every member's launch on a :class:`~repro.engine.model.ModelEngine`.
2. **One heap walk per group.**  The group's first point (the
   *representative*) drives a verbatim replay of ``model._estimate``'s
   stationary path; every time-valued scalar is shadowed by an ``(N,)``
   float64 array computed with the identical operation sequence, and
   every heap pop is verified against the representative's dispatch
   order (strict advance where the representative strictly advances,
   non-decreasing across representative ties).  All structural
   quantities — chunk stats, peak buffers, update counts, comm blocks —
   are group-invariant by the signature.
3. **Scalar fallback per item.**  Diverged rows, sub-minimum groups,
   scenario points (a rate-step crossing changes the *shape* of the
   estimate, not just its clocks) and schedulers the model engine
   rejects all take the ordinary scalar ``run_scheduler`` path, so
   every returned :class:`~repro.engine.model.ModelEstimate` is
   float-identical to the scalar engine's — prescreen scores and cache
   keys cannot shift.

The soundness argument is :mod:`repro.engine.batch`'s, specialised:
the estimator's only control decisions are heap-pop order (verified
per pop), queue pops (determined by pop order), and structural
comparisons (group-invariant); the remaining ``max()`` selects are
value selects computed with ``np.maximum``, which picks the identical
bytes the scalar ``if``/``else`` does.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.batch import MIN_GROUP, BatchItem
from repro.engine.common import memory_exceeded
from repro.engine.launch import _GroupAbort, run_scalar, scan_groups
from repro.engine.model import (
    _BULK,
    _COUT,
    _START,
    ModelEngine,
    ModelEstimate,
    _chunk_stats,
    _Run,
)

__all__ = ["batch_model_items", "run_model_batch"]


def _scan_model_group(
    rep: ModelEngine, c_m: np.ndarray, w_m: np.ndarray
) -> Tuple[List[ModelEstimate], np.ndarray]:
    """Replay the stationary estimator once for the whole group.

    ``rep`` is the launched engine of the group's first point; ``c_m``
    and ``w_m`` are the group's ``(n, p)`` per-worker rate matrices
    (row 0 belongs to the representative).  The ``*_r`` locals mirror
    ``model._estimate``'s inlined stationary path statement for
    statement (they *are* that walk for point 0); each is shadowed by
    an ``(N,)`` array holding the same quantity for every point.
    Returns one estimate per row plus the validity mask.  Raises
    :class:`~repro.engine.launch._GroupAbort` when the representative's
    own flow raises or its update count is wrong (both structural, so
    every member re-runs scalar and raises authentically).
    """
    n = len(c_m)
    workers = rep.platform.workers
    p = rep.platform.p
    two_port = rep.two_port
    check_memory = rep.check_memory
    recv_pid = 1 if two_port else 0

    c_r = [wk.c for wk in workers]
    w_r = [wk.w for wk in workers]
    c_v = [np.ascontiguousarray(c_m[:, widx]) for widx in range(p)]
    w_v = [np.ascontiguousarray(w_m[:, widx]) for widx in range(p)]

    zeros = np.zeros(n)
    port_avail_r = [0.0, 0.0]
    port_avail_v = [zeros, zeros]
    comm_r = [0.0, 0.0]
    comm_v = [np.zeros(n), np.zeros(n)]
    busy_v = [np.zeros(n) for _ in range(p)]
    updates_done = [0] * p
    peaks = [0] * p
    comm_blocks_total = 0
    updates_total = 0
    makespan_v = np.zeros(n)

    ok = np.ones(n, dtype=bool)
    tb = np.empty(n, dtype=bool)  # comparison scratch

    # Entries are (time_r, seq, stage, run, time_v); seq is unique so
    # comparisons never reach the run object or the array.
    heap: list = []
    seq = 0
    for spec in rep.env.agents:
        heappush(heap, (0.0, seq, _START, _Run(spec), zeros))
        seq += 1

    prev_r = 0.0
    prev_v = zeros
    pop = heappop
    push = heappush
    while heap:
        now_r, _, stage, run, now_v = pop(heap)
        # Dispatch-order lock (see repro.engine.batch): along the
        # representative's pop sequence every row must advance strictly
        # where the rep does and non-decreasingly across rep ties (a rep
        # tie resolves by seq, which is control-path determined and
        # therefore identical for a still-locked row).
        if now_r != prev_r:
            np.greater(now_v, prev_v, out=tb)
        else:
            np.less_equal(prev_v, now_v, out=tb)
        np.logical_and(ok, tb, out=ok)
        prev_r = now_r
        prev_v = now_v
        widx = run.widx
        cf_r = c_r[widx]
        cf_v = c_v[widx]
        if stage == _START:
            queue = run.queue
            if queue is not None:
                chunk = queue.pop()
            else:
                cursor = run.cursor
                if cursor < len(run.chunks):
                    chunk = run.chunks[cursor]
                    run.cursor = cursor + 1
                else:
                    chunk = None
            if chunk is None:
                continue
            stats = chunk.__dict__.get(run.stats_key)
            if stats is None:
                stats = _chunk_stats(chunk, run.gap)
            run.stats = stats
            peak = stats[5]
            if peak > peaks[widx]:
                peaks[widx] = peak
                if check_memory and peak > workers[widx].m:
                    raise _GroupAbort(
                        memory_exceeded(widx, peak, workers[widx].m, now_r)
                    )
            run.chunk = chunk
            blocks = stats[0] + stats[3]
            avail_r = port_avail_r[0]
            start_r = avail_r if avail_r > now_r else now_r
            fill_r = start_r + blocks * cf_r
            # Value select, not control flow: np.maximum picks the
            # identical bytes the scalar `avail if avail > now` does.
            start_v = np.maximum(port_avail_v[0], now_v)
            fill_v = start_v + blocks * cf_v
            port_avail_r[0] = fill_r
            port_avail_v[0] = fill_v
            comm_r[0] += fill_r - start_r
            comm_v[0] += fill_v - start_v
            push(heap, (fill_r, seq, _BULK, run, fill_v))
            seq += 1
        elif stage == _BULK:
            c_blocks, ab, ups, fill, last_ups, _ = run.stats
            avail_r = port_avail_r[0]
            bulk_start_r = avail_r if avail_r > now_r else now_r
            deliver_r = bulk_start_r + (ab - fill) * cf_r
            bulk_start_v = np.maximum(port_avail_v[0], now_v)
            deliver_v = bulk_start_v + (ab - fill) * cf_v
            port_avail_r[0] = deliver_r
            port_avail_v[0] = deliver_v
            comm_r[0] += deliver_r - bulk_start_r
            comm_v[0] += deliver_v - bulk_start_v
            wf_r = w_r[widx]
            wf_v = w_v[widx]
            nominal_r = now_r + ups * wf_r
            nominal_v = now_v + ups * wf_v
            busy_v[widx] += nominal_v - now_v
            updates_done[widx] += ups
            if run.gap == 1:
                comp_r = deliver_r + ups * wf_r
                comp_v = deliver_v + ups * wf_v
            else:
                gated_r = deliver_r + last_ups * wf_r
                gated_v = deliver_v + last_ups * wf_v
                comp_r = nominal_r if nominal_r > gated_r else gated_r
                comp_v = np.maximum(nominal_v, gated_v)
            push(heap, (comp_r, seq, _COUT, run, comp_v))
            seq += 1
        else:  # _COUT
            stats = run.stats
            c_blocks = stats[0]
            avail_r = port_avail_r[recv_pid]
            start_r = avail_r if avail_r > now_r else now_r
            done_r = start_r + c_blocks * cf_r
            start_v = np.maximum(port_avail_v[recv_pid], now_v)
            done_v = start_v + c_blocks * cf_v
            port_avail_r[recv_pid] = done_r
            port_avail_v[recv_pid] = done_v
            comm_r[recv_pid] += done_r - start_r
            comm_v[recv_pid] += done_v - start_v
            comm_blocks_total += stats[1] + 2 * c_blocks
            updates_total += stats[2]
            np.maximum(makespan_v, done_v, out=makespan_v)
            push(heap, (done_r, seq, _START, run, done_v))
            seq += 1

    # run_scheduler's post-run accounting check is structural.
    if updates_total != rep.shape.total_updates:
        raise _GroupAbort()
    # Bulk-extract the columns once (`.tolist()` yields the same Python
    # floats bit for bit) instead of 256×(p+3) scalar indexing calls.
    makespan_l = makespan_v.tolist()
    port0_l = comm_v[0].tolist()
    port1_l = comm_v[1].tolist()
    busy_rows = list(zip(*(col.tolist() for col in busy_v)))
    worker_updates = tuple(updates_done)
    peak_blocks = tuple(peaks)
    estimates = [
        ModelEstimate(
            makespan=makespan_l[row],
            comm_blocks=comm_blocks_total,
            total_updates=updates_total,
            port_busy=(port0_l[row], port1_l[row]),
            worker_busy=busy_rows[row],
            worker_updates=worker_updates,
            peak_blocks=peak_blocks,
            two_port=two_port,
        )
        for row in range(n)
    ]
    return estimates, ok


def batch_model_items(
    items: Sequence[BatchItem],
    indices: Sequence[int],
    results: List[Any],
    min_group: int = MIN_GROUP,
) -> int:
    """Group the stationary model items of a batch and scan each group.

    ``indices`` selects the ``engine="model"``, scenario-free items of
    ``items``; each resolved slot of ``results`` receives either a
    vectorized :class:`~repro.engine.model.ModelEstimate` or the scalar
    fallback.  Returns how many items the vectorized path committed.
    Called by :func:`repro.engine.batch.run_batch`; use
    :func:`run_model_batch` for a standalone item list.
    """
    return scan_groups(
        items, indices, ModelEngine, _scan_model_group, results, True,
        min_group,
    )


def run_model_batch(
    items: Sequence[BatchItem],
    min_group: int = MIN_GROUP,
    counters: Dict[str, int] | None = None,
) -> List[Any]:
    """Evaluate model-engine ``items`` in structure-sharing groups.

    The standalone entry point (benchmarks, tests, library callers
    holding a pure model workload); :func:`repro.engine.batch.run_batch`
    reaches the same code for the model items of a mixed batch.  Items
    that are not stationary ``engine="model"`` points, or that diverge
    from their group, take the scalar :func:`~repro.engine.engine.
    run_scheduler` path — results are float-identical either way.

    ``counters``, when given, receives ``{"vectorized": V, "scalar":
    S}`` so callers (the throughput gate) can assert the fast path
    actually ran.
    """
    items = list(items)
    results: List[Any] = [None] * len(items)
    model_indices: List[int] = []
    for i, item in enumerate(items):
        if item.engine == "model" and item.scenario is None:
            model_indices.append(i)
        else:
            results[i] = run_scalar(item)
    vectorized = batch_model_items(
        items, model_indices, results, min_group=min_group
    )
    if counters is not None:
        counters["vectorized"] = vectorized
        counters["scalar"] = len(items) - vectorized
    return results
