"""Vectorized batch evaluation: many sweep points per engine pass.

The fast engine (:mod:`repro.engine.fast`) reduced one point to a single
chronological scan, but sweeps still pay that scan once per point even
when hundreds of nearby points — the same scheduler on rate-perturbed
platforms — share the *identical decision structure*: the same agents,
the same chunk streams, the same dispatch order.  For such a group the
only thing that differs between points is arithmetic on ``c_i``/``w_i``,
and arithmetic vectorizes.

:func:`run_batch` makes "evaluate N points" one operation:

1. **Group** the points by decision structure through
   :func:`repro.engine.launch.launch_groups`, the grouping both batched
   tiers share: a cheap pre-key (scheduler class, shape, port model,
   memory check, worker count), then the scheduler's plan tokens with
   one representative launch per group, else the structural signature
   of every member's launch on a
   :class:`~repro.engine.fast.FastEngine`.
2. **Scan once per group.** The group's first point (the
   *representative*) drives a verbatim replay of the fast engine's
   chronological scan; every time-valued scalar of that scan is
   shadowed by an ``(N,)`` float64 array holding the same quantity for
   all points, computed with the identical operation sequence (numpy
   elementwise float64 arithmetic is IEEE-identical to Python float
   arithmetic).  Every *control decision* the scan takes — gate
   comparisons, heap-head orderings, memory-expiry prefixes, the
   strict-vs-tie pattern of consecutive dispatch instants — is taken
   from the representative and then verified elementwise for the whole
   group; a point whose comparison resolves differently is marked
   *diverged*.
3. **Fall back per point.**  Diverged points, points whose structure
   matched nobody, scenario / non-``fast`` points, and schedulers the
   fast engine rejects are evaluated through the ordinary scalar
   :func:`~repro.engine.engine.run_scheduler` path.  Results are
   therefore **byte-identical to** ``engine="fast"`` for every point,
   always: the vectorized path only ever commits a result it proved
   followed the representative's decision trace exactly.

Valid points receive a :class:`BatchTrace` — a lightweight per-point
view over the group's shared ``(points, intervals)`` time matrices that
quacks like :class:`~repro.engine.trace.Trace` (same columns, metrics,
invariant checks, and :func:`~repro.analysis.metrics.summarize_trace`
output), with :meth:`BatchTrace.to_trace` materializing a real
:class:`Trace` on demand.

Why this is sound
-----------------
The fast scan is a deterministic function of (structure, rates).  Fix a
point ``k`` in a group and compare its scalar scan against the
representative's.  Both start in the same state.  Inductively, if both
have followed the same control path so far, every stored quantity of
``k``'s scan equals row ``k`` of the corresponding shadow array (same
operations, same operands, IEEE float64 both ways).  The next control
decision is a time comparison (all counts, labels and queue contents
are group-invariant by the signature); the scan verifies ``k`` resolves
it the same way, so the paths stay locked together — including ties,
because a tie is broken by the global scheduling counter and the
counter assignment is itself control-path determined.  A single failed
verification conservatively voids the point, never the result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks.shape import ProblemShape
from repro.engine.common import memory_exceeded
from repro.engine.fast import FastEngine
from repro.engine.launch import _GroupAbort, run_scalar, scan_groups
from repro.engine.trace import (
    CommInterval,
    ComputeInterval,
    Trace,
    _assert_no_overlap,
)
from repro.platform.model import Platform
from repro.scenarios.model import Scenario

__all__ = ["BatchItem", "BatchTrace", "run_batch"]

#: Smallest group worth vectorizing: below this the per-group setup
#: (shadow arrays, verification ops) costs more than it amortizes.
MIN_GROUP = 2


@dataclass(frozen=True)
class BatchItem:
    """One point of a batch evaluation.

    ``scheduler`` is a **factory** returning a fresh scheduler instance
    per call (launch consumes scheduler-built queues, and fallback
    paths re-launch), mirroring how the experiment modules construct
    one scheduler per :func:`~repro.engine.engine.run_scheduler` call.

    ``engine``/``scenario`` widen the contract so experiment batch
    functions can route *every* point through :func:`run_batch`:
    anything that is not a stationary ``engine="fast"`` point simply
    takes the scalar path.
    """

    scheduler: Callable[[], Any]
    platform: Platform
    shape: ProblemShape
    two_port: bool = False
    check_memory: bool = True
    engine: str = "fast"
    scenario: Optional[Scenario] = None


class _VAgent:
    """Vectorized twin of the fast engine's ``_Agent``: every time
    quantity exists twice, as the representative's Python float
    (``*_r``, drives control flow) and as the group's ``(N,)`` shadow
    array (``*_v``)."""

    __slots__ = (
        "widx", "gap", "chunks", "cursor", "queue",
        "c_r", "c_v", "w_r", "w_v",
        "chunk", "phases", "nph", "ab_labels", "upd_labels",
        "end1_r", "end1_v", "end2_r", "end2_v",
        "pidx", "stage", "wait_kind",
        "start_r", "start_v", "dur_r", "dur_v", "blocks",
    )

    def __init__(self, spec, c_r, c_v, w_r, w_v):
        self.widx = spec.widx
        self.gap = spec.gap
        self.chunks = spec.chunks
        self.cursor = 0
        self.queue = spec.queue
        self.c_r = c_r
        self.c_v = c_v
        self.w_r = w_r
        self.w_v = w_v


# Stage / wait constants mirror repro.engine.fast exactly.
_HOP = 0
_DONE = 1
_WAIT = 2
_CIN = 0
_PHASE = 1
_COUT = 2
_GAP = 0
_FINAL = 1


class _GroupTrace:
    """Shared structural + ``(N, E)`` time data of one scanned group."""

    __slots__ = (
        "n",
        "comm_worker", "comm_dir", "comm_blocks", "comm_label", "comm_port",
        "comm_start", "comm_end",
        "comp_worker", "comp_updates", "comp_label",
        "comp_start", "comp_end",
        "memory_peak",
    )


class _LazyIntervals:
    """Sequence view materializing interval tuples on demand."""

    __slots__ = ("_build", "_n")

    def __init__(self, build, n):
        self._build = build
        self._n = n

    def __len__(self):
        return self._n

    def __bool__(self):
        return self._n > 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._build(j) for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        return self._build(i)

    def __iter__(self):
        for i in range(self._n):
            yield self._build(i)

    def __eq__(self, other):
        if isinstance(other, (_LazyIntervals, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable-adjacent sequence semantics, like list


class BatchTrace:
    """One point's view of a vectorized group scan.

    Duck-types :class:`~repro.engine.trace.Trace`: the column accessors
    return the shared structural arrays plus this point's contiguous
    row of the group's ``(points, intervals)`` time matrices, so every
    metric — and :func:`~repro.analysis.metrics.summarize_trace`, which
    reduces over exactly these columns — computes the same bytes the
    scalar fast engine's trace would.  ``comms``/``computes`` are lazy
    sequences building real interval tuples on access (tests, error
    messages); :meth:`to_trace` materializes a full :class:`Trace`.
    """

    __slots__ = ("_g", "_i", "_comm_cols", "_compute_cols", "_peaks")

    def __init__(self, group: _GroupTrace, index: int):
        self._g = group
        self._i = index
        self._comm_cols: Optional[tuple] = None
        self._compute_cols: Optional[tuple] = None
        self._peaks: Optional[dict] = None

    # -- interval views -----------------------------------------------------
    @property
    def comms(self):
        g, i = self._g, self._i

        def build(e):
            return CommInterval(
                int(g.comm_worker[e]), g.comm_dir[e],
                float(g.comm_start[i, e]), float(g.comm_end[i, e]),
                int(g.comm_blocks[e]), g.comm_label[e], int(g.comm_port[e]),
            )

        return _LazyIntervals(build, len(g.comm_worker))

    @property
    def computes(self):
        g, i = self._g, self._i

        def build(e):
            return ComputeInterval(
                int(g.comp_worker[e]),
                float(g.comp_start[i, e]), float(g.comp_end[i, e]),
                int(g.comp_updates[e]), g.comp_label[e],
            )

        return _LazyIntervals(build, len(g.comp_worker))

    @property
    def memory_peak(self) -> dict:
        peaks = self._peaks
        if peaks is None:
            peaks = self._peaks = dict(self._g.memory_peak)
        return peaks

    def to_trace(self) -> Trace:
        """Materialize a real :class:`Trace` (parity tests, plotting)."""
        trace = Trace(
            comms=list(self.comms),
            computes=list(self.computes),
            memory_peak=dict(self._g.memory_peak),
        )
        return trace

    # -- columns (Trace-compatible) ----------------------------------------
    def comm_columns(self) -> tuple:
        cols = self._comm_cols
        if cols is None:
            g, i = self._g, self._i
            cols = self._comm_cols = (
                g.comm_worker, g.comm_start[i], g.comm_end[i],
                g.comm_blocks, g.comm_port,
            )
        return cols

    def compute_columns(self) -> tuple:
        cols = self._compute_cols
        if cols is None:
            g, i = self._g, self._i
            cols = self._compute_cols = (
                g.comp_worker, g.comp_start[i], g.comp_end[i], g.comp_updates,
            )
        return cols

    # -- metrics (bodies mirror Trace) -------------------------------------
    @property
    def makespan(self) -> float:
        last_comm = float(self.comm_columns()[2].max()) if self.comms else 0.0
        last_comp = (
            float(self.compute_columns()[2].max()) if self.computes else 0.0
        )
        return max(last_comm, last_comp)

    @property
    def work_makespan(self) -> float:
        if self.comms:
            worker, _, end, _, _ = self.comm_columns()
            real = end[worker > 0]
            last_comm = float(real.max()) if real.size else 0.0
        else:
            last_comm = 0.0
        last_comp = (
            float(self.compute_columns()[2].max()) if self.computes else 0.0
        )
        return max(last_comm, last_comp)

    @property
    def comm_blocks(self) -> int:
        return int(self.comm_columns()[3].sum()) if self.comms else 0

    @property
    def total_updates(self) -> int:
        return int(self.compute_columns()[3].sum()) if self.computes else 0

    @property
    def ccr(self) -> float:
        updates = self.total_updates
        if updates == 0:
            raise ValueError("no computation recorded; CCR undefined")
        return self.comm_blocks / updates

    @property
    def enrolled_workers(self) -> tuple:
        if not self.computes:
            return ()
        worker, _, _, updates = self.compute_columns()
        return tuple(int(w) for w in np.unique(worker[updates > 0]))

    def port_busy_time(self, port: int = 0) -> float:
        if not self.comms:
            return 0.0
        _, start, end, _, ports = self.comm_columns()
        mask = ports == port
        return float(np.sum(end[mask] - start[mask]))

    def port_utilisation(self, port: int = 0) -> float:
        span = self.makespan
        return self.port_busy_time(port) / span if span > 0 else 0.0

    def worker_busy_time(self, worker: int) -> float:
        if not self.computes:
            return 0.0
        workers, start, end, _ = self.compute_columns()
        mask = workers == worker
        return float(np.sum(end[mask] - start[mask]))

    def worker_utilisation(self, worker: int) -> float:
        span = self.makespan
        return self.worker_busy_time(worker) / span if span > 0 else 0.0

    def check_invariants(self) -> None:
        if self.comms:
            _, start, end, _, ports = self.comm_columns()
            _assert_no_overlap(ports, start, end, self.comms, "port {} overlap")
        if self.computes:
            workers, start, end, _ = self.compute_columns()
            _assert_no_overlap(
                workers, start, end, self.computes,
                "worker {} compute overlap",
            )


# ---------------------------------------------------------------------------
# The vectorized scan
# ---------------------------------------------------------------------------

def _scan_group(
    rep: FastEngine, c_m: np.ndarray, w_m: np.ndarray
) -> Tuple[_GroupTrace, np.ndarray]:
    """Replay the fast scan once for a structure-sharing group.

    ``rep`` is the launched engine of the group's first point; ``c_m``
    and ``w_m`` are the group's ``(n, p)`` per-worker rate matrices
    (row 0 belongs to the representative).  Returns the shared trace
    data and the validity mask.  Raises
    :class:`~repro.engine.launch._GroupAbort` when the representative's
    own control flow raises or its update count is wrong (the group
    then re-runs scalar).

    The body intentionally mirrors ``FastEngine.run`` statement for
    statement — the ``*_r`` locals *are* that scan for point 0, and
    every branch it takes is immediately re-checked elementwise against
    the ``*_v`` shadows.
    """
    n = len(c_m)
    workers = rep.platform.workers
    p = rep.platform.p
    recv_pid = 1 if rep.two_port else 0
    check_memory = rep.check_memory

    c_r = [wk.c for wk in workers]
    w_r = [wk.w for wk in workers]
    c_v = [np.ascontiguousarray(c_m[:, widx]) for widx in range(p)]
    w_v = [np.ascontiguousarray(w_m[:, widx]) for widx in range(p)]

    ok = np.ones(n, dtype=bool)
    tb = np.empty(n, dtype=bool)  # comparison scratch
    zeros = np.zeros(n)

    caps = [wk.m for wk in workers]
    mem_used = [0] * p
    peaks = [0] * p
    # (end_r, end_v, blocks) per worker; per-worker ends are monotone for
    # *every* point (FIFO compute), so expiry is a prefix for all rows.
    pending_free: List[List[tuple]] = [[] for _ in range(p)]
    port_free = [True, True]
    port_queue: Tuple[deque, deque] = (deque(), deque())
    # Entries are (time_r, seqcode, agent, time_v); seqcode is unique so
    # comparisons never reach the agent or the array.
    heap: list = []
    grants: List[_VAgent] = []
    push = heappush
    pop = heappop
    seq = 0

    compute_done_r = [0.0] * p
    compute_done_v = [zeros] * p

    comm_worker: List[int] = []
    comm_dir: List[str] = []
    comm_blocks_l: List[int] = []
    comm_label: List[str] = []
    comm_port: List[int] = []
    comm_start_l: List[np.ndarray] = []
    comm_end_l: List[np.ndarray] = []
    comp_worker: List[int] = []
    comp_updates: List[int] = []
    comp_label: List[str] = []
    comp_start_l: List[np.ndarray] = []
    comp_end_l: List[np.ndarray] = []

    def expire(widx: int, now_r: float, now_v: np.ndarray, used: int) -> int:
        """The scalar scan's lazy-release prefix loop, with both the
        expired prefix and the first kept entry verified row-wise."""
        pend = pending_free[widx]
        if pend:
            lim_r = now_r + 1e-12
            lim_v = now_v + 1e-12
            i = 0
            m = len(pend)
            while i < m and pend[i][0] <= lim_r:
                np.less_equal(pend[i][1], lim_v, out=tb)
                np.logical_and(ok, tb, out=ok)
                used -= pend[i][2]
                i += 1
            if i < m:
                # Ends are monotone per worker for every row, so one
                # "kept" check covers the whole suffix.
                np.greater(pend[i][1], lim_v, out=tb)
                np.logical_and(ok, tb, out=ok)
            if i:
                del pend[:i]
        return used

    def claim(agent: _VAgent, blocks: int, now_r: float, now_v: np.ndarray) -> None:
        widx = agent.widx
        used = expire(widx, now_r, now_v, mem_used[widx]) + blocks
        mem_used[widx] = used
        if used > peaks[widx]:
            peaks[widx] = used
            if check_memory and used > caps[widx]:
                raise _GroupAbort(memory_exceeded(widx, used, caps[widx], now_r))

    def request_phase(agent: _VAgent, j: int, now_r: float, now_v: np.ndarray) -> None:
        ph = agent.phases[j]
        in_blocks = ph[1] + ph[2]
        claim(agent, in_blocks, now_r, now_v)
        agent.stage = _PHASE
        agent.pidx = j
        agent.blocks = in_blocks
        agent.dur_r = in_blocks * agent.c_r
        agent.dur_v = in_blocks * agent.c_v
        if port_free[0]:
            port_free[0] = False
            agent.start_r = now_r
            agent.start_v = now_v
            grants.append(agent)
        else:
            port_queue[0].append(agent)

    def request_cout(agent: _VAgent, now_r: float, now_v: np.ndarray) -> None:
        blocks = agent.chunk.c_blocks
        agent.stage = _COUT
        agent.blocks = blocks
        agent.dur_r = blocks * agent.c_r
        agent.dur_v = blocks * agent.c_v
        if port_free[recv_pid]:
            port_free[recv_pid] = False
            agent.start_r = now_r
            agent.start_v = now_v
            grants.append(agent)
        else:
            port_queue[recv_pid].append(agent)

    def start_chunk(agent: _VAgent, now_r: float, now_v: np.ndarray) -> None:
        if agent.queue is not None:
            chunk = agent.queue.pop()
            if chunk is None:
                return
        else:
            if agent.cursor >= len(agent.chunks):
                return
            chunk = agent.chunks[agent.cursor]
            agent.cursor += 1
        agent.chunk = chunk
        agent.phases = chunk.phases
        agent.nph = len(chunk.phases)
        agent.ab_labels = chunk.ab_labels
        agent.upd_labels = chunk.upd_labels
        blocks = chunk.c_blocks
        claim(agent, blocks, now_r, now_v)
        agent.stage = _CIN
        agent.blocks = blocks
        agent.dur_r = blocks * agent.c_r
        agent.dur_v = blocks * agent.c_v
        if port_free[0]:
            port_free[0] = False
            agent.start_r = now_r
            agent.start_v = now_v
            grants.append(agent)
        else:
            port_queue[0].append(agent)

    def end_of_phases(agent: _VAgent, now_r: float, now_v: np.ndarray) -> None:
        nonlocal wait_agent, wait_time_r, wait_time_v
        final_r = compute_done_r[agent.widx]
        final_v = compute_done_v[agent.widx]
        np.greater(final_v, now_v, out=tb)
        if final_r > now_r:
            np.logical_and(ok, tb, out=ok)
            agent.wait_kind = _FINAL
            wait_agent = agent
            wait_time_r = now_r + (final_r - now_r)
            wait_time_v = now_v + (final_v - now_v)
        else:
            np.logical_not(tb, out=tb)
            np.logical_and(ok, tb, out=ok)
            request_cout(agent, now_r, now_v)

    # t=0 initialisation: agents run to their first port request in
    # creation order; grants flush per agent (mirrors FastEngine.run).
    agents = [
        _VAgent(spec, c_r[spec.widx], c_v[spec.widx], w_r[spec.widx], w_v[spec.widx])
        for spec in rep.env.agents
    ]
    wait_agent: Optional[_VAgent] = None
    wait_time_r = 0.0
    wait_time_v = zeros
    for agent in agents:
        start_chunk(agent, 0.0, zeros)
        if grants:
            granted = grants[0]
            seq += 4
            if heap and heap[0][0] <= 0.0:
                np.less_equal(heap[0][3], zeros, out=tb)
                np.logical_and(ok, tb, out=ok)
                push(heap, (0.0, seq, granted, zeros))
            else:
                if heap:
                    np.greater(heap[0][3], zeros, out=tb)
                    np.logical_and(ok, tb, out=ok)
                push(heap, (granted.dur_r, seq | _DONE, granted, granted.dur_v))
            grants.clear()

    pending: Optional[_VAgent] = None
    pending_time_r = 0.0
    pending_time_v = zeros
    pending_kind = _DONE
    prev_r = 0.0
    prev_v = zeros

    while heap or pending is not None:
        if pending is None:
            now_r, code, agent, now_v = pop(heap)
            kind = code & 3
        else:
            now_r = pending_time_r
            now_v = pending_time_v
            agent = pending
            pending = None
            kind = pending_kind
        # Dispatch-order lock: along the representative's dispatch
        # sequence every row must advance strictly where the rep does
        # and non-decreasingly across rep ties (a rep tie resolves by
        # the scheduling counter, which is control-path determined and
        # therefore identical for a still-locked row).
        if now_r != prev_r:
            np.greater(now_v, prev_v, out=tb)
        else:
            np.less_equal(prev_v, now_v, out=tb)
        np.logical_and(ok, tb, out=ok)
        prev_r = now_r
        prev_v = now_v
        if kind == _DONE:
            stage = agent.stage
            widx = agent.widx
            if stage == _PHASE:
                j = agent.pidx
                blocks = agent.blocks
                comm_worker.append(widx + 1)
                comm_dir.append("send")
                comm_blocks_l.append(blocks)
                comm_label.append(agent.ab_labels[j])
                comm_port.append(0)
                comm_start_l.append(agent.start_v)
                comm_end_l.append(now_v)
                waiters = port_queue[0]
                if waiters:
                    nxt = waiters.popleft()
                    nxt.start_r = now_r
                    nxt.start_v = now_v
                    grants.append(nxt)
                else:
                    port_free[0] = True
                ph = agent.phases[j]
                start_r = compute_done_r[widx]
                if now_r > start_r:
                    start_r = now_r
                # Value select, not control flow: np.maximum picks the
                # identical bytes the scalar `if now > start` does.
                start_v = np.maximum(compute_done_v[widx], now_v)
                updates = ph[3]
                end_r = start_r + updates * agent.w_r
                end_v = start_v + updates * agent.w_v
                compute_done_r[widx] = end_r
                compute_done_v[widx] = end_v
                comp_worker.append(widx + 1)
                comp_updates.append(updates)
                comp_label.append(agent.upd_labels[j])
                comp_start_l.append(start_v)
                comp_end_l.append(end_v)
                pending_free[widx].append((end_r, end_v, blocks))
                agent.end2_r = agent.end1_r
                agent.end2_v = agent.end1_v
                agent.end1_r = end_r
                agent.end1_v = end_v
                j += 1
                if j < agent.nph:
                    if j >= agent.gap:
                        if agent.gap == 1:
                            gate_r, gate_v = agent.end1_r, agent.end1_v
                        else:
                            gate_r, gate_v = agent.end2_r, agent.end2_v
                        np.greater(gate_v, now_v, out=tb)
                        if gate_r > now_r:
                            np.logical_and(ok, tb, out=ok)
                            agent.pidx = j
                            agent.wait_kind = _GAP
                            wait_agent = agent
                            wait_time_r = now_r + (gate_r - now_r)
                            wait_time_v = now_v + (gate_v - now_v)
                        else:
                            np.logical_not(tb, out=tb)
                            np.logical_and(ok, tb, out=ok)
                            request_phase(agent, j, now_r, now_v)
                    else:
                        # gate == now for every row: nothing to verify.
                        request_phase(agent, j, now_r, now_v)
                else:
                    end_of_phases(agent, now_r, now_v)
            elif stage == _CIN:
                comm_worker.append(widx + 1)
                comm_dir.append("send")
                comm_blocks_l.append(agent.blocks)
                comm_label.append("C-in")
                comm_port.append(0)
                comm_start_l.append(agent.start_v)
                comm_end_l.append(now_v)
                waiters = port_queue[0]
                if waiters:
                    nxt = waiters.popleft()
                    nxt.start_r = now_r
                    nxt.start_v = now_v
                    grants.append(nxt)
                else:
                    port_free[0] = True
                agent.end1_r = agent.end2_r = 0.0
                agent.end1_v = agent.end2_v = zeros
                if agent.nph:
                    request_phase(agent, 0, now_r, now_v)
                else:
                    end_of_phases(agent, now_r, now_v)
            else:  # _COUT — chunk complete: free C tile, next chunk
                comm_worker.append(widx + 1)
                comm_dir.append("recv")
                comm_blocks_l.append(agent.blocks)
                comm_label.append("C-out")
                comm_port.append(recv_pid)
                comm_start_l.append(agent.start_v)
                comm_end_l.append(now_v)
                waiters = port_queue[recv_pid]
                if waiters:
                    nxt = waiters.popleft()
                    nxt.start_r = now_r
                    nxt.start_v = now_v
                    grants.append(nxt)
                else:
                    port_free[recv_pid] = True
                used = expire(widx, now_r, now_v, mem_used[widx])
                mem_used[widx] = used - agent.blocks
                start_chunk(agent, now_r, now_v)
        elif kind == _WAIT:
            if agent.wait_kind == _GAP:
                request_phase(agent, agent.pidx, now_r, now_v)
            else:  # _FINAL
                request_cout(agent, now_r, now_v)
        else:  # _HOP — a tie forced the grant hop; sequence the completion
            seq += 4
            push(heap, (now_r + agent.dur_r, seq | _DONE, agent,
                        now_v + agent.dur_v))
            continue
        if wait_agent is not None:
            seq += 4
            if grants:
                push(heap, (wait_time_r, seq | _WAIT, wait_agent, wait_time_v))
            elif heap:
                head = heap[0]
                np.less_equal(head[3], wait_time_v, out=tb)
                if head[0] <= wait_time_r:
                    np.logical_and(ok, tb, out=ok)
                    push(heap, (wait_time_r, seq | _WAIT, wait_agent, wait_time_v))
                else:
                    np.logical_not(tb, out=tb)
                    np.logical_and(ok, tb, out=ok)
                    pending = wait_agent
                    pending_time_r = wait_time_r
                    pending_time_v = wait_time_v
                    pending_kind = _WAIT
            else:
                pending = wait_agent
                pending_time_r = wait_time_r
                pending_time_v = wait_time_v
                pending_kind = _WAIT
            wait_agent = None
        if grants:
            granted = grants[0]
            if len(grants) == 1:
                grants.clear()
                fused = False
                if heap:
                    head = heap[0]
                    np.less_equal(head[3], now_v, out=tb)
                    if head[0] <= now_r:
                        np.logical_and(ok, tb, out=ok)
                        seq += 4
                        push(heap, (now_r, seq, granted, now_v))
                        continue
                    np.logical_not(tb, out=tb)
                    np.logical_and(ok, tb, out=ok)
                    done_r = now_r + granted.dur_r
                    done_v = now_v + granted.dur_v
                    np.less_equal(head[3], done_v, out=tb)
                    if head[0] <= done_r:
                        np.logical_and(ok, tb, out=ok)
                        seq += 4
                        push(heap, (done_r, seq | _DONE, granted, done_v))
                        continue
                    np.logical_not(tb, out=tb)
                    np.logical_and(ok, tb, out=ok)
                    pending = granted
                    pending_time_r = done_r
                    pending_time_v = done_v
                    pending_kind = _DONE
                    fused = True
                if not fused and pending is None:
                    pending = granted
                    pending_time_r = now_r + granted.dur_r
                    pending_time_v = now_v + granted.dur_v
                    pending_kind = _DONE
            else:
                # Multi-grant burst (two-port C-out): same hop-vs-fuse
                # decision, applied to the whole burst.
                seq += 4
                if heap and heap[0][0] <= now_r:
                    np.less_equal(heap[0][3], now_v, out=tb)
                    np.logical_and(ok, tb, out=ok)
                    push(heap, (now_r, seq, granted, now_v))
                    for granted in grants[1:]:
                        seq += 4
                        push(heap, (now_r, seq, granted, now_v))
                else:
                    if heap:
                        np.greater(heap[0][3], now_v, out=tb)
                        np.logical_and(ok, tb, out=ok)
                    push(heap, (now_r + granted.dur_r, seq | _DONE, granted,
                                now_v + granted.dur_v))
                    for granted in grants[1:]:
                        seq += 4
                        push(heap, (now_r + granted.dur_r, seq | _DONE,
                                    granted, now_v + granted.dur_v))
                grants.clear()

    group = _GroupTrace()
    group.n = n
    e_comm = len(comm_worker)
    e_comp = len(comp_worker)
    group.comm_worker = np.fromiter(comm_worker, np.int64, e_comm)
    group.comm_blocks = np.fromiter(comm_blocks_l, np.int64, e_comm)
    group.comm_port = np.fromiter(comm_port, np.int64, e_comm)
    group.comm_dir = comm_dir
    group.comm_label = comm_label
    group.comm_start = (
        np.stack(comm_start_l, axis=1) if e_comm else np.empty((n, 0))
    )
    group.comm_end = (
        np.stack(comm_end_l, axis=1) if e_comm else np.empty((n, 0))
    )
    group.comp_worker = np.fromiter(comp_worker, np.int64, e_comp)
    group.comp_updates = np.fromiter(comp_updates, np.int64, e_comp)
    group.comp_label = comp_label
    group.comp_start = (
        np.stack(comp_start_l, axis=1) if e_comp else np.empty((n, 0))
    )
    group.comp_end = (
        np.stack(comp_end_l, axis=1) if e_comp else np.empty((n, 0))
    )
    group.memory_peak = {
        widx + 1: peaks[widx] for widx in range(p) if peaks[widx]
    }
    # run_scheduler's post-run accounting check is structural.
    if int(group.comp_updates.sum()) != rep.shape.total_updates:
        raise _GroupAbort()
    return group, ok


def _check_group_invariants(group: _GroupTrace, ok: np.ndarray) -> None:
    """Vectorized one-port / sequential-compute checks over all rows.

    Within one resource the scan appends intervals in completion order,
    which for a *locked* row is also start order (FIFO port, FIFO
    compute), so a consecutive-pair check in append order is exhaustive.
    A violating row is conservatively voided — its scalar fallback run
    then performs (and reports) the authoritative check.
    """
    for groups, starts, ends in (
        (group.comm_port, group.comm_start, group.comm_end),
        (group.comp_worker, group.comp_start, group.comp_end),
    ):
        if len(groups) < 2:
            continue
        for gid in np.unique(groups):
            idx = np.nonzero(groups == gid)[0]
            if idx.size < 2:
                continue
            s = starts[:, idx[1:]]
            e = ends[:, idx[:-1]]
            bad = (s < e - 1e-9).any(axis=1)
            if bad.any():
                ok &= ~bad


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def run_batch(
    items: Sequence[BatchItem],
    check_invariants: bool = True,
    min_group: int = MIN_GROUP,
) -> List[Any]:
    """Evaluate ``items`` in structure-sharing groups; scalar fallback
    everywhere vectorization cannot *prove* byte-identity.

    Returns one result per item, in order: a :class:`BatchTrace` for
    points the vectorized scan validated, otherwise exactly what
    :func:`~repro.engine.engine.run_scheduler` returns for that item
    (a :class:`~repro.engine.trace.Trace` or a model estimate).  An
    item whose scalar evaluation raises propagates that exception, the
    same as calling ``run_scheduler`` yourself.
    """
    items = list(items)
    results: List[Any] = [None] * len(items)
    fast: List[int] = []
    model: List[int] = []
    for i, item in enumerate(items):
        # Stationary model points vectorize too (repro.engine.model_batch);
        # scenario points stay scalar in both tiers.
        if item.scenario is not None or item.engine not in ("fast", "model"):
            results[i] = run_scalar(item, check_invariants)
        else:
            (fast if item.engine == "fast" else model).append(i)
    if model:
        from repro.engine.model_batch import batch_model_items

        batch_model_items(items, model, results, min_group)

    def scan(rep: FastEngine, c_m: np.ndarray, w_m: np.ndarray):
        group, ok = _scan_group(rep, c_m, w_m)
        if check_invariants:
            _check_group_invariants(group, ok)
        return [BatchTrace(group, row) for row in range(group.n)], ok

    scan_groups(
        items, fast, FastEngine, scan, results, check_invariants, min_group
    )
    return results
