"""Event-free fast timeline engine — the DES without the DES.

Under the strict one-port FIFO model the whole timeline of a run is a
deterministic function of the chunk streams: every transfer holds the
port for a known duration, the port serves requests in arrival order,
and each worker computes its phases FIFO.  Nothing in the model ever
*chooses* — so simulating it with generator processes, ``Event``
objects, resource context managers and callback lists (the
:mod:`repro.sim` kernel) pays a large constant factor purely for
bookkeeping the model does not need.

This module re-derives the identical timeline with a single
chronological scan.  Per worker it advances a tiny explicit state
machine over the chunk protocol (C-in → phases → C-out), keeping the
``(recv_done, compute_done)`` clocks in plain lists; the master's port
is a boolean plus a FIFO deque.  The only data structure shared with a
classical DES is a small heap of ``(time, code)`` pairs ordering the
three timed occurrences the model has — a request grant firing, a
transfer completion, and a buffer-generation (or final-compute) gate
opening.

Exactness, not approximation
----------------------------
The scan reproduces the kernel's schedule *byte for byte*, including
ties.  The kernel orders same-time events by ``(priority, seq)`` where
``seq`` is a global scheduling counter; the scan schedules the same
three occurrence kinds in the same relative order the kernel would
(grant hops included, because a grant's completion timeout is sequenced
only when the grant fires), so every ``(time, seq)`` comparison
resolves identically.  Even float rounding is replicated: a gate
opening at ``t`` is scheduled at ``now + (t - now)`` exactly as the
kernel's relative timeout would.  Demand-driven dispatch ("send the
next chunk to the first available worker") therefore pops the shared
queue in exactly the order the kernel's event interleaving produces.
The DES remains the reference oracle: the parity suite asserts
trace-for-trace equality across all schedulers on randomized platforms,
one-port and two-port.

Schedulers need no changes: :class:`FastEngine` quacks like
:class:`~repro.engine.engine.Engine` during ``launch`` —
``static_agent``/``demand_agent`` return lightweight descriptors and
``env.process`` registers them.  A scheduler that registers a raw
generator process (custom kernel logic) raises
:class:`FastEngineUnsupported`, and ``run_scheduler`` falls back to the
DES by re-launching.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Optional

from repro.blocks.matrix import BlockMatrix
from repro.blocks.shape import ProblemShape
from repro.engine.common import memory_exceeded, validate_block_data
from repro.engine.launch import AgentSpec, LaunchTarget
from repro.engine.trace import CommInterval, ComputeInterval, Trace
from repro.platform.model import Platform
from repro.scenarios.model import Scenario

__all__ = ["FastEngine", "FastEngineUnsupported", "run_fast"]

# Heap-entry kinds, packed into the low bits of ``(seq << 2) | kind`` so
# entries are 3-tuples; ``seq`` is unique, so the agent never compares.
_HOP = 0   # a granted port request firing (the kernel's request event)
_DONE = 1  # a transfer completion (the kernel's transfer timeout)
_WAIT = 2  # a generation-gate / final-compute timeout opening

# Agent stages: what the pending _DONE means for this agent.
_CIN = 0    # C tile inbound
_PHASE = 1  # an A/B phase delivery
_COUT = 2   # C tile outbound
_BG = 3     # a background-traffic hold of the master's port
# Wait kinds.
_GAP = 0    # buffer-generation gate before the next phase request
_FINAL = 1  # final-compute gate before the C-out request
_BGREQ = 2  # background agent waking up to request its next hold


class FastEngineUnsupported(TypeError):
    """The scheduler drives raw kernel processes; use the DES engine."""


class _Agent:
    """Runtime state of one worker agent."""

    __slots__ = (
        "widx", "gap", "chunks", "cursor", "queue", "c", "w",
        "chunk", "phases", "nph", "ab_labels", "upd_labels",
        "end1", "end2",
        "pidx", "stage", "wait_kind", "start", "duration", "blocks",
    )

    def __init__(self, spec: AgentSpec, worker):
        self.widx = spec.widx
        self.gap = spec.gap
        self.chunks = spec.chunks
        self.cursor = 0
        self.queue = spec.queue
        self.c = worker.c
        self.w = worker.w


class _BgAgent:
    """Runtime state of the background-traffic pseudo-agent.

    Mirrors the DES engine's single background process: it services the
    scenario's port holds in time order, queueing FIFO on the master's
    port like any worker request.  Quacks enough like :class:`_Agent`
    for the heap, the port queue and the grant-flush paths (``stage``
    is always :data:`_BG`, so scenario-rate recomputation skips it —
    hold durations are absolute seconds, not ``c``-scaled).
    """

    __slots__ = ("events", "cursor", "stage", "wait_kind", "start", "duration",
                 "widx")

    def __init__(self, events):
        self.events = events
        self.cursor = 0
        self.stage = _BG
        self.wait_kind = _BGREQ
        self.widx = -1  # read (and ignored) by the shared dispatch paths


class FastEngine(LaunchTarget):
    """Drop-in ``launch`` target mirroring :class:`Engine`'s surface."""

    unsupported = FastEngineUnsupported

    def __init__(
        self,
        platform: Platform,
        shape: ProblemShape,
        data: Optional[tuple[BlockMatrix, BlockMatrix, BlockMatrix]] = None,
        two_port: bool = False,
        check_memory: bool = True,
        scenario: Optional[Scenario] = None,
    ):
        if scenario is not None and scenario.platform != platform:
            raise ValueError(
                f"scenario {scenario.name!r} wraps platform "
                f"{scenario.platform.name!r}, not {platform.name!r}"
            )
        super().__init__(platform, shape, two_port, check_memory)
        self.data = data
        self.trace = Trace()
        self.compute_done = [0.0] * platform.p
        self.scenario = scenario
        if data is not None:
            validate_block_data(data, shape)

    # -- the chronological scan ----------------------------------------------
    def run(self) -> Trace:
        """Advance the timeline to completion; returns the trace.

        One monolithic event loop: the three occurrence kinds dispatch
        inline, hot state lives in local lists indexed by worker, and
        the phase→phase steady state (the overwhelming majority of
        events) runs without a Python-level call beyond the heap
        primitives and ``tuple.__new__``.

        Port grants are *deferred to the end of the current burst* and
        then, when no other heap entry shares the current timestamp,
        fused straight into their completion event.  Both halves mirror
        the kernel exactly: the kernel's grant event fires after the
        granting burst finishes (so the completion's place in the global
        scheduling order is decided only then), and when nothing else
        occupies the current instant the grant hop is unobservable.
        With ties present the hop is kept, so same-time ordering stays
        byte-exact.
        """
        workers = self.platform.workers
        p = self.platform.p
        trace = self.trace
        comms = trace.comms
        computes = trace.computes
        compute_done = self.compute_done
        check_memory = self.check_memory
        recv_pid = 1 if self.two_port else 0
        q = self.shape.q
        data = self.data
        has_data = data is not None
        if has_data:
            a_arr, b_arr, c_arr = data[0].array, data[1].array, data[2].array

        scenario = self.scenario
        # Scenario hooks: rate lookups sampled at each operation's start
        # instant.  ``varying`` stays False for stationary scenarios so
        # the hot path is untouched; an identity scenario reproduces the
        # stationary timeline bit-for-bit (base · 1.0 == base).
        varying = scenario is not None and scenario.has_rate_variation
        if varying:
            c_rate = scenario.c_rate
            w_rate = scenario.w_rate

        caps = [wk.m for wk in workers]
        mem_used = [0] * p
        peaks = [0] * p
        # Per-worker deferred frees.  Entries are (compute_end, blocks)
        # appended in compute order; per-worker compute ends are
        # monotone (FIFO compute), so expiry is always a prefix.
        pending_free: list[list[tuple[float, int]]] = [[] for _ in range(p)]
        port_free = [True, True]
        port_queue: tuple[deque, deque] = (deque(), deque())
        heap: list[tuple[float, int, _Agent]] = []
        grants: list[_Agent] = []
        push = heappush
        pop = heappop
        tnew = tuple.__new__
        _CI = CommInterval
        _KI = ComputeInterval
        # The kernel's global scheduling counter, stepped by 4 with the
        # entry kind packed in the low bits: entries stay 3-tuples and
        # heap comparisons never reach the agent.
        seq = 0

        def request_phase(agent: _Agent, j: int, now: float) -> None:
            # Deliver phase j: claim buffers, then request the send port.
            ph = agent.phases[j]
            in_blocks = ph[1] + ph[2]  # a_blocks + b_blocks
            widx = agent.widx
            used = mem_used[widx]
            pend = pending_free[widx]
            if pend:
                lim = now + 1e-12
                i = 0
                while i < len(pend) and pend[i][0] <= lim:
                    used -= pend[i][1]
                    i += 1
                if i:
                    del pend[:i]
            used += in_blocks
            mem_used[widx] = used
            if used > peaks[widx]:
                peaks[widx] = used
                # A capacity violation is necessarily a new peak, so the
                # online check (same message as the DES) lives here.
                if check_memory and used > caps[widx]:
                    raise memory_exceeded(widx, used, caps[widx], now)
            agent.stage = _PHASE
            agent.pidx = j
            agent.blocks = in_blocks
            agent.duration = in_blocks * agent.c
            if port_free[0]:
                port_free[0] = False
                agent.start = now
                grants.append(agent)
            else:
                port_queue[0].append(agent)

        def request_cout(agent: _Agent, now: float) -> None:
            blocks = agent.chunk.c_blocks
            agent.stage = _COUT
            agent.blocks = blocks
            agent.duration = blocks * agent.c
            if port_free[recv_pid]:
                port_free[recv_pid] = False
                agent.start = now
                grants.append(agent)
            else:
                port_queue[recv_pid].append(agent)

        def request_bg(agent: _BgAgent, now: float) -> None:
            # The background agent claims the master's port for its next
            # scheduled hold (duration is absolute, never c-scaled).
            agent.duration = agent.events[agent.cursor].duration
            if port_free[0]:
                port_free[0] = False
                agent.start = now
                grants.append(agent)
            else:
                port_queue[0].append(agent)

        def start_chunk(agent: _Agent, now: float) -> None:
            # Next chunk (or retire the agent); then the C-in request.
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
            widx = agent.widx
            used = mem_used[widx]
            pend = pending_free[widx]
            if pend:
                lim = now + 1e-12
                i = 0
                while i < len(pend) and pend[i][0] <= lim:
                    used -= pend[i][1]
                    i += 1
                if i:
                    del pend[:i]
            used += blocks
            mem_used[widx] = used
            if used > peaks[widx]:
                peaks[widx] = used
                if check_memory and used > caps[widx]:
                    raise memory_exceeded(widx, used, caps[widx], now)
            agent.stage = _CIN
            agent.blocks = blocks
            agent.duration = blocks * agent.c
            if port_free[0]:
                port_free[0] = False
                agent.start = now
                grants.append(agent)
            else:
                port_queue[0].append(agent)

        def end_of_phases(agent: _Agent, now: float) -> None:
            nonlocal wait_agent, wait_time
            # All phases delivered: wait out the final compute, then C-out.
            final = compute_done[agent.widx]
            if final > now:
                agent.wait_kind = _FINAL
                wait_agent = agent
                wait_time = now + (final - now)
            else:
                request_cout(agent, now)

        # The scan allocates millions of small tuples and frees none of
        # them until the trace is dropped; pausing generational GC for
        # its duration avoids pointless collection passes.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()

        # t=0: the kernel initialises processes (URGENT events) in
        # creation order before any normal event fires; each agent runs
        # to its first port request.  Grants flush per agent, exactly as
        # each Initialize burst would let its request event fire later.
        # The DES registers the scenario's background process before the
        # scheduler's agents (Engine.__init__ precedes launch), so its
        # first timeout / port request sequences ahead of theirs.
        if scenario is not None and scenario.background:
            bg = _BgAgent(scenario.background)
            first = bg.events[0].time
            if first > 0.0:
                seq += 4
                push(heap, (first, seq | _WAIT, bg))
            else:
                # The heap is still empty (nothing precedes the first
                # process), so the grant always fuses to its completion.
                request_bg(bg, 0.0)
                granted = grants[0]
                seq += 4
                push(heap, (granted.duration, seq | _DONE, granted))
                grants.clear()
        agents = [_Agent(spec, workers[spec.widx]) for spec in self.env.agents]
        for agent in agents:
            start_chunk(agent, 0.0)
            if grants:
                granted = grants[0]
                if varying:
                    granted.duration = granted.blocks * c_rate(granted.widx, 0.0)
                seq += 4
                if heap and heap[0][0] <= 0.0:
                    push(heap, (0.0, seq, granted))
                else:
                    push(heap, (granted.duration, seq | _DONE, granted))
                grants.clear()

        pending: Optional[_Agent] = None
        pending_time = 0.0
        pending_kind = _DONE
        wait_agent: Optional[_Agent] = None
        wait_time = 0.0
        try:
            while heap or pending is not None:
                if pending is None:
                    now, code, agent = pop(heap)
                    kind = code & 3
                else:
                    # Direct dispatch: an occurrence scheduled ahead of
                    # every heap entry needs no heap round trip.
                    now = pending_time
                    agent = pending
                    pending = None
                    kind = pending_kind
                if kind == _DONE:
                    stage = agent.stage
                    widx = agent.widx
                    if stage == _PHASE:
                        j = agent.pidx
                        blocks = agent.blocks
                        comms.append(
                            tnew(_CI, (
                                widx + 1, "send", agent.start, now, blocks,
                                agent.ab_labels[j], 0,
                            ))
                        )
                        waiters = port_queue[0]
                        if waiters:
                            nxt = waiters.popleft()
                            nxt.start = now
                            grants.append(nxt)
                        else:
                            port_free[0] = True
                        ph = agent.phases[j]
                        start = compute_done[widx]
                        if now > start:
                            start = now
                        updates = ph[3]
                        if varying:
                            end = start + updates * w_rate(widx, start)
                        else:
                            end = start + updates * agent.w
                        compute_done[widx] = end
                        computes.append(
                            tnew(_KI, (
                                widx + 1, start, end, updates, agent.upd_labels[j],
                            ))
                        )
                        pending_free[widx].append((end, blocks))
                        if has_data:
                            chunk = agent.chunk
                            rr = ph[4]  # row_range override (max-re-use rows)
                            r0, r1 = rr if rr is not None else chunk.row_range
                            c0, c1 = chunk.col_range
                            k0, k1 = ph[0]
                            c_arr[r0 * q : r1 * q, c0 * q : c1 * q] += (
                                a_arr[r0 * q : r1 * q, k0 * q : k1 * q]
                                @ b_arr[k0 * q : k1 * q, c0 * q : c1 * q]
                            )
                        # Rolling compute-end window: the gate for phase j+1
                        # is ends[j+1-gap], i.e. the last (gap 1) or second-
                        # to-last (gap 2) compute end of this chunk.
                        agent.end2 = agent.end1
                        agent.end1 = end
                        j += 1
                        if j < agent.nph:
                            gate = now
                            if j >= agent.gap:
                                gate = agent.end1 if agent.gap == 1 else agent.end2
                            if gate > now:
                                # The kernel schedules timeout(gate - now): the
                                # fire time is now + (gate - now), replicated so
                                # ties resolve identically under float rounding.
                                agent.pidx = j
                                agent.wait_kind = _GAP
                                wait_agent = agent
                                wait_time = now + (gate - now)
                            else:
                                # Inlined request_phase (hot path): deliver phase j.
                                # ``pend`` is non-empty (a free was appended for the
                                # phase just computed) and ``stage`` is already _PHASE.
                                ph = agent.phases[j]
                                in_blocks = ph[1] + ph[2]
                                used = mem_used[widx]
                                pend = pending_free[widx]
                                lim = now + 1e-12
                                i = 0
                                n = len(pend)
                                while i < n and pend[i][0] <= lim:
                                    used -= pend[i][1]
                                    i += 1
                                if i:
                                    del pend[:i]
                                used += in_blocks
                                mem_used[widx] = used
                                if used > peaks[widx]:
                                    peaks[widx] = used
                                    if check_memory and used > caps[widx]:
                                        raise memory_exceeded(widx, used, caps[widx], now)
                                agent.pidx = j
                                agent.blocks = in_blocks
                                agent.duration = in_blocks * agent.c
                                if port_free[0]:
                                    port_free[0] = False
                                    agent.start = now
                                    grants.append(agent)
                                else:
                                    port_queue[0].append(agent)
                        else:
                            end_of_phases(agent, now)
                    elif stage == _CIN:
                        comms.append(
                            tnew(_CI, (
                                widx + 1, "send", agent.start, now, agent.blocks,
                                "C-in", 0,
                            ))
                        )
                        waiters = port_queue[0]
                        if waiters:
                            nxt = waiters.popleft()
                            nxt.start = now
                            grants.append(nxt)
                        else:
                            port_free[0] = True
                        agent.end1 = agent.end2 = 0.0
                        if agent.nph:
                            request_phase(agent, 0, now)
                        else:
                            end_of_phases(agent, now)
                    elif stage == _COUT:  # chunk complete: free C tile, next chunk
                        comms.append(
                            tnew(_CI, (
                                widx + 1, "recv", agent.start, now, agent.blocks,
                                "C-out", recv_pid,
                            ))
                        )
                        waiters = port_queue[recv_pid]
                        if waiters:
                            nxt = waiters.popleft()
                            nxt.start = now
                            grants.append(nxt)
                        else:
                            port_free[recv_pid] = True
                        used = mem_used[widx]
                        pend = pending_free[widx]
                        if pend:
                            lim = now + 1e-12
                            i = 0
                            while i < len(pend) and pend[i][0] <= lim:
                                used -= pend[i][1]
                                i += 1
                            if i:
                                del pend[:i]
                        mem_used[widx] = used - agent.blocks
                        start_chunk(agent, now)
                    else:  # _BG — background hold over: release, next event
                        ev = agent.events[agent.cursor]
                        comms.append(
                            tnew(_CI, (0, "send", agent.start, now, 0, ev.label, 0))
                        )
                        waiters = port_queue[0]
                        if waiters:
                            nxt = waiters.popleft()
                            nxt.start = now
                            grants.append(nxt)
                        else:
                            port_free[0] = True
                        agent.cursor += 1
                        if agent.cursor < len(agent.events):
                            when = agent.events[agent.cursor].time
                            if when > now:
                                # Kernel: timeout(when - now) scheduled in
                                # this burst (wait_kind is always _BGREQ).
                                wait_agent = agent
                                wait_time = now + (when - now)
                            else:
                                # Overdue (delayed behind a long hold):
                                # re-request within the same burst.
                                request_bg(agent, now)
                elif kind == _WAIT:
                    if agent.wait_kind == _GAP:
                        j = agent.pidx
                        widx = agent.widx
                        # Inlined request_phase (hot path): deliver phase j.
                        # ``pend`` is non-empty (a free was appended for the
                        # phase just computed) and ``stage`` is already _PHASE.
                        ph = agent.phases[j]
                        in_blocks = ph[1] + ph[2]
                        used = mem_used[widx]
                        pend = pending_free[widx]
                        lim = now + 1e-12
                        i = 0
                        n = len(pend)
                        while i < n and pend[i][0] <= lim:
                            used -= pend[i][1]
                            i += 1
                        if i:
                            del pend[:i]
                        used += in_blocks
                        mem_used[widx] = used
                        if used > peaks[widx]:
                            peaks[widx] = used
                            if check_memory and used > caps[widx]:
                                raise memory_exceeded(widx, used, caps[widx], now)
                        agent.pidx = j
                        agent.blocks = in_blocks
                        agent.duration = in_blocks * agent.c
                        if port_free[0]:
                            port_free[0] = False
                            agent.start = now
                            grants.append(agent)
                        else:
                            port_queue[0].append(agent)
                    elif agent.wait_kind == _FINAL:
                        request_cout(agent, now)
                    else:  # _BGREQ — background wake-up: claim the port
                        request_bg(agent, now)
                else:  # _HOP
                    # The grant hop fired (a tie forced it): the completion
                    # is sequenced here, as the kernel would.  Varying rates
                    # are sampled now — the hop instant IS the grant time.
                    seq += 4
                    if varying and agent.stage != _BG:
                        agent.duration = agent.blocks * c_rate(agent.widx, now)
                    push(heap, (now + agent.duration, seq | _DONE, agent))
                    continue
                if wait_agent is not None:
                    # End of burst: schedule the deferred gate timeout.
                    # Its sequence number precedes any grant of the same
                    # burst (the kernel schedules the timeout mid-burst,
                    # the grant's completion only when the grant fires);
                    # when nothing precedes it, dispatch it directly.
                    seq += 4
                    if grants or (heap and heap[0][0] <= wait_time):
                        push(heap, (wait_time, seq | _WAIT, wait_agent))
                    else:
                        pending = wait_agent
                        pending_time = wait_time
                        pending_kind = _WAIT
                    wait_agent = None
                if grants:
                    # End of burst: flush grants in order.  With a same-time
                    # entry pending, take the kernel's hop; otherwise fuse
                    # the grant into its completion directly — and when the
                    # completion precedes every heap entry, skip the heap
                    # round trip altogether (nothing can preempt it).
                    # (Specialised single-grant path: bursts grant at most
                    # one transfer per port, and two only in two-port
                    # C-out bursts.)
                    if varying:
                        # Every grant in the list was granted at ``now``:
                        # sample each transfer's rate here, exactly as the
                        # kernel computes the timeout after ``yield req``.
                        # Background holds keep their absolute durations.
                        for g in grants:
                            if g.stage != _BG:
                                g.duration = g.blocks * c_rate(g.widx, now)
                    granted = grants[0]
                    if len(grants) == 1:
                        grants.clear()
                        if heap:
                            head = heap[0][0]
                            if head <= now:
                                seq += 4
                                push(heap, (now, seq, granted))
                                continue
                            done_at = now + granted.duration
                            if head <= done_at:
                                seq += 4
                                push(heap, (done_at, seq | _DONE, granted))
                                continue
                        pending = granted
                        pending_time = now + granted.duration
                        pending_kind = _DONE
                    else:
                        seq += 4
                        if heap and heap[0][0] <= now:
                            push(heap, (now, seq, granted))
                            for granted in grants[1:]:
                                seq += 4
                                push(heap, (now, seq, granted))
                        else:
                            push(
                                heap,
                                (now + granted.duration, seq | _DONE, granted),
                            )
                            for granted in grants[1:]:
                                seq += 4
                                push(
                                    heap,
                                    (now + granted.duration, seq | _DONE,
                                     granted),
                                )
                        grants.clear()

        finally:
            if gc_was_enabled:
                gc.enable()

        memory_peak = trace.memory_peak
        for widx in range(p):
            if peaks[widx]:
                memory_peak[widx + 1] = peaks[widx]
        return trace


def run_fast(
    scheduler,
    platform: Platform,
    shape: ProblemShape,
    data: Optional[tuple[BlockMatrix, BlockMatrix, BlockMatrix]] = None,
    two_port: bool = False,
    check_memory: bool = True,
    scenario: Optional[Scenario] = None,
) -> Trace:
    """Launch ``scheduler`` on the fast engine and return its trace.

    Raises :class:`FastEngineUnsupported` when the scheduler registers
    raw kernel processes (callers fall back to the DES).  The exception
    can only originate from ``launch``, and the engine is constructed
    *without* the numeric ``data`` until ``launch`` has fully succeeded:
    an abandoned fast attempt therefore cannot have applied any block
    update to an in-place ``C``, so the DES re-run after a fallback
    starts from pristine data.  (``launch`` itself must be free of
    scheduler-state side effects to be re-runnable — true of every
    in-tree scheduler, which rebuild chunk lists and queues from
    scratch on each call.)
    """
    engine = FastEngine(
        platform, shape, data=None, two_port=two_port,
        check_memory=check_memory, scenario=scenario,
    )
    if data is not None:
        # Validate up front (same error order as the DES, which checks in
        # its constructor) but attach only after launch has succeeded.
        validate_block_data(data, shape)
    scheduler.launch(engine)
    engine.data = data
    return engine.run()
