"""Analytic model engine — capacity planning without simulating.

The third tier of the engine tower (see ``docs/engines.md``).  The DES
is the oracle, the fast engine reproduces it byte for byte, and this
module *estimates* the same summary quantities — makespan, per-worker
busy time, master-port occupancy, peak memory — from closed-form
steady-state arithmetic instead of replaying the timeline.

How it works
------------
Per-phase event simulation costs O(phases); a paper-scale point streams
thousands of phases.  But within one chunk the phase stream is
*stationary*: every transfer charges ``blocks · c_i`` port seconds and
every phase ``updates · w_i`` CPU seconds, so the chunk's aggregate
footprint (total blocks in, total updates, pipeline-fill prefix,
compute tail, peak buffer window) is a closed-form function of the
chunk — exactly the steady-state algebra of :mod:`repro.core.bounds`.
The estimator therefore works at *chunk* granularity: each chunk
contributes three O(1) bookkeeping steps (startup fill, bulk
delivery + compute, C-out drain) against two fluid resources — the
master's one-port (a FIFO availability clock) and the worker's CPU.
Startup (the serialized C-in + first-phase fill) and drain (the last
phase computes after its delivery, then C returns) corrections fall
out of the same bookkeeping, and demand-driven dispatch emerges from
processing chunks in estimated completion order, mirroring how the
real engines pop the shared queue.

Non-stationary :class:`~repro.scenarios.Scenario` timelines are
handled piecewise: chunk work is *integrated* through the
piecewise-constant effective-rate timelines (``_advance``), so a
slowdown or dropout mid-chunk stretches exactly the remaining work,
and background port holds are absorbed into the port clock in FIFO
order.  The real engines instead sample rates per operation at its
start, so under rapidly varying scenarios the two diverge — which is
why the model's contract is a *validated error envelope*
(``tests/test_model_envelope.py``), not parity.

Contract
--------
* ``run_scheduler(engine="model")`` returns a :class:`ModelEstimate`
  mirroring the :class:`~repro.engine.trace.Trace` summary interface
  (makespan, comm_blocks, ccr, utilisations, memory peaks, …) so
  experiments and aggregates consume it unchanged.
* No intervals are recorded and no numeric data can be attached: the
  model predicts, it does not execute.
* Estimated makespan is within the per-regime envelopes asserted by
  ``tests/test_model_envelope.py`` — ≤10 % of the fast engine on
  stationary paper-scale points, looser at small n and under
  aggressive scenarios.
* A scheduler that registers raw kernel processes raises
  :class:`ModelEngineUnsupported`; unlike the fast engine there is no
  silent DES fallback, because callers pick the model tier for its
  cost profile and a 1000× slower silent fallback would defeat the
  point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from repro.blocks.shape import ProblemShape
from repro.engine.chunks import Chunk
from repro.engine.common import memory_exceeded
from repro.engine.launch import AgentSpec, LaunchTarget
from repro.platform.model import Platform
from repro.scenarios.model import Scenario

__all__ = [
    "ModelEngine",
    "ModelEngineUnsupported",
    "ModelEstimate",
    "run_model",
]


class ModelEngineUnsupported(TypeError):
    """The scheduler drives raw kernel processes; use 'fast' or 'des'."""


# ---------------------------------------------------------------------------
# The estimate object — quacks like a Trace summary.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ModelEstimate:
    """Analytic summary of one run, mirroring ``Trace``'s metric surface.

    Everything an experiment's per-point function reads off a trace —
    :attr:`makespan`, :attr:`comm_blocks`, :attr:`ccr`,
    :attr:`enrolled_workers`, ``port_busy_time``/``port_utilisation``,
    ``worker_busy_time``/``worker_utilisation``, :attr:`memory_peak` —
    is available with the same names, types and index conventions
    (1-based workers).  What is *not* available are the interval lists
    (``comms``/``computes``): the model never materialises a timeline.

    :attr:`work_makespan` equals :attr:`makespan`: background holds
    only consume port capacity in the model, they are not appended to
    the reported span.
    """

    makespan: float
    comm_blocks: int
    total_updates: int
    #: per-port busy seconds (port 1 is only used in the two-port ablation)
    port_busy: tuple[float, float]
    #: per-worker compute seconds, 0-based platform order
    worker_busy: tuple[float, ...]
    #: per-worker block updates, 0-based platform order
    worker_updates: tuple[int, ...]
    #: per-worker peak buffer estimate (an upper bound), 0-based order
    peak_blocks: tuple[int, ...]
    two_port: bool = False

    # -- Trace-compatible metric surface ------------------------------------
    @property
    def work_makespan(self) -> float:
        """Same as :attr:`makespan` (see class docstring)."""
        return self.makespan

    @property
    def ccr(self) -> float:
        """Communication-to-computation ratio, in blocks per update."""
        if self.total_updates == 0:
            raise ValueError("no computation estimated; CCR undefined")
        return self.comm_blocks / self.total_updates

    @property
    def enrolled_workers(self) -> tuple[int, ...]:
        """Sorted 1-based indices of workers estimated to compute."""
        return tuple(
            i + 1 for i, u in enumerate(self.worker_updates) if u > 0
        )

    @property
    def memory_peak(self) -> dict[int, int]:
        """1-based worker → estimated peak buffer blocks (upper bound)."""
        return {
            i + 1: peak for i, peak in enumerate(self.peak_blocks) if peak > 0
        }

    def port_busy_time(self, port: int = 0) -> float:
        """Estimated total busy seconds of the given port."""
        return self.port_busy[port]

    def port_utilisation(self, port: int = 0) -> float:
        """Estimated busy fraction of the given port over the makespan."""
        span = self.makespan
        return self.port_busy[port] / span if span > 0 else 0.0

    def worker_busy_time(self, worker: int) -> float:
        """Estimated compute seconds of one worker (1-based)."""
        return self.worker_busy[worker - 1]

    def worker_utilisation(self, worker: int) -> float:
        """Estimated busy fraction of one worker over the makespan."""
        span = self.makespan
        return self.worker_busy[worker - 1] / span if span > 0 else 0.0

    def check_invariants(self) -> None:
        """No-op: the model records no intervals to validate.

        Exists so ``run_scheduler``'s post-run validation path treats
        estimates and traces uniformly.
        """

    def to_summary(self):
        """The :class:`~repro.analysis.metrics.TraceSummary` equivalent."""
        from repro.analysis.metrics import TraceSummary

        if self.total_updates == 0:
            raise ValueError("no computation estimated; CCR undefined")
        span = self.makespan
        used = self.enrolled_workers
        mean_util = (
            sum(self.worker_busy[w - 1] for w in used) / span / len(used)
            if used and span > 0
            else 0.0
        )
        return TraceSummary(
            makespan=span,
            comm_blocks=self.comm_blocks,
            updates=self.total_updates,
            ccr=self.comm_blocks / self.total_updates,
            workers_used=len(used),
            port_utilisation=self.port_busy[0] / span if span > 0 else 0.0,
            mean_worker_utilisation=mean_util,
        )


class ModelEngine(LaunchTarget):
    """Launch-time stand-in for :class:`~repro.engine.engine.Engine`
    (see :class:`~repro.engine.launch.LaunchTarget`)."""

    __slots__ = ()
    unsupported = ModelEngineUnsupported


# ---------------------------------------------------------------------------
# Closed-form per-chunk footprint.
# ---------------------------------------------------------------------------
def _chunk_stats(chunk: Chunk, gap: int) -> tuple[int, int, int, int, int, int]:
    """``(c_blocks, ab_blocks, updates, fill_blocks, last_updates, peak)``.

    ``fill_blocks`` is the first phase's delivery (the pipeline-fill
    prefix before compute can start), ``last_updates`` the final
    phase's updates (the drain tail that runs after the last delivery),
    and ``peak`` the buffer high-water upper bound: the C tile plus the
    largest window of ``gap`` consecutive phase deliveries alive at
    once under the buffer-generation gate.

    Cached on the chunk object itself (chunks are immutable and shared
    across sweep points via ``_build_chunks_cached``), so across a
    sweep each unique chunk pays the phase scan once.
    """
    key = "_model_stats2" if gap == 2 else "_model_stats1"
    stats = chunk.__dict__.get(key)
    if stats is None:
        phases = chunk.phases
        c_blocks = chunk.c_blocks
        ab_blocks = chunk.comm_blocks - 2 * c_blocks
        if phases:
            fill = phases[0].a_blocks + phases[0].b_blocks
            last_updates = phases[-1].updates
            if gap == 1:
                window = max(ph.a_blocks + ph.b_blocks for ph in phases)
            else:
                window = prev = 0
                for ph in phases:
                    cur = ph.a_blocks + ph.b_blocks
                    if cur + prev > window:
                        window = cur + prev
                    prev = cur
        else:  # pragma: no cover - no in-tree layout emits phase-less chunks
            fill = last_updates = window = 0
        stats = (
            c_blocks, ab_blocks, chunk.updates, fill, last_updates,
            c_blocks + window,
        )
        chunk.__dict__[key] = stats
    return stats


def _advance(times, values, t: float, amount: float) -> float:
    """Finish time of ``amount`` work units starting at ``t``.

    ``(times, values)`` is a piecewise-constant seconds-per-unit rate
    (a :class:`~repro.scenarios.StepTimeline`'s columns); the work is
    integrated exactly through the steps.  Constant timelines take the
    one-multiplication fast path.
    """
    if amount <= 0:
        return t
    n = len(times)
    if n == 1:
        return t + amount * values[0]
    i = bisect_right(times, t) - 1
    while i + 1 < n:
        end = t + amount * values[i]
        seg_end = times[i + 1]
        if end <= seg_end:
            return end
        amount -= (seg_end - t) / values[i]
        t = seg_end
        i += 1
    return t + amount * values[i]


def _crosses(times, lo: float, hi: float) -> bool:
    """True when a rate step of ``times`` lies inside ``(lo, hi]``."""
    return len(times) > 1 and bisect_right(times, lo) != bisect_right(times, hi)


# ---------------------------------------------------------------------------
# The estimator proper.
# ---------------------------------------------------------------------------
#: Chunk-processing stages (heap event kinds, in chunk order).
_START = 0  # acquire next chunk; C-in + first-phase fill on the port
_BULK = 1   # remaining deliveries committed; compute end derived
_COUT = 2   # C tile returns; chunk complete, agent fetches the next


class _Run:
    """Mutable per-agent cursor state during the estimate."""

    __slots__ = ("widx", "gap", "chunks", "cursor", "queue",
                 "stats", "chunk", "compute_start", "stats_key")

    def __init__(self, spec: AgentSpec):
        self.widx = spec.widx
        self.gap = spec.gap
        self.chunks = spec.chunks
        self.cursor = 0
        self.queue = spec.queue
        self.stats = None
        self.chunk = None
        self.compute_start = 0.0
        self.stats_key = "_model_stats2" if spec.gap == 2 else "_model_stats1"


def _estimate(engine: ModelEngine, scenario: Optional[Scenario]) -> ModelEstimate:
    platform = engine.platform
    two_port = engine.two_port
    check_memory = engine.check_memory
    p = platform.p
    varying = scenario is not None and scenario.has_rate_variation
    if varying:
        c_tls = [
            (tl.times, tl.values)
            for tl in (scenario.c_rate_timeline(i) for i in range(p))
        ]
        w_tls = [
            (tl.times, tl.values)
            for tl in (scenario.w_rate_timeline(i) for i in range(p))
        ]
    else:
        c_tls = [((0.0,), (wk.c,)) for wk in platform.workers]
        w_tls = [((0.0,), (wk.w,)) for wk in platform.workers]
    # Constant-rate scalars (the overwhelmingly common case): hoisting
    # them past the _advance call shaves ~30 % off stationary estimates,
    # which the 100x throughput gate spends directly.
    c_flat = [vals[0] if len(times) == 1 else None for times, vals in c_tls]
    w_flat = [vals[0] if len(times) == 1 else None for times, vals in w_tls]
    background = list(scenario.background) if scenario is not None else []

    recv_pid = 1 if two_port else 0
    port_avail = [0.0, 0.0]
    comm_seconds = [0.0, 0.0]
    bg_index = 0
    bg_busy = 0.0

    busy = [0.0] * p
    updates_done = [0] * p
    peaks = [0] * p
    comm_blocks_total = 0
    updates_total = 0
    makespan = 0.0

    def commit(
        pid: int, widx: int, t_req: float, blocks: int
    ) -> tuple[float, float]:
        """Charge ``blocks`` on port ``pid`` requested at ``t_req``.

        Background holds due before the request are absorbed into the
        port clock first (FIFO by request time); returns the transfer's
        ``(start, finish)``.
        """
        nonlocal bg_index, bg_busy
        avail = port_avail[pid]
        if pid == 0 and bg_index < len(background):
            while bg_index < len(background):
                ev = background[bg_index]
                if ev.time > t_req:
                    break
                held = avail if avail > ev.time else ev.time
                avail = held + ev.duration
                bg_busy += ev.duration
                bg_index += 1
        start = avail if avail > t_req else t_req
        flat = c_flat[widx]
        if flat is not None:
            end = start + blocks * flat
        else:
            times, values = c_tls[widx]
            end = _advance(times, values, start, blocks)
        port_avail[pid] = end
        comm_seconds[pid] += end - start
        return start, end

    heap: list = []
    seq = 0
    for spec in engine.env.agents:
        heappush(heap, (0.0, seq, _START, _Run(spec)))
        seq += 1

    # The loop below inlines ``commit``'s happy path (flat rate, no
    # pending background hold) at each call site: the three port
    # commits per chunk dominate the per-point cost that the 100x
    # throughput gate measures, and the call overhead alone is worth
    # ~15 % of a stationary estimate.
    n_bg = len(background)
    pop = heappop
    push = heappush
    while heap:
        now, _, stage, run = pop(heap)
        widx = run.widx
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
                if check_memory and peak > platform.workers[widx].m:
                    raise memory_exceeded(
                        widx, peak, platform.workers[widx].m, now
                    )
            # C-in plus the first phase's delivery: the pipeline fill
            # that gates the worker's first compute.
            run.chunk = chunk
            cf = c_flat[widx]
            if cf is not None and bg_index == n_bg:
                avail = port_avail[0]
                start = avail if avail > now else now
                fill_done = start + (stats[0] + stats[3]) * cf
                port_avail[0] = fill_done
                comm_seconds[0] += fill_done - start
            else:
                _, fill_done = commit(0, widx, now, stats[0] + stats[3])
            run.compute_start = fill_done
            push(heap, (fill_done, seq, _BULK, run))
            seq += 1
        elif stage == _BULK:
            c_blocks, ab, ups, fill, last_ups, _ = run.stats
            cf = c_flat[widx]
            if cf is not None and bg_index == n_bg:
                avail = port_avail[0]
                bulk_start = avail if avail > now else now
                deliver_done = bulk_start + (ab - fill) * cf
                port_avail[0] = deliver_done
                comm_seconds[0] += deliver_done - bulk_start
            else:
                bulk_start, deliver_done = commit(0, widx, now, ab - fill)
            w_f = w_flat[widx]
            if w_f is not None:
                nominal_end = now + ups * w_f
            else:
                w_times, w_values = w_tls[widx]
                nominal_end = _advance(w_times, w_values, now, ups)
            busy_time = nominal_end - now
            updates_done[widx] += ups
            if run.gap == 1:
                # No spare buffer generation: sends and computes strictly
                # alternate, so the chunk's span is delivery + compute
                # regardless of interleaving.
                if w_f is not None:
                    comp_end = deliver_done + ups * w_f
                else:
                    comp_end = _advance(w_times, w_values, deliver_done, ups)
            else:
                # Overlapped: compute streams behind the deliveries; the
                # last phase cannot finish before its own delivery plus
                # its own compute (the drain correction).
                if w_f is not None:
                    gated_end = deliver_done + last_ups * w_f
                else:
                    gated_end = _advance(
                        w_times, w_values, deliver_done, last_ups
                    )
                comp_end = nominal_end if nominal_end > gated_end else gated_end
                if varying and (
                    _crosses(w_tls[widx][0], now, comp_end)
                    or _crosses(c_tls[widx][0], now, comp_end)
                ):
                    # A rate step lands inside this chunk: the O(1)
                    # bounds assume a uniform rate over the chunk's
                    # span and can be badly off across a cliff.  Walk
                    # the phases delivery-paced instead (still cheap —
                    # only rate-crossing chunks pay it).
                    c_times, c_values = c_tls[widx]
                    w_times, w_values = w_tls[widx]
                    comp = run.compute_start
                    deliv = bulk_start
                    busy_time = 0.0
                    for k, ph in enumerate(run.chunk.phases):
                        if k == 0:
                            ph_delivered = run.compute_start
                        else:
                            ph_delivered = _advance(
                                c_times, c_values, deliv,
                                ph.a_blocks + ph.b_blocks,
                            )
                            deliv = ph_delivered
                        start = comp if comp > ph_delivered else ph_delivered
                        comp = _advance(w_times, w_values, start, ph.updates)
                        busy_time += comp - start
                    comp_end = comp
            busy[widx] += busy_time
            push(heap, (comp_end, seq, _COUT, run))
            seq += 1
        else:  # _COUT
            stats = run.stats
            c_blocks = stats[0]
            cf = c_flat[widx]
            if cf is not None and bg_index == n_bg:
                avail = port_avail[recv_pid]
                start = avail if avail > now else now
                done = start + c_blocks * cf
                port_avail[recv_pid] = done
                comm_seconds[recv_pid] += done - start
            else:
                _, done = commit(recv_pid, widx, now, c_blocks)
            comm_blocks_total += stats[1] + 2 * c_blocks
            updates_total += stats[2]
            if done > makespan:
                makespan = done
            push(heap, (done, seq, _START, run))
            seq += 1

    return ModelEstimate(
        makespan=makespan,
        comm_blocks=comm_blocks_total,
        total_updates=updates_total,
        port_busy=(comm_seconds[0] + bg_busy, comm_seconds[1]),
        worker_busy=tuple(busy),
        worker_updates=tuple(updates_done),
        peak_blocks=tuple(peaks),
        two_port=two_port,
    )


def run_model(
    scheduler,
    platform: Platform,
    shape: ProblemShape,
    two_port: bool = False,
    check_memory: bool = True,
    scenario: Optional[Scenario] = None,
) -> ModelEstimate:
    """Estimate ``scheduler`` on ``platform`` without simulating.

    Launches the scheduler against a :class:`ModelEngine` (so chunk
    geometry, resource selection and assignment run exactly as they
    would for a real run), then replays the chunk streams through the
    closed-form estimator.  ``check_memory`` raises when the analytic
    peak-buffer *upper bound* exceeds a worker's ``m_i`` — conservative
    by construction, matching capacity-planning use.

    Raises :class:`ModelEngineUnsupported` for schedulers that launch
    raw kernel processes — no DES fallback (see module docstring).
    """
    if scenario is not None and scenario.platform != platform:
        raise ValueError(
            f"scenario {scenario.name!r} wraps platform "
            f"{scenario.platform.name!r}, not {platform.name!r}"
        )
    engine = ModelEngine(platform, shape, two_port, check_memory)
    scheduler.launch(engine)
    return _estimate(engine, scenario)
