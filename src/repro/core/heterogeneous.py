"""Heterogeneous resource selection — Section 6.

Three layers, in increasing realism:

1. :func:`bandwidth_centric_steady_state` — the steady-state linear
   program of Section 6.1.  Maximise ``Σ x_i`` (block updates per time
   unit) subject to ``x_i ≤ 1/w_i`` and the master-port constraint
   ``Σ (2 c_i/µ_i) x_i ≤ 1``.  The optimum is bandwidth-centric: sort
   workers by non-decreasing ``2 c_i/µ_i`` and enroll greedily.  This is
   an *upper bound*: with bounded memory the schedule may be unrealisable.
2. :func:`simulate_bandwidth_centric_feasibility` — quantifies the
   Table 1 phenomenon: how many blocks a worker must buffer to ride out
   the master's service of the other enrolled workers, versus how many
   buffers it actually has.
3. :func:`global_selection` / :func:`local_selection` /
   :func:`lookahead_selection` — the incremental selection algorithms of
   Section 6.2 (Algorithm 3 and its variants), which build the actual
   allocation step by step through a time-faithful simulation.

All selection functions return a :class:`SelectionResult` carrying the
selection sequence, the communication/computation intervals (used to
regenerate Figures 7 and 8) and the asymptotic computation-per-
communication ratio (1.17 / 1.21 / 1.30 on the Table 2 platform).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.layout import mu_overlap
from repro.platform.model import Platform, Worker

__all__ = [
    "SteadyState",
    "bandwidth_centric_steady_state",
    "steady_state_linprog",
    "BufferFeasibility",
    "simulate_bandwidth_centric_feasibility",
    "SelectionResult",
    "global_selection",
    "local_selection",
    "lookahead_selection",
]


def chunk_sizes(platform: Platform) -> list[int]:
    """Per-worker chunk sides ``µ_i`` from the overlap layout
    ``µ_i² + 4µ_i ≤ m_i`` (Section 6 preamble)."""
    return [mu_overlap(wk.m) for wk in platform.workers]


# ---------------------------------------------------------------------------
# Section 6.1 — steady-state LP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteadyState:
    """Solution of the Section 6.1 linear program.

    Attributes:
        x: per-worker computation rates (block updates per time unit).
        y: per-worker reception rates (blocks per time unit),
           ``y_i = 2 x_i / µ_i``.
        throughput: ``Σ x_i``, the paper's ρ.
        enrolled: 1-based indices of workers with ``x_i > 0``.
        saturated_worker: index of the (at most one) partially-enrolled
            worker limited by bandwidth rather than CPU, or ``None``.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    throughput: float
    enrolled: tuple[int, ...]
    saturated_worker: Optional[int]

    def port_utilisation(self, platform: Platform) -> float:
        """Fraction of master-port time used, ``Σ y_i c_i`` (≤ 1)."""
        return sum(yi * wk.c for yi, wk in zip(self.y, platform.workers))


def bandwidth_centric_steady_state(
    platform: Platform, mu: Optional[Sequence[int]] = None
) -> SteadyState:
    """Closed-form optimum of the steady-state LP (bandwidth-centric).

    Sort workers by non-decreasing ``2c_i/µ_i`` (cheapest port time per
    delivered chunk first); enroll each fully (``x_i = 1/w_i``) while the
    port constraint ``Σ 2c_i x_i/µ_i ≤ 1`` holds; give the first worker
    that does not fit the leftover port fraction.

    On the Table 2 platform this yields ρ = 25/18 ≈ 1.39.
    """
    mus = list(mu) if mu is not None else chunk_sizes(platform)
    if len(mus) != platform.p:
        raise ValueError("mu must have one entry per worker")
    order = sorted(
        range(platform.p), key=lambda i: 2.0 * platform.workers[i].c / mus[i]
    )
    x = [0.0] * platform.p
    port_left = 1.0
    saturated: Optional[int] = None
    for i in order:
        wk = platform.workers[i]
        cost_per_x = 2.0 * wk.c / mus[i]  # port time per unit compute rate
        full_x = 1.0 / wk.w
        if cost_per_x * full_x <= port_left + 1e-15:
            x[i] = full_x
            port_left -= cost_per_x * full_x
        else:
            x[i] = port_left / cost_per_x
            port_left = 0.0
            if x[i] > 0:
                saturated = i + 1
            break
    y = [2.0 * xi / mui for xi, mui in zip(x, mus)]
    enrolled = tuple(i + 1 for i in range(platform.p) if x[i] > 1e-15)
    return SteadyState(
        x=tuple(x),
        y=tuple(y),
        throughput=sum(x),
        enrolled=enrolled,
        saturated_worker=saturated,
    )


def steady_state_linprog(
    platform: Platform, mu: Optional[Sequence[int]] = None
) -> SteadyState:
    """Solve the same LP with ``scipy.optimize.linprog`` (cross-check).

    Variables are the ``x_i``; maximise ``Σ x_i`` s.t. ``x_i ≤ 1/w_i``
    and ``Σ (2c_i/µ_i) x_i ≤ 1``.
    """
    from scipy.optimize import linprog

    mus = list(mu) if mu is not None else chunk_sizes(platform)
    p = platform.p
    c_row = [2.0 * wk.c / mui for wk, mui in zip(platform.workers, mus)]
    res = linprog(
        c=[-1.0] * p,
        A_ub=[c_row],
        b_ub=[1.0],
        bounds=[(0.0, 1.0 / wk.w) for wk in platform.workers],
        method="highs",
    )
    if not res.success:  # pragma: no cover - LP is always feasible
        raise RuntimeError(f"steady-state LP failed: {res.message}")
    x = tuple(float(v) for v in res.x)
    y = tuple(2.0 * xi / mui for xi, mui in zip(x, mus))
    enrolled = tuple(i + 1 for i in range(p) if x[i] > 1e-9)
    return SteadyState(
        x=x, y=y, throughput=float(-res.fun), enrolled=enrolled, saturated_worker=None
    )


# ---------------------------------------------------------------------------
# Section 6.1 — memory feasibility of the steady state (Table 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BufferFeasibility:
    """Buffer demand of the steady-state schedule on one worker.

    Attributes:
        worker: 1-based index.
        needed_blocks: A/B blocks the worker must hold to stay busy while
            the master serves the other enrolled workers once each.
        available_blocks: A/B buffers the worker actually has beyond the
            C tile (``m_i - µ_i²``).
        feasible: ``needed_blocks ≤ available_blocks``.
    """

    worker: int
    needed_blocks: float
    available_blocks: int
    feasible: bool


def simulate_bandwidth_centric_feasibility(
    platform: Platform, mu: Optional[Sequence[int]] = None
) -> list[BufferFeasibility]:
    """Check whether the bandwidth-centric schedule fits in memory.

    The paper's Table 1 argument: in steady state the master alternates
    chunk deliveries.  While it spends ``2µ_j c_j`` serving worker ``j``,
    enrolled worker ``i`` burns through buffered data at rate ``2/(µ_i
    w_i)`` blocks per time unit.  Over one service round of all *other*
    enrolled workers, ``i`` needs

        ``needed_i = Σ_{j≠i} 2µ_j c_j · 2/(µ_i w_i)``

    blocks in reserve, but only has ``m_i − µ_i²`` buffers for A/B data.
    On Table 1 worker P1 needs 40 blocks (20 chunks' worth of A+B =
    the paper's "as many as 20 blocks" of each kind) against 12 buffers.
    """
    mus = list(mu) if mu is not None else chunk_sizes(platform)
    steady = bandwidth_centric_steady_state(platform, mus)
    enrolled = set(steady.enrolled)
    out: list[BufferFeasibility] = []
    for i, wk in enumerate(platform.workers, start=1):
        if i not in enrolled:
            out.append(BufferFeasibility(i, 0.0, wk.m - mus[i - 1] ** 2, True))
            continue
        gap = sum(
            2.0 * mus[j - 1] * platform.worker(j).c for j in enrolled if j != i
        )
        needed = gap * 2.0 / (mus[i - 1] * wk.w)
        available = wk.m - mus[i - 1] ** 2
        out.append(BufferFeasibility(i, needed, available, needed <= available))
    return out


# ---------------------------------------------------------------------------
# Section 6.2 — incremental selection (Algorithm 3 and variants)
# ---------------------------------------------------------------------------


@dataclass
class _SelState:
    """Mutable simulation state shared by all selection variants.

    Mirrors Algorithm 3's variables: ``completion_time`` (end of the last
    communication), per-worker ``ready`` times, per-worker block counts
    and the accumulated ``total_work``.
    """

    platform: Platform
    mus: list[int]
    completion_time: float = 0.0
    total_work: float = 0.0
    ready: list[float] = field(default_factory=list)
    nb_block: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.ready = [0.0] * self.platform.p
        self.nb_block = [0.0] * self.platform.p

    def apply(self, idx: int) -> tuple[float, float, float, float]:
        """Commit the selection of worker ``idx`` (0-based).

        Returns ``(comm_start, comm_end, compute_start, compute_end)``
        for trace recording.  Communication is rendered right-aligned in
        the master-port window (the transfer itself takes ``2µc``; any
        earlier gap is master idle time waiting for the worker's memory
        to free up).
        """
        wk = self.platform.workers[idx]
        mu = self.mus[idx]
        comm_time = 2.0 * mu * wk.c
        new_completion = max(self.completion_time + comm_time, self.ready[idx])
        comm_start = new_completion - comm_time
        self.completion_time = new_completion
        compute_start = new_completion
        self.ready[idx] = new_completion + mu * mu * wk.w
        self.nb_block[idx] += 2 * mu
        self.total_work += mu * mu
        return comm_start, new_completion, compute_start, self.ready[idx]

    def preview(self, idx: int) -> tuple[float, float, float]:
        """Hypothetical (total_work', completion', ready') after selecting
        ``idx``, without mutating state."""
        wk = self.platform.workers[idx]
        mu = self.mus[idx]
        new_completion = max(
            self.completion_time + 2.0 * mu * wk.c, self.ready[idx]
        )
        return (
            self.total_work + mu * mu,
            new_completion,
            new_completion + mu * mu * wk.w,
        )

    def columns_done(self, shape_r: int, t: int) -> float:
        """Algorithm 3's ``nb-column``: fully processed C block columns."""
        total = 0.0
        for i, mu in enumerate(self.mus):
            denom = 2.0 * mu * t * math.ceil(shape_r / mu)
            total += math.floor(self.nb_block[i] / denom) * mu
        return total


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of an incremental selection run.

    Attributes:
        sequence: 1-based worker index of each communication, in order.
        comm_intervals: per communication ``(worker, start, end)`` on the
            master port.
        compute_intervals: per communication ``(worker, start, end)`` of
            the enabled chunk update on the worker.
        total_work: block updates assigned.
        completion_time: end of the last communication.
        ratio: ``total_work / completion_time`` — the paper's
            computation-per-communication ratio.
        chunks_per_worker: how many times each worker was selected.
        columns_per_worker: full C block columns allocated to each worker
            (phase-1 output used by the phase-2 execution).
    """

    sequence: tuple[int, ...]
    comm_intervals: tuple[tuple[int, float, float], ...]
    compute_intervals: tuple[tuple[int, float, float], ...]
    total_work: float
    completion_time: float
    ratio: float
    chunks_per_worker: tuple[int, ...]
    columns_per_worker: tuple[int, ...]


def _run_selection(
    platform: Platform,
    r: int,
    s: int,
    t: int,
    choose: Optional[Callable[[_SelState], int]],
    mu: Optional[Sequence[int]],
    max_steps: Optional[int],
    commit_plan: Optional[Callable[[_SelState], Sequence[int]]] = None,
) -> SelectionResult:
    """Common driver: iterate ``choose`` until ``s`` columns are covered.

    ``commit_plan``, when given, supersedes ``choose`` and may commit
    several selections per iteration (used by the lookahead variant).
    """
    mus = list(mu) if mu is not None else chunk_sizes(platform)
    if len(mus) != platform.p:
        raise ValueError("mu must have one entry per worker")
    state = _SelState(platform, mus)
    sequence: list[int] = []
    comms: list[tuple[int, float, float]] = []
    computes: list[tuple[int, float, float]] = []
    step_cap = max_steps if max_steps is not None else 10_000_000

    def commit(idx: int) -> None:
        c0, c1, k0, k1 = state.apply(idx)
        sequence.append(idx + 1)
        comms.append((idx + 1, c0, c1))
        computes.append((idx + 1, k0, k1))

    while state.columns_done(r, t) < s and len(sequence) < step_cap:
        if commit_plan is not None:
            for idx in commit_plan(state):
                commit(idx)
        else:
            commit(choose(state))

    counts = [0] * platform.p
    for widx in sequence:
        counts[widx - 1] += 1
    columns = [
        int(math.floor(state.nb_block[i] / (2.0 * mus[i] * t * math.ceil(r / mus[i]))))
        * mus[i]
        for i in range(platform.p)
    ]
    ratio = state.total_work / state.completion_time if state.completion_time else 0.0
    return SelectionResult(
        sequence=tuple(sequence),
        comm_intervals=tuple(comms),
        compute_intervals=tuple(computes),
        total_work=state.total_work,
        completion_time=state.completion_time,
        ratio=ratio,
        chunks_per_worker=tuple(counts),
        columns_per_worker=tuple(columns),
    )


def global_selection(
    platform: Platform,
    r: int,
    s: int,
    t: int,
    mu: Optional[Sequence[int]] = None,
    max_steps: Optional[int] = None,
) -> SelectionResult:
    """Algorithm 3 — the *global* selection algorithm.

    At each step pick the worker maximising

        ``(total_work + µ_i²) / max(completion_time + 2µ_i c_i, ready_i)``

    i.e. the best ratio of all work assigned so far (including this
    chunk) over the time at which this communication would complete.
    On Table 2 the asymptotic ratio is ≈ 1.17.
    """

    def choose(state: _SelState) -> int:
        best_idx, best_ratio = 0, -math.inf
        for i in range(state.platform.p):
            work, completion, _ready = state.preview(i)
            ratio = work / completion
            if ratio > best_ratio + 1e-12:
                best_idx, best_ratio = i, ratio
        return best_idx

    return _run_selection(platform, r, s, t, choose, mu, max_steps)


def local_selection(
    platform: Platform,
    r: int,
    s: int,
    t: int,
    mu: Optional[Sequence[int]] = None,
    max_steps: Optional[int] = None,
) -> SelectionResult:
    """The *local* selection algorithm (Section 6.2.2).

    Pick the worker maximising the work enabled by this communication
    over the port time it monopolises:

        ``µ_i² / max(2µ_i c_i, ready_i − completion_time)``

    On Table 2 the asymptotic ratio is ≈ 1.21 (better than global here,
    though neither dominates in general).
    """

    def choose(state: _SelState) -> int:
        best_idx, best_ratio = 0, -math.inf
        for i in range(state.platform.p):
            wk = state.platform.workers[i]
            m = state.mus[i]
            denom = max(2.0 * m * wk.c, state.ready[i] - state.completion_time)
            ratio = m * m / denom if denom > 0 else math.inf
            if ratio > best_ratio + 1e-12:
                best_idx, best_ratio = i, ratio
        return best_idx

    return _run_selection(platform, r, s, t, choose, mu, max_steps)


def lookahead_selection(
    platform: Platform,
    r: int,
    s: int,
    t: int,
    depth: int = 2,
    mu: Optional[Sequence[int]] = None,
    max_steps: Optional[int] = None,
    commit: int = 1,
) -> SelectionResult:
    """Global selection with ``depth``-step lookahead.

    Evaluates every ordered ``depth``-tuple of workers and scores the
    state reached after the whole tuple by the global criterion (total
    work over completion time) — the paper's "search for the best pair
    of workers to select for the next two communications".  ``commit``
    controls how many selections of the best tuple are actually taken
    before re-planning; the receding-horizon default (``commit=1``)
    reproduces the paper's Table 2 ratio of ≈ 1.30 with ``depth=2``
    (committing the full pair yields ≈ 1.28).
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not 1 <= commit <= depth:
        raise ValueError(f"commit must be in 1..depth, got {commit}")

    def plan(state: _SelState) -> Sequence[int]:
        best_tuple: Optional[tuple[int, ...]] = None
        best_ratio = -math.inf
        for combo in iter_product(range(state.platform.p), repeat=depth):
            # Simulate the tuple on a scratch copy of the state.
            scratch = _SelState(state.platform, state.mus)
            scratch.completion_time = state.completion_time
            scratch.total_work = state.total_work
            scratch.ready = list(state.ready)
            scratch.nb_block = list(state.nb_block)
            for idx in combo:
                scratch.apply(idx)
            ratio = scratch.total_work / scratch.completion_time
            if ratio > best_ratio + 1e-12:
                best_ratio, best_tuple = ratio, combo
        assert best_tuple is not None
        return best_tuple[:commit]

    return _run_selection(
        platform, r, s, t, choose=None, mu=mu, max_steps=max_steps, commit_plan=plan
    )
