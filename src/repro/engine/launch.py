"""Launch capture and structural grouping, shared by the batched engines.

Every decision a paper scheduler makes (which workers to enroll, how
chunks are dealt, in what order the queue drains) is fixed once
``scheduler.launch(engine)`` returns, and launch simulates nothing: it
registers one agent descriptor per worker.  The fast scan and the
analytic estimator both replay those descriptors, so both capture a
launch through :class:`LaunchTarget`, and both batched tiers group
points through :func:`launch_groups` — pre-key, then plan tokens, else
the launch signature (``docs/engines.md``, "Batched evaluation").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.blocks.shape import ProblemShape
from repro.platform.model import Platform

__all__ = ["AgentSpec", "LaunchTarget", "launch_groups", "run_scalar",
           "scan_groups"]


class AgentSpec:
    """What ``static_agent``/``demand_agent`` return instead of a generator."""

    __slots__ = ("widx", "chunks", "queue", "gap")

    def __init__(self, widx, chunks, queue, gap):
        if gap not in (1, 2):
            raise ValueError(f"generation_gap must be 1 or 2, got {gap}")
        self.widx = widx
        self.chunks = chunks
        self.queue = queue
        self.gap = gap


class Launchpad:
    """Stand-in for ``Engine.env`` accepting agent descriptors only."""

    __slots__ = ("agents", "unsupported")

    def __init__(self, unsupported: type):
        self.agents: List[AgentSpec] = []
        self.unsupported = unsupported

    def process(self, agent, name: str = "") -> AgentSpec:
        if not isinstance(agent, AgentSpec):
            raise self.unsupported(
                "only chunk agents (static_agent/demand_agent) can be "
                f"captured; got a raw process {agent!r} — run with "
                "engine='des'"
            )
        self.agents.append(agent)
        return agent


class LaunchTarget:
    """What a scheduler's ``launch`` sees instead of the DES ``Engine``.

    Exposes exactly what ``launch`` implementations touch: ``platform``,
    ``shape``, the two agent factories, and an ``env`` whose ``process``
    collects agent descriptors.  Subclasses set :attr:`unsupported`, the
    exception ``env.process`` raises for a raw kernel process.
    """

    __slots__ = ("platform", "shape", "two_port", "check_memory", "env")

    unsupported: type  # set by each subclass

    def __init__(
        self,
        platform: Platform,
        shape: ProblemShape,
        two_port: bool = False,
        check_memory: bool = True,
    ):
        self.platform = platform
        self.shape = shape
        self.two_port = two_port
        self.check_memory = check_memory
        self.env = Launchpad(self.unsupported)

    def static_agent(self, widx: int, chunks, generation_gap: int) -> AgentSpec:
        """Descriptor for a worker processing a fixed chunk list."""
        return AgentSpec(widx, list(chunks), None, generation_gap)

    def demand_agent(self, widx: int, queue, generation_gap: int) -> AgentSpec:
        """Descriptor for a worker draining a shared chunk queue."""
        return AgentSpec(widx, None, queue, generation_gap)


class _GroupAbort(Exception):
    """The representative's control flow raised (memory cap, update-count
    mismatch): the whole group re-runs scalar so each point raises — or
    survives — authentically."""


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def _chunk_token(chunk, id_memo: Dict[int, int], content_ids: Dict[tuple, int]) -> int:
    """Small interned token for a chunk's full structural content.

    Tokens compare by *content equality* (the interning dict keys the
    complete ``(row_range, col_range, phases)`` tuple), never by hash
    alone, so two structurally different chunks can never collide into
    one group.  The ``id()`` memo makes repeat lookups O(1): the
    lru-cached tilings hand the same chunk objects to every point of a
    sweep.
    """
    token = id_memo.get(id(chunk))
    if token is None:
        content = (chunk.row_range, chunk.col_range, chunk.phases)
        token = content_ids.get(content)
        if token is None:
            token = content_ids[content] = len(content_ids)
        id_memo[id(chunk)] = token
    return token


def _signature(engine: LaunchTarget, id_memo, content_ids) -> tuple:
    """Structural signature of one launched point, within a pre-group.

    Two points of one pre-group (same scheduler class, shape, port model,
    memory-check flag and worker count) with equal signatures present the
    scans with identical decision structure: the same memory capacities
    and agent count, and per agent the same worker index, generation gap
    and exact chunk stream (chunk identity by content, queue sharing by
    position).  Only the platform's ``c``/``w`` rates may differ.
    """
    queue_ids: Dict[int, tuple] = {}
    agents = []
    for spec in engine.env.agents:
        if spec.queue is not None:
            qsig = queue_ids.get(id(spec.queue))
            if qsig is None:
                qsig = (
                    len(queue_ids),
                    spec.queue._next,
                    tuple(
                        _chunk_token(c, id_memo, content_ids)
                        for c in spec.queue._chunks
                    ),
                )
                queue_ids[id(spec.queue)] = qsig
            chunks_sig = None
        else:
            qsig = None
            chunks_sig = tuple(
                _chunk_token(c, id_memo, content_ids) for c in spec.chunks
            )
        agents.append((spec.widx, spec.gap, chunks_sig, qsig))
    return tuple(wk.m for wk in engine.platform.workers), tuple(agents)


def _rate_matrices(
    items: Sequence[Any], p: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, p)`` matrices of per-worker ``c``, ``w`` and memory."""
    flat = [wk for item in items for wk in item.platform.workers]
    n = len(items)
    return (
        np.array([wk.c for wk in flat]).reshape(n, p),
        np.array([wk.w for wk in flat]).reshape(n, p),
        np.array([wk.m for wk in flat], dtype=np.int64).reshape(n, p),
    )


# ---------------------------------------------------------------------------
# Grouping and dispatch
# ---------------------------------------------------------------------------

def run_scalar(item, check_invariants: bool = True) -> Any:
    """The scalar reference run of one batch item.

    Every batched result must equal this; it is also what each fallback
    runs.  ``run_scheduler`` is looked up at call time (the engine
    module imports the tiers that import this one).
    """
    from repro.engine.engine import run_scheduler

    return run_scheduler(
        item.scheduler(), item.platform, item.shape,
        two_port=item.two_port, check_memory=item.check_memory,
        check_invariants=check_invariants, engine=item.engine,
        scenario=item.scenario,
    )


def launch_groups(
    items: Sequence[Any],
    indices: Sequence[int],
    engine_cls: type,
    fallback: Callable[[int], None],
    min_group: int,
) -> Iterator[Tuple[LaunchTarget, List[int], np.ndarray, np.ndarray]]:
    """Yield ``(rep, group, c_m, w_m)`` per structure-sharing group.

    ``group`` lists the indices into ``items`` (a subset of ``indices``,
    representative first), ``rep`` is the representative launched on an
    ``engine_cls``, and ``c_m``/``w_m`` are the group's ``(n, p)`` rate
    matrices.  Every item that ends up in no group of ``min_group`` or
    more — and every item whose launch ``engine_cls`` rejects — is
    passed to ``fallback`` instead.  See the module docstring for the
    three grouping steps.
    """
    min_group = max(min_group, 2)
    pregroups: Dict[tuple, List[Tuple[int, Any]]] = {}
    for i in indices:
        item = items[i]
        sch = item.scheduler()
        key = (
            type(sch), item.shape, item.two_port, item.check_memory,
            item.platform.p,
        )
        pregroups.setdefault(key, []).append((i, sch))

    def launch(i: int, sch) -> LaunchTarget | None:
        item = items[i]
        engine = engine_cls(
            item.platform, item.shape,
            two_port=item.two_port, check_memory=item.check_memory,
        )
        try:
            sch.launch(engine)
        except engine_cls.unsupported:
            return None
        return engine

    id_memo: Dict[int, int] = {}
    content_ids: Dict[tuple, int] = {}
    for (_, shape, _, _, p), members in pregroups.items():
        if len(members) < min_group:
            for i, _ in members:
                fallback(i)
            continue
        c_m, w_m, m_m = _rate_matrices([items[i] for i, _ in members], p)
        # Non-chunk schedulers (no plan_signatures at all) take the
        # launch-everything path, like schedulers that decline.
        plan = getattr(members[0][1], "plan_signatures", None)
        tokens = plan(shape, c_m, w_m, m_m) if plan is not None else None
        groups: Dict[Any, list] = {}  # key -> [launched rep or None, rows]
        if tokens is not None:
            # The scans' memory-cap checks read the representative's
            # capacities, so rows sharing a token must share them too;
            # one vector check usually settles it for the pre-group.
            uniform_m = bool((m_m == m_m[0]).all())
            for row, tok in enumerate(tokens):
                if not uniform_m:
                    tok = (tok, tuple(m_m[row].tolist()))
                groups.setdefault(tok, [None, []])[1].append(row)
        else:
            for row, (i, sch) in enumerate(members):
                engine = launch(i, sch)
                if engine is None:
                    fallback(i)
                    continue
                sig = _signature(engine, id_memo, content_ids)
                groups.setdefault(sig, [engine, []])[1].append(row)
        for rep, rows in groups.values():
            if rep is None and len(rows) >= min_group:
                rep = launch(*members[rows[0]])
            if rep is None or len(rows) < min_group:
                for row in rows:
                    fallback(members[row][0])
                continue
            sel = np.array(rows)
            yield rep, [members[row][0] for row in rows], c_m[sel], w_m[sel]


def scan_groups(
    items: Sequence[Any],
    indices: Sequence[int],
    engine_cls: type,
    scan: Callable[[Any, np.ndarray, np.ndarray], Tuple[Sequence[Any], np.ndarray]],
    results: List[Any],
    check_invariants: bool,
    min_group: int,
) -> int:
    """Resolve ``results[i]`` for every ``i`` in ``indices``.

    ``scan(rep, c_m, w_m)`` evaluates one group from :func:`launch_groups`
    and returns one value per row plus the validity mask, or raises
    :class:`_GroupAbort`.  Valid rows take their value; every other item
    takes :func:`run_scalar`.  Returns how many items the vectorized
    path committed.
    """
    def fallback(i: int) -> None:
        results[i] = run_scalar(items[i], check_invariants)

    vectorized = 0
    for rep, group, c_m, w_m in launch_groups(
        items, indices, engine_cls, fallback, min_group
    ):
        try:
            values, ok = scan(rep, c_m, w_m)
        except _GroupAbort:
            for i in group:
                fallback(i)
            continue
        for i, value, valid in zip(group, values, ok.tolist()):
            if valid:
                results[i] = value
                vectorized += 1
            else:
                fallback(i)
    return vectorized
