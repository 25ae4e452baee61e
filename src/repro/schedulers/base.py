"""Scheduler base classes.

Two families cover all seven Section-8 algorithms:

* :class:`StaticChunkScheduler` — the assignment of chunks to workers is
  fixed before execution (HoLM, ORROML, OMMOML);
* :class:`DemandChunkScheduler` — a shared chunk queue is drained by
  whichever enrolled worker frees up first (ODDOML, DDOML, BMM, OBMM).

Subclasses specify the memory layout through two hooks: ``chunk_param``
(the tile side µ or σ derived from a worker's memory) and
``generation_gap`` (2 when the layout reserves a spare A/B generation
for overlap, 1 otherwise), plus ``build_chunks`` for tile geometry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.blocks.shape import ProblemShape
from repro.engine.chunks import Chunk
from repro.engine.engine import ChunkQueue, Engine
from repro.platform.model import Platform

__all__ = ["ChunkScheduler", "StaticChunkScheduler", "DemandChunkScheduler"]


class ChunkScheduler(ABC):
    """Common scaffolding: layout hooks and chunk construction."""

    #: Human-readable algorithm name (the paper's acronym).
    name: str = "scheduler"
    #: 2 with a spare A/B buffer generation (overlap), 1 without.
    generation_gap: int = 2

    @abstractmethod
    def chunk_param(self, m: int) -> int:
        """Tile side (µ or σ) for a worker with ``m`` block buffers."""

    @abstractmethod
    def build_chunks(self, shape: ProblemShape, param: int) -> list[Chunk]:
        """Partition the problem into chunks for tile side ``param``."""

    def common_param(self, platform: Platform) -> int:
        """Single tile side for a homogeneous run (smallest worker rules)."""
        return self.chunk_param(min(wk.m for wk in platform.workers))

    @abstractmethod
    def launch(self, engine: Engine) -> None:
        """Create the run's agents inside ``engine``."""

    def plan_signatures(
        self, shape: ProblemShape, c: np.ndarray, w: np.ndarray, m: np.ndarray
    ) -> Optional[list[Hashable]]:
        """Cheap structural tokens for batched evaluation.

        ``c``/``w``/``m`` are ``(n, p)`` arrays of per-worker rates, one
        row per platform of a sweep batch.  Returns one hashable token
        per row under the contract *equal tokens (on equal memory rows)
        ⇒* :meth:`launch` *builds identical agent structure on those
        platforms* (same chunk streams in the same order, same worker
        indices, same generation gap) — or ``None`` when the scheduler
        cannot promise that without actually launching.  Both batched
        tiers (fast traces and model estimates) rely on it through
        :func:`repro.engine.launch.launch_groups`, which launches only
        one representative per token;
        ``TestPlanSignatureContract`` in ``tests/test_fast_parity.py``
        checks the promise on both engines.  ``None`` (the default)
        makes the batch layer launch every point and group by the full
        launch signature instead, which is always sound but pays a
        per-point launch.

        Implementations must derive tokens from the class and the
        arguments alone, never from per-instance mutable state: the
        batch layer asks a single instance to answer for every point
        that shares its class.
        """
        return None


class StaticChunkScheduler(ChunkScheduler):
    """Chunks are pre-assigned; each worker runs its list in order."""

    @abstractmethod
    def assign(
        self, platform: Platform, shape: ProblemShape, chunks: list[Chunk]
    ) -> dict[int, list[Chunk]]:
        """Map 0-based worker index → ordered chunk list."""

    def launch(self, engine: Engine) -> None:
        param = self.common_param(engine.platform)
        chunks = self.build_chunks(engine.shape, param)
        assignment = self.assign(engine.platform, engine.shape, chunks)
        assigned = sum(len(v) for v in assignment.values())
        if assigned != len(chunks):
            raise RuntimeError(
                f"{self.name}: assigned {assigned} of {len(chunks)} chunks"
            )
        for widx, worker_chunks in sorted(assignment.items()):
            if worker_chunks:
                engine.env.process(
                    engine.static_agent(widx, worker_chunks, self.generation_gap),
                    name=f"{self.name}-P{widx + 1}",
                )


class DemandChunkScheduler(ChunkScheduler):
    """Chunks live in a shared queue drained by free workers."""

    def enrolled(self, platform: Platform, shape: ProblemShape) -> Sequence[int]:
        """0-based indices of the workers allowed to participate.

        The demand-driven algorithms of Section 8 enroll everyone;
        subclasses may restrict.
        """
        return range(platform.p)

    def plan_signatures(
        self, shape: ProblemShape, c: np.ndarray, w: np.ndarray, m: np.ndarray
    ) -> Optional[list[Hashable]]:
        # A demand run's launch structure is one shared chunk queue plus
        # an agent per enrolled worker.  With the default
        # enroll-everyone rule that depends only on the tile side, i.e.
        # on the smallest memory; which worker drains which chunk is
        # timing, and the batched scan's dispatch-order lock owns that.
        if type(self).enrolled is not DemandChunkScheduler.enrolled:
            return None
        params: dict[int, tuple] = {}
        tokens: list[Hashable] = []
        for mem in m.min(axis=1).tolist():
            tok = params.get(mem)
            if tok is None:
                tok = (self.name, self.chunk_param(int(mem)))
                params[mem] = tok
            tokens.append(tok)
        return tokens

    def launch(self, engine: Engine) -> None:
        param = self.common_param(engine.platform)
        chunks = self.build_chunks(engine.shape, param)
        queue = ChunkQueue(chunks)
        for widx in self.enrolled(engine.platform, engine.shape):
            engine.env.process(
                engine.demand_agent(widx, queue, self.generation_gap),
                name=f"{self.name}-P{widx + 1}",
            )
