"""The benchmark's workloads: which sweep, which engine, which backend.

Importing this module imports nothing from ``repro``; only
:func:`declare` does, so the client process stays light.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

#: Width of the fig10 bandwidth axis: scales are drawn in
#: ``[1, 1 + BAND)``, the band of the ``1 + 0.001 * i`` (i < 16) grid
#: that the batched engines were measured on.  Link speeds this close
#: to the calibrated platform keep the schedulers' decisions those of
#: scale 1 for most points, so the axis groups under the batched
#: engines: 81-95 of the 336 fast items (seeds 0-5) and 241-347 of
#: the 5376 model items (seeds 0-7) fell back to the scalar engine.
BAND = 0.016

#: The seed whose reference rows are checked in under ``reference/``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    engine: str
    backend: str
    jobs: int
    bandwidth_scales: Optional[int] = None  # fig10 only
    scale: int = 1


#: Why each workload was chosen is recorded in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig10-fast", "fig10", "fast", "serial", 1, bandwidth_scales=16),
        Workload("fig10-model", "fig10", "model", "serial", 1, bandwidth_scales=256),
        Workload("robustness-pool", "robustness", "fast", "persistent", 2, scale=2),
    )
}


def bandwidth_axis(seed: int, n: int) -> list:
    """``n`` sorted link-speed scales drawn from ``seed`` in the band."""
    rng = random.Random(seed)
    return sorted(1.0 + BAND * rng.random() for _ in range(n))


def declare(name: str, seed: int):
    """The workload's :class:`repro.runner.Sweep` for ``seed``."""
    w = WORKLOADS[name]
    if w.experiment == "fig10":
        from repro.experiments import fig10

        return fig10.sweep(
            scale=w.scale, engine=w.engine,
            bandwidth_scales=bandwidth_axis(seed, w.bandwidth_scales),
        )
    from repro.experiments import robustness

    return robustness.sweep(scale=w.scale, engine=w.engine, seed=seed)
