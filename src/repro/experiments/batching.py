"""Shared glue for the experiments' point functions.

A simulating sweep declares each point once, as two pure top-level
functions: ``_item(params)`` rebuilds the point's
:class:`repro.engine.BatchItem` from its parameters, and
``_row(params, trace)`` formats the resulting trace into the point's
table row.  Both of the sweep's evaluators are then one-liners over
this module:

* ``_point`` (the per-point ``run_fn``) is :func:`evaluate_point` — the
  scalar reference run of the one item;
* ``_batch_points`` (the :data:`repro.runner.BatchableFn`) is
  :func:`evaluate_batch` — the whole group handed to
  :func:`repro.engine.run_batch`, which vectorizes structure-sharing
  subgroups and falls back to the scalar run everywhere it cannot prove
  byte-identity.

The scalar path stays a plain ``run_scheduler`` call rather than a
batch of one: its rows are the reference the batched rows are tested
against.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Sequence

from repro.engine import BatchItem, run_batch
from repro.engine.launch import run_scalar

__all__ = ["evaluate_batch", "evaluate_point"]


def evaluate_point(
    params: Mapping[str, Any],
    make_item: Callable[[Mapping[str, Any]], BatchItem],
    make_row: Callable[[Mapping[str, Any], Any], Any],
) -> Any:
    """Evaluate one point through the scalar engine; its row.

    ``make_item`` and ``make_row`` are the same pair the sweep hands to
    :func:`evaluate_batch`, so both paths share one declaration.
    """
    return make_row(params, run_scalar(make_item(params)))


def evaluate_batch(
    points: Sequence[Mapping[str, Any]],
    make_item: Callable[[Mapping[str, Any]], BatchItem],
    make_row: Callable[[Mapping[str, Any], Any], Any],
) -> List[Any]:
    """Evaluate ``points`` through the batched engine; rows in order.

    ``make_item`` rebuilds one point's :class:`BatchItem` from its
    parameter mapping (pure, like the per-point function itself);
    ``make_row`` turns ``(params, trace)`` into that point's result.
    The traces come back from :func:`run_batch` byte-identical to
    ``engine="fast"``, so the rows match the scalar path exactly.
    """
    traces = run_batch([make_item(params) for params in points])
    return [make_row(params, trace) for params, trace in zip(points, traces)]
