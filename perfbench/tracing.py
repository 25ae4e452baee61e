"""Per-layer tracing from outside the program.

A traced sample calls :func:`install` after importing ``repro``.  It
wraps each layer's entry point at the binding its caller looks up, so
nothing under ``src/`` changes.  Each wrapper records a span (id,
parent, name, start, end, attributes) in the :class:`Recorder`'s memory;
the sample writes the spans out once it ends.  Forked pool workers
inherit the wrappers and write their own spans when they exit.

:func:`analyze` turns one sample's spans into the per-layer metrics and
the self-time table.  It and :func:`parse_importtime` use only the
standard library, so the client can run them without importing
``repro``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Span name -> layer, in reporting order.
LAYERS = {
    "runner.sweep": "runner.sweep",
    "runner.backends.map": "runner.backends",
    "runner.cache.manifest_keys": "runner.cache",
    "runner.cache.get": "runner.cache",
    "runner.cache.put": "runner.cache",
    "runner.cache.put_many": "runner.cache",
    "runner.cache.fsync": "runner.cache",
    "experiments.evaluate_batch": "experiments",
    "engine.batch.run_batch": "engine.batch",
    "engine.model_batch.batch_model_items": "engine.model_batch",
    "engine.run_scheduler": "engine.engine",
}


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, sample: int, path: str) -> None:
        self.sample = sample
        self.path = path
        self.side = "main"
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._next = 0

    def _open(self) -> tuple:
        parent = self._stack[-1] if self._stack else None
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, attrs) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, attrs))

    def call(self, name: str, fn: Callable, args, kwargs, attrs=None) -> Any:
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, start, attrs)

    def forked(self) -> None:
        """Start afresh in a forked worker (drop the parent's spans)."""
        self.side = "worker"
        self.spans, self._stack = [], []

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "attrs": attrs,
                    "pid": os.getpid(), "side": self.side,
                    "sample": self.sample,
                }) + "\n")


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _rebind(original: Callable, wrapper: Callable) -> int:
    """Point every ``repro`` module binding of ``original`` at ``wrapper``.

    Callers look a function up in their own module (``from x import f``
    copies the binding), so wrapping only the defining module would miss
    them.  Returns how many bindings were replaced.
    """
    name = original.__name__
    count = 0
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "repro" and getattr(
            module, name, None
        ) is original:
            setattr(module, name, wrapper)
            count += 1
    if not count:
        raise RuntimeError(f"no binding of {original.__qualname__} to wrap")
    return count


def _wrap(rec: Recorder, name: str, fn: Callable, attrs=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, attrs and attrs(args, kwargs))

    return wrapper


def _wrap_map(rec: Recorder, map_fn: Callable) -> Callable:
    """Wrap a backend's generator ``map``: one span per resumption.

    ``run_sweep`` consumes the generator lazily and writes to the cache
    between results, so one span from call to exhaustion would cover
    cache work too.  Each ``next`` gets its own span instead.
    """
    @functools.wraps(map_fn)
    def wrapper(self, fn, items, *args, **kwargs):
        gen = map_fn(self, fn, items, *args, **kwargs)
        while True:
            try:
                value = rec.call("runner.backends.map", next, (gen,), {})
            except StopIteration:
                return
            try:
                yield value
            except GeneratorExit:
                gen.close()
                raise

    return wrapper


class _OsProxy(types.ModuleType):
    """``os`` for one module, with ``fsync`` replaced.

    Patching ``os.fsync`` itself would trace every module's fsyncs;
    this proxy traces only the calls made by the module it replaces
    ``os`` in.
    """

    def __init__(self, real: types.ModuleType, fsync: Callable) -> None:
        super().__init__(real.__name__)
        self._real = real
        self.fsync = fsync

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


def install(rec: Recorder) -> None:
    """Wrap every traced entry point.  Call after importing ``repro``
    and before declaring the sweep or opening the backend."""
    import repro.runner as runner
    import repro.runner.backends.persistent as persistent
    import repro.runner.cache as cache_mod
    from repro.engine.batch import run_batch
    from repro.engine.engine import run_scheduler
    from repro.engine.model_batch import batch_model_items
    from repro.experiments import fig10, robustness
    from repro.runner.backends import PersistentBackend, SerialBackend

    _rebind(runner.run_sweep, _wrap(
        rec, "runner.sweep", runner.run_sweep,
        lambda a, k: {"pass": "resume" if k.get("resume") else "cold"},
    ))
    for method in ("get", "put", "put_many", "manifest_keys"):
        fn = getattr(cache_mod.ResultCache, method)
        setattr(cache_mod.ResultCache, method,
                _wrap(rec, f"runner.cache.{method}", fn))
    cache_mod.os = _OsProxy(
        cache_mod.os, _wrap(rec, "runner.cache.fsync", cache_mod.os.fsync)
    )
    for cls in (SerialBackend, PersistentBackend):
        cls.map = _wrap_map(rec, cls.map)
    # The sweep's batch function, looked up by import token (also in
    # pool workers, so functools.wraps must keep the token valid).
    for module in (fig10, robustness):
        module._batch_points = _wrap(
            rec, "experiments.evaluate_batch", module._batch_points
        )
    _rebind(run_batch, _wrap(
        rec, "engine.batch.run_batch", run_batch,
        lambda a, k: {"items": len(a[0])},
    ))
    _rebind(batch_model_items, _wrap(
        rec, "engine.model_batch.batch_model_items", batch_model_items,
        lambda a, k: {"items": len(a[1])},
    ))
    _rebind(run_scheduler, _wrap(rec, "engine.run_scheduler", run_scheduler))

    worker_main = persistent._worker_main

    def traced_worker_main(*args):
        rec.forked()
        try:
            return worker_main(*args)
        finally:
            rec.dump(f"{rec.path}.worker-{os.getpid()}")

    persistent._worker_main = traced_worker_main


# ---------------------------------------------------------------------------
# Analysis (standard library only)
# ---------------------------------------------------------------------------

def load(paths: Iterable[str]) -> List[dict]:
    spans = []
    for path in paths:
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals: List[tuple], lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def analyze(
    spans: List[dict], walls: Dict[str, float], jobs: int,
    task_seconds: float,
) -> Dict[str, Any]:
    """Per-layer metrics and self-time table of one traced sample.

    ``walls`` maps each pass (``cold``, ``resume``) to the wall time the
    sample measured around its ``run_sweep`` call; ``task_seconds`` is
    the sum of the computed points' ``PointOutcome.seconds``.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans}
    children: Dict[tuple, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["pid"], s["parent"]), []).append(s)

    def ancestors(s):
        while s["parent"] is not None:
            s = by_key[(s["pid"], s["parent"])]
            yield s

    def self_ns(s):
        kids = [(c["start"], c["end"]) for c in children.get((s["pid"], s["id"]), ())]
        return (s["end"] - s["start"]) - _covered(kids, s["start"], s["end"])

    # Table rows: (side, pass, name) -> [count, total_ns, self_ns]
    table: Dict[tuple, List[float]] = {}
    for s in spans:
        names = [a["name"] for a in ancestors(s)]
        if s["side"] == "main":
            root = s if s["name"] == "runner.sweep" else next(
                (a for a in ancestors(s) if a["name"] == "runner.sweep"), None
            )
            where = root["attrs"]["pass"] if root else "other"
        else:
            where = "worker"
        s["_pass"], s["_self"] = where, self_ns(s)
        s["_under"] = set(names)
        row = table.setdefault((s["side"], where, s["name"]), [0, 0, 0])
        row[0] += 1
        # A span nested in one of its own name (recursion) counts once.
        if s["name"] not in s["_under"]:
            row[1] += s["end"] - s["start"]
        row[2] += s["_self"]

    def total(name):
        return sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == name and name not in s["_under"]
        ) / 1e9

    def count(name, under=None):
        return sum(
            1 for s in spans
            if s["name"] == name and (under is None or under in s["_under"])
        )

    def self_s(name):
        return sum(s["_self"] for s in spans if s["name"] == name) / 1e9

    items = sum(
        s["attrs"]["items"] for s in spans
        if s["name"] == "engine.batch.run_batch"
    )
    fallback = count("engine.run_scheduler", under="engine.batch.run_batch")
    map_s = total("runner.backends.map")
    metrics = {
        "experiments.evaluate_batch.self_s": self_s("experiments.evaluate_batch"),
        "engine.batch.run_batch_s": total("engine.batch.run_batch"),
        "engine.batch.items": items,
        "engine.batch.fallback_items": fallback,
        "engine.batch.vectorized_ratio": 1 - fallback / items if items else 0.0,
        "engine.model_batch.batch_model_items_s":
            total("engine.model_batch.batch_model_items"),
        "engine.model_batch.fallback_items": count(
            "engine.run_scheduler", under="engine.model_batch.batch_model_items"
        ),
        "engine.run_scheduler.calls": count("engine.run_scheduler"),
        "engine.run_scheduler_s": total("engine.run_scheduler"),
        "runner.cache.put_many_s": total("runner.cache.put_many"),
        "runner.cache.put_many.calls": count("runner.cache.put_many"),
        "runner.cache.put_s": total("runner.cache.put"),
        "runner.cache.put.calls": count("runner.cache.put"),
        "runner.cache.fsync.count": count("runner.cache.fsync"),
        "runner.cache.fsync_s": total("runner.cache.fsync"),
        "runner.cache.get_s": total("runner.cache.get"),
        "runner.cache.get.calls": count("runner.cache.get"),
        "runner.cache.manifest_keys_s": total("runner.cache.manifest_keys"),
        "runner.backends.map_s": map_s,
        "runner.backends.overhead_s": map_s - task_seconds / jobs,
        "runner.sweep.self_s": self_s("runner.sweep"),
    }
    residual = {
        where: wall - sum(
            s["_self"] for s in spans
            if s["side"] == "main" and s["_pass"] == where
        ) / 1e9
        for where, wall in walls.items()
    }
    rows = {
        "|".join(key): {"count": c, "total_s": t / 1e9, "self_s": sf / 1e9}
        for key, (c, t, sf) in table.items()
    }
    return {
        "metrics": metrics, "walls": walls, "residual": residual, "table": rows,
    }


def parse_importtime(text: str) -> Dict[str, float]:
    """Import-layer metrics from ``python -X importtime`` output.

    A package's time is the cumulative time of its outermost import
    lines (a package first imported inside another one counts inside
    that one as well).  ``import.repro_s`` is the self time of the
    ``repro`` modules, ``import.total_s`` the cumulative time of the
    top-level ``repro`` imports.
    """
    lines = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        raw = fields[2]
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        lines.append((depth, raw.strip(), own, cumulative))

    def package(name):
        return name.split(".")[0]

    out = {"import.total_s": 0.0, "import.scipy_s": 0.0,
           "import.numpy_s": 0.0, "import.repro_s": 0.0}
    # importtime prints a module after its nested imports: walking the
    # lines backwards, a line's enclosing import is the nearest earlier
    # (in this walk) line of smaller depth.
    stack: List[tuple] = []
    for depth, name, own, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        enclosing: Optional[str] = stack[-1][1] if stack else None
        stack.append((depth, name))
        top = package(name)
        outermost = enclosing is None or package(enclosing) != top
        if top == "repro":
            out["import.repro_s"] += own / 1e6
            if depth == 0:
                out["import.total_s"] += cumulative / 1e6
        if top in ("scipy", "numpy") and outermost:
            out[f"import.{top}_s"] += cumulative / 1e6
    return out
