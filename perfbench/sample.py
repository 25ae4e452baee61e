"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N --cache-dir DIR \
        --out RESULT.json [--reference DIGESTS.json] [--trace SPANS.jsonl]

Times set-up (importing ``repro.__main__``, declaring the sweep, opening
the cache and backend), a cold ``run_sweep`` and then
:data:`RESUME_PASSES` warm ``run_sweep(..., resume=True)`` passes on the
same cache directory, checks every pass's rows against the reference
digests and writes the timings to ``--out``.

With ``--make-reference`` it instead evaluates the sweep on the scalar
path (``batch=False``, no cache, serial backend) and writes the row
digests to ``--out``.

Run it from the root of the repository with ``src`` on ``PYTHONPATH``;
``run.py`` does both.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Resume passes per sample; ``resume_s`` is their median.
RESUME_PASSES = 3


def row_digest(row) -> str:
    """sha256 of a row's canonical JSON.  Floats print as their shortest
    round-trip ``repr``, so equal digests mean bitwise-equal values."""
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_rows(rows, reference) -> bool:
    """Whether ``rows`` match the reference digests, row for row."""
    return len(rows) == len(reference) and all(
        row_digest(row) == digest for row, digest in zip(rows, reference)
    )


def _bytes_on_disk(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for path, _, names in os.walk(root) for name in names
    )


def make_reference(args) -> None:
    import repro.runner as runner

    sweep = workloads.declare(args.workload, args.seed)
    result = runner.run_sweep(sweep, batch=False, backend="serial")
    with open(args.out, "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "rows": [row_digest(row) for row in result.rows],
        }, fh, indent=0)
        fh.write("\n")


def measure(args) -> None:
    w = workloads.WORKLOADS[args.workload]
    rec = tracing.Recorder(args.sample, args.trace) if args.trace else None

    start = time.perf_counter()
    import repro.__main__  # noqa: F401  (the CLI's full import graph)
    import repro.runner as runner
    from repro.runner.backends import create_backend

    if rec:
        tracing.install(rec)
    sweep = workloads.declare(args.workload, args.seed)
    cache = runner.ResultCache(args.cache_dir)
    backend = create_backend(w.backend, w.jobs)
    if hasattr(backend, "warm"):
        backend.warm()  # fork the pool now, not inside the timed sweep
    setup_s = time.perf_counter() - start

    passes = []  # (name, wall seconds, SweepResult)
    try:
        t0 = time.perf_counter()
        result = runner.run_sweep(
            sweep, jobs=w.jobs, cache=cache, backend=backend, on_error="keep",
        )
        passes.append(("cold", time.perf_counter() - t0, result))
        for _ in range(RESUME_PASSES):
            # A fresh ResultCache per pass reads the directory the way a
            # later process resuming the sweep would (no in-memory folds).
            resumed = runner.ResultCache(args.cache_dir)
            t0 = time.perf_counter()
            result = runner.run_sweep(
                sweep, jobs=w.jobs, cache=resumed, backend=backend,
                resume=True, on_error="keep",
            )
            passes.append(("resume", time.perf_counter() - t0, result))
    finally:
        backend.close()

    with open(args.reference) as fh:
        reference = json.load(fh)["rows"]
    points = len(sweep.points)
    failed = 0
    for _, _, result in passes:
        bad = result.errors + result.quarantined
        failed += points if bad or not check_rows(result.rows, reference) else 0
    walls = {"cold": passes[0][1], "resume": sum(p[1] for p in passes[1:])}

    import numpy

    out = {
        "sample": args.sample,
        "points": points,
        "jobs": w.jobs,
        "resume_passes": RESUME_PASSES,
        "attempted": points * len(passes),
        "failed": failed,
        "setup_s": setup_s,
        "cold_s": walls["cold"],
        "resume_s": statistics.median(p[1] for p in passes[1:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bytes_on_disk": _bytes_on_disk(args.cache_dir),
        "task_seconds": sum(
            o.seconds for _, _, r in passes for o in r.outcomes
            if not o.cached
        ),
        "numpy": numpy.__version__,
    }
    if rec:
        rec.dump(args.trace)
        spans = tracing.load(
            [args.trace] + sorted(glob.glob(args.trace + ".worker-*"))
        )
        out["trace"] = tracing.analyze(
            spans, walls, w.jobs,
            out["task_seconds"],
        )
    with open(args.out, "w") as fh:
        json.dump(out, fh)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cache-dir")
    ap.add_argument("--reference")
    ap.add_argument("--trace")
    ap.add_argument("--sample", type=int, default=0)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    if args.make_reference:
        make_reference(args)
    elif args.cache_dir and args.reference:
        measure(args)
    else:
        ap.error("--cache-dir and --reference are required to measure")


if __name__ == "__main__":
    main()
