"""End-to-end sweep benchmark.

    python3 perfbench/run.py --workload fig10-fast --seed 1 --seconds 35 --trace 0

Run from the root of the repository.  One client drives the workload
as a closed loop: each sample is a fresh interpreter (``sample.py``)
that runs one cold sweep and one resumed sweep through
``repro.runner.run_sweep``, and the next sample starts after it ends.
A sample starts while less than half of one is expected to run past
``--seconds``.  ``--workload`` also takes a comma-separated list or
``all``; samples then interleave the workloads round-robin.

``--trace 0`` reports the end-to-end metrics of untraced samples.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (see ``tracing.py``), the import
layer from ``python -X importtime``, and the tracing overhead.

Every pass's rows are checked against reference digests: the checked-in
``reference/<workload>.json`` for the default seed, otherwise digests
computed on the scalar path before timing starts.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SAMPLE = os.path.join(HERE, "sample.py")
#: A sample that runs longer than this is stuck; the run fails.
SAMPLE_TIMEOUT_S = 120
MIN_SAMPLES = 3  # per workload and trace mode
IMPORT_PROBES = 3

class BenchError(RuntimeError):
    pass


def _env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CACHE_DISABLE", None)
    env.update(extra)
    return env


def _python(args, env, timeout=SAMPLE_TIMEOUT_S) -> tuple:
    """Run a child interpreter to completion; ``(stdout, stderr)``.

    The child leads its own process group, so a timeout or an interrupt
    kills it together with any pool workers it forked.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already gone
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(
            f"{' '.join(args[:2])} exited with {proc.returncode}:\n{err[-4000:]}"
        )
    return out, err


def _stamp() -> dict:
    """What produced the numbers: commit, code digest, host, versions."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path, _, names in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(n for n in names if n.endswith(".py")):
            with open(os.path.join(path, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "commit": commit, "code_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(), "python": platform.python_version(),
    }


def _reference(name: str, seed: int, run_dir: str) -> str:
    """Path of the reference digests for ``name`` at ``seed``."""
    if seed == workloads.DEFAULT_SEED:
        return os.path.join(HERE, "reference", f"{name}.json")
    path = os.path.join(run_dir, f"reference-{name}.json")
    _python(
        [SAMPLE, "--workload", name, "--seed", str(seed), "--out", path,
         "--make-reference"],
        _env(REPRO_CACHE_DISABLE="1",
             REPRO_CACHE_DIR=os.path.join(run_dir, "reference-cache")),
    )
    return path


def _import_probe() -> dict:
    _, err = _python(["-X", "importtime", "-c", "import repro.__main__"], _env())
    return tracing.parse_importtime(err)


def _sample(name, seed, run_dir, reference, index, traced) -> dict:
    """One sample in a fresh interpreter with its own cache directory."""
    cache_dir = os.path.join(run_dir, f"cache-{index}")
    out = os.path.join(run_dir, f"sample-{index}.json")
    args = [SAMPLE, "--workload", name, "--seed", str(seed),
            "--cache-dir", cache_dir, "--out", out, "--reference", reference,
            "--sample", str(index)]
    if traced:
        args += ["--trace", os.path.join(run_dir, f"trace-{index}.jsonl")]
    os.makedirs(cache_dir)
    try:
        # REPRO_CACHE_DIR also hermetically scopes cached_call lookups
        # (robustness baselines) made inside the sample and its workers.
        _python(args, _env(REPRO_CACHE_DIR=cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with open(out) as fh:
        result = json.load(fh)
    result["traced"] = traced
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail(values):
    """The highest of p90/p99 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def _end_to_end(samples) -> dict:
    """Medians of the untraced samples' end-to-end figures."""
    per = {
        "setup_s": [s["setup_s"] for s in samples],
        "points_per_s": [s["points"] / s["cold_s"] for s in samples],
        "resume_s": [s["resume_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    out = {k: (statistics.median(v), v) for k, v in per.items()}
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    out["ok_ratio"] = (1 - failed / attempted, [])
    return out


def _per_layer(traced, untraced, imports) -> dict:
    metrics = {}
    for key in traced[0]["trace"]["metrics"]:
        metrics[key] = statistics.median(
            s["trace"]["metrics"][key] for s in traced
        )
    metrics["runner.cache.bytes_on_disk"] = statistics.median(
        s["bytes_on_disk"] for s in traced
    )
    for key in imports[0]:
        metrics[key] = statistics.median(p[key] for p in imports)
    metrics["trace.overhead_ratio"] = statistics.median(
        s["points"] / s["cold_s"] for s in traced
    ) / statistics.median(s["points"] / s["cold_s"] for s in untraced)
    return metrics


def _print_end_to_end(name, samples, e2e, units) -> None:
    n = len(samples)
    print(f"\n== {name}: end-to-end, median of {n} untraced samples ==")
    print(f"{'metric':<16}{'median':>14}  {'unit':<9}{'p25':>12}{'p75':>12}")
    for key, unit in units.items():
        value, values = e2e[key]
        if values:
            lo, hi = _quartiles(values)
            tail = _tail(values)
            extra = f"  p{tail[0]}={tail[1]:.6g}" if tail else ""
            print(f"{key:<16}{value:>14.6g}  {unit:<9}{lo:>12.6g}{hi:>12.6g}{extra}")
        else:
            print(f"{key:<16}{value:>14.6g}  {unit:<9}")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print(f"{'failed_ratio':<16}{failed / attempted:>14.6g}  ratio    "
          f"({failed} of {attempted} points, cold + resume passes)")


def _print_layers(name, traced, untraced, metrics, units) -> None:
    # The table is one traced sample's, the one with the median cold
    # wall time, so its self times add up to its own walls.
    ranked = sorted(traced, key=lambda s: s["trace"]["walls"]["cold"])
    rep = ranked[(len(ranked) - 1) // 2]
    table, walls = rep["trace"]["table"], rep["trace"]["walls"]
    print(f"\n== {name}: per layer, traced sample {rep['sample']} (median "
          f"cold wall of {len(traced)}; one cold pass, "
          f"{rep['resume_passes']} resume passes) ==")
    keys = sorted(
        table,
        key=lambda k: (k.split("|")[0] != "main", k.split("|")[1],
                       list(tracing.LAYERS).index(k.split("|")[2])),
    )
    print(f"{'side':<7}{'pass':<8}{'span':<40}{'count':>8}{'total_s':>11}"
          f"{'self_s':>11}  share of base")
    layers: dict = {}
    for key in keys:
        side, where, span = key.split("|")
        row = table[key]
        share = ""
        if side == "main" and where in walls:
            share = (f"{row['self_s'] / walls[where]:7.1%} of {where} wall "
                     f"{walls[where]:.4g} s")
            layer = (where, tracing.LAYERS[span].split(".")[0])
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        print(f"{side:<7}{where:<8}{span:<40}{row['count']:>8}"
              f"{row['total_s']:>11.4g}{row['self_s']:>11.4g}  {share}")
    for where, wall in walls.items():
        split = ", ".join(
            f"{layer} {v / wall:.1%}"
            for (w, layer), v in sorted(layers.items(), key=lambda kv: -kv[1])
            if w == where
        )
        residual = rep["trace"]["residual"][where]
        print(f"{where} wall {wall:.4g} s = {split}; residual "
              f"{residual * 1e3:+.3f} ms (wall minus the sum of self times)")
    if any(k.startswith("worker|") for k in keys):
        print(f"worker spans run concurrently in {rep['jobs']} processes; "
              f"their points took {rep['task_seconds']:.4g} s of worker time")
    print(f"\n{'metric (median of ' + str(len(traced)) + ' traced samples)':<42}"
          f"{'value':>14}  unit")
    for key, unit in units.items():
        print(f"{key:<42}{metrics[key]:>14.6g}  {unit}")
    b = metrics["engine.batch.items"]
    print(f"engine.batch.vectorized_ratio base: 1 - "
          f"{metrics['engine.batch.fallback_items']:.0f} fallback items / "
          f"{b:.0f} items")
    print(f"trace.overhead_ratio base: traced / untraced points_per_s "
          f"({len(traced)} traced, {len(untraced)} untraced samples)")


def run(names, seed, seconds, trace) -> dict:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no program sources at {SRC}/repro")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {
        kind: {m["name"]: m["unit"] for m in bench[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(run_dir)
    try:
        stamp = _stamp()
        # Warm-up (untimed): compiles the bytecode and fills the page
        # cache, which an installed package has already done.
        imports = [_import_probe()]
        if trace:
            imports = [_import_probe() for _ in range(IMPORT_PROBES)]
        references = {n: _reference(n, seed, run_dir) for n in names}

        modes = [False, True] if trace else [False]
        slots = [(n, m) for n in names for m in modes]  # round-robin order
        samples = {slot: [] for slot in slots}
        durations: list = []
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            behind = [s for s in slots if len(samples[s]) < MIN_SAMPLES]
            expected = statistics.median(durations) if durations else 0.0
            if not behind and elapsed + expected / 2 > seconds:
                break
            slot = slots[index % len(slots)]
            index += 1
            if not behind or slot in behind:
                t0 = time.perf_counter()
                samples[slot].append(_sample(
                    slot[0], seed, run_dir, references[slot[0]], index, slot[1]
                ))
                durations.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    stamp["numpy"] = next(iter(samples.values()))[0]["numpy"]
    print(f"# perfbench workloads={','.join(names)} seed={seed} "
          f"seconds={seconds} trace={trace}")
    print(f"# stamp {json.dumps(stamp)}")
    print(f"# closed loop: 1 client, samples in fresh interpreters, one at a "
          f"time, {sum(map(len, samples.values()))} samples in "
          f"{time.perf_counter() - start:.1f} s")
    for (name, traced), group in samples.items():
        for s in group:
            print(f"# sample {s['sample']:>3} {name} traced={int(traced)} "
                  f"setup_s={s['setup_s']:.4f} cold_s={s['cold_s']:.4f} "
                  f"resume_s={s['resume_s']:.4f} failed={s['failed']}")
    report = {}
    for name in names:
        untraced = samples[(name, False)]
        e2e = _end_to_end(untraced)
        _print_end_to_end(name, untraced, e2e, units["end_to_end"])
        if trace:
            traced = samples[(name, True)]
            metrics = _per_layer(traced, untraced, imports)
            _print_layers(name, traced, untraced, metrics, units["per_layer"])
            values = {k: (metrics[k], u) for k, u in units["per_layer"].items()}
        else:
            values = {k: (e2e[k][0], u) for k, u in units["end_to_end"].items()}
        every = [s for slot in samples if slot[0] == name for s in samples[slot]]
        report[name] = {
            "correct": all(s["failed"] == 0 for s in every),
            "attempted": sum(s["attempted"] for s in every),
            "failed": sum(s["failed"] for s in every),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        }
    if len(names) == 1:
        return report[names[0]]
    return {
        "correct": all(r["correct"] for r in report.values()),
        "attempted": sum(r["attempted"] for r in report.values()),
        "failed": sum(r["failed"] for r in report.values()),
        "metrics": {n: r["metrics"] for n, r in report.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end sweep benchmark (see perfbench/README.md)."
    )
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(workloads.WORKLOADS)}, a "
                    "comma-separated list, or 'all'")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = (
        list(workloads.WORKLOADS) if args.workload == "all"
        else args.workload.split(",")
    )
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}")
    # SIGTERM unwinds like an interrupt, so a running sample's process
    # group is killed before the client exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(names, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
