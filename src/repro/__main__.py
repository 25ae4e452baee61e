"""Command-line entry point: run any experiment by name.

Usage::

    python -m repro list              # show available experiments
    python -m repro fig10             # run the Figure 10 reproduction
    python -m repro all               # run everything (slow)
    python -m repro sweep fig10 --jobs 4        # parallel + cached
    python -m repro sweep all --jobs 8 --scale 8
    python -m repro sweep fig10 --engine des    # force the DES oracle
    python -m repro sweep fig10 --engine model  # analytic estimates only
    python -m repro sweep fig10 --prescreen 5   # model-rank, simulate top 5
    python -m repro sweep all --jobs 4 --backend persistent   # warm workers
    python -m repro sweep fig10 --resume        # finish a killed sweep
    python -m repro sweep robustness --scenario dropout:0.5
    python -m repro sweep fig10 --retries 2 --timeout 60      # fault tolerant
    python -m repro sweep fig10 --retries 2 --max-failures 5  # + breaker
    python -m repro sweep fig10 --chaos "fail=0.2,seed=7" --retries 2
    python -m repro sweep fig10 --resume --retry-quarantined
    python -m repro cache info        # cache location, entries, size
    python -m repro cache rebuild     # salvage every log: drop bad records
    python -m repro cache compact     # fold dead log history away
    python -m repro cache clear       # drop every cached result
    python -m repro serve --jobs 4    # the long-lived sweep daemon
    python -m repro serve --status    # ask a running daemon for its state
    python -m repro sweep fig10 --backend remote   # dispatch through it

``sweep`` runs an experiment's campaign through the unified runner
(:mod:`repro.runner`): cache-miss points execute on the selected
``--backend`` (``serial`` inline, ``process`` fresh pool per sweep,
``persistent`` warm workers shared by every sweep of the invocation)
over ``--jobs`` workers, and results are memoized in a
manifest-indexed content-addressed on-disk cache, so a repeated
invocation completes without re-running any simulation and a killed
one picks up where it stopped (``--resume``).  Aggregated tables are
identical across every backend and the plain serial path.

The fault-tolerance layer (``docs/runner.md``) rides on top:
``--retries`` re-attempts failed points with deterministic backoff,
``--timeout`` bounds each point's wall clock inside the worker,
``--max-failures`` trips a circuit breaker that aborts the sweep with
a structured failure report, points that exhaust their retry budget
are quarantined in the cache manifest (skipped by later ``--resume``
runs unless ``--retry-quarantined``), and ``--chaos`` wraps the
backend in the deterministic fault injector to rehearse all of it.

``serve`` runs the crash-safe distributed sweep service
(``docs/serve.md``): a daemon owning one warm persistent pool and the
result cache, with ``sweep --backend remote`` campaigns dispatched to
it over a local socket — batch leases with progress heartbeats, client
reconnect with resume tokens, and a journaled request log that lets a
``kill -9``'d daemon restart consistently and its clients complete via
``--resume``.

Exit codes: 0 on success, 1 when a sweep point failed (aborting the
run, recorded under ``--keep-going``, or skipped as quarantined), 2
for unknown experiment/sweep names or bad arguments, 130/143 when an
in-flight ``sweep`` was interrupted by SIGINT/SIGTERM (workers are
torn down, the cache stays consistent, ``--resume`` finishes the run).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import ALL_EXPERIMENTS, campaign_for


def _print_experiment_list() -> None:
    print("Available experiments:")
    for name, module in ALL_EXPERIMENTS.items():
        headline = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<10s} {headline}")
    print("  all        run every experiment in sequence")
    print(
        "\nSubcommands:\n"
        "  sweep NAME [--jobs N] [--backend auto|serial|process|persistent|remote]\n"
        "             [--socket P] [--resume] [--keep-going] [--no-cache]\n"
        "             [--cache-dir D] [--scale K] [--engine fast|des|model]\n"
        "             [--prescreen K] [--scenario KIND[:SEVERITY]]\n"
        "             [--retries N] [--timeout S] [--max-failures M]\n"
        "             [--chaos SPEC] [--retry-quarantined]\n"
        "             run NAME's campaign through the parallel cached runner\n"
        "  cache [info|rebuild|compact|clear] [--cache-dir D]\n"
        "             inspect, re-index, compact or empty the result cache\n"
        "  serve [--socket P] [--jobs N] [--cache-dir D] [--lease S]\n"
        "        [--ping | --status | --stop [--no-drain]]\n"
        "             run (or query) the crash-safe sweep service daemon"
    )


def _cmd_sweep(argv: list[str]) -> int:
    """``python -m repro sweep NAME`` — the parallel/cached runner."""
    from repro.analysis.tables import format_table
    from repro.runner import ResultCache, run_campaign

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run an experiment campaign through the sweep runner.",
    )
    parser.add_argument(
        "name", help="experiment name (see 'python -m repro list') or 'all'"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cache-miss points (default 1)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "serial", "process", "persistent", "remote"),
        default="auto",
        help="execution backend: 'serial' runs inline, 'process' starts a "
             "fresh pool per sweep, 'persistent' keeps warm workers alive "
             "across every sweep of this invocation, 'remote' dispatches "
             "through a running 'repro serve' daemon's warm pool; 'auto' "
             "(default) picks serial for --jobs 1 and process otherwise.  "
             "An explicit choice is stamped into every point, so each "
             "backend keeps its own cache entries",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="with --backend remote: the daemon's socket (default "
             "$REPRO_SERVE_SOCKET or <cache dir>/serve.sock)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip points already listed in the sweep's cache manifest "
             "(one O(1) index read) and compute only the missing/failed "
             "rest — finishing a previously killed run without re-doing "
             "its completed points; requires the cache",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="record a failing point as an errored row and continue the "
             "sweep instead of aborting on the first failure",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point and write nothing to the cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro-sweeps)",
    )
    parser.add_argument(
        "--scale", type=int, default=None, metavar="K",
        help="divide matrix dimensions by K where supported (quick runs)",
    )
    parser.add_argument(
        "--engine", choices=("fast", "des", "model"), default="fast",
        help="simulation backend: the event-free fast timeline engine "
             "(default), the discrete-event kernel (reference oracle), or "
             "the analytic model estimator (orders of magnitude faster, "
             "validated error envelope — see docs/engines.md)",
    )
    parser.add_argument(
        "--prescreen", type=float, default=None, metavar="K",
        help="rank every sweep point with the analytic model engine first "
             "and fully simulate only the K best (an integer count, or a "
             "fraction in (0,1) of each sweep).  Sweeps the model cannot "
             "screen run unfiltered with a warning",
    )
    parser.add_argument(
        "--scenario", default=None, metavar="KIND[:SEVERITY]",
        help="narrow scenario-aware campaigns (e.g. 'sweep robustness') to "
             "one non-stationarity family: drift, dropout, congestion, "
             "brownout, randomwalk or multidrop, optionally pinning a "
             "severity in [0, 1] (see docs/scenarios.md); other campaigns "
             "ignore the knob",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-attempt each failed point up to N extra times with "
             "exponential, deterministically jittered backoff; points "
             "that fail every attempt are quarantined in the cache "
             "manifest so later --resume runs skip them",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-point wall-clock limit in seconds, enforced inside the "
             "worker by the process/persistent backends (the serial "
             "backend never interrupts a point); a timed-out point counts "
             "as a failure and is retried like any other",
    )
    parser.add_argument(
        "--max-failures", type=int, default=None, metavar="M",
        help="circuit breaker: abort the sweep with a structured failure "
             "report once M points have permanently failed (implies "
             "--keep-going semantics up to the threshold)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="wrap the backend in the deterministic fault injector; SPEC "
             "is comma-separated key=value over fail/hang/crash rates, "
             "hang_s, seed and sticky (e.g. 'fail=0.2,seed=7' or "
             "'fail=0.5,sticky=permanent').  Injected faults never touch "
             "cache keys: a transient profile plus --retries converges to "
             "results byte-identical to the clean run",
    )
    parser.add_argument(
        "--retry-quarantined", action="store_true",
        help="with --resume: re-attempt points previously quarantined as "
             "known-permanent failures instead of skipping them (a "
             "success clears the quarantine record)",
    )
    parser.add_argument(
        "--batch", default=True, action=argparse.BooleanOptionalAction,
        help="dispatch whole point-groups through each sweep's batchable "
             "function where one is declared (vectorized engine with "
             "per-point scalar fallback; results stay byte-identical); "
             "--no-batch restores pure per-point dispatch",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress lines"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; try 'python -m repro list'")
        return 2
    if args.scenario is not None:
        from repro.scenarios import parse_scenario_arg

        try:
            parse_scenario_arg(args.scenario)
        except ValueError as exc:
            print(f"bad --scenario: {exc}")
            return 2

    if args.resume and args.no_cache:
        print("bad arguments: --resume needs the cache (drop --no-cache)")
        return 2
    if args.retry_quarantined and not args.resume:
        print("bad arguments: --retry-quarantined only applies with --resume")
        return 2

    from repro.runner import ChaosSpec, RetryPolicy

    chaos_spec = None
    if args.chaos is not None:
        try:
            chaos_spec = ChaosSpec.parse(args.chaos)
        except ValueError as exc:
            print(f"bad --chaos: {exc}")
            return 2
    try:
        retry_policy = RetryPolicy(
            retries=args.retries,
            timeout=args.timeout,
            max_failures=args.max_failures,
        )
    except ValueError as exc:
        print(f"bad arguments: {exc}")
        return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = None
    if not args.quiet:
        counts = {"error": 0, "quarantined": 0}
        markers = {
            "ok": "", "error": "  FAILED", "retry": "  RETRYING",
            "quarantined": "  QUARANTINED",
        }

        def progress(ev):  # noqa: ANN001 — repro.runner.Progress
            if ev.status in counts:
                counts[ev.status] += 1
            if ev.cached:
                source = "cache"
            elif ev.status == "quarantined":
                source = "skipped"
            else:
                source = f"{ev.seconds:6.2f}s"
            marker = markers.get(ev.status, f"  {ev.status.upper()}")
            tail = ""
            if counts["error"] or counts["quarantined"]:
                tail = (
                    f"  [{counts['error']} failed, "
                    f"{counts['quarantined']} quarantined]"
                )
            print(
                f"[{ev.sweep} {ev.index + 1}/{ev.total}] {source}{marker}{tail}",
                file=sys.stderr,
            )

    # Build every campaign before running any: a bad knob combination
    # (e.g. --scenario stationary on robustness) must fail fast with
    # exit 2, not crash mid-run after earlier campaigns computed.
    # An explicit --backend is stamped into the points (own cache
    # namespace); 'auto' leaves points — and cache keys — untouched.
    stamped_backend = None if args.backend == "auto" else args.backend
    try:
        campaigns = [
            campaign_for(
                name, scale=args.scale, engine=args.engine,
                scenario=args.scenario, backend=stamped_backend,
            )
            for name in names
        ]
    except ValueError as exc:
        print(f"bad arguments: {exc}")
        return 2

    if args.prescreen is not None:
        from dataclasses import replace

        from repro.runner import PrescreenUnsupported, prescreen_sweep

        screened = []
        for campaign in campaigns:
            sweeps = []
            for swp in campaign.sweeps:
                try:
                    result = prescreen_sweep(
                        swp, keep=args.prescreen, batch=args.batch
                    )
                except PrescreenUnsupported as exc:
                    print(
                        f"[{swp.name}] prescreen skipped: {exc}",
                        file=sys.stderr,
                    )
                    sweeps.append(swp)
                except ValueError as exc:  # a bad --prescreen K
                    print(f"bad arguments: --prescreen: {exc}")
                    return 2
                else:
                    print(
                        f"[{swp.name}] prescreen kept {result.kept} of "
                        f"{len(result.scored)} points",
                        file=sys.stderr,
                    )
                    sweeps.append(result.sweep)
            screened.append(replace(campaign, sweeps=tuple(sweeps)))
        campaigns = screened

    import os

    from repro.runner import ChaosBackend, CircuitOpenError, SweepPointError, resolve_backend
    from repro.runner.sweep import _error_summary

    # Point functions may consult the store themselves via cached_call
    # (e.g. the robustness baselines), and worker processes only see
    # the environment — so --cache-dir/--no-cache are exported for the
    # duration of the invocation (and restored afterwards), keeping
    # every cache touch under the flags the user gave.
    saved_env = {
        k: os.environ.get(k) for k in ("REPRO_CACHE_DIR", "REPRO_CACHE_DISABLE")
    }
    if cache is not None:
        os.environ["REPRO_CACHE_DIR"] = str(cache.root)
        # An inherited kill switch must not silently defeat the store
        # this invocation explicitly asked for.
        os.environ.pop("REPRO_CACHE_DISABLE", None)
    else:
        os.environ["REPRO_CACHE_DISABLE"] = "1"

    # One backend instance for the whole invocation: `--backend
    # persistent` keeps its warm workers across every sweep and
    # campaign of `sweep all`.  --chaos wraps it without touching the
    # points (cache keys stay those of the clean run — the whole point
    # of the byte-identity acceptance check).
    if stamped_backend == "remote":
        from repro.runner import RemoteBackend

        exec_backend, owned = RemoteBackend(
            jobs=args.jobs, socket_path=args.socket
        ), True
    else:
        if args.socket is not None:
            print("bad arguments: --socket only applies with --backend remote")
            return 2
        exec_backend, owned = resolve_backend(stamped_backend, args.jobs)
    if chaos_spec is not None and chaos_spec.active:
        exec_backend = ChaosBackend(inner=exec_backend, spec=chaos_spec)
    # --max-failures tolerates failures up to its threshold, which only
    # makes sense under keep semantics; an explicit breaker therefore
    # implies --keep-going.
    on_error = "keep" if (args.keep_going or args.max_failures) else "raise"
    failed = 0
    quarantined = 0
    failing_points: list = []  # (status, sweep, params, summary) per bad point

    import signal as signal_module

    class _Terminated(BaseException):
        """SIGTERM arrived: unwind like KeyboardInterrupt does for SIGINT."""

    def _on_sigterm(signum, frame):  # noqa: ARG001
        raise _Terminated()

    try:
        prev_sigterm = signal_module.signal(
            signal_module.SIGTERM, _on_sigterm
        )
    except ValueError:  # not the main thread (embedded callers)
        prev_sigterm = None
    try:
        for name, campaign in zip(names, campaigns):
            result = run_campaign(
                campaign,
                jobs=args.jobs,
                cache=cache,
                progress=progress,
                backend=exec_backend,
                resume=args.resume,
                on_error=on_error,
                retry=retry_policy,
                retry_quarantined=args.retry_quarantined,
                batch=args.batch,
            )
            failed += result.errors
            quarantined += result.quarantined
            for sweep_result in result.sweeps:
                for outcome in sweep_result.outcomes:
                    if outcome.status != "ok":
                        failing_points.append(
                            (outcome.status, sweep_result.name,
                             outcome.params, _error_summary(outcome.error))
                        )
                print(format_table(sweep_result.rows, title=sweep_result.title))
                print()
            summary = (
                f"{name}: {result.hits} cached, {result.misses} computed"
            )
            if result.batch_groups:
                summary += f" [{result.batch_groups} groups]"
            if result.errors:
                summary += f" ({result.errors} failed)"
            if result.quarantined:
                summary += f" ({result.quarantined} quarantined, skipped)"
            print(
                summary + f" in {result.elapsed:.2f}s"
                + ("" if cache else " (cache disabled)")
            )
    except CircuitOpenError as exc:
        print(f"sweep aborted: {exc.report.render()}", file=sys.stderr)
        return 1
    except SweepPointError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, _Terminated) as exc:
        # Tear the workers down *now* — terminate, not close: close
        # would first drain everything already queued.  Cache commits
        # hold SIGINT/SIGTERM, so this lands between commits: every
        # value committed is in the log, and --resume completes the
        # campaign from exactly the points that never resolved.
        print(
            "sweep interrupted: terminating workers; rerun with --resume "
            "to finish",
            file=sys.stderr,
        )
        terminate = getattr(exec_backend, "terminate", None)
        (terminate or exec_backend.close)()
        return 130 if isinstance(exc, KeyboardInterrupt) else 143
    finally:
        if prev_sigterm is not None:
            signal_module.signal(signal_module.SIGTERM, prev_sigterm)
        if owned:
            exec_backend.close()
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    if failing_points:
        print(
            f"{failed + quarantined} point(s) did not produce results:",
            file=sys.stderr,
        )
        for status, sweep_name, params, reason in failing_points:
            print(
                f"  [{sweep_name}] {dict(params)!r} ({status}): {reason}",
                file=sys.stderr,
            )
    return 1 if (failed or quarantined) else 0


def _cmd_cache(argv: list[str]) -> int:
    """``python -m repro cache [info|clear]`` — cache maintenance."""
    from repro.runner import ResultCache

    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect or empty the sweep result cache.",
    )
    parser.add_argument(
        "action", nargs="?", default="info",
        choices=("info", "clear", "rebuild", "compact"),
    )
    parser.add_argument("--cache-dir", default=None, metavar="DIR")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    if args.action == "rebuild":
        total = 0
        if cache.root.is_dir():
            for child in sorted(cache.root.iterdir()):
                if child.is_dir():
                    total += len(cache.rebuild_manifest(child.name))
        print(f"rebuilt manifests for {total} entries in {cache.root}")
        return 0
    if args.action == "compact":
        dropped = 0
        if cache.root.is_dir():
            for child in sorted(cache.root.iterdir()):
                if child.is_dir():
                    dropped += cache.compact(child.name)
        print(f"compacted manifests: {dropped} dead record(s) dropped")
        from repro.service.journal import ServiceJournal

        journal = ServiceJournal(cache.root)
        if journal.path.is_file():
            removed = journal.compact()
            print(f"compacted service journal: {removed} record(s) dropped")
        return 0
    stats = cache.stats()
    print(f"cache dir : {cache.root}")
    print(f"entries   : {stats.entries}")
    print(f"size      : {stats.bytes / 1024:.1f} KiB")
    print(f"sweeps    : {', '.join(stats.sweeps) if stats.sweeps else '(none)'}")
    if stats.batch_entries:
        print(
            f"batched   : {stats.batch_entries} entr"
            f"{'y' if stats.batch_entries == 1 else 'ies'} "
            "resolved via group dispatch (provenance only; keys are "
            "identical to scalar runs)"
        )
        for name, count in stats.batch_per_sweep:
            print(f"  {name}: {count} point(s)")
    if stats.quarantined:
        print(f"quarantined: {stats.quarantined} known-permanent failure(s)")
        for name, _, quarantined in stats.per_sweep:
            if quarantined:
                print(f"  {name}: {quarantined} point(s) (see --retry-quarantined)")
    return 0


def _cmd_serve(argv: list[str]) -> int:
    """``python -m repro serve`` — the distributed sweep daemon."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run (or query) the crash-safe sweep service daemon; "
                    "see docs/serve.md.",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket to listen on (default $REPRO_SERVE_SOCKET or "
             "<cache dir>/serve.sock)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="warm worker processes in the daemon's pool (default 2)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache the daemon owns (default $REPRO_CACHE_DIR or "
             "~/.cache/repro-sweeps); the request journal lives beside it",
    )
    parser.add_argument(
        "--lease", type=float, default=120.0, metavar="S",
        help="per-batch lease: a dispatched batch must resolve a point "
             "every S seconds or its workers are killed and the batch "
             "requeued (default 120)",
    )
    parser.add_argument(
        "--linger", type=float, default=300.0, metavar="S",
        help="how long a finished session stays attachable for late "
             "reconnects before it is reaped (default 300)",
    )
    parser.add_argument(
        "--batch-points", type=int, default=None, metavar="N",
        help="points per leased batch (default: 16x the worker count)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress daemon log lines"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--ping", action="store_true",
        help="check whether a daemon answers on the socket",
    )
    mode.add_argument(
        "--status", action="store_true",
        help="print a running daemon's sessions/journal/lease state",
    )
    mode.add_argument(
        "--stop", action="store_true",
        help="ask a running daemon to drain and exit",
    )
    parser.add_argument(
        "--no-drain", action="store_true",
        help="with --stop: tear down immediately instead of finishing "
             "the in-flight batch",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    from pathlib import Path

    socket_path = args.socket
    if socket_path is None and args.cache_dir is not None:
        # An explicit cache dir moves the default rendezvous with it.
        socket_path = str(Path(args.cache_dir) / "serve.sock")

    if args.ping or args.status or args.stop:
        import json

        from repro.service.client import DaemonUnreachable, ServeClient

        client = ServeClient(socket_path, connect_retries=1)
        try:
            if args.ping:
                reply = client.ping()
            elif args.status:
                reply = client.status()
            else:
                reply = client.shutdown(drain=not args.no_drain)
        except DaemonUnreachable as exc:
            print(f"no daemon: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0

    from repro.service.daemon import ServeConfig, ServeDaemon

    daemon = ServeDaemon(ServeConfig(
        socket_path=socket_path,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        lease_s=args.lease,
        linger_s=args.linger,
        batch_points=args.batch_points,
        quiet=args.quiet,
    ))
    try:
        daemon.start()
    except RuntimeError as exc:
        print(f"cannot serve: {exc}", file=sys.stderr)
        return 1
    daemon.serve_forever()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Dispatch to a subcommand or an experiment's ``main()``."""
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0] in ("-h", "--help", "list"):
        _print_experiment_list()
        return 0
    name = args[0]
    if name == "sweep":
        return _cmd_sweep(args[1:])
    if name == "cache":
        return _cmd_cache(args[1:])
    if name == "serve":
        return _cmd_serve(args[1:])
    if name == "all":
        for key, module in ALL_EXPERIMENTS.items():
            print(f"\n{'=' * 72}\n== {key}\n{'=' * 72}")
            module.main()
        return 0
    module = ALL_EXPERIMENTS.get(name)
    if module is None:
        print(f"unknown experiment {name!r}; try 'python -m repro list'")
        return 2
    module.main()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
