"""Cache at scale: 100k entries in one sweep log.

Each sweep's results live in one append-only log, so a million-point
campaign costs one file per sweep, not one per point.  This module
fills a sweep with 100k entries through the bulk ``put_many`` path and
asserts the acceptance surface:

* ``stats()`` (the ``cache info`` read path) builds the log's index in
  a bounded wall-clock budget, without decoding the stored results;
* a warm re-read answers from the index memo — no log re-read;
* resume semantics survive scale: discarding K entries and re-running
  recomputes exactly those K points, nothing else.

The wall-clock budget is deliberately loose (CI runners are noisy);
the exact recompute set is the real regression net.
"""

from __future__ import annotations

import time

from repro.runner import ResultCache, Sweep, point_key, run_sweep

#: Entry count for the scale smoke.  100k is the ISSUE's acceptance
#: number: big enough that a flat directory or an O(entries) info read
#: would visibly blow the budget, small enough for a CI smoke job.
N_ENTRIES = 100_000

#: Wall-clock budget for one cold ``stats()`` over the full store.
#: Locally this indexes the 100k-line log in well under a second; the
#: budget allows a contended CI runner an order of magnitude of slack.
INFO_BUDGET_S = 10.0


def _fill(cache: ResultCache, n: int = N_ENTRIES) -> list:
    """Bulk-load ``n`` synthetic entries; returns the keys."""
    keys = []
    batch = []
    for i in range(n):
        key = point_key("scale", {"i": i}, code="bench")
        keys.append(key)
        batch.append((key, {"i": i}, {"i": i, "v": i * 3}))
        if len(batch) == 4096:
            cache.put_many("scale", batch, batch=True)
            batch = []
    if batch:
        cache.put_many("scale", batch, batch=True)
    return keys


def test_cache_scale_100k(tmp_path, benchmark):
    cache = ResultCache(tmp_path)
    t0 = time.perf_counter()
    keys = _fill(cache)
    fill_s = time.perf_counter() - t0

    # Cold info read: one pass over the log, no result decoded.
    fresh = ResultCache(tmp_path)
    stats = benchmark.pedantic(
        fresh.stats, rounds=1, iterations=1, warmup_rounds=0
    )
    t0 = time.perf_counter()
    fresh.stats()
    warm_s = time.perf_counter() - t0
    assert stats.entries == N_ENTRIES
    cold_s = benchmark.stats.stats.min
    assert cold_s < INFO_BUDGET_S, (
        f"cold stats() took {cold_s:.2f}s over {N_ENTRIES} entries "
        f"(budget {INFO_BUDGET_S:g}s)"
    )
    # The memoized re-read must be dramatically cheaper than the fold.
    assert warm_s < max(cold_s, 1e-3), (
        f"warm stats() ({warm_s:.4f}s) not served from the index memo "
        f"(cold {cold_s:.4f}s)"
    )

    # Bulk read-back: one get_many resolves a full resume wave.
    sample = keys[:: max(1, N_ENTRIES // 500)]
    hits = fresh.get_many("scale", sample)
    assert len(hits) == len(sample)

    benchmark.extra_info["fill_s"] = fill_s
    benchmark.extra_info["entries_per_s"] = N_ENTRIES / fill_s
    benchmark.extra_info["log_bytes"] = cache.log_path("scale").stat().st_size
    benchmark.extra_info["warm_stats_s"] = warm_s
    print(
        f"\ncache scale: {N_ENTRIES:,} entries in {fill_s:.1f}s "
        f"({N_ENTRIES / fill_s:,.0f} entries/s); "
        f"cold stats {cold_s * 1e3:.0f} ms, "
        f"warm {warm_s * 1e6:.0f} us"
    )


def _cheap_point(params: dict) -> dict:
    return {"x": params["x"], "y": params["x"] * 2}


def test_resume_recomputes_exactly_deleted(tmp_path):
    """Resume at (reduced) scale: discard K entries from a completed
    sweep and a resumed run recomputes exactly those K points."""
    n, k = 2_000, 7
    sweep = Sweep(
        name="resume-scale",
        run_fn=_cheap_point,
        points=tuple({"x": x} for x in range(n)),
    )
    cache = ResultCache(tmp_path)
    cold = run_sweep(sweep, cache=cache, code="bench")
    assert cold.misses == n

    victims = [o.key for o in cold.outcomes[:: n // k]][:k]
    assert cache.discard(sweep.name, victims) == len(victims)

    resumed = run_sweep(
        sweep, cache=ResultCache(tmp_path), code="bench", resume=True
    )
    assert resumed.misses == len(victims)
    assert resumed.hits == n - len(victims)
    assert resumed.rows == cold.rows
