"""The runner's dispatch order, pinned event by event.

One mixed sweep exercises every way a point can resolve — a cache hit,
a batch-resolved group, a poisoned group that falls back to per-point
dispatch, a point that succeeds on its retry and one that fails for
good — and the test asserts the exact progress stream and each
outcome's provenance.  Any reordering of the batch round, the first
per-point round and the retry rounds shows up here.
"""

from repro.runner import ResultCache, RetryPolicy, Sweep, run_sweep

#: Scalar attempts per point value, so the flaky point fails only once.
_ATTEMPTS: dict = {}


def _value(params):
    return {"x": params["x"], "square": params["x"] ** 2}


def _point(params):
    x = params["x"]
    _ATTEMPTS[x] = _ATTEMPTS.get(x, 0) + 1
    if x == 6 and _ATTEMPTS[x] == 1:
        raise RuntimeError("transient failure")
    if x == 7:
        raise RuntimeError("permanent failure")
    return _value(params)


def _batch(points):
    """Batch-resolves any group without the poisoned points 6 and 7."""
    if any(p["x"] in (6, 7) for p in points):
        raise RuntimeError("poisoned group")
    return [_value(p) for p in points]


def _sweep(xs):
    return Sweep(
        name="dispatch", run_fn=_point,
        points=tuple({"x": x} for x in xs), batch_fn=_batch,
    )


def test_progress_sequence_of_a_mixed_sweep(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(_sweep([0]), cache=cache, code="pinned", backend="serial")
    _ATTEMPTS.clear()

    events = []
    result = run_sweep(
        _sweep(range(9)), jobs=2, cache=cache, code="pinned",
        backend="serial", on_error="keep",
        retry=RetryPolicy(retries=1, backoff=0),
        progress=lambda ev: events.append((ev.index, ev.status, ev.cached)),
    )

    # Point 0 is cached; points 1-4 form one group and 5-8 the
    # poisoned one, whose points go through scalar dispatch.
    assert events == [
        (0, "ok", True),
        (1, "ok", False),
        (2, "ok", False),
        (3, "ok", False),
        (4, "ok", False),
        (5, "ok", False),
        (6, "retry", False),
        (7, "retry", False),
        (8, "ok", False),
        (6, "ok", False),
        (7, "error", False),
    ]
    assert [o.batch for o in result.outcomes] == (
        [False] + [True] * 4 + [False] * 4
    )
    assert [o.status for o in result.outcomes] == ["ok"] * 7 + ["error", "ok"]
    assert result.batch_groups == 1
    assert _ATTEMPTS == {5: 1, 6: 2, 7: 2, 8: 1}
    assert [o.value for o in result.outcomes if o.status == "ok"] == [
        _value({"x": x}) for x in (0, 1, 2, 3, 4, 5, 6, 8)
    ]
