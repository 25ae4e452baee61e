"""Batched model evaluation: bitwise equality with the scalar engine.

The batched model engine (:mod:`repro.engine.model_batch`) groups sweep
points by structural signature and replays the scalar estimator's
3-event recurrence as numpy rows.  Its contract is stronger than the
fast batch engine's byte-parity on traces: every
:class:`~repro.engine.model.ModelEstimate` field — makespan, port
clocks, per-worker busy times, counted quantities, memory peaks — must
be **float-bitwise identical** to scalar :func:`~repro.engine.run_model`
on every point, because downstream consumers (the validated error
envelope, prescreen scores, cache keys) tolerate zero drift.

Also covered here: the sweep-runner interchangeability property — a
cache warmed by the batched model path serves a scalar run entirely
from cache and vice versa (same keys, same bytes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import ProblemShape
from repro.engine import BatchItem, run_model, run_model_batch, run_scheduler
from repro.engine.model import ModelEngineUnsupported
from repro.platform import Platform, perturbed, scaled_bandwidth
from repro.platform.model import Worker
from repro.runner import ResultCache, Sweep, run_sweep
from repro.schedulers import SECTION8_SCHEDULERS, section8_scheduler
ALGOS = tuple(SECTION8_SCHEDULERS)


def _estimates_equal(got, want, context=""):
    """Assert two ModelEstimates are field-for-field bitwise equal."""
    assert got.makespan == want.makespan, f"{context}: makespan"
    assert got.comm_blocks == want.comm_blocks, f"{context}: comm_blocks"
    assert got.total_updates == want.total_updates, f"{context}: updates"
    assert got.port_busy == want.port_busy, f"{context}: port_busy"
    assert got.worker_busy == want.worker_busy, f"{context}: worker_busy"
    assert got.worker_updates == want.worker_updates, f"{context}: per-worker"
    assert got.peak_blocks == want.peak_blocks, f"{context}: peaks"
    assert got.two_port == want.two_port, f"{context}: two_port"


def _assert_batch_matches_scalar(items, min_group=2, counters=None):
    results = run_model_batch(items, min_group=min_group, counters=counters)
    assert len(results) == len(items)
    for i, (item, got) in enumerate(zip(items, results)):
        want = run_model(
            item.scheduler(), item.platform, item.shape,
            two_port=item.two_port, check_memory=item.check_memory,
        )
        _estimates_equal(got, want, context=f"item {i}")
    return results


#: Small stationary shape: enough chunks per worker to exercise the
#: full fill/bulk/C-return recurrence while keeping the scalar
#: reference runs cheap (the 10x speed claim lives in benchmarks/).
SHAPE = ProblemShape(r=14, s=36, t=40)


def _ladder(algo, n=48, p=8, two_port=False, shape=None):
    """A uniform bandwidth ladder — the vectorizable hot path."""
    base = Platform.homogeneous(p, c=1.0, w=0.5, m=24)
    shape = shape or SHAPE
    return [
        BatchItem(
            scheduler=(lambda a=algo: section8_scheduler(a)),
            platform=scaled_bandwidth(base, 1.0 + 0.0002 * i),
            shape=shape,
            two_port=two_port,
            engine="model",
        )
        for i in range(n)
    ]


class TestBitwiseEquality:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_uniform_ladder_all_schedulers(self, algo):
        counters: dict = {}
        _assert_batch_matches_scalar(_ladder(algo), counters=counters)
        assert counters["vectorized"] + counters["scalar"] == 48
        # The dispatch-order lock may drop divergent rows to the scalar
        # fallback, but a uniform ladder must vectorize *some* rows for
        # every rate-independent launch structure.
        if algo not in ("BMM", "DDOML"):
            assert counters["vectorized"] > 0, algo

    @pytest.mark.parametrize("algo", ("HoLM", "OBMM", "ODDOML"))
    def test_two_port_ladder(self, algo):
        _assert_batch_matches_scalar(_ladder(algo, n=16, two_port=True))

    def test_jittered_platforms(self):
        """Non-uniform batches: perturbed rates, mixed memory."""
        rng = np.random.default_rng(7)
        base = Platform.homogeneous(6, c=1.0, w=0.5, m=24)
        shape = SHAPE
        items = [
            BatchItem(
                scheduler=(lambda a=algo: section8_scheduler(a)),
                platform=perturbed(base, rng, 0.02),
                shape=shape,
                engine="model",
            )
            for algo in ("HoLM", "ODDOML", "OBMM")
            for _ in range(6)
        ]
        _assert_batch_matches_scalar(items)

    def test_mixed_shapes_and_memory(self):
        shapes = [ProblemShape(r=10, s=12, t=30), ProblemShape(r=8, s=8, t=20)]
        items = [
            BatchItem(
                scheduler=(lambda: section8_scheduler("ORROML")),
                platform=Platform.homogeneous(4, c=1.0, w=0.5, m=m),
                shape=shape,
                engine="model",
            )
            for shape in shapes
            for m in (21, 24, 35)
            for _ in range(2)
        ]
        _assert_batch_matches_scalar(items)

    def test_heterogeneous_platform_stays_scalar_but_exact(self):
        """Per-worker rate spreads break uniform grouping assumptions;
        correctness (not speed) is the contract there."""
        workers = tuple(
            Worker(index=i, c=1.0 + 0.3 * i, w=0.5 + 0.1 * i, m=24)
            for i in range(1, 5)
        )
        plat = Platform(workers=workers, name="hetero")
        shape = SHAPE
        items = [
            BatchItem(
                scheduler=(lambda: section8_scheduler("ODDOML")),
                platform=plat, shape=shape, engine="model",
            )
            for _ in range(4)
        ]
        _assert_batch_matches_scalar(items)

    def test_unsupported_scheduler_falls_back_per_item(self):
        """A group whose scheduler the model tier rejects must surface
        the same ModelEngineUnsupported the scalar path raises — no
        silent fallback tier appears just because dispatch was batched."""
        from repro.schedulers import HoLM

        class RawProcess(HoLM):
            name = "RawProcess"

            def launch(self, engine):
                def agent():
                    yield

                engine.env.process(agent(), name="raw")

        shape = ProblemShape(r=4, s=4, t=2, q=2)
        plat = Platform.homogeneous(2, c=1.0, w=1.0, m=200)
        items = [
            BatchItem(
                scheduler=RawProcess, platform=plat, shape=shape,
                engine="model",
            )
            for _ in range(3)
        ]
        with pytest.raises(ModelEngineUnsupported):
            run_model_batch(items)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        r=st.integers(min_value=6, max_value=14),
        s=st.integers(min_value=6, max_value=14),
        t=st.integers(min_value=10, max_value=40),
        p=st.integers(min_value=2, max_value=10),
        m=st.sampled_from([15, 21, 24, 35, 48]),
        c=st.floats(min_value=0.2, max_value=3.0,
                    allow_nan=False, allow_infinity=False),
        w=st.floats(min_value=0.1, max_value=2.0,
                    allow_nan=False, allow_infinity=False),
        algo=st.sampled_from(ALGOS),
        n=st.integers(min_value=2, max_value=8),
        step=st.floats(min_value=0.0, max_value=0.01,
                       allow_nan=False, allow_infinity=False),
    )
    def test_property_stationary_points_bitwise(
        self, r, s, t, p, m, c, w, algo, n, step
    ):
        """Property: any stationary homogeneous ladder is bitwise equal
        between the batched and scalar model engines — every field."""
        base = Platform.homogeneous(p, c=c, w=w, m=m)
        shape = ProblemShape(r=r, s=s, t=t)
        items = [
            BatchItem(
                scheduler=(lambda a=algo: section8_scheduler(a)),
                platform=scaled_bandwidth(base, 1.0 + step * i),
                shape=shape,
                engine="model",
            )
            for i in range(n)
        ]
        _assert_batch_matches_scalar(items)


# ---------------------------------------------------------------------------
# Sweep-runner interchangeability: batched-path keys == scalar-path keys
# ---------------------------------------------------------------------------


def _model_point(params):
    """Pure model-engine point function (importable, cacheable)."""
    plat = scaled_bandwidth(
        Platform.homogeneous(params["p"], c=1.0, w=0.5, m=24),
        params["factor"],
    )
    shape = ProblemShape(r=10, s=12, t=30)
    trace = run_scheduler(
        section8_scheduler(params["algorithm"]), plat, shape, engine="model"
    )
    return {"factor": params["factor"], "makespan": trace.makespan}


def _model_batch_fn(points):
    """Batched twin of :func:`_model_point` via the engine batch layer."""
    from repro.experiments.batching import evaluate_batch

    def item(params):
        return BatchItem(
            scheduler=(lambda: section8_scheduler(params["algorithm"])),
            platform=scaled_bandwidth(
                Platform.homogeneous(params["p"], c=1.0, w=0.5, m=24),
                params["factor"],
            ),
            shape=ProblemShape(r=10, s=12, t=30),
            engine=params.get("engine", "model"),
        )

    def row(params, trace):
        return {"factor": params["factor"], "makespan": trace.makespan}

    return evaluate_batch(points, item, row)


def _model_sweep(n=12):
    return Sweep(
        name="modelgrid",
        run_fn=_model_point,
        points=tuple(
            {"algorithm": "OBMM", "p": 8, "factor": 1.0 + 0.0002 * i,
             "engine": "model"}
            for i in range(n)
        ),
        batch_fn=_model_batch_fn,
    )


class TestCacheKeyInterchangeability:
    def test_batched_cold_scalar_warm(self, tmp_path):
        """A batch-resolved cache serves a scalar run entirely warm."""
        cache = ResultCache(tmp_path)
        cold = run_sweep(_model_sweep(), cache=cache, code="v", batch=True)
        assert cold.misses == len(cold.outcomes)
        assert all(o.batch for o in cold.outcomes)
        warm = run_sweep(
            _model_sweep(), cache=cache, code="v", batch=False, resume=True
        )
        assert warm.hits == len(warm.outcomes) and warm.misses == 0
        assert warm.rows == cold.rows

    def test_scalar_cold_batched_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep(_model_sweep(), cache=cache, code="v", batch=False)
        assert not any(o.batch for o in cold.outcomes)
        warm = run_sweep(
            _model_sweep(), cache=cache, code="v", batch=True, resume=True
        )
        assert warm.hits == len(warm.outcomes) and warm.misses == 0
        assert warm.rows == cold.rows

    def test_batched_and_scalar_keys_identical(self, tmp_path):
        a = run_sweep(
            _model_sweep(), cache=ResultCache(tmp_path / "a"),
            code="v", batch=True,
        )
        b = run_sweep(
            _model_sweep(), cache=ResultCache(tmp_path / "b"),
            code="v", batch=False,
        )
        assert [o.key for o in a.outcomes] == [o.key for o in b.outcomes]
        assert a.rows == b.rows

    def test_batch_groups_reported(self, tmp_path):
        from repro.runner.sweep import _batch_groups

        cache = ResultCache(tmp_path)
        sweep = _model_sweep()
        result = run_sweep(sweep, cache=cache, code="v", batch=True)
        # One group per contiguous slice of the cold points.
        groups = _batch_groups(list(range(len(sweep.points))), 1)
        assert result.batch_groups == len(groups) >= 1
        scalar = run_sweep(
            _model_sweep(), cache=ResultCache(tmp_path / "s"),
            code="v", batch=False,
        )
        assert scalar.batch_groups == 0
        warm = run_sweep(sweep, cache=cache, code="v", batch=True)
        assert warm.batch_groups == 0  # every point was a cache hit
