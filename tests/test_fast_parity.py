"""Parity oracle: the fast timeline engine vs the discrete-event kernel.

The fast engine (:mod:`repro.engine.fast`) must reproduce the DES
*byte for byte*: identical comm/compute interval lists (same order,
same floats, same labels), identical memory peaks, identical numerics,
identical errors.  These tests sweep randomized platforms and shapes —
heterogeneous and homogeneous, one-port and two-port, including
integer-valued parameters that force massive event-time ties — across
every scheduler family.
"""

import random

import numpy as np
import pytest

from repro.blocks import ProblemShape, make_product_instance
from repro.engine import Engine, run_scheduler
from repro.engine.fast import FastEngineUnsupported, run_fast
from repro.platform import Platform
from repro.schedulers import (
    BMM,
    DDOML,
    HeteroIncremental,
    HoLM,
    MaxReuse,
    OBMM,
    ODDOML,
    OMMOML,
    ORROML,
)

ALL_SEVEN = (HoLM, ORROML, OMMOML, ODDOML, DDOML, BMM, OBMM)


def assert_traces_identical(des, fast, context=""):
    """Byte-for-byte equality of two traces (lists compare elementwise)."""
    assert des.comms == fast.comms, f"comm intervals differ: {context}"
    assert des.computes == fast.computes, f"compute intervals differ: {context}"
    assert des.memory_peak == fast.memory_peak, f"memory peaks differ: {context}"


def both(scheduler_cls, platform, shape, **kwargs):
    des = run_scheduler(scheduler_cls(), platform, shape, engine="des", **kwargs)
    fast = run_scheduler(scheduler_cls(), platform, shape, engine="fast", **kwargs)
    return des, fast


def random_platform(rng, p, integral=False):
    """A seeded platform; ``integral`` forces tie-heavy integer rates."""
    if integral:
        cs = [float(rng.randint(1, 3)) for _ in range(p)]
        ws = [float(rng.randint(1, 3)) for _ in range(p)]
    else:
        cs = [rng.uniform(0.1, 2.0) for _ in range(p)]
        ws = [rng.uniform(0.05, 2.0) for _ in range(p)]
    ms = [rng.choice([21, 35, 60, 120]) for _ in range(p)]
    if rng.random() < 0.4:
        return Platform.homogeneous(p, c=cs[0], w=ws[0], m=ms[0])
    return Platform.heterogeneous(cs, ws, ms)


class TestSevenSchedulerParity:
    @pytest.mark.parametrize("integral", [False, True])
    def test_randomized_platform_matrix(self, integral):
        """All seven Section 8 algorithms, randomized platforms/shapes,
        one-port and two-port, tie-free and tie-heavy rates."""
        rng = random.Random(1234 + integral)
        for _ in range(12):
            platform = random_platform(rng, rng.randint(1, 5), integral)
            shape = ProblemShape(
                r=rng.randint(1, 9), s=rng.randint(1, 9),
                t=rng.randint(1, 7), q=2,
            )
            two_port = rng.random() < 0.5
            for cls in ALL_SEVEN:
                des, fast = both(cls, platform, shape, two_port=two_port)
                assert_traces_identical(
                    des, fast, f"{cls.name} {platform.name} {shape} "
                    f"two_port={two_port}"
                )

    def test_identical_workers_maximal_ties(self):
        """Fully symmetric integer platform: every worker identical, so
        the demand queue order is decided purely by tie-breaking."""
        platform = Platform.homogeneous(4, c=1.0, w=1.0, m=21)
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        for cls in ALL_SEVEN:
            for two_port in (False, True):
                des, fast = both(cls, platform, shape, two_port=two_port)
                assert_traces_identical(des, fast, cls.name)


class TestOtherSchedulerParity:
    def test_max_reuse(self):
        platform = Platform.homogeneous(1, c=1.0, w=0.5, m=21)
        shape = ProblemShape(r=4, s=4, t=3, q=2)
        des, fast = both(MaxReuse, platform, shape)
        assert_traces_identical(des, fast, "MaxReuse")

    @pytest.mark.parametrize("variant", ["global", "local", "lookahead"])
    def test_hetero_incremental(self, variant):
        platform = Platform.heterogeneous(
            [0.3, 0.5, 0.4], [0.2, 0.3, 0.25], [21, 30, 25]
        )
        shape = ProblemShape(r=8, s=12, t=5, q=2)
        des = run_scheduler(
            HeteroIncremental(variant), platform, shape, engine="des"
        )
        fast = run_scheduler(
            HeteroIncremental(variant), platform, shape, engine="fast"
        )
        assert_traces_identical(des, fast, f"HeteroLM[{variant}]")


class TestNumericParity:
    def test_bitwise_identical_numeric_execution(self):
        """Same phase order ⇒ bit-identical float accumulation in C."""
        shape = ProblemShape(r=5, s=7, t=4, q=3)
        platform = Platform.homogeneous(3, c=0.3, w=0.2, m=21)
        for cls in (HoLM, ODDOML, BMM):
            a, b, c0 = make_product_instance(shape, seed=5)
            c_des = c0.copy()
            c_fast = c0.copy()
            run_scheduler(cls(), platform, shape, data=(a, b, c_des), engine="des")
            run_scheduler(cls(), platform, shape, data=(a, b, c_fast), engine="fast")
            assert np.array_equal(c_des.array, c_fast.array), cls.name


class TestEdgeCaseParity:
    def test_memory_gate_error_identical(self):
        """Exceeding a worker's buffer capacity raises the same error."""
        shape = ProblemShape(r=4, s=4, t=2, q=2)
        platform = Platform.homogeneous(1, c=1.0, w=1.0, m=10)

        class Oversized(HoLM):
            def launch(self, engine):
                from repro.engine import tile_chunks

                # mu=4 tile needs 16 C buffers > 10.
                engine.env.process(
                    engine.static_agent(0, tile_chunks(shape, 4), 2)
                )

            name = "Oversized"

        messages = {}
        for engine in ("des", "fast"):
            with pytest.raises(RuntimeError, match="memory exceeded") as exc:
                run_scheduler(Oversized(), platform, shape, engine=engine)
            messages[engine] = str(exc.value)
        assert messages["des"] == messages["fast"]

    def test_memory_check_disabled_parity(self):
        """check_memory=False executes over-capacity layouts identically."""
        shape = ProblemShape(r=4, s=4, t=2, q=2)
        platform = Platform.homogeneous(2, c=1.0, w=1.0, m=10)

        class Oversized(ODDOML):
            def chunk_param(self, m):
                return 4

        des = run_scheduler(
            Oversized(), platform, shape, engine="des", check_memory=False
        )
        fast = run_scheduler(
            Oversized(), platform, shape, engine="fast", check_memory=False
        )
        assert_traces_identical(des, fast, "check_memory=False")
        assert des.memory_peak[1] > 10  # the gate really was exceeded

    def test_update_count_mismatch_same_error(self):
        class HalfJob(HoLM):
            def build_chunks(self, shape, param):
                return super().build_chunks(shape, param)[:1]

            def assign(self, platform, shape, chunks):
                return {0: chunks}

        platform = Platform.homogeneous(1, c=0.5, w=0.25, m=21)
        shape = ProblemShape(r=4, s=6, t=3, q=3)
        for engine in ("des", "fast"):
            with pytest.raises(RuntimeError, match="block updates"):
                run_scheduler(HalfJob(), platform, shape, engine=engine)

    def test_bad_generation_gap_same_error(self):
        class BadGap(ORROML):
            generation_gap = 3

        platform = Platform.homogeneous(1, c=0.5, w=0.25, m=21)
        shape = ProblemShape(r=2, s=2, t=2, q=2)
        for engine in ("des", "fast"):
            with pytest.raises(ValueError, match="generation_gap"):
                run_scheduler(BadGap(), platform, shape, engine=engine)


class TestDispatchAndFallback:
    def test_unknown_engine_rejected(self):
        platform = Platform.homogeneous(1, c=0.5, w=0.25, m=21)
        with pytest.raises(ValueError, match="unknown engine"):
            run_scheduler(
                HoLM(), platform, ProblemShape(r=2, s=2, t=2, q=2),
                engine="warp",
            )

    def test_raw_process_scheduler_unsupported_by_fast(self):
        """run_fast refuses raw kernel generators outright."""
        platform = Platform.homogeneous(1, c=1.0, w=0.5, m=50)
        shape = ProblemShape(r=2, s=2, t=2, q=2)

        class RawProcess:
            name = "raw"

            def launch(self, engine):
                def agent():
                    yield engine.env.timeout(1.0)

                engine.env.process(agent())

        with pytest.raises(FastEngineUnsupported):
            run_fast(RawProcess(), platform, shape)

    def test_raw_process_scheduler_falls_back_to_des(self):
        """engine="fast" transparently re-launches raw-process
        schedulers (here: one using a kernel interrupt) on the DES."""
        from repro.sim.core import Interrupt

        platform = Platform.homogeneous(1, c=1.0, w=0.5, m=50)
        shape = ProblemShape(r=2, s=2, t=2, q=2)

        class Interrupting(HoLM):
            """Static HoLM run plus a watchdog process that starts and
            interrupts a dummy sleeper — exercising kernel features the
            fast engine cannot host."""

            name = "Interrupting"
            interrupted = False

            def launch(self, engine):
                if isinstance(engine, Engine):
                    outer = self

                    def sleeper():
                        try:
                            yield engine.env.timeout(1e9)
                        except Interrupt:
                            outer.interrupted = True

                    def watchdog(victim):
                        yield engine.env.timeout(1.0)
                        victim.interrupt("deadline")

                    victim = engine.env.process(sleeper())
                    engine.env.process(watchdog(victim))
                    super().launch(engine)
                else:
                    # On the fast engine the raw processes cannot run.
                    def dummy():
                        yield None

                    engine.env.process(dummy())

        scheduler = Interrupting()
        trace = run_scheduler(scheduler, platform, shape, engine="fast")
        reference = run_scheduler(HoLM(), platform, shape, engine="des")
        assert scheduler.interrupted
        assert trace.comms == reference.comms
        assert trace.computes == reference.computes


class TestExperimentRowParity:
    def test_fig10_rows_identical_at_smoke_scale(self):
        """End to end: the experiment rows are identical per engine."""
        from repro.experiments import fig10

        rows_fast = fig10.run(scale=8, engine="fast")
        rows_des = fig10.run(scale=8, engine="des")
        for rf, rd in zip(rows_fast, rows_des):
            rf = {k: v for k, v in rf.items()}
            rd = {k: v for k, v in rd.items()}
            assert rf == rd


def random_scenario(rng, platform, integral):
    """A seeded scenario mixing every non-stationarity feature.

    ``integral`` snaps event times, factors and durations to integers so
    scenario events collide with transfer/compute completion times and
    tie-breaking is exercised hard.
    """
    from repro.scenarios import Scenario

    sc = Scenario.stationary(platform)
    for _ in range(rng.randint(0, 4)):
        widx = rng.randint(1, platform.p)
        t = float(rng.randint(0, 30)) if integral else rng.uniform(0.0, 30.0)
        f = float(rng.choice([2, 3])) if integral else rng.uniform(0.4, 4.0)
        sc = sc.with_slowdown(widx, t, f)
    if rng.random() < 0.5:
        t = float(rng.randint(0, 20)) if integral else rng.uniform(0.0, 20.0)
        f = 2.0 if integral else rng.uniform(0.5, 2.5)
        sc = sc.with_bandwidth_step(t, f)
    if rng.random() < 0.3:
        sc = sc.with_dropout(
            rng.randint(1, platform.p), float(rng.randint(5, 25)), factor=40.0
        )
    times = set()
    for _ in range(rng.randint(0, 4)):
        t = float(rng.randint(0, 25)) if integral else rng.uniform(0.0, 25.0)
        if t in times:
            continue
        times.add(t)
        d = float(rng.randint(1, 4)) if integral else rng.uniform(0.2, 5.0)
        sc = sc.with_background(t, d)
    return sc


class TestScenarioParity:
    """Byte-for-byte engine parity extends to non-stationary platforms."""

    def test_identity_scenario_reproduces_stationary_trace(self):
        """All-1.0 factors and no background: the scenario path must be
        bit-identical to the plain stationary run on both engines."""
        from repro.scenarios import Scenario

        platform = Platform.heterogeneous(
            [0.4, 0.7, 0.5], [0.3, 0.2, 0.4], [21, 35, 30]
        )
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        identity = Scenario.stationary(platform)
        for cls in ALL_SEVEN:
            for engine in ("fast", "des"):
                plain = run_scheduler(cls(), platform, shape, engine=engine)
                wrapped = run_scheduler(
                    cls(), platform, shape, engine=engine, scenario=identity
                )
                assert plain.comms == wrapped.comms, (cls.name, engine)
                assert plain.computes == wrapped.computes, (cls.name, engine)

    @pytest.mark.parametrize("integral", [False, True])
    def test_randomized_scenario_matrix(self, integral):
        """All seven algorithms under randomized scenarios (time-varying
        rates, dropout, background traffic), one-port and two-port,
        tie-free and tie-heavy."""
        rng = random.Random(4321 + integral)
        for _ in range(8):
            platform = random_platform(rng, rng.randint(1, 5), integral)
            shape = ProblemShape(
                r=rng.randint(1, 8), s=rng.randint(1, 8),
                t=rng.randint(1, 6), q=2,
            )
            scenario = random_scenario(rng, platform, integral)
            two_port = rng.random() < 0.5
            for cls in ALL_SEVEN:
                des, fast = both(
                    cls, platform, shape, two_port=two_port, scenario=scenario
                )
                assert_traces_identical(
                    des, fast,
                    f"{cls.name} {platform.name} {shape} two_port={two_port} "
                    f"{scenario.name}",
                )

    def test_background_at_t0_and_overdue_chain(self):
        """A hold starting at t=0 plus holds scheduled inside earlier
        holds (overdue re-requests) keep both engines in lockstep."""
        from repro.scenarios import Scenario

        platform = Platform.homogeneous(3, c=1.0, w=1.0, m=21)
        shape = ProblemShape(r=5, s=5, t=3, q=2)
        scenario = (
            Scenario.stationary(platform)
            .with_background(0.0, 2.5)
            .with_background(1.0, 3.0)   # overdue behind the first hold
            .with_background(2.0, 1.0)   # overdue behind the second
        )
        for cls in ALL_SEVEN:
            for two_port in (False, True):
                des, fast = both(
                    cls, platform, shape, two_port=two_port, scenario=scenario
                )
                assert_traces_identical(des, fast, f"{cls.name} bg-chain")
        trace = run_scheduler(ALL_SEVEN[0](), platform, shape, scenario=scenario)
        bg = [iv for iv in trace.comms if iv.worker == 0]
        assert len(bg) == 3  # every hold ran (serially, FIFO with workers)
        assert all(iv.blocks == 0 for iv in bg)

    def test_scenario_as_platform_argument(self):
        """run_scheduler accepts the Scenario itself in place of the
        platform (the wrapper carries its platform)."""
        from repro.scenarios import Scenario

        platform = Platform.homogeneous(2, c=0.5, w=0.25, m=21)
        shape = ProblemShape(r=4, s=4, t=3, q=2)
        scenario = Scenario.stationary(platform).with_slowdown(1, 3.0, 2.0)
        via_wrapper = run_scheduler(HoLM(), scenario, shape)
        via_kwarg = run_scheduler(HoLM(), platform, shape, scenario=scenario)
        assert via_wrapper.comms == via_kwarg.comms
        assert via_wrapper.computes == via_kwarg.computes
        with pytest.raises(ValueError, match="not both"):
            run_scheduler(HoLM(), scenario, shape, scenario=scenario)

    def test_scenario_platform_mismatch_rejected(self):
        from repro.scenarios import Scenario

        platform = Platform.homogeneous(2, c=0.5, w=0.25, m=21)
        other = Platform.homogeneous(3, c=0.5, w=0.25, m=21)
        scenario = Scenario.stationary(other)
        for engine in ("fast", "des"):
            with pytest.raises(ValueError, match="wraps platform"):
                run_scheduler(
                    HoLM(), platform, ProblemShape(r=2, s=2, t=2, q=2),
                    engine=engine, scenario=scenario,
                )

    def test_max_reuse_and_hetero_scenario_parity(self):
        from repro.scenarios import Scenario

        p1 = Platform.homogeneous(1, c=1.0, w=0.5, m=21)
        sc = (
            Scenario.stationary(p1)
            .with_slowdown(1, 6.0, 2.5)
            .with_background(2.0, 1.5)
        )
        des, fast = both(MaxReuse, p1, ProblemShape(r=4, s=4, t=3, q=2), scenario=sc)
        assert_traces_identical(des, fast, "MaxReuse scenario")

        plat = Platform.heterogeneous(
            [0.3, 0.5, 0.4], [0.2, 0.3, 0.25], [21, 30, 25]
        )
        sc = (
            Scenario.stationary(plat)
            .with_slowdown(2, 10.0, 2.0)
            .with_background(5.0, 3.0)
        )
        shape = ProblemShape(r=8, s=12, t=5, q=2)
        for variant in ("global", "local", "lookahead"):
            des = run_scheduler(
                HeteroIncremental(variant), plat, shape, engine="des", scenario=sc
            )
            fast = run_scheduler(
                HeteroIncremental(variant), plat, shape, engine="fast", scenario=sc
            )
            assert_traces_identical(des, fast, f"HeteroLM[{variant}] scenario")

    def test_numeric_execution_identical_under_scenario(self):
        """Scenario timing shifts must not change the numeric result:
        same updates in the same per-worker order, bit-identical C."""
        from repro.scenarios import Scenario

        shape = ProblemShape(r=5, s=7, t=4, q=3)
        platform = Platform.homogeneous(3, c=0.3, w=0.2, m=21)
        scenario = (
            Scenario.stationary(platform)
            .with_slowdown(2, 4.0, 3.0)
            .with_background(1.0, 2.0)
        )
        for cls in (HoLM, ODDOML, BMM):
            a, b, c0 = make_product_instance(shape, seed=5)
            c_des = c0.copy()
            c_fast = c0.copy()
            run_scheduler(
                cls(), platform, shape, data=(a, b, c_des), engine="des",
                scenario=scenario,
            )
            run_scheduler(
                cls(), platform, shape, data=(a, b, c_fast), engine="fast",
                scenario=scenario,
            )
            assert np.array_equal(c_des.array, c_fast.array), cls.name


class TestFallbackDataIntegrity:
    """The fast→DES fallback must never double-apply numeric updates."""

    def test_fallback_with_data_yields_correct_C(self):
        """Regression: a raw-process scheduler with data= attached must
        produce a numerically correct C after the DES fallback — the
        abandoned fast attempt may not have touched it."""
        platform = Platform.homogeneous(2, c=1.0, w=0.5, m=50)
        shape = ProblemShape(r=3, s=3, t=2, q=2)

        class RawTail(HoLM):
            """Chunk agents first, then a raw process: the fast launch
            registers real work before discovering it must bail."""

            name = "RawTail"

            def launch(self, engine):
                super().launch(engine)

                def tick():
                    yield engine.env.timeout(1.0)

                engine.env.process(tick())

        a, b, c0 = make_product_instance(shape, seed=11)
        c_fallback = c0.copy()
        trace = run_scheduler(
            RawTail(), platform, shape, data=(a, b, c_fallback), engine="fast"
        )
        expected = a.array @ b.array + c0.array
        assert np.allclose(c_fallback.array, expected)
        assert trace.total_updates == shape.total_updates

    def test_fast_attempt_sees_none_data(self):
        """Structural guarantee: until launch succeeds, the fast engine
        holds no reference to the numeric data at all."""
        from repro.engine.fast import run_fast

        platform = Platform.homogeneous(1, c=1.0, w=0.5, m=50)
        shape = ProblemShape(r=2, s=2, t=2, q=2)
        seen = {}

        class Recorder(HoLM):
            name = "Recorder"

            def launch(self, engine):
                seen["data"] = engine.data
                super().launch(engine)

        a, b, c0 = make_product_instance(shape, seed=3)
        run_fast(Recorder(), platform, shape, data=(a, b, c0.copy()))
        assert seen["data"] is None


# ---------------------------------------------------------------------------
# Batched evaluation (repro.engine.batch): byte-identical to engine="fast"
# ---------------------------------------------------------------------------

from repro.engine import BatchItem, BatchTrace, run_batch  # noqa: E402
from repro.platform import perturbed, scaled_bandwidth  # noqa: E402


def _jittered_platforms(base, n, seed, sigma=0.01):
    rng = np.random.default_rng(seed)
    return [perturbed(base, rng, sigma) for _ in range(n)]


def assert_batch_matches_fast(items, results=None, context=""):
    """Every run_batch result equals the scalar fast run of its item."""
    if results is None:
        results = run_batch(items)
    assert len(results) == len(items)
    for i, (item, got) in enumerate(zip(items, results)):
        want = run_scheduler(
            item.scheduler(), item.platform, item.shape,
            two_port=item.two_port, check_memory=item.check_memory,
            engine="fast", scenario=item.scenario,
        )
        assert got.comms == want.comms, f"{context} item {i}: comms differ"
        assert got.computes == want.computes, f"{context} item {i}: computes"
        assert got.memory_peak == want.memory_peak, f"{context} item {i}"
    return results


class TestBatchedEngineParity:
    """run_batch groups by decision structure and must stay byte-exact."""

    def test_jittered_groups_all_schedulers(self):
        """Each scheduler over a group of nearby jittered platforms:
        most rows vectorize; all rows match the scalar fast engine."""
        base = Platform.heterogeneous(
            [0.4, 0.7, 0.5, 0.6], [0.3, 0.2, 0.4, 0.35], [21, 35, 30, 60]
        )
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        for k, cls in enumerate(ALL_SEVEN):
            items = [
                BatchItem(scheduler=cls, platform=plat, shape=shape)
                for plat in _jittered_platforms(base, 6, seed=100 + k)
            ]
            results = assert_batch_matches_fast(items, context=cls.name)
            assert any(isinstance(r, BatchTrace) for r in results), (
                f"{cls.name}: nothing vectorized — grouping is broken"
            )

    def test_bandwidth_scaled_group_fully_vectorizes(self):
        """Uniform nearby bandwidth scalings keep scheduler decisions
        identical, so the whole group must ride the vectorized path."""
        base = Platform.homogeneous(4, c=0.5, w=0.3, m=35)
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        items = [
            BatchItem(
                scheduler=HoLM,
                platform=scaled_bandwidth(base, 1.0 + 0.002 * i),
                shape=shape,
            )
            for i in range(8)
        ]
        results = assert_batch_matches_fast(items, context="bandwidth")
        assert all(isinstance(r, BatchTrace) for r in results)

    def test_mixed_structure_group_falls_back_per_item(self):
        """Items with different platforms/shapes/schedulers in one call:
        grouping separates them and every result still matches."""
        shape_a = ProblemShape(r=5, s=5, t=3, q=2)
        shape_b = ProblemShape(r=4, s=6, t=4, q=2)
        items = [
            BatchItem(HoLM, Platform.homogeneous(3, c=1.0, w=0.5, m=21), shape_a),
            BatchItem(BMM, Platform.homogeneous(2, c=0.7, w=0.4, m=35), shape_b),
            BatchItem(HoLM, Platform.homogeneous(3, c=1.0, w=0.5, m=21), shape_a),
            BatchItem(
                ODDOML, Platform.heterogeneous([0.3, 0.6], [0.2, 0.3], [21, 30]),
                shape_b,
            ),
        ]
        assert_batch_matches_fast(items, context="mixed")

    def test_single_item_group_returns_scalar_trace(self):
        """Below min_group the scalar fast engine runs; the result is a
        plain Trace, not a BatchTrace."""
        items = [
            BatchItem(
                HoLM, Platform.homogeneous(2, c=1.0, w=0.5, m=21),
                ProblemShape(r=4, s=4, t=3, q=2),
            )
        ]
        (result,) = assert_batch_matches_fast(items, context="single")
        assert not isinstance(result, BatchTrace)

    def test_two_port_groups(self):
        base = Platform.heterogeneous([0.4, 0.6, 0.5], [0.3, 0.2, 0.35], [21, 30, 35])
        shape = ProblemShape(r=5, s=6, t=4, q=2)
        items = [
            BatchItem(ORROML, plat, shape, two_port=True)
            for plat in _jittered_platforms(base, 5, seed=7)
        ]
        assert_batch_matches_fast(items, context="two_port")

    def test_memory_gate_error_propagates_per_item(self):
        """A memory-capped group aborts vectorization and re-runs scalar,
        so each item raises (or survives) exactly like engine="fast"."""
        shape = ProblemShape(r=4, s=4, t=2, q=2)

        class Oversized(HoLM):
            def launch(self, engine):
                from repro.engine import tile_chunks

                engine.env.process(
                    engine.static_agent(0, tile_chunks(shape, 4), 2)
                )

            name = "Oversized"

        items = [
            BatchItem(Oversized, Platform.homogeneous(1, c=c, w=1.0, m=10), shape)
            for c in (1.0, 1.001)
        ]
        with pytest.raises(RuntimeError, match="memory exceeded"):
            run_batch(items)

    def test_batch_trace_summarizes_like_trace(self):
        """BatchTrace feeds summarize_trace / metrics identically."""
        from repro.analysis.metrics import summarize_trace

        base = Platform.homogeneous(3, c=0.5, w=0.3, m=35)
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        items = [
            BatchItem(ODDOML, scaled_bandwidth(base, 1.0 + 0.002 * i), shape)
            for i in range(4)
        ]
        results = run_batch(items)
        assert all(isinstance(r, BatchTrace) for r in results)
        for item, got in zip(items, results):
            want = run_scheduler(item.scheduler(), item.platform, item.shape)
            assert summarize_trace(got) == summarize_trace(want)
            assert got.to_trace().comms == want.comms


from repro.engine import FastEngine, ModelEngine  # noqa: E402
from repro.engine.launch import _rate_matrices, _signature  # noqa: E402
from repro.platform import ut_cluster_platform  # noqa: E402
from repro.workloads import fig10_workloads  # noqa: E402


class TestPlanSignatureContract:
    """``plan_signatures``: equal (token, memory row) ⇒ equal launch.

    Both batched tiers launch only one representative per token class,
    so the promise must hold for the fast and the model engine alike.
    """

    MEMORY_MB = (128, 256, 512, 1024)

    def _grid(self, rng, p):
        """Seeded platforms: bandwidth scaled 0.5–2×, four memory sizes,
        rates jittered by ``perturbed(σ=0.05)``."""
        return [
            perturbed(
                scaled_bandwidth(
                    ut_cluster_platform(p=p, memory_mb=mem),
                    float(rng.uniform(0.5, 2.0)),
                ),
                rng, 0.05,
            )
            for mem in self.MEMORY_MB
            for _ in range(6)
        ]

    def test_equal_tokens_launch_equal_structure(self):
        rng = np.random.default_rng(1234)
        shapes = [wl.shape(80) for wl in fig10_workloads()]
        classes = shared = 0
        for cls in ALL_SEVEN:
            for p in (3, 8):
                platforms = self._grid(rng, p)
                items = [BatchItem(cls, plat, shapes[0]) for plat in platforms]
                c_m, w_m, m_m = _rate_matrices(items, p)
                for shape in shapes:
                    tokens = cls().plan_signatures(shape, c_m, w_m, m_m)
                    if tokens is None:
                        assert cls is OMMOML, f"{cls.name} stopped planning"
                        continue
                    keys = [
                        (tok, tuple(row)) for tok, row in zip(tokens, m_m.tolist())
                    ]
                    for engine_cls in (FastEngine, ModelEngine):
                        memo, content = {}, {}
                        seen = {}
                        for key, plat in zip(keys, platforms):
                            engine = engine_cls(plat, shape)
                            cls().launch(engine)
                            sig = _signature(engine, memo, content)
                            assert seen.setdefault(key, sig) == sig, (
                                f"{cls.name} on {engine_cls.__name__}: "
                                f"token {key[0]!r} launched two structures"
                            )
                    classes += len(set(keys))
                    shared += len(keys) - len(set(keys))
        # The grid must actually put several rows in one token class.
        assert classes > 100 and shared > 300, (classes, shared)


class TestLaunchCounts:
    """``run_batch`` launches a scheduler only where a result needs it:
    once per group representative, once per scalar run."""

    @staticmethod
    def _counted(base):
        launches = []

        class Counted(base):
            def launch(self, engine):
                launches.append(type(engine).__name__)
                super().launch(engine)

        return Counted, launches

    def test_single_item_launches_once(self):
        Counted, launches = self._counted(HoLM)
        item = BatchItem(
            Counted, Platform.homogeneous(2, c=1.0, w=0.5, m=21),
            ProblemShape(r=4, s=4, t=3, q=2),
        )
        run_batch([item])
        assert launches == ["FastEngine"]

    def test_sub_min_group_pregroups_launch_once_each(self):
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        base = Platform.homogeneous(3, c=0.5, w=0.3, m=35)
        CountedA, launches_a = self._counted(HoLM)
        CountedB, launches_b = self._counted(ODDOML)
        items = [
            BatchItem(CountedA, scaled_bandwidth(base, 1.0 + 0.002 * i), shape)
            for i in range(3)
        ] + [BatchItem(CountedB, base, shape)]
        results = run_batch(items, min_group=4)
        assert not any(isinstance(r, BatchTrace) for r in results)
        assert len(launches_a) == 3 and len(launches_b) == 1

    @pytest.mark.parametrize("base_cls,sigma", [(HoLM, 0.0), (DDOML, 0.05)])
    def test_token_group_launches_representative_only(self, base_cls, sigma):
        Counted, launches = self._counted(base_cls)
        base = Platform.homogeneous(4, c=0.5, w=0.3, m=35)
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        rng = np.random.default_rng(11)
        items = [
            BatchItem(
                Counted,
                perturbed(scaled_bandwidth(base, 1.0 + 0.002 * i), rng, sigma),
                shape,
            )
            for i in range(8)
        ]
        results = run_batch(items)
        fallbacks = sum(not isinstance(r, BatchTrace) for r in results)
        # σ=0.05 makes some DDOML rows diverge: they must cost one
        # scalar launch each, on top of the representative's.
        assert (fallbacks > 0) == (sigma > 0) and fallbacks < len(items)
        assert len(launches) == 1 + fallbacks
        assert_batch_matches_fast(items, results, context=base_cls.name)


from hypothesis import given, settings, strategies as st  # noqa: E402


class TestBatchedParityProperty:
    """Hypothesis: random point groups — batched == scalar fast.

    ``sigma=0`` exercises identical replicas (maximal grouping and
    maximal ties), small sigmas the vectorized same-order path, larger
    sigmas the divergence detector and scalar fallback.
    """

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**20),
        n_points=st.integers(2, 5),
        p=st.integers(1, 4),
        sigma=st.sampled_from([0.0, 0.005, 0.05]),
        scheduler_cls=st.sampled_from(ALL_SEVEN),
        r=st.integers(1, 6),
        s=st.integers(1, 6),
        t=st.integers(1, 5),
        two_port=st.booleans(),
    )
    def test_random_groups_match_scalar_fast(
        self, seed, n_points, p, sigma, scheduler_cls, r, s, t, two_port
    ):
        base = random_platform(random.Random(seed), p)
        shape = ProblemShape(r=r, s=s, t=t, q=2)
        items = [
            BatchItem(scheduler_cls, plat, shape, two_port=two_port)
            for plat in _jittered_platforms(base, n_points, seed, sigma)
        ]
        assert_batch_matches_fast(
            items, context=f"seed={seed} {scheduler_cls.name}"
        )
