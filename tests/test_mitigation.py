"""Closed-loop mitigation simulator: policies, pool accounting, control
arms and determinism."""

import numpy as np
import pytest

from repro.sim.cluster import MachinePool
from repro.sim.mitigation import (
    ClosedLoopSimulator,
    MitigationConfig,
    control_reports,
    oracle_result,
    random_flagger_result,
)
from repro.sim.replay import ReplayResult, ReplaySimulator
from repro.core.nurd import NurdPredictor
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.google import GoogleTraceGenerator


def make_result(
    latencies,
    flag_times=None,
    start_times=None,
    checkpoints=(2.0, 4.0, 6.0, 8.0),
    tau_stra=None,
):
    """Hand-built ReplayResult for policy unit tests."""
    latencies = np.asarray(latencies, dtype=float)
    n = latencies.shape[0]
    if tau_stra is None:
        tau_stra = float(np.percentile(latencies, 90.0))
    if flag_times is None:
        flag_times = np.full(n, np.inf)
    flag_times = np.asarray(flag_times, dtype=float)
    return ReplayResult(
        job_id="job-test",
        tau_stra=tau_stra,
        y_true=latencies >= tau_stra,
        y_flag=np.isfinite(flag_times),
        flag_times=flag_times,
        checkpoints=np.asarray(checkpoints, dtype=float),
        latencies=latencies,
        start_times=start_times,
    )


class TestMachinePoolErgonomics:
    def test_negative_spares_rejected(self):
        with pytest.raises(ValueError, match="initial_spares"):
            MachinePool(initial_spares=-1)

    def test_occupancy_counters(self):
        pool = MachinePool(initial_spares=2)
        assert pool.in_use == 0 and pool.capacity == 2
        assert pool.utilization == 0.0
        pool.acquire(1.0)
        assert pool.in_use == 1 and pool.peak_in_use == 1
        assert pool.utilization == pytest.approx(0.5)
        pool.acquire(1.0)
        assert pool.in_use == 2 and pool.peak_in_use == 2
        assert pool.utilization == pytest.approx(1.0)
        assert pool.acquire(1.0) is None
        pool.release(5.0)
        assert pool.in_use == 1
        assert pool.peak_in_use == 2  # high-water mark sticks
        assert pool.total_acquired == 2 and pool.total_released == 1

    def test_release_beyond_outstanding_grows_capacity(self):
        pool = MachinePool(initial_spares=0)
        assert pool.capacity == 0
        pool.release(3.0)  # a freed original machine joins the spares
        assert pool.capacity == 1 and pool.in_use == 0
        assert pool.acquire(0.0) == 3.0

    def test_simultaneous_release_and_acquire_timestamp(self):
        # A machine released at exactly t is usable by an acquire at t.
        pool = MachinePool(initial_spares=1)
        start = pool.acquire(0.0)
        assert start == 0.0
        pool.release(7.5)
        assert pool.acquire(7.5) == 7.5
        # And an acquire *earlier* than availability waits for the machine.
        pool.release(9.0)
        assert pool.acquire(7.5) == 9.0

    def test_earliest_machine_served_first(self):
        pool = MachinePool(initial_spares=0)
        pool.release(5.0)
        pool.release(2.0)
        pool.release(8.0)
        assert pool.peek() == 2.0
        assert pool.acquire(0.0) == 2.0
        assert pool.acquire(0.0) == 5.0


class TestMitigationConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="policy"):
            MitigationConfig(policy="nope")
        with pytest.raises(ValueError, match="spares"):
            MitigationConfig(spares=-1)
        with pytest.raises(ValueError, match="action_cost"):
            MitigationConfig(action_cost=-0.1)
        with pytest.raises(ValueError, match="prediction_lag"):
            MitigationConfig(prediction_lag=-0.1)
        with pytest.raises(ValueError, match="boost_factor"):
            MitigationConfig(boost_factor=0.0)
        with pytest.raises(ValueError, match="boost_factor"):
            MitigationConfig(boost_factor=1.5)
        for seed in (1.5, None, np.random.default_rng(0)):
            with pytest.raises(ValueError, match="random_state"):
                MitigationConfig(random_state=seed)
        assert MitigationConfig(random_state=np.int64(3)).random_state == 3


class TestSpeculativePolicy:
    def test_keeps_earlier_finisher(self):
        # Task 3 (latency 20) flagged at t=2; every relaunch draw is <= 20,
        # so the copy can only help.
        res = make_result([1.0, 2.0, 3.0, 20.0], [np.inf, np.inf, np.inf, 2.0])
        sim = ClosedLoopSimulator(MitigationConfig(policy="speculative"))
        out = sim.run(res)
        assert out.n_actions == 1
        assert out.mitigated_completions[3] <= 20.0
        assert out.mitigated_completions[3] >= 2.0
        # Unflagged tasks are untouched.
        np.testing.assert_array_equal(
            out.mitigated_completions[:3], out.baseline_completions[:3]
        )

    def test_false_positive_never_hurts_its_task(self):
        res = make_result([5.0, 5.0, 5.0, 50.0], [1.0, 1.0, 1.0, 1.0])
        sim = ClosedLoopSimulator(MitigationConfig(policy="speculative"))
        out = sim.run(res)
        assert np.all(out.mitigated_completions <= out.baseline_completions)
        assert out.n_hurt == 0

    def test_no_spares_denies_all(self):
        res = make_result([1.0, 2.0, 3.0, 20.0], [np.inf, np.inf, np.inf, 2.0])
        sim = ClosedLoopSimulator(MitigationConfig(policy="speculative", spares=0))
        out = sim.run(res)
        assert out.n_denied == 1 and out.n_actions == 0
        np.testing.assert_array_equal(
            out.mitigated_completions, out.baseline_completions
        )

    def test_prediction_lag_past_completion_is_late(self):
        res = make_result([1.0, 2.0, 3.0, 20.0], [np.inf, np.inf, np.inf, 2.0])
        sim = ClosedLoopSimulator(
            MitigationConfig(policy="speculative", prediction_lag=30.0)
        )
        out = sim.run(res)
        assert out.n_late == 1 and out.n_actions == 0

    def test_spare_contention_serializes_on_pool(self):
        # One spare, two flags at t=1: the second action cannot start before
        # the first speculative copy resolves.
        res = make_result([30.0, 30.0, 1.0, 1.0], [1.0, 1.0, np.inf, np.inf])
        sim = ClosedLoopSimulator(MitigationConfig(policy="speculative", spares=1))
        out = sim.run(res)
        assert out.pool_peak_in_use == 1
        assert out.pool_total_acquired == 2
        first, second = out.mitigated_completions[[0, 1]]
        # Second copy started only when the first resolved.
        relaunch = sim.relaunch_latencies(res, 0)
        assert second == pytest.approx(min(30.0, first + relaunch[1]))


class TestKillRestartPolicy:
    def test_false_positive_can_hurt(self):
        # Short task killed at t=0.5 and restarted with a draw from a
        # distribution dominated by latency 40 -> almost surely hurts.
        res = make_result([1.0, 40.0, 40.0, 40.0], [0.5, np.inf, np.inf, np.inf])
        sim = ClosedLoopSimulator(MitigationConfig(policy="kill_restart"))
        out = sim.run(res)
        assert out.n_actions == 1
        relaunch = sim.relaunch_latencies(res, 0)
        assert out.mitigated_completions[0] == pytest.approx(0.5 + relaunch[0])
        assert out.n_hurt == (1 if 0.5 + relaunch[0] > 1.0 else 0)

    def test_restart_unconditional(self):
        # Unlike speculative, the original completion is NOT kept.
        res = make_result([10.0, 10.0, 10.0, 10.0], [2.0, np.inf, np.inf, np.inf])
        sim = ClosedLoopSimulator(MitigationConfig(policy="kill_restart"))
        out = sim.run(res)
        relaunch = sim.relaunch_latencies(res, 0)
        assert out.mitigated_completions[0] == pytest.approx(2.0 + relaunch[0])


class TestBoostPolicy:
    def test_shrinks_remaining_latency(self):
        res = make_result([4.0, 4.0, 4.0, 20.0], [np.inf, np.inf, np.inf, 4.0])
        sim = ClosedLoopSimulator(MitigationConfig(policy="boost", boost_factor=0.5))
        out = sim.run(res)
        # Remaining 16s halves: completion 4 + 8 = 12.
        assert out.mitigated_completions[3] == pytest.approx(12.0)
        assert out.n_helped == 1 and out.n_hurt == 0

    def test_boost_never_hurts(self):
        res = make_result([5.0, 6.0, 7.0, 30.0], [1.0, 1.0, 1.0, 1.0])
        sim = ClosedLoopSimulator(MitigationConfig(policy="boost", boost_factor=0.25))
        out = sim.run(res)
        assert np.all(out.mitigated_completions <= out.baseline_completions)
        assert out.n_hurt == 0

    def test_action_cost_delays_effect(self):
        res = make_result([4.0, 4.0, 4.0, 20.0], [np.inf, np.inf, np.inf, 4.0])
        sim = ClosedLoopSimulator(
            MitigationConfig(policy="boost", boost_factor=0.5, action_cost=2.0)
        )
        out = sim.run(res)
        # Effective at t=6, remaining 14 halves: completion 6 + 7 = 13.
        assert out.mitigated_completions[3] == pytest.approx(13.0)


class TestControlArms:
    def test_oracle_flags_stragglers_at_first_running_checkpoint(self):
        res = make_result([1.0, 2.0, 3.0, 20.0], checkpoints=(2.0, 5.0, 10.0))
        oracle = oracle_result(res)
        np.testing.assert_array_equal(oracle.y_flag, res.y_true)
        # Task 3 runs from t=0, first checkpoint is 2.0.
        assert oracle.flag_times[3] == 2.0
        assert np.all(np.isinf(oracle.flag_times[:3]))

    def test_oracle_respects_start_times(self):
        res = make_result(
            [1.0, 2.0, 3.0, 20.0],
            start_times=[0.0, 0.0, 0.0, 6.0],
            checkpoints=(2.0, 5.0, 10.0),
        )
        oracle = oracle_result(res)
        # Task 3 starts at t=6: not observable before checkpoint 10.
        assert oracle.flag_times[3] == 10.0

    def test_random_flagger_deterministic_and_budgeted(self):
        rng = np.random.default_rng(3)
        res = make_result(rng.uniform(1.0, 30.0, size=200))
        a = random_flagger_result(res, random_state=7, job_index=1)
        b = random_flagger_result(res, random_state=7, job_index=1)
        np.testing.assert_array_equal(a.y_flag, b.y_flag)
        np.testing.assert_array_equal(a.flag_times, b.flag_times)
        c = random_flagger_result(res, random_state=8, job_index=1)
        assert not np.array_equal(a.y_flag, c.y_flag)
        # Flag budget tracks the straggler rate, not the task count.
        assert 0 < a.y_flag.sum() < 0.3 * 200
        # Flags land on checkpoints where the task is actually running.
        for i in np.nonzero(a.y_flag)[0]:
            assert a.flag_times[i] in res.checkpoints
            assert a.flag_times[i] < res.latencies[i]

    def test_rate_validation(self):
        res = make_result([1.0, 2.0, 3.0, 20.0])
        with pytest.raises(ValueError, match="rate"):
            random_flagger_result(res, rate=1.5)

    @pytest.mark.parametrize(
        "generator, alpha",
        [(GoogleTraceGenerator, 0.5), (AlibabaTraceGenerator, 0.35)],
        ids=["google", "alibaba"],
    )
    def test_control_reports_bracket_real_replays(self, generator, alpha):
        trace = generator(n_jobs=2, task_range=(60, 90), random_state=42).generate()
        sim = ReplaySimulator(n_checkpoints=10, random_state=0)
        replays = [
            sim.run(job, NurdPredictor(alpha=alpha, random_state=i))
            for i, job in enumerate(trace)
        ]
        cfg = MitigationConfig(policy="speculative", spares=16, random_state=0)

        def close_loop():
            reports = control_reports(replays, cfg)
            reports["NURD"] = ClosedLoopSimulator(cfg).run_many(replays)
            return {arm: report.as_dict() for arm, report in reports.items()}

        reports = close_loop()
        assert close_loop() == reports  # bit-identical rerun
        red = {arm: d["mean_jct_reduction_pct"] for arm, d in reports.items()}
        assert red["Random"] < red["NURD"] <= red["Oracle"] + 1e-9


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(11)
        latencies = rng.uniform(1.0, 30.0, size=120)
        flag_times = np.where(rng.random(120) < 0.2, 3.0, np.inf)
        res = make_result(latencies, flag_times)
        for policy in ("speculative", "kill_restart", "boost"):
            cfg = MitigationConfig(policy=policy, spares=4, random_state=5)
            a = ClosedLoopSimulator(cfg).run(res, job_index=3)
            b = ClosedLoopSimulator(cfg).run(res, job_index=3)
            np.testing.assert_array_equal(
                a.mitigated_completions, b.mitigated_completions
            )
            assert a.n_actions == b.n_actions
            assert a.n_denied == b.n_denied

    def test_relaunch_draws_independent_of_flags(self):
        # The same job flagged differently sees the same relaunch draws:
        # arm deltas measure decision quality, not resampling luck.
        latencies = np.linspace(1.0, 30.0, 50)
        a = make_result(latencies, np.where(latencies > 20, 2.0, np.inf))
        b = make_result(latencies, np.where(latencies > 10, 4.0, np.inf))
        sim = ClosedLoopSimulator(MitigationConfig(random_state=1))
        np.testing.assert_array_equal(
            sim.relaunch_latencies(a, 0), sim.relaunch_latencies(b, 0)
        )


class TestReport:
    def test_report_shape_and_tails(self):
        rng = np.random.default_rng(2)
        results = []
        for _ in range(3):
            latencies = rng.uniform(1.0, 30.0, size=150)
            flag_times = np.where(latencies > 25, 2.0, np.inf)
            results.append(make_result(latencies, flag_times))
        report = ClosedLoopSimulator(
            MitigationConfig(policy="boost", spares=64)
        ).run_many(results)
        d = report.as_dict()
        assert d["n_jobs"] == 3
        assert d["policy"] == "boost"
        assert d["p99_task_latency"]["reduction_pct"] >= 0.0
        assert d["p999_task_latency"]["baseline"] > 0
        assert d["n_actions"] <= d["n_flagged"]
        assert isinstance(d["pool_peak_in_use"], int)

    def test_empty_results_raise(self):
        with pytest.raises(ValueError, match="no replay results"):
            ClosedLoopSimulator().run_many([])
