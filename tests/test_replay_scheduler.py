"""Tests for the replay simulator and its stream, and the paper's schedulers
(Algorithms 2–3), which run as kill-restart closed loops."""

import numpy as np
import pytest

from repro.core.base import OnlineStragglerPredictor
from repro.core.nurd import NurdPredictor
from repro.sim.mitigation import (
    MitigationOutcome,
    jct_reduction,
    paper_report,
)
from repro.sim.replay import ReplayResult, ReplaySimulator
from repro.traces.schema import Job


class OracleRule(OnlineStragglerPredictor):
    """Flags exactly the true stragglers (uses the threshold + true latency
    hidden in the features the test builds) — for simulator plumbing tests."""

    def __init__(self, latencies, tau):
        self.latencies = latencies
        self.tau = tau
        self._lookup = {}

    def begin_job(self, X_fin, y_fin, X_run, tau_stra):
        super().begin_job(X_fin, y_fin, X_run, tau_stra)

    def update(self, X_fin, y_fin, X_run):
        self._X_run = np.asarray(X_run)

    def predict_stragglers(self, X_run):
        X_run = np.asarray(X_run)
        # Feature 0 is the task's true latency in these test jobs.
        return X_run[:, 0] >= self.tau


class NeverRule(OnlineStragglerPredictor):
    def update(self, X_fin, y_fin, X_run):
        pass

    def predict_stragglers(self, X_run):
        return np.zeros(np.asarray(X_run).shape[0], dtype=bool)


class AlwaysRule(OnlineStragglerPredictor):
    def update(self, X_fin, y_fin, X_run):
        pass

    def predict_stragglers(self, X_run):
        return np.ones(np.asarray(X_run).shape[0], dtype=bool)


def _oracle_job(n=100, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.lognormal(0.0, 0.8, size=n) + 0.1
    X = np.column_stack([y, rng.random(n)])  # feature 0 = latency (oracle)
    return Job("oracle", X, y, ["lat", "noise"])


class TestReplaySimulator:
    def test_oracle_catches_running_stragglers(self):
        job = _oracle_job()
        tau = job.straggler_threshold()
        sim = ReplaySimulator(n_checkpoints=12, feature_noise=0.0, random_state=0)
        res = sim.run(job, OracleRule(job.latencies, tau))
        # Stragglers still running after the warmup are flagged; only those
        # finishing before the first prediction can be missed.
        assert res.tpr > 0.8
        assert res.fpr == 0.0

    def test_never_rule_zero_flags(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        res = sim.run(job, NeverRule())
        assert res.y_flag.sum() == 0
        assert res.tpr == 0.0 and res.f1 == 0.0

    def test_always_rule_flags_everything_running(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        res = sim.run(job, AlwaysRule())
        # Everything observed running at the first prediction is flagged.
        assert res.y_flag.sum() > 0.5 * job.n_tasks
        assert res.tpr > 0.9

    def test_flag_times_monotone_with_checkpoints(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        res = sim.run(job, AlwaysRule())
        finite = res.flag_times[np.isfinite(res.flag_times)]
        assert set(np.unique(finite)) <= set(res.checkpoints)

    def test_flagged_tasks_not_reevaluated(self):
        # AlwaysRule flags everything at the first checkpoint; later
        # checkpoints must see no running tasks.
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        res = sim.run(job, AlwaysRule())
        first = res.flag_times[np.isfinite(res.flag_times)].min()
        assert (res.flag_times[np.isfinite(res.flag_times)] == first).all()

    def test_log_grid_spans_warmup_to_end(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=6, warmup_fraction=0.04, random_state=0)
        g = sim.checkpoint_grid(job)
        assert g.shape == (7,)
        assert (np.diff(g) >= 0).all()
        comp = job.completion_times
        assert g[0] == pytest.approx(np.quantile(comp, 0.04))
        assert g[-1] == pytest.approx(0.98 * comp.max())

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReplaySimulator(warmup_fraction=0.0)
        with pytest.raises(ValueError):
            ReplaySimulator(straggler_percentile=100.0)

    @pytest.mark.parametrize(
        "param, value",
        [
            ("n_checkpoints", 0),
            ("n_checkpoints", 2.5),
            ("n_checkpoints", np.nan),
            ("feature_noise", -0.1),
            ("feature_noise", np.nan),
            ("feature_noise", np.inf),
            ("tau_stra", np.nan),
            ("tau_stra", np.inf),
            ("tau_stra", 0.0),
            ("tau_stra", -1.0),
        ],
    )
    def test_rejects_invalid_counts_and_noise(self, param, value):
        # Otherwise NaN noise fails inside a predictor, a fraction in geomspace;
        # a NaN or infinite tau_stra replays with no flags and no stragglers,
        # and tau_stra=-1.0 marks every task a straggler.
        with pytest.raises(ValueError, match=f"^{param} must"):
            if param == "tau_stra":
                ReplaySimulator(random_state=0).run(
                    _oracle_job(), NeverRule(), tau_stra=value
                )
            else:
                ReplaySimulator(**{param: value})

    def test_observed_features_converge_with_progress(self):
        job = _oracle_job()
        sim = ReplaySimulator(feature_noise=0.2, random_state=0)
        noise = np.random.default_rng(0).normal(size=job.features.shape)
        early = sim.observed_features(job, 1e-6, noise)
        late = sim.observed_features(job, 1e9, noise)
        np.testing.assert_allclose(late, job.features)
        assert np.abs(early - job.features).sum() > 0

    def test_custom_tau_stra(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        res = sim.run(job, NeverRule(), tau_stra=123.0)
        assert res.tau_stra == 123.0
        np.testing.assert_array_equal(res.y_true, job.latencies >= 123.0)

    def test_streaming_f1_shape_and_final_value(self):
        job = _oracle_job()
        tau = job.straggler_threshold()
        sim = ReplaySimulator(n_checkpoints=10, feature_noise=0.0, random_state=0)
        res = sim.run(job, OracleRule(job.latencies, tau))
        curve = res.streaming_f1(10)
        assert curve.shape == (10,)
        assert curve[-1] == pytest.approx(res.f1)
        assert (np.diff(curve) >= -1e-12).all()  # cumulative flags: monotone


class TestReplayStream:
    """The plan's observation cache and the stream's contracts.

    That every replay path flags bit for bit like an independent loop is
    ``tests/test_differential.py``'s job.
    """

    def test_plan_computes_each_checkpoint_once(self, google_trace):
        job = google_trace[0]
        sim = ReplaySimulator(n_checkpoints=12, random_state=9)
        stream = sim.stream(job, NurdPredictor(random_state=0))
        # Each scored checkpoint is a cache miss of the stream's own plan.
        outs = [stream.step(tau) for tau in stream.checkpoints]
        assert any(out.scored for out in outs)
        assert all(o.refreshed_rows == job.n_tasks * o.scored for o in outs)
        # A second stream on the same plan computes no rows at all.
        again = sim.stream(job, NurdPredictor(random_state=0), plan=stream.plan)
        assert all(again.step(tau).refreshed_rows == 0 for tau in again.checkpoints)

    def test_zero_noise_serves_the_job_features(self, google_trace):
        job = google_trace[1]
        sim = ReplaySimulator(n_checkpoints=8, feature_noise=0.0, random_state=0)
        stream = sim.stream(job, NurdPredictor(random_state=1))
        for tau in stream.checkpoints:
            stream.step(tau)
            assert stream.plan.observed(tau) is job.features

    def test_all_tasks_finish_at_warmup(self):
        """Everything completes by the warmup instant, so no checkpoint has
        running tasks and no flag is issued; the F1 accessors stay defined."""
        y = np.full(20, 5.0)
        job = Job("all-at-warmup", np.column_stack([y, np.ones(20)]), y, ["a", "b"])
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        res = sim.run(job, NurdPredictor(random_state=0))
        assert not res.y_flag.any()
        assert np.isinf(res.flag_times).all()
        assert res.f1 == 0.0
        assert res.f1_at_time(0.0) == 0.0
        assert res.f1_at_time(np.inf) == 0.0
        np.testing.assert_array_equal(res.streaming_f1(6), np.zeros(6))

    def test_stream_rejects_backward_checkpoints(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        stream = sim.stream(google_trace[0], NurdPredictor(random_state=0))
        stream.step(stream.checkpoints[1])
        with pytest.raises(ValueError, match="strictly increasing"):
            stream.step(stream.checkpoints[0])

    def test_partial_update_refreshes_propensity_only(self, google_trace):
        """The budget's partial tier refits ``g_t`` and keeps the cached
        ``h_t``."""
        job = google_trace[0]
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        pred = NurdPredictor(random_state=0)
        stream = sim.stream(job, pred)
        taus = list(stream.checkpoints)
        stream.step(taus[0])
        h_before, g_before = pred.h_, pred.g_
        # Drive the next checkpoint through the partial tier directly.
        finished = job.completion_times <= taus[1]
        running = (job.start_times <= taus[1]) & ~finished & ~stream.flagged
        pred.partial_update(
            job.features[finished],
            job.latencies[finished],
            stream.plan.observed(taus[1])[running],
        )
        assert pred.h_ is h_before  # regressor untouched (cached)
        assert pred.g_ is not g_before  # propensity refreshed


def _replay_result(flag_times, latencies, starts=None, tau=None):
    latencies = np.asarray(latencies, dtype=float)
    flag_times = np.asarray(flag_times, dtype=float)
    tau = tau or float(np.quantile(latencies, 0.9))
    return ReplayResult(
        job_id="test",
        tau_stra=tau,
        y_true=latencies >= tau,
        y_flag=np.isfinite(flag_times),
        flag_times=flag_times,
        checkpoints=np.array([1.0]),
        latencies=latencies,
        start_times=None if starts is None else np.asarray(starts, dtype=float),
    )


def _paper_outcome(res, n_machines=None, random_state=0):
    return paper_report([res], n_machines, random_state).outcomes[0]


class TestSchedulers:
    def test_unlimited_no_flags_no_change(self):
        res = _replay_result([np.inf] * 5, [1, 2, 3, 4, 10])
        out = _paper_outcome(res)
        assert out.baseline_jct == out.mitigated_jct == 10.0
        assert out.n_actions == 0
        assert jct_reduction([res]) == 0.0

    def test_unlimited_early_flag_cuts_jct(self):
        # The slowest task (latency 100) flagged at t=1; resampled latency
        # comes from {1, 2, 3, 4} ∪ {100} — usually a big win.
        lat = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        flags = np.array([np.inf, np.inf, np.inf, np.inf, 1.0])
        res = _replay_result(flags, lat, tau=50)
        reds = [jct_reduction([res], None, random_state=rs) for rs in range(20)]
        assert np.mean(reds) > 50.0

    def test_false_positive_relaunch_can_hurt(self):
        # Flagging a fast task late can only delay it: the restart begins at
        # t=0.9 and every draw is >= 1, past the original finish at t=1.
        lat = np.array([1.0, 2.0, 3.0, 10.0])
        flags = np.array([0.9, np.inf, np.inf, np.inf])
        out = _paper_outcome(_replay_result(flags, lat, tau=9))
        assert out.n_actions == out.n_hurt == 1
        assert out.mitigated_completions[0] > out.baseline_completions[0]

    def test_limited_requires_positive_machines(self):
        res = _replay_result([np.inf], [1.0])
        with pytest.raises(ValueError, match="n_machines"):
            jct_reduction([res], 0)

    def test_limited_converges_to_unlimited(self):
        rng = np.random.default_rng(0)
        lat = rng.lognormal(0, 1, 60) + 0.1
        tau = float(np.quantile(lat, 0.9))
        flags = np.where(lat >= tau, 0.5, np.inf)
        res = _replay_result(flags, lat, tau=tau)
        few = _paper_outcome(res, 2, random_state=1)
        many = _paper_outcome(res, 10_000, random_state=1)
        unl = _paper_outcome(res, None, random_state=1)
        assert many.mitigated_jct <= few.mitigated_jct
        assert many.n_actions >= few.n_actions
        assert many.n_actions == unl.n_actions
        np.testing.assert_array_equal(
            many.mitigated_completions, unl.mitigated_completions
        )
        assert jct_reduction([res], 10_000, 1) == jct_reduction([res], None, 1)

    def test_limited_monotone_reduction_in_machines(self):
        rng = np.random.default_rng(3)
        n = 120
        lat = rng.lognormal(0, 0.8, n) + 0.1
        starts = rng.uniform(0, 3.0, n)
        tau = float(np.quantile(lat, 0.9))
        flags = np.where(lat >= tau, starts + 0.3, np.inf)
        res = _replay_result(flags, lat, starts=starts, tau=tau)
        outs = [_paper_outcome(res, m, random_state=1) for m in (1, 30, 300)]
        relaunched = [o.n_actions for o in outs]
        assert relaunched[0] <= relaunched[1] <= relaunched[2]
        jcts = [o.mitigated_jct for o in outs]
        assert jcts[0] >= jcts[1] >= jcts[2]

    def test_jct_reduction_mean(self):
        lat = np.array([1.0, 2.0, 100.0])
        flags = np.array([np.inf, np.inf, 1.0])
        results = [_replay_result(flags, lat, tau=50)] * 3
        val = jct_reduction(results, None, random_state=0)
        assert isinstance(val, float)

    def test_jct_reduction_empty(self):
        with pytest.raises(ValueError):
            jct_reduction([], None)

    def test_outcome_reduction_pct(self):
        def outcome(baseline, mitigated):
            return MitigationOutcome(
                "j",
                "kill_restart",
                baseline_completions=np.array([baseline]),
                mitigated_completions=np.array([mitigated]),
                start_times=np.zeros(1),
            )

        assert outcome(100.0, 80.0).jct_reduction_pct == pytest.approx(20.0)
        assert outcome(0.0, 0.0).jct_reduction_pct == 0.0
