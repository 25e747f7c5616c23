"""Tests for the evaluation harness, baseline adapters, tuning and
reporting, plus end-to-end integration checks."""

import numpy as np
import pytest

from repro.eval import (
    EvaluationConfig,
    build_predictor,
    evaluate_all,
    format_series,
    format_table3,
    jct_reduction_table,
    streaming_f1_curve,
    METHOD_GROUPS,
    METHOD_NAMES,
)
from repro.eval.baselines import WranglerPredictor
from repro.eval.tuning import (
    select_tuning_jobs,
    tune_grabit_sigma,
    tuned_method_params,
)
from repro.sim.replay import ReplaySimulator


FAST_METHODS = ["GBTR", "KNN", "PU-EN", "Grabit", "Wrangler", "NURD", "NURD-NC"]


class TestRegistry:
    def test_all_methods_constructible(self):
        for name in METHOD_NAMES:
            pred = build_predictor(name, random_state=0)
            assert pred.name == name

    def test_groups_cover_all(self):
        grouped = [m for g in METHOD_GROUPS.values() for m in g]
        assert grouped == METHOD_NAMES
        assert len(METHOD_NAMES) == 23  # the paper's Table 3 rows

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            build_predictor("SuperNet")

    def test_method_params_forwarded(self):
        pred = build_predictor("Grabit", method_params={"Grabit": {"sigma": 7.0}})
        assert pred.sigma == 7.0


@pytest.mark.parametrize("name", FAST_METHODS)
def test_adapter_runs_on_job(name, google_job):
    sim = ReplaySimulator(n_checkpoints=5, random_state=0)
    pred = build_predictor(name, random_state=0)
    if getattr(pred, "needs_offline_labels", False):
        pred.fit_offline(google_job.features, google_job.straggler_mask())
    res = sim.run(google_job, pred)
    assert res.y_flag.shape == (google_job.n_tasks,)
    assert 0.0 <= res.f1 <= 1.0


class TestWrangler:
    def test_requires_offline_fit(self, google_job):
        sim = ReplaySimulator(n_checkpoints=3, random_state=0)
        with pytest.raises(RuntimeError, match="fit_offline"):
            sim.run(google_job, WranglerPredictor(random_state=0))


class TestHarness:
    def test_single_method_metrics(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=4)
        res = evaluate_all(google_trace, ["NURD"], cfg)["NURD"]
        assert len(res.replays) == len(google_trace)
        for attr in ("tpr", "fpr", "fnr", "f1"):
            assert 0.0 <= getattr(res, attr) <= 1.0

    def test_evaluate_all_and_curves(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=4)
        res = evaluate_all(google_trace, ["NURD", "GBTR"], cfg)
        curves = streaming_f1_curve(res, n_points=5)
        assert set(curves) == {"NURD", "GBTR"}
        assert curves["NURD"].shape == (5,)

    def test_jct_table(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=4)
        res = evaluate_all(google_trace, ["NURD"], cfg)
        tab = jct_reduction_table(res, machine_counts=[50, 500])
        entry = tab["NURD"]
        assert "unlimited" in entry and set(entry["by_machines"]) == {50, 500}

    def test_config_contamination(self):
        cfg = EvaluationConfig(straggler_percentile=90.0)
        assert cfg.contamination == pytest.approx(0.1)

    def test_as_row(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=3)
        res = evaluate_all(google_trace, ["GBTR"], cfg)["GBTR"]
        row = res.as_row()
        assert row["method"] == "GBTR"


class TestTuning:
    def test_select_tuning_jobs(self, google_trace):
        jobs = select_tuning_jobs(google_trace, 2)
        assert len(jobs) == 2
        assert jobs[0] is google_trace[0]

    def test_grabit_sigma_positive(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=3, random_state=0)
        sigma = tune_grabit_sigma(
            google_trace, simulator=sim, n_tuning_jobs=2, multipliers=(1.0, 4.0)
        )
        assert sigma > 0

    def test_tuned_method_params_structure(self, google_trace):
        mp = tuned_method_params(google_trace, n_tuning_jobs=1)
        assert "sigma" in mp["Grabit"]


class TestReporting:
    def test_format_table3(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=3)
        res = evaluate_all(google_trace, ["NURD", "GBTR"], cfg)
        text = format_table3({"Google": res})
        assert "NURD" in text and "GBTR" in text
        assert "Google:F1" in text

    def test_format_series(self):
        text = format_series({"a": [1.0, 2.0]}, x_values=[0.5, 1.0])
        assert "a" in text and "0.5" in text

    def test_format_series_mismatch(self):
        with pytest.raises(ValueError):
            format_series({"a": [1.0]}, x_values=[1, 2])


class TestIntegrationEndToEnd:
    def test_nurd_beats_nc_fpr_on_google(self, google_trace):
        """Paper's ablation: calibration keeps FPR lower than NURD-NC."""
        cfg = EvaluationConfig(n_checkpoints=8)
        res = evaluate_all(google_trace, ["NURD", "NURD-NC"], cfg)
        assert res["NURD"].fpr <= res["NURD-NC"].fpr + 0.05

    def test_gbtr_misses_stragglers(self, google_trace):
        """Paper Table 3: the supervised baseline has low TPR (censoring
        bias: it never sees straggler labels)."""
        cfg = EvaluationConfig(n_checkpoints=8)
        res = evaluate_all(google_trace, ["GBTR"], cfg)["GBTR"]
        assert res.tpr < 0.5

    def test_nurd_streaming_f1_increases(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=8)
        res = evaluate_all(google_trace, ["NURD"], cfg)["NURD"]
        curve = res.streaming_f1(10)
        assert curve[-1] >= curve[0]

    def test_nurd_positive_jct_reduction(self, google_trace):
        cfg = EvaluationConfig(n_checkpoints=8)
        res = evaluate_all(google_trace, ["NURD"], cfg)["NURD"]
        # Relaunch latencies are resampled; average over several draws so a
        # single unlucky resample on this 3-job fixture can't flip the sign.
        reds = [res.jct_reduction(None, random_state=s) for s in range(8)]
        assert float(np.mean(reds)) > 0.0
