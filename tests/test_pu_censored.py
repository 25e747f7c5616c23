"""Tests for the PU-learning and censored/survival regression baselines."""

import numpy as np
import pytest

from repro.censored import CoxPHFitter, GrabitRegressor, TobitRegressor
from repro.pu import BaggingPuClassifier, ElkanNotoClassifier


@pytest.fixture(scope="module")
def pu_data():
    gen = np.random.default_rng(0)
    n = 400
    X = gen.normal(size=(n, 4))
    y_true = (X[:, 0] > 0).astype(int)
    s = ((y_true == 1) & (gen.random(n) < 0.4)).astype(int)
    return X, s, y_true


@pytest.fixture(scope="module")
def censored_data():
    gen = np.random.default_rng(1)
    n = 400
    X = gen.normal(size=(n, 3))
    y_latent = 10.0 + 2.0 * X[:, 0] - 1.0 * X[:, 1] + gen.normal(0, 1, n)
    c = float(np.quantile(y_latent, 0.7))
    censored = y_latent > c
    y_obs = np.where(censored, c, y_latent)
    return X, y_obs, censored, y_latent


class TestElkanNoto:
    def test_recovers_true_class(self, pu_data):
        X, s, y_true = pu_data
        clf = ElkanNotoClassifier(random_state=0).fit(X, s)
        assert (clf.predict(X) == y_true).mean() > 0.8

    def test_c_estimate_near_label_frequency(self, pu_data):
        X, s, _ = pu_data
        clf = ElkanNotoClassifier(random_state=0).fit(X, s)
        assert 0.1 < clf.c_ < 0.8

    def test_proba_bounds(self, pu_data):
        X, s, _ = pu_data
        p = ElkanNotoClassifier(random_state=0).fit(X, s).predict_proba(X)
        assert (p >= 0).all() and (p <= 1).all()

    def test_invalid_s(self, pu_data):
        X, _, _ = pu_data
        with pytest.raises(ValueError, match="binary"):
            ElkanNotoClassifier().fit(X, np.full(X.shape[0], 2))

    def test_needs_labeled_examples(self, pu_data):
        X, _, _ = pu_data
        with pytest.raises(ValueError, match="labeled"):
            ElkanNotoClassifier().fit(X, np.zeros(X.shape[0], int))

    def test_invalid_holdout(self, pu_data):
        X, s, _ = pu_data
        with pytest.raises(ValueError):
            ElkanNotoClassifier(hold_out_ratio=1.5).fit(X, s)


class TestBaggingPu:
    def test_recovers_true_class(self, pu_data):
        X, s, y_true = pu_data
        clf = BaggingPuClassifier(n_estimators=8, random_state=0).fit(X, s)
        assert (clf.predict(X) == y_true).mean() > 0.8

    def test_oob_scores_populated(self, pu_data):
        X, s, _ = pu_data
        clf = BaggingPuClassifier(n_estimators=8, random_state=0).fit(X, s)
        assert clf.oob_decision_.shape == (X.shape[0],)
        assert np.isfinite(clf.oob_decision_).all()

    def test_invalid_n_estimators(self, pu_data):
        X, s, _ = pu_data
        with pytest.raises(ValueError):
            BaggingPuClassifier(n_estimators=0).fit(X, s)

    def test_needs_both_sets(self, pu_data):
        X, _, _ = pu_data
        with pytest.raises(ValueError):
            BaggingPuClassifier().fit(X, np.ones(X.shape[0], int))


class TestTobit:
    def test_recovers_coefficients(self, censored_data):
        X, y_obs, censored, _ = censored_data
        m = TobitRegressor().fit(X, y_obs, censored)
        # Coefficients on the standardized scale ≈ raw (std ≈ 1 features).
        assert m.coef_[0] > 1.0
        assert m.coef_[1] < -0.3
        assert 0.5 < m.sigma_ < 2.0

    def test_latent_predictions_correlate(self, censored_data):
        X, y_obs, censored, y_latent = censored_data
        m = TobitRegressor().fit(X, y_obs, censored)
        r = np.corrcoef(m.predict(X), y_latent)[0, 1]
        assert r > 0.85

    def test_no_censoring_is_ols_like(self, censored_data):
        X, _, _, y_latent = censored_data
        m = TobitRegressor().fit(X, y_latent)
        r = np.corrcoef(m.predict(X), y_latent)[0, 1]
        assert r > 0.85

    def test_needs_uncensored(self, censored_data):
        X, y_obs, _, _ = censored_data
        with pytest.raises(ValueError, match="uncensored"):
            TobitRegressor().fit(X, y_obs, np.ones_like(y_obs, bool))

    def test_censored_length_mismatch(self, censored_data):
        X, y_obs, _, _ = censored_data
        with pytest.raises(ValueError):
            TobitRegressor().fit(X, y_obs, np.ones(3, bool))


class TestGrabit:
    def test_censored_predictions_extrapolate(self, censored_data):
        X, y_obs, censored, y_latent = censored_data
        m = GrabitRegressor().fit(X, y_obs, censored)
        # Latent predictions for censored rows should mostly exceed the cap.
        cap = y_obs[censored].max()
        assert (m.predict(X)[censored] > cap * 0.95).mean() > 0.5

    def test_correlation_with_latent(self, censored_data):
        X, y_obs, censored, y_latent = censored_data
        m = GrabitRegressor().fit(X, y_obs, censored)
        assert np.corrcoef(m.predict(X), y_latent)[0, 1] > 0.85

    def test_fixed_sigma(self, censored_data):
        X, y_obs, censored, _ = censored_data
        m = GrabitRegressor(sigma=2.0).fit(X, y_obs, censored)
        assert m.sigma_ == 2.0

    def test_invalid_sigma(self, censored_data):
        X, y_obs, censored, _ = censored_data
        with pytest.raises(ValueError):
            GrabitRegressor(sigma=-1.0).fit(X, y_obs, censored)

    def test_invalid_n_estimators(self, censored_data):
        X, y_obs, censored, _ = censored_data
        with pytest.raises(ValueError):
            GrabitRegressor(n_estimators=0).fit(X, y_obs, censored)

    @pytest.mark.parametrize("learning_rate", [0.0, -0.5, 3.0])
    def test_invalid_learning_rate(self, censored_data, learning_rate):
        X, y_obs, censored, _ = censored_data
        with pytest.raises(ValueError, match="learning_rate"):
            GrabitRegressor(learning_rate=learning_rate).fit(X, y_obs, censored)


class TestCoxPH:
    def test_risk_direction(self, censored_data):
        X, y_obs, censored, _ = censored_data
        # Higher X0 -> longer duration -> lower hazard.
        m = CoxPHFitter().fit(X, y_obs, ~censored)
        risk = m.predict_partial_hazard(X)
        hi = X[:, 0] > 1.0
        lo = X[:, 0] < -1.0
        assert risk[hi].mean() < risk[lo].mean()

    def test_survival_bounds_and_monotonicity(self, censored_data):
        X, y_obs, censored, _ = censored_data
        m = CoxPHFitter().fit(X, y_obs, ~censored)
        t_lo = float(np.quantile(y_obs, 0.3))
        t_hi = float(np.quantile(y_obs, 0.69))
        s_lo = m.predict_survival(t_lo, X)
        s_hi = m.predict_survival(t_hi, X)
        assert (s_lo >= 0).all() and (s_lo <= 1).all()
        assert (s_hi <= s_lo + 1e-12).all()

    def test_median_survival_time_order(self, censored_data):
        X, y_obs, censored, _ = censored_data
        m = CoxPHFitter().fit(X, y_obs, ~censored)
        med = m.predict_median_survival_time(X)
        hi = X[:, 0] > 1.0
        lo = X[:, 0] < -1.0
        assert med[hi].mean() > med[lo].mean()

    def test_needs_events(self, censored_data):
        X, y_obs, _, _ = censored_data
        with pytest.raises(ValueError, match="events"):
            CoxPHFitter().fit(X, y_obs, np.zeros_like(y_obs, bool))

    def test_baseline_cumhaz_monotone(self, censored_data):
        X, y_obs, censored, _ = censored_data
        m = CoxPHFitter().fit(X, y_obs, ~censored)
        assert (np.diff(m.baseline_cumhaz_) >= 0).all()
