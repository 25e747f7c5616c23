"""Tests for the PU-learning and censored/survival regression baselines."""

import numpy as np
import pytest
from scipy.stats import norm
from test_gbm_parity import _reference_tobit_grad_hess

from repro.censored import CoxPHFitter, GrabitRegressor, TobitRegressor
from repro.censored.grabit import _tobit_grad_hess
from repro.censored.tobit import _negloglik, _normal_hazard
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


class TestBaggingPu:
    def test_recovers_true_class(self, pu_data):
        X, s, y_true = pu_data
        clf = BaggingPuClassifier(random_state=0).fit(X, s)
        assert (clf.predict(X) == y_true).mean() > 0.8

    def test_oob_scores_populated(self, pu_data):
        X, s, _ = pu_data
        clf = BaggingPuClassifier(random_state=0).fit(X, s)
        assert clf.oob_decision_.shape == (X.shape[0],)
        assert np.isfinite(clf.oob_decision_).all()

    def test_needs_both_sets(self, pu_data):
        X, _, _ = pu_data
        with pytest.raises(ValueError):
            BaggingPuClassifier().fit(X, np.ones(X.shape[0], int))

    def test_has_no_estimator_parameter(self):
        assert "estimator" not in BaggingPuClassifier().get_params()
        with pytest.raises(TypeError):
            BaggingPuClassifier(estimator=None)


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


#: z values for the Gaussian likelihood kernels: the non-finite values,
#: signed zeros, subnormals, the ±30 clip edges and tails past them.
Z_GRID = np.array(
    [-np.inf, -1e300, -1e155, -200.0, -38.5, -30.0, -29.9, -5.0, -1.0, -1e-300]
    + [-5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0, 8.0, 29.99, 30.0, 30.5, 37.0, 1e3]
    + [1e155, 1e300, np.inf, np.nan]
)


def _reference_negloglik(theta, Zb, y, obs, reg):
    """Tobit's likelihood through ``scipy.stats.norm`` (the pre-kernel
    objective, verbatim)."""
    d = Zb.shape[1]
    beta = theta[:-1]
    log_sigma = np.clip(theta[-1], -10.0, 10.0)
    sigma = np.exp(log_sigma)
    mu = Zb @ beta
    z = (y - mu) / sigma
    ll = np.where(
        obs,
        norm.logpdf(z) - log_sigma,
        norm.logsf(z),
    )
    penalty = 0.5 * np.sum(reg * beta**2)
    grad_beta = np.zeros(d)
    w_obs = np.where(obs, z / sigma, 0.0)
    zc = np.clip(z, -30.0, 30.0)
    with np.errstate(divide="ignore", over="ignore"):
        hazard = np.exp(norm.logpdf(zc) - norm.logsf(zc))
    hazard = np.where(z > 30.0, z + 1.0 / np.maximum(z, 1.0), hazard)
    w_cen = np.where(~obs, hazard / sigma, 0.0)
    grad_beta = Zb.T @ (w_obs + w_cen)
    g_obs = np.where(obs, z**2 - 1.0, 0.0).sum()
    g_cen = np.where(~obs, hazard * z, 0.0).sum()
    grad_logsig = g_obs + g_cen
    grad = np.concatenate([grad_beta - reg * beta, [grad_logsig]])
    return float(-np.sum(ll) + penalty), -grad


def _assert_same_bits(a, b):
    """Byte equality, where any NaN matches any NaN (payloads are not
    values: scipy fills a NaN input with its own ``badvalue``)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


class TestGaussianKernels:
    """Tobit and Grabit call the kernels ``scipy.stats.norm`` wraps; every
    value must equal the wrapped version's."""

    @pytest.mark.parametrize("censored", [False, True])
    @pytest.mark.parametrize("z", Z_GRID)
    def test_tobit_objective_per_z(self, z, censored):
        # β = 0 and log σ = 0 make the standardized residual z itself.
        args = (np.array([[1.0]]), np.array([z]), np.array([not censored]))
        theta, reg = np.zeros(2), np.zeros(1)
        with np.errstate(all="ignore"):
            ref = _reference_negloglik(theta, *args, reg)
            new = _negloglik(theta, *args, reg)
        _assert_same_bits(new[0], ref[0])
        _assert_same_bits(new[1], ref[1])

    def test_tobit_objective_on_random_problems(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            n, d = int(gen.integers(2, 40)), int(gen.integers(1, 5))
            Zb = np.column_stack([np.ones(n), gen.normal(size=(n, d))])
            y = gen.normal(0.0, gen.choice([0.1, 1.0, 50.0]), n)
            obs = gen.random(n) < 0.6
            theta = np.r_[gen.normal(size=d + 1), gen.uniform(-12.0, 12.0)]
            reg = np.r_[0.0, np.full(d, 1e-3)]
            with np.errstate(all="ignore"):
                ref = _reference_negloglik(theta, Zb, y, obs, reg)
                new = _negloglik(theta, Zb, y, obs, reg)
            _assert_same_bits(new[0], ref[0])
            _assert_same_bits(new[1], ref[1])

    def test_grabit_hazard_and_derivatives(self):
        censored = np.arange(Z_GRID.shape[0]) % 2 == 0
        with np.errstate(all="ignore"):
            ref_hazard = np.where(
                Z_GRID > 30.0,
                Z_GRID + 1.0 / np.maximum(Z_GRID, 1.0),
                np.exp(
                    norm.logpdf(np.clip(Z_GRID, -30.0, 30.0))
                    - norm.logsf(np.clip(Z_GRID, -30.0, 30.0))
                ),
            )
            _assert_same_bits(_normal_hazard(Z_GRID), ref_hazard)
            for cen in (censored, ~censored):
                for sigma in (1.0, 0.37):
                    ref = _reference_tobit_grad_hess(Z_GRID, 0.0, cen, sigma)
                    new = _tobit_grad_hess(Z_GRID, 0.0, cen, sigma)
                    _assert_same_bits(new[0], ref[0])
                    _assert_same_bits(new[1], ref[1])


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

    def test_needs_events(self, censored_data):
        X, y_obs, _, _ = censored_data
        with pytest.raises(ValueError, match="events"):
            CoxPHFitter().fit(X, y_obs, np.zeros_like(y_obs, bool))

    def test_baseline_cumhaz_monotone(self, censored_data):
        X, y_obs, censored, _ = censored_data
        m = CoxPHFitter().fit(X, y_obs, ~censored)
        assert (np.diff(m.baseline_cumhaz_) >= 0).all()
