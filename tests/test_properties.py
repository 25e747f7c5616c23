"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.calibration import clip_weight, compute_delta, compute_rho
from repro.learn.tree import DecisionTreeRegressor
from repro.sim.replay import ReplayResult, ReplaySimulator
from repro.traces.schema import Job

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_delta_always_in_open_interval(rho, alpha):
    d = compute_delta(rho, alpha, rho_max=np.inf)
    assert -alpha < d <= 1.0 - alpha


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
    st.floats(min_value=-0.49, max_value=0.49),
    st.floats(min_value=0.01, max_value=0.3),
)
def test_clip_weight_always_in_eps_one(z, delta, eps):
    w = clip_weight(np.asarray(z), delta, eps)
    assert (w >= eps - 1e-12).all()
    assert (w <= 1.0 + 1e-12).all()


@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=1000),
)
def test_rho_nonnegative(n_fin, n_run, d, seed):
    rng = np.random.default_rng(seed)
    rho = compute_rho(rng.normal(size=(n_fin, d)), rng.normal(size=(n_run, d)))
    assert rho >= 0.0
    assert np.isfinite(rho)


@given(
    st.integers(min_value=5, max_value=80),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_tree_predictions_within_target_range(n, d, seed):
    """A regression tree predicts leaf means, so predictions never leave the
    convex hull of the training targets."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n) * 10
    tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
    pred = tree.predict(rng.normal(size=(20, d)))
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


@given(st.integers(min_value=10, max_value=60), st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_job_straggler_fraction_close_to_percentile(n, seed):
    rng = np.random.default_rng(seed)
    lat = rng.lognormal(0, 1, size=n) + 0.01
    job = Job("j", rng.random((n, 2)), lat, ["a", "b"])
    frac = job.straggler_mask(90.0).mean()
    # At least one task (the max) and at most ~10% + ties.
    assert frac >= 1.0 / n - 1e-12
    assert frac <= 0.2 + 1.0 / n


@given(st.integers(min_value=5, max_value=50), st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_replay_result_f1_at_time_monotone(n, seed):
    """Cumulative flags can only add true/false positives, never remove, so
    the flagged set grows monotonically with time."""
    rng = np.random.default_rng(seed)
    lat = rng.lognormal(0, 1, size=n) + 0.01
    tau = float(np.quantile(lat, 0.9))
    flag_times = np.where(rng.random(n) < 0.4, rng.uniform(0, lat.max(), n), np.inf)
    res = ReplayResult(
        job_id="p",
        tau_stra=tau,
        y_true=lat >= tau,
        y_flag=np.isfinite(flag_times),
        flag_times=flag_times,
        checkpoints=np.array([1.0]),
        latencies=lat,
    )
    t_grid = np.linspace(0, lat.max(), 7)
    flag_counts = [np.sum(res.flag_times <= t) for t in t_grid]
    assert all(a <= b for a, b in zip(flag_counts, flag_counts[1:]))


# ---------------------------------------------------------------------------
# Streaming-replay invariants (PR 6): the incremental checkpoint path must
# uphold the replay contract for *any* predictor behavior, so the stream is
# driven by a randomized flagger rather than a real model.
# ---------------------------------------------------------------------------


class _RandomFlagger:
    """Predictor that flags each running task with probability ``p``."""

    name = "random-flagger"

    def __init__(self, seed, p):
        self.rng = np.random.default_rng(seed)
        self.p = p

    def begin_job(self, X_fin, y_fin, X_run, tau_stra):
        return self

    def update(self, X_fin, y_fin, X_run, elapsed_run=None):
        return self

    def predict_stragglers(self, X_run):
        return self.rng.random(X_run.shape[0]) < self.p


def _random_job(seed, n):
    rng = np.random.default_rng(seed)
    lat = rng.lognormal(0.0, 1.0, n) + 0.05
    X = np.column_stack([lat * (1 + 0.1 * rng.random(n)), rng.random(n)])
    starts = rng.uniform(0.0, 0.3 * lat.max(), n) if seed % 2 else None
    return Job(f"prop-{seed}", X, lat, ["lp", "aux"], starts)


@given(
    st.integers(min_value=10, max_value=80),
    st.integers(min_value=0, max_value=500),
    st.floats(min_value=0.0, max_value=0.8),
)
@settings(max_examples=25, deadline=None)
def test_stream_never_unflags(n, seed, p):
    """Flag monotonicity: once the stream flags a task it stays flagged, and
    its recorded flag time is exactly the checkpoint that flagged it."""
    job = _random_job(seed, n)
    sim = ReplaySimulator(n_checkpoints=6, random_state=seed)
    stream = sim.stream(job, _RandomFlagger(seed, p))
    prev = stream.flagged.copy()
    for tau in stream.checkpoints:
        out = stream.step(tau)
        now = stream.flagged
        assert (prev <= now).all()          # never un-flags
        np.testing.assert_array_equal(
            np.sort(out.newly_flagged), np.nonzero(now & ~prev)[0]
        )
        assert (stream.flag_times[out.newly_flagged] == out.tau).all()
        prev = now.copy()
    res = stream.result()
    finite = np.isfinite(res.flag_times)
    np.testing.assert_array_equal(finite, res.y_flag)
    # Every finite flag time is a grid checkpoint at or before the last one.
    assert np.isin(res.flag_times[finite], res.checkpoints).all()


@given(
    st.integers(min_value=10, max_value=80),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=25, deadline=None)
def test_streaming_f1_monotone_without_false_positives(n, seed):
    """When every flag is correct (flags ⊆ true stragglers), revealing more
    flags over time can only raise recall at perfect precision, so the
    streaming F1 curve is monotone non-decreasing."""
    rng = np.random.default_rng(seed)
    lat = rng.lognormal(0.0, 1.0, n) + 0.05
    tau_stra = float(np.quantile(lat, 0.8))
    y_true = lat >= tau_stra
    flag_times = np.full(n, np.inf)
    stragglers = np.nonzero(y_true)[0]
    chosen = stragglers[rng.random(stragglers.shape[0]) < 0.7]
    flag_times[chosen] = rng.uniform(0.0, lat.max(), chosen.shape[0])
    res = ReplayResult(
        job_id="mono",
        tau_stra=tau_stra,
        y_true=y_true,
        y_flag=np.isfinite(flag_times),
        flag_times=flag_times,
        checkpoints=np.array([1.0]),
        latencies=lat,
    )
    curve = res.streaming_f1(9)
    assert (np.diff(curve) >= -1e-12).all()
    assert curve[-1] == res.f1


@given(
    st.integers(min_value=5, max_value=120),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=25),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_checkpoint_grid_strictly_increasing(n, seed, n_ckpt, dup):
    """The log grid yields strictly increasing checkpoints, even on jobs
    whose latencies are heavily duplicated or near-degenerate (spans below
    float spacing)."""
    rng = np.random.default_rng(seed)
    lat = rng.lognormal(0.0, 1.0, n) + 0.05
    if dup:
        # Collapse most latencies onto a handful of values.
        lat = np.round(lat, 1) + 0.05
    job = Job(f"grid-{seed}", rng.random((n, 2)), lat, ["a", "b"])
    sim = ReplaySimulator(n_checkpoints=n_ckpt, random_state=0)
    grid = sim.checkpoint_grid(job)
    assert grid.shape == (n_ckpt + 1,)
    assert (np.diff(grid) > 0).all()
    assert np.isfinite(grid).all()
