"""Exactness of the per-fit node memo (``repro.learn.tree._FitMemo``).

Every stage of a boosted fit grows on the same binned rows, so the builder
keeps each node's residual-free state (partitions, count histograms, the
``_MIN_SAMPLES_LEAF`` mask) in one memo per fit and later stages reuse it.
These cases reach that reuse: long NURD-shaped fits with a warm-start
extension, the classifier, and a fit that fills the memo's byte bound
partway through. Every one compares against the loop references in
``test_gbm_parity.py``, which have no memo, and asserts tree arrays and
each stage's training leaves equal by ``tobytes``.
"""

import numpy as np
import pytest
from test_gbm_parity import (
    TREE_ARRAYS,
    _fuzz_case,
    _ReferenceGBC,
    _ReferenceGBR,
    fit_recording_leaves,
)

from repro.learn import tree as tree_module
from repro.learn.gbm import GradientBoostingClassifier, GradientBoostingRegressor


def _assert_same_bytes(ref_estimators, new_estimators, new_leaves):
    assert len(ref_estimators) == len(new_estimators) == len(new_leaves)
    trees = zip(ref_estimators, new_estimators, new_leaves)
    for t, (ref, new, leaves) in enumerate(trees):
        for name in TREE_ARRAYS:
            a, b = getattr(ref.tree_, name), getattr(new, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (t, name)
        a = ref._train_leaves_
        same = a.dtype == leaves.dtype and a.tobytes() == leaves.tobytes()
        assert same, (t, "training leaves")


def _nurd_case(seed):
    """A NURD-shaped latency fit: 20–400 finished tasks, d ≤ 15 features
    with ties (rounded and low-cardinality columns) and duplicated rows,
    heavy-tailed latencies, 40–60 depth-3 stages, and the rows one
    checkpoint later for a warm-start extension."""
    gen = np.random.default_rng(seed)
    n, d = int(gen.integers(20, 401)), int(gen.integers(1, 16))
    n_more = int(gen.integers(1, n // 2 + 2))
    X = np.round(gen.normal(size=(n + n_more, d)), int(gen.integers(1, 4)))
    low = gen.random(d) < 0.3
    X[:, low] = gen.integers(0, 5, size=(n + n_more, int(low.sum())))
    dup = gen.random(n + n_more) < 0.2
    X[dup] = X[gen.integers(0, n + n_more, size=int(dup.sum()))]
    y = np.exp(0.5 * X[:, 0] + gen.normal(0.0, 0.7, n + n_more)) * 100.0
    kw = dict(n_estimators=int(gen.integers(40, 61)), max_depth=3, warm_start=True)
    return X, y, n, kw


@pytest.mark.parametrize("seed", range(24))
def test_nurd_shaped_fits_match_reference(seed):
    X, y, n, kw = _nurd_case(seed)
    ref, new = _ReferenceGBR(**kw), GradientBoostingRegressor(**kw)
    ref.fit(X[:n], y[:n])
    leaves = fit_recording_leaves(new, X[:n], y[:n])
    _assert_same_bytes(ref.estimators_, new.estimators_, leaves)
    # Warm start: NURD's next checkpoint adds trees on the grown finished
    # set, with a fresh memo over the new rows.
    for model in (ref, new):
        model.set_params(n_estimators=kw["n_estimators"] + 25)
    ref.fit(X, y)
    leaves += fit_recording_leaves(new, X, y)
    _assert_same_bytes(ref.estimators_, new.estimators_, leaves)
    assert np.array_equal(ref.predict(X), new.predict(X))


def test_classifier_random_problems_match_reference():
    """The binomial loss reaches the memo through the same stage loop;
    labels are tied to the features so the trees keep splitting."""
    for seed in range(100):
        X, y, _, kw = _fuzz_case(seed)
        noise = np.random.default_rng(seed).normal(size=y.shape)
        labels = (X[:, 0] + noise > 0).astype(int)
        kw = dict(kw, n_estimators=15)
        ref = _ReferenceGBC(**kw).fit(X, labels)
        new = GradientBoostingClassifier(**kw)
        leaves = fit_recording_leaves(new, X, labels)
        try:
            if ref._single_class_ is None:
                _assert_same_bytes(ref.estimators_, new.estimators_, leaves)
            a, b = ref.decision_function(X), new.decision_function(X)
            assert a.tobytes() == b.tobytes()
        except AssertionError as err:
            raise AssertionError(f"classifier case {seed}: {err}") from err


class _Recorder:
    """Wraps ``_FitMemo`` to keep every memo built and each admission's
    outcome, so a test can look inside a fit's memo after the fit."""

    def __init__(self, monkeypatch):
        self.memos, self.kept = [], []
        init, keep = tree_module._FitMemo.__init__, tree_module._FitMemo._keep

        def recording_init(memo, *args, **kwargs):
            init(memo, *args, **kwargs)
            self.memos.append(memo)

        def recording_keep(memo, *args):
            self.kept.append(keep(memo, *args))
            return self.kept[-1]

        monkeypatch.setattr(tree_module._FitMemo, "__init__", recording_init)
        monkeypatch.setattr(tree_module._FitMemo, "_keep", recording_keep)


def _held_arrays(memo):
    """Every distinct array below the memo's root, found by walking it."""
    held, stack = {}, [memo.root]
    while stack:
        node = stack.pop()
        for parts, _, flat, children in node.splits.values():
            arrays = [*parts] if flat is None else [*parts, flat]
            for child in children:
                if child is not None:
                    arrays += (child.left_n, child.right_n, child.short)
                    stack.append(child)
            held.update((id(a), a) for a in arrays)
    return list(held.values())


def _big_case():
    """Google-replay-sized: 400 rows of 15 continuous features, so each
    kept split holds about 130 KB and the memo fills within a few stages."""
    gen = np.random.default_rng(7)
    X = gen.normal(size=(400, 15))
    y = np.exp(X[:, 0] - 0.5 * X[:, 1] + gen.normal(0.0, 0.5, 400))
    return X, y


def test_fit_past_the_memo_bound_matches_reference(monkeypatch):
    recorder = _Recorder(monkeypatch)
    X, y = _big_case()
    kw = dict(n_estimators=40, max_depth=3)
    new = GradientBoostingRegressor(**kw)
    leaves = fit_recording_leaves(new, X, y)
    # The memo admitted entries, then refused some partway through.
    first_refused = recorder.kept.index(False)
    assert first_refused > 0 and any(recorder.kept[first_refused:])
    ref = _ReferenceGBR(**kw).fit(X, y)
    _assert_same_bytes(ref.estimators_, new.estimators_, leaves)


def test_memo_never_exceeds_its_bound(monkeypatch):
    recorder = _Recorder(monkeypatch)
    X, y = _big_case()
    GradientBoostingRegressor(n_estimators=40, max_depth=3).fit(X, y)
    for seed in range(4):
        Xs, ys, n, kw = _nurd_case(seed)
        GradientBoostingRegressor(**kw).fit(Xs[:n], ys[:n])
    assert len(recorder.memos) == 5
    for memo in recorder.memos:
        held = _held_arrays(memo)
        # The running count is exactly what the memo holds, and bounded.
        assert memo.nbytes == sum(a.nbytes for a in held) <= tree_module._MEMO_BYTES
        assert not any(a.flags.writeable for a in held)
    assert max(memo.nbytes for memo in recorder.memos) > tree_module._MEMO_BYTES // 2
