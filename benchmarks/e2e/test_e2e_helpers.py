"""Fast tests for the end-to-end benchmark's own helpers."""

import itertools

import numpy as np
import pytest

import compare
from e2e_spans import Tracer, layer_table, self_times, union_length
from e2e_speed import HostSpeed, reference_kernel, trimmed_mean
from e2e_stats import latency_summary, samples_beyond, tail_percentile
from e2e_workloads import WORKLOADS, make_jobs, serve_schedule, task_ladder


# -- tail percentile rule ---------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0),
     (99, 50.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_samples_beyond_counts_strictly_above_the_order_statistic():
    assert samples_beyond(1000, 990) == 10
    assert samples_beyond(999, 990) == 9
    assert samples_beyond(100, 900) == 10


def test_latency_summary_reports_the_supported_tail():
    summary = latency_summary(np.arange(1, 1001) / 1e3)
    assert summary["n"] == 1000 and summary["tail_pct"] == 99.0
    assert summary["p50_ms"] == pytest.approx(500.5)
    assert summary["tail_ms"] == pytest.approx(np.percentile(np.arange(1, 1001), 99))
    few = latency_summary([0.001, 0.003])
    assert few["tail_pct"] is None and few["tail_ms"] == pytest.approx(3.0)


# -- host speed index -------------------------------------------------------

class _FakeHost:
    """A clock whose probes take ``cost`` seconds, with a settable cost."""

    def __init__(self):
        self.now = 0.0
        self.cost = 0.01
        self.value = 1.0

    def clock(self):
        return self.now

    def kernel(self):
        self.now += self.cost
        return self.value


def _speed(host, **kw):
    return HostSpeed(nominal_s=0.01, kernel=host.kernel, clock=host.clock, **kw)


def test_trimmed_mean_drops_both_ends():
    assert trimmed_mean([1.0] * 6 + [100.0, -100.0]) == pytest.approx(1.0)
    assert trimmed_mean([2.0, 4.0]) == pytest.approx(3.0)


def test_reference_kernel_is_deterministic():
    assert reference_kernel(1) == reference_kernel(1)


def test_host_speed_probes_only_when_due_and_scales_by_factor():
    host = _FakeHost()
    speed = _speed(host, every_s=1.0)
    speed.probe()
    host.now += 0.5
    speed.tick()
    assert len(speed.durations) == 1
    host.now += 0.6
    host.cost = 0.02
    speed.tick()
    assert len(speed.durations) == 2
    assert speed.factor() == pytest.approx(1.5)
    assert speed.spent_between(1.0, 2.0) == pytest.approx(0.02)
    assert speed.mismatches == 0


def test_host_speed_local_factor_follows_the_nearest_probes():
    host = _FakeHost()
    speed = _speed(host)
    for cost in (0.01, 0.01, 0.03, 0.03):
        host.cost = cost
        speed.probe()
        host.now += 1.0
    factors = speed.factors_at([0.0, 4.0], k=2)
    assert factors == pytest.approx([1.0, 3.0])


def test_reference_seconds_leave_out_probes_and_divide_by_the_factor():
    host = _FakeHost()
    host.cost = 0.02
    speed = _speed(host)
    for _ in range(3):
        speed.probe()
        host.now += 1.0
    # 3 s of work around 0.06 s of probes, on a host at twice nominal time.
    assert speed.spent_between(0.0, host.now) == pytest.approx(0.06)
    assert speed.reference_seconds(0.0, host.now) == pytest.approx(1.5)


def test_host_speed_counts_checksum_changes():
    host = _FakeHost()
    speed = _speed(host)
    speed.probe()
    host.value = 2.0
    speed.probe()
    assert speed.mismatches == 1


# -- span self time ---------------------------------------------------------

def test_self_time_nested_and_back_to_back():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["leaf", 1.5, 2.5, 1],
        ["b", 3.0, 6.0, 0],   # starts exactly where "a" ends
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 3.0])


def test_union_length_merges_overlaps():
    assert union_length([(1, 4), (2, 5), (7, 8)]) == pytest.approx(5.0)
    assert union_length([]) == 0.0


def test_tracer_wraps_restores_and_skips_same_name_nesting():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Model:
        def predict(self, x):
            return self.predict_proba(x) + 1

        def predict_proba(self, x):
            return x

    original = Model.predict
    tracer.wrap(Model, "predict", "gbm.predict")
    tracer.wrap(Model, "predict_proba", "gbm.predict")
    with tracer.span("bench.root"):
        assert Model().predict(1) == 2
    table = layer_table(tracer.spans)
    assert table["gbm.predict"]["calls"] == 1
    assert table["bench.root"]["calls"] == 1
    tracer.unpatch()
    assert Model.predict is original


def test_tracer_restores_inherited_methods():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "f", "child.f")
    assert "f" in Child.__dict__
    tracer.unpatch()
    assert "f" not in Child.__dict__ and Child().f() == 1


def test_layer_table_counts_recursion_once():
    spans = [["f", 0.0, 4.0, -1], ["f", 1.0, 2.0, 0]]
    row = layer_table(spans)["f"]
    assert row["calls"] == 2 and row["s"] == pytest.approx(4.0)


# -- seeded inputs and schedules --------------------------------------------

def test_task_ladder_fixes_work_and_the_rng_only_permutes():
    a = task_ladder(9, (100, 400), np.random.default_rng(1))
    b = task_ladder(9, (100, 400), np.random.default_rng(2))
    assert sorted(a) == sorted(b) and list(a) != list(b)
    assert min(a) == 100 and max(a) == 400


def test_pinned_jobs_and_schedule_repeat_exactly():
    spec = WORKLOADS["serve_google_online"]
    jobs_a = make_jobs(spec, 5, (12, 20), 0, "job")
    jobs_b = make_jobs(spec, 5, (12, 20), 0, "job")
    jobs_c = make_jobs(spec, 5, (12, 20), 1, "job")
    for a, b in zip(jobs_a, jobs_b):
        assert a.job_id == b.job_id
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.latencies, b.latencies)
    assert not all(
        np.array_equal(a.latencies, c.latencies) for a, c in zip(jobs_a, jobs_c)
    )

    grids = [np.arange(3) + 10 * i for i in range(len(jobs_a))]

    def trace(jobs):
        return [
            (type(r).__name__, getattr(r, "job_id", None) or r.job.job_id,
             getattr(r, "tau", None))
            for r in serve_schedule(jobs, grids, in_flight=2)
        ]

    order = trace(jobs_a)
    assert order == trace(jobs_b)
    open_jobs, peak = set(), 0
    for kind, job_id, tau in order:
        if kind == "BeginJob":
            open_jobs.add(job_id)
        elif kind == "FinishJob":
            open_jobs.remove(job_id)
        peak = max(peak, len(open_jobs))
    assert peak == 2 and not open_jobs
    for i, job in enumerate(jobs_a):
        taus = [t for k, j, t in order if j == job.job_id and k == "ScoreCheckpoint"]
        assert taus == [float(t) for t in grids[i]]


# -- compare.py verdicts ----------------------------------------------------

def test_compare_within_bound_and_regressed():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    ok = compare.verdict(base, [98.0, 99.0, 97.5, 98.5, 98.2], 0.1, "higher")
    assert ok["status"] == "within bound"
    bad = compare.verdict(base, [80.0, 81.0, 79.0, 80.5, 79.5], 0.1, "higher")
    assert bad["status"] == "regressed"
    lower_bad = compare.verdict(base, [115.0, 116.0, 114.0, 115.5, 114.5], 0.1, "lower")
    assert lower_bad["status"] == "regressed"


def test_compare_unresolved_unless_every_head_run_is_better():
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert compare.verdict(noisy, noisy, 0.1, "lower")["status"] == "unresolved"
    faster = [10.0, 11.0, 12.0, 10.5, 11.5]
    assert compare.verdict(noisy, faster, 0.1, "lower")["status"] == "within bound"


def test_compare_claim_needs_nine_of_ten_pairs_and_beyond_spread():
    base = [100.0 + i % 3 for i in range(10)]
    head = [90.0] * 9 + [105.0]
    assert compare.claim(base, head, "lower")["gain"]
    head8 = [90.0] * 8 + [105.0, 105.0]
    c = compare.claim(base, head8, "lower")
    assert c["wins"] == 8 and not c["gain"]
    tiny = [b - 0.01 for b in base]
    assert not compare.claim(base, tiny, "lower")["gain"]


def test_compare_requires_identical_counts():
    def rec(seed, trees):
        return {"header": {"workload": "w", "seed": seed, "seconds": 20},
                "counts": {"learn.gbm.fit.trees": trees}}

    assert compare.count_mismatches([rec(1, 5), rec(1, 5), rec(2, 7)]) == []
    problems = compare.count_mismatches([rec(1, 5), rec(1, 6)])
    assert len(problems) == 1 and "learn.gbm.fit.trees" in problems[0]
