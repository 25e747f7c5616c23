"""Tests for the trace substrate: schema, generators, filters, I/O."""

import numpy as np
import pytest

from repro.traces import (
    ALIBABA_FEATURES,
    GOOGLE_FEATURES,
    AlibabaTraceGenerator,
    GoogleTraceGenerator,
    Job,
    Trace,
    filter_jobs_by_size,
    load_trace_csv,
)
from repro.traces.generator import (
    LATENCY_FAMILIES,
    generate_job_arrays,
    sample_factors,
    sample_job_profile,
)


class TestJobSchema:
    def _job(self, n=20, d=3, **kw):
        rng = np.random.default_rng(0)
        return Job(
            job_id="j",
            features=rng.random((n, d)),
            latencies=rng.random(n) + 0.1,
            feature_names=[f"f{i}" for i in range(d)],
            **kw,
        )

    def test_basic_properties(self):
        job = self._job()
        assert job.n_tasks == 20 and job.n_features == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatched lengths"):
            Job("j", np.zeros((3, 2)), np.ones(4), ["a", "b"])
        with pytest.raises(ValueError, match="job 'j' has no tasks"):
            Job("j", np.zeros((0, 2)), np.zeros(0), ["a", "b"])

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            Job("j", np.zeros((3, 2)), np.ones(3), ["a"])

    def test_nonpositive_latency(self):
        with pytest.raises(ValueError, match="positive"):
            Job("j", np.zeros((2, 1)), np.array([1.0, 0.0]), ["a"])

    def test_default_start_times_zero(self):
        job = self._job()
        np.testing.assert_array_equal(job.start_times, 0.0)

    def test_completion_times(self):
        job = self._job(start_times=np.full(20, 5.0))
        np.testing.assert_allclose(
            job.completion_times, job.latencies + 5.0
        )

    def test_negative_start_times(self):
        with pytest.raises(ValueError, match="non-negative"):
            self._job(start_times=np.full(20, -1.0))

    def test_straggler_threshold_p90(self):
        job = self._job(n=100)
        thr = job.straggler_threshold(90.0)
        assert np.isclose((job.latencies >= thr).mean(), 0.1, atol=0.02)

    def test_straggler_mask_consistent(self):
        job = self._job(n=50)
        mask = job.straggler_mask(80.0)
        assert mask.sum() == (job.latencies >= job.straggler_threshold(80.0)).sum()

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            self._job().straggler_threshold(0.0)

    def test_trace_container(self):
        jobs = [self._job() for _ in range(3)]
        for i, j in enumerate(jobs):
            j.job_id = f"j{i}"
        trace = Trace(name="t", jobs=jobs)
        assert len(trace) == 3
        assert trace.n_tasks == 60
        assert [j.job_id for j in trace] == ["j0", "j1", "j2"]


class TestGenerators:
    def test_google_schema(self, google_trace):
        for job in google_trace:
            assert job.feature_names == GOOGLE_FEATURES
            assert job.n_features == 15

    def test_alibaba_schema(self, alibaba_trace):
        for job in alibaba_trace:
            assert job.feature_names == ALIBABA_FEATURES
            assert job.n_features == 4

    def test_task_range_respected(self):
        trace = GoogleTraceGenerator(
            n_jobs=5, task_range=(50, 60), random_state=0
        ).generate()
        for job in trace:
            assert 50 <= job.n_tasks <= 60

    def test_deterministic(self):
        a = GoogleTraceGenerator(n_jobs=2, task_range=(30, 40), random_state=9).generate()
        b = GoogleTraceGenerator(n_jobs=2, task_range=(30, 40), random_state=9).generate()
        np.testing.assert_allclose(a[0].features, b[0].features)
        np.testing.assert_allclose(a[0].latencies, b[0].latencies)

    def test_positive_latencies_and_features(self, google_trace):
        for job in google_trace:
            assert (job.latencies > 0).all()
            assert (job.features >= 0).all()

    def test_meta_records_family(self, google_trace):
        for job in google_trace:
            assert job.meta["family"] in LATENCY_FAMILIES

    def test_forced_family_shapes(self):
        gen = GoogleTraceGenerator(random_state=3)
        heavy = gen.generate_job_with_family("h", "heavy_tail", 400)
        compact = gen.generate_job_with_family("c", "compact", 400)
        h_ratio = heavy.straggler_threshold() / heavy.latencies.max()
        c_ratio = compact.straggler_threshold() / compact.latencies.max()
        # Heavy-tailed: p90 well below the max; compact: much closer to it.
        assert h_ratio < c_ratio

    def test_invalid_n_jobs(self):
        with pytest.raises(ValueError):
            GoogleTraceGenerator(n_jobs=0).generate()

    def test_invalid_task_range(self):
        with pytest.raises(ValueError):
            AlibabaTraceGenerator(task_range=(10, 5)).generate()

    def test_stragglers_have_distinct_features_on_average(self, google_job):
        mask = google_job.straggler_mask()
        if mask.sum() < 3:
            pytest.skip("too few stragglers in fixture job")
        mu_s = google_job.features[mask].mean(axis=0)
        mu_n = google_job.features[~mask].mean(axis=0)
        # Straggler centroid differs from the bulk in at least one metric.
        assert np.abs(mu_s - mu_n).max() > 0.05


class TestGeneratorInternals:
    def test_sample_factors_mixture(self):
        rng = np.random.default_rng(0)
        f = sample_factors(2000, rng, afflicted_frac=0.2)
        assert 0.15 < f.afflicted.mean() < 0.25
        assert f.tolerated.sum() <= f.afflicted.sum()
        # Afflicted tasks have systematically higher cause factors.
        total = f.contention + f.skew + f.slowness + f.failures
        assert total[f.afflicted].mean() > total[~f.afflicted].mean()

    def test_invalid_afflicted_frac(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_factors(10, rng, afflicted_frac=1.5)

    def test_cause_weights_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_factors(10, rng, cause_weights=[1.0, 1.0])

    def test_profile_fields(self):
        rng = np.random.default_rng(0)
        p = sample_job_profile(rng)
        for key in ("family", "base_latency", "coupling", "noise_sigma",
                    "visibility", "afflicted_frac"):
            assert key in p

    def test_generate_job_arrays_unknown_schema(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="schema"):
            generate_job_arrays(50, "azure", rng)

    def test_too_few_tasks(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_job_arrays(1, "google", rng)

    def test_profile_overrides_applied(self):
        rng = np.random.default_rng(0)
        _, _, _, prof = generate_job_arrays(
            50, "google", rng, profile_overrides={"visibility": 0.42}
        )
        assert prof["visibility"] == 0.42


class TestFilters:
    def test_filter_by_size(self):
        gen = GoogleTraceGenerator(n_jobs=4, task_range=(20, 200), random_state=1)
        trace = gen.generate()
        filtered = filter_jobs_by_size(trace, min_tasks=100)
        assert all(j.n_tasks >= 100 for j in filtered)
        assert len(filtered) <= len(trace)

    def test_filter_invalid(self, google_trace):
        with pytest.raises(ValueError):
            filter_jobs_by_size(google_trace, min_tasks=0)


class TestTraceIo:
    def test_roundtrip(self, tmp_path, google_trace, write_trace_csv):
        path = tmp_path / "trace.csv"
        write_trace_csv(google_trace, path)
        loaded = load_trace_csv(path, name="google")
        assert len(loaded) == len(google_trace)
        for a, b in zip(google_trace, loaded):
            assert a.job_id == b.job_id
            np.testing.assert_allclose(a.features, b.features)
            np.testing.assert_allclose(a.latencies, b.latencies)
            assert a.feature_names == b.feature_names

    def test_roundtrip_exact(self, tmp_path, write_trace_csv):
        """repr-written floats reload bit-identically, adversarial values
        included (subnormals, huge magnitudes, non-terminating binary
        fractions)."""
        rng = np.random.default_rng(11)
        features = np.array(
            [
                [0.1, 1e-308, 1.7976931348623157e308],
                [1 / 3, 2.220446049250313e-16, 0.30000000000000004],
                [np.nextafter(1.0, 2.0), 5e-324, 123456789.123456789],
            ]
        )
        latencies = np.array([0.1 + 0.2, np.pi, 1e-12])
        starts = np.array([0.0, 1 / 7, 2.5000000000000004])
        job = Job("j-exact", features, latencies, ["a", "b", "c"], starts)
        noise = Job(
            "j-noise",
            rng.random((5, 3)),
            rng.random(5) + 1e-9,
            ["a", "b", "c"],
            rng.random(5),
        )
        path = tmp_path / "exact.csv"
        write_trace_csv(Trace(name="t", jobs=[job, noise]), path)
        loaded = load_trace_csv(path)
        for a, b in zip([job, noise], loaded):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.latencies, b.latencies)
            np.testing.assert_array_equal(a.start_times, b.start_times)

    def test_roundtrip_preserves_start_times(
        self, tmp_path, google_trace, write_trace_csv
    ):
        path = tmp_path / "starts.csv"
        write_trace_csv(google_trace, path)
        loaded = load_trace_csv(path)
        for a, b in zip(google_trace, loaded):
            np.testing.assert_array_equal(a.start_times, b.start_times)
        assert any(j.start_times.max() > 0 for j in loaded)

    def test_load_legacy_format_without_start_times(self, tmp_path):
        p = tmp_path / "legacy.csv"
        p.write_text("job_id,latency,f1,f2\nj,1.5,0.25,0.5\nj,2.5,0.75,1.0\n")
        trace = load_trace_csv(p)
        assert trace[0].feature_names == ["f1", "f2"]
        np.testing.assert_array_equal(trace[0].latencies, [1.5, 2.5])
        np.testing.assert_array_equal(trace[0].start_times, [0.0, 0.0])

    def test_featureless_csv_rejected(self, tmp_path):
        p = tmp_path / "nofeat.csv"
        p.write_text("job_id,latency,start_time\nj,1.5,0.0\n")
        with pytest.raises(ValueError, match="no feature columns"):
            load_trace_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="trace CSV"):
            load_trace_csv(p)
