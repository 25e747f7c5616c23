"""Columnar trace store and harness tests.

Covers the contracts the paper-scale replay path leans on:

- a CSV load and a store read back are bit-exact for both trace families;
- :class:`TraceStore` memory-maps its columns and serves read-only views
  (a pickled store carries its columns and stays read-only), and rejects
  a store it cannot map (compressed npz), malformed inputs and other
  layout versions loudly;
- streaming export (``iter_jobs`` -> ``save_trace_npz``) is byte-identical
  to exporting the generated trace;
- the harness replays a bare job stream in job order, and a job that
  raises surfaces its own error;
- a :class:`CheckpointPlan` from another job or simulator is rejected, and
  the content-keyed neighbor cache stops per-replay index rebuilds.

That a Trace, a TraceStore and a shared plan all replay bit for
bit like the reference loop is ``tests/test_differential.py``'s job.
"""

import pickle

import numpy as np
import pytest

import repro.traces.io as trace_io
from repro.eval import EvaluationConfig, evaluate_all
from repro.eval.baselines import build_predictor
from repro.learn.neighbors import clear_neighbor_cache, get_neighbor_cache
from repro.sim.replay import ReplaySimulator
from repro.traces import (
    AlibabaTraceGenerator,
    GoogleTraceGenerator,
    Job,
    Trace,
    TraceStore,
    load_trace_csv,
    save_trace_npz,
)


def _assert_traces_bitwise_equal(a: Trace, b: Trace) -> None:
    assert len(a) == len(b)
    for ja, jb in zip(a, b):
        assert ja.job_id == jb.job_id
        assert ja.feature_names == jb.feature_names
        np.testing.assert_array_equal(ja.features, jb.features)
        np.testing.assert_array_equal(ja.latencies, jb.latencies)
        np.testing.assert_array_equal(ja.start_times, jb.start_times)


def _rewrite_store(path, savez=np.savez, **members):
    """Rewrite a saved store with ``members`` replaced (``None`` drops one)."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays.update(members)
    with path.open("wb") as fh:
        savez(fh, **{k: v for k, v in arrays.items() if v is not None})


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


class TestRoundTrips:
    @pytest.mark.parametrize("family", ["google", "alibaba"])
    def test_csv_and_npz_bit_parity(
        self, family, google_trace, alibaba_trace, tmp_path, write_trace_csv
    ):
        trace = google_trace if family == "google" else alibaba_trace
        csv_path = write_trace_csv(trace, tmp_path / "t.csv")
        npz_path = save_trace_npz(trace, tmp_path / "t.npz")
        from_csv = load_trace_csv(csv_path, name=trace.name)
        _assert_traces_bitwise_equal(trace, from_csv)
        with TraceStore(npz_path) as store:
            assert store.name == trace.name
            _assert_traces_bitwise_equal(trace, store)
            _assert_traces_bitwise_equal(from_csv, store)

    def test_streaming_export_is_byte_identical(self, tmp_path):
        gen = GoogleTraceGenerator(n_jobs=3, task_range=(60, 90), random_state=3)
        p_stream = save_trace_npz(gen.iter_jobs(), tmp_path / "s.npz", name=gen.schema)
        p_batch = save_trace_npz(gen.generate(), tmp_path / "b.npz")
        assert p_stream.read_bytes() == p_batch.read_bytes()

    @pytest.mark.parametrize("cls", [GoogleTraceGenerator, AlibabaTraceGenerator])
    def test_generator_iter_jobs_matches_generate(self, cls):
        gen = cls(n_jobs=3, task_range=(60, 90), random_state=11)
        streamed = list(gen.iter_jobs())
        batch = gen.generate()
        assert [j.job_id for j in streamed] == [j.job_id for j in batch]
        for js, jb in zip(streamed, batch):
            np.testing.assert_array_equal(js.features, jb.features)
            np.testing.assert_array_equal(js.latencies, jb.latencies)
            np.testing.assert_array_equal(js.start_times, jb.start_times)
            assert js.meta == jb.meta

    def test_plain_np_load_reads_the_store(self, google_trace, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        with np.load(path, allow_pickle=False) as npz:
            shape = (google_trace.n_tasks, google_trace[0].n_features)
            assert npz["features"].shape == shape
            assert int(npz["store_version"]) == trace_io.TRACE_STORE_VERSION


# ---------------------------------------------------------------------------
# TraceStore semantics
# ---------------------------------------------------------------------------


class TestTraceStore:
    def test_mmap_and_read_only_views(self, google_trace, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        with TraceStore(path) as store:
            assert isinstance(store.job(0).features.base, np.memmap)
            assert store.n_jobs == len(google_trace)
            assert store.n_tasks == google_trace.n_tasks
            assert store.feature_names == google_trace[0].feature_names
            job = store.job(0)
            with pytest.raises(ValueError):
                job.features[0, 0] = 1.0
            with pytest.raises(ValueError):
                job.latencies[0] = 1.0
            np.testing.assert_array_equal(job.features, google_trace[0].features)
            # Negative indexing and the container protocol.
            assert store[-1].job_id == google_trace[-1].job_id
            assert [j.job_id for j in store] == [j.job_id for j in google_trace]

    def test_pickle_carries_read_only_columns(self, google_trace, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        store = TraceStore(path)
        payload = pickle.dumps(store)
        assert len(payload) > store.job(0).features.base.nbytes
        path.unlink()  # the clone needs no file
        clone = pickle.loads(payload)
        assert clone.path == store.path and clone.n_jobs == store.n_jobs
        job = clone.job(1)
        np.testing.assert_array_equal(job.features, google_trace[1].features)
        np.testing.assert_array_equal(job.latencies, google_trace[1].latencies)
        with pytest.raises(ValueError):
            job.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            job.start_times[0] = 1.0

    @pytest.mark.parametrize("version", [None, trace_io.TRACE_STORE_VERSION + 1])
    def test_store_version_mismatch(self, google_trace, tmp_path, version):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        _rewrite_store(path, store_version=version)
        found = "none" if version is None else version
        with pytest.raises(
            ValueError,
            match=rf"version {trace_io.TRACE_STORE_VERSION} "
            rf"\(its store_version is {found}\)",
        ):
            TraceStore(path)

    def test_compressed_npz_is_rejected(self, google_trace, tmp_path):
        # An eager load would hold the whole trace in memory.
        path = save_trace_npz(google_trace, tmp_path / "z.npz")
        _rewrite_store(path, savez=np.savez_compressed)
        with pytest.raises(ValueError, match=r"z\.npz.*cannot be memory-mapped"):
            TraceStore(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"\x93NUMPY", b"\x93NUMPX"),  # bad magic
            (b"\x93NUMPY\x01\x00", b"\x93NUMPY\x03\x00"),  # header version 3.0
            (b"'descr':", b"'descr'!"),  # header dict that does not parse
        ],
        ids=["magic", "version", "header"],
    )
    def test_corrupt_member_header_is_rejected(self, google_trace, tmp_path, old, new):
        path = save_trace_npz(google_trace, tmp_path / "c.npz")
        raw = path.read_bytes()
        start = raw.index(b"\x93NUMPY", raw.index(b"features.npy"))
        at = raw.index(old, start)
        path.write_bytes(raw[:at] + new + raw[at + len(old) :])
        with pytest.raises(ValueError, match=r"c\.npz.*cannot be memory-mapped"):
            TraceStore(path)

    def test_error_paths(self, google_trace, tmp_path):
        with pytest.raises(ValueError, match="empty trace"):
            save_trace_npz(Trace(name="x", jobs=[]), tmp_path / "e.npz")
        job = google_trace[0]
        other_schema = Job(
            job_id="odd",
            features=job.features[:, :2].copy(),
            latencies=job.latencies.copy(),
            feature_names=job.feature_names[:2],
        )
        with pytest.raises(ValueError, match="different feature schema"):
            save_trace_npz([job, other_schema], tmp_path / "h.npz")
        not_a_store = tmp_path / "plain.npz"
        with not_a_store.open("wb") as fh:
            np.savez(fh, something=np.arange(3))
        with pytest.raises(ValueError, match="not a columnar trace store"):
            TraceStore(not_a_store)
        with pytest.raises(IndexError):
            TraceStore(save_trace_npz(google_trace, tmp_path / "t.npz")).job(99)

    def test_store_rejects_corrupt_offsets(self, google_trace, tmp_path):
        path = save_trace_npz([google_trace[0]], tmp_path / "bad.npz")
        _rewrite_store(
            path,
            job_offsets=np.asarray([0, 10, 5], dtype=np.int64),
            job_ids=np.asarray(["a", "b"]),
        )
        with pytest.raises(ValueError, match="job_offsets"):
            TraceStore(path)


# ---------------------------------------------------------------------------
# CheckpointPlan
# ---------------------------------------------------------------------------


class TestCheckpointPlan:
    def test_plan_rejects_foreign_job(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        plan = sim.plan(google_trace[0])
        with pytest.raises(ValueError, match="per-job"):
            sim.run(google_trace[1], build_predictor("KNN", random_state=3), plan=plan)
        other = ReplaySimulator(n_checkpoints=5, random_state=0)
        with pytest.raises(ValueError, match="per-simulator"):
            knn = build_predictor("KNN", random_state=3)
            other.run(google_trace[0], knn, plan=plan)


# ---------------------------------------------------------------------------
# Harness job loop
# ---------------------------------------------------------------------------


class TestJobLoop:
    METHODS = ["NURD", "KNN"]

    @pytest.fixture(scope="class")
    def cfg(self):
        return EvaluationConfig(n_checkpoints=5, random_state=0)

    def test_bare_job_stream_replays_in_job_order(self, google_trace, cfg):
        # A generator has no len() and no iter_jobs(): evaluate_all iterates it.
        jobs = google_trace.iter_jobs()
        res = evaluate_all(jobs, self.METHODS, cfg)
        want = [j.job_id for j in google_trace]
        for method in self.METHODS:
            assert [r.job_id for r in res[method].replays] == want

    def test_failing_unit_surfaces_its_error(self, google_trace, cfg):
        with pytest.raises(ValueError, match="unknown method 'NOPE'"):
            evaluate_all(google_trace, ["KNN", "NOPE"], cfg)

    def test_corrupt_job_surfaces_its_error(self, google_trace, cfg, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        latency = np.concatenate([j.latencies for j in google_trace])
        latency[google_trace[0].n_tasks + 3] = np.nan
        _rewrite_store(path, latency=latency)
        bad = google_trace[1].job_id
        with pytest.raises(ValueError, match=rf"job '{bad}', task 3: duration"):
            evaluate_all(TraceStore(path), ["KNN"], cfg)


# ---------------------------------------------------------------------------
# Neighbor-tree build accounting (the per-worker rebuild regression)
# ---------------------------------------------------------------------------


def test_replaying_a_job_again_builds_no_new_trees(google_trace):
    """The content-keyed cache must serve identical checkpoint matrices.

    Before the fix, ``OutlierDetectorPredictor.update`` cleared the shared
    cache at every checkpoint, so replaying the same job — even in the same
    process — rebuilt every neighbour index from scratch. Now a second replay
    of a job with bit-identical observations must cost zero index builds.
    """
    cache = get_neighbor_cache()
    clear_neighbor_cache()
    cfg = EvaluationConfig(n_checkpoints=5, random_state=0)
    trace = Trace(name="one", jobs=[google_trace[0]])

    builds0 = cache.tree_builds
    evaluate_all(trace, ["KNN"], cfg)
    first_pass = cache.tree_builds - builds0
    assert first_pass > 0, "KNN replay must build trees on a cold cache"

    builds1 = cache.tree_builds
    hits1 = cache.tree_value_hits
    evaluate_all(trace, ["KNN"], cfg)
    assert cache.tree_builds == builds1, (
        "replaying an identical job must reuse every cached tree"
    )
    assert cache.tree_value_hits > hits1
