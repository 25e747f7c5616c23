"""Columnar trace store and paper-scale fan-out tests.

Covers the contracts the paper-scale replay path leans on:

- a CSV load and a store read back are bit-exact for both trace families;
- :class:`TraceStore` memory-maps uncompressed stores, serves read-only
  views, degrades gracefully (legacy members, compressed npz), and rejects
  malformed inputs loudly;
- streaming export (``iter_jobs`` -> ``save_trace_npz``) is byte-identical
  to exporting the generated trace;
- ``evaluate_method``/``evaluate_all`` produce bit-identical results from
  a Trace or a TraceStore, serially or over the store-backed process pool,
  with the progress callback firing per replay; a parallel run rejects a
  trace the store cannot hold;
- sharing a :class:`CheckpointPlan` across methods is bit-identical to a
  fresh plan per replay, a plan from another job or simulator is rejected,
  and the content-keyed neighbor cache stops per-replay KD-tree rebuilds.
"""

import pickle

import numpy as np
import pytest

import repro.traces.io as trace_io
from repro.eval import EvaluationConfig, evaluate_all, evaluate_method
from repro.eval.harness import ReplayProgress
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
            assert npz["features"].shape == (google_trace.n_tasks, google_trace[0].n_features)
            assert int(npz["store_version"]) == trace_io.TRACE_STORE_VERSION


# ---------------------------------------------------------------------------
# TraceStore semantics
# ---------------------------------------------------------------------------

class TestTraceStore:
    def test_mmap_and_read_only_views(self, google_trace, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        with TraceStore(path) as store:
            assert store.mmapped
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

    def test_pickle_reattaches_by_path(self, google_trace, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        store = TraceStore(path)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.path == store.path
        np.testing.assert_array_equal(
            clone.job(1).features, store.job(1).features
        )
        # The pickle payload carries no column data, just the path.
        assert len(pickle.dumps(store)) < 1024

    def test_legacy_store_without_start_time(self, google_trace, tmp_path):
        path = tmp_path / "legacy.npz"
        offsets = np.zeros(len(google_trace) + 1, dtype=np.int64)
        np.cumsum([j.n_tasks for j in google_trace], out=offsets[1:])
        with path.open("wb") as fh:
            np.savez(
                fh,
                features=np.concatenate([j.features for j in google_trace]),
                latency=np.concatenate([j.latencies for j in google_trace]),
                job_offsets=offsets,
                job_ids=np.asarray([j.job_id for j in google_trace]),
            )
        with TraceStore(path) as store:
            job = store.job(0)
            np.testing.assert_array_equal(
                job.start_times, np.zeros(job.n_tasks)
            )
            # No feature_names member: synthesized positional names.
            assert store.feature_names[0] == "f0"

    def test_compressed_npz_falls_back_to_eager(self, google_trace, tmp_path):
        path = tmp_path / "z.npz"
        offsets = np.zeros(len(google_trace) + 1, dtype=np.int64)
        np.cumsum([j.n_tasks for j in google_trace], out=offsets[1:])
        with path.open("wb") as fh:
            np.savez_compressed(
                fh,
                features=np.concatenate([j.features for j in google_trace]),
                latency=np.concatenate([j.latencies for j in google_trace]),
                start_time=np.concatenate([j.start_times for j in google_trace]),
                job_offsets=offsets,
                job_ids=np.asarray([j.job_id for j in google_trace]),
                feature_names=np.asarray(google_trace[0].feature_names),
            )
        with TraceStore(path) as store:
            assert not store.mmapped
            # Still read-only, still bit-exact.
            with pytest.raises(ValueError):
                store.job(0).features[0, 0] = 1.0
            np.testing.assert_array_equal(
                store.job(2).features, google_trace[2].features
            )

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
        path = tmp_path / "bad.npz"
        with path.open("wb") as fh:
            np.savez(
                fh,
                features=google_trace[0].features,
                latency=google_trace[0].latencies,
                start_time=google_trace[0].start_times,
                job_offsets=np.asarray([0, 10, 5], dtype=np.int64),
                job_ids=np.asarray(["a", "b"]),
                feature_names=np.asarray(google_trace[0].feature_names),
            )
        with pytest.raises(ValueError, match="job_offsets"):
            TraceStore(path)


# ---------------------------------------------------------------------------
# CheckpointPlan
# ---------------------------------------------------------------------------

class TestCheckpointPlan:
    def test_plan_replay_is_bit_identical(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        job = google_trace[0]
        base = sim.run(job, build_predictor("NURD", random_state=3))
        plan = sim.plan(job)
        # Another method consumes (and caches) the plan first.
        sim.run(job, build_predictor("KNN", random_state=3), plan=plan)
        again = sim.run(job, build_predictor("NURD", random_state=3), plan=plan)
        np.testing.assert_array_equal(base.y_flag, again.y_flag)
        np.testing.assert_array_equal(base.flag_times, again.flag_times)
        np.testing.assert_array_equal(base.checkpoints, again.checkpoints)

    def test_plan_rejects_foreign_job(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        plan = sim.plan(google_trace[0])
        with pytest.raises(ValueError, match="per-job"):
            sim.run(google_trace[1], build_predictor("KNN", random_state=3), plan=plan)
        other = ReplaySimulator(n_checkpoints=5, random_state=0)
        with pytest.raises(ValueError, match="per-simulator"):
            other.run(google_trace[0], build_predictor("KNN", random_state=3), plan=plan)


# ---------------------------------------------------------------------------
# Harness fan-out parity
# ---------------------------------------------------------------------------

def _assert_results_bitwise_equal(a, b):
    assert set(a) == set(b)
    for method in a:
        assert len(a[method].replays) == len(b[method].replays)
        for ra, rb in zip(a[method].replays, b[method].replays):
            assert ra.job_id == rb.job_id
            np.testing.assert_array_equal(ra.y_flag, rb.y_flag)
            np.testing.assert_array_equal(ra.flag_times, rb.flag_times)


class TestFanOutParity:
    METHODS = ["NURD", "KNN"]

    @pytest.fixture(scope="class")
    def cfg(self):
        return EvaluationConfig(n_checkpoints=5, random_state=0)

    @pytest.fixture(scope="class")
    def serial(self, google_trace, cfg):
        return evaluate_all(google_trace, self.METHODS, cfg)

    def test_store_serial_matches_trace_serial(self, google_trace, cfg, serial, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        with TraceStore(path) as store:
            _assert_results_bitwise_equal(
                serial, evaluate_all(store, self.METHODS, cfg)
            )

    def test_shared_store_parallel_matches_serial(self, google_trace, cfg, serial, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        with TraceStore(path) as store:
            parallel = evaluate_all(store, self.METHODS, cfg, n_workers=2)
        _assert_results_bitwise_equal(serial, parallel)

    def test_spilled_trace_parallel_matches_serial(self, google_trace, cfg, serial):
        parallel = evaluate_all(google_trace, self.METHODS, cfg, n_workers=2)
        _assert_results_bitwise_equal(serial, parallel)

    def test_parallel_rejects_heterogeneous_trace(
        self, google_trace, alibaba_trace, cfg
    ):
        mixed = Trace(name="mixed", jobs=[google_trace[0], alibaba_trace[0]])
        with pytest.raises(ValueError, match="schema"):
            evaluate_all(mixed, self.METHODS, cfg, n_workers=2)

    def test_progress_callback(self, google_trace, cfg):
        events = []
        evaluate_all(google_trace, self.METHODS, cfg, progress=events.append)
        assert len(events) == len(google_trace) * len(self.METHODS)
        assert all(isinstance(e, ReplayProgress) for e in events)
        assert [e.n_done for e in events] == list(range(1, len(events) + 1))
        assert events[-1].n_total == len(events)
        assert {e.method for e in events} == set(self.METHODS)

    def test_progress_callback_parallel(self, google_trace, cfg):
        events = []
        evaluate_all(
            google_trace, self.METHODS, cfg, n_workers=2, progress=events.append
        )
        assert len(events) == len(google_trace) * len(self.METHODS)
        assert [e.n_done for e in events] == list(range(1, len(events) + 1))

    def test_evaluate_method_accepts_store(self, google_trace, cfg, tmp_path):
        path = save_trace_npz(google_trace, tmp_path / "t.npz")
        with TraceStore(path) as store:
            from_store = evaluate_method(store, "NURD", cfg)
        from_trace = evaluate_method(google_trace, "NURD", cfg)
        _assert_results_bitwise_equal(
            {"NURD": from_store}, {"NURD": from_trace}
        )


# ---------------------------------------------------------------------------
# Neighbor-tree build accounting (the per-worker rebuild regression)
# ---------------------------------------------------------------------------

def test_replaying_a_job_again_builds_no_new_trees(google_trace):
    """The content-keyed cache must serve identical checkpoint matrices.

    Before the fix, ``OutlierDetectorPredictor.update`` cleared the shared
    cache at every checkpoint, so replaying the same job — even in the same
    process — rebuilt every KD-tree from scratch. Now a second replay of a
    job with bit-identical observations must cost zero tree builds.
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
