"""Shared fixtures for the test suite."""

import csv

import numpy as np
import pytest

from repro.traces.google import GoogleTraceGenerator
from repro.traces.alibaba import AlibabaTraceGenerator


@pytest.fixture
def rng():
    """A fresh generator per test, so a test's data never depends on which
    tests ran before it."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def regression_data():
    """Smooth nonlinear regression problem with known structure."""
    gen = np.random.default_rng(0)
    X = gen.normal(size=(400, 5))
    y = 2.0 * X[:, 0] + np.sin(2.0 * X[:, 1]) + 0.5 * X[:, 2] ** 2
    y += gen.normal(0, 0.1, size=400)
    return X, y


@pytest.fixture(scope="session")
def classification_data():
    """Linearly separable-ish binary problem."""
    gen = np.random.default_rng(1)
    X = gen.normal(size=(400, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] + gen.normal(0, 0.3, 400) > 0).astype(int)
    return X, y


@pytest.fixture(scope="session")
def outlier_data():
    """Gaussian bulk plus a displaced outlier cluster; labels 1 = outlier."""
    gen = np.random.default_rng(2)
    X_in = gen.normal(0, 1, size=(180, 5))
    X_out = gen.normal(5, 0.5, size=(20, 5))
    X = np.vstack([X_in, X_out])
    y = np.concatenate([np.zeros(180), np.ones(20)]).astype(int)
    return X, y


@pytest.fixture(scope="session")
def google_trace():
    return GoogleTraceGenerator(
        n_jobs=3, task_range=(100, 140), random_state=7
    ).generate()


@pytest.fixture(scope="session")
def alibaba_trace():
    return AlibabaTraceGenerator(
        n_jobs=3, task_range=(100, 140), random_state=7
    ).generate()


@pytest.fixture(scope="session")
def google_job(google_trace):
    return google_trace[0]


def _write_trace_csv(trace, path):
    """Write ``trace`` in the layout ``load_trace_csv`` reads.

    Python floats print as their shortest round-trip repr, so the file
    holds every value exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = trace.jobs[0].feature_names
        writer.writerow(["job_id", "latency", "start_time", *names])
        for job in trace.jobs:
            for lat, start, row in zip(
                job.latencies.tolist(),
                job.start_times.tolist(),
                job.features.tolist(),
            ):
                writer.writerow([job.job_id, lat, start, *row])
    return path


@pytest.fixture
def write_trace_csv():
    """``write_trace_csv(trace, path)``: a trace CSV fixture on disk."""
    return _write_trace_csv
