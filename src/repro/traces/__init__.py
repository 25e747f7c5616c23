"""Cluster-trace substrate: schema, synthetic generators, filtering and I/O.

The paper evaluates on the Google 2011 and Alibaba 2017/2018 production
traces. Those datasets are not available offline, so this package provides
synthetic generators that reproduce the *statistical structure* the paper's
method exploits (per-job heterogeneous latency distributions, feature–latency
coupling, p90-tail stragglers) with the exact feature schemas of the paper's
Tables 1 and 2. EXPERIMENTS.md, "Benchmark scale vs. the paper", says what
that substitution means for the results.
"""

from repro.traces.schema import Job, Trace, GOOGLE_FEATURES, ALIBABA_FEATURES
from repro.traces.google import GoogleTraceGenerator
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.filters import filter_jobs_by_size
from repro.traces.io import TraceStore, load_trace_csv, save_trace_npz

__all__ = [
    "Job",
    "Trace",
    "GOOGLE_FEATURES",
    "ALIBABA_FEATURES",
    "GoogleTraceGenerator",
    "AlibabaTraceGenerator",
    "filter_jobs_by_size",
    "load_trace_csv",
    "save_trace_npz",
    "TraceStore",
]
