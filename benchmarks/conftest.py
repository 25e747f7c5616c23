"""Shared benchmark fixtures.

Each benchmark regenerates one table or figure of the paper. Traces are
laptop-scale (the paper used 8425 Google jobs on a 64-core server); the
*shape* of the results — which method wins, by roughly what factor — is the
reproduction target, not absolute values. See EXPERIMENTS.md.
"""

import pytest

from repro.eval import EvaluationConfig, evaluate_all
from repro.eval.baselines import METHOD_NAMES
from repro.eval.tuning import tuned_method_params
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.google import GoogleTraceGenerator

#: Number of jobs per trace for benchmark runs. Raise for tighter estimates.
N_JOBS = 6
TASK_RANGE = (120, 180)
SEED = 42

#: NURD hyperparameters per trace family, tuned on 6 jobs following the
#: paper's protocol (repro.eval.tuning.tune_nurd).
NURD_ALPHA = {"google": 0.5, "alibaba": 0.35}


@pytest.fixture(scope="session")
def google_trace():
    return GoogleTraceGenerator(
        n_jobs=N_JOBS, task_range=TASK_RANGE, random_state=SEED
    ).generate()


@pytest.fixture(scope="session")
def alibaba_trace():
    return AlibabaTraceGenerator(
        n_jobs=N_JOBS, task_range=TASK_RANGE, random_state=SEED
    ).generate()


def make_config(trace_name: str, **overrides) -> EvaluationConfig:
    params = dict(
        n_checkpoints=10,
        alpha=NURD_ALPHA[trace_name],
        random_state=0,
    )
    params.update(overrides)
    return EvaluationConfig(**params)


#: Representative subset shown by the streaming and JCT figures (Table 3
#: shows all 23 methods).
CORE_METHODS = ["GBTR", "KNN", "IFOREST", "PU-BG", "Grabit", "CoxPH",
                "Wrangler", "NURD-NC", "NURD"]


def _replay_all(trace, trace_name):
    """Tune on ``trace``, then replay all 23 Table 3 methods over it.

    Every replay seeds its simulator and predictor from the job index, so a
    method's results do not depend on which other methods share the run:
    the figures read their subsets from this one replay per trace family.
    """
    cfg = make_config(trace_name, method_params=tuned_method_params(trace))
    return evaluate_all(trace, METHOD_NAMES, cfg)


@pytest.fixture(scope="session")
def google_results(google_trace):
    return _replay_all(google_trace, "google")


@pytest.fixture(scope="session")
def alibaba_results(alibaba_trace):
    return _replay_all(alibaba_trace, "alibaba")
