"""Shared benchmark fixtures.

Each benchmark regenerates one table or figure of the paper. Traces are
laptop-scale (the paper used 8425 Google jobs on a 64-core server); the
*shape* of the results — which method wins, by roughly what factor — is the
reproduction target, not absolute values. See EXPERIMENTS.md.

Hyperparameters follow the paper's §6 protocol: each family's config is
tuned by :func:`repro.eval.tuning.tune` on its own ``N_JOBS``-job draw
(``TUNING_SEED``), disjoint from the evaluated seed-``SEED`` jobs, and then
applied, fixed, to every evaluated job (EXPERIMENTS.md, "Hyperparameter
protocol").
"""

import pytest

from repro.eval import EvaluationConfig, evaluate_all
from repro.eval.baselines import METHOD_NAMES
from repro.eval.tuning import tune
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.google import GoogleTraceGenerator

#: Number of jobs per trace for benchmark runs. Raise for tighter estimates.
N_JOBS = 6
TASK_RANGE = (120, 180)
SEED = 42
#: Seed of the tuning jobs: a generator stream apart from the evaluated one.
TUNING_SEED = SEED + 10_000

GENERATORS = {"google": GoogleTraceGenerator, "alibaba": AlibabaTraceGenerator}


def make_trace(family, seed):
    gen = GENERATORS[family](n_jobs=N_JOBS, task_range=TASK_RANGE, random_state=seed)
    return gen.generate()


@pytest.fixture(scope="session")
def google_trace():
    return make_trace("google", SEED)


@pytest.fixture(scope="session")
def alibaba_trace():
    return make_trace("alibaba", SEED)


@pytest.fixture(scope="session")
def google_tuning_trace():
    return make_trace("google", TUNING_SEED)


@pytest.fixture(scope="session")
def alibaba_tuning_trace():
    return make_trace("alibaba", TUNING_SEED)


@pytest.fixture(scope="session")
def google_config(google_tuning_trace):
    return tune(google_tuning_trace, EvaluationConfig())


@pytest.fixture(scope="session")
def alibaba_config(alibaba_tuning_trace):
    return tune(alibaba_tuning_trace, EvaluationConfig())


#: The Alibaba claims that fail under held-out tuning. Each still runs, so
#: the strict xfail flags the day it reproduces.
UNREPRODUCED_ON_ALIBABA = pytest.mark.xfail(
    strict=True,
    reason=(
        "NURD does not lead on Alibaba under held-out tuning "
        '(EXPERIMENTS.md, "Hyperparameter protocol")'
    ),
)

#: Representative subset shown by the streaming and JCT figures (Table 3
#: shows all 23 methods).
CORE_METHODS = [
    "GBTR",
    "KNN",
    "IFOREST",
    "PU-BG",
    "Grabit",
    "CoxPH",
    "Wrangler",
    "NURD-NC",
    "NURD",
]


# Every replay seeds its simulator and predictor from the job index, so a
# method's results do not depend on which other methods share the run: the
# figures read their subsets from this one 23-method replay per family.
@pytest.fixture(scope="session")
def google_results(google_trace, google_config):
    return evaluate_all(google_trace, METHOD_NAMES, google_config)


@pytest.fixture(scope="session")
def alibaba_results(alibaba_trace, alibaba_config):
    return evaluate_all(alibaba_trace, METHOD_NAMES, alibaba_config)
