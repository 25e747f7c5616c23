"""What a serving process loads: no scipy submodule on the NURD path.

Each scorer process holds one model per running job, so what it imports is
memory it holds for its whole life. ``scipy.stats``, ``scipy.optimize``,
``scipy.spatial`` and ``scipy.special`` together cost about 60 MB of RSS and
most of a second of start-up. ``src/`` never imports ``scipy.stats`` or
``scipy.spatial``: the kNN detectors search with the NumPy kernel of
``repro.learn.neighbors``. Only baselines call the other two (MCD's χ²
quantiles, Tobit's optimizer and normal tail), so each is imported at the
call that uses it.

The test suite itself imports ``scipy.stats`` at module level, so every check
here runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.special")

IMPORT_ALL = """
import importlib
import pkgutil

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
"""

SERVE_ONE_JOB = """
import asyncio

from repro.core.nurd import NurdPredictor
from repro.eval import EvaluationConfig
from repro.serving.service import ScorerService
from repro.traces.google import GoogleTraceGenerator

job = GoogleTraceGenerator(random_state=0).generate_job("j0", n_tasks=80)


async def serve():
    service = ScorerService(
        lambda: NurdPredictor(random_state=0),
        simulator=EvaluationConfig(n_checkpoints=6).make_simulator(),
    )
    await service.start()
    result = await service.replay_job(job)
    await service.stop()
    return result


result = asyncio.run(serve())
assert result is not None and result.y_flag.shape == (job.n_tasks,)
"""

REPLAY_NURD_AND_KNN = """
import numpy as np

from repro.eval import EvaluationConfig, evaluate_all
from repro.outliers import ABOD, COF, LOF, LSCP, SOD, SOS, XGBOD, KNNDetector
from repro.traces import Trace
from repro.traces.google import GoogleTraceGenerator

gen = GoogleTraceGenerator(random_state=0)
jobs = [gen.generate_job(f"j{i}", n_tasks=60) for i in range(3)]
results = evaluate_all(
    Trace(name="google", jobs=jobs), ["NURD", "KNN"], EvaluationConfig(n_checkpoints=4)
)
assert all(len(r.replays) == 3 for r in results.values())

rng = np.random.default_rng(0)
X = rng.normal(size=(60, 4))
y = (np.arange(60) % 6 == 0).astype(int)
for det in (KNNDetector(), LOF(), COF(), SOD(), ABOD(), LSCP()):
    det.fit(X)
XGBOD(random_state=0).fit(X, y)
SOS().fit(rng.normal(size=(1024, 4)))  # the kNN binding backend
"""

FIT_MCD = """
import numpy as np

from repro.outliers import MCD

MCD(random_state=0).fit(np.random.default_rng(0).normal(size=(40, 3)))
"""

REPORT = """
import json
import sys

print(json.dumps(sorted(m for m in {heavy!r} if m in sys.modules)))
"""


def _loaded_heavy_modules(script: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script + REPORT.format(heavy=HEAVY)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "script",
    [IMPORT_ALL, SERVE_ONE_JOB, REPLAY_NURD_AND_KNN],
    ids=["import_all", "serve_nurd_job", "replay_nurd_and_knn"],
)
def test_serving_path_loads_no_heavy_scipy(script):
    assert _loaded_heavy_modules(script) == []


def test_heavy_scipy_is_visible_once_a_baseline_runs():
    # The guard sees a deferred import once its caller runs: fitting MCD
    # loads scipy.special, so an empty list above is not a blind probe.
    assert _loaded_heavy_modules(IMPORT_ALL + FIT_MCD) == ["scipy.special"]
