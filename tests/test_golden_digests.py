"""Golden flag digests: every Table-3 method's flags, pinned across commits.

Each of the 23 ``METHOD_NAMES`` is replayed over a tiny trace of each family
(3 jobs of 40–60 tasks, 6 checkpoints) and its flags are hashed the way
``benchmarks/e2e/e2e_workloads.flag_digest`` hashes a workload's: BLAKE2
over every replay's ``job_id``, ``y_flag`` and ``flag_times`` bytes. The
digests are compared with the committed record ``golden_flag_digests.json``,
one test per (family, method), so a drift names the method at once.

Bit-level flags depend on numpy's floating-point kernels, so the record
stores the numpy version it was written with; under another numpy
major.minor the tests skip and say why.

A change that moves flags on purpose regenerates the record:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.eval import EvaluationConfig, evaluate_all
from repro.eval.baselines import METHOD_NAMES
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.google import GoogleTraceGenerator

RECORD = Path(__file__).resolve().with_name("golden_flag_digests.json")
GENERATORS = {"google": GoogleTraceGenerator, "alibaba": AlibabaTraceGenerator}
N_JOBS = 3
TASK_RANGE = (40, 60)
N_CHECKPOINTS = 6
SEED = 2024


def flag_digest(replays) -> str:
    """BLAKE2 digest of every replay's ``job_id``, ``y_flag`` and
    ``flag_times`` bytes (the e2e benchmark's ``flag_digest``)."""
    h = hashlib.blake2b(digest_size=16)
    for r in replays:
        h.update(r.job_id.encode())
        h.update(np.ascontiguousarray(r.y_flag).tobytes())
        h.update(np.ascontiguousarray(r.flag_times).tobytes())
    return h.hexdigest()


def family_digests(family: str) -> dict:
    """Replay all 23 methods over the family's tiny trace; digest each."""
    trace = GENERATORS[family](
        n_jobs=N_JOBS, task_range=TASK_RANGE, random_state=SEED
    ).generate()
    cfg = EvaluationConfig(n_checkpoints=N_CHECKPOINTS, random_state=0)
    results = evaluate_all(trace, METHOD_NAMES, cfg)
    return {m: flag_digest(results[m].replays) for m in METHOD_NAMES}


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


@pytest.fixture(scope="module")
def record():
    rec = json.loads(RECORD.read_text())
    recorded, running = rec["numpy"], np.__version__
    if _major_minor(recorded) != _major_minor(running):
        reason = f"digests recorded under numpy {recorded}, running {running}"
        pytest.skip(f"{reason}: flag bits are not comparable across versions")
    return rec


@pytest.fixture(scope="module")
def digests(record):
    return {family: family_digests(family) for family in GENERATORS}


def test_record_covers_every_method(record):
    for family in GENERATORS:
        assert sorted(record["digests"][family]) == sorted(METHOD_NAMES)


@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("method", METHOD_NAMES)
def test_flags_match_golden_digest(record, digests, family, method):
    expected = record["digests"][family][method]
    actual = digests[family][method]
    drift = f"{method} flags drifted on the {family} trace"
    assert actual == expected, f"{drift}: digest {actual}, recorded {expected}"


def main() -> None:
    rec = {
        "numpy": np.__version__,
        "trace": {
            "n_jobs": N_JOBS,
            "task_range": list(TASK_RANGE),
            "n_checkpoints": N_CHECKPOINTS,
            "seed": SEED,
        },
        "digests": {family: family_digests(family) for family in sorted(GENERATORS)},
    }
    RECORD.write_text(json.dumps(rec, indent=2) + "\n")
    print(f"wrote {RECORD}")


if __name__ == "__main__":
    main()
