"""The public API stays whole: every example imports and every export resolves.

Each example guards ``main()`` behind ``__main__``; importing one runs only
its imports and module-level constants, so a removed or renamed API fails
tier-1. The quickstart's trace-CSV path, the way a real trace gets in, also
runs once on a tiny two-job CSV, and the closed-loop example runs once to
check the tail latency it prints. Every name a ``repro`` module lists in
``__all__`` must resolve, so a deletion cannot leave a stale export, and
every file CI's ``ruff format --check`` step lists must exist, so a deletion
cannot leave a stale path there either.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.traces import GoogleTraceGenerator, Trace

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    assert callable(_load(path).main)


def test_quickstart_replays_first_large_job_of_a_csv(tmp_path, capsys, write_trace_csv):
    gen = GoogleTraceGenerator(random_state=3)
    jobs = [
        gen.generate_job("small", n_tasks=40),
        gen.generate_job("big", n_tasks=110),
    ]
    path = write_trace_csv(Trace(name="t", jobs=jobs), tmp_path / "t.csv")
    quickstart = _load(EXAMPLES_DIR / "quickstart.py")
    quickstart.main([str(path)])
    out = capsys.readouterr().out
    assert "job big: 110 tasks" in out
    assert "F1 =" in out
    with pytest.raises(SystemExit, match="no job has 100 or more tasks"):
        quickstart.main([str(write_trace_csv(Trace("s", jobs[:1]), path))])


def test_closed_loop_prints_p99_task_latency(capsys, monkeypatch):
    closed_loop = _load(EXAMPLES_DIR / "closed_loop.py")
    simulator = closed_loop.ClosedLoopSimulator
    run_many, reports = simulator.run_many, []

    def recording_run_many(self, replays):
        reports.append(run_many(self, replays))
        return reports[-1]

    monkeypatch.setattr(simulator, "run_many", recording_run_many)
    closed_loop.main()
    lines = [line for line in capsys.readouterr().out.splitlines() if " p99 " in line]
    assert len(lines) == len(closed_loop.POLICIES)
    for line, report in zip(lines, reports):
        tail = report.tail_latency(99.0)
        assert f"p99 {tail['baseline']:7.1f}s -> {tail['mitigated']:7.1f}s" in line


MODULES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"


def test_ci_format_list_names_existing_files():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    listed = ci.split("ruff format --check\n", 1)[1].split("\n\n", 1)[0].split()
    assert len(listed) > 50
    missing = [path for path in listed if not (ROOT / path).is_file()]
    assert not missing, f"ruff format --check in ci.yml lists missing {missing}"
