"""In-memory span tracer the benchmark patches onto public ``repro`` callables.

Tracing lives entirely in the benchmark: :func:`instrument` wraps the public
functions and methods of the layer map in ``README.md``, inside the
benchmark process only, and :meth:`Tracer.unpatch` restores them. A span
records its name, start, end and the index of its parent span; the parent
is whatever span was open when it started (the traced code is
single-threaded, and no wrapped call awaits, so spans nest strictly).
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span-name prefix of spans the benchmark opens around its own phases. Their
#: self time is wall time no wrapped ``repro`` call accounts for.
BENCH_PREFIX = "bench."


class Tracer:
    """Records nested spans and work counts; patches callables to emit them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent_index]``; parent -1 marks a root.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order.")
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block; yields its index."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name,
        on_exit: Optional[Callable] = None,
        on_enter: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a callable of the call's positional
        arguments returning one (so a method can name its span after its
        instance). A call nested directly inside a span of the same name is
        not recorded again: delegation such as ``predict`` →
        ``predict_proba`` counts once. For work counts,
        ``on_exit(args, result, start, end, before)`` runs after a recorded
        call, where ``before`` is what ``on_enter(args)`` returned just
        before it (``None`` without ``on_enter``).
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else None
        inherited = isinstance(owner, type) and original is None
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == span_name:
                return target(*args, **kwargs)
            before = on_enter(args) if on_enter is not None else None
            idx = tracer.open(span_name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_exit is not None:
                _, start, end, _ = tracer.spans[idx]
                on_exit(args, result, start, end, before)
            return result

        self._patches.append((owner, attr, target, inherited))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        """Restore every patched callable (newest first)."""
        while self._patches:
            owner, attr, target, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, target)

    # -- export --------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children.get(i, ()))
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_table(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``s`` and ``self_s``.

    ``s`` sums the durations of spans not nested inside a span of the same
    name, so recursion never counts one interval twice.
    """
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return table


# ---------------------------------------------------------------------------
# The layer map: which public callables are wrapped, under which names.
# ---------------------------------------------------------------------------

def _predictor_span(call: str):
    def name(args) -> str:
        pred = args[0]
        module = "core.nurd" if type(pred).__module__ == "repro.core.nurd" else (
            f"eval.baselines.{pred.name}"
        )
        return f"{module}.{call}"

    return name


def instrument(tracer: Tracer, events: Optional[Dict] = None) -> None:
    """Wrap the public ``repro`` callables of every layer the benchmark maps.

    ``events`` (optional) collects serving timestamps keyed by
    ``(job_id, tau)``: ``"engine_enter"`` and ``"engine_exit"`` of each
    ``ScoringEngine.score_checkpoint`` call.
    """
    from repro.core.nurd import NurdPredictor
    from repro.core.propensity import PropensityScorer
    from repro.eval import baselines, harness
    from repro.learn import neighbors
    from repro.learn.gbm import GradientBoostingClassifier, GradientBoostingRegressor
    from repro.serving.engine import ScoringEngine
    from repro.sim import mitigation, replay
    from repro.traces import io

    counts = tracer.counts

    # traces.io
    tracer.wrap(io, "save_trace_npz", "traces.io.save_trace_npz")
    tracer.wrap(io.TraceStore, "job", "traces.io.TraceStore.job")

    # sim.replay
    seen_observed = set()

    def observed_cells(args, X, start, end, before):
        plan, tau = args[0], float(args[1])
        key = (plan.job.job_id, tau)
        if key not in seen_observed:
            seen_observed.add(key)
            counts["sim.replay.observed_cells"] += int(X.size)

    def refreshed(args, out, start, end, before):
        counts["sim.replay.refreshed_rows"] += int(out.refreshed_rows)

    tracer.wrap(replay.ReplaySimulator, "plan", "sim.replay.plan")
    tracer.wrap(replay.CheckpointPlan, "observed", "sim.replay.observed", observed_cells)
    tracer.wrap(replay.ReplaySimulator, "run", "sim.replay.run")
    tracer.wrap(replay.ReplaySimulator, "stream", "sim.replay.stream")
    tracer.wrap(replay.ReplayStream, "step", "sim.replay.ReplayStream.step", refreshed)

    # Predictors: NURD under core.nurd, every baseline under eval.baselines.
    predictor_classes = [
        NurdPredictor,
        baselines.GbtrPredictor,
        baselines.OutlierDetectorPredictor,
        baselines.PuPredictor,
        baselines.CensoredRegressionPredictor,
        baselines.CoxPhPredictor,
        baselines.WranglerPredictor,
    ]
    for cls in predictor_classes:
        for call in ("begin_job", "update", "predict_stragglers"):
            tracer.wrap(cls, call, _predictor_span(call))
    tracer.wrap(baselines.WranglerPredictor, "fit_offline", _predictor_span("fit_offline"))

    # core.propensity
    def propensity_rows(args, result, start, end, before):
        counts["core.propensity.fit.rows"] += len(args[1]) + len(args[2])

    tracer.wrap(PropensityScorer, "fit", "core.propensity.fit", propensity_rows)
    tracer.wrap(PropensityScorer, "score", "core.propensity.score")

    # learn.gbm: the floor count is rows x features x trees *added* by a fit
    # (a warm-started fit keeps its earlier trees).
    def trees_before(args):
        model = args[0]
        return len(getattr(model, "estimators_", None) or ()) if model.warm_start else 0

    def gbm_floor(args, model, start, end, before):
        X = args[1]
        added = len(model.estimators_) - before
        counts["learn.gbm.fit.trees"] += added
        counts["learn.gbm.fit.row_feature_trees"] += (
            int(X.shape[0]) * int(X.shape[1]) * added
        )

    for cls in (GradientBoostingRegressor, GradientBoostingClassifier):
        tracer.wrap(cls, "fit", "learn.gbm.fit", gbm_floor, trees_before)
        for call in ("predict", "predict_proba", "decision_function"):
            if call in cls.__dict__:
                tracer.wrap(cls, call, "learn.gbm.predict")

    # learn.neighbors: a build adds its n·log2(n) floor.
    def cache_state(args):
        return args[0].tree_builds, args[0].tree_value_hits

    def tree_counts(args, tree, start, end, before):
        cache, n = args[0], args[1].shape[0]
        builds = cache.tree_builds - before[0]
        counts["learn.neighbors.tree_builds"] += builds
        counts["learn.neighbors.tree_value_hits"] += cache.tree_value_hits - before[1]
        if builds and n > 1:
            counts["learn.neighbors.n_log2_n"] += n * math.log2(n)

    tracer.wrap(
        neighbors.NeighborCache, "tree", "learn.neighbors.tree", tree_counts, cache_state
    )

    # eval.harness and sim.mitigation
    tracer.wrap(harness, "evaluate_all", "eval.harness.evaluate_all")
    tracer.wrap(
        mitigation.ClosedLoopSimulator, "run_many", "sim.mitigation.run_many"
    )

    # serving.engine
    def engine_times(args, result, start, end, before):
        if events is not None:
            key = (args[1], float(args[2]))
            events.setdefault("engine_enter", {})[key] = start
            events.setdefault("engine_exit", {})[key] = end

    tracer.wrap(ScoringEngine, "begin_job", "serving.engine.begin_job")
    tracer.wrap(
        ScoringEngine, "score_checkpoint", "serving.engine.score_checkpoint",
        engine_times,
    )
    tracer.wrap(ScoringEngine, "finish_job", "serving.engine.finish_job")
