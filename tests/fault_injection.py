"""Deterministic, seeded fault injection for the fault-tolerance tests.

A :class:`FaultPlan` composes *event-level* faults (drop / duplicate /
delayed delivery / corruption of checkpoint requests, poisoned job
payloads) with *process-level* faults (shard-worker crashes, emit-sink
outages, detector-fit exceptions). Every random decision is drawn from
``np.random.default_rng([seed, FAULT_TAG, tag])``, the derived-seed
convention of :mod:`repro.sim.mitigation`, so two runs of the same plan
over the same request stream inject bit-identical faults and a recovered
run can be compared with an uninterrupted one checkpoint for checkpoint.

The program carries no injection hook. Each injector wraps an object the
test already holds:

- :class:`RequestInjector` transforms the request stream a test submits
  to :class:`~repro.serving.service.ScorerService`.
- :class:`ServiceChaos` wraps a service's ``engine.score_checkpoint`` and
  crashes a shard when it scores its k-th checkpoint.
- :class:`FlakySink` wraps an emit sink with an outage window.
- :func:`flaky_predictor_factory` wraps a predictor factory so ``update``
  raises a transient :class:`InjectedFitError` (the singular-covariance
  scenario).
- :class:`HarnessFaults` crashes :mod:`repro.eval.harness` work units on
  their first attempts: :func:`flaky_unit` stands in for the pool's
  ``_replay_unit`` and :class:`FlakyReplayJob` for the serial loop's
  ``_replay_job``.

Every injector keeps an exact ledger of what it injected, so tests can
assert accounting identities (e.g. "the dead-letter queue holds exactly
the injected malformed events"). :func:`collect_flags` is the oracle on
the delivery side: it folds a re-delivered event stream into the flag
masks an exactly-once delivery would give.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.eval import harness
from repro.serving.service import BeginJob, FinishJob, ScoreCheckpoint
from repro.traces.schema import Job

#: Seed-derivation tag for every fault-plan RNG (see ``sim/mitigation.py``
#: for the convention: ``default_rng([seed, tag, ...])``).
FAULT_TAG = 0xFA17

#: The harness entry points the injectors wrap, bound before any test
#: patches them.
_REPLAY_UNIT = harness._replay_unit
_REPLAY_JOB = harness._replay_job


class InjectedCrash(RuntimeError):
    """A process-level fault: the shard worker (or pool worker) dies."""


class InjectedFitError(ArithmeticError):
    """A transient model-fit failure (e.g. singular MCD covariance)."""


class SinkOutage(ConnectionError):
    """The emit sink is temporarily unreachable."""


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventFaults:
    """Event-level fault rates applied to a request stream.

    Rates are per :class:`~repro.serving.service.ScoreCheckpoint` request
    and mutually exclusive per request (one draw decides): a request is
    dropped, duplicated, delayed, corrupted, or delivered clean.

    - ``drop_rate`` — the request never arrives (silent loss).
    - ``duplicate_rate`` — the request is delivered twice back to back; the
      second copy is a stale re-delivery the quarantine must absorb.
    - ``delay_rate`` — the request is held back until ``delay_span`` newer
      checkpoints of the same job have gone past, then delivered late;
      it arrives stale when any of those was actually delivered first.
    - ``corrupt_rate`` — the payload is mangled with one of
      ``corrupt_kinds``: ``"nan-tau"`` / ``"inf-tau"`` / ``"negative-tau"``
      corrupt the checkpoint time, ``"unknown-job"`` rewrites the job id.
    - ``poison_jobs`` — fabricated :class:`BeginJob` requests carrying
      malformed payloads (NaN features / negative durations), prepended to
      the stream; the quarantine must reject them before any refit sees
      them.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_span: int = 2
    corrupt_rate: float = 0.0
    corrupt_kinds: Tuple[str, ...] = (
        "nan-tau",
        "inf-tau",
        "negative-tau",
        "unknown-job",
    )
    poison_jobs: int = 0

    def __post_init__(self):
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]; got {rate}.")
        total = self.drop_rate + self.duplicate_rate + self.delay_rate
        if total + self.corrupt_rate > 1.0:
            raise ValueError("event fault rates must sum to at most 1.")
        if self.delay_span < 1:
            raise ValueError("delay_span must be >= 1.")
        if self.poison_jobs < 0:
            raise ValueError("poison_jobs must be >= 0.")
        known = {"nan-tau", "inf-tau", "negative-tau", "unknown-job"}
        bad = set(self.corrupt_kinds) - known
        if bad:
            raise ValueError(f"unknown corrupt kinds: {sorted(bad)}.")


@dataclass(frozen=True)
class ProcessFaults:
    """Process-level faults: crashes, sink outages, fit errors.

    - ``crash_shard`` / ``crash_at_event`` — raise :class:`InjectedCrash`
      when the given shard scores its ``crash_at_event``-th checkpoint
      (0-based), ``crash_times`` times in total (transient: once the
      budget is spent the shard behaves).
    - ``sink_outage_at`` / ``sink_outage_events`` / ``sink_failures_per_event``
      — emits with index in ``[sink_outage_at, sink_outage_at +
      sink_outage_events)`` fail ``sink_failures_per_event`` times before
      succeeding, modelling an outage window the retry policy must ride out.
    - ``fit_error_at_update`` / ``fit_error_times`` — the predictor's
      ``update`` raises :class:`InjectedFitError` on its
      ``fit_error_at_update``-th call (0-based, counted service-wide),
      ``fit_error_times`` times.
    """

    crash_shard: int = 0
    crash_at_event: Optional[int] = None
    crash_times: int = 1
    sink_outage_at: Optional[int] = None
    sink_outage_events: int = 1
    sink_failures_per_event: int = 1
    fit_error_at_update: Optional[int] = None
    fit_error_times: int = 1

    def __post_init__(self):
        if self.crash_shard < 0:
            raise ValueError("crash_shard must be >= 0.")
        if self.crash_times < 0 or self.fit_error_times < 0:
            raise ValueError("fault repeat counts must be >= 0.")
        if self.sink_outage_events < 1 or self.sink_failures_per_event < 1:
            raise ValueError("sink outage extents must be >= 1.")


@dataclass(frozen=True)
class FaultPlan:
    """One seeded, reproducible composition of event and process faults."""

    seed: int = 0
    events: EventFaults = field(default_factory=EventFaults)
    process: ProcessFaults = field(default_factory=ProcessFaults)

    def rng(self, tag: int = 0) -> np.random.Generator:
        """A generator derived from ``(seed, FAULT_TAG, tag)``.

        Independent fault sites use distinct tags so adding a fault type
        never perturbs the draws of another.
        """
        return np.random.default_rng([int(self.seed), FAULT_TAG, int(tag)])


# ---------------------------------------------------------------------------
# Event-level faults: the request stream
# ---------------------------------------------------------------------------

def make_poison_job(template: Job, kind: str, job_id: str) -> Job:
    """Clone ``template`` and plant one malformed value of ``kind``.

    ``kind`` is one of ``"nan-feature"``, ``"inf-feature"``,
    ``"negative-duration"``, ``"nan-latency"``. Construction goes through
    the normal :class:`Job` validation with clean arrays first; the
    corruption is planted afterwards, exactly like bitrot or a buggy
    upstream joiner would.
    """
    job = Job(
        job_id=job_id,
        features=template.features.copy(),
        latencies=template.latencies.copy(),
        feature_names=list(template.feature_names),
        start_times=template.start_times.copy(),
    )
    if kind == "nan-feature":
        job.features[0, 0] = np.nan
    elif kind == "inf-feature":
        job.features[0, -1] = np.inf
    elif kind == "negative-duration":
        job.latencies[0] = -abs(float(job.latencies[0]))
    elif kind == "nan-latency":
        job.latencies[-1] = np.nan
    else:
        raise ValueError(f"unknown poison kind {kind!r}.")
    return job


#: Poison kinds cycled through by :class:`RequestInjector`.
POISON_KINDS = ("nan-feature", "negative-duration", "nan-latency", "inf-feature")


class RequestInjector:
    """Apply a plan's event-level faults to a service request stream.

    Feed any iterable of service requests through :meth:`stream`; the
    output is the faulted delivery order. All decisions come from the
    plan's seeded RNG in stream order, so the same plan over the same
    request sequence injects bit-identical faults.

    The ``log`` counter records what happened; :attr:`expected_rejects` is
    the number of deliveries the service quarantine must route to the
    dead-letter queue (duplicates and late re-deliveries arrive stale,
    corrupted checkpoints are malformed or reference unknown jobs, poison
    jobs carry malformed payloads).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = plan.rng(tag=1)
        self.log: Counter = Counter()

    @property
    def expected_rejects(self) -> int:
        return (
            self.log["duplicated"]
            + self.log["delayed_stale"]
            + self.log["corrupted"]
            + self.log["poisoned"]
        )

    def stream(self, requests: Iterable) -> Iterator:
        ev = self.plan.events
        rng = self._rng
        # Held-back (delayed) checkpoints per job: [request, passed_count].
        held: Dict[str, List[list]] = {}
        # Max checkpoint time actually delivered per job. Corrupted
        # deliveries are excluded — they never advance the engine's
        # last-seen checkpoint — so this mirrors the service's staleness
        # test exactly, which is what keeps ``expected_rejects`` an
        # identity rather than an estimate.
        delivered_max: Dict[str, float] = {}
        poisoned = False
        ghost = 0

        def note(req) -> None:
            if req.tau > delivered_max.get(req.job_id, float("-inf")):
                delivered_max[req.job_id] = req.tau

        def release(job_id: str, force: bool = False) -> Iterator:
            entries = held.get(job_id, [])
            ready = [e for e in entries if force or e[1] >= ev.delay_span]
            for entry in ready:
                entries.remove(entry)
                # Stale only when a newer checkpoint of the same job was
                # actually delivered first (held-back slots that were
                # themselves dropped, delayed or corrupted don't count);
                # otherwise the request is merely late and still valid.
                req = entry[0]
                stale = req.tau <= delivered_max.get(job_id, float("-inf"))
                self.log["delayed_stale" if stale else "delayed_clean"] += 1
                note(req)
                yield req

        for request in requests:
            if isinstance(request, BeginJob):
                yield request
                if not poisoned and ev.poison_jobs:
                    poisoned = True
                    for k in range(ev.poison_jobs):
                        kind = POISON_KINDS[k % len(POISON_KINDS)]
                        self.log["poisoned"] += 1
                        yield BeginJob(
                            make_poison_job(request.job, kind, f"poison-{k}-{kind}")
                        )
                continue
            if isinstance(request, FinishJob):
                yield from release(request.job_id, force=True)
                yield request
                continue
            # ScoreCheckpoint: one draw decides the fate.
            for entry in held.get(request.job_id, []):
                entry[1] += 1
            u = float(rng.random())
            edge = ev.drop_rate
            if u < edge:
                self.log["dropped"] += 1
            elif u < (edge := edge + ev.duplicate_rate):
                self.log["duplicated"] += 1
                note(request)
                yield request
                yield ScoreCheckpoint(request.job_id, request.tau)
            elif u < (edge := edge + ev.delay_rate):
                held.setdefault(request.job_id, []).append([request, 0])
            elif u < edge + ev.corrupt_rate:
                kind = ev.corrupt_kinds[int(rng.integers(0, len(ev.corrupt_kinds)))]
                self.log["corrupted"] += 1
                self.log[f"corrupted:{kind}"] += 1
                if kind == "nan-tau":
                    yield ScoreCheckpoint(request.job_id, float("nan"))
                elif kind == "inf-tau":
                    yield ScoreCheckpoint(request.job_id, float("inf"))
                elif kind == "negative-tau":
                    yield ScoreCheckpoint(request.job_id, -abs(request.tau))
                else:  # unknown-job
                    ghost += 1
                    yield ScoreCheckpoint(f"ghost-{ghost}", request.tau)
            else:
                self.log["clean"] += 1
                note(request)
                yield request
            yield from release(request.job_id)
        for job_id in list(held):
            yield from release(job_id, force=True)


# ---------------------------------------------------------------------------
# Process-level faults: service shards, emit sink, predictor fits
# ---------------------------------------------------------------------------

class ServiceChaos:
    """Shard crashes for a :class:`~repro.serving.service.ScorerService`.

    :meth:`install` wraps the service's ``engine.score_checkpoint``. The
    wrapper counts the first-seen ``(job_id, tau)`` pairs of each shard
    (routed as the service routes them) and, per the plan, raises
    :class:`InjectedCrash` before delegating, at most ``crash_times``
    times. The service has logged the request by then and done no engine
    work, so a crash models a worker dying between dequeue and score.
    Recovery replays re-present pairs already seen; they never count and
    never crash.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._seen: set = set()
        self._picked: Counter = Counter()
        self.crashes_fired = 0

    def install(self, svc) -> None:
        score = svc.engine.score_checkpoint
        route = svc._route

        def score_checkpoint(job_id: str, tau: float):
            if (job_id, tau) not in self._seen:
                self._seen.add((job_id, tau))
                self._maybe_crash(route(job_id))
            return score(job_id, tau)

        svc.engine.score_checkpoint = score_checkpoint

    def _maybe_crash(self, shard: int) -> None:
        p = self.plan.process
        k = self._picked[shard]
        self._picked[shard] += 1
        if (
            shard == p.crash_shard
            and p.crash_at_event is not None
            and k >= p.crash_at_event
            and self.crashes_fired < p.crash_times
        ):
            self.crashes_fired += 1
            raise InjectedCrash(
                f"injected crash on shard {shard} at checkpoint event {k}."
            )


class FlakySink:
    """Emit-sink wrapper with a deterministic outage window.

    Emits whose (first-attempt) order index falls inside the plan's outage
    window raise :class:`SinkOutage` for the first
    ``sink_failures_per_event`` delivery attempts, then succeed — so a
    retry policy with enough attempts rides the outage out, and one with
    too few dead-letters the event.
    """

    def __init__(self, sink: Callable, plan: FaultPlan):
        self._sink = sink
        self.plan = plan
        self._order: Dict = {}
        self._attempts: Counter = Counter()
        self.failures = 0

    def __call__(self, event):
        key = (event.job_id, int(event.seq))
        idx = self._order.setdefault(key, len(self._order))
        p = self.plan.process
        if (
            p.sink_outage_at is not None
            and p.sink_outage_at <= idx < p.sink_outage_at + p.sink_outage_events
            and self._attempts[key] < p.sink_failures_per_event
        ):
            self._attempts[key] += 1
            self.failures += 1
            raise SinkOutage(f"injected sink outage for emit {idx}.")
        return self._sink(event)


class _Fuse:
    """Shared fire-once(-ish) state for transient predictor faults.

    Deliberately survives ``deepcopy`` by identity: engine snapshots
    deep-copy predictor state, and a forked fuse would re-arm the fault
    on every recovery replay, turning a transient error permanent.
    """

    def __init__(self, at: Optional[int], times: int):
        self.at = at
        self.times = times
        self.calls = 0
        self.fired = 0

    def should_fire(self) -> bool:
        k = self.calls
        self.calls += 1
        if self.at is not None and k >= self.at and self.fired < self.times:
            self.fired += 1
            return True
        return False

    def __deepcopy__(self, memo):
        return self


class FlakyPredictor:
    """Predictor wrapper whose ``update`` raises per the shared fuse."""

    def __init__(self, inner, fuse: _Fuse):
        self._inner = inner
        self._fuse = fuse

    @property
    def name(self) -> str:
        return self._inner.name

    def begin_job(self, X_fin, y_fin, X_run, tau_stra):
        return self._inner.begin_job(X_fin, y_fin, X_run, tau_stra)

    def update(self, X_fin, y_fin, X_run, elapsed_run=None):
        if self._fuse.should_fire():
            raise InjectedFitError(
                "injected fit failure (singular covariance scenario) at "
                f"update call {self._fuse.calls - 1}."
            )
        return self._inner.update(X_fin, y_fin, X_run, elapsed_run)

    def predict_stragglers(self, X_run):
        return self._inner.predict_stragglers(X_run)

    def __getattr__(self, attr):
        if attr.startswith("__"):
            raise AttributeError(attr)
        return getattr(self._inner, attr)


def flaky_predictor_factory(factory: Callable[[], object], plan: FaultPlan):
    """Wrap ``factory`` so its predictors share one fit-error fuse."""
    fuse = _Fuse(plan.process.fit_error_at_update, plan.process.fit_error_times)

    def make() -> FlakyPredictor:
        return FlakyPredictor(factory(), fuse)

    make.fuse = fuse
    return make


# ---------------------------------------------------------------------------
# Harness work units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarnessFaults:
    """Deterministic work-unit crashes for the eval harness.

    ``crashes[job_index] = n`` makes that job's work unit raise
    :class:`InjectedCrash` on its first ``n`` attempts (0-based), so
    ``retries >= n`` recovers bit-identically and ``retries < n`` surfaces
    the failure. Purely a function of ``(job_index, attempt)``: stateless,
    picklable, and identical in every worker process.
    """

    crashes: Dict[int, int] = field(default_factory=dict)

    def maybe_fail(self, job_index: int, attempt: int) -> None:
        if attempt < self.crashes.get(job_index, 0):
            raise InjectedCrash(
                f"injected work-unit crash: job {job_index}, attempt {attempt}."
            )


def flaky_unit(faults: HarnessFaults, unit, attempt: int = 0):
    """Pool stand-in for ``harness._replay_unit``.

    Install ``functools.partial(flaky_unit, faults)``: it pickles by
    reference to this module, and the pool passes each dispatch's attempt
    number, so every worker fails the same attempts.
    """
    faults.maybe_fail(unit[2], attempt)
    return _REPLAY_UNIT(unit, attempt)


class FlakyReplayJob:
    """Serial-loop stand-in for ``harness._replay_job``.

    The serial loop calls ``_replay_job`` once per attempt, so counting
    calls per job index in-process recovers the attempt number.
    """

    def __init__(self, faults: HarnessFaults):
        self.faults = faults
        self.attempts: Counter = Counter()

    def __call__(self, job, methods, config, job_index):
        attempt = self.attempts[job_index]
        self.attempts[job_index] += 1
        self.faults.maybe_fail(job_index, attempt)
        return _REPLAY_JOB(job, methods, config, job_index)


# ---------------------------------------------------------------------------
# The exactly-once oracle: flag accounting over re-delivered events
# ---------------------------------------------------------------------------


@dataclass
class FlagAccount:
    """Deduplicated flag outcome of one job's event stream."""

    job_id: str
    y_flag: np.ndarray  # boolean mask over task indices
    flag_times: np.ndarray  # first flag time per task (inf = never)
    events: int = 0  # distinct events consumed
    duplicate_events: int = 0
    duplicate_flags: int = 0  # flag re-deliveries absorbed by dedup


def collect_flags(
    events: Iterable, n_tasks: Mapping[str, int]
) -> Dict[str, FlagAccount]:
    """Fold an event stream into per-job flag masks, exactly-once.

    After a crash recovery or a sink redelivery the same
    :class:`~repro.serving.engine.ScoreEvent` can reach a consumer more than
    once. Counting ``newly_flagged`` indices naively would then double-count
    an already-flagged task toward precision/recall. This fold dedups twice
    — whole events by ``(job_id, seq)``, and task flags by first-flag-wins
    (matching the replay engine, which never re-evaluates a flagged task) —
    so the resulting masks are those of an exactly-once delivery.

    Parameters
    ----------
    events : iterable of ScoreEvent
        In any order, with duplicates allowed (redelivery, recovery replay).
    n_tasks : mapping of job_id -> task count
        Sizes of the flag masks; events for unknown jobs raise ``KeyError``.
    """
    accounts: Dict[str, FlagAccount] = {}
    seen = set()
    for event in events:
        job_id = event.job_id
        account = accounts.get(job_id)
        if account is None:
            n = int(n_tasks[job_id])
            account = FlagAccount(
                job_id=job_id,
                y_flag=np.zeros(n, dtype=bool),
                flag_times=np.full(n, np.inf),
            )
            accounts[job_id] = account
        key = (job_id, int(event.seq))
        if key in seen:
            account.duplicate_events += 1
            continue
        seen.add(key)
        account.events += 1
        tau = float(event.tau)
        for i in np.asarray(event.newly_flagged, dtype=np.intp):
            if account.y_flag[i]:
                # Re-delivered flag for an already-flagged task: the first
                # flag wins; never double-count toward precision/recall.
                account.duplicate_flags += 1
                account.flag_times[i] = min(account.flag_times[i], tau)
            else:
                account.y_flag[i] = True
                account.flag_times[i] = tau
    return accounts
