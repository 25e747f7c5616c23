"""Long-running async scorer service: ingest queue → score → emit.

The service wraps a :class:`~repro.serving.engine.ScoringEngine` behind a
bounded asyncio ingest queue, mirroring the warmup/interval online-policy
loop of profiler-style services: producers submit job warmups and checkpoint
ticks, workers score them in arrival order, and every scored checkpoint is
emitted as a :class:`~repro.serving.engine.ScoreEvent` to the caller's sink.

Ordering guarantee: events of one job are always processed by the same
worker shard (stable CRC32 routing), so a job's checkpoints are scored in
submission order even with several workers. The bounded queues give natural
backpressure — ``submit`` blocks (asynchronously) when scoring falls behind
the checkpoint rate, instead of buffering without limit.

Fault tolerance (see EXPERIMENTS.md, "Fault matrix"):

- *Supervision*: a shard worker that raises is restarted with capped
  exponential backoff (``restart_policy``). Recovery begins every job
  routed to the shard again from a copy of its unfitted predictor (never
  from the factory) and replays its logged checkpoints; per-job event
  sequence numbers let :meth:`_dispatch` drop already-emitted events, so
  the delivered stream is bit-identical to an uninterrupted run.
- *Quarantine*: every request is validated on ingest — malformed
  payloads (a damaged job, or a non-finite or non-positive ``tau_stra``),
  non-finite or stale checkpoint times, unknown job ids — and
  rejects are routed to a bounded :class:`~repro.faults.dlq.DeadLetterQueue`
  instead of crashing a worker.
- *Emit retry*: sink calls are retried per ``emit_policy``; undeliverable
  events land in the DLQ under ``"emit-failed"``.

Restarts and retries are set per config; the hot path adds only the
ingest check and per-job bookkeeping appends.
``tests/test_differential.py`` holds the service, with one shard or
several and through crash recovery, to the reference checkpoint loop bit
for bit. The service has no fault-injection hook: the tests inject
faults by wrapping what they hand it or hold of it (the request stream,
the emit sink, the predictor factory, ``engine.score_checkpoint``); see
``tests/fault_injection.py``.
"""

from __future__ import annotations

import asyncio
import copy
import inspect
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Union

import numpy as np

from repro.faults.dlq import DeadLetterQueue
from repro.faults.retry import RetryPolicy
from repro.serving.engine import ScoreEvent, ScoringEngine
from repro.sim.replay import ReplayResult, ReplaySimulator
from repro.traces.schema import Job
from repro.utils.validation import check_positive_finite


@dataclass
class BeginJob:
    """Register a job: warms up its incremental stream."""

    job: Job
    tau_stra: Optional[float] = None


@dataclass
class ScoreCheckpoint:
    """Score one checkpoint tick of a registered job."""

    job_id: str
    tau: float


@dataclass
class FinishJob:
    """Close a job's stream; its ReplayResult lands in ``service.results``."""

    job_id: str


Request = Union[BeginJob, ScoreCheckpoint, FinishJob]


def _request_job_id(request: Request) -> Optional[str]:
    if isinstance(request, BeginJob):
        return request.job.job_id
    return getattr(request, "job_id", None)


@dataclass
class ShardFailure:
    """A shard that exhausted its restart budget (or died unsupervised)."""

    shard: int
    error: BaseException
    request: Optional[Request] = None


class ServiceFailure(RuntimeError):
    """Raised by :meth:`ScorerService.stop` when any shard failed terminally."""

    def __init__(self, failures: List[ShardFailure]):
        self.failures = failures
        first = failures[0]
        super().__init__(
            f"{len(failures)} shard failure(s); first: shard {first.shard} "
            f"died with {first.error!r}."
        )


@dataclass
class _JobLog:
    """Per-job recovery state: the job's ``BeginJob``, a copy of its
    unfitted predictor, and every checkpoint admitted since."""

    begin: BeginJob
    predictor: object
    pending: List[ScoreCheckpoint] = field(default_factory=list)


@dataclass
class ServiceConfig:
    """Scorer-service knobs (see EXPERIMENTS.md, "Serving benchmark").

    - ``n_workers``: worker shards consuming the ingest queues. Jobs are
      routed to shards by stable hash, preserving per-job checkpoint order.
    - ``queue_depth``: per-shard ingest queue bound; producers block when
      scoring falls behind (backpressure).
    - ``budget``: per-checkpoint latency budget in seconds forwarded to the
      engine; ``None`` keeps every checkpoint bit-identical to
      ``ReplaySimulator.run``.
    - ``restart_policy``: how many times a crashed shard worker is restarted
      and with what backoff; beyond that the shard is marked dead, its
      requests dead-letter as ``"shard-dead"``, and :meth:`stop` raises.
    - ``emit_policy``: retry schedule for the emit sink; exhausted events
      dead-letter as ``"emit-failed"``.

    The dead-letter queue keeps its default bound of 1024 letters (its
    counters stay exact past it).
    """

    n_workers: int = 1
    queue_depth: int = 256
    budget: Optional[float] = None
    restart_policy: RetryPolicy = field(default_factory=RetryPolicy)
    emit_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(retries=2, base_delay=0.01, max_delay=0.25)
    )

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1.")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1.")


class ScorerService:
    """Async façade over the incremental scoring engine.

    Usage::

        service = ScorerService(lambda: NurdPredictor(random_state=0))
        await service.start()
        await service.submit(BeginJob(job))
        for tau in service.engine.checkpoint_grid(job.job_id):  # after drain
            await service.submit(ScoreCheckpoint(job.job_id, tau))
        await service.submit(FinishJob(job.job_id))
        await service.drain()
        result = service.results[job.job_id]
        await service.stop()

    or, for whole-job replay at serving speed, :meth:`replay_job` /
    :meth:`replay_trace`.

    :meth:`submit` calls ``predictor_factory()`` once per ``BeginJob``, in
    submit order on any shard count, so a factory that counts its calls
    seeds by arrival index, as the harness seeds by job index. A quarantined
    ``BeginJob`` still used its call; recovery never calls the factory.

    ``sleep`` is the backoff sleeper, injectable for deterministic tests.
    """

    def __init__(
        self,
        predictor_factory: Callable[[], object],
        simulator: Optional[ReplaySimulator] = None,
        config: Optional[ServiceConfig] = None,
        emit: Optional[Callable[[ScoreEvent], object]] = None,
        sleep: Callable[[float], "asyncio.Future"] = asyncio.sleep,
    ):
        self.config = config or ServiceConfig()
        self.predictor_factory = predictor_factory
        self.engine = ScoringEngine(simulator=simulator, budget=self.config.budget)
        self._emit = emit
        self._sleep = sleep
        self.results: Dict[str, ReplayResult] = {}
        self.events: List[ScoreEvent] = []
        self.dlq = DeadLetterQueue()
        self.failures: List[ShardFailure] = []
        self.restarts = 0
        self.replayed_events = 0
        self._recovery: Dict[str, _JobLog] = {}
        self._emitted_seq: Dict[str, int] = {}
        self._dead: Set[int] = set()
        self._queues: List[asyncio.Queue] = []
        self._workers: List[asyncio.Task] = []
        self._started = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker shards; idempotent."""
        if self._started:
            return
        self._queues = [
            asyncio.Queue(maxsize=self.config.queue_depth)
            for _ in range(self.config.n_workers)
        ]
        self._workers = [
            asyncio.create_task(self._worker(shard, q))
            for shard, q in enumerate(self._queues)
        ]
        self._started = True

    async def submit(self, request: Request) -> None:
        """Enqueue a request; blocks when the shard's queue is full."""
        if not self._started:
            raise RuntimeError("service not started; call await start() first.")
        predictor = self.predictor_factory() if isinstance(request, BeginJob) else None
        await self._queues[self._shard(request)].put((request, predictor))

    async def drain(self) -> None:
        """Wait until every submitted request has been processed."""
        for q in self._queues:
            await q.join()

    async def stop(self, raise_on_failure: bool = True) -> None:
        """Drain, cancel the workers, and surface any shard failures.

        Worker tasks never exit silently: exceptions that escape the
        supervision loop are collected into :attr:`failures` alongside
        shards that exhausted their restart budget, and
        :class:`ServiceFailure` is raised unless ``raise_on_failure`` is
        False (the failures stay inspectable either way).
        """
        if not self._started:
            return
        await self.drain()
        for w in self._workers:
            w.cancel()
        done = await asyncio.gather(*self._workers, return_exceptions=True)
        for shard, outcome in enumerate(done):
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, asyncio.CancelledError
            ):
                self.failures.append(ShardFailure(shard=shard, error=outcome))
        self._workers = []
        self._queues = []
        self._started = False
        if raise_on_failure and self.failures:
            raise ServiceFailure(self.failures)

    # ------------------------------------------------------------------
    async def replay_job(
        self, job: Job, tau_stra: Optional[float] = None
    ) -> Optional[ReplayResult]:
        """Submit a job's full warmup → checkpoint → finish lifecycle.

        Returns ``None`` when the job never produced a result (quarantined
        payload or terminally failed shard).
        """
        await self.submit(BeginJob(job, tau_stra))
        # The grid is known only after the warmup request is processed.
        shard = self._queues[self._route(job.job_id)]
        await shard.join()
        if not self.engine.has_job(job.job_id):
            return self.results.get(job.job_id)
        for tau in self.engine.checkpoint_grid(job.job_id):
            await self.submit(ScoreCheckpoint(job.job_id, float(tau)))
        await self.submit(FinishJob(job.job_id))
        await shard.join()
        return self.results.get(job.job_id)

    async def replay_trace(self, trace) -> List[Optional[ReplayResult]]:
        """Replay every job of a trace through the service concurrently."""
        return list(await asyncio.gather(*(self.replay_job(job) for job in trace)))

    def fault_stats(self) -> Dict:
        """Fault-handling counters for reports and benchmarks."""
        return {
            "restarts": self.restarts,
            "replayed_events": self.replayed_events,
            "dead_shards": sorted(self._dead),
            "terminal_failures": len(self.failures),
            "dlq": self.dlq.as_dict(),
        }

    # ------------------------------------------------------------------
    def _shard(self, request: Request) -> int:
        return self._route(_request_job_id(request) or "")

    def _route(self, job_id: str) -> int:
        # Stable routing (not Python's salted hash): one shard per job keeps
        # its checkpoints in submission order across workers.
        return zlib.crc32(job_id.encode()) % self.config.n_workers

    async def _worker(self, shard: int, queue: asyncio.Queue) -> None:
        """Supervised shard loop: restart on crash, dead-letter past budget.

        The restart budget is cumulative per shard (``restart_policy``
        retries across its lifetime, not per request); recovery failures
        re-enter the same loop and spend from the same budget.
        """
        policy = self.config.restart_policy
        restarts = 0
        while True:
            request, predictor = await queue.get()
            try:
                recovering = False
                while True:
                    try:
                        if recovering:
                            await self._recover_shard(shard, request)
                        else:
                            await self._handle(shard, request, predictor)
                        break
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:
                        restarts += 1
                        self.restarts += 1
                        if restarts > policy.retries:
                            self._dead.add(shard)
                            self.failures.append(ShardFailure(shard, exc, request))
                            self.dlq.push(
                                request,
                                "shard-failed",
                                job_id=_request_job_id(request),
                                shard=shard,
                                error=repr(exc),
                            )
                            break
                        await self._sleep(policy.delay(restarts))
                        recovering = True
            finally:
                queue.task_done()

    async def _recover_shard(self, shard: int, failed: Request) -> None:
        """Rebuild every job on ``shard`` and re-handle the failed request.

        The crash model is a lost worker process: all engine state for the
        shard's jobs is discarded, each job is begun again from a fresh copy
        of its unfitted predictor, and its logged checkpoints are replayed.
        Replayed events regenerate their original sequence numbers, so
        :meth:`_dispatch` delivers only the ones the crash prevented —
        consumers observe the exact fault-free stream.

        The failed request itself was logged *before* it crashed, so the
        replay covers it; only a crashed ``FinishJob`` needs re-handling.
        """
        # A copy: other shards add and drop logs while this one awaits its sink.
        for job_id, log in list(self._recovery.items()):
            if self._route(job_id) != shard:
                continue
            self.engine.discard(job_id)
            predictor = copy.deepcopy(log.predictor)
            self.engine.begin_job(log.begin.job, predictor, log.begin.tau_stra)
            for req in log.pending:
                event = self.engine.score_checkpoint(req.job_id, req.tau)
                await self._dispatch(event, shard)
        if isinstance(failed, FinishJob):
            await self._handle(shard, failed, None, recovering=True)

    def _reject_reason(self, request: Request) -> Optional[str]:
        """Quarantine verdict for ``request``; ``None`` means admit."""
        if isinstance(request, BeginJob):
            job_id = request.job.job_id
            if self.engine.has_job(job_id) or job_id in self.results:
                return "duplicate-job"
            try:
                request.job.validate()
                if request.tau_stra is not None:
                    check_positive_finite(request.tau_stra, "tau_stra")
            except ValueError:
                return "malformed-payload"
            return None
        if isinstance(request, ScoreCheckpoint):
            if not self.engine.has_job(request.job_id):
                return "unknown-job"
            if not np.isfinite(request.tau):
                return "malformed-tau"
            if request.tau <= self.engine.last_tau(request.job_id):
                return "stale-tau"
            return None
        if isinstance(request, FinishJob):
            if not self.engine.has_job(request.job_id):
                return "unknown-job"
            return None
        return "unknown-request"

    async def _handle(
        self, shard: int, request: Request, predictor, recovering: bool = False
    ) -> None:
        job_id = _request_job_id(request)
        if not recovering:
            if shard in self._dead:
                self.dlq.push(request, "shard-dead", job_id=job_id, shard=shard)
                return
            reason = self._reject_reason(request)
            if reason is not None:
                self.dlq.push(request, reason, job_id=job_id, shard=shard)
                return
            # Recovery bookkeeping runs before the engine call, so a request
            # that crashes mid-handling is already logged and the recovery
            # replay covers it. The predictor is copied before it fits.
            if isinstance(request, BeginJob):
                self._recovery[job_id] = _JobLog(request, copy.deepcopy(predictor))
            elif isinstance(request, ScoreCheckpoint):
                log = self._recovery.get(job_id)
                if log is not None:
                    log.pending.append(request)
        if isinstance(request, BeginJob):
            self.engine.begin_job(request.job, predictor, request.tau_stra)
        elif isinstance(request, ScoreCheckpoint):
            event = self.engine.score_checkpoint(request.job_id, request.tau)
            await self._dispatch(event, shard)
        elif isinstance(request, FinishJob):
            self.results[job_id] = self.engine.finish_job(job_id)
            self._recovery.pop(job_id, None)
            self._emitted_seq.pop(job_id, None)
        else:
            raise TypeError(f"unknown request type: {type(request).__name__}")

    async def _dispatch(self, event: ScoreEvent, shard: int) -> None:
        # Exactly-once delivery across recovery replays: every job's events
        # carry dense sequence numbers, so anything at or below the
        # high-water mark was delivered before the crash.
        last = self._emitted_seq.get(event.job_id, -1)
        if event.seq <= last:
            self.replayed_events += 1
            return
        await self._emit_event(event, shard)
        self._emitted_seq[event.job_id] = event.seq

    async def _emit_event(self, event: ScoreEvent, shard: int) -> None:
        if self._emit is None:
            self.events.append(event)
            return
        policy = self.config.emit_policy
        attempt = 0
        while True:
            try:
                out = self._emit(event)
                if inspect.isawaitable(out):
                    await out
                return
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                attempt += 1
                if attempt > policy.retries:
                    self.dlq.push(
                        event,
                        "emit-failed",
                        job_id=event.job_id,
                        shard=shard,
                        error=repr(exc),
                    )
                    return
                await self._sleep(policy.delay(attempt))
