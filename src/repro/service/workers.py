"""Worker-pool bridge from the async service onto the campaign engine.

Each worker is an asyncio task draining the weighted-fair queue.  A
popped job executes in a worker thread (``asyncio.to_thread``) on a
persistent pre-forked :class:`~repro.campaign.warmpool.WarmPool` shared
by all workers.  Each job is one pipe round-trip to an already-imported
worker process -- no per-job ``multiprocessing`` spawn -- with the same
hardened semantics the batch path has: a job with a ``timeout_s`` that
wedges (or kills) its warm worker gets the worker replaced, failures
retry with deterministic backoff up to ``max_attempts``, and exhausted
jobs surface the campaign's structured
:class:`~repro.campaign.runner.TaskFailure` record.

**Single-flight deduplication**: jobs are content-addressed by their
stable task hash, so when several tenants submit the identical request
concurrently, the first popped job becomes the *leader* (it runs the
campaign task once) and the rest attach as *followers* awaiting the
leader's future.  Exactly one campaign execution happens per unique
key; the store then serves everyone else forever.

**Draining shutdown**: :meth:`WorkerPool.stop` pauses dispatch, gives
in-flight jobs a bounded grace period to finish, then cancels the
workers and fails every job still queued or in flight with a terminal
``shutdown`` event -- an SSE subscriber always sees its stream
terminate, never a silent drop.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..campaign import CampaignTask
from ..campaign.warmpool import WarmPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .app import ServiceApp
    from .jobs import Job

__all__ = ["WorkerPool"]


class WorkerPool:
    """N asyncio workers bridging the fair queue to the warm pool."""

    def __init__(self, app: "ServiceApp", n_workers: int = 2) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.app = app
        self.n_workers = n_workers
        self.warm: Optional[WarmPool] = None
        self._tasks: List[asyncio.Task] = []
        self._inflight: Dict[str, asyncio.Future] = {}
        self._busy: Dict[str, "Job"] = {}
        self.n_campaign_executions = 0
        self.n_dedupe_joins = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self, paused: bool = False) -> None:
        if self._tasks:
            raise RuntimeError("worker pool already started")
        if paused:
            self.app.queue.pause()
        self.warm = WarmPool(n_workers=self.n_workers).start()
        self._tasks = [
            asyncio.create_task(self._worker_loop(i), name=f"svc-worker-{i}")
            for i in range(self.n_workers)
        ]

    def pause(self) -> None:
        """Stop dispatching new jobs (in-flight ones finish)."""
        self.app.queue.pause()

    def resume(self) -> None:
        self.app.queue.resume()

    async def stop(self, grace_s: Optional[float] = None) -> None:
        """Drain, then tear down: no job's event stream is left dangling.

        1. Pause dispatch so nothing new starts.
        2. Give in-flight jobs up to ``grace_s`` (default: the app's
           ``shutdown_grace_s``) to reach a terminal state.
        3. Cancel the worker tasks and close the warm pool.
        4. Fail every job still queued or in flight with a terminal
           ``shutdown`` failure, flushing the ``failed`` SSE event to
           any subscriber.
        """
        if grace_s is None:
            grace_s = getattr(self.app.config, "shutdown_grace_s", 5.0)
        self.app.queue.pause()
        draining = [
            job for job in self._busy.values() if not job.done.is_set()
        ]
        if draining and grace_s > 0.0:
            waits = asyncio.gather(
                *(job.done.wait() for job in draining),
                return_exceptions=True,
            )
            try:
                await asyncio.wait_for(waits, timeout=grace_s)
            except asyncio.TimeoutError:
                pass
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self.warm is not None:
            self.warm.close()
        # Flush still-queued jobs: they never reached a worker loop, so
        # terminal accounting happens here.
        while True:
            popped = self.app.queue.core.pop()
            if popped is None:
                break
            _, job = popped
            job.fail({
                "error": "shutdown",
                "message": "service stopped before the job ran",
            })
            self.app.on_job_finished(job)
        # In-flight jobs that outlived the grace period: their worker
        # loop already accounted them on cancellation (its ``finally``
        # also popped them from ``_busy``, so iterate the drain list);
        # just terminate the stream.
        for job in draining:
            if not job.done.is_set():
                job.fail({
                    "error": "shutdown",
                    "message": "service stopped during execution",
                })
        self._busy.clear()
        self._inflight.clear()

    # -- execution -----------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        queue = self.app.queue
        while True:
            tenant, job = await queue.get()
            del tenant  # scheduling already accounted for the tenant
            self._busy[job.job_id] = job
            try:
                await self._execute(job)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                job.fail({
                    "error": "internal",
                    "error_type": type(exc).__name__,
                    "message": str(exc)[:500],
                })
            finally:
                self._busy.pop(job.job_id, None)
                self.app.on_job_finished(job)

    async def _execute(self, job: "Job") -> None:
        store = self.app.store
        key = job.key

        if self._past_deadline(job):
            # The job aged out while queued: fail fast instead of
            # burning a worker on an answer that is already too late.
            job.fail({
                "error": "deadline_exceeded",
                "stage": "queue_wait",
                "deadline_at": job.deadline_at,
            })
            return

        entry = store.get(key)
        if entry is not None:
            job.emit("cache_hit", tier="store")
            job.complete(entry["result"], served_from="cache")
            return

        leader_future = self._inflight.get(key)
        if leader_future is not None:
            # Follower: identical request already executing.
            self.n_dedupe_joins += 1
            job.emit("deduplicated", key=key)
            result, failure = await leader_future
            if failure is None:
                job.complete(result, served_from="dedupe")
            else:
                job.fail(failure)
            return

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        job.mark_running()
        self.n_campaign_executions += 1
        deadline_s = self._remaining(job)
        try:
            result, failure = await asyncio.to_thread(
                self._run_one, job, deadline_s
            )
        except BaseException:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(RuntimeError("leader aborted"))
                future.exception()  # may have no follower to retrieve it
            raise
        if failure is not None and self._past_deadline(job):
            failure = {
                "error": "deadline_exceeded",
                "stage": "execution",
                "deadline_at": job.deadline_at,
                "task_failure": failure,
            }
        if failure is None:
            store.put(key, {
                "task": self._task_for(job).as_dict(),
                "result": result,
                "elapsed_s": 0.0,
            }, tenant=job.tenant)
            job.complete(result)
        else:
            job.fail(failure)
        self._inflight.pop(key, None)
        future.set_result((result, failure))

    def _task_for(self, job: "Job") -> CampaignTask:
        spec = job.decision.spec
        return CampaignTask(kind=spec.kind, params=spec.params, seed=spec.seed)

    def _past_deadline(self, job: "Job") -> bool:
        return (
            job.deadline_at is not None
            and self.app.wall() >= job.deadline_at
        )

    def _remaining(self, job: "Job") -> Optional[float]:
        """Wall-clock budget left before the job's deadline (``None``=∞)."""
        if job.deadline_at is None:
            return None
        return max(0.0, job.deadline_at - self.app.wall())

    def _run_one(
        self, job: "Job", deadline_s: Optional[float] = None
    ) -> Tuple[Any, Optional[Dict[str, Any]]]:
        """Blocking body: one hardened task execution on a worker thread.

        One pipe round-trip on a persistent warm worker; hung or dead
        workers are recycled by the pool.  ``deadline_s`` (remaining
        end-to-end budget, net of queue wait) caps every attempt so a
        deadlined job can never outlive its promise.
        """
        spec = job.decision.spec
        result, task_failure = self.warm.execute(
            self._task_for(job),
            timeout_s=spec.timeout_s,
            max_attempts=spec.max_attempts,
            backoff_base_s=0.05,
            backoff_max_s=1.0,
            deadline_s=deadline_s,
        )
        if task_failure is None:
            return result, None
        failure = task_failure.to_record()
        failure["error"] = "task_failed"
        return None, failure

    def to_record(self) -> Dict[str, Any]:
        record = {
            "n_workers": self.n_workers,
            "running": not self.app.queue.paused,
            "inflight": len(self._inflight),
            "n_campaign_executions": self.n_campaign_executions,
            "n_dedupe_joins": self.n_dedupe_joins,
        }
        if self.warm is not None:
            record["warm"] = self.warm.to_record()
        return record
