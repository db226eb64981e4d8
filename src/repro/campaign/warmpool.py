"""Warm persistent worker pool: the campaign engine for isolated work.

Spawning a fresh ``multiprocessing.Process`` per task attempt buys
fault containment at a steep price: every attempt pays a full spawn
(fork + pipe setup + scheduler churn, milliseconds) before the task --
often hundreds of microseconds of real work -- even starts.  For the
short tasks that dominate service traffic and fine-grained sweeps,
dispatch would be the bottleneck, not compute.

:class:`WarmPool` keeps the containment and kills the overhead:

* **Pre-forked, long-lived workers** -- each worker process is spawned
  once, imports the heavy dependency stack once
  (:data:`PRELOAD_MODULES`), and then executes a *stream* of tasks over
  a duplex pipe.  A task dispatch is one pickle round-trip (~10 us)
  instead of one process spawn (~2-4 ms).
* **Micro-batched dispatch** -- the campaign scheduler sends up to
  ``batch_size`` tasks per pipe message and the worker streams results
  back one message per task, so pipe wakeups amortize across a batch
  while per-task timeout verdicts stay exact.
* **Deadline enforcement by recycling** -- a worker that wedges past a
  task's ``timeout_s`` (or dies under it) is SIGTERM/SIGKILLed and a
  fresh worker forked in its place; tasks queued behind the dead head
  migrate to the replacement without being charged an attempt.  Retry,
  deterministic backoff, quarantine, and the
  :class:`~repro.campaign.runner.TaskFailure` schema match the serial
  in-process path of :func:`~repro.campaign.runner.run_campaign`.
* **Two front-ends** -- the single-threaded campaign scheduler
  (:meth:`WarmPool.run_tasks`, used by
  :func:`~repro.campaign.runner.run_campaign` for every campaign that
  needs isolation) and a thread-safe lease API
  (:meth:`WarmPool.execute`) for concurrent submitters such as the
  service's worker bridge (:mod:`repro.service.workers`).

Worker state *persists across tasks* -- that is the whole point.  A
worker whose task crashed it or ran past its timeout is recycled
before it serves another task; a task that merely raises leaves its
worker serving.
"""

from __future__ import annotations

import importlib
import multiprocessing
import multiprocessing.connection
import queue as thread_queue
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from .registry import execute_task
from .task import CampaignTask

__all__ = ["WarmPool", "PRELOAD_MODULES"]

#: Modules a fresh worker imports before serving tasks, so the first
#: task of a worker's life does not pay the import bill.  Best-effort:
#: a module that fails to import is skipped (task bodies import what
#: they actually need anyway).
PRELOAD_MODULES = (
    "numpy",
    "repro.errors.analytic",
    "repro.adders.gear",
    "repro.adders.hetero",
)

#: Grace period between SIGTERM and SIGKILL when recycling a worker.
_KILL_GRACE_S = 0.25


def _preload() -> None:
    for name in PRELOAD_MODULES:
        try:
            importlib.import_module(name)
        except Exception:  # noqa: BLE001 - preloading is best-effort
            pass


def _worker_main(conn) -> None:
    """Child-process body: serve micro-batches of tasks until EOF.

    Protocol: the parent sends either ``None`` (shut down) or a list of
    :class:`CampaignTask`; the worker answers **one message per task**,
    in order -- ``("ok", result, elapsed_s)`` or
    ``("error", type_name, message, traceback)`` -- so the parent can
    time out and harvest tasks individually even under batching.
    """
    _preload()
    while True:
        try:
            batch = conn.recv()
        except (EOFError, OSError):
            break
        if batch is None:
            break
        for task in batch:
            try:
                start = time.perf_counter()
                result = execute_task(task)
                message: Tuple[Any, ...] = (
                    "ok", result, time.perf_counter() - start
                )
            except BaseException as exc:  # noqa: BLE001 - process edge
                message = (
                    "error",
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(limit=20),
                )
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                return
    try:
        conn.close()
    except OSError:
        pass


class _WorkerHandle:
    """Parent-side view of one long-lived worker process."""

    def __init__(self, context) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.n_dispatched = 0  # tasks ever sent to this worker

    def dispatch(self, tasks: List[CampaignTask]) -> None:
        self.conn.send(tasks)
        self.n_dispatched += len(tasks)

    def kill(self) -> Optional[int]:
        """Terminate (then SIGKILL) the worker; returns its exit code."""
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(_KILL_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()
        else:
            process.join()
        try:
            self.conn.close()
        except OSError:
            pass
        return process.exitcode


def _timeout_failure(attempt: int, timeout_s: float, elapsed_s: float):
    from .runner import TaskAttemptFailure

    return TaskAttemptFailure(
        attempt=attempt,
        outcome="timeout",
        error_type=None,
        message=f"attempt exceeded timeout_s={timeout_s}",
        elapsed_s=elapsed_s,
    )


def _crash_failure(attempt: int, exitcode: Optional[int], elapsed_s: float):
    from .runner import TaskAttemptFailure

    return TaskAttemptFailure(
        attempt=attempt,
        outcome="crash",
        error_type=None,
        message=f"worker died with exit code {exitcode}",
        elapsed_s=elapsed_s,
    )


def _classify_message(
    message: tuple,
    attempt: int,
    timeout_s: Optional[float],
    elapsed_s: float,
) -> Tuple[str, Any]:
    """Map one worker message to ``("ok", (result, task_elapsed))`` or
    ``("fail", TaskAttemptFailure)``.

    An attempt that *completed* over budget by the worker's own clock
    is rejected as a timeout, so verdicts never depend on parent
    polling latency.
    """
    from .runner import TaskAttemptFailure

    if message[0] == "ok":
        task_elapsed = message[2]
        if timeout_s is not None and task_elapsed > timeout_s:
            return "fail", _timeout_failure(attempt, timeout_s, task_elapsed)
        return "ok", (message[1], task_elapsed)
    _, error_type, text, trace = message
    return "fail", TaskAttemptFailure(
        attempt=attempt,
        outcome="error",
        error_type=error_type,
        message=(text or trace.strip().splitlines()[-1])[:500],
        elapsed_s=elapsed_s,
    )


class WarmPool:
    """Persistent pre-forked workers executing streams of campaign tasks.

    Args:
        n_workers: Long-lived worker processes to keep warm.
        batch_size: Upper bound on tasks sent per pipe message by the
            campaign scheduler (:meth:`run_tasks`); amortizes pipe
            wakeups without widening any timeout window.
        max_tasks_per_worker: Optional hygiene bound -- a worker that
            has executed this many tasks is recycled at the next idle
            moment, bounding cross-task state accumulation.
        context: ``multiprocessing`` context (defaults to the platform
            default).

    The pool is a context manager; :meth:`close` (or ``with``-exit)
    kills every worker.  Counters (:attr:`n_spawned`,
    :attr:`n_recycled`, :attr:`n_tasks_done`) feed benchmarks, the
    service stats endpoint, and the chaos suite.
    """

    def __init__(
        self,
        n_workers: int = 1,
        batch_size: int = 4,
        max_tasks_per_worker: Optional[int] = None,
        context=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.n_workers = n_workers
        self.batch_size = batch_size
        self.max_tasks_per_worker = max_tasks_per_worker
        self.context = context or multiprocessing.get_context()
        self._idle: "thread_queue.Queue[_WorkerHandle]" = thread_queue.Queue()
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self.n_spawned = 0
        self.n_recycled = 0
        self.n_tasks_done = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WarmPool":
        """Fork the workers (idempotent); returns ``self`` for chaining."""
        with self._lock:
            if self._closed:
                raise RuntimeError("warm pool already closed")
            if self._started:
                return self
            self._started = True
            for _ in range(self.n_workers):
                self._idle.put(self._spawn())
        return self

    def close(self) -> None:
        """Kill every idle worker and refuse further work (idempotent).

        Leased workers are killed by their leaseholder on release.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                worker = self._idle.get_nowait()
            except thread_queue.Empty:
                break
            worker.kill()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WarmPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self) -> _WorkerHandle:
        handle = _WorkerHandle(self.context)
        self.n_spawned += 1
        return handle

    def _recycle(
        self, worker: _WorkerHandle
    ) -> Tuple[Optional[int], Optional[_WorkerHandle]]:
        """Kill ``worker``; fork a replacement unless the pool is closed."""
        exitcode = worker.kill()
        self.n_recycled += 1
        if self._closed:
            return exitcode, None
        return exitcode, self._spawn()

    def _lease(self) -> _WorkerHandle:
        """Check one worker out (thread-safe); blocks until one is free."""
        if not self._started:
            self.start()
        while True:
            if self._closed:
                raise RuntimeError("warm pool closed")
            try:
                return self._idle.get(timeout=0.1)
            except thread_queue.Empty:
                continue

    def _release(self, worker: Optional[_WorkerHandle]) -> None:
        """Return a clean worker to the idle set (recycling a tired one)."""
        if worker is None:
            return
        if self._closed:
            worker.kill()
            return
        if (
            self.max_tasks_per_worker is not None
            and worker.n_dispatched >= self.max_tasks_per_worker
        ):
            _, worker = self._recycle(worker)
            if worker is None:
                return
        self._idle.put(worker)

    def to_record(self) -> Dict[str, Any]:
        return {
            "n_workers": self.n_workers,
            "batch_size": self.batch_size,
            "n_spawned": self.n_spawned,
            "n_recycled": self.n_recycled,
            "n_tasks_done": self.n_tasks_done,
            "closed": self._closed,
        }

    # -- thread-safe single-task front-end (service bridge) ------------

    def execute(
        self,
        task: CampaignTask,
        timeout_s: Optional[float] = None,
        max_attempts: int = 1,
        backoff_base_s: float = 0.1,
        backoff_max_s: float = 5.0,
        deadline_s: Optional[float] = None,
    ):
        """Run one task with full hardened semantics on a leased worker.

        Retries, deterministic backoff, timeout verdicts, and the
        quarantine record are bit-compatible with a single-task
        :func:`~repro.campaign.runner.run_campaign`: the same result or
        the same :class:`~repro.campaign.runner.TaskFailure` comes
        back.  Thread-safe -- concurrent callers lease distinct
        workers.

        ``deadline_s`` is an *absolute budget across all attempts*
        (the service's end-to-end deadline, already net of queue wait):
        each attempt's timeout is clamped to the remaining budget,
        backoff sleeps never overrun it, and once it is spent the
        remaining retries are abandoned with a ``timeout`` attempt
        record instead of being burned on an answer nobody will read.

        Returns:
            ``(result, None)`` on success, ``(None, TaskFailure)``
            after the last failed attempt.
        """
        from .runner import TaskAttemptFailure, TaskFailure, _backoff_delay

        max_attempts = max(1, max_attempts)
        deadline_at = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        failures: List[TaskAttemptFailure] = []
        for attempt in range(1, max_attempts + 1):
            attempt_timeout = timeout_s
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0.0:
                    failures.append(TaskAttemptFailure(
                        attempt=attempt,
                        outcome="timeout",
                        error_type=None,
                        message=(
                            f"deadline budget ({deadline_s:.3f}s) exhausted "
                            f"before attempt {attempt}"
                        ),
                        elapsed_s=0.0,
                    ))
                    break
                attempt_timeout = (
                    remaining if attempt_timeout is None
                    else min(attempt_timeout, remaining)
                )
            try:
                worker = self._lease()
            except RuntimeError:
                failures.append(TaskAttemptFailure(
                    attempt=attempt,
                    outcome="crash",
                    error_type=None,
                    message="warm pool closed during execution",
                    elapsed_s=0.0,
                ))
                break
            outcome, worker = self._attempt(
                worker, task, attempt_timeout, attempt
            )
            self._release(worker)
            if outcome[0] == "ok":
                self.n_tasks_done += 1
                return outcome[1][0], None
            failures.append(outcome[1])
            if attempt < max_attempts and not self._closed:
                delay = _backoff_delay(
                    task, attempt, backoff_base_s, backoff_max_s
                )
                if deadline_at is not None:
                    delay = min(delay, max(0.0, deadline_at - time.monotonic()))
                time.sleep(delay)
        return None, TaskFailure(
            index=0,
            key=task.key,
            kind=task.kind,
            params=dict(task.params),
            seed=task.seed,
            attempts=failures,
        )

    def _attempt(
        self,
        worker: _WorkerHandle,
        task: CampaignTask,
        timeout_s: Optional[float],
        attempt: int,
    ) -> Tuple[Tuple[str, Any], Optional[_WorkerHandle]]:
        """One attempt on a leased worker.

        Returns ``(outcome, worker)`` where ``outcome`` is as produced
        by :func:`_classify_message` and ``worker`` is the (possibly
        freshly respawned) handle to release.
        """
        started = time.monotonic()
        deadline = started + timeout_s if timeout_s is not None else None
        try:
            worker.dispatch([task])
        except (BrokenPipeError, OSError):
            exitcode, worker = self._recycle(worker)
            return ("fail", _crash_failure(
                attempt, exitcode, time.monotonic() - started
            )), worker
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                _, worker = self._recycle(worker)
                return ("fail", _timeout_failure(
                    attempt, timeout_s, now - started
                )), worker
            wait = 0.05 if deadline is None else min(
                0.05, max(0.001, deadline - now)
            )
            try:
                if not worker.conn.poll(wait):
                    continue
                message = worker.conn.recv()
            except (EOFError, OSError):
                # The worker died under the task (e.g. killed itself).
                exitcode, worker = self._recycle(worker)
                return ("fail", _crash_failure(
                    attempt, exitcode, time.monotonic() - started
                )), worker
            return _classify_message(
                message, attempt, timeout_s, time.monotonic() - started
            ), worker

    # -- campaign scheduler front-end ----------------------------------

    def run_tasks(
        self,
        to_run: List[Tuple[int, CampaignTask]],
        on_success: Callable[[int, Any, float], None],
        on_quarantine: Callable[[Any], None],
        stats,
        timeout_s: Optional[float] = None,
        max_attempts: int = 1,
        backoff_base_s: float = 0.1,
        backoff_max_s: float = 5.0,
    ) -> None:
        """Stream a campaign's unique tasks over the warm workers.

        Single-threaded scheduler with per-attempt timeouts, retries
        and quarantine, dispatching micro-batches onto persistent
        workers.  Checks every worker out of the lease queue for the
        duration, so a pool shared with a service bridge is driven
        safely by one front-end at a time per worker.
        """
        workers = [self._lease() for _ in range(self.n_workers)]
        scheduler = _WarmScheduler(
            pool=self,
            workers=workers,
            timeout_s=timeout_s,
            max_attempts=max(1, max_attempts),
            backoff_base_s=backoff_base_s,
            backoff_max_s=backoff_max_s,
            stats=stats,
        )
        try:
            scheduler.run(to_run, on_success, on_quarantine)
        finally:
            for i, worker in enumerate(scheduler.workers):
                if worker is None:
                    continue
                if scheduler.states[i].slots:
                    # Aborted mid-flight (e.g. raise_on_error): the pipe
                    # still carries unread results -- never return a
                    # dirty worker to the idle set.
                    _, replacement = self._recycle(worker)
                    self._release(replacement)
                else:
                    self._release(worker)


class _InFlight:
    """Tasks queued on one worker: a FIFO whose head is executing."""

    def __init__(self) -> None:
        self.slots: deque = deque()     # of runner._Pending
        self.head_started: float = 0.0  # when the head began executing


class _WarmScheduler:
    """Single-threaded micro-batching dispatcher over warm workers.

    Workers are addressed by list index; recycling swaps the handle at
    an index in place (``None`` if the closed pool refuses a
    replacement), so per-worker in-flight state survives a respawn.
    """

    def __init__(
        self,
        pool: WarmPool,
        workers: List[_WorkerHandle],
        timeout_s: Optional[float],
        max_attempts: int,
        backoff_base_s: float,
        backoff_max_s: float,
        stats,
    ) -> None:
        self.pool = pool
        self.workers: List[Optional[_WorkerHandle]] = list(workers)
        self.states = [_InFlight() for _ in workers]
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.stats = stats

    def run(self, to_run, on_success, on_quarantine) -> None:
        from .runner import _Pending

        pending = deque(_Pending(index, task) for index, task in to_run)
        while pending or any(state.slots for state in self.states):
            if all(worker is None for worker in self.workers):
                raise RuntimeError("warm pool closed during campaign")
            self._dispatch(pending)
            self._wait(pending)
            self._harvest(pending, on_success, on_quarantine)
            self._enforce_deadlines(pending, on_quarantine)

    # -- scheduling ----------------------------------------------------

    def _dispatch(self, pending: deque) -> None:
        now = time.monotonic()
        for i, worker in enumerate(self.workers):
            if worker is None or self.states[i].slots or not pending:
                continue
            batch: list = []
            for _ in range(len(pending)):
                if len(batch) >= self.pool.batch_size:
                    break
                slot = pending.popleft()
                if slot.not_before > now:
                    pending.append(slot)
                    continue
                batch.append(slot)
            if not batch:
                continue
            try:
                worker.dispatch([slot.task for slot in batch])
            except (BrokenPipeError, OSError):
                for slot in reversed(batch):
                    pending.appendleft(slot)
                self._replace(i)
                continue
            state = self.states[i]
            state.slots.extend(batch)
            state.head_started = now

    def _wait(self, pending: deque) -> None:
        now = time.monotonic()
        horizon = 0.2
        if self.timeout_s is not None:
            for i, worker in enumerate(self.workers):
                if worker is not None and self.states[i].slots:
                    deadline = self.states[i].head_started + self.timeout_s
                    horizon = min(horizon, deadline - now)
        for slot in pending:
            if slot.not_before > now:
                horizon = min(horizon, slot.not_before - now)
        horizon = max(0.005, horizon)
        conns = [
            worker.conn
            for i, worker in enumerate(self.workers)
            if worker is not None and self.states[i].slots
        ]
        if conns:
            multiprocessing.connection.wait(conns, timeout=horizon)
        elif pending:
            time.sleep(horizon)

    # -- harvesting ----------------------------------------------------

    def _harvest(self, pending, on_success, on_quarantine) -> None:
        for i in range(len(self.workers)):
            while self.workers[i] is not None and self.states[i].slots:
                worker = self.workers[i]
                state = self.states[i]
                try:
                    if not worker.conn.poll():
                        break
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    # Worker died under the head task: crash the head,
                    # migrate the rest, respawn.
                    elapsed = time.monotonic() - state.head_started
                    exitcode = self._replace(i)
                    self.stats.n_crashes += 1
                    self._fail_head(
                        i,
                        _crash_failure(
                            state.slots[0].attempt, exitcode, elapsed
                        ),
                        pending, on_quarantine, requeue_rest=True,
                    )
                    break
                kind, payload = _classify_message(
                    message,
                    state.slots[0].attempt,
                    self.timeout_s,
                    time.monotonic() - state.head_started,
                )
                if kind == "ok":
                    slot = state.slots.popleft()
                    state.head_started = time.monotonic()
                    self.pool.n_tasks_done += 1
                    result, task_elapsed = payload
                    on_success(slot.index, result, task_elapsed)
                else:
                    if payload.outcome == "timeout":
                        self.stats.n_timeouts += 1
                    self._fail_head(i, payload, pending, on_quarantine)

    def _enforce_deadlines(self, pending, on_quarantine) -> None:
        if self.timeout_s is None:
            return
        now = time.monotonic()
        for i, worker in enumerate(self.workers):
            state = self.states[i]
            if worker is None or not state.slots:
                continue
            elapsed = now - state.head_started
            if elapsed < self.timeout_s:
                continue
            self._replace(i)
            self.stats.n_timeouts += 1
            self._fail_head(
                i,
                _timeout_failure(
                    state.slots[0].attempt, self.timeout_s, elapsed
                ),
                pending, on_quarantine, requeue_rest=True,
            )

    def _fail_head(
        self, i, failure, pending, on_quarantine, requeue_rest=False
    ) -> None:
        """Requeue the failed head with backoff, or quarantine it."""
        from .runner import _backoff_delay

        state = self.states[i]
        slot = state.slots.popleft()
        if requeue_rest:
            # Tasks queued behind the dead head never ran: migrate them
            # back to pending without charging an attempt.
            while state.slots:
                pending.appendleft(state.slots.pop())
        state.head_started = time.monotonic()
        slot.failures.append(failure)
        if slot.attempt < self.max_attempts:
            self.stats.n_retries += 1
            delay = _backoff_delay(
                slot.task, slot.attempt,
                self.backoff_base_s, self.backoff_max_s,
            )
            slot.attempt += 1
            slot.not_before = time.monotonic() + delay
            pending.append(slot)
        else:
            on_quarantine(slot)

    def _replace(self, i: int) -> Optional[int]:
        """Recycle worker ``i`` in place; returns the old exit code."""
        worker = self.workers[i]
        exitcode, replacement = self.pool._recycle(worker)
        self.workers[i] = replacement
        return exitcode
