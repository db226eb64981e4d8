"""Traced ``repro serve``: spans around each service layer's public calls.

Usage::

    python3 perfbench/launcher.py SPANS.json serve --state-dir DIR --port 0

The launcher wraps the public functions and methods where
``repro.service.app`` and the worker bridge look them up, then runs
``repro.cli.main(["serve", ...])`` unchanged in this process -- same
topology, same defaults, same warm workers -- and writes the spans as
JSON when the server exits.  Spans are kept in memory until then.

Timestamps are ``time.monotonic()`` (CLOCK_MONOTONIC), so the benchmark
client can subtract them from its own receipt times.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Child-time accumulator of the ``ServiceApp.dispatch`` call in progress.
_DISPATCH: contextvars.ContextVar[Optional[List[float]]] = \
    contextvars.ContextVar("dispatch", default=None)


class Tracer:
    """Span and count recorder for one server process."""

    def __init__(self) -> None:
        self.dispatch: List[List[Any]] = []    # [job_id, t0, t1, self_s]
        self.calls: Dict[str, List[float]] = {
            "validate": [], "negotiate": [], "store_get": [],
        }
        self.rewrites = 0
        self.journal: List[List[Any]] = []     # [job_id, duration, durable]
        self.submitted: Dict[str, float] = {}  # job_id -> t
        self.popped: Dict[str, float] = {}     # job_id -> t
        self.job_keys: Dict[str, str] = {}    # job_id -> key
        self.execute: List[List[Any]] = []     # [key, t0, t1]
        self.put: List[List[Any]] = []         # [key, t0, t1]
        self.completed: Dict[str, float] = {}  # job_id -> t

    # -- wrapping helpers ----------------------------------------------

    @staticmethod
    def _charge(duration: float) -> None:
        acc = _DISPATCH.get()
        if acc is not None:
            acc[0] += duration

    def _timed(self, fn, sink: List[float], after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            result = fn(*args, **kwargs)
            duration = time.monotonic() - t0
            sink.append(duration)
            self._charge(duration)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def install(self) -> None:
        from repro.campaign.warmpool import WarmPool
        from repro.service import app as app_mod
        from repro.service.app import ServiceApp
        from repro.service.jobs import Job
        from repro.service.journal import JobJournal
        from repro.service.queue import AsyncFairQueue
        from repro.service.store import SharedResultStore

        tracer = self

        def count_rewrite(args, decision) -> None:
            if decision.mode == "exact_fallback":
                tracer.rewrites += 1

        app_mod.validate_job_request = self._timed(
            app_mod.validate_job_request, self.calls["validate"])
        app_mod.negotiate = self._timed(
            app_mod.negotiate, self.calls["negotiate"], count_rewrite)
        SharedResultStore.get = self._timed(
            SharedResultStore.get, self.calls["store_get"])

        dispatch = ServiceApp.dispatch

        @functools.wraps(dispatch)
        async def traced_dispatch(app, request):
            acc = [0.0]
            token = _DISPATCH.set(acc)
            t0 = time.monotonic()
            try:
                outcome = await dispatch(app, request)
            finally:
                t1 = time.monotonic()
                _DISPATCH.reset(token)
            job_id = None
            if request.method == "POST" and getattr(outcome, "status", 0) in (
                    200, 202):
                job_id = json.loads(outcome.body).get("job_id")
            tracer.dispatch.append([job_id, t0, t1, (t1 - t0) - acc[0]])
            return outcome

        ServiceApp.dispatch = traced_dispatch

        append = JobJournal.append

        @functools.wraps(append)
        def traced_append(journal, record, durable=False):
            t0 = time.monotonic()
            append(journal, record, durable=durable)
            duration = time.monotonic() - t0
            tracer.journal.append([record.get("job"), duration, durable])
            tracer._charge(duration)

        JobJournal.append = traced_append

        submit = AsyncFairQueue.submit_nowait

        @functools.wraps(submit)
        def traced_submit(queue, tenant, item, *args, **kwargs):
            t0 = time.monotonic()
            seq = submit(queue, tenant, item, *args, **kwargs)
            tracer.submitted[item.job_id] = t0
            tracer.job_keys[item.job_id] = item.key
            tracer._charge(time.monotonic() - t0)
            return seq

        AsyncFairQueue.submit_nowait = traced_submit

        get = AsyncFairQueue.get

        @functools.wraps(get)
        async def traced_get(queue):
            entry = await get(queue)
            tracer.popped[entry[1].job_id] = time.monotonic()
            return entry

        AsyncFairQueue.get = traced_get

        def interval(fn, sink, key_of):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.monotonic()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sink.append([key_of(args), t0, time.monotonic()])
            return wrapper

        WarmPool.execute = interval(
            WarmPool.execute, self.execute, lambda args: args[1].key)
        SharedResultStore.put = interval(
            SharedResultStore.put, self.put, lambda args: args[1])

        complete = Job.complete

        @functools.wraps(complete)
        def traced_complete(job, *args, **kwargs):
            tracer.completed.setdefault(job.job_id, time.monotonic())
            return complete(job, *args, **kwargs)

        Job.complete = traced_complete

    def to_record(self) -> Dict[str, Any]:
        return {
            name: getattr(self, name) for name in (
                "dispatch", "calls", "rewrites", "journal",
                "submitted", "popped", "job_keys", "execute", "put",
                "completed",
            )
        }


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, serve_argv = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(serve_argv)
    finally:
        tmp = spans_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.to_record()))
        tmp.replace(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
