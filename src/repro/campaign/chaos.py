"""Chaos task kinds: pathological workloads for hardening the runner.

Fault-sweep campaigns are *full* of pathological tasks -- configurations
that crash a worker, hang in a corner case, or fail transiently under
load.  These registered kinds reproduce each pathology on demand so the
runner's containment (timeouts, retries, quarantine) can be exercised by
the chaos test-suite, the nightly chaos CI job, and ad-hoc soak runs:

============== =======================================================
kind           behaviour
============== =======================================================
``chaos_ok``   returns ``{"value": params["x"] ** 2}`` immediately
``chaos_error``raises ``ValueError`` on every attempt
``chaos_crash``SIGKILLs its own worker process (hard crash, no
               traceback ever escapes)
``chaos_hang`` sleeps ``params["sleep_s"]`` seconds (default 3600)
``chaos_stubborn`` ignores SIGTERM, then hangs -- reapers must
               escalate to SIGKILL to reclaim the worker
``chaos_flaky``fails with ``RuntimeError`` for the first
               ``params["fail_times"]`` attempts, then succeeds; the
               attempt counter lives in ``params["scratch_dir"]`` so it
               survives worker isolation
``chaos_probe``sleeps ``params["sleep_s"]``, then appends one line to
               ``params["probe_file"]`` -- an execution counter for
               exactly-once assertions across service restarts
============== =======================================================

All kinds are deterministic given their params (plus, for
``chaos_flaky``, the scratch directory's attempt history), so they are
safe to cache like any other task.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Any, Dict

from .registry import register

__all__ = ["CHAOS_KINDS"]

CHAOS_KINDS = (
    "chaos_ok", "chaos_error", "chaos_crash", "chaos_hang",
    "chaos_stubborn", "chaos_flaky", "chaos_probe",
)


@register("chaos_ok")
def _chaos_ok(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A healthy task: deterministic function of params and seed."""
    x = int(params.get("x", 0))
    return {"value": x * x, "seed": seed}


@register("chaos_error")
def _chaos_error(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Raises on every attempt (the always-broken task)."""
    raise ValueError(params.get("message", "chaos_error: injected failure"))


@register("chaos_crash")
def _chaos_crash(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Hard-kills its own worker: no exception, no cleanup, no result."""
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)  # pragma: no cover - unreachable; SIGKILL is immediate
    return {}


@register("chaos_hang")
def _chaos_hang(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Wedges the worker well past any sane per-task timeout."""
    time.sleep(float(params.get("sleep_s", 3600.0)))
    return {"slept": True}


@register("chaos_stubborn")
def _chaos_stubborn(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Ignores SIGTERM and then hangs: only SIGKILL reclaims the worker.

    Exercises the terminate-then-kill escalation of warm-pool
    recycling.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(float(params.get("sleep_s", 3600.0)))
    return {"slept": True}


@register("chaos_flaky")
def _chaos_flaky(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Fails the first ``fail_times`` attempts, then succeeds.

    Attempt history is a set of marker files under ``scratch_dir``
    (created with ``O_EXCL`` so concurrent attempts cannot double-count),
    which works across process isolation boundaries.
    """
    scratch = Path(params["scratch_dir"])
    scratch.mkdir(parents=True, exist_ok=True)
    fail_times = int(params.get("fail_times", 2))
    for attempt in range(1, fail_times + 2):
        marker = scratch / f"attempt-{attempt}"
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        if attempt <= fail_times:
            raise RuntimeError(
                f"chaos_flaky: injected failure {attempt}/{fail_times}"
            )
        return {"value": int(params.get("x", 0)), "attempts": attempt}
    return {"value": int(params.get("x", 0)), "attempts": fail_times + 1}


@register("chaos_probe")
def _chaos_probe(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Sleeps, then appends one line to ``probe_file``: a side-effect probe.

    The order matters: a worker killed mid-sleep leaves *zero* lines,
    so after a crash-and-restart the line count equals the number of
    executions that ran to completion -- the observable the
    kill-restart suite asserts is exactly one per unique task.  The
    append is a single ``O_APPEND`` write (atomic for short lines on
    POSIX), so concurrent completions cannot interleave bytes.
    """
    time.sleep(float(params.get("sleep_s", 0.0)))
    line = f"{params.get('x', 0)} seed={seed}\n".encode("utf-8")
    fd = os.open(
        params["probe_file"], os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
    )
    try:
        os.write(fd, line)
    finally:
        os.close(fd)
    return {"value": int(params.get("x", 0)), "probed": True}
