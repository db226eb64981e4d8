"""Spawn-per-task baseline for the warm-pool speed gates.

Runs every task in its own freshly started ``multiprocessing.Process``
and sends the result back over a pipe -- the per-task dispatch cost
that :class:`~repro.campaign.warmpool.WarmPool` exists to avoid.  The
runner-overhead and service-throughput benchmarks time the library's
engine against this one baseline, so their ratios keep measuring the
same thing.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
from collections import deque
from typing import Any, List, Optional, Sequence

from repro.campaign import CampaignTask, execute_task


def _child(task: CampaignTask, conn) -> None:
    try:
        conn.send(("ok", execute_task(task)))
    except BaseException as exc:  # noqa: BLE001 - crossing a process edge
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def spawn_per_task(
    tasks: Sequence[CampaignTask],
    n_workers: int = 1,
    timeout_s: Optional[float] = None,
) -> List[Any]:
    """Run ``tasks`` with at most ``n_workers`` one-task processes alive.

    Returns the results in task order.  Raises ``RuntimeError`` if a
    task fails or its process dies, ``TimeoutError`` if no process
    reports within ``timeout_s``.
    """
    results: List[Any] = [None] * len(tasks)
    queued = deque(enumerate(tasks))
    running = {}  # parent pipe end -> (task index, process)
    try:
        while queued or running:
            while queued and len(running) < max(1, n_workers):
                index, task = queued.popleft()
                parent, child = multiprocessing.Pipe(duplex=False)
                process = multiprocessing.Process(
                    target=_child, args=(task, child), daemon=True
                )
                process.start()
                child.close()
                running[parent] = (index, process)
            ready = multiprocessing.connection.wait(
                list(running), timeout=timeout_s
            )
            if not ready:
                raise TimeoutError(f"no task finished within {timeout_s}s")
            for conn in ready:
                index, process = running.pop(conn)
                try:
                    status, payload = conn.recv()
                except EOFError:
                    status, payload = "error", "worker died"
                conn.close()
                process.join()
                if status != "ok":
                    raise RuntimeError(f"task {index} failed: {payload}")
                results[index] = payload
    finally:
        for conn, (_, process) in running.items():
            process.kill()
            process.join()
            conn.close()
    return results
