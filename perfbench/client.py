"""Asyncio load generator for ``repro serve``: one job = POST + SSE follow.

Each job opens one loopback connection, POSTs ``/v1/jobs`` and, when the
answer is ``202 Accepted``, follows ``/v1/jobs/<id>/events`` on the same
keep-alive connection until the terminal event.  A ``200`` (a result
served from the store) is already the answer.  Timestamps are
``time.monotonic()`` (CLOCK_MONOTONIC), comparable with the server's.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from gen import Job


@dataclass
class Outcome:
    """What the client saw of one job."""

    job: Job
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    job_id: Optional[str] = None
    terminal: Optional[str] = None
    mode: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.terminal == "completed"

    @property
    def latency_s(self) -> float:
        return self.done - self.due


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def get_json(host: str, port: int, path: str) -> Tuple[int, Any]:
    """One ``GET`` on a fresh connection; ``(status, decoded body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Connection: close\r\n\r\n".encode()
        )
        status, _, body = await _read_response(reader)
    finally:
        await _close(writer)
    return status, json.loads(body) if body else None


async def run_job(host: str, port: int, job: Job, due: float) -> Outcome:
    """POST one job and follow it to its terminal event."""
    out = Outcome(job=job, due=due)
    out.sent = time.monotonic()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = json.dumps(job.payload).encode()
            writer.write(
                (f"POST /v1/jobs HTTP/1.1\r\nHost: bench\r\n"
                 f"X-Tenant: {job.tenant}\r\n"
                 f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n").encode() + body
            )
            out.status, _, raw = await _read_response(reader)
            record = json.loads(raw) if raw else {}
            out.job_id = record.get("job_id")
            out.mode = (record.get("admission") or {}).get("mode")
            if out.status == 200:
                out.terminal = (
                    "completed" if record.get("state") == "done" else "failed"
                )
            elif out.status == 202:
                writer.write(
                    f"GET /v1/jobs/{out.job_id}/events HTTP/1.1\r\n"
                    f"Host: bench\r\n\r\n".encode()
                )
                await reader.readuntil(b"\r\n\r\n")
                while out.terminal is None:
                    frame = await reader.readuntil(b"\n\n")
                    for line in frame.split(b"\n"):
                        if line.startswith(b"event: "):
                            event = line[7:].decode()
                            if event in ("completed", "failed"):
                                out.terminal = event
            else:
                out.error = f"HTTP {out.status}: {raw[:200]!r}"
        finally:
            await _close(writer)
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    out.done = time.monotonic()
    return out


async def open_loop(
    host: str, port: int, jobs: List[Job], offsets: List[float]
) -> Tuple[List[Outcome], List[float], float, float]:
    """Send ``jobs`` on the schedule ``offsets`` regardless of replies.

    Returns the outcomes, the generator's lateness against the schedule
    (seconds, one per job), and the loop's start and end times.
    """
    tasks: List[asyncio.Task] = []
    lags: List[float] = []
    start = time.monotonic()
    for job, offset in zip(jobs, offsets):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, time.monotonic() - due))
        tasks.append(asyncio.create_task(run_job(host, port, job, due)))
    outcomes = await asyncio.gather(*tasks)
    return list(outcomes), lags, start, time.monotonic()


async def closed_loop(
    host: str, port: int, jobs: Iterator[Job], n_clients: int,
    seconds: float,
) -> Tuple[List[Outcome], float, float]:
    """``n_clients`` callers, each sending its next job only after the
    previous one finished, until ``seconds`` have passed."""
    start = time.monotonic()
    stop = start + seconds
    outcomes: List[Outcome] = []

    async def caller() -> None:
        while time.monotonic() < stop:
            outcomes.append(
                await run_job(host, port, next(jobs), time.monotonic())
            )

    await asyncio.gather(*(caller() for _ in range(n_clients)))
    return outcomes, start, time.monotonic()
