"""Service front-end throughput: cached hits, fan-in, and engine ratio.

Drives the approximate-compute service entirely in-process (the same
transport-stub path as ``tests/service``): a real ``ServiceApp`` with
its worker pool, fair queue, and shared store, minus socket noise, so
the numbers isolate the service stack itself.  Clients speak HTTP/1.1
**keep-alive**: many requests are pipelined down one connection and
each response is read back by its ``Content-Length`` frame, exactly
like a reusing client library would.

Measured:

* **cached-hit latency** -- microseconds for a POST /v1/jobs answered
  200 straight from the content-addressed memory tier;
* **keep-alive pipelining** -- the same cached hits batched down a
  single persistent connection, in responses/s;
* **throughput at 32 concurrent clients** -- 32 unique jobs across 4
  tenants, submitted concurrently and drained by the pool, in jobs/s;
* **dedupe fan-in** -- 32 concurrent *identical* jobs: one campaign
  execution, everyone served;
* **hardened engine ratio** -- the same 32 unique jobs *with a
  per-task ``timeout_s``* (the hardened path) drained twice: once with
  the worker pool's task runner patched to the spawn-per-task baseline
  of ``_spawn.py`` (a fresh process per job) and once on the service's
  warm persistent pool.  Both runs use identical keep-alive clients, so
  the ratio isolates the execution engine.

Smoke gates (kept deliberately loose for CI containers): a cached hit
answers in under 50 ms, the 32-client drain sustains >= 5 jobs/s, the
dedupe fan-in executes exactly once, and the warm engine drains the
hardened sweep >= 2x faster than spawn-per-task.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time

from repro.service.app import ServiceApp, ServiceConfig
from repro.service.http import handle_connection
from repro.service.tenants import TenantConfig

from _spawn import spawn_per_task
from _util import emit

N_CLIENTS = 32
N_TENANTS = 4
N_HIT_SAMPLES = 200
PIPELINE_DEPTH = 8
HARDENED_TIMEOUT_S = 10.0

GATE_CACHED_HIT_MS = 50.0
GATE_JOBS_PER_S = 5.0
GATE_WARM_SPEEDUP = 2.0


class _SinkWriter:
    def __init__(self) -> None:
        self.buffer = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        self.buffer.extend(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        return None


def _post(payload: dict, tenant: str) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"POST /v1/jobs HTTP/1.1\r\nHost: bench\r\nX-Tenant: {tenant}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def _split_responses(raw: bytes) -> list:
    """Parse back-to-back Content-Length-framed responses into JSON."""
    out = []
    view = bytes(raw)
    while view:
        head, sep, rest = view.partition(b"\r\n\r\n")
        if not sep:
            break
        length = 0
        for line in head.decode("latin-1").split("\r\n"):
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        out.append(json.loads(rest[:length]))
        view = rest[length:]
    return out


async def _pipelined(app: ServiceApp, raws: list) -> list:
    """Send many requests down ONE keep-alive connection; parse all."""
    reader = asyncio.StreamReader()
    for raw in raws:
        reader.feed_data(raw)
    reader.feed_eof()
    writer = _SinkWriter()
    await handle_connection(app, reader, writer)
    responses = _split_responses(bytes(writer.buffer))
    assert len(responses) == len(raws), (
        f"pipelined {len(raws)} requests, parsed {len(responses)} responses"
    )
    return responses


async def _request(app: ServiceApp, raw: bytes) -> dict:
    return (await _pipelined(app, [raw]))[0]


def _hardened_submits(seed_base: int) -> list:
    return [
        _post(
            {"kind": "analytic", "params": {"n": 8, "r": 2, "p": 2},
             "seed": seed_base + i, "timeout_s": HARDENED_TIMEOUT_S},
            tenant=f"t{i % N_TENANTS}",
        )
        for i in range(N_CLIENTS)
    ]


def _tenants() -> dict:
    return {
        f"t{i}": TenantConfig(name=f"t{i}", weight=float(1 << i))
        for i in range(N_TENANTS)
    }


def _spawn_run_one(pool):
    """A ``WorkerPool._run_one`` that spawns a fresh process per job."""
    def run_one(job, deadline_s=None):
        (result,) = spawn_per_task(
            [pool._task_for(job)], timeout_s=job.decision.spec.timeout_s
        )
        return result, None
    return run_one


async def _drain_hardened(engine: str, seed_base: int) -> float:
    """32 unique hardened jobs over keep-alive pipelines; wall seconds."""
    app = ServiceApp(ServiceConfig(n_workers=4, tenants=_tenants()))
    if engine == "spawn":
        app.pool._run_one = _spawn_run_one(app.pool)
    await app.start()
    try:
        submits = _hardened_submits(seed_base)
        chunks = [
            submits[i:i + PIPELINE_DEPTH]
            for i in range(0, len(submits), PIPELINE_DEPTH)
        ]
        start = time.perf_counter()
        accepted = await asyncio.gather(*(
            _pipelined(app, chunk) for chunk in chunks
        ))
        flat = [a for chunk in accepted for a in chunk]
        await asyncio.gather(*(
            app.jobs[a["job_id"]].done.wait() for a in flat
        ))
        wall_s = time.perf_counter() - start
        for a in flat:
            job = app.jobs[a["job_id"]]
            assert job.state == "done", (engine, job.to_record())
    finally:
        await app.stop()
    return wall_s


async def bench() -> list:
    app = ServiceApp(ServiceConfig(n_workers=4, tenants=_tenants()))
    await app.start()
    rows = []
    try:
        # -- throughput: 32 unique jobs, 4 tenants, drained by the pool
        submits = [
            _post(
                {"kind": "analytic", "params": {"n": 8, "r": 2, "p": 2},
                 "seed": 7000 + i},
                tenant=f"t{i % N_TENANTS}",
            )
            for i in range(N_CLIENTS)
        ]
        start = time.perf_counter()
        accepted = await asyncio.gather(*(
            _request(app, raw) for raw in submits
        ))
        await asyncio.gather(*(
            app.jobs[a["job_id"]].done.wait() for a in accepted
        ))
        drain_s = time.perf_counter() - start
        unique_jobs_per_s = N_CLIENTS / drain_s
        rows.append({
            "metric": "unique_32_clients",
            "jobs": N_CLIENTS,
            "wall_s": round(drain_s, 4),
            "jobs_per_s": round(unique_jobs_per_s, 1),
            "executions": app.pool.n_campaign_executions,
        })

        # -- dedupe fan-in: 32 identical jobs, one execution
        before = app.pool.n_campaign_executions
        identical = [
            _post(
                {"kind": "analytic", "params": {"n": 12, "r": 3, "p": 3},
                 "seed": 1},
                tenant=f"t{i % N_TENANTS}",
            )
            for i in range(N_CLIENTS)
        ]
        start = time.perf_counter()
        accepted = await asyncio.gather(*(
            _request(app, raw) for raw in identical
        ))
        await asyncio.gather(*(
            app.jobs[a["job_id"]].done.wait() for a in accepted
        ))
        fanin_s = time.perf_counter() - start
        fanin_execs = app.pool.n_campaign_executions - before
        rows.append({
            "metric": "dedupe_32_identical",
            "jobs": N_CLIENTS,
            "wall_s": round(fanin_s, 4),
            "jobs_per_s": round(N_CLIENTS / fanin_s, 1),
            "executions": fanin_execs,
        })

        # -- cached-hit latency: repeat POSTs served 200 from memory
        warm = _post(
            {"kind": "analytic", "params": {"n": 8, "r": 2, "p": 2},
             "seed": 7000},
            tenant="t0",
        )
        laps = []
        for _ in range(N_HIT_SAMPLES):
            start = time.perf_counter()
            response = await _request(app, warm)
            laps.append(time.perf_counter() - start)
            assert response["served_from"] == "cache", response
        hit_us = [lap * 1e6 for lap in laps]
        rows.append({
            "metric": "cached_hit_latency",
            "samples": N_HIT_SAMPLES,
            "median_us": round(statistics.median(hit_us), 1),
            "p95_us": round(sorted(hit_us)[int(0.95 * len(hit_us))], 1),
            "mean_us": round(statistics.fmean(hit_us), 1),
        })

        # -- keep-alive pipelining: the same hits, one connection
        start = time.perf_counter()
        responses = await _pipelined(app, [warm] * N_HIT_SAMPLES)
        pipeline_s = time.perf_counter() - start
        assert all(r["served_from"] == "cache" for r in responses)
        rows.append({
            "metric": "keepalive_pipelined_hits",
            "samples": N_HIT_SAMPLES,
            "wall_s": round(pipeline_s, 4),
            "responses_per_s": round(N_HIT_SAMPLES / pipeline_s, 1),
        })
    finally:
        await app.stop()

    # -- hardened engine ratio: identical sweep, both engines ----------
    spawn_s = await _drain_hardened("spawn", seed_base=9000)
    warm_s = await _drain_hardened("warm", seed_base=9000)
    speedup = spawn_s / warm_s if warm_s > 0 else float("inf")
    rows.append({
        "metric": "hardened_32_spawn",
        "jobs": N_CLIENTS,
        "wall_s": round(spawn_s, 4),
        "jobs_per_s": round(N_CLIENTS / spawn_s, 1),
    })
    rows.append({
        "metric": "hardened_32_warm",
        "jobs": N_CLIENTS,
        "wall_s": round(warm_s, 4),
        "jobs_per_s": round(N_CLIENTS / warm_s, 1),
        "speedup": round(speedup, 2),
    })

    # -- smoke gates -----------------------------------------------------
    assert rows[1]["executions"] == 1, (
        f"dedupe fan-in must execute once, got {rows[1]['executions']}"
    )
    median_ms = rows[2]["median_us"] / 1e3
    assert median_ms < GATE_CACHED_HIT_MS, (
        f"cached hit median {median_ms:.2f} ms >= {GATE_CACHED_HIT_MS} ms"
    )
    assert unique_jobs_per_s >= GATE_JOBS_PER_S, (
        f"throughput {unique_jobs_per_s:.1f} jobs/s < {GATE_JOBS_PER_S}"
    )
    assert speedup >= GATE_WARM_SPEEDUP, (
        f"hardened warm speedup {speedup:.2f}x < gate {GATE_WARM_SPEEDUP}x "
        f"(spawn {spawn_s:.3f}s vs warm {warm_s:.3f}s)"
    )
    return rows


def main() -> None:
    rows = asyncio.run(bench())
    width = max(len(r["metric"]) for r in rows)
    lines = [
        f"{r['metric']:<{width}}  "
        + "  ".join(
            f"{k}={v}" for k, v in r.items() if k != "metric"
        )
        for r in rows
    ]
    emit(
        "service_throughput",
        "\n".join(lines),
        data=rows,
        config={
            "n_clients": N_CLIENTS,
            "n_tenants": N_TENANTS,
            "n_hit_samples": N_HIT_SAMPLES,
            "pipeline_depth": PIPELINE_DEPTH,
            "hardened_timeout_s": HARDENED_TIMEOUT_S,
            "gate_cached_hit_ms": GATE_CACHED_HIT_MS,
            "gate_jobs_per_s": GATE_JOBS_PER_S,
            "gate_warm_speedup": GATE_WARM_SPEEDUP,
        },
    )


if __name__ == "__main__":
    main()
