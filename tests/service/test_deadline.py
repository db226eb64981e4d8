"""End-to-end deadline propagation: a late answer is a wrong answer.

``deadline_ms`` travels from request validation through admission (the
absolute deadline is stamped on the job in *wall* time, so it stays
meaningful across a restart), the queue (aged-out jobs fail fast with
``deadline_exceeded``/``queue_wait`` before touching a worker), and
both execution engines (the remaining budget clamps attempt timeouts
and backoff in the warm pool and the process-per-attempt runner).
"""

from __future__ import annotations

import asyncio

from repro.campaign import CampaignTask, run_campaign
from repro.campaign.warmpool import WarmPool


class FakeWall:
    def __init__(self, t: float = 1_000_000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _job(seed, deadline_ms=None):
    payload = {"kind": "analytic", "params": {"n": 8, "r": 2, "p": 2},
               "seed": seed}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return payload


class TestValidation:
    def test_bad_deadlines_are_structured_400s(self, service_harness):
        async def body():
            async with service_harness(n_workers=1) as (_, client):
                for bad in (0, -5, "soon", 1.5, True):
                    status, rejected = await client.post_job(
                        _job(1, deadline_ms=bad)
                    )
                    assert status == 400, bad
                    assert rejected["field"] == "deadline_ms"

        asyncio.run(body())

    def test_deadline_survives_exact_fallback_rewrite(self, service_harness):
        async def body():
            async with service_harness(n_workers=1) as (app, client):
                payload = _job(1, deadline_ms=60_000)
                payload["params"] = {"n": 8, "r": 2, "p": 2}
                payload["qos"] = {"error_budget": 0.0}
                status, accepted = await client.post_job(payload)
                assert status == 202
                job = app.jobs[accepted["job_id"]]
                assert job.decision.mode == "exact_fallback"
                assert job.spec.deadline_ms == 60_000
                assert job.deadline_at is not None
                await client.wait_done(accepted["job_id"])

        asyncio.run(body())


class TestQueueWait:
    def test_aged_out_job_fails_fast_without_executing(
        self, service_harness
    ):
        wall = FakeWall()

        async def body():
            async with service_harness(
                n_workers=1, paused=True, wall_clock=wall,
            ) as (app, client):
                status, accepted = await client.post_job(
                    _job(1, deadline_ms=100)
                )
                assert status == 202
                job_id = accepted["job_id"]
                assert app.jobs[job_id].deadline_at == wall.t + 0.1

                wall.advance(1.0)  # the job ages out while queued
                app.pool.resume()
                record = await client.wait_done(job_id)
                assert record["state"] == "failed"
                assert record["failure"]["error"] == "deadline_exceeded"
                assert record["failure"]["stage"] == "queue_wait"
                assert app.pool.n_campaign_executions == 0

        asyncio.run(body())

    def test_live_deadline_completes_normally(self, service_harness):
        wall = FakeWall()

        async def body():
            async with service_harness(
                n_workers=1, wall_clock=wall,
            ) as (app, client):
                status, accepted = await client.post_job(
                    _job(2, deadline_ms=120_000)
                )
                assert status == 202
                record = await client.wait_done(accepted["job_id"])
                assert record["state"] == "done"
                assert record["deadline_at"] == wall.t + 120.0

        asyncio.run(body())


class TestExecutionBudget:
    def test_deadline_expiring_mid_execution_is_structured(
        self, service_harness
    ):
        """A hanging chaos task with a real-time deadline: the remaining
        budget clamps the attempt, and the resulting failure is wrapped
        as ``deadline_exceeded``/``execution`` with the task record."""

        async def body():
            async with service_harness(
                n_workers=1, allow_chaos=True,
            ) as (app, client):
                status, accepted = await client.post_job({
                    "kind": "chaos_hang",
                    "params": {"sleep_s": 30.0},
                    "timeout_s": 20.0,
                    "deadline_ms": 400,
                })
                assert status == 202
                record = await client.wait_done(accepted["job_id"])
                assert record["state"] == "failed"
                failure = record["failure"]
                assert failure["error"] == "deadline_exceeded"
                assert failure["stage"] == "execution"
                attempts = failure["task_failure"]["attempts"]
                assert attempts[0]["outcome"] == "timeout"

        asyncio.run(body())

    def test_warm_pool_budget_exhausts_before_leasing(self):
        pool = WarmPool(n_workers=1)
        task = CampaignTask(kind="chaos_ok", params={"x": 3})
        result, failure = pool.execute(task, max_attempts=3, deadline_s=0.0)
        assert result is None
        assert failure.attempts[0].outcome == "timeout"
        assert "deadline budget" in failure.attempts[0].message
        assert pool.n_spawned == 0  # refused without forking a worker

    def test_warm_pool_budget_caps_retries(self):
        with WarmPool(n_workers=1) as pool:
            task = CampaignTask(
                kind="chaos_error", params={"message": "boom"}
            )
            result, failure = pool.execute(
                task, max_attempts=5, backoff_base_s=5.0,
                backoff_max_s=5.0, deadline_s=0.5,
            )
        assert result is None
        # Far fewer than 5 attempts ran: the 0.5 s budget cannot absorb
        # 5 s backoffs, so retries are abandoned once it is spent.
        assert len(failure.attempts) < 5
        assert failure.attempts[-1].outcome == "timeout"

    def test_run_campaign_deadline_clamps_open_ended_timeout(self):
        result = run_campaign(
            [CampaignTask(kind="chaos_hang", params={"sleep_s": 30.0})],
            timeout_s=None,
            max_attempts=1,
            deadline_s=0.4,
        )
        assert not result.ok
        assert result.failures[0].attempts[0].outcome == "timeout"
