"""Chaos tests for the warm persistent worker-pool execution engine.

The warm engine runs every campaign that needs isolation on long-lived
pre-forked workers, so its failure modes are those of shared workers:
a hung task wedges a worker, a SIGKILLed task takes the worker down
with it, and both must be answered by recycling (kill + respawn)
without disturbing sibling tasks streaming through the other workers.
These tests pin that behavior -- and pin the contract that warm
results and failure records are bit-identical to the serial in-process
reference's.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignTask, WarmPool, run_campaign


def _ok(x):
    return CampaignTask("chaos_ok", {"x": x})


def _analytic(seed, n=8):
    return CampaignTask("analytic", {"n": n, "r": 2, "p": 2}, seed=seed)


class TestBitIdentity:
    def test_warm_matches_serial_reference_bit_for_bit(self):
        tasks = [_analytic(s) for s in range(6)] + \
            [_analytic(s, n=12) for s in range(3)] + \
            [_ok(i) for i in range(3)]
        serial = run_campaign(tasks)
        warm = run_campaign(tasks, n_workers=2, timeout_s=30.0)
        assert serial.ok and warm.ok
        assert serial.results == warm.results
        assert serial.stats.isolation == "serial"
        assert warm.stats.isolation == "warm"

    def test_warm_failure_records_match_serial_schema(self):
        tasks = [CampaignTask("chaos_error", {}), _ok(2)]
        serial = run_campaign(tasks, max_attempts=2, backoff_base_s=0.01)
        warm = run_campaign(
            tasks, n_workers=2, timeout_s=10.0,
            max_attempts=2, backoff_base_s=0.01,
        )
        s_rec = serial.failures[0].to_record()
        w_rec = warm.failures[0].to_record()
        # Wall-clock fields differ; everything structured must match.
        for record in (s_rec, w_rec):
            for attempt in record["attempts"]:
                attempt.pop("elapsed_s")
        assert s_rec == w_rec
        assert warm.stats.n_retries == serial.stats.n_retries == 1


class TestRecycling:
    def test_hung_worker_recycled_while_siblings_complete(self):
        pool = WarmPool(n_workers=2).start()
        try:
            tasks = [CampaignTask("chaos_hang", {"sleep_s": 60.0})] + \
                [_ok(i) for i in range(4)]
            result = run_campaign(
                tasks, n_workers=2, timeout_s=0.5, warm_pool=pool,
            )
            assert result.results[1:] == [
                {"value": i * i, "seed": 0} for i in range(4)
            ]
            (failure,) = result.failures
            assert failure.kind == "chaos_hang"
            assert failure.attempts[-1].outcome == "timeout"
            assert "timeout_s=0.5" in failure.attempts[-1].message
            assert result.stats.n_timeouts == 1
            assert pool.n_recycled >= 1
            # The respawned worker serves follow-up work on the same pool.
            again = run_campaign([_ok(9)], timeout_s=5.0, warm_pool=pool)
            assert again.results == [{"value": 81, "seed": 0}]
        finally:
            pool.close()

    def test_sigkilled_worker_is_respawned(self):
        pool = WarmPool(n_workers=2).start()
        try:
            result = run_campaign(
                [_ok(1), CampaignTask("chaos_crash", {}), _ok(3)],
                n_workers=2, timeout_s=10.0, warm_pool=pool,
            )
            assert result.results[0] == {"value": 1, "seed": 0}
            assert result.results[2] == {"value": 9, "seed": 0}
            (failure,) = result.failures
            assert failure.attempts[-1].outcome == "crash"
            assert "exit code -9" in failure.attempts[-1].message
            assert result.stats.n_crashes == 1
            assert pool.n_recycled >= 1
            assert pool.n_spawned >= 3  # 2 initial + >=1 respawn
        finally:
            pool.close()

    def test_stubborn_worker_escalates_to_sigkill(self):
        """A worker ignoring SIGTERM must still be recycled at deadline."""
        pool = WarmPool(n_workers=1).start()
        try:
            result = run_campaign(
                [CampaignTask("chaos_stubborn", {"sleep_s": 60.0})],
                timeout_s=0.5, warm_pool=pool,
            )
            (failure,) = result.failures
            assert failure.attempts[-1].outcome == "timeout"
            assert pool.n_recycled == 1
            follow_up = run_campaign([_ok(2)], timeout_s=5.0, warm_pool=pool)
            assert follow_up.results == [{"value": 4, "seed": 0}]
        finally:
            pool.close()

    def test_completed_but_overdue_attempt_is_a_timeout(self):
        # Worker-clock rule: a result that lands in the pipe after its
        # deadline is a timeout, not a win.
        result = run_campaign([_ok(3)], timeout_s=1e-9)
        assert result.results == [None]
        (failure,) = result.failures
        assert failure.attempts[-1].outcome == "timeout"
        assert "timeout_s=1e-09" in failure.attempts[-1].message
        assert result.stats.n_timeouts == 1


class TestRetries:
    def test_flaky_succeeds_after_retries_on_warm_pool(self, tmp_path):
        task = CampaignTask(
            "chaos_flaky",
            {"scratch_dir": str(tmp_path / "flaky"), "fail_times": 2, "x": 6},
        )
        result = run_campaign(
            [task], n_workers=2, timeout_s=10.0,
            max_attempts=3, backoff_base_s=0.01,
        )
        assert result.ok
        assert result.results[0]["value"] == 6
        assert result.results[0]["attempts"] == 3
        assert result.stats.n_retries == 2


class TestPoolReuse:
    def test_shared_pool_spawns_no_extra_workers(self):
        with WarmPool(n_workers=2) as pool:
            for round_ in range(3):
                result = run_campaign(
                    [_analytic(100 * round_ + i) for i in range(4)],
                    n_workers=2, timeout_s=30.0, warm_pool=pool,
                )
                assert result.ok
            assert pool.n_spawned == 2
            assert pool.n_recycled == 0
            assert pool.n_tasks_done == 12

    def test_execute_front_end(self):
        with WarmPool(n_workers=1) as pool:
            result, failure = pool.execute(_ok(5), timeout_s=5.0)
            assert failure is None
            assert result == {"value": 25, "seed": 0}
            result, failure = pool.execute(
                CampaignTask("chaos_hang", {"sleep_s": 60.0}),
                timeout_s=0.3, max_attempts=2, backoff_base_s=0.01,
            )
            assert result is None
            assert failure.index == 0
            assert failure.attempts[-1].outcome == "timeout"
            assert len(failure.attempts) == 2
            assert pool.n_recycled == 2

    def test_closed_pool_refuses_work(self):
        pool = WarmPool(n_workers=1).start()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool._lease()


class TestIsolationSelection:
    def test_parallel_campaign_selects_warm_engine(self):
        result = run_campaign([_analytic(1), _analytic(2)], n_workers=2)
        assert result.ok
        assert result.stats.isolation == "warm"

    def test_unisolated_fast_path_ignores_warm(self):
        # No timeout, one worker: nothing to isolate, so the in-process
        # fast path runs instead of the warm pool.
        result = run_campaign([_analytic(1)])
        assert result.ok
        assert result.stats.isolation == "serial"
