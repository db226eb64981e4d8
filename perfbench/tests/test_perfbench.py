"""Tests of the benchmark's own machinery (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import check
import gen
import proc
import stats


# -- generated inputs ----------------------------------------------------


def _inputs(seed):
    return (
        gen.take(gen.small_jobs(seed), 300),
        gen.poisson_offsets(seed, 80.0, 300, "open"),
        [task.key for task in next(gen.campaign_cycles(seed))],
    )


def test_same_seed_gives_identical_inputs():
    assert _inputs(7) == _inputs(7)


def test_different_seeds_give_disjoint_keys():
    def keys(seed):
        small = {gen.key_of(job.payload)
                 for job in gen.take(gen.small_jobs(seed), 500)}
        campaign = {task.key for cycle, _ in zip(gen.campaign_cycles(seed),
                                                 range(5))
                    for task in cycle}
        return small | campaign

    a, b = keys(1), keys(2)
    assert a and b and not a & b


def test_jobs_within_a_run_are_unique():
    small = [gen.key_of(job.payload)
             for job in gen.take(gen.small_jobs(3), 1000)]
    assert len(set(small)) == len(small)
    campaign = [task.key for cycle, _ in zip(gen.campaign_cycles(3), range(20))
                for task in cycle]
    assert len(set(campaign)) == len(campaign)


def test_qos_share_and_budget():
    jobs = gen.take(gen.small_jobs(5), 2000)
    qos = [job for job in jobs if job.qos]
    assert 0.2 < len(qos) / len(jobs) < 0.3
    assert all(job.payload["qos"]["error_budget"] == 1.0 for job in qos)


def test_arrivals_fill_the_window_at_the_rate():
    offsets = gen.poisson_offsets(1, 80.0, 960, "open")
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] <= 960 / 80.0


def test_run_seed_range():
    with pytest.raises(ValueError):
        gen.task_seed(-1, 0)
    with pytest.raises(ValueError):
        gen.task_seed(1 << 31, 0)


# -- tail percentile -------------------------------------------------------


@pytest.mark.parametrize("n, max_q, expected", [
    (10_000, 99.9, 99.9),
    (1_000, 99.9, 99.0),   # 99.5 leaves only 5 beyond
    (999, 99.9, 98.0),     # 99.0 leaves 9.99
    (960, 95.0, 95.0),     # capped by the workload's steady limit
    (100, 99.9, 90.0),
    (50, 99.9, 80.0),
    (20, 99.9, 50.0),
    (19, 99.9, None),
])
def test_tail_percentile_choice(n, max_q, expected):
    assert stats.tail_percentile(n, max_q) == expected


def test_tail_on_synthetic_samples():
    values = [float(v) for v in range(1, 1001)]
    q, value, beyond = stats.tail(values[::-1], 99.9)
    assert (q, value, beyond) == (99.0, 990.0, 10)
    with pytest.raises(stats.TooFewSamples):
        stats.tail(values[:15], 99.9)


def test_percentile_nearest_rank():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert stats.percentile([5.0], 99) == 5.0


# -- /proc readers -----------------------------------------------------------


def _fake_stat(root, pid, ppid, comm, utime, stime, cutime=0, cstime=0):
    rest = ["S", str(ppid)] + ["0"] * 9 + [str(utime), str(stime),
                                           str(cutime), str(cstime)]
    rest += ["20", "0", "1", "0", "100"]
    (root / str(pid)).mkdir()
    (root / str(pid) / "stat").write_text(f"{pid} ({comm}) {' '.join(rest)}\n")
    (root / str(pid) / "status").write_text(
        f"Name:\t{comm}\nVmHWM:\t{1024 * pid} kB\n")


def test_cpu_tree_reader_on_a_fabricated_proc(tmp_path):
    tick = os.sysconf("SC_CLK_TCK")
    _fake_stat(tmp_path, 100, 1, "server", 100, 50, cutime=30, cstime=20)
    _fake_stat(tmp_path, 101, 100, "odd (name) x", 10, 5)
    _fake_stat(tmp_path, 102, 101, "grandchild", 1, 1)
    _fake_stat(tmp_path, 200, 1, "unrelated", 999, 999)
    (tmp_path / "self").mkdir()  # non-numeric entries are skipped
    assert sorted(proc.tree_pids(100, tmp_path)) == [100, 101, 102]
    stat = proc.read_stat(101, tmp_path)
    assert stat.ppid == 100 and stat.cpu_s == pytest.approx(15 / tick)
    assert proc.tree_cpu_s(100, tmp_path) == pytest.approx(217 / tick)
    assert proc.tree_peak_rss_mb(100, tmp_path) == pytest.approx(303.0)
    assert proc.read_stat(999, tmp_path) is None


def test_cpu_tree_reader_counts_reaped_children():
    before = proc.tree_cpu_s(os.getpid())
    subprocess.run(
        [sys.executable, "-c",
         "import time\nt=time.process_time()\n"
         "while time.process_time()-t<0.3: pass"],
        check=True,
    )
    assert proc.tree_cpu_s(os.getpid()) - before >= 0.25


def test_steal_share():
    before = [0, 0, 0, 0, 0, 0, 0, 0]
    after = [60, 0, 10, 20, 0, 0, 0, 10]
    assert proc.steal_share(before, after) == pytest.approx(0.1)
    assert proc.steal_share(before, before) == 0.0


# -- correctness checker -------------------------------------------------------


def test_checker_accepts_true_and_rejects_corrupted_results():
    from repro.campaign.registry import execute_task

    task = gen.task_of(next(gen.small_jobs(9)).payload)
    good = json.loads(check.canonical(execute_task(task)))
    assert check.mismatches([(task, good)]) == []
    corrupted = dict(good)
    field = next(k for k, v in good.items()
                 if isinstance(v, float) and not isinstance(v, bool))
    corrupted[field] = good[field] + 1e-9
    problems = check.mismatches([(task, good), (task, corrupted)])
    assert len(problems) == 1 and task.kind in problems[0]
    assert check.mismatches([(task, None)])


def test_sample_is_seeded():
    items = list(range(100))
    assert check.sample(items, 10, 1, "x") == check.sample(items, 10, 1, "x")
    assert check.sample(items, 10, 1, "x") != check.sample(items, 10, 2, "x")
    assert sorted(check.sample(items[:3], 10, 1, "x")) == [0, 1, 2]
