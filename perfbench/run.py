#!/usr/bin/env python3
"""End-to-end benchmark of the approximate-compute stack, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload svc_small --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``svc_small``    -- unique sub-millisecond jobs through ``repro serve
  --state-dir``: an open loop at 80 jobs/s, then a closed loop of
  ``nproc`` callers;
* ``campaign_fig`` -- repeated ``run_campaign`` batches of Fig. 6/8/10
  kernels with the default engine and no cache.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (the server under
``perfbench/launcher.py``) and prints the per-layer metrics.  Every run
checks its outputs; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 1
means a correctness check failed, 2 a usage or environment error.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import platform
import queue
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = os.cpu_count() or 1

if not (SRC / "repro" / "__init__.py").is_file():
    # Checked before importing the benchmark's own modules, which need
    # the package: without the program there is nothing to measure.
    print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402
import proc  # noqa: E402
from stats import TooFewSamples, median, percentile, tail  # noqa: E402


SERVICE = "svc_small"
#: Open-loop arrival rate (about 40% of capacity on 2 cores), the latency
#: limit of slo_attainment, and the highest tail percentile that stayed
#: within its bound from run to run.
SVC_RATE_PER_S = 80.0
SVC_SLO_MS = 50.0
SVC_TAIL_MAX_Q = 75.0
CAMPAIGN = "campaign_fig"
#: Batch latency limit of campaign_fig's slo_attainment.
CAMPAIGN_SLO_MS = 500.0
CAMPAIGN_TAIL_MAX_Q = 90.0
WORKLOADS = (SERVICE, CAMPAIGN)

#: Share of --seconds spent in the open loop; the rest is the closed loop.
OPEN_SHARE = 0.6
#: Open-loop latency and CPU, and closed-loop throughput, are summarised
#: per window of these many seconds.  The median is taken over the windows
#: whose host steal share is at most the median window's, so interference
#: from other tenants of a shared host moves the windows left out, not the
#: figure.
OPEN_WINDOW_S = 2.0
CLOSED_WINDOW_S = 1.0
WARMUP_S = 1.5
#: Host steal share (of all CPU ticks) under which a timed phase may
#: start, and the longest a server waits for it.  On a shared virtual
#: machine steal comes in episodes of seconds to minutes, and latency
#: measured inside one is several times the quiet value.
QUIET_STEAL = 0.03
QUIET_PROBE_S = 1.0
QUIET_MAX_WAIT_S = 15.0
#: Server launches per run; setup_s is their median.
SETUP_REPEATS = 5
#: Results per run re-computed in-process and compared.
SAMPLE_CHECKS = 24
#: Per-kind kernel timings taken in-process by a traced run.
KERNEL_SAMPLES = 30
PHASE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "peak_jobs_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "slo_attainment": "ratio", "ok_frac": "ratio",
    "cpu_ms_per_job": "ms", "rss_mb": "MiB",
}
KERNEL_KINDS = ("analytic", "gear_dse_row", "multiplier", "sad_quality",
                "filter_ssim", "gear_adder", "ripple_adder")
PER_LAYER_UNITS = {
    "http.dispatch_us": "us", "schemas.validate_us": "us",
    "admission.negotiate_us": "us", "admission.rewrites": "count",
    "journal.append_us": "us", "journal.durable_per_job": "count",
    "queue.wait_p50_ms": "ms", "queue.wait_p95_ms": "ms",
    "store.get_us": "us", "store.put_us": "us",
    "warmpool.execute_ms": "ms", "warmpool.overhead_ms": "ms",
    "sse.delivery_ms": "ms",
    **{f"kernel.{kind}_ms": "ms" for kind in KERNEL_KINDS},
    "runner.overhead_ms_per_task": "ms", "runner.attempts_per_task": "count",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
    "gen.lag_ms": "ms",
}


class CheckFailed(Exception):
    """A correctness check failed; the run must not report success."""


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------

_LISTENING = re.compile(r"repro service on http://([0-9.]+):(\d+)")


class Server:
    """One ``repro serve --state-dir DIR --port 0`` process.

    ``spans`` runs it under the tracing launcher instead, which writes
    its spans to that path on exit.
    """

    def __init__(self, state_dir: Path, spans: Optional[Path] = None) -> None:
        self.state_dir = state_dir
        self.spans = spans
        self.proc: Optional[subprocess.Popen] = None
        self.stderr: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> float:
        """Launch; returns seconds from launch to the first /readyz 200."""
        serve = ["serve", "--state-dir", str(self.state_dir), "--port", "0"]
        if self.spans is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   str(self.spans), *serve]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("REPRO_CAMPAIGN_ISOLATION", None)
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = t0 + 60.0
        while not self.port:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise CheckFailed(
                    "server did not start: " + "".join(self.stderr)[-2000:])
            match = _LISTENING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
        while True:
            status = self._readyz()
            if status == 200:
                return time.monotonic() - t0
            if time.monotonic() > deadline:
                raise CheckFailed(f"/readyz never answered 200 (last {status})")
            time.sleep(0.002)

    def _drain(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _readyz(self) -> int:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
        try:
            conn.request("GET", "/readyz")
            return conn.getresponse().status
        except OSError:
            return 0
        finally:
            conn.close()

    def stop(self) -> List[str]:
        """SIGTERM, wait, and report whether the exit was clean."""
        if self.proc is None:
            return []
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=30)
            problems.append("server ignored SIGTERM for 30 s")
        if self._reader is not None:
            self._reader.join(timeout=10)
        if code != 0:
            problems.append(f"server exited {code} on SIGTERM")
        if not any("service stopped" in line for line in self.stderr):
            problems.append("server did not report a clean stop")
        return problems


@dataclass(frozen=True)
class Window:
    """One sampling period: its bounds, the server tree's CPU seconds spent
    in it, and the host's steal share over it."""

    start: float
    end: float
    cpu_s: float
    steal: float


class HostSampler(threading.Thread):
    """Every ``period`` seconds, samples the host's CPU ticks and, given a
    ``pid``, the CPU seconds of that process tree."""

    def __init__(self, period: float, pid: Optional[int] = None) -> None:
        super().__init__(daemon=True)
        self.pid, self.period = pid, period
        self.samples: List[Tuple[float, float, List[int]]] = []
        self.done = threading.Event()

    def run(self) -> None:
        due = time.monotonic()
        while not self.done.is_set():
            cpu = proc.tree_cpu_s(self.pid) if self.pid else 0.0
            self.samples.append(
                (time.monotonic(), cpu, proc.host_cpu_ticks()))
            due += self.period
            self.done.wait(max(0.0, due - time.monotonic()))

    def stop(self) -> None:
        self.done.set()
        self.join(timeout=10)

    def quiet_half(self) -> Tuple[List[Window], List[Window]]:
        """All windows, and those whose host steal share is at most the
        median window's: the quieter half, or more on ties."""
        windows = [
            Window(a, b, cpu_b - cpu_a, proc.steal_share(ticks_a, ticks_b))
            for (a, cpu_a, ticks_a), (b, cpu_b, ticks_b)
            in zip(self.samples, self.samples[1:])
        ]
        limit = median([w.steal for w in windows])
        return windows, [w for w in windows if w.steal <= limit]


def _within(outcomes: List[client.Outcome], window: Window,
            key: Callable[[client.Outcome], float]) -> List[client.Outcome]:
    return [o for o in outcomes if window.start <= key(o) < window.end]


def _run(coro):
    async def bounded():
        return await asyncio.wait_for(coro, PHASE_TIMEOUT_S)
    return asyncio.run(bounded())


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------


class ServiceRun:
    """One server, warmed up, with every POST it received accounted."""

    def __init__(self, seed: int, state_dir: Path,
                 spans: Optional[Path] = None) -> None:
        self.seed = seed
        self.server = Server(state_dir, spans)
        self.stream = gen.small_jobs(seed)
        self.outcomes: List[client.Outcome] = []
        self.problems: List[str] = []
        self.quiet: Dict[str, Dict[str, float]] = {}
        self.quiet_budget = QUIET_MAX_WAIT_S

    def start(self) -> float:
        """Launch and warm up; returns the launch's set-up seconds."""
        setup = self.server.start()
        self._paced(WARMUP_S)
        return setup

    def _paced(self, seconds: float) -> None:
        """Evenly spaced jobs at the open-loop rate (untimed load)."""
        n = int(SVC_RATE_PER_S * seconds)
        self._open(gen.take(self.stream, n),
                   [i / SVC_RATE_PER_S for i in range(n)])

    def settle(self, label: str) -> None:
        """Keep sending the workload's open-loop load in short chunks until
        the host's steal share over a chunk is at most :data:`QUIET_STEAL`,
        within a budget of :data:`QUIET_MAX_WAIT_S` per run.  The waits and
        the last steal share are recorded under ``label``."""
        waited = 0.0
        while True:
            host0 = proc.host_cpu_ticks()
            self._paced(QUIET_PROBE_S)
            steal = proc.steal_share(host0, proc.host_cpu_ticks())
            waited += QUIET_PROBE_S
            if steal <= QUIET_STEAL or self.quiet_budget < QUIET_PROBE_S:
                break
            self.quiet_budget -= QUIET_PROBE_S
        self.quiet[label] = {"waited_s": waited, "steal": steal}

    def _open(self, jobs, offsets):
        outs, lags, t0, t1 = _run(client.open_loop(
            self.server.host, self.server.port, jobs, offsets))
        self.outcomes.extend(outs)
        return outs, lags, t0, t1

    def open_loop(self, seconds: float, label: str):
        n = max(1, round(SVC_RATE_PER_S * seconds))
        jobs = gen.take(self.stream, n)
        offsets = gen.poisson_offsets(self.seed, SVC_RATE_PER_S, n,
                                      f"{SERVICE}:{label}")
        return self._open(jobs, offsets)

    def closed_loop(self, seconds: float):
        outs, t0, t1 = _run(client.closed_loop(
            self.server.host, self.server.port, self.stream, NPROC, seconds))
        self.outcomes.extend(outs)
        return outs, t0, t1

    def get(self, path: str) -> Any:
        status, body = _run(client.get_json(
            self.server.host, self.server.port, path))
        if status != 200:
            raise CheckFailed(f"GET {path} answered {status}")
        return body

    def verify(self) -> None:
        """Every correctness check that needs the live server."""
        bad = [o for o in self.outcomes if not o.ok]
        for o in bad[:5]:
            self.problems.append(
                f"job {o.job.index} ({o.job.payload['kind']}) ended "
                f"{o.terminal or o.error or o.status}")
        if len(bad) > 5:
            self.problems.append(f"... {len(bad)} jobs did not complete")
        statuses = sorted({o.status for o in self.outcomes
                           if o.status not in (200, 202)})
        if statuses:
            self.problems.append(f"client saw HTTP statuses {statuses}")
        not_approx = [o for o in self.outcomes
                      if o.job.qos and o.mode != "approximate"]
        if not_approx:
            self.problems.append(
                f"{len(not_approx)} QoS jobs were not admitted approximate")
        stats = self.get("/v1/stats")
        accepted = stats["jobs"]["accepted"]
        if accepted != len(self.outcomes) or stats["jobs"]["rejected"]:
            self.problems.append(
                f"/v1/stats accepted={accepted} rejected="
                f"{stats['jobs']['rejected']} for {len(self.outcomes)} "
                f"attempted")
        picked = check.sample(
            [o for o in self.outcomes if o.ok],
            SAMPLE_CHECKS, self.seed, SERVICE)
        pairs = [(gen.task_of(o.job.payload),
                  self.get(f"/v1/jobs/{o.job_id}")["result"]) for o in picked]
        self.problems.extend(check.mismatches(pairs))

    def stop(self) -> None:
        self.problems.extend(self.server.stop())


def _latencies_ms(outcomes: List[client.Outcome]) -> List[float]:
    return [1000.0 * o.latency_s for o in outcomes if o.ok]


def service_end_to_end(seed: int, seconds: float, run_dir: Path,
                       record: Dict[str, Any]):
    setups: List[float] = []
    problems: List[str] = []
    for i in range(SETUP_REPEATS - 1):
        probe = Server(run_dir / f"setup-{i}")
        try:
            setups.append(probe.start())
        finally:
            problems.extend(probe.stop())
    run = ServiceRun(seed, run_dir / "state")
    try:
        setups.append(run.start())
        pid = run.server.proc.pid
        run.settle("open")
        open_sampler = HostSampler(OPEN_WINDOW_S, pid)
        open_sampler.start()
        try:
            opened, lags, t0, t1 = run.open_loop(seconds * OPEN_SHARE, "open")
        finally:
            open_sampler.stop()
        run.settle("closed")
        closed_sampler = HostSampler(CLOSED_WINDOW_S)
        closed_sampler.start()
        try:
            closed, _, _ = run.closed_loop(seconds * (1.0 - OPEN_SHARE))
        finally:
            closed_sampler.stop()
        rss = proc.tree_peak_rss_mb(pid)
        run.verify()
    finally:
        run.stop()
    problems.extend(run.problems)

    ok_open = [o for o in opened if o.ok]
    ok_closed = [o for o in closed if o.ok]
    open_all, open_kept = open_sampler.quiet_half()
    closed_all, closed_kept = closed_sampler.quiet_half()
    if not open_kept or not closed_kept:
        raise TooFewSamples("no full window in the open or closed loop")
    due_in = [_within(opened, w, lambda o: o.due) for w in open_kept]
    p50s = [percentile(_latencies_ms(w), 50.0) for w in due_in]
    tails = [tail(_latencies_ms(w), SVC_TAIL_MAX_Q) for w in due_in]
    cpu_per_job = [w.cpu_s / max(1, len(_within(ok_open, w, lambda o: o.done)))
                   for w in open_kept]
    peaks = [_rate(_within(ok_closed, w, lambda o: o.done))
             for w in closed_kept]
    attempted = len(opened) + len(closed)
    n_ok = len(ok_open) + len(ok_closed)
    record.update({
        "tail_percentile": tails[0][0],
        "tail_samples_beyond": min(t[2] for t in tails),
        "open_windows_steal": [round(w.steal, 4) for w in open_all],
        "closed_windows_steal": [round(w.steal, 4) for w in closed_all],
        "kept_window_p50_ms": p50s,
        "open_loop_quantiles_ms": {
            f"p{q:g}": percentile(_latencies_ms(opened), q)
            for q in (50, 75, 90, 95, 99)
        },
        "open_loop": {"rate_per_s": SVC_RATE_PER_S, "jobs": len(opened)},
        "closed_loop": {"clients": NPROC, "jobs": len(closed)},
        "slo_ms": SVC_SLO_MS,
        "gen_lag_ms": _lag_summary(lags),
        "setups_s": setups,
        "quiet_gate": run.quiet,
    })
    metrics = {
        "setup_s": median(setups),
        "jobs_per_s": len(ok_open) / (t1 - t0),
        "peak_jobs_per_s": median(peaks),
        "latency_p50_ms": median(p50s),
        "latency_tail_ms": median([t[1] for t in tails]),
        "slo_attainment": sum(
            1 for o in opened if o.ok and 1000.0 * o.latency_s <= SVC_SLO_MS
        ) / len(opened),
        "ok_frac": n_ok / attempted,
        "cpu_ms_per_job": 1000.0 * median(cpu_per_job),
        "rss_mb": rss,
    }
    return metrics, attempted, attempted - n_ok, problems


def _rate(window: List[client.Outcome]) -> float:
    """Completions per second between the first and last in ``window``."""
    done = sorted(o.done for o in window)
    if len(done) < 2 or done[-1] <= done[0]:
        return float(len(done))
    return (len(done) - 1) / (done[-1] - done[0])


def _lag_summary(lags: List[float]) -> Dict[str, float]:
    ms = [1000.0 * v for v in lags] or [0.0]
    return {"p50": percentile(ms, 50), "p95": percentile(ms, 95),
            "max": max(ms)}


def _kernel_ms(tasks: List[Any]) -> Dict[str, List[float]]:
    """In-process ``execute_task`` wall time of each task, by kind."""
    from repro.campaign.registry import execute_task

    times: Dict[str, List[float]] = {}
    for kind in {t.kind for t in tasks}:
        execute_task(next(t for t in tasks if t.kind == kind))  # imports
    for task in tasks:
        t0 = time.perf_counter()
        execute_task(task)
        times.setdefault(task.kind, []).append(
            1000.0 * (time.perf_counter() - t0))
    return times


def _union_s(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def _open_run(seed: int, state_dir: Path, seconds: float, label: str,
              spans: Optional[Path] = None):
    """One server: warm up, settle, one open loop, checks, SIGTERM."""
    run = ServiceRun(seed, state_dir, spans)
    try:
        run.start()
        run.settle("open")
        opened, lags, _, _ = run.open_loop(seconds, label)
        run.verify()
    finally:
        run.stop()
    return run, opened, lags


def service_per_layer(seed: int, seconds: float, run_dir: Path,
                      record: Dict[str, Any]):
    spans_path = run_dir / "spans.json"
    untraced, plain, _ = _open_run(
        seed, run_dir / "untraced", seconds / 2.0, "untraced")
    traced, opened, lags = _open_run(
        seed, run_dir / "traced", seconds / 2.0, "traced", spans_path)
    problems = untraced.problems + traced.problems
    record["quiet_gate"] = {"untraced": untraced.quiet["open"],
                            "traced": traced.quiet["open"]}
    spans = json.loads(spans_path.read_text())

    # Kernel time of the workload's own tasks, run here in-process.
    unique = {}
    for o in traced.outcomes:
        unique.setdefault(gen.key_of(o.job.payload), o.job.payload)
    by_kind: Dict[str, List[Any]] = {}
    for payload in unique.values():
        by_kind.setdefault(payload["kind"], []).append(gen.task_of(payload))
    kernel = _kernel_ms([t for ts in by_kind.values()
                         for t in ts[:KERNEL_SAMPLES]])
    kernel_p50 = {kind: median(v) for kind, v in kernel.items()}
    kind_of_key = {key: p["kind"] for key, p in unique.items()}

    jobs = [o for o in opened if o.ok]
    n_jobs = len({j for j, *_ in spans["journal"] if j})
    waits = [1000.0 * (spans["popped"][j] - t)
             for j, t in spans["submitted"].items() if j in spans["popped"]]
    executes = spans["execute"]
    execute_by_key = {k: (a, b) for k, a, b in executes}
    put_by_key = {k: (a, b) for k, a, b in spans["put"]}
    dispatch_by_job = {j: (a, b) for j, a, b, _ in spans["dispatch"] if j}
    deliveries, coverage = [], []
    for o in jobs:
        intervals = []
        if o.job_id in dispatch_by_job:
            intervals.append(dispatch_by_job[o.job_id])
        if o.status == 202:
            key = spans["job_keys"].get(o.job_id)
            if o.job_id in spans["popped"]:
                intervals.append((spans["submitted"][o.job_id],
                                  spans["popped"][o.job_id]))
            for table in (execute_by_key, put_by_key):
                if key in table:
                    intervals.append(table[key])
            t_complete = spans["completed"].get(o.job_id)
            if t_complete is not None:
                deliveries.append(1000.0 * (o.done - t_complete))
                intervals.append((t_complete, o.done))
        coverage.append(_union_s(intervals) / (o.done - o.sent))
    store_gets = spans["calls"]["store_get"]
    layers = _zero_layers()
    us = 1e6
    layers.update({
        "http.dispatch_us": us * median(
            [s for j, _, _, s in spans["dispatch"] if j]),
        "schemas.validate_us": us * median(spans["calls"]["validate"]),
        "admission.negotiate_us": us * median(spans["calls"]["negotiate"]),
        "admission.rewrites": float(spans["rewrites"]),
        "journal.append_us": us * sum(d for _, d, _ in spans["journal"])
        / max(1, len(spans["journal"])),
        "journal.durable_per_job": sum(
            1 for _, _, durable in spans["journal"] if durable
        ) / max(1, n_jobs),
        "queue.wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "queue.wait_p95_ms": percentile(waits, 95) if waits else 0.0,
        "store.get_us": us * median(store_gets),
        "store.put_us": us * median([b - a for _, a, b in spans["put"]]),
        "warmpool.execute_ms": 1000.0 * median(
            [b - a for _, a, b in executes]),
        "warmpool.overhead_ms": median([
            1000.0 * (b - a) - kernel_p50[kind_of_key[k]]
            for k, a, b in executes if k in kind_of_key
        ]),
        "sse.delivery_ms": median(deliveries),
        "trace.coverage": median(coverage),
        "trace.overhead": percentile(_latencies_ms(opened), 50)
        / percentile(_latencies_ms(plain), 50),
        "gen.lag_ms": _lag_summary(lags)["p95"],
    })
    for kind, value in kernel_p50.items():
        layers[f"kernel.{kind}_ms"] = value
    attempted = len(plain) + len(opened)
    failed = attempted - sum(o.ok for o in plain) - len(jobs)
    return layers, attempted, failed, problems


# ----------------------------------------------------------------------
# campaign workload
# ----------------------------------------------------------------------


@dataclass
class Batch:
    start: float
    setup_s: float
    wall_s: float
    result: Any


def _run_batches(cycles: Iterator[List[Any]], seconds: float) -> List[Batch]:
    """``run_campaign`` one cycle at a time until ``seconds`` have passed
    (at least once); engine choice left to the library default."""
    from repro.campaign import run_campaign

    batches: List[Batch] = []
    stop = time.monotonic() + seconds
    while not batches or time.monotonic() < stop:
        tasks = next(cycles)
        first: List[float] = []

        def progress(done: int, total: int) -> None:
            if done >= 1 and not first:
                first.append(time.monotonic())

        t0 = time.monotonic()
        result = run_campaign(tasks, n_workers=NPROC, progress=progress)
        t1 = time.monotonic()
        batches.append(Batch(t0, (first[0] if first else t1) - t0,
                             t1 - t0, result))
    return batches


def _batch_problems(batches: List[Batch], seed: int) -> List[str]:
    problems = []
    failed = sum(len(b.result.failures) for b in batches)
    if failed:
        problems.append(f"{failed} campaign tasks were quarantined")
    pairs = [(task, value) for b in batches
             for task, value in zip(b.result.tasks, b.result.results)
             if value is not None]
    problems.extend(check.mismatches(
        check.sample(pairs, SAMPLE_CHECKS, seed, CAMPAIGN)))
    return problems


def _self_cpu_s() -> float:
    stat = proc.read_stat(os.getpid())
    return stat.cpu_s + stat.children_cpu_s


def campaign_end_to_end(seed: int, seconds: float, record: Dict[str, Any]):
    os.environ.pop("REPRO_CAMPAIGN_ISOLATION", None)
    cycles = gen.campaign_cycles(seed)
    _run_batches(cycles, 0.0)  # one untimed batch: imports, page cache
    cpu0 = _self_cpu_s()
    batches = _run_batches(cycles, seconds)
    cpu1 = _self_cpu_s()
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_mb = (proc.self_peak_rss_kb() + NPROC * children_kb) / 1024.0
    problems = _batch_problems(batches, seed)

    n_tasks = sum(len(b.result.tasks) for b in batches)
    n_ok = n_tasks - sum(len(b.result.failures) for b in batches)
    walls = [1000.0 * b.wall_s for b in batches]
    window = batches[-1].start + batches[-1].wall_s - batches[0].start
    q, tail_ms, beyond = tail(walls, CAMPAIGN_TAIL_MAX_Q)
    record.update({
        "tail_percentile": q, "tail_samples_beyond": beyond,
        "batches": len(batches), "tasks_per_batch": len(gen.CAMPAIGN_CYCLE),
        "engine": batches[0].result.stats.isolation, "slo_ms": CAMPAIGN_SLO_MS,
    })
    metrics = {
        "setup_s": median([b.setup_s for b in batches]),
        "jobs_per_s": n_ok / window,
        "peak_jobs_per_s": n_ok / sum(b.wall_s - b.setup_s for b in batches),
        "latency_p50_ms": percentile(walls, 50.0),
        "latency_tail_ms": tail_ms,
        "slo_attainment": sum(w <= CAMPAIGN_SLO_MS for w in walls)
        / len(walls),
        "ok_frac": n_ok / n_tasks,
        "cpu_ms_per_job": 1000.0 * (cpu1 - cpu0) / max(1, n_ok),
        "rss_mb": rss_mb,
    }
    return metrics, n_tasks, n_tasks - n_ok, problems


def campaign_per_layer(seed: int, seconds: float, record: Dict[str, Any]):
    os.environ.pop("REPRO_CAMPAIGN_ISOLATION", None)
    cycles = gen.campaign_cycles(seed)
    _run_batches(cycles, 0.0)
    plain = _run_batches(cycles, seconds / 2.0)
    traced = _run_batches(cycles, seconds / 2.0)
    problems = _batch_problems(plain + traced, seed)

    # Kernel time per cycle position, in-process on the workload's tasks.
    sample = [next(cycles) for _ in range(3)]
    per_position = [
        median(_kernel_ms([cycle[i] for cycle in sample])[kind])
        for i, (kind, _) in enumerate(gen.CAMPAIGN_CYCLE)
    ]
    layers = _zero_layers()
    for kind in {k for k, _ in gen.CAMPAIGN_CYCLE}:
        values = [v for (k, _), v in zip(gen.CAMPAIGN_CYCLE, per_position)
                  if k == kind]
        layers[f"kernel.{kind}_ms"] = sum(values) / len(values)
    stats = [b.result.stats for b in traced]
    n_tasks = sum(s.n_tasks for s in stats)
    lane_s = sum(b.wall_s for b in traced) * NPROC
    kernel_s = len(traced) * sum(per_position) / 1000.0
    layers.update({
        "runner.overhead_ms_per_task": 1000.0 * (lane_s - kernel_s) / n_tasks,
        "runner.attempts_per_task": sum(
            s.n_executed + s.n_retries for s in stats) / n_tasks,
        "trace.coverage": sum(s.task_s for s in stats) / lane_s,
        "trace.overhead": median([b.wall_s for b in traced])
        / median([b.wall_s for b in plain]),
    })
    record["engine"] = stats[0].isolation
    attempted = sum(len(b.result.tasks) for b in plain + traced)
    failed = sum(len(b.result.failures) for b in plain + traced)
    return layers, attempted, failed, problems


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind through the ``finally`` blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        gen.check_run_seed(args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "nproc": NPROC, "cpu_model": proc.cpu_model(),
        "python": platform.python_version(),
    }
    host0 = proc.host_cpu_ticks()
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == CAMPAIGN:
            fn = campaign_per_layer if args.trace else campaign_end_to_end
            metrics, attempted, failed, problems = fn(
                args.seed, args.seconds, record)
        else:
            fn = service_per_layer if args.trace else service_end_to_end
            metrics, attempted, failed, problems = fn(
                args.seed, args.seconds, run_dir, record)
    except CheckFailed as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    except TooFewSamples as exc:
        print(f"perfbench: {exc}; raise --seconds", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record["steal_share"] = proc.steal_share(host0, proc.host_cpu_ticks())
    record["loadavg"] = proc.loadavg()
    lag = record.get("gen_lag_ms", {}).get("p95", 0.0)
    noisy = []
    if record["steal_share"] > 0.05:
        noisy.append("steal share above 5%")
    if lag > 5.0:
        noisy.append("generator ran more than 5 ms late at p95")
    gates = record.get("quiet_gate", {})
    if any(g["steal"] > QUIET_STEAL for g in gates.values()):
        noisy.append("a timed phase started with the host still noisy")
    record["noisy"] = noisy
    print("record " + json.dumps(record, sort_keys=True))

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.4f} {units[name]}")
    if "tail_percentile" in record:
        print(f"latency_tail_ms is p{record['tail_percentile']:g} with "
              f"{record['tail_samples_beyond']} samples beyond it")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
