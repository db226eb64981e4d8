"""Readers for ``/proc``: CPU time and peak memory of a process tree, host load.

Linux only.  Every reader takes the ``/proc`` root as an argument so the
tests can point it at a fabricated tree.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

PROC = Path("/proc")
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class ProcStat:
    """The fields of ``/proc/<pid>/stat`` the benchmark needs (seconds)."""

    pid: int
    ppid: int
    cpu_s: float          # utime + stime of the process itself
    children_cpu_s: float  # cutime + cstime of its reaped children


def read_stat(pid: int, proc: Path = PROC) -> Optional[ProcStat]:
    """Parsed ``/proc/<pid>/stat``; ``None`` once the process is gone."""
    try:
        raw = (proc / str(pid) / "stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # comm (field 2) may hold spaces and parentheses: split after the last ')'.
    fields = raw[raw.rindex(")") + 2:].split()
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    return ProcStat(
        pid=pid,
        ppid=int(fields[1]),
        cpu_s=(utime + stime) * _TICK_S,
        children_cpu_s=(cutime + cstime) * _TICK_S,
    )


def tree_pids(root: int, proc: Path = PROC) -> List[int]:
    """``root`` and every live descendant, found by scanning ppids."""
    children: Dict[int, List[int]] = {}
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        stat = read_stat(int(entry.name), proc)
        if stat is not None:
            children.setdefault(stat.ppid, []).append(stat.pid)
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        frontier.extend(children.get(pid, ()))
    return pids


def tree_cpu_s(root: int, proc: Path = PROC) -> float:
    """User + system CPU seconds of ``root``, its live descendants, and
    every descendant already reaped (counted in the parents' cutime)."""
    total = 0.0
    for pid in tree_pids(root, proc):
        stat = read_stat(pid, proc)
        if stat is not None:
            total += stat.cpu_s + stat.children_cpu_s
    return total


def _status_kb(pid: int, field: str, proc: Path) -> int:
    try:
        text = (proc / str(pid) / "status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def tree_peak_rss_mb(root: int, proc: Path = PROC) -> float:
    """Sum of each live tree member's peak resident set (``VmHWM``), MiB."""
    return sum(
        _status_kb(pid, "VmHWM", proc) for pid in tree_pids(root, proc)
    ) / 1024.0


def self_peak_rss_kb(proc: Path = PROC) -> int:
    """Peak resident set of the calling process (``VmHWM``), KiB."""
    return _status_kb(os.getpid(), "VmHWM", proc)


def host_cpu_ticks(proc: Path = PROC) -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user .. steal ticks)."""
    first = (proc / "stat").read_text().splitlines()[0].split()
    return [int(v) for v in first[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of host CPU ticks stolen by the hypervisor between two reads."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def loadavg(proc: Path = PROC) -> List[float]:
    return [float(v) for v in (proc / "loadavg").read_text().split()[:3]]


def cpu_model(proc: Path = PROC) -> str:
    try:
        for line in (proc / "cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
