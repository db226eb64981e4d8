"""Correctness checks: served results against in-process ``execute_task``."""

from __future__ import annotations

import json
import random
from typing import Any, List, Sequence, Tuple


def canonical(value: Any) -> str:
    """JSON text of ``value`` as it looks after a round trip over HTTP."""
    return json.dumps(json.loads(json.dumps(value)), sort_keys=True)


def sample(items: Sequence[Any], count: int, seed: int, label: str) -> List[Any]:
    """A seeded sample of at most ``count`` items."""
    rng = random.Random(f"check:{label}:{seed}")
    return rng.sample(list(items), min(count, len(items)))


def mismatches(pairs: Sequence[Tuple[Any, Any]]) -> List[str]:
    """Describe each ``(task, served_result)`` pair whose result differs
    from ``execute_task`` run here on the same task."""
    from repro.campaign.registry import execute_task

    problems = []
    for task, served in pairs:
        expected = canonical(execute_task(task))
        if canonical(served) != expected:
            problems.append(
                f"{task.kind} seed={task.seed}: served result differs from "
                f"in-process execute_task"
            )
    return problems
