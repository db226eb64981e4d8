"""Characterization campaign engine (batching / caching / resume).

The paper's quantitative results (Table III/IV, Fig. 4, Fig. 6, Fig. 9)
all come from sweeping component configurations through
characterization.  This package turns those sweeps into **campaigns**:
lists of pure, seeded, JSON-describable tasks fanned out over a process
pool, answered from an on-disk result cache when possible, and
checkpointed task-by-task so an interrupted sweep resumes exactly where
it died.

Entry points:

* :class:`CampaignTask` / :func:`derive_seed` -- task identity and
  deterministic per-task seeding (:mod:`repro.campaign.task`);
* :class:`ResultCache` -- atomic JSON store keyed by stable task hash
  (:mod:`repro.campaign.cache`);
* :func:`register` / :func:`task_kinds` -- the task-kind registry with
  the built-in characterization workloads
  (:mod:`repro.campaign.registry`);
* :func:`run_campaign` -- the parallel, crash-hardened runner
  (worker-process isolation, timeouts, backoff retries, quarantine)
  returning per-task results, :class:`CampaignStats`, and structured
  :class:`TaskFailure` records (:mod:`repro.campaign.runner`);
* :class:`WarmPool` -- the persistent pre-forked worker pool that runs
  every isolated campaign and every service job
  (:mod:`repro.campaign.warmpool`).

The higher-level sweeps (:func:`repro.dse.explorer.explore_gear_space`,
:func:`repro.adders.characterize.characterize_ripple_family`,
:func:`repro.multipliers.characterize.fig6_multiplier_family`,
:func:`repro.accelerators.sad.characterize_sad_family`) submit through
this engine; the ``repro campaign`` CLI subcommand drives it directly.
"""

from .cache import ResultCache
from .registry import execute_task, get_task_function, register, task_kinds
from .runner import (
    CampaignResult,
    CampaignStats,
    CampaignTaskError,
    TaskAttemptFailure,
    TaskFailure,
    run_campaign,
)
from .task import CODE_VERSION, CampaignTask, derive_seed, stable_hash
from .warmpool import WarmPool

__all__ = [
    "CODE_VERSION",
    "CampaignTask",
    "CampaignResult",
    "CampaignStats",
    "CampaignTaskError",
    "ResultCache",
    "TaskAttemptFailure",
    "TaskFailure",
    "WarmPool",
    "derive_seed",
    "execute_task",
    "get_task_function",
    "register",
    "run_campaign",
    "stable_hash",
    "task_kinds",
]
