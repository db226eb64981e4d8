"""Approximate-compute-as-a-service: an async multi-tenant job front-end.

The campaign engine already behaves like a batch scheduler -- process
isolation, timeouts, retries, quarantine, a checksummed sharded result
cache.  This package puts a service on top of it so the library can face
many concurrent clients:

* :class:`ServiceApp` (:mod:`repro.service.app`) -- the asyncio
  HTTP/JSON application: job submission, status, stats, and per-job
  Server-Sent-Event streams, all on the stdlib (no framework).
* :class:`WeightedFairQueue` (:mod:`repro.service.queue`) -- per-tenant
  weighted-fair scheduling with token-bucket rate limits and a bounded
  backlog (overflow is a structured 429, never an unbounded queue).
* :class:`SharedResultStore` (:mod:`repro.service.store`) -- the
  campaign :class:`~repro.campaign.cache.ResultCache` promoted to a
  shared content-addressed store keyed by stable task hashes: identical
  requests from different tenants are answered in microseconds.
* :func:`negotiate` (:mod:`repro.service.admission`) -- QoS admission
  control: a request declares an error budget, the exact analytic PMF
  engine predicts in milliseconds whether the approximate configuration
  meets it, and requests that cannot are rewritten to the exact
  fallback before they ever run.
* :class:`WorkerPool` (:mod:`repro.service.workers`) -- the bridge onto
  the campaign engine's :class:`~repro.campaign.warmpool.WarmPool`:
  single-flight deduplication per task hash, hardened execution
  (worker-process isolation, timeouts, quarantine) for every job.
* :class:`JobJournal` (:mod:`repro.service.journal`) -- the durable
  append-only admission/event log behind ``--state-dir``: a killed
  server replays it on restart and re-admits every job it had promised.
* :class:`BrownoutController` (:mod:`repro.service.brownout`) -- the
  overload ladder: degrade to cheaper approximate configurations, then
  to exact single-block twins, and only then shed with a 503.

``repro serve`` (see :mod:`repro.cli`) runs the server; the
deterministic in-process test harness lives under ``tests/service``.
"""

from .admission import AdmissionDecision, negotiate
from .app import ServiceApp, ServiceConfig
from .brownout import BrownoutController, ShedLoad, SloConfig
from .jobs import Job, JobEvent
from .journal import JobJournal, ReplayedJob, ReplayReport
from .queue import AsyncFairQueue, BacklogFull, RateLimited, WeightedFairQueue
from .schemas import SchemaError, validate_job_request
from .store import SharedResultStore
from .tenants import TenantConfig, TenantRegistry, TokenBucket
from .workers import WorkerPool

__all__ = [
    "AdmissionDecision",
    "AsyncFairQueue",
    "BacklogFull",
    "BrownoutController",
    "Job",
    "JobEvent",
    "JobJournal",
    "RateLimited",
    "ReplayReport",
    "ReplayedJob",
    "SchemaError",
    "ServiceApp",
    "ServiceConfig",
    "SharedResultStore",
    "ShedLoad",
    "SloConfig",
    "TenantConfig",
    "TenantRegistry",
    "TokenBucket",
    "WeightedFairQueue",
    "WorkerPool",
    "negotiate",
    "validate_job_request",
]
