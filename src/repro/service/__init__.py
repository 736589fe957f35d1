"""`repro.service` — the always-on allocation control plane.

Turns the batch :class:`~repro.scheduler.window.TimeWindowScheduler`
into a long-running service (ROADMAP item 1): an asyncio HTTP API
admits a continuous stream of placement requests in milliseconds
(greedy incumbent placement, micro-batched into scheduler windows)
while the NSGA-III+tabu stack chases better fronts in a background
reoptimizer and publishes migration plans through a copy-on-write,
epoch-guarded handoff.  Every mutation lands in a replayable admission
log, so the whole live session can be re-derived by the batch
scheduler (``python -m repro verify --check service``) and resumed
byte-identically from a checkpoint (``python -m repro serve
--resume``).  See docs/SERVICE.md.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    diagnose_rejection,
)
from repro.service.api import ApiServer, TokenBucket
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.loadgen import LoadGenerator, LoadReport
from repro.service.reoptimizer import Reoptimizer, ReoptimizeCycle, shadow_reoptimize
from repro.service.state import (
    ServiceState,
    default_admission_allocator,
    replay_admission_log,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ApiServer",
    "LoadGenerator",
    "LoadReport",
    "Reoptimizer",
    "ReoptimizeCycle",
    "ServiceApp",
    "ServiceConfig",
    "ServiceState",
    "TokenBucket",
    "default_admission_allocator",
    "diagnose_rejection",
    "replay_admission_log",
    "shadow_reoptimize",
]
