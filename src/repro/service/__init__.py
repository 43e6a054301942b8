"""Long-lived build service: daemon, wire protocol, client, job journal.

The service layer extends the pipeline's fault-tolerance invariant (any
injected fault ⇒ bit-identical image or typed error, never a hang or a
silently different binary) across process lifetimes: a bounded job queue
with typed backpressure, per-job deadlines checked cooperatively,
an append-only crash-recovery journal, graceful drain on SIGTERM/SIGINT,
and a circuit breaker that degrades to serial-uncached builds when
infrastructure failure rates spike.
"""

from repro.service.client import ServiceClient, SubmitOutcome
from repro.service.daemon import BuildService, CircuitBreaker, ServiceConfig
from repro.service.journal import JobJournal, JobState
from repro.service.protocol import (
    config_from_wire,
    config_to_wire,
    error_to_wire,
    image_summary,
    recv_frame,
    send_frame,
    wire_to_error,
)

__all__ = [
    "BuildService",
    "CircuitBreaker",
    "JobJournal",
    "JobState",
    "ServiceClient",
    "ServiceConfig",
    "SubmitOutcome",
    "config_from_wire",
    "config_to_wire",
    "error_to_wire",
    "image_summary",
    "recv_frame",
    "send_frame",
    "wire_to_error",
]
