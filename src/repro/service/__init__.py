"""Simulation-as-a-service: a job API and worker daemon over the orchestrator.

The orchestrator gives one process content-hashed grids, a result
cache, and resumable stores; this package adds the missing front door —
an HTTP job API — and a worker pool that outlives any one CLI
invocation, so the paper's sweeps become a shared, deduplicated
resource instead of a per-user recomputation.

Three pieces, composed thin-to-thick:

:mod:`repro.service.queue`
    :class:`JobQueue` — the transport-agnostic core: a FIFO of grid
    submissions drained by persistent daemon threads through
    :func:`repro.orchestrator.run_jobs`, with grid-level in-flight
    coalescing and cell-level cache dedupe.  N identical concurrent
    submissions cost one simulation.
:mod:`repro.service.server`
    :class:`ServiceServer` — a stdlib ``ThreadingHTTPServer`` router:
    ``POST /jobs``, ``GET /jobs/<hash>``, ``GET /jobs/<hash>/result``,
    ``GET /jobs/<hash>/events``, ``GET /healthz``, ``GET /stats``,
    ``GET /metrics`` (Prometheus text format).  Every request carries a
    trace ID (``X-Trace-Id`` honoured and echoed) and emits one
    structured access-log record (see :mod:`repro.telemetry`).
:mod:`repro.service.client`
    :class:`ServiceClient` — ``submit`` / ``poll`` / ``wait`` /
    ``fetch`` / ``events`` / ``metrics_text`` over one persistent
    HTTP/1.1 connection (``close()`` or ``with`` releases it), used by
    the ``submit`` and ``top`` CLI subcommands and ``campaign
    --via-service``.  ``wait`` retries transient connection failures
    with capped exponential backoff.

.. code-block:: python

    from repro.service import JobQueue, ServiceClient, build_server

    queue = JobQueue("/tmp/repro-service").start()
    server = build_server(queue, port=0)
    # ... serve_forever on a thread or via `repro-mst serve` ...
    with ServiceClient(server.url) as client:
        job = client.submit({"algorithms": ["randomized"],
                             "families": ["ring"], "sizes": [16],
                             "seeds": 2})
        print(client.wait(job["job"])["progress"])
"""

from .client import ServiceClient, ServiceError
from .queue import (
    FINISHED_STATES,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_STATES,
    Job,
    JobQueue,
)
from .server import ServiceHandler, ServiceServer, build_server, serve_forever

__all__ = [
    "FINISHED_STATES",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "ServiceClient",
    "ServiceError",
    "ServiceHandler",
    "ServiceServer",
    "build_server",
    "serve_forever",
]
