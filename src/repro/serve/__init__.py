"""``repro serve`` — the always-warm asyncio experiment service.

Layers, bottom up:

* :mod:`repro.serve.config` — startup configuration (the package's
  only sanctioned ``os.environ`` reader; PURE001 enforces this);
* :mod:`repro.serve.http` — hand-rolled HTTP/1.1 + SSE over asyncio
  streams (stdlib only, like everything else here);
* :mod:`repro.serve.pool` — asyncio façade over the runner's
  :class:`~repro.runner.transport.PoolRoundTransport`, the same warm
  pool ``repro run -j N`` uses;
* :mod:`repro.serve.app` — the daemon: routes, request coalescing,
  cache fronting, trace tailing;
* :mod:`repro.serve.client` — a blocking stdlib client for checks and
  scripts.

The digest-parity guarantee (daemon result ≡ ``repro run`` result,
byte for byte) rests on the serve path reusing the exact same
execution unit (:func:`repro.runner.worker.execute_task`), cache
keying, and scheduling core as the batch runner.
"""

from repro.serve.app import ExperimentServer, ServerStats, running_server
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.config import ServeConfig
from repro.serve.http import HttpError, Request
from repro.serve.pool import AsyncWorkerPool

__all__ = [
    "AsyncWorkerPool",
    "ExperimentServer",
    "HttpError",
    "Request",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServerStats",
    "running_server",
]
