"""Startup configuration for the experiment service.

This module is the **only** place the serve package may read the
process environment — the deep lint rule PURE001 enforces it.  A
request handler's response must be a function of (request, server
state); letting handlers peek at ``os.environ`` mid-flight would make
two identical requests answerable with different bytes, which breaks
the daemon's digest-parity guarantee.  Everything ambient is therefore
resolved *once*, here, into a frozen :class:`ServeConfig` that the
server carries for its lifetime.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.core.errors import ReproError

__all__ = ["ServeConfig", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8472
DEFAULT_WORKERS = 2

#: Request bodies above this are rejected with 413 (a HarnessConfig
#: JSON is a few hundred bytes; a megabyte is already absurd).
DEFAULT_MAX_BODY = 1 << 20

#: How often the SSE tail endpoint polls a growing spill file for new
#: events, in wall-clock seconds.
DEFAULT_TAIL_POLL = 0.05


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon resolves before accepting its first byte."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    #: Persistent pool size (pre-warmed worker processes).
    workers: int = DEFAULT_WORKERS
    #: Result-cache root; ``None`` defers to
    #: :func:`repro.runner.cache.default_cache_dir` at server build.
    cache_dir: Path | None = None
    #: Where traced runs spill their JSONL streams; ``None`` puts them
    #: under ``<cache>/serve-traces``.
    trace_dir: Path | None = None
    max_body: int = DEFAULT_MAX_BODY
    tail_poll: float = DEFAULT_TAIL_POLL

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError("serve needs workers >= 1")
        if not 0 <= self.port <= 65535:
            raise ReproError(f"port out of range: {self.port}")
        if self.max_body < 1:
            raise ReproError("max_body must be >= 1 byte")
        if self.tail_poll <= 0:
            raise ReproError("tail_poll must be > 0 seconds")

    @classmethod
    def from_env(
        cls, env: Mapping[str, str] | None = None, **overrides
    ) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` variables.

        Startup-time configuration parsing — the one sanctioned
        environment read in this package.  Explicit ``overrides``
        (CLI flags) win over the environment, which wins over the
        defaults.
        """
        if env is None:
            env = os.environ
        fields: dict = {}
        if "REPRO_SERVE_HOST" in env:
            fields["host"] = env["REPRO_SERVE_HOST"]
        for name, key in [
            ("REPRO_SERVE_PORT", "port"),
            ("REPRO_SERVE_WORKERS", "workers"),
        ]:
            if name in env:
                try:
                    fields[key] = int(env[name])
                except ValueError:
                    raise ReproError(
                        f"{name} must be an integer, got {env[name]!r}"
                    ) from None
        if "REPRO_SERVE_CACHE_DIR" in env:
            fields["cache_dir"] = Path(env["REPRO_SERVE_CACHE_DIR"])
        if "REPRO_SERVE_TRACE_DIR" in env:
            fields["trace_dir"] = Path(env["REPRO_SERVE_TRACE_DIR"])
        fields.update(
            {k: v for k, v in overrides.items() if v is not None}
        )
        return cls(**fields)
