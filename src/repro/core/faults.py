"""Fault injection for the crash-recovery tests.

The runner's worker pool and the sharded simulator both retry work that
died mid-flight.  Their tests provoke a real process death through an
environment hook; each caller filters on its own target (an experiment
id, a shard and tick) and then calls :func:`crash_once`.
"""

from __future__ import annotations

import os

__all__ = ["CRASH_EXIT_CODE", "crash_once"]

#: Exit status of an injected crash.
CRASH_EXIT_CODE = 17


def crash_once(sentinel: str) -> None:
    """Exit the process at once, unless ``sentinel`` says it already did.

    ``sentinel`` is ``"always"`` (crash on every call, for the
    retry-exhaustion tests) or a file path.  The first caller creates the
    file atomically (``O_CREAT | O_EXCL``) and dies without cleanup; every
    later caller, in any process, finds it and returns, so the retried
    attempt survives.
    """
    if sentinel == "always":
        os._exit(CRASH_EXIT_CODE)
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(CRASH_EXIT_CODE)
