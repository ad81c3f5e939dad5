"""The always-warm experiment service.

``repro serve`` turns the batch runner inside out: instead of paying
interpreter + import + cold-cache startup per campaign, one daemon
process fronts the content-addressed result cache and a persistent
pre-warmed worker pool, and experiments become requests:

* ``POST /experiments`` — submit ``{"exp_id", "config"|"profile"}``;
  replies with the result digest.  Cache hits answer without touching
  the pool; identical in-flight configs **coalesce** onto one
  underlying run (single-flight keyed by the cache content key and the
  trace flag), so a stampede of equal requests costs one execution.
* ``GET /results/<digest>`` — O(1) lookup of a previously produced
  result by its digest (or directly by cache key).
* ``GET /healthz`` / ``GET /stats`` — liveness and the counters the
  smoke tests assert on (hits/misses/coalesced/in-flight/dispatched).
* ``GET /traces/<digest>/tail`` — Server-Sent Events stream of a
  traced run's spilled JSONL events, following a growing file.

Digest parity is the load-bearing guarantee: a result obtained through
the daemon is byte-identical to ``repro run`` for the same (code,
exp_id, config) — both go through
:func:`repro.runner.worker.execute_task` and the same cache entries,
so the daemon can never serve numbers a batch run would not produce.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from pathlib import Path

from repro.core.errors import ReproError, RunnerError
from repro.experiments.base import ExperimentResult
from repro.runner.cache import (
    ResultCache,
    cache_entry,
    cache_key,
    default_cache_dir,
    source_digest,
)
from repro.runner.tasks import TaskSpec
from repro.runner.transport import PoolRoundTransport
from repro.serve.config import ServeConfig
from repro.serve.http import (
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
    sse_event,
    sse_preamble,
)
from repro.serve.pool import AsyncWorkerPool
from repro.tools.harness import HARNESS_PROFILES, HarnessConfig
from repro.trace.bus import TraceSpec

__all__ = ["ExperimentServer", "ServerStats", "running_server"]

class ServerStats:
    """Monotonic request counters; the smoke tests' evidence."""

    FIELDS = (
        "requests",
        "submitted",
        "hits",
        "misses",
        "coalesced",
        "dispatched_errors",
        "results_served",
        "traces_tailed",
        "errors",
    )

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


class ExperimentServer:
    """One asyncio daemon over (cache, warm process pool)."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        cache_root = Path(self.config.cache_dir or default_cache_dir())
        self.cache = ResultCache(cache_root)
        self.trace_dir = Path(
            self.config.trace_dir or cache_root / "serve-traces"
        )
        self.src_digest = source_digest()
        self.pool = AsyncWorkerPool(PoolRoundTransport(self.config.workers))
        self.stats = ServerStats()
        #: Single-flight table: (cache key, traced) -> future resolving
        #: to the worker payload.  Presence means "this exact config is
        #: executing right now"; later identical submissions await the
        #: same future instead of dispatching again.  The trace flag is
        #: part of the key so a traced submission never rides an
        #: untraced run (which spills no events to tail).
        self._inflight: dict[tuple[str, bool], asyncio.Future] = {}
        #: result digest -> cache key, for ``GET /results/<digest>``.
        self._digest_index: dict[str, str] = {}
        #: cache key -> spilled JSONL path, for the SSE tail route.
        self._trace_paths: dict[str, Path] = {}
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves the ephemeral port."""
        # Import the registry (and through it numpy + every experiment
        # and kernel module) *before* the first fork, so pool workers
        # inherit a fully warmed interpreter.
        import repro.experiments.registry  # noqa: F401

        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.pool.transport.close()

    # -- connection loop ------------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body
                    )
                except HttpError as exc:
                    # Parse errors leave the stream position undefined;
                    # answer and hang up.
                    writer.write(error_response(exc.status, exc.message))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep = await self._dispatch(request, writer)
                await writer.drain()
                if not keep or not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns False when the connection must close."""
        self.stats.requests += 1
        parts = [p for p in request.path.split("/") if p]
        try:
            if request.method == "GET":
                if parts == ["healthz"]:
                    writer.write(json_response(200, self._healthz()))
                    return True
                if parts == ["stats"]:
                    writer.write(json_response(200, self._stats_doc()))
                    return True
                if len(parts) == 2 and parts[0] == "results":
                    writer.write(self._handle_result(parts[1]))
                    return True
                if (
                    len(parts) == 3
                    and parts[0] == "traces"
                    and parts[2] == "tail"
                ):
                    await self._handle_tail(parts[1], request, writer)
                    return False  # SSE streams end with the connection
            if request.method == "POST":
                if parts == ["experiments"]:
                    writer.write(await self._handle_submit(request))
                    return True
                if parts in (["healthz"], ["stats"]) or (
                    parts and parts[0] in ("results", "traces")
                ):
                    raise HttpError(405, f"{request.path} is GET-only")
            if request.method not in ("GET", "POST"):
                raise HttpError(405, f"method {request.method} not supported")
            raise HttpError(404, f"no route for {request.method} {request.path}")
        except HttpError as exc:
            writer.write(error_response(exc.status, exc.message, keep_alive=True))
            return True
        except RunnerError as exc:
            # Workers kept crashing: the server, not the request, failed.
            self.stats.errors += 1
            writer.write(error_response(503, str(exc), keep_alive=True))
            return True
        except ReproError as exc:
            self.stats.errors += 1
            writer.write(error_response(400, str(exc), keep_alive=True))
            return True
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.stats.errors += 1
            writer.write(
                error_response(
                    500, f"{type(exc).__name__}: {exc}", keep_alive=False
                )
            )
            return False

    # -- GET routes -----------------------------------------------------

    def _healthz(self) -> dict:
        from repro.experiments.registry import REGISTRY

        return {
            "ok": True,
            "workers": self.config.workers,
            "experiments": len(REGISTRY),
            "source": self.src_digest[:12],
        }

    def _stats_doc(self) -> dict:
        doc = self.stats.to_dict()
        doc.update(
            {
                "in_flight": len(self._inflight),
                "dispatched": self.pool.transport.dispatched,
                "pool_rebuilds": self.pool.transport.rebuilds,
                "cache": {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                    "stores": self.cache.stores,
                },
                "workers": self.config.workers,
            }
        )
        return doc

    def _resolve_key(self, token: str) -> str | None:
        """A results/traces path token: result digest, or cache key."""
        key = self._digest_index.get(token)
        if key is not None:
            return key
        if token in self._trace_paths:
            return token
        return None

    def _handle_result(self, token: str) -> bytes:
        key = self._resolve_key(token) or token
        doc = self.cache.get(key)
        if doc is None:
            raise HttpError(
                404, f"no result for {token!r} (not a known digest or key)"
            )
        result = ExperimentResult.from_dict(doc["result"])
        digest = result.digest()
        self._digest_index[digest] = key
        self.stats.results_served += 1
        return json_response(
            200,
            {
                "exp_id": doc["exp_id"],
                "key": key,
                "digest": digest,
                "elapsed": doc.get("elapsed", 0.0),
                "result": doc["result"],
            },
        )

    async def _handle_tail(
        self,
        token: str,
        request: Request,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = self._resolve_key(token)
        path = self._trace_paths.get(key) if key is not None else None
        if path is None:
            raise HttpError(
                404,
                f"no spilled trace for {token!r}; POST the experiment "
                f'with "trace": true first',
            )
        limit = None
        if "limit" in request.query:
            try:
                limit = int(request.query["limit"])
            except ValueError:
                raise HttpError(400, "limit must be an integer") from None
        self.stats.traces_tailed += 1
        writer.write(sse_preamble())
        await writer.drain()
        await self._stream_jsonl(writer, key, path, limit)

    async def _stream_jsonl(
        self,
        writer: asyncio.StreamWriter,
        key: str,
        path: Path,
        limit: int | None,
    ) -> None:
        """Follow a (possibly still growing) JSONL spill file as SSE.

        Emits the header record as ``event: header``, each trace event
        as a plain ``data:`` frame (the exact canonical JSON line the
        digest covers), and the finalize record as ``event: end``.  The
        stream closes at the end record, at ``limit`` events, or once
        the run is no longer in flight and the file has stopped
        growing (a crashed writer's truncated stream is still served
        to its last complete line).
        """
        pos = 0
        sent = 0
        idle_polls = 0
        while True:
            chunk = b""
            if path.exists():
                with open(path, "rb") as fh:
                    fh.seek(pos)
                    chunk = fh.read()
            lines = chunk.split(b"\n")
            # A partial trailing line stays on disk for the next poll.
            for raw in lines[:-1]:
                pos += len(raw) + 1
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                if '"kind":"header"' in line or '"kind": "header"' in line:
                    writer.write(sse_event(line, event="header"))
                    continue
                if '"kind":"end"' in line or '"kind": "end"' in line:
                    writer.write(sse_event(line, event="end"))
                    await writer.drain()
                    return
                writer.write(sse_event(line))
                sent += 1
                if limit is not None and sent >= limit:
                    await writer.drain()
                    return
            await writer.drain()
            if chunk:
                idle_polls = 0
            else:
                if (key, True) not in self._inflight:
                    idle_polls += 1
                    if idle_polls >= 2:
                        # Finished (or crashed) with no finalize record:
                        # serve what exists and close as truncated.
                        writer.write(sse_event("", event="truncated"))
                        await writer.drain()
                        return
            await asyncio.sleep(self.config.tail_poll)

    # -- POST /experiments ----------------------------------------------

    def _parse_submission(
        self, doc: dict
    ) -> tuple[str, HarnessConfig, bool]:
        from repro.experiments.registry import REGISTRY, all_experiment_ids

        exp_id = doc.get("exp_id")
        if not isinstance(exp_id, str) or not exp_id:
            raise HttpError(400, 'body needs an "exp_id" string')
        if exp_id not in REGISTRY:
            raise HttpError(
                404,
                f"unknown experiment {exp_id!r}; have "
                f"{', '.join(all_experiment_ids())}",
            )
        if "config" in doc:
            if not isinstance(doc["config"], dict):
                raise HttpError(400, '"config" must be an object')
            try:
                config = HarnessConfig.from_dict(doc["config"])
            except (ReproError, TypeError, KeyError, ValueError) as exc:
                raise HttpError(400, f"bad harness config: {exc}") from None
        else:
            profile = doc.get("profile", "bench")
            if profile not in HARNESS_PROFILES:
                raise HttpError(
                    400,
                    f"unknown profile {profile!r}; have "
                    f"{', '.join(sorted(HARNESS_PROFILES))}",
                )
            config = HARNESS_PROFILES[profile]()
        return exp_id, config, bool(doc.get("trace", False))

    async def _handle_submit(self, request: Request) -> bytes:
        exp_id, config, trace = self._parse_submission(request.json())
        self.stats.submitted += 1
        key = cache_key(exp_id, config, self.src_digest)

        if not trace:
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.hits += 1
                digest = ExperimentResult.from_dict(
                    cached["result"]
                ).digest()
                self._digest_index[digest] = key
                return json_response(
                    200,
                    self._submit_doc(
                        exp_id, key, digest, cached=True, coalesced=False,
                        elapsed=0.0,
                    ),
                )
            self.stats.misses += 1

        inflight = self._inflight.get((key, trace))
        if inflight is not None:
            # Single-flight: ride the run that is already executing.
            # shield() keeps one cancelled waiter (client hung up) from
            # cancelling the shared run out from under the others.
            self.stats.coalesced += 1
            payload = await asyncio.shield(inflight)
            coalesced = True
        else:
            payload = await self._lead_run(exp_id, config, trace, key)
            coalesced = False

        digest = ExperimentResult.from_dict(payload["result"]).digest()
        self._digest_index[digest] = key
        return json_response(
            200,
            self._submit_doc(
                exp_id, key, digest, cached=False, coalesced=coalesced,
                elapsed=payload["elapsed"],
            ),
        )

    async def _lead_run(
        self, exp_id: str, config: HarnessConfig, trace: bool, key: str
    ) -> dict:
        """Execute as the single-flight leader for ``key``."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key, trace] = future
        try:
            spec = TaskSpec(
                exp_id=exp_id,
                config=config,
                trace=(
                    TraceSpec(spill_dir=str(self.trace_dir)) if trace else None
                ),
            )
            if trace:
                self.trace_dir.mkdir(parents=True, exist_ok=True)
                self._trace_paths[key] = (
                    self.trace_dir / f"{spec.artifact_stem}.trace.jsonl"
                )
            payload = await self.pool.run(spec)
            self.cache.put(
                key,
                cache_entry(
                    exp_id,
                    config,
                    self.src_digest,
                    payload["elapsed"],
                    payload["result"],
                ),
            )
            if not future.cancelled():
                future.set_result(payload)
            return payload
        except BaseException as exc:
            self.stats.dispatched_errors += 1
            if not future.cancelled():
                future.set_exception(exc)
                # Mark retrieved so a waiterless failure does not warn
                # at GC time; waiters re-raise through shield().
                future.exception()
            raise
        finally:
            del self._inflight[key, trace]

    @staticmethod
    def _submit_doc(
        exp_id: str,
        key: str,
        digest: str,
        cached: bool,
        coalesced: bool,
        elapsed: float,
    ) -> dict:
        return {
            "exp_id": exp_id,
            "key": key,
            "digest": digest,
            "cached": cached,
            "coalesced": coalesced,
            "elapsed": elapsed,
        }


@contextlib.contextmanager
def running_server(config: ServeConfig | None = None):
    """A live :class:`ExperimentServer` on a background event loop.

    The synchronous harness the CLI self-check, the tests, and the
    load bench share: the server accepts on its own thread, the caller
    talks to it over real sockets from this one.  Yields the server
    (with ``.port`` resolved); tears everything down on exit.
    """
    server = ExperimentServer(config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot_error: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind errors to the caller
            boot_error.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if boot_error:
        loop.close()
        raise boot_error[0]
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
