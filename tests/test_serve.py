"""End-to-end tests for the ``repro serve`` daemon.

One live server per module (real sockets, real worker pool) exercised
through :class:`~repro.serve.client.ServeClient`.  The tests pin the
acceptance contract: digest parity with the batch runner, cache-hit
answers that never touch the pool, single-flight coalescing of
identical in-flight configs, O(1) result lookup, and SSE trace tails.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import time
import types
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import run_experiment
from repro.runner import RunnerConfig, run_experiments
from repro.runner.worker import CRASH_ONCE_ENV
from repro.serve import ServeClient, ServeClientError, ServeConfig, running_server
from repro.serve.pool import AsyncWorkerPool

from tests._golden import GOLDEN_CONFIG, load_golden


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServeConfig(
        port=0,  # ephemeral — parallel test runs must not collide
        workers=2,
        cache_dir=tmp_path_factory.mktemp("serve-cache"),
    )
    with running_server(config) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.config.host, server.port)


class TestHealthAndStats:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["ok"] is True
        assert doc["experiments"] >= 26
        assert doc["workers"] == 2

    def test_stats_shape(self, client):
        doc = client.stats()
        for field in (
            "requests", "submitted", "hits", "misses", "coalesced",
            "in_flight", "dispatched", "pool_rebuilds", "cache",
        ):
            assert field in doc


class TestSubmit:
    def test_cold_submit_matches_direct_run_digest(self, client):
        # The acceptance invariant: a digest served by the daemon is
        # byte-identical to the batch runner's for the same config.
        doc = client.submit("var", config=GOLDEN_CONFIG)
        assert doc["cached"] is False and doc["coalesced"] is False
        assert doc["digest"] == load_golden("var")["digest"]
        assert doc["digest"] == run_experiment("var", GOLDEN_CONFIG).digest()

    def test_warm_resubmit_is_a_cache_hit(self, client):
        before = client.stats()
        doc = client.submit("var", config=GOLDEN_CONFIG)
        after = client.stats()
        assert doc["cached"] is True
        assert doc["digest"] == load_golden("var")["digest"]
        assert after["hits"] == before["hits"] + 1
        # A hit answers from storage without dispatching to the pool.
        assert after["dispatched"] == before["dispatched"]

    def test_identical_inflight_submits_coalesce(self, client):
        # A fresh config (seed bump) so neither request can be a cache
        # hit: the two must collapse onto one underlying execution.
        config = dataclasses.replace(GOLDEN_CONFIG, seed=GOLDEN_CONFIG.seed + 1)
        before = client.stats()
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futs = [
                pool.submit(client.submit, "var", config) for _ in range(2)
            ]
            docs = [f.result() for f in futs]
        after = client.stats()
        assert docs[0]["digest"] == docs[1]["digest"]
        assert sorted(d["coalesced"] for d in docs) == [False, True]
        assert after["coalesced"] == before["coalesced"] + 1
        assert after["dispatched"] == before["dispatched"] + 1

    def test_profile_submission(self, client):
        doc = client.submit("var", profile="quick")
        assert doc["digest"]

    def test_unknown_experiment_is_404(self, client):
        with pytest.raises(ServeClientError) as caught:
            client.submit("fig99", config=GOLDEN_CONFIG)
        assert caught.value.status == 404

    def test_bad_config_is_400(self, client):
        with pytest.raises(ServeClientError) as caught:
            client.submit("var", config={"repetitions": "many"})
        assert caught.value.status == 400

    def test_missing_exp_id_is_400(self, client):
        with pytest.raises(ServeClientError) as caught:
            client._request("POST", "/experiments", {"config": {}})
        assert caught.value.status == 400

    def test_daemon_entry_is_a_warm_hit_for_run_experiments(
        self, server, client
    ):
        # ``repro serve`` and ``repro run`` share one cache-entry format:
        # a result the daemon stored is served warm to a batch campaign.
        config = dataclasses.replace(
            GOLDEN_CONFIG, seed=GOLDEN_CONFIG.seed + 4
        )
        doc = client.submit("var", config=config)
        assert doc["cached"] is False
        runner = RunnerConfig(cache_dir=server.cache.root)
        report = run_experiments(["var"], config=config, runner=runner)
        assert report.executed == 0
        assert report.tasks[0].result.digest() == doc["digest"]


class TestResults:
    def test_lookup_by_digest(self, client):
        digest = client.submit("var", config=GOLDEN_CONFIG)["digest"]
        doc = client.result(digest)
        assert doc["digest"] == digest
        assert doc["exp_id"] == "var"
        assert doc["result"] == run_experiment("var", GOLDEN_CONFIG).to_dict()

    def test_lookup_by_cache_key(self, client):
        submitted = client.submit("var", config=GOLDEN_CONFIG)
        doc = client.result(submitted["key"])
        assert doc["digest"] == submitted["digest"]

    def test_unknown_digest_is_404(self, client):
        with pytest.raises(ServeClientError) as caught:
            client.result("f" * 64)
        assert caught.value.status == 404


class TestTraceTail:
    def test_traced_run_streams_header_events_end(self, client):
        doc = client.submit("var", config=GOLDEN_CONFIG, trace=True)
        assert doc["digest"] == load_golden("var")["digest"]  # unchanged
        frames = client.tail(doc["digest"])
        events = [f["event"] for f in frames]
        assert events[0] == "header"
        assert events[-1] == "end"
        assert events.count("message") >= 1
        # Every message frame is one canonical JSONL trace line.
        for frame in frames:
            if frame["event"] == "message":
                assert isinstance(frame["data"], dict)

    def test_limit_truncates_the_stream(self, client):
        doc = client.submit("var", config=GOLDEN_CONFIG, trace=True)
        frames = client.tail(doc["digest"], limit=1)
        assert [f["event"] for f in frames if f["event"] == "message"] == [
            "message"
        ]

    def test_traced_submit_never_rides_an_untraced_run(self, client):
        # A longer run than the golden config, so the untraced one is
        # reliably still executing when the traced one arrives.
        config = dataclasses.replace(
            GOLDEN_CONFIG, seed=GOLDEN_CONFIG.seed + 3, duration=16.0
        )
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            untraced = pool.submit(client.submit, "var", config)
            deadline = time.monotonic() + 60
            while client.stats()["in_flight"] != 1:
                assert time.monotonic() < deadline, "untraced run never started"
                time.sleep(0.005)
            traced = client.submit("var", config=config, trace=True)
            assert untraced.result()["digest"] == traced["digest"]
        assert traced["coalesced"] is False
        events = [f["event"] for f in client.tail(traced["digest"])]
        assert events[0] == "header"
        assert events[-1] == "end"

    def test_untraced_digest_has_no_tail(self, client):
        # A config that only ever ran untraced (same key as a traced
        # run would legitimately have a tail).
        config = dataclasses.replace(GOLDEN_CONFIG, seed=GOLDEN_CONFIG.seed + 2)
        digest = client.submit("var", config=config)["digest"]
        with pytest.raises(ServeClientError) as caught:
            client.tail(digest)
        assert caught.value.status == 404


class TestRouting:
    def test_post_to_get_only_route_is_405(self, client):
        with pytest.raises(ServeClientError) as caught:
            client._request("POST", "/healthz", {"x": 1})
        assert caught.value.status == 405

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeClientError) as caught:
            client._request("GET", "/nope")
        assert caught.value.status == 404

    def test_unsupported_method_is_405(self, client):
        import http.client

        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            conn.request("DELETE", "/stats")
            assert conn.getresponse().status == 405
        finally:
            conn.close()


class TestConnectionReuse:
    def test_keep_alive_serves_many_requests_per_connection(self, server):
        import http.client
        import json as json_mod

        conn = http.client.HTTPConnection(
            server.config.host, server.port, timeout=30
        )
        try:
            answers = []
            for _ in range(5):
                conn.request("GET", "/healthz")
                reply = conn.getresponse()
                answers.append(json_mod.loads(reply.read()))
                assert reply.status == 200
            assert all(a["ok"] for a in answers)
        finally:
            conn.close()


class TestWorkerCrash:
    """The daemon's crash-retry path, with real worker deaths."""

    @pytest.fixture
    def crash_client(self, tmp_path):
        config = ServeConfig(port=0, workers=2, cache_dir=tmp_path / "cache")
        with running_server(config) as srv:
            yield ServeClient(srv.config.host, srv.port)

    def test_crash_once_is_retried_on_a_rebuilt_pool(
        self, crash_client, tmp_path, monkeypatch
    ):
        sentinel = tmp_path / "crashed-once"
        monkeypatch.setenv(CRASH_ONCE_ENV, f"var:{sentinel}")
        doc = crash_client.submit("var", config=GOLDEN_CONFIG)
        assert sentinel.exists()  # the crash really happened
        assert doc["digest"] == load_golden("var")["digest"]
        assert crash_client.stats()["pool_rebuilds"] == 1

    def test_repeated_crashes_are_a_503(self, crash_client, monkeypatch):
        monkeypatch.setenv(CRASH_ONCE_ENV, "var:always")
        with pytest.raises(ServeClientError) as caught:
            crash_client.submit("var", config=GOLDEN_CONFIG)
        assert caught.value.status == 503
        assert "worker crashed 3 times running var; giving up" in str(
            caught.value
        )
        assert crash_client.stats()["pool_rebuilds"] == 3


class _BrokenOnceTransport:
    """A pool transport whose first ``submit`` finds the pool broken.

    That is what a request meets when it submits to a pool another
    request's crash broke, before that request has discarded it: the
    executor raises ``BrokenProcessPool`` from ``submit`` itself, not
    from the future.
    """

    def __init__(self, payload):
        self.payload = payload
        self.broken = True
        self.rebuilds = 0

    def submit(self, spec):
        if self.broken:
            raise BrokenProcessPool("a sibling request's worker died")
        future = concurrent.futures.Future()
        future.set_result(self.payload)
        return future

    def discard_pool(self):
        self.broken = False
        self.rebuilds += 1


class TestAsyncWorkerPool:
    def test_submit_to_a_broken_pool_is_retried_on_a_rebuilt_one(self):
        transport = _BrokenOnceTransport({"ok": True})
        spec = types.SimpleNamespace(exp_id="var")
        payload = asyncio.run(AsyncWorkerPool(transport).run(spec))
        assert payload == {"ok": True}
        assert transport.rebuilds == 1
