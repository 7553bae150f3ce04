"""The debug surface: trace propagation, /debug endpoints, SLO health.

End-to-end contract: a client request's trace id — whether minted by the
client or injected by an already-traced tenant — names one coherent span
forest on the server, retrievable at ``GET /debug/trace/<id>`` alongside
the request's flight record; blowing a latency SLO turns ``/healthz``
degraded until the kernel recovers.
"""

import pytest

from repro.obs import context, trace
from repro.serve import ServiceConfig, ServiceThread
from repro.serve.client import ServiceError


@pytest.fixture(scope="class")
def service():
    with ServiceThread(config=ServiceConfig(port=0)) as thread:
        yield thread


class TestTracePropagation:
    def test_client_reports_server_stamped_trace_id(self, service):
        client = service.client()
        _, _, _, trace_id = client.analyse_detail("blackscholes")
        assert len(trace_id) == 32
        assert client.last_trace_id == trace_id

    def test_caller_supplied_context_wins(self, service):
        ctx = context.new_trace()
        client = service.client()
        with context.use(ctx):
            _, _, _, trace_id = client.analyse_detail("blackscholes")
        assert trace_id == ctx.trace_id
        assert client.last_trace_id == ctx.trace_id

    def test_each_untraced_request_gets_a_fresh_trace(self, service):
        client = service.client()
        client.analyse_raw("blackscholes")
        first = client.last_trace_id
        client.analyse_raw("blackscholes")
        assert client.last_trace_id != first

    def test_healthz_reports_tracing_on(self, service):
        health = service.client().healthz()
        assert health["tracing"] is True
        assert health["degraded"] is False
        assert health["degraded_kernels"] == []


class TestDebugRequests:
    def test_flight_record_carries_attribution(self, service):
        client = service.client()
        _, outcome, (size, index), trace_id = client.analyse_detail(
            "blackscholes"
        )
        body = client.debug_requests()
        assert body["recorded"] >= 1
        rec = next(
            r for r in body["requests"] if r["trace_id"] == trace_id
        )
        assert rec["kernel"] == "blackscholes"
        assert rec["path"] == "/analyse"
        assert rec["status"] == 200
        assert rec["outcome"] == outcome
        assert rec["batch"] == {"size": size, "index": index}
        assert rec["executor"] == "thread"
        assert rec["duration_ms"] > 0
        assert "dispatch" in rec["stages_ms"]

    def test_newest_first_and_limit(self, service):
        client = service.client()
        client.analyse_raw("blackscholes")
        first = client.last_trace_id
        client.analyse_raw("blackscholes")
        second = client.last_trace_id
        body = client.debug_requests(limit=2)
        ids = [r["trace_id"] for r in body["requests"]]
        assert ids[:2] == [second, first]
        assert len(body["requests"]) <= 2

    def test_errors_are_recorded_too(self, service):
        client = service.client()
        with pytest.raises(ServiceError):
            client.analyse("no-such-kernel")
        failed = client.last_trace_id
        rec = next(
            r
            for r in client.debug_requests()["requests"]
            if r["trace_id"] == failed
        )
        assert rec["status"] == 404
        assert "no-such-kernel" in rec["error"]

    def test_debug_traffic_not_self_recorded(self, service):
        client = service.client()
        client.analyse_raw("blackscholes")
        client.debug_requests()
        probe = client.last_trace_id  # the debug request's own trace
        paths = {r["path"] for r in client.debug_requests()["requests"]}
        ids = {r["trace_id"] for r in client.debug_requests()["requests"]}
        assert "/debug/requests" not in paths
        assert probe not in ids

    def test_advise_and_tune_are_attributed(self, service):
        client = service.client()
        client.advise("blackscholes", threshold=0.25)
        advised = client.last_trace_id
        client.tune("dct", target_quality=30.0, size=16)
        tuned = client.last_trace_id
        records = {
            r["trace_id"]: r for r in client.debug_requests()["requests"]
        }
        assert records[advised]["path"] == "/advise"
        assert records[advised]["kernel"] == "blackscholes"
        assert records[advised]["outcome"] in ("record", "replay")
        assert records[tuned]["path"] == "/tune"
        assert records[tuned]["kernel"] == "dct"

    def test_bad_limit_is_400(self, service):
        client = service.client()
        with pytest.raises(ServiceError) as exc_info:
            client.debug_requests(limit="soon")
        assert exc_info.value.status == 400


class TestDebugTrace:
    def test_trace_joins_record_and_span_tree(self, service):
        client = service.client()
        # Warm first so the inspected request replays through the batcher.
        client.analyse_raw("blackscholes")
        _, outcome, (size, _), trace_id = client.analyse_detail(
            "blackscholes"
        )
        body = client.debug_trace(trace_id)
        assert body["trace_id"] == trace_id
        assert body["request"]["kernel"] == "blackscholes"
        assert body["request"]["batch"]["size"] == size

        def names(nodes):
            for node in nodes:
                yield node["name"]
                yield from names(node["children"])

        seen = list(names(body["spans"]))
        assert "serve.analyse" in seen
        assert "serve.batch" in seen
        if outcome == "replay":
            assert "trace_cache.replay" in seen
        # The HTTP span is the forest root and the batch span hangs off
        # the request (directly, or via the batch span's links).
        root = body["spans"][0]
        assert root["name"] == "serve.analyse"
        assert root["trace_id"] == trace_id

    def test_default_argument_is_last_trace(self, service):
        client = service.client()
        client.analyse_raw("blackscholes")
        expected = client.last_trace_id
        assert client.debug_trace()["trace_id"] == expected

    def test_malformed_id_is_400(self, service):
        with pytest.raises(ServiceError) as exc_info:
            service.client().debug_trace("not-a-trace-id")
        assert exc_info.value.status == 400

    def test_unknown_id_is_404(self, service):
        with pytest.raises(ServiceError) as exc_info:
            service.client().debug_trace("f" * 32)
        assert exc_info.value.status == 404


class TestSloHealth:
    def test_blown_slo_degrades_healthz_until_recovery(self):
        # An SLO no real request can meet: everything is degraded...
        config = ServiceConfig(port=0, default_slo_ms=0.000001)
        with ServiceThread(config=config) as service:
            client = service.client()
            client.analyse_raw("blackscholes")
            health = client.healthz()
            assert health["degraded"] is True
            assert health["degraded_kernels"] == ["blackscholes"]
            rec = client.debug_requests()["requests"][0]
            assert rec["slo_ms"] == 0.000001
            assert rec["slo_violated"] is True
            # ...until the kernel's next request comes in under the bar.
            service.service.flight.set_slo("blackscholes", 60_000.0)
            client.analyse_raw("blackscholes")
            health = client.healthz()
            assert health["degraded"] is False

    def test_advise_and_tune_count_toward_their_kernels_slo(self):
        config = ServiceConfig(port=0, default_slo_ms=0.000001)
        with ServiceThread(config=config) as service:
            client = service.client()
            client.advise("blackscholes")
            client.tune("dct", target_quality=30.0, size=16)
            health = client.healthz()
            assert health["degraded_kernels"] == ["blackscholes", "dct"]

    def test_no_slo_by_default(self, service):
        assert service.service.flight.slo_for("blackscholes") is None


class TestTracingDisabled:
    def test_flight_recorder_still_on_without_tracing(self):
        config = ServiceConfig(port=0, tracing=False)
        with ServiceThread(config=config) as service:
            client = service.client()
            _, _, _, trace_id = client.analyse_detail("blackscholes")
            assert client.healthz()["tracing"] is False
            body = client.debug_trace(trace_id)
            # The flight record survives; no spans were retained.
            assert body["request"]["kernel"] == "blackscholes"
            assert body["spans"] == []


class TestTracingFlag:
    """Services switch span recording on for their lifetime; the last one
    to close restores the caller's flag, whatever the close order."""

    @pytest.mark.parametrize("order", ["nested", "start_order"])
    def test_last_close_restores_callers_flag(self, order):
        previous = trace.set_enabled(False)
        try:
            a = ServiceThread(config=ServiceConfig(port=0)).start()
            b = ServiceThread(config=ServiceConfig(port=0)).start()
            assert trace.enabled()
            first, last = (b, a) if order == "nested" else (a, b)
            first.stop()
            assert trace.enabled(), "a running service lost its spans"
            last.stop()
            assert not trace.enabled()
        finally:
            trace.set_enabled(previous)

    def test_holds_survive_concurrent_starts_and_closes(self):
        """Many threads taking and dropping the flag at once (short switch
        interval): it stays on while any hold is live and the last
        release restores the caller's value."""
        import sys
        import threading

        from repro.serve.app import _TracingHolds

        holds = _TracingHolds()
        previous = trace.set_enabled(False)
        barrier = threading.Barrier(8)
        lost = []

        def churn():
            barrier.wait()
            for _ in range(200):
                holds.acquire()
                if not trace.enabled():
                    lost.append(True)
                holds.release()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            holds.acquire()
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert trace.enabled() and not lost
            holds.release()
            assert not trace.enabled()
        finally:
            sys.setswitchinterval(interval)
            trace.set_enabled(previous)
