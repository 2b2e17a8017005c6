"""Tenant policy: token-bucket quotas and priority classes.

Quotas are charged and priorities ordered by the plain
:class:`AnalyticsService`, so every service-level test runs on both
execution backends; the CLI test proves ``serve --quota`` needs no
other flag to take effect over HTTP.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import QuotaExhaustedError, ServiceError, ServiceOverloadError
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    QueryRequest,
    TenantPolicy,
    TenantQuota,
    parse_priority_arg,
    parse_quota_arg,
)
from repro.service.tenancy import PriorityWorkQueue, TokenBucket

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def graph():
    return rmat(256, 2048, seed=7, weight_range=(0.5, 2.0))


@pytest.fixture(params=["threads", "processes"])
def backend(request):
    return request.param


class TestQuotas:
    """Token buckets at submission, 429 at the HTTP edge."""

    def test_bucket_refills_at_rate(self):
        clock = [0.0]
        policy = TenantPolicy(
            quotas={"a": TenantQuota(rate=1.0, burst=2.0)},
            clock=lambda: clock[0],
        )
        assert policy.try_admit("a") == 0.0
        assert policy.try_admit("a") == 0.0
        wait = policy.try_admit("a")
        assert wait == pytest.approx(1.0)
        clock[0] = 1.5
        assert policy.try_admit("a") == 0.0
        # unmetered tenants (the default tenant included) always pass
        for _ in range(100):
            assert policy.try_admit("") == 0.0

    def test_admit_raises_typed_with_retry_after(self):
        policy = TenantPolicy(
            quotas={"a": TenantQuota(rate=2.0, burst=1.0)}, clock=lambda: 0.0
        )
        policy.admit(QueryRequest("pr", "g", tenant="a"))
        with pytest.raises(QuotaExhaustedError) as info:
            policy.admit(QueryRequest("pr", "g", tenant="a"))
        assert info.value.tenant == "a"
        assert info.value.retry_after_s == pytest.approx(0.5)

    def test_service_refuses_over_quota_submissions(self, graph, backend):
        policy = TenantPolicy(quotas={"a": TenantQuota(rate=0.001, burst=1.0)})
        with AnalyticsService(
            workers=2, backend=backend, tenants=policy
        ) as service:
            service.register("g", graph)
            first = QueryRequest.single("bfs", "g", 0, tenant="a")
            assert service.run(first).ok
            with pytest.raises(QuotaExhaustedError):
                service.submit(QueryRequest.single("bfs", "g", 1, tenant="a"))
            assert service.metrics.summary()["quota_rejected"] == 1
            # other tenants are unaffected
            assert service.run(QueryRequest.single("bfs", "g", 2)).ok

    def test_overloaded_submission_refunds_its_token(
        self, graph, backend, monkeypatch
    ):
        """A full queue refuses the work, so it must not keep the token."""
        policy = TenantPolicy(
            quotas={"t": TenantQuota(rate=1e-9, burst=1.0)},
            clock=lambda: 0.0,  # frozen: no token ever refills
        )
        entered, gate = threading.Event(), threading.Event()
        original = AnalyticsService._run_batch

        def held(self, batch, remaining_s):
            if batch.requests[0].tenant == "":
                entered.set()
                gate.wait(30)
            return original(self, batch, remaining_s)

        monkeypatch.setattr(AnalyticsService, "_run_batch", held)
        with AnalyticsService(
            workers=1, queue_size=1, backend=backend, tenants=policy
        ) as service:
            service.register("g", graph)
            running = service.submit(QueryRequest.single("bfs", "g", 0))
            assert entered.wait(30)
            queued = service.submit(QueryRequest.single("bfs", "g", 1))
            with pytest.raises(ServiceOverloadError):
                service.submit(
                    QueryRequest.single("bfs", "g", 2, tenant="t"),
                    block=False,
                )
            gate.set()
            assert running.result(timeout=60).ok
            assert queued.result(timeout=60).ok
            retry = service.submit(
                QueryRequest.single("bfs", "g", 2, tenant="t")
            )
            assert retry.result(timeout=60).ok
            assert service.metrics.summary()["quota_rejected"] == 0

    def test_refund_is_capped_at_burst(self):
        bucket = TokenBucket(rate=1e-9, burst=2.0, clock=lambda: 0.0)
        bucket.refund()  # already full: nothing to give back
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0
        assert bucket.take() > 0.0

    def test_http_maps_quota_to_429(self):
        from repro.service.api.protocol import error_response

        response = error_response(QuotaExhaustedError("a", retry_after_s=3.2))
        assert response.status == 429
        assert response.payload["error"]["type"] == "quota_exhausted"
        assert response.headers["retry-after"] == "4"

    def test_parse_quota_arg(self):
        tenant, quota = parse_quota_arg("alice=2.5:8")
        assert tenant == "alice" and quota == TenantQuota(rate=2.5, burst=8.0)
        assert parse_quota_arg("bob=0.5")[1].burst == 1.0
        for bad in ("alice", "alice=", "=2", "alice=fast"):
            with pytest.raises(ServiceError):
                parse_quota_arg(bad)


class TestPriorities:
    """Priority classes order the backlog; FIFO within a class."""

    def test_parse_priority_arg(self):
        assert parse_priority_arg("a=interactive") == ("a", 0)
        assert parse_priority_arg("b=batch") == ("b", 20)
        assert parse_priority_arg("c=7") == ("c", 7)
        with pytest.raises(ServiceError):
            parse_priority_arg("c=urgent")

    def test_queue_orders_by_priority_then_fifo(self):
        q = PriorityWorkQueue(0, priority_of=lambda item: item[0])
        q.put((20, "batch-1"))
        q.put((0, "interactive"))
        q.put((20, "batch-2"))
        q.put(None)  # shutdown sentinel drains after real work
        assert q.get() == (0, "interactive")
        assert q.get() == (20, "batch-1")
        assert q.get() == (20, "batch-2")
        assert q.get() is None

    def test_service_serves_interactive_before_batch(
        self, graph, backend, monkeypatch
    ):
        """With one held dispatcher, queued interactive work overtakes batch."""
        policy = TenantPolicy(priorities={"vip": 0, "bulk": 20})
        order = []
        gate = threading.Event()
        original = AnalyticsService._run_batch

        def recording(self, batch, remaining_s):
            tenant = batch.requests[0].tenant
            if tenant == "":
                gate.wait(30)  # hold the dispatcher while others queue
            else:
                order.append(tenant)
            return original(self, batch, remaining_s)

        monkeypatch.setattr(AnalyticsService, "_run_batch", recording)
        with AnalyticsService(
            workers=1, backend=backend, tenants=policy
        ) as service:
            service.register("g", graph)
            blocker = service.submit(QueryRequest.single("bfs", "g", 0))
            bulk = [
                service.submit(
                    QueryRequest.single("bfs", "g", i, tenant="bulk")
                )
                for i in range(1, 4)
            ]
            vip = service.submit(
                QueryRequest.single("bfs", "g", 9, tenant="vip")
            )
            gate.set()
            for ticket in [blocker, vip, *bulk]:
                assert ticket.result(timeout=60).ok
        assert order == ["vip", "bulk", "bulk", "bulk"]

    def test_no_priorities_keeps_submission_order(self, graph, monkeypatch):
        """The default policy ranks everything equal: plain FIFO."""
        order = []
        gate = threading.Event()
        original = AnalyticsService._run_batch

        def recording(self, batch, remaining_s):
            if batch.requests[0].tenant == "":
                gate.wait(30)
            else:
                order.append(batch.requests[0].tenant)
            return original(self, batch, remaining_s)

        monkeypatch.setattr(AnalyticsService, "_run_batch", recording)
        with AnalyticsService(workers=1) as service:
            service.register("g", graph)
            tickets = [service.submit(QueryRequest.single("bfs", "g", 0))]
            tenants = ["c", "a", "b", "a"]
            tickets += [
                service.submit(QueryRequest.single("bfs", "g", i, tenant=t))
                for i, t in enumerate(tenants, start=1)
            ]
            gate.set()
            assert all(t.result(timeout=60).ok for t in tickets)
        assert order == tenants


class TestTenantWire:
    """Tenant tags survive the trace wire; old traces stay identical."""

    def test_tenant_round_trips_through_recorded_trace(
        self, graph, backend, tmp_path
    ):
        from repro.service import TraceRecorder, load_trace

        path = tmp_path / "t.jsonl"
        recorder = TraceRecorder(str(path), graphs={})
        with AnalyticsService(
            workers=2, backend=backend, recorder=recorder
        ) as service:
            service.register("g", graph)
            assert service.run(
                QueryRequest.single("bfs", "g", 0, tenant="alice")
            ).ok
        recorder.close()
        trace = load_trace(str(path))
        assert trace.requests[0].tenant == "alice"
        assert trace.requests[0].to_query_request().tenant == "alice"

    def test_untenanted_requests_emit_no_tenant_field(self):
        from repro.service.ingest import TraceRequest, format_trace_line

        line = format_trace_line(
            TraceRequest(trace_id=1, algorithm="pr", graph="g")
        )
        assert "tenant" not in line


class TestServeQuotaFlag:
    """``serve --quota`` applies with no other flag, over HTTP too."""

    def test_http_second_request_over_quota_is_429(self, backend, tmp_path):
        import http.client

        ready = tmp_path / "addr.txt"
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "pokec",
                "--scale", "0.1", "--workers", "1", "--backend", backend,
                "--http", "127.0.0.1:0", "--http-ready-file", str(ready),
                "--quota", "t=1:1",
            ],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60
            while not (ready.exists() and ready.read_text().strip()):
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "server never came up"
                time.sleep(0.05)
            host, _, port = ready.read_text().strip().rpartition(":")
            body = json.dumps({
                "algorithm": "bfs", "graph": "pokec", "sources": [0],
                "tenant": "t",
            })
            responses = []
            for _ in range(2):
                conn = http.client.HTTPConnection(host, int(port), timeout=30)
                try:
                    conn.request(
                        "POST", "/v1/query", body=body,
                        headers={"content-type": "application/json"},
                    )
                    response = conn.getresponse()
                    responses.append((
                        response.status,
                        response.getheader("retry-after"),
                        json.loads(response.read()),
                    ))
                finally:
                    conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=60)
        assert responses[0][0] == 200
        status, retry_after, payload = responses[1]
        assert status == 429
        assert payload["error"]["type"] == "quota_exhausted"
        assert retry_after is not None and int(retry_after) >= 1
