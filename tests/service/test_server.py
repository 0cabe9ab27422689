"""HTTP layer: routing, status codes, and one live end-to-end job.

The server runs in-process on a background event-loop thread; the
manager underneath usually has *no* scheduler so admission arithmetic
stays exact (see test_manager.py).  One end-to-end test starts the real
scheduler and drives a job to success through the client.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.service import runner
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.manager import JobManager
from repro.service.server import SERVER_INFO_FILE, ServiceServer
from tests.service.conftest import job_payload, write_dataset_csv


class LiveServer:
    """A ServiceServer running on its own event-loop thread."""

    def __init__(self, manager: JobManager) -> None:
        self.server = ServiceServer(manager)
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    def __enter__(self) -> "LiveServer":
        self._thread.start()
        assert self._started.wait(10), "server never bound"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    @property
    def client(self) -> ServiceClient:
        return ServiceClient(self.server.host, self.server.port, timeout=10)


@pytest.fixture
def quiet_manager(tmp_path):
    """A manager with no scheduler thread (nothing ever launches)."""
    manager = JobManager(
        tmp_path / "svc", max_queue=2, tenant_budget=1, max_running=1
    )
    yield manager
    manager.store.close()


class TestRoutes:
    def test_healthz_and_metrics(self, quiet_manager):
        with LiveServer(quiet_manager) as live:
            health = live.client.healthz()
            assert health["status"] == "ok"
            assert health["max_running"] == 1
            metrics = live.client.metrics()
            assert metrics["counters"]["service.requests"] >= 1

    def test_server_info_file_records_bound_port(self, quiet_manager):
        with LiveServer(quiet_manager) as live:
            assert (quiet_manager.data_dir / SERVER_INFO_FILE).exists()
            client = ServiceClient.from_server_info(quiet_manager.data_dir)
            assert client.port == live.server.port
            assert client.healthz()["status"] == "ok"

    def test_submit_inspect_cancel_lifecycle(self, quiet_manager, tmp_path):
        payload = job_payload(write_dataset_csv(tmp_path))
        with LiveServer(quiet_manager) as live:
            status, accepted = live.client.submit(payload)
            assert status == 202 and accepted["state"] == "queued"
            job_id = accepted["id"]

            assert [job["id"] for job in live.client.jobs()] == [job_id]
            status, record = live.client.job(job_id)
            assert status == 200 and record["spec"]["k"] == 2

            status, body = live.client.result(job_id)
            assert status == 409  # not terminal yet

            status, cancelled = live.client.cancel(job_id)
            assert status == 200 and cancelled["state"] == "cancelled"
            status, _ = live.client.cancel(job_id)
            assert status == 409  # already terminal
            status, body = live.client.result(job_id)
            assert status == 200 and body["status"] == "cancelled"

    @pytest.mark.parametrize(
        "method, path, expect",
        [
            ("GET", "/jobs/j99999999", 404),
            ("GET", "/jobs/j99999999/result", 404),
            ("GET", "/nope", 404),
            ("PUT", "/jobs", 405),
            ("PATCH", "/healthz", 404),
        ],
    )
    def test_unknown_routes_and_methods(self, quiet_manager, method, path, expect):
        with LiveServer(quiet_manager) as live:
            status, body = live.client.request(method, path)
            assert status == expect and "error" in body


class TestSubmissionErrors:
    def test_malformed_documents_get_400(self, quiet_manager):
        with LiveServer(quiet_manager) as live:
            for document in (
                {"dataset": "builtin:adults", "k": 0},
                {"dataset": "builtin:adults", "k": 2, "bogus": True},
                {"dataset": "builtin:adults", "k": 2, "qi": ["age", "age"]},
                {"dataset": "builtin:adults", "k": 2, "mode": "processes",
                 "workers": 2},
                {"dataset": "builtin:adults", "k": 2, "mode": "shards",
                 "workers": 100_000},
                {"k": 2},
            ):
                status, body = live.client.submit(document)
                assert status == 400 and "error" in body

    def test_non_json_body_gets_400(self, quiet_manager):
        with LiveServer(quiet_manager) as live:
            import http.client

            connection = http.client.HTTPConnection(
                live.server.host, live.server.port, timeout=10
            )
            connection.request("POST", "/jobs", body=b"}{ not json")
            response = connection.getresponse()
            assert response.status == 400
            connection.close()

    def test_overload_maps_to_429_with_reason(self, quiet_manager, tmp_path):
        dataset = write_dataset_csv(tmp_path)
        with LiveServer(quiet_manager) as live:
            status, _ = live.client.submit(
                job_payload(dataset, tenant="alpha")
            )
            assert status == 202
            # Tenant budget (1) exhausted while the job sits queued.
            status, body = live.client.submit(
                job_payload(dataset, tenant="alpha")
            )
            assert status == 429 and body["reason"] == "tenant_budget"
            # Queue bound (2) next, regardless of tenant.
            status, _ = live.client.submit(job_payload(dataset, tenant="beta"))
            assert status == 202
            status, body = live.client.submit(
                job_payload(dataset, tenant="gamma")
            )
            assert status == 429 and body["reason"] == "queue_full"
            counters = live.client.metrics()["counters"]
            assert counters["service.rejected.tenant_budget"] == 1
            assert counters["service.rejected.queue_full"] == 1

    def test_draining_maps_to_503(self, quiet_manager, tmp_path):
        quiet_manager.drain()
        with LiveServer(quiet_manager) as live:
            status, body = live.client.submit(
                job_payload(write_dataset_csv(tmp_path))
            )
            assert status == 503 and body["reason"] == "draining"


class TestClientTransport:
    def test_unreachable_port_raises_service_unavailable(self):
        # Bind-then-close guarantees a port nothing is listening on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient("127.0.0.1", port, timeout=2)
        with pytest.raises(ServiceUnavailable):
            client.healthz()
        with pytest.raises(ServiceUnavailable):
            client.wait_reachable(0.5, poll=0.1)


class TestEndToEnd:
    def test_job_round_trip_matches_inline_oracle(self, tmp_path):
        manager = JobManager(
            tmp_path / "svc", retry_backoff_base=0.01, retry_backoff_cap=0.05
        )
        manager.start()
        try:
            with LiveServer(manager) as live:
                payload = job_payload(write_dataset_csv(tmp_path))
                status, accepted = live.client.submit(payload)
                assert status == 202
                record = live.client.wait_terminal(accepted["id"], timeout=120)
                assert record["state"] == "succeeded"
                status, result = live.client.result(accepted["id"])
                assert status == 200
                from repro.service.jobs import JobSpec

                oracle = runner.run_job_inline(
                    JobSpec.from_json(record["spec"])
                )
                assert runner.comparable(result) == runner.comparable(oracle)
        finally:
            manager.drain()
