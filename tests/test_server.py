"""Tests for the HTTP telemetry endpoint (`repro.obs.server`).

Each test binds an ephemeral port on 127.0.0.1 and talks to the
server over real HTTP with the stdlib client — the same way the CI
smoke job and a Prometheus scraper would.
"""

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.errors import ObsError
from repro.markov.stg import RecoverySTG
from repro.obs.events import EventBus
from repro.obs.health import HealthMonitor, ModelPrediction
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import TelemetryServer
from repro.sim.ctmc_sim import GillespieSimulator


def _get(url):
    """(status, content_type, body_bytes) for a GET, including errors."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read()


@pytest.fixture()
def monitored_server():
    """A server over a short conformant paper-workload run."""
    stg = RecoverySTG.paper_default()
    registry = MetricsRegistry()
    monitor = HealthMonitor(
        ModelPrediction.from_stg(stg), registry=registry
    ).attach(EventBus())
    GillespieSimulator(stg, random.Random(0), bus=monitor.bus).run(150.0)
    with TelemetryServer(registry=registry, monitor=monitor) as server:
        yield server, monitor


class TestLifecycle:
    def test_ephemeral_port_is_bound(self):
        server = TelemetryServer().start()
        try:
            assert server.port > 0
            assert server.url.startswith("http://127.0.0.1:")
        finally:
            server.stop()

    def test_double_start_rejected(self):
        with TelemetryServer() as server:
            with pytest.raises(ObsError):
                server.start()

    def test_stop_is_idempotent(self):
        server = TelemetryServer().start()
        server.stop()
        server.stop()

    def test_unbindable_port_raises(self):
        with TelemetryServer() as server:
            with pytest.raises(ObsError):
                TelemetryServer(port=server.port).start()


class TestBareServer:
    """No registry, no monitor: degrade, never 500."""

    def test_healthz_reports_unmonitored_ok(self):
        with TelemetryServer() as server:
            status, ctype, body = _get(server.url + "/healthz")
        assert status == 200 and "json" in ctype
        assert json.loads(body) == {"status": "ok", "monitored": False}

    def test_slo_is_404_without_monitor(self):
        with TelemetryServer() as server:
            status, _, body = _get(server.url + "/slo")
        assert status == 404
        assert "error" in json.loads(body)

    def test_metrics_empty_exposition(self):
        with TelemetryServer() as server:
            status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert body == b""

    def test_unknown_path_lists_routes(self):
        with TelemetryServer() as server:
            status, _, body = _get(server.url + "/nope")
        assert status == 404
        assert json.loads(body)["paths"] == [
            "/metrics", "/healthz", "/slo",
        ]


class TestMonitoredEndpoints:
    def test_healthz_ok_on_conformant_run(self, monitored_server):
        server, _ = monitored_server
        status, _, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["monitored"] is True
        assert payload["drifts"] == 0
        assert payload["time"] > 0

    def test_slo_payload_schema(self, monitored_server):
        server, monitor = monitored_server
        status, _, body = _get(server.url + "/slo")
        payload = json.loads(body)
        assert status == 200
        assert payload["verdict"] == "OK"
        assert set(payload["slos"]) == {
            "loss", "model-conformance", "conformance",
        }
        low, high = payload["loss"]["ci"]
        assert 0.0 <= low <= high <= 1.0
        assert payload["prediction"]["loss_probability"] == (
            monitor.prediction.loss_probability
        )

    def test_metrics_exposes_health_gauges(self, monitored_server):
        server, _ = monitored_server
        status, ctype, body = _get(server.url + "/metrics")
        text = body.decode("utf-8")
        assert status == 200
        assert "version=0.0.4" in ctype
        assert "repro_health_arrival_rate" in text
        assert 'repro_health_slo_state{slo="loss"}' in text

    def test_healthz_503_on_breach(self):
        # An impossible loss objective over a lossy calibrated run:
        # the loss SLO breaches, and the probe must go unhealthy.
        stg = RecoverySTG.paper_default(arrival_rate=6.0, buffer_size=3)
        monitor = HealthMonitor(
            ModelPrediction.from_stg(stg), loss_objective=1e-6,
        ).attach(EventBus())
        GillespieSimulator(stg, random.Random(1),
                           bus=monitor.bus).run(150.0)
        assert monitor.verdict.value == "BREACH"
        with TelemetryServer(monitor=monitor) as server:
            status, _, body = _get(server.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "breach"


def _all_keys(payload):
    """Every dict key anywhere in a JSON payload."""
    if isinstance(payload, dict):
        keys = set(payload)
        for value in payload.values():
            keys |= _all_keys(value)
        return keys
    if isinstance(payload, list):
        return set().union(*map(_all_keys, payload)) if payload else set()
    return set()


@pytest.fixture(scope="module")
def fleet_server():
    """A server over a finished small fleet run, in fleet mode."""
    from repro.fleet import FleetConfig, FleetControlPlane

    plane = FleetControlPlane(
        FleetConfig(tenants=4, duration=30.0, seed=3)
    )
    plane.run()
    with TelemetryServer(registry=plane.registry, fleet=plane) as server:
        yield server, plane


class TestFleetEndpoints:
    def test_healthz_probes_worst_of_rollup(self, fleet_server):
        server, plane = fleet_server
        status, _, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["fleet"] is True
        assert payload["tenants"] == 4
        assert payload["status"] == plane.health().verdict.value.lower()
        assert sum(payload["by_state"].values()) == 4

    def test_slo_serves_the_fleet_rollup(self, fleet_server):
        server, plane = fleet_server
        status, _, body = _get(server.url + "/slo")
        payload = json.loads(body)
        assert status == 200
        assert payload["fleet"] is True
        assert payload["tenants"] == 4
        assert payload["verdict"] == plane.health().verdict.value
        assert payload["latency"]["samples"] > 0
        assert payload["latency"]["p50"] <= payload["latency"]["p99"]
        assert len(payload["worst_tenants"]) == 4
        assert payload["audits_ok"] is True

    def test_slo_carries_no_strategy_key(self, fleet_server, monitored_server):
        """Strict correctness is the only strategy, so no payload names
        one: not the rollup, its tenant rows, a drill-down, or a single
        run's ``/slo``."""
        server, plane = fleet_server
        single, _ = monitored_server
        urls = (server.url + "/slo",
                server.url + f"/slo?tenant={plane.shards[0].tenant}",
                single.url + "/slo")
        for url in urls:
            status, _, body = _get(url)
            assert status == 200
            keys = _all_keys(json.loads(body))
            assert "conformance" in keys
            assert not keys & {"strategy", "by_strategy"}

    def test_slo_tenant_drilldown(self, fleet_server):
        server, plane = fleet_server
        tenant = plane.shards[0].tenant
        status, _, body = _get(server.url + f"/slo?tenant={tenant}")
        payload = json.loads(body)
        assert status == 200
        assert payload["tenant"] == tenant
        assert payload["profile"] == plane.shards[0].profile.name
        assert "slos" in payload and "rates" in payload

    def test_unknown_tenant_is_404(self, fleet_server):
        server, _ = fleet_server
        status, _, body = _get(server.url + "/slo?tenant=zz")
        assert status == 404
        assert "unknown tenant" in json.loads(body)["error"]

    def test_tenant_param_without_fleet_is_404(self):
        with TelemetryServer() as server:
            status, _, body = _get(server.url + "/slo?tenant=t0")
        assert status == 404
        assert "requires a fleet" in json.loads(body)["error"]

    def test_fleet_breach_fails_the_probe(self):
        import dataclasses

        from repro.fleet import FleetConfig, FleetControlPlane
        from repro.fleet.workload import PROFILES

        hot = dataclasses.replace(
            PROFILES["banking"], arrival_rate=3.0,
            alert_buffer=3, recovery_buffer=3,
        )
        plane = FleetControlPlane(
            FleetConfig(tenants=2, duration=30.0, seed=1,
                        central_capacity=4),
            profiles=[hot],
        )
        plane.run()
        assert plane.health().verdict.value == "BREACH"
        with TelemetryServer(fleet=plane) as server:
            status, _, body = _get(server.url + "/healthz")
            slo_status, _, slo_body = _get(server.url + "/slo")
        assert status == 503
        assert json.loads(body)["status"] == "breach"
        assert slo_status == 200  # the verdict is payload, not status
        assert json.loads(slo_body)["verdict"] == "BREACH"

    def test_fleet_metrics_exposition(self, fleet_server):
        server, _ = fleet_server
        status, _, body = _get(server.url + "/metrics")
        text = body.decode("utf-8")
        assert status == 200
        assert "repro_fleet_attacks_total" in text
        assert "repro_fleet_detect_heal_latency" in text


class TestProfileHammer:
    """/metrics + /healthz + /slo scraped concurrently while the fleet
    is mid-run — the one truly concurrent path in the tree.

    The server contract is that a driver mutating shared state wraps
    each mutation in ``server.lock`` — so the test drives the tick
    loop by hand under the lock while three scraper threads hammer
    every endpoint.  Every response must be a well-formed 200; a
    torn read would surface as a 500 or a JSON parse error.
    """

    def test_concurrent_scrapes_during_fleet_ticks(self):
        import threading

        from repro.fleet import FleetConfig, FleetControlPlane, WorkerPool

        config = FleetConfig(tenants=3, duration=20.0, seed=4)
        plane = FleetControlPlane(config)
        failures = []
        counts = {}
        stop = threading.Event()

        def scrape(path):
            while not stop.is_set():
                status, _, body = _get(server.url + path)
                if status != 200:
                    failures.append((path, status, body[:200]))
                    return
                if path != "/metrics":
                    json.loads(body)
                counts[path] = counts.get(path, 0) + 1

        paths = ("/metrics", "/healthz", "/slo")
        with TelemetryServer(registry=plane.registry,
                             fleet=plane) as server:
            threads = [threading.Thread(target=scrape, args=(p,))
                       for p in paths]
            for t in threads:
                t.start()
            ticks = int(round(config.duration / config.tick))
            pool = WorkerPool()
            for _ in range(ticks):
                with server.lock:
                    plane.run_tick(pool)
            stop.set()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        assert not failures, failures
        assert all(counts.get(p, 0) > 0 for p in paths), counts
