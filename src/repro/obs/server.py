"""HTTP telemetry endpoint over the stdlib ``http.server``.

A production self-healing system is judged from the outside — scrapers
pull metrics, load balancers probe health, operators curl the SLO
verdicts.  :class:`TelemetryServer` exposes exactly those three views
of a run, with zero dependencies beyond the standard library:

- ``GET /metrics``  — Prometheus text exposition of a
  :class:`~repro.obs.metrics.MetricsRegistry` (the existing exporter,
  now scrapeable);
- ``GET /healthz``  — a liveness/readiness probe: JSON status, HTTP
  ``200`` while the :class:`~repro.obs.health.HealthMonitor`'s worst
  SLO is OK or WARN, ``503`` on BREACH (so a probe-driven orchestrator
  reacts to a breached objective with no JSON parsing at all);
- ``GET /slo``      — the full JSON health summary (verdicts, windowed
  estimates, drift alarms, model predictions).

In **fleet mode** (``fleet=`` a
:class:`~repro.fleet.control.FleetControlPlane`, or anything with its
``health()`` / ``shard_by_tenant()`` shape) the same routes serve the
whole fleet: ``/healthz`` probes the *worst-of* rollup (``503`` when
any tenant breaches), ``/slo`` returns the fleet rollup — tenant
counts per state, merged conformance, latency percentiles, the worst
tenants — and ``/slo?tenant=t0042`` drills down into one tenant's full
single-system summary.

The server binds ``127.0.0.1`` by default and accepts port ``0`` for
an ephemeral port (the bound port is on :attr:`port` after
:meth:`start` — how the CI smoke test avoids collisions).

Threading contract
------------------
The run loop owns all state: the system, the fleet, the bus, the
metrics and the monitors are built, mutated and read on its one
thread, and none of them takes a lock.  The HTTP threads
started here (the serving thread and one handler thread per request)
are the only other threads in the package, and
:attr:`TelemetryServer.lock` is the only lock.  Handlers hold it around every render, so concurrent scrapes
never interleave with each other.  The CLI's ``--serve`` paths start
the server after the run returns, when the state is read-only.  A
driver that serves while it still mutates that state takes
``with server.lock:`` around each mutation (one tick, one epoch), so a
scrape sees the state between two mutations and never during one.
Replication workers of :mod:`repro.sim.batch` are processes that
share no memory.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl

from repro.errors import FleetError, ObsError
from repro.obs.health import HealthMonitor, SloState
from repro.obs.metrics import MetricsRegistry

__all__ = ["TelemetryServer"]

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Request handler: three read-only GET routes, JSON errors."""

    server: "_TelemetryHTTPServer"

    # Silence the default stderr access log — the CLI owns stdout and
    # a scrape every few seconds would drown it.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        owner = self.server.owner
        path, _, query = self.path.partition("?")
        params = dict(parse_qsl(query))
        with owner.lock:
            if path == "/metrics":
                status, body = owner.render_metrics()
                self._send(status, body.encode("utf-8"),
                           PROMETHEUS_CONTENT_TYPE)
            elif path == "/healthz":
                status, payload = owner.render_healthz()
                self._send_json(status, payload)
            elif path == "/slo":
                status, payload = owner.render_slo(
                    tenant=params.get("tenant")
                )
                self._send_json(status, payload)
            else:
                self._send_json(404, {
                    "error": f"unknown path {path!r}",
                    "paths": ["/metrics", "/healthz", "/slo"],
                })


class _TelemetryHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning TelemetryServer."""

    daemon_threads = True
    owner: "TelemetryServer"


class TelemetryServer:
    """Serves ``/metrics``, ``/healthz`` and ``/slo`` for a run.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` behind ``/metrics`` (``None``
        serves an empty exposition).
    monitor:
        The :class:`HealthMonitor` behind ``/healthz`` and ``/slo``
        (``None`` makes ``/healthz`` report ``ok`` — nothing monitored
        is nothing breached — and ``/slo`` return 404).
    fleet:
        Optional fleet source — a
        :class:`~repro.fleet.control.FleetControlPlane` or any object
        with ``health() -> FleetHealth`` and
        ``shard_by_tenant(id) -> TenantShard``.  When set, ``/healthz``
        and ``/slo`` serve the fleet rollup (and ``?tenant=`` drills
        down) instead of the single ``monitor``.
    host, port:
        Bind address; port ``0`` asks the OS for an ephemeral port.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        monitor: Optional[HealthMonitor] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        fleet: Optional[Any] = None,
    ) -> None:
        self.registry = registry
        self.monitor = monitor
        self.fleet = fleet
        self._host = host
        self._requested_port = int(port)
        self._httpd: Optional[_TelemetryHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: Held around every render; a driver mutating what the server
        #: reads while it runs takes it around each mutation.
        self.lock = threading.RLock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self._host}:{self.port}"

    def start(self) -> "TelemetryServer":
        """Bind and serve on a daemon thread; returns self.

        Raises :class:`~repro.errors.ObsError` when already running or
        when the bind fails (port taken, bad host) — a telemetry
        endpoint that silently is not there defeats its purpose.
        """
        if self._httpd is not None:
            raise ObsError(f"telemetry server already running on {self.url}")
        try:
            httpd = _TelemetryHTTPServer(
                (self._host, self._requested_port), _TelemetryHandler
            )
        except OSError as exc:
            raise ObsError(
                f"cannot bind telemetry server to "
                f"{self._host}:{self._requested_port}: {exc}"
            ) from exc
        httpd.owner = self
        # Only the thread driving start()/stop() writes the lifecycle
        # fields; the serving thread never touches them.
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down and join the serving thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- renders (called by the handler under the lock) --------------------

    def render_metrics(self) -> Tuple[int, str]:
        """Status + Prometheus text for ``/metrics``."""
        from repro.obs.export import render_prometheus

        if self.registry is None:
            return (200, "")
        return (200, render_prometheus(self.registry))

    def render_healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Status + JSON for ``/healthz``: 503 exactly on BREACH.

        In fleet mode the probed verdict is the fleet's worst-of
        rollup — one breached tenant fails the whole probe, which is
        what a load balancer fronting the shared control plane needs.
        """
        if self.fleet is not None:
            health = self.fleet.health()
            verdict = health.verdict
            status = 503 if verdict is SloState.BREACH else 200
            return (status, {
                "status": verdict.value.lower(),
                "monitored": True,
                "fleet": True,
                "tenants": len(health.tenants),
                "by_state": health.by_state,
            })
        if self.monitor is None:
            return (200, {"status": "ok", "monitored": False})
        verdict = self.monitor.verdict
        status = 503 if verdict is SloState.BREACH else 200
        return (status, {
            "status": verdict.value.lower(),
            "monitored": True,
            "time": self.monitor.now,
            "drifts": len(self.monitor.drifts),
        })

    def render_slo(
        self, tenant: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """Status + JSON for ``/slo``: the full health summary.

        Fleet mode serves the rollup; ``tenant=`` drills down into one
        tenant's single-system summary (404 on an unknown id).
        """
        if self.fleet is not None:
            if tenant is not None:
                try:
                    shard = self.fleet.shard_by_tenant(tenant)
                except FleetError as exc:
                    return (404, {"error": str(exc)})
                payload = shard.monitor.summary()
                payload["tenant"] = shard.tenant
                payload["profile"] = shard.profile.name
                return (200, payload)
            return (200, self.fleet.health().as_dict())
        if tenant is not None:
            return (404, {"error": "tenant drill-down requires a fleet"})
        if self.monitor is None:
            return (404, {"error": "no health monitor attached"})
        return (200, self.monitor.summary())
