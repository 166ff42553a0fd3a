"""Stdlib HTTP transport for the coordinator (JSON in, JSON/JSONL out).

A deliberately thin adapter: every endpoint parses the request, calls
the matching :class:`~repro.service.coordinator.Coordinator` method and
renders its typed result — no logic lives here, so the in-process and
HTTP surfaces can never drift.  Built on ``http.server`` from the
standard library (the repo's no-new-dependencies rule), threaded so a
long-poll round stream never blocks a status probe.

Endpoints (all JSON unless noted):

- ``POST /v1/runs`` — submit ``{"preset": ...}`` or ``{"scenario":
  {...}}`` plus optional ``overrides``/``sampler``/``seed``/
  ``stop_at_target``; returns ``{"run_id": ..., "api_version": ...}``.
  A body longer than :data:`MAX_BODY_BYTES` is refused with 413, and a
  submission while ``MAX_QUEUED_RUNS`` runs wait in the queue with 429.
- ``GET /v1/runs`` — list run statuses.
- ``GET /v1/runs/<id>`` — one run's status.
- ``GET /v1/runs/<id>/rounds[?follow=1]`` — round metrics as JSONL
  (chunked while following).
- ``GET /v1/runs/<id>/result`` — terminal run's summary (404 while live).
- ``POST /v1/runs/<id>/pause|resume|stop`` — lifecycle control.
- ``GET /v1/health`` — the coordinator's SLO verdict (``ok`` when idle).
- ``GET /metrics`` — Prometheus text exposition.
- ``GET /v1/version`` — API version handshake.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.experiments.config import ScenarioConfig, resolve_scenario
from repro.service.coordinator import (
    Coordinator,
    QueueFullError,
    UnknownRunError,
)

#: Version tag of the service/facade surface; served from /v1/version
#: and echoed by submissions so clients can assert compatibility.
API_VERSION = "1.0"

#: Largest request body the service reads, in bytes (1 MiB).  A request
#: declaring a longer ``Content-Length`` is answered 413 unread.
MAX_BODY_BYTES = 1 << 20


class BodyTooLargeError(ValueError):
    """A request declared a body longer than :data:`MAX_BODY_BYTES`."""


def scenario_from_request(body: dict) -> Tuple[ScenarioConfig, Optional[str]]:
    """Resolve the request body's scenario: preset name or inline dict.

    ``overrides`` apply on top of either base — the exact semantics of
    the CLI's ``--preset`` + flag overrides.  Returns the config and
    the preset name (``None`` for inline scenarios).
    """
    if not isinstance(body, dict):
        raise ValueError("the request body must be a JSON object")
    preset, scenario = body.get("preset"), body.get("scenario")
    overrides = body.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise ValueError("'overrides' must be a JSON object")
    if scenario is not None:
        scenario = ScenarioConfig.from_dict(scenario)
    return resolve_scenario(scenario, preset, overrides), preset


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.coordinator``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-coordinator/" + API_VERSION

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, text: str, content_type: str, status: int = 200
    ) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> dict:
        """The JSON request body, read only after its length is checked.

        A bad or oversized ``Content-Length`` leaves the body unread, so
        the connection is closed after the error response.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ValueError(f"invalid Content-Length: {declared!r}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise BodyTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if length == 0:
            return {}
        return json.loads(self.rfile.read(length).decode())

    @property
    def coordinator(self) -> Coordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        try:
            if parts == ["v1", "version"]:
                self._send_json({"api_version": API_VERSION})
            elif parts == ["v1", "health"]:
                report = self.coordinator.health()
                status = 200 if report.ready else 503
                self._send_json(report.to_dict(), status=status)
            elif parts == ["metrics"]:
                self._send_text(
                    self.coordinator.prometheus(),
                    "text/plain; version=0.0.4",
                )
            elif parts == ["v1", "runs"]:
                self._send_json(
                    {"runs": [s.to_dict() for s in self.coordinator.list_runs()]}
                )
            elif len(parts) == 3 and parts[:2] == ["v1", "runs"]:
                self._send_json(self.coordinator.status(parts[2]).to_dict())
            elif len(parts) == 4 and parts[:2] == ["v1", "runs"] and parts[3] == "rounds":
                query = parse_qs(parsed.query)
                follow = query.get("follow", ["0"])[0] in ("1", "true")
                self._stream_rounds(parts[2], follow)
            elif len(parts) == 4 and parts[:2] == ["v1", "runs"] and parts[3] == "result":
                run_id = parts[2]
                if not self.coordinator.status(run_id).terminal:
                    self._error(404, f"run {run_id} is not finished")
                    return
                self._send_json(self.coordinator.summary(run_id).to_dict())
            else:
                self._error(404, f"no such endpoint: {parsed.path}")
        except UnknownRunError as error:
            self._error(404, f"unknown run: {error.args[0]}")
        except (ValueError, RuntimeError) as error:
            self._error(400, str(error))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        try:
            if parts == ["v1", "runs"]:
                body = self._read_body()
                config, preset = scenario_from_request(body)
                run_id = self.coordinator.submit(
                    config,
                    sampler=body.get("sampler", "mach"),
                    seed=body.get("seed"),
                    stop_at_target=bool(body.get("stop_at_target", False)),
                    preset=preset,
                )
                self._send_json(
                    {"run_id": run_id, "api_version": API_VERSION}, status=201
                )
            elif len(parts) == 4 and parts[:2] == ["v1", "runs"]:
                run_id, action = parts[2], parts[3]
                if action == "pause":
                    status = self.coordinator.pause(run_id)
                elif action == "resume":
                    status = self.coordinator.resume_run(run_id)
                elif action == "stop":
                    status = self.coordinator.stop(run_id)
                else:
                    self._error(404, f"no such action: {action}")
                    return
                self._send_json(status.to_dict())
            else:
                self._error(404, f"no such endpoint: {parsed.path}")
        except UnknownRunError as error:
            self._error(404, f"unknown run: {error.args[0]}")
        except BodyTooLargeError as error:
            self._error(413, str(error))
        except QueueFullError as error:
            self._error(429, str(error))
        except (ValueError, RuntimeError) as error:
            self._error(400, str(error))

    def _stream_rounds(self, run_id: str, follow: bool) -> None:
        """Round metrics as JSONL; chunked transfer while following."""
        self.coordinator.status(run_id)  # 404 before headers when unknown
        if not follow:
            lines = "".join(
                json.dumps(r.to_dict()) + "\n"
                for r in self.coordinator.stream(run_id)
            )
            self._send_text(lines, "application/jsonl")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for r in self.coordinator.stream(run_id, follow=True, timeout=300):
                chunk = (json.dumps(r.to_dict()) + "\n").encode()
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up mid-stream


class CoordinatorServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one coordinator."""

    daemon_threads = True

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _CoordinatorHandler)
        self.coordinator = coordinator
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        """Serve from a daemon thread; returns the (started) thread."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-http", daemon=True
        )
        thread.start()
        return thread


def serve(
    coordinator: Coordinator,
    host: str = "127.0.0.1",
    port: int = 8765,
    verbose: bool = False,
) -> None:
    """Blocking entry point used by ``runner serve`` (Ctrl-C to exit)."""
    server = CoordinatorServer(coordinator, host=host, port=port, verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        coordinator.shutdown()
