"""Client for the build daemon (`repro submit` and the test harnesses).

Every failure mode is typed: no daemon ⇒
:class:`~repro.errors.DaemonUnavailableError`; the daemon dropped the
connection mid-stream ⇒ :class:`~repro.errors.ProtocolError`; the daemon
answered with an error ⇒ the *same* exception class the daemon raised
(``QueueFullError``, ``DeadlineExpiredError``, ``SemaError``, ...),
re-raised locally via :func:`repro.service.protocol.wire_to_error`.  A
caller therefore handles a remote build exactly like a local
``build_program`` call — the service layer adds no new untyped failure
surface.
"""

from __future__ import annotations

import json
import os
import socket
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import DaemonUnavailableError, ProtocolError, ServiceError
from repro.pipeline.report import BuildReport
from repro.service.protocol import recv_frame, send_frame, wire_to_error


@dataclass
class SubmitOutcome:
    """A finished (or still-queued, with ``wait=False``) remote job."""

    job_id: str
    status: str
    recovered: bool = False
    attempts: int = 0
    breaker_open: bool = False
    image: Dict[str, object] = field(default_factory=dict)
    report: Optional[BuildReport] = None

    @classmethod
    def from_view(cls, view: Dict[str, object]) -> "SubmitOutcome":
        report_data = view.get("report")
        return cls(
            job_id=str(view.get("id", "")),
            status=str(view.get("status", "")),
            recovered=bool(view.get("recovered", False)),
            attempts=int(view.get("attempts", 0)),
            breaker_open=bool(view.get("breaker_open", False)),
            image=dict(view.get("image") or {}),
            report=(BuildReport.from_dict(report_data)
                    if isinstance(report_data, dict) else None))


def read_endpoint(state_dir: str) -> Tuple[str, int, Optional[str]]:
    """Daemon address + auth token from its state dir; typed error when
    absent.  The endpoint file is written 0600 by the daemon: being able
    to read the token is what authorises talking to the socket."""
    path = os.path.join(state_dir, "endpoint.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        token = data.get("token")
        return (str(data["host"]), int(data["port"]),
                str(token) if token is not None else None)
    except (OSError, ValueError, KeyError) as exc:
        raise DaemonUnavailableError(
            f"no daemon endpoint at {path} (is `repro serve` running "
            f"with this --state-dir?): {exc}") from exc


class ServiceClient:
    """One daemon address; a fresh connection per request (the protocol
    is single-shot: one frame out, one frame back)."""

    def __init__(self, host: Optional[str] = None, port: Optional[int] = None,
                 state_dir: Optional[str] = None, timeout: float = 300.0,
                 auth_token: Optional[str] = None):
        if host is None or port is None:
            if state_dir is None:
                raise ServiceError(
                    "ServiceClient needs host+port or a state_dir")
            host, port, token = read_endpoint(state_dir)
            if auth_token is None:
                auth_token = token
        elif auth_token is None and state_dir is not None:
            try:
                _, _, auth_token = read_endpoint(state_dir)
            except DaemonUnavailableError:
                pass  # explicit host/port wins; token stays unset
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.auth_token = auth_token

    def _authorized(self, request: Dict[str, object]) -> Dict[str, object]:
        if self.auth_token is not None:
            request["auth"] = self.auth_token
        return request

    # -- plumbing ------------------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            return socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as exc:
            raise DaemonUnavailableError(
                f"cannot reach daemon at {self.host}:{self.port}: "
                f"{exc}") from exc

    def _roundtrip(self, request: Dict[str, object]) -> Dict[str, object]:
        request = self._authorized(request)
        with self._connect() as sock:
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            try:
                send_frame(wfile, request)
            except OSError as exc:
                raise ProtocolError(f"send failed: {exc}") from exc
            try:
                response = recv_frame(rfile)
            except socket.timeout as exc:
                raise ProtocolError(
                    f"no response within {self.timeout:g}s") from exc
            except OSError as exc:
                raise ProtocolError(f"receive failed: {exc}") from exc
        if not response.get("ok", False):
            raise wire_to_error(response)
        return response

    # -- operations ----------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def status(self) -> Dict[str, object]:
        response = self._roundtrip({"op": "status"})
        return {"summary": response.get("summary", {}),
                "metrics": response.get("metrics", {})}

    def submit(self, sources: Dict[str, str],
               config: Optional[Dict[str, object]] = None,
               deadline: Optional[float] = None,
               job_id: Optional[str] = None,
               wait: bool = True) -> SubmitOutcome:
        """Submit a build; returns the outcome or raises the daemon's
        typed error (including :class:`~repro.errors.QueueFullError`
        backpressure)."""
        request: Dict[str, object] = {"op": "submit", "sources": dict(sources),
                                      "wait": wait}
        if config:
            request["config"] = dict(config)
        if deadline is not None:
            request["deadline"] = deadline
        if job_id:
            request["id"] = job_id
        response = self._roundtrip(request)
        view = response.get("job")
        if not isinstance(view, dict):
            raise ProtocolError("submit response carried no job view")
        return SubmitOutcome.from_view(view)

    def submit_abandoned(self, sources: Dict[str, str],
                         config: Optional[Dict[str, object]] = None,
                         deadline: Optional[float] = None,
                         job_id: Optional[str] = None) -> str:
        """Send a submit frame and hang up without reading the reply —
        the chaos harness's client-disconnect-mid-stream fault.  The
        daemon still admits and finishes the job; returns the job id so
        the test can :meth:`query` it later."""
        job_id = job_id or os.urandom(8).hex()
        request: Dict[str, object] = {"op": "submit", "sources": dict(sources),
                                      "wait": True, "id": job_id}
        if config:
            request["config"] = dict(config)
        if deadline is not None:
            request["deadline"] = deadline
        with self._connect() as sock:
            wfile = sock.makefile("wb")
            send_frame(wfile, self._authorized(request))
            # No read: the socket closes on context exit, mid-stream from
            # the daemon's point of view.
        return job_id

    def query(self, job_id: str) -> SubmitOutcome:
        response = self._roundtrip({"op": "query", "id": job_id})
        view = response.get("job")
        if not isinstance(view, dict):
            raise ProtocolError("query response carried no job view")
        return SubmitOutcome.from_view(view)

    def drain(self) -> Dict[str, object]:
        """Ask the daemon to drain; returns its pre-drain summary."""
        response = self._roundtrip({"op": "drain"})
        return dict(response.get("summary") or {})
