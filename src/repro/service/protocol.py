"""JSON-over-socket wire protocol for the build service.

Framing is one JSON object per ``\\n``-terminated UTF-8 line — trivially
debuggable with ``nc`` and append-friendly (the job journal reuses the
same encoding).  Every response carries ``ok``; failures carry a *typed*
error — the exception class name from :mod:`repro.errors` plus a message —
so a client can re-raise exactly what the daemon raised.  An EOF or a
truncated/oversized/malformed line raises
:class:`~repro.errors.ProtocolError` on the reading side; it never hangs
and never silently yields a partial object.

The config that travels with a submit request is a *whitelisted subset*
of :class:`~repro.pipeline.config.BuildConfig`: the fields that define
**what** to build (pipeline, target, rounds, merge mode, pass toggles).
Operational knobs — workers, cache dir, fault plan, deadlines — belong
to the daemon, which is what makes one shared cache and one admission
policy possible across many clients.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from repro import errors as errors_mod
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.pipeline.config import KEY_FIELDS, BuildConfig

#: Protocol revision; bumped on incompatible frame-shape changes.
PROTOCOL_VERSION = 1

#: Upper bound on one frame (sources for very large synthetic apps fit
#: comfortably; anything bigger is a protocol violation, not a build).
MAX_FRAME_BYTES = 64 * 1024 * 1024


def send_frame(wfile, obj: Dict[str, object]) -> None:
    """Serialise one frame onto a writable binary file object.

    Keys are deliberately NOT sorted: the ``sources`` module map's order
    is semantic (module order fixes type-id bases and data layout), and
    JSON round-trips dict insertion order faithfully.
    """
    data = json.dumps(obj, separators=(",", ":"))
    wfile.write(data.encode("utf-8") + b"\n")
    wfile.flush()


def recv_frame(rfile) -> Dict[str, object]:
    """Read one frame; raises :class:`ProtocolError`, never hangs on a
    malformed peer (EOF, missing terminator, oversized, bad JSON)."""
    line = rfile.readline(MAX_FRAME_BYTES + 1)
    if not line:
        raise ProtocolError("connection closed before a frame arrived")
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise ProtocolError("connection closed mid-frame (torn request)")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame is not a JSON object")
    return obj


# --- typed errors over the wire ----------------------------------------------


def error_to_wire(exc: BaseException) -> Dict[str, str]:
    """Encode an exception as ``{"error": <class>, "message": ...}``.

    Non-:class:`ReproError` exceptions are reported as ``BuildError`` so
    a daemon bug still surfaces to the client as a *typed* toolchain
    error (the invariant forbids both hangs and untyped failures).
    """
    name = type(exc).__name__
    if not isinstance(exc, ReproError):
        name = "BuildError"
    wire: Dict[str, object] = {
        "error": name, "message": f"{type(exc).__name__}: {exc}"}
    # Structured fields some errors carry (e.g. QueueFullError's
    # depth/limit — a client's backoff policy wants the numbers).
    detail = {field: getattr(exc, field)
              for field in ("depth", "limit")
              if isinstance(getattr(exc, field, None), int)}
    if detail:
        wire["detail"] = detail
    return wire


def wire_to_error(payload: Dict[str, object]) -> ReproError:
    """Decode a wire error into the matching typed exception instance.

    Only :class:`ReproError` subclasses defined in :mod:`repro.errors`
    are eligible (a malicious or buggy peer cannot name an arbitrary
    class); unknown names fall back to :class:`ServiceError`.
    """
    name = str(payload.get("error", "ServiceError"))
    message = str(payload.get("message", "unknown service error"))
    detail = payload.get("detail")
    kwargs = ({k: v for k, v in detail.items() if isinstance(v, int)}
              if isinstance(detail, dict) else {})
    cls = getattr(errors_mod, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        # Every errors.py subclass keeps a message-first signature; the
        # structured fields are keyword-only extras on the ones that
        # carry them.
        try:
            return cls(message, **kwargs)
        except TypeError:
            try:
                return cls(message)
            except Exception:
                pass
        except Exception:
            pass
    return ServiceError(message)


# --- build-config subset on the wire -----------------------------------------

#: Key-tagged fields that nonetheless must NOT travel the wire, with
#: the reason each is excluded.  Everything listed here is re-audited by
#: the protocol tests: a field may only appear if it is still a real
#: BuildConfig field.
CONFIG_WIRE_EXCLUDED = {
    # A local filesystem path — a remote daemon must never open
    # client-named files; ship the profile *content* in a future field.
    "profile_path",
}

#: Fields a client may set: they define the artifact, not the machinery.
#: Derived from the BuildConfig stage tags: every field that enters a
#: cache key is wire-settable unless excluded above, and every speed or
#: robustness field (workers, cache dir, deadlines) stays the daemon's.
#: A new key-tagged knob therefore travels automatically.
CONFIG_WIRE_FIELDS = tuple(
    name for name in KEY_FIELDS if name not in CONFIG_WIRE_EXCLUDED)


def config_to_wire(config: BuildConfig) -> Dict[str, object]:
    return {name: getattr(config, name) for name in CONFIG_WIRE_FIELDS}


def config_from_wire(data: Optional[Dict[str, object]]) -> BuildConfig:
    """Whitelisted BuildConfig from a wire dict: a
    :class:`~repro.errors.ServiceError` for a field that may not travel,
    a :class:`~repro.errors.ConfigError` for a value of a wrong type or
    outside the field's legal values."""
    data = data or {}
    # Rendered as strings: an in-process caller's key need not be one.
    unknown = sorted(map(str, set(data) - set(CONFIG_WIRE_FIELDS)))
    if unknown:
        raise ServiceError(
            f"unknown build-config field(s) on the wire: "
            f"{', '.join(unknown)} (allowed: "
            f"{', '.join(CONFIG_WIRE_FIELDS)})")
    return BuildConfig(**data)


# --- image identity ----------------------------------------------------------


def image_summary(image) -> Dict[str, object]:
    """The wire-sized identity of a built image.

    The full image never crosses the socket; the client gets sizes plus
    sha256 digests of the canonical text/data sections — exactly what the
    bit-identity invariant is stated over.
    """
    text = image.text_section()
    data = image.data_section()
    return {
        "text_sha256": hashlib.sha256(text).hexdigest(),
        "data_sha256": hashlib.sha256(data).hexdigest(),
        "text_bytes": image.text_bytes,
        "data_bytes": image.data_bytes,
        "binary_bytes": image.binary_bytes,
        "num_functions": image.num_functions,
        "num_instrs": len(image.instrs),
    }
