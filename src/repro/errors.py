"""Shared exception hierarchy for the repro toolchain.

Every layer of the stack raises a subclass of :class:`ReproError` so that
callers (pipelines, tests, the interpreter) can distinguish toolchain
failures from ordinary Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain."""


class ConfigError(ReproError):
    """A build option names no legal value: a wrong type, an unknown mode
    or an out-of-range count (see :mod:`repro.pipeline.config`).  Raised
    when the configuration is constructed, before any build work."""


class DiagnosticError(ReproError):
    """A source-level error (lex/parse/sema) with location information."""

    def __init__(self, message: str, line: int = 0, column: int = 0, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename


class LexerError(DiagnosticError):
    """Invalid token in source text."""


class ParseError(DiagnosticError):
    """Syntactically invalid source text."""


class SemaError(DiagnosticError):
    """Type or semantic error in source text."""


class SILError(ReproError):
    """Malformed SIL or an illegal SIL transformation."""


class LIRError(ReproError):
    """Malformed LIR or an illegal LIR transformation."""


class VerifierError(LIRError):
    """The LIR verifier found a structural violation."""


class LinkError(ReproError):
    """IR-level (llvm-link analog) or binary-level link failure."""


class ImageVerifierError(LinkError):
    """The post-link binary verifier found an inconsistent image.

    Raised by :func:`repro.link.verify.verify_image` instead of letting a
    structurally wrong binary (bad branch target, truncated text section,
    symbol/extent mismatch) reach the caller — whether it was just linked
    or restored from the build cache.
    """


class GCMetadataConflict(LinkError):
    """Conflicting 'Objective-C Garbage Collection' module flags (Section VI-2).

    Raised when two modules carry *monolithic* GC metadata words produced by
    different compilers.  The attribute-based metadata mode avoids this.
    """


class BackendError(ReproError):
    """Instruction selection / register allocation / frame lowering failure."""


class RegAllocError(BackendError):
    """The register allocator could not produce a valid assignment."""


class SimulationError(ReproError):
    """The machine-code interpreter hit an illegal state."""


class TrapError(SimulationError):
    """The simulated program executed a trap (BRK) instruction."""

    def __init__(self, message: str, code: int = 0):
        super().__init__(message)
        self.code = code


class RuntimeTrap(SimulationError):
    """A simulated runtime function detected a fatal error (e.g. bad refcount)."""


class ProfileError(ReproError):
    """A layout profile could not be read, parsed, or validated.

    Raised by :mod:`repro.sim.profile` for missing files, malformed JSON,
    version mismatches, and structurally invalid profile payloads — a bad
    profile must become a typed error before it can silently steer the
    layout pass (or poison a cache key)."""


class BuildError(ReproError):
    """The build orchestrator could not produce a binary.

    Transient worker failures never surface as exceptions: they become
    :class:`~repro.pipeline.report.DegradationEvent` records and the
    degradation ladder (retry -> serial re-run) absorbs them.  Only a
    failure of the serial re-run in the parent, an unrecoverable cache
    entry or an expired deadline ends a build with an error.
    """


class CacheCorruptionError(BuildError):
    """A cache entry was unreadable and could not be recovered in place."""


class DeadlineExpiredError(BuildError):
    """A job missed its deadline and was stopped at a checkpoint."""


class ServiceError(ReproError):
    """Base class for build-service (daemon/client/wire) failures."""


class QueueFullError(ServiceError):
    """The daemon's bounded job queue rejected an admission.

    This is backpressure, not a crash: the client is told immediately
    (typed, on the wire) instead of being left to hang, and may retry.
    """

    def __init__(self, message: str, depth: int = -1, limit: int = -1):
        super().__init__(message)
        self.depth = depth
        self.limit = limit


class DaemonUnavailableError(ServiceError):
    """No daemon is reachable at the requested address/state dir."""


class ProtocolError(ServiceError):
    """A malformed or truncated wire frame (e.g. peer disconnected
    mid-stream); the connection is unusable but the daemon keeps running
    and any already-admitted job continues to completion."""
