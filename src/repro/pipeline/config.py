"""Build configuration for the two iOS pipelines (Figures 2 and 10).

Environment defaults
--------------------

Every environment variable the build honours is listed here; each one
only supplies a *default* for the corresponding :class:`BuildConfig`
field and is ignored the moment the field is set explicitly (by code,
by a preset, or by a CLI flag — see `Precedence`_ below).

===================  =======================  ===============================
Variable             BuildConfig field        Meaning
===================  =======================  ===============================
``REPRO_TARGET``     ``target``               Target spec name (CI axis).
``REPRO_MERGE``      ``merge_mode``           Function-merging mode (CI axis).
``REPRO_CACHE_DIR``  ``cache_dir``            Build-cache directory.
===================  =======================  ===============================

Precedence
----------

``explicit field/flag  >  preset  >  environment default  >  built-in``

:meth:`BuildConfig.preset` applies a named preset's fields over the
built-in defaults; anything passed as an override (or as an explicit CLI
flag — the CLI uses ``None``-sentinel defaults to tell "explicit" from
"absent") wins over the preset.

Legal values
------------

Every field declares its legal values once, in its ``_stage(...)`` tag:
a string mode names its tuple of choices (which the CLI's ``choices=``
reads too), a count its minimum, and every field's annotation its exact
type, so a bool is not an int.  ``BuildConfig(...)``,
:meth:`BuildConfig.preset` and ``dataclasses.replace`` check all of them
on construction and raise :class:`~repro.errors.ConfigError` naming the
field, the value and what is legal, before any build work, journal
record or cache entry exists.  A config is frozen, so no value reaches
a build without that check.  A target name is checked as a string
only: whether it is registered is the build's question.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields
from typing import (Callable, Dict, Optional, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from repro.errors import ConfigError, ReproError
from repro.link.funclayout import LAYOUT_MODES
from repro.pipeline.faults import FaultPlan
from repro.target import default_target_name

#: Valid pipeline shapes: Figure 10 and Figure 2.
PIPELINES = ("wholeprogram", "default")

#: Valid llvm-link data-layout modes.
DATA_LAYOUTS = ("module-order", "interleaved")

#: Valid whole-program function-merging modes.
MERGE_MODES = ("off", "exact", "optimistic")

#: Valid link-time stripping modes.
STRIP_MODES = ("off", "program")

#: The one environment-default table (see the module docstring):
#: variable -> BuildConfig field it defaults.
ENV_DEFAULTS = {
    "REPRO_TARGET": "target",
    "REPRO_MERGE": "merge_mode",
    "REPRO_CACHE_DIR": "cache_dir",
}


def env_default(var: str) -> Optional[str]:
    """Read one documented environment default (None when unset/blank).

    Raises :class:`ReproError` for variables not in :data:`ENV_DEFAULTS`,
    so undocumented env knobs cannot creep back in.
    """
    if var not in ENV_DEFAULTS:
        raise ReproError(f"unknown environment default {var!r}; "
                         f"documented: {', '.join(sorted(ENV_DEFAULTS))}")
    value = os.environ.get(var, "").strip()
    return value or None


#: The cache stage each BuildConfig field is tagged with: the one source
#: for every cache key, :data:`SPEED_FIELDS` and the daemon's wire fields.
#: "frontend" enters the module and function keys; "llc" per-module
#: machine code, and so also the image key; "link" the image key only;
#: "speed" and "robustness" no key (builds are bit-identical across them).
STAGES = ("frontend", "llc", "link", "speed", "robustness")


def _stage(stage: str, default=MISSING, *, default_factory=MISSING,
           key: Callable[[object], str] = repr,
           choices: Optional[Tuple[str, ...]] = None,
           minimum: Optional[int] = None):
    """A BuildConfig field tagged with the cache *stage* it enters; *key*
    renders the field's value into that stage's fingerprint, and
    *choices* or *minimum* bound its legal values."""
    return field(default=default, default_factory=default_factory,
                 metadata={"stage": stage, "key": key, "choices": choices,
                           "minimum": minimum})


def _partitioned(cls):
    """Fail at import when a field carries no :data:`STAGES` tag, so a new
    knob cannot silently stay out of every cache key."""
    untagged = [f.name for f in fields(cls)
                if f.metadata.get("stage") not in STAGES]
    if untagged:
        raise TypeError(f"{cls.__name__} field(s) without a cache stage "
                        f"tag: {', '.join(untagged)}")
    return cls


def _target_key(name: str) -> str:
    """A target keys as its name plus its spec fingerprint, so a change to
    a target's widths or cost model invalidates that target's entries."""
    from repro.target import get_target

    spec = get_target(name)
    return f"{spec.name}:{spec.fingerprint()[:12]}"


def _profile_key(path: Optional[str]) -> str:
    """A layout profile keys as its content digest, not its path, so keys
    are stable across checkouts; a corrupt profile raises
    :class:`~repro.errors.ProfileError` here, before it can key an entry."""
    if path is None:
        return "none"
    from repro.sim.profile import profile_file_digest

    return profile_file_digest(path)[:12]


@_partitioned
@dataclass(frozen=True)
class BuildConfig:
    """Options shared by the default and whole-program pipelines.

    ``pipeline`` selects Figure 2 ("default": each module lowered to machine
    code independently) or Figure 10 ("wholeprogram": LIR from every module
    merged by llvm-link, optimized once, then lowered by a single llc run).
    Every field is tagged with the cache stage it enters (:data:`STAGES`).
    """

    pipeline: str = _stage("llc", "wholeprogram", choices=PIPELINES)
    #: Target specification name (see :mod:`repro.target`); defaults to
    #: ``$REPRO_TARGET`` or "arm64".  Changes instruction widths, alignment
    #: and the outliner's cost model.
    target: str = _stage("llc", default_factory=default_target_name,
                         key=_target_key)
    #: Rounds of machine outlining; 0 disables.  In the default pipeline
    #: outlining runs per module; in the whole-program pipeline it sees the
    #: entire program (the paper's key distinction, Figure 12).
    outline_rounds: int = _stage("llc", 0, minimum=0)
    #: llvm-link data-layout mode: "module-order" (paper's fix) or
    #: "interleaved" (upstream behaviour causing the §VI-3 regression).
    data_layout: str = _stage("link", "module-order", choices=DATA_LAYOUTS)
    #: Baseline size optimizations (Table I rows).
    enable_sil_outlining: bool = _stage("frontend", False)
    enable_fmsa: bool = _stage("link", False)
    #: Whole-program function merging stacked with the outliner:
    #: "off", "exact" (bit-identical dedup only), or "optimistic"
    #: (similarity-hash merging with priced thunks; see
    #: :mod:`repro.lir.passes.optmerge`).  Runs *after* the scalar cleanup
    #: passes so the merger prices exactly the LIR that llc compiles.
    #: Defaults to ``$REPRO_MERGE`` (the CI matrix axis) or "off".
    merge_mode: str = _stage(
        "llc", default_factory=lambda: env_default("REPRO_MERGE") or "off",
        choices=MERGE_MODES)
    #: Strip functions unreachable from the entry point (app builds).
    #: Runs as an early LIR pass over the merged IR (whole-program
    #: pipeline only); see ``strip`` for the link-time machine-level
    #: equivalent that works in both pipeline shapes.
    global_dce: bool = _stage("link", True)
    #: Link-time whole-program stripping: "off" or "program" (remove
    #: machine functions unreachable from the entry symbol through calls
    #: and address-taken references, right before the system link).
    #: Works in both pipeline shapes and sees the *final* machine code —
    #: including outlined and merged functions — so it catches dead code
    #: the early LIR pass cannot (see
    #: :func:`repro.lir.passes.globaldce.strip_program`).
    strip: str = _stage("link", "off", choices=STRIP_MODES)
    #: Whole-image function ordering (see :mod:`repro.link.funclayout`):
    #: "source" (link order, outlined functions where the outliner
    #: appended them: what the paper shipped), "near-callers" (each
    #: outlined function after its busiest caller: the paper's future
    #: work #3), "callgraph-c3" (profile-guided call-chain clustering),
    #: or "random" (seeded control arm).
    layout: str = _stage("link", "source", choices=LAYOUT_MODES)
    #: Seed for ``layout="random"``.
    layout_seed: int = _stage("link", 0)
    #: Path to a serialized :class:`~repro.sim.profile.LayoutProfile` that
    #: feeds "callgraph-c3" edge weights; None = static call-site census.
    #: Its content digest (not the path) enters the image key, so two
    #: builds with equal profiles share cache entries.
    profile_path: Optional[str] = _stage("link", None, key=_profile_key)
    #: -Osize trivial inliner at the LIR level (future work #2 interaction).
    enable_inliner: bool = _stage("llc", False)

    # -- build-speed knobs (never affect the produced binary) ---------------
    #: Worker processes for per-module lowering (1 = serial, 0 = auto).
    workers: int = _stage("speed", 1, minimum=0)
    #: Consult/populate the content-addressed build cache.
    incremental: bool = _stage("speed", False)
    #: Cache location; None = $REPRO_CACHE_DIR or a tempdir default.
    cache_dir: Optional[str] = _stage("speed", None)
    #: Keep the forked worker pool alive across builds in this process
    #: (daemon / batch use) instead of fork+teardown per build.  Either
    #: way each task ships its own payload; the fault ladder still tears
    #: the pool down and rebuilds it on a crash.
    persistent_workers: bool = _stage("speed", False)

    # -- robustness knobs (never affect the produced binary) ----------------
    #: Deadline in seconds for one parallel compilation chunk; a chunk
    #: that misses it is retried and finally recompiled serially in the
    #: parent.  None disables the deadline (a hung worker then hangs the
    #: build).
    chunk_timeout: Optional[float] = _stage("robustness", 60.0)
    #: Seeded fault-injection schedule (tests/CI only; None = no faults).
    fault_plan: Optional[FaultPlan] = _stage("robustness", None)
    #: Per-build deadline (:class:`~repro.pipeline.cancel.CancelScope`),
    #: checked at phase boundaries and between chunk-retry rounds.  The
    #: daemon gives every job its own scope; ``None`` (the one-shot CLI)
    #: has no deadline.
    cancel_scope: Optional[object] = _stage("robustness", None)

    def __post_init__(self) -> None:
        for name, types, choices, minimum in _CHECKS:
            value = getattr(self, name)
            if types is not None and type(value) not in types:
                expected = " or ".join(
                    "None" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(f"BuildConfig.{name}={value!r}: expected "
                                  f"{expected}, got {type(value).__name__}")
            if choices is not None and value not in choices:
                raise ConfigError(f"BuildConfig.{name}={value!r}: expected "
                                  f"one of: {', '.join(choices)}")
            if minimum is not None and value < minimum:
                raise ConfigError(f"BuildConfig.{name}={value!r}: expected "
                                  f"an int >= {minimum}")

    def _fingerprint(self, *stages: str) -> str:
        return ";".join(
            f"{f.name}={f.metadata['key'](getattr(self, f.name))}"
            for f in fields(self) if f.metadata["stage"] in stages)

    def frontend_fingerprint(self) -> str:
        """The frontend-tagged fields (module and function cache keys)."""
        return self._fingerprint("frontend")

    def llc_fingerprint(self) -> str:
        """The llc-tagged fields (per-module machine-code cache key)."""
        return self._fingerprint("llc")

    def backend_fingerprint(self) -> str:
        """The llc- and link-tagged fields (image cache key), so the llc
        key is a strict subset: flipping a link field re-links cached
        machine modules without re-running llc."""
        return self._fingerprint("llc", "link")

    @classmethod
    def preset(cls, name: str, **overrides) -> "BuildConfig":
        """A named configuration preset (see :data:`PRESETS`).

        Keyword *overrides* are applied on top of the preset's fields —
        the documented ``explicit > preset > default`` precedence.
        """
        try:
            base = PRESETS[name]
        except KeyError:
            raise ConfigError(
                f"unknown preset {name!r}; expected one of: "
                f"{', '.join(sorted(PRESETS))}") from None
        try:
            return cls(**{**base, **overrides})
        except TypeError as exc:
            raise ConfigError(f"bad preset override: {exc}") from None


def _legal_types(hint) -> Optional[Tuple[type, ...]]:
    """The exact types a field annotated *hint* admits (None = any): a
    bool is not an int, an int is a float, and Optional admits None."""
    members = get_args(hint) if get_origin(hint) is Union else (hint,)
    if object in members:
        return None
    return members + (int,) if float in members else members


_HINTS = get_type_hints(BuildConfig)

#: (field, legal types, choices, minimum), checked by ``__post_init__``.
_CHECKS = tuple((f.name, _legal_types(_HINTS[f.name]), f.metadata["choices"],
                 f.metadata["minimum"]) for f in fields(BuildConfig))


#: Named presets (:meth:`BuildConfig.preset` / CLI ``--preset``).  Each
#: entry is the full explicit-knob spelling of the preset — the
#: equivalence tests build both and require bit-identical images.
#:
#: ``min-size``
#:     What the paper shipped, plus the stacked optimistic merger: the
#:     whole-program pipeline, five outlining rounds, and link-time
#:     whole-program stripping (``strip="program"`` replaces the early
#:     LIR ``global_dce`` pass — stripping the *final* machine code also
#:     removes outlined/merged bodies orphaned by later passes, which
#:     the early pass can never see).  Slowest builds, smallest binaries.
#: ``fast-build``
#:     Inner-loop iteration: the per-module (Figure 2) pipeline with one
#:     outlining round, function-level incremental caching, auto worker
#:     count and a persistent worker pool.  Fastest warm builds; binaries
#:     are larger than ``min-size``.
#: ``balanced``
#:     Whole-program pipeline with three rounds and exact (bit-identical)
#:     function merging, still incremental and parallel.
PRESETS: Dict[str, Dict[str, object]] = {
    "min-size": {
        "pipeline": "wholeprogram",
        "outline_rounds": 5,
        "merge_mode": "optimistic",
        "global_dce": False,
        "strip": "program",
    },
    "fast-build": {
        "pipeline": "default",
        "outline_rounds": 1,
        "merge_mode": "off",
        "workers": 0,
        "incremental": True,
        "persistent_workers": True,
    },
    "balanced": {
        "pipeline": "wholeprogram",
        "outline_rounds": 3,
        "merge_mode": "exact",
        "workers": 0,
        "incremental": True,
    },
}

#: Fields that enter some cache key, in declaration order.
KEY_FIELDS = tuple(f.name for f in fields(BuildConfig)
                   if f.metadata["stage"] in ("frontend", "llc", "link"))

#: Build-speed / robustness fields: in no cache key, so builds must be
#: bit-identical across them (tests pin this contract).
SPEED_FIELDS = frozenset(f.name for f in fields(BuildConfig)
                         if f.metadata["stage"] in ("speed", "robustness"))
