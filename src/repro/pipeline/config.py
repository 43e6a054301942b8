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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

from repro.errors import ReproError
from repro.pipeline.faults import FaultPlan
from repro.target import default_target_name

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


@dataclass
class BuildConfig:
    """Options shared by the default and whole-program pipelines.

    ``pipeline`` selects Figure 2 ("default": each module lowered to machine
    code independently) or Figure 10 ("wholeprogram": LIR from every module
    merged by llvm-link, optimized once, then lowered by a single llc run).
    """

    pipeline: str = "wholeprogram"  # "default" | "wholeprogram"
    #: Target specification name (see :mod:`repro.target`); defaults to
    #: ``$REPRO_TARGET`` or "arm64".  Changes instruction widths, alignment
    #: and the outliner's cost model, so it is part of the backend
    #: fingerprint (two targets never share an image-cache entry).
    target: str = field(default_factory=default_target_name)
    #: Rounds of machine outlining; 0 disables.  In the default pipeline
    #: outlining runs per module; in the whole-program pipeline it sees the
    #: entire program (the paper's key distinction, Figure 12).
    outline_rounds: int = 0
    #: llvm-link data-layout mode: "module-order" (paper's fix) or
    #: "interleaved" (upstream behaviour causing the §VI-3 regression).
    data_layout: str = "module-order"
    #: llvm-link GC-metadata mode: "attributes" (fixed) or "monolithic".
    gc_metadata_mode: str = "attributes"
    #: Baseline size optimizations (Table I rows).
    enable_sil_outlining: bool = False
    enable_fmsa: bool = False
    enable_arc_opt: bool = True
    #: Whole-program function merging stacked with the outliner:
    #: "off", "exact" (bit-identical dedup only), or "optimistic"
    #: (similarity-hash merging with priced thunks; see
    #: :mod:`repro.lir.passes.optmerge`).  Runs *after* the scalar cleanup
    #: passes so the merger prices exactly the LIR that llc compiles.
    #: Defaults to ``$REPRO_MERGE`` (the CI matrix axis) or "off".
    merge_mode: str = field(
        default_factory=lambda: env_default("REPRO_MERGE") or "off")
    #: Strip functions unreachable from the entry point (app builds).
    #: Runs as an early LIR pass over the merged IR (whole-program
    #: pipeline only); see ``strip`` for the link-time machine-level
    #: equivalent that works in both pipeline shapes.
    global_dce: bool = True
    #: Link-time whole-program stripping: "off" or "program" (remove
    #: machine functions unreachable from the entry symbol through calls
    #: and address-taken references, right before the system link).
    #: Works in both pipeline shapes and sees the *final* machine code —
    #: including outlined and merged functions — so it catches dead code
    #: the early LIR pass cannot (see
    #: :func:`repro.lir.passes.globaldce.strip_program`).
    strip: str = "off"
    #: Collect per-round outlining statistics (Table II).
    collect_outline_stats: bool = True
    #: Text layout of outlined functions: "appended" (what the paper
    #: shipped) or "near-callers" (the paper's future work #3).
    outlined_layout: str = "appended"
    #: Whole-image function ordering (see :mod:`repro.link.funclayout`):
    #: "source" (link order), "callgraph-c3" (profile-guided call-chain
    #: clustering), or "random" (seeded control arm).  "near-callers"
    #: composes only with "source"; the linker rejects other combinations.
    layout: str = "source"
    #: Seed for ``layout="random"``; part of the backend fingerprint.
    layout_seed: int = 0
    #: Path to a serialized :class:`~repro.sim.profile.LayoutProfile` that
    #: feeds "callgraph-c3" edge weights; None = static call-site census.
    #: The profile's content digest (not the path) enters the backend
    #: fingerprint, so two builds with equal profiles share cache entries.
    profile_path: Optional[str] = None
    #: -Osize trivial inliner at the LIR level (future work #2 interaction).
    enable_inliner: bool = False

    # -- build-speed knobs (never affect the produced binary) ---------------
    #: Worker processes for per-module lowering (1 = serial, 0 = auto).
    workers: int = 1
    #: Consult/populate the content-addressed build cache.
    incremental: bool = False
    #: Cache location; None = $REPRO_CACHE_DIR or a tempdir default.
    cache_dir: Optional[str] = None
    #: Keep the forked worker pool alive across builds in this process
    #: (daemon / batch use) instead of fork+teardown per build.  Either
    #: way each task ships its own payload; the fault ladder still tears
    #: the pool down and rebuilds it on a crash.
    persistent_workers: bool = False

    # -- robustness knobs (never affect the produced binary) ----------------
    #: Run the post-link binary verifier on every build and every
    #: image-cache hit; a failure raises ImageVerifierError instead of
    #: returning a structurally wrong binary.
    verify_image: bool = True
    #: Deadline in seconds for one parallel compilation chunk; a chunk
    #: that misses it is retried and finally recompiled serially in the
    #: parent.  None disables the deadline (a hung worker then hangs the
    #: build).
    chunk_timeout: Optional[float] = 60.0
    #: In-pool retries per chunk before the serial in-parent re-run.
    max_chunk_retries: int = 2
    #: Base backoff in seconds between chunk retry rounds.
    retry_backoff: float = 0.05
    #: Disable the degradation ladder: the first chunk failure raises a
    #: typed WorkerCrashError/BuildError instead of retrying.  Useful in
    #: CI, where a flaky worker should be noticed rather than absorbed.
    fail_fast: bool = False
    #: Seeded fault-injection schedule (tests/CI only; None = no faults).
    fault_plan: Optional[FaultPlan] = None
    #: Cooperative cancellation/deadline scope for this build
    #: (:class:`~repro.pipeline.cancel.CancelScope`); checked at phase
    #: boundaries and between chunk-retry rounds.  The daemon gives every
    #: job its own scope; ``None`` (the one-shot CLI) never cancels.
    cancel_scope: Optional[object] = None

    def frontend_fingerprint(self) -> str:
        """Config fields that change per-module LIR (module cache key)."""
        return (f"arc={int(self.enable_arc_opt)};"
                f"siloutline={int(self.enable_sil_outlining)}")

    def backend_fingerprint(self) -> str:
        """Config fields that change the linked image given module LIR
        (image cache key).  ``workers``/``incremental``/``cache_dir`` are
        deliberately absent: builds must be bit-identical across them."""
        from repro.target import get_target

        spec = get_target(self.target)
        return (f"target={spec.name}:{spec.fingerprint()[:12]};"
                f"pipe={self.pipeline};rounds={self.outline_rounds};"
                f"layout={self.data_layout};gc={self.gc_metadata_mode};"
                f"mergemode={self.merge_mode};"
                f"fmsa={int(self.enable_fmsa)};"
                f"gdce={int(self.global_dce)};"
                f"strip={self.strip};"
                f"stats={int(self.collect_outline_stats)};"
                f"outlayout={self.outlined_layout};"
                f"inline={int(self.enable_inliner)};"
                f"funclayout={self.layout};lseed={self.layout_seed};"
                f"profile={self._profile_digest_tag()}")

    def llc_fingerprint(self) -> str:
        """Config fields that change one module's *machine code* in the
        default pipeline (per-module llc cache key).  A strict subset of
        :meth:`backend_fingerprint`: link-only fields (function layout,
        layout seed, profile, outlined-function placement) and
        whole-program-pipeline-only passes (globaldce, fmsa, exact merge
        stage, llvm-link data layout) are excluded, so flipping them
        re-links cached machine modules without re-running llc."""
        from repro.target import get_target

        spec = get_target(self.target)
        return (f"target={spec.name}:{spec.fingerprint()[:12]};"
                f"pipe={self.pipeline};rounds={self.outline_rounds};"
                f"mergemode={self.merge_mode};"
                f"stats={int(self.collect_outline_stats)};"
                f"inline={int(self.enable_inliner)}")

    @classmethod
    def preset(cls, name: str, **overrides) -> "BuildConfig":
        """A named configuration preset (see :data:`PRESETS`).

        Keyword *overrides* are applied on top of the preset's fields —
        the documented ``explicit > preset > default`` precedence.
        """
        try:
            base = PRESETS[name]
        except KeyError:
            raise ReproError(
                f"unknown preset {name!r}; expected one of: "
                f"{', '.join(sorted(PRESETS))}") from None
        config = cls(**base)
        if overrides:
            try:
                config = replace(config, **overrides)
            except TypeError as exc:
                raise ReproError(f"bad preset override: {exc}") from None
        return config

    def _profile_digest_tag(self) -> str:
        """Content digest of the layout profile for the image cache key.

        Digesting (rather than embedding the path) keeps the fingerprint
        stable across checkouts and temp dirs; loading through the typed
        reader means a corrupt profile fails the build at fingerprint time
        with :class:`~repro.errors.ProfileError`, before it can key (or
        poison) a cache entry.
        """
        if self.profile_path is None:
            return "none"
        from repro.sim.profile import profile_file_digest

        return profile_file_digest(self.profile_path)[:12]


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

#: Build-speed / robustness fields that must never enter a fingerprint
#: (used by tests to pin the bit-identity contract).
SPEED_FIELDS = frozenset({
    "workers", "incremental", "cache_dir", "persistent_workers",
    "chunk_timeout", "max_chunk_retries", "retry_backoff", "fail_fast",
    "fault_plan", "cancel_scope",
})


def config_fields() -> tuple:
    """All BuildConfig field names (for CLI/facade plumbing)."""
    return tuple(f.name for f in fields(BuildConfig))
