"""Build pipelines (Figures 2 and 10), incremental, parallel, fault-tolerant."""

from repro.pipeline.build import (
    BuildResult,
    ProgramArtifact,
    SizeReport,
    build_lir_modules,
    build_program,
    build_targets,
    compile_frontend,
    run_build,
)
from repro.pipeline.cache import PIPELINE_CACHE_VERSION, CacheStats, ModuleCache
from repro.pipeline.cancel import CancelScope
from repro.pipeline.config import BuildConfig
from repro.pipeline.faults import FaultPlan
from repro.pipeline.report import BuildReport, DegradationEvent

__all__ = [
    "BuildConfig",
    "BuildReport",
    "BuildResult",
    "CacheStats",
    "CancelScope",
    "DegradationEvent",
    "FaultPlan",
    "ModuleCache",
    "PIPELINE_CACHE_VERSION",
    "ProgramArtifact",
    "SizeReport",
    "build_lir_modules",
    "build_program",
    "build_targets",
    "compile_frontend",
    "run_build",
]
