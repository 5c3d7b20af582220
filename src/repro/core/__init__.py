"""The paper's primary contribution: the ARRIVAL query engine."""

from repro.core.arrival import Arrival
from repro.core.engine import (
    Engine,
    EngineBase,
    EngineCapabilities,
    engine_class,
    engine_names,
    make_engine,
)
from repro.core.enumeration import (
    enumerate_compatible_paths,
    sample_compatible_paths,
)
from repro.core.executor import (
    BatchExecutor,
    BatchReport,
    ErrorResult,
    TimeoutResult,
)
from repro.core.plan import (
    Plan,
    PlanArtifact,
    PlanCache,
    compile_query,
    fingerprint_regex,
    plan_query,
)
from repro.core.router import AutoEngine
from repro.core.shm import (
    GraphPlane,
    GraphPlaneManifest,
    SharedGraph,
    WorkerBundle,
    attach_bundle,
)
from repro.core.unlabeled import UnlabeledWalkReachability
from repro.core.parameters import (
    recommended_num_walks,
    theoretical_num_walks,
    estimate_walk_length,
    estimate_walk_length_labeled,
    StationaryOverlapEstimator,
)
from repro.core.result import QueryResult
from repro.core.stats import BatchStats, ExecStats

__all__ = [
    "Arrival",
    "AutoEngine",
    "BatchExecutor",
    "BatchReport",
    "BatchStats",
    "Engine",
    "EngineBase",
    "EngineCapabilities",
    "ErrorResult",
    "ExecStats",
    "GraphPlane",
    "GraphPlaneManifest",
    "Plan",
    "PlanArtifact",
    "PlanCache",
    "SharedGraph",
    "TimeoutResult",
    "WorkerBundle",
    "attach_bundle",
    "compile_query",
    "fingerprint_regex",
    "plan_query",
    "UnlabeledWalkReachability",
    "engine_class",
    "engine_names",
    "make_engine",
    "enumerate_compatible_paths",
    "sample_compatible_paths",
    "QueryResult",
    "recommended_num_walks",
    "theoretical_num_walks",
    "estimate_walk_length",
    "estimate_walk_length_labeled",
    "StationaryOverlapEstimator",
]
