"""Workloads: system assembly, scripted/random drivers, paper scenarios.

:class:`SystemBuilder` assembles a simulated deployment into the one
deployment class, :class:`repro.api.system.System`; the drivers, churn
schedules and scenarios here run against that surface on either
transport.
"""

from repro.workloads.churn import ChurnSchedule, OfflineWindow
from repro.workloads.generator import (
    Driver,
    DriverStats,
    OpenLoopConfig,
    PlannedOp,
    TimedOp,
    WorkloadConfig,
    ZipfSampler,
    generate_open_loop,
    generate_scripts,
    unique_value,
)
from repro.workloads.runner import SystemBuilder
from repro.workloads.scale import (
    ResidentSample,
    ScaleConfig,
    ScaleReport,
    run_scale,
)
from repro.workloads.scenarios import (
    Figure2Result,
    Figure3Result,
    SplitBrainResult,
    figure2_scenario,
    figure3_scenario,
    split_brain_scenario,
)
from repro.workloads.sessions import (
    SessionLease,
    SessionPool,
    SessionWindow,
    plan_churn_windows,
)

__all__ = [
    "ChurnSchedule",
    "Driver",
    "OfflineWindow",
    "DriverStats",
    "Figure2Result",
    "Figure3Result",
    "OpenLoopConfig",
    "PlannedOp",
    "ResidentSample",
    "ScaleConfig",
    "ScaleReport",
    "SessionLease",
    "SessionPool",
    "SessionWindow",
    "SplitBrainResult",
    "SystemBuilder",
    "TimedOp",
    "WorkloadConfig",
    "ZipfSampler",
    "figure2_scenario",
    "figure3_scenario",
    "generate_open_loop",
    "generate_scripts",
    "plan_churn_windows",
    "run_scale",
    "split_brain_scenario",
    "unique_value",
]
