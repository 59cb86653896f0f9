"""Perching a planar quadrotor on static and moving inclined surfaces.

The package splits into a planning stack (minjerk, flatness, surface,
terminal, timesearch), a tracking stack (controller, dynamics), a contact
model (gripper) and a closed-loop harness (sim, scenarios).  oracles holds
independent cross-checks of the analytic parts; cli exposes episode runs,
batches, benchmarks and the oracle suites as commands.
"""

from .controller import (
    AttitudeThrustCmd,
    ControllerGains,
    TrackingController,
    acceleration_to_attitude_thrust,
    attitude_pd_lifts,
)
from .dynamics import (
    GRAVITY,
    IntegrationDivergedError,
    QuadParams,
    QuadState,
    RotorCommand,
    integrate,
    rk4_step,
)
from .flatness import (
    Constraints,
    FeasibilityResult,
    FreeFallSingularityError,
    check_feasible,
    flat_to_attitude,
    flat_to_attitude_rate,
    flat_to_lifts,
)
from .gripper import (
    AdhesionModel,
    GripperGeometry,
    PerchEnvelope,
    adhesion_force,
    judge_perch,
    select_cup,
)
from .minjerk import (
    AxisBoundary,
    AxisTrajectory,
    FlatState,
    InvalidHorizonError,
    OutOfDomainError,
    solve_axis,
)
from .scenarios import ScenarioError, load_scenario
from .sim import BatchResult, EpisodeResult, EpisodeTrace, Scenario, SurfaceMotion, run_batch, run_episode
from .surface import (
    InsufficientHistoryError,
    SurfacePrediction,
    SurfaceSample,
    SurfaceTrack,
    fit,
)
from .terminal import PerchConditions, default_conditions, get_terminal_states
from .timesearch import (
    InitializationFailedError,
    PlanResult,
    SearchState,
    initialize,
    plan,
)

__version__ = "0.1.0"

__all__ = [
    "AttitudeThrustCmd", "ControllerGains", "TrackingController",
    "acceleration_to_attitude_thrust", "attitude_pd_lifts",
    "GRAVITY", "IntegrationDivergedError", "QuadParams", "QuadState",
    "RotorCommand", "integrate", "rk4_step",
    "Constraints", "FeasibilityResult", "FreeFallSingularityError",
    "check_feasible", "flat_to_attitude", "flat_to_attitude_rate", "flat_to_lifts",
    "AdhesionModel", "GripperGeometry", "PerchEnvelope",
    "adhesion_force", "judge_perch", "select_cup",
    "AxisBoundary", "AxisTrajectory", "FlatState", "InvalidHorizonError", "OutOfDomainError", "solve_axis",
    "ScenarioError", "load_scenario",
    "BatchResult", "EpisodeResult", "EpisodeTrace", "Scenario", "SurfaceMotion",
    "run_batch", "run_episode",
    "InsufficientHistoryError", "SurfacePrediction",
    "SurfaceSample", "SurfaceTrack", "fit",
    "PerchConditions", "default_conditions", "get_terminal_states",
    "InitializationFailedError", "PlanResult", "SearchState",
    "initialize", "plan",
]
