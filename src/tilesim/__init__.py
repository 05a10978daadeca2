"""Deterministic simulator of a room-scale testbed fabric: tiles on every
surface, switched timing distribution, power budgeting, a pub/sub message
plane, array-gain evaluation and a mobile sampling platform."""

from .core import (EventLoop, RngRegistry, RngStream, SimTime, SimulationError,
                   from_seconds, to_seconds)
from .fabric import (ConfigurationError, Fabric, FabricConfig, Link, Room,
                     SwitchNode, TileNode, build_default_fabric)
from .timesync import (LocalClock, OscillatorConfig, SyncDomain, SyncReport,
                       TimesyncConfig, two_step_offset)
from .powerplane import PdDevice, PsePlane, classify
from .dataplane import Broker, CommitError, ConsumerGroup
from .coherent import (coherent_gain, evaluate_beamforming, expected_gain,
                       wrap_phase)
from .rover import (Battery, BeaconSet, KalmanState, MissionConfig,
                    MissionRunner, SamplePlan, kalman_step, plan_sampling,
                    trilaterate)
from .scenario import ScenarioConfig, load_scenario, scenario_hash
from .orchestrator import RunResult, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Battery", "BeaconSet", "Broker", "CommitError", "ConfigurationError",
    "ConsumerGroup", "EventLoop", "Fabric", "FabricConfig", "KalmanState",
    "Link", "LocalClock", "MissionConfig", "MissionRunner",
    "OscillatorConfig", "PdDevice", "PsePlane", "RngRegistry", "RngStream",
    "Room", "RunResult", "SamplePlan", "ScenarioConfig", "SimTime",
    "SimulationError", "SwitchNode", "SyncDomain", "SyncReport", "TileNode",
    "TimesyncConfig", "build_default_fabric", "classify", "coherent_gain",
    "evaluate_beamforming", "expected_gain", "from_seconds", "kalman_step",
    "load_scenario", "plan_sampling", "run_scenario", "scenario_hash",
    "to_seconds", "trilaterate", "two_step_offset",
    "wrap_phase",
]
