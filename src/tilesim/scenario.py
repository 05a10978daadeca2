"""Scenario files: a YAML document is parsed into a typed config tree with
strict key checking, and the fully resolved tree is hashed so every output
directory is keyed by exactly the configuration that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

import yaml

from .coherent import CARRIER_MAX_HZ, CARRIER_MIN_HZ, MAX_TX_POWER_DBM
from .core import MAX_SIM_TIME, PS_PER_S, from_seconds
from .fabric import SURFACE_NAMES, ConfigurationError, FabricConfig
from .rover import MissionConfig
from .timesync import TimesyncConfig

# the widest lognormal jitter shape and ranging error the models take
MAX_JITTER_SHAPE = 20.0
MAX_BEACON_SIGMA_M = 1e3


@dataclass
class PowerConfig:
    enabled: bool = True
    global_budget_w: float = 9000.0
    midspan_count: int = 4
    midspan_budget_w: float | None = None   # None → equal split of the global
    requested_class: int | None = 3         # None → classify from measured draw
    base_mw: int = 500
    processing_mw: int = 2500               # steady processing draw
    peripheral_mw: int = 500                # steady peripheral draw
    detection_window_ms: int = 75
    overdraw_tile: str | None = None        # fault injection: one greedy tile
    overdraw_at_s: float = 10.0
    overdraw_w: float = 20.0


@dataclass
class DataplaneConfig:
    enabled: bool = True
    topic: str = "samples"
    partitions: int = 8
    retention_records: int = 65536
    producer_tiles: int = 16                # first N producer-role tiles publish
    produce_interval_ms: float = 100.0
    record_bytes: int = 8192
    consumer_groups: int = 2
    consumers_per_group: int = 4
    poll_interval_ms: float = 200.0
    max_poll_records: int = 512
    load_window_ms: float = 100.0           # link-utilization averaging window


@dataclass
class CoherentConfig:
    enabled: bool = True
    carrier_hz: float = 4.0e8
    tx_power_dbm: float = 10.0
    target: tuple = (4.0, 2.0, 1.0)
    trials: int = 200
    tile_count: int | None = 16             # subset of radio tiles; None → all
    phase_noise_sigma_rad: float = 0.0
    stream_label: str = "coherent"


@dataclass
class RoverConfig:
    enabled: bool = True
    area: tuple | None = (0.6, 0.6, 3.0, 3.0)
    resolution_m: float = 0.6
    z_resolution_m: float = 0.6
    obstacles: tuple = ()
    beacon_sigma_m: float = 0.01
    beacon_rate_hz: float = 10.0
    outlier_prob: float = 0.0
    battery_capacity_wh: float = 170.0
    battery_peak_w: float = 480.0
    speed_mps: float = 0.3
    tick_s: float = 0.1
    max_duration_s: float = 7200.0
    stream_label: str = "rover"


@dataclass
class ScenarioConfig:
    name: str = "default"
    seed: int = 42
    duration_s: float = 300.0
    trace_events: bool = False
    fabric: FabricConfig = field(default_factory=FabricConfig)
    timesync: TimesyncConfig = field(default_factory=TimesyncConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    dataplane: DataplaneConfig = field(default_factory=DataplaneConfig)
    coherent: CoherentConfig = field(default_factory=CoherentConfig)
    rover: RoverConfig = field(default_factory=RoverConfig)


def _coerce_lists(value):
    if isinstance(value, list):
        return tuple(_coerce_lists(v) for v in value)
    return value


def _coerce_float(value, where: str):
    # YAML 1.1 reads exponents without a sign ("2.45e9") as strings
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{where}: expected a number, got {value!r}") from None
    except OverflowError:
        raise ConfigurationError(f"{where}: expected a number, got an integer "
                                 f"too large for a float") from None


_SCALAR_NAMES = {bool: "true or false", int: "an integer", float: "a number",
                 str: "a string"}


def _check_scalar(hint, value, where: str):
    """A value for a field hinted as a scalar (bool, int, float or str, or
    one of them `| None`), type-checked; a float field also takes an int or
    a numeric string.  Values of any other hint pass through unchecked."""
    args = typing.get_args(hint)
    kinds = [a for a in args or (hint,) if a is not type(None)]
    if len(kinds) != 1 or kinds[0] not in _SCALAR_NAMES:
        return _coerce_lists(value)
    kind = kinds[0]
    if value is None and type(None) in args:
        return value
    if isinstance(value, bool):
        ok = kind is bool
    elif kind is float and isinstance(value, (int, str)):
        return _coerce_float(value, where)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigurationError(
            f"{where}: expected {_SCALAR_NAMES[kind]}, got {value!r}")
    return value


def _build(cls, data, where: str):
    """Instantiate a config dataclass from a mapping, rejecting unknown keys
    with the list of valid ones, and scalar values of the wrong type, so
    typos are caught at load time."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where}: expected a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    valid = {f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")}
    kwargs = {}
    for key, value in data.items():
        if key not in valid:
            raise ConfigurationError(
                f"{where}: unknown key {key!r} (valid: {', '.join(sorted(valid))})")
        hint = hints.get(key)
        if dataclasses.is_dataclass(hint) and not isinstance(value, hint):
            value = _build(hint, value, f"{where}.{key}")
        else:
            value = _check_scalar(hint, value, f"{where}.{key}")
        kwargs[key] = value
    return cls(**kwargs)


def scenario_from_dict(data: dict, where: str = "scenario") -> ScenarioConfig:
    return _build(ScenarioConfig, data, where)


# libyaml's scanner and parser when PyYAML was built with them: the same
# safe constructor and resolver turn the events into the same values, about
# ten times faster than the pure-Python parser
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path) -> ScenarioConfig:
    with open(path) as f:
        data = yaml.load(f, Loader=_YAML_LOADER)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return scenario_from_dict(data, where=str(path))


def resolved_dict(cfg: ScenarioConfig) -> dict:
    return dataclasses.asdict(cfg)


def resolved_json(cfg: ScenarioConfig) -> str:
    """Canonical serialization: sorted keys, no whitespace, so equal configs
    hash equally regardless of how the YAML was formatted."""
    return json.dumps(resolved_dict(cfg), sort_keys=True, separators=(",", ":"))


def scenario_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(resolved_json(cfg).encode()).hexdigest()


def _check_period(problems: list[str], name: str, seconds: float) -> None:
    """A period handed to `EventLoop.every`, or a window a rate is divided
    by, must round, as the scheduler rounds it, to at least 1 ps, and lie
    inside the 64-bit time range; `every` raises on a shorter period, and a
    zero window divides by zero."""
    if not (math.isfinite(seconds * PS_PER_S)
            and 1 <= from_seconds(seconds) <= MAX_SIM_TIME):
        problems.append(f"{name} must be at least 1 ps and at most "
                        f"{MAX_SIM_TIME / PS_PER_S:g} s (got {seconds:g} s)")


def _check_delay(problems: list[str], name: str, seconds: float) -> None:
    """A start time or delay must be non-negative, since an event cannot be
    scheduled before now, and convertible to integer picoseconds."""
    if not (seconds >= 0 and math.isfinite(seconds * PS_PER_S)):
        problems.append(f"{name} must be a finite, non-negative time "
                        f"(got {seconds:g} s)")


def _check_scale(problems: list[str], name: str, value: float,
                 below: float = math.inf, positive: bool = False) -> None:
    """A gain, sigma, length or shape must lie in [0, below), or in
    (0, below) when `positive`; NaN and infinity fail."""
    if not (0 < value < below if positive else 0 <= value < below):
        problems.append(f"{name} must be {'positive' if positive else 'non-negative'}"
                        f" and {'finite' if below == math.inf else f'below {below:g}'}"
                        f" (got {value:g})")


def _numbers(value, n: int) -> bool:
    """Whether `value` is a sequence of exactly n numbers."""
    return (isinstance(value, (tuple, list)) and len(value) == n
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value))


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Cross-field checks that a single dataclass cannot express.  Returns a
    list of human-readable problems; empty means the scenario is runnable."""
    problems = []
    if cfg.duration_s <= 0:
        problems.append("duration_s must be positive")
    elif not (math.isfinite(cfg.duration_s * PS_PER_S)
              and from_seconds(cfg.duration_s) <= MAX_SIM_TIME):
        problems.append(f"duration_s must be finite and at most "
                        f"{MAX_SIM_TIME / PS_PER_S:g} s (got {cfg.duration_s:g} s)")
    if cfg.seed < 0:
        problems.append("seed must be non-negative")
    counts = cfg.fabric.counts
    if not (isinstance(counts, dict) and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0
            for n in counts.values())):
        problems.append("fabric.counts must map surfaces to non-negative integers")
    dims = cfg.fabric.face_dims
    if not (isinstance(dims, dict) and all(
            k in SURFACE_NAMES and _numbers(v, 2) and all(
                0 < x < math.inf for x in v) for k, v in dims.items())):
        problems.append("fabric.face_dims must map surfaces to 2 positive "
                        "numbers (u, v)")
    f = cfg.fabric
    for key in ("prop_ns_per_m", "slack_m", "cable_min_m", "cable_max_m",
                "cable_fixed_m", "tile_jitter_sigma_ns", "trunk_jitter_sigma_ns"):
        _check_scale(problems, f"fabric.{key}", getattr(f, key))
    # the lognormal jitter is normalized by exp(s^2/2)*sqrt(expm1(s^2)),
    # which is 0 at shape 0 and overflows a float past about 26.6
    _check_scale(problems, "fabric.jitter_shape", f.jitter_shape,
                 MAX_JITTER_SHAPE, positive=True)
    if f.bandwidth_bps < 1:
        problems.append("fabric.bandwidth_bps must be at least 1")
    room = cfg.fabric.room
    for key in ("length_m", "width_m", "height_m"):
        _check_scale(problems, f"fabric.room.{key}", getattr(room, key),
                     positive=True)
    if cfg.coherent.enabled:
        c = cfg.coherent
        if not CARRIER_MIN_HZ <= c.carrier_hz <= CARRIER_MAX_HZ:
            problems.append(
                f"coherent.carrier_hz {c.carrier_hz:g} outside "
                f"[{CARRIER_MIN_HZ:g}, {CARRIER_MAX_HZ:g}]")
        if not c.tx_power_dbm <= MAX_TX_POWER_DBM:
            problems.append(f"coherent.tx_power_dbm must be at most "
                            f"{MAX_TX_POWER_DBM} (got {c.tx_power_dbm})")
        if c.trials < 1:
            problems.append("coherent.trials must be at least 1")
        if c.tile_count is not None and c.tile_count < 1:
            problems.append("coherent.tile_count must be at least 1 when set")
        _check_scale(problems, "coherent.phase_noise_sigma_rad",
                     c.phase_noise_sigma_rad)
        if not _numbers(c.target, 3):
            problems.append("coherent.target must hold 3 numbers (x, y, z)")
        else:
            x, y, z = c.target
            if not (0 <= x <= room.length_m and 0 <= y <= room.width_m
                    and 0 <= z <= room.height_m):
                problems.append("coherent.target lies outside the room")
    if cfg.power.enabled:
        p = cfg.power
        if p.midspan_count < 1:
            problems.append("power.midspan_count must be at least 1")
        if not 0 < p.global_budget_w < math.inf:
            problems.append("power.global_budget_w must be positive and finite")
        if p.midspan_budget_w is not None and not 0 < p.midspan_budget_w < math.inf:
            problems.append("power.midspan_budget_w must be positive and finite "
                            "when set")
        for draw in ("base_mw", "processing_mw", "peripheral_mw"):
            if getattr(p, draw) < 0:
                problems.append(f"power.{draw} must be non-negative")
        if p.detection_window_ms < 0:
            problems.append("power.detection_window_ms must be non-negative")
        if p.overdraw_tile is not None:
            _check_delay(problems, "power.overdraw_at_s", p.overdraw_at_s)
            if not 0 <= p.overdraw_w < math.inf:
                problems.append("power.overdraw_w must be finite and non-negative")
    if cfg.dataplane.enabled:
        d = cfg.dataplane
        if d.partitions < 1:
            problems.append("dataplane.partitions must be at least 1")
        if d.producer_tiles < 0:
            problems.append("dataplane.producer_tiles must be non-negative")
        if d.record_bytes < 0:
            problems.append("dataplane.record_bytes must be non-negative")
        if d.max_poll_records < 1:
            problems.append("dataplane.max_poll_records must be at least 1")
        if d.consumer_groups < 0 or (d.consumer_groups and d.consumers_per_group < 1):
            problems.append("dataplane consumer topology is malformed")
        _check_period(problems, "dataplane.produce_interval_ms",
                      d.produce_interval_ms / 1e3)
        _check_period(problems, "dataplane.poll_interval_ms",
                      d.poll_interval_ms / 1e3)
        _check_period(problems, "dataplane.load_window_ms",
                      d.load_window_ms / 1e3)
    if cfg.rover.enabled:
        r = cfg.rover
        if r.area is not None and not _numbers(r.area, 4):
            problems.append("rover.area must hold 4 numbers (x0, y0, x1, y1)")
        elif r.area is not None:
            x0, y0, x1, y1 = r.area
            if not (0 <= x0 < x1 <= room.length_m and 0 <= y0 < y1 <= room.width_m):
                problems.append("rover.area must lie inside the room")
        if not (r.resolution_m > 0 and r.z_resolution_m > 0):
            problems.append("rover resolutions must be positive")
        if not r.speed_mps > 0:
            problems.append("rover.speed_mps must be positive")
        _check_period(problems, "rover.tick_s", r.tick_s)
        if not (r.max_duration_s >= 0 and math.isfinite(r.max_duration_s * PS_PER_S)
                and from_seconds(r.max_duration_s) <= MAX_SIM_TIME):
            problems.append(f"rover.max_duration_s must be non-negative, finite "
                            f"and at most {MAX_SIM_TIME / PS_PER_S:g} s "
                            f"(got {r.max_duration_s:g} s)")
        if not 0 < r.battery_capacity_wh < math.inf:
            problems.append("rover.battery_capacity_wh must be positive")
        # moving is the mission's largest draw; the battery must supply it
        if not r.battery_peak_w >= MissionConfig.move_draw_w:
            problems.append(f"rover.battery_peak_w must be at least "
                            f"{MissionConfig.move_draw_w:g} W, the driving draw")
        # the tracker squares it into the measurement variance
        _check_scale(problems, "rover.beacon_sigma_m", r.beacon_sigma_m,
                     MAX_BEACON_SIGMA_M)
        if not 0 <= r.outlier_prob <= 1:
            problems.append("rover.outlier_prob must lie in [0, 1]")
        # the tracker folds in at most one fix per tick
        if not (0 <= r.beacon_rate_hz < math.inf
                and (r.tick_s <= 0 or r.beacon_rate_hz <= 1 / r.tick_s)):
            problems.append("rover.beacon_rate_hz must be non-negative, finite "
                            "and at most one fix per rover.tick_s")
        if not (isinstance(r.obstacles, (tuple, list))
                and all(_numbers(o, 4) for o in r.obstacles)):
            problems.append("rover.obstacles must be rectangles of 4 numbers "
                            "(x0, y0, x1, y1)")
    if cfg.timesync.enabled:
        t = cfg.timesync
        _check_period(problems, "timesync.sync_interval_s", t.sync_interval_s)
        _check_period(problems, "timesync.sample_interval_s", t.sample_interval_s)
        for osc in ("tile_osc", "switch_osc", "gm_osc"):
            for key in ("init_offset_us", "freq_error_ppm", "rw_sigma_ppm_per_sqrt_s"):
                # at 1e6 ppm a clock would stand still or run backwards
                _check_scale(problems, f"timesync.{osc}.{key}", getattr(getattr(t, osc), key),
                             1e6 if key == "freq_error_ppm" else math.inf)
        for key in ("jitter_scale", "load_coupling", "servo_kp", "servo_ki"):
            _check_scale(problems, f"timesync.{key}", getattr(t, key))
        for key in ("servo_clamp_ppm", "convergence_threshold_us"):
            _check_scale(problems, f"timesync.{key}", getattr(t, key), positive=True)
        if t.convergence_samples < 1:
            problems.append("timesync.convergence_samples must be at least 1")
        _check_delay(problems, "timesync.start_s", t.start_s)
        _check_delay(problems, "timesync.stagger_ms", t.stagger_ms / 1e3)
        _check_delay(problems, "timesync.followup_lag_us", t.followup_lag_us / 1e6)
        _check_delay(problems, "timesync.turnaround_us", t.turnaround_us / 1e6)
        _check_delay(problems, "timesync.residence_us", t.residence_us / 1e6)
        if not (isinstance(t.boundary_switches, (tuple, list))
                and all(isinstance(sw, str) for sw in t.boundary_switches)):
            problems.append("timesync.boundary_switches must be a list of "
                            "switch ids")
    return problems
