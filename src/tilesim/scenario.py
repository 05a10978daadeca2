"""Scenario files: a YAML document is parsed into a typed config tree with
strict key checking, and the fully resolved tree is hashed so every output
directory is keyed by exactly the configuration that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from operator import attrgetter

import yaml

from .coherent import CARRIER_MAX_HZ, CARRIER_MIN_HZ
from .core import MAX_SIM_TIME, PS_PER_S, from_seconds
from .fabric import SURFACE_NAMES, ConfigurationError, FabricConfig
from .powerplane import POWER_CLASSES, PowerConfig
from .rover import MissionConfig
from .timesync import TimesyncConfig


@dataclass
class DataplaneConfig:
    enabled: bool = True
    topic: str = "samples"
    partitions: int = 8
    retention_records: int = 65536
    producer_tiles: int = 16                # the first N tiles publish
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
    trials: int = 200
    tile_count: int | None = 16             # the first N tiles transmit; None → all
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


# A scenario's structure is bounded before anything is built from it.  Its
# deepest legitimate key, rover.obstacles, nests 4 collections: the
# document, the rover section, the list and one rectangle.  MAX_NESTING is
# eight times that, far inside both the composer's C stack (a file 50,000
# levels deep overflows it) and Python's recursion limit.  MAX_NODES counts
# every mapping, list and scalar, each alias as the size of its anchor; the
# shipped scenario has 59.  A file at the bound, one list of 49,990 floats
# under a disabled section, where no check of its shape applies, took
# 0.29-0.33 s to validate with Python 3.11 on a 2-core Xeon.
MAX_NESTING = 32
MAX_NODES = 50_000


def _coerce_lists(value, where: str):
    """`value` with each list in it, at any depth, made a tuple.  Data
    built in Python, not read from a file, is held here to the bounds
    `_check_structure` holds a file to, a list that occurs more than once
    counted each time; a tuple is taken as it is."""
    nodes = 0

    def coerce(v, depth):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise ConfigurationError(f"{where}: more than {MAX_NODES:,} values")
        if not isinstance(v, list):
            return v
        if depth == MAX_NESTING:
            raise ConfigurationError(f"{where}: nested deeper than {MAX_NESTING} lists")
        return tuple([coerce(x, depth + 1) for x in v])

    return coerce(value, 0)


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
        return _coerce_lists(value, where)
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
    try:
        return cls(**kwargs)
    except ConfigurationError as e:
        # a config class refused one of its own fields, which it names
        raise ConfigurationError(f"{where}.{e}") from None


def scenario_from_dict(data: dict, where: str = "scenario") -> ScenarioConfig:
    return _build(ScenarioConfig, data, where)


# libyaml's scanner and parser when PyYAML was built with them: the same
# safe constructor and resolver turn the events into the same values, about
# ten times faster than the pure-Python parser
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _check_structure(path, stream) -> None:
    """Refuse a document nested deeper than MAX_NESTING collections or of
    more than MAX_NODES nodes, each alias counted as the size of its
    anchor, from its events alone: the parser keeps its own stack, where
    composing the document would recurse."""
    sizes = {}    # anchor -> the nodes of its node, once it is closed
    open_ = []    # (anchor, nodes before it) of each open collection
    nodes = 0
    for event in yaml.parse(stream, Loader=_YAML_LOADER):
        if isinstance(event, yaml.AliasEvent):
            if any(anchor == event.anchor for anchor, _ in open_):
                raise ConfigurationError(f"{path}: alias *{event.anchor} lies inside "
                                         f"its own anchor")
            nodes += sizes.get(event.anchor, 1)
        elif isinstance(event, yaml.CollectionStartEvent):
            open_.append((event.anchor, nodes))
            nodes += 1
            if len(open_) > MAX_NESTING:
                raise ConfigurationError(
                    f"{path}: nested deeper than {MAX_NESTING} collections")
        elif isinstance(event, yaml.CollectionEndEvent):
            anchor, before = open_.pop()
            if anchor is not None:
                sizes[anchor] = nodes - before
        elif isinstance(event, yaml.ScalarEvent):
            nodes += 1
            if event.anchor is not None:
                sizes[event.anchor] = 1
        if nodes > MAX_NODES:
            raise ConfigurationError(f"{path}: more than {MAX_NODES:,} nodes, "
                                     f"each alias counted as its anchor")


def load_scenario(path) -> ScenarioConfig:
    # bytes: the parser decodes them as YAML says, UTF-8 unless a BOM says
    # otherwise, and refuses a file that is not
    with open(path, "rb") as f:
        _check_structure(path, f)
        f.seek(0)
        # a scalar the constructor cannot make: an integer past Python's
        # digit limit on converting strings to ints, or a date that is none
        try:
            data = yaml.load(f, Loader=_YAML_LOADER)
        except ValueError as e:
            raise ConfigurationError(f"{path}: {e}") from None
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


# a time key's value over these is seconds, as its stage converts it
_PER_SECOND = {"s": 1, "ms": 1e3, "us": 1e6}


@dataclass(frozen=True)
class Period:
    """A period handed to `EventLoop.every`, or a window a rate is divided
    by, must round as the scheduler does to at least 1 ps and fit the 64-bit
    time range.  The unit is the key's suffix: `_s`, `_ms` or `_us`."""

    def problem(self, key: str, value: float) -> str | None:
        unit = key.rpartition("_")[2]
        seconds = value / _PER_SECOND[unit]
        if (math.isfinite(seconds * PS_PER_S)
                and 1 <= from_seconds(seconds) <= MAX_SIM_TIME):
            return None
        return (f"{key} must be at least 1 ps and at most "
                f"{MAX_SIM_TIME / PS_PER_S:g} s (got {value:g} {unit})")


@dataclass(frozen=True)
class Delay:
    """A start time or delay: non-negative, since an event cannot be
    scheduled before now, and convertible to integer picoseconds; when
    `bounded`, also inside the 64-bit time range.  Unit as for `Period`."""
    bounded: bool = False

    def problem(self, key: str, value: float) -> str | None:
        unit = key.rpartition("_")[2]
        seconds = value / _PER_SECOND[unit]
        if (seconds >= 0 and math.isfinite(seconds * PS_PER_S)
                and (not self.bounded or from_seconds(seconds) <= MAX_SIM_TIME)):
            return None
        most = f" of at most {MAX_SIM_TIME / PS_PER_S:g} s" if self.bounded else ""
        return f"{key} must be a finite, non-negative time{most} (got {value:g} {unit})"


@dataclass(frozen=True)
class Scale:
    """A gain, sigma, length or shape: in [least, below), or in (0, below)
    when `positive`; NaN and infinity fail."""
    below: float = math.inf
    positive: bool = False
    least: float = 0.0

    def problem(self, key: str, value: float) -> str | None:
        if (0 < value if self.positive else self.least <= value) and value < self.below:
            return None
        low = ("positive" if self.positive else
               f"at least {self.least:g}" if self.least else "non-negative")
        return (f"{key} must be {low}"
                f" and {'finite' if self.below == math.inf else f'below {self.below:g}'}"
                f" (got {value:g})")


@dataclass(frozen=True)
class Count:
    """A count, or any other number held to the closed range [least, most]."""
    least: float
    most: float = math.inf

    def problem(self, key: str, value: float) -> str | None:
        if self.least <= value <= self.most:
            return None
        bounds = " and ".join(f"at {word} {bound:g}" for word, bound in (
            ("least", self.least), ("most", self.most)) if math.isfinite(bound))
        return f"{key} must be {bounds} (got {value})"


# The accepted range of every numeric leaf of `ScenarioConfig`, by dotted
# path; a new numeric field gets its rule here.  A rule binds only while its
# section is enabled, and skips None.  tests/test_boundary.py predicts from
# this table how each boundary value it tries ends.  A count that sizes
# what set-up builds is bounded so that set-up at the bound takes well under 1 s.
RULES = {
    "seed": Count(0), "duration_s": Period(),
    # tile centres are kept to the micrometre, which a side must reach
    **{f"fabric.room.{key}": Scale(least=1e-6)
       for key in ("length_m", "width_m", "height_m")},
    "fabric.switch_count": Count(1, 10_000), "fabric.switch_ports": Count(1),
    # the load coupling divides a link's load by the bandwidth as a float
    "fabric.max_tile_connections": Count(1, 10_000), "fabric.bandwidth_bps": Count(1, 1e300),
    "fabric.prop_ns_per_m": Scale(), "fabric.slack_m": Scale(),
    "fabric.cable_min_m": Scale(), "fabric.cable_max_m": Scale(),
    "fabric.cable_fixed_m": Scale(), "fabric.tile_jitter_sigma_ns": Scale(),
    "fabric.trunk_jitter_sigma_ns": Scale(),
    # the lognormal jitter is normalized by exp(s^2/2)*sqrt(expm1(s^2)),
    # which overflows a float past about 26.6; s^2 must be a normal float,
    # or the normalization loses its digits and then underflows to 0
    "fabric.jitter_shape": Scale(below=20.0, least=math.sqrt(sys.float_info.min)),
    "coherent.carrier_hz": Count(CARRIER_MIN_HZ, CARRIER_MAX_HZ),
    "coherent.trials": Count(1), "coherent.tile_count": Count(1),
    "coherent.phase_noise_sigma_rad": Scale(),
    # kept in integer mW: a budget times 1,000 must be a float
    "power.global_budget_w": Scale(positive=True, below=1e300),
    "power.midspan_count": Count(1, 10_000),
    "power.midspan_budget_w": Scale(positive=True, below=1e300),
    "power.requested_class": Count(min(POWER_CLASSES), max(POWER_CLASSES)),
    # a device draws their sum, or two and the overdraw step, under 1e304 mW,
    # which the ledger divides by 1,000 into a float of watts
    "power.base_mw": Count(0, 1e300), "power.processing_mw": Count(0, 1e300),
    "power.peripheral_mw": Count(0, 1e300), "power.detection_window_ms": Count(0),
    "dataplane.partitions": Count(1, 100_000), "dataplane.retention_records": Count(1),
    # a link's load, a float of bits/s: its records in the window (at most
    # the work bound's 10**7) times 8e12 times this, over the window in ps
    "dataplane.producer_tiles": Count(0), "dataplane.record_bytes": Count(0, 1e280),
    # their product, the run's consumers, is held to MAX_CONSUMERS across fields
    "dataplane.consumer_groups": Count(0), "dataplane.consumers_per_group": Count(1),
    "dataplane.max_poll_records": Count(1), "dataplane.produce_interval_ms": Period(),
    "dataplane.poll_interval_ms": Period(), "dataplane.load_window_ms": Period(),
    "rover.resolution_m": Scale(positive=True),
    "rover.z_resolution_m": Scale(positive=True),
    # the tracker squares it into the measurement variance
    "rover.beacon_sigma_m": Scale(below=1e3),
    "rover.beacon_rate_hz": Scale(), "rover.outlier_prob": Count(0, 1),
    "rover.battery_capacity_wh": Scale(positive=True),
    # moving is the mission's largest draw; the battery must supply it
    "rover.battery_peak_w": Count(MissionConfig.move_draw_w),
    "rover.speed_mps": Scale(positive=True), "rover.tick_s": Period(),
    "rover.max_duration_s": Delay(bounded=True),
    "timesync.start_s": Delay(), "timesync.sync_interval_s": Period(),
    "timesync.stagger_ms": Delay(), "timesync.followup_lag_us": Delay(),
    "timesync.turnaround_us": Delay(), "timesync.residence_us": Delay(),
    # A clock's phase over the longest run, 2**64 ps, is its initial offset
    # plus 1.8e13 ps for each ppm of its rate: the frequency error, the
    # steering, at most the clamp, and the walk, which after 1.8e7
    # one-second steps of |z| <= 8.6 runs at most 1.6e8 rw_sigma.  The
    # offset is at most 1e6 init_offset_us ps.  These bounds hold each part
    # under 1e300 ps, so that a phase, and an exchange's difference of two,
    # is a float.
    **{f"timesync.{osc}.{key}": rule for osc in ("tile_osc", "switch_osc", "gm_osc")
       for key, rule in (("init_offset_us", Scale(below=1e294)),
                         ("rw_sigma_ppm_per_sqrt_s", Scale(below=1e278)),
                         # at 1e6 ppm a clock would stand still or run backwards
                         ("freq_error_ppm", Scale(below=1e6)),
                         ("granularity_ps", Count(1)))},
    "timesync.servo_kp": Scale(), "timesync.servo_ki": Scale(),
    "timesync.servo_clamp_ppm": Scale(positive=True, below=1e286),
    "timesync.jitter_scale": Scale(),
    "timesync.load_coupling": Scale(), "timesync.sample_interval_s": Period(),
    # kept in integer ps: the threshold times 1e6 must be a float
    "timesync.convergence_threshold_us": Scale(positive=True, below=1e300),
    "timesync.convergence_samples": Count(1),
}

MAX_CONSUMERS = 50_000   # groups times members, each a poll series; set-up well under 1 s

# rules that bind only once power.overdraw_tile names a tile to overdraw;
# the step is kept in integer mW, like the budgets
OVERDRAW_RULES = {"power.overdraw_at_s": Delay(),
                  "power.overdraw_w": Scale(below=1e300)}


def _rule_problems(cfg: ScenarioConfig, rules: dict) -> list[str]:
    # a top-level key is its own section, and a scalar is never disabled
    return [problem for key, rule in rules.items()
            if getattr(getattr(cfg, key.partition(".")[0]), "enabled", True)
            and (value := attrgetter(key)(cfg)) is not None
            and (problem := rule.problem(key, value))]


def _numbers(value, n: int) -> bool:
    """Whether `value` is a sequence of exactly n numbers."""
    return (isinstance(value, (tuple, list)) and len(value) == n
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value))


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Every rule of `RULES`, then the checks of shape and across fields
    that one key's range cannot express.  Returns a list of human-readable
    problems; empty means the scenario is runnable."""
    problems = _rule_problems(cfg, RULES)
    counts = cfg.fabric.counts
    if not (isinstance(counts, dict) and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0
            for n in counts.values())):
        problems.append("fabric.counts must map surfaces to non-negative integers")
    # a face is packed in integer mm: a side times 1,000 must round from a float
    dims = cfg.fabric.face_dims
    if not (isinstance(dims, dict) and all(
            k in SURFACE_NAMES and _numbers(v, 2) and all(
                0 < x < 1e300 for x in v) for k, v in dims.items())):
        problems.append("fabric.face_dims must map surfaces to 2 positive "
                        "numbers (u, v) below 1e+300")
    d = cfg.dataplane
    if d.enabled and (n := d.consumer_groups * d.consumers_per_group) > MAX_CONSUMERS:
        problems.append(f"dataplane.consumer_groups times consumers_per_group is {n:,} "
                        f"consumers; a run may have at most {MAX_CONSUMERS:,}")
    if cfg.power.enabled and cfg.power.overdraw_tile is not None:
        problems += _rule_problems(cfg, OVERDRAW_RULES)
    if cfg.rover.enabled:
        r, room = cfg.rover, cfg.fabric.room
        if r.area is not None and not _numbers(r.area, 4):
            problems.append("rover.area must hold 4 numbers (x0, y0, x1, y1)")
        elif r.area is not None:
            x0, y0, x1, y1 = r.area
            if not (0 <= x0 < x1 <= room.length_m and 0 <= y0 < y1 <= room.width_m):
                problems.append("rover.area must lie inside the room")
        # the tracker folds in at most one fix per tick
        if (r.tick_s > 0 and math.isfinite(r.beacon_rate_hz)
                and r.beacon_rate_hz > 1 / r.tick_s):
            problems.append("rover.beacon_rate_hz must be at most one fix per "
                            "rover.tick_s")
        if not (isinstance(r.obstacles, (tuple, list))
                and all(_numbers(o, 4) for o in r.obstacles)):
            problems.append("rover.obstacles must be rectangles of 4 numbers "
                            "(x0, y0, x1, y1)")
    if cfg.timesync.enabled and not (
            isinstance(cfg.timesync.boundary_switches, (tuple, list))
            and all(isinstance(sw, str) for sw in cfg.timesync.boundary_switches)):
        problems.append("timesync.boundary_switches must be a list of "
                        "switch ids")
    return problems
