"""Scenario loading, validation, the command line, and whole-run artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import tilesim
from tilesim.cli import main
from tilesim.fabric import ConfigurationError
from tilesim.orchestrator import run_scenario
from tilesim.scenario import (_YAML_LOADER, load_scenario, resolved_dict,
                              resolved_json, scenario_from_dict, scenario_hash,
                              validate_scenario)
from tilesim.timesync import run_sync_domain

TINY = {
    "name": "tiny",
    "seed": 11,
    "duration_s": 6.0,
    "fabric": {"counts": {"wall_a": 4, "wall_b": 4, "floor": 4, "ceiling": 4},
               "switch_count": 2},
    "dataplane": {"producer_tiles": 6, "partitions": 4},
    "coherent": {"trials": 40, "tile_count": 8, "carrier_hz": 2.45e9},
    "rover": {"area": [0.6, 0.6, 1.8, 1.8], "resolution_m": 0.6,
              "z_resolution_m": 2.0, "max_duration_s": 900.0},
}

TINY_YAML = """\
name: tiny
seed: 11
duration_s: 6.0
fabric:
  counts: {wall_a: 4, wall_b: 4, floor: 4, ceiling: 4}
  switch_count: 2
dataplane:
  producer_tiles: 6
  partitions: 4
coherent:
  trials: 40
  tile_count: 8
  carrier_hz: 2.45e9
rover:
  area: [0.6, 0.6, 1.8, 1.8]
  resolution_m: 0.6
  z_resolution_m: 2.0
  max_duration_s: 900.0
"""


def tiny_cfg(**sections):
    data = json.loads(json.dumps(TINY))
    for key, val in sections.items():
        if isinstance(val, dict):
            data.setdefault(key, {}).update(val)
        else:
            data[key] = val
    return scenario_from_dict(data)


@pytest.fixture
def tiny_yaml(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    return str(path)


# --- loading ------------------------------------------------------------


def test_empty_mapping_gives_defaults():
    cfg = scenario_from_dict({})
    assert cfg.name == "default"
    assert cfg.seed == 42
    assert cfg.duration_s == 300.0
    assert cfg.power.global_budget_w == 9000.0
    assert cfg.fabric.counts["floor"] == 52


def test_unknown_top_level_key_lists_valid_ones():
    with pytest.raises(ConfigurationError) as exc:
        scenario_from_dict({"sedd": 1})
    msg = str(exc.value)
    assert "unknown key 'sedd'" in msg
    assert "seed" in msg and "duration_s" in msg


def test_unknown_nested_key_reports_dotted_path():
    with pytest.raises(ConfigurationError) as exc:
        scenario_from_dict({"power": {"basemw": 1}})
    msg = str(exc.value)
    assert "scenario.power" in msg
    assert "base_mw" in msg


def test_section_must_be_mapping():
    with pytest.raises(ConfigurationError, match="expected a mapping"):
        scenario_from_dict({"power": 7})


def test_unsigned_exponent_literal_loads_as_number(tmp_path):
    # YAML 1.1 parses 2.45e9 (no sign in the exponent) as a string
    path = tmp_path / "s.yaml"
    path.write_text("coherent:\n  carrier_hz: 2.45e9\n")
    cfg = load_scenario(path)
    assert isinstance(cfg.coherent.carrier_hz, float)
    assert cfg.coherent.carrier_hz == 2.45e9


@pytest.mark.parametrize("text", [
    TINY_YAML, "coherent:\n  carrier_hz: 2.45e9\n  target: [1, 2.5e0, .inf]\n",
    "a: !!binary aGk=\nb: 0x1f\nc: 1_000\nd: ~\ne: yes\nf: 2001-12-14\n",
    "name: \"t\\u00e9st\\x01\"\nx: 'it''s'\ny: |\n  two\n  lines\n",
    *(p.read_text() for p in sorted(
        (Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))),
    *(p.read_text() for p in sorted(
        (Path(__file__).resolve().parent / "golden").glob("*.yaml")))])
def test_scenario_parser_reads_what_the_python_parser_reads(text):
    assert yaml.load(text, Loader=_YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("text", ["a: [1,\n", "a: b: c\n", "\ta: 1\n", "a: 'x\n"])
def test_scenario_parser_rejects_what_the_python_parser_rejects(text):
    for loader in (_YAML_LOADER, yaml.SafeLoader):
        with pytest.raises(yaml.YAMLError):
            yaml.load(text, Loader=loader)


def test_non_numeric_string_rejected_for_float_field():
    with pytest.raises(ConfigurationError, match="expected a number"):
        scenario_from_dict({"duration_s": "fast"})


def test_integer_coerced_to_float():
    cfg = scenario_from_dict({"duration_s": 10})
    assert isinstance(cfg.duration_s, float)
    assert cfg.duration_s == 10.0


def test_yaml_lists_become_tuples():
    cfg = scenario_from_dict({
        "rover": {"area": [0, 0, 2, 2],
                  "obstacles": [[1.0, 1.0, 1.5, 1.5]]}})
    assert cfg.rover.area == (0, 0, 2, 2)
    assert cfg.rover.obstacles == ((1.0, 1.0, 1.5, 1.5),)


def test_top_level_list_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigurationError, match="top level"):
        load_scenario(path)


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_scenario(path).name == "default"


# --- hashing ------------------------------------------------------------


def test_hash_ignores_yaml_formatting(tmp_path):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    a.write_text("seed: 7\nname: x\npower:\n  base_mw: 600\n")
    b.write_text("name:   x\npower: {base_mw: 600}\nseed: 7\n")
    assert scenario_hash(load_scenario(a)) == scenario_hash(load_scenario(b))


def test_hash_tracks_every_field():
    base = scenario_hash(tiny_cfg())
    assert scenario_hash(tiny_cfg(seed=12)) != base
    assert scenario_hash(tiny_cfg(power={"base_mw": 501})) != base


def test_resolved_json_is_canonical():
    cfg = tiny_cfg()
    text = resolved_json(cfg)
    assert ": " not in text and ", " not in text
    doc = json.loads(text)
    assert doc == json.loads(json.dumps(resolved_dict(cfg)))
    keys = list(doc)
    assert keys == sorted(keys)


# --- cross-field validation ----------------------------------------------


def test_validate_clean_scenario():
    assert validate_scenario(tiny_cfg()) == []


def test_validate_reports_each_problem():
    cfg = tiny_cfg(duration_s=-1.0,
                   coherent={"carrier_hz": 1e3, "target": [50.0, 0.0, 0.0]},
                   rover={"area": [0.0, 0.0, 99.0, 1.0]})
    problems = "; ".join(validate_scenario(cfg))
    assert "duration_s" in problems
    assert "carrier_hz" in problems
    assert "target" in problems
    assert "rover.area" in problems


def test_run_rejects_invalid_scenario(tmp_path):
    with pytest.raises(ConfigurationError, match="duration_s"):
        run_scenario(tiny_cfg(duration_s=-1.0), tmp_path)


# A period that rounds below the 1 ps tick would re-schedule its event at the
# same instant forever (`EventLoop.every` raises on it), so validation must
# turn each of these away.
SUB_PS_PERIODS = [("dataplane", "produce_interval_ms", 0),
                  ("dataplane", "poll_interval_ms", 0),
                  ("timesync", "sample_interval_s", 1e-13),
                  ("timesync", "sync_interval_s", 1e-13)]


def probe_scenario(section, key, value, tmp_path):
    """An 8-tile, 2 s scenario file with one field overridden (a top-level
    one when `section` is None)."""
    doc = {"name": "probe", "seed": 3, "duration_s": 2.0,
           "fabric": {"counts": {"wall_a": 2, "wall_b": 2, "floor": 2,
                                 "ceiling": 2}, "switch_count": 2}}
    if section is None:
        doc[key] = value
    else:
        doc[section] = {key: value}
    path = tmp_path / "probe.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def run_probe(section, key, value, tmp_path):
    """`tilesim run` on the probe scenario, in a subprocess with a timeout,
    so a regression fails instead of hanging."""
    path = probe_scenario(section, key, value, tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(tilesim.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "tilesim.cli", "run", str(path),
         "--out", str(tmp_path / "runs")],
        capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("section,key,value", SUB_PS_PERIODS)
def test_sub_picosecond_period_exits_1_instead_of_hanging(section, key, value,
                                                          tmp_path):
    proc = run_probe(section, key, value, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and f"{section}.{key}" in lines[0]


# Each of these passed validation and then ended the run in a traceback:
# a zero load window divides by zero at the first rate lookup, a negative
# delay schedules an event before now, and a start time that is not finite
# (or overflows once in ps) cannot be converted to picoseconds.
MALFORMED_TIMES = [("dataplane", "load_window_ms", 0),
                   ("timesync", "residence_us", -5000.0),
                   ("timesync", "start_s", float("nan")),
                   ("timesync", "start_s", 1e300),
                   ("timesync", "turnaround_us", -1.0),
                   ("timesync", "followup_lag_us", float("inf")),
                   ("timesync", "stagger_ms", -1.0)]


@pytest.mark.parametrize("section,key,value", MALFORMED_TIMES)
def test_malformed_time_exits_1_with_one_line(section, key, value, tmp_path):
    proc = run_probe(section, key, value, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and f"{section}.{key}" in lines[0]
    assert "Traceback" not in proc.stderr


# Each of these ended in a traceback, except that `duration_s: true` ran as
# 1 s, `trials: 1.5` exited 0 and 2e7 s, past the 64-bit picosecond range,
# ran on with no end in sight.  A value of the wrong type fails to load
# (exit 2); a malformed one fails validation (exit 1).
BAD_VALUES = [(None, "seed", "abc", 2), ("coherent", "trials", 1.5, 2),
              ("dataplane", "partitions", 2.5, 2),
              ("power", "midspan_count", 1.5, 2), (None, "duration_s", True, 2),
              pytest.param("timesync", "start_s", 10**400, 2,
                           id="timesync-start_s-401_digits"),
              (None, "duration_s", float("nan"), 1),
              (None, "duration_s", float("inf"), 1),
              (None, "duration_s", 2.0e7, 1),
              ("coherent", "target", [1.0, 2.0], 1),
              ("rover", "area", [0.6, 0.6, 3.0], 1),
              ("fabric", "counts", {"wall_a": "many"}, 1)]


@pytest.mark.parametrize("section,key,value,code", BAD_VALUES)
def test_bad_value_exits_with_one_line(section, key, value, code, tmp_path):
    proc = run_probe(section, key, value, tmp_path)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    field = key if section is None else f"{section}.{key}"
    assert len(lines) == 1 and field in lines[0]
    assert "Traceback" not in proc.stderr


# Unchecked ranges: a 1e-13 s rover tick rounds to 0 ps and the mission
# loop never advances; an infinite mission bound overflows in ps; a zero
# battery divides by zero; a 2-number obstacle or face size fails to
# unpack; a negative record size or detection window ran to exit 0; a
# battery rated below the driving draw failed the mission in a traceback.
OUT_OF_RANGE = [("rover", "tick_s", 1e-13), ("rover", "max_duration_s", float("inf")),
                ("rover", "battery_capacity_wh", 0.0), ("rover", "obstacles", [[1, 2]]),
                ("fabric", "face_dims", {"floor": [1]}),
                ("dataplane", "record_bytes", -5),
                ("power", "detection_window_ms", -1),
                ("rover", "battery_peak_w", 0.0)]


@pytest.mark.parametrize("section,key,value", OUT_OF_RANGE)
def test_out_of_range_value_exits_1_with_one_line(section, key, value, tmp_path):
    proc = run_probe(section, key, value, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and f"{section}.{key}" in lines[0]
    assert "Traceback" not in proc.stderr


# A plan this fine would take about 1.3e9 (lift) or 1e11 (floor) stops to
# build, so set-up hung in both `validate` and `run`.
OVERSIZED_PLANS = [("rover", "z_resolution_m", 1e-9),
                   ("rover", "resolution_m", 1e-5)]


# Each of these passed validation: a NaN ended the run in a traceback when
# it reached a clock read, a jitter draw or a cable delay, or ran to exit 0
# with every tile unconverged; a zero bandwidth divided by zero.
UNCHECKED_FLOATS = [("timesync", "tile_osc", {"init_offset_us": float("nan")}),
                    ("timesync", "switch_osc", {"freq_error_ppm": float("nan")}),
                    ("timesync", "gm_osc", {"rw_sigma_ppm_per_sqrt_s": float("nan")}),
                    ("timesync", "jitter_scale", float("nan")),
                    ("timesync", "load_coupling", float("nan")),
                    ("timesync", "servo_kp", float("nan")),
                    ("timesync", "servo_ki", float("nan")),
                    ("timesync", "servo_clamp_ppm", float("nan")),
                    ("timesync", "convergence_threshold_us", float("nan")),
                    ("fabric", "prop_ns_per_m", float("nan")),
                    ("fabric", "slack_m", float("nan")),
                    ("fabric", "tile_jitter_sigma_ns", float("nan")),
                    ("fabric", "trunk_jitter_sigma_ns", float("nan")),
                    ("fabric", "jitter_shape", float("nan")),
                    ("coherent", "phase_noise_sigma_rad", float("nan")),
                    ("fabric", "bandwidth_bps", 0)]


@pytest.mark.parametrize("section,key,value", UNCHECKED_FLOATS)
def test_unchecked_float_exits_1_with_one_line(section, key, value, tmp_path):
    proc = run_probe(section, key, value, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    field = f"{section}.{key}" + (f".{next(iter(value))}" if isinstance(value, dict) else "")
    assert len(lines) == 1 and field in lines[0]
    assert "Traceback" not in proc.stderr


def test_oversized_residual_series_exits_1_instead_of_hanging(tmp_path):
    # one sample a nanosecond for 2 s on every port would be about 2e10
    # residuals: the run hung building them
    proc = run_probe("timesync", "sample_interval_s", 1e-9, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "timesync.sample_interval_s" in lines[0]
    assert "residual samples" in lines[0]


@pytest.mark.parametrize("section,key,value", OVERSIZED_PLANS)
def test_oversized_plan_exits_1_instead_of_hanging(section, key, value,
                                                   tmp_path):
    proc = run_probe(section, key, value, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: rover: ")
    assert "lift stops" in lines[0]


def test_mission_that_cannot_finish_is_reported(tmp_path):
    # 1 mWh runs dry before the charger is in reach
    proc = run_probe("rover", "battery_capacity_wh", 0.001, tmp_path)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    (run_dir,) = (tmp_path / "runs").iterdir()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["rover"] == {"error": "charger unreachable with remaining charge"}
    log = (run_dir / "mission_log.csv").read_text().splitlines()
    assert log[1].endswith(",start")


# The first six got different answers from `validate` and `run` while the
# two had separate set-up code; the rest passed both before their range
# checks.  Both commands now share one set-up path, so they must agree,
# a rejected run must write nothing, and its one line must name the
# scenario section, even when a stage's constructor raised it.
SETUP_PROBES = [("fabric", "cable_model", "uniform", 0),
                ("power", "overdraw_tile", "t999", 1),
                ("timesync", "boundary_switches", ["sw9"], 1),
                ("dataplane", "retention_records", 0, 1),
                ("power", "requested_class", 9, 1),
                ("rover", "obstacles", [[0, 0, 8, 4]], 1),
                ("rover", "battery_peak_w", 0.0, 1),
                ("rover", "beacon_sigma_m", -1.0, 1),
                ("rover", "outlier_prob", 2.0, 1),
                ("rover", "beacon_rate_hz", 11.0, 1),
                ("power", "processing_mw", -100000, 1),
                ("power", "midspan_budget_w", 0.0, 1),
                ("timesync", "convergence_samples", 0, 1),
                ("dataplane", "max_poll_records", 0, 1),
                ("coherent", "tile_count", 0, 1),
                ("timesync", "tile_osc", {"granularity_ps": 0}, 1),
                ("timesync", "sample_interval_s", 1e-9, 1)]


# Each of these passed validation, and `tilesim run` had not ended after
# 10 s: the period asks for millions to trillions of periodic events.
ENDLESS_PERIODS = [("timesync", "sync_interval_s", 1e-6),
                   ("timesync", "sync_interval_s", 1e-9),
                   ("dataplane", "produce_interval_ms", 1e-9),
                   ("dataplane", "poll_interval_ms", 1e-9),
                   ("rover", "tick_s", 1e-9)]


@pytest.mark.parametrize("section,key,value", ENDLESS_PERIODS)
def test_endless_period_exits_1_instead_of_hanging(section, key, value,
                                                   tmp_path):
    proc = run_probe(section, key, value, tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {section}.{key} asks for ")
    assert "periodic events" in lines[0]


# Each of these ended `validate`, `run` or both in a traceback: a period or
# room size that overflows once in picoseconds or millimetres, a jitter
# shape or ranging error whose square overflows, and boundary switches
# given as one number.
OVERFLOWING_VALUES = [
    *[("timesync", key, 1e300, 1) for key in ("sync_interval_s",
                                              "sample_interval_s")],
    *[("dataplane", key, 1e300, 1) for key in ("produce_interval_ms",
                                               "poll_interval_ms",
                                               "load_window_ms")],
    ("rover", "tick_s", 1e300, 1),
    *[("fabric", "room", {key: float("inf")}, 1)
      for key in ("length_m", "width_m", "height_m")],
    ("fabric", "jitter_shape", 1e300, 1),
    ("rover", "beacon_sigma_m", 1e300, 1),
    *[("timesync", "boundary_switches", value, 1)
      for value in (0, -1, 1e-13, 1e-9, float("nan"), float("inf"), 1e300)]]


@pytest.mark.parametrize("section,key,value,code",
                         SETUP_PROBES + OVERFLOWING_VALUES
                         + [(*probe, 1) for probe in ENDLESS_PERIODS])
def test_validate_and_run_agree(section, key, value, code, tmp_path, capsys):
    path = str(probe_scenario(section, key, value, tmp_path))
    out = tmp_path / "runs"
    validated = main(["validate", path])
    ran = main(["run", path, "--out", str(out)])
    assert (validated == 1) == (ran == 1)
    assert ran == code
    if ran == 1:
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith((f"error: {section}.", f"error: {section}: "))
        assert f"{section}: {section}." not in line


@pytest.mark.parametrize("data", [
    {"seed": True}, {"seed": 1.0}, {"seed": None}, {"trace_events": 1},
    {"trace_events": "yes"}, {"name": 3}, {"duration_s": False},
    {"duration_s": None}, {"duration_s": [1.0]},
    {"power": {"requested_class": 3.0}}, {"power": {"midspan_budget_w": True}},
    {"power": {"overdraw_tile": 7}}, {"coherent": {"tile_count": "all"}},
    {"timesync": {"tile_osc": {"granularity_ps": 8000.0}}}])
def test_scalar_fields_reject_other_types(data):
    with pytest.raises(ConfigurationError, match="expected"):
        scenario_from_dict(data)


@pytest.mark.parametrize("values", [(None, None, None), (4, 100, "t001")])
def test_optional_scalars_take_none_or_their_type(values):
    keys = ("requested_class", "midspan_budget_w", "overdraw_tile")
    power = scenario_from_dict({"power": dict(zip(keys, values))}).power
    assert [getattr(power, k) for k in keys] == list(values)
    assert type(power.midspan_budget_w) in (type(None), float)


@pytest.mark.parametrize("sections,field", [
    ({"coherent": {"target": ["a", 1.0, 1.0]}}, "coherent.target"),
    ({"coherent": {"target": [1.0, 1.0, 1.0, 1.0]}}, "coherent.target"),
    ({"rover": {"area": [0.6, 0.6, 1.8, True]}}, "rover.area"),
    ({"fabric": {"counts": {"wall_a": 2.5}}}, "fabric.counts"),
    ({"fabric": {"counts": {"wall_a": True}}}, "fabric.counts"),
    ({"fabric": {"counts": {"wall_a": -1}}}, "fabric.counts"),
    ({"fabric": {"counts": [4, 4]}}, "fabric.counts"),
    ({"duration_s": 1.9e7}, "duration_s"),
    ({"rover": {"battery_peak_w": 0.0}}, "rover.battery_peak_w"),
    ({"rover": {"battery_peak_w": 79.9}}, "rover.battery_peak_w"),
    ({"rover": {"beacon_sigma_m": -0.01}}, "rover.beacon_sigma_m"),
    ({"rover": {"outlier_prob": -0.1}}, "rover.outlier_prob"),
    ({"rover": {"outlier_prob": 1.5}}, "rover.outlier_prob"),
    ({"rover": {"beacon_rate_hz": -1.0}}, "rover.beacon_rate_hz"),
    ({"rover": {"beacon_rate_hz": float("inf")}}, "rover.beacon_rate_hz"),
    ({"rover": {"beacon_rate_hz": 10.5}}, "rover.beacon_rate_hz"),
    ({"rover": {"beacon_rate_hz": 2.5, "tick_s": 0.5}}, "rover.beacon_rate_hz"),
    ({"power": {"base_mw": -1}}, "power.base_mw"),
    ({"power": {"processing_mw": -100000}}, "power.processing_mw"),
    ({"power": {"peripheral_mw": -1}}, "power.peripheral_mw"),
    ({"power": {"midspan_budget_w": 0.0}}, "power.midspan_budget_w"),
    ({"power": {"midspan_budget_w": -5.0}}, "power.midspan_budget_w"),
    ({"power": {"global_budget_w": float("inf")}}, "power.global_budget_w"),
    ({"power": {"overdraw_tile": "t000", "overdraw_at_s": float("nan")}},
     "power.overdraw_at_s"),
    ({"power": {"overdraw_tile": "t000", "overdraw_w": float("inf")}},
     "power.overdraw_w"),
    ({"timesync": {"convergence_samples": 0}}, "timesync.convergence_samples"),
    ({"dataplane": {"max_poll_records": 0}}, "dataplane.max_poll_records"),
    ({"coherent": {"tile_count": 0}}, "coherent.tile_count"),
    *[({"timesync": {osc: {key: value}}}, f"timesync.{osc}.{key}")
      for osc in ("tile_osc", "switch_osc", "gm_osc")
      for key in ("init_offset_us", "freq_error_ppm", "rw_sigma_ppm_per_sqrt_s")
      for value in (float("nan"), -1.0, float("inf"))],
    ({"timesync": {"tile_osc": {"freq_error_ppm": 1e6}}},
     "timesync.tile_osc.freq_error_ppm"),
    *[({"timesync": {key: value}}, f"timesync.{key}")
      for key in ("jitter_scale", "load_coupling", "servo_kp", "servo_ki",
                  "servo_clamp_ppm", "convergence_threshold_us")
      for value in (float("nan"), -1.0)],
    ({"timesync": {"servo_clamp_ppm": 0.0}}, "timesync.servo_clamp_ppm"),
    ({"timesync": {"convergence_threshold_us": 0.0}},
     "timesync.convergence_threshold_us"),
    *[({"fabric": {key: value}}, f"fabric.{key}")
      for key in ("prop_ns_per_m", "slack_m", "tile_jitter_sigma_ns",
                  "trunk_jitter_sigma_ns", "jitter_shape")
      for value in (float("nan"), -1.0, float("inf"))],
    ({"fabric": {"jitter_shape": 0.0}}, "fabric.jitter_shape"),
    ({"fabric": {"bandwidth_bps": 0}}, "fabric.bandwidth_bps"),
    ({"coherent": {"phase_noise_sigma_rad": float("nan")}},
     "coherent.phase_noise_sigma_rad"),
    *[({"fabric": {key: float("nan")}}, f"fabric.{key}")
      for key in ("cable_min_m", "cable_max_m", "cable_fixed_m")],
    ({"coherent": {"tx_power_dbm": float("nan")}}, "coherent.tx_power_dbm")])
def test_validate_names_the_malformed_field(sections, field):
    problems = validate_scenario(tiny_cfg(**sections))
    assert [p.split()[0] for p in problems] == [field]


def test_duration_range_and_disabled_sections_validate():
    assert validate_scenario(tiny_cfg(duration_s=1.8e7)) == []
    # one beacon fix per tick is the most the tracker takes
    for rate, tick in [(10.0, 0.1), (4.0, 0.25), (0.0, 0.1)]:
        assert validate_scenario(tiny_cfg(rover={"beacon_rate_hz": rate,
                                                 "tick_s": tick})) == []
    assert validate_scenario(tiny_cfg(coherent={"enabled": False, "target": [1]},
                                      rover={"enabled": False, "area": [1]})) == []


@pytest.mark.parametrize("seconds,ok", [(0.0, True), (0.5, True), (-1e-9, False),
                                        (float("nan"), False),
                                        (float("inf"), False), (1e300, False)])
def test_delay_check_rejects_negative_and_unconvertible(seconds, ok):
    fields = {"start_s": seconds, "stagger_ms": seconds * 1e3,
              "followup_lag_us": seconds * 1e6, "turnaround_us": seconds * 1e6,
              "residence_us": seconds * 1e6}
    problems = validate_scenario(tiny_cfg(timesync=fields))
    assert (problems == []) == ok
    if not ok:
        assert [p.split()[0] for p in problems] == [
            f"timesync.{k}" for k in fields]
    disabled = dict(fields, enabled=False)
    assert validate_scenario(tiny_cfg(timesync=disabled)) == []


def test_load_window_is_checked_like_a_period():
    assert validate_scenario(tiny_cfg(dataplane={"load_window_ms": 1e-9})) == []
    for bad in (0.0, 4e-10, -1.0, float("nan")):
        problems = validate_scenario(tiny_cfg(dataplane={"load_window_ms": bad}))
        assert [p.split()[0] for p in problems] == ["dataplane.load_window_ms"]
    off = tiny_cfg(dataplane={"enabled": False, "load_window_ms": 0.0})
    assert validate_scenario(off) == []


@pytest.mark.parametrize("seconds,ok", [(4e-13, False), (6e-13, True),
                                        (1e-12, True), (-1.0, False),
                                        (float("nan"), False),
                                        (float("inf"), False)])
def test_period_check_rounds_like_the_scheduler(seconds, ok):
    cfg = tiny_cfg(timesync={"sample_interval_s": seconds},
                   dataplane={"poll_interval_ms": seconds * 1e3})
    problems = validate_scenario(cfg)
    assert (problems == []) == ok
    if not ok:
        assert [p.split()[0] for p in problems] == [
            "dataplane.poll_interval_ms", "timesync.sample_interval_s"]


def test_disabled_stage_periods_are_not_checked():
    cfg = tiny_cfg(timesync={"enabled": False, "sync_interval_s": 0.0},
                   dataplane={"enabled": False, "produce_interval_ms": 0.0})
    assert validate_scenario(cfg) == []


# --- command line ---------------------------------------------------------


def test_cli_validate_ok(tiny_yaml, capsys):
    assert main(["validate", tiny_yaml]) == 0
    assert capsys.readouterr().out.startswith("ok: scenario 'tiny'")


def test_cli_validate_reports_problems(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("coherent:\n  target: [99.0, 0.0, 0.0]\n")
    assert main(["validate", str(path)]) == 1
    assert "problem:" in capsys.readouterr().out


def test_cli_missing_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(tmp_path / "nope.yaml")])
    assert exc.value.code == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1,\n")
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(path)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_then_report(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", tiny_yaml, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "run complete" in text and "artifacts:" in text
    run_dirs = list(out.iterdir())
    assert len(run_dirs) == 1
    run_dir = run_dirs[0]

    assert main(["report", str(run_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["name"] == "tiny"

    assert main(["report", str(run_dir), "--metric",
                 "timesync.p99_residual_ps"]) == 0
    float(capsys.readouterr().out.strip())

    assert main(["report", str(run_dir), "--metric", "no.such.key"]) == 2
    err = capsys.readouterr().err
    assert "unknown metric" in err and "timesync.p99_residual_ps" in err


def test_cli_report_missing_run_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent")]) == 2
    assert "no report" in capsys.readouterr().err


def test_cli_out_env_var(tiny_yaml, tmp_path, monkeypatch, capsys):
    out = tmp_path / "from_env"
    monkeypatch.setenv("TILESIM_OUT", str(out))
    assert main(["run", tiny_yaml]) == 0
    assert out.exists() and list(out.iterdir())


def test_cli_seed_override_changes_run_dir(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", tiny_yaml, "--out", str(out)]) == 0
    assert main(["run", tiny_yaml, "--out", str(out), "--seed", "12"]) == 0
    dirs = sorted(out.iterdir())
    assert len(dirs) == 2
    reports = [json.loads((d / "report.json").read_text()) for d in dirs]
    assert sorted(r["seed"] for r in reports) == [11, 12]


def test_cli_trace_flag_writes_event_log(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", tiny_yaml, "--out", str(out), "--trace"]) == 0
    trace = next(out.iterdir()) / "events.ndjson"
    first = trace.read_text().splitlines()[0]
    row = json.loads(first)
    assert set(row) == {"t", "module", "target", "action"}


# --- whole runs -----------------------------------------------------------

ARTIFACTS = ["report.json", "resolved.json", "fabric.json", "sync_report.csv",
             "power_ledger.csv", "traffic.csv", "topics.ndjson", "gains.csv",
             "mission_log.csv"]


def test_run_writes_every_artifact(tmp_path):
    result = run_scenario(tiny_cfg(), tmp_path)
    for name in ARTIFACTS:
        assert (result.out_dir / name).exists(), name


def test_report_sections(tmp_path):
    result = run_scenario(tiny_cfg(), tmp_path)
    rep = result.report
    assert rep["fabric"] == {"tiles": 16, "switches": 2, "links": 18}
    assert rep["config_hash"] == scenario_hash(tiny_cfg())
    assert rep["timesync"]["nodes"] == 16
    assert rep["timesync"]["exchanges"] > 0
    assert rep["power"]["grants"] == 16
    assert rep["power"]["total_granted_w"] <= rep["power"]["global_budget_w"]
    dp = rep["dataplane"]
    assert dp["published"] > 0
    for count in dp["delivered"].values():
        assert 0 < count <= dp["published"]
    assert rep["coherent"]["n_transmitters"] == 8
    assert rep["rover"]["visited"] == rep["rover"]["waypoints"] == 4


def test_runs_are_byte_identical(tmp_path):
    first = run_scenario(tiny_cfg(), tmp_path / "a")
    second = run_scenario(tiny_cfg(), tmp_path / "b")
    assert first.out_dir.name == second.out_dir.name
    for name in ARTIFACTS:
        a = (first.out_dir / name).read_bytes()
        b = (second.out_dir / name).read_bytes()
        assert a == b, name


def test_produced_keys_sit_on_their_hash_partition(tmp_path):
    # producers hash each key's constant "<tile>:" prefix once; every record
    # must still land where partition_for puts the whole key
    result = run_scenario(tiny_cfg(), tmp_path)
    rows = [json.loads(line) for line in
            (result.out_dir / "topics.ndjson").read_text().splitlines()]
    assert len(rows) == result.report["dataplane"]["published"]
    for row in rows:
        assert row["key"].startswith(row["producer"] + ":")
        assert row["partition"] == result.broker.partition_for(row["key"])


def test_a_run_keeps_no_exchange_log_and_still_counts_exchanges(tmp_path):
    cfg = tiny_cfg(duration_s=2.0, rover={"enabled": False})
    result = run_scenario(cfg, tmp_path)
    assert result.domain.exchanges is None
    corrections = sum(p.corrections for p in result.domain.ports.values())
    assert result.report["timesync"]["exchanges"] == corrections > 0
    # the tests' harness keeps one record for each correction
    _, domain = run_sync_domain(result.fabric, cfg.timesync, 2.0, seed=cfg.seed)
    assert len(domain.exchanges) == sum(
        p.corrections for p in domain.ports.values()) > 0


def test_rover_stream_is_isolated_from_fabric_outputs(tmp_path):
    base = run_scenario(tiny_cfg(), tmp_path / "a")
    relabeled = run_scenario(tiny_cfg(rover={"stream_label": "rover2"}),
                             tmp_path / "b")
    for name in ["sync_report.csv", "topics.ndjson", "power_ledger.csv",
                 "gains.csv"]:
        same = (base.out_dir / name).read_bytes() == \
            (relabeled.out_dir / name).read_bytes()
        assert same, name
    assert (base.out_dir / "mission_log.csv").read_bytes() != \
        (relabeled.out_dir / "mission_log.csv").read_bytes()


def test_overdraw_silences_producer_after_disconnect(tmp_path):
    cfg = tiny_cfg(power={"overdraw_tile": "t000", "overdraw_at_s": 2.0,
                          "overdraw_w": 20.0})
    result = run_scenario(cfg, tmp_path)
    assert result.report["power"]["disconnects"] >= 1
    assert not result.power.is_online("t000")

    cutoff_ps = int(2.075e12)   # overdraw start plus the 75 ms window
    last_by_producer = {}
    for line in (result.out_dir / "topics.ndjson").read_text().splitlines():
        row = json.loads(line)
        last_by_producer[row["producer"]] = max(
            last_by_producer.get(row["producer"], 0), row["produce_time_ps"])
    assert last_by_producer["t000"] < cutoff_ps
    assert max(last_by_producer.values()) > cutoff_ps


def test_overdraw_past_the_run_is_never_cut(tmp_path):
    # 1e10 s plus the detection window lies past the 64-bit ps range
    cfg = tiny_cfg(duration_s=0.5, rover={"enabled": False},
                   power={"overdraw_tile": "t000", "overdraw_at_s": 1e10})
    assert run_scenario(cfg, tmp_path).report["power"]["disconnects"] == 0


def test_unknown_overdraw_tile_rejected(tmp_path):
    cfg = tiny_cfg(power={"overdraw_tile": "t999"})
    with pytest.raises(ConfigurationError, match="t999"):
        run_scenario(cfg, tmp_path)
