"""Scenario loading, validation, the command line, and whole-run artifacts."""

import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from sync_recorder import RecordingDomain
from test_boundary import alarm

import tilesim
from tilesim.cli import main
from tilesim.fabric import ConfigurationError
from tilesim.coherent import MAX_TRIAL_ELEMENTS
from tilesim.orchestrator import STAGES, prepare_scenario, run_scenario
from tilesim.scenario import (_YAML_LOADER, MAX_NESTING, MAX_NODES, ScenarioConfig,
                              load_scenario, resolved_dict, resolved_json,
                              scenario_from_dict, scenario_hash, validate_scenario)

# 8 s: at 6 s, most seeds leave a transmitting tile unconverged (22 of
# seeds 1-30), and a run whose array has no converged tile writes no gains.csv
TINY = {
    "name": "tiny",
    "seed": 11,
    "duration_s": 8.0,
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
duration_s: 8.0
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


def test_unknown_nested_key_reports_dotted_path(tmp_path, capsys):
    with pytest.raises(ConfigurationError) as exc:
        scenario_from_dict({"power": {"basemw": 1}})
    msg = str(exc.value)
    assert "scenario.power" in msg
    assert "base_mw" in msg
    # the array's weights cancel any target, so a file that still names
    # a target or a transmit power is refused, with the keys there are
    for key in ("target", "tx_power_dbm"):
        path = tmp_path / f"{key}.yaml"
        path.write_text(f"coherent:\n  {key}: 1.0\n")
        assert usage_error_line(["validate", str(path)], capsys) == (
            f"error: {path}.coherent: unknown key {key!r} (valid: carrier_hz, "
            f"enabled, phase_noise_sigma_rad, stream_label, tile_count, trials)")


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
    cfg = tiny_cfg(duration_s=-1.0, coherent={"carrier_hz": 1e3},
                   rover={"area": [0.0, 0.0, 99.0, 1.0]})
    problems = "; ".join(validate_scenario(cfg))
    assert "duration_s" in problems
    assert "carrier_hz" in problems
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
    """`tilesim run` on the probe scenario through `cli.main` in this
    process, under an alarm so a regression fails instead of hanging; an
    exception other than SystemExit fails the test with its traceback."""
    args = ["run", str(probe_scenario(section, key, value, tmp_path)),
            "--out", str(tmp_path / "runs")]
    out, err = io.StringIO(), io.StringIO()
    with alarm(60), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as e:
            code = e.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


# The probes run `cli.main` in this process.  These run `tilesim` in
# children under a timeout, one for each exit code and one that hung before
# its guard, for what only a child shows: the exit status the shell sees,
# stderr as written, and a hang inside a C call, which no alarm interrupts.
CHILD_PROBES = [("rover", "battery_capacity_wh", 0.001, 0),
                ("timesync", "sync_interval_s", 5e-4, 1),
                (None, "seed", "abc", 2),
                ("timesync", "sync_interval_s", 2e-6, 1)]


def test_child_processes_exit_with_their_code_and_one_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(tilesim.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    children = []
    for i, (section, key, value, code) in enumerate(CHILD_PROBES):
        work = tmp_path / str(i)
        work.mkdir()
        path = probe_scenario(section, key, value, work)
        children.append((key, code, subprocess.Popen(
            [sys.executable, "-m", "tilesim.cli", "run", str(path),
             "--out", str(work / "runs")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)))
    try:
        for key, code, child in children:
            out, err = child.communicate(timeout=60)
            assert child.returncode == code, (key, err)
            if code:
                (line,) = err.splitlines()
                assert key in line and "Traceback" not in line
            else:
                assert err == "" and "run complete" in out
    finally:
        for *_, child in children:
            child.kill()
            child.wait()


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
# ran on with no end in sight.  A bandwidth past the float range ended in
# an OverflowError where the load coupling divided by it.  A value of the
# wrong type fails to load (exit 2); a malformed one fails validation
# (exit 1).
BAD_VALUES = [(None, "seed", "abc", 2), ("coherent", "trials", 1.5, 2),
              ("dataplane", "partitions", 2.5, 2),
              ("power", "midspan_count", 1.5, 2), (None, "duration_s", True, 2),
              pytest.param("timesync", "start_s", 10**400, 2,
                           id="timesync-start_s-401_digits"),
              (None, "duration_s", float("nan"), 1),
              (None, "duration_s", float("inf"), 1),
              (None, "duration_s", 2.0e7, 1),
              pytest.param("fabric", "bandwidth_bps", 2**1024, 1,
                           id="fabric-bandwidth_bps-2**1024"),
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


def test_oversized_coherent_trials_exit_1_and_write_nothing(tmp_path, capsys):
    # 10^12 trials passed `validate`, then `run` went through the whole loop
    # and died allocating the gains, leaving its directory behind
    path = str(probe_scenario("coherent", "trials", 10**12, tmp_path))
    out = tmp_path / "runs"
    with alarm(60):
        assert main(["validate", path]) == 1
        assert main(["run", path, "--out", str(out)]) == 1
    std = capsys.readouterr()
    for stream, prefix in ((std.out, "problem: "), (std.err, "error: ")):
        (line,) = stream.splitlines()
        assert line.startswith(prefix + "coherent.trials 1,000,000,000,000 over ")
        assert "trial-element pairs" in line
    assert not out.exists()


def test_coherent_work_bound_counts_the_sdr_tiles_up_to_tile_count(tmp_path):
    cfg = load_scenario(probe_scenario(None, "seed", 3, tmp_path))
    tiles = len(prepare_scenario(cfg).fabric.tiles)
    for tile_count, n in [(None, tiles), (1, 1), (tiles + 5, tiles)]:
        for trials, refused in [(MAX_TRIAL_ELEMENTS // n, False),
                                (MAX_TRIAL_ELEMENTS // n + 1, True)]:
            case = dataclasses.replace(cfg, coherent=dataclasses.replace(
                cfg.coherent, trials=trials, tile_count=tile_count))
            if refused:
                with pytest.raises(ConfigurationError,
                                   match=f"over {n} transmitters"):
                    prepare_scenario(case)
            else:
                prepare_scenario(case)


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
    if key == "sync_interval_s":
        # refused before its events are counted: no exchange could close
        assert lines[0].startswith(
            "error: timesync.sync_interval_s must be longer than one exchange")
    else:
        assert lines[0].startswith(f"error: {section}.{key} asks for ")
        assert "periodic events" in lines[0]


# Each of these ended `validate`, `run` or both in a traceback: a period or
# room size that overflows once in picoseconds or millimetres, a jitter
# shape or ranging error whose square overflows, a jitter shape whose
# square underflows to 0, and boundary switches given as one number.
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
    ("fabric", "jitter_shape", 1e-200, 1),
    ("rover", "beacon_sigma_m", 1e300, 1),
    *[("timesync", "boundary_switches", value, 1)
      for value in (0, -1, 1e-13, 1e-9, float("nan"), float("inf"), 1e300)]]


# An exchange spans about 0.6 ms on the probe: 100 us follow-up lag, 500 us
# turnaround and the hops.  At 2e-6 s each exchange was dropped by the next
# epoch and `run` never ended; at 5e-4 s it exited 0 with no exchange and no
# disciplined clock.
SHORT_SYNC_INTERVALS = [("timesync", "sync_interval_s", 2e-6, 1),
                        ("timesync", "sync_interval_s", 5e-4, 1)]


@pytest.mark.parametrize("section,key,value,code",
                         SETUP_PROBES + OVERFLOWING_VALUES + SHORT_SYNC_INTERVALS
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
    # a face is packed in integer millimetres: 1e308 m overflowed there
    ({"fabric": {"face_dims": {"wall_a": [1.0e308, 2.4]}}}, "fabric.face_dims"),
    ({"dataplane": {"record_bytes": 10**281}}, "dataplane.record_bytes"),
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
    ({"power": {"peripheral_mw": 2**1024}}, "power.peripheral_mw"),
    # a step past 1e300 W overflowed its integer milliwatts in a traceback
    ({"power": {"overdraw_tile": "t000", "overdraw_w": 1.7e308}},
     "power.overdraw_w")])
def test_validate_names_the_malformed_field(sections, field):
    problems = validate_scenario(tiny_cfg(**sections))
    assert [p.split()[0] for p in problems] == [field]


def test_duration_range_and_disabled_sections_validate():
    assert validate_scenario(tiny_cfg(duration_s=1.8e7)) == []
    # one beacon fix per tick is the most the tracker takes
    for rate, tick in [(10.0, 0.1), (4.0, 0.25), (0.0, 0.1)]:
        assert validate_scenario(tiny_cfg(rover={"beacon_rate_hz": rate,
                                                 "tick_s": tick})) == []
    assert validate_scenario(tiny_cfg(rover={"enabled": False, "area": [1]})) == []


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
    path.write_text("rover:\n  area: [0.0, 0.0, 99.0, 1.0]\n")
    assert main(["validate", str(path)]) == 1
    assert "problem:" in capsys.readouterr().out


def test_cli_missing_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(tmp_path / "nope.yaml")])
    assert exc.value.code == 2
    assert "no such file" in capsys.readouterr().err


def usage_error_line(args, capsys) -> str:
    """The one stderr line of a command that exits 2, and nothing on stdout."""
    try:
        code = main(args)
    except SystemExit as e:
        code = e.code
    std = capsys.readouterr()
    (line,) = std.err.splitlines()
    assert code == 2 and std.out == "", line
    assert line.startswith("error: "), line
    return line


def test_cli_unreadable_scenarios_exit_2_with_one_line(tmp_path, capsys):
    # a directory ended in IsADirectoryError, a file that is not UTF-8 in
    # UnicodeDecodeError
    latin = tmp_path / "latin.yaml"
    latin.write_bytes("name: café\n".encode("latin-1"))
    for path in (tmp_path, latin):
        assert str(path) in usage_error_line(["validate", str(path)], capsys)
        usage_error_line(["run", str(path), "--out", str(tmp_path / "runs")], capsys)
    assert not (tmp_path / "runs").exists()


def test_cli_malformed_reports_exit_2_with_one_line(tmp_path, capsys):
    # a report that is no JSON ended in JSONDecodeError; one holding a list,
    # asked for a metric, in AttributeError
    run = tmp_path / "run"
    run.mkdir()
    for text, args in (("{", []), ("[1, 2]", ["--metric", "a"]), ("[1, 2]", [])):
        (run / "report.json").write_text(text)
        usage_error_line(["report", str(run), *args], capsys)


def test_cli_run_into_a_file_exits_2_with_one_line(tiny_yaml, tmp_path, capsys):
    # an output root that is a file ended in NotADirectoryError
    out = tmp_path / "runs"
    out.write_text("not a directory\n")
    for root in (out, out / "below"):
        assert str(out) in usage_error_line(["run", tiny_yaml, "--out", str(root)], capsys)
    assert out.read_text() == "not a directory\n"


def test_cli_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1,\n")
    assert "line 2, column 1" in usage_error_line(["validate", str(path)], capsys)


# --- hostile YAML structure --------------------------------------------------
# A file nested too deep, or a few hundred bytes whose aliases expand past
# the node bound, ends in one line before it is composed: composing 50,000
# levels overflowed the C stack, and under a disabled section, where no
# shape check applies, 6 levels of ten aliases took 5 s and 216 MB.


def nested_yaml(depth: int) -> str:
    """rover.area as `depth` nested flow lists around one number."""
    return f"rover:\n  area: {'[' * depth}1{']' * depth}\n"


def alias_yaml(levels: int) -> str:
    """A disabled rover.area of `levels` anchored lists, each of ten
    aliases of the one before: 10 ** levels numbers in all."""
    lines = ["rover:", "  enabled: false", "  area:",
             "    - &a0 [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]"]
    lines += [f"    - &a{k} [{', '.join([f'*a{k - 1}'] * 10)}]" for k in range(1, levels)]
    return "\n".join(lines) + "\n"


def int_limit_error(digits: int) -> str:
    """What Python says of an integer literal of `digits` digits, past its
    limit on converting strings to ints."""
    with pytest.raises(ValueError) as e:
        int("9" * digits)
    return str(e.value)


HOSTILE_YAML = {
    "nested_500": (nested_yaml(500), f"nested deeper than {MAX_NESTING} collections"),
    **{f"aliases_{n}": (alias_yaml(n), f"more than {MAX_NODES:,} nodes, each alias "
                                       "counted as its anchor") for n in (6, 8)},
    "alias_in_its_anchor": ("rover:\n  enabled: false\n  area: &a [*a]\n",
                            "alias *a lies inside its own anchor"),
    # past Python's limit on converting strings to ints, which every
    # integer key meets in the parser
    "integer_5000_digits": (f"seed: {'9' * 5000}\n", int_limit_error(5000)),
    "date_in_month_13": ("name: 2001-13-14\n", "month must be in 1..12"),
}


@pytest.mark.parametrize("name", HOSTILE_YAML)
def test_hostile_yaml_structure_exits_2_with_one_line(name, tmp_path, capsys):
    text, reason = HOSTILE_YAML[name]
    path = tmp_path / f"{name}.yaml"
    path.write_text(text)
    with alarm(10):
        assert usage_error_line(["validate", str(path)], capsys) == f"error: {path}: {reason}"


def test_yaml_nested_50000_deep_exits_2_in_a_child(tmp_path):
    # in a child, so that a composer overflowing its C stack fails this test
    # and not the session; under a 4 GB address space, as CI runs it
    path = tmp_path / "deep.yaml"
    path.write_text(nested_yaml(50_000))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(tilesim.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "tilesim.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (4_000_000_000,) * 2))
    assert (child.returncode, child.stdout) == (2, ""), child.stderr
    (line,) = child.stderr.splitlines()
    assert line == f"error: {path}: nested deeper than {MAX_NESTING} collections"


def test_yaml_under_the_structure_bounds_loads(tmp_path):
    # anchors reused under the node bound expand as written out in full
    path = tmp_path / "anchors.yaml"
    path.write_text("rover:\n  obstacles:\n    - &r [1.0, 1.0, 1.5, 1.5]\n"
                    "    - *r\n    - *r\n  area: &t [0.6, 0.6, 3.0, 3.0]\n"
                    "  enabled: true\n")
    cfg = load_scenario(path)
    assert cfg.rover.obstacles == ((1.0, 1.0, 1.5, 1.5),) * 3
    assert scenario_hash(cfg) == scenario_hash(scenario_from_dict(
        {"rover": {"obstacles": [[1.0, 1.0, 1.5, 1.5]] * 3,
                   "area": [0.6, 0.6, 3.0, 3.0]}}))
    # the document, rover and the area's lists: MAX_NESTING collections
    # load (the shape check refuses them later), and one more does not
    path.write_text(nested_yaml(MAX_NESTING - 2))
    area = load_scenario(path).rover.area
    for _ in range(MAX_NESTING - 2):
        (area,) = area
    assert area == 1
    path.write_text(nested_yaml(MAX_NESTING - 1))
    with pytest.raises(ConfigurationError, match=f"nested deeper than {MAX_NESTING} "):
        load_scenario(path)
    # 7 nodes besides the list's numbers: the document, rover, its
    # enabled and area keys, false, and the list
    for extra, refused in ((0, False), (1, True)):
        path.write_text("rover: {enabled: false, area: [%s]}\n"
                        % ", ".join(["1"] * (MAX_NODES - 7 + extra)))
        if refused:
            with pytest.raises(ConfigurationError, match=f"more than {MAX_NODES:,} nodes"):
                load_scenario(path)
        else:
            assert len(load_scenario(path).rover.area) == MAX_NODES - 7


def test_python_data_is_held_to_the_structure_bounds():
    # a list built in Python, 50,000 deep or of shared lists expanding to
    # 10**8 numbers, is refused where lists become tuples, naming its key
    deep = 1
    for _ in range(50_000):
        deep = [deep]
    shared = [1] * 10
    for _ in range(7):
        shared = [shared] * 10
    for value, reason in ((deep, f"nested deeper than {MAX_NESTING} lists"),
                          (shared, f"more than {MAX_NODES:,} values")):
        with pytest.raises(ConfigurationError) as e:
            scenario_from_dict({"rover": {"enabled": False, "area": value}})
        assert str(e.value) == f"scenario.rover.area: {reason}"


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


def test_a_run_counts_each_exchange_it_closes_and_keeps_none(tmp_path, monkeypatch):
    cfg = tiny_cfg(duration_s=2.0, rover={"enabled": False})
    assert not hasattr(prepare_scenario(cfg).domain, "exchanges")
    plain = run_scenario(cfg, tmp_path / "plain")
    # the recorder closes each exchange as a run does, then reads it again
    monkeypatch.setattr("tilesim.orchestrator.SyncDomain", RecordingDomain)
    recorded = run_scenario(cfg, tmp_path / "recorded")
    assert isinstance(recorded.domain, RecordingDomain)
    records = recorded.domain.records
    assert recorded.report["timesync"]["exchanges"] == len(records) > 0
    for name in ("sync_report.csv", "report.json"):
        assert (recorded.out_dir / name).read_bytes() == (plain.out_dir / name).read_bytes()


def test_every_section_with_a_switch_is_a_stage():
    # a new section that can be enabled must be set up and finished, not
    # skipped silently
    cfg = ScenarioConfig()
    switched = [f.name for f in dataclasses.fields(cfg)
                if hasattr(getattr(cfg, f.name), "enabled")]
    assert sorted(switched) == sorted(STAGES)


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
    assert not result.power.devices["t000"].online

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
