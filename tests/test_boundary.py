"""The scenario boundary: every malformed scenario ends in a one-line
refusal, never in a traceback, a hang or a run with no end, and each case
ends as `scenario.RULES` predicts.

The cases walk the real key tree of `ScenarioConfig`: each leaf key of an
8-tile, 2-switch, 2 s probe scenario set in turn to each of a few boundary
values, and a few keys to a value of their shape, `SHAPED_CASES`.  A case the load type check or a rule refuses must be refused in
one line naming its key; every other case must set up, unless
`BEYOND_RULES` names it as refused by a check across fields, a stage or a
work bound.  Tier-1 sets every case up in-process through
`prepare_scenario` and runs a sample of scenarios with one to three keys
changed through the command line.  The full sweep runs every single-key
case, and each case of `TWO_KEY_CASES` and `SERVO_CASES`, that sets up to
the end, in one process, with an alarm on each:

    PYTHONPATH=src python tests/test_boundary.py
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import reprlib
import signal
import sys
import tempfile
import time
import traceback
import typing
from functools import partial
from operator import attrgetter
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.cli import main
from tilesim.fabric import ConfigurationError
from tilesim.orchestrator import prepare_scenario, run_scenario
from tilesim.scenario import (MAX_CONSUMERS, OVERDRAW_RULES, RULES,
                              ScenarioConfig, load_scenario, scenario_from_dict)

PROBE = {"name": "probe", "seed": 3, "duration_s": 2.0,
         "fabric": {"counts": {"wall_a": 2, "wall_b": 2, "floor": 2,
                               "ceiling": 2}, "switch_count": 2}}
# 1e-200 squares to 0, as a jitter shape once did on its way to a traceback;
# 1.7e308, near the largest float, overflows whatever multiplies it;
# 10**7 and 2**1024 are the integers above 0, which an integer key takes
# (1e300 is a float, refused by its type): the first sizes what set-up
# builds, the second is past the float range, which a float key refuses
VALUES = [0, -1, 1e-200, 1e-13, 1e-9, float("nan"), float("inf"), 1e300, 1.7e308, 10**7,
          2**1024, [1], "x"]


def leaf_keys(cls=ScenarioConfig, prefix=()) -> list[tuple[str, ...]]:
    """The path of every field of the config tree that is not itself a
    config dataclass."""
    hints = typing.get_type_hints(cls)
    keys = []
    for f in dataclasses.fields(cls):
        if f.name.startswith("_"):
            continue
        if dataclasses.is_dataclass(hints[f.name]):
            keys += leaf_keys(hints[f.name], prefix + (f.name,))
        else:
            keys.append(prefix + (f.name,))
    return keys


KEYS = leaf_keys()


def probe_with(changes) -> dict:
    """The probe scenario with each (key path, value) of `changes` set."""
    doc = copy.deepcopy(PROBE)
    for path, value in changes:
        section = doc
        for name in path[:-1]:
            section = section.setdefault(name, {})
        section[path[-1]] = value
    return doc


class _Alarm(Exception):
    pass


@contextlib.contextmanager
def alarm(seconds: int):
    """Raise `_Alarm` in the block once `seconds` of wall time pass."""
    def ring(signum, frame):
        raise _Alarm(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# keys that take a mapping or a list of a given shape, which no value of
# the walk has: validation refuses each of them, naming the key
SHAPED = {"fabric.counts", "fabric.face_dims", "rover.area",
          "rover.obstacles", "timesync.boundary_switches"}

def nested(depth: int) -> list:
    """One number inside `depth` lists, built without recursion."""
    value = 1
    for _ in range(depth):
        value = [value]
    return value


def shared(levels: int) -> list:
    """`levels` lists, each of ten references to the one below, around ten
    numbers: 10 ** levels numbers, as a file's aliases compose."""
    value = [1] * 10
    for _ in range(levels - 1):
        value = [value] * 10
    return value


# 125,001 rectangles, as tuples, which the load takes as they are: against
# the probe's 16 cells, just past the rover's bound on obstacle tests
MANY_OBSTACLES = ((0.1, 0.1, 0.2, 0.2),) * 125_001

# Cases past the walk, each of the shape its key takes.  A floor face of
# 12.5 million panel cells, of which the probe places 2: set-up once made
# every cell before it took the first two, and ran out of memory.  A wall
# 1e308 m long, which overflowed where the face is packed in millimetres.
# Then lists the load refuses, naming the key, as past the bounds on a
# file's structure: 500 and 50,000 deep, which recursed past Python's
# limit where they became tuples, and 6 and 8 levels of ten shared lists,
# which expanded to 10**6 and 10**8 numbers there.
HUGE_WALL = {"wall_a": [1.0e308, 2.4]}
SHAPED_CASES = [(("fabric", "face_dims"), {"floor": [3000, 3000]}),
                (("fabric", "face_dims"), HUGE_WALL),
                (("rover", "obstacles"), MANY_OBSTACLES),
                *((("rover", "area"), nested(depth)) for depth in (500, 50_000)),
                *((("rover", "area"), shared(levels)) for levels in (6, 8))]

ROOM = ["fabric.room.length_m", "fabric.room.width_m", "fabric.room.height_m"]

# The cases every rule passes that set-up refuses all the same, and why.
BEYOND_RULES = [
    (ROOM + ["fabric.prop_ns_per_m", "fabric.slack_m"], (1e300, 1.7e308),
     "a cable's delay lies past the 64-bit time range"),
    (["fabric.tile_jitter_sigma_ns", "fabric.trunk_jitter_sigma_ns",
      "timesync.jitter_scale", "timesync.load_coupling"], (1.7e308,),
     "the largest jitter a draw can make is past the float range"),
    (["timesync.followup_lag_us", "timesync.turnaround_us", "timesync.residence_us"],
     (1e300, 10**7), "an exchange outlasts timesync.sync_interval_s"),
    (["timesync.sync_interval_s"], (1e-9,), "the interval is shorter than one exchange"),
    (["timesync.sample_interval_s"], (1e-9,), "residual samples over their bound"),
    (["dataplane.produce_interval_ms", "dataplane.poll_interval_ms", "rover.tick_s"],
     (1e-9,), "periodic events over their bound"),
    (["duration_s"], (10**7,), "residual samples over their bound"),
    (["rover.max_duration_s"], (10**7,), "periodic events over their bound"),
    (["coherent.trials"], (10**7, 2**1024), "trial-element pairs over their bound"),
    (["rover.resolution_m", "rover.z_resolution_m"], (1e-200, 1e-13, 1e-9),
     "lift stops over their bound"),
    (["rover.resolution_m"], (1e300, 1.7e308, 10**7),
     "no reachable cell in the sampling area"),
    (["rover.beacon_rate_hz", "rover.tick_s"], (1e300, 1.7e308, 10**7),
     "more than one beacon fix per rover.tick_s"),
    (["fabric.cable_model", "power.overdraw_tile"], ("x",),
     "no such cable model, no such powered tile"),
    (["dataplane.consumer_groups", "dataplane.consumers_per_group"], (10**7, 2**1024),
     "consumers (groups times members) over their bound"),
    (["rover.obstacles"], (MANY_OBSTACLES,), "cell-obstacle tests over their bound"),
    (["fabric.face_dims"], (HUGE_WALL,), "a face side past the millimetre grid's range"),
]
# compared by ==, since a shaped value may not hash
_BEYOND = [(key, value) for keys, values, _ in BEYOND_RULES
           for key in keys for value in values]


def predicted(path, value) -> str:
    """How the case ends, from the load type check and `RULES`: "load" or
    "rules" (refused, naming the key), "beyond" (refused all the same, see
    BEYOND_RULES) or "set up"."""
    key = ".".join(path)
    try:
        cfg = scenario_from_dict(probe_with([(path, value)]))
    except ConfigurationError:
        return "load"
    loaded = attrgetter(key)(cfg)
    if key in SHAPED and value in VALUES:
        # no walk value has the key's shape; each of SHAPED_CASES the load
        # takes has it
        return "rules"
    if key in RULES and loaded is not None and RULES[key].problem(key, loaded):
        return "rules"
    return "beyond" if (key, value) in _BEYOND else "set up"


def check_outcome(path, value, refusal: ConfigurationError | None) -> None:
    """Assert that a case set up (`refusal` None) or was refused as
    predicted, in one line."""
    key, expected = ".".join(path), predicted(path, value)
    value = reprlib.repr(value)   # a shaped case may be long or deep
    if refusal is None:
        assert expected == "set up", (value, expected)
        return
    message = str(refusal)
    assert "\n" not in message, (value, message)
    assert expected != "set up", (value, message)
    if expected == "rules":
        assert message.startswith(f"{key} "), (value, message)
    elif expected == "load":
        assert f".{key}: " in message or f".{key} " in message, (value, message)


def test_the_walk_reaches_every_section_and_nested_key():
    assert {path[0] for path in KEYS} == {
        f.name for f in dataclasses.fields(ScenarioConfig)}
    assert ("timesync", "tile_osc", "granularity_ps") in KEYS
    assert ("fabric", "room", "height_m") in KEYS


def leaf_type(path):
    cls = ScenarioConfig
    for name in path[:-1]:
        cls = typing.get_type_hints(cls)[name]
    hint = typing.get_type_hints(cls)[path[-1]]
    kinds = [a for a in typing.get_args(hint) or (hint,) if a is not type(None)]
    return kinds[0] if len(kinds) == 1 else hint


# numeric leaves that RULES leaves out on purpose: OVERDRAW_RULES checks
# them, once power.overdraw_tile names a tile to overdraw
EXEMPT = {"power.overdraw_at_s", "power.overdraw_w"}


def test_every_numeric_leaf_has_a_rule():
    leaves = {".".join(path) for path in KEYS}
    numeric = {".".join(path) for path in KEYS if leaf_type(path) in (int, float)}
    assert numeric - RULES.keys() == EXEMPT == OVERDRAW_RULES.keys()
    assert RULES.keys() <= numeric
    assert SHAPED <= leaves - numeric


def cases(path):
    """The walk's values for the key at `path`, then its shaped cases."""
    return VALUES + [value for key, value in SHAPED_CASES if key == path]


@pytest.mark.parametrize("path", KEYS, ids=".".join)
def test_each_boundary_value_sets_up_or_is_refused_in_one_line(path):
    for value in cases(path):
        try:
            prepare_scenario(scenario_from_dict(probe_with([(path, value)])))
        except ConfigurationError as e:
            check_outcome(path, value, e)
        else:
            check_outcome(path, value, None)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)),
                min_size=1, max_size=3, unique_by=lambda kv: kv[0]))
def test_changed_scenarios_run_or_exit_with_one_line(changes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.yaml"
        path.write_text(yaml.safe_dump(probe_with(changes)))
        err = io.StringIO()
        with alarm(60), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(["run", str(path), "--out", str(Path(tmp) / "runs")])
            except SystemExit as e:
                code = e.code
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


# Two keys that each pass their rule, whose product overflowed a float when
# set-up converted a cable's delay to picoseconds, and ended in a traceback.
LONG_CABLE_DELAYS = [
    {"slack_m": 1e300},
    {"room": {"length_m": 1e300}},
    {"cable_model": "fixed", "cable_fixed_m": 1e300},
]


@pytest.mark.parametrize("fabric", LONG_CABLE_DELAYS, ids=str)
def test_cable_delay_past_the_time_range_exits_1_with_one_line(fabric, tmp_path):
    doc = probe_with([(("fabric", "prop_ns_per_m"), 1e300)])
    for key, value in fabric.items():
        doc["fabric"][key] = value
    path = tmp_path / "probe.yaml"
    path.write_text(yaml.safe_dump(doc))
    runs = tmp_path / "runs"
    for args in (["validate", str(path)], ["run", str(path), "--out", str(runs)]):
        out, err = io.StringIO(), io.StringIO()
        with alarm(60), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(args)
        # `validate` states its problem on stdout, `run` its error on stderr
        said, quiet = (out, err) if args[0] == "validate" else (err, out)
        (line,) = said.getvalue().splitlines()
        assert code == 1 and quiet.getvalue() == "", line
        assert line.split(": ", 1)[1].startswith("fabric.prop_ns_per_m ")
        assert " m cable " in line
    assert not runs.exists()


def test_jitter_past_the_float_range_exits_1_with_one_line(tmp_path):
    # each passes its rule, but the largest jitter a draw can make, 1e300 ns
    # over a normalization of about 1e-13, is past the float range, which
    # ended the run in a traceback at its first draw
    doc = probe_with([(("fabric", "tile_jitter_sigma_ns"), 1e300),
                      (("fabric", "jitter_shape"), 1e-13)])
    path = tmp_path / "probe.yaml"
    path.write_text(yaml.safe_dump(doc))
    runs = tmp_path / "runs"
    for args in (["validate", str(path)], ["run", str(path), "--out", str(runs)]):
        out, err = io.StringIO(), io.StringIO()
        with alarm(60), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(args)
        said = out if args[0] == "validate" else err
        (line,) = said.getvalue().splitlines()
        assert code == 1 and line.endswith("draws delays past the float range"), line
    assert not runs.exists()


# The periodic-event bound counts a sync exchange as its two events and
# each clock's frequency-walk step (one a second a walking clock, up to
# duration_s) as one.  These runs it treats otherwise than when it counted
# 10 events a relayed exchange and no walk steps.
WORK_BOUND = [
    # newly allowed: the default room for 7,000 s is 140 exchanges, 144
    # walk steps, 160 produce events and 40 polls a second plus 72,000
    # mission ticks, 4.4 million in all, where it was 11.3 million.  (Past
    # about 7,142 s its residual samples pass their own bound.)
    ({"duration_s": 7000.0}, None),
    # newly refused: one exchange a port every 100 s over 70,000 s is
    # 196,000 events, but its 144 walking clocks take 10,080,000 steps
    ({"duration_s": 70_000.0, "dataplane": {"enabled": False},
      "rover": {"enabled": False},
      "timesync": {"sync_interval_s": 100.0, "sample_interval_s": 10.0}},
     "duration_s"),
]


@pytest.mark.parametrize("doc,key", WORK_BOUND, ids=["allowed", "refused"])
def test_the_work_bound_counts_exchanges_and_walk_steps(doc, key):
    cfg = scenario_from_dict(doc)
    if key is None:
        prepare_scenario(cfg)
        return
    with pytest.raises(ConfigurationError, match=f"^{key} asks for 10,080,000 of"):
        prepare_scenario(cfg)


# Two dataplane keys that each pass their rule.  A group once kept each
# join's whole assignment, so 100,000 partitions over 500 consumers a group
# ran out of a 3 GB address space after 5 s of set-up; the consumers,
# groups times members, are now bounded as one product.  Each case names
# the key its refusal starts with, or None where it sets up.
TWO_KEY_CASES = [
    ({"partitions": 100_000, "consumers_per_group": 500}, None),
    ({"consumer_groups": MAX_CONSUMERS // 500, "consumers_per_group": 500}, None),
    ({"consumer_groups": 1, "consumers_per_group": MAX_CONSUMERS + 1},
     "dataplane.consumer_groups"),
]


# Timesync keys that each pass their rule.  Gains of 1e300 drive the
# steering to the clamp: at 1.7e308 ppm it put a clock's phase past the
# float range, and the run ended in a traceback.  Just under every bound of
# RULES' phase budget, the clamp's and each oscillator's, a run ends.
_UNDER_THE_PHASE_BOUNDS = {"init_offset_us": 9.9e293, "rw_sigma_ppm_per_sqrt_s": 9.9e277,
                           "freq_error_ppm": 9.9e5}
SERVO_CASES = [
    ({"servo_clamp_ppm": 1.7e308, "servo_kp": 1e300, "servo_ki": 1e300},
     "timesync.servo_clamp_ppm"),
    ({"servo_clamp_ppm": 9.9e285, "servo_kp": 1e300, "servo_ki": 1e300,
      **{osc: _UNDER_THE_PHASE_BOUNDS for osc in ("tile_osc", "switch_osc", "gm_osc")}},
     None),
]


def two_key_doc(keys, section="dataplane") -> dict:
    return probe_with([((section, key), value) for key, value in keys.items()])


def check_two_key(keys, key, refusal: ConfigurationError | None) -> None:
    """Assert that a case of a few keys set up or was refused, in one line
    starting with `key`, as `TWO_KEY_CASES` or `SERVO_CASES` says."""
    if key is None:
        assert refusal is None, (keys, str(refusal))
        return
    message = str(refusal)
    assert "\n" not in message and message.startswith(f"{key} "), (keys, message)


@pytest.mark.parametrize("keys,key", TWO_KEY_CASES, ids=str)
def test_two_dataplane_keys_set_up_in_well_under_a_second(keys, key):
    refusal = None
    t0 = time.perf_counter()
    try:
        prepare_scenario(scenario_from_dict(two_key_doc(keys)))
    except ConfigurationError as e:
        refusal = e
    # each took 0.4 s or less on a 2-core host; 3 s leaves room for a slower one
    assert time.perf_counter() - t0 < 3.0
    check_two_key(keys, key, refusal)


@pytest.mark.parametrize("keys,key", SERVO_CASES, ids=str)
def test_servo_gains_of_1e300_run_or_are_refused_in_one_line(keys, key, tmp_path):
    refusal = None
    try:
        with alarm(60):
            run_scenario(scenario_from_dict(two_key_doc(keys, "timesync")), tmp_path)
    except ConfigurationError as e:
        refusal = e
    check_two_key(keys, key, refusal)


def test_unknown_cable_model_with_no_tiles_exits_1_with_one_line(tmp_path):
    # the model was checked only when the first tile was cabled, so a
    # fabric with no tiles took any model
    doc = probe_with([(("fabric", "counts"), {}), (("fabric", "cable_model"), "x")])
    path = tmp_path / "probe.yaml"
    path.write_text(yaml.safe_dump(doc))
    runs = tmp_path / "runs"
    for args in (["validate", str(path)], ["run", str(path), "--out", str(runs)]):
        out, err = io.StringIO(), io.StringIO()
        with alarm(60), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(args)
        said = out if args[0] == "validate" else err
        (line,) = said.getvalue().splitlines()
        assert code == 1 and line.endswith("fabric: unknown cable model 'x'"), line
    assert not runs.exists()


def test_a_polls_partition_visits_count_in_the_work_bound(tmp_path):
    # a poll walks each of its member's partitions, empty ones too: the
    # default run's 11,993 polls of 8 partitions over 4 members a group add
    # 2 visits each, the first counted with the poll.  100,000 partitions
    # for 300 s are 300 million visits, which the bound once let run
    cfg = load_scenario(Path(__file__).resolve().parents[1] / "scenarios/default.yaml")
    events = prepare_scenario(cfg).stages["dataplane"].events
    assert events["dataplane.poll_interval_ms"] == 2 * 11_993
    assert events["dataplane.partitions"] == 11_993
    path = tmp_path / "partitions.yaml"
    path.write_text(yaml.safe_dump({"dataplane": {"partitions": 100_000}}))
    out = io.StringIO()
    with alarm(60), contextlib.redirect_stdout(out):
        assert main(["validate", str(path)]) == 1
    (line,) = out.getvalue().splitlines()
    assert line.startswith("problem: dataplane.partitions asks for "), line


def sweep(seconds: int = 10) -> int:
    """Run every single-key case and each of `TWO_KEY_CASES` and
    `SERVO_CASES` through `run_scenario`, each under an alarm; print each
    one that ends in a traceback, a timeout or otherwise than predicted,
    and return how many did."""
    checks = [(f"{'.'.join(path)}: {reprlib.repr(value)}", probe_with([(path, value)]),
               partial(check_outcome, path, value))
              for path in KEYS for value in cases(path)]
    checks += [(str(keys), two_key_doc(keys), partial(check_two_key, keys, key))
               for keys, key in TWO_KEY_CASES]
    checks += [(str(keys), two_key_doc(keys, "timesync"), partial(check_two_key, keys, key))
               for keys, key in SERVO_CASES]
    bad = ran = 0
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for case, doc, check in checks:
            refusal = None
            try:
                with alarm(seconds):
                    run_scenario(scenario_from_dict(doc), tmp)
                ran += 1
            except ConfigurationError as e:
                refusal = e
            except _Alarm:
                bad += 1
                print(f"{case}: no end after {seconds} s")
                continue
            except Exception:
                bad += 1
                print(f"{case}: traceback")
                traceback.print_exc(file=sys.stdout)
                continue
            try:
                check(refusal)
            except AssertionError as e:
                bad += 1
                print(f"{case}: not as predicted: {e}")
    print(f"{len(checks)} cases, {ran} ran to the end, {bad} failed, "
          f"{time.perf_counter() - t0:.0f} s")
    return bad


if __name__ == "__main__":
    sys.exit(1 if sweep() else 0)
