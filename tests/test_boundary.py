"""The scenario boundary: every malformed scenario ends in a one-line
refusal, never in a traceback, a hang or a run with no end.

The cases walk the real key tree of `ScenarioConfig`: each leaf key of an
8-tile, 2-switch, 2 s probe scenario set in turn to each of a few boundary
values.  Tier-1 sets every case up in-process through `prepare_scenario`
and runs a sample of scenarios with one to three keys changed through the
command line.  The full sweep runs every single-key case that sets up to
the end, in one process, with an alarm on each:

    PYTHONPATH=src python tests/test_boundary.py
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import signal
import sys
import tempfile
import time
import traceback
import typing
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.cli import main
from tilesim.fabric import ConfigurationError
from tilesim.orchestrator import prepare_scenario, run_scenario
from tilesim.scenario import ScenarioConfig, scenario_from_dict

PROBE = {"name": "probe", "seed": 3, "duration_s": 2.0,
         "fabric": {"counts": {"wall_a": 2, "wall_b": 2, "floor": 2,
                               "ceiling": 2}, "switch_count": 2}}
VALUES = [0, -1, 1e-13, 1e-9, float("nan"), float("inf"), 1e300, [1], "x"]


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


def test_the_walk_reaches_every_section_and_nested_key():
    assert {path[0] for path in KEYS} == {
        f.name for f in dataclasses.fields(ScenarioConfig)}
    assert ("timesync", "tile_osc", "granularity_ps") in KEYS
    assert ("fabric", "room", "height_m") in KEYS


@pytest.mark.parametrize("path", KEYS, ids=".".join)
def test_each_boundary_value_sets_up_or_is_refused_in_one_line(path):
    for value in VALUES:
        try:
            prepare_scenario(scenario_from_dict(probe_with([(path, value)])))
        except ConfigurationError as e:
            assert "\n" not in str(e), (value, str(e))


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


def sweep(seconds: int = 10) -> int:
    """Run every single-key case through `run_scenario`, each under an
    alarm; print each one that ends in a traceback, a timeout or a
    multi-line refusal, and return how many did."""
    bad = ran = 0
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for path in KEYS:
            for value in VALUES:
                case = f"{'.'.join(path)}: {value!r}"
                try:
                    with alarm(seconds):
                        run_scenario(scenario_from_dict(probe_with([(path, value)])),
                                     tmp)
                    ran += 1
                except ConfigurationError as e:
                    if "\n" in str(e):
                        bad += 1
                        print(f"{case}: multi-line refusal: {e!r}")
                except _Alarm:
                    bad += 1
                    print(f"{case}: no end after {seconds} s")
                except Exception:
                    bad += 1
                    print(f"{case}: traceback")
                    traceback.print_exc(file=sys.stdout)
    print(f"{len(KEYS) * len(VALUES)} cases, {ran} ran to the end, {bad} failed, "
          f"{time.perf_counter() - t0:.0f} s")
    return bad


if __name__ == "__main__":
    sys.exit(1 if sweep() else 0)
