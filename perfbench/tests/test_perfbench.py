"""The benchmark's own tests.

    python -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys

import pytest
import yaml

from perfbench import bench, checks, layers, workloads
from tilesim.core import RngRegistry
from tilesim.fabric import Room
from tilesim.orchestrator import run_scenario
from tilesim.rover import (Battery, MissionConfig, MissionRunner,
                           default_beacons, plan_sampling)
from tilesim.scenario import scenario_from_dict, validate_scenario

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def short(name: str, seed: int = 3) -> dict:
    """A shortened copy of a workload: same stages, a few seconds of work."""
    doc = workloads.generate(name, seed)
    if name == "rover_survey":
        doc["rover"]["area"] = [0.0, 0.0, 2.4, 1.6]
        return doc
    doc["duration_s"] = 8.0
    doc["timesync"]["sample_interval_s"] = 0.1
    doc["coherent"]["trials"] = 20
    if doc["rover"].get("enabled", True):
        doc["rover"]["area"] = [0.6, 0.6, 1.8, 1.8]
    return doc


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(name):
    assert workloads.generate(name, 11) == workloads.generate(name, 11)
    assert workloads.generate(name, 11)["seed"] == 11
    assert workloads.generate(name, 11) != workloads.generate(name, 12)


def test_room_default_only_replaces_the_seed():
    shipped = yaml.safe_load(workloads.DEFAULT_SCENARIO.read_text())
    generated = workloads.generate("room_default", 5)
    assert generated.pop("seed") == 5
    shipped.pop("seed")
    assert generated == shipped


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generated_scenarios_validate(name):
    for seed in range(20):
        assert validate_scenario(scenario_from_dict(
            workloads.generate(name, seed))) == []


def test_rover_survey_seeds_keep_the_waypoint_count():
    counts = set()
    for seed in range(20):
        r = workloads.generate("rover_survey", seed)["rover"]
        plan = plan_sampling(Room(), r["resolution_m"], tuple(
            tuple(o) for o in r["obstacles"]), r["z_resolution_m"])
        counts.add(len(plan.waypoints))
    assert counts == {141}


@pytest.mark.parametrize("seed", range(12))
def test_rover_survey_finishes_without_timeout(seed):
    # the platform moves on its true pose and the battery never depends on
    # the tracker, so a mission without ranging visits the same waypoints
    # in the same simulated time as the benchmarked one, at a tenth of the cost
    r = workloads.generate("rover_survey", seed)["rover"]
    room = Room()
    obstacles = tuple(tuple(o) for o in r["obstacles"])
    plan = plan_sampling(room, r["resolution_m"], obstacles, r["z_resolution_m"])
    runner = MissionRunner(
        room, plan, default_beacons(room, rate_hz=0.0),
        Battery(r["battery_capacity_wh"]),
        MissionConfig(tick_s=r["tick_s"]),
        RngRegistry(seed).stream("rover"), obstacles=obstacles)
    summary = runner.run(r["max_duration_s"])
    assert summary["visited"] == summary["waypoints"]
    assert summary["min_soc"] > 0
    assert summary["duration_s"] < r["max_duration_s"] / 2
    assert summary["charge_events"] >= 3


def test_metric_names_and_benchmark_file_agree_with_the_code():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == bench.END_TO_END
    assert per_layer == {n: u for n, (u, _) in layers.PER_LAYER.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.GENERATORS)
    for name in [*e2e, *per_layer, *workloads.GENERATORS]:
        assert NAME.fullmatch(name), name
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        x["bound"] for x in BENCHMARK["end_to_end"]) for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_every_end_to_end_metric_is_defined_on_every_workload(name, tmp_path):
    ops, metrics = bench.measure(short(name), 0.0, 0, tmp_path / "trace.json")
    assert [op.problems for op in ops if not op.ok] == []
    assert set(metrics) == set(bench.END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics


@pytest.fixture(scope="module")
def room_run(tmp_path_factory):
    doc = short("room_default")
    out = run_scenario(scenario_from_dict(doc),
                       tmp_path_factory.mktemp("room")).out_dir
    return doc, out


def _corrupted(tmp_path, out_dir, name, edit):
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    path = copy / name
    path.write_text(edit(path.read_text().splitlines(keepends=True)))
    return copy


def test_checker_accepts_a_correct_run(room_run):
    doc, out_dir = room_run
    assert checks.check_artifacts(out_dir, doc) == []


def test_checker_rejects_a_skipped_offset(room_run, tmp_path):
    doc, out_dir = room_run
    copy = _corrupted(tmp_path, out_dir, "topics.ndjson",
                      lambda lines: "".join(lines[:5] + lines[6:]))
    assert any("offset" in p for p in checks.check_artifacts(copy, doc))


def test_checker_rejects_a_truncated_mission_log(room_run, tmp_path):
    doc, out_dir = room_run
    copy = _corrupted(tmp_path, out_dir, "mission_log.csv",
                      lambda lines: "".join(lines[:-3]))
    assert any("mission_log" in p for p in checks.check_artifacts(copy, doc))


def test_checker_rejects_an_overdrawn_budget(room_run, tmp_path):
    doc, out_dir = room_run

    def overdraw(lines):
        report = json.loads("".join(lines))
        report["power"]["total_granted_w"] = report["power"]["global_budget_w"] + 1
        return json.dumps(report)

    copy = _corrupted(tmp_path, out_dir, "report.json", overdraw)
    assert any("budget" in p for p in checks.check_artifacts(copy, doc))


def test_digest_covers_every_artifact(room_run, tmp_path):
    _, out_dir = room_run
    copy = _corrupted(tmp_path, out_dir, "gains.csv",
                      lambda lines: "".join(lines[:-1]) + lines[-1].replace("1", "2", 1))
    assert checks.digest(copy) != checks.digest(out_dir)


def test_digest_mismatch_between_repeats_fails_the_later_one():
    ops = [bench.Op("run") for _ in range(3)]
    for op, d in zip(ops, ["a" * 64, "a" * 64, "b" * 64]):
        op.digest = d
    bench._flag_digest_mismatch(ops)
    assert [op.ok for op in ops] == [True, True, False]


def test_traced_and_untraced_digests_are_equal(tmp_path):
    ops, metrics = bench.measure(short("room_default"), 0.0, 1,
                                 tmp_path / "trace.json")
    assert [op.mode for op in ops] == ["run", "trace"]
    assert all(op.ok for op in ops), [op.problems for op in ops]
    assert ops[0].digest == ops[1].digest
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["core.events"] > 0 and metrics["timesync.clock_reads"] > 0
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert {"orchestrator.run_scenario", "core.run_until"} <= {s[0] for s in spans}


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "room_default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
