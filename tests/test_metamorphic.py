"""Metamorphic relations of a run: changes that must leave other outputs
byte-identical, checked on small random scenarios.

No exact oracle says what a run's residuals or log should be, but the
design promises how runs relate (T. Y. Chen et al., "Metamorphic Testing:
A Review of Challenges and Opportunities", ACM Computing Surveys 51(1),
2018):

- R1: turning the event trace on or off leaves every other artifact
  byte-identical.
- R2: turning off a stage nothing else reads (the rover, coherent) leaves
  every other artifact byte-identical.
- R3: with `timesync.load_coupling: 0`, turning the dataplane off leaves
  `sync_report.csv` and `gains.csv` byte-identical.
- R4: multiplying `timesync.sample_interval_s` by k leaves every row the
  two runs share equal: each row of the coarser run is a row of the finer.
- R5: a shorter run's sync rows are, node by node, a prefix of a longer
  run's, and its `power_ledger.csv` lines a prefix of the longer run's.
- R6: renaming one stage's `stream_label` moves only that stage's
  artifacts, and those of the stages that read it: timesync's moves
  `sync_report.csv` and `gains.csv`, coherent's `gains.csv` and the
  rover's `mission_log.csv`.
- R7: moving `coherent.target` anywhere in the room and setting
  `coherent.tx_power_dbm` anywhere under its cap moves no artifact: the
  array's conjugate weights cancel the geometry for any target.

`report.json` and `resolved.json` carry the configuration and its hash, so
a relation compares `report.json` without `config_hash` and without the
section of the stage it turns off, and skips `resolved.json`.

Each scenario is drawn leaf by leaf: every numeric leaf in `SMALL` takes a
value inside its `scenario.RULES` rule, in a range that keeps a run under
about a tenth of a second (at most 16 tiles and 2 s).  A scenario may also
cut t000's power inside the run, so every relation covers a mid-run cut.

The example count comes from the hypothesis profile (`tests/conftest.py`):
a few for Tier-1, more under `--hypothesis-profile=sweep`.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.coherent import MAX_TX_POWER_DBM
from tilesim.orchestrator import run_scenario
from tilesim.scenario import RULES, scenario_from_dict, validate_scenario

# every leaf a scenario draws, by its RULES key: a closed range inside the
# rule, of ints or of floats
SMALL = {
    "seed": (0, 2**32),
    "duration_s": (0.6, 2.0),
    "fabric.room.length_m": (3.0, 10.0),
    "fabric.room.width_m": (3.0, 6.0),
    "fabric.room.height_m": (2.0, 4.0),
    "fabric.switch_count": (1, 3),
    "fabric.prop_ns_per_m": (0.0, 10.0),
    "fabric.slack_m": (0.0, 5.0),
    "fabric.tile_jitter_sigma_ns": (0.0, 200.0),
    "fabric.trunk_jitter_sigma_ns": (0.0, 50.0),
    "fabric.jitter_shape": (0.05, 2.0),
    "fabric.bandwidth_bps": (10**7, 10**10),
    "timesync.start_s": (0.0, 0.3),
    "timesync.sync_interval_s": (0.02, 0.3),
    "timesync.stagger_ms": (0.0, 5.0),
    "timesync.followup_lag_us": (0.0, 200.0),
    "timesync.turnaround_us": (0.0, 1000.0),
    "timesync.residence_us": (0.0, 10.0),
    "timesync.tile_osc.init_offset_us": (0.0, 20.0),
    "timesync.tile_osc.freq_error_ppm": (0.0, 20.0),
    "timesync.tile_osc.rw_sigma_ppm_per_sqrt_s": (0.0, 0.2),
    "timesync.tile_osc.granularity_ps": (1, 16_000),
    "timesync.switch_osc.freq_error_ppm": (0.0, 20.0),
    "timesync.switch_osc.rw_sigma_ppm_per_sqrt_s": (0.0, 0.2),
    "timesync.servo_kp": (0.0, 1.0),
    "timesync.servo_ki": (0.0, 0.5),
    "timesync.jitter_scale": (0.0, 2.0),
    "timesync.load_coupling": (0.0, 4.0),
    "timesync.sample_interval_s": (0.01, 0.2),
    "timesync.convergence_threshold_us": (0.5, 5.0),
    "timesync.convergence_samples": (1, 10),
    "power.global_budget_w": (50.0, 500.0),
    "power.processing_mw": (0, 5000),
    "dataplane.partitions": (1, 8),
    "dataplane.retention_records": (1, 2000),
    "dataplane.producer_tiles": (0, 16),
    "dataplane.record_bytes": (0, 65536),
    "dataplane.consumer_groups": (0, 3),
    "dataplane.consumers_per_group": (1, 3),
    "dataplane.produce_interval_ms": (5.0, 100.0),
    "dataplane.poll_interval_ms": (10.0, 200.0),
    "dataplane.load_window_ms": (1.0, 200.0),
    "coherent.trials": (1, 50),
    "coherent.phase_noise_sigma_rad": (0.0, 1.0),
    "rover.beacon_sigma_m": (0.0, 0.1),
    "rover.outlier_prob": (0.0, 0.2),
    "rover.tick_s": (0.05, 0.2),
    "rover.max_duration_s": (1.0, 30.0),
}

# fixed so the drawn room always holds them and a run stays small
BASE = {
    "name": "metamorphic",
    "fabric": {"counts": {"wall_a": 4, "wall_b": 4, "floor": 4, "ceiling": 4}},
    "coherent": {"target": [1.0, 1.0, 1.0], "tile_count": None},
    "rover": {"area": [0.6, 0.6, 1.8, 1.8], "resolution_m": 0.6,
              "z_resolution_m": 0.6, "beacon_rate_hz": 5.0},
}


def _set(doc: dict, key: str, value) -> None:
    *path, leaf = key.split(".")
    for name in path:
        doc = doc.setdefault(name, {})
    doc[leaf] = value


@st.composite
def scenarios(draw) -> dict:
    doc = copy.deepcopy(BASE)
    for key, (lo, hi) in SMALL.items():
        _set(doc, key, draw(st.integers(lo, hi) if isinstance(lo, int)
                            else st.floats(lo, hi)))
    doc["trace_events"] = draw(st.booleans())
    doc["timesync"]["boundary_switches"] = ["sw0"] if draw(st.booleans()) else []
    # t000 is allocated first, so it is granted unless the budget grants
    # no tile at all (a midspan under one class-3 grant, 15.4 W); when
    # drawn, its overdraw cut (75 ms after the onset) lands inside the run
    onset = draw(st.none() | st.floats(0.0, 0.8))
    if onset is not None:
        doc["power"].update(overdraw_tile="t000", overdraw_w=20.0,
                            overdraw_at_s=doc["duration_s"] * onset)
    return doc


def test_every_drawn_leaf_is_inside_its_rule():
    # each rule accepts an interval, so a range whose ends pass is inside it
    for key, (lo, hi) in SMALL.items():
        assert type(lo) is type(hi) and lo <= hi, key
        assert RULES[key].problem(key, lo) is None, key
        assert RULES[key].problem(key, hi) is None, key


def artifacts(doc: dict) -> dict[str, bytes]:
    """Every artifact one run of `doc` writes, by file name."""
    cfg = scenario_from_dict(doc)
    assert validate_scenario(cfg) == []
    with tempfile.TemporaryDirectory() as tmp:
        out = run_scenario(cfg, tmp).out_dir
        return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


def assert_same_but(a: dict, b: dict, files=(), sections=()) -> None:
    """`a` and `b` agree on every artifact but `files`, and on report.json
    but its `config_hash` and `sections`."""
    skip = {"report.json", "resolved.json", *files}
    assert {k: v for k, v in a.items() if k not in skip} == \
        {k: v for k, v in b.items() if k not in skip}
    ra, rb = json.loads(a["report.json"]), json.loads(b["report.json"])
    for key in ("config_hash", *sections):
        ra.pop(key, None)
        rb.pop(key, None)
    assert ra == rb


def variant(doc: dict, **changes) -> dict:
    out = copy.deepcopy(doc)
    for key, value in changes.items():
        _set(out, key.replace("__", "."), value)
    return out


RELATION = settings(derandomize=True, deadline=None)


@RELATION
@given(scenarios())
def test_r1_the_trace_moves_no_other_artifact(doc):
    on = artifacts(variant(doc, trace_events=True))
    off = artifacts(variant(doc, trace_events=False))
    assert "events.ndjson" in on and "events.ndjson" not in off
    assert_same_but(on, off, files=("events.ndjson",))


@RELATION
@given(scenarios())
def test_r2_a_stage_nothing_reads_moves_no_other_artifact(doc):
    base = artifacts(doc)
    assert_same_but(base, artifacts(variant(doc, rover__enabled=False)),
                    files=("mission_log.csv",), sections=("rover",))
    assert_same_but(base, artifacts(variant(doc, coherent__enabled=False)),
                    files=("gains.csv",), sections=("coherent",))


@RELATION
@given(scenarios())
def test_r3_an_uncoupled_dataplane_moves_no_sync_artifact(doc):
    doc = variant(doc, timesync__load_coupling=0.0)
    on = artifacts(doc)
    off = artifacts(variant(doc, dataplane__enabled=False))
    for name in ("sync_report.csv", "gains.csv"):
        assert on.get(name) == off.get(name), name


@RELATION
@given(scenarios(), st.integers(2, 4))
def test_r4_a_coarser_sampler_keeps_every_shared_row(doc, k):
    # whole milliseconds, so each coarse tick is exactly a fine one
    fine = round(doc["timesync"]["sample_interval_s"], 3)
    rows = [set(artifacts(variant(doc, timesync__sample_interval_s=s))
                ["sync_report.csv"].splitlines()[1:]) for s in (fine, fine * k)]
    assert rows[1] <= rows[0]


def _rows_by_node(csv_bytes: bytes) -> dict[str, list[bytes]]:
    rows: dict[str, list[bytes]] = {}
    for line in csv_bytes.splitlines()[1:]:
        rows.setdefault(line.split(b",")[1], []).append(line)
    return rows


@RELATION
@given(scenarios(), st.floats(0.2, 0.9), st.floats(0.0, 1.0))
def test_r5_a_shorter_run_is_a_prefix_of_a_longer_one(doc, fraction, overdraw):
    # t000, granted first, overdraws from a drawn point of the longer run:
    # its cut lands before the shorter run ends, after it, or after both
    doc = variant(doc, power__overdraw_tile="t000", power__overdraw_w=20.0,
                  power__overdraw_at_s=doc["duration_s"] * overdraw)
    longer = artifacts(doc)
    shorter = artifacts(variant(doc, duration_s=doc["duration_s"] * fraction))
    rows = _rows_by_node(longer["sync_report.csv"])
    for node, prefix in _rows_by_node(shorter["sync_report.csv"]).items():
        assert rows[node][:len(prefix)] == prefix, node
    lines = longer["power_ledger.csv"].splitlines()
    prefix = shorter["power_ledger.csv"].splitlines()
    assert lines[:len(prefix)] == prefix


# per stage with a stream label: the artifacts and report.json sections
# its draws may move, its own and those of the stages that read it
LABELLED = {
    "timesync": (("sync_report.csv", "gains.csv"), ("timesync", "coherent")),
    "coherent": (("gains.csv",), ("coherent",)),
    "rover": (("mission_log.csv",), ("rover",)),
}


@RELATION
@given(scenarios())
def test_r6_a_renamed_stream_moves_only_its_stage(doc):
    base = artifacts(doc)
    for stage, (files, sections) in LABELLED.items():
        renamed = artifacts(variant(doc, **{f"{stage}__stream_label": f"{stage}-renamed"}))
        assert_same_but(base, renamed, files=files, sections=sections)


@RELATION
@given(scenarios(), st.data())
def test_r7_the_target_and_tx_power_move_no_artifact(doc, data):
    room = doc["fabric"]["room"]
    target = [data.draw(st.floats(0.0, room[side]), label=side)
              for side in ("length_m", "width_m", "height_m")]
    power = data.draw(st.floats(-40.0, MAX_TX_POWER_DBM), label="tx_power_dbm")
    moved = artifacts(variant(doc, coherent__target=target,
                              coherent__tx_power_dbm=power))
    assert_same_but(artifacts(doc), moved)
