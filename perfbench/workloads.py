"""Seeded workload generators.

Each generator maps a workload seed to a plain scenario dict, the same
shape a scenario YAML file parses to.  The program under test only ever
sees that dict (written out as YAML and read back through
`load_scenario`), so every input of a run is fixed by (workload, seed).
"""

from __future__ import annotations

import copy
import random
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SCENARIO = ROOT / "scenarios" / "default.yaml"

WHY = {
    "room_default": "the shipped default scenario users run; sync sampler and "
                    "residual CSV dominate, the log is read-dominated",
    "log_saturated": "all 140 tiles publish 32 KiB records over 1 Gb/s links "
                     "to lagging consumer groups; the dataplane dominates",
    "rover_survey": "whole-room rover sweep with recharges and beacon outliers "
                    "and every fabric stage off; trilateration and Kalman dominate",
}

# Rover survey geometry: a 0.8 m grid over the 8 m x 4 m room gives 10 x 5
# cells.  Obstacles are small squares centred on a cell, so after the
# planner's 0.25 m inflation each blocks exactly that one cell and every
# seed keeps the same waypoint count; only their positions move.
_SURVEY_RESOLUTION_M = 0.8
_SURVEY_COLS, _SURVEY_ROWS = 10, 5
_SURVEY_OBSTACLES = 3
_OBSTACLE_HALF_M = 0.1


def room_default(seed: int) -> dict:
    with open(DEFAULT_SCENARIO) as f:
        doc = yaml.safe_load(f)
    doc["seed"] = seed
    return doc


def log_saturated(seed: int) -> dict:
    doc = room_default(seed)
    doc["name"] = "log_saturated"
    doc["duration_s"] = 20.0
    doc["fabric"]["bandwidth_bps"] = 1_000_000_000
    doc["timesync"]["sample_interval_s"] = 1.0
    doc["dataplane"] = {
        "producer_tiles": 140,
        "produce_interval_ms": 20.0,
        "record_bytes": 32768,
        "consumer_groups": 4,
        "consumers_per_group": 4,
        "poll_interval_ms": 50.0,
        "max_poll_records": 64,
        "retention_records": 8192,
    }
    doc["coherent"].update({"trials": 13000, "tile_count": None})
    doc["rover"] = {"enabled": False}
    return doc


def rover_survey(seed: int) -> dict:
    rnd = random.Random(f"rover_survey:{seed}")
    # the charger sits in cell (0, 0); keep it and its neighbours clear
    free = [(i, j) for i in range(_SURVEY_COLS) for j in range(_SURVEY_ROWS)
            if i + j > 1]
    obstacles = []
    for i, j in sorted(rnd.sample(free, _SURVEY_OBSTACLES)):
        cx = (i + 0.5) * _SURVEY_RESOLUTION_M
        cy = (j + 0.5) * _SURVEY_RESOLUTION_M
        obstacles.append([round(cx - _OBSTACLE_HALF_M, 3),
                          round(cy - _OBSTACLE_HALF_M, 3),
                          round(cx + _OBSTACLE_HALF_M, 3),
                          round(cy + _OBSTACLE_HALF_M, 3)])
    return {
        "name": "rover_survey",
        "seed": seed,
        "duration_s": 1.0,
        "timesync": {"enabled": False},
        "power": {"enabled": False},
        "dataplane": {"enabled": False},
        "coherent": {"enabled": False},
        "rover": {
            "area": None,
            "resolution_m": _SURVEY_RESOLUTION_M,
            "z_resolution_m": 0.6,
            "obstacles": obstacles,
            "outlier_prob": 0.05,
            "battery_capacity_wh": round(rnd.uniform(3.7, 3.9), 3),
            "tick_s": 0.2,
            "beacon_rate_hz": 5.0,
            "max_duration_s": 20000.0,
        },
    }


GENERATORS = {
    "room_default": room_default,
    "log_saturated": log_saturated,
    "rover_survey": rover_survey,
}


def generate(name: str, seed: int) -> dict:
    """The scenario dict of one workload at one seed (a fresh copy)."""
    return copy.deepcopy(GENERATORS[name](seed))
