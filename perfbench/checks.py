"""Output checks for one operation: invariants that hold for any correct
random realization of a scenario, and a digest of the artifacts.

Every artifact tilesim writes is byte-stable for a given configuration, so
the digest covers all of them; two runs of one seed, traced or not, must
produce the same digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def digest(out_dir: Path) -> str:
    """sha256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0")
        data = path.read_bytes()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir())


def _enabled(scenario: dict, section: str) -> bool:
    return (scenario.get(section) or {}).get("enabled", True)


def check_artifacts(out_dir: Path, scenario: dict) -> list[str]:
    """Every broken invariant, as a one-line message; empty means correct."""
    out_dir = Path(out_dir)
    try:
        with open(out_dir / "report.json") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        return [f"report.json unreadable: {e}"]
    problems = []
    stages = [("timesync", _check_timesync), ("power", _check_power),
              ("dataplane", _check_dataplane), ("coherent", _check_coherent),
              ("rover", _check_rover)]
    for section, check in stages:
        if section == "coherent" and not _enabled(scenario, "timesync"):
            continue   # gain evaluation needs sync residuals
        if not _enabled(scenario, section):
            continue
        if section not in report:
            problems.append(f"{section}: enabled but missing from report.json")
            continue
        try:
            problems += check(report[section], out_dir)
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"{section}: artifact unreadable: {e!r}")
    return problems


def _check_timesync(ts: dict, out_dir: Path) -> list[str]:
    problems = []
    if ts["unconverged_nodes"] or ts["convergence_time_ps"] is None:
        problems.append(f"timesync: unconverged nodes {ts['unconverged_nodes']}")
    p99 = ts["p99_residual_ps"]
    if p99 is None or not math.isfinite(p99):
        problems.append(f"timesync: p99 residual not finite ({p99})")
    if not (out_dir / "sync_report.csv").is_file():
        problems.append("timesync: sync_report.csv missing")
    return problems


def _check_power(pw: dict, out_dir: Path) -> list[str]:
    problems = []
    if pw["total_granted_w"] > pw["global_budget_w"]:
        problems.append(f"power: granted {pw['total_granted_w']} W exceeds "
                        f"the {pw['global_budget_w']} W global budget")
    for ms in pw["midspans"]:
        if ms["used_w"] > ms["budget_w"]:
            problems.append(f"power: midspan {ms['id']} over its budget")
    if not (out_dir / "power_ledger.csv").is_file():
        problems.append("power: power_ledger.csv missing")
    return problems


def _check_dataplane(dp: dict, out_dir: Path) -> list[str]:
    problems = []
    for group, n in sorted(dp["delivered"].items()):
        if n > dp["published"]:
            problems.append(f"dataplane: group {group} delivered {n} of "
                            f"{dp['published']} published")
    last: dict[int, int] = {}
    with open(out_dir / "topics.ndjson") as f:
        for lineno, line in enumerate(f, 1):
            rec = json.loads(line)
            p, off = rec["partition"], rec["offset"]
            if p in last and off != last[p] + 1:
                problems.append(f"dataplane: topics.ndjson line {lineno}: "
                                f"partition {p} offset {off} follows {last[p]}")
                break
            last[p] = off
    if not (out_dir / "traffic.csv").is_file():
        problems.append("dataplane: traffic.csv missing")
    return problems


def _check_coherent(co: dict, out_dir: Path) -> list[str]:
    if "error" in co:
        return [f"coherent: {co['error']}"]
    problems = []
    if not 0 < co["efficiency"] <= 1:
        problems.append(f"coherent: efficiency {co['efficiency']} outside (0, 1]")
    with open(out_dir / "gains.csv") as f:
        rows = sum(1 for _ in f) - 1
    if rows != co["trials"]:
        problems.append(f"coherent: gains.csv has {rows} of {co['trials']} trials")
    return problems


def _check_rover(rv: dict, out_dir: Path) -> list[str]:
    problems = []
    if rv["visited"] != rv["waypoints"]:
        problems.append(f"rover: visited {rv['visited']} of {rv['waypoints']} "
                        "waypoints")
    if not rv["min_soc"] > 0:
        problems.append(f"rover: battery ran flat (min_soc {rv['min_soc']})")
    with open(out_dir / "mission_log.csv", newline="") as f:
        events = [row["event"] for row in csv.DictReader(f)]
    if not events or events[-1] != "done":
        problems.append("rover: mission_log.csv does not end with 'done'")
    sampled = events.count("sampled")
    if sampled != rv["visited"]:
        problems.append(f"rover: mission_log.csv logs {sampled} samples, "
                        f"report says {rv['visited']}")
    return problems
