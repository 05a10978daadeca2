"""The tilesim benchmark.

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload seed fixes the generated
scenario; every operation is one `run_scenario` call of it, made in a
fresh child interpreter, one at a time, with single-threaded numeric
libraries and a temporary output root that is deleted afterwards.
Every operation's artifacts are checked (perfbench.checks) and digested;
repeats of one seed must produce the same digest.

With --trace 0 the benchmark reports the end-to-end metrics, each the
median over the operations of the run:

  wall_s       loading the scenario to the last artifact on disk
  setup_s      loading the scenario to the first simulated step; also
               sampled by extra children that stop at that step
  sim_speed    simulated seconds per host second of the simulation calls
  peak_rss_mb  peak resident memory of the child that ran the operation

With --trace 1 it runs pairs of one untraced and one traced operation
and reports the per-layer metrics of perfbench.layers, medians over the
pairs; the spans of the last traced operation are written to
perfbench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

from . import checks, layers, workloads

ROOT = workloads.ROOT
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_speed": "sim-s/s",
              "peak_rss_mb": "MB"}

SETUP_PROBES = 7        # extra set-up samples per untraced run
MIN_OPS = 2             # so that every run compares repeats of its seed
DEADLINE_S = 170.0      # no new operation starts past this point
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Op:
    """One child: its timings, rusage, artifact digest and broken invariants."""

    def __init__(self, mode: str):
        self.mode = mode
        self.result: dict = {}
        self.problems: list[str] = []
        self.digest = None
        self.artifact_bytes = 0
        self.peak_rss_mb = 0.0
        self.host_s = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        r = self.result
        if not r:
            return f"{self.mode}: FAILED {'; '.join(self.problems)}"
        line = (f"{self.mode}: wall {r['wall_s']:.3f} s  setup "
                f"{r['setup_s'] * 1e3:.1f} ms  rss {self.peak_rss_mb:.1f} MB")
        if self.digest:
            line += f"  digest {self.digest[:16]}"
        return line + ("  ok" if self.ok else f"  FAILED {'; '.join(self.problems)}")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TILESIM_OUT", None)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child, killing it past the deadline; returns its rusage and
    whether it finished in time."""
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return rusage, True
        if time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return rusage, False
        time.sleep(0.005)


def run_op(scenario: dict, scenario_path: Path, mode: str, workdir: Path,
           deadline: float) -> Op:
    """Run one operation in a child and check what it wrote."""
    op = Op(mode)
    out_root = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=workdir))
    result_path = out_root / "result.json"
    t0 = time.monotonic()
    try:
        with open(out_root / "stderr.txt", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.child", str(scenario_path),
                 str(out_root), str(result_path), mode],
                cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            rusage, finished = _wait(proc, deadline)
        op.host_s = time.monotonic() - t0
        op.peak_rss_mb = rusage.ru_maxrss / 1024.0
        if not finished:
            op.problems.append("timed out")
        elif proc.returncode != 0:
            tail = (out_root / "stderr.txt").read_text().strip().splitlines()
            op.problems.append(f"exit {proc.returncode}: "
                               f"{tail[-1] if tail else 'no message'}")
        else:
            with open(result_path) as f:
                op.result = json.load(f)
            if op.result["out_dir"] is not None:
                out_dir = Path(op.result["out_dir"])
                op.problems += checks.check_artifacts(out_dir, scenario)
                op.digest = checks.digest(out_dir)
                op.artifact_bytes = checks.artifact_bytes(out_dir)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    return op


def _flag_digest_mismatch(ops: list[Op]) -> None:
    """Repeats of one seed must write the same bytes; the first complete
    operation is the reference."""
    ref = next((op.digest for op in ops if op.digest), None)
    for op in ops:
        if op.digest and op.digest != ref:
            op.problems.append(f"digest {op.digest[:16]} differs from "
                               f"{ref[:16]} of an earlier repeat")


def end_to_end(ops: list[Op], probes: list[Op]) -> dict[str, float]:
    timed = [op for op in ops if op.result]
    setups = [op.result["setup_s"] for op in timed + probes if op.result]
    return {
        "wall_s": statistics.median(op.result["wall_s"] for op in timed),
        "setup_s": statistics.median(setups),
        "sim_speed": statistics.median(
            op.result["sim_s"] / op.result["sim_host_s"] for op in timed),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in timed),
    }


def _untraced(scenario, path, seconds, workdir, t0):
    deadline = t0 + DEADLINE_S
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(run_op(scenario, path, "setup", workdir, deadline))
        print(probes[-1].describe(), flush=True)
    ops: list[Op] = []
    while True:
        ops.append(run_op(scenario, path, "run", workdir, deadline))
        print(ops[-1].describe(), flush=True)
        elapsed = time.monotonic() - t0
        per_op = statistics.median(op.host_s for op in ops)
        if len(ops) >= MIN_OPS and elapsed + per_op > seconds:
            break
        if elapsed + per_op > DEADLINE_S:
            break
    _flag_digest_mismatch(ops)
    # a probe only counts as an operation when it fails
    ops += [p for p in probes if not p.ok]
    runs = [op for op in ops if op.mode == "run"]
    if not any(op.result for op in runs):
        return ops, None
    return ops, end_to_end(runs, probes)


def _traced(scenario, path, seconds, workdir, t0, trace_file):
    deadline = t0 + DEADLINE_S
    ops: list[Op] = []
    rows = []
    while True:
        plain = run_op(scenario, path, "run", workdir, deadline)
        print(plain.describe(), flush=True)
        traced = run_op(scenario, path, "trace", workdir, deadline)
        print(traced.describe(), flush=True)
        ops += [plain, traced]
        if plain.result and traced.result:
            r = traced.result
            rows.append(layers.per_layer(r["trace"], r["wall_s"],
                                         plain.result["wall_s"],
                                         traced.artifact_bytes, r["import_s"]))
            with open(trace_file, "w") as f:
                json.dump({"per_layer": rows[-1], **r["trace"]}, f)
        elapsed = time.monotonic() - t0
        if elapsed + plain.host_s + traced.host_s > min(seconds, DEADLINE_S):
            break
    # observing a run must not change it
    _flag_digest_mismatch(ops)
    if not rows:
        return ops, None
    return ops, {name: statistics.median(row[name] for row in rows)
                 for name in layers.PER_LAYER}


def measure(scenario: dict, seconds: float, trace: int, trace_file: Path):
    """Run one workload's operations; returns them and the run's metrics
    (None when no operation completed)."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        path = workdir / "scenario.yaml"
        with open(path, "w") as f:
            yaml.safe_dump(scenario, f, sort_keys=True)
        t0 = time.monotonic()
        if trace:
            return _traced(scenario, path, seconds, workdir, t0, trace_file)
        return _untraced(scenario, path, seconds, workdir, t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be non-negative")
    return seed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", required=True, type=_seed)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "tilesim" / "__init__.py",
                           workloads.DEFAULT_SCENARIO) if not p.is_file()]
    if missing:
        print(f"perfbench: tilesim sources not found: "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tilesim.scenario import scenario_from_dict, validate_scenario

    scenario = workloads.generate(args.workload, args.seed)
    problems = validate_scenario(scenario_from_dict(scenario))
    if problems:
        print(f"perfbench: generated scenario is invalid: {'; '.join(problems)}",
              file=sys.stderr)
        return 2

    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    ops, metrics = measure(scenario, args.seconds, args.trace, trace_file)
    units = (END_TO_END if not args.trace else
             {name: unit for name, (unit, _) in layers.PER_LAYER.items()})

    failed = sum(not op.ok for op in ops)
    print(f"workload {args.workload} seed {args.seed}: "
          f"failed {failed} of {len(ops)} attempted", flush=True)
    if metrics is None:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0
