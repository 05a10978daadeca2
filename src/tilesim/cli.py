"""Command line front end.

    tilesim validate <scenario.yaml>
    tilesim run      <scenario.yaml> [--out DIR] [--seed N] [--trace]
    tilesim report   <run_dir|report.json> [--metric dotted.path]

Exit codes: 0 success, 1 the scenario failed set-up (the checks, the fabric
or a stage's own arguments), 2 usage errors (missing or unreadable files,
malformed YAML or reports, an output root that is no directory, unknown
metric), each stated in one line.  `validate` runs the same set-up as `run`
and stops before the first event; a run rejected there writes nothing.
The output root defaults to $TILESIM_OUT, then ./runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import yaml

from .fabric import ConfigurationError
from .orchestrator import prepare_scenario, run_scenario
from .scenario import load_scenario


def _load(path: str):
    if not os.path.exists(path):
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return load_scenario(path)
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror}", file=sys.stderr)
    except (ConfigurationError, yaml.YAMLError) as e:
        # a YAML error marks its place on lines of its own
        print(f"error: {' '.join(str(e).split())}", file=sys.stderr)
    raise SystemExit(2)


def _cmd_validate(args) -> int:
    cfg = _load(args.scenario)
    try:
        run = prepare_scenario(cfg)
    except ConfigurationError as e:
        print(f"problem: {e}")
        return 1
    print(f"ok: scenario {cfg.name!r} ({run.config_hash[:12]})")
    return 0


def _cmd_run(args) -> int:
    cfg = _load(args.scenario)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trace:
        cfg.trace_events = True
    out_root = args.out or os.environ.get("TILESIM_OUT") or "runs"
    t0 = time.perf_counter()
    try:
        result = run_scenario(cfg, out_root)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FileExistsError, NotADirectoryError) as e:
        print(f"error: cannot make the run directory {e.filename}: {e.strerror}",
              file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    print(f"run complete in {wall:.1f} s")
    print(f"artifacts: {result.out_dir}")
    ts = result.report.get("timesync")
    if ts:
        p99 = ts.get("p99_residual_ps")
        if p99 is not None:
            print(f"p99 residual: {p99 / 1e3:.1f} ns over {ts['nodes']} nodes")
        for key in ("unconverged_nodes", "offline_nodes"):
            if ts.get(key):
                print(f"{key.split('_')[0]}: {ts[key]}")
    return 0


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _cmd_report(args) -> int:
    path = Path(args.run)
    if path.is_dir():
        path = path / "report.json"
    if not path.exists():
        print(f"error: no report at {path}", file=sys.stderr)
        return 2
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read the report {path}: {e}", file=sys.stderr)
        return 2
    if not isinstance(report, dict):
        print(f"error: {path} is not a report (not a JSON object)", file=sys.stderr)
        return 2
    if args.metric is None:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    flat = _flatten(report)
    if args.metric not in flat:
        print(f"error: unknown metric {args.metric!r}", file=sys.stderr)
        print("available:", file=sys.stderr)
        for k in sorted(flat):
            print(f"  {k}", file=sys.stderr)
        return 2
    print(flat[args.metric])
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tilesim",
                                 description="testbed fabric simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="set a scenario up without running it")
    v.add_argument("scenario")
    v.set_defaults(fn=_cmd_validate)

    r = sub.add_parser("run", help="execute a scenario")
    r.add_argument("scenario")
    r.add_argument("--out", help="output root (default $TILESIM_OUT or ./runs)")
    r.add_argument("--seed", type=int, help="override the scenario seed")
    r.add_argument("--trace", action="store_true",
                   help="write an events.ndjson trace")
    r.set_defaults(fn=_cmd_run)

    p = sub.add_parser("report", help="inspect a finished run")
    p.add_argument("run", help="run directory or report.json path")
    p.add_argument("--metric", help="dotted key, e.g. timesync.p99_residual_ps")
    p.set_defaults(fn=_cmd_report)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
