"""Measure the baseline record: every workload over a range of seeds.

    python3 -m perfbench.baseline [--seeds 1-10] [--seconds 30]
                                  [--workloads room_default,...]
                                  [--output perfbench/baseline.json]

For each workload it runs the benchmark once per seed with tracing off,
then once with tracing on (first seed), and records the end-to-end
medians and quartiles over the seeds, their spread (interquartile range
over median), the traced per-layer table and the layer shares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from . import bench, layers, workloads

NOTE = ("The tilesim model has not been validated against any reference "
        "measurement; the simulated statistics (sync residuals, coherent "
        "efficiency, waypoints visited) are model outputs used only as a "
        "regression oracle through the artifact digest, not as accuracy "
        "figures.")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.baseline")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--workloads", default=",".join(workloads.GENERATORS))
    ap.add_argument("--output", default=None,
                    help="write the record here (default: print only)")
    args = ap.parse_args(argv)

    record = {
        "note": NOTE,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res = _run(name, seed, args.seconds, 0)
            runs.append(res)
            print(f"{name} seed {seed}: failed {res['failed']} of "
                  f"{res['attempted']}  " + "  ".join(
                      f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        traced = _run(name, args.seeds[0], args.seconds, 1)
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        e2e = {metric: summarize([r["metrics"][metric]["value"] for r in runs])
               for metric in bench.END_TO_END}
        for metric, s in e2e.items():
            print(f"{name} {metric}: median {s['median']:.4g} "
                  f"spread {s['spread']:.3f}", flush=True)
        record["workloads"][name] = {
            "why": workloads.WHY[name],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "layer_shares": {layer: per_layer[f"{layer}.share"]
                             for layer in layers.TRACED_LAYERS},
            "layer_calls_shares": {layer: per_layer[f"{layer}.calls_share"]
                                   for layer in layers.TRACED_LAYERS},
            "end_to_end": e2e,
            "per_layer": per_layer,
        }
    if args.output:
        with open(args.output, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
