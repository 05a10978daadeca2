"""One benchmark operation in a fresh interpreter.

    python3 -m perfbench.child SCENARIO.yaml OUT_ROOT RESULT.json MODE

Runs the scenario the way `tilesim run` does, `load_scenario` then
`run_scenario`, and writes its timings to RESULT.json.  MODE is `run`
(timed, untraced), `trace` (every public tilesim call wrapped by
perfbench.tracer) or `setup` (stop at the first simulated step, to sample
set-up time alone).

The first simulated step is entry into `EventLoop.run_until` with events
queued, or into `MissionRunner.run` when no fabric stage queued any.
"""

from __future__ import annotations

import json
import sys
import time


class _SetupDone(Exception):
    pass


class _Phases:
    """Host time of the simulation calls and of everything before them."""

    def __init__(self, stop_at_first_step: bool):
        self.stop_at_first_step = stop_at_first_step
        self.first_step = None
        self.sim_s = 0.0         # simulated seconds covered
        self.sim_host_s = 0.0    # host seconds spent covering them

    def _step(self):
        if self.first_step is None:
            self.first_step = time.perf_counter()
            if self.stop_at_first_step:
                raise _SetupDone

    def install(self, core, rover) -> None:
        run_until = core.EventLoop.run_until
        mission_run = rover.MissionRunner.run
        phases = self

        def timed_run_until(loop, t_end):
            if not loop.pending():
                return run_until(loop, t_end)
            phases._step()
            t0, now0 = time.perf_counter(), loop.now
            stats = run_until(loop, t_end)
            phases.sim_host_s += time.perf_counter() - t0
            phases.sim_s += core.to_seconds(loop.now - now0)
            return stats

        def timed_mission_run(runner, *args, **kwargs):
            phases._step()
            t0 = time.perf_counter()
            summary = mission_run(runner, *args, **kwargs)
            phases.sim_host_s += time.perf_counter() - t0
            phases.sim_s += summary["duration_s"]
            return summary

        core.EventLoop.run_until = timed_run_until
        rover.MissionRunner.run = timed_mission_run


def main(argv: list[str]) -> int:
    scenario_path, out_root, result_path, mode = argv
    t0 = time.perf_counter()
    import tilesim  # noqa: F401  (timed: the first cost `tilesim run` pays)
    import_s = time.perf_counter() - t0
    from tilesim import core, orchestrator, rover, scenario

    tracer = None
    if mode == "trace":
        from perfbench.tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    phases = _Phases(stop_at_first_step=(mode == "setup"))
    phases.install(core, rover)

    start = time.perf_counter()
    try:
        cfg = scenario.load_scenario(scenario_path)
        out_dir = orchestrator.run_scenario(cfg, out_root).out_dir
    except _SetupDone:
        out_dir = None
    end = time.perf_counter()

    first_step = phases.first_step if phases.first_step is not None else end
    result = {
        "out_dir": None if out_dir is None else str(out_dir),
        "import_s": import_s,
        "wall_s": end - start,
        "setup_s": first_step - start,
        "sim_s": phases.sim_s,
        "sim_host_s": phases.sim_host_s,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
