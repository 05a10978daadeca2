"""Per-layer metrics from one traced operation.

Layers are tilesim's modules.  Each metric is computed from the traced
run's span totals (perfbench.tracer) and the counts taken from wrapped
calls' return values.  A metric of a layer the workload switches off
reads 0.  Times are seconds, or microseconds per call (`_us`), and
include the tracer's own cost of timing each call.

Two shares of the traced wall time are given per layer: `share` counts
the layer's self time, so the shares of all layers partition the run;
`calls_share` counts the whole time inside the layer's outermost calls,
including what they spend in other layers.  The `cli` layer is only the
`import tilesim` cost, which lies outside the wall time.
"""

from __future__ import annotations

LAYERS = ("core", "timesync", "dataplane", "powerplane", "coherent", "rover",
          "scenario", "fabric", "orchestrator", "cli")
# layers with spans inside the wall time; `cli` is only the import
TRACED_LAYERS = LAYERS[:-1]

# spans whose inclusive time is artifact writing
WRITERS = ("orchestrator.write", "timesync.csv", "powerplane.ledger_csv",
           "coherent.csv", "rover.log_csv", "fabric.export")

# name -> (unit, better)
PER_LAYER = {
    "core.events": ("count", "lower"),
    "core.events.timesync": ("count", "lower"),
    "core.events.dataplane": ("count", "lower"),
    "core.loop_s": ("s", "lower"),
    "core.loop_self_s": ("s", "lower"),
    "core.us_per_event": ("us", "lower"),
    "core.schedules": ("count", "lower"),
    "core.rng_streams": ("count", "lower"),
    "timesync.clock_reads": ("count", "lower"),
    "timesync.clock_read_us": ("us", "lower"),
    "timesync.offset_reads": ("count", "lower"),
    "timesync.offset_read_us": ("us", "lower"),
    "timesync.samples": ("count", "lower"),
    "timesync.servo_updates": ("count", "lower"),
    "timesync.jitter_draws": ("count", "lower"),
    "timesync.jitter_us": ("us", "lower"),
    "timesync.finalize_s": ("s", "lower"),
    "timesync.csv_s": ("s", "lower"),
    "dataplane.appends": ("count", "lower"),
    "dataplane.append_us": ("us", "lower"),
    "dataplane.polls": ("count", "lower"),
    "dataplane.poll_us": ("us", "lower"),
    "dataplane.records_per_poll": ("records", "higher"),
    "dataplane.empty_poll_ratio": ("ratio", "lower"),
    "dataplane.gap_polls": ("count", "lower"),
    "dataplane.commits": ("count", "lower"),
    "dataplane.load_records": ("count", "lower"),
    "dataplane.load_lookups": ("count", "lower"),
    "dataplane.load_lookup_us": ("us", "lower"),
    "dataplane.dump_s": ("s", "lower"),
    "dataplane.lag_records": ("count", "lower"),
    "dataplane.peak_utilization": ("ratio", "lower"),
    "powerplane.grants": ("count", "higher"),
    "powerplane.denials": ("count", "lower"),
    "powerplane.disconnects": ("count", "lower"),
    "powerplane.monitor_calls": ("count", "lower"),
    "powerplane.monitor_us": ("us", "lower"),
    "coherent.trials": ("count", "higher"),
    "coherent.evaluate_s": ("s", "lower"),
    "coherent.us_per_trial": ("us", "lower"),
    "rover.mission_s": ("s", "lower"),
    "rover.ticks": ("count", "lower"),
    "rover.fixes": ("count", "higher"),
    "rover.trilaterate_us": ("us", "lower"),
    "rover.trilaterate_iters": ("iter/solve", "lower"),
    "rover.trilaterate_failures": ("count", "lower"),
    "rover.kalman_steps": ("count", "lower"),
    "rover.kalman_us": ("us", "lower"),
    "rover.fix_accept_ratio": ("ratio", "higher"),
    "rover.ranging_us": ("us", "lower"),
    "rover.plan_s": ("s", "lower"),
    "scenario.load_s": ("s", "lower"),
    "scenario.validate_s": ("s", "lower"),
    "scenario.hash_s": ("s", "lower"),
    "fabric.build_s": ("s", "lower"),
    "fabric.validate_s": ("s", "lower"),
    "fabric.export_s": ("s", "lower"),
    "orchestrator.write_s": ("s", "lower"),
    "orchestrator.artifact_bytes": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    **{f"{layer}.{kind}": ("ratio", "lower") for layer in TRACED_LAYERS
       for kind in ("share", "calls_share")},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(trace: dict, traced_wall_s: float, untraced_wall_s: float,
              artifact_bytes: int, import_s: float) -> dict[str, float]:
    """Every PER_LAYER metric of one traced operation."""
    stats, counts = trace["stats"], trace["counts"]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def mean_us(name):
        return _ratio(total(name), calls(name)) * 1e6

    def count(key):
        return counts.get(key, 0)

    events = count("events")
    polls = calls("dataplane.poll")
    delivered = trace["delivered"]
    m = {
        "core.events": events,
        "core.events.timesync": count("events.timesync"),
        "core.events.dataplane": count("events.dataplane"),
        "core.loop_s": total("core.run_until"),
        "core.loop_self_s": self_s("core.run_until"),
        "core.us_per_event": _ratio(self_s("core.run_until")
                                    + self_s("core.schedule"), events) * 1e6,
        "core.schedules": calls("core.schedule"),
        "core.rng_streams": calls("core.rng_stream"),
        "timesync.clock_reads": calls("timesync.clock_read"),
        "timesync.clock_read_us": mean_us("timesync.clock_read"),
        "timesync.offset_reads": calls("timesync.offset_read"),
        "timesync.offset_read_us": mean_us("timesync.offset_read"),
        "timesync.samples": calls("timesync.add_sample"),
        "timesync.servo_updates": calls("timesync.servo_update"),
        "timesync.jitter_draws": calls("timesync.jitter"),
        "timesync.jitter_us": mean_us("timesync.jitter"),
        "timesync.finalize_s": total("timesync.finalize"),
        "timesync.csv_s": total("timesync.csv"),
        "dataplane.appends": calls("dataplane.append"),
        "dataplane.append_us": mean_us("dataplane.append"),
        "dataplane.polls": polls,
        "dataplane.poll_us": mean_us("dataplane.poll"),
        "dataplane.records_per_poll": _ratio(count("poll_records"), polls),
        "dataplane.empty_poll_ratio": _ratio(count("empty_polls"), polls),
        "dataplane.gap_polls": count("gap_polls"),
        "dataplane.commits": calls("dataplane.commit"),
        "dataplane.load_records": calls("dataplane.load_record"),
        "dataplane.load_lookups": calls("dataplane.load_lookup"),
        "dataplane.load_lookup_us": mean_us("dataplane.load_lookup"),
        "dataplane.dump_s": total("dataplane.dump"),
        "dataplane.lag_records": (calls("dataplane.append") - min(delivered.values())
                                  if delivered else 0),
        "dataplane.peak_utilization": trace["peak_utilization"],
        "powerplane.grants": count("grants"),
        "powerplane.denials": count("denials"),
        "powerplane.disconnects": count("disconnects"),
        "powerplane.monitor_calls": calls("powerplane.monitor"),
        "powerplane.monitor_us": mean_us("powerplane.monitor"),
        "coherent.trials": count("trials"),
        "coherent.evaluate_s": total("coherent.evaluate"),
        "coherent.us_per_trial": _ratio(total("coherent.evaluate"),
                                        count("trials")) * 1e6,
        "rover.mission_s": total("rover.mission"),
        "rover.ticks": count("ticks"),
        "rover.fixes": count("fixes"),
        "rover.trilaterate_us": mean_us("rover.trilaterate"),
        "rover.trilaterate_iters": _ratio(count("trilaterate_iters"),
                                          count("fixes")),
        "rover.trilaterate_failures": count("trilaterate_failures"),
        "rover.kalman_steps": calls("rover.kalman_step"),
        "rover.kalman_us": mean_us("rover.kalman_step"),
        "rover.fix_accept_ratio": _ratio(count("kalman_accepted"),
                                         count("kalman_with_fix")),
        "rover.ranging_us": mean_us("rover.ranging"),
        "rover.plan_s": total("rover.plan"),
        "scenario.load_s": total("scenario.load"),
        "scenario.validate_s": total("scenario.validate"),
        "scenario.hash_s": total("scenario.hash"),
        "fabric.build_s": total("fabric.build"),
        "fabric.validate_s": total("fabric.validate"),
        "fabric.export_s": total("fabric.export"),
        "orchestrator.write_s": sum(total(n) for n in WRITERS),
        "orchestrator.artifact_bytes": artifact_bytes,
        "cli.import_s": import_s,
        "trace.overhead": _ratio(traced_wall_s, untraced_wall_s),
    }
    for layer in TRACED_LAYERS:
        m[f"{layer}.share"] = _ratio(layer_self_s(stats, layer), traced_wall_s)
        m[f"{layer}.calls_share"] = _ratio(trace["layers"].get(layer, 0.0),
                                           traced_wall_s)
    return m


def layer_self_s(stats: dict, layer: str) -> float:
    """Self time of every span of one layer: the host time that layer's own
    code took, with wrapped calls into other layers taken out."""
    return sum(s[2] for name, s in stats.items()
               if name.split(".", 1)[0] == layer)
