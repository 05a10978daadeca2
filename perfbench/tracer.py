"""Span tracing around tilesim's public calls, installed from outside the
package.

Each wrapper replaces a name where the calling code looks it up: a method
on its class, or a module-level function in the namespace of the module
that calls it (`tilesim.rover.trilaterate` is looked up by
`MissionRunner`, `tilesim.orchestrator.evaluate_beamforming` by
`run_scenario`).  Wrappers call through unchanged and return what the
original returned, so a traced run writes the same artifacts as an
untraced one.

Every call updates per-name totals: call count, inclusive time and self
time, where self time is the call's duration minus that of the wrapped
calls inside it.  Per layer (the name's prefix) it also sums the time
inside the layer's outermost calls, which counts what those calls spend
in other layers.  Stage-level calls additionally keep one span each
(name, start, end, parent); hot primitives such as clock reads are only
aggregated, because keeping a record for each of their millions of calls
would cost more memory than the run itself.  Everything stays in memory
until `dump()`.
"""

from __future__ import annotations

import builtins
import functools
import time
from collections import defaultdict

# event-loop module tags -> layer names used by the benchmark
_EVENT_LAYER = {"timesync": "timesync", "dataplane": "dataplane",
                "power": "powerplane"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []          # (name, start_s, end_s, parent)
        self.counts: dict[str, int] = defaultdict(int)
        self.delivered: dict[str, int] = defaultdict(int)   # per consumer group
        self.peak_utilization = 0.0
        # layer -> [open calls, time inside its outermost calls]
        self.layers: dict[str, list] = {}
        self._stack = [["", 0.0, 0.0]]        # frames: [name, start_s, child_s]

    def wrap(self, name, fn, keep=False, after=None, on_error=None):
        """A traced stand-in for `fn`.  `after(args, kwargs, result)` sees
        each return value; `on_error(exc)` sees each exception, which is
        then re-raised."""
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer = self._layer(name)
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            layer[0] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stack[-1][2] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[2]
                layer[0] -= 1
                if not layer[0]:
                    layer[1] += dur
                if keep:
                    spans.append((name, frame[1], end, stack[-1][0]))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _layer(self, name):
        return self.layers.setdefault(name.split(".", 1)[0], [0, 0.0])

    def patch(self, owner, attr, name, **kw):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def open_span(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._layer(name)[0] += 1
        return frame

    def close_span(self, frame):
        end = time.perf_counter()
        if self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self._stack.pop()
        dur = end - frame[1]
        self._stack[-1][2] += dur
        stat = self.stats.setdefault(frame[0], [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[2]
        layer = self._layer(frame[0])
        layer[0] -= 1
        if not layer[0]:
            layer[1] += dur
        self.spans.append((frame[0], frame[1], end, self._stack[-1][0]))

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": dict(self.counts),
                "delivered": dict(self.delivered),
                "peak_utilization": self.peak_utilization,
                "layers": {k: v[1] for k, v in self.layers.items()},
                "spans": self.spans}

    # -- return-value counters --

    def _run_stats(self, args, kwargs, stats):
        self.counts["events"] += stats.processed
        for module, n in stats.by_module.items():
            self.counts[f"events.{module}"] += n

    def _polled(self, args, kwargs, res):
        n = len(res.records)
        self.counts["poll_records"] += n
        self.counts["empty_polls"] += n == 0
        self.counts["gap_polls"] += bool(res.gap)
        self.delivered[args[0].group_id] += n

    def _utilization(self, args, kwargs, u):
        self.peak_utilization = max(self.peak_utilization, u)

    def _allocated(self, args, kwargs, outcome):
        self.counts["grants" if type(outcome).__name__ == "Grant"
                    else "denials"] += 1

    def _monitored(self, args, kwargs, fired):
        self.counts["disconnects"] += len(fired)

    def _evaluated(self, args, kwargs, gain):
        self.counts["trials"] += gain.trials

    def _mission(self, args, kwargs, summary):
        self.counts["ticks"] += round(summary["duration_s"] / args[0].cfg.tick_s)

    def _solved(self, args, kwargs, sol):
        self.counts["fixes"] += 1
        self.counts["trilaterate_iters"] += sol.iterations

    def _kalman(self, args, kwargs, out):
        measurement = args[2] if len(args) > 2 else kwargs.get("measurement")
        if measurement is not None:
            self.counts["kalman_with_fix"] += 1
            self.counts["kalman_accepted"] += bool(out[1])


def install(tr: Tracer) -> None:
    """Wrap the public calls of every tilesim module with `tr`."""
    from tilesim import (coherent, core, dataplane, fabric, orchestrator,
                         powerplane, rover, scenario, timesync)

    P = tr.patch
    P(core.EventLoop, "run_until", "core.run_until", keep=True,
      after=tr._run_stats)
    P(core.RngStream, "__init__", "core.rng_stream")
    _trace_handlers(tr, core.EventLoop)

    P(timesync.LocalClock, "read", "timesync.clock_read")
    P(timesync.LocalClock, "offset_at", "timesync.offset_read")
    P(timesync.SyncReport, "add_sample", "timesync.add_sample")
    P(timesync, "servo_update", "timesync.servo_update")
    P(timesync.SyncDomain, "effective_jitter_sigma_ns", "timesync.jitter")
    P(timesync.SyncDomain, "__init__", "timesync.domain_init", keep=True)
    P(timesync.SyncDomain, "start", "timesync.start", keep=True)
    P(timesync.SyncReport, "finalize", "timesync.finalize", keep=True)
    P(timesync.SyncReport, "to_csv", "timesync.csv", keep=True)

    P(dataplane.Broker, "append", "dataplane.append")
    P(dataplane.ConsumerGroup, "poll", "dataplane.poll", after=tr._polled)
    P(dataplane.ConsumerGroup, "commit", "dataplane.commit")
    P(dataplane.LinkLoadTracker, "record", "dataplane.load_record")
    P(dataplane.LinkLoadTracker, "utilization", "dataplane.load_lookup",
      after=tr._utilization)
    P(dataplane.Broker, "dump_topic", "dataplane.dump", keep=True)

    P(powerplane.PsePlane, "allocate", "powerplane.allocate",
      after=tr._allocated)
    P(powerplane.PsePlane, "monitor", "powerplane.monitor", after=tr._monitored)
    P(powerplane.PsePlane, "write_ledger_csv", "powerplane.ledger_csv",
      keep=True)

    P(orchestrator, "evaluate_beamforming", "coherent.evaluate", keep=True,
      after=tr._evaluated)
    P(coherent.GainResult, "write_csv", "coherent.csv", keep=True)

    def _failed_solve(exc):
        if isinstance(exc, rover.TrilaterationError):
            tr.counts["trilaterate_failures"] += 1

    P(orchestrator, "plan_sampling", "rover.plan", keep=True)
    P(rover.MissionRunner, "run", "rover.mission", keep=True, after=tr._mission)
    P(rover, "measure_ranges", "rover.ranging")
    P(rover, "trilaterate", "rover.trilaterate", after=tr._solved,
      on_error=_failed_solve)
    P(rover, "kalman_step", "rover.kalman_step", after=tr._kalman)
    P(rover.MissionRunner, "write_log_csv", "rover.log_csv", keep=True)

    P(scenario, "load_scenario", "scenario.load", keep=True)
    P(orchestrator, "validate_scenario", "scenario.validate", keep=True)
    P(orchestrator, "scenario_hash", "scenario.hash", keep=True)
    P(orchestrator, "resolved_json", "scenario.resolved_json", keep=True)

    P(orchestrator, "build_default_fabric", "fabric.build", keep=True)
    P(fabric.Fabric, "validate", "fabric.validate", keep=True)
    P(fabric.Fabric, "export_json", "fabric.export", keep=True)

    P(orchestrator, "run_scenario", "orchestrator.run_scenario", keep=True)
    # run_scenario writes report.json, resolved.json, topics.ndjson and
    # traffic.csv inline through `open`; shadowing the builtin in its
    # module times each `with open(...)` block as one write span
    orchestrator.open = _span_open(tr, "orchestrator.write")


def _trace_handlers(tr: Tracer, loop_cls) -> None:
    """Time `schedule` itself, and every handler it queues as a span of the
    layer that scheduled it, so the loop's self time is only the engine's
    own pop-and-dispatch work."""
    dispatch = {layer: tr.wrap(f"{layer}.handler", lambda fn, arg: fn(arg))
                for layer in set(_EVENT_LAYER.values())}

    def schedule(self, fire_at, module, target, action, fn, arg=None):
        layer = _EVENT_LAYER.get(module)
        if layer is not None:
            fn = functools.partial(dispatch[layer], fn)
        return original(self, fire_at, module, target, action, fn, arg)

    original = loop_cls.schedule
    loop_cls.schedule = tr.wrap("core.schedule", schedule)


class _SpanFile:
    """A file whose `with` block is one trace span."""

    def __init__(self, tr, name, f):
        self._tr, self._name, self._f = tr, name, f
        self._frame = None

    def __enter__(self):
        self._frame = self._tr.open_span(self._name)
        return self._f.__enter__()

    def __exit__(self, *exc):
        try:
            return self._f.__exit__(*exc)
        finally:
            self._tr.close_span(self._frame)

    def __getattr__(self, attr):
        return getattr(self._f, attr)


def _span_open(tr: Tracer, name: str):
    def traced_open(*args, **kwargs):
        return _SpanFile(tr, name, builtins.open(*args, **kwargs))
    return traced_open
