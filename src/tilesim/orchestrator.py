"""End-to-end scenario execution.

Each of a scenario's five stages is one private class here, and `STAGES`
holds the single order they are set up and finished in: power, dataplane,
timesync, coherent, rover.  A stage's constructor `(run, section_config)`
does its set-up on the shared event loop and exposes `events`, its periodic
work counted in events, by the scenario key of its period; `finish(run)` writes
its artifacts and returns its report section, or None.  `prepare_scenario`
sets up the fabric and each enabled stage, writing nothing (`tilesim
validate` stops there); `run_scenario` runs the loop, then finishes each
stage into a directory keyed by the hash of the resolved configuration.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coherent import MAX_TRIAL_ELEMENTS, CoherentError, evaluate_beamforming
from .core import (MAX_SIM_TIME, PS_PER_S, EventLoop, RngRegistry, SimTime,
                   from_seconds)
from .dataplane import FNV64_MASK, FNV64_PRIME, Broker, ConsumerGroup, fnv1a64
from .fabric import ConfigurationError, Fabric, build_default_fabric
from .powerplane import PsePlane
from .rover import (Battery, MissionConfig, MissionRunner, RoverError,
                    default_beacons, plan_sampling)
from .scenario import (ScenarioConfig, resolved_json, scenario_hash,
                       validate_scenario)
from .timesync import SyncDomain, SyncReport


@dataclass
class RunResult:
    """A scenario's run and what its stages made (None when disabled), set
    up by `prepare_scenario`; `run_scenario` fills in the rest.  `cuts` maps
    each tile the power plane cuts by the run's end to the cut's instant
    (0 for a tile denied power at set-up); every stage reads a cut there."""
    config_hash: str
    rng: RngRegistry
    fabric: Fabric
    loop: EventLoop
    until: SimTime
    cuts: dict[str, SimTime] = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    power: PsePlane | None = None
    broker: Broker | None = None
    domain: SyncDomain | None = None
    out_dir: Path | None = None
    report: dict | None = None
    sync_report: SyncReport | None = None


class _Power:
    """PoE grants at time 0, and the run's cuts, each applied to the ledger
    once at set-up by `PsePlane.monitor`: a denied tile at 0, an overdraw
    cut due by the run's end at its instant.  `finish` writes the ledger."""

    def __init__(self, run: RunResult, p):
        pd_tiles = (t.id for t in run.fabric.tiles.values() if "pd" in t.roles)
        plane = run.power = PsePlane(p, pd_tiles)
        for tile_id in sorted(plane.devices):
            plane.allocate(tile_id, at=0)
        run.cuts = {tile_id: 0 for tile_id, pd in plane.devices.items() if not pd.online}
        # a cut after the run's end never happens, and may lie past the 64-bit range
        run.cuts.update((ev.tile_id, ev.at_ps) for ev in plane.monitor(run.until))
        self.events = {}

    def finish(self, run: RunResult) -> dict:
        run.power.write_ledger_csv(run.out_dir / "power_ledger.csv")
        return run.power.summary()


class _Dataplane:
    """Producers and consumer groups.  A producer is no event: tile i of
    `tiles` publishes its record m, keyed "<tile>:<m>", at i * spacing +
    m * period, for each such instant at or before the run's end and
    before the tile's power cut in `run.cuts` (a tile denied power is cut
    at 0, so it publishes nothing).  Its uplink and trunk loads stop with
    it, which is exactly what the sync jitter coupling should see.
    `catch_up` appends, in (m, i) order, each record the loop would have
    produced before a reader: a consumer poll, or `finish`.  `load` gives
    a link's load window at each occurrence of a reader series in closed
    form.  A consumer commits its delivery frontier after every poll."""

    def __init__(self, run: RunResult, cfg):
        loop, fabric, until = run.loop, run.fabric, run.until
        self.loop = loop
        self.cfg = cfg
        self.record_bytes = cfg.record_bytes
        self.broker = run.broker = Broker(cfg.topic, cfg.partitions,
                                          cfg.retention_records)
        self.window_ps = from_seconds(cfg.load_window_ms / 1e3)
        self.tiles = sorted(t.id for t in fabric.tiles.values()
                            if "producer" in t.roles)[:cfg.producer_tiles]
        period = self.period = from_seconds(cfg.produce_interval_ms / 1e3)
        spacing = self.spacing = period // max(1, len(self.tiles))
        # per tile, how many records it publishes in the whole run; per
        # link, the set-up order of the tiles whose records it carries
        self.counts, self.links = {}, {}
        self.routes = []
        for i, tile in enumerate(self.tiles):
            # it produces before `end`: to the run's end, and before its cut
            end = run.cuts.get(tile, until + 1)
            self.counts[tile] = max(0, -(-(end - i * spacing) // period))
            # keys are "<tile>:<seq>"; FNV-1a is byte-serial, so the
            # constant prefix is hashed once and each key resumes from it
            prefix = f"{tile}:"
            # the last slot holds its key stem, set in `_produce`
            self.routes.append([tile, prefix, fnv1a64(prefix.encode()),
                                self.counts[tile], i * spacing, 0])
            for link in (fabric.tile_link(tile),
                         fabric.trunk_link(fabric.switch_for_tile(tile))):
                self.links.setdefault(link.id, []).append(i)
        # each tile's offset and record count in uint64 (a count of 2**64
        # is past the work bound, which refuses the run)
        self.offsets = np.arange(len(self.tiles), dtype=np.uint64) * np.uint64(spacing)
        self.limits = np.array([min(c, MAX_SIM_TIME) for c in self.counts.values()],
                               np.uint64)
        # the (m, i) positions handled, m * len(tiles) + i, and the instant
        # of the next; with no producer, no instant is due
        self.done, self.next_at = 0, 0 if self.tiles else MAX_SIM_TIME + 1

        self.groups: list[ConsumerGroup] = []
        self.delivered = {f"g{g}": 0 for g in range(cfg.consumer_groups)}
        polled = 0
        period = self.poll_period = from_seconds(cfg.poll_interval_ms / 1e3)
        spacing = period // max(1, cfg.consumer_groups * cfg.consumers_per_group)
        for g in range(cfg.consumer_groups):
            group = ConsumerGroup(f"g{g}", self.broker)
            self.groups.append(group)
            for c in range(cfg.consumers_per_group):
                member = f"g{g}-c{c}"
                group.join(member)
                start = period + (g * cfg.consumers_per_group + c) * spacing
                polled += loop.every(start, period, until, "dataplane", member,
                                     "poll", self._poll, (group, member, start))
        # a poll walks ceil(partitions / members) partitions at most, empty
        # ones too: the first counts with the poll, the rest under partitions
        self.events = {"dataplane.produce_interval_ms": sum(self.counts.values()),
                       "dataplane.poll_interval_ms": 2 * polled,
                       "dataplane.partitions":
                           (cfg.partitions - 1) // cfg.consumers_per_group * polled}

    def catch_up(self, at: SimTime, start: SimTime | None = None,
                 period: SimTime | None = None) -> None:
        """Append every record produced before the occurrence at `at` of
        the reader `EventLoop.every(start, period)`, which the run queues
        at set-up after the producers; with no reader, every record
        produced at or before `at`."""
        if at < self.next_at:
            return
        n, step, spacing = len(self.routes), self.period, self.spacing
        m, r = divmod(at, step)
        # the positions before `at`, then those at `at` that fire first
        g = m * n + (min(n, -(-r // spacing)) if spacing else n * (r > 0))
        while True:
            m, i = divmod(g, n)
            next_at = m * step + i * spacing
            if next_at != at or start is not None and (
                    EventLoop.tie_rank(at, i * spacing, step, i)
                    > EventLoop.tie_rank(at, start, period, n)):
                break
            g += 1
        if g > self.done:
            self._produce(g)
            self.next_at = next_at

    def _produce(self, end: int) -> None:
        """Append the records of positions `done` .. end - 1, in order."""
        g, self.done = self.done, end
        routes, n, step = self.routes, len(self.routes), self.period
        append, nbytes = self.broker.append, self.record_bytes
        m, i = divmod(g, n)
        seq, base, unit = str(m), m * step, m % 10
        while g < end:
            route = routes[i]
            tile, prefix, prefix_hash, count, offset, stem = route
            if m < count:
                # a key's hash steps its stem, the FNV-1a state of "<tile>:<m
                # // 10>" (of "<tile>:" while m < 10), by the byte of its
                # last digit, ord("0") + m % 10, only
                if not unit:
                    stem = route[5] = fnv1a64(str(m // 10).encode(), prefix_hash) \
                        if m else prefix_hash
                append(prefix + seq, nbytes, base + offset, tile,
                       ((stem ^ (48 + unit)) * FNV64_PRIME) & FNV64_MASK)
            g += 1
            i += 1
            if i == n:
                i, m = 0, m + 1
                seq, base, unit = str(m), base + step, m % 10

    def load(self, link_id: str, start: SimTime, period: SimTime, first: int,
             n: int) -> np.ndarray:
        """The bits per second `link_id` carries in the window (t - W, t] at
        occurrences first .. first + n - 1 of a reader `EventLoop.every(start,
        period)` queued after the producers.  A record at t counts iff
        `EventLoop.tie_rank` fires it first: a tile's first record always, a
        later one never at the reader's first firing.  Exact over the 64-bit
        range: instants in uint64, each count's rate in Python ints."""
        tiles = self.links.get(link_id)
        if tiles is None or not n:
            return np.zeros(n)
        offsets, counts = self.offsets[tiles], self.limits[tiles]
        step, window = np.uint64(self.period), np.uint64(self.window_ps)
        t = (np.arange(first, first + n, dtype=np.uint64) * np.uint64(period)
             + np.uint64(start))[:, None]
        # a re-queued record at t does not count at the reader's first
        # firing, nor where the reader ranks first; at an instant neither
        # series starts at, both rank as re-queued occurrences
        never, rank = MAX_SIM_TIME + 1, EventLoop.tie_rank
        reader = rank(never, start, period, len(self.tiles))
        skip = np.repeat([[rank(never, i * self.spacing, self.period, i) > reader
                           for i in tiles]], n, axis=0)
        if first == 0:
            skip[0] = True
        skip &= t != offsets
        k = (_records_through(t - skip, t >= offsets, offsets, counts, step)
             - _records_through(t - window, (t >= window) & (t - window >= offsets),
                                offsets, counts, step)).sum(axis=1)
        ks, index = np.unique(k, return_inverse=True)
        bits = self.record_bytes * 8 * PS_PER_S
        return np.array([c * bits / self.window_ps for c in ks.tolist()])[index]

    def _poll(self, arg) -> None:
        group, member, start = arg
        self.catch_up(self.loop.now, start, self.poll_period)
        polled = group.poll(member, self.cfg.max_poll_records)
        self.delivered[group.group_id] += polled.count
        for p in polled.partitions:
            last = group.last_delivered.get(p)
            if last is not None:
                group.commit(p, last + 1)

    def finish(self, run: RunResult) -> dict:
        self.catch_up(run.until)
        with open(run.out_dir / "traffic.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["producer", "records", "bytes"])
            for tile in self.tiles:
                w.writerow([tile, self.counts[tile],
                            self.counts[tile] * self.record_bytes])
        with open(run.out_dir / "topics.ndjson", "w") as f:
            self.broker.dump_topic(f)
        return {"topic": self.cfg.topic, "partitions": self.cfg.partitions,
                "published": self.broker.published,
                "delivered": dict(sorted(self.delivered.items())),
                "rebalances": {g.group_id: g.rebalances for g in self.groups}}


def _records_through(x, ok, offsets, counts, step):
    """Per tile, its records at or before x where `ok`, else none."""
    q = (x - offsets) // step
    return np.where(ok, np.where(q < counts, q + 1, counts), 0)


class _Timesync:
    """The sync domain, jittered by the dataplane's link load at each
    exchange's epoch, each tile's exchanges stopping before its power
    cut."""

    def __init__(self, run: RunResult, cfg):
        dataplane = run.stages.get("dataplane")
        domain = run.domain = SyncDomain(
            run.fabric, cfg, run.rng, None if dataplane is None else dataplane.load,
            run.cuts)
        self.events = {"timesync.sync_interval_s": domain.start(run.until),
                       "duration_s": domain.walk_steps(run.until)}

    def finish(self, run: RunResult) -> dict:
        report = run.sync_report = run.domain.finish()
        report.to_csv(run.out_dir / "sync_report.csv")
        return dict(report.summary(), exchanges=sum(
            p.corrections for p in run.domain.ports.values()))


class _Coherent:
    """Array gain of the energized SDR tiles at the sync residuals; set-up
    bounds the trials over every SDR tile, up to `tile_count`.  The target
    and tx power are only checked: the weights cancel any target's geometry."""

    def __init__(self, run: RunResult, cfg):
        self.sdr = sorted(t.id for t in run.fabric.tiles.values() if "sdr" in t.roles)
        n = len(self.sdr[:cfg.tile_count])
        if cfg.trials * n > MAX_TRIAL_ELEMENTS:
            raise ConfigurationError(
                f"coherent.trials {cfg.trials:,} over {n} transmitters is {cfg.trials * n:,} "
                f"trial-element pairs; a run may evaluate at most {MAX_TRIAL_ELEMENTS:,}")
        self.cfg = cfg
        self.events = {}

    def finish(self, run: RunResult) -> dict | None:
        if run.sync_report is None:
            return None
        c = self.cfg
        sdr = [t for t in self.sdr if t not in run.cuts][:c.tile_count]
        try:
            gain = evaluate_beamforming(
                run.sync_report, sdr, c.carrier_hz, c.trials,
                run.rng.stream(c.stream_label),
                phase_noise_sigma_rad=c.phase_noise_sigma_rad)
        except CoherentError as e:
            return {"error": str(e)}
        gain.write_csv(run.out_dir / "gains.csv")
        return gain.summary()


class _Rover:
    """The sampling mission, planned at set-up and run, on its own time
    steps, at finish."""

    def __init__(self, run: RunResult, r):
        room = run.fabric.room
        plan = plan_sampling(room, r.resolution_m, r.obstacles,
                             r.z_resolution_m, area=r.area)
        beacons = default_beacons(room, range_sigma_m=r.beacon_sigma_m,
                                  rate_hz=r.beacon_rate_hz,
                                  outlier_prob=r.outlier_prob)
        battery = Battery(r.battery_capacity_wh, r.battery_peak_w)
        mc = MissionConfig(speed_mps=r.speed_mps, tick_s=r.tick_s)
        self.mission = MissionRunner(room, plan, beacons, battery, mc,
                                     run.rng.stream(r.stream_label))
        self.max_duration_s = r.max_duration_s
        self.events = {"rover.tick_s": -(-from_seconds(r.max_duration_s)
                                         // from_seconds(r.tick_s))}

    def finish(self, run: RunResult) -> dict:
        try:
            section = self.mission.run(self.max_duration_s)
        except RoverError as e:
            section = {"error": str(e)}
        self.mission.write_log_csv(run.out_dir / "mission_log.csv")
        return section


# each scenario section with an `enabled` switch, by its stage, in the one
# order the stages are set up and finished in
STAGES = {"power": _Power, "dataplane": _Dataplane, "timesync": _Timesync,
          "coherent": _Coherent, "rover": _Rover}

# the most periodic work one run may ask for, counted in events: sync
# exchanges (two each), produced records (a tile's up to its cut), consumer
# polls and their partition visits, mission ticks and the clocks'
# frequency-walk steps.  A record and an exchange fire no event; their work counts.
# Every event of a run is a consumer poll of such a series.
MAX_PERIODIC_EVENTS = 10_000_000


def _check_events(events: dict[str, int]) -> None:
    """Refuse a run whose periodic events, keyed by the scenario key of
    their period, exceed MAX_PERIODIC_EVENTS, naming the key with the most:
    a run that long would not end in any useful time."""
    total = sum(events.values())
    if total > MAX_PERIODIC_EVENTS:
        key = max(events, key=events.get)
        raise ConfigurationError(
            f"{key} asks for {events[key]:,} of the run's {total:,} periodic "
            f"events; a run may queue at most {MAX_PERIODIC_EVENTS:,}")


@contextmanager
def _section(name: str):
    """Prefix a set-up error with its scenario section, unless it names a key."""
    try:
        yield
    except ConfigurationError as e:
        if str(e).startswith(name + "."):
            raise
        raise ConfigurationError(f"{name}: {e}") from e


def prepare_scenario(cfg: ScenarioConfig) -> RunResult:
    """Everything a run does before its first event, writing nothing.  The
    fabric builder and the stages' constructors check their own arguments
    (a built fabric passes `Fabric.validate`), so this raises
    ConfigurationError for exactly the scenarios `run_scenario` rejects."""
    problems = validate_scenario(cfg)
    if problems:
        raise ConfigurationError("; ".join(problems))
    rng = RngRegistry(cfg.seed)
    with _section("fabric"):
        fabric = build_default_fabric(cfg.fabric, rng.stream("fabric/cabling"))
    run = RunResult(scenario_hash(cfg), rng, fabric, EventLoop(),
                    from_seconds(cfg.duration_s))
    events = {}
    for name, stage in STAGES.items():
        section = getattr(cfg, name)
        if section.enabled:
            with _section(name):
                run.stages[name] = stage(run, section)
            events.update(run.stages[name].events)
    _check_events(events)
    return run


def run_scenario(cfg: ScenarioConfig, out_root) -> RunResult:
    """`prepare_scenario`, then the loop, each stage's finish and the
    artifacts; the directory is made only once set-up has succeeded."""
    run = prepare_scenario(cfg)
    fabric, loop = run.fabric, run.loop
    out_dir = run.out_dir = Path(out_root) / run.config_hash[:12]
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.trace_events:
        loop.trace = open(out_dir / "events.ndjson", "w")
    try:
        loop.run_until(run.until)
    finally:
        if loop.trace is not None:
            loop.trace.close()

    report = run.report = {
        "name": cfg.name,
        "seed": cfg.seed,
        "duration_s": cfg.duration_s,
        "config_hash": run.config_hash,
        "fabric": {"tiles": len(fabric.tiles), "switches": len(fabric.switches),
                   "links": len(fabric.links)},
    }
    for name, stage in run.stages.items():
        section = stage.finish(run)
        if section is not None:
            report[name] = section

    with open(out_dir / "resolved.json", "w") as f:
        f.write(resolved_json(cfg) + "\n")
    fabric.export_json(out_dir / "fabric.json")
    with open(out_dir / "report.json", "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return run
