"""End-to-end scenario execution.

`prepare_scenario` wires the stages together on a single event loop and
writes nothing: the power plane decides which tiles are energized, producers
feed the message fabric and their traffic loads the very links the sync
exchanges cross.  `tilesim validate` stops there.  `run_scenario` then runs
the loop, feeds the sync residuals to the array-gain evaluation and runs the
mobile platform's own time-stepped mission after the fabric phase.  Every
artifact lands in a directory keyed by the hash of the resolved configuration.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .coherent import CoherentError, GainResult, evaluate_beamforming
from .core import PS_PER_MS, EventLoop, RngRegistry, SimTime, from_seconds
from .dataplane import Broker, ConsumerGroup, LinkLoadTracker, fnv1a64
from .fabric import ConfigurationError, Fabric, build_default_fabric
from .powerplane import PdDevice, PsePlane
from .rover import (Battery, MissionConfig, MissionRunner, RoverError,
                    default_beacons, plan_sampling)
from .scenario import (ScenarioConfig, resolved_json, scenario_hash,
                       validate_scenario)
from .timesync import SyncDomain, SyncReport


class _Producers:
    """Periodic publishers living on the shared loop.  A producer that has
    been powered down emits nothing; its uplink and trunk loads vanish with
    it, which is exactly what the sync jitter coupling should see."""

    MODULE = "dataplane"

    def __init__(self, loop, fabric, cfg, broker, tracker, online, until_ps):
        self.loop = loop
        self.record_bytes = cfg.record_bytes
        self.broker = broker
        self.tracker = tracker
        self.online = online
        self.counts: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self.firings = 0
        candidates = sorted(t.id for t in fabric.tiles.values()
                            if "producer" in t.roles)
        self.tiles = candidates[:cfg.producer_tiles]
        period = from_seconds(cfg.produce_interval_ms / 1e3)
        spacing = period // max(1, len(self.tiles))
        for i, tile in enumerate(self.tiles):
            self.counts[tile] = 0
            self.bytes[tile] = 0
            # keys are "<tile>:<seq>"; FNV-1a is byte-serial, so the
            # constant prefix is hashed once and each key resumes from it
            prefix = f"{tile}:"
            route = (tile, prefix, fnv1a64(prefix.encode()),
                     fabric.tile_link(tile).id,
                     fabric.trunk_link(fabric.switch_for_tile(tile)).id)
            self.firings += loop.every(i * spacing, period, until_ps,
                                       self.MODULE, tile, "produce",
                                       self._produce, route)

    def _produce(self, route) -> None:
        tile, prefix, prefix_hash, tile_link, trunk_link = route
        now = self.loop.now
        if not self.online(tile):
            return
        seq = self.counts[tile]
        self.counts[tile] = seq + 1
        nbytes = self.record_bytes
        self.bytes[tile] += nbytes
        digits = str(seq)
        self.broker.append(prefix + digits, nbytes, now, tile,
                           fnv1a64(digits.encode(), prefix_hash))
        record = self.tracker.record
        record(tile_link, now, nbytes)
        record(trunk_link, now, nbytes)

    def write_traffic_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["producer", "records", "bytes"])
            for tile in self.tiles:
                w.writerow([tile, self.counts[tile], self.bytes[tile]])


class _Consumers:
    """Consumer groups polling on the shared loop and committing their
    delivery frontier after every poll."""

    MODULE = "dataplane"

    def __init__(self, loop, cfg, broker, until_ps):
        self.loop = loop
        self.cfg = cfg
        self.groups: list[ConsumerGroup] = []
        self.delivered: dict[str, int] = {}
        self.firings = 0
        period = from_seconds(cfg.poll_interval_ms / 1e3)
        members_total = max(1, cfg.consumer_groups * cfg.consumers_per_group)
        spacing = period // members_total
        k = 0
        for g in range(cfg.consumer_groups):
            group = ConsumerGroup(f"g{g}", broker)
            for c in range(cfg.consumers_per_group):
                group.join(f"g{g}-c{c}")
            self.groups.append(group)
            self.delivered[group.group_id] = 0
            for c in range(cfg.consumers_per_group):
                self.firings += loop.every(period + k * spacing, period,
                                           until_ps, self.MODULE, f"g{g}-c{c}",
                                           "poll", self._poll,
                                           (group, f"g{g}-c{c}"))
                k += 1

    def _poll(self, arg) -> None:
        group, member = arg
        res = group.poll(member, self.cfg.max_poll_records)
        self.delivered[group.group_id] += len(res.records)
        for p in group.partitions_of(member):
            last = group.last_delivered.get(p)
            if last is not None:
                group.commit(p, last + 1)


@dataclass
class RunResult:
    """A scenario's stages (None when disabled), set up by `prepare_scenario`;
    `run_scenario` fills in the rest."""
    config_hash: str
    rng: RngRegistry
    fabric: Fabric
    loop: EventLoop
    power: PsePlane | None = None
    broker: Broker | None = None
    producers: _Producers | None = None
    consumers: _Consumers | None = None
    domain: SyncDomain | None = None
    mission: MissionRunner | None = None
    out_dir: Path | None = None
    report: dict | None = None
    sync_report: SyncReport | None = None
    gain: GainResult | None = None


def _setup_power(cfg: ScenarioConfig, fabric: Fabric, loop: EventLoop,
                 until: SimTime) -> PsePlane:
    p = cfg.power
    plane = PsePlane(
        midspan_count=p.midspan_count,
        global_budget_mw=int(round(p.global_budget_w * 1000)),
        midspan_budget_mw=None if p.midspan_budget_w is None
        else int(round(p.midspan_budget_w * 1000)),
        detection_window_ps=p.detection_window_ms * PS_PER_MS)
    for tile in fabric.tiles.values():
        if "pd" not in tile.roles:
            continue
        dev = PdDevice(tile.id, requested_class=p.requested_class,
                       base_mw=p.base_mw)
        dev.processing.set_from(0, p.processing_mw)
        dev.peripheral.set_from(0, p.peripheral_mw)
        plane.register(dev)
    if p.overdraw_tile is not None:
        if p.overdraw_tile not in plane.devices:
            raise ConfigurationError(
                f"power.overdraw_tile {p.overdraw_tile!r} is not a powered tile")
        dev = plane.devices[p.overdraw_tile]
        dev.processing.set_from(from_seconds(p.overdraw_at_s),
                                int(round(p.overdraw_w * 1000)))
    for tile_id in sorted(plane.devices):
        plane.allocate(tile_id, at=0)
    # a cut after the run's end never fires, and may lie past the 64-bit range
    for ev in plane.pending_disconnects():
        if ev.at_ps <= until:
            loop.schedule(ev.at_ps, "power", ev.tile_id, "pd_disconnect",
                          lambda _arg: plane.monitor(loop.now))
    return plane


# the most periodic firings (sync epochs, produce events, consumer polls
# and mission ticks together) one run may queue
MAX_PERIODIC_FIRINGS = 10_000_000


def _check_firings(firings: dict[str, int]) -> None:
    """Refuse a run whose periodic firings, keyed by the scenario key of
    their period, exceed MAX_PERIODIC_FIRINGS, naming the key with the
    most: a run that long would not end in any useful time."""
    total = sum(firings.values())
    if total > MAX_PERIODIC_FIRINGS:
        key = max(firings, key=firings.get)
        raise ConfigurationError(
            f"{key} asks for {firings[key]:,} of the run's {total:,} periodic "
            f"events; a run may queue at most {MAX_PERIODIC_FIRINGS:,}")


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
    stages' constructors check their own arguments, so this raises
    ConfigurationError for exactly the scenarios `run_scenario` rejects."""
    problems = validate_scenario(cfg)
    if problems:
        raise ConfigurationError("; ".join(problems))
    rng = RngRegistry(cfg.seed)
    with _section("fabric"):
        fabric = build_default_fabric(cfg.fabric, rng.stream("fabric/cabling"))
        fabric_problems = fabric.validate()
        if fabric_problems:
            raise ConfigurationError("; ".join(fabric_problems))
    loop = EventLoop()
    until = from_seconds(cfg.duration_s)
    run = RunResult(scenario_hash(cfg), rng, fabric, loop)

    with _section("power"):
        plane = run.power = (_setup_power(cfg, fabric, loop, until)
                             if cfg.power.enabled else None)
    online = plane.is_online if plane is not None else (lambda tile_id: True)

    firings = {}
    tracker = None
    if cfg.dataplane.enabled:
        d = cfg.dataplane
        with _section("dataplane"):
            run.broker = broker = Broker(d.topic, d.partitions,
                                         d.retention_records)
            tracker = LinkLoadTracker(from_seconds(d.load_window_ms / 1e3))
            run.producers = _Producers(loop, fabric, d, broker, tracker,
                                       online, until)
            run.consumers = _Consumers(loop, d, broker, until)
        firings["dataplane.produce_interval_ms"] = run.producers.firings
        firings["dataplane.poll_interval_ms"] = run.consumers.firings

    if cfg.timesync.enabled:
        with _section("timesync"):
            run.domain = SyncDomain(loop, fabric, cfg.timesync, rng, tracker,
                                    online)
            if plane is not None:
                plane.on_disconnect.append(run.domain.mark_offline)
            firings["timesync.sync_interval_s"] = run.domain.start(until)

    if cfg.rover.enabled:
        r = cfg.rover
        with _section("rover"):
            plan = plan_sampling(fabric.room, r.resolution_m, r.obstacles,
                                 r.z_resolution_m, area=r.area)
            beacons = default_beacons(fabric.room,
                                      range_sigma_m=r.beacon_sigma_m,
                                      rate_hz=r.beacon_rate_hz,
                                      outlier_prob=r.outlier_prob)
            battery = Battery(r.battery_capacity_wh, r.battery_peak_w)
            mc = MissionConfig(speed_mps=r.speed_mps, tick_s=r.tick_s)
            run.mission = MissionRunner(fabric.room, plan, beacons, battery,
                                        mc, rng.stream(r.stream_label))
        firings["rover.tick_s"] = -(-from_seconds(r.max_duration_s)
                                    // from_seconds(r.tick_s))
    _check_firings(firings)
    return run


def run_scenario(cfg: ScenarioConfig, out_root) -> RunResult:
    """`prepare_scenario`, then the loop, the mission and the artifacts; the
    directory is made only once set-up has succeeded."""
    run = prepare_scenario(cfg)
    fabric, loop, plane, domain = run.fabric, run.loop, run.power, run.domain
    until = from_seconds(cfg.duration_s)
    out_dir = run.out_dir = Path(out_root) / run.config_hash[:12]
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.trace_events:
        loop.trace = open(out_dir / "events.ndjson", "w")
    try:
        loop.run_until(until)
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

    if domain is not None:
        run.sync_report = domain.finish()
        run.sync_report.to_csv(out_dir / "sync_report.csv")
        report["timesync"] = dict(
            run.sync_report.summary(),
            exchanges=sum(p.corrections for p in domain.ports.values()))

    if plane is not None:
        plane.monitor(until)
        plane.write_ledger_csv(out_dir / "power_ledger.csv")
        report["power"] = plane.summary()

    if run.broker is not None:
        run.producers.write_traffic_csv(out_dir / "traffic.csv")
        with open(out_dir / "topics.ndjson", "w") as f:
            f.write(run.broker.dump_topic())
        report["dataplane"] = {
            "topic": cfg.dataplane.topic,
            "partitions": cfg.dataplane.partitions,
            "published": run.broker.published,
            "delivered": dict(sorted(run.consumers.delivered.items())),
            "rebalances": {g.group_id: len(g.rebalances)
                           for g in run.consumers.groups},
        }

    if cfg.coherent.enabled and run.sync_report is not None:
        c = cfg.coherent
        sdr = sorted(t.id for t in fabric.tiles.values() if "sdr" in t.roles
                     and (plane is None or plane.is_online(t.id)))
        if c.tile_count is not None:
            sdr = sdr[:c.tile_count]
        try:
            run.gain = evaluate_beamforming(
                fabric, run.sync_report, c.carrier_hz, tuple(c.target), c.trials,
                run.rng.stream(c.stream_label), tiles=sdr,
                phase_noise_sigma_rad=c.phase_noise_sigma_rad,
                tx_power_dbm=c.tx_power_dbm)
            run.gain.write_csv(out_dir / "gains.csv")
            report["coherent"] = run.gain.summary()
        except CoherentError as e:
            report["coherent"] = {"error": str(e)}

    if run.mission is not None:
        try:
            report["rover"] = run.mission.run(cfg.rover.max_duration_s)
        except RoverError as e:
            report["rover"] = {"error": str(e)}
        run.mission.write_log_csv(out_dir / "mission_log.csv")

    with open(out_dir / "resolved.json", "w") as f:
        f.write(resolved_json(cfg) + "\n")
    fabric.export_json(out_dir / "fabric.json")
    with open(out_dir / "report.json", "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return run
