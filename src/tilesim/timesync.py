"""Clock models and two-step time transfer over the simulated fabric.

Every tile carries a free-running oscillator (initial offset, frequency
error, frequency random walk, quantized readout).  The central node is the
time root; slaves run periodic four-timestamp exchanges through their switch,
which either acts as a transparent relay (residence time measured with its
own imperfect clock and accumulated into the message correction) or as an
intermediate boundary node that disciplines its own clock upstream and
serves its tiles from it.  A PI servo steers each slave's frequency from the
measured offsets.

Conventions used throughout:
  - timestamps and corrections are integer picoseconds,
  - clock offset means local minus true time,
  - halvings in the offset/delay arithmetic truncate toward zero, so any
    independent implementation agrees bit-exactly,
  - in-path corrections are kept per direction; the forward correction is
    what relays added to the sync leg, the reverse one to the delay-request
    leg.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (EventLoop, PS_PER_S, PS_PER_US, RngRegistry, RngStream,
                   SimTime, SimulationError, from_seconds)
from .fabric import ConfigurationError, Fabric, Link


def quantize_ps(local_ps: float, granularity_ps: int) -> int:
    """Truncate a local time to the timestamp tick grid (counter semantics)."""
    return (math.floor(local_ps) // granularity_ps) * granularity_ps


class LocalClock:
    """Free-running oscillator.

    State advances lazily: every read evolves the clock to the requested
    true time, so two reads at the same instant agree.  The frequency
    random walk scales with the square root of elapsed time, making the
    statistics independent of read cadence.
    """

    def __init__(self, offset_ps: float = 0.0, freq_error_ppm: float = 0.0,
                 rw_sigma_ppm_per_sqrt_s: float = 0.0, granularity_ps: int = 1,
                 rng: RngStream | None = None):
        if granularity_ps < 1:
            raise ConfigurationError("granularity must be at least 1 ps")
        self.offset_ps = float(offset_ps)          # local minus true
        self.freq_error_ppm = float(freq_error_ppm)
        self.rw_sigma = float(rw_sigma_ppm_per_sqrt_s)
        self.granularity_ps = int(granularity_ps)
        self.freq_adj_ppm = 0.0                    # servo-applied steering
        self._rng = rng
        self._last_t: SimTime = 0

    def _evolve(self, true_t: SimTime) -> None:
        dt = true_t - self._last_t
        if dt < 0:
            raise SimulationError("clock read moved backwards in true time")
        if dt == 0:
            return
        self.offset_ps += (self.freq_error_ppm + self.freq_adj_ppm) * 1e-6 * dt
        if self.rw_sigma and self._rng is not None:
            self.freq_error_ppm += self._rng.normal(
                self.rw_sigma * math.sqrt(dt / PS_PER_S))
        self._last_t = true_t

    def read(self, true_t: SimTime) -> int:
        """Timestamp the given true instant on this clock's tick grid."""
        self._evolve(true_t)
        return quantize_ps(true_t + self.offset_ps, self.granularity_ps)

    def offset_at(self, true_t: SimTime) -> float:
        """Current raw offset (no readout quantization)."""
        self._evolve(true_t)
        return self.offset_ps


# --- exchange arithmetic ----------------------------------------------------

@dataclass(frozen=True)
class OffsetSample:
    offset_ps: int
    mean_path_delay_ps: int
    negative_delay: bool     # symptom of uncompensated asymmetry


def _halve_toward_zero(v: int) -> int:
    return -((-v) // 2) if v < 0 else v // 2


def two_step_offset(t1: int, t2: int, t3: int, t4: int,
                    fwd_correction: int = 0, rev_correction: int = 0) -> OffsetSample:
    """Offset and mean path delay from one four-timestamp exchange.

    t1/t4 are taken on the master clock, t2/t3 on the slave.  Corrections
    are the residence sums relays accumulated on each leg.  A negative
    computed delay is returned as-is and flagged.
    """
    fwd = t2 - t1 - fwd_correction
    rev = t4 - t3 - rev_correction
    return OffsetSample(_halve_toward_zero(fwd - rev),
                        _halve_toward_zero(fwd + rev),
                        fwd + rev < 0)


@dataclass
class PtpMessage:
    """A timestamped message (Sync or DelayReq) crossing the relays."""
    seq: int
    origin_timestamp_ps: int = 0
    correction_ps: int = 0


def transparent_correct(message: PtpMessage, residence_measured_ps: int) -> PtpMessage:
    """Accumulate a relay's measured residence into the message correction."""
    message.correction_ps += residence_measured_ps
    return message


# --- servo ------------------------------------------------------------------

@dataclass
class ServoState:
    """PI frequency discipline.

    kp and ki are per-epoch, dimensionless: kp is the fraction of the
    measured offset removed over one sync interval.  The interval factor
    converts offset-per-epoch into a ppm rate.
    """
    kp: float = 0.7
    ki: float = 0.3
    clamp_ppm: float = 100.0
    interval_s: float = 1.0
    lock_threshold_ps: int = 1_000_000
    lock_count: int = 5
    integrator_ps: float = 0.0
    freq_adj_ppm: float = 0.0
    locked: bool = False
    _run: int = field(default=0, repr=False)


def servo_update(servo: ServoState, offset_ps: float) -> float:
    """Feed one measured offset; returns the new frequency adjustment (ppm)."""
    servo.integrator_ps += offset_ps
    raw = -(servo.kp * offset_ps + servo.ki * servo.integrator_ps) \
        * 1e-6 / servo.interval_s
    servo.freq_adj_ppm = max(-servo.clamp_ppm, min(servo.clamp_ppm, raw))
    if abs(offset_ps) < servo.lock_threshold_ps:
        servo._run += 1
        if servo._run >= servo.lock_count:
            servo.locked = True
    else:
        servo._run = 0
        servo.locked = False
    return servo.freq_adj_ppm


# --- configuration ----------------------------------------------------------

@dataclass
class OscillatorConfig:
    init_offset_us: float = 10.0     # drawn uniform in +-this
    freq_error_ppm: float = 10.0     # drawn uniform in +-this
    rw_sigma_ppm_per_sqrt_s: float = 0.05
    granularity_ps: int = 8_000


@dataclass
class TimesyncConfig:
    enabled: bool = True
    start_s: float = 0.5
    sync_interval_s: float = 1.0
    stagger_ms: float = 5.0          # per-slave phase spread of the epochs
    followup_lag_us: float = 100.0
    turnaround_us: float = 500.0
    residence_us: float = 2.0        # relay dwell per transit
    tile_osc: OscillatorConfig = field(default_factory=OscillatorConfig)
    switch_osc: OscillatorConfig = field(default_factory=OscillatorConfig)
    gm_osc: OscillatorConfig = field(default_factory=lambda: OscillatorConfig(0.0, 0.0, 0.0, 1))
    servo_kp: float = 0.7
    servo_ki: float = 0.3
    servo_clamp_ppm: float = 100.0
    jitter_scale: float = 1.0        # global multiplier on link jitter sigmas
    load_coupling: float = 1.0       # sigma multiplier slope per unit utilization
    sample_interval_s: float = 0.1
    convergence_threshold_us: float = 2.0
    convergence_samples: int = 10
    boundary_switches: tuple = ()
    record_exchanges: bool = True
    stream_label: str = "timesync"


# --- report -----------------------------------------------------------------

@dataclass
class ExchangeRecord:
    node: str
    seq: int
    t1: int
    t2: int
    t3: int
    t4: int
    fwd_correction: int
    rev_correction: int
    offset_ps: int
    delay_ps: int
    true_offset_ps: float
    at_ps: SimTime


class SyncReport:
    """Residual-offset series per disciplined node, plus summary statistics.

    Convergence per node is the first sample from which a configured number
    of consecutive samples stay inside the threshold band; percentiles pool
    the absolute residuals of every node from its convergence point on, with
    no re-filtering, so late excursions count against the statistics.
    """

    def __init__(self, threshold_ps: int, consecutive: int):
        self.threshold_ps = threshold_ps
        self.consecutive = consecutive
        self._times: dict[str, list[int]] = {}
        self._resid: dict[str, list[float]] = {}
        self._conv_idx: dict[str, int | None] = {}
        self._finalized = False

    def add_sample(self, node: str, t: SimTime, residual_ps: float) -> None:
        times = self._times.get(node)
        if times is None:
            times = self._times[node] = []
            self._resid[node] = []
        times.append(t)
        self._resid[node].append(residual_ps)

    def finalize(self) -> None:
        for node, r in self._resid.items():
            arr = np.asarray(r)
            self._resid[node] = arr
            ok = np.abs(arr) < self.threshold_ps
            idx = None
            run = 0
            for i, good in enumerate(ok):
                run = run + 1 if good else 0
                if run == self.consecutive:
                    idx = i - self.consecutive + 1
                    break
            self._conv_idx[node] = idx
        self._finalized = True

    @property
    def nodes(self) -> list[str]:
        return sorted(self._resid)

    def series(self, node: str) -> tuple[list[int], np.ndarray]:
        return self._times[node], np.asarray(self._resid[node])

    def convergence_time_ps(self, node: str) -> int | None:
        idx = self._conv_idx.get(node)
        return None if idx is None else self._times[node][idx]

    def overall_convergence_ps(self) -> int | None:
        times = [self.convergence_time_ps(n) for n in self.nodes]
        if not times or any(t is None for t in times):
            return None
        return max(times)

    def post_convergence(self, node: str) -> np.ndarray:
        idx = self._conv_idx.get(node)
        if idx is None:
            return np.empty(0)
        return np.asarray(self._resid[node])[idx:]

    def percentiles(self) -> dict:
        pooled = [self.post_convergence(n) for n in self.nodes]
        pooled = [p for p in pooled if len(p)]
        if not pooled:
            return {"p50": None, "p95": None, "p99": None}
        a = np.abs(np.concatenate(pooled))
        return {"p50": float(np.percentile(a, 50)),
                "p95": float(np.percentile(a, 95)),
                "p99": float(np.percentile(a, 99))}

    def summary(self) -> dict:
        p = self.percentiles()
        conv = self.overall_convergence_ps()
        unconverged = sorted(n for n in self.nodes if self._conv_idx.get(n) is None)
        return {
            "nodes": len(self.nodes),
            "convergence_time_ps": conv,
            "unconverged_nodes": unconverged,
            "p50_residual_ps": p["p50"],
            "p95_residual_ps": p["p95"],
            "p99_residual_ps": p["p99"],
        }

    def to_csv(self, path) -> None:
        """One row per sample, residuals rounded half to even.  Each node's
        rows are written as one block, laid out exactly as `csv.writer`
        would write them."""
        with open(path, "w", newline="") as f:
            csv.writer(f).writerow(["true_time_ps", "node", "residual_ps"])
            for node in self.nodes:
                resid = self._resid[node]
                if isinstance(resid, np.ndarray):
                    resid = resid.tolist()
                field = _csv_field(node)
                f.write("".join([f"{t},{field},{round(r)}\r\n"
                                 for t, r in zip(self._times[node], resid)]))


def _csv_field(text: str) -> str:
    """`text` quoted as `csv.writer` quotes a field in the middle of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]        # drop the empty field's ",\r\n"


# --- domain engine ----------------------------------------------------------

@dataclass
class PtpPort:
    """Slave-side exchange state toward one upstream master."""
    node: str
    master: str
    path: tuple          # link hops, see _Path
    servo: ServoState
    seq: int = 0
    corrections: int = 0
    t1: int | None = None
    t2: int | None = None
    t3: int = 0
    fwd_correction: int = 0


@dataclass(frozen=True)
class _Path:
    """Route between master and slave: optional relay in the middle."""
    up_link: Link | None     # master <-> relay (None when directly attached)
    relay: str | None
    down_link: Link          # relay (or master) <-> slave; b-side faces the slave


class SyncDomain:
    """Schedules periodic exchanges for every clock-role tile (and boundary
    switch) over an event loop and collects the residual series."""

    MODULE = "timesync"

    def __init__(self, loop: EventLoop, fabric: Fabric, config: TimesyncConfig,
                 rng: RngRegistry, load_lookup=None, online=None):
        self.loop = loop
        self.fabric = fabric
        self.config = config
        self.rng = rng
        self._load = load_lookup             # (link_id, t) -> utilization in [0, 1]
        self._online = online or (lambda tile_id: True)
        self.report = SyncReport(from_seconds(config.convergence_threshold_us / 1e6),
                                 config.convergence_samples)
        self.exchanges: list[ExchangeRecord] = []
        self.clocks: dict[str, LocalClock] = {}
        self.ports: dict[str, PtpPort] = {}
        # link id -> (normal draw of its jitter stream, lognormal shape s,
        # exp(s^2/2) * sqrt(expm1(s^2))), filled on a link's first draw
        self._jitter: dict[str, tuple] = {}
        self._interval_ps = from_seconds(config.sync_interval_s)
        self._residence_ps = from_seconds(config.residence_us / 1e6)
        self._followup_lag_ps = from_seconds(config.followup_lag_us / 1e6)
        self._turnaround_ps = from_seconds(config.turnaround_us / 1e6)

        label = config.stream_label
        init = rng.stream(f"{label}/init")
        self.clocks[fabric.central_id] = self._make_clock(config.gm_osc, fabric.central_id, init)
        for sw_id in fabric.switches:
            self.clocks[sw_id] = self._make_clock(config.switch_osc, sw_id, init)
        clock_tiles = [t for t in fabric.tiles.values() if "clock" in t.roles]
        for t in clock_tiles:
            self.clocks[t.id] = self._make_clock(config.tile_osc, t.id, init)

        boundary = set(config.boundary_switches)
        unknown = boundary - set(fabric.switches)
        if unknown:
            raise ConfigurationError(f"boundary switches not in fabric: {sorted(unknown)}")
        for sw_id in sorted(boundary):
            self.ports[sw_id] = PtpPort(
                sw_id, fabric.central_id,
                _Path(None, None, fabric.trunk_link(sw_id)), self._make_servo())
        for t in clock_tiles:
            sw_id = fabric.switch_for_tile(t.id)
            if sw_id in boundary:
                path = _Path(None, None, fabric.tile_link(t.id))
                master = sw_id
            else:
                path = _Path(fabric.trunk_link(sw_id), sw_id, fabric.tile_link(t.id))
                master = fabric.central_id
            self.ports[t.id] = PtpPort(t.id, master, path, self._make_servo())

    def _make_clock(self, osc: OscillatorConfig, node_id: str, init: RngStream) -> LocalClock:
        # draws happen for every node in creation order, so one node's
        # initial conditions do not depend on another's noise settings
        off = init.uniform(-osc.init_offset_us, osc.init_offset_us)
        fe = init.uniform(-osc.freq_error_ppm, osc.freq_error_ppm)
        walk = self.rng.stream(f"{self.config.stream_label}/oscillator/{node_id}")
        return LocalClock(round(off * PS_PER_US), fe, osc.rw_sigma_ppm_per_sqrt_s,
                          osc.granularity_ps, walk)

    def _make_servo(self) -> ServoState:
        c = self.config
        return ServoState(kp=c.servo_kp, ki=c.servo_ki, clamp_ppm=c.servo_clamp_ppm,
                          interval_s=c.sync_interval_s)

    # -- noise --

    def effective_jitter_sigma_ns(self, link: Link, t: SimTime) -> float:
        sigma = link.jitter_sigma_ns * self.config.jitter_scale
        if sigma > 0 and self._load is not None:
            sigma *= 1.0 + self.config.load_coupling * self._load(link.id, t)
        return sigma

    def _jitter_ps(self, link: Link, t: SimTime) -> int:
        sigma_ns = self.effective_jitter_sigma_ns(link, t)
        if sigma_ns <= 0:
            return 0
        state = self._jitter.get(link.id)
        if state is None:
            s = link.jitter_shape
            stream = self.rng.stream(f"{self.config.stream_label}/jitter/{link.id}")
            state = self._jitter[link.id] = (
                stream.normal, s, math.exp(s * s / 2) * math.sqrt(math.expm1(s * s)))
        normal, s, denom = state
        return int(round(sigma_ns / denom * math.exp(s * normal()) * 1000))

    # -- lifecycle --

    def start(self, until_ps: SimTime) -> None:
        self._until = until_ps
        c = self.config
        t0 = from_seconds(c.start_s)
        stagger = from_seconds(c.stagger_ms / 1e3)
        for i, node in enumerate(sorted(self.ports)):
            self.loop.every(t0 + i * stagger, self._interval_ps, until_ps,
                            self.MODULE, node, "sync_egress", self._sync_egress, node)
        tick = from_seconds(c.sample_interval_s)
        self.loop.every(tick, tick, until_ps, self.MODULE, "all",
                        "sample_residuals", self._sample)

    def _schedule(self, t, target, action, fn, arg):
        """Queue one step of an exchange, dropped if it falls after the run."""
        if t <= self._until:
            self.loop.schedule(t, self.MODULE, target, action, fn, arg)

    def _sample(self, _arg) -> None:
        # a node enters the report once its discipline loop has closed at
        # least once; before the first correction it is free-running and a
        # quiet streak would be declared "converged" by pure luck
        now = self.loop.now
        clocks = self.clocks
        add_sample = self.report.add_sample
        online = self._online
        tiles = self.fabric.tiles
        for node, port in self.ports.items():
            if port.corrections > 0 and (node not in tiles or online(node)):
                add_sample(node, now, clocks[node].offset_at(now))

    def _is_online(self, node: str) -> bool:
        if node in self.fabric.tiles:
            return self._online(node)
        return True

    # -- exchange machinery.  One exchange is a chain of events:
    # sync_egress -> (relay ingress/egress) -> sync_arrival, a follow-up
    # arrival carrying the precise t1, then delay_req back through the relay
    # and a direct delay_resp.  Residence accumulates on the timestamped legs
    # via the relay's own clock; the follow-up and delay_resp transits are
    # deterministic since nothing timestamps them.

    def _sync_egress(self, node: str) -> None:
        port = self.ports[node]
        now = self.loop.now
        if not self._is_online(node):
            return
        port.seq += 1
        port.t1 = None
        port.t2 = None
        t1 = self.clocks[port.master].read(now)
        msg = PtpMessage(port.seq)
        path = port.path
        if path.up_link is not None:
            hop = path.up_link.delay_ps(from_a=True) + self._jitter_ps(path.up_link, now)
            self._schedule(now + hop, node, "relay_ingress", self._relay_ingress,
                           (msg, node, "sync"))
            fup_transit = (path.up_link.delay_ps(True) + self._residence_ps
                           + path.down_link.delay_ps(True))
        else:
            hop = path.down_link.delay_ps(from_a=True) + self._jitter_ps(path.down_link, now)
            self._schedule(now + hop, node, "sync_arrival", self._sync_arrival,
                           (msg, node, port.seq))
            fup_transit = path.down_link.delay_ps(True)
        fup_at = now + self._followup_lag_ps + fup_transit
        self._schedule(fup_at, node, "followup_arrival", self._followup_arrival,
                       (node, port.seq, t1))

    def _relay_ingress(self, arg) -> None:
        msg, node, leg = arg
        port = self.ports[node]
        relay = port.path.relay
        now = self.loop.now
        t_in = self.clocks[relay].read(now)
        self._schedule(now + self._residence_ps, node, "relay_egress",
                       self._relay_egress, (msg, node, leg, t_in))

    def _relay_egress(self, arg) -> None:
        msg, node, leg, t_in = arg
        port = self.ports[node]
        relay = self.fabric.switches[port.path.relay]
        now = self.loop.now
        if relay.transparent_clock:
            t_out = self.clocks[relay.id].read(now)
            transparent_correct(msg, t_out - t_in)
        if leg == "sync":
            link = port.path.down_link
            hop = link.delay_ps(from_a=True) + self._jitter_ps(link, now)
            self._schedule(now + hop, node, "sync_arrival", self._sync_arrival,
                           (msg, node, msg.seq))
        else:
            link = port.path.up_link
            hop = link.delay_ps(from_a=False) + self._jitter_ps(link, now)
            self._schedule(now + hop, node, "delay_req_arrival",
                           self._delay_req_arrival, (msg, node))

    def _sync_arrival(self, arg) -> None:
        msg, node, seq = arg
        port = self.ports[node]
        if seq != port.seq or not self._is_online(node):
            return
        port.t2 = self.clocks[node].read(self.loop.now)
        port.fwd_correction = msg.correction_ps
        self._maybe_send_delay_req(port)

    def _followup_arrival(self, arg) -> None:
        node, seq, t1 = arg
        port = self.ports[node]
        if seq != port.seq or not self._is_online(node):
            return
        port.t1 = t1
        self._maybe_send_delay_req(port)

    def _maybe_send_delay_req(self, port: PtpPort) -> None:
        if port.t1 is None or port.t2 is None:
            return
        at = self.loop.now + self._turnaround_ps
        self._schedule(at, port.node, "delay_req_egress", self._delay_req_egress,
                       (port.node, port.seq))

    def _delay_req_egress(self, arg) -> None:
        node, seq = arg
        port = self.ports[node]
        if seq != port.seq or not self._is_online(node):
            return
        now = self.loop.now
        port.t3 = self.clocks[node].read(now)
        msg = PtpMessage(seq)
        path = port.path
        link = path.down_link
        hop = link.delay_ps(from_a=False) + self._jitter_ps(link, now)
        if path.relay is not None:
            self._schedule(now + hop, node, "relay_ingress", self._relay_ingress,
                           (msg, node, "delay_req"))
        else:
            self._schedule(now + hop, node, "delay_req_arrival",
                           self._delay_req_arrival, (msg, node))

    def _delay_req_arrival(self, arg) -> None:
        msg, node = arg
        port = self.ports[node]
        if msg.seq != port.seq:
            return
        now = self.loop.now
        t4 = self.clocks[port.master].read(now)
        path = port.path
        transit = path.down_link.base_delay_ps
        if path.up_link is not None:
            transit += path.up_link.base_delay_ps + self._residence_ps
        self._schedule(now + transit, node, "delay_resp_arrival",
                       self._delay_resp_arrival, (node, msg.seq, t4, msg.correction_ps))

    def _delay_resp_arrival(self, arg) -> None:
        node, seq, t4, rev_correction = arg
        port = self.ports[node]
        if seq != port.seq or not self._is_online(node):
            return
        now = self.loop.now
        sample = two_step_offset(port.t1, port.t2, port.t3, t4,
                                 port.fwd_correction, rev_correction)
        clock = self.clocks[node]
        # evolve under the old steering before applying the new one
        true_offset = clock.offset_at(now)
        clock.freq_adj_ppm = servo_update(port.servo, sample.offset_ps)
        port.corrections += 1
        if self.config.record_exchanges:
            self.exchanges.append(ExchangeRecord(
                node, seq, port.t1, port.t2, port.t3, t4,
                port.fwd_correction, rev_correction,
                sample.offset_ps, sample.mean_path_delay_ps,
                true_offset, now))


def run_sync_domain(fabric: Fabric, config: TimesyncConfig, duration_s: float,
                    seed: int = 0, rng: RngRegistry | None = None,
                    loop: EventLoop | None = None, load_lookup=None,
                    online=None) -> tuple[SyncReport, SyncDomain]:
    """Convenience wrapper: build a domain, run it, return the finalized report."""
    loop = loop or EventLoop()
    rng = rng or RngRegistry(seed)
    domain = SyncDomain(loop, fabric, config, rng, load_lookup, online)
    until = from_seconds(duration_s)
    domain.start(until)
    loop.run_until(until)
    domain.report.finalize()
    return domain.report, domain
