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
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import (EventLoop, PS_PER_S, PS_PER_US, RngRegistry, RngStream,
                   SimTime, SimulationError, from_seconds)
from .fabric import ConfigurationError, Fabric, Link


# the most residual samples (ports times sampler ticks) one run may ask for
MAX_RESIDUAL_SAMPLES = 10_000_000


def quantize_ps(local_ps: float, granularity_ps: int) -> int:
    """Truncate a local time to the timestamp tick grid (counter semantics)."""
    return (math.floor(local_ps) // granularity_ps) * granularity_ps


class LocalClock:
    """Free-running oscillator.

    State advances lazily: `offset_at` moves the phase to the requested true
    time at the current rate (frequency error plus servo steering), then
    steps the frequency random walk by one draw scaled to the square root of
    the elapsed time, so the walk's statistics do not depend on read cadence.
    Between two reads the offset is therefore linear.  A clock made with
    `record=True` keeps the start of each such segment (true time, offset,
    rate), from which `offsets` evaluates later instants without drawing.
    """

    def __init__(self, offset_ps: float = 0.0, freq_error_ppm: float = 0.0,
                 rw_sigma_ppm_per_sqrt_s: float = 0.0, granularity_ps: int = 1,
                 rng: RngStream | None = None, record: bool = False):
        if granularity_ps < 1:
            raise ConfigurationError("granularity must be at least 1 ps")
        self.offset_ps = float(offset_ps)          # local minus true
        self.freq_error_ppm = float(freq_error_ppm)
        self.rw_sigma = float(rw_sigma_ppm_per_sqrt_s)
        self.granularity_ps = int(granularity_ps)
        self.freq_adj_ppm = 0.0                    # servo-applied steering
        self._rng = rng
        self._last_t: SimTime = 0
        # segment starts: true ps, and (offset, rate ppm) pairs
        self._path = (array("Q"), array("d")) if record else None

    def read(self, true_t: SimTime) -> int:
        """Timestamp the given true instant on this clock's tick grid."""
        return quantize_ps(true_t + self.offset_at(true_t), self.granularity_ps)

    def offset_at(self, true_t: SimTime) -> float:
        """Raw offset at the given true instant (no readout quantization)."""
        dt = true_t - self._last_t
        if dt:
            if dt < 0:
                raise SimulationError("clock read moved backwards in true time")
            rate = self.freq_error_ppm + self.freq_adj_ppm
            if self._path is not None:
                starts, segments = self._path
                starts.append(self._last_t)
                segments.append(self.offset_ps)
                segments.append(rate)
            self.offset_ps += rate * 1e-6 * dt
            if self.rw_sigma and self._rng is not None:
                self.freq_error_ppm += self._rng.normal(
                    self.rw_sigma * math.sqrt(dt / PS_PER_S))
            self._last_t = true_t
        return self.offset_ps

    def offsets(self, times: np.ndarray) -> np.ndarray:
        """The offset at each of `times` (uint64 true ps, each after 0), as
        `offset_at` would have returned it there on this clock as it stood
        then, from the recorded path.  An instant that starts a segment
        takes the end of the one before: the same bits that read gave."""
        starts, segments = self._path
        starts = np.append(np.frombuffer(starts, np.uint64), np.uint64(self._last_t))
        segments = np.append(np.frombuffer(segments, float), (
            self.offset_ps, self.freq_error_ppm + self.freq_adj_ppm)).reshape(-1, 2)
        k = np.searchsorted(starts, times, side="left") - 1
        return segments[k, 0] + segments[k, 1] * 1e-6 * (times - starts[k])


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
    no re-filtering, so late excursions count against the statistics.  A
    node named offline at `finalize` was cut during the run: it is listed
    apart, and neither counts as unconverged nor holds back the overall
    convergence time.
    """

    def __init__(self, threshold_ps: int, consecutive: int):
        self.threshold_ps = threshold_ps
        self.consecutive = consecutive
        self._times: dict[str, list[int]] = {}
        self._resid: dict[str, list[float]] = {}
        self._conv_idx: dict[str, int | None] = {}
        self.offline: list[str] = []

    def add_sample(self, node: str, t: SimTime, residual_ps: float) -> None:
        self._times.setdefault(node, []).append(t)
        self._resid.setdefault(node, []).append(residual_ps)

    def add_series(self, node: str, times: list[int], residuals) -> None:
        """A node's whole series at once: its sample times and residuals."""
        self._times[node] = times
        self._resid[node] = residuals

    def finalize(self, offline=()) -> None:
        self.offline = sorted(offline)
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

    @property
    def nodes(self) -> list[str]:
        return sorted(self._resid)

    def series(self, node: str) -> tuple[list[int], np.ndarray]:
        return self._times[node], np.asarray(self._resid[node])

    def convergence_time_ps(self, node: str) -> int | None:
        idx = self._conv_idx.get(node)
        return None if idx is None else self._times[node][idx]

    def overall_convergence_ps(self) -> int | None:
        """The latest convergence time of the nodes never cut, if all did."""
        offline = set(self.offline)
        times = [self.convergence_time_ps(n) for n in self.nodes if n not in offline]
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
        offline = set(self.offline)
        unconverged = [n for n in self.nodes
                       if self._conv_idx.get(n) is None and n not in offline]
        return {
            "nodes": len(self.nodes),
            "convergence_time_ps": conv,
            "unconverged_nodes": unconverged,
            "offline_nodes": self.offline,
            "p50_residual_ps": p["p50"],
            "p95_residual_ps": p["p95"],
            "p99_residual_ps": p["p99"],
        }

    def to_csv(self, path) -> None:
        """One row per sample, residuals rounded half to even (`np.rint`, as
        `round` does).  Each node's rows are written as one block, laid out
        exactly as `csv.writer` would write them."""
        with open(path, "w", newline="") as f:
            csv.writer(f).writerow(["true_time_ps", "node", "residual_ps"])
            for node in self.nodes:
                field = _csv_field(node)
                f.write("".join([f"{t},{field},{r}\r\n" for t, r in zip(
                    self._times[node], _rounded(self._resid[node]))]))


def _rounded(values) -> list[int]:
    """Each value rounded half to even, as Python ints.  Values outside the
    int64 range, or not finite, take `round` itself, so the result (or the
    error) is always round's."""
    arr = np.asarray(values, dtype=float)
    if np.all(np.abs(arr) < 2.0**62):
        return np.rint(arr).astype(np.int64).tolist()
    return [round(v) for v in arr.tolist()]


def _csv_field(text: str) -> str:
    """`text` quoted as `csv.writer` quotes a field in the middle of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]        # drop the empty field's ",\r\n"


# --- domain engine ----------------------------------------------------------

@dataclass(eq=False, slots=True)
class PtpPort:
    """Slave-side exchange state toward one upstream master, with its route
    resolved once when the domain is built: the clocks the exchange reads,
    whether the relay corrects for residence, and the constant part of
    every hop."""
    node: str
    master: str
    servo: ServoState
    seq: int = 0
    corrections: int = 0
    t1: int | None = None
    t2: int | None = None
    t3: int = 0
    fwd_correction: int = 0
    closed_ps: int | None = None   # the instant of the first correction
    cut_ps: int | None = None      # the instant the tile went offline
    clock: LocalClock | None = field(default=None, repr=False)
    master_clock: LocalClock | None = field(default=None, repr=False)
    relay_clock: LocalClock | None = field(default=None, repr=False)
    transparent: bool = False
    up_jitter: _LinkJitter | None = field(default=None, repr=False)
    down_jitter: _LinkJitter | None = field(default=None, repr=False)
    sync_hop_ps: int = 0     # first sync leg: master to relay, or to slave
    down_hop_ps: int = 0     # relay to slave, sync leg
    req_hop_ps: int = 0      # slave to relay, or to master
    up_req_hop_ps: int = 0   # relay to master, delay-request leg
    followup_ps: int = 0     # follow-up lag plus its deterministic transit
    resp_ps: int = 0         # deterministic delay-response transit


class _LinkJitter:
    """Delay jitter of one link: the base sigma, the load window that
    scales it, and the lognormal shape.  The link's random stream is opened
    on its first draw with a positive sigma."""

    __slots__ = ("link_id", "base_ns", "coupling", "windows", "window_ps",
                 "bandwidth_bps", "s", "rng", "stream", "denom", "normal")

    def __init__(self, link: Link, config: TimesyncConfig, load,
                 rng: RngRegistry, stream_name: str):
        self.link_id = link.id
        self.base_ns = link.jitter_sigma_ns * config.jitter_scale
        self.coupling = config.load_coupling
        self.windows = None if load is None else load.windows
        self.window_ps = None if load is None else load.window_ps
        self.bandwidth_bps = link.bandwidth_bps
        self.s = link.jitter_shape
        self.rng = rng
        self.stream = stream_name
        self.normal = None

    def sigma_ns(self, t: SimTime) -> float:
        sigma = self.base_ns
        if sigma > 0 and self.windows is not None:
            w = self.windows.get(self.link_id)
            bps = 0.0 if w is None else w.bits_per_second(t, self.window_ps)
            sigma *= 1.0 + self.coupling * min(1.0, bps / self.bandwidth_bps)
        return sigma

    def ps(self, t: SimTime) -> int:
        """One jitter draw at t, in integer picoseconds."""
        sigma_ns = self.sigma_ns(t)
        if sigma_ns <= 0:
            return 0
        normal = self.normal
        if normal is None:
            s = self.s
            # lognormal mean exp(s^2/2); its standard deviation is this
            # times sqrt(expm1(s^2)), so dividing by both gives unit sigma
            self.denom = math.exp(s * s / 2) * math.sqrt(math.expm1(s * s))
            normal = self.normal = self.rng.stream(self.stream).normal
        return int(round(sigma_ns / self.denom * math.exp(self.s * normal()) * 1000))


class SyncDomain:
    """Schedules periodic exchanges for every clock-role tile (and boundary
    switch) over an event loop and, at `finish`, builds the residual series.

    The series is sampled every `sample_interval_s` without reading a clock
    while the loop runs, so observing a run cannot change it: each port's
    clock records its path, and `finish` evaluates the port's residual at
    each tick from it (`LocalClock.offsets`).  A port is sampled from its
    first correction on, a tick at that instant included, since before it
    the clock is free-running and a quiet streak would be declared
    "converged" by pure luck.  It is sampled until its tile is cut, a tick
    at the cut instant excluded.

    A tile is cut when it is offline as the domain is built (`online`), or
    by `mark_offline`, which the run subscribes to the power plane's
    disconnects; a cut port exchanges no more.

    A scenario run keeps nothing of an exchange once it closes beyond its
    port's `corrections` count.  `exchanges` is None there; only
    `run_sync_domain`, the tests' harness, makes it a list, which then gets
    an `ExchangeRecord` per closed exchange.
    """

    MODULE = "timesync"

    def __init__(self, loop: EventLoop, fabric: Fabric, config: TimesyncConfig,
                 rng: RngRegistry, load=None, online=None):
        self.loop = loop
        self.fabric = fabric
        self.config = config
        self.rng = rng
        self._load = load                    # a LinkLoadTracker, or None
        self.report = SyncReport(from_seconds(config.convergence_threshold_us / 1e6),
                                 config.convergence_samples)
        self.exchanges: list[ExchangeRecord] | None = None
        self.clocks: dict[str, LocalClock] = {}
        self.ports: dict[str, PtpPort] = {}
        self._jitter: dict[str, _LinkJitter] = {}
        self._interval_ps = from_seconds(config.sync_interval_s)
        self._residence_ps = from_seconds(config.residence_us / 1e6)
        self._followup_lag_ps = from_seconds(config.followup_lag_us / 1e6)
        self._turnaround_ps = from_seconds(config.turnaround_us / 1e6)
        self._tick_ps = from_seconds(config.sample_interval_s)

        boundary = set(config.boundary_switches)
        unknown = boundary - set(fabric.switches)
        if unknown:
            raise ConfigurationError(f"boundary switches not in fabric: {sorted(unknown)}")
        # the clocks of the ports, which the report samples, record their paths
        label = config.stream_label
        init = rng.stream(f"{label}/init")
        self.clocks[fabric.central_id] = self._make_clock(config.gm_osc, fabric.central_id, init)
        for sw_id in fabric.switches:
            self.clocks[sw_id] = self._make_clock(config.switch_osc, sw_id, init,
                                                  sw_id in boundary)
        clock_tiles = [t for t in fabric.tiles.values() if "clock" in t.roles]
        for t in clock_tiles:
            self.clocks[t.id] = self._make_clock(config.tile_osc, t.id, init, True)
        for sw_id in sorted(boundary):
            self._add_port(sw_id, fabric.central_id, fabric.trunk_link(sw_id))
        for t in clock_tiles:
            sw_id = fabric.switch_for_tile(t.id)
            if sw_id in boundary:
                self._add_port(t.id, sw_id, fabric.tile_link(t.id))
            else:
                self._add_port(t.id, fabric.central_id, fabric.tile_link(t.id),
                               fabric.trunk_link(sw_id), sw_id)

        if online is not None:
            for t in clock_tiles:
                if not online(t.id):
                    self.ports[t.id].cut_ps = 0

    def _make_clock(self, osc: OscillatorConfig, node_id: str, init: RngStream,
                    record: bool = False) -> LocalClock:
        # draws happen for every node in creation order, so one node's
        # initial conditions do not depend on another's noise settings
        off = init.uniform(-osc.init_offset_us, osc.init_offset_us)
        fe = init.uniform(-osc.freq_error_ppm, osc.freq_error_ppm)
        walk = self.rng.stream(f"{self.config.stream_label}/oscillator/{node_id}")
        return LocalClock(round(off * PS_PER_US), fe, osc.rw_sigma_ppm_per_sqrt_s,
                          osc.granularity_ps, walk, record)

    def _make_servo(self) -> ServoState:
        c = self.config
        return ServoState(kp=c.servo_kp, ki=c.servo_ki, clamp_ppm=c.servo_clamp_ppm,
                          interval_s=c.sync_interval_s)

    def _add_port(self, node: str, master: str, down: Link,
                  up: Link | None = None, relay: str | None = None) -> None:
        """A port toward `master`, over `down` (whose b-side faces the
        slave), and through `relay` and `up` when the master is not
        directly attached; its clocks and constant hop delays resolved."""
        port = self.ports[node] = PtpPort(node, master, self._make_servo())
        port.clock = self.clocks[node]
        port.master_clock = self.clocks[master]
        port.down_jitter = self._link_jitter(down)
        port.down_hop_ps = down.delay_ps(from_a=True)
        port.req_hop_ps = down.delay_ps(from_a=False)
        port.resp_ps = down.base_delay_ps
        if up is None:
            port.sync_hop_ps = port.down_hop_ps
            fup_transit = down.delay_ps(True)
        else:
            port.relay_clock = self.clocks[relay]
            port.transparent = self.fabric.switches[relay].transparent_clock
            port.up_jitter = self._link_jitter(up)
            port.sync_hop_ps = up.delay_ps(from_a=True)
            port.up_req_hop_ps = up.delay_ps(from_a=False)
            port.resp_ps += up.base_delay_ps + self._residence_ps
            fup_transit = up.delay_ps(True) + self._residence_ps + down.delay_ps(True)
        port.followup_ps = self._followup_lag_ps + fup_transit

    # -- noise --

    def _link_jitter(self, link: Link) -> _LinkJitter:
        lj = self._jitter.get(link.id)
        if lj is None:
            lj = self._jitter[link.id] = _LinkJitter(
                link, self.config, self._load, self.rng,
                f"{self.config.stream_label}/jitter/{link.id}")
        return lj

    def effective_jitter_sigma_ns(self, link: Link, t: SimTime) -> float:
        return self._link_jitter(link).sigma_ns(t)

    # -- lifecycle --

    def start(self, until_ps: SimTime) -> int:
        """Queue every port's sync epochs up to `until_ps`; returns how many."""
        samples = len(self.ports) * (until_ps // self._tick_ps)
        if samples > MAX_RESIDUAL_SAMPLES:
            raise ConfigurationError(
                f"timesync.sample_interval_s {self.config.sample_interval_s:g} s "
                f"asks for {samples} residual samples, over {MAX_RESIDUAL_SAMPLES}")
        self._until = until_ps
        c = self.config
        t0 = from_seconds(c.start_s)
        stagger = from_seconds(c.stagger_ms / 1e3)
        epochs = 0
        for i, node in enumerate(sorted(self.ports)):
            epochs += self.loop.every(t0 + i * stagger, self._interval_ps, until_ps,
                                      self.MODULE, node, "sync_egress",
                                      self._sync_egress, self.ports[node])
        return epochs

    def finish(self) -> SyncReport:
        """Evaluate each port's residual at every tick it is sampled at and
        finalize the report; call once, after the loop has run to the end
        given to `start`."""
        tick = self._tick_ps
        # ticks[i] is tick i + 1: exact in uint64, and as ints all series share
        ticks = np.arange(1, self._until // tick + 1, dtype=np.uint64) * np.uint64(tick)
        tick_ints = ticks.tolist()
        for node, port in self.ports.items():
            if port.closed_ps is None:
                continue
            first = max(0, -(-port.closed_ps // tick) - 1)
            end = len(ticks) if port.cut_ps is None else (port.cut_ps - 1) // tick
            if first < end:
                self.report.add_series(node, tick_ints[first:end],
                                       port.clock.offsets(ticks[first:end]))
        self.report.finalize(n for n, p in self.ports.items() if p.cut_ps is not None)
        return self.report

    def mark_offline(self, tile_id: str, at: SimTime) -> None:
        """Take a tile out of the exchanges and the residual series from
        `at` on (a power-plane disconnect callback)."""
        port = self.ports.get(tile_id)
        if port is not None:
            port.cut_ps = at

    def _schedule(self, t, target, action, fn, arg):
        """Queue one step of an exchange, dropped if it falls after the run."""
        if t <= self._until:
            self.loop.schedule(t, self.MODULE, target, action, fn, arg)

    # -- exchange machinery.  One exchange is a chain of events:
    # sync_egress -> (relay ingress/egress) -> sync_arrival, a follow-up
    # arrival carrying the precise t1, then delay_req back through the relay
    # and a direct delay_resp.  Residence accumulates on the timestamped legs
    # via the relay's own clock; the follow-up and delay_resp transits are
    # deterministic since nothing timestamps them.

    def _sync_egress(self, port: PtpPort) -> None:
        if port.cut_ps is not None:
            return
        node = port.node
        now = self.loop.now
        seq = port.seq = port.seq + 1
        port.t1 = None
        port.t2 = None
        t1 = port.master_clock.read(now)
        if port.relay_clock is not None:
            hop = port.sync_hop_ps + port.up_jitter.ps(now)
            self._schedule(now + hop, node, "relay_ingress", self._relay_ingress,
                           (port, seq, "sync"))
        else:
            hop = port.sync_hop_ps + port.down_jitter.ps(now)
            self._schedule(now + hop, node, "sync_arrival", self._sync_arrival,
                           (port, seq, 0))
        self._schedule(now + port.followup_ps, node, "followup_arrival",
                       self._followup_arrival, (port, seq, t1))

    def _relay_ingress(self, arg) -> None:
        port, seq, leg = arg
        now = self.loop.now
        t_in = port.relay_clock.read(now)
        self._schedule(now + self._residence_ps, port.node, "relay_egress",
                       self._relay_egress, (port, seq, leg, t_in))

    def _relay_egress(self, arg) -> None:
        port, seq, leg, t_in = arg
        now = self.loop.now
        # the residence the relay's own clock measured, if it corrects for it
        correction = port.relay_clock.read(now) - t_in if port.transparent else 0
        if leg == "sync":
            hop = port.down_hop_ps + port.down_jitter.ps(now)
            self._schedule(now + hop, port.node, "sync_arrival", self._sync_arrival,
                           (port, seq, correction))
        else:
            hop = port.up_req_hop_ps + port.up_jitter.ps(now)
            self._schedule(now + hop, port.node, "delay_req_arrival",
                           self._delay_req_arrival, (port, seq, correction))

    def _sync_arrival(self, arg) -> None:
        port, seq, correction = arg
        if seq != port.seq or port.cut_ps is not None:
            return
        port.t2 = port.clock.read(self.loop.now)
        port.fwd_correction = correction
        self._maybe_send_delay_req(port)

    def _followup_arrival(self, arg) -> None:
        port, seq, t1 = arg
        if seq != port.seq or port.cut_ps is not None:
            return
        port.t1 = t1
        self._maybe_send_delay_req(port)

    def _maybe_send_delay_req(self, port: PtpPort) -> None:
        if port.t1 is None or port.t2 is None:
            return
        at = self.loop.now + self._turnaround_ps
        self._schedule(at, port.node, "delay_req_egress", self._delay_req_egress,
                       (port, port.seq))

    def _delay_req_egress(self, arg) -> None:
        port, seq = arg
        if seq != port.seq or port.cut_ps is not None:
            return
        node = port.node
        now = self.loop.now
        port.t3 = port.clock.read(now)
        hop = port.req_hop_ps + port.down_jitter.ps(now)
        if port.relay_clock is not None:
            self._schedule(now + hop, node, "relay_ingress", self._relay_ingress,
                           (port, seq, "delay_req"))
        else:
            self._schedule(now + hop, node, "delay_req_arrival",
                           self._delay_req_arrival, (port, seq, 0))

    def _delay_req_arrival(self, arg) -> None:
        port, seq, rev_correction = arg
        if seq != port.seq:
            return
        now = self.loop.now
        t4 = port.master_clock.read(now)
        self._schedule(now + port.resp_ps, port.node, "delay_resp_arrival",
                       self._delay_resp_arrival, (port, seq, t4, rev_correction))

    def _delay_resp_arrival(self, arg) -> None:
        port, seq, t4, rev_correction = arg
        if seq != port.seq or port.cut_ps is not None:
            return
        node = port.node
        now = self.loop.now
        sample = two_step_offset(port.t1, port.t2, port.t3, t4,
                                 port.fwd_correction, rev_correction)
        clock = port.clock
        # evolve under the old steering before applying the new one
        true_offset = clock.offset_at(now)
        clock.freq_adj_ppm = servo_update(port.servo, sample.offset_ps)
        if port.closed_ps is None:
            port.closed_ps = now
        port.corrections += 1
        if self.exchanges is not None:
            self.exchanges.append(ExchangeRecord(
                node, seq, port.t1, port.t2, port.t3, t4,
                port.fwd_correction, rev_correction,
                sample.offset_ps, sample.mean_path_delay_ps,
                true_offset, now))


def run_sync_domain(fabric: Fabric, config: TimesyncConfig, duration_s: float,
                    seed: int = 0, rng: RngRegistry | None = None,
                    loop: EventLoop | None = None, load=None,
                    online=None) -> tuple[SyncReport, SyncDomain]:
    """Build a domain, run it, return the finalized report; the domain's
    `exchanges` holds a record of every exchange that closed."""
    loop = loop or EventLoop()
    rng = rng or RngRegistry(seed)
    domain = SyncDomain(loop, fabric, config, rng, load, online)
    domain.exchanges = []
    until = from_seconds(duration_s)
    domain.start(until)
    loop.run_until(until)
    return domain.finish(), domain
