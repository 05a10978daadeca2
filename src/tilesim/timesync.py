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
from typing import NamedTuple

import numpy as np

from .core import (PS_PER_S, PS_PER_US, RngRegistry, RngStream, SimTime,
                   SimulationError, as_normals, as_uniforms, from_seconds)
from .fabric import CENTRAL_ID, ConfigurationError, Fabric, Link


# the most residual samples (ports times sampler ticks) one run may ask for
MAX_RESIDUAL_SAMPLES = 10_000_000

# the periodic work one exchange counts for in the run's work bound, in
# events: its sync message out and its close, both worked out at `finish`
EXCHANGE_EVENTS = 2

# the exchanges of one port `finish` works out at a time: enough that the
# numpy work of a block's jitter draws, loads and master and relay reads
# is spread over many exchanges, and bounded, so that what a close holds
# does not grow with the run
_CLOSE_BLOCK = 512

# the frequency walk's lattice step: a constant, so neither a configured
# interval nor the run's length moves a draw
WALK_STEP_PS = PS_PER_S
_WALK_BLOCK = 128         # the walk steps made from one read of the walk stream
_NEVER = 1 << 64          # past every instant: the next step of no walk
_HALF_INV_SQRT3 = 0.5 / math.sqrt(3.0)
# the largest |z| `as_normals` makes: r at the largest uniform, 1 - 2**-53
_Z_MAX = math.sqrt(106 * math.log(2))


def _phase_step(rate_ppm: float, dt: int) -> int:
    """What `rate_ppm` adds to the phase over dt ps, in 2**-32 ps: the
    floor of its exact binary value times dt * 2**32 / 10**6."""
    n, d = rate_ppm.as_integer_ratio()
    return (n * dt << 32) // (d * 1_000_000)


class LocalClock:
    """Free-running oscillator whose offset is a function of true time.

    The offset (local minus true) is piecewise linear, a segment starting
    at each lattice point of the frequency walk and at each servo step
    (`steer`).  The walk is the two-state clock model discretized exactly
    (C. Zucca and P. Tavella, IEEE Trans. UFFC 52(2), 2005): with c =
    rw_sigma sqrt(step) and z1, z2 `as_normals` of words 2k and 2k + 1 of
    the walk stream, step k runs at y_k + c (z1 / 2 + z2 / (2 sqrt 3)),
    the frequency's mean over it, and y_(k+1) = y_k + c z1; the steering
    adds to that.  The walk's rates are made `_WALK_BLOCK` steps at a
    time, y by a cumulative sum, which numpy adds in order, so each is the
    step-by-step value.  The phase is an exact integer in 2**-32 ps,
    `_phase_step` per segment, so `read(t)` depends only on the clock, t
    and the servo steps before t, in any order of reads.  `offset_at` and
    `offsets` take the float start phase of the last segment that starts
    before the instant.  `read_many` takes it too where a bound on its
    float error shows the read exact, and walks the exact phase
    elsewhere, so its reads are `read`'s.  The segment arrays are made on
    the first read.
    """

    __slots__ = ("granularity_ps", "freq_adj_ppm", "walk_sigma", "_rng",
                 "_starts", "_rates", "_phases", "_t0", "_p0", "_next_ps",
                 "_num", "_den", "_k", "_walk", "_walks", "_y", "_first", "_resume")

    def __init__(self, offset_ps: float = 0.0, freq_error_ppm: float = 0.0,
                 rw_sigma_ppm_per_sqrt_s: float = 0.0, granularity_ps: int = 1,
                 rng: RngStream | None = None):
        if granularity_ps < 1:
            raise ConfigurationError("granularity must be at least 1 ps")
        self.granularity_ps = int(granularity_ps)
        self.freq_adj_ppm = 0.0        # the steering in force, set by `steer`
        self._rng = rng
        self.walk_sigma = 0.0 if rng is None else float(rw_sigma_ppm_per_sqrt_s) \
            * math.sqrt(WALK_STEP_PS / PS_PER_S)
        self._starts = self._rates = self._phases = None
        # the latest segment's start, exact phase and rate (_num / _den, in
        # 2**-32 ps per ps); the walk's step, rate and next frequency.  The
        # next step at 0 sends the first use to `_extend`.
        self._t0 = self._next_ps = 0
        self._p0 = _phase_step(float(offset_ps), 10**6)    # offset_ps in 2**-32 ps
        self._num, self._den = 0, 1
        self._k, self._walk, self._y = -1, 0.0, float(freq_error_ppm)

    def read(self, true_t: SimTime) -> int:
        """Timestamp the given true instant on this clock's tick grid."""
        t0 = self._t0
        if true_t < t0:
            return self.read_many((true_t,))[0]
        if true_t >= self._next_ps:
            self._extend(true_t)
            t0 = self._t0
        p = self._p0 + self._num * (true_t - t0) // self._den
        # truncate to the tick grid, toward minus infinity (a counter)
        g = self.granularity_ps
        return (true_t + (p >> 32)) // g * g

    def read_many(self, times) -> list[int]:
        """`read` at each of `times` (ascending true ps), in one numpy pass.

        Instant t in the segment from s, of float start phase pf and rate
        r, takes its phase in ps as v = pf + d, d = r * 1e-6 * (t - s), in
        float64: v lies within 2**-50 (|pf| + |d|) of the exact phase,
        plus 2**-1010 where a product underflows.  The read is
        (t + floor(v)) // g * g when no integer lies within 2**-49 (|pf|
        + |d|) + 2**-1000 of v, v is under 2**52, t under 2**62 and g
        under 2**62.  On a segment of rate 0 whose exact phase is under
        2**53 in 2**-32 ps, pf and so v are exact.  Every other instant
        is read by `_exact_reads`, the exact definition."""
        if not times:
            return []
        if times[-1] >= self._next_ps:
            self._extend(times[-1])
        g = self.granularity_ps
        if g >= 1 << 62:
            return self._exact_reads(times)
        t = np.array(times, dtype=np.uint64)
        starts = np.frombuffer(self._starts, np.uint64)
        j = np.searchsorted(starts, t, side="right") - 1
        pf, rate = np.frombuffer(self._phases)[j], np.frombuffer(self._rates)[j]
        # an overflow or inf - inf leaves v or its bound not finite, which
        # reads by the walk
        with np.errstate(over="ignore", invalid="ignore"):
            d = rate * 1e-6 * (t - starts[j])
            v = pf + d
            err = 2.0**-49 * (np.abs(pf) + np.abs(d)) + 2.0**-1000
            err[(rate == 0) & (np.abs(pf) < 2.0**21)] = 0.0
            walked = ~((np.floor(v - err) == np.floor(v + err)) & (np.abs(v) < 2.0**52)
                       & (t < 1 << 62))
        t[walked], v[walked] = 0, 0.0
        out = ((t.astype(np.int64) + np.floor(v).astype(np.int64)) // g * g).tolist()
        if walked.any():
            walked = np.flatnonzero(walked).tolist()
            for i, read in zip(walked, self._exact_reads([times[i] for i in walked])):
                out[i] = read
        return out

    def _exact_reads(self, times) -> list[int]:
        """`read` at each of `times` (ascending true ps, their segments
        made), in one exact pass forward over the segments from where the
        last pass ended, or from the first segment when `times` start
        before that."""
        starts, rates = self._starts, self._rates
        last = len(starts) - 1
        # a segment's index and its exact start phase
        j, p = self._resume if times[0] >= starts[self._resume[0]] else self._first
        g = self.granularity_ps
        t0, nxt = starts[j], starts[j + 1] if j < last else _NEVER
        n, d = rates[j].as_integer_ratio()
        n, d = n << 32, d * 1_000_000
        out = []
        for t in times:
            while t >= nxt:
                p += _phase_step(rates[j], nxt - t0)
                j += 1
                t0, nxt = nxt, starts[j + 1] if j < last else _NEVER
                n, d = rates[j].as_integer_ratio()
                n, d = n << 32, d * 1_000_000
            out.append((t + ((p + n * (t - t0) // d) >> 32)) // g * g)
        self._resume = j, p
        return out

    def offset_at(self, true_t: SimTime) -> float:
        """Offset at the given true instant (no readout quantization)."""
        return float(self.offsets(np.array([true_t], dtype=np.uint64))[0])

    def offsets(self, times: np.ndarray) -> np.ndarray:
        """The offset at each of `times` (ascending uint64 true ps)."""
        if not len(times):
            return np.empty(0)
        if int(times[-1]) >= self._next_ps:
            self._extend(int(times[-1]))
        starts = np.frombuffer(self._starts, np.uint64)
        k = np.maximum(np.searchsorted(starts, times, side="left") - 1, 0)
        return (np.frombuffer(self._phases)[k]
                + np.frombuffer(self._rates)[k] * 1e-6 * (times - starts[k]))

    def steer(self, true_t: SimTime, freq_adj_ppm: float) -> None:
        """Steer the rate by `freq_adj_ppm` from `true_t` on: a servo step,
        which no segment may start after."""
        if true_t >= self._next_ps:
            self._extend(true_t)
        if true_t < self._t0:
            raise SimulationError("clock steered before its latest segment")
        self.freq_adj_ppm = freq_adj_ppm
        self._segment(true_t, self._walk + freq_adj_ppm)

    def _segment(self, t: SimTime, rate: float) -> None:
        """End the latest segment at t and start one of `rate` there."""
        t0 = self._t0
        p = self._p0 + self._num * (t - t0) // self._den
        if t == t0 and self._starts:
            self._rates[-1] = rate
        else:
            self._starts.append(t)
            self._rates.append(rate)
            self._phases.append(p / 4294967296)
        self._t0, self._p0 = t, p
        n, d = rate.as_integer_ratio()
        self._num, self._den = n << 32, d * 1_000_000

    def _extend(self, t: SimTime) -> None:
        """Make every segment that starts at or before t."""
        if self._k < 0:
            self._starts, self._rates, self._phases = array("Q"), array("d"), array("d")
            self._resume = self._first = (0, self._p0)     # the segment at 0
        c = self.walk_sigma
        while self._next_ps <= t:
            at, k = self._next_ps, self._k + 1
            if c:
                if k % _WALK_BLOCK == 0:
                    # y here is y_k, and the block's last sum is y_(k + _WALK_BLOCK)
                    z = as_normals(self._rng.words(2 * k, 2 * _WALK_BLOCK))
                    with np.errstate(over="ignore", invalid="ignore"):
                        y = np.cumsum(np.concatenate(([self._y], c * z[0::2])))
                        walks = y[:-1] + c * (0.5 * z[0::2] + _HALF_INV_SQRT3 * z[1::2])
                    self._walks, self._y = array("d", walks.tobytes()), float(y[-1])
                self._walk = self._walks[k % _WALK_BLOCK]
                self._next_ps = (k + 1) * WALK_STEP_PS
            else:
                self._walk, self._next_ps = self._y, _NEVER
            self._k = k
            self._segment(at, self._walk + self.freq_adj_ppm)


# --- exchange arithmetic ----------------------------------------------------

class OffsetSample(NamedTuple):
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
    integrator_ps: float = 0.0
    freq_adj_ppm: float = 0.0


def servo_update(servo: ServoState, offset_ps: float) -> float:
    """Feed one measured offset; returns the new frequency adjustment (ppm)."""
    servo.integrator_ps += offset_ps
    raw = -(servo.kp * offset_ps + servo.ki * servo.integrator_ps) \
        * 1e-6 / servo.interval_s
    servo.freq_adj_ppm = max(-servo.clamp_ppm, min(servo.clamp_ppm, raw))
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

class SyncReport:
    """Residual-offset series per disciplined node, plus summary statistics.

    Convergence per node is the first sample from which a configured number
    of consecutive samples stay inside the threshold band; percentiles pool
    the absolute residuals of every node from its convergence point on, with
    no re-filtering, so late excursions count against the statistics.  A
    node named offline at `finalize` was cut during the run: it is listed
    apart, and neither counts as unconverged nor holds back the overall
    convergence time.

    A series added whole keeps the sample times it was given, from
    `SyncDomain.finish` a `range` of ticks rather than a list of ints;
    `series` returns them as a list.
    """

    def __init__(self, threshold_ps: int, consecutive: int):
        self.threshold_ps = threshold_ps
        self.consecutive = consecutive
        self._times: dict[str, list[int] | range] = {}
        self._resid: dict[str, list[float]] = {}
        self._conv_idx: dict[str, int | None] = {}
        self.offline: list[str] = []

    def add_sample(self, node: str, t: SimTime, residual_ps: float) -> None:
        self._times.setdefault(node, []).append(t)
        self._resid.setdefault(node, []).append(residual_ps)

    def add_series(self, node: str, times: list[int] | range, residuals) -> None:
        """A node's whole series at once: its sample times (a list or a
        range) and residuals."""
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
        return list(self._times[node]), np.asarray(self._resid[node])

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
        # one pooled copy, made absolute and partitioned in place
        a = np.concatenate(pooled)
        p50, p95, p99 = np.percentile(np.abs(a, out=a), (50, 95, 99),
                                      overwrite_input=True)
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}

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
        exactly as `csv.writer` would write them.  Nodes whose times are
        ranges on one tick grid share each tick's text, made once."""
        grids = _tick_texts(self._times.values())
        with open(path, "w", newline="") as f:
            csv.writer(f).writerow(["true_time_ps", "node", "residual_ps"])
            for node in self.nodes:
                field = _csv_field(node)
                times = self._times[node]
                grid = grids.get(_grid_of(times))
                if grid is not None:
                    i = (times.start - grid[0]) // times.step
                    times = grid[1][i:i + len(times)]
                f.write("".join([f"{t},{field},{r}\r\n" for t, r in zip(
                    times, _rounded(self._resid[node]))]))


def _grid_of(times) -> tuple | None:
    """The tick grid (step, residue) of an ascending, non-empty range."""
    if isinstance(times, range) and times.step > 0 and times:
        return times.step, times.start % times.step
    return None


def _tick_texts(series) -> dict:
    """Per tick grid of the ranges in `series`, (first tick, the text of
    each tick up to the last of any): only for a grid whose span holds no
    more ticks than its ranges do together."""
    spans = {}
    for times in series:
        grid = _grid_of(times)
        if grid is not None:
            lo, hi, n = spans.get(grid, (times.start, times[-1], 0))
            spans[grid] = (min(lo, times.start), max(hi, times[-1]), n + len(times))
    return {grid: (lo, [str(t) for t in range(lo, hi + 1, grid[0])])
            for grid, (lo, hi, n) in spans.items() if (hi - lo) // grid[0] < n}


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
    resolved once: the clocks the exchange reads, the relay's among them
    on a relayed route, each hop's constant delay (the upstream ones and
    the residence 0 on a direct route) and the port's jitter on each link."""
    node: str
    master: str
    servo: ServoState
    exchanges: int = 0             # its epochs, to the run's end and before its cut
    corrections: int = 0
    closed_ps: int | None = None   # the instant of the first correction
    cut_ps: int | None = None      # the instant the tile's power is cut
    last_ps: int = 0               # its last instant: the run's end, or before its cut
    epoch_ps: int = 0              # the first exchange's epoch
    clock: LocalClock | None = field(default=None, repr=False)
    master_clock: LocalClock | None = field(default=None, repr=False)
    relay_clock: LocalClock | None = field(default=None, repr=False)
    up: _PortJitter | None = field(default=None, repr=False)
    down: _PortJitter | None = field(default=None, repr=False)
    up_hop_ps: int = 0       # master to relay, sync leg
    residence_ps: int = 0    # relay dwell, each leg
    down_hop_ps: int = 0     # relay (or master) to slave, sync leg
    req_hop_ps: int = 0      # slave to relay (or master), delay-request leg
    up_req_hop_ps: int = 0   # relay to master, delay-request leg
    followup_ps: int = 0     # follow-up lag plus its deterministic transit
    resp_ps: int = 0         # deterministic delay-response transit


class _PortJitter:
    """One port's delay jitter on one link: the link's base sigma, the
    link load that scales it at each exchange's epoch, and the lognormal
    shape.  Exchange seq's hop on leg 0 (sync) or 1 (delay request) is
    exp(s z) at that sigma, z normal 2 seq + leg of the port's stream on
    the link, made on the first draw."""

    __slots__ = ("link_id", "base_ns", "coupling", "load", "bandwidth_bps", "s",
                 "denom", "rng", "name", "stream")

    def __init__(self, link: Link, config: TimesyncConfig, load,
                 rng: RngRegistry | None = None, name: str = ""):
        self.link_id = link.id
        self.base_ns = link.jitter_sigma_ns * config.jitter_scale
        self.coupling = config.load_coupling
        self.load = load
        self.bandwidth_bps = link.bandwidth_bps
        s = self.s = link.jitter_shape
        # lognormal mean exp(s^2/2); its standard deviation is this times
        # sqrt(expm1(s^2)), so dividing by both gives unit sigma
        self.denom = math.exp(s * s / 2) * math.sqrt(math.expm1(s * s))
        # the largest jitter a draw can make, at full load, must be a float
        if not math.isfinite(self.base_ns * (1 + self.coupling) * 1000 / self.denom
                             * math.exp(s * _Z_MAX)):
            raise ConfigurationError(
                f"link {link.id}: a jitter sigma of {self.base_ns:g} ns at shape "
                f"{s:g} and load coupling {self.coupling:g} draws delays past "
                f"the float range")
        self.rng, self.name = rng, name
        self.stream = None

    def sigma_ns(self, start: SimTime, period: SimTime, first: int, n: int) -> np.ndarray:
        """The link's sigma at occurrences first .. first + n - 1 of the
        epochs `every(start, period)`."""
        sigma = np.full(n, self.base_ns, dtype=float)
        if self.load is not None:
            bps = self.load(self.link_id, start, period, first, n)
            sigma *= 1.0 + self.coupling * np.minimum(1.0, bps / self.bandwidth_bps)
        return sigma

    def ps(self, start: SimTime, period: SimTime, first: int,
           n: int) -> tuple[list[int], list[int]]:
        """The jitter of the exchanges at those epochs, seq first + 1 ..
        first + n, on the sync and on the delay-request hop: integer ps,
        each rounded half to even from its exp taken in `math`."""
        if self.base_ns <= 0:
            return [0] * n, [0] * n
        if self.stream is None:
            self.stream = self.rng.stream(self.name)
        z = self.s * as_normals(self.stream.words(2 * first + 2, 2 * n))
        factors = np.fromiter(map(math.exp, z.tolist()), float, 2 * n)
        scale = self.sigma_ns(start, period, first, n) * 1000 / self.denom
        jitter = _rounded(factors * np.repeat(scale, 2))
        return jitter[0::2], jitter[1::2]


class SyncDomain:
    """Periodic exchanges for every tile (and boundary switch),
    worked out at `finish`, which then builds the residual series.

    Port i of the sorted ports has its epochs at start_s + i * stagger, one
    each sync interval, through its last instant `last_ps`: the run's end,
    or the instant before its tile's cut (`cuts`, tile to instant) if that
    is earlier, worked out once by `start`, which counts the epochs.  A
    port whose last instant is before the run's end is offline.  `finish`
    closes each port's series, `_CLOSE_BLOCK` exchanges at a time, each
    link's sigma at each epoch taken from `load`: (link id, start, period,
    first, n) to the link's load window at those epochs of a series, or
    None with no dataplane.  It works out when each step happened from the
    hop delays and jitters: the sync message crosses the relay, if any, to
    the slave (t2); a follow-up with the precise t1 lands a fixed lag
    later; a turnaround after both the delay request leaves (t3) and
    crosses back to the master (t4), whose response returns with a fixed
    transit, the close's instant.  The close counts if that instant is at
    or before the port's last instant and before its next epoch.  It reads
    t1-t4 and the relay's residence on each leg at their instants, then
    steps the servo at the close, the one thing that changes a clock's
    future.  Reads are functions of time and earlier servo steps, so each
    read gives what it would at its instant, as the ports close in `ports`
    order: a boundary master before its slaves.

    `finish` then evaluates each port's residual at every
    `sample_interval_s` tick from its clock's segments: from its first
    correction, a tick at that instant included (a free-running clock's
    quiet streak would be "converged" by luck), through its last instant.
    Nothing of an exchange is kept once it closes beyond its port's
    `corrections` count.
    """

    def __init__(self, fabric: Fabric, config: TimesyncConfig, rng: RngRegistry,
                 load=None, cuts=None):
        self.fabric = fabric
        self.config = config
        self.rng = rng
        self._load = load
        self.report = SyncReport(from_seconds(config.convergence_threshold_us / 1e6),
                                 config.convergence_samples)
        self.clocks: dict[str, LocalClock] = {}
        self.ports: dict[str, PtpPort] = {}
        self._interval_ps = from_seconds(config.sync_interval_s)
        self._residence_ps = from_seconds(config.residence_us / 1e6)
        self._followup_lag_ps = from_seconds(config.followup_lag_us / 1e6)
        self._turnaround_ps = from_seconds(config.turnaround_us / 1e6)
        self._tick_ps = from_seconds(config.sample_interval_s)
        self._longest_exchange_ps = 0

        boundary = set(config.boundary_switches)
        unknown = boundary - set(fabric.switches)
        if unknown:
            raise ConfigurationError(f"boundary switches not in fabric: {sorted(unknown)}")
        oscs = [(CENTRAL_ID, config.gm_osc)]
        oscs += [(sw_id, config.switch_osc) for sw_id in fabric.switches]
        oscs += [(tile_id, config.tile_osc) for tile_id in fabric.tiles]
        # clock i's initial offset and frequency error: uniform in its
        # oscillator's bands from words 2i and 2i + 1 of the init stream
        label = config.stream_label
        u = as_uniforms(rng.stream(f"{label}/init").words(0, 2 * len(oscs))).tolist()
        for i, (node_id, osc) in enumerate(oscs):
            a, f = osc.init_offset_us, osc.freq_error_ppm
            self.clocks[node_id] = LocalClock(
                round((-a + 2 * a * u[2 * i]) * PS_PER_US), -f + 2 * f * u[2 * i + 1],
                osc.rw_sigma_ppm_per_sqrt_s, osc.granularity_ps,
                rng.stream(f"{label}/oscillator/{node_id}"))
        for sw_id in sorted(boundary):
            self._add_port(sw_id, CENTRAL_ID, fabric.trunk_link(sw_id))
        for tile_id in fabric.tiles:
            sw_id = fabric.switch_for_tile(tile_id)
            if sw_id in boundary:
                self._add_port(tile_id, sw_id, fabric.tile_link(tile_id))
            else:
                self._add_port(tile_id, CENTRAL_ID, fabric.tile_link(tile_id),
                               fabric.trunk_link(sw_id), sw_id)
        for tile_id, at in (cuts or {}).items():
            if tile_id in self.ports:
                self.ports[tile_id].cut_ps = at

    def _add_port(self, node: str, master: str, down: Link,
                  up: Link | None = None, relay: str | None = None) -> None:
        """A port toward `master`, over `down` (whose b-side faces the
        slave), and through `relay` and `up` when the master is not
        directly attached; its clocks and constant hop delays resolved."""
        c = self.config
        port = self.ports[node] = PtpPort(node, master, ServoState(
            kp=c.servo_kp, ki=c.servo_ki, clamp_ppm=c.servo_clamp_ppm,
            interval_s=c.sync_interval_s))
        port.clock = self.clocks[node]
        port.master_clock = self.clocks[master]
        label = f"{c.stream_label}/jitter/"
        port.down = _PortJitter(down, c, self._load, self.rng, label + f"{down.id}/{node}")
        port.down_hop_ps = down.delay_ps(from_a=True)
        port.req_hop_ps = down.delay_ps(from_a=False)
        port.resp_ps = down.base_delay_ps
        if up is not None:
            port.relay_clock = self.clocks[relay]
            port.up = _PortJitter(up, c, self._load, self.rng, label + f"{up.id}/{node}")
            port.up_hop_ps = up.delay_ps(from_a=True)
            port.up_req_hop_ps = up.delay_ps(from_a=False)
            port.residence_ps = self._residence_ps
            port.resp_ps += up.base_delay_ps + self._residence_ps
        port.followup_ps = (self._followup_lag_ps + port.up_hop_ps + port.residence_ps
                            + port.down_hop_ps)
        # the exchange's span without jitter
        self._longest_exchange_ps = max(
            self._longest_exchange_ps,
            port.followup_ps + self._turnaround_ps + port.req_hop_ps
            + port.residence_ps + port.up_req_hop_ps + port.resp_ps)

    def effective_jitter_sigma_ns(self, link: Link, t: SimTime) -> float:
        """The link's sigma at t, to a series whose first epoch is t."""
        return float(_PortJitter(link, self.config, self._load).sigma_ns(t, 1, 0, 1)[0])

    def start(self, until_ps: SimTime) -> int:
        """Set every port's last instant and its epochs through it; returns
        the work their exchanges count for, in events.  An interval no
        longer than an exchange is refused: the next epoch would drop every
        exchange in flight."""
        if self._interval_ps <= self._longest_exchange_ps:
            raise ConfigurationError(
                f"timesync.sync_interval_s must be longer than one exchange, "
                f"{self._longest_exchange_ps / PS_PER_S:g} s "
                f"(got {self.config.sync_interval_s:g} s)")
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
            port = self.ports[node]
            port.epoch_ps = t0 + i * stagger
            port.last_ps = until_ps if port.cut_ps is None else min(until_ps, port.cut_ps - 1)
            port.exchanges = max(0, (port.last_ps - port.epoch_ps) // self._interval_ps + 1)
            epochs += port.exchanges
        return epochs * EXCHANGE_EVENTS

    def walk_steps(self, until_ps: SimTime) -> int:
        """The steps the clocks' frequency walks take up to `until_ps`."""
        walking = sum(c.walk_sigma != 0 for c in self.clocks.values())
        return walking * (until_ps // WALK_STEP_PS)

    def finish(self) -> SyncReport:
        """Close every port's exchanges, evaluate each port's residual at
        every tick it is sampled at and finalize the report; call once,
        after `start`."""
        # boundary switches come first in `ports`: their clocks are masters
        for port in self.ports.values():
            self._close_port(port)
        tick = self._tick_ps
        # ticks[i] is tick i + 1: exact in uint64; a port's sample times are
        # the same ticks as a range of ints
        ticks = np.arange(1, self._until // tick + 1, dtype=np.uint64) * np.uint64(tick)
        for node, port in self.ports.items():
            if port.closed_ps is None:
                continue
            first = max(0, -(-port.closed_ps // tick) - 1)
            end = port.last_ps // tick
            if first < end:
                times = range((first + 1) * tick, end * tick + 1, tick)
                self.report.add_series(node, times, port.clock.offsets(ticks[first:end]))
        self.report.finalize(n for n, p in self.ports.items() if p.last_ps < self._until)
        return self.report

    def _close_port(self, port: PtpPort) -> None:
        """Close the port's exchanges in order, `_CLOSE_BLOCK` at a time:
        work out each one's instants, read the master and the relay at all
        of a block's in one pass each, then close each that counts."""
        down, up = port.down, port.up
        interval, turnaround, end = self._interval_ps, self._turnaround_ps, port.last_ps
        up_hop, residence, down_hop = port.up_hop_ps, port.residence_ps, port.down_hop_ps
        req_hop, up_req_hop = port.req_hop_ps, port.up_req_hop_ps
        followup, resp = port.followup_ps, port.resp_ps
        for first in range(0, port.exchanges, _CLOSE_BLOCK):
            n = min(_CLOSE_BLOCK, port.exchanges - first)
            down_sync, down_req = down.ps(port.epoch_ps, interval, first, n)
            up_sync, up_req = ([0] * n,) * 2 if up is None else up.ps(
                port.epoch_ps, interval, first, n)
            epoch = port.epoch_ps + first * interval
            closing, master_at, relay_at = [], [], []
            for k in range(n):
                sync_in = epoch + up_hop + up_sync[k]
                sync_out = sync_in + residence
                t2_at = sync_out + down_hop + down_sync[k]
                t3_at = max(t2_at, epoch + followup) + turnaround
                req_in = t3_at + req_hop + down_req[k]
                req_out = req_in + residence
                t4_at = req_out + up_req_hop + up_req[k]
                close = t4_at + resp
                # the next epoch, at its instant, ends the exchange
                nxt = epoch + interval
                if close < nxt and close <= end:
                    closing.append((first + k + 1, close, t2_at, t3_at))
                    master_at += (epoch, t4_at)
                    relay_at += (sync_in, sync_out, req_in, req_out)
                epoch = nxt
            master = port.master_clock.read_many(master_at)
            relay = None if port.relay_clock is None else port.relay_clock.read_many(relay_at)
            fwd = rev = 0
            for i, (seq, close, t2_at, t3_at) in enumerate(closing):
                if relay is not None:
                    fwd = relay[4 * i + 1] - relay[4 * i]
                    rev = relay[4 * i + 3] - relay[4 * i + 2]
                self._close(port, seq, close, master[2 * i], t2_at, t3_at,
                            master[2 * i + 1], fwd, rev)

    def _close(self, port: PtpPort, seq: int, at: SimTime, t1: int,
               t2_at: SimTime, t3_at: SimTime, t4: int, fwd: int, rev: int) -> None:
        """Close exchange `seq` at `at`, given the master's t1 and t4 and
        the relay's residence on each leg: the slave reads t2 and t3, and
        the servo steps its clock."""
        clock = port.clock
        sample = two_step_offset(t1, clock.read(t2_at), clock.read(t3_at), t4, fwd, rev)
        clock.steer(at, servo_update(port.servo, sample.offset_ps))
        if port.closed_ps is None:
            port.closed_ps = at
        port.corrections += 1
