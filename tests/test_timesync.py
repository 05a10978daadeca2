"""Clock models, exchange arithmetic, servo discipline, and the sync domain."""

import copy
import csv
import math
import os
import tempfile
import warnings
from array import array
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilesim.core import (EventLoop, MAX_SIM_TIME, PS_PER_MS, PS_PER_S,
                          PS_PER_US, RngRegistry, RngStream, SimulationError,
                          as_normals, as_uniforms, from_seconds)
from tilesim.dataplane import LinkLoadTracker
from tilesim.fabric import (CENTRAL_ID, ConfigurationError, FabricConfig,
                            build_default_fabric)
from tilesim.timesync import (_CLOSE_BLOCK, LocalClock, OscillatorConfig,
                              ServoState, SyncDomain, SyncReport, TimesyncConfig,
                              servo_update, two_step_offset)

from sync_recorder import ExchangeRecord, RecordingDomain, run_sync


def quiet_osc(offset_us=0.0, granularity_ps=1):
    return OscillatorConfig(init_offset_us=offset_us, freq_error_ppm=0.0,
                            rw_sigma_ppm_per_sqrt_s=0.0,
                            granularity_ps=granularity_ps)


def small_fabric():
    return build_default_fabric(FabricConfig(counts={"wall_a": 4}, switch_count=2))


# --- local clocks -----------------------------------------------------------

def test_perfect_clock_reads_true_time():
    c = LocalClock()
    for t in (0, 17, PS_PER_S, 3 * PS_PER_S + 5):
        assert c.read(t) == t


def test_frequency_error_accumulates():
    # +10 ppm for one second puts the clock 10 microseconds ahead
    c = LocalClock(freq_error_ppm=10.0)
    assert c.read(PS_PER_S) - PS_PER_S == 10 * PS_PER_US


def test_granularity_quantizes_reads():
    c = LocalClock(offset_ps=3.7, granularity_ps=8000)
    for t in range(0, 10 * PS_PER_US, 777_777):
        assert c.read(t) % 8000 == 0


def test_quantize_floors_toward_minus_infinity():
    def quantize_ps(local_ps, granularity_ps):
        return LocalClock(offset_ps=local_ps, granularity_ps=granularity_ps).read(0)

    assert quantize_ps(15_999.9, 8000) == 8000
    assert quantize_ps(16_000.0, 8000) == 16_000
    assert quantize_ps(-0.5, 8000) == -8000
    assert quantize_ps(-8000.0, 8000) == -8000


def test_clock_refuses_a_step_before_its_latest_segment():
    c = LocalClock(rw_sigma_ppm_per_sqrt_s=0.1, rng=RngStream(3, "osc"))
    c.read(3 * PS_PER_S)            # makes the walk's segments up to 3 s
    with pytest.raises(SimulationError):
        c.steer(2 * PS_PER_S, 1.0)
    c.steer(3 * PS_PER_S, 1.0)


def test_same_instant_reads_agree():
    c = LocalClock(offset_ps=5.0, freq_error_ppm=3.0, granularity_ps=1)
    assert c.read(PS_PER_S) == c.read(PS_PER_S)


def test_servo_steering_changes_rate():
    c = LocalClock()
    c.steer(0, -2.0)
    assert c.read(PS_PER_S) - PS_PER_S == -2 * PS_PER_US
    # a step ends a segment: the phase before it stands
    c.steer(PS_PER_S, 3.0)
    assert c.read(PS_PER_S // 2) - PS_PER_S // 2 == -PS_PER_US
    assert c.read(2 * PS_PER_S) - 2 * PS_PER_S == PS_PER_US


def test_random_walk_is_stream_deterministic():
    a = LocalClock(rw_sigma_ppm_per_sqrt_s=0.1, rng=RngStream(3, "osc"))
    b = LocalClock(rw_sigma_ppm_per_sqrt_s=0.1, rng=RngStream(3, "osc"))
    for k in range(1, 20):
        assert a.read(k * PS_PER_MS) == b.read(k * PS_PER_MS)


def exact_read(t, offset_ps, rate_ppm, granularity_ps=1):
    """floor(t + offset + rate * t / 10**6) on the tick grid, in exact
    rationals: what a noise-free, unsteered clock must read."""
    local = t + Fraction(offset_ps) + Fraction(rate_ppm) * t / 10**6
    return math.floor(local) // granularity_ps * granularity_ps


@pytest.mark.parametrize("hours", [3, 24])
@pytest.mark.parametrize("granularity_ps", [1, 8_000])
def test_noise_free_read_is_exact_past_2_to_the_53_ps(hours, granularity_ps):
    # a float sum of time and offset cannot hold 1 ps past about 2.5 h
    t = hours * 3600 * PS_PER_S + 12_345
    c = LocalClock(offset_ps=1234.75, freq_error_ppm=3.7,
                   granularity_ps=granularity_ps)
    assert c.read(t) == exact_read(t, 1234.75, 3.7, granularity_ps)


@pytest.mark.parametrize("offset_ps", [0, -7_654_321])
@pytest.mark.parametrize("rate_ppm", [0.1, 3.7, -7.3, 10.0, -99.99])
def test_noise_free_probes_equal_the_rational_floor(rate_ppm, offset_ps):
    c = LocalClock(offset_ps=offset_ps, freq_error_ppm=rate_ppm)
    for hours in (1, 3, 10, 24):
        t = hours * 3600 * PS_PER_S
        assert c.read(t) == exact_read(t, offset_ps, rate_ppm)


def test_a_day_of_reads_at_one_second_steps_is_exact():
    c = LocalClock(offset_ps=-1234, freq_error_ppm=3.7)
    got = [c.read(k * PS_PER_S) for k in range(1, 86_401)]
    rate = Fraction(3.7)
    assert got == [k * PS_PER_S - 1234 + math.floor(rate * k * PS_PER_S / 10**6)
                   for k in range(1, 86_401)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5 * PS_PER_S), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_reads_do_not_depend_on_their_order(instants, rnd):
    # a walking, steered clock read at a multiset of instants, in order and
    # shuffled, with no step between the reads
    def clock():
        c = LocalClock(offset_ps=5e5, freq_error_ppm=4.0,
                       rw_sigma_ppm_per_sqrt_s=0.5, granularity_ps=8,
                       rng=RngStream(9, "walk"))
        c.steer(0, -1.5)
        return c

    a, b = clock(), clock()
    want = {t: a.read(t) for t in sorted(instants)}
    shuffled = list(instants)
    rnd.shuffle(shuffled)
    assert [b.read(t) for t in shuffled] == [want[t] for t in shuffled]
    assert [b.offset_at(t) for t in shuffled] == [a.offset_at(t) for t in shuffled]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5 * PS_PER_S), min_size=1, max_size=12),
       st.lists(st.integers(0, 5 * PS_PER_S), max_size=4),
       st.sampled_from(["walking", "still"]), st.booleans())
def test_read_many_equals_a_read_at_each_instant(instants, steps, kind, ahead):
    # one pass over ascending instants, repeats included, of a clock
    # steered at a few instants, on a walk or at rate 0; `ahead` first
    # makes its segments well past the reads.  The oracle takes each step
    # just before its first read after it, so every read it makes is in
    # its latest segment.
    def clock():
        if kind == "still":
            return LocalClock(offset_ps=-1234.5)
        return LocalClock(offset_ps=5e5, freq_error_ppm=4.0,
                          rw_sigma_ppm_per_sqrt_s=0.5, rng=RngStream(9, "walk"))

    times, steps = sorted(instants), list(enumerate(sorted(steps)))
    oracle, want, due = clock(), [], list(steps)
    for t in times:
        while due and due[0][1] <= t:
            k, at = due.pop(0)
            oracle.steer(at, 0.5 - k)
        want.append(oracle.read(t))
    got = clock()
    for k, at in steps:
        got.steer(at, 0.5 - k)
    if ahead:
        got.read(7 * PS_PER_S)
    assert got.read_many(times) == want


def walked_reads(clock, times):
    """`clock.read_many(times)`, a RuntimeWarning raised as an error, and
    the instants it read by the exact walk."""
    walked, exact_reads = [], LocalClock._exact_reads

    def spy(self, ts):
        walked.extend(ts)
        return exact_reads(self, ts)

    with mock.patch.object(LocalClock, "_exact_reads", spy), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return clock.read_many(times), walked


@settings(max_examples=200, deadline=None)
@given(offset=st.one_of(st.integers(-2**40, 2**40), st.floats(-1e7, 1e7)),
       rate=st.one_of(st.sampled_from([0.0, 1.0, -2.0, 0.25, 1e-9, -3e-8]),
                      st.floats(-100.0, 100.0)),
       steer=st.one_of(st.none(), st.tuples(st.integers(1, 10**13), st.one_of(
           st.just("stop"), st.floats(-100.0, 100.0)))),
       granularity=st.sampled_from([1, 8000]),
       instants=st.lists(st.integers(0, 2 * 10**13), min_size=1, max_size=6),
       far=st.lists(st.integers(2**62 - 2, 2**64 - 1), max_size=3))
@example(offset=5000, rate=1.0, steer=None, granularity=8000,
         instants=[3 * 10**6, 10**13], far=[])
@example(offset=2**30, rate=0.0, steer=None, granularity=1, instants=[0, 10**9],
         far=[2**62 - 1, 2**62])
@example(offset=-7.25, rate=4.0, steer=(10**12, "stop"), granularity=1,
         instants=[2 * 10**12], far=[2**64 - 1])
def test_read_many_equals_ascending_reads_where_a_float_phase_falls_short(
        offset, rate, steer, granularity, instants, far):
    # a clock of one or two segments, the second maybe of rate 0, read at
    # instants whose exact phase lies on or next to an integer, next to a
    # tick and at or above 2**62.  An instant of an integer phase is walked
    # unless its segment's rate is 0 and its phase under 2**53 in 2**-32 ps
    def clock():
        return LocalClock(offset_ps=float(offset), freq_error_ppm=rate,
                          granularity_ps=granularity)

    # each segment's start, exact start phase in 2**-32 ps and rate
    segments = [(0, math.floor(Fraction(float(offset)) * 2**32), rate)]
    if steer is not None:
        at, adj = steer
        adj = -rate if adj == "stop" else adj
        segments.append((at, segments[0][1] + math.floor(
            Fraction(rate) * at * 2**32 / 10**6), rate + adj))

    def segment(t):
        return [seg for seg in segments if seg[0] <= t][-1]

    def phase(t) -> Fraction:
        s, p, r = segment(t)
        return Fraction(p, 2**32) + Fraction(r) * (t - s) / 10**6

    times = set(instants) | set(far)
    for t in instants[:3]:
        s, p, r = segment(t)
        x = phase(t)
        if r:
            for m in (math.floor(x), math.floor(x) + 1):
                u = (m - Fraction(p, 2**32)) * 10**6 / Fraction(r)
                times |= {s + math.floor(u), s + math.ceil(u)}
        tick = t - (t + math.floor(x)) % granularity
        times |= {tick - 1, tick, tick + 1}
    times = sorted(t for t in times if 0 <= t <= MAX_SIM_TIME)

    oracle, want, due = clock(), [], steer is not None
    for t in times:
        if due and at <= t:
            oracle.steer(at, adj)
            due = False
        want.append(oracle.read(t))
    got = clock()
    if steer is not None:
        got.steer(at, adj)
    reads, walked = walked_reads(got, times)
    assert reads == want
    must_walk = {t for t in times if t >= 2**62 or (
        phase(t).denominator == 1
        and not (segment(t)[2] == 0 and abs(segment(t)[1]) < 2**53))}
    assert must_walk <= set(walked)


@pytest.mark.parametrize("osc", [{"init_offset_us": 1e300},
                                 {"rw_sigma_ppm_per_sqrt_s": 1e300}])
def test_read_many_walks_the_boundary_sweeps_wild_oscillators(osc):
    # a switch clock as the sweep's 2 s probe makes it, its phase or drift
    # past the float range of an exact read: every such read is walked,
    # and no RuntimeWarning is raised on the way
    def switch_clock():
        cfg = TimesyncConfig(switch_osc=OscillatorConfig(**osc))
        return SyncDomain(small_fabric(), cfg, RngRegistry(5)).clocks["sw0"]

    times = sorted(np.random.default_rng(2).integers(0, 2 * PS_PER_S, 40).tolist())
    oracle = switch_clock()
    want = [oracle.read(t) for t in times]
    reads, walked = walked_reads(switch_clock(), times)
    assert reads == want
    assert len(walked) > 30


def test_walk_rate_is_the_exact_two_state_discretization():
    # step k's rate is y_k + c (z1 / 2 + z2 / (2 sqrt 3)), and
    # y_(k+1) = y_k + c z1, with z1, z2 the normals of words 2k and 2k + 1
    sigma, fe = 0.3, 2.0
    stream = RngStream(4, "walk")
    c = LocalClock(freq_error_ppm=fe, rw_sigma_ppm_per_sqrt_s=sigma, rng=stream)
    c.offset_at(3 * PS_PER_S)
    y, rates = fe, []
    for k in range(4):
        z1, z2 = as_normals(stream.words(2 * k, 2)).tolist()
        rates.append(y + sigma * (0.5 * z1 + 0.5 / math.sqrt(3.0) * z2))
        y = y + sigma * z1
    assert c._rates.tolist() == rates
    assert c._starts.tolist() == [k * PS_PER_S for k in range(4)]


class StepwiseClock(LocalClock):
    """The reference walk: each step's two normals read on their own, and
    y summed one step at a time."""

    def _extend(self, t):
        if self._k < 0:
            self._starts, self._rates, self._phases = array("Q"), array("d"), array("d")
            self._resume = self._first = (0, self._p0)
        c = self.walk_sigma
        while self._next_ps <= t:
            at, k = self._next_ps, self._k + 1
            z1, z2 = as_normals(self._rng.words(2 * k, 2)).tolist()
            self._walk = self._y + c * (0.5 * z1 + 0.5 / math.sqrt(3.0) * z2)
            self._y += c * z1
            self._next_ps, self._k = (k + 1) * PS_PER_S, k
            self._segment(at, self._walk + self.freq_adj_ppm)


# steps 127, 128 and 256 start the second and third block of the walk
_BLOCK_EDGES = [127 * PS_PER_S, 128 * PS_PER_S, 128 * PS_PER_S + 1, 256 * PS_PER_S]


@settings(deadline=None)
@given(sigma=st.floats(1e-6, 10.0), fe=st.floats(-100.0, 100.0),
       steers=st.lists(st.tuples(st.one_of(
           st.integers(0, 400).map(lambda k: k * PS_PER_S),
           st.integers(0, 400 * PS_PER_S)), st.floats(-50.0, 50.0)), max_size=8),
       instants=st.lists(st.integers(0, 400 * PS_PER_S), max_size=12),
       end=st.integers(257 * PS_PER_S, 400 * PS_PER_S))
@example(sigma=0.05, fe=10.0, steers=[(t, 1.5) for t in _BLOCK_EDGES],
         instants=[t + d for t in _BLOCK_EDGES for d in (-1, 0, 1)], end=257 * PS_PER_S)
def test_block_walk_equals_the_stepwise_walk(sigma, fe, steers, instants, end):
    # a walking clock, steered on lattice points and between them, over at
    # least three blocks of its walk: its segments, reads and offsets are
    # the stepwise reference's
    def clock(cls):
        return cls(offset_ps=-4321.5, freq_error_ppm=fe, rw_sigma_ppm_per_sqrt_s=sigma,
                   granularity_ps=8, rng=RngStream(6, "walk"))

    got, want = clock(LocalClock), clock(StepwiseClock)
    for at, adj in sorted(steers):
        got.steer(at, adj)
        want.steer(at, adj)
    times = sorted(instants + [end])
    assert got.read_many(times) == [want.read(t) for t in times]
    assert [got.read(t) for t in times] == [want.read(t) for t in times]
    assert got._starts == want._starts and got._rates == want._rates
    ticks = np.array(times, dtype=np.uint64)
    assert got.offsets(ticks).tolist() == want.offsets(ticks).tolist()


def test_granularity_must_be_positive():
    with pytest.raises(ConfigurationError):
        LocalClock(granularity_ps=0)


# --- exchange arithmetic ----------------------------------------------------

def test_symmetric_exchange_zero_offset():
    s = two_step_offset(0, 10, 20, 30)
    assert (s.offset_ps, s.mean_path_delay_ps) == (0, 10)
    assert not s.negative_delay


def test_offset_five_exchange():
    s = two_step_offset(0, 15, 20, 25)
    assert (s.offset_ps, s.mean_path_delay_ps) == (5, 10)


def test_relay_residence_shortens_measured_delay():
    # 2 ticks of accumulated residence on each leg of the symmetric
    # exchange: offset still 0, path delay drops from 10 to 8
    s = two_step_offset(0, 10, 20, 30, fwd_correction=2, rev_correction=2)
    assert (s.offset_ps, s.mean_path_delay_ps) == (0, 8)


def test_one_sided_correction_shifts_offset():
    s = two_step_offset(0, 10, 20, 30, fwd_correction=4, rev_correction=0)
    assert (s.offset_ps, s.mean_path_delay_ps) == (-2, 8)


def test_halving_truncates_toward_zero():
    assert two_step_offset(0, 5, 0, 10).offset_ps == -2
    assert two_step_offset(0, 7, 0, 2).offset_ps == 2
    assert two_step_offset(0, 7, 0, 2).mean_path_delay_ps == 4


def test_negative_delay_flagged_not_raised():
    s = two_step_offset(0, -20, 0, 10)
    assert s.negative_delay
    assert s.mean_path_delay_ps < 0


# --- servo ------------------------------------------------------------------

def test_servo_holds_adjustment_at_zero_offset():
    s = ServoState()
    servo_update(s, 1000.0)
    held = servo_update(s, 0.0)
    assert servo_update(s, 0.0) == held  # integrator unchanged by zero offset


def test_open_loop_servo_never_corrects():
    s = ServoState(kp=0.0, ki=0.0)
    assert servo_update(s, 1e9) == 0.0
    assert s.freq_adj_ppm == 0.0


def test_servo_clamps_adjustment():
    s = ServoState(clamp_ppm=100.0)
    assert servo_update(s, 1e15) == -100.0
    s2 = ServoState(clamp_ppm=100.0)
    assert servo_update(s2, -1e15) == 100.0


def test_discipline_loop_converges_on_constant_drift():
    # closed loop against a +5 ppm oscillator: the integral term must
    # absorb the bias and bring the offset below one 8 ns granule
    clock = LocalClock(offset_ps=500_000.0, freq_error_ppm=5.0)
    servo = ServoState()
    t = 0
    offsets = []
    for _ in range(200):
        t += PS_PER_S
        off = clock.offset_at(t)
        offsets.append(off)
        clock.steer(t, servo_update(servo, off))
    assert abs(offsets[-1]) < 8000
    assert abs(offsets[-1]) < abs(offsets[0])


def test_open_loop_drift_grows_linearly():
    clock = LocalClock(offset_ps=0.0, freq_error_ppm=5.0)
    servo = ServoState(kp=0.0, ki=0.0)
    t = 0
    for k in range(1, 6):
        t += PS_PER_S
        off = clock.offset_at(t)
        clock.steer(t, servo_update(servo, off))
        assert off == pytest.approx(k * 5 * PS_PER_US)


# --- sync domain ------------------------------------------------------------

def zero_noise_config(offset_us=5.0, kp=0.0, ki=0.0, **kw):
    return TimesyncConfig(tile_osc=quiet_osc(offset_us),
                          switch_osc=quiet_osc(),
                          jitter_scale=0.0, servo_kp=kp, servo_ki=ki, **kw)


def test_zero_noise_offsets_are_exact():
    # no jitter, no drift, 1 ps ticks, open-loop servo: each measured
    # offset must equal the true (integer) clock offset
    report, domain = run_sync(small_fabric(), zero_noise_config(), 10.0, seed=3,
                              cls=RecordingDomain)
    assert len(domain.records) >= 4 * 9
    for rec in domain.records:
        assert rec.offset_ps == rec.true_offset_ps
        assert not isinstance(rec.true_offset_ps, bool)
        assert rec.delay_ps > 0


def test_transparent_residence_sweep_is_invariant():
    # relays with perfect clocks: their dwell must cancel to the tick
    outcomes = []
    for residence_us in (0.0, 1.0, 100.0):
        cfg = zero_noise_config(residence_us=residence_us)
        report, domain = run_sync(small_fabric(), cfg, 10.0, seed=3,
                                  cls=RecordingDomain)
        outcomes.append([(r.node, r.seq, r.offset_ps, r.delay_ps)
                         for r in domain.records])
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert len(outcomes[0]) > 0


def test_imperfect_relay_clock_leaves_residue():
    # a relay clock up to 100 ppm off over a 2 ms dwell mismeasures the
    # residence by the same amount on both legs, so the measured delay
    # carries it and the offset, exact in integers, moves by at most the
    # 1 ps tick
    base = run_sync(small_fabric(), zero_noise_config(residence_us=0.0),
                    10.0, seed=3, cls=RecordingDomain)[1].records
    cfg = TimesyncConfig(tile_osc=quiet_osc(5.0),
                         switch_osc=OscillatorConfig(0.0, 100.0, 0.0, 1),
                         jitter_scale=0.0, servo_kp=0.0, servo_ki=0.0,
                         residence_us=2000.0)
    skewed = run_sync(small_fabric(), cfg, 10.0, seed=3, cls=RecordingDomain)[1].records
    assert [r.delay_ps for r in base] != [r.delay_ps for r in skewed]
    assert all(abs(a.offset_ps - b.offset_ps) <= 1 for a, b in zip(base, skewed))


def test_closed_loop_domain_converges():
    cfg = TimesyncConfig(tile_osc=OscillatorConfig(10.0, 10.0, 0.0, 8000),
                         switch_osc=quiet_osc(granularity_ps=8000),
                         jitter_scale=0.0)
    report, domain = run_sync(small_fabric(), cfg, 60.0, seed=5)
    s = report.summary()
    assert s["unconverged_nodes"] == []
    assert s["convergence_time_ps"] is not None
    # pooled percentile stays inside the declared convergence band; the
    # tail of each series shows the settled loop, well below the band
    assert s["p99_residual_ps"] < 2 * PS_PER_US
    for node in report.nodes:
        tail = report.series(node)[1][-10:]
        assert abs(tail).max() < 200_000


def test_one_way_asymmetry_biases_by_half():
    # extra one-way delay A on the forward leg settles the disciplined
    # clock at -A/2, within one timestamp granule
    extra_ps = 100_000  # 100 ns
    fab = small_fabric().with_link_overrides(
        {"link_t000": {"extra_ab_ps": extra_ps}})
    cfg = TimesyncConfig(tile_osc=OscillatorConfig(5.0, 2.0, 0.0, 8000),
                         switch_osc=quiet_osc(granularity_ps=8000),
                         jitter_scale=0.0)
    report, domain = run_sync(fab, cfg, 60.0, seed=7)
    tail = report.series("t000")[1][-20:]
    assert abs(abs(tail.mean()) - extra_ps / 2) <= 8000
    other = report.series("t001")[1][-20:]
    assert abs(other.mean()) <= 8000


def eight_tile_fabric():
    return build_default_fabric(FabricConfig(
        counts={"wall_a": 2, "wall_b": 2, "floor": 2, "ceiling": 2}, switch_count=2))


@pytest.mark.parametrize("boundary", [(), ("sw1",)])
def test_sampling_and_tracing_leave_the_exchanges_alone(boundary):
    # the sampler reads each clock only once every exchange has closed, so
    # its interval cannot move a single draw; the domain fires no event,
    # so an event trace has nothing of it to record
    runs = []
    for sample_interval_s in (0.05, 0.1, 0.5):
        cfg = TimesyncConfig(sample_interval_s=sample_interval_s,
                             boundary_switches=boundary)
        _, domain = run_sync(eight_tile_fabric(), cfg, 30.0, seed=7,
                             cls=RecordingDomain)
        runs.append(domain.records)
    assert len(runs[0]) == 30 * (8 + len(boundary))
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("sample_interval_s", [0.05, 0.1, 0.5])
def test_residuals_equal_offset_at_on_a_copy_taken_at_each_tick(sample_interval_s):
    # noisy clocks and links, a boundary switch (sw1) and two relays, and
    # three disconnects: t001 between ticks, t002 and t003 on a tick.
    # Epochs spread over most of the 0.3 s interval, a 20 ms relay dwell
    # and a 30 ms turnaround put ticks between a boundary master's own
    # reads and its slaves' reads of it, and between each two reads of one
    # exchange.  The ten-event reference steps its clocks in the loop; at
    # every tick, a copy of each of its ports' clocks is read as the
    # sampler once read the clock itself.  The batched domain's residual
    # must be that value.
    cfg = TimesyncConfig(start_s=0.0, sync_interval_s=0.3, stagger_ms=40.0,
                         residence_us=20_000.0, turnaround_us=30_000.0,
                         sample_interval_s=sample_interval_s,
                         boundary_switches=("sw1",))
    until = from_seconds(6.0)
    tick = from_seconds(sample_interval_s)
    copied = {}

    def run(cls):
        fab = build_default_fabric(FabricConfig(counts={"wall_a": 4, "floor": 2},
                                                switch_count=3))
        domain = cls(fab, cfg, RngRegistry(4), cuts={
            tile: from_seconds(t_s)
            for tile, t_s in (("t001", 3.333), ("t002", 4.0), ("t003", 5.0))})
        domain.start(until)

        def copy_clocks(_arg):
            now = domain.loop.now
            for node, port in domain.ports.items():
                copied[node, now] = copy.deepcopy(port.clock).offset_at(now)

        if cls is StepwiseDomain:
            domain.loop.every(tick, tick, until, "test", "all", "copy_clocks",
                              copy_clocks)
        return domain, domain.finish()

    stepwise, _ = run(StepwiseDomain)
    domain, report = run(SyncDomain)
    assert report.offline == ["t001", "t002", "t003"]
    for node, port in domain.ports.items():
        assert port.closed_ps == stepwise.ports[node].closed_ps
        want = [t for t in range(tick, until + 1, tick) if port.closed_ps <= t
                and (port.cut_ps is None or t < port.cut_ps)]
        times, resid = report.series(node)
        assert times == want
        assert resid.tobytes() == np.array([copied[node, t] for t in times]).tobytes()


def test_tick_at_first_correction_is_sampled_and_tick_at_cut_is_not():
    until = from_seconds(4.0)
    closed = run_sync(eight_tile_fabric(), TimesyncConfig(), 4.0,
                      seed=7)[1].ports["t000"].closed_ps
    # a sampler ticking at t000's first correction, which sampling cannot move
    cfg = TimesyncConfig(sample_interval_s=closed / PS_PER_S)
    assert from_seconds(cfg.sample_interval_s) == closed
    domain = SyncDomain(eight_tile_fabric(), cfg, RngRegistry(7),
                        cuts={"t001": 3 * closed})
    domain.start(until)
    report = domain.finish()
    assert domain.ports["t000"].closed_ps == closed
    assert report.series("t000")[0][:2] == [closed, 2 * closed]
    assert report.series("t001")[0] == [2 * closed]
    assert report.summary()["offline_nodes"] == ["t001"]


@pytest.mark.parametrize("boundary", [(), ("sw1",)])
def test_a_cut_after_the_run_is_no_cut_and_one_at_its_end_drops_the_last_tick(
        boundary, tmp_path):
    # a port's spans end at its last instant, the run's end or the instant
    # before its cut; a cut past the end once sampled the port to the cut,
    # more sample times than residuals, and listed it offline
    until = from_seconds(10.0)
    cfg = TimesyncConfig(boundary_switches=boundary)

    def run(cuts):
        domain = SyncDomain(eight_tile_fabric(), cfg, RngRegistry(7), cuts=cuts)
        domain.start(until)
        report = domain.finish()
        path = tmp_path / "sync_report.csv"
        report.to_csv(path)
        series = {n: (report.series(n)[0], report.series(n)[1].tolist())
                  for n in report.nodes}
        return report.summary(), series, path.read_bytes()

    summary, series, text = run({})
    assert series["t001"][0][-1] == until
    for cut in (until + 1, until + from_seconds(5.0)):
        assert run({"t001": cut}) == (summary, series, text)
    cut_summary, cut_series, _ = run({"t001": until})
    assert cut_summary["offline_nodes"] == ["t001"]
    times, resid = series.pop("t001")
    assert cut_series.pop("t001") == (times[:-1], resid[:-1])
    assert cut_series == series


def test_offline_tiles_do_not_exchange():
    report, domain = run_sync(
        small_fabric(), zero_noise_config(), 10.0, seed=3, cls=RecordingDomain,
        cuts={"t000": 0})
    nodes = {r.node for r in domain.records}
    assert "t000" not in nodes
    assert {"t001", "t002", "t003"} <= nodes


def test_boundary_switch_serves_its_tiles():
    fab = small_fabric()
    cfg = zero_noise_config(boundary_switches=("sw0",))
    report, domain = run_sync(fab, cfg, 10.0, seed=3)
    assert domain.ports["sw0"].master == "central"
    for tid in fab.switches["sw0"].attached:
        assert domain.ports[tid].master == "sw0"
    for tid in fab.switches["sw1"].attached:
        assert domain.ports[tid].master == "central"
    assert "sw0" in domain.ports
    assert "sw1" not in domain.ports


@pytest.mark.parametrize("boundary", [(), ("sw0", "sw1")])
def test_start_counts_two_events_an_exchange(boundary):
    # the work bound counts an exchange's sync message and its close,
    # direct or relayed; neither is an event, `finish` works out both
    cfg = TimesyncConfig(start_s=0.5, sync_interval_s=0.5, stagger_ms=0.0,
                         boundary_switches=boundary)
    domain = SyncDomain(small_fabric(), cfg, RngRegistry(1))
    assert domain.start(from_seconds(2.6)) == len(domain.ports) * 5 * 2
    assert [p.exchanges for p in domain.ports.values()] == [5] * len(domain.ports)
    domain.finish()
    assert [p.corrections for p in domain.ports.values()] == [5] * len(domain.ports)


def test_interval_no_longer_than_an_exchange_is_refused():
    cfg = TimesyncConfig(sync_interval_s=0.0006, followup_lag_us=100.0,
                         turnaround_us=500.0, residence_us=0.0)
    domain = SyncDomain(small_fabric(), cfg, RngRegistry(1))
    with pytest.raises(ConfigurationError,
                       match="^timesync.sync_interval_s must be longer than one exchange"):
        domain.start(PS_PER_S)
    cfg.sync_interval_s = 0.0007
    SyncDomain(small_fabric(), cfg, RngRegistry(1)).start(PS_PER_S)


def test_clock_i_takes_words_2i_and_2i_plus_1_of_the_init_stream():
    # clocks in the order gm, switches, clock tiles; each oscillator's
    # bands differ, its walk is off and its ticks are 1 ps, so a read at 0
    # is the initial offset and the one segment's rate the frequency error
    fabric = small_fabric()
    bands = {"gm_osc": (3.0, 1.0), "switch_osc": (50.0, 20.0), "tile_osc": (7.5, 4.0)}
    cfg = TimesyncConfig(stream_label="ts", **{
        key: OscillatorConfig(a, f, 0.0, 1) for key, (a, f) in bands.items()})
    domain = SyncDomain(fabric, cfg, RngRegistry(8))
    order = [(CENTRAL_ID, "gm_osc")] + [(sw, "switch_osc") for sw in fabric.switches]
    order += [(tile_id, "tile_osc") for tile_id in fabric.tiles]
    assert list(domain.clocks) == [node for node, _ in order]
    u = as_uniforms(RngStream(8, "ts/init").words(0, 2 * len(order))).tolist()
    for i, (node, osc) in enumerate(order):
        a, f = bands[osc]
        clock = domain.clocks[node]
        assert clock.read(0) == round((-a + 2 * a * u[2 * i]) * PS_PER_US)
        assert clock._rates.tolist() == [-f + 2 * f * u[2 * i + 1]]


def test_unknown_boundary_switch_rejected():
    with pytest.raises(ConfigurationError, match="boundary"):
        run_sync(small_fabric(), zero_noise_config(boundary_switches=("sw9",)), 1.0)


def test_load_coupling_scales_jitter():
    fab = small_fabric()
    link = fab.tile_link("t000")
    cfg = TimesyncConfig(load_coupling=2.0, jitter_scale=1.0)
    # half the link's rate over a 1 ms window: utilization exactly 0.5
    load = TrackerLoad(PS_PER_MS, [(link.id, 0, link.bandwidth_bps // 16_000)])
    domain = SyncDomain(fab, cfg, RngRegistry(1), load=load)
    assert domain.effective_jitter_sigma_ns(link, 0) == \
        pytest.approx(link.jitter_sigma_ns * 2.0)
    unloaded = SyncDomain(fab, TimesyncConfig(jitter_scale=1.0), RngRegistry(1))
    assert unloaded.effective_jitter_sigma_ns(link, 0) == \
        pytest.approx(link.jitter_sigma_ns)


# --- report -----------------------------------------------------------------

def test_report_convergence_detection():
    r = SyncReport(threshold_ps=2_000_000, consecutive=3)
    series = [3e6, 1e6, 1.5e6, 1.9e6, 0.1e6]
    for i, v in enumerate(series):
        r.add_sample("n", i * 10, v)
    r.finalize()
    assert r.convergence_time_ps("n") == 10
    assert list(r.post_convergence("n")) == series[1:]


def test_report_handles_unconverged_node():
    r = SyncReport(threshold_ps=1000, consecutive=2)
    for i in range(5):
        r.add_sample("bad", i, 1e9)
        r.add_sample("good", i, 10.0)
    r.finalize()
    assert r.convergence_time_ps("bad") is None
    assert len(r.post_convergence("bad")) == 0
    assert r.overall_convergence_ps() is None
    assert r.summary()["unconverged_nodes"] == ["bad"]


def test_report_pools_percentiles_after_convergence():
    r = SyncReport(threshold_ps=100, consecutive=1)
    for i, v in enumerate([50.0, -50.0, 10.0, -10.0]):
        r.add_sample("n", i, v)
    r.finalize()
    p = r.percentiles()
    assert p["p50"] == pytest.approx(30.0)
    assert p["p99"] <= 50.0


def _three_call_percentiles(self) -> dict:
    # SyncReport.percentiles as it stood when it took an abs copy and made
    # one np.percentile call per level; kept verbatim as the oracle
    pooled = [self.post_convergence(n) for n in self.nodes]
    pooled = [p for p in pooled if len(p)]
    if not pooled:
        return {"p50": None, "p95": None, "p99": None}
    a = np.abs(np.concatenate(pooled))
    return {"p50": float(np.percentile(a, 50)),
            "p95": float(np.percentile(a, 95)),
            "p99": float(np.percentile(a, 99))}


_tied = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 7.0])


@settings(max_examples=200, deadline=None)
@given(series=st.lists(st.lists(st.one_of(_tied, st.floats(-1e15, 1e15)),
                                min_size=1, max_size=30),
                       min_size=1, max_size=4),
       threshold=st.sampled_from([3, 10**18]))
@example(series=[[-4.0]], threshold=10**18)
@example(series=[[2.5, -2.5, 2.5, -2.5]], threshold=10**18)
def test_percentiles_equal_three_separate_calls_bit_for_bit(series, threshold):
    r = SyncReport(threshold_ps=threshold, consecutive=1)
    for k, values in enumerate(series):
        r.add_series(f"t{k:03d}", range(len(values)), np.array(values))
    r.finalize()
    before = {n: r.series(n)[1].copy() for n in r.nodes}
    hexed = {k: None if v is None else v.hex()
             for k, v in r.percentiles().items()}
    assert hexed == {k: None if v is None else v.hex()
                     for k, v in _three_call_percentiles(r).items()}
    # the pooled copy is the only array made absolute in place
    for n, values in before.items():
        assert r.series(n)[1].tobytes() == values.tobytes()


_tick_ranges = st.dictionaries(
    st.one_of(st.sampled_from(["central", "sw0", "t007"]),
              st.text(alphabet='ab-_7 ,"\r\n\u00e9', min_size=1, max_size=6)),
    st.tuples(st.sampled_from([1, 7, 100_000_000_000]), st.integers(0, 3),
              st.integers(0, 40), st.sampled_from([0, 1, 10**6])),
    min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(series=_tick_ranges, seed=st.integers(0, 2**32 - 1))
@example(series={"t000": (7, 0, 5, 0), "t001": (7, 2, 5, 0), "t002": (7, 1, 3, 10**6),
                 "t003": (1, 3, 4, 0), "t004": (100_000_000_000, 1, 0, 0)}, seed=1)
def test_report_csv_of_tick_ranges_matches_csv_writer(series, seed):
    # each node's sample times a range (step, first tick, length, offset
    # off the grid): overlapping and far-apart ranges on one grid, other
    # grids, empty ranges; ties among the residuals
    draws = np.random.default_rng(seed)
    r = SyncReport(threshold_ps=100, consecutive=1)
    for node, (step, first, n, off) in series.items():
        start = off + first * step
        values = np.round(draws.normal(0, 50, n) * 2) / 2
        r.add_series(node, range(start, start + n * step, step), values)
    r.finalize()
    with tempfile.TemporaryDirectory() as d:
        got, want = os.path.join(d, "got.csv"), os.path.join(d, "want.csv")
        r.to_csv(got)
        _csv_writer_to_csv(r, want)
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read()


def test_report_csv_format(tmp_path):
    r = SyncReport(threshold_ps=100, consecutive=1)
    r.add_sample("n", 5, 42.4)
    r.finalize()
    out = tmp_path / "r.csv"
    r.to_csv(out)
    assert out.read_text().splitlines() == ["true_time_ps,node,residual_ps",
                                            "5,n,42"]


def _csv_writer_to_csv(self, path) -> None:
    # SyncReport.to_csv as it stood when it wrote one csv.writer row per
    # sample; kept verbatim as the oracle for the block writer
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["true_time_ps", "node", "residual_ps"])
        for node in self.nodes:
            times, resid = self._times[node], self._resid[node]
            for t, r in zip(times, resid):
                w.writerow([t, node, int(round(r))])


_TIES = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.0, 0.0,
         1e15, -1e15, 1e15 - 0.5, -(1e15 - 0.5)]
_residuals = st.one_of(st.sampled_from(_TIES),
                       st.floats(-1e15, 1e15, allow_nan=False))
_node_ids = st.one_of(st.sampled_from(["central", "sw0", "t007"]),
                      st.text(alphabet='ab-_7 ,"\r\n\u00e9', min_size=1, max_size=6))
_series = st.dictionaries(
    _node_ids,
    st.lists(st.tuples(st.integers(0, MAX_SIM_TIME), _residuals),
             min_size=1, max_size=20),
    min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(series=_series, finalize=st.booleans())
@example(series={"sw0": [(7, -0.0)],
                 "t000": [(0, 0.5), (1, -0.5), (2, 2.5), (3, -2.5),
                                  (4, 1e15), (5, -1e15), (6, 1e15 - 0.5)],
                 "t001": [(10, 1.5), (11, -1.5)]},
         finalize=True)
def test_report_csv_matches_csv_writer_byte_for_byte(series, finalize):
    r = SyncReport(threshold_ps=100, consecutive=1)
    for node, samples in series.items():
        for t, v in samples:
            r.add_sample(node, t, v)
    if finalize:
        r.finalize()
    with tempfile.TemporaryDirectory() as d:
        got, want = os.path.join(d, "got.csv"), os.path.join(d, "want.csv")
        r.to_csv(got)
        _csv_writer_to_csv(r, want)
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read()


# --- fusion oracle (R7) -----------------------------------------------------

class TrackerLoad:
    """The load signature over fixed records (link id, instant, bytes), kept
    as the reference: each reader series reads its own `LinkLoadTracker`,
    fed in time order the records at or before each occurrence it reads.
    A series must read its occurrences in ascending order."""

    def __init__(self, window_ps, records):
        self.window_ps = window_ps
        self.records = {}
        for link_id, t, nbytes in sorted(records, key=lambda r: r[1]):
            self.records.setdefault(link_id, []).append((t, nbytes))
        self.readers = {}

    def __call__(self, link_id, start, period, first, n):
        records = self.records.get(link_id, [])
        tracker, fed = self.readers.get((link_id, start, period),
                                        (LinkLoadTracker(self.window_ps), 0))
        rates = []
        for t in range(start + first * period, start + (first + n) * period, period):
            while fed < len(records) and records[fed][0] <= t:
                tracker.record(link_id, *records[fed])
                fed += 1
            w = tracker.windows.get(link_id)
            rates.append(0.0 if w is None else w.bits_per_second(t, self.window_ps))
        self.readers[link_id, start, period] = tracker, fed
        return np.array(rates)


def loaded_links(fab, records_per_link):
    """Every link of `fab` loaded a four-hundredth of its rate every 10 ms,
    over a 50 ms window."""
    return TrackerLoad(from_seconds(0.05), [
        (link.id, k * from_seconds(0.01), link.bandwidth_bps // 400)
        for k in range(records_per_link) for link in fab.links.values()])


def hop_jitter(jitter, sigma_ns, seq):
    """Exchange seq's jitter on the sync and the delay-request hop of one
    link, drawn alone at the link's sigma: the draw each exchange made at
    its egress before closes ran in batches, kept as the oracle."""
    if sigma_ns <= 0:
        return 0, 0
    scale = sigma_ns * 1000 / jitter.denom
    z = as_normals(jitter.rng.stream(jitter.name).words(2 * seq, 2)).tolist()
    return (round(scale * math.exp(jitter.s * z[0])),
            round(scale * math.exp(jitter.s * z[1])))


class StepwiseDomain(RecordingDomain):
    """The exchange as ten events on the domain's own loop, each step
    reading its clock as it fires: sync egress, relay ingress and egress,
    sync arrival, follow-up arrival, delay-request egress, relay ingress
    and egress, delay-request arrival and delay-response arrival.  `start`
    queues each port's egresses, and `finish` runs the loop to the end
    before it samples the residuals; no exchange is left for it to close.
    Each egress draws its hops' jitter alone (`hop_jitter`) at the sigma
    the load gives that one epoch, and the last step builds the exchange's
    record, so the recorded chunked close must give the same records."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.loop = EventLoop()
        self.seqs = {}

    def start(self, until_ps):
        work = super().start(until_ps)
        for node in sorted(self.ports):
            port = self.ports[node]
            self.loop.every(port.epoch_ps, self._interval_ps,
                            port.epoch_ps + (port.exchanges - 1) * self._interval_ps,
                            "timesync", node, "sync_egress", self._sync_egress, port)
        return work

    def finish(self):
        self.loop.run_until(self._until)
        return super().finish()

    def _close_port(self, port):
        """Each exchange closed in the loop, at its last step."""

    def _sync_egress(self, port):
        now = self.loop.now
        seq = self.seqs[port.node] = self.seqs.get(port.node, 0) + 1

        def jitter(hop):
            sigma = hop.sigma_ns(port.epoch_ps, self._interval_ps, seq - 1, 1)
            return hop_jitter(hop, float(sigma[0]), seq)

        up_sync, up_req = (0, 0) if port.up is None else jitter(port.up)
        down_sync, down_req = jitter(port.down)
        st = {"seq": seq, "t1": port.master_clock.read(now), "t2": None,
              "followup": False, "down_req": down_req, "up_req": up_req}
        if port.relay_clock is not None:
            self._step(now + port.up_hop_ps + up_sync, port, "relay_ingress",
                       self._relay_ingress, (port, st, "sync", down_sync))
        else:
            self._step(now + port.down_hop_ps + down_sync, port, "sync_arrival",
                       self._sync_arrival, (port, st, 0))
        self._step(now + port.followup_ps, port, "followup_arrival",
                   self._followup_arrival, (port, st))

    def _step(self, t, port, action, fn, arg):
        if t <= self._until:
            self.loop.schedule(t, "timesync", port.node, action, fn, arg)

    def _live(self, port, st):
        return st["seq"] == self.seqs[port.node] and (port.cut_ps is None
                                          or self.loop.now < port.cut_ps)

    def _relay_ingress(self, arg):
        port, st, leg, jitter = arg
        t_in = port.relay_clock.read(self.loop.now)
        self._step(self.loop.now + self._residence_ps, port, "relay_egress",
                   self._relay_egress, (port, st, leg, jitter, t_in))

    def _relay_egress(self, arg):
        port, st, leg, jitter, t_in = arg
        now = self.loop.now
        corr = port.relay_clock.read(now) - t_in
        if leg == "sync":
            self._step(now + port.down_hop_ps + jitter, port, "sync_arrival",
                       self._sync_arrival, (port, st, corr))
        else:
            self._step(now + port.up_req_hop_ps + jitter, port, "delay_req_arrival",
                       self._delay_req_arrival, (port, st, corr))

    def _sync_arrival(self, arg):
        port, st, corr = arg
        if self._live(port, st):
            st["t2"], st["fwd"] = port.clock.read(self.loop.now), corr
            self._maybe_request(port, st)

    def _followup_arrival(self, arg):
        port, st = arg
        if self._live(port, st):
            st["followup"] = True
            self._maybe_request(port, st)

    def _maybe_request(self, port, st):
        if st["t2"] is not None and st["followup"]:
            self._step(self.loop.now + self._turnaround_ps, port, "delay_req_egress",
                       self._delay_req_egress, (port, st))

    def _delay_req_egress(self, arg):
        port, st = arg
        if not self._live(port, st):
            return
        now = self.loop.now
        st["t3"] = port.clock.read(now)
        at = now + port.req_hop_ps + st["down_req"]
        if port.relay_clock is not None:
            self._step(at, port, "relay_ingress", self._relay_ingress,
                       (port, st, "delay_req", st["up_req"]))
        else:
            self._step(at, port, "delay_req_arrival", self._delay_req_arrival,
                       (port, st, 0))

    def _delay_req_arrival(self, arg):
        port, st, corr = arg
        if st["seq"] == self.seqs[port.node]:
            st["t4"], st["rev"] = port.master_clock.read(self.loop.now), corr
            self._step(self.loop.now + port.resp_ps, port, "delay_resp_arrival",
                       self._delay_resp_arrival, (port, st))

    def _delay_resp_arrival(self, arg):
        port, st = arg
        if not self._live(port, st):
            return
        now = self.loop.now
        sample = two_step_offset(st["t1"], st["t2"], st["t3"], st["t4"],
                                 st["fwd"], st["rev"])
        self.records.append(ExchangeRecord(
            port.node, st["seq"], st["t1"], st["t2"], st["t3"], st["t4"],
            st["fwd"], st["rev"], sample.offset_ps, sample.mean_path_delay_ps,
            port.clock.offset_at(now), now))
        port.clock.steer(now, servo_update(port.servo, sample.offset_ps))
        if port.closed_ps is None:
            port.closed_ps = now
        port.corrections += 1


def by_exchange(record):
    return record.node, record.seq


def _run_domain(cls, fab, cfg, until, cuts, load, seed=4):
    domain = cls(fab, cfg, RngRegistry(seed), load=load, cuts=cuts)
    domain.start(until)
    return domain, domain.finish()


@pytest.mark.parametrize("boundary", [(), ("sw0",)])
def test_fused_close_equals_the_ten_event_exchange(boundary):
    # sw0 a boundary switch or a transparent relay, sw1 and sw2 transparent
    # relays; noisy clocks and loaded links.  Long dwells and turnarounds
    # put a boundary master's steps inside its slaves' exchanges, and t002
    # is cut inside one.
    def fabric():
        return build_default_fabric(FabricConfig(
            counts={"wall_a": 3, "floor": 3, "ceiling": 3}, switch_count=3))

    cfg = TimesyncConfig(start_s=0.0, sync_interval_s=0.3, stagger_ms=20.0,
                         residence_us=20_000.0, turnaround_us=30_000.0,
                         load_coupling=3.0, boundary_switches=boundary)
    until = from_seconds(4.0)
    first = fabric()
    port_order = sorted(SyncDomain(first, cfg, RngRegistry(4)).ports)
    # t002's exchange 5 starts at its epoch; cut it 10 ms later
    epoch = (port_order.index("t002") * from_seconds(0.02) + 4 * from_seconds(0.3))
    cuts = {"t002": epoch + from_seconds(0.01)}
    runs = []
    for cls in (RecordingDomain, StepwiseDomain):
        fab = fabric()
        runs.append(_run_domain(cls, fab, cfg, until, cuts, loaded_links(fab, 400)))
    (fused, fused_report), (stepwise, step_report) = runs
    # the batch closes port by port, the reference in time order
    assert sorted(fused.records, key=by_exchange) == \
        sorted(stepwise.records, key=by_exchange)
    assert len(fused.records) > 100
    for node in fused_report.nodes:
        assert fused_report.series(node)[1].tobytes() == \
            step_report.series(node)[1].tobytes()
    # the cut exchange never closed: t002 corrected four times
    assert fused.ports["t002"].corrections == 4
    if boundary:
        assert boundary_steps_inside(fused, "sw0")


def boundary_steps_inside(domain, switch):
    """The recorded exchanges of `switch`'s slaves that span one of the
    switch's own servo steps."""
    steps = [r.at_ps for r in domain.records if r.node == switch]
    interval = domain._interval_ps
    return [r for r in domain.records if domain.ports[r.node].master == switch
            and any(domain.ports[r.node].epoch_ps + (r.seq - 1) * interval < c < r.at_ps
                    for c in steps)]


def block_filling_config(boundary):
    # 5 ms dwells and a 20 ms turnaround make an exchange about 40 ms of
    # the 50 ms interval, with epochs of other ports inside it
    return TimesyncConfig(start_s=0.0, sync_interval_s=0.05, stagger_ms=7.0,
                          residence_us=5_000.0, turnaround_us=20_000.0,
                          load_coupling=3.0, boundary_switches=boundary)


@pytest.mark.parametrize("boundary", [(), ("sw0",)])
@pytest.mark.parametrize("sigma_ns", [100.0, 2e7])
def test_closes_in_the_loop_equal_the_ten_event_exchange(boundary, sigma_ns):
    # `finish` closes each port's exchanges in chunks; the ten-event
    # reference closes each in its loop.  At a 20 ms tile-link sigma and
    # shape 2, a fifth or so of the tiles' exchanges outlast the interval
    # and never close
    fab = build_default_fabric(FabricConfig(
        counts={"wall_a": 3, "floor": 3}, switch_count=3,
        tile_jitter_sigma_ns=sigma_ns, jitter_shape=2.0))
    cfg = block_filling_config(boundary)
    # 3.125 chunks of exchanges a port, and t001 cut inside its third
    until = from_seconds(3.125 * _CLOSE_BLOCK * cfg.sync_interval_s)
    cuts = {"t001": from_seconds((2 * _CLOSE_BLOCK + 10.674) * cfg.sync_interval_s)}
    (batched, report), (stepwise, step_report) = [
        _run_domain(cls, fab, cfg, until, cuts, loaded_links(fab, 2000), seed=6)
        for cls in (RecordingDomain, StepwiseDomain)]
    # every port but the cut one closes four chunks, the last one short
    ports = [p for n, p in batched.ports.items() if n != "t001"]
    assert 3 * _CLOSE_BLOCK < min(p.exchanges for p in ports) < 4 * _CLOSE_BLOCK
    if sigma_ns < 1e3:
        # each closes, but for the last when the run ends inside it
        assert all(p.exchanges - 1 <= p.corrections for p in ports)
    else:
        assert 1.5 * _CLOSE_BLOCK < min(p.corrections for p in ports) < 3 * _CLOSE_BLOCK
    assert len(batched.records) > 11 * _CLOSE_BLOCK
    if boundary:
        assert boundary_steps_inside(batched, "sw0")
    assert sorted(batched.records, key=by_exchange) == \
        sorted(stepwise.records, key=by_exchange)
    for node in report.nodes:
        assert report.series(node)[1].tobytes() == step_report.series(node)[1].tobytes()


@pytest.mark.parametrize("boundary", [(), ("sw0",)])
def test_the_close_steps_over_each_segment_of_a_clock_a_port_reads_once(
        boundary, monkeypatch):
    # two tiles behind one switch whose phase is far past 2**52 ps, so that
    # every read of its clock is walked exactly.  Once the first tile has
    # closed, the switch's clock has its segments to the run's end, and the
    # second tile reads it chunk after chunk from the start.  The work of
    # the reads, each instant gathered and each segment crossed (one
    # `_phase_step`), grows with the run, not its square
    import tilesim.timesync as timesync
    gathered = steps = 0

    def counted_reads(clock, times):
        nonlocal gathered
        gathered += len(times)
        return read_many(clock, times)

    def counted_steps(rate_ppm, dt):
        nonlocal steps
        steps += 1
        return phase_step(rate_ppm, dt)

    read_many, phase_step = LocalClock.read_many, timesync._phase_step
    monkeypatch.setattr(LocalClock, "read_many", counted_reads)
    monkeypatch.setattr(timesync, "_phase_step", counted_steps)
    fab = build_default_fabric(FabricConfig(counts={"wall_a": 2}, switch_count=1))
    cfg = TimesyncConfig(boundary_switches=boundary, sample_interval_s=10.0,
                         switch_osc=OscillatorConfig(init_offset_us=1e12))
    per_run = []
    for duration_s in (1000, 4000):
        gathered = steps = 0
        _, domain = run_sync(fab, cfg, duration_s)
        assert abs(domain.clocks["sw0"].offset_at(0)) > 2**52
        # a segment a second of the switch's walk, and one a servo step of
        # a boundary switch, crossed once by each tile's walk
        assert steps > 2 * duration_s
        per_run.append(gathered + steps)
    assert per_run[1] < 4.5 * per_run[0]


class PermutedDomain(SyncDomain):
    """Closes its tile ports' exchanges at `finish` in a drawn order, after
    the boundary switches' as always."""

    def __init__(self, *args, order=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.order = order

    def finish(self):
        ports = list(self.ports.values())
        switches = [p for p in ports if p.node in self.fabric.switches]
        tiles = [p for p in ports if p.node not in self.fabric.switches]
        self.order.shuffle(tiles)
        for port in switches + tiles:
            super()._close_port(port)
        return super().finish()

    def _close_port(self, port):
        """Closed in the drawn order, above."""


@settings(max_examples=5, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([(), ("sw0",), ("sw0", "sw2")]))
def test_the_close_order_of_tile_ports_leaves_the_residuals_alone(order, boundary):
    def csv_bytes(domain):
        domain.start(from_seconds(3.0))
        with tempfile.TemporaryDirectory() as d:
            domain.finish().to_csv(os.path.join(d, "r.csv"))
            with open(os.path.join(d, "r.csv"), "rb") as f:
                return f.read()

    cfg = block_filling_config(boundary)
    fab = build_default_fabric(FabricConfig(counts={"wall_a": 3, "floor": 3},
                                            switch_count=3))
    cuts = {"t004": from_seconds(1.7)}
    plain = csv_bytes(SyncDomain(fab, cfg, RngRegistry(8), cuts=cuts))
    permuted = csv_bytes(PermutedDomain(fab, cfg, RngRegistry(8), order=order,
                                        cuts=cuts))
    assert permuted == plain
    assert plain.count(b"\n") > 6 * 25
