"""Clock models, exchange arithmetic, servo discipline, and the sync domain."""

import copy
import csv
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilesim.core import (EventLoop, MAX_SIM_TIME, PS_PER_MS, PS_PER_S,
                          PS_PER_US, RngRegistry, RngStream, SimulationError,
                          from_seconds)
from tilesim.dataplane import LinkLoadTracker
from tilesim.fabric import ConfigurationError, FabricConfig, build_default_fabric
from tilesim.timesync import (LocalClock, OscillatorConfig, ServoState,
                              SyncDomain, SyncReport, TimesyncConfig,
                              quantize_ps, run_sync_domain, servo_update,
                              two_step_offset)


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
    assert quantize_ps(15_999.9, 8000) == 8000
    assert quantize_ps(16_000.0, 8000) == 16_000
    assert quantize_ps(-0.5, 8000) == -8000
    assert quantize_ps(-8000.0, 8000) == -8000


def test_clock_rejects_backwards_reads():
    c = LocalClock()
    c.read(100)
    with pytest.raises(SimulationError):
        c.read(99)


def test_same_instant_reads_agree():
    c = LocalClock(offset_ps=5.0, freq_error_ppm=3.0, granularity_ps=1)
    assert c.read(PS_PER_S) == c.read(PS_PER_S)


def test_servo_steering_changes_rate():
    c = LocalClock()
    c.freq_adj_ppm = -2.0
    assert c.read(PS_PER_S) - PS_PER_S == -2 * PS_PER_US


def test_random_walk_is_stream_deterministic():
    a = LocalClock(rw_sigma_ppm_per_sqrt_s=0.1, rng=RngStream(3, "osc"))
    b = LocalClock(rw_sigma_ppm_per_sqrt_s=0.1, rng=RngStream(3, "osc"))
    for k in range(1, 20):
        assert a.read(k * PS_PER_MS) == b.read(k * PS_PER_MS)


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


def test_servo_lock_after_consecutive_small_offsets():
    s = ServoState(lock_threshold_ps=1000, lock_count=3)
    for _ in range(3):
        servo_update(s, 10.0)
    assert s.locked
    servo_update(s, 5000.0)
    assert not s.locked


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
        clock.freq_adj_ppm = servo_update(servo, off)
    assert abs(offsets[-1]) < 8000
    assert abs(offsets[-1]) < abs(offsets[0])


def test_open_loop_drift_grows_linearly():
    clock = LocalClock(offset_ps=0.0, freq_error_ppm=5.0)
    servo = ServoState(kp=0.0, ki=0.0)
    t = 0
    for k in range(1, 6):
        t += PS_PER_S
        off = clock.offset_at(t)
        clock.freq_adj_ppm = servo_update(servo, off)
        assert off == pytest.approx(k * 5 * PS_PER_US)


# --- sync domain ------------------------------------------------------------

def zero_noise_config(offset_us=5.0, kp=0.0, ki=0.0, **kw):
    return TimesyncConfig(tile_osc=quiet_osc(offset_us),
                          switch_osc=quiet_osc(),
                          jitter_scale=0.0, servo_kp=kp, servo_ki=ki, **kw)


def test_zero_noise_offsets_are_exact():
    # no jitter, no drift, 1 ps ticks, open-loop servo: each measured
    # offset must equal the true (integer) clock offset
    report, domain = run_sync_domain(small_fabric(), zero_noise_config(), 10.0, seed=3)
    assert len(domain.exchanges) >= 4 * 9
    for rec in domain.exchanges:
        assert rec.offset_ps == rec.true_offset_ps
        assert not isinstance(rec.true_offset_ps, bool)
        assert rec.delay_ps > 0


def test_transparent_residence_sweep_is_invariant():
    # relays with perfect clocks: their dwell must cancel to the tick
    outcomes = []
    for residence_us in (0.0, 1.0, 100.0):
        cfg = zero_noise_config(residence_us=residence_us)
        report, domain = run_sync_domain(small_fabric(), cfg, 10.0, seed=3)
        outcomes.append([(r.node, r.seq, r.offset_ps, r.delay_ps)
                         for r in domain.exchanges])
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert len(outcomes[0]) > 0


def test_imperfect_relay_clock_leaves_residue():
    # +100 ppm relay clock over 2 us dwell mismeasures residence, so the
    # sweep no longer cancels exactly
    base = run_sync_domain(small_fabric(), zero_noise_config(residence_us=0.0),
                           10.0, seed=3)[1].exchanges
    cfg = TimesyncConfig(tile_osc=quiet_osc(5.0),
                         switch_osc=OscillatorConfig(0.0, 100.0, 0.0, 1),
                         jitter_scale=0.0, servo_kp=0.0, servo_ki=0.0,
                         residence_us=2000.0)
    skewed = run_sync_domain(small_fabric(), cfg, 10.0, seed=3)[1].exchanges
    assert [r.offset_ps for r in base] != [r.offset_ps for r in skewed]


def test_closed_loop_domain_converges():
    cfg = TimesyncConfig(tile_osc=OscillatorConfig(10.0, 10.0, 0.0, 8000),
                         switch_osc=quiet_osc(granularity_ps=8000),
                         jitter_scale=0.0)
    report, domain = run_sync_domain(small_fabric(), cfg, 60.0, seed=5)
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
    report, domain = run_sync_domain(fab, cfg, 60.0, seed=7)
    tail = report.series("t000")[1][-20:]
    assert abs(abs(tail.mean()) - extra_ps / 2) <= 8000
    other = report.series("t001")[1][-20:]
    assert abs(other.mean()) <= 8000


def eight_tile_fabric():
    return build_default_fabric(FabricConfig(
        counts={"wall_a": 2, "wall_b": 2, "floor": 2, "ceiling": 2}, switch_count=2))


@pytest.mark.parametrize("boundary", [(), ("sw1",)])
def test_sampling_and_tracing_leave_the_exchanges_alone(boundary):
    # the sampler reads no clock while the loop runs, so neither its
    # interval nor the event trace can move a single draw
    runs = []
    for sample_interval_s in (0.05, 0.1, 0.5):
        for trace in (None, io.StringIO()):
            cfg = TimesyncConfig(sample_interval_s=sample_interval_s,
                                 boundary_switches=boundary)
            _, domain = run_sync_domain(eight_tile_fabric(), cfg, 30.0, seed=7,
                                        loop=EventLoop(trace))
            runs.append(domain.exchanges)
    assert len(runs[0]) == 30 * (8 + len(boundary))
    assert all(run == runs[0] for run in runs[1:])


def cut_at(loop, domain, tile, t):
    loop.schedule(t, "power", tile, "cut", lambda _a: domain.mark_offline(tile, loop.now))


@pytest.mark.parametrize("sample_interval_s", [0.05, 0.1, 0.5])
def test_residuals_equal_offset_at_on_a_copy_taken_at_each_tick(sample_interval_s):
    # noisy clocks and links, a boundary switch (sw1) and two relays, and
    # three disconnects: t001 between ticks, t002 and t003 on a tick.
    # Epochs spread over most of the 0.3 s interval, a 20 ms relay dwell
    # and a 30 ms turnaround put ticks between a boundary master's own
    # reads and its slaves' reads of it, and between each two reads of one
    # exchange.  At every tick, a copy of each port's clock is read as the
    # sampler once read the clock itself; the residual must be that value.
    fab = build_default_fabric(FabricConfig(counts={"wall_a": 4, "floor": 2},
                                            switch_count=3))
    cfg = TimesyncConfig(start_s=0.0, sync_interval_s=0.3, stagger_ms=40.0,
                         residence_us=20_000.0, turnaround_us=30_000.0,
                         sample_interval_s=sample_interval_s,
                         boundary_switches=("sw1",))
    until = from_seconds(6.0)
    tick = from_seconds(sample_interval_s)
    loop = EventLoop()
    domain = SyncDomain(loop, fab, cfg, RngRegistry(4))
    domain.start(until)
    copied = {}

    def copy_clocks(_arg):
        for node, port in domain.ports.items():
            copied[node, loop.now] = copy.deepcopy(port.clock).offset_at(loop.now)

    loop.every(tick, tick, until, "test", "all", "copy_clocks", copy_clocks)
    for tile, t_s in (("t001", 3.333), ("t002", 4.0), ("t003", 5.0)):
        cut_at(loop, domain, tile, from_seconds(t_s))
    loop.run_until(until)
    report = domain.finish()
    assert report.offline == ["t001", "t002", "t003"]
    for node, port in domain.ports.items():
        want = [t for t in range(tick, until + 1, tick) if port.closed_ps <= t
                and (port.cut_ps is None or t < port.cut_ps)]
        times, resid = report.series(node)
        assert times == want
        assert resid.tobytes() == np.array([copied[node, t] for t in times]).tobytes()


def test_tick_at_first_correction_is_sampled_and_tick_at_cut_is_not():
    until = from_seconds(4.0)
    closed = run_sync_domain(eight_tile_fabric(), TimesyncConfig(), 4.0,
                             seed=7)[1].ports["t000"].closed_ps
    # a sampler ticking at t000's first correction, which sampling cannot move
    cfg = TimesyncConfig(sample_interval_s=closed / PS_PER_S)
    assert from_seconds(cfg.sample_interval_s) == closed
    loop = EventLoop()
    domain = SyncDomain(loop, eight_tile_fabric(), cfg, RngRegistry(7))
    domain.start(until)
    cut_at(loop, domain, "t001", 3 * closed)
    loop.run_until(until)
    report = domain.finish()
    assert domain.ports["t000"].closed_ps == closed
    assert report.series("t000")[0][:2] == [closed, 2 * closed]
    assert report.series("t001")[0] == [2 * closed]
    assert report.summary()["offline_nodes"] == ["t001"]


def test_offline_tiles_do_not_exchange():
    report, domain = run_sync_domain(
        small_fabric(), zero_noise_config(), 10.0, seed=3,
        online=lambda node: node != "t000")
    nodes = {r.node for r in domain.exchanges}
    assert "t000" not in nodes
    assert {"t001", "t002", "t003"} <= nodes


def test_boundary_switch_serves_its_tiles():
    fab = small_fabric()
    cfg = zero_noise_config(boundary_switches=("sw0",))
    report, domain = run_sync_domain(fab, cfg, 10.0, seed=3)
    assert domain.ports["sw0"].master == "central"
    for tid in fab.switches["sw0"].attached:
        assert domain.ports[tid].master == "sw0"
    for tid in fab.switches["sw1"].attached:
        assert domain.ports[tid].master == "central"
    assert "sw0" in domain.ports
    assert "sw1" not in domain.ports


def test_unknown_boundary_switch_rejected():
    with pytest.raises(ConfigurationError, match="boundary"):
        run_sync_domain(small_fabric(),
                        zero_noise_config(boundary_switches=("sw9",)), 1.0)


def test_load_coupling_scales_jitter():
    fab = small_fabric()
    link = fab.tile_link("t000")
    loop = EventLoop()
    cfg = TimesyncConfig(load_coupling=2.0, jitter_scale=1.0)
    # half the link's rate over a 1 ms window: utilization exactly 0.5
    tracker = LinkLoadTracker(window_ps=PS_PER_MS)
    tracker.record(link.id, 0, link.bandwidth_bps // 16_000)
    domain = SyncDomain(loop, fab, cfg, RngRegistry(1), load=tracker)
    assert domain.effective_jitter_sigma_ns(link, 0) == \
        pytest.approx(link.jitter_sigma_ns * 2.0)
    unloaded = SyncDomain(EventLoop(), fab, TimesyncConfig(jitter_scale=1.0),
                          RngRegistry(1))
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
