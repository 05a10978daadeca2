"""Acceptance gate: the thirteen end-to-end guarantees the simulator ships
with, one test per guarantee.  Each test posts a PASS/FAIL line with its
measured numbers into the terminal summary via the `verdict` fixture.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from tilesim.coherent import coherent_gain_batch, evaluate_beamforming, expected_gain
from tilesim.core import RngStream, from_seconds
from tilesim.dataplane import Broker, ConsumerGroup, fnv1a64
from tilesim.fabric import FabricConfig, Room, build_default_fabric
from tilesim.orchestrator import run_scenario
from tilesim.powerplane import POWER_CLASSES, Grant, PdDevice, PsePlane
from tilesim.rover import (Battery, KalmanState, MissionConfig, MissionRunner,
                           PowerDrawError, default_beacons, kalman_step,
                           measure_ranges, plan_sampling, trilaterate)
from tilesim.scenario import scenario_from_dict
from tilesim.timesync import OscillatorConfig, TimesyncConfig, run_sync_domain


def quiet_osc(offset_us=0.0, granularity_ps=1):
    return OscillatorConfig(init_offset_us=offset_us, freq_error_ppm=0.0,
                            rw_sigma_ppm_per_sqrt_s=0.0,
                            granularity_ps=granularity_ps)


def open_loop_config(offset_us=5.0, **kw):
    """No drift, no jitter, 1 ps ticks, servo held open: measurements must
    reproduce the true clock offsets bit for bit."""
    return TimesyncConfig(tile_osc=quiet_osc(offset_us), switch_osc=quiet_osc(),
                          jitter_scale=0.0, servo_kp=0.0, servo_ki=0.0, **kw)


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    cfg = scenario_from_dict({})
    t0 = time.perf_counter()
    result = run_scenario(cfg, tmp_path_factory.mktemp("default-a"))
    return result, time.perf_counter() - t0


def test_criterion_01_default_scenario_converges_quickly(default_run, verdict):
    result, wall = default_run
    ts = result.report["timesync"]
    p99 = ts["p99_residual_ps"]
    ok = (result.report["fabric"]["tiles"] == 140
          and result.report["duration_s"] == 300.0
          and not ts["unconverged_nodes"]
          and p99 < 1_000_000
          and wall < 60.0)
    assert verdict(1, ok, f"p99 residual {p99 / 1e3:.0f} ns over "
                          f"{ts['nodes']} clocks, wall time {wall:.1f} s")


def test_criterion_02_offsets_exact_when_noise_free(verdict):
    rnd = random.Random(202)
    surfaces = ("wall_a", "wall_b", "floor", "ceiling")
    checked = mismatches = 0
    for k in range(20):
        counts = {s: rnd.randint(1, 5)
                  for s in rnd.sample(surfaces, rnd.randint(1, 4))}
        fab = build_default_fabric(
            FabricConfig(counts=counts, switch_count=rnd.randint(1, 4),
                         cable_model=rnd.choice(["manhattan", "uniform", "fixed"])),
            RngStream(500 + k, "cabling"))
        cfg = open_loop_config(offset_us=rnd.uniform(-40.0, 40.0))
        report, domain = run_sync_domain(fab, cfg, 5.0, seed=900 + k)
        assert domain.exchanges
        for rec in domain.exchanges:
            checked += 1
            mismatches += rec.offset_ps != rec.true_offset_ps
    ok = mismatches == 0 and checked >= 300
    assert verdict(2, ok, f"{checked} measured offsets across 20 random "
                          f"topologies, {mismatches} differ from truth")


def test_criterion_03_relay_dwell_cancels_exactly(verdict):
    outcomes = []
    for residence_us in (0.0, 1.0, 100.0):
        fab = build_default_fabric(
            FabricConfig(counts={"wall_a": 5, "floor": 5}, switch_count=2))
        cfg = open_loop_config(residence_us=residence_us)
        report, domain = run_sync_domain(fab, cfg, 8.0, seed=33)
        outcomes.append([(r.node, r.seq, r.offset_ps, r.delay_ps)
                         for r in domain.exchanges])
    ok = outcomes[0] == outcomes[1] == outcomes[2] and len(outcomes[0]) > 50
    assert verdict(3, ok, f"{len(outcomes[0])} exchanges tick-identical "
                          f"across 0 / 1 us / 100 us of relay dwell")


def test_criterion_04_one_way_asymmetry_settles_at_half(verdict):
    details = []
    ok = True
    for extra_ps in (100_000, 1_000_000):
        fab = build_default_fabric(
            FabricConfig(counts={"wall_a": 4}, switch_count=2)
        ).with_link_overrides({"link_t000": {"extra_ab_ps": extra_ps}})
        cfg = TimesyncConfig(tile_osc=OscillatorConfig(5.0, 2.0, 0.0, 8000),
                             switch_osc=quiet_osc(granularity_ps=8000),
                             jitter_scale=0.0)
        report, _ = run_sync_domain(fab, cfg, 60.0, seed=7)
        tail = report.series("t000")[1][-20:]
        err = abs(abs(tail.mean()) - extra_ps / 2)
        ok = ok and err <= 8000
        details.append(f"{extra_ps / 1000:g} ns bias off by {err:.0f} ps")
    assert verdict(4, ok, "; ".join(details) + " (tolerance one 8 ns tick)")


def test_criterion_05_cable_randomization_barely_moves_p99(verdict):
    p99 = {}
    for model in ("fixed", "uniform"):
        fab = build_default_fabric(FabricConfig(cable_model=model),
                                   RngStream(11, "cabling"))
        report, _ = run_sync_domain(fab, TimesyncConfig(), 150.0, seed=11)
        p99[model] = report.summary()["p99_residual_ps"]
    shift = abs(p99["uniform"] - p99["fixed"]) / p99["fixed"]
    assert verdict(5, shift < 0.10,
                   f"p99 {p99['fixed']:.0f} ps equal-length vs "
                   f"{p99['uniform']:.0f} ps randomized 1-40 m: {shift:.1%} shift")


def test_criterion_06_budget_respected_and_fault_isolated(tmp_path, verdict):
    cfg = scenario_from_dict({
        "duration_s": 20.0,
        "power": {"overdraw_tile": "t007", "overdraw_at_s": 10.0,
                  "overdraw_w": 20.0},
        "coherent": {"enabled": False},
        "rover": {"enabled": False},
    })
    result = run_scenario(cfg, tmp_path)
    plane = result.power
    grant_rows = [r for r in plane.ledger if r[4] == "grant"]
    granted_mw = sum(POWER_CLASSES[r[2]].pse_mw for r in grant_rows)
    cutoff = from_seconds(10.0) + plane.detection_window_ps
    cuts = [r for r in plane.ledger
            if r[1] == "t007" and r[4].startswith("disconnect")]

    last_produce = {}
    for line in (result.out_dir / "topics.ndjson").read_text().splitlines():
        row = json.loads(line)
        last_produce[row["producer"]] = max(
            last_produce.get(row["producer"], 0), row["produce_time_ps"])
    sample_times = result.sync_report.series("t007")[0]
    # an exchange reads the slave's clock as its sync arrives, as its delay
    # request leaves and as it closes, so the last read bounds t007's last
    # exchange step
    last_clock_read = result.domain.clocks["t007"]._last_t

    ok = (len(grant_rows) == 140
          and granted_mw == 140 * POWER_CLASSES[3].pse_mw
          and granted_mw <= 9_000_000
          and len(cuts) == 1 and cuts[0][0] == cutoff
          and not plane.is_online("t007")
          and last_produce["t007"] < cutoff
          and max(last_produce.values()) > cutoff
          and max(sample_times) < cutoff
          and result.domain.ports["t007"].cut_ps == cutoff
          and last_clock_read < cutoff)
    assert verdict(6, ok, f"{granted_mw / 1000:.0f} W of 9000 W granted; "
                          f"overdrawing tile cut at {cuts[0][0] / 1e12:.3f} s "
                          f"and silent afterwards")


def test_criterion_07_highest_class_fleet_hits_global_cap(verdict):
    plane = PsePlane()
    for i in range(140):
        plane.register(PdDevice(f"t{i:03d}", requested_class=8))
    results = [plane.allocate(f"t{i:03d}", at=0) for i in range(140)]
    grants = sum(isinstance(r, Grant) for r in results)
    used = plane.global_used_mw()
    ok = grants == 100 and used == 9_000_000
    assert verdict(7, ok, f"{grants} of 140 requests granted, "
                          f"{used / 1000:.0f} W allocated")


def test_criterion_08_array_gain_statistics(verdict):
    gen = np.random.default_rng(808)
    worst = 0.0
    for sigma in (0.1, 0.5, 1.0):
        for n in (4, 16, 64):
            phases = gen.normal(0.0, sigma, size=(20_000, n))
            mean = float(coherent_gain_batch(phases).mean())
            model = expected_gain(n, sigma)
            worst = max(worst, abs(mean - model) / model)

    fab = build_default_fabric(FabricConfig(counts={"wall_a": 8},
                                            switch_count=2))
    report, _ = run_sync_domain(fab, open_loop_config(offset_us=0.0), 8.0,
                                seed=88)
    gain = evaluate_beamforming(fab, report, 2.45e9, (4.0, 2.0, 1.2), 200,
                                RngStream(88, "beam"))
    perfect = bool(np.all(gain.gains == 64.0))

    incoherent = coherent_gain_batch(
        gen.uniform(-np.pi, np.pi, size=(20_000, 16)))
    se = float(incoherent.std() / math.sqrt(incoherent.size))
    drift = abs(float(incoherent.mean()) - 16.0)

    ok = worst <= 0.02 and perfect and drift <= 3 * se
    assert verdict(8, ok, f"worst closed-form error {worst:.2%} over 9 "
                          f"sigma/size combos; perfect sync exactly 64.0 on "
                          f"all trials; incoherent mean within "
                          f"{drift / se:.1f} SE of 16")


def test_criterion_09_positioning_accuracy(verdict):
    room = Room()
    gen = np.random.default_rng(909)
    noisy = default_beacons(room, range_sigma_m=0.01)
    rng = RngStream(909, "ranging")
    errs = []
    for _ in range(1000):
        pose = (gen.uniform(0.5, 7.5), gen.uniform(0.5, 3.5), 0.35)
        sol = trilaterate(measure_ranges(pose, noisy, rng), noisy, pose[2])
        errs.append(math.dist(sol.position, pose[:2]))
    rms = float(np.sqrt(np.mean(np.square(errs))))

    exact = default_beacons(room, range_sigma_m=0.0)
    worst_exact = 0.0
    for _ in range(50):
        pose = (gen.uniform(0.5, 7.5), gen.uniform(0.5, 3.5), 0.3)
        sol = trilaterate(measure_ranges(pose, exact, rng), exact, pose[2])
        worst_exact = max(worst_exact, math.dist(sol.position, pose[:2]))

    # independent route: exhaustive 1 mm grid around one noisy solve
    pose = (5.1, 2.3, 0.2)
    ranges = measure_ranges(pose, noisy, RngStream(910, "oracle"))
    sol = trilaterate(ranges, noisy, 0.2)
    anchors = np.asarray(noisy.anchors)
    xs = np.arange(pose[0] - 0.05, pose[0] + 0.05, 0.001)
    ys = np.arange(pose[1] - 0.05, pose[1] + 0.05, 0.001)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, 0.2)], axis=1)
    cost = np.square(np.linalg.norm(pts[:, None, :] - anchors[None, :, :],
                                    axis=2) - ranges).sum(axis=1)
    best = pts[int(np.argmin(cost))][:2]
    oracle_gap = math.dist(sol.position, best)

    ok = rms <= 0.02 and worst_exact < 1e-6 and oracle_gap <= 0.002
    assert verdict(9, ok, f"RMS {rms * 100:.2f} cm over 1000 poses; "
                          f"noiseless worst {worst_exact:.1e} m; grid oracle "
                          f"gap {oracle_gap * 1000:.2f} mm")


def test_criterion_10_tracker_integrity(verdict):
    gen = np.random.default_rng(1010)
    st = KalmanState.at(0.0, 0.0)
    min_eig = np.inf
    for _ in range(100_000):
        meas = None
        if gen.random() < 0.7:
            meas = (float(gen.uniform(-30, 30)), float(gen.uniform(-30, 30)))
        st, _ = kalman_step(st, float(gen.uniform(0.01, 0.8)), meas,
                            accel_sigma=float(gen.uniform(0.05, 3.0)),
                            meas_var=float(gen.uniform(1e-4, 1.0)),
                            gate=float(gen.uniform(1.0, 6.0)))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(st.P).min()))
    psd_ok = min_eig >= -1e-9

    # constant-velocity truth with 10% metre-scale outliers
    sigma = 0.01
    track = KalmanState.at(0.0, 0.0, pos_var=1e-4, vel_var=1e-2)
    vx, vy, dt = 0.25, 0.1, 0.1
    raw_err, flt_err = [], []
    for k in range(1, 600):
        tx, ty = vx * k * dt, vy * k * dt
        fix = np.array([tx, ty]) + gen.normal(0, sigma, 2)
        if gen.random() < 0.1:
            fix = fix + gen.uniform(0.5, 1.0, 2)
        track, _ = kalman_step(track, dt, tuple(fix), accel_sigma=0.1,
                               meas_var=sigma * sigma, gate=3.0)
        raw_err.append(math.dist(fix, (tx, ty)))
        flt_err.append(math.dist((track.x[0], track.x[1]), (tx, ty)))
    raw_rms = float(np.sqrt(np.mean(np.square(raw_err))))
    flt_rms = float(np.sqrt(np.mean(np.square(flt_err))))

    # all-ones scalar table: gain 1/(k+1), estimate k/(k+1), variance 1/(k+1)
    table = KalmanState.at(0.0, 0.0, pos_var=1.0, vel_var=0.0)
    table_ok = True
    for k in range(1, 6):
        table, accepted = kalman_step(table, 1.0, (1.0, 1.0), accel_sigma=0.0,
                                      meas_var=1.0, gate=1e9)
        table_ok = (table_ok and accepted
                    and abs(table.x[0] - k / (k + 1)) < 1e-10
                    and abs(table.P[0, 0] - 1 / (k + 1)) < 1e-10)

    ok = psd_ok and flt_rms < raw_rms / 2 and table_ok
    assert verdict(10, ok, f"min covariance eigenvalue {min_eig:.1e} over 1e5 "
                           f"steps; gated RMS {flt_rms:.3f} m vs raw "
                           f"{raw_rms:.3f} m; scalar table to 1e-10")


def test_criterion_11_delivery_under_arbitrary_interleaving(verdict):
    rnd = random.Random(1111)
    broker = Broker("samples", 8, 1_000_000)
    members = []
    groups = []
    for gid in ("g0", "g1"):
        group = ConsumerGroup(gid, broker)
        for m in range(3):
            group.join(f"{gid}-m{m}")
            members.append((group, f"{gid}-m{m}"))
        groups.append(group)

    truth = set()
    delivered = {g.group_id: set() for g in groups}
    last_seen = {}
    order_ok = True

    def consume(group, member, budget):
        nonlocal order_ok
        res = group.poll(member, budget)
        for rec in res.records:
            part = fnv1a64(rec.key.encode()) % 8
            key = (group.group_id, part)
            if rec.offset <= last_seen.get(key, -1):
                order_ok = False
            last_seen[key] = rec.offset
            delivered[group.group_id].add((part, rec.offset))
        for part in group.partitions_of(member):
            last = group.last_delivered.get(part)
            if last is not None:
                group.commit(part, last + 1)
        return len(res.records)

    published = 0
    t = 0
    while published < 10_000:
        if rnd.random() < 0.6:
            for _ in range(rnd.randint(1, 8)):
                if published == 10_000:
                    break
                t += rnd.randint(1, 50)
                truth.add(broker.append(f"k{published:05d}", 64, t,
                                        f"p{rnd.randint(0, 5)}"))
                published += 1
        else:
            group, member = rnd.choice(members)
            consume(group, member, rnd.randint(1, 400))

    idle_rounds = 0
    while idle_rounds < 2:
        got = sum(consume(g, m, 500) for g, m in members)
        idle_rounds = idle_rounds + 1 if got == 0 else 0

    dense = True
    for part in range(8):
        offs = sorted(off for p, off in truth if p == part)
        dense = dense and offs == list(range(len(offs)))
    complete = all(delivered[g.group_id] == truth for g in groups)
    ok = dense and complete and order_ok and len(truth) == 10_000
    assert verdict(11, ok, f"10000 records over 8 partitions: offsets dense "
                           f"and increasing, both groups delivered "
                           f"{sorted(len(d) for d in delivered.values())}")


def test_criterion_12_endurance_and_energy_safety(verdict):
    battery = Battery(170.0, 480.0)
    endurance = battery.time_to_empty_s(100.0)
    seconds = 0
    while battery.soc > 0.0 and seconds < 10_000:
        battery.discharge(100.0, 1.0)
        seconds += 1
    drain_ok = endurance == 6120.0 and abs(seconds - 6120) <= 1

    with pytest.raises(PowerDrawError):
        Battery(170.0, 480.0).discharge(500.0, 1.0)

    room = Room()
    rnd = random.Random(12)
    floor_soc = 1.0
    finished = recharges = 0
    for k in range(100):
        res = rnd.choice([0.6, 0.9])
        x0, y0 = rnd.uniform(0.6, 1.4), rnd.uniform(0.6, 1.2)
        area = (x0, y0, x0 + rnd.randint(2, 3) * res,
                y0 + rnd.randint(2, 3) * res)
        plan = plan_sampling(room, res, (), 0.9, area=area)
        runner = MissionRunner(room, plan,
                               default_beacons(room, range_sigma_m=0.01),
                               Battery(rnd.uniform(1.2, 1.6), 480.0),
                               MissionConfig(),
                               RngStream(1200 + k, "mission"))
        summary = runner.run(2400.0)
        floor_soc = min(floor_soc, summary["min_soc"])
        finished += summary["visited"] == summary["waypoints"]
        recharges += summary["charge_events"]
    ok = drain_ok and floor_soc > 0.0 and recharges > 0
    assert verdict(12, ok, f"endurance {seconds} s (expected 6120); 500 W "
                           f"rejected; {finished}/100 missions finished with "
                           f"{recharges} recharges, lowest charge "
                           f"{floor_soc:.1%}")


def test_criterion_13_runs_reproduce_byte_for_byte(default_run, tmp_path_factory,
                                                   verdict):
    first, _ = default_run
    second = run_scenario(scenario_from_dict({}),
                          tmp_path_factory.mktemp("default-b"))
    repeat_same = all(
        (first.out_dir / name).read_bytes() == (second.out_dir / name).read_bytes()
        for name in ("report.json", "sync_report.csv", "topics.ndjson",
                     "power_ledger.csv", "gains.csv", "mission_log.csv"))

    relabeled = run_scenario(
        scenario_from_dict({"rover": {"stream_label": "rover-alt"}}),
        tmp_path_factory.mktemp("default-c"))
    sync_untouched = (first.out_dir / "sync_report.csv").read_bytes() == \
        (relabeled.out_dir / "sync_report.csv").read_bytes()
    mission_moved = (first.out_dir / "mission_log.csv").read_bytes() != \
        (relabeled.out_dir / "mission_log.csv").read_bytes()

    ok = repeat_same and sync_untouched and mission_moved
    assert verdict(13, ok, "repeat run byte-identical; swapping only the "
                           "platform's draw stream leaves sync output untouched")
