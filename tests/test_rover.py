"""Mobile sampler: positioning, tracking, planning, and energy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim import rover
from tilesim.core import RngStream
from tilesim.fabric import ConfigurationError, Room
from tilesim.rover import (Battery, BeaconSet, KalmanState, MissionConfig,
                           MissionRunner, PowerDrawError, RoverError,
                           RoverState, TrilaterationError,
                           TrilaterationResult, default_beacons, kalman_step,
                           measure_ranges, mission_step, plan_sampling,
                           reserve_wh, trilaterate)

ROOM = Room(8.0, 4.0, 2.4)


# --- numpy reference kernels --------------------------------------------------
# The matrix formulation the closed-form kernels replaced, kept verbatim as
# the oracle of the equivalence tests below.

def numpy_trilaterate(ranges, beacons: BeaconSet, mobile_z: float,
                      initial=None, max_iterations: int = 50,
                      tolerance_m: float = 1e-6) -> TrilaterationResult:
    """Gauss-Newton least-squares for the (x, y) of a transponder at known
    height.  Converges when the step shrinks below the tolerance; raises
    with the last iterate attached when the iteration budget runs out."""
    anchors = np.asarray(beacons.anchors, dtype=float)
    d = np.asarray(ranges, dtype=float)
    if len(d) != len(anchors):
        raise ConfigurationError("one range per beacon required")
    if len(d) < 3:
        raise ConfigurationError("at least three usable ranges required")
    p = np.array(initial if initial is not None
                 else anchors[:, :2].mean(axis=0), dtype=float)
    for it in range(1, max_iterations + 1):
        pos3 = np.array([p[0], p[1], mobile_z])
        diff = pos3 - anchors
        dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        r = dist - d
        J = diff[:, :2] / dist[:, None]
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        p = p + step
        if float(np.linalg.norm(step)) < tolerance_m:
            pos3 = np.array([p[0], p[1], mobile_z])
            res = np.linalg.norm(pos3 - anchors, axis=1) - d
            return TrilaterationResult((float(p[0]), float(p[1])),
                                       float(np.sqrt(np.mean(res ** 2))), it)
    raise TrilaterationError(
        f"no convergence in {max_iterations} iterations",
        last_iterate=(float(p[0]), float(p[1])))


_H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])


def numpy_kalman_step(state: KalmanState, dt_s: float, measurement=None,
                      accel_sigma: float = 0.1, meas_var: float = 1e-4,
                      gate: float = 3.0) -> tuple[KalmanState, bool]:
    """Predict one interval and, when a position fix is supplied, gate it by
    Mahalanobis distance and fold it in with the Joseph-form update.

    Returns the new state and whether the measurement was accepted.  The
    incoming covariance must be symmetric positive semidefinite.
    """
    P = state.P
    if np.min(np.linalg.eigvalsh((P + P.T) / 2)) < -1e-12:
        raise RoverError("covariance lost positive semidefiniteness")
    F = np.eye(4)
    F[0, 2] = F[1, 3] = dt_s
    q2 = accel_sigma * accel_sigma
    a, b, c = dt_s ** 4 / 4, dt_s ** 3 / 2, dt_s ** 2
    Q = q2 * np.array([[a, 0, b, 0],
                       [0, a, 0, b],
                       [b, 0, c, 0],
                       [0, b, 0, c]])
    x = F @ state.x
    P = F @ P @ F.T + Q
    P = (P + P.T) / 2
    if measurement is None:
        return KalmanState(x, P), False
    z = np.asarray(measurement, dtype=float)
    R = np.eye(2) * meas_var
    y = z - _H @ x
    S = _H @ P @ _H.T + R
    d2 = float(y @ np.linalg.solve(S, y))
    if math.sqrt(max(d2, 0.0)) > gate:
        return KalmanState(x, P), False
    K = P @ _H.T @ np.linalg.inv(S)
    x = x + K @ y
    IKH = np.eye(4) - K @ _H
    P = IKH @ P @ IKH.T + K @ R @ K.T
    return KalmanState(x, (P + P.T) / 2), True


def exact_ranges(pose, beacons):
    return measure_ranges(pose, beacons, RngStream(0, "unused"))


def quiet_beacons(**kw):
    kw.setdefault("range_sigma_m", 0.0)
    return default_beacons(ROOM, **kw)


# --- beacons ----------------------------------------------------------------

def test_default_beacons_sit_in_upper_corners():
    b = default_beacons(ROOM)
    assert b.anchors == ((0.0, 0.0, 2.4), (8.0, 0.0, 2.4),
                         (8.0, 4.0, 2.4), (0.0, 4.0, 2.4))


def test_beacon_set_needs_four_anchors():
    with pytest.raises(ConfigurationError, match="four"):
        BeaconSet(((0, 0, 2), (1, 0, 2), (1, 1, 2)))


def test_collinear_beacons_rejected():
    with pytest.raises(ConfigurationError, match="collinear"):
        BeaconSet(((0, 0, 2), (1, 0, 2.1), (2, 0, 2), (3, 0, 2.2)))


def test_zero_sigma_ranges_are_exact():
    b = quiet_beacons()
    pose = (3.0, 1.5, 0.2)
    r = exact_ranges(pose, b)
    for d, a in zip(r, b.anchors):
        assert d == pytest.approx(math.dist(pose, a), abs=1e-12)


def test_outliers_only_inflate():
    b = quiet_beacons(outlier_prob=1.0)
    pose = (3.0, 1.5, 0.2)
    truth = exact_ranges(pose, quiet_beacons())
    noisy = measure_ranges(pose, b, RngStream(1, "outliers"))
    assert np.all(noisy >= truth)
    assert np.all(noisy <= truth + 1.0)


# --- trilateration ----------------------------------------------------------

def test_noiseless_recovery_is_submicron():
    b = quiet_beacons()
    rng = np.random.default_rng(4)
    for _ in range(25):
        pose = (rng.uniform(0.5, 7.5), rng.uniform(0.5, 3.5), 0.2)
        sol = trilaterate(exact_ranges(pose, b), b, 0.2)
        assert math.dist(sol.position, pose[:2]) < 1e-6
        assert sol.rms_residual_m < 1e-6


def test_noisy_rms_within_two_centimetres():
    b = default_beacons(ROOM, range_sigma_m=0.01)
    rng = RngStream(9, "ranges")
    gen = np.random.default_rng(5)
    errs = []
    for _ in range(200):
        pose = (gen.uniform(0.5, 7.5), gen.uniform(0.5, 3.5), 0.2)
        sol = trilaterate(measure_ranges(pose, b, rng), b, 0.2)
        errs.append(math.dist(sol.position, pose[:2]))
    assert math.sqrt(np.mean(np.square(errs))) <= 0.02


def test_solver_matches_grid_oracle():
    # exhaustive 1 mm grid around the noisy solution must not find a
    # better spot more than 2 mm away
    b = default_beacons(ROOM, range_sigma_m=0.01)
    pose = (3.2, 1.7, 0.2)
    ranges = measure_ranges(pose, b, RngStream(3, "oracle"))
    sol = trilaterate(ranges, b, 0.2)
    anchors = np.asarray(b.anchors)
    xs = np.arange(pose[0] - 0.05, pose[0] + 0.05, 0.001)
    ys = np.arange(pose[1] - 0.05, pose[1] + 0.05, 0.001)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, 0.2)], axis=1)
    cost = np.square(
        np.linalg.norm(pts[:, None, :] - anchors[None, :, :], axis=2) - ranges
    ).sum(axis=1)
    best = pts[int(np.argmin(cost))][:2]
    assert math.dist(sol.position, best) <= 0.002


def test_range_count_must_match():
    b = quiet_beacons()
    with pytest.raises(ConfigurationError, match="per beacon"):
        trilaterate([1.0, 2.0], b, 0.2)


def test_iteration_budget_exhaustion_reports_last_iterate():
    b = quiet_beacons()
    ranges = exact_ranges((3.0, 1.5, 0.2), b)
    with pytest.raises(TrilaterationError) as ei:
        trilaterate(ranges, b, 0.2, initial=(40.0, 40.0), max_iterations=1)
    assert ei.value.last_iterate is not None
    assert len(ei.value.last_iterate) == 2


def test_warm_start_converges_faster():
    b = quiet_beacons()
    pose = (6.5, 3.1, 0.2)
    ranges = exact_ranges(pose, b)
    cold = trilaterate(ranges, b, 0.2)
    warm = trilaterate(ranges, b, 0.2, initial=(6.49, 3.09))
    assert warm.iterations <= cold.iterations


@settings(max_examples=150, deadline=None)
@given(x=st.floats(0.3, 7.7), y=st.floats(0.3, 3.7), z=st.floats(0.0, 1.5),
       sigma=st.floats(0.0, 0.05), outlier_prob=st.sampled_from([0.0, 0.3]),
       warm=st.one_of(st.none(), st.tuples(st.floats(-0.5, 0.5),
                                           st.floats(-0.5, 0.5))),
       seed=st.integers(0, 2**32 - 1))
def test_trilaterate_matches_numpy_reference(x, y, z, sigma, outlier_prob,
                                             warm, seed):
    b = default_beacons(ROOM, range_sigma_m=sigma, outlier_prob=outlier_prob)
    ranges = measure_ranges((x, y, z), b, RngStream(seed, "ranges"))
    initial = None if warm is None else (x + warm[0], y + warm[1])
    got = trilaterate(ranges, b, z, initial=initial)
    want = numpy_trilaterate(ranges, b, z, initial=initial)
    assert got.iterations == want.iterations
    assert math.dist(got.position, want.position) <= 1e-9
    assert got.rms_residual_m == pytest.approx(want.rms_residual_m,
                                               rel=1e-9, abs=1e-12)


def test_measure_ranges_draw_order_is_unchanged():
    # per beacon: one normal, one uniform outlier test, and one uniform
    # outlier size when the test fires
    b = default_beacons(ROOM, range_sigma_m=0.01, outlier_prob=0.5)
    pose = (2.5, 1.5, 0.2)
    got = measure_ranges(pose, b, RngStream(21, "draws"))
    rng = RngStream(21, "draws")
    want = []
    for a in b.anchors:
        d = float(np.linalg.norm(np.asarray(pose) - np.asarray(a)))
        d += rng.normal(0.01)
        if rng.uniform() < 0.5:
            d += rng.uniform(0.0, 1.0)
        want.append(d)
    assert isinstance(got, np.ndarray)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_range_raises_trilateration_error(bad, capfd):
    b = quiet_beacons()
    ranges = exact_ranges((3.0, 1.5, 0.2), b)
    ranges[2] = bad
    with pytest.raises(TrilaterationError) as ei:
        trilaterate(ranges, b, 0.2, initial=(3.0, 1.5))
    assert ei.value.last_iterate == (3.0, 1.5)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("initial", [(math.nan, 1.0), (1e200, 1e200)])
def test_non_finite_normal_matrix_raises_trilateration_error(initial):
    b = quiet_beacons()
    with pytest.raises(TrilaterationError, match="normal matrix") as ei:
        trilaterate(exact_ranges((3.0, 1.5, 0.2), b), b, 0.2, initial=initial)
    assert len(ei.value.last_iterate) == 2


def test_mission_skips_fixes_with_non_finite_ranges(monkeypatch):
    # every ranging round is garbage: the tracker coasts on predictions and
    # the mission still completes on its true pose
    monkeypatch.setattr(rover, "measure_ranges",
                        lambda pose, beacons, rng: np.full(4, math.nan))
    run = small_mission()
    s = run.run(max_duration_s=600)
    assert s["visited"] == s["waypoints"]
    assert s["raw_fixes"] == 0


# --- tracking ---------------------------------------------------------------

def test_static_filter_reproduces_scalar_table():
    # all-ones position measurements with unit covariances and no process
    # noise collapse to running averages: gain 1/(k+1), estimate k/(k+1)
    st = KalmanState.at(0.0, 0.0, pos_var=1.0, vel_var=0.0)
    for k in range(1, 6):
        st, ok = kalman_step(st, 1.0, (1.0, 1.0), accel_sigma=0.0,
                             meas_var=1.0, gate=1e9)
        assert ok
        assert st.x[0] == pytest.approx(k / (k + 1), abs=1e-10)
        assert st.x[1] == pytest.approx(k / (k + 1), abs=1e-10)
        assert st.P[0, 0] == pytest.approx(1 / (k + 1), abs=1e-10)
        assert st.x[2] == 0.0 and st.x[3] == 0.0


def test_covariance_stays_psd_under_random_stepping():
    rng = np.random.default_rng(6)
    st = KalmanState.at(1.0, 1.0)
    for _ in range(2000):
        meas = None
        if rng.random() < 0.6:
            meas = (1.0 + rng.normal(0, 0.05), 1.0 + rng.normal(0, 0.05))
        st, _ = kalman_step(st, float(rng.uniform(0.01, 0.5)), meas,
                            accel_sigma=0.2, meas_var=2.5e-3)
        eig = np.linalg.eigvalsh(st.P)
        assert eig.min() >= -1e-12


def test_corrupted_covariance_is_rejected():
    st = KalmanState.at(0.0, 0.0)
    st.P[0, 0] = -1.0
    with pytest.raises(RoverError, match="semidefinite"):
        kalman_step(st, 0.1, None)


def test_gate_rejects_wild_fix_but_state_still_predicts():
    st = KalmanState.at(0.0, 0.0, pos_var=1e-4, vel_var=1e-4)
    st2, ok = kalman_step(st, 0.1, (50.0, 50.0), meas_var=1e-4, gate=3.0)
    assert not ok
    assert st2.x[0] == pytest.approx(0.0)
    st3, ok = kalman_step(st2, 0.1, (0.001, -0.001), meas_var=1e-4, gate=3.0)
    assert ok


def assert_states_close(got: KalmanState, want: KalmanState, seen):
    """x and P agree to 1e-12 of the largest magnitude among the states in
    `seen` and the two results.  `seen` holds the step's input and its
    prediction: the Joseph update cancels the predicted covariance, so that
    is the scale its rounding lives on."""
    for name in ("x", "P"):
        a, b = getattr(got, name), getattr(want, name)
        scale = max(np.abs(v).max() for v in
                    [a, b] + [np.asarray(getattr(s, name)) for s in seen])
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * scale)


@settings(max_examples=150, deadline=None)
@given(x=st.floats(-10, 10), y=st.floats(-10, 10),
       pos_var=st.floats(1e-4, 10.0), vel_var=st.floats(1e-4, 10.0),
       seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 30))
def test_kalman_step_matches_numpy_reference(x, y, pos_var, vel_var, seed,
                                             steps):
    # a reference track over random intervals, process and measurement
    # noise, gates and fixes (some wild, some missing); both kernels take
    # every step from the same reference state
    gen = np.random.default_rng(seed)
    state = KalmanState.at(x, y, pos_var, vel_var)
    for _ in range(steps):
        dt = float(gen.uniform(0.01, 1.0))
        kw = dict(accel_sigma=float(gen.uniform(0.0, 3.0)),
                  meas_var=float(10 ** gen.uniform(-6, 0)),
                  gate=float(gen.uniform(0.5, 10.0)))
        meas = None
        if gen.random() < 0.8:
            spread = math.sqrt(kw["meas_var"] + state.P[0, 0]) * gen.uniform(0, 6)
            meas = tuple(float(v) for v in state.x[:2] + gen.normal(0, spread, 2))
        predicted, _ = numpy_kalman_step(state, dt, None, **kw)
        got, ok = kalman_step(state, dt, meas, **kw)
        want, want_ok = numpy_kalman_step(state, dt, meas, **kw)
        assert ok == want_ok
        assert_states_close(got, want, [state, predicted])
        state = want


def psd_with_min_eigenvalue(lam: float) -> np.ndarray:
    q, _ = np.linalg.qr(np.arange(1.0, 17.0).reshape(4, 4) ** 0.5)
    return q @ np.diag([2.0, 1.0, 0.5, lam]) @ q.T


def test_psd_check_boundary():
    for impl in (kalman_step, numpy_kalman_step):
        ok = KalmanState(np.zeros(4), psd_with_min_eigenvalue(-1e-13))
        impl(ok, 0.1, None)
        bad = KalmanState(np.zeros(4), psd_with_min_eigenvalue(-1e-10))
        with pytest.raises(RoverError, match="semidefinite"):
            impl(bad, 0.1, None)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_covariance_is_rejected(bad):
    for i, j in ((0, 0), (3, 3), (2, 1)):
        st_ = KalmanState.at(0.0, 0.0)
        st_.P[i, j] = bad
        with pytest.raises(RoverError, match="semidefinite"):
            kalman_step(st_, 0.1, None)


@pytest.mark.parametrize("fix", [(math.nan, 0.0), (0.0, math.inf),
                                 (-math.inf, math.nan)])
def test_non_finite_fix_is_rejected_by_the_gate(fix):
    st_ = KalmanState.at(1.0, 2.0, pos_var=0.01, vel_var=0.01)
    predicted, _ = kalman_step(st_, 0.1, None)
    got, ok = kalman_step(st_, 0.1, fix, gate=1e300)
    assert not ok
    np.testing.assert_array_equal(got.x, predicted.x)
    np.testing.assert_array_equal(got.P, predicted.P)
    assert np.all(np.isfinite(got.P))


def test_singular_innovation_covariance_is_rejected():
    # zero position variance, no process noise and an exact sensor
    st_ = KalmanState.at(0.0, 0.0, pos_var=0.0, vel_var=0.0)
    with pytest.raises(RoverError, match="singular"):
        kalman_step(st_, 0.1, (0.0, 0.0), accel_sigma=0.0, meas_var=0.0)


def test_prediction_spreads_covariance():
    st = KalmanState.at(0.0, 0.0, pos_var=0.01, vel_var=0.01)
    st2, _ = kalman_step(st, 1.0, None, accel_sigma=0.3)
    assert st2.P[0, 0] > st.P[0, 0]


def test_gated_filter_beats_raw_fixes_on_outlier_trace():
    # constant-velocity truth, 10% metre-scale outliers: the gate should
    # keep the track error well under the raw fix error
    rng = np.random.default_rng(8)
    sigma = 0.01
    st = KalmanState.at(0.0, 0.0, pos_var=1e-4, vel_var=1e-2)
    vx, vy, dt = 0.25, 0.1, 0.1
    raw_err, flt_err = [], []
    for k in range(1, 600):
        tx, ty = vx * k * dt, vy * k * dt
        fix = np.array([tx, ty]) + rng.normal(0, sigma, 2)
        if rng.random() < 0.1:
            fix = fix + rng.uniform(0.5, 1.0, 2)
        st, _ = kalman_step(st, dt, tuple(fix), accel_sigma=0.1,
                            meas_var=sigma * sigma, gate=3.0)
        raw_err.append(math.dist(fix, (tx, ty)))
        flt_err.append(math.dist((st.x[0], st.x[1]), (tx, ty)))
    rms = lambda v: math.sqrt(np.mean(np.square(v)))
    assert rms(flt_err) < rms(raw_err) / 2


# --- planning ---------------------------------------------------------------

def test_plan_covers_patch_with_lift_stops():
    p = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 1.8, 1.8))
    # 2 x 2 cells, lift stops 0.55 / 1.15 / 1.75
    assert p.z_stops == (0.55, 1.15, 1.75)
    assert len(p.waypoints) == 4 * 3
    xs = {w[0] for w in p.waypoints}
    ys = {w[1] for w in p.waypoints}
    assert xs == {0.9, 1.5} and ys == {0.9, 1.5}
    # stops are grouped per cell, ascending
    assert [w[2] for w in p.waypoints[:3]] == [0.55, 1.15, 1.75]


def test_single_lift_stop_when_z_resolution_exceeds_span():
    p = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 1.8, 1.8), z_resolution_m=2.0)
    assert p.z_stops == (0.55,)
    assert len(p.waypoints) == 4


def test_serpentine_adjacency():
    p = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 3.0, 2.4), z_resolution_m=2.0)
    cells = [w[:2] for w in p.waypoints]
    for a, b in zip(cells, cells[1:]):
        assert math.dist(a, b) <= 0.6 + 1e-9   # no jumps, no diagonal skips


def test_obstacles_block_inflated_cells():
    clear = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 2.4, 2.4),
                          z_resolution_m=2.0)
    blocked = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 2.4, 2.4),
                            obstacles=[(1.4, 1.4, 1.6, 1.6)],
                            z_resolution_m=2.0)
    assert len(blocked.waypoints) < len(clear.waypoints)
    for wx, wy, _ in blocked.waypoints:
        assert not (1.15 <= wx <= 1.85 and 1.15 <= wy <= 1.85)


def test_orientation_picks_shorter_sweep():
    # full grid is a tie: row-major wins
    tie = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 1.8, 2.4),
                        z_resolution_m=2.0)
    assert tie.orientation == "row_major"
    # a notch in the bottom row makes column sweeps cheaper
    notched = plan_sampling(ROOM, 0.6, obstacles=[(1.2, 0.0, 1.8, 0.6)],
                            area=(0.0, 0.0, 3.0, 1.2), z_resolution_m=2.0,
                            inflation_m=0.0)
    assert notched.orientation == "column_major"
    assert len(notched.waypoints) == 9


def test_fully_blocked_area_rejected():
    with pytest.raises(ConfigurationError, match="reachable"):
        plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 1.2, 1.2),
                      obstacles=[(0.0, 0.0, 2.0, 2.0)])


def test_area_must_fit_room():
    with pytest.raises(ConfigurationError, match="inside"):
        plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 9.0, 1.2))
    with pytest.raises(ConfigurationError, match="resolution"):
        plan_sampling(ROOM, 0.0)


def test_plan_size_bound_counts_cells_times_lift_stops():
    # 10 x 10 cells of a 1 m patch, 1.3 m of lift in 1.3e-4 m steps:
    # 100 cells x 10,001 stops is just over the bound; 101 stops is not
    area = (0.6, 0.6, 1.6, 1.6)
    with pytest.raises(ConfigurationError, match="lift stops"):
        plan_sampling(ROOM, 0.1, z_resolution_m=1.3e-4, area=area)
    p = plan_sampling(ROOM, 0.1, z_resolution_m=0.013, area=area)
    assert len(p.waypoints) == 100 * 101
    # a cell count that overflows to infinity is refused too
    with pytest.raises(ConfigurationError, match="lift stops"):
        plan_sampling(ROOM, 5e-324)


# --- battery ----------------------------------------------------------------

def test_endurance_arithmetic_is_exact():
    b = Battery(capacity_wh=170.0, peak_w=480.0)
    assert b.time_to_empty_s(100.0) == 6120.0   # 1.7 h on the dot
    b.discharge(100.0, 3060.0)
    assert b.soc == pytest.approx(0.5)
    assert b.time_to_empty_s(100.0) == pytest.approx(3060.0)


def test_peak_draw_enforced():
    b = Battery()
    with pytest.raises(PowerDrawError, match="peak"):
        b.discharge(500.0, 1.0)
    with pytest.raises(PowerDrawError, match="positive"):
        b.time_to_empty_s(0.0)
    b.discharge(480.0, 1.0)     # the rated peak itself is fine


def test_charge_clamps_at_full():
    b = Battery(soc=0.99)
    b.charge(60.0, 3600.0)
    assert b.soc == 1.0
    b2 = Battery(soc=0.001)
    b2.discharge(480.0, 100.0)
    assert b2.soc == 0.0        # floor, not negative


def test_drawn_energy_accumulates():
    b = Battery()
    b.discharge(100.0, 36.0)
    b.discharge(50.0, 72.0)
    assert b.drawn_wh == pytest.approx(2.0)


# --- mission logic ----------------------------------------------------------

def test_reserve_floor_arithmetic():
    cfg = MissionConfig()
    # 3-4-5 triangle from the charger: 5 m at 0.3 m/s and 80 W, doubled
    assert reserve_wh((3.5, 4.5), cfg) == pytest.approx(5 / 0.3 * 80 / 3600 * 2)
    assert reserve_wh(cfg.charger_xy, cfg) == 0.0


def test_mission_step_decisions():
    cfg = MissionConfig()
    full = Battery()
    st = RoverState(x=3.0, y=2.0, activity="moving")
    assert mission_step(st, full, cfg, 5) == "continue"
    assert mission_step(st, full, cfg, 0) == "done"
    low = Battery(soc=reserve_wh((3.0, 2.0), cfg) / 170.0 * 0.99)
    assert mission_step(st, low, cfg, 5) == "return_to_charge"


def test_returning_is_committed():
    # once heading home the shrinking floor must not flip the decision
    cfg = MissionConfig()
    st = RoverState(x=2.0, y=2.0, activity="returning")
    b = Battery(soc=reserve_wh((2.0, 2.0), cfg) / 170.0 * 0.8)
    assert mission_step(st, b, cfg, 5) == "return_to_charge"


def test_unreachable_charger_raises():
    cfg = MissionConfig()
    st = RoverState(x=7.5, y=3.5, activity="returning")
    b = Battery(soc=1e-6)
    with pytest.raises(RoverError, match="unreachable"):
        mission_step(st, b, cfg, 5)


def test_charging_holds_until_resume_threshold():
    cfg = MissionConfig()
    st = RoverState(activity="charging")
    assert mission_step(st, Battery(soc=0.5), cfg, 5) == "charge"
    assert mission_step(st, Battery(soc=0.96), cfg, 5) == "resume"


# --- mission runner ----------------------------------------------------------

def small_mission(rng_name="mission", **cfg_kw):
    plan = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 1.8, 1.8),
                         z_resolution_m=2.0)
    cfg = MissionConfig(**cfg_kw)
    return MissionRunner(ROOM, plan, default_beacons(ROOM), Battery(),
                         cfg, RngStream(12, rng_name))


def test_runner_visits_every_waypoint():
    run = small_mission()
    s = run.run(max_duration_s=600)
    assert s["visited"] == s["waypoints"] == 4
    assert s["charge_events"] == 0
    assert s["min_soc"] > 0.9
    assert s["duration_s"] < 600
    assert run.log[-1].event == "done"


def test_runner_tracks_true_pose():
    run = small_mission()
    run.run(max_duration_s=600)
    est = (run.track.x[0], run.track.x[1])
    assert math.dist(est, (run.state.x, run.state.y)) < 0.05
    assert len(run.raw_fixes) > 100


def test_runner_is_deterministic(tmp_path):
    a, b = small_mission(), small_mission()
    assert a.run(600) == b.run(600)
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_log_csv(fa)
    b.write_log_csv(fb)
    assert fa.read_bytes() == fb.read_bytes()
    assert fa.read_text().splitlines()[0] == \
        "time_ps,x,y,lift,soc,est_x,est_y,event"


def test_runner_returns_to_charge_on_small_battery():
    plan = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 3.0, 3.0),
                         z_resolution_m=2.0)
    cfg = MissionConfig()
    # full plan needs ~1 Wh; 0.9 forces a recharge but keeps every cell
    # inside the post-recharge reserve envelope
    battery = Battery(capacity_wh=0.9)
    run = MissionRunner(ROOM, plan, default_beacons(ROOM), battery, cfg,
                        RngStream(13, "low"))
    s = run.run(max_duration_s=3600)
    assert s["charge_events"] >= 1
    assert s["min_soc"] > 0.0
    assert s["visited"] == s["waypoints"]
    events = [r.event for r in run.log]
    assert "return_to_charge" in events
    assert "charging" in events
    assert "resume" in events


def test_runner_timeout_is_reported():
    run = small_mission()
    s = run.run(max_duration_s=1.0)
    assert run.log[-1].event == "timeout"
    assert s["visited"] < s["waypoints"]


@pytest.mark.parametrize("rate_hz,tick_s", [(3.0, 0.1), (10.0, 0.1), (5.0, 0.2)])
def test_fixes_come_at_the_first_tick_at_or_after_each_fix_instant(
        rate_hz, tick_s, monkeypatch):
    # one ranging per fix, at integer-ps ticks; 3 Hz at 0.1 s ticks falls
    # between ticks, so each fix waits for the next one
    plan = plan_sampling(ROOM, 0.6, area=(0.6, 0.6, 1.8, 1.8),
                         z_resolution_m=2.0)
    run = MissionRunner(ROOM, plan,
                        BeaconSet(default_beacons(ROOM).anchors, rate_hz=rate_hz),
                        Battery(), MissionConfig(tick_s=tick_s),
                        RngStream(12, "fixes"))
    ranged_at = []
    measure = rover.measure_ranges

    def recording(*args):
        ranged_at.append(run._t)
        return measure(*args)

    monkeypatch.setattr(rover, "measure_ranges", recording)
    run.run(max_duration_s=5.0)
    tick = round(tick_s * 1e12)
    ticks = range(tick, round(5.0 * 1e12) + 1, tick)
    # the first tick at or after k / rate_hz seconds, in exact integers
    expected = sorted({min(t for t in ticks if t * rate_hz >= k * 1e12)
                       for k in range(1, int(5.0 * rate_hz) + 1)})
    assert ranged_at == expected
