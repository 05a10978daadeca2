"""Mobile sampling platform: acoustic ranging against fixed beacons,
Gauss-Newton position solves, a gated constant-velocity Kalman tracker,
serpentine coverage planning and a battery-aware mission loop.

The three kernels the mission loop runs every beacon period (ranging,
trilateration and the Kalman step) are closed-form scalar arithmetic: the
2x2 Gauss-Newton normal equations are solved by their determinant, and the
4-state constant-velocity filter is written out entry by entry, keeping the
Joseph-form update and the positive-semidefinite covariance check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_SIM_TIME, PS_PER_S, RngStream, SimTime, from_seconds
from .fabric import ConfigurationError, Room

LIFT_MIN_M = 0.55
LIFT_MAX_M = 1.85
MAX_PLAN_STOPS = 1_000_000   # the shipped scenario plans 48, rover_survey 141
# each cell's centre is tested against each obstacle in Python, about 0.1 us
# a test: set-up at the bound took 0.2-0.3 s with Python 3.11 on a 2-core Xeon
MAX_OBSTACLE_TESTS = 2_000_000   # rover_survey makes 150


class RoverError(RuntimeError):
    pass


class TrilaterationError(RoverError):
    def __init__(self, msg: str, last_iterate=None):
        super().__init__(msg)
        self.last_iterate = last_iterate


# --- beacons and ranging ----------------------------------------------------

@dataclass(frozen=True)
class BeaconSet:
    anchors: tuple                      # ((x, y, z), ...) at least four
    range_sigma_m: float = 0.01
    rate_hz: float = 10.0
    outlier_prob: float = 0.0

    def __post_init__(self):
        if len(self.anchors) < 4:
            raise ConfigurationError("at least four beacons are required")
        xy = np.array([a[:2] for a in self.anchors])
        centered = xy - xy.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
            raise ConfigurationError("beacon ground positions are collinear")


def default_beacons(room: Room, **kw) -> BeaconSet:
    """Four beacons in the upper corners of the room."""
    L, W, H = room.length_m, room.width_m, room.height_m
    return BeaconSet(((0.0, 0.0, H), (L, 0.0, H), (L, W, H), (0.0, W, H)), **kw)


def measure_ranges(pose_xyz, beacons: BeaconSet, rng: RngStream) -> np.ndarray:
    """One round of beacon distances with gaussian noise and, if configured,
    occasional positive outliers of up to a metre (multipath-like)."""
    px, py, pz = pose_xyz
    sigma, outlier_prob = beacons.range_sigma_m, beacons.outlier_prob
    out = []
    for ax, ay, az in beacons.anchors:
        dx, dy, dz = px - ax, py - ay, pz - az
        d = math.sqrt(dx * dx + dy * dy + dz * dz) + rng.normal(sigma)
        if outlier_prob > 0 and rng.uniform() < outlier_prob:
            d += rng.uniform(0.0, 1.0)
        out.append(d)
    return np.array(out)


@dataclass(frozen=True)
class TrilaterationResult:
    position: tuple[float, float]
    rms_residual_m: float
    iterations: int


# the normal matrix [[a, b], [b, c]] counts as singular when its determinant
# is below this fraction of a*c: the range gradients are then within about
# 1e-6 rad of parallel, and a*c - b*b is mostly cancellation error
_SINGULAR_RATIO = 1e-12


def trilaterate(ranges, beacons: BeaconSet, mobile_z: float,
                initial=None, max_iterations: int = 50,
                tolerance_m: float = 1e-6) -> TrilaterationResult:
    """Gauss-Newton least-squares for the (x, y) of a transponder at known
    height.  Each step solves the 2x2 normal equations J'J s = -J'r in
    closed form.  Converges when the step shrinks below the tolerance;
    raises with the last iterate attached when the iteration budget runs
    out, when a range is not finite, or when the normal matrix is singular
    or not finite."""
    d = np.asarray(ranges, dtype=float).tolist()
    if len(d) != len(beacons.anchors):
        raise ConfigurationError("one range per beacon required")
    if len(d) < 3:
        raise ConfigurationError("at least three usable ranges required")
    z = float(mobile_z)
    # (x, y, squared height difference) per beacon; the height is fixed
    anchors = [(float(ax), float(ay), (z - az) * (z - az))
               for ax, ay, az in beacons.anchors]
    if initial is not None:
        px, py = float(initial[0]), float(initial[1])
    else:
        px = sum(a[0] for a in anchors) / len(anchors)
        py = sum(a[1] for a in anchors) / len(anchors)
    if not all(math.isfinite(v) for v in d):
        raise TrilaterationError("non-finite range", last_iterate=(px, py))
    for it in range(1, max_iterations + 1):
        a = b = c = gx = gy = 0.0
        for (ax, ay, dz2), di in zip(anchors, d):
            dx, dy = px - ax, py - ay
            dist = math.sqrt(dx * dx + dy * dy + dz2)
            if dist < 1e-12:
                dist = 1e-12
            jx, jy, r = dx / dist, dy / dist, dist - di
            a += jx * jx
            b += jx * jy
            c += jy * jy
            gx -= jx * r
            gy -= jy * r
        det = a * c - b * b
        if not det > _SINGULAR_RATIO * a * c:
            raise TrilaterationError("singular or non-finite normal matrix",
                                     last_iterate=(px, py))
        sx = (c * gx - b * gy) / det
        sy = (a * gy - b * gx) / det
        px += sx
        py += sy
        if math.sqrt(sx * sx + sy * sy) < tolerance_m:
            ss = 0.0
            for (ax, ay, dz2), di in zip(anchors, d):
                dx, dy = px - ax, py - ay
                res = math.sqrt(dx * dx + dy * dy + dz2) - di
                ss += res * res
            return TrilaterationResult((px, py), math.sqrt(ss / len(d)), it)
    raise TrilaterationError(
        f"no convergence in {max_iterations} iterations",
        last_iterate=(px, py))


# --- tracking ---------------------------------------------------------------

@dataclass
class KalmanState:
    """Constant-velocity planar track: state [x, y, vx, vy]."""
    x: np.ndarray
    P: np.ndarray

    @classmethod
    def at(cls, x: float, y: float, pos_var: float = 1.0,
           vel_var: float = 1.0) -> "KalmanState":
        return cls(np.array([x, y, 0.0, 0.0]),
                   np.diag([pos_var, pos_var, vel_var, vel_var]).astype(float))


# the covariance check tolerates eigenvalues down to -_PSD_SLACK
_PSD_SLACK = 1e-12


def _psd_within_slack(a00, a01, a02, a03, a11, a12, a13, a22, a23,
                      a33) -> bool:
    """Square-root-free Cholesky (L D L') of the symmetric matrix plus
    _PSD_SLACK * I.  Every pivot is positive and finite exactly when the
    matrix is finite with no eigenvalue below -_PSD_SLACK."""
    d0 = a00 + _PSD_SLACK
    if not 0.0 < d0 < math.inf:
        return False
    l10, l20, l30 = a01 / d0, a02 / d0, a03 / d0
    d1 = a11 + _PSD_SLACK - l10 * a01
    if not 0.0 < d1 < math.inf:
        return False
    w21 = a12 - l20 * a01
    w31 = a13 - l30 * a01
    l21, l31 = w21 / d1, w31 / d1
    d2 = a22 + _PSD_SLACK - l20 * a02 - l21 * w21
    if not 0.0 < d2 < math.inf:
        return False
    w32 = a23 - l30 * a02 - l31 * w21
    d3 = a33 + _PSD_SLACK - l30 * a03 - l31 * w31 - (w32 / d2) * w32
    return 0.0 < d3 < math.inf


def kalman_step(state: KalmanState, dt_s: float, measurement=None,
                accel_sigma: float = 0.1, meas_var: float = 1e-4,
                gate: float = 3.0) -> tuple[KalmanState, bool]:
    """Predict one interval and, when a position fix is supplied, gate it by
    Mahalanobis distance and fold it in with the Joseph-form update.

    Returns the new state and whether the measurement was accepted; a
    non-finite fix is never accepted.  The incoming covariance must be
    finite and its symmetric part positive semidefinite.

    The matrices are written out entry by entry for F = I + dt (e02 + e13),
    H = [I 0] (the position) and R = meas_var * I.
    """
    x0, x1, x2, x3 = state.x.tolist()
    (p00, p01, p02, p03), (p10, p11, p12, p13), \
        (p20, p21, p22, p23), (p30, p31, p32, p33) = state.P.tolist()
    p01, p02, p03 = (p01 + p10) / 2, (p02 + p20) / 2, (p03 + p30) / 2
    p12, p13, p23 = (p12 + p21) / 2, (p13 + p31) / 2, (p23 + p32) / 2
    if not _psd_within_slack(p00, p01, p02, p03, p11, p12, p13, p22, p23, p33):
        raise RoverError("covariance lost positive semidefiniteness")

    # predict: x = F x and P = sym(F P F' + Q), with f_ij = (F P)_ij.  For
    # a symmetric P only entry (0, 1) rounds differently from its mirror,
    # so it is the only one the symmetrization changes
    t = dt_s
    q2 = accel_sigma * accel_sigma
    qa, qb, qc = q2 * (t ** 4 / 4), q2 * (t ** 3 / 2), q2 * (t ** 2)
    x0 += t * x2
    x1 += t * x3
    f02, f03, f12, f13 = p02 + t * p22, p03 + t * p23, p12 + t * p23, p13 + t * p33
    m00 = (p00 + t * p02) + t * f02 + qa
    m11 = (p11 + t * p13) + t * f13 + qa
    m01 = (((p01 + t * p12) + t * f03) + ((p01 + t * p03) + t * f12)) / 2
    m02, m03, m12, m13 = f02 + qb, f03, f12, f13 + qb
    m22, m23, m33 = p22 + qc, p23, p33 + qc
    predicted = (x0, x1, x2, x3), (m00, m01, m02, m03, m11, m12, m13, m22, m23, m33)
    if measurement is None:
        return _kalman_state(*predicted), False
    z0, z1 = measurement
    y0, y1 = float(z0) - x0, float(z1) - x1
    if not (math.isfinite(y0) and math.isfinite(y1)):
        return _kalman_state(*predicted), False

    # gate: d2 = y' S^-1 y with S = H P H' + R and its closed-form inverse
    r = meas_var
    s00, s11 = m00 + r, m11 + r
    det = s00 * s11 - m01 * m01
    if not det > 0.0:
        raise RoverError("innovation covariance is singular")
    i00, i01, i11 = s11 / det, -m01 / det, s00 / det
    d2 = y0 * (i00 * y0 + i01 * y1) + y1 * (i01 * y0 + i11 * y1)
    if math.sqrt(max(d2, 0.0)) > gate:
        return _kalman_state(*predicted), False

    # gain K = P H' S^-1 and state x + K y
    k00, k01 = m00 * i00 + m01 * i01, m00 * i01 + m01 * i11
    k10, k11 = m01 * i00 + m11 * i01, m01 * i01 + m11 * i11
    k20, k21 = m02 * i00 + m12 * i01, m02 * i01 + m12 * i11
    k30, k31 = m03 * i00 + m13 * i01, m03 * i01 + m13 * i11
    x = (x0 + (k00 * y0 + k01 * y1), x1 + (k10 * y0 + k11 * y1),
         x2 + (k20 * y0 + k21 * y1), x3 + (k30 * y0 + k31 * y1))
    # Joseph form: B = (I - K H) P has rows P[i] - k_i0 P[0] - k_i1 P[1],
    # then C = B (I - K H)' + K R K' has C[i][j] = B[i][j] - B[i][0] k_j0
    # - B[i][1] k_j1 + r (k_i0 k_j0 + k_i1 k_j1), and P = sym(C)
    b00 = m00 - k00 * m00 - k01 * m01
    b01 = m01 - k00 * m01 - k01 * m11
    b02 = m02 - k00 * m02 - k01 * m12
    b03 = m03 - k00 * m03 - k01 * m13
    b10 = m01 - k10 * m00 - k11 * m01
    b11 = m11 - k10 * m01 - k11 * m11
    b12 = m12 - k10 * m02 - k11 * m12
    b13 = m13 - k10 * m03 - k11 * m13
    b20 = m02 - k20 * m00 - k21 * m01
    b21 = m12 - k20 * m01 - k21 * m11
    b22 = m22 - k20 * m02 - k21 * m12
    b23 = m23 - k20 * m03 - k21 * m13
    b30 = m03 - k30 * m00 - k31 * m01
    b31 = m13 - k30 * m01 - k31 * m11
    b32 = m23 - k30 * m02 - k31 * m12
    b33 = m33 - k30 * m03 - k31 * m13
    kk01 = r * (k00 * k10 + k01 * k11)
    kk02 = r * (k00 * k20 + k01 * k21)
    kk03 = r * (k00 * k30 + k01 * k31)
    kk12 = r * (k10 * k20 + k11 * k21)
    kk13 = r * (k10 * k30 + k11 * k31)
    kk23 = r * (k20 * k30 + k21 * k31)
    c00 = b00 - b00 * k00 - b01 * k01 + r * (k00 * k00 + k01 * k01)
    c11 = b11 - b10 * k10 - b11 * k11 + r * (k10 * k10 + k11 * k11)
    c22 = b22 - b20 * k20 - b21 * k21 + r * (k20 * k20 + k21 * k21)
    c33 = b33 - b30 * k30 - b31 * k31 + r * (k30 * k30 + k31 * k31)
    c01 = ((b01 - b00 * k10 - b01 * k11 + kk01)
           + (b10 - b10 * k00 - b11 * k01 + kk01)) / 2
    c02 = ((b02 - b00 * k20 - b01 * k21 + kk02)
           + (b20 - b20 * k00 - b21 * k01 + kk02)) / 2
    c03 = ((b03 - b00 * k30 - b01 * k31 + kk03)
           + (b30 - b30 * k00 - b31 * k01 + kk03)) / 2
    c12 = ((b12 - b10 * k20 - b11 * k21 + kk12)
           + (b21 - b20 * k10 - b21 * k11 + kk12)) / 2
    c13 = ((b13 - b10 * k30 - b11 * k31 + kk13)
           + (b31 - b30 * k10 - b31 * k11 + kk13)) / 2
    c23 = ((b23 - b20 * k30 - b21 * k31 + kk23)
           + (b32 - b30 * k20 - b31 * k21 + kk23)) / 2
    return _kalman_state(x, (c00, c01, c02, c03, c11, c12, c13, c22, c23,
                             c33)), True


def _kalman_state(x, upper) -> KalmanState:
    """A state from [x, y, vx, vy] and the upper triangle of P, row-major."""
    a00, a01, a02, a03, a11, a12, a13, a22, a23, a33 = upper
    P = np.array((a00, a01, a02, a03, a01, a11, a12, a13,
                  a02, a12, a22, a23, a03, a13, a23, a33), dtype=float)
    return KalmanState(np.array(x, dtype=float), P.reshape(4, 4))


# --- coverage planning ------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    waypoints: tuple            # ((x, y, z), ...) lift stops grouped per cell
    resolution_m: float
    z_stops: tuple
    orientation: str            # row_major | column_major


def _xy_path_length(cells: list[tuple[float, float]]) -> float:
    return sum(math.dist(cells[i], cells[i + 1]) for i in range(len(cells) - 1))


def _serpentine(cells_xy: list[tuple[float, float]], key_major, key_minor):
    """Order cells by boustrophedon over (major, minor) axes."""
    rows: dict[float, list] = {}
    for c in cells_xy:
        rows.setdefault(key_major(c), []).append(c)
    ordered = []
    for i, major in enumerate(sorted(rows)):
        row = sorted(rows[major], key=key_minor, reverse=(i % 2 == 1))
        ordered.extend(row)
    return ordered


def plan_sampling(room: Room, resolution_m: float, obstacles=(),
                  z_resolution_m: float | None = None,
                  inflation_m: float = 0.25, area=None) -> SamplePlan:
    """Serpentine coverage of the reachable floor cells, ascending lift
    stops at every cell.  Both row- and column-major sweeps are costed and
    the shorter one wins (row-major on a tie).

    `area` restricts the sweep to an (x0, y0, x1, y1) patch of the floor;
    the default is the whole room.  Obstacles are axis-aligned rectangles
    of the same form, inflated by the platform's half-width; a cell whose
    centre falls inside any inflated rectangle is unreachable.
    """
    if resolution_m <= 0:
        raise ConfigurationError("resolution must be positive")
    zres = z_resolution_m if z_resolution_m is not None else resolution_m
    if zres <= 0:
        raise ConfigurationError("z resolution must be positive")
    ax0, ay0, ax1, ay1 = area if area is not None \
        else (0.0, 0.0, room.length_m, room.width_m)
    if not (0 <= ax0 < ax1 <= room.length_m and 0 <= ay0 < ay1 <= room.width_m):
        raise ConfigurationError("sampling area must lie inside the room")
    # one Python tuple per stop: refuse a plan too large to build
    stops = ((ax1 - ax0) / resolution_m) * ((ay1 - ay0) / resolution_m) \
        * ((LIFT_MAX_M - LIFT_MIN_M) / zres + 1)
    if stops > MAX_PLAN_STOPS:
        raise ConfigurationError(
            f"the sampling plan would exceed {MAX_PLAN_STOPS:,} lift stops; "
            "coarsen resolution_m or z_resolution_m")
    z_stops = []
    z = LIFT_MIN_M
    while z <= LIFT_MAX_M + 1e-9:
        z_stops.append(round(z, 9))
        z += zres
    cols = int((ax1 - ax0) / resolution_m + 1e-9)
    rows = int((ay1 - ay0) / resolution_m + 1e-9)
    if cols * rows * len(obstacles) > MAX_OBSTACLE_TESTS:
        raise ConfigurationError(
            f"the sampling plan would test {cols * rows:,} cells against "
            f"{len(obstacles):,} obstacles, over {MAX_OBSTACLE_TESTS:,} tests; "
            "use fewer rover.obstacles or coarsen resolution_m")
    cells = []
    for i in range(cols):
        for j in range(rows):
            cx = ax0 + (i + 0.5) * resolution_m
            cy = ay0 + (j + 0.5) * resolution_m
            blocked = any(x0 - inflation_m <= cx <= x1 + inflation_m
                          and y0 - inflation_m <= cy <= y1 + inflation_m
                          for x0, y0, x1, y1 in obstacles)
            if not blocked:
                cells.append((round(cx, 9), round(cy, 9)))
    if not cells:
        raise ConfigurationError("no reachable cells in the sampling area")
    by_row = _serpentine(cells, key_major=lambda c: c[1], key_minor=lambda c: c[0])
    by_col = _serpentine(cells, key_major=lambda c: c[0], key_minor=lambda c: c[1])
    if _xy_path_length(by_col) < _xy_path_length(by_row):
        ordered, orientation = by_col, "column_major"
    else:
        ordered, orientation = by_row, "row_major"
    waypoints = tuple((x, y, z) for x, y in ordered for z in z_stops)
    return SamplePlan(waypoints, resolution_m, tuple(z_stops), orientation)


# --- battery ----------------------------------------------------------------

class PowerDrawError(RoverError):
    pass


class Battery:
    """State-of-charge bookkeeping with a hard draw ceiling."""

    def __init__(self, capacity_wh: float = 170.0, peak_w: float = 480.0,
                 soc: float = 1.0):
        self.capacity_wh = capacity_wh
        self.peak_w = peak_w
        self.soc = soc
        self.drawn_wh = 0.0

    def remaining_wh(self) -> float:
        return self.soc * self.capacity_wh

    def time_to_empty_s(self, draw_w: float) -> float:
        self._check(draw_w)
        return self.remaining_wh() * 3600.0 / draw_w

    def _check(self, draw_w: float) -> None:
        if draw_w <= 0:
            raise PowerDrawError("draw must be positive")
        if draw_w > self.peak_w:
            raise PowerDrawError(
                f"{draw_w} W exceeds the {self.peak_w} W peak rating")

    def discharge(self, draw_w: float, dt_s: float) -> None:
        self._check(draw_w)
        wh = draw_w * dt_s / 3600.0
        self.drawn_wh += wh
        self.soc = max(0.0, self.soc - wh / self.capacity_wh)

    def charge(self, supply_w: float, dt_s: float) -> None:
        self.soc = min(1.0, self.soc + supply_w * dt_s / 3600.0 / self.capacity_wh)


# --- mission ----------------------------------------------------------------

@dataclass
class RoverState:
    x: float = 0.5
    y: float = 0.5
    heading_rad: float = 0.0
    lift_m: float = LIFT_MIN_M
    activity: str = "idle"      # idle | moving | sampling | returning | charging


@dataclass
class MissionConfig:
    speed_mps: float = 0.3
    lift_speed_mps: float = 0.1
    dwell_s: float = 1.0
    move_draw_w: float = 80.0
    dwell_draw_w: float = 30.0
    charger_xy: tuple = (0.5, 0.5)
    recharge_w: float = 60.0
    reserve_safety: float = 2.0
    tick_s: float = 0.1
    resume_soc: float = 0.95


def reserve_wh(pose_xy, cfg: MissionConfig) -> float:
    """Energy floor below which the platform must head home: the cost of
    driving to the charger at nominal draw, times the safety factor."""
    d = math.dist(pose_xy, cfg.charger_xy)
    travel_s = d / cfg.speed_mps
    return travel_s * cfg.move_draw_w / 3600.0 * cfg.reserve_safety


def mission_step(state: RoverState, battery: Battery, cfg: MissionConfig,
                 waypoints_left: int) -> str:
    """Decide the next action: continue the plan, head for the charger,
    keep charging, or finish.

    A platform that has started for the charger stays committed; the
    reserve floor shrinks faster than the charge drains on the way home,
    so re-evaluating it every tick would dither at the threshold.
    """
    if state.activity == "charging":
        return "charge" if battery.soc < cfg.resume_soc else "resume"
    if state.activity == "returning":
        one_way = reserve_wh((state.x, state.y), cfg) / cfg.reserve_safety
        if battery.remaining_wh() < one_way:
            raise RoverError("charger unreachable with remaining charge")
        return "return_to_charge"
    if waypoints_left == 0:
        return "done"
    floor = reserve_wh((state.x, state.y), cfg)
    if battery.remaining_wh() <= floor:
        if battery.remaining_wh() < floor / cfg.reserve_safety:
            raise RoverError("charger unreachable with remaining charge")
        return "return_to_charge"
    return "continue"


@dataclass
class MissionLogRow:
    t_ps: SimTime
    x: float
    y: float
    lift: float
    soc: float
    est_x: float
    est_y: float
    event: str


class MissionRunner:
    """Time-stepped mission execution.

    Advances in fixed ticks; each tick burns energy for the current
    activity, moves the platform, and at the beacon rate folds a ranging
    solve into the tracker.  The decision rule runs between waypoints.
    """

    def __init__(self, room: Room, plan: SamplePlan, beacons: BeaconSet,
                 battery: Battery, cfg: MissionConfig, rng: RngStream,
                 mobile_z: float = 0.2, obstacles=()):
        self.room = room
        self.plan = plan
        self.beacons = beacons
        self.battery = battery
        self.cfg = cfg
        self.rng = rng
        self.mobile_z = mobile_z
        self.obstacles = obstacles
        self.state = RoverState(x=cfg.charger_xy[0], y=cfg.charger_xy[1])
        self.track = KalmanState.at(self.state.x, self.state.y,
                                    pos_var=0.01, vel_var=0.01)
        self.raw_fixes: list[tuple[float, float]] = []
        self.log: list[MissionLogRow] = []
        self.visited = 0
        self.charge_events = 0
        self.min_soc = battery.soc
        self._next_wp = 0
        self._dwell_left = 0.0
        self._t: SimTime = 0
        # the instant of the next beacon fix, one fix period after the last;
        # none when the period falls outside the 64-bit time range
        period_s = 1.0 / beacons.rate_hz if beacons.rate_hz > 0 else math.inf
        self._fix_ps = from_seconds(period_s) \
            if period_s * PS_PER_S <= MAX_SIM_TIME else None
        self._next_fix = self._fix_ps

    def _log(self, event: str) -> None:
        s = self.state
        self.log.append(MissionLogRow(self._t, s.x, s.y, s.lift_m,
                                      self.battery.soc,
                                      float(self.track.x[0]),
                                      float(self.track.x[1]), event))

    def _track_tick(self, dt_s: float) -> None:
        """Advance the tracker one tick: always predict, fold in a ranging
        fix when one is due (at most one per tick), that is at the first
        tick at or after each multiple of the fix period.  The solver is
        seeded from the current estimate, never from the true pose."""
        fix = None
        if self._next_fix is not None and self._t >= self._next_fix:
            self._next_fix += self._fix_ps
            pose = (self.state.x, self.state.y, self.mobile_z)
            ranges = measure_ranges(pose, self.beacons, self.rng)
            try:
                sol = trilaterate(ranges, self.beacons, self.mobile_z,
                                  initial=(float(self.track.x[0]),
                                           float(self.track.x[1])))
                fix = sol.position
                self.raw_fixes.append(fix)
            except TrilaterationError:
                fix = None
        # process noise sized for waypoint turns: the platform reverses
        # 2x speed within a tick, so accel bursts reach a few m/s^2
        self.track, _ = kalman_step(
            self.track, dt_s, fix, accel_sigma=2.0,
            meas_var=(self.beacons.range_sigma_m * 1.5) ** 2)

    def _burn(self, draw_w: float, dt_s: float) -> None:
        self.battery.discharge(draw_w, dt_s)
        self.min_soc = min(self.min_soc, self.battery.soc)

    def _advance_toward(self, tx, ty, dt_s) -> bool:
        s = self.state
        d = math.dist((s.x, s.y), (tx, ty))
        step = self.cfg.speed_mps * dt_s
        if d <= step:
            s.x, s.y = tx, ty
            return True
        s.heading_rad = math.atan2(ty - s.y, tx - s.x)
        s.x += step * math.cos(s.heading_rad)
        s.y += step * math.sin(s.heading_rad)
        return False

    def run(self, max_duration_s: float = 7200.0) -> dict:
        cfg = self.cfg
        dt = cfg.tick_s
        tick_ps = from_seconds(dt)
        deadline_ps = from_seconds(max_duration_s)
        self._log("start")
        while True:
            if self._t >= deadline_ps:
                self._log("timeout")
                break
            left = len(self.plan.waypoints) - self._next_wp
            action = mission_step(self.state, self.battery, cfg, left)
            if action == "done":
                self._log("done")
                break
            self._t += tick_ps
            self._track_tick(dt)
            if action == "charge":
                self.battery.charge(cfg.recharge_w, dt)
                continue
            if action == "resume":
                self.state.activity = "moving"
                self._log("resume")
                continue
            if action == "return_to_charge":
                if self.state.activity != "returning":
                    self.state.activity = "returning"
                    self.charge_events += 1
                    self._log("return_to_charge")
                self._burn(cfg.move_draw_w, dt)
                if self._advance_toward(*cfg.charger_xy, dt):
                    self.state.activity = "charging"
                    self._log("charging")
                continue
            # continue the plan
            wx, wy, wz = self.plan.waypoints[self._next_wp]
            s = self.state
            if (s.x, s.y) != (wx, wy):
                s.activity = "moving"
                self._burn(cfg.move_draw_w, dt)
                self._advance_toward(wx, wy, dt)
                continue
            if abs(s.lift_m - wz) > 1e-9:
                s.activity = "sampling"
                self._burn(cfg.dwell_draw_w, dt)
                step = cfg.lift_speed_mps * dt
                s.lift_m = wz if abs(wz - s.lift_m) <= step else \
                    s.lift_m + math.copysign(step, wz - s.lift_m)
                continue
            if self._dwell_left <= 0:
                self._dwell_left = cfg.dwell_s
            self._burn(cfg.dwell_draw_w, dt)
            self._dwell_left -= dt
            if self._dwell_left <= 1e-9:
                self._dwell_left = 0.0
                self.visited += 1
                self._log("sampled")
                self._next_wp += 1
        return self.summary()

    def summary(self) -> dict:
        return {
            "waypoints": len(self.plan.waypoints),
            "visited": self.visited,
            "charge_events": self.charge_events,
            "min_soc": self.min_soc,
            "final_soc": self.battery.soc,
            "drawn_wh": self.battery.drawn_wh,
            "duration_s": self._t / PS_PER_S,
            "raw_fixes": len(self.raw_fixes),
        }

    def write_log_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["time_ps", "x", "y", "lift", "soc", "est_x", "est_y", "event"])
            for r in self.log:
                w.writerow([r.t_ps, "%.6f" % r.x, "%.6f" % r.y, "%.6f" % r.lift,
                            "%.9f" % r.soc, "%.6f" % r.est_x, "%.6f" % r.est_y,
                            r.event])
