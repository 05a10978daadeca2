"""Phase arithmetic and Monte Carlo array-gain evaluation."""

import csv
import math
import os
import tempfile
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim import coherent
from tilesim.coherent import (_BLOCK_ELEMENTS, CARRIER_MAX_HZ, CARRIER_MIN_HZ,
                              CoherentError, GainResult, coherent_gain,
                              evaluate_beamforming, expected_gain, wrap_phase)
from tilesim.core import RngStream, as_normals
from tilesim.fabric import (ConfigurationError, Fabric, FabricConfig,
                            build_default_fabric)
from tilesim.timesync import SyncReport

SPEED_OF_LIGHT_M_S = 299_792_458.0


def report_with_residuals(nodes, sigma_ps, n_samples=500, seed=0):
    """SyncReport whose every node converged with gaussian residuals."""
    r = SyncReport(threshold_ps=10**9, consecutive=1)
    rng = RngStream(seed, "residuals")
    for node in nodes:
        for i in range(n_samples):
            r.add_sample(node, i, rng.normal(scale=sigma_ps))
    r.finalize()
    return r


# --- wrapping ---------------------------------------------------------------

def test_wrap_phase_range_and_edges():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)   # half-open interval
    assert wrap_phase(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_phase(2 * math.pi) == pytest.approx(0.0)
    arr = wrap_phase(np.linspace(-20, 20, 1001))
    assert np.all(arr <= math.pi + 1e-12)
    assert np.all(arr > -math.pi - 1e-12)


def test_wrap_phase_preserves_phasor():
    for phi in np.linspace(-15, 15, 301):
        assert np.exp(1j * wrap_phase(phi)) == pytest.approx(np.exp(1j * phi))


# --- gain -------------------------------------------------------------------

def test_aligned_phases_square_the_field():
    for n in (1, 2, 16, 64):
        assert coherent_gain(np.zeros(n)) == n * n
        assert coherent_gain(np.full(n, 0.73)) == pytest.approx(n * n)


def test_gain_bounds():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        g = coherent_gain(rng.uniform(-math.pi, math.pi, n))
        assert -1e-9 <= g <= n * n + 1e-9


def test_global_phase_invariance():
    rng = np.random.default_rng(2)
    phases = rng.normal(0, 0.5, 24)
    base = coherent_gain(phases)
    for shift in (0.1, 1.0, math.pi, -2.5):
        assert coherent_gain(phases + shift) == pytest.approx(base, rel=1e-9)


def test_batch_matches_scalar_loop():
    rng = np.random.default_rng(3)
    mat = rng.normal(0, 1.0, (50, 8))
    batch = coherent_gain_batch(mat)
    for i in range(50):
        assert batch[i] == pytest.approx(coherent_gain(mat[i]), rel=1e-12)


def test_empty_array_rejected():
    with pytest.raises(CoherentError):
        coherent_gain([])


def test_expected_gain_formula_spot_values():
    # hand arithmetic: n + n(n-1)exp(-sigma^2)
    assert expected_gain(16, 0.3) == pytest.approx(235.34348446509478)
    assert expected_gain(4, 0.0) == 16.0
    assert expected_gain(64, 1.0) == pytest.approx(1547.2899068032555)
    assert expected_gain(1, 2.0) == 1.0


def test_monte_carlo_matches_expected_gain():
    rng = RngStream(7, "mc")
    n, sigma, trials = 16, 0.3, 20_000
    phases = as_normals(rng.words(0, trials * n)).reshape(trials, n) * sigma
    mean = coherent_gain_batch(phases).mean()
    assert mean == pytest.approx(expected_gain(n, sigma), rel=0.02)


def test_uniform_phases_average_to_n():
    rng = np.random.default_rng(11)
    n, trials = 12, 40_000
    gains = coherent_gain_batch(rng.uniform(-math.pi, math.pi, (trials, n)))
    se = gains.std() / math.sqrt(trials)
    assert abs(gains.mean() - n) <= 3 * se


# --- end-to-end evaluation ---------------------------------------------------

def small_fabric():
    return build_default_fabric(FabricConfig(counts={"wall_a": 8}, switch_count=2))


def test_perfect_sync_gains_exactly_n_squared():
    fab = small_fabric()
    tiles = sorted(fab.tiles)
    report = report_with_residuals(tiles, sigma_ps=0.0)
    res = evaluate_beamforming(report, tiles, 2.45e9, trials=50,
                               rng=RngStream(1, "bf"))
    n = len(tiles)
    assert np.all(res.gains == n * n)
    assert res.efficiency == 1.0
    assert res.mean_gain == n * n


def test_timing_residuals_degrade_gain():
    fab = small_fabric()
    tiles = sorted(fab.tiles)
    carrier = 2.45e9
    # 6.5 ps residual sigma -> 0.1 rad of carrier phase
    sigma_ps = 0.1 / (2 * math.pi * carrier) * 1e12
    report = report_with_residuals(tiles, sigma_ps, n_samples=2000)
    res = evaluate_beamforming(report, tiles, carrier, trials=4000,
                               rng=RngStream(2, "bf"))
    n = len(tiles)
    assert res.mean_gain == pytest.approx(expected_gain(n, 0.1), rel=0.03)
    assert res.mean_gain < n * n


def test_evaluation_is_seed_deterministic():
    fab = small_fabric()
    tiles = sorted(fab.tiles)
    report = report_with_residuals(tiles, sigma_ps=50.0)
    a = evaluate_beamforming(report, tiles, 2.45e9, 100, RngStream(3, "bf"))
    b = evaluate_beamforming(report, tiles, 2.45e9, 100, RngStream(3, "bf"))
    assert np.array_equal(a.gains, b.gains)


def coherent_gain_batch(phases: np.ndarray) -> np.ndarray:
    """Row-wise gain for a (trials, n) phase matrix."""
    s = np.exp(1j * phases).sum(axis=1)
    return (s.real * s.real + s.imag * s.imag)


def steering_phase(tile_center, target, carrier_hz: float) -> float:
    """Carrier phase accumulated over the straight path tile -> target."""
    d = math.dist(tile_center, target)
    return float(wrap_phase(2 * np.pi * d * carrier_hz / SPEED_OF_LIGHT_M_S))


def per_trial_evaluate_beamforming(fabric: Fabric, sync_report, carrier_hz: float,
                                   target, trials: int, rng: RngStream,
                                   tiles: list[str],
                                   phase_noise_sigma_rad: float = 0.0) -> GainResult:
    """The evaluation one trial at a time: trial i reads the 2n + n % 2
    words from index i * (2n + n % 2) on, its pool indices from the first n
    and its phase noise from Box-Muller pairs of the rest.  Each tile's
    phase still carries its path phase toward `target` and subtracts the
    same value as its conjugate weight, so matching it also shows that the
    evaluation, which leaves the geometry out, loses nothing by it."""
    pools = [np.asarray(sync_report.post_convergence(t)) * 1e-12 for t in tiles]
    n = len(tiles)
    geo = np.array([steering_phase(fabric.tiles[t].center, target, carrier_hz)
                    for t in tiles])
    min_pool = min(len(p) for p in pools)
    pool_mat = np.stack([p[:min_pool] for p in pools])

    stride = 2 * n + n % 2
    gains = np.empty(trials)
    for i in range(trials):
        w = rng.words(i * stride, stride)
        idx = [int((int(x) >> 11) * 2.0**-53 * min_pool) for x in w[:n]]
        dt = pool_mat[np.arange(n), idx]
        phi = geo - geo + wrap_phase(2 * np.pi * carrier_hz * dt)
        if phase_noise_sigma_rad:
            phi = phi + as_normals(w[n:])[:n] * phase_noise_sigma_rad
        gains[i] = coherent_gain(phi)

    mean = float(gains.mean())
    return GainResult(n, carrier_hz, trials, mean, float(gains.var()),
                      mean / (n * n), gains)


@lru_cache(maxsize=1)
def full_fabric() -> Fabric:
    return build_default_fabric(FabricConfig())


def assert_batched_equals_per_trial(lengths: list[int], carrier_hz: float,
                                    trials: int, noise: float,
                                    target=(4, 2, 1)) -> None:
    # the oracle reads each trial's own words one trial at a time; pools of
    # unequal length exercise the truncation to the shortest
    fab = full_fabric()
    tiles = sorted(fab.tiles)[:len(lengths)]
    report = SyncReport(threshold_ps=10**9, consecutive=1)
    draws = RngStream(8, "residuals")
    for node, length in zip(tiles, lengths):
        report.add_series(node, range(length),
                          [draws.normal(scale=120.0) for _ in range(length)])
    report.finalize()
    new = evaluate_beamforming(report, tiles, carrier_hz, trials, RngStream(5, "bf"),
                               phase_noise_sigma_rad=noise)
    old = per_trial_evaluate_beamforming(fab, report, carrier_hz, target, trials,
                                         RngStream(5, "bf"), tiles=tiles,
                                         phase_noise_sigma_rad=noise)
    assert new.gains.tobytes() == old.gains.tobytes()
    assert new.summary() == old.summary()


@pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 140])
@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_batched_trials_equal_the_per_trial_loop(n, noise):
    # one block and a partial one cross a block edge at every n
    assert_batched_equals_per_trial([40 + k % 5 for k in range(n)], 2.45e9,
                                    max(1, _BLOCK_ELEMENTS // n) + 6, noise)


# The six cases of each noise level draw n from consecutive bands, (0, 1]
# up to (33, 140], so together they draw every array size from 1 to 140.
N_BANDS = {1: 0, 2: 1, 7: 2, 16: 7, 33: 16, 140: 33}


@pytest.mark.parametrize("n_max", list(N_BANDS))
@pytest.mark.parametrize("noise", [0.0, 0.2])
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_batched_trials_equal_the_per_trial_loop_on_drawn_arrays(n_max, noise, data):
    # pools of unequal length, the shortest down to one entry, trial counts
    # from just short of the first block's edge to just past it, and a
    # target anywhere in the room, whose geometry only the oracle computes
    n = data.draw(st.integers(N_BANDS[n_max] + 1, n_max), label="n")
    min_pool = data.draw(st.integers(1, 40), label="min_pool")
    extra = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                      label="extra")
    lengths = [min_pool + e for e in extra]
    lengths[data.draw(st.integers(0, n - 1), label="shortest")] = min_pool
    block = max(1, _BLOCK_ELEMENTS // n)
    trials = max(1, block + data.draw(st.integers(-3, 3), label="past_edge"))
    carrier = data.draw(st.sampled_from([CARRIER_MIN_HZ, CARRIER_MAX_HZ]),
                        label="carrier_hz")
    room = full_fabric().room
    target = tuple(data.draw(st.floats(0, side), label=axis) for axis, side in
                   zip("xyz", (room.length_m, room.width_m, room.height_m)))
    assert_batched_equals_per_trial(lengths, carrier, trials, noise, target)


def test_unconverged_tile_is_an_error():
    fab = small_fabric()
    tiles = sorted(fab.tiles)
    report = report_with_residuals(tiles[:-1], sigma_ps=10.0)
    report.add_sample(tiles[-1], 0, 1.0)   # never converges: no samples pooled
    with pytest.raises(CoherentError, match="converged"):
        evaluate_beamforming(report, tiles, 2.45e9, 10, RngStream(4, "bf"))


@pytest.mark.parametrize("carrier_hz", [CARRIER_MIN_HZ * (1 - 1e-12), 1e5,
                                        CARRIER_MAX_HZ * (1 + 1e-12), math.nan])
def test_carrier_outside_the_radio_range_rejected(carrier_hz):
    tiles = sorted(small_fabric().tiles)
    report = report_with_residuals(tiles, sigma_ps=1.0)
    with pytest.raises(ConfigurationError, match="^carrier .* outside the radio's"):
        evaluate_beamforming(report, tiles, carrier_hz, 10, RngStream(5, "bf"))
    for edge in (CARRIER_MIN_HZ, CARRIER_MAX_HZ):
        evaluate_beamforming(report, tiles, edge, 10, RngStream(5, "bf"))


def csv_writer_write_csv(result: GainResult, path) -> None:
    # GainResult.write_csv as it stood when it wrote one csv.writer row per
    # trial; kept verbatim as the oracle for the block writer
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["trial", "gain"])
        for i, g in enumerate(result.gains):
            w.writerow([i, repr(float(g))])


@settings(max_examples=100, deadline=None)
@given(gains=st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-300, 1e300])),
                      min_size=1, max_size=12))
def test_gains_csv_matches_csv_writer_byte_for_byte(gains):
    # three rows a write, so a dozen rows cross several block edges
    res = GainResult(1, 1e9, len(gains), 0.0, 0.0, 0.0, np.array(gains))
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(coherent, "_CSV_BLOCK", 3):
        got, want = os.path.join(d, "got.csv"), os.path.join(d, "want.csv")
        res.write_csv(got)
        csv_writer_write_csv(res, want)
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read()


def test_gain_result_summary_and_csv(tmp_path):
    fab = small_fabric()
    tiles = sorted(fab.tiles)
    report = report_with_residuals(tiles, sigma_ps=0.0)
    res = evaluate_beamforming(report, tiles, 2.45e9, 3, RngStream(6, "bf"))
    s = res.summary()
    assert s["trials"] == 3 and s["n_transmitters"] == len(tiles)
    out = tmp_path / "gains.csv"
    res.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,gain"
    assert len(lines) == 4
