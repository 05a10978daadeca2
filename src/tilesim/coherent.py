"""Coherent multi-tile transmission scored in the phase domain.

Each transmitting tile contributes a unit phasor whose phase is the one its
residual timing error produces at the carrier.  The conjugate weights
steering the array toward a target remove each tile's path phase exactly,
for any target, so the geometry never enters the sum: a scenario's
`coherent.target` and `coherent.tx_power_dbm` are checked when it is
validated, and with perfect timing the array gain is exactly N squared.
Timing errors are drawn per trial from the empirical post-convergence
residual pool of each tile's disciplined clock.

The phases live in pool space: each tile's pool entry, truncated to the
shortest pool, has its phase worked out once, into an (n, min_pool) table
that holds the phasors themselves when there is no phase noise.  A trial
gathers its row of n entries from the table and sums it, so with no
phase noise the exponentials a run takes follow the pools, not the trials.

Trials are evaluated in blocks of about `_BLOCK_ELEMENTS` trial-element
pairs, so an array of n tiles takes `max(1, _BLOCK_ELEMENTS // n)` trials
a block and the pass's temporaries stay one size however large the array
is.  Each trial reads the words of the stream it owns, so its gain does
not depend on the block it lands in, a block costs one read of words, and
its gains come out of one (trials, n) gather and sum, bit for bit equal
to summing each trial's phasors alone: every table entry is the same
elementwise expression of the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_indices, as_normals
from .fabric import ConfigurationError

CARRIER_MIN_HZ = 70e6
CARRIER_MAX_HZ = 6e9
MAX_TX_POWER_DBM = 20.0
_BLOCK_ELEMENTS = 16384   # trial-element pairs per array pass: its element budget
MAX_TRIAL_ELEMENTS = 10_000_000   # trial-element pairs per run, refused past it
_CSV_BLOCK = 4096   # gains.csv rows per write


class CoherentError(RuntimeError):
    """Evaluation cannot proceed (missing sync data, empty array, ...)."""


def wrap_phase(phi):
    """Wrap to (-pi, pi]; works on scalars and arrays."""
    return np.pi - np.mod(np.pi - np.asarray(phi), 2 * np.pi)


def coherent_gain(phases) -> float:
    """|sum of unit phasors|^2 for one realization."""
    phases = np.asarray(phases, dtype=float)
    if phases.size == 0:
        raise CoherentError("no transmitters")
    s = np.exp(1j * phases).sum()
    return float(s.real * s.real + s.imag * s.imag)


def expected_gain(n: int, sigma_rad: float) -> float:
    """Mean gain for independent zero-mean gaussian phase errors."""
    return n + n * (n - 1) * math.exp(-sigma_rad * sigma_rad)


@dataclass
class GainResult:
    n_transmitters: int
    carrier_hz: float
    trials: int
    mean_gain: float
    var_gain: float
    efficiency: float        # mean over the perfect-sync gain n^2
    gains: np.ndarray

    def summary(self) -> dict:
        return {"n_transmitters": self.n_transmitters,
                "carrier_hz": self.carrier_hz,
                "trials": self.trials,
                "mean_gain": self.mean_gain,
                "var_gain": self.var_gain,
                "efficiency": self.efficiency}

    def write_csv(self, path) -> None:
        """One row per trial, laid out exactly as `csv.writer` would write
        it, `_CSV_BLOCK` rows a write, so its memory does not grow with the
        trials."""
        with open(path, "w", newline="") as f:
            f.write("trial,gain\r\n")
            for start in range(0, len(self.gains), _CSV_BLOCK):
                f.write("".join([f"{i},{g!r}\r\n" for i, g in enumerate(
                    self.gains[start:start + _CSV_BLOCK].tolist(), start)]))


def evaluate_beamforming(sync_report, tiles: list[str], carrier_hz: float,
                         trials: int, rng: RngStream,
                         phase_noise_sigma_rad: float = 0.0) -> GainResult:
    """Monte Carlo gain of the array of `tiles`.  Each tile's conjugate
    weight cancels its path phase to any target exactly, so only timing
    and phase noise remain; the carrier, checked against the radio's
    range, turns each timing error into a phase.
    Trial i owns the 2n + n % 2 words `w` of its stream from index
    i * (2n + n % 2) on, making every trial reproducible in isolation: its
    pool indices are `as_indices(w[:n], pool)` and its phase noise, drawn
    or not, `as_normals(w[n:])[:n] * sigma`.
    """
    if not CARRIER_MIN_HZ <= carrier_hz <= CARRIER_MAX_HZ:
        raise ConfigurationError(
            f"carrier {carrier_hz:g} Hz outside the radio's "
            f"{CARRIER_MIN_HZ:g}-{CARRIER_MAX_HZ:g} Hz range")
    if trials < 1:
        raise ConfigurationError("at least one trial required")
    if not tiles:
        raise CoherentError("no transmitting tiles")

    pools = [np.asarray(sync_report.post_convergence(t)) for t in tiles]   # ps
    missing = [t for t, pool in zip(tiles, pools) if len(pool) == 0]
    if missing:
        raise CoherentError(f"no converged sync data for: {missing}")
    n = len(tiles)

    # each pool entry's phase made once, tile by tile, into an (n, min_pool)
    # table, and with no phase noise its phasor: a trial gathers its row
    noisy = bool(phase_noise_sigma_rad)
    min_pool = min(len(p) for p in pools)
    table = np.empty((n, min_pool), float if noisy else complex)
    for j, p in enumerate(pools):
        dt = p[:min_pool] * 1e-12   # ps -> s
        phase = wrap_phase(2 * np.pi * carrier_hz * dt)
        table[j] = phase if noisy else np.exp(1j * phase)

    gains = np.empty(trials)
    columns = np.arange(n)
    block = max(1, _BLOCK_ELEMENTS // n)
    stride = 2 * n + n % 2
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        w = rng.words(start * stride, (stop - start) * stride).reshape(-1, stride)
        row = table[columns, as_indices(w[:, :n], min_pool)]
        if noisy:
            row = np.exp(1j * (row + as_normals(w[:, n:])[:, :n] * phase_noise_sigma_rad))
        s = row.sum(axis=1)
        gains[start:stop] = s.real * s.real + s.imag * s.imag

    mean = float(gains.mean())
    return GainResult(n, carrier_hz, trials, mean, float(gains.var()),
                      mean / (n * n), gains)
