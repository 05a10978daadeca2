"""Memory of the run's state and of its finish stages.  The log keeps its
retained records in columns, and each finish stage works in bounded
blocks, so the peak it adds does not grow with the records, samples or
trials it walks.

Peaks are read with `tracemalloc`, which counts Python and NumPy
allocations made while it traces, from zero at `start`.
"""

import tracemalloc

import numpy as np
import pytest

from tilesim import coherent, dataplane
from tilesim.coherent import GainResult, evaluate_beamforming
from tilesim.core import RngRegistry, RngStream, from_seconds
from tilesim.dataplane import Broker
from tilesim.fabric import FabricConfig, build_default_fabric
from tilesim.timesync import (_CLOSE_BLOCK, LocalClock, OscillatorConfig,
                              SyncDomain, SyncReport, TimesyncConfig)


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes allocated at the high point of `fn(*args, **kwargs)`, above
    what was live when it was called."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_retained_record_costs_under_110_bytes():
    # a producer's records share its name and their size; each keeps its
    # own key and produce time
    n = 20_000
    producers = [f"t{k:03d}" for k in range(140)]
    tracemalloc.start()
    try:
        b = Broker("samples", 1, n)
        for i in range(n):
            b.append(f"{producers[i % 140]}:{i // 140}", 32768, 10**9 * i,
                     producers[i % 140])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert b.partitions[0].next_offset - b.partitions[0].first_offset == n
    assert held / n < 110


def test_topic_dump_peak_does_not_grow_with_the_records(tmp_path):
    path = tmp_path / "topics.ndjson"

    def peak(records):
        b = Broker("samples", 1, records)
        for i in range(records):
            b.append(f"t{i % 140:03d}:{i // 140}", 32768, 10**9 * i, f"t{i % 140:03d}")
        with open(path, "w") as f:
            return traced_peak(b.dump_topic, f)

    block = dataplane._DUMP_BLOCK
    small = peak(2 * block)
    large = peak(8 * block)
    block_bytes = path.stat().st_size // 8   # one block's lines as text
    assert large - small < block_bytes


def test_percentiles_peak_is_one_pooled_copy():
    report = SyncReport(threshold_ps=10**9, consecutive=1)
    draws = np.random.default_rng(3)
    for k in range(20):
        report.add_series(f"t{k:03d}", range(20_000), draws.normal(0, 100, 20_000))
    report.finalize()
    pooled = sum(len(report.post_convergence(n)) for n in report.nodes) * 8
    report.percentiles()   # warm-up: numpy's first-call set-up is not the pass
    assert traced_peak(report.percentiles) < 1.5 * pooled


def test_beamforming_peak_does_not_grow_with_the_trials():
    fab = build_default_fabric(FabricConfig())
    tiles = sorted(fab.tiles)[:140]
    assert len(tiles) == 140
    report = SyncReport(threshold_ps=10**9, consecutive=1)
    draws = np.random.default_rng(4)
    for node in tiles:
        report.add_series(node, range(200), draws.normal(0, 120, 200))
    report.finalize()

    def peak(trials):
        return traced_peak(evaluate_beamforming, report, tiles, 2.45e9, trials,
                           RngStream(5, "bf"), phase_noise_sigma_rad=0.2)

    peak(1)   # warm-up, as above
    one, eight = peak(128), peak(8 * 128)
    # only the gains array itself, 8 bytes a trial, may grow
    assert eight - one < 7 * 128 * 8 + 64 * 1024


def test_gains_csv_peak_does_not_grow_with_the_trials(tmp_path):
    path = tmp_path / "gains.csv"

    def peak(trials):
        gains = np.random.default_rng(5).normal(100.0, 30.0, trials)
        res = GainResult(140, 2.45e9, trials, 0.0, 0.0, 0.0, gains)
        return traced_peak(res.write_csv, path)

    block = coherent._CSV_BLOCK
    small = peak(2 * block)
    large = peak(8 * block)
    block_bytes = path.stat().st_size // 8   # one block's rows as text
    assert large - small < block_bytes


@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_beamforming_peak_is_its_table_and_one_block(noise):
    # the phase table (phasors, 16 bytes an entry, with no phase noise;
    # phases, 8, with it) is the stage's one copy of its pools, which it
    # reads in place, and a block's words, indices and phasors take under
    # 128 bytes a trial-element pair
    fab = build_default_fabric(FabricConfig())
    tiles = sorted(fab.tiles)[:140]
    report = SyncReport(threshold_ps=10**9, consecutive=1)
    draws = np.random.default_rng(4)
    for node in tiles:
        report.add_series(node, range(20_000), draws.normal(0, 120, 20_000))
    report.finalize()
    table = 140 * 20_000 * (8 if noise else 16)
    block = 128 * coherent._BLOCK_ELEMENTS
    trials = 8 * (coherent._BLOCK_ELEMENTS // 140)
    evaluate_beamforming(report, tiles, 2.45e9, 1, RngStream(5, "bf"),
                         phase_noise_sigma_rad=noise)   # warm-up
    peak = traced_peak(evaluate_beamforming, report, tiles, 2.45e9, trials,
                       RngStream(5, "bf"), phase_noise_sigma_rad=noise)
    assert peak < table + block


def test_held_exchanges_do_not_grow_with_the_run(monkeypatch):
    # clocks that keep one segment (no walk, steps stubbed out) and no
    # residual tick inside the run, so what `finish` holds is the sync
    # plane's own: a chunk of exchanges a port at most, however many
    # chunks of `_CLOSE_BLOCK` the run has
    monkeypatch.setattr(LocalClock, "steer", lambda self, t, ppm: None)
    fab = build_default_fabric(FabricConfig(counts={"wall_a": 2}, switch_count=2))
    still = OscillatorConfig(rw_sigma_ppm_per_sqrt_s=0.0)
    cfg = TimesyncConfig(start_s=0.0, sync_interval_s=0.01, tile_osc=still,
                         switch_osc=still, sample_interval_s=100.0)

    def peak(chunks):
        domain = SyncDomain(fab, cfg, RngRegistry(3))
        domain.start(from_seconds(chunks * _CLOSE_BLOCK * cfg.sync_interval_s))
        return traced_peak(domain.finish)

    peak(1)   # warm-up, as above
    three, nine = peak(3), peak(9)
    # closed at once, the 6 chunks between would hold 2 ports x 6 chunks
    # of exchanges of a few hundred bytes each
    assert nine - three < 8 * 1024
