"""A sync domain that keeps a record of every exchange it closes.

A run keeps nothing of an exchange but its port's count, so the tests
rebuild the records from outside, hooking the per-exchange close that
`finish` calls with the close's instant: a clock read depends only on the
clock, the instant and the servo steps before it, and the close's one step
comes after every instant the exchange read.  Reading the slave again once
the close has run therefore gives exactly the timestamps it used.

This is a helper module rather than part of `conftest.py`, so that its
name cannot clash with `perfbench/tests/conftest.py` when one pytest run
collects both test directories.
"""

from __future__ import annotations

from dataclasses import dataclass

from tilesim.core import RngRegistry, SimTime, from_seconds
from tilesim.timesync import SyncDomain, two_step_offset


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


class RecordingDomain(SyncDomain):
    """`records` gets an `ExchangeRecord` per closed exchange: the master's
    timestamps and the relay's residences the close was given, the slave's
    timestamps read again at their instants, and the slave's true offset at
    the close's instant."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records: list[ExchangeRecord] = []

    def _close(self, port, seq, at, t1, t2_at, t3_at, t4, fwd, rev) -> None:
        super()._close(port, seq, at, t1, t2_at, t3_at, t4, fwd, rev)
        clock = port.clock
        t2, t3 = clock.read(t2_at), clock.read(t3_at)
        sample = two_step_offset(t1, t2, t3, t4, fwd, rev)
        self.records.append(ExchangeRecord(
            port.node, seq, t1, t2, t3, t4, fwd, rev, sample.offset_ps,
            sample.mean_path_delay_ps, clock.offset_at(at), at))


def run_sync(fabric, config, duration_s: float, seed: int = 0, cls=SyncDomain,
             cuts=None):
    """Build a domain of `cls` (`RecordingDomain` to keep the records) with
    the tiles' `cuts`, start it for `duration_s` and finish it; returns
    (report, domain)."""
    domain = cls(fabric, config, RngRegistry(seed), cuts=cuts)
    domain.start(from_seconds(duration_s))
    return domain.finish(), domain
