"""The log: one topic of partitioned records, read by consumer groups.

A run carries one stream of tile samples, so the broker is the topic.
Records land on partitions by a stable 64-bit FNV-1a hash of the key, get
dense per-partition offsets in broker arrival order, and age out of a fixed
ring buffer.  A group member's partitions follow from its rank; a group
commits offsets per partition for at-least-once delivery: a member that
vanishes before committing causes redelivery to whoever inherits its
partitions.  `LinkLoadTracker` counts link bytes record by record, the
reference for a run's closed-form load.

The append path is built for saturated logs.  A partition keeps its
retained records column by column (keys, sizes, produce times in an
unsigned 64-bit array, producers; offsets are implicit), so a retained
record costs a key string and four slots rather than a tuple and its
boxed ints.  A read builds the `Record` named tuples it returns in C, by
zipping the column slices; FNV-1a resumes from a caller's hash of a
constant key prefix; and the topic dump formats each JSON line straight
from the columns instead of going through `json.dumps`, with the same
bytes.  The dump writes to an open file in blocks of `_DUMP_BLOCK` lines,
so at no point does it hold the whole topic as text.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .core import PS_PER_S, SimTime
from .fabric import ConfigurationError

FNV64_OFFSET = 0xcbf29ce484222325
FNV64_PRIME = 0x100000001b3
FNV64_MASK = 0xFFFFFFFFFFFFFFFF
_DUMP_BLOCK = 4096   # topic dump lines per write


def fnv1a64(data: bytes, h: int = FNV64_OFFSET) -> int:
    """64-bit FNV-1a of `data`, continued from state `h`.  The hash is
    byte-serial, so fnv1a64(a + b) == fnv1a64(b, fnv1a64(a))."""
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & FNV64_MASK
    return h


class CommitError(ValueError):
    """Commit past the delivery frontier (or malformed)."""


class Record(NamedTuple):
    key: str
    size_bytes: int
    produce_time_ps: SimTime
    producer: str
    offset: int


class _Partition:
    """Retained records of one partition, as four columns.

    `_keys`, `_sizes`, `_times` (an `array("Q")`) and `_producers` hold, from
    index `_head` on, the retained records in offset order; the offset of
    index i is `first_offset + i - _head`.  Eviction releases the oldest
    key (its slot becomes None) and advances `_head`; the emptied prefix of
    every column is dropped once it reaches a sixteenth of the retention,
    which keeps appends O(1) amortized.  A read builds only the records it
    returns, in C, not through `Record._make`: `tuple.__new__(Record, row)`
    mapped over the zip of the column slices (`rows`).
    """

    def __init__(self, retention: int):
        self.retention = retention
        self._keys: list[str | None] = []
        self._sizes: list[int] = []
        self._times = array("Q")
        self._producers: list[str] = []
        self._head = 0
        self.next_offset = 0

    @property
    def first_offset(self) -> int:
        return self.next_offset - (len(self._keys) - self._head)

    def append(self, key, size_bytes, produce_time_ps, producer) -> int:
        keys = self._keys
        keys.append(key)
        self._sizes.append(size_bytes)
        self._times.append(produce_time_ps)
        self._producers.append(producer)
        off = self.next_offset
        self.next_offset = off + 1
        if len(keys) - self._head > self.retention:
            keys[self._head] = None
            self._head += 1
            if self._head * 16 >= self.retention:
                for column in (keys, self._sizes, self._times, self._producers):
                    del column[:self._head]
                self._head = 0
        return off

    def rows(self, start: int, n: int):
        """(key, size_bytes, produce_time_ps, producer, offset) of at most
        `n` retained records from the retained offset `start` on: one zip
        over the column slices."""
        i = self._head + start - self.first_offset
        j = i + n
        return zip(self._keys[i:j], self._sizes[i:j], self._times[i:j],
                   self._producers[i:j], range(start, start + n))


class Broker:
    """The topic: `partition_count` partitions, each retaining its newest
    `retention` records, and the count of records ever published."""

    def __init__(self, name: str, partition_count: int, retention: int):
        if partition_count < 1:
            raise ConfigurationError("a topic needs at least one partition")
        if retention < 1:
            raise ConfigurationError("retention must hold at least one record")
        self.name = name
        self.partitions = [_Partition(retention) for _ in range(partition_count)]
        self.published = 0

    def partition_for(self, key: str) -> int:
        return fnv1a64(key.encode()) % len(self.partitions)

    def append(self, key: str, size_bytes: int, produce_time_ps: SimTime,
               producer: str, key_hash: int | None = None) -> tuple[int, int]:
        """Arrival-side append; offsets are assigned in call order.  A caller
        that already holds fnv1a64(key.encode()) passes it as `key_hash`."""
        partitions = self.partitions
        if key_hash is None:
            key_hash = fnv1a64(key.encode())
        p = key_hash % len(partitions)
        off = partitions[p].append(key, size_bytes, produce_time_ps, producer)
        self.published += 1
        return p, off

    def dump_topic(self, f) -> None:
        """Write everything currently retained to the text file `f` as
        newline-delimited JSON, one object per record with sorted keys, in
        the bytes `json.dumps(..., sort_keys=True)` gives: strings through
        the encoder `json.dumps` uses, ints in decimal.  Each write holds at
        most `_DUMP_BLOCK` lines, so the dump's memory does not grow with
        the topic."""
        enc = encode_basestring_ascii
        line = ('{"key": %s, "offset": %d, "partition": %d, "produce_time_ps": %d, '
                '"producer": %s, "size_bytes": %d}\n')
        for p, part in enumerate(self.partitions):
            for start in range(part.first_offset, part.next_offset, _DUMP_BLOCK):
                f.write("".join([
                    line % (enc(key), offset, p, produce_time_ps, enc(producer),
                            size_bytes)
                    for key, size_bytes, produce_time_ps, producer, offset
                    in part.rows(start, _DUMP_BLOCK)]))


@dataclass
class PollResult:
    """A poll's record count, whether eviction skipped a read position, the
    member's `partitions`, and its `records`, built on first read from the
    column slices it took."""
    count: int
    gap: bool
    rows: list
    partitions: range

    @cached_property
    def records(self) -> list[Record]:
        return list(map(tuple.__new__, repeat(Record), chain.from_iterable(self.rows)))


class ConsumerGroup:
    """Range partition assignment of the broker's partitions over the
    sorted member ids, worked out from a member's rank alone, so the group
    holds no assignment.  `rebalances` counts its membership changes.

    Poll positions are per-session: any membership change resets every
    member to the committed offsets, which is what produces the
    at-least-once redelivery of uncommitted records.
    """

    def __init__(self, group_id: str, broker: Broker):
        self.group_id = group_id
        self.broker = broker
        self.members: list[str] = []   # sorted
        self.committed: dict[int, int] = {}
        self.last_delivered: dict[int, int] = {}
        self._positions: dict[str, dict[int, int]] = {}
        self.rebalances = 0

    def join(self, member_id: str) -> None:
        if self._span(member_id) is not None:
            raise ConfigurationError(f"{member_id} already in group")
        insort(self.members, member_id)
        self._positions = {}
        self.rebalances += 1

    def leave(self, member_id: str) -> None:
        self.members.remove(member_id)
        self._positions = {}
        self.rebalances += 1

    def _span(self, member_id: str) -> range | None:
        """The partitions of the member of rank k (None for a non-member):
        with per, extra = divmod(partitions, members), per + (k < extra) of
        them from k * per + min(k, extra), so the first `extra` take one more."""
        k = bisect_left(self.members, member_id)
        if k == len(self.members) or self.members[k] != member_id:
            return None
        per, extra = divmod(len(self.broker.partitions), len(self.members))
        start = k * per + min(k, extra)
        return range(start, start + per + (k < extra))

    def partitions_of(self, member_id: str) -> list[int]:
        return list(self._span(member_id) or ())

    def poll(self, member_id: str, max_records: int = 500) -> PollResult:
        span = self._span(member_id)
        if span is None:
            raise ConfigurationError(f"{member_id} is not a group member")
        pos = self._positions.setdefault(member_id, {})
        partitions = self.broker.partitions
        rows = []
        gap = False
        budget = max_records
        for p in span:
            if budget <= 0:
                break
            part = partitions[p]
            start = pos.get(p, self.committed.get(p, 0))
            if start < part.first_offset:
                gap = True
                start = pos[p] = part.first_offset
            n = min(budget, part.next_offset - start)
            if n > 0:
                rows.append(part.rows(start, n))
                budget -= n
                pos[p] = start + n
                self.last_delivered[p] = max(self.last_delivered.get(p, -1),
                                             start + n - 1)
        return PollResult(max_records - budget, gap, rows, span)

    def commit(self, partition: int, offset: int) -> None:
        if offset < 0:
            raise CommitError("negative offset")
        frontier = self.last_delivered.get(partition, -1) + 1
        if offset > frontier:
            raise CommitError(
                f"commit {offset} past delivery frontier {frontier} on "
                f"{self.broker.name}[{partition}]")
        self.committed[partition] = offset


class LinkWindow:
    """One link's records inside the window and their byte sum."""

    __slots__ = ("events", "in_window")

    def __init__(self):
        self.events: deque[tuple[SimTime, int]] = deque()
        self.in_window = 0

    def bits_per_second(self, now: SimTime, window_ps: SimTime) -> float:
        """Mean rate over (now - window_ps, now], dropping older records."""
        q = self.events
        if not q:
            return 0.0
        horizon = now - window_ps
        in_window = self.in_window
        while q and q[0][0] <= horizon:
            in_window -= q.popleft()[1]
        self.in_window = in_window
        return in_window * 8 * PS_PER_S / window_ps


class LinkLoadTracker:
    """Sliding-window byte accounting per link, the tests' reference for
    `_Dataplane.load`.  Each link keeps the byte sum of its window next to
    the window's records, so a rate lookup costs only the evictions it
    makes.  `windows` maps a link id to its `LinkWindow` once the link has
    carried a record; a reader that holds the dict can ask a link's window
    for its rate directly."""

    def __init__(self, window_ps: SimTime):
        self.window_ps = window_ps
        self.windows: dict[str, LinkWindow] = {}

    def record(self, link_id: str, t: SimTime, nbytes: int) -> None:
        w = self.windows.get(link_id)
        if w is None:
            w = self.windows[link_id] = LinkWindow()
        w.events.append((t, nbytes))
        w.in_window += nbytes

    def utilization(self, link_id: str, now: SimTime, bandwidth_bps: float) -> float:
        w = self.windows.get(link_id)
        bps = 0.0 if w is None else w.bits_per_second(now, self.window_ps)
        return min(1.0, bps / bandwidth_bps)
