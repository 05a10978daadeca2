"""Partitioned log broker, consumer groups, and link load accounting."""

import csv
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilesim import dataplane, orchestrator
from tilesim.core import MAX_SIM_TIME, PS_PER_MS, PS_PER_S, EventLoop, from_seconds
from tilesim.dataplane import (FNV64_MASK, FNV64_PRIME, Broker, CommitError,
                               ConsumerGroup, LinkLoadTracker, Record, fnv1a64)
from tilesim.fabric import ConfigurationError, FabricConfig, build_default_fabric
from tilesim.orchestrator import prepare_scenario, run_scenario
from tilesim.scenario import DataplaneConfig, scenario_from_dict


def broker_with(partitions=4, retention=10_000):
    return Broker("samples", partitions, retention)


def read_from(part, offset, max_records):
    """At most `max_records` records of `part` from `offset` on, through
    `_Partition.rows`, and whether eviction skipped `offset`."""
    start = max(offset, part.first_offset)
    n = max(0, min(max_records, part.next_offset - start))
    return [Record(*row) for row in part.rows(start, n)], offset < part.first_offset


def retained(part):
    return read_from(part, part.first_offset, part.retention)[0]


def fill(b, n, producer="p"):
    out = []
    for i in range(n):
        out.append(b.append(f"k{i}", 100, i, producer))
    return out


# --- hashing ----------------------------------------------------------------

def test_fnv1a64_reference_vectors():
    # classic 64-bit FNV-1a digests
    assert fnv1a64(b"") == 0xcbf29ce484222325
    assert fnv1a64(b"a") == 0xaf63dc4c8601ec8c
    assert fnv1a64(b"foobar") == 0x85944171f73967e8


def test_partitioner_is_hash_mod():
    b = broker_with(partitions=8)
    for key in ("t000", "t042", "alpha", ""):
        assert b.partition_for(key) == fnv1a64(key.encode()) % 8


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40), st.binary(max_size=40))
def test_fnv1a64_resumes_from_a_prefix_state(a, b):
    assert fnv1a64(a + b) == fnv1a64(b, fnv1a64(a))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=20), st.integers(0, 10**6), st.integers(1, 64))
def test_append_with_key_hash_lands_where_partition_for_says(tile, seq,
                                                             partitions):
    # the producers' route: the "<tile>:" prefix hashed once, then the digits
    key = f"{tile}:{seq}"
    b = broker_with(partitions=partitions)
    want = fnv1a64(key.encode()) % partitions
    assert b.partition_for(key) == want
    h = fnv1a64(str(seq).encode(), fnv1a64(f"{tile}:".encode()))
    assert b.append(key, 1, 0, "p", h)[0] == want
    assert b.append(key, 1, 0, "p")[0] == want


def test_produced_keys_land_where_their_whole_hash_says():
    # producers hash a key by stepping a per-decade state by its last digit;
    # their sequence numbers cross 9->10, 99->100 and 999->1000, and t001 is
    # cut by a power overdraw partway, after it crossed 99->100
    cfg = scenario_from_dict({
        "duration_s": 1.2, "timesync": {"enabled": False},
        "coherent": {"enabled": False}, "rover": {"enabled": False},
        "power": {"overdraw_tile": "t001", "overdraw_at_s": 0.4},
        "dataplane": {"producer_tiles": 3, "produce_interval_ms": 1.0,
                      "partitions": 8, "retention_records": 10_000}})
    run = prepare_scenario(cfg)
    run.loop.run_until(run.until)
    # producers are no events: what the last poll did not read is appended
    # when the stage is flushed, as its finish does
    stage = run.stages["dataplane"]
    stage.catch_up(run.until)
    counts = stage.counts
    assert counts["t000"] > 1000 and counts["t002"] > 1000
    assert 100 < counts["t001"] < 1000
    seen = 0
    for p, part in enumerate(run.broker.partitions):
        for r in retained(part):
            assert fnv1a64(r.key.encode()) % 8 == p, r.key
            seen += 1
    assert seen == run.broker.published == sum(counts.values())


def test_same_key_same_partition():
    b = broker_with(partitions=8)
    p1, _ = b.append("stable", 10, 0, "p")
    p2, _ = b.append("stable", 10, 1, "p")
    assert p1 == p2


# --- broker -----------------------------------------------------------------

def test_offsets_dense_per_partition():
    b = broker_with(partitions=3)
    seen: dict[int, list[int]] = {}
    for i in range(300):
        p, off = b.append(f"k{i}", 10, i, "p")
        seen.setdefault(p, []).append(off)
    for offs in seen.values():
        assert offs == list(range(len(offs)))
    assert b.published == 300


def test_records_are_immutable_named_tuples():
    b = broker_with(partitions=1)
    b.append("k0", 64, 5, "prod")
    (r,) = retained(b.partitions[0])
    assert (r.key, r.size_bytes, r.produce_time_ps, r.producer, r.offset) == \
        ("k0", 64, 5, "prod", 0)
    assert r == Record("k0", 64, 5, "prod", 0)
    for field in Record._fields:
        with pytest.raises(AttributeError):
            setattr(r, field, 1)
    with pytest.raises(AttributeError):
        r.extra = 1


def test_topic_validation():
    with pytest.raises(ConfigurationError, match="partition"):
        Broker("empty", 0, 10)
    with pytest.raises(ConfigurationError, match="retention"):
        Broker("tiny", 1, 0)


def test_retention_evicts_oldest():
    b = broker_with(partitions=1, retention=4)
    fill(b, 6)
    part = b.partitions[0]
    assert part.first_offset == 2
    assert part.next_offset == 6
    g = ConsumerGroup("g", b)
    g.join("c0")
    res = g.poll("c0", 100)
    assert res.gap
    assert [r.offset for r in res.records] == [2, 3, 4, 5]


def test_read_past_end_is_empty():
    b = broker_with(partitions=1)
    fill(b, 3)
    g = ConsumerGroup("g", b)
    g.join("c0")
    assert g.poll("c0", 10).count == 3
    res = g.poll("c0", 10)
    assert res.records == [] and res.count == 0 and not res.gap


def dumped(b: Broker) -> str:
    """`b.dump_topic` written into a string three lines a write, so that
    records straddle the dump's block edges."""
    f = io.StringIO()
    with mock.patch.object(dataplane, "_DUMP_BLOCK", 3):
        b.dump_topic(f)
    return f.getvalue()


def test_dump_topic_ndjson():
    b = broker_with(partitions=2)
    b.append("k0", 64, 5, "prod")
    fill(b, 9)
    text = dumped(b)
    assert text.endswith("\n")
    rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == 10
    row = next(r for r in rows if r["key"] == "k0" and r["producer"] == "prod")
    assert row == {"key": "k0", "offset": 0, "partition": fnv1a64(b"k0") % 2,
                   "produce_time_ps": 5, "producer": "prod", "size_bytes": 64}
    assert [(r["partition"], r["offset"]) for r in rows] == sorted(
        (r["partition"], r["offset"]) for r in rows)
    assert dumped(broker_with()) == ""


def parent_dump_topic(self) -> str:
    """Newline-delimited JSON of everything currently retained."""
    lines = []
    for p, part in enumerate(self.partitions):
        for r in retained(part):
            lines.append(json.dumps(
                {"partition": p, "offset": r.offset, "key": r.key,
                 "size_bytes": r.size_bytes, "produce_time_ps": r.produce_time_ps,
                 "producer": r.producer}, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


# text that exercises every escaping rule of json.dumps; a key must encode
# to UTF-8 to be hashed, so only producers may hold lone surrogates
_ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7fé€😀\u2028'
_KEYS = st.text(st.one_of(st.sampled_from(_ESCAPES), st.characters(codec="utf-8")),
                max_size=12)
_PRODUCERS = st.text(st.one_of(st.sampled_from(_ESCAPES + "\ud800"), st.characters()),
                     max_size=12)


@settings(max_examples=150, deadline=None)
@given(partitions=st.integers(1, 5), retention=st.integers(1, 8),
       records=st.lists(st.tuples(_KEYS, st.integers(0, 2**40),
                                  st.integers(0, 2**64 - 1), _PRODUCERS),
                        max_size=30))
def test_dump_topic_matches_json_dumps_byte_for_byte(partitions, retention,
                                                     records):
    # the oracle is the json.dumps loop dump_topic replaced, copied verbatim
    b = broker_with(partitions=partitions, retention=retention)
    for key, size, t, producer in records:
        b.append(key, size, t, producer)
    assert dumped(b) == parent_dump_topic(b)


# --- consumer groups --------------------------------------------------------

def test_single_member_receives_everything():
    b = broker_with(partitions=4)
    fill(b, 100)
    g = ConsumerGroup("g", b)
    g.join("c0")
    got = g.poll("c0", max_records=1000).records
    assert len(got) == 100
    assert {r.key for r in got} == {f"k{i}" for i in range(100)}


def parent_poll(group, member_id, max_records):
    """`ConsumerGroup.poll` as it was when every poll built its records,
    copied verbatim but for its result, (records, gap)."""
    pos = group._positions.setdefault(member_id, {})
    partitions = group.broker.partitions
    out = []
    gap = False
    budget = max_records
    for p in group.partitions_of(member_id):
        if budget <= 0:
            break
        start = pos.get(p, group.committed.get(p, 0))
        recs, g = read_from(partitions[p], start, budget)
        gap = gap or g
        if recs:
            out.extend(recs)
            budget -= len(recs)
            pos[p] = recs[-1].offset + 1
            prev = group.last_delivered.get(p, -1)
            group.last_delivered[p] = max(prev, recs[-1].offset)
        elif g:
            pos[p] = partitions[p].first_offset
    return out, gap


@settings(max_examples=100, deadline=None)
@example(partitions=1, retention=1, ops=[("a", 0, 1), ("p", 0, 5), ("a", 0, 3)])
@given(partitions=st.integers(1, 4), retention=st.integers(1, 12),
       ops=st.lists(st.tuples(st.sampled_from("aaapcj"), st.integers(0, 2),
                              st.integers(0, 9)), max_size=80))
def test_poll_counts_and_records_equal_the_building_poll(partitions, retention,
                                                        ops):
    # two groups over one broker take the same steps, one through `poll`
    # and one through the poll that built every record; the records of a
    # poll are read only after the appends that follow it
    b = broker_with(partitions=partitions, retention=retention)
    new, old = ConsumerGroup("new", b), ConsumerGroup("old", b)
    for g in (new, old):
        g.join("m0")
    unread = []
    for op, member, n in ops:
        m = f"m{member}"
        if op == "a":
            for _ in range(n):
                k = b.published
                b.append(f"k{k}", n, k, f"p{member}")
        elif op == "j":
            for g in (new, old):
                if m in g.members and len(g.members) > 1:
                    g.leave(m)
                elif m not in g.members:
                    g.join(m)
        elif m not in new.members:
            continue
        elif op == "p":
            res = new.poll(m, n)
            recs, gap = parent_poll(old, m, n)
            assert (res.count, res.gap) == (len(recs), gap)
            assert list(res.partitions) == old.partitions_of(m)
            unread.append((res, recs))
        else:
            for p in new.partitions_of(m):
                last = new.last_delivered.get(p)
                if last is not None:
                    new.commit(p, last + 1)
                    old.commit(p, last + 1)
        assert new._positions == old._positions
        assert new.last_delivered == old.last_delivered
        assert new.committed == old.committed
    for res, recs in unread:
        assert res.records == recs and all(type(r) is Record for r in res.records)
        assert res.records is res.records


def test_range_assignment_split():
    b = broker_with(partitions=8)
    g = ConsumerGroup("g", b)
    for m in ("c2", "c0", "c1"):
        g.join(m)
    a = {m: g.partitions_of(m) for m in g.members}
    # sorted members, contiguous ranges, remainder to the first members
    assert a == {"c0": [0, 1, 2], "c1": [3, 4, 5], "c2": [6, 7]}


def test_members_cover_disjoint_partitions():
    b = broker_with(partitions=4)
    fill(b, 200)
    g = ConsumerGroup("g", b)
    g.join("c0")
    g.join("c1")
    got0 = g.poll("c0", 1000).records
    got1 = g.poll("c1", 1000).records
    assert {r.offset for r in got0}.isdisjoint(set()) or True
    p0 = {(b.partition_for(r.key)) for r in got0}
    p1 = {(b.partition_for(r.key)) for r in got1}
    assert p0.isdisjoint(p1)
    assert len(got0) + len(got1) == 200


def test_two_groups_deliver_independently():
    b = broker_with(partitions=4)
    fill(b, 150)
    groups = []
    for gid in ("g0", "g1"):
        g = ConsumerGroup(gid, b)
        g.join("c")
        groups.append(g)
    for g in groups:
        assert len(g.poll("c", 1000).records) == 150


def test_poll_respects_budget_and_resumes():
    b = broker_with(partitions=1)
    fill(b, 10)
    g = ConsumerGroup("g", b)
    g.join("c")
    first = g.poll("c", max_records=4).records
    second = g.poll("c", max_records=100).records
    assert [r.offset for r in first] == [0, 1, 2, 3]
    assert [r.offset for r in second] == [4, 5, 6, 7, 8, 9]


def test_rebalance_redelivers_uncommitted():
    b = broker_with(partitions=1)
    fill(b, 6)
    g = ConsumerGroup("g", b)
    g.join("c0")
    got = g.poll("c0", 100).records
    assert len(got) == 6
    g.commit(0, 3)                      # only the first three are safe
    g.join("c1")                        # membership change resets positions
    again = g.poll("c0", 100).records + g.poll("c1", 100).records
    assert [r.offset for r in again] == [3, 4, 5]
    assert g.rebalances == 2            # two joins


def test_leave_triggers_rebalance():
    b = broker_with(partitions=2)
    g = ConsumerGroup("g", b)
    g.join("c0")
    g.join("c1")
    g.leave("c1")
    assert g.members == ["c0"] and g.partitions_of("c0") == [0, 1]
    assert g.partitions_of("c1") == []
    assert g.rebalances == 3            # two joins and a leave


def test_cached_assignment_follows_each_join_and_leave():
    b = broker_with(partitions=4)
    g = ConsumerGroup("g", b)
    g.join("c1")
    assert g.partitions_of("c1") == [0, 1, 2, 3]
    g.join("c0")
    assert g.partitions_of("c1") == [2, 3]
    assert g.partitions_of("c0") == [0, 1]
    g.leave("c0")
    assert g.partitions_of("c1") == [0, 1, 2, 3]
    assert g.partitions_of("c0") == []
    g.leave("c1")
    assert g.members == [] and g.partitions_of("c1") == []


class ParentAssignment:
    """The membership of `ConsumerGroup` when each join and leave rebuilt
    every member's partition list and kept it, with why and who, in
    `rebalances`; `join`, `leave`, `_rebalance` and `partitions_of` are
    copied verbatim."""

    def __init__(self, broker):
        self.broker = broker
        self.members = []
        self._positions = {}
        self._assignment = {}
        self.rebalances = []

    def join(self, member_id: str) -> None:
        if member_id in self.members:
            raise ConfigurationError(f"{member_id} already in group")
        self.members.append(member_id)
        self.members.sort()
        self._rebalance("join", member_id)

    def leave(self, member_id: str) -> None:
        self.members.remove(member_id)
        self._rebalance("leave", member_id)

    def _rebalance(self, why: str, member_id: str) -> None:
        """Reset every poll position and split the partitions into
        contiguous ranges over the sorted members; the first (count mod
        members) members absorb the remainder."""
        self._positions = {}
        per, extra = divmod(len(self.broker.partitions),
                            max(1, len(self.members)))
        out = self._assignment = {}
        i = 0
        for k, m in enumerate(self.members):
            n = per + (1 if k < extra else 0)
            out[m] = list(range(i, i + n))
            i += n
        self.rebalances.append({"why": why, "member": member_id,
                                "assignment": out})

    def partitions_of(self, member_id: str) -> list[int]:
        return self._assignment.get(member_id, [])


@settings(max_examples=200, deadline=None)
@example(partitions=3, toggles=list(range(40)))
@example(partitions=600, toggles=list(range(40)) + list(range(0, 40, 3)))
@given(partitions=st.one_of(st.integers(1, 40), st.integers(1, 600)),
       toggles=st.lists(st.integers(0, 39), max_size=120))
def test_each_members_range_from_its_rank_equals_the_rebuilt_assignment(
        partitions, toggles):
    # each toggle joins a member, or has it leave if it is one: 0 to 40
    # members over 1 to 600 partitions, more members than partitions too
    b = broker_with(partitions=partitions)
    g, ref = ConsumerGroup("g", b), ParentAssignment(b)
    for i in toggles:
        m = f"c{i}"
        for group in (g, ref):
            (group.leave if m in group.members else group.join)(m)
        assert g.members == ref.members
        for m in g.members + ["ghost"]:
            assert g.partitions_of(m) == ref.partitions_of(m), m
    assert g.rebalances == len(ref.rebalances) == len(toggles)


def test_leave_requires_membership():
    g = ConsumerGroup("g", broker_with())
    g.join("c")
    with pytest.raises(ValueError):
        g.leave("ghost")
    assert g.members == ["c"] and g.rebalances == 1


def test_commit_past_frontier_rejected():
    b = broker_with(partitions=1)
    fill(b, 5)
    g = ConsumerGroup("g", b)
    g.join("c")
    g.poll("c", 3)
    g.commit(0, 3)                      # frontier after 3 deliveries
    with pytest.raises(CommitError, match="frontier"):
        g.commit(0, 4)
    with pytest.raises(CommitError, match="negative"):
        g.commit(0, -1)
    g.commit(0, 1)                      # rewinding is allowed
    assert g.committed[0] == 1


def test_poll_requires_membership():
    b = broker_with()
    g = ConsumerGroup("g", b)
    with pytest.raises(ConfigurationError, match="member"):
        g.poll("ghost")
    g.join("c")
    with pytest.raises(ConfigurationError, match="already"):
        g.join("c")


def test_eviction_gap_is_reported_and_skipped():
    b = broker_with(partitions=1, retention=3)
    fill(b, 10)    # offsets 7, 8, 9 retained
    g = ConsumerGroup("g", b)
    g.join("c")
    res = g.poll("c", 100)
    assert res.gap
    assert [r.offset for r in res.records] == [7, 8, 9]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers(0, 7)),
                min_size=1, max_size=120))
def test_interleaved_appends_keep_partition_order(ops):
    b = broker_with(partitions=4, retention=1000)
    per_partition: dict[int, list[int]] = {}
    for i, (k, salt) in enumerate(ops):
        p, off = b.append(f"{k}{salt}", 10, i, f"prod{salt}")
        per_partition.setdefault(p, []).append(off)
    for offs in per_partition.values():
        assert offs == sorted(offs)
        assert offs == list(range(offs[0], offs[0] + len(offs)))
    g = ConsumerGroup("g", b)
    g.join("c")
    got = g.poll("c", 10_000).records
    assert len(got) == len(ops)


# --- link load --------------------------------------------------------------

def test_load_window_arithmetic():
    tr = LinkLoadTracker(window_ps=PS_PER_MS)
    tr.record("l1", 0, 1250)   # 10 kilobits
    w = tr.windows["l1"]
    assert w.bits_per_second(0, tr.window_ps) == pytest.approx(10_000_000.0)
    assert tr.utilization("l1", 0, 1e9) == pytest.approx(0.01)
    # an event exactly one window old has left the window
    assert w.bits_per_second(PS_PER_MS, tr.window_ps) == 0.0
    assert tr.utilization("l1", PS_PER_MS, 1e9) == 0.0


def test_load_accumulates_within_window():
    tr = LinkLoadTracker(window_ps=PS_PER_S)
    for k in range(10):
        tr.record("l1", k * PS_PER_MS, 1000)
    assert tr.windows["l1"].bits_per_second(10 * PS_PER_MS, tr.window_ps) == \
        pytest.approx(80_000.0)


def test_utilization_saturates_at_one():
    tr = LinkLoadTracker(window_ps=PS_PER_MS)
    tr.record("l1", 0, 10_000_000)
    assert tr.utilization("l1", 0, 1e6) == 1.0


def test_unknown_link_is_idle():
    tr = LinkLoadTracker(window_ps=PS_PER_MS)
    assert tr.utilization("never", 0, 1e9) == 0.0
    assert "never" not in tr.windows


@settings(max_examples=60, deadline=None)
@given(retention=st.integers(1, 40),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 80),
                              st.integers(0, 12)), max_size=150))
def test_partition_reads_match_a_whole_log_model(retention, ops):
    # the model keeps every record and slices the retained tail
    b = broker_with(partitions=1, retention=retention)
    part = b.partitions[0]
    log = []
    for is_append, offset, max_records in ops:
        if is_append:
            n = len(log)
            b.append(f"k{n}", 10 + n % 3, 2**63 + n, f"p{n % 2}")
            log.append(Record(f"k{n}", 10 + n % 3, 2**63 + n, f"p{n % 2}", n))
            continue
        first = max(0, len(log) - retention)
        recs, gap = read_from(part, offset, max_records)
        start = max(offset, first)
        assert recs == log[start:start + max_records]
        assert all(type(r) is Record for r in recs)
        assert gap == (offset < first)
        assert part.first_offset == first
    assert retained(part) == log[max(0, len(log) - retention):]


def test_reads_across_evictions_and_compactions():
    b = broker_with(partitions=1, retention=64)
    part = b.partitions[0]
    for n in range(1, 1000):
        b.append(f"k{n}", 10, n, "p")
        first = max(0, n - 64)
        assert [r.offset for r in retained(part)] == list(range(first, n))
        recs, gap = read_from(part, n - 3, 10)
        assert [r.offset for r in recs] == list(range(max(first, n - 3), n))
        recs, gap = read_from(part, 0, 2)
        assert gap == (first > 0)
        assert [r.offset for r in recs] == [first, first + 1][:n]
        # each column's evicted prefix still held is under a sixteenth of
        # retention, and holds no key
        for column in (part._keys, part._sizes, part._times, part._producers):
            assert len(column) - len(retained(part)) == part._head < 64 // 16
        assert part._keys[:part._head] == [None] * part._head


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 10, 20]),
       st.lists(st.tuples(st.sampled_from(["l1", "l2"]), st.integers(0, 50),
                          st.integers(1, 10_000)),
                min_size=1, max_size=100))
def test_windowed_rate_matches_a_full_rescan(window, ops):
    # records arrive in time order; a lookup evicts for good, exactly like
    # rescanning the kept records
    tr = LinkLoadTracker(window_ps=window)
    kept: dict[str, list[tuple[int, int]]] = {}
    now = 0
    for link, dt, nbytes in ops:
        now += dt
        tr.record(link, now, nbytes)
        kept.setdefault(link, []).append((now, nbytes))
        kept[link] = [(t, n) for t, n in kept[link] if t > now - window]
        want = sum(n for _, n in kept[link]) * 8 * PS_PER_S / window
        assert tr.windows[link].bits_per_second(now, window) == want


# --- the load in closed form ------------------------------------------------

_EIGHT_TILES = build_default_fabric(FabricConfig(
    counts={"wall_a": 2, "wall_b": 2, "floor": 2, "ceiling": 2}, switch_count=2))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), unit=st.sampled_from([1, 2**57]),
       producers=st.integers(1, 8), spacing=st.integers(0, 6),
       record_bytes=st.sampled_from([1, 1500, 32768]))
def test_the_load_equals_a_tracker_fed_in_catch_up_order(data, unit, producers,
                                                         spacing, record_bytes):
    # producers every `period` ps, `spacing` apart (at 0, all at one
    # instant), one of them cut, maybe at 0; a reader series whose start
    # may be forced onto a produce instant.  At unit 2**57 the instants
    # reach the end of the 64-bit range.
    draw = data.draw
    period = max(1, spacing * producers + draw(st.integers(0, producers - 1)))
    until = min(MAX_SIM_TIME, draw(st.integers(0, 300)) * unit)
    cut_tile = f"t{draw(st.integers(0, 7)):03d}"
    cut = draw(st.sampled_from([0, draw(st.integers(0, 300)) * unit]))
    window = min(MAX_SIM_TIME, draw(st.integers(1, 100)) * unit)
    cfg = DataplaneConfig(producer_tiles=producers, record_bytes=record_bytes,
                          produce_interval_ms=period * unit / 1e9,
                          load_window_ms=window / 1e9, consumer_groups=0)
    run = orchestrator.RunResult("", None, _EIGHT_TILES, EventLoop(), until,
                                 cuts={cut_tile: cut} if cut <= until else {})
    stage = orchestrator._Dataplane(run, cfg)
    assert stage.spacing == stage.period // producers
    # the reader: its period that of the producers, a multiple or any
    step = min(MAX_SIM_TIME, draw(st.one_of(
        st.just(stage.period), st.integers(1, 4).map(lambda k: k * stage.period),
        st.integers(1, 60).map(lambda k: k * unit))))
    start = draw(st.one_of(
        st.integers(0, 100).map(lambda k: k * unit),
        st.tuples(st.integers(0, producers - 1), st.integers(0, 5)).map(
            lambda im: im[0] * stage.spacing + im[1] * stage.period)))
    n = max(0, (until - start) // step + 1)
    first = draw(st.integers(0, n))

    tracker = LinkLoadTracker(stage.window_ps)
    links = {tile: (_EIGHT_TILES.tile_link(tile).id,
                    _EIGHT_TILES.trunk_link(_EIGHT_TILES.switch_for_tile(tile)).id)
             for tile in stage.tiles}
    append = stage.broker.append

    def recorded(key, nbytes, t, tile, key_hash):
        for link_id in links[tile]:
            tracker.record(link_id, t, nbytes)
        return append(key, nbytes, t, tile, key_hash)

    stage.broker.append = recorded
    for link_id in sorted(_EIGHT_TILES.links):
        got = stage.load(link_id, start, step, 0, n)
        assert len(got) == n
        # a later part of the series, read on its own, reads the same
        assert stage.load(link_id, start, step, first, n - first).tolist() == \
            got[first:].tolist()
    want = {link_id: [] for link_id in _EIGHT_TILES.links}
    for j in range(n):
        t = start + j * step
        stage.catch_up(t, start, step)
        for link_id, rates in want.items():
            w = tracker.windows.get(link_id)
            rates.append(0.0 if w is None else w.bits_per_second(t, stage.window_ps))
    for link_id, rates in want.items():
        assert stage.load(link_id, start, step, 0, n).tolist() == rates, link_id


# --- producers without events -----------------------------------------------

class EagerDataplane:
    """Reference model: the dataplane stage when each producer was a
    periodic event that checked its tile's power at every firing (copied
    from the earlier engine), here against the cut in `run.cuts`.  The
    loop's events append each record, so a reader needs no catch-up.  Its
    `load` sums each window record by record."""

    def __init__(self, run, cfg):
        loop, fabric, until = run.loop, run.fabric, run.until
        self.loop = loop
        self.cfg = cfg
        self.record_bytes = cfg.record_bytes
        self.broker = run.broker = Broker(cfg.topic, cfg.partitions,
                                          cfg.retention_records)
        self.window_ps = from_seconds(cfg.load_window_ms / 1e3)
        self.sent = {}        # per link, (instant, offset, tile order, bytes)
        self.cuts = run.cuts
        self.tiles = sorted(fabric.tiles)[:cfg.producer_tiles]
        self.counts = dict.fromkeys(self.tiles, 0)
        self.stems = dict.fromkeys(self.tiles, 0)
        produced = 0
        period = self.period = from_seconds(cfg.produce_interval_ms / 1e3)
        spacing = period // max(1, len(self.tiles))
        for i, tile in enumerate(self.tiles):
            prefix = f"{tile}:"
            route = (tile, prefix, fnv1a64(prefix.encode()),
                     (fabric.tile_link(tile).id,
                      fabric.trunk_link(fabric.switch_for_tile(tile)).id),
                     i * spacing, i)
            produced += loop.every(i * spacing, period, until, "dataplane",
                                   tile, "produce", self._produce, route)
        self.groups = []
        self.delivered = {f"g{g}": 0 for g in range(cfg.consumer_groups)}
        polled = 0
        period = from_seconds(cfg.poll_interval_ms / 1e3)
        spacing = period // max(1, cfg.consumer_groups * cfg.consumers_per_group)
        k = 0
        for g in range(cfg.consumer_groups):
            group = ConsumerGroup(f"g{g}", self.broker)
            for c in range(cfg.consumers_per_group):
                group.join(f"g{g}-c{c}")
            self.groups.append(group)
            for c in range(cfg.consumers_per_group):
                polled += loop.every(period + k * spacing, period, until,
                                     "dataplane", f"g{g}-c{c}", "poll",
                                     self._poll, (group, f"g{g}-c{c}"))
                k += 1
        self.events = {"dataplane.produce_interval_ms": produced,
                       "dataplane.poll_interval_ms": polled}

    def _produce(self, route):
        tile, prefix, prefix_hash, links, offset, i = route
        now = self.loop.now
        if now >= self.cuts.get(tile, MAX_SIM_TIME + 1):
            return
        seq = self.counts[tile]
        self.counts[tile] = seq + 1
        unit = seq % 10
        if unit:
            stem = self.stems[tile]
        else:
            stem = self.stems[tile] = (
                fnv1a64(str(seq // 10).encode(), prefix_hash) if seq else prefix_hash)
        nbytes = self.record_bytes
        self.broker.append(prefix + str(seq), nbytes, now, tile,
                           ((stem ^ (48 + unit)) * FNV64_PRIME) & FNV64_MASK)
        for link_id in links:
            self.sent.setdefault(link_id, []).append((now, offset, i, nbytes))

    def load(self, link_id, start, period, first, n):
        rates = []
        for t in range(start + first * period, start + (first + n) * period, period):
            reader = EventLoop.tie_rank(t, start, period, len(self.tiles))
            nbytes = sum(b for at, offset, i, b in self.sent.get(link_id, ())
                         if t - self.window_ps < at < t or at == t and
                         EventLoop.tie_rank(t, offset, self.period, i) < reader)
            rates.append(nbytes * 8 * PS_PER_S / self.window_ps)
        return np.array(rates)

    def _poll(self, arg):
        group, member = arg
        self.delivered[group.group_id] += group.poll(member, self.cfg.max_poll_records).count
        for p in group.partitions_of(member):
            last = group.last_delivered.get(p)
            if last is not None:
                group.commit(p, last + 1)

    def finish(self, run):
        with open(run.out_dir / "traffic.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["producer", "records", "bytes"])
            for tile in self.tiles:
                w.writerow([tile, self.counts[tile],
                            self.counts[tile] * self.record_bytes])
        with open(run.out_dir / "topics.ndjson", "w") as f:
            self.broker.dump_topic(f)
        return {"topic": self.cfg.topic, "partitions": self.cfg.partitions,
                "published": self.broker.published,
                "delivered": dict(sorted(self.delivered.items())),
                "rebalances": {g.group_id: g.rebalances
                               for g in self.groups}}


# Ties everywhere.  Eight tiles produce every 8 ms, 1 ms apart, and port i
# starts its exchanges at tile i's first produce instant (start_s 0,
# stagger_ms 1), so every epoch of a port meets its own tile's produce on
# the links it reads; polls every 40 ms meet a produce at each poll too.
# t003's overdraw cut (0.296 s + 75 ms) falls on one of its produce
# instants, and a 100 W budget on one midspan denies t006 and t007 at
# set-up.  The second run makes sw1 a boundary switch, whose port sorts
# first, so each tile's epochs move one stagger later, onto the next
# tile's produce instants.  The last run has 4 ps between a tile's
# records, so all eight tiles produce at one instant, with t002 cut at 0.
TIES = {"name": "ties", "seed": 5, "duration_s": 1.0, "trace_events": True,
        "fabric": {"counts": {"wall_a": 2, "wall_b": 2, "floor": 2, "ceiling": 2},
                   "switch_count": 2, "bandwidth_bps": 100_000_000},
        "timesync": {"start_s": 0.0, "sync_interval_s": 0.04, "stagger_ms": 1.0,
                     "sample_interval_s": 0.02, "load_coupling": 2.0},
        "power": {"global_budget_w": 100.0, "midspan_count": 1,
                  "overdraw_tile": "t003", "overdraw_at_s": 0.296},
        "dataplane": {"producer_tiles": 8, "produce_interval_ms": 8.0,
                      "record_bytes": 32768, "consumer_groups": 1,
                      "consumers_per_group": 2, "poll_interval_ms": 40.0,
                      "load_window_ms": 20.0, "retention_records": 500},
        "coherent": {"trials": 20, "tile_count": None},
        "rover": {"enabled": False}}
TIE_SCENARIOS = {
    "ties": TIES,
    "boundary_switch": dict(TIES, timesync=dict(TIES["timesync"],
                                                boundary_switches=["sw1"])),
    "one_instant": {"name": "one_instant", "seed": 5, "duration_s": 4e-10,
                    "trace_events": True, "fabric": TIES["fabric"],
                    "timesync": {"enabled": False}, "coherent": {"enabled": False},
                    "rover": {"enabled": False},
                    "power": {"overdraw_tile": "t002", "overdraw_at_s": 0.0,
                              "detection_window_ms": 0},
                    "dataplane": {"producer_tiles": 8, "produce_interval_ms": 4e-9,
                                  "consumer_groups": 2, "consumers_per_group": 3,
                                  "poll_interval_ms": 8e-9, "max_poll_records": 7,
                                  "retention_records": 50}},
}


def artifacts(doc, out_root):
    out_dir = run_scenario(scenario_from_dict(doc), out_root).out_dir
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize("name", TIE_SCENARIOS)
def test_producers_without_events_match_the_eager_reference(name, tmp_path):
    doc = TIE_SCENARIOS[name]
    lazy = artifacts(doc, tmp_path / "lazy")
    with mock.patch.dict(orchestrator.STAGES, dataplane=EagerDataplane):
        eager = artifacts(doc, tmp_path / "eager")
    events = eager.pop("events.ndjson").decode().splitlines(keepends=True)
    produced = [line for line in events if '"action":"produce"' in line]
    assert produced
    assert lazy.pop("events.ndjson").decode() == "".join(
        line for line in events if '"action":"produce"' not in line)
    assert lazy.keys() == eager.keys()
    for artifact in lazy:
        assert lazy[artifact] == eager[artifact], artifact
    report = json.loads(lazy["report.json"])
    assert report["dataplane"]["published"] > 0


def test_a_cut_tile_fires_no_event(tmp_path):
    # t006 and t007 are denied at set-up and t003 is cut at 371 ms: their
    # sync series end before the cut, and neither a cut nor an exchange is
    # an event
    run = run_scenario(scenario_from_dict(TIES), tmp_path)
    events = [json.loads(line) for line in
              (run.out_dir / "events.ndjson").read_text().splitlines()]
    assert {e["module"] for e in events} == {"dataplane"}
    ports = run.domain.ports
    assert run.cuts == {"t006": 0, "t007": 0, "t003": from_seconds(0.371)}
    assert ports["t006"].corrections == ports["t007"].corrections == 0
    # t003's epochs every 40 ms from 3 ms: ten before its cut, each closed
    assert ports["t003"].epoch_ps == from_seconds(0.003)
    assert ports["t003"].exchanges == ports["t003"].corrections == 10
