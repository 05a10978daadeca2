"""Event loop, simulated time, and named deterministic random streams."""

import heapq
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from tilesim.core import (EventLoop, MAX_SIM_TIME, PS_PER_MS, PS_PER_S,
                          PS_PER_US, RngRegistry, RngStream, RunStats,
                          SimulationError, _NORMAL_LANE, _UNIFORM_LANE,
                          _philox_key, as_indices, as_normals, as_uniforms,
                          from_seconds, to_seconds)


# --- time -------------------------------------------------------------------

def test_from_seconds_is_integer_picoseconds():
    assert from_seconds(1.0) == PS_PER_S
    assert from_seconds(0.001) == PS_PER_MS
    assert from_seconds(1e-6) == PS_PER_US
    assert isinstance(from_seconds(0.25), int)


def test_time_round_trip():
    for t in (0.0, 0.1, 1.5, 300.0, 7.25e-3):
        assert to_seconds(from_seconds(t)) == pytest.approx(t, rel=1e-12)


# --- event loop -------------------------------------------------------------

def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(300, "m", "b", "late", lambda _: fired.append("late"))
    loop.schedule(100, "m", "a", "early", lambda _: fired.append("early"))
    loop.schedule(200, "m", "a", "mid", lambda _: fired.append("mid"))
    loop.run_until(1000)
    assert fired == ["early", "mid", "late"]


def test_same_timestamp_fires_in_schedule_order():
    loop = EventLoop()
    fired = []
    for tag in ("first", "second", "third"):
        loop.schedule(500, "m", "x", tag, lambda _, t=tag: fired.append(t))
    loop.run_until(500)
    assert fired == ["first", "second", "third"]


def test_schedule_in_past_rejected():
    loop = EventLoop()
    loop.schedule(10, "m", "x", "a", lambda _: None)
    loop.run_until(50)
    with pytest.raises(SimulationError):
        loop.schedule(40, "m", "x", "late", lambda _: None)


def test_negative_fire_time_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1, "m", "x", "a", lambda _: None)


@pytest.mark.parametrize("use_every", [False, True], ids=["hand_rolled", "every"])
def test_periodic_chain_count(use_every):
    # 1 ms period over 1 s: fires at 0, 1 ms, ..., 1000 ms inclusive
    loop = EventLoop()
    seen = []

    def tick(_):
        seen.append(loop.now)
        if not use_every:
            loop.schedule(loop.now + PS_PER_MS, "m", "x", "tick", tick)

    if use_every:
        loop.every(0, PS_PER_MS, PS_PER_S, "m", "x", "tick", tick)
    else:
        loop.schedule(0, "m", "x", "tick", tick)
    stats = loop.run_until(PS_PER_S)
    assert len(seen) == 1001
    assert stats.processed == 1001
    assert seen[0] == 0 and seen[-1] == PS_PER_S


class _HandRolledPoll:
    """The consumer poll's re-arm before `EventLoop.every`, kept verbatim as
    the oracle of the test below."""

    MODULE = "dataplane"

    def __init__(self, loop, until_ps, work):
        self.loop, self.until, self.work = loop, until_ps, work

    def _poll(self, arg) -> None:
        member, period = arg
        now = self.loop.now
        nxt = now + period
        if nxt <= self.until:
            self.loop.schedule(nxt, self.MODULE, member, "poll", self._poll, arg)
        self.work(arg)


def _one_shots(loop):
    """Queues one-shot events at the handler's instant and at its chain's
    next one, where insertion order decides what fires first."""
    def work(arg):
        member, period = arg
        loop.schedule(loop.now, "timesync", member, "now", lambda _: None)
        loop.schedule(loop.now + period, "timesync", member, "next",
                      lambda _: None)
    return work


@settings(max_examples=150, deadline=None)
@given(chains=st.lists(st.tuples(st.integers(0, 450), st.integers(1, 60)),
                       min_size=1, max_size=3),
       until=st.integers(0, 400))
def test_every_matches_the_hand_rolled_chain(chains, until):
    old_trace, new_trace = io.StringIO(), io.StringIO()
    old, new = EventLoop(old_trace), EventLoop(new_trace)
    hand_rolled = _HandRolledPoll(old, until, _one_shots(old))
    work = _one_shots(new)
    for i, (start, period) in enumerate(chains):
        old.schedule(start, "dataplane", f"c{i}", "poll", hand_rolled._poll,
                     (f"c{i}", period))
        new.every(start, period, until, "dataplane", f"c{i}", "poll", work,
                  (f"c{i}", period))
    assert old.run_until(until) == new.run_until(until)
    assert old_trace.getvalue() == new_trace.getvalue()


@pytest.mark.parametrize("period", [0, -1])
def test_every_rejects_a_period_below_one_tick(period):
    loop = EventLoop()
    with pytest.raises(SimulationError, match="period"):
        loop.every(0, period, 100, "m", "x", "tick", lambda _: None)
    assert loop.pending() == 0


def test_every_starting_after_until_schedules_nothing():
    loop = EventLoop()
    fired = []
    loop.every(101, 10, 100, "m", "x", "tick", fired.append)
    assert loop.pending() == 0
    assert loop.run_until(1000).processed == 0 and fired == []


def test_run_until_advances_clock_without_events():
    loop = EventLoop()
    loop.run_until(12345)
    assert loop.now == 12345


def test_run_until_cannot_go_backwards():
    loop = EventLoop()
    loop.run_until(100)
    with pytest.raises(SimulationError):
        loop.run_until(50)


def test_event_at_exact_end_time_fires():
    loop = EventLoop()
    fired = []
    loop.schedule(1000, "m", "x", "edge", lambda _: fired.append(1))
    loop.run_until(1000)
    assert fired == [1]


def test_trace_is_deterministic_ndjson():
    def run():
        buf = io.StringIO()
        loop = EventLoop(trace=buf)
        loop.schedule(5, "alpha", "n1", "go", lambda _: None)
        loop.schedule(5, "beta", "n2", "go", lambda _: None)
        loop.schedule(9, "alpha", "n1", "stop", lambda _: None)
        loop.run_until(10)
        return buf.getvalue()

    a, b = run(), run()
    assert a == b
    lines = a.strip().split("\n")
    assert len(lines) == 3
    import json
    first = json.loads(lines[0])
    assert first == {"t": 5, "module": "alpha", "target": "n1", "action": "go"}


def test_same_instant_fifo_with_incomparable_args_and_stats_per_call():
    class Opaque:
        pass

    buf = io.StringIO()
    loop = EventLoop(trace=buf)
    fired = []
    args = [{"k": 1}, None, Opaque(), {"k": 2}, None, Opaque()]
    for i, arg in enumerate(args):
        loop.schedule(7, "ab"[i % 2], f"n{i}", "go",
                      lambda a, i=i: fired.append((i, a)), arg)
    loop.schedule(20, "b", "late", "stop", lambda a: fired.append(("late", a)), {})

    first = loop.run_until(10)
    assert [i for i, _ in fired] == list(range(len(args)))
    assert all(a is args[i] for i, a in fired)
    assert (first.processed, first.by_module) == (6, {"a": 3, "b": 3})
    assert loop.now == 10

    second = loop.run_until(30)
    assert fired[-1] == ("late", {})
    assert (second.processed, second.by_module) == (1, {"b": 1})

    idle = loop.run_until(40)
    assert (idle.processed, idle.by_module) == (0, {})

    expected = "".join(
        '{"t":7,"module":"%s","target":"n%d","action":"go"}\n' % ("ab"[i % 2], i)
        for i in range(len(args)))
    expected += '{"t":20,"module":"b","target":"late","action":"stop"}\n'
    assert buf.getvalue() == expected


class HeapqLoop:
    """Reference model: a plain `heapq` queue of (fire_at, seq) events,
    written apart from `EventLoop` (copied from an earlier engine)."""

    def __init__(self, trace=None):
        self._heap = []
        self._seq = 0
        self._now = 0
        self._trace = trace

    @property
    def now(self):
        return self._now

    def schedule(self, fire_at, module, target, action, fn, arg=None):
        if not self._now <= fire_at <= MAX_SIM_TIME:
            raise SimulationError("out of range")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (fire_at, seq, fn, arg, module, target, action))

    def every(self, start, period, until, module, target, action, fn, arg=None):
        if period < 1:
            raise SimulationError("period")
        if start <= until:
            self.schedule(start, module, target, action, self._fire_periodic,
                          (period, until, module, target, action, fn, arg))

    def _fire_periodic(self, spec):
        period, until, module, target, action, fn, arg = spec
        nxt = self._now + period
        if nxt <= until:
            self.schedule(nxt, module, target, action, self._fire_periodic, spec)
        fn(arg)

    def run_until(self, t_end):
        heap = self._heap
        by_module = {}
        while heap and heap[0][0] <= t_end:
            fire_at, _, fn, arg, module, target, action = heapq.heappop(heap)
            self._now = fire_at
            if self._trace is not None:
                self._trace.write('{"t":%d,"module":"%s","target":"%s","action":"%s"}\n'
                                  % (fire_at, module, target, action))
            fn(arg)
            by_module[module] = by_module.get(module, 0) + 1
        stats = RunStats(sum(by_module.values()), by_module)
        if t_end > self._now:
            self._now = t_end
        return stats

    def pending(self):
        return len(self._heap)


def drive(loop_cls, program):
    """Run one random schedule; returns everything observable about it."""
    starts, chains, children, ends = program
    buf = io.StringIO()
    loop = loop_cls(trace=buf)
    fired = []

    def handler(arg):
        name, depth = arg
        fired.append((loop.now, name, depth))
        if depth < 3:
            # follow-ups at the same instant, just after it (often before
            # the queue's head) and further out
            for k, delay in enumerate(children.get(name, ())):
                loop.schedule(loop.now + delay, "ab"[k % 2], f"{name}.{k}", "child",
                              handler, (f"{name}.{k}", depth + 1))

    for i, (t, module) in enumerate(starts):
        loop.schedule(t, module, f"e{i}", "start", handler, (f"e{i}", 0))
    for i, (start, period, until) in enumerate(chains):
        loop.every(start, period, until, "p", f"c{i}", "tick", handler, (f"c{i}", 1))
    observed = []
    for t_end in ends:
        stats = loop.run_until(max(t_end, loop.now))
        observed.append((stats, loop.now, loop.pending()))
    return fired, observed, buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(starts=st.lists(st.tuples(st.integers(0, 60), st.sampled_from("ab")),
                       max_size=12),
       chains=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 25),
                                 st.integers(0, 120)), max_size=3),
       children=st.dictionaries(
           st.sampled_from(["e0", "e1", "e2", "e3", "c0", "c1", "e0.0", "e1.1"]),
           st.lists(st.integers(0, 30), max_size=3), max_size=6),
       ends=st.lists(st.integers(0, 150), min_size=1, max_size=5))
def test_loop_matches_a_heapq_model(starts, chains, children, ends):
    program = (starts, chains, children, sorted(ends) + [200])
    assert drive(EventLoop, program) == drive(HeapqLoop, program)


def test_events_fire_in_time_then_insertion_order():
    loop = EventLoop()
    order = []
    loop.schedule(10, "m", "a", "x", order.append, "a")
    loop.schedule(10, "m", "b", "x", order.append, "b")     # tie: after a
    loop.schedule(5, "m", "c", "x", order.append, "c")      # before the head
    loop.schedule(5, "m", "d", "x", order.append, "d")      # tie: after c
    loop.schedule(3, "m", "e", "x", order.append, "e")      # before them all
    assert loop.pending() == 5
    stats = loop.run_until(4)
    assert order == ["e"] and loop.pending() == 4 and stats.processed == 1
    loop.run_until(10)
    assert order == ["e", "c", "d", "a", "b"] and loop.pending() == 0


# --- the order at equal instants --------------------------------------------

def fired_at_ties(setup, until):
    """Queue `setup` on an `EventLoop`, in its order: ("once", at) is a
    one-shot, ("every", start, period) a series up to `until`.  Returns
    (at, k) of each event that fired, k its place in `setup`, in firing
    order."""
    loop = EventLoop()
    fired = []

    def note(k):
        fired.append((loop.now, k))

    for k, event in enumerate(setup):
        if event[0] == "once":
            loop.schedule(event[1], "m", f"e{k}", "once", note, k)
        else:
            loop.every(event[1], event[2], until, "m", f"e{k}", "tick", note, k)
    loop.run_until(until)
    return fired


def ranked(setup, fired):
    """`fired` reordered within each instant by `EventLoop.tie_rank`."""
    def rank(item):
        at, k = item
        event = setup[k]
        start, period = (at, 1) if event[0] == "once" else event[1:]
        return at, EventLoop.tie_rank(at, start, period, k)
    return sorted(fired, key=rank)


# one-shots and series on a shared grid of small periods and starts, so
# equal periods, equal starts and first occurrences tie often
SETUP = st.lists(st.one_of(
    st.tuples(st.just("once"), st.integers(0, 12)),
    st.tuples(st.just("every"), st.integers(0, 8), st.integers(1, 4))),
    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(SETUP)
@example([("every", 0, 2), ("every", 2, 2)])      # equal periods: later start first
@example([("every", 0, 3), ("every", 3, 1)])      # a first occurrence comes first
@example([("every", 2, 2), ("once", 4), ("every", 4, 1), ("every", 0, 2)])
def test_tie_rank_gives_the_order_the_loop_fired_in(setup):
    fired = fired_at_ties(setup, 24)
    assert ranked(setup, fired) == fired


# --- random streams ---------------------------------------------------------

# The first draws of one named stream, written out so that a numpy whose
# Philox words change, or an edit to a transform, fails here by name.
GOLDEN_SEED, GOLDEN_NAME = 2021, "tilesim/golden"
GOLDEN_WORDS = [0xd21432a431461d92, 0x408040853f500323, 0xc0339b1174731217,
                0xab98286f300c2acd, 0x15bfdf65c88895d1, 0x4b551c9f428d6d2d,
                0x11a619c69e8a0ea0, 0x23931d971d788128]
GOLDEN_UNIFORMS = ["0x1.fec664e313d70p-3", "0x1.5df43062b2384p-1",
                   "0x1.97853b9a4c890p-2", "0x1.d91c394b79f7dp-1",
                   "0x1.312c778f35e59p-1", "0x1.f950c4feab1e9p-1",
                   "0x1.1e34e298c71d8p-4", "0x1.95f0065481d87p-1"]
GOLDEN_NORMALS = ["-0x1.d49cddbc76481p-1", "0x1.395af0acd21acp-1",
                  "-0x1.a817036c5c693p-5", "-0x1.b671ba973f262p-4",
                  "-0x1.fd8742846c371p-3", "0x1.42602dfc348eep+0",
                  "0x1.b3cf57b364201p-1", "-0x1.287ead4faad2dp+0"]


def test_first_raw_words_uniforms_and_normals_are_pinned():
    s = RngStream(GOLDEN_SEED, GOLDEN_NAME)
    assert s.words(0, 8).tolist() == GOLDEN_WORDS
    assert [s.uniform().hex() for _ in range(8)] == GOLDEN_UNIFORMS
    assert [s.normal().hex() for _ in range(8)] == GOLDEN_NORMALS


def test_words_are_philox_blocks_addressed_by_counter():
    # word i of lane k is word i mod 4 of the block at counter (i // 4, k);
    # numpy's Philox steps its counter before it fills a block
    key = _philox_key(5, "addr")
    s = RngStream(5, "addr")
    for lane, block in [(0, 0), (0, 1), (0, 2**64 - 1), (1, 0), (2, 7)]:
        before = (((lane << 64) + block - 1) % (1 << 256)).to_bytes(32, "little")
        bg = Philox(key=key, counter=np.frombuffer(before, dtype=np.uint64))
        assert s.words(4 * block, 4, lane).tolist() == bg.random_raw(4).tolist()


@given(st.integers(0, 3000), st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_a_word_does_not_depend_on_the_read_it_comes_from(start, n, k):
    s = RngStream(8, "read")
    whole = s.words(0, start + n + k)
    assert s.words(start, n).tolist() == whole[start:start + n].tolist()
    assert s.words(start + n, k).tolist() == whole[start + n:].tolist()


def test_words_outside_one_lane_are_refused():
    s = RngStream(1, "edge")
    assert s.words(4 * 2**64 - 3, 3).size == 3
    for start, n in [(-1, 2), (4 * 2**64 - 3, 4), (0, -1)]:
        with pytest.raises(ValueError, match="outside one lane"):
            s.words(start, n)


def test_same_name_same_sequence():
    a = RngStream(7, "fabric/jitter")
    b = RngStream(7, "fabric/jitter")
    assert [a.normal() for _ in range(100)] == [b.normal() for _ in range(100)]
    assert a.words(0, 64).tolist() == b.words(0, 64).tolist()


def test_different_names_are_independent():
    sa, sb = RngStream(7, "alpha"), RngStream(7, "beta")
    a = np.array([sa.normal() for _ in range(200)])
    b = np.array([sb.normal() for _ in range(200)])
    assert not np.allclose(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.25
    ua, ub = as_uniforms(sa.words(0, 2000)), as_uniforms(sb.words(0, 2000))
    assert abs(np.corrcoef(ua, ub)[0, 1]) < 0.1


def test_different_seeds_differ():
    a = RngStream(1, "x").normal()
    b = RngStream(2, "x").normal()
    assert a != b
    assert RngStream(1, "x").words(0, 4).tolist() != RngStream(2, "x").words(0, 4).tolist()


def test_draw_kinds_do_not_interfere():
    # consuming uniforms or reading words must not shift the normal
    # sequence, nor normals and words the uniform one
    plain = RngStream(3, "s")
    normals = [plain.normal() for _ in range(300)]
    uniforms = [plain.uniform() for _ in range(300)]
    mixed = RngStream(3, "s")
    out_n, out_u = [], []
    for i in range(300):
        out_u.append(mixed.uniform())
        mixed.words(i, 3)
        out_n.append(mixed.normal())
    assert out_n == normals and out_u == uniforms
    # the cursors' lanes hold none of the words a consumer addresses
    lanes = [set(mixed.words(0, 512, lane).tolist()) for lane in (0, 1, 2)]
    assert not (lanes[0] & lanes[1] or lanes[0] & lanes[2] or lanes[1] & lanes[2])


def test_block_cache_crosses_boundary_consistently():
    # sequences longer than one refill block must still be reproducible
    n = 5000
    a = RngStream(11, "long")
    first = [a.normal() for _ in range(n)]
    b = RngStream(11, "long")
    assert [b.normal() for _ in range(n)] == first


def test_scalar_draws_equal_one_generator_block():
    # the scalar blocks are a cache: the values are the transforms of the
    # cursor lanes' words, whatever the block size
    s = RngStream(21, "blk")
    normals = [s.normal() for _ in range(3000)]
    assert normals == as_normals(s.words(0, 3000, _NORMAL_LANE)).tolist()
    uniforms = [s.uniform() for _ in range(700)]
    assert uniforms == as_uniforms(s.words(0, 700, _UNIFORM_LANE)).tolist()
    # served across refills as Python floats, not numpy scalars
    assert {type(v) for v in normals + uniforms} == {float}


def box_muller_pairs(words) -> list[float]:
    """The normal transform one pair at a time, in scalar Python."""
    out = []
    for w1, w2 in zip(words[0::2], words[1::2]):
        u1, u2 = (w1 >> 11) * 2.0**-53, (w2 >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log1p(-u1))
        out += [r * math.cos(2 * math.pi * u2), r * math.sin(2 * math.pi * u2)]
    return out


def test_normals_equal_the_scalar_box_muller_bit_for_bit():
    words = RngStream(31, "bm").words(0, 100_000)
    extremes = np.array([0, 2**64 - 1, 2**11 - 1, 2**11, 2**63, 1 << 62],
                        dtype=np.uint64)
    for w in (words, extremes, words[:6].reshape(3, 2)):
        got = as_normals(w)
        assert got.shape == w.shape
        assert got.reshape(-1).tolist() == box_muller_pairs(w.reshape(-1).tolist())
    # the largest uniform keeps log1p(-u) finite
    assert np.isfinite(as_normals(np.array([2**64 - 1, 0], dtype=np.uint64))).all()


def test_normal_array_matches_scalar_stream_statistics():
    arr = as_normals(RngStream(5, "arr").words(0, 20000)) * 2.0
    assert abs(arr.mean()) < 0.05
    assert abs(arr.std() - 2.0) < 0.05
    # cos and sin halves are each standard normal and uncorrelated
    assert abs(np.corrcoef(arr[0::2], arr[1::2])[0, 1]) < 0.05


def test_uniform_bounds_and_integers_range():
    s = RngStream(9, "bounds")
    us = [s.uniform(2.0, 3.0) for _ in range(1000)]
    assert all(2.0 <= u < 3.0 for u in us)
    ints = as_indices(s.words(0, 1000), 3) + 5
    assert set(ints.tolist()) == {5, 6, 7}
    # the largest word's uniform, 1 - 2**-53, still floors below m
    top = np.array([2**64 - 1], dtype=np.uint64)
    assert as_uniforms(top)[0] == 1 - 2.0**-53
    for m in (1, 3, 97, 2**31 - 1, 2**53 - 1, 2**53):
        assert as_indices(top, m)[0] == m - 1
    assert as_indices(np.array([0], dtype=np.uint64), 5)[0] == 0


def test_registry_returns_same_stream_object():
    reg = RngRegistry(42)
    assert reg.stream("a") is reg.stream("a")
    assert reg.stream("a") is not reg.stream("b")
    first = reg.stream("a").normal()
    assert RngStream(42, "a").normal() == first   # caching does not perturb
    assert reg.stream("a").normal() != first      # cached object advances


def test_scalar_normal_loc_scale():
    s = RngStream(6, "ls")
    vals = np.array([s.normal(scale=0.5, loc=10.0) for _ in range(5000)])
    assert abs(vals.mean() - 10.0) < 0.05
    assert abs(vals.std() - 0.5) < 0.05
