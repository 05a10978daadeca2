"""Deterministic discrete-event engine.

Simulated time is an integer count of picoseconds since the run epoch, kept
in plain Python ints but bounded to the unsigned 64-bit range at the API
boundary so arithmetic is exact and portable.  Events fire in (time,
insertion order), which makes every run replayable bit-for-bit.  Randomness
comes from named streams backed by a counter-based bit generator, so the
value at a given draw index depends only on (seed, stream name, draw kind,
index) and never on what other streams did.
"""

from __future__ import annotations

import hashlib
import heapq
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, IO

import numpy as np
from numpy.random import Generator, Philox

SimTime = int  # picoseconds

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000

MAX_SIM_TIME = 2**64 - 1


def from_seconds(t_s: float) -> SimTime:
    """Seconds to integer picoseconds, rounded to nearest."""
    return int(round(t_s * PS_PER_S))


def to_seconds(t_ps: SimTime) -> float:
    return t_ps / PS_PER_S


class SimulationError(RuntimeError):
    """Engine misuse (scheduling into the past, time overflow, ...)."""


@dataclass
class RunStats:
    processed: int = 0
    by_module: dict[str, int] = field(default_factory=dict)
    last_fire_at: SimTime = 0


class EventLoop:
    """Single-threaded event queue ordered by (fire_at, insertion seq).

    Handlers may schedule further events at or after the current time;
    `every` is the one way to run a handler on a fixed period.  While the
    `trace` attribute holds a sink, each processed event writes one JSON
    line to it; identical runs produce identical trace bytes.

    Each queued event is a plain tuple (fire_at, seq, fn, arg, module,
    target, action); seq is unique, so heap comparisons never reach fn or
    arg and those may be anything.

    Front slot: at most one event is held outside the heap, in `_front`,
    and only while it fires strictly before every event in the heap.  A
    handler's follow-up that lands before the heap's head (the next step of
    a message exchange, say) then goes there and is dispatched next without
    a heap push and pop.  An event at the head's instant goes to the heap,
    since the head's smaller seq fires first.  The slot never changes the
    (fire_at, seq) firing order, and `pending()` counts it.
    """

    def __init__(self, trace: IO[str] | None = None):
        self._heap: list[tuple] = []
        self._front: tuple | None = None
        self._seq = 0
        self._now: SimTime = 0
        self.trace = trace

    @property
    def now(self) -> SimTime:
        return self._now

    def schedule(self, fire_at: SimTime, module: str, target: str, action: str,
                 fn: Callable[[Any], None], arg: Any = None) -> None:
        if not self._now <= fire_at <= MAX_SIM_TIME:
            if not 0 <= fire_at <= MAX_SIM_TIME:
                raise SimulationError(f"fire_at {fire_at} outside the 64-bit time range")
            raise SimulationError(
                f"event {action!r} scheduled at {fire_at} ps, before now={self._now} ps")
        seq = self._seq
        self._seq = seq + 1
        event = (fire_at, seq, fn, arg, module, target, action)
        front = self._front
        if front is None:
            heap = self._heap
            if heap and heap[0][0] <= fire_at:
                heapq.heappush(heap, event)
            else:
                self._front = event
        elif fire_at < front[0]:
            heapq.heappush(self._heap, front)
            self._front = event
        else:
            heapq.heappush(self._heap, event)

    def every(self, start: SimTime, period: SimTime, until: SimTime, module: str,
              target: str, action: str, fn: Callable[[Any], None],
              arg: Any = None) -> int:
        """Call `fn(arg)` at start, start + period, ... up to and including
        `until`, and return how many calls that makes.  Each firing queues
        the next one before it calls `fn`, so the events `fn` schedules come
        after it in insertion order."""
        if period < 1:
            raise SimulationError(f"event {action!r} has period {period} ps, below 1 ps")
        if start > until:
            return 0
        self.schedule(start, module, target, action, self._fire_periodic,
                      (period, until, module, target, action, fn, arg))
        return (until - start) // period + 1

    def _fire_periodic(self, spec: tuple) -> None:
        period, until, module, target, action, fn, arg = spec
        nxt = self._now + period
        if nxt <= until:
            self.schedule(nxt, module, target, action, self._fire_periodic, spec)
        fn(arg)

    def run_until(self, t_end: SimTime) -> RunStats:
        """Process every event with fire_at <= t_end, then advance now to t_end."""
        if t_end < self._now:
            raise SimulationError(
                f"run_until({t_end}) would move time backwards from {self._now}")
        heap = self._heap
        trace = self.trace
        pop = heapq.heappop
        by_module: dict[str, int] = {}
        count = by_module.get
        while True:
            event = self._front
            if event is not None:
                if event[0] > t_end:
                    break
                self._front = None
            elif heap and heap[0][0] <= t_end:
                event = pop(heap)
            else:
                break
            fire_at, _, fn, arg, module, target, action = event
            self._now = fire_at
            if trace is not None:
                trace.write('{"t":%d,"module":"%s","target":"%s","action":"%s"}\n'
                            % (fire_at, module, target, action))
            fn(arg)
            by_module[module] = count(module, 0) + 1
        processed = sum(by_module.values())
        stats = RunStats(processed, by_module, self._now if processed else 0)
        if t_end > self._now:
            self._now = t_end
        return stats

    def pending(self) -> int:
        return len(self._heap) + (self._front is not None)


def _philox_key(seed: int, name: str) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}\x1f{name}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def _rekey(gen: Generator, key: np.ndarray) -> Generator:
    """Reset `gen`'s Philox to the state `Philox(key=key)` starts in: counter
    0, nothing buffered.  Philox is counter-based, so the draws that follow
    equal those of a freshly keyed generator, without the OS-entropy
    SeedSequence that the constructor builds and the key then overrides."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen


class RngStream:
    """Named deterministic random stream.

    Draws come from counter-based Philox 4x64 keyed by SHA-256(seed, name).
    Each draw kind (normal / uniform / integers) runs on its own derived
    key, so the i-th normal drawn from a stream is the same value no matter
    how many uniforms were drawn in between.  Scalar gaussian and uniform
    draws are served from refillable blocks, purely as a speed measure; the
    generator fills a block value by value, so the served sequence is
    identical to drawing one at a time, whatever the block size.  A block
    is kept packed, 8 bytes a value, in an `array("d")`, and served through
    an iterator, whose items come out as Python floats with the
    generator's bits.
    """

    # values per refill, 2 KiB a block when packed; a full room keeps the
    # blocks of about 300 streams alive
    _BLOCK = 256
    # iterators over the current normal and uniform blocks; until a stream's
    # first draw both are this shared exhausted one, so making a stream
    # allocates no block
    _zbuf = _ubuf = iter(())

    def __init__(self, seed: int, name: str):
        self.seed = seed
        self.name = name
        self._gens: dict[str, Generator] = {}

    def _gen(self, kind: str) -> Generator:
        g = self._gens.get(kind)
        if g is None:
            g = Generator(Philox(key=_philox_key(self.seed, f"{self.name}\x1f{kind}")))
            self._gens[kind] = g
        return g

    def normal(self, scale: float = 1.0, loc: float = 0.0) -> float:
        try:
            z = next(self._zbuf)
        except StopIteration:
            self._zbuf = iter(array("d", self._gen("normal").standard_normal(
                self._BLOCK).tobytes()))
            z = next(self._zbuf)
        return loc + scale * z

    def normal_array(self, size: int, scale: float = 1.0) -> np.ndarray:
        # bypasses the scalar block cache on purpose: array users own the stream
        return self._gen("normal_array").standard_normal(size) * scale

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        try:
            u = next(self._ubuf)
        except StopIteration:
            self._ubuf = iter(array("d", self._gen("uniform").random(
                self._BLOCK).tobytes()))
            u = next(self._ubuf)
        return low + (high - low) * u

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen("integers").integers(low, high))

    def integer_array(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen("integer_array").integers(low, high, size=size)

    def substream(self, label: object) -> "RngStream":
        return RngStream(self.seed, f"{self.name}/{label}")

    def substream_integer_arrays(self, labels, low: int, high: int,
                                 size: int) -> np.ndarray:
        """Row k is `self.substream(labels[k]).integer_array(low, high, size)`,
        drawn on one generator rekeyed per label."""
        return self._substream_rows(
            labels, "integer_array", size,
            lambda g: g.integers(low, high, size=size))

    def substream_normal_arrays(self, labels, size: int,
                                scale: float = 1.0) -> np.ndarray:
        """Row k is `self.substream(labels[k]).normal_array(size, scale)`,
        drawn on one generator rekeyed per label."""
        return self._substream_rows(
            labels, "normal_array", size,
            lambda g: g.standard_normal(size) * scale)

    def _substream_rows(self, labels, kind: str, size: int, draw) -> np.ndarray:
        gen = Generator(Philox(0))
        rows = [draw(_rekey(gen, _philox_key(self.seed,
                                             f"{self.name}/{label}\x1f{kind}")))
                for label in labels]
        return np.array(rows).reshape(len(rows), size)


class RngRegistry:
    """Hands out named streams for one master seed, caching by name."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        s = self._streams.get(name)
        if s is None:
            s = RngStream(self.seed, name)
            self._streams[name] = s
        return s
