"""Deterministic discrete-event engine.

Simulated time is an integer count of picoseconds since the run epoch, kept
in plain Python ints but bounded to the unsigned 64-bit range at the API
boundary so arithmetic is exact and portable.  Events fire in (time,
insertion order), which makes every run replayable bit-for-bit; in a run
whose events are queued at set-up or re-queued by `EventLoop.every`, the
order at one instant has a closed form, `EventLoop.tie_rank`.  Every
random draw is a word addressed by (stream, index), a Philox 4x64 output
keyed by the seed and the stream's name, so it depends on those alone and
never on other draws; uniforms, integers and normals are transforms of it.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, IO

import numpy as np
from numpy.random import Philox

SimTime = int  # picoseconds

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


class EventLoop:
    """Single-threaded event queue ordered by (fire_at, insertion seq).

    `every` is the one way to run a handler on a fixed period, and a run's
    stages queue nothing else: each event of a run is the first occurrence
    of a series, queued at set-up, or its periodic re-queue.  While the
    `trace` attribute holds a sink, each processed event writes one JSON
    line to it; identical runs produce identical trace bytes.

    Each queued event is a plain tuple (fire_at, seq, fn, arg, module,
    target, action); seq is unique, so heap comparisons never reach fn or
    arg and those may be anything.
    """

    def __init__(self, trace: IO[str] | None = None):
        self._heap: list[tuple] = []
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
        heapq.heappush(self._heap, (fire_at, seq, fn, arg, module, target, action))

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

    @staticmethod
    def tie_rank(at: SimTime, start: SimTime, period: SimTime, order: int) -> tuple:
        """Where the occurrence at `at` of the series `every(start, period)`
        fires among the events at that instant: events at one instant fire
        in ascending rank.  `order` numbers the events queued at set-up in
        the order they were queued.  The rule holds for a run whose every
        event is queued at set-up or is a periodic re-queue, as a run's
        are (a one-shot queued at set-up ranks as a series starting at
        `at`):

        - events queued at set-up fire first, in set-up order;
        - of two re-queued occurrences, the longer period fires first: its
          predecessor fired earlier, so it was queued earlier;
        - with equal periods, the later start fires first: at that start
          it fired first, as a set-up event, and each firing queues the next
          occurrence before the other series' does; with equal starts too,
          set-up order decides.

        A run's producers are no events: this rank tells which of their
        records a poll at the same instant sees, and which a sync exchange's
        load window holds at its epoch."""
        if at == start:
            return (0, order)
        return (1, -period, -start, order)

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
            if heap and heap[0][0] <= t_end:
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
        self._now = t_end
        return RunStats(sum(by_module.values()), by_module)

    def pending(self) -> int:
        return len(self._heap)


def _philox_key(seed: int, name: str) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}\x1f{name}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


_PHILOX = Philox(0)   # serves every read, which sets its key and counter
_UNIFORM_LANE, _NORMAL_LANE = 1, 2   # the scalar cursors' lanes


def as_uniforms(words: np.ndarray) -> np.ndarray:
    """Each word's top 53 bits times 2**-53: a uniform in [0, 1), exact."""
    return (words >> 11) * 2.0**-53


def as_indices(words: np.ndarray, m: int) -> np.ndarray:
    """floor(u * m) of each word's uniform u: below m, as u <= 1 - 2**-53."""
    return (as_uniforms(words) * m).astype(np.intp)


def as_normals(words: np.ndarray) -> np.ndarray:
    """One standard normal a word: Box-Muller on each pair (u1, u2) of the
    flattened words gives r cos(2 pi u2), then r sin(2 pi u2), with r =
    sqrt(-2 log1p(-u1)).  log1p, cos and sin run value by value in `math`,
    on the platform's libm, never as numpy ufuncs, whose last bits vary
    with the CPU; only exact or correctly rounded arithmetic runs
    vectorized, the square root included (IEEE 754 rounds it correctly, so
    `np.sqrt` gives `math.sqrt`'s bits).  The size must be even."""
    u = as_uniforms(words.reshape(-1))
    n = u.size // 2
    r = np.sqrt(-2.0 * np.fromiter(map(math.log1p, (-u[0::2]).tolist()), float, n))
    theta = (2 * math.pi * u[1::2]).tolist()
    out = np.empty((n, 2))
    out[:, 0] = np.fromiter(map(math.cos, theta), float, n)
    out[:, 1] = np.fromiter(map(math.sin, theta), float, n)
    return (out * r[:, None]).reshape(words.shape)


class RngStream:
    """Named deterministic random stream: words addressed by index.

    Word i of lane k is word i mod 4 of the Philox 4x64 block at counter
    (i // 4, k, 0, 0), keyed by SHA-256(seed, name), so it depends on
    (seed, name, lane, i) alone.  The blocks come from `random_raw`, whose
    words numpy keeps stable, and a run draws only transforms of words, so
    no numpy distribution method enters it.  A consumer that owns an index
    reads lane 0 there through `words`: a coherent trial or a hop's jitter
    its words, a clock's walk step its pair.  `uniform` and `normal` are
    cursors over lanes 1 and 2, so neither kind shifts the other.  They
    serve blocks of `_BLOCK` values, packed in an `array("d")` and read
    through an iterator, whose items come out as Python floats.
    """

    # values per refill, 2 KiB a block when packed; a full room keeps the
    # blocks of about 300 streams alive
    _BLOCK = 256
    # the blocks' iterators, each lane's next refill index and the key, made
    # on the first read: shared class values until then, so making a stream
    # allocates nothing
    _zbuf = _ubuf = iter(())
    _znext = _unext = 0
    _key = None

    def __init__(self, seed: int, name: str):
        self.seed = seed
        self.name = name

    def words(self, start: int, n: int, lane: int = 0) -> np.ndarray:
        """Words start .. start + n - 1 of `lane`, as uint64."""
        if not 0 <= start <= start + n <= 4 << 64:
            raise ValueError(f"words [{start}, {start + n}) outside one lane")
        if self._key is None:
            self._key = _philox_key(self.seed, self.name)
        # the bit generator steps its counter before it fills a block
        c = ((lane << 64) + start // 4 - 1) % (1 << 256)
        _PHILOX.state = {"bit_generator": "Philox", "state": {
            "counter": np.array([(c >> k) % 2**64 for k in (0, 64, 128, 192)],
                                dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return _PHILOX.random_raw(start % 4 + n)[start % 4:]

    def _refill(self, start: int, lane: int, transform):
        """An iterator over a block of `lane`, and the next block's start."""
        block = transform(self.words(start, self._BLOCK, lane))
        return iter(array("d", block.tobytes())), start + self._BLOCK

    def normal(self, scale: float = 1.0, loc: float = 0.0) -> float:
        try:
            z = next(self._zbuf)
        except StopIteration:
            self._zbuf, self._znext = self._refill(self._znext, _NORMAL_LANE,
                                                   as_normals)
            z = next(self._zbuf)
        return loc + scale * z

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        try:
            u = next(self._ubuf)
        except StopIteration:
            self._ubuf, self._unext = self._refill(self._unext, _UNIFORM_LANE,
                                                   as_uniforms)
            u = next(self._ubuf)
        return low + (high - low) * u


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
