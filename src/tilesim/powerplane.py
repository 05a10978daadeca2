"""Power-over-Ethernet budgeting for the tile fleet.

All power figures are integer milliwatts so budget arithmetic is exact.
Each tile is a powered device that draws one level from time 0 and takes
at most one step, up or down, to another: the section's steady draw (its
controller floor, processing and peripheral parts summed) and, for the
overdraw tile, the step its fault injects.  Source-side allocations are
charged against per-midspan budgets and a global budget; sustained draw
above the granted class power disconnects the device after a detection
window, and a disconnected tile stops producing anything until it is
re-admitted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

from .core import PS_PER_MS, PS_PER_S, SimTime, from_seconds
from .fabric import ConfigurationError

MW_PER_W = 1000
STARTUP_WINDOW_PS = PS_PER_S   # classification by measurement takes its peak


@dataclass
class PowerConfig:
    enabled: bool = True
    global_budget_w: float = 9000.0
    midspan_count: int = 4
    midspan_budget_w: float | None = None   # None → equal split of the global
    requested_class: int | None = 3         # None → classify from measured draw
    base_mw: int = 500
    processing_mw: int = 2500               # steady processing draw
    peripheral_mw: int = 500                # steady peripheral draw
    detection_window_ms: int = 75
    overdraw_tile: str | None = None        # fault injection: one greedy tile
    overdraw_at_s: float = 10.0
    overdraw_w: float = 20.0


def _mw(watts: float) -> int:
    return int(round(watts * MW_PER_W))


@dataclass(frozen=True)
class PowerClass:
    class_id: int
    pd_mw: int    # power the device may draw
    pse_mw: int   # source-side allocation charged to budgets


POWER_CLASSES: dict[int, PowerClass] = {
    0: PowerClass(0, 13_000, 15_400),
    1: PowerClass(1, 3_840, 4_000),
    2: PowerClass(2, 6_490, 7_000),
    3: PowerClass(3, 13_000, 15_400),
    4: PowerClass(4, 25_500, 30_000),
    5: PowerClass(5, 40_000, 45_000),
    6: PowerClass(6, 51_000, 60_000),
    7: PowerClass(7, 62_000, 75_000),
    8: PowerClass(8, 71_300, 90_000),
}

# negotiated classes in ascending device-power order; the legacy class 0 is
# only ever assigned explicitly, never by measurement
_AUTOCLASS_ORDER = sorted((c for c in POWER_CLASSES.values() if c.class_id != 0),
                          key=lambda c: (c.pd_mw, c.class_id))


@dataclass
class PdDevice:
    """A powered device: it draws `draw_mw` from time 0 and, once `step` is
    set to (step_at, step_mw), `step_mw` from step_at on.  The defaults are
    a default power section's device."""
    tile_id: str
    requested_class: int | None = PowerConfig.requested_class
    draw_mw: int = (PowerConfig.base_mw + PowerConfig.processing_mw
                    + PowerConfig.peripheral_mw)
    step: tuple[SimTime, int] | None = None
    granted: PowerClass | None = None
    granted_at: SimTime = 0
    online: bool = False
    disconnected_at: SimTime | None = None

    def consumption_mw(self, t: SimTime) -> int:
        return self._draw_if_powered(t) if self.online else 0

    def _draw_if_powered(self, t: SimTime) -> int:
        if self.step is None or t < self.step[0]:
            return self.draw_mw
        return self.step[1]


def classify(pd: PdDevice, at: SimTime = 0) -> PowerClass:
    """Pick the device's power class before it is energized.

    A fixed request maps straight through the table; measurement-based
    classification takes the peak draw over the startup window, which for
    a draw of one step lies at one of the window's two ends, and picks the
    smallest negotiated class that covers it.
    """
    if pd.online:
        raise ConfigurationError(f"{pd.tile_id}: classify while powered")
    if pd.requested_class is not None:
        try:
            return POWER_CLASSES[pd.requested_class]
        except KeyError:
            raise ConfigurationError(
                f"{pd.tile_id}: no power class {pd.requested_class}") from None
    peak = max(pd._draw_if_powered(at), pd._draw_if_powered(at + STARTUP_WINDOW_PS))
    for cls in _AUTOCLASS_ORDER:
        if cls.pd_mw >= peak:
            return cls
    raise ConfigurationError(
        f"{pd.tile_id}: startup draw {peak} mW exceeds every class")


@dataclass(frozen=True)
class Grant:
    tile_id: str
    power_class: PowerClass
    midspan_id: str


@dataclass(frozen=True)
class Denial:
    tile_id: str
    power_class: PowerClass
    midspan_id: str
    remaining_midspan_mw: int
    remaining_global_mw: int


@dataclass(frozen=True)
class DisconnectEvent:
    tile_id: str
    at_ps: SimTime
    over_mw: int
    limit_mw: int


@dataclass
class Midspan:
    id: str
    budget_mw: int
    used_mw: int = 0


class PsePlane:
    """Sourcing side: midspans, budgets, the allocation ledger and the
    consumption monitor, built from a power section.  Each of `tile_ids`
    gets a powered device drawing the section's steady sum, registered in
    that order, and the section's overdraw tile its step: processing at
    `overdraw_w` from `overdraw_at_s` on."""

    def __init__(self, config: PowerConfig, tile_ids: Iterable[str] = ()):
        if config.midspan_count < 1:
            raise ConfigurationError("at least one midspan is required")
        self.global_budget_mw = _mw(config.global_budget_w)
        per = self.global_budget_mw // config.midspan_count \
            if config.midspan_budget_w is None else _mw(config.midspan_budget_w)
        self.midspans = [Midspan(f"ms{i}", per) for i in range(config.midspan_count)]
        self.detection_window_ps = config.detection_window_ms * PS_PER_MS
        self.devices: dict[str, PdDevice] = {}
        self._midspan_of: dict[str, Midspan] = {}
        self.ledger: list[tuple] = []   # (t, tile, class_id, consumption_mw, event)
        others = config.base_mw + config.peripheral_mw   # the draw besides processing
        for tile_id in tile_ids:
            self.register(PdDevice(tile_id, config.requested_class,
                                   others + config.processing_mw))
        if config.overdraw_tile is not None:
            if config.overdraw_tile not in self.devices:
                raise ConfigurationError(
                    f"power.overdraw_tile {config.overdraw_tile!r} is not a powered tile")
            self.devices[config.overdraw_tile].step = (
                from_seconds(config.overdraw_at_s), others + _mw(config.overdraw_w))

    # -- registration / allocation --

    def register(self, pd: PdDevice) -> None:
        if pd.tile_id in self.devices:
            raise ConfigurationError(f"{pd.tile_id}: registered twice")
        self.devices[pd.tile_id] = pd
        self._midspan_of[pd.tile_id] = \
            self.midspans[(len(self.devices) - 1) % len(self.midspans)]

    def global_used_mw(self) -> int:
        return sum(ms.used_mw for ms in self.midspans)

    def allocate(self, tile_id: str, at: SimTime = 0) -> Grant | Denial:
        pd = self.devices[tile_id]
        if pd.granted is not None:
            raise ConfigurationError(f"{tile_id}: already granted")
        cls = classify(pd, at)
        ms = self._midspan_of[tile_id]
        rem_ms = ms.budget_mw - ms.used_mw
        rem_gl = self.global_budget_mw - self.global_used_mw()
        if cls.pse_mw > rem_ms or cls.pse_mw > rem_gl:
            self.ledger.append((at, tile_id, cls.class_id, 0, "deny"))
            return Denial(tile_id, cls, ms.id, rem_ms, rem_gl)
        ms.used_mw += cls.pse_mw
        pd.granted = cls
        pd.granted_at = at
        pd.online = True
        pd.disconnected_at = None
        self.ledger.append((at, tile_id, cls.class_id, pd.consumption_mw(at), "grant"))
        return Grant(tile_id, cls, ms.id)

    def disconnect(self, tile_id: str, at: SimTime) -> None:
        """Drop an online device's grant and mark it offline.  A run applies
        each cut at set-up, by `monitor`, whose return its stages read."""
        pd = self.devices[tile_id]
        if not pd.online:
            return
        ms = self._midspan_of[tile_id]
        ms.used_mw -= pd.granted.pse_mw
        self.ledger.append((at, tile_id, pd.granted.class_id,
                            pd.consumption_mw(at), "disconnect:overdraw"))
        pd.granted = None
        pd.online = False
        pd.disconnected_at = at

    # -- monitoring --

    def find_disconnect_time(self, pd: PdDevice) -> DisconnectEvent | None:
        """Earliest instant the device has been over its grant for a full
        detection window: from the grant instant, or from a later step up,
        unless a step down comes first.  Draw before the grant instant
        cannot count against this grant."""
        if pd.granted is None:
            return None
        limit, start = pd.granted.pd_mw, pd.granted_at
        later = pd.step is not None and pd.step[0] > start
        if pd._draw_if_powered(start) <= limit:
            if not later or pd.step[1] <= limit:
                return None
            start = pd.step[0]
        elif later and pd.step[0] - start < self.detection_window_ps \
                and pd.step[1] <= limit:
            return None
        return DisconnectEvent(pd.tile_id, start + self.detection_window_ps,
                               pd._draw_if_powered(start), limit)

    def monitor(self, true_time: SimTime) -> list[DisconnectEvent]:
        """Apply every disconnect that has come due by true_time, in
        (instant, tile) order, so the ledger does not depend on how often
        the monitor runs."""
        fired = sorted((ev for ev in self.pending_disconnects() if ev.at_ps <= true_time),
                       key=lambda ev: ev.at_ps)
        for ev in fired:
            self.disconnect(ev.tile_id, ev.at_ps)
        return fired

    def pending_disconnects(self) -> list[DisconnectEvent]:
        """Disconnects implied by the profiles as currently known."""
        out = []
        for tile_id in sorted(self.devices):
            pd = self.devices[tile_id]
            if pd.online:
                ev = self.find_disconnect_time(pd)
                if ev is not None:
                    out.append(ev)
        return out

    # -- artifacts --

    def write_ledger_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["time_ps", "tile", "class", "consumption_w", "event"])
            for t, tile, cls, mw, event in self.ledger:
                w.writerow([t, tile, cls, "%.3f" % (mw / MW_PER_W), event])

    def summary(self) -> dict:
        grants = sum(1 for r in self.ledger if r[4] == "grant")
        denials = sum(1 for r in self.ledger if r[4] == "deny")
        disconnects = sum(1 for r in self.ledger if r[4].startswith("disconnect"))
        return {
            "total_granted_w": self.global_used_mw() / MW_PER_W,
            "global_budget_w": self.global_budget_mw / MW_PER_W,
            "midspans": [{"id": m.id, "budget_w": m.budget_mw / MW_PER_W,
                          "used_w": m.used_mw / MW_PER_W} for m in self.midspans],
            "grants": grants,
            "denials": denials,
            "disconnects": disconnects,
        }
