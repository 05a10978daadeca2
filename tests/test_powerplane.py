"""PoE sourcing: classification, budget ledger, and overdraw detection."""

import pytest

from tilesim.core import PS_PER_MS, PS_PER_S
from tilesim.fabric import ConfigurationError
from tilesim.powerplane import (Denial, Grant, PdDevice, PowerClass,
                                POWER_CLASSES, PowerConfig, PsePlane,
                                StepSeries, classify)

WINDOW_PS = PowerConfig.detection_window_ms * PS_PER_MS


def make_pd(tile_id="t000", cls=3, base=500, processing=2500, peripheral=500):
    pd = PdDevice(tile_id, requested_class=cls, base_mw=base)
    pd.processing.set_from(0, processing)
    pd.peripheral.set_from(0, peripheral)
    return pd


def plane_with(pds, **kw):
    plane = PsePlane(PowerConfig(**kw))
    for pd in pds:
        plane.register(pd)
    return plane


# --- class table ------------------------------------------------------------

def test_class_table_values():
    assert POWER_CLASSES[1] == PowerClass(1, 3_840, 4_000)
    assert POWER_CLASSES[3] == PowerClass(3, 13_000, 15_400)
    assert POWER_CLASSES[8] == PowerClass(8, 71_300, 90_000)
    assert POWER_CLASSES[0].pd_mw == POWER_CLASSES[3].pd_mw


def test_fixed_class_maps_through_table():
    assert classify(make_pd(cls=4)).class_id == 4


def test_unknown_class_rejected():
    with pytest.raises(ConfigurationError, match="class"):
        classify(make_pd(cls=9))


def test_autoclass_picks_smallest_covering_class():
    # 0.5 W base + 10.5 W processing peak = 11 W -> class 3 (13 W ceiling)
    pd = make_pd(cls=None, processing=10_500, peripheral=0)
    assert classify(pd).class_id == 3
    tiny = make_pd(cls=None, processing=1000, peripheral=0)
    assert classify(tiny).class_id == 1


def test_autoclass_never_picks_class_zero():
    # class 0 shares the 13 W ceiling with class 3; measurement must pick 3
    pd = make_pd(cls=None, processing=12_000, peripheral=0)
    assert classify(pd).class_id == 3


def test_autoclass_uses_startup_window_peak():
    pd = make_pd(cls=None, processing=1000, peripheral=0)
    pd.processing.set_from(PS_PER_MS * 500, 30_000)    # spike inside window
    pd.processing.set_from(PS_PER_MS * 900, 1000)
    assert classify(pd).class_id == 5
    late = make_pd(cls=None, processing=1000, peripheral=0)
    late.processing.set_from(2 * PS_PER_S, 30_000)     # after the window
    assert classify(late).class_id == 1


def test_autoclass_overload_rejected():
    pd = make_pd(cls=None, processing=72_000, peripheral=0)
    with pytest.raises(ConfigurationError, match="exceeds"):
        classify(pd)


def test_classify_while_powered_rejected():
    pd = make_pd()
    pd.online = True
    with pytest.raises(ConfigurationError, match="powered"):
        classify(pd)


# --- step series ------------------------------------------------------------

def test_step_series_bisection():
    s = StepSeries(100)
    s.set_from(10, 200)
    s.set_from(20, 300)
    assert s.value_at(0) == 100
    assert s.value_at(9) == 100
    assert s.value_at(10) == 200
    assert s.value_at(25) == 300


def test_step_series_same_time_overwrites():
    s = StepSeries()
    s.set_from(10, 5)
    s.set_from(10, 7)
    assert s.value_at(10) == 7


def test_step_series_rejects_time_reversal():
    s = StepSeries()
    s.set_from(10, 5)
    with pytest.raises(ConfigurationError):
        s.set_from(9, 1)


# --- allocation -------------------------------------------------------------

def test_full_fleet_class3_fits_budget():
    pds = [make_pd(f"t{i:03d}") for i in range(140)]
    plane = plane_with(pds)
    grants = [plane.allocate(pd.tile_id) for pd in pds]
    assert all(isinstance(g, Grant) for g in grants)
    # 140 x 15.4 W of sourced power against the 9 kW plane
    assert plane.global_used_mw() == 140 * 15_400 == 2_156_000
    assert plane.global_used_mw() <= plane.global_budget_mw


def test_class8_requests_cap_at_one_hundred():
    pds = [make_pd(f"t{i:03d}", cls=8) for i in range(140)]
    plane = plane_with(pds)
    results = [plane.allocate(pd.tile_id) for pd in pds]
    grants = [r for r in results if isinstance(r, Grant)]
    denials = [r for r in results if isinstance(r, Denial)]
    # 90 W sourced each against 2.25 kW per midspan: 25 per midspan
    assert len(grants) == 100
    assert len(denials) == 40
    assert plane.global_used_mw() == 100 * 90_000
    assert plane.global_used_mw() <= plane.global_budget_mw


def test_denial_reports_remaining_budgets():
    plane = plane_with([make_pd("a", cls=8), make_pd("b", cls=8)],
                       midspan_count=1, global_budget_w=100.0)
    assert isinstance(plane.allocate("a"), Grant)
    d = plane.allocate("b")
    assert isinstance(d, Denial)
    assert d.remaining_midspan_mw == 10_000
    assert d.remaining_global_mw == 10_000
    # the failed attempt does not change the ledger totals
    assert plane.global_used_mw() == 90_000


def test_midspans_fill_round_robin():
    pds = [make_pd(f"t{i}") for i in range(8)]
    plane = plane_with(pds)
    for pd in pds:
        plane.allocate(pd.tile_id)
    assert [ms.used_mw for ms in plane.midspans] == [2 * 15_400] * 4


def test_double_grant_rejected():
    plane = plane_with([make_pd("a")])
    plane.allocate("a")
    with pytest.raises(ConfigurationError, match="granted"):
        plane.allocate("a")


def test_double_registration_rejected():
    plane = PsePlane(PowerConfig())
    plane.register(make_pd("a"))
    with pytest.raises(ConfigurationError, match="twice"):
        plane.register(make_pd("a"))


def test_plane_is_built_from_its_section():
    cfg = PowerConfig(global_budget_w=100.5, midspan_count=3, midspan_budget_w=40.25,
                      requested_class=None, base_mw=700, processing_mw=1200,
                      peripheral_mw=300, detection_window_ms=20,
                      overdraw_tile="b", overdraw_at_s=1.5, overdraw_w=30.0)
    plane = PsePlane(cfg, ["c", "a", "b"])
    assert plane.global_budget_mw == 100_500
    assert [m.budget_mw for m in plane.midspans] == [40_250] * 3
    assert plane.detection_window_ps == 20 * PS_PER_MS
    # one device a tile, registered in the given order, round robin
    assert [plane.allocate(t).midspan_id for t in "cab"] == ["ms0", "ms1", "ms2"]
    for tile in "cab":
        pd = plane.devices[tile]
        assert (pd.requested_class, pd.granted.class_id) == (None, 1)
        assert pd.consumption_mw(0) == 2200
    assert plane.devices["a"].breakpoints() == [0]
    assert plane.devices["b"].consumption_mw(int(1.5 * PS_PER_S)) == 31_000


def test_overdraw_tile_must_be_a_powered_tile():
    with pytest.raises(ConfigurationError,
                       match="^power.overdraw_tile 'z' is not a powered tile$"):
        PsePlane(PowerConfig(overdraw_tile="z"), ["a"])


def test_device_defaults_are_the_sections():
    pd = PdDevice("a")
    assert (pd.requested_class, pd.base_mw) == (PowerConfig.requested_class,
                                                PowerConfig.base_mw)


# --- consumption and overdraw -----------------------------------------------

def test_idle_floor_consumption():
    pd = PdDevice("a", requested_class=3)   # no load profiles
    plane = plane_with([pd])
    plane.allocate("a")
    assert pd.consumption_mw(0) == 500
    assert pd.consumption_mw(10 * PS_PER_S) == 500


def test_offline_device_draws_nothing():
    pd = make_pd("a")
    assert pd.consumption_mw(0) == 0


def test_overdraw_disconnect_at_exact_window_edge():
    pd = make_pd("a")
    plane = plane_with([pd])
    plane.allocate("a", at=0)
    step_at = 2 * PS_PER_S
    pd.processing.set_from(step_at, 20_000)   # 20.5 W total vs 13 W ceiling
    ev = plane.find_disconnect_time(pd)
    assert ev is not None
    assert ev.at_ps == step_at + WINDOW_PS
    assert ev.limit_mw == 13_000
    # one tick before the deadline nothing happens
    assert plane.monitor(ev.at_ps - 1) == []
    assert pd.online
    fired = plane.monitor(ev.at_ps)
    assert [e.tile_id for e in fired] == ["a"]
    assert not pd.online
    assert pd.disconnected_at == ev.at_ps
    assert plane.global_used_mw() == 0


def test_short_spike_inside_window_survives():
    pd = make_pd("a")
    plane = plane_with([pd])
    plane.allocate("a", at=0)
    spike = PS_PER_S
    pd.processing.set_from(spike, 20_000)
    pd.processing.set_from(spike + 50 * PS_PER_MS, 2500)  # back under in 50 ms
    assert plane.find_disconnect_time(pd) is None
    assert plane.monitor(10 * PS_PER_S) == []
    assert pd.online


def test_pre_grant_history_does_not_count():
    pd = make_pd("a")
    pd.processing.set_from(0, 20_000)          # over the ceiling from t=0
    pd.processing.set_from(PS_PER_S, 2500)     # tame by the grant instant
    plane = plane_with([pd])
    plane.allocate("a", at=2 * PS_PER_S)
    assert plane.find_disconnect_time(pd) is None


def test_regrant_after_disconnect():
    pd = make_pd("a")
    plane = plane_with([pd])
    plane.allocate("a", at=0)
    pd.processing.set_from(PS_PER_S, 20_000)
    (ev,) = plane.monitor(10 * PS_PER_S)
    pd.processing.set_from(12 * PS_PER_S, 2500)
    g = plane.allocate("a", at=13 * PS_PER_S)
    assert isinstance(g, Grant)
    assert pd.online
    # the old overdraw run is history; the new grant holds
    assert plane.find_disconnect_time(pd) is None


def test_one_monitor_applies_disconnects_in_time_order():
    # b overdraws first; a single late monitor lists it, and ledgers it,
    # before a, as a monitor at each cut instant would
    pd_a, pd_b = make_pd("a"), make_pd("b")
    plane = plane_with([pd_a, pd_b])
    plane.allocate("a", at=0)
    plane.allocate("b", at=0)
    pd_a.processing.set_from(2 * PS_PER_S, 50_000)
    pd_b.processing.set_from(PS_PER_S, 50_000)
    fired = plane.monitor(10 * PS_PER_S)
    assert [(ev.tile_id, ev.at_ps) for ev in fired] == \
        [("b", PS_PER_S + WINDOW_PS), ("a", 2 * PS_PER_S + WINDOW_PS)]
    assert [r[1] for r in plane.ledger if r[4].startswith("disconnect")] == ["b", "a"]


def test_pending_disconnects_preview():
    pd_a, pd_b = make_pd("a"), make_pd("b")
    plane = plane_with([pd_a, pd_b])
    plane.allocate("a")
    plane.allocate("b")
    pd_b.processing.set_from(PS_PER_S, 99_000)
    pending = plane.pending_disconnects()
    assert [e.tile_id for e in pending] == ["b"]
    assert pd_b.online  # preview does not apply anything


# --- reporting --------------------------------------------------------------

def test_ledger_csv_format(tmp_path):
    pd = make_pd("a")
    plane = plane_with([pd])
    plane.allocate("a", at=0)
    out = tmp_path / "ledger.csv"
    plane.write_ledger_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "time_ps,tile,class,consumption_w,event"
    assert lines[1] == "0,a,3,3.500,grant"


def test_summary_counts():
    pds = [make_pd(f"t{i}", cls=8) for i in range(3)]
    plane = plane_with(pds, midspan_count=1, global_budget_w=180.0)
    for pd in pds:
        plane.allocate(pd.tile_id)
    pds[0].processing.set_from(PS_PER_S, 99_000)
    plane.monitor(10 * PS_PER_S)
    s = plane.summary()
    assert s["grants"] == 2
    assert s["denials"] == 1
    assert s["disconnects"] == 1
    assert s["total_granted_w"] == 90.0
    assert s["global_budget_w"] == 180.0
