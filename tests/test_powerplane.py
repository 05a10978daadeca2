"""PoE sourcing: classification, budget ledger, and overdraw detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.core import PS_PER_MS, PS_PER_S
from tilesim.fabric import ConfigurationError
from tilesim.powerplane import (Denial, Grant, PdDevice, PowerClass,
                                POWER_CLASSES, PowerConfig, PsePlane, classify)

WINDOW_PS = PowerConfig.detection_window_ms * PS_PER_MS


def make_pd(tile_id="t000", cls=3, draw=3500, step=None):
    return PdDevice(tile_id, requested_class=cls, draw_mw=draw, step=step)


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
    # 11 W peak -> class 3 (13 W ceiling)
    pd = make_pd(cls=None, draw=11_000)
    assert classify(pd).class_id == 3
    tiny = make_pd(cls=None, draw=1500)
    assert classify(tiny).class_id == 1


def test_autoclass_never_picks_class_zero():
    # class 0 shares the 13 W ceiling with class 3; measurement must pick 3
    pd = make_pd(cls=None, draw=12_500)
    assert classify(pd).class_id == 3


def test_autoclass_uses_startup_window_peak():
    # a step up inside the window counts, and so does a level it steps down from
    pd = make_pd(cls=None, draw=1500, step=(PS_PER_MS * 500, 30_500))
    assert classify(pd).class_id == 5
    down = make_pd(cls=None, draw=30_500, step=(PS_PER_MS * 500, 1500))
    assert classify(down).class_id == 5
    late = make_pd(cls=None, draw=1500, step=(2 * PS_PER_S, 30_500))   # after the window
    assert classify(late).class_id == 1
    # classified later, a device is measured from that instant on
    assert classify(down, at=PS_PER_S).class_id == 1


def test_autoclass_overload_rejected():
    pd = make_pd(cls=None, draw=72_500)
    with pytest.raises(ConfigurationError, match="exceeds"):
        classify(pd)


def test_classify_while_powered_rejected():
    pd = make_pd()
    pd.online = True
    with pytest.raises(ConfigurationError, match="powered"):
        classify(pd)


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
    # the overdraw tile's processing steps to 30 W; the others never step
    assert [plane.devices[t].step for t in "ac"] == [None, None]
    assert plane.devices["b"].step == (int(1.5 * PS_PER_S), 31_000)
    assert plane.devices["b"].consumption_mw(int(1.5 * PS_PER_S) - 1) == 2200
    assert plane.devices["b"].consumption_mw(int(1.5 * PS_PER_S)) == 31_000


def test_overdraw_tile_must_be_a_powered_tile():
    with pytest.raises(ConfigurationError,
                       match="^power.overdraw_tile 'z' is not a powered tile$"):
        PsePlane(PowerConfig(overdraw_tile="z"), ["a"])


def test_device_defaults_are_the_sections():
    pd = PdDevice("a")
    assert pd == PsePlane(PowerConfig(), ["a"]).devices["a"]
    assert (pd.requested_class, pd.draw_mw, pd.step) == (
        PowerConfig.requested_class,
        PowerConfig.base_mw + PowerConfig.processing_mw + PowerConfig.peripheral_mw,
        None)


# --- consumption and overdraw -----------------------------------------------

def test_idle_floor_consumption():
    pd = PdDevice("a", requested_class=3, draw_mw=500)   # no step
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
    pd.step = (step_at, 21_000)   # 21 W vs the 13 W ceiling
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
    # over the ceiling from the grant, back under 50 ms later
    pd = make_pd("a", draw=21_000)
    plane = plane_with([pd])
    plane.allocate("a", at=PS_PER_S)
    pd.step = (PS_PER_S + 50 * PS_PER_MS, 3500)
    assert plane.find_disconnect_time(pd) is None
    assert plane.monitor(10 * PS_PER_S) == []
    assert pd.online


def test_a_step_down_to_the_ceiling_must_come_before_the_window_ends():
    # over from the grant; down to exactly the 13 W ceiling, which is not over
    for back, cut in ((WINDOW_PS - 1, None), (WINDOW_PS, WINDOW_PS)):
        pd = make_pd("a", draw=13_001, step=(PS_PER_S + back, 13_000))
        plane = plane_with([pd])
        plane.allocate("a", at=PS_PER_S)
        ev = plane.find_disconnect_time(pd)
        assert (ev and ev.at_ps - PS_PER_S) == cut


def test_pre_grant_history_does_not_count():
    # over the ceiling from t=0, tame by the grant instant
    pd = make_pd("a", draw=21_000, step=(PS_PER_S, 3500))
    plane = plane_with([pd])
    plane.allocate("a", at=2 * PS_PER_S)
    assert plane.find_disconnect_time(pd) is None


def test_regrant_after_disconnect():
    pd = make_pd("a", draw=21_000)
    plane = plane_with([pd])
    plane.allocate("a", at=0)
    (ev,) = plane.monitor(10 * PS_PER_S)
    assert ev.at_ps == WINDOW_PS
    pd.step = (12 * PS_PER_S, 3500)
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
    pd_a.step = (2 * PS_PER_S, 51_000)
    pd_b.step = (PS_PER_S, 51_000)
    fired = plane.monitor(10 * PS_PER_S)
    assert [(ev.tile_id, ev.at_ps) for ev in fired] == \
        [("b", PS_PER_S + WINDOW_PS), ("a", 2 * PS_PER_S + WINDOW_PS)]
    assert [r[1] for r in plane.ledger if r[4].startswith("disconnect")] == ["b", "a"]


def test_pending_disconnects_preview():
    pd_a, pd_b = make_pd("a"), make_pd("b")
    plane = plane_with([pd_a, pd_b])
    plane.allocate("a")
    plane.allocate("b")
    pd_b.step = (PS_PER_S, 100_000)
    pending = plane.pending_disconnects()
    assert [e.tile_id for e in pending] == ["b"]
    assert pd_b.online  # preview does not apply anything


# --- a one-step draw against a scan of every millisecond ---------------------

MS = PS_PER_MS


def scanned_class(level, at):
    """The smallest negotiated class covering the largest draw at any
    millisecond of the startup window [at, at + 1 s], or None."""
    peak = max(level(t) for t in range(at, at + PS_PER_S + 1, MS))
    return min((c for c in POWER_CLASSES.values() if c.class_id and c.pd_mw >= peak),
               key=lambda c: (c.pd_mw, c.class_id), default=None)


def scanned_disconnect(level, granted_at, limit, window, last):
    """(instant, draw) of the first run over `limit`, from the grant on,
    that lasts a full window, or None.  The draw is constant between
    milliseconds and after `last`, so the scan ends at `last` + window."""
    run = None
    for t in range(granted_at, last + window + MS, MS):
        if level(t) <= limit:
            run = None
            continue
        if run is None:
            run = t
        if t + MS - run >= window:
            return run + window, level(run)
    return None


@settings(max_examples=200, deadline=None)
@given(cls=st.sampled_from(sorted(POWER_CLASSES)), data=st.data())
def test_one_step_device_matches_a_scan_of_every_millisecond(cls, data):
    # each level anywhere, or on the class's ceiling or a milliwatt either
    # side; the step up or down, anywhere, or a millisecond from the grant
    # instant or from the end of a window after it
    limit = POWER_CLASSES[cls].pd_mw
    levels = st.integers(0, 80_000) | st.sampled_from([limit - 1, limit, limit + 1])
    instants = st.integers(0, 3000).map(MS.__mul__)
    granted_at = data.draw(instants, label="granted_at")
    window = data.draw(st.integers(0, 1500).map(MS.__mul__), label="window")
    near = [max(0, t + d) for t in (granted_at, granted_at + window) for d in (-MS, 0, MS)]
    draw = data.draw(levels, label="draw_mw")
    step = data.draw(st.none() | st.tuples(instants | st.sampled_from(near), levels),
                     label="step")

    def level(t):
        return draw if step is None or t < step[0] else step[1]

    measured = PdDevice("a", requested_class=None, draw_mw=draw, step=step)
    want = scanned_class(level, granted_at)
    if want is None:
        with pytest.raises(ConfigurationError, match="exceeds every class"):
            classify(measured, granted_at)
    else:
        assert classify(measured, granted_at) == want

    pd = PdDevice("a", requested_class=cls, draw_mw=draw, step=step)
    plane = plane_with([pd], detection_window_ms=window // MS)
    assert isinstance(plane.allocate("a", at=granted_at), Grant)
    last = granted_at if step is None else max(granted_at, step[0])
    ev = plane.find_disconnect_time(pd)
    assert (None if ev is None else (ev.at_ps, ev.over_mw)) == \
        scanned_disconnect(level, granted_at, limit, window, last)
    assert ev is None or (ev.tile_id, ev.limit_mw) == ("a", limit)


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
    pds[0].step = (PS_PER_S, 100_000)
    plane.monitor(10 * PS_PER_S)
    s = plane.summary()
    assert s["grants"] == 2
    assert s["denials"] == 1
    assert s["disconnects"] == 1
    assert s["total_granted_w"] == 90.0
    assert s["global_budget_w"] == 180.0
