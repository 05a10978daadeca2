"""Room geometry, panel packing and cabling."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilesim.core import RngStream
from tilesim.fabric import (SURFACE_NAMES, TILE_LONG_MM, TILE_SHORT_MM,
                            ConfigurationError, Fabric, FabricConfig, Link,
                            Room, TileNode, build_default_fabric, pack_surface)


@pytest.fixture(scope="module")
def fabric():
    return build_default_fabric()


# --- default build ----------------------------------------------------------

def test_default_fleet_size(fabric):
    assert len(fabric.tiles) == 140
    assert len(fabric.switches) == 4
    assert len(fabric.links) == 140 + 4


def test_default_build_is_valid(fabric):
    assert fabric.validate() == []


def test_surface_populations(fabric):
    counts = {}
    for t in fabric.tiles.values():
        counts[t.surface] = counts.get(t.surface, 0) + 1
    assert counts == {"wall_a": 28, "wall_b": 28, "floor": 52, "ceiling": 32}


def test_tile_ids_are_dense(fabric):
    assert sorted(fabric.tiles) == [f"t{i:03d}" for i in range(140)]


def test_normals_point_into_the_room(fabric):
    room = fabric.room
    for t in fabric.tiles.values():
        if t.surface == "floor":
            assert t.normal == (0, 0, 1) and t.center[2] == 0.0
        elif t.surface == "ceiling":
            assert t.normal == (0, 0, -1) and t.center[2] == room.height_m
        elif t.surface == "wall_a":
            assert t.normal == (0, 1, 0) and t.center[1] == 0.0
        else:
            assert t.normal == (0, -1, 0) and t.center[1] == room.width_m


def test_first_wall_tile_placement(fabric):
    # wall face is 8.4 m wide, centred on the 8 m room: origin x = -0.2;
    # first upright cell is 0.6 x 1.2 starting at the face origin
    tile = fabric.tiles["t000"]
    assert tile.center == (0.1, 0.0, 0.6)
    assert tile.normal == (0, 1, 0)


def test_round_robin_switch_attachment(fabric):
    assert fabric.switch_for_tile("t000") == "sw0"
    assert fabric.switch_for_tile("t001") == "sw1"
    assert fabric.switch_for_tile("t002") == "sw2"
    assert fabric.switch_for_tile("t003") == "sw3"
    assert fabric.switch_for_tile("t004") == "sw0"
    for sw in fabric.switches.values():
        assert len(sw.attached) == 35
        assert len(sw.attached) + 1 <= sw.port_count


# --- packing ----------------------------------------------------------------

def test_wall_face_packs_exactly():
    cells = pack_surface(8.4, 2.4, 28)
    assert len(cells) == 28
    seen = set()
    for u0, v0, u1, v1 in cells:
        assert (u1 - u0, v1 - v0) in {(600, 1200), (1200, 600)}
        assert 0 <= u0 < u1 <= 8400 and 0 <= v0 < v1 <= 2400
        seen.add((u0, v0))
    assert len(seen) == 28


def test_wall_face_capacity_limit():
    with pytest.raises(ConfigurationError, match="capacity 28"):
        pack_surface(8.4, 2.4, 29)


def test_floor_face_packs_exactly():
    assert len(pack_surface(7.8, 4.8, 52)) == 52


def test_ceiling_face_has_headroom():
    assert len(pack_surface(8.4, 3.6, 42)) == 42
    with pytest.raises(ConfigurationError):
        pack_surface(8.4, 3.6, 43)


def test_pack_zero_is_empty():
    assert pack_surface(8.4, 2.4, 0) == []


def test_packed_cells_never_overlap():
    cells = pack_surface(7.8, 4.8, 52)
    for i in range(len(cells)):
        a = cells[i]
        for j in range(i + 1, len(cells)):
            b = cells[j]
            assert not (a[0] < b[2] and b[0] < a[2]
                        and a[1] < b[3] and b[1] < a[3])


def _grid_cells(ul, vl, cw, ch, v0=0):
    cells = []
    for r in range((vl - v0) // ch):
        for c in range(ul // cw):
            u0, vv0 = c * cw, v0 + r * ch
            cells.append((u0, vv0, u0 + cw, vv0 + ch))
    return cells


def reference_pack_surface(u_len_m, v_len_m, count):
    """Every cell of each arrangement made as a list, the first that holds
    `count` cut to it: the packing as it was before its capacity was
    worked out in closed form."""
    ul = round(u_len_m * 1000)
    vl = round(v_len_m * 1000)
    if count == 0:
        return []
    arrangements = [
        _grid_cells(ul, vl, TILE_SHORT_MM, TILE_LONG_MM),
        _grid_cells(ul, vl, TILE_LONG_MM, TILE_SHORT_MM),
    ]
    strip = (vl // TILE_LONG_MM) * TILE_LONG_MM
    arrangements.append(arrangements[0] + _grid_cells(ul, vl, TILE_LONG_MM, TILE_SHORT_MM, v0=strip))
    strip = (vl // TILE_SHORT_MM) * TILE_SHORT_MM
    arrangements.append(arrangements[1] + _grid_cells(ul, vl, TILE_SHORT_MM, TILE_LONG_MM, v0=strip))
    for cells in arrangements:
        if len(cells) >= count:
            return cells[:count]
    best = max(len(c) for c in arrangements)
    raise ConfigurationError(
        f"cannot place {count} panels on a {u_len_m} x {v_len_m} m face without "
        f"overlap (capacity {best})")


def packed(pack, *args):
    try:
        return pack(*args)
    except ConfigurationError as e:
        return str(e)


# a face side in metres: any, or a whole number of cells, or half a
# millimetre off one
SIDE_M = st.one_of(st.floats(1e-4, 12.0), st.builds(
    lambda k, off: k * 0.6 + off, st.integers(1, 20), st.sampled_from([-5e-4, 0, 5e-4])))


@settings(max_examples=300, deadline=None)
@given(SIDE_M, SIDE_M, st.integers(0, 150))
@example(3.0, 1.8, 7)       # 5 upright cells, then 2 rotated in the strip
@example(3.0, 1.8, 8)
@example(8.4, 3.6, 43)
@example(0.0004, 2.4, 0)
def test_pack_surface_equals_the_list_building_reference(u_len_m, v_len_m, count):
    assert packed(pack_surface, u_len_m, v_len_m, count) == packed(
        reference_pack_surface, u_len_m, v_len_m, count)


@settings(max_examples=150, deadline=None)
@given(counts=st.dictionaries(st.sampled_from(SURFACE_NAMES), st.integers(0, 45)),
       face_dims=st.dictionaries(st.sampled_from(SURFACE_NAMES),
                                 st.tuples(SIDE_M, SIDE_M)),
       room=st.tuples(*[st.floats(1e-6, 20.0)] * 3),
       switch_count=st.integers(0, 6), switch_ports=st.integers(0, 40),
       max_tile_connections=st.integers(0, 200))
def test_a_built_fabric_passes_its_validation(counts, face_dims, room, switch_count,
                                              switch_ports, max_tile_connections):
    # the builder checks every limit before it makes a tile, so what it
    # returns needs no validation pass; `prepare_scenario` runs none
    cfg = FabricConfig(room=Room(*room), counts=counts, face_dims=face_dims,
                       switch_count=switch_count, switch_ports=switch_ports,
                       max_tile_connections=max_tile_connections)
    try:
        fabric = build_default_fabric(cfg)
    except ConfigurationError:
        return
    assert fabric.validate() == []


@pytest.mark.parametrize("fabric,message", [
    # 12.5 million cells on the face, of which 10 million are asked for
    ({"counts": {"floor": 10**7}, "face_dims": {"floor": (3000, 3000)},
      "switch_ports": 10**7},
     "10000000 tile connections exceed the limit 192"),
    ({"counts": {"floor": 40}, "switch_count": 2, "switch_ports": 8},
     "sw0: out of ports for t014"),
    ({"counts": {"floor": 40}, "switch_ports": 1}, "sw0: out of ports for t000"),
    ({"counts": {}, "switch_ports": 0}, "a switch needs a port for its uplink"),
    ({"switch_count": 0}, "at least one switch is required"),
])
def test_limits_are_refused_before_a_tile_is_made(fabric, message):
    with mock.patch("tilesim.fabric.TileNode", side_effect=AssertionError("a tile")), \
            pytest.raises(ConfigurationError) as refusal:
        build_default_fabric(FabricConfig(**fabric))
    assert str(refusal.value) == message


def test_validator_reports_overlap():
    small = build_default_fabric(FabricConfig(counts={"wall_a": 2}, switch_count=1))
    t0 = small.tiles["t000"]
    clash = dataclasses.replace(small.tiles["t001"], rect_mm=t0.rect_mm,
                                center=t0.center)
    tiles = dict(small.tiles)
    tiles["t001"] = clash
    broken = Fabric(small.config, tiles, small.switches, small.links)
    assert any("overlap" in p for p in broken.validate())


def test_validator_reports_port_exhaustion():
    cfg = FabricConfig(counts={"wall_a": 10}, switch_count=1, switch_ports=8)
    with pytest.raises(ConfigurationError, match="ports"):
        build_default_fabric(cfg)


def test_connection_limit_enforced():
    cfg = FabricConfig(counts={"floor": 20}, switch_count=4,
                       max_tile_connections=16)
    with pytest.raises(ConfigurationError, match="connections"):
        build_default_fabric(cfg)


# --- cabling ----------------------------------------------------------------

def test_manhattan_cable_delay_exact(fabric):
    # t000 centre (0.1, 0, 0.6) to sw0 at (0.3, 0.2, 1.0): run 0.8 m + 2 m
    # slack = 2.8 m; at 5 ns/m that is exactly 14 ns
    link = fabric.tile_link("t000")
    assert link.length_m == 2.8
    assert link.base_delay_ps == 14_000
    assert link.delay_ps(from_a=True) == link.delay_ps(from_a=False)


def test_uniform_cable_model_needs_stream():
    cfg = FabricConfig(counts={"wall_a": 4}, cable_model="uniform")
    with pytest.raises(ConfigurationError, match="stream"):
        build_default_fabric(cfg)
    fab = build_default_fabric(cfg, rng=RngStream(1, "cables"))
    for t in fab.tiles:
        assert 1.0 <= fab.tile_link(t).length_m <= 40.0


def test_fixed_cable_model():
    cfg = FabricConfig(counts={"wall_a": 2}, cable_fixed_m=10.0,
                       cable_model="fixed")
    fab = build_default_fabric(cfg)
    assert fab.tile_link("t000").base_delay_ps == 50_000


def test_unknown_cable_model_rejected():
    cfg = FabricConfig(counts={"wall_a": 1}, cable_model="psychic")
    with pytest.raises(ConfigurationError, match="cable model"):
        build_default_fabric(cfg)


def test_link_asymmetry_override(fabric):
    fab2 = fabric.with_link_overrides({"link_t000": {"extra_ab_ps": 100}})
    lk = fab2.tile_link("t000")
    assert lk.delay_ps(from_a=True) == lk.base_delay_ps + 100
    assert lk.delay_ps(from_a=False) == lk.base_delay_ps
    # source fabric untouched
    assert fabric.tile_link("t000").extra_ab_ps == 0


def test_link_override_unknown_link(fabric):
    with pytest.raises(ConfigurationError):
        fabric.with_link_overrides({"no_such_link": {"extra_ab_ps": 1}})


def test_trunk_links_present(fabric):
    for k in range(4):
        lk = fabric.trunk_link(f"sw{k}")
        assert lk.a == "central" and lk.b == f"sw{k}"
        assert lk.base_delay_ps > 0


# --- room -------------------------------------------------------------------

def test_room_rejects_nonpositive_dimensions():
    with pytest.raises(ConfigurationError):
        Room(length_m=0.0)


def test_unknown_surface_rejected():
    with pytest.raises(ConfigurationError, match="surface"):
        build_default_fabric(FabricConfig(counts={"roof": 1}))
