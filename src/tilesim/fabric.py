"""Room and network fabric: tile placement on mounting surfaces, and the
switch and cabling topology.

Geometry convention: the room interior is the axis-aligned box
[0, length] x [0, width] x [0, height] in metres.  Panels mount on the
structure's faces, which overhang the interior opening slightly; each face
carries its own (u, v) coordinate frame and the default face sizes are whole
multiples of the panel cell so the stock panel counts fit exactly.  Tile
rectangles are tracked in integer millimetres so overlap checks are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .core import MAX_SIM_TIME, PS_PER_S, RngStream

SURFACE_NAMES = ("wall_a", "wall_b", "floor", "ceiling")

TILE_LONG_MM = 1200
TILE_SHORT_MM = 600

FABRIC_SCHEMA_VERSION = 2

# the time root every switch's trunk runs from: the a-side of each trunk link
CENTRAL_ID = "central"


class ConfigurationError(ValueError):
    """A requested fabric cannot be built as specified."""


@dataclass(frozen=True)
class Room:
    length_m: float = 8.0
    width_m: float = 4.0
    height_m: float = 2.4

    def __post_init__(self):
        for name in ("length_m", "width_m", "height_m"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def center(self) -> tuple[float, float, float]:
        return (self.length_m / 2, self.width_m / 2, self.height_m / 2)


@dataclass(frozen=True)
class TileNode:
    id: str
    surface: str
    center: tuple[float, float, float]   # metres, room frame
    normal: tuple[float, float, float]   # unit, points into the room
    rect_mm: tuple[int, int, int, int]   # (u0, v0, u1, v1) on the owning face


@dataclass
class SwitchNode:
    id: str
    port_count: int = 48
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    attached: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Link:
    """Point-to-point cable.  Delay is symmetric unless an extra one-way
    term is set explicitly (extra_ab applies in the a -> b direction)."""
    id: str
    a: str
    b: str
    length_m: float
    base_delay_ps: int
    extra_ab_ps: int = 0
    extra_ba_ps: int = 0
    jitter_sigma_ns: float = 0.0
    jitter_shape: float = 0.5
    bandwidth_bps: int = 10_000_000_000

    def delay_ps(self, from_a: bool) -> int:
        return self.base_delay_ps + (self.extra_ab_ps if from_a else self.extra_ba_ps)


# --- surface packing -------------------------------------------------------

def _packing(u_len_m: float, v_len_m: float, count: int):
    """The `count` panel cells, made as they are iterated, of the first
    arrangement that holds them: an upright grid (short edge along u), the
    rotated grid, then each with its leftover strip filled by the other.
    A grid holds columns times rows, so a count too large is refused at once."""
    ul, vl = round(u_len_m * 1000), round(v_len_m * 1000)
    upright, rotated = (TILE_SHORT_MM, TILE_LONG_MM, 0), (TILE_LONG_MM, TILE_SHORT_MM, 0)
    capacities = []
    for grids in ([upright], [rotated],
                  [upright, (TILE_LONG_MM, TILE_SHORT_MM, vl // TILE_LONG_MM * TILE_LONG_MM)],
                  [rotated, (TILE_SHORT_MM, TILE_LONG_MM, vl // TILE_SHORT_MM * TILE_SHORT_MM)]):
        capacities.append(sum(ul // cw * ((vl - v0) // ch) for cw, ch, v0 in grids))
        if capacities[-1] >= count:
            return _cells(ul, vl, grids, count)
    raise ConfigurationError(
        f"cannot place {count} panels on a {u_len_m} x {v_len_m} m face without "
        f"overlap (capacity {max(capacities)})")


def _cells(ul: int, vl: int, grids: list, count: int):
    """The first `count` cells of grids of (cell u, cell v, first v), row-major."""
    for cw, ch, v0 in grids:
        cols = ul // cw
        n = min(count, cols * ((vl - v0) // ch))
        for k in range(n):
            r, c = divmod(k, cols)
            yield c * cw, v0 + r * ch, (c + 1) * cw, v0 + (r + 1) * ch
        count -= n


def pack_surface(u_len_m: float, v_len_m: float, count: int) -> list[tuple[int, int, int, int]]:
    """Non-overlapping panel rectangles on one face, row-major from the
    origin: the `count` cells of `_packing`, and no others."""
    return list(_packing(u_len_m, v_len_m, count))


@dataclass(frozen=True)
class _Face:
    name: str
    origin: tuple[float, float, float]
    u_axis: tuple[float, float, float]
    v_axis: tuple[float, float, float]
    normal: tuple[float, float, float]
    u_len_m: float
    v_len_m: float


# Default mounting-face sizes.  The faces belong to the support structure and
# overhang the interior opening; they are whole multiples of the panel cell:
# walls 14x2 upright cells (28 each), floor 13x4 (52), ceiling 14x3 (42-cell
# capacity, of which the stock populates 32 to land the 140-panel total).
DEFAULT_FACE_DIMS = {
    "wall_a": (8.4, 2.4),
    "wall_b": (8.4, 2.4),
    "floor": (7.8, 4.8),
    "ceiling": (8.4, 3.6),
}


def _faces(room: Room, dims: dict[str, tuple[float, float]]) -> dict[str, _Face]:
    L, W, H = room.length_m, room.width_m, room.height_m
    f = {}
    ua, va = dims["wall_a"]
    f["wall_a"] = _Face("wall_a", ((L - ua) / 2, 0.0, (H - va) / 2),
                        (1, 0, 0), (0, 0, 1), (0, 1, 0), ua, va)
    ub, vb = dims["wall_b"]
    f["wall_b"] = _Face("wall_b", ((L - ub) / 2, W, (H - vb) / 2),
                        (1, 0, 0), (0, 0, 1), (0, -1, 0), ub, vb)
    uf, vf = dims["floor"]
    f["floor"] = _Face("floor", ((L - uf) / 2, (W - vf) / 2, 0.0),
                       (1, 0, 0), (0, 1, 0), (0, 0, 1), uf, vf)
    uc, vc = dims["ceiling"]
    f["ceiling"] = _Face("ceiling", ((L - uc) / 2, (W - vc) / 2, H),
                         (1, 0, 0), (0, 1, 0), (0, 0, -1), uc, vc)
    return f


# --- fabric ----------------------------------------------------------------

@dataclass
class FabricConfig:
    room: Room = field(default_factory=Room)
    counts: dict = field(default_factory=lambda: {
        "wall_a": 28, "wall_b": 28, "floor": 52, "ceiling": 32})
    face_dims: dict = field(default_factory=dict)   # overrides of DEFAULT_FACE_DIMS
    switch_count: int = 4
    switch_ports: int = 48
    max_tile_connections: int = 192
    prop_ns_per_m: float = 5.0
    slack_m: float = 2.0
    cable_model: str = "manhattan"      # manhattan | uniform | fixed
    cable_min_m: float = 1.0
    cable_max_m: float = 40.0
    cable_fixed_m: float = 10.0
    tile_jitter_sigma_ns: float = 100.0
    trunk_jitter_sigma_ns: float = 20.0
    jitter_shape: float = 0.5
    bandwidth_bps: int = 10_000_000_000


class Fabric:
    def __init__(self, config: FabricConfig, tiles: dict[str, TileNode],
                 switches: dict[str, SwitchNode], links: dict[str, Link]):
        self.config = config
        self.room = config.room
        self.tiles = tiles
        self.switches = switches
        self.links = links
        self._tile_switch = {t: sw.id for sw in switches.values() for t in sw.attached}
        self._tile_link = {lk.b: lk.id for lk in links.values() if lk.b in tiles}
        self._trunk = {lk.b: lk.id for lk in links.values() if lk.b in switches}

    def switch_for_tile(self, tile_id: str) -> str:
        return self._tile_switch[tile_id]

    def tile_link(self, tile_id: str) -> Link:
        return self.links[self._tile_link[tile_id]]

    def trunk_link(self, switch_id: str) -> Link:
        return self.links[self._trunk[switch_id]]

    def with_link_overrides(self, overrides: dict[str, dict]) -> "Fabric":
        """New fabric with per-link field replacements (asymmetry injection etc.)."""
        links = dict(self.links)
        for link_id, fields in overrides.items():
            if link_id not in links:
                raise ConfigurationError(f"unknown link {link_id!r}")
            links[link_id] = replace(links[link_id], **fields)
        return Fabric(self.config, self.tiles, self.switches, links)

    # -- validation --

    def validate(self) -> list[str]:
        """All constraint violations, empty when the fabric is well formed."""
        problems: list[str] = []
        by_surface: dict[str, list[TileNode]] = {}
        for t in self.tiles.values():
            by_surface.setdefault(t.surface, []).append(t)
        faces = _faces(self.room, {**DEFAULT_FACE_DIMS, **self.config.face_dims})
        for surface, tiles in sorted(by_surface.items()):
            face = faces[surface]
            ul, vl = round(face.u_len_m * 1000), round(face.v_len_m * 1000)
            for t in tiles:
                u0, v0, u1, v1 = t.rect_mm
                if u0 < 0 or v0 < 0 or u1 > ul or v1 > vl:
                    problems.append(f"{t.id}: footprint leaves the {surface} face")
                n = t.normal
                norm = math.sqrt(n[0]**2 + n[1]**2 + n[2]**2)
                if abs(norm - 1.0) > 1e-9:
                    problems.append(f"{t.id}: normal is not unit length")
                c = self.room.center
                inward = sum(n[i] * (c[i] - t.center[i]) for i in range(3))
                if inward <= 0:
                    problems.append(f"{t.id}: normal does not point into the room")
            tiles = sorted(tiles, key=lambda t: t.id)
            for i in range(len(tiles)):
                a = tiles[i].rect_mm
                for j in range(i + 1, len(tiles)):
                    b = tiles[j].rect_mm
                    if a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]:
                        problems.append(
                            f"overlap on {surface}: {tiles[i].id} and {tiles[j].id}")
        for sw in self.switches.values():
            used = len(sw.attached) + 1   # one uplink port to the central node
            if used > sw.port_count:
                problems.append(f"{sw.id}: {used} ports used, only {sw.port_count} fitted")
        n_conn = sum(len(sw.attached) for sw in self.switches.values())
        if n_conn > self.config.max_tile_connections:
            problems.append(
                f"{n_conn} tile connections exceed the fabric limit "
                f"{self.config.max_tile_connections}")
        return problems

    # -- serialization --

    def to_json_dict(self) -> dict:
        return {
            "schema_version": FABRIC_SCHEMA_VERSION,
            "room": {"length_m": self.room.length_m, "width_m": self.room.width_m,
                     "height_m": self.room.height_m},
            "central_id": CENTRAL_ID,
            "tiles": [{"id": t.id, "surface": t.surface, "center": list(t.center),
                       "normal": list(t.normal), "rect_mm": list(t.rect_mm)}
                      for t in self.tiles.values()],
            "switches": [{"id": s.id, "port_count": s.port_count,
                          "position": list(s.position),
                          "attached": list(s.attached)} for s in self.switches.values()],
            "links": [{"id": l.id, "a": l.a, "b": l.b, "length_m": l.length_m,
                       "base_delay_ps": l.base_delay_ps,
                       "extra_ab_ps": l.extra_ab_ps, "extra_ba_ps": l.extra_ba_ps,
                       "jitter_sigma_ns": l.jitter_sigma_ns,
                       "jitter_shape": l.jitter_shape,
                       "bandwidth_bps": l.bandwidth_bps} for l in self.links.values()],
        }

    def export_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=1, sort_keys=True)
            f.write("\n")


def _cable_length_m(cfg: FabricConfig, tile: TileNode, sw: SwitchNode,
                    rng: RngStream | None) -> float:
    if cfg.cable_model == "manhattan":
        d = sum(abs(tile.center[i] - sw.position[i]) for i in range(3))
        return round(d + cfg.slack_m, 4)
    if cfg.cable_model == "uniform":
        return round(rng.uniform(cfg.cable_min_m, cfg.cable_max_m), 4)
    return cfg.cable_fixed_m


def _delay_ps(length_m: float, prop_ns_per_m: float) -> int:
    delay = length_m * prop_ns_per_m * 1000
    if not delay <= MAX_SIM_TIME:
        raise ConfigurationError(
            f"fabric.prop_ns_per_m {prop_ns_per_m:g} ns/m over a {length_m:g} m "
            f"cable is a delay past {MAX_SIM_TIME / PS_PER_S:g} s")
    return int(round(delay))


def build_default_fabric(config: FabricConfig | None = None,
                         rng: RngStream | None = None) -> Fabric:
    """Construct tiles, switches and cabling from a config.

    Tiles are laid out surface by surface (wall_a, wall_b, floor, ceiling),
    ids assigned in placement order, and attached to switches round-robin by
    tile index.  Cable length defaults to the Manhattan run from tile centre
    to switch plus fixed slack; base delay is length times the propagation
    constant, kept in integer picoseconds.  Every limit is checked from the
    config before a tile is made, so what it returns passes `Fabric.validate`.
    """
    cfg = config or FabricConfig()
    for k in cfg.counts:
        if k not in SURFACE_NAMES:
            raise ConfigurationError(f"unknown surface {k!r}")
    if cfg.cable_model not in ("manhattan", "uniform", "fixed"):
        raise ConfigurationError(f"unknown cable model {cfg.cable_model!r}")
    if cfg.cable_model == "uniform" and rng is None:
        raise ConfigurationError("uniform cable model needs a random stream")
    faces = _faces(cfg.room, {**DEFAULT_FACE_DIMS, **cfg.face_dims})
    packings = {}
    for surface, face in faces.items():
        try:
            packings[surface] = _packing(face.u_len_m, face.v_len_m,
                                         int(cfg.counts.get(surface, 0)))
        except ConfigurationError as e:
            raise ConfigurationError(f"{surface}: {e}") from None

    if cfg.switch_count < 1:
        raise ConfigurationError("at least one switch is required")
    switches = {}
    for k in range(cfg.switch_count):
        switches[f"sw{k}"] = SwitchNode(
            f"sw{k}", cfg.switch_ports, position=(0.3, 0.2 + 0.2 * k, 1.0))

    links: dict[str, Link] = {}
    central_pos = (0.1, 0.1, 1.0)
    for k, sw in enumerate(switches.values()):
        d = sum(abs(central_pos[i] - sw.position[i]) for i in range(3))
        length = round(d + cfg.slack_m, 4)
        links[f"trunk_sw{k}"] = Link(
            f"trunk_sw{k}", CENTRAL_ID, sw.id, length,
            _delay_ps(length, cfg.prop_ns_per_m),
            jitter_sigma_ns=cfg.trunk_jitter_sigma_ns,
            jitter_shape=cfg.jitter_shape, bandwidth_bps=cfg.bandwidth_bps)

    # tile i takes port i // switch_count + 1 of its switch, after the
    # uplink, so the first tile past a switch's ports is on sw0
    n_tiles = sum(int(n) for n in cfg.counts.values())
    first_full = max(0, cfg.switch_ports - 1) * cfg.switch_count
    if n_tiles > first_full:
        raise ConfigurationError(f"sw0: out of ports for t{first_full:03d}")
    if cfg.switch_ports < 1:
        raise ConfigurationError("a switch needs a port for its uplink")
    if n_tiles > cfg.max_tile_connections:
        raise ConfigurationError(
            f"{n_tiles} tile connections exceed the limit {cfg.max_tile_connections}")

    tiles: dict[str, TileNode] = {}
    sw_list = list(switches.values())
    for surface, cells in packings.items():
        face = faces[surface]
        o, ua, va = face.origin, face.u_axis, face.v_axis
        for rect in cells:
            cu = (rect[0] + rect[2]) / 2000.0
            cv = (rect[1] + rect[3]) / 2000.0
            center = tuple(round(o[i] + ua[i] * cu + va[i] * cv, 6) for i in range(3))
            sw = sw_list[len(tiles) % len(sw_list)]
            tile_id = f"t{len(tiles):03d}"
            tile = tiles[tile_id] = TileNode(tile_id, surface, center, face.normal, rect)
            length = _cable_length_m(cfg, tile, sw, rng)
            links[f"link_{tile.id}"] = Link(
                f"link_{tile.id}", sw.id, tile.id, length,
                _delay_ps(length, cfg.prop_ns_per_m),
                jitter_sigma_ns=cfg.tile_jitter_sigma_ns,
                jitter_shape=cfg.jitter_shape, bandwidth_bps=cfg.bandwidth_bps)
            sw.attached.append(tile.id)
    return Fabric(cfg, tiles, switches, links)
