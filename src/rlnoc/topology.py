"""Multi-ring grid topologies: cores, unidirectional rings and shortest-hop routing.

A topology is a 2D grid of cores (one switch per core) connected by a set of
directed rings. Packets never change rings, so every ordered pair of cores
must share at least one ring. Routing picks, per (source, destination) pair,
the ring that reaches the destination in the fewest hops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple


class Coord(NamedTuple):
    """Grid position of a core and its switch (column, row), row 0 at the top."""

    col: int
    row: int


class TopologyError(ValueError):
    """A topology, or a topology file, breaks a rule; the message names the rule."""


@dataclass(frozen=True)
class Ring:
    """A directed ring: an ordered cyclic sequence of switches.

    Direction is encoded purely by the switch order (the last switch wraps to
    the first). ``buffer_capacity`` is an optional per-ring override of the
    packet-buffer size; when absent the capacity defaults to the largest
    packet assigned to the ring by the flowset under analysis.
    """

    id: int
    switches: tuple[Coord, ...]
    buffer_capacity: int | None = None

    @property
    def size(self) -> int:
        return len(self.switches)

    @cached_property
    def _positions(self) -> dict[Coord, int]:
        return {coord: pos for pos, coord in enumerate(self.switches)}

    # A Coord argument is looked up as it is; any other is wrapped first.
    def __contains__(self, coord) -> bool:
        return (coord if type(coord) is Coord else Coord(*coord)) in self._positions

    def position(self, coord) -> int:
        if type(coord) is not Coord:
            coord = Coord(*coord)
        try:
            return self._positions[coord]
        except KeyError:
            raise TopologyError(f"switch {tuple(coord)} is not on ring {self.id}") from None

    def hops(self, src, dst) -> int:
        """Number of ring links crossed from src's switch to dst's switch."""
        return (self.position(dst) - self.position(src)) % len(self.switches)


@dataclass(frozen=True)
class Topology:
    """Immutable grid-plus-rings layout. Construction checks every invariant,
    so every instance is valid; routes are derived on first lookup."""

    width: int
    height: int
    rings: tuple[Ring, ...]

    def __post_init__(self) -> None:
        rings = tuple(self.rings)
        _check_grid(self.width, self.height)
        ids = [ring.id for ring in rings]
        if not all(map(_is_int, ids)):
            raise TopologyError("ring is missing an integer 'id'")
        if len(set(ids)) != len(ids):
            raise TopologyError("ring ids must be unique")
        for ring in rings:
            _validate_ring(ring, self.width, self.height)
        object.__setattr__(self, "rings", rings)
        _check_connectivity(self.width, self.height, self._rings_at)

    @cached_property
    def _rings_by_id(self) -> dict[int, Ring]:
        return {ring.id: ring for ring in self.rings}

    @cached_property
    def _rings_at(self) -> dict[Coord, list[Ring]]:
        membership: dict[Coord, list[Ring]] = {}
        for ring in self.rings:
            for coord in ring.switches:
                membership.setdefault(coord, []).append(ring)
        return membership

    @cached_property
    def _routes(self) -> dict[tuple[Coord, Coord], int]:
        return {}  # select_ring's memo, one entry per pair looked up

    def ring(self, ring_id: int) -> Ring:
        try:
            return self._rings_by_id[ring_id]
        except KeyError:
            raise KeyError(f"no ring with id {ring_id}") from None


def select_ring(topology: Topology, src, dst) -> int:
    """Hop-minimal ring for the pair, lowest id on ties; memoised per pair."""
    if not (type(src) is Coord and type(dst) is Coord):
        src, dst = Coord(*src), Coord(*dst)
    if src == dst:
        raise ValueError("select_ring requires distinct source and destination")
    ring_id = topology._routes.get((src, dst))
    if ring_id is None:
        ring_id = min((ring.hops(src, dst), ring.id) for ring in topology._rings_at[src]
                      if dst in ring)[1]
        topology._routes[src, dst] = ring_id
    return ring_id


def _check_connectivity(width: int, height: int, rings_at: dict[Coord, list[Ring]]) -> None:
    cells = [Coord(c, r) for r in range(height) for c in range(width)]
    # Coverage first: a grid far larger than its rings fails at once.
    for core in cells:
        if core not in rings_at:
            raise TopologyError(f"core {tuple(core)} is on no ring")
    # A core reaches exactly the switches of the rings through it.
    for src in cells:
        reach = set().union(*(ring.switches for ring in rings_at[src]))
        if len(reach) < len(cells):
            dst = next(dst for dst in cells if dst not in reach)
            raise TopologyError(f"cores {tuple(src)} and {tuple(dst)} share no ring")


def _validate_ring(ring: Ring, width: int, height: int) -> None:
    if ring.size < 2:
        raise TopologyError(f"ring {ring.id} has fewer than 2 switches")
    seen = set()
    for coord in ring.switches:
        if not (isinstance(coord, Coord) and _is_int(coord.col) and _is_int(coord.row)):
            raise TopologyError(f"ring {ring.id}: switch entries must be [col, row] Coords "
                                f"of integers, got {coord!r}")
        if not (0 <= coord.col < width and 0 <= coord.row < height):
            raise TopologyError(f"ring {ring.id} switch {tuple(coord)} is outside the grid")
        if coord in seen:
            raise TopologyError(f"ring {ring.id} lists switch {tuple(coord)} twice")
        seen.add(coord)
    for a, b in zip(ring.switches, ring.switches[1:] + ring.switches[:1]):
        if abs(a.col - b.col) + abs(a.row - b.row) != 1:
            raise TopologyError(
                f"ring {ring.id}: switches {tuple(a)} and {tuple(b)} are not neighbours"
            )
    capacity = ring.buffer_capacity
    if capacity is not None and not (_is_int(capacity) and capacity >= 1):
        raise TopologyError(f"ring {ring.id}: buffer_capacity must be an integer >= 1, "
                            f"got {capacity!r}")


def _perimeter(c1: int, r1: int, c2: int, r2: int) -> tuple[Coord, ...]:
    """Clockwise rectangle border: needs c2 > c1 and r2 > r1."""
    top = [Coord(c, r1) for c in range(c1, c2 + 1)]
    right = [Coord(c2, r) for r in range(r1 + 1, r2 + 1)]
    bottom = [Coord(c, r2) for c in range(c2 - 1, c1 - 1, -1)]
    left = [Coord(c1, r) for r in range(r2 - 1, r1, -1)]
    return tuple(top + right + bottom + left)


# Largest grid side a topology may have. It bounds the rings a grid gets and
# the work of building and checking them: the generator's ring count grows as
# side^2 (246 rings at 16x16), and generating a 16x16 grid takes 0.04 s,
# 24x24 0.15 s and 32x32 0.53 s (2-core Intel Xeon, Python 3.11).
MAX_GRID_SIDE = 16


def _check_grid(width, height) -> None:
    """Integer sides from 1 to ``MAX_GRID_SIDE``, checked before any ring is read."""
    for key, value in (("width", width), ("height", height)):
        if not _is_int(value):
            raise TopologyError(f"missing or non-integer field {key!r}")
    if width < 1 or height < 1:
        raise TopologyError("grid dimensions must be positive")
    if width > MAX_GRID_SIDE or height > MAX_GRID_SIDE:
        raise TopologyError(f"grid {width}x{height} exceeds the side limit of {MAX_GRID_SIDE}")


@lru_cache(maxsize=8, typed=True)
def generate_multi_ring(width: int, height: int) -> Topology:
    """Deterministic multi-ring generator guaranteeing full connectivity.

    Emits, in order: nested rectangle rings, full-width row-band rings for
    every row pair, and full-height column-band rings for every column pair,
    all clockwise, each ring once. Any two cores in different
    rows share the row-band ring of those rows; cores in the same row share a
    column-band ring, so every ordered pair is connected. The ring count is
    C(height,2) + C(width,2) + floor(min(width,height)/2) - 2. Sides run from
    2 to ``MAX_GRID_SIDE``. It returns one shared instance per grid, which
    is safe as a topology is immutable, so the routes that ``select_ring``
    memoises on it stay warm; the last eight grids are kept, keyed by value
    and type, so a float side is rejected even after its integer's call.
    """
    _check_grid(width, height)
    if width < 2 or height < 2:
        raise TopologyError("generate_multi_ring requires width >= 2 and height >= 2")
    loops: list[tuple[Coord, ...]] = []
    k = 0
    while width - 2 * k >= 2 and height - 2 * k >= 2:
        loops.append(_perimeter(k, k, width - 1 - k, height - 1 - k))
        k += 1
    # The full-height row band and the full-width column band are both the
    # outer rectangle, already emitted first.
    for r1 in range(height):
        for r2 in range(r1 + 1, height):
            if (r1, r2) != (0, height - 1):
                loops.append(_perimeter(0, r1, width - 1, r2))
    for c1 in range(width):
        for c2 in range(c1 + 1, width):
            if (c1, c2) != (0, width - 1):
                loops.append(_perimeter(c1, 0, c2, height - 1))
    return Topology(width, height, tuple(Ring(id=i, switches=loop)
                                         for i, loop in enumerate(loops)))


_TOP_FIELDS = {"width", "height", "rings"}
_RING_FIELDS = {"id", "switches", "buffer_capacity"}


def topology_to_doc(topology: Topology) -> dict:
    doc: dict = {"width": topology.width, "height": topology.height, "rings": []}
    for ring in topology.rings:
        entry: dict = {"id": ring.id, "switches": [[c.col, c.row] for c in ring.switches]}
        if ring.buffer_capacity is not None:
            entry["buffer_capacity"] = ring.buffer_capacity
        doc["rings"].append(entry)
    return doc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_topology(doc: dict) -> Topology:
    """Build a topology from a document whose shape, and grid sides before any
    ring is read, are checked here; ``Topology`` checks every field."""
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be a mapping")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise TopologyError(f"unknown topology fields: {sorted(unknown)}")
    _check_grid(doc.get("width"), doc.get("height"))
    entries = doc.get("rings")
    if not isinstance(entries, list) or not entries:
        raise TopologyError("field 'rings' must be a non-empty list")
    rings = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise TopologyError("each ring must be a mapping")
        unknown = set(entry) - _RING_FIELDS
        if unknown:
            raise TopologyError(f"unknown ring fields: {sorted(unknown)}")
        raw = entry.get("switches")
        if not (isinstance(raw, list) and all(isinstance(item, (list, tuple)) and len(item) == 2
                                              for item in raw)):
            raise TopologyError(f"rings[{k}]: 'switches' must be a list of [col, row] pairs")
        rings.append(Ring(id=entry.get("id"), switches=tuple(Coord(*item) for item in raw),
                          buffer_capacity=entry.get("buffer_capacity")))
    return Topology(doc["width"], doc["height"], rings)


def load_topology_file(path_str: str) -> Topology:
    with open(path_str, "r", encoding="utf-8") as handle:
        return load_topology(json.load(handle))
