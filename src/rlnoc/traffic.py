"""Sporadic traffic flows, random benchmark generation and interference sets.

Each flow ships packets of at most ``length`` flits from a source core to a
destination core over one assigned ring. The interference sets classify, for
a flow under analysis, which other flows can delay it before injection
(upstream thru-traffic, co-injected traffic), after injection (downstream
injectors), or only indirectly (jitter amplification of its upstream
interferers).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .topology import (
    Coord,
    Topology,
    _is_int,
    generate_multi_ring,
    load_topology,
    select_ring,
    topology_to_doc,
)


class TrafficError(ValueError):
    pass


@dataclass(frozen=True)
class Flow:
    """One sporadic packet flow. All times are in cycles, sizes in flits."""

    id: int
    period: int
    deadline: int
    length: int
    jitter: int
    src: Coord
    dst: Coord
    ring: int


# Longest packet, in flits. Stepping costs about 5.6 us a flit: three packets at the limit,
# released together, step 12,288 cycles in 0.07 s (2-core Intel Xeon, Python 3.11).
MAX_PACKET_LENGTH = 4096

# Most flows in one flowset. A flow costs about 1.2 KiB of peak memory and 25 to 40 us
# to generate and analyse once (100,000 flows on the 16x16 grid, 2-core Intel Xeon,
# Python 3.11), so a flowset at the limit peaks near 135 MiB and takes 2.5 to 4 s.
MAX_FLOWS = 100_000


@dataclass(frozen=True)
class Flowset:
    flows: tuple[Flow, ...]
    topology: Topology

    def __post_init__(self):
        # Every field is checked here, for loaded and code-built flows alike.
        if len(self.flows) > MAX_FLOWS:
            raise TrafficError(f"a flowset holds at most {MAX_FLOWS} flows, got {len(self.flows)}")
        for f in self.flows:
            if type(f.id) is not int:
                raise TrafficError(f"flow id must be an integer, got {f.id!r}")
            for key, value in (("T", f.period), ("D", f.deadline), ("L", f.length),
                               ("J", f.jitter)):
                if type(value) is not int:
                    raise TrafficError(f"flow {f.id}: {key!r} must be an integer, got {value!r}")
            for key, value in (("src", f.src), ("dst", f.dst)):
                if not isinstance(value, Coord):
                    raise TrafficError(f"flow {f.id}: {key!r} must be a Coord, got {value!r}")
            if f.deadline > f.period:
                raise TrafficError(f"flow {f.id}: deadline exceeds period")
            if not 1 <= f.length <= MAX_PACKET_LENGTH:
                raise TrafficError(f"flow {f.id}: packet length must be from 1 to "
                                   f"{MAX_PACKET_LENGTH} flits, got {f.length}")
            if f.jitter < 0 or f.period < 1 or f.deadline < 1:
                raise TrafficError(f"flow {f.id}: negative or zero timing parameter")
            if f.src == f.dst:
                raise TrafficError(f"flow {f.id}: source equals destination")
            if type(f.ring) is not int:
                raise TrafficError(f"flow {f.id}: 'ring' must name a ring of the topology, "
                                   f"got {f.ring!r}")
            try:
                ring = self.topology.ring(f.ring)
            except KeyError:
                raise TrafficError(f"flow {f.id}: topology has no ring {f.ring} ('ring' "
                                   f"must name a ring of the topology)") from None
            if f.src not in ring or f.dst not in ring:
                raise TrafficError(f"flow {f.id}: ring {f.ring} does not contain both endpoints")
        if len({f.id for f in self.flows}) != len(self.flows):
            raise TrafficError("flow ids must be unique")

    @cached_property
    def index(self) -> FlowsetIndex:
        """Config-independent lookups over the flowset, built on first use
        and kept for the flowset's lifetime."""
        return FlowsetIndex(self)


def _extended(flowset: Flowset, flows: tuple[Flow, ...]) -> Flowset:
    """``flowset`` followed by ``flows``, slices of one validated flowset, so
    it is not validated again; its index is a copy of ``flowset``'s extended
    by ``flows``, whose ids must all be larger."""
    index, flows_by_id = flowset.index, sorted(flows, key=lambda f: f.id)
    if flows and index.flows and flows_by_id[0].id <= next(reversed(index.flows)):
        raise TrafficError(f"flow {flows_by_id[0].id} cannot extend the index")
    grown = object.__new__(FlowsetIndex)
    grown.topology = index.topology
    for name in FlowsetIndex._MAPS:
        setattr(grown, name, dict(getattr(index, name)))
    grown._add(flows_by_id)
    out = object.__new__(Flowset)
    object.__setattr__(out, "flows", flowset.flows + flows)
    object.__setattr__(out, "topology", flowset.topology)
    out.__dict__["index"] = grown
    return out


@dataclass(frozen=True)
class InterferenceSets:
    """Flow-id sets describing who can delay the flow under analysis.

    up       thru-traffic at the injection switch (upstream direct)
    down     same-ring flows injected along the downstream path, destination
             switch excluded (downstream direct)
    in_ring  other flows injected at the same switch into the same ring
    upind    link-disjoint flows that delay a member of ``up`` (upstream indirect)
    """

    up: frozenset[int]
    down: frozenset[int]
    in_ring: frozenset[int]
    upind: frozenset[int]


def term_load(terms, num: int = 0, den: int = 1) -> tuple[int, int]:
    """Exact sum of L * n / T over busy-period terms (T, L * n, J + T - 1, id),
    added in term order to the load ``num / den``, as (numerator, denominator)."""
    for period, load, _, _ in terms:
        num = num * period + load * den
        den *= period
    return num, den


class FlowsetIndex:
    """Config-independent lookups shared by the analyses and simulations of
    one flowset, each stored once under what it depends on: flows by id (in
    id order), by ring and by destination core; each flow's
    route, ``(start, hops)``: its source position on its ring and its hop
    count; per ring, the worst backlog at each switch position (the largest
    payload, length - 1, injected there) and the prefix sums of the bounds
    taken twice over, so a path's backlog is one difference and the ring's
    total is entry ``size``; per (ring, position) switch, the busy-period
    terms of the flows passing it, in id order, each pre-folded as
    ``(T, L * n, J + T - 1, id)`` with n = 1 copy, and their exact load;
    and, built on first use, each ring's packet-buffer capacity, each flow's
    queue key per injection mode and its link key per deflection bound. Map
    values are immutable, so extending a copy by flows with larger ids
    (``_extended``) rewrites no earlier flow's entry; a fresh index is an
    empty one extended by all flows in id order."""

    _MAPS = ("flows", "on_ring", "on_dst", "route", "buffer_bounds",
             "backlog_sums", "up_terms", "up_load")

    def __init__(self, flowset: Flowset):
        self.topology = flowset.topology
        for name in self._MAPS:
            setattr(self, name, {})
        for ring in self.topology.rings:
            self.buffer_bounds[ring.id] = (0,) * ring.size
            self.backlog_sums[ring.id] = (0,) * (2 * ring.size + 1)
        self._add(sorted(flowset.flows, key=lambda f: f.id))

    def _add(self, flows) -> None:
        """Index ``flows``, in id order and with ids above any indexed one.
        The batch is gathered per ring, destination and switch first, so
        each entry it touches is written once: a ring's bounds and prefix
        sums once however many of its flows raise them, and a switch's load
        folded over its new terms in id order, as one flow at a time would."""
        on_ring: dict[int, list] = {}
        on_dst: dict[Coord, list] = {}
        raised: dict[int, list] = {}
        terms: dict[tuple, list] = {}
        for f in flows:
            ring = self.topology.ring(f.ring)
            start, size = ring.position(f.src), ring.size
            hops = (ring.position(f.dst) - start) % size
            self.flows[f.id] = f
            self.route[f.id] = (start, hops)
            on_ring.setdefault(f.ring, []).append(f)
            on_dst.setdefault(f.dst, []).append(f)
            bounds = raised.get(f.ring, self.buffer_bounds[f.ring])
            if f.length - 1 > bounds[start]:
                if f.ring not in raised:
                    bounds = raised[f.ring] = list(bounds)
                bounds[start] = f.length - 1
            term = (f.period, f.length, f.jitter + f.period - 1, f.id)
            for d in range(1, hops):
                terms.setdefault((f.ring, (start + d) % size), []).append(term)
        for rid, members in on_ring.items():
            self.on_ring[rid] = self.on_ring.get(rid, ()) + tuple(members)
        for dst, members in on_dst.items():
            self.on_dst[dst] = self.on_dst.get(dst, ()) + tuple(members)
        for rid, bounds in raised.items():
            self.buffer_bounds[rid] = tuple(bounds)
            self.backlog_sums[rid] = tuple(accumulate(bounds * 2, initial=0))
        for switch, new in terms.items():
            self.up_terms[switch] = self.up_terms.get(switch, ()) + tuple(new)
            self.up_load[switch] = term_load(new, *self.up_load.get(switch, (0, 1)))

    @cached_property
    def capacity(self) -> dict[int, int]:
        """Packet-buffer size of every switch of each ring: the override when
        set, otherwise the largest packet assigned to the ring (1 when
        unused). Raises ``TrafficError`` for an override too small for a
        packet of its ring."""
        out = {}
        for ring in self.topology.rings:
            # Each flow's source switch bounds the flow's own payload, so the
            # largest backlog bound plus one is the largest packet of the ring.
            largest = max(self.buffer_bounds[ring.id]) + 1
            if ring.buffer_capacity is not None and largest > ring.buffer_capacity:
                raise TrafficError(
                    f"ring {ring.id}: buffer capacity {ring.buffer_capacity} cannot "
                    f"hold a {largest}-flit packet")
            out[ring.id] = (largest if ring.buffer_capacity is None
                            else ring.buffer_capacity)
        return out

    def queues(self, injection: str) -> dict[int, tuple]:
        """Each flow's injection-queue key under ``injection``: ``(core,)``
        when shared, else ``(core, ring)``, with cores numbered ``row * width
        + col``. Built on first use and kept for the index's lifetime."""
        memo = self.__dict__.setdefault("_queues", {})
        if injection not in memo:
            width, shared = self.topology.width, injection == "shared"
            memo[injection] = {
                fid: (f.src.row * width + f.src.col,) if shared
                else (f.src.row * width + f.src.col, f.ring)
                for fid, f in self.flows.items()}
        return memo[injection]

    def links(self, maxloop: int | str) -> dict[int, tuple]:
        """Each flow's ejection-link key under ``maxloop``: ``(core, ring)``
        when it is 0; otherwise each destination core's flows, in id order,
        dealt round-robin over its links ``(core, i)``: one Oldest-First link,
        or for a bound of k just enough that none serves more than k flows.
        Built on first use and kept for the index's lifetime."""
        memo = self.__dict__.setdefault("_links", {})
        if maxloop not in memo:
            width, link = self.topology.width, {}
            for dst, flows in self.on_dst.items():
                core = dst.row * width + dst.col
                if maxloop == "oldest_first":
                    n_links = 1
                else:
                    n_links = -(-len(flows) // maxloop) if maxloop else 0
                for i, f in enumerate(flows):
                    link[f.id] = (core, i % n_links) if n_links else (core, f.ring)
            memo[maxloop] = link
        return memo[maxloop]


@dataclass(frozen=True)
class BenchmarkParams:
    """Knobs for random flowset generation; ranges are inclusive."""

    flows_per_set: int
    width: int = 4
    height: int = 4
    packet_range: tuple[int, int] = (16, 48)
    period_range: tuple[int, int] = (1_000, 100_000)
    jitter_fraction_range: tuple[float, float] = (0.0, 0.5)
    seed: int = 0

    def __post_init__(self):
        for key in ("flows_per_set", "seed"):
            if not _is_int(getattr(self, key)):
                raise TrafficError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if not 0 <= self.flows_per_set <= MAX_FLOWS:
            raise TrafficError(f"flows_per_set must be from 0 to {MAX_FLOWS}, "
                               f"got {self.flows_per_set}")
        lo, hi = self.packet_range
        if not (_is_int(lo) and _is_int(hi) and 1 <= lo <= hi <= MAX_PACKET_LENGTH):
            raise TrafficError(f"packet_range must be integers from 1 to {MAX_PACKET_LENGTH} "
                               f"flits with LO <= HI, got {self.packet_range!r}")
        lo, hi = self.period_range
        if not (_is_int(lo) and _is_int(hi) and 1 <= lo <= hi):
            raise TrafficError(f"period_range must be integers >= 1 with LO <= HI, "
                               f"got {self.period_range!r}")
        lo, hi = self.jitter_fraction_range
        if not (type(lo) in (int, float) and type(hi) in (int, float) and 0 <= lo <= hi <= 1):
            raise TrafficError(f"jitter_fraction_range must be numbers from 0 to 1 with "
                               f"LO <= HI, got {self.jitter_fraction_range!r}")


def generate_flowset(params: BenchmarkParams) -> Flowset:
    """Uniformly sample a flowset; deterministic for a fixed seed.

    Flows are drawn one after another with a fixed number of RNG draws each,
    so for the same seed a larger flowset extends a smaller one flow-for-flow
    (the prefix property the paired sweeps rely on). Deadlines equal periods.
    Flows are routed on the grid's shared ``generate_multi_ring`` topology.
    Its ``randint``, ``uniform`` and ``randrange`` draws are inlined:
    ``randrange(n)`` is ``getrandbits(n.bit_length())`` until below n, and
    ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``.
    """
    topology = generate_multi_ring(params.width, params.height)
    rng = random.Random(params.seed)
    getrandbits, unit = rng.getrandbits, rng.random
    width, cells = params.width, params.width * params.height
    coords = [Coord(i % width, i // width) for i in range(cells)]
    (t_lo, t_hi), (l_lo, l_hi) = params.period_range, params.packet_range
    j_lo, j_hi = params.jitter_fraction_range
    n_t, n_l, j_span = t_hi - t_lo + 1, l_hi - l_lo + 1, j_hi - j_lo
    # The topology has at least 2x2 cells, so every range below is non-empty.
    k_t, k_l, k_src, k_dst = (n_t.bit_length(), n_l.bit_length(), cells.bit_length(),
                              (cells - 1).bit_length())
    flows = []
    for k in range(params.flows_per_set):
        r = getrandbits(k_t)
        while r >= n_t:
            r = getrandbits(k_t)
        period = t_lo + r
        r = getrandbits(k_l)
        while r >= n_l:
            r = getrandbits(k_l)
        length = l_lo + r
        fraction = j_lo + j_span * unit()
        src_i = getrandbits(k_src)
        while src_i >= cells:
            src_i = getrandbits(k_src)
        dst_i = getrandbits(k_dst)
        while dst_i >= cells - 1:
            dst_i = getrandbits(k_dst)
        if dst_i >= src_i:
            dst_i += 1
        src, dst = coords[src_i], coords[dst_i]
        flows.append(Flow(
            id=k + 1,
            period=period,
            deadline=period,
            length=length,
            jitter=int(fraction * period),
            src=src,
            dst=dst,
            ring=select_ring(topology, src, dst),
        ))
    return Flowset(tuple(flows), topology)


def interference_table(flowset: Flowset) -> dict[int, InterferenceSets]:
    """Interference sets for every flow, all read off the index's ``up``
    relation: ``up`` from the ids of its busy-period terms, ``down`` as its
    transpose less ``up``, ``in_ring`` from its queue under independent
    injection and ``upind`` one step further along ``up`` and ``in_ring``."""
    index = flowset.index
    up = {fid: frozenset(term[3] for term in
                         index.up_terms.get((f.ring, index.route[fid][0]), ()))
          for fid, f in index.flows.items()}
    queue = index.queues("independent")
    mates: dict[tuple, list[int]] = {}
    for fid, key in queue.items():
        mates.setdefault(key, []).append(fid)
    in_ring = {fid: frozenset(mates[key]) - {fid} for fid, key in queue.items()}
    # g injects strictly inside f's path exactly when f passes g's injection
    # switch. A wrapping flow can do both; it counts as upstream only, which
    # keeps the four classes disjoint (no bound reads ``down``).
    passed_by: dict[int, set[int]] = {fid: set() for fid in up}
    for gid, ids in up.items():
        for fid in ids:
            passed_by[fid].add(gid)

    # Upstream indirect interference, one level only: a flow that delays a
    # member of up (upstream or co-injected) while sharing no link, source or
    # destination switch with f. Every such k is on f's ring, where two paths
    # share a link exactly when one passes the other's injection switch or
    # both inject at the same switch.
    table: dict[int, InterferenceSets] = {}
    for fid, f in index.flows.items():
        upind = set()
        for j in up[fid]:
            for k in up[j] | in_ring[j]:
                g = index.flows[k]
                if (k not in up[fid] and fid not in up[k]
                        and g.src != f.src and g.dst != f.dst):
                    upind.add(k)
        table[fid] = InterferenceSets(up=up[fid], down=frozenset(passed_by[fid] - up[fid]),
                                      in_ring=in_ring[fid], upind=frozenset(upind))
    return table


_FLOW_FIELDS = {"id", "T", "D", "L", "J", "src", "dst", "ring"}
_SET_FIELDS = {"width", "height", "seed", "topology", "flows"}


def flowset_to_doc(flowset: Flowset, seed: int | None = None,
                   embed_topology: bool = False) -> dict:
    doc: dict = {"width": flowset.topology.width, "height": flowset.topology.height}
    if seed is not None:
        doc["seed"] = seed
    if embed_topology:
        doc["topology"] = topology_to_doc(flowset.topology)
    doc["flows"] = [
        {"id": f.id, "T": f.period, "D": f.deadline, "L": f.length, "J": f.jitter,
         "src": [f.src.col, f.src.row], "dst": [f.dst.col, f.dst.row], "ring": f.ring}
        for f in flowset.flows
    ]
    return doc


def _load_coord(value, key: str, fid: int, topology: Topology) -> Coord:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
        raise TrafficError(f"flow {fid}: {key!r} must be [col, row], got {value!r}")
    coord = Coord(*value)
    if not (0 <= coord.col < topology.width and 0 <= coord.row < topology.height):
        raise TrafficError(f"flow {fid}: {key!r} {value} is outside the "
                           f"{topology.width}x{topology.height} grid")
    return coord


def _load_flow(entry, topology: Topology) -> Flow:
    if not isinstance(entry, dict):
        raise TrafficError("each flow must be a mapping")
    unknown = set(entry) - _FLOW_FIELDS
    if unknown:
        raise TrafficError(f"unknown flow fields: {sorted(unknown)}")
    for key in ("id", "T", "D", "L", "J", "src", "dst"):
        if key not in entry:
            raise TrafficError(f"flow entry missing field {key!r}")
    fid = entry["id"]
    src = _load_coord(entry["src"], "src", fid, topology)
    dst = _load_coord(entry["dst"], "dst", fid, topology)
    # Flowset checks every field, and that the ring exists and holds both ends.
    ring = entry.get("ring")
    if ring is None and src != dst:
        ring = select_ring(topology, src, dst)
    return Flow(id=fid, period=entry["T"], deadline=entry["D"], length=entry["L"],
                jitter=entry["J"], src=src, dst=dst, ring=ring)


def load_flowset(doc: dict, topology: Topology | None = None) -> Flowset:
    """Rebuild a flowset from a document; rings are recomputed when absent.
    The document's shape is checked here and every field by ``Flowset``, so a
    malformed document raises ``TrafficError`` (or a topology error) naming
    the offending field."""
    if not isinstance(doc, dict):
        raise TrafficError("flowset document must be a mapping")
    unknown = set(doc) - _SET_FIELDS
    if unknown:
        raise TrafficError(f"unknown flowset fields: {sorted(unknown)}")
    if "seed" in doc and not _is_int(doc["seed"]):
        raise TrafficError(f"field 'seed' must be an integer, got {doc['seed']!r}")
    if topology is None:
        if "topology" in doc:
            topology = load_topology(doc["topology"])
        else:
            for key in ("width", "height"):
                if not _is_int(doc.get(key)):
                    raise TrafficError(f"missing or non-integer field {key!r}")
            topology = generate_multi_ring(doc["width"], doc["height"])
    for key in ("width", "height"):
        if key in doc and not (_is_int(doc[key]) and doc[key] == getattr(topology, key)):
            raise TrafficError(f"field {key!r} is {doc[key]!r}, but the "
                               f"topology is {topology.width}x{topology.height}")
    entries = doc.get("flows", [])
    if not isinstance(entries, list):
        raise TrafficError(f"field 'flows' must be a list, got {entries!r}")
    if len(entries) > MAX_FLOWS:
        raise TrafficError(f"a flowset holds at most {MAX_FLOWS} flows, got {len(entries)}")
    return Flowset(tuple(_load_flow(entry, topology) for entry in entries), topology)


def load_flowset_file(path_str: str, topology: Topology | None = None) -> Flowset:
    with open(path_str, "r", encoding="utf-8") as handle:
        return load_flowset(json.load(handle), topology)


def save_flowset_file(flowset: Flowset, path_str: str) -> None:
    with open(path_str, "w", encoding="utf-8") as handle:
        json.dump(flowset_to_doc(flowset), handle, indent=2)
        handle.write("\n")
