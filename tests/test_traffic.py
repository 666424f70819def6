import copy
import itertools
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_flowset, make_flow
from rlnoc import data_path
from rlnoc.analysis import AnalysisConfig, analyze, parse_profile, results_to_csv, _contexts
from rlnoc.harness import FULL_PROFILE
from rlnoc.simulator import SimConfig, simulate
from rlnoc.traffic import (
    MAX_FLOWS,
    MAX_PACKET_LENGTH,
    BenchmarkParams,
    Flow,
    Flowset,
    InterferenceSets,
    TrafficError,
    _extended,
    flowset_to_doc,
    generate_flowset,
    interference_table,
    load_flowset,
    load_flowset_file,
    save_flowset_file,
)
from rlnoc.topology import (
    Coord,
    Topology,
    TopologyError,
    generate_multi_ring,
    load_topology_file,
    select_ring,
)

# The canonical five-flow scenario: all four interference sets per flow.
EXPECTED_SETS = {
    1: ({2}, {3}, {5}, {4}),
    2: ({4}, {1, 5}, set(), set()),
    3: ({1}, set(), set(), {2, 5}),
    4: (set(), {2}, set(), set()),
    5: ({2}, set(), {1}, {4}),
}


class TestFiveFlowScenario:
    def test_all_twenty_entries_exact(self, five_flow_fixture):
        table = interference_table(five_flow_fixture)
        for fid, (up, down, in_ring, upind) in EXPECTED_SETS.items():
            sets = table[fid]
            assert sets.up == frozenset(up), fid
            assert sets.down == frozenset(down), fid
            assert sets.in_ring == frozenset(in_ring), fid
            assert sets.upind == frozenset(upind), fid

    def test_in_core_and_ring_all(self, five_flow_fixture):
        index = five_flow_fixture.index
        on_core = {}
        for f in five_flow_fixture.flows:
            on_core.setdefault(f.src, []).append(f.id)
        assert on_core == {(2, 0): [1, 5], (1, 0): [2], (0, 1): [3], (0, 0): [4]}
        assert list(index.on_ring) == [0]
        assert [f.id for f in index.on_ring[0]] == sorted(EXPECTED_SETS)


class TestClassifySwitchFlows:
    def test_switch_not_on_ring(self, ten_ring_fixture):
        # Per-switch lookups on a flowset's ring refuse a switch off that ring.
        flowset = Flowset((), ten_ring_fixture)
        ring = flowset.topology.ring(0)
        assert not flowset.index.on_ring
        with pytest.raises(TopologyError, match=r"^switch \(0, 3\) is not on ring 0$"):
            ring.position((0, 3))


def shuffled(flowset, seed=0):
    flows = list(flowset.flows)
    random.Random(seed).shuffle(flows)
    return Flowset(tuple(flows), flowset.topology)


@st.composite
def clustered_index_cases(draw):
    """A flowset whose flows start at one or two cores, so that one batch
    raises a ring's bound more than once and its flows share switches,
    and where to cut it into batches."""
    width = draw(st.sampled_from((3, 4)))
    topo = generate_multi_ring(width, width)
    cores = [(col, row) for col in range(width) for row in range(width)]
    sources = draw(st.lists(st.sampled_from(cores), min_size=1, max_size=2, unique=True))
    flows = []
    for fid in range(1, draw(st.integers(0, 30)) + 1):
        src = draw(st.sampled_from(sources))
        dst = draw(st.sampled_from([core for core in cores if core != src]))
        period = draw(st.integers(1, 1_000))
        flows.append(make_flow(fid, src, dst, ring=select_ring(topo, src, dst),
                               period=period, length=draw(st.integers(1, 64)),
                               jitter=draw(st.integers(0, period))))
    splits = sorted(draw(st.lists(st.integers(0, len(flows)), max_size=3)))
    return Flowset(tuple(flows), topo), splits


@st.composite
def generated_index_cases(draw):
    """A drawn benchmark flowset of up to 160 flows and where to cut it
    into batches."""
    flows = draw(st.integers(0, 160))
    flowset = generate_flowset(BenchmarkParams(flows_per_set=flows,
                                               seed=draw(st.integers(0, 10_000))))
    return flowset, sorted(draw(st.lists(st.integers(0, flows), max_size=3)))


class TestFlowsetIndex:
    @pytest.mark.parametrize("grid", [(4, 4), (5, 5)])
    def test_route_matches_ring_positions(self, grid):
        for seed in range(4):
            flowset = generate_flowset(BenchmarkParams(
                flows_per_set=80, width=grid[0], height=grid[1], seed=seed))
            for f in flowset.flows:
                ring = flowset.topology.ring(f.ring)
                assert flowset.index.route[f.id] == (ring.position(f.src),
                                                     ring.hops(f.src, f.dst))

    @pytest.mark.parametrize("grid", [(4, 4), (5, 5)])
    def test_bases_match_plain_recomputation(self, grid):
        # Each flow's config-independent bound terms, as the analysis
        # composes them from the index, against a plain recomputation.
        def path(g):
            ring = flowset.topology.ring(g.ring)
            start = ring.position(g.src)
            return [ring.switches[(start + d) % ring.size]
                    for d in range(ring.hops(g.src, g.dst) + 1)]

        for seed in range(4):
            flowset = generate_flowset(BenchmarkParams(
                flows_per_set=80, width=grid[0], height=grid[1], seed=seed))
            index = flowset.index
            table = interference_table(flowset)
            context = _contexts(flowset, AnalysisConfig(injection="independent"))
            for ring in flowset.topology.rings:
                bounds = [max((g.length - 1 for g in flowset.flows
                               if g.ring == ring.id and g.src == switch), default=0)
                          for switch in ring.switches]
                assert index.buffer_bounds[ring.id] == tuple(bounds)
                assert index.backlog_sums[ring.id][ring.size] == sum(bounds)
                assert index.backlog_sums[ring.id] == tuple(
                    sum((bounds * 2)[:k]) for k in range(2 * ring.size + 1))
            for f in flowset.flows:
                ring = flowset.topology.ring(f.ring)
                bounds = index.buffer_bounds[f.ring]
                mates = sorted((g for g in flowset.flows
                                if g.ring == f.ring and g.id != f.id), key=lambda g: g.id)
                up = [g for g in mates if f.src in path(g)[1:-1]]
                in_ring = [g for g in mates if g.src == f.src]
                switch = (f.ring, ring.position(f.src))
                ctx = context(f.id)
                assert ctx.no_load == ring.hops(f.src, f.dst) + f.length
                assert ctx.loop == ring.size + f.length
                assert table[f.id].up == {g.id for g in up}
                assert table[f.id].in_ring == {g.id for g in in_ring}
                up_terms = tuple((g.period, g.length, g.jitter + g.period - 1, g.id)
                                 for g in up)
                assert index.up_terms.get(switch, ()) == up_terms
                assert ctx.terms == up_terms
                assert (Fraction(*index.up_load.get(switch, (0, 1)))
                        == sum((Fraction(g.length, g.period) for g in up), Fraction(0)))
                assert ctx.in_sum == sum(g.length for g in in_ring)
                assert ctx.post == sum(bounds[ring.position(c)] for c in path(f)[1:])

    def test_queue_term_sums_the_core_mates(self):
        # Shared injection: a flow's queue term is the length plus the
        # head-of-queue wait of every other flow of its source core.
        config = parse_profile("0D_IU_SI")
        checked = 0
        for seed in range(12):
            flowset = generate_flowset(BenchmarkParams(flows_per_set=24, seed=seed))
            result = analyze(flowset, config)
            if not result.schedulable:
                continue
            for f in flowset.flows:
                mates = [g for g in flowset.flows if g.src == f.src and g.id != f.id]
                assert result.results[f.id].pre_queue == sum(
                    g.length + result.results[g.id].pre_idle for g in mates)
                checked += len(mates) > 0
        assert checked > 20

    # Every map of an index; test_grown_index_equals_fresh_index fails when
    # the index gains one that is not listed here.
    INDEX_MAPS = ("flows", "on_ring", "on_dst", "route", "buffer_bounds",
                  "backlog_sums", "up_terms", "up_load")
    # Injection modes and deflection bounds whose maps must not carry over a growth.
    INJECTIONS = ("shared", "independent")
    MAXLOOPS = (0, 2, "oldest_first")

    def views(self, index):
        return ({injection: index.queues(injection) for injection in self.INJECTIONS},
                {maxloop: index.links(maxloop) for maxloop in self.MAXLOOPS})

    @settings(max_examples=30, deadline=None)
    @given(grid=st.sampled_from([(4, 4), (5, 5)]), seed=st.integers(0, 10_000),
           flows=st.integers(0, 160), data=st.data())
    def test_grown_index_equals_fresh_index(self, grid, seed, flows, data):
        full = generate_flowset(BenchmarkParams(
            flows_per_set=flows, width=grid[0], height=grid[1], seed=seed))
        splits = sorted(data.draw(st.lists(st.integers(0, flows), max_size=4)))
        prefix = Flowset((), full.topology)
        for count in splits + [flows]:
            # A capacity, queue map or link map cached on the earlier index must
            # not carry over.
            prefix.index.capacity
            self.views(prefix.index)
            before = copy.deepcopy({name: getattr(prefix.index, name)
                                    for name in self.INDEX_MAPS})
            grown = _extended(prefix, full.flows[len(prefix.flows):count])
            fresh = Flowset(full.flows[:count], full.topology)
            assert grown == fresh
            assert set(vars(grown.index)) == {"topology", *self.INDEX_MAPS}
            assert set(vars(fresh.index)) == {"topology", *self.INDEX_MAPS}
            for name in self.INDEX_MAPS:
                assert getattr(grown.index, name) == getattr(fresh.index, name), name
            assert grown.index.capacity == fresh.index.capacity
            for name in self.INDEX_MAPS:
                assert getattr(prefix.index, name) == before[name], name
            assert self.views(grown.index) == self.views(fresh.index)
            prefix = grown

    @classmethod
    def one_flow_at_a_time(cls, topology, batches):
        """The plain path: the index maps built flow by flow in id order,
        each raise of a ring's bound rebuilding that ring's bounds and prefix
        sums at once and each switch's load folded per flow. Also returns
        the most raises of one ring within one of ``batches``."""
        maps = {name: {} for name in cls.INDEX_MAPS}
        for ring in topology.rings:
            maps["buffer_bounds"][ring.id] = (0,) * ring.size
            maps["backlog_sums"][ring.id] = (0,) * (2 * ring.size + 1)
        most = 0
        for batch in batches:
            raises = Counter()
            for f in batch:
                ring = topology.ring(f.ring)
                start, size = ring.position(f.src), ring.size
                hops = (ring.position(f.dst) - start) % size
                maps["flows"][f.id] = f
                maps["route"][f.id] = (start, hops)
                maps["on_ring"][f.ring] = maps["on_ring"].get(f.ring, ()) + (f,)
                maps["on_dst"][f.dst] = maps["on_dst"].get(f.dst, ()) + (f,)
                bounds = maps["buffer_bounds"][f.ring]
                if f.length - 1 > bounds[start]:
                    bounds = bounds[:start] + (f.length - 1,) + bounds[start + 1:]
                    maps["buffer_bounds"][f.ring] = bounds
                    maps["backlog_sums"][f.ring] = tuple(itertools.accumulate(
                        bounds * 2, initial=0))
                    raises[f.ring] += 1
                term = (f.period, f.length, f.jitter + f.period - 1, f.id)
                for d in range(1, hops):
                    switch = (f.ring, (start + d) % size)
                    maps["up_terms"][switch] = maps["up_terms"].get(switch, ()) + (term,)
                    num, den = maps["up_load"].get(switch, (0, 1))
                    maps["up_load"][switch] = (num * f.period + f.length * den,
                                               den * f.period)
            most = max(most, *raises.values(), 0)
        return maps, most

    def check_batches(self, flowset, splits):
        """The index of ``flowset``, fresh and grown batch by batch through
        ``splits``, equals the plain path map for map, entry order included.
        Returns the most raises of one ring within one batch."""
        flows = sorted(flowset.flows, key=lambda f: f.id)
        cuts = [0, *splits, len(flows)]
        batches = [flows[a:b] for a, b in zip(cuts, cuts[1:])]
        plain, most = self.one_flow_at_a_time(flowset.topology, batches)
        grown = Flowset((), flowset.topology)
        for batch in batches:
            grown = _extended(grown, tuple(batch))
        for index in (Flowset(tuple(flows), flowset.topology).index, grown.index):
            for name in self.INDEX_MAPS:
                assert list(getattr(index, name).items()) == list(plain[name].items()), name
        return most

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(clustered_index_cases(), generated_index_cases()))
    def test_batched_index_equals_one_flow_at_a_time(self, case):
        self.check_batches(*case)

    def test_a_batch_raising_one_ring_twice_equals_one_flow_at_a_time(self):
        # Flows 2 to 4 each raise ring 0's bound at (0, 0) or (1, 0), in one
        # batch after flow 1's, and all of them cross (1, 0) or (2, 0).
        topo = generate_multi_ring(3, 2)
        flowset = Flowset((make_flow(1, (0, 0), (2, 0), length=4),
                           make_flow(2, (0, 0), (2, 1), length=9, period=7_000),
                           make_flow(3, (1, 0), (2, 1), length=20, period=3_000),
                           make_flow(4, (0, 0), (2, 0), length=33, jitter=500)), topo)
        assert self.check_batches(flowset, [1]) == 3
        assert self.check_batches(flowset, []) == 4

    @pytest.mark.parametrize("name", FULL_PROFILE.configs + ("OF_IU_SI", "OF_NI_II"))
    def test_platform_rules(self, name):
        config = parse_profile(name)
        k = config.maxloop
        checked = 0
        for flows, seed in itertools.product((12, 40), range(4)):
            flowset = generate_flowset(BenchmarkParams(flows_per_set=flows, seed=seed))
            in_order = sorted(flowset.flows, key=lambda f: f.id)
            queue = flowset.index.queues(config.injection)
            link = flowset.index.links(k)
            src = {f.id: f.src.row * 4 + f.src.col for f in in_order}
            dst = {f.id: f.dst.row * 4 + f.dst.col for f in in_order}
            assert set(queue) == set(link) == set(src)
            # Each key's members: the flows mapped to it, in id order.
            queues, links = ({key: tuple(f for f in in_order if keys[f.id] == key)
                              for key in keys.values()} for keys in (queue, link))
            for keys, core in ((queue, src), (link, dst)):
                assert all(key[0] == core[fid] for fid, key in keys.items())
            if config.injection == "shared":
                assert set(queues) == {(src[f.id],) for f in in_order}
            else:
                assert set(queues) == {(src[f.id], f.ring) for f in in_order}
            if k == "oldest_first":
                assert set(links) == {(dst[f.id], 0) for f in in_order}
            elif k == 0:
                assert set(links) == {(dst[f.id], f.ring) for f in in_order}
            else:
                # Just enough links per core that none serves more than k
                # flows, dealt round-robin over the core's flows in id order.
                assert max(map(len, links.values())) <= k
                assert len(links) == sum(-(-n // k) for n in Counter(dst.values()).values())
                on_core: dict[int, list[int]] = {}
                for f in in_order:
                    on_core.setdefault(dst[f.id], []).append(f.id)
                for (core, i), members in links.items():
                    n_links = -(-len(on_core[core]) // k)
                    assert all(on_core[core].index(f.id) % n_links == i for f in members)
            result = analyze(flowset, config)
            for fid, row in result.results.items():
                # Under Oldest-First a flow's competitors are the other flows
                # sending to its core, each winning the arbitration once.
                assert row.maxloop == (Counter(dst.values())[dst[fid]] - 1
                                       if k == "oldest_first" else k)
                checked += 1
        assert checked

    def test_analysis_reads_queue_maps_only(self):
        # The seven sweep configurations need the two queue maps and no link
        # map: the deflection bound is the analysis's own.
        flowset = generate_flowset(BenchmarkParams(flows_per_set=20, seed=3))
        for name in FULL_PROFILE.configs:
            analyze(flowset, parse_profile(name))
        assert set(vars(flowset.index)["_queues"]) == {"shared", "independent"}
        assert "_links" not in vars(flowset.index)

    def test_growth_needs_larger_ids(self):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=10, seed=1))
        head = Flowset(flowset.flows[:5], flowset.topology)
        with pytest.raises(TrafficError, match="cannot extend"):
            _extended(head, flowset.flows[4:6])

    def test_flows_in_id_order_whatever_the_listing(self):
        flowset = shuffled(generate_flowset(BenchmarkParams(flows_per_set=40, seed=2)))
        assert [f.id for f in flowset.flows] != list(range(1, 41))
        index = flowset.index
        assert list(index.flows) == list(range(1, 41))
        for groups in (index.on_ring, index.on_dst):
            for flows in groups.values():
                assert [f.id for f in flows] == sorted(f.id for f in flows)

    @pytest.mark.parametrize("name,ipos", [("0D_IU_SI", "tight"), ("0D_NI_II", "tight"),
                                           ("OF_IU_SI", "tight"), ("1D_IU_SI", "coarse")])
    def test_listing_order_leaves_analysis_unchanged(self, name, ipos):
        # The 60-flow sets are mostly unschedulable under OF_IU_SI, where the
        # failing flow reported is the first one checked.
        config = parse_profile(name, ipos_formula=ipos)
        for flows, seed in itertools.product((30, 60), range(4)):
            in_order = generate_flowset(BenchmarkParams(flows_per_set=flows, seed=seed))
            csvs = [results_to_csv(analyze(fs, config), config,
                                   diagnostics=interference_table(fs))
                    for fs in (in_order, shuffled(in_order, seed))]
            assert csvs[0] == csvs[1]

    def test_listing_order_leaves_simulation_unchanged(self):
        # Dense traffic on shared ejection links split two flows per link:
        # which flows share a link follows the id order of each core's flows.
        in_order = generate_flowset(BenchmarkParams(
            flows_per_set=120, packet_range=(8, 32), period_range=(200, 1_500), seed=7))
        cfg = SimConfig(seed=3, horizon=3_000)
        hw = AnalysisConfig(injection="shared", maxloop=2)
        outcomes = [simulate(fs, cfg, hw) for fs in (in_order, shuffled(in_order))]
        assert outcomes[0].deflections > 0
        assert outcomes[0].digest == outcomes[1].digest


@st.composite
def interference_cases(draw):
    """A benchmark flowset on a 2x2 to 5x5 grid, or flows on the ten-ring
    topology each on a random ring that holds both ends, so that routes need
    not be hop-minimal."""
    if draw(st.booleans()):
        return generate_flowset(BenchmarkParams(
            flows_per_set=draw(st.integers(0, 60)), width=draw(st.integers(2, 5)),
            height=draw(st.integers(2, 5)), seed=draw(st.integers(0, 10_000))))
    topo = load_topology_file(data_path("grid4x4_ten_rings.json"))
    flows = []
    for fid in range(1, draw(st.integers(0, 40)) + 1):
        ring = draw(st.sampled_from(topo.rings))
        start = draw(st.integers(0, ring.size - 1))
        end = (start + draw(st.integers(1, ring.size - 1))) % ring.size
        flows.append(make_flow(fid, ring.switches[start], ring.switches[end], ring=ring.id))
    return Flowset(tuple(flows), topo)


class TestInterferenceProperties:
    @settings(deadline=None)
    @given(flowset=interference_cases())
    def test_sets_match_the_path_definitions(self, flowset):
        # A path is the (ring, switch) list from source to destination; link
        # i of a path leaves its switch i.
        def path(g):
            ring = flowset.topology.ring(g.ring)
            start = ring.position(g.src)
            return [(g.ring, ring.switches[(start + d) % ring.size])
                    for d in range(ring.hops(g.src, g.dst) + 1)]

        flows = {g.id: g for g in flowset.flows}
        paths = {g.id: path(g) for g in flowset.flows}
        links = {fid: set(p[:-1]) for fid, p in paths.items()}
        up = {f.id: {g.id for g in flowset.flows if paths[f.id][0] in paths[g.id][1:-1]}
              for f in flowset.flows}
        in_ring = {f.id: {g.id for g in flowset.flows if g.id != f.id
                          and paths[g.id][0] == paths[f.id][0]} for f in flowset.flows}
        table = interference_table(flowset)
        assert sorted(table) == sorted(up)
        for f in flowset.flows:
            down = {g.id for g in flowset.flows
                    if paths[g.id][0] in paths[f.id][1:-1]} - up[f.id]
            upind = {k for j in up[f.id] for k in up[j] | in_ring[j]
                     if not links[k] & links[f.id]
                     and flows[k].src != f.src and flows[k].dst != f.dst}
            assert table[f.id] == InterferenceSets(
                up=frozenset(up[f.id]), down=frozenset(down),
                in_ring=frozenset(in_ring[f.id]), upind=frozenset(upind)), f.id

    def build_random(self, seed, flows=18):
        params = BenchmarkParams(flows_per_set=flows, width=4, height=4, seed=seed)
        return generate_flowset(params)

    def test_disjointness_and_no_self(self):
        for seed in range(8):
            flowset = self.build_random(seed)
            table = interference_table(flowset)
            for flow in flowset.flows:
                s = table[flow.id]
                in_core = {f.id for f in flowset.flows if f.src == flow.src} - {flow.id}
                assert flow.id not in s.up | s.down | s.in_ring | s.upind
                assert not (s.up & s.down) and not (s.up & s.in_ring)
                assert not (s.down & s.in_ring) and not (s.upind & (s.up | s.down | s.in_ring))
                assert s.in_ring <= in_core

    def test_co_injection_is_symmetric(self):
        for seed in range(8):
            flowset = self.build_random(seed)
            table = interference_table(flowset)
            for flow in flowset.flows:
                for other in table[flow.id].in_ring:
                    assert flow.id in table[other].in_ring

    def test_down_members_inject_on_the_downstream_path(self):
        for seed in range(4):
            flowset = self.build_random(seed)
            table = interference_table(flowset)
            for flow in flowset.flows:
                ring = flowset.topology.ring(flow.ring)
                start = ring.position(flow.src)
                # The switches strictly between source and destination.
                interior = {ring.switches[(start + d) % ring.size]
                            for d in range(1, ring.hops(flow.src, flow.dst))}
                for other in table[flow.id].down:
                    assert flowset.index.flows[other].src in interior

    def test_removing_a_flow_never_grows_sets(self):
        flowset = self.build_random(3)
        table = interference_table(flowset)
        victim = flowset.flows[4].id
        reduced = Flowset(tuple(f for f in flowset.flows if f.id != victim),
                          flowset.topology)
        smaller = interference_table(reduced)
        def ids(flows):
            return {f.id for f in flows}

        for flow in reduced.flows:
            before, after = table[flow.id], smaller[flow.id]
            assert after.up <= before.up
            assert after.down <= before.down
            assert after.in_ring <= before.in_ring
            assert after.upind <= before.upind
            assert (ids(reduced.index.on_ring[flow.ring])
                    <= ids(flowset.index.on_ring[flow.ring]))


def randint_flowset(params):
    """The flowset drawn with plain ``randint``, ``uniform`` and ``randrange``
    calls: the reference for the generator's inlined draws."""
    topology = generate_multi_ring(params.width, params.height)
    rng = random.Random(params.seed)
    cells = params.width * params.height
    flows = []
    for k in range(params.flows_per_set):
        period = rng.randint(*params.period_range)
        length = rng.randint(*params.packet_range)
        fraction = rng.uniform(*params.jitter_fraction_range)
        src_i = rng.randrange(cells)
        dst_i = rng.randrange(cells - 1)
        if dst_i >= src_i:
            dst_i += 1
        src = Coord(src_i % params.width, src_i // params.width)
        dst = Coord(dst_i % params.width, dst_i // params.width)
        flows.append(Flow(k + 1, period, period, length, int(fraction * period), src, dst,
                          select_ring(topology, src, dst)))
    return Flowset(tuple(flows), topology)


@st.composite
def generator_params(draw):
    def bounds(values):
        lo, hi = sorted((draw(values), draw(values)))
        return (lo, lo) if draw(st.booleans()) else (lo, hi)

    # Small periods give narrow widths, which the rejection loop often
    # redraws; large ones draw more than 32 bits at a time.
    periods = st.one_of(st.integers(1, 70), st.integers(1, 2**40))
    return BenchmarkParams(
        flows_per_set=draw(st.integers(0, 60)),
        width=draw(st.integers(2, 6)),
        height=draw(st.integers(2, 6)),
        packet_range=bounds(st.integers(1, MAX_PACKET_LENGTH)),
        period_range=bounds(periods),
        jitter_fraction_range=bounds(st.one_of(st.integers(0, 1), st.floats(0, 1))),
        seed=draw(st.one_of(st.integers(-2**70, 2**70), st.integers(2**64, 2**80))),
    )


class TestGenerator:
    @settings(max_examples=150, deadline=None)
    @given(params=generator_params())
    def test_inlined_draws_equal_the_randint_reference(self, params):
        assert generate_flowset(params) == randint_flowset(params)

    def test_deterministic(self):
        params = BenchmarkParams(flows_per_set=30, seed=99)
        a = generate_flowset(params)
        b = generate_flowset(params)
        assert a.flows == b.flows

    def test_equal_flowsets_hash_equal(self):
        params = BenchmarkParams(flows_per_set=30, seed=99)
        a = generate_flowset(params)
        b = Flowset(a.flows, Topology(4, 4, a.topology.rings))
        assert a.topology is not b.topology
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, generate_flowset(replace(params, seed=98))}) == 2

    def test_prefix_property(self):
        small = generate_flowset(BenchmarkParams(flows_per_set=10, seed=5))
        large = generate_flowset(BenchmarkParams(flows_per_set=25, seed=5))
        assert large.flows[:10] == small.flows

    def test_parameter_ranges(self):
        params = BenchmarkParams(flows_per_set=300, seed=11,
                                 packet_range=(16, 48),
                                 period_range=(1_000, 100_000))
        flowset = generate_flowset(params)
        for f in flowset.flows:
            assert 1_000 <= f.period <= 100_000
            assert f.deadline == f.period
            assert 16 <= f.length <= 48
            assert 0 <= f.jitter <= 0.5 * f.period
            assert f.src != f.dst
            ring = flowset.topology.ring(f.ring)
            assert f.src in ring and f.dst in ring

    @pytest.mark.parametrize("field, value", [
        ("packet_range", (1, 10**6)),
        ("packet_range", (1, MAX_PACKET_LENGTH + 1)),
        ("packet_range", (1.5, 3)),
        ("flows_per_set", 1.5),
        ("flows_per_set", True),
        ("seed", "x"),
        ("period_range", (1.5, 3)),
        ("period_range", ("a", "b")),
        ("period_range", (True, 3)),
        ("period_range", (0, 3)),
        ("jitter_fraction_range", ("a", "b")),
        ("jitter_fraction_range", (True, 0.5)),
        ("jitter_fraction_range", (0.0, 1.5)),
        ("flows_per_set", -1),
    ])
    def test_params_reject_a_bad_field_naming_it(self, field, value):
        with pytest.raises(TrafficError, match=field):
            BenchmarkParams(**{"flows_per_set": 3, field: value})
        assert BenchmarkParams(flows_per_set=3, packet_range=(1, MAX_PACKET_LENGTH))

    def test_packet_sizes_uniform_within_three_sigma(self):
        # 10000 draws over 33 equiprobable bins against the multinomial law.
        params = BenchmarkParams(flows_per_set=10_000, seed=2, packet_range=(16, 48))
        flowset = generate_flowset(params)
        counts = {}
        for f in flowset.flows:
            counts[f.length] = counts.get(f.length, 0) + 1
        n, bins = 10_000, 33
        expected = n / bins
        sigma = math.sqrt(n * (1 / bins) * (1 - 1 / bins))
        for size in range(16, 49):
            assert abs(counts.get(size, 0) - expected) <= 3 * sigma, size

    def test_microsecond_scale_periods(self):
        # 1-100 us at 1 GHz means 1000-100000 cycles.
        params = BenchmarkParams(flows_per_set=50, seed=7)
        assert params.period_range == (1_000, 100_000)


class TestFlowsetValidation:
    def test_deadline_greater_than_period_rejected(self, six_ring_topology):
        with pytest.raises(TrafficError):
            build_flowset(six_ring_topology,
                          make_flow(1, (0, 0), (1, 0), period=100, deadline=200))

    def test_equal_endpoints_rejected(self, six_ring_topology):
        with pytest.raises(TrafficError):
            build_flowset(six_ring_topology, make_flow(1, (0, 0), (0, 0)))

    def test_duplicate_ids_rejected(self, six_ring_topology):
        with pytest.raises(TrafficError):
            build_flowset(six_ring_topology,
                          make_flow(1, (0, 0), (1, 0)),
                          make_flow(1, (1, 0), (0, 0)))

    def test_ring_must_contain_endpoints(self, ten_ring_fixture):
        with pytest.raises(TrafficError):
            build_flowset(ten_ring_fixture, make_flow(1, (0, 0), (0, 3), ring=0))

    def test_unknown_ring_rejected_naming_flow_and_ring(self, six_ring_topology):
        with pytest.raises(TrafficError, match=r"flow 7: topology has no ring 99"):
            build_flowset(six_ring_topology, make_flow(7, (0, 0), (1, 0), ring=99))

    @pytest.mark.parametrize("changes,message", [
        ({"id": True}, "flow id must be an integer"),
        ({"id": 1.0}, "flow id must be an integer"),
        ({"period": 10_000.0}, "flow 1: 'T' must be an integer"),
        ({"deadline": 9_000.5}, "flow 1: 'D' must be an integer"),
        ({"length": 8.5}, "flow 1: 'L' must be an integer"),
        ({"jitter": False}, "flow 1: 'J' must be an integer"),
        ({"src": (0, 0)}, "flow 1: 'src' must be a Coord"),
        ({"dst": (1, 0)}, "flow 1: 'dst' must be a Coord"),
        ({"ring": False}, "flow 1: 'ring' must name a ring"),
    ], ids=["bool_id", "float_id", "float_period", "float_deadline", "float_length",
            "bool_jitter", "tuple_src", "tuple_dst", "bool_ring"])
    def test_api_flows_are_type_checked_like_file_flows(self, six_ring_topology, changes,
                                                        message):
        # A float T or L would make the bounds fractional, a tuple endpoint
        # has no .row for the simulator, and ring False would index ring 0.
        flow = replace(make_flow(1, (0, 0), (1, 0)), **changes)
        with pytest.raises(TrafficError, match=message):
            build_flowset(six_ring_topology, flow)

    def test_packet_length_is_bounded(self, six_ring_topology):
        # One check in the constructor covers code-built and loaded flowsets
        # alike; generation parameters over the limit are refused before any
        # flow is drawn.
        longest = make_flow(1, (0, 0), (1, 0), length=MAX_PACKET_LENGTH)
        assert build_flowset(six_ring_topology, longest).flows == (longest,)
        message = (f"^flow 1: packet length must be from 1 to {MAX_PACKET_LENGTH} flits, "
                   f"got {MAX_PACKET_LENGTH + 1}$")
        with pytest.raises(TrafficError, match=message):
            build_flowset(six_ring_topology, replace(longest, length=MAX_PACKET_LENGTH + 1))
        over = (MAX_PACKET_LENGTH + 1, MAX_PACKET_LENGTH + 1)
        with pytest.raises(TrafficError, match=f"^packet_range .* got {re.escape(repr(over))}$"):
            generate_flowset(BenchmarkParams(flows_per_set=1, packet_range=over))
        doc = flowset_to_doc(build_flowset(six_ring_topology, longest))
        doc["flows"][0]["L"] += 1
        with pytest.raises(TrafficError, match=message):
            load_flowset(doc, six_ring_topology)

    def test_flow_count_is_bounded(self, six_ring_topology, monkeypatch):
        # Generation parameters are checked before any flow is drawn, a
        # document before any of its flows is read, and a flowset built in
        # code by its constructor.
        message = f"^flows_per_set must be from 0 to {MAX_FLOWS}, got {MAX_FLOWS + 1}$"
        with pytest.raises(TrafficError, match=message):
            generate_flowset(BenchmarkParams(flows_per_set=MAX_FLOWS + 1))
        monkeypatch.setattr("rlnoc.traffic.MAX_FLOWS", 2)
        flows = tuple(make_flow(fid, (0, 0), (1, 0)) for fid in range(1, 4))
        assert build_flowset(six_ring_topology, *flows[:2]).flows == flows[:2]
        message = "^a flowset holds at most 2 flows, got 3$"
        with pytest.raises(TrafficError, match=message):
            build_flowset(six_ring_topology, *flows)
        with pytest.raises(TrafficError, match=message):
            load_flowset({"width": 3, "height": 2, "flows": [{}, {}, {}]})
        with pytest.raises(TrafficError, match="flows_per_set"):
            BenchmarkParams(flows_per_set=3)


class TestFlowsetFiles:
    def test_roundtrip(self, five_flow_fixture):
        doc = flowset_to_doc(five_flow_fixture, seed=1, embed_topology=True)
        again = load_flowset(doc)
        assert again.flows == five_flow_fixture.flows

    def test_ring_recomputed_when_absent(self, six_ring_topology):
        doc = {"width": 3, "height": 2, "flows": [
            {"id": 1, "T": 100, "D": 100, "L": 4, "J": 0, "src": [0, 0], "dst": [2, 0]}]}
        flowset = load_flowset(doc, six_ring_topology)
        assert flowset.flows[0].ring == 0

    def test_unknown_fields_rejected(self):
        with pytest.raises(TrafficError):
            load_flowset({"width": 2, "height": 2, "flows": [], "junk": 1})
        with pytest.raises(TrafficError):
            load_flowset({"width": 2, "height": 2, "flows": [
                {"id": 1, "T": 10, "D": 10, "L": 1, "J": 0,
                 "src": [0, 0], "dst": [1, 0], "priority": 3}]})

    def test_seed_must_be_an_integer(self, six_ring_topology):
        doc = flowset_to_doc(Flowset((), six_ring_topology), seed=7)
        assert load_flowset(doc).flows == ()
        for bad in ("x", True, 1.5, None):
            doc["seed"] = bad
            with pytest.raises(TrafficError, match="field 'seed' must be an integer"):
                load_flowset(doc)

    def test_grid_size_must_match_the_topology(self, six_ring_topology):
        doc = flowset_to_doc(Flowset((), six_ring_topology), embed_topology=True)
        doc.update(width=9, height=9)
        with pytest.raises(TrafficError, match="field 'width' is 9, but the topology is 3x2"):
            load_flowset(doc)
        del doc["topology"]
        with pytest.raises(TrafficError, match="field 'width' is 9, but the topology is 3x2"):
            load_flowset(doc, six_ring_topology)
        doc["width"] = 3
        with pytest.raises(TrafficError, match="field 'height' is 9, but the topology is 3x2"):
            load_flowset(doc, six_ring_topology)

    def test_generated_topology_fallback(self):
        doc = {"width": 2, "height": 2, "flows": [
            {"id": 1, "T": 50, "D": 50, "L": 2, "J": 0, "src": [0, 0], "dst": [1, 1]}]}
        flowset = load_flowset(doc)
        assert flowset.topology.width == 2
        assert flowset.flows[0].ring == 0

    def test_fallback_is_the_shared_generated_topology(self):
        flowset = load_flowset({"width": 3, "height": 2, "flows": []})
        assert flowset.topology is generate_multi_ring(3, 2)
        assert generate_multi_ring(4, 4) is generate_multi_ring(4, 4)

    def test_saved_file_is_the_indented_document(self, tmp_path):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=10, seed=3))
        path = tmp_path / "flowset.json"
        save_flowset_file(flowset, str(path))
        assert (path.read_text(encoding="utf-8")
                == json.dumps(flowset_to_doc(flowset), indent=2) + "\n")
        assert load_flowset_file(str(path)) == flowset


@st.composite
def file_flowsets(draw):
    """A small generated flowset and whether its file embeds the topology;
    an embedded topology may carry a buffer-capacity override."""
    width, height = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    topology = generate_multi_ring(width, height)
    embed = draw(st.booleans())
    if embed and draw(st.booleans()):
        target = draw(st.sampled_from([ring.id for ring in topology.rings]))
        capacity = draw(st.integers(1, 64))
        topology = Topology(width, height, tuple(
            replace(ring, buffer_capacity=capacity) if ring.id == target else ring
            for ring in topology.rings))
    params = BenchmarkParams(flows_per_set=draw(st.integers(0, 12)), width=width,
                             height=height, seed=draw(st.integers(0, 2**16)))
    return Flowset(generate_flowset(params).flows, topology), embed


class TestFlowsetFileProperty:
    @settings(max_examples=100, deadline=None)
    @given(case=file_flowsets(), seed=st.one_of(st.none(), st.integers(0, 2**31)))
    def test_json_round_trip_is_lossless(self, case, seed):
        flowset, embed = case
        doc = json.loads(json.dumps(flowset_to_doc(flowset, seed, embed_topology=embed)))
        assert load_flowset(doc) == flowset
