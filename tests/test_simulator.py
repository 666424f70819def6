import random
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_flowset, make_flow, no_load
from rlnoc.analysis import AnalysisConfig, AnalysisError, analyze, parse_profile
from rlnoc.harness import find_schedulable_flowset
from rlnoc.seeds import derive_seed
from rlnoc.simulator import (
    MAX_RELEASES,
    FlowStats,
    SimConfig,
    oracle_check,
    outcome_to_csv,
    simulate,
    _release_schedule,
)
from rlnoc.topology import generate_multi_ring, select_ring
from rlnoc.traffic import MAX_PACKET_LENGTH, BenchmarkParams, Flowset, generate_flowset

SHARED = AnalysisConfig(injection="shared", maxloop="oldest_first")
INDEPENDENT = AnalysisConfig(injection="independent", maxloop=0)


def periodic_releases(fid, first, period, horizon):
    """An explicit schedule: one flow's releases at first + n*period below
    the horizon."""
    return tuple((t, fid) for t in range(first, horizon, period))


def closed_form_equals_traced(flowset, cfg, hw, stepped=None):
    """Run in closed form and traced: both must agree, and the closed form
    must step exactly `stepped` cycles, or no more than the traced run when
    `stepped` is None. Returns the closed-form outcome."""
    fast = simulate(flowset, cfg, hw)
    slow = simulate(flowset, replace(cfg, collect_trace=True), hw)
    assert fast.digest == slow.digest
    assert (fast.drained, fast.released, fast.delivered) == \
        (slow.drained, slow.released, slow.delivered)
    assert fast.deflections == slow.deflections
    assert (fast.flits_injected, fast.flits_ejected) == \
        (slow.flits_injected, slow.flits_ejected)
    assert fast.per_flow == slow.per_flow
    if stepped is None:
        assert fast.stepped_cycles <= slow.stepped_cycles
    else:
        assert fast.stepped_cycles == stepped
    return fast


class TestCalibration:
    @pytest.mark.parametrize("release", ["sporadic", "periodic"])
    def test_uncontended_latency_is_constant_and_below_no_load(self, release,
                                                               six_ring_topology):
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (2, 0), (0, 0), period=700,
                                          length=8, jitter=60))
        out = simulate(flowset, SimConfig(seed=5, horizon=50_000, release=release),
                       SHARED)
        stats = out.per_flow[1]
        expect = no_load(flowset, 1) - 1
        assert stats.max_latency == expect
        assert stats.mean_latency == expect
        assert stats.max_latency <= no_load(flowset, 1) + 1

    def test_stepped_cycles_count_only_simulated_cycles(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (2, 0), (0, 0), period=700, length=8))
        cfg = SimConfig(seed=5, horizon=50_000)
        fast = simulate(flowset, cfg, SHARED)
        slow = simulate(flowset, replace(cfg, collect_trace=True), SHARED)
        assert fast.digest == slow.digest
        # Every uncontended packet is fast-forwarded; stepping runs each one
        # from its release to the cycle its last flit is ejected.
        assert fast.stepped_cycles == 0
        latency = slow.per_flow[1].max_latency
        assert slow.stepped_cycles == slow.released * (latency + 1)

    def test_independent_worms_are_never_stepped(self):
        # Different rings, sources and destinations: the packets overlap in
        # time but cannot touch, so the engine jumps over every cycle.
        topo = generate_multi_ring(3, 2)
        flowset = Flowset((make_flow(1, (0, 0), (0, 1), ring=1, period=500, length=40),
                           make_flow(2, (1, 0), (2, 1), ring=2, period=500, length=40)),
                          topo)
        cfg = SimConfig(horizon=2_000, release=periodic_releases(1, 0, 500, 2_000)
                        + periodic_releases(2, 5, 500, 2_000))
        fast = simulate(flowset, cfg, SHARED)
        slow = simulate(flowset, replace(cfg, collect_trace=True), SHARED)
        assert fast.stepped_cycles == 0
        assert fast.digest == slow.digest
        for flow in flowset.flows:
            assert fast.per_flow[flow.id].max_latency == no_load(flowset, flow.id) - 1

    def test_shared_injection_queue_stays_closed_form(self, six_ring_topology):
        # The second packet queues behind the first, still injecting, at the
        # same core. Its header follows the first packet's last flit out of
        # the port, and the two never touch after that, so nothing is stepped.
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 0), period=1_000, length=12),
                                make_flow(2, (0, 0), (1, 1), period=1_000, length=12))
        cfg = SimConfig(horizon=3_000, release=((0, 1), (3, 2), (1_000, 1), (1_003, 2),
                                                (2_000, 1), (2_003, 2)))
        fast = simulate(flowset, cfg, SHARED)
        slow = simulate(flowset, replace(cfg, collect_trace=True), SHARED)
        assert fast.stepped_cycles == 0 < slow.stepped_cycles
        assert fast.digest == slow.digest
        # Released at 3, its header leaves at 12, four hops before its 12 flits.
        assert fast.per_flow[2].max_latency == 12 + 4 + 12 - 1 - 3

    def test_lone_queued_release_among_solo_releases_stays_closed_form(
            self, six_ring_topology):
        # The same shared queue, but only the release at 2003 queues behind
        # another packet; every other release finds the queue empty. That one
        # queue wait is settled in closed form like the solo releases around
        # it, so the fast run steps no cycle where the traced run steps 98.
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 0), period=1_000, length=12),
                                make_flow(2, (0, 0), (1, 1), period=10_000, length=12))
        cfg = SimConfig(horizon=6_000,
                        release=periodic_releases(1, 0, 1_000, 6_000) + ((2_003, 2),))
        fast = simulate(flowset, cfg, SHARED)
        slow = simulate(flowset, replace(cfg, collect_trace=True), SHARED)
        assert fast.digest == slow.digest
        assert (fast.released, slow.stepped_cycles) == (7, 98)
        assert fast.stepped_cycles == 0

    def test_every_topology_and_path_shape(self):
        topo = generate_multi_ring(4, 4)
        for seed, (src, dst) in enumerate([((0, 0), (3, 3)), ((2, 1), (2, 0)),
                                           ((3, 0), (0, 0))]):
            ring = select_ring(topo, src, dst)
            flowset = Flowset((make_flow(1, src, dst, period=2_000, length=17,
                                         ring=ring),), topo)
            out = simulate(flowset, SimConfig(seed=seed, horizon=30_000), INDEPENDENT)
            assert out.per_flow[1].max_latency == no_load(flowset, 1) - 1


LAYOUTS = [AnalysisConfig(injection=injection, maxloop=maxloop)
           for injection in ("independent", "shared")
           for maxloop in (0, 1, 2, "oldest_first")]


@st.composite
def passing_flows(draw):
    """Two or three flows with an explicit schedule. Flows 1 and 2 share a
    ring of a small grid: flow 1 passes flow 2's source and then its
    destination, so flow 2 can hold flow 1's flits in its packet buffer and
    still be delivered first. A third flow, when drawn, runs anywhere."""
    topo = generate_multi_ring(*draw(st.sampled_from(((3, 3), (4, 3), (4, 4)))))
    ring = draw(st.sampled_from([r for r in topo.rings if r.size >= 4]))
    turn = draw(st.integers(0, ring.size - 1))
    spots = sorted(draw(st.lists(st.integers(0, ring.size - 1), min_size=4, max_size=4,
                                 unique=True)))
    src, x, dst_2, dst = (tuple(ring.switches[(p + turn) % ring.size]) for p in spots)
    lengths = st.integers(1, 24)
    flows = [make_flow(1, src, dst, ring=ring.id, length=draw(lengths)),
             make_flow(2, x, dst_2, ring=ring.id, length=draw(lengths))]
    if draw(st.booleans()):
        cores = [(col, row) for col in range(topo.width) for row in range(topo.height)]
        a, b = draw(st.lists(st.sampled_from(cores), min_size=2, max_size=2, unique=True))
        flows.append(make_flow(3, a, b, ring=select_ring(topo, a, b), length=draw(lengths)))
    # Flow 2 often before flow 1's header reaches its source, else at most
    # flow 1's length plus hops after it, then a few releases of any flow.
    offsets = st.one_of(st.integers(0, spots[1] - spots[0]), st.integers(0, 24 + ring.size))
    releases = [(0, 1), (draw(offsets), 2)] + draw(st.lists(
        st.tuples(st.integers(0, 60), st.sampled_from([f.id for f in flows])), max_size=4))
    return Flowset(tuple(flows), topo), SimConfig(horizon=100, release=tuple(releases))


class TestClosedFormAdmission:
    """Releases whose flits never touch a live worm's stay closed form, even
    when they wait for a queue or a passing worm, and releases whose flits
    do touch are stepped; each scenario is checked against the traced run."""

    def test_queue_chain_behind_a_header_only_packet(self):
        # Shared injection at (0, 0), which rings 0 and 1 both pass: the
        # header-only packet leaves at 0 and is dequeued in that cycle's
        # header phase, so the next head, on ring 1, sends its header at 1.
        # The third, released at 1, waits for that packet's last flit to
        # leave at 8 and sends its header at 8 on ring 0.
        topo = generate_multi_ring(3, 2)
        flowset = Flowset((make_flow(1, (0, 0), (1, 0), ring=0, period=10_000, length=1),
                           make_flow(2, (0, 0), (0, 1), ring=1, period=10_000, length=8),
                           make_flow(3, (0, 0), (2, 0), ring=0, period=10_000, length=4)),
                          topo)
        cfg = SimConfig(horizon=100, release=((0, 1), (0, 2), (1, 3)))
        # Independent injection gives each ring its own queue: flow 2 sends
        # at 0, and flow 3 at 1, behind flow 1 on ring 0.
        for hw, (h2, h3) in ((SHARED, (1, 8)), (INDEPENDENT, (0, 1))):
            out = closed_form_equals_traced(flowset, cfg, hw, stepped=0)
            assert {fid: s.max_latency for fid, s in out.per_flow.items()} == \
                {1: 1, 2: h2 + 3 + 8 - 1, 3: h3 + 2 + 4 - 1 - 1}

    def test_shared_queue_head_injects_in_its_predecessors_last_flit_cycle(self):
        # Shared injection at (0, 0): the second packet, on another ring,
        # is dequeued as the first sends its last flit at 9 and sends its
        # header in that same cycle.
        topo = generate_multi_ring(3, 2)
        flowset = Flowset((make_flow(1, (0, 0), (2, 0), ring=0, period=10_000, length=10),
                           make_flow(2, (0, 0), (0, 1), ring=1, period=10_000, length=4)),
                          topo)
        cfg = SimConfig(horizon=100, release=((0, 1), (2, 2)))
        out = closed_form_equals_traced(flowset, cfg, SHARED, stepped=0)
        assert out.per_flow[1].max_latency == no_load(flowset, 1) - 1
        assert out.per_flow[2].max_latency == 9 + 3 + 4 - 1 - 2

    def test_header_held_back_by_a_passing_worm(self, six_ring_topology):
        # Flow 1's six flits pass (1, 0)'s port in cycles 1 to 6; flow 2,
        # released there at 2, sends its header at 7, after the tail.
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 1), period=10_000, length=6),
                                make_flow(2, (1, 0), (2, 0), period=10_000, length=3))
        cfg = SimConfig(horizon=100, release=((0, 1), (2, 2)))
        for hw in (SHARED, INDEPENDENT):
            out = closed_form_equals_traced(flowset, cfg, hw, stepped=0)
            assert out.per_flow[1].max_latency == no_load(flowset, 1) - 1
            assert out.per_flow[2].max_latency == 7 + 1 + 3 - 1 - 2

    def test_payload_injection_hit_by_a_passing_worm_is_stepped(self, six_ring_topology):
        # Flow 2 injects its payload at (1, 0) in cycles 1 to 5 when flow
        # 1's header arrives there, so flow 1's flits wait in the packet
        # buffer: the two touch and those cycles are stepped, until flow 2
        # is delivered at 6. Flow 1, two flits still buffered, then goes back
        # to closed form, and flow 2's later releases run alone.
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 1), period=10_000, length=3),
                                make_flow(2, (1, 0), (2, 0), period=1_000, length=6))
        cfg = SimConfig(horizon=5_000,
                        release=((0, 1),) + periodic_releases(2, 0, 1_000, 5_000))
        out = closed_form_equals_traced(flowset, cfg, SHARED, stepped=7)
        # Buffered in cycles 1 to 3, flow 1's flits leave (1, 0) at 6 to 8.
        assert out.per_flow[1].max_latency == 10 > no_load(flowset, 1) - 1
        assert out.per_flow[2].max_latency == no_load(flowset, 2) - 1
        assert out.released == 6

    def test_flow_whose_every_release_queues_has_no_solo_packet(self, six_ring_topology):
        # Each release of flow 2 comes 3 cycles after one of flow 1 at the
        # same shared queue, which is still injecting, so no packet of flow
        # 2 meets an idle queue: its statistics come from its own packets
        # only. Each sends its header at 12 after the band of flow 1 passes
        # the port, four hops before its 12 flits.
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 0), period=1_000, length=12),
                                make_flow(2, (0, 0), (1, 1), period=1_000, length=12))
        cfg = SimConfig(horizon=6_000, release=periodic_releases(1, 0, 1_000, 6_000)
                        + periodic_releases(2, 3, 1_000, 6_000))
        out = closed_form_equals_traced(flowset, cfg, SHARED, stepped=0)
        stats = out.per_flow[2]
        assert (stats.packets, stats.max_latency, stats.mean_latency) == \
            (6, 12 + 4 + 12 - 1 - 3, 24.0)
        assert min(stats.max_latency, stats.mean_latency) > no_load(flowset, 2) - 1
        assert out.per_flow[1] == FlowStats(6, no_load(flowset, 1) - 1,
                                            no_load(flowset, 1) - 1, 0)

    @pytest.mark.parametrize("name", ["OF_IU_SI", "2D_IU_SI"])
    def test_ejection_link_boundary_across_rings(self, name):
        # Flows 1 and 2 reach (1, 1) over rings 7 and 2, two and four hops
        # from their sources, and share its ejection link. Flow 1, released
        # at 0, ejects in cycles 2 to 9; flow 2, released at every offset
        # from 0 to 39, ejects from offset + 4 on. Their intervals meet up to
        # offset 5 and are adjacent at 6, so a live interval kept one cycle
        # short or long admits or refuses a release that stepping would not.
        topo = generate_multi_ring(4, 4)
        flowset = Flowset((make_flow(1, (0, 0), (1, 1), ring=7, length=8),
                           make_flow(2, (2, 0), (1, 1), ring=2, length=8)), topo)
        config = parse_profile(name)
        link = flowset.index.links(config.maxloop)
        assert link[1] == link[2]
        deflections = [
            closed_form_equals_traced(
                flowset, SimConfig(horizon=100, release=((0, 1), (offset, 2))), config
            ).deflections
            for offset in range(40)]
        assert deflections == [1] * 6 + [0] * 34

    @pytest.mark.parametrize("name", ["0D_IU_SI", "1D_IU_SI"])
    def test_buffered_worm_at_every_offset(self, name):
        # On the 12-switch outer ring, flow 1 runs nine hops from (0, 0) to
        # (0, 3), its header passing (3, 2), five hops on, at 5; flow 2 runs
        # two hops from (3, 2) to (2, 3). Released at an offset o from 0 to
        # 4, flow 2 injects there when flow 1's header arrives, so flow 1's
        # flits wait in the packet buffer, o + 3 of them, and leave o + 3
        # cycles late. Flow 2 is delivered at o + 9, and flow 1, still
        # injecting for o < 2, goes back to closed form with its buffer. Flow
        # 3, released at 15 one switch past flow 1's destination, touches
        # neither but makes the engine rebuild the buffered worm. Stepping on
        # until the buffer drained took 20 cycles at each of those offsets.
        # From 5 on, flow 2 waits for flow 1's tail, and nothing is stepped.
        topo = generate_multi_ring(4, 4)
        flowset = Flowset((make_flow(1, (0, 0), (0, 3), ring=0, length=12),
                           make_flow(2, (3, 2), (2, 3), ring=0, length=8),
                           make_flow(3, (0, 2), (0, 1), ring=0, length=4)), topo)
        runs = [closed_form_equals_traced(
                    flowset, SimConfig(horizon=100, release=((0, 1), (offset, 2), (15, 3))),
                    parse_profile(name))
                for offset in range(12 + 9 + 1)]
        assert [out.per_flow[1].max_latency for out in runs[:6]] == [23, 24, 25, 26, 27, 20]
        assert [out.stepped_cycles for out in runs] == [15] * 5 + [0] * 17

    @settings(max_examples=150, deadline=None)
    @given(case=passing_flows(), hw=st.sampled_from(LAYOUTS))
    def test_buffered_worms_equal_stepping(self, case, hw):
        closed_form_equals_traced(*case, hw)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=40, seed=8))
        cfg = SimConfig(seed=12, horizon=200_000)
        a = simulate(flowset, cfg, SHARED)
        b = simulate(flowset, cfg, SHARED)
        assert a.digest == b.digest
        assert a.per_flow == b.per_flow

    def test_different_seed_changes_schedule(self):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=40, seed=8))
        a = simulate(flowset, SimConfig(seed=1, horizon=200_000), SHARED)
        b = simulate(flowset, SimConfig(seed=2, horizon=200_000), SHARED)
        assert a.digest != b.digest

    @pytest.mark.parametrize("seed", [0, 3])
    def test_fast_forward_matches_cycle_accurate(self, seed):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=35, seed=14,
                                                   period_range=(400, 4_000)))
        fast = simulate(flowset, SimConfig(seed=seed, horizon=60_000), SHARED)
        slow = simulate(flowset, SimConfig(seed=seed, horizon=60_000,
                                           collect_trace=True), SHARED)
        assert fast.digest == slow.digest
        assert fast.per_flow == slow.per_flow
        assert fast.deflections == slow.deflections


@st.composite
def small_flowsets(draw):
    width = draw(st.sampled_from((2, 3)))
    topo = generate_multi_ring(width, width)
    cores = [(col, row) for col in range(width) for row in range(width)]
    # Flows converge on one core half the time, so that shared ejection
    # links deflect packets.
    hot = draw(st.sampled_from(cores))
    flows = []
    for fid in range(1, draw(st.integers(1, 12)) + 1):
        dst = hot if draw(st.booleans()) else draw(st.sampled_from(cores))
        src = draw(st.sampled_from([core for core in cores if core != dst]))
        period = draw(st.integers(10, 200))
        # Packets up to 64 flits outlast the rings and many release gaps, so
        # jumps land mid-injection and after deflection loops.
        flows.append(make_flow(fid, src, dst, ring=select_ring(topo, src, dst),
                               period=period, length=draw(st.integers(1, 64)),
                               jitter=draw(st.integers(0, period // 2))))
    return Flowset(tuple(flows), topo)


@st.composite
def clustered_flowsets(draw):
    width = draw(st.sampled_from((2, 3)))
    topo = generate_multi_ring(width, width)
    cores = [(col, row) for col in range(width) for row in range(width)]
    # Every flow starts at one of one or two cores, so packets chain in
    # their queues, and one core's worms pass the other's port and hold
    # back its headers.
    sources = draw(st.lists(st.sampled_from(cores), min_size=1, max_size=2, unique=True))
    flows = []
    for fid in range(1, draw(st.integers(1, 10)) + 1):
        src = draw(st.sampled_from(sources))
        dst = draw(st.sampled_from([core for core in cores if core != src]))
        period = draw(st.integers(10, 300))
        flows.append(make_flow(fid, src, dst, ring=select_ring(topo, src, dst),
                               period=period, length=draw(st.integers(1, 24)),
                               jitter=draw(st.integers(0, period // 2))))
    return Flowset(tuple(flows), topo)


@st.composite
def sparse_flowsets(draw):
    width = draw(st.sampled_from((2, 3)))
    topo = generate_multi_ring(width, width)
    cores = [(col, row) for col in range(width) for row in range(width)]
    # Long periods make most releases meet an idle ring, link and queue, and
    # a few meet live worms, so runs admit packets at their release cycle,
    # admit them later, and step.
    flows = []
    for fid in range(1, draw(st.integers(1, 12)) + 1):
        src, dst = draw(st.lists(st.sampled_from(cores), min_size=2, max_size=2,
                                 unique=True))
        period = draw(st.integers(500, 5_000))
        flows.append(make_flow(fid, src, dst, ring=select_ring(topo, src, dst),
                               period=period, length=draw(st.integers(1, 64)),
                               jitter=draw(st.integers(0, period // 2))))
    return Flowset(tuple(flows), topo)


RUNS = dict(hw=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**16),
            horizon=st.integers(100, 2_000), release=st.sampled_from(("periodic", "sporadic")))


class TestFastForwardProperty:
    @staticmethod
    def check(flowset, hw, seed, horizon, release):
        closed_form_equals_traced(flowset, SimConfig(seed=seed, horizon=horizon,
                                                     release=release), hw)

    @settings(max_examples=150, deadline=None)
    @given(flowset=small_flowsets(), **RUNS)
    def test_fast_forward_equals_stepping(self, flowset, hw, seed, horizon, release):
        self.check(flowset, hw, seed, horizon, release)

    @settings(max_examples=100, deadline=None)
    @given(flowset=clustered_flowsets(), **RUNS)
    def test_queue_chains_and_held_headers_equal_stepping(self, flowset, hw, seed,
                                                          horizon, release):
        self.check(flowset, hw, seed, horizon, release)

    @settings(max_examples=100, deadline=None)
    @given(flowset=sparse_flowsets(), **dict(RUNS, horizon=st.integers(100, 20_000)))
    def test_sparse_solo_releases_equal_stepping(self, flowset, hw, seed, horizon, release):
        self.check(flowset, hw, seed, horizon, release)


CAMPAIGN_SEED = 20260808
# Stepped cycles of each criterion-2 style run below in closed form: they
# move if the engine clashes, materialises or hands back at other cycles.
CAMPAIGN_STEPPED = {
    ("0D_IU_II", "sporadic"): 35, ("0D_IU_II", "periodic"): 31,
    ("0D_IU_SI", "sporadic"): 20, ("0D_IU_SI", "periodic"): 24,
    ("1D_IU_SI", "sporadic"): 0, ("1D_IU_SI", "periodic"): 66,
}


class TestCampaignShape:
    @pytest.mark.parametrize("name,release", sorted(CAMPAIGN_STEPPED))
    def test_closed_form_equals_the_traced_run(self, name, release):
        # The criterion-2 campaign's second flowset per configuration (40
        # flows on the 4x4 grid) and its first two runs, over the 1M-cycle
        # window, where releases share rings, ejection links and queues
        # with live worms, and some of their flits touch.
        config = parse_profile(name)
        flowset, _, _ = find_schedulable_flowset(
            BenchmarkParams(flows_per_set=40), config, derive_seed(CAMPAIGN_SEED, name, 1),
            max_attempts=500)
        k = 0 if release == "sporadic" else 1
        cfg = SimConfig(seed=derive_seed(CAMPAIGN_SEED, "sim", name, 1, k),
                        horizon=1_000_000, release=release)
        fast = simulate(flowset, cfg, config)
        slow = simulate(flowset, replace(cfg, collect_trace=True), config)
        assert fast.digest == slow.digest
        assert fast.per_flow == slow.per_flow
        assert (fast.released, fast.delivered, fast.deflections) == \
            (slow.released, slow.delivered, slow.deflections)
        assert (fast.flits_injected, fast.flits_ejected) == \
            (slow.flits_injected, slow.flits_ejected)
        assert fast.stepped_cycles == CAMPAIGN_STEPPED[(name, release)]
        assert fast.stepped_cycles < slow.stepped_cycles


class TestConservation:
    @pytest.mark.parametrize("hw", [SHARED, INDEPENDENT,
                                    AnalysisConfig(injection="shared", maxloop=2)])
    def test_every_flit_is_delivered_exactly_once(self, hw):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=30, seed=4,
                                                   period_range=(500, 5_000)))
        out = simulate(flowset, SimConfig(seed=9, horizon=100_000), hw)
        assert out.drained
        assert out.released == out.delivered
        assert out.flits_injected == out.flits_ejected
        total_packets = sum(s.packets for s in out.per_flow.values())
        assert total_packets == out.released


def randrange_schedule(flowset, cfg):
    """The release schedule drawn with plain ``randrange`` calls: the
    reference for the engine's inlined draws."""
    out = []
    for f in flowset.flows:
        randrange = random.Random(derive_seed(cfg.seed, "rel", f.id)).randrange
        if cfg.release == "periodic":
            offset = randrange(f.period)
            out += [(base + randrange(f.jitter + 1), f.id)
                    for base in range(offset, cfg.horizon, f.period)]
        else:
            t = randrange(f.period + 1)
            while t < cfg.horizon:
                out.append((t, f.id))
                t += f.period + randrange(f.period + 1)
    return sorted(out)


def drawn_schedule(flowset, cfg):
    """``_release_schedule``'s packed releases as (cycle, flow id) pairs."""
    ids = sorted(f.id for f in flowset.flows)
    shift = len(ids).bit_length()
    return [(r >> shift, ids[r & ((1 << shift) - 1)])
            for r in _release_schedule(flowset, cfg, shift)[0]]


# Small values reach period 1 and jitter 0 (a draw from U[0,1)); large
# ones draw more than 32 bits at a time.
TIMES = st.one_of(st.integers(1, 70), st.integers(1, 2**40))


@st.composite
def release_cases(draw):
    topo = generate_multi_ring(3, 2)
    flows = tuple(make_flow(fid, (0, 0), (2, 0), period=draw(TIMES),
                            jitter=draw(st.one_of(st.just(0), TIMES)))
                  for fid in range(1, draw(st.integers(1, 6)) + 1))
    cfg = SimConfig(seed=draw(st.integers(0, 2**64)), horizon=draw(st.integers(1, 3_000)),
                    release=draw(st.sampled_from(("periodic", "sporadic"))))
    return Flowset(flows, topo), cfg


@st.composite
def explicit_schedules(draw):
    """A flowset and an explicit schedule of its flows' releases, in any
    order: bursts of releases a few cycles apart, one flow several times
    in a cycle among them."""
    flowset = draw(st.one_of(small_flowsets(), clustered_flowsets()))
    horizon = draw(st.integers(1, 2_000))
    flows = st.sampled_from([f.id for f in flowset.flows])
    releases = []
    for start in draw(st.lists(st.integers(0, horizon - 1), min_size=1, max_size=6)):
        releases += [(min(start + draw(st.integers(0, 3)), horizon - 1), draw(flows))
                     for _ in range(draw(st.integers(1, 8)))]
    return flowset, SimConfig(horizon=horizon, release=tuple(draw(st.permutations(releases))))


class TestReleaseSchedule:
    @settings(max_examples=200, deadline=None)
    @given(case=release_cases())
    def test_draws_equal_the_randrange_reference(self, case):
        flowset, cfg = case
        assert drawn_schedule(flowset, cfg) == randrange_schedule(flowset, cfg)

    def test_release_count_is_bounded_before_drawing(self, six_ring_topology, monkeypatch):
        # At most ceil(horizon / T) releases per flow, under either model.
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 0), period=100),
                                make_flow(2, (0, 0), (1, 1), period=300))
        monkeypatch.setattr("rlnoc.simulator.MAX_RELEASES", 14)
        for release in ("periodic", "sporadic"):
            assert simulate(flowset, SimConfig(horizon=1_000, release=release),
                            SHARED).released <= 14
            with pytest.raises(AnalysisError, match="over the limit of 14"):
                simulate(flowset, SimConfig(horizon=1_001, release=release), SHARED)
        # An explicit schedule is bounded by its length, before the engine
        # is built.
        listed = tuple((t, fid) for t in range(0, 700, 100) for fid in (1, 2))
        assert simulate(flowset, SimConfig(horizon=1_000, release=listed),
                        SHARED).released == 14
        monkeypatch.setattr("rlnoc.simulator._Engine", None)
        with pytest.raises(AnalysisError, match="has 15 releases, over the limit of 14"):
            simulate(flowset, SimConfig(horizon=1_000, release=listed + ((999, 1),)), SHARED)

    def test_default_limit_rejects_a_huge_horizon(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology, make_flow(1, (0, 0), (2, 0), period=1))
        simulate(flowset, SimConfig(horizon=20_000), SHARED)
        with pytest.raises(AnalysisError, match=f"limit of {MAX_RELEASES}"):
            simulate(flowset, SimConfig(horizon=MAX_RELEASES + 1), SHARED)

    @pytest.mark.parametrize("sources, horizon, message", [
        ([(0, 0)], 3_000, r"an injection queue of core \(0, 0\) must send 12288000 flits, "
                          r"over the 10006001 cycles"),
        ([(0, 0), (0, 1), (1, 1)], 2_000, r"an ejection link of core \(1, 0\) must eject "
                                          r"24576000 flits, over the 10004001 cycles"),
    ], ids=["queue", "link"])
    def test_undrainable_queue_is_rejected_before_stepping(self, sources, horizon, message):
        # A queue sends and a link ejects one flit per cycle. Periodic
        # releases of the longest packet every cycle owe more flits than the
        # run has cycles to the queue of one flow, or to the Oldest-First link
        # of core (1, 0) that three flows from three cores share.
        topo = generate_multi_ring(2, 2)
        flowset = Flowset(tuple(make_flow(fid, src, (1, 0), period=1, length=MAX_PACKET_LENGTH,
                                          ring=select_ring(topo, src, (1, 0)))
                                for fid, src in enumerate(sources, 1)), topo)
        start = time.perf_counter()
        with pytest.raises(AnalysisError, match=message):
            simulate(flowset, SimConfig(horizon=horizon, release="periodic"), SHARED)
        assert time.perf_counter() - start < 1

    def test_flow_ids_of_any_sign_and_size_keep_their_order(self):
        # Releases are packed by their flow's rank in id order, so ids that
        # are negative, zero or wider than a machine word run as 1, 2, ...
        # would: the same packets in the same order, stepped alike.
        small = generate_flowset(BenchmarkParams(flows_per_set=30, seed=23,
                                                 period_range=(200, 2_000)))
        relabel = {fid: -2**70 + (fid - 1) * 2**66 for fid in range(1, 31)}
        wide = Flowset(tuple(replace(f, id=relabel[f.id]) for f in small.flows),
                       small.topology)
        drawn = SimConfig(seed=5, horizon=4_000, release="periodic")
        # The small flowset's drawn releases, listed under the wide ids.
        listed = tuple((t, relabel[fid]) for t, fid in drawn_schedule(small, drawn))
        listed = SimConfig(horizon=max(t for t, _ in listed) + 1, release=listed)
        for trace in (False, True):
            a = simulate(wide, replace(listed, collect_trace=trace), SHARED)
            b = simulate(small, replace(drawn, collect_trace=trace), SHARED)
            assert a.stepped_cycles == b.stepped_cycles > 0
            assert (a.digest, a.per_flow) == (b.digest, {relabel[fid]: stats for fid, stats
                                                         in b.per_flow.items()})
            assert a.trace == [ev[:3] + (relabel[ev[3]],) if ev[0] == "release" else ev
                               for ev in b.trace]
        # The wide ids seed draws of their own, which run as their listing does.
        own = tuple(drawn_schedule(wide, drawn))
        own = SimConfig(horizon=max(t for t, _ in own) + 1, release=own)
        a, b = simulate(wide, drawn, SHARED), simulate(wide, own, SHARED)
        assert (a.digest, a.per_flow, a.stepped_cycles) == (b.digest, b.per_flow, b.stepped_cycles)

    def test_periodic_jitter_can_release_after_the_horizon(self):
        # Only offset + n*T is kept below the horizon; the jitter added to it
        # can carry the release past, and the packet still runs.
        flowset = generate_flowset(BenchmarkParams(flows_per_set=30, seed=23))
        jitter = {f.id: f.jitter for f in flowset.flows}
        late = []
        for seed in range(5):
            periodic = SimConfig(seed=seed, horizon=20_000, release="periodic")
            releases = drawn_schedule(flowset, periodic)
            late.append(sum(t >= 20_000 for t, _ in releases))
            assert all(t < 20_000 + jitter[fid] for t, fid in releases)
            assert simulate(flowset, periodic, SHARED).released == len(releases)
            sporadic = replace(periodic, release="sporadic")
            assert all(t < 20_000 for t, _ in drawn_schedule(flowset, sporadic))
        assert late == [1, 4, 3, 5, 1]

    def test_offsets_for_every_jitter_free_flow_give_exact_periods(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 0), period=300),
                                make_flow(2, (0, 0), (1, 1), period=500))
        # The periodic model draws each offset below the period.
        drawn = drawn_schedule(flowset, SimConfig(seed=4, horizon=6_000, release="periodic"))
        for f in flowset.flows:
            times = [t for t, fid in drawn if fid == f.id]
            assert times == list(range(times[0], 6_000, f.period)) and times[0] < f.period
        # Listed flow by flow, an explicit schedule is numbered in (cycle,
        # flow id) order, as drawn releases are.
        cfg = SimConfig(horizon=6_000, release=periodic_releases(1, 0, 300, 6_000)
                        + periodic_releases(2, 123, 500, 6_000), collect_trace=True)
        released = [ev[1:] for ev in simulate(flowset, cfg, SHARED).trace if ev[0] == "release"]
        assert [pkt for _, pkt, _ in released] == list(range(len(cfg.release)))
        assert [(t, fid) for t, _, fid in released] == sorted(cfg.release)

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(release_cases(), explicit_schedules()), hw=st.sampled_from(LAYOUTS))
    def test_per_flow_packets_are_the_schedules_release_counts(self, case, hw):
        # Every flow's packet count is its count in the drawn or listed
        # schedule, 0 for a flow it never names.
        flowset, cfg = case
        listed = cfg.release if isinstance(cfg.release, tuple) else drawn_schedule(flowset, cfg)
        counts = Counter(fid for _, fid in listed)
        out = simulate(flowset, cfg, hw)
        assert {fid: stats.packets for fid, stats in out.per_flow.items()} == \
            {f.id: counts[f.id] for f in flowset.flows}
        assert out.released == len(listed)

    @settings(max_examples=60, deadline=None)
    @given(case=explicit_schedules(), hw=st.sampled_from(LAYOUTS))
    def test_explicit_schedules_run_alike_in_closed_form_and_traced(self, case, hw):
        flowset, cfg = case
        closed_form_equals_traced(flowset, cfg, hw)

    @settings(max_examples=150, deadline=None)
    @given(case=explicit_schedules(), hw=st.sampled_from(LAYOUTS), delta=TIMES)
    def test_shifting_every_release_changes_no_statistic(self, case, hw, delta):
        # Only differences of release cycles matter, however large the
        # cycles: a shift up to 2**40 widens the packed releases and moves
        # the drain guard.
        flowset, cfg = case
        shifted = SimConfig(horizon=cfg.horizon + delta,
                            release=tuple((t + delta, fid) for t, fid in cfg.release))
        base = closed_form_equals_traced(flowset, cfg, hw)
        moved = closed_form_equals_traced(flowset, shifted, hw)
        for name in ("per_flow", "deflections", "released", "delivered",
                     "flits_injected", "flits_ejected", "stepped_cycles"):
            assert getattr(base, name) == getattr(moved, name), name

    @settings(max_examples=40, deadline=None)
    @given(flowset=st.one_of(small_flowsets(), sparse_flowsets()), **RUNS,
           shuffle=st.randoms(use_true_random=False))
    def test_a_shuffled_drawn_schedule_reproduces_the_drawn_run(self, flowset, hw, seed,
                                                                 horizon, release, shuffle):
        drawn = SimConfig(seed=seed, horizon=horizon, release=release)
        releases = drawn_schedule(flowset, drawn)
        shuffle.shuffle(releases)
        # Periodic jitter can put a drawn release at or after the horizon,
        # and every listed release lies below it.
        listed = SimConfig(horizon=max([horizon] + [t + 1 for t, _ in releases]),
                           release=tuple(releases))
        a, b = simulate(flowset, drawn, hw), simulate(flowset, listed, hw)
        assert (a.digest, a.per_flow, a.stepped_cycles) == \
            (b.digest, b.per_flow, b.stepped_cycles)


@st.composite
def isolated_flow_cases(draw):
    """A flowset, one more flow that shares no ring, source core or
    destination core with any of its flows, and the flowset with it. The new
    flow's id falls anywhere among theirs, so it moves their ranks."""
    width = draw(st.sampled_from((3, 4)))
    topo = generate_multi_ring(width, width)
    cores = [(col, row) for col in range(width) for row in range(width)]
    src, dst = draw(st.lists(st.sampled_from(cores), min_size=2, max_size=2, unique=True))
    ring = select_ring(topo, src, dst)
    routes = [(a, b, r.id) for r in topo.rings if r.id != ring
              for a in r.switches if a != src for b in r.switches if b not in (a, dst)]
    # Half the flows converge on one core, so that they deflect one another.
    hot = draw(st.sampled_from([core for core in cores if core != dst]))
    hot_routes = [route for route in routes if route[1] == hot] or routes
    flows = []
    for fid in range(1, draw(st.integers(1, 10)) + 1):
        a, b, r = draw(st.sampled_from(hot_routes if draw(st.booleans()) else routes))
        period = draw(st.integers(10, 300))
        flows.append(make_flow(fid, a, b, ring=r, period=period,
                               length=draw(st.integers(1, 32)),
                               jitter=draw(st.integers(0, period // 2))))
    period = draw(st.integers(10, 300))
    fid = draw(st.one_of(st.integers(-3, 0), st.integers(len(flows) + 1, len(flows) + 3)))
    extra = make_flow(fid, src, dst, ring=ring, period=period,
                      length=draw(st.integers(1, 32)), jitter=draw(st.integers(0, period // 2)))
    return Flowset(tuple(flows), topo), extra, Flowset(tuple(flows) + (extra,), topo)


class TestMetamorphicRelations:
    @settings(max_examples=60, deadline=None)
    @given(case=isolated_flow_cases(), hw=st.sampled_from(LAYOUTS),
           seed=st.integers(0, 2**16), horizon=st.integers(100, 1_500),
           release=st.sampled_from(("periodic", "sporadic")))
    def test_an_isolated_flow_changes_no_other_flows_statistics(self, case, hw, seed,
                                                                horizon, release):
        # Drawn releases are seeded by flow id, so the other flows release
        # alike with the new flow or without it, and it runs as it runs
        # alone: no ring, queue or ejection link joins it to them.
        flowset, extra, joined = case
        cfg = SimConfig(seed=seed, horizon=horizon, release=release)
        for trace in (False, True):
            run = replace(cfg, collect_trace=trace)
            both = simulate(joined, run, hw).per_flow
            alone = simulate(Flowset((extra,), flowset.topology), run, hw).per_flow
            assert both == {**simulate(flowset, run, hw).per_flow, **alone}

    @settings(max_examples=60, deadline=None)
    @given(case=explicit_schedules(), hw=st.sampled_from(LAYOUTS),
           ids=st.lists(st.integers(-2**70, 2**70), min_size=12, max_size=12, unique=True))
    def test_increasing_relabelling_changes_no_statistic(self, case, hw, ids):
        # Only the order of flow ids matters, and it breaks ties between
        # simultaneous releases: ids mapped by an increasing function, the
        # explicit schedule mapped alongside, run alike. A drawn schedule is
        # seeded by flow id, so it would not.
        flowset, cfg = case
        relabel = dict(zip(sorted(f.id for f in flowset.flows), sorted(ids)))
        moved = Flowset(tuple(replace(f, id=relabel[f.id]) for f in flowset.flows),
                        flowset.topology)
        listed = replace(cfg, release=tuple((t, relabel[fid]) for t, fid in cfg.release))
        for trace in (False, True):
            a = simulate(flowset, replace(cfg, collect_trace=trace), hw)
            b = simulate(moved, replace(listed, collect_trace=trace), hw)
            assert {relabel[fid]: stats for fid, stats in a.per_flow.items()} == b.per_flow
            for name in ("digest", "released", "delivered", "deflections",
                         "flits_injected", "flits_ejected", "stepped_cycles"):
                assert getattr(a, name) == getattr(b, name), name
            assert [ev[:3] + (relabel[ev[3]],) if ev[0] == "release" else ev
                    for ev in a.trace] == b.trace


class TestSimConfigValidation:
    @pytest.mark.parametrize("fields", [
        {"release": "bogus"}, {"horizon": -5}, {"horizon": 0}, {"horizon": True},
        {"horizon": 1e6}, {"seed": 1.5}, {"seed": True},
        # A schedule is a tuple of (cycle, flow id) pairs of integers, each
        # cycle from 0 to below the horizon.
        {"release": [(0, 1)]}, {"release": (0, 1)}, {"release": ((0, 1, 2),)},
        {"release": ([0, 1],)}, {"release": ((True, 1),)}, {"release": ((0, False),)},
        {"release": ((0.0, 1),)}, {"release": ((0, 1.0),)}, {"release": ((-1, 1),)},
        {"horizon": 10, "release": ((0, 1), (10, 1))},
    ])
    def test_rejects_bad_values(self, fields):
        with pytest.raises(AnalysisError):
            SimConfig(**fields)

    def test_schedule_must_name_flows_of_the_flowset(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology, make_flow(1, (0, 0), (2, 0)))
        cfg = SimConfig(horizon=1_000, release=((0, 1), (5, 12), (7, 9), (9, 12)))
        with pytest.raises(AnalysisError, match=r"unknown flows \[9, 12\]"):
            simulate(flowset, cfg, SHARED)

    def test_a_schedule_config_hashes_and_compares_by_value(self):
        a = SimConfig(horizon=100, release=((0, 1), (5, 2)))
        b = SimConfig(horizon=100, release=tuple([(0, 1), (5, 2)]))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != replace(a, release=((0, 1), (6, 2)))


class TestProtocolRules:
    def test_co_injected_packets_never_interleave(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 0), period=300, length=6),
                                make_flow(2, (0, 0), (1, 1), period=300, length=6))
        cfg = SimConfig(horizon=900, release=((0, 1), (2, 2), (300, 1), (302, 2),
                                              (600, 1), (602, 2)), collect_trace=True)
        out = simulate(flowset, cfg, SHARED)
        port_events = [ev for ev in out.trace
                       if ev[0] == "out" and ev[2] == 0 and ev[3] == 0]
        seen = []
        for ev in port_events:
            if not seen or seen[-1] != ev[4]:
                seen.append(ev[4])
        assert len(seen) == len(set(seen)), seen

    def test_ejection_is_contiguous_in_order_one_flit_per_cycle(self):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=20, seed=16,
                                                   period_range=(300, 2_000)))
        out = simulate(flowset, SimConfig(seed=2, horizon=30_000,
                                          collect_trace=True), SHARED)
        by_packet = {}
        link_cycles = set()
        for ev in out.trace:
            if ev[0] != "eject":
                continue
            _, cycle, ekey, pkt, idx = ev
            assert (ekey, cycle) not in link_cycles, "two flits on one link in a cycle"
            link_cycles.add((ekey, cycle))
            by_packet.setdefault(pkt, []).append((cycle, idx))
        assert by_packet
        for events in by_packet.values():
            cycles = [c for c, _ in events]
            indexes = [i for _, i in events]
            assert indexes == list(range(len(indexes)))
            assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))

    def test_ring_links_carry_at_most_one_flit_per_cycle(self):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=20, seed=17,
                                                   period_range=(300, 2_000)))
        out = simulate(flowset, SimConfig(seed=3, horizon=30_000,
                                          collect_trace=True), SHARED)
        seen = set()
        outputs = 0
        for ev in out.trace:
            if ev[0] != "out":
                continue
            _, cycle, rid, pos, _, _ = ev
            assert (cycle, rid, pos) not in seen
            seen.add((cycle, rid, pos))
            outputs += 1
        assert outputs > 0

    def test_oldest_first_deflection_scenario(self):
        topo = generate_multi_ring(3, 2)
        older = make_flow(1, (0, 1), (1, 1), ring=1, period=100_000, length=3)
        newer = make_flow(2, (2, 0), (1, 1), ring=2, period=100_000, length=3)
        flowset = Flowset((older, newer), topo)
        cfg = SimConfig(horizon=200, release=((0, 1), (1, 2)))
        out = closed_form_equals_traced(flowset, cfg, SHARED, stepped=5)
        # Both headers reach the shared ejection link on the same cycle; the
        # older flow wins, the newer circles its four-switch ring once.
        assert out.per_flow[1].max_deflections == 0
        assert out.per_flow[1].max_latency == 5
        assert out.per_flow[2].max_deflections == 1
        assert out.per_flow[2].max_latency == 8

    def test_denial_during_ongoing_ejection(self):
        topo = generate_multi_ring(3, 2)
        older = make_flow(1, (0, 1), (1, 1), ring=1, period=100_000, length=3)
        newer = make_flow(2, (2, 0), (1, 1), ring=2, period=100_000, length=3)
        flowset = Flowset((older, newer), topo)
        cfg = SimConfig(horizon=200, release=((0, 1), (2, 2)))
        # The newer packet's deflection entry clears a cycle after the older
        # packet is delivered, and only then can the engine hand it back.
        out = closed_form_equals_traced(flowset, cfg, SHARED, stepped=5)
        assert out.per_flow[2].max_deflections == 1

    def test_independent_ejection_never_deflects(self):
        for seed in range(4):
            flowset = generate_flowset(BenchmarkParams(flows_per_set=40, seed=seed,
                                                       period_range=(500, 5_000)))
            out = simulate(flowset, SimConfig(seed=seed, horizon=100_000),
                           AnalysisConfig(injection="shared", maxloop=0))
            assert out.deflections == 0

    def test_per_flow_ejection_links_never_deflect(self):
        topo = generate_multi_ring(3, 2)
        flows = tuple(make_flow(i, src, (1, 1), period=3_000, length=6)
                      for i, src in enumerate([(0, 1), (2, 0), (0, 0), (2, 1)], 1))
        flows = tuple(replace(f, ring=select_ring(topo, f.src, f.dst))
                      for f in flows)
        flowset = Flowset(flows, topo)
        out = simulate(flowset, SimConfig(seed=3, horizon=150_000),
                       AnalysisConfig(injection="shared", maxloop=1))
        assert out.deflections == 0

    def test_long_packets_can_outlast_a_loop_on_a_shared_link(self):
        # A packet longer than the ring holds the link across whole circuits
        # of a denied packet, so the loop count can exceed the number of
        # competing flows: sharing a link caps deflections at no fixed count,
        # and only a link of one flow rules them out.
        topo = generate_multi_ring(3, 2)
        long_flow = make_flow(1, (0, 1), (1, 1), ring=1, period=100_000, length=11)
        victim = make_flow(2, (2, 0), (1, 1), ring=2, period=100_000, length=3)
        flowset = Flowset((long_flow, victim), topo)
        cfg = SimConfig(horizon=400, release=((0, 1), (1, 2)))
        out = closed_form_equals_traced(flowset, cfg, SHARED, stepped=13)
        # Denied on arrival at cycle 3, then again on the returns at 7 and 11,
        # all within the long packet's ejection window (cycles 3 to 13).
        assert out.per_flow[2].max_deflections == 3
        assert out.per_flow[2].max_latency == 16

    def test_packets_longer_than_1024_flits_simulate(self, six_ring_topology):
        # The flit index width follows the longest packet, so a packet of
        # 1030 flits is carried in order like any other.
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (1, 0), period=5_000,
                                          length=1030))
        cfg = SimConfig(horizon=100, release=((0, 1),), collect_trace=True)
        out = simulate(flowset, cfg, SHARED)
        assert out.released == out.delivered == 1
        assert out.flits_injected == out.flits_ejected == 1030
        assert out.per_flow[1].max_latency == no_load(flowset, 1) - 1
        ejected = [e[4] for e in out.trace if e[0] == "eject"]
        assert ejected == list(range(1030))


class TestOracle:
    def schedulable_case(self):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=25, seed=6))
        config = parse_profile("0D_IU_SI")
        result = analyze(flowset, config)
        assert result.schedulable
        return flowset, config, result

    def test_clean_report_for_schedulable_flowset(self):
        flowset, config, result = self.schedulable_case()
        for seed in range(3):
            out = simulate(flowset, SimConfig(seed=seed, horizon=300_000), config)
            assert oracle_check(flowset, result, out).ok

    def test_halved_bound_is_flagged(self, six_ring_topology):
        # Deterministic congestion: the second flow queues behind a full
        # injection of the first, so its observed latency sits within a few
        # cycles of its bound and a halved bound must be flagged.
        first = make_flow(1, (0, 0), (0, 1), period=100_000, length=12)
        second = make_flow(2, (0, 0), (2, 0), period=100_000, length=12)
        flowset = build_flowset(six_ring_topology, first, second)
        config = parse_profile("0D_IU_SI")
        result = analyze(flowset, config)
        assert result.schedulable
        cfg = SimConfig(horizon=1_000, release=((0, 1), (1, 2)))
        out = simulate(flowset, cfg, config)
        assert oracle_check(flowset, result, out).ok
        halved = replace(result, results={
            **result.results,
            2: replace(result.results[2], bound=result.results[2].bound // 2),
        })
        report = oracle_check(flowset, halved, out)
        assert not report.ok
        assert report.violations[0].flow == 2
        assert report.violations[0].kind == "latency"

    def test_deflection_excess_is_flagged(self):
        topo = generate_multi_ring(3, 2)
        older = make_flow(1, (0, 1), (1, 1), ring=1, period=100_000, length=3)
        newer = make_flow(2, (2, 0), (1, 1), ring=2, period=100_000, length=3)
        flowset = Flowset((older, newer), topo)
        config = parse_profile("OF_IU_SI")
        result = analyze(flowset, config)
        assert result.schedulable
        out = simulate(flowset, SimConfig(horizon=200, release=((0, 1), (1, 2))), config)
        assert oracle_check(flowset, result, out).ok
        squeezed = replace(result, results={
            **result.results,
            2: replace(result.results[2], maxloop=0),
        })
        assert not oracle_check(flowset, squeezed, out).ok

    def test_flow_without_releases_is_skipped(self, six_ring_topology):
        # Flow 2 is not in the schedule, so it releases nothing: empty
        # statistics in the closed-form and the traced run, and no bound to
        # check, not even one no run could meet.
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 0), period=1_000, length=12),
                                make_flow(2, (1, 0), (2, 1), period=1_000, length=4))
        config = parse_profile("0D_IU_SI")
        result = analyze(flowset, config)
        assert result.schedulable
        cfg = SimConfig(horizon=5_000, release=periodic_releases(1, 872, 1_000, 5_000))
        out = closed_form_equals_traced(flowset, cfg, config, stepped=0)
        assert out.per_flow[2] == FlowStats(0, 0, 0.0, 0)
        assert out.per_flow[1].packets == out.released == 5
        unmeetable = replace(result, results={
            **result.results,
            2: replace(result.results[2], bound=-1, maxloop=-1),
        })
        assert oracle_check(flowset, unmeetable, out).ok

    def test_empty_flowset_gives_empty_report(self, six_ring_topology):
        flowset = Flowset((), six_ring_topology)
        config = parse_profile("0D_IU_SI")
        result = analyze(flowset, config)
        out = simulate(flowset, SimConfig(seed=0, horizon=1_000), SHARED)
        assert oracle_check(flowset, result, out).ok

    @staticmethod
    def long_competitor_case():
        # Flow 1's 100-flit packet holds the shared ejection link of core
        # (1, 1) while flow 2's header circles its 8-switch ring, denied on
        # every return: 13 deflections, delivered 106 cycles after release.
        topo = generate_multi_ring(4, 4)
        flowset = Flowset((make_flow(1, (0, 0), (1, 1), ring=7, period=10**6, length=100),
                           make_flow(2, (0, 1), (1, 1), ring=4, period=10**6, length=2)), topo)
        return flowset, SimConfig(horizon=1_000, release=((0, 1), (1, 2)))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="shared-ejection bounds charge one loop per competing flow, "
                              "not one per loop its packet holds the link")
    @pytest.mark.parametrize("name", ["OF_IU_SI", "2D_IU_SI", "3D_IU_II"])
    def test_shared_link_bounds_hold_against_a_packet_longer_than_the_ring(self, name):
        flowset, cfg = self.long_competitor_case()
        config = parse_profile(name)
        result = analyze(flowset, config)
        assert oracle_check(flowset, result, simulate(flowset, cfg, config)).ok

    @pytest.mark.parametrize("name", ["1D_IU_SI", "0D_IU_SI"])
    def test_a_link_per_flow_is_clean_against_the_same_packet(self, name):
        flowset, cfg = self.long_competitor_case()
        config = parse_profile(name)
        link = flowset.index.links(config.maxloop)
        assert link[1] != link[2]
        result = analyze(flowset, config)
        out = simulate(flowset, cfg, config)
        assert out.deflections == 0
        assert oracle_check(flowset, result, out).ok

    def test_unschedulable_analysis_rejected(self):
        flowset, config, result = self.schedulable_case()
        out = simulate(flowset, SimConfig(seed=0, horizon=10_000), config)
        bad = replace(result, results={}, failing_flow=1)
        with pytest.raises(ValueError):
            oracle_check(flowset, bad, out)


class TestHardwareMapping:
    @pytest.mark.parametrize("name,header", [
        ("0D_IU_II", "injection=independent ejection=independent"),
        ("2D_IU_SI", "injection=shared ejection=shared"),
        ("OF_IU_SI", "injection=shared ejection=shared"),
    ])
    def test_csv_header_names_the_links(self, name, header):
        # The header keeps its injection/ejection wording whatever the
        # profile's own encoding.
        flowset = generate_flowset(BenchmarkParams(flows_per_set=5, seed=1))
        cfg = SimConfig(seed=2, horizon=30_000)
        hw = parse_profile(name)
        first = outcome_to_csv(simulate(flowset, cfg, hw), cfg, hw).split("\n")[0]
        assert first == (f"# seed=2 horizon=30000 release=sporadic {header} "
                         f"drained=true")

    @pytest.mark.parametrize("fields", [
        {"injection": "bogus"}, {"maxloop": "bogus"}, {"maxloop": -1},
        {"maxloop": 1.5}, {"maxloop": True}, {"maxloop": None},
    ])
    def test_rejects_values_outside_the_analysis_vocabulary(self, fields):
        # The platform simulate runs on is the AnalysisConfig itself, so
        # values the analysis cannot check are refused when it is built.
        with pytest.raises(ValueError):
            AnalysisConfig(**fields)


def test_outcome_csv_shape():
    flowset = generate_flowset(BenchmarkParams(flows_per_set=5, seed=1))
    cfg = SimConfig(seed=2, horizon=30_000)
    out = simulate(flowset, cfg, SHARED)
    text = outcome_to_csv(out, cfg, SHARED)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# seed=2 horizon=30000")
    assert lines[1] == "flow,packets,max_latency,mean_latency,max_deflections"
    assert len(lines) == 2 + 5


def test_schedule_header_is_one_token_whatever_the_listing_order():
    # An explicit schedule appears as its release count and a digest of its
    # sorted releases, so the header keeps one token per field.
    flowset = generate_flowset(BenchmarkParams(flows_per_set=5, seed=1))
    schedule = tuple((t, fid) for fid in (1, 2, 3) for t in range(0, 1_000, 100))
    headers = set()
    for release in (schedule, schedule[::-1]):
        cfg = SimConfig(horizon=1_000, release=release)
        headers.add(outcome_to_csv(simulate(flowset, cfg, SHARED), cfg, SHARED).split("\n")[0])
    assert headers == {"# seed=0 horizon=1000 release=schedule:30:7233c5893aba "
                       "injection=shared ejection=shared drained=true"}
    cfg = SimConfig(horizon=1_000, release=schedule[:-1])
    header = outcome_to_csv(simulate(flowset, cfg, SHARED), cfg, SHARED).split("\n")[0]
    assert header.split()[3] == "release=schedule:29:742579528072"
