import copy
import itertools
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_flowset, make_flow, small_benchmarks
from rlnoc import analysis
from rlnoc.analysis import (
    AnalysisConfig,
    AnalysisError,
    AnalysisRecord,
    FlowResult,
    InvariantError,
    analyze,
    parse_profile,
    profile_name,
    results_to_csv,
    _contexts,
    _fixed_point,
)
from rlnoc.topology import Coord, Topology, generate_multi_ring
from rlnoc.traffic import (
    BenchmarkParams,
    Flowset,
    TrafficError,
    generate_flowset,
    interference_table,
)


def single_up_flowset(topology, up_period=100, up_length=5, length=2):
    """A flow (2,0)->(2,1) whose injection switch is crossed by one thru flow."""
    focus = make_flow(1, (2, 0), (2, 1), period=1_000, length=length)
    upstream = make_flow(2, (1, 0), (1, 1), period=up_period, length=up_length)
    return build_flowset(topology, focus, upstream)


def flow_context(flowset, config, fid):
    """The flow's per-config context, built whether or not the flowset is
    schedulable."""
    return _contexts(flowset, config)(fid)


def injection_busy(flowset, config, fid, jk):
    """Busy period of the flow's injection switch output port, co-injected
    packets included (independent injection). None: deadline missed."""
    ctx = flow_context(flowset, config, fid)
    return _fixed_point(1 + ctx.in_sum, ctx.terms, jk, ctx.budget)


def idle_wait(flowset, config, fid, jk):
    """Head-of-queue wait for an idle ring cycle (shared injection): the
    co-injection term drops out."""
    ctx = flow_context(flowset, config, fid)
    return _fixed_point(1, ctx.terms, jk, ctx.budget)


def co_located_flowset(topology, co_length, thru_length):
    """Flows 1 and 2 share the core (0,0); flow 3 passes through its switch."""
    return build_flowset(topology,
                         make_flow(1, (0, 0), (2, 0)),
                         make_flow(2, (0, 0), (1, 1), length=co_length),
                         make_flow(3, (0, 1), (1, 0), length=thru_length))


class TestNoLoadLatencies:
    def test_values_from_path_and_length(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (2, 0), (0, 0), length=4),
                                make_flow(2, (2, 0), (2, 1), length=1))
        results = analyze(flowset, parse_profile("0D_IU_SI")).results
        assert (results[1].no_load, results[1].loop) == (5 + 4 - 1, 6 + 4)
        assert (results[2].no_load, results[2].loop) == (2 + 1 - 1, 6 + 1)

    def test_loop_latency_ignores_endpoints(self, six_ring_topology):
        a = build_flowset(six_ring_topology, make_flow(1, (0, 0), (1, 0), length=4))
        b = build_flowset(six_ring_topology, make_flow(1, (1, 0), (0, 0), length=4))
        config = parse_profile("0D_IU_SI")
        assert analyze(a, config).results[1].loop == analyze(b, config).results[1].loop

    def test_no_load_below_loop_when_path_shorter_than_circuit(self):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=40, seed=3))
        for f in flowset.flows:
            ring = flowset.topology.ring(f.ring)
            ctx = flow_context(flowset, AnalysisConfig(), f.id)
            if ring.hops(f.src, f.dst) + 1 < ring.size + 1:
                assert ctx.no_load < ctx.loop


class TestBufferBounds:
    def test_largest_payload_of_local_injectors(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (0, 0), (2, 0), length=5),
                                make_flow(2, (0, 0), (1, 1), length=9),
                                make_flow(3, (1, 0), (0, 1), length=7))
        ring = six_ring_topology.ring(0)
        bounds = flowset.index.buffer_bounds[0]
        assert bounds[ring.position((0, 0))] == 8
        assert bounds[ring.position((1, 0))] == 6
        assert bounds[ring.position((2, 1))] == 0

    def test_bound_below_ring_capacity(self):
        flowset = generate_flowset(BenchmarkParams(flows_per_set=30, seed=9))
        for ring in flowset.topology.rings:
            cap = flowset.index.capacity[ring.id]
            assert len(flowset.index.buffer_bounds[ring.id]) == ring.size
            for bound in flowset.index.buffer_bounds[ring.id]:
                assert bound <= cap - 1

    def test_capacity_override_validated(self, six_ring_topology):
        small = replace(six_ring_topology.rings[0], buffer_capacity=4)
        topo = Topology(3, 2, (small,))
        flowset = build_flowset(topo, make_flow(1, (0, 0), (1, 0), length=8))
        with pytest.raises(TrafficError, match="cannot hold a 8-flit packet"):
            flowset.index.capacity
        with pytest.raises(TrafficError):
            analyze(flowset, parse_profile("0D_IU_SI", ipos_formula="coarse"))
        # The tight formula reads no capacity.
        assert analyze(flowset, parse_profile("0D_IU_SI")).schedulable


def post_interference(flowset, flow, config):
    return flow_context(flowset, config, flow.id).post


class TestPostInjectionInterference:
    def test_zero_without_downstream_injectors(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology, make_flow(1, (0, 0), (2, 0)))
        assert post_interference(flowset, flowset.flows[0], AnalysisConfig()) == 0

    def test_coarse_is_downstream_switches_times_capacity(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology,
                                make_flow(1, (2, 0), (0, 0), length=16))
        flow = flowset.flows[0]
        cfg = AnalysisConfig(ipos_formula="coarse")
        assert post_interference(flowset, flow, cfg) == 4 * 16

    def test_tight_never_exceeds_coarse_over_1000_flowsets(self):
        tight = AnalysisConfig(ipos_formula="tight")
        coarse = AnalysisConfig(ipos_formula="coarse")
        for seed in range(1000):
            flowset = generate_flowset(BenchmarkParams(flows_per_set=12, seed=seed))
            for f in flowset.flows:
                assert (post_interference(flowset, f, tight)
                        <= post_interference(flowset, f, coarse))

    def test_deflections_add_whole_ring_bound(self, five_flow_fixture):
        cfg = AnalysisConfig(maxloop=2)
        flow = five_flow_fixture.index.flows[3]
        base = post_interference(five_flow_fixture, flow, AnalysisConfig())
        ring_sum = sum(five_flow_fixture.index.buffer_bounds[0])
        assert ring_sum > 0
        assert (post_interference(five_flow_fixture, flow, cfg)
                == base + 2 * ring_sum)


class TestBusyPeriods:
    def test_isolated_flow_needs_one_idle_cycle(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology, make_flow(1, (0, 0), (2, 0)))
        assert analyze(flowset, parse_profile("0D_IU_II")).results[1].pre_injection == 1
        assert analyze(flowset, parse_profile("0D_IU_SI")).results[1].pre_idle == 1

    def test_single_upstream_interferer(self, six_ring_topology):
        flowset = single_up_flowset(six_ring_topology)
        jk = {1: 0, 2: 0}
        assert injection_busy(flowset, parse_profile("0D_IU_II"), 1, jk) == 6
        assert idle_wait(flowset, parse_profile("0D_IU_SI"), 1, jk) == 6

    def test_saturated_output_port_diverges(self, six_ring_topology):
        focus = make_flow(1, (2, 0), (2, 1), period=1_000, length=2)
        up1 = make_flow(2, (1, 0), (1, 1), period=10, length=5, deadline=10)
        up2 = make_flow(3, (0, 0), (0, 1), period=10, length=5, deadline=10)
        flowset = build_flowset(six_ring_topology, focus, up1, up2)
        assert injection_busy(flowset, parse_profile("0D_IU_II"), 1,
                              {1: 0, 2: 0, 3: 0}) is None
        # A load of exactly 1 already diverges.
        assert flow_context(flowset, parse_profile("0D_IU_II"), 1).diverges
        # Its budget of -1 fails the busy period at its first iterate.
        record = AnalysisRecord()
        result = analyze(flowset, parse_profile("0D_IU_II"), record)
        assert (result.verdict, result.failing_flow) == ("unschedulable", 1)
        assert record.busy_traces == [[1]]

    def test_iterates_strictly_increase_until_cutoff(self):
        traces = []
        result = _fixed_point(1, ((10, 5, 9, 2), (10, 5, 9, 3)),
                              {2: 0, 3: 0}, budget=60, traces=traces)
        assert result is None
        [trace] = traces
        assert trace == sorted(trace)
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_decreasing_iterate_raises(self):
        # A negative length makes the second iterate fall below the first,
        # which no valid flowset can produce.
        with pytest.raises(InvariantError):
            _fixed_point(5, ((10, -3, 9, 2),), {2: 0}, budget=100)

    def test_deflecting_interferer_adds_one_replica(self, six_ring_topology):
        # Every flow may deflect once: the interferer (T=100, L=5) enters as
        # two copies and the flow itself (T=1000, L=2) as one replica, so
        # w = 1 + 2*5 + 2 = 13 is the fixed point.
        flowset = single_up_flowset(six_ring_topology)
        cfg = parse_profile("1D_IU_II")
        jk = {1: 0, 2: 0}
        assert injection_busy(flowset, cfg, 1, jk) == 13
        assert idle_wait(flowset, cfg, 1, jk) == 13

    def test_zero_maxloops_reduce_to_basic(self, six_ring_topology):
        # Oldest-First with no two flows sharing a destination: shared
        # ejection, yet every deflection bound is zero.
        flowset = single_up_flowset(six_ring_topology)
        cfg = AnalysisConfig(injection="independent", maxloop="oldest_first")
        jk = {1: 0, 2: 0}
        assert (injection_busy(flowset, cfg, 1, jk)
                == injection_busy(flowset, parse_profile("0D_IU_II"), 1, jk))

    def test_monotone_in_maxloop(self, six_ring_topology):
        flowset = single_up_flowset(six_ring_topology)
        previous = 0
        for loops in range(4):
            value = injection_busy(flowset, parse_profile(f"{loops}D_IU_II"), 1,
                                   {1: 0, 2: 0})
            assert value >= previous
            previous = value

    @settings(max_examples=200, deadline=None)
    @given(params=small_benchmarks())
    def test_divergence_check_agrees_with_the_plain_recurrence(self, params):
        # ``diverges`` is the exact load test sum(L * n / T) >= 1 over the
        # context's terms, and a context it flags never reaches a fixed point.
        flowset = generate_flowset(params)
        zero = dict.fromkeys(flowset.index.flows, 0)
        for name in ("0D_IU_II", "0D_IU_SI", "2D_IU_SI", "OF_IU_SI"):
            context = _contexts(flowset, parse_profile(name))
            for fid in flowset.index.flows:
                ctx = context(fid)
                total = sum(Fraction(load, period) for period, load, _, _ in ctx.terms)
                assert ctx.diverges == (total >= 1), (name, fid)
                if ctx.diverges:
                    assert _fixed_point(1, ctx.terms, zero, 10**5) is None, (name, fid)


class TestQueueWait:
    def test_empty_core(self, six_ring_topology):
        flowset = build_flowset(six_ring_topology, make_flow(1, (0, 0), (2, 0)))
        assert analyze(flowset, parse_profile("0D_IU_SI")).results[1].pre_queue == 0

    def test_one_co_located_packet(self, six_ring_topology):
        # Flow 2 (4 flits) waits 1 + 2 idle cycles behind flow 3's 2 flits.
        flowset = co_located_flowset(six_ring_topology, co_length=4, thru_length=2)
        result = analyze(flowset, parse_profile("0D_IU_SI"))
        assert result.results[2].pre_idle == 3
        assert result.results[1].pre_queue == 7

    def test_shared_total_is_the_sum(self, six_ring_topology):
        config = parse_profile("0D_IU_SI")
        alone = build_flowset(six_ring_topology, make_flow(1, (0, 0), (2, 0)))
        r = analyze(alone, config).results[1]
        assert (r.pre_idle, r.pre_queue, r.pre_injection) == (1, 0, 1)
        flowset = co_located_flowset(six_ring_topology, co_length=1, thru_length=5)
        r = analyze(flowset, config).results[1]
        assert (r.pre_idle, r.pre_queue, r.pre_injection) == (6, 7, 13)

    def test_shared_formulation_never_below_basic(self, six_ring_topology):
        # On a single-ring topology the queue and the co-injection term cover
        # the same flows, making the two formulations directly comparable.
        config = parse_profile("0D_IU_II")
        rng = random.Random(7)
        cells = [Coord(c, r) for r in range(six_ring_topology.height)
                 for c in range(six_ring_topology.width)]
        checked = 0
        for trial in range(1000):
            flows = []
            for fid in range(1, rng.randint(2, 7)):
                src, dst = rng.sample(cells, 2)
                flows.append(make_flow(fid, src, dst, period=rng.randint(200, 2000),
                                       length=rng.randint(1, 12),
                                       jitter=rng.randint(0, 50)))
            flowset = build_flowset(six_ring_topology, *flows)
            context = _contexts(flowset, config)
            contexts = [context(f.id) for f in flowset.flows]
            jk = {f.id: 0 for f in flowset.flows}
            idle = {ctx.flow.id: _fixed_point(1, ctx.terms, jk, ctx.budget)
                    for ctx in contexts}
            if any(v is None for v in idle.values()):
                continue
            for ctx in contexts:
                basic = _fixed_point(1 + ctx.in_sum, ctx.terms, jk, ctx.budget)
                if basic is None:
                    continue
                queue = sum(g.length + idle[g.id]
                            for g in flowset.flows if g.src == ctx.flow.src and g is not ctx.flow)
                assert idle[ctx.flow.id] + queue >= basic, (trial, ctx.flow.id)
                checked += 1
        assert checked > 1000


class TestLazyResults:
    def test_rows_are_built_on_first_read(self, five_flow_fixture, monkeypatch):
        built = []

        def counting(**fields):
            built.append(fields["flow"])
            return FlowResult(**fields)

        monkeypatch.setattr(analysis, "FlowResult", counting)
        result = analyze(five_flow_fixture, parse_profile("0D_IU_SI"))
        assert result.verdict == "schedulable" and built == []
        assert sorted(result.results) == [1, 2, 3, 4, 5] and built == [1, 2, 3, 4, 5]
        assert result.results[3].flow == 3 and len(built) == 5

    def test_rows_copy_and_pickle_as_a_dict(self, five_flow_fixture):
        result = analyze(five_flow_fixture, parse_profile("0D_IU_SI"))
        for clone in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
            assert type(clone.results) is dict
            assert clone == result and clone.results == dict(result.results)


class TestResolveMaxloop:
    def test_independent_ejection_never_deflects(self, five_flow_fixture):
        result = analyze(five_flow_fixture, AnalysisConfig(maxloop=0))
        assert result.schedulable
        assert all(r.maxloop == 0 for r in result.results.values())

    def test_oldest_first_counts_other_same_destination_flows(self, six_ring_topology):
        flows = [make_flow(1, (0, 0), (2, 1)), make_flow(2, (1, 0), (2, 1)),
                 make_flow(3, (0, 1), (2, 1)), make_flow(4, (2, 1), (0, 0))]
        flowset = build_flowset(six_ring_topology, *flows)
        result = analyze(flowset, AnalysisConfig(maxloop="oldest_first"))
        assert result.schedulable
        assert {fid: r.maxloop for fid, r in result.results.items()} == {
            1: 2, 2: 2, 3: 2, 4: 0}

    def test_fixed_bound_applies_to_every_flow(self, five_flow_fixture):
        cfg = AnalysisConfig(maxloop=3)
        for f in five_flow_fixture.flows:
            assert flow_context(five_flow_fixture, cfg, f.id).maxloop == 3


class TestProfiles:
    @pytest.mark.parametrize("name", ["0D_NI_II", "0D_IU_II", "0D_NI_SI",
                                      "0D_IU_SI", "1D_IU_SI", "2D_IU_SI",
                                      "3D_IU_SI", "12D_NI_II", "OF_IU_SI",
                                      "OF_NI_II"])
    def test_roundtrip(self, name):
        assert profile_name(parse_profile(name)) == name

    def test_unknown_profile(self):
        with pytest.raises(AnalysisError):
            parse_profile("4X_IU_SI")

    def test_config_validation(self):
        for fields in ({"maxloop": True}, {"maxloop": False}, {"maxloop": -1},
                       {"maxloop": 1.0}, {"maxloop": 1.5}, {"maxloop": None},
                       {"maxloop": "fixed"}, {"maxloop": "OF"}, {"maxloop": "bogus"},
                       {"injection": "both"}, {"injection": "bogus"},
                       {"jitter_method": "x"}, {"ipos_formula": "x"}):
            with pytest.raises(AnalysisError):
                AnalysisConfig(**fields)


class TestAnalyze:
    def test_isolated_flows_cost_exactly_one_idle_cycle(self):
        # Two flows on disjoint row-band rings sharing no switch or core.
        topo = generate_multi_ring(4, 4)
        flowset = Flowset((make_flow(1, (0, 0), (3, 0), ring=2),
                           make_flow(2, (0, 3), (3, 3), ring=6)), topo)
        table = interference_table(flowset)
        for flow in flowset.flows:
            sets = table[flow.id]
            assert not (sets.up | sets.down | sets.in_ring)
            assert [g for g in flowset.flows if g.src == flow.src] == [flow]
        for config in (parse_profile("0D_IU_II"), parse_profile("0D_IU_SI")):
            result = analyze(flowset, config)
            assert result.schedulable
            for fid, r in result.results.items():
                assert r.bound == r.no_load + 1

    def test_five_flow_fixture_iterative_dominates_simplified(self, five_flow_fixture):
        iterative = analyze(five_flow_fixture, parse_profile("0D_IU_II"))
        simplified = analyze(five_flow_fixture, parse_profile("0D_NI_II"))
        assert iterative.schedulable and simplified.schedulable
        for fid in iterative.results:
            assert iterative.results[fid].bound <= simplified.results[fid].bound

    def test_unschedulable_returns_empty_results(self, six_ring_topology):
        focus = make_flow(1, (2, 0), (2, 1), period=1_000, length=2)
        up1 = make_flow(2, (1, 0), (1, 1), period=10, length=5, deadline=10)
        up2 = make_flow(3, (0, 0), (0, 1), period=10, length=5, deadline=10)
        flowset = build_flowset(six_ring_topology, focus, up1, up2)
        result = analyze(flowset, parse_profile("0D_IU_II"))
        assert result.verdict == "unschedulable"
        assert result.results == {}
        assert result.failing_flow in {1, 2, 3}

    def test_long_jitter_feedback_reaches_its_fixed_point(self):
        # Eight passes, one more than any analysis of the full sweep profile
        # takes: the loop needs no cap to end.
        flowset = generate_flowset(BenchmarkParams(
            flows_per_set=32, width=4, height=4, packet_range=(1, 8),
            period_range=(300, 1200), seed=981581211))
        record = AnalysisRecord()
        result = analyze(flowset, parse_profile("2D_IU_SI"), record=record)
        assert result.verdict == "schedulable" and result.iterations == 8
        assert sorted(record.bound_traces) == sorted(result.results)
        for fid, r in result.results.items():
            assert len(record.bound_traces[fid]) == result.iterations
            assert r.indirect_jitter == r.bound - r.no_load, fid

    def test_empty_flowset_is_schedulable(self, six_ring_topology):
        result = analyze(Flowset((), six_ring_topology), parse_profile("0D_IU_SI"))
        assert result.schedulable and result.results == {}

    def test_bound_traces_monotone_and_components_account(self):
        record = AnalysisRecord()
        flowset = generate_flowset(BenchmarkParams(flows_per_set=30, seed=21))
        result = analyze(flowset, parse_profile("0D_IU_SI"), record=record)
        assert result.schedulable
        for trace in record.bound_traces.values():
            assert trace == sorted(trace)
        for trace in record.busy_traces:
            assert trace == sorted(trace)
        for fid, r in result.results.items():
            assert r.bound == (r.no_load + r.loop * r.maxloop
                               + r.pre_injection + r.post_injection)
            assert r.pre_injection == r.pre_idle + r.pre_queue

    def test_independent_injection_reports_no_queue_split(self, five_flow_fixture):
        result = analyze(five_flow_fixture, parse_profile("0D_IU_II"))
        for r in result.results.values():
            assert (r.pre_idle, r.pre_queue) == (0, 0)

    def test_shared_injection_accounts_idle_plus_queue(self, five_flow_fixture):
        result = analyze(five_flow_fixture, parse_profile("0D_IU_SI"))
        for r in result.results.values():
            assert r.pre_injection == r.pre_idle + r.pre_queue


class TestDominance:
    def schedulable_families(self, count=10, flows=25):
        out = []
        for seed in range(100, 100 + 3 * count):
            flowset = generate_flowset(BenchmarkParams(flows_per_set=flows, seed=seed))
            if analyze(flowset, parse_profile("1D_IU_SI")).schedulable:
                out.append(flowset)
            if len(out) == count:
                break
        assert len(out) >= 5
        return out

    def test_bounds_grow_with_maxloop(self):
        for flowset in self.schedulable_families():
            base = analyze(flowset, parse_profile("0D_IU_SI"))
            defl = analyze(flowset, parse_profile("1D_IU_SI"))
            for fid in base.results:
                assert base.results[fid].bound <= defl.results[fid].bound

    def test_bounds_grow_with_interferer_jitter_and_length(self, five_flow_fixture):
        config = parse_profile("0D_IU_SI")
        base = analyze(five_flow_fixture, config)
        flows = {f.id: f for f in five_flow_fixture.flows}
        bumped_j = Flowset(tuple(
            replace(f, jitter=f.jitter + 500) if f.id == 2 else f
            for f in five_flow_fixture.flows), five_flow_fixture.topology)
        bumped_l = Flowset(tuple(
            replace(f, length=f.length + 8) if f.id == 2 else f
            for f in five_flow_fixture.flows), five_flow_fixture.topology)
        for bumped in (bumped_j, bumped_l):
            grown = analyze(bumped, config)
            for fid in base.results:
                assert grown.results[fid].bound >= base.results[fid].bound

    def test_adding_a_flow_never_shrinks_bounds(self):
        config = parse_profile("0D_IU_SI")
        small = generate_flowset(BenchmarkParams(flows_per_set=20, seed=77))
        large = generate_flowset(BenchmarkParams(flows_per_set=21, seed=77))
        res_small = analyze(small, config)
        res_large = analyze(large, config)
        assert res_small.schedulable and res_large.schedulable
        for fid in res_small.results:
            assert res_large.results[fid].bound >= res_small.results[fid].bound

    def test_iterative_never_above_simplified_random(self):
        for seed in range(30):
            flowset = generate_flowset(BenchmarkParams(flows_per_set=30, seed=seed))
            simplified = analyze(flowset, parse_profile("0D_NI_SI"))
            if not simplified.schedulable:
                continue
            iterative = analyze(flowset, parse_profile("0D_IU_SI"))
            assert iterative.schedulable
            for fid in iterative.results:
                assert (iterative.results[fid].bound
                        <= simplified.results[fid].bound)


# Every ejection (0D, 1D, 2D, OF) and injection (II, SI) variant, as the
# simplified (NI) and iterative (IU) profile names.
VARIANTS = [(f"{ej}_NI_{inj}", f"{ej}_IU_{inj}")
            for ej, inj in itertools.product(("0D", "1D", "2D", "OF"), ("II", "SI"))]


class TestJitterLoopProperties:
    @settings(max_examples=200, deadline=None)
    @given(params=small_benchmarks())
    def test_iterative_dominates_simplified(self, params):
        # Also: every unschedulable verdict names its failing flow, and an
        # iterative verdict ends on the fixed point of the jitter feedback.
        flowset = generate_flowset(params)
        for simplified_name, iterative_name in VARIANTS:
            simplified = analyze(flowset, parse_profile(simplified_name))
            iterative = analyze(flowset, parse_profile(iterative_name))
            for result in (simplified, iterative):
                assert (result.failing_flow is None) == result.schedulable
            for fid, r in iterative.results.items():
                assert r.indirect_jitter == r.bound - r.no_load, (iterative_name, fid)
            if not simplified.schedulable:
                continue
            assert iterative.schedulable, iterative_name
            for fid, r in iterative.results.items():
                assert r.bound <= simplified.results[fid].bound, (iterative_name, fid)

    @settings(max_examples=200, deadline=None)
    @given(params=small_benchmarks(), extra=st.integers(1, 4))
    def test_adding_flows_keeps_verdicts_and_grows_bounds(self, params, extra):
        small = generate_flowset(params)
        large = generate_flowset(
            replace(params, flows_per_set=params.flows_per_set + extra))
        assert large.flows[:len(small.flows)] == small.flows
        for name in itertools.chain.from_iterable(VARIANTS):
            config = parse_profile(name)
            before, after = analyze(small, config), analyze(large, config)
            if before.verdict == "unschedulable":
                assert after.verdict == "unschedulable", name
            if before.schedulable and after.schedulable:
                for fid, r in before.results.items():
                    assert after.results[fid].bound >= r.bound, (name, fid)

    @settings(max_examples=200, deadline=None)
    @given(params=small_benchmarks(), data=st.data())
    def test_raising_a_length_or_jitter_keeps_verdicts_and_grows_bounds(self, params, data):
        # Raising one flow's L (up to the generator's longest packet) or its
        # J only adds interference.
        flowset = generate_flowset(params)
        flow = data.draw(st.sampled_from(flowset.flows))
        longest = params.packet_range[1]
        if flow.length < longest and data.draw(st.booleans()):
            raised = replace(flow, length=data.draw(st.integers(flow.length + 1, longest)))
        else:
            raised = replace(flow, jitter=flow.jitter + data.draw(st.integers(1, flow.period)))
        grown = Flowset(tuple(raised if f.id == flow.id else f for f in flowset.flows),
                        flowset.topology)
        for name in itertools.chain.from_iterable(VARIANTS):
            config = parse_profile(name)
            before, after = analyze(flowset, config), analyze(grown, config)
            if before.verdict == "unschedulable":
                assert after.verdict == "unschedulable", name
            if before.schedulable and after.schedulable:
                for fid, r in before.results.items():
                    assert after.results[fid].bound >= r.bound, (name, fid)

    @settings(max_examples=200, deadline=None)
    @given(params=small_benchmarks())
    def test_more_deflections_keep_verdicts_and_grow_bounds(self, params):
        # A larger deflection bound only adds replica terms and circuits, so
        # on one flowset kD unschedulable implies k'D unschedulable, k < k'.
        flowset = generate_flowset(params)
        for jitter, injection in itertools.product(("NI", "IU"), ("II", "SI")):
            results = [analyze(flowset, parse_profile(f"{k}D_{jitter}_{injection}"))
                       for k in range(4)]
            for k, before in enumerate(results):
                for after in results[k + 1:]:
                    name = f"{k}D_{jitter}_{injection}"
                    if before.verdict == "unschedulable":
                        assert after.verdict == "unschedulable", name
                    if before.schedulable and after.schedulable:
                        for fid, r in before.results.items():
                            assert after.results[fid].bound >= r.bound, (name, fid)


def test_results_csv_shape(five_flow_fixture):
    config = parse_profile("0D_IU_SI")
    result = analyze(five_flow_fixture, config)
    text = results_to_csv(result, config, seed=4,
                          diagnostics=interference_table(five_flow_fixture))
    lines = text.strip().split("\n")
    assert lines[0].startswith("# verdict=schedulable")
    assert "seed=4" in lines[0]
    assert any(line.startswith("# interference flow=1 up=2 down=3 in=5 upind=4")
               for line in lines)
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == ("flow,C,C_loop,maxloop,I_pre_idle,I_pre_queue,"
                                "I_pre,I_pos,Jk,R,D,schedulable")
    assert len(lines) == header_at + 1 + 5
