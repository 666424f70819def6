import pytest
from hypothesis import strategies as st

from rlnoc import data_path
from rlnoc.analysis import AnalysisConfig, analyze, parse_profile, _contexts
from rlnoc.harness import SweepRow, point_seed
from rlnoc.topology import Coord, load_topology_file
from rlnoc.traffic import BenchmarkParams, Flow, Flowset, generate_flowset, load_flowset_file


@pytest.fixture(scope="session")
def six_ring_topology():
    return load_topology_file(data_path("six_switch_ring.json"))


@pytest.fixture(scope="session")
def five_flow_fixture():
    """The canonical five-flow interference scenario on a six-switch ring."""
    return load_flowset_file(data_path("five_flow_scenario.json"))


@pytest.fixture(scope="session")
def ten_ring_fixture():
    return load_topology_file(data_path("grid4x4_ten_rings.json"))


def make_flow(fid, src, dst, ring=0, period=10_000, length=8, jitter=0,
              deadline=None):
    return Flow(id=fid, period=period,
                deadline=period if deadline is None else deadline,
                length=length, jitter=jitter,
                src=Coord(*src), dst=Coord(*dst), ring=ring)


@pytest.fixture
def flow_factory():
    return make_flow


def build_flowset(topology, *flows):
    return Flowset(tuple(flows), topology)


def no_load(flowset, fid):
    """The analysis's contention-free latency C of a flow, hops + length."""
    return _contexts(flowset, AnalysisConfig())(fid).no_load


@pytest.fixture
def flowset_factory():
    return build_flowset


@st.composite
def small_benchmarks(draw):
    """Benchmark parameters for a few flows on a 2x2 to 4x4 grid, with
    periods short enough that some flowsets are unschedulable."""
    width, height = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    shortest = draw(st.sampled_from([30, 100, 300]))
    return BenchmarkParams(flows_per_set=draw(st.integers(1, 8)), width=width,
                           height=height, packet_range=(1, 32),
                           period_range=(shortest, 4 * shortest),
                           seed=draw(st.integers(0, 2**16)))


def plain_sweep(spec):
    """The sweep without pruning: one generated flowset and one analysis per
    (flowset index, flow count, configuration), rows in schedule order. The
    reference for `sweep_schedulability`."""
    rows = []
    configs = [(name, parse_profile(name)) for name in spec.configs]
    for grid in spec.grids:
        grid_label = f"{grid[0]}x{grid[1]}"
        for packets in spec.packet_ranges:
            for flows in spec.flows_schedule:
                verdicts = {name: 0 for name, _ in configs}
                for index in range(spec.flowsets_per_point):
                    params = BenchmarkParams(
                        flows_per_set=flows,
                        width=grid[0],
                        height=grid[1],
                        packet_range=packets,
                        seed=point_seed(spec, grid, packets, index),
                    )
                    flowset = generate_flowset(params)
                    for name, config in configs:
                        if analyze(flowset, config).schedulable:
                            verdicts[name] += 1
                for name, _ in configs:
                    ratio = 100.0 * verdicts[name] / spec.flowsets_per_point
                    rows.append(SweepRow(grid_label, packets[0], packets[1],
                                         flows, name, ratio))
    return rows
