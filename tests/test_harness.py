import itertools
import random
from dataclasses import replace

import numpy
import pytest
from hypothesis import given, settings

from conftest import plain_sweep, small_benchmarks
from rlnoc import harness, topology
from rlnoc.analysis import AnalysisError, analyze, parse_profile, profile_name
from rlnoc.harness import (
    FAST_PROFILE,
    BoxStats,
    NoSchedulableFlowsetError,
    SweepSpec,
    box_stats,
    component_share_stats,
    find_schedulable_flowset,
    percent_difference_stats,
    point_seed,
    stats_to_csv,
    sweep_schedulability,
    sweep_to_csv,
)
from rlnoc.traffic import BenchmarkParams, generate_flowset

SMALL_SPEC = SweepSpec(
    grids=((4, 4),),
    packet_ranges=((16, 48),),
    flows_schedule=(20, 60, 100),
    flowsets_per_point=8,
    configs=("0D_IU_II", "0D_IU_SI", "1D_IU_SI", "2D_IU_SI"),
    master_seed=13,
)

# Every {0D,1D,2D,OF} x {NI,IU} x {II,SI} profile on a 3x3 grid, at loads
# where all but the independent-ejection, independent-injection profiles
# see both verdicts.
PROFILES_SPEC = SweepSpec(
    grids=((3, 3),),
    packet_ranges=((16, 48),),
    flows_schedule=(10, 25, 40, 60),
    flowsets_per_point=6,
    configs=tuple(f"{ej}_{jit}_{inj}" for ej, jit, inj in itertools.product(
        ("0D", "1D", "2D", "OF"), ("NI", "IU"), ("II", "SI"))),
    master_seed=5,
)

# Every {0D,1D,2D,3D} x {NI,IU} x {II,SI} profile, and the Oldest-First ones.
SETTLED_PROFILES = tuple(f"{ej}_{jit}_{inj}" for ej, jit, inj in itertools.product(
    ("0D", "1D", "2D", "3D", "OF"), ("NI", "IU"), ("II", "SI")))


@pytest.fixture(scope="module")
def small_sweep():
    return sweep_schedulability(SMALL_SPEC)


def ratio(rows, flows, config):
    for row in rows:
        if row.flows == flows and row.config == config:
            return row.ratio
    raise KeyError((flows, config))


class TestSweep:
    def test_deterministic_csv_bytes(self, small_sweep):
        again = sweep_schedulability(SMALL_SPEC)
        assert sweep_to_csv(small_sweep, SMALL_SPEC) == sweep_to_csv(again, SMALL_SPEC)

    def test_ratio_is_exact_count_fraction(self, small_sweep):
        spec = SMALL_SPEC
        flows = spec.flows_schedule[0]
        config = parse_profile("0D_IU_SI")
        count = 0
        for index in range(spec.flowsets_per_point):
            params = BenchmarkParams(
                flows_per_set=flows, width=4, height=4,
                packet_range=spec.packet_ranges[0],
                seed=point_seed(spec, (4, 4), spec.packet_ranges[0], index))
            if analyze(generate_flowset(params), config).schedulable:
                count += 1
        assert ratio(small_sweep, flows, "0D_IU_SI") == 100.0 * count / spec.flowsets_per_point

    def test_non_increasing_in_flows(self, small_sweep):
        for config in SMALL_SPEC.configs:
            values = [ratio(small_sweep, f, config) for f in SMALL_SPEC.flows_schedule]
            assert values == sorted(values, reverse=True)

    def test_independent_injection_dominates_shared(self, small_sweep):
        for flows in SMALL_SPEC.flows_schedule:
            assert (ratio(small_sweep, flows, "0D_IU_II")
                    >= ratio(small_sweep, flows, "0D_IU_SI"))

    def test_fewer_deflections_dominate(self, small_sweep):
        for flows in SMALL_SPEC.flows_schedule:
            assert (ratio(small_sweep, flows, "0D_IU_SI")
                    >= ratio(small_sweep, flows, "1D_IU_SI")
                    >= ratio(small_sweep, flows, "2D_IU_SI"))

    def test_zero_flows_are_vacuously_schedulable(self):
        spec = SweepSpec(flows_schedule=(0,), flowsets_per_point=3,
                         configs=("0D_IU_SI", "3D_NI_SI"), master_seed=2)
        for row in sweep_schedulability(spec):
            assert row.ratio == 100.0

    def test_repeated_config_rejected(self):
        # Verdicts are counted per name, so a name listed twice would be
        # counted twice per flowset and read as a ratio of 200%.
        spec = SweepSpec(flows_schedule=(20,), flowsets_per_point=2,
                         configs=("0D_IU_SI", "0D_IU_SI"))
        with pytest.raises(AnalysisError, match="0D_IU_SI"):
            sweep_schedulability(spec)

    @pytest.mark.parametrize("flowsets", [0, -1])
    def test_fewer_than_one_flowset_rejected(self, flowsets):
        # The ratio divides by the flowset count.
        spec = SweepSpec(flows_schedule=(20,), flowsets_per_point=flowsets)
        with pytest.raises(AnalysisError, match="flowsets_per_point"):
            sweep_schedulability(spec)

    def test_negative_flow_count_rejected(self):
        spec = SweepSpec(flows_schedule=(20, -5), flowsets_per_point=2)
        with pytest.raises(AnalysisError, match="-5"):
            sweep_schedulability(spec)

    def test_csv_shape(self, small_sweep):
        text = sweep_to_csv(small_sweep, SMALL_SPEC)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# master_seed=13")
        assert lines[1] == "grid,packet_min,packet_max,flows,config,ratio"
        assert len(lines) == 2 + len(small_sweep)
        cells = lines[2].split(",")
        assert cells[0] == "4x4" and cells[4] in SMALL_SPEC.configs
        assert float(cells[5]) == ratio(small_sweep, int(cells[3]), cells[4])


def counting_analyze(monkeypatch):
    """Replace the sweep's `analyze` with one that records the profile name
    of every call; returns the list of names."""
    calls = []

    def counted(flowset, config):
        calls.append(profile_name(config))
        return analyze(flowset, config)

    monkeypatch.setattr(harness, "analyze", counted)
    return calls


def settled_pairs():
    return harness._settled_by([(name, parse_profile(name)) for name in SETTLED_PROFILES])


class TestPruning:
    @pytest.mark.parametrize("spec", [
        FAST_PROFILE,
        SMALL_SPEC,
        replace(SMALL_SPEC, flows_schedule=(60, 20, 0, 60)),
        PROFILES_SPEC,
    ], ids=["fast", "small", "unsorted_repeated_zero", "profiles_3x3"])
    def test_csv_matches_plain_loop_with_fewer_analyses(self, spec, monkeypatch):
        calls = counting_analyze(monkeypatch)
        pruned = sweep_to_csv(sweep_schedulability(spec), spec)
        assert pruned == sweep_to_csv(plain_sweep(spec), spec)
        plain_calls = (len(spec.grids) * len(spec.packet_ranges) * len(spec.flows_schedule)
                       * spec.flowsets_per_point * len(spec.configs))
        assert len(calls) < plain_calls

    def test_oldest_first_settles_only_itself(self):
        for a, settled in settled_pairs().items():
            assert (settled == {a} if a.startswith("OF")
                    else not any(b.startswith("OF") for b in settled)), a

    @settings(max_examples=200, deadline=None)
    @given(params=small_benchmarks())
    def test_settled_pairs_keep_verdicts_and_grow_bounds(self, params):
        # Whenever `_settled_by` lets a's unschedulable verdict settle b's,
        # b schedulable must imply a schedulable, with no bound of a above
        # b's.
        settled_by = settled_pairs()
        flowset = generate_flowset(params)
        results = {name: analyze(flowset, parse_profile(name)) for name in SETTLED_PROFILES}
        for a, settled in settled_by.items():
            for b in settled:
                if results[b].schedulable:
                    assert results[a].schedulable, (a, b)
                    for fid, r in results[a].results.items():
                        assert r.bound <= results[b].results[fid].bound, (a, b, fid)


class TestFindSchedulable:
    def test_low_load_found_quickly(self):
        params = BenchmarkParams(flows_per_set=25)
        flowset, result, attempts = find_schedulable_flowset(
            params, parse_profile("0D_IU_SI"), seed=3)
        assert result.schedulable and len(flowset.flows) == 25
        assert attempts <= 3

    def test_deterministic(self):
        params = BenchmarkParams(flows_per_set=25)
        a = find_schedulable_flowset(params, parse_profile("0D_IU_SI"), seed=3)
        b = find_schedulable_flowset(params, parse_profile("0D_IU_SI"), seed=3)
        assert a[0].flows == b[0].flows and a[2] == b[2]

    def test_each_grid_topology_is_built_once(self):
        topology.generate_multi_ring.cache_clear()
        params = BenchmarkParams(flows_per_set=10)
        a, _, _ = find_schedulable_flowset(params, parse_profile("0D_IU_SI"), seed=1)
        b, _, _ = find_schedulable_flowset(params, parse_profile("0D_IU_SI"), seed=2)
        assert topology.generate_multi_ring.cache_info().misses == 1
        assert a.topology is b.topology

    def test_impossible_parameters_hit_the_cap(self):
        params = BenchmarkParams(flows_per_set=6, packet_range=(512, 512),
                                 period_range=(60, 80))
        with pytest.raises(NoSchedulableFlowsetError):
            find_schedulable_flowset(params, parse_profile("0D_IU_SI"),
                                     seed=1, max_attempts=4)


class TestBoxStats:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BoxStats(1, 0, 2, 3, 4)

    def test_quantiles_match_numpy_linear_interpolation(self):
        rng = random.Random(5)
        for trial in range(40):
            data = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 40))]
            stats = box_stats(data)
            expect = numpy.quantile(numpy.array(data), [0.0, 0.25, 0.5, 0.75, 1.0])
            got = (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum)
            assert numpy.allclose(got, expect), trial

    def test_known_values(self):
        stats = box_stats([1, 2, 3, 4])
        assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) \
            == (1.0, 1.75, 2.5, 3.25, 4.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])


class TestFlowStats:
    def family(self, flows=25, count=2, config="0D_NI_SI"):
        out = []
        for i in range(count):
            flowset, _, _ = find_schedulable_flowset(
                BenchmarkParams(flows_per_set=flows), parse_profile(config),
                seed=1000 + i)
            out.append(flowset)
        return {flows: out}

    def test_identical_configs_give_all_zero_differences(self):
        families = self.family()
        config = parse_profile("0D_IU_SI")
        rows = percent_difference_stats(families, config, config)
        stats = rows[0].stats
        assert stats == BoxStats(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_simplified_vs_iterative_is_nonnegative(self):
        families = self.family()
        rows = percent_difference_stats(families, parse_profile("0D_NI_SI"),
                                        parse_profile("0D_IU_SI"))
        assert rows[0].stats.minimum >= 0.0
        assert rows[0].metric == "pct_diff"

    def test_share_rows_per_point(self):
        families = self.family(config="0D_IU_SI")
        rows = component_share_stats(families, parse_profile("0D_IU_SI"))
        metrics = {(r.flows, r.metric) for r in rows}
        assert metrics == {(25, "ipre_share"), (25, "ipos_share")}
        for row in rows:
            assert 0.0 <= row.stats.minimum and row.stats.maximum <= 100.0

    def test_unschedulable_family_rejected(self):
        flowset = generate_flowset(BenchmarkParams(
            flows_per_set=6, packet_range=(512, 512), period_range=(600, 800)))
        with pytest.raises(ValueError):
            component_share_stats({6: [flowset]}, parse_profile("0D_IU_SI"))

    def test_stats_csv_shape(self):
        families = self.family(config="0D_IU_SI")
        rows = component_share_stats(families, parse_profile("0D_IU_SI"))
        text = stats_to_csv(rows, note="shares")
        lines = text.strip().split("\n")
        assert lines[0] == "# shares"
        assert lines[1] == "flows,metric,min,q1,median,q3,max"
        assert len(lines) == 2 + len(rows)
