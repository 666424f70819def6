"""Experiment harness: schedulability-ratio sweeps and per-flow statistics.

Benchmarks are paired: for a fixed master seed, every configuration sees
byte-identical flowsets, and the flowsets at a given point are prefixes of
the flowsets at higher flow counts, so the documented monotonicity relations
hold exactly rather than statistically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .analysis import (AnalysisConfig, AnalysisError, FlowsetResult, analyze, parse_profile,
                       profile_name)
from .seeds import derive_seed
from .traffic import BenchmarkParams, Flowset, _extended, generate_flowset


class NoSchedulableFlowsetError(RuntimeError):
    """The attempt cap was reached without finding a fully schedulable flowset."""


@dataclass(frozen=True)
class SweepSpec:
    grids: tuple[tuple[int, int], ...] = ((4, 4),)
    packet_ranges: tuple[tuple[int, int], ...] = ((16, 48),)
    flows_schedule: tuple[int, ...] = (20, 60, 100, 140, 180)
    flowsets_per_point: int = 25
    configs: tuple[str, ...] = ("0D_IU_II", "0D_IU_SI")
    master_seed: int = 1


FAST_PROFILE = SweepSpec()

FULL_PROFILE = SweepSpec(
    grids=((4, 4), (5, 5)),
    packet_ranges=((16, 48), (32, 96), (48, 256), (96, 512)),
    flows_schedule=tuple(range(20, 401, 20)),
    flowsets_per_point=100,
    configs=("0D_NI_II", "0D_IU_II", "0D_NI_SI", "0D_IU_SI",
             "1D_IU_SI", "2D_IU_SI", "3D_IU_SI"),
)


@dataclass(frozen=True)
class SweepRow:
    grid: str
    packet_min: int
    packet_max: int
    flows: int
    config: str
    ratio: float


def point_seed(spec: SweepSpec, grid: tuple[int, int],
               packets: tuple[int, int], index: int) -> int:
    """Seed for one flowset of a sweep point. Deliberately independent of the
    flow count and of the configuration: raising the flow count extends the
    same flowset (prefix pairing), and every configuration sees the same
    benchmarks."""
    return derive_seed(spec.master_seed, grid[0], grid[1], packets[0], packets[1], index)


def sweep_schedulability(spec: SweepSpec) -> list[SweepRow]:
    """Schedulability ratio per (grid, packet range, flows, config) point.

    Each flowset index is generated once, at the largest flow count, and
    every smaller point analyses a prefix of it, whose ``FlowsetIndex``
    grows from the previous prefix's. Flow counts are visited in ascending
    order, configurations in ``spec.configs`` order, and an analysis is
    skipped once its verdict is known (`_settled_by`). A configuration found
    schedulable settles each one that dominates it on that prefix; one found
    unschedulable settles each one that it dominates on every longer prefix
    too, because adding flows only adds interference.

    Raises AnalysisError for an unknown or repeated configuration name, a
    negative flow count, or fewer than one flowset per point.
    """
    repeated = sorted({name for name in spec.configs if spec.configs.count(name) > 1})
    if repeated:
        raise AnalysisError(f"configuration listed twice in sweep: {', '.join(repeated)}")
    if spec.flowsets_per_point < 1:
        raise AnalysisError(f"flowsets_per_point must be >= 1, got {spec.flowsets_per_point}")
    if any(flows < 0 for flows in spec.flows_schedule):
        raise AnalysisError(f"flow counts must be >= 0, got {min(spec.flows_schedule)}")
    rows: list[SweepRow] = []
    configs = [(name, parse_profile(name)) for name in spec.configs]
    settled_by = _settled_by(configs)
    counts = sorted(set(spec.flows_schedule))
    largest = max(counts, default=0)
    for grid in spec.grids:
        grid_label = f"{grid[0]}x{grid[1]}"
        for packets in spec.packet_ranges:
            verdicts = {flows: dict.fromkeys(spec.configs, 0) for flows in counts}
            for index in range(spec.flowsets_per_point):
                full = generate_flowset(BenchmarkParams(
                    flows_per_set=largest, width=grid[0], height=grid[1], packet_range=packets,
                    seed=point_seed(spec, grid, packets, index)))
                flowset = Flowset((), full.topology)
                dead: set[str] = set()  # known unschedulable on this index
                for flows in counts:
                    if len(dead) == len(configs):
                        break
                    flowset = _extended(flowset, full.flows[len(flowset.flows):flows])
                    live: set[str] = set()  # known schedulable on this prefix
                    for name, config in configs:
                        if name in dead or name in live:
                            continue
                        if analyze(flowset, config).schedulable:
                            live |= settled_by[True][name]
                        else:
                            dead |= settled_by[False][name]
                    for name in live:
                        verdicts[flows][name] += 1
            for flows in spec.flows_schedule:
                for name, _ in configs:
                    ratio = 100.0 * verdicts[flows][name] / spec.flowsets_per_point
                    rows.append(SweepRow(grid_label, packets[0], packets[1],
                                         flows, name, ratio))
    return rows


def _settled_by(configs) -> dict[bool, dict[str, frozenset[str]]]:
    """Per verdict and configuration name, the listed names whose verdict on
    the same flowset is certain to be the same once that configuration's is:
    its own, and those of the configurations that it dominates (under
    ``False``, unschedulable) or that dominate it (under ``True``).

    ``a`` dominates ``b`` when they differ at most in that ``b`` has an
    integer deflection bound no smaller than ``a``'s, and in that ``b`` uses
    the simplified jitter method where ``a`` iterates. Either difference only
    adds interference. Oldest-First bounds take no part.
    """
    def dominates(a: AnalysisConfig, b: AnalysisConfig) -> bool:
        return (isinstance(a.maxloop, int) and isinstance(b.maxloop, int)
                and b.maxloop >= a.maxloop
                and (a.jitter_method == "iterative" or b.jitter_method == "simplified")
                and replace(a, maxloop=0, jitter_method="iterative")
                == replace(b, maxloop=0, jitter_method="iterative"))

    below = {name: frozenset({name} | {other for other, b in configs if dominates(a, b)})
             for name, a in configs}
    above = {name: frozenset(other for other in below if name in below[other]) for name in below}
    return {False: below, True: above}


SWEEP_HEADER = "grid,packet_min,packet_max,flows,config,ratio"


def sweep_to_csv(rows: list[SweepRow], spec: SweepSpec) -> str:
    lines = [f"# master_seed={spec.master_seed} flowsets_per_point={spec.flowsets_per_point}",
             SWEEP_HEADER]
    for row in rows:
        lines.append(f"{row.grid},{row.packet_min},{row.packet_max},{row.flows},"
                     f"{row.config},{row.ratio!r}")
    return "\n".join(lines) + "\n"


def find_schedulable_flowset(params: BenchmarkParams, config: AnalysisConfig,
                             seed: int, max_attempts: int = 1000,
                             ) -> tuple[Flowset, FlowsetResult, int]:
    """Regenerate flowsets, advancing the seed deterministically, until one is
    fully schedulable under the configuration; returns it with its analysis
    and the attempt count."""
    for attempt in range(1, max_attempts + 1):
        candidate = replace(params, seed=derive_seed(seed, "attempt", attempt))
        flowset = generate_flowset(candidate)
        result = analyze(flowset, config)
        if result.schedulable:
            return flowset, result, attempt
    raise NoSchedulableFlowsetError(
        f"no fully schedulable {params.flows_per_set}-flow flowset within "
        f"{max_attempts} attempts"
    )


@dataclass(frozen=True)
class BoxStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    def __post_init__(self):
        if not (self.minimum <= self.q1 <= self.median <= self.q3 <= self.maximum):
            raise ValueError("box statistics out of order")


def _quantile(ordered: list[float], p: float) -> float:
    # Linear interpolation between closest ranks.
    h = (len(ordered) - 1) * p
    lo = int(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def box_stats(values) -> BoxStats:
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("box_stats needs at least one value")
    return BoxStats(ordered[0], _quantile(ordered, 0.25), _quantile(ordered, 0.5),
                    _quantile(ordered, 0.75), ordered[-1])


@dataclass(frozen=True)
class StatsRow:
    flows: int
    metric: str
    stats: BoxStats


def percent_difference_stats(families: dict[int, list[Flowset]],
                             worse: AnalysisConfig, better: AnalysisConfig,
                             ) -> list[StatsRow]:
    """Per-flow percent increase of the worse configuration's bound over the
    better one, pooled per flows-per-set point. Every flowset must be fully
    schedulable under both configurations."""
    rows = []
    for flows in sorted(families):
        diffs: list[float] = []
        for flowset in families[flows]:
            res_worse = analyze(flowset, worse)
            res_better = analyze(flowset, better)
            if not (res_worse.schedulable and res_better.schedulable):
                failing = better if res_worse.schedulable else worse
                raise ValueError(
                    f"percent differences need schedulability under both configurations: "
                    f"a {flows}-flow flowset is unschedulable under {profile_name(failing)}")
            for fid in sorted(res_better.results):
                r_better = res_better.results[fid].bound
                r_worse = res_worse.results[fid].bound
                diffs.append(100.0 * (r_worse - r_better) / r_better)
        rows.append(StatsRow(flows, "pct_diff", box_stats(diffs)))
    return rows


def component_share_stats(families: dict[int, list[Flowset]],
                          config: AnalysisConfig) -> list[StatsRow]:
    """Shares of the latency bound taken by the interference before and after
    injection, in percent, pooled per flows-per-set point."""
    rows = []
    for flows in sorted(families):
        pre: list[float] = []
        pos: list[float] = []
        for flowset in families[flows]:
            result = analyze(flowset, config)
            if not result.schedulable:
                raise ValueError(
                    f"component shares need a schedulable flowset ({flows} flows)"
                )
            for fid in sorted(result.results):
                r = result.results[fid]
                pre.append(100.0 * r.pre_injection / r.bound)
                pos.append(100.0 * r.post_injection / r.bound)
        rows.append(StatsRow(flows, "ipre_share", box_stats(pre)))
        rows.append(StatsRow(flows, "ipos_share", box_stats(pos)))
    return rows


STATS_HEADER = "flows,metric,min,q1,median,q3,max"


def stats_to_csv(rows: list[StatsRow], note: str) -> str:
    lines = [f"# {note}", STATS_HEADER]
    for row in rows:
        s = row.stats
        lines.append(f"{row.flows},{row.metric},{s.minimum!r},{s.q1!r},"
                     f"{s.median!r},{s.q3!r},{s.maximum!r}")
    return "\n".join(lines) + "\n"
