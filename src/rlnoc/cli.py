"""Command-line entry point.

Subcommands: topo, gen, analyze, simulate, verify, sweep, flowstats, plot.
Exit codes: 0 success / schedulable / oracle clean; 1 unschedulable flowset or
oracle violation; 2 usage errors; 3 file or schema errors. A defect of rlnoc
(``InvariantError``, ``ProtocolViolation``) propagates with its traceback.
Identical invocations produce byte-identical artifacts, and each comment
header records its seed and configuration, in part: ``simulate`` gives the
injection mode and ``ejection=shared`` for any non-zero deflection bound
(under 1D every flow has a link of its own), and no header records ``--ipos``.

Time quantities are cycles everywhere; ``gen`` accepts a microsecond period
range that is converted at a configurable clock at parse time only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from . import analysis, topology, traffic
from .seeds import derive_seed


def _out_path(name: str | None) -> str | None:
    if name is None:
        return None
    base = os.environ.get("RLNOC_OUT", "")
    if base and not os.path.isabs(name):
        return os.path.join(base, name)
    return name


def _write(path_str: str | None, text: str) -> None:
    if path_str is None:
        sys.stdout.write(text)
    else:
        with open(path_str, "w", encoding="utf-8") as handle:
            handle.write(text)


def _range(kind, low, high=math.inf):
    """Argument type: a finite LO:HI with low <= LO <= HI <= high."""
    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
        try:
            lo, hi = kind(parts[0]), kind(parts[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None
        # NaN fails every comparison, so it is rejected here too.
        if not (low <= lo <= hi <= high and math.isfinite(hi)):
            bounds = f"{low} <= LO <= HI" + ("" if high == math.inf else f" <= {high}")
            raise argparse.ArgumentTypeError(f"expected {bounds}, got {text!r}")
        return lo, hi
    return parse


def _positive(text: str) -> float:
    """Argument type: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"expected a finite number above 0, got {text!r}")
    return value


def _at_least(low: int, high: float = math.inf):
    """Argument type: an integer no smaller than low and no larger than high."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


_count = _at_least(1)
_flows = _at_least(0, traffic.MAX_FLOWS)
_side = _at_least(2, topology.MAX_GRID_SIDE)
_packets = _range(int, 1, traffic.MAX_PACKET_LENGTH)


def _grid(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return _side(w), _side(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from None


# Built once per process: a dropped parser is cyclic garbage.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlnoc",
        description="Worst-case latency analysis and simulation of routerless "
                    "multi-ring networks-on-chip.",
        epilog="The RLNOC_OUT environment variable prefixes relative output paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topo", help="generate, validate or export a topology")
    p.add_argument("--width", type=_side, default=4)
    p.add_argument("--height", type=_side, default=4)
    p.add_argument("--load", metavar="FILE", help="load a topology file instead of generating")
    p.add_argument("--validate", action="store_true",
                   help="print a summary line; every topology is checked when built")
    p.add_argument("--out", metavar="FILE", help="write the topology document")

    p = sub.add_parser("gen", help="generate a random flowset file")
    p.add_argument("--flows", type=_flows, required=True)
    p.add_argument("--width", type=_side, default=4)
    p.add_argument("--height", type=_side, default=4)
    p.add_argument("--packets", type=_packets, default=(16, 48), metavar="LO:HI")
    p.add_argument("--periods", type=_range(int, 1), default=None, metavar="LO:HI",
                   help="period range in cycles (default 1000:100000)")
    p.add_argument("--periods-us", type=_range(float, 0.0), default=None, metavar="LO:HI",
                   help="period range in microseconds, converted at --clock-ghz")
    p.add_argument("--clock-ghz", type=_positive, default=1.0)
    p.add_argument("--jitter", type=_range(float, 0.0, 1.0), default=(0.0, 0.5),
                   metavar="LO:HI",
                   help="release jitter as a fraction of the period")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embed-topology", action="store_true")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("analyze", help="latency bounds and verdict for a flowset")
    p.add_argument("--flowset", required=True, metavar="FILE")
    p.add_argument("--topology", metavar="FILE")
    p.add_argument("--config", default="0D_IU_SI", help="profile such as 0D_IU_SI or OF_IU_II")
    p.add_argument("--ipos", choices=("tight", "coarse"), default="tight")
    p.add_argument("--diagnostics", action="store_true",
                   help="include interference sets as comment lines")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("simulate", help="run the cycle-accurate simulator")
    p.add_argument("--flowset", required=True, metavar="FILE")
    p.add_argument("--topology", metavar="FILE")
    p.add_argument("--config", default="0D_IU_SI",
                   help="analysis profile the hardware should match")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=_count, default=1_000_000)
    p.add_argument("--release", choices=("sporadic", "periodic"), default="sporadic")
    p.add_argument("--trace", metavar="FILE", help="write a cycle-stamped event trace")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("verify", help="analyze, simulate and cross-check the bounds")
    p.add_argument("--flowset", required=True, metavar="FILE")
    p.add_argument("--topology", metavar="FILE")
    p.add_argument("--config", default="0D_IU_SI")
    p.add_argument("--ipos", choices=("tight", "coarse"), default="tight")
    p.add_argument("--seeds", type=_count, default=10)
    p.add_argument("--seed", type=int, default=0, help="master seed for the simulation seeds")
    p.add_argument("--horizon", type=_count, default=1_000_000)
    p.add_argument("--out", metavar="FILE", help="write the violation report")

    p = sub.add_parser("sweep", help="schedulability-ratio sweep")
    p.add_argument("--profile", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--grids", type=_grid, nargs="+", default=None, metavar="WxH")
    p.add_argument("--packets", type=_packets, nargs="+", default=None, metavar="LO:HI")
    p.add_argument("--flows", type=_flows, nargs="+", default=None)
    p.add_argument("--flowsets", type=_count, default=None, help="flowsets per point")
    p.add_argument("--configs", nargs="+", default=None)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("flowstats", help="per-flow latency statistics over schedulable flowsets")
    p.add_argument("--mode", choices=("shares", "diff"), required=True)
    p.add_argument("--config", default="0D_IU_SI",
                   help="configuration (the worse one in diff mode)")
    p.add_argument("--config-better", default=None,
                   help="better configuration for diff mode")
    p.add_argument("--flows", type=_at_least(1, traffic.MAX_FLOWS), nargs="+",
                   default=(25, 50, 75, 100))
    p.add_argument("--flowsets", type=_count, default=1, help="flowsets per point")
    p.add_argument("--grid", type=_grid, default=(4, 4), metavar="WxH")
    p.add_argument("--packets", type=_packets, default=(16, 48), metavar="LO:HI")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--attempts", type=_count, default=200)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("plot", help="render a sweep or stats CSV as SVG")
    p.add_argument("--csv", required=True, metavar="FILE")
    p.add_argument("--kind", choices=("lines", "boxwhisker"), required=True)
    p.add_argument("--out", metavar="FILE")

    return parser


class _UndecodableFile(ValueError):
    """An input file that is not UTF-8 JSON (or, for ``plot``, UTF-8 text)."""


def _read(path: str, load, *args):
    """``load(path, *args)``, naming the file in a decoding error."""
    try:
        return load(path, *args)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise _UndecodableFile(f"{path}: {exc}") from None


def _load_flowset(args) -> traffic.Flowset:
    topo = _read(args.topology, topology.load_topology_file) if args.topology else None
    return _read(args.flowset, traffic.load_flowset_file, topo)


def _cmd_topo(args) -> int:
    if args.load:
        topo = _read(args.load, topology.load_topology_file)
    else:
        topo = topology.generate_multi_ring(args.width, args.height)
    if args.validate:
        print(f"topology ok: {topo.width}x{topo.height}, {len(topo.rings)} rings")
    if args.out or not args.validate:
        _write(_out_path(args.out), json.dumps(topology.topology_to_doc(topo), indent=2) + "\n")
    return 0


def _cmd_gen(args) -> int:
    if args.periods is not None and args.periods_us is not None:
        print("error: use either --periods or --periods-us, not both", file=sys.stderr)
        return 2
    if args.periods_us is not None:
        lo, hi = (us * 1000.0 * args.clock_ghz for us in args.periods_us)
        if not 1 <= lo <= hi < math.inf:
            print("error: --periods-us at --clock-ghz must convert to a finite "
                  "period range of at least 1 cycle", file=sys.stderr)
            return 2
        periods = (int(lo), int(hi))
    else:
        periods = args.periods or (1_000, 100_000)
    params = traffic.BenchmarkParams(
        flows_per_set=args.flows, width=args.width, height=args.height,
        packet_range=args.packets, period_range=periods,
        jitter_fraction_range=args.jitter, seed=args.seed,
    )
    flowset = traffic.generate_flowset(params)
    doc = traffic.flowset_to_doc(flowset, seed=args.seed,
                                 embed_topology=args.embed_topology)
    _write(_out_path(args.out), json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_analyze(args) -> int:
    flowset = _load_flowset(args)
    config = analysis.parse_profile(args.config, ipos_formula=args.ipos)
    result = analysis.analyze(flowset, config)
    diagnostics = traffic.interference_table(flowset) if args.diagnostics else None
    _write(_out_path(args.out),
           analysis.results_to_csv(result, config, diagnostics=diagnostics))
    if not result.schedulable:
        print(f"verdict: {result.verdict} (flow {result.failing_flow})", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args) -> int:
    from . import simulator

    flowset = _load_flowset(args)
    config = analysis.parse_profile(args.config)
    cfg = simulator.SimConfig(seed=args.seed, horizon=args.horizon,
                              release=args.release,
                              collect_trace=args.trace is not None)
    outcome = simulator.simulate(flowset, cfg, config)
    _write(_out_path(args.out), simulator.outcome_to_csv(outcome, cfg, config))
    if args.trace:
        lines = [" ".join(str(part) for part in event) for event in outcome.trace]
        _write(_out_path(args.trace), "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    from . import simulator

    flowset = _load_flowset(args)
    config = analysis.parse_profile(args.config, ipos_formula=args.ipos)
    result = analysis.analyze(flowset, config)
    lines = [f"# config={analysis.profile_name(config)} seeds={args.seeds} "
             f"horizon={args.horizon} master_seed={args.seed}"]
    if not result.schedulable:
        lines.append(f"verdict {result.verdict} flow {result.failing_flow}")
        _write(_out_path(args.out), "\n".join(lines) + "\n")
        print("flowset is not schedulable; nothing to verify", file=sys.stderr)
        return 1
    violations = 0
    for index in range(args.seeds):
        release = "sporadic" if index % 2 == 0 else "periodic"
        cfg = simulator.SimConfig(seed=derive_seed(args.seed, "sim", index),
                                  horizon=args.horizon, release=release)
        outcome = simulator.simulate(flowset, cfg, config)
        report = simulator.oracle_check(flowset, result, outcome)
        for v in report.violations:
            violations += 1
            lines.append(f"violation seed_index={index} flow={v.flow} kind={v.kind} "
                         f"observed={v.observed} limit={v.limit}")
    lines.append(f"checked {args.seeds} runs: "
                 + ("ok" if violations == 0 else f"{violations} violations"))
    _write(_out_path(args.out), "\n".join(lines) + "\n")
    return 0 if violations == 0 else 1


def _cmd_sweep(args) -> int:
    from . import harness

    spec = harness.FAST_PROFILE if args.profile == "fast" else harness.FULL_PROFILE
    overrides = {"master_seed": args.seed}
    if args.grids:
        overrides["grids"] = tuple(args.grids)
    if args.packets:
        overrides["packet_ranges"] = tuple(args.packets)
    if args.flows:
        overrides["flows_schedule"] = tuple(args.flows)
    if args.flowsets is not None:
        overrides["flowsets_per_point"] = args.flowsets
    if args.configs:
        overrides["configs"] = tuple(args.configs)
    spec = replace(spec, **overrides)
    rows = harness.sweep_schedulability(spec)
    _write(_out_path(args.out), harness.sweep_to_csv(rows, spec))
    return 0


def _cmd_flowstats(args) -> int:
    from . import harness

    config = analysis.parse_profile(args.config)
    families: dict[int, list[traffic.Flowset]] = {}
    if args.mode == "diff":
        if not args.config_better:
            print("error: diff mode needs --config-better", file=sys.stderr)
            return 2
        better = analysis.parse_profile(args.config_better)
    for flows in args.flows:
        family = []
        for index in range(args.flowsets):
            params = traffic.BenchmarkParams(
                flows_per_set=flows, width=args.grid[0], height=args.grid[1],
                packet_range=args.packets,
            )
            try:
                flowset, _, _ = harness.find_schedulable_flowset(
                    params, config, derive_seed(args.seed, flows, index),
                    max_attempts=args.attempts,
                )
            except harness.NoSchedulableFlowsetError as exc:
                return _file_error(exc)
            family.append(flowset)
        families[flows] = family
    if args.mode == "shares":
        rows = harness.component_share_stats(families, config)
        note = f"shares config={analysis.profile_name(config)} seed={args.seed}"
    else:
        try:
            rows = harness.percent_difference_stats(families, config, better)
        except ValueError as exc:  # a flowset found under --config fails --config-better
            return _file_error(exc)
        note = (f"diff worse={analysis.profile_name(config)} "
                f"better={analysis.profile_name(better)} seed={args.seed}")
    _write(_out_path(args.out), harness.stats_to_csv(rows, note))
    return 0


def _cmd_plot(args) -> int:
    from . import plotting

    text = _read(args.csv, lambda path: Path(path).read_text(encoding="utf-8"))
    try:
        svg = plotting.render_plot(text, args.kind)
    except plotting.PlotError as exc:
        return _file_error(exc)
    _write(_out_path(args.out), svg)
    return 0


_COMMANDS = {
    "topo": _cmd_topo,
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "flowstats": _cmd_flowstats,
    "plot": _cmd_plot,
}

# The plotting and harness errors are caught by the commands that raise them,
# so that the other commands do not import those modules.
_FILE_ERRORS = (OSError, _UndecodableFile, topology.TopologyError, traffic.TrafficError)


def _file_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 3


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except analysis.AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _FILE_ERRORS as exc:
        return _file_error(exc)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
