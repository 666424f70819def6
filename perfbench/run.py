"""rlnoc benchmark runner.

    python3 perfbench/run.py --workload sweep|oracle --seed N \
        --seconds S --trace 0|1 [--size full|tiny]
    python3 perfbench/run.py --pin      # rewrite references.json

Run from any directory; the runner imports rlnoc from the `src/` next to
this directory and writes its files under `.perfbench_out/` there. It
repeats the workload's round until `--seconds` have passed and the minimum
sample counts are met, and between rounds times the set-up in fresh
processes. See README.md for the workloads and metrics. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics of BENCHMARK.json with `--trace 0` and
its per-layer metrics with `--trace 1`.
Every run is also appended, with its provenance, to
`.perfbench_out/runs.jsonl`, which `compare.py` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 1
SETUP_SAMPLES = 7
MIN_ROUNDS = 3          # per kind of round (untraced, traced) in one run
STOP_STARTING_AFTER = 150.0   # seconds; keeps a run inside its time limit


class Ops:
    """Runs a round's operations, times them and checks their outputs.

    An operation fails when it raises or when an observation differs from
    the pinned reference (default seed) or from the same observation
    earlier in the run (any seed)."""

    def __init__(self, references: dict | None, tracer=None):
        self.references = references
        self.seen: dict[str, str] = {}
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self._next_id = 0
        self.durations = None
        self.totals = None

    def begin_round(self) -> None:
        self.durations = defaultdict(list)
        self.totals = defaultdict(float)

    def add(self, name: str, amount) -> None:
        self.totals[name] += amount

    def run(self, kind: str, fn, *args):
        """Call fn(*args) -> (value, observations); return the value, or
        None when the operation raised."""
        op_id = self._next_id
        self._next_id += 1
        if self.tracer is not None:
            self.tracer.op = op_id
        self.attempted += 1
        start = time.perf_counter()
        try:
            value, observed = fn(*args)
        except Exception:  # one failed op is counted; the run goes on
            self.durations[kind].append(time.perf_counter() - start)
            self.failures.append(f"op {op_id} ({kind}): {traceback.format_exc()}")
            return None
        self.durations[kind].append(time.perf_counter() - start)
        wrong = [key for key, digest in observed.items() if not self._matches(key, digest)]
        if wrong:
            self.failures.append(f"op {op_id} ({kind}): output differs from reference: {wrong}")
        return value

    def _matches(self, key: str, digest: str) -> bool:
        if self.references is not None:
            return self.references.get(key) == digest
        return self.seen.setdefault(key, digest) == digest


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.kernels = 0.0
        self.spans = (0, 0)
        self.durations = {}
        self.totals = {}


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, pct: int):
    """Inclusive-method percentile; the median for pct=50."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def run_rounds(workload, state, ops, tracer, calibrator, seconds, min_sim_ops,
               after_round) -> list[Round]:
    """Repeat the round until `seconds` have passed and every minimum is met.
    With a tracer, traced and untraced rounds alternate; with a calibrator,
    each round is also timed in kernel runs."""
    import workloads

    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        rnd = Round(traced=tracer is not None and len(rounds) % 2 == 1)
        ops.begin_round()
        first_span = len(tracer.spans) if tracer is not None else 0
        if rnd.traced:
            tracer.install()
        try:
            if calibrator is not None:
                rnd.wall, rnd.kernels = calibrator.measure(
                    lambda: workloads.run_round(workload, state, ops))
            else:
                start = time.perf_counter()
                workloads.run_round(workload, state, ops)
                rnd.wall = time.perf_counter() - start
        finally:
            if rnd.traced:
                tracer.uninstall()
        rnd.spans = (first_span, len(tracer.spans) if tracer is not None else 0)
        rnd.durations, rnd.totals = ops.durations, ops.totals
        rounds.append(rnd)
        after_round()

        elapsed = time.perf_counter() - started
        # A traced run ends with one more, untimed round (count_fixed_points).
        if elapsed + rnd.wall * (2 if tracer is not None else 1) > STOP_STARTING_AFTER:
            return rounds
        untraced = [r for r in rounds if not r.traced]
        enough = (
            len(untraced) >= MIN_ROUNDS
            and (tracer is None or len(rounds) - len(untraced) >= MIN_ROUNDS)
            and sum(len(r.durations.get("sim", ())) for r in untraced) >= min_sim_ops
        )
        if elapsed >= seconds and enough:
            return rounds


def count_fixed_points(workload, state, ops):
    """One more round, untimed and with no spans, in which every analyze call
    gets an AnalysisRecord; returns the counter with its sums."""
    import workloads
    from tracing import FixedPointCounter

    counter = FixedPointCounter()
    ops.begin_round()
    counter.install()
    try:
        workloads.run_round(workload, state, ops)
    finally:
        counter.uninstall()
    return counter


def end_to_end_metrics(rounds, setup_samples) -> dict:
    """Set-up samples are scaled to the reference host's kernel time, as
    rounds are counted in kernel runs; see calibration.py."""
    from calibration import NOMINAL_KERNEL_S

    return {
        "setup_s": median(s["setup_s"] / s["kernel_s"] * NOMINAL_KERNEL_S
                          for s in setup_samples),
        "wall_kernels": median(r.kernels for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# Per-layer figures read from the span log: metric -> span name.
_SPAN_TOTALS = {
    "topology.generate_s": "topology.generate",
    "traffic.generate_flowset_s": "traffic.generate_flowset",
    "traffic.interference_table_s": "traffic.interference_table",
    "analysis.analyze_s": "analysis.analyze",
    "harness.sweep_s": "harness.sweep",
    "harness.find_schedulable_s": "harness.find_schedulable",
    "simulator.simulate_s": "simulator.simulate",
    "simulator.oracle_check_s": "simulator.oracle_check",
    "plotting.render_s": "plotting.render",
    "cli.verify_s": "cli.verify",
}
_SPAN_CALLS = {
    "topology.calls": "topology.generate",
    "traffic.generate_flowset_calls": "traffic.generate_flowset",
    "analysis.analyze_calls": "analysis.analyze",
    "simulator.runs": "simulator.simulate",
}
_SPAN_COUNTS = {
    "analysis.outer_iterations": "analysis.analyze.outer_iterations",
    "harness.attempts": "harness.find_schedulable.attempts",
    "simulator.packets": "simulator.simulate.packets",
    "simulator.flits": "simulator.simulate.flits",
    "simulator.deflections": "simulator.simulate.deflections",
}


def per_layer_metrics(rounds, tracer, counter) -> dict:
    """Per-round figures are medians over the traced rounds; per-call
    percentiles pool the traced rounds' calls. Throughput and op latency come
    from the untraced rounds of the same run, so span recording does not slow
    them. The fixed-point counts come from the counter's single round."""
    from tracing import LAYERS, summarize

    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    summaries = [summarize(tracer.spans[slice(*r.spans)], tracer.counts) for r in traced]

    def per_round(fn, middle=median):
        return middle(fn(s) for s in summaries)

    def pooled_ms(name, pct):
        return 1e3 * percentile([d for s in summaries for d in s["durations"].get(name, ())], pct)

    values = {}
    for metric, name in _SPAN_TOTALS.items():
        values[metric] = per_round(lambda s: s["total"].get(name, 0.0))
    for metric, name in _SPAN_CALLS.items():
        values[metric] = per_round(lambda s: s["calls"].get(name, 0), statistics.median_low)
    for metric, key in _SPAN_COUNTS.items():
        values[metric] = per_round(lambda s: s["counts"].get(key, 0), statistics.median_low)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = per_round(lambda s: s["self"][layer])
    values["analysis.fixed_points"] = counter.fixed_points
    values["analysis.fixed_point_iterates"] = counter.iterates
    values["analysis.unschedulable_ratio"] = per_round(lambda s: ratio(
        s["counts"].get("analysis.analyze.unschedulable", 0), s["calls"].get("analysis.analyze", 0)))
    values["harness.hit_ratio"] = per_round(lambda s: ratio(
        s["calls"].get("harness.find_schedulable", 0),
        s["counts"].get("harness.find_schedulable.attempts", 0)))
    values["simulator.us_per_packet"] = per_round(lambda s: 1e6 * ratio(
        s["total"].get("simulator.simulate", 0.0),
        s["counts"].get("simulator.simulate.packets", 0)))
    values["traffic.interference_table_ms_p50"] = pooled_ms("traffic.interference_table", 50)
    values["analysis.analyze_ms_p50"] = pooled_ms("analysis.analyze", 50)
    values["analysis.analyze_ms_p90"] = pooled_ms("analysis.analyze", 90)

    sim_ops = [d for r in untraced for d in r.durations.get("sim", ())]
    values["simulator.op_ms_p50"] = 1e3 * percentile(sim_ops, 50)
    values["simulator.op_ms_p90"] = 1e3 * percentile(sim_ops, 90)
    values["simulator.flits_per_s"] = ratio(sum(r.totals.get("flits", 0) for r in untraced),
                                            sum(r.totals.get("sim_s", 0.0) for r in untraced))
    values["harness.verdicts_per_s"] = ratio(sum(r.totals.get("verdicts", 0) for r in untraced),
                                             sum(r.totals.get("sweep_s", 0.0) for r in untraced))
    values["wall_s"] = median(r.wall for r in untraced)
    values["trace.spans_per_round"] = per_round(lambda s: sum(s["calls"].values()),
                                                statistics.median_low)
    values["trace.overhead_s"] = median(r.wall for r in traced) - median(r.wall for r in untraced)
    return values


def setup_probe(args) -> dict:
    """Time the set-up in a fresh process, so that it pays for importing
    rlnoc, together with the calibration kernel run next to it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(args) -> dict:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
        "started_unix": time.time(),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which names the code measured when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rlnoc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def load_references(seed: int, size: str) -> dict | None:
    with open(REFERENCES, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    return pinned[size] if seed == pinned["seed"] else None


def pin() -> int:
    """Run one round of every workload at the default seed, for both sizes,
    and write the observations as the references."""
    import workloads

    pinned = {"seed": DEFAULT_SEED}
    for size in ("full", "tiny"):
        ops = Ops(references=None)
        for name in workloads.WORKLOADS:
            state = workloads.setup(name, DEFAULT_SEED, size, str(OUT_DIR))
            ops.begin_round()
            workloads.run_round(name, state, ops)
        if ops.failures:
            print("\n".join(ops.failures), file=sys.stderr)
            return 1
        pinned[size] = dict(sorted(ops.seen.items()))
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCES}")
    return 0


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the references from the current code")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    if not (SRC / "rlnoc" / "__init__.py").is_file():
        print(f"error: no rlnoc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        from calibration import kernel_seconds

        kernel = kernel_seconds(3)
        start = time.perf_counter()
        workloads.setup(args.workload, args.seed, args.size, str(OUT_DIR))
        elapsed = time.perf_counter() - start
        kernel += kernel_seconds(3)
        print(json.dumps({"setup_s": elapsed, "kernel_s": statistics.median(kernel)}))
        return 0
    if args.pin:
        return pin()

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    prov = provenance(args)
    state = workloads.setup(args.workload, args.seed, args.size, str(OUT_DIR))
    references = load_references(args.seed, args.size)

    # Set-up is sampled between rounds, so the samples span the run's
    # changes in host speed as the rounds do.
    samples: list[dict] = []

    def sample_setup():
        if not args.trace and len(samples) < SETUP_SAMPLES:
            samples.append(setup_probe(args))

    tracer = calibrator = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        from calibration import Calibrator

        calibrator = Calibrator()
    ops = Ops(references, tracer)
    # Op percentiles come from traced runs only, so only they need the ops.
    full_traced = args.trace and args.size == "full"
    min_sim_ops = workloads.MIN_SIM_OPS[args.workload] if full_traced else 0
    rounds = run_rounds(args.workload, state, ops, tracer, calibrator, args.seconds,
                        min_sim_ops, sample_setup)
    while not args.trace and len(samples) < SETUP_SAMPLES:
        sample_setup()

    if args.trace:
        counter = count_fixed_points(args.workload, state, ops)
        values = per_layer_metrics(rounds, tracer, counter)
        declared = bench["per_layer"]
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = end_to_end_metrics(rounds, samples)
        declared = bench["end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics computed {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(names)}")
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"provenance": prov, "setup_samples": samples,
              "rounds": [{"traced": r.traced, "wall_s": r.wall, "kernels": r.kernels}
                         for r in rounds],
              "failures": ops.failures, "result": result}
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    for failure in ops.failures[:5]:
        print(failure, file=sys.stderr)
    print(f"# provenance {json.dumps(prov)}")
    print(f"# rounds {len(rounds)} (traced {sum(r.traced for r in rounds)}), "
          f"ops {ops.attempted}, failed {len(ops.failures)}")
    for name in names:
        print(f"# {name:36s} {values[name]:14.6g} {result['metrics'][name]['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
