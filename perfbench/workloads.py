"""The benchmark's three workloads, driven through rlnoc's public API.

Each workload has a set-up step, which imports the rlnoc modules it uses and
builds the inputs that do not change between rounds, and a round: a fixed
list of operations that the runner repeats. Every round of a run does the
same work on the same inputs, so per-round times have a median and
per-round counts repeat exactly. An operation returns observations (digests
of its outputs) that the runner compares with the pinned references and
with the run's first round.

Why these two:

* sweep: one `sweep_schedulability` call on a slice of the full profile.
  Nearly all of its time is analysis set-up, and most high-load verdicts
  exit early as unschedulable. The simulator does no work here, so a
  simulator change must leave it flat.
* oracle: a slice of the criterion-2 safety campaign, sparse traffic over
  one-million-cycle windows where the simulator fast-forwards most cycles.
  Analysis is a few percent of its time, so an analysis change should move
  it only slightly.

Rounds call rlnoc through module attributes (`harness.sweep_schedulability`),
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

# The master seed of the criterion-2 campaign in tests/test_acceptance.py.
# Oracle flowsets are that campaign's first flowset per (configuration,
# size), so they are the same for every --seed: their periods span 1k to
# 100k cycles, and one flowset can cost fifty times another to simulate.
# --seed picks every release schedule instead.
CAMPAIGN_SEED = 20260808
CAMPAIGN_CONFIGS = ("0D_IU_II", "0D_IU_SI", "1D_IU_SI")
VERIFY_CASE = ("0D_IU_SI", 1)  # (configuration, size index) checked via the CLI

SIZES = {
    "sweep": {
        "full": {"grids": ((4, 4), (5, 5)), "flows": (40, 160, 280, 400), "flowsets": 2},
        "tiny": {"grids": ((4, 4),), "flows": (20, 40), "flowsets": 1},
    },
    "oracle": {
        "full": {"sizes": (20, 40, 60, 80), "sims": 2, "horizon": 1_000_000,
                 "verify_seeds": 2},
        "tiny": {"sizes": (20, 40), "sims": 1, "horizon": 20_000, "verify_seeds": 1},
    },
}

# Simulate ops that a full-size traced run must time in its untraced rounds
# before it may stop; one op is one simulate call plus its checks, and 100
# leave ten samples beyond p90.
MIN_SIM_OPS = {"sweep": 0, "oracle": 100}


class OpFailure(Exception):
    """An operation's output broke an invariant."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailure(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bound_hash(result) -> str:
    return sha256(",".join(f"{fid}:{result.results[fid].bound}"
                           for fid in sorted(result.results)))


@dataclass
class State:
    seed: int
    size: dict
    out_dir: str
    inputs: object = None


# --- sweep -------------------------------------------------------------------

def setup_sweep(state: State) -> None:
    from rlnoc import harness, plotting  # noqa: F401  (importing is set-up)

    size = state.size
    state.inputs = replace(
        harness.FULL_PROFILE,
        grids=size["grids"],
        packet_ranges=((16, 48),),
        flows_schedule=size["flows"],
        flowsets_per_point=size["flowsets"],
        master_seed=state.seed,
    )


def round_sweep(state: State, ops) -> None:
    from rlnoc import harness, plotting

    spec = state.inputs
    expected_rows = (len(spec.grids) * len(spec.packet_ranges)
                     * len(spec.flows_schedule) * len(spec.configs))

    def sweep():
        start = time.perf_counter()
        rows = harness.sweep_schedulability(spec)
        ops.add("sweep_s", time.perf_counter() - start)
        require(len(rows) == expected_rows, f"sweep returned {len(rows)} rows")
        ops.add("verdicts", len(rows) * spec.flowsets_per_point)
        text = harness.sweep_to_csv(rows, spec)
        return text, {"sweep.csv": sha256(text)}

    def render(text):
        require(text is not None, "no sweep CSV to render")
        svg = plotting.render_plot(text, "lines")
        return svg, {"sweep.svg": sha256(svg)}

    text = ops.run("sweep", sweep)
    ops.run("render", render, text)


# --- oracle ------------------------------------------------------------------

def setup_oracle(state: State) -> None:
    from rlnoc import analysis, cli, harness, simulator, traffic  # noqa: F401
    from rlnoc.seeds import derive_seed

    size = state.size
    cases = []
    for name in CAMPAIGN_CONFIGS:
        config = analysis.parse_profile(name)
        hw = simulator.hardware_from_config(config)
        for index, flows in enumerate(size["sizes"]):
            params = traffic.BenchmarkParams(flows_per_set=flows)
            sims = [simulator.SimConfig(
                        seed=derive_seed(state.seed, "sim", name, index, k),
                        horizon=size["horizon"],
                        release="sporadic" if k % 2 == 0 else "periodic")
                    for k in range(size["sims"])]
            search_seed = derive_seed(CAMPAIGN_SEED, name, index)
            cases.append((name, index, config, hw, params, search_seed, sims))
    state.inputs = cases


def round_oracle(state: State, ops) -> None:
    from rlnoc import harness, simulator

    def find(name, index, config, params, search_seed):
        flowset, result, _ = harness.find_schedulable_flowset(
            params, config, search_seed, max_attempts=500)
        return (flowset, result), {f"oracle.bounds.{name}.{index}": bound_hash(result)}

    def sim(found, hw, cfg, key):
        require(found is not None, "no schedulable flowset to simulate")
        flowset, result = found
        start = time.perf_counter()
        outcome = simulator.simulate(flowset, cfg, hw)
        ops.add("sim_s", time.perf_counter() - start)
        ops.add("flits", outcome.flits_ejected)
        require(outcome.drained, "network did not drain")
        require(outcome.released == outcome.delivered,
                f"released {outcome.released} != delivered {outcome.delivered}")
        require(outcome.flits_injected == outcome.flits_ejected,
                f"flits injected {outcome.flits_injected} != ejected {outcome.flits_ejected}")
        report = simulator.oracle_check(flowset, result, outcome)
        require(report.ok, f"oracle violations: {report.violations}")
        return None, {key: outcome.digest}

    for name, index, config, hw, params, search_seed, sims in state.inputs:
        found = ops.run("find", find, name, index, config, params, search_seed)
        for k, cfg in enumerate(sims):
            ops.run("sim", sim, found, hw, cfg, f"oracle.digest.{name}.{index}.{k}")
        if (name, index) == VERIFY_CASE:
            ops.run("verify", verify, state, name, found)


def verify(state: State, name: str, found):
    """`rlnoc verify` in process on the saved flowset; it must exit 0."""
    from rlnoc import cli, traffic

    require(found is not None, "no schedulable flowset to verify")
    flowset_path = f"{state.out_dir}/oracle-flowset.json"
    report_path = f"{state.out_dir}/oracle-verify.txt"
    traffic.save_flowset_file(found[0], flowset_path)
    code = cli.run(["verify", "--flowset", flowset_path, "--config", name,
                    "--seeds", str(state.size["verify_seeds"]),
                    "--seed", str(state.seed),
                    "--horizon", str(state.size["horizon"]),
                    "--out", report_path])
    require(code == 0, f"rlnoc verify exited with {code}")
    with open(report_path, "r", encoding="utf-8") as handle:
        report = handle.read()
    return None, {"oracle.verify": sha256(report)}


WORKLOADS = {
    "sweep": (setup_sweep, round_sweep),
    "oracle": (setup_oracle, round_oracle),
}


def setup(workload: str, seed: int, size: str, out_dir: str) -> State:
    """Import rlnoc and build the workload's fixed inputs."""
    state = State(seed, SIZES[workload][size], out_dir)
    WORKLOADS[workload][0](state)
    return state


def run_round(workload: str, state: State, ops) -> None:
    WORKLOADS[workload][1](state, ops)
