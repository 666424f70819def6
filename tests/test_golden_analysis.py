"""Golden digests of analysis and sweep outputs.

The digests pin the exact bytes of ``results_to_csv`` and ``sweep_to_csv``
for fixed generated flowsets, so any change to how bounds are computed or
set up (indexing, caching, early exits) must reproduce every bound, every
component, every verdict header (``failing_flow`` and ``iterations``
included) and every interference set exactly.
"""

import hashlib

import pytest

from rlnoc.analysis import analyze, parse_profile, results_to_csv
from rlnoc.harness import FULL_PROFILE, SweepSpec, sweep_schedulability, sweep_to_csv
from rlnoc.traffic import BenchmarkParams, generate_flowset, interference_table

CONFIGS = tuple(parse_profile(name) for name in FULL_PROFILE.configs) + (
    parse_profile("OF_IU_SI"),
    parse_profile("OF_NI_II"),
    parse_profile("1D_IU_SI", ipos_formula="coarse"),
)
PACKET_RANGES = ((16, 48), (1, 4))
SEEDS = (11, 12)

GOLDEN_RESULTS = {
    ((4, 4), 20): "634576b8a0126c6990029f167c4553aed11e83f887e8b884700965f498c6c8a4",
    ((4, 4), 100): "8643334562842bd7d4f4fc56d1aedd59804767a03136475f84873b18ac4b61b1",
    ((4, 4), 400): "a4f8d47284abacdc5a4e6514ac54c3db0d493be69a794449e102fbd174ab332b",
    ((5, 5), 20): "3a29467606a81d6cfd21ba04bed97d90e6a3be064c581975aa30ace54d631414",
    ((5, 5), 100): "d248ede003b549ddab0af61ff77253f0735f3dc579d2e48fa26d56b5600523f3",
    ((5, 5), 400): "82735eb1fb06bc69c1a400e4f22713aa9ccf9c01b2fc7ca2a9b8adc9eb59652d",
}

GOLDEN_SWEEP = "841f2ecfbd8bdf2aff4a30e42cc91196f4e986aed1ec942481f48916725c08f3"

SWEEP_SPEC = SweepSpec(
    grids=((4, 4), (5, 5)),
    packet_ranges=((16, 48),),
    flows_schedule=(20, 60, 100),
    flowsets_per_point=3,
    configs=FULL_PROFILE.configs,
    master_seed=5,
)


def results_text(grid, flows) -> str:
    """Every configuration's result CSV, with interference diagnostics, for
    the fixed flowsets of one (grid, flow count) point."""
    parts = []
    for packets in PACKET_RANGES:
        for seed in SEEDS:
            flowset = generate_flowset(
                BenchmarkParams(flows_per_set=flows, width=grid[0], height=grid[1],
                                packet_range=packets, seed=seed))
            table = interference_table(flowset)
            for config in CONFIGS:
                # The digests were taken with the seed closing each verdict record.
                meta, rest = results_to_csv(analyze(flowset, config), config,
                                            diagnostics=table).split("\n", 1)
                parts.append(f"{meta} seed={seed}\n{rest}")
    return "".join(parts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("grid,flows", sorted(GOLDEN_RESULTS))
def test_results_csv_digest(grid, flows):
    assert digest(results_text(grid, flows)) == GOLDEN_RESULTS[(grid, flows)]


def test_sweep_csv_digest():
    rows = sweep_schedulability(SWEEP_SPEC)
    assert digest(sweep_to_csv(rows, SWEEP_SPEC)) == GOLDEN_SWEEP
