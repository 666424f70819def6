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
from rlnoc.topology import generate_multi_ring
from rlnoc.traffic import BenchmarkParams, generate_flowset, interference_table

CONFIGS = tuple(parse_profile(name) for name in FULL_PROFILE.configs) + (
    parse_profile("OF_IU_SI"),
    parse_profile("OF_NI_II"),
    parse_profile("1D_IU_SI", ipos_formula="coarse"),
    parse_profile("0D_IU_SI", exclude_destination_buffer=True),
)
PACKET_RANGES = ((16, 48), (1, 4))
SEEDS = (11, 12)

GOLDEN_RESULTS = {
    ((4, 4), 20): "6865d36477d179a49df132f7d9c24873a4a3fd8304bb7ff647a383de10fee8de",
    ((4, 4), 100): "9e7a5659ff986b49f01f07a4b7c43db635fe217fbd400a7a35d7e5992a520676",
    ((4, 4), 400): "d9aeccea903b9ab73062d9d0f4e3fb24c6e5f04b79ae75b28eac3811c579f963",
    ((5, 5), 20): "8f24274d76980f574d45b44f0c951a24969d79018d499d82af6f6c8c71a9c117",
    ((5, 5), 100): "c08987744b733a1a5aa82afcd2bda02f37ee6985a1b75792dd59ab8a441a08f1",
    ((5, 5), 400): "f0002433016dcc57889471de5372bbeb34fc84f9886b1f5edf3937eddb4cdef3",
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
    topology = generate_multi_ring(*grid)
    parts = []
    for packets in PACKET_RANGES:
        for seed in SEEDS:
            flowset = generate_flowset(
                BenchmarkParams(flows_per_set=flows, width=grid[0], height=grid[1],
                                packet_range=packets, seed=seed),
                topology)
            table = interference_table(flowset)
            for config in CONFIGS:
                parts.append(results_to_csv(analyze(flowset, config), config,
                                            seed=seed, diagnostics=table))
    return "".join(parts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("grid,flows", sorted(GOLDEN_RESULTS))
def test_results_csv_digest(grid, flows):
    assert digest(results_text(grid, flows)) == GOLDEN_RESULTS[(grid, flows)]


def test_sweep_csv_digest():
    rows = sweep_schedulability(SWEEP_SPEC)
    assert digest(sweep_to_csv(rows, SWEEP_SPEC)) == GOLDEN_SWEEP
