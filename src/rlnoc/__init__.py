"""Latency guarantees for routerless multi-ring networks-on-chip.

Modules: topology (grids, rings, routing), traffic (flows, benchmarks,
interference sets), analysis (worst-case latency bounds), simulator
(cycle-accurate oracle), harness (experiment sweeps and statistics),
plotting (SVG renderer) and cli.
"""

from importlib import resources as _resources

from .analysis import (
    AnalysisConfig,
    AnalysisRecord,
    FlowResult,
    FlowsetResult,
    analyze,
    parse_profile,
    profile_name,
)
from .simulator import (
    HardwareProfile,
    SimConfig,
    SimOutcome,
    hardware_from_config,
    oracle_check,
    simulate,
)
from .topology import Coord, Ring, Topology, generate_multi_ring, load_topology
from .traffic import BenchmarkParams, Flow, Flowset, generate_flowset


def data_path(name: str) -> str:
    """Filesystem path of a bundled fixture file (topologies, flowsets)."""
    return str(_resources.files(__name__).joinpath("data", name))


__all__ = [
    "AnalysisConfig",
    "AnalysisRecord",
    "BenchmarkParams",
    "Coord",
    "data_path",
    "Flow",
    "FlowResult",
    "Flowset",
    "FlowsetResult",
    "HardwareProfile",
    "Ring",
    "SimConfig",
    "SimOutcome",
    "Topology",
    "analyze",
    "generate_flowset",
    "generate_multi_ring",
    "hardware_from_config",
    "load_topology",
    "oracle_check",
    "parse_profile",
    "profile_name",
    "simulate",
]
