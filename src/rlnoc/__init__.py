"""Latency guarantees for routerless multi-ring networks-on-chip.

Modules: topology (grids, rings, routing), traffic (flows, benchmarks,
interference sets), analysis (worst-case latency bounds), simulator
(cycle-accurate oracle), harness (experiment sweeps and statistics),
plotting (SVG renderer) and cli.

Importing a module loads only the modules it depends on. The names in
``__all__`` resolve on first access: ``import rlnoc`` loads no submodule, and
the first read of ``rlnoc.simulate`` loads the simulator and what it imports.
"""

import importlib

_EXPORTS = {
    "analysis": ("AnalysisConfig", "AnalysisRecord", "FlowResult", "FlowsetResult",
                 "analyze", "parse_profile", "profile_name"),
    "simulator": ("SimConfig", "SimOutcome", "oracle_check", "simulate"),
    "topology": ("Coord", "Ring", "Topology", "generate_multi_ring", "load_topology"),
    "traffic": ("BenchmarkParams", "Flow", "Flowset", "generate_flowset"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def data_path(name: str) -> str:
    """Filesystem path of a bundled fixture file (topologies, flowsets)."""
    from importlib import resources

    return str(resources.files(__name__).joinpath("data", name))


__all__ = [*_SOURCE, "data_path"]
