"""The import graph: each entry point loads only the rlnoc modules it uses.

Every check runs in a fresh interpreter, so what it finds in ``sys.modules``
does not depend on what other tests imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlnoc

SRC = str(Path(rlnoc.__file__).resolve().parent.parent)


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter and return its ``result`` (a JSON
    value), with the rlnoc modules it left loaded under ``modules``."""
    script = (code + "\nimport json, sys\nprint(json.dumps({'result': result, 'modules': "
              "sorted(m for m in sys.modules if m.split('.')[0] == 'rlnoc')}))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    out = _fresh("import rlnoc\nresult = sorted(dir(rlnoc))")
    assert out["modules"] == ["rlnoc"]
    assert set(rlnoc.__all__) <= set(out["result"])


def test_sweep_setup_loads_neither_simulator_nor_cli():
    modules = _fresh("import rlnoc.harness, rlnoc.plotting\nresult = None")["modules"]
    assert "rlnoc.harness" in modules and "rlnoc.plotting" in modules
    assert "rlnoc.simulator" not in modules and "rlnoc.cli" not in modules


@pytest.mark.parametrize("argv", [
    ["analyze", "--flowset", rlnoc.data_path("five_flow_scenario.json"), "--diagnostics"],
    ["topo", "--width", "5", "--height", "4", "--validate"],
    ["gen", "--flows", "5", "--seed", "3"],
])
def test_light_commands_load_no_simulator_harness_or_plotting(tmp_path, argv):
    argv = [*argv, "--out", str(tmp_path / "out")]
    out = _fresh(f"from rlnoc.cli import run\nresult = run({argv!r})")
    assert out["result"] == 0
    assert (tmp_path / "out").stat().st_size > 0
    for name in ("rlnoc.simulator", "rlnoc.harness", "rlnoc.plotting"):
        assert name not in out["modules"], name


def test_public_names_are_their_submodules_objects():
    out = _fresh(
        "import importlib, rlnoc\n"
        "result = {}\n"
        "for name in rlnoc.__all__:\n"
        "    value = getattr(rlnoc, name)\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    result[name] = [value.__module__, getattr(home, name) is value]\n")
    homes = out["result"]
    assert sorted(homes) == sorted(rlnoc.__all__)
    assert homes.pop("data_path") == ["rlnoc", True]
    for name, (home, same) in homes.items():
        assert home != "rlnoc" and home.startswith("rlnoc.") and same, name


def test_star_import_binds_every_public_name():
    out = _fresh(
        "import rlnoc\n"
        "namespace = {}\n"
        "exec('from rlnoc import *', namespace)\n"
        "result = [name for name in rlnoc.__all__\n"
        "          if namespace.get(name, namespace) is not getattr(rlnoc, name)]\n")
    assert out["result"] == []


def test_from_import_of_a_submodule_imports_it():
    out = _fresh("import sys\nfrom rlnoc import analysis\n"
                 "result = analysis is sys.modules['rlnoc.analysis']")
    assert out["result"] is True
    assert "rlnoc.simulator" not in out["modules"]


def test_unknown_name_raises_attribute_error():
    out = _fresh(
        "import rlnoc\n"
        "try:\n"
        "    rlnoc.no_such_name\n"
        "    result = None\n"
        "except AttributeError as exc:\n"
        "    result = [str(exc), hasattr(rlnoc, 'no_such_name')]\n")
    assert out["result"] == ["module 'rlnoc' has no attribute 'no_such_name'", False]
