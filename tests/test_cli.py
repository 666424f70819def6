import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlnoc import analysis, cli, data_path, simulator
from rlnoc.cli import run
from rlnoc.topology import TopologyError, load_topology
from rlnoc.traffic import MAX_PACKET_LENGTH, TrafficError, load_flowset


def test_topo_generate_and_validate(capsys):
    assert run(["topo", "--width", "4", "--height", "4", "--validate"]) == 0
    out = capsys.readouterr().out
    assert "12 rings" in out


def test_topo_load_fixture(tmp_path):
    out = tmp_path / "fixture.json"
    code = run(["topo", "--load", data_path("grid4x4_ten_rings.json"),
                "--validate", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["rings"]) == 10


def test_gen_analyze_simulate_verify_pipeline(tmp_path):
    flowset_file = tmp_path / "flows.json"
    assert run(["gen", "--flows", "12", "--seed", "21",
                "--out", str(flowset_file)]) == 0
    doc = json.loads(flowset_file.read_text())
    assert doc["seed"] == 21 and len(doc["flows"]) == 12

    result_file = tmp_path / "result.csv"
    assert run(["analyze", "--flowset", str(flowset_file),
                "--config", "0D_IU_SI", "--out", str(result_file)]) == 0
    text = result_file.read_text()
    assert text.startswith("# verdict=schedulable")
    assert "config=0D_IU_SI" in text

    sim_file = tmp_path / "sim.csv"
    assert run(["simulate", "--flowset", str(flowset_file), "--seed", "5",
                "--horizon", "100000", "--out", str(sim_file)]) == 0
    assert sim_file.read_text().count("\n") == 2 + 12

    report_file = tmp_path / "verify.txt"
    assert run(["verify", "--flowset", str(flowset_file), "--config", "0D_IU_SI",
                "--seeds", "3", "--horizon", "100000",
                "--out", str(report_file)]) == 0
    assert "ok" in report_file.read_text()


def test_verify_reports_each_violation(tmp_path, monkeypatch):
    # The bounds hold on the bundled scenario, so a stand-in oracle reports
    # one latency violation per run; the report lists each and exits 1.
    def one_violation(flowset, result, outcome):
        return simulator.OracleReport((simulator.OracleViolation(3, "latency", 120, 100),))

    monkeypatch.setattr(simulator, "oracle_check", one_violation)
    report_file = tmp_path / "verify.txt"
    assert run(["verify", "--flowset", data_path("five_flow_scenario.json"),
                "--seeds", "2", "--horizon", "50000", "--out", str(report_file)]) == 1
    lines = report_file.read_text().splitlines()
    assert lines[1:] == ["violation seed_index=0 flow=3 kind=latency observed=120 limit=100",
                         "violation seed_index=1 flow=3 kind=latency observed=120 limit=100",
                         "checked 2 runs: 2 violations"]


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert run(["topo", "--width", "2", "--height", "2", "--validate"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    assert capsys.readouterr().out == "topology ok: 2x2, 1 rings\n" * 2


def test_analyze_diagnostics_reports_interference_sets(tmp_path):
    result_file = tmp_path / "result.csv"
    code = run(["analyze", "--flowset", data_path("five_flow_scenario.json"),
                "--config", "0D_IU_II", "--diagnostics", "--out", str(result_file)])
    assert code == 0
    text = result_file.read_text()
    assert "# interference flow=1 up=2 down=3 in=5 upind=4" in text
    assert "# interference flow=3 up=1 down=- in=- upind=2+5" in text


def test_analyze_unschedulable_exits_one(tmp_path):
    doc = {
        "width": 3, "height": 2,
        "topology": json.loads(open(data_path("six_switch_ring.json")).read()),
        "flows": [
            {"id": 1, "T": 1000, "D": 1000, "L": 2, "J": 0, "src": [2, 0], "dst": [2, 1], "ring": 0},
            {"id": 2, "T": 10, "D": 10, "L": 5, "J": 0, "src": [1, 0], "dst": [1, 1], "ring": 0},
            {"id": 3, "T": 10, "D": 10, "L": 5, "J": 0, "src": [0, 0], "dst": [0, 1], "ring": 0},
        ],
    }
    flowset_file = tmp_path / "bad.json"
    flowset_file.write_text(json.dumps(doc))
    result_file = tmp_path / "result.csv"
    assert run(["analyze", "--flowset", str(flowset_file),
                "--out", str(result_file)]) == 1
    assert "verdict=unschedulable" in result_file.read_text()


def test_failing_flow_zero_is_named(tmp_path, capsys):
    doc = {"width": 4, "height": 4, "flows": [
        {"id": 0, "T": 10, "D": 10, "L": 40, "J": 0, "src": [0, 0], "dst": [1, 0]}]}
    flowset_file = tmp_path / "zero.json"
    flowset_file.write_text(json.dumps(doc))
    assert run(["analyze", "--flowset", str(flowset_file),
                "--out", str(tmp_path / "result.csv")]) == 1
    assert capsys.readouterr().err == "verdict: unschedulable (flow 0)\n"
    report_file = tmp_path / "report.txt"
    assert run(["verify", "--flowset", str(flowset_file),
                "--out", str(report_file)]) == 1
    assert report_file.read_text().splitlines()[1] == "verdict unschedulable flow 0"


def test_flowstats_without_a_schedulable_flowset_exits_three(tmp_path, capsys):
    out = tmp_path / "fs.csv"
    assert run(["flowstats", "--mode", "shares", "--flows", "300", "--attempts", "2",
                "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: no fully schedulable 300-flow flowset within 2 attempts\n")
    assert not out.exists()


def test_flowstats_diff_unschedulable_under_the_better_config_exits_three(tmp_path, capsys):
    # The search finds flowsets schedulable under --config only; at 60 flows
    # the one it finds fails 3D_IU_SI.
    out = tmp_path / "diff.csv"
    assert run(["flowstats", "--mode", "diff", "--config", "0D_NI_II",
                "--config-better", "3D_IU_SI", "--flows", "40", "60",
                "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: percent differences need schedulability under both configurations: "
        "a 60-flow flowset is unschedulable under 3D_IU_SI\n")
    assert not out.exists()


def test_missing_file_exits_three(capsys):
    assert run(["analyze", "--flowset", "/nonexistent/flows.json"]) == 3
    assert run(["topo", "--load", "/nonexistent/topo.json"]) == 3


def test_schema_violation_exits_three(tmp_path):
    bad = tmp_path / "bad_topo.json"
    bad.write_text(json.dumps({"width": 2, "height": 2, "rings": [], "x": 1}))
    assert run(["topo", "--load", str(bad)]) == 3


def _flow_doc(**changes):
    flow = {"id": 1, "T": 1000, "D": 900, "L": 4, "J": 0,
            "src": [0, 0], "dst": [1, 0], "ring": 0}
    flow.update(changes)
    return {"width": 4, "height": 4, "flows": [flow]}


def _topology_doc(top=(), ring=()):
    """A flowset document that embeds the six-switch ring, with changes."""
    ring_doc = {"id": 0, "switches": [[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]]}
    ring_doc.update(ring)
    topology = {"width": 3, "height": 2, "rings": [ring_doc]}
    topology.update(top)
    flow = {"id": 1, "T": 1000, "D": 900, "L": 4, "J": 0,
            "src": [0, 0], "dst": [1, 0], "ring": 0}
    return {"topology": topology, "flows": [flow]}


# Malformed flowset documents and the part of the error message that names
# what is wrong with each.
MALFORMED_FLOWSETS = {
    "float_period": (_flow_doc(T=1000.5), "'T' must be an integer"),
    "negative_jitter": (_flow_doc(J=-1), "flow 1: negative or zero timing parameter"),
    "float_deadline": (_flow_doc(D=900.5), "'D' must be an integer"),
    "string_length": (_flow_doc(L="4"), "'L' must be an integer"),
    "bool_length": (_flow_doc(L=True), "'L' must be an integer"),
    "string_id": (_flow_doc(id="1"), "flow id must be an integer"),
    "three_element_src": (_flow_doc(src=[0, 0, 0]), "'src' must be [col, row]"),
    "scalar_dst": (_flow_doc(dst=5), "'dst' must be [col, row]"),
    "off_grid_src": (_flow_doc(src=[7, 0]), "'src' [7, 0] is outside the 4x4 grid"),
    "off_grid_src_routed": (_flow_doc(src=[0, 9], ring=None),
                            "'src' [0, 9] is outside the 4x4 grid"),
    "same_endpoints_routed": (_flow_doc(dst=[0, 0], ring=None),
                              "source equals destination"),
    "unknown_ring": (_flow_doc(ring=99), "'ring' must name a ring"),
    "string_ring": (_flow_doc(ring="0"), "'ring' must name a ring"),
    "string_seed": ({**_flow_doc(), "seed": "x"}, "field 'seed' must be an integer"),
    "bool_seed": ({**_flow_doc(), "seed": True}, "field 'seed' must be an integer"),
    "flows_not_a_list": ({"width": 4, "height": 4, "flows": 5},
                         "'flows' must be a list"),
    "no_topology_no_width": ({"height": 4, "flows": _flow_doc()["flows"]},
                             "missing or non-integer field 'width'"),
    "missing_field": ({"width": 4, "height": 4, "flows": [{"id": 1}]},
                      "missing field 'T'"),
    "topology_bool_width": (_topology_doc(top={"width": True}),
                            "non-integer field 'width'"),
    "topology_bool_height": (_topology_doc(top={"height": True}),
                             "non-integer field 'height'"),
    "topology_bool_ring_id": (_topology_doc(ring={"id": False}),
                              "ring is missing an integer 'id'"),
    "topology_bool_switch": (
        _topology_doc(ring={"switches": [[0, 0], [True, 0], [2, 0], [2, 1], [1, 1], [0, 1]]}),
        "switch entries must be [col, row]"),
    "topology_bool_buffer_capacity": (_topology_doc(ring={"buffer_capacity": True}),
                                      "buffer_capacity must be an integer"),
    "grid_contradicts_topology": ({**_topology_doc(), "width": 9, "height": 9},
                                  "field 'width' is 9, but the topology is 3x2"),
}


def test_analysis_defect_propagates_out_of_run(monkeypatch):
    # A decreasing busy-period iterate is a defect of the analysis, not of
    # the input, so it leaves run() as an exception (exit 1 with a
    # traceback) instead of an exit-2 usage error. Negated packet lengths
    # make the real fixed point's second iterate fall below its first.
    fixed_point = analysis._fixed_point

    def negated(base, terms, *args):
        return fixed_point(base, [(t, -load, offset, i) for t, load, offset, i in terms], *args)

    monkeypatch.setattr(analysis, "_fixed_point", negated)
    with pytest.raises(analysis.InvariantError, match="busy-period iterate decreased"):
        run(["analyze", "--flowset", data_path("five_flow_scenario.json")])


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("name", sorted(MALFORMED_FLOWSETS))
def test_malformed_flowset_exits_three(tmp_path, capsys, command, name):
    doc, message = MALFORMED_FLOWSETS[name]
    flowset_file = tmp_path / "bad.json"
    flowset_file.write_text(json.dumps(doc))
    assert run([command, "--flowset", str(flowset_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["not_utf8", "nested_too_deep"])
@pytest.mark.parametrize("argv", [["analyze", "--flowset"], ["topo", "--load"],
                                  ["plot", "--kind", "lines", "--csv"]],
                         ids=["analyze", "topo", "plot"])
def test_undecodable_file_exits_three(tmp_path, capsys, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run(argv + [str(bad)]) == 3
    err = capsys.readouterr().err
    # Brackets are valid UTF-8 text, so plot reads them and rejects the rows.
    prefix = "error: " if argv[0] == "plot" and content.isascii() else f"error: {bad}: "
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["not_utf8", "nested_too_deep"])
@pytest.mark.parametrize("bad_option", ["--flowset", "--topology"])
def test_undecodable_file_is_named(tmp_path, capsys, bad_option, content):
    # analyze reads two files; the error says which of them is bad.
    doc = _topology_doc()
    files = {"--flowset": tmp_path / "flows.json", "--topology": tmp_path / "topo.json"}
    files["--flowset"].write_text(json.dumps({"width": 3, "height": 2,
                                              "flows": doc["flows"]}))
    files["--topology"].write_text(json.dumps(doc["topology"]))
    argv = ["analyze", "--out", str(tmp_path / "out.csv")]
    for option, path in files.items():
        argv += [option, str(path)]
    assert run(argv) == 0
    files[bad_option].write_bytes(content)
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[bad_option]}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc"])
def test_plot_rejects_non_finite_cells(tmp_path, capsys, cell):
    csv_file = tmp_path / "sweep.csv"
    csv_file.write_text(f"grid,packet_min,packet_max,flows,config,ratio\n"
                        f"4x4,16,48,20,0D_IU_SI,{cell}\n")
    assert run(["plot", "--csv", str(csv_file), "--kind", "lines",
                "--out", str(tmp_path / "sweep.svg")]) == 3
    assert capsys.readouterr().err == f"error: row 2: not a finite number: '{cell}'\n"
    assert not (tmp_path / "sweep.svg").exists()


def test_undersized_buffer_capacity_exits_three(tmp_path, capsys):
    # Only the commands that read buffer capacities reject the file: the
    # tight analysis charges per-switch backlog bounds instead.
    flowset_file = tmp_path / "small_buffer.json"
    flowset_file.write_text(json.dumps(_topology_doc(ring={"buffer_capacity": 2})))
    out = str(tmp_path / "out.csv")
    assert run(["analyze", "--flowset", str(flowset_file), "--out", out]) == 0
    for argv in (["analyze", "--ipos", "coarse"], ["simulate"]):
        assert run(argv + ["--flowset", str(flowset_file), "--out", out]) == 3, argv
        err = capsys.readouterr().err
        assert err == "error: ring 0: buffer capacity 2 cannot hold a 4-flit packet\n"


def test_packets_longer_than_1024_flits_run_end_to_end(tmp_path):
    doc = {"width": 2, "height": 2, "flows": [
        {"id": 1, "T": 100_000, "D": 100_000, "L": 1500, "J": 0,
         "src": [0, 0], "dst": [1, 0]},
        {"id": 2, "T": 100_000, "D": 100_000, "L": 3, "J": 0,
         "src": [0, 1], "dst": [1, 0]},
    ]}
    flowset_file = tmp_path / "long.json"
    flowset_file.write_text(json.dumps(doc))
    result_file = tmp_path / "result.csv"
    assert run(["analyze", "--flowset", str(flowset_file), "--config", "0D_IU_SI",
                "--out", str(result_file)]) == 0
    assert result_file.read_text().startswith("# verdict=schedulable")
    sim_file = tmp_path / "sim.csv"
    assert run(["simulate", "--flowset", str(flowset_file), "--horizon", "300000",
                "--out", str(sim_file)]) == 0
    rows = sim_file.read_text().strip().split("\n")[2:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]
    assert all(int(row.split(",")[1]) > 0 for row in rows)
    report_file = tmp_path / "verify.txt"
    assert run(["verify", "--flowset", str(flowset_file), "--config", "0D_IU_SI",
                "--seeds", "2", "--horizon", "300000", "--out", str(report_file)]) == 0
    report = report_file.read_text()
    assert "violation" not in report and report.endswith("checked 2 runs: ok\n")


def test_bad_flags_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["analyze", "--no-such-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2
    capsys.readouterr()
    # Counts below 1, horizons below 1 and negative flow counts are usage
    # errors, not empty, vacuous or default runs.
    for argv in (["flowstats", "--mode", "shares", "--flowsets", "0"],
                 ["flowstats", "--mode", "shares", "--flows", "0"],
                 ["flowstats", "--mode", "shares", "--attempts", "0"],
                 ["sweep", "--flowsets", "0"],
                 ["sweep", "--flowsets", "-1"],
                 ["verify", "--flowset", "flows.json", "--seeds", "-2"],
                 ["verify", "--flowset", "flows.json", "--seeds", "0"],
                 ["verify", "--flowset", "flows.json", "--horizon", "0"],
                 ["verify", "--flowset", "flows.json", "--horizon", "-5"],
                 ["simulate", "--flowset", "flows.json", "--horizon", "0"],
                 ["gen", "--flows", "-1"],
                 ["sweep", "--flows", "-1"],
                 # Grid sides below 2 admit no multi-ring topology.
                 ["topo", "--width", "0"],
                 ["gen", "--flows", "3", "--width", "1"],
                 ["sweep", "--grids", "1x4"],
                 ["flowstats", "--mode", "shares", "--grid", "1x3"],
                 # Empty, reversed, out-of-range or non-finite ranges.
                 ["gen", "--flows", "3", "--clock-ghz", "nan", "--periods-us", "1:2"],
                 ["gen", "--flows", "3", "--clock-ghz", "inf", "--periods-us", "1:2"],
                 ["gen", "--flows", "3", "--periods-us", "nan:2"],
                 ["gen", "--flows", "3", "--packets", "0:5"],
                 ["gen", "--flows", "3", "--packets", "48:16"],
                 ["gen", "--flows", "3", "--periods", "0:10"],
                 ["gen", "--flows", "3", "--periods", "100:10"],
                 ["gen", "--flows", "3", "--jitter", "0.6:0.2"],
                 ["gen", "--flows", "3", "--clock-ghz", "-1"],
                 ["sweep", "--packets", "0:4"],
                 ["flowstats", "--mode", "shares", "--packets", "9:3"]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2, argv
        assert capsys.readouterr().err.count("error:") == 1, argv
    # Checked after parsing: the microsecond range is below one cycle at the
    # clock, a name is listed twice and would be counted twice, both period
    # units are given, or a diff has no better configuration.
    for argv in (["gen", "--flows", "3", "--periods-us", "0.0001:2"],
                 ["sweep", "--configs", "0D_IU_SI", "0D_IU_SI"],
                 ["gen", "--flows", "3", "--periods", "10:20", "--periods-us", "1:2"],
                 ["flowstats", "--mode", "diff", "--flows", "10"]):
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.count("error:") == 1, argv
    # An empty flowset is still a legal request.
    assert run(["gen", "--flows", "0", "--out", str(tmp_path / "empty.json")]) == 0


def test_release_count_over_the_limit_exits_two(capsys):
    # The five flows have T = 10,000, so this horizon allows 5e8 releases:
    # refused before any is drawn, as a usage error, not a verdict.
    scenario = data_path("five_flow_scenario.json")
    for command in ("simulate", "verify"):
        start = time.perf_counter()
        assert run([command, "--flowset", scenario, "--horizon", "1000000000000"]) == 2
        assert time.perf_counter() - start < 1, command
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "500000000 releases" in err, err


def test_undrainable_queue_exits_two(tmp_path, capsys):
    # Periodic packets of 4,096 flits every cycle owe one queue, or under
    # OF_IU_SI the shared ejection link of core (1, 0), more flits than the
    # run has cycles: refused before any cycle is stepped.
    for sources, argv, owed in (
            ([(0, 0)], ["--horizon", "3000"], "must send 12288000 flits"),
            ([(0, 0), (0, 1), (1, 1)], ["--config", "OF_IU_SI", "--horizon", "2000"],
             "ejection link of core (1, 0) must eject 24576000 flits")):
        probe = tmp_path / "over.json"
        probe.write_text(json.dumps({"width": 2, "height": 2, "flows": [
            {"id": fid, "T": 1, "D": 1, "L": MAX_PACKET_LENGTH, "J": 0, "src": list(src),
             "dst": [1, 0]} for fid, src in enumerate(sources, 1)]}))
        start = time.perf_counter()
        assert run(["simulate", "--flowset", str(probe), *argv, "--release", "periodic"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and owed in err, err


def test_grid_side_over_the_limit(tmp_path, capsys):
    # A 41-byte file asks for a 32x32 grid: refused before any ring is built.
    probe = tmp_path / "huge.json"
    probe.write_text('{"width": 32, "height": 32, "flows": []}\n')
    assert len(probe.read_bytes()) == 41
    topo = tmp_path / "huge_topology.json"
    topo.write_text(json.dumps({"width": 2, "height": 17, "rings": []}))
    for argv in (["analyze", "--flowset", str(probe)], ["topo", "--load", str(topo)]):
        start = time.perf_counter()
        assert run(argv) == 3, argv
        assert time.perf_counter() - start < 1, argv
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "side limit of 16" in err, err
    # As flags, the same sides are usage errors.
    for argv in (["topo", "--width", "17"], ["gen", "--flows", "3", "--height", "32"],
                 ["sweep", "--grids", "4x17"],
                 ["flowstats", "--mode", "shares", "--grid", "32x4"]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2, argv
        assert "must be at most 16" in capsys.readouterr().err, argv
    assert run(["topo", "--width", "16", "--height", "2", "--validate"]) == 0


def test_unknown_profile_exits_two(tmp_path, capsys):
    flowset_file = tmp_path / "flows.json"
    run(["gen", "--flows", "3", "--out", str(flowset_file)])
    assert run(["analyze", "--flowset", str(flowset_file),
                "--config", "9Z_QQ_XX"]) == 2


def test_identical_invocations_produce_identical_artifacts(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--seed", "7", "--flows", "12", "--flowsets", "4",
            "--configs", "0D_IU_SI", "0D_IU_II"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_pipeline(tmp_path):
    csv_file = tmp_path / "sweep.csv"
    svg_file = tmp_path / "sweep.svg"
    assert run(["sweep", "--seed", "3", "--flows", "8", "16", "--flowsets", "3",
                "--configs", "0D_IU_SI", "--out", str(csv_file)]) == 0
    assert run(["plot", "--csv", str(csv_file), "--kind", "lines",
                "--out", str(svg_file)]) == 0
    assert svg_file.read_text().startswith("<svg")
    assert run(["plot", "--csv", str(csv_file), "--kind", "boxwhisker"]) == 3


def test_plot_of_a_comment_only_csv_exits_three(tmp_path, capsys):
    csv_file = tmp_path / "comments.csv"
    csv_file.write_text("# master_seed=1 flowsets_per_point=2\n\n# no rows\n")
    svg_file = tmp_path / "out.svg"
    assert run(["plot", "--csv", str(csv_file), "--kind", "lines",
                "--out", str(svg_file)]) == 3
    assert capsys.readouterr().err == "error: document has no header row\n"
    assert not svg_file.exists()


def test_flowstats_shares(tmp_path):
    out = tmp_path / "stats.csv"
    assert run(["flowstats", "--mode", "shares", "--config", "0D_IU_SI",
                "--flows", "10", "--seed", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert "ipre_share" in text and "ipos_share" in text


def test_flowstats_diff(tmp_path):
    out = tmp_path / "diff.csv"
    assert run(["flowstats", "--mode", "diff", "--config", "0D_NI_SI",
                "--config-better", "0D_IU_SI", "--flows", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# diff worse=0D_NI_SI better=0D_IU_SI seed=1"
    assert lines[1] == "flows,metric,min,q1,median,q3,max"
    assert len(lines) == 3 and lines[2].startswith("10,pct_diff,")


def test_sweep_grid_and_packet_flags(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--grids", "5x5", "--packets", "32:96", "--flows", "12",
                "--flowsets", "2", "--configs", "0D_IU_SI", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert [row.rsplit(",", 1)[0] for row in rows] == ["5x5,32,96,12,0D_IU_SI"]


def test_gen_microsecond_periods(tmp_path):
    out = tmp_path / "us.json"
    assert run(["gen", "--flows", "30", "--seed", "4", "--periods-us", "1:100",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(1_000 <= f["T"] <= 100_000 for f in doc["flows"])


def test_output_directory_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RLNOC_OUT", str(tmp_path))
    assert run(["gen", "--flows", "3", "--seed", "1", "--out", "flows.json"]) == 0
    assert (tmp_path / "flows.json").exists()


def test_trace_file(tmp_path):
    flowset_file = tmp_path / "flows.json"
    run(["gen", "--flows", "4", "--seed", "9", "--out", str(flowset_file)])
    trace_file = tmp_path / "trace.txt"
    assert run(["simulate", "--flowset", str(flowset_file), "--horizon", "50000",
                "--trace", str(trace_file), "--out", str(tmp_path / "s.csv")]) == 0
    text = trace_file.read_text()
    assert "release" in text and "deliver" in text


def test_packet_length_over_the_limit(tmp_path, capsys):
    # Three flows of a million flits on one ring: the file is refused before
    # any flit is stepped, and the same length as a flag is a usage error.
    doc = {"width": 2, "height": 2, "flows": [
        {"id": k, "T": 10_000_000, "D": 10_000_000, "L": 1_000_000, "J": 0,
         "src": src, "dst": [1, 0]} for k, src in enumerate([[0, 0], [0, 1], [1, 1]], 1)]}
    probe = tmp_path / "long.json"
    probe.write_text(json.dumps(doc))
    for argv in (["analyze"], ["simulate", "--release", "periodic", "--horizon", "10000000"]):
        start = time.perf_counter()
        assert run(argv + ["--flowset", str(probe)]) == 3, argv
        assert time.perf_counter() - start < 1, argv
        err = capsys.readouterr().err
        assert err == (f"error: flow 1: packet length must be from 1 to {MAX_PACKET_LENGTH} "
                       f"flits, got 1000000\n"), err
    over = f"1:{MAX_PACKET_LENGTH + 1}"
    for argv in (["gen", "--flows", "1", "--packets", over], ["sweep", "--packets", over],
                 ["flowstats", "--mode", "shares", "--packets", over]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2, argv
        assert f"<= {MAX_PACKET_LENGTH}" in capsys.readouterr().err, argv
    out = tmp_path / "longest.json"
    at_limit = f"{MAX_PACKET_LENGTH}:{MAX_PACKET_LENGTH}"
    assert run(["gen", "--flows", "1", "--packets", at_limit, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["flows"][0]["L"] == MAX_PACKET_LENGTH


def _bundled(name):
    with open(data_path(name), encoding="utf-8") as handle:
        return json.load(handle)


# Values a fuzzed field may take: wrong types, booleans, floats, huge and
# negative numbers and nested lists. Integers come from a fixed menu, so a
# fuzzed packet is short or refused and no run steps for long.
_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.integers(-3, 12),
    st.sampled_from([-10**30, -2**63, 2**31, 2**63, 10**30, MAX_PACKET_LENGTH + 1]),
    st.recursive(st.integers(-1, 3), lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.sampled_from(["id", "x"]), inner, max_size=2),
                 max_leaves=6),
)


def _slots(node):
    """Every (container, key) pair below node: dict keys and list indexes."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def _mutated(draw, name):
    """A bundled document with one to three fields replaced, deleted or added."""
    root = [copy.deepcopy(_bundled(name))]
    for _ in range(draw(st.integers(1, 3))):
        parent, key = draw(st.sampled_from(list(_slots(root))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace" or parent is root:
            parent[key] = draw(_ODD_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["id", "T", "ring", "rings", "extra"]))] = (
                draw(_ODD_VALUES))
        else:
            parent.insert(key, draw(_ODD_VALUES))
    return root[0]


def _run_cleanly(argv):
    """Run the CLI; it must exit 0-3 with at most one error: line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert err.getvalue().count("error:") <= 1, err.getvalue()


# A short horizon, so that a fuzzed T = 1 draws 2,000 releases, not millions.
_SIMULATE = [["simulate", "--horizon", "2000", "--release", release]
             for release in ("sporadic", "periodic")]


def _with_first_flow(**changes):
    doc = _bundled("five_flow_scenario.json")
    doc["flows"][0].update(changes)
    return doc


class TestFuzzedDocuments:
    """Mutated bundled documents either load or raise the module's own error,
    and the CLI answers them with an exit code, never a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(doc=_mutated("five_flow_scenario.json"))
    # A periodic release jittered far past the horizon once outran the
    # simulator's drain guard and ended in a ProtocolViolation traceback.
    @example(doc=_with_first_flow(T=1000, D=1000, J=10**30))
    def test_flowset_documents(self, tmp_path_factory, doc):
        try:
            load_flowset(doc)
        except (TopologyError, TrafficError):
            pass
        path = tmp_path_factory.mktemp("fuzz") / "flows.json"
        path.write_text(json.dumps(doc))
        out = ["--flowset", str(path), "--out", str(path.with_suffix(".csv"))]
        for command in [["analyze"]] + _SIMULATE:
            _run_cleanly(command + out)

    @settings(max_examples=60, deadline=None)
    @given(doc=st.sampled_from(["six_switch_ring.json", "grid4x4_ten_rings.json"])
           .flatmap(_mutated))
    def test_topology_documents(self, tmp_path_factory, doc):
        try:
            load_topology(doc)
        except TopologyError:
            pass
        path = tmp_path_factory.mktemp("fuzz") / "topology.json"
        path.write_text(json.dumps(doc))
        _run_cleanly(["topo", "--load", str(path), "--validate"])
        out = ["--flowset", data_path("five_flow_scenario.json"), "--topology", str(path),
               "--out", str(path.with_suffix(".csv"))]
        for command in [["analyze"]] + _SIMULATE:
            _run_cleanly(command + out)
