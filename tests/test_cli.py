"""Tests for the command-line interface via click's test runner."""

import io
import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from artifact import experiments
from artifact.cli import main
from artifact.experiments import OPTION_KEYS, ExperimentConfig, run_experiment, write_json_lines
from artifact.graphs import Graph, complete_graph
from artifact.mbqc import MeasurementPattern
from artifact.protocol import exact_accept_probability

THETA = math.pi / 4
K3_JSON = json.dumps(complete_graph(3).to_json())
# K3 plus vertex 3, which has no edge
ISOLATED_VERTEX_JSON = json.dumps({"n": 4, "edges": [[0, 1], [0, 2], [1, 2]]})
PATTERN_JSON = json.dumps({
    "steps": [
        {"v": 0, "theta": THETA, "x_deps": [], "z_deps": []},
        {"v": 1, "theta": THETA, "x_deps": [0], "z_deps": []},
    ],
    "output_bits": [1],
})


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(K3_JSON)
    return str(path)


@pytest.fixture
def pattern_file(tmp_path):
    path = tmp_path / "pattern.json"
    path.write_text(PATTERN_JSON)
    return str(path)


class TestGenGraph:
    def test_k3_to_stdout(self, runner):
        result = runner.invoke(main, ["gen-graph", "--family", "k3"])
        assert result.exit_code == 0
        graph = Graph.from_json(json.loads(result.output))
        assert graph.n == 3
        assert graph.edge_count == 3

    def test_lattice_to_file(self, runner, tmp_path):
        out = tmp_path / "lattice.json"
        result = runner.invoke(main, [
            "gen-graph", "--family", "triangular-lattice",
            "--rows", "2", "--cols", "3", "--out", str(out)])
        assert result.exit_code == 0
        graph = Graph.from_json(json.loads(out.read_text()))
        assert graph.n == 6

    def test_strip_needs_k(self, runner):
        result = runner.invoke(main, ["gen-graph", "--family",
                                      "triangle-strip"])
        assert result.exit_code != 0

    def test_unknown_family_rejected(self, runner):
        result = runner.invoke(main, ["gen-graph", "--family", "petersen"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("args", [
        ["--family", "complete", "--n", "-1"],
        ["--family", "complete", "--n", "0"],
        ["--family", "triangle-strip", "-k", "2"],
        ["--family", "triangular-lattice", "--rows", "1", "--cols", "3"],
    ], ids=["complete-negative", "complete-empty", "strip-too-short", "lattice-one-row"])
    def test_a_size_out_of_range_is_one_error_line(self, runner, args):
        result = runner.invoke(main, ["gen-graph", *args])
        _assert_input_error(result)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args,size", [
        (["--family", "complete", "--n", "6"], 6),
        (["--family", "triangle-strip", "-k", "5"], 5),
        (["--family", "triangular-lattice", "--rows", "2", "--cols", "3"], 6),
    ], ids=["complete", "triangle-strip", "triangular-lattice"])
    def test_a_graph_above_the_qubit_cap_is_not_written(self, runner, tmp_path, args,
                                                        size):
        # every other subcommand refuses such a graph, so gen-graph must not
        # write it; the size is checked before the n x n adjacency is built
        out = tmp_path / "graph.json"
        result = runner.invoke(main, ["gen-graph", *args, "--out", str(out)],
                               env={"GSIP_QUBIT_CAP": "4"})
        _assert_input_error(result)
        assert result.output.strip() == f"Error: the graph size must lie in [0, 4], got {size}"
        assert not out.exists()


class TestSelftestCommand:
    def test_inline_graph_json_lines(self, runner):
        result = runner.invoke(main, [
            "selftest", "--graph", K3_JSON, "--trials", "20",
            "--seed", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert len(lines) == 21
        footer = json.loads(lines[-1])
        assert footer["kind"] == "selftest"
        assert 0.7 <= footer["summary"]["accept_rate"] <= 1.0

    def test_csv_output(self, runner, graph_file, tmp_path):
        out = tmp_path / "rows.csv"
        result = runner.invoke(main, [
            "selftest", "--graph", graph_file, "--trials", "5",
            "--seed", "3", "--csv", "--out", str(out)])
        assert result.exit_code == 0
        header = out.read_text().splitlines()[0]
        assert set(header.split(",")) == {"trial", "subtest", "accepted"}

    def test_deterministic_across_invocations(self, runner, graph_file):
        args = ["selftest", "--graph", graph_file, "--trials", "10",
                "--seed", "7"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_jobs_flag_matches_serial(self, runner, graph_file):
        base = ["selftest", "--graph", graph_file, "--trials", "8",
                "--seed", "5"]
        serial = runner.invoke(main, base)
        parallel = runner.invoke(main, base + ["--jobs", "2"])
        assert serial.output == parallel.output

    def test_invalid_strategy_is_a_usage_error(self, runner, graph_file):
        strategy = json.dumps({"kind": "classical", "value": 0})
        result = runner.invoke(main, [
            "selftest", "--graph", graph_file, "--strategy", strategy,
            "--trials", "5", "--seed", "3"])
        assert result.exit_code == 2
        assert "Error" in result.output


class TestMbqcCommand:
    def test_distribution_summary(self, runner, graph_file, pattern_file):
        result = runner.invoke(main, [
            "mbqc", "--graph", graph_file, "--pattern", pattern_file,
            "--trials", "30", "--seed", "11"])
        assert result.exit_code == 0
        footer = json.loads(result.output.strip().split("\n")[-1])
        assert footer["kind"] == "mbqc"
        assert set(footer["summary"]["reference"]) == {"0", "1"}


class TestIsometryCommand:
    def test_labels_argument(self, runner, graph_file):
        labels = json.dumps(["I", ["X", 0], ["XZ", [1, 0, 0], [0, 1, 0]]])
        result = runner.invoke(main, [
            "isometry-check", "--graph", graph_file, "--labels", labels,
            "--trials", "1", "--seed", "2"])
        assert result.exit_code == 0
        footer = json.loads(result.output.strip().split("\n")[-1])
        assert footer["summary"]["violations"] == 0


def _assert_input_error(result):
    """Bad input exits with code 2 and a single ``Error:`` line."""
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output


class TestBadInput:
    """Malformed JSON inputs end in one ``Error:`` line and exit code 2."""

    BAD_PATTERN = json.dumps({
        "steps": [{"v": 0, "theta": 3, "x_deps": [], "z_deps": []}],
        "output_bits": [0]})

    @pytest.mark.parametrize("args", [
        ["selftest", "--strategy", json.dumps({"kind": "perturbed"})],
        ["selftest", "--strategy",
         json.dumps({"kind": "xz", "angles": {"7": {"X": 0.1}}})],
        ["mbqc", "--pattern", BAD_PATTERN],
        ["prove", "--pattern", BAD_PATTERN],
        ["selftest", "--jobs", "2", "--strategy", json.dumps({"kind": "perturbed"})],
        ["selftest", "--strategy", json.dumps({"kind": "xz", "angles": {"0": 1}})],
        ["selftest", "--strategy", json.dumps({"kind": "xz", "angles": [1]})],
        ["selftest", "--strategy", json.dumps({"kind": "classical", "table": [1]})],
        ["selftest", "--strategy", json.dumps({"kind": "perturbed", "eta": None})],
        ["selftest", "--strategy", "[1]"],
        ["isometry-check", "--labels", "[1]"],
        ["isometry-check", "--strategy", json.dumps({"kind": "classical", "value": 1})],
        ["selftest", "--graph", json.dumps({"n": 0, "edges": []})],
        ["selftest", "--graph", json.dumps({"n": math.inf, "edges": []})],
        ["selftest", "--graph", json.dumps({"n": 3, "edges": [[0, 1], [0, 2.5], [1, 2]]})],
        ["mbqc", "--pattern", json.dumps({"steps": [{"v": -1, "theta": 0}],
                                          "output_bits": [-1]})],
        ["mbqc", "--pattern", json.dumps({"steps": [], "output_bits": [math.inf]})],
        ["selftest", "--strategy", json.dumps({"kind": "perturbed", "eta": math.inf})],
        ["selftest", "--strategy", json.dumps({"kind": "perturbed", "eta": math.nan})],
        ["selftest", "--strategy", json.dumps({"kind": "classical", "value": math.inf})],
        ["selftest", "--strategy",
         json.dumps({"kind": "xz", "angles": {"0": {"X": math.nan}}})],
        ["isometry-check", "--labels", json.dumps([["X", math.inf]])],
        ["selftest", "--graph", json.dumps({"n": 3.9, "edges": [[0, 1], [0, 2], [1, 2]]})],
        ["mbqc", "--pattern", json.dumps({"steps": [{"v": 1.7, "theta": 0.5}],
                                          "output_bits": [1]})],
        ["isometry-check", "--labels", json.dumps([["X", 0.9]])],
        ["selftest", "--strategy", json.dumps({"kind": "classical", "value": 1.5})],
        ["selftest", "--strategy", json.dumps({"kind": "classical", "value": True})],
        ["isometry-check", "--labels", "[]"],
        ["selftest", "--graph", ISOLATED_VERTEX_JSON],
    ], ids=["perturbed-without-eta", "xz-vertex-out-of-range",
            "mbqc-pattern-angle", "prove-pattern-angle", "jobs-2",
            "xz-angles-entry-not-object", "xz-angles-not-object",
            "classical-table-not-object", "perturbed-eta-null",
            "strategy-not-object", "label-not-a-list", "isometry-classical",
            "graph-without-vertices", "graph-size-infinite", "graph-vertex-not-integer",
            "pattern-vertex-negative", "pattern-output-infinite", "perturbed-eta-infinite",
            "perturbed-eta-nan", "classical-value-infinite", "xz-angle-nan",
            "label-vertex-infinite", "graph-size-not-integer", "pattern-vertex-not-integer",
            "label-vertex-not-integer", "classical-value-not-integer",
            "classical-reply-boolean", "labels-empty", "graph-vertex-in-no-triangle"])
    def test_one_error_line(self, runner, args):
        command, *rest = args
        trials = [] if command == "prove" else ["--trials", "4"]
        _assert_input_error(runner.invoke(
            main, [command, "--graph", K3_JSON, "--seed", "1", *trials, *rest]))

    @pytest.mark.parametrize("args,message", [
        (["selftest", "--graph", ISOLATED_VERTEX_JSON, "--trials", "1"],
         "vertex 3 lies in no triangle"),
        (["prove", "--graph", ISOLATED_VERTEX_JSON], "vertex 3 lies in no triangle"),
        (["prove", "--option", "accept_output=2"], "accept_output is a bit"),
        (["prove", "--option", "s_ip=-0.5"], "need 0 <= s_ip < c_ip <= 1"),
        (["prove", "--option", "c_ip=0.5", "--option", "s_ip=0.6"],
         "need 0 <= s_ip < c_ip <= 1"),
        (["prove", "--option", "s_calc=-1"], "s_calc must lie in [0, 1]"),
        (["prove", "--option", "s_calc=1.5"], "s_calc must lie in [0, 1]"),
        (["prove", "--option", "s_test_gap=0.95"],
         "s_test_gap must be at most c_test = 0.912132"),
        (["prove", "--option", "s_test_gap=0"], "s_test_gap must be above 0"),
        (["prove", "--option", "s_test_gap=-0.1"], "s_test_gap must be above 0"),
        # a chosen q = 0.1 / (1.1 - delta - s_calc) leaves [0, 1] above 1 - delta
        (["prove", "--option", "s_calc=0.95"],
         "s_calc must be at most 1 - delta = 0.9, got 0.95"),
        (["prove", "--option", "s_calc=1"], "s_calc must be at most 1 - delta = 0.9, got 1"),
        # malformed JSON lists, named before they are unpacked or iterated
        (["selftest", "--trials", "1", "--graph",
          json.dumps({"n": 3, "edges": [[0, 1, 2], [0, 2], [1, 2]]})],
         "an edge must be a list of 2, got [0, 1, 2]"),
        (["selftest", "--trials", "1", "--graph", json.dumps({"n": 3, "edges": {"0": 1}})],
         "edges must be a list, got {'0': 1}"),
        (["mbqc", "--trials", "1", "--pattern",
          json.dumps({"steps": [{"v": 0, "theta": 0.5, "x_deps": 5}], "output_bits": [0]})],
         "x_deps must be a list, got 5"),
        (["mbqc", "--trials", "1", "--pattern",
          json.dumps({"steps": {"v": 0, "theta": 0.5}, "output_bits": [0]})],
         "steps must be a list, got {'v': 0, 'theta': 0.5}"),
        (["mbqc", "--trials", "1", "--pattern", json.dumps({"steps": [], "output_bits": 5})],
         "output_bits must be a list, got 5"),
        # JSON values that are not objects where an object is read
        (["selftest", "--trials", "2", "--graph", "[1]"],
         "a graph must be a JSON object, got [1]"),
        (["mbqc", "--trials", "1", "--pattern", "[1]"],
         "a pattern must be a JSON object, got [1]"),
        (["mbqc", "--trials", "1", "--pattern", json.dumps({"steps": [5], "output_bits": []})],
         "a step must be a JSON object, got 5"),
        # a later --seed overrides the default one
        (["selftest", "--trials", "1", "--seed", "-1"], "the seed must be at least 0, got -1"),
        (["selftest", "--trials", "2", "--jobs", "0"], "jobs must be at least 1, got 0"),
        (["selftest", "--trials", "2", "--jobs", "-3"], "jobs must be at least 1, got -3"),
        (["selftest", "--trials", "1", "--graph", json.dumps({"n": -1, "edges": []})],
         "the graph size must lie in [0, 24], got -1"),
        # c_test - 1e-300 rounds back to c_test
        (["prove", "--option", "s_test_gap=1e-300"],
         "s_test_gap = 1e-300 leaves s_test = c_test = 0.912132"),
        # a bound that overflows, or divides by a power that underflowed to 0
        (["bounds", "--kind", "thm1n", "--param", "n=3", "--param", "delta=1e-300"],
         "thm1n evaluates to inf at {'n': 3, 'delta': 1e-300}"),
        (["bounds", "--kind", "hoeffdingn", "--param", "gap=1e-200"],
         "hoeffdingn evaluates to inf at {'gap': 1e-200}"),
        (["bounds", "--param", "delta=1e-300"],
         "thm1n evaluates to inf at {'n': 3, 'delta': 1e-300}"),
        (["bounds", "--kind", "hoeffdingn", "--param", "gap=1e-160"],
         "hoeffdingn evaluates to inf at {'gap': 1e-160}"),
        (["bounds", "--kind", "lemma5eps", "--param", "n=3", "--param", "delta=1e200"],
         "lemma5eps evaluates to inf at {'n': 3, 'delta': 1e+200}"),
        (["bounds", "--kind", "cor3gap", "--param", "n=3", "--param", "delta=1e300"],
         "cor3gap evaluates to inf at {'n': 3, 'delta': 1e+300}"),
        # JSON too deep for the parser, or read but deeper than 32 levels
        (["prove", "--option", "eps=" + "[" * 50_000], "--option eps: JSON nested too deeply"),
        (["bounds", "--param", "eps=" + "[" * 50_000], "--param eps: JSON nested too deeply"),
        (["mbqc", "--trials", "1", "--pattern", "[" * 50_000],
         "--pattern: JSON nested too deeply"),
        (["selftest", "--trials", "1", "--strategy",
          json.dumps({"kind": "honest", "x": json.loads("[" * 100 + "]" * 100)})],
         "--strategy: JSON nested too deeply"),
    ], ids=["selftest-vertex-in-no-triangle", "prove-vertex-in-no-triangle",
            "accept-output-not-a-bit", "s-ip-negative", "s-ip-above-c-ip",
            "s-calc-negative", "s-calc-above-one", "s-test-gap-above-c-test",
            "s-test-gap-zero", "s-test-gap-negative", "s-calc-above-one-less-delta",
            "s-calc-one", "edge-not-a-pair", "edges-not-a-list", "x-deps-not-a-list",
            "steps-not-a-list", "output-bits-not-a-list", "graph-not-an-object",
            "pattern-not-an-object", "step-not-an-object", "seed-negative", "jobs-zero",
            "jobs-negative", "graph-size-negative", "s-test-gap-below-float-spacing",
            "thm1n-divides-by-zero", "hoeffdingn-divides-by-zero", "table-divides-by-zero",
            "hoeffdingn-ceil-overflows", "lemma5eps-overflows", "cor3gap-overflows",
            "option-too-deep-to-parse", "param-too-deep-to-parse",
            "pattern-too-deep-to-parse", "strategy-deeper-than-32-levels"])
    def test_error_line_names_the_fault(self, runner, args, message):
        # the check that owns the input speaks, not a later step that trips
        # over it (min() over no neighbors, the Hoeffding count's gap check)
        command, *rest = args
        defaults = {"prove": ["--graph", K3_JSON, "--pattern", PATTERN_JSON, "--seed", "1"],
                    "bounds": []}.get(command, ["--graph", K3_JSON, "--seed", "1"])
        result = runner.invoke(main, [command, *defaults, *rest])
        _assert_input_error(result)
        assert result.output.strip() == f"Error: {message}"

    @pytest.mark.parametrize("flag,value,message", [
        ("--graph", {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "directed": True},
         "a graph has unknown key 'directed'; expected any of ['n', 'edges']"),
        ("--pattern", {"steps": [{"v": 0, "theta": 0.5}], "output_bits": [0], "output": [0]},
         "a pattern has unknown key 'output'; expected any of ['steps', 'output_bits']"),
        ("--pattern", {"steps": [{"v": 0, "theta": 0.5}, {"v": 1, "theta": 0.5, "xdeps": [0]}],
                       "output_bits": [1]},
         "a step has unknown key 'xdeps'; expected any of ['v', 'theta', 'x_deps', 'z_deps']"),
        ("--strategy", {"kind": "honest", "theta": 0.3},
         "the honest strategy has unknown key 'theta'; expected any of ['kind']"),
        ("--strategy", {"kind": "perturbed", "eta": 0.1, "seed": 3},
         "the perturbed strategy has unknown key 'seed'; expected any of ['kind', 'eta']"),
        ("--strategy", {"kind": "classical", "values": -1},
         "the classical strategy has unknown key 'values'; "
         "expected any of ['kind', 'value', 'table']"),
        ("--strategy", {"kind": "xz", "angles": {}, "eta": 0.1},
         "the xz strategy has unknown key 'eta'; expected any of ['kind', 'angles']"),
    ], ids=["graph", "pattern", "step", "honest-strategy", "perturbed-strategy",
            "classical-strategy", "xz-strategy"])
    def test_unknown_key_names_the_key_and_its_object(self, runner, flag, value, message):
        # a misspelt field used to be read as absent: the run went on
        # without it, exit 0
        args = {"--graph": K3_JSON, "--pattern": PATTERN_JSON, flag: json.dumps(value)}
        result = runner.invoke(main, ["mbqc", "--trials", "2", "--seed", "1",
                                      *(x for kv in args.items() for x in kv)])
        _assert_input_error(result)
        assert result.output.strip() == f"Error: {message}"

    def test_classical_strategy_takes_a_value_or_a_table(self, runner):
        table = {str(v): {"X": 1, "Z": 1, "R+": 1, "R-": 1} for v in range(3)}
        result = runner.invoke(main, [
            "selftest", "--graph", K3_JSON, "--trials", "2", "--seed", "1", "--strategy",
            json.dumps({"kind": "classical", "value": -1, "table": table})])
        _assert_input_error(result)
        assert result.output.strip() == \
            'Error: a classical strategy takes a "value" or a "table", not both'

    @pytest.mark.parametrize("command", ["selftest", "mbqc", "isometry-check", "prove"])
    def test_eta_whose_draw_width_overflows(self, runner, command):
        # rng.uniform(-eta, eta) overflows once 2 eta exceeds the largest float
        args = [command, "--graph", K3_JSON, "--seed", "1",
                "--strategy", json.dumps({"kind": "perturbed", "eta": 1e308})]
        if command in ("mbqc", "prove"):
            args += ["--pattern", PATTERN_JSON]
        args += ["--option", "n_rounds=10"] if command == "prove" else ["--trials", "2"]
        result = runner.invoke(main, args)
        _assert_input_error(result)
        assert "eta" in result.output


    @pytest.mark.parametrize("args", [
        ["prove", "--option", "n_rounds=7.9"],
        ["prove", "--option", "n_rounds=true"],
        ["prove", "--option", "accept_output=0.5"],
        ["prove", "--option", "n_rounds=1e400"],
        ["prove", "--option", "q=[0.2]"],
        ["prove", "--option", "delta={}"],
        ["prove", "--option", "c_ip=[1]"],
        ["prove", "--option", 'threshold="abc"'],
        ["prove", "--option", "n_round=5"],
        ["bounds", "--param", "n=3.7"],
        ["bounds", "--param", "n=true"],
        ["bounds", "--param", "edges=1e400"],
        ["bounds", "--param", "nn=4"],
        ["bounds", "--param", "n=0"],
        ["bounds", "--param", "eps=1e308"],
        ["bounds", "--kind", "hoeffding_n", "--param", "gap=true"],
        ["bounds", "--kind", "lemma4", "--param", "delta=0.1", "--param", "n=3",
         "--param", "m=2.5"],
        ["bounds", "--kind", "thm2", "--param", "eps=1e400", "--param", "n=3",
         "--param", "edges=3", "--param", "p=1"],
        ["bounds", "--kind", "thm2", "--param", "eps=1e308", "--param", "n=3",
         "--param", "edges=3", "--param", "p=1"],
        ["selftest", "--strategy", json.dumps({"kind": "perturbed", "eta": True})],
        ["selftest", "--strategy", json.dumps({"kind": "perturbed", "eta": "0.05"})],
        ["selftest", "--strategy", json.dumps({"kind": "xz", "angles": {"0": {"X": True}}})],
        ["selftest", "--strategy", json.dumps({"kind": "xz", "angles": {"0": {"X": "0.05"}}})],
        ["mbqc", "--pattern", json.dumps({"steps": [{"v": 0, "theta": True}],
                                          "output_bits": [0]})],
        ["mbqc", "--pattern", json.dumps({"steps": [{"v": 0, "theta": "0.05"}],
                                          "output_bits": [0]})],
    ], ids=["rounds-fraction", "rounds-boolean", "accept-output-fraction",
            "rounds-overflow", "q-list", "delta-object", "c-ip-list", "threshold-not-read",
            "option-unknown", "bounds-n-fraction", "bounds-n-boolean",
            "bounds-edges-overflow", "param-unknown", "bounds-n-zero",
            "bounds-eps-overflows", "kind-gap-boolean", "kind-m-fraction",
            "kind-eps-overflow", "kind-value-not-finite", "eta-boolean", "eta-string",
            "xz-angle-boolean", "xz-angle-string", "theta-boolean", "theta-string"])
    def test_numeric_value_is_read_strictly(self, runner, args):
        command, *rest = args
        if command == "prove":
            rest = ["--graph", K3_JSON, "--pattern", PATTERN_JSON, "--seed", "1", *rest]
        elif command != "bounds":
            rest = ["--graph", K3_JSON, "--trials", "2", "--seed", "1", *rest]
        _assert_input_error(runner.invoke(main, [command, *rest]))

    @pytest.mark.parametrize("cap", ["abc", "2.5", "0", "-3"])
    @pytest.mark.parametrize("command", ["selftest", "accept"])
    def test_qubit_cap_is_read_strictly(self, runner, cap, command):
        args = (["accept", "--only", "1"] if command == "accept" else
                ["selftest", "--graph", K3_JSON, "--trials", "2", "--seed", "1"])
        result = runner.invoke(main, args, env={"GSIP_QUBIT_CAP": cap})
        _assert_input_error(result)
        assert "GSIP_QUBIT_CAP must be an integer of at least 1" in result.output

    def test_graph_above_the_qubit_cap_is_refused_before_it_is_built(self, runner):
        # a graph's adjacency is n x n, so the size is checked against the cap
        # first; a small cap stands in for a size that would exhaust memory
        result = runner.invoke(main, [
            "selftest", "--graph", json.dumps({"n": 5, "edges": []}), "--trials", "1",
            "--seed", "1"], env={"GSIP_QUBIT_CAP": "4"})
        _assert_input_error(result)
        assert result.output.strip() == "Error: the graph size must lie in [0, 4], got 5"

    @pytest.mark.parametrize("args,name", [
        (["--kind", "lemma4", "--param", "delta=0.1", "--param", "n=-5"], "n"),
        (["--kind", "cor3gap", "--param", "delta=0.1", "--param", "n=-2"], "n"),
        (["--kind", "thm2", "--param", "eps=1e-4", "--param", "n=3", "--param", "edges=-3",
          "--param", "p=1"], "edges"),
        (["--param", "n=-2"], "n"),
        (["--kind", "lemma4", "--param", "delta=0.1", "--param", "n=3", "--param", "m=0"], "m"),
        (["--kind", "thm2", "--param", "eps=1e-4", "--param", "n=3", "--param", "edges=3",
          "--param", "p=-1"], "p"),
        (["--param", "m=-1"], "m"),
    ], ids=["lemma4-n-negative", "cor3gap-n-negative", "thm2-edges-negative",
            "table-n-negative", "lemma4-m-zero", "thm2-p-negative", "table-chain-m-negative"])
    def test_size_below_its_floor_names_the_parameter(self, runner, args, name):
        result = runner.invoke(main, ["bounds", *args])
        _assert_input_error(result)
        assert f"Error: {name} must be at least" in result.output


class TestBoundsCommand:
    def test_single_kind(self, runner):
        result = runner.invoke(main, [
            "bounds", "--kind", "hoeffding_n", "--param", "gap=0.2"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["value"] == 55
        assert "ceil" in payload["formula"]

    def test_table_mode(self, runner):
        result = runner.invoke(main, [
            "bounds", "--param", "n=4", "--param", "delta=0.1"])
        assert result.exit_code == 0
        footer = json.loads(result.output.strip().split("\n")[-1])
        kinds = [entry["kind"] for entry in footer["summary"]["table"]]
        assert "cor3gap" in kinds

    def test_unknown_kind_fails(self, runner):
        _assert_input_error(runner.invoke(main, ["bounds", "--kind", "lemma99"]))

    @pytest.mark.parametrize("args", [
        ["--kind", "thm2", "--param", "eps=abc"],
        ["--param", "eps=[1]"],
    ], ids=["missing-parameter", "table-eps-not-a-number"])
    def test_bad_input_is_one_error_line(self, runner, args):
        _assert_input_error(runner.invoke(main, ["bounds", *args]))


def _prove_record(result):
    """``gsip prove``'s row and summary footer, its only two lines."""
    row, footer = (json.loads(line) for line in result.output.strip().split("\n"))
    return row, footer["summary"]


class TestProveCommand:
    def test_honest_run_accepts(self, runner, graph_file, pattern_file):
        result = runner.invoke(main, [
            "prove", "--graph", graph_file, "--pattern", pattern_file,
            "--seed", "5", "--option", "n_rounds=40"])
        assert result.exit_code == 0, result.output
        row, summary = _prove_record(result)
        assert row["accepted"] is True
        assert summary["n_rounds"] == 40
        assert 0 < summary["q"] <= 1

    def test_adversarial_strategy_rejects(self, runner, graph_file,
                                          pattern_file):
        # widen the accept window so 40 rounds decide clearly: the
        # all-minus table passes only the triangle and half the rotation
        # Z-branches, far below the c_ip/s_ip midpoint here
        strategy = json.dumps({"kind": "classical", "value": -1})
        result = runner.invoke(main, [
            "prove", "--graph", graph_file, "--pattern", pattern_file,
            "--strategy", strategy, "--seed", "5", "--option", "n_rounds=40",
            "--option", "c_ip=0.9", "--option", "s_ip=0.1"])
        assert result.exit_code == 1
        row, _ = _prove_record(result)
        assert row["accepted"] is False

    def test_explicit_q_flows_into_the_setup(self, runner, graph_file,
                                             pattern_file):
        result = runner.invoke(main, [
            "prove", "--graph", graph_file, "--pattern", pattern_file,
            "--seed", "5", "--option", "n_rounds=10", "--option", "q=0.15"])
        _, summary = _prove_record(result)
        assert math.isclose(summary["q"], 0.15, abs_tol=1e-12)

    def test_far_from_optimal_q_is_a_usage_error(self, runner, graph_file,
                                                 pattern_file):
        # a coin far above the optimum makes the synthetic case-line gap
        # negative, which cannot yield a sound accept window
        result = runner.invoke(main, [
            "prove", "--graph", graph_file, "--pattern", pattern_file,
            "--seed", "5", "--option", "n_rounds=10", "--option", "q=0.9"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args,q,gap", [
        (["--option", "q=0.5"], "0.5", "-0.1116"),
        (["--option", "q=0.5", "--option", "n_rounds=5"], "0.5", "-0.1116"),
        (["--option", "s_calc=0.75"], "0.4", "-0.06929"),
        (["--option", "s_calc=0.75", "--option", "n_rounds=5"], "0.4", "-0.06929"),
    ], ids=["hoeffding-rounds", "explicit-rounds", "chosen-q-hoeffding-rounds",
            "chosen-q-explicit-rounds"])
    def test_q_without_a_positive_gap_names_q_and_the_gap(self, runner, tmp_path,
                                                          graph_file, args, q, gap):
        # the three-step K3 pattern with output bits 0, 1, 2: at q = 0.5 the
        # composed gap is -0.1116, and at s_calc = 0.75 the chosen q is 0.4
        # with gap -0.06929, whatever the round count
        pattern = tmp_path / "three-steps.json"
        pattern.write_text(json.dumps({
            "steps": [{"v": 0, "theta": THETA, "x_deps": [], "z_deps": []},
                      {"v": 1, "theta": THETA, "x_deps": [0], "z_deps": []},
                      {"v": 2, "theta": THETA, "x_deps": [1], "z_deps": [0]}],
            "output_bits": [0, 1, 2]}))
        result = runner.invoke(main, [
            "prove", "--graph", graph_file, "--pattern", str(pattern),
            "--seed", "5", *args])
        _assert_input_error(result)
        assert f"q = {q} " in result.output and f"gap of {gap} " in result.output
        assert "s_ip" not in result.output

    def test_bad_delta_is_a_usage_error(self, runner, graph_file,
                                        pattern_file):
        result = runner.invoke(main, [
            "prove", "--graph", graph_file, "--pattern", pattern_file,
            "--seed", "5", "--option", "delta=0.5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("strategy", [
        None, {"kind": "perturbed", "eta": 0.3},
        {"kind": "classical", "value": -1},
    ], ids=["honest", "perturbed", "classical"])
    def test_decision_is_row_zero_of_a_one_trial_batch(self, runner, graph_file,
                                                       pattern_file, strategy):
        # stdout is the batch's record byte for byte, and the exit code its row 0
        extra = [] if strategy is None else ["--strategy", json.dumps(strategy)]
        result = runner.invoke(main, [
            "prove", "--graph", graph_file, "--pattern", pattern_file,
            "--seed", "13", "--option", "n_rounds=30", *extra])
        record = run_experiment(ExperimentConfig(
            kind="protocol", graph=complete_graph(3), theta=THETA,
            strategy=strategy,
            pattern=MeasurementPattern.from_json(json.loads(PATTERN_JSON)),
            trials=1, seed=13, options={"n_rounds": 30}))
        expected = io.StringIO()
        write_json_lines(record, expected)
        assert result.output == expected.getvalue()
        assert result.exit_code == (0 if record.rows[0]["accepted"] else 1)

    def test_c_ip_is_the_exact_accept_rate_of_the_run(self, runner, monkeypatch,
                                                      graph_file, tmp_path):
        # K3: v1 at 0.5, v2 at pi/4, then v0 with x_deps [1, 2] and z_deps [1];
        # c_ip used to be 0.90120 while the honest set's exact rate was 0.90335
        pattern = tmp_path / "mixed-angles.json"
        pattern.write_text(json.dumps({
            "steps": [{"v": 1, "theta": 0.5},
                      {"v": 2, "theta": THETA},
                      {"v": 0, "theta": THETA, "x_deps": [1, 2], "z_deps": [1]}],
            "output_bits": [1, 0]}))
        setups, prepare = [], experiments.prepare

        def recorded(cfg):
            setups.append(prepare(cfg))
            return setups[-1]

        monkeypatch.setattr(experiments, "prepare", recorded)
        result = runner.invoke(main, ["prove", "--graph", graph_file,
                                      "--pattern", str(pattern), "--seed", "1"])
        _, summary = _prove_record(result)
        (setup,) = setups
        exact = exact_accept_probability(setup.provers, setup.protocol)
        assert math.isclose(summary["c_ip"], exact, rel_tol=0.0, abs_tol=1e-12)

    def test_option_help_names_every_protocol_key(self, runner):
        result = runner.invoke(main, ["prove", "--help"])
        assert result.exit_code == 0
        option_help = result.output.split("--option", 1)[1].split("--help", 1)[0]
        option_help = " ".join(option_help.split())  # undo click's line wrapping
        for key in OPTION_KEYS["protocol"]:
            assert f"{key} (default " in option_help, key

    def test_same_seed_same_transcript(self, runner, graph_file,
                                       pattern_file):
        args = ["prove", "--graph", graph_file, "--pattern", pattern_file,
                "--seed", "9", "--option", "n_rounds=15"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


class TestAcceptCommand:
    def test_selected_subset(self, runner):
        result = runner.invoke(main, ["accept", "--only", "3,10"])
        assert result.exit_code == 0
        lines = [l for l in result.output.strip().split("\n") if l]
        assert len(lines) == 2
        assert all(line.startswith("PASS") for line in lines)

    def test_unknown_criterion_number(self, runner):
        for number in (99, 13):
            result = runner.invoke(main, ["accept", "--only", str(number)])
            _assert_input_error(result)
            assert f"unknown criteria [{number}]" in result.output

    def test_non_integer_criterion_rejected(self, runner):
        result = runner.invoke(main, ["accept", "--only", "x"])
        _assert_input_error(result)
        assert "'x'" in result.output

    @pytest.mark.parametrize("only", [" , ", ""], ids=["separators-only", "empty"])
    def test_empty_selection_rejected(self, runner, only):
        result = runner.invoke(main, ["accept", "--only", only])
        _assert_input_error(result)
        assert "no criterion selected" in result.output


# ---------------------------------------------------------------------------
# fuzzed JSON input: a run either succeeds or ends in one ``Error:`` line
# ---------------------------------------------------------------------------

# small numbers only: a fuzzed graph size must never ask for a large state
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 6)
            | st.floats(-4, 4)
            | st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308])
            | st.sampled_from(["", "0", "1", "X", "Z", "R+", "R-", "I", "XZ", "honest",
                               "perturbed", "classical", "xz", "ignore"]))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_SCALARS.map(str), inner, max_size=4),
                     max_leaves=12)
_VERTEX_MAP = st.dictionaries(st.sampled_from(["0", "1", "2", "3", "-1", "x"]),
                              st.dictionaries(st.sampled_from(["X", "Z", "R+", "R-", "Q"]),
                                              _SCALARS, max_size=4) | _JSON, max_size=3)
_GRAPHS = _JSON | st.fixed_dictionaries(
    {"n": _SCALARS, "edges": st.lists(st.lists(_SCALARS, max_size=3), max_size=4) | _JSON})
_STEPS = st.fixed_dictionaries({"v": _SCALARS, "theta": _SCALARS},
                               optional={"x_deps": st.lists(_SCALARS, max_size=2) | _JSON,
                                         "z_deps": st.lists(_SCALARS, max_size=2) | _JSON})
_PATTERNS = _JSON | st.fixed_dictionaries(
    {"steps": st.lists(_STEPS | _JSON, max_size=3) | _JSON,
     "output_bits": st.lists(_SCALARS, max_size=3) | _JSON})
_STRATEGIES = _JSON | st.fixed_dictionaries(
    {"kind": st.sampled_from(["honest", "perturbed", "classical", "xz", "quantum"]) | _SCALARS},
    optional={"eta": _SCALARS, "value": _SCALARS, "table": _VERTEX_MAP,
              "angles": _VERTEX_MAP})
_LABELS = _JSON | st.lists(
    st.sampled_from(["I", "X"])
    | st.tuples(st.sampled_from(["X", "Z", "R+", "R-", "XZ", "Q"]), _SCALARS).map(list)
    | st.tuples(st.just("XZ"), st.lists(_SCALARS, max_size=4),
                st.lists(_SCALARS, max_size=4)).map(list)
    | _JSON, max_size=3)


def _run_fuzzed(runner, command, **inputs):
    args = {"--graph": K3_JSON, "--trials": "2", "--seed": "1"}
    if command == "mbqc":
        args["--pattern"] = PATTERN_JSON
    for flag, value in inputs.items():
        args[f"--{flag}"] = json.dumps(value)
    result = runner.invoke(main, [command, *(x for kv in args.items() for x in kv)])
    if result.exit_code == 0:
        return
    assert result.exit_code == 2, (args, result.output, result.exception)
    _assert_input_error(result)


# an option value is a JSON value, the text 1e400, which JSON reads as inf,
# or an array nested too deep to parse; integers come from _SCALARS, so a
# fuzzed n_rounds is at most 6
_OPTION_VALUES = _JSON.map(json.dumps) | st.just("1e400") | st.just("[" * 100_000)
_PROTOCOL_KEYS = ("accept_output", "delta", "s_calc", "s_test_gap", "q", "c_ip", "s_ip",
                  "n_rounds", "threshold")
_BOUNDS_KEYS = ("n", "edges", "eps", "m", "delta", "nn")


def _run_fuzzed_option(runner, args):
    """A run exits 0 or 1 with its record, or 2 with one ``Error:`` line.

    The record is JSON objects, one per line, the last a footer with the
    summary: a bounds table is the footer alone, ``prove`` one row and it.
    """
    result = runner.invoke(main, args)
    if result.exit_code == 2:
        _assert_input_error(result)
        return
    assert result.exit_code in (0, 1), (args, result.output, result.exception)
    assert isinstance(result.exception, (SystemExit, type(None))), (args, result.exception)
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert len(lines) == (2 if args[0] == "prove" else 1), (args, result.output)
    assert all(isinstance(line, dict) for line in lines), (args, result.output)
    assert "summary" in lines[-1], (args, result.output)


class TestFuzzedInput:
    """Any graph, pattern, strategy or label JSON either runs or is refused
    with exit code 2 and one ``Error:`` line, never a traceback."""

    FUZZ = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])

    @FUZZ
    @given(graph=_GRAPHS)
    def test_graph(self, runner, graph):
        _run_fuzzed(runner, "selftest", graph=graph)

    @FUZZ
    @given(pattern=_PATTERNS)
    def test_pattern(self, runner, pattern):
        _run_fuzzed(runner, "mbqc", pattern=pattern)

    @FUZZ
    @given(strategy=_STRATEGIES)
    def test_strategy(self, runner, strategy):
        _run_fuzzed(runner, "selftest", strategy=strategy)

    @FUZZ
    @given(labels=_LABELS)
    def test_labels(self, runner, labels):
        _run_fuzzed(runner, "isometry-check", labels=labels)

    @pytest.mark.parametrize("command,flag", [
        ("selftest", "graph"), ("mbqc", "pattern"), ("selftest", "strategy"),
        ("isometry-check", "labels")])
    def test_file_nested_too_deep_to_parse(self, runner, tmp_path, command, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        args = {"--graph": K3_JSON, "--pattern": PATTERN_JSON, f"--{flag}": str(path)}
        if command != "mbqc":
            del args["--pattern"]
        result = runner.invoke(main, [command, "--trials", "2", "--seed", "1",
                                      *(x for kv in args.items() for x in kv)])
        _assert_input_error(result)
        assert result.output.strip() == f"Error: --{flag}: JSON nested too deeply"

    @FUZZ
    @given(key=st.sampled_from(_PROTOCOL_KEYS), value=_OPTION_VALUES)
    def test_protocol_option(self, runner, key, value):
        rounds = [] if key == "n_rounds" else ["--option", "n_rounds=5"]
        _run_fuzzed_option(runner, ["prove", "--graph", K3_JSON, "--pattern", PATTERN_JSON,
                                    "--seed", "1", *rounds, "--option", f"{key}={value}"])

    @FUZZ
    @given(key=st.sampled_from(_BOUNDS_KEYS), value=_OPTION_VALUES)
    def test_bounds_param(self, runner, key, value):
        _run_fuzzed_option(runner, ["bounds", "--param", f"{key}={value}"])
