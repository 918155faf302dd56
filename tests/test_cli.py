"""Command-line entry point: exit codes, seeding, output routing."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cvshape
from cvshape import cli
from cvshape.cli import build_parser, main
from helpers import format_graph_text, signed_wire, star


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_passing_scenario_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--scenario", "remove-edge", "--lossless")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["config"]["scenario"] == "remove-edge"


def test_failing_criteria_exit_one(tmp_path, capsys):
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text("scenario = remove-edge\nloss.source = 0.01\ntrials = 0\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_missing_config_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "--config", "/nonexistent/path.cfg")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_no_scenario_exits_two(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "error:" in err


def test_bad_config_value_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = not-a-scenario\n")
    code, _, err = run_cli(capsys, "--config", str(cfg))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "line",
    [
        "squeezing_db = nan",
        "squeezing_db = inf",
        "squeezing_db.2 = nan",
        "squeezing_db.2 = -inf",
        "calibrate_target = nan",
        "feedforward_gain = inf",
        "loss.source = nan",
    ],
)
def test_non_finite_config_value_exits_two(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = remove-edge\n{line}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _custom_config(tmp_path, graph_text, line):
    """A config file of line: a custom run on graph_text, unless line names a stock scenario."""
    (tmp_path / "g.graph").write_text(graph_text)
    cfg = tmp_path / "custom.cfg"
    custom = "" if line.startswith("scenario = ") else f"scenario = custom\ngraph_file = {tmp_path / 'g.graph'}\n"
    cfg.write_text(f"{custom}{line}\n")
    return str(cfg)


WIRE_3 = "node 1\nnode 2\nnode 3\nedge 1 2\nedge 2 3\n"
WIRE_4 = WIRE_3 + "node 4\nedge 3 4\n"
ISOLATED_3087_DB = "node 1\nnode 2\nnode 3 db=3087\nedge 1 2\n"


def test_custom_removal_of_absent_node_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "--config", _custom_config(tmp_path, WIRE_4, "remove_node = 9"))
    assert code == 2
    assert err == "error: node 9 not in graph\n"


def test_custom_shortening_without_segment_exits_two(tmp_path, capsys):
    cfg = _custom_config(tmp_path, WIRE_3, "shorten_inner = 1 2")
    code, _, err = run_cli(capsys, "--config", cfg)
    assert code == 2
    assert err.startswith("error: inner node 1") and err.count("\n") == 1


def test_custom_graph_with_non_finite_db_exits_two(tmp_path, capsys):
    cfg = _custom_config(tmp_path, "node 1 db=nan\n" + WIRE_3[len("node 1\n"):], "remove_node = 2")
    code, _, err = run_cli(capsys, "--config", cfg)
    assert code == 2
    assert "graph text line 1" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "graph_text, line, message",
    [
        (WIRE_4, "scenario = shorten-wire\nsqueezing_db = 1e6", "floating-point range"),
        ("node 1 db=1e308\n" + WIRE_3[len("node 1\n"):], "remove_node = 2", "floating-point range"),
        (WIRE_4, "scenario = remove-edge\nfeedforward_gain = 1e300", "floating-point range"),
        ("# no nodes\n", "remove_node = 1", "graph has no nodes"),
        (WIRE_3 + "edge 2 1 sign=-1\n", "remove_node = 2", "edge 2 1 declared twice"),
        (WIRE_4, "scenario = remove-edge\nlossless = maybe", "bad value for 'lossless'"),
        (WIRE_4, "scenario = remove-edge\nsqueezing_db.9 = 3", "node 9 is not in the graph"),
        (WIRE_4, "scenario = remove-edge\nloss.propagation.9 = 0.5", "loss.propagation.9: node 9"),
        (WIRE_4, "scenario = remove-edge\nremove_node = 2", "need scenario = custom"),
        (WIRE_4, "scenario = shorten-wire\nshorten_inner = 2 3", "need scenario = custom"),
        (WIRE_4, "remove_node = 1\nshorten_inner = 2 3", "cannot be combined"),
        (WIRE_4, "", "custom scenario needs remove_node or shorten_inner"),
        (WIRE_4, "scenario = shorten-wire\ntrials = 9007199254740993", "trials must lie between 0 and"),
        (WIRE_4, "scenario = shorten-wire\ntrials = 1" + "0" * 400, "trials must lie between 0 and"),
        (
            WIRE_4,
            "scenario = remove-edge\nloss.detection.1 = 0.5\nloss.detection = 0.8",
            "stage detection mixes uniform and per-node entries",
        ),
        (
            WIRE_4,
            "scenario = remove-edge\nloss.detection = 0.8\nloss.detection.1 = 0.5",
            "stage detection mixes uniform and per-node entries",
        ),
        (WIRE_4, "scenario = remove-edge\nlossless", "expected key = value"),
        (WIRE_4, "scenario = remove-edge\nloss.a.b.c = 0.5", "malformed loss key 'loss.a.b.c'"),
        (WIRE_4, "scenario = remove-edge\nformat = xml", "unknown format 'xml'; choose from ('json', 'csv')"),
        (WIRE_3, "construction = preset-wire\nremove_node = 2", "plain 4-node wire only"),
        (
            WIRE_4,
            "scenario = remove-edge\nconstruction = preset-wire\nsqueezing_db.2 = 7",
            "one uniform squeezing level",
        ),
        ("node 1 foo=2\n" + WIRE_3[len("node 1\n"):], "remove_node = 2", "unknown node attribute 'foo'"),
        ("node 1\nnode 2\nedge 1 2 weight=3\n", "remove_node = 2", "unknown edge attribute 'weight'"),
        ("node 1 db=5 db=7\n" + WIRE_3[len("node 1\n"):], "remove_node = 2", "line 1: node 1 gives db twice"),
        (WIRE_3 + "node 4\nedge 3 4 sign=1 sign=-1\n", "remove_node = 2", "line 7: edge 3 4 gives sign twice"),
        ("node 1\n", "remove_node = 1", "remove_node = 1: no node would remain"),
        # node 3 sits alone at 3087 dB: its x variance, about 1.25e308, builds, and its antisqueezed level overflows
        (ISOLATED_3087_DB, "remove_node = 1", "criteria.initial: numbers out of floating-point range: overflow"),
        # lossless, its p variance of about 5e-310 is lost to the 2 x 2 eigensolver, which finds 0
        (ISOLATED_3087_DB, "remove_node = 1\nlossless = true", "criteria.initial: precision lost: marginal covariance"),
        (
            WIRE_4,
            "scenario = remove-edge\nconstruction = compiled\nsqueezing_db = 5\nsqueezing_db.1 = 80",
            "construct: precision lost: element reduction failed to recompose the unitary",
        ),
        # singular values 1.2e-7 from 1 leave O2 orthogonal to 1.5e-9: within bloch_messiah's check, not the reduction's
        (
            format_graph_text(star(6)),
            "construction = compiled\nremove_node = 6\nsqueezing_db = 1e-6",
            "construct: precision lost:",
        ),
        (
            WIRE_4,
            "scenario = remove-edge\nloss.detecton = 0.5",
            "error: unknown loss stage 'detecton'; choose from "
            "('source', 'propagation', 'feedforward_tap', 'detection')\n",
        ),
    ],
    ids=[
        "squeezing-1e6-db", "graph-db-1e308", "feedforward-gain-1e300", "graph-without-nodes",
        "edge-declared-twice", "lossless-maybe", "override-of-absent-node", "loss-of-absent-node",
        "remove-node-outside-custom", "shorten-inner-outside-custom", "remove-and-shorten",
        "custom-without-operation", "trials-above-2-to-the-53", "trials-1e400",
        "loss-per-node-then-uniform", "loss-uniform-then-per-node", "line-without-equals",
        "loss-key-too-deep", "format-xml", "preset-wire-on-3-nodes", "preset-wire-non-uniform-db",
        "graph-node-attribute", "graph-edge-attribute", "graph-db-given-twice", "graph-sign-given-twice",
        "remove-only-node", "isolated-node-at-3087-db",
        "isolated-node-at-3087-db-lossless", "compiled-levels-5-and-80-db", "compiled-near-unit-star",
        "loss-stage-misspelled",
    ],
)
def test_defect_input_exits_two_with_one_line(tmp_path, capsys, graph_text, line, message):
    # a later "scenario =" line overrides custom, so the graph file is read only by custom runs
    code, out, err = run_cli(capsys, "--config", _custom_config(tmp_path, graph_text, line))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("lossless", [False, True], ids=["calibrated", "lossless"])
def test_compiled_shortening_at_60_db_passes(tmp_path, capsys, lossless):
    cfg = tmp_path / "hi.cfg"
    cfg.write_text(
        "scenario = shorten-wire\nconstruction = compiled\nsqueezing_db = 60\n"
        + ("lossless = true\n" if lossless else "")
    )
    code, out, err = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["all_pass"] is True
    if lossless:
        # Lossless, each wire nullifier carries one squeezed variance s and
        # each nullifier of the shortened wire two.
        s = 0.25e-6
        for stage, expected in (("initial_criteria", s), ("final_criteria", 2 * s)):
            for check in report[stage]["nullifiers"]:
                assert check["variance"] == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize(
    "body, message",
    [
        (
            "scenario = shorten-wire\nconstruction = compiled\nsqueezing_db = 80\n",
            "error: construct: precision lost: ",
        ),
        (
            # The canonical symplectic passes the input check on its own
            # |S|^2 scale; the compiled plan's nullifier precision refuses.
            "scenario = shorten-wire\nconstruction = compiled\nsqueezing_db = 84\n",
            "error: construct: precision lost: compiled plan state deviates",
        ),
        ("scenario = remove-edge\nsqueezing_db = 200\n", "error: criteria.initial: precision lost: "),
        (
            # Only the Monte Carlo readout loses precision: its covariance is not positive definite.
            "scenario = remove-edge\nsqueezing_db.3 = 165\nsqueezing_db.4 = 0\nloss.source.3 = 0.8\ntrials = 1000\n",
            "error: monte_carlo: precision lost: ",
        ),
    ],
    ids=["compiled-80db", "compiled-84db", "remove-edge-200db", "monte-carlo-readout"],
)
def test_numerical_breakdown_exits_two(tmp_path, capsys, body, message):
    cfg = tmp_path / "hi.cfg"
    cfg.write_text(body)
    code, out, err = run_cli(capsys, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_running_out_of_memory_exits_two_with_one_line(tmp_path):
    # A 6,000-node wire's covariance is 12,000 x 12,000 floats, 1.07 GiB: the child, its address space
    # capped at 1.5 GB, cannot allocate it.  The cap and the one BLAS thread apply to the child only.
    graph, cfg, cap = tmp_path / "wire.graph", tmp_path / "wire.cfg", 1_500_000_000
    graph.write_text(format_graph_text(cvshape.ClusterGraph.linear_wire(6000)))
    cfg.write_text(f"scenario = custom\ngraph_file = {graph}\nremove_node = 2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cvshape.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-m", "cvshape.cli", "--config", str(cfg)],
        capture_output=True, text=True, env=env, check=False, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("error: construct: out of memory") and child.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "owner, name", [(cli, "emit"), (cvshape.ExperimentConfig, "from_file")], ids=["emit", "from_file"]
)
def test_running_out_of_memory_outside_run_exits_two_with_one_line(tmp_path, capsys, monkeypatch, owner, name):
    # run names the stage that ran out; reading the config and writing the report are not in run
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the text")

    monkeypatch.setattr(owner, name, exhausted)
    cfg = tmp_path / "remove-edge.cfg"
    cfg.write_text("scenario = remove-edge\n")
    assert run_cli(capsys, "--config", str(cfg)) == (2, "", "error: out of memory: cannot allocate the text\n")


def test_trial_count_up_to_2_to_the_53(capsys):
    code, out, err = run_cli(capsys, "--scenario", "shorten-wire", "--trials", str(10**13))
    assert (code, err) == (0, "")
    assert json.loads(out)["monte_carlo"]["trials"] == 10**13
    for trials in (10**16, 10**400):
        code, out, err = run_cli(capsys, "--scenario", "shorten-wire", "--trials", str(trials))
        assert (code, out) == (2, "")
        assert err == "error: trials must lie between 0 and 2**53 = 9007199254740992\n"


def test_negative_seed_exits_two(capsys):
    code, out, err = run_cli(capsys, "--scenario", "shorten-wire", "--trials", "10", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be non-negative\n"


def test_zero_trials_flag_overrides_configured_trials(tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("scenario = shorten-wire\nlossless = true\ntrials = 500\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--trials", "0")
    assert code == 0
    assert '"monte_carlo": null' in out
    assert json.loads(out)["config"]["trials"] == 0


def test_env_seed_applies(capsys, monkeypatch):
    monkeypatch.setenv("CVSHAPE_SEED", "777")
    _, out, _ = run_cli(capsys, "--scenario", "shorten-wire", "--lossless", "--trials", "50")
    assert json.loads(out)["config"]["seed"] == 777


def test_explicit_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("CVSHAPE_SEED", "777")
    _, out, _ = run_cli(
        capsys, "--scenario", "shorten-wire", "--lossless", "--trials", "50", "--seed", "5"
    )
    assert json.loads(out)["config"]["seed"] == 5


def test_bad_env_seed_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("CVSHAPE_SEED", "lots")
    code, _, err = run_cli(capsys, "--scenario", "shorten-wire")
    assert code == 2
    assert "CVSHAPE_SEED" in err


def test_output_file_routes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "--scenario", "remove-edge", "--lossless", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["all_pass"] is True


def test_csv_format(capsys):
    _, out, _ = run_cli(capsys, "--scenario", "remove-edge", "--lossless", "--format", "csv")
    assert out.splitlines()[0] == "stage,form,variance,bound,pass,db"


def test_repeat_runs_byte_identical(capsys):
    argv = ("--scenario", "shorten-wire", "--trials", "200", "--seed", "12")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--format", "xml"), "argument --format: invalid choice: 'xml'"),
        (("--trials", "1.5"), "argument --trials: invalid int value: '1.5'"),
        (("--scenario", "bogus"), "argument --scenario: invalid choice: 'bogus'"),
        (("--frobnicate",), "unrecognized arguments: --frobnicate"),
        (("--scenario", "remove-edge", "--analytic-only"), "unrecognized arguments: --analytic-only"),
    ],
    ids=["format-xml", "trials-1.5", "unknown-scenario", "unknown-flag", "analytic-only-flag"],
)
def test_usage_error_exits_two_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cvshape")


def test_shared_parser_leaks_no_state(capsys, monkeypatch):
    monkeypatch.delenv("CVSHAPE_SEED", raising=False)
    assert build_parser() is build_parser()
    first = ("--scenario", "ring-route-check", "--lossless", "--format", "csv")
    first += ("--trials", "0", "--seed", "3")
    code, _, _ = run_cli(capsys, *first)
    assert code == 0
    argv = ("--scenario", "shorten-wire", "--trials", "1000", "--seed", "7")
    code, out, _ = run_cli(capsys, *argv)
    env = {k: v for k, v in os.environ.items() if k != "CVSHAPE_SEED"}
    env["PYTHONPATH"] = str(Path(cvshape.__file__).parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "cvshape.cli", *argv], capture_output=True, env=env, check=False
    )
    assert (fresh.returncode, fresh.stdout) == (code, out.encode())
    code, _, err = run_cli(capsys, "--frobnicate")
    assert (code, err) == (2, "error: unrecognized arguments: --frobnicate\n")


# Every run the CLI offers, by construction: the stock scenarios, a Monte Carlo run,
# a compiled signed 16-node wire and the preset linear-optics wire.
RUNS = {
    **{name: ("--scenario", name) for name in ("remove-edge", "remove-inner", "shorten-wire", "ring-route-check")},
    "shorten-wire-mc": ("--scenario", "shorten-wire", "--trials", "2000"),
    "signed-wire-16-compiled": ("--config", "wire16.cfg"),
    "preset-wire": ("--config", "preset.cfg"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_run_applies_a_dense_transform(tmp_path, capsys, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a run applied a dense transform")

    original = cvshape.gaussian.apply
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "cvshape" and vars(module).get("apply") is original:
            monkeypatch.setattr(module, "apply", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wire16.graph").write_text(format_graph_text(signed_wire(16)))
    (tmp_path / "wire16.cfg").write_text(
        "scenario = custom\nconstruction = compiled\ngraph_file = wire16.graph\nshorten_inner = 8 9\n"
    )
    (tmp_path / "preset.cfg").write_text("scenario = remove-inner\nconstruction = preset-wire\n")
    code, _, err = run_cli(capsys, *RUNS[name])
    assert (code, err) == (0, "")
