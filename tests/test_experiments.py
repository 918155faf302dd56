"""Scenario runner, loss calibration, and report emission."""

import dataclasses
import inspect
import json
import re
from collections.abc import Hashable
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import cvshape.criteria as cvshape_criteria
import cvshape.experiments as experiments
import cvshape.graphs as cvshape_graphs
import cvshape.shaping as cvshape_shaping
from cvshape import (
    ClusterGraph,
    FeedforwardTarget,
    GaussianState,
    MeasurementStep,
    NullifierTable,
    build_canonical,
    check_cluster_criteria,
    execute_ensemble,
    nullifiers_of,
    remove_node,
    wire_to_ring_phases,
)
from cvshape.criteria import CriteriaReport
from cvshape.experiments import (
    DETECTOR_EFFICIENCY,
    HOMODYNE_VISIBILITY,
    ConfigError,
    ExperimentConfig,
    calibrate_loss,
    emit,
    run,
)
from helpers import (
    CONFIG_TEXTS,
    CONFIG_VALUES,
    REPORT_SCALARS,
    REPORT_SCHEMA,
    emit_as,
    json_tokens_reference,
    leaf_types,
    plain_twin,
    report_json_reference,
    report_tree,
)

# Closed-form calibration oracle: eta = (1/2 - target) / (1/2 - 2s) with
# 2s the lossless two-term variance at 5 dB.
TWO_TERM_5DB = 0.15811388300841897
CALIBRATED_ETA = 0.7312376477871323
DETECTION_ETA = 0.912384  # 0.99 * 0.96^2

# Reference targets the calibrated scenarios must land near (tolerance 0.08).
REMOVE_EDGE_TARGETS = (0.14, 0.22, 0.26)
REMOVE_INNER_TARGETS = (0.17, 0.25)
SHORTEN_TARGETS = (0.25, 0.24)


# ----------------------------------------------------------------- calibration


def test_calibrate_loss_closed_form():
    lm = calibrate_loss(0.25)
    eta = lm.composite_efficiency(1)
    assert eta == pytest.approx((0.5 - 0.25) / (0.5 - TWO_TERM_5DB), abs=1e-15)
    assert eta == pytest.approx(CALIBRATED_ETA, abs=1e-15)
    assert abs(eta - 0.731) < 1e-3


def test_calibrate_loss_stage_split():
    lm = calibrate_loss(0.25)
    stages = lm.to_dict()
    assert stages["detection"] == pytest.approx(DETECTION_ETA, abs=1e-12)
    assert stages["propagation"] == pytest.approx(CALIBRATED_ETA / DETECTION_ETA, abs=1e-12)
    assert DETECTION_ETA == pytest.approx(DETECTOR_EFFICIENCY * HOMODYNE_VISIBILITY**2)


def test_calibrate_loss_mild_target_is_detection_only():
    # a target needing less loss than the detection chain provides
    target = 0.185
    lm = calibrate_loss(target)
    eta = (0.5 - target) / (0.5 - TWO_TERM_5DB)
    assert eta > DETECTION_ETA
    assert tuple(lm.stages) == ("detection",)
    assert lm.composite_efficiency(1) == pytest.approx(eta, abs=1e-12)


def test_calibrate_loss_rejects_unreachable_targets():
    with pytest.raises(ValueError):
        calibrate_loss(0.1)  # below the lossless variance
    with pytest.raises(ValueError):
        calibrate_loss(0.5)  # loss cannot reach the separable bound
    with pytest.raises(ValueError):
        calibrate_loss(0.6)


# ---------------------------------------------------------------- config files


def test_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "\n".join(
            [
                "# scenario setup",
                "scenario = shorten-wire",
                "construction = canonical",
                "squeezing_db = 6.5",
                "squeezing_db.2 = 9.0",
                "trials = 250",
                "seed = 31",
                "loss.source = 0.97",
                "loss.detection.1 = 0.9",
                "feedforward_gain = 1.05",
                "format = csv",
            ]
        )
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.scenario == "shorten-wire"
    assert cfg.squeezing_db == 6.5
    assert cfg.squeezing_overrides == {2: 9.0}
    assert cfg.trials == 250
    assert cfg.seed == 31
    assert cfg.loss == {"source": 0.97, "detection": {1: 0.9}}
    assert cfg.feedforward_gain == 1.05
    assert cfg.format == "csv"


def test_config_custom_fields(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("node 1 db=5\nnode 2 db=5\nnode 3 db=5\nedge 1 2\nedge 2 3\n")
    path = tmp_path / "run.cfg"
    path.write_text(f"scenario = custom\ngraph_file = {graph}\nremove_node = 2\nlossless = true\n")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.remove_target == 2
    assert cfg.lossless
    report = run(cfg)
    assert report.final_node_order == (1, 3)


def test_custom_reversed_shortening_bonds_outer_of_first_inner_first(tmp_path):
    graph = tmp_path / "wire.txt"
    graph.write_text("node 1\nnode 2\nnode 3\nnode 4\nedge 1 2\nedge 2 3\nedge 3 4\n")
    report = run(ExperimentConfig(scenario="custom", graph_file=str(graph), shorten_inner=(3, 2)))
    new_edges = [e for e in json.loads(emit(report))["transcript"] if e["op"] == "new_edge"]
    assert new_edges == [{"op": "new_edge", "nodes": [4, 1], "sign": -1}]
    assert [e["node"] for e in report.transcript if e["op"] == "measure"] == [3, 2]
    assert report.final_node_order == (1, 4)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = remove-edge\nwobble = 3\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="no-such-scenario")
    with pytest.raises(ConfigError):
        ExperimentConfig(construction="no-such-construction")
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=-1)
    with pytest.raises(ConfigError, match="custom scenario needs graph_file"):
        ExperimentConfig(scenario="custom")
    with pytest.raises(ConfigError, match="custom scenario needs remove_node or shorten_inner"):
        ExperimentConfig(scenario="custom", graph_file="g")
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(loss={"source": 1.5})
    with pytest.raises(ConfigError, match="need scenario = custom"):
        ExperimentConfig(scenario="remove-edge", remove_target=2)
    with pytest.raises(ConfigError, match="cannot be combined"):
        ExperimentConfig(scenario="custom", graph_file="g", remove_target=1, shorten_inner=(2, 3))
    # a stock scenario runs on its own wire: a graph file there would be ignored, yet echoed
    with pytest.raises(ConfigError, match="^remove_node, shorten_inner and graph_file need scenario = custom$"):
        ExperimentConfig(scenario="remove-edge", graph_file="/nonexistent/x.graph")
    # values of the wrong type fail here, not later in the run with a traceback
    with pytest.raises(ConfigError, match="trials must be an integer"):
        ExperimentConfig(scenario="shorten-wire", trials=1.5)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        ExperimentConfig(seed=2.5)
    with pytest.raises(ConfigError, match="squeezing_db must be a real number"):
        ExperimentConfig(squeezing_db="5")
    with pytest.raises(ConfigError, match="feedforward_gain must be a real number"):
        ExperimentConfig(feedforward_gain=None)
    # a non-bool lossless, and a bool or a float where a count, a seed or a node id
    # belongs, would otherwise run and be echoed back as given
    for value in ("no", 1, None):
        with pytest.raises(ConfigError, match="^lossless must be true or false, got "):
            ExperimentConfig(scenario="remove-edge", lossless=value)
    for key in ("trials", "seed"):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got True$"):
            ExperimentConfig(**{key: True})
    custom = {"scenario": "custom", "graph_file": "g"}
    for value in (True, 2.0):
        with pytest.raises(ConfigError, match=f"^remove_node must be an integer, got {value}$"):
            ExperimentConfig(**custom, remove_target=value)
    for pair, bad in (((2, False), False), ((True, 3), True), ((2, 3.0), 3.0), ("23", "'2'")):
        with pytest.raises(ConfigError, match=f"^shorten_inner must be an integer, got {bad}$"):
            ExperimentConfig(**custom, shorten_inner=pair)
    for pair in (5, (2, 3, 4), (2,), ()):
        message = f"shorten_inner must be a pair of node ids, got {pair!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**custom, shorten_inner=pair)
    # repr() of these raises ValueError past 4300 digits: the message shows each value bounded instead
    for fields in ({"trials": Fraction(10**5000, 3)}, {"squeezing_db": [10**5000]}, {**custom, "remove_target": [10**5000]}):
        with pytest.raises(ConfigError, match="^.{1,99}$"):
            ExperimentConfig(**fields)


WIRE_GRAPH_TEXT = "node 1\nnode 2\nnode 3\nnode 4\nedge 1 2\nedge 2 3\nedge 3 4\n"

_CUSTOM = {"scenario": "custom", "graph_file": "remove-edge"}

#: Every place a value can sit in a config: a field, or a key or an entry of a map or a pair.
CONFIG_SLOTS = {
    name: lambda value, name=name: {name: value}
    for name in (
        "scenario", "construction", "squeezing_db", "lossless", "calibrate_target", "feedforward_gain",
        "trials", "seed", "squeezing_overrides", "loss", "output", "format",
    )
}
CONFIG_SLOTS |= {
    "squeezing_overrides node": lambda value: {"squeezing_overrides": {value: 7.0}},
    "squeezing_overrides level": lambda value: {"squeezing_overrides": {2: value}},
    "loss stage": lambda value: {"loss": {value: 0.9}},
    "loss transmission": lambda value: {"loss": {"detection": value}},
    "loss node": lambda value: {"loss": {"propagation": {value: 0.9}}},
    "loss node transmission": lambda value: {"loss": {"propagation": {2: value}}},
    "graph_file": lambda value: {**_CUSTOM, "remove_target": 2, "graph_file": value},
    "remove_target": lambda value: {**_CUSTOM, "remove_target": value},
    "shorten_inner": lambda value: {**_CUSTOM, "shorten_inner": value},
    "shorten_inner entry": lambda value: {**_CUSTOM, "shorten_inner": (2, value)},
}


def _report_texts(config) -> tuple:
    report = run(config)
    return emit_as(report, "json"), emit_as(report, "csv")


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(slot=st.sampled_from(sorted(CONFIG_SLOTS)), value=CONFIG_VALUES)
@example(slot="squeezing_db", value=np.float32(5.0))
@example(slot="calibrate_target", value=Fraction(1, 4))
@example(slot="graph_file", value=5)
@example(slot="output", value=5)
def test_every_config_value_runs_as_its_plain_twin_or_raises_one_config_error(tmp_path, monkeypatch, slot, value):
    # numpy scalars, Fractions and ints are stored as the Python scalar a config file gives, so the
    # report matches the plain value's byte for byte; anything else is one ConfigError, not a traceback
    assume(isinstance(value, Hashable) or slot not in ("squeezing_overrides node", "loss stage", "loss node"))
    monkeypatch.chdir(tmp_path)
    for name in CONFIG_TEXTS:
        (tmp_path / name).write_text(WIRE_GRAPH_TEXT)
    try:
        config = ExperimentConfig(**CONFIG_SLOTS[slot](value))
        texts = _report_texts(config)
    except ConfigError:
        return
    assert leaf_types(config.to_dict()) <= REPORT_SCALARS
    assert texts == _report_texts(ExperimentConfig(**CONFIG_SLOTS[slot](plain_twin(value))))


@pytest.mark.parametrize("slot", ["seed", "trials", "squeezing_overrides node", "loss node", "remove_target"])
def test_an_int_no_report_can_print_is_one_config_error(slot):
    # int() takes it, but str() refuses past the int-to-str digit limit, so a report could not print it
    with pytest.raises(ConfigError, match=r" has too many digits to print, got <int of 16610 bits>$"):
        ExperimentConfig(**CONFIG_SLOTS[slot](10**5000))


def test_a_graph_file_level_of_zero_is_the_vacuum(tmp_path):
    # a file's db=0 ranks with any other level the file gives: ahead of squeezing_db, behind an override
    graph = tmp_path / "zero.graph"
    graph.write_text("node 1 db=0\n" + WIRE_GRAPH_TEXT[len("node 1\n"):])
    custom = {"scenario": "custom", "graph_file": str(graph), "remove_target": 4, "lossless": True}
    report = report_tree(run(ExperimentConfig(**custom)))
    override = report_tree(run(ExperimentConfig(**custom, squeezing_overrides={1: 0.0})))
    assert report["initial_criteria"]["nullifiers"][0]["variance"] == 0.25  # p_1 - x_2 on vacuum in mode 1
    assert {**report, "config": None} == {**override, "config": None}


@pytest.mark.parametrize(
    "numpy_fields, fields",
    [
        ({"scenario": "shorten-wire", "trials": np.int64(50)}, {"scenario": "shorten-wire", "trials": 50}),
        ({"trials": 50, "seed": np.int32(7)}, {"trials": 50, "seed": 7}),
        ({"scenario": "custom", "remove_target": np.int64(3)}, {"scenario": "custom", "remove_target": 3}),
        (
            {"scenario": "custom", "shorten_inner": (np.int64(2), np.uint8(3))},
            {"scenario": "custom", "shorten_inner": (2, 3)},
        ),
    ],
    ids=["trials", "seed", "remove_target", "shorten_inner"],
)
def test_numpy_integer_config_values_become_python_ints(tmp_path, numpy_fields, fields):
    # numpy integers are numbers.Integral, but the report writer prints only Python scalars
    graph = tmp_path / "wire.graph"
    graph.write_text(WIRE_GRAPH_TEXT)
    extra = {"graph_file": str(graph)} if fields.get("scenario") == "custom" else {}
    config, plain = ExperimentConfig(**numpy_fields, **extra), ExperimentConfig(**fields, **extra)
    assert config == plain
    assert leaf_types(config.to_dict()) <= REPORT_SCALARS
    report, expected = run(config), run(plain)
    for fmt in ("json", "csv"):
        assert emit_as(report, fmt) == emit_as(expected, fmt)


def test_config_rejects_a_loss_stage_the_run_does_not_apply():
    # a misspelled stage would otherwise leave the run lossless while the report echoes its efficiency
    stages = "('source', 'propagation', 'feedforward_tap', 'detection')"
    for stage, loss in (("detecton", {"detecton": 0.5}), ("tap", {"detection": 0.9, "tap": {2: 0.5}})):
        message = f"unknown loss stage {stage!r}; choose from {stages}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(scenario="remove-edge", loss=loss)
    for stage in ("source", "propagation", "feedforward_tap", "detection"):
        assert ExperimentConfig(loss={stage: 0.9}).loss == {stage: 0.9}


@pytest.mark.parametrize("node", [True, 2.0, 1.5], ids=["bool", "float-2", "float-1.5"])
def test_config_rejects_node_keys_that_are_not_integers(node):
    # a bool or a float key would otherwise select node int(node) and be echoed back as given
    cases = (
        ({"squeezing_overrides": {node: 10.0}}, "squeezing_overrides node"),
        ({"loss": {"propagation": {node: 0.5}}}, "loss.propagation node"),
    )
    for fields, key in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be an integer, got {node!r}$"):
            ExperimentConfig(scenario="remove-edge", **fields)


def test_numpy_integer_node_keys_become_python_ints():
    numpy_keys = ExperimentConfig(
        scenario="remove-edge", squeezing_overrides={np.int64(2): 7.0}, loss={"detection": {np.int32(3): 0.9}}
    )
    plain = ExperimentConfig(scenario="remove-edge", squeezing_overrides={2: 7.0}, loss={"detection": {3: 0.9}})
    assert numpy_keys == plain
    assert [type(n) for n in numpy_keys.squeezing_overrides] == [int]
    assert [type(n) for n in numpy_keys.loss["detection"]] == [int]
    assert emit(run(numpy_keys)) == emit(run(plain))


@pytest.mark.parametrize(
    "config, key",
    [
        (ExperimentConfig(scenario="remove-edge", loss={"propagation": {9: 0.5}}), "loss.propagation.9"),
        (ExperimentConfig(scenario="remove-edge", loss={"detection": {2: 0.9, 7: 0.8}}), "loss.detection.7"),
    ],
    ids=["propagation-9", "detection-7"],
)
def test_per_node_loss_must_name_graph_nodes(config, key):
    with pytest.raises(ConfigError, match=rf"^{key}: node \d+ is not in the graph$"):
        run(config)


@pytest.mark.parametrize("value", [None, [], [(2, 7.0)]], ids=["none", "empty-list", "list"])
@pytest.mark.parametrize("field", ["squeezing_overrides", "loss"])
def test_config_rejects_a_stage_or_override_map_that_is_no_mapping(field, value):
    # either would otherwise raise a bare TypeError or AttributeError from the item loop
    message = f"{field} must be a mapping, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(scenario="remove-edge", **{field: value})


@pytest.mark.parametrize("eta", ["0.5", True, None, [0.5]], ids=["str", "bool", "none", "list"])
def test_config_rejects_a_transmission_that_is_no_real_number(eta):
    # LossModel calls float(), which would take "0.5" and True as transmissions 0.5 and 1.0
    for loss, key in (({"detection": eta}, "loss.detection"), ({"propagation": {2: eta}}, "loss.propagation.2")):
        message = f"{key} must be a real number, got {eta!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(scenario="remove-edge", loss=loss)
    assert ExperimentConfig(loss={"detection": np.float64(0.5), "source": {2: 1}}).loss == {
        "detection": 0.5,
        "source": {2: 1},
    }


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field", ["squeezing_db", "calibrate_target", "feedforward_gain", "squeezing_overrides"]
)
def test_config_rejects_non_finite_floats(field, value):
    kwargs = {field: {2: value} if field == "squeezing_overrides" else value}
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig(**kwargs)


# ------------------------------------------------------------------- scenarios


def test_remove_edge_lossless_preserves_initial_variances():
    report = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    initial = dict(zip(report.initial_criteria.table.labels, report.initial_criteria.variances))
    for node, variance in zip(report.final_criteria.table.labels, report.final_criteria.variances):
        assert variance == pytest.approx(initial[node], abs=1e-10)
    assert report.final_criteria.all_pass


def test_uniform_tap_loss_acts_on_displaced_nodes_only():
    # removing end node 4 displaces node 3 alone, so a uniform tap is node 3's tap and nothing else
    uniform, per_node = (
        run(ExperimentConfig(scenario="remove-edge", loss={"feedforward_tap": tap}, trials=200))
        for tap in (0.9, {3: 0.9})
    )
    assert uniform.final_criteria.variances == per_node.final_criteria.variances
    for column in ("labels", "analytic_var", "sample_mean", "sample_var", "stderr"):
        assert getattr(uniform.monte_carlo, column) == getattr(per_node.monte_carlo, column)
    taps = [[entry for entry in report.transcript if entry.get("stage") == "feedforward_tap"]
            for report in (uniform, per_node)]
    assert taps[0] == taps[1] == [{"op": "loss", "stage": "feedforward_tap", "efficiency": {"3": 0.9}}]
    lossless = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    assert uniform.final_criteria.variances != lossless.final_criteria.variances  # the tap did act


def test_remove_edge_calibrated_lands_on_reference_targets():
    report = run(ExperimentConfig(scenario="remove-edge"))
    values = report.final_criteria.variances
    assert len(values) == len(REMOVE_EDGE_TARGETS)
    for got, target in zip(values, REMOVE_EDGE_TARGETS):
        assert abs(got - target) < 0.08
        assert got < 0.5


def test_remove_inner_calibrated_lands_on_reference_targets():
    report = run(ExperimentConfig(scenario="remove-inner"))
    final = report.final_criteria
    pair_values = [v for v, count in zip(final.variances, final.table.counts) if count == 2]
    assert len(pair_values) == len(REMOVE_INNER_TARGETS)
    for got, target in zip(pair_values, REMOVE_INNER_TARGETS):
        assert abs(got - target) < 0.08
    residuals = final.residuals
    assert [r[0] for r in residuals] == [4]
    assert -2.0 < residuals[0][1] < -1.0  # squeezed_db


def test_remove_inner_lossless_residual():
    report = run(ExperimentConfig(scenario="remove-inner", lossless=True))
    assert report.final_criteria.residuals[0][1] == pytest.approx(-5.0, abs=0.01)  # squeezed_db


def test_shorten_wire_scenario_values():
    lossless = run(ExperimentConfig(scenario="shorten-wire", lossless=True))
    assert lossless.final_criteria.variances == pytest.approx([TWO_TERM_5DB] * 2, abs=1e-6)
    calibrated = run(ExperimentConfig(scenario="shorten-wire")).final_criteria
    assert len(calibrated.variances) == len(SHORTEN_TARGETS)
    for variance, db, target in zip(calibrated.variances, calibrated.db, SHORTEN_TARGETS):
        assert abs(variance - target) < 0.08
        assert -4.0 < db < -2.0


def test_initial_criteria_match_calibration_target():
    report = run(ExperimentConfig(scenario="remove-edge"))
    # end nodes carry the two-term forms the calibration is defined on:
    # eta * 2s + (1 - eta) * 1/2 with the canonical variance s at the input
    eta = CALIBRATED_ETA
    expected_two_term = eta * 0.07905694150420949 + (1 - eta) * 0.5
    initial = report.initial_criteria
    ends = [v for v, count in zip(initial.variances, initial.table.counts) if count == 2]
    for got in ends:
        assert got == pytest.approx(expected_two_term, abs=1e-6)


def test_ring_route_check_reports_tiny_discrepancy():
    report = run(ExperimentConfig(scenario="ring-route-check", lossless=True))
    assert report.ring_route is not None
    assert report.ring_route["discrepancy"] < 1e-9
    assert report.final_criteria.all_pass


RING_CASES = pytest.mark.parametrize(
    "db, lossless",
    [(5.0, True), (5.0, False), (20.0, True), (20.0, False)],
    ids=["5dB-lossless", "5dB", "20dB-lossless", "20dB"],
)


@RING_CASES
def test_ring_route_removals_equal_the_hand_built_ring_steps(db, lossless):
    wire = ClusterGraph.linear_wire(4)
    state = build_canonical(wire, db)
    if not lossless:
        loss = calibrate_loss(0.25)
        for stage in ("source", "propagation"):
            state = loss.apply_stage(state, stage)
    turns = [(node, round(theta / (np.pi / 2))) for node, theta in wire_to_ring_phases(wire)]
    rotated = experiments._quarter_turns(state, turns)
    # the route's former plan: measure x of nodes 2 and 3, feeding each outcome forward to one end
    steps = [
        MeasurementStep(node=2, angle=0.0, feedforward=(FeedforwardTarget(4, "p", -1.0),)),
        MeasurementStep(node=3, angle=0.0, feedforward=(FeedforwardTarget(1, "p", -1.0),)),
    ]
    expected, _ = execute_ensemble(rotated, steps)
    ring = remove_node(rotated, ClusterGraph.ring((1, 3, 2, 4)), 2)
    ring = remove_node(ring.state, ring.graph, 3)
    assert ring.graph.nodes == ring.state.nodes == expected.nodes == (1, 4)
    assert ring.state.cov.tobytes() == expected.cov.tobytes()
    assert ring.state.mean.tobytes() == expected.mean.tobytes()


@RING_CASES
def test_ring_route_discrepancy_is_zero_at_ideal_gain(db, lossless):
    report = run(ExperimentConfig(scenario="ring-route-check", squeezing_db=db, lossless=lossless))
    assert report.ring_route["discrepancy"] == 0.0


def test_monte_carlo_section():
    report = run(ExperimentConfig(scenario="shorten-wire", lossless=True, trials=3000, seed=17))
    stats = report.monte_carlo
    assert stats.trials == 3000
    assert len(stats.labels) == 2
    for sample_var, analytic_var, stderr in zip(stats.sample_var, stats.analytic_var, stats.stderr):
        assert abs(sample_var - analytic_var) < 4 * stderr
    assert leaf_types(report_tree(report)["monte_carlo"]["forms"]) <= REPORT_SCALARS
    numpy_stderr = dataclasses.replace(report, monte_carlo=dataclasses.replace(stats, stderr=np.asarray(stats.stderr)))
    assert not leaf_types(report_tree(numpy_stderr)["monte_carlo"]["forms"]) <= REPORT_SCALARS


@pytest.mark.parametrize("db", [5.0, 10.0, 20.0])
@pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "calibrated"])
@pytest.mark.parametrize("scenario", ["remove-edge", "remove-inner", "shorten-wire", "ring-route-check"])
def test_monte_carlo_analytic_variances_equal_the_final_criteria(scenario, lossless, db):
    # the readout map and the ensemble criteria are two routes to one variance; at these
    # levels they agree to rounding (worst case under 4e-13 relative)
    config = ExperimentConfig(scenario=scenario, lossless=lossless, squeezing_db=db, trials=1000, seed=3)
    report = run(config)
    assert report.monte_carlo.labels == report.final_criteria.table.texts
    np.testing.assert_allclose(report.monte_carlo.analytic_var, report.final_criteria.variances, rtol=1e-10, atol=0)


def test_analytic_run_has_no_monte_carlo():
    report = run(ExperimentConfig(scenario="shorten-wire", trials=0))
    assert report.monte_carlo is None


def test_feedforward_gain_detuning_degrades_variances():
    ideal = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    detuned = run(ExperimentConfig(scenario="remove-edge", lossless=True, feedforward_gain=0.5))
    v_ideal = dict(zip(ideal.final_criteria.table.labels, ideal.final_criteria.variances))
    v_detuned = dict(zip(detuned.final_criteria.table.labels, detuned.final_criteria.variances))
    # the removed end node's neighbor absorbs the unbalanced correction
    assert v_detuned[3] > v_ideal[3] + 0.01
    assert v_detuned[1] == pytest.approx(v_ideal[1], abs=1e-12)


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc

    return raise_it


@pytest.mark.parametrize(
    "name, config",
    [
        ("compile_network", ExperimentConfig(scenario="shorten-wire", construction="compiled")),
        ("check_cluster_criteria", ExperimentConfig(scenario="remove-edge")),
        ("run_trajectory", ExperimentConfig(scenario="shorten-wire", trials=10)),
    ],
)
def test_only_precision_loss_becomes_a_config_error(monkeypatch, name, config):
    # Any other ValueError is a defect and must surface unchanged.
    monkeypatch.setattr(experiments, name, _raiser(ValueError("defect")))
    with pytest.raises(ValueError, match="defect") as info:
        run(config)
    assert not isinstance(info.value, ConfigError)


def test_non_finite_nullifier_variance_is_a_config_error(monkeypatch):
    state = GaussianState(np.zeros(8), np.diag([0.25] * 4 + [np.nan] + [0.25] * 3), (1, 2, 3, 4))  # p_1 variance NaN
    with pytest.raises(np.linalg.LinAlgError, match="^variance must be positive and finite"):
        check_cluster_criteria(state, ClusterGraph.linear_wire(4))
    # run names the stage the NaN reached
    monkeypatch.setattr(experiments, "build_canonical", lambda graph, db: state)
    with pytest.raises(ConfigError, match=r"^criteria\.initial: precision lost: variance must be positive and finite"):
        run(ExperimentConfig(scenario="remove-edge", lossless=True))


def test_criteria_failure_evaluates_the_variances_once(monkeypatch):
    # the refused variances are not evaluated a second time to classify the refusal
    calls, variances = [], NullifierTable.variances

    def counted(table, state, loss):
        calls.append((len(table.labels), state.n_modes))
        return variances(table, state, loss)

    monkeypatch.setattr(NullifierTable, "variances", counted)
    with pytest.raises(ConfigError, match=r"^criteria\.initial: precision lost: variance must be positive and finite"):
        run(ExperimentConfig(scenario="remove-edge", squeezing_db=200))
    assert calls == [(4, 4)]


def test_each_run_stage_has_one_path():
    # no eigh behind the Monte Carlo Cholesky, no second variance evaluation in the runner, and no
    # detection view of a whole state behind the criteria: they read it through NullifierTable.variances
    assert not re.search(r"\beigh\b", inspect.getsource(cvshape_shaping))
    assert "quadrature_variances" not in inspect.getsource(experiments)
    assert '"detection")' not in inspect.getsource(experiments._run)


STOCK_OPERATIONS = {
    "remove-edge": {"remove_target": 4},
    "remove-inner": {"remove_target": 3},
    "shorten-wire": {"shorten_inner": (2, 3)},
    "ring-route-check": {"shorten_inner": (2, 3)},
}


@pytest.mark.parametrize("trials", [0, 500])
@pytest.mark.parametrize("lossless", [False, True], ids=["calibrated", "lossless"])
@pytest.mark.parametrize("scenario", sorted(STOCK_OPERATIONS))
def test_stock_scenario_is_its_custom_operation_on_the_wire(tmp_path, scenario, lossless, trials):
    graph = tmp_path / "wire.graph"
    graph.write_text(WIRE_GRAPH_TEXT)
    stock = report_tree(run(ExperimentConfig(scenario=scenario, lossless=lossless, trials=trials)))
    custom = ExperimentConfig(
        scenario="custom", graph_file=str(graph), lossless=lossless, trials=trials, **STOCK_OPERATIONS[scenario]
    )
    custom = report_tree(run(custom))
    # the config differs, and the ring route is ring-route-check's own extra section
    del stock["config"], custom["config"]
    assert custom.pop("ring_route") is None
    assert (stock.pop("ring_route") is not None) == (scenario == "ring-route-check")
    assert stock == custom


def test_each_graph_nullifier_table_is_built_once_per_run(monkeypatch):
    # the final graph's table serves both the final criteria and the Monte Carlo record
    built = []

    def counted(graph):
        built.append(graph.nodes)
        return nullifiers_of(graph)

    for module in (cvshape_graphs, cvshape_criteria, experiments):
        monkeypatch.setattr(module, "nullifiers_of", counted)
    report = run(ExperimentConfig(scenario="shorten-wire", trials=100))
    assert built == [(1, 2, 3, 4), (1, 4)]
    assert report.monte_carlo.labels == report.final_criteria.table.texts == ["p_1 + x_4", "p_4 + x_1"]


def test_compiled_precision_loss_is_a_config_error(monkeypatch):
    monkeypatch.setattr(experiments, "compile_network", _raiser(np.linalg.LinAlgError("lost")))
    with pytest.raises(ConfigError, match="^construct: precision lost: lost; lower squeezing_db$"):
        run(ExperimentConfig(scenario="shorten-wire", construction="compiled"))


# -------------------------------------------------------------------- emission


def test_emit_json_is_valid_and_rounded(tmp_path):
    report = run(ExperimentConfig(scenario="shorten-wire", trials=100, seed=3))
    text = emit(report)
    payload = json.loads(text)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["schema_version"] == "1"
    assert "wall_time_s" not in payload
    # floats carry six significant digits
    first = payload["final_criteria"]["nullifiers"][0]["variance"]
    assert first == float(f"{first:.6g}")


KEYS = st.text(st.characters(), max_size=5)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1.5e-310, 1e300, -1e-300, 123456.5, 1e16, 0.1]),
    st.text(st.characters(), max_size=6),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=30,
)


def _writer_text(tree) -> str:
    return "".join(experiments._json_tokens(tree, [], "\n"))


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
@example(tree={"gr\u00e4ph\x00": ["\u2603\n\x1f\ud7ff", (), {}, {"": [[], {}]}], "b": [True, 1, False, 0, 2**64]})
@example(tree=[-0.0, 5e-324, 1e300, -1e-300, np.float64(1 / 3), float("nan"), float("-inf")])
def test_report_writer_matches_json_dumps_of_rounded_copy(tree):
    assert _writer_text(tree) == report_json_reference(tree)


@pytest.mark.parametrize("leaf", [np.int64(3), {1, 2}], ids=["int64", "set"])
def test_report_writer_refuses_what_json_dumps_refuses(leaf):
    for tree in (leaf, [1.0, leaf], {"a": {"b": leaf}}):
        with pytest.raises(TypeError):
            report_json_reference(tree)
        with pytest.raises(TypeError) as refused:
            _writer_text(tree)
        with pytest.raises(TypeError) as expected:
            json_tokens_reference(tree, [], "\n")
        assert str(refused.value) == str(expected.value)


REPORT_FLOATS = st.one_of(
    st.floats(),  # nan, +-inf, +-0.0 and subnormals among them
    st.floats(-1e-307, 1e-307),
    st.floats(9.99e15, 1.001e16).flatmap(lambda v: st.sampled_from((v, -v))),
    st.floats(999999.5, 999999.99999).flatmap(lambda v: st.sampled_from((v, -v))),
    st.sampled_from([999999.5, -999999.5, 1e16, 5e-324, -0.0, 0.0, 123456.5, 0.0001, 9.999995e-05]),
)


@settings(max_examples=500, deadline=None)
@given(value=REPORT_FLOATS)
def test_report_float_is_the_repr_of_its_six_digit_rounding(value):
    text = float.__repr__(float(format(value, ".6g")))
    expected = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    assert _writer_text(value) == expected
    assert _writer_text(np.float64(value)) == expected
    assert _writer_text([value]) == f"[\n  {expected}\n]"


REFERENCE_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    REPORT_FLOATS,
    REPORT_FLOATS.map(np.float64),
    st.text(st.characters(), max_size=6),
)
REFERENCE_TREES = st.recursive(
    REFERENCE_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(tree=REFERENCE_TREES)
@example(tree={"\u00e9t\u00e9": [np.float64(-0.0), True, 0, (), {}, [[]], {"\u2603": (np.float64("nan"),)}]})
def test_report_writer_matches_the_reference_writer(tree):
    assert _writer_text(tree) == "".join(json_tokens_reference(tree, [], "\n"))


def test_emit_timing_opt_in():
    report = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    payload = json.loads(emit(report, include_timing=True))
    assert payload["wall_time_s"] >= 0.0


def test_emit_writes_file(tmp_path):
    # emit writes config.output and returns the same text
    path = tmp_path / "out.json"
    report = run(ExperimentConfig(scenario="remove-edge", lossless=True, output=str(path)))
    text = emit(report)
    assert path.read_text() == text
    assert json.loads(text)["all_pass"] is True


def test_emit_byte_identical_for_same_seed():
    a = emit(run(ExperimentConfig(scenario="shorten-wire", trials=500, seed=8)))
    b = emit(run(ExperimentConfig(scenario="shorten-wire", trials=500, seed=8)))
    assert a == b
    c = emit(run(ExperimentConfig(scenario="shorten-wire", trials=500, seed=9)))
    assert a != c


def test_emit_csv_schema(tmp_path):
    path = tmp_path / "out.txt"
    report = run(ExperimentConfig(scenario="remove-edge", lossless=True, output=str(path), format="csv"))
    emit(report)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "stage,form,variance,bound,pass,db"
    rows = [line.split(",") for line in lines[1:]]
    # one row per nullifier, initial and final
    initial = [r for r in rows if r[0] == "initial"]
    final = [r for r in rows if r[0] == "final"]
    assert len(initial) == 4
    assert len(final) == 3
    for row in rows:
        float(row[2]), float(row[3]), float(row[5])
        assert row[4] in ("true", "false")


def _signed_lattice_config(tmp_path) -> ExperimentConfig:
    """3x3 lattice, odd-numbered nodes' edges signed -1, centre node 5 removed."""
    pairs = [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9), (1, 4), (4, 7), (2, 5), (5, 8), (3, 6), (6, 9)]
    lines = [f"node {n}" for n in range(1, 10)] + [f"edge {i} {j} sign={-1 if i % 2 else 1}" for i, j in pairs]
    graph = tmp_path / "lattice.graph"
    graph.write_text("\n".join(lines) + "\n")
    return ExperimentConfig(scenario="custom", graph_file=str(graph), remove_target=5)


@pytest.mark.parametrize("scenario", ["remove-edge", "remove-inner", "shorten-wire", "ring-route-check", "custom"])
def test_csv_rows_match_the_json_nullifiers(tmp_path, scenario):
    # both writers read the same columns: each CSV row is the JSON nullifier of its stage and form
    config = _signed_lattice_config(tmp_path) if scenario == "custom" else ExperimentConfig(scenario=scenario)
    report = run(config)
    payload = json.loads(emit_as(report, "json"))
    nullifiers = {
        (stage, check["form"].replace(" ", "")): check
        for stage in ("initial", "final")
        for check in payload[f"{stage}_criteria"]["nullifiers"]
    }
    rows = [line.split(",") for line in emit_as(report, "csv").splitlines()[1:]]
    assert sorted((row[0], row[1]) for row in rows) == sorted(nullifiers)
    for stage, form, variance, bound, passed, db in rows:
        check = nullifiers[stage, form]
        assert [float(variance), float(bound), float(db)] == [check["variance"], check["bound"], check["db"]]
        assert passed == ("true" if check["pass"] else "false")


def _numpy_columns(report):
    """The report with numpy criteria and Monte Carlo columns: np.float64 values, np.bool_ pass flags."""

    def criteria(c):
        residuals = [(node, *map(np.float64, rest)) for node, *rest in c.residuals]
        return CriteriaReport(c.table, np.array(c.variances), np.array(c.db), np.array(c.sums), residuals)

    def floats(column):
        return [None if x is None else np.float64(x) for x in column]

    mc = report.monte_carlo and dataclasses.replace(
        report.monte_carlo,
        analytic_var=np.array(report.monte_carlo.analytic_var),
        sample_mean=np.array(report.monte_carlo.sample_mean),
        sample_var=floats(report.monte_carlo.sample_var),
        stderr=floats(report.monte_carlo.stderr),
    )
    initial, final = criteria(report.initial_criteria), criteria(report.final_criteria)
    return dataclasses.replace(report, initial_criteria=initial, final_criteria=final, monte_carlo=mc)


WRITER_CASES = [
    (scenario, lossless, trials)
    for scenario in ("remove-edge", "remove-inner", "shorten-wire", "ring-route-check", "custom")
    for lossless in (False, True)
    for trials in (0, 1, 3, 1000)
    if scenario != "custom" or not lossless
]


@pytest.mark.parametrize(
    "scenario, lossless, trials",
    WRITER_CASES,
    ids=[f"{s}-{'lossless' if lossless else 'calibrated'}-{t}" for s, lossless, t in WRITER_CASES],
)
def test_emit_writes_the_tree_view_without_reading_it(tmp_path, scenario, lossless, trials):
    # emit writes the criteria and Monte Carlo rows from their columns; report_tree is the tree a reference
    # json.dumps must print the same. The custom 3x3 lattice has no edges at node 9, so residual rows
    # print inside final_criteria and in the top-level copy; one trial prints a null sample_var.
    if scenario == "custom":
        pairs = [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (1, 4), (4, 7), (2, 5), (5, 8), (3, 6)]
        lines = [f"node {n}" for n in range(1, 10)] + [f"edge {i} {j} sign={-1 if i % 2 else 1}" for i, j in pairs]
        (tmp_path / "lattice.graph").write_text("\n".join(lines) + "\n")
        config = ExperimentConfig(scenario="custom", graph_file=str(tmp_path / "lattice.graph"), remove_target=5)
    else:
        config = ExperimentConfig(scenario=scenario, lossless=lossless)
    report = run(dataclasses.replace(config, trials=trials, seed=7))
    tree = report_tree(report, include_timing=True)
    assert "wall_time_s" in tree and (tree["monte_carlo"] is None) == (trials == 0)
    if scenario in ("remove-inner", "custom"):
        assert tree["residual_squeezing"] and bool(tree["initial_criteria"]["residual_squeezing"]) == (scenario == "custom")
    if trials == 1:
        assert {form["sample_var"] for form in tree["monte_carlo"]["forms"]} == {None}
    expected = {timing: report_json_reference(report_tree(report, timing)) + "\n" for timing in (False, True)}
    for timing, text in expected.items():
        assert emit(report, include_timing=timing) == text
        assert emit(_numpy_columns(report), include_timing=timing) == text


@pytest.mark.parametrize("name", ["report.csv", "report.CSV"])
def test_emit_format_from_path_suffix(tmp_path, name):
    # an unset format is CSV for a .csv output in any case; the file holds the text emit returns
    path = tmp_path / name
    text = emit(run(ExperimentConfig(scenario="remove-edge", lossless=True, output=str(path))))
    assert text.startswith("stage,form,") and path.read_text() == text


def test_report_echoes_loss_budget():
    report = run(ExperimentConfig(scenario="remove-edge"))
    payload = json.loads(emit(report))
    stages = payload["config"]["loss"]
    assert set(stages) == {"detection", "propagation"}
    assert payload["config"]["composite_efficiency"] == pytest.approx(CALIBRATED_ETA, abs=1e-6)
