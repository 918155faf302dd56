"""Scenario runner, loss calibration, and report emission."""

import json

import jsonschema
import numpy as np
import pytest

import cvshape.experiments as experiments
from cvshape.experiments import (
    DETECTOR_EFFICIENCY,
    HOMODYNE_VISIBILITY,
    REPORT_SCHEMA,
    ConfigError,
    ExperimentConfig,
    calibrate_loss,
    emit,
    run,
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
    assert lm.stage_labels() == ("detection",)
    assert lm.composite_efficiency(1) == pytest.approx(eta, abs=1e-12)


def test_calibrate_loss_rejects_unreachable_targets():
    with pytest.raises(ValueError):
        calibrate_loss(0.1)  # below the lossless variance
    with pytest.raises(ValueError):
        calibrate_loss(0.5)  # loss cannot reach the separable bound
    with pytest.raises(ValueError):
        calibrate_loss(0.6)


def test_calibrate_loss_custom_floor():
    lm = calibrate_loss(0.3, lossless_variance=0.1)
    assert lm.composite_efficiency(1) == pytest.approx(0.2 / 0.4, abs=1e-14)


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
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="custom")  # custom needs a graph file
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(loss={"source": 1.5})


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
    initial = {c.form.label: c.variance for c in report.initial_criteria.nullifiers}
    for check in report.final_criteria.nullifiers:
        assert check.variance == pytest.approx(initial[check.form.label], abs=1e-10)
    assert report.final_criteria.all_pass


def test_remove_edge_calibrated_lands_on_reference_targets():
    report = run(ExperimentConfig(scenario="remove-edge"))
    values = [c.variance for c in report.final_criteria.nullifiers]
    assert len(values) == len(REMOVE_EDGE_TARGETS)
    for got, target in zip(values, REMOVE_EDGE_TARGETS):
        assert abs(got - target) < 0.08
        assert got < 0.5


def test_remove_inner_calibrated_lands_on_reference_targets():
    report = run(ExperimentConfig(scenario="remove-inner"))
    pair_values = [c.variance for c in report.final_criteria.nullifiers if c.form.n_terms == 2]
    assert len(pair_values) == len(REMOVE_INNER_TARGETS)
    for got, target in zip(pair_values, REMOVE_INNER_TARGETS):
        assert abs(got - target) < 0.08
    residuals = report.final_criteria.residuals
    assert [r.node for r in residuals] == [4]
    assert -2.0 < residuals[0].squeezed_db < -1.0


def test_remove_inner_lossless_residual():
    report = run(ExperimentConfig(scenario="remove-inner", lossless=True))
    assert report.final_criteria.residuals[0].squeezed_db == pytest.approx(-5.0, abs=0.01)


def test_shorten_wire_scenario_values():
    lossless = run(ExperimentConfig(scenario="shorten-wire", lossless=True))
    for check in lossless.final_criteria.nullifiers:
        assert check.variance == pytest.approx(TWO_TERM_5DB, abs=1e-6)
    calibrated = run(ExperimentConfig(scenario="shorten-wire"))
    for check, target in zip(calibrated.final_criteria.nullifiers, SHORTEN_TARGETS):
        assert abs(check.variance - target) < 0.08
        assert -4.0 < check.db < -2.0


def test_initial_criteria_match_calibration_target():
    report = run(ExperimentConfig(scenario="remove-edge"))
    # end nodes carry the two-term forms the calibration is defined on:
    # eta * 2s + (1 - eta) * 1/2 with the canonical variance s at the input
    eta = CALIBRATED_ETA
    expected_two_term = eta * 0.07905694150420949 + (1 - eta) * 0.5
    ends = [c.variance for c in report.initial_criteria.nullifiers if c.form.n_terms == 2]
    for got in ends:
        assert got == pytest.approx(expected_two_term, abs=1e-6)


def test_ring_route_check_reports_tiny_discrepancy():
    report = run(ExperimentConfig(scenario="ring-route-check", lossless=True))
    assert report.ring_route is not None
    assert report.ring_route["discrepancy"] < 1e-9
    assert report.final_criteria.all_pass


def test_monte_carlo_section():
    report = run(ExperimentConfig(scenario="shorten-wire", lossless=True, trials=3000, seed=17))
    stats = report.monte_carlo
    assert stats.trials == 3000
    for form in stats.forms:
        assert abs(form.sample_var - form.analytic_var) < 4 * form.stderr


def test_analytic_run_has_no_monte_carlo():
    report = run(ExperimentConfig(scenario="shorten-wire", trials=0))
    assert report.monte_carlo is None


def test_feedforward_gain_detuning_degrades_variances():
    ideal = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    detuned = run(ExperimentConfig(scenario="remove-edge", lossless=True, feedforward_gain=0.5))
    v_ideal = {c.form.label: c.variance for c in ideal.final_criteria.nullifiers}
    v_detuned = {c.form.label: c.variance for c in detuned.final_criteria.nullifiers}
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
        ("_compile", ExperimentConfig(scenario="shorten-wire", construction="compiled")),
        ("check_cluster_criteria", ExperimentConfig(scenario="remove-edge")),
    ],
)
def test_only_precision_loss_becomes_a_config_error(monkeypatch, name, config):
    # Any other ValueError is a defect and must surface unchanged.
    monkeypatch.setattr(experiments, name, _raiser(ValueError("defect")))
    with pytest.raises(ValueError, match="defect") as info:
        run(config)
    assert not isinstance(info.value, ConfigError)


def test_compiled_precision_loss_is_a_config_error(monkeypatch):
    monkeypatch.setattr(experiments, "_compile", _raiser(np.linalg.LinAlgError("lost")))
    with pytest.raises(ConfigError, match="compiled construction failed: lost"):
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


def test_emit_timing_opt_in():
    report = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    payload = json.loads(emit(report, include_timing=True))
    assert payload["wall_time_s"] >= 0.0


def test_emit_writes_file(tmp_path):
    report = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    path = tmp_path / "out.json"
    emit(report, path=path)
    assert json.loads(path.read_text())["all_pass"] is True


def test_emit_byte_identical_for_same_seed():
    a = emit(run(ExperimentConfig(scenario="shorten-wire", trials=500, seed=8)))
    b = emit(run(ExperimentConfig(scenario="shorten-wire", trials=500, seed=8)))
    assert a == b
    c = emit(run(ExperimentConfig(scenario="shorten-wire", trials=500, seed=9)))
    assert a != c


def test_emit_csv_schema(tmp_path):
    report = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    path = tmp_path / "out.csv"
    emit(report, path=path, fmt="csv")
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


def test_emit_format_from_path_suffix(tmp_path):
    report = run(ExperimentConfig(scenario="remove-edge", lossless=True))
    path = tmp_path / "report.csv"
    emit(report, path=path)
    assert path.read_text().startswith("stage,form,")


def test_report_to_dict_echoes_loss_budget():
    report = run(ExperimentConfig(scenario="remove-edge"))
    payload = report.to_dict()
    stages = payload["config"]["loss"]
    assert set(stages) == {"detection", "propagation"}
    assert payload["config"]["composite_efficiency"] == pytest.approx(CALIBRATED_ETA, abs=1e-6)
