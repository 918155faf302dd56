"""Scenario runner: configuration, loss calibration, reports, and emission.

A scenario builds a cluster state, applies a staged loss budget, runs one
shaping operation, and verifies the result.  Loss stages are applied
where they act physically: source and propagation before any
measurement, the feedforward tap right after shaping on displaced modes,
and detection only at verification readout, so the verified numbers and
the Monte Carlo readout statistics describe the same experiment.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .criteria import CriteriaReport, check_cluster_criteria
from .gaussian import (
    GaussianState,
    LossModel,
    VACUUM_VARIANCE,
    _mix_vacuum,
    apply,
    phase_shift,
    quadrature_variance,
    squeezed_variance,
)
from .graphs import (
    ClusterGraph,
    _compile,
    build_canonical,
    nullifiers_of,
    parse_graph_text,
    preset_wire_network,
    wire_to_ring_phases,
)
from .shaping import (
    MeasurementStep,
    FeedforwardTarget,
    TrajectoryPlan,
    execute_ensemble,
    removal_steps,
    run_trajectory,
    shorten_steps,
)

__all__ = [
    "DETECTOR_EFFICIENCY",
    "HOMODYNE_VISIBILITY",
    "SCENARIOS",
    "CONSTRUCTIONS",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "calibrate_loss",
    "run",
    "emit",
    "REPORT_SCHEMA",
]

#: Photodiode quantum efficiency of the detection stage.
DETECTOR_EFFICIENCY = 0.99

#: Homodyne fringe visibility; detection transmission scales with its square.
HOMODYNE_VISIBILITY = 0.96

SCENARIOS = ("remove-edge", "remove-inner", "shorten-wire", "ring-route-check", "custom")
CONSTRUCTIONS = ("canonical", "compiled", "preset-wire")

_PRE_SHAPING_STAGES = ("source", "propagation")


class ConfigError(ValueError):
    """Invalid configuration or scenario precondition."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scenario run depends on.

    Attributes:
        scenario: one of SCENARIOS.
        construction: one of CONSTRUCTIONS.
        squeezing_db: base squeezing level applied to every node.
        squeezing_overrides: node -> dB overrides on top of the base.
        lossless: disable all loss stages.
        loss: explicit stage -> transmission map; overrides calibration.
        calibrate_target: initial two-term nullifier variance the default
            calibrated loss model is solved for.
        feedforward_gain: multiplier on the ideal feedforward gains;
            1 is ideal, 0 disables feedforward.
        trials: Monte Carlo trajectories; 0 means analytic only.
        seed: Monte Carlo seed.
        output: report path, None for stdout.
        format: "json" or "csv"; None infers from output suffix.
        graph_file: graph text file for the custom scenario.
        remove_target: node removed by the custom scenario.
        shorten_inner: inner pair shortened by the custom scenario.
    """

    scenario: str = "remove-edge"
    construction: str = "canonical"
    squeezing_db: float = 5.0
    squeezing_overrides: dict = field(default_factory=dict)
    lossless: bool = False
    loss: dict = field(default_factory=dict)
    calibrate_target: float = 0.25
    feedforward_gain: float = 1.0
    trials: int = 0
    seed: int = 12345
    output: str | None = None
    format: str | None = None
    graph_file: str | None = None
    remove_target: int | None = None
    shorten_inner: tuple | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.construction not in CONSTRUCTIONS:
            raise ConfigError(
                f"unknown construction {self.construction!r}; choose from {CONSTRUCTIONS}"
            )
        levels = {"squeezing_db": self.squeezing_db}
        levels.update((f"squeezing_db.{n}", db) for n, db in self.squeezing_overrides.items())
        for key, db in levels.items():
            if not (np.isfinite(db) and db >= 0):
                raise ConfigError(f"{key} must be finite and non-negative, got {db}")
        for key in ("calibrate_target", "feedforward_gain"):
            if not np.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.trials < 0:
            raise ConfigError("trials must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        try:
            LossModel(self.loss)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"loss: {exc}") from None
        if self.format not in (None, "json", "csv"):
            raise ConfigError("format must be json or csv")
        if self.scenario == "custom" and not self.graph_file:
            raise ConfigError("custom scenario needs graph_file")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Parse the key = value config format.

        Dotted keys address structure: squeezing_db.3 overrides node 3,
        loss.detection sets a stage, loss.propagation.2 one node of a
        stage.  Blank lines and # comments are ignored.
        """
        text = Path(path).read_text()
        values: dict = {}
        overrides: dict = {}
        loss: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (piece.strip() for piece in line.partition("="))
            if not sep or not key:
                raise ConfigError(f"config line {lineno}: expected key = value")
            try:
                if key.startswith("loss."):
                    parts = key.split(".")
                    if len(parts) == 2:
                        loss[parts[1]] = float(value)
                    elif len(parts) == 3:
                        loss.setdefault(parts[1], {})
                        if not isinstance(loss[parts[1]], dict):
                            raise ConfigError(
                                f"stage {parts[1]} mixes uniform and per-node entries"
                            )
                        loss[parts[1]][int(parts[2])] = float(value)
                    else:
                        raise ConfigError(f"malformed loss key {key!r}")
                elif key.startswith("squeezing_db."):
                    overrides[int(key.split(".", 1)[1])] = float(value)
                elif key == "squeezing_db":
                    values["squeezing_db"] = float(value)
                elif key in ("lossless",):
                    values[key] = value.lower() in ("1", "true", "yes", "on")
                elif key in ("trials", "seed"):
                    values[key] = int(value)
                elif key in ("calibrate_target", "feedforward_gain"):
                    values[key] = float(value)
                elif key == "remove_node":
                    values["remove_target"] = int(value)
                elif key == "shorten_inner":
                    a, b = (int(p) for p in value.replace(",", " ").split())
                    values["shorten_inner"] = (a, b)
                elif key in ("scenario", "construction", "output", "format", "graph_file"):
                    values[key] = value
                else:
                    raise ConfigError(f"unknown config key {key!r}")
            except (TypeError, ValueError) as exc:
                if isinstance(exc, ConfigError):
                    raise ConfigError(f"config line {lineno}: {exc}") from None
                raise ConfigError(f"config line {lineno}: bad value for {key!r}: {value!r}") from None
        return cls(squeezing_overrides=overrides, loss=loss, **values)

    def squeezing_map(self, nodes: Sequence[int]) -> dict:
        return {n: float(self.squeezing_overrides.get(n, self.squeezing_db)) for n in nodes}

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "construction": self.construction,
            "squeezing_db": self.squeezing_db,
            "lossless": self.lossless,
            "calibrate_target": self.calibrate_target,
            "feedforward_gain": self.feedforward_gain,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.squeezing_overrides:
            out["squeezing_overrides"] = {
                str(k): v for k, v in sorted(self.squeezing_overrides.items())
            }
        if self.graph_file:
            out["graph_file"] = str(self.graph_file)
        if self.remove_target is not None:
            out["remove_node"] = self.remove_target
        if self.shorten_inner is not None:
            out["shorten_inner"] = list(self.shorten_inner)
        return out


def calibrate_loss(target_initial_variance: float, lossless_variance: float | None = None) -> LossModel:
    """Solve the loss budget putting a two-term nullifier at a target level.

    One overall transmission eta is fixed by
    eta * v0 + (1 - eta) * 1/2 = target, where v0 is the lossless
    two-term level (default: 2 s at 5 dB, the -5 dB point relative to two
    vacuum units).  The budget is then split physically: detection is
    capped at DETECTOR_EFFICIENCY * HOMODYNE_VISIBILITY**2 and any
    remainder is assigned to propagation, so states keep the propagation
    share while detection loss acts only at readout.

    Args:
        target_initial_variance: wanted two-term nullifier variance.
        lossless_variance: override for the lossless reference level v0.

    Returns:
        LossModel with detection and, when needed, propagation stages;
        its composite efficiency per node is the solved eta.

    Raises:
        ConfigError: target outside [v0, 1/2).
    """
    v0 = 2.0 * squeezed_variance(5.0) if lossless_variance is None else float(lossless_variance)
    vacuum_level = 2.0 * VACUUM_VARIANCE
    if not v0 < vacuum_level:
        raise ConfigError("lossless reference level must sit below the vacuum level 1/2")
    eta = (vacuum_level - target_initial_variance) / (vacuum_level - v0)
    if eta > 1.0 + 1e-12:
        raise ConfigError(
            f"target {target_initial_variance} below the lossless level {v0:.6f}; no physical loss reaches it"
        )
    if eta <= 0.0:
        raise ConfigError(
            f"target {target_initial_variance} at or above the vacuum level {vacuum_level}; unreachable by loss"
        )
    eta = min(eta, 1.0)
    detection_cap = DETECTOR_EFFICIENCY * HOMODYNE_VISIBILITY**2
    if eta >= detection_cap:
        return LossModel({"detection": eta})
    return LossModel({"detection": detection_cap, "propagation": eta / detection_cap})


@dataclass(frozen=True)
class ExperimentReport:
    """Self-contained record of one scenario run."""

    config: ExperimentConfig
    loss_model: LossModel
    node_order: tuple
    initial_criteria: CriteriaReport
    transcript: tuple
    final_node_order: tuple
    final_criteria: CriteriaReport
    monte_carlo: object
    ring_route: dict | None
    wall_time_s: float

    def to_dict(self, include_timing: bool = False) -> dict:
        config = self.config.to_dict()
        config["loss"] = self.loss_model.to_dict()
        config["composite_efficiency"] = (
            self.loss_model.composite_efficiency(self.node_order[0]) if self.node_order else 1.0
        )
        out = {
            "schema_version": "1",
            "config": config,
            "node_order": list(self.node_order),
            "initial_criteria": self.initial_criteria.to_dict(),
            "transcript": [dict(entry) for entry in self.transcript],
            "final_node_order": list(self.final_node_order),
            "final_criteria": self.final_criteria.to_dict(),
            "residual_squeezing": self.final_criteria.to_dict()["residual_squeezing"],
        }
        if self.monte_carlo is not None:
            out["monte_carlo"] = {
                "trials": self.monte_carlo.trials,
                "seed": self.monte_carlo.seed,
                "forms": [
                    {
                        "form": f.label,
                        "analytic_var": f.analytic_var,
                        "sample_mean": f.sample_mean,
                        "sample_var": f.sample_var,
                        "stderr": f.stderr,
                    }
                    for f in self.monte_carlo.forms
                ],
            }
        else:
            out["monte_carlo"] = None
        out["ring_route"] = self.ring_route
        out["all_pass"] = self.final_criteria.all_pass
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out


def _degree(graph: ClusterGraph, node: int) -> int:
    return len(graph.neighbors(node))


def _resolve_graph(config: ExperimentConfig):
    if config.scenario != "custom":
        graph = ClusterGraph.linear_wire(4)
        return graph, config.squeezing_map(graph.nodes)
    try:
        graph, file_db = parse_graph_text(Path(config.graph_file).read_text())
    except ValueError as exc:
        raise ConfigError(f"{config.graph_file}: {exc}") from None
    # Precedence: config override, then a non-zero level from the file, then the default.
    db = {
        n: float(config.squeezing_overrides.get(n, file_db.get(n) or config.squeezing_db))
        for n in graph.nodes
    }
    return graph, db


def _construct(config: ExperimentConfig, graph: ClusterGraph, db: dict) -> GaussianState:
    if config.construction == "canonical":
        return build_canonical(graph, db)
    if config.construction == "compiled":
        try:
            return _compile(graph, db)[1]  # the state compile_network checked
        except np.linalg.LinAlgError as exc:  # precision lost at very high squeezing
            raise ConfigError(f"compiled construction failed: {exc}") from None
    wire = ClusterGraph.linear_wire(4)
    if graph.nodes != wire.nodes or graph.edges() != wire.edges():
        raise ConfigError("preset-wire construction is defined for the plain 4-node wire only")
    levels = set(db.values())
    if len(levels) != 1:
        raise ConfigError("preset-wire construction uses one uniform squeezing level")
    return preset_wire_network(levels.pop()).prepare()


def _scenario_steps(config: ExperimentConfig, graph: ClusterGraph):
    """Return (steps, new_edges, removed) for the configured scenario."""
    gain = -1.0 * config.feedforward_gain
    if config.scenario == "remove-edge":
        ends = [n for n in graph.nodes if _degree(graph, n) == 1]
        if not ends:
            raise ConfigError("remove-edge needs a degree-1 node")
        target = max(ends)
        return removal_steps(graph, target, gain=gain), (), (target,)
    if config.scenario == "remove-inner":
        inner = [n for n in graph.nodes if _degree(graph, n) == 2]
        if not inner:
            raise ConfigError("remove-inner needs a degree-2 node")
        target = max(inner)
        return removal_steps(graph, target, gain=gain), (), (target,)
    if config.scenario in ("shorten-wire", "ring-route-check"):
        pairs = [
            (i, j)
            for i, j, _ in graph.edges()
            if _degree(graph, i) == 2 and _degree(graph, j) == 2
        ]
        if not pairs:
            raise ConfigError("shortening needs two adjacent degree-2 nodes")
        a, b = min(pairs)
        steps, new_edge = shorten_steps(graph, a, b, gain=gain)
        return steps, (new_edge,), (a, b)
    # custom: the nodes come from the config, so a bad choice is a config error
    try:
        if config.remove_target is not None:
            return removal_steps(graph, config.remove_target, gain=gain), (), (config.remove_target,)
        if config.shorten_inner is not None:
            a, b = config.shorten_inner
            steps, new_edge = shorten_steps(graph, a, b, gain=gain)
            return steps, (new_edge,), (a, b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return [], (), ()


def _shaped_graph(graph: ClusterGraph, removed, new_edges) -> ClusterGraph:
    out = graph
    for node in removed:
        out = out.with_node_removed(node)
    for i, j, sign in new_edges:
        out = out.with_edge(i, j, sign)
    return out


def _verify(state: GaussianState, loss: LossModel, graph: ClusterGraph, order) -> CriteriaReport:
    """Criteria of the detected state; a nullifier variance cancelled to zero is an input error."""
    view = loss.apply_stage(state, "detection", order)
    try:
        return check_cluster_criteria(view, graph, order)
    except ValueError as exc:
        if min(quadrature_variance(view, f, order) for f in nullifiers_of(graph)) > 0:
            raise
        raise ConfigError(f"criteria check failed: {exc}; lower squeezing_db") from None


def _ring_route_section(config, graph, state_in, loss, steps, order):
    """Run the shortening both ways and report the covariance discrepancy."""
    gain = -1.0 * config.feedforward_gain
    direct, direct_order, _ = execute_ensemble(state_in, order, steps)

    n = len(order)
    rotated = state_in
    for node, theta in wire_to_ring_phases(graph):
        if theta:
            rotated = apply(rotated, phase_shift(n, list(order).index(node), theta))
    ring_steps = [
        MeasurementStep(node=2, angle=0.0, feedforward=(FeedforwardTarget(4, "p", gain),)),
        MeasurementStep(node=3, angle=0.0, feedforward=(FeedforwardTarget(1, "p", gain),)),
    ]
    ring_state, ring_order, _ = execute_ensemble(rotated, order, ring_steps)
    # The route leaves mode 1 still carrying its pi rotation; undo it so
    # both routes express the survivors in the same local frame.
    ring_state = apply(ring_state, phase_shift(len(ring_order), list(ring_order).index(1), np.pi))

    direct_view = loss.apply_stage(direct, "detection", direct_order)
    ring_view = loss.apply_stage(ring_state, "detection", ring_order)
    discrepancy = float(
        max(
            np.abs(direct_view.cov - ring_view.cov).max(),
            np.abs(direct_view.mean - ring_view.mean).max(),
        )
    )
    return {
        "node_order": list(direct_order),
        "direct_cov": direct_view.cov.tolist(),
        "ring_cov": ring_view.cov.tolist(),
        "discrepancy": discrepancy,
    }


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute one scenario end to end.

    Builds the configured cluster state, applies pre-measurement loss
    stages, verifies the initial criteria through the detection stage,
    executes the scenario's shaping in the outcome-averaged picture,
    verifies the final criteria the same way, and optionally samples
    Monte Carlo trajectories of the identical pipeline.
    """
    started = time.perf_counter()
    graph, db = _resolve_graph(config)
    order = graph.nodes
    state0 = _construct(config, graph, db)

    if config.lossless:
        loss = LossModel({})
    elif config.loss:
        loss = LossModel(config.loss)
    else:
        loss = calibrate_loss(config.calibrate_target)

    transcript = [
        {
            "op": "construct",
            "construction": config.construction,
            "nodes": list(order),
            "edges": [list(e) for e in graph.edges()],
        }
    ]
    state_in = state0
    for stage in _PRE_SHAPING_STAGES:
        if any(loss.efficiency(stage, n) < 1.0 for n in order):
            state_in = loss.apply_stage(state_in, stage, order)
            transcript.append(
                {
                    "op": "loss",
                    "stage": stage,
                    "efficiency": {str(n): loss.efficiency(stage, n) for n in order},
                }
            )

    initial_criteria = _verify(state_in, loss, graph, order)

    steps, new_edges, removed = _scenario_steps(config, graph)
    for step in steps:
        transcript.append(
            {
                "op": "measure",
                "node": step.node,
                "angle": float(step.angle),
                "feedforward": [
                    {"node": t.node, "quadrature": t.quadrature, "gain": t.gain}
                    for t in step.feedforward
                ],
            }
        )
    shaped_state, shaped_order, _ = execute_ensemble(state_in, order, steps)
    shaped_graph = _shaped_graph(graph, removed, new_edges)
    for i, j, sign in new_edges:
        transcript.append({"op": "new_edge", "nodes": [i, j], "sign": sign})

    tap_nodes = sorted({t.node for step in steps for t in step.feedforward})
    tap_eff = {n: loss.efficiency("feedforward_tap", n) for n in tap_nodes}
    if any(e < 1.0 for e in tap_eff.values()):
        eta = [tap_eff.get(node, 1.0) for node in shaped_order]
        shaped_state = GaussianState(*_mix_vacuum(shaped_state.mean, shaped_state.cov, eta))
        transcript.append(
            {
                "op": "loss",
                "stage": "feedforward_tap",
                "efficiency": {str(n): tap_eff[n] for n in tap_nodes if tap_eff[n] < 1.0},
            }
        )

    final_criteria = _verify(shaped_state, loss, shaped_graph, shaped_order)

    monte_carlo = None
    if config.trials > 0:
        readout = {
            n: loss.efficiency("detection", n) * (tap_eff.get(n, 1.0))
            for n in shaped_order
        }
        plan = TrajectoryPlan(
            state=state_in,
            node_order=order,
            steps=steps,
            record=nullifiers_of(shaped_graph),
            readout_efficiency=readout,
        )
        monte_carlo = run_trajectory(plan, config.trials, config.seed)

    ring_route = None
    if config.scenario == "ring-route-check":
        ring_route = _ring_route_section(config, graph, state_in, loss, steps, order)

    return ExperimentReport(
        config=config,
        loss_model=loss,
        node_order=order,
        initial_criteria=initial_criteria,
        transcript=tuple(transcript),
        final_node_order=shaped_order,
        final_criteria=final_criteria,
        monte_carlo=monte_carlo,
        ring_route=ring_route,
        wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _round_floats(value, digits: int = 6):
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, digits) for v in value]
    return value


def _csv_text(report: ExperimentReport) -> str:
    lines = ["stage,form,variance,bound,pass,db"]
    for stage, criteria in (("initial", report.initial_criteria), ("final", report.final_criteria)):
        for check in criteria.nullifiers:
            lines.append(
                ",".join(
                    [
                        stage,
                        check.form.describe().replace(" ", ""),
                        f"{check.variance:.6g}",
                        f"{check.bound:.6g}",
                        str(check.passed).lower(),
                        f"{check.db:.6g}",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def emit(
    report: ExperimentReport,
    path=None,
    fmt: str | None = None,
    include_timing: bool = False,
) -> str:
    """Serialize a report with stable ordering and 6-significant-digit floats.

    Identical runs serialize byte-identically; wall time is only included
    on request since it would break that.

    Args:
        report: report to serialize.
        path: output file; None returns the text without writing.
        fmt: "json" or "csv"; None infers from the path suffix (json default).
    """
    if fmt is None:
        fmt = report.config.format or ("csv" if str(path).endswith(".csv") else "json")
    if fmt == "json":
        text = json.dumps(_round_floats(report.to_dict(include_timing=include_timing)), indent=2)
        text += "\n"
    elif fmt == "csv":
        text = _csv_text(report)
    else:
        raise ConfigError("format must be json or csv")
    if path is not None:
        Path(path).write_text(text)
    return text


_CHECK_SCHEMA = {
    "type": "object",
    "required": ["node", "form", "variance", "bound", "pass", "db"],
    "properties": {
        "node": {"type": "integer"},
        "form": {"type": "string"},
        "variance": {"type": "number"},
        "bound": {"type": "number"},
        "pass": {"type": "boolean"},
        "db": {"type": "number"},
    },
}

_CRITERIA_SCHEMA = {
    "type": "object",
    "required": ["nullifiers", "pairwise", "residual_squeezing", "all_pass"],
    "properties": {
        "nullifiers": {"type": "array", "items": _CHECK_SCHEMA},
        "pairwise": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pair", "sum_variance", "bound", "pass"],
                "properties": {
                    "pair": {"type": "array", "items": {"type": "integer"}},
                    "sum_variance": {"type": "number"},
                    "bound": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
        "residual_squeezing": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["node", "squeezed_db", "antisqueezed_db", "angle"],
            },
        },
        "all_pass": {"type": "boolean"},
    },
}

#: JSON report schema, version 1.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version",
        "config",
        "node_order",
        "initial_criteria",
        "transcript",
        "final_node_order",
        "final_criteria",
        "residual_squeezing",
        "monte_carlo",
        "ring_route",
        "all_pass",
    ],
    "properties": {
        "schema_version": {"const": "1"},
        "config": {"type": "object"},
        "node_order": {"type": "array", "items": {"type": "integer"}},
        "initial_criteria": _CRITERIA_SCHEMA,
        "transcript": {"type": "array", "items": {"type": "object"}},
        "final_node_order": {"type": "array", "items": {"type": "integer"}},
        "final_criteria": _CRITERIA_SCHEMA,
        "residual_squeezing": {"type": "array"},
        "monte_carlo": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["trials", "seed", "forms"],
                    "properties": {
                        "trials": {"type": "integer"},
                        "seed": {"type": "integer"},
                        "forms": {"type": "array"},
                    },
                },
            ]
        },
        "ring_route": {"anyOf": [{"type": "null"}, {"type": "object"}]},
        "all_pass": {"type": "boolean"},
        "wall_time_s": {"type": "number"},
    },
}
