"""Scenario runner: configuration, loss calibration, reports, and emission.

A scenario builds a cluster state, applies a staged loss budget, runs one
shaping operation, and verifies the result.  Loss stages are applied
where they act physically: source and propagation before any
measurement, the feedforward tap right after shaping on displaced modes,
and detection only at verification readout, so the verified numbers and
the Monte Carlo readout statistics describe the same experiment.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .criteria import NULLIFIER_BOUND, PAIRWISE_BOUND, CriteriaReport, check_cluster_criteria
from .gaussian import GaussianState, LossModel, VACUUM_VARIANCE, _integer, _real, _shown, squeezed_variance
from .graphs import (
    ClusterGraph,
    build_canonical,
    compile_network,
    nullifiers_of,
    parse_graph_text,
    preset_wire_network,
    wire_to_ring_phases,
)
from .shaping import (
    ShapingResult,
    TrajectoryPlan,
    remove_node,
    run_trajectory,
    shorten_wire,
)

__all__ = [
    "DETECTOR_EFFICIENCY",
    "HOMODYNE_VISIBILITY",
    "SCENARIOS",
    "CONSTRUCTIONS",
    "FORMATS",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "calibrate_loss",
    "run",
    "emit",
]

#: Photodiode quantum efficiency of the detection stage.
DETECTOR_EFFICIENCY = 0.99

#: Homodyne fringe visibility; detection transmission scales with its square.
HOMODYNE_VISIBILITY = 0.96

SCENARIOS = ("remove-edge", "remove-inner", "shorten-wire", "ring-route-check", "custom")
CONSTRUCTIONS = ("canonical", "compiled", "preset-wire")
FORMATS = ("json", "csv")

_PRE_SHAPING_STAGES = ("source", "propagation")

#: Every loss stage a run applies; the feedforward tap acts after shaping, detection at readout.
_LOSS_STAGES = (*_PRE_SHAPING_STAGES, "feedforward_tap", "detection")

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True}
_BOOLEANS |= {"0": False, "false": False, "no": False, "off": False}

#: Format spec of every float in a report: 6 significant digits.
_REPORT_FLOAT = ".6g"

#: JSON spellings of the non-finite floats, keyed by their repr.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: The kind and hint of each numeric failure's error line, by the exception class run turns into it.
_NUMERIC_FAILURES = {
    np.linalg.LinAlgError: ("precision lost", "; lower squeezing_db"),
    ArithmeticError: ("numbers out of floating-point range", "; lower squeezing_db or feedforward_gain"),
    MemoryError: ("out of memory", ""),
}


class ConfigError(ValueError):
    """Invalid configuration or scenario precondition."""


_level = partial(_real, low=0.0)


def _one_of(options: tuple, key: str, value) -> str:
    if value not in options:
        raise ConfigError(f"unknown {key} {_shown(value)}; choose from {options}")
    return options[options.index(value)]


def _bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {_shown(value)}")
    return value


def _path(key: str, value) -> str:
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{key} must be a path, got {_shown(value)}")
    return str(os.fspath(value))


def _pair(key: str, value) -> tuple:
    try:
        a, b = value
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise ConfigError(f"{key} must be a pair of node ids, got {_shown(value)}") from None
    return _integer(key, a), _integer(key, b)


def _node_map(name: str, key: str, value, entry) -> dict:
    """node -> entry(f"{key}{node}", value) for a mapping named name; a bool or a float is no node."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a mapping, got {_shown(value)}")
    return {_integer(f"{name} node", n): entry(f"{key}{n}", v) for n, v in value.items()}


def _losses(key: str, value) -> dict:
    """Stage -> transmission, or -> node -> transmission; LossModel checks each transmission's range."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"loss must be a mapping, got {_shown(value)}")
    stages = {_one_of(_LOSS_STAGES, "loss stage", stage): entry for stage, entry in value.items()}
    return {
        stage: _node_map(f"{key}{stage}", f"{key}{stage}.", entry, _real)
        if isinstance(entry, Mapping) else _real(f"{key}{stage}", entry)
        for stage, entry in stages.items()
    }


def _parse_loss(loss: dict, tail: str, text: str):
    """Add one loss.<stage> or loss.<stage>.<node> entry; a stage takes one of the two forms."""
    stage, per_node, node = tail.partition(".")
    if "." in node:
        raise ConfigError(f"malformed loss key {'loss.' + tail!r}")
    if stage in loss and isinstance(loss[stage], dict) != bool(per_node):
        raise ConfigError(f"stage {stage} mixes uniform and per-node entries")
    if per_node:
        loss.setdefault(stage, {})[int(node)] = float(text)
    else:
        loss[stage] = float(text)


def _field(default, parse, coerce, echo=lambda value: value, key=None):
    """A config field: its parser of file text, its coercer of any Python value to the Python scalar that text
    gives (or a ValueError naming the key), its report echo (None: not echoed), and its file key if not its name;
    a map's file key ends in the dot its entries' keys continue from, and its parser adds one entry."""
    metadata = {"key": key, "parse": parse, "coerce": coerce, "echo": echo}
    if default is dict:
        return field(default_factory=dict, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scenario run depends on.

    Each field is declared once, with its kind; any value is stored as
    the Python scalar its file spelling gives (README, value kinds), or
    raises ConfigError.

    Attributes:
        scenario: one of SCENARIOS.
        construction: one of CONSTRUCTIONS.
        squeezing_db: level of every node the graph file and the overrides leave unset.
        lossless: disable all loss stages.
        calibrate_target: initial two-term nullifier variance the default
            calibrated loss model is solved for.
        feedforward_gain: multiplier on the ideal feedforward gains;
            1 is ideal, 0 disables feedforward.
        trials: Monte Carlo trajectories, at most 2**53; 0 means analytic only.
        seed: Monte Carlo seed.
        squeezing_overrides: node -> dB levels, ahead of the graph file's.
        loss: explicit stage -> transmission map; overrides calibration.
        output: report path, None for stdout.
        format: "json" or "csv"; None infers from output suffix.
        graph_file: graph text file for the custom scenario.
        remove_target: node removed by the custom scenario.
        shorten_inner: inner pair shortened by the custom scenario; a
            custom run sets exactly one of remove_target and shorten_inner.
    """

    scenario: str = _field("remove-edge", str, partial(_one_of, SCENARIOS))
    construction: str = _field("canonical", str, partial(_one_of, CONSTRUCTIONS))
    squeezing_db: float = _field(5.0, float, _level)
    lossless: bool = _field(False, lambda text: _BOOLEANS[text.lower()], _bool)
    calibrate_target: float = _field(0.25, float, _real)
    feedforward_gain: float = _field(1.0, float, _real)
    trials: int = _field(0, int, _integer)
    seed: int = _field(12345, int, _integer)
    squeezing_overrides: dict = _field(
        dict,
        lambda levels, node, text: levels.update({int(node): float(text)}),
        lambda key, value: _node_map("squeezing_overrides", key, value, _level),
        lambda levels: {str(n): db for n, db in sorted(levels.items())} or None,
        key="squeezing_db.",
    )
    loss: dict = _field(dict, _parse_loss, _losses, None, key="loss.")
    output: str | None = _field(None, str, _path, None)
    format: str | None = _field(None, str, partial(_one_of, FORMATS), None)
    graph_file: str | None = _field(None, str, _path)
    remove_target: int | None = _field(None, int, _integer, key="remove_node")
    shorten_inner: tuple | None = _field(
        None, lambda text: tuple(map(int, text.replace(",", " ").split())), _pair, lambda pair: pair and list(pair)
    )

    def __post_init__(self):
        try:
            for key, spec in _FIELDS.items():
                value = getattr(self, spec.name)
                if value is not None or spec.default is not None:  # an optional field may stay None
                    object.__setattr__(self, spec.name, spec.metadata["coerce"](key, value))
        except ValueError as exc:  # the value checks shared with the library raise plain ValueError
            raise ConfigError(str(exc)) from None
        if not 0 <= self.trials <= 2**53:  # up to 2**53, T - 1 is exact as a float
            raise ConfigError("trials must lie between 0 and 2**53 = 9007199254740992")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        try:
            LossModel(self.loss)
        except ValueError as exc:
            raise ConfigError(f"loss: {exc}") from None
        if self.scenario == "custom" and not self.graph_file:
            raise ConfigError("custom scenario needs graph_file")
        if self.scenario == "custom" and (self.remove_target, self.shorten_inner) == (None, None):
            raise ConfigError("custom scenario needs remove_node or shorten_inner")
        if self.remove_target is not None and self.shorten_inner is not None:
            raise ConfigError("remove_node and shorten_inner cannot be combined")
        if self.scenario != "custom" and (self.remove_target, self.shorten_inner, self.graph_file) != (None,) * 3:
            raise ConfigError("remove_node, shorten_inner and graph_file need scenario = custom")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Parse the key = value config format.

        Each key is a field's file key, or a map's key plus an entry:
        squeezing_db.3 overrides node 3, loss.detection sets a stage,
        loss.propagation.2 one node of a stage.  Blank lines and #
        comments are ignored.
        """
        values: dict = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (piece.strip() for piece in line.partition("="))
            if not sep or not key:
                raise ConfigError(f"config line {lineno}: expected key = value")
            head, dot, entry = key.partition(".")
            spec = _FIELDS.get(head + dot)
            try:
                if spec is None:
                    raise ConfigError(f"unknown config key {key!r}")
                if dot:
                    spec.metadata["parse"](values.setdefault(spec.name, {}), entry, value)
                else:
                    values[spec.name] = spec.metadata["parse"](value)
            except (KeyError, TypeError, ValueError) as exc:
                detail = exc if isinstance(exc, ConfigError) else f"bad value for {key!r}: {value!r}"
                raise ConfigError(f"config line {lineno}: {detail}") from None
        return cls(**values)

    def to_dict(self) -> dict:
        """The echoed fields in declaration order, each under its file key; a map under its field name."""
        return {
            spec.name if key.endswith(".") else key: echo
            for key, spec in _FIELDS.items()
            if spec.metadata["echo"] and (echo := spec.metadata["echo"](getattr(self, spec.name))) is not None
        }


#: The config's field table, keyed by file key in declaration order.
_FIELDS = {spec.metadata["key"] or spec.name: spec for spec in fields(ExperimentConfig)}


def calibrate_loss(target_initial_variance: float) -> LossModel:
    """Solve the loss budget putting a two-term nullifier at a target level.

    One overall transmission eta is fixed by
    eta * v0 + (1 - eta) * 1/2 = target, where v0 is the lossless
    two-term level 2 s at 5 dB, the -5 dB point relative to two vacuum
    units.  The budget is then split physically: detection is
    capped at DETECTOR_EFFICIENCY * HOMODYNE_VISIBILITY**2 and any
    remainder is assigned to propagation, so states keep the propagation
    share while detection loss acts only at readout.

    Args:
        target_initial_variance: wanted two-term nullifier variance.

    Returns:
        LossModel with detection and, when needed, propagation stages;
        its composite efficiency per node is the solved eta.

    Raises:
        ConfigError: target outside [v0, 1/2).
    """
    v0 = 2.0 * squeezed_variance(5.0)
    vacuum_level = 2.0 * VACUUM_VARIANCE
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


def _resolve_graph(config: ExperimentConfig):
    if config.scenario != "custom":
        graph, file_db = ClusterGraph.linear_wire(4), {}
    else:
        try:
            graph, file_db = parse_graph_text(Path(config.graph_file).read_text())
        except ValueError as exc:
            raise ConfigError(f"{config.graph_file}: {exc}") from None
        if not graph.nodes:
            raise ConfigError(f"{config.graph_file}: graph has no nodes")
    file_key = {spec.name: key for key, spec in _FIELDS.items()}
    per_node = [(f"{file_key['squeezing_overrides']}{n}", n) for n in sorted(config.squeezing_overrides)]
    per_node += [(f"{file_key['loss']}{s}.{n}", n) for s, e in config.loss.items() if isinstance(e, dict) for n in e]
    for key, node in per_node:
        if node not in graph.nodes:
            raise ConfigError(f"{key}: node {node} is not in the graph")
    # Precedence: config override, then the file's level (0 included), then squeezing_db.
    return graph, {n: config.squeezing_overrides.get(n, file_db.get(n, config.squeezing_db)) for n in graph.nodes}


def _construct(config: ExperimentConfig, graph: ClusterGraph, db: dict) -> GaussianState:
    if config.construction == "canonical":
        return build_canonical(graph, db)
    if config.construction == "compiled":
        return compile_network(graph, db)[1]  # the state it checked
    wire = ClusterGraph.linear_wire(4)
    if graph.nodes != wire.nodes or graph.edges() != wire.edges():
        raise ConfigError("preset-wire construction is defined for the plain 4-node wire only")
    levels = set(db.values())
    if len(levels) != 1:
        raise ConfigError("preset-wire construction uses one uniform squeezing level")
    return preset_wire_network(levels.pop()).prepare()


#: Each stock scenario's (remove_node, shorten_inner) on the four-node wire 1-2-3-4.
_SCENARIO_OPERATIONS = {
    "remove-edge": (4, None),
    "remove-inner": (3, None),
    "shorten-wire": (None, (2, 3)),
    "ring-route-check": (None, (2, 3)),
}


def _shape_scenario(config: ExperimentConfig, state: GaussianState, graph: ClusterGraph) -> ShapingResult:
    """Outcome-averaged shaping of the configured scenario; a bad choice of nodes is a config error."""
    gain = -1.0 * config.feedforward_gain
    remove, inner = _SCENARIO_OPERATIONS.get(config.scenario, (config.remove_target, config.shorten_inner))
    if graph.nodes == (remove,):
        raise ConfigError(f"remove_node = {remove}: no node would remain")
    try:
        if remove is not None:
            return remove_node(state, graph, remove, gain=gain)
        return shorten_wire(state, graph, inner, gain=gain)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _quarter_turns(state: GaussianState, turns) -> GaussianState:
    """Turn each (node, k) of turns by k quarter turns, the phase shift by k pi/2, as exact signed swaps.

    One turn maps x to -p and p to x, on the gathered copy in place; the + 0.0 keeps a -0.0 from printing.
    """
    order, n = state.nodes, state.n_modes
    index, sign = np.arange(2 * n), np.ones(2 * n)
    for node, k in turns:
        x, p = order.index(node), n + order.index(node)
        for _ in range(k % 4):
            index[[x, p]], sign[[x, p]] = index[[p, x]], sign[[p, x]] * (-1.0, 1.0)
    cov = state.cov[np.ix_(index, index)]
    cov *= sign
    cov *= sign[:, None]
    cov += 0.0
    return GaussianState._adopt(state.mean[index] * sign + 0.0, cov, order)


def _ring_route_section(config, graph, state_in, loss, direct):
    """Shorten the wire the ring way and report its discrepancy from the direct route.

    Quarter turns make the wire the four-cycle 1-3-2-4, and removing its
    nodes 2 and 3 bonds nodes 1 and 4 as the direct shortening does.
    """
    gain = -1.0 * config.feedforward_gain
    turns = [(node, round(theta / (np.pi / 2))) for node, theta in wire_to_ring_phases(graph)]
    ring = remove_node(_quarter_turns(state_in, turns), ClusterGraph.ring((1, 3, 2, 4)), 2, gain=gain)
    ring = remove_node(ring.state, ring.graph, 3, gain=gain)
    # The route leaves mode 1 still carrying its pi rotation; undo it so
    # both routes express the survivors in the same local frame.
    ring_view = loss.apply_stage(_quarter_turns(ring.state, [(1, 2)]), "detection")
    direct_view = loss.apply_stage(direct, "detection")
    gaps = np.abs(direct_view.cov - ring_view.cov).max(), np.abs(direct_view.mean - ring_view.mean).max()
    return {
        "node_order": list(direct.nodes),
        "direct_cov": direct_view.cov.tolist(),
        "ring_cov": ring_view.cov.tolist(),
        "discrepancy": float(max(gaps)),
    }


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute one scenario end to end.

    Builds the configured cluster state, applies pre-measurement loss
    stages, verifies the initial criteria through the detection stage,
    executes the scenario's shaping in the outcome-averaged picture,
    verifies the final criteria the same way, and optionally samples
    Monte Carlo trajectories of the identical pipeline.

    This is the one place a numeric failure becomes an input error.
    Lost precision (LinAlgError), an overflow, division by zero or
    invalid value (ArithmeticError, so no report carries a non-finite
    number) and running out of memory raise ConfigError
    "<stage>: <kind>: <detail>[; <hint>]", naming the stage of _run that
    failed.  Any other exception passes through unchanged.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for stage in _run(config):  # each stage's name as it starts, then the report
                pass
    except (np.linalg.LinAlgError, ArithmeticError, MemoryError) as exc:
        kind, hint = next(text for failure, text in _NUMERIC_FAILURES.items() if isinstance(exc, failure))
        raise ConfigError(f"{stage}: {kind}: {exc}{hint}") from None
    return stage


def _run(config: ExperimentConfig):
    """The run as a generator: it yields each stage's name before the stage's work, then the report."""
    yield "construct"
    started = time.perf_counter()
    graph, db = _resolve_graph(config)
    order = graph.nodes
    state_in = _construct(config, graph, db)

    if config.lossless:
        loss = LossModel({})
    elif config.loss:
        loss = LossModel(config.loss)
    else:
        loss = calibrate_loss(config.calibrate_target)

    edges = [list(e) for e in graph.edges()]
    transcript = [{"op": "construct", "construction": config.construction, "nodes": list(order), "edges": edges}]
    for stage in _PRE_SHAPING_STAGES:
        yield f"loss.{stage}"
        efficiency = {str(n): loss.efficiency(stage, n) for n in order}
        if min(efficiency.values(), default=1.0) < 1.0:
            state_in = loss.apply_stage(state_in, stage)
            transcript.append({"op": "loss", "stage": stage, "efficiency": efficiency})

    yield "criteria.initial"
    initial_criteria = check_cluster_criteria(state_in, nullifiers_of(graph), loss)

    yield "shape"
    shaped = _shape_scenario(config, state_in, graph)
    steps, shaped_graph, shaped_order = shaped.steps, shaped.graph, shaped.graph.nodes
    for step in steps:
        targets = [{"node": t.node, "quadrature": t.quadrature, "gain": t.gain} for t in step.feedforward]
        transcript.append({"op": "measure", "node": step.node, "angle": step.angle, "feedforward": targets})
    for i, j, sign in shaped.new_edges:
        transcript.append({"op": "new_edge", "nodes": [i, j], "sign": sign})
    # Each state is dropped after its last reader, so a run holds about two covariances.
    ring = config.scenario == "ring-route-check"
    state, direct = shaped.state, (shaped.state if ring else None)
    del shaped
    state_in = state_in if ring or config.trials > 0 else None

    yield "loss.feedforward_tap"
    # The tap acts on displaced nodes only: a tap-only model over those it attenuates.
    displaced, stage = {t.node for step in steps for t in step.feedforward}, "feedforward_tap"
    tap = LossModel({stage: {n: e for n in displaced if (e := loss.efficiency(stage, n)) < 1.0}})
    if taps := tap.stages[stage]:
        state = tap.apply_stage(state, stage)
        transcript.append({"op": "loss", "stage": stage, "efficiency": tap.to_dict()[stage]})

    yield "criteria.final"
    final_criteria = check_cluster_criteria(state, nullifiers_of(shaped_graph), loss)
    del state

    yield "monte_carlo"
    monte_carlo = None
    if config.trials > 0:
        readout = {n: loss.efficiency("detection", n) * taps.get(n, 1.0) for n in shaped_order}
        plan = TrajectoryPlan(state_in, steps, record=final_criteria.table, readout_efficiency=readout)
        monte_carlo = run_trajectory(plan, config.trials, config.seed)

    yield "ring_route"
    ring_route = _ring_route_section(config, graph, state_in, loss, direct) if ring else None

    yield ExperimentReport(
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


def _float_text(value: float) -> str:
    """Shortest round-trip text of the value rounded to 6 significant digits."""
    text = format(value, _REPORT_FLOAT)
    if "e" in text or "n" in text:  # an exponent, nan or inf: repr may spell it otherwise
        return _NON_FINITE.get(text) or float.__repr__(float(text))
    return text if "." in text else text + ".0"


#: JSON text of each scalar, looked up by exact type: C-level callables but for floats.
_SCALAR_TEXT = {type(None): {None: "null"}.__getitem__, bool: {True: "true", False: "false"}.__getitem__}
_SCALAR_TEXT |= {int: int.__repr__, float: _float_text, str: encode_basestring_ascii}


def _json_tokens(value, out: list, pad: str) -> list:
    """Append the JSON text of `value` to `out`, then return `out`; `pad` is newline plus indent.

    A scalar child goes out with its separator in one append, without a recursive call.
    """
    inner, comma = pad + "  ", "," + pad + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in value.items():
            to_text = _SCALAR_TEXT.get(type(item))
            if to_text is None:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _json_tokens(item, out, inner)
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}: {to_text(item)}")
            sep = comma
        out.append(pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        sep = "[" + inner
        for item in value:
            to_text = _SCALAR_TEXT.get(type(item))
            if to_text is None:
                out.append(sep)
                _json_tokens(item, out, inner)
            else:
                out.append(sep + to_text(item))
            sep = comma
        out.append(pad + "]" if value else "[]")
    else:  # a scalar subclass, such as np.float64, takes its base's text
        kind = next((kind for kind in type(value).__mro__ if kind in _SCALAR_TEXT), None)
        if kind is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        out.append(_SCALAR_TEXT[kind](value))
    return out


def _array_text(items: list, pad: str) -> str:
    """JSON list of already written items, one per line below `pad`."""
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]" if items else "[]"


def _residuals_text(residuals, pad: str) -> str:
    """A criteria report's residual rows as a JSON list at indent `pad`: in its section, or the top-level copy."""
    f, r = pad + "    ", pad + "  "  # a row's fields, and its braces
    return _array_text([
        f'{{{f}"node": {node},{f}"squeezed_db": {_float_text(low)},{f}"antisqueezed_db": {_float_text(high)},'
        f'{f}"angle": {_float_text(angle)}{r}}}'
        for node, low, high, angle in residuals
    ], pad)


def _criteria_text(criteria: CriteriaReport, pad: str) -> str:
    """A criteria report as its JSON section: one f-string per row, straight from the columns."""
    table, inner = criteria.table, pad + "  "
    f, r = inner + "    ", inner + "  "  # a row's fields, and its braces
    bound, pair_bound = _float_text(NULLIFIER_BOUND), _float_text(PAIRWISE_BOUND)
    nullifiers = [
        f'{{{f}"node": {node},{f}"form": {encode_basestring_ascii(form)},{f}"variance": {_float_text(v)},'
        f'{f}"bound": {bound},{f}"pass": {"true" if v < NULLIFIER_BOUND else "false"},{f}"db": {_float_text(db)}{r}}}'
        for node, form, v, db in zip(table.labels, table.texts, criteria.variances, criteria.db)
    ]
    pairs = [
        f'{{{f}"pair": [{f}  {i},{f}  {j}{f}],{f}"sum_variance": {_float_text(s)},{f}"bound": {pair_bound},'
        f'{f}"pass": {"true" if s < PAIRWISE_BOUND else "false"}{r}}}'
        for (i, j, _), s in zip(table.edges, criteria.sums)
    ]
    return (
        f'{{{inner}"nullifiers": {_array_text(nullifiers, inner)},{inner}"pairwise": {_array_text(pairs, inner)},'
        f'{inner}"residual_squeezing": {_residuals_text(criteria.residuals, inner)},'
        f'{inner}"all_pass": {"true" if criteria.all_pass else "false"}{pad}}}'
    )


def _report_json(report: ExperimentReport, include_timing: bool) -> str:
    """The report as JSON text in report order; criteria and Monte Carlo rows are written from their columns."""
    pad, final, mc, loss = "\n  ", report.final_criteria, report.monte_carlo, report.loss_model
    fields = {
        "schema_version": "1",
        "config": report.config.to_dict() | {
            "loss": loss.to_dict(),
            "composite_efficiency": loss.composite_efficiency(report.node_order[0]) if report.node_order else 1.0,
        },
        "node_order": report.node_order,
        "initial_criteria": None,  # this and the other None sections are written from their columns below
        "transcript": report.transcript,
        "final_node_order": report.final_node_order,
        "final_criteria": None,
        "residual_squeezing": None,
        "monte_carlo": None,
        "ring_route": report.ring_route,
        "all_pass": final.all_pass,
    }
    if include_timing:
        fields["wall_time_s"] = report.wall_time_s
    texts = {key: "".join(_json_tokens(value, [], pad)) for key, value in fields.items()}
    texts["initial_criteria"] = _criteria_text(report.initial_criteria, pad)
    texts["final_criteria"] = _criteria_text(final, pad)
    texts["residual_squeezing"] = _residuals_text(final.residuals, pad)
    if mc is not None:
        inner = pad + "  "
        f, r = inner + "    ", inner + "  "
        forms = [
            f'{{{f}"form": {encode_basestring_ascii(form)},{f}"analytic_var": {_float_text(a)},{f}"sample_mean": '
            f'{_float_text(m)},{f}"sample_var": {"null" if v is None else _float_text(v)},'
            f'{f}"stderr": {"null" if e is None else _float_text(e)}{r}}}'
            for form, a, m, v, e in zip(mc.labels, mc.analytic_var, mc.sample_mean, mc.sample_var, mc.stderr)
        ]
        texts["monte_carlo"] = (
            f'{{{inner}"trials": {mc.trials},{inner}"seed": {mc.seed},'
            f'{inner}"forms": {_array_text(forms, inner)}{pad}}}'
        )
    parts = ["{"]
    for key, text in texts.items():  # one join, so no section is copied twice
        parts += (pad, f'"{key}": ', text, ",")
    parts[-1] = "\n}\n"
    return "".join(parts)


def _csv_text(report: ExperimentReport) -> str:
    lines, bound = ["stage,form,variance,bound,pass,db"], format(NULLIFIER_BOUND, _REPORT_FLOAT)
    for stage, criteria in (("initial", report.initial_criteria), ("final", report.final_criteria)):
        for form, v, db in zip(criteria.table.texts, criteria.variances, criteria.db):
            passed = "true" if v < NULLIFIER_BOUND else "false"
            lines.append(f"{stage},{form.replace(' ', '')},{v:{_REPORT_FLOAT}},{bound},{passed},{db:{_REPORT_FLOAT}}")
    return "\n".join(lines) + "\n"


def emit(report: ExperimentReport, include_timing: bool = False) -> str:
    """Serialize a report with stable ordering and 6-significant-digit floats, writing it to config.output if set.

    Identical runs serialize byte-identically; wall time is only included
    on request since it would break that.  The format is config.format,
    else CSV for an output ending in .csv in any case, else JSON.  JSON
    text is ``json.dumps(json.loads(text), indent=2)`` with ASCII escaping
    plus a final newline; each float is rounded to 6 significant digits,
    then printed shortest round-trip, and every dict key must be a ``str``.
    """
    config = report.config
    if (config.format or ("csv" if str(config.output).lower().endswith(".csv") else "json")) == "json":
        text = _report_json(report, include_timing)
    else:
        text = _csv_text(report)
    if config.output is not None:
        Path(config.output).write_text(text)
    return text
