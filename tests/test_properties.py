"""Property tests: the execution semantics agree on random lossy graph states.

Conditional execution forces outcomes; ensemble execution averages them
out analytically.  One measure-and-displace step maps the mean linearly,
mean(y) = mean(0) + b y, so the ensemble must equal the conditional state
plus the spread var * b b^T of the conditional means, with its mean at
the marginal mean of the measured quadrature.  Trajectory execution maps
each trial's noises z to its readout m + W z; with unit-variance noise the
readout ensemble is (m, W W^T), which must equal a second, outcome-averaged
pass through the ensemble semantics.

Every entry point that takes a node id, a count or a real checks it
through one function per kind: any value runs as the plain Python int or
float it equals, or raises one ValueError that shows it.
"""

import dataclasses
import re
from collections.abc import Hashable

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cvshape import (
    ClusterGraph,
    ExperimentConfig,
    FeedforwardTarget,
    GaussianState,
    LossModel,
    MeasurementStep,
    NetworkPlan,
    TrajectoryPlan,
    apply_loss,
    build_canonical,
    check_cluster_criteria,
    compile_network,
    nullifiers_of,
    remove_node,
    removal_steps,
    run_trajectory,
    shorten_steps,
    squeezed_variance,
    vacuum,
)
from cvshape.gaussian import _shown, quadrature_selector
from cvshape.shaping import _readout_map, execute_conditional, execute_ensemble
from helpers import CONFIG_VALUES, ensemble_readout_reference, nullifier_rows, plain_twin, random_signed_graph

SIGNS = st.sampled_from((-1, 1))
GAINS = st.floats(-2.0, 2.0)
OUTCOMES = st.floats(-3.0, 3.0)
NO_FORMS = nullifiers_of(ClusterGraph(()))  # a record of no forms


@st.composite
def signed_graphs(draw):
    """Connected graph of 2-8 nodes: a random spanning tree plus extra edges."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(1, k - 1)), k): draw(SIGNS) for k in range(2, n + 1)}
    for i, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n)):
        if i != j and (min(i, j), max(i, j)) not in edges:
            edges[(min(i, j), max(i, j))] = draw(SIGNS)
    return ClusterGraph.from_edges(
        [(i, j, sign) for (i, j), sign in edges.items()], nodes=list(range(1, n + 1))
    )


@st.composite
def signed_wires(draw):
    n = draw(st.integers(4, 8))
    return ClusterGraph.from_edges([(k, k + 1, draw(SIGNS)) for k in range(1, n)])


@st.composite
def lossy_states(draw, graph):
    """Canonical state with random squeezing, per-node loss and displacement."""
    n = graph.n_nodes
    db = draw(st.lists(st.floats(0.0, 15.0), min_size=n, max_size=n))
    eta = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    shift = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n))
    state = build_canonical(graph, dict(zip(graph.nodes, db)))
    state = LossModel({"loss": dict(zip(graph.nodes, eta))}).apply_stage(state, "loss")
    return GaussianState(state.mean + np.array(shift), state.cov, state.nodes)


@st.composite
def feedforward_steps(draw, nodes):
    """A measurement of one node at any angle, driving 1-3 targets on the rest.

    Targets pick their survivor, quadrature and gain freely, so a survivor
    may be displaced more than once.
    """
    node = draw(st.sampled_from(nodes))
    survivors = [n for n in nodes if n != node]
    targets = draw(
        st.lists(
            st.builds(FeedforwardTarget, st.sampled_from(survivors), st.sampled_from("xp"), GAINS),
            min_size=1,
            max_size=3,
        )
    )
    angle = draw(st.floats(0.0, np.pi, exclude_max=True))
    return MeasurementStep(node=node, angle=angle, feedforward=tuple(targets))


@settings(max_examples=25, deadline=None)
@given(graph=signed_graphs(), data=st.data())
def test_arbitrary_feedforward_semantics_agree(graph, data):
    state = data.draw(lossy_states(graph))
    step = data.draw(feedforward_steps(graph.nodes))

    ensemble, (record,) = execute_ensemble(state, [step])
    at_0, _ = execute_conditional(state, [step], values=[0.0])
    at_1, _ = execute_conditional(state, [step], values=[1.0])
    at_mean, _ = execute_conditional(state, [step], values=[record.marginal_mean])
    b = at_1.mean - at_0.mean
    tol = 1e-10 * max(1.0, np.abs(ensemble.cov).max())
    order = ensemble.nodes
    assert order == at_0.nodes
    np.testing.assert_allclose(
        ensemble.cov, at_0.cov + record.marginal_var * np.outer(b, b), rtol=0, atol=tol
    )
    np.testing.assert_allclose(ensemble.mean, at_mean.mean, rtol=0, atol=tol)
    # b built target by target: the conditioning gain V u / var plus the feedforward column
    mode, n = graph.nodes.index(step.node), graph.n_nodes
    vu = np.delete(state.cov @ quadrature_selector(n, mode, step.angle), [mode, n + mode])
    column = np.zeros_like(vu)
    for target in step.feedforward:
        column[order.index(target.node) + (len(order) if target.quadrature == "p" else 0)] += target.gain
    np.testing.assert_allclose(b, vu / record.marginal_var + column, rtol=0, atol=tol)

    plan = TrajectoryPlan(state, [step], record=NO_FORMS)
    mean, loading, final_order = _readout_map(plan)
    target, _ = ensemble_readout_reference(plan)
    assert final_order == target.nodes == order
    np.testing.assert_allclose(
        mean, target.mean, rtol=0, atol=1e-12 * max(1.0, np.abs(target.mean).max())
    )
    np.testing.assert_allclose(
        loading @ loading.T, target.cov, rtol=0, atol=1e-12 * np.abs(target.cov).max()
    )


@settings(max_examples=25, deadline=None)
@given(graph=signed_graphs(), gain=GAINS, data=st.data())
def test_removal_ensemble_is_conditional_plus_outcome_spread(graph, gain, data):
    state = data.draw(lossy_states(graph))
    node = data.draw(st.sampled_from(graph.nodes))
    steps = removal_steps(graph, node, gain=gain)

    ensemble, (record,) = execute_ensemble(state, steps)
    at_0, _ = execute_conditional(state, steps, values=[0.0])
    at_1, _ = execute_conditional(state, steps, values=[1.0])
    at_mean, _ = execute_conditional(state, steps, values=[record.marginal_mean])

    b = at_1.mean - at_0.mean
    tol = 1e-10 * max(1.0, np.abs(ensemble.cov).max())
    assert ensemble.nodes == at_0.nodes
    np.testing.assert_allclose(
        ensemble.cov, at_0.cov + record.marginal_var * np.outer(b, b), rtol=0, atol=tol
    )
    np.testing.assert_allclose(ensemble.mean, at_mean.mean, rtol=0, atol=tol)


@settings(max_examples=15, deadline=None)
@given(wire=signed_wires(), gain=GAINS, data=st.data())
def test_shortening_conditional_covariance_ignores_outcomes(wire, gain, data):
    state = data.draw(lossy_states(wire))
    inner_a = data.draw(st.integers(2, wire.n_nodes - 2))
    steps, _ = shorten_steps(wire, inner_a, inner_a + 1, gain=gain)
    first = data.draw(st.lists(OUTCOMES, min_size=2, max_size=2))
    second = data.draw(st.lists(OUTCOMES, min_size=2, max_size=2))

    out_1, _ = execute_conditional(state, steps, values=first)
    out_2, _ = execute_conditional(state, steps, values=second)
    assert out_1.nodes == out_2.nodes
    np.testing.assert_array_equal(out_1.cov, out_2.cov)


@settings(max_examples=25, deadline=None)
@given(graph=signed_graphs(), data=st.data())
def test_trajectory_readout_map_is_the_ensemble(graph, data):
    state = data.draw(lossy_states(graph))
    first = data.draw(st.sampled_from(graph.nodes))
    steps = removal_steps(graph, first, gain=data.draw(GAINS))
    if graph.n_nodes > 2 and data.draw(st.booleans()):
        rest = graph.with_node_removed(first)
        steps += removal_steps(rest, data.draw(st.sampled_from(rest.nodes)), gain=data.draw(GAINS))
    measured = {step.node for step in steps}
    order = tuple(node for node in graph.nodes if node not in measured)
    eta = data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(order), max_size=len(order)))
    plan = TrajectoryPlan(state, steps, record=NO_FORMS, readout_efficiency=dict(zip(order, eta)))

    mean, loading, final_order = _readout_map(plan)
    target, _ = ensemble_readout_reference(plan)
    assert final_order == target.nodes == order
    assert loading.shape == (2 * len(order), len(steps) + 2 * len(order))
    np.testing.assert_allclose(
        mean, target.mean, rtol=0, atol=1e-12 * max(1.0, np.abs(target.mean).max())
    )
    np.testing.assert_allclose(
        loading @ loading.T, target.cov, rtol=0, atol=1e-12 * np.abs(target.cov).max()
    )
    assert np.array_equal(run_trajectory(plan, trials=1, seed=0).analytic_cov, loading @ loading.T)


WIRE3 = ClusterGraph.linear_wire(3)
STATE3 = build_canonical(WIRE3, 5.0)
REMOVE3 = removal_steps(WIRE3, 3)
TARGET2 = (FeedforwardTarget(2, "p", -1.0),)
RECORD12 = nullifiers_of(WIRE3.with_node_removed(3))


def _plan(readout=None) -> TrajectoryPlan:
    return TrajectoryPlan(STATE3, REMOVE3, RECORD12, readout)


#: Each entry point with a value in one id, count or real position, the rest valid.
VALUE_SLOTS = {
    "ClusterGraph node": lambda v: ClusterGraph([v, 2, 3], [(2, 3)]),
    "ClusterGraph edge end": lambda v: ClusterGraph([1, 2, 3], [(1, v)]),
    "ClusterGraph edge sign": lambda v: ClusterGraph([1, 2], [(1, 2, v)]),
    "ClusterGraph.with_edge sign": lambda v: WIRE3.with_edge(1, 3, v),
    "ClusterGraph.ring node": lambda v: ClusterGraph.ring((1, 2, v)),
    "ClusterGraph.linear_wire count": lambda v: ClusterGraph.linear_wire(v),
    "vacuum count": lambda v: vacuum(v),
    "squeezed_variance level": lambda v: squeezed_variance(v),
    "apply_loss mode": lambda v: apply_loss(STATE3, v, 0.5),
    "apply_loss transmission": lambda v: apply_loss(STATE3, 1, v),
    "build_canonical level": lambda v: build_canonical(WIRE3, v),
    "build_canonical node level": lambda v: build_canonical(WIRE3, {1: 5.0, 2: v, 3: 5.0}),
    "compile_network level": lambda v: compile_network(WIRE3, {1: 5.0, 2: v, 3: 5.0}),
    "LossModel transmission": lambda v: LossModel({"detection": v}),
    "LossModel node": lambda v: LossModel({"detection": {v: 0.5}}),
    "LossModel node transmission": lambda v: LossModel({"detection": {2: v}}),
    "NetworkPlan node": lambda v: NetworkPlan({v: 5.0}, [("phase", 1, 0.3)], (1, 2)),
    "NetworkPlan level": lambda v: NetworkPlan({1: v}, [("phase", 1, 0.3)], (1, 2)).prepare(),
    "NetworkPlan order": lambda v: NetworkPlan({1: 5.0}, [("phase", 1, 0.3)], (1, v)),
    "FeedforwardTarget node": lambda v: FeedforwardTarget(v, "p", 1.0),
    "FeedforwardTarget gain": lambda v: FeedforwardTarget(2, "p", v),
    "MeasurementStep node": lambda v: MeasurementStep(v, 0.0, TARGET2),
    "MeasurementStep angle": lambda v: execute_ensemble(STATE3, [MeasurementStep(3, v, TARGET2)]),
    "execute_conditional outcome": lambda v: execute_conditional(STATE3, REMOVE3, values=[v]),
    "GaussianState node": lambda v: GaussianState(STATE3.mean, STATE3.cov, nodes=(1, 2, v)),
    "nullifier_rows order": lambda v: nullifier_rows(nullifiers_of(WIRE3), (1, 2, v)),
    "TrajectoryPlan readout node": lambda v: run_trajectory(_plan(readout={v: 0.5}), 3, 1),
    "TrajectoryPlan readout transmission": lambda v: run_trajectory(_plan(readout={2: v}), 3, 1),
    "run_trajectory trials": lambda v: run_trajectory(_plan(), v, 1),
    "run_trajectory seed": lambda v: run_trajectory(_plan(), 3, v),
    "config count": lambda v: ExperimentConfig(trials=v),
    "config node": lambda v: ExperimentConfig(squeezing_overrides={v: 7.0}),
    "config real": lambda v: ExperimentConfig(feedforward_gain=v),
}


#: The slots whose value is a mapping key, which a list cannot be.
KEY_SLOTS = ("LossModel node", "NetworkPlan node", "TrajectoryPlan readout node", "config node")


def _canonical(value):
    """Plain data equal for two results exactly when they hold the same values of the same types."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_canonical(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return ("dict", *((_canonical(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, *map(_canonical, value))
    return (type(value).__name__, repr(value))


def _outcome(call, value):
    try:
        return "returned", _canonical(call(value))
    except ValueError as exc:
        return "raised", type(exc).__name__, str(exc)


@settings(
    max_examples=1000, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(slot=st.sampled_from(sorted(VALUE_SLOTS)), value=CONFIG_VALUES)
def test_every_value_runs_as_its_plain_twin_or_raises_one_value_error(slot, value):
    # a numpy scalar, a Fraction or an int runs as the Python int or float it equals; a bool, a str, None, a
    # list, a Decimal, a float where an integer belongs, NaN or +-inf raises one ValueError (a non-ValueError
    # escapes and fails the test), whose message shows the value bounded, or is the plain twin's message
    assume(isinstance(value, Hashable) or slot not in KEY_SLOTS)
    # a wire of 10**400 nodes is a valid count, but building it would not end
    assume(not (slot == "ClusterGraph.linear_wire count" and plain_twin(value) == 10**400))
    outcome = _outcome(VALUE_SLOTS[slot], value)
    if outcome[0] == "raised" and _shown(value) in outcome[2]:
        return
    assert outcome == _outcome(VALUE_SLOTS[slot], plain_twin(value))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ClusterGraph([1.5, 2]), "node id must be an integer, got 1.5"),
        (lambda: ClusterGraph([True, 2]), "node id must be an integer, got True"),
        (lambda: ClusterGraph([1, 2], [(1.7, 2, True)]), "node id must be an integer, got 1.7"),
        (lambda: WIRE3.with_edge(1, 3, 1.0), "edge sign must be an integer, got 1.0"),
        (lambda: NetworkPlan({3.7: "5"}, [], (3,)), "node id must be an integer, got 3.7"),
        (lambda: NetworkPlan({3: 5.0}, [], (2.9,)), "node id must be an integer, got 2.9"),
        # a level is one real: the (db, quadrature) pair of older plans is refused, naming its node
        (
            lambda: NetworkPlan({1: (5.0, "p")}, [], (1,)),
            "node 1: squeezing level in dB must be a real number, got (5.0, 'p')",
        ),
        (lambda: GaussianState(np.zeros(2), np.eye(2), nodes=(1.9,)), "node id must be an integer, got 1.9"),
        (lambda: TrajectoryPlan(vacuum(1), (), None, {True: "0.5"}), "node id must be an integer, got True"),
        (
            lambda: LossModel({"detection": {10**5000: 0.5}}),
            "node id has too many digits to print, got <int of 16610 bits>",
        ),
        (
            lambda: build_canonical(WIRE3, "5"),
            "node 1: squeezing level in dB must be a real number, got '5'",
        ),
        (lambda: squeezed_variance(True), "squeezing level in dB must be a real number, got True"),
        (lambda: FeedforwardTarget(1.5, "p", True), "node id must be an integer, got 1.5"),
        (lambda: FeedforwardTarget(1, "p", "1"), "feedforward gain must be a real number, got '1'"),
        (lambda: MeasurementStep(3, float("nan"), TARGET2), "measurement angle must be finite, got nan"),
        (
            lambda: execute_conditional(STATE3, REMOVE3, values=[float("nan")]),
            "forced outcome must be finite, got nan",
        ),
        (lambda: GaussianState(STATE3.mean, STATE3.cov, (1, 1, 3)), "node 1 appears twice in the node order"),
        (lambda: nullifier_rows(nullifiers_of(WIRE3), (1, 1, 3)), "node 1 appears twice in the node order"),
        (lambda: run_trajectory(_plan(), True, 1), "trials must be an integer, got True"),
        (lambda: run_trajectory(_plan(), 10**400, 1), "trials must lie between 1 and 2**53 = 9007199254740992"),
        (lambda: vacuum(True), "mode count must be an integer, got True"),
        (lambda: ClusterGraph.linear_wire(True), "node count must be an integer, got True"),
        (lambda: ClusterGraph.from_edges([("a", 2)]), "node id must be an integer, got 'a'"),
        (lambda: ClusterGraph([1, 2], [5]), "edge entry must be (i, j) or (i, j, sign), got 5"),
        (lambda: ClusterGraph.from_edges([5]), "edge entry must be (i, j) or (i, j, sign), got 5"),
        (lambda: ClusterGraph([1, 2], [(1,)]), "edge entry must be (i, j) or (i, j, sign), got (1,)"),
        (lambda: ClusterGraph([1, 2], [(1, 2, 1, 0)]), "edge entry must be (i, j) or (i, j, sign), got (1, 2, 1, 0)"),
        (lambda: removal_steps(WIRE3, 2, gain=True), "feedforward gain must be a real number, got True"),
        (
            lambda: shorten_steps(ClusterGraph.linear_wire(4), 2, 3, gain=True),
            "feedforward gain must be a real number, got True",
        ),
    ],
    ids=[
        "float-node", "bool-node", "float-edge-end", "float-sign", "float-plan-node", "float-plan-order",
        "pair-plan-level", "float-state-node", "bool-readout-node", "huge-loss-node", "str-level", "bool-level",
        "float-target-node", "str-gain", "nan-angle", "nan-forced-outcome", "repeated-state-node",
        "repeated-row-order", "bool-trials", "too-many-trials", "bool-mode-count", "bool-wire-length",
        "str-edge-end", "int-edge", "int-edge-from-edges", "one-end-edge", "four-entry-edge", "bool-removal-gain",
        "bool-shortening-gain",
    ],
)
def test_a_value_outside_its_kind_raises_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_permuting_modes_with_their_nodes_changes_no_result(seed, data):
    # a state names its modes by node id, so criteria, shaping and trajectories read ids, never positions
    rng = np.random.default_rng(seed)
    graph, db = random_signed_graph(rng, 2, 8)
    lossy = LossModel({"source": {node: float(rng.uniform(0.3, 1.0)) for node in graph.nodes}})
    state = lossy.apply_stage(build_canonical(graph, db), "source")
    moved = state.marginal(data.draw(st.permutations(range(graph.n_nodes))))
    node = data.draw(st.sampled_from(graph.nodes))

    def assert_close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def assert_same_criteria(got, want):
        for column in ("variances", "db", "sums"):
            assert_close(getattr(got, column), getattr(want, column))
        assert [r[0] for r in got.residuals] == [r[0] for r in want.residuals]
        assert_close([r[1:] for r in got.residuals], [r[1:] for r in want.residuals])

    assert_same_criteria(check_cluster_criteria(moved, graph), check_cluster_criteria(state, graph))
    shaped = remove_node(state, graph, node)
    moved_shaped = remove_node(moved, ClusterGraph(moved.nodes, graph.edges()), node)
    back = moved_shaped.state.marginal([moved_shaped.state.nodes.index(n) for n in shaped.state.nodes])
    assert back.nodes == shaped.state.nodes
    scale = np.abs(shaped.state.cov).max()
    np.testing.assert_allclose(back.cov, shaped.state.cov, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(back.mean, shaped.state.mean, rtol=1e-12, atol=1e-12 * scale)
    assert_close([r.marginal_var for r in moved_shaped.outcomes], [r.marginal_var for r in shaped.outcomes])
    criteria = [check_cluster_criteria(s, shaped.graph) for s in (back, shaped.state)]
    assert_same_criteria(*criteria)

    steps, record = removal_steps(graph, node), nullifiers_of(shaped.graph)
    want = run_trajectory(TrajectoryPlan(state, steps, record), 3, seed).analytic_var
    assert_close(run_trajectory(TrajectoryPlan(moved, steps, record), 3, seed).analytic_var, want)
