"""Property tests: the execution semantics agree on random lossy graph states.

Conditional execution forces outcomes; ensemble execution averages them
out analytically.  One measure-and-displace step maps the mean linearly,
mean(y) = mean(0) + b y, so the ensemble must equal the conditional state
plus the spread var * b b^T of the conditional means, with its mean at
the marginal mean of the measured quadrature.  Trajectory execution maps
each trial's noises z to its readout m + W z; with unit-variance noise the
readout ensemble is (m, W W^T), which must equal a second, outcome-averaged
pass through the ensemble semantics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvshape import (
    ClusterGraph,
    FeedforwardTarget,
    GaussianState,
    LossModel,
    MeasurementStep,
    TrajectoryPlan,
    build_canonical,
    nullifiers_of,
    removal_steps,
    run_trajectory,
    shorten_steps,
)
from cvshape.gaussian import quadrature_selector
from cvshape.shaping import _readout_map, execute_conditional, execute_ensemble
from helpers import ensemble_readout_reference

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
    state = LossModel({"loss": dict(zip(graph.nodes, eta))}).apply_stage(state, "loss", graph.nodes)
    return GaussianState(state.mean + np.array(shift), state.cov)


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

    ensemble, order, (record,) = execute_ensemble(state, graph.nodes, [step])
    at_0, order_0, _ = execute_conditional(state, graph.nodes, [step], values=[0.0])
    at_1, _, _ = execute_conditional(state, graph.nodes, [step], values=[1.0])
    at_mean, _, _ = execute_conditional(state, graph.nodes, [step], values=[record.marginal_mean])
    b = at_1.mean - at_0.mean
    tol = 1e-10 * max(1.0, np.abs(ensemble.cov).max())
    assert order == order_0
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

    plan = TrajectoryPlan(state, graph.nodes, [step], record=NO_FORMS)
    mean, loading, final_order = _readout_map(plan)
    target, target_order, _ = ensemble_readout_reference(plan)
    assert final_order == target_order == order
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

    ensemble, order, (record,) = execute_ensemble(state, graph.nodes, steps)
    at_0, order_0, _ = execute_conditional(state, graph.nodes, steps, values=[0.0])
    at_1, _, _ = execute_conditional(state, graph.nodes, steps, values=[1.0])
    at_mean, _, _ = execute_conditional(state, graph.nodes, steps, values=[record.marginal_mean])

    b = at_1.mean - at_0.mean
    tol = 1e-10 * max(1.0, np.abs(ensemble.cov).max())
    assert order == order_0
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

    out_1, order_1, _ = execute_conditional(state, wire.nodes, steps, values=first)
    out_2, order_2, _ = execute_conditional(state, wire.nodes, steps, values=second)
    assert order_1 == order_2
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
    plan = TrajectoryPlan(state, graph.nodes, steps, record=NO_FORMS, readout_efficiency=dict(zip(order, eta)))

    mean, loading, final_order = _readout_map(plan)
    target, target_order, _ = ensemble_readout_reference(plan)
    assert final_order == target_order == order
    assert loading.shape == (2 * len(order), len(steps) + 2 * len(order))
    np.testing.assert_allclose(
        mean, target.mean, rtol=0, atol=1e-12 * max(1.0, np.abs(target.mean).max())
    )
    np.testing.assert_allclose(
        loading @ loading.T, target.cov, rtol=0, atol=1e-12 * np.abs(target.cov).max()
    )
    assert np.array_equal(run_trajectory(plan, trials=1, seed=0).analytic_cov, loading @ loading.T)
