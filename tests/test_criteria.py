"""Variance-inequality checks and residual squeezing extraction."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvshape.graphs as cvshape_graphs
from cvshape import (
    ClusterGraph,
    GaussianState,
    LossModel,
    NetworkPlan,
    apply,
    apply_loss,
    build_canonical,
    check_cluster_criteria,
    nullifier_db,
    nullifiers_of,
    remove_node,
    residual_squeezing_db,
    vacuum,
)
from cvshape.criteria import NULLIFIER_BOUND, PAIRWISE_BOUND
from helpers import (
    REPORT_SCALARS,
    check_cluster_criteria_reference,
    criteria_tree,
    leaf_types,
    nullifier_rows,
    phase_shift,
    quadrature_variances,
    random_symplectic_state,
    squeezed_vacuum,
    tensor,
)

SQUEEZED_5DB = 0.07905694150420949


def test_bounds_follow_term_count():
    # k-term forms sit against k/4: the separable floor is additive
    assert NULLIFIER_BOUND == 0.5
    assert PAIRWISE_BOUND == 1.0


def test_nullifier_db_arithmetic():
    assert nullifier_db(0.5, 2) == pytest.approx(0.0)
    assert nullifier_db(0.25, 2) == pytest.approx(-3.0102999566398116)
    assert nullifier_db(0.75, 3) == pytest.approx(0.0)
    wire = ClusterGraph.linear_wire(2)
    assert nullifier_db(0.25, nullifiers_of(wire).counts[0]) == pytest.approx(-3.0102999566398116)


@pytest.mark.parametrize("variance", [0.0, -0.1, float("nan"), float("inf")])
def test_nullifier_db_rejects_non_positive_and_non_finite(variance):
    with pytest.raises(ValueError, match="positive and finite"):
        nullifier_db(variance, 2)


def test_nullifier_db_of_an_array_equals_the_scalar_calls():
    variances, counts = [1e-9, 0.25, 0.5, 0.75, 3.0], [1, 2, 2, 3, 5]
    got = nullifier_db(np.array(variances), np.array(counts))
    assert got.tolist() == [nullifier_db(v, k) for v, k in zip(variances, counts)]
    with pytest.raises(ValueError, match=r"got -0\.1$"):
        nullifier_db(np.array([0.3, -0.1, 0.0, float("nan")]), np.array([2, 2, 2, 2]))
    with pytest.raises(ValueError, match=r"got nan$"):
        nullifier_db(np.array([0.3, float("nan"), -0.1]), np.array([2, 2, 2]))
    with pytest.raises(ValueError, match="form needs at least one term"):
        nullifier_db(np.array([0.3, 0.2]), np.array([2, 0]))


def test_criteria_read_graph_structure_from_one_edge_pass(monkeypatch):
    graph = ClusterGraph((1, 2, 3, 4, 5), [(3, 1, -1), (1, 2), (4, 1)])
    st = build_canonical(graph, 5.0)
    expected = criteria_tree(check_cluster_criteria(st, graph))

    def no_scan(self, node):
        raise AssertionError("neighbor scan")

    monkeypatch.setattr(ClusterGraph, "neighbors", no_scan)
    terms = [(node, q, c) for row, node, q, c in nullifiers_of(graph).entries if row == 0]
    assert terms == [(1, "p", 1.0), (2, "x", -1.0), (3, "x", 1.0), (4, "x", -1.0)]
    report = check_cluster_criteria(st, graph)
    assert criteria_tree(report) == expected
    assert [r[0] for r in report.residuals] == [5]


def test_wire_criteria_pass_at_5db():
    wire = ClusterGraph.linear_wire(4)
    report = check_cluster_criteria(build_canonical(wire, 5.0), wire)
    assert report.all_pass
    payload = criteria_tree(report)
    assert len(report.variances) == len(payload["nullifiers"]) == 4
    for variance, check in zip(report.variances, payload["nullifiers"]):
        assert variance == check["variance"] == pytest.approx(SQUEEZED_5DB, abs=1e-12)
        assert check["bound"] == 0.5
        assert check["pass"] is True
    assert len(report.sums) == len(payload["pairwise"]) == 3  # one per edge
    for total, check in zip(report.sums, payload["pairwise"]):
        assert total == check["sum_variance"] == pytest.approx(2 * SQUEEZED_5DB, abs=1e-12)
        assert check["pass"] is True
    assert report.residuals == []


def test_canonical_zero_db_still_entangles():
    # the entangling gates act even on vacuum inputs: Var = 0.25 < 1/2
    wire = ClusterGraph.linear_wire(2)
    report = check_cluster_criteria(build_canonical(wire, 0.0), wire)
    assert report.variances == pytest.approx([0.25, 0.25], abs=1e-12)
    assert [check["pass"] for check in criteria_tree(report)["nullifiers"]] == [True, True]


def test_product_vacuum_fails_strictly_at_the_bound():
    wire = ClusterGraph.linear_wire(2)
    report = check_cluster_criteria(dataclasses.replace(vacuum(2), nodes=wire.nodes), wire)
    # uncorrelated vacuum gives exactly 0.5 per two-term form: the
    # inequality is strict, so sitting on the bound does not pass
    assert report.variances == pytest.approx([0.5, 0.5], abs=1e-12)
    assert [check["pass"] for check in criteria_tree(report)["nullifiers"]] == [False, False]
    assert not report.all_pass


def test_pairwise_uses_adjacent_nodes_only():
    graph = ClusterGraph.from_edges([(1, 2), (2, 3)])
    report = check_cluster_criteria(build_canonical(graph, 5.0), graph)
    pairs = [check["pair"] for check in criteria_tree(report)["pairwise"]]
    assert pairs == [[1, 2], [2, 3]]


def test_residual_squeezing_of_a_squeezed_input():
    st = squeezed_vacuum(5.0, "p")
    sq_db, anti_db, angle = residual_squeezing_db(st, 0)
    assert sq_db == pytest.approx(-5.0, abs=1e-12)
    assert anti_db == pytest.approx(5.0, abs=1e-12)
    assert angle == pytest.approx(np.pi / 2, abs=1e-12)


def test_residual_squeezing_follows_rotation():
    st = squeezed_vacuum(5.0, "p")
    st = apply(st, phase_shift(1, 0, np.pi / 3))
    sq_db, anti_db, angle = residual_squeezing_db(st, 0)
    assert sq_db == pytest.approx(-5.0, abs=1e-10)
    # the squeezed direction p (pi/2) rotates by pi/3
    assert angle == pytest.approx(np.pi / 2 + np.pi / 3 - np.pi, abs=1e-10) or angle == pytest.approx(
        np.pi / 2 + np.pi / 3, abs=1e-10
    )


def test_residual_squeezing_vacuum_degenerate():
    sq_db, anti_db, angle = residual_squeezing_db(vacuum(1), 0)
    assert sq_db == pytest.approx(0.0, abs=1e-12)
    assert anti_db == pytest.approx(0.0, abs=1e-12)
    assert angle == 0.0


def test_residual_squeezing_under_loss():
    st = apply_loss(squeezed_vacuum(5.0, "p"), 0, 0.7312376477871323)
    sq_db, _, _ = residual_squeezing_db(st, 0)
    # mixing with vacuum pulls -5 dB toward 0
    assert -5.0 < sq_db < -1.0


def test_isolated_nodes_get_residual_entries():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    result = remove_node(st, wire, 3)  # leaves node 4 isolated
    report = check_cluster_criteria(result.state, result.graph)
    assert [r[0] for r in report.residuals] == [4]
    assert report.residuals[0][1] == pytest.approx(-5.0, abs=1e-9)  # squeezed_db


def test_report_dict_shape():
    wire = ClusterGraph.linear_wire(2)
    report = check_cluster_criteria(build_canonical(wire, 5.0), wire)
    payload = criteria_tree(report)
    assert set(payload) == {"nullifiers", "pairwise", "residual_squeezing", "all_pass"}
    row = payload["nullifiers"][0]
    assert set(row) == {"node", "form", "variance", "bound", "pass", "db"}
    assert row["form"] == "p_1 - x_2"
    pair_row = payload["pairwise"][0]
    assert set(pair_row) == {"pair", "sum_variance", "bound", "pass"}


def test_criteria_follow_the_state_nodes():
    wire = ClusterGraph.linear_wire(2)
    st = build_canonical(wire, 5.0)
    second, first = st.marginal([1]), st.marginal([0])
    swapped = tensor(second, first, nodes=second.nodes + first.nodes)
    # marginal-swapped state loses correlations; with its nodes (2, 1) the
    # forms still evaluate, just at separable values
    assert swapped.nodes == (2, 1)
    report = check_cluster_criteria(swapped, wire)
    assert len(report.variances) == 2
    assert not report.all_pass


# ---------------------------------------------------- closed-form rows vs forms


@st.composite
def scattered_graphs(draw):
    """Signed graph of 1-9 nodes with unsorted, gapped ids; isolated nodes allowed."""
    nodes = draw(st.lists(st.integers(1, 60), min_size=1, max_size=9, unique=True))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), st.sampled_from((-1, 1)))
    return ClusterGraph(nodes, [(i, j, sign) for i, j, sign in draw(st.lists(pairs, max_size=14)) if i != j])


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=200, deadline=None)
@given(graph=scattered_graphs(), data=st.data())
def test_closed_form_criteria_equal_the_per_form_reference(graph, data):
    order = data.draw(st.permutations(graph.nodes))
    state = random_symplectic_state(np.random.default_rng(data.draw(st.integers(0, 2**32))), graph.n_nodes)
    state = dataclasses.replace(state, nodes=order)
    report = check_cluster_criteria(state, graph)
    reference = check_cluster_criteria_reference(state, graph)
    assert report == reference  # every column, db included, compared with ==, against a per-term scalar loop
    assert leaf_types(criteria_tree(report)) <= REPORT_SCALARS
    # the dense C V C^T sums in another order: the same variances to the last few bits
    dense = quadrature_variances(state, nullifier_rows(nullifiers_of(graph), order))
    np.testing.assert_array_max_ulp(np.array(report.variances), dense, maxulp=4)
    # a variance cancelled to zero or below names the first offending value in node order
    diag = data.draw(st.lists(st.sampled_from((0.0, -0.5, 0.25, 1.5)), min_size=2 * graph.n_nodes,
                              max_size=2 * graph.n_nodes))
    degenerate = GaussianState(np.zeros(2 * graph.n_nodes), np.diag(diag), order)
    expected = _outcome(check_cluster_criteria_reference, degenerate, graph)
    assert _outcome(check_cluster_criteria, degenerate, graph) == expected
    # nodes that miss one of the graph's fail as the forms do
    foreign = dataclasses.replace(state, nodes=order[:-1] + [61])
    expected = _outcome(check_cluster_criteria_reference, foreign, graph)
    assert expected.startswith("ValueError") and _outcome(check_cluster_criteria, foreign, graph) == expected


DETECTION = st.floats(0.01, 1.0) | st.just(1.0)


def _verdicts(report):
    return [v < NULLIFIER_BOUND for v in report.variances], [s < PAIRWISE_BOUND for s in report.sums], report.all_pass


@settings(max_examples=150, deadline=None)
@given(graph=scattered_graphs(), isolated=st.booleans(), data=st.data())
def test_criteria_through_detection_loss_are_the_criteria_of_the_detection_view(graph, isolated, data):
    if isolated:  # one more node, joined to none
        graph = ClusterGraph(graph.nodes + (61,), graph.edges())
    order = data.draw(st.permutations(graph.nodes))
    state = random_symplectic_state(np.random.default_rng(data.draw(st.integers(0, 2**32))), graph.n_nodes)
    state = dataclasses.replace(state, nodes=order)
    detection = data.draw(DETECTION | st.dictionaries(st.sampled_from(graph.nodes), DETECTION))
    loss = LossModel({"source": 0.5, "detection": detection})  # only the detection stage is read
    report = check_cluster_criteria(state, graph, loss)
    on_view = check_cluster_criteria(loss.apply_stage(state, "detection"), graph)
    assert report == check_cluster_criteria_reference(state, graph, loss)
    np.testing.assert_array_max_ulp(np.array(report.variances), np.array(on_view.variances), maxulp=4)
    np.testing.assert_array_max_ulp(np.array(report.sums), np.array(on_view.sums), maxulp=4)
    # each residual row is the 2 x 2 marginal mixed with its node's transmission, as the view's is
    assert report.residuals == on_view.residuals
    assert len(report.residuals) == report.table.counts.count(1) >= isolated
    assert _verdicts(report) == _verdicts(on_view)


def test_a_graph_of_no_forms_gives_empty_columns():
    report = check_cluster_criteria(vacuum(1), ClusterGraph(()), LossModel({"detection": 0.5}))
    assert criteria_tree(report) == {"nullifiers": [], "pairwise": [], "residual_squeezing": [], "all_pass": True}


def test_criteria_read_the_state_nodes_without_checking_them_again(monkeypatch):
    # a state's nodes were checked where it was made; a plan still checks an order a caller passes in
    def refuse(*args):
        raise AssertionError("node order checked a second time")

    state = build_canonical(WIRE4, 5.0)
    monkeypatch.setattr(cvshape_graphs, "_node_order", refuse)
    assert check_cluster_criteria(state, WIRE4).all_pass
    with pytest.raises(AssertionError):
        NetworkPlan({}, (), state.nodes)


def test_a_numpy_column_fails_the_scalar_type_check():
    # the writer looks each scalar's text up by exact type, so columns hold Python scalars
    graph = ClusterGraph((1, 2, 3, 4), [(1, 2), (2, 3, -1)])  # node 4 isolated
    report = check_cluster_criteria(build_canonical(graph, 5.0), graph)
    assert report.residuals and leaf_types(criteria_tree(report)) <= REPORT_SCALARS
    for column in ("variances", "db", "sums", "residuals"):
        as_array = dataclasses.replace(report, **{column: np.asarray(getattr(report, column))})
        assert not leaf_types(criteria_tree(as_array)) <= REPORT_SCALARS, column


def test_cancelled_variance_error_names_the_first_in_node_order():
    # diagonal (x1, x2, x3, p1, p2, p3): node 1 reads 2, node 2 reads 0, node 3 reads -2
    state = GaussianState(np.zeros(6), np.diag([0.0, 1.0, 0.0, 1.0, 0.0, -3.0]), (1, 2, 3))
    with pytest.raises(ValueError, match=r"^variance must be positive and finite to convert to dB, got 0\.0$"):
        check_cluster_criteria(state, ClusterGraph.linear_wire(3))


WIRE4 = ClusterGraph.linear_wire(4)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: check_cluster_criteria(vacuum(2), WIRE4),
            "form references node 2 outside the node order",
        ),
    ],
    ids=["state-misses-a-node"],
)
def test_bad_criteria_input_raises_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError
