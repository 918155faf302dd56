"""Graph model, nullifier algebra, and the cluster constructions."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvshape import (
    PHYSICALITY_TOL,
    ClusterGraph,
    ExperimentConfig,
    ExperimentReport,
    LossModel,
    NetworkPlan,
    apply,
    bloch_messiah,
    build_canonical,
    canonical_transform,
    check_cluster_criteria,
    compile_network,
    nullifiers_of,
    preset_wire_network,
    remove_node,
    shorten_wire,
    squeezed_variance,
    vacuum,
    wire_to_ring_phases,
)
from cvshape.decompositions import _elements_to_unitary, _reduce, is_orthogonal, is_symplectic
from cvshape.graphs import parse_graph_text
from helpers import (
    emit_as,
    format_graph_text,
    form_vector,
    gate_chain_state,
    gate_chain_transform,
    nullifier_rows,
    nullifiers_reference,
    orthogonal_symplectic_to_unitary,
    phase_shift,
    quadrature_variance,
    random_signed_graph,
    signed_wire,
    star,
    unitary_to_orthogonal_symplectic,
)

SQUEEZED_5DB = 0.07905694150420949


# ----------------------------------------------------------------- graph model


def test_linear_wire_shape():
    g = ClusterGraph.linear_wire(4)
    assert g.nodes == (1, 2, 3, 4)
    assert g.edges() == ((1, 2, 1), (2, 3, 1), (3, 4, 1))
    assert g.neighbors(2) == (1, 3)
    assert g.sign(2, 3) == 1
    assert g.has_edge(3, 4)
    assert not g.has_edge(1, 3)


def test_ring_orders_edges():
    g = ClusterGraph.ring([1, 3, 2, 4])
    assert g.edges() == ((1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1))


def test_from_edges_signs_default_positive():
    g = ClusterGraph.from_edges([(1, 2), (2, 3, -1)])
    assert g.sign(1, 2) == 1
    assert g.sign(2, 3) == -1


def test_graph_validation():
    with pytest.raises(ValueError):
        ClusterGraph([1, 2], [(1, 3)])  # unknown node
    with pytest.raises(ValueError):
        ClusterGraph([1, 2], [(1, 2, 2)])  # bad sign
    with pytest.raises(TypeError, match="not a mapping"):
        ClusterGraph([1, 2], {(1, 2): -1})  # iterating it would give edge (1, 2) the sign +1
    with pytest.raises(ValueError):
        ClusterGraph.linear_wire(4).sign(1, 4)
    with pytest.raises(ValueError):
        ClusterGraph.linear_wire(4).index_of(9)


def test_with_node_removed():
    g = ClusterGraph.linear_wire(4).with_node_removed(3)
    assert g.nodes == (1, 2, 4)
    assert g.edges() == ((1, 2, 1),)


def test_with_edge():
    g = ClusterGraph.linear_wire(3).with_edge(1, 3, -1)
    assert g.sign(1, 3) == -1
    with pytest.raises(ValueError):
        g.with_edge(1, 3, 1)  # already present


def test_adjacency_matrix_signed():
    g = ClusterGraph.from_edges([(1, 2), (2, 3, -1)])
    a = g.adjacency_matrix()
    np.testing.assert_allclose(a, [[0, 1, 0], [1, 0, -1], [0, -1, 0]])


# ------------------------------------------------------------------ nullifiers


def test_nullifier_structure():
    wire = ClusterGraph.linear_wire(3)
    table = nullifiers_of(wire)
    assert list(table.labels) == [1, 2, 3]
    for r in range(len(table.labels)):
        p_terms = [(node, q, c) for row, node, q, c in table.entries if row == r and q == "p"]
        assert len(p_terms) == 1  # exactly one p term per form
        assert p_terms[0][2] == 1.0


def test_nullifier_describe():
    g = ClusterGraph.from_edges([(1, 2, -1), (2, 3)])
    assert nullifiers_of(g).texts[1] == "p_2 + x_1 - x_3"


def test_nullifier_coefficient_vector_layout():
    wire = ClusterGraph.linear_wire(3)
    table = nullifiers_of(wire)
    c = nullifier_rows(table, (1, 2, 3))[0]
    np.testing.assert_allclose(c, [0, -1, 0, 1, 0, 0])
    # reordering the modes permutes the coefficients with them
    c_swapped = nullifier_rows(table, (2, 1, 3))[0]
    np.testing.assert_allclose(c_swapped, [-1, 0, 0, 0, 1, 0])


def test_nullifier_rejects_order_missing_a_term_node():
    table = nullifiers_of(ClusterGraph.linear_wire(3))  # p_2 - x_1 - x_3 references node 3
    with pytest.raises(ValueError):
        nullifier_rows(table, (1, 2))
    # an order that covers every term node is fine: wire 1-2's p_1 - x_2
    np.testing.assert_allclose(nullifier_rows(nullifiers_of(ClusterGraph.linear_wire(2)), (1, 2))[0], [0, -1, 1, 0])


def test_nullifier_coefficient_vector_takes_a_node_index_map():
    wire = ClusterGraph.linear_wire(4)
    order = (3, 1, 4, 2)
    index = {node: k for k, node in enumerate(order)}
    # the table's rows over the order are the reference forms' vectors over its index map
    rows = nullifier_rows(nullifiers_of(wire), order)
    np.testing.assert_array_equal(rows, [f.coefficient_vector(index) for f in nullifiers_reference(wire)])
    np.testing.assert_array_equal(rows, [form_vector(f, 4, order) for f in nullifiers_reference(wire)])
    with pytest.raises(ValueError, match="outside the node order"):
        nullifier_rows(nullifiers_of(wire), (1, 2))
    with pytest.raises(ValueError, match="outside the node order"):
        nullifier_rows(nullifiers_of(wire), (1, 3, 4))


@st.composite
def scattered_signed_graphs(draw):
    """Signed graph of 1-9 nodes with unsorted, gapped and negative ids; isolated nodes allowed."""
    nodes = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=9, unique=True))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), st.sampled_from((-1, 1)))
    return ClusterGraph(nodes, [(i, j, sign) for i, j, sign in draw(st.lists(pairs, max_size=16)) if i != j])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph=scattered_signed_graphs(), data=st.data())
def test_graph_queries_agree_with_plain_sets(graph, data):
    edges = graph.edges()
    assert list(edges) == sorted(edges) and all(i < j for i, j, _ in edges)
    assert {(i, j): s for i, j, s in edges} == graph.signs
    joined = {frozenset((i, j)): s for i, j, s in edges}
    index = {node: k for k, node in enumerate(graph.nodes)}
    a = graph.adjacency_matrix()
    assert np.array_equal(a, a.T)
    for i in graph.nodes:
        assert graph.neighbors(i) == tuple(sorted(j for j in graph.nodes if frozenset((i, j)) in joined))
        for j in graph.nodes:
            pair = frozenset((i, j))
            assert graph.has_edge(i, j) == graph.has_edge(j, i) == (pair in joined)
            assert a[index[i], index[j]] == joined.get(pair, 0)
            if pair in joined:
                assert graph.sign(i, j) == graph.sign(j, i) == joined[pair]
            else:
                with pytest.raises(ValueError, match=f"^no edge between {i} and {j}$"):
                    graph.sign(i, j)
    node = data.draw(st.sampled_from(graph.nodes))
    removed = graph.with_node_removed(node)
    assert removed.nodes == tuple(n for n in graph.nodes if n != node)
    assert set(removed.edges()) == {e for e in edges if node not in e[:2]}
    absent = [(i, j) for i in graph.nodes for j in graph.nodes if i != j and frozenset((i, j)) not in joined]
    if absent:
        (i, j), sign = data.draw(st.sampled_from(absent)), data.draw(st.sampled_from((-1, 1)))
        added = graph.with_edge(i, j, sign)
        assert added.nodes == graph.nodes
        assert set(added.edges()) - set(edges) == {(min(i, j), max(i, j), sign)}
        assert len(added.edges()) == len(edges) + 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph=scattered_signed_graphs(), data=st.data())
def test_nullifier_table_equals_the_nullifier_objects(graph, data):
    forms = nullifiers_reference(graph)
    table = nullifiers_of(graph)
    terms = [[] for _ in table.labels]
    for r, node, quad, coeff in table.entries:
        terms[r].append((node, quad, coeff))
    assert [tuple(t) for t in terms] == [form.terms for form in forms]
    assert list(table.labels) == [form.label for form in forms]
    assert table.counts == [form.n_terms for form in forms]
    assert table.texts == [form.describe() for form in forms]
    order = data.draw(st.permutations(graph.nodes))
    rows = nullifier_rows(table, order)
    expected = np.array([form.coefficient_vector(order) for form in forms])
    assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()  # bitwise, signed zeros too
    # the report writers print the table's texts: JSON as describe() spells them, CSV without spaces
    criteria = check_cluster_criteria(build_canonical(graph, 5.0), graph)
    report = ExperimentReport(
        ExperimentConfig(), LossModel({}), graph.nodes, criteria, (), graph.nodes, criteria, None, None, 0.0
    )
    texts = [form.describe() for form in forms]
    payload = json.loads(emit_as(report, "json"))
    assert [row["form"] for row in payload["initial_criteria"]["nullifiers"]] == texts
    csv_forms = [line.split(",")[1] for line in emit_as(report, "csv").splitlines()[1:]]
    assert csv_forms == [text.replace(" ", "") for text in texts] * 2


# ----------------------------------------------------------- canonical build


def test_canonical_wire_nullifier_variances():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    for n in nullifiers_reference(wire):
        assert quadrature_variance(st, n) == pytest.approx(SQUEEZED_5DB, abs=1e-12)


def test_canonical_per_node_squeezing():
    wire = ClusterGraph.linear_wire(3)
    st = build_canonical(wire, {1: 5.0, 2: 8.0, 3: 11.0})
    forms = nullifiers_reference(wire)
    for n, db in zip(forms, (5.0, 8.0, 11.0)):
        assert quadrature_variance(st, n) == pytest.approx(squeezed_variance(db), abs=1e-12)


def test_canonical_nullifier_identity_random_graphs():
    """Var(n_i) equals the node's input squeezed variance, any graph."""
    rng = np.random.default_rng(31)
    for _ in range(30):
        graph, db_map = random_signed_graph(rng)
        st = build_canonical(graph, db_map)
        for n in nullifiers_reference(graph):
            expected = squeezed_variance(db_map[n.label])
            assert quadrature_variance(st, n) == pytest.approx(expected, abs=1e-10)


def test_canonical_transform_is_symplectic():
    graph = ClusterGraph.from_edges([(1, 2), (1, 3, -1), (2, 3)])
    t = canonical_transform(graph, 5.0)
    assert is_symplectic(t, tol=1e-12)


def _graphs_with_vacuum_nodes(seed, count):
    """Random signed graphs, a third of whose nodes carry 0 dB."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        graph, db_map = random_signed_graph(rng, n_min=2, n_max=10)
        for node in graph.nodes[::3]:
            db_map[node] = 0.0
        yield graph, db_map


def test_canonical_transform_equals_gate_chain_bitwise():
    for graph, db_map in _graphs_with_vacuum_nodes(33, 40):
        closed = canonical_transform(graph, db_map)
        chain = gate_chain_transform(graph, db_map)
        assert np.array_equal(closed, chain)


def test_build_canonical_matches_gate_chain():
    for graph, db_map in _graphs_with_vacuum_nodes(34, 40):
        st = build_canonical(graph, db_map)
        ref = gate_chain_state(graph, db_map)
        assert np.abs(st.cov - ref.cov).max() <= 1e-12 * np.abs(ref.cov).max()
        assert not st.mean.any()


def test_canonical_covariance_closed_form():
    graph, db_map = next(_graphs_with_vacuum_nodes(35, 1))
    levels = np.array([db_map[n] for n in graph.nodes])
    vx = np.diag(0.25 * 10.0 ** (levels / 10.0))
    vp = np.diag(0.25 * 10.0 ** (-levels / 10.0))
    a = graph.adjacency_matrix()
    expected = np.block([[vx, vx @ a], [a @ vx, a @ vx @ a + vp]])
    cov = build_canonical(graph, db_map).cov
    assert np.abs(cov - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph=scattered_signed_graphs(), data=st.data())
def test_canonical_covariance_equals_the_transformed_vacuum(graph, data):
    levels = data.draw(st.lists(st.floats(0.0, 40.0), min_size=graph.n_nodes, max_size=graph.n_nodes))
    db = dict(zip(graph.nodes, levels))
    expected = apply(vacuum(graph.n_nodes), canonical_transform(graph, db))
    state = build_canonical(graph, db)
    assert np.abs(state.cov - expected.cov).max() <= 1e-14 * max(1.0, np.abs(expected.cov).max())
    assert not state.mean.any()


def test_canonical_transform_rejects_negative_db():
    with pytest.raises(ValueError, match="non-negative"):
        canonical_transform(ClusterGraph.linear_wire(3), {1: 5.0, 2: -1.0, 3: 5.0})


@pytest.mark.parametrize("builder", [build_canonical, canonical_transform])
@pytest.mark.parametrize("level", [float("nan"), float("inf"), -float("inf"), -1.0])
@pytest.mark.parametrize("per_node", [False, True])
def test_canonical_builders_reject_non_finite_db(builder, level, per_node):
    db = {1: 5.0, 2: level, 3: 5.0} if per_node else level
    node = 2 if per_node else 1
    with pytest.raises(ValueError, match=f"node {node}: squeezing level in dB must be finite and non-negative, got"):
        builder(ClusterGraph.linear_wire(3), db)


def test_256_node_signed_wire_build_remove_shorten():
    wire = signed_wire(256)
    st = build_canonical(wire, 8.0)
    assert st.uncertainty_eigenvalue() >= -PHYSICALITY_TOL

    before = {n.label: quadrature_variance(st, n, wire.nodes) for n in nullifiers_reference(wire)}
    removed = remove_node(st, wire, 100)
    assert removed.state.uncertainty_eigenvalue() >= -PHYSICALITY_TOL
    for form in nullifiers_reference(removed.graph):
        after = quadrature_variance(removed.state, form, removed.graph.nodes)
        assert after == pytest.approx(before[form.label], abs=1e-10)

    shortened = shorten_wire(removed.state, removed.graph, (200, 201))
    assert shortened.state.uncertainty_eigenvalue() >= -PHYSICALITY_TOL
    assert shortened.graph.n_nodes == 253
    assert shortened.graph.has_edge(199, 202)
    bond = [f for f in nullifiers_reference(shortened.graph) if f.label in (199, 202)]
    for form in bond:
        value = quadrature_variance(shortened.state, form, shortened.graph.nodes)
        assert value == pytest.approx(2 * squeezed_variance(8.0), rel=1e-9)


# --------------------------------------------------------------- compiled plan


def test_compiled_plan_matches_canonical_state():
    rng = np.random.default_rng(32)
    for _ in range(5):
        graph, db_map = random_signed_graph(rng, n_min=2, n_max=5)
        plan, _ = compile_network(graph, db_map)
        produced = plan.prepare()
        target = build_canonical(graph, db_map)
        assert np.abs(produced.cov - target.cov).max() < 1e-8


def test_compiled_edgeless_graph_has_no_interferometer():
    graph = ClusterGraph([1, 2])
    plan, _ = compile_network(graph, {1: 5.0, 2: 7.0})
    assert plan.interferometer == ()
    assert plan.squeezer_settings == {1: (5.0, "p"), 2: (7.0, "p")}


@pytest.mark.parametrize(
    "graph", [ClusterGraph.linear_wire(4), signed_wire(16)], ids=["wire4", "signed16"]
)
def test_compiled_plan_at_60_db_matches_canonical_state(graph):
    produced = compile_network(graph, 60.0)[0].prepare()
    target = build_canonical(graph, 60.0)
    scale = np.abs(target.cov).max()
    assert np.abs(produced.cov - target.cov).max() <= 1e-12 * scale
    assert not produced.mean.any()
    # The nullifier variances sit twelve orders below the covariance scale,
    # so the check above cannot see them; compare them on their own scale.
    # Rounding of the dense covariance alone moves them by about 6e-4 here.
    for form in nullifiers_reference(graph):
        value = quadrature_variance(produced, form, graph.nodes)
        assert value == pytest.approx(squeezed_variance(60.0), rel=1e-2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("db", [70.0, 74.0, 80.0])
@pytest.mark.parametrize(
    "graph", [ClusterGraph.linear_wire(4), signed_wire(16)], ids=["wire4", "signed16"]
)
def test_compiled_plan_refuses_lost_nullifier_precision(graph, db):
    # From 70 dB the covariance still agrees to 1e-13 of its scale, but the
    # compiled nullifier variances are off by several percent (70 dB) up to
    # several times (80 dB).  The reference is the closed-form squeezed
    # variance, which cannot cancel as a dense reference would.
    with pytest.raises(np.linalg.LinAlgError, match="nullifier variances"):
        compile_network(graph, db)


@pytest.mark.parametrize(
    "element, message",
    [
        (("splitter", 1, 2, 1.5), "reflectivity"),
        (("splitter", 1, 2, -0.1), "reflectivity"),
        (("splitter", 2, 2, 0.5), "distinct"),
        ("mirror", "unknown interferometer element"),
        (("splitter", 1, 2, float("nan")), "reflectivity"),
        (("phase", 2, float("nan")), "phase must be finite"),
        (("phase", 2, float("inf")), "phase must be finite"),
        (("phase", 2), "unknown interferometer element"),
        (("splitter", 1, 2, 0.5, 0.5), "unknown interferometer element"),
        (("mirror", 1, 0.5), "unknown interferometer element"),
        ((), "unknown interferometer element"),
    ],
)
def test_interferometer_rejects_bad_elements(element, message):
    # Construction itself rejects the element, before any arithmetic: the
    # bad element sits after a negative phase, which sqrt must never see.
    with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
        NetworkPlan({1: (5.0, "p"), 2: (5.0, "p")}, [("phase", 1, -1.0), element], (1, 2))


def _signed_lattice(side: int) -> ClusterGraph:
    """Row-major square lattice; edge (i, j) has sign -1 when 3 divides i + j."""
    pairs = [(k, k + 1) for k in range(1, side * side + 1) if k % side]
    pairs += [(k, k + side) for k in range(1, side * side - side + 1)]
    return ClusterGraph.from_edges(
        [(i, j, -1 if (i + j) % 3 == 0 else 1) for i, j in pairs], nodes=range(1, side * side + 1)
    )


@pytest.mark.parametrize(
    "graph, db",
    [
        (ClusterGraph.linear_wire(4), 5.0),
        (signed_wire(16), 5.0),
        (_signed_lattice(4), 5.0),
        # a 0-dB node on a zero adjacency eigenvalue gives the canonical symplectic unit singular values
        (ClusterGraph.linear_wire(5), 0.0),
        (star(16), 0.0),
        (
            ClusterGraph(list(range(1, 7)), [(k, k + 1) for k in range(1, 5)]),
            {**dict.fromkeys(range(1, 6), 5.0), 6: 0.0},
        ),
    ],
    ids=["wire4", "signed16", "signed-lattice-4x4", "wire5-0db", "star16-0db", "wire5-beside-a-vacuum-node"],
)
def test_compile_checks_the_state_the_plan_prepares(graph, db):
    # compile_network builds its checked state from the reduction's own
    # element product; prepare() composes the plan's elements afresh.
    plan, checked = compile_network(graph, db)
    prepared = plan.prepare()
    assert np.array_equal(checked.mean, prepared.mean)
    assert np.array_equal(checked.cov, prepared.cov)


#: Level bands: 0 dB, log-uniform in [1e-9, 1e-3] dB (singular values of S near, not at, 1), the working range.
_BANDS = (st.just(0.0), st.floats(-9.0, -3.0).map(lambda e: 10.0**e), st.floats(0.0, 120.0))


@st.composite
def compile_inputs(draw):
    """A random signed graph of 2-10 nodes with one level, or one per node, from one band or from all three."""
    graph = random_signed_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 2, 10)[0]
    band = draw(st.sampled_from((*_BANDS, st.one_of(*_BANDS))))
    return graph, draw(band) if draw(st.booleans()) else {node: draw(band) for node in graph.nodes}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(compile_inputs())
def test_compile_returns_a_plan_or_raises_lost_precision(inputs):
    # LinAlgError is a ValueError: any other ValueError, as from a re-check of a checked factor, fails the test.
    try:
        plan = compile_network(*inputs)[0]
    except np.linalg.LinAlgError:
        return
    assert isinstance(plan, NetworkPlan)


def test_compile_relabels_unsorted_node_ids():
    # Node ids neither sorted nor contiguous: mode k is node nodes[k], so a
    # relabel by sorted id or by position would mix the modes up.
    graph = ClusterGraph.from_edges([(30, 4), (4, 17, -1), (17, 9), (9, 30), (30, 17)], nodes=(30, 4, 17, 9))
    db = {30: 5.0, 4: 9.0, 17: 3.0, 9: 7.0}
    plan, checked = compile_network(graph, db)
    assert plan.node_order == (30, 4, 17, 9)
    assert any(e[0] == "splitter" for e in plan.interferometer)
    prepared = plan.prepare()
    assert np.array_equal(checked.mean, prepared.mean)
    assert np.array_equal(checked.cov, prepared.cov)


def test_plan_rejects_duplicate_node_order():
    with pytest.raises(ValueError, match="node 1 appears twice in the node order"):
        NetworkPlan({1: (5.0, "p")}, [], (1, 2, 1))


def test_plan_rejects_squeezer_on_absent_node():
    with pytest.raises(ValueError, match="node 7 is not in the plan's node order"):
        NetworkPlan({1: (5.0, "p"), 7: (5.0, "p")}, [("phase", 1, 0.3)], (1, 2))


@pytest.mark.parametrize(
    "element", [("phase", 9, 0.3), ("splitter", 1, 9, 0.5), ("splitter", 9, 2, 0.5)]
)
def test_plan_rejects_element_on_absent_node(element):
    with pytest.raises(ValueError, match="node 9 is not in the plan's node order"):
        NetworkPlan({1: (5.0, "p")}, [("phase", 1, 0.3), element], (1, 2))


def test_plan_rejects_unknown_quadrature():
    with pytest.raises(ValueError, match="node 2: quadrature must be 'x' or 'p', got 'y'"):
        NetworkPlan({1: (5.0, "p"), 2: (5.0, "y")}, [], (1, 2))


@pytest.mark.parametrize("db", [-1.0, float("nan"), float("inf")])
def test_plan_rejects_negative_db(db):
    with pytest.raises(ValueError, match="node 2: squeezing level in dB must be finite and non-negative, got"):
        NetworkPlan({1: (5.0, "p"), 2: (db, "x")}, [], (1, 2))


def test_compiled_factors_are_orthogonal_symplectic():
    graph = ClusterGraph.linear_wire(4)
    plan, _ = compile_network(graph, 5.0)
    o = plan.interferometer_transform()
    assert is_orthogonal(o)
    assert is_symplectic(o)


@pytest.mark.parametrize(
    "graph, db",
    [(ClusterGraph.linear_wire(4), 5.0), (signed_wire(16), 5.0), (star(16), 0.0)],
    ids=["wire4", "signed16", "star16-0db"],
)
def test_unchecked_conversions_give_the_checked_bytes(graph, db):
    # compile_network reads U off O2's blocks and interferometer_transform writes O from U, neither re-checking:
    # each gives the bytes of the checked conversion in tests/helpers.py.
    plan = compile_network(graph, db)[0]
    u = orthogonal_symplectic_to_unitary(bloch_messiah(canonical_transform(graph, db))[0])
    assert plan.interferometer == tuple(_reduce(u, graph.nodes)[0])
    o = unitary_to_orthogonal_symplectic(_elements_to_unitary(plan.interferometer, plan.node_order))
    assert np.array_equal(plan.interferometer_transform(), o)


# ----------------------------------------------------------------- preset plan


def test_preset_uses_stated_splitter_ratios():
    plan = preset_wire_network()
    ratios = sorted(e[3] for e in plan.interferometer if e[0] == "splitter")
    assert ratios == [0.2, 0.5, 0.5]
    assert sum(e[0] == "phase" for e in plan.interferometer) == 8


def test_preset_nullifier_variances_follow_degree_law():
    """Variance is s*(1 + degree) per node: 2s at the ends, 3s inside."""
    wire = ClusterGraph.linear_wire(4)
    plan = preset_wire_network(5.0)
    st = plan.prepare()
    s = squeezed_variance(5.0)
    got = [quadrature_variance(st, n, plan.node_order) for n in nullifiers_reference(wire)]
    np.testing.assert_allclose(got, [2 * s, 3 * s, 3 * s, 2 * s], atol=1e-13)


def test_preset_variances_vanish_at_high_squeezing():
    wire = ClusterGraph.linear_wire(4)
    st = preset_wire_network(60.0).prepare()
    vals = [quadrature_variance(st, n, (1, 2, 3, 4)) for n in nullifiers_reference(wire)]
    assert max(vals) < 1e-4


def test_preset_vacuum_inputs_give_vacuum_form_values():
    wire = ClusterGraph.linear_wire(4)
    st = preset_wire_network(0.0).prepare()
    vals = [quadrature_variance(st, n, (1, 2, 3, 4)) for n in nullifiers_reference(wire)]
    np.testing.assert_allclose(vals, [0.5, 0.75, 0.75, 0.5], atol=1e-13)


# ------------------------------------------------------------------ ring route


def test_wire_to_ring_phase_list_is_fixed():
    phases = wire_to_ring_phases(ClusterGraph.linear_wire(4))
    assert phases == [(1, np.pi), (2, -np.pi / 2), (3, np.pi / 2), (4, 0.0)]


def test_wire_to_ring_rejects_other_graphs():
    with pytest.raises(ValueError):
        wire_to_ring_phases(ClusterGraph.linear_wire(5))
    with pytest.raises(ValueError):
        wire_to_ring_phases(ClusterGraph.from_edges([(1, 2), (2, 3, -1), (3, 4)]))


def test_ring_phases_produce_crossed_cycle_nullifiers():
    """At high squeezing the phased wire carries the 1-3-2-4 cycle's forms."""
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 60.0)
    for node, theta in wire_to_ring_phases(wire):
        st = apply(st, phase_shift(4, node - 1, theta))
    ring = ClusterGraph.ring([1, 3, 2, 4])
    vals = [quadrature_variance(st, n) for n in nullifiers_reference(ring)]
    assert max(vals) < 1e-4


# ----------------------------------------------------------------- text format


def test_parse_graph_text():
    text = """
    # comment line
    node 1 db=5
    node 2
    node 3 db=7.5
    edge 1 2 sign=-1
    edge 2 3  # trailing comment
    """
    graph, db_map = parse_graph_text(text)
    assert graph.nodes == (1, 2, 3)
    assert graph.sign(1, 2) == -1
    assert graph.sign(2, 3) == 1
    assert db_map == {1: 5.0, 3: 7.5}


def test_graph_text_round_trip():
    rng = np.random.default_rng(33)
    graph, db_map = random_signed_graph(rng)
    text = format_graph_text(graph, db_map)
    parsed, parsed_db = parse_graph_text(text)
    assert parsed.nodes == graph.nodes
    assert parsed.edges() == graph.edges()
    assert parsed_db == pytest.approx(db_map)


def test_parse_graph_text_errors():
    with pytest.raises(ValueError):
        parse_graph_text("node 1\nnode 1\n")
    with pytest.raises(ValueError):
        parse_graph_text("node 1\nedge 1 2\n")
    with pytest.raises(ValueError):
        parse_graph_text("wobble 3\n")
    with pytest.raises(ValueError, match="line 4: edge 2 1 declared twice"):
        parse_graph_text("node 1\nnode 2\nedge 1 2\nedge 2 1 sign=-1\n")
    # the graph checks an edge once every node is read, and the error still names the edge's line
    with pytest.raises(ValueError, match=r"^graph text line 3: edge \[1, 3\] references unknown nodes$"):
        parse_graph_text("node 1\nnode 2\nedge 1 3\n")
    with pytest.raises(ValueError, match=r"^graph text line 3: edge signs must be \+1 or -1$"):
        parse_graph_text("node 1\nnode 2\nedge 1 2 sign=0\n")
    with pytest.raises(ValueError, match=r"^graph text line 3: edges must join two distinct nodes \(no self-loops\)$"):
        parse_graph_text("node 1\nnode 2\nedge 2 2\n")
    # nodes may follow their edges; the first bad edge is the one named
    with pytest.raises(ValueError, match=r"^graph text line 2: edge \[1, 9\] references unknown nodes$"):
        parse_graph_text("edge 1 2\nedge 1 9\nedge 2 2\nnode 1\nnode 2\n")
    assert parse_graph_text("edge 2 1 sign=-1\nnode 1\nnode 2\n")[0].signs == {(1, 2): -1}


@pytest.mark.parametrize("level", ["nan", "inf", "-inf", "-1"])
def test_parse_graph_text_rejects_bad_db(level):
    with pytest.raises(ValueError, match="graph text line 1"):
        parse_graph_text(f"node 1 db={level}\nnode 2\nedge 1 2\n")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ClusterGraph((1, 1)), "duplicate node ids"),
        (lambda: ClusterGraph((1, 2), [(1, 1)]), "edges must join two distinct nodes (no self-loops)"),
        (lambda: ClusterGraph.linear_wire(0), "wire needs at least one node"),
        (lambda: ClusterGraph.ring((1, 2)), "ring needs at least three nodes"),
        (
            lambda: nullifier_rows(nullifiers_of(ClusterGraph.linear_wire(2)), (1, 1)),
            "node 1 appears twice in the node order",
        ),
    ],
    ids=["duplicate-node", "one-node-edge", "empty-wire", "two-node-ring", "repeated-row-node"],
)
def test_bad_graph_input_raises_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError
