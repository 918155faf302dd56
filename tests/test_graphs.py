"""Graph model, nullifier algebra, and the cluster constructions."""

import numpy as np
import pytest

from cvshape import (
    PHYSICALITY_TOL,
    ClusterGraph,
    NetworkPlan,
    apply,
    build_canonical,
    canonical_transform,
    compile_network,
    form_vector,
    nullifiers_of,
    phase_shift,
    preset_wire_network,
    quadrature_variance,
    remove_node,
    shorten_wire,
    squeezed_variance,
    wire_to_ring_phases,
)
from cvshape.decompositions import is_orthogonal, is_symplectic
from cvshape.graphs import (
    BeamSplitterElement,
    PhaseShiftElement,
    format_graph_text,
    parse_graph_text,
)
from helpers import gate_chain_state, gate_chain_transform, random_signed_graph, signed_wire

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
        ClusterGraph([1, 2], {frozenset((1, 3)): 1})  # unknown node
    with pytest.raises(ValueError):
        ClusterGraph([1, 2], {frozenset((1, 2)): 2})  # bad sign
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
    forms = nullifiers_of(wire)
    assert [n.label for n in forms] == [1, 2, 3]
    for n in forms:
        p_terms = [t for t in n.terms if t[1] == "p"]
        assert len(p_terms) == 1  # exactly one p term per form
        assert p_terms[0][2] == 1.0


def test_nullifier_describe():
    g = ClusterGraph.from_edges([(1, 2, -1), (2, 3)])
    n2 = nullifiers_of(g)[1]
    assert n2.describe() == "p_2 + x_1 - x_3"


def test_nullifier_coefficient_vector_layout():
    wire = ClusterGraph.linear_wire(3)
    n1 = nullifiers_of(wire)[0]
    c = n1.coefficient_vector((1, 2, 3))
    np.testing.assert_allclose(c, [0, -1, 0, 1, 0, 0])
    # reordering the modes permutes the coefficients with them
    c_swapped = n1.coefficient_vector((2, 1, 3))
    np.testing.assert_allclose(c_swapped, [-1, 0, 0, 0, 1, 0])


def test_nullifier_rejects_order_missing_a_term_node():
    n2 = nullifiers_of(ClusterGraph.linear_wire(3))[1]  # p_2 - x_1 - x_3
    with pytest.raises(ValueError):
        n2.coefficient_vector((1, 2))
    # an order that still covers every term node is fine even if shrunk
    n1 = nullifiers_of(ClusterGraph.linear_wire(3))[0]
    np.testing.assert_allclose(n1.coefficient_vector((1, 2)), [0, -1, 1, 0])


# ----------------------------------------------------------- canonical build


def test_canonical_wire_nullifier_variances():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    for n in nullifiers_of(wire):
        assert quadrature_variance(st, n) == pytest.approx(SQUEEZED_5DB, abs=1e-12)


def test_canonical_per_node_squeezing():
    wire = ClusterGraph.linear_wire(3)
    st = build_canonical(wire, {1: 5.0, 2: 8.0, 3: 11.0})
    forms = nullifiers_of(wire)
    for n, db in zip(forms, (5.0, 8.0, 11.0)):
        assert quadrature_variance(st, n) == pytest.approx(squeezed_variance(db), abs=1e-12)


def test_canonical_nullifier_identity_random_graphs():
    """Var(n_i) equals the node's input squeezed variance, any graph."""
    rng = np.random.default_rng(31)
    for _ in range(30):
        graph, db_map = random_signed_graph(rng)
        st = build_canonical(graph, db_map)
        for n in nullifiers_of(graph):
            expected = squeezed_variance(db_map[n.label])
            assert quadrature_variance(st, n) == pytest.approx(expected, abs=1e-10)


def test_canonical_transform_is_symplectic():
    graph = ClusterGraph.from_edges([(1, 2), (1, 3, -1), (2, 3)])
    t = canonical_transform(graph, 5.0)
    assert t.symplecticity_defect() < 1e-12


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
        assert np.array_equal(closed.matrix, chain.matrix)
        assert np.array_equal(closed.shift, chain.shift)


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


def test_canonical_transform_rejects_negative_db():
    with pytest.raises(ValueError, match="non-negative"):
        canonical_transform(ClusterGraph.linear_wire(3), {1: 5.0, 2: -1.0, 3: 5.0})


def test_256_node_signed_wire_build_remove_shorten():
    wire = signed_wire(256)
    st = build_canonical(wire, 8.0)
    assert st.uncertainty_eigenvalue() >= -PHYSICALITY_TOL

    before = {n.label: quadrature_variance(st, n, wire.nodes) for n in nullifiers_of(wire)}
    removed = remove_node(st, wire, 100)
    assert removed.state.uncertainty_eigenvalue() >= -PHYSICALITY_TOL
    for form in nullifiers_of(removed.graph):
        after = quadrature_variance(removed.state, form, removed.graph.nodes)
        assert after == pytest.approx(before[form.label], abs=1e-10)

    shortened = shorten_wire(removed.state, removed.graph, (200, 201))
    assert shortened.state.uncertainty_eigenvalue() >= -PHYSICALITY_TOL
    assert shortened.graph.n_nodes == 253
    assert shortened.graph.has_edge(199, 202)
    bond = [f for f in nullifiers_of(shortened.graph) if f.label in (199, 202)]
    for form in bond:
        value = quadrature_variance(shortened.state, form, shortened.graph.nodes)
        assert value == pytest.approx(2 * squeezed_variance(8.0), rel=1e-9)


# --------------------------------------------------------------- compiled plan


def test_compiled_plan_matches_canonical_state():
    rng = np.random.default_rng(32)
    for _ in range(5):
        graph, db_map = random_signed_graph(rng, n_min=2, n_max=5)
        plan = compile_network(graph, db_map)
        produced = plan.prepare()
        target = build_canonical(graph, db_map)
        assert np.abs(produced.cov - target.cov).max() < 1e-8
        assert plan.provenance == "compiled"


def test_compiled_edgeless_graph_has_no_interferometer():
    graph = ClusterGraph([1, 2], {})
    plan = compile_network(graph, {1: 5.0, 2: 7.0})
    assert plan.interferometer == ()
    assert dict(plan.squeezer_settings)[1] == (5.0, "p")
    assert dict(plan.squeezer_settings)[2] == (7.0, "p")


@pytest.mark.parametrize(
    "graph", [ClusterGraph.linear_wire(4), signed_wire(16)], ids=["wire4", "signed16"]
)
def test_compiled_plan_at_60_db_matches_canonical_state(graph):
    produced = compile_network(graph, 60.0).prepare()
    target = build_canonical(graph, 60.0)
    scale = np.abs(target.cov).max()
    assert np.abs(produced.cov - target.cov).max() <= 1e-12 * scale
    assert not produced.mean.any()
    # The nullifier variances sit twelve orders below the covariance scale,
    # so the check above cannot see them; compare them on their own scale.
    # Rounding of the dense covariance alone moves them by about 6e-4 here.
    for form in nullifiers_of(graph):
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
        (BeamSplitterElement(1, 2, 1.5), "reflectivity"),
        (BeamSplitterElement(1, 2, -0.1), "reflectivity"),
        (BeamSplitterElement(2, 2, 0.5), "distinct"),
        ("mirror", "unknown interferometer element"),
    ],
)
def test_interferometer_rejects_bad_elements(element, message):
    elements = [PhaseShiftElement(1, 0.3), element]
    plan = NetworkPlan({1: (5.0, "p"), 2: (5.0, "p")}, elements, "preset", (1, 2))
    with pytest.raises(ValueError, match=message):
        plan.interferometer_transform()
    with pytest.raises(ValueError, match=message):
        plan.prepare()


def test_compiled_factors_are_orthogonal_symplectic():
    graph = ClusterGraph.linear_wire(4)
    plan = compile_network(graph, 5.0)
    o = plan.interferometer_transform().matrix
    assert is_orthogonal(o)
    assert is_symplectic(o)


# ----------------------------------------------------------------- preset plan


def test_preset_uses_stated_splitter_ratios():
    plan = preset_wire_network()
    splitters = [e for e in plan.interferometer if isinstance(e, BeamSplitterElement)]
    ratios = sorted(e.reflectivity for e in splitters)
    assert ratios == [0.2, 0.5, 0.5]
    phases = [e for e in plan.interferometer if isinstance(e, PhaseShiftElement)]
    assert len(phases) == 8
    assert plan.provenance == "preset"


def test_preset_nullifier_variances_follow_degree_law():
    """Variance is s*(1 + degree) per node: 2s at the ends, 3s inside."""
    wire = ClusterGraph.linear_wire(4)
    plan = preset_wire_network(5.0)
    st = plan.prepare()
    s = squeezed_variance(5.0)
    got = [quadrature_variance(st, n, plan.node_order) for n in nullifiers_of(wire)]
    np.testing.assert_allclose(got, [2 * s, 3 * s, 3 * s, 2 * s], atol=1e-13)


def test_preset_variances_vanish_at_high_squeezing():
    wire = ClusterGraph.linear_wire(4)
    st = preset_wire_network(60.0).prepare()
    vals = [quadrature_variance(st, n, (1, 2, 3, 4)) for n in nullifiers_of(wire)]
    assert max(vals) < 1e-4


def test_preset_vacuum_inputs_give_vacuum_form_values():
    wire = ClusterGraph.linear_wire(4)
    st = preset_wire_network(0.0).prepare()
    vals = [quadrature_variance(st, n, (1, 2, 3, 4)) for n in nullifiers_of(wire)]
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
    vals = [quadrature_variance(st, n) for n in nullifiers_of(ring)]
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
    assert db_map == {1: 5.0, 2: 0.0, 3: 7.5}


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
    with pytest.raises(ValueError):
        parse_graph_text("node 1\nnode 2\nedge 1 2 sign=0\n")


@pytest.mark.parametrize("level", ["nan", "inf", "-inf", "-1"])
def test_parse_graph_text_rejects_bad_db(level):
    with pytest.raises(ValueError, match="graph text line 1"):
        parse_graph_text(f"node 1 db={level}\nnode 2\nedge 1 2\n")
