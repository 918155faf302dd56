"""Passive/active factorization of symplectic matrices."""

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvshape import (
    ClusterGraph,
    bloch_messiah,
    is_orthogonal,
    is_symplectic,
    symplectic_form,
)
from cvshape.decompositions import (
    _elements_to_unitary,
    _reduce,
    unitary_to_elements,
)
from cvshape.graphs import NetworkPlan, canonical_transform
from cvshape.gaussian import SYMPLECTIC_TOL
from helpers import (
    beam_splitter,
    bloch_messiah_reference,
    elements_to_unitary_reference,
    orthogonal_gap_reference,
    orthogonal_symplectic_to_unitary,
    qnd_gate,
    random_signed_graph,
    star,
    symplectic_gap_reference,
    unitary_to_elements_reference,
    unitary_to_orthogonal_symplectic,
)

GOLDEN_RATIO = 1.618033988749895


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_valid_factors(s, o2, d, o1, tol=1e-8):
    for o in (o2, o1):
        assert is_orthogonal(o)
        assert is_symplectic(o)
    n = s.shape[0] // 2
    diag = np.diag(d)
    np.testing.assert_allclose(d, np.diag(diag), atol=1e-12)
    # squeeze factors pair up reciprocally across the x and p halves
    np.testing.assert_allclose(diag[:n] * diag[n:], np.ones(n), atol=1e-10)
    assert np.abs(o2 @ d @ o1 - s).max() < tol


def test_identity_decomposes_trivially():
    s = np.eye(4)
    o2, d, o1 = bloch_messiah(s)
    np.testing.assert_allclose(o2 @ d @ o1, s, atol=1e-12)
    np.testing.assert_allclose(d, np.eye(4), atol=1e-12)


def test_pure_squeezer_shortcut():
    d_in = np.diag([2.0, 0.5, 0.5, 2.0])
    o2, d, o1 = bloch_messiah(d_in)
    assert_valid_factors(d_in, o2, d, o1, tol=1e-12)


def test_sum_gate_squeeze_factors_are_golden():
    """The unit-gain two-mode sum gate squeezes by the golden ratio."""
    s = qnd_gate(2, 0, 1, 1.0)
    o2, d, o1 = bloch_messiah(s)
    assert_valid_factors(s, o2, d, o1, tol=1e-9)
    top = np.sort(np.diag(d))[::-1][:2]
    np.testing.assert_allclose(top, [GOLDEN_RATIO, GOLDEN_RATIO], atol=1e-9)

    # Two gates beside an idle mode: a fourfold golden factor plus a unit
    # block, bare and mixed by splitters so that no factor is diagonal.
    pair = qnd_gate(5, 0, 1) @ qnd_gate(5, 2, 3)
    mixed = beam_splitter(5, 3, 4, 0.3) @ pair @ beam_splitter(5, 0, 4, 0.6)
    for s in (pair, mixed):
        o2, d, o1 = bloch_messiah(s)
        assert_valid_factors(s, o2, d, o1, tol=1e-9)
        np.testing.assert_allclose(np.diag(d)[:5], [GOLDEN_RATIO] * 4 + [1.0], atol=1e-9)


@pytest.mark.parametrize(
    "s",
    [
        unitary_to_orthogonal_symplectic(random_unitary(np.random.default_rng(25), 3)),
        beam_splitter(3, 0, 1, 0.3),
        qnd_gate(4, 0, 1),
        # a star's adjacency has rank 2: fourteen zero eigenvalues, m = 14
        canonical_transform(star(16), 0.0),
        # eigenvalue 2 cos(k pi / 6) of the 5-wire vanishes at k = 3
        canonical_transform(ClusterGraph.linear_wire(5), 0.0),
        unitary_to_orthogonal_symplectic(
            np.block([[random_unitary(np.random.default_rng(26), 3), np.zeros((3, 2))], [np.zeros((2, 3)), np.eye(2)]])
        ),
    ],
    ids=[
        "passive-3-mode", "beam-splitter-3-mode", "qnd-two-idle", "star-16-0db", "wire-5-0db", "passive-mesh-two-idle"
    ],
)
def test_unit_block_of_two_or_more_directions_factors(s):
    # The unit block's isotropic half is the leading left singular vectors
    # of its columns read as complex vectors x + i p.
    o2, d, o1 = bloch_messiah(s)
    assert_valid_factors(s, o2, d, o1, tol=1e-9)


def test_unit_block_of_a_128_node_star_factors_in_one_svd():
    s = canonical_transform(star(128), 0.0)
    start = time.perf_counter()
    o2, d, o1 = bloch_messiah(s)
    elapsed = time.perf_counter() - start
    assert_valid_factors(s, o2, d, o1, tol=1e-9)
    assert elapsed < 0.5


def test_random_graph_symplectics_recompose():
    rng = np.random.default_rng(21)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        graph, db_map = random_signed_graph(rng)
        s = canonical_transform(graph, db_map)
        o2, d, o1 = bloch_messiah(s)
        assert_valid_factors(s, o2, d, o1, tol=1e-8)
        worst = max(worst, float(np.abs(o2 @ d @ o1 - s).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0


def test_rejects_non_symplectic_input():
    with pytest.raises(ValueError):
        bloch_messiah(np.eye(4) * 2.0)
    with pytest.raises(ValueError):
        bloch_messiah(np.eye(3))


def test_symplectic_input_check_scales_with_the_matrix():
    # Rounding in S^T J S grows as |S|^2: at 90 dB the canonical 4-wire's
    # residual exceeds an absolute 1e-8 although S is symplectic by construction.
    s = canonical_transform(ClusterGraph.linear_wire(4), 90.0)
    try:
        bloch_messiah(s)
    except np.linalg.LinAlgError as exc:
        assert "input matrix is not symplectic" not in str(exc)
    k = np.unravel_index(np.argmax(np.abs(s)), s.shape)
    perturbed = s.copy()
    perturbed[k] *= 1.0 + 1e-6
    with pytest.raises(np.linalg.LinAlgError, match="input matrix is not symplectic"):
        bloch_messiah(perturbed)


def test_orthogonal_symplectic_unitary_round_trip():
    rng = np.random.default_rng(22)
    for n in (1, 2, 4):
        u = random_unitary(rng, n)
        o = unitary_to_orthogonal_symplectic(u)
        assert is_orthogonal(o)
        assert is_symplectic(o)
        np.testing.assert_allclose(orthogonal_symplectic_to_unitary(o), u, atol=1e-12)


def test_unitary_map_is_a_homomorphism():
    rng = np.random.default_rng(23)
    u, v = random_unitary(rng, 3), random_unitary(rng, 3)
    lhs = unitary_to_orthogonal_symplectic(u @ v)
    rhs = unitary_to_orthogonal_symplectic(u) @ unitary_to_orthogonal_symplectic(v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_unitary_to_elements_recomposes():
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        u = random_unitary(rng, n)
        elements = unitary_to_elements(u)  # self-verifies at 1e-10
        assert {e[0] for e in elements} <= {"phase", "splitter"}
        splitters = [e for e in elements if e[0] == "splitter"]
        assert len(splitters) <= n * (n - 1) // 2
        for _, i, j, r in splitters:
            assert j == i + 1  # adjacent-pair reduction only
            assert 0.0 <= r <= 1.0


def test_unitary_to_elements_identity_is_empty():
    assert unitary_to_elements(np.eye(3)) == []


#: Exact multiples of pi/2, whose rounded phase factors carry signed zeros, plus generic phases.
_PHASES = st.sampled_from((0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 1.0, -2.5))


@st.composite
def reducible_unitaries(draw):
    """Random, identity, diagonal-phase, antidiagonal-block and nearly diagonal unitaries."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("random", "identity", "phases", "antidiagonal", "near-diagonal")))
    if kind == "random":
        return random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    phases = np.exp(1j * np.array(draw(st.lists(_PHASES, min_size=n, max_size=n))))
    if kind == "identity":
        return np.eye(n, dtype=complex)
    if kind == "phases":
        return np.diag(phases)
    if kind == "antidiagonal":
        # swap adjacent pairs (2x2 antidiagonal blocks), then phase every row
        swap = np.arange(n) ^ 1
        swap[swap >= n] = n - 1
        return phases[:, None] * np.eye(n)[swap]
    # A tiny rotation on one pair: at 1e-15 the reduction skips it, at
    # 1e-13 the rotation runs and its coupling reads as none.
    u = np.diag(phases)
    if n > 1:
        k = draw(st.integers(0, n - 2))
        angle = draw(st.sampled_from((1e-13, 1e-15)))
        c, s = np.cos(angle), np.sin(angle)
        u[k : k + 2] = np.array([[c, -s], [s, c]]) @ u[k : k + 2]
    return u


@settings(max_examples=200, deadline=None)
@given(reducible_unitaries())
def test_reduction_matches_the_reference_bit_for_bit(u):
    reference = unitary_to_elements_reference(u)
    elements, recomposed = _reduce(u, range(u.shape[0]))
    assert elements == reference
    assert unitary_to_elements(u) == reference
    assert np.array_equal(recomposed, elements_to_unitary_reference(reference, u.shape[0]))


_ELEMENTS = st.one_of(
    st.tuples(st.just("phase"), st.integers(0, 5), st.floats(-4.0, 4.0)),
    st.tuples(st.just("splitter"), st.integers(0, 5), st.integers(0, 5), st.floats(0.0, 1.0)).filter(
        lambda e: e[1] != e[2]
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ELEMENTS, max_size=30))
def test_recomposition_matches_the_reference_bit_for_bit(elements):
    # Any pair order, adjacent or not: adjacent ascending pairs take the slice path.
    assert np.array_equal(_elements_to_unitary(elements, range(6)), elements_to_unitary_reference(elements, 6))


@pytest.mark.parametrize(
    "element, message",
    [(("splitter", 1, 1, 0.5), "distinct"), (("splitter", 0, 1, 1.5), "reflectivity")],
)
def test_recomposition_validates_before_multiplying(element, message):
    # _elements_to_unitary trusts its input, so a plan's elements are checked
    # when the plan is built.  The bad splitter sits after a negative phase,
    # which sqrt must never see.
    with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
        NetworkPlan({0: 5.0, 1: 5.0}, [("phase", 0, -1.0), element], (0, 1))


def test_symplectic_predicates():
    assert is_symplectic(qnd_gate(2, 0, 1, 1.0))
    assert not is_symplectic(np.diag([2.0, 2.0, 2.0, 2.0]))
    j = symplectic_form(2)
    assert is_symplectic(j)
    assert is_orthogonal(j)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: unitary_to_elements(2 * np.eye(2)), "matrix is not unitary"),
    ],
    ids=["non-unitary-elements"],
)
def test_bad_matrix_raises_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError


def test_a_non_square_matrix_is_not_orthogonal():
    assert is_orthogonal(np.ones((2, 3))) is False


def _outcome(call):
    try:
        return [factor.tobytes() for factor in call()]
    except np.linalg.LinAlgError as error:
        return repr(error)


@st.composite
def canonical_symplectics(draw):
    """Canonical symplectics of random signed graphs, isolated nodes and 0-dB levels included, or passive meshes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("graph", "levels", "star", "isolated", "passive")))
    n = draw(st.integers(1, 12))
    db = draw(st.sampled_from((0.0, 1.0, 5.0, 10.0, 30.0, 60.0, 75.0)))
    if kind == "graph":
        return canonical_transform(random_signed_graph(rng, 1, 12)[0], db)
    if kind == "levels":
        return canonical_transform(*random_signed_graph(rng, 1, 12))
    if kind == "star":
        return canonical_transform(star(n + 1), db)
    if kind == "isolated":
        return canonical_transform(ClusterGraph(range(1, n + 1), [(1, 2)] if n > 1 else ()), db)
    return unitary_to_orthogonal_symplectic(random_unitary(rng, n))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(canonical_symplectics())
def test_factorization_matches_the_dense_reference_bit_for_bit(s):
    # -J V and M^T J are sign-permuted copies and D scales columns: no factor moves a bit, no check flips
    assert _outcome(lambda: bloch_messiah(s)) == _outcome(lambda: bloch_messiah_reference(s))


@st.composite
def predicate_inputs(draw):
    """Orthogonal symplectic, symplectic and random matrices, some nudged by a small error; odd and non-square too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("passive", "canonical", "random", "odd", "non-square")))
    n = draw(st.integers(1, 6))
    if kind == "passive":
        matrix = unitary_to_orthogonal_symplectic(random_unitary(rng, n))
    elif kind == "canonical":
        matrix = canonical_transform(random_signed_graph(rng, 1, 6)[0], draw(st.sampled_from((0.0, 3.0, 20.0))))
    elif kind == "random":
        matrix = rng.standard_normal((2 * n, 2 * n))
    elif kind == "odd":
        matrix = rng.standard_normal((2 * n - 1, 2 * n - 1))
    else:
        matrix = rng.standard_normal((n, n + draw(st.integers(1, 3))))
    scale = draw(st.sampled_from((0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6)))
    return matrix + scale * rng.standard_normal(matrix.shape)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(predicate_inputs())
def test_predicates_return_what_the_dense_formulas_return(matrix):
    # At the dense gap itself, one ulp either side and the default tolerance: the same answer means the same gap,
    # so the in-place forms compute the dense formulas' largest entry bit for bit.
    rows, cols = matrix.shape
    for predicate, gap_of, shaped in (
        (is_symplectic, symplectic_gap_reference, rows == cols and rows % 2 == 0),
        (is_orthogonal, orthogonal_gap_reference, rows == cols),
    ):
        if not shaped:
            assert predicate(matrix) is False
            continue
        gap = gap_of(matrix)
        for tol in (gap, float(np.nextafter(gap, -np.inf)), float(np.nextafter(gap, np.inf)), SYMPLECTIC_TOL):
            assert predicate(matrix, tol) is (gap <= tol)
