"""Passive/active factorization of symplectic matrices."""

import time

import numpy as np
import pytest

from cvshape import (
    beam_splitter,
    bloch_messiah,
    is_orthogonal,
    is_symplectic,
    qnd_gate,
    symplectic_form,
)
from cvshape.decompositions import (
    orthogonal_symplectic_to_unitary,
    unitary_to_elements,
    unitary_to_orthogonal_symplectic,
)
from cvshape.graphs import canonical_transform
from helpers import random_signed_graph

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
    s = qnd_gate(2, 0, 1, 1.0).matrix
    o2, d, o1 = bloch_messiah(s)
    assert_valid_factors(s, o2, d, o1, tol=1e-9)
    top = np.sort(np.diag(d))[::-1][:2]
    np.testing.assert_allclose(top, [GOLDEN_RATIO, GOLDEN_RATIO], atol=1e-9)

    # Two gates beside an idle mode: a fourfold golden factor plus a unit
    # block, bare and mixed by splitters so that no factor is diagonal.
    pair = qnd_gate(5, 0, 1).matrix @ qnd_gate(5, 2, 3).matrix
    mixed = beam_splitter(5, 3, 4, 0.3).matrix @ pair @ beam_splitter(5, 0, 4, 0.6).matrix
    for s in (pair, mixed):
        o2, d, o1 = bloch_messiah(s)
        assert_valid_factors(s, o2, d, o1, tol=1e-9)
        np.testing.assert_allclose(np.diag(d)[:5], [GOLDEN_RATIO] * 4 + [1.0], atol=1e-9)


def test_random_graph_symplectics_recompose():
    rng = np.random.default_rng(21)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        graph, db_map = random_signed_graph(rng)
        s = canonical_transform(graph, db_map).matrix
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


def test_symplectic_predicates():
    assert is_symplectic(qnd_gate(2, 0, 1, 1.0).matrix)
    assert not is_symplectic(np.diag([2.0, 2.0, 2.0, 2.0]))
    j = symplectic_form(2)
    assert is_symplectic(j)
    assert is_orthogonal(j)
