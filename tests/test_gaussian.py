"""Core covariance conventions, transforms, test gates, and the loss model."""

import dataclasses
import re
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvshape import (
    ClusterGraph,
    GaussianState,
    LossModel,
    PHYSICALITY_TOL,
    VACUUM_VARIANCE,
    apply,
    apply_loss,
    build_canonical,
    preset_wire_network,
    quadrature_selector,
    squeezed_variance,
    symplectic_form,
    vacuum,
)
from cvshape.decompositions import is_symplectic
from cvshape.gaussian import _mix_vacuum
from helpers import (
    beam_splitter,
    displacement,
    identity_transform,
    phase_shift,
    qnd_gate,
    quadrature_variance,
    quadrature_variances,
    random_product_state,
    random_symplectic_state,
    squeeze_gate,
    squeezed_vacuum,
    tensor,
)

# Frozen oracle values, computed once by hand from 0.25 * 10^(-db/10).
SQUEEZED_5DB = 0.07905694150420949
ANTISQUEEZED_5DB = 0.7905694150420948
SQUEEZED_60DB = 2.5e-7


def test_vacuum_convention():
    st = vacuum(3)
    np.testing.assert_allclose(st.cov, 0.25 * np.eye(6))
    np.testing.assert_allclose(st.mean, np.zeros(6))
    assert VACUUM_VARIANCE == 0.25
    assert st.uncertainty_eigenvalue() >= -PHYSICALITY_TOL


def test_symplectic_form_blocks():
    j = symplectic_form(2)
    eye = np.eye(2)
    np.testing.assert_allclose(j[:2, 2:], eye)
    np.testing.assert_allclose(j[2:, :2], -eye)
    np.testing.assert_allclose(j @ j, -np.eye(4))


def test_squeezed_variance_oracles():
    assert squeezed_variance(5.0) == SQUEEZED_5DB
    assert squeezed_variance(60.0) == SQUEEZED_60DB
    assert squeezed_variance(0.0) == VACUUM_VARIANCE


@pytest.mark.parametrize("db", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_squeezed_variance_rejects_a_level_that_is_negative_or_not_finite(db):
    with pytest.raises(ValueError, match="squeezing level in dB must be finite and non-negative, got"):
        squeezed_variance(db)


def test_squeezed_vacuum_is_pure_minimum_uncertainty():
    st = squeezed_vacuum(5.0, "p")
    var_x = st.cov[0, 0]
    var_p = st.cov[1, 1]
    assert var_p == pytest.approx(SQUEEZED_5DB, abs=1e-15)
    assert var_x == pytest.approx(ANTISQUEEZED_5DB, abs=1e-15)
    # purity: det = (1/4)^2 per mode in our units
    assert var_x * var_p == pytest.approx(VACUUM_VARIANCE**2, abs=1e-15)
    st_x = squeezed_vacuum(5.0, "x")
    assert st_x.cov[0, 0] == pytest.approx(SQUEEZED_5DB, abs=1e-15)


def test_qnd_gate_heisenberg_action():
    g = 0.7
    t = qnd_gate(2, 0, 1, g)
    # rows are (x1, x2, p1, p2); the sum gate leaves x untouched
    expected = np.eye(4)
    expected[2, 1] = g
    expected[3, 0] = g
    np.testing.assert_allclose(t, expected)


def test_qnd_gate_is_symplectic():
    t = qnd_gate(3, 0, 2, 1.0)
    assert is_symplectic(t, tol=1e-12)


def test_beam_splitter_involution():
    m = beam_splitter(2, 0, 1, 0.2)
    np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(m @ m.T, np.eye(4), atol=1e-14)


def test_beam_splitter_balanced_entries():
    m = beam_splitter(2, 0, 1, 0.5)
    r = np.sqrt(0.5)
    expected_block = np.array([[r, r], [r, -r]])
    np.testing.assert_allclose(m[:2, :2], expected_block, atol=1e-14)
    np.testing.assert_allclose(m[2:, 2:], expected_block, atol=1e-14)
    np.testing.assert_allclose(m[:2, 2:], 0.0, atol=1e-14)


def test_beam_splitter_rejects_bad_reflectivity():
    with pytest.raises(ValueError):
        beam_splitter(2, 0, 1, 1.5)
    with pytest.raises(ValueError):
        beam_splitter(2, 0, 0, 0.5)


def test_phase_shift_orientation():
    m = phase_shift(1, 0, np.pi / 2)
    # x -> -p, p -> x at a quarter turn
    np.testing.assert_allclose(m, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)


def test_phase_shift_composition():
    a, b = 0.3, 1.1
    lhs = phase_shift(1, 0, a) @ phase_shift(1, 0, b)
    rhs = phase_shift(1, 0, a + b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_displacement_shifts_mean_only():
    st = vacuum(2)
    out = displacement(st, 1, "p", 0.8)
    np.testing.assert_allclose(out.cov, st.cov)
    assert out.mean[3] == pytest.approx(0.8)
    assert np.count_nonzero(out.mean) == 1


def test_squeeze_gate_scales():
    m = squeeze_gate(1, 0, 5.0)
    assert m[0, 0] == pytest.approx(10 ** (5.0 / 20))
    assert m[1, 1] == pytest.approx(10 ** (-5.0 / 20))
    assert is_symplectic(squeeze_gate(2, 1, 3.0), tol=1e-12)


def test_tensor_interleaves_xxpp():
    a = squeezed_vacuum(5.0, "p")
    b = vacuum(1)
    st = tensor(a, b)
    assert st.n_modes == 2
    assert st.cov[0, 0] == pytest.approx(ANTISQUEEZED_5DB)
    assert st.cov[1, 1] == pytest.approx(VACUUM_VARIANCE)
    assert st.cov[2, 2] == pytest.approx(SQUEEZED_5DB)
    assert st.cov[3, 3] == pytest.approx(VACUUM_VARIANCE)


def test_transform_composition_applies_rightmost_first():
    sq = squeeze_gate(1, 0, 5.0)
    rot = phase_shift(1, 0, np.pi / 2)
    st = apply(vacuum(1), rot @ sq)
    # squeeze first, then rotate: the squeezed axis moves to x
    assert st.cov[0, 0] == pytest.approx(SQUEEZED_5DB)
    assert st.cov[1, 1] == pytest.approx(ANTISQUEEZED_5DB)


def test_state_validation_errors():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))  # odd size
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianState(np.zeros(4), np.eye(2))  # shape mismatch


def test_transform_validation_errors():
    # a transform is a square 2N x 2N array for an N-mode state
    for matrix in (np.eye(4)[:, :2], np.eye(3), np.ones(4), phase_shift(1, 0, 0.3)):
        with pytest.raises(ValueError, match="does not act on 2 modes"):
            apply(vacuum(2), matrix)


def test_state_arrays_read_only():
    st = vacuum(1)
    with pytest.raises(ValueError):
        st.cov[0, 0] = 7.0
    with pytest.raises(ValueError):
        st.mean[0] = 1.0


def test_physicality_check():
    assert vacuum(2).uncertainty_eigenvalue() >= -PHYSICALITY_TOL
    assert squeezed_vacuum(10.0, "p").uncertainty_eigenvalue() >= -PHYSICALITY_TOL
    below = GaussianState(np.zeros(2), 0.9 * VACUUM_VARIANCE * np.eye(2))
    assert below.uncertainty_eigenvalue() < -PHYSICALITY_TOL


def test_uncertainty_eigenvalue_vacuum_saturates():
    assert abs(vacuum(1).uncertainty_eigenvalue()) < 1e-12


def test_marginal_extraction():
    st = tensor(squeezed_vacuum(5.0, "p"), vacuum(1))
    sub = st.marginal([0])
    assert sub.n_modes == 1
    assert sub.cov[1, 1] == pytest.approx(SQUEEZED_5DB)


def test_loss_mixes_toward_vacuum():
    st = squeezed_vacuum(5.0, "p")
    eta = 0.6
    out = apply_loss(st, 0, eta)
    assert out.cov[1, 1] == pytest.approx(eta * SQUEEZED_5DB + (1 - eta) * VACUUM_VARIANCE)
    assert out.cov[0, 0] == pytest.approx(eta * ANTISQUEEZED_5DB + (1 - eta) * VACUUM_VARIANCE)


def test_loss_scales_mean_by_sqrt_eta():
    st = displacement(vacuum(1), 0, "x", 2.0)
    out = apply_loss(st, 0, 0.49)
    assert out.mean[0] == pytest.approx(0.7 * 2.0)


def test_loss_composes_multiplicatively():
    rng = np.random.default_rng(11)
    for _ in range(20):
        st = random_product_state(rng, 2)
        e1, e2 = rng.uniform(0.2, 1.0, size=2)
        mode = int(rng.integers(0, 2))
        once = apply_loss(st, mode, e1 * e2)
        twice = apply_loss(apply_loss(st, mode, e1), mode, e2)
        np.testing.assert_allclose(twice.cov, once.cov, atol=1e-12)
        np.testing.assert_allclose(twice.mean, once.mean, atol=1e-12)


def test_loss_keeps_states_physical():
    rng = np.random.default_rng(12)
    for _ in range(20):
        st = random_symplectic_state(rng, 3)
        out = apply_loss(st, int(rng.integers(0, 3)), float(rng.uniform(0.05, 1.0)))
        assert out.uncertainty_eigenvalue() >= -PHYSICALITY_TOL


def test_loss_model_stage_bookkeeping():
    lm = LossModel({"source": 0.9, "detection": {1: 0.8, 2: 0.7}})
    assert tuple(lm.stages) == ("source", "detection")
    assert lm.efficiency("source", 1) == 0.9
    assert lm.efficiency("detection", 2) == 0.7
    assert lm.efficiency("detection", 3) == 1.0  # unlisted node passes untouched
    assert lm.composite_efficiency(1) == pytest.approx(0.9 * 0.8)
    assert lm.to_dict() == {"source": 0.9, "detection": {"1": 0.8, "2": 0.7}}


_STAGES = ("source", "propagation", "feedforward_tap", "detection")
_ETAS = st.floats(0.01, 1.0) | st.just(1)


@st.composite
def _stage_tables(draw):
    """A stage table as a caller may pass it: random stage order, each stage uniform or per-node, a
    per-node entry a dict or a MappingProxyType with its node keys unsorted."""
    nodes = draw(st.lists(st.integers(-5, 40), min_size=1, max_size=6, unique=True))
    table = {}
    for stage in draw(st.permutations(_STAGES))[: draw(st.integers(0, len(_STAGES)))]:
        if draw(st.booleans()):
            table[stage] = draw(_ETAS)
        else:
            keys = draw(st.permutations(nodes))[: draw(st.integers(0, len(nodes)))]
            entry = {node: draw(_ETAS) for node in keys}
            table[stage] = MappingProxyType(entry) if draw(st.booleans()) else entry
    return nodes, table


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=_stage_tables(), seed=st.integers(0, 2**32 - 1))
def test_loss_model_stores_its_table_as_the_dict_it_is_read_as(drawn, seed):
    nodes, table = drawn
    reference = {
        stage: {n: float(e) for n, e in sorted(entry.items())} if isinstance(entry, Mapping) else float(entry)
        for stage, entry in table.items()
    }
    model = LossModel(table)
    assert model.stages == reference
    assert list(model.stages) == list(reference)
    for stage, entry in model.stages.items():
        assert type(entry) is (dict if isinstance(reference[stage], dict) else float)
        if isinstance(entry, dict):
            assert list(entry) == sorted(entry)

    def efficiency(stage, node):
        entry = reference.get(stage, 1.0)
        return entry.get(node, 1.0) if isinstance(entry, dict) else entry

    queried = [*nodes, max(nodes) + 1]  # a node no stage names passes untouched
    for node in queried:
        composite = 1.0
        for stage in reference:
            composite *= efficiency(stage, node)
        assert model.composite_efficiency(node) == composite
        assert [model.efficiency(stage, node) for stage in _STAGES] == [efficiency(s, node) for s in _STAGES]
    assert list(model.to_dict().items()) == [
        (stage, {str(n): e for n, e in entry.items()} if isinstance(entry, dict) else entry)
        for stage, entry in reference.items()
    ]
    rng = np.random.default_rng(seed)
    order = [int(n) for n in rng.permutation(queried)]
    state = dataclasses.replace(random_symplectic_state(rng, len(order)), nodes=order)
    for stage in _STAGES:
        mean, cov = _mix_vacuum(state.mean, state.cov, [efficiency(stage, node) for node in order])
        lossy = model.apply_stage(state, stage)
        assert lossy.cov.tobytes() == cov.tobytes() and lossy.mean.tobytes() == mean.tobytes()
        assert lossy.nodes == state.nodes


def test_a_state_carries_its_node_ids():
    # without ids the modes are nodes 0 ... N-1; a transform keeps the ids, a marginal those of the modes it picks
    assert GaussianState(np.zeros(4), np.eye(4)).nodes == vacuum(2).nodes == (0, 1)
    state = GaussianState(np.zeros(6), np.eye(6), nodes=[7, 3, np.int64(5)])
    assert state.nodes == (7, 3, 5) and [type(node) for node in state.nodes] == [int] * 3
    assert apply(state, phase_shift(3, 1, 0.3)).nodes == apply_loss(state, 2, 0.5).nodes == state.nodes
    lossy = LossModel({"d": {3: 0.5}}).apply_stage(state, "d")  # node 3 is mode 1
    assert lossy.nodes == state.nodes and lossy.cov.diagonal() == pytest.approx([1.0, 0.625, 1.0, 1.0, 0.625, 1.0])
    assert state.marginal([2, 0]).nodes == (5, 7)
    assert build_canonical(ClusterGraph((4, 2, 9), [(4, 2), (2, 9)]), 5.0).nodes == (4, 2, 9)
    assert preset_wire_network(5.0).prepare().nodes == (1, 2, 3, 4)


def test_loss_model_apply_stage():
    lm = LossModel({"propagation": 0.5})
    st = tensor(squeezed_vacuum(5.0, "p"), squeezed_vacuum(5.0, "p"), nodes=(1, 2))
    out = lm.apply_stage(st, "propagation")
    expected = 0.5 * SQUEEZED_5DB + 0.5 * VACUUM_VARIANCE
    assert out.cov[2, 2] == pytest.approx(expected)
    assert out.cov[3, 3] == pytest.approx(expected)


def test_loss_model_rejects_bad_efficiency():
    with pytest.raises(ValueError):
        LossModel({"source": 1.2})
    with pytest.raises(ValueError):
        LossModel({"source": 0.0})


def test_quadrature_selector_angles():
    u = quadrature_selector(2, 1, 0.0)
    np.testing.assert_allclose(u, [0, 1, 0, 0])
    u = quadrature_selector(2, 0, np.pi / 2)
    np.testing.assert_allclose(u, [0, 0, 1, 0], atol=1e-15)


def test_vacuum_isotropic_in_every_direction():
    st = vacuum(1)
    for angle in np.linspace(0, np.pi, 7):
        u = quadrature_selector(1, 0, angle)
        assert quadrature_variance(st, u) == pytest.approx(VACUUM_VARIANCE)


@pytest.mark.parametrize(
    "rows", [np.ones((2, 3)), np.ones(4), np.ones((1, 2, 4))], ids=["wrong-width", "1-d", "3-d"]
)
def test_quadrature_variances_rejects_a_bad_row_matrix(rows):
    with pytest.raises(ValueError, match="row matrix of 4 columns"):
        quadrature_variances(vacuum(2), rows)


def test_quadrature_variances_match_each_quadratic_form():
    st = random_symplectic_state(np.random.default_rng(5), 3)
    forms = np.random.default_rng(6).normal(size=(4, 6))
    got = quadrature_variances(st, forms)
    assert got.shape == (4,)
    np.testing.assert_allclose(got, [c @ st.cov @ c for c in forms], rtol=1e-12)
    assert quadrature_variance(st, forms[2]) == pytest.approx(got[2], rel=1e-14)
    assert quadrature_variances(st, np.zeros((0, 6))).shape == (0,)


def test_random_transforms_stay_symplectic():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        t = identity_transform(n)
        for _ in range(4):
            kind = rng.integers(0, 3)
            if kind == 0:
                t = squeeze_gate(n, int(rng.integers(0, n)), float(rng.uniform(0, 10))) @ t
            elif kind == 1 and n > 1:
                i, j = rng.choice(n, size=2, replace=False)
                t = beam_splitter(n, int(i), int(j), float(rng.uniform(0.05, 0.95))) @ t
            else:
                t = phase_shift(n, int(rng.integers(0, n)), float(rng.uniform(0, 7))) @ t
        assert is_symplectic(t)
        assert apply(vacuum(n), t).uncertainty_eigenvalue() >= -PHYSICALITY_TOL


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: vacuum(0), "need at least one mode"),
        (lambda: apply_loss(vacuum(4), 9, 0.5), "mode index 9 out of range for 4 modes"),
        (lambda: apply_loss(vacuum(4), 0, 1.5), "transmission 1.5 outside (0, 1]"),
        (
            lambda: GaussianState(np.zeros(8), np.eye(8), nodes=(1, 2)),
            "node order length must match the state's mode count",
        ),
        # float() reads a str and a bool, and int() a bool, but none is a transmission or a node id
        (lambda: LossModel({"detection": "0.5"}), "transmission must be a real number, got '0.5'"),
        (lambda: LossModel({"detection": True}), "transmission must be a real number, got True"),
        (lambda: LossModel({"propagation": {2: False}}), "transmission must be a real number, got False"),
        (lambda: LossModel({"propagation": {True: 0.5}}), "node id must be an integer, got True"),
        # past the float range float() overflows: the transmission is not finite, not an OverflowError
        (lambda: LossModel({"detection": -(10**400)}), "transmission must be finite, got -inf"),
        # a mode taken twice would duplicate its x and p: no physical state has that covariance
        (lambda: vacuum(3).marginal([1, 0, 1]), "mode index 1 repeated in marginal"),
        # a complex entry is refused, not cast to its real part
        (
            lambda: GaussianState(np.zeros(2), [[1, 1j], [-1j, 1]]),
            "state mean and covariance must be real, got complex entries",
        ),
        (
            lambda: GaussianState(np.array([0.5j, 0.0]), np.eye(2)),
            "state mean and covariance must be real, got complex entries",
        ),
    ],
    ids=[
        "vacuum-of-no-modes", "loss-on-absent-mode", "loss-above-one", "state-nodes-too-short",
        "str-transmission", "bool-transmission", "bool-node-transmission", "bool-node-id", "overflowing-transmission",
        "marginal-repeated-mode", "complex-covariance", "complex-mean",
    ],
)
def test_bad_input_raises_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError
