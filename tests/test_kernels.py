"""The in-place covariance kernels: bitwise against the whole-matrix formulas, and their memory.

The public constructor checks and symmetrises its one copy a tile at a
time, vacuum mixing scales its outer product in place, the shaping steps gather
survivors by block copies and add their rank-one terms a block of rows at
a time, the canonical build writes its four blocks into one array, a
linear-optics plan prepares O diag O^T as one averaged product, a state
adopts what its producer built as it stands, and the ring route
turns modes by signed swaps.  Each must give the bytes of the formula it
replaced (tests/helpers.py), signed zeros and NaNs included, and allocate
one covariance per stage; the quarter turns agree with the dense rotation
up to its cos(pi/2) residues.  The report writer holds about two copies of
the report text at its peak.
"""

import gc
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvshape import (
    VACUUM_VARIANCE,
    ClusterGraph,
    ExperimentConfig,
    FeedforwardTarget,
    GaussianState,
    LossModel,
    MeasurementStep,
    apply,
    bloch_messiah,
    build_canonical,
    canonical_transform,
    check_cluster_criteria,
    compile_network,
    emit,
    nullifiers_of,
    preset_wire_network,
    remove_node,
    run,
    squeezed_variance,
    vacuum,
)
from cvshape.experiments import _quarter_turns
from cvshape.gaussian import _SYMMETRY_RTOL, _TILE, _mix_vacuum
from cvshape.shaping import execute_conditional, execute_ensemble
from helpers import (
    canonical_cov_reference,
    conditional_step_reference,
    ensemble_step_reference,
    mix_vacuum_reference,
    phase_shift,
    random_signed_graph,
    random_symplectic_state,
    signed_wire,
    symmetrized_reference,
)

KERNELS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def _rng(data) -> np.random.Generator:
    return np.random.default_rng(data.draw(SEEDS))


def _covariance(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Symmetric up to rounding, with +0.0 and -0.0 entries and a zero of each sign facing each other."""
    half = rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-3, 4)
    half[rng.random((dim, dim)) < 0.3] = 0.0
    cov = half + half.T
    cov[rng.random((dim, dim)) < 0.1] *= 1.0 + 1e-14
    cov[(rng.random((dim, dim)) < 0.2) & (cov == 0.0)] = -0.0
    return cov


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@KERNELS
@given(modes=st.integers(1, 150), data=st.data())
def test_state_covariance_has_the_bytes_of_the_whole_matrix_average(modes, data):
    # 2N from 2 to 300: one partial tile up to ten tiles a side, partial ones included
    cov = _covariance(_rng(data), 2 * modes)
    state = GaussianState(np.zeros(2 * modes), cov)
    assert state.cov.tobytes() == symmetrized_reference(cov).tobytes()
    assert not state.cov.flags.writeable and state.cov.flags.c_contiguous


@KERNELS
@given(modes=st.integers(1, 80), factor=st.floats(0.99, 1.01), data=st.data())
def test_state_rejects_an_asymmetry_exactly_when_the_whole_matrix_check_does(modes, factor, data):
    rng = _rng(data)
    dim = 2 * modes
    cov = _covariance(rng, dim)
    i, j = rng.integers(0, dim, 2)
    cov[i, j] += factor * _SYMMETRY_RTOL * max(1.0, float(np.abs(cov).max()))
    assert _outcome(lambda: GaussianState(np.zeros(dim), cov).cov.tobytes()) == _outcome(
        lambda: symmetrized_reference(cov).tobytes()
    )


@KERNELS
@given(modes=st.integers(1, 80), data=st.data())
def test_state_accepts_a_nan_on_the_diagonal_as_the_whole_matrix_check_did(modes, data):
    rng = _rng(data)
    dim = 2 * modes
    cov = _covariance(rng, dim)
    cov[rng.integers(0, dim), rng.integers(0, dim)] += 1.0  # an asymmetry far past the tolerance
    k = rng.integers(0, dim)
    cov[k, k] = np.nan
    assert GaussianState(np.zeros(dim), cov).cov.tobytes() == symmetrized_reference(cov).tobytes()


def test_state_rejects_an_asymmetry_in_the_last_partial_tile():
    dim = 2 * _TILE + 6
    cov = np.eye(dim)
    cov[dim - 1, dim - 2] = 1e-6
    with pytest.raises(ValueError, match="covariance matrix must be symmetric"):
        GaussianState(np.zeros(dim), cov)


@KERNELS
@given(modes=st.integers(1, 100), data=st.data())
def test_vacuum_mixing_has_the_bytes_of_the_outer_product_formula(modes, data):
    rng = _rng(data)
    cov = GaussianState(np.zeros(2 * modes), _covariance(rng, 2 * modes)).cov
    mean = rng.standard_normal((3, 2 * modes))
    eta = np.where(rng.random(modes) < 0.3, 1.0, rng.uniform(1e-3, 1.0, modes))
    (mixed_mean, mixed), (ref_mean, ref) = _mix_vacuum(mean, cov, eta), mix_vacuum_reference(mean, cov, eta)
    assert mixed.tobytes() == ref.tobytes() and mixed_mean.tobytes() == ref_mean.tobytes()


def _shaping_case(data, max_modes: int):
    """A diagonally dominant state with signed-zero couplings, and one step with random feedforward."""
    rng = _rng(data)
    n = data.draw(st.integers(2, max_modes))
    cov = _covariance(rng, 2 * n)
    cov *= 0.1 / max(1.0, np.abs(cov).max())
    cov[np.diag_indices(2 * n)] = rng.uniform(1.0, 2.0, 2 * n)
    nodes = list(range(1, n + 1))
    state = GaussianState(rng.standard_normal(2 * n), cov, nodes)
    node = data.draw(st.sampled_from(nodes))
    survivors = [m for m in nodes if m != node]
    targets = data.draw(
        st.lists(
            st.builds(
                FeedforwardTarget,
                st.sampled_from(survivors),
                st.sampled_from("xp"),
                st.sampled_from((0.0, -0.0, 1.0, -1.0)) | st.floats(-2.0, 2.0),
            ),
            max_size=6,
        )
    )
    step = MeasurementStep(node, data.draw(st.sampled_from((0.0, np.pi / 2)) | st.floats(0.0, np.pi)), tuple(targets))
    gains = np.zeros(2 * n - 2)
    for target in targets:
        k = survivors.index(target.node)
        gains[k if target.quadrature == "x" else n - 1 + k] += target.gain
    return state, nodes, step, gains


@KERNELS
@given(data=st.data())
def test_ensemble_step_has_the_bytes_of_the_gathered_outer_product_formula(data):
    state, nodes, step, gains = _shaping_case(data, 90)
    final, _ = execute_ensemble(state, [step])
    mean, cov = ensemble_step_reference(state.mean, state.cov, nodes.index(step.node), step.angle, gains)
    assert final.cov.tobytes() == symmetrized_reference(cov).tobytes()
    assert final.mean.tobytes() == mean.tobytes()


@KERNELS
@given(value=st.floats(-3.0, 3.0), data=st.data())
def test_conditional_step_has_the_bytes_of_the_gathered_outer_product_formula(value, data):
    state, nodes, step, gains = _shaping_case(data, 90)
    final, _ = execute_conditional(state, [step], values=[value])
    mean, cov = conditional_step_reference(state.mean, state.cov, nodes.index(step.node), step.angle, gains, value)
    assert final.cov.tobytes() == symmetrized_reference(cov).tobytes()
    assert final.mean.tobytes() == mean.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 60), data=st.data())
def test_canonical_build_has_the_bytes_of_the_block_formula(n, data):
    rng = _rng(data)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 3.0 / n]
    graph = ClusterGraph.from_edges([(i, j, int(rng.choice((-1, 1)))) for i, j in pairs], nodes=range(1, n + 1))
    db = dict(zip(graph.nodes, rng.uniform(0.0, 40.0, n))) if rng.random() < 0.5 else float(rng.uniform(0.0, 40.0))
    expected = symmetrized_reference(canonical_cov_reference(graph, db))
    assert build_canonical(graph, db).cov.tobytes() == expected.tobytes()


@KERNELS
@given(n=st.integers(1, 6), data=st.data())
def test_quarter_turns_are_the_phase_shift_by_k_pi_over_2(n, data):
    rng = _rng(data)
    order = tuple(int(node) for node in rng.permutation(np.arange(10, 10 + n)))
    state = GaussianState(rng.standard_normal(2 * n), random_symplectic_state(rng, n).cov, order)
    turns = [(node, data.draw(st.sampled_from((-1, 0, 1, 2, 3)))) for node in order]
    dense = state
    for node, k in turns:
        dense = apply(dense, phase_shift(n, order.index(node), k * np.pi / 2))
    turned = _quarter_turns(state, turns)
    scale = np.abs(state.cov).max()
    assert np.abs(turned.cov - dense.cov).max() <= 1e-15 * scale
    assert np.abs(turned.mean - dense.mean).max() <= 1e-15 * np.abs(state.mean).max()
    for _ in range(3):
        turned = _quarter_turns(turned, turns)
    assert turned.cov.tobytes() == state.cov.tobytes() and turned.mean.tobytes() == state.mean.tobytes()
    assert turned.nodes == order


def _plan_variances(plan) -> np.ndarray:
    """Each input mode's x and p variance, squeezed in p at the plan's level, xxpp."""
    levels, n = plan.squeezer_settings, len(plan.node_order)
    variances = np.empty(2 * n)
    for k, node in enumerate(plan.node_order):
        db = levels.get(node, 0.0)
        low, high = squeezed_variance(db), VACUUM_VARIANCE * 10.0 ** (db / 10.0)
        variances[k], variances[n + k] = high, low
    return variances


WIRES = {"wire-4": ClusterGraph.linear_wire(4), "signed-16": signed_wire(16), "signed-32": signed_wire(32)}
PLANS = [
    (f"{name}-{db}dB", lambda graph=graph, db=db: compile_network(graph, db)[0])
    for name, graph in WIRES.items()
    for db in (1, 5, 10, 30, 60)
] + [(f"preset-{db}dB", lambda db=db: preset_wire_network(db)) for db in (0, 3, 5, 7, 20)]


@pytest.mark.parametrize("build", [build for _, build in PLANS], ids=[name for name, _ in PLANS])
def test_plan_prepares_the_bytes_of_o_diag_o_transpose(build):
    plan = build()
    o = plan.interferometer_transform()
    prepared = plan._prepare(o)
    expected = symmetrized_reference(o @ np.diag(_plan_variances(plan)) @ o.T)
    assert prepared.cov.tobytes() == expected.tobytes()
    assert prepared.mean.tobytes() == np.zeros(o.shape[0]).tobytes()


# Every internal producer hands GaussianState._adopt an exactly symmetric covariance, and the state
# holds it as built: adoption neither checks nor averages it.  A producer that drifts would yield a
# state whose covariance is asymmetric in its last bits, which no other test sees.
PRODUCERS = {
    "build_canonical", "apply_stage", "execute_ensemble", "execute_conditional", "_quarter_turns", "marginal",
    "vacuum", "_prepare",
}


def _random_steps(rng: np.random.Generator, nodes: list) -> list:
    """One to three measurements, each driving up to three random feedforward targets on the rest."""
    steps, left = [], list(nodes)
    for _ in range(int(rng.integers(1, min(3, len(nodes) - 1) + 1))):
        node = left.pop(int(rng.integers(len(left))))
        gains = rng.choice([0.0, -0.0, 1.0, -1.0, float(rng.uniform(-2.0, 2.0))], 3)
        targets = [FeedforwardTarget(int(rng.choice(left)), str(rng.choice(["x", "p"])), float(g)) for g in gains]
        steps.append(MeasurementStep(node, float(rng.uniform(0.0, np.pi)), tuple(targets[: rng.integers(4)])))
    return steps


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_producer_hands_over_a_bitwise_symmetric_covariance(data, tmp_path_factory):
    rng = _rng(data)
    graph, db = random_signed_graph(rng, 2, 40)  # 2N up to 80: partial tiles and tile pairs
    nodes = list(graph.nodes)
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_text(_lattice_text(graph))
    stages = ("source", "propagation", "feedforward_tap", "detection")
    loss = {stage: {node: float(rng.uniform(0.05, 1.0)) for node in nodes} for stage in stages}
    adopted = []
    adopt = GaussianState._adopt.__func__

    def spy(cls, mean, cov, nodes):
        adopted.append((sys._getframe(1).f_code.co_name, cov.tobytes() == cov.T.tobytes()))
        return adopt(cls, mean, cov, nodes)

    with patch.object(GaussianState, "_adopt", classmethod(spy)):
        config = ExperimentConfig(
            scenario="custom", construction="compiled" if len(nodes) <= 6 else "canonical",
            graph_file=str(path), squeezing_overrides=db, loss=loss,
            feedforward_gain=float(rng.uniform(-2.0, 2.0)), remove_target=int(rng.choice(nodes)),
        )
        run(config)
        state = LossModel(loss).apply_stage(build_canonical(graph, db), "source")
        steps = _random_steps(rng, nodes)
        execute_ensemble(state, steps)
        execute_conditional(state, steps, values=rng.uniform(-3.0, 3.0, len(steps)).tolist())
        _quarter_turns(state, [(node, int(rng.integers(-1, 4))) for node in nodes])
        state.marginal(rng.permutation(len(nodes))[: rng.integers(1, len(nodes) + 1)].tolist())
        vacuum(len(nodes))
        preset_wire_network(db[nodes[0]]).prepare()
    drifted = sorted({name for name, symmetric in adopted if not symmetric})
    assert not drifted, f"not bitwise symmetric on adoption: {drifted}"
    assert PRODUCERS <= {name for name, _ in adopted}


# Each analytic stage allocates its one new covariance and no other 2N x 2N or N x N array, and
# a state adopts the covariance its producer built: the tracemalloc peak of one call, in
# covariances, on a 512-node lattice.  The allowance of 1/16 covariance covers tiles, rows of
# outer products and Python objects; one stray N x N array is a quarter of a covariance, and
# build_canonical's signed adjacency is that quarter.  A criteria check at detection makes no
# state: it reads each form's own entries, so it stays within 1/8 covariance all told, where
# the dense rows with their detection view read 2.005 (this one 0.090).  The ring route's quarter
# turns sign their gathered copy in place: with a separate sign matrix they read 2.02.
SIDE = 16
STAGE_CEILINGS = {
    "state": 1, "loss stage": 1, "remove_node": 1, "build_canonical": 1.25, "criteria": 1 / 16, "quarter turns": 1,
}


@pytest.fixture(scope="module")
def lattice():
    nodes = range(1, 2 * SIDE * SIDE + 1)
    right = [(k, k + 1, 1) for k in nodes if k % (2 * SIDE)]
    down = [(k, k + 2 * SIDE, -1 if k % 3 == 0 else 1) for k in nodes if k + 2 * SIDE <= nodes[-1]]
    graph = ClusterGraph.from_edges(right + down, nodes=nodes)
    return graph, build_canonical(graph, 10.0)


def _traced_peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        kept = call()  # noqa: F841  the result stays allocated, as it does for the caller
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", sorted(STAGE_CEILINGS))
def test_stage_peak_is_one_covariance_per_new_state(lattice, stage):
    graph, state = lattice
    assert graph.n_nodes == 512
    cov, table = np.array(state.cov), nullifiers_of(graph)
    calls = {
        "state": lambda: GaussianState(state.mean, cov),
        "loss stage": lambda: LossModel({"detection": 0.9}).apply_stage(state, "detection"),
        "remove_node": lambda: remove_node(state, graph, graph.nodes[len(graph.nodes) // 2 + SIDE]),
        "build_canonical": lambda: build_canonical(graph, 10.0),
        "criteria": lambda: check_cluster_criteria(state, table, LossModel({"detection": 0.9})),
        "quarter turns": lambda: _quarter_turns(state, [(node, 1) for node in graph.nodes]),
    }
    ratio = _traced_peak(calls[stage]) / state.cov.nbytes
    assert ratio <= STAGE_CEILINGS[stage] + 1 / 16, f"{stage} peaked at {ratio:.3f} covariances"


def test_criteria_peak_follows_the_term_pairs_not_a_padded_layout():
    # The hub of a 400-node star has a 400-term form: its term pairs are the work, 1.6e5 in all,
    # about 56 bytes each.  A forms x K x K gather padded to the largest form would hold 6.4e7.
    graph = ClusterGraph.from_edges([(1, k) for k in range(2, 401)])
    table = nullifiers_of(graph)
    state = GaussianState(np.zeros(800), VACUUM_VARIANCE * np.eye(800), graph.nodes)
    pairs = sum(k * k for k in table.counts)
    peak = _traced_peak(lambda: check_cluster_criteria(state, table, LossModel({"detection": 0.9})))
    assert peak <= 64 * pairs, f"{peak / pairs:.1f} bytes per term pair"


def _lattice_text(graph) -> str:
    lines = [f"node {node}" for node in graph.nodes]
    return "\n".join(lines + [f"edge {i} {j} sign={sign}" for i, j, sign in graph.edges()]) + "\n"


# The compiled construction holds only what it still needs: the factorization checks its factors in one
# or two buffers and builds neither J nor a product with the dense D, and the compile drops O1, D, O2 and
# the unitary once their successors exist.  On a signed 64-node wire at 10 dB, in covariances, with the
# result kept (the plan's 5,460 element tuples are about 4.5 of them), they read 8.6 and 4.6; with dense
# checks and every factor held, 17.1 and 10.3.
COMPILE_CEILINGS = {"compile_network": 10, "bloch_messiah": 6}


@pytest.mark.parametrize("layer", sorted(COMPILE_CEILINGS))
def test_compiled_construction_peak(layer):
    graph = signed_wire(64)
    symplectic = canonical_transform(graph, 10.0)
    calls = {"compile_network": lambda: compile_network(graph, 10.0), "bloch_messiah": lambda: bloch_messiah(symplectic)}
    ratio = _traced_peak(calls[layer]) / symplectic.nbytes
    assert ratio <= COMPILE_CEILINGS[layer], f"{layer} peaked at {ratio:.3f} covariances"


def test_run_peak_is_about_two_covariances(lattice, tmp_path):
    # A calibrated centre removal, analytic only: the run's peak is the shaping step, where the
    # input state and the survivors' covariance are live; the criteria read each form's own
    # entries.  Dense criteria, with a detection view and the N x 2N rows, peaked at 3.10.
    graph, state = lattice
    path = tmp_path / "lattice.graph"
    path.write_text(_lattice_text(graph))
    centre = graph.nodes[len(graph.nodes) // 2 + SIDE]
    config = ExperimentConfig(scenario="custom", graph_file=str(path), remove_target=centre, squeezing_db=10.0)
    ratio = _traced_peak(lambda: run(config)) / state.cov.nbytes
    assert ratio <= 2.28, f"the run peaked at {ratio:.3f} covariances"


# emit writes each report section once and joins the sections once, so its peak is about the report
# text twice, plus the rows of the section it is writing: bytes per report byte, on the wide-lattice
# and paper-mc benchmark reports.  A writer that kept one string per token peaked at 5.38 and 6.47.
EMIT_CEILINGS = {"8x8 lattice": 2.125, "1e5-trial shorten-wire": 3.5}


@pytest.mark.parametrize("case", sorted(EMIT_CEILINGS))
def test_emit_peak_per_report_byte(tmp_path, case):
    if case == "8x8 lattice":  # odd-numbered nodes' downward edges signed -1, centre node 37 removed
        right = [(k, k + 1, 1) for k in range(1, 65) if k % 8]
        down = [(k, k + 8, -1 if k % 2 else 1) for k in range(1, 57)]
        path = tmp_path / "lattice8.graph"
        path.write_text(_lattice_text(ClusterGraph.from_edges(right + down, nodes=range(1, 65))))
        config = ExperimentConfig(scenario="custom", graph_file=str(path), remove_target=37, squeezing_db=10.0)
    else:
        config = ExperimentConfig(scenario="shorten-wire", trials=100_000, seed=7)
    report = run(config)
    size = len(emit(report))
    ratio = _traced_peak(lambda: emit(report)) / size
    assert ratio <= EMIT_CEILINGS[case], f"emit peaked at {ratio:.3f} bytes per report byte ({size} bytes)"


def _writable_memory(array: np.ndarray) -> bool:
    """Whether the array or any array it views can be written to."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return True
        array = array.base
    return False


@pytest.mark.parametrize("execute", [execute_ensemble, execute_conditional])
def test_zero_step_execution_copies_the_input_covariance(execute):
    state = GaussianState(np.arange(4.0), np.diag([1.0, 2.0, 3.0, 4.0]), [1, 2])
    forced = {"values": []} if execute is execute_conditional else {}
    final, outcomes = execute(state, [], **forced)
    assert (final.nodes, outcomes) == ((1, 2), ())
    assert not np.shares_memory(final.cov, state.cov) and not _writable_memory(final.cov)
    assert final.cov.tobytes() == state.cov.tobytes() and final.mean.tobytes() == state.mean.tobytes()


def test_adoption_holds_the_covariance_as_built():
    # symmetry is the producer's job: the state freezes the array it is handed, and neither checks nor averages it
    cov = np.array([[1.0, 0.5], [0.25, 1.0]])
    state = GaussianState._adopt(np.zeros(2), cov, None)
    assert state.cov is cov and not cov.flags.writeable
    assert cov.tolist() == [[1.0, 0.5], [0.25, 1.0]]


def test_public_constructor_copies_its_input():
    mean, cov = np.arange(4.0), np.diag([1.0, 2.0, 3.0, 4.0])
    state = GaussianState(mean, cov)
    mean[0], cov[0, 0], cov[1, 2] = -1.0, 9.0, 5.0
    assert state.mean.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert state.cov.tobytes() == np.diag([1.0, 2.0, 3.0, 4.0]).tobytes()
    assert not _writable_memory(state.cov) and not _writable_memory(state.mean)
