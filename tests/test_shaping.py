"""Homodyne conditioning, feedforward, node removal, wire shortening, trajectories."""

import re
import time
import tracemalloc

import numpy as np
import pytest

from cvshape import (
    ClusterGraph,
    FeedforwardTarget,
    GaussianState,
    MeasurementStep,
    NetworkPlan,
    TrajectoryPlan,
    apply,
    apply_loss,
    build_canonical,
    nullifiers_of,
    remove_node,
    removal_steps,
    run_trajectory,
    shorten_steps,
    shorten_wire,
    squeezed_variance,
)
import cvshape.graphs as cvshape_graphs
from cvshape import experiments
from cvshape.shaping import _readout_map, execute_conditional, execute_ensemble
from helpers import (
    batch_trajectory_reference,
    ensemble_readout_reference,
    nullifiers_reference,
    qnd_gate,
    quadrature_variance,
    random_product_state,
    random_signed_graph,
    signed_wire,
    squeezed_vacuum,
    tensor,
)

SQUEEZED_5DB = 0.07905694150420949
TWO_TERM_5DB = 0.15811388300841897  # 2 * SQUEEZED_5DB


# ------------------------------------------------------------ erasure kernel


def test_homodyne_collapses_and_drops_the_mode():
    wire = ClusterGraph.linear_wire(2)
    st = build_canonical(wire, 60.0)
    step = MeasurementStep(node=2, angle=0.0, feedforward=())
    out, (rec,) = execute_conditional(st, [step], values=[1.3])
    assert out.nodes == (1,)
    assert out.n_modes == 1
    assert rec.value == 1.3
    # nullifier p_1 - x_2 ~ 0 at high squeezing: p_1 follows the outcome,
    # and conditioning strips the antisqueezed admixture back to s
    assert out.mean[1] == pytest.approx(1.3, abs=1e-5)
    assert out.cov[1, 1] == pytest.approx(squeezed_variance(60.0), rel=1e-3)


ERASE_MODE_1 = [MeasurementStep(node=1, angle=0.0, feedforward=(FeedforwardTarget(0, "p", -1.0),))]


def test_erasure_restores_the_marginal():
    """Sum gate, measure the partner's x, displace p back: mode is unchanged."""
    rng = np.random.default_rng(41)
    for _ in range(25):
        st = random_product_state(rng, 2)
        before = st.marginal([0])
        coupled = apply(st, qnd_gate(2, 0, 1, 1.0))
        restored, _ = execute_conditional(coupled, ERASE_MODE_1, rng=rng)
        np.testing.assert_allclose(restored.cov, before.cov, atol=1e-10)
        np.testing.assert_allclose(restored.mean, before.mean, atol=1e-10)


def test_homodyne_requires_value_or_rng():
    st = squeezed_vacuum(5.0, "p")
    with pytest.raises(ValueError):
        execute_conditional(st, [MeasurementStep(node=0, angle=0.0, feedforward=())])


def test_homodyne_floor_rejects_near_eigenstates():
    st = squeezed_vacuum(200.0, "p")
    step = MeasurementStep(node=0, angle=np.pi / 2, feedforward=())
    with pytest.raises(ValueError):
        execute_conditional(st, [step], values=[0.0])


def test_feedforward_dangling_references():
    wire = ClusterGraph.linear_wire(3)
    st = build_canonical(wire, 5.0)
    to_absent = MeasurementStep(node=2, angle=0.0, feedforward=(FeedforwardTarget(7, "p", -1.0),))
    to_measured = MeasurementStep(node=2, angle=0.0, feedforward=(FeedforwardTarget(2, "p", -1.0),))
    for step in (to_absent, to_measured):
        with pytest.raises(ValueError):
            execute_ensemble(st, [step])
        with pytest.raises(ValueError):
            execute_conditional(st, [step], values=[0.5])
    with pytest.raises(ValueError):
        FeedforwardTarget(1, "y", -1.0)
    for gain in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            FeedforwardTarget(1, "p", gain)


# -------------------------------------------------------------- node removal


def test_removal_steps_shape():
    graph = ClusterGraph.from_edges([(1, 2, -1), (2, 3)])
    (step,) = removal_steps(graph, 2)
    assert step.node == 2
    assert step.angle == 0.0
    targets = {t.node: t.gain for t in step.feedforward}
    assert targets == {1: 1.0, 3: -1.0}  # gain -1 times the edge sign


def test_remove_node_preserves_wire_nullifiers():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    result = remove_node(st, wire, 4)
    assert result.graph.nodes == (1, 2, 3)
    assert [step.node for step in result.steps] == [4]
    assert result.steps == tuple(removal_steps(wire, 4))
    assert result.new_edges == ()
    order = result.graph.nodes
    for n in nullifiers_reference(result.graph):
        assert quadrature_variance(result.state, n, order) == pytest.approx(
            SQUEEZED_5DB, abs=1e-12
        )


def test_remove_node_preservation_random_graphs():
    """Each survivor's new nullifier variance equals its old one.

    The feedforward rebuilds the removed x term inside every neighbor's
    form, so the shrunk-graph form evaluated after shaping pulls back to
    the full-graph form evaluated before it.
    """
    rng = np.random.default_rng(42)
    for _ in range(25):
        graph, db_map = random_signed_graph(rng, n_min=3)
        st = build_canonical(graph, db_map)
        node = int(rng.choice(graph.nodes))
        before = {n.label: quadrature_variance(st, n, graph.nodes) for n in nullifiers_reference(graph)}
        result = remove_node(st, graph, node)
        for n in nullifiers_reference(result.graph):
            after = quadrature_variance(result.state, n, result.graph.nodes)
            assert after == pytest.approx(before[n.label], abs=1e-10)


def test_remove_node_preservation_survives_loss():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    for mode in range(4):
        st = apply_loss(st, mode, 0.73)
    before = {n.label: quadrature_variance(st, n, wire.nodes) for n in nullifiers_reference(wire)}
    result = remove_node(st, wire, 2)
    for n in nullifiers_reference(result.graph):
        got = quadrature_variance(result.state, n, result.graph.nodes)
        assert got == pytest.approx(before[n.label], abs=1e-12)


def test_remove_node_outcome_insensitive_covariance():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    covs = []
    for forced in (-2.0, 0.0, 2.0):
        result, _ = execute_conditional(st, removal_steps(wire, 2), values=[forced])
        covs.append(result.cov)
    np.testing.assert_allclose(covs[0], covs[1], atol=1e-12)
    np.testing.assert_allclose(covs[1], covs[2], atol=1e-12)


def test_remove_node_rejects_unknown_node():
    wire = ClusterGraph.linear_wire(3)
    with pytest.raises(ValueError):
        remove_node(build_canonical(wire, 5.0), wire, 9)


# ------------------------------------------------------------ wire shortening


def test_shorten_steps_plan_and_sign():
    wire = ClusterGraph.linear_wire(4)
    steps, (o1, o2, sign) = shorten_steps(wire, 2, 3)
    assert (o1, o2, sign) == (1, 4, -1)
    assert [s.node for s in steps] == [2, 3]
    assert all(s.angle == pytest.approx(np.pi / 2) for s in steps)
    # p_2's outcome drives the far outer node and vice versa
    assert steps[0].feedforward[0].node == 4
    assert steps[1].feedforward[0].node == 1


def test_shorten_wire_two_term_value():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    result = shorten_wire(st, wire, (2, 3))
    assert result.graph.nodes == (1, 4)
    assert result.graph.sign(1, 4) == -1
    for n in nullifiers_reference(result.graph):
        got = quadrature_variance(result.state, n, result.graph.nodes)
        assert got == pytest.approx(TWO_TERM_5DB, abs=1e-12)


def test_shorten_wire_sign_bookkeeping():
    # flipping one inner edge sign flips the new edge sign
    wire = ClusterGraph.from_edges([(1, 2), (2, 3, -1), (3, 4)])
    st = build_canonical(wire, 5.0)
    result = shorten_wire(st, wire, (2, 3))
    assert result.graph.sign(1, 4) == 1
    assert result.new_edges == ((1, 4, 1),)
    assert [step.node for step in result.steps] == [2, 3]
    for n in nullifiers_reference(result.graph):
        got = quadrature_variance(result.state, n, result.graph.nodes)
        assert got == pytest.approx(TWO_TERM_5DB, abs=1e-12)


def test_shorten_wire_longer_chain_keeps_far_segment():
    wire = ClusterGraph.linear_wire(5)
    st = build_canonical(wire, 5.0)
    result = shorten_wire(st, wire, (2, 3))
    assert result.graph.edges() == ((1, 4, -1), (4, 5, 1))
    variances = {
        n.label: quadrature_variance(result.state, n, result.graph.nodes)
        for n in nullifiers_reference(result.graph)
    }
    # the bridged pair carries two squeezed terms; node 5's form is untouched
    assert variances[1] == pytest.approx(TWO_TERM_5DB, abs=1e-12)
    assert variances[5] == pytest.approx(SQUEEZED_5DB, abs=1e-12)


def test_shorten_wire_preconditions():
    wire = ClusterGraph.linear_wire(5)
    st = build_canonical(wire, 5.0)
    with pytest.raises(ValueError):
        shorten_wire(st, wire, (2, 4))  # not adjacent
    with pytest.raises(ValueError):
        shorten_wire(st, wire, (1, 2))  # node 1 has no second neighbor
    star = ClusterGraph.from_edges([(1, 2), (2, 3), (3, 4), (2, 5)])
    with pytest.raises(ValueError):
        shorten_wire(build_canonical(star, 5.0), star, (2, 3))  # degree > 2
    ring = ClusterGraph.ring([1, 2, 3, 4])
    with pytest.raises(ValueError):
        shorten_wire(build_canonical(ring, 5.0), ring, (2, 3))  # ends adjacent


# ----------------------------------------------------------- execution modes


def test_zero_gain_leaves_excess_variance():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    corrected = remove_node(st, wire, 2, gain=-1.0)
    uncorrected = remove_node(st, wire, 2, gain=0.0)
    for n in nullifiers_reference(corrected.graph):
        v_on = quadrature_variance(corrected.state, n, corrected.graph.nodes)
        v_off = quadrature_variance(uncorrected.state, n, uncorrected.graph.nodes)
        if n.label in (1, 3):  # neighbors of the removed node
            assert v_off > v_on * 2
        else:
            assert v_off == pytest.approx(v_on, abs=1e-12)


def test_ensemble_covariance_dominates_conditional():
    """Ensemble = conditional + outcome-mean spread, so the gap is PSD."""
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    steps = removal_steps(wire, 2, gain=-0.4)  # detuned gain leaves spread
    ens_state, _ = execute_ensemble(st, steps)
    cond_state, _ = execute_conditional(st, steps, values=[0.7])
    gap = ens_state.cov - cond_state.cov
    assert np.linalg.eigvalsh(gap).min() > -1e-12
    assert ens_state.nodes == cond_state.nodes == (1, 3, 4)


def test_conditional_covariance_is_outcome_independent():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    steps, _ = shorten_steps(wire, 2, 3)
    reference = None
    for values in ([-2.0, -2.0], [0.0, 0.0], [2.0, -1.0]):
        out, recs = execute_conditional(st, steps, values=values)
        assert [r.value for r in recs] == values
        if reference is None:
            reference = out.cov
        else:
            np.testing.assert_allclose(out.cov, reference, atol=1e-12)


def test_ensemble_records_have_no_values():
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    _, recs = execute_ensemble(st, removal_steps(wire, 2))
    assert [r.value for r in recs] == [None]


def test_execute_rejects_unknown_step_node():
    wire = ClusterGraph.linear_wire(3)
    st = build_canonical(wire, 5.0)
    steps = removal_steps(wire, 2)
    with pytest.raises(ValueError, match="^node 2 already measured or absent$"):
        execute_ensemble(st.marginal([0, 2]), steps)  # the marginal keeps nodes 1 and 3


# ------------------------------------------------------------- trajectories


def make_shorten_plan(readout=None):
    wire = ClusterGraph.linear_wire(4)
    st = build_canonical(wire, 5.0)
    steps, (o1, o2, sign) = shorten_steps(wire, 2, 3)
    shaped = ClusterGraph([o1, o2], [(o1, o2, sign)])
    return TrajectoryPlan(
        state=st,
        steps=steps,
        record=nullifiers_of(shaped),
        readout_efficiency=readout,
    )


def test_trajectory_sample_variance_tracks_analytic():
    stats = run_trajectory(make_shorten_plan(), trials=4000, seed=7)
    assert stats.trials == 4000
    assert stats.analytic_var == pytest.approx([TWO_TERM_5DB] * 2, abs=1e-12)
    for sample_var, analytic_var, stderr in zip(stats.sample_var, stats.analytic_var, stats.stderr):
        assert abs(sample_var - analytic_var) < 4 * stderr


def test_trajectory_reads_the_state_nodes_without_checking_them_again(monkeypatch):
    # the readout's ids are the final state's, checked where it was made; a plan still checks an order passed in
    def refuse(*args):
        raise AssertionError("node order checked a second time")

    plan = make_shorten_plan()
    monkeypatch.setattr(cvshape_graphs, "_node_order", refuse)
    stats = run_trajectory(plan, trials=100, seed=7)
    assert stats.node_order == (1, 4) and stats.analytic_var == pytest.approx([TWO_TERM_5DB] * 2, abs=1e-12)
    with pytest.raises(AssertionError):
        NetworkPlan({}, (), stats.node_order)


def test_trajectory_deterministic_under_seed():
    a = run_trajectory(make_shorten_plan(), trials=500, seed=123)
    b = run_trajectory(make_shorten_plan(), trials=500, seed=123)
    c = run_trajectory(make_shorten_plan(), trials=500, seed=124)
    columns = lambda s: (s.labels, s.analytic_var, s.sample_mean, s.sample_var, s.stderr)
    assert columns(a) == columns(b)
    np.testing.assert_allclose(a.sample_cov, b.sample_cov)
    assert abs(a.sample_var[0] - c.sample_var[0]) > 0


def test_trajectory_single_trial_has_no_variance():
    stats = run_trajectory(make_shorten_plan(), trials=1, seed=5)
    assert stats.sample_var == stats.stderr == [None, None]


def test_trajectory_readout_loss_mixes_analytic_variance():
    eta = 0.8
    stats = run_trajectory(make_shorten_plan(readout={1: eta, 4: eta}), trials=2000, seed=9)
    expected = eta * TWO_TERM_5DB + (1 - eta) * 0.5
    assert stats.analytic_var == pytest.approx([expected] * 2, abs=1e-12)
    for sample_var, analytic_var, stderr in zip(stats.sample_var, stats.analytic_var, stats.stderr):
        assert abs(sample_var - analytic_var) < 4 * stderr


def test_trajectory_plan_refuses_a_readout_transmission_above_one():
    # LossModel checks the range when the plan is made, not when it runs
    with pytest.raises(ValueError, match=r"^transmission 1\.5 outside \(0, 1\]$"):
        make_shorten_plan(readout={1: 1.5})


def test_trajectory_sample_cov_matches_analytic_cov():
    stats = run_trajectory(make_shorten_plan(), trials=20000, seed=11)
    scale = np.sqrt(2.0 / (stats.trials - 1))
    for i in range(4):
        for j in range(4):
            se = scale * np.sqrt(
                stats.analytic_cov[i, i] * stats.analytic_cov[j, j]
                + stats.analytic_cov[i, j] ** 2
            ) / np.sqrt(2.0)
            assert abs(stats.sample_cov[i, j] - stats.analytic_cov[i, j]) < 5 * max(se, 1e-12)


def test_trajectory_rejects_bad_trials():
    with pytest.raises(ValueError):
        run_trajectory(make_shorten_plan(), trials=0, seed=1)


#: Noise width of make_shorten_plan: two measurement steps, then a two-mode readout.
SHORTEN_WIDTH = 6
LOSSY_READOUT = {1: 0.7, 4: 0.9}


@pytest.mark.parametrize("trials", [1])
@pytest.mark.parametrize("readout", [None, LOSSY_READOUT], ids=["ideal", "lossy"])
def test_trajectory_matches_batch_reference(trials, readout):
    # one trial's mean is m + W z for its own normals, the same numbers in the same order as the reference
    plan = make_shorten_plan(readout=readout)
    assert _readout_map(plan)[1].shape[1] == SHORTEN_WIDTH
    stats = run_trajectory(plan, trials=trials, seed=17)
    ref_forms, ref_cov = batch_trajectory_reference(plan, trials, seed=17)
    assert len(stats.labels) == len(ref_forms)
    for sample_mean, sample_var, (ref_mean, ref_var) in zip(stats.sample_mean, stats.sample_var, ref_forms):
        assert sample_mean == pytest.approx(ref_mean, rel=1e-12, abs=1e-12)
        assert sample_var is None and ref_var is None
    assert np.isnan(stats.sample_cov).all() and np.isnan(ref_cov).all()


@pytest.mark.parametrize(
    "trials, n_seeds", [(50, 2000), (SHORTEN_WIDTH + 1, 1000), (2, 2000), (3, 2000), (SHORTEN_WIDTH, 1000)]
)
def test_trajectory_sufficient_statistics_follow_their_laws(trials, n_seeds):
    # Over seeds, a form's sample variance is v chi2(T-1)/(T-1) and its
    # sample mean N(0, v/T); the sample covariance averages to the analytic one.
    # T = width + 1 is the smallest trial count with a square Bartlett factor;
    # T <= width draws the singular Wishart law through a rank T - 1 factor.
    plan = make_shorten_plan(readout=LOSSY_READOUT)
    runs = [run_trajectory(plan, trials=trials, seed=seed) for seed in range(n_seeds)]
    n, dof = len(runs), trials - 1
    analytic = np.array(runs[0].analytic_var)
    ratios = np.array([r.sample_var for r in runs]) / analytic
    means = np.array([r.sample_mean for r in runs])
    ratio_sd, kurtosis = np.sqrt(2.0 / dof), 3.0 + 12.0 / dof
    assert np.all(np.abs(ratios.mean(axis=0) - 1.0) < 5 * ratio_sd / np.sqrt(n))
    sd_se = ratio_sd * np.sqrt((kurtosis - 1.0) / (4 * n))
    assert np.all(np.abs(ratios.std(axis=0, ddof=1) - ratio_sd) < 5 * sd_se)
    mean_sd = np.sqrt(analytic / trials)
    assert np.all(np.abs(means.mean(axis=0)) < 5 * mean_sd / np.sqrt(n))
    assert np.all(np.abs(means.std(axis=0, ddof=1) - mean_sd) < 5 * mean_sd / np.sqrt(2 * (n - 1)))
    cov = runs[0].analytic_cov
    cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / dof / n)
    average = np.mean([r.sample_cov for r in runs], axis=0)
    assert np.all(np.abs(average - cov) < 5 * np.maximum(cov_se, 1e-12))


def ring_route_check_plan(monkeypatch):
    """The Monte Carlo plan the ring-route-check scenario builds, calibrated loss included."""
    plans = []

    def capture(plan, trials, seed):
        plans.append(plan)
        return run_trajectory(plan, trials, seed)

    monkeypatch.setattr(experiments, "run_trajectory", capture)
    experiments.run(experiments.ExperimentConfig(scenario="ring-route-check", trials=1))
    return plans[0]


def make_signed64_plan(readout=None):
    """64-mode signed wire at 5 dB with node 30 removed."""
    wire = signed_wire(64)
    return TrajectoryPlan(
        state=build_canonical(wire, 5.0),
        steps=removal_steps(wire, 30),
        record=nullifiers_of(wire.with_node_removed(30)),
        readout_efficiency=readout,
    )


ANALYTIC_PLANS = {
    "lossy-shorten": lambda monkeypatch: make_shorten_plan(readout=LOSSY_READOUT),
    "ring-route-check": ring_route_check_plan,
    "lossless": lambda monkeypatch: make_shorten_plan(),
    # a different readout loss per node
    "signed64-lossy-readout": lambda monkeypatch: make_signed64_plan(
        readout={node: 0.6 + 0.1 * (node % 4) for node in range(1, 65) if node != 30}
    ),
}


@pytest.mark.parametrize("trials", [1, 2, 100_000])
@pytest.mark.parametrize("name", ANALYTIC_PLANS)
def test_trajectory_analytic_var_is_the_ensemble_reference(monkeypatch, name, trials):
    # the readout map's |W^T c|^2 against a second pass: ensemble, readout loss, variances
    plan = ANALYTIC_PLANS[name](monkeypatch)
    _, reference = ensemble_readout_reference(plan)
    stats = run_trajectory(plan, trials=trials, seed=5)
    assert len(stats.analytic_var) == len(reference) > 0
    assert stats.analytic_var == pytest.approx(list(reference), rel=1e-12, abs=0)


def test_readout_precision_loss_raises_without_an_eigh_fallback(monkeypatch):
    # Lossless at 80 dB the survivors' readout covariance spans about 1e-8
    # to 1e8, and Cholesky refuses it as not positive definite; the refusal
    # leaves run_trajectory, and no second factorisation is tried.
    eigh, eigh_calls = np.linalg.eigh, []

    def spy(matrix, *args, **kwargs):
        eigh_calls.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    wire = signed_wire(16)
    plan = TrajectoryPlan(
        state=build_canonical(wire, 80.0),
        steps=removal_steps(wire, 8),
        record=nullifiers_of(wire.with_node_removed(8)),
    )
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        run_trajectory(plan, trials=1000, seed=3)
    assert eigh_calls == []


def test_trajectory_memory_does_not_scale_with_trials_times_modes():
    plan = make_signed64_plan()
    tracemalloc.start()
    try:
        stats = run_trajectory(plan, trials=100_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.trials == 100_000
    # the trials x 2N batch alone would be 100_000 * 126 * 8 bytes = 96 MiB
    assert peak < 64 * 2**20


def test_trajectory_cost_does_not_grow_with_trials():
    plan = make_signed64_plan()
    peaks, seconds = {}, {}
    for trials in (10**3, 10**12):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            stats = run_trajectory(plan, trials=trials, seed=3)
            seconds[trials] = time.perf_counter() - start
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for sample_var, analytic_var, stderr in zip(stats.sample_var, stats.analytic_var, stats.stderr):
            assert abs(sample_var - analytic_var) < 5 * stderr
    assert abs(peaks[10**12] - peaks[10**3]) < 0.1 * peaks[10**3]
    assert seconds[10**12] < 1.0


TRIANGLE = ClusterGraph.from_edges([(1, 2), (2, 3), (1, 3)])
# inner node 3 of the segment 1-2-3 has the two outer neighbours 4 and 5
FORKED = ClusterGraph.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])
WIRE4 = ClusterGraph.linear_wire(4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: shorten_steps(TRIANGLE, 1, 2), "outer node 3 closes a loop; shortening needs distinct ends"),
        (lambda: shorten_steps(FORKED, 2, 3), "inner node 3 must have exactly one neighbor besides 2"),
        (
            lambda: execute_ensemble(build_canonical(WIRE4, 5.0), removal_steps(WIRE4, 4) * 2),
            "node 4 already measured or absent",
        ),
        (
            lambda: execute_conditional(build_canonical(WIRE4, 5.0), removal_steps(WIRE4, 4), values=[1.0, 2.0]),
            "need one forced value per step",
        ),
    ],
    ids=["triangle", "forked-inner-node", "repeated-removal", "two-values-for-one-step"],
)
def test_bad_plan_raises_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "nodes", [(0, 1, 2, 3), (2, 1, 3, 4), (1, 2, 3, 5)], ids=["default-ids", "reordered", "renamed"]
)
def test_shaping_refuses_a_state_on_other_nodes(nodes):
    # remove_node and shorten_wire pair the state's modes with the graph's nodes by id, never by position
    canonical = build_canonical(WIRE4, 5.0)
    state = GaussianState(canonical.mean, canonical.cov, nodes)
    message = f"state nodes {nodes} are not the graph's nodes (1, 2, 3, 4)"
    for shape in (lambda: remove_node(state, WIRE4, 4), lambda: shorten_wire(state, WIRE4, (2, 3))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            shape()
        assert type(info.value) is ValueError
