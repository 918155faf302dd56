"""Homodyne measurement, feedforward, and cluster shaping.

Shaping a cluster means measuring chosen nodes and displacing survivors
by gain-weighted outcomes.  Every measurement goes through one
conditioning kernel; three execution semantics differ only in how they
treat the means, and all are exact:

* conditional: sample (or force) outcomes and track the conditioned
  state of the survivors, one trajectory at a time;
* trajectory: Monte Carlo in noise space; each trial's readout is an affine
  map m + W z of its own normals, drawn in O(width^2) time and memory
  whatever the trial count, with width = steps + 2N;
* ensemble: average over outcomes analytically.  Each measure-and-displace
  step acts on (mean, cov) as the linear map A = P + G u^T, with P the
  keep-rows projector, u the measured-quadrature selector, and G the
  column of feedforward gains.  The ensemble covariance A V A^T equals
  conditional covariance plus the covariance of the conditional means, so
  it is what a variance measurement over many trajectories converges to.

The ensemble picture is the one in which shaping preserves nullifier
variances exactly, with or without loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import GaussianState, LossModel, _integer, _mix_vacuum, _real, _shown, quadrature_selector
from .graphs import ClusterGraph, NullifierTable

__all__ = [
    "MARGINAL_VARIANCE_FLOOR",
    "HomodyneOutcome",
    "MeasurementStep",
    "FeedforwardTarget",
    "ShapingResult",
    "removal_steps",
    "shorten_steps",
    "execute_ensemble",
    "execute_conditional",
    "remove_node",
    "shorten_wire",
    "TrajectoryPlan",
    "TrajectoryStats",
    "run_trajectory",
]

#: Marginal variances below this signal a near-eigenstate quadrature;
#: conditioning on one would divide by ~0 and must fail loudly instead.
MARGINAL_VARIANCE_FLOOR = 1e-12

#: Rows per block of a conditional step's rank-one term: two blocks at once, under 1/16 covariance past 2N = 512.
_ROWS = 16

@dataclass(frozen=True)
class HomodyneOutcome:
    """Record of one homodyne detection.

    Attributes:
        mode: graph node id of the measured mode.
        angle: measured quadrature angle, 0 = x, pi/2 = p.
        value: measured value, or None in outcome-averaged execution.
        marginal_mean: mean of the measured quadrature before detection.
        marginal_var: variance of the measured quadrature before detection.
    """

    mode: int
    angle: float
    value: float | None
    marginal_mean: float
    marginal_var: float


@dataclass(frozen=True)
class FeedforwardTarget:
    """Displacement of one survivor by gain times the step's outcome.

    Attributes:
        node: graph node id of the displaced survivor, an integer (README, value kinds).
        quadrature: displaced quadrature, "x" or "p".
        gain: multiplier on the measured value, a real.
    """

    node: int
    quadrature: str
    gain: float

    def __post_init__(self):
        object.__setattr__(self, "node", _integer("node id", self.node))
        if self.quadrature not in ("x", "p"):
            raise ValueError("target quadrature must be 'x' or 'p'")
        object.__setattr__(self, "gain", _real("feedforward gain", self.gain))


@dataclass(frozen=True)
class MeasurementStep:
    """One node measurement plus the displacements its outcome drives: an integer node, a real angle (README)."""

    node: int
    angle: float
    feedforward: tuple

    def __post_init__(self):
        object.__setattr__(self, "node", _integer("node id", self.node))
        object.__setattr__(self, "angle", _real("measurement angle", self.angle))


@dataclass(frozen=True)
class ShapingResult:
    """Record of one shaping; the state's nodes are graph.nodes.

    steps are the executed measurements with one outcome each, and
    new_edges the (i, j, sign) bonds the shaping added to graph.
    """

    state: GaussianState
    graph: ClusterGraph
    steps: tuple
    outcomes: tuple
    new_edges: tuple

    @property
    def removed(self) -> tuple:
        """Measured node ids, in measurement order."""
        return tuple(step.node for step in self.steps)


# ---------------------------------------------------------------------------
# shaping step construction
# ---------------------------------------------------------------------------


def removal_steps(graph: ClusterGraph, node: int, gain: float = -1.0) -> list:
    """Measurement plan deleting one node while keeping its neighbors' correlations.

    Measures x of the node; every neighbor i receives the displacement
    p_i += gain * sign(i, node) * outcome.  The default gain -1 makes the
    surviving nullifiers identical to the original ones as operators, so
    their variances are untouched.
    """
    graph.index_of(node)
    gain = _real("feedforward gain", gain)
    targets = tuple(
        FeedforwardTarget(nbr, "p", gain * graph.sign(nbr, node))
        for nbr in graph.neighbors(node)
    )
    return [MeasurementStep(node=node, angle=0.0, feedforward=targets)]


def shorten_steps(graph: ClusterGraph, inner_a: int, inner_b: int, gain: float = -1.0):
    """Measurement plan removing two adjacent inner nodes of a wire segment.

    For the segment o1 - a - b - o2 the plan measures p_a and p_b and
    displaces the outer nodes: p_o2 += gain*s(a,b)*s(b,o2)*outcome(p_a)
    and p_o1 += gain*s(o1,a)*s(a,b)*outcome(p_b).  With the default gain
    -1 the outer nodes end up directly bonded by an edge whose sign is
    -s(o1,a)*s(a,b)*s(b,o2), and the two new nullifiers equal differences
    of original ones.

    Returns:
        (steps, (o1, o2, new_edge_sign)).

    Raises:
        ValueError: if a or b has neighbors beyond the segment, the outer
            nodes coincide, or they are already adjacent.
    """
    gain = _real("feedforward gain", gain)
    if not graph.has_edge(inner_a, inner_b):
        raise ValueError(f"inner nodes {inner_a} and {inner_b} are not adjacent")
    nbrs_a = set(graph.neighbors(inner_a)) - {inner_b}
    nbrs_b = set(graph.neighbors(inner_b)) - {inner_a}
    if len(nbrs_a) != 1:
        raise ValueError(f"inner node {inner_a} must have exactly one neighbor besides {inner_b}")
    if len(nbrs_b) != 1:
        raise ValueError(f"inner node {inner_b} must have exactly one neighbor besides {inner_a}")
    outer_1 = nbrs_a.pop()
    outer_2 = nbrs_b.pop()
    if outer_1 == outer_2:
        raise ValueError(f"outer node {outer_1} closes a loop; shortening needs distinct ends")
    if graph.has_edge(outer_1, outer_2):
        raise ValueError(f"outer nodes {outer_1} and {outer_2} are already adjacent")

    s1 = graph.sign(outer_1, inner_a)
    s2 = graph.sign(inner_a, inner_b)
    s3 = graph.sign(inner_b, outer_2)
    half_pi = np.pi / 2
    steps = [
        MeasurementStep(
            node=inner_a,
            angle=half_pi,
            feedforward=(FeedforwardTarget(outer_2, "p", gain * s2 * s3),),
        ),
        MeasurementStep(
            node=inner_b,
            angle=half_pi,
            feedforward=(FeedforwardTarget(outer_1, "p", gain * s1 * s2),),
        ),
    ]
    new_sign = -s1 * s2 * s3
    return steps, (outer_1, outer_2, new_sign)


# ---------------------------------------------------------------------------
# step execution
# ---------------------------------------------------------------------------


def _condition(cov: np.ndarray, order: list, step: MeasurementStep):
    """Measure-and-condition kernel shared by every execution semantics.

    Removes step.node from order and returns (u, idx, var, vu, gains, kept):
    the quadrature selector, the survivors' xxpp indices, the marginal
    variance u^T V u, the gain vu = (V u)[idx], the feedforward column over
    the survivors' quadratures, and a new array holding V[idx, idx].  An
    outcome y maps a mean m to m[idx] + (y - u^T m) vu / var + y gains and,
    for any y, the covariance to V[idx, idx] - vu vu^T / var.
    """
    if step.node not in order:
        raise ValueError(f"node {step.node} already measured or absent")
    n = len(order)
    mode = order.index(step.node)
    u = quadrature_selector(n, mode, step.angle)
    marginal_var = float(u @ cov @ u)
    if marginal_var < MARGINAL_VARIANCE_FLOOR:
        raise ValueError(
            f"measured quadrature variance {marginal_var:.3e} below floor at node {step.node}; "
            "near-eigenstate quadratures cannot be conditioned on"
        )
    del order[mode]
    idx = [i for i in range(2 * n) if i % n != mode]
    # idx is three runs of V's indices, so V[idx, idx] is nine block copies
    cuts = (0, mode, n - 1 + mode, 2 * n - 2)
    runs = [(slice(a, b), slice(a + k, b + k)) for k, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    kept = np.empty((len(idx), len(idx)))
    for rows, source_rows in runs:
        for cols, source_cols in runs:
            kept[rows, cols] = cov[source_rows, source_cols]
    gains = np.zeros(len(idx))
    for target in step.feedforward:
        if target.node not in order:
            raise ValueError(f"feedforward target {target.node} is not a surviving node")
        k = order.index(target.node)
        gains[k if target.quadrature == "x" else len(order) + k] += target.gain
    return u, idx, marginal_var, (cov @ u)[idx], gains, kept


def execute_ensemble(state: GaussianState, steps: Sequence[MeasurementStep]):
    """Outcome-averaged execution of a measurement plan.

    Args:
        state: input state.
        steps: measurement steps, each on a node of state.nodes that no earlier step measured.

    Returns:
        (final state, outcome records with value None); the final state's nodes are the survivors.
    """
    order = list(state.nodes)
    mean, cov, outcomes = state.mean, state.cov, []
    for step in steps:
        u, idx, marginal_var, vu, gains, cov = _condition(cov, order, step)
        projection = float(u @ mean)
        outcomes.append(HomodyneOutcome(step.node, step.angle, None, projection, marginal_var))
        mean = mean[idx] + gains * projection
        # A V A^T, A = P + G u^T: rows of nonzero gains take its terms, their columns the finished rows (it is
        # symmetric), and the other rows only its + 0.0, which turns -0.0 into +0.0
        touched, start = gains.nonzero()[0].tolist(), 0
        for k in touched:
            cov[k] += vu[k] * gains + gains[k] * vu
            cov[k] += marginal_var * (gains[k] * gains)
            cov[start:k] += 0.0
            start = k + 1
        cov[start:] += 0.0
        for k in touched:
            cov[:, k] = cov[k]
    return GaussianState._adopt(mean, cov, tuple(order)), tuple(outcomes)


def _conditional_step(means, cov, order, step, draw):
    """Condition one mean vector or a batch of mean rows on a step's outcomes.

    The rows share one covariance, which the outcomes do not change; Monte
    Carlo sends (1 + steps) noise-loading rows, never a trials x 2N batch.
    draw(projections, var) returns the outcome(s) given the marginal
    mean(s); step.node leaves order.  Returns (means, cov, projections, var, values).
    """
    u, idx, marginal_var, vu, gains, cov = _condition(cov, order, step)
    projections = means @ u
    values = draw(projections, marginal_var)
    means = means[..., idx] + np.multiply.outer(values - projections, vu / marginal_var)
    means += np.multiply.outer(values, gains)
    for rows in (slice(r, r + _ROWS) for r in range(0, len(idx), _ROWS)):
        cov[rows] -= np.outer(vu[rows], vu) / marginal_var
    return means, cov, projections, marginal_var, values


def execute_conditional(
    state: GaussianState,
    steps: Sequence[MeasurementStep],
    values: Sequence[float] | None = None,
    rng: np.random.Generator | None = None,
):
    """Single-trajectory execution with sampled or forced outcomes.

    Args:
        state: input state.
        steps: measurement steps.
        values: forced outcome per step, a real each; sampled from rng when None.
        rng: random generator for sampling.

    Returns:
        (final state, outcome records); the final state's nodes are the survivors.
    """
    order = list(state.nodes)
    if values is None and rng is None:
        raise ValueError("provide outcome values or an rng to sample them")
    if values is not None and len(values := [_real("forced outcome", y) for y in values]) != len(steps):
        raise ValueError("need one forced value per step")

    def sample(projection, marginal_var):
        return float(projection + np.sqrt(marginal_var) * rng.standard_normal())

    mean, cov, outcomes = state.mean, state.cov, []
    for k, step in enumerate(steps):
        draw = sample if values is None else lambda projection, var, y=values[k]: y
        mean, cov, projection, marginal_var, value = _conditional_step(mean, cov, order, step, draw)
        outcomes.append(HomodyneOutcome(step.node, step.angle, value, float(projection), marginal_var))
    return GaussianState._adopt(mean, cov, tuple(order)), tuple(outcomes)


def _shape(state, graph, steps, new_edges) -> ShapingResult:
    """Execute steps outcome-averaged and edit the graph to match."""
    if state.nodes != graph.nodes:
        raise ValueError(f"state nodes {_shown(state.nodes)} are not the graph's nodes {_shown(graph.nodes)}")
    final, outcomes = execute_ensemble(state, steps)
    for step in steps:
        graph = graph.with_node_removed(step.node)
    for i, j, sign in new_edges:
        graph = graph.with_edge(i, j, sign)
    return ShapingResult(final, graph, tuple(steps), outcomes, tuple(new_edges))


def remove_node(state: GaussianState, graph: ClusterGraph, node: int, gain: float = -1.0) -> ShapingResult:
    """Delete one node by an x measurement plus neighbor displacements, outcome-averaged.

    With the default gain the variance of every surviving node's nullifier
    (taken over the output graph, which drops the node and its edges) is
    exactly its pre-removal value.  A conditional removal is
    execute_conditional over removal_steps.

    Args:
        state: state whose nodes are graph.nodes.
        graph: current cluster graph.
        node: node to delete.
        gain: feedforward gain multiplier; -1 is the correlation-keeping
            value, 0 disables feedforward.
    """
    return _shape(state, graph, removal_steps(graph, node, gain=gain), ())


def shorten_wire(state: GaussianState, graph: ClusterGraph, inner: tuple, gain: float = -1.0) -> ShapingResult:
    """Remove two adjacent inner nodes and bond their outer neighbors, outcome-averaged.

    The inner nodes are measured in p and the outer nodes displaced, which
    deletes the pair while the outer nodes inherit a direct edge (sign
    fixed by the segment's signs; -1 on a plain wire).  Each new nullifier
    equals a difference of two original ones, so for the canonical build
    its variance is the sum of the two corresponding input variances.  A
    conditional shortening is execute_conditional over shorten_steps.

    Args:
        state: state whose nodes are graph.nodes.
        graph: current cluster graph.
        inner: the two adjacent inner nodes (a, b).
        gain: feedforward gain multiplier; -1 ideal, 0 disables.
    """
    inner_a, inner_b = inner
    steps, new_edge = shorten_steps(graph, inner_a, inner_b, gain=gain)
    return _shape(state, graph, steps, (new_edge,))


# ---------------------------------------------------------------------------
# Monte Carlo trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryPlan:
    """Everything needed to sample shaping trajectories.

    Attributes:
        state: initial state.
        steps: measurement steps executed in order.
        record: NullifierTable of the forms evaluated on the final state;
            its nodes must survive the steps.
        readout_efficiency: node -> transmission in (0, 1], applied at the
            final variance readout (models detection loss); empty means ideal.
    """

    state: GaussianState
    steps: tuple
    record: NullifierTable
    readout_efficiency: dict = None

    def __post_init__(self):
        eff = LossModel({"readout": dict(self.readout_efficiency or {})}).stages["readout"]
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "readout_efficiency", eff)


@dataclass(frozen=True)
class TrajectoryStats:
    """Ensemble statistics of a trajectory run, one column entry per recorded form.

    Attributes:
        labels: the forms' texts, from the plan's record.
        analytic_var, sample_mean: each form's analytic variance and sample mean.
        sample_var, stderr: each form's sample variance and its standard
            error; None when trials == 1.
        node_order: the surviving nodes, in the covariances' mode order.
    """

    trials: int
    seed: int
    labels: list
    analytic_var: list
    sample_mean: list
    sample_var: list
    stderr: list
    node_order: tuple
    sample_cov: np.ndarray
    analytic_cov: np.ndarray


def _readout_map(plan: TrajectoryPlan):
    """Mean m and noise loading W of a trial's readout m + W z.

    z holds the trial's standard normals, one per step, then 2N_f for the
    readout.  Row 0 of a (1 + steps) x 2N batch through the kernel starts
    at the initial mean and draws no noise; row 1+k starts at zero and
    draws a unit noise at step k only.  Returns (m, W, order).
    """
    order, cov = list(plan.state.nodes), plan.state.cov
    rows = np.vstack([plan.state.mean, np.zeros((len(plan.steps), plan.state.mean.size))])
    for k, step in enumerate(plan.steps):
        unit = np.eye(len(rows))[1 + k]
        rows, cov, *_ = _conditional_step(rows, cov, order, step, lambda y, var: y + np.sqrt(var) * unit)
    eta = [plan.readout_efficiency.get(node, 1.0) for node in order]
    rows, cov_read = _mix_vacuum(rows, cov, eta)
    return rows[0], np.hstack([rows[1:].T, np.linalg.cholesky(cov_read)]), tuple(order)


def run_trajectory(plan: TrajectoryPlan, trials: int, seed: int) -> TrajectoryStats:
    """Sample shaping trajectories and accumulate form statistics.

    Readouts are m + W z (_readout_map) with z i.i.d. standard normal, so
    only z's mean and scatter matter, drawn from their exact independent
    laws: N(0, I/T), and Wishart(T - 1, I) as A A^T with A the width x
    min(T - 1, width) lower-trapezoidal Bartlett factor (Bartlett 1933;
    Odell & Feiveson, JASA 61, 199 (1966)), singular for T <= width
    (Uhlig, Ann. Statist. 22, 395 (1994)).  This takes O(width^2) whatever
    T is.  A form c is reduced to W^T c first: nullifiers cancel at
    loading scale.  The analytic targets |W^T c|^2 and W W^T are the
    ensemble semantics' variances after readout loss.

    Args:
        plan: trajectory plan.
        trials: number of trajectories, an integer from 1 to 2**53.
        seed: generator seed, a non-negative integer.

    Returns:
        TrajectoryStats with per-form statistic columns and the sample covariance
        of the recorded readout values; sample variances are None and the
        sample covariance NaN when trials == 1.

    Raises:
        ValueError: trials outside [1, 2**53], or a trials or seed that is no integer.
        numpy.linalg.LinAlgError: Cholesky finds the readout covariance not
            positive definite, as lost precision leaves it at high squeezing.
    """
    if not 1 <= (trials := _integer("trials", trials)) <= 2**53:  # up to 2**53, T - 1 is exact as a float
        raise ValueError("trials must lie between 1 and 2**53 = 9007199254740992")
    seed = _integer("seed", seed)
    mean, loading, final_order = _readout_map(plan)
    n_read, width = loading.shape
    rng = np.random.default_rng(seed)
    z_mean = rng.standard_normal(width) / np.sqrt(float(trials))
    # Bartlett factor A, width x rank, with scatter A A^T; degrees of freedom in float, so no T overflows int64
    rank = min(trials - 1, width)
    factor = np.tril(rng.standard_normal((width, rank)), -1)
    np.fill_diagonal(factor[:rank], np.sqrt(rng.chisquare(float(trials - 1) - np.arange(rank))))

    rows = plan.record._rows(final_order)  # a state's ids, checked where it was made
    form_loading = rows @ loading
    analytic_vars = np.einsum("ij,ij->i", form_loading, form_loading).tolist()
    sample_means = (rows @ mean + form_loading @ z_mean).tolist()
    sample_vars, stderrs = [None] * len(rows), [None] * len(rows)
    sample_cov = np.full((n_read, n_read), np.nan)
    if trials > 1:
        read_factor, form_factor = loading @ factor, form_loading @ factor
        sample_cov = read_factor @ read_factor.T / (trials - 1)
        variances = np.einsum("ij,ij->i", form_factor, form_factor) / (trials - 1)
        sample_vars, stderrs = variances.tolist(), (variances * np.sqrt(2.0 / (trials - 1))).tolist()
    return TrajectoryStats(
        trials, seed, plan.record.texts, analytic_vars, sample_means, sample_vars, stderrs,
        final_order, sample_cov, loading @ loading.T,
    )
