"""Entanglement criteria and squeezing reports.

The verification unit is the nullifier variance.  A state passes the
cluster criterion when every nullifier variance sits strictly below 1/2,
and the pairwise criterion when the variance sum of each adjacent pair
sits strictly below 1.  Variances are reported both raw and in dB
relative to the vacuum level of the form, k/4 for a k-term form, so the
choice of reference can never hide in a log scale.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .gaussian import GaussianState, LossModel, VACUUM_VARIANCE
from .graphs import ClusterGraph, NullifierTable, nullifiers_of

__all__ = [
    "NULLIFIER_BOUND",
    "PAIRWISE_BOUND",
    "CriteriaReport",
    "check_cluster_criteria",
    "residual_squeezing_db",
    "nullifier_db",
]

#: Each nullifier variance must sit strictly below this for the cluster verdict.
NULLIFIER_BOUND = 0.5

#: Adjacent-pair variance sums must sit strictly below this.
PAIRWISE_BOUND = 1.0


def nullifier_db(variance, n_terms) -> float | np.ndarray:
    """Variance in dB relative to the form's vacuum level k/4; a float, or an array for arrays.

    Args:
        variance: positive, finite variance value, or an array of them.
        n_terms: the form's term count k, or an array of term counts
            matching an array of variances.
    """
    values = np.asarray(variance, dtype=float)
    if values.size and not 0 < values.min() <= values.max() < np.inf:  # a nan minimum fails too
        bad = np.ravel(variance)[~((values > 0) & (values < np.inf)).ravel()]  # as the caller passed them
        raise ValueError(f"variance must be positive and finite to convert to dB, got {bad[0]}")
    k = np.asarray(n_terms) if np.ndim(n_terms) else int(n_terms)
    if np.asarray(k).min(initial=1) < 1:
        raise ValueError("form needs at least one term")
    db = 10.0 * np.log10(values / (k * VACUUM_VARIANCE))
    return float(db) if db.ndim == 0 else db


@dataclass(frozen=True)
class CriteriaReport:
    """Nullifier, pairwise, and residual-squeezing verdicts for one state, as columns.

    Attributes:
        table: the NullifierTable of the checked forms.
        variances: each table row's nullifier variance.
        db: each variance in dB against its form's vacuum level.
        sums: each table edge's adjacent-pair variance sum.
        residuals: (node, squeezed_db, antisqueezed_db, angle) rows, one per
            isolated node.
    """

    table: NullifierTable
    variances: list
    db: list
    sums: list
    residuals: list

    @property
    def all_pass(self) -> bool:
        return all(v < NULLIFIER_BOUND for v in self.variances) and all(s < PAIRWISE_BOUND for s in self.sums)


def residual_squeezing_db(state: GaussianState, mode: int):
    """Principal-axis analysis of one mode's 2x2 marginal covariance; a LinAlgError if it is not positive definite.

    Returns:
        (squeezed_db, antisqueezed_db, angle): min and max variance in dB
        relative to 1/4, and the angle of the minimum-variance direction
        in [0, pi).  A fully symmetric marginal reports angle 0.
    """
    values, vectors = np.linalg.eigh(state.marginal([mode]).cov)
    low, high = values  # numpy scalars: a level past the float range overflows under the caller's errstate
    if low <= 0:
        raise np.linalg.LinAlgError("marginal covariance is not positive definite")
    direction = vectors[:, 0]
    angle = float(np.arctan2(direction[1], direction[0])) % np.pi
    if abs(high - low) < 1e-14 * max(1.0, high):
        angle = 0.0
    return (
        float(10.0 * np.log10(low / VACUUM_VARIANCE)),
        float(10.0 * np.log10(high / VACUUM_VARIANCE)),
        angle,
    )


def check_cluster_criteria(
    state: GaussianState, graph: ClusterGraph | NullifierTable, loss: LossModel = LossModel({})
) -> CriteriaReport:
    """Evaluate all nullifier and adjacent-pair criteria for a state, as its detection stage sees it.

    Args:
        state: state to verify; its nodes must include every node a form references.
        graph: cluster graph, whose nullifiers define the forms, or the
            NullifierTable that nullifiers_of already built for it.
        loss: the budget whose "detection" stage each mode is read through; lossless by default.

    Returns:
        CriteriaReport with a variance and dB column over the table's rows,
        a sum column over its edges, and a residual-squeezing row per
        isolated node, each as loss.apply_stage(state, "detection") gives it.

    Raises:
        numpy.linalg.LinAlgError: a variance lost to cancellation, zero or below, or not finite.
    """
    table = graph if isinstance(graph, NullifierTable) else nullifiers_of(graph)
    values = table.variances(state, loss)
    try:
        db = nullifier_db(values, table.counts)
    except ValueError as exc:  # a variance cancelled to zero or below, or not finite: precision lost
        raise np.linalg.LinAlgError(str(exc)) from None
    row = {node: r for r, node in enumerate(table.labels)}
    sums = values[[row[i] for i, _, _ in table.edges]] + values[[row[j] for _, j, _ in table.edges]]
    isolated = [state.marginal([state.nodes.index(node)]) for node, k in zip(table.labels, table.counts) if k == 1]
    residuals = [(one.nodes[0], *residual_squeezing_db(loss.apply_stage(one, "detection"), 0)) for one in isolated]
    return CriteriaReport(table, values.tolist(), db.tolist(), sums.tolist(), residuals)
