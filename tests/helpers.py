"""Shared builders for randomized tests, the gate library they use, and references: per-form nullifiers and whole-matrix covariance formulas.

All randomness flows through explicitly seeded generators so every
property loop is reproducible from the test source alone.
"""

import json
import math
import numbers
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from cvshape import (
    VACUUM_VARIANCE,
    ClusterGraph,
    GaussianState,
    apply,
    is_orthogonal,
    is_symplectic,
    squeezed_variance,
    vacuum,
)
from cvshape.criteria import NULLIFIER_BOUND, PAIRWISE_BOUND, CriteriaReport, residual_squeezing_db
from cvshape.decompositions import _FACTOR_TOL, _UNIT_BAND
from cvshape.experiments import emit
from cvshape.gaussian import _SYMMETRY_RTOL, _check_mode, _mix_vacuum, _node_order, quadrature_selector, symplectic_form
from cvshape.graphs import _squeezer_scales, nullifiers_of
from cvshape.shaping import _conditional_step, execute_ensemble


@dataclass(frozen=True)
class Nullifier:
    """Linear quadrature form anchored to one node.

    Graph-derived forms have exactly one p-term with coefficient +1 and
    x-terms with coefficients -sign(edge) over the anchor's neighbors.

    Attributes:
        terms: tuple of (node, quadrature "x"|"p", coefficient).
        label: node id the form is anchored to.
    """

    terms: tuple
    label: int

    def __post_init__(self):
        terms = tuple((int(n), str(q), float(c)) for n, q, c in self.terms)
        for _, q, _ in terms:
            if q not in ("x", "p"):
                raise ValueError("quadrature must be 'x' or 'p'")
        object.__setattr__(self, "terms", terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def coefficient_vector(self, node_order: Sequence[int] | Mapping[int, int]) -> np.ndarray:
        """Length-2N coefficient vector for modes following node_order (ids, or a node -> index map)."""
        index = node_order
        if not isinstance(node_order, Mapping):
            index = {int(node): k for k, node in enumerate(node_order)}
        n = len(index)
        vec = np.zeros(2 * n)
        for node, quad, coeff in self.terms:
            if node not in index:
                raise ValueError(f"form references node {node} outside the node order")
            vec[index[node] + (n if quad == "p" else 0)] += coeff
        return vec

    def describe(self) -> str:
        """Rendering like "p_2 - x_1 + x_3": p-term first, x-terms by node id."""
        ordered = sorted(self.terms, key=lambda t: (t[1] != "p", t[0]))
        pieces = []
        for node, quad, coeff in ordered:
            mag = abs(coeff)
            body = f"{quad}_{node}" if mag == 1.0 else f"{mag:g}*{quad}_{node}"
            if not pieces:
                pieces.append(body if coeff >= 0 else f"-{body}")
            else:
                pieces.append(("+ " if coeff >= 0 else "- ") + body)
        return " ".join(pieces) if pieces else "0"


def nullifiers_reference(graph) -> list:
    """Reference nullifiers: one Nullifier per node from the graph's neighbor and sign queries.

    cvshape.graphs.nullifiers_of builds the same forms as one table from a
    single pass over the sorted edges.
    """
    forms = []
    for node in graph.nodes:
        x_terms = tuple((j, "x", -float(graph.sign(node, j))) for j in graph.neighbors(node))
        forms.append(Nullifier(((node, "p", 1.0),) + x_terms, label=node))
    return forms


def form_vector(form, n_modes: int, node_order=None) -> np.ndarray:
    """Resolve a linear quadrature combination to a length-2N vector.

    Accepts either a raw coefficient vector or any object exposing
    coefficient_vector(node_order), such as a Nullifier.  node_order lists
    node ids in mode order (or maps them to modes); omitted, it is 1..N.
    """
    if hasattr(form, "coefficient_vector"):
        order = range(1, n_modes + 1) if node_order is None else node_order
        if len(order) != n_modes:
            raise ValueError("node order length must match the state's mode count")
        vec = form.coefficient_vector(order)
    else:
        vec = np.asarray(form, dtype=float).reshape(-1)
    if vec.size != 2 * n_modes:
        raise ValueError(f"form has {vec.size} coefficients, expected {2 * n_modes}")
    return vec


def nullifier_rows(table, node_order) -> np.ndarray:
    """Reference dense layout: a NullifierTable's forms as a row matrix over modes in node_order, +0.0 off the terms.

    The criteria and the Monte Carlo read each form's own entries instead.

    Raises:
        ValueError: node_order repeats a node, or misses one a form
            references (the first in row and term order is named).
    """
    return table._rows(_node_order(node_order))


def quadrature_variances(state: GaussianState, rows) -> np.ndarray:
    """Dense reference: variances c^T V c of linear quadrature combinations, one per row c of C.

    One matrix product C V, whose row-wise dot with C is the diagonal of
    C V C^T; NullifierTable.variances reads each form's own entries instead.

    Raises:
        ValueError: rows is not a 2-D matrix with one column per quadrature.
    """
    if np.ndim(rows) != 2 or np.shape(rows)[1] != state.mean.size:
        raise ValueError(f"forms must be a row matrix of {state.mean.size} columns, got shape {np.shape(rows)}")
    return np.einsum("ij,ij->i", rows @ state.cov, rows)


def quadrature_variance(state: GaussianState, form, node_order=None) -> float:
    """Variance of one linear quadrature combination c^T r in the state, through the row evaluator."""
    return float(quadrature_variances(state, form_vector(form, state.n_modes, node_order)[None, :])[0])


def squeezed_vacuum(db: float, quadrature: str = "p") -> GaussianState:
    """Single-mode squeezed vacuum.

    Args:
        db: squeezing level in dB below the vacuum variance; 0 gives vacuum.
        quadrature: which quadrature carries the reduced variance, "x" or "p".

    Returns:
        A pure single-mode state with variances (1/4) 10^(+-db/10).
    """
    low = squeezed_variance(db)
    high = VACUUM_VARIANCE * 10.0 ** (db / 10.0)
    if quadrature == "p":
        diag = [high, low]
    elif quadrature == "x":
        diag = [low, high]
    else:
        raise ValueError("quadrature must be 'x' or 'p'")
    return GaussianState(np.zeros(2), np.diag(diag))


def tensor(*states: GaussianState, nodes=None) -> GaussianState:
    """Product state of the given states, modes concatenated in order, with the given node ids."""
    if not states:
        raise ValueError("need at least one state")
    total = sum(s.n_modes for s in states)
    mean = np.zeros(2 * total)
    cov = np.zeros((2 * total, 2 * total))
    offset = 0
    for s in states:
        n = s.n_modes
        xs = slice(offset, offset + n)
        ps = slice(total + offset, total + offset + n)
        mean[xs] = s.mean[:n]
        mean[ps] = s.mean[n:]
        cov[xs, xs] = s.cov[:n, :n]
        cov[ps, ps] = s.cov[n:, n:]
        cov[xs, ps] = s.cov[:n, n:]
        cov[ps, xs] = s.cov[n:, :n]
        offset += n
    return GaussianState(mean, cov, nodes)


def identity_transform(n_modes: int) -> np.ndarray:
    return np.eye(2 * n_modes)


def phase_shift(n_modes: int, mode: int, theta: float) -> np.ndarray:
    """Reference single-mode phase rotation, as a dense 2N x 2N transform.

    Orientation is fixed package-wide: x -> x cos(theta) - p sin(theta) and
    p -> x sin(theta) + p cos(theta), so theta = pi/2 maps x to -p and p to x.
    """
    _check_mode(n_modes, mode)
    c = np.cos(theta)
    s = np.sin(theta)
    mat = np.eye(2 * n_modes)
    mat[mode, mode] = c
    mat[mode, n_modes + mode] = -s
    mat[n_modes + mode, mode] = s
    mat[n_modes + mode, n_modes + mode] = c
    return mat


def squeeze_gate(n_modes: int, mode: int, db: float, quadrature: str = "p") -> np.ndarray:
    """Single-mode squeezer scaling one quadrature down by 10^(-db/20)."""
    _check_mode(n_modes, mode)
    if db < 0:
        raise ValueError("squeezing level in dB must be non-negative")
    if quadrature not in ("x", "p"):
        raise ValueError("quadrature must be 'x' or 'p'")
    down = 10.0 ** (-db / 20.0)
    mat = np.eye(2 * n_modes)
    if quadrature == "p":
        mat[mode, mode] = 1.0 / down
        mat[n_modes + mode, n_modes + mode] = down
    else:
        mat[mode, mode] = down
        mat[n_modes + mode, n_modes + mode] = 1.0 / down
    return mat


def qnd_gate(n_modes: int, i: int, j: int, gain: float = 1.0) -> np.ndarray:
    """Sum-type two-mode interaction: p_i += gain x_j and p_j += gain x_i.

    Both x quadratures are left untouched, so composing gains g and -g
    gives the identity.
    """
    _check_mode(n_modes, i)
    _check_mode(n_modes, j)
    if i == j:
        raise ValueError("the interaction couples two distinct modes")
    mat = np.eye(2 * n_modes)
    mat[n_modes + i, j] = gain
    mat[n_modes + j, i] = gain
    return mat


def beam_splitter(n_modes: int, i: int, j: int, reflectivity: float) -> np.ndarray:
    """Real beam splitter acting identically on the x and p blocks.

    The 2x2 mixing matrix is [[sqrt(r), sqrt(1-r)], [sqrt(1-r), -sqrt(r)]],
    which is an involution: applying the same splitter twice is the identity.
    """
    _check_mode(n_modes, i)
    _check_mode(n_modes, j)
    if i == j:
        raise ValueError("beam splitter couples two distinct modes")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    c = np.sqrt(reflectivity)
    s = np.sqrt(1.0 - reflectivity)
    mat = np.eye(2 * n_modes)
    for a, b in ((i, j), (n_modes + i, n_modes + j)):
        mat[a, a] = c
        mat[a, b] = s
        mat[b, a] = s
        mat[b, b] = -c
    return mat


def displacement(state: GaussianState, mode: int, quadrature: str, amount: float) -> GaussianState:
    """Shift one quadrature's mean by a classical amount: p_i -> p_i + amount."""
    _check_mode(state.n_modes, mode)
    if quadrature not in ("x", "p"):
        raise ValueError("quadrature must be 'x' or 'p'")
    shift = np.zeros(2 * state.n_modes)
    shift[mode if quadrature == "x" else state.n_modes + mode] = amount
    return GaussianState(state.mean + shift, state.cov, state.nodes)


def random_signed_graph(rng: np.random.Generator, n_min: int = 2, n_max: int = 8):
    """Connected graph with random +/-1 edge signs and per-node squeezing.

    Returns:
        (graph, db_map) with db levels drawn uniformly from [0, 15].
    """
    n = int(rng.integers(n_min, n_max + 1))
    nodes = list(range(1, n + 1))
    edges = []
    for k in range(2, n + 1):
        anchor = int(rng.integers(1, k))
        edges.append((anchor, k, int(rng.choice((-1, 1)))))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = sorted(rng.choice(nodes, size=2, replace=False).tolist())
        if i != j and not any({a, b} == {i, j} for a, b, _ in edges):
            edges.append((i, j, int(rng.choice((-1, 1)))))
    graph = ClusterGraph.from_edges(edges, nodes=nodes)
    db_map = {node: float(rng.uniform(0.0, 15.0)) for node in nodes}
    return graph, db_map


def random_single_mode(rng: np.random.Generator) -> GaussianState:
    """Squeezed, rotated, displaced single-mode state."""
    st = squeezed_vacuum(float(rng.uniform(0.0, 10.0)), "p")
    st = apply(st, phase_shift(1, 0, float(rng.uniform(0.0, np.pi))))
    st = displacement(st, 0, "x", float(rng.uniform(-2.0, 2.0)))
    st = displacement(st, 0, "p", float(rng.uniform(-2.0, 2.0)))
    return st


def random_product_state(rng: np.random.Generator, n: int) -> GaussianState:
    return tensor(*(random_single_mode(rng) for _ in range(n)))


def random_symplectic_state(rng: np.random.Generator, n: int) -> GaussianState:
    """Pure n-mode state from alternating squeezers and random passives."""
    st = vacuum(n)
    for mode in range(n):
        st = apply(st, squeeze_gate(n, mode, float(rng.uniform(0.0, 8.0))))
        st = apply(st, phase_shift(n, mode, float(rng.uniform(0.0, 2 * np.pi))))
    return st


def gate_chain_transform(graph, db_map):
    """Reference canonical symplectic: one p-squeezer per node, one sum gate per edge."""
    n = graph.n_nodes
    t = identity_transform(n)
    for k, node in enumerate(graph.nodes):
        if db_map[node] > 0:
            t = squeeze_gate(n, k, db_map[node], quadrature="p") @ t
    for i, j, sign in graph.edges():
        t = qnd_gate(n, graph.index_of(i), graph.index_of(j), gain=float(sign)) @ t
    return t


def gate_chain_state(graph, db_map):
    """Reference canonical state: squeezed vacua, then one sum gate per edge."""
    st = tensor(*(squeezed_vacuum(db_map[node], "p") for node in graph.nodes), nodes=graph.nodes)
    for i, j, sign in graph.edges():
        st = apply(st, qnd_gate(graph.n_nodes, graph.index_of(i), graph.index_of(j), float(sign)))
    return st


def signed_wire(n: int):
    """Wire 1-2-...-n whose every third edge has sign -1."""
    return ClusterGraph.from_edges(
        [(k, k + 1, -1 if k % 3 == 0 else 1) for k in range(1, n)], nodes=range(1, n + 1)
    )


def star(n: int):
    """Star of n nodes, centre 1 joined to each of 2..n: its adjacency has the zero eigenvalue n - 2 times."""
    return ClusterGraph.from_edges([(1, k) for k in range(2, n + 1)], nodes=range(1, n + 1))


def batch_trajectory_reference(plan, trials: int, seed: int):
    """Reference Monte Carlo: every trial's mean and readout as one trials x 2N batch.

    Draws each step's outcome noise for all trials, then one (trials,
    2N_f) readout draw.  For one trial these are the same numbers in the
    same order as run_trajectory's draw of z; more trials follow the same
    law through other draws.  Returns (per-form (sample_mean, sample_var
    or None), sample_cov).
    """
    rng = np.random.default_rng(seed)

    def sample(projections, marginal_var):
        return projections + np.sqrt(marginal_var) * rng.standard_normal(trials)

    order = list(plan.state.nodes)
    means, cov = plan.state.mean, plan.state.cov
    for step in plan.steps:
        means, cov, _, _, _ = _conditional_step(means, cov, order, step, sample)
    means, cov_read = _mix_vacuum(means, cov, [plan.readout_efficiency.get(node, 1.0) for node in order])
    n = 2 * len(order)
    readout = rng.standard_normal((trials, n)) @ np.linalg.cholesky(cov_read).T + means
    sample_cov = np.full((n, n), np.nan)
    if trials > 1:
        centered = readout - readout.mean(axis=0)
        sample_cov = centered.T @ centered / (trials - 1)
    forms = []
    for row in nullifier_rows(plan.record, order):
        values = readout @ row
        forms.append((float(values.mean()), float(values.var(ddof=1)) if trials > 1 else None))
    return forms, sample_cov


def ensemble_readout_reference(plan):
    """Reference analytic target: a second, outcome-averaged pass through the plan.

    execute_ensemble, then the readout loss mixed in with vacuum, then the
    record's variances on that state.  run_trajectory must give the same
    numbers from its readout map alone.  Returns (state, per-form variances).
    """
    ensemble, _ = execute_ensemble(plan.state, plan.steps)
    eta = [plan.readout_efficiency.get(node, 1.0) for node in ensemble.nodes]
    state = GaussianState(*_mix_vacuum(ensemble.mean, ensemble.cov, eta), ensemble.nodes)
    return state, quadrature_variances(state, nullifier_rows(plan.record, state.nodes))


def _two_mode_elements_reference(t: np.ndarray, i: int) -> list:
    """2x2 unitary on modes (i, i+1) as P(a on i, b on j) B(r) P(p on i, q on j)."""
    j = i + 1
    r = float(np.clip(abs(t[0, 0]) ** 2, 0.0, 1.0))
    elements: list = []
    if abs(t[1, 0]) < 1e-12 or abs(t[0, 1]) < 1e-12:
        if abs(t[0, 1]) < 1e-12:
            elements.append(("phase", i, float(np.angle(t[0, 0]))))
            elements.append(("phase", j, float(np.angle(t[1, 1]))))
        else:
            elements.append(("splitter", i, j, 0.0))
            elements.append(("phase", i, float(np.angle(t[0, 1]))))
            elements.append(("phase", j, float(np.angle(t[1, 0]))))
        return elements
    p = float(np.angle(t[1, 0]))
    a = float(np.angle(t[0, 0])) - p
    q = float(np.angle(t[0, 1])) - a
    elements.append(("phase", i, p))
    elements.append(("phase", j, q))
    elements.append(("splitter", i, j, r))
    elements.append(("phase", i, a))
    return elements


def elements_to_unitary_reference(elements, n: int) -> np.ndarray:
    """Reference element product, the last applied leftmost: one element at a time.

    Validates each element as it comes, builds every 2x2 mixer as its own
    array and gathers the two rows by fancy indexing.
    """
    total = np.eye(n, dtype=complex)
    for element in elements:
        if element[0] == "phase":
            _, mode, theta = element
            total[mode] *= np.exp(1j * theta)
            continue
        _, i, j, r = element
        if i == j:
            raise ValueError("beam splitter couples two distinct modes")
        if not 0.0 <= r <= 1.0:
            raise ValueError("reflectivity must lie in [0, 1]")
        c = np.sqrt(r)
        s = np.sqrt(1.0 - r)
        total[[i, j]] = np.array([[c, s], [s, -c]]) @ total[[i, j]]
    return total


def unitary_to_elements_reference(u: np.ndarray) -> list:
    """Reference adjacent-pair reduction: numpy scalars and one 2x2 array per rotation.

    decompositions.unitary_to_elements must return the same element list,
    compared with ==, and the same recomposition bit for bit.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    work = u.copy()
    rotations: list = []
    for col in range(n):
        for row in range(n - 1, col, -1):
            b = work[row, col]
            if abs(b) <= 1e-14:
                continue
            a = work[row - 1, col]
            g = np.array([[a.conj(), b.conj()], [b, -a]]) / np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            work[row - 1 : row + 1] = g @ work[row - 1 : row + 1]
            rotations.append((row - 1, g))
    elements: list = [("phase", mode, float(np.angle(work[mode, mode]))) for mode in range(n)]
    for i, g in reversed(rotations):
        elements.extend(_two_mode_elements_reference(g.conj().T, i))
    return [e for e in elements if e[0] != "phase" or abs(e[2]) > 1e-12]


def orthogonal_symplectic_to_unitary(matrix: np.ndarray) -> np.ndarray:
    """Complex N x N unitary equivalent to an orthogonal symplectic matrix, checked.

    With the block form [[X, Y], [-Y, X]] acting on xxpp vectors, the mode
    operators transform by U = X - i Y: the expression compile_network
    applies, unchecked, to the O2 that bloch_messiah has checked.
    """
    o = np.asarray(matrix, dtype=float)
    if not (is_orthogonal(o) and is_symplectic(o)):
        raise ValueError("matrix must be orthogonal symplectic")
    n = o.shape[0] // 2
    return o[:n, :n] - 1j * o[:n, n:]


def unitary_to_orthogonal_symplectic(u: np.ndarray) -> np.ndarray:
    """Inverse of orthogonal_symplectic_to_unitary, checked; graphs._real_form is the unchecked expression."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise ValueError("matrix is not unitary")
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def symplectic_gap_reference(matrix: np.ndarray) -> float:
    """Dense reference: the largest entry of |M^T J M - J|, J built; is_symplectic(M, tol) is whether it is <= tol."""
    j = symplectic_form(len(matrix) // 2)
    return float(np.abs(matrix.T @ j @ matrix - j).max())


def orthogonal_gap_reference(matrix: np.ndarray) -> float:
    """Dense reference: the largest entry of |M^T M - I|; is_orthogonal(M, tol) is whether it is <= tol."""
    return float(np.abs(matrix.T @ matrix - np.eye(len(matrix))).max())


def bloch_messiah_reference(matrix: np.ndarray):
    """Reference factorization with J and D built dense: bloch_messiah must return its bytes, or its error."""
    s = np.asarray(matrix, dtype=float)
    size = max(1.0, float(np.abs(s).max()))
    tol = _FACTOR_TOL * size * size
    if not (np.isfinite(tol) and symplectic_gap_reference(s) <= tol):
        raise np.linalg.LinAlgError("input matrix is not symplectic")
    n = s.shape[0] // 2
    j = symplectic_form(n)
    if float(np.abs(s - np.diag(np.diag(s))).max()) <= _FACTOR_TOL * 1e-2:
        d = np.diag(np.abs(np.diag(s)))
        o2 = np.eye(2 * n)
    else:
        left, sigma, _ = np.linalg.svd(s)
        upper = int(np.count_nonzero(sigma > 1.0 + _UNIT_BAND))
        unit = left[:, np.abs(sigma - 1.0) <= _UNIT_BAND]
        basis = np.linalg.svd(unit[:n] + 1j * unit[n:], full_matrices=False)[0][:, : unit.shape[1] // 2]
        chosen = []
        for col in np.hstack([left[:, :upper], np.vstack([basis.real, basis.imag])]).T:
            first = next((entry for entry in col if abs(entry) > 1e-10), 1.0)
            chosen.append(col if first > 0 else -col)
        if len(chosen) != n:
            raise np.linalg.LinAlgError(f"collected {len(chosen)} squeezer directions, expected {n}")
        v_cols = np.array(chosen).T
        lam = np.concatenate([sigma[:upper], np.ones(n - upper)])
        o2 = np.hstack([v_cols, -(j @ v_cols)])
        d = np.diag(np.concatenate([lam, 1.0 / lam]))
    o1 = (o2.T @ s) / np.diag(d)[:, None]
    for name, o in (("left", o2), ("right", o1)):
        if not (orthogonal_gap_reference(o) <= 10 * _FACTOR_TOL and symplectic_gap_reference(o) <= 10 * _FACTOR_TOL):
            raise np.linalg.LinAlgError(f"{name} factor failed the orthogonal-symplectic check")
    if float(np.abs(o2 @ d @ o1 - s).max()) > _FACTOR_TOL:
        raise np.linalg.LinAlgError("factorization does not recompose to the input matrix")
    return o2, d, o1


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def report_json_reference(tree) -> str:
    """Reference JSON report text: a copy of `tree` with every float rounded, then json.dumps.

    Two passes: the rounded copy, then json's indent encoder.  emit's
    one-pass writer must produce the same text, less the final newline.
    """
    return json.dumps(_round_floats(tree), indent=2)


def criteria_tree(report: CriteriaReport) -> dict:
    """A criteria report as the tree of its JSON section: one dict per nullifier, pair and residual row."""
    table, bound = report.table, NULLIFIER_BOUND
    return {
        "nullifiers": [
            {"node": node, "form": form, "variance": v, "bound": bound, "pass": v < bound, "db": db}
            for node, form, v, db in zip(table.labels, table.texts, report.variances, report.db)
        ],
        "pairwise": [
            {"pair": [i, j], "sum_variance": s, "bound": PAIRWISE_BOUND, "pass": s < PAIRWISE_BOUND}
            for (i, j, _), s in zip(table.edges, report.sums)
        ],
        "residual_squeezing": [
            {"node": node, "squeezed_db": low, "antisqueezed_db": high, "angle": angle}
            for node, low, high, angle in report.residuals
        ],
        "all_pass": report.all_pass,
    }


def report_tree(report, include_timing: bool = False) -> dict:
    """A run's report as a tree of dicts, lists and scalars: emit's JSON text is report_json_reference of it."""
    loss, mc = report.loss_model, report.monte_carlo
    config = report.config.to_dict()
    config["loss"] = loss.to_dict()
    config["composite_efficiency"] = loss.composite_efficiency(report.node_order[0]) if report.node_order else 1.0
    final = criteria_tree(report.final_criteria)
    tree = {
        "schema_version": "1",
        "config": config,
        "node_order": list(report.node_order),
        "initial_criteria": criteria_tree(report.initial_criteria),
        "transcript": [dict(entry) for entry in report.transcript],
        "final_node_order": list(report.final_node_order),
        "final_criteria": final,
        "residual_squeezing": final["residual_squeezing"],
        "monte_carlo": None if mc is None else {
            "trials": mc.trials,
            "seed": mc.seed,
            "forms": [
                {"form": f, "analytic_var": a, "sample_mean": m, "sample_var": v, "stderr": e}
                for f, a, m, v, e in zip(mc.labels, mc.analytic_var, mc.sample_mean, mc.sample_var, mc.stderr)
            ],
        },
        "ring_route": report.ring_route,
        "all_pass": final["all_pass"],
    }
    if include_timing:
        tree["wall_time_s"] = report.wall_time_s
    return tree


def emit_as(report, fmt: str) -> str:
    """emit's text of a run's report in the format fmt, written to no file."""
    return emit(replace(report, config=replace(report.config, format=fmt, output=None)))


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_tokens_reference(value, out: list, pad: str) -> list:
    """Reference report writer: an isinstance chain with one recursive call per value."""
    if value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(float(format(value, ".6g")))
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{"
        for key, item in value.items():
            out += (sep, inner, encode_basestring_ascii(key), ": ")
            json_tokens_reference(item, out, inner)
            sep = ","
        out.append(pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = pad + "  ", "["
        for item in value:
            out += (sep, inner)
            json_tokens_reference(item, out, inner)
            sep = ","
        out.append(pad + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return out


def nullifier_db_reference(variance: float, k: int) -> float:
    """Scalar dB of one variance against the k-term vacuum level k/4."""
    if not 0 < variance < np.inf:
        raise ValueError(f"variance must be positive and finite to convert to dB, got {variance}")
    return float(10.0 * np.log10(variance / (k * VACUUM_VARIANCE)))


def nullifier_variances_reference(state, forms, eta=None) -> list:
    """Per-term reference: each form's variance as a scalar loop over the pairs of its terms.

    The pairs run in term order, p-term first, and each pair adds
    (c_a c_b) view_ab to a total that starts at 0.0, where view_ab =
    (sqrt(eta_a) sqrt(eta_b)) V_ab, plus (1 - eta_a)/4 when a = b: the
    scalar arithmetic and order of NullifierTable.variances.
    """
    n, cov = state.n_modes, state.cov.tolist()
    mode = {node: k for k, node in enumerate(state.nodes)}
    eta = [1.0] * n if eta is None else [float(e) for e in eta]
    variances = []
    for form in forms:
        total = 0.0
        for node_a, quad_a, c_a in form.terms:
            for node_b, quad_b, c_b in form.terms:
                a, b = mode[node_a] + (n if quad_a == "p" else 0), mode[node_b] + (n if quad_b == "p" else 0)
                view = (math.sqrt(eta[a % n]) * math.sqrt(eta[b % n])) * cov[a][b]
                if a == b:
                    view += (1.0 - eta[a % n]) * VACUUM_VARIANCE
                total += (c_a * c_b) * view
        variances.append(total)
    return variances


def check_cluster_criteria_reference(state, graph, loss=None) -> CriteriaReport:
    """Reference criteria: per-term scalar variances and one scalar dB per form, pairs by lookup.

    The columns are filled form by form, in the order of the graph's
    NullifierTable, whose rows the reference forms match one for one.  The
    detection stage of loss, if given, is read per mode; a residual row
    reads the detection view of the whole state.
    """
    order = state.nodes
    table, forms = nullifiers_of(graph), nullifiers_reference(graph)
    assert [(f.label, f.describe(), f.n_terms) for f in forms] == list(zip(table.labels, table.texts, table.counts))
    for form in forms:
        form_vector(form, len(order), order)  # a form on a node outside the order raises its ValueError
    eta = None if loss is None else [loss.efficiency("detection", node) for node in order]
    variance_of, variances, db = {}, [], []
    for form, var in zip(forms, nullifier_variances_reference(state, forms, eta)):
        variance_of[form.label] = var
        variances.append(var)
        db.append(nullifier_db_reference(var, form.n_terms))
    sums = [variance_of[i] + variance_of[j] for i, j, _ in graph.edges()]
    view = state if loss is None else loss.apply_stage(state, "detection")
    residuals = [
        (form.label, *residual_squeezing_db(view, order.index(form.label))) for form in forms if form.n_terms == 1
    ]
    return CriteriaReport(table, variances, db, sums, residuals)


#: The leaf types a report may hold: the writer looks each scalar's text up by exact type.
REPORT_SCALARS = {int, float, bool, str, type(None)}


def leaf_types(value) -> set:
    """Exact types of every value below nested dicts, lists and tuples."""
    if isinstance(value, dict):
        return set().union(*map(leaf_types, value.values()))
    if isinstance(value, (list, tuple)):
        return set().union(*map(leaf_types, value))
    return {type(value)}


# Whole-matrix formulas that the tiled and in-place covariance kernels replaced, kept verbatim.


def symmetrized_reference(cov) -> np.ndarray:
    """GaussianState's symmetry check and average over the whole matrix at once."""
    cov = np.asarray(cov, dtype=float)
    scale = max(1.0, float(np.abs(cov).max()))
    if float(np.abs(cov - cov.T).max()) > _SYMMETRY_RTOL * scale:
        raise ValueError("covariance matrix must be symmetric")
    return 0.5 * (cov + cov.T)


def mix_vacuum_reference(mean, cov, eta) -> tuple:
    """Vacuum mixing with the covariance scaled by a separate np.outer product."""
    eta = np.asarray(eta, dtype=float)
    if not np.all((eta > 0.0) & (eta <= 1.0)):
        raise ValueError("transmission eta must lie in (0, 1]")
    eta = np.concatenate([eta, eta])
    root = np.sqrt(eta)
    cov = cov * np.outer(root, root)
    cov[np.diag_indices_from(cov)] += (1.0 - eta) * VACUUM_VARIANCE
    return mean * root, cov


def _survivors_reference(cov, mode: int, angle: float):
    n = len(cov) // 2
    u = quadrature_selector(n, mode, angle)
    keep = [m for m in range(n) if m != mode]
    idx = keep + [n + m for m in keep]
    return u, idx, float(u @ cov @ u), (cov @ u)[idx]


def ensemble_step_reference(mean, cov, mode: int, angle: float, gains) -> tuple:
    """One outcome-averaged step with an np.ix_ gather and whole-matrix outer products."""
    u, idx, marginal_var, vu = _survivors_reference(cov, mode, angle)
    projection = float(u @ mean)
    cross = np.outer(vu, gains)
    mean = mean[idx] + gains * projection
    cov = cov[np.ix_(idx, idx)] + (cross + cross.T) + marginal_var * np.outer(gains, gains)
    return mean, cov


def conditional_step_reference(mean, cov, mode: int, angle: float, gains, value: float) -> tuple:
    """One forced-outcome step with an np.ix_ gather and a whole-matrix outer product."""
    u, idx, marginal_var, vu = _survivors_reference(cov, mode, angle)
    projection = mean @ u
    mean = mean[idx] + np.multiply.outer(value - projection, vu / marginal_var)
    mean += np.multiply.outer(value, gains)
    cov = cov[np.ix_(idx, idx)] - np.outer(vu, vu) / marginal_var
    return mean, cov


def canonical_cov_reference(graph, db) -> np.ndarray:
    """The canonical covariance [[Vx, Vx A], [A Vx, A Vx A + Vp]] assembled by np.block."""
    up, down = _squeezer_scales(graph, db)
    a, vx, vp = graph.adjacency_matrix(), VACUUM_VARIANCE * up * up, VACUUM_VARIANCE * down * down
    vx_a = vx[:, None] * a
    return np.block([[np.diag(vx), vx_a], [vx_a.T, a @ vx_a + np.diag(vp)]])


def format_graph_text(graph, db=None) -> str:
    """Reference inverse of parse_graph_text: every level in db, 0 included, and no db for a node db leaves out."""
    lines = [f"node {n} db={float(db[n])!r}" if db is not None and n in db else f"node {n}" for n in graph.nodes]
    lines += [f"edge {i} {j} sign={sign}" if sign != 1 else f"edge {i} {j}" for i, j, sign in graph.edges()]
    return "\n".join(lines) + "\n"


_CHECK_SCHEMA = {
    "type": "object",
    "required": ["node", "form", "variance", "bound", "pass", "db"],
    "properties": {
        "node": {"type": "integer"},
        "form": {"type": "string"},
        "variance": {"type": "number"},
        "bound": {"type": "number"},
        "pass": {"type": "boolean"},
        "db": {"type": "number"},
    },
}

_CRITERIA_SCHEMA = {
    "type": "object",
    "required": ["nullifiers", "pairwise", "residual_squeezing", "all_pass"],
    "properties": {
        "nullifiers": {"type": "array", "items": _CHECK_SCHEMA},
        "pairwise": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pair", "sum_variance", "bound", "pass"],
                "properties": {
                    "pair": {"type": "array", "items": {"type": "integer"}},
                    "sum_variance": {"type": "number"},
                    "bound": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
        "residual_squeezing": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["node", "squeezed_db", "antisqueezed_db", "angle"],
            },
        },
        "all_pass": {"type": "boolean"},
    },
}

#: JSON report schema, version 1.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version",
        "config",
        "node_order",
        "initial_criteria",
        "transcript",
        "final_node_order",
        "final_criteria",
        "residual_squeezing",
        "monte_carlo",
        "ring_route",
        "all_pass",
    ],
    "properties": {
        "schema_version": {"const": "1"},
        "config": {"type": "object"},
        "node_order": {"type": "array", "items": {"type": "integer"}},
        "initial_criteria": _CRITERIA_SCHEMA,
        "transcript": {"type": "array", "items": {"type": "object"}},
        "final_node_order": {"type": "array", "items": {"type": "integer"}},
        "final_criteria": _CRITERIA_SCHEMA,
        "residual_squeezing": {"type": "array"},
        "monte_carlo": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["trials", "seed", "forms"],
                    "properties": {
                        "trials": {"type": "integer"},
                        "seed": {"type": "integer"},
                        "forms": {"type": "array"},
                    },
                },
            ]
        },
        "ring_route": {"anyOf": [{"type": "null"}, {"type": "object"}]},
        "all_pass": {"type": "boolean"},
        "wall_time_s": {"type": "number"},
    },
}


# ---------------------------------------------------------------------------
# values of every kind, for the config's and the library's value checks
# ---------------------------------------------------------------------------

#: The strs a config value may take; each also names a wire graph file in the working directory.
CONFIG_TEXTS = ("remove-edge", "canonical", "json", "detection", "5")
_INTS = st.integers(-2, 40)
_REALS = st.floats(-2.0, 40.0) | st.sampled_from((1.5, math.nan, math.inf, -math.inf))
CONFIG_VALUES = st.one_of(
    _INTS, _INTS.map(np.int64), _INTS.map(np.int32), _REALS, _REALS.map(np.float64), _REALS.map(np.float32),
    st.fractions(-2, 40, max_denominator=8), _REALS.map(Decimal), st.sampled_from(CONFIG_TEXTS),
    st.sampled_from((10**400, -(10**400))), st.booleans(), st.none(), st.lists(_INTS, max_size=3),
    # values whose repr passes the int-to-str digit limit (hypothesis's own @example would print them)
    st.sampled_from((Fraction(10**5000, 3), [10**5000], 10**5000)),
)


def plain_twin(value):
    """The value as the Python int or float it equals (a real past the float range as +-inf); any other as itself."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
