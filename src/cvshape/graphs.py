"""Cluster graphs, nullifier algebra, and state constructions.

A cluster graph is a signed simple graph whose nodes label optical modes.
Each node i carries one nullifier, the linear form p_i - sum over
neighbors j of sign(ij) x_j, whose variance vanishes with infinite
squeezing.  Two constructions produce the corresponding Gaussian state:
the canonical build (squeezers plus one sum gate per edge) and a compiled
linear-optics plan (squeezers plus a passive interferometer) derived from
the canonical symplectic by decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .decompositions import (
    _elements_to_unitary,
    _reduce,
    bloch_messiah,
)
from .gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    LossModel,
    _integer,
    _node_order,
    _real,
    _shown,
    squeezed_variance,
)

__all__ = [
    "ClusterGraph",
    "NetworkPlan",
    "NullifierTable",
    "nullifiers_of",
    "build_canonical",
    "canonical_transform",
    "compile_network",
    "preset_wire_network",
    "wire_to_ring_phases",
    "parse_graph_text",
]


def _edge(entry) -> tuple:
    """An (i, j) or (i, j, sign) edge entry as (i, j, sign), the sign +1 when not given."""
    try:
        if len(entry) in (2, 3):
            return (*entry, 1)[:3]
    except TypeError:  # no length: a number, a generator, a 0-d array
        pass
    raise ValueError(f"edge entry must be (i, j) or (i, j, sign), got {_shown(entry)}")


@dataclass(frozen=True, eq=False)
class ClusterGraph:
    """Signed simple graph over integer node ids, built from (i, j) or (i, j, sign) edge entries.

    Attributes:
        nodes: integer node ids (README, value kinds) in mode order; mode k of any matching state is nodes[k].
        signs: (i, j) -> sign +1 or -1 with i < j, in sorted order; an
            entry's sign defaults to +1, and a repeated pair keeps its last.
    """

    nodes: tuple
    signs: dict

    def __init__(self, nodes: Iterable[int], edges: Iterable = ()):
        nodes = tuple([_integer("node id", n) for n in nodes])
        if len(known := set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids")
        if isinstance(edges, Mapping):  # would silently read each key as a +1 edge
            raise TypeError("edges are (i, j) or (i, j, sign) entries, not a mapping")
        signs = {}
        for entry in edges:
            i, j, sign = _edge(entry)
            i, j = sorted((_integer("node id", i), _integer("node id", j)))
            if i == j:
                raise ValueError("edges must join two distinct nodes (no self-loops)")
            if i not in known or j not in known:
                raise ValueError(f"edge {[i, j]} references unknown nodes")
            if (sign := _integer("edge sign", sign)) not in (1, -1):
                raise ValueError("edge signs must be +1 or -1")
            signs[i, j] = sign
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "signs", dict(sorted(signs.items())))

    @classmethod
    def from_edges(cls, edges: Iterable, nodes: Iterable[int] | None = None) -> "ClusterGraph":
        """Build from (i, j) or (i, j, sign) entries; nodes default to the ids they name, checked, then sorted."""
        edges = [_edge(entry) for entry in edges]
        if nodes is None:
            nodes = sorted({_integer("node id", n) for i, j, _ in edges for n in (i, j)})
        return cls(nodes, edges)

    @classmethod
    def linear_wire(cls, n: int) -> "ClusterGraph":
        """Path graph 1-2-...-n with all edge signs +1."""
        if (n := _integer("node count", n)) < 1:
            raise ValueError("wire needs at least one node")
        return cls(range(1, n + 1), [(k, k + 1) for k in range(1, n)])

    @classmethod
    def ring(cls, order: Sequence[int]) -> "ClusterGraph":
        """Cycle graph visiting the given nodes in order, signs +1."""
        order = [_integer("node id", n) for n in order]
        if len(order) < 3:
            raise ValueError("ring needs at least three nodes")
        return cls(sorted(order), zip(order, order[1:] + order[:1]))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def index_of(self, node: int) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise ValueError(f"node {node} not in graph") from None

    def neighbors(self, node: int) -> tuple:
        """Ascending: signs lists the pairs (i, node) by i before the pairs (node, j) by j."""
        self.index_of(node)
        return tuple(i if j == node else j for i, j in self.signs if node in (i, j))

    def sign(self, i: int, j: int) -> int:
        if not self.has_edge(i, j):
            raise ValueError(f"no edge between {i} and {j}")
        return self.signs[min(i, j), max(i, j)]

    def edges(self) -> tuple:
        """Edges as (i, j, sign) with i < j, sorted."""
        return tuple((i, j, s) for (i, j), s in self.signs.items())

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.signs

    def with_node_removed(self, node: int) -> "ClusterGraph":
        self.index_of(node)
        nodes = tuple(n for n in self.nodes if n != node)
        return ClusterGraph(nodes, ((i, j, s) for (i, j), s in self.signs.items() if node not in (i, j)))

    def with_edge(self, i: int, j: int, sign: int = 1) -> "ClusterGraph":
        if self.has_edge(i, j):
            raise ValueError(f"edge between {i} and {j} already present")
        return ClusterGraph(self.nodes, (*self.edges(), (i, j, sign)))

    def adjacency_matrix(self) -> np.ndarray:
        """Signed adjacency in node order."""
        index = {node: k for k, node in enumerate(self.nodes)}
        a = np.zeros((self.n_nodes, self.n_nodes))
        for (i, j), s in self.signs.items():
            a[index[i], index[j]] = a[index[j], index[i]] = s
        return a


class NullifierTable(NamedTuple):
    """Every node's nullifier p_i - sum_j sign(ij) x_j, as plain data.

    Attributes:
        labels: node ids in graph order, one form each.
        counts: each form's term count, 1 + degree.
        texts: each form's text, p-term first, then x-terms by node id:
            "p_2 - x_1 + x_3".
        entries: (row, node, quadrature, coefficient) terms: the p-terms
            in row order, then the two x-terms of each edge in sorted edge
            order, so each row's x-terms come by ascending node id.
        edges: the graph's sorted (i, j, sign) edges the x-terms come from.
    """

    labels: tuple
    counts: list
    texts: list
    entries: list
    edges: tuple

    def _columns(self, nodes: tuple) -> list:
        """Each entry's xxpp column over modes in nodes, an order already checked."""
        n, mode = len(nodes), {node: k for k, node in enumerate(nodes)}
        try:
            return [mode[node] + (n if quad == "p" else 0) for _, node, quad, _ in self.entries]
        except KeyError:
            missing = min((r, k, node) for k, (r, node, _, _) in enumerate(self.entries) if node not in mode)
            raise ValueError(f"form references node {missing[2]} outside the node order") from None

    def _rows(self, nodes: tuple) -> np.ndarray:
        """The forms as a row matrix over modes in nodes, a checked order as a state's; +0.0 off the terms."""
        rows = np.zeros((len(self.labels), 2 * len(nodes)))
        rows[[entry[0] for entry in self.entries], self._columns(nodes)] = [entry[3] for entry in self.entries]
        return rows

    def variances(self, state: GaussianState, loss: LossModel = LossModel({})) -> np.ndarray:
        """Each form's variance in loss.apply_stage(state, "detection"), lossless by default, without making that
        state: over its term pairs (a, b) in term order, the sum of c_a c_b times _mix_vacuum's entry, sqrt(eta_a)
        sqrt(eta_b) V_ab plus (1 - eta_a)/4 when a = b.  Work and memory: the sum over forms of (1 + degree)^2."""
        eta = np.array([loss.efficiency("detection", node) for node in state.nodes] * 2)
        form = np.array([entry[0] for entry in self.entries], np.intp)
        terms = form.argsort(kind="stable")  # each form's terms together, its p-term first
        columns, c = np.array(self._columns(state.nodes), int)[terms], np.array([e[3] for e in self.entries])[terms]
        form, k = form[terms], np.asarray(self.counts, np.intp)[form[terms]]
        a = np.arange(form.size).repeat(k)  # pairs (a, b), b running over the terms of a's form
        b = np.arange(a.size) + (form.searchsorted(form) - k.cumsum() + k).repeat(k)
        weights, form, a, b = c[a] * c[b], form[a], columns[a], columns[b]
        view = np.sqrt(eta[a]) * np.sqrt(eta[b])
        view *= state.cov[a, b]
        view[a == b] += (1.0 - eta[a[a == b]]) * VACUUM_VARIANCE
        return np.bincount(form, view * weights, len(self.labels))


def nullifiers_of(graph: ClusterGraph) -> NullifierTable:
    """One nullifier per node: p_i - sum_j sign(ij) x_j over neighbors j, ascending.

    Built from one pass over the sorted edges; isolated nodes keep the bare p-term.
    """
    row, edges = {node: r for r, node in enumerate(graph.nodes)}, graph.edges()
    entries = [(r, node, "p", 1.0) for r, node in enumerate(graph.nodes)]
    texts = [[f"p_{node}"] for node in graph.nodes]
    for i, j, sign in edges:
        entries += ((row[i], j, "x", -float(sign)), (row[j], i, "x", -float(sign)))
        joint = " - x_" if sign == 1 else " + x_"
        texts[row[i]].append(f"{joint}{j}")
        texts[row[j]].append(f"{joint}{i}")
    return NullifierTable(graph.nodes, [len(t) for t in texts], ["".join(t) for t in texts], entries, edges)


def _db_of(db, node: int) -> float:
    return _real(f"node {node}: squeezing level in dB", db.get(node, 0.0) if isinstance(db, Mapping) else db, 0.0)


def _squeezer_scales(graph: ClusterGraph, db) -> tuple[np.ndarray, np.ndarray]:
    """Each node's x scale 10^(dB/20) and p scale 10^(-dB/20), in node order."""
    levels = [_db_of(db, node) for node in graph.nodes]
    # Scalar powers as in tests/helpers.squeeze_gate; numpy's vector power may differ by an ulp.
    down = np.array([10.0 ** (-level / 20.0) for level in levels])
    return 1.0 / down, down


def canonical_transform(graph: ClusterGraph, db) -> np.ndarray:
    """Symplectic of the canonical build acting on the all-vacuum input.

    Squeezing each mode in p by its dB level, then one sum gate of gain
    sign(ij) per edge, is the single matrix [[X, 0], [A X, P]]: A is the
    signed adjacency, X and P the squeezers' x and p scales.  The gates
    commute, so no gate order enters.
    """
    up, down = _squeezer_scales(graph, db)
    zero = np.zeros((len(up), len(up)))
    return np.block([[np.diag(up), zero], [graph.adjacency_matrix() * up, np.diag(down)]])


def build_canonical(graph: ClusterGraph, db) -> GaussianState:
    """Cluster state from p-squeezed inputs and one sum gate per edge.

    canonical_transform applied to the vacuum gives the covariance
    [[Vx, Vx A], [A Vx, A Vx A + Vp]] with Vx, Vp the diagonal input
    variances, written block by block into one array: Vx A is the
    row-scaled adjacency and A Vx A one N x N product.  Lossless, the
    nullifier of node i evaluates to the node's input p operator, so its
    variance equals the input squeezed variance.

    Args:
        graph: signed cluster graph.
        db: finite, non-negative squeezing level in dB, one number or a node -> dB mapping.
    """
    up, down = _squeezer_scales(graph, db)
    n, a, vx = len(up), graph.adjacency_matrix(), VACUUM_VARIANCE * up * up
    cov = np.zeros((2 * n, 2 * n))
    vx_a = np.multiply(vx[:, None], a, out=cov[:n, n:])
    cov[n:, :n] = vx_a.T
    pp = np.matmul(a, vx_a, out=cov[n:, n:])
    # BLAS may round mirrored entries of A Vx A apart: average them in a's buffer, so the state holds exact symmetry
    np.multiply(0.5, np.add(pp, pp.T, out=a), out=pp)
    cov[np.diag_indices(2 * n)] += np.concatenate([vx, VACUUM_VARIANCE * down * down])
    return GaussianState._adopt(np.zeros(2 * n), cov, graph.nodes)


# ---------------------------------------------------------------------------
# linear-optics plans
# ---------------------------------------------------------------------------


def _real_form(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic [[X, -Y], [Y, X]] on xxpp vectors of the unitary U = X + i Y, taken as unitary."""
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


@dataclass(frozen=True)
class NetworkPlan:
    """Table-top recipe: squeeze each mode in p, then run the interferometer.

    Attributes:
        squeezer_settings: dict node -> p squeezing level in dB, an integer and a real (README, value kinds);
            an x squeezer is a p squeezer followed by a ("phase", node, pi/2) element.
        interferometer: ("phase", node, theta) and ("splitter", node_a,
            node_b, reflectivity) tuples in application order: the format
            of unitary_to_elements, with node ids for mode indices.
        node_order: node ids in mode order.

    Raises:
        ValueError: for a repeated node id, a squeezer or element on a node
            outside node_order, a dB level that is negative or not finite,
            an element of unknown kind or arity, a splitter coupling a node
            with itself, a reflectivity outside [0, 1] or NaN, or a
            non-finite phase.
    """

    squeezer_settings: dict
    interferometer: tuple
    node_order: tuple

    def __init__(self, squeezer_settings, interferometer, node_order):
        settings = {_integer("node id", n): db for n, db in squeezer_settings.items()}
        order = _node_order(node_order)
        known = set(order)
        elements = tuple(interferometer)
        named = list(settings)
        # Python scalars only: a compiled plan carries O(N^2) elements.
        for element in elements:
            kind = element[0] if isinstance(element, tuple) and element else None
            if kind == "phase" and len(element) == 3:
                named.append(element[1])
                if not math.isfinite(element[2]):
                    raise ValueError(f"phase must be finite, got {element[2]}")
            elif kind == "splitter" and len(element) == 4:
                named += [element[1], element[2]]
                if element[1] == element[2]:
                    raise ValueError("beam splitter couples two distinct modes")
                if not 0.0 <= element[3] <= 1.0:
                    raise ValueError("reflectivity must lie in [0, 1]")
            else:
                raise ValueError(f"unknown interferometer element {element!r}")
        for node in named:
            if node not in known:
                raise ValueError(f"node {node} is not in the plan's node order")
        settings = {node: _real(f"node {node}: squeezing level in dB", db, 0.0) for node, db in settings.items()}
        object.__setattr__(self, "squeezer_settings", settings)
        object.__setattr__(self, "interferometer", elements)
        object.__setattr__(self, "node_order", order)

    def interferometer_transform(self) -> np.ndarray:
        """Compose the passive elements into one orthogonal symplectic."""
        return _real_form(_elements_to_unitary(self.interferometer, self.node_order))

    def prepare(self) -> GaussianState:
        """Run the plan: squeezed vacua through the interferometer."""
        return self._prepare(self.interferometer_transform())

    def _prepare(self, o: np.ndarray) -> GaussianState:
        """Squeezed vacua through the interferometer o: covariance O diag O^T, as one product made exactly symmetric."""
        n = len(self.node_order)
        variances = np.empty(2 * n)
        for k, node in enumerate(self.node_order):
            db = self.squeezer_settings.get(node, 0.0)
            variances[k], variances[n + k] = VACUUM_VARIANCE * 10.0 ** (db / 10.0), squeezed_variance(db)
        scaled = o * variances
        cov = scaled @ o.T  # BLAS may round mirrored entries apart: average them in scaled's buffer
        np.multiply(0.5, np.add(cov, cov.T, out=scaled), out=cov)
        return GaussianState._adopt(np.zeros(2 * n), cov, self.node_order)


#: Largest deviation of a compiled plan's state, relative to its largest covariance entry.
_STATE_RTOL = 1e-8
#: Largest relative deviation of a compiled plan's nullifier variance from the squeezed one.
_NULLIFIER_RTOL = 1e-2


def compile_network(graph: ClusterGraph, db) -> tuple[NetworkPlan, GaussianState]:
    """Compile the canonical build into squeezers plus a passive network.

    The canonical symplectic factors as O2 D O1 with O1, O2 passive and D
    single-mode squeezers.  Passive transforms fix the vacuum, so running
    "squeeze by D, then O2" prepares the identical state.  O2 is reduced
    to explicit phase and splitter elements.  The produced state is checked
    against the canonical build, and a failure raises instead of returning
    a wrong plan.

    Args:
        graph: signed cluster graph.
        db: squeezing level in dB, single number or node -> dB mapping.

    Returns:
        (plan, state): the plan and the checked state it prepares, the
        bytes of plan.prepare().

    Raises:
        numpy.linalg.LinAlgError: the factorization, the element reduction
            or the produced state lost the required precision, as at very
            high squeezing or with levels far apart.
    """
    # The plan drops O1, which is passive and therefore fixes the vacuum: the produced state, not the
    # full circuit, is the contract.  Each intermediate is dropped once the next one is made.
    o2, d = bloch_messiah(canonical_transform(graph, db))[:2]
    # x scaled up by 10^(db/20) means p squeezed by db; levels are >= 0, so no x scale of D lies below 1.
    settings = {node: 20.0 * np.log10(x) for node, x in zip(graph.nodes, np.diag(d))}
    # bloch_messiah checked O2 = [V | -J V], whose blocks [[X, Y], [-Y, X]] act on the mode operators as U = X - i Y.
    n = len(graph.nodes)
    u = o2[:n, :n] - 1j * o2[:n, n:]
    del o2, d
    reduced, recomposed = _reduce(u, graph.nodes)
    del u
    plan = NetworkPlan(settings, reduced, graph.nodes)
    produced = plan._prepare(_real_form(recomposed))
    del recomposed
    # Covariance entries grow as 10^(dB/10) and nullifier variances shrink as 10^(-dB/10), so each is
    # compared on its own scale.  Lossless, each canonical nullifier evaluates to its node's squeezed
    # input p: that reference is closed-form.
    expected = np.array([squeezed_variance(_db_of(db, node)) for node in graph.nodes])
    nullifier_err = float(np.abs(nullifiers_of(graph).variances(produced) / expected - 1.0).max())
    target = build_canonical(graph, db).cov
    scale = max(1.0, float(np.abs(target).max()))
    gap = produced.cov - target
    state_err = float(np.abs(gap, out=gap).max()) / scale
    if state_err > _STATE_RTOL or nullifier_err > _NULLIFIER_RTOL:
        raise np.linalg.LinAlgError(
            f"compiled plan state deviates from the canonical build by {state_err:.3e} of the "
            f"covariance scale and {nullifier_err:.3e} of the nullifier variances"
        )
    return plan, produced


# Interferometer of the stock four-mode wire plan: input phases, one 20:80
# splitter and two 50:50 splitters, output phases.  The phases were solved
# numerically (then snapped to exact multiples of pi/4) so that the wire
# nullifier variances vanish with increasing input squeezing; any such plan
# yields variance s*(1 + degree) per node for input squeezed variance s.
_PRESET_INPUT_PHASES = (-0.75 * np.pi, -0.75 * np.pi, -0.25 * np.pi, 0.75 * np.pi)
_PRESET_SPLITTERS = ((2, 3, 0.2), (1, 2, 0.5), (3, 4, 0.5))
_PRESET_OUTPUT_PHASES = (0.75 * np.pi, -0.75 * np.pi, -0.25 * np.pi, 0.25 * np.pi)


def preset_wire_network(db: float = 5.0) -> NetworkPlan:
    """Stock linear-optics plan for the four-mode wire.

    Uses exactly one 20:80 and two 50:50 beam splitters plus local phases
    on four squeezed inputs.  The prepared state is not the canonical wire
    state; it belongs to the same family, with two-term nullifier variance
    2 s and three-term variance 3 s for input squeezed variance s.

    Args:
        db: squeezing level applied to every input mode.
    """
    elements = [("phase", node, theta) for node, theta in enumerate(_PRESET_INPUT_PHASES, start=1)]
    elements += [("splitter", a, b, r) for a, b, r in _PRESET_SPLITTERS]
    elements += [("phase", node, theta) for node, theta in enumerate(_PRESET_OUTPUT_PHASES, start=1)]
    settings = dict.fromkeys((1, 2, 3, 4), db)
    return NetworkPlan(settings, elements, (1, 2, 3, 4))


_RING_PHASES = ((1, np.pi), (2, -np.pi / 2), (3, np.pi / 2), (4, 0.0))


def wire_to_ring_phases(wire: ClusterGraph) -> list:
    """Local phases turning the four-mode wire into a ring.

    Returns the fixed list [(1, pi), (2, -pi/2), (3, pi/2), (4, 0)].  The
    rotated state carries the nullifiers of the four-cycle visiting the
    nodes in the order 1, 3, 2, 4 with all edge signs +1; the decay of
    their variances with squeezing is validated in tests, not assumed.

    Args:
        wire: must be exactly the 4-node wire 1-2-3-4 with +1 signs.
    """
    expected = ClusterGraph.linear_wire(4)
    if wire.nodes != expected.nodes or wire.edges() != expected.edges():
        raise ValueError("phase list is defined for the plain 4-node wire only")
    return [(node, float(theta)) for node, theta in _RING_PHASES]


# ---------------------------------------------------------------------------
# text exchange format
# ---------------------------------------------------------------------------


def parse_graph_text(text: str):
    """Parse the graph exchange format.

    Lines are "node <id> [db=<level>]" or "edge <i> <j> [sign=<+1|-1>]";
    blank lines and # comments are ignored.  A ValueError names its line.

    Returns:
        (graph, db_map) with db_map the node -> dB levels the text declares,
        0 included; a node without a db level has no entry.
    """
    nodes: dict[int, int] = {}  # node -> its line
    db_map: dict[int, float] = {}
    edges, lines = [], {}  # (i, j, sign) entries; (low, high) pair -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not (parts := raw.split("#", 1)[0].split()):
            continue
        kind = parts[0].lower()
        try:
            if kind == "node":
                if nodes.setdefault(node := int(parts[1]), lineno) != lineno:
                    raise ValueError(f"node {node} declared twice")
                for repeat, extra in enumerate(parts[2:]):
                    key, _, value = extra.partition("=")
                    if key != "db":
                        raise ValueError(f"unknown node attribute {key!r}")
                    if repeat:
                        raise ValueError(f"node {node} gives db twice")
                    db_map[node] = _db_of(float(value), node)
            elif kind == "edge":
                i, j, sign = int(parts[1]), int(parts[2]), 1
                for repeat, extra in enumerate(parts[3:]):
                    key, _, value = extra.partition("=")
                    if key != "sign":
                        raise ValueError(f"unknown edge attribute {key!r}")
                    if repeat:
                        raise ValueError(f"edge {i} {j} gives sign twice")
                    sign = int(value)
                if lines.setdefault((min(i, j), max(i, j)), lineno) != lineno:
                    raise ValueError(f"edge {i} {j} declared twice")
                edges.append((i, j, sign))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"graph text line {lineno}: {exc}") from None
    try:
        return ClusterGraph(nodes, edges), db_map
    except ValueError:  # nodes may follow their edges: name the first edge that fails on its own
        for (i, j, sign), lineno in zip(edges, lines.values()):
            try:
                ClusterGraph(nodes.keys() & {i, j}, [(i, j, sign)])
            except ValueError as exc:
                raise ValueError(f"graph text line {lineno}: {exc}") from None
        raise

