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

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .decompositions import (
    _elements_to_unitary,
    bloch_messiah,
    orthogonal_symplectic_to_unitary,
    unitary_to_elements,
    unitary_to_orthogonal_symplectic,
)
from .gaussian import (
    GaussianState,
    SymplecticTransform,
    apply,
    squeezed_vacuum,
    squeezed_variance,
    tensor,
    vacuum,
)

__all__ = [
    "ClusterGraph",
    "Nullifier",
    "NetworkPlan",
    "BeamSplitterElement",
    "PhaseShiftElement",
    "nullifiers_of",
    "build_canonical",
    "canonical_transform",
    "compile_network",
    "preset_wire_network",
    "wire_to_ring_phases",
    "parse_graph_text",
    "format_graph_text",
]


def _edge(i: int, j: int) -> frozenset:
    return frozenset((i, j))


@dataclass(frozen=True, eq=False)
class ClusterGraph:
    """Signed simple graph over integer node ids.

    Attributes:
        nodes: node ids in mode order; mode k of any matching state is
            nodes[k].
        edges_signed: mapping from frozenset({i, j}) to sign +1 or -1.
    """

    nodes: tuple
    edges_signed: dict

    def __init__(self, nodes: Iterable[int], edges_signed: Mapping[frozenset, int] | None = None):
        nodes = tuple(int(n) for n in nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids")
        edges = {}
        for key, sign in (edges_signed or {}).items():
            pair = frozenset(int(n) for n in key)
            if len(pair) != 2:
                raise ValueError("edges must join two distinct nodes (no self-loops)")
            if not pair <= set(nodes):
                raise ValueError(f"edge {sorted(pair)} references unknown nodes")
            if sign not in (1, -1):
                raise ValueError("edge signs must be +1 or -1")
            edges[pair] = int(sign)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges_signed", edges)

    @classmethod
    def from_edges(cls, edges: Iterable, nodes: Iterable[int] | None = None) -> "ClusterGraph":
        """Build from (i, j) or (i, j, sign) tuples; sign defaults to +1."""
        signed = {}
        seen: list[int] = []
        for entry in edges:
            if len(entry) == 2:
                i, j = entry
                sign = 1
            else:
                i, j, sign = entry
            signed[_edge(i, j)] = sign
            for n in (i, j):
                if n not in seen:
                    seen.append(n)
        if nodes is None:
            nodes = sorted(seen)
        return cls(nodes, signed)

    @classmethod
    def linear_wire(cls, n: int) -> "ClusterGraph":
        """Path graph 1-2-...-n with all edge signs +1."""
        if n < 1:
            raise ValueError("wire needs at least one node")
        return cls.from_edges([(k, k + 1) for k in range(1, n)], nodes=range(1, n + 1))

    @classmethod
    def ring(cls, order: Sequence[int]) -> "ClusterGraph":
        """Cycle graph visiting the given nodes in order, signs +1."""
        order = [int(n) for n in order]
        if len(order) < 3:
            raise ValueError("ring needs at least three nodes")
        edges = [(order[k], order[(k + 1) % len(order)]) for k in range(len(order))]
        return cls.from_edges(edges, nodes=sorted(order))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def index_of(self, node: int) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise ValueError(f"node {node} not in graph") from None

    def neighbors(self, node: int) -> tuple:
        self.index_of(node)
        out = [other for pair in self.edges_signed for other in pair if node in pair and other != node]
        return tuple(sorted(out))

    def sign(self, i: int, j: int) -> int:
        pair = _edge(i, j)
        if pair not in self.edges_signed:
            raise ValueError(f"no edge between {i} and {j}")
        return self.edges_signed[pair]

    def edges(self) -> tuple:
        """Edges as (i, j, sign) with i < j, sorted."""
        out = [(min(p), max(p), s) for p, s in self.edges_signed.items()]
        return tuple(sorted(out))

    def has_edge(self, i: int, j: int) -> bool:
        return _edge(i, j) in self.edges_signed

    def with_node_removed(self, node: int) -> "ClusterGraph":
        self.index_of(node)
        nodes = tuple(n for n in self.nodes if n != node)
        edges = {p: s for p, s in self.edges_signed.items() if node not in p}
        return ClusterGraph(nodes, edges)

    def with_edge(self, i: int, j: int, sign: int = 1) -> "ClusterGraph":
        if self.has_edge(i, j):
            raise ValueError(f"edge between {i} and {j} already present")
        edges = dict(self.edges_signed)
        edges[_edge(i, j)] = sign
        return ClusterGraph(self.nodes, edges)

    def adjacency_matrix(self) -> np.ndarray:
        """Signed adjacency in node order."""
        n = self.n_nodes
        a = np.zeros((n, n))
        for i, j, s in self.edges():
            a[self.index_of(i), self.index_of(j)] = s
            a[self.index_of(j), self.index_of(i)] = s
        return a


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

    def nodes(self) -> tuple:
        return tuple(sorted({n for n, _, _ in self.terms}))

    def coefficient_vector(self, node_order: Sequence[int]) -> np.ndarray:
        """Length-2N coefficient vector for a state whose modes follow node_order."""
        order = [int(n) for n in node_order]
        n = len(order)
        vec = np.zeros(2 * n)
        for node, quad, coeff in self.terms:
            try:
                k = order.index(node)
            except ValueError:
                raise ValueError(f"form references node {node} outside the node order") from None
            vec[k + (n if quad == "p" else 0)] += coeff
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


def nullifiers_of(graph: ClusterGraph) -> list:
    """One nullifier per node: p_i - sum_j sign(ij) x_j over neighbors j.

    Isolated nodes yield the bare p-term.
    """
    out = []
    for node in graph.nodes:
        terms = [(node, "p", 1.0)]
        for nbr in graph.neighbors(node):
            terms.append((nbr, "x", -float(graph.sign(node, nbr))))
        out.append(Nullifier(tuple(terms), label=node))
    return out


def _db_of(db, node: int) -> float:
    if isinstance(db, Mapping):
        return float(db.get(node, 0.0))
    return float(db)


def canonical_transform(graph: ClusterGraph, db) -> SymplecticTransform:
    """Symplectic of the canonical build acting on the all-vacuum input.

    Squeezing each mode in p by its dB level, then one sum gate of gain
    sign(ij) per edge, is the single matrix [[X, 0], [A X, P]]: A is the
    signed adjacency, X and P the squeezers' x and p scales.  The gates
    commute, so no gate order enters.
    """
    levels = [_db_of(db, node) for node in graph.nodes]
    if min(levels, default=0.0) < 0:
        raise ValueError("squeezing level in dB must be non-negative")
    # Scalar powers as in squeeze_gate; numpy's vector power may differ by an ulp.
    down = np.array([10.0 ** (-level / 20.0) for level in levels])
    up = 1.0 / down
    matrix = np.block(
        [[np.diag(up), np.zeros((len(up), len(up)))], [graph.adjacency_matrix() * up, np.diag(down)]]
    )
    return SymplecticTransform(matrix, np.zeros(2 * len(up)))


def build_canonical(graph: ClusterGraph, db) -> GaussianState:
    """Cluster state from p-squeezed inputs and one sum gate per edge.

    The covariance is [[Vx, Vx A], [A Vx, A Vx A + Vp]] with Vx, Vp the
    diagonal input variances.  Lossless, the nullifier of node i
    evaluates to the node's input p operator, so its variance equals the
    input squeezed variance.

    Args:
        graph: signed cluster graph.
        db: squeezing level in dB, a single number or a node -> dB mapping.
    """
    return apply(vacuum(graph.n_nodes), canonical_transform(graph, db))


# ---------------------------------------------------------------------------
# linear-optics plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamSplitterElement:
    node_a: int
    node_b: int
    reflectivity: float


@dataclass(frozen=True)
class PhaseShiftElement:
    node: int
    theta: float


@dataclass(frozen=True)
class NetworkPlan:
    """Table-top recipe: squeeze each mode, then run the interferometer.

    Attributes:
        squeezer_settings: mapping node -> (db, quadrature).
        interferometer: passive elements in application order.
        provenance: "canonical", "compiled", or "preset".
        node_order: node ids in mode order.
    """

    squeezer_settings: tuple
    interferometer: tuple
    provenance: str
    node_order: tuple

    def __init__(self, squeezer_settings, interferometer, provenance, node_order):
        object.__setattr__(
            self,
            "squeezer_settings",
            tuple((int(n), (float(db), str(q))) for n, (db, q) in dict(squeezer_settings).items()),
        )
        object.__setattr__(self, "interferometer", tuple(interferometer))
        object.__setattr__(self, "provenance", str(provenance))
        object.__setattr__(self, "node_order", tuple(int(n) for n in node_order))

    def _index(self, node: int) -> int:
        return self.node_order.index(node)

    def interferometer_transform(self) -> SymplecticTransform:
        """Compose the passive elements into one orthogonal symplectic."""
        elements = []
        for element in self.interferometer:
            if isinstance(element, BeamSplitterElement):
                i, j = self._index(element.node_a), self._index(element.node_b)
                elements.append(("splitter", i, j, element.reflectivity))
            elif isinstance(element, PhaseShiftElement):
                elements.append(("phase", self._index(element.node), element.theta))
            else:
                raise ValueError(f"unknown interferometer element {element!r}")
        u = _elements_to_unitary(elements, len(self.node_order))
        return SymplecticTransform(unitary_to_orthogonal_symplectic(u), np.zeros(2 * len(u)))

    def prepare(self) -> GaussianState:
        """Run the plan: squeezed vacua through the interferometer."""
        settings = dict(self.squeezer_settings)
        states = []
        for node in self.node_order:
            db, quad = settings.get(node, (0.0, "p"))
            states.append(squeezed_vacuum(db, quad))
        return apply(tensor(*states), self.interferometer_transform())


#: Largest deviation of a compiled plan's state, relative to its largest covariance entry.
_STATE_RTOL = 1e-8
#: Largest relative deviation of a compiled plan's nullifier variance from the squeezed one.
_NULLIFIER_RTOL = 1e-2


def compile_network(graph: ClusterGraph, db) -> NetworkPlan:
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

    Raises:
        numpy.linalg.LinAlgError: the factorization or the produced state
            lost the required precision, as at very high squeezing.
    """
    return _compile(graph, db)[0]


def _compile(graph: ClusterGraph, db) -> tuple[NetworkPlan, GaussianState]:
    """compile_network, also returning the checked state the plan prepares."""
    total = canonical_transform(graph, db)
    o2, d, _ = bloch_messiah(total.matrix)

    settings = {}
    for k, node in enumerate(graph.nodes):
        x_scale = d[k, k]
        # x scaled up by 10^(db/20) means p squeezed by db; scaled down
        # means the squeezing sits in x.
        level = abs(20.0 * np.log10(x_scale))
        quad = "p" if x_scale >= 1.0 else "x"
        settings[node] = (level, quad)

    u = orthogonal_symplectic_to_unitary(o2)
    elements = []
    for element in unitary_to_elements(u):
        if element[0] == "phase":
            _, mode, theta = element
            elements.append(PhaseShiftElement(graph.nodes[mode], theta))
        else:
            _, i, j, r = element
            elements.append(BeamSplitterElement(graph.nodes[i], graph.nodes[j], r))

    plan = NetworkPlan(settings, elements, "compiled", graph.nodes)
    # The plan drops O1, which is passive and therefore fixes the vacuum:
    # the produced state, not the full circuit, is the contract.  Covariance
    # entries grow as 10^(dB/10) and nullifier variances shrink as
    # 10^(-dB/10), so each is compared on its own scale.
    produced = plan.prepare()
    target = apply(vacuum(graph.n_nodes), total)  # build_canonical, reusing its transform
    state_err = max(
        float(np.abs(produced.cov - target.cov).max()),
        float(np.abs(produced.mean - target.mean).max()),
    ) / max(1.0, float(np.abs(target.cov).max()))
    # Lossless, each canonical nullifier evaluates to its node's squeezed
    # input p, so the reference is closed-form rather than a dense product
    # that cancels at high squeezing.
    forms = np.array([f.coefficient_vector(graph.nodes) for f in nullifiers_of(graph)])
    expected = np.array([squeezed_variance(_db_of(db, node)) for node in graph.nodes])
    nullifier_err = float(np.abs(np.diag(forms @ produced.cov @ forms.T) / expected - 1.0).max())
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
    elements = [PhaseShiftElement(node, theta) for node, theta in enumerate(_PRESET_INPUT_PHASES, start=1)]
    elements += [BeamSplitterElement(a, b, r) for a, b, r in _PRESET_SPLITTERS]
    elements += [PhaseShiftElement(node, theta) for node, theta in enumerate(_PRESET_OUTPUT_PHASES, start=1)]
    settings = {node: (float(db), "p") for node in (1, 2, 3, 4)}
    return NetworkPlan(settings, elements, "preset", (1, 2, 3, 4))


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
    blank lines and # comments are ignored.

    Returns:
        (graph, db_map) with db_map a node -> dB mapping (default 0).
    """
    nodes: list[int] = []
    db_map: dict[int, float] = {}
    edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "node":
                node = int(parts[1])
                if node in nodes:
                    raise ValueError(f"node {node} declared twice")
                nodes.append(node)
                db_map[node] = 0.0
                for extra in parts[2:]:
                    key, _, value = extra.partition("=")
                    if key != "db":
                        raise ValueError(f"unknown node attribute {key!r}")
                    db_map[node] = float(value)
                    if not np.isfinite(db_map[node]) or db_map[node] < 0:
                        raise ValueError(f"db must be finite and non-negative, got {value!r}")
            elif kind == "edge":
                i, j = int(parts[1]), int(parts[2])
                sign = 1
                for extra in parts[3:]:
                    key, _, value = extra.partition("=")
                    if key != "sign":
                        raise ValueError(f"unknown edge attribute {key!r}")
                    sign = int(value)
                edges[_edge(i, j)] = sign
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"graph text line {lineno}: {exc}") from None
    return ClusterGraph(nodes, edges), db_map


def format_graph_text(graph: ClusterGraph, db=None) -> str:
    """Inverse of parse_graph_text."""
    lines = []
    for node in graph.nodes:
        level = _db_of(db, node) if db is not None else 0.0
        lines.append(f"node {node} db={level!r}" if level else f"node {node}")
    for i, j, sign in graph.edges():
        lines.append(f"edge {i} {j} sign={sign}" if sign != 1 else f"edge {i} {j}")
    return "\n".join(lines) + "\n"
