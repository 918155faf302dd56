"""Gaussian phase-space states, linear symplectic maps, and loss channels.

Conventions, fixed for the whole package: hbar = 1/2, so [x_i, p_j] =
i delta_ij / 2 and every vacuum quadrature has variance 1/4.  Vectors and
matrices are ordered xxpp, i.e. (x_1, ..., x_N, p_1, ..., p_N), and the
symplectic form is J = [[0, I], [-I, 0]].

States are immutable value types with read-only arrays: every operation
is a pure function returning a new state.  A linear Gaussian unitary is
a plain 2N x 2N array S acting as r -> S r.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "VACUUM_VARIANCE",
    "ORDERING",
    "PHYSICALITY_TOL",
    "SYMPLECTIC_TOL",
    "GaussianState",
    "LossModel",
    "symplectic_form",
    "vacuum",
    "squeezed_variance",
    "apply",
    "apply_loss",
    "quadrature_selector",
]

#: Variance of each quadrature of the vacuum state (hbar = 1/2).
VACUUM_VARIANCE = 0.25

#: Quadrature ordering used by every vector and matrix in this package.
ORDERING = "xxpp"

#: Physicality margin: min eigenvalue of cov + (i/4) J must be >= -PHYSICALITY_TOL.
PHYSICALITY_TOL = 1e-9

#: Tolerance for the symplectic condition S^T J S = J.
SYMPLECTIC_TOL = 1e-10

_SYMMETRY_RTOL = 1e-12

#: Side of the square tiles that the public constructor checks and symmetrises its copy in, a pair at a time.
_TILE = 32

# ---------------------------------------------------------------------------
# value checks: one per kind, shared by every record and the config
# ---------------------------------------------------------------------------


class _BoundedRepr(reprlib.Repr):
    """reprlib's bounded repr for messages; an int past 128 bits is named by its size, never spelled out."""

    def repr_int(self, x, level):
        return super().repr_int(x, level) if x.bit_length() <= 128 else f"<int of {x.bit_length()} bits>"


_shown = _BoundedRepr().repr


def _integer(name: str, value) -> int:
    """value as a Python int that str() can print: a node id, count or sign; a bool is none of these."""
    if type(value) is int and value.bit_length() <= 128:  # the common case: str() prints it
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    try:
        str(number := int(value))
    except ValueError:
        raise ValueError(f"{name} has too many digits to print, got {_shown(value)}") from None
    return number


def _real(name: str, value, low: float = -sys.float_info.max) -> float:
    """value as a finite Python float of at least low (a finite bound): a level, transmission, gain, angle or
    outcome.  A bool, a str or any other non-real is refused; True equals 1, but is no quantity."""
    if type(value) is float and low <= value < math.inf:  # NaN fails the comparison
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int or a Fraction beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not low <= number < math.inf:
        raise ValueError(f"{name} must be finite{' and non-negative' if low == 0 else ''}, got {number}")
    return number


def _node_order(node_order, n_modes: int | None = None) -> tuple:
    """node_order as a tuple of integer node ids, none repeated, one per mode if n_modes is given."""
    order = tuple([_integer("node id", node) for node in node_order])
    if n_modes is not None and len(order) != n_modes:
        raise ValueError("node order length must match the state's mode count")
    if len(set(order)) < len(order):
        raise ValueError(f"node {next(n for n in order if order.count(n) > 1)} appears twice in the node order")
    return order


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form J for the xxpp ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of an N-mode Gaussian state, and the node id of each mode.

    Attributes:
        mean: length-2N quadrature mean vector, xxpp ordering.
        cov: 2N x 2N symmetric covariance matrix.
        nodes: integer node ids (README, value kinds), none repeated, 0 ... N-1 unless given; mode k is nodes[k].
    """

    mean: np.ndarray
    cov: np.ndarray
    nodes: tuple = None

    def __post_init__(self):
        if np.iscomplexobj(self.mean) or np.iscomplexobj(self.cov):
            raise ValueError("state mean and covariance must be real, got complex entries")
        nodes = None if self.nodes is None else _node_order(self.nodes, np.size(self.mean) // 2)  # checked once, here
        self._settle(self.mean, np.array(self.cov, dtype=float, order="C"), nodes, outside=True)

    @classmethod
    def _adopt(cls, mean, cov: np.ndarray, nodes: tuple) -> "GaussianState":
        """State that holds cov as its producer built it, exactly symmetric: no copy and no check, when cov is a
        new float C array no caller can still reach.  A read-only cov is another state's own, as after zero shaping
        steps, and is copied.  nodes come checked, as a graph's, a plan's or some of a state's; None is 0 ... N-1."""
        state = object.__new__(cls)
        state._settle(mean, cov if cov.flags.writeable else np.array(cov), nodes, outside=False)
        return state

    def _settle(self, mean, cov: np.ndarray, nodes, outside: bool) -> None:
        """Check the shapes of mean and cov, which this state owns; symmetrise an outside cov in place; freeze both."""
        mean = np.asarray(mean, dtype=float).flatten()
        if mean.size == 0 or mean.size % 2 != 0:
            raise ValueError("state needs an even, positive number of quadratures")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean length {mean.size}")
        if outside:  # checked and made (V + V^T)/2 a tile pair at a time; a NaN passes
            peak = max(cov.max(), -cov.min(), 1.0)  # max() keeps a leading NaN
            blocks = [slice(i, i + _TILE) for i in range(0, mean.size, _TILE)]
            tiles = [(cov[rows, cols], cov[cols, rows].T) for k, rows in enumerate(blocks) for cols in blocks[k:]]
            if _SYMMETRY_RTOL * peak < max(np.abs(upper - lower).max() for upper, lower in tiles):
                raise ValueError("covariance matrix must be symmetric")
            for upper, lower in tiles:
                upper[...] = lower[...] = 0.5 * (upper + lower)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "nodes", tuple(range(mean.size // 2)) if nodes is None else nodes)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def uncertainty_eigenvalue(self) -> float:
        """Smallest eigenvalue of cov + (i/4) J.

        Physical states give a value >= 0 up to rounding; pure states touch 0.
        """
        j = symplectic_form(self.n_modes)
        return float(np.linalg.eigvalsh(self.cov + 0.25j * j)[0].real)

    def marginal(self, modes: Sequence[int]) -> "GaussianState":
        """Reduced state of the given modes, by index (partial trace over the rest); it keeps their node ids."""
        n = self.n_modes
        modes = list(modes)
        for m in modes:
            _check_mode(n, m)
        if len(set(modes)) < len(modes):
            raise ValueError(f"mode index {next(m for m in modes if modes.count(m) > 1)} repeated in marginal")
        idx = modes + [n + m for m in modes]
        return GaussianState._adopt(self.mean[idx], self.cov[np.ix_(idx, idx)], tuple(self.nodes[m] for m in modes))


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------


def vacuum(n_modes: int) -> GaussianState:
    """Vacuum state of n_modes modes: zero mean, covariance I/4."""
    if (n_modes := _integer("mode count", n_modes)) < 1:
        raise ValueError("need at least one mode")
    return GaussianState._adopt(np.zeros(2 * n_modes), VACUUM_VARIANCE * np.eye(2 * n_modes), None)


def squeezed_variance(db: float) -> float:
    """Variance of the squeezed quadrature at a given squeezing level in dB."""
    return VACUUM_VARIANCE * 10.0 ** (-_real("squeezing level in dB", db, 0.0) / 10.0)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _check_mode(n_modes: int, mode: int) -> None:
    if not 0 <= _integer("mode index", mode) < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")


def quadrature_selector(n_modes: int, mode: int, angle: float) -> np.ndarray:
    """Unit vector selecting x_mode cos(angle) + p_mode sin(angle)."""
    _check_mode(n_modes, mode)
    u = np.zeros(2 * n_modes)
    u[mode] = np.cos(angle)
    u[n_modes + mode] = np.sin(angle)
    return u


def apply(state: GaussianState, matrix: np.ndarray) -> GaussianState:
    """Apply a linear Gaussian unitary, the square 2N x 2N array S, to an N-mode state.

    Returns:
        New state with mean S mean and covariance S cov S^T.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != state.cov.shape:
        raise ValueError(f"transform of shape {matrix.shape} does not act on {state.n_modes} modes")
    return GaussianState(matrix @ state.mean, matrix @ state.cov @ matrix.T, state.nodes)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _mix_vacuum(mean: np.ndarray, cov: np.ndarray, eta) -> tuple:
    """Mix mode k with vacuum at transmission eta[k]; returns new (mean, cov).

    mean may be one mean vector or a trials x 2N batch.  eta = 1 leaves a
    mode untouched.  Each eta was checked to lie in (0, 1] by LossModel.
    """
    eta = np.concatenate([eta, eta], dtype=float)
    root = np.sqrt(eta)
    mixed = np.einsum("i,j->ij", root, root)  # np.outer's bits for roots >= 0, without its buffer
    mixed *= cov
    mixed[np.diag_indices_from(mixed)] += (1.0 - eta) * VACUUM_VARIANCE
    return mean * root, mixed


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Mix one mode with vacuum at transmission eta.

    The mode block of the covariance becomes eta V + (1 - eta)/4 I, its
    cross covariances scale by sqrt(eta), and its mean by sqrt(eta).
    Composing transmissions eta and eta' equals a single eta * eta'.

    Args:
        state: input state.
        mode: index of the lossy mode.
        eta: transmission in (0, 1]; 1 is the identity channel.
    """
    _check_mode(state.n_modes, mode)
    return LossModel({"loss": {state.nodes[mode]: eta}}).apply_stage(state, "loss")


@dataclass(frozen=True)
class LossModel:
    """Per-stage, per-node transmission budget.

    stages maps a stage label (for example "source", "propagation",
    "detection", "feedforward_tap") to either a single transmission applied
    to every node or a node -> transmission dict sorted by node, in the
    order given.  Stages compose multiplicatively.  A transmission is a
    real in (0, 1] and a node id an integer (README, value kinds); any
    other raises ValueError.
    """

    stages: dict

    def __init__(self, stages: Mapping):
        object.__setattr__(self, "stages", {
            str(label): dict(sorted((_integer("node id", n), _real("transmission", v)) for n, v in entry.items()))
            if isinstance(entry, Mapping) else _real("transmission", entry)
            for label, entry in stages.items()
        })
        for entry in self.stages.values():
            for eta in entry.values() if isinstance(entry, dict) else (entry,):
                if not 0.0 < eta <= 1.0:
                    raise ValueError(f"transmission {eta} outside (0, 1]")

    def efficiency(self, stage: str, node: int) -> float:
        """Transmission of one stage for one node; 1.0 when unspecified."""
        entry = self.stages.get(stage, 1.0)
        return entry.get(node, 1.0) if isinstance(entry, dict) else entry

    def composite_efficiency(self, node: int) -> float:
        """Product of every stage's transmission for the node."""
        eta = 1.0
        for label in self.stages:
            eta *= self.efficiency(label, node)
        return eta

    def apply_stage(self, state: GaussianState, stage: str) -> GaussianState:
        """Apply one stage's loss to a state, each mode at its node's transmission."""
        eta = [self.efficiency(stage, node) for node in state.nodes]
        return GaussianState._adopt(*_mix_vacuum(state.mean, state.cov, eta), state.nodes)

    def to_dict(self) -> dict:
        return {
            label: {str(k): v for k, v in entry.items()} if isinstance(entry, dict) else entry
            for label, entry in self.stages.items()
        }
