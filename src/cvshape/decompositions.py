"""Decomposition of symplectic matrices into optical building blocks.

Two layers: a symplectic polar-style factorization S = O2 D O1 with O1, O2
orthogonal symplectic and D a diagonal squeezer, and a reduction of any
orthogonal symplectic matrix to phase shifters and beam splitters on
adjacent mode pairs.  Together they turn an abstract Gaussian circuit into
a table-top recipe: squeeze each mode, then interfere.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import SYMPLECTIC_TOL

__all__ = [
    "is_symplectic",
    "is_orthogonal",
    "bloch_messiah",
    "unitary_to_elements",
]


def is_symplectic(matrix: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
        return False
    # M^T J as its C-ordered, sign-permuted copy [-M_p^T | M_x^T]: the dense operands up to signed zeros
    n, left = matrix.shape[0] // 2, np.empty(matrix.shape)
    left[:, :n], left[:, n:] = -matrix[n:].T, matrix[:n].T
    gap = left @ matrix
    gap[:n, n:].flat[:: n + 1] -= 1.0
    gap[n:, :n].flat[:: n + 1] += 1.0  # - J, in place
    return bool(np.abs(gap, out=gap).max() <= tol)


def is_orthogonal(matrix: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    gap = matrix.T @ matrix
    gap.flat[:: len(gap) + 1] -= 1.0
    return bool(np.abs(gap, out=gap).max() <= tol)


#: Singular values within this distance of 1 belong to unsqueezed directions.
_UNIT_BAND = 1e-9
#: Symplecticity and recomposition tolerance of the Bloch-Messiah factors.
_FACTOR_TOL = 1e-8
#: Largest entry error of the element product against the reduced unitary.
_RECOMPOSE_TOL = 1e-10


def bloch_messiah(matrix: np.ndarray):
    """Factor a symplectic matrix as O2 @ D @ O1.

    O1 and O2 are orthogonal symplectic (passive interferometers), D is
    diagonal with entries (d_1, ..., d_N, 1/d_1, ..., 1/d_N).  The xxpp
    ordering is used throughout.  A diagonal input is its own D up to
    sign, in the input's mode order (so a d_k may lie below 1), with
    O2 = I; any other input gets d_k >= 1 sorted descending.

    The factors come from one SVD of S.  J maps a left singular vector of
    singular value d to one of 1/d, so the left singular vectors V with
    d > 1 are J-orthogonal to each other, degenerate ones included.  The
    unit ones span a J-closed space of complex dimension m in columns
    x + i p, on which J acts as -i; its first m complex singular vectors,
    as (Re; Im), complete V, and W = [V | -J V] is orthogonal symplectic.

    Args:
        matrix: real 2N x 2N symplectic matrix.

    Returns:
        (o2, d, o1) with matrix = o2 @ d @ o1 up to _FACTOR_TOL.

    Raises:
        numpy.linalg.LinAlgError: (a ValueError) the input is not symplectic
            to working precision, or the factors lose that precision, as
            at very high squeezing.
    """
    s = np.asarray(matrix, dtype=float)
    # Rounding in S^T J S grows as |S|^2, so the input is checked on that
    # scale; past float range (tol = inf) nothing can be checked.
    size = max(1.0, float(np.abs(s).max()))
    tol = _FACTOR_TOL * size * size
    if not (np.isfinite(tol) and is_symplectic(s, tol=tol)):
        raise np.linalg.LinAlgError("input matrix is not symplectic")
    n = s.shape[0] // 2

    if float(np.abs(s - np.diag(np.diag(s))).max()) <= _FACTOR_TOL * 1e-2:
        # Shortcut: S is already a squeezer, so D is |S| and the second
        # interferometer is trivial.  This keeps squeezer-only circuits
        # exactly squeezer-only.
        o2, d = np.eye(2 * n), np.abs(np.diag(s))
    else:
        # Singular values come sorted descending; V^T is not needed.
        left, sigma = np.linalg.svd(s)[:2]
        upper = int(np.count_nonzero(sigma > 1.0 + _UNIT_BAND))
        # Unit singular values span a J-closed space.  As columns x + i p, on which J acts as -i,
        # orthonormal complex vectors are orthonormal, J-orthogonal real ones: an isotropic half.
        unit = left[:, np.abs(sigma - 1.0) <= _UNIT_BAND]
        basis = np.linalg.svd(unit[:n] + 1j * unit[n:], full_matrices=False)[0][:, : unit.shape[1] // 2]
        v = np.hstack([left[:, :upper], np.vstack([basis.real, basis.imag])])
        del left, unit  # the factor checks below hold only the factors
        if v.shape[1] != n:
            raise np.linalg.LinAlgError(f"collected {v.shape[1]} squeezer directions, expected {n}")
        # Each column's sign makes its first significant entry positive.
        v *= [next((1.0 if e > 0 else -1.0 for e in col if abs(e) > 1e-10), 1.0) for col in v.T]
        # O2 = [V | -J V], -J V = [-V_p; V_x] with each zero +0.0 in J V, as the dense product sums it
        o2 = np.hstack([v, np.vstack([-(v[n:] + 0.0), -(0.0 - v[:n])])])
        lam = np.concatenate([sigma[:upper], np.ones(n - upper)])
        d = np.concatenate([lam, 1.0 / lam])

    # S = O2 D O1, so O1 = D^-1 O2^T S; no inverse of an ill-conditioned factor.
    o1 = (o2.T @ s) / d[:, None]
    for name, o in (("left", o2), ("right", o1)):
        if not (is_orthogonal(o, 10 * _FACTOR_TOL) and is_symplectic(o, 10 * _FACTOR_TOL)):
            raise np.linalg.LinAlgError(f"{name} factor failed the orthogonal-symplectic check")
    # O2 D scales O2's columns, the dense product's operands up to the signs of zeros; S is subtracted in place.
    gap = (o2 * d) @ o1
    if float(np.abs(np.subtract(gap, s, out=gap), out=gap).max()) > _FACTOR_TOL:
        raise np.linalg.LinAlgError("factorization does not recompose to the input matrix")
    return o2, np.diag(d), o1


def _over(z: complex, inv: float) -> complex:
    """z / h for real h > 0 given inv = 1 / h, rounded as numpy's complex-by-real division."""
    return complex((z.real + z.imag * 0.0) * inv, (z.imag - z.real * 0.0) * inv)


def _elements_to_unitary(elements, labels) -> np.ndarray:
    """Product of phase and splitter elements, the last applied leftmost.

    The elements come from _reduce or from a NetworkPlan, which validated
    them; labels[k] names row k.  Each element updates only the rows of
    the modes it touches.
    """
    row = {label: k for k, label in enumerate(labels)}
    factors = iter(np.exp(1j * np.array([e[2] for e in elements if e[0] == "phase"], dtype=float)))
    # Splitter k mixes its two rows by [[c, s], [s, -c]], c = sqrt(r), s = sqrt(1 - r).
    r = np.array([e[3] for e in elements if e[0] != "phase"], dtype=float)
    c, s = np.sqrt(r), np.sqrt(1.0 - r)
    mixers = iter(np.array([[c, s], [s, -c]]).transpose(2, 0, 1).astype(complex))
    total = np.eye(len(row), dtype=complex)
    for element in elements:
        if element[0] == "phase":
            total[row[element[1]]] *= next(factors)
            continue
        i, j = row[element[1]], row[element[2]]
        rows = slice(i, i + 2) if j == i + 1 else [i, j]
        total[rows] = next(mixers) @ total[rows]
    return total


def unitary_to_elements(u: np.ndarray) -> list:
    """Reduce a unitary to phase shifters and adjacent-pair beam splitters.

    Returns a list of ("phase", mode, theta) and ("splitter", i, j, r)
    tuples in physical application order: the product of the elements,
    last applied leftmost, reproduces u within _RECOMPOSE_TOL.

    The reduction sweeps Givens-style rotations over adjacent pairs to
    triangularize u (Reck et al., PRL 73, 58 (1994)); the leftover
    diagonal becomes the leading phases.

    Raises:
        ValueError: u is not unitary.
        numpy.linalg.LinAlgError: (a ValueError) the elements' product
            misses u by more than _RECOMPOSE_TOL.
    """
    u = np.asarray(u, dtype=complex)
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise ValueError("matrix is not unitary")
    return _reduce(u, range(len(u)))[0]


def _reduce(u: np.ndarray, labels) -> tuple[list, np.ndarray]:
    """unitary_to_elements with mode k named labels[k], u unchecked, also returning the checked element product."""
    elements = _sweep(u, labels)
    recomposed = _elements_to_unitary(elements, labels)
    if np.abs(recomposed - u).max() > _RECOMPOSE_TOL:
        raise np.linalg.LinAlgError("element reduction failed to recompose the unitary")
    return elements, recomposed


def _sweep(u: np.ndarray, labels) -> list:
    """The elements of u, phases within 1e-12 of 0 left out: the rotations' arrays die with the call."""
    n = u.shape[0]
    # Rotation g = [[a*, b*], [b, -a]] / h zeroes the entry b below a.  Its Python complex scalars go into g[k],
    # the operand of the rows' one 2x2 product; conjugated in place, g[k, j, i] is t_ij of t = g^H.
    work, pair, g, modes = u.copy(), np.empty((2, n), complex), np.empty((n * (n - 1) // 2, 2, 2), complex), []
    for col in range(n):
        for row in range(n - 1, col, -1):
            b = work.item(row, col)
            if abs(b) <= 1e-14:
                continue
            a = work.item(row - 1, col)
            inv = 1.0 / math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            g[len(modes)].flat = [_over(z, inv) for z in (a.conjugate(), b.conjugate(), b, -a)]
            work[row - 1 : row + 1] = np.matmul(g[len(modes)], work[row - 1 : row + 1], out=pair)
            modes.append(row - 1)
    t = np.conjugate(g[: len(modes)], out=g[: len(modes)])

    # Each t is P(a on i) B(r) P(p on i, q on i+1) with B(r) the real
    # splitter [[sqrt(r), sqrt(1-r)], [sqrt(1-r), -sqrt(r)]].  |t01| = |t10|,
    # so a t with no coupling is diagonal: two phases, no splitter.  |z| as
    # np.hypot and z^2 as np.float_power round as Python's abs(z) and z ** 2.
    # The leftover diagonal gives the leading phases.
    p = np.angle(t)  # vectorised np.angle rounds as the scalar one
    coupled = np.hypot(t[:, 1, 0].real, t[:, 1, 0].imag) >= 1e-12
    r = np.minimum(np.float_power(np.hypot(t[:, 0, 0].real, t[:, 0, 0].imag), 2.0), 1.0)
    a = p[:, 0, 0] - p[:, 0, 1]
    first, second = np.where(coupled, p[:, 0, 1], p[:, 0, 0]), np.where(coupled, p[:, 1, 0] - a, p[:, 1, 1])

    def phases(pairs) -> list:
        return [("phase", node, theta) for node, theta in pairs if abs(theta) > 1e-12]

    elements = phases(zip(labels, np.angle(work.diagonal()).tolist()))
    for k in reversed(range(len(modes))):
        i, j = labels[modes[k]], labels[modes[k] + 1]
        elements += phases([(i, first.item(k)), (j, second.item(k))])
        if coupled[k]:
            elements += [("splitter", i, j, r.item(k)), *phases([(i, a.item(k))])]
    return elements
