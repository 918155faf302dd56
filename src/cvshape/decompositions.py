"""Decomposition of symplectic matrices into optical building blocks.

Two layers: a symplectic polar-style factorization S = O2 D O1 with O1, O2
orthogonal symplectic and D a diagonal squeezer, and a reduction of any
orthogonal symplectic matrix to phase shifters and beam splitters on
adjacent mode pairs.  Together they turn an abstract Gaussian circuit into
a table-top recipe: squeeze each mode, then interfere.
"""

from __future__ import annotations

import numpy as np

from .gaussian import SYMPLECTIC_TOL, symplectic_form

__all__ = [
    "is_symplectic",
    "is_orthogonal",
    "bloch_messiah",
    "orthogonal_symplectic_to_unitary",
    "unitary_to_orthogonal_symplectic",
    "unitary_to_elements",
]


def is_symplectic(matrix: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
        return False
    j = symplectic_form(matrix.shape[0] // 2)
    return bool(np.abs(matrix.T @ j @ matrix - j).max() <= tol)


def is_orthogonal(matrix: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.abs(matrix.T @ matrix - np.eye(matrix.shape[0])).max() <= tol)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic overall sign: first significant entry positive."""
    for entry in vec:
        if abs(entry) > 1e-10:
            return vec if entry > 0 else -vec
    return vec


def bloch_messiah(matrix: np.ndarray, tol: float = 1e-8, rounding: int = 9):
    """Factor a symplectic matrix as O2 @ D @ O1.

    O1 and O2 are orthogonal symplectic (passive interferometers), D is
    diagonal with entries (d_1, ..., d_N, 1/d_1, ..., 1/d_N), d_k >= 1
    sorted descending.  The xxpp ordering is used throughout.

    The factors come from the spectral decomposition of S S^T: its
    eigenvalues pair up as d^2 and 1/d^2, and the eigenvectors of the
    d^2 >= 1 half fix an orthogonal symplectic basis W = [V | -J V].

    Args:
        matrix: real 2N x 2N symplectic matrix.
        tol: symplecticity / reconstruction tolerance.
        rounding: decimal places used to group equal singular values.

    Returns:
        (o2, d, o1) with matrix = o2 @ d @ o1 up to tol.

    Raises:
        numpy.linalg.LinAlgError: (a ValueError) the input is not symplectic
            to working precision, or the factors lose that precision, as
            at very high squeezing.
    """
    s = np.asarray(matrix, dtype=float)
    if not is_symplectic(s, tol=max(tol, SYMPLECTIC_TOL)):
        raise np.linalg.LinAlgError("input matrix is not symplectic")
    n = s.shape[0] // 2
    j = symplectic_form(n)

    gram = s @ s.T
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] <= 0:
        raise np.linalg.LinAlgError("symplectic matrix produced a non-positive Gram spectrum")
    lambdas = np.sqrt(eigvals)

    # Positive square root P of S S^T; always symmetric positive definite.
    p = eigvecs @ np.diag(lambdas) @ eigvecs.T

    off_diag = float(np.abs(p - np.diag(np.diag(p))).max())
    if off_diag <= tol * 1e-2:
        # Shortcut: P already diagonal, so D is P up to mode reordering and
        # the second interferometer is trivial.  This keeps squeezer-only
        # circuits exactly squeezer-only.
        d = np.diag(np.diag(p))
        o2 = np.eye(2 * n)
    else:
        # Collect a symplectic eigenbasis from the d >= 1 half of the
        # spectrum.  Eigenvalues come in reciprocal pairs, so it suffices to
        # band them around 1 and cluster the upper band by gaps; any
        # misclustering fails the factor checks below rather than passing
        # silently.
        eps = 10.0 ** (-rounding)
        order_desc = np.argsort(-lambdas, kind="stable")
        upper = [int(i) for i in order_desc if lambdas[i] > 1.0 + eps]
        lower = [int(i) for i in order_desc if lambdas[i] < 1.0 - eps]
        unit = [int(i) for i in order_desc if abs(lambdas[i] - 1.0) <= eps]
        if len(upper) != len(lower) or len(unit) % 2:
            raise np.linalg.LinAlgError("eigenvalues do not pair up as d^2, 1/d^2; cannot factor")

        groups: list[list[int]] = []
        for i in upper:
            if groups and lambdas[groups[-1][-1]] - lambdas[i] <= eps * lambdas[i]:
                groups[-1].append(i)
            else:
                groups.append([i])

        chosen: list[np.ndarray] = []
        chosen_lambda: list[float] = []
        for idxs in groups:
            # The banding only groups; D carries the actual value.
            lam_actual = float(np.mean(lambdas[idxs]))
            # eigh returns orthonormal eigenvectors, degenerate ones included.
            for col in eigvecs[:, idxs].T:
                chosen.append(_fix_sign(col))
                chosen_lambda.append(lam_actual)

        if unit:
            # Unit singular values: the eigenspace contains both a vector
            # and its J image, so keep only an isotropic half.
            space = eigvecs[:, unit]
            picked: list[np.ndarray] = []
            while 2 * len(picked) < len(unit):
                blocked = picked + [j @ v for v in picked]
                candidate = None
                for col in space.T:
                    v = col.astype(float).copy()
                    for u in blocked:
                        v -= (u @ v) * u
                    norm = np.linalg.norm(v)
                    if norm > 1e-8:
                        candidate = v / norm
                        break
                if candidate is None:
                    raise np.linalg.LinAlgError("failed to build an isotropic basis on the unit block")
                picked.append(_fix_sign(candidate))
            for v in picked:
                chosen.append(v)
                chosen_lambda.append(1.0)

        if len(chosen) != n:
            raise np.linalg.LinAlgError(
                f"collected {len(chosen)} squeezer directions, expected {n}"
            )
        order = np.argsort(-np.asarray(chosen_lambda), kind="stable")
        v_cols = np.array([chosen[i] for i in order]).T
        lam = np.asarray([chosen_lambda[i] for i in order])

        o2 = np.hstack([v_cols, -(j @ v_cols)])
        d = np.diag(np.concatenate([lam, 1.0 / lam]))

    # S = O2 D O1, so O1 = D^-1 O2^T S; no inverse of the ill-conditioned P.
    o1 = (o2.T @ s) / np.diag(d)[:, None]
    for name, o in (("left", o2), ("right", o1)):
        if not is_orthogonal(o, tol=10 * tol) or not is_symplectic(o, tol=10 * tol):
            raise np.linalg.LinAlgError(f"{name} factor failed the orthogonal-symplectic check")
    if float(np.abs(o2 @ d @ o1 - s).max()) > tol:
        raise np.linalg.LinAlgError("factorization does not recompose to the input matrix")
    return o2, d, o1


# ---------------------------------------------------------------------------
# orthogonal symplectic <-> complex unitary
# ---------------------------------------------------------------------------


def orthogonal_symplectic_to_unitary(matrix: np.ndarray) -> np.ndarray:
    """Complex N x N unitary equivalent to an orthogonal symplectic matrix.

    With the block form [[X, Y], [-Y, X]] acting on xxpp vectors, the mode
    operators transform by U = X - i Y.
    """
    o = np.asarray(matrix, dtype=float)
    if not (is_orthogonal(o) and is_symplectic(o)):
        raise ValueError("matrix must be orthogonal symplectic")
    n = o.shape[0] // 2
    return o[:n, :n] - 1j * o[:n, n:]


def unitary_to_orthogonal_symplectic(u: np.ndarray) -> np.ndarray:
    """Inverse of orthogonal_symplectic_to_unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise ValueError("matrix is not unitary")
    x = u.real
    y = -u.imag
    return np.block([[x, y], [-y, x]])


def _two_mode_elements(t: np.ndarray, i: int) -> list:
    """Express a 2x2 unitary on modes (i, i+1) as phases and one splitter.

    The factorization is P(a on i, b on j) B(r) P(p on i, q on j) with
    B(r) the real splitter [[sqrt(r), sqrt(1-r)], [sqrt(1-r), -sqrt(r)]].
    """
    j = i + 1
    r = float(np.clip(abs(t[0, 0]) ** 2, 0.0, 1.0))
    elements: list = []
    if abs(t[1, 0]) < 1e-12 or abs(t[0, 1]) < 1e-12:
        # Diagonal (or antidiagonal handled by r = 0): phases around a
        # trivial splitter suffice.
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


def _elements_to_unitary(elements, n: int) -> np.ndarray:
    """Product of phase and splitter elements, the last applied leftmost.

    Each element updates only the rows of the modes it touches.
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


def unitary_to_elements(u: np.ndarray, tol: float = 1e-10) -> list:
    """Reduce a unitary to phase shifters and adjacent-pair beam splitters.

    Returns a list of ("phase", mode, theta) and ("splitter", i, j, r)
    tuples in physical application order: the product of the elements,
    last applied leftmost, reproduces u within tol.

    The reduction sweeps Givens-style rotations over adjacent pairs to
    triangularize u; the leftover diagonal becomes the leading phases.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if np.abs(u.conj().T @ u - np.eye(n)).max() > 1e-10:
        raise ValueError("matrix is not unitary")

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
        elements.extend(_two_mode_elements(g.conj().T, i))

    elements = [e for e in elements if e[0] != "phase" or abs(e[2]) > 1e-12]
    if np.abs(_elements_to_unitary(elements, n) - u).max() > tol:
        raise ValueError("element reduction failed to recompose the unitary")
    return elements
