"""Block-diagonal products and the Volterra solve on folded cell matrices.

A folded cell matrix has shape (N n, N n): block (i, j) integrates an
N x N kernel over cell j at row node t_i.  ``_bd_left`` and ``_bd_right``
multiply such a matrix by kron(I_n, m) from the left or the right without
forming the Kronecker product, and ``_volterra_solve`` applies
(Id - a kron(I_n, m))^{-1}, or its transpose, for a strictly block lower
(Volterra) cell matrix a: the discrete resolvent every solver uses.
"""

import numpy as np


def _bd_left(m: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Blockwise kron(I_n, m) @ x for x of shape (m.shape[1] n, q)."""
    q = x.shape[1]
    return (m @ x.reshape(n, m.shape[1], q)).reshape(n * m.shape[0], q)


def _bd_right(x: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Blockwise x @ kron(I_n, m) for x of shape (q, m.shape[0] n)."""
    q = x.shape[0]
    return (x.reshape(q, n, m.shape[0]) @ m).reshape(q, n * m.shape[1])


def _volterra_solve(a: np.ndarray, m: np.ndarray, rhs: np.ndarray, n: int, trans: bool = False) -> np.ndarray:
    """(Id - a kron(I_n, m))^{-1} rhs, or (Id - a kron(I_n, m))^{-T} rhs with ``trans``.

    ``a`` is a strictly block lower (Volterra) cell matrix, so Id - a kron(I_n, m)
    is unit lower triangular; one dense LU solve, which never pivots on the
    transposed (upper triangular) form.
    """
    mat = _bd_right(a, -m, n)
    mat[np.diag_indices_from(mat)] += 1.0
    return np.linalg.solve(mat.T if trans else mat, rhs)
