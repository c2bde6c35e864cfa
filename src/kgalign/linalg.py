"""The few numeric helpers the encoder and trainer need.

Dense matrices are plain float64 numpy arrays throughout; propagation
matrices are canonical ``scipy.sparse.csr_array`` (duplicates summed,
column indices sorted within each row).
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NumericError


def row_l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean length; all-zero rows pass through."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return m / safe[:, None]


def row_norms(m: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(m, dtype=np.float64), axis=1)


def degree_normalize(a: sp.csr_array, mode: str) -> sp.csr_array:
    """Degree-normalize a square CSR matrix with D_ii = sum_j a_ij.

    mode 'symmetric' returns D^-1/2 A D^-1/2; mode 'row' returns D^-1 A,
    whose rows each sum to one. Rows with non-positive degree raise,
    which signals a missing self-loop. The sparsity structure is kept.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if mode not in ("symmetric", "row"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    deg = a.sum(axis=1)
    if np.any(deg <= 0.0):
        bad = int(np.flatnonzero(deg <= 0.0)[0])
        raise NumericError(
            f"row {bad} has degree {deg[bad]}; cannot normalize "
            "(missing self-loop?)"
        )
    f = 1.0 / deg if mode == "row" else 1.0 / np.sqrt(deg)
    data = a.data * np.repeat(f, np.diff(a.indptr))
    if mode == "symmetric":
        data = data * f[a.indices]
    return sp.csr_array((data, a.indices, a.indptr), shape=a.shape)


def scatter_add_rows(out: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> None:
    """out[indices[t]] += rows[t] with repeated indices accumulated.

    The compiled sparse product is much faster than np.add.at once
    thousands of rows are involved; tiny updates take the direct path.
    """
    m = len(indices)
    if m == 0:
        return
    if m < 4096:
        np.add.at(out, indices, rows)
        return
    sel = sp.csr_matrix(
        (np.ones(m), (indices, np.arange(m))), shape=(out.shape[0], m)
    )
    out += sel @ rows
