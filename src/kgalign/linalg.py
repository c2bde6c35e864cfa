"""The few numeric helpers the encoder and trainer need.

Dense matrices are plain float64 numpy arrays throughout; propagation
matrices are canonical ``scipy.sparse.csr_array`` (duplicates summed,
column indices sorted within each row).
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

try:
    # the kernel behind csr @ dense, which adds into an existing array:
    # y[i] += a[i, j] * x[j], entry by entry in storage order
    from scipy.sparse._sparsetools import csr_matvecs
except ImportError:  # a private module; np.add.at gives the same bits
    csr_matvecs = None

from .errors import NumericError


def row_l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean length; all-zero rows pass through."""
    return unit_rows(m)[0]


def unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row_l2_normalize(m), the row norms it divided by), the norms
    computed once."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    return m / np.where(norms > 0.0, norms, 1.0)[:, None], norms


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
    """out[indices[t]] += rows[t] for t in order, repeated indices
    accumulated: the bits of np.add.at(out, indices, rows).

    out is a C-contiguous float64 matrix. Once the rows hold thousands
    of elements, a selector matrix whose row i holds a 1 for every t
    with indices[t] == i, in t order, is multiplied into out in place by
    the compiled sparse kernel: much faster than np.add.at, and with no
    temporary the size of out. Smaller updates take np.add.at itself,
    which costs less than building the selector, as do all updates
    where scipy has no such kernel.
    """
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous float64 output")
    m = len(indices)
    if m == 0:
        return
    if csr_matvecs is None or m * out.shape[1] < 8192:
        np.add.at(out, indices, rows)
        return
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.shape != (m, out.shape[1]):  # the kernel reads m rows of out's width
        raise ValueError(f"rows of shape {rows.shape} do not fit {m} rows of {out.shape}")
    sel = sp.csr_array((np.ones(m), (indices, np.arange(m))), shape=(out.shape[0], m))
    csr_matvecs(out.shape[0], m, out.shape[1], sel.indptr, sel.indices, sel.data,
                rows.ravel(), out.ravel())
