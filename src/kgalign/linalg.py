"""The few numeric helpers the encoder and trainer need.

Dense matrices are plain float64 numpy arrays throughout, but for the
margin loss's integer sign accumulators; propagation matrices are
canonical ``scipy.sparse.csr_array`` (duplicates summed, column indices
sorted within each row).
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


def scatter_add_rows(
    out: np.ndarray, indices: np.ndarray, rows: np.ndarray, scales=(1,)
) -> None:
    """out[indices[i][t]] += scales[i] * rows[t] for every i and t, in t
    order for each i, repeated indices accumulated. indices holds one
    line of len(rows) targets per scale; with the default, one line and
    scale 1, these are the bits of np.add.at(out, indices, rows).

    out is a C-contiguous float64 or integer matrix, and rows are taken
    in its dtype. Once the updates hold thousands of elements, a
    selector matrix whose row j holds scales[i] at column t for every
    indices[i][t] == j, in t order, is multiplied into out in place by
    the compiled sparse kernel: much faster than np.add.at, and with no
    temporary the size of out. Smaller updates take np.add.at itself,
    which costs less than building the selector, as do all updates
    where scipy has no such kernel.
    """
    if not (out.dtype == np.float64 or out.dtype.kind == "i") or not out.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous float64 or integer output")
    indices = np.reshape(indices, (len(scales), -1))
    m = indices.shape[1]
    if m == 0:
        return
    if csr_matvecs is None or indices.size * out.shape[1] < 8192:
        for line, scale in zip(indices, scales):
            np.add.at(out, line, rows if scale == 1 else scale * rows)
        return
    rows = np.ascontiguousarray(rows, dtype=out.dtype)
    if rows.shape != (m, out.shape[1]):  # the kernel reads m rows of out's width
        raise ValueError(f"rows of shape {rows.shape} do not fit {m} rows of {out.shape}")
    data = np.repeat(np.asarray(scales, dtype=out.dtype), m)
    columns = np.tile(np.arange(m), len(scales))
    sel = sp.csr_array((data, (indices.ravel(), columns)), shape=(out.shape[0], m))
    csr_matvecs(out.shape[0], m, out.shape[1], sel.indptr, sel.indices, sel.data,
                rows.ravel(), out.ravel())
