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
    # the kernel behind csc @ dense, which adds into an existing array:
    # y[i] += a[i, j] * x[j], entry by entry in storage order
    from scipy.sparse._sparsetools import csc_matvecs
except ImportError:  # a private module; np.add.at gives the same bits
    csc_matvecs = None

from .errors import NumericError


def unit_rows(m: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The rows of m divided by their given Euclidean norms; rows of norm
    0 pass through. Elementwise, so a block of rows with its norms gives
    the bits of those rows of the whole."""
    return m / np.where(norms > 0.0, norms, 1.0)[:, None]


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
    order, repeated indices accumulated. indices holds one line of
    len(rows) targets per scale; where no two lines name the same row (as
    in the loss), these are the bits of np.add.at line by line.

    out is a C-contiguous float64 or integer matrix, and rows are taken
    in its dtype. Once the updates hold thousands of elements, a CSC
    selector whose column t holds scales[i] at row indices[i][t], built
    with no sort, is multiplied into out in place by the compiled sparse
    kernel: much faster than np.add.at, and with no temporary the size
    of out. Smaller updates take np.add.at itself, which costs less than
    building the selector, as do all updates where scipy has no such
    kernel.
    """
    if not (out.dtype == np.float64 or out.dtype.kind == "i") or not out.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous float64 or integer output")
    indices = np.reshape(indices, (len(scales), -1))
    lines, m = indices.shape
    if m == 0:
        return
    if csc_matvecs is None or indices.size * out.shape[1] < 8192:
        for line, scale in zip(indices, scales):
            np.add.at(out, line, rows if scale == 1 else scale * rows)
        return
    rows = np.ascontiguousarray(rows, dtype=out.dtype)
    if rows.shape != (m, out.shape[1]):  # the kernel reads m rows of out's width
        raise ValueError(f"rows of shape {rows.shape} do not fit {m} rows of {out.shape}")
    # the kernel does not check its row indices
    if indices.min() < 0 or indices.max() >= len(out):
        raise IndexError(f"row index out of range for {len(out)} rows")
    targets = indices.ravel(order="F").astype(np.int64, copy=False)
    data = np.tile(np.asarray(scales, dtype=out.dtype), m)
    columns = np.arange(0, targets.size + 1, lines, dtype=np.int64)
    csc_matvecs(out.shape[0], m, out.shape[1], columns, targets, data,
                rows.ravel(), out.ravel())
