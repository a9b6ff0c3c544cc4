"""Dense matrices over a coefficient ring R.

MatrixR stores encoded int64 entries (see _kernels).  Rank computation
only ever happens over the residue field k: R is not a field, and every
elimination over R in this package pivots on units.  A MatrixR is a
frozen, unhashable value, and its array is read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import enc_neg
from .errors import UsageError
from .ring import RingSpec, check_same_ring


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MatrixR:
    ring: RingSpec
    data: np.ndarray  # encoded entries, shape (rows, cols)

    def __post_init__(self):
        if self.data.ndim != 2:
            raise UsageError(f"matrix data must be 2-d, got shape {self.data.shape}")
        object.__setattr__(self, "data", _freeze(self.data))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixR):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self.data, other.data)

    def pairs(self):
        """Entries as [a, b] pairs, row by row (the serialization format)."""
        p = self.ring.p
        return np.stack((self.data % p, self.data // p), -1).tolist()

    def __str__(self) -> str:
        return f"MatrixR({self.ring}, {self.rows}x{self.cols})"


# MatrixK, matmul_k and rank_k: names perfbench's tracer still wraps
@dataclass
class MatrixK:
    p: int
    data: np.ndarray  # entries in [0, p)

    def __post_init__(self):
        self.data = _freeze(self.data % self.p)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixK):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.data, other.data)


# ---------------------------------------------------------------------------
# constructors


def zeros(ring: RingSpec, rows: int, cols: int) -> MatrixR:
    return MatrixR(ring, np.zeros((rows, cols), dtype=np.int64))


def identity(ring: RingSpec, n: int) -> MatrixR:
    return MatrixR(ring, np.eye(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# arithmetic


def matmul(A: MatrixR, B: MatrixR) -> MatrixR:
    check_same_ring(A, B)
    if A.cols != B.rows:
        raise UsageError(f"shape mismatch: {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    out = _kernels.mat_mul(A.data, B.data, A.ring.p, A.ring.flavor_code)
    return MatrixR(A.ring, out)


def matmul_k(A: MatrixK, B: MatrixK) -> MatrixK:
    if A.p != B.p:
        raise UsageError(f"field mismatch: p={A.p} vs p={B.p}")
    if A.cols != B.rows:
        raise UsageError(f"shape mismatch: {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    return MatrixK(A.p, (A.data @ B.data) % A.p)


def neg(A: MatrixR) -> MatrixR:
    return MatrixR(A.ring, enc_neg(A.data, A.ring.p, A.ring.flavor_code))


def is_zero(A: MatrixR) -> bool:
    return not np.any(A.data)


def rank_k(A: MatrixK) -> int:
    return int(_kernels.rank_mod(A.data, A.p))


def apply_basis_change(A: MatrixR, P: MatrixR, Q: MatrixR) -> MatrixR:
    return matmul(matmul(P, A), Q)


def is_invertible(P: MatrixR) -> bool:
    return P.rows == P.cols and _kernels.rank_mod(P.data, P.ring.p) == P.rows


def inverse_matrix(A: MatrixR) -> MatrixR:
    """Inverse of an invertible square matrix over R, from one elimination:
    ``mat_inverse`` refuses a singular residue itself."""
    if A.rows != A.cols:
        raise UsageError("matrix is not invertible")
    try:
        return MatrixR(A.ring, _kernels.mat_inverse(A.data, A.ring.p, A.ring.flavor_code))
    except UsageError:
        raise UsageError("matrix is not invertible") from None


# ---------------------------------------------------------------------------
# block assembly (used by the functorial constructions)


def from_blocks(ring: RingSpec, row_sizes, col_sizes, blocks) -> MatrixR:
    """Block matrix with the given block row and column sizes, written in place.

    ``blocks`` maps (block row, block column) to an array of encoded
    entries of that block's shape; every block it does not name is zero.
    """
    row_off = [0, *itertools.accumulate(row_sizes)]
    col_off = [0, *itertools.accumulate(col_sizes)]
    data = np.zeros((row_off[-1], col_off[-1]), dtype=np.int64)
    for (i, j), arr in blocks.items():
        dest = data[row_off[i] : row_off[i + 1], col_off[j] : col_off[j + 1]]
        if arr.shape != dest.shape:
            raise UsageError(f"block ({i}, {j}) has shape {arr.shape}, expected {dest.shape}")
        dest[...] = arr
    return MatrixR(ring, data)
