"""Dense matrices over a coefficient ring R and over its residue field k.

MatrixR stores encoded int64 entries (see _kernels); MatrixK stores
integers in [0, p).  Rank computation only ever happens over k: R is not
a field, and every elimination over R in this package pivots on units.
Arrays are marked read-only after construction; treat both types as
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import enc_mul, enc_neg
from .errors import UsageError
from .ring import RingElement, RingSpec, check_same_ring


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass
class MatrixR:
    ring: RingSpec
    data: np.ndarray  # encoded entries, shape (rows, cols)

    def __post_init__(self):
        if self.data.ndim != 2:
            raise UsageError(f"matrix data must be 2-d, got shape {self.data.shape}")
        self.data = _freeze(self.data)

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

    def entry(self, i: int, j: int) -> RingElement:
        return self.ring.from_encoded(int(self.data[i, j]))

    def pairs(self):
        """Entries as [a, b] pairs, row by row (the serialization format)."""
        p = self.ring.p
        return [
            [[int(v % p), int(v // p)] for v in row] for row in self.data
        ]

    def residue(self) -> "MatrixK":
        return MatrixK(self.ring.p, self.data % self.ring.p)

    def r_coefficients(self) -> "MatrixK":
        """For a matrix with all entries in m, the B with self = r*B."""
        if np.any(self.data % self.ring.p):
            raise UsageError("matrix has a unit entry; not of the form r*B")
        return MatrixK(self.ring.p, self.data // self.ring.p)

    def __str__(self) -> str:
        return f"MatrixR({self.ring}, {self.rows}x{self.cols})"


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


def from_elements(ring: RingSpec, rows) -> MatrixR:
    data = np.array(
        [[x.encoded for x in row] for row in rows], dtype=np.int64
    ).reshape(len(rows), len(rows[0]) if rows else 0)
    return MatrixR(ring, data)


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


def kron(A: MatrixR, B: MatrixR) -> MatrixR:
    """Kronecker product; row-major pair ordering (A-index major)."""
    check_same_ring(A, B)
    p, fl = A.ring.p, A.ring.flavor_code
    prod = enc_mul(
        A.data[:, None, :, None], B.data[None, :, None, :], p, fl
    ).reshape(A.rows * B.rows, A.cols * B.cols)
    return MatrixR(A.ring, prod)


def is_zero(A: MatrixR) -> bool:
    return not np.any(A.data)


def transpose(A: MatrixR) -> MatrixR:
    return MatrixR(A.ring, A.data.T)


def rank_k(A: MatrixK) -> int:
    return int(_kernels.rank_mod(A.data, A.p))


def find_unit_pivot(A: MatrixR) -> Optional[tuple]:
    """Position of the first unit entry in row-major order, if any."""
    units = np.flatnonzero(A.data % A.ring.p)
    if units.size == 0:
        return None
    idx = int(units[0])
    return divmod(idx, A.cols)


def apply_basis_change(A: MatrixR, P: MatrixR, Q: MatrixR) -> MatrixR:
    return matmul(matmul(P, A), Q)


def is_invertible(P: MatrixR) -> bool:
    return P.rows == P.cols and rank_k(P.residue()) == P.rows


def inverse_matrix(A: MatrixR) -> MatrixR:
    """Inverse of an invertible square matrix over R."""
    if not is_invertible(A):
        raise UsageError("matrix is not invertible")
    return MatrixR(A.ring, _kernels.mat_inverse(A.data, A.ring.p, A.ring.flavor_code))


# ---------------------------------------------------------------------------
# block assembly (used by the functorial constructions)


def block(ring: RingSpec, grid) -> MatrixR:
    """Assemble a block matrix from a 2-d grid of MatrixR (shapes must tile)."""
    rows = []
    for brow in grid:
        rows.append(np.hstack([m.data for m in brow]) if brow else np.zeros((0, 0), np.int64))
    data = np.vstack(rows) if rows else np.zeros((0, 0), np.int64)
    return MatrixR(ring, data)


def submatrix(A: MatrixR, row_idx, col_idx) -> MatrixR:
    data = A.data[np.ix_(list(row_idx), list(col_idx))]
    return MatrixR(A.ring, data)
