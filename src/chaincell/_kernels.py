"""Hot arithmetic kernels, in numpy.

Every coefficient is packed into one int64 as ``v = a + p*b`` with
``a, b in [0, p)``, meaning ``a + b*r`` where r generates the maximal
ideal.  The two flavours differ in one thing only: whether the residue
plane carries into the r-plane.

* zpsq (flavour code 1): the packed value *is* the integer mod p**2, so
  the ring operation is the integer operation reduced mod p**2.
* dual (flavour code 0): truncated polynomials k[X]/(X^2), where the
  residue plane never carries.

For an integer operation op that is Z-linear in each argument (add,
subtract, negate, multiply, matrix product), op on packed entries is
op(a-parts) + p*(mixed terms) + p**2*(...).  So one rule serves both
flavours: zpsq reduces op(x, ...) mod p**2, and dual first takes away
the carry p*(op(x % p, ...) // p) of the residue plane.  ``_ring_op``
holds that rule, and every arithmetic over R below goes through it;
``echelon_mod`` and ``rank_mod`` work over the residue field F_p.

int64 bound: a matrix product sums n products of values < p**2, so
p**4 * n must stay below 2**63 for the inner dimension n, in both
flavours.  ``RingSpec`` refuses p > ``MAX_P`` = 251, which keeps
p**4 * n < 2**63 for every n < 2**31 and p**2 < 2**16 for the uint16
row keys of ``complexes._keys``.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

FLAVOR_DUAL = 0
FLAVOR_ZPSQ = 1

MAX_P = 251  # the largest prime with p**2 < 2**16; see the int64 bound above


def _ring_op(op, p, flavor, *args):
    """``op`` on packed entries, reduced by the flavour's carry rule."""
    out = op(*args)
    if flavor == FLAVOR_DUAL:
        out = out - p * (op(*(x % p for x in args)) // p)
    return out % (p * p)


def enc_add(x, y, p, flavor):
    return _ring_op(np.add, p, flavor, x, y)


def enc_sub(x, y, p, flavor):
    return _ring_op(np.subtract, p, flavor, x, y)


def enc_neg(x, p, flavor):
    return _ring_op(np.negative, p, flavor, x)


def enc_mul(x, y, p, flavor):
    return _ring_op(np.multiply, p, flavor, x, y)


def mat_mul(A, B, p, flavor):
    """A @ B over R; either side may be a stack (broadcast as np.matmul)."""
    return _ring_op(np.matmul, p, flavor, A, B)


mat_mul_many_right = mat_mul  # the name perfbench's kernel rows still time


def mat_inverse(A, p, flavor):
    """Inverse over R of a packed square matrix whose residue is invertible.

    The elimination of [A | I] over F_p ends in [I | x0] with x0 the
    residue inverse.  Then A*x0 = I - E with E in m, and E*E = 0, so one
    correction step X = x0 + x0*E is exact: A*X = (I - E)(I + E) = I.
    """
    n = A.shape[0]
    eye = np.eye(n, dtype=np.int64)
    _, _, pivot_cols, reduced = echelon_mod(np.hstack([A, eye]), p)
    if n and pivot_cols[-1] >= n:
        raise UsageError("residue matrix is singular")
    x0 = reduced[:, n:]
    E = enc_sub(eye, mat_mul(A, x0, p, flavor), p, flavor)
    return enc_add(x0, mat_mul(x0, E, p, flavor), p, flavor)


def echelon_mod(M, p):
    """Gauss-Jordan elimination over F_p, pivoting column by column.

    Returns ``(rank, pivot_rows, pivot_cols, reduced)``: the k-th pivot
    sits at original row ``pivot_rows[k]`` and column ``pivot_cols[k]``
    (columns ascending), and ``reduced`` is the reduced row echelon form
    with the pivot rows first, in pivot order.  The pivot rows only ever
    absorb multiples of earlier pivot rows, so ``M[pivot_rows][:,
    pivot_cols]`` is invertible mod p.
    """
    A = np.ascontiguousarray(M % p, dtype=np.int64).copy()
    rows, cols = A.shape
    order = list(range(rows))
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
            order[r], order[piv] = order[piv], order[r]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
        pivot_cols.append(c)
        r += 1
    return r, np.array(order[:r], dtype=np.intp), np.array(pivot_cols, dtype=np.intp), A


def rank_mod(M, p):
    return echelon_mod(M, p)[0]
