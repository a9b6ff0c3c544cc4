"""Hot arithmetic kernels, in numpy.

Every coefficient is packed into one int64 as ``v = a + p*b`` with
``a, b in [0, p)``, meaning ``a + b*r`` where r generates the maximal
ideal.  ``flavor`` selects the multiplication rule:

* ``FLAVOR_ZPSQ`` (1): the packed value *is* the integer mod p**2, so
  products carry from the a-part into the b-part.
* ``FLAVOR_DUAL`` (0): truncated polynomials k[X]/(X^2); the parts never
  interact except via a1*b2 + b1*a2.

int64 bound: accumulators hold sums of products of values < p**2, so
p**4 * n must stay below 2**63 for the inner dimension n of a product.
``RingSpec`` refuses p > ``MAX_P`` = 251, which keeps p**4 * n < 2**63
for every n < 2**31 and p**2 < 2**16 for the uint16 row keys of
``complexes._keys``.
"""

from __future__ import annotations

import numpy as np

FLAVOR_DUAL = 0
FLAVOR_ZPSQ = 1

MAX_P = 251  # the largest prime with p**2 < 2**16; see the int64 bound above


# ---------------------------------------------------------------------------
# elementwise helpers


def enc_add(x, y, p, flavor):
    if flavor == FLAVOR_ZPSQ:
        return (x + y) % (p * p)
    return (x + y) % p + p * ((x // p + y // p) % p)


def enc_neg(x, p, flavor):
    if flavor == FLAVOR_ZPSQ:
        return (-x) % (p * p)
    return (-x) % p + p * ((-(x // p)) % p)


def enc_mul(x, y, p, flavor):
    if flavor == FLAVOR_ZPSQ:
        return (x * y) % (p * p)
    a1, b1 = x % p, x // p
    a2, b2 = y % p, y // p
    return (a1 * a2) % p + p * ((a1 * b2 + b1 * a2) % p)


# ---------------------------------------------------------------------------
# matrix products


def mat_mul(A, B, p, flavor):
    if flavor == FLAVOR_ZPSQ:
        return (A @ B) % (p * p)
    Aa, Ab = A % p, A // p
    Ba, Bb = B % p, B // p
    ca = (Aa @ Ba) % p
    cb = (Aa @ Bb + Ab @ Ba) % p
    return ca + p * cb


def mat_mul_many_right(A, Bs, p, flavor):
    # A (m,k) against a stack Bs (n,k,l) -> (n,m,l)
    if flavor == FLAVOR_ZPSQ:
        return np.einsum("ij,njl->nil", A, Bs) % (p * p)
    Aa, Ab = A % p, A // p
    Ba, Bb = Bs % p, Bs // p
    ca = np.einsum("ij,njl->nil", Aa, Ba) % p
    cb = (np.einsum("ij,njl->nil", Aa, Bb) + np.einsum("ij,njl->nil", Ab, Ba)) % p
    return ca + p * cb


def mat_mul_many_left(As, B, p, flavor):
    # stack As (n,m,k) against B (k,l) -> (n,m,l)
    if flavor == FLAVOR_ZPSQ:
        return np.einsum("nij,jl->nil", As, B) % (p * p)
    Aa, Ab = As % p, As // p
    Ba, Bb = B % p, B // p
    ca = np.einsum("nij,jl->nil", Aa, Ba) % p
    cb = (np.einsum("nij,jl->nil", Aa, Bb) + np.einsum("nij,jl->nil", Ab, Ba)) % p
    return ca + p * cb


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
