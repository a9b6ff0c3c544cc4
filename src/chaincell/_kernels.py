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
flavours: zpsq reduces op(x, ...) mod p**2 (by ``residue``), and dual
first takes away the carry p*(op(x % p, ...) // p) of the residue
plane.  ``_ring_op`` holds that rule, and every arithmetic over R below
goes through it; ``echelon_mod`` and ``rank_mod`` work over the residue
field F_p.

``echelon_mod`` is the one F_p elimination: a per-pivot loop that skips
a pivot's trailing update when the pivot is the only nonzero in its
column, since the update would then touch the pivot row alone.  After
two columns in a row without a pivot it tests all later columns at once
on the rows not yet pivot rows, and stops when they vanish mod p: every
pivot's update already reached them, so nothing would change.  With
``carry`` it also carries the pivot block's residue inverse: the loop
runs as on [M | I] with pivots sought among M's columns only, keeping
just the identity columns of the rows that become pivots, one added per
pivot.  M's pivots and reduced form are those of M alone.
``lift_inverse`` lifts the carried inverse to the inverse over R;
``mat_inverse`` and ``reduce.minimize`` both read their inverses this
way, with no second elimination.

The loop itself is at its numpy floor.  On the benchmark's captured
eliminations (seed 5, one batch, process time, median of 15, a 2-vCPU
VM) every other layout tried was slower: rows swapped physically 41.3 vs
26.9 ms on barcode-deep, panel blocking 33.0-36.8 vs 30.2 ms, columns
permuted physically 32.4 vs 26.3 ms, a pivot search over Python lists
29.8 vs 28.6 ms.  A fit over those 411 calls puts 86% of the time in
fixed costs: 1.9 us a call, 2.8 us a visited column and 4.0 us more a
pivot.  So the gains left are in visiting fewer columns, which the early
stop does, and in cheaper whole-matrix reductions: ``residue`` takes
x - p*(x // p) from ``FLOOR_MIN_ENTRIES`` = 512 entries on, since numpy
divides an int64 by a scalar in 1.3-1.8 ns an entry and takes its
remainder in 3-5.5 ns, and ``%`` below, where the extra calls cost more.
Every benchmark workload reduces arrays on both sides of the switch, and
on each of them the switch beat both ``%`` alone and floor division
alone (in process, paired batches, 1.5-7%).

int64 bound: a matrix product sums n products of values < p**2, so
p**4 * n must stay below 2**63 for the inner dimension n, in both
flavours.  ``RingSpec`` refuses p > ``MAX_P`` = 251, which keeps
p**4 * n < 2**63 for every n < 2**31 and p**2 < 2**16 for the uint16
row keys of ``oracle._keys``.
float64 bound: ``matmul_exact`` multiplies in float64 BLAS only while
n*(p**2 - 1)**2 < 2**53, so every partial sum is an integer float64
holds exactly, and n >= ``FLOAT64_MIN_INNER``; otherwise in int64.
Lazy reduction: after k pivots of ``echelon_mod`` an entry lies in
(-k*(p-1)**2, p) and is at most scaled by an inverse < p, so int64 is
exact while (k+1)*p**3 < 2**63, about 5.8e11 pivots at p = 251.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UsageError

FLAVOR_DUAL = 0
FLAVOR_ZPSQ = 1

MAX_P = 251  # the largest prime with p**2 < 2**16; see the int64 bound above


FLOOR_MIN_ENTRIES = 512  # from this size on, residue reduces by floor division


def residue(x, p):
    """x mod p, as ``x % p`` on scalars and small arrays and
    ``x - p*(x // p)`` on arrays of ``FLOOR_MIN_ENTRIES`` entries or more:
    numpy divides by a scalar much faster than it takes a remainder, but
    the extra calls cost more than they save below about 500 entries."""
    if getattr(x, "size", 0) < FLOOR_MIN_ENTRIES:
        return x % p
    return x - p * (x // p)


def _ring_op(op, p, flavor, *args):
    """``op`` on packed entries, reduced by the flavour's carry rule."""
    out = op(*args)
    if flavor == FLAVOR_DUAL:
        out = out - p * (op(*(residue(x, p) for x in args)) // p)
    return residue(out, p * p)


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
    return _ring_op(lambda x, y: matmul_exact(x, y, p), p, flavor, A, B)


FLOAT64_MIN_INNER = 16  # below this inner dimension the casts cost more than BLAS saves


def _float64_product(n, p):  # whether matmul_exact's inner dimension n runs in float64
    return FLOAT64_MIN_INNER <= n and n * (p * p - 1) ** 2 < 2**53


def matmul_exact(A, B, p):
    """np.matmul of int64 arrays with entries below p**2 in magnitude, exact."""
    if not _float64_product(A.shape[-1], p):
        return np.matmul(A, B)
    return np.matmul(A.astype(np.float64), B.astype(np.float64)).astype(np.int64)


mat_mul_many_right = mat_mul  # the name perfbench's kernel rows still time


def mat_inverse(A, p, flavor):
    """Inverse over R of a packed square matrix whose residue is invertible.

    One elimination of A over F_p that carries the residue inverse
    (``echelon_mod`` with ``carry``), lifted to R by ``lift_inverse``.
    ``reduce.minimize`` reads its P^-1 the same way, off the elimination
    that finds P.
    """
    n = A.shape[0]
    rank, pivot_rows, _, reduced = echelon_mod(A, p, carry=True)
    if rank < n:
        raise UsageError("residue matrix is singular")
    x0 = np.empty((n, n), dtype=np.int64)
    x0[:, pivot_rows] = reduced[:, n:]  # carried column k belongs to row pivot_rows[k]
    return lift_inverse(A, x0, p, flavor)


def lift_inverse(A, x0, p, flavor):
    """The inverse over R of a square A, from a residue inverse x0.

    A*x0 = I - E with E in m, and E*E = 0, so one correction step
    X = x0 + x0*E is exact: A*X = (I - E)(I + E) = I.
    """
    E = enc_sub(np.eye(A.shape[0], dtype=np.int64), mat_mul(A, x0, p, flavor), p, flavor)
    return enc_add(x0, mat_mul(x0, E, p, flavor), p, flavor)


def echelon_mod(M, p, carry=False):
    """Gauss-Jordan elimination over F_p, pivoting column by column.

    Returns ``(rank, pivot_rows, pivot_cols, reduced)``: the k-th pivot
    sits at original row ``pivot_rows[k]`` and column ``pivot_cols[k]``
    (columns ascending), and ``reduced`` is the reduced row echelon form
    with the pivot rows first, in pivot order.  The pivot rows only ever
    absorb multiples of pivot rows, so ``M[pivot_rows][:, pivot_cols]``
    is invertible mod p.  Works on the transpose, with ``perm`` mapping
    positions to original rows, so swaps move no data.

    The loop ends early once two columns in a row bring no pivot and the
    later columns vanish mod p on the rows not yet pivot rows; the
    entries it would have visited are final already.  The entry copy and
    the final reduction go through ``residue``.

    With ``carry``, ``reduced`` has ``rank`` more columns: those of the
    identity in the elimination of [M | I] whose pivots are sought among
    M's columns only, read at ``pivot_rows``.  The other identity
    columns stay zero in every pivot row, so ``reduced[:rank, cols:]`` is
    the inverse of that pivot block mod p.  The k-th carried column is
    added when row ``pivot_rows[k]`` becomes the k-th pivot; before that
    it is zero in every row, so the updates stop at the last one added.
    """
    AT = np.array(residue(M.T, p), dtype=np.int64, order="C")
    cols, rows = AT.shape
    if carry:
        AT = np.vstack([AT, np.zeros((min(rows, cols), rows), dtype=np.int64)])
    inverse = _inverse_table(p)
    perm = np.arange(rows)
    pivot_cols = []
    r = 0
    idle = 0  # columns since the last pivot
    end = cols  # the updates reach M's columns and the carried ones added so far
    for c in range(cols):
        if r == rows:
            break
        col = AT[c] % p
        nz = col[perm[r:]].nonzero()[0]
        if not nz.size:
            idle += 1
            # stop if no later column has a unit left on a free row; once per
            # idle run, and not after one idle column, as deaths in the barcode
            # sweep often come one at a time between pivots
            if idle == 2 and not residue(AT[c + 1 : cols, perm[r:]], p).any():
                break
            continue
        idle = 0
        piv = r + nz[0]
        perm[r], perm[piv] = perm[piv], perm[r]
        pr = perm[r]
        if carry:
            AT[end, pr] = 1
            end += 1
        # the pivot row is zero mod p left of c, so columns < c need no update
        row = AT[c:end, pr] * inverse[col[pr]] % p
        if nz.size > 1 or col[perm[:r]].any():  # else the update touches row pr alone
            AT[c:end] -= row[:, None] * col
        AT[c:end, pr] = row
        pivot_cols.append(c)
        r += 1
    AT = residue(AT[:end], p)
    # fancy indexing returns the rows in C order, pivot rows first
    return r, perm[:r], np.array(pivot_cols, dtype=np.intp), AT.T[perm]


@functools.lru_cache(maxsize=None)
def _inverse_table(p):
    return (0,) + tuple(pow(a, -1, p) for a in range(1, p))


def rank_mod(M, p):
    return echelon_mod(M, p)[0]
