"""Splitting a perfect complex into contractible disks plus intervals.

``minimize`` sweeps the degrees once, lowest first.  In each degree the
F_p row echelon of the residue of the live differential finds a unit
block P, one pivot per embedded disk; the Gaussian elimination lemma
(Bar-Natan, "Fast Khovanov homology computations", 2007, Lemma 4.2)
splits all of them off in one invertible block change and leaves the
Schur complement T - S*P^-1*Q, whose residue is zero; the steps are
recorded and multiplied out into certificates only when read.  One
F_p elimination per degree finds P and its inverse: it runs as on
[D | I] with pivots sought among D's columns only, so it carries P's
residue inverse, which one correction step lifts to P^-1 over R.  What
remains is minimal (all differential entries in the maximal ideal) and
decomposes into interval summands.  ``barcode`` reads them off one sweep
down the degrees, with d = r*B on a minimal complex: one F_p elimination
per degree, at its own width, carries a basis of the image in V_n
filtered by birth degree (each vector tagged with the degree it came
from), the filtered-basis reduction of Zomorodian and Carlsson
("Computing persistent homology", 2005).  A column that is not a pivot
stands for a generator that dies there, by their elder rule, so the
births and deaths are the bars; each death is checked against its
elimination's combination in place.  ``rho_table`` counts the bars that
cover [a, b], which is the composite rank rho(a, b) = rank over k of
B_{a+1} ... B_b.  ``homology`` reads only the barcode.

``_row_ranks`` reads one row of rho as ranks of the running products
B_{a+1} ... B_b instead: ``composite_rank`` and ``lattice.min_pair``
read it, and ``decompose`` checks the barcode's bottom row against it.
Together with the death check, that catches a dropped pivot or a wrong
coefficient in any degree; a spurious pivot (a dependent column taken
as independent) is caught only where it changes the bottom row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Optional

import numpy as np

from . import linalg
from ._kernels import (
    echelon_mod,
    enc_add,
    enc_sub,
    lift_inverse,
    mat_mul,
    matmul_exact,
    rank_mod,
    residue,
)
from .complexes import (
    ChainComplex,
    ModuleDescriptor,
    _inherit_verdict,
    interval_sum,
    make_complex,
    require_valid,
)
from .errors import ChaincellError, UsageError
from .linalg import MatrixR
from .ops import direct_sum_all
from .ring import RingSpec


@dataclass
class MinimizeResult:
    minimal: ChainComplex
    disks: tuple  # degrees, ascending
    input_ranks: tuple = field(repr=False, compare=False)
    steps: list = field(repr=False, compare=False)  # (n, I, J, P_inv, Q, SP_inv, D_I)

    @cached_property
    def certificates(self) -> list:
        """Per input degree (U, Uinv), multiplied out from the steps on first read."""
        ring = self.minimal.ring
        p, fl = ring.p, ring.flavor_code
        U = [np.eye(r, dtype=np.int64) for r in self.input_ranks]
        Uinv = [np.eye(r, dtype=np.int64) for r in self.input_ranks]
        # retired basis per degree: disk tops (split at n) then disk bottoms (at n+1)
        U_disk = [[] for _ in self.input_ranks]
        Uinv_disk = [[] for _ in self.input_ranks]
        for n, I, J, P_inv, Q, SP_inv, D_I in self.steps:
            m = n - 1
            Ic, Jc = _complement(I, U[m].shape[1]), _complement(J, U[n].shape[1])
            # degree n: U <- U C, Uinv <- C^-1 Uinv
            U_P_inv = mat_mul(U[n][:, J], P_inv, p, fl)
            U_disk[n].append(U_P_inv)
            Uinv_disk[n].append(mat_mul(D_I, Uinv[n], p, fl))
            U[n] = enc_sub(U[n][:, Jc], mat_mul(U_P_inv, Q, p, fl), p, fl)
            Uinv[n] = Uinv[n][Jc]
            # degree n-1: U <- U R^-1, Uinv <- R Uinv
            U_disk[m].append(enc_add(U[m][:, I], mat_mul(U[m][:, Ic], SP_inv, p, fl), p, fl))
            Uinv_disk[m].append(Uinv[m][I])
            Uinv[m] = enc_sub(Uinv[m][Ic], mat_mul(SP_inv, Uinv[m][I], p, fl), p, fl)
            U[m] = U[m][:, Ic]
        return [
            (
                MatrixR(ring, np.hstack([U[m]] + U_disk[m])),
                MatrixR(ring, np.vstack([Uinv[m]] + Uinv_disk[m])),
            )
            for m in range(len(self.input_ranks))
        ]

    @property
    def bottom(self) -> Optional[int]:
        """Lowest degree of the minimal part; None when X is contractible."""
        return next((n for n, r in enumerate(self.minimal.ranks) if r), None)

    def barcode(self) -> Counter:
        """``barcode`` of the minimal part."""
        return barcode(self.minimal)


@dataclass
class Decomposition:
    intervals: Counter  # (i, j) -> multiplicity
    disks: Counter  # degree -> multiplicity
    minimal: ChainComplex

    def interval_list(self):
        return sorted(self.intervals.elements())

    def disk_list(self):
        return sorted(self.disks.elements())


def _complement(idx, size):
    keep = np.ones(size, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep)


def minimize(X: ChainComplex) -> MinimizeResult:
    """Split off every embedded disk; returns the minimal part plus witnesses.

    One block step per degree, lowest first, with pivots from the F_p
    row echelon of the residue (so the certificates are reproducible).
    The step's one elimination of D carries P's residue inverse, as the
    elimination of [D | I] with pivots among D's columns would, and
    ``lift_inverse`` lifts it to P^-1 without a second elimination.
    A step touches only the pivot rows and columns of the neighbouring
    differentials, which vanish there, so one sweep leaves every
    differential minimal.
    """
    require_valid(X)
    p, fl = X.ring.p, X.ring.flavor_code
    n_degrees = len(X.ranks)
    # live differentials: W[n] is d_n in the basis built by the steps so far
    W = [None] + [X.d(n).data for n in range(1, n_degrees)]
    steps, disks = [], []
    for n in range(1, n_degrees):
        D = W[n]
        if not residue(D, p).any():
            continue
        rows, cols = D.shape
        s, I, J, reduced = echelon_mod(D, p, carry=True)
        Ic, Jc = _complement(I, rows), _complement(J, cols)
        # D = [[P, Q], [S, T]] in (I, Ic) x (J, Jc) order.  The column change
        # C = [[P^-1, -P^-1 Q], [0, 1]] on degree n and the row change
        # R = [[1, 0], [-S P^-1, 1]] on degree n-1 give
        # R D C = [[1, 0], [0, T - S P^-1 Q]]
        D_I, D_Ic = D[I], D[Ic]
        P_inv = lift_inverse(D_I[:, J], reduced[:s, cols:], p, fl)
        Q = D_I[:, Jc]
        SP_inv = mat_mul(D_Ic[:, J], P_inv, p, fl)
        W[n] = enc_sub(D_Ic[:, Jc], mat_mul(SP_inv, Q, p, fl), p, fl)
        if residue(W[n], p).any():
            raise ChaincellError(f"Schur complement in d{n} has a unit entry")
        if n + 1 < n_degrees:
            if np.any(mat_mul(D_I, W[n + 1], p, fl)):  # J rows of C^-1 W[n+1]
                raise ChaincellError("split disk has an incoming differential")
            W[n + 1] = W[n + 1][Jc]
        if n >= 2:
            prev = W[n - 1]
            out = enc_add(prev[:, I], mat_mul(prev[:, Ic], SP_inv, p, fl), p, fl)
            if np.any(out):  # I columns of W[n-1] R^-1
                raise ChaincellError("split disk has an outgoing differential")
            W[n - 1] = prev[:, Ic]
        steps.append((n, I, J, P_inv, Q, SP_inv, D_I))
        disks += [n] * s

    # a disk split at n takes one basis vector from degrees n and n-1
    m_ranks = [r - disks.count(m) - disks.count(m + 1) for m, r in enumerate(X.ranks)]
    m_diffs = [MatrixR(X.ring, W[n]) for n in range(1, n_degrees)]
    # valid: X was, and the Schur and disk checks above passed
    minimal = _inherit_verdict(make_complex(X.ring, m_ranks, m_diffs, check=False), X)
    return MinimizeResult(minimal, tuple(disks), X.ranks, steps)


def verify_certificates(X: ChainComplex, result: MinimizeResult) -> bool:
    """Conjugating X by the certificates must reproduce minimal (+) disks."""
    block_form = direct_sum_all(X.ring, [result.minimal, interval_sum(X.ring, [], result.disks)])
    if tuple(block_form.ranks) != tuple(X.ranks):
        return False
    for m, (u, uinv) in enumerate(result.certificates):
        if linalg.matmul(u, uinv) != linalg.identity(X.ring, X.ranks[m]):
            return False
    for n in range(1, len(X.ranks)):
        u_prev_inv = result.certificates[n - 1][1]
        u_n = result.certificates[n][0]
        conj = linalg.apply_basis_change(X.d(n), u_prev_inv, u_n)
        if conj != block_form.d(n):
            return False
    return True


# ---------------------------------------------------------------------------
# composite ranks and the barcode


def _require_minimal(M: ChainComplex):
    """Refuse a complex with a unit entry in some differential."""
    for n, d in enumerate(M.diffs, 1):
        if residue(d.data, M.ring.p).any():
            raise UsageError(f"complex is not minimal: unit entry in d{n}")


def _row_ranks(M: ChainComplex, a: int):
    """rho(a, b) for b = a, ..., top, lazily, on a minimal complex: rank_k of
    the running product B_{a+1} @ ... @ B_b, with d_n = r * B_n.  After the
    first zero no product is formed, since every longer one is zero too."""
    p = M.ring.p
    rank, prod = M.ranks[a], None
    yield rank
    for n in range(a + 1, len(M.ranks)):
        if rank:
            B = M.d(n).data // p
            prod = B if prod is None else residue(matmul_exact(prod, B, p), p)
            rank = rank_mod(prod, p)
        yield rank


def composite_rank(M: ChainComplex, a: int, b: int) -> int:
    """rank_k(B_{a+1} @ ... @ B_b); equals ranks[a] when a == b."""
    require_valid(M)
    _require_minimal(M)
    if not (0 <= a <= b <= M.top):
        raise UsageError(f"degrees out of range: ({a}, {b}) for top {M.top}")
    return list(islice(_row_ranks(M, a), b - a + 1))[-1]


def rho_table(M: ChainComplex) -> dict:
    """All composite ranks {(a, b): rho(a, b)} for 0 <= a <= b <= top,
    each the number of bars of ``barcode`` that cover [a, b]."""
    bars = barcode(M)
    degrees = range(len(M.ranks))
    return {(a, b): _covering(bars, a, b) for a in degrees for b in degrees[a:]}


def _covering(bars: Counter, a: int, b: int) -> int:
    """The number of bars (i, j) with i <= a <= b <= i + j."""
    return sum(m for (i, j), m in bars.items() if i <= a and b <= i + j)


def barcode(M: ChainComplex) -> Counter:
    """Interval multiplicities {(i, j): m} of a minimal complex.

    One sweep from the top degree down.  Entering degree n, ``basis`` is
    a basis of Im(V_{n+1} -> V_n) whose columns tagged >= b span
    Im(V_b -> V_n), tags descending, and ``free`` holds the rows of V_n
    that were not pivot rows of the elimination that built it (all of
    V_top at the start).  G = [basis | e_free] is invertible: the
    elimination leaves basis[pivot rows] invertible mod p, so G is block
    lower triangular in the row order (pivot rows, free) with that block
    and an identity on its diagonal.  The columns of
    B_n G = [B_n basis | B_n[:, free]], the second part tagged n, then
    span Im(V_n -> V_{n-1}) and every Im(V_b -> V_{n-1}) for b > n as
    prefixes, and the pivot columns of one F_p elimination are the
    greedy independent set in column order, so they keep that property
    one degree lower.  Each elimination is ranks[n-1] x ranks[n].

    A column that is not a pivot is the combination ``reduced[:r, c]``
    of the pivot columns before it, whose tags are no smaller: its
    generator minus that combination of older ones dies at n, the bar
    (n, tag - n).  Each such death is checked in place, so a dropped
    pivot or a wrong coefficient raises.  The columns left at V_0 and
    the free rows of V_0 give the bars (0, tag).
    """
    require_valid(M)
    _require_minimal(M)
    p = M.ring.p
    bars = Counter()
    basis = np.zeros((M.rank(M.top), 0), dtype=np.int64)
    free = np.arange(M.rank(M.top))
    tags = np.zeros(0, dtype=np.intp)
    for n in range(M.top, 0, -1):
        B = M.d(n).data // p
        columns = np.hstack([residue(matmul_exact(B, basis, p), p), B[:, free]])
        tags = np.concatenate([tags, np.full(len(free), n, dtype=np.intp)])
        r, pivot_rows, pivots, reduced = echelon_mod(columns, p)
        basis = columns[:, pivots]
        if r < columns.shape[1]:
            dead = _complement(pivots, columns.shape[1])
            coeffs = reduced[:r, dead]
            combined = matmul_exact(basis, coeffs, p) - columns[:, dead]
            if coeffs[pivots[:, None] > dead].any() or residue(combined, p).any():
                raise ChaincellError(
                    f"a column that dies at degree {n} is not its elimination's combination"
                )
            _count_tags(bars, n, tags[dead])
        tags = tags[pivots]
        free = _complement(pivot_rows, B.shape[0])
    _count_tags(bars, 0, tags)
    if len(free):
        bars[0, 0] += len(free)
    return Counter(dict(sorted(bars.items())))


def _count_tags(bars: Counter, n: int, tags: np.ndarray):
    """Count the bars (n, t - n) of generators tagged t that die at n."""
    counts = np.bincount(tags)
    for t in np.flatnonzero(counts).tolist():
        bars[n, t - n] += int(counts[t])


def decompose(X: ChainComplex) -> Decomposition:
    """Full structure: disks from minimization, intervals from the barcode.

    Checks the input's rank in every degree against the intervals and
    disks, and the bars' bottom row rho(i, b) against ``_row_ranks``,
    which does not go through the sweep.  With the sweep's own check of
    every death, that catches a dropped pivot or a wrong coefficient in
    any degree, but a spurious pivot only where it changes the bottom
    row.  Invalid input is refused by ``minimize``.
    """
    mr = minimize(X)
    M = mr.minimal
    intervals = mr.barcode()
    dec = Decomposition(intervals, Counter(mr.disks), M)

    for n in range(len(X.ranks)):
        covering = _covering(intervals, n, n)
        d_here = dec.disks.get(n, 0) + dec.disks.get(n + 1, 0)
        if X.ranks[n] != covering + d_here:
            raise ChaincellError(
                f"rank accounting failed at degree {n}: "
                f"{X.ranks[n]} != {covering} + {d_here}"
            )
    i = mr.bottom
    if i is not None:
        row = [_covering(intervals, i, b) for b in range(i, M.top + 1)]
        if list(_row_ranks(M, i)) != row:
            raise ChaincellError(f"rho table row {i} differs from its product chain")
    return dec


def reconstruct(dec: Decomposition, ring: RingSpec) -> ChainComplex:
    """Direct sum of the named intervals then disks, in sorted order."""
    return interval_sum(ring, dec.interval_list(), dec.disk_list())


def homology(X: ChainComplex) -> list:
    """H_n as ModuleDescriptors, degree 0..top, from the minimal part's barcode.

    An interval (i, 0) gives a copy of R in degree i; a longer interval
    gives one copy of k at each end.  Invalid input is refused by
    ``minimize``.
    """
    out = [[0, 0] for _ in range(len(X.ranks))]
    for (i, j), mult in minimize(X).barcode().items():
        if j == 0:
            out[i][0] += mult
        else:
            out[i][1] += mult
            out[i + j][1] += mult
    return [ModuleDescriptor(a, b) for a, b in out]


def bottom_degree(X: ChainComplex) -> Optional[int]:
    """Lowest degree of the minimal model; None when X is contractible."""
    return minimize(X).bottom
