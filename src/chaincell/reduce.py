"""Splitting a perfect complex into contractible disks plus intervals.

``minimize`` sweeps the degrees once, lowest first.  In each degree the
F_p row echelon of the residue of the live differential finds a unit
block P, one pivot per embedded disk; the Gaussian elimination lemma
(Bar-Natan, "Fast Khovanov homology computations", 2007, Lemma 4.2)
splits all of them off in one invertible block change and leaves the
Schur complement T - S*P^-1*Q, whose residue is zero.  What remains is
minimal (all differential entries in the maximal ideal) and decomposes
into interval summands; ``barcode`` counts them through the
composite-rank table rho(a, b) = rank over k of B_{a+1} ... B_b, where
d = r*B on a minimal complex.  A summand spanning degrees [i, i+j]
contributes one to rho(a, b) exactly when i <= a <= b <= i+j, so
inclusion-exclusion on rho recovers the multiplicities, an exact count
equivalent to peeling off one lowest interval summand at a time.

``rho_table`` reads the whole table from one sweep down the degrees,
one F_p elimination per degree: it carries a basis of the image in V_n
filtered by birth degree (each vector tagged with the degree b it came
from, the vectors tagged >= b spanning the image of V_b), the
filtered-basis reduction of Zomorodian and Carlsson ("Computing
persistent homology", 2005).  ``composite_rank`` keeps the product-chain
definition as an independent check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from ._kernels import echelon_mod, enc_add, enc_sub, mat_inverse, mat_mul
from .complexes import ChainComplex, disk, interval, make_complex, require_valid
from .errors import ChaincellError, UsageError
from .linalg import MatrixR
from .ops import direct_sum_all
from .ring import RingSpec


@dataclass
class MinimizeResult:
    minimal: ChainComplex
    disks: tuple  # degrees, ascending
    certificates: list  # per input degree: (U, Uinv) MatrixR pairs


@dataclass
class Decomposition:
    intervals: Counter  # (i, j) -> multiplicity
    disks: Counter  # degree -> multiplicity
    certificates: Optional[list]
    minimal: Optional[ChainComplex]

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
    A step touches only the pivot rows and columns of the neighbouring
    differentials, which vanish there, so one sweep leaves every
    differential minimal.
    """
    require_valid(X)
    p, fl = X.ring.p, X.ring.flavor_code
    n_degrees = len(X.ranks)
    # live differentials, and per degree the live columns of U and rows of
    # Uinv; invariant: W[n] == Uinv[n-1] @ d_n(original) @ U[n] on live parts
    W = [None] + [X.d(n).data for n in range(1, n_degrees)]
    U = [np.eye(r, dtype=np.int64) for r in X.ranks]
    Uinv = [np.eye(r, dtype=np.int64) for r in X.ranks]
    # retired basis per degree: disk tops (split at n) then disk bottoms (at n+1)
    U_disk = [[] for _ in range(n_degrees)]
    Uinv_disk = [[] for _ in range(n_degrees)]
    disks = []
    for n in range(1, n_degrees):
        D = W[n]
        if not np.any(D % p):
            continue
        s, I, J, _ = echelon_mod(D, p)
        Ic, Jc = _complement(I, D.shape[0]), _complement(J, D.shape[1])
        # D = [[P, Q], [S, T]] in (I, Ic) x (J, Jc) order.  The column change
        # C = [[P^-1, -P^-1 Q], [0, 1]] on degree n and the row change
        # R = [[1, 0], [-S P^-1, 1]] on degree n-1 give
        # R D C = [[1, 0], [0, T - S P^-1 Q]]
        D_I, D_Ic = D[I], D[Ic]
        P_inv = mat_inverse(D_I[:, J], p, fl)
        Q = D_I[:, Jc]
        SP_inv = mat_mul(D_Ic[:, J], P_inv, p, fl)
        W[n] = enc_sub(D_Ic[:, Jc], mat_mul(SP_inv, Q, p, fl), p, fl)
        if np.any(W[n] % p):
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
        # degree n: U <- U C, Uinv <- C^-1 Uinv
        U_P_inv = mat_mul(U[n][:, J], P_inv, p, fl)
        U_disk[n].append(U_P_inv)
        Uinv_disk[n].append(mat_mul(D_I, Uinv[n], p, fl))
        U[n] = enc_sub(U[n][:, Jc], mat_mul(U_P_inv, Q, p, fl), p, fl)
        Uinv[n] = Uinv[n][Jc]
        # degree n-1: U <- U R^-1, Uinv <- R Uinv
        m = n - 1
        U_disk[m].append(enc_add(U[m][:, I], mat_mul(U[m][:, Ic], SP_inv, p, fl), p, fl))
        Uinv_disk[m].append(Uinv[m][I])
        Uinv[m] = enc_sub(Uinv[m][Ic], mat_mul(SP_inv, Uinv[m][I], p, fl), p, fl)
        U[m] = U[m][:, Ic]
        disks += [n] * s

    m_ranks = [U[m].shape[1] for m in range(n_degrees)]
    m_diffs = [MatrixR(X.ring, W[n]) for n in range(1, n_degrees)]
    minimal = make_complex(X.ring, m_ranks, m_diffs, check=False)
    certificates = [
        (
            MatrixR(X.ring, np.hstack([U[m]] + U_disk[m])),
            MatrixR(X.ring, np.vstack([Uinv[m]] + Uinv_disk[m])),
        )
        for m in range(n_degrees)
    ]
    return MinimizeResult(minimal, tuple(disks), certificates)


def verify_certificates(X: ChainComplex, result: MinimizeResult) -> bool:
    """Conjugating X by the certificates must reproduce minimal (+) disks."""
    block_form = direct_sum_all(
        X.ring, [result.minimal] + [disk(X.ring, n) for n in result.disks]
    )
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
    for n in range(1, len(M.ranks)):
        if linalg.find_unit_pivot(M.d(n)) is not None:
            raise UsageError(f"complex is not minimal: unit entry in d{n}")


def _r_parts(M: ChainComplex):
    """The k-matrices B_n with d_n = r * B_n, for n = 1..top."""
    return [None] + [M.d(n).r_coefficients() for n in range(1, len(M.ranks))]


def composite_rank(M: ChainComplex, a: int, b: int) -> int:
    """rank_k(B_{a+1} @ ... @ B_b); equals ranks[a] when a == b."""
    require_valid(M)
    _require_minimal(M)
    if not (0 <= a <= b <= M.top):
        raise UsageError(f"degrees out of range: ({a}, {b}) for top {M.top}")
    if a == b:
        return M.ranks[a]
    parts = _r_parts(M)
    prod = parts[a + 1]
    for n in range(a + 2, b + 1):
        prod = linalg.matmul_k(prod, parts[n])
    return linalg.rank_k(prod)


def rho_table(M: ChainComplex) -> dict:
    """All composite ranks {(a, b): rho(a, b)} for 0 <= a <= b <= top.

    One sweep from the top degree down.  Entering degree n, ``basis`` is
    a basis of Im(V_{n+1} -> V_n) whose columns tagged >= b span
    Im(V_b -> V_n), tags descending.  The columns of [B_n basis | B_n],
    B_n's own tagged n, then span every Im(V_b -> V_{n-1}) for b >= n
    as prefixes, and the pivot columns of one F_p elimination are the
    greedy independent set in column order, so they keep that property
    one degree lower.
    """
    require_valid(M)
    _require_minimal(M)
    p = M.ring.p
    parts = _r_parts(M)
    table = {(a, a): r for a, r in enumerate(M.ranks)}
    basis = np.zeros((M.rank(M.top), 0), dtype=np.int64)
    tags = np.zeros(0, dtype=np.intp)
    for n in range(M.top, 0, -1):
        B = parts[n].data
        columns = np.hstack([(B @ basis) % p, B])
        _, _, pivots, _ = echelon_mod(columns, p)
        basis = columns[:, pivots]
        tags = np.concatenate([tags, np.full(B.shape[1], n, dtype=np.intp)])[pivots]
        for b in range(n, M.top + 1):
            table[(n - 1, b)] = int(np.count_nonzero(tags >= b))
    return dict(sorted(table.items()))


def barcode(M: ChainComplex) -> Counter:
    """Interval multiplicities of a minimal complex by inclusion-exclusion."""
    return _barcode_from_table(rho_table(M), len(M.ranks))


def _barcode_from_table(table: dict, n_degrees: int) -> Counter:
    rho = lambda a, b: table.get((a, b), 0)
    out = Counter()
    for a in range(n_degrees):
        for b in range(a, n_degrees):
            mult = rho(a, b) - rho(a - 1, b) - rho(a, b + 1) + rho(a - 1, b + 1)
            if mult < 0:
                raise ChaincellError(
                    f"negative interval multiplicity at ({a}, {b}); "
                    "minimal complexes always split into intervals"
                )
            if mult:
                out[(a, b - a)] = mult
    return out


def decompose(X: ChainComplex) -> Decomposition:
    """Full structure: disks from minimization, intervals from the barcode.

    Verifies internally that the reconstruction has the same rank vector
    as the input and the same rho table as the minimal part.  Invalid
    input is refused by ``minimize``.
    """
    mr = minimize(X)
    table = rho_table(mr.minimal)
    intervals = _barcode_from_table(table, len(mr.minimal.ranks))
    dec = Decomposition(intervals, Counter(mr.disks), mr.certificates, mr.minimal)

    for n in range(len(X.ranks)):
        covering = sum(m for (i, j), m in intervals.items() if i <= n <= i + j)
        d_here = dec.disks.get(n, 0) + dec.disks.get(n + 1, 0)
        if X.ranks[n] != covering + d_here:
            raise ChaincellError(
                f"rank accounting failed at degree {n}: "
                f"{X.ranks[n]} != {covering} + {d_here}"
            )
    rebuilt_min = direct_sum_all(
        X.ring, [interval(X.ring, i, j) for i, j in dec.interval_list()]
    )
    if rho_table(rebuilt_min) != table:
        raise ChaincellError("reconstruction differs from input in its rho table")
    return dec


def reconstruct(dec: Decomposition, ring: RingSpec) -> ChainComplex:
    """Direct sum of the named intervals then disks, in sorted order."""
    summands = [interval(ring, i, j) for i, j in dec.interval_list()]
    summands += [disk(ring, n) for n in dec.disk_list()]
    return direct_sum_all(ring, summands)


def bottom_degree(X: ChainComplex) -> Optional[int]:
    """Lowest degree of the minimal model; None when X is contractible."""
    minimal = minimize(X).minimal
    for n, r in enumerate(minimal.ranks):
        if r:
            return n
    return None
