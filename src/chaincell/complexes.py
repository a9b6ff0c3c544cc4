"""Bounded chain complexes of finite free modules, and brute-force homology.

A complex is a rank vector indexed by degree 0..N (trailing zeros
trimmed, so the empty complex is canonical) plus one differential
matrix per positive degree, with d(n) of shape ranks[n-1] x ranks[n]
and d(n) @ d(n+1) = 0.

Complexes and matrices are frozen values.  Every public function
validates the complexes it takes through ``require_valid``, which
computes a complex's ``validate`` verdict once and keeps it on it.

Homology groups over these rings are always of the form R^a (+) k^b
(``ModuleDescriptor``); ``reduce.homology`` reads them off the barcode,
and ``brute_homology`` recomputes them by elementwise enumeration so the
shortcut can be checked against the definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Optional

import numpy as np

from . import _kernels, linalg
from .errors import ChaincellError, DomainError, GuardExceeded, InvalidComplexError
from .linalg import MatrixR
from .ring import RingSpec

BRUTE_WORK_LIMIT = 1 << 20
# A complex spans at most this many degrees.  Building one costs about
# 13 us and 0.4 KB a degree, so the cap is checked before anything is built.
MAX_DEGREES = 1 << 16
# ``sum``, ``cone``, ``extension``, ``tensor``, ``hom`` and the random
# complexes build at most this many dense cells (512 MB as int64), counted
# from the ranks before anything is built.
MAX_CELLS = 1 << 26
# A refused count above this is too large to build; its ``.required`` is None.
EXACT_REQUIRED = 1 << 64

_UNKNOWN = object()  # the verdict of a complex not validated yet


@dataclass(frozen=True)
class ChainComplex:
    ring: RingSpec
    ranks: tuple
    diffs: tuple  # diffs[k] = d_{k+1}, shape ranks[k] x ranks[k+1]
    # validate's verdict once known: None when well formed, else its diagnostic
    _verdict: object = field(default=_UNKNOWN, init=False, repr=False, compare=False)

    __hash__ = None  # unhashable, as its matrices are

    @property
    def top(self) -> int:
        """Top degree; -1 for the empty complex."""
        return len(self.ranks) - 1

    @property
    def total_rank(self) -> int:
        return sum(self.ranks)

    def rank(self, n: int) -> int:
        if 0 <= n <= self.top:
            return self.ranks[n]
        return 0

    def d(self, n: int) -> MatrixR:
        """Differential out of degree n; zero-shaped beyond the ends."""
        if 1 <= n <= self.top:
            return self.diffs[n - 1]
        return linalg.zeros(self.ring, self.rank(n - 1), self.rank(n))

    def is_empty(self) -> bool:
        return len(self.ranks) == 0

    def __str__(self) -> str:
        return f"ChainComplex({self.ring}, ranks={list(self.ranks)})"


def make_complex(ring: RingSpec, ranks, diffs, check: bool = True) -> ChainComplex:
    """Canonical constructor: trims trailing zero ranks, optionally validates."""
    ranks = list(int(r) for r in ranks)
    diffs = list(diffs)
    while ranks and ranks[-1] == 0:
        ranks.pop()
    diffs = diffs[: max(len(ranks) - 1, 0)]
    cx = ChainComplex(ring, tuple(ranks), tuple(diffs))
    if check:
        problem = validate(cx)
        if problem is not None:
            raise InvalidComplexError(problem)
        object.__setattr__(cx, "_verdict", None)
    return cx


def _inherit_verdict(cx: ChainComplex, *sources: ChainComplex) -> ChainComplex:
    """cx, marked valid when every complex it was built from carries a
    valid verdict; otherwise its verdict stays unknown until first use."""
    if all(X._verdict is None for X in sources):
        object.__setattr__(cx, "_verdict", None)
    return cx


def validate(X: ChainComplex) -> Optional[str]:
    """None when the complex is well formed; else a first-failure diagnostic."""
    n_degrees = len(X.ranks)
    expected = max(n_degrees - 1, 0)
    if len(X.diffs) != expected:
        return f"expected {expected} differentials, found {len(X.diffs)}"
    for n in range(1, n_degrees):
        m = X.diffs[n - 1]
        if m.ring != X.ring:
            return f"degree {n}: differential ring {m.ring} != {X.ring}"
        if (m.rows, m.cols) != (X.ranks[n - 1], X.ranks[n]):
            return (
                f"degree {n}: differential shape {m.rows}x{m.cols}, "
                f"expected {X.ranks[n - 1]}x{X.ranks[n]}"
            )
    # a product of two matrices with every entry in m is zero (m^2 = 0)
    in_m = [not np.any(m.data % X.ring.p) for m in X.diffs]
    for n in range(1, n_degrees - 1):
        if in_m[n - 1] and in_m[n]:
            continue
        if not linalg.is_zero(linalg.matmul(X.diffs[n - 1], X.diffs[n])):
            return f"degree {n}: d{n}*d{n + 1} != 0"
    return None


def require_valid(X: ChainComplex):
    """Refuse an invalid complex, validating it only if its verdict is unknown."""
    if X._verdict is _UNKNOWN:
        object.__setattr__(X, "_verdict", validate(X))
    if X._verdict is not None:
        raise InvalidComplexError(X._verdict)


def _check_degrees(n: int):
    """Refuse a complex of n degrees above ``MAX_DEGREES`` before it is built."""
    if n > MAX_DEGREES:
        raise GuardExceeded(f"{n} degrees exceed the cap of {MAX_DEGREES}", required=n)


def _check_cells(*rank_lists, extra: int = 0):
    """Refuse complexes of these ranks whose differentials, with ``extra``
    cells more, would hold more than ``MAX_CELLS`` cells in all, before
    they are built."""
    cells = extra + sum(a * b for ranks in rank_lists for a, b in pairwise(ranks))
    if cells > MAX_CELLS:
        raise GuardExceeded(f"{cells} cells exceed the cap of {MAX_CELLS}", required=cells)


# ---------------------------------------------------------------------------
# canonical constructors


def empty(ring: RingSpec) -> ChainComplex:
    return ChainComplex(ring, (), ())


def sphere(ring: RingSpec, n: int) -> ChainComplex:
    """Rank one in degree n only."""
    if n < 0:
        raise DomainError("sphere degree must be >= 0")
    return interval_sum(ring, [(n, 0)])


def disk(ring: RingSpec, n: int) -> ChainComplex:
    """Rank one in degrees n and n-1 with identity differential."""
    if n < 1:
        raise DomainError("disk degree must be >= 1 (degree -1 does not exist)")
    return interval_sum(ring, [], [n])


def interval(ring: RingSpec, i: int, j: int) -> ChainComplex:
    """Rank one in degrees i..i+j, every differential (-1)^i * r.

    The length convention: an interval of parameter j spans j+1 degrees,
    so interval(ring, 0, 0) == sphere(ring, 0).
    """
    if i < 0 or j < 0:
        raise DomainError("interval parameters must be >= 0")
    return interval_sum(ring, [(i, j)])


def interval_sum(ring: RingSpec, intervals, disks=()) -> ChainComplex:
    """Direct sum of interval(i, j) for each (i, j), then disk(n) for each n.

    Built in one pass without the summands: each takes the next basis
    vector of every degree it spans and one entry in each differential it
    spans, (-1)^i r for an interval and 1 for a disk.
    """
    signed_r = (ring.element(0, 1).encoded, ring.element(0, -1).encoded)  # r, -r
    spans = [(i, i + j, signed_r[i % 2]) for i, j in intervals]
    spans += [(n - 1, n, 1) for n in disks]
    n_degrees = max((hi for _, hi, _ in spans), default=-1) + 1
    _check_degrees(n_degrees)
    ranks = [0] * n_degrees
    entries = [[] for _ in ranks]  # entries[n]: (row, column, value) in d_n
    for lo, hi, value in spans:
        if lo < 0 or hi < lo:
            raise DomainError("interval parameters must be >= 0 and disk degrees >= 1")
        for n in range(lo, hi + 1):
            if n > lo:
                entries[n].append((ranks[n - 1] - 1, ranks[n], value))
            ranks[n] += 1
    diffs = []
    for n in range(1, len(ranks)):
        data = np.zeros((ranks[n - 1], ranks[n]), dtype=np.int64)
        for row, col, value in entries[n]:
            data[row, col] = value
        diffs.append(MatrixR(ring, data))
    # valid by construction: built from integers, from no other complex
    return _inherit_verdict(make_complex(ring, ranks, diffs, check=False))


# ---------------------------------------------------------------------------
# module descriptors


@dataclass(frozen=True)
class ModuleDescriptor:
    """Isomorphism class R^a (+) k^b of a finitely generated module."""

    free_rank: int
    residue_rank: int

    def is_zero(self) -> bool:
        return self.free_rank == 0 and self.residue_rank == 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.free_rank:
            parts.append("R" if self.free_rank == 1 else f"R^{self.free_rank}")
        if self.residue_rank:
            parts.append("k" if self.residue_rank == 1 else f"k^{self.residue_rank}")
        return " + ".join(parts)


def module_from_sizes(p: int, size: int, ann_size: int) -> ModuleDescriptor:
    """Recover (a, b) from |M| = p^(2a+b) and |ann_r(M)| = p^(a+b).

    Fails loudly when the sizes are not consistent with any R^a (+) k^b.
    """
    h = _plog(p, size)
    al = _plog(p, ann_size)
    a, b = h - al, 2 * al - h
    if a < 0 or b < 0:
        raise ChaincellError(
            f"module with |M|=p^{h}, |ann|=p^{al} is not of the form R^a (+) k^b"
        )
    return ModuleDescriptor(a, b)


def _plog(p: int, n: int) -> int:
    e = 0
    while n > 1:
        n, rem = divmod(n, p)
        if rem:
            raise ChaincellError(f"cardinality not a power of p={p}")
        e += 1
    return e


# ---------------------------------------------------------------------------
# brute-force homology (independent oracle)


def _all_vectors(ring: RingSpec, n: int) -> np.ndarray:
    """All encoded vectors in R^n, shape (|R|^n, n), lexicographic."""
    size = ring.size
    count = size**n
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    idx = np.arange(count, dtype=np.int64)
    digits = np.empty((count, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        digits[:, pos] = idx % size
        idx //= size
    return digits


def _codes(ring: RingSpec, vecs: np.ndarray) -> np.ndarray:
    """Codes of the encoded vectors along the last axis: their row indices
    in ``_all_vectors``.  A code indexes a table that is already
    allocated, so it fits in int64."""
    n = vecs.shape[-1]
    return vecs @ ring.size ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _boundaries(X: ChainComplex, n: int) -> np.ndarray:
    """Boolean table over the codes of X_n, true exactly on im d_(n+1)."""
    ring = X.ring
    up = _all_vectors(ring, X.rank(n + 1))
    imgs = _kernels.mat_mul(X.d(n + 1).data, up[:, :, None], ring.p, ring.flavor_code)
    table = np.zeros(ring.size ** X.rank(n), dtype=bool)
    table[_codes(ring, imgs[:, :, 0])] = True
    return table


def _power_at_most(base: int, exponent: int, limit: int):
    """base**exponent when it is at most limit, else None.

    Decided by the exponent first: with base >= 2 the power passes limit
    once exponent reaches limit's bit length, so no power far above
    limit is ever built.
    """
    if exponent >= max(limit, 1).bit_length():
        return None
    power = base**exponent
    return power if power <= limit else None


def _brute_work(X: ChainComplex, limit: int):
    """The vectors brute homology enumerates, the sum of |R|^rank over the
    degrees, when it is at most limit, else None; builds no power above it."""
    work = 0
    for r in X.ranks:
        term = _power_at_most(X.ring.size, r, limit)
        if term is None:
            return None
        work += term
    return work if work <= limit else None


def brute_homology(X: ChainComplex, work_limit: int = BRUTE_WORK_LIMIT) -> list:
    """H_n by enumerating cycles and boundaries elementwise.

    |H_n| = |Z_n| / |B_n| and |ann_r H_n| = |{z in Z_n : r*z in B_n}| / |B_n|,
    with B_n read from the boundary table of ``_boundaries``.
    Refuses when the enumeration would exceed work_limit vectors.
    """
    require_valid(X)
    work = _brute_work(X, max(work_limit, EXACT_REQUIRED))
    if work is None or work > work_limit:
        text = work if work is not None else f"at least {X.ring.size}^{max(X.ranks)}"
        raise GuardExceeded(
            f"brute homology needs {text} vector enumerations; limit {work_limit}",
            required=work,
        )
    ring = X.ring
    p, fl = ring.p, ring.flavor_code
    r_enc = np.int64(ring.p)  # encoded generator r
    out = []
    for n in range(len(X.ranks)):
        cycles = _all_vectors(ring, X.rank(n))
        if n > 0:
            imgs = _kernels.mat_mul(X.d(n).data, cycles[:, :, None], p, fl)
            cycles = cycles[~np.any(imgs.reshape(len(cycles), -1), axis=1)]
        boundary = _boundaries(X, n)
        size_b = int(np.count_nonzero(boundary))
        r_cycles = _kernels.enc_mul(r_enc, cycles, p, fl)
        ann_pre = int(np.count_nonzero(boundary[_codes(ring, r_cycles)]))
        out.append(module_from_sizes(p, len(cycles) // size_b, ann_pre // size_b))
    return out
