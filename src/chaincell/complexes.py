"""Bounded chain complexes of finite free modules, and their homology.

A complex is a rank vector indexed by degree 0..N (trailing zeros
trimmed, so the empty complex is canonical) plus one differential
matrix per positive degree, with d(n) of shape ranks[n-1] x ranks[n]
and d(n) @ d(n+1) = 0.

Homology groups over these rings are always of the form R^a (+) k^b;
``homology`` computes them through the interval decomposition, and
``brute_homology`` recomputes them by elementwise enumeration so the
shortcut can be checked against the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels, linalg
from .errors import ChaincellError, DomainError, GuardExceeded, InvalidComplexError, UsageError
from .linalg import MatrixR
from .ring import RingSpec

BRUTE_WORK_LIMIT = 1 << 20


@dataclass
class ChainComplex:
    ring: RingSpec
    ranks: tuple
    diffs: tuple  # diffs[k] = d_{k+1}, shape ranks[k] x ranks[k+1]

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
    problem = validate(X)
    if problem is not None:
        raise UsageError(f"invalid complex: {problem}")


# ---------------------------------------------------------------------------
# canonical constructors


def empty(ring: RingSpec) -> ChainComplex:
    return ChainComplex(ring, (), ())


def sphere(ring: RingSpec, n: int) -> ChainComplex:
    """Rank one in degree n only."""
    if n < 0:
        raise DomainError("sphere degree must be >= 0")
    ranks = [0] * n + [1]
    diffs = [linalg.zeros(ring, ranks[k], ranks[k + 1]) for k in range(n)]
    return ChainComplex(ring, tuple(ranks), tuple(diffs))


def disk(ring: RingSpec, n: int) -> ChainComplex:
    """Rank one in degrees n and n-1 with identity differential."""
    if n < 1:
        raise DomainError("disk degree must be >= 1 (degree -1 does not exist)")
    ranks = [0] * (n - 1) + [1, 1]
    diffs = [linalg.zeros(ring, ranks[k], ranks[k + 1]) for k in range(len(ranks) - 1)]
    diffs[-1] = linalg.identity(ring, 1)
    return ChainComplex(ring, tuple(ranks), tuple(diffs))


def interval(ring: RingSpec, i: int, j: int) -> ChainComplex:
    """Rank one in degrees i..i+j, every differential (-1)^i * r.

    The length convention: an interval of parameter j spans j+1 degrees,
    so interval(ring, 0, 0) == sphere(ring, 0).
    """
    if i < 0 or j < 0:
        raise DomainError("interval parameters must be >= 0")
    ranks = [0] * i + [1] * (j + 1)
    gen = ring.r() if i % 2 == 0 else -ring.r()
    diffs = []
    for k in range(len(ranks) - 1):
        if ranks[k] and ranks[k + 1]:
            diffs.append(linalg.from_elements(ring, [[gen]]))
        else:
            diffs.append(linalg.zeros(ring, ranks[k], ranks[k + 1]))
    return ChainComplex(ring, tuple(ranks), tuple(diffs))


# ---------------------------------------------------------------------------
# homology


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


ZERO_MODULE = ModuleDescriptor(0, 0)


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


def homology(X: ChainComplex) -> list:
    """H_n as ModuleDescriptors, degree 0..top, via the decomposition."""
    require_valid(X)
    from . import reduce as _reduce

    dec = _reduce.decompose(X)
    out = [[0, 0] for _ in range(len(X.ranks))]
    for (i, j), mult in dec.intervals.items():
        if j == 0:
            out[i][0] += mult
        else:
            out[i][1] += mult
            out[i + j][1] += mult
    return [ModuleDescriptor(a, b) for a, b in out]


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


def _keys(arr: np.ndarray):
    """Hashable row keys for a 2-d array of encoded entries."""
    if arr.shape[1] == 0:
        return [b""] * arr.shape[0]
    u = np.ascontiguousarray(arr, dtype=np.uint16)
    buf = u.tobytes()
    step = u.dtype.itemsize * u.shape[1]
    return [buf[i : i + step] for i in range(0, len(buf), step)]


def _brute_work(X: ChainComplex) -> int:
    return sum(X.ring.size ** r for r in X.ranks)


def brute_homology(X: ChainComplex, work_limit: int = BRUTE_WORK_LIMIT) -> list:
    """H_n by enumerating cycles and boundaries elementwise.

    Refuses when the enumeration would exceed work_limit vectors.
    """
    require_valid(X)
    work = _brute_work(X)
    if work > work_limit:
        raise GuardExceeded(
            f"brute homology needs {work} vector enumerations; limit {work_limit}",
            required=work,
        )
    ring = X.ring
    p, fl = ring.p, ring.flavor_code
    r_enc = np.int64(ring.p)  # encoded generator r
    out = []
    for n in range(len(X.ranks)):
        vecs = _all_vectors(ring, X.rank(n))
        if n == 0:
            cycles = vecs
        else:
            dn = X.d(n).data
            imgs = _kernels.mat_mul(dn, vecs[:, :, None], p, fl)
            cycles = vecs[~np.any(imgs.reshape(len(vecs), -1), axis=1)]
        up = _all_vectors(ring, X.rank(n + 1))
        dn1 = X.d(n + 1).data
        bvecs = _kernels.mat_mul(dn1, up[:, :, None], p, fl).reshape(
            len(up), -1
        )
        boundary_keys = set(_keys(bvecs))
        size_b = len(boundary_keys)
        size_z = len(cycles)
        r_cycles = _kernels.enc_mul(r_enc, cycles, p, fl)
        ann_pre = sum(1 for kk in _keys(r_cycles) if kk in boundary_keys)
        out.append(module_from_sizes(p, size_z // size_b, ann_pre // size_b))
    return out
