"""Constructions on complexes and chain maps: shift, sum, extension, cone,
tensor, hom.

``extension`` is the one block-triangular builder: the cone of f: X -> Y
is the extension of shift(X, 1) by Y with f as its connecting blocks.
Sum, extension (and so the cone), tensor and hom count the cells they
will write before they allocate any (``complexes.MAX_CELLS``).

Sign and ordering conventions are fixed so outputs are reproducible
byte for byte:

* shift by i multiplies every differential by (-1)^i;
* the cone differential is [[d_Y, f], [0, -d_X]] with the Y block first;
* tensor summands are ordered lexicographically in (i, j), i ascending;
* Hom(X, Y)_n is (Y (x) X*)_(n + top), and the signs of the dual X* make
  its differential f |-> d_Y f + (-1)^(n-1) f d_X, so the boundary of a
  degree-1 element is an honest chain map.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from ._kernels import enc_neg
from .complexes import (
    ChainComplex,
    ModuleDescriptor,
    SizeGuard,
    _check_cells,
    _check_degrees,
    _inherit_verdict,
    empty,
    make_complex,
    require_valid,
)
from .errors import DomainError, InvalidComplexError, UsageError
from .linalg import MatrixR
from .ring import RingSpec


@dataclass
class ChainMap:
    """Degreewise matrices target.rank(n) x source.rank(n) commuting with d."""

    source: ChainComplex
    target: ChainComplex
    mats: tuple

    def mat(self, n: int) -> MatrixR:
        if 0 <= n < len(self.mats):
            return self.mats[n]
        return linalg.zeros(self.source.ring, self.target.rank(n), self.source.rank(n))

    @property
    def degrees(self) -> int:
        return max(len(self.source.ranks), len(self.target.ranks))


def is_chain_map(f: ChainMap) -> Optional[str]:
    """None when f commutes with the differentials; else a diagnostic."""
    if f.source.ring != f.target.ring:
        return "source and target rings differ"
    for n in range(f.degrees):
        m = f.mat(n)
        if (m.rows, m.cols) != (f.target.rank(n), f.source.rank(n)):
            return (
                f"degree {n}: matrix shape {m.rows}x{m.cols}, expected "
                f"{f.target.rank(n)}x{f.source.rank(n)}"
            )
    for n in range(1, f.degrees + 1):
        lhs = linalg.matmul(f.target.d(n), f.mat(n))
        rhs = linalg.matmul(f.mat(n - 1), f.source.d(n))
        if lhs != rhs:
            return f"degree {n}: d_target*f_{n} != f_{n - 1}*d_source"
    return None


def make_chain_map(source, target, mats) -> ChainMap:
    f = ChainMap(source, target, tuple(mats))
    problem = is_chain_map(f)
    if problem is not None:
        raise UsageError(f"not a chain map: {problem}")
    return f


def identity_map(X: ChainComplex) -> ChainMap:
    mats = [linalg.identity(X.ring, r) for r in X.ranks]
    return ChainMap(X, X, tuple(mats))


def zero_map(X: ChainComplex, Y: ChainComplex) -> ChainMap:
    if X.ring != Y.ring:
        raise UsageError("ring mismatch in zero_map")
    n = max(len(X.ranks), len(Y.ranks))
    mats = [linalg.zeros(X.ring, Y.rank(k), X.rank(k)) for k in range(n)]
    return ChainMap(X, Y, tuple(mats))


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f after g; requires f.source == g.target."""
    if f.source != g.target:
        raise UsageError("compose: f.source != g.target")
    n = max(len(g.source.ranks), len(f.target.ranks))
    mats = [linalg.matmul(f.mat(k), g.mat(k)) for k in range(n)]
    return ChainMap(g.source, f.target, tuple(mats))


# ---------------------------------------------------------------------------
# shift


def _regraded(X: ChainComplex, i: int) -> ChainComplex:
    """X with degree n moved to n + i and every differential times (-1)^i;
    for i < 0 the ranks below -i must vanish."""
    ranks = (0,) * i + X.ranks[max(-i, 0) :]
    zeros = [linalg.zeros(X.ring, ranks[n - 1], ranks[n]) for n in range(1, i + 1)]
    own = [linalg.neg(d) if i % 2 else d for d in X.diffs[max(-i, 0) :]]
    return _inherit_verdict(ChainComplex(X.ring, ranks, tuple(zeros + own)), X)


def shift(X: ChainComplex, i: int) -> ChainComplex:
    """Suspension: degrees move up by i, differentials pick up (-1)^i."""
    if i < 0:
        raise DomainError("shift amount must be >= 0")
    if i == 0 or X.is_empty():
        return X
    _check_degrees(i + len(X.ranks))
    return _regraded(X, i)


def desuspend(X: ChainComplex, i: int) -> ChainComplex:
    """Inverse of shift for complexes empty below degree i."""
    if i < 0:
        raise DomainError("desuspension amount must be >= 0")
    if i == 0 or X.is_empty():
        return X
    if any(X.rank(n) for n in range(i)):
        raise UsageError(f"complex has nonzero rank below degree {i}")
    return _regraded(X, -i)


# ---------------------------------------------------------------------------
# direct sum


def direct_sum_all(ring: RingSpec, complexes) -> ChainComplex:
    complexes = list(complexes)
    for X in complexes:
        if X.ring != ring:
            raise UsageError(f"ring mismatch in direct sum: {X.ring} vs {ring}")
    n_degrees = max((len(X.ranks) for X in complexes), default=0)
    sizes = [[X.rank(n) for X in complexes] for n in range(n_degrees)]
    ranks = [sum(s) for s in sizes]
    _check_cells(ranks)
    diffs = []
    for n in range(1, n_degrees):  # each summand writes only its own differentials
        own = {(k, k): X.diffs[n - 1].data for k, X in enumerate(complexes) if n <= X.top}
        diffs.append(linalg.from_blocks(ring, sizes[n - 1], sizes[n], own))
    return _inherit_verdict(make_complex(ring, ranks, diffs, check=False), *complexes)


def direct_sum(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    return direct_sum_all(X.ring, [X, Y])


# ---------------------------------------------------------------------------
# extensions and cones


@dataclass
class Extension:
    total: ChainComplex  # the middle term Y
    inclusion: ChainMap  # X -> Y
    projection: ChainMap  # Y -> Z
    seed: Optional[int]


def _extension_cells(X: ChainComplex, Z: ChainComplex) -> int:
    """Every cell ``extension`` writes: Y's differentials, then its inclusion
    and projection with the identity blocks copied into them."""
    ranks = [X.rank(n) + Z.rank(n) for n in range(max(len(X.ranks), len(Z.ranks)))]
    diffs = sum(a * b for a, b in zip(ranks, ranks[1:]))
    return diffs + sum(r * r + X.rank(n) ** 2 + Z.rank(n) ** 2 for n, r in enumerate(ranks))


def extension(X: ChainComplex, Z: ChainComplex, hs: dict, seed=None) -> Extension:
    """Assemble Y with Y_n = X_n (+) Z_n and differential [[d_X, h], [0, d_Z]].

    hs maps degree n to the connecting block Z_n -> X_{n-1} (an encoded
    array or MatrixR); blocks must satisfy d_X @ h + h @ d_Z = 0, which
    on valid X and Z is exactly d*d = 0 on Y, checked as Y is built.
    Every cell is counted before any is written.
    """
    if X.ring != Z.ring:
        raise UsageError("ring mismatch in extension")
    _check_cells(extra=_extension_cells(X, Z))
    require_valid(X)
    require_valid(Z)
    hs = {
        n: (m.data if isinstance(m, MatrixR) else np.asarray(m, dtype=np.int64))
        for n, m in hs.items()
    }
    for n, m in hs.items():
        if m.shape != (X.rank(n - 1), Z.rank(n)):
            raise UsageError(
                f"connecting block at degree {n} has shape {m.shape}, "
                f"expected {(X.rank(n - 1), Z.rank(n))}"
            )
    ring = X.ring
    n_degrees = max(len(X.ranks), len(Z.ranks))
    sizes = [[X.rank(n), Z.rank(n)] for n in range(n_degrees)]
    diffs = []
    for n in range(1, n_degrees):
        blocks = {(0, 0): X.d(n).data, (1, 1): Z.d(n).data}
        if n in hs:
            blocks[(0, 1)] = hs[n]
        diffs.append(linalg.from_blocks(ring, sizes[n - 1], sizes[n], blocks))
    try:
        Y = make_complex(ring, [sum(s) for s in sizes], diffs, check=True)
    except InvalidComplexError as exc:
        raise UsageError(f"connecting blocks do not satisfy d*h + h*d = 0: {exc}") from None

    incl = [linalg.from_blocks(ring, [x, z], [x], {(0, 0): _eye(x)}) for x, z in sizes]
    proj = [linalg.from_blocks(ring, [z], [x, z], {(0, 1): _eye(z)}) for x, z in sizes]
    return Extension(Y, ChainMap(X, Y, tuple(incl)), ChainMap(Y, Z, tuple(proj)), seed)


def _cone(f: ChainMap) -> Extension:
    """The cone of f as the extension of shift(X, 1) by Y with f as its
    connecting blocks; its d*d check is exactly f commuting with d.
    X is validated before it is shifted, so a refusal names X's degrees."""
    require_valid(f.source)
    return extension(f.target, shift(f.source, 1), {n + 1: m for n, m in enumerate(f.mats)})


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: C_n = Y_n (+) X_{n-1}, d = [[d_Y, f], [0, -d_X]]."""
    return _cone(f).total


def cone_inclusion(f: ChainMap) -> ChainMap:
    """The canonical map Y -> C(f); its cokernel is shift(X, 1) on the nose."""
    return _cone(f).inclusion


# ---------------------------------------------------------------------------
# tensor product


def _eye(m: int) -> np.ndarray:
    return np.eye(m, dtype=np.int64)


def _kron_id(ring: RingSpec, A: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Encoded kron(A, 1_m) over R: each entry of A times the m x m ``eye``."""
    m = len(eye)
    prod = (A % ring.size)[:, None, :, None] * eye[None, :, None, :]
    return prod.reshape(A.shape[0] * m, A.shape[1] * m)


def _id_kron(ring: RingSpec, eye: np.ndarray, B: np.ndarray, negate) -> np.ndarray:
    """Encoded kron(1_m, +-B) over R: m copies of B or -B down the diagonal."""
    m = len(eye)
    B = enc_neg(B, ring.p, ring.flavor_code) if negate else B % ring.size
    prod = eye[:, None, :, None] * B[None, :, None, :]
    return prod.reshape(m * B.shape[0], m * B.shape[1])


def _rank_products(a, b) -> list:
    """c[n] = sum_i a[i] * b[n - i] for the rank lists a and b, exactly.

    One convolution of the stretches between their first and last
    nonzero ranks, in int64 whenever no sum can pass it.
    """
    out = [0] * max(len(a) + len(b) - 1, 0)
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    if len(ia) and len(ib):
        dtype = np.int64 if sum(a) * sum(b) < 1 << 63 else object
        a = np.asarray(a[ia[0] : ia[-1] + 1], dtype=dtype)
        b = np.asarray(b[ib[0] : ib[-1] + 1], dtype=dtype)
        lo = int(ia[0] + ib[0])
        out[lo : lo + len(a) + len(b) - 1] = np.convolve(a, b).tolist()
    return out


def _tensor_diffs(X: ChainComplex, Y: ChainComplex, degrees) -> list:
    """d_m of X (x) Y for each m in ``degrees``, one Kronecker block per pair.

    Blocks are listed only for pairs of nonzero ranks and looked up by
    degree, so a degree past the ends gets a matrix of empty blocks.
    """
    ring = X.ring
    rx, ry = X.ranks, Y.ranks
    blocks = collections.defaultdict(list)  # (i, j) with i + j = m, i ascending
    nz_x, nz_y = ([k for k, r in enumerate(rs) if r] for rs in (rx, ry))
    for i in nz_x:
        for j in nz_y:
            blocks[i + j].append((i, j))
    eye = functools.cache(_eye)  # one identity per size, made when first needed
    diffs = []
    for m in degrees:
        row_of = {ij: k for k, ij in enumerate(blocks[m - 1])}
        nonzero = {}
        for c, (i, j) in enumerate(blocks[m]):
            if (i - 1, j) in row_of:  # d_X (x) 1
                nonzero[(row_of[(i - 1, j)], c)] = _kron_id(ring, X.diffs[i - 1].data, eye(ry[j]))
            if (i, j - 1) in row_of:  # (-1)^i 1 (x) d_Y
                d_Y = Y.diffs[j - 1].data
                nonzero[(row_of[(i, j - 1)], c)] = _id_kron(ring, eye(rx[i]), d_Y, i % 2)
        rows = [rx[i] * ry[j] for i, j in blocks[m - 1]]
        cols = [rx[i] * ry[j] for i, j in blocks[m]]
        diffs.append(linalg.from_blocks(ring, rows, cols, nonzero))
    return diffs


def tensor(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    """X (x) Y; each block is reduced, and negated if need be, as it is written.

    Degrees, then cells, are counted from the ranks before any block is
    listed; blocks are listed only for pairs of nonzero ranks.
    """
    if X.ring != Y.ring:
        raise UsageError("ring mismatch in tensor")
    ring = X.ring
    if X.is_empty() or Y.is_empty():
        return empty(ring)
    n_degrees = len(X.ranks) + len(Y.ranks) - 1
    _check_degrees(n_degrees)
    ranks = _rank_products(X.ranks, Y.ranks)
    _check_cells(ranks)
    diffs = _tensor_diffs(X, Y, range(1, n_degrees))
    return _inherit_verdict(make_complex(ring, ranks, diffs, check=False), X, Y)


# ---------------------------------------------------------------------------
# hom complex


@dataclass
class HomComplex:
    """Hom(X, Y): an honest complex in degrees >= 1, possibly not at 0.

    The degree-0 module (the chain maps X -> Y) need not be free, so it
    is reported as an isomorphism class, with the cardinality of the
    image of d_1 as the only record of the boundary map.  ``full`` is
    the genuine complex including degree 0 whenever the source is
    concentrated in degree 0 (then no commutation constraints arise).
    """

    source: ChainComplex
    target: ChainComplex
    degree0: ModuleDescriptor
    positive: ChainComplex
    d1_image_size: Optional[int]
    full: Optional[ChainComplex]


def _hom_rank(X: ChainComplex, Y: ChainComplex, n: int) -> int:
    """The rank of Hom(X, Y)_n, the sum of X_i * Y_(i+n), off the rank tuples."""
    return sum(a * b for a, b in zip(X.ranks[max(-n, 0):], Y.ranks[max(n, 0):]))


def _hom_ranks(X: ChainComplex, Y: ChainComplex) -> list:
    """``_hom_rank(X, Y, n)`` for n = 0, ..., max(Y.top, 0), from one
    convolution of the rank lists."""
    if X.is_empty() or Y.is_empty():
        return [0] * max(Y.top + 1, 1)
    return _rank_products(X.ranks[::-1], Y.ranks)[X.top :]


def _dual(X: ChainComplex) -> ChainComplex:
    """X* = Hom(X, R): X*_k = X_(top-k)*, d*_k = (-1)^(top-k+1) d_(top-k+1)^T."""
    diffs = [MatrixR(X.ring, d.data.T) for d in X.diffs]
    diffs = [linalg.neg(d) if n % 2 else d for n, d in enumerate(diffs, 1)]
    return make_complex(X.ring, X.ranks[::-1], diffs[::-1], check=False)


def hom_complex(X: ChainComplex, Y: ChainComplex, guard: SizeGuard = SizeGuard()) -> HomComplex:
    """Hom(X, Y), with Hom_n = (Y (x) X*)_(n + X.top) for n >= 1.

    The cells are counted, then both guards checked (Hom_0's count, then
    Hom_1's) before either enumeration runs.  ``full`` is set when X is
    concentrated in degree 0 or empty.
    """
    if X.ring != Y.ring:
        raise UsageError("ring mismatch in hom")
    require_valid(X)
    require_valid(Y)
    ranks = _hom_ranks(X, Y)  # Hom_n vanishes once i + n > Y.top for all i
    pos_ranks = [0] + ranks[1:]
    full_ranks = ranks if X.top <= 0 else []
    _check_cells(pos_ranks, full_ranks)
    from . import oracle as _oracle

    # both guards come before either count, so a refused pair enumerates
    # and builds nothing; the image count goes first, as the shift of X
    # it searches from may meet the degree cap
    guard.check("chain map enumeration", X.ring.size, _hom_rank(X, Y, 0))
    guard.check("hom degree-1 enumeration", X.ring.size, _hom_rank(X, Y, 1))
    d1_image_size = _oracle.hom_boundary_image_size(X, Y, guard)
    degree0 = _oracle.chain_map_module(X, Y, guard)

    # Hom_n -> Hom_(n-1) for n >= 2; the positive part has Hom_0 = 0, and
    # from a source in degree 0 the full complex adds d_1
    ring = X.ring
    dual = _dual(X)
    diffs = _tensor_diffs(Y, dual, [n + X.top for n in range(2, len(pos_ranks))])
    d1 = [linalg.zeros(ring, 0, pos_ranks[1])] if len(pos_ranks) > 1 else []
    positive = _inherit_verdict(make_complex(ring, pos_ranks, d1 + diffs, check=False), X, Y)

    full = None
    if X.top <= 0:
        full_diffs = _tensor_diffs(Y, dual, [X.top + 1]) + diffs
        full = _inherit_verdict(make_complex(ring, full_ranks, full_diffs, check=False), X, Y)
    return HomComplex(X, Y, degree0, positive, d1_image_size, full)
