"""Definition-level verification by finite enumeration.

Everything here works elementwise over the finite ring: chain maps are
enumerated degree by degree with pruning on the commutation equation,
H_0 is spanned coset by coset in a boolean table over Y_0, and the
cellularity decision procedure is cross-checked against the
surjectivity criterion (X is A-cellular iff some sum of copies of A
maps onto H_0 of X; a map from a sum restricts to maps from each
summand, so the images of single maps already generate everything any
sum can hit).

The chain-map search keeps one candidate stack per degree and costs
the sum of their sizes, not their product.  It also sizes the image of
Hom_1 -> Hom_0: the degree-1 families with zero boundary are exactly
the chain maps shift(X, 1) -> Y, so counting them gives |im d_1|.

The H0-epi search marks as hit only the columns of each surviving
degree-0 component f_0 and their r-multiples, in a boolean table over
the codes of Y_0 (a vector's code, ``complexes._codes``, is its row
index in ``_all_vectors``); it never applies f_0 to the vectors of A_0.

Refusals are predictable: one ``SizeGuard`` (``complexes``) compares
the worst-case unpruned candidate count, not what the pruning actually
visits.  Each such count is a sum of powers of |R|, compared by its
exponents, so a count far above the guard is refused without being built.

Only ``cross_check``, which compares the decision procedure with the
criterion, reads ``reduce`` or ``lattice``; everything else here is
enumeration, independent of the shortcuts it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import enc_add, enc_mul
from .complexes import (
    ChainComplex,
    ModuleDescriptor,
    SizeGuard,
    _all_vectors,
    _boundaries,
    _codes,
    brute_homology,
    module_from_sizes,
    require_valid,
)
from .errors import ChaincellError, DomainError, UsageError
from .lattice import is_cellular
from .linalg import MatrixR
from .ops import ChainMap, _hom_rank, desuspend, shift
from .reduce import minimize, verify_certificates
from .ring import check_same_ring


def _candidate_matrices(ring, rows: int, cols: int) -> np.ndarray:
    """Every matrix of the given shape, shape (|R|^(rows*cols), rows, cols)."""
    vecs = _all_vectors(ring, rows * cols)
    return vecs.reshape(len(vecs), rows, cols)


def _keys(arr: np.ndarray):
    """Hashable row keys for a 2-d array of encoded entries.

    For the chain-map search, whose rows (flattened products of a
    candidate block with a differential) can be wider than any guard
    bounds, so a code (``complexes._codes``) could overflow.
    """
    if arr.shape[1] == 0:
        return [b""] * arr.shape[0]
    u = np.ascontiguousarray(arr, dtype=np.uint16)
    buf = u.tobytes()
    step = u.dtype.itemsize * u.shape[1]
    return [buf[i : i + step] for i in range(0, len(buf), step)]


class _MapSearch:
    """Chain maps source -> target, searched degree by degree.

    Each degree keeps every candidate block f_n with the keys of both
    sides of the commutation equation target.d(n) @ f_n == f_(n-1) @
    source.d(n); ``survivors`` prunes and counts in one pass down the
    degrees.  Both complexes are validated first.
    """

    def __init__(self, source: ChainComplex, target: ChainComplex, guard: SizeGuard):
        if source.ring != target.ring:
            raise UsageError("ring mismatch in chain map enumeration")
        require_valid(source)
        require_valid(target)
        self.source, self.target = source, target
        self.ring = source.ring
        self.levels = max(len(source.ranks), len(target.ranks))
        guard.check("chain map enumeration", self.ring.size, _hom_rank(source, target, 0))

        p, fl = self.ring.p, self.ring.flavor_code
        self.cand = [
            _candidate_matrices(self.ring, target.rank(n), source.rank(n))
            for n in range(self.levels)
        ]
        self.lhs_keys = [None] * self.levels  # key(target.d(n) @ f_n)
        self.rhs_keys = [None] * self.levels  # key(f_n @ source.d(n+1))
        for n in range(1, self.levels):
            lhs = _kernels.mat_mul(target.d(n).data, self.cand[n], p, fl)
            self.lhs_keys[n] = _keys(lhs.reshape(len(self.cand[n]), -1))
            rhs = _kernels.mat_mul(self.cand[n - 1], source.d(n).data, p, fl)
            self.rhs_keys[n - 1] = _keys(rhs.reshape(len(self.cand[n - 1]), -1))

    def survivors(self, only_m: bool = False) -> list:
        """Per degree n, the candidates f_n that extend to a chain map in
        degrees n and up, each with the number of those extensions, in
        candidate order; optionally only blocks with every entry in m.

        A candidate survives when its right-hand key meets the left-hand
        key of a survivor one degree up.
        """
        def admitted(n):
            if not only_m:
                return range(len(self.cand[n]))
            return np.flatnonzero(~np.any(self.cand[n] % self.ring.p, axis=(1, 2))).tolist()

        alive = [dict.fromkeys(admitted(self.levels - 1), 1)]
        for n in range(self.levels - 2, -1, -1):
            through = {}  # lhs key one degree up -> chain maps through it
            for k, c in alive[-1].items():
                key = self.lhs_keys[n + 1][k]
                through[key] = through.get(key, 0) + c
            rhs = self.rhs_keys[n]
            alive.append({k: through[rhs[k]] for k in admitted(n) if rhs[k] in through})
        return alive[::-1]

    def expand(self):
        """All chain maps as tuples of candidate indices, lexicographic."""
        alive = self.survivors()
        partials = [(k,) for k in alive[0]]
        for n in range(1, self.levels):
            groups = {}  # lhs key -> surviving candidate indices
            for k in alive[n]:
                groups.setdefault(self.lhs_keys[n][k], []).append(k)
            rhs = self.rhs_keys[n - 1]
            partials = [t + (k,) for t in partials for k in groups.get(rhs[t[-1]], ())]
        return partials

    def counts(self, only_m: bool = False):
        """Number of chain maps, optionally only those with every entry in m."""
        if self.levels == 0:
            return 1
        return sum(self.survivors(only_m)[0].values())

    def to_chain_map(self, key_tuple) -> ChainMap:
        mats = tuple(
            MatrixR(self.ring, self.cand[n][k]) for n, k in enumerate(key_tuple)
        )
        return ChainMap(self.source, self.target, mats)


def enumerate_chain_maps(X: ChainComplex, Y: ChainComplex, guard: SizeGuard = SizeGuard()):
    """All chain maps X -> Y, in a fixed lexicographic order."""
    search = _MapSearch(X, Y, guard)
    if search.levels == 0:
        return [ChainMap(X, Y, ())]
    return [search.to_chain_map(t) for t in search.expand()]


def chain_map_module(X: ChainComplex, Y: ChainComplex, guard: SizeGuard = SizeGuard()) -> ModuleDescriptor:
    """Isomorphism class of the module of chain maps X -> Y."""
    search = _MapSearch(X, Y, guard)
    total = search.counts()
    ann = search.counts(only_m=True)
    return module_from_sizes(X.ring.p, total, ann)


def hom_boundary_image_size(X: ChainComplex, Y: ChainComplex, guard: SizeGuard = SizeGuard()) -> int:
    """Cardinality of the image of Hom(X, Y)_1 -> Hom(X, Y)_0.

    A degree-1 element is a family g_i: X_i -> Y_{i+1}; its boundary is
    the chain map with components Y.d(i+1) @ g_i + g_{i-1} @ X.d(i).
    That boundary vanishes exactly when g is a chain map shift(X, 1) -> Y,
    so |im d_1| = |Hom_1| / #(chain maps shift(X, 1) -> Y), one count of
    the chain-map search.
    """
    check_same_ring(X, Y)
    require_valid(X)
    require_valid(Y)
    exponent = _hom_rank(X, Y, 1)
    guard.check("hom degree-1 enumeration", X.ring.size, exponent)
    candidates = X.ring.size**exponent  # = |Hom_1|, at most the guard
    cycles = _MapSearch(shift(X, 1), Y, guard).counts()
    size, rest = divmod(candidates, cycles)
    if rest:
        raise ChaincellError(f"{cycles} degree-1 cycles do not divide |Hom_1| = {candidates}")
    return size


# ---------------------------------------------------------------------------
# H0 surjectivity


def exists_h0_epi(A: ChainComplex, Y: ChainComplex, guard: SizeGuard = SizeGuard()) -> bool:
    """Do the chain maps A -> Y jointly hit all of H_0(Y)?

    Works in a boolean table over the codes of Y_0: the span starts as
    im d_1 and, while some hit vector lies outside it, takes the lowest
    such g and adds the whole shifted copies span + k*g.  The maps hit
    H_0(Y) exactly when the span ends as all of Y_0.

    Only the columns of each surviving f_0 and their r-multiples are
    marked hit.  Every element of R is a + b*r with integers a and b and
    f_0 is R-linear, so these vectors span f_0's image under addition,
    and the closure above reaches the same span from them as from f_0
    applied to every vector of A_0.  In ``dual`` r*g is no integer
    multiple of g, so the r-multiples are needed whenever the surviving
    f_0 are not closed under r; all of them together are, as the
    degree-0 parts of the module of chain maps.

    Requires H_0(A) != 0 (the surjectivity criterion's hypothesis),
    checked elementwise: H_0(A) = A_0 / im d_1 vanishes exactly when
    every vector of A_0 is a boundary.  Desuspend the pair first when
    the bottom degree is positive.
    """
    check_same_ring(A, Y)
    require_valid(A)
    require_valid(Y)
    ring = Y.ring
    p, fl = ring.p, ring.flavor_code
    for Z, of in ((Y, ""), (A, " of the generator")):  # Y's tables first
        guard.check(f"H0 coset table{of}", ring.size, Z.rank(0))
        guard.check(f"H0 boundary enumeration{of}", ring.size, Z.rank(1))
    if _boundaries(A, 0).all():
        raise DomainError(
            "H_0 of the generator vanishes; desuspend the pair before testing"
        )
    span = _boundaries(Y, 0)  # over the codes of Y_0; starts as im d_1
    if span.all():
        return True

    search = _MapSearch(A, Y, guard)
    columns = _codes(ring, search.cand[0].transpose(0, 2, 1))  # per candidate f_0
    hit = np.zeros(len(span), dtype=bool)
    hit[columns[list(search.survivors()[0])]] = True
    vecs = _all_vectors(ring, Y.rank(0))
    hit[_codes(ring, enc_mul(vecs[hit], p, p, fl))] = True  # r is encoded as p
    while not span.all():
        outside = np.flatnonzero(hit & ~span)
        if not len(outside):
            return False
        g = vecs[outside[0]]
        shifted = vecs[span]  # the zero vector first, so shifted[0] = k*g
        while True:  # span + k*g for k = 1, 2, ... until k*g is in span
            shifted = enc_add(shifted, g, p, fl)
            codes = _codes(ring, shifted)
            if span[codes[0]]:
                break
            span[codes] = True
    return True


# ---------------------------------------------------------------------------
# cross-check of the decision procedure against the criterion


@dataclass
class CrossCheck:
    lattice_verdict: bool
    oracle_verdict: bool
    agree: bool
    route: str

    def to_json(self, pair=None) -> dict:
        return {
            "pair": pair,
            "latticeVerdict": self.lattice_verdict,
            "oracleVerdict": self.oracle_verdict,
            "agree": self.agree,
            "route": self.route,
        }


def _brute_bottom(X: ChainComplex, guard: SizeGuard) -> Optional[int]:
    """Lowest degree with nonzero homology of X, computed elementwise."""
    for n, descr in enumerate(brute_homology(X, guard)):
        if not descr.is_zero():
            return n
    return None


def cross_check(X: ChainComplex, A: ChainComplex, guard: SizeGuard = SizeGuard()) -> CrossCheck:
    """Compare is_cellular(X, A) with the brute-force H0-epi criterion.

    The criterion applies directly when A has homology in degree 0.
    Otherwise both sides are desuspended by the bottom degree of A
    (which preserves the relation), and when X's homology starts below
    A's the relation already fails for support reasons.  Each input is
    minimized once; the lattice verdict is read from the public
    ``is_cellular`` on the two minimal parts, where minimizing again is
    only a scan, and the desuspended pair comes from them too, once
    both pass ``verify_certificates`` against their inputs.  The minimal
    model of A must start where its elementwise homology does.
    """
    check_same_ring(X, A)
    mx, ma = minimize(X), minimize(A)
    lattice_verdict = is_cellular(mx.minimal, ma.minimal).holds
    bottom_a = _brute_bottom(A, guard)
    if ma.bottom != bottom_a:
        raise ChaincellError(
            f"minimal model of A starts at degree {ma.bottom}, its homology at {bottom_a}"
        )
    if bottom_a is None:
        oracle_verdict = _brute_bottom(X, guard) is None
        route = "acyclic-generator"
    elif bottom_a == 0:
        oracle_verdict = exists_h0_epi(A, X, guard)
        route = "h0-epi"
    else:
        bottom_x = _brute_bottom(X, guard)
        if bottom_x is not None and bottom_x < bottom_a:
            oracle_verdict = False
            route = "support"
        else:
            if not (verify_certificates(X, mx) and verify_certificates(A, ma)):
                raise ChaincellError("a minimal part does not conjugate back to its input")
            a_down = desuspend(ma.minimal, bottom_a)
            x_down = desuspend(mx.minimal, bottom_a)
            oracle_verdict = exists_h0_epi(a_down, x_down, guard)
            route = f"h0-epi-desuspended-{bottom_a}"
    return CrossCheck(lattice_verdict, oracle_verdict, lattice_verdict == oracle_verdict, route)
