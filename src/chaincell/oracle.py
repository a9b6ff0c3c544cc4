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

The H0-epi search works in numpy batches rather than one Python call
per vector: a vector of Y_0 is named by its integer code
(``complexes._codes``, its row index in ``_all_vectors``), and at most
``_F0_CHUNK`` degree-0 components are applied to all cycles at once, a
chunk of about ``_CHUNK_CELLS`` entries, so memory beyond the candidate
stacks themselves stays bounded.

Refusals are predictable: the guard is compared against the worst-case
unpruned candidate count, not against what the pruning actually visits.
Each such count is a power of |R|, compared by its exponent, so a count
far above the guard is refused without being built.

``random_extension`` samples connecting blocks through ``ops.extension``,
the one builder of extensions and cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import enc_add
from .complexes import (
    EXACT_REQUIRED,
    ChainComplex,
    ModuleDescriptor,
    _all_vectors,
    _boundaries,
    _check_cells,
    _codes,
    _power_at_most,
    brute_homology,
    module_from_sizes,
    require_valid,
)
from .errors import ChaincellError, DomainError, GuardExceeded, UsageError
from .lattice import _cellular_verdict, _min_pair
from .linalg import MatrixR
from .ops import ChainMap, Extension, _extension_cells, desuspend, extension, shift
from .reduce import minimize
from .ring import check_same_ring


# exists_h0_epi's chunks hold at most about this many entries.
_CHUNK_CELLS = 1 << 16
# exists_h0_epi takes at most this many f_0 candidates per chunk.
_F0_CHUNK = 64


@dataclass(frozen=True)
class SizeGuard:
    """Upper bound on brute-force candidate counts per enumeration.

    Every count it guards is a power of |R|, decided by its exponent, so
    no count above the guard is ever built; a refusal gives the count as
    a power, such as ``4^7225``.
    """

    max_search_space: int = 1 << 20

    def check(self, what: str, base: int, exponent: int):
        """Refuse base**exponent candidates above the guard."""
        count = _power_at_most(base, exponent, max(self.max_search_space, EXACT_REQUIRED))
        if count is None or count > self.max_search_space:
            raise GuardExceeded(
                f"{what} needs {base}^{exponent} candidates; guard allows "
                f"{self.max_search_space} (raise the guard to proceed)",
                required=count,
            )


def _map_exponent(X: ChainComplex, Y: ChainComplex) -> int:
    """Worst-case chain map candidates X -> Y are |R| to this power: every
    block in every degree."""
    levels = max(len(X.ranks), len(Y.ranks))
    return sum(X.rank(n) * Y.rank(n) for n in range(levels))


def _hom1_exponent(X: ChainComplex, Y: ChainComplex) -> int:
    """|Hom(X, Y)_1| is |R| to this power: every family g_i: X_i -> Y_(i+1)."""
    return sum(X.rank(i) * Y.rank(i + 1) for i in range(X.top + 1))


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
    """Backtracking state for chain maps source -> target.

    Candidates per degree are pruned by grouping on the two sides of the
    commutation equation target.d(n) @ f_n == f_(n-1) @ source.d(n).
    Both complexes are validated first.
    """

    def __init__(self, source: ChainComplex, target: ChainComplex, guard: SizeGuard):
        if source.ring != target.ring:
            raise UsageError("ring mismatch in chain map enumeration")
        require_valid(source)
        require_valid(target)
        self.source, self.target = source, target
        self.ring = source.ring
        self.levels = max(len(source.ranks), len(target.ranks))
        guard.check("chain map enumeration", self.ring.size, _map_exponent(source, target))

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

        self.viable = [list(range(len(c))) for c in self.cand]
        self.groups = [None] * self.levels  # lhs key -> viable candidate indices
        for n in range(self.levels - 1, 0, -1):
            grp = {}
            for k in self.viable[n]:
                grp.setdefault(self.lhs_keys[n][k], []).append(k)
            self.groups[n] = grp
            self.viable[n - 1] = [
                k for k in self.viable[n - 1] if self.rhs_keys[n - 1][k] in grp
            ]

    def expand(self):
        """All chain maps as tuples of candidate indices, lexicographic."""
        partials = [(k,) for k in self.viable[0]]
        for n in range(1, self.levels):
            nxt = []
            for partial in partials:
                key = self.rhs_keys[n - 1][partial[-1]]
                for k in self.groups[n].get(key, ()):
                    nxt.append(partial + (k,))
            partials = nxt
        return partials

    def counts(self, only_m: bool = False):
        """Number of chain maps, optionally only those with every entry in m."""
        if self.levels == 0:
            return 1
        p = self.ring.p
        admitted = [
            ~np.any(c % p, axis=(1, 2)) if only_m else np.ones(len(c), bool)
            for c in self.cand
        ]
        cnt = {k: 1 for k in self.viable[-1] if admitted[-1][k]}
        for n in range(self.levels - 1, 0, -1):
            by_key = {}  # lhs key -> chain maps so far through it
            for k, c in cnt.items():
                key = self.lhs_keys[n][k]
                by_key[key] = by_key.get(key, 0) + c
            rhs = self.rhs_keys[n - 1]
            cnt = {
                k: by_key[rhs[k]]
                for k in self.viable[n - 1]
                if admitted[n - 1][k] and rhs[k] in by_key
            }
        return sum(cnt.values())

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
    exponent = _hom1_exponent(X, Y)
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

    Requires H_0(A) != 0 (the surjectivity criterion's hypothesis);
    desuspend the pair first when the bottom degree is positive.
    """
    check_same_ring(A, Y)
    bottom = minimize(A).bottom  # minimize validates A
    require_valid(Y)
    if bottom != 0:  # nothing lies below it, so H_0(A) != 0 exactly when it is 0
        raise DomainError(
            "H_0 of the generator vanishes; desuspend the pair before testing"
        )
    ring = Y.ring
    p, fl = ring.p, ring.flavor_code
    guard.check("H0 coset table", ring.size, Y.rank(0))
    guard.check("H0 boundary enumeration", ring.size, Y.rank(1))
    span = _boundaries(Y, 0)  # over the codes of Y_0; starts as im d_1
    if span.all():
        return True

    search = _MapSearch(A, Y, guard)
    guard.check("H0 cycle enumeration", ring.size, A.rank(0))
    cycles = _all_vectors(ring, A.rank(0)).T.copy()  # degree 0: everything is a cycle

    # images of every cycle under every viable f_0, a chunk of f_0 at a time
    hit = np.zeros(len(span), dtype=bool)
    f0_stack = search.cand[0][search.viable[0]]
    step = max(1, min(_F0_CHUNK, _CHUNK_CELLS // (Y.rank(0) * cycles.shape[1])))
    for lo in range(0, len(f0_stack), step):
        images = _kernels.mat_mul(f0_stack[lo : lo + step], cycles, p, fl)
        hit[_codes(ring, images.transpose(0, 2, 1))] = True

    vecs = _all_vectors(ring, Y.rank(0))
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

    def to_json(self, pair=None, seed=None) -> dict:
        return {
            "pair": pair,
            "latticeVerdict": self.lattice_verdict,
            "oracleVerdict": self.oracle_verdict,
            "agree": self.agree,
            "route": self.route,
            "seed": seed,
        }


def _brute_bottom(X: ChainComplex, guard: SizeGuard) -> Optional[int]:
    """Lowest degree with nonzero homology of X, computed elementwise."""
    for n, descr in enumerate(brute_homology(X, guard.max_search_space)):
        if not descr.is_zero():
            return n
    return None


def cross_check(X: ChainComplex, A: ChainComplex, guard: SizeGuard = SizeGuard()) -> CrossCheck:
    """Compare is_cellular(X, A) with the brute-force H0-epi criterion.

    The criterion applies directly when A has homology in degree 0.
    Otherwise both sides are desuspended by the bottom degree of A
    (which preserves the relation), and when X's homology starts below
    A's the relation already fails for support reasons.  Each input is
    minimized once for the lattice verdict and the desuspended pair; the
    minimal model of A must start where its elementwise homology does.
    """
    check_same_ring(X, A)
    mx, ma = minimize(X), minimize(A)
    lattice_verdict = _cellular_verdict(_min_pair(mx), _min_pair(ma)).holds
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
            a_down = desuspend(ma.minimal, bottom_a)
            x_down = desuspend(mx.minimal, bottom_a)
            oracle_verdict = exists_h0_epi(a_down, x_down, guard)
            route = f"h0-epi-desuspended-{bottom_a}"
    return CrossCheck(lattice_verdict, oracle_verdict, lattice_verdict == oracle_verdict, route)


# ---------------------------------------------------------------------------
# extensions


def random_extension(X: ChainComplex, Z: ChainComplex, seed: int, attempts: int = 64) -> Extension:
    """Extension of Z by X with a randomly sampled connecting block.

    Rejection-samples uniform blocks through ``extension`` within the
    attempt budget; the zero block always works on valid inputs, so the
    fallback keeps this total, and raises what invalid inputs fail.  The
    blocks it would draw count toward the cell cap with what
    ``extension`` writes, before the first draw.
    """
    degrees = [n for n in range(1, Z.top + 1) if Z.rank(n) and X.rank(n - 1)]
    drawn = sum(X.rank(n - 1) * Z.rank(n) for n in degrees)
    _check_cells(extra=_extension_cells(X, Z) + drawn)
    rng = np.random.default_rng(seed)
    size = X.ring.size
    for _ in range(attempts):
        hs = {
            n: rng.integers(0, size, size=(X.rank(n - 1), Z.rank(n)), dtype=np.int64)
            for n in degrees
        }
        try:
            return extension(X, Z, hs, seed=seed)
        except UsageError:
            continue
    return extension(X, Z, {}, seed=seed)
