import itertools

import numpy as np
import pytest

from chaincell import (
    complexes,
    disk,
    empty,
    homology,
    interval,
    linalg,
    make_complex,
    oracle,
    sphere,
    validate,
)
from chaincell._kernels import enc_add, mat_mul
from chaincell.complexes import module_from_sizes
from chaincell.errors import DomainError, GuardExceeded, UsageError
from chaincell.lattice import is_acyclic_over, is_cellular
from chaincell.ops import direct_sum, direct_sum_all, extension, hom_complex, is_chain_map, shift
from chaincell.oracle import (
    SizeGuard,
    chain_map_module,
    cross_check,
    enumerate_chain_maps,
    exists_h0_epi,
    extension,
    hom_boundary_image_size,
    random_extension,
)
from chaincell.randgen import conjugated
from chaincell.ring import RingSpec

from conftest import bounded_random_complex, entry, unvalidated

Z4 = RingSpec("zpsq", 2)


def test_enumerate_sphere_endomorphisms(ring):
    maps = enumerate_chain_maps(sphere(ring, 0), sphere(ring, 0))
    assert len(maps) == ring.size
    assert all(is_chain_map(f) is None for f in maps)


def test_enumerate_interval_to_sphere(ring):
    # every map kills H0: the degree-0 component must land in m
    maps = enumerate_chain_maps(interval(ring, 0, 1), interval(ring, 0, 0))
    assert len(maps) == ring.p
    for f in maps:
        assert not entry(f.mat(0), 0, 0).is_unit()


def test_enumerate_from_empty(ring, rng):
    X = bounded_random_complex(ring, rng)
    maps = enumerate_chain_maps(empty(ring), X)
    assert len(maps) == 1


def test_enumerate_sphere_counts_cycles(ring, rng):
    # maps S^0 -> Y correspond to elements of Y_0 (no relations to satisfy)
    for _ in range(5):
        Y = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        if ring.size ** Y.rank(0) > 4096:
            continue
        maps = enumerate_chain_maps(sphere(ring, 0), Y, SizeGuard(1 << 14))
        assert len(maps) == ring.size ** Y.rank(0)


def test_enumeration_matches_naive_filter(ring, rng):
    # oracle for the oracle: full Cartesian product plus commutation filter
    for _ in range(4):
        X = bounded_random_complex(ring, rng, max_len=3, max_rank=1)
        Y = bounded_random_complex(ring, rng, max_len=3, max_rank=1)
        degrees = max(len(X.ranks), len(Y.ranks))
        exponent = sum(X.rank(n) * Y.rank(n) for n in range(degrees))
        if ring.size**exponent > 2048:
            continue
        fast = enumerate_chain_maps(X, Y, SizeGuard(2048))
        spaces = []
        for n in range(degrees):
            shape = (Y.rank(n), X.rank(n))
            count = ring.size ** (shape[0] * shape[1])
            from chaincell.oracle import _candidate_matrices

            spaces.append(list(_candidate_matrices(ring, *shape)))
        slow = 0
        for mats in itertools.product(*spaces):
            f = make_naive(X, Y, mats)
            if is_chain_map(f) is None:
                slow += 1
        assert len(fast) == slow


def make_naive(X, Y, mats):
    from chaincell.ops import ChainMap

    return ChainMap(X, Y, tuple(linalg.MatrixR(X.ring, m) for m in mats))


def test_guard_refusal_reports_budget():
    big = make_complex(Z4, [4], [])
    with pytest.raises(GuardExceeded) as info:
        enumerate_chain_maps(big, big, SizeGuard(100))
    assert info.value.required == 4**16


def test_guard_decides_by_the_exponent_and_prints_a_power(no_huge_powers):
    # |R|^(rank*rank) candidates from one degree to one degree; exact
    # .required up to 2**64 = 4^32, None above it, where it is never built
    for (a, b), required in (((4, 8), 4**32), ((3, 11), None), ((85, 85), None)):
        X, Y = make_complex(Z4, [a], []), make_complex(Z4, [b], [])
        for fn in (enumerate_chain_maps, chain_map_module, hom_complex):
            with pytest.raises(GuardExceeded, match=rf"needs 4\^{a * b} candidates") as info:
                fn(X, Y, SizeGuard(100))
            assert info.value.required == required
    huge = make_complex(Z4, [10**6], [])
    with pytest.raises(GuardExceeded, match=r"needs 4\^1000000000000 candidates"):
        hom_complex(huge, huge)
    # a guard far above 2**64 still admits what it covers
    one = make_complex(Z4, [1], [])
    assert len(enumerate_chain_maps(one, one, SizeGuard(1 << 200))) == 4


def test_exists_h0_epi_examples(ring):
    assert exists_h0_epi(interval(ring, 0, 0), interval(ring, 0, 1))
    assert not exists_h0_epi(interval(ring, 0, 1), interval(ring, 0, 0))
    assert exists_h0_epi(interval(ring, 0, 0), disk(ring, 1))


def test_exists_h0_epi_hypothesis_check(ring):
    with pytest.raises(DomainError):
        exists_h0_epi(disk(ring, 1), sphere(ring, 0))
    with pytest.raises(DomainError):
        exists_h0_epi(shift(sphere(ring, 0), 1), sphere(ring, 0))


def test_cross_check_examples(p2_ring):
    r1 = cross_check(interval(p2_ring, 0, 2), interval(p2_ring, 0, 1))
    assert (r1.lattice_verdict, r1.oracle_verdict, r1.agree) == (True, True, True)
    r2 = cross_check(interval(p2_ring, 0, 0), interval(p2_ring, 0, 1))
    assert (r2.lattice_verdict, r2.oracle_verdict, r2.agree) == (False, False, True)
    r3 = cross_check(disk(p2_ring, 1), interval(p2_ring, 0, 0))
    assert (r3.lattice_verdict, r3.oracle_verdict, r3.agree) == (True, True, True)


def test_cross_check_desuspension_routes(p2_ring):
    r = cross_check(interval(p2_ring, 1, 2), interval(p2_ring, 1, 1))
    assert r.agree and r.route.startswith("h0-epi-desuspended")
    r2 = cross_check(interval(p2_ring, 1, 0), interval(p2_ring, 2, 0))
    assert r2.agree and r2.route == "support"
    r3 = cross_check(disk(p2_ring, 2), disk(p2_ring, 1))
    assert r3.agree and r3.route == "acyclic-generator"


@pytest.mark.parametrize(
    "entry, xs, as_",
    [
        (cross_check, ((0, 0), (0, 1)), ((0, 1),)),  # h0-epi
        (cross_check, ((1, 2),), ((1, 1),)),  # desuspended
        (cross_check, ((1, 0),), ((2, 0),)),  # support
        (cross_check, ((0, 1),), ()),  # acyclic generator
        (exists_h0_epi, ((0, 0),), ((0, 1), (1, 1))),
        (chain_map_module, ((0, 1),), ((0, 0), (1, 0))),
        (hom_boundary_image_size, ((0, 1),), ((0, 1),)),
        (enumerate_chain_maps, ((0, 1),), ((0, 0),)),
    ],
    ids=[
        "cross_check-h0-epi",
        "cross_check-desuspended",
        "cross_check-support",
        "cross_check-acyclic",
        "exists_h0_epi",
        "chain_map_module",
        "hom_boundary_image_size",
        "enumerate_chain_maps",
    ],
)
def test_oracle_entries_validate_each_input_once(p2_ring, monkeypatch, entry, xs, as_):
    X = direct_sum_all(p2_ring, [interval(p2_ring, i, j) for i, j in xs])
    A = direct_sum_all(p2_ring, [interval(p2_ring, i, j) for i, j in as_] or [disk(p2_ring, 1)])
    X, A = unvalidated(X), unvalidated(A)
    calls = []
    real = complexes.validate
    monkeypatch.setattr(complexes, "validate", lambda Y: calls.append(Y) or real(Y))
    entry(X, A)
    assert sum(c is X for c in calls) == 1 and sum(c is A for c in calls) == 1, entry.__name__


@pytest.mark.parametrize(
    "xs, as_",
    [
        (((0, 0), (0, 1)), ((0, 1),)),  # h0-epi
        (((1, 2),), ((1, 1),)),  # desuspended
        (((1, 0),), ((2, 0),)),  # support
        (((0, 1),), ()),  # acyclic generator
    ],
    ids=["h0-epi", "desuspended", "support", "acyclic"],
)
def test_oracle_item_sequence_validates_each_input_once(p2_ring, rng, monkeypatch, xs, as_):
    # the reads of one benchmark oracle item on (X, A), with verdicts not
    # known yet: each input keeps its verdict, and what the package derives
    # from them carries one
    X = direct_sum_all(p2_ring, [interval(p2_ring, i, j) for i, j in xs])
    A = direct_sum_all(p2_ring, [interval(p2_ring, i, j) for i, j in as_] or [disk(p2_ring, 1)])
    X, A = (unvalidated(conjugated(Z, rng)) for Z in (X, A))
    calls = []
    real = complexes.validate
    monkeypatch.setattr(complexes, "validate", lambda Y: calls.append(Y) or real(Y))
    assert cross_check(X, A).agree
    is_cellular(X, A)
    is_acyclic_over(X, A)
    assert complexes.brute_homology(X) == homology(X)
    chain_map_module(X, A)
    hom_complex(X, A, SizeGuard(1 << 12))
    assert len(calls) == 2 and calls[0] is X and calls[1] is A


@pytest.mark.parametrize(
    "entry",
    [cross_check, exists_h0_epi, chain_map_module, hom_boundary_image_size, enumerate_chain_maps],
    ids=lambda entry: entry.__name__,
)
def test_oracle_entries_refuse_a_ring_mismatch(monkeypatch, entry):
    # the rings are compared before any guard, table or minimal model
    class NoGuard(SizeGuard):
        def check(self, what, base, exponent):
            raise AssertionError(f"{what} was guarded before the ring check")

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the ring check")

    for name in ("_all_vectors", "_boundaries", "_candidate_matrices", "minimize"):
        monkeypatch.setattr(oracle, name, no_table)
    A, Y = interval(Z4, 0, 1), interval(RingSpec("dual", 3), 1, 1)
    for pair in ((A, Y), (Y, A)):
        with pytest.raises(UsageError, match="ring mismatch"):
            entry(*pair, NoGuard())


def test_extension_of_spheres_gives_interval(ring):
    h = np.array([[ring.p]], dtype=np.int64)  # encoded r
    ext = extension(sphere(ring, 0), sphere(ring, 1), {1: h})
    assert ext.total == interval(ring, 0, 1)
    assert is_chain_map(ext.inclusion) is None
    assert is_chain_map(ext.projection) is None


def test_extension_rejects_bad_connecting_block(ring):
    one = np.array([[1]], dtype=np.int64)
    with pytest.raises(UsageError):
        extension(interval(ring, 0, 1), sphere(ring, 2), {2: one})


def test_extension_zero_blocks_give_direct_sum(ring):
    X, Z = interval(ring, 0, 1), interval(ring, 1, 1)
    assert extension(X, Z, {}).total == direct_sum(X, Z)


def test_random_extension_counts_its_draws_before_drawing(monkeypatch):
    # X = [3] and Z = [0, 3]: extension writes 45 cells (Y's d_1 is 3x3;
    # the inclusion and projection are 3x3 in one degree each, and copy a
    # 3x3 identity each), and the connecting block draws 9 more
    X = make_complex(Z4, [3], [])
    Z = make_complex(Z4, [0, 3], [linalg.zeros(Z4, 0, 3)])
    monkeypatch.setattr(complexes, "MAX_CELLS", 54)
    assert random_extension(X, Z, seed=0).total.ranks == (3, 3)

    def no_draw(*args, **kwargs):
        raise AssertionError("a connecting block was drawn above the cell cap")

    monkeypatch.setattr(complexes, "MAX_CELLS", 53)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(GuardExceeded, match="54 cells exceed the cap of 53"):
        random_extension(X, Z, seed=0)


def test_random_extension_always_valid(ring, rng):
    for seed in range(15):
        X = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        Z = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        ext = random_extension(X, Z, seed=seed)
        assert validate(ext.total) is None
        assert is_chain_map(ext.inclusion) is None
        assert is_chain_map(ext.projection) is None
        assert ext.total.ranks == tuple(
            X.rank(n) + Z.rank(n)
            for n in range(max(len(X.ranks), len(Z.ranks)))
        )


def test_h0_epi_consistency_with_lattice_on_sums(p2_ring, rng):
    # mirrors the frozen-family agreement on randomly drawn sums
    from chaincell.randgen import random_interval_sum

    done = 0
    while done < 25:
        A = random_interval_sum(
            p2_ring, rng, max_summands=2, max_shift=1, max_length=2, force_bottom_zero=True
        )
        X = random_interval_sum(p2_ring, rng, max_summands=2, max_shift=2, max_length=2)
        exponent = sum(A.rank(n) * X.rank(n) for n in range(5))
        if p2_ring.size**exponent > (1 << 18):
            continue
        assert cross_check(X, A, SizeGuard(1 << 18)).agree
        done += 1


# ---------------------------------------------------------------------------
# naive per-candidate references: the enumerations written as plain loops


def naive_vectors(ring, n):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(ring.size), repeat=n)]


def naive_matrices(ring, rows, cols):
    return [v.reshape(rows, cols) for v in naive_vectors(ring, rows * cols)]


def naive_chain_maps(X, Y):
    """Every chain map X -> Y: the full product of blocks, filtered."""
    p, fl = X.ring.p, X.ring.flavor_code
    degrees = max(len(X.ranks), len(Y.ranks))
    spaces = [naive_matrices(X.ring, Y.rank(n), X.rank(n)) for n in range(degrees)]
    maps = []
    for mats in itertools.product(*spaces):
        if all(
            np.array_equal(
                mat_mul(Y.d(n).data, mats[n], p, fl), mat_mul(mats[n - 1], X.d(n).data, p, fl)
            )
            for n in range(1, degrees)
        ):
            maps.append(mats)
    return maps


def naive_chain_map_module(X, Y):
    maps = naive_chain_maps(X, Y)
    in_m = [mats for mats in maps if not any(np.any(m % X.ring.p) for m in mats)]
    return module_from_sizes(X.ring.p, len(maps), len(in_m))


def naive_hom_image_size(X, Y):
    p, fl = X.ring.p, X.ring.flavor_code
    blocks = range(X.top + 1)
    spaces = [naive_matrices(X.ring, Y.rank(i + 1), X.rank(i)) for i in blocks]
    seen = set()
    for g in itertools.product(*spaces):
        parts = []
        for i in blocks:
            phi = mat_mul(Y.d(i + 1).data, g[i], p, fl)
            if i >= 1:
                phi = enc_add(phi, mat_mul(g[i - 1], X.d(i).data, p, fl), p, fl)
            parts.append(tuple(phi.ravel().tolist()))
        seen.add(tuple(parts))
    return len(seen)


def naive_exists_h0_epi(A, Y, f0s=None):
    """Coset table as a dict, generators f_0(c) one at a time, span by BFS."""
    ring = Y.ring
    p, fl = ring.p, ring.flavor_code

    def apply(M, v):
        return tuple(mat_mul(M, v.reshape(-1, 1), p, fl)[:, 0].tolist())

    def add(u, v):
        return tuple(enc_add(np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), p, fl).tolist())

    boundary = {apply(Y.d(1).data, u) for u in naive_vectors(ring, Y.rank(1))}
    rep = {}
    for v in naive_vectors(ring, Y.rank(0)):
        v = tuple(v.tolist())
        if v not in rep:
            for b in boundary:
                rep[add(v, b)] = v
    if f0s is None:
        f0s = [mats[0] for mats in naive_chain_maps(A, Y)]
    gens = {rep[apply(f0, c)] for f0 in f0s for c in naive_vectors(ring, A.rank(0))}
    zero = (0,) * Y.rank(0)
    span, frontier = {rep[zero]}, [rep[zero]]
    while frontier:
        nxt = []
        for g in gens:
            for s in frontier:
                t = rep[add(s, g)]
                if t not in span:
                    span.add(t)
                    nxt.append(t)
        frontier = nxt
    return len(span) == len(set(rep.values()))


NAIVE_LIMIT = 1024


def _map_exponent(X, Y):
    return sum(X.rank(n) * Y.rank(n) for n in range(max(len(X.ranks), len(Y.ranks))))


def _hom1_exponent(X, Y):
    return sum(X.rank(i) * Y.rank(i + 1) for i in range(X.top + 1))


def _small_pairs(ring, rng, exponent, count, want=lambda X, Y: True):
    pairs = []
    while len(pairs) < count:
        X = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        Y = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        if ring.size ** exponent(X, Y) <= NAIVE_LIMIT and want(X, Y):
            pairs.append((X, Y))
    return pairs


def test_chain_map_module_matches_naive(ring, rng):
    for X, Y in _small_pairs(ring, rng, _map_exponent, 6):
        assert chain_map_module(X, Y) == naive_chain_map_module(X, Y)


def _block_key(m):
    return m.shape, tuple(m.ravel().tolist())


def test_survivors_count_the_chain_maps_through_each_f0(ring, rng):
    # survivors()[0] maps each candidate f_0 to the number of chain maps
    # that start with it; only_m keeps the maps with every entry in m
    p = ring.p
    for X, Y in _small_pairs(ring, rng, _map_exponent, 6, lambda X, Y: X.ranks or Y.ranks):
        search = oracle._MapSearch(X, Y, SizeGuard())
        for only_m in (False, True):
            want = {}
            for mats in naive_chain_maps(X, Y):
                if only_m and any(np.any(m % p) for m in mats):
                    continue
                key = _block_key(mats[0])
                want[key] = want.get(key, 0) + 1
            alive = search.survivors(only_m)[0]
            assert {_block_key(search.cand[0][k]): c for k, c in alive.items()} == want
            assert list(alive) == sorted(alive)


def test_hom_boundary_image_size_matches_naive(ring, rng):
    for X, Y in _small_pairs(ring, rng, _hom1_exponent, 6):
        assert hom_boundary_image_size(X, Y) == naive_hom_image_size(X, Y)
    for X in (empty(ring), sphere(ring, 0)):
        for Y in (empty(ring), sphere(ring, 0), interval(ring, 0, 1)):
            assert hom_boundary_image_size(X, Y) == naive_hom_image_size(X, Y)


def test_exists_h0_epi_matches_naive(ring, rng):
    def admissible(A, Y):
        return not A.is_empty() and not homology(A)[0].is_zero()

    pairs = _small_pairs(ring, rng, _map_exponent, 6, admissible)
    A1 = interval(ring, 0, 1)
    pairs += [(A1, sphere(ring, 0)), (A1, direct_sum(A1, sphere(ring, 0)))]
    verdicts = set()
    for A, Y in pairs:
        got = exists_h0_epi(A, Y)
        assert got == naive_exists_h0_epi(A, Y)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_exists_h0_epi_rank_zero_target(ring):
    # H_0(Y) = 0 is hit by anything
    A = interval(ring, 0, 1)
    for Y in (empty(ring), interval(ring, 1, 1), shift(disk(ring, 1), 1)):
        assert Y.rank(0) == 0
        assert exists_h0_epi(A, Y) is naive_exists_h0_epi(A, Y) is True
        assert chain_map_module(A, Y) == naive_chain_map_module(A, Y)
        assert hom_boundary_image_size(A, Y) == naive_hom_image_size(A, Y)


def test_exists_h0_epi_no_viable_f0(ring, monkeypatch):
    # with no viable degree-0 component only the zero coset is reached
    _restricted_f0(monkeypatch, set())
    A, Y = sphere(ring, 0), interval(ring, 0, 1)
    assert exists_h0_epi(A, Y) is naive_exists_h0_epi(A, Y, f0s=[]) is False


def _bar_image_size(p, xs, ys):
    """|im d_1| of Hom(X, Y) for X, Y sums of the intervals (a, j) in xs and
    (b, k) in ys: over each pair of bars [a, A] and [b, B] that overlap in
    L > 0 degrees, a factor p^L when a < b or A < B, else p^(L - 1)."""
    size = 1
    for (a, j), (b, k) in itertools.product(xs, ys):
        A, B = a + j, b + k
        L = min(A, B) - max(a, b) + 1
        if L > 0:
            size *= p ** (L if a < b or A < B else L - 1)
    return size


@pytest.mark.parametrize("ring", [Z4, RingSpec("dual", 3)], ids=str)
def test_hom_boundary_image_size_matches_the_interval_pair_table(ring):
    for a, j, b, k in itertools.product(range(4), repeat=4):
        got = hom_boundary_image_size(interval(ring, a, j), interval(ring, b, k))
        assert got == _bar_image_size(ring.p, [(a, j)], [(b, k)]), (a, j, b, k)


def test_hom_boundary_image_size_reaches_past_the_product_of_its_blocks(rng, monkeypatch):
    # 4^18 families in Hom_1; the search costs the sum of its degrees'
    # candidates, at most 4^6 here
    xs, ys = [(0, 3), (0, 3), (1, 1)], [(0, 3), (1, 3)]
    X = conjugated(direct_sum_all(Z4, [interval(Z4, *s) for s in xs]), rng)
    Y = conjugated(direct_sum_all(Z4, [interval(Z4, *s) for s in ys]), rng)
    candidates = Z4.size ** _hom1_exponent(X, Y)
    assert candidates > 4**13
    blocks = []
    candidate_matrices = oracle._candidate_matrices

    def spy(ring, rows, cols):
        blocks.append(rows * cols)
        return candidate_matrices(ring, rows, cols)

    monkeypatch.setattr(oracle, "_candidate_matrices", spy)
    got = hom_boundary_image_size(X, Y, SizeGuard(candidates))
    assert blocks and max(blocks) <= 6
    assert got == _bar_image_size(Z4.p, xs, ys)


def _refusal(fn, *args):
    with pytest.raises(GuardExceeded) as info:
        fn(*args)
    return info.value.required, str(info.value).split(" needs")[0]


def test_guard_refusals_keep_order_and_required():
    zero_d = linalg.zeros(Z4, 4, 4)
    Y = make_complex(Z4, [4, 4], [zero_d])  # coset table 4^4, boundaries 4^4
    A = make_complex(Z4, [2], [])  # chain maps A -> Y: 4^(2*4)
    assert _refusal(exists_h0_epi, A, Y, SizeGuard(255)) == (256, "H0 coset table")
    assert _refusal(exists_h0_epi, A, Y, SizeGuard(256)) == (4**8, "chain map enumeration")
    Y1 = make_complex(Z4, [1, 5], [linalg.zeros(Z4, 1, 5)])
    assert _refusal(exists_h0_epi, A, Y1, SizeGuard(1000)) == (4**5, "H0 boundary enumeration")
    assert _refusal(chain_map_module, A, Y, SizeGuard(4**8 - 1)) == (4**8, "chain map enumeration")
    X = make_complex(Z4, [1, 1], [linalg.zeros(Z4, 1, 1)])
    W = make_complex(Z4, [0, 2, 1], [linalg.zeros(Z4, 0, 2), linalg.zeros(Z4, 2, 1)])
    # Hom_1 blocks X_0 -> W_1 and X_1 -> W_2: 4^(1*2 + 1*1)
    assert _refusal(hom_boundary_image_size, X, W, SizeGuard(63)) == (
        64,
        "hom degree-1 enumeration",
    )
    assert hom_boundary_image_size(X, W, SizeGuard(64)) == naive_hom_image_size(X, W) == 1


def _restricted_f0(monkeypatch, keep):
    """Let only the candidate f_0 with these indices survive."""

    class Restricted(oracle._MapSearch):
        def survivors(self, only_m=False):
            alive = super().survivors(only_m)
            alive[0] = {k: c for k, c in alive[0].items() if k in keep}
            return alive

    monkeypatch.setattr(oracle, "_MapSearch", Restricted)


def test_exists_h0_epi_many_cosets_p2(p2_ring, monkeypatch):
    # d_1 = 0 and Y_0 = R^5: 1024 cosets
    ring = p2_ring
    Y = make_complex(ring, [5], [])
    A1 = interval(ring, 0, 1)  # every f_0 lands in m*Y_0
    assert exists_h0_epi(A1, Y) is naive_exists_h0_epi(A1, Y) is False
    # from S^0 only the f_0 onto basis vectors: all of them span, four do not
    A0 = sphere(ring, 0)
    basis = np.eye(5, dtype=np.int64)
    for count, verdict in ((5, True), (4, False)):
        _restricted_f0(monkeypatch, {ring.size ** (4 - i) for i in range(count)})
        f0s = [basis[:, [i]] for i in range(count)]
        assert exists_h0_epi(A0, Y) is naive_exists_h0_epi(A0, Y, f0s=f0s) is verdict


def test_exists_h0_epi_hits_h0_through_the_r_multiples_in_dual(monkeypatch):
    # Y_0 = R with d_1 = 0, so H_0(Y) = R, and f_0 = [1] alone maps R onto
    # it; under addition its column 1 spans only k = {0, ..., p - 1}, which
    # misses r, and only its r-multiple, r itself, reaches H_0's m-part
    ring = RingSpec("dual", 2)
    p, fl = ring.p, ring.flavor_code
    multiples, k_one = set(), np.zeros(1, dtype=np.int64)
    for _ in range(ring.size):
        k_one = enc_add(k_one, np.ones(1, dtype=np.int64), p, fl)
        multiples.add(int(k_one[0]))
    assert ring.r().encoded not in multiples
    A, Y = sphere(ring, 0), make_complex(ring, [1], [])
    _restricted_f0(monkeypatch, {1})  # the 1x1 candidates are indexed by their entry
    f0s = [np.array([[1]], dtype=np.int64)]
    assert exists_h0_epi(A, Y) is naive_exists_h0_epi(A, Y, f0s=f0s) is True


def test_exists_h0_epi_many_cosets_p3():
    # Y_0 = R^3 at p = 3 with a rank-1 boundary, im d_1 = k (243 cosets) or R (81)
    verdicts = set()
    for ring, column in ((RingSpec("zpsq", 3), [[3], [0], [0]]), (RingSpec("dual", 3), [[1], [3], [0]])):
        Y = make_complex(ring, [3, 1], [linalg.MatrixR(ring, np.array(column, dtype=np.int64))])
        for A in (sphere(ring, 0), interval(ring, 0, 1)):
            got = exists_h0_epi(A, Y)
            assert got == naive_exists_h0_epi(A, Y)
            verdicts.add(got)
    assert verdicts == {True, False}
