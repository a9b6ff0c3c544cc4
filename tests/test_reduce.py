from collections import Counter

import numpy as np
import pytest

from chaincell import (
    _kernels,
    complexes,
    disk,
    empty,
    homology,
    interval,
    linalg,
    make_complex,
    reduce,
    sphere,
)
from chaincell._kernels import rank_mod
from chaincell.complexes import interval_sum
from chaincell.errors import ChaincellError, UsageError
from chaincell.lattice import min_pair
from chaincell.ops import direct_sum, direct_sum_all, shift, tensor
from chaincell.reduce import (
    barcode,
    bottom_degree,
    composite_rank,
    decompose,
    minimize,
    reconstruct,
    rho_table,
    verify_certificates,
)
from chaincell.randgen import conjugated, random_complex_with_disks
from chaincell.ring import RingSpec, parse_ring

from conftest import bounded_random_complex, from_elements, unvalidated

Z4 = RingSpec("zpsq", 2)


def test_minimize_disk(ring):
    result = minimize(disk(ring, 1))
    assert result.minimal == empty(ring)
    assert result.disks == (1,)
    assert verify_certificates(disk(ring, 1), result)


def test_minimize_keeps_minimal_complex(ring):
    X = interval(ring, 0, 2)
    result = minimize(X)
    assert result.minimal == X
    assert result.disks == ()
    for u, uinv in result.certificates:
        assert u == linalg.identity(ring, 1)
        assert uinv == linalg.identity(ring, 1)


def test_minimize_unit_plus_r_entry(ring):
    # d = [1 + r] is a unit, so the complex is one disk
    d = from_elements(ring, [[ring.element(1, 1)]])
    X = make_complex(ring, [1, 1], [d])
    result = minimize(X)
    assert result.minimal == empty(ring)
    assert result.disks == (1,)
    assert verify_certificates(X, result)


def test_minimize_interleaved_disks(ring, rng):
    # disks hidden by random conjugation still split off
    from chaincell.randgen import conjugated

    X = direct_sum_all(
        ring, [interval(ring, 0, 1), disk(ring, 1), disk(ring, 2), sphere(ring, 2)]
    )
    X = conjugated(X, rng)
    result = minimize(X)
    assert sorted(result.disks) == [1, 2]
    assert result.minimal.total_rank == 3
    assert verify_certificates(X, result)


def test_disk_counts_match_residue_ranks(ring, rng):
    # independent count: conjugation keeps the rank of each residue, and
    # only the D^n summands contribute to it in degree n
    for _ in range(40):
        X = random_complex_with_disks(ring, rng, max_degree=5, max_rank=4, max_disks=6)
        disks = Counter(minimize(X).disks)
        for n in range(1, len(X.ranks)):
            assert disks[n] == rank_mod(X.d(n).data, ring.p)


@pytest.mark.parametrize("spec", ["zpsq:3", "dual:3", "zpsq:5"])
def test_certificates_verify_at_scale(spec):
    # 8 disks per degree: every block step has s = 8, and the scrambling
    # leaves the off-pivot blocks Q and S nonzero
    ring = parse_ring(spec)
    rng = np.random.default_rng(11)
    intervals = [((t // 6) % (6 - t % 6), t % 6) for t in range(18)]
    disks = [1 + t % 5 for t in range(40)]
    parts = [interval(ring, i, j) for i, j in intervals] + [disk(ring, n) for n in disks]
    X = conjugated(direct_sum_all(ring, parts), rng)
    assert len(X.ranks) == 6 and X.total_rank >= 100
    result = minimize(X)
    assert Counter(result.disks) == Counter(disks)
    for n in range(1, len(X.ranks)):
        assert result.disks.count(n) == rank_mod(X.d(n).data, ring.p)
    assert barcode(result.minimal) == Counter(intervals)
    assert verify_certificates(X, result)


def test_minimize_block_checks(ring, monkeypatch):
    # each check fires when its invariant breaks: d*d != 0 with validation
    # skipped, or an echelon that reports too few pivots
    monkeypatch.setattr(reduce, "require_valid", lambda X: None)
    one = from_elements(ring, [[ring.element(1, 0)]])
    r = from_elements(ring, [[ring.r()]])
    with pytest.raises(ChaincellError, match="incoming"):
        minimize(make_complex(ring, [1, 1, 1], [one, one], check=False))
    with pytest.raises(ChaincellError, match="outgoing"):
        minimize(make_complex(ring, [1, 1, 1], [r, one], check=False))
    real = reduce.echelon_mod

    def one_pivot(M, p, carry=False):  # the true elimination, all but its first pivot dropped
        _, rows, cols, reduced = real(M, p, carry)
        return 1, rows[:1], cols[:1], reduced[:, : M.shape[1] + 1]

    monkeypatch.setattr(reduce, "echelon_mod", one_pivot)
    with pytest.raises(ChaincellError, match="Schur"):
        minimize(make_complex(ring, [2, 2], [linalg.identity(ring, 2)], check=False))


def test_minimize_eliminates_once_per_block_step(ring, monkeypatch):
    # each step reads P^-1 off its own elimination of D; mat_inverse would
    # eliminate P a second time
    calls = []
    real = reduce.echelon_mod

    def spy(M, p, carry=False):
        calls.append((M.shape, carry))
        return real(M, p, carry)

    def no_second_elimination(*args):
        raise AssertionError("minimize called mat_inverse")

    parts = [interval(ring, 0, 2)] + [disk(ring, n) for n in (1, 2, 2, 3)]
    X = conjugated(direct_sum_all(ring, parts), np.random.default_rng(3))
    monkeypatch.setattr(reduce, "echelon_mod", spy)
    monkeypatch.setattr(_kernels, "mat_inverse", no_second_elimination)
    assert not hasattr(reduce, "mat_inverse")
    result = minimize(X)
    assert Counter(result.disks) == Counter([1, 2, 2, 3])
    assert len(calls) == len(result.steps) == 3
    for (shape, carry), (n, *_rest) in zip(calls, result.steps):
        assert shape == (X.ranks[n - 1] - result.disks.count(n - 1), X.ranks[n]) and carry
    assert verify_certificates(X, result)


def test_composite_rank_examples(ring):
    assert composite_rank(interval(ring, 0, 2), 0, 2) == 1
    split = direct_sum(sphere(ring, 0), sphere(ring, 1))
    assert composite_rank(split, 0, 1) == 0
    for a in range(2):
        assert composite_rank(split, a, a) == split.ranks[a]


def test_composite_rank_rejects_non_minimal(ring):
    with pytest.raises(UsageError):
        composite_rank(disk(ring, 1), 0, 1)
    with pytest.raises(UsageError):
        composite_rank(interval(ring, 0, 2), 1, 3)


def _minimal_with_mixed_parts(ring, rng, max_degree=7, max_rank=5):
    """Minimal complex whose B_n are full random, rank <= 2, zero or empty."""
    n_degrees = int(rng.integers(0, max_degree + 2))
    ranks = [int(rng.integers(0, max_rank + 1)) for _ in range(n_degrees)]
    diffs = []
    for n in range(1, n_degrees):
        rows, cols = ranks[n - 1], ranks[n]
        kind = int(rng.integers(0, 3))
        if kind == 0:
            B = rng.integers(0, ring.p, size=(rows, cols), dtype=np.int64)
        elif kind == 1:
            k = int(rng.integers(1, 3))
            B = rng.integers(0, ring.p, size=(rows, k)) @ rng.integers(0, ring.p, size=(k, cols))
        else:
            B = np.zeros((rows, cols), dtype=np.int64)
        diffs.append(linalg.MatrixR(ring, ring.p * (B % ring.p)))
    return make_complex(ring, ranks, diffs)


def _minimal_from_parts(ring, ranks, parts):
    """The minimal complex with d_n = r * parts[n - 1]."""
    diffs = [linalg.MatrixR(ring, ring.p * (np.asarray(B, dtype=np.int64) % ring.p)) for B in parts]
    return make_complex(ring, ranks, diffs)


def _deep_tensor(ring, rng):
    """A tensor of two scrambled interval sums with 7 to 11 degrees, shaped
    like the barcode-deep inputs: one interval spans each factor."""
    factors = []
    for top in (int(t) for t in rng.integers(3, 6, size=2)):
        lengths = (top, top // 2, 1, 0)
        parts = [interval(ring, int(rng.integers(0, top - j + 1)), j) for j in lengths[1:]]
        factors.append(conjugated(direct_sum_all(ring, [interval(ring, 0, top)] + parts), rng))
    return tensor(*factors)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("flavor", ["zpsq", "dual"])
def test_rho_table_matches_composite_rank(flavor, p):
    # the one-sweep table against the product-chain definition, entry by entry
    ring = RingSpec(flavor, p)
    rng = np.random.default_rng(p)
    full = lambda rows, cols: rng.integers(0, p, size=(rows, cols))
    cases = [empty(ring), sphere(ring, 0), sphere(ring, 3), make_complex(ring, [3], [])]
    cases += [
        # d2 = 0: degree 2 finds no pivot, so every row of V_1 stays free
        _minimal_from_parts(ring, [2, 3, 2], [full(2, 3), np.zeros((3, 2))]),
        # B_2 has full row rank: no row of V_1 stays free
        _minimal_from_parts(ring, [3, 2, 3], [full(3, 2), [[1, 0, 1], [0, 1, 1]]]),
        # a zero-rank degree between nonzero ones
        _minimal_from_parts(ring, [2, 3, 0, 2, 3], [full(2, 3), full(3, 0), full(0, 2), full(2, 3)]),
        _deep_tensor(ring, rng),
    ]
    cases += [_minimal_with_mixed_parts(ring, rng) for _ in range(40)]
    for M in cases:
        n_degrees = len(M.ranks)
        expected = {
            (a, b): composite_rank(M, a, b)
            for a in range(n_degrees)
            for b in range(a, n_degrees)
        }
        assert rho_table(M) == expected


def test_rho_sweep_eliminates_each_degree_at_its_own_width(ring, rng, monkeypatch):
    # the columns of B_n that the carried basis already spans are left out:
    # degree n eliminates [B_n basis | B_n[:, free]], ranks[n] columns
    shapes = []
    real = reduce.echelon_mod
    monkeypatch.setattr(reduce, "echelon_mod", lambda M, p: shapes.append(M.shape) or real(M, p))
    for _ in range(3):
        M = _deep_tensor(ring, rng)
        assert 7 <= len(M.ranks) <= 11
        shapes.clear()
        rho_table(M)
        assert shapes == [(M.ranks[n - 1], M.ranks[n]) for n in range(M.top, 0, -1)]


def test_rho_table_of_interval_sum_counts_coverage(ring, rng):
    # the matrices of an unscrambled sum have at most one nonzero per
    # column, so the sweep's eliminations skip every update
    for n_intervals in [1, 3, 12, 40]:
        intervals = []
        for _ in range(n_intervals):
            i, j = (int(v) for v in rng.integers(0, 8, size=2))
            intervals.append((i, j))
        M = interval_sum(ring, intervals)
        expected = {
            (a, b): sum(1 for i, j in intervals if i <= a and b <= i + j)
            for a in range(M.top + 1)
            for b in range(a, M.top + 1)
        }
        assert rho_table(M) == expected


def test_minimal_part_reads_validate_once(ring, rng, monkeypatch):
    # X keeps the verdict of its first validation, and the minimal part
    # minimize builds carries a valid one, so three reads validate X once
    parts = [interval(ring, 0, 2), interval(ring, 1, 1), disk(ring, 2)]
    X = unvalidated(conjugated(direct_sum_all(ring, parts), rng))
    calls = []
    real = complexes.validate
    monkeypatch.setattr(complexes, "validate", lambda Y: calls.append(Y) or real(Y))
    for read in (homology, min_pair, decompose):
        read(X)
    assert len(calls) == 1 and calls[0] is X


def test_barcode_of_scrambled_deep_interval_sum(ring):
    known = Counter(
        {(0, 12): 2, (1, 11): 1, (2, 6): 3, (3, 9): 1, (4, 1): 1, (5, 0): 2, (7, 4): 1, (12, 0): 1}
    )
    parts = [interval(ring, i, j) for i, j in sorted(known.elements())]
    M = conjugated(direct_sum_all(ring, parts), np.random.default_rng(12))
    assert M.top == 12
    assert barcode(M) == known


def test_barcode_examples(ring):
    assert barcode(interval(ring, 0, 2)) == Counter({(0, 2): 1})
    two_spheres = make_complex(ring, [1, 1], [linalg.zeros(ring, 1, 1)])
    assert barcode(two_spheres) == Counter({(0, 0): 1, (1, 0): 1})


def test_decompose_block_input(ring):
    X = direct_sum(disk(ring, 2), interval(ring, 1, 1))
    dec = decompose(X)
    assert dec.intervals == Counter({(1, 1): 1})
    assert dec.disks == Counter({2: 1})


def test_decompose_empty(ring):
    dec = decompose(empty(ring))
    assert dec.intervals == Counter() and dec.disks == Counter()


def test_reconstruct_round_trip(ring, rng):
    for _ in range(20):
        X = bounded_random_complex(ring, rng)
        dec = decompose(X)
        rec = reconstruct(dec, ring)
        assert rec.ranks == X.ranks
        assert homology(rec) == homology(X)
    assert reconstruct(decompose(interval(ring, 0, 2)), ring) == interval(ring, 0, 2)


def test_minimize_idempotent_and_minimal(ring, rng):
    for _ in range(30):
        X = bounded_random_complex(ring, rng)
        result = minimize(X)
        for n in range(1, len(result.minimal.ranks)):
            assert not np.any(result.minimal.d(n).data % ring.p)
        again = minimize(result.minimal)
        assert again.disks == ()
        assert again.minimal == result.minimal


def test_certificates_verify_on_randoms(ring, rng):
    for _ in range(30):
        X = bounded_random_complex(ring, rng)
        assert verify_certificates(X, minimize(X))


def test_decompose_unaffected_by_disk_summands(ring, rng):
    for _ in range(15):
        X = bounded_random_complex(ring, rng)
        n = int(rng.integers(1, 4))
        assert decompose(direct_sum(X, disk(ring, n))).intervals == decompose(X).intervals


def test_decompose_shift_equivariance(ring, rng):
    for _ in range(15):
        X = bounded_random_complex(ring, rng)
        shifted = decompose(shift(X, 1)).intervals
        expected = Counter({(i + 1, j): m for (i, j), m in decompose(X).intervals.items()})
        assert shifted == expected


def test_decompose_additive_on_sums(ring, rng):
    for _ in range(15):
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=2)
        Y = bounded_random_complex(ring, rng, max_len=4, max_rank=2)
        total = decompose(direct_sum(X, Y)).intervals
        assert total == decompose(X).intervals + decompose(Y).intervals


def test_barcode_multiplicities_nonnegative(ring, rng):
    # barcode() raises on a negative count; run it over many minimal inputs
    from chaincell.randgen import random_minimal_complex

    for _ in range(250):
        M = random_minimal_complex(ring, rng, max_degree=4, max_rank=4)
        bc = barcode(M)
        assert all(m >= 0 for m in bc.values())


def test_rank_accounting(ring, rng):
    for _ in range(20):
        X = bounded_random_complex(ring, rng)
        dec = decompose(X)
        for n, r in enumerate(X.ranks):
            covering = sum(
                m for (i, j), m in dec.intervals.items() if i <= n <= i + j
            )
            disks_here = dec.disks.get(n, 0) + dec.disks.get(n + 1, 0)
            assert r == covering + disks_here


def test_rho_table_is_isomorphism_invariant(ring, rng):
    from chaincell.randgen import conjugated, random_minimal_complex

    for _ in range(20):
        M = random_minimal_complex(ring, rng, max_degree=3, max_rank=3)
        scrambled = minimize(conjugated(M, rng)).minimal
        assert rho_table(scrambled) == rho_table(M)


def test_bottom_degree(ring):
    assert bottom_degree(interval(ring, 2, 1)) == 2
    assert bottom_degree(disk(ring, 3)) is None
    assert bottom_degree(empty(ring)) is None
