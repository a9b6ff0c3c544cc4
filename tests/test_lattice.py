import itertools

import pytest

from chaincell import disk, empty, homology, interval, sphere
from chaincell.errors import UsageError
from chaincell.lattice import Verdict, generator_relation, is_acyclic_over, is_cellular, min_pair
from chaincell.ops import direct_sum, direct_sum_all, shift
from chaincell.randgen import conjugated
from chaincell.reduce import bottom_degree, decompose, minimize
from chaincell.ring import RingSpec

from conftest import bounded_random_complex

Z4 = RingSpec("zpsq", 2)


def test_min_pair_examples(ring):
    assert min_pair(direct_sum(interval(ring, 0, 2), interval(ring, 1, 0))) == (0, 2)
    assert min_pair(disk(ring, 1)) is None
    assert min_pair(direct_sum(interval(ring, 1, 0), interval(ring, 1, 3))) == (1, 0)


def test_worked_example_grid(ring):
    assert is_cellular(interval(ring, 0, 2), interval(ring, 0, 1)).holds
    assert not is_cellular(interval(ring, 0, 0), interval(ring, 0, 1)).holds
    assert is_acyclic_over(interval(ring, 0, 0), interval(ring, 0, 1)).holds
    assert is_cellular(disk(ring, 1), sphere(ring, 1)).holds
    assert not is_cellular(sphere(ring, 0), sphere(ring, 1)).holds


def test_generator_relation():
    assert generator_relation(0, 1, 0, 2)
    assert not generator_relation(1, 0, 0, 5)
    assert generator_relation(0, 2, 0, 2)
    with pytest.raises(UsageError):
        generator_relation(-1, 0, 0, 0)


def test_generator_relation_matches_is_cellular(ring):
    for i, j, i2, j2 in itertools.product(range(3), repeat=4):
        expected = generator_relation(i, j, i2, j2)
        verdict = is_cellular(interval(ring, i2, j2), interval(ring, i, j))
        assert verdict.holds == expected, (i, j, i2, j2)


def test_verdict_serialization():
    v = is_cellular(interval(Z4, 0, 2), interval(Z4, 0, 1))
    assert v.to_json() == {
        "holds": True,
        "rule": "lex",
        "minPairX": [0, 2],
        "minPairA": [0, 1],
    }


def test_everything_is_sphere0_cellular(ring, rng):
    for _ in range(40):
        X = bounded_random_complex(ring, rng)
        assert is_cellular(X, sphere(ring, 0)).holds


def test_sphere1_class_is_vanishing_h0(ring, rng):
    s1 = sphere(ring, 1)
    for _ in range(40):
        X = bounded_random_complex(ring, rng)
        h0_zero = X.is_empty() or homology(X)[0].is_zero()
        assert is_cellular(X, s1).holds == h0_zero


def test_acyclic_complexes_cellular_over_everything(ring, rng):
    for _ in range(20):
        disks = [disk(ring, int(rng.integers(1, 4))) for _ in range(int(rng.integers(0, 3)))]
        P = direct_sum_all(ring, disks)
        A = bounded_random_complex(ring, rng)
        assert is_cellular(P, A).holds


def test_shift_laws(ring, rng):
    for _ in range(40):
        X = bounded_random_complex(ring, rng)
        A = bounded_random_complex(ring, rng)
        n = int(rng.integers(0, 3))
        if is_cellular(X, A).holds:
            assert is_cellular(shift(X, n), A).holds
        assert (
            is_cellular(shift(X, 1), shift(A, 1)).holds == is_cellular(X, A).holds
        )


def test_generator_order_total_and_transitive(ring):
    gens = [(i, j) for i in range(5) for j in range(5 - i)]
    for a, b in itertools.product(gens, repeat=2):
        fwd = generator_relation(*a, *b)
        bwd = generator_relation(*b, *a)
        assert fwd or bwd  # total
    for a, b, c in itertools.product(gens, repeat=3):
        if generator_relation(*a, *b) and generator_relation(*b, *c):
            assert generator_relation(*a, *c)


def test_cellular_implies_acyclic_and_strictness(ring, rng):
    for _ in range(40):
        X = bounded_random_complex(ring, rng)
        A = bounded_random_complex(ring, rng)
        if is_cellular(X, A).holds:
            assert is_acyclic_over(X, A).holds
    # the inclusion is strict: X > A but not X >> A
    X, A = interval(ring, 0, 0), interval(ring, 0, 1)
    assert is_acyclic_over(X, A).holds and not is_cellular(X, A).holds


def test_summand_selection_monotone(ring, rng):
    # dropping summands can only move the minimal pair up in lex order
    for _ in range(20):
        X = bounded_random_complex(ring, rng)
        dec = decompose(X)
        # both barcode readers bypass decompose; they must agree with it
        assert min_pair(X) == min(dec.intervals, default=None)
        assert bottom_degree(X) == (min_pair(X) or (None,))[0]
        pieces = dec.interval_list()
        if not pieces:
            continue
        keep = [p for p in pieces if rng.integers(0, 2)] or [pieces[-1]]
        sub = direct_sum_all(ring, [interval(ring, i, j) for i, j in keep])
        assert min_pair(sub) >= min_pair(X)
        A = bounded_random_complex(ring, rng)
        if is_cellular(X, A).holds:
            assert is_cellular(sub, A).holds or min_pair(sub) is None


def barcode_min_pair(X):
    """The lex-least interval read off the whole barcode."""
    return min(minimize(X).barcode(), default=None)


def barcode_acyclic_json(X, A):
    """``is_acyclic_over(X, A).to_json()`` read off both whole barcodes."""
    mx, ma = barcode_min_pair(X), barcode_min_pair(A)
    if mx is None:
        return Verdict(True, "x-contractible").to_json()
    if ma is None:
        return Verdict(False, "a-contractible", beta_x=mx[0]).to_json()
    return Verdict(mx[0] >= ma[0], "bottom", beta_x=mx[0], beta_a=ma[0]).to_json()


def _scrambled_intervals(ring, rng):
    """Several intervals, often sharing a start at different lengths."""
    starts = rng.integers(0, 3, size=rng.integers(1, 7))
    pieces = [interval(ring, int(i), int(rng.integers(0, 5))) for i in starts]
    return conjugated(direct_sum_all(ring, pieces), rng)


def test_min_pair_reads_one_row_as_the_barcode_does(ring, rng):
    cases = [empty(ring), disk(ring, 2), sphere(ring, 3)]
    cases += [bounded_random_complex(ring, rng, max_len=7) for _ in range(30)]
    cases += [_scrambled_intervals(ring, rng) for _ in range(30)]
    for X in cases:
        assert min_pair(X) == barcode_min_pair(X), X
    for X, A in itertools.product(cases[::4], repeat=2):
        assert is_acyclic_over(X, A).to_json() == barcode_acyclic_json(X, A)


def test_contractible_edge_semantics(ring):
    assert is_cellular(empty(ring), interval(ring, 3, 2)).holds
    assert is_cellular(disk(ring, 2), empty(ring)).holds
    assert not is_cellular(sphere(ring, 0), disk(ring, 1)).holds
    assert is_acyclic_over(empty(ring), empty(ring)).holds
    assert not is_acyclic_over(sphere(ring, 0), empty(ring)).holds


def test_ring_mismatch_rejected():
    with pytest.raises(UsageError):
        is_cellular(sphere(Z4, 0), sphere(RingSpec("dual", 2), 0))
