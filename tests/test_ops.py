import numpy as np
import pytest

from chaincell import disk, empty, homology, interval, linalg, make_complex, sphere, validate
from chaincell import complexes, ops, oracle
from chaincell.errors import GuardExceeded, UsageError
from chaincell.ops import (
    ChainMap,
    compose,
    cone,
    cone_inclusion,
    desuspend,
    direct_sum,
    direct_sum_all,
    hom_complex,
    identity_map,
    is_chain_map,
    make_chain_map,
    shift,
    tensor,
    zero_map,
)
from chaincell.oracle import SizeGuard, enumerate_chain_maps
from chaincell.reduce import decompose
from chaincell.ring import RingSpec

from conftest import bounded_random_complex, from_elements

Z4 = RingSpec("zpsq", 2)
Z9 = RingSpec("zpsq", 3)


def _r_in_degree_zero_map(ring):
    """Multiplication by r in degree 0, zero above: interval(0,1) -> sphere."""
    return make_chain_map(
        interval(ring, 0, 1),
        interval(ring, 0, 0),
        [from_elements(ring, [[ring.r()]]), linalg.zeros(ring, 0, 1)],
    )


def test_shift_examples(ring):
    assert shift(sphere(ring, 0), 1) == sphere(ring, 1)
    assert shift(interval(ring, 0, 1), 1) == interval(ring, 1, 1)
    X = bounded_random_complex(ring, np.random.default_rng(5))
    assert shift(X, 0) == X


def test_shift_addition_with_signs(ring, rng):
    for _ in range(20):
        X = bounded_random_complex(ring, rng)
        a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        assert shift(shift(X, a), b) == shift(X, a + b)


def test_desuspend_inverts_shift(ring, rng):
    X = bounded_random_complex(ring, rng)
    assert desuspend(shift(X, 2), 2) == X
    with pytest.raises(UsageError):
        desuspend(sphere(ring, 0), 1)


def test_direct_sum_examples(ring):
    X = interval(ring, 0, 2)
    assert direct_sum(X, empty(ring)) == X
    both = direct_sum(sphere(ring, 0), sphere(ring, 1))
    assert both.ranks == (1, 1)
    assert linalg.is_zero(both.d(1))
    with pytest.raises(UsageError):
        direct_sum(sphere(Z4, 0), sphere(Z9, 0))


def test_direct_sum_homology_additive(ring, rng):
    for _ in range(10):
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=2)
        Y = bounded_random_complex(ring, rng, max_len=4, max_rank=2)
        hs = homology(direct_sum(X, Y))
        hx, hy = homology(X), homology(Y)
        for n, d in enumerate(hs):
            ex = hx[n] if n < len(hx) else None
            ey = hy[n] if n < len(hy) else None
            free = (ex.free_rank if ex else 0) + (ey.free_rank if ey else 0)
            res = (ex.residue_rank if ex else 0) + (ey.residue_rank if ey else 0)
            assert (d.free_rank, d.residue_rank) == (free, res)


def test_cone_of_degree_zero_r_map(ring):
    C = cone(_r_in_degree_zero_map(ring))
    assert C.ranks == (1, 1, 1)
    assert C.d(1) == from_elements(ring, [[ring.r()]])
    assert C.d(2) == from_elements(ring, [[-ring.r()]])
    assert dict(decompose(C).intervals) == {(0, 2): 1}


def test_cone_of_identity_is_acyclic(ring, rng):
    for _ in range(10):
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=2)
        C = cone(identity_map(X))
        assert validate(C) is None
        assert all(d.is_zero() for d in homology(C))


def test_cone_of_map_from_empty(ring):
    X = interval(ring, 1, 2)
    C = cone(zero_map(empty(ring), X))
    assert C == X


def test_cone_rejects_non_chain_map():
    f = ChainMap(
        interval(Z4, 0, 1),
        interval(Z4, 0, 0),
        (linalg.identity(Z4, 1), linalg.zeros(Z4, 0, 1)),
    )
    assert is_chain_map(f) is not None
    with pytest.raises(UsageError):
        cone(f)


def _small_random_pairs_with_maps(ring, rng, count):
    """Seeded (f, X, Y) triples drawn from full chain map enumerations."""
    out = []
    while len(out) < count:
        X = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        Y = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        exponent = sum(X.rank(n) * Y.rank(n) for n in range(3))
        if ring.size**exponent > 4096:
            continue
        maps = enumerate_chain_maps(X, Y, SizeGuard(4096))
        out.append(maps[int(rng.integers(0, len(maps)))])
    return out


def test_cone_inclusion_and_cokernel(ring, rng):
    for f in _small_random_pairs_with_maps(ring, rng, 25):
        X, Y = f.source, f.target
        C = cone(f)
        incl = cone_inclusion(f)
        assert is_chain_map(incl) is None
        shifted = shift(X, 1)
        for n in range(1, max(len(C.ranks), 1)):
            corner = C.d(n).data[Y.rank(n - 1) :, Y.rank(n) :]
            assert linalg.MatrixR(C.ring, corner) == shifted.d(n)


def test_tensor_units_and_shift(ring, rng):
    for _ in range(10):
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=2)
        assert tensor(sphere(ring, 0), X) == X
        assert tensor(X, sphere(ring, 0)) == X
        assert tensor(sphere(ring, 1), X) == shift(X, 1)


def test_tensor_rank_symmetry_and_validity(ring, rng):
    for _ in range(10):
        X = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        Y = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        XY, YX = tensor(X, Y), tensor(Y, X)
        assert validate(XY) is None
        assert XY.ranks == YX.ranks


def test_tensor_of_intervals_pinned(p2_ring):
    # regression value: first computed by the engine, then verified against
    # brute homology and frozen here
    T = tensor(interval(p2_ring, 0, 1), interval(p2_ring, 0, 1))
    assert T.ranks == (1, 2, 1)
    assert dict(decompose(T).intervals) == {(0, 1): 1, (1, 1): 1}


def test_hom_sphere_unit_is_exact(ring, rng):
    for _ in range(10):
        Y = bounded_random_complex(ring, rng, max_len=4, max_rank=2)
        h = hom_complex(sphere(ring, 0), Y)
        assert h.full == Y
        assert h.degree0.free_rank == Y.rank(0)


def test_hom_into_sphere(p2_ring):
    h = hom_complex(interval(p2_ring, 0, 1), sphere(p2_ring, 0))
    assert h.positive.ranks == ()
    assert (h.degree0.free_rank, h.degree0.residue_rank) == (0, 1)
    assert h.d1_image_size == 1


def test_hom_disk_disk_pinned(p2_ring):
    h = hom_complex(disk(p2_ring, 1), disk(p2_ring, 1))
    assert h.positive.ranks == (0, 1)
    assert (h.degree0.free_rank, h.degree0.residue_rank) == (1, 0)
    assert h.d1_image_size == p2_ring.size
    assert h.full is None


def test_hom_positive_part_is_a_complex(ring, rng):
    for _ in range(10):
        X = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        Y = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        exponent = sum(X.rank(n) * Y.rank(n) for n in range(3))
        if ring.size**exponent > 4096:
            continue
        assert validate(hom_complex(X, Y, SizeGuard(1 << 16)).positive) is None


def test_compose_identity_zero(ring, rng):
    for f in _small_random_pairs_with_maps(ring, rng, 5):
        assert compose(identity_map(f.target), f).mats == tuple(
            f.mat(n) for n in range(f.degrees)
        )
        z = compose(f, zero_map(f.source, f.source))
        assert all(linalg.is_zero(z.mat(n)) for n in range(z.degrees))
        assert validate(cone(compose(identity_map(f.target), f))) is None


def test_compose_requires_matching_middle():
    f = identity_map(sphere(Z4, 0))
    g = identity_map(sphere(Z4, 1))
    with pytest.raises(UsageError):
        compose(f, g)


def test_direct_sum_all_of_nothing_is_empty(ring):
    assert direct_sum_all(ring, []) == empty(ring)


def test_refused_hom_builds_nothing(ring, monkeypatch):
    X = direct_sum_all(ring, [interval(ring, 0, 2), disk(ring, 1)])
    Y = direct_sum_all(
        ring, [interval(ring, 0, 3), interval(ring, 1, 1), interval(ring, 0, 2), disk(ring, 2)]
    )
    admitted = hom_complex(interval(ring, 0, 0), interval(ring, 0, 2), SizeGuard(1 << 10))

    def no_build(*args):
        raise AssertionError("hom built its positive part before the guard")

    monkeypatch.setattr(ops, "_hom_diff", no_build)
    with pytest.raises(GuardExceeded):
        hom_complex(X, Y, SizeGuard(ring.size))
    with pytest.raises(GuardExceeded):
        hom_complex(X, Y)
    with pytest.raises(AssertionError):
        hom_complex(interval(ring, 0, 0), interval(ring, 0, 2), SizeGuard(1 << 10))
    monkeypatch.undo()
    assert hom_complex(interval(ring, 0, 0), interval(ring, 0, 2), SizeGuard(1 << 10)) == admitted


def test_hom_validates_each_input_once(monkeypatch):
    ring = RingSpec("zpsq", 2)
    X, Y = interval(ring, 0, 1), interval(ring, 0, 2)
    calls = []
    real = complexes.validate
    monkeypatch.setattr(complexes, "validate", lambda Z: calls.append(Z) or real(Z))
    hom_complex(X, Y)
    assert len(calls) == 2 and calls[0] is X and calls[1] is Y


def test_hom_checks_both_guards_before_enumerating(ring, monkeypatch):
    X = make_complex(ring, [1, 1], [linalg.zeros(ring, 1, 1)])
    W = make_complex(ring, [0, 2, 1], [linalg.zeros(ring, 0, 2), linalg.zeros(ring, 2, 1)])
    # chain maps X -> W: |R|^(1*2); Hom_1 blocks X_0 -> W_1, X_1 -> W_2: |R|^(1*2 + 1*1)

    def no_enumeration(*args):
        raise AssertionError("hom enumerated chain maps before its Hom_1 guard")

    monkeypatch.setattr(oracle, "chain_map_module", no_enumeration)
    with pytest.raises(GuardExceeded, match="hom degree-1 enumeration") as info:
        hom_complex(X, W, SizeGuard(ring.size**3 - 1))
    assert info.value.required == ring.size**3
    with pytest.raises(GuardExceeded, match="chain map enumeration") as info:
        hom_complex(X, W, SizeGuard(ring.size - 1))
    assert info.value.required == ring.size**2
