import itertools
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from chaincell import (
    ChainComplex,
    ModuleDescriptor,
    SizeGuard,
    brute_homology,
    complexes,
    disk,
    empty,
    homology,
    interval,
    lattice,
    linalg,
    make_complex,
    ops,
    oracle,
    reduce,
    sphere,
    validate,
)
from chaincell.complexes import module_from_sizes
from chaincell.errors import DomainError, GuardExceeded, InvalidComplexError
from chaincell.ops import (
    cone,
    desuspend,
    direct_sum,
    direct_sum_all,
    hom_complex,
    identity_map,
    shift,
    tensor,
)
from chaincell.randgen import conjugated
from chaincell.ring import RingSpec

from conftest import bounded_random_complex, entry, from_elements

Z4 = RingSpec("zpsq", 2)

R_MOD = ModuleDescriptor(1, 0)
K_MOD = ModuleDescriptor(0, 1)
ZERO = ModuleDescriptor(0, 0)


def test_sphere_shapes():
    assert sphere(Z4, 0).ranks == (1,)
    assert sphere(Z4, 0).diffs == ()
    assert sphere(Z4, 2).ranks == (0, 0, 1)


def test_disk_shapes():
    d1 = disk(Z4, 1)
    assert d1.ranks == (1, 1)
    assert d1.d(1) == linalg.identity(Z4, 1)
    with pytest.raises(DomainError):
        disk(Z4, 0)


def test_interval_conventions(ring):
    assert interval(ring, 0, 0) == sphere(ring, 0)
    e02 = interval(ring, 0, 2)
    assert e02.ranks == (1, 1, 1)
    r_mat = from_elements(ring, [[ring.r()]])
    assert e02.d(1) == r_mat and e02.d(2) == r_mat
    e11 = interval(ring, 1, 1)
    assert e11.ranks == (0, 1, 1)
    assert e11.d(2) == from_elements(ring, [[-ring.r()]])


def test_validate_examples(ring):
    assert validate(interval(ring, 0, 3)) is None
    one = linalg.identity(ring, 1)
    bad = ChainComplex(ring, (1, 1, 1), (one, one))
    assert "degree 1" in validate(bad)
    assert validate(ChainComplex(ring, (3,), ())) is None


def test_validate_shape_diagnostics():
    wrong = ChainComplex(Z4, (1, 2), (linalg.identity(Z4, 1),))
    assert "shape" in validate(wrong)
    missing = ChainComplex(Z4, (1, 1), ())
    assert "differentials" in validate(missing)


def test_make_complex_trims_and_checks():
    X = make_complex(Z4, [1, 0, 0], [linalg.zeros(Z4, 1, 0), linalg.zeros(Z4, 0, 0)])
    assert X == sphere(Z4, 0)
    assert make_complex(Z4, [0, 0], [linalg.zeros(Z4, 0, 0)]) == empty(Z4)
    with pytest.raises(InvalidComplexError):
        make_complex(Z4, [1, 1, 1], [linalg.identity(Z4, 1), linalg.identity(Z4, 1)])


def test_all_m_differentials_always_valid(ring, rng):
    # structural consequence of r*r = 0
    for _ in range(50):
        ranks = [int(rng.integers(0, 4)) for _ in range(4)]
        diffs = [
            linalg.MatrixR(
                ring,
                ring.p * rng.integers(0, ring.p, size=(ranks[k], ranks[k + 1]), dtype=np.int64),
            )
            for k in range(3)
        ]
        assert validate(make_complex(ring, ranks, diffs, check=False)) is None


def _full_product_verdict(X):
    """validate's d*d check with every product formed."""
    for n in range(1, len(X.ranks) - 1):
        if not linalg.is_zero(linalg.matmul(X.d(n), X.d(n + 1))):
            return f"degree {n}: d{n}*d{n + 1} != 0"
    return None


def test_validate_skip_in_m_matches_full_product(ring, rng):
    # validate skips d_n*d_{n+1} when both have every entry in m; replacing
    # differentials of valid complexes with m-only or arbitrary matrices
    # gives valid and invalid inputs that take both paths
    seen = Counter()
    for _ in range(200):
        X = bounded_random_complex(ring, rng)
        diffs = list(X.diffs)
        for k, d in enumerate(diffs):
            choice = int(rng.integers(0, 3))
            if choice == 1:
                b = rng.integers(0, ring.p, size=(d.rows, d.cols), dtype=np.int64)
                diffs[k] = linalg.MatrixR(ring, ring.p * b)
            elif choice == 2:
                e = rng.integers(0, ring.size, size=(d.rows, d.cols), dtype=np.int64)
                diffs[k] = linalg.MatrixR(ring, e)
        Y = make_complex(ring, X.ranks, diffs, check=False)
        verdict = validate(Y)
        assert verdict == _full_product_verdict(Y)
        seen[verdict is None] += 1
    assert seen[True] and seen[False]


def test_homology_examples(p2_ring):
    assert homology(interval(p2_ring, 0, 2)) == [K_MOD, ZERO, K_MOD]
    assert homology(disk(p2_ring, 1)) == [ZERO, ZERO]
    assert homology(sphere(p2_ring, 0)) == [R_MOD]
    assert homology(empty(p2_ring)) == []


def test_brute_homology_examples(p2_ring):
    assert brute_homology(sphere(p2_ring, 0)) == [R_MOD]
    assert brute_homology(interval(p2_ring, 0, 1)) == [K_MOD, K_MOD]
    assert brute_homology(disk(p2_ring, 1)) == [ZERO, ZERO]


def test_homology_of_intervals(ring):
    for i in range(5):
        for j in range(5 - i):
            hs = homology(interval(ring, i, j))
            for n, d in enumerate(hs):
                if j == 0:
                    expected = R_MOD if n == i else ZERO
                else:
                    expected = K_MOD if n in (i, i + j) else ZERO
                assert d == expected, (i, j, n)


def test_homology_matches_brute_on_randoms(ring, rng):
    done = 0
    while done < 60:
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=3)
        if X.total_rank > 4:
            continue
        assert homology(X) == brute_homology(X)
        done += 1


def test_homology_ignores_disk_summands(ring, rng):
    for _ in range(20):
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=3)
        n = int(rng.integers(1, 4))
        padded = direct_sum(X, disk(ring, n))
        hx = homology(X)
        hp = homology(padded)
        assert hp[: len(hx)] == hx
        assert all(d == ZERO for d in hp[len(hx) :])


def test_brute_homology_guard_refusal():
    big = make_complex(Z4, [8], [])
    with pytest.raises(GuardExceeded) as exc_info:
        brute_homology(big, SizeGuard(100))
    assert exc_info.value.required == 4**8
    # a count above 2**64 is decided by its exponents, never built
    huge = make_complex(Z4, [2, 10**4], [linalg.zeros(Z4, 2, 10**4)])
    with pytest.raises(GuardExceeded, match=r"needs at least 4\^10000 candidates") as exc_info:
        brute_homology(huge, SizeGuard(100))
    assert exc_info.value.required is None
    with pytest.raises(GuardExceeded, match=r"needs 32 candidates") as exc_info:
        brute_homology(make_complex(Z4, [2, 2], [linalg.zeros(Z4, 2, 2)]), SizeGuard(31))
    assert exc_info.value.required == 32
    assert brute_homology(make_complex(Z4, [2, 2], [linalg.zeros(Z4, 2, 2)]), SizeGuard(32))
    # the empty complex enumerates nothing, so no guard refuses it
    assert brute_homology(empty(Z4), SizeGuard(0)) == []


def test_brute_homology_and_chain_maps_share_one_guard(monkeypatch):
    # both read the one SizeGuard, refuse in one format, and admit
    # exactly up to its budget
    X = make_complex(Z4, [3], [])
    with pytest.raises(GuardExceeded) as brute:
        brute_homology(X, SizeGuard(4**3 - 1))
    Y = make_complex(Z4, [1], [])
    with pytest.raises(GuardExceeded) as maps:
        oracle.chain_map_module(X, Y, SizeGuard(4**3 - 1))
    assert str(brute.value) == (
        f"brute homology needs 4^3 candidates; guard allows {4**3 - 1} (raise the guard to proceed)"
    )
    assert str(maps.value) == str(brute.value).replace("brute homology", "chain map enumeration")
    assert brute.value.required == maps.value.required == 4**3
    assert brute_homology(X, SizeGuard(4**3)) == [ModuleDescriptor(3, 0)]
    assert oracle.chain_map_module(X, Y, SizeGuard(4**3)) == ModuleDescriptor(3, 0)
    # and both check their default budget through that one class
    seen = []
    check = SizeGuard.check

    def spy(self, what, base, *exponents):
        seen.append(what)
        return check(self, what, base, *exponents)

    monkeypatch.setattr(SizeGuard, "check", spy)
    brute_homology(X)
    oracle.chain_map_module(X, Y)
    assert seen == ["brute homology", "chain map enumeration"]


def test_interval_sum_counts_its_cells_before_building(monkeypatch):
    # four intervals (0, 1) write a 4 x 4 d_1: refused above a cap of 10,
    # through reconstruct too
    monkeypatch.setattr(complexes, "MAX_CELLS", 10)
    dec = reduce.Decomposition(Counter({(0, 1): 4}), Counter(), None)
    for build in (lambda: complexes.interval_sum(Z4, [(0, 1)] * 4), lambda: reduce.reconstruct(dec, Z4)):
        with pytest.raises(GuardExceeded, match="16 cells exceed the cap of 10") as info:
            build()
        assert info.value.required == 16


def test_invalid_input_rejected_by_homology():
    one = linalg.identity(Z4, 1)
    bad = ChainComplex(Z4, (1, 1, 1), (one, one))
    with pytest.raises(InvalidComplexError):
        homology(bad)


def test_module_descriptor_str():
    assert str(ZERO) == "0"
    assert str(ModuleDescriptor(2, 1)) == "R^2 + k"
    assert str(R_MOD) == "R"


def naive_brute_homology(X):
    """H_n from Python sets of tuples, one ring operation at a time."""
    ring = X.ring
    elements = list(ring.elements())

    def apply(d, v):  # d @ v as a tuple of encoded entries
        return tuple(
            sum((entry(d, i, j) * v[j] for j in range(d.cols)), ring.zero()).encoded
            for i in range(d.rows)
        )

    out = []
    for n in range(len(X.ranks)):
        below = (0,) * X.rank(n - 1)
        cycles = [v for v in itertools.product(elements, repeat=X.rank(n)) if apply(X.d(n), v) == below]
        boundaries = {apply(X.d(n + 1), u) for u in itertools.product(elements, repeat=X.rank(n + 1))}
        killed = [v for v in cycles if tuple((ring.r() * x).encoded for x in v) in boundaries]
        out.append(module_from_sizes(ring.p, len(cycles) // len(boundaries), len(killed) // len(boundaries)))
    return out


def test_brute_homology_matches_naive(ring, rng):
    r = from_elements(ring, [[ring.r()]])
    zero_top = ChainComplex(ring, (1, 1, 0), (r, linalg.zeros(ring, 1, 0)))
    assert validate(zero_top) is None
    cases = [
        empty(ring),
        sphere(ring, 0),
        zero_top,
        direct_sum(sphere(ring, 0), sphere(ring, 2)),  # ranks 1, 0, 1
        direct_sum(interval(ring, 0, 1), interval(ring, 3, 0)),  # ranks 1, 1, 0, 1
        direct_sum(interval(ring, 0, 2), disk(ring, 1)),
    ]
    while len(cases) < 14:
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=3)
        if X.total_rank <= 4:
            cases.append(X)
    for X in cases:
        assert brute_homology(X) == naive_brute_homology(X), X


# ---------------------------------------------------------------------------
# frozen values, kept verdicts, and the refusal of invalid complexes


def test_complexes_and_matrices_are_frozen_and_unhashable():
    X = interval(Z4, 0, 1)
    for value, field in ((X, "ranks"), (X, "diffs"), (X, "ring"), (X.d(1), "data")):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, getattr(value, field))
    for value in (X, empty(Z4), X.d(1), linalg.zeros(Z4, 0, 0)):
        with pytest.raises(TypeError):
            hash(value)


def test_complexes_built_from_valid_ones_are_not_validated_again(monkeypatch, rng):
    # interval_sum builds from integers; the rest from complexes already
    # carrying a valid verdict, so reading any of them validates nothing
    calls = []
    real = complexes.validate
    monkeypatch.setattr(complexes, "validate", lambda Y: calls.append(Y) or real(Y))
    X, Y = interval(Z4, 0, 1), disk(Z4, 2)
    h = hom_complex(sphere(Z4, 0), X)  # a source in degree 0: the full complex too
    derived = [
        X, Y, direct_sum_all(Z4, [X, Y]), shift(X, 2), desuspend(shift(X, 1), 1), tensor(X, Y),
        conjugated(Y, rng), reduce.minimize(Y).minimal, h.positive, h.full,
    ]
    for Z in derived:
        reduce.homology(Z)
    assert calls == []
    # a cone is validated exactly once, as its d*d check is the chain map check
    C = cone(identity_map(X))
    reduce.homology(C)
    assert len(calls) == 1 and calls[0] is C
    calls.clear()
    # one input of unknown verdict leaves what is built from it unknown
    Z = direct_sum_all(Z4, [X, make_complex(Z4, [1], [], check=False)])
    reduce.homology(Z)
    assert len(calls) == 1 and calls[0] is Z


def _forced_bad():
    """A complex built unchecked, with d1*d2 != 0 and every shape right."""
    unit = linalg.MatrixR(Z4, np.array([[1]]))
    return make_complex(Z4, [1, 1, 1], [unit, unit], check=False)


def _public_entries():
    guard = oracle.SizeGuard(1 << 12)
    single = {
        "minimize": reduce.minimize,
        "decompose": reduce.decompose,
        "homology": reduce.homology,
        "bottom_degree": reduce.bottom_degree,
        "rho_table": reduce.rho_table,
        "barcode": reduce.barcode,
        "composite_rank": lambda Z: reduce.composite_rank(Z, 0, 0),
        "min_pair": lattice.min_pair,
        "brute_homology": brute_homology,
    }
    pair = {
        "is_cellular": lattice.is_cellular,
        "is_acyclic_over": lattice.is_acyclic_over,
        "chain_map_module": lambda X, Y: oracle.chain_map_module(X, Y, guard),
        "hom_boundary_image_size": lambda X, Y: oracle.hom_boundary_image_size(X, Y, guard),
        "enumerate_chain_maps": lambda X, Y: oracle.enumerate_chain_maps(X, Y, guard),
        "exists_h0_epi": lambda X, Y: oracle.exists_h0_epi(X, Y, guard),
        "cross_check": lambda X, Y: oracle.cross_check(X, Y, guard),
        "hom_complex": lambda X, Y: ops.hom_complex(X, Y, guard),
        "extension": lambda X, Y: ops.extension(X, Y, {}),
        "cone": lambda X, Y: ops.cone(ops.zero_map(X, Y)),
    }
    # the valid partner is contractible, so a verdict that reads only
    # its side would return early
    partner = disk(Z4, 1)
    out = dict(single)
    for name, fn in pair.items():
        out[f"{name}(bad, valid)"] = lambda Z, fn=fn: fn(Z, partner)
        out[f"{name}(valid, bad)"] = lambda Z, fn=fn: fn(partner, Z)
    return out


ENTRIES = _public_entries()


@pytest.mark.parametrize("build", ["direct", "direct_sum_all", "shift", "tensor"])
@pytest.mark.parametrize("name", list(ENTRIES))
def test_every_public_entry_refuses_an_invalid_complex(name, build):
    bad, valid = _forced_bad(), interval(Z4, 0, 1)
    Z = {
        "direct": lambda: bad,
        "direct_sum_all": lambda: direct_sum_all(Z4, [valid, bad]),
        "shift": lambda: shift(bad, 1),
        "tensor": lambda: tensor(valid, bad),
    }[build]()
    with pytest.raises(InvalidComplexError, match=r"^degree \d+: d\d+\*d\d+ != 0$"):
        ENTRIES[name](Z)
