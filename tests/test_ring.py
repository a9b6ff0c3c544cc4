import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincell import linalg
from chaincell._kernels import MAX_P
from chaincell.errors import DomainError, UsageError
from chaincell.ring import RingSpec, lift, parse_ring, times_r

from conftest import ALL_RINGS


def test_parse_ring_strings():
    assert parse_ring("zpsq:2") == RingSpec("zpsq", 2)
    assert parse_ring("dual:3") == RingSpec("dual", 3)
    assert str(RingSpec("zpsq", 5)) == "zpsq:5"


@pytest.mark.parametrize(
    "bad", ["zpsq", "zpsq:x", "gauss:2", "zpsq:4", "zpsq:1", "zpsq:257", "zpsq:65537", "dual:257"]
)
def test_bad_ring_specs_rejected(bad):
    with pytest.raises(UsageError):
        parse_ring(bad)


@pytest.mark.parametrize("flavor", ["zpsq", "dual"])
def test_matmul_exact_at_max_p(flavor):
    # in zpsq:65537, [[u, u]] @ [[u], [u]] with u = (p-1) + (p-1)r overflowed
    # int64 and read 0+8r instead of 2+0r, so larger p is refused; at MAX_P
    # a long inner sum of the largest entries stays exact
    ring = RingSpec(flavor, MAX_P)
    u = ring.element(MAX_P - 1, MAX_P - 1)
    n = 4096
    prod = linalg.matmul(
        linalg.from_elements(ring, [[u] * n]), linalg.from_elements(ring, [[u]] * n)
    )
    expected = ring.zero()
    for _ in range(n):
        expected = expected + u * u
    assert prod.entry(0, 0) == expected


def test_r_squares_to_zero(ring):
    r = ring.r()
    assert (r * r).is_zero()


def test_multiplication_carry_rule():
    # 2*2 = 4 = 1 + 1*3 in Z/9, but 4 = 1 in F_3
    zp = RingSpec("zpsq", 3)
    du = RingSpec("dual", 3)
    assert zp.element(2, 0) * zp.element(2, 0) == zp.element(1, 1)
    assert du.element(2, 0) * du.element(2, 0) == du.element(1, 0)


def test_flavors_agree_on_carry_free_products():
    # for p = 2 every a-coordinate is 0 or 1, so no product ever carries
    zp, du = RingSpec("zpsq", 2), RingSpec("dual", 2)
    for x in zp.elements():
        for y in zp.elements():
            xd = du.element(x.a, x.b)
            yd = du.element(y.a, y.b)
            prod_zp = x * y
            prod_du = xd * yd
            assert (prod_zp.a, prod_zp.b) == (prod_du.a, prod_du.b)


def test_unit_iff_not_r_multiple(ring):
    assert ring.element(1, 1).is_unit()
    assert not ring.element(0, 1).is_unit()
    assert not ring.zero().is_unit()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("flavor", ["zpsq", "dual"])
def test_every_element_is_unit_xor_r_times_lift(p, flavor):
    ring = RingSpec(flavor, p)
    r_multiples = {times_r(ring, v).encoded for v in range(p)}
    for x in ring.elements():
        assert x.is_unit() != (x.encoded in r_multiples)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("flavor", ["zpsq", "dual"])
def test_inverse_on_all_units(p, flavor):
    ring = RingSpec(flavor, p)
    one = ring.one()
    for x in ring.elements():
        if x.is_unit():
            assert x * x.inverse() == one
        else:
            with pytest.raises(DomainError):
                x.inverse()


def test_inverse_matches_exhaustive_search():
    # independent oracle: scan all elements for the inverse
    for spec in [RingSpec("zpsq", 2), RingSpec("zpsq", 3), RingSpec("dual", 3)]:
        one = spec.one()
        for x in spec.elements():
            if not x.is_unit():
                continue
            found = [y for y in spec.elements() if x * y == one]
            assert found == [x.inverse()]
    # frozen examples: 3*3 = 9 = 1 in Z/4; 4*7 = 28 = 1 in Z/9; (1+r)(1+2r) = 1
    assert RingSpec("zpsq", 2).element(1, 1).inverse() == RingSpec("zpsq", 2).element(1, 1)
    assert RingSpec("zpsq", 3).element(1, 1).inverse() == RingSpec("zpsq", 3).element(1, 2)
    assert RingSpec("dual", 3).element(1, 1).inverse() == RingSpec("dual", 3).element(1, 2)


def test_residue_lift_times_r(ring):
    assert ring.element(2, 1).residue() == 2 % ring.p
    assert times_r(ring, 1) == ring.element(0, 1)
    assert lift(ring, 0) == ring.zero()
    for v in range(ring.p):
        assert lift(ring, v).residue() == v
        assert times_r(ring, v).residue() == 0
    # r*x = r*y exactly when the residues agree
    r = ring.r()
    for x in ring.elements():
        for y in ring.elements():
            assert (r * x == r * y) == (x.residue() == y.residue())


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(UsageError):
        RingSpec("zpsq", 2).one() + RingSpec("dual", 2).one()
    with pytest.raises(UsageError):
        RingSpec("zpsq", 2).one() * RingSpec("zpsq", 3).one()


_ring_st = st.sampled_from(ALL_RINGS)


@settings(max_examples=200, deadline=None)
@given(_ring_st, st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_ring_axioms(ring, i, j, k):
    x = ring.from_encoded(i % ring.size)
    y = ring.from_encoded(j % ring.size)
    z = ring.from_encoded(k % ring.size)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ring.zero()
    assert x * ring.one() == x
