import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincell import _kernels, linalg
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


# ---------------------------------------------------------------------------
# definition-level reference: RingElement delegates to the packed kernels,
# so both are checked against the rings' definitions, written here without
# the packed carry rule.  zpsq is integer arithmetic mod p**2 on a + p*b;
# dual is pairs (a, b) with (a1, b1)(a2, b2) = (a1 a2, a1 b2 + b1 a2) mod p.


def _reference(flavor, p):
    """(add, neg, mul) on packed values v = a + p*b, from the definitions."""
    if flavor == "zpsq":
        q = p * p
        return (lambda x, y: (x + y) % q), (lambda x: -x % q), (lambda x, y: x * y % q)

    def pack(a, b):
        return a % p + p * (b % p)

    def add(x, y):
        return pack(x % p + y % p, x // p + y // p)

    def neg(x):
        return pack(-(x % p), -(x // p))

    def mul(x, y):
        a1, b1, a2, b2 = x % p, x // p, y % p, y // p
        return pack(a1 * a2, a1 * b2 + b1 * a2)

    return add, neg, mul


def _reference_matmul(A, B, flavor, p):
    add, _, mul = _reference(flavor, p)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for k in range(A.shape[1]):
                acc = add(acc, mul(int(A[i, k]), int(B[k, j])))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("flavor", ["zpsq", "dual"])
def test_kernels_and_elements_match_definitions(p, flavor):
    ring = RingSpec(flavor, p)
    fl = ring.flavor_code
    add, neg, mul = _reference(flavor, p)
    values = range(p * p)
    xs = np.array([x for x in values for _ in values], dtype=np.int64)
    ys = np.array([y for _ in values for y in values], dtype=np.int64)
    want_add = [add(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    want_sub = [add(x, neg(y)) for x, y in zip(xs.tolist(), ys.tolist())]
    want_mul = [mul(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert _kernels.enc_add(xs, ys, p, fl).tolist() == want_add
    assert _kernels.enc_sub(xs, ys, p, fl).tolist() == want_sub
    assert _kernels.enc_mul(xs, ys, p, fl).tolist() == want_mul
    assert _kernels.enc_neg(np.arange(p * p), p, fl).tolist() == [neg(x) for x in values]
    for x, y, s, d, m in zip(xs.tolist(), ys.tolist(), want_add, want_sub, want_mul):
        ex, ey = ring.from_encoded(x), ring.from_encoded(y)
        assert ((ex + ey).encoded, (ex - ey).encoded, (ex * ey).encoded) == (s, d, m)
    for x in values:
        ex = ring.from_encoded(x)
        assert (-ex).encoded == neg(x)
        inverses = [y for y in values if mul(x, y) == 1]  # exhaustive search
        if not inverses:
            with pytest.raises(DomainError):
                ex.inverse()
            continue
        assert [ex.inverse().encoded] == inverses
        assert _kernels.mat_inverse(np.array([[x]]), p, fl).tolist() == [inverses]


@pytest.mark.parametrize("p", [2, 3, 251])
@pytest.mark.parametrize("flavor", ["zpsq", "dual"])
def test_mat_mul_and_inverse_match_definitions(p, flavor):
    fl = RingSpec(flavor, p).flavor_code
    rng = np.random.default_rng(p)
    q = p * p
    for m, k, n in [(1, 1, 1), (4, 5, 3), (3, 0, 2), (6, 6, 6)]:
        A = rng.integers(0, q, size=(m, k))
        B = rng.integers(0, q, size=(k, n))
        assert np.array_equal(_kernels.mat_mul(A, B, p, fl), _reference_matmul(A, B, flavor, p))
        # stacks broadcast from either side, as np.matmul does
        As = rng.integers(0, q, size=(3, m, k))
        Bs = rng.integers(0, q, size=(3, k, n))
        got_left = _kernels.mat_mul(As, B, p, fl)
        got_right = _kernels.mat_mul(A, Bs, p, fl)
        for t in range(3):
            assert np.array_equal(got_left[t], _reference_matmul(As[t], B, flavor, p))
            assert np.array_equal(got_right[t], _reference_matmul(A, Bs[t], flavor, p))
    for n in [1, 3, 6]:
        # unit diagonal plus an m-part and a strictly upper residue: invertible
        A = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        A = A + p * rng.integers(0, p, size=(n, n))
        perm = rng.permutation(n)
        A = A[perm]
        inv = _kernels.mat_inverse(A, p, fl)
        assert np.array_equal(_reference_matmul(A, inv, flavor, p), np.eye(n, dtype=np.int64))
        assert np.array_equal(_reference_matmul(inv, A, flavor, p), np.eye(n, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 251])
@pytest.mark.parametrize("flavor", ["zpsq", "dual"])
@pytest.mark.parametrize("min_inner, float64", [(0, True), (10**9, False)])
def test_mat_mul_float64_and_int64_branches(p, flavor, min_inner, float64, monkeypatch):
    # the size threshold forces one branch; both must match the triple loop
    monkeypatch.setattr(_kernels, "FLOAT64_MIN_INNER", min_inner)
    fl = RingSpec(flavor, p).flavor_code
    rng = np.random.default_rng(p + 7 * fl)
    q = p * p
    for m, k, n in [(1, 1, 1), (4, 5, 3), (3, 0, 2), (2, 20, 3), (5, 40, 4)]:
        assert _kernels._float64_product(k, p) is float64
        A = rng.integers(0, q, size=(m, k))
        A[0] = q - 1  # the largest entries, where a float64 sum would round first
        B = rng.integers(0, q, size=(k, n))
        assert np.array_equal(_kernels.mat_mul(A, B, p, fl), _reference_matmul(A, B, flavor, p))
        As = rng.integers(0, q, size=(3, m, k))
        Bs = rng.integers(0, q, size=(3, k, n))
        got_left = _kernels.mat_mul(As, B, p, fl)
        got_right = _kernels.mat_mul(A, Bs, p, fl)
        assert got_left.dtype == got_right.dtype == np.int64
        for t in range(3):
            assert np.array_equal(got_left[t], _reference_matmul(As[t], B, flavor, p))
            assert np.array_equal(got_right[t], _reference_matmul(A, Bs[t], flavor, p))


@pytest.mark.parametrize("p", [2, 3, 251])
def test_float64_product_bound(p):
    # the largest inner dimension whose sums of products below p**2 stay
    # under 2**53; one more falls back to int64 (checked without an array)
    n = (2**53 - 1) // (p * p - 1) ** 2
    assert n * (p * p - 1) ** 2 < 2**53 <= (n + 1) * (p * p - 1) ** 2
    assert _kernels._float64_product(n, p)
    assert not _kernels._float64_product(n + 1, p)
    assert not _kernels._float64_product(_kernels.FLOAT64_MIN_INNER - 1, p)
