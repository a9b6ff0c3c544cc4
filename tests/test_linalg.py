import numpy as np
import pytest

from chaincell import linalg
from chaincell.errors import UsageError
from chaincell.linalg import MatrixK, MatrixR
from chaincell.ring import RingSpec

from conftest import reference_kron

Z4 = RingSpec("zpsq", 2)


def _rand_matrix(ring, rng, rows, cols):
    return MatrixR(ring, rng.integers(0, ring.size, size=(rows, cols), dtype=np.int64))


def test_identity_and_zero_products(ring, rng):
    A = _rand_matrix(ring, rng, 3, 4)
    assert linalg.matmul(linalg.identity(ring, 3), A) == A
    empty = linalg.zeros(ring, 4, 0)
    out = linalg.matmul(A, empty)
    assert (out.rows, out.cols) == (3, 0)


def test_r_times_r_matrix_is_zero(ring):
    r_mat = linalg.from_elements(ring, [[ring.r()]])
    assert linalg.is_zero(linalg.matmul(r_mat, r_mat))


def test_matmul_shape_mismatch():
    A = linalg.zeros(Z4, 2, 3)
    B = linalg.zeros(Z4, 2, 3)
    with pytest.raises(UsageError):
        linalg.matmul(A, B)


def test_rank_examples():
    assert linalg.rank_k(MatrixK(2, np.eye(3, dtype=np.int64))) == 3
    assert linalg.rank_k(MatrixK(3, np.zeros((2, 5), dtype=np.int64))) == 0
    assert linalg.rank_k(MatrixK(2, np.array([[1, 1], [1, 1]]))) == 1
    assert linalg.rank_k(MatrixK(5, np.zeros((0, 4), dtype=np.int64))) == 0


def test_rank_submultiplicative(ring, rng):
    for _ in range(200):
        A = MatrixK(ring.p, rng.integers(0, ring.p, size=(3, 4)))
        B = MatrixK(ring.p, rng.integers(0, ring.p, size=(4, 3)))
        prod_rank = linalg.rank_k(linalg.matmul_k(A, B))
        assert prod_rank <= min(linalg.rank_k(A), linalg.rank_k(B))


def test_rank_invariant_under_invertible_ops(ring, rng):
    for _ in range(200):
        A = _rand_matrix(ring, rng, 3, 3)
        from chaincell.randgen import random_invertible

        P = random_invertible(ring, rng, 3)
        Q = random_invertible(ring, rng, 3)
        conj = linalg.apply_basis_change(A, P, Q)
        assert linalg.rank_k(conj.residue()) == linalg.rank_k(A.residue())


def test_is_invertible():
    assert linalg.is_invertible(linalg.identity(Z4, 4))
    r = Z4.r()
    assert not linalg.is_invertible(linalg.from_elements(Z4, [[r]]))
    lower = linalg.from_elements(Z4, [[Z4.one(), Z4.zero()], [r, Z4.one()]])
    assert linalg.is_invertible(lower)
    assert not linalg.is_invertible(linalg.zeros(Z4, 2, 3))


def test_inverse_matrix_round_trip(ring, rng):
    from chaincell.randgen import random_invertible

    for n in [1, 2, 4]:
        for _ in range(20):
            A = random_invertible(ring, rng, n)
            inv = linalg.inverse_matrix(A)
            assert linalg.matmul(A, inv) == linalg.identity(ring, n)
            assert linalg.matmul(inv, A) == linalg.identity(ring, n)


def test_inverse_matrix_refuses_singular_and_non_square(ring, monkeypatch):
    # one elimination decides: no rank pre-check runs before mat_inverse
    monkeypatch.setattr(linalg, "is_invertible", None)
    one, r = ring.one(), ring.r()
    singular = [
        linalg.from_elements(ring, [[r]]),
        linalg.zeros(ring, 3, 3),
        linalg.from_elements(ring, [[one, r], [ring.element(1, 1), r]]),
    ]
    for A in singular + [linalg.zeros(ring, 2, 3), linalg.zeros(ring, 3, 2)]:
        with pytest.raises(UsageError, match="^matrix is not invertible$"):
            linalg.inverse_matrix(A)


def test_kron_agrees_with_entrywise_products(ring):
    a = linalg.from_elements(ring, [[ring.one(), ring.r()]])
    b = linalg.from_elements(ring, [[ring.element(1, 1)], [ring.r()]])
    k = reference_kron(a, b)
    assert (k.rows, k.cols) == (2, 2)
    for i in range(1):
        for j in range(2):
            for s in range(2):
                assert k.entry(i * 2 + s, j) == a.entry(i, j) * b.entry(s, 0)



def test_pairs_are_the_entrywise_split_and_not_shared(ring, rng):
    A = _rand_matrix(ring, rng, 4, 5)
    p = ring.p
    want = [[[int(v % p), int(v // p)] for v in row] for row in A.data]
    got = A.pairs()
    assert got == want
    assert all(type(x) is int for row in got for pair in row for x in pair)
    got[0][0][0] = -1
    assert all(pair[0] != -1 for row in got[1:] for pair in row)
    assert A.pairs() == want
    assert linalg.zeros(ring, 0, 3).pairs() == []
    assert linalg.zeros(ring, 2, 0).pairs() == [[], []]
