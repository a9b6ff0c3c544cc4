"""The one-pass F_p elimination against the per-pivot loop it replaced.

``_reference_echelon`` reduces the whole matrix mod p and swaps whole
rows at every pivot; ``_kernels.echelon_mod`` must return the same
rank, pivot rows, pivot columns and reduced matrix, byte for byte,
also on matrices with at most one nonzero per column, where it skips
every update, and on matrices whose later columns it never visits,
because after two columns without a pivot they vanish mod p on every
row not yet a pivot row.  With ``carry`` it must return the reference's
elimination of [M | I], pivots limited to M's columns, read on M's
columns and on the identity columns of the pivot rows.
"""

import numpy as np
import pytest

from chaincell import _kernels
from chaincell._kernels import echelon_mod, lift_inverse, mat_inverse, rank_mod
from chaincell.errors import UsageError

PRIMES = [2, 3, 5, 251]


def _reference_echelon(M, p, limit=None):
    A = np.ascontiguousarray(M % p, dtype=np.int64).copy()
    rows, cols = A.shape
    order = list(range(rows))
    pivot_cols = []
    r = 0
    for c in range(cols if limit is None else limit):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
            order[r], order[piv] = order[piv], order[r]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
        pivot_cols.append(c)
        r += 1
    return r, np.array(order[:r], dtype=np.intp), np.array(pivot_cols, dtype=np.intp), A


def _reference_carried(M, p):
    """The reference elimination of [M | I] with pivots among M's columns."""
    rows, cols = M.shape
    return _reference_echelon(np.hstack([M, np.eye(rows, dtype=np.int64)]), p, limit=cols)


def _assert_same_echelon(M, p, carry=False):
    got = echelon_mod(M, p, carry)
    want = _reference_carried(M, p) if carry else _reference_echelon(M, p)
    if carry:  # M's columns, then the identity columns of the pivot rows
        cols = M.shape[1]
        want = want[:3] + (np.ascontiguousarray(want[3][:, np.r_[:cols, cols + want[1]]]),)
    assert got[0] == want[0] == rank_mod(M, p)
    for g, w in zip(got[1:], want[1:]):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()
    return got


def _random_rank(rng, p, rows, cols, rank):
    return rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_matches_reference_on_random_matrices(p):
    rng = np.random.default_rng(p)
    for _ in range(60):
        rows, cols = rng.integers(1, 25, size=2)
        _assert_same_echelon(rng.integers(0, p, size=(rows, cols)), p)  # mostly full rank
        rank = int(rng.integers(0, min(rows, cols) + 1))
        _assert_same_echelon(_random_rank(rng, p, rows, cols, rank), p)


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_matches_reference_with_zero_columns(p):
    rng = np.random.default_rng(100 + p)
    for _ in range(40):
        rows, cols = rng.integers(1, 20, size=2)
        M = _random_rank(rng, p, rows, cols, int(rng.integers(0, min(rows, cols) + 1)))
        M[:, rng.random(cols) < 0.6] = 0
        M[:, rng.random(cols) < 0.2] *= p  # zero mod p, but not zero
        _assert_same_echelon(M, p)


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_matches_reference_on_unreduced_entries(p):
    rng = np.random.default_rng(200 + p)
    for _ in range(40):
        rows, cols = rng.integers(1, 20, size=2)
        M = rng.integers(-3 * p * p, 3 * p * p, size=(rows, cols))
        _assert_same_echelon(M, p)
        rank = int(rng.integers(0, min(rows, cols) + 1))
        _assert_same_echelon(_random_rank(rng, p, rows, cols, rank) - p * p, p)
    # past FLOOR_MIN_ENTRIES the entry copy and the final reduction divide by floor
    for rows, cols in [(40, 30), (30, 40), (64, 64), (17, 31)]:
        assert rows * cols >= _kernels.FLOOR_MIN_ENTRIES
        M = rng.integers(-3 * p * p, 3 * p * p, size=(rows, cols))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        low = _random_rank(rng, p, rows, cols, rank) - p * p * rng.integers(1, 4, size=(rows, cols))
        for carry in (False, True):
            _assert_same_echelon(M, p, carry)
            _assert_same_echelon(low, p, carry)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
def test_echelon_matches_reference_on_empty_shapes(p, shape):
    rank, rows, cols, reduced = _assert_same_echelon(np.zeros(shape, dtype=np.int64), p)
    assert (rank, rows.size, cols.size, reduced.shape) == (0, 0, 0, shape)


def test_echelon_matches_reference_dense_large():
    # 300 pivots of lazy growth at p = 251, full and one short of full rank
    p = 251
    rng = np.random.default_rng(300)
    M = rng.integers(0, p, size=(300, 300))
    assert _assert_same_echelon(M, p)[0] == 300
    M[:, -1] = M[:, :-1] @ rng.integers(0, p, size=299) % p
    assert _assert_same_echelon(M, p)[0] == 299


@pytest.mark.parametrize("p", PRIMES)
def test_mat_inverse_elimination_of_A_and_identity(p):
    # mat_inverse reads the residue inverse off the elimination of [A | I]
    rng = np.random.default_rng(400 + p)
    for n in [1, 2, 5, 12]:
        while True:
            A = rng.integers(0, p * p, size=(n, n))
            if _reference_echelon(A, p)[0] == n:
                break
        eye = np.eye(n, dtype=np.int64)
        rank, _, pivot_cols, reduced = _assert_same_echelon(np.hstack([A, eye]), p)
        assert rank == n and pivot_cols.tolist() == list(range(n))
        assert np.array_equal(reduced[:, :n], eye)
        assert np.array_equal(A @ reduced[:, n:] % p, eye)
        for flavor in (_kernels.FLAVOR_DUAL, _kernels.FLAVOR_ZPSQ):
            assert np.array_equal(mat_inverse(A, p, flavor) % p, reduced[:, n:])
        singular = A.copy()
        singular[-1] = singular[0] * (p - 1) % p
        _assert_same_echelon(np.hstack([singular, eye]), p)
        if n > 1:
            with pytest.raises(UsageError, match="singular"):
                mat_inverse(singular, p, _kernels.FLAVOR_ZPSQ)


def _monomial(rng, p, rows, cols):
    """At most one nonzero mod p per column: zero columns, rows hit more
    than once, unit entries with r-parts and zero entries that are not 0."""
    M = p * rng.integers(-p, p, size=(rows, cols))  # zero mod p, not zero
    hit = np.flatnonzero(rng.random(cols) < 0.7)
    M[rng.integers(0, rows, size=len(hit)), hit] += rng.integers(1, p, size=len(hit))
    return M


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_matches_reference_on_monomial_matrices(p):
    rng = np.random.default_rng(500 + p)
    shapes = [(7, 20), (20, 7), (8, 8), (8, 40), (40, 8), (3, 3), (1, 9), (30, 30)]
    shapes += [tuple(rng.integers(1, 40, size=2)) for _ in range(30)]
    for rows, cols in shapes:
        M = _monomial(rng, p, rows, cols)
        _assert_same_echelon(M, p)
        _assert_same_echelon(p * M, p)  # zero mod p throughout
        _assert_same_echelon(M[rng.integers(0, rows, size=rows)], p)  # repeated rows


def _later_pivots_hit_earlier_rows(rng, p, n, cols):
    """Row echelon shape, rows shuffled: each pivot column's other
    nonzeros lie only in the rows that hold earlier pivots."""
    M = np.zeros((n, cols), dtype=np.int64)
    pivots = np.sort(rng.choice(cols, size=n, replace=False))
    for k, c in enumerate(pivots):
        M[k, c] = rng.integers(1, p)
        M[:k, c] = rng.integers(0, p, size=k) * (rng.random(k) < 0.5)
        M[: k + 1, c + 1 : pivots[k + 1] if k + 1 < n else cols] = rng.integers(0, p, size=(k + 1, 1))
    return M[rng.permutation(n)] + p * rng.integers(0, p, size=(n, cols))


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_updates_earlier_pivot_rows(p):
    # a pivot with no nonzero below it but some in earlier pivot rows
    # still needs the update that clears them
    assert echelon_mod(np.array([[1, 1], [0, 1]]), p)[3].tolist() == [[1, 0], [0, 1]]
    rng = np.random.default_rng(600 + p)
    for n, cols in [(2, 3), (5, 5), (7, 12), (8, 8), (12, 30), (20, 20)]:
        for _ in range(5):
            M = _later_pivots_hit_earlier_rows(rng, p, n, cols)
            assert _assert_same_echelon(M, p)[0] == n
            _assert_same_echelon(M.T.copy(), p)


@pytest.mark.parametrize("p", PRIMES)
def test_carried_elimination_gives_the_residue_inverse(p):
    # D's pivots and reduced form as alone; on the pivot rows the carried
    # block of [D | I] is P^-1 mod p on columns I (P = D[I][:, J]) and zero
    # on the other identity columns; lifted, it is mat_inverse's output
    rng = np.random.default_rng(700 + p)
    shapes = [(6, 6), (12, 5), (5, 12), (1, 9), (9, 1), (20, 20), (3, 30), (30, 3)]
    shapes += [tuple(rng.integers(1, 25, size=2)) for _ in range(24)]
    for rows, cols in shapes:
        rank = int(rng.integers(0, min(rows, cols) + 1))
        residues = (rng.integers(0, p, size=(rows, cols)), _random_rank(rng, p, rows, cols, rank))
        for residue in residues:
            D = residue + p * rng.integers(0, p, size=(rows, cols))
            s, I, J, reduced = _assert_same_echelon(D, p, carry=True)
            alone = echelon_mod(D, p)
            assert s == alone[0] and reduced.shape == (rows, cols + s)
            assert I.tobytes() == alone[1].tobytes() and J.tobytes() == alone[2].tobytes()
            assert np.array_equal(reduced[:, :cols], alone[3])
            others = cols + np.setdiff1d(np.arange(rows), I)  # identity columns of non-pivot rows
            assert not _reference_carried(D, p)[3][:s, others].any()
            P = D[I][:, J]
            assert np.array_equal(P @ reduced[:s, cols:] % p, np.eye(s, dtype=np.int64))
            for flavor in (_kernels.FLAVOR_DUAL, _kernels.FLAVOR_ZPSQ):
                lifted = lift_inverse(P, reduced[:s, cols:], p, flavor)
                want = mat_inverse(P, p, flavor)
                assert (lifted.dtype, lifted.shape) == (want.dtype, want.shape)
                assert lifted.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [5, 511, 512, 513, 2000])
def test_residue_is_the_remainder_on_both_sides_of_the_switch(n):
    rng = np.random.default_rng(n)
    for p in PRIMES:
        x = rng.integers(-4 * p**4, 4 * p**4, size=n)
        got = _kernels.residue(x, p)
        assert (got.dtype, got.tobytes()) == (x.dtype, (x % p).tobytes())


def _stop_tests(monkeypatch, M, p, carry):
    """The early-stop tests of one elimination that matches the reference:
    (shape, whether some entry is a unit) of each ``residue`` call between
    the entry copy and the final reduction."""
    calls = []
    real = _kernels.residue

    def spy(x, q):
        out = real(x, q)
        calls.append((x.shape, bool(out.any())))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "residue", spy)
        echelon_mod(M, p, carry)
    return _assert_same_echelon(M, p, carry), calls[1:-1]


def _in_rows(rng, p, E, rows):
    """A @ E for a random A with independent columns mod p, rows shuffled,
    entries unreduced."""
    k = E.shape[0]
    A = np.vstack([np.eye(k, dtype=np.int64), rng.integers(0, p, size=(rows - k, k))])
    M = A[rng.permutation(rows)] @ E % p
    return M + p * rng.integers(-p, p, size=M.shape)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("carry", [False, True])
def test_echelon_stops_once_the_rank_is_reached(p, carry, monkeypatch):
    # pivots in columns 0-2, then columns whose pivot-row entries are
    # nonzero but which vanish on the free rows: after columns 3 and 4
    # one test covers the rest and ends the loop
    rng = np.random.default_rng(800 + p)
    for rows, cols in [(6, 9), (8, 30), (3, 12), (20, 40)]:
        E = np.hstack([np.eye(3, dtype=np.int64), rng.integers(1, p, size=(3, cols - 3))])
        M = _in_rows(rng, p, E, rows)
        (rank, _, pivot_cols, reduced), tests = _stop_tests(monkeypatch, M, p, carry)
        assert rank == 3 and pivot_cols.tolist() == [0, 1, 2]
        assert reduced[:3, 5:cols].any()  # the skipped columns' pivot-row entries
        assert tests == ([((cols - 5, rows - 3), False)] if rows > 3 else [])


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("carry", [False, True])
def test_echelon_goes_on_when_a_later_column_has_a_pivot(p, carry, monkeypatch):
    # columns 2 and 3 have no pivot, column 4 does: the test after column
    # 3 fails and the loop goes on; after columns 5 and 6 it ends
    rng = np.random.default_rng(900 + p)
    for rows, cols in [(5, 9), (7, 12), (12, 25)]:
        E = rng.integers(0, p, size=(3, cols))
        E[:, [0, 1, 4]] = np.eye(3, dtype=np.int64)
        E[2, [2, 3]] = 0
        E[2, 5:] = rng.integers(1, p, size=cols - 5)
        M = _in_rows(rng, p, E, rows)
        (rank, _, pivot_cols, _), tests = _stop_tests(monkeypatch, M, p, carry)
        assert rank == 3 and pivot_cols.tolist() == [0, 1, 4]
        assert tests == [((cols - 4, rows - 2), True), ((cols - 7, rows - 3), False)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("carry", [False, True])
def test_echelon_skips_columns_that_are_multiples_of_p(p, carry, monkeypatch):
    # past the two pivots every entry is a nonzero multiple of p
    rng = np.random.default_rng(1000 + p)
    for rows, cols in [(4, 8), (10, 10), (6, 30)]:
        M = p * rng.choice([-1, 1], size=(rows, cols)) * rng.integers(1, p + 1, size=(rows, cols))
        M[[0, 1], [0, 1]] += rng.integers(1, p, size=2)
        (rank, _, pivot_cols, reduced), tests = _stop_tests(monkeypatch, M, p, carry)
        assert rank == 2 and pivot_cols.tolist() == [0, 1]
        assert tests == [((cols - 4, rows - 2), False)]
        assert not reduced[:, 2:cols].any()
