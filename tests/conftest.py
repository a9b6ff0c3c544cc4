from collections import Counter

import numpy as np
import pytest

from chaincell._kernels import enc_mul
from chaincell.complexes import make_complex
from chaincell.linalg import MatrixR
from chaincell.reduce import composite_rank
from chaincell.ring import RingSpec, check_same_ring

ALL_RINGS = [
    RingSpec("zpsq", 2),
    RingSpec("zpsq", 3),
    RingSpec("dual", 2),
    RingSpec("dual", 3),
]
P2_RINGS = [RingSpec("zpsq", 2), RingSpec("dual", 2)]


@pytest.fixture(params=ALL_RINGS, ids=str)
def ring(request):
    return request.param


@pytest.fixture(params=P2_RINGS, ids=str)
def p2_ring(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class _GuardedSize(int):
    """An |R| that fails when raised to an integer power above 64."""

    def __pow__(self, exponent, modulo=None):
        if isinstance(exponent, int) and exponent > 64:
            raise AssertionError(f"built |R|^{exponent}")
        return pow(int(self), exponent, modulo)


@pytest.fixture
def no_huge_powers(monkeypatch):
    """Make every ring's |R| fail when raised past the 64th power, so a
    guard that builds a count far above 2**64 fails its test at once."""
    monkeypatch.setattr(RingSpec, "size", property(lambda self: _GuardedSize(self.p * self.p)))


def bounded_random_complex(ring, rng, max_len=5, max_rank=4):
    """Seeded random complex with unit entries, ranks capped degreewise."""
    from chaincell.randgen import random_complex_with_disks

    while True:
        X = random_complex_with_disks(
            ring, rng, max_degree=max_len - 1, max_rank=max_rank - 1, max_disks=2
        )
        if len(X.ranks) <= max_len and all(r <= max_rank for r in X.ranks):
            return X


def unvalidated(X):
    """A copy of X whose validate verdict is not known yet."""
    return make_complex(X.ring, X.ranks, X.diffs, check=False)


def from_elements(ring, rows):
    """MatrixR from a nested list of RingElements."""
    data = np.array([[x.encoded for x in row] for row in rows], dtype=np.int64)
    return MatrixR(ring, data.reshape(len(rows), len(rows[0]) if rows else 0))


def entry(A, i, j):
    """Entry (i, j) of a MatrixR as a RingElement."""
    return A.ring.from_encoded(int(A.data[i, j]))


def reference_kron(A, B):
    """Kronecker product over R by entrywise ring products; row-major pair
    ordering (A-index major).  The assembly tests compare against it."""
    check_same_ring(A, B)
    p, fl = A.ring.p, A.ring.flavor_code
    prod = enc_mul(
        A.data[:, None, :, None], B.data[None, :, None, :], p, fl
    ).reshape(A.rows * B.rows, A.cols * B.cols)
    return MatrixR(A.ring, prod)


def reference_barcode(M):
    """Interval multiplicities of a minimal complex by inclusion-exclusion on
    its composite ranks: a summand spanning [i, i+j] counts once in
    rho(a, b) exactly when i <= a <= b <= i+j.  ``reduce.barcode`` reads
    births and deaths off its sweep instead; the tests compare the two."""
    n_degrees = len(M.ranks)
    table = {(a, b): composite_rank(M, a, b) for a in range(n_degrees) for b in range(a, n_degrees)}
    rho = lambda a, b: table.get((a, b), 0)
    out = Counter()
    for a in range(n_degrees):
        for b in range(a, n_degrees):
            mult = rho(a, b) - rho(a - 1, b) - rho(a, b + 1) + rho(a - 1, b + 1)
            assert mult >= 0, f"negative interval multiplicity at ({a}, {b})"
            if mult:
                out[(a, b - a)] = mult
    return out
