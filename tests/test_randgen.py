import numpy as np
import pytest

from chaincell import _kernels, disk, interval, linalg, randgen
from chaincell.errors import DomainError, InvalidComplexError, UsageError
from chaincell.linalg import MatrixR
from chaincell.ops import direct_sum_all
from chaincell.ring import RingSpec

Z4 = RingSpec("zpsq", 2)


def test_random_complex_units_retries_only_invalid_complexes(monkeypatch):
    calls = []

    def invalid_then_bug(ring, ranks, diffs, check=True):
        calls.append(check)
        if len(calls) == 1:
            raise InvalidComplexError("d1*d2 != 0")
        raise RuntimeError("bug in the constructor")

    monkeypatch.setattr(randgen, "make_complex", invalid_then_bug)
    with pytest.raises(RuntimeError, match="bug in the constructor"):
        randgen.random_complex(Z4, np.random.default_rng(0), allow_units=True)
    assert len(calls) == 2


def test_random_complex_units_gives_up_with_domain_error(monkeypatch):
    def always_invalid(ring, ranks, diffs, check=True):
        raise InvalidComplexError("d1*d2 != 0")

    monkeypatch.setattr(randgen, "make_complex", always_invalid)
    with pytest.raises(DomainError):
        randgen.random_complex(Z4, np.random.default_rng(0), allow_units=True, attempts=5)


def test_random_invertible_out_of_attempts_raises(monkeypatch):
    # the identity is not a random draw; running out of attempts is an
    # error, and every attempt is one inversion that refuses the draw
    calls = []

    def singular(m):
        calls.append(m)
        raise UsageError("matrix is not invertible")

    monkeypatch.setattr(randgen.linalg, "inverse_matrix", singular)
    with pytest.raises(DomainError):
        randgen.random_invertible(Z4, np.random.default_rng(0), 3, attempts=10)
    assert len(calls) == 10


def test_conjugated_eliminates_each_draw_once(ring, monkeypatch):
    # a rank test and an inversion accept the same draws, so the stream of
    # basis changes is the rank-tested one; each draw costs one elimination
    X = direct_sum_all(ring, [interval(ring, 0, 2), disk(ring, 1), interval(ring, 1, 2)])
    ref = np.random.default_rng(4)
    expected, draws = [], 0
    for r in X.ranks:
        while True:
            draws += 1
            U = MatrixR(ring, ref.integers(0, ring.size, size=(r, r), dtype=np.int64))
            if linalg.is_invertible(U):
                break
        expected.append(U)
    diffs = [
        linalg.apply_basis_change(X.d(n), linalg.inverse_matrix(expected[n - 1]), expected[n])
        for n in range(1, len(X.ranks))
    ]
    calls = []
    real = _kernels.echelon_mod
    monkeypatch.setattr(_kernels, "echelon_mod", lambda *a, **k: calls.append(a) or real(*a, **k))
    monkeypatch.setattr(linalg, "is_invertible", None)
    Y = randgen.conjugated(X, np.random.default_rng(4))
    assert len(calls) == draws
    assert list(Y.diffs) == diffs
