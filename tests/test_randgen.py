import numpy as np
import pytest

from chaincell import randgen
from chaincell.errors import DomainError, InvalidComplexError
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
    # the identity is not a random draw; running out of attempts is an error
    monkeypatch.setattr(randgen.linalg, "is_invertible", lambda m: False)
    with pytest.raises(DomainError):
        randgen.random_invertible(Z4, np.random.default_rng(0), 3, attempts=10)

