"""Seeded random complexes for the CLI and the test suites.

The default generator draws differential entries from the maximal
ideal, which makes d*d = 0 automatic (r*r = 0), so every draw is valid.
``allow_units`` instead samples arbitrary entries and rejects until the
complex validates.  Conjugation by random invertible basis changes
turns block-diagonal inputs into messy but isomorphic ones; that is how
the suites produce complexes whose disks are not visible by inspection.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .complexes import (
    ChainComplex, _check_cells, _check_degrees, _inherit_verdict, disk, interval, make_complex,
)
from .errors import DomainError, InvalidComplexError, UsageError
from .linalg import MatrixR
from .ops import direct_sum_all
from .ring import RingSpec


def _random_ranks(rng, max_degree: int, max_rank: int) -> list:
    """Uniform ranks, refused above the cell cap before any entry is drawn."""
    n_degrees = int(rng.integers(0, max_degree + 2))
    ranks = [int(rng.integers(0, max_rank + 1)) for _ in range(n_degrees)]
    _check_cells(ranks)
    return ranks


def random_minimal_complex(ring: RingSpec, rng, max_degree: int = 4, max_rank: int = 3) -> ChainComplex:
    """Uniform ranks, entries uniform in m; always valid, always minimal."""
    ranks = _random_ranks(rng, max_degree, max_rank)
    diffs = []
    for n in range(1, len(ranks)):
        b = rng.integers(0, ring.p, size=(ranks[n - 1], ranks[n]), dtype=np.int64)
        diffs.append(MatrixR(ring, ring.p * b))
    return make_complex(ring, ranks, diffs, check=False)


def random_complex(
    ring: RingSpec,
    rng,
    max_degree: int = 4,
    max_rank: int = 3,
    allow_units: bool = False,
    attempts: int = 200,
) -> ChainComplex:
    _check_degrees(max_degree + 1)
    if not allow_units:
        return random_minimal_complex(ring, rng, max_degree, max_rank)
    for _ in range(attempts):
        ranks = _random_ranks(rng, max_degree, max_rank)
        diffs = [
            MatrixR(
                ring,
                rng.integers(0, ring.size, size=(ranks[n - 1], ranks[n]), dtype=np.int64),
            )
            for n in range(1, len(ranks))
        ]
        try:
            return make_complex(ring, ranks, diffs, check=True)
        except InvalidComplexError:
            continue
    raise DomainError(f"no valid complex found in {attempts} unit-sampling attempts")


def random_invertible(ring: RingSpec, rng, n: int, attempts: int = 1000) -> MatrixR:
    return _random_invertible_pair(ring, rng, n, attempts)[0]


def _random_invertible_pair(ring: RingSpec, rng, n: int, attempts: int = 1000) -> tuple:
    """(U, U^-1) for a uniform draw U, rejecting draws with a singular
    residue; one elimination per draw both tests and inverts it."""
    for _ in range(attempts):
        m = MatrixR(ring, rng.integers(0, ring.size, size=(n, n), dtype=np.int64))
        try:
            return m, linalg.inverse_matrix(m)
        except UsageError:
            continue
    raise DomainError(f"no invertible {n}x{n} matrix found in {attempts} attempts")


def conjugated(X: ChainComplex, rng) -> ChainComplex:
    """An isomorphic copy of X under random basis changes in every degree."""
    pairs = [_random_invertible_pair(X.ring, rng, r) for r in X.ranks]
    diffs = [
        linalg.apply_basis_change(X.d(n), pairs[n - 1][1], pairs[n][0])
        for n in range(1, len(X.ranks))
    ]
    return _inherit_verdict(make_complex(X.ring, X.ranks, diffs, check=False), X)


def random_complex_with_disks(
    ring: RingSpec,
    rng,
    max_degree: int = 4,
    max_rank: int = 3,
    max_disks: int = 2,
) -> ChainComplex:
    """Minimal part plus hidden disks, scrambled by conjugation."""
    base = random_minimal_complex(ring, rng, max_degree, max_rank)
    parts = [base]
    for _ in range(int(rng.integers(0, max_disks + 1))):
        parts.append(disk(ring, int(rng.integers(1, max(max_degree, 1) + 1))))
    return conjugated(direct_sum_all(ring, parts), rng)


def random_interval_sum(
    ring: RingSpec,
    rng,
    max_summands: int = 3,
    max_shift: int = 2,
    max_length: int = 2,
    force_bottom_zero: bool = False,
    scramble: bool = False,
) -> ChainComplex:
    """Direct sum of random interval complexes, optionally conjugated."""
    count = int(rng.integers(1, max_summands + 1))
    parts = []
    for t in range(count):
        i = 0 if (force_bottom_zero and t == 0) else int(rng.integers(0, max_shift + 1))
        j = int(rng.integers(0, max_length + 1))
        parts.append(interval(ring, i, j))
    total = direct_sum_all(ring, parts)
    return conjugated(total, rng) if scramble else total
