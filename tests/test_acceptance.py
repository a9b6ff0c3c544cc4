"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with -s to see them all);
sample counts and families follow the stated requirements, with zero
tolerance on every comparison.
"""

import itertools

import numpy as np

from chaincell import (
    brute_homology,
    disk,
    homology,
    interval,
    linalg,
    sphere,
    validate,
)
from chaincell.lattice import is_acyclic_over, is_cellular, min_pair
from chaincell.ops import (
    cone,
    direct_sum_all,
    hom_complex,
    identity_map,
    shift,
    tensor,
)
from chaincell.oracle import SizeGuard, cross_check, enumerate_chain_maps, random_extension
from chaincell.randgen import random_interval_sum
from chaincell.reduce import decompose, minimize, rho_table, verify_certificates
from chaincell.ring import RingSpec

from conftest import bounded_random_complex

ALL_RINGS = [
    RingSpec("zpsq", 2),
    RingSpec("zpsq", 3),
    RingSpec("dual", 2),
    RingSpec("dual", 3),
]
P2_RINGS = [RingSpec("zpsq", 2), RingSpec("dual", 2)]


def _report(num, label, violations):
    status = "PASS" if violations == 0 else f"FAIL ({violations} violations)"
    print(f"ACCEPTANCE {num} ({label}): {status}")
    assert violations == 0, f"criterion {num}: {violations} violations"


def _criterion1_stream(ring, count=500):
    rng = np.random.default_rng(10_000 + ring.p + (0 if ring.flavor == "zpsq" else 7))
    return [bounded_random_complex(ring, rng, max_len=5, max_rank=4) for _ in range(count)]


def _criterion2_stream(ring, count=200):
    rng = np.random.default_rng(20_000 + ring.p + (0 if ring.flavor == "zpsq" else 7))
    out = []
    while len(out) < count:
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=3)
        if X.total_rank <= 4:
            out.append(X)
    return out


def _criterion3_pairs(ring, count=50, guard=SizeGuard()):
    family = [interval(ring, 0, j) for j in range(4)] + [disk(ring, 1), disk(ring, 2)]
    pairs = list(itertools.product(family, family))
    rng = np.random.default_rng(30_000 + ring.p)
    while len(pairs) < 36 + count:
        A = random_interval_sum(
            ring, rng, max_summands=2, max_shift=1, max_length=2, force_bottom_zero=True
        )
        X = random_interval_sum(ring, rng, max_summands=2, max_shift=2, max_length=2)
        degrees = max(len(A.ranks), len(X.ranks))
        exponent = sum(A.rank(n) * X.rank(n) for n in range(degrees))
        if ring.size**exponent > guard.max_search_space:
            continue
        pairs.append((X, A))
    return pairs


def test_criterion_1_splitting():
    violations = 0
    for ring in ALL_RINGS:
        for X in _criterion1_stream(ring):
            try:
                dec = decompose(X)  # raises on negative multiplicity itself
            except Exception:
                violations += 1
                continue
            if any(m < 0 for m in dec.intervals.values()):
                violations += 1
                continue
            for n, r in enumerate(X.ranks):
                covered = sum(
                    m for (i, j), m in dec.intervals.items() if i <= n <= i + j
                )
                if r != covered + dec.disks.get(n, 0) + dec.disks.get(n + 1, 0):
                    violations += 1
                    break
            rebuilt = direct_sum_all(
                ring, [interval(ring, i, j) for i, j in dec.interval_list()]
            )
            if rho_table(rebuilt) != rho_table(dec.minimal):
                violations += 1
    _report(1, "disk + interval splitting, 500 x 4 rings", violations)


def test_criterion_2_homology_oracle():
    violations = 0
    for ring in P2_RINGS:
        for X in _criterion2_stream(ring):
            if homology(X) != brute_homology(X):
                violations += 1
    _report(2, "homology equals brute homology, 200 x 2 rings", violations)


def test_criterion_3_cellularity_cross_check():
    violations = 0
    for ring in P2_RINGS:
        for X, A in _criterion3_pairs(ring):
            if not cross_check(X, A).agree:
                violations += 1
    _report(3, "decision procedure vs H0 criterion, 86 pairs x 2 rings", violations)


def test_criterion_4_example_grid():
    violations = 0
    for ring in P2_RINGS:
        checks = [
            is_cellular(interval(ring, 0, 2), interval(ring, 0, 1)).holds is True,
            is_cellular(interval(ring, 0, 0), interval(ring, 0, 1)).holds is False,
            is_acyclic_over(interval(ring, 0, 0), interval(ring, 0, 1)).holds is True,
            is_cellular(disk(ring, 1), sphere(ring, 1)).holds is True,
            is_cellular(sphere(ring, 0), sphere(ring, 1)).holds is False,
        ]
        violations += checks.count(False)
    _report(4, "five worked examples", violations)


def test_criterion_5_cellularity_properties():
    violations = 0
    ring = RingSpec("zpsq", 2)
    rng = np.random.default_rng(50_001)
    s0, s1 = sphere(ring, 0), sphere(ring, 1)
    for _ in range(200):
        X = bounded_random_complex(ring, rng)
        if not is_cellular(X, s0).holds:
            violations += 1
        h0_zero = X.is_empty() or homology(X)[0].is_zero()
        if is_cellular(X, s1).holds != h0_zero:
            violations += 1
    for _ in range(50):
        P = direct_sum_all(
            ring,
            [disk(ring, int(rng.integers(1, 5))) for _ in range(int(rng.integers(0, 4)))],
        )
        A = bounded_random_complex(ring, rng)
        if not is_cellular(P, A).holds:
            violations += 1
    for _ in range(200):
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=3)
        A = bounded_random_complex(ring, rng, max_len=4, max_rank=3)
        n = int(rng.integers(0, 3))
        if is_cellular(X, A).holds and not is_cellular(shift(X, n), A).holds:
            violations += 1
        if is_cellular(shift(X, 1), shift(A, 1)).holds != is_cellular(X, A).holds:
            violations += 1
    _report(5, "cellularity property suite", violations)


def test_criterion_6_extension_property():
    violations = 0
    ring = RingSpec("zpsq", 2)
    rng = np.random.default_rng(60_001)
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        A = random_interval_sum(ring, rng, max_summands=2, max_shift=1, max_length=2)
        X = random_interval_sum(ring, rng, max_summands=2, max_shift=2, max_length=2)
        W = random_interval_sum(ring, rng, max_summands=2, max_shift=1, max_length=1)
        ia = min_pair(A)
        if ia is None:
            continue
        Z = shift(W, ia[0] + 1)
        if not is_cellular(X, A).holds:
            continue
        if not is_acyclic_over(Z, shift(A, 1)).holds:
            continue
        Y = random_extension(X, Z, seed=seed).total
        if not is_cellular(Y, A).holds:
            violations += 1
        checked += 1
    _report(6, "extensions preserve cellularity, 100 instances", violations)


def _sample_chain_maps(ring, rng, count):
    maps = []
    while len(maps) < count:
        X = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        Y = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        degrees = max(len(X.ranks), len(Y.ranks))
        exponent = sum(X.rank(n) * Y.rank(n) for n in range(degrees))
        if ring.size**exponent > 4096:
            continue
        found = enumerate_chain_maps(X, Y, SizeGuard(4096))
        maps.append(found[int(rng.integers(0, len(found)))])
    return maps


def test_criterion_7_cone_fidelity():
    violations = 0
    for ring in P2_RINGS:
        from chaincell.ops import make_chain_map

        f = make_chain_map(
            interval(ring, 0, 1),
            interval(ring, 0, 0),
            [linalg.from_elements(ring, [[ring.r()]]), linalg.zeros(ring, 0, 1)],
        )
        if dict(decompose(cone(f)).intervals) != {(0, 2): 1}:
            violations += 1
    ring = RingSpec("zpsq", 2)
    rng = np.random.default_rng(70_001)
    for _ in range(50):
        X = bounded_random_complex(ring, rng, max_len=4, max_rank=3)
        C = cone(identity_map(X))
        if validate(C) is not None or not all(d.is_zero() for d in homology(C)):
            violations += 1
    for f in _sample_chain_maps(ring, rng, 100):
        X, Y = f.source, f.target
        C = cone(f)
        S = shift(X, 1)
        if C.ranks != tuple(
            Y.rank(n) + X.rank(n - 1) for n in range(len(C.ranks))
        ):
            violations += 1
            continue
        for n in range(1, len(C.ranks)):
            rows = range(Y.rank(n - 1), C.rank(n - 1))
            cols = range(Y.rank(n), C.rank(n))
            if linalg.submatrix(C.d(n), rows, cols) != S.d(n):
                violations += 1
                break
    _report(7, "cone fidelity", violations)


def test_criterion_8_unit_laws():
    violations = 0
    ring = RingSpec("zpsq", 2)
    rng = np.random.default_rng(80_001)
    s0, s1 = sphere(ring, 0), sphere(ring, 1)
    for _ in range(100):
        X = bounded_random_complex(ring, rng)
        h = hom_complex(s0, X)
        if h.full != X:
            violations += 1
        if tensor(s0, X) != X:
            violations += 1
        if tensor(s1, X) != shift(X, 1):
            violations += 1
    _report(8, "hom/tensor unit laws, 100 random complexes", violations)


def test_criterion_9_minimization():
    violations = 0
    sampled = 0
    for ring in ALL_RINGS:
        for idx, X in enumerate(_criterion1_stream(ring)):
            result = minimize(X)
            for n in range(1, len(result.minimal.ranks)):
                if np.any(result.minimal.d(n).data % ring.p):
                    violations += 1
            again = minimize(result.minimal)
            if again.disks != () or again.minimal != result.minimal:
                violations += 1
            if sampled < 100 and idx % 25 == 0:
                sampled += 1
                if not verify_certificates(X, result):
                    violations += 1
    for ring in P2_RINGS:
        for X in _criterion2_stream(ring):
            result = minimize(X)
            for n in range(1, len(result.minimal.ranks)):
                if np.any(result.minimal.d(n).data % ring.p):
                    violations += 1
            if minimize(result.minimal).disks != ():
                violations += 1
        for X, A in _criterion3_pairs(ring):
            for C in (X, A):
                result = minimize(C)
                for n in range(1, len(result.minimal.ranks)):
                    if np.any(result.minimal.d(n).data % ring.p):
                        violations += 1
    assert sampled >= 80, "certificate sampling fell short"
    _report(9, "minimization idempotent, minimal, certified", violations)
