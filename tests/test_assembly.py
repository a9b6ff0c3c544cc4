"""Nonzero-block assembly against the full-grid assembly it replaced.

``_reference_block`` is the old grid assembly: every block of the block
matrix, explicit zeros included, wrapped as a MatrixR and stacked.  The
``_reference_*`` constructions below build tensor, the hom complex's
positive part, cone, direct sums and interval sums through it, as the
package did before it wrote only the nonzero blocks.  Every output of
``ops`` and of ``complexes.interval_sum`` must match them byte for byte:
dtype, shape and bytes of every differential.
"""

import numpy as np
import pytest

from chaincell import ChaincellError, GuardExceeded, linalg, ops, reduce
from chaincell.complexes import (
    ChainComplex,
    disk,
    empty,
    interval,
    interval_sum,
    make_complex,
    sphere,
)
from chaincell.errors import DomainError, UsageError
from chaincell.ops import (
    ChainMap,
    cone,
    direct_sum_all,
    hom_complex,
    identity_map,
    shift,
    tensor,
    zero_map,
)
from chaincell.oracle import SizeGuard, enumerate_chain_maps
from chaincell.randgen import conjugated

from conftest import bounded_random_complex, from_elements, reference_kron


def _reference_block(ring, grid):
    rows = []
    for brow in grid:
        rows.append(np.hstack([m.data for m in brow]) if brow else np.zeros((0, 0), np.int64))
    data = np.vstack(rows) if rows else np.zeros((0, 0), np.int64)
    return linalg.MatrixR(ring, data)


def _reference_block_diag(ring, mats):
    grid = [
        [m if j == i else linalg.zeros(ring, m.rows, other.cols) for j, other in enumerate(mats)]
        for i, m in enumerate(mats)
    ]
    return _reference_block(ring, grid) if mats else linalg.zeros(ring, 0, 0)


def _reference_direct_sum_all(ring, complexes):
    n_degrees = max((len(X.ranks) for X in complexes), default=0)
    ranks = [sum(X.rank(n) for X in complexes) for n in range(n_degrees)]
    diffs = [_reference_block_diag(ring, [X.d(n) for X in complexes]) for n in range(1, n_degrees)]
    return make_complex(ring, ranks, diffs, check=False)


def _reference_cone(f):
    X, Y = f.source, f.target
    ring = X.ring
    n_degrees = max(len(Y.ranks), len(X.ranks) + 1)
    ranks = [Y.rank(n) + X.rank(n - 1) for n in range(n_degrees)]
    diffs = []
    for n in range(1, n_degrees):
        grid = [
            [Y.d(n), f.mat(n - 1)],
            [linalg.zeros(ring, X.rank(n - 2), Y.rank(n)), linalg.neg(X.d(n - 1))],
        ]
        diffs.append(_reference_block(ring, grid))
    return make_complex(ring, ranks, diffs, check=False)


def _tensor_blocks(X, Y, n):
    """(i, j) summands of degree n, lexicographic with i ascending."""
    return [
        (i, n - i)
        for i in range(max(0, n - Y.top), min(n, X.top) + 1)
        if X.rank(i) and Y.rank(n - i)
    ]


def _reference_tensor(X, Y):
    ring = X.ring
    if X.is_empty() or Y.is_empty():
        return empty(ring)
    n_degrees = X.top + Y.top + 1
    blocks = [_tensor_blocks(X, Y, n) for n in range(n_degrees)]
    ranks = [sum(X.rank(i) * Y.rank(j) for i, j in bs) for bs in blocks]
    diffs = []
    for n in range(1, n_degrees):
        if not blocks[n] or not blocks[n - 1]:
            diffs.append(linalg.zeros(ring, ranks[n - 1], ranks[n]))
            continue
        grid = []
        for it, jt in blocks[n - 1]:
            row = []
            for isrc, jsrc in blocks[n]:
                if (it, jt) == (isrc - 1, jsrc):
                    m = reference_kron(X.d(isrc), linalg.identity(ring, Y.rank(jsrc)))
                elif (it, jt) == (isrc, jsrc - 1):
                    m = reference_kron(linalg.identity(ring, X.rank(isrc)), Y.d(jsrc))
                    if isrc % 2:
                        m = linalg.neg(m)
                else:
                    m = linalg.zeros(ring, X.rank(it) * Y.rank(jt), X.rank(isrc) * Y.rank(jsrc))
                row.append(m)
            grid.append(row)
        diffs.append(_reference_block(ring, grid))
    return make_complex(ring, ranks, diffs, check=False)


def _reference_hom_blocks(X, Y, n):
    return [i for i in range(X.top + 1) if X.rank(i) and Y.rank(i + n)]


def _reference_hom_diff(X, Y, n):
    ring = X.ring
    src_blocks = _reference_hom_blocks(X, Y, n)
    grid = []
    for it in _reference_hom_blocks(X, Y, n - 1):
        row = []
        for isrc in src_blocks:
            if it == isrc:
                m = reference_kron(Y.d(isrc + n), linalg.identity(ring, X.rank(isrc)))
            elif it == isrc + 1:
                eye = linalg.identity(ring, Y.rank(it + n - 1))
                m = reference_kron(eye, linalg.MatrixR(ring, X.d(it).data.T))
                if (n - 1) % 2:
                    m = linalg.neg(m)
            else:
                rows = Y.rank(it + n - 1) * X.rank(it)
                m = linalg.zeros(ring, rows, Y.rank(isrc + n) * X.rank(isrc))
            row.append(m)
        grid.append(row)
    if not grid or not src_blocks:
        return linalg.zeros(ring, ops._hom_rank(X, Y, n - 1), ops._hom_rank(X, Y, n))
    return _reference_block(ring, grid)


def _reference_hom_positive(X, Y):
    ring = X.ring
    pos_ranks = [0] + [ops._hom_rank(X, Y, n) for n in range(1, max(Y.top + 1, 1))]
    pos_diffs = [linalg.zeros(ring, 0, pos_ranks[1])] if len(pos_ranks) > 1 else []
    pos_diffs += [_reference_hom_diff(X, Y, n) for n in range(2, len(pos_ranks))]
    return make_complex(ring, pos_ranks, pos_diffs, check=False)


def _reference_interval(ring, i, j):
    ranks = [0] * i + [1] * (j + 1)
    gen = ring.r() if i % 2 == 0 else -ring.r()
    diffs = []
    for k in range(len(ranks) - 1):
        if ranks[k] and ranks[k + 1]:
            diffs.append(from_elements(ring, [[gen]]))
        else:
            diffs.append(linalg.zeros(ring, ranks[k], ranks[k + 1]))
    return ChainComplex(ring, tuple(ranks), tuple(diffs))


def _reference_disk(ring, n):
    ranks = [0] * (n - 1) + [1, 1]
    diffs = [linalg.zeros(ring, ranks[k], ranks[k + 1]) for k in range(len(ranks) - 1)]
    diffs[-1] = linalg.identity(ring, 1)
    return ChainComplex(ring, tuple(ranks), tuple(diffs))


def _reference_interval_sum(ring, intervals, disks=()):
    summands = [_reference_interval(ring, i, j) for i, j in intervals]
    summands += [_reference_disk(ring, n) for n in disks]
    return _reference_direct_sum_all(ring, summands)


def _assert_same_bytes(got, want):
    assert (got.ring, got.ranks, len(got.diffs)) == (want.ring, want.ranks, len(want.diffs))
    for g, w in zip(got.diffs, want.diffs):
        assert (g.data.dtype, g.data.shape) == (w.data.dtype, w.data.shape)
        assert g.data.tobytes() == w.data.tobytes()


def _complexes(ring, rng):
    """Random complexes plus the edge shapes: empty, zero ranks in middle
    degrees, summands that start at a high degree."""
    gap = direct_sum_all(ring, [interval(ring, 0, 0), interval(ring, 3, 1), disk(ring, 2)])
    out = [
        empty(ring),
        sphere(ring, 0),
        sphere(ring, 3),
        gap,
        conjugated(gap, rng),
        shift(interval(ring, 0, 2), 4),
        disk(ring, 4),
    ]
    out += [bounded_random_complex(ring, rng, max_len=4, max_rank=3) for _ in range(6)]
    return out


def test_direct_sum_all_matches_grid_assembly(ring, rng):
    cs = _complexes(ring, rng)
    for k in range(len(cs)):
        summands = cs[k : k + 4] + [cs[k], empty(ring)]
        want = _reference_direct_sum_all(ring, summands)
        _assert_same_bytes(direct_sum_all(ring, summands), want)
    _assert_same_bytes(direct_sum_all(ring, []), _reference_direct_sum_all(ring, []))


def test_tensor_matches_grid_assembly(ring, rng):
    cs = _complexes(ring, rng)
    for X in cs:
        for Y in cs[::2]:
            _assert_same_bytes(tensor(X, Y), _reference_tensor(X, Y))


def test_hom_diff_matches_grid_assembly(ring, rng):
    cs = _complexes(ring, rng)
    for X in cs:
        for Y in cs[::2]:
            # Hom_n -> Hom_(n-1) is d_(n + X.top) of Y (x) X*, from Hom_0 -> Hom_-1 up
            for n in range(0, Y.top + 2):
                got = ops._tensor_diffs(Y, ops._dual(X), [X.top + n])[0]
                want = _reference_hom_diff(X, Y, n)
                assert (got.data.dtype, got.data.shape) == (want.data.dtype, want.data.shape)
                assert got.data.tobytes() == want.data.tobytes()


def test_hom_positive_matches_grid_assembly(ring, rng):
    cs = [c for c in _complexes(ring, rng) if c.total_rank <= 3]
    cs += [bounded_random_complex(ring, rng, max_len=4, max_rank=2) for _ in range(4)]
    for X in cs:
        for Y in cs:
            try:
                h = hom_complex(X, Y, SizeGuard(1 << 14))
            except GuardExceeded:
                continue
            _assert_same_bytes(h.positive, _reference_hom_positive(X, Y))


def test_hom_full_matches_kron_with_identity(ring, rng):
    # from a source in degree 0 the full complex takes d_1 of Y (x) X*
    # and the positive part's d_2, d_3, ...: byte for byte kron(d_Y, 1_a)
    cs = [c for c in _complexes(ring, rng) if c.total_rank <= 3]
    sources = [c for c in cs if c.top <= 0] + [sphere(ring, 0), empty(ring)]
    sources += [make_complex(ring, [a], []) for a in (2, 3)]
    wide = 0  # pairs checked with rank X_0 >= 2 and a nonzero d_Y
    for X in sources:
        for Y in cs + [interval(ring, 0, 1), interval(ring, 0, 2)]:
            try:
                h = hom_complex(X, Y, SizeGuard(1 << 14))
            except GuardExceeded:
                continue
            a = X.rank(0)
            want = make_complex(
                ring,
                [a * r for r in Y.ranks],
                [reference_kron(Y.d(n), linalg.identity(ring, a)) for n in range(1, len(Y.ranks))],
                check=False,
            )
            _assert_same_bytes(h.full, want)
            wide += a >= 2 and any(d.data.any() for d in Y.diffs)
    assert wide


def test_cone_matches_grid_assembly(ring, rng):
    cs = _complexes(ring, rng)
    maps = [identity_map(X) for X in cs] + [zero_map(X, Y) for X, Y in zip(cs, cs[1:])]
    while len(maps) < len(cs) * 2 + 8:
        X = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        Y = bounded_random_complex(ring, rng, max_len=3, max_rank=2)
        if ring.size ** sum(X.rank(n) * Y.rank(n) for n in range(3)) <= 4096:
            found = enumerate_chain_maps(X, Y, SizeGuard(4096))
            maps.append(found[int(rng.integers(0, len(found)))])
    r_map = ChainMap(
        interval(ring, 0, 1),
        interval(ring, 0, 0),
        (from_elements(ring, [[ring.r()]]), linalg.zeros(ring, 0, 1)),
    )
    for f in maps + [r_map]:
        _assert_same_bytes(cone(f), _reference_cone(f))


@pytest.mark.parametrize(
    "intervals, disks",
    [
        ([], []),
        ([], [1, 1, 4]),
        ([(0, 0)], []),
        ([(2, 0), (2, 0), (2, 0)], []),
        ([(0, 3), (1, 0), (1, 0), (5, 2)], [3]),
        ([(4, 1), (0, 0)], [2, 1]),
        ([(1, 4), (3, 0), (3, 2), (3, 2), (6, 0)], [7, 7]),
    ],
)
def test_interval_sum_matches_grid_assembly(ring, intervals, disks):
    _assert_same_bytes(
        interval_sum(ring, intervals, disks), _reference_interval_sum(ring, intervals, disks)
    )
    _assert_same_bytes(interval_sum(ring, intervals), _reference_interval_sum(ring, intervals))


def test_single_summands_match_the_old_constructors(ring):
    for n in range(6):
        _assert_same_bytes(sphere(ring, n), _reference_interval(ring, n, 0))
        _assert_same_bytes(disk(ring, n + 1), _reference_disk(ring, n + 1))
        for j in range(4):
            _assert_same_bytes(interval(ring, n, j), _reference_interval(ring, n, j))


def test_interval_sum_refuses_negative_degrees(ring):
    for intervals, disks in (([(-1, 2)], []), ([(1, -1)], []), ([], [0])):
        with pytest.raises(DomainError):
            interval_sum(ring, intervals, disks)


def test_interval_sum_matches_grid_assembly_on_random_lists(ring, rng):
    for _ in range(20):
        count = rng.integers(0, 9)
        intervals = [tuple(int(v) for v in rng.integers(0, 5, size=2)) for _ in range(count)]
        disks = [int(v) for v in rng.integers(1, 6, size=rng.integers(0, 4))]
        _assert_same_bytes(
            interval_sum(ring, intervals, disks), _reference_interval_sum(ring, intervals, disks)
        )


def test_reconstruct_matches_grid_assembly(ring, rng):
    for X in _complexes(ring, rng):
        dec = reduce.decompose(X)
        _assert_same_bytes(
            reduce.reconstruct(dec, ring),
            _reference_interval_sum(ring, dec.interval_list(), dec.disk_list()),
        )


def test_from_blocks_refuses_a_block_of_the_wrong_shape(ring):
    with pytest.raises(UsageError):
        linalg.from_blocks(ring, [2, 1], [1], {(0, 0): np.zeros((1, 1), np.int64)})


def test_decompose_self_check_fires_on_a_wrong_interval_sum(ring, rng, monkeypatch):
    # each fault below leaves every multiplicity nonnegative and the rank
    # accounting whole: (a) only the bottom-row check against the product
    # chain can see, (b) the sweep's check of each death sees first
    summands = [interval(ring, 0, 2), interval(ring, 1, 1), interval(ring, 0, 0)]
    X = conjugated(direct_sum_all(ring, summands), rng)
    assert reduce.decompose(X).interval_list() == [(0, 0), (0, 2), (1, 1)]
    with monkeypatch.context() as patch:
        # (a) the barcode of the minimal part with d2 zeroed
        def barcode_without_d2(mr):
            M = mr.minimal
            diffs = [M.d(1), linalg.zeros(ring, M.rank(1), M.rank(2))]
            return reduce.barcode(make_complex(ring, M.ranks, diffs))

        patch.setattr(reduce.MinimizeResult, "barcode", barcode_without_d2)
        with pytest.raises(ChaincellError, match="product chain"):
            reduce.decompose(X)
    with monkeypatch.context() as patch:
        # (b) the sweep's last elimination, which writes the bottom row,
        # loses one pivot
        sweep, echelon = reduce.barcode, reduce.echelon_mod

        def sweep_losing_a_pivot(M):
            calls = []

            def short_echelon(A, p):
                calls.append(A.shape)
                r, rows, cols, reduced = echelon(A, p)
                if len(calls) == M.top:
                    return r - 1, rows[:-1], cols[:-1], reduced
                return r, rows, cols, reduced

            with monkeypatch.context() as inner:
                inner.setattr(reduce, "echelon_mod", short_echelon)
                return sweep(M)

        patch.setattr(reduce, "barcode", sweep_losing_a_pivot)
        with pytest.raises(ChaincellError, match="dies at degree 1"):
            reduce.decompose(X)
