"""The benchmark's hooks into the package still resolve.

``perfbench/tracer.py`` wraps the functions named in ``TRACED`` and
``perfbench/run.py:kernel_rows`` times ``_kernels`` functions by name, so
a rename under ``src/`` would break ``run.py --trace 1`` without failing
any other test.  The smoke test runs every workload item once, so a
crash that would lower a run's ``ok_frac`` fails here first, and the
replay test checks every elimination of two items against the per-pivot
reference, on the shapes the benchmark sends.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import chaincell.cli  # noqa: F401  (the tracer wraps cli.run)
from chaincell import GuardExceeded, SizeGuard, _kernels, cross_check, direct_sum_all, hom_complex, interval
from chaincell.lattice import is_acyclic_over, min_pair
from chaincell.ops import tensor
from chaincell.reduce import barcode, decompose, minimize
from chaincell.ring import parse_ring

from conftest import reference_barcode

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOAD_NAMES = [
    w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
]


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module_name, func in tracer.TRACED:
        assert callable(getattr(importlib.import_module(module_name), func)), (module_name, func)


def test_tracer_sees_the_oracle_layers():
    # cross_check's H0-epi route and a guarded hom go through the public
    # oracle functions, so the tracer's rows for them read their calls
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    ring = parse_ring("zpsq:2")
    X = direct_sum_all(ring, [interval(ring, 0, 0), interval(ring, 0, 1)])
    A = interval(ring, 0, 1)
    tracer = tracer_mod.Tracer(GuardExceeded).install()
    try:
        assert cross_check(X, A).route == "h0-epi"
        hom_complex(A, interval(ring, 0, 2), SizeGuard(1 << 10))
        snap = tracer.snapshot()
    finally:
        tracer.remove()
    for name in ("oracle.exists_h0_epi", "complexes.brute_homology",
                 "oracle.chain_map_module", "oracle.hom_boundary_image_size"):
        assert snap[f"{name}.calls"] > 0, name


def test_tracer_sees_the_sweep():
    # decompose reads its bars through the public barcode, so that row
    # reads the sweep and decompose's self time leaves it out
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    ring = parse_ring("dual:3")
    T = tensor(interval(ring, 0, 2), direct_sum_all(ring, [interval(ring, 0, 1), interval(ring, 1, 0)]))
    tracer = tracer_mod.Tracer(GuardExceeded).install()
    try:
        decompose(T)
        snap = tracer.snapshot()
    finally:
        tracer.remove()
    assert snap["reduce.barcode.calls"] >= 1


def test_kernel_rows_names_exist():
    for name in ("mat_mul", "rank_mod", "mat_mul_many_right"):
        assert callable(getattr(_kernels, name)), name


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "reference"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_items_run_once(workloads, name, tmp_path):
    items = workloads.WORKLOADS[name](1, str(tmp_path), inproc=True)
    assert items
    for item in items:
        try:
            assert item.run() in (workloads.OK, workloads.REFUSED), item.label
        except GuardExceeded:
            pass


def test_benchmark_eliminations_match_reference(workloads, tmp_path, monkeypatch):
    # every echelon_mod call of one barcode-deep and one decompose-disks
    # item, against the per-pivot reference, on real shapes
    from test_kernels import _assert_same_echelon

    real = _kernels.echelon_mod
    recorded = []

    def recording(M, p, carry=False):
        recorded.append((M.copy(), p, carry))
        return real(M, p, carry)

    with monkeypatch.context() as patch:
        for module in [m for n, m in sys.modules.items() if n.startswith("chaincell") and m]:
            for attr, value in list(vars(module).items()):
                if value is real:
                    patch.setattr(module, attr, recording)
        for name in ("barcode-deep", "decompose-disks"):
            item = workloads.WORKLOADS[name](1, str(tmp_path), inproc=True)[0]
            assert item.run() == workloads.OK, item.label
    # decompose-disks' minimize carries the pivot block's inverse
    assert {carry for *_, carry in recorded} == {False, True}
    for M, p, carry in recorded:
        _assert_same_echelon(M, p, carry)


def test_min_pair_matches_barcode_on_workload_inputs(workloads):
    # the barcode-deep tensors and the oracle-cli pairs, built as the
    # workloads build them
    from test_lattice import barcode_acyclic_json, barcode_min_pair

    rng = np.random.default_rng(1)
    for lengths in workloads.DEEP_LENGTHS:
        for spec in workloads.DEEP_RINGS:
            ring = parse_ring(spec)
            X, Y = (workloads._scrambled(ring, workloads.deep_summands(lengths, k), rng) for k in (0, 1))
            T = tensor(X, Y)
            assert min_pair(T) == barcode_min_pair(T), spec
    for spec in workloads.ORACLE_RINGS:
        ring = parse_ring(spec)
        for xs, as_ in workloads.ORACLE_PAIRS:
            X, A = workloads._scrambled(ring, xs, rng), workloads._scrambled(ring, as_, rng)
            for Z in (X, A):
                assert min_pair(Z) == barcode_min_pair(Z), (spec, xs, as_)
            assert is_acyclic_over(X, A).to_json() == barcode_acyclic_json(X, A)
            assert is_acyclic_over(A, X).to_json() == barcode_acyclic_json(A, X)


def test_barcode_matches_inclusion_exclusion_on_workload_inputs(workloads):
    # the 9 decompose-disks and the 9 barcode-deep inputs of seed 1, drawn
    # as the workloads draw them
    inputs = []
    rng = np.random.default_rng(1)
    for n_int, n_disk in workloads.DISK_SIZES:
        for spec in workloads.DISK_RINGS:
            inputs.append(workloads._scrambled(parse_ring(spec), workloads.disk_summands(n_int, n_disk), rng))
    rng = np.random.default_rng(1)
    for lengths in workloads.DEEP_LENGTHS:
        for spec in workloads.DEEP_RINGS:
            ring = parse_ring(spec)
            X, Y = (workloads._scrambled(ring, workloads.deep_summands(lengths, k), rng) for k in (0, 1))
            inputs.append(tensor(X, Y))
    assert len(inputs) == 18
    for X in inputs:
        M = minimize(X).minimal
        assert barcode(M) == reference_barcode(M)
