"""The benchmark's hooks into the package still resolve.

``perfbench/tracer.py`` wraps the functions named in ``TRACED`` and
``perfbench/run.py:kernel_rows`` times ``_kernels`` functions by name, so
a rename under ``src/`` would break ``run.py --trace 1`` without failing
any other test.  The smoke test runs every workload item once, so a
crash that would lower a run's ``ok_frac`` fails here first.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from chaincell import GuardExceeded, _kernels

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
