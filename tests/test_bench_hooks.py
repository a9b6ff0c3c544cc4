"""The benchmark's hooks into the package still resolve.

``perfbench/tracer.py`` wraps the functions named in ``TRACED`` and
``perfbench/run.py:kernel_rows`` times ``_kernels`` functions by name, so
a rename under ``src/`` would break ``run.py --trace 1`` without failing
any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from chaincell import _kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
