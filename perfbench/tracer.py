"""In-memory spans around chaincell's public functions.

``Tracer`` replaces each traced function, in every loaded ``chaincell``
module that binds it, with a wrapper that records one span per call:
calls and wall time per layer, plus the exact counters the benchmark
compares across runs (disks split, intervals found, rank-call cells,
worst-case enumeration candidates, guard refusals).  Nothing is written
until the caller reads ``snapshot()``; ``remove()`` restores every
binding.  No file under ``src/`` knows about this module.
"""

import sys
import time
from collections import defaultdict

# (module, function) -> span name.  Spans are the layer boundaries the
# per-layer metrics report.
TRACED = [
    ("chaincell.reduce", "minimize"),
    ("chaincell.reduce", "barcode"),
    ("chaincell.reduce", "rho_table"),
    ("chaincell.reduce", "decompose"),
    ("chaincell.linalg", "rank_k"),
    ("chaincell.linalg", "matmul_k"),
    ("chaincell.linalg", "matmul"),
    ("chaincell.complexes", "validate"),
    ("chaincell.complexes", "brute_homology"),
    ("chaincell.ops", "tensor"),
    ("chaincell.ops", "direct_sum_all"),
    ("chaincell.lattice", "min_pair"),
    ("chaincell.oracle", "exists_h0_epi"),
    ("chaincell.oracle", "chain_map_module"),
    ("chaincell.oracle", "hom_boundary_image_size"),
    ("chaincell.cli", "run"),
    ("chaincell.serialize", "load_complex"),
    ("chaincell.serialize", "dumps"),
]

# decompose's self time excludes these child stages only, so it keeps
# its rank accounting and the rebuilt-rho self-check.
DECOMPOSE_STAGES = ("reduce.minimize", "reduce.barcode")


def _span_name(module, func):
    return f"{module.split('.', 1)[1]}.{func}"


def _worst_candidates(name, args):
    """The candidate count the oracle's guard admitted, from ranks alone."""
    X, Y = args[0], args[1]
    size = X.ring.size
    if name == "oracle.hom_boundary_image_size":
        exponent = sum(X.rank(i) * Y.rank(i + 1) for i in range(X.top + 1))
    else:  # chain-map search X -> Y
        levels = max(len(X.ranks), len(Y.ranks))
        exponent = sum(X.rank(n) * Y.rank(n) for n in range(levels))
    return size**exponent


class Tracer:
    def __init__(self, guard_error):
        self._guard_error = guard_error
        self._saved = []  # (module, attribute, original)
        self._stack = []  # per open span: {child name: seconds}
        self.reset()

    def reset(self):
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def install(self, *callers):
        """Wrap every binding in chaincell's modules and in the given caller modules."""
        modules = [m for n, m in sys.modules.items() if n.startswith("chaincell") and m]
        modules += callers
        for module_name, func in TRACED:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(_span_name(module_name, func), original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            children = defaultdict(float)
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except self._guard_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.counts["oracle.refusals"] += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][name] += elapsed
                self.calls[name] += 1
                self.ms[name] += elapsed * 1e3
                self._count(name, args, children, elapsed)
            self._count_result(name, args, result)
            return result

        return traced

    def _count(self, name, args, children, elapsed):
        if name == "linalg.rank_k":
            self.counts["linalg.rank_k.cells"] += args[0].rows * args[0].cols
        elif name == "reduce.decompose":
            stages = sum(children[s] for s in DECOMPOSE_STAGES)
            self.ms["reduce.decompose.self"] += (elapsed - stages) * 1e3

    def _count_result(self, name, args, result):
        if name in ("oracle.chain_map_module", "oracle.hom_boundary_image_size",
                    "oracle.exists_h0_epi"):
            # admitted enumerations only; a refused one counts in oracle.refusals
            self.counts["oracle.candidates_worst"] += _worst_candidates(name, args)
        elif name == "reduce.minimize":
            self.counts["reduce.minimize.disks"] += len(result.disks)
        elif name == "reduce.decompose":
            self.counts["reduce.intervals"] += sum(result.intervals.values())

    def snapshot(self):
        """Per-layer values of everything recorded since the last reset."""
        out = {}
        for module_name, func in TRACED:
            name = _span_name(module_name, func)
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.ms"] = self.ms[name]
        out["reduce.decompose.self_ms"] = self.ms["reduce.decompose.self"]
        for key in ("reduce.minimize.disks", "reduce.intervals", "linalg.rank_k.cells",
                    "oracle.candidates_worst", "oracle.refusals"):
            out[key] = self.counts[key]
        return out


EXACT_SUFFIXES = (".calls", ".disks", ".cells", "intervals", "candidates_worst", "refusals")


def exact_counters(snapshot):
    """The counters that must repeat exactly for one seed."""
    return {k: v for k, v in snapshot.items() if k.endswith(EXACT_SUFFIXES)}
