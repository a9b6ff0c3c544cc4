#!/usr/bin/env python3
"""chaincell benchmark: fixed seeded workloads, end-to-end metrics, and a
traced run per layer.

Run from the root of a checkout that holds ``src/chaincell``:

    python3 perfbench/run.py --workload decompose-disks --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Set-up imports chaincell from ``src/``, builds the workload's inputs from
the seed (scrambled sums of known summands, so every answer is known),
and warms up on one item.  ``--trace 0`` then repeats the workload's
fixed batch for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` spends half the time on untraced batches and half on
batches with every public layer wrapped in memory (see ``tracer``), and
reports the per-layer metrics.  Every answer is checked in both modes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine, the seed and run details.  Workloads, metric units and
directions come from ``BENCHMARK.json`` at the checkout root.
"""

import argparse
import importlib.util
from collections import defaultdict
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
clock = time.perf_counter

END_TO_END_HELP = {
    "setup_s": "one import of chaincell plus the median of 3 set-ups "
    "(build the seeded inputs and their answer key, run one item)",
    "batch_s": "wall time of the workload's fixed batch: the sum over its items of each "
    "item's median time over the runs in --seconds",
    "item_ms.p50": "median over the batch's items of each item's median wall time, "
    "as the Harrell-Davis estimate",
    "peak_rss_mb": "peak resident memory of the benchmark process or of its largest CLI child",
    "ok_frac": "share of attempted items that neither raised, answered wrongly, "
    "nor exited with an unexpected code (1 - fail share)",
    "answered_frac": "share of attempted items not refused by GuardExceeded or "
    "exit 4 (1 - refused share)",
}

PER_LAYER_HELP = """\
per-layer metrics (--trace 1), per traced pass = one batch plus a tiny
coverage probe that calls every traced layer once:
  <layer>.calls  calls of the public function (count, exact)
  <layer>.ms     wall ms inside it, children included; median over passes
  reduce.decompose.self_ms  decompose minus its minimize and barcode child
                 spans: rank accounting and the rebuilt-rho self-check
  reduce.minimize.disks, reduce.intervals  disks split, intervals found (exact)
  linalg.rank_k.cells  sum of rows*cols over rank_k calls (exact)
  oracle.candidates_worst  sum of the worst-case candidate counts the oracle
                 guards admitted, from ranks (exact)
  oracle.refusals  GuardExceeded raised (exact)
  cli.import_ms  bare `import chaincell` in a fresh process, median of 5
  kernels.*.us   one numpy kernel call: mat_mul 16x16 (zpsq, dual), rank_mod
                 32x32, mat_mul_many_right 256 x (8x8); median of 5
  trace.overhead traced / untraced batch_s; trace.base_batch_s is its base
which layer should move which end-to-end metric: perfbench/README.md
"""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    lines = ["workloads:"]
    lines += [f"  {w['name']:18} {w['why']}" for w in spec["workloads"]]
    lines.append("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        lines.append(f"  {m['name']:14} [{m['unit']}, {m['better']} is better, bound {m['bound']}]")
        lines.append(f"  {'':14} {END_TO_END_HELP[m['name']]}")
    lines.append(PER_LAYER_HELP)
    parser = argparse.ArgumentParser(
        description="Benchmark chaincell on seeded workloads whose answers are known.",
        epilog="\n".join(lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# running items


class Tally:
    """Counts and item times; a GuardExceeded that escapes an item is a refusal."""

    def __init__(self, guard_error):
        self.guard_error = guard_error
        self.attempted = self.failed = self.refused = 0
        self.item_ms = defaultdict(list)  # item label -> ms of each run
        self.errors = []

    def run(self, item, record=True):
        from workloads import FAILED, REFUSED

        t0 = clock()
        try:
            status = item.run()
        except self.guard_error:
            status = REFUSED
        except Exception as exc:  # any raise is a failed item, reported below
            status = FAILED
            if len(self.errors) < 5:
                self.errors.append(f"{item.label}: {exc!r}")
        elapsed = clock() - t0
        if record:
            self.item_ms[item.label].append(elapsed * 1e3)
        self.attempted += 1
        self.failed += status == FAILED
        self.refused += status == REFUSED
        return elapsed

    def batch(self, items):
        return sum(self.run(item) for item in items)


def repeat_for(seconds, fn):
    """Call fn at least once, and again while another call of the last one's
    length would end within `seconds`; return its results."""
    out = []
    deadline = clock() + seconds
    while True:
        t0 = clock()
        out.append(fn())
        if 2 * clock() - t0 > deadline:
            return out


def item_medians(tally):
    """Each item's median wall ms over its runs."""
    return [statistics.median(ms) for ms in tally.item_ms.values()]


def hd_median(values):
    """Harrell-Davis estimate of the median: a mean of the order statistics
    weighted by the Beta((n+1)/2, (n+1)/2) mass on their ranks.  Unlike the
    middle value it does not jump across a gap between neighbouring items."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def mass(lo, hi, steps=64):  # midpoint rule, so log(0) never occurs
        h = (hi - lo) / steps
        return h * sum(math.exp(log_norm + (a - 1) * (math.log(x) + math.log1p(-x)))
                       for x in (lo + (k + 0.5) * h for k in range(steps)))

    weights = [mass(i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def batch_s(tally):
    """The batch's time from the median run of each of its items."""
    return sum(item_medians(tally)) / 1e3


def tail(values):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return {"percentile": q, "value": statistics.quantiles(values, n=100)[q - 1], "n": n}


# ---------------------------------------------------------------------------
# per-layer extras


def kernel_rows():
    """Per-call microseconds of the numpy kernels at fixed sizes."""
    import numpy as np
    from chaincell import _kernels

    rng = np.random.default_rng(0)
    p = 3
    A16 = rng.integers(0, p * p, size=(16, 16), dtype=np.int64)
    B16 = rng.integers(0, p * p, size=(16, 16), dtype=np.int64)
    M32 = rng.integers(0, p, size=(32, 32), dtype=np.int64)
    A8 = rng.integers(0, p * p, size=(8, 8), dtype=np.int64)
    stack = rng.integers(0, p * p, size=(256, 8, 8), dtype=np.int64)
    rows = {
        "kernels.mat_mul_zpsq.us": lambda: _kernels.mat_mul(A16, B16, p, 1),
        "kernels.mat_mul_dual.us": lambda: _kernels.mat_mul(A16, B16, p, 0),
        "kernels.rank_mod.us": lambda: _kernels.rank_mod(M32, p),
        "kernels.mat_mul_many_right.us": lambda: _kernels.mat_mul_many_right(A8, stack, p, 1),
    }
    out = {}
    for name, fn in rows.items():
        number = 1
        while True:  # calibrate to about 40 ms per repeat
            t0 = clock()
            for _ in range(number):
                fn()
            if clock() - t0 > 0.04:
                break
            number *= 2
        samples = []
        for _ in range(5):
            t0 = clock()
            for _ in range(number):
                fn()
            samples.append((clock() - t0) / number * 1e6)
        out[name] = statistics.median(samples)
    return out


def import_ms():
    samples = []
    for _ in range(5):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import chaincell"], check=True, timeout=60)
        samples.append((clock() - t0) * 1e3)
    return statistics.median(samples)


def machine():
    import numpy as np

    try:  # a plain checkout is not a repository; do not look above it
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_sha": sha,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(args, items, tally, setup_s):
    batches = repeat_for(args.seconds, lambda: tally.batch(items))
    n = tally.attempted
    samples = [x for ms in tally.item_ms.values() for x in ms]
    metrics = {
        "setup_s": setup_s,
        "batch_s": batch_s(tally),
        "item_ms.p50": hd_median(item_medians(tally)),
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
        "ok_frac": (n - tally.failed) / n,
        "answered_frac": (n - tally.refused) / n,
    }
    details = {
        "batches": len(batches),
        "batch_s_median": statistics.median(batches),
        "item_ms_middle_item": statistics.median(item_medians(tally)),
        "batch_s_best_items": sum(min(ms) for ms in tally.item_ms.values()) / 1e3,
        "item_ms_median_of_all_runs": statistics.median(samples),
        "item_ms_tail": tail(samples),
    }
    return metrics, details


def traced_run(args, items, tally, workdir):
    import tracer
    import workloads

    half = args.seconds / 2
    base = repeat_for(half, lambda: tally.batch(items))
    base_s = batch_s(tally)
    tally.item_ms.clear()
    probe = workloads.build_probe(workdir)
    tr = tracer.Tracer(tally.guard_error).install(workloads)
    passes = []

    def one_pass():
        tr.reset()
        tally.batch(items)
        tally.run(probe, record=False)
        passes.append(tr.snapshot())

    try:
        repeat_for(half, one_pass)
    finally:
        tr.remove()
    exact = [tracer.exact_counters(s) for s in passes]
    if any(e != exact[0] for e in exact):
        tally.failed += 1
        tally.errors.append("exact counters differ between traced passes of one seed")
    metrics = {k: statistics.median(s[k] for s in passes) for k in passes[0]}
    metrics["trace.base_batch_s"] = base_s
    metrics["trace.overhead"] = batch_s(tally) / base_s
    metrics["cli.import_ms"] = import_ms()
    metrics.update(kernel_rows())
    details = {"untraced_batches": len(base), "traced_passes": len(passes), "exact": exact[0]}
    return metrics, details


def run_one(args, spec):
    if not (SRC / "chaincell" / "__init__.py").is_file():
        print(f"error: no chaincell sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # the kernel rows time the numpy kernels; CLI children import from src/
    os.environ.update(CHAINCELL_BACKEND="numpy", PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import chaincell

    import_s = clock() - t0
    if Path(chaincell.__file__).resolve().parent != SRC / "chaincell":
        print(f"error: imported chaincell from {chaincell.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    build = workloads.WORKLOADS[args.workload]
    tally = Tally(chaincell.GuardExceeded)
    with tempfile.TemporaryDirectory(prefix="_work", dir=HERE) as workdir:
        setups = []
        for _ in range(SETUP_REPS):
            t0 = clock()
            items = build(args.seed, workdir, inproc=bool(args.trace))
            if len({item.label for item in items}) != len(items):
                raise ValueError("item labels must be unique: item times are keyed by label")
            Tally(chaincell.GuardExceeded).run(items[0])  # warm-up; the batch re-runs and checks it
            setups.append(clock() - t0)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            metrics, details = traced_run(args, items, tally, workdir)
        else:
            metrics, details = timed_run(args, items, tally, setup_s)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    details.update(errors=tally.errors, setup_runs_s=setups)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine(), "details": details}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args, spec):
    """Every workload in its own process; a table, then one JSON line keyed by workload."""
    results = {}
    kind = "per_layer" if args.trace else "end_to_end"
    for w in spec["workloads"]:
        argv = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[w["name"]]
        print(f"{w['name']}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for m in spec[kind]:
            v = r["metrics"][m["name"]]
            print(f"  {m['name']:34} {v['value']:>14.6g} {v['unit']:6} ({m['better']} is better)")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
