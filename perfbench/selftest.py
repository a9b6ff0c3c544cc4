#!/usr/bin/env python3
"""Self-tests of the benchmark itself.  Run from the checkout root:

    python3 perfbench/selftest.py

1. The answer key for tensor products (``reference.tensor_pair_barcode``)
   agrees with chaincell's decompose on plain, unscrambled intervals.
2. For every workload, two traced runs of one seed report identical
   exact counters (calls, disks split, intervals, rank_k cells,
   candidates the guards admitted, refusals).
3. On decompose-disks, reduce.minimize.disks equals the number of
   hidden disks in the batch (the coverage probe splits none).
4. Every workload is correct on HOLDOUT_SEED, a seed not used while the
   benchmark was tuned; confirm a claimed gain on it too.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HOLDOUT_SEED = 1000003
SECONDS = "2"


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    *_, meta, result = proc.stdout.strip().splitlines()
    return json.loads(meta), json.loads(result)


def check_tensor_key():
    import reference
    from chaincell import decompose, interval, parse_ring, tensor

    for spec in ("zpsq:2", "dual:3", "zpsq:5"):
        ring = parse_ring(spec)
        for j in range(6):
            for k in range(6):
                got = decompose(tensor(interval(ring, 0, j), interval(ring, 0, k))).intervals
                want = reference.tensor_pair_barcode(j, k, ring.p)
                assert got == want, f"{spec} I(0,{j}) x I(0,{k}): {got} != {want}"


def main():
    sys.path.insert(0, str(SRC))
    import workloads

    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    try:
        check_tensor_key()
        check(True, "tensor answer key agrees with decompose on plain intervals")
    except AssertionError as exc:
        check(False, f"tensor answer key: {exc}")

    hidden = len(workloads.DISK_RINGS) * sum(d for _, d in workloads.DISK_SIZES)
    for name in workloads.WORKLOADS:
        (meta1, r1), (meta2, r2) = run(name, 1, 1), run(name, 1, 1)
        check(r1["correct"] and r2["correct"], f"{name}: traced runs correct")
        exact1, exact2 = meta1["details"]["exact"], meta2["details"]["exact"]
        check(exact1 == exact2, f"{name}: exact counters repeat for one seed")
        if name == "decompose-disks":
            disks = exact1["reduce.minimize.disks"]
            check(disks == hidden, f"{name}: minimize split {disks} disks, {hidden} hidden")
        _, held = run(name, HOLDOUT_SEED, 0)
        check(held["correct"] and held["failed"] == 0, f"{name}: correct on held-out seed {HOLDOUT_SEED}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
