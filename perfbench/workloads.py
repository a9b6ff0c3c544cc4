"""The benchmark's workloads: seeded inputs with known answers, and items
that run chaincell on them and check every answer.

Every input is a direct sum of named summands (see ``reference``),
scrambled by random invertible basis changes drawn from the seed.  The
summand lists are fixed per workload, or drawn with fixed lengths and
counts, so that the work in a batch barely moves from seed to seed
while the matrices chaincell sees are new for every seed.

An item's ``run()`` returns ``OK`` or ``REFUSED`` and raises
``Mismatch`` on a wrong answer.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chaincell import (
    GuardExceeded,
    brute_homology,
    chain_map_module,
    cross_check,
    decompose,
    direct_sum_all,
    disk,
    hom_complex,
    homology,
    interval,
    is_acyclic_over,
    is_cellular,
    parse_ring,
    tensor,
)
from chaincell import cli, lattice, ops, serialize
from chaincell.oracle import SizeGuard, hom_boundary_image_size
from chaincell.randgen import conjugated

import reference as ref

OK, REFUSED, FAILED = "ok", "refused", "failed"


class Mismatch(Exception):
    """chaincell gave an answer other than the known one."""


@dataclass
class Item:
    label: str
    run: Callable[[], str]


def _expect(label, got, want):
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, expected {want!r}")


def _summand(ring, s):
    return interval(ring, s[1], s[2]) if s[0] == "I" else disk(ring, s[1])


def _scrambled(ring, summands, rng):
    return conjugated(direct_sum_all(ring, [_summand(ring, s) for s in summands]), rng)


# ---------------------------------------------------------------------------
# decompose-disks: minimize dominates


DISK_RINGS = ("zpsq:3", "dual:3", "zpsq:5")
DISK_DEGREES = 6
DISK_SIZES = ((16, 40), (24, 85), (36, 130))  # (intervals, disks): total rank 132, 254, 386


def disk_summands(n_intervals, n_disks):
    """Interval lengths cycle through 0..5 and shifts through their range;
    disks cycle through D^1..D^5."""
    out = []
    for t in range(n_intervals):
        j = t % DISK_DEGREES
        out.append(("I", (t // DISK_DEGREES) % (DISK_DEGREES - j), j))
    out += [("D", 1 + t % (DISK_DEGREES - 1)) for t in range(n_disks)]
    return out


def _decompose_item(label, ring, summands, rng):
    X = _scrambled(ring, summands, rng)
    want_intervals, want_disks = ref.intervals_of(summands), ref.disks_of(summands)

    def run():
        dec = decompose(X)
        _expect(f"{label} intervals", dec.intervals, want_intervals)
        _expect(f"{label} disks", dec.disks, want_disks)
        return OK

    return Item(label, run)


def build_decompose_disks(seed, workdir, inproc):
    rng = np.random.default_rng(seed)
    items = []
    for n_int, n_disk in DISK_SIZES:
        for spec in DISK_RINGS:
            summands = disk_summands(n_int, n_disk)
            items.append(_decompose_item(f"{spec}/{n_int}i+{n_disk}d", parse_ring(spec), summands, rng))
    return items


# ---------------------------------------------------------------------------
# barcode-deep: tensor products are minimal; barcode and the self-check dominate


DEEP_RINGS = ("zpsq:3", "dual:3", "zpsq:5")
# interval lengths of each factor; the first spans all degrees, so the
# tensor has 13, 17 or 21 degrees and total rank 14*14, 20*20 or 25*25
DEEP_LENGTHS = ((6, 3, 1, 0), (8, 4, 2, 1, 0), (10, 6, 3, 1, 0))


def deep_summands(lengths, offset):
    """The first interval spans every degree; the others sit at spread-out shifts."""
    top = lengths[0]
    return [("I", 0, top)] + [("I", (offset + 2 * t) % (top - j + 1), j) for t, j in enumerate(lengths[1:])]


def build_barcode_deep(seed, workdir, inproc):
    rng = np.random.default_rng(seed)
    items = []
    for lengths in DEEP_LENGTHS:
        for spec in DEEP_RINGS:
            ring = parse_ring(spec)
            xs, ys = deep_summands(lengths, 0), deep_summands(lengths, 1)
            X, Y = _scrambled(ring, xs, rng), _scrambled(ring, ys, rng)
            want = ref.tensor_barcode(xs, ys, ring.p)
            label = f"{spec}/rank{sum(lengths) + len(lengths)}^2"

            def run(X=X, Y=Y, want=want, label=label):
                dec = decompose(tensor(X, Y))
                _expect(f"{label} intervals", dec.intervals, want)
                _expect(f"{label} disks", sum(dec.disks.values()), 0)
                return OK

            items.append(Item(label, run))
    return items


# ---------------------------------------------------------------------------
# oracle pairs: the brute-force enumerations


ORACLE_RINGS = ("zpsq:2", "dual:2", "zpsq:3", "dual:3")
# (X summands, A summands), at most 4 degrees and rank 3.  The first two
# are the heavy tail at p = 3 (the H0-epi search); others take the
# desuspended, support and acyclic-generator routes of cross_check.
ORACLE_PAIRS = (
    ((("I", 0, 0), ("I", 0, 1), ("I", 1, 1)), (("I", 0, 0), ("I", 0, 1))),
    ((("I", 0, 0), ("I", 0, 1)), (("I", 0, 0), ("I", 0, 1))),
    ((("I", 0, 0), ("I", 0, 1), ("I", 0, 2)), (("I", 0, 0), ("I", 1, 1))),
    ((("I", 0, 2), ("I", 1, 1), ("I", 2, 1)), (("I", 0, 1),)),
    ((("I", 1, 1), ("I", 1, 2), ("D", 2)), (("I", 1, 0),)),
    ((("I", 0, 1), ("D", 1), ("D", 3)), (("I", 1, 2),)),
    ((("I", 2, 1), ("D", 1)), (("D", 2),)),
    ((("I", 0, 3), ("I", 1, 2)), (("I", 0, 2),)),
    ((("D", 1), ("D", 2)), (("I", 0, 1),)),
    ((("I", 0, 1), ("I", 0, 1), ("I", 1, 2)), (("I", 0, 0),)),
)
# hom_complex enumerates Hom_1 at about 24 us a candidate; this guard
# keeps an admitted pair under a second and refuses the rest.
HOM_GUARD = SizeGuard(3**8)


def _summand_tables(ring):
    """Chain-map module and |im d_1| for each pair of single summands.

    Hom is additive in both arguments, so the answer for a scrambled sum
    is the sum (module ranks) or product (image sizes) over its summand
    pairs: a check of the scrambled enumeration against tiny plain ones.
    """
    kinds = {s for xs, as_ in ORACLE_PAIRS for s in xs + as_}
    module, image = {}, {}
    for sx in kinds:
        for sa in kinds:
            X, A = _summand(ring, sx), _summand(ring, sa)
            m = chain_map_module(X, A)
            module[(sx, sa)] = (m.free_rank, m.residue_rank)
            image[(sx, sa)] = hom_boundary_image_size(X, A)
    return module, image


def _hom_positive_ranks(xr, ar):
    ranks = [0] + [
        sum(xr[i] * ar[i + n] for i in range(len(xr)) if i + n < len(ar))
        for n in range(1, len(ar))
    ]
    while ranks and ranks[-1] == 0:
        ranks.pop()
    return ranks


def _oracle_item(label, ring, xs, as_, tables, rng):
    X, A = _scrambled(ring, xs, rng), _scrambled(ring, as_, rng)
    module, image = tables
    want_cell = ref.is_cellular(xs, as_)
    want_acyclic = ref.is_acyclic_over(xs, as_)
    want_h = ref.homology(xs)
    want_module = tuple(map(sum, zip(*[module[(sx, sa)] for sx in xs for sa in as_])))
    want_image = math.prod(image[(sx, sa)] for sx in xs for sa in as_)
    want_positive = _hom_positive_ranks(ref.ranks_of(xs), ref.ranks_of(as_))

    def run():
        cc = cross_check(X, A)
        _expect(f"{label} cross_check agree", cc.agree, True)
        _expect(f"{label} cross_check verdict", cc.lattice_verdict, want_cell)
        _expect(f"{label} is_cellular", is_cellular(X, A).holds, want_cell)
        _expect(f"{label} is_acyclic_over", is_acyclic_over(X, A).holds, want_acyclic)
        brute = [[d.free_rank, d.residue_rank] for d in brute_homology(X)]
        _expect(f"{label} brute_homology", brute, want_h)
        _expect(f"{label} homology", [[d.free_rank, d.residue_rank] for d in homology(X)], want_h)
        m = chain_map_module(X, A)
        _expect(f"{label} chain_map_module", (m.free_rank, m.residue_rank), want_module)
        try:
            h = hom_complex(X, A, guard=HOM_GUARD)
        except GuardExceeded:
            return REFUSED
        _expect(f"{label} hom degree0", (h.degree0.free_rank, h.degree0.residue_rank), want_module)
        _expect(f"{label} hom |im d1|", h.d1_image_size, want_image)
        _expect(f"{label} hom positive ranks", list(h.positive.ranks), want_positive)
        return OK

    return Item(label, run)


def build_oracle_crosscheck(seed, workdir, inproc):
    rng = np.random.default_rng(seed)
    items = []
    for spec in ORACLE_RINGS:
        ring = parse_ring(spec)
        tables = _summand_tables(ring)
        for k, (xs, as_) in enumerate(ORACLE_PAIRS):
            items.append(_oracle_item(f"{spec}/pair{k}", ring, xs, as_, tables, rng))
    # light pairs first, so warm-up runs a cheap one
    return items[::-1]


# ---------------------------------------------------------------------------
# CLI calls: canonical JSON in, one CLI process per call


def cli_subprocess(argv):
    """The CLI in a fresh process; run.py points PYTHONPATH at src/."""
    proc = subprocess.run(
        [sys.executable, "-m", "chaincell.cli", *argv], capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout


def cli_inprocess(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


# name -> (summands, ring spec); each file holds one scrambled complex
CLI_FILES = {
    "c1": (disk_summands(8, 14), "zpsq:3"),
    "c2": ((("I", 0, 1), ("I", 1, 2), ("D", 2)), "dual:2"),
    "c3": (disk_summands(12, 30), "dual:3"),
    "x": ((("I", 0, 2), ("I", 1, 1), ("D", 1)), "zpsq:2"),
    "a": ((("I", 0, 1),), "zpsq:2"),
    "b": ((("I", 1, 0),), "zpsq:2"),
    "p": ((("I", 0, 1),), "zpsq:2"),
    "q": ((("I", 0, 0),), "zpsq:2"),
}


# (subcommand, file names); cell and acyclic exit 0 then 1, and hom c1 c1
# exceeds the default guard: exit 4
CLI_CALLS = (
    ("decompose", "c1"), ("decompose", "c3"), ("homology", "c2"),
    ("cell", "x", "a"), ("cell", "a", "x"),
    ("acyclic", "x", "a"), ("acyclic", "x", "b"),
    ("hom", "p", "q"), ("hom", "c1", "c1"),
)


def _in_process_answer(cmd, complexes, keys):
    """(exit code, stdout, agrees with the answer key) computed in process."""
    X = complexes[0]
    if cmd == "decompose":
        dec = decompose(X)
        ok = dec.intervals == ref.intervals_of(keys[0]) and dec.disks == ref.disks_of(keys[0])
        return 0, serialize.decomposition_to_dict(dec), ok
    if cmd == "homology":
        hs = homology(X)
        return 0, serialize.homology_to_list(hs), serialize.homology_to_list(hs) == ref.homology(keys[0])
    if cmd in ("cell", "acyclic"):
        decide = lattice.is_cellular if cmd == "cell" else lattice.is_acyclic_over
        want = (ref.is_cellular if cmd == "cell" else ref.is_acyclic_over)(*keys)
        verdict = decide(*complexes)
        return (0 if verdict.holds else 1), verdict.to_json(), verdict.holds == want
    try:
        return 0, serialize.hom_to_dict(ops.hom_complex(*complexes)), True
    except GuardExceeded:
        return 4, None, True


def build_cli_roundtrip(seed, workdir, inproc):
    rng = np.random.default_rng(seed)
    files, complexes = {}, {}
    for name, (summands, spec) in CLI_FILES.items():
        X = _scrambled(parse_ring(spec), summands, rng)
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(serialize.dumps(serialize.complex_to_dict(X)) + "\n")
        files[name] = (path, summands)
        complexes[name] = serialize.load_complex(path)
    items = []
    for cmd, *names in CLI_CALLS:
        try:
            code, obj, key_ok = _in_process_answer(
                cmd, [complexes[n] for n in names], [files[n][1] for n in names]
            )
        except Exception:  # the item fails on its key check below
            code, obj, key_ok = None, None, False
        want_out = "" if obj is None else serialize.dumps(obj) + "\n"
        argv = [cmd] + [files[n][0] for n in names]
        label = " ".join([cmd] + names)

        def run(argv=argv, code=code, want_out=want_out, key_ok=key_ok, label=label):
            got_code, got_out = cli_inprocess(argv) if inproc else cli_subprocess(argv)
            _expect(f"{label} in-process answer matches the key", key_ok, True)
            _expect(f"{label} exit code", got_code, code)
            _expect(f"{label} stdout", got_out, want_out)
            return REFUSED if got_code == 4 else OK

        items.append(Item(label, run))
    return items


# ---------------------------------------------------------------------------
# the traced run's coverage probe


def build_probe(workdir):
    """One tiny call into every traced layer, so each per-layer metric is
    measured on every workload; its inputs are minimal, so it splits no disks."""
    ring = parse_ring("zpsq:2")
    xs, as_ = (("I", 0, 1), ("I", 1, 0)), (("I", 0, 0),)
    X = direct_sum_all(ring, [_summand(ring, s) for s in xs])
    A = _summand(ring, as_[0])
    path = os.path.join(workdir, "probe.json")
    with open(path, "w") as fh:
        fh.write(serialize.dumps(serialize.complex_to_dict(X)) + "\n")
    want_dec = serialize.dumps(serialize.decomposition_to_dict(decompose(X))) + "\n"

    def run():
        _expect("probe cross_check", cross_check(X, A).agree, True)
        _expect("probe hom", hom_complex(X, A).d1_image_size >= 1, True)
        _expect("probe tensor", decompose(tensor(X, A)).intervals, ref.tensor_barcode(xs, as_, ring.p))
        _expect("probe cli", cli_inprocess(["decompose", path]), (0, want_dec))
        return OK

    return Item("probe", run)


def build_oracle_cli(seed, workdir, inproc):
    """The oracle pairs, then the CLI calls: one batch for the layers the
    two reduce workloads barely touch, so that runs can be long enough to
    be steady within the benchmark's time budget."""
    return build_oracle_crosscheck(seed, workdir, inproc) + build_cli_roundtrip(seed, workdir, inproc)


WORKLOADS = {
    "decompose-disks": build_decompose_disks,
    "barcode-deep": build_barcode_deep,
    "oracle-cli": build_oracle_cli,
}
