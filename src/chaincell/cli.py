"""Command-line front end.

Exit codes: 0 success (and relation holds), 1 relation does not hold
(cell / acyclic / crosscheck), 2 usage error, 3 invalid input complex,
4 enumeration guard refusal, 5 internal error (any other exception,
such as running out of memory).  Results go to stdout in the canonical
formats; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import complexes, lattice, ops, oracle, randgen, reduce, serialize
from .errors import (
    DomainError,
    GuardExceeded,
    InvalidComplexError,
    UsageError,
)
from .ring import parse_ring

DEFAULT_RING = "zpsq:2"


def _count(text: str) -> int:
    """An integer argument that must be >= 0; argparse refuses anything else
    as a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", help="ring spec, e.g. zpsq:2 or dual:3")
    common.add_argument("--seed", type=_count, default=0, help="random seed")
    common.add_argument("--guard", type=_count, help="enumeration budget override")
    common.add_argument(
        "--output",
        choices=["compact", "pretty", "explain"],
        default="compact",
        help="output mode",
    )

    parser = argparse.ArgumentParser(
        prog="chaincell",
        description="exact decomposition and cellularity decisions for perfect complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *paths, help=None):
        sp = sub.add_parser(name, parents=[common], help=help)
        for p in paths:
            sp.add_argument(p)
        return sp

    add("validate", "file", help="check shapes and d*d = 0")
    add("homology", "file", help="homology as R^a + k^b per degree")
    add("minimize", "file", help="split off all embedded disks")
    add("decompose", "file", help="interval and disk multiplicities")
    add("cell", "file_x", "file_a", help="decide X >> A (cellularity)")
    add("acyclic", "file_x", "file_a", help="decide X > A (acyclicity)")
    add("cone", "file_map", help="mapping cone of a chain map file")
    add("sum", "file_x", "file_y", help="direct sum")
    add("tensor", "file_x", "file_y", help="tensor product")
    add("hom", "file_x", "file_y", help="hom complex")
    shift_p = add("shift", "file", help="suspension by n")
    shift_p.add_argument("amount", type=_count)
    gen_p = add("gen", help="emit a canonical complex")
    gen_p.add_argument("kind", choices=["sphere", "disk", "interval"])
    gen_p.add_argument("params", type=int, nargs="+")
    rand_p = add("rand", help="seeded random complex")
    rand_p.add_argument("--max-degree", type=_count, default=4)
    rand_p.add_argument("--max-rank", type=_count, default=3)
    rand_p.add_argument("--allow-units", action="store_true")
    add("crosscheck", "file_x", "file_a", help="lattice verdict vs brute-force H0 criterion")
    add("extension", "file_x", "file_z", help="random extension of Z by X")
    return parser


def _ring_override(args):
    return parse_ring(args.ring) if args.ring else None


def _load(args, attr="file", force=False):
    path = getattr(args, attr)
    return serialize.load_complex(
        path, force=force, ring_override=_ring_override(args)
    )


def _guard(args) -> oracle.SizeGuard:
    if args.guard is not None:
        return oracle.SizeGuard(args.guard)
    return oracle.SizeGuard()


def _emit(args, obj, explain_lines=None):
    if args.output == "explain" and explain_lines is not None:
        print("\n".join(explain_lines))
    else:
        mode = "pretty" if args.output == "explain" else args.output
        print(serialize.dumps(obj, mode))


def _cmd_validate(args):
    X = _load(args, force=True)
    problem = complexes.validate(X)
    if problem is None:
        _emit(args, {"ok": True}, [f"ok: valid complex over {X.ring}"])
        return 0
    print(f"invalid complex: {problem}", file=sys.stderr)
    _emit(args, {"ok": False, "diagnostic": problem}, [f"invalid: {problem}"])
    return 3


def _cmd_homology(args):
    X = _load(args)
    hs = reduce.homology(X)
    lines = [f"H_{n} = {d}" for n, d in enumerate(hs)]
    _emit(args, serialize.homology_to_list(hs), lines or ["zero complex"])
    return 0


def _cmd_minimize(args):
    X = _load(args)
    result = reduce.minimize(X)
    obj = {
        "minimal": serialize.complex_to_dict(result.minimal),
        "disks": [[n, result.disks.count(n)] for n in sorted(set(result.disks))],
    }
    lines = [
        f"split {len(result.disks)} disk(s): {sorted(result.disks)}",
        f"minimal part ranks: {list(result.minimal.ranks)}",
    ]
    _emit(args, obj, lines)
    return 0


def _cmd_decompose(args):
    X = _load(args)
    dec = reduce.decompose(X)
    lines = [
        "intervals: "
        + (
            ", ".join(f"({i},{j})x{m}" for (i, j), m in sorted(dec.intervals.items()))
            or "none"
        ),
        "disks: "
        + (", ".join(f"D^{n}x{m}" for n, m in sorted(dec.disks.items())) or "none"),
    ]
    _emit(args, serialize.decomposition_to_dict(dec), lines)
    return 0


def _relation(args, decide, name):
    X = _load(args, "file_x")
    A = _load(args, "file_a")
    verdict = decide(X, A)
    word = "holds" if verdict.holds else "does not hold"
    lines = [f"{name}: {word} (rule: {verdict.rule})"]
    if verdict.min_pair_x is not None or verdict.min_pair_a is not None:
        lines.append(f"min pair X: {verdict.min_pair_x}, min pair A: {verdict.min_pair_a}")
    if verdict.beta_x is not None or verdict.beta_a is not None:
        lines.append(f"bottom degree X: {verdict.beta_x}, A: {verdict.beta_a}")
    _emit(args, verdict.to_json(), lines)
    return 0 if verdict.holds else 1


def _cmd_cone(args):
    f = serialize.load_chain_map(args.file_map, ring_override=_ring_override(args))
    _emit(args, serialize.complex_to_dict(ops.cone(f)))
    return 0


def _cmd_sum(args):
    X = _load(args, "file_x")
    Y = _load(args, "file_y")
    _emit(args, serialize.complex_to_dict(ops.direct_sum(X, Y)))
    return 0


def _cmd_tensor(args):
    X = _load(args, "file_x")
    Y = _load(args, "file_y")
    _emit(args, serialize.complex_to_dict(ops.tensor(X, Y)))
    return 0


def _cmd_hom(args):
    X = _load(args, "file_x")
    Y = _load(args, "file_y")
    h = ops.hom_complex(X, Y, guard=_guard(args))
    lines = [
        f"degree 0 module: {h.degree0}",
        f"positive-degree ranks: {list(h.positive.ranks)}",
        f"|im d_1| = {h.d1_image_size}",
        "full complex available" if h.full is not None else "degree 0 reported up to isomorphism",
    ]
    _emit(args, serialize.hom_to_dict(h), lines)
    return 0


def _cmd_shift(args):
    X = _load(args)
    _emit(args, serialize.complex_to_dict(ops.shift(X, args.amount)))
    return 0


def _cmd_gen(args):
    ring = parse_ring(args.ring or DEFAULT_RING)
    kind, params = args.kind, args.params
    if kind == "sphere":
        if len(params) != 1:
            raise UsageError("gen sphere takes one parameter: the degree")
        X = complexes.sphere(ring, params[0])
    elif kind == "disk":
        if len(params) != 1:
            raise UsageError("gen disk takes one parameter: the degree")
        X = complexes.disk(ring, params[0])
    else:
        if len(params) != 2:
            raise UsageError("gen interval takes two parameters: shift and length")
        X = complexes.interval(ring, params[0], params[1])
    _emit(args, serialize.complex_to_dict(X))
    return 0


def _cmd_rand(args):
    ring = parse_ring(args.ring or DEFAULT_RING)
    rng = np.random.default_rng(args.seed)
    X = randgen.random_complex(
        ring,
        rng,
        max_degree=args.max_degree,
        max_rank=args.max_rank,
        allow_units=args.allow_units,
    )
    _emit(args, serialize.complex_to_dict(X))
    return 0


def _cmd_crosscheck(args):
    X = _load(args, "file_x")
    A = _load(args, "file_a")
    result = oracle.cross_check(X, A, _guard(args))
    report = [result.to_json(pair=[args.file_x, args.file_a], seed=args.seed)]
    lines = [
        f"lattice verdict: {result.lattice_verdict}",
        f"oracle verdict:  {result.oracle_verdict} (route: {result.route})",
        "agreement" if result.agree else "MISMATCH",
    ]
    _emit(args, report, lines)
    return 0 if result.agree else 1


def _cmd_extension(args):
    X = _load(args, "file_x")
    Z = _load(args, "file_z")
    ext = oracle.random_extension(X, Z, seed=args.seed)
    obj = {
        "total": serialize.complex_to_dict(ext.total),
        "inclusion": serialize.chain_map_to_dict(ext.inclusion),
        "projection": serialize.chain_map_to_dict(ext.projection),
        "seed": ext.seed,
    }
    _emit(args, obj)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "homology": _cmd_homology,
    "minimize": _cmd_minimize,
    "decompose": _cmd_decompose,
    "cell": lambda a: _relation(a, lattice.is_cellular, "X >> A"),
    "acyclic": lambda a: _relation(a, lattice.is_acyclic_over, "X > A"),
    "cone": _cmd_cone,
    "sum": _cmd_sum,
    "tensor": _cmd_tensor,
    "hom": _cmd_hom,
    "shift": _cmd_shift,
    "gen": _cmd_gen,
    "rand": _cmd_rand,
    "crosscheck": _cmd_crosscheck,
    "extension": _cmd_extension,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidComplexError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never exit 1, which means "does not hold"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
