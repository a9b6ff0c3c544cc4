"""Canonical text formats for complexes, maps, decompositions, reports.

One writer, fixed key order, so emitted files are byte-reproducible:
parse(emit(x)) == x and emit(parse(emit(x))) == emit(x).  Parsers
reject out-of-range entry pairs always.  Only a complex can be forced:
under force=True its shape violations and d*d != 0 pass, so that the
``validate`` command can diagnose them.  Chain maps are always checked.
"""

from __future__ import annotations

import json

import numpy as np

from .complexes import ChainComplex, make_complex
from .errors import InvalidComplexError, UsageError
from .linalg import MatrixR
from .ops import ChainMap, HomComplex, is_chain_map
from .reduce import Decomposition
from .ring import RingSpec, parse_ring


def dumps(obj, mode: str = "compact") -> str:
    if mode == "pretty":
        return json.dumps(obj, indent=2)
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# complexes


def complex_to_dict(X: ChainComplex) -> dict:
    return {
        "ring": str(X.ring),
        "ranks": list(X.ranks),
        "differentials": [X.d(n).pairs() for n in range(1, len(X.ranks))],
    }


def _is_int(v) -> bool:
    """JSON integers only: Python parses true/false as bools, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_matrix(ring: RingSpec, rows, expected_shape, force: bool = False):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise InvalidComplexError("differential must be a list of rows")
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else expected_shape[1]
    if any(len(r) != n_cols for r in rows):
        raise InvalidComplexError("ragged differential rows")
    shape = (n_rows, n_cols)
    if shape != expected_shape and not force:
        raise InvalidComplexError(
            f"differential shape {shape} does not match ranks {expected_shape}"
        )
    for row in rows:
        for pair in row:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(_is_int(v) for v in pair)
            ):
                raise InvalidComplexError(f"bad entry {pair!r}; expected [a, b]")
            if not (0 <= pair[0] < ring.p and 0 <= pair[1] < ring.p):
                raise InvalidComplexError(
                    f"entry {pair} out of range for p={ring.p}"
                )
    pairs = np.array(rows, dtype=np.int64).reshape(shape + (2,))
    return MatrixR(ring, pairs[..., 0] + ring.p * pairs[..., 1])


def complex_from_dict(data, force: bool = False, ring_override: RingSpec = None) -> ChainComplex:
    if not isinstance(data, dict):
        raise InvalidComplexError("complex file must hold a JSON object")
    for key in ("ring", "ranks", "differentials"):
        if key not in data:
            raise InvalidComplexError(f"missing key {key!r}")
    if not isinstance(data["ring"], str):
        raise InvalidComplexError("ring must be a string such as 'zpsq:2'")
    ring = parse_ring(data["ring"])
    if ring_override is not None and ring != ring_override:
        raise UsageError(
            f"ring {ring} in file does not agree with requested {ring_override}"
        )
    ranks = data["ranks"]
    if not isinstance(ranks, list) or any(not _is_int(r) or r < 0 for r in ranks):
        raise InvalidComplexError("ranks must be non-negative integers")
    mats_raw = data["differentials"]
    if not isinstance(mats_raw, list):
        raise InvalidComplexError("differentials must be a list of matrices")
    expected = max(len(ranks) - 1, 0)
    if len(mats_raw) != expected and not force:
        raise InvalidComplexError(
            f"expected {expected} differentials, found {len(mats_raw)}"
        )
    mats = []
    for n, rows in enumerate(mats_raw, start=1):
        shape = (
            ranks[n - 1] if n - 1 < len(ranks) else 0,
            ranks[n] if n < len(ranks) else 0,
        )
        mats.append(_parse_matrix(ring, rows, shape, force))
    if force:
        return ChainComplex(ring, tuple(ranks), tuple(mats))
    try:
        return make_complex(ring, ranks, mats, check=True)
    except InvalidComplexError:
        raise
    except Exception as exc:  # defensive: surface anything odd as invalid input
        raise InvalidComplexError(str(exc)) from exc


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidComplexError(f"{path}: not valid JSON ({exc})") from exc


def load_complex(path, force: bool = False, ring_override: RingSpec = None) -> ChainComplex:
    return complex_from_dict(_read_json(path), force=force, ring_override=ring_override)


# ---------------------------------------------------------------------------
# chain maps


def chain_map_to_dict(f: ChainMap) -> dict:
    return {
        "source": complex_to_dict(f.source),
        "target": complex_to_dict(f.target),
        "mats": [f.mat(n).pairs() for n in range(f.degrees)],
    }


def chain_map_from_dict(data, ring_override: RingSpec = None) -> ChainMap:
    if not isinstance(data, dict):
        raise InvalidComplexError("chain map file must hold a JSON object")
    for key in ("source", "target", "mats"):
        if key not in data:
            raise InvalidComplexError(f"missing key {key!r}")
    source = complex_from_dict(data["source"], ring_override=ring_override)
    target = complex_from_dict(data["target"], ring_override=ring_override)
    degrees = max(len(source.ranks), len(target.ranks))
    mats_raw = data["mats"]
    if not isinstance(mats_raw, list):
        raise InvalidComplexError("mats must be a list of matrices")
    if len(mats_raw) != degrees:
        raise InvalidComplexError(
            f"expected {degrees} matrices, found {len(mats_raw)}"
        )
    mats = [
        _parse_matrix(source.ring, rows, (target.rank(n), source.rank(n)))
        for n, rows in enumerate(mats_raw)
    ]
    f = ChainMap(source, target, tuple(mats))
    problem = is_chain_map(f)
    if problem is not None:
        raise InvalidComplexError(f"not a chain map: {problem}")
    return f


def load_chain_map(path, ring_override: RingSpec = None) -> ChainMap:
    return chain_map_from_dict(_read_json(path), ring_override=ring_override)


# ---------------------------------------------------------------------------
# results


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "intervals": [
            [i, j, dec.intervals[(i, j)]] for i, j in sorted(dec.intervals)
        ],
        "disks": [[n, dec.disks[n]] for n in sorted(dec.disks)],
    }


def homology_to_list(descriptors) -> list:
    return [[d.free_rank, d.residue_rank] for d in descriptors]


def hom_to_dict(h: HomComplex) -> dict:
    return {
        "degree0": [h.degree0.free_rank, h.degree0.residue_rank],
        "d1ImageSize": h.d1_image_size,
        "positive": complex_to_dict(h.positive),
        "full": complex_to_dict(h.full) if h.full is not None else None,
    }
