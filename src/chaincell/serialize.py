"""Canonical text formats for complexes, maps, decompositions, reports.

One writer, fixed key order, so emitted files are byte-reproducible:
parse(emit(x)) == x and emit(parse(emit(x))) == emit(x).  The parsers
check only what a file can get wrong before it is a complex or a map:
JSON structure, entry types and ranges, ragged rows, the degree cap and
the cap on generators, both checked before any matrix is parsed.
The rules of a complex (the number of differentials, their shapes and
d*d = 0) are ``complexes.validate``'s, run on the complex as written,
before trailing zero ranks are trimmed; its diagnostic is the
``InvalidComplexError``.  Chain maps are checked by ``ops.is_chain_map``.
"""

from __future__ import annotations

import json

import numpy as np

from .complexes import (
    ChainComplex,
    _check_degrees,
    _check_generators,
    _inherit_verdict,
    make_complex,
    validate,
)
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


def _parse_matrix(ring: RingSpec, rows, cols: int) -> MatrixR:
    """A matrix from a list of rows of entry pairs; an empty list of rows
    is a 0 x cols matrix."""
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise InvalidComplexError("differential must be a list of rows")
    n_cols = len(rows[0]) if rows else cols
    if any(len(r) != n_cols for r in rows):
        raise InvalidComplexError("ragged differential rows")
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
    pairs = np.array(rows, dtype=np.int64).reshape((len(rows), n_cols, 2))
    return MatrixR(ring, pairs[..., 0] + ring.p * pairs[..., 1])


def complex_from_dict(data, ring_override: RingSpec = None) -> ChainComplex:
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
    _check_degrees(len(ranks))
    _check_generators(ranks)
    mats_raw = data["differentials"]
    if not isinstance(mats_raw, list):
        raise InvalidComplexError("differentials must be a list of matrices")
    mats = [
        _parse_matrix(ring, rows, ranks[n] if n < len(ranks) else 0)
        for n, rows in enumerate(mats_raw, start=1)
    ]
    problem = validate(ChainComplex(ring, tuple(ranks), tuple(mats)))
    if problem is not None:
        raise InvalidComplexError(problem)
    return _inherit_verdict(make_complex(ring, ranks, mats, check=False))


def _read_json(path):
    """The JSON value in a UTF-8 file; a file that is not UTF-8, not JSON,
    or nested too deep to parse is invalid input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise InvalidComplexError(f"{path}: not valid JSON ({exc})") from exc


def load_complex(path, ring_override: RingSpec = None) -> ChainComplex:
    return complex_from_dict(_read_json(path), ring_override=ring_override)


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
        _parse_matrix(source.ring, rows, source.rank(n))
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
