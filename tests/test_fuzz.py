"""Fuzzing the JSON parsers and the CLI with hypothesis.

Only ``InvalidComplexError`` or ``UsageError`` may leave
``complex_from_dict`` and ``chain_map_from_dict``, and ``cli.run`` on
JSON files must exit with a documented code in {0, 1, 2, 3, 4} and
print no traceback.

Ranks stay at most 4 here, to keep the examples small.  The loader's
refusal of a file with more than ``MAX_CELLS`` generators is tested
elsewhere, not by this suite.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaincell import cli, serialize
from chaincell.errors import InvalidComplexError, UsageError

MAX_RANK = 4

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=12,
)
# sampled_from draws evenly, where a plain one_of or integers() draw leans
# towards its simplest choice: "rarely" is one draw in five
RARELY = [False, False, False, False, True]
# a missing key is one draw in eight
MISSING_KEY = [None] * 5 + ["ring", "ranks", "differentials", "source", "target", "mats"]


def mostly(good, bad):
    return st.sampled_from(RARELY).flatmap(lambda rare: bad if rare else good)


ring_values = mostly(
    st.sampled_from(["zpsq:2", "dual:2", "zpsq:3", "dual:3"]),
    st.one_of(st.sampled_from(["zpsq:4", "gauss:2", "zpsq", "dual:257", ""]), json_scalars),
)


def entries(in_m):
    """Mostly in range for every p; all in m for an in_m matrix, so d*d = 0 often holds."""
    a_parts = st.just(0) if in_m else st.integers(0, 1)
    return mostly(
        st.tuples(a_parts, st.integers(0, 1)).map(list),
        st.one_of(st.lists(st.integers(-1, 3), max_size=3), json_values),
    )


rank_lists = mostly(st.lists(st.integers(0, MAX_RANK), max_size=4), json_values)


def matrices(rows, cols):
    return st.booleans().flatmap(
        lambda in_m: st.lists(
            st.lists(entries(in_m), min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )


def any_matrix():
    return mostly(
        st.tuples(st.integers(0, MAX_RANK), st.integers(0, MAX_RANK)).flatmap(
            lambda shape: matrices(*shape)
        ),
        json_values,
    )


@st.composite
def complex_dicts(draw):
    if draw(st.sampled_from(RARELY)):
        return draw(json_values)
    ranks = draw(rank_lists)
    shaped = isinstance(ranks, list) and all(type(r) is int and 0 <= r <= MAX_RANK for r in ranks)
    if shaped and not draw(st.sampled_from(RARELY)):
        diffs = [draw(matrices(ranks[n - 1], ranks[n])) for n in range(1, len(ranks))]
    else:
        diffs = draw(mostly(st.lists(any_matrix(), max_size=4), json_values))
    data = {"ring": draw(ring_values), "ranks": ranks, "differentials": diffs}
    data.pop(draw(st.sampled_from(MISSING_KEY)), None)
    return data


def with_ring_of(draw, x, y):
    """Mostly give y the ring of x, so that two-complex inputs get past the ring check."""
    if isinstance(x, dict) and isinstance(y, dict) and "ring" in x:
        y["ring"] = draw(mostly(st.just(x["ring"]), ring_values))
    return y


@st.composite
def chain_map_dicts(draw):
    if draw(st.sampled_from(RARELY)):
        return draw(json_values)
    source = draw(complex_dicts())
    target = with_ring_of(draw, source, draw(complex_dicts()))
    mats = draw(mostly(st.lists(any_matrix(), max_size=4), json_values))
    try:
        X, Y = serialize.complex_from_dict(source), serialize.complex_from_dict(target)
    except (InvalidComplexError, UsageError):
        X = None
    if X is not None and not draw(st.sampled_from(RARELY)):
        # shaped Y.rank(n) x X.rank(n) in every degree; the zero map always
        # commutes, random entries seldom do
        zero = draw(st.booleans())
        mats = [
            [[[0, 0]] * X.rank(n)] * Y.rank(n) if zero else draw(matrices(Y.rank(n), X.rank(n)))
            for n in range(max(len(X.ranks), len(Y.ranks)))
        ]
    data = {"source": source, "target": target, "mats": mats}
    data.pop(draw(st.sampled_from(MISSING_KEY)), None)
    return data


@settings(max_examples=300, deadline=None)
@given(complex_dicts())
def test_complex_parser_raises_only_documented_errors(data):
    try:
        serialize.complex_from_dict(data)
    except (InvalidComplexError, UsageError):
        pass


@settings(max_examples=200, deadline=None)
@given(chain_map_dicts())
def test_chain_map_parser_raises_only_documented_errors(data):
    try:
        serialize.chain_map_from_dict(data)
    except (InvalidComplexError, UsageError):
        pass


TWO_FILE_COMMANDS = ["cell", "acyclic", "sum", "tensor", "hom", "crosscheck", "extension"]
ONE_FILE_COMMANDS = ["validate", "homology", "minimize", "decompose", "shift"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_exits_with_documented_code(data):
    command = data.draw(st.sampled_from(ONE_FILE_COMMANDS + TWO_FILE_COMMANDS + ["cone"]))
    if command == "cone":
        objs, args = [data.draw(chain_map_dicts())], []
    else:
        objs, args = [data.draw(complex_dicts())], (["1"] if command == "shift" else [])
        if command in TWO_FILE_COMMANDS:
            objs.append(with_ring_of(data.draw, objs[0], data.draw(complex_dicts())))
        if command in ("hom", "crosscheck"):  # the subcommands that read --guard
            args = ["--guard", "4096"]
    output = data.draw(st.sampled_from(["compact", "pretty", "explain"]))
    with tempfile.TemporaryDirectory() as workdir:
        paths = []
        for k, obj in enumerate(objs):
            paths.append(os.path.join(workdir, f"{k}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(obj, fh)
        argv = [command, *paths, *args, "--output", output]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    assert code in {0, 1, 2, 3, 4}, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "unrecognized arguments" not in err.getvalue(), argv  # the handler ran
