import json

import numpy as np
import pytest

from chaincell import cli, linalg, serialize
from chaincell.complexes import disk, empty, interval, sphere
from chaincell.errors import InvalidComplexError, UsageError
from chaincell.ops import identity_map, make_chain_map
from chaincell.ring import RingSpec

from conftest import bounded_random_complex, from_elements

Z4 = RingSpec("zpsq", 2)


# ---------------------------------------------------------------------------
# serialization


def test_complex_round_trip(ring, rng):
    for _ in range(20):
        X = bounded_random_complex(ring, rng)
        text = serialize.dumps(serialize.complex_to_dict(X))
        back = serialize.complex_from_dict(json.loads(text))
        assert back == X
        assert serialize.dumps(serialize.complex_to_dict(back)) == text


def test_empty_complex_round_trip(ring):
    d = serialize.complex_to_dict(empty(ring))
    assert d == {"ring": str(ring), "ranks": [], "differentials": []}
    assert serialize.complex_from_dict(d) == empty(ring)


def test_parser_rejections():
    with pytest.raises(InvalidComplexError):
        serialize.complex_from_dict({"ring": "zpsq:2", "ranks": [1]})
    with pytest.raises(InvalidComplexError):
        serialize.complex_from_dict(
            {"ring": "zpsq:2", "ranks": [1, 1], "differentials": [[[[2, 0]]]]}
        )
    with pytest.raises(InvalidComplexError):
        serialize.complex_from_dict(
            {"ring": "zpsq:2", "ranks": [1, 1], "differentials": [[[[0, 1], [0, 1]]]]}
        )
    bad_dd = {
        "ring": "zpsq:2",
        "ranks": [1, 1, 1],
        "differentials": [[[[1, 0]]], [[[1, 0]]]],
    }
    with pytest.raises(InvalidComplexError, match=r"^degree 1: d1\*d2 != 0$"):
        serialize.complex_from_dict(bad_dd)


def test_out_of_range_rejected_before_the_complex_rules():
    # a missing differential too: the parser's own entry check comes first
    data = {"ring": "zpsq:2", "ranks": [1, 1, 1], "differentials": [[[[5, 0]]]]}
    with pytest.raises(InvalidComplexError, match="out of range"):
        serialize.complex_from_dict(data)


def test_ring_override_agreement():
    d = serialize.complex_to_dict(sphere(Z4, 0))
    assert serialize.complex_from_dict(d, ring_override=Z4) == sphere(Z4, 0)
    with pytest.raises(UsageError):
        serialize.complex_from_dict(d, ring_override=RingSpec("dual", 2))


def test_chain_map_round_trip(ring):
    f = make_chain_map(
        interval(ring, 0, 1),
        interval(ring, 0, 0),
        [from_elements(ring, [[ring.r()]]), linalg.zeros(ring, 0, 1)],
    )
    text = serialize.dumps(serialize.chain_map_to_dict(f))
    back = serialize.chain_map_from_dict(json.loads(text))
    assert back.source == f.source and back.target == f.target
    assert all(back.mat(n) == f.mat(n) for n in range(back.degrees))
    bad = json.loads(text)
    bad["mats"][0] = [[[1, 0]]]
    with pytest.raises(InvalidComplexError):
        serialize.chain_map_from_dict(bad)


# ---------------------------------------------------------------------------
# CLI


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize.dumps(obj))
    return str(path)


# not complexes: d1*d2 != 0, a missing differential, a 2x2 differential
# against ranks [1, 1]; DIAGNOSTIC holds what validate says of each
DIAGNOSTIC = {
    "dd": "degree 1: d1*d2 != 0",
    "missing": "expected 2 differentials, found 1",
    "shape": "degree 1: differential shape 2x2, expected 1x1",
}
INVALID = {
    "dd": {"ring": "zpsq:2", "ranks": [1, 1, 1], "differentials": [[[[1, 0]]], [[[1, 0]]]]},
    "missing": {"ring": "zpsq:2", "ranks": [1, 1, 1], "differentials": [[[[1, 0]]]]},
    "shape": {
        "ring": "zpsq:2",
        "ranks": [1, 1],
        "differentials": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
    },
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["E01"] = _write(tmp_path, "E01.json", serialize.complex_to_dict(interval(Z4, 0, 1)))
    paths["E02"] = _write(tmp_path, "E02.json", serialize.complex_to_dict(interval(Z4, 0, 2)))
    paths["D1"] = _write(tmp_path, "D1.json", serialize.complex_to_dict(disk(Z4, 1)))
    paths["S1"] = _write(tmp_path, "S1.json", serialize.complex_to_dict(sphere(Z4, 1)))
    paths["bad"] = _write(tmp_path, "bad.json", INVALID["dd"])
    return paths


ONE_FILE = ["homology", "minimize", "decompose", "shift"]
TWO_FILE = ["cell", "acyclic", "sum", "tensor", "hom", "crosscheck", "extension"]


def _invalid_argvs(tmp_path, name):
    """Every subcommand that reads complexes, on the invalid complex ``name``
    (in each file position, and as either end of a chain map for cone)."""
    bad = _write(tmp_path, "bad.json", INVALID[name])
    good_dict = serialize.complex_to_dict(interval(Z4, 0, 1))
    good = _write(tmp_path, "good.json", good_dict)
    argvs = [[cmd, bad] + (["1"] if cmd == "shift" else []) for cmd in ONE_FILE]
    argvs += [[cmd, bad, good] for cmd in TWO_FILE] + [[cmd, good, bad] for cmd in TWO_FILE]
    for end in ("source", "target"):
        ends = {"source": good_dict, "target": good_dict, end: INVALID[name]}
        argvs.append(["cone", _write(tmp_path, f"map_{end}.json", {**ends, "mats": []})])
    return argvs


def test_cli_cell_exit_codes(files, capsys):
    assert cli.run(["cell", files["E02"], files["E01"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"holds": True, "rule": "lex", "minPairX": [0, 2], "minPairA": [0, 1]}
    assert cli.run(["cell", files["E01"], files["E02"]]) == 1


def test_cli_acyclic(files, capsys):
    assert cli.run(["acyclic", files["E01"], files["E02"]]) == 0
    capsys.readouterr()
    assert cli.run(["acyclic", files["E02"], files["S1"]]) == 1


def test_cli_decompose(files, capsys):
    assert cli.run(["decompose", files["D1"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"intervals": [], "disks": [[1, 1]]}


def test_cli_validate(files, capsys):
    assert cli.run(["validate", files["E02"]]) == 0
    capsys.readouterr()
    assert cli.run(["validate", files["bad"]]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert "degree 1" in captured.err


def test_cli_invalid_input_exit_3(files, capsys):
    assert cli.run(["decompose", files["bad"]]) == 3
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(INVALID))
def test_cli_refuses_every_invalid_complex(tmp_path, capsys, name):
    # no subcommand but validate computes on a file that is not a complex,
    # and each refuses it with the diagnostic validate prints
    for argv in _invalid_argvs(tmp_path, name):
        assert cli.run(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"invalid input: {DIAGNOSTIC[name]}\n", argv


@pytest.mark.parametrize("name", sorted(INVALID))
def test_cli_validate_diagnoses_every_invalid_complex(tmp_path, capsys, name):
    assert cli.run(["validate", _write(tmp_path, "bad.json", INVALID[name])]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"ok": False, "diagnostic": DIAGNOSTIC[name]}
    assert captured.err == f"invalid input: {DIAGNOSTIC[name]}\n"


@pytest.mark.parametrize(
    "text, diagnostic",
    [
        ("{", "not valid JSON"),
        ('{"ring": "zpsq:2", "ranks": [1]}', "missing key 'differentials'"),
        ('{"ring": "zpsq:2", "ranks": [2, 1], "differentials": [[[[0, 0]], []]]}',
         "ragged differential rows"),
        ('{"ring": "zpsq:2", "ranks": [1, 1], "differentials": [[[[0, 7]]]]}', "out of range"),
    ],
    ids=["json", "key", "ragged", "entry"],
)
def test_cli_validate_reports_parser_refusals(tmp_path, capsys, text, diagnostic):
    # what the parser refuses before there is a complex, validate reports as well
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.run(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["ok"] is False and diagnostic in out["diagnostic"]
    assert captured.err == f"invalid input: {out['diagnostic']}\n"


# one call of every subcommand, on valid inputs
EVERY_SUBCOMMAND = [
    ["validate", "E01"],
    ["homology", "E01"],
    ["minimize", "E01"],
    ["decompose", "E01"],
    ["cell", "E02", "E01"],
    ["acyclic", "E01", "E02"],
    ["cone", "map"],
    ["sum", "E01", "S1"],
    ["tensor", "E01", "S1"],
    ["hom", "D1", "D1"],
    ["shift", "E01", "1"],
    ["gen", "sphere", "0"],
    ["rand"],
    ["crosscheck", "E02", "E01"],
    ["extension", "E01", "S1"],
]

# the flags a subcommand reads besides --ring and --output, which all read
READS = {"rand": {"--seed"}, "crosscheck": {"--seed", "--guard"}, "extension": {"--seed"},
         "hom": {"--guard"}}


def _every_subcommand_argv(files, tmp_path, argv):
    files["map"] = _write(
        tmp_path, "map.json", serialize.chain_map_to_dict(identity_map(interval(Z4, 0, 1)))
    )
    return [files.get(a, a) for a in argv]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_cli_force_is_not_an_option(files, tmp_path, capsys, argv):
    argv = _every_subcommand_argv(files, tmp_path, argv)
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert cli.run(argv + ["--force"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --force" in captured.err


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_cli_accepts_only_the_flags_it_reads(files, tmp_path, capsys, argv):
    argv = _every_subcommand_argv(files, tmp_path, argv)
    assert cli.run(argv + ["--ring", "zpsq:2", "--output", "pretty"]) == 0
    capsys.readouterr()
    for flag in ("--seed", "--guard"):
        code = cli.run(argv + [flag, "4096"])
        captured = capsys.readouterr()
        if flag in READS.get(argv[0], ()):
            assert code == 0, flag
        else:
            assert code == 2, flag
            assert captured.out == ""
            assert f"unrecognized arguments: {flag} 4096" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["rand", "--max-rank", "-1"],
        ["rand", "--max-degree", "-3"],
        ["rand", "--max-degree", "-1"],
        ["rand", "--seed", "-1"],
        ["shift", "E01", "-1"],
        ["hom", "D1", "D1", "--guard", "-5"],
        ["crosscheck", "E02", "E01", "--guard", "-1"],
    ],
    ids=" ".join,
)
def test_cli_negative_integer_arguments_exit_2(files, capsys, argv):
    assert cli.run([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error" not in captured.err
    assert "expected an integer >= 0" in captured.err


def test_cli_json_booleans_exit_3(tmp_path, capsys):
    # JSON true/false are not integers, although Python's bool subclasses int
    both = {"ring": "zpsq:2", "ranks": [True, True], "differentials": [[[[True, False]]]]}
    assert cli.run(["decompose", _write(tmp_path, "both.json", both)]) == 3
    assert "invalid" in capsys.readouterr().err
    for data in (
        {"ring": "zpsq:2", "ranks": [True, 1], "differentials": [[[[1, 0]]]]},
        {"ring": "zpsq:2", "ranks": [1, 1], "differentials": [[[[1, False]]]]},
    ):
        with pytest.raises(InvalidComplexError):
            serialize.complex_from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"ring": 5, "ranks": [1], "differentials": []}, "ring must be a string"),
        ({"ring": None, "ranks": [1], "differentials": []}, "ring must be a string"),
        ({"ring": "zpsq:2", "ranks": [1, 1], "differentials": 5}, "differentials must be a list"),
        ({"ring": "zpsq:2", "ranks": [], "differentials": {}}, "differentials must be a list"),
    ],
)
def test_cli_malformed_fields_exit_3(tmp_path, capsys, data, message):
    # a non-string ring and a non-list differentials field crashed the
    # parser (exit 5), and {} was reported as "expected 0, found 0"
    assert cli.run(["decompose", _write(tmp_path, "bad.json", data)]) == 3
    assert message in capsys.readouterr().err


def test_cli_chain_map_mats_not_a_list_exit_3(tmp_path, capsys):
    X = serialize.complex_to_dict(sphere(Z4, 0))
    path = _write(tmp_path, "map.json", {"source": X, "target": X, "mats": 5})
    assert cli.run(["cone", path]) == 3
    assert "mats must be a list" in capsys.readouterr().err


def test_cli_directory_path_exit_2(files, tmp_path, capsys):
    # exit 1 means "relation does not hold"; an unreadable path is a usage error
    assert cli.run(["cell", str(tmp_path), files["E01"]]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_usage_errors(files, tmp_path, capsys):
    dual = _write(tmp_path, "dual.json", serialize.complex_to_dict(sphere(RingSpec("dual", 2), 0)))
    assert cli.run(["cell", files["E01"], dual]) == 2
    assert cli.run(["homology", str(tmp_path / "missing.json")]) == 2
    assert cli.run(["homology", files["E01"], "--ring", "dual:2"]) == 2
    # p beyond the int64 bound is refused like a non-prime p
    big = tmp_path / "big.json"
    big.write_text('{"ring": "zpsq:65537", "ranks": [1], "differentials": []}')
    assert cli.run(["homology", str(big)]) == 2
    assert cli.run(["gen", "sphere", "0", "--ring", "dual:257"]) == 2


def test_cli_guard_refusal(files, capsys):
    assert cli.run(["crosscheck", files["E02"], files["E01"], "--guard", "2"]) == 4
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("error", [RuntimeError("bug"), MemoryError()], ids=repr)
def test_cli_internal_error_exit_5(files, monkeypatch, capsys, error):
    # exit 1 means "relation does not hold"; a crash must not look like it
    def crash(args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "decompose", crash)
    assert cli.run(["decompose", files["D1"]]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    assert len(captured.err.splitlines()) == 1


def test_cli_gen_rand_round_trip(tmp_path, capsys):
    assert cli.run(["gen", "interval", "0", "2", "--ring", "dual:3"]) == 0
    text = capsys.readouterr().out.strip()
    X = serialize.complex_from_dict(json.loads(text))
    assert X == interval(RingSpec("dual", 3), 0, 2)
    assert serialize.dumps(serialize.complex_to_dict(X)) == text

    assert cli.run(["rand", "--seed", "5", "--ring", "zpsq:3", "--max-degree", "3"]) == 0
    text = capsys.readouterr().out.strip()
    Y = serialize.complex_from_dict(json.loads(text))
    assert serialize.dumps(serialize.complex_to_dict(Y)) == text
    # identical seed, identical bytes
    assert cli.run(["rand", "--seed", "5", "--ring", "zpsq:3", "--max-degree", "3"]) == 0
    assert capsys.readouterr().out.strip() == text


def test_cli_gen_parameter_errors(capsys):
    assert cli.run(["gen", "disk", "0"]) == 2
    assert cli.run(["gen", "interval", "1"]) == 2


def test_cli_rand_allow_units(capsys):
    from chaincell.complexes import validate

    assert cli.run(["rand", "--seed", "3", "--allow-units", "--max-degree", "2"]) == 0
    X = serialize.complex_from_dict(json.loads(capsys.readouterr().out))
    assert validate(X) is None


def test_cli_large_rank_without_differentials(tmp_path, monkeypatch, capsys):
    # rank 200000 in one degree: the answers need no rank x rank array, so
    # building one (the identity a certificate starts from) is a failure
    eye = np.eye

    def small_eye(n, *args, **kwargs):
        if n > 1000:
            raise AssertionError(f"np.eye({n}) called")
        return eye(n, *args, **kwargs)

    monkeypatch.setattr(np, "eye", small_eye)
    big = _write(tmp_path, "big.json", {"ring": "zpsq:2", "ranks": [200000], "differentials": []})
    assert cli.run(["homology", big]) == 0
    assert capsys.readouterr().out == "[[200000,0]]\n"
    assert cli.run(["cell", big, big]) == 0
    assert json.loads(capsys.readouterr().out)["minPairX"] == [0, 0]
    assert cli.run(["minimize", big]) == 0
    assert json.loads(capsys.readouterr().out)["minimal"]["ranks"] == [200000]


def test_cli_refuses_a_file_whose_ranks_pass_the_cell_cap(tmp_path, monkeypatch, capsys):
    # every declared generator costs memory, whatever its differentials
    # hold, so the loader refuses ranks that sum past the cap before any
    # matrix is parsed or any array allocated
    from chaincell import complexes
    from chaincell.errors import GuardExceeded

    huge = _write(tmp_path, "huge.json", {"ring": "zpsq:2", "ranks": [99999999999999], "differentials": []})
    zero = [0, 0]
    five = {"ring": "zpsq:2", "ranks": [1, 2, 2], "differentials": [[[zero, zero]], [[zero, zero]] * 2]}
    five_path = _write(tmp_path, "five.json", five)
    monkeypatch.setattr(complexes, "MAX_CELLS", 5)
    assert cli.run(["homology", five_path]) == 0  # at the cap
    capsys.readouterr()

    def no_alloc(*args, **kwargs):
        raise AssertionError("an array was allocated for a file past the cap")

    for name in ("array", "asarray", "zeros", "empty", "eye"):
        monkeypatch.setattr(np, name, no_alloc)
    monkeypatch.setattr(complexes, "MAX_CELLS", 4)
    with pytest.raises(GuardExceeded, match="5 generators exceed the cap of 4") as info:
        serialize.complex_from_dict(five)
    assert info.value.required == 5
    monkeypatch.setattr(complexes, "MAX_CELLS", 1 << 26)
    assert cli.run(["homology", huge]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refused: 99999999999999 generators exceed the cap of 67108864" in captured.err


def test_cli_homology_and_minimize(files, capsys):
    assert cli.run(["homology", files["E02"]]) == 0
    assert json.loads(capsys.readouterr().out) == [[0, 1], [0, 0], [0, 1]]
    assert cli.run(["minimize", files["D1"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["disks"] == [[1, 1]]
    assert out["minimal"]["ranks"] == []


def test_cli_ops_subcommands(files, tmp_path, capsys):
    assert cli.run(["sum", files["E01"], files["S1"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ranks"] == [1, 2]

    assert cli.run(["tensor", files["E01"], files["E01"]]) == 0
    assert json.loads(capsys.readouterr().out)["ranks"] == [1, 2, 1]

    assert cli.run(["shift", files["E01"], "2"]) == 0
    assert json.loads(capsys.readouterr().out)["ranks"] == [0, 0, 1, 1]

    assert cli.run(["hom", files["D1"], files["D1"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree0"] == [1, 0] and out["d1ImageSize"] == 4

    f = make_chain_map(
        interval(Z4, 0, 1),
        interval(Z4, 0, 0),
        [from_elements(Z4, [[Z4.r()]]), linalg.zeros(Z4, 0, 1)],
    )
    fpath = _write(tmp_path, "f.json", serialize.chain_map_to_dict(f))
    assert cli.run(["cone", fpath]) == 0
    assert json.loads(capsys.readouterr().out)["ranks"] == [1, 1, 1]


def test_cli_crosscheck_and_extension(files, capsys):
    assert cli.run(["crosscheck", files["E02"], files["E01"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["agree"] is True and report[0]["seed"] == 0

    assert cli.run(["extension", files["E01"], files["S1"], "--seed", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    Y = serialize.complex_from_dict(out["total"])
    assert Y.ranks == (1, 2)
    assert serialize.chain_map_from_dict(out["inclusion"]).target == Y


def test_cli_explain_mode(files, capsys):
    assert cli.run(["cell", files["E02"], files["E01"], "--output", "explain"]) == 0
    text = capsys.readouterr().out
    assert "holds" in text and "lex" in text


# ---------------------------------------------------------------------------
# the degree cap


def test_cli_refuses_complexes_above_the_degree_cap(tmp_path, monkeypatch, capsys):
    from chaincell import complexes, randgen

    cap = complexes.MAX_DEGREES
    s0 = _write(tmp_path, "S0.json", serialize.complex_to_dict(sphere(Z4, 0)))
    long = _write(tmp_path, "long.json", {"ring": "zpsq:2", "ranks": [1] + [0] * cap, "differentials": []})

    def no_build(*args, **kwargs):
        raise AssertionError("a complex above the degree cap was built")

    for module, name in ((complexes, "MatrixR"), (randgen, "MatrixR"), (linalg, "zeros"),
                         (serialize, "_parse_matrix")):
        monkeypatch.setattr(module, name, no_build)
    for argv in (
        ["gen", "sphere", str(cap)],
        ["gen", "interval", "0", str(cap)],
        ["shift", s0, str(cap)],
        ["homology", long],
        ["rand", "--max-degree", str(cap)],
    ):
        assert cli.run(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "degrees exceed the cap" in captured.err, argv


def test_degree_cap_boundary(monkeypatch, rng):
    from chaincell import complexes, randgen
    from chaincell.errors import GuardExceeded
    from chaincell.ops import shift

    monkeypatch.setattr(complexes, "MAX_DEGREES", 4)
    d = [[[0, 1]]]

    def file_of(n):
        return {"ring": "zpsq:2", "ranks": [1] * n, "differentials": [d] * (n - 1)}

    builds = {  # name: (at the cap, one degree over)
        "sphere": (lambda: sphere(Z4, 3), lambda: sphere(Z4, 4)),
        "interval": (lambda: interval(Z4, 1, 2), lambda: interval(Z4, 1, 3)),
        "shift": (lambda: shift(sphere(Z4, 0), 3), lambda: shift(sphere(Z4, 0), 4)),
        "file": (lambda: serialize.complex_from_dict(file_of(4)),
                 lambda: serialize.complex_from_dict(file_of(5))),
    }
    for name, (at_cap, over) in builds.items():
        assert len(at_cap().ranks) == 4, name
        with pytest.raises(GuardExceeded, match="5 degrees exceed the cap of 4"):
            over()
    assert len(randgen.random_complex(Z4, rng, max_degree=3).ranks) <= 4
    with pytest.raises(GuardExceeded, match="5 degrees exceed the cap of 4"):
        randgen.random_complex(Z4, rng, max_degree=4)


def test_hom_from_a_source_at_the_degree_cap_is_refused_before_enumerating(
    tmp_path, monkeypatch, capsys
):
    # |im d_1| is counted from shift(X, 1), one degree longer than X: a source
    # of exactly MAX_DEGREES degrees is refused with exit 4, before either
    # hom enumeration builds a candidate; one degree shorter, it is answered
    from chaincell import complexes, oracle
    from chaincell.errors import GuardExceeded

    monkeypatch.setattr(complexes, "MAX_DEGREES", 4)
    y = _write(tmp_path, "Y.json", serialize.complex_to_dict(interval(Z4, 0, 1)))
    below = _write(tmp_path, "below.json", serialize.complex_to_dict(sphere(Z4, 2)))
    at_cap = _write(tmp_path, "at_cap.json", serialize.complex_to_dict(sphere(Z4, 3)))
    assert cli.run(["hom", below, y]) == 0
    capsys.readouterr()

    def no_enumeration(*args, **kwargs):
        raise AssertionError("a hom enumeration ran for a source at the degree cap")

    monkeypatch.setattr(oracle, "_candidate_matrices", no_enumeration)
    with pytest.raises(GuardExceeded, match="5 degrees exceed the cap of 4"):
        oracle.hom_boundary_image_size(sphere(Z4, 3), interval(Z4, 0, 1))
    assert cli.run(["hom", at_cap, y]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "5 degrees exceed the cap of 4" in captured.err


# ---------------------------------------------------------------------------
# the cell cap of tensor and hom


def test_cli_refuses_tensor_and_hom_above_the_cell_cap(files, tmp_path, monkeypatch, capsys):
    from chaincell import complexes, oracle

    # the cap of 4 admits every input file (the loader counts generators
    # toward it) and no output: 8, 6 and 5 cells
    s0 = _write(tmp_path, "S0.json", serialize.complex_to_dict(sphere(Z4, 0)))
    e03 = _write(tmp_path, "E03.json", serialize.complex_to_dict(interval(Z4, 0, 3)))

    def no_build(*args, **kwargs):
        raise AssertionError("an output above the cell cap was built or enumerated")

    monkeypatch.setattr(complexes, "MAX_CELLS", 4)
    for module, name in ((linalg, "from_blocks"), (linalg, "zeros"), (oracle, "chain_map_module"),
                         (oracle, "hom_boundary_image_size")):
        monkeypatch.setattr(module, name, no_build)
    for argv in (["tensor", files["E02"], files["E01"]], ["hom", files["E01"], e03],
                 ["hom", s0, e03]):
        assert cli.run(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "cells exceed the cap of 4" in captured.err, argv


@pytest.mark.parametrize(
    "units, out",
    [
        ([], '{"ring":"zpsq:2","ranks":[2,3],"differentials":'
             '[[[[0,1],[0,0],[0,0]],[[0,1],[0,1],[0,0]]]]}\n'),
        (["--allow-units"], '{"ring":"zpsq:2","ranks":[2,3],"differentials":'
                            '[[[[1,1],[0,0],[0,0]],[[1,1],[1,1],[0,0]]]]}\n'),
    ],
    ids=["minimal", "units"],
)
def test_cli_rand_refuses_ranks_above_the_cell_cap(monkeypatch, capsys, units, out):
    # seed 1 draws ranks [2, 3], 6 cells: at the cap the draw is unchanged,
    # one cell under it is refused before any entry is drawn
    from chaincell import complexes, randgen

    argv = ["rand", "--seed", "1", "--max-degree", "3", *units]
    monkeypatch.setattr(complexes, "MAX_CELLS", 6)
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == out

    def no_draw(*args, **kwargs):
        raise AssertionError("an entry was drawn above the cell cap")

    monkeypatch.setattr(complexes, "MAX_CELLS", 5)
    monkeypatch.setattr(randgen, "MatrixR", no_draw)
    assert cli.run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "6 cells exceed the cap of 5" in captured.err


@pytest.mark.parametrize("rank", [85, 10**4, 10**6])
@pytest.mark.parametrize("command", ["hom", "crosscheck"])
def test_cli_refuses_guard_counts_too_large_to_build(
    command, rank, tmp_path, monkeypatch, capsys, no_huge_powers
):
    # one degree of this rank: hom needs 4^(rank^2) chain-map candidates,
    # crosscheck's brute homology 4^rank vectors; each is refused from its
    # exponent, before any power of |R| past 4^64 or any candidate is
    # built, and printed as a power
    from chaincell import complexes, oracle

    def no_enumeration(*args, **kwargs):
        raise AssertionError("an enumeration ran past its guard")

    monkeypatch.setattr(complexes, "_all_vectors", no_enumeration)
    monkeypatch.setattr(oracle, "_all_vectors", no_enumeration)
    one = _write(tmp_path, "one.json", {"ring": "zpsq:2", "ranks": [rank], "differentials": []})
    assert cli.run([command, one, one]) == 4
    captured = capsys.readouterr()
    want = f"needs 4^{rank * rank} candidates" if command == "hom" else f"needs at least 4^{rank} vector"
    assert captured.out == "" and want in captured.err


@pytest.mark.parametrize("command", ["sum", "cone", "extension"])
def test_cli_refuses_sum_cone_and_extension_above_the_cell_cap(
    command, files, tmp_path, monkeypatch, capsys
):
    # refused from the ranks, before any block, identity or draw is made
    from chaincell import complexes, ops

    argv = {
        "sum": ["sum", files["E01"], files["E02"]],
        "cone": ["cone", _write(tmp_path, "map.json",
                                serialize.chain_map_to_dict(identity_map(interval(Z4, 0, 1))))],
        "extension": ["extension", files["E01"], files["S1"]],
    }[command]

    def no_build(*args, **kwargs):
        raise AssertionError("an output above the cell cap was built or drawn")

    # the cap of 3 admits every input file (the loader counts generators
    # toward it) and no output
    monkeypatch.setattr(complexes, "MAX_CELLS", 3)
    for module, name in ((linalg, "from_blocks"), (ops, "_eye"), (np.random, "default_rng")):
        monkeypatch.setattr(module, name, no_build)
    assert cli.run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "cells exceed the cap of 3" in captured.err


def test_cell_cap_boundary(monkeypatch):
    # the cap counts the cells the built differentials hold: at that count
    # the output is built, one cell fewer is refused
    from chaincell import complexes
    from chaincell.errors import GuardExceeded
    from chaincell.ops import direct_sum, hom_complex, tensor

    X, Y = interval(Z4, 0, 1), interval(Z4, 0, 2)
    builds = {
        "sum": (lambda: direct_sum(Y, X), lambda S: [S]),
        "tensor": (lambda: tensor(Y, X), lambda T: [T]),
        "hom": (lambda: hom_complex(X, Y), lambda h: [h.positive]),
        "hom from degree 0": (lambda: hom_complex(sphere(Z4, 0), Y), lambda h: [h.positive, h.full]),
    }
    built = {name: sum(d.rows * d.cols for Z in outputs(build()) for d in Z.diffs)
             for name, (build, outputs) in builds.items()}
    for name, (build, _) in builds.items():
        cells = built[name]
        assert cells > 0, name
        monkeypatch.setattr(complexes, "MAX_CELLS", cells)
        build()
        monkeypatch.setattr(complexes, "MAX_CELLS", cells - 1)
        with pytest.raises(GuardExceeded, match=f"{cells} cells exceed the cap of {cells - 1}"):
            build()
