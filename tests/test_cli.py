import json

import numpy as np
import pytest

from chaincell import cli, linalg, serialize
from chaincell.complexes import disk, empty, interval, sphere
from chaincell.errors import InvalidComplexError, UsageError
from chaincell.ops import make_chain_map
from chaincell.ring import RingSpec

from conftest import bounded_random_complex

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
    with pytest.raises(InvalidComplexError):
        serialize.complex_from_dict(bad_dd)
    forced = serialize.complex_from_dict(bad_dd, force=True)
    from chaincell.complexes import validate

    assert validate(forced) is not None


def test_out_of_range_rejected_even_with_force():
    data = {"ring": "zpsq:2", "ranks": [1, 1], "differentials": [[[[5, 0]]]]}
    with pytest.raises(InvalidComplexError):
        serialize.complex_from_dict(data, force=True)


def test_ring_override_agreement():
    d = serialize.complex_to_dict(sphere(Z4, 0))
    assert serialize.complex_from_dict(d, ring_override=Z4) == sphere(Z4, 0)
    with pytest.raises(UsageError):
        serialize.complex_from_dict(d, ring_override=RingSpec("dual", 2))


def test_chain_map_round_trip(ring):
    f = make_chain_map(
        interval(ring, 0, 1),
        interval(ring, 0, 0),
        [linalg.from_elements(ring, [[ring.r()]]), linalg.zeros(ring, 0, 1)],
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


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["E01"] = _write(tmp_path, "E01.json", serialize.complex_to_dict(interval(Z4, 0, 1)))
    paths["E02"] = _write(tmp_path, "E02.json", serialize.complex_to_dict(interval(Z4, 0, 2)))
    paths["D1"] = _write(tmp_path, "D1.json", serialize.complex_to_dict(disk(Z4, 1)))
    paths["S1"] = _write(tmp_path, "S1.json", serialize.complex_to_dict(sphere(Z4, 1)))
    bad = {"ring": "zpsq:2", "ranks": [1, 1, 1], "differentials": [[[[1, 0]]], [[[1, 0]]]]}
    paths["bad"] = _write(tmp_path, "bad.json", bad)
    return paths


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
        [linalg.from_elements(Z4, [[Z4.r()]]), linalg.zeros(Z4, 0, 1)],
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
