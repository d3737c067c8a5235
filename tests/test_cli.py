"""End-to-end CLI behavior: outputs, determinism, exit codes, error shape."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertkit import cli, isotope, jsonio, smap
from albertkit.albert import AlbertElem, det_j, diag_elem, jordan_mul
from albertkit.cli import main
from albertkit.errors import ParseError
from albertkit.jsonio import decode_albert, decode_oct, dumps, encode_albert, encode_vpoint, str_to_rat
from albertkit.octonion import Oct
from albertkit.pvs import VPoint, delta, w_point
from albertkit.verify import rand_albert


@pytest.fixture
def files(tmp_path, rng):
    """A few ready-made JSON inputs keyed by name."""

    def put(name, payload):
        p = tmp_path / (name + ".json")
        p.write_text(dumps(payload), encoding="utf-8")
        return str(p)

    e = diag_elem(1, 1, 1)
    X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
    return {
        "e": put("e", encode_albert(e)),
        "w": put("w", encode_vpoint(w_point())),
        "x": put("x", encode_albert(X)),
        "y": put("y", encode_albert(Y)),
        "z": put("z", encode_albert(Z)),
        "sing": put("sing", encode_albert(diag_elem(0, 1, 1))),
        "unstable": put("unstable", encode_vpoint(VPoint(e, e))),
        "_X": X,
        "_Y": Y,
        "tmp": tmp_path,
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return code, json.loads(out), out


def test_det_trace(files, capsys):
    code, payload, _ = run_cli(capsys, "det", files["e"])
    assert code == 0 and payload == {"det": "1"}
    code, payload, _ = run_cli(capsys, "trace", files["e"])
    assert code == 0 and payload == {"trace": "3"}


def test_jordan_cross_dform(files, capsys):
    code, payload, _ = run_cli(capsys, "jordan", files["x"], files["y"])
    assert code == 0
    assert payload["jordan"] == encode_albert(jordan_mul(files["_X"], files["_Y"]))
    code, payload, _ = run_cli(capsys, "cross", files["e"], files["e"])
    assert code == 0 and payload["cross"] == encode_albert(diag_elem(1, 1, 1))
    code, payload, _ = run_cli(capsys, "dform", files["e"], files["e"], files["e"])
    assert code == 0 and payload == {"dform": "1"}


def test_cubic_delta(files, capsys):
    code, payload, _ = run_cli(capsys, "cubic", files["w"])
    assert code == 0 and payload == {"cubic": "[0, 1, -1, 0]"}
    code, payload, _ = run_cli(capsys, "delta", files["w"])
    assert code == 0 and payload == {"delta": "1"}


def test_smap_and_normalize(files, capsys):
    code, plain, _ = run_cli(capsys, "smap", files["w"], files["x"], files["y"])
    assert code == 0 and "smap" in plain
    code, norm, _ = run_cli(
        capsys, "smap", "--normalize", files["w"], files["x"], files["y"]
    )
    assert code == 0
    # at the base point delta = 1, so both agree with the Jordan product
    want = encode_albert(jordan_mul(files["_X"], files["_Y"]))
    assert plain["smap"] == want and norm["circ"] == want


def test_structure_tensor_output(files, capsys):
    code, payload, _ = run_cli(capsys, "structure", files["w"])
    assert code == 0
    assert payload["basis"] == "jbasis-v1"
    assert len(payload["entries"]) == 19683
    assert payload["point"] == json.loads(open(files["w"]).read())


def _fixed_dense_point():
    """A semistable point with 50 of 54 coordinates nonzero, from a fixed formula."""
    a = AlbertElem.from_coords([Fraction((7 * i + 3) % 11 - 5, 1 + i % 4) for i in range(27)])
    b = AlbertElem.from_coords([Fraction((5 * i + 2) % 13 - 6, 1 + (i + 1) % 3) for i in range(27)])
    return VPoint(a, b)


# sha256 of the `structure` stdout bytes: w and dense as printed by the Fraction-based
# encoder; sparse (the point of _fixed_product_inputs) and tall (conftest) as printed by
# the row-join encoder, each row of 27 entries joined by smap's slot table
STRUCTURE_SHA256 = {
    "w": "7ba41d6f63d9754f751864fc5696576c4e4aae87102bd1c38941928352d2a959",
    "dense": "2262c1fdc62b3ff0dc06dc2fa4a1c4c3120918d92b2ed52a8d225129e820309c",
    "sparse": "1c91925e335c5d1505e1ce7d93eced31624aea9740bdc580533db4946954eb5d",
    "tall": "c9d3256f77794704ebb522a4ae8f8a045ec77348804b25103728d471dad73b7d",
}


def test_structure_bytes_pinned(tmp_path, capsys, tall_point):
    points = {
        "w": w_point(),
        "dense": _fixed_dense_point(),
        "sparse": _fixed_product_inputs()["sparse"],
        "tall": tall_point,
    }
    assert set(points) == set(STRUCTURE_SHA256)
    for name, point in points.items():
        path = tmp_path / (name + ".json")
        path.write_text(dumps(encode_vpoint(point)), encoding="utf-8")
        code, _, raw = run_cli(capsys, "structure", str(path))
        assert code == 0
        assert hashlib.sha256(raw.encode()).hexdigest() == STRUCTURE_SHA256[name], name


def test_structure_builds_the_slot_rows_once(tmp_path, capsys):
    # a cold structure command runs the per-pair slot computation once, for the
    # document layout
    cached = (smap._slot_rows, jsonio._stensor_layout)
    for fn in cached:
        fn.cache_clear()
    path = tmp_path / "w.json"
    path.write_text(dumps(encode_vpoint(w_point())), encoding="utf-8")
    code, _, _ = run_cli(capsys, "structure", str(path))
    assert code == 0
    assert [fn.cache_info().misses for fn in cached] == [1, 1]


def _fixed_product_inputs() -> dict:
    """The operands of the product pins, from fixed formulas: points, 63-bit factors and two index elements."""

    def elem(num, den=lambda i: 1):
        return AlbertElem.from_coords([Fraction(num(i), den(i)) for i in range(27)])

    sparse = VPoint(
        elem(lambda i: (3 * i - 40) * (i in (0, 4, 13, 22, 25)), lambda i: 1 + i % 5),
        elem(lambda i: (7 - 2 * i) * (i in (1, 2, 7, 19, 26)), lambda i: 2 + i % 3),
    )
    neg = elem(lambda i: (5 * i + 1) % 9 - 4)
    if det_j(neg) > 0:
        neg = -neg
    return {
        "w": w_point(),
        "sparse": sparse,
        "x63": elem(lambda i: (-1) ** i * (2**62 + 7919 * i * i + 1)),
        "y63": elem(lambda i: (2**63 - 1 - 104729 * i) * (1 - 2 * (i % 3 == 1)), lambda i: 2**61 - 1),
        "z63": elem(lambda i: (-1) ** (i // 2) * (2**63 - 25 - 3 * i**3), lambda i: (1000003, 999983, 2**31 - 1)[i % 3]),
        "neg": neg,
        "two_dens": elem(lambda i: (11 * i + 4) % 17 - 8, lambda i: (3, 7)[i % 2]),
    }


# sha256 of stdout for `cubic`, `delta`, `smap`, `smap --normalize`, both `isotope-mul`
# methods and the cubic-norm forms `dform`, `tform`, `qa` and `qa --gram`, on
# _fixed_product_inputs() named in argument order; both isotope methods print the same bytes
PRODUCT_SHA256 = {
    ("cubic", "w"): "ff43870b035364b49ae0854530b08709766f08e4593a99846dd2b85aa0a9d440",
    ("cubic", "sparse"): "f161445c395c4c8fc7127951892d84a644e49acbade79099dc5944dcdd484261",
    ("delta", "w"): "d9f7f23e3603b5189a9ecac5e2d01122c4c02f413ea21f07ae4d4b380bc9f676",
    ("delta", "sparse"): "94745004fa9e4dd163fb5961febce6b453b3535a307a2b7b3ff413b8668ec4e3",
    ("smap", "w x63 y63"): "fb6f55b739a5d9facbfb7cacf1ce401c8631689168109e2f10442f9e9dbb3178",
    ("smap", "sparse x63 y63"): "1ebc75a83f24fe89a592a0bd7e57eae7462fdcb76d8450102454d789cfbb03fe",
    ("smap --normalize", "w x63 y63"): "03b24260dc392e6c5cef46c5297756ba66f20281c286e67ea1ff2405916be83d",
    ("smap --normalize", "sparse x63 y63"): "6b9cd7f2b73da5b61c5d0e88d2a66f03a17fec1cbe4f7a5966752a68a666b80c",
    ("isotope-mul --method tform", "neg x63 y63"): "550199b24f520d2c51a28b593e5a3f0d38afb235ceb5cc7e453e823b98aac46d",
    ("isotope-mul --method tform", "two_dens x63 y63"): "939263530a51296d8f6b936438ae1142e96ee8e6468e2860486245bc0ccaf0a3",
    ("isotope-mul --method springer", "neg x63 y63"): "550199b24f520d2c51a28b593e5a3f0d38afb235ceb5cc7e453e823b98aac46d",
    ("isotope-mul --method springer", "two_dens x63 y63"): "939263530a51296d8f6b936438ae1142e96ee8e6468e2860486245bc0ccaf0a3",
    ("dform", "x63 y63 z63"): "1c3838a7ddd2562ab4b3bd6edc76f2d934a83ead68ce8e8690536e2dd860e312",
    ("dform", "neg two_dens z63"): "c1030ec32c3fe8e2b9a9355269fea7e7f116a1cae86da86097a7acdca9130abd",
    ("tform", "neg x63 y63 z63"): "7b3f7db0430e9842465ea36133dbad34516a53c15517d7d92a2a2a5ff72c9fe3",
    ("tform", "two_dens x63 y63 z63"): "a11780c3015df8c462d13341e62ea2569a4ce780cee757186372f6cdc25dd3c2",
    ("qa", "neg x63 z63"): "982d83b885cc5e96c1c3adcae19cc413a2fa03c863e72e05f2c441981b2c0bf4",
    ("qa", "two_dens y63 z63"): "adbfe43a9afc5106f8c40f9b3b9362b8a5ffedd4d54b49bfd0ef487b749226cd",
    ("qa --gram", "neg"): "170723443999b96a100e8e4cbbad2a89ec7268f3fe5da0f079070f562f1c179d",
    ("qa --gram", "two_dens"): "b102c90fae97f284d025636ba1d1860ffdc448cdf629ab1dfd04151870958324",
}


def test_product_bytes_pinned(tmp_path, capsys):
    inputs = _fixed_product_inputs()
    assert det_j(inputs["neg"]) < 0 and inputs["two_dens"].den == 21
    assert inputs["z63"].den == 1000003 * 999983 * (2**31 - 1)
    assert delta(inputs["sparse"]) < 0 and sum(1 for v in inputs["sparse"].a.nums if v) == 5
    paths = {}
    for name, value in inputs.items():
        paths[name] = tmp_path / (name + ".json")
        encode = encode_vpoint if isinstance(value, VPoint) else encode_albert
        paths[name].write_text(dumps(encode(value)), encoding="utf-8")
    for (command, operands), digest in PRODUCT_SHA256.items():
        code, _, raw = run_cli(capsys, *command.split(), *(str(paths[name]) for name in operands.split()))
        assert code == 0
        assert hashlib.sha256(raw.encode()).hexdigest() == digest, (command, operands)


def test_commands_call_the_names_bound_when_they_run(files, capsys, monkeypatch):
    # each command looks its function up when it runs, so a rebinding reaches the CLI
    monkeypatch.setattr(cli, "det_j", lambda X: Fraction(7))
    monkeypatch.setattr(isotope, "t_form", lambda a, X, Y, Z: Fraction(-5, 3))
    assert run_cli(capsys, "det", files["e"])[1] == {"det": "7"}
    assert run_cli(capsys, "tform", files["e"], files["x"], files["y"], files["z"])[1] == {"tform": "-5/3"}
    monkeypatch.undo()
    assert run_cli(capsys, "det", files["e"])[1] == {"det": "1"}


def test_tform_qa(files, capsys):
    code, payload, _ = run_cli(
        capsys, "tform", files["e"], files["e"], files["e"], files["e"]
    )
    assert code == 0 and payload == {"tform": "3"}
    code, payload, _ = run_cli(capsys, "qa", files["e"], files["e"], files["e"])
    assert code == 0 and payload == {"qa": "3"}
    code, payload, _ = run_cli(capsys, "qa", "--gram", files["e"])
    assert code == 0
    assert len(payload["gram"]) == 27 and len(payload["gram"][0]) == 27
    assert payload["gram"][0][0] == "1"


def test_qa_missing_args(files, capsys):
    code, payload, _ = run_cli(capsys, "qa", files["e"])
    assert code == 1 and payload["error"] == "ParseError"


def test_qa_gram_rejects_argument_files(files, capsys):
    # refused before any file is read: a missing or malformed one makes no other error
    for extra in ([files["e"]], [files["e"], files["e"]], ["no-such-file.json", "not-json"]):
        code, payload, _ = run_cli(capsys, "qa", "--gram", files["e"], *extra)
        assert code == 1
        assert payload == {"error": "ParseError", "detail": "qa --gram takes only the index element"}


def test_isotope_methods_identical_bytes(files, capsys):
    code, _, raw1 = run_cli(
        capsys, "isotope-mul", "--method", "tform", files["e"], files["x"], files["y"]
    )
    assert code == 0
    code, _, raw2 = run_cli(
        capsys,
        "isotope-mul",
        "--method",
        "springer",
        files["e"],
        files["x"],
        files["y"],
    )
    assert code == 0
    assert raw1 == raw2
    assert json.loads(raw1)["product"] == encode_albert(
        jordan_mul(files["_X"], files["_Y"])
    )


def test_repeat_runs_byte_identical(files, capsys):
    outs = set()
    for _ in range(3):
        _, _, raw = run_cli(capsys, "smap", files["w"], files["x"], files["y"])
        outs.add(raw)
    assert len(outs) == 1


def test_error_not_semistable(files, capsys):
    code, payload, _ = run_cli(
        capsys, "smap", "--normalize", files["unstable"], files["x"], files["y"]
    )
    assert code == 1
    assert payload["error"] == "NotSemistable"
    assert "detail" in payload


def test_error_singular_point(files, capsys):
    code, payload, _ = run_cli(
        capsys, "isotope-mul", files["sing"], files["x"], files["y"]
    )
    assert code == 1 and payload["error"] == "SingularPoint"


def test_error_parse(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    zero_oct = ["0"] * 8
    for raw in (
        b"{oops",
        b'{"diag": ["1", "\xff", "1"]}',
        dumps({"diag": [True, "1.5", "2e3"], "oct": [zero_oct] * 3}).encode(),
    ):
        bad.write_bytes(raw)
        code, payload, _ = run_cli(capsys, "det", str(bad))
        assert code == 1 and payload["error"] == "ParseError"
    code, payload, _ = run_cli(capsys, "det", str(tmp_path / "absent.json"))
    assert code == 1 and payload["error"] == "ParseError"


def test_usage_errors_follow_error_contract(capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a usage error must be reported before any trial runs")

    monkeypatch.setattr("albertkit.verify.run_suite", no_trials)
    for argv in (
        ["isotope-mul", "--method", "bogus", "a", "b", "c"],
        ["bogus"],
        ["det"],
        [],
        ["verify", "--trials", "many"],
        ["verify", "--trials", "-3"],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "1000000000"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        payload = json.loads(captured.out)
        assert set(payload) == {"error", "detail"} and payload["error"] == "ParseError"
        assert captured.out == dumps(payload) and captured.err == ""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: albertkit" in capsys.readouterr().out


def test_unknown_suite_lists_the_valid_ones(capsys):
    code, payload, _ = run_cli(capsys, "verify", "--suite", "no-such-suite")
    assert code == 1 and payload["error"] == "ParseError"
    assert "no-such-suite" in payload["detail"] and "cubic-form" in payload["detail"]


def test_results_past_the_digit_limit_are_parse_errors(tmp_path, capsys, rng):
    # valid inputs whose output integers pass the int-to-str digit limit (4300):
    # det of three 1435-digit entries (4.5 KB), the structure tensor at a
    # point with 800-digit coordinates (43 KB), and the Jordan square of a
    # 2200-digit diagonal element (encode_albert)
    def elem(c):
        return {"diag": c[:3], "oct": [c[3:11], c[11:19], c[19:27]]}

    det_file = tmp_path / "det.json"
    det_file.write_text(dumps(elem(["9" * 1435] * 3 + ["0"] * 24)), encoding="utf-8")
    point_file = tmp_path / "point.json"
    coords = [str(rng.randrange(10**799, 10**800)) for _ in range(54)]
    point_file.write_text(dumps({"a": elem(coords[:27]), "b": elem(coords[27:])}), encoding="utf-8")
    jordan_file = tmp_path / "jordan.json"
    jordan_file.write_text(dumps(elem(["9" * 2200] * 3 + ["0"] * 24)), encoding="utf-8")
    for argv in (
        ["det", str(det_file)],
        ["structure", str(point_file)],
        ["jordan", str(jordan_file), str(jordan_file)],
    ):
        code, payload, _ = run_cli(capsys, *argv)
        assert code == 1, argv
        assert payload["error"] == "ParseError" and "4300 digits" in payload["detail"], argv


# Fuzzed input files. A rational is small, or a run of one digit up to
# 4400 long over an optional such denominator: past 4300 digits it cannot
# be parsed, and well below that a product of a few can no longer be
# printed. A well-formed element holds at most one such large rational:
# with many distinct large denominators a command takes seconds to
# minutes before its error, as no input height budget exists yet.
_SMALL = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-2/3", "5/4", 3, -2])
_DIGITS = st.builds(lambda d, n: d * n, st.sampled_from("123456789"), st.integers(1, 4400))
_BIG = st.builds(
    lambda neg, p, q: ("-" if neg else "") + p + ("/" + q if q else ""),
    st.booleans(),
    _DIGITS,
    st.none() | _DIGITS,
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.integers() | st.text(max_size=6) | _SMALL,
    lambda kids: st.lists(kids, max_size=9) | st.dictionaries(st.sampled_from(["a", "b", "diag", "oct"]), kids),
    max_leaves=12,
)


def _as_elem(c):
    return {"diag": c[0:3], "oct": [c[3:11], c[11:19], c[19:27]]}


def _put(c, i, v):
    return c[:i] + [v] + c[i + 1 :]


_COORDS = st.lists(_SMALL, min_size=27, max_size=27)
_ELEM = st.builds(_put, _COORDS, st.integers(0, 26), _SMALL | _BIG).map(_as_elem)
# any JSON, an element of the wrong length, or one coordinate of any JSON
_MISSHAPEN = st.one_of(
    _JSON,
    st.lists(_SMALL, max_size=30).map(_as_elem),
    st.builds(_put, _COORDS, st.integers(0, 26), _JSON).map(_as_elem),
)


# decimals, exponents, zero denominators and JSON that is no rational
_BAD = st.sampled_from(["1/0", "-0/0", "7/000", "1.5", "2e3", "1e999999999", True, False, 1.5, None, ["1"]])
_VALUE = _SMALL | _BIG | _BAD | _JSON


def _via_fractions(cls, coords):
    """cls from one Fraction per coordinate, or the detail of the first ParseError."""
    try:
        return cls.from_coords([str_to_rat(c) for c in coords])
    except ParseError as exc:
        return str(exc)


def _detail(decode, obj):
    try:
        return decode(obj)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.builds(_put, st.builds(_put, _COORDS, st.integers(0, 26), _VALUE), st.integers(0, 26), _VALUE))
def test_decoders_match_the_fraction_route(coords):
    # decode_albert and decode_oct bring the parsed integers over one
    # denominator: the same element as from_coords of str_to_rat, or the
    # same first ParseError, up to two bad coordinates in one element
    assert _detail(decode_albert, _as_elem(coords)) == _via_fractions(AlbertElem, coords)
    assert _detail(decode_oct, coords[3:11]) == _via_fractions(Oct, coords[3:11])


def _file(valid):
    """Bytes of an input file: arbitrary bytes, misshapen JSON, or a value of the right shape."""
    return st.binary(max_size=40) | st.one_of(_MISSHAPEN, valid, valid).map(json.dumps).map(str.encode)


_FUZZ_FILE = {"elem": _file(_ELEM), "point": _file(st.fixed_dictionaries({"a": _ELEM, "b": _ELEM}))}


@pytest.mark.parametrize(
    "argv, kinds",
    [
        (["det"], ["elem"]),
        (["cubic"], ["point"]),
        (["delta"], ["point"]),
        (["structure"], ["point"]),
        (["smap", "--normalize"], ["point", "elem", "elem"]),
        (["isotope-mul"], ["elem", "elem", "elem"]),
        (["qa", "--gram"], ["elem"]),
    ],
    ids=["det", "cubic", "delta", "structure", "smap", "isotope-mul", "qa"],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_follow_the_error_contract(tmp_path_factory, argv, kinds, data):
    # any input files end in one canonical JSON line: exit 0 with the result,
    # or exit 1 with exactly {"error", "detail"}; no exception leaves main
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = []
    for n, kind in enumerate(kinds):
        path = tmp / ("in%d.json" % n)
        path.write_bytes(data.draw(_FUZZ_FILE[kind], label=kind))
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + paths)
    text = out.getvalue()
    assert err.getvalue() == "" and text.endswith("\n") and text.count("\n") == 1
    payload = json.loads(text)
    assert text == dumps(payload)
    assert (code, set(payload) == {"error", "detail"}) in ((0, False), (1, True)), text[:200]


def test_commands_load_no_oracle(tmp_path):
    """A cold command imports neither the reference routes, the verify suites nor the solver."""
    elem = tmp_path / "elem.json"
    elem.write_text(dumps(encode_albert(diag_elem(1, 2, 3))), encoding="utf-8")
    script = (
        "import contextlib, io, itertools, sys\n"
        "from albertkit.cli import main\n"
        "from albertkit.gaction import perm_elem\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['det', sys.argv[1]])\n"
        "assert (code, out.getvalue()) == (0, '{\"det\":\"6\"}\\n'), out.getvalue()\n"
        "for sigma in itertools.permutations((1, 2, 3)):\n"
        "    perm_elem(sigma)\n"
        "print(sorted(m for m in ('albertkit.linalg', 'albertkit.reference', 'albertkit.verify') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(elem)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_subcommand(files, capsys):
    code, payload, _ = run_cli(
        capsys, "verify", "--suite", "octonion", "--seed", "3", "--trials", "4"
    )
    assert code == 0 and payload["ok"] is True
    assert payload["suite"] == "octonion"
    assert all(c["failed"] == 0 for c in payload["checks"])
    # determinism across runs
    _, _, raw1 = run_cli(capsys, "verify", "--suite", "cubic-form", "--trials", "3")
    _, _, raw2 = run_cli(capsys, "verify", "--suite", "cubic-form", "--trials", "3")
    assert raw1 == raw2


def test_console_entry_point():
    """The `albertkit` command declared in pyproject.toml runs `verify`.

    An installed console script is run as it is. A source checkout has no
    script, so the declared `module:function` target is run the way the
    generated script would run it: a fresh interpreter imports the module
    and calls `sys.exit(function())` with the same argv.
    """
    argv = ["verify", "--suite", "binary-cubic", "--trials", "2"]
    script = shutil.which("albertkit")
    if script:
        cmd, env = [script, *argv], None
    else:
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["albertkit"]
        module, func = target.split(":")
        launcher = (
            "import sys\n"
            f"from {module} import {func}\n"
            "sys.argv[0] = 'albertkit'\n"
            f"sys.exit({func}())\n"
        )
        cmd = [sys.executable, "-c", launcher, *argv]
        # an inherited PYTHONPATH=src is relative; the absolute src lets the
        # child import this checkout from any working directory
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True, proc.stderr
