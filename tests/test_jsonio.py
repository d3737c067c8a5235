"""JSON wire formats: round trips, strict validation, canonical bytes."""

import json
from fractions import Fraction

import pytest

from albertkit.albert import AlbertElem
from albertkit.errors import ParseError
from albertkit.gaction import diag_conj, gl2_elem, perm_elem, scalar_elem
from albertkit.jsonio import (
    STENSOR_BASIS_TAG,
    cubic_to_str,
    decode_albert,
    decode_group,
    decode_oct,
    decode_stensor,
    decode_vpoint,
    dumps,
    encode_albert,
    encode_group,
    encode_oct,
    encode_stensor,
    encode_vpoint,
    load_json,
    rat_to_str,
    str_to_rat,
)
from albertkit.octonion import Oct
from albertkit.pvs import VPoint, cubic_of, w_point
from albertkit.smap import structure_tensor
from albertkit.verify import rand_albert, rand_group, rand_oct, rand_semistable, rand_vpoint


def test_rational_strings():
    assert rat_to_str(Fraction(3)) == "3"
    assert rat_to_str(Fraction(-1, 2)) == "-1/2"
    assert str_to_rat("7/3") == Fraction(7, 3)
    assert str_to_rat("-4") == Fraction(-4)
    assert str_to_rat(5) == Fraction(5)
    assert str_to_rat(" -12/8 ") == Fraction(-3, 2)
    big = "1" * 4400
    for bad in ("x", "1/0", "", None, 1.5, True, False, "2e3", "1e999999999", "1.5", "1/-2", big, big + "/3"):
        with pytest.raises(ParseError):
            str_to_rat(bad)


def test_rat_to_str_input_types(rng, sparse_point):
    assert rat_to_str(0) == "0"
    assert rat_to_str(7) == "7"
    assert rat_to_str(-12) == "-12"
    assert rat_to_str(True) == "1"
    assert rat_to_str(False) == "0"
    assert rat_to_str(Fraction(6, 3)) == "2"
    assert rat_to_str(Fraction(-5)) == "-5"
    assert rat_to_str(Fraction(4, 6)) == "2/3"
    assert rat_to_str(Fraction(-9, 12)) == "-3/4"
    # encode_albert formats X.nums over X.den: the same strings as rat_to_str of coords()
    neg = AlbertElem.from_coords([Fraction(-n, 6) for n in range(27)])
    assert neg.den > 1 and min(neg.nums) < 0
    for x in (w_point(), rand_semistable(rng), sparse_point(rng), VPoint(neg, neg)):
        c = {k: [rat_to_str(v) for v in X.coords()] for k, X in (("a", x.a), ("b", x.b))}
        assert encode_vpoint(x) == {k: {"diag": v[0:3], "oct": [v[3:11], v[11:19], v[19:27]]} for k, v in c.items()}


def test_oct_round_trip(rng):
    for _ in range(5):
        x = rand_oct(rng)
        enc = encode_oct(x)
        assert len(enc) == 8 and all(isinstance(s, str) for s in enc)
        # encode_oct formats x.nums over x.den: the same strings as rat_to_str of coords()
        assert enc == [rat_to_str(c) for c in x.coords()]
        assert decode_oct(enc) == x
    with pytest.raises(ParseError):
        decode_oct([1, 2, 3])
    with pytest.raises(ParseError):
        decode_oct("nope")


def test_albert_round_trip(rng):
    for _ in range(5):
        X = rand_albert(rng)
        enc = encode_albert(X)
        assert set(enc) == {"diag", "oct"}
        assert decode_albert(enc) == X
    with pytest.raises(ParseError):
        decode_albert({"diag": ["1", "2", "3"]})
    with pytest.raises(ParseError):
        decode_albert({"diag": ["1", "2"], "oct": [encode_oct(Oct(0))] * 3})
    with pytest.raises(ParseError):
        decode_albert({"diag": ["1", "2", "3"], "oct": [], "extra": 1})


def test_vpoint_round_trip(rng):
    x = rand_vpoint(rng)
    assert decode_vpoint(encode_vpoint(x)) == x
    with pytest.raises(ParseError):
        decode_vpoint({"a": encode_albert(x.a)})


def test_cubic_string():
    assert cubic_to_str(cubic_of(w_point())) == "[0, 1, -1, 0]"


def test_stensor_round_trip(rng, sparse_point):
    for x in (w_point(), rand_semistable(rng), sparse_point(rng)):
        t = structure_tensor(x)
        enc = encode_stensor(t)
        assert enc["basis"] == STENSOR_BASIS_TAG
        assert len(enc["entries"]) == 19683
        back = decode_stensor(enc)
        assert back == t
        assert back.rows == t.rows and back.den == t.den
    bad = dict(enc)
    bad["basis"] = "other"
    with pytest.raises(ParseError):
        decode_stensor(bad)
    short = dict(enc)
    short["entries"] = enc["entries"][:5]
    with pytest.raises(ParseError):
        decode_stensor(short)
    # a tensor holds only the image of k at its point: any other entries are refused
    changed = list(enc["entries"])
    changed[100] = rat_to_str(str_to_rat(changed[100]) + 1)
    with pytest.raises(ParseError):
        decode_stensor({**enc, "entries": changed})
    at_w = encode_stensor(structure_tensor(w_point()))
    with pytest.raises(ParseError):
        decode_stensor({**enc, "entries": at_w["entries"]})
    # the right entries in another spelling still decode: "2/4", JSON ints
    respelled = ["2/4" if v == "1/2" else int(v) if "/" not in v else v for v in at_w["entries"]]
    assert "2/4" in respelled and 1 in respelled
    assert decode_stensor({**at_w, "entries": respelled}) == structure_tensor(w_point())
    assert decode_stensor(json.loads(dumps(enc))) == t


def test_encode_stensor_matches_rat_to_str(rng, sparse_point):
    # the int-keyed encoder against the per-entry Fraction reference
    for x in (w_point(), rand_semistable(rng), sparse_point(rng)):
        t = structure_tensor(x)
        flat = t.flat
        assert list(encode_stensor(t)["entries"]) == [rat_to_str(v) for v in flat]
        if x != w_point():
            # entries reduce against t.den to several different denominators
            assert len({v.denominator for v in flat}) > 2


def test_group_full_round_trip(rng):
    for _ in range(3):
        g = rand_group(rng)
        assert decode_group(encode_group(g)) == g


def _full_identity(c="1", column=None, row=None):
    """The full form of the identity on J, with a claimed c, a zeroed column or a row of ones."""
    L = [["1" if i == j else "0" for j in range(27)] for i in range(27)]
    if column is not None:
        for r in L:
            r[column] = "0"
    if row is not None:
        L[row] = ["1"] * 27
    return {"L": L, "c": c, "g2": [["1", "0"], ["0", "1"]]}


def test_group_shorthand():
    assert decode_group({"kind": "scalar", "params": "2/3"}) == scalar_elem(
        Fraction(2, 3)
    )
    assert decode_group({"kind": "diag", "params": ["1", "2", "-1/2"]}) == diag_conj(
        1, 2, Fraction(-1, 2)
    )
    assert decode_group({"kind": "perm", "params": [2, 3, 1]}) == perm_elem((2, 3, 1))
    assert decode_group(
        {"kind": "gl2", "params": [["1", "1"], ["0", "1"]]}
    ) == gl2_elem([[1, 1], [0, 1]])
    for bad in (
        {"kind": "scalar"},
        {"kind": "spin", "params": "1"},
        {"kind": "perm", "params": [1, 1, 2]},
        {"kind": "perm", "params": ["a", 1, 2]},
        {"kind": "perm", "params": [True, 2, 3]},
        {"kind": "diag", "params": [True, "1.5", "2e3"]},
        {"kind": "diag", "params": ["1", "2"]},
        {"L": [], "c": "1"},
        _full_identity(c="5"),
        _full_identity(column=4),
        _full_identity(row=0),
        "not-a-dict",
    ):
        with pytest.raises(ParseError):
            decode_group(bad)
    assert decode_group(_full_identity()) == scalar_elem(1)


def test_dumps_canonical():
    s = dumps({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}\n'
    assert dumps({"a": [1, 2], "b": 1}) == s


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_dumps_stensor_matches_json_dumps(rng, sparse_point):
    # the spliced text against json.dumps of the same dict with a plain list
    for x in (w_point(), rand_semistable(rng), sparse_point(rng)):
        enc = encode_stensor(structure_tensor(x))
        plain = {**enc, "entries": list(enc["entries"])}
        assert dumps(enc) == _json_dumps(plain)


def _append(enc):
    enc["entries"].append("1")


def _delete(enc):
    del enc["entries"][0]


def _set(enc):
    enc["entries"][100] = "5/7"


def _sort(enc):
    enc["entries"].sort()


def _retext(enc):
    enc["entries"].text = "[]"


def _repoint(enc):
    enc["point"] = encode_vpoint(w_point())


def _replace(enc):
    enc["entries"] = list(enc["entries"])
    enc["entries"][100] = "5/7"


@pytest.mark.parametrize("mutate", [_set, _append, _delete, _sort, _retext, _repoint, _replace])
def test_dumps_stensor_after_mutation(rng, mutate):
    # the entries cannot change in place, so their rendered text never goes
    # stale; a replaced point or a plain-list entries goes through json.dumps
    enc = encode_stensor(structure_tensor(rand_semistable(rng)))
    before = dumps(enc)
    if mutate in (_set, _append, _delete, _sort, _retext):
        with pytest.raises((TypeError, AttributeError)):
            mutate(enc)
        assert dumps(enc) == before
        return
    mutate(enc)
    after = dumps(enc)
    assert after != before
    assert after == _json_dumps({**enc, "entries": list(enc["entries"])})


def test_load_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"k": "1/2"}', encoding="utf-8")
    assert load_json(str(p)) == {"k": "1/2"}
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    for raw in (b"{nope", b'{"k": "\xff"}', b"[" * 100000):
        bad.write_bytes(raw)
        with pytest.raises(ParseError):
            load_json(str(bad))
