"""JSON wire formats: round trips, strict validation, canonical bytes."""

import hashlib
import json
from fractions import Fraction

import pytest

from albertkit.albert import E, AlbertElem
from albertkit.errors import AlbertKitError, ParseError
from albertkit.gaction import (
    act_v,
    chi,
    diag_conj,
    gl2_elem,
    identity_elem,
    mu,
    perm_elem,
    scalar_elem,
    tilde,
)
from albertkit.jsonio import (
    STENSOR_BASIS_TAG,
    _canonical,
    _fmt,
    _fmt_and_double,
    _point_text,
    _stensor_layout,
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
from albertkit.pvs import VPoint, cubic_of, delta, w_point
from albertkit.smap import StructureTensor, circ_x, lay_out, s_map, slot_values, structure_tensor
from albertkit.verify import (
    rand_albert,
    rand_group,
    rand_oct,
    rand_rat_nonzero,
    rand_semistable,
    rand_vpoint,
)


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
        assert StructureTensor(x) == t and hash(StructureTensor(x)) == hash(t)
        enc = encode_stensor(t)
        doc = json.loads(dumps(enc))
        assert doc["basis"] == STENSOR_BASIS_TAG
        assert len(doc["entries"]) == 19683
        back = decode_stensor(doc)
        assert back == t
        assert back.rows == t.rows and back.den == t.den
    bad = dict(doc)
    bad["basis"] = "other"
    with pytest.raises(ParseError):
        decode_stensor(bad)
    short = dict(doc)
    short["entries"] = doc["entries"][:5]
    with pytest.raises(ParseError):
        decode_stensor(short)
    # a decoder takes parsed JSON, not the rendered document
    with pytest.raises(ParseError):
        decode_stensor(enc)
    # a tensor holds only the image of k at its point: any other entries are refused
    changed = list(doc["entries"])
    changed[100] = rat_to_str(str_to_rat(changed[100]) + 1)
    with pytest.raises(ParseError):
        decode_stensor({**doc, "entries": changed})
    at_w = json.loads(dumps(encode_stensor(structure_tensor(w_point()))))
    with pytest.raises(ParseError):
        decode_stensor({**doc, "entries": at_w["entries"]})
    # the right entries in another spelling still decode: "2/4", JSON ints
    respelled = ["2/4" if v == "1/2" else int(v) if "/" not in v else v for v in at_w["entries"]]
    assert "2/4" in respelled and 1 in respelled
    assert decode_stensor({**at_w, "entries": respelled}) == structure_tensor(w_point())


def _sparse_semistable(rng):
    """A semistable point of small height with 6 nonzero coordinates per component."""
    while True:
        c = [[0] * 27, [0] * 27]
        for part in c:
            for n in rng.sample(range(27), 6):
                part[n] = rand_rat_nonzero(rng)
        x = VPoint(AlbertElem.from_coords(c[0]), AlbertElem.from_coords(c[1]))
        if delta(x) != 0:
            return x


def test_encode_stensor_matches_rat_to_str(rng, sparse_point):
    # the row-text encoder against json.dumps of the plain dict of per-entry Fraction strings
    points = (VPoint(E.scale(0), E), w_point(), rand_semistable(rng), _sparse_semistable(rng), sparse_point(rng))
    for x in points:
        t = structure_tensor(x)
        flat = t.flat
        strings = [rat_to_str(v) for v in flat]
        enc = encode_stensor(t)
        text = dumps(enc)
        plain = {"basis": STENSOR_BASIS_TAG, "entries": strings, "point": encode_vpoint(x)}
        assert text == _json_dumps(plain)
        assert json.loads(text) == plain
        # the rendered text is canonical: parsed and printed again, it is the same
        assert dumps(json.loads(text)) == text
        if x not in points[:2]:
            # entries reduce against t.den to several different denominators
            assert len({v.denominator for v in flat}) > 2
    assert structure_tensor(points[0]).den == 1


def _row_join_stensor(t) -> str:
    """The tensor document by the row-join route: each of the 729 rows of quoted slot texts joined, then the rows."""
    values = ['"%s"' % _fmt(v, t.den) for v in slot_values(t.kn)]
    entries = ",".join(map(",".join, lay_out(values)))
    return '{"basis":%s,"entries":[%s],"point":%s}\n' % (
        json.dumps(STENSOR_BASIS_TAG),
        entries,
        _canonical(encode_vpoint(t.point)),
    )


def test_encode_stensor_matches_row_join(rng, sparse_point, tall_point):
    # the one-join encoder against the row-join route it replaced, byte for byte
    def elem(num, den):
        return AlbertElem.from_coords([Fraction(num(i), den(i)) for i in range(27)])

    points = {
        "w": w_point(),
        "zero": VPoint(E.scale(0), E),
        "sparse": sparse_point(rng),
        "tall": tall_point,
        "even": VPoint(
            elem(lambda i: (5 * i + 1) % 7 - 3, lambda i: 2 ** (i % 4)),
            elem(lambda i: (3 * i + 2) % 5 - 2, lambda i: 2 ** (1 + i % 3)),
        ),
    }
    tensors = {name: structure_tensor(x) for name, x in points.items()}
    for name, t in tensors.items():
        assert dumps(encode_stensor(t)) == _row_join_stensor(t), name
    # what each point was chosen for
    assert tensors["w"].kn.count(0) == 24
    assert not any(tensors["zero"].kn)
    tall = tensors["tall"]
    assert all(tall.point.a.nums) and tall.den.bit_length() > 600 and max(map(abs, tall.kn)).bit_length() > 2000
    even = tensors["even"]
    # den is a power of 2: each 2 kn[l] over den reduces to half the denominator of kn[l]
    assert even.den == 2**24
    assert all(Fraction(2 * v, even.den).denominator * 2 == Fraction(v, even.den).denominator for v in even.kn if v)


def test_stensor_texts_match_fmt(rng, sparse_point, tall_point):
    # the texts of kn and 2 kn from one gcd each against two _fmt calls: on
    # small values, which reach every branch, and on the coordinates of the
    # tensors at w, a sparse point and a dense point of 200-bit numerators
    cases = [(v, d) for v in range(-12, 13) for d in range(1, 13)]
    for x in (w_point(), sparse_point(rng), tall_point):
        t = structure_tensor(x)
        cases += [(v, t.den) for v in t.kn]
    for v, d in cases:
        assert _fmt_and_double(v, d) == (_fmt(v, d), _fmt(2 * v, d)), (v, d)


def test_point_text_matches_canonical(rng, sparse_point, point_63, tall_point):
    # the point of a tensor document from one template against the json.dumps route
    def elem(num, den):
        return AlbertElem.from_coords([Fraction(num(i), den(i)) for i in range(27)])

    points = [
        w_point(),
        sparse_point(rng),
        VPoint(elem(lambda i: i - 13, lambda i: 1 + i % 5), elem(lambda i: 2 * i + 1, lambda i: 3)),
        point_63(rng),
        tall_point,
        VPoint(E.scale(0), E.scale(0)),
        VPoint(E.scale(-1), elem(lambda i: -(i + 1), lambda i: 1 + i % 4)),
    ]
    for x in points:
        assert _point_text(x) == _canonical(encode_vpoint(x)), x


def test_stensor_layout_pinned():
    # 3052 fixed texts around the 3051 nonzero entries; between them, the 16632 zeros
    texts, take = _stensor_layout()
    slots = take(range(109))
    assert len(texts) == 3052 and len(slots) == 3051
    assert slots == tuple(s for row in lay_out(range(109)) for s in row if s)
    assert sum(text.count('"0"') for text in texts) == 16632
    assert texts[0].startswith('{"basis":"%s","entries":["' % STENSOR_BASIS_TAG)
    assert texts[-1].endswith('"],"point":')
    # an entry of slot s, printed as the text of s, rebuilds the document of the slot ids
    parts = [None] * 6104
    parts[::2] = texts
    parts[1:-1:2] = map(str, slots)
    parts[-1] = "null}"
    doc = json.loads("".join(parts))
    assert doc["entries"] == [str(s) for row in lay_out(range(109)) for s in row]


def test_group_full_round_trip(rng):
    for _ in range(3):
        g = rand_group(rng)
        assert decode_group(encode_group(g)) == g


def _full_identity(c="1", column=None, row=None, scale=None, g2=(("1", "0"), ("0", "1")), entries=(), reshape=None):
    """The full form of the identity on J, with a claimed c and g2, a zeroed column, a row of ones or one scale 2.

    entries are (i, j, v) written into L last; reshape, if given, is called on L's rows after them.
    """
    L = [["1" if i == j else "0" for j in range(27)] for i in range(27)]
    if column is not None:
        for r in L:
            r[column] = "0"
    if row is not None:
        L[row] = ["1"] * 27
    if scale is not None:
        L[scale][scale] = "2"
    for i, j, v in entries:
        L[i][j] = v
    if reshape is not None:
        reshape(L)
    return {"L": L, "c": c, "g2": [list(r) for r in g2]}


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


def _outcome(f, *args):
    """f(*args), or the kind and text of the AlbertKitError it raises."""
    try:
        return f(*args)
    except AlbertKitError as exc:
        return exc.kind, str(exc)


def test_shorthand_decode_matches_builders(rng):
    # the shorthands decode to ints: the same element, or the same error, as
    # scalar_elem and diag_conj give on the same params, unreduced and zero ones too
    big = 2**63 - 25
    params = ["2/4", "-6/4", "0", "0/5", "-0", 0, 3, "-1/3", "10/15", "%d/%d" % (3 * big, 6 * (2**61 - 1)), "7/1"]
    params += [rng.choice(["", "-"]) + "%d/%d" % (rng.randrange(2**64), rng.randrange(1, 2**64)) for _ in range(8)]
    for p in params:
        doc = {"kind": "scalar", "params": p}
        assert _outcome(decode_group, doc) == _outcome(scalar_elem, Fraction(p))
    triples = [["2/4", "0", "5"], ["0/3", "0", "0"], ["2/4", "-6/8", "10/15"]]
    triples += [rng.sample(params, 3) for _ in range(24)]
    assert any("0" in t or 0 in t for t in triples[3:])
    for t in triples:
        doc = {"kind": "diag", "params": t}
        assert _outcome(decode_group, doc) == _outcome(diag_conj, *map(Fraction, t))


def _codec_elems() -> dict:
    """One element of each generator kind, and a word with 63-bit scales, its tilde and its mu.

    The word's GL(2) factor "g2" has 63-bit entries over the distinct
    primes 3, 7, 2^61 - 1 and 11, and a negative det.
    """
    big, p61 = 2**62 + 135, 2**61 - 1
    g2 = gl2_elem([[Fraction(-big, 3), Fraction(2**63 - 25, 7)], [Fraction(5, p61), Fraction(big - 2, 11)]])
    d = diag_conj(Fraction(-big, 13), Fraction(big - 2, 5), Fraction(-7, p61))
    word = d * perm_elem((2, 3, 1)) * g2 * scalar_elem(Fraction(11, 17))
    return {
        "identity": identity_elem(),
        "scalar": scalar_elem(Fraction(-3, 2)),
        "diag": diag_conj(2, Fraction(1, 3), -5),
        "perm": perm_elem((3, 1, 2)),
        "gl2": gl2_elem([[1, 2], [3, 5]]),
        "g2": g2,
        "word": word,
        "tilde": tilde(word),
        "mu": mu(word),
    }


# sha256 of dumps(encode_group(g)) for each of _codec_elems(), recorded before
# encode_group and g2 moved onto integers; re-record only on purpose
GROUP_BYTES = {
    "identity": "e5c786a98bf6bffebc975d39fbe5b80f3cd07385e76d5405fda50bdc56617712",
    "scalar": "671b450803b25059249414ad180d4c317ea72cd85494ef6bba640817ecc5cd5c",
    "diag": "8d14c6575ca533d1a27b75eecf3727b25374590315d0e3f13b098150ff862e91",
    "perm": "d018c7a74311efa8ce0545729a02da41e941249a41dba6873ed84482114dd07b",
    "gl2": "20ab6e970779379427ec7a30433c10a8a63dec5f1e20c72b6885359f380cabc2",
    "g2": "1ba656a56b3322f74ef4eea18e997868f25c5eae2543332b9cf77d9ea2de2979",
    "word": "21dcef43fcea032c35bb0f68f8a9aa336aad1ff25f66bea5f5f991f8fb43e2d0",
    "tilde": "378c36192d161621af6c64f9fb0ce957e096c25e52de0fc5240cf75d65dd0de6",
    "mu": "57ebc945a269daac3da19b8819f886d75d53512d7aee11133d3031b8a771a8ae",
}


def test_group_bytes_pinned():
    elems = _codec_elems()
    assert max(abs(n) for n in elems["word"].nums).bit_length() > 63
    digests = {k: hashlib.sha256(dumps(encode_group(g)).encode()).hexdigest() for k, g in elems.items()}
    assert digests == GROUP_BYTES
    for g in elems.values():
        assert decode_group(encode_group(g)) == g


_SINGULAR = (("1", "2"), ("2", "4"))

# (document, the error kind and detail decode_group gives it), recorded with GROUP_BYTES
GROUP_ERRORS = [
    ({"kind": "gl2", "params": [["1", "2"]]}, "ParseError", "gl2 params must be a 2x2 matrix"),
    ({"kind": "gl2", "params": [["1", "2"], ["3"]]}, "ParseError", "gl2 params must be a 2x2 matrix"),
    ({"kind": "gl2", "params": [["1", "2"], ["2", "4"]]}, "SingularMatrix", "GL(2) factor must be invertible"),
    (
        {"kind": "gl2", "params": [["1", "1.5"], ["2", "4"]]},
        "ParseError",
        "bad rational '1.5': expected p or p/q in decimal digits",
    ),
    ({"kind": "gl2", "params": [["1", 0.5], ["2", "4"]]}, "ParseError", "rational must be a string, got 'float'"),
    ({"kind": "gl2", "params": [["1/0", "0"], ["2", "4"]]}, "ParseError", "bad rational '1/0': the denominator is 0"),
    (_full_identity(g2=(("1", "0", "0"), ("0", "1"))), "ParseError", "g2 must be a 2x2 matrix"),
    (_full_identity(g2=(("1", "2"), ("1/2", "1"))), "SingularMatrix", "GL(2) factor must be invertible"),
    ({"L": [], "c": "1", "g2": [["1", "0"], ["0", "1"]]}, "ParseError", "L must be a 27x27 matrix"),
    (_full_identity(column=4), "ParseError", "L must be monomial: one nonzero entry in each column"),
    (_full_identity(row=0), "ParseError", "L must be monomial: one nonzero entry in each column"),
    (_full_identity(scale=5), "ParseError", "c = 1 is not the det multiplier of L"),
    (_full_identity(c="5"), "ParseError", "c = 5 is not the det multiplier of L"),
    (_full_identity(c="-1/8"), "ParseError", "c = -1/8 is not the det multiplier of L"),
    (_full_identity(c="0"), "ZeroScalar", "group element must scale det by a nonzero factor"),
    # recorded before the full form was decoded on integers: the nonzero entries of
    # columns 3 and 4 share row 3, a bad rational or a zero denominator inside L,
    # a wide row, an extra row and a short row
    (
        _full_identity(entries=((4, 4, "0"), (3, 4, "1"))),
        "ParseError",
        "L must be monomial and invertible: perm is not a permutation of range(27)",
    ),
    (_full_identity(entries=((2, 2, "1.5"),)), "ParseError", "bad rational '1.5': expected p or p/q in decimal digits"),
    (_full_identity(entries=((2, 9, "1/0"),)), "ParseError", "bad rational '1/0': the denominator is 0"),
    (_full_identity(reshape=lambda L: L[0].append("0")), "ParseError", "L must be a 27x27 matrix"),
    (_full_identity(reshape=lambda L: L.append(["0"] * 27)), "ParseError", "L must be a 27x27 matrix"),
    (_full_identity(reshape=lambda L: L[26].pop()), "ParseError", "L must be a 27x27 matrix"),
    # two faults in one document: the first check to fail names the error
    (_full_identity(column=4, g2=_SINGULAR), "ParseError", "L must be monomial: one nonzero entry in each column"),
    (_full_identity(c="0", g2=_SINGULAR), "ZeroScalar", "group element must scale det by a nonzero factor"),
    (_full_identity(c="5", g2=_SINGULAR), "SingularMatrix", "GL(2) factor must be invertible"),
]


@pytest.mark.parametrize("doc, kind, detail", GROUP_ERRORS)
def test_group_decode_errors_pinned(doc, kind, detail):
    with pytest.raises(AlbertKitError) as info:
        decode_group(doc)
    assert (info.value.kind, str(info.value)) == (kind, detail)


def test_stensor_decode_errors_pinned():
    # every entry is parsed before any is compared: a bad rational is reported even
    # after a mismatching entry; recorded before decode_stensor compared integers
    doc = json.loads(dumps(encode_stensor(structure_tensor(w_point()))))
    entries = doc["entries"]
    wrong = entries[:100] + [rat_to_str(str_to_rat(entries[100]) + 1)] + entries[101:]
    cases = [
        (entries[:7] + [0.5] + entries[8:], "rational must be a string, got 'float'"),
        (wrong[:-1] + ["1.5"], "bad rational '1.5': expected p or p/q in decimal digits"),
        (wrong, "entries are not the structure tensor of the point"),
    ]
    for bad, detail in cases:
        with pytest.raises(ParseError) as info:
            decode_stensor({**doc, "entries": bad})
        assert str(info.value) == detail


def test_full_form_decode_makes_no_fraction(monkeypatch, count_fractions):
    # the full form of a word with 63-bit scales reads L off its columns, c and
    # g2 on integers, and checks c and g2 on integers too
    word = _codec_elems()["word"]
    doc = json.loads(dumps(encode_group(word)))
    made = count_fractions()
    g = decode_group(doc)
    n = len(made)
    monkeypatch.undo()
    assert g == word and n == 0


def test_decode_stensor_makes_no_fraction(rng, monkeypatch, count_fractions):
    # the parsed entries are compared with the tensor's integer rows
    x = rand_semistable(rng)
    doc = json.loads(dumps(encode_stensor(structure_tensor(x))))
    made = count_fractions()
    t = decode_stensor(doc)
    n = len(made)
    monkeypatch.undo()
    assert t == structure_tensor(x) and n == 0


def test_group_op_fraction_counts(rng, monkeypatch, count_fractions):
    # a whole group op, from shorthand JSON with a gl2 factor to act_v, and its
    # encoding. The op makes 1, the value chi returns: the shorthands decode to
    # ints, and c and det2 are int pairs in mu and chi; decode, compose, tilde,
    # mu and act_v make none. encode_group makes none, c included.
    word = [
        {"kind": "diag", "params": ["2", "-1/3", "5/7"]},
        {"kind": "gl2", "params": [["1/2", "-3"], ["5", "7/11"]]},
        {"kind": "perm", "params": [3, 1, 2]},
        {"kind": "scalar", "params": "-2/3"},
    ]
    x = rand_vpoint(rng)

    def op():
        gens = [decode_group(doc) for doc in word]
        g = gens[0]
        for h in gens[1:]:
            g = g.compose(h)
        return g, tilde(g), mu(g), chi(g), act_v(g, x)

    want = op()
    made = count_fractions()
    got = op()
    n_op = len(made)
    made.clear()
    encoded = [encode_group(g) for g in got[:3]]
    n_encode = len(made)
    monkeypatch.undo()
    assert got == want and [decode_group(doc) for doc in encoded] == list(got[:3])
    assert (n_op, n_encode) == (1, 0)


def test_dumps_canonical():
    s = dumps({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}\n'
    assert dumps({"a": [1, 2], "b": 1}) == s


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_dumps_stensor_matches_json_dumps(rng, sparse_point):
    # the rendered text against json.dumps of the same document parsed back
    for x in (w_point(), rand_semistable(rng), sparse_point(rng)):
        enc = encode_stensor(structure_tensor(x))
        doc = json.loads(dumps(enc))
        assert set(doc) == {"basis", "entries", "point"} and doc["point"] == encode_vpoint(x)
        assert dumps(enc) == _json_dumps(doc) == dumps(doc)


def _append(enc):
    enc["entries"].append("1")


def _delete(enc):
    del enc["entries"][0]


def _set(enc):
    enc["entries"][100] = "5/7"


def _sort(enc):
    enc["entries"].sort()


def _retext(enc):
    enc.text = "[]"


def _repoint(enc):
    enc["point"] = encode_vpoint(w_point())


def _replace(enc):
    enc["entries"] = list(enc["entries"])
    enc["entries"][100] = "5/7"


@pytest.mark.parametrize("mutate", [_set, _append, _delete, _sort, _retext, _repoint, _replace])
def test_dumps_stensor_after_mutation(rng, mutate):
    # the rendered document is immutable, so its text never goes stale
    enc = encode_stensor(structure_tensor(rand_semistable(rng)))
    before = dumps(enc)
    with pytest.raises((TypeError, AttributeError)):
        mutate(enc)
    assert dumps(enc) == before


def test_canonical_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError):
        _canonical({"a": {1, 2}})
    with pytest.raises(TypeError):
        dumps({"a": (v for v in "12")})
    # the rendered document is no JSON value: nested in one, it is refused, not converted
    enc = encode_stensor(structure_tensor(w_point()))
    with pytest.raises(TypeError):
        json.dumps({"t": enc})
    with pytest.raises(TypeError):
        dumps({"t": enc})


def test_structure_path_makes_no_fraction(rng, sparse_point, monkeypatch, count_fractions):
    # decode_vpoint -> structure_tensor -> encode_stensor -> dumps runs on integers only
    docs = [json.loads(dumps(encode_vpoint(x))) for x in (w_point(), rand_semistable(rng), sparse_point(rng))]
    made = count_fractions()
    texts = [dumps(encode_stensor(structure_tensor(decode_vpoint(doc)))) for doc in docs]
    assert made == []
    monkeypatch.undo()
    assert all(json.loads(t)["point"] == doc for t, doc in zip(texts, docs))


def test_point_side_fraction_counts(rng, sparse_point, count_fractions):
    # s_map, circ_x and the cubic command run on integers; delta makes its one result
    calls = [(x, rand_albert(rng), rand_albert(rng)) for x in (w_point(), rand_semistable(rng), sparse_point(rng))]
    made = count_fractions()

    def made_by(f, *args):
        made.clear()
        f(*args)
        return len(made)

    for x, X, Y in calls:
        assert made_by(s_map, x, X, Y) == 0
        assert made_by(lambda: cubic_to_str(cubic_of(x))) == 0
        assert made_by(delta, x) == 1
        assert made_by(circ_x, x, X, Y) == 0


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
