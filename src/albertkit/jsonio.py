"""JSON encoding for every domain type; exact rationals as "p/q" strings.

No floating point crosses this boundary. Encoders return plain Python
structures ready for json.dumps, with one exception: encode_stensor
returns its whole document already rendered, as an immutable value whose
text dumps prints as it is and json.dumps refuses. Decoders take parsed
JSON, validate shape and raise ParseError with a readable message.
dumps() fixes key order and spacing so identical values serialize to
identical bytes. Every rational is printed by _fmt (octonion._fmt) from
an int over a positive denominator, and read by _parse straight from its
decimal digits into two ints; decode_oct, decode_albert and decode_group
(the scales of a full-form L, read off its columns, and g2) bring those
over one denominator, and decode_stensor compares them with the tensor's
integers: no decoder makes a Fraction per coordinate. decode_group
makes none at all: c of the full form goes to the check as its parsed
ints, and the scalar and diag shorthands to gaction's integer builders.
encode_group formats ints too: L from its perm, nums and den, with one
shared "0" for the 702 zero entries, g2 from its nums and den, and c
from gaction._c_pair; it makes no Fraction. encode_stensor formats 54
values of a tensor, kn and 2 kn, from one gcd per coordinate, flips
their signs for -kn and -2 kn, and makes the document in one join: its
3051 nonzero entries between the fixed texts of a layout read once off
smap's slot rows, then the point, its 54 coordinate texts put into one
fixed template. decode_stensor accepts only the entries of the tensor
of their point.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter

from .albert import AlbertElem
from .errors import ParseError
from .gaction import GL2, GroupElem, _c_pair, _checked, _diag, _group, _scalar, gl2_elem, perm_elem
from .octonion import Oct, _fmt, _Frozen, _reduced, _too_long
from .pvs import BinaryCubic, VPoint
from .smap import StructureTensor, _slot_rows, structure_tensor

STENSOR_BASIS_TAG = "jbasis-v1"

# integers and fractions only: no decimals or exponents, whose few bytes
# can stand for an arbitrarily large integer
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_to_str(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return _fmt(x.numerator, x.denominator)


def _parse(s) -> tuple:
    """(p, q), q > 0, for a JSON int or a "p" or "p/q" string of decimal digits; ParseError otherwise."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    if not isinstance(s, str):
        raise ParseError("rational must be a string, got %r" % type(s).__name__)
    m = _RATIONAL.fullmatch(s.strip())
    if not m:
        raise ParseError("bad rational %r: expected p or p/q in decimal digits" % s)
    p, q = m.groups()
    try:
        p, q = int(p), int(q) if q else 1
    except ValueError as exc:
        raise ParseError("bad rational %r: %s" % (s, exc)) from None
    if not q:
        raise ParseError("bad rational %r: the denominator is 0" % s)
    return p, q


def str_to_rat(s) -> Fraction:
    return Fraction(*_parse(s))


def _over_lcm(pairs) -> tuple:
    """(nums, den): the parsed (p, q) as numerators p * (den // q) over den, the lcm of their q."""
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def _oct_pairs(obj) -> list:
    """The 8 parsed (p, q) of an octonion's coordinates; ParseError unless an array of 8."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 8:
        raise ParseError("octonion must be an array of 8 rationals")
    return [_parse(c) for c in obj]


def encode_oct(x: Oct) -> list:
    return [_fmt(n, x.den) for n in x.nums]

def decode_oct(obj) -> Oct:
    return _reduced(Oct, *_over_lcm(_oct_pairs(obj)))


def encode_albert(X: AlbertElem) -> dict:
    den = X.den
    c = [_fmt(n, den) for n in X.nums]
    return {"diag": c[0:3], "oct": [c[3:11], c[11:19], c[19:27]]}

def decode_albert(obj) -> AlbertElem:
    if not isinstance(obj, dict) or set(obj) != {"diag", "oct"}:
        raise ParseError('albert element must be {"diag": [...], "oct": [...]}')
    diag = obj["diag"]
    octs = obj["oct"]
    if not isinstance(diag, list) or len(diag) != 3:
        raise ParseError("diag must hold 3 rationals")
    if not isinstance(octs, list) or len(octs) != 3:
        raise ParseError("oct must hold 3 octonions")
    pairs = [_parse(c) for c in diag]
    for o in octs:
        pairs += _oct_pairs(o)
    return _reduced(AlbertElem, *_over_lcm(pairs))


def encode_vpoint(x: VPoint) -> dict:
    return {"a": encode_albert(x.a), "b": encode_albert(x.b)}

def decode_vpoint(obj) -> VPoint:
    if not isinstance(obj, dict) or set(obj) != {"a", "b"}:
        raise ParseError('point of V must be {"a": ..., "b": ...}')
    return VPoint(decode_albert(obj["a"]), decode_albert(obj["b"]))


def cubic_to_str(f: BinaryCubic) -> str:
    return str(f)


class _Rendered(_Frozen):
    """A JSON document already in canonical form, newline included: dumps returns its text; == compares texts."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self._init(text)


def _negated(s: str) -> str:
    """The text of -v from the text s of v: "0" stays "0"."""
    return s if s == "0" else s[1:] if s[0] == "-" else "-" + s


@lru_cache(maxsize=1)
def _stensor_layout() -> tuple:
    """(texts, take): the 3052 fixed texts around the 3051 nonzero entries of a tensor document, and their slots.

    Read off smap._slot_rows() by C-level bytes and string calls, with no
    Python loop over the 19683 entries: every entry is printed as "0",
    the digit of each nonzero one is overwritten with a NUL marker, and
    the document up to its "point" key is cut at the markers. take is
    itemgetter over the nonzero slots, entry by entry.
    """
    slots = b"".join(_slot_rows())
    entries = bytearray(b'"0",' * len(slots))
    entries[1::4] = slots.translate(b"0" + bytes(255))
    head = '{"basis":%s,"entries":[%s],"point":' % (_canonical(STENSOR_BASIS_TAG), entries[:-1].decode())
    return tuple(head.split("\0")), itemgetter(*slots.translate(None, b"\0"))


def _fmt_and_double(v: int, d: int) -> tuple:
    """(_fmt(v, d), _fmt(2 v, d)) from one gcd.

    With v/d = n/q in lowest terms, 2v/d is 2n/q for odd q, sharing q's
    digits, and n/(q/2) for even q, sharing n's.
    """
    g = gcd(v, d)
    n, q = v // g, d // g
    p = str(n)
    if q == 1:
        return p, str(2 * n)
    if q & 1:
        r = "/%d" % q
        return p + r, str(2 * n) + r
    return "%s/%d" % (p, q), p if q == 2 else "%s/%d" % (p, q >> 1)


def _point_text(x: VPoint) -> str:
    """_canonical(encode_vpoint(x)): its 54 _fmt texts put into the fixed template _POINT with one %."""
    a, b = x.a, x.b
    da, db = a.den, b.den
    return _POINT % (*[_fmt(n, da) for n in a.nums], *[_fmt(n, db) for n in b.nums])


def encode_stensor(t: StructureTensor) -> _Rendered:
    """The tensor as the rendered document {"basis", "entries", "point"}, entries row-major in (i, j, k).

    Only kn and 2 kn are formatted over t.den, 54 values from 27 gcds
    (_fmt_and_double); the texts of -kn and -2 kn are theirs with the
    sign flipped. The 3051 nonzero entries are taken from them in the
    order of smap.slot_values and joined once with the fixed texts of
    _stensor_layout() and the point's text (_point_text).
    """
    den = t.den
    try:
        one, two = zip(*[_fmt_and_double(v, den) for v in t.kn])
    except ValueError:
        raise _too_long() from None
    texts, take = _stensor_layout()
    parts = [None] * (2 * len(texts))
    parts[::2] = texts
    # by slot, as smap.slot_values; slot 0, the value 0, is in the texts
    parts[1:-1:2] = take([None, *map(_negated, two), *map(_negated, one), *one, *two])
    parts[-1] = _point_text(t.point) + "}\n"
    return _Rendered("".join(parts))

def decode_stensor(obj) -> StructureTensor:
    """The structure tensor of the point; ParseError unless the entries are exactly its 19683 constants."""
    if not isinstance(obj, dict) or set(obj) != {"basis", "entries", "point"}:
        raise ParseError('structure tensor must be {"basis", "point", "entries"}')
    if obj["basis"] != STENSOR_BASIS_TAG:
        raise ParseError("unknown basis tag %r" % (obj["basis"],))
    entries = obj["entries"]
    if not isinstance(entries, (list, tuple)) or len(entries) != 19683:
        raise ParseError("entries must hold 27^3 rationals")
    t = structure_tensor(decode_vpoint(obj["point"]))
    pairs = list(map(_parse, entries))
    if any(p * t.den != v * q for (p, q), v in zip(pairs, (n for r in t.rows for n in r))):
        raise ParseError("entries are not the structure tensor of the point")
    return t


def _decode_matrix(obj, rows, cols, what) -> list:
    """The rows of parsed (p, q); ParseError unless obj is a rows x cols matrix of rationals."""
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError("%s must be a %dx%d matrix" % (what, rows, cols))
    out = []
    for row in obj:
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError("%s must be a %dx%d matrix" % (what, rows, cols))
        out.append([_parse(v) for v in row])
    return out


def _decode_gl2(obj, what) -> GL2:
    """The 2x2 matrix obj as a GL2 over the lcm of its denominators; invertibility is the builders' check."""
    return _reduced(GL2, *_over_lcm([pq for row in _decode_matrix(obj, 2, 2, what) for pq in row]))


def encode_group(g: GroupElem) -> dict:
    L = [["0"] * 27 for _ in range(27)]
    for j, (i, n) in enumerate(zip(g.perm, g.nums)):
        L[i][j] = _fmt(n, g.den)
    a, b, c, d = (_fmt(n, g.g2.den) for n in g.g2.nums)
    return {"L": L, "c": _fmt(*_c_pair(g)), "g2": [[a, b], [c, d]]}

def decode_group(obj) -> GroupElem:
    """Full form {"L", "c", "g2"}, L monomial with det multiplier c, or shorthand {"kind", "params"}."""
    if not isinstance(obj, dict):
        raise ParseError("group element must be an object")
    if "kind" in obj:
        if set(obj) != {"kind", "params"}:
            raise ParseError('generator shorthand is {"kind": ..., "params": ...}')
        kind = obj["kind"]
        params = obj["params"]
        if kind == "scalar":
            return _scalar(*_parse(params))
        if kind == "diag":
            if not isinstance(params, list) or len(params) != 3:
                raise ParseError("diag shorthand needs 3 rationals")
            return _diag(*_over_lcm([_parse(v) for v in params]))
        if kind == "perm":
            if (
                not isinstance(params, list)
                or any(type(v) is not int for v in params)
                or sorted(params) != [1, 2, 3]
            ):
                raise ParseError("perm shorthand needs a permutation of [1, 2, 3]")
            return perm_elem(params)
        if kind == "gl2":
            return gl2_elem(_decode_gl2(params, "gl2 params"))
        raise ParseError("unknown generator kind %r" % (kind,))
    if set(obj) != {"L", "c", "g2"}:
        raise ParseError('group element must be {"L", "c", "g2"} or a shorthand')
    L = _decode_matrix(obj["L"], 27, 27, "L")
    c = _parse(obj["c"])
    g2 = _decode_gl2(obj["g2"], "g2")
    # each column's one nonzero (row, (p, q)): the perm and the scales of L
    cols = [[(i, pq) for i, pq in enumerate(col) if pq[0]] for col in zip(*L)]
    if any(len(col) != 1 for col in cols):
        raise ParseError("L must be monomial: one nonzero entry in each column")
    perm, pairs = zip(*(col[0] for col in cols))
    try:
        return _group(*_checked(perm, *_over_lcm(pairs), *c, g2))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# the canonical text of encode_vpoint with a "%s" for each coordinate text, in
# coordinate order: _fmt's texts of digits, "-" and "/" need no JSON escape
_POINT = _canonical({h: {"diag": ["%s"] * 3, "oct": [["%s"] * 8] * 3} for h in "ab"})


def dumps(obj) -> str:
    """Canonical bytes: sorted keys, fixed separators, trailing newline; a rendered document as it is."""
    if type(obj) is _Rendered:
        return obj.text
    return _canonical(obj) + "\n"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an over-long integer, deep nesting
        raise ParseError("%s is not valid JSON: %s" % (path, exc)) from None
