"""JSON encoding for every domain type; exact rationals as "p/q" strings.

No floating point crosses this boundary. Encoders return plain Python
structures ready for json.dumps; decoders validate shape and raise
ParseError with a readable message. dumps() fixes key order and spacing
so identical values serialize to identical bytes. Every rational is
printed by _fmt from an int over a positive denominator, and read by
str_to_rat straight from its decimal digits. encode_stensor formats the
109 slot values of a tensor once each and lays them out by smap's slot
table, into an immutable tuple of entry strings carrying the JSON text
that dumps splices in; decode_stensor accepts only the entries of the
tensor of their point.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd

from .albert import AlbertElem
from .errors import ParseError
from .gaction import GroupElem, diag_conj, gl2_elem, perm_elem, scalar_elem
from .octonion import Oct, _Frozen
from .pvs import BinaryCubic, VPoint
from .smap import StructureTensor, lay_out, slot_values, structure_tensor

STENSOR_BASIS_TAG = "jbasis-v1"
_STENSOR_KEYS = {"basis", "entries", "point"}

# integers and fractions only: no decimals or exponents, whose few bytes
# can stand for an arbitrarily large integer
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _fmt(n: int, d: int) -> str:
    """n/d for d > 0 in lowest terms, "p" or "p/q"; ParseError past the int-to-str digit limit."""
    g = gcd(n, d)
    try:
        if g == d:
            return str(n // d)
        return "%d/%d" % (n // g, d // g)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        msg = "the result has an integer of more than %d digits, the limit for printing one" % limit
        raise ParseError(msg) from None


def rat_to_str(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return _fmt(x.numerator, x.denominator)


def str_to_rat(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError("rational must be a string, got %r" % type(s).__name__)
    m = _RATIONAL.fullmatch(s.strip())
    if not m:
        raise ParseError("bad rational %r: expected p or p/q in decimal digits" % s)
    p, q = m.groups()
    try:
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad rational %r: %s" % (s, exc)) from None


def encode_oct(x: Oct) -> list:
    return [_fmt(n, x.den) for n in x.nums]

def decode_oct(obj) -> Oct:
    if not isinstance(obj, (list, tuple)) or len(obj) != 8:
        raise ParseError("octonion must be an array of 8 rationals")
    return Oct.from_coords([str_to_rat(c) for c in obj])


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
    coords = [str_to_rat(c) for c in diag]
    for o in octs:
        if not isinstance(o, (list, tuple)) or len(o) != 8:
            raise ParseError("octonion must be an array of 8 rationals")
        coords += [str_to_rat(c) for c in o]
    return AlbertElem.from_coords(coords)


def encode_vpoint(x: VPoint) -> dict:
    return {"a": encode_albert(x.a), "b": encode_albert(x.b)}

def decode_vpoint(obj) -> VPoint:
    if not isinstance(obj, dict) or set(obj) != {"a", "b"}:
        raise ParseError('point of V must be {"a": ..., "b": ...}')
    return VPoint(decode_albert(obj["a"]), decode_albert(obj["b"]))


def cubic_to_str(f: BinaryCubic) -> str:
    return "[%s, %s, %s, %s]" % tuple(rat_to_str(c) for c in f.coeffs())


class _StensorEntries(tuple, _Frozen):
    """The entry strings of encode_stensor; text is their rendered JSON array."""


def encode_stensor(t: StructureTensor) -> dict:
    """The tensor as {"basis", "point", "entries"}, entries row-major in (i, j, k).

    The 109 slot values of t.kn are formatted once each over t.den and
    laid out into the rows by the slot table; "entries" carries the JSON
    text of the whole array for dumps.
    """
    den = t.den
    rows = lay_out([_fmt(v, den) for v in slot_values(t.kn)])
    entries = _StensorEntries(chain.from_iterable(rows))
    object.__setattr__(entries, "text", '["' + '","'.join(entries) + '"]')
    return {
        "basis": STENSOR_BASIS_TAG,
        "point": encode_vpoint(t.point),
        "entries": entries,
    }

def decode_stensor(obj) -> StructureTensor:
    """The structure tensor of the point; ParseError unless the entries are exactly its 19683 constants."""
    if not isinstance(obj, dict) or set(obj) != _STENSOR_KEYS:
        raise ParseError('structure tensor must be {"basis", "point", "entries"}')
    if obj["basis"] != STENSOR_BASIS_TAG:
        raise ParseError("unknown basis tag %r" % (obj["basis"],))
    entries = obj["entries"]
    if not isinstance(entries, (list, tuple)) or len(entries) != 19683:
        raise ParseError("entries must hold 27^3 rationals")
    t = structure_tensor(decode_vpoint(obj["point"]))
    if tuple(map(str_to_rat, entries)) != t.flat:
        raise ParseError("entries are not the structure tensor of the point")
    return t


def _decode_matrix(obj, rows, cols, what) -> tuple:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError("%s must be a %dx%d matrix" % (what, rows, cols))
    out = []
    for row in obj:
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError("%s must be a %dx%d matrix" % (what, rows, cols))
        out.append(tuple(str_to_rat(v) for v in row))
    return tuple(out)


def encode_group(g: GroupElem) -> dict:
    return {
        "L": [[rat_to_str(v) for v in row] for row in g.L],
        "c": rat_to_str(g.c),
        "g2": [[rat_to_str(v) for v in row] for row in g.g2],
    }

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
            return scalar_elem(str_to_rat(params))
        if kind == "diag":
            if not isinstance(params, list) or len(params) != 3:
                raise ParseError("diag shorthand needs 3 rationals")
            return diag_conj(*[str_to_rat(v) for v in params])
        if kind == "perm":
            if (
                not isinstance(params, list)
                or any(type(v) is not int for v in params)
                or sorted(params) != [1, 2, 3]
            ):
                raise ParseError("perm shorthand needs a permutation of [1, 2, 3]")
            return perm_elem(params)
        if kind == "gl2":
            return gl2_elem(_decode_matrix(params, 2, 2, "gl2 params"))
        raise ParseError("unknown generator kind %r" % (kind,))
    if set(obj) != {"L", "c", "g2"}:
        raise ParseError('group element must be {"L", "c", "g2"} or a shorthand')
    L = _decode_matrix(obj["L"], 27, 27, "L")
    c = str_to_rat(obj["c"])
    g2 = _decode_matrix(obj["g2"], 2, 2, "g2")
    try:
        return GroupElem.from_dense(L, c, g2)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    """Canonical bytes: sorted keys, fixed separators, trailing newline.

    A dict of exactly the encode_stensor keys whose entries are that
    encoder's tuple gets their rendered text spliced in between "basis"
    and "point"; every other value goes through json.dumps.
    """
    if isinstance(obj, dict) and obj.keys() == _STENSOR_KEYS:
        entries = obj["entries"]
        if type(entries) is _StensorEntries:
            return '{"basis":%s,"entries":%s,"point":%s}\n' % (
                _canonical(obj["basis"]),
                entries.text,
                _canonical(obj["point"]),
            )
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
