"""Exact checks of each op's output bytes, by a route independent of the op.

    tensor   the contraction sum_ij X_i Y_j T_ijk of the output tensor
             equals s_map(x, X, Y) for the op's seeded probes X and Y; on
             one op in LITERAL_EVERY it also equals -18 phi1 + 3/2 phi2.
    isotope  the output equals circ_a_springer(a, X, Y).
    group    the composed element acts as its word does, one generator at
             a time; delta(g.x) = chi(g) delta(x); pair(gX, tilde(g)Y) =
             pair(X, Y); det(mu(g)X) = chi(g) det(X).
    cli      exit code and stdout bytes equal jsonio.dumps of the result
             computed in-process from the library functions, or the
             documented {"error", "detail"} JSON with exit 1.

A checker's ``check(op, k, data, seed)`` returns True when the output
bytes ``data`` of pool op ``k`` are right.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from albertkit import gaction, isotope, jsonio, smap
from albertkit.albert import AlbertElem, det_j, pair
from albertkit.errors import AlbertKitError
from albertkit.pvs import delta

LITERAL_EVERY = 8


def literal_sample(k: int, seed: int) -> bool:
    """Whether pool op k also gets the literal phi1/phi2 check."""
    return k % LITERAL_EVERY == random.Random(seed).randrange(LITERAL_EVERY)


class TensorChecker:
    def check(self, op, k, data, seed) -> bool:
        doc = json.loads(data)
        if set(doc) != {"basis", "entries", "point"} or doc["basis"] != jsonio.STENSOR_BASIS_TAG:
            return False
        if doc["point"] != op["point"] or len(doc["entries"]) != 27**3:
            return False
        t = [Fraction(s) for s in doc["entries"]]
        xs, ys = op["probe"]
        acc = [Fraction(0)] * 27
        for i in range(27):
            for j in range(27):
                w = xs[i] * ys[j]
                if w:
                    base = (i * 27 + j) * 27
                    for c in range(27):
                        acc[c] += w * t[base + c]
        x = jsonio.decode_vpoint(op["point"])
        X = AlbertElem.from_coords(xs)
        Y = AlbertElem.from_coords(ys)
        if tuple(acc) != smap.s_map(x, X, Y).coords():
            return False
        if literal_sample(k, seed):
            lit = smap.phi1(x, X, Y).scale(-18) + smap.phi2(x, X, Y).scale(Fraction(3, 2))
            return tuple(acc) == lit.coords()
        return True


class IsotopeChecker:
    def check(self, op, k, data, seed) -> bool:
        got = jsonio.decode_albert(json.loads(data))
        a, X, Y = (jsonio.decode_albert(op[key]) for key in ("a", "x", "y"))
        return got == isotope.circ_a_springer(a, X, Y)


class GroupChecker:
    def check(self, op, k, data, seed) -> bool:
        doc = json.loads(data)
        g = jsonio.decode_group(doc["g"])
        t = jsonio.decode_group(doc["tilde"])
        m = jsonio.decode_group(doc["mu"])
        c = jsonio.str_to_rat(doc["chi"])
        y = jsonio.decode_vpoint(doc["act_v"])
        gens = [jsonio.decode_group(d) for d in op["word"]]
        x = jsonio.decode_vpoint(op["point"])
        X = jsonio.decode_albert(op["x"])
        Y = jsonio.decode_albert(op["y"])
        gX, seq_x = X, x
        for h in reversed(gens):
            gX = h.apply_j(gX)
            seq_x = gaction.act_v(h, seq_x)
        return (
            g.apply_j(X) == gX
            and y == seq_x
            and c != 0
            and delta(y) == c * delta(x)
            and pair(g.apply_j(X), t.apply_j(Y)) == pair(X, Y)
            and det_j(m.apply_j(X)) == c * det_j(X)
        )


def cli_expected(op) -> bytes:
    """What the CLI must print for this op: b"<exit code>\\n" + stdout."""
    kind, f = op["class"], op["files"]
    dec_a, dec_v, dumps, rs = jsonio.decode_albert, jsonio.decode_vpoint, jsonio.dumps, jsonio.rat_to_str
    try:
        if kind == "det":
            payload = {"det": rs(det_j(dec_a(f["elem"])))}
        elif kind == "delta":
            payload = {"delta": rs(delta(dec_v(f["point"])))}
        elif kind == "structure":
            payload = jsonio.encode_stensor(smap.structure_tensor(dec_v(f["point"])))
        elif kind.startswith("smap-normalize"):
            payload = {"circ": jsonio.encode_albert(smap.circ_x(dec_v(f["point"]), dec_a(f["x"]), dec_a(f["y"])))}
        elif kind.startswith("isotope-mul"):
            fn = isotope.circ_a_springer if kind.endswith("springer") else isotope.circ_a_tform
            payload = {"product": jsonio.encode_albert(fn(dec_a(f["a"]), dec_a(f["x"]), dec_a(f["y"])))}
        elif kind == "qa-gram":
            payload = {"gram": [[rs(v) for v in row] for row in isotope.gram_qa(dec_a(f["a"]))]}
        else:
            raise ValueError("unknown CLI op class %r" % kind)
        code = 0
    except AlbertKitError as exc:
        payload = {"error": exc.kind, "detail": str(exc)}
        code = 1
    if code != int(kind.endswith(("-unstable", "-singular"))):
        raise ValueError("CLI op class %r gave exit %d in-process" % (kind, code))
    return b"%d\n" % code + dumps(payload).encode()


class CliChecker:
    def __init__(self):
        self._expected = {}  # pool index -> bytes; the CLI cycles through its pool

    def check(self, op, k, data, seed) -> bool:
        if k not in self._expected:
            self._expected[k] = cli_expected(op)
        return data == self._expected[k]


def make_checker(workload):
    return {"tensor": TensorChecker, "isotope": IsotopeChecker, "group": GroupChecker, "cli": CliChecker}[workload]()
