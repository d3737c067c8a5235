"""Seeded input generator for the albertkit benchmark.

Stdlib only: it never imports albertkit, so an edit to the library (or to
its own samplers in ``verify``) cannot shift the inputs. Everything it
produces is plain JSON in the documented CLI format: rationals are
``"p/q"`` strings, an element of J is ``{"diag": [3], "oct": [[8] x 3]}``,
a point of V is ``{"a": ..., "b": ...}`` and a group generator is the
``{"kind", "params"}`` shorthand.

The generator keeps its own small copy of the Zorn octonion product and
of the cubic form det(X) = s1 s2 s3 - sum s_i N(x_i) + tr((x1 x2) x3),
used only to reject inputs that would make an op fail (det(a) = 0 for an
isotope index, delta(x) = 0 for a point). The harness self-test checks
that this copy agrees with the library on every generated input.

Each workload's pool follows a fixed pattern of input classes; the seed
picks the values only. That keeps the cost mix of a run the same from
seed to seed, so run-to-run spread measures the program, not the draw.

Run ``python3 perfbench/gen.py --workload tensor --seed 3`` to print the
pool's recorded shares.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

# The seed when none is given; pinned.json holds output digests for it.
DEFAULT_SEED = 0

# Pools are long enough that no workload exhausts them at the seed's
# speed; a run that does exhaust its pool stops early (see worker.py).
POOL_SIZE = {"tensor": 240, "isotope": 400, "group": 400, "cli": 42}

SMALL_NUM = 9  # small height: |numerator| <= 9, denominator in {1, 2, 3}
SMALL_DEN = (1, 2, 3)
LARGE_BITS = {"tensor": 20, "isotope": 63}  # large height: numerators of this many bits
LARGE_DEN_BITS = {"tensor": 8, "isotope": 0}  # 0 bits: integers
SPARSE_NONZERO = 6  # coordinates set in a sparse element (of 27)

# Input classes per workload, repeated in this order. "d"/"s": dense or
# sparse elements; "small"/"large": rational height.
TENSOR_PATTERN = (("d", "small"), ("s", "large"), ("d", "large"), ("s", "small"))
ISOTOPE_PATTERN = (("d", "small"), ("s", "small"), ("d", "small"), ("d", "large"))
# Products served by each isotope index: drawn uniformly from this range.
ISOTOPE_REUSE = (1, 4)
# Group words, repeated in this order: every generator kind appears at
# every word length; the seed picks the parameters.
GROUP_WORDS = (
    ("diag",),
    ("perm", "gl2"),
    ("scalar", "diag", "perm"),
    ("gl2",),
    ("diag", "scalar"),
    ("perm", "diag", "gl2"),
    ("perm",),
    ("gl2", "diag"),
    ("scalar", "perm", "diag"),
)

# The cold-CLI mix, one pass in this order. Fast and slow commands
# alternate so that a run cut at any point keeps the same mix. Two of the
# fourteen are tform products, so that at the usual 60 to 70 ops per run
# the tail percentile (about the 85th) falls inside their cluster of
# latencies, not on the edge between two commands.
CLI_MIX = (
    "det",
    "structure",
    "delta",
    "smap-normalize",
    "isotope-mul-tform",
    "isotope-mul-springer",
    "det",
    "smap-normalize-unstable",
    "isotope-mul-tform",
    "delta",
    "qa-gram",
    "smap-normalize",
    "isotope-mul-springer",
    "isotope-mul-singular",
)

# Ops per pass through a workload's pattern. Throughput counts complete
# passes only, so that every run measures the same mix of inputs.
CYCLE = {
    "tensor": len(TENSOR_PATTERN),
    "isotope": len(ISOTOPE_PATTERN),
    "group": len(GROUP_WORDS),
    "cli": len(CLI_MIX),
}


# -- an independent cubic form (rejection only) ------------------------------


def _oct_mul(x, y):
    a1, v1, w1, b1 = x[0], x[1:4], x[4:7], x[7]
    a2, v2, w2, b2 = y[0], y[1:4], y[4:7], y[7]

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def crs(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    c1 = crs(w1, w2)
    c2 = crs(v1, v2)
    return (
        (a1 * a2 + dot(v1, w2),)
        + tuple(a1 * v2[i] + b2 * v1[i] - c1[i] for i in range(3))
        + tuple(a2 * w1[i] + b1 * w2[i] + c2[i] for i in range(3))
        + (b1 * b2 + dot(w1, v2),)
    )


def _oct_norm(x):
    return x[0] * x[7] - (x[1] * x[4] + x[2] * x[5] + x[3] * x[6])


def det27(c):
    """The cubic form of J on 27 coordinates [s1, s2, s3, x1, x2, x3]."""
    s1, s2, s3 = c[0], c[1], c[2]
    x1, x2, x3 = c[3:11], c[11:19], c[19:27]
    p = _oct_mul(_oct_mul(x1, x2), x3)
    return (
        s1 * s2 * s3
        - s1 * _oct_norm(x1)
        - s2 * _oct_norm(x2)
        - s3 * _oct_norm(x3)
        + p[0]
        + p[7]
    )


def delta27(a, b):
    """Discriminant of v -> det(a v1 + b v2), from four evaluations of det."""
    c30 = det27(a)
    c03 = det27(b)
    plus = det27([x + y for x, y in zip(a, b)]) - c30 - c03  # c21 + c12
    minus = det27([x - y for x, y in zip(a, b)]) - c30 + c03  # c12 - c21
    c21 = (plus - minus) / 2
    c12 = (plus + minus) / 2
    A, B, C, D = c30, c21, c12, c03
    return 18 * A * B * C * D - 4 * B**3 * D + B**2 * C**2 - 4 * A * C**3 - 27 * A**2 * D**2


# -- rationals and elements --------------------------------------------------


def rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _rat(rng, height, bits):
    if height == "small":
        return Fraction(rng.randint(-SMALL_NUM, SMALL_NUM), rng.choice(SMALL_DEN))
    num_bits, den_bits = bits
    num = rng.getrandbits(num_bits) | (1 << (num_bits - 1))
    den = rng.getrandbits(den_bits) | 1 if den_bits else 1
    return Fraction(num if rng.random() < 0.5 else -num, den)


def _rat_nonzero(rng, height, bits):
    while True:
        x = _rat(rng, height, bits)
        if x:
            return x


def elem_coords(rng, density, height, bits=(20, 8)):
    """27 Fractions: all nonzero (dense), or SPARSE_NONZERO of them (sparse)."""
    if density == "d":
        return [_rat_nonzero(rng, height, bits) for _ in range(27)]
    c = [Fraction(0)] * 27
    for i in rng.sample(range(27), SPARSE_NONZERO):
        c[i] = _rat_nonzero(rng, height, bits)
    return c


def elem_json(c) -> dict:
    s = [rat_str(x) for x in c]
    return {"diag": s[0:3], "oct": [s[3:11], s[11:19], s[19:27]]}


def point_json(a, b) -> dict:
    return {"a": elem_json(a), "b": elem_json(b)}


def semistable_point(rng, density, height, bits=(20, 8)):
    while True:
        a = elem_coords(rng, density, height, bits)
        b = elem_coords(rng, density, height, bits)
        if delta27(a, b) != 0:
            return a, b


def invertible_elem(rng, density, height, bits):
    while True:
        a = elem_coords(rng, density, height, bits)
        if det27(a) != 0:
            return a


def probe_ints(rng, n=27):
    """Nonzero integer coordinates in [-5, 5]: contraction probes.

    Every X_i Y_j is nonzero, so a change to any single tensor entry moves
    the contraction.
    """
    return [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(n)]


# -- group words -------------------------------------------------------------


def generator_json(rng, kind) -> dict:
    if kind == "scalar":
        return {"kind": "scalar", "params": rat_str(_rat_nonzero(rng, "small", None))}
    if kind == "diag":
        return {"kind": "diag", "params": [rat_str(_rat_nonzero(rng, "small", None)) for _ in range(3)]}
    if kind == "perm":
        sigma = [1, 2, 3]
        rng.shuffle(sigma)
        return {"kind": "perm", "params": sigma}
    while True:
        m = [[_rat(rng, "small", None) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return {"kind": "gl2", "params": [[rat_str(v) for v in row] for row in m]}


# -- pools ---------------------------------------------------------------------


def _tensor_pool(rng, n):
    bits = (LARGE_BITS["tensor"], LARGE_DEN_BITS["tensor"])
    ops = []
    for i in range(n):
        density, height = TENSOR_PATTERN[i % len(TENSOR_PATTERN)]
        a, b = semistable_point(rng, density, height, bits)
        ops.append(
            {
                "class": density + "-" + height,
                "point": point_json(a, b),
                "probe": [probe_ints(rng), probe_ints(rng)],
            }
        )
    return ops


def _isotope_pool(rng, n):
    """Op i has class ISOTOPE_PATTERN[i % 4]; each class serves its current
    index element for a seeded number of products before drawing a new one."""
    bits = (LARGE_BITS["isotope"], LARGE_DEN_BITS["isotope"])
    ops = []
    current = {}  # class -> [index, element, products left]
    indices = 0
    for i in range(n):
        cls = ISOTOPE_PATTERN[i % len(ISOTOPE_PATTERN)]
        density, height = cls
        slot = current.get(cls)
        if slot is None or slot[2] == 0:
            a = elem_json(invertible_elem(rng, density, height, bits))
            slot = current[cls] = [indices, a, rng.randint(*ISOTOPE_REUSE)]
            indices += 1
        slot[2] -= 1
        ops.append(
            {
                "class": density + "-" + height,
                "index": slot[0],
                "a": slot[1],
                "x": elem_json(elem_coords(rng, density, height, bits)),
                "y": elem_json(elem_coords(rng, density, height, bits)),
            }
        )
    return ops


def _group_pool(rng, n):
    ops = []
    for i in range(n):
        kinds = GROUP_WORDS[i % len(GROUP_WORDS)]
        a, b = semistable_point(rng, "d", "small")
        ops.append(
            {
                "class": "len%d" % len(kinds),
                "word": [generator_json(rng, kind) for kind in kinds],
                "point": point_json(a, b),
                "x": elem_json(elem_coords(rng, "d", "small")),
                "y": elem_json(elem_coords(rng, "d", "small")),
            }
        )
    return ops


def _singular_elem(rng):
    """s3 = 0 and x1 = x2 = 0 make every term of det vanish."""
    c = elem_coords(rng, "d", "small")
    c[2] = Fraction(0)
    c[3:19] = [Fraction(0)] * 16
    return c


def _cli_pool(rng, n):
    """Command name, argv after the command, and the named JSON files it reads."""
    ops = []
    for i in range(n):
        kind = CLI_MIX[i % len(CLI_MIX)]
        files = {}
        if kind == "det":
            files["elem"] = elem_json(elem_coords(rng, "d", "small"))
            argv = ["det", "elem"]
        elif kind == "delta":
            files["point"] = point_json(*semistable_point(rng, "d", "small"))
            argv = ["delta", "point"]
        elif kind == "structure":
            files["point"] = point_json(*semistable_point(rng, "d", "small"))
            argv = ["structure", "point"]
        elif kind in ("smap-normalize", "smap-normalize-unstable"):
            if kind == "smap-normalize":
                files["point"] = point_json(*semistable_point(rng, "d", "small"))
            else:
                # (a, 2a): the binary cubic is det(a) (v1 + 2 v2)^3, a triple root.
                a = elem_coords(rng, "d", "small")
                files["point"] = point_json(a, [2 * v for v in a])
            files["x"] = elem_json(elem_coords(rng, "d", "small"))
            files["y"] = elem_json(elem_coords(rng, "d", "small"))
            argv = ["smap", "--normalize", "point", "x", "y"]
        elif kind in ("isotope-mul-tform", "isotope-mul-springer", "isotope-mul-singular"):
            if kind == "isotope-mul-singular":
                files["a"] = elem_json(_singular_elem(rng))
            else:
                files["a"] = elem_json(invertible_elem(rng, "d", "small", None))
            files["x"] = elem_json(elem_coords(rng, "d", "small"))
            files["y"] = elem_json(elem_coords(rng, "d", "small"))
            method = "springer" if kind == "isotope-mul-springer" else "tform"
            argv = ["isotope-mul", "--method", method, "a", "x", "y"]
        else:  # qa-gram
            files["a"] = elem_json(invertible_elem(rng, "d", "small", None))
            argv = ["qa", "--gram", "a"]
        ops.append({"class": kind, "argv": argv, "files": files})
    return ops


_POOLS = {"tensor": _tensor_pool, "isotope": _isotope_pool, "group": _group_pool, "cli": _cli_pool}


def generate(workload: str, seed: int) -> dict:
    """The workload's pool for this seed, with the shares it was built to have."""
    rng = random.Random("albertkit-bench/%s/%d" % (workload, seed))
    ops = _POOLS[workload](rng, POOL_SIZE[workload])
    return {"workload": workload, "seed": seed, "ops": ops, "shares": pool_shares(ops)}


def generate_warmup(workload: str) -> dict:
    """A one-op pool on a fixed input, the same for every seed."""
    rng = random.Random("albertkit-bench/warmup/" + workload)
    if workload == "cli":
        a = elem_json(invertible_elem(rng, "d", "small", None))
        return {"ops": [{"class": "qa-gram", "argv": ["qa", "--gram", "a"], "files": {"a": a}}]}
    return {"ops": _POOLS[workload](rng, 1)}


def pool_shares(ops) -> dict:
    """Share of pool ops per input class (and, for isotope, reusing an index)."""
    n = len(ops)
    shares = {}
    for op in ops:
        shares[op["class"]] = shares.get(op["class"], 0) + 1
    out = {"class." + k: v / n for k, v in sorted(shares.items())}
    if ops and "index" in ops[0]:
        out["index_reuse"] = reuse_share(ops)
    return out


def reuse_share(ops) -> float:
    """Share of ops whose isotope index was already used by an earlier op."""
    seen = set()
    reused = 0
    for op in ops:
        reused += op["index"] in seen
        seen.add(op["index"])
    return reused / len(ops) if ops else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(_POOLS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = p.parse_args(argv)
    pool = generate(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": len(pool["ops"]), "shares": pool["shares"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
