"""Command-line surface: evaluate the maps on JSON files, deterministically.

Every value crossing stdin/stdout is exact; rationals print as "p/q".
Identical argv and input files produce identical bytes. Failures exit 1
with {"error": kind, "detail": message} on stdout; a malformed command
line is a ParseError. --help prints usage and exits 0.
"""

from __future__ import annotations

import argparse
import sys

from . import isotope, smap
from .albert import det_j, jordan_mul, trace_j, trilinear_d
from .albert import cross as cross_j
from .errors import AlbertKitError, ParseError
from .jsonio import (
    cubic_to_str,
    decode_albert,
    decode_vpoint,
    dumps,
    encode_albert,
    encode_stensor,
    load_json,
    rat_to_str,
)
from .pvs import cubic_of, delta


MAX_TRIALS = 1000


def _trials(text: str) -> int:
    """--trials: an integer from 1 to MAX_TRIALS."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 1 <= n <= MAX_TRIALS:
        raise argparse.ArgumentTypeError("trials must be an integer from 1 to %d, got %r" % (MAX_TRIALS, text))
    return n


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors follow the JSON error contract."""

    def error(self, message):
        raise ParseError(message)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="albertkit",
        description="Exact computations in the exceptional Jordan algebra, "
        "its cubic form, and the structure map on pairs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, helptext, *files):
        sp = sub.add_parser(name, help=helptext)
        for fname, fhelp in files:
            sp.add_argument(fname, help=fhelp)
        return sp

    cmd("det", "cubic form of an element", ("elem", "element JSON file"))
    cmd("trace", "trace of an element", ("elem", "element JSON file"))
    cmd("jordan", "Jordan product", ("x", "left factor"), ("y", "right factor"))
    cmd("cross", "Freudenthal cross product", ("x", "left factor"), ("y", "right factor"))
    cmd(
        "dform",
        "polarized determinant D(X, Y, Z)",
        ("x", "first"), ("y", "second"), ("z", "third"),
    )
    cmd("cubic", "binary cubic of a point of V", ("point", "VPoint JSON file"))
    cmd("delta", "degree-12 invariant of a point of V", ("point", "VPoint JSON file"))
    sp = cmd(
        "smap",
        "structure map S_x(X, Y)",
        ("point", "VPoint JSON file"), ("x", "first input"), ("y", "second input"),
    )
    sp.add_argument(
        "--normalize",
        action="store_true",
        help="divide by delta(point): the isotope product (needs semistability)",
    )
    cmd("structure", "full 27x27x27 structure tensor at a point", ("point", "VPoint JSON file"))
    cmd(
        "tform",
        "trilinear form T_a(X, Y, Z)",
        ("a", "index element"), ("x", "first"), ("y", "second"), ("z", "third"),
    )
    sp = cmd(
        "isotope-mul",
        "isotope product X circ_a Y",
        ("a", "index element, det != 0"), ("x", "left factor"), ("y", "right factor"),
    )
    sp.add_argument(
        "--method",
        choices=("tform", "springer"),
        default="tform",
        help="tform (default): the V with q_a(V, Z) = T_a(X, Y, Z) / det(a) for every Z, "
        "in closed form; springer: evaluate det(a)^-4 phi_a(X, Y), the quadratic-map formula",
    )
    sp = cmd("qa", "bilinear form Q_a", ("a", "index element"))
    sp.add_argument("x", nargs="?", help="first argument (omit with --gram)")
    sp.add_argument("y", nargs="?", help="second argument (omit with --gram)")
    sp.add_argument(
        "--gram", action="store_true", help="emit the full 27x27 Gram matrix instead"
    )
    sp = sub.add_parser("verify", help="run exact verification suites")
    sp.add_argument("--suite", default="all", help="one suite, or all (the default)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--trials", type=_trials, default=20, help="random trials per check, 1 to %d (default 20)" % MAX_TRIALS
    )
    return p


def _dispatch(args):
    cmd = args.command
    if cmd == "det":
        return {"det": rat_to_str(det_j(decode_albert(load_json(args.elem))))}, 0
    if cmd == "trace":
        return {"trace": rat_to_str(trace_j(decode_albert(load_json(args.elem))))}, 0
    if cmd == "jordan":
        x = decode_albert(load_json(args.x))
        y = decode_albert(load_json(args.y))
        return {"jordan": encode_albert(jordan_mul(x, y))}, 0
    if cmd == "cross":
        x = decode_albert(load_json(args.x))
        y = decode_albert(load_json(args.y))
        return {"cross": encode_albert(cross_j(x, y))}, 0
    if cmd == "dform":
        x = decode_albert(load_json(args.x))
        y = decode_albert(load_json(args.y))
        z = decode_albert(load_json(args.z))
        return {"dform": rat_to_str(trilinear_d(x, y, z))}, 0
    if cmd == "cubic":
        return {"cubic": cubic_to_str(cubic_of(decode_vpoint(load_json(args.point))))}, 0
    if cmd == "delta":
        return {"delta": rat_to_str(delta(decode_vpoint(load_json(args.point))))}, 0
    if cmd == "smap":
        point = decode_vpoint(load_json(args.point))
        x = decode_albert(load_json(args.x))
        y = decode_albert(load_json(args.y))
        if args.normalize:
            return {"circ": encode_albert(smap.circ_x(point, x, y))}, 0
        return {"smap": encode_albert(smap.s_map(point, x, y))}, 0
    if cmd == "structure":
        point = decode_vpoint(load_json(args.point))
        return encode_stensor(smap.structure_tensor(point)), 0
    if cmd == "tform":
        a = decode_albert(load_json(args.a))
        x = decode_albert(load_json(args.x))
        y = decode_albert(load_json(args.y))
        z = decode_albert(load_json(args.z))
        return {"tform": rat_to_str(isotope.t_form(a, x, y, z))}, 0
    if cmd == "isotope-mul":
        a = decode_albert(load_json(args.a))
        x = decode_albert(load_json(args.x))
        y = decode_albert(load_json(args.y))
        fn = isotope.circ_a_tform if args.method == "tform" else isotope.circ_a_springer
        return {"product": encode_albert(fn(a, x, y))}, 0
    if cmd == "qa":
        if args.gram and (args.x, args.y) != (None, None):
            raise ParseError("qa --gram takes only the index element")
        a = decode_albert(load_json(args.a))
        if args.gram:
            gram = isotope.gram_qa(a)
            return {"gram": [[rat_to_str(v) for v in row] for row in gram]}, 0
        if args.x is None or args.y is None:
            raise ParseError("qa needs two argument files unless --gram is given")
        x = decode_albert(load_json(args.x))
        y = decode_albert(load_json(args.y))
        return {"qa": rat_to_str(isotope.q_a(a, x, y))}, 0
    from . import verify

    results = verify.run_suite(args.suite, seed=args.seed, trials=args.trials)
    ok = all(r.failed == 0 for r in results)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "checks": [
            {"name": r.name, "passed": r.passed, "failed": r.failed} for r in results
        ],
        "ok": ok,
    }
    return payload, 0 if ok else 1


def main(argv=None) -> int:
    try:
        payload, code = _dispatch(_parser().parse_args(argv))
    except AlbertKitError as exc:
        sys.stdout.write(dumps({"error": exc.kind, "detail": str(exc)}))
        return 1
    sys.stdout.write(dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
