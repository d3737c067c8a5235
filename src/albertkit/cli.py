"""Command-line surface: evaluate the maps on JSON files, deterministically.

Every value crossing stdin/stdout is exact; rationals print as "p/q".
Identical argv and input files produce identical bytes. Failures exit 1
with {"error": kind, "detail": message} on stdout; a malformed command
line is a ParseError. --help prints usage and exits 0.

_COMMANDS holds every subcommand but verify once: its help, its input
files as (argument, help, decoder) and its result, a function of the
args and the decoded inputs. _parser() and _dispatch() both read it.
"""

from __future__ import annotations

import argparse
import sys

from . import isotope, smap
from .albert import det_j, jordan_mul, trace_j, trilinear_d
from .albert import cross as cross_j
from .errors import AlbertKitError, ParseError
from .jsonio import (
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


def _albert(*files):
    """Element files, each given as (argument, help)."""
    return [(name, helptext, decode_albert) for name, helptext in files]


def _smap(args, point, x, y):
    key, fn = ("circ", smap.circ_x) if args.normalize else ("smap", smap.s_map)
    return {key: encode_albert(fn(point, x, y))}


def _isotope_mul(args, a, x, y):
    fn = isotope.circ_a_tform if args.method == "tform" else isotope.circ_a_springer
    return {"product": encode_albert(fn(a, x, y))}


def _qa(args, a):
    """The Gram matrix under --gram; else q_a(x, y), whose files are read once both are given."""
    if args.gram:
        return {"gram": [[rat_to_str(v) for v in row] for row in isotope.gram_qa(a)]}
    if args.x is None or args.y is None:
        raise ParseError("qa needs two argument files unless --gram is given")
    x, y = (decode_albert(load_json(f)) for f in (args.x, args.y))
    return {"qa": rat_to_str(isotope.q_a(a, x, y))}


_ELEM = _albert(("elem", "element JSON file"))
_INDEX = _albert(("a", "index element"))
_POINT = [("point", "VPoint JSON file", decode_vpoint)]
_XY = _albert(("x", "left factor"), ("y", "right factor"))
_XYZ = _albert(("x", "first"), ("y", "second"), ("z", "third"))

# subcommand -> (help, input files as (argument, help, decoder), result of (args, *decoded inputs));
# each result looks its function up when the command runs, so a rebound name is the one called
_COMMANDS = {
    "det": ("cubic form of an element", _ELEM, lambda _, *v: {"det": rat_to_str(det_j(*v))}),
    "trace": ("trace of an element", _ELEM, lambda _, *v: {"trace": rat_to_str(trace_j(*v))}),
    "jordan": ("Jordan product", _XY, lambda _, *v: {"jordan": encode_albert(jordan_mul(*v))}),
    "cross": ("Freudenthal cross product", _XY, lambda _, *v: {"cross": encode_albert(cross_j(*v))}),
    "dform": ("polarized determinant D(X, Y, Z)", _XYZ, lambda _, *v: {"dform": rat_to_str(trilinear_d(*v))}),
    "cubic": ("binary cubic of a point of V", _POINT, lambda _, x: {"cubic": str(cubic_of(x))}),
    "delta": ("degree-12 invariant of a point of V", _POINT, lambda _, x: {"delta": rat_to_str(delta(x))}),
    "smap": ("structure map S_x(X, Y)", _POINT + _albert(("x", "first input"), ("y", "second input")), _smap),
    "structure": (
        "full 27x27x27 structure tensor at a point", _POINT, lambda args, x: encode_stensor(smap.structure_tensor(x))
    ),
    "tform": ("trilinear form T_a(X, Y, Z)", _INDEX + _XYZ, lambda _, *v: {"tform": rat_to_str(isotope.t_form(*v))}),
    "isotope-mul": ("isotope product X circ_a Y", _albert(("a", "index element, det != 0")) + _XY, _isotope_mul),
    "qa": ("bilinear form Q_a", _INDEX, _qa),
}


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
    for name, (helptext, files, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        for fname, fhelp, _ in files:
            sp.add_argument(fname, help=fhelp)
    sub.choices["smap"].add_argument(
        "--normalize",
        action="store_true",
        help="divide by delta(point): the isotope product (needs semistability)",
    )
    sub.choices["isotope-mul"].add_argument(
        "--method",
        choices=("tform", "springer"),
        default="tform",
        help="tform (default): the V with q_a(V, Z) = T_a(X, Y, Z) / det(a) for every Z, "
        "in closed form; springer: evaluate det(a)^-4 phi_a(X, Y), the quadratic-map formula",
    )
    sp = sub.choices["qa"]
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
    if args.command == "verify":
        return _verify(args)
    if args.command == "qa" and args.gram and (args.x, args.y) != (None, None):
        raise ParseError("qa --gram takes only the index element")
    _, files, result = _COMMANDS[args.command]
    return result(args, *[dec(load_json(getattr(args, f))) for f, _, dec in files]), 0


def _verify(args):
    from . import verify

    results = verify.run_suite(args.suite, seed=args.seed, trials=args.trials)
    ok = all(r.failed == 0 for r in results)
    checks = [{"name": r.name, "passed": r.passed, "failed": r.failed} for r in results]
    return {"suite": args.suite, "seed": args.seed, "trials": args.trials, "checks": checks, "ok": ok}, 0 if ok else 1


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
