"""Per-layer tracing for the albertkit benchmark, installed from outside.

``Tracer.install()`` replaces each function in ``WRAPPED`` with a wrapper
that counts calls and accumulates self time (span time minus the time of
wrapped callees). It patches every binding of the function across the
loaded albertkit modules, so ``smap.cross``, ``isotope.gram_qa`` and the
alias ``cli.cross_j`` are traced as well as ``albert.cross``. A call is
named after the module that defines it.

Spans are aggregated in memory per function, never stored one by one:
the octonion layer alone is entered thousands of times per op. Only
calls made while the tracer is active (inside an op) are counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("octonion", "albert", "pvs", "smap", "isotope", "linalg", "gaction", "jsonio", "cli")

WRAPPED = {
    "octonion": ("oct_mul", "oct_q", "oct_norm", "trace_prod3"),
    "albert": (
        "jordan_mul",
        "cross",
        "pair",
        "pair_vec",
        "det_j",
        "trilinear_d",
        "basis_crosses",
        "pair_gram",
    ),
    "pvs": ("delta",),
    "smap": ("k_elem", "s_map", "circ_x", "structure_tensor"),
    "isotope": ("gram_qa", "circ_a_tform", "circ_a_springer"),
    "linalg": ("solve_exact", "mat_mul", "inv_exact", "mat_vec"),
    "gaction": (
        "GroupElem.compose",
        "GroupElem.apply_j",
        "tilde",
        "mu",
        "act_v",
        "perm_elem",
        "diag_conj",
    ),
    "jsonio": ("encode_stensor", "dumps", "decode_vpoint", "decode_albert", "decode_group"),
    "cli": ("main",),
}

# Spans the harness records itself rather than by wrapping a function.
EXTRA_SPANS = ("cli.import",)

# gram_qa calls whose index element was already seen are wasted work that
# a per-index context would save.
DISTINCT_ARG = "isotope.gram_qa"


def span_names() -> list:
    names = []
    for mod in MODULES:
        for attr in WRAPPED[mod]:
            names.append(mod + "." + attr.rsplit(".", 1)[-1])
    return names + list(EXTRA_SPANS)


def metric_specs() -> list:
    """Every per-layer metric, as (name, unit, better)."""
    specs = []
    for name in span_names():
        specs.append((name + ".calls", "count", "lower"))
        specs.append((name + ".self_ms", "ms", "lower"))
    for mod in MODULES:
        specs.append((mod + ".self_frac", "frac", "lower"))
    specs.append((DISTINCT_ARG + ".useful_frac", "frac", "higher"))
    specs.append(("trace.overhead_frac", "frac", "lower"))
    return specs


class Tracer:
    """Counts and self times per wrapped function, over the active spans."""

    def __init__(self):
        self.calls = {name: 0 for name in span_names()}
        self.self_s = {name: 0.0 for name in span_names()}
        self.distinct = set()  # hashes of gram_qa index elements
        self.active = False
        self._stack = [0.0]

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        track = name == DISTINCT_ARG

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if track:
                self.distinct.add(hash(args[0]))
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                stack[-1] += dt

        return wrapper

    def install(self) -> None:
        """Import every albertkit module and patch each binding of WRAPPED."""
        for mod in MODULES + ("verify",):
            importlib.import_module("albertkit." + mod)
        loaded = [m for k, m in sys.modules.items() if k == "albertkit" or k.startswith("albertkit.")]
        for mod in MODULES:
            module = sys.modules["albertkit." + mod]
            for attr in WRAPPED[mod]:
                owner = module
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(module, cls)
                orig = owner.__dict__[attr]
                wrapper = self._wrap(mod + "." + attr, orig)
                setattr(owner, attr, wrapper)
                for m in loaded:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapper)

    def record(self, name, seconds) -> None:
        """A span the harness timed itself (no wrapped parent)."""
        self.calls[name] += 1
        self.self_s[name] += seconds

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "distinct": sorted(self.distinct),
        }


def merge(snapshots) -> dict:
    """Sum several snapshots (one per traced CLI child)."""
    out = {"calls": {n: 0 for n in span_names()}, "self_s": {n: 0.0 for n in span_names()}, "distinct": set()}
    for snap in snapshots:
        for n, v in snap["calls"].items():
            out["calls"][n] += v
        for n, v in snap["self_s"].items():
            out["self_s"][n] += v
        out["distinct"].update(snap["distinct"])
    out["distinct"] = sorted(out["distinct"])
    return out


def layer_metrics(snap, n_ops, traced_s, scale, overhead_frac) -> dict:
    """Per-op counts and self times, module shares and the ratios, by name.

    `traced_s` is the measured time of the traced ops; self times are
    multiplied by `scale` to bring them to reference speed.
    """
    out = {}
    module_s = {mod: 0.0 for mod in MODULES}
    for name in span_names():
        out[name + ".calls"] = snap["calls"][name] / n_ops
        out[name + ".self_ms"] = 1000.0 * scale * snap["self_s"][name] / n_ops
        module_s[name.split(".", 1)[0]] += snap["self_s"][name]
    for mod in MODULES:
        out[mod + ".self_frac"] = module_s[mod] / traced_s if traced_s else 0.0
    gram_calls = snap["calls"][DISTINCT_ARG]
    out[DISTINCT_ARG + ".useful_frac"] = len(snap["distinct"]) / gram_calls if gram_calls else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
