"""One workload in a fresh process: set-up probe, timed loop, exact checks.

    python3 perfbench/worker.py setup --workload W --workdir DIR
    python3 perfbench/worker.py run --workload W --workdir DIR --seconds S --seed N
    python3 perfbench/worker.py replay --workload W --workdir DIR

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src`` and
without ``ALBERTKIT_THREADS``; it reads the pool ``run.py`` wrote to
``DIR/pool.json`` and writes its result to ``DIR/result.json`` (``run``)
or ``DIR/replay.json`` (``replay``).

``setup`` times, from before ``import albertkit`` to the end of one
warm-up op on a fixed input, the set-up a fresh process pays.

``run`` does the same warm-up untimed, then runs ops one after another
(a closed loop with one client) until the ops have taken ``S`` seconds at
reference speed (calib.py) or the pool is used up, timing each op alone.
Each op's output bytes go to a file in ``DIR/out`` outside the timed region. Peak RSS is read when the
loop ends, and only then are the outputs checked, so neither checking
time nor checking memory enters a metric.

``replay`` runs the ops of a finished ``run`` again with the tracer
installed; the two timings give ``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402  (the benchmark's own generator, stdlib only)

WALL_CAP = 2.0


def _import_albertkit():
    """Import the package and its CLI, refusing any copy but the checkout's."""
    import albertkit
    import albertkit.cli  # noqa: F401

    src = os.path.join(ROOT, "src", "albertkit")
    if os.path.dirname(os.path.abspath(albertkit.__file__)) != src:
        raise SystemExit("albertkit imported from %s, not from %s" % (albertkit.__file__, src))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# -- ops: input preparation (untimed), the op (timed), output bytes (untimed) --


class TensorOps:
    """Decode a point from JSON, tabulate its structure tensor, encode it."""

    def __init__(self):
        from albertkit import jsonio, smap

        self.jsonio, self.smap = jsonio, smap

    def prepare(self, op):
        return json.dumps(op["point"])

    def run(self, text):
        jsonio = self.jsonio
        x = jsonio.decode_vpoint(json.loads(text))
        return jsonio.dumps(jsonio.encode_stensor(self.smap.structure_tensor(x))).encode()

    def output(self, result):
        return result


class IsotopeOps:
    """circ_a_tform(a, X, Y), the CLI's default isotope product."""

    def __init__(self):
        from albertkit import isotope, jsonio

        self.jsonio, self.isotope = jsonio, isotope

    def prepare(self, op):
        dec = self.jsonio.decode_albert
        return dec(op["a"]), dec(op["x"]), dec(op["y"])

    def run(self, args):
        return self.isotope.circ_a_tform(*args)

    def output(self, result):
        return self.jsonio.dumps(self.jsonio.encode_albert(result)).encode()


class GroupOps:
    """Decode and compose a generator word, then tilde, mu, chi and act_v."""

    def __init__(self):
        from albertkit import gaction, jsonio

        self.jsonio, self.gaction = jsonio, gaction

    def prepare(self, op):
        return op["word"], self.jsonio.decode_vpoint(op["point"])

    def run(self, args):
        word, x = args
        ga = self.gaction
        gens = [self.jsonio.decode_group(doc) for doc in word]
        g = gens[0]
        for h in gens[1:]:
            g = g.compose(h)
        return g, ga.tilde(g), ga.mu(g), ga.chi(g), ga.act_v(g, x)

    def output(self, result):
        j = self.jsonio
        g, t, m, c, y = result
        return j.dumps(
            {
                "g": j.encode_group(g),
                "tilde": j.encode_group(t),
                "mu": j.encode_group(m),
                "chi": j.rat_to_str(c),
                "act_v": j.encode_vpoint(y),
            }
        ).encode()


class CliOps:
    """One cold ``python -m albertkit.cli`` child per op, on files in DIR/cli."""

    def __init__(self, traced_dir=None):
        self.traced_dir = traced_dir
        self.children = 0

    def prepare(self, op):
        files = op["_paths"]
        argv = [files.get(a, a) for a in op["argv"]]
        if self.traced_dir is None:
            return [sys.executable, "-m", "albertkit.cli"] + argv
        self.children += 1
        stats = os.path.join(self.traced_dir, "%d.json" % self.children)
        return [sys.executable, os.path.join(HERE, "cli_traced.py"), stats] + argv

    def run(self, cmd):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc.returncode, proc.stdout

    def output(self, result):
        code, out = result
        return b"%d\n" % code + out


def write_cli_files(pool, workdir):
    """Materialise every CLI op's input documents as files (input generation)."""
    for i, op in enumerate(pool["ops"]):
        d = os.path.join(workdir, "cli", str(i))
        os.makedirs(d, exist_ok=True)
        op["_paths"] = {}
        for name, doc in op["files"].items():
            path = os.path.join(d, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            op["_paths"][name] = path


def make_ops(workload, traced_dir=None):
    if workload == "cli":
        return CliOps(traced_dir)
    return {"tensor": TensorOps, "isotope": IsotopeOps, "group": GroupOps}[workload]()


# -- warm-up --------------------------------------------------------------------


def warmup_input(workload, workdir):
    """The fixed warm-up op (generated before any clock starts)."""
    op = gen.generate_warmup(workload)["ops"][0]
    if workload == "cli":
        path = os.path.join(workdir, "warmup_a.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["files"]["a"], fh)
        op["_paths"] = {"a": path}
    return op


def warmup_op(workload, op):
    """One op on the fixed input; for the CLI, an in-process ``qa --gram``."""
    if workload == "cli":
        from albertkit import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["qa", "--gram", op["_paths"]["a"]])
        if code != 0:
            raise RuntimeError("warm-up qa --gram failed: %s" % buf.getvalue())
        return
    ops = make_ops(workload)
    ops.output(ops.run(ops.prepare(op)))


def cmd_setup(args):
    op = warmup_input(args.workload, args.workdir)
    cal0 = calib.sample()
    t0 = time.perf_counter()
    _import_albertkit()
    warmup_op(args.workload, op)
    dt = time.perf_counter() - t0
    print(json.dumps({"setup_s": dt, "cal_s": (cal0 + calib.sample()) / 2}))
    return 0


# -- timed loop -------------------------------------------------------------------


def timed_loop(ops, pool_ops, seconds, out_dir, n_max=None, tracer=None, cycle=False):
    """Run ops in pool order for `seconds` of op time at reference speed
    (calib.py), or for exactly `n_max` ops.

    Budgeting rescaled time, not wall time, keeps the number of ops, and
    with it the tail percentile, the same however loaded the host is; the
    wall time of the loop is capped at WALL_CAP times `seconds`.
    Returns pool indices, latencies, the calibration time around each op
    (the mean of the kernel samples just before and just after it) and
    output digests.
    """
    indices, lat, cal, digests = [], [], [], []
    clock = time.perf_counter
    start = clock()
    spent = 0.0
    cal_before = calib.sample()
    i = 0
    while True:
        if n_max is not None:
            if i >= n_max:
                break
        elif spent >= seconds or clock() - start >= WALL_CAP * seconds:
            break
        if i >= len(pool_ops) and not cycle:
            break
        k = i % len(pool_ops)
        arg = ops.prepare(pool_ops[k])
        if tracer is not None:
            tracer.active = True
        t = clock()
        try:
            result = ops.run(arg)
            failed = False
        except Exception:  # an op that raises counts as failed; keep measuring
            failed = True
            traceback.print_exc()
        dt = clock() - t
        if tracer is not None:
            tracer.active = False
        cal_after = calib.sample()
        indices.append(k)
        lat.append(dt)
        cal.append((cal_before + cal_after) / 2)
        spent += dt * calib.REF_S / cal[-1]
        cal_before = cal_after
        if failed:
            digests.append(None)
        else:
            data = ops.output(result)
            digests.append(digest(data))
            if out_dir is not None:
                with open(os.path.join(out_dir, "%d.out" % i), "wb") as fh:
                    fh.write(data)
        i += 1
    return indices, lat, cal, digests


def peak_rss_kb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def _warm(workload, workdir):
    """Import and, in-process workloads only, run the warm-up op untimed.

    CLI children are cold by design, so the CLI workload has nothing to warm.
    """
    _import_albertkit()
    if workload != "cli":
        warmup_op(workload, warmup_input(workload, workdir))


def _load_pool(workdir, workload):
    with open(os.path.join(workdir, "pool.json"), encoding="utf-8") as fh:
        pool = json.load(fh)
    if workload == "cli":
        write_cli_files(pool, workdir)
    return pool


def cmd_run(args):
    """Untraced: the timed loop, peak RSS, then the checks."""
    workload = args.workload
    pool = _load_pool(args.workdir, workload)
    _warm(workload, args.workdir)
    out_dir = os.path.join(args.workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    ops = make_ops(workload)
    indices, lat, cal, digests = timed_loop(
        ops, pool["ops"], args.seconds, out_dir, n_max=args.ops, cycle=workload == "cli"
    )
    result = {
        "indices": indices,
        "latency_s": lat,
        "cal_s": cal,
        "digests": digests,
        "peak_rss_kb": peak_rss_kb(workload),
        "executed": gen.pool_shares([pool["ops"][k] for k in indices]) if indices else {},
    }
    pins = {} if args.no_pins else load_pins(args.seed).get(workload, [])
    result["failed_ops"] = check_all(workload, pool, indices, digests, out_dir, args.seed, pins)
    _write_json(os.path.join(args.workdir, "result.json"), result)
    return 0


def cmd_replay(args):
    """Traced, in a process of its own: the ops of the untraced run, again.

    A fresh process keeps the untraced run's caches (the per-point
    context in smap) from serving the replay.
    """
    import tracer as tr

    workload = args.workload
    pool = _load_pool(args.workdir, workload)
    with open(os.path.join(args.workdir, "result.json"), encoding="utf-8") as fh:
        untraced = json.load(fh)
    n = len(untraced["indices"])
    _warm(workload, args.workdir)
    if workload == "cli":
        traced_dir = os.path.join(args.workdir, "traced")
        os.makedirs(traced_dir, exist_ok=True)
        ops = make_ops(workload, traced_dir)
        _, lat, cal, digests = timed_loop(ops, pool["ops"], None, None, n_max=n, cycle=True)
        snaps = []
        for i in range(1, ops.children + 1):
            with open(os.path.join(traced_dir, "%d.json" % i), encoding="utf-8") as fh:
                snaps.append(json.load(fh))
        snap = tr.merge(snaps)
    else:
        t = tr.Tracer()
        t.install()
        ops = make_ops(workload)
        _, lat, cal, digests = timed_loop(ops, pool["ops"], None, None, n_max=n, tracer=t)
        snap = t.snapshot()
    mismatched = [i for i, (a, b) in enumerate(zip(untraced["digests"], digests)) if a != b]
    for i in mismatched:
        print("op %d: traced output differs from the untraced one" % i, file=sys.stderr)
    # Rescaled to reference speed, as the end-to-end times are (calib.py).
    traced_s = sum(d / c for d, c in zip(lat, cal))
    untraced_s = sum(d / c for d, c in zip(untraced["latency_s"], untraced["cal_s"]))
    metrics = tr.layer_metrics(
        snap, n, sum(lat), calib.REF_S * traced_s / sum(lat), traced_s / untraced_s - 1.0
    )
    _write_json(os.path.join(args.workdir, "replay.json"), {"metrics": metrics, "failed_ops": mismatched})
    return 0


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# -- checks ------------------------------------------------------------------------


def load_pins(seed):
    path = os.path.join(HERE, "pinned.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        pins = json.load(fh)
    return pins["digests"] if pins["seed"] == seed else {}


def check_all(workload, pool, indices, digests, out_dir, seed, pins):
    """Indices (into the run) of ops whose output is wrong."""
    import checks

    checker = checks.make_checker(workload)
    failures = []
    for i, (k, d) in enumerate(zip(indices, digests)):
        ok = d is not None
        if ok and k < len(pins) and pins[k] != d:
            print("op %d (pool %d): output digest differs from the pinned one" % (i, k), file=sys.stderr)
            ok = False
        if ok:
            with open(os.path.join(out_dir, "%d.out" % i), "rb") as fh:
                data = fh.read()
            try:
                ok = checker.check(pool["ops"][k], k, data, seed)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print("op %d (pool %d, %s): wrong output" % (i, k, pool["ops"][k]["class"]), file=sys.stderr)
        if not ok:
            failures.append(i)
    return failures


def main(argv=None):
    p = argparse.ArgumentParser(description="one albertkit benchmark workload in this process")
    p.add_argument("mode", choices=("setup", "run", "replay"))
    p.add_argument("--workload", required=True, choices=sorted(gen.POOL_SIZE))
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    p.add_argument("--ops", type=int, default=None, help="run exactly this many ops, untimed limit")
    p.add_argument("--no-pins", action="store_true", help="skip the pinned-digest comparison")
    args = p.parse_args(argv)
    return {"setup": cmd_setup, "run": cmd_run, "replay": cmd_replay}[args.mode](args)


if __name__ == "__main__":
    raise SystemExit(main())
