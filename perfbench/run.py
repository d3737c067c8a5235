"""The albertkit benchmark.

    python3 perfbench/run.py --workload tensor --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --pin

Run from the root of a checkout: the benchmark imports the package from
the checkout's ``src`` and from nowhere else, and exits 2 without a
result when there is none. Each run:

1. generates the workload's pool of JSON inputs from ``--seed``
   (``gen.py``; untimed, in this process);
2. with ``--trace 0``, starts ``SETUP_RUNS`` fresh processes that each
   time import plus one warm-up op, and reports their median as
   ``setup_s``;
3. starts one fresh worker process for the timed loop and the checks
   (``worker.py``), with ``ALBERTKIT_THREADS`` removed from its
   environment; with ``--trace 1`` a second fresh process replays the
   same ops traced;
4. prints the run's facts (Python, nproc, commit, input shares, sample
   count, tail percentile, failed_frac) on one ``{"info": ...}`` line and
   then, as the last line, ``{"correct", "attempted", "failed",
   "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics of ``tracer.py`` with ``--trace 1``.

``--selftest`` runs ``selftest.py``. ``--pin`` recomputes the output
digests pinned for the default seed in ``pinned.json``; do it only when
the generator changes, on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")  # scratch space for one run's files
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("tensor", "isotope", "group", "cli")
SETUP_RUNS = 3
DEFAULT_SEED = gen.DEFAULT_SEED
# Pool ops whose output digest --pin records, per workload: about what
# one run reaches at the seed commit (the CLI cycles its whole pool).
PIN_OPS = {"tensor": 48, "isotope": 160, "group": 120, "cli": gen.POOL_SIZE["cli"]}
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
# A child that overruns this is killed; the run then fails without a result.
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The caller's environment without ALBERTKIT_THREADS, with src on the path.

    PYTHONDONTWRITEBYTECODE is dropped too: an installed package has its
    bytecode compiled, so a cold CLI child should not compile the package
    on every op, and the caller's setting should not decide whether it does.
    """
    env = dict(os.environ)
    env.pop("ALBERTKIT_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    return env


def worker(mode, workload, workdir, *extra, capture=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", workload, "--workdir", workdir]
    proc = subprocess.run(
        cmd + list(extra),
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE if capture else None,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return proc.stdout


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_latency(lat):
    """(q, value): the highest integer percentile with >= 10 samples above it.

    Nearest-rank: the value is the r-th smallest sample, r = ceil(q n / 100),
    and r <= n - 10. With 10 samples or fewer no percentile qualifies, and
    the maximum is reported as q = 100.
    """
    n = len(lat)
    s = sorted(lat)
    if n <= 10:
        return 100, s[-1]
    q = 100 * (n - 10) // n
    r = max(1, -(-q * n // 100))
    return q, s[r - 1]


def source_facts() -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "albertkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without git metadata
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def throughput(lat, failed_ops, size):
    """Correct ops per second of op time, over the complete passes of `size` ops.

    A run stops wherever its time is up; counting only complete passes
    through the input pattern keeps every run's mix the same.
    """
    m = len(lat) - len(lat) % size or len(lat)
    failed = set(failed_ops)
    ok = sum(1 for i in range(m) if i not in failed)
    return ok / sum(lat[:m])


def rescale(times, cal):
    """Measured times brought to reference speed (calib.py)."""
    return [t * calib.REF_S / c for t, c in zip(times, cal)]


def timings(lat, setup, failed_ops, workload):
    """The end-to-end times of one run: set-up, throughput and latencies."""
    q, tail = tail_latency(lat)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": throughput(lat, failed_ops, gen.CYCLE[workload]),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail,
    }, q


def end_to_end(res, setups, workload):
    lat, failed = res["latency_s"], res["failed_ops"]
    setup = [s["setup_s"] for s in setups]
    ref, q = timings(rescale(lat, res["cal_s"]), rescale(setup, [s["cal_s"] for s in setups]), failed, workload)
    raw, _ = timings(lat, setup, failed, workload)
    metrics = {name: metric(v, E2E_UNITS[name]) for name, v in ref.items()}
    metrics["peak_rss_mb"] = metric(res["peak_rss_kb"] / 1024.0, E2E_UNITS["peak_rss_mb"])
    info = {
        "n": len(lat),
        "latency_tail_pct": q,
        "failed_frac": len(failed) / len(lat),
        "pass_ops": gen.CYCLE[workload],
        "setup_runs": len(setup),
        "raw": raw,
        "slowdown": statistics.median(res["cal_s"]) / calib.REF_S,
    }
    return metrics, info


def pin_one_cpu() -> int:
    """Keep this process and its children on one CPU; return the CPUs it had.

    Each op and the calibration samples around it then share a core, so
    the samples see the slowdown the op saw (calib.py); a CLI child would
    otherwise land on either core.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus)


def run_workload(args) -> int:
    nproc = pin_one_cpu()
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK)
    try:
        pool = gen.generate(args.workload, args.seed)
        with open(os.path.join(workdir, "pool.json"), "w", encoding="utf-8") as fh:
            json.dump(pool, fh)
        # Compile the package's bytecode once, so no timed process pays for it.
        subprocess.run([sys.executable, "-c", "import albertkit.cli"], cwd=ROOT, env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        setup = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                out = worker("setup", args.workload, workdir, capture=True)
                setup.append(json.loads(out.decode().strip().splitlines()[-1]))
        seconds = args.seconds / 2 if args.trace else args.seconds
        worker("run", args.workload, workdir, "--seconds", str(seconds), "--seed", str(args.seed))
        res = read_json(os.path.join(workdir, "result.json"))
        failed = set(res["failed_ops"])
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": nproc,
            "cpu_count": os.cpu_count(),
            "pool_shares": pool["shares"],
            "executed_shares": res["executed"],
        }
        info.update(source_facts())
        if args.trace:
            worker("replay", args.workload, workdir)
            rep = read_json(os.path.join(workdir, "replay.json"))
            failed.update(rep["failed_ops"])
            units = {name: unit for name, unit, _ in tracer.metric_specs()}
            metrics = {name: metric(v, units[name]) for name, v in rep["metrics"].items()}
            info["n"] = len(res["latency_s"])
        else:
            metrics, extra = end_to_end(res, setup, args.workload)
            info.update(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(res["latency_s"])
    print(json.dumps({"info": info}, sort_keys=True))
    for name, m in metrics.items():
        print("# %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failed, "attempted": n, "failed": len(failed), "metrics": metrics}))
    return 0


def pin() -> int:
    """Record output digests of the first PIN_OPS pool ops at DEFAULT_SEED."""
    digests = {}
    for w in WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="pin-%s-" % w, dir=WORK)
        try:
            pool = gen.generate(w, DEFAULT_SEED)
            with open(os.path.join(workdir, "pool.json"), "w", encoding="utf-8") as fh:
                json.dump(pool, fh)
            worker("run", w, workdir, "--ops", str(PIN_OPS[w]), "--seed", str(DEFAULT_SEED), "--no-pins")
            res = read_json(os.path.join(workdir, "result.json"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res["failed_ops"] or None in res["digests"]:
            print("%s: %d wrong outputs; nothing pinned" % (w, len(res["failed_ops"])), file=sys.stderr)
            return 1
        digests[w] = res["digests"]
        print("%s: pinned %d ops" % (w, len(res["digests"])), file=sys.stderr)
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="albertkit benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="check the harness itself, then exit")
    p.add_argument("--pin", action="store_true", help="re-record pinned.json for the default seed")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "albertkit", "__init__.py")):
        print("no albertkit package under %s: run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.selftest:
        return subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")], cwd=ROOT, env=child_env()).returncode
    if args.pin:
        return pin()
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
