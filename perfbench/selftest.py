"""Self-test of the benchmark harness (not of albertkit).

    PYTHONPATH=src python3 perfbench/selftest.py      (or: run.py --selftest)

Checks that
  * the same seed gives byte-identical pools, and another seed does not;
  * the generator's own cubic form agrees with albertkit's det_j and
    delta on generated inputs, so its rejection sampling is sound;
  * for every workload, a real op output passes its checker and the same
    output, deliberately altered, is counted as failed: by the checker,
    by the pinned digest of the default seed, and through ``check_all``,
    which the timed run uses.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from albertkit import jsonio  # noqa: E402
from albertkit.albert import det_j  # noqa: E402
from albertkit.pvs import delta  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def check_determinism():
    for w in gen.POOL_SIZE:
        a = json.dumps(gen.generate(w, 7), sort_keys=True)
        b = json.dumps(gen.generate(w, 7), sort_keys=True)
        c = json.dumps(gen.generate(w, 8), sort_keys=True)
        expect(a == b, "%s: seed 7 twice gives identical inputs" % w)
        expect(a != c, "%s: seeds 7 and 8 give different inputs" % w)


def _coords(doc):
    return [jsonio.str_to_rat(v) for v in doc["diag"] + doc["oct"][0] + doc["oct"][1] + doc["oct"][2]]


def check_generator_math():
    pool = gen.generate("tensor", 3)["ops"][:8] + gen.generate("isotope", 3)["ops"][:8]
    agree = True
    for op in pool:
        for doc in ([op["point"]["a"], op["point"]["b"]] if "point" in op else [op["a"], op["x"]]):
            agree &= gen.det27(_coords(doc)) == det_j(jsonio.decode_albert(doc))
        if "point" in op:
            pa, pb = _coords(op["point"]["a"]), _coords(op["point"]["b"])
            agree &= gen.delta27(pa, pb) == delta(jsonio.decode_vpoint(op["point"]))
    expect(agree, "generator det27/delta27 equal albertkit det_j/delta on 16 pool ops")


# Each alteration keeps the output well-formed, so only the check can catch it.


def _alter_tensor(data):
    doc = json.loads(data)
    doc["entries"][1234] = jsonio.rat_to_str(jsonio.str_to_rat(doc["entries"][1234]) + 1)
    return jsonio.dumps(doc).encode()


def _alter_isotope(data):
    doc = json.loads(data)
    doc["oct"][1][3] = jsonio.rat_to_str(jsonio.str_to_rat(doc["oct"][1][3]) + 1)
    return jsonio.dumps(doc).encode()


def _alter_group(data):
    doc = json.loads(data)
    doc["chi"] = jsonio.rat_to_str(2 * jsonio.str_to_rat(doc["chi"]))
    return jsonio.dumps(doc).encode()


def _alter_cli(data):
    code, _, out = data.partition(b"\n")
    return (b"0" if code == b"1" else b"1") + b"\n" + out


ALTER = {"tensor": _alter_tensor, "isotope": _alter_isotope, "group": _alter_group, "cli": _alter_cli}
# Pool ops to try: a tensor op that also gets the literal phi1/phi2 check,
# and for the CLI a success and each documented error.
SAMPLE = {
    "tensor": [next(k for k in range(checks.LITERAL_EVERY) if checks.literal_sample(k, gen.DEFAULT_SEED))],
    "isotope": [0],
    "group": [2],
    "cli": [0, 7, 13],
}


def check_checkers(workdir):
    pins = worker.load_pins(gen.DEFAULT_SEED)
    for w in gen.POOL_SIZE:
        pool = gen.generate(w, gen.DEFAULT_SEED)
        if w == "cli":
            worker.write_cli_files(pool, workdir)
        ops = worker.make_ops(w)
        checker = checks.make_checker(w)
        out_dir = os.path.join(workdir, "out-" + w)
        os.makedirs(out_dir)
        indices, digests = [], []
        for i, k in enumerate(SAMPLE[w]):
            op = pool["ops"][k]
            data = ops.output(ops.run(ops.prepare(op)))
            bad = ALTER[w](data)
            expect(checker.check(op, k, data, gen.DEFAULT_SEED), "%s op %d (%s): real output passes" % (w, k, op["class"]))
            expect(not checker.check(op, k, bad, gen.DEFAULT_SEED), "%s op %d: altered output fails" % (w, k))
            if k < len(pins.get(w, [])):
                expect(pins[w][k] == worker.digest(data), "%s op %d: output matches its pinned digest" % (w, k))
                expect(pins[w][k] != worker.digest(bad), "%s op %d: altered output misses its pinned digest" % (w, k))
            # The run's own path: the last sampled op's file is the altered one.
            with open(os.path.join(out_dir, "%d.out" % i), "wb") as fh:
                fh.write(bad if i == len(SAMPLE[w]) - 1 else data)
            indices.append(k)
            digests.append(worker.digest(data))
        got = worker.check_all(w, pool, indices, digests, out_dir, gen.DEFAULT_SEED, {})
        expect(got == [len(indices) - 1], "%s: check_all counts exactly the altered op as failed" % w)


def check_benchmark_json():
    """BENCHMARK.json names exactly the workloads and metrics the harness reports."""
    import run
    import tracer

    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        print("skip BENCHMARK.json: not found")
        return
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json lists the harness's workloads")
    expect(
        sorted(m["name"] for m in bench["end_to_end"]) == sorted(run.E2E_UNITS),
        "BENCHMARK.json end_to_end names the metrics of a --trace 0 run",
    )
    expect(
        all(run.E2E_UNITS[m["name"]] == m["unit"] for m in bench["end_to_end"] if m["name"] in run.E2E_UNITS),
        "BENCHMARK.json end_to_end units match",
    )
    specs = [{"name": n, "unit": u, "better": b} for n, u, b in tracer.metric_specs()]
    expect(bench["per_layer"] == specs, "BENCHMARK.json per_layer equals tracer.metric_specs()")


def main() -> int:
    check_benchmark_json()
    check_determinism()
    check_generator_math()
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(os.path.dirname(HERE), ".perfbench_work"))
    try:
        check_checkers(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%d failed" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
