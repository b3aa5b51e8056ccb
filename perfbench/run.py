"""zerogap benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py                       # every workload, one table
    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

With --workload the run is one process: import zerogap (timed here and in
two fresh child interpreters, for the set-up time), make the workload's
untimed warm-up call, then time operations in a closed loop with one caller
for --seconds: the paper's fixed input first, then seeded inputs.  Every
output is checked.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

The times op_s, cpu_s and setup_s are scaled to a reference host speed
(hostspeed.py): each timed section is scaled by REFERENCE_S over the time
of a fixed calibration kernel measured just before and just after it.  The
unscaled medians are printed beside them and kept in the record.  The
per-layer times of --trace 1 are not scaled; its trace.plain_op_s and
trace.traced_op_s alternate within each input, so host drift cancels in
trace.overhead_frac.

--trace 1 runs each input twice, once plain and once with the
module-attribute wrappers of tracer.py installed (alternating which goes
first), requires the two outputs to be identical, and reports per-layer
counts and times per operation together with the tracing overhead.

Without --workload every workload runs in its own child process and the
results are printed as a table.  Each run also writes its full record
(provenance, per-operation samples, checks, spans) to perfbench/results/.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are sized before numpy loads, and recorded; the
# package starts no threads of its own with scan_region(threads=1), and
# cpu_s shows when a pool runs work in parallel
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import compileall  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
CLOCK = time.perf_counter  # the one wall clock; tracer.CLOCK is the same
SETUP_REPEATS = 3  # imports of zerogap per run: this process plus two children
CHILD_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import zerogap; print(time.perf_counter() - t)"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import zerogap."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or rev
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    import zerogap
    return {
        "git_revision": rev,
        "zerogap": zerogap.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpu_model": cpu,
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "timer": "time.perf_counter (wall), time.process_time (cpu)",
    }


def upper_percentile(samples: list) -> dict:
    """Highest percentile with at least ten samples beyond it (None when
    there are ten samples or fewer)."""
    n = len(samples)
    if n <= 10:
        return {"p": None, "value": None, "n": n}
    k = n - 11  # index of the sample with exactly ten above it
    return {"p": round(100.0 * (k + 1) / n, 1), "value": sorted(samples)[k], "n": n}


class Run:
    """One workload in this process: counters, samples and the record."""

    def __init__(self, workload, refs: dict):
        self.w = workload
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.ops: list = []

    def execute(self, x, fixed: bool, traced_by=None):
        """Run and check one operation; returns its record and its output
        (None when it raised)."""
        self.attempted += 1
        op = {"input": list(x) if isinstance(x, tuple) else x, "fixed": fixed,
              "traced": traced_by is not None, "result_err": None}
        out = None
        w0, c0 = CLOCK(), time.process_time()
        try:
            if traced_by is None:
                out = self.w.run(x)
            else:
                with traced_by():
                    out = self.w.run(x)
        except Exception:  # an operation that raises counts as failed; keep going
            op["problems"] = [traceback.format_exc()]
        op["wall_s"], op["cpu_s"] = CLOCK() - w0, time.process_time() - c0
        if out is not None:
            check = self.w.check(x, out, fixed, self.refs)
            op["problems"], op["result_err"] = check.problems, check.err
        op["ok"] = not op["problems"]
        self.failed += 0 if op["ok"] else 1
        self.ops.append(op)
        return op, out


def run_plain(run: Run, inputs, seconds: float, calibration: tuple) -> dict:
    """Operations in a closed loop, a host-speed calibration after each;
    `calibration` is the one taken just before the first."""
    import hostspeed
    samples = {key: [] for key in ("wall_s", "cpu_s", "scaled_wall_s", "scaled_cpu_s",
                                   "calibration_s")}
    start = CLOCK()
    while not samples["wall_s"] or CLOCK() - start < seconds:
        op, _ = run.execute(*next(inputs))
        after = hostspeed.calibrate()
        op["calibration_s"] = after
        op["scaled_wall_s"] = hostspeed.scaled(op["wall_s"], calibration[0], after[0])
        op["scaled_cpu_s"] = hostspeed.scaled(op["cpu_s"], calibration[1], after[1])
        for key in samples:
            samples[key].append(op[key])
        calibration = after
    return samples


def run_traced(run: Run, inputs, seconds: float, tracer_mod) -> dict:
    """Each input plain and traced, alternating which goes first; the two
    outputs must be identical."""
    tr = tracer_mod.Tracer()
    walls = {False: [], True: []}
    mismatches = 0
    start = CLOCK()
    while not walls[True] or CLOCK() - start < seconds:
        x, fixed = next(inputs)
        outputs = {}
        for traced in (False, True) if len(walls[True]) % 2 == 0 else (True, False):
            if traced:
                with tr.patched():
                    op, out = run.execute(x, fixed, traced_by=tr.operation)
            else:
                op, out = run.execute(x, fixed)
            walls[traced].append(op["wall_s"])
            outputs[traced] = None if out is None else run.w.fingerprint(out)
        if outputs[True] != outputs[False]:
            mismatches += 1
            run.failed += 1
            run.ops[-1]["problems"].append("traced output differs from the plain output")
            run.ops[-1]["ok"] = False
    return {"plain_wall_s": walls[False], "traced_wall_s": walls[True],
            "mismatches": mismatches, "summary": tr.summary(len(walls[True])),
            "spans": tr.records()}


def layer_metrics(spec: dict, traced: dict) -> dict:
    summary = traced["summary"]
    n_plain, n_traced = len(traced["plain_wall_s"]), len(traced["traced_wall_s"])
    plain_s = sum(traced["plain_wall_s"]) / n_plain
    traced_s = sum(traced["traced_wall_s"]) / n_traced
    trace_values = {
        "overhead_frac": traced_s / plain_s - 1.0,
        "plain_op_s": plain_s,
        "traced_op_s": traced_s,
        "layer_self_s": sum(row["self_s"] for name, row in summary.items() if name != "op"),
    }
    out = {}
    for m in spec["per_layer"]:
        span, field = m["name"].rsplit(".", 1)
        if span == "trace":
            value = trace_values[field]
        else:
            row = summary.get(span, {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0})
            if field in ("calls", "s", "self_s"):
                value = row[field]
            elif field in ("mu_values", "points"):
                value = row["items"]
            elif field in ("mu_per_s", "points_per_s"):
                value = row["items"] / row["s"] if row["s"] > 0 else 0.0
            else:
                raise KeyError(f"unknown per-layer field in {m['name']!r}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run_workload(args, spec: dict) -> int:
    if not (SRC / "zerogap" / "__init__.py").is_file():
        return fail(f"no zerogap package under {SRC}")
    # compile once so that no run's import time includes writing bytecode
    compileall.compile_dir(str(SRC / "zerogap"), quiet=1)
    sys.path.insert(0, str(SRC))
    t0 = CLOCK()
    import zerogap  # noqa: F401  (timed: the package's import is set-up)
    import_samples = [CLOCK() - t0]

    sys.path.insert(0, str(HERE))
    import hostspeed
    import tracer as tracer_mod
    import workloads

    # each set-up section is scaled by the calibrations on either side of
    # it; the first import has none before it, so its own after serves twice
    calibrations = [hostspeed.calibrate()]
    for _ in range(SETUP_REPEATS - 1):
        import_samples.append(child_import_s())
        calibrations.append(hostspeed.calibrate())
    walls = [c[0] for c in calibrations]
    scaled_imports = [hostspeed.scaled(s, before, after) for s, before, after
                      in zip(import_samples, walls[:1] + walls, walls)]

    refs = json.loads((HERE / "references.json").read_text())
    workload = workloads.WORKLOADS[args.workload]()
    run = Run(workload, refs)

    t0 = CLOCK()
    try:
        workload.warmup()
    except Exception:  # reported like a failed operation
        run.attempted += 1
        run.failed += 1
        run.ops.append({"input": "warm-up", "ok": False, "problems": [traceback.format_exc()]})
    warmup_s = CLOCK() - t0
    calibrations.append(hostspeed.calibrate())
    setup_s = (statistics.median(scaled_imports)
               + hostspeed.scaled(warmup_s, calibrations[-2][0], calibrations[-1][0]))

    # the fixed input first, then seeded inputs
    inputs = itertools.chain([(workload.fixed, True)],
                             ((x, False) for x in workload.inputs(args.seed)))
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "setup": {"import_s": import_samples, "warmup_s": warmup_s, "setup_s": setup_s,
                  "unscaled_setup_s": statistics.median(import_samples) + warmup_s,
                  "calibration_s": calibrations},
        "reference_calibration_s": hostspeed.REFERENCE_S,
    }
    if args.trace:
        traced = run_traced(run, inputs, args.seconds, tracer_mod)
        metrics = layer_metrics(spec, traced)
        record["trace_summary"] = traced["summary"]
        record["spans"] = traced["spans"]
        record["mismatches"] = traced["mismatches"]
    else:
        samples = run_plain(run, inputs, args.seconds, calibrations[-1])
        walls = samples["scaled_wall_s"]
        errs = [op["result_err"] for op in run.ops if op.get("fixed")]
        # a failed fixed input has no error to report; the run is marked incorrect
        result_err = errs[0] if errs and errs[0] is not None else sys.float_info.max
        values = {
            "op_s": statistics.median(walls),
            "cpu_s": statistics.median(samples["scaled_cpu_s"]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result_err": result_err,
            "ok_frac": (run.attempted - run.failed) / run.attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        record["op_s_upper_percentile"] = upper_percentile(walls)
        record["unscaled"] = {"op_s": statistics.median(samples["wall_s"]),
                              "cpu_s": statistics.median(samples["cpu_s"]),
                              "setup_s": record["setup"]["unscaled_setup_s"],
                              "calibration_s": statistics.median(
                                  c[0] for c in samples["calibration_s"])}
    record["operations"] = run.ops
    record["op_counts"] = {"attempted": run.attempted, "failed": run.failed}
    record["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    for op in run.ops:
        for problem in op["problems"]:
            print(f"perfbench: {args.workload} input {op['input']!r}: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        pct = record["op_s_upper_percentile"]
        tail = "none (10 samples or fewer)" if pct["p"] is None \
            else f"p{pct['p']} = {pct['value']:.6g} s"
        print(f"{args.workload:8s} op_s samples: {pct['n']}, upper percentile: {tail}")
        raw = record["unscaled"]
        print(f"{args.workload:8s} unscaled: op_s {raw['op_s']:.6g} s, cpu_s {raw['cpu_s']:.6g} s, "
              f"setup_s {raw['setup_s']:.6g} s; calibration {raw['calibration_s']:.6g} s "
              f"(reference {hostspeed.REFERENCE_S} s)")
    print(f"{args.workload:8s} record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in a fresh child process; one table of every metric."""
    correct = True
    rows = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return fail(f"workload {w['name']} exited with {done.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        for name, m in result["metrics"].items():
            rows.append(f"{w['name']:8s} {name:48s} {m['value']:>14.6g} {m['unit']}")
        rows.append(f"{w['name']:8s} {'attempted / failed':48s} "
                    f"{result['attempted']:>7d} / {result['failed']}")
    print("\n".join(rows))
    print(f"all outputs correct: {correct}")
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("certify", "scan", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not SPEC.is_file():
        return fail(f"missing {SPEC}")
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_all(args, spec) if args.workload is None else run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
