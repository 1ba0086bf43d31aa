#!/usr/bin/env python3
"""Run one benchmark workload, or all four, and print their metrics.

    python3 perfbench/run.py --workload scan-gf8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Every op runs in a fresh single-threaded worker process (`worker.py`) with
one client in a closed loop.  With ``--trace 0`` the run times set-up in
several workers, then measures ops for ``--seconds`` seconds of op time and
reports the end-to-end metrics.  With ``--trace 1`` it runs the workload's
fixed traced op count twice, untraced and then traced, so that every work
count repeats exactly at one seed, and reports the per-layer metrics.

Human-readable lines (each metric with its unit and sample count) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out PATH``
also saves the full records for `compare.py`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import KINDS, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 9          # set-ups timed per run; setup_s is their median
P90_MIN_OPS = 100          # so that at least ten samples lie beyond p90
P50_MIN_OPS = 20
WORKER_TIMEOUT_S = 170

# Gated end-to-end metrics.  Op throughput and latency are gated in
# reference units (see worker.py); the raw wall-clock figures, p90 and the
# failed ratio are printed and saved next to them.
END_TO_END = (
    ("ops_per_kref", "1/kref"),
    ("op_p50_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics in the JSON result line.  The traced run prints and
# saves more (every layer's total and self times); the result line keeps
# the work counts and ratios, and the times that no workload bypasses, so
# that no value reads as a constant zero on a workload that skips a layer.
PER_LAYER = tuple(
    [(f"fibres.{f}.calls", "count") for f in (
        "specialize_fibre", "classify_fibre", "singular_locus",
        "smooth_points", "multiplicity_at", "delta_invariant",
        "tangent_contact_type")]
    + [(f"fibres.kind.{k}.share", "ratio") for k in KINDS]
    + [(f"mpoly.{f}.calls", "count")
       for f in ("divide", "substitute", "mul", "add")]
    + [("mpoly.divide.hit_ratio", "ratio"),
       ("mpoly.mul.total_s", "s"), ("mpoly.add.total_s", "s")]
    + [(f"kernels.{f}.calls", "count")
       for f in ("scan_singular_points", "scan_zero_points", "plane_points")]
    + [(f"kernels.{f}.points", "count")
       for f in ("scan_singular_points", "scan_zero_points")]
    + [(f"finitefield.GF.{f}.calls", "count")
       for f in ("get", "embedding_into")]
    + [(f"upoly.{f}.{m}.calls", "count")
       for f in ("divmod", "gcd", "mul") for m in ("m1", "mN")]
    + [(f"gf2x.{f}.calls", "count") for f in ("divmod_", "gcd", "mul")]
    + [(f"scalars.ScalarK.{f}.calls", "count")
       for f in ("init", "mul", "add", "truediv")]
    + [("scalars.gcd_per_op", "ratio")]
    + [(f"families.{f}.calls", "count") for f in ("build_family", "invariant")]
    + [(f"isomorphisms.{f}.calls", "count")
       for f in ("apply_iso", "verify_iso")]
    + [("trace.overhead_ratio", "ratio")])


class WorkerError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMBA_NUM_THREADS="1")
    return env


def spawn(args, on_pause=None):
    """Run a worker; return (seconds from start to ready, its report).
    Each time the worker pauses between chunks of ops, call `on_pause`
    and then let the worker go on."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            env=_worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = perf_counter() - start
        lines = []
        for out in proc.stdout:
            if out == "paused\n":
                on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                lines.append(out)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if line != "ready\n" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with"
                          f" {proc.returncode}")
    return ready_s, (json.loads(lines[-1]) if lines else None)


def _metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def _op_metrics(report):
    """Throughput and latency, raw and in reference units."""
    lat, costs = report["latencies"], report["costs"]
    n = len(lat)
    done = n - report["failed"]
    out = {
        "ops_per_kref": _metric(1e3 * done / sum(costs), "1/kref", n),
        "op_p50_ref": _metric(statistics.median(costs), "ref", n),
        "ops_per_s": _metric(done / sum(lat), "1/s", n),
        "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms", n),
        "ref_ms": _metric(statistics.median(report["refs"]) * 1e3, "ms",
                          len(report["refs"])),
        "failed_ratio": _metric(report["failed"] / n, "ratio", n),
    }
    if n >= P90_MIN_OPS:
        out["op_p90_ref"] = _metric(
            statistics.quantiles(costs, n=10)[8], "ref", n)
        out["op_p90_ms"] = _metric(
            statistics.quantiles(lat, n=10)[8] * 1e3, "ms", n)
    return out


def measure(workload, seed, seconds):
    """End-to-end metrics of one untraced run."""
    base = ["--workload", workload.name, "--seed", str(seed)]
    # The measured worker is one set-up sample.  It pauses after each of
    # its first chunks of ops, and a fresh worker's set-up is timed in the
    # pause and once more at the end, so that the samples are spread over
    # the run rather than taken at one moment of machine speed.
    chunks = SETUP_SAMPLES - 1
    setups = []

    def sample_setup():
        setups.append(spawn(base + ["--setup-only"])[0])

    ready_s, report = spawn(
        base + ["--seconds", str(seconds),
                "--pause-every", str(seconds / chunks)], sample_setup)
    sample_setup()
    setups.append(ready_s)
    metrics = _op_metrics(report)
    metrics["setup_s"] = _metric(statistics.median(setups), "s", len(setups))
    metrics["peak_rss_mb"] = _metric(report["peak_rss_mb"], "MB", 1)
    return metrics, report, len(report["latencies"])


def trace(workload, seed):
    """Per-layer metrics of one traced run, and its overhead against an
    untraced run of the same ops."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload.name}.bin")
    base = ["--workload", workload.name, "--seed", str(seed),
            "--ops", str(workload.trace_ops)]
    _, plain = spawn(base)
    _, traced = spawn(base + ["--spans", spans])
    n = len(traced["latencies"])
    metrics = {name: _metric(value, unit, n) for name, (value, unit)
               in summarize(spans, traced["kinds"]).items()}
    metrics["trace.overhead_ratio"] = _metric(
        sum(plain["costs"]) / sum(traced["costs"]), "ratio", n)
    failed = plain["failed"] + traced["failed"]
    metrics["failed_ratio"] = _metric(failed / (2 * n), "ratio", 2 * n)
    report = dict(traced, failures=plain["failures"] + traced["failures"],
                  failed=failed)
    return metrics, report, 2 * n


def run_workload(name, seed, seconds, traced):
    workload = WORKLOADS[name]
    if traced:
        metrics, report, attempted = trace(workload, seed)
        wanted = PER_LAYER
    else:
        metrics, report, attempted = measure(workload, seed, seconds)
        wanted = END_TO_END
        if attempted < P50_MIN_OPS:
            print(f"warning: {name} ran {attempted} ops; op_p50_ref wants"
                  f" at least {P50_MIN_OPS}", file=sys.stderr)
    print(f"{name} seed={seed} env " + json.dumps(report["env"],
                                                 sort_keys=True))
    for key, m in sorted(metrics.items()):
        print(f"{name:<11} {key:<44} {m['value']:>16.6f} {m['unit']:<6}"
              f" n={m['n']}")
    for reason in report["failures"]:
        print(f"{name} FAILED {reason}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": attempted,
        "failed": report["failed"],
        "metrics": {key: {"value": metrics[key]["value"], "unit": unit}
                    for key, unit in wanted},
    }
    record = {"workload": name, "seed": seed, "trace": int(traced),
              "env": report["env"], "metrics": metrics,
              "correct": result["correct"]}
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="The benchmark's rationale is in perfbench/README.md.")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the full records as JSON here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quarticfibres",
                                       "__init__.py")):
        print(f"no quarticfibres source under {ROOT}/src", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results, records = [], []
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
        except WorkerError as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        results.append(result)
        records.append(record)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(records, f, indent=1, sort_keys=True)
    if args.workload == "all":
        ok = all(r["correct"] for r in results)
        print(f"all workloads correct: {ok}")
        return 0 if ok else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
