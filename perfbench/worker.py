"""One benchmark worker: a fresh single-threaded process with one client.

It imports the package from the checkout's `src`, builds the field tables,
runs one untimed warm-up op and prints ``ready``; `run.py` times that as
set-up.  Then, in a closed loop, it draws the next input, times one op,
checks the answer outside the timed region, and repeats until the timed
ops add up to ``--seconds`` (or ``--ops`` ops are done).  With
``--pause-every`` it prints ``paused`` after each such share of op time and
waits for a line on standard input before it goes on; `run.py` times
another worker's set-up in the pause.  The last line of its standard
output is a JSON report.

While ops run, a timer signal every 10 ms times a fixed reference block of
plain Python that calls nothing in the package.  Each op's cost is also
reported in units of that block, as measured while the op ran.  On a shared
machine the CPU speed can drift by a quarter within seconds; the reference
block drifts with it, so the costs stay steady where the raw times do not.
The probe's own time is taken out of the raw op times.

    python3 perfbench/worker.py --workload scan-gf8 --seed 1 --seconds 5
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import sys
import signal
import types
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MODULES = ("errors", "gf2x", "finitefield", "upoly", "scalars", "mpoly",
           "kernels", "fibres", "families", "isomorphisms", "parser")
MAX_FAILURES_SHOWN = 5
PROBE_EVERY_S = 0.01
PROBE_MARGIN = 2            # samples on each side of an op in its window


def load_package():
    """The package modules, imported from this checkout's source tree."""
    sys.path.insert(0, SRC)
    pkg = types.SimpleNamespace(**{
        name: importlib.import_module(f"quarticfibres.{name}")
        for name in MODULES})
    origin = os.path.dirname(os.path.abspath(pkg.fibres.__file__))
    if origin != os.path.join(SRC, "quarticfibres"):
        raise RuntimeError(f"quarticfibres was imported from {origin}")
    return pkg


def environment(pkg):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "USING_NUMBA": pkg.kernels.USING_NUMBA,
        "QUARTICFIBRES_PURE_NUMPY": os.environ.get("QUARTICFIBRES_PURE_NUMPY"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _reference_block():
    """One sparse product in GF(2)[x, y] with tuple exponents: the dict,
    tuple and int work that dominates the package, in about 0.1 ms."""
    a = [(i, j) for i in range(6) for j in range(6) if (7 * i + j) % 3]
    out = {}
    for e1 in a:
        for e2 in a:
            e = (e1[0] + e2[0], e1[1] + e2[1])
            if e in out:
                del out[e]
            else:
                out[e] = 1
    return len(out)


class SpeedProbe:
    """Times the reference block every 10 ms of wall time, from a signal
    handler, so that the machine's speed is sampled during each op."""

    def __init__(self):
        self.refs = array("d")      # duration of each sample, in seconds

    def _sample(self, signum, frame):
        start = perf_counter()
        _reference_block()
        self.refs.append(perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _costs(latencies, sampled, refs):
    """Each op's time in reference blocks: the op's time over the mean
    sample taken while it ran, widened by two samples on each side."""
    costs = []
    for t, (k0, k1) in zip(latencies, sampled):
        window = refs[max(0, k0 - PROBE_MARGIN):k1 + PROBE_MARGIN]
        costs.append(t * len(window) / sum(window))
    return costs


def _pause():
    """Tell the parent that a chunk of ops is done; wait for its go."""
    print("paused", flush=True)
    if not sys.stdin.readline():
        raise SystemExit("parent went away")


def run_ops(pkg, workload, seed, seconds=None, ops=None, tracer=None,
            pause_every=None):
    """Closed loop over the workload's input stream, pausing after every
    `pause_every` seconds of op time.  The probe keeps sampling through a
    pause; only the samples next to an op enter its cost."""
    from checks import check
    from workloads import inputs, run_op

    stream = inputs(pkg, workload, seed)
    latencies = []
    sampled = []            # probe samples taken during each op: [k0, k1)
    kinds = {}
    failures = []
    busy = 0.0
    next_pause = pause_every
    with SpeedProbe() as probe:
        refs = probe.refs
        while ((ops is None or len(latencies) < ops)
               and (seconds is None or busy < seconds)):
            inp = next(stream)
            if tracer is not None:
                tracer.op = len(latencies)
                tracer.active = True
            k0 = len(refs)
            start = perf_counter()
            try:
                result = run_op(pkg, workload, inp)
                error = None
            except Exception as e:  # a raising op is a failed op, not a crash
                result = None
                error = f"raised {type(e).__name__}: {e}"
            elapsed = perf_counter() - start
            k1 = len(refs)
            if tracer is not None:
                tracer.active = False
            elapsed -= sum(refs[k0:k1])     # the probe's own time
            latencies.append(elapsed)
            sampled.append((k0, k1))
            busy += elapsed
            if error is None:
                try:
                    error = check(pkg, workload, inp, result)
                except Exception as e:  # a check that cannot read the answer
                    error = f"check raised {type(e).__name__}: {e}"
                if workload.kind == "fibre":
                    kind = result[1].kind
                    kinds[kind] = kinds.get(kind, 0) + 1
            if error is not None:
                failures.append(f"op {len(latencies) - 1} {inp}: {error}")
            if next_pause is not None and next_pause <= busy < seconds:
                _pause()
                next_pause += pause_every
        # samples after the last op, for its right-hand margin
        while len(refs) < sampled[-1][1] + PROBE_MARGIN:
            signal.pause()
    return {
        "latencies": latencies,
        "costs": _costs(latencies, sampled, refs),
        "refs": list(refs),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "kinds": kinds,
    }


def main(argv=None):
    from workloads import WORKLOADS, setup

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--pause-every", type=float,
                    help="pause for the parent after this much op time")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the ops and write spans here")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    pkg = load_package()
    setup(pkg, workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(pkg)
    report = run_ops(pkg, workload, args.seed, args.seconds, args.ops, tracer,
                     args.pause_every)
    if tracer is not None:
        tracer.write(args.spans, len(report["latencies"]))
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    report["env"] = environment(pkg)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
