#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

* tampered answers fail their checks, and a run counts them as failed;
* two traced runs at one seed give identical work counts on every workload;
* `compare.py` refuses results whose ``USING_NUMBA`` differ;
* it reports, without failing, whether the known GF(2^6) defect that keeps
  pi3 and pi5 out of `fibre-gf64` still shows (see README.md);
* BENCHMARK.json lists exactly the workloads and metrics `run.py` reports.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import load_package, run_ops  # noqa: E402
from workloads import WORKLOADS, FibreInput  # noqa: E402


def _answer(pkg, name, inp):
    wl = WORKLOADS[name]
    if not workloads.prepare(pkg, wl, inp):
        raise AssertionError(f"{name}: self-test input refused: {inp}")
    return wl, workloads.run_op(pkg, wl, inp)


def _expect(pkg, wl, inp, answer, tampers):
    assert checks.check(pkg, wl, inp, answer) is None, "true answer failed"
    for label, bad in tampers:
        reason = checks.check(pkg, wl, inp, bad)
        assert reason is not None, f"tampered answer passed: {label}"
        print(f"  caught {label}: {reason}")


def test_tampered_answers_fail(pkg):
    inp = FibreInput("pi4", (3, 5, 7), False)
    wl, (curve, cls) = _answer(pkg, "scan-gf8", inp)
    y = cls.sing_point[1]
    moved = (cls.sing_point[0], y + y.gf.one_elem(), cls.sing_point[2])
    _expect(pkg, wl, inp, (curve, cls), [
        ("delta 4", (curve, dataclasses.replace(cls, delta=4))),
        ("multiplicity 3", (curve, dataclasses.replace(cls, multiplicity=3))),
        ("smooth", (curve, dataclasses.replace(cls, sing_point=None))),
        ("moved point", (curve, dataclasses.replace(cls, sing_point=moved))),
        ("reducible, no parts", (curve, dataclasses.replace(
            cls, kind="Other", sing_point=None))),
    ])
    inp = FibreInput("pi3", (3, 0, 2, 5), True)
    wl, (curve, cls) = _answer(pkg, "scan-gf8", inp)
    line, conic = cls.components
    _expect(pkg, wl, inp, (curve, cls), [
        ("integral class", (curve, dataclasses.replace(
            cls, kind="IntegralQuartic", components=()))),
        ("line dropped", (curve, dataclasses.replace(
            cls, components=(conic,)))),
        ("single line", (curve, dataclasses.replace(
            cls, components=((line[0], 1), conic)))),
    ])
    inp = FibreInput("pi5", (1, 2, 3, 0), True)
    wl, (curve, cls) = _answer(pkg, "scan-gf8", inp)
    _expect(pkg, wl, inp, (curve, cls), [
        ("other conic", (curve, dataclasses.replace(
            cls, components=(("x^2+y^2+x*z", 2),)))),
    ])
    inp = next(workloads.inputs(pkg, WORKLOADS["witness-f2"], 0))
    wl, (scale, inv_src, inv_tgt) = _answer(pkg, "witness-f2", inp)
    assert inp.tag == "III"
    one = pkg.scalars.ScalarK.one(scale.gf)
    _expect(pkg, wl, inp, (scale, inv_src, inv_tgt), [
        ("zero scale", (scale - scale, inv_src, inv_tgt)),
        ("invariant moved", (scale, inv_src, inv_tgt + one)),
    ])


def test_tampered_ops_counted(pkg):
    wl = WORKLOADS["witness-f2"]
    real = workloads.run_op

    def zero_scale(pkg, workload, inp):
        scale, inv_src, inv_tgt = real(pkg, workload, inp)
        return scale - scale, inv_src, inv_tgt

    workloads.run_op = zero_scale
    try:
        report = run_ops(pkg, wl, seed=0, ops=5)
    finally:
        workloads.run_op = real
    assert report["failed"] == 5, report
    print("  5 tampered ops counted as 5 failed")


def _counts(metrics):
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] == "count"
            or (m["unit"] == "ratio" and k != "trace.overhead_ratio")}


# pi3 and pi5 fibres over GF(2^6) that split into two conics only over
# GF(2^12); the classifier reports them as integral with delta 4
KNOWN_DEFECT = (("pi3", (54, 37, 0, 23)), ("pi5", (0, 36, 24, 26)))


def report_known_defect(pkg):
    wl = dataclasses.replace(WORKLOADS["fibre-gf64"],
                             fibrations=workloads.FIBRATIONS)
    for fibration, point in KNOWN_DEFECT:
        inp = FibreInput(fibration, point, False)
        if not workloads.prepare(pkg, wl, inp):
            raise AssertionError(f"known-defect input refused: {inp}")
        reason = checks.check(pkg, wl, inp, workloads.run_op(pkg, wl, inp))
        state = f"still fails: {reason}" if reason else "now passes"
        print(f"  {fibration} {point} over GF(2^6) {state}")


def test_counts_repeat():
    for name, wl in sorted(WORKLOADS.items()):
        first = _counts(run.trace(wl, 7)[0])
        second = _counts(run.trace(wl, 7)[0])
        diff = {k for k in first if first[k] != second.get(k)}
        assert not diff and first.keys() == second.keys(), (name, diff)
        nonzero = sum(1 for v in first.values() if v)
        print(f"  {name}: {len(first)} counts repeat ({nonzero} nonzero)")


def test_compare_refuses_mixed_kernels():
    record = {"workload": "scan-gf8", "trace": 0,
              "env": {"USING_NUMBA": False},
              "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}
    numba = dict(record, env={"USING_NUMBA": True})
    assert compare.compare([record], [record])
    try:
        compare.compare([record], [numba])
    except compare.Incomparable:
        print("  refused USING_NUMBA False vs True")
        return
    raise AssertionError("mixed USING_NUMBA results were compared")


def test_benchmark_json_matches():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    print(f"  {len(spec['workloads'])} workloads, {len(spec['end_to_end'])}"
          f" end-to-end and {len(spec['per_layer'])} per-layer metrics")


def main():
    pkg = load_package()
    tests = [
        ("tampered answers fail their checks",
         lambda: test_tampered_answers_fail(pkg)),
        ("tampered ops are counted as failed",
         lambda: test_tampered_ops_counted(pkg)),
        ("BENCHMARK.json matches run.py", test_benchmark_json_matches),
        ("compare refuses mixed kernel paths",
         test_compare_refuses_mixed_kernels),
        ("known GF(2^6) defect (reported, not tested)",
         lambda: report_known_defect(pkg)),
        ("work counts repeat at one seed", test_counts_repeat),
    ]
    for label, test in tests:
        print(label)
        test()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
