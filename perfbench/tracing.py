"""Layer tracing from outside the package.

`Tracer.install` replaces the public functions and methods of each layer
with wrappers, in every module of the package that holds them (modules
import each other's functions by name).  Layer boundaries that are called
at most a few thousand times per op record spans (name, start, end, parent
span, op id) in memory; the finest arithmetic (`gf2x`, `UPoly`, `ScalarK`)
is kept as aggregated counters.  Wrappers only record while the tracer is
active, so input preparation and answer checks stay out of the counts.

`write` stores the spans and counters at the end of a run; `summarize`
reads them back and derives the per-layer metrics.  A span's self time is
its duration minus the time its child spans cover (children of one span
never overlap: the worker has one thread).
"""

import json
import sys
from array import array
from time import perf_counter

# (module, attribute path, metric name) for the span-recorded layers
SPANS = (
    ("fibres", "specialize_fibre", "fibres.specialize_fibre"),
    ("fibres", "classify_fibre", "fibres.classify_fibre"),
    ("fibres", "singular_locus", "fibres.singular_locus"),
    ("fibres", "smooth_points", "fibres.smooth_points"),
    ("fibres", "multiplicity_at", "fibres.multiplicity_at"),
    ("fibres", "delta_invariant", "fibres.delta_invariant"),
    ("fibres", "tangent_contact_type", "fibres.tangent_contact_type"),
    ("mpoly", "MPoly.divide", "mpoly.divide"),
    ("mpoly", "MPoly.substitute", "mpoly.substitute"),
    ("mpoly", "MPoly.__mul__", "mpoly.mul"),
    ("mpoly", "MPoly.__add__", "mpoly.add"),
    ("mpoly", "MPoly.__sub__", "mpoly.add"),
    ("kernels", "scan_singular_points", "kernels.scan_singular_points"),
    ("kernels", "scan_zero_points", "kernels.scan_zero_points"),
    ("kernels", "plane_points", "kernels.plane_points"),
    ("finitefield", "GF.get", "finitefield.GF.get"),
    ("finitefield", "GF.embedding_into", "finitefield.GF.embedding_into"),
    ("families", "build_family", "families.build_family"),
    ("families", "invariant", "families.invariant"),
    ("isomorphisms", "apply_iso", "isomorphisms.apply_iso"),
    ("isomorphisms", "verify_iso", "isomorphisms.verify_iso"),
)

# (module, attribute path, metric name, split by m = 1 / m > 1)
COUNTERS = (
    ("upoly", "UPoly.divmod", "upoly.divmod", True),
    ("upoly", "UPoly.gcd", "upoly.gcd", True),
    ("upoly", "UPoly.__mul__", "upoly.mul", True),
    ("gf2x", "divmod_", "gf2x.divmod_", False),
    ("gf2x", "gcd", "gf2x.gcd", False),
    ("gf2x", "mul", "gf2x.mul", False),
    ("scalars", "ScalarK.__init__", "scalars.ScalarK.init", False),
    ("scalars", "ScalarK.__mul__", "scalars.ScalarK.mul", False),
    ("scalars", "ScalarK.__add__", "scalars.ScalarK.add", False),
    ("scalars", "ScalarK.__sub__", "scalars.ScalarK.add", False),
    ("scalars", "ScalarK.__truediv__", "scalars.ScalarK.truediv", False),
)

KINDS = ("IntegralQuartic", "ConicPlusDoubleLine", "DoubleConic",
         "LinePlusTripleLine", "Other")


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.nested = array("b")     # an open ancestor has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._open = {}              # name id -> open spans of that name
        self.counters = {}           # name -> [calls, total_s, open]
        self.extra = {}              # name -> count recorded from results

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open[self._ids[name]] = 0
        return self._ids[name]

    def _bump(self, name, by=1):
        self.extra[name] = self.extra.get(name, 0) + by

    def span(self, name, fn, after=None):
        nid = self._id(name)
        t = self

        def wrapper(*args, **kwargs):
            if not t.active:
                return fn(*args, **kwargs)
            idx = len(t.start)
            t.name.append(nid)
            t.parent.append(t._stack[-1] if t._stack else -1)
            t.op_id.append(t.op)
            t.nested.append(1 if t._open[nid] else 0)
            t.start.append(0.0)
            t.end.append(0.0)
            t._stack.append(idx)
            t._open[nid] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t.end[idx] = perf_counter()
                t.start[idx] = start
                t._stack.pop()
                t._open[nid] -= 1
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def counter(self, name, fn, split_m):
        t = self
        keys = (name + ".m1", name + ".mN") if split_m else (name,)
        stats = [t.counters.setdefault(key, [0, 0.0, 0]) for key in keys]

        def wrapper(*args, **kwargs):
            if not t.active:
                return fn(*args, **kwargs)
            st = stats[args[0].gf.m > 1] if split_m else stats[0]
            st[0] += 1
            if st[2]:                # time counted by the outer call
                return fn(*args, **kwargs)
            st[2] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                st[1] += perf_counter() - start
                st[2] = 0
        return wrapper

    def _after(self, name):
        if name == "mpoly.divide":
            return lambda args, out: self._bump(
                "mpoly.divide.hits", out is not None)
        if name.startswith("kernels.scan_"):
            def points(args, out):
                q = args[1].q
                self._bump(name + ".points", q * q + q + 1)
            return points
        return None

    def install(self, pkg):
        """Wrap every listed function wherever the package holds it."""
        modules = [mod for key, mod in sys.modules.items()
                   if key.split(".")[0] == "quarticfibres"]
        for spec in SPANS + COUNTERS:
            modname, path, name = spec[:3]
            owner = getattr(pkg, modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if len(spec) == 3:
                wrapped = self.span(name, fn, self._after(name))
            else:
                wrapped = self.counter(name, fn, spec[3])
            setattr(owner, attr,
                    classmethod(wrapped) if is_classmethod else wrapped)
            if outer:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def write(self, path, ops):
        header = {
            "names": self.names, "n": len(self.start), "ops": ops,
            "counters": {k: v[:2] for k, v in sorted(self.counters.items())},
            "extra": dict(sorted(self.extra.items())),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op_id, self.nested,
                        self.start, self.end):
                f.write(arr.tobytes())


def read(path):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["n"]
        arrays = []
        for code in "iiibdd":
            arr = array(code)
            arr.frombytes(f.read(n * arr.itemsize))
            arrays.append(arr)
    return header, arrays


def summarize(path, kinds):
    """Per-layer metrics of one traced run: name -> (value, unit).

    `kinds` maps each fibre class to the number of ops that returned it.
    """
    header, (name, parent, _op, nested, start, end) = read(path)
    names = header["names"]
    n = header["n"]
    ops = header["ops"]
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    for i in range(n):
        key = names[name[i]]
        calls[key] += 1
        self_s[key] += dur[i] - child[i]
        if not nested[i]:
            total[key] += dur[i]
    out = {}
    for _, _, key in SPANS:
        out[f"{key}.calls"] = (calls[key], "count")
        out[f"{key}.total_s"] = (total[key], "s")
        out[f"{key}.self_s"] = (self_s[key], "s")
    for _, _, key, split_m in COUNTERS:
        for sub in ((".m1", ".mN") if split_m else ("",)):
            c, t = header["counters"].get(key + sub, (0, 0.0))
            out[f"{key}{sub}.calls"] = (c, "count")
            out[f"{key}{sub}.total_s"] = (t, "s")
    extra = header["extra"]
    for key in ("kernels.scan_singular_points", "kernels.scan_zero_points"):
        out[f"{key}.points"] = (extra.get(f"{key}.points", 0), "count")
    divides = calls["mpoly.divide"]
    out["mpoly.divide.hit_ratio"] = (
        extra.get("mpoly.divide.hits", 0) / divides if divides else 0.0,
        "ratio")
    scalar_ops = sum(out[f"scalars.ScalarK.{op}.calls"][0]
                     for op in ("init", "mul", "add", "truediv"))
    gcds = (out["upoly.gcd.m1.calls"][0] + out["upoly.gcd.mN.calls"][0])
    out["scalars.gcd_per_op"] = (
        gcds / scalar_ops if scalar_ops else 0.0, "ratio")
    for kind in KINDS:
        out[f"fibres.kind.{kind}.share"] = (
            kinds.get(kind, 0) / ops if ops else 0.0, "ratio")
    return out
