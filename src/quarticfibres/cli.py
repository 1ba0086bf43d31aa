"""Command-line front end.

Every subcommand builds one report, prints it to stdout (plain text by
default, ``--json`` for machine form) and exits 0.  A computation that
raises, or a verification that comes back false, exits 1 with a
structured error record; bad usage exits 2 via argparse.  Identical
invocations print identical bytes on stdout — wall-clock timings go to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from time import perf_counter

from .acceptance import run_all
from .errors import QuarticError
from .families import (FAMILY_PARAMS, FamilyTag, build_family, invariant,
                       is_strange, make_params, singular_point)
from .fibres import (FIBRATIONS, classify_fibre, predicted_singular_point,
                     specialize_fibre)
from .finitefield import FieldSpec
from .isomorphisms import MU_NAMES, apply_iso, make_witness, verify_iso
from .parser import parse_element, parse_form
from .resolution import PENCILS, covering_check, dynkin_type, resolve_pencil
from .tower import (CONST_NAMES, TowerKind, is_nonhyperelliptic, make_tower,
                    normalize_presentation, printed_breve_relation,
                    to_quartic_model, validate_presentation,
                    verify_breve_relation)


# ----- input parsing --------------------------------------------------------


def _parse_modulus(text: str) -> int:
    """Modulus polynomial over F2, either bit-packed ("19") or written
    out ("u^4+u+1")."""
    try:
        return int(text, 0)
    except ValueError:
        pass
    bits = 0
    for part in text.replace(" ", "").split("+"):
        if part == "1":
            bits |= 1
        elif part == "u":
            bits |= 2
        elif part.startswith("u^"):
            bits |= 1 << int(part[2:])
        else:
            raise QuarticError(f"cannot read modulus term {part!r}")
    return bits


def _field(args) -> FieldSpec:
    modulus = _parse_modulus(args.field_poly) if args.field_poly else None
    return FieldSpec(args.field_m, modulus)


def _gf_value(text: str, spec: FieldSpec) -> int:
    """A finite-field element, as a decimal int or a polynomial in g."""
    text = text.strip()
    try:
        v = int(text)
    except ValueError:
        form = parse_form(text, spec, over="GF")
        if form.total_degree() > 0:
            raise QuarticError(f"{text!r} is not a field constant")
        return form.coeff((0, 0, 0)).v
    if not 0 <= v < spec.field().q:
        raise QuarticError(f"{v} is out of range for F{spec.field().q}")
    return v


def _split_csv(text: str) -> list:
    return [part.strip() for part in text.split(",")] if text else []


def _named_values(text: str, allowed, spec: FieldSpec) -> dict:
    """Parse "name=expr,name=expr" into scalars over F_q(t)."""
    out = {}
    for part in _split_csv(text):
        name, _, value = part.partition("=")
        if name not in allowed:
            raise QuarticError(f"unknown constant {name!r}"
                               f" (expected one of {', '.join(allowed)})")
        out[name] = parse_element(value, spec)
    return out


# ----- report plumbing ------------------------------------------------------


class _Report:
    def __init__(self, command: str, inputs: dict):
        self.record = {"command": command, "inputs": inputs,
                       "results": {}, "checks": []}
        self.lines = []

    def result(self, key, value, text=None):
        self.record["results"][key] = value
        if text is not False:
            self.lines.append(text if text is not None
                              else f"{key}: {value}")

    def check(self, name: str, anchor: str, passed: bool):
        self.record["checks"].append(
            {"name": name, "anchor": anchor, "pass": passed})
        self.lines.append(f"{'PASS' if passed else 'FAIL'} {name}")

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.record["checks"])

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(self.record, indent=2) + "\n"
        return "\n".join(self.lines) + "\n"


def _emit(report: _Report, args) -> int:
    as_json = bool(args.json)
    text = report.render(as_json)
    sys.stdout.write(text)
    path = args.json if isinstance(args.json, str) else args.out
    if path:
        with open(path, "w") as fh:
            fh.write(report.render(True) if path.endswith(".json")
                     else text)
    return 0 if report.ok else 1


def _point_strs(point) -> list:
    return [str(c) for c in point]


# ----- subcommands ----------------------------------------------------------


def _cmd_family(args) -> int:
    spec = _field(args)
    gf = spec.field()
    tag = FamilyTag(args.tag)
    scalars = {n: parse_element(getattr(args, n), spec)
               for n in ("a", "b", "c", "d")}
    model = build_family(make_params(tag, gf, **scalars))
    rep = _Report("family", {
        "field": spec.describe(), "tag": tag.value,
        "params": {n: str(v) for n, v in scalars.items()}})
    rep.result("tag", tag.value, f"family {tag}")
    rep.result("form", str(model.form), f"form {model.form}")
    rep.result("singular_point", str(singular_point(model)),
               f"singular point {singular_point(model)}")
    inv = invariant(model)
    rep.result("invariant", None if inv is None else str(inv),
               f"invariant {'-' if inv is None else inv}")
    rep.check("strange quartic", "family-strange", is_strange(model.form))
    return _emit(rep, args)


def _cmd_tower(args) -> int:
    spec = _field(args)
    gf = spec.field()
    kind = TowerKind(args.kind)
    names = CONST_NAMES[kind]
    consts = _named_values(args.consts, names, spec)
    p = make_tower(kind, gf, **consts)
    validate_presentation(p)
    rep = _Report("tower", {
        "field": spec.describe(), "kind": kind.value,
        "consts": {n: str(p.const(n)) for n in names}})
    rep.result("kind", kind.value, f"tower kind {kind}")
    rep.result("consts", {n: str(p.const(n)) for n in names},
               "consts " + " ".join(f"{n}={p.const(n)}" for n in names))
    nonhyp = is_nonhyperelliptic(p)
    rep.result("nonhyperelliptic", nonhyp, f"nonhyperelliptic {nonhyp}")
    if args.normalize:
        q = normalize_presentation(p)
        rep.result("normalized", {n: str(q.const(n)) for n in names},
                   "normalized " + " ".join(f"{n}={q.const(n)}"
                                            for n in names))
    if args.model:
        params = to_quartic_model(p)
        rep.result("model", {"tag": params.tag.value,
                             **{n: str(getattr(params, n))
                                for n in ("a", "b", "c", "d")}},
                   f"model {params.tag} a={params.a} b={params.b}"
                   f" c={params.c} d={params.d}")
    if args.breve:
        rep.result("breve_relation", str(printed_breve_relation(p)),
                   f"breve relation {printed_breve_relation(p)}")
        rep.check("breve relation agrees with elimination",
                  "breve-relation", verify_breve_relation(p))
    return _emit(rep, args)


def _cmd_iso(args) -> int:
    spec = _field(args)
    gf = spec.field()
    tag = FamilyTag(args.tag)
    names = tuple(FAMILY_PARAMS[tag])
    values = _split_csv(args.params)
    if len(values) != len(names):
        raise QuarticError(f"family {tag} takes {len(names)} parameters"
                           f" ({', '.join(names)})")
    scalars = {n: parse_element(v, spec) for n, v in zip(names, values)}
    source = build_family(make_params(tag, gf, **scalars))
    mu_values = _split_csv(args.witness)
    if len(mu_values) != 4:
        raise QuarticError(f"a witness carries four constants"
                           f" ({', '.join(MU_NAMES[tag])})")
    w = make_witness(tag, gf, **{
        n: parse_element(v, spec)
        for n, v in zip(MU_NAMES[tag], mu_values)})
    target = apply_iso(source, w)
    rep = _Report("iso", {
        "field": spec.describe(), "tag": tag.value,
        "params": {n: str(scalars[n]) for n in names},
        "witness": w.as_dict()})
    tp = target.params
    rep.result("target",
               {n: str(getattr(tp, n)) for n in names},
               "target " + " ".join(f"{n}={getattr(tp, n)}" for n in names))
    if args.verify:
        scale = verify_iso(source, target, w)
        rep.result("scale", str(scale), f"scale {scale}")
        rep.check("forms match up to the scale", "iso-verify", bool(scale))
        inv_s, inv_t = invariant(source), invariant(target)
        if inv_s is not None:
            rep.check("invariant preserved", "iso-invariant", inv_s == inv_t)
    return _emit(rep, args)


def _class_record(cls) -> dict:
    rec = {"kind": cls.kind, "ext": cls.ext}
    if cls.sing_point is not None:
        rec["singular_point"] = _point_strs(cls.sing_point)
    if cls.multiplicity is not None:
        rec["multiplicity"] = cls.multiplicity
    if cls.delta is not None:
        rec["delta"] = cls.delta
    if cls.tangent is not None:
        rec["tangent"] = {"kind": cls.tangent.kind,
                          "profile": list(cls.tangent.profile)}
    if cls.components:
        rec["components"] = [[f, m] for f, m in cls.components]
    return rec


def _cmd_fibre(args) -> int:
    spec = _field(args)
    name = args.fibration
    names, _ = FIBRATIONS[name]
    values = _split_csv(args.params)
    if len(values) != len(names):
        raise QuarticError(f"{name} takes {len(names)} parameters")
    point = tuple(_gf_value(v, spec) for v in values)
    curve = specialize_fibre(name, point, spec)
    cls = classify_fibre(curve, max_ext=args.max_ext)
    rep = _Report("fibre", {
        "field": spec.describe(), "fibration": name,
        "params": list(values), "action": args.action})
    rep.result("class", _class_record(cls), f"kind {cls.kind}")
    if cls.sing_point is not None:
        rep.lines.append(
            f"singular point ({' : '.join(_point_strs(cls.sing_point))})"
            f" over extension {cls.ext}")
        rep.lines.append(f"multiplicity {cls.multiplicity}"
                         f" delta {cls.delta}")
    if cls.tangent is not None:
        rep.lines.append(f"tangent {cls.tangent.kind}"
                         f" {tuple(cls.tangent.profile)}")
    for form, mult in cls.components:
        rep.lines.append(f"component ({form})^{mult}")
    if cls.kind == "IntegralQuartic" and cls.sing_point is not None:
        try:
            pred = predicted_singular_point(name, point, spec)
        except QuarticError:
            pred = None
        if pred is not None:
            rep.result("predicted_singular_point", _point_strs(pred),
                       f"predicted ({' : '.join(_point_strs(pred))})")
            rep.check("singular point at the closed-form location",
                      "fibre-predicted",
                      tuple(v.v for v in pred)
                      == tuple(v.v for v in cls.sing_point))
    rep.result("strange", is_strange(curve.form),
               f"strange {is_strange(curve.form)}")
    return _emit(rep, args)


def _scan_key(cls) -> str:
    if cls.kind == "IntegralQuartic" and cls.multiplicity is not None:
        return f"IntegralQuartic mult {cls.multiplicity}"
    return cls.kind


def _cmd_scan(args) -> int:
    spec = _field(args)
    gf = spec.field()
    name = args.fibration
    names, _ = FIBRATIONS[name]
    fixed = {}
    for part in _split_csv(args.fix or ""):
        key, _, value = part.partition("=")
        if key not in names:
            raise QuarticError(f"unknown parameter {key!r}"
                               f" (expected one of {', '.join(names)})")
        fixed[key] = _gf_value(value, spec)
    counts: dict = {}
    scanned = 0
    limit = args.limit
    for point in product(*([fixed[k]] if k in fixed else range(gf.q)
                            for k in names)):
        if limit is not None and scanned >= limit:
            break
        scanned += 1
        curve = specialize_fibre(name, point, spec)
        key = _scan_key(classify_fibre(curve))
        counts[key] = counts.get(key, 0) + 1
    rep = _Report("scan", {
        "field": spec.describe(), "fibration": name,
        "fixed": {k: fixed[k] for k in sorted(fixed)},
        "limit": limit})
    rep.result("scanned", scanned, f"scanned {scanned} fibres")
    rep.result("counts", {k: counts[k] for k in sorted(counts)}, False)
    for key in sorted(counts):
        rep.lines.append(f"{counts[key]:5d}  {key}")
    return _emit(rep, args)


def _cmd_resolve(args) -> int:
    name = args.pencil
    report = resolve_pencil(PENCILS[name]())
    rep = _Report("resolve", {"pencil": name})
    rep.result("degree", report.pencil.degree(),
               f"pencil {name} (degree {report.pencil.degree()})")
    counts = report.blowup_counts()
    rep.result("blowup_counts", counts,
               "blowups " + " ".join(f"{pt} {n}" for pt, n in counts.items()))
    rep.result("base_points",
               [[pt, series] for pt, series in
                (((":".join(str(v) for v in t)), s)
                 for t, s in report.base_points)],
               "base points " + ", ".join(
                   f"({':'.join(str(v) for v in t)}) series {s}"
                   for t, s in report.base_points))
    rep.result("generic_self_int", report.generic_self_int(),
               f"generic member self-intersection {report.generic_self_int()}")
    divisors = {}
    for member in ((1, 0), (0, 1)):
        div = report.fibre_divisor(member)
        label = f"({member[0]}:{member[1]})"
        divisors[label] = [[cid, mult] for cid, mult in div]
        rep.lines.append(f"fibre {label}: "
                         + " + ".join(f"{m}*{c}" if m > 1 else c
                                      for c, m in div))
    rep.record["results"]["fibre_divisors"] = divisors
    rep.result("self_intersections",
               {cid: report.self_intersection(cid)
                for cid in report.curve_ids()},
               "self-intersections "
               + " ".join(f"{cid}={report.self_intersection(cid)}"
                          for cid in report.curve_ids()))
    d = report.pencil.degree()
    rep.check("multiplicity certificate", "blowup-certificate",
              sum(n.mu * n.mu for n in report.nodes) == d * d)
    if name == "quartic":
        labels = {"E-chain": dynkin_type(report, ["E1", "E2", "E3"]),
                  "F-chain": dynkin_type(report,
                                         [f"F{i}" for i in range(1, 12)])}
        rep.result("dynkin", labels,
                   "dynkin " + " ".join(f"{k}={v}"
                                        for k, v in labels.items()))
        rep.check("E-chain is A3", "dynkin-labels",
                  labels["E-chain"] == "A3")
        rep.check("F-chain is A11", "dynkin-labels",
                  labels["F-chain"] == "A11")
    else:
        fibre_ids = [c for c, _ in report.fibre_divisor((0, 1))]
        labels = {"W+E1": dynkin_type(report, ["W", "E1"]),
                  "(0:1) fibre": dynkin_type(report, fibre_ids)}
        rep.result("dynkin", labels,
                   "dynkin " + " ".join(f"[{k}]={v}"
                                        for k, v in labels.items()))
        rep.check("W+E1 is the twisted A1 fibre", "dynkin-labels",
                  labels["W+E1"] == "A1~*")
        rep.check("(0:1) fibre is affine E7", "dynkin-labels",
                  labels["(0:1) fibre"] == "E7~")
        out = covering_check()
        rep.result("covering", {k: out[k] for k in sorted(out)}, False)
        for k in sorted(out):
            rep.lines.append(f"covering {k}: {out[k]}")
        rep.check("inseparable covering identities", "inseparable-covering",
                  set(out) == {"member-0", "member-1", "W->W'", "Z->Z'",
                               "X"})
    return _emit(rep, args)


def _cmd_accept(args) -> int:
    results = run_all(seed=args.seed)
    rep = _Report("accept", {"seed": args.seed})
    for r in results:
        rep.check(r.name, r.anchor, r.passed)
        if r.detail:  # timings and sample sizes vary; keep off stdout
            print(f"  {r.anchor}: {r.detail}", file=sys.stderr)
    passed = sum(r.passed for r in results)
    rep.result("passed", passed, False)
    rep.result("total", len(results), f"{passed}/{len(results)} passed")
    return _emit(rep, args)


# ----- argument parsing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="quarticfibres",
        description="strange quartics, their pencils, and the"
                    " inseparable tower, over F_q(t) in characteristic 2")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field-m", type=int, default=1, metavar="M",
                       help="coefficient field GF(2^M) (default 1)")
        p.add_argument("--field-poly", metavar="POLY",
                       help="modulus for GF(2^M), e.g. 'u^4+u+1'")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the derived generators (default 0)")
        p.add_argument("--json", nargs="?", const=True, metavar="PATH",
                       help="emit JSON (optionally into PATH)")
        p.add_argument("--out", metavar="PATH",
                       help="also write the report to PATH")

    p = sub.add_parser("family", help="build one quartic normal form")
    p.add_argument("--tag", required=True, choices=[t.value for t in FamilyTag])
    for n in ("a", "b", "c", "d"):
        p.add_argument(f"--{n}", default="0", metavar="EXPR")
    common(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("tower", help="inspect an inseparable tower"
                                     " presentation")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in TowerKind])
    p.add_argument("--consts", default="", metavar="N=EXPR,...",
                   help="constants by name, e.g. c0=1,c1=t,A2=t,B1=1")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--model", action="store_true",
                   help="derive the quartic family parameters")
    p.add_argument("--breve", action="store_true",
                   help="verify the plane relation against elimination")
    common(p)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("iso", help="apply and verify an isomorphism witness")
    p.add_argument("--tag", required=True,
                   choices=[t.value for t in MU_NAMES])
    p.add_argument("--params", required=True, metavar="EXPR,...")
    p.add_argument("--witness", required=True, metavar="EXPR,...")
    p.add_argument("--verify", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("fibre", help="classify one fibre over GF(2^M)")
    p.add_argument("action", choices=["classify"])
    p.add_argument("--fibration", required=True, choices=sorted(FIBRATIONS))
    p.add_argument("--params", required=True, metavar="V,...")
    p.add_argument("--max-ext", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_fibre)

    p = sub.add_parser("scan", help="classify every fibre on a parameter"
                                    " grid")
    p.add_argument("--fibration", required=True, choices=sorted(FIBRATIONS))
    p.add_argument("--fix", metavar="N=V,...",
                   help="freeze named parameters, e.g. d=0")
    p.add_argument("--limit", type=int, metavar="N",
                   help="stop after N grid points")
    common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("resolve", help="resolve a pencil's base locus")
    p.add_argument("--pencil", required=True, choices=sorted(PENCILS))
    common(p)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("accept", help="run the full acceptance battery")
    common(p)
    p.set_defaults(func=_cmd_accept)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = perf_counter()
    try:
        status = args.func(args)
    except QuarticError as e:
        record = {"command": args.command,
                  "error": {"type": type(e).__name__, "message": str(e)}}
        if args.json:
            sys.stdout.write(json.dumps(record, indent=2) + "\n")
        else:
            sys.stdout.write(f"error: {type(e).__name__}: {e}\n")
        return 1
    finally:
        print(f"[{perf_counter() - t0:.2f}s]", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
