"""The full strange-form census over GF(4), an opt-in check that pytest
does not collect.

Classifies every nonzero quartic over GF(4) with only even powers of y,
sum c x^i y^j z^k over the nine monomials with j even (4^9 - 1 = 262143
forms), and prints the (kind, ext) histogram, the tangent kinds of the
integral answers, the errors by type and one SHA-1 over every answer in
form order (its `repr`, or its error type and message), which two
versions of the package must share.  It also compares
`fibres.singular_locus` with the reference scan of P^2(GF(4)) and
P^2(GF(16)) (``locus_oracle``) on every form and prints the number of
mismatches: the scan finds at most three singular points on a reduced
form, which the answers must equal, and a curve of them on a square or a
double line, for which `singular_locus` must raise.  A
change that deletes or replaces a search path only general strange forms
reach reruns it and compares the two outputs.  It takes a few minutes:

    PYTHONPATH=src python tests/census_gf4.py
"""

import hashlib
import time
from collections import Counter
from itertools import product

from locus_oracle import reference_locus
from quarticfibres.errors import ConstraintViolation, QuarticError
from quarticfibres.fibres import PlaneCurveFq, classify_fibre, singular_locus
from quarticfibres.finitefield import GF, FieldSpec, GFElem
from quarticfibres.mpoly import FORM_VARS, MPoly

MONOMIALS = [(i, j, 4 - i - j) for j in (4, 2, 0) for i in range(5 - j)]


def census(m: int = 2):
    """The (kind, ext) counts, the tangent-kind counts of the integral
    answers, the error counts by type over GF(2^m), the reduced forms and
    locus mismatches, and the SHA-1 of the answers."""
    gf, spec = GF.get(m), FieldSpec(m)
    kinds, tangents, errors = Counter(), Counter(), Counter()
    digest = hashlib.sha1()
    reduced = mismatches = 0
    for cs in product(range(gf.q), repeat=len(MONOMIALS)):
        if not any(cs):
            continue
        form = MPoly.from_terms(FORM_VARS, gf, [
            (e, GFElem(gf, c)) for e, c in zip(MONOMIALS, cs) if c])
        curve = PlaneCurveFq(form, spec)
        want = reference_locus(curve)
        reduced += len(want) <= 3
        try:
            agrees = singular_locus(curve) == want
        except ConstraintViolation:
            agrees = len(want) > 3      # a curve of singular points
        mismatches += not agrees
        try:
            cls = classify_fibre(curve)
        except QuarticError as exc:
            errors[type(exc).__name__] += 1
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
        else:
            digest.update(f"{cls!r}\n".encode())
            kinds[cls.kind, cls.ext] += 1
            if cls.kind == "IntegralQuartic":
                tangents[cls.tangent.kind if cls.tangent else None] += 1
    return kinds, tangents, errors, reduced, mismatches, digest.hexdigest()


def main():
    start = time.perf_counter()
    kinds, tangents, errors, reduced, mismatches, digest = census()
    print(f"{sum(kinds.values()) + sum(errors.values())} forms over GF(4)")
    for (kind, ext), n in sorted(kinds.items()):
        print(f"{n:8d}  {kind} ext {ext}")
    for kind, n in sorted(tangents.items(), key=str):
        print(f"{n:8d}  IntegralQuartic tangent {kind}")
    print(f"{sum(errors.values()):8d}  errors"
          + "".join(f", {n} {name}" for name, n in sorted(errors.items())))
    print(f"{mismatches:8d}  locus mismatches against the GF(16) scan"
          f" ({reduced} reduced forms)")
    print(f"answers sha1 {digest}")
    print(f"[{time.perf_counter() - start:.0f}s]")


if __name__ == "__main__":
    main()
