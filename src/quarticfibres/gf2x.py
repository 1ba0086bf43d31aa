"""Polynomials over GF(2) packed into Python integers.

Bit k of the integer holds the coefficient of t^k, so addition is XOR and
multiplication is carry-less.  Everything else in the package (finite
fields, the rational function field, fraction gcds) bottoms out in these
routines, which is why they stay plain functions on ints: Python big-int
shifts and xors run in C and keep degree-several-hundred operands cheap.
"""

from __future__ import annotations


def deg(a: int) -> int:
    """Degree of a, with deg(0) = -1."""
    return a.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of schoolbook long division (b != 0)."""
    if b == 0:
        raise ZeroDivisionError("gf2x division by zero")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        sh = a.bit_length() - db
        a ^= b << sh
        q |= 1 << sh
    return q, a


def mod(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("gf2x division by zero")
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


def is_irreducible(f: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(f)/2."""
    d = deg(f)
    if d < 1:
        return False
    for g in range(2, 1 << (d // 2 + 1)):
        if deg(g) >= 1 and mod(f, g) == 0:
            return False
    return True


def first_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible of degree m (m >= 1)."""
    for f in range(1 << m, 1 << (m + 1)):
        if is_irreducible(f):
            return f
    raise ValueError(f"no irreducible of degree {m}")  # unreachable


def square(a: int) -> int:
    """a^2 = bit spreading (char-2 Frobenius): a zero between every two
    binary digits of a."""
    return int("0".join(bin(a)[2:]), 2)
