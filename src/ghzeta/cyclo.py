"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as rational coefficient vectors over the power basis
1, zeta, ..., zeta^(n-1) in the group ring Q[x]/(x^n - 1); the zero test
reduces modulo the n-th cyclotomic polynomial, which makes equality exact
even though the representation is redundant.  Orders are merged by lcm on
demand, so values from different character groups mix freely.

This is deliberately tiny: add/sub/mul/conjugate/equality, a canonical
form and float realization are all the structure certificates need.  No
division beyond rational scalars.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int):
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    # divide x^n - 1 by the cyclotomic polynomials of the proper divisors
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, [Fraction(c) for c in cyclotomic_poly(d)])
    return tuple(int(c) for c in poly)


def _exact_div(num, den):
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(c != 0 for c in num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _reduce_mod(coeffs, mod_ascending):
    """Remainder of the ascending-coefficient polynomial modulo mod_ascending."""
    r = list(coeffs)
    dm = len(mod_ascending) - 1
    lead = mod_ascending[-1]
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i] / lead
        if c == 0:
            continue
        for j in range(dm + 1):
            r[i - dm + j] -= c * mod_ascending[j]
    return r[:dm]


_QUARTER_TURNS = (1, 1j, -1, -1j)


def _unit(k, n):
    """exp(2 pi i k/n) for 0 <= k < n, exactly +-1 or +-1j at quarter turns."""
    quarter, rest = divmod(4 * k, n)
    return _QUARTER_TURNS[quarter] if rest == 0 else cmath.exp(2j * cmath.pi * k / n)


class Cyclo:
    """An element of Q(zeta_n), exact."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != order:
            raise ValueError("need one coefficient per basis power")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(1, (Fraction(0),))

    @classmethod
    def from_rational(cls, re, im=0):
        re, im = Fraction(re), Fraction(im)
        if im == 0:
            return cls(1, (re,))
        c = [Fraction(0)] * 4
        c[0] = re
        c[1] = im  # i = zeta_4
        return cls(4, tuple(c))

    @classmethod
    def from_complex_exact(cls, z):
        """complex/float/int/Fraction -> exact value (floats are dyadic)."""
        if isinstance(z, Cyclo):
            return z
        if isinstance(z, complex):
            return cls.from_rational(Fraction(z.real), Fraction(z.imag))
        if isinstance(z, tuple):
            return cls.from_rational(Fraction(z[0]), Fraction(z[1]))
        return cls.from_rational(Fraction(z))

    @classmethod
    def root_of_unity(cls, k, n):
        """zeta_n^k."""
        g = gcd(k % n if k % n else n, n)
        n2, k2 = n // g, (k % n) // g
        coeffs = [Fraction(0)] * n2
        coeffs[k2 % n2] = Fraction(1)
        return cls(n2, tuple(coeffs))

    # -- order management --------------------------------------------------

    def _promote(self, order):
        if order == self.order:
            return self
        step = order // self.order
        coeffs = [Fraction(0)] * order
        for i, c in enumerate(self.coeffs):
            coeffs[i * step] = c
        return Cyclo(order, tuple(coeffs))

    @staticmethod
    def _common(a, b):
        n = a.order * b.order // gcd(a.order, b.order)
        return a._promote(n), b._promote(n), n

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = Cyclo.from_complex_exact(other)
        a, b, n = Cyclo._common(self, other)
        return Cyclo(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-Cyclo.from_complex_exact(other))

    def __rsub__(self, other):
        return Cyclo.from_complex_exact(other) + (-self)

    def __mul__(self, other):
        other = Cyclo.from_complex_exact(other)
        a, b, n = Cyclo._common(self, other)
        out = [Fraction(0)] * n
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(b.coeffs):
                if cb != 0:
                    k = i + j
                    out[k - n if k >= n else k] += ca * cb
        return Cyclo(n, tuple(out))

    __rmul__ = __mul__

    def scale(self, q):
        q = Fraction(q)
        return Cyclo(self.order, tuple(c * q for c in self.coeffs))

    def conjugate(self):
        out = [Fraction(0)] * self.order
        for i, c in enumerate(self.coeffs):
            out[(-i) % self.order] += c
        return Cyclo(self.order, tuple(out))

    def canonical(self):
        """The same value as the remainder modulo the cyclotomic polynomial,
        dropped to order 1 when only the rational part is left."""
        rem = _reduce_mod(list(self.coeffs), [Fraction(c) for c in cyclotomic_poly(self.order)])
        if all(c == 0 for c in rem[1:]):
            return Cyclo(1, rem[:1])
        return Cyclo(self.order, rem + [Fraction(0)] * (self.order - len(rem)))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        if all(c == 0 for c in self.coeffs):
            return True
        phi = [Fraction(c) for c in cyclotomic_poly(self.order)]
        rem = _reduce_mod(list(self.coeffs), phi)
        return all(c == 0 for c in rem)

    def __eq__(self, other):
        try:
            other = Cyclo.from_complex_exact(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # equal values can have distinct representations

    def __bool__(self):
        return not self.is_zero()

    # -- realization -------------------------------------------------------

    def __complex__(self):
        z = 0j
        for i, c in enumerate(self.coeffs):
            if c != 0:
                z += float(c) * _unit(i, self.order)
        return z

    def __repr__(self):
        terms = [
            (f"{c}" if i == 0 else f"{c}*z{self.order}^{i}")
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        """Stable serialization: exact terms plus a float realization."""
        z = complex(self)
        return {
            "order": self.order,
            "terms": {str(i): str(c) for i, c in enumerate(self.coeffs) if c != 0},
            "re": z.real,
            "im": z.imag,
        }
