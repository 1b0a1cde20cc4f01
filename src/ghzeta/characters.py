"""Dirichlet characters with exact root-of-unity value tables.

A character mod k is stored as a table of "angles": chi(m) = e^(2*pi*i*a)
with a a Fraction in [0,1), or None when gcd(m,k) > 1.  Exact angles make
orthogonality, conductor computation and primitive restriction exact.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import divisors, factorize
from .cyclo import Cyclo


def euler_phi(k: int) -> int:
    phi = 1
    for p, e in factorize(k).factors:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _primitive_root(p, e):
    """A generator of (Z/p^e)* for odd prime p."""
    m = p**e
    order = (p - 1) * p ** (e - 1)
    qs = [f for f, _ in factorize(order).factors]
    g = 2
    while True:
        if gcd(g, p) == 1 and all(pow(g, order // q, m) != 1 for q in qs):
            return g
        g += 1


def _unit_group(k):
    """Cyclic decomposition of (Z/k)*: list of (generator, order), with
    generators acting independently via CRT."""
    if k == 1:
        return []
    gens = []
    for p, e in factorize(k).factors:
        pe = p**e
        rest = k // pe
        if p == 2:
            if e == 1:
                continue
            locals_ = [(-1 % pe, 2)] if e == 2 else [(-1 % pe, 2), (5, 2 ** (e - 2))]
        else:
            locals_ = [(_primitive_root(p, e), (p - 1) * p ** (e - 1))]
        for g_local, order in locals_:
            # lift to a unit mod k that is 1 mod every other prime power
            if rest == 1:
                g = g_local % k
            else:
                inv = pow(pe, -1, rest)
                # CRT: g ≡ g_local (pe), g ≡ 1 (rest)
                g = (g_local + pe * ((1 - g_local) * inv % rest)) % k
            gens.append((g, order))
    return gens


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod `modulus`; `angles[m]` is the exact angle of chi(m)
    (Fraction mod 1) or None when chi(m) = 0."""

    modulus: int
    angles: tuple
    conductor: int

    def __call__(self, m: int) -> complex:
        a = self.angles[m % self.modulus]
        if a is None:
            return 0j
        return cmath.exp(2j * cmath.pi * float(a))

    def cyclo(self, m: int) -> Cyclo:
        """chi(m) as an exact cyclotomic number."""
        a = self.angles[m % self.modulus]
        if a is None:
            return Cyclo.zero()
        return Cyclo.root_of_unity(a.numerator % a.denominator, a.denominator)

    @property
    def order(self) -> int:
        den = 1
        for a in self.angles:
            if a is not None:
                den = den * a.denominator // gcd(den, a.denominator)
        return den

    def primitive_part(self) -> "DirichletCharacter":
        """The primitive character inducing this one, tabulated mod conductor."""
        f, k = self.conductor, self.modulus
        if f == k:
            return self
        angles = [None] * f
        for m in range(f):
            if gcd(m, f) != 1:
                continue
            angles[m] = self.angles[_coprime_lift(m, f, k)]
        return DirichletCharacter(f, tuple(angles), f)


def _coprime_lift(m, f, k):
    """Representative of m mod f that is coprime to k (exists since every
    prime of k either divides f or can be dodged by adding multiples of f)."""
    x = m % f
    if f == 1:
        x = 1
    while gcd(x, k) != 1:
        x += f
    return x % k


def _conductor(k, angles):
    for f in divisors(k):
        # chi factors through mod f iff chi(m) = chi(m') whenever m = m' mod f
        classes = {}
        ok = True
        for m in range(k):
            if angles[m] is None:
                continue
            key = m % f
            if key in classes and classes[key] != angles[m]:
                ok = False
                break
            classes[key] = angles[m]
        if ok:
            return f
    return k  # pragma: no cover


def characters_mod(k: int):
    """The full character group mod k: exactly phi(k) characters, closed
    under multiplication, each tagged with its conductor."""
    if k < 1:
        raise ValueError("modulus must be positive")
    gens = _unit_group(k)
    orders = [o for _, o in gens]
    # value table indexed by residue: exponents along each cyclic factor
    logs = {1 % k: tuple([0] * len(gens))}
    for i, (g, order) in enumerate(gens):
        new = {}
        for m, exps in logs.items():
            acc = m
            for t in range(1, order):
                acc = acc * g % k
                e2 = list(exps)
                e2[i] = t
                new[acc] = tuple(e2)
        logs.update(new)
    chars = []
    for chi_exps in _mixed_radix(orders):
        angles = [None] * k
        for m, exps in logs.items():
            a = Fraction(0)
            for e_m, e_chi, order in zip(exps, chi_exps, orders):
                a += Fraction(e_m * e_chi, order)
            angles[m] = a % 1
        table = tuple(angles)
        chars.append(DirichletCharacter(k, table, _conductor(k, table)))
    chars.sort(key=lambda c: (c.conductor, c.order, str(c.angles)))
    return chars


def _mixed_radix(orders):
    if not orders:
        yield ()
        return
    head, *rest = orders
    for t in range(head):
        for tail in _mixed_radix(rest):
            yield (t, *tail)
