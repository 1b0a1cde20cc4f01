"""Independent checks and fixtures that only the tests call.

Each re-derives, by a slower or more direct route, something the package
computes: brute-force privacy, the prime ideals above p from the roots
mod p, the Hensel congruence law, the norm from the factors and from the
complex conjugates, primitive characters by filtering the group, and
zeta(s, x) for winding.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from ghzeta.arith import poly_roots_mod_prime_power
from ghzeta.characters import characters_mod
from ghzeta.ideals import (
    AlgebraicAlpha,
    IdealFactorizationRecord,
    PreconditionViolated,
    PrimeIdealKey,
    divides,
    is_admissible_prime,
    norm_value,
    root_mod_power,
)
from ghzeta.zeta import EXPLORE, PrecisionProfile, hurwitz_zeta


def rescan_soundness(alpha: AlgebraicAlpha, key: PrimeIdealKey, n: int, end: int) -> bool:
    """Brute-force privacy confirmation: walk every m <= end and test
    divisibility of (m+alpha)*a by the key's ideal via the root class."""
    for m in range(0, end + 1):
        if m == n:
            if not divides(alpha, key, 1, m):
                return False
        elif divides(alpha, key, 1, m):
            return False
    return True


def prime_ideals_above(alpha: AlgebraicAlpha, p: int):
    """Degree-1 prime ideals above an admissible p, one per root of
    minpoly(-x) mod p.  Empty for inert/inadmissible primes."""
    if not is_admissible_prime(alpha, p):
        return []
    return [PrimeIdealKey(p, r) for r in poly_roots_mod_prime_power(list(alpha.negated_poly), p, 1)]


def congruence_check(alpha: AlgebraicAlpha, key: PrimeIdealKey, v: int,
                     n1: int, n2: int) -> bool:
    """Both n1, n2 are assumed divisible by the key's ideal to order >= v;
    returns n1 = n2 (mod p^v).  Under the hypothesis this is always True,
    which is exactly what makes it a property-test hook."""
    rv = root_mod_power(alpha, key, v)
    pv = key.p**v
    for n in (n1, n2):
        if n % pv != rv:
            raise PreconditionViolated(
                f"n={n} is not divisible by {key} to order {v} (root class {rv} mod {pv})"
            )
    return (n1 - n2) % pv == 0


def recomposed_norm(record: IdealFactorizationRecord) -> int:
    """The norm a factorization record multiplies back to: the residual
    times p^e for every admissible key."""
    total = record.residual_norm
    for key, e in record.admissible_part:
        total *= key.p**e
    return total


def conjugate_norm_check(alpha: AlgebraicAlpha, n: int, dps: int = 30) -> float:
    """Relative gap between |minpoly(-n)| and lead * prod |n + alpha_i| over
    all complex roots alpha_i; float-level consistency probe."""
    with mp.workdps(dps):
        roots = mp.polyroots([mp.mpf(c) for c in alpha.minpoly], maxsteps=100)
        prod = mp.mpf(alpha.lead)
        for rt in roots:
            prod *= abs(n + rt)
        exact = norm_value(alpha, n)
        return float(abs(prod - exact) / exact)


SQRT2_MINUS_1 = None  # initialized lazily in fixtures()


def fixtures():
    """Canonical example shift sqrt(2)-1 (minpoly x^2+2x-1)."""
    global SQRT2_MINUS_1
    if SQRT2_MINUS_1 is None:
        SQRT2_MINUS_1 = AlgebraicAlpha((1, 2, -1), (Fraction(2, 5), Fraction(1, 2)))
    return SQRT2_MINUS_1


def primitive_characters_mod(f: int):
    """Primitive characters of conductor exactly f."""
    return [chi for chi in characters_mod(f) if chi.conductor == f]


def hurwitz_evaluator(x, prof: PrecisionProfile = EXPLORE):
    """s -> zeta(s, x)."""

    def F(s):
        return complex(hurwitz_zeta(s, x, prof).value)

    return F
