"""Independent checks and fixtures that only the tests call.

Each re-derives, by a slower or more direct route, something the package
computes: brute-force privacy, the prime ideals above p and their root
classes mod p^v by exhaustive search, the congruence law, the norm from
the factors and from the complex conjugates, primitive characters by
filtering the group, and zeta(s, x) for winding.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from ghzeta.arith import poly_eval
from ghzeta.characters import characters_mod
from ghzeta.ideals import (
    AlgebraicAlpha,
    IdealFactorizationRecord,
    PrimeIdealKey,
    is_admissible_prime,
    norm_value,
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
    """Degree-1 prime ideals above an admissible p, one per r in [0, p)
    with p | minpoly(-r).  Empty for inert/inadmissible primes."""
    if not is_admissible_prime(alpha, p):
        return []
    return [PrimeIdealKey(p, r) for r in range(p) if poly_eval(alpha.negated_poly, r) % p == 0]


def root_mod_power(alpha: AlgebraicAlpha, key: PrimeIdealKey, v: int) -> int:
    """The root class r_v of the key mod p^v: the unique x = key.root
    (mod p) in [0, p^v) with p^v | minpoly(-x), found by trying each."""
    pv = key.p**v
    roots = [x for x in range(key.root, pv, key.p) if poly_eval(alpha.negated_poly, x) % pv == 0]
    if len(roots) != 1:
        raise ValueError(f"{key} has no unique root class mod {pv}")
    return roots[0]


def divides(alpha: AlgebraicAlpha, key: PrimeIdealKey, v: int, n: int) -> bool:
    """Does the key's prime ideal divide (n+alpha)a to order at least v?"""
    return n % key.p**v == root_mod_power(alpha, key, v)


def congruence_check(alpha: AlgebraicAlpha, key: PrimeIdealKey, v: int,
                     n1: int, n2: int) -> bool:
    """Both n1, n2 are assumed divisible by the key's ideal to order >= v;
    returns n1 = n2 (mod p^v).  Under the hypothesis this is always True,
    which is exactly what makes it a property-test hook."""
    rv = root_mod_power(alpha, key, v)
    pv = key.p**v
    for n in (n1, n2):
        if n % pv != rv:
            raise ValueError(
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
