"""Independent checks and fixtures that only the tests call.

Each re-derives, by a slower or more direct route, something the package
computes: brute-force privacy, the prime ideals above p and their root
classes mod p^v by exhaustive search, the congruence law, the norm from
the factors and from the complex conjugates, primitive characters by
filtering the group, zeta(s, x) for winding, the boundary winding loop
as it stood before `winding_number` was made lean, and the construction's
per-member sums in the mpf/mpc operator forms they had before they called
libmp directly.
"""

from __future__ import annotations

import cmath
import math
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
from ghzeta.zeros import (
    _PHASE_CAP,
    MAX_EDGE_DEPTH,
    REL_MODULUS_FLOOR,
    BoundaryTooCloseToZero,
    Rectangle,
    WindingResult,
)
from ghzeta.zeta import EXPLORE, PrecisionProfile, hurwitz_zeta, to_ctx


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


def winding_reference(series, rect: Rectangle) -> WindingResult:
    """`zeros.winding_number` as a probe closure over a state dict: the
    reference the lean loop must match bit for bit, exceptions included."""
    corners = rect.corners()
    state = {"min": float("inf"), "max": 0.0, "count": 0}

    def probe(z):
        v = complex(series(z))
        m = abs(v)
        state["min"] = min(state["min"], m)
        state["max"] = max(state["max"], m)
        state["count"] += 1
        return v

    vals = [probe(z) for z in corners]
    total = 0.0
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        v0, v1 = vals[i], vals[(i + 1) % 4]
        n0 = max(8, int(abs(z1 - z0) * 8))
        zs = [z0 + (z1 - z0) * k / n0 for k in range(1, n0)]
        pts = [(z0, v0)] + [(z, probe(z)) for z in zs] + [(z1, v1)]
        for (za, va), (zb, vb) in zip(pts, pts[1:]):
            total += _tracked_delta_reference(probe, za, zb, va, vb, 0, rect, state)

    if state["min"] < REL_MODULUS_FLOOR * state["max"]:
        raise BoundaryTooCloseToZero(
            f"min |F| = {state['min']:.3e} on the boundary of {rect.as_tuple()}"
        )
    k = round(total / (2 * math.pi))
    if abs(total - 2 * math.pi * k) > 1e-6:
        raise BoundaryTooCloseToZero(
            f"argument failed to close around {rect.as_tuple()}: {total}"
        )
    return WindingResult(rect, int(k), state["min"], state["count"])


def _tracked_delta_reference(probe, za, zb, va, vb, depth, rect, state):
    if va == 0 or vb == 0:
        raise BoundaryTooCloseToZero(f"exact boundary zero near {za} on {rect.as_tuple()}")
    d = cmath.phase(vb / va)
    if abs(d) < _PHASE_CAP:
        return d
    if depth >= MAX_EDGE_DEPTH:
        raise BoundaryTooCloseToZero(
            f"phase jump persisted after {MAX_EDGE_DEPTH} subdivisions near {za}"
        )
    zm = (za + zb) / 2
    vm = probe(zm)
    return (_tracked_delta_reference(probe, za, zm, va, vm, depth + 1, rect, state)
            + _tracked_delta_reference(probe, zm, zb, vm, vb, depth + 1, rect, state))


def member_weights_reference(records, a_val, sigma):
    """`construction._member_weights` in operator form."""
    return {n: (n + a_val) ** -sigma for n in records}


def twisted_sum_reference(fb, phi, records, weight, members):
    """`construction._twisted_sum` in operator form."""
    total = mp.mpc(0)
    for n in members:
        total += fb * phi.phase_of_record(records[n]) * weight[n]
    return total


def recompute_from_scratch_reference(f, alpha_val, sigma, n1, n_top, phi, members):
    """The value of `construction._recompute_from_scratch` in operator form,
    without its checks of `members`, which it leaves unchanged."""
    q = f.period
    coeff = [to_ctx(mp, f.exact(b)) for b in range(q)]
    with mp.extradps(max(0, int(-mp.log10(sigma - 1))) + 1):
        closed = mp.mpc(0)
        for b in range(min(q, n_top + 1)):
            if coeff[b] != 0:
                x = (b + alpha_val) / q
                closed += coeff[b] * (mp.zeta(sigma, x) - mp.zeta(sigma, x + (n_top - b) // q + 1))
        closed *= mp.mpf(q) ** (-sigma)
    terms = [closed]
    for n in range(n1 + 1, n_top + 1):
        rec, w = members[n]
        c = coeff[n % q]
        if c == 0:
            continue
        phi_n = phi.phase_of_record(rec)
        if phi_n != 1:
            terms.append(c * (phi_n - 1) * w)
    return mp.fsum(terms)
