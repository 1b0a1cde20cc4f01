"""Structural form of periodic-coefficient Dirichlet series.

Three questions, all answered with exact arithmetic:

* rewrite F(s,f,a/b) = b^s * sum_m g(m) m^(-s) with g periodic mod b*q
  (the rational lift);
* decompose any periodic-coefficient series into the canonical combination
  sum_chi P_chi(s) L(s,chi) over primitive Dirichlet characters, with
  Dirichlet-polynomial coefficients, verified coefficient-by-coefficient
  over a full common period;
* decide whether the series is a single product P(s) * L(s,chi), which by
  the Saias-Weingartner criterion is the only way it can avoid zeros in
  sigma > 1.  A support class h mod r with r > 2 and (h,r) = 1 rules the
  form out immediately (the polynomial's least term forces both h and -h
  to carry coefficients, hence r | 2); otherwise the decomposition, which
  is unique, decides: one term is the product form, two or more are not.

All certificate arithmetic is exact: coefficients live in cyclotomic
fields and verification is symbolic equality over one full period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import PeriodicFunction, divisors, factorize
from .characters import DirichletCharacter, characters_mod, euler_phi
from .cyclo import Cyclo
from .ideals import AlgebraicAlpha
from .zeros import dirichlet_polynomial_zeros

IS_PL = "IsPL"
NOT_PL = "NotPL"

RESIDUE_OBSTRUCTION = "ResidueObstruction"
DECONVOLUTION_CERTIFICATE = "DeconvolutionCertificate"
MULTIPLE_CHARACTERS = "MultipleCharacters"

VERDICT_INFINITE = "infinitely many zeros in sigma > 1"
VERDICT_ZERO_FREE_FORM = "no zeros found; consistent with zero-free form"
VERDICT_ZEROS_FROM_POLY = "zeros exist (from the Dirichlet polynomial factor)"


class UnsupportedAlpha(TypeError):
    """The shift was given without an arithmetic type tag (bare float)."""


def rational_series(f: PeriodicFunction, alpha):
    """(c, b) with F(s,f,a/b) = b^s * sum_{m>=1} c(m) m^(-s) for a rational
    alpha = a/b in (0, 1]: m = b n + a reindexes f(n)/(n + a/b)^s, so c has
    period b*q and vanishes off the class a mod b (alpha = 1 is b = 1)."""
    if not isinstance(alpha, (Fraction, int)):
        raise UnsupportedAlpha("structure decisions need a rational alpha")
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    a, b = alpha.numerator, alpha.denominator
    values = [f.exact((m - a) // b) if m % b == a % b else 0 for m in range(b * f.period)]
    return PeriodicFunction(b * f.period, tuple(values)), b


# ---------------------------------------------------------------------------
# canonical decomposition over primitive characters


@dataclass(frozen=True)
class DecompositionResult:
    """sum over primitive chi of P_chi(s) L(s,chi) reproducing the series."""

    terms: tuple  # ((DirichletCharacter primitive, ((n, canonical Cyclo), ...)), ...)
    verification_period: int
    verified: bool

    def coefficient(self, m: int) -> Cyclo:
        """Coefficient of m^(-s) of the recombined series, exactly."""
        total = Cyclo.zero()
        for chi, poly in self.terms:
            for n, c in poly:
                if m % n == 0:
                    total = total + c * chi.cyclo(m // n)
        return total


@lru_cache(maxsize=None)
def _char_group(k):
    return tuple(characters_mod(k))


def _exact_coeff(f: PeriodicFunction, m: int) -> Cyclo:
    re, im = f.exact(m)
    return Cyclo.from_rational(re, im)


def decompose(g: PeriodicFunction) -> DecompositionResult:
    """Canonical decomposition of a periodic coefficient function into
    primitive-character L-function terms.

    Classes m = r (mod P) split as m = d m' with d = gcd(r, P) and
    m' = r/d (mod P/d) coprime to P/d; the coprime-class indicator expands
    over the character group mod P/d, and each imprimitive L-function is
    exchanged for its primitive part times finitely many Euler factors.
    Coefficients are in canonical form (`Cyclo.canonical`), and the result
    is verified exactly on one full common period.
    """
    P = g.period
    acc: dict = {}
    chars_seen: dict = {}
    for r in range(1, P + 1):
        val = _exact_coeff(g, r)
        if val.is_zero():
            continue
        d = gcd(r, P)
        Lp = P // d
        rp = (r // d) % Lp if Lp > 1 else 1
        phi = euler_phi(Lp)
        for chi in _char_group(Lp):
            weight = val * chi.cyclo(rp).conjugate()
            if weight.is_zero():
                continue
            weight = weight.scale(Fraction(1, phi))
            prim = chi.primitive_part()
            key = (prim.modulus, prim.angles)
            chars_seen.setdefault(key, prim)
            # L(s, chi mod Lp) = L(s, chi*) * prod_{p | Lp, p coprime to f} (1 - chi*(p) p^-s)
            poly = {d: weight}
            for p in _prime_divisors(Lp):
                if prim.modulus % p == 0:
                    continue
                factor_val = prim.cyclo(p)
                new = {}
                for n, c in poly.items():
                    new[n] = new.get(n, Cyclo.zero()) + c
                    new[n * p] = new.get(n * p, Cyclo.zero()) - c * factor_val
                poly = new
            bucket = acc.setdefault(key, {})
            for n, c in poly.items():
                bucket[n] = bucket.get(n, Cyclo.zero()) + c

    terms = []
    for key in sorted(acc, key=lambda k: (k[0], str(k[1]))):
        poly = {n: c.canonical() for n, c in acc[key].items() if not c.is_zero()}
        if poly:
            terms.append((chars_seen[key], tuple(sorted(poly.items()))))

    ver_period = P
    for chi, poly in terms:
        supp_lcm = 1
        for n, _ in poly:
            supp_lcm = lcm(supp_lcm, n)
        ver_period = lcm(ver_period, chi.modulus * supp_lcm)
    result = DecompositionResult(tuple(terms), ver_period, False)
    for m in range(1, ver_period + 1):
        if not (result.coefficient(m) - _exact_coeff(g, m)).is_zero():
            raise AssertionError(f"decomposition failed to reproduce coefficient {m}")
    return DecompositionResult(tuple(terms), ver_period, True)


@lru_cache(maxsize=None)
def _prime_divisors(n):
    return tuple(p for p, _ in factorize(n).factors)


# ---------------------------------------------------------------------------
# P(s) * L(s,chi) detection


@dataclass(frozen=True)
class PLCertificate:
    verdict: str
    proof_kind: str
    polynomial_support: tuple = ()  # ((n, Cyclo), ...) when IsPL
    character: DirichletCharacter | None = None
    obstruction: tuple | None = None  # (h, r) for the residue obstruction
    verification_period: int = 0
    conductors: tuple = ()  # one per decomposition term when MultipleCharacters

    # no conductor search runs; kept at 0 for readers of the former field
    searched_conductors = 0


def _support_obstruction(g: PeriodicFunction):
    """Smallest modulus r >= 3 with the support inside one class h mod r,
    (h, r) = 1.  Such a class forces r | 2 for any P*L form, contradiction."""
    P = g.period
    support = [m for m in range(1, P + 1) if not _exact_coeff(g, m).is_zero()]
    for r in divisors(P):
        if r < 3:
            continue
        classes = {m % r for m in support}
        if len(classes) == 1:
            h = classes.pop()
            if gcd(h, r) == 1:
                return h, r
    return None


def detect_pl_form(g: PeriodicFunction, decomposition: DecompositionResult | None = None) -> PLCertificate:
    """Decide whether the series is P(s) * L(s,chi).

    The residue obstruction is tried first.  Otherwise the verdict is read
    off the canonical decomposition (computed here unless passed in): it is
    unique, so the series is a single product exactly when it has one term.
    The IsPL certificate is that term, verified exactly by `decompose` over
    a full common period, with coefficients in canonical form; NotPL lists
    the conductors of the terms.
    """
    hit = _support_obstruction(g)
    if hit is not None:
        return PLCertificate(NOT_PL, RESIDUE_OBSTRUCTION, obstruction=hit)

    dec = decomposition if decomposition is not None else decompose(g)
    if len(dec.terms) > 1:
        return PLCertificate(
            NOT_PL,
            MULTIPLE_CHARACTERS,
            verification_period=dec.verification_period,
            conductors=tuple(chi.modulus for chi, _ in dec.terms),
        )
    (chi, poly), = dec.terms
    return PLCertificate(
        IS_PL,
        DECONVOLUTION_CERTIFICATE,
        polynomial_support=poly,
        character=chi,
        verification_period=dec.verification_period,
    )


# ---------------------------------------------------------------------------
# the headline decision


def nonvanishing_verdict(f: PeriodicFunction, alpha, zero_scan_tmax: float = 30.0) -> dict:
    """Decide whether F(s,f,alpha) must have zeros in sigma > 1; returns the
    `results` dict of a `classify` report.

    Rational shifts with denominator > 2 and algebraic irrational shifts
    always do.  For alpha in {1, 1/2} the decision runs through the exact
    P*L detector, whose certificate the dict carries; a product form is
    reported with the zero set of its polynomial factor searched by winding
    (the L factor never vanishes in the half-plane), as `scan_region` and
    `polynomial_zeros` ([re, im] pairs).
    """
    if isinstance(alpha, AlgebraicAlpha):
        return {
            "alpha_kind": "algebraic-irrational",
            "alpha": str(alpha),
            "verdict": VERDICT_INFINITE,
            "evidence": [
                "shift is algebraic irrational in (0,1)",
                "coefficients are periodic and not identically zero",
                "a unimodular completely multiplicative twist can cancel the series",
            ],
            "lift_prefactor": 1,
        }
    series, prefactor = rational_series(f, alpha)
    cert = detect_pl_form(series)
    certificate = {"verdict": cert.verdict, "proof": cert.proof_kind}
    results = {"alpha_kind": "rational", "alpha": str(alpha),  # "1" or "a/b"
               "lift_prefactor": prefactor, "certificate": certificate}
    if cert.verdict == NOT_PL:
        evidence = ["series coefficients are periodic and not identically zero"]
        if cert.proof_kind == RESIDUE_OBSTRUCTION:
            h, r = cert.obstruction
            certificate["obstruction"] = [h, r]
            evidence.append(
                f"support lies in the class {h} mod {r} with r > 2, "
                "so no P(s)L(s,chi) form exists"
            )
        else:
            certificate["conductors"] = list(cert.conductors)
            evidence.append(
                f"the unique decomposition has {len(cert.conductors)} primitive-character "
                f"terms (conductors {list(cert.conductors)}), so no P(s)L(s,chi) form exists"
            )
        evidence.append("a series that is not P(s)L(s,chi) vanishes somewhere in sigma > 1")
        return {**results, "verdict": VERDICT_INFINITE, "evidence": evidence}

    # product form: zeros in sigma > 1 can only come from the polynomial factor
    certificate["character_modulus"] = cert.character.modulus
    certificate["polynomial"] = {str(n): c.to_json() for n, c in cert.polynomial_support}
    certificate["verification_period"] = cert.verification_period
    poly = {n: complex(c) for n, c in cert.polynomial_support}
    evidence = [
        f"series = P(s) * L(s, chi mod {cert.character.modulus}) with "
        f"P supported on {sorted(poly)}",
        "L(s, chi) has no zeros with sigma > 1 (Euler product)",
    ]
    if len(poly) == 1:
        evidence.append("P is a single term, hence nonvanishing")
        return {**results, "verdict": VERDICT_ZERO_FREE_FORM, "evidence": evidence}
    zeros, region = dirichlet_polynomial_zeros(poly, t_max=zero_scan_tmax)
    if zeros:
        evidence.append(f"P vanishes inside the scanned region {region}")
    else:
        evidence.append(f"no zeros of P found in the scanned region {region}")
    return {
        **results,
        "verdict": VERDICT_ZEROS_FROM_POLY if zeros else VERDICT_ZERO_FREE_FORM,
        "evidence": evidence,
        "scan_region": list(region),
        "polynomial_zeros": [[z.real, z.imag] for z in zeros],
    }
