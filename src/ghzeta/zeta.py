"""Hurwitz zeta and periodic-coefficient series evaluation.

Everything runs through one Euler-Maclaurin core with a rigorous remainder
bound, usable in two tiers: 53-bit floats for exploration and winding scans,
and mpmath arbitrary precision for construction certificates.

Euler-Maclaurin layout (derivation note)
----------------------------------------
For a > 0 and s != 1, summation by parts of sum_{n>=0} (n+a)^(-s) against
the Bernoulli-polynomial kernel gives, for any shift T >= 1 and order K >= 1,

    zeta(s, a) = sum_{n=0}^{T-1} (n+a)^(-s)
               + w^(1-s)/(s-1) + w^(-s)/2
               + sum_{k=1}^{K} B_{2k}/(2k)! * (s)_{2k-1} * w^(-s-2k+1)
               + R_K,        w := T + a,

with (s)_m the rising factorial.  The remainder is the integral of the
periodized Bernoulli polynomial B_{2K+2}({x}) against the (2K+2)-nd
derivative of x^(-s); bounding |B_{2K+2}({x})| by |B_{2K+2}| and integrating
|x^(-s-2K-2)| over (T, infinity) yields, whenever sigma + 2K + 1 > 0,

    |R_K| <= |B_{2K+2}/(2K+2)!| * |(s)_{2K+1}| * w^(-sigma-2K-1)
             * |s+2K+1| / (sigma+2K+1).

This is the classical estimate: the remainder is at most the first omitted
term magnified by |s+2K+1|/(sigma+2K+1).  All terms are produced
incrementally through ratios, so nothing overflows even at large |t|;
the ratios b_{k+1}/b_k of b_k = B_2k/(2k)! come from a table built once
per context and precision.  K is the first order whose remainder bound
meets min(tol, 1e-3 * ctx.eps * |v0|), v0 the value before the corrections
(fixed once per call), and 1e-3 * ctx.eps * |running value|: later orders
change no stored digit (Johansson, "Rigorous high-precision computation of
the Hurwitz zeta function and its derivatives", Numer. Algorithms 69,
2015); failing that, the order of smallest bound before the series turns.

Rounding: besides the arithmetic around it, each term (n+a)^(-s) is off
by the rounding of s*log(n+a), about |s| * |log(n+a)| units of the
context's roundoff.  In the float tier that dominates at large |t|, so
the bound counts it (`_rounding_bound`); the mp tier's 10 guard digits
absorb it.

One head sum, one starting-shift rule and one correction routine serve
both the ordinary evaluation and f_eval at a cancelled pole, where the
per-class pole parts w^(1-s)/(s-1) are replaced by their combined
expansion around s = 1 and everything else is evaluated unchanged.

Each public call chooses its tier once, from its PrecisionProfile
(`_tier`): mpmath's `fp` context on plain floats, or `mp` at
working_digits + 10 digits.  Everything below that choice is written once
against the context `ctx`, and every input enters it through one
converter (`to_ctx`), so exact inputs (Fraction shifts and the exact
coefficients of a PeriodicFunction) are rounded once, at working
precision.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple

from mpmath import fp, mp

from .arith import PeriodicFunction

POLE_TOLERANCE = 1e-12
_MAX_CORRECTION_ORDER = 30
_MAX_SHIFT_ESCALATIONS = 8
# The head sum runs T >= |t| terms in a Python loop (about 0.4 s per 10^6
# float-tier terms); past this many an evaluation is refused instead.
_MAX_HEAD_TERMS = 1 << 22


class PoleAtOne(ArithmeticError):
    """Evaluation requested exactly at the simple pole s = 1."""


class DivergesAtOne(ArithmeticError):
    """Absolute tail requested at sigma <= 1 where the series diverges."""


class PrecisionExhausted(ArithmeticError):
    """The working precision cannot certify the requested bound."""


@dataclass(frozen=True)
class PrecisionProfile:
    """Working precision plus the truncation tolerance requested of it."""

    working_digits: int = 15
    target_tolerance: float = 1e-12

    def __post_init__(self):
        if self.working_digits < 15:
            raise ValueError("working_digits must be at least 15")
        if not 0 < self.target_tolerance:
            raise ValueError("target_tolerance must be positive")
        if self.target_tolerance < 10.0 ** (-(self.working_digits + 2)):
            raise ValueError("working_digits too small to represent the tolerance")

    @property
    def uses_floats(self):
        return self.working_digits <= 17


EXPLORE = PrecisionProfile(15, 1e-12)
CERTIFY = PrecisionProfile(50, 1e-40)


class EvalResult(NamedTuple):
    value: object  # complex (float tier) or mpmath mpc
    abs_error_bound: float
    pole_flag: bool = False

    def __complex__(self):
        return complex(self.value)


class _Rounding(NamedTuple):
    """A tier's rounding unit `eps`, and its context's own roundoff
    ctx.eps in units of eps (the phase rounding `_rounding_bound` counts)."""

    eps: float
    ctx_eps: float


_FP_TIER = (fp, _Rounding(2.0**-50, float(fp.eps / 2.0**-50)), nullcontext())


@cache
def _mp_rounding(digits):
    """The mp tier's _Rounding at working_digits `digits`, ctx.eps taken at
    the digits + 10 its calls run at."""
    eps = float(Fraction(1, 10**digits))
    with mp.workdps(digits + 10):
        return _Rounding(eps, float(mp.eps / eps))


def _tier(prof: PrecisionProfile):
    """(ctx, rounding, precision) for one call: the only place the tier is
    chosen.

    Float profiles compute in mpmath's `fp` context (Python floats and
    complex numbers, eps = 2^-50) and change no precision; the others
    compute in `mp`, inside `precision`, at working_digits + 10 digits,
    with eps = 10^-working_digits.  `rounding` (a _Rounding) is built once
    per tier and working_digits."""
    if prof.uses_floats:
        return _FP_TIER
    digits = prof.working_digits
    return mp, _mp_rounding(digits), mp.workdps(digits + 10)


def to_ctx(ctx, x):
    """x as a ctx number, rounded once at the current precision.

    Fractions enter as numerator / denominator (float() in the fp tier), so
    an exact value like 1/3 is correct to working precision; the (re, im)
    Fraction pairs of PeriodicFunction.exact become complex numbers;
    int, float, complex, mpf and mpc keep their kind."""
    if isinstance(x, tuple):
        return ctx.mpc(to_ctx(ctx, x[0]), to_ctx(ctx, x[1]))
    if isinstance(x, Fraction):
        return float(x) if ctx is fp else mp.mpf(x.numerator) / x.denominator
    if isinstance(x, (complex, mp.mpc)):
        return ctx.mpc(x)
    return ctx.mpf(x)


def _to_point(ctx, s):
    """s as a complex ctx number; a complex s is converted once."""
    return ctx.mpc(s) if isinstance(s, complex) else ctx.mpc(to_ctx(ctx, s))


def _em_shift(s, digits):
    """Starting shift T of the Euler-Maclaurin head: past |t|, so the
    corrections decay from the first, and deep enough for `digits`."""
    y = abs(s.imag)
    ceil_y = int(y)  # exact truncation of a float or mpf, then round up
    ceil_y += ceil_y < y
    return max(10, ceil_y, (digits + 1) // 2)


def _em_core(ctx, rounding, s, a, tol, digits):
    """One Euler-Maclaurin evaluation; returns (value, total_bound).

    `s`, `a` are ctx numbers; `a` > 0 real; the pole term w^(1-s)/(s-1) is
    included (caller must keep s away from 1).  At each shift the
    corrections stop at the first order that meets `tol` and the rounding
    level (`_em_corrections`); the shift doubles until the remainder bound
    meets the tolerance, which with the correction order capped at 30
    happens within a few doublings for any sigma > -55.  The bound adds
    the rounding of the chosen shift (`_rounding_bound`) to the remainder.
    """
    T = _em_shift(s, digits)
    for _ in range(_MAX_SHIFT_ESCALATIONS):
        head, magsum = _em_head(ctx, s, a, T)
        w = T + a
        w_pow_neg_s = w ** (-s)
        pole_part = w * w_pow_neg_s / (s - 1)  # w^(1-s)/(s-1)
        magsum += abs(pole_part) + abs(w_pow_neg_s) / 2
        value, bound, magsum = _em_corrections(
            ctx, s, w, w_pow_neg_s, head + pole_part + w_pow_neg_s / 2, magsum, tol)
        if bound <= tol:
            return value, bound + _rounding_bound(rounding, s, a, w, magsum)
        T *= 2
    raise PrecisionExhausted(
        f"remainder bound {bound:.3e} misses tolerance {tol:.3e} at s={complex(s)}"
    )


def _em_head(ctx, s, a, T):
    """(sum_{n<T} (n+a)^(-s), sum_{n<T} |(n+a)^(-s)|); refuses T past
    _MAX_HEAD_TERMS before summing anything."""
    if T > _MAX_HEAD_TERMS:
        raise PrecisionExhausted(
            f"Euler-Maclaurin head of {T:.3e} terms exceeds the cap of {_MAX_HEAD_TERMS}"
            f" at s={complex(s)}"
        )
    head = ctx.mpc(0)
    magsum = ctx.mpf(0)
    neg_s = -s
    for n in range(T):
        term = (n + a) ** neg_s
        head += term
        magsum += abs(term)
    return head, magsum


@cache
def _bernoulli_ratios(ctx, prec):
    """(b_1, (b_2/b_1, ..., b_{K+1}/b_K)) with b_k = B_2k/(2k)! and K the
    maximal correction order, computed once per context and precision
    `prec` (ctx's current one, the cache key): each ratio is the quotient
    of the two b_k rounded at that precision."""
    b = [ctx.bernoulli(2 * k) / ctx.factorial(2 * k)
         for k in range(1, _MAX_CORRECTION_ORDER + 2)]
    return b[0], tuple(b[k] / b[k - 1] for k in range(1, len(b)))


def _em_corrections(ctx, s, w, w_pow_neg_s, value, magsum, tol, offset=0):
    """Add the correction terms to `value` (and their magnitudes to
    `magsum`); returns (value, remainder_bound, magsum).

    Stops at the first order whose remainder bound is at most min(tol,
    1e-3 * ctx.eps * |offset + value|), a level fixed from the value passed
    in, and at most 1e-3 * ctx.eps * |offset + running value|: the orders
    left out change no stored digit (`offset` is what the caller adds
    `value` to afterwards).  Otherwise keeps the order of smallest bound,
    stopping once the asymptotic series has turned (small w, sigma << 0)."""
    sigma = s.real
    rel = ctx.eps / 1000
    stop = min(ctx.mpf(tol), rel * abs(offset + value))
    # t_k = b_k * (s)_{2k-1} * w^(-s-2k+1), b_k = B_{2k}/(2k)!, built by ratios:
    # t_{k+1} = t_k * [b_{k+1}/b_k] * (s+2k-1)(s+2k) / w^2
    b_1, ratios = _bernoulli_ratios(ctx, ctx.prec)
    t = b_1 * s * w_pow_neg_s / w  # k = 1
    t_abs = abs(t)
    w2 = w * w
    s_odd = s + 1  # s + 2k - 1
    best_value, best_bound = None, ctx.inf
    for j, ratio in zip(range(3, 2 * len(ratios) + 3, 2), ratios):  # j = 2k + 1
        value += t
        magsum += t_abs
        t = t * ratio * s_odd * (s + (j - 1)) / w2  # now t_{k+1}
        t_abs = abs(t)
        s_odd = s + j
        if (d := sigma + j) > 0:
            bound = t_abs * abs(s_odd) / d
            # confirmed against the running value, which the corrections may cancel
            if bound <= stop and bound <= rel * abs(offset + value):
                return value, float(bound), magsum
            if bound < best_bound:
                best_value, best_bound = value, bound
            elif bound > 4 * best_bound:
                break  # asymptotic series turned; stop early
    if best_value is None:  # sigma so negative no valid bound existed
        raise PrecisionExhausted(f"no valid remainder bound for sigma={sigma}")
    return best_value, float(best_bound), magsum


def _rounding_bound(rounding, s, a, w, magsum):
    """Rounding error of terms built from (n+a)^(-s), a <= n+a <= w, whose
    magnitudes add up to `magsum`, in the tier's `rounding` unit.

    Besides the arithmetic around them (8 eps per unit of magsum), each
    term carries the rounding of its phase and modulus, s*log(n+a): about
    |s| * |log(n+a)| units of ctx.eps relative to the term, counted here
    as 4 |s| max(|log a|, log w) units.  In the fp tier (ctx.eps = eps/4)
    that exceeds 8 eps once |s| log w > 8, as at large |t|; in the mp tier
    the 10 guard digits (ctx.eps < 1e-10 eps) keep it below 8 eps up to
    |s| log w of about 10^10."""
    eps, ctx_eps = rounding
    log_span = max(abs(math.log(float(a))), math.log(float(w)))
    phase = 4 * ctx_eps * float(abs(s)) * log_span
    return eps * float(magsum) * max(8, phase)


def _eval_hurwitz(s, x, prof, ctx, rounding):
    """(value, total_bound) for zeta(s, x), x > 0 real, s != 1, at prof's
    tolerance: the one entry to an Euler-Maclaurin evaluation, which
    tracing wraps by name.  `s` (complex) and `x` are numbers of the
    context `ctx` and `rounding` that the public caller's _tier(prof) chose,
    at the precision it set."""
    return _em_core(ctx, rounding, s, x, prof.target_tolerance, prof.working_digits)


def hurwitz_zeta(s, x, prof: PrecisionProfile = EXPLORE) -> EvalResult:
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s), meromorphically continued.

    `x` must be positive (the contract of interest is x in (0, 1], but any
    positive shift evaluates).  Exactly at s = 1 raises PoleAtOne; within
    1e-12 of the pole the result is flagged instead of fabricated.
    """
    if not float(x) > 0:
        raise ValueError("shift x must be positive")
    ctx, rounding, precision = _tier(prof)
    with precision:
        s = _to_point(ctx, s)
        if abs(s - 1) < POLE_TOLERANCE:
            if s == 1:
                raise PoleAtOne("zeta(s, x) has its simple pole at s = 1")
            return EvalResult(None, float("inf"), pole_flag=True)
        return EvalResult(*_eval_hurwitz(s, to_ctx(ctx, x), prof, ctx, rounding))


def f_eval(s, f: PeriodicFunction, alpha, prof: PrecisionProfile = EXPLORE) -> EvalResult:
    """F(s) = sum_{n>=0} f(n) (n+alpha)^(-s) for 0 < alpha <= 1.

    Evaluated per residue class: F = q^(-s) sum_r f(r) zeta(s, (r+alpha)/q).
    At s = 1 the series has a simple pole iff sum_r f(r) != 0; in that case
    an exact hit raises PoleAtOne and a near hit (within 1e-12) comes back
    pole-flagged.  When the period sum vanishes the pole cancels and the
    value is computed stably from the combined pole parts.  Coefficients
    enter from their exact values at working precision.
    """
    if not 0 < float(alpha) <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    ctx, rounding, precision = _tier(prof)
    with precision:
        s = _to_point(ctx, s)
        q = f.period
        # (f(r), |f(r)|, (r+alpha)/q) per class with f(r) != 0, once per f, tier and alpha
        classes = f.cached((type(ctx), ctx.prec, alpha), lambda: tuple(
            (fr, float(abs(fr)), (r + to_ctx(ctx, alpha)) / q)
            for r, fr in enumerate(to_ctx(ctx, v) for v in f.values) if fr != 0))
        if abs(s - 1) < POLE_TOLERANCE:
            if f.coefficient_sum() == (0, 0):  # the pole cancels
                return _f_eval_near_cancelled_pole(ctx, rounding, s, q, classes, prof)
            if s == 1:
                raise PoleAtOne("F(s) has a pole at s = 1 (nonzero period sum)")
            return EvalResult(None, float("inf"), pole_flag=True)
        sub = _shared_profile(prof, len(classes))
        total = ctx.mpc(0)
        bound = 0.0
        for fr, fr_abs, shift in classes:
            val, b = _eval_hurwitz(s, shift, sub, ctx, rounding)
            total += fr * val
            bound += fr_abs * b
        qs = ctx.mpf(q) ** (-s)
        return EvalResult(qs * total, float(abs(qs)) * bound)


@lru_cache(maxsize=256)
def _shared_profile(prof, n):
    """prof with its tolerance shared among n residue classes."""
    return PrecisionProfile(prof.working_digits, prof.target_tolerance / max(1, n))


def _f_eval_near_cancelled_pole(ctx, rounding, s, q, classes, prof):
    # Period sum is zero: the per-class pole parts w_r^(1-s)/(s-1) combine to
    # an analytic function; expand sum_r f(r) w_r^(1-s) around s = 1.  The
    # rest of each class is the Euler-Maclaurin sum at one shared shift T,
    # doubled like _em_core's until the truncation meets the tolerance.
    # Half the tolerance is shared among the classes' corrections, the
    # other half is left to the pole expansion.
    tol = prof.target_tolerance
    qs = ctx.mpf(q) ** (-s)
    abs_qs = float(abs(qs))
    share = tol / (2 * len(classes) * abs_qs)

    def at_shift(T):
        """(value, bound, truncation part of the bound) at shift T."""
        total = ctx.mpc(0)
        bound = 0.0
        truncation = 0.0
        logs = []  # (f(r), |f(r)|, log w_r) per class
        for frc, fr_abs, shift in classes:
            head, magsum = _em_head(ctx, s, shift, T)
            w = T + shift
            w_pow_neg_s = w ** (-s)
            part = head + w_pow_neg_s / 2
            # summed apart from the larger head, the corrections keep their low digits
            corr, corr_bound, magsum = _em_corrections(
                ctx, s, w, w_pow_neg_s, ctx.mpc(0), magsum + abs(w_pow_neg_s) / 2,
                share / fr_abs, offset=part)
            total += frc * (part + corr)
            bound += fr_abs * (corr_bound + _rounding_bound(rounding, s, shift, w, magsum))
            truncation += fr_abs * corr_bound
            logs.append((frc, fr_abs, ctx.log(w)))
        # sum_r f(r) w_r^(1-s)/(s-1) = -sum_{m>=1} u^(m-1)/m! sum_r f(r) L_r^m
        # with u = 1-s, |u| < 1e-12; the orders past m add at most
        # |u|^m sum_r |f(r)| L_r^(m+1).  Orders are added until the whole
        # truncation meets the tolerance.
        u = 1 - s
        pole = ctx.mpc(0)
        coef = 1  # u^(m-1)/m!
        powers = [frc * L for frc, _, L in logs]
        for m in range(1, _MAX_CORRECTION_ORDER + 1):
            pole += coef * sum(powers)
            rest = float(abs(u)) ** m * sum(a * float(L) ** (m + 1) for _, a, L in logs)
            if m >= 2 and abs_qs * (truncation + rest) <= tol:
                break
            coef = coef * u / (m + 1)
            powers = [p * L for p, (_, _, L) in zip(powers, logs)]
        return qs * (total - pole), abs_qs * (bound + rest), abs_qs * (truncation + rest)

    T = _em_shift(s, prof.working_digits)
    for _ in range(_MAX_SHIFT_ESCALATIONS):
        value, bound, truncation = at_shift(T)
        if truncation <= tol:
            return EvalResult(value, bound)
        T *= 2
    raise PrecisionExhausted(
        f"cancelled-pole bound {truncation:.3e} misses tolerance {tol:.3e} at s={complex(s)}"
    )


def abs_coefficient(f: PeriodicFunction, r: int, ctx):
    """|f(r)| as a ctx number, from the exact stored value."""
    re, im = f.exact(r)
    if im == 0:
        return abs(to_ctx(ctx, re))
    return ctx.sqrt(to_ctx(ctx, re * re + im * im))


def abs_tail_with_bound(f: PeriodicFunction, alpha, sigma, N: int, prof: PrecisionProfile = EXPLORE):
    """(value, bound) for sum_{n > N} |f(n)| (n+alpha)^(-sigma), exactly
    rewritten per class as Hurwitz zeta values at real argument: the sum
    over residue classes of class_tail.  Requires sigma > 1."""
    ctx, _, precision = _tier(prof)
    total = ctx.mpf(0)
    bound = 0.0
    with precision:
        for r in range(f.period):
            val, b = class_tail(f, alpha, sigma, N, r, prof)
            total += val
            bound += b
    return total, bound


def class_tail(f: PeriodicFunction, alpha, sigma, N: int, r: int,
               prof: PrecisionProfile = EXPLORE, upper=None):
    """(value, bound) for |f(r)| sum_{n > N, n = r (mod q)} (n+alpha)^(-sigma),
    one Hurwitz zeta value at real argument, zeta(sigma, (n0+alpha)/q) with
    n0 the first class member past N; `upper` is that value's (value, bound)
    when the caller already holds it (class_cut).  Requires sigma > 1."""
    if float(sigma) <= 1:
        raise DivergesAtOne("absolute tail diverges for sigma <= 1")
    ctx, rounding, precision = _tier(prof)
    q = f.period
    with precision:
        a_fr = abs_coefficient(f, r, ctx)
        if a_fr == 0:
            return ctx.mpf(0), 0.0
        sg = to_ctx(ctx, sigma)
        if upper is None:
            upper = _eval_hurwitz(ctx.mpc(sg), (_first_past(N, r, q) + to_ctx(ctx, alpha)) / q,
                                  prof, ctx, rounding)
        val, b = upper
        weight = a_fr * ctx.mpf(q) ** (-sg)
        return weight * val.real, float(weight) * b


def class_partial_sum(f: PeriodicFunction, alpha, sigma, N: int, residue: int,
                      prof: PrecisionProfile = CERTIFY, upper=None):
    """(value, bound) for sum_{0 <= n <= N, n = residue (mod q)} (n+alpha)^(-sigma)
    WITHOUT the f weights, via two Hurwitz zeta evaluations: zeta(sigma,
    (residue+alpha)/q) less the upper end zeta(sigma, (n0+alpha)/q), n0 the
    first class member past N; `upper` is the upper end's (value, bound) when
    the caller already holds it (class_cut)."""
    q = f.period
    r = residue % q
    ctx, rounding, precision = _tier(prof)
    if N < r:  # the class has no member up to N
        return ctx.mpf(0), 0.0
    with precision:
        sg = to_ctx(ctx, sigma)
        a = to_ctx(ctx, alpha)
        qs = ctx.mpf(q) ** (-sg)
        s = ctx.mpc(sg)
        lo, b1 = _eval_hurwitz(s, (r + a) / q, prof, ctx, rounding)
        if upper is None:
            upper = _eval_hurwitz(s, (_first_past(N, r, q) + a) / q, prof, ctx, rounding)
        hi, b2 = upper
        return qs * (lo.real - hi.real), float(qs) * (b1 + b2)


def class_cut(f: PeriodicFunction, alpha, sigma, N: int, residue: int,
              prof: PrecisionProfile = CERTIFY):
    """(class_partial_sum, class_tail) of one residue class cut at N, each a
    (value, bound) pair, from two Hurwitz zeta evaluations instead of three:
    the tail's zeta(sigma, (n0+alpha)/q) is the partial sum's upper end and
    is evaluated once.  Requires sigma > 1."""
    q = f.period
    r = residue % q
    if float(sigma) <= 1:
        raise DivergesAtOne("absolute tail diverges for sigma <= 1")
    ctx, rounding, precision = _tier(prof)
    with precision:
        upper = _eval_hurwitz(ctx.mpc(to_ctx(ctx, sigma)),
                              (_first_past(N, r, q) + to_ctx(ctx, alpha)) / q,
                              prof, ctx, rounding)
        return (class_partial_sum(f, alpha, sigma, N, r, prof, upper),
                class_tail(f, alpha, sigma, N, r, prof, upper))


def _first_past(N, r, q):
    """The smallest n > N with n = r (mod q)."""
    return r + q * ((N - r) // q + 1)
