import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from ghzeta import zeta
from ghzeta.arith import PeriodicFunction
from ghzeta.zeta import (
    CERTIFY,
    DivergesAtOne,
    EXPLORE,
    PoleAtOne,
    PrecisionExhausted,
    EvalResult,
    PrecisionProfile,
    abs_tail_with_bound,
    class_cut,
    class_partial_sum,
    class_tail,
    f_eval,
    hurwitz_zeta,
)

ONE = PeriodicFunction(1, (1,))
THIRD = Fraction(1, 3)


def direct_sum_bracket(sigma, x, n_terms=20000):
    """Independent oracle for real sigma > 1: truncated sum plus integral
    bounds bracketing the tail."""
    partial = math.fsum((n + x) ** (-sigma) for n in range(n_terms))
    hi = (n_terms - 1 + x) ** (1 - sigma) / (sigma - 1)  # integral from n_terms-1
    lo = (n_terms + x) ** (1 - sigma) / (sigma - 1)
    return partial + lo, partial + hi


def test_pi_squared_over_six():
    res = hurwitz_zeta(2.0, 1.0)
    assert abs(res.value - math.pi**2 / 6) < 1e-12
    lo, hi = direct_sum_bracket(2.0, 1.0)
    assert lo <= res.value.real <= hi


def test_half_shift_identity_at_3():
    res = hurwitz_zeta(3.0, 0.5)
    zeta3 = float(mpmath.zeta(3))
    assert abs(res.value - (2**3 - 1) * zeta3) < 1e-10


def test_zero_argument_closed_form():
    for x in [k / 10 for k in range(1, 10)]:
        res = hurwitz_zeta(0.0, x)
        assert abs(res.value - (0.5 - x)) < 1e-10


def test_direct_sum_brackets_euler_maclaurin():
    for sigma in (2.0, 2.5, 3.0, 4.0):
        for x in (0.2, 0.5, 1.0):
            lo, hi = direct_sum_bracket(sigma, x)
            val = hurwitz_zeta(sigma, x).value.real
            assert lo - 1e-12 <= val <= hi + 1e-12


def test_identity_grid():
    for sigma in (-1.0, 0.0, 1.0, 2.0, 3.0):
        for t in (0.0, 5.0, 10.0, 15.0, 20.0):
            s = complex(sigma, t)
            if s == 1:
                continue
            lhs = hurwitz_zeta(s, 0.5).value
            rhs = (2**s - 1) * hurwitz_zeta(s, 1.0).value
            assert abs(lhs - rhs) < 1e-10


def _baseline_points(rng, n):
    """n points (s, x) over the ranges the float-tier bounds were sized on:
    sigma in [-3, 6], t = 0 or up to 60 or up to 2000, x in [0.01, 1]."""
    points = []
    for _ in range(n):
        t = rng.choice((0.0, rng.uniform(0, 60), rng.uniform(0, 2000)))
        points.append((complex(rng.uniform(-3, 6), t), rng.uniform(0.01, 1)))
    return points


def test_error_bound_honest_against_mpmath():
    rng = random.Random(3)
    for prof, n in ((EXPLORE, 300), (CERTIFY, 20)):
        for s, x in _baseline_points(rng, n):
            res = hurwitz_zeta(s, x, prof)
            with mp.workdps(70):
                err = abs(mp.mpc(res.value) - mp.zeta(mp.mpc(s), mp.mpf(x)))
                assert err <= res.abs_error_bound, (prof, s, x)


def test_stop_level_changes_no_stored_digit(monkeypatch):
    # the orders the stop level leaves out change no stored digit: every
    # value matches, to 1 ulp per component, the same evaluation run to its
    # last valid order (a zero stop level), here and at cancelled poles
    classes = [PeriodicFunction(2, (1, -1)), PeriodicFunction(3, (1, 1, -2)),
               PeriodicFunction(4, (THIRD, -1, 2, -THIRD - 1))]
    # on the real axis at sigma < -1.8 the corrections can cancel most of the
    # value before them, so a level fixed from that value alone stops early
    cancelling = [(-2.08992547722826, 0.01750254431989895),
                  (-2.3924915321152325, 0.09062658490216376),
                  (-2.940811743756549, 0.731477436442133),
                  (-2.87060600025038, 0.814264052247472)]

    def values():
        points = _baseline_points(random.Random(17), 200) + cancelling
        out = [hurwitz_zeta(s, x).value for s, x in points]
        for s in (1, 1 + 1e-13j, 1 + 4e-13, 1 - 3e-13j):
            out += [f_eval(s, f, alpha).value for f in classes for alpha in (1, 0.3)]
        return out

    stopped = values()
    corrections = zeta._em_corrections
    monkeypatch.setattr(zeta, "_em_corrections",
                        lambda *args, offset=0: corrections(*args[:6], 0.0, offset=offset))
    for got, full in zip(stopped, values(), strict=True):
        for a, b in ((got.real, full.real), (got.imag, full.imag)):
            assert abs(a - b) <= math.ulp(b), (got, full)


def test_high_precision_tier():
    res = hurwitz_zeta(2, 1, CERTIFY)
    with mp.workdps(60):
        assert abs(res.value - mp.zeta(2)) < mp.mpf(10) ** -45
    assert res.abs_error_bound < 1e-40


def test_pole_handling():
    with pytest.raises(PoleAtOne):
        hurwitz_zeta(1.0, 0.5)
    flagged = hurwitz_zeta(1.0 + 1e-14j, 0.5)
    assert flagged.pole_flag
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)


def test_f_eval_reduces_to_hurwitz():
    for s in (2.0, 0.5 + 3j, -0.5 + 11j):
        a = f_eval(s, ONE, 0.7)
        b = hurwitz_zeta(s, 0.7)
        assert abs(a.value - b.value) <= a.abs_error_bound + b.abs_error_bound + 1e-14


def test_f_eval_alternating_examples():
    f = PeriodicFunction(2, (1, -1))
    res = f_eval(2.0, f, 1.0)
    assert abs(res.value - math.pi**2 / 12) < 1e-12
    f2 = PeriodicFunction(2, (1, -2))
    res2 = f_eval(2.0, f2, 1.0)
    assert abs(res2.value - math.pi**2 / 24) < 1e-12


def test_f_eval_direct_sum_agreement():
    rng = random.Random(11)
    for _ in range(10):
        q = rng.randrange(1, 7)
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(q)]
        if all(abs(v) < 1e-9 for v in vals):
            vals[0] = 1.0
        f = PeriodicFunction(q, tuple(vals))
        alpha = rng.uniform(0.05, 1.0)
        sigma = rng.uniform(1.6, 3.0)
        t = rng.uniform(0, 10)
        s = complex(sigma, t)
        res = f_eval(s, f, alpha)
        direct = sum(f(n) * (n + alpha) ** (-s) for n in range(60000))
        tail_cap = sum(abs(f(r)) for r in range(q)) / q * (60000 + alpha) ** (1 - sigma) / (sigma - 1) * q
        assert abs(res.value - direct) < 1e-10 + tail_cap


def test_split_consistency_within_combined_bounds():
    rng = random.Random(29)
    for _ in range(12):
        q = rng.randrange(2, 7)
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(q)]
        vals[0] = vals[0] or 1.0
        f = PeriodicFunction(q, tuple(vals))
        alpha = rng.uniform(0.1, 1.0)
        s = complex(rng.uniform(1.6, 3.0), rng.uniform(-12, 12))
        whole = f_eval(s, f, alpha)
        composed = 0j
        budget = whole.abs_error_bound
        scale = abs(q ** (-s))
        for r in range(q):
            if f(r) == 0:
                continue
            part = hurwitz_zeta(s, (r + alpha) / q)
            composed += f(r) * complex(part.value)
            budget += abs(f(r)) * part.abs_error_bound * scale
        composed *= q ** (-s)
        assert abs(complex(whole.value) - composed) <= budget + 1e-13 * (1 + abs(composed))


def test_f_eval_pole_cases():
    with pytest.raises(PoleAtOne):
        f_eval(1.0 + 0j, ONE, 1.0)
    flagged = f_eval(1.0 + 1e-13j, ONE, 0.5)
    assert flagged.pole_flag
    # cancelled pole: alternating coefficients are entire at s = 1
    f = PeriodicFunction(2, (1, -1))
    res = f_eval(1.0 + 0j, f, 1.0)
    assert not res.pole_flag
    assert abs(res.value - math.log(2)) < 1e-12


@pytest.mark.parametrize("prof", [EXPLORE, PrecisionProfile(30, 1e-25)])
@pytest.mark.parametrize("s", [1, 1 + 1e-13j, 1 + 4e-13, 1 - 3e-13j])
def test_cancelled_pole_matches_eta(prof, s):
    # f = (1, -1) at alpha = 1 is Dirichlet's eta, whose pole at s = 1 cancels
    res = f_eval(s, PeriodicFunction(2, (1, -1)), 1, prof)
    assert not res.pole_flag
    assert isinstance(res.abs_error_bound, float)
    with mp.workdps(40):
        err = abs(mp.mpc(res.value) - mpmath.altzeta(mp.mpc(s)))
    rounding = 4e-16 if prof.uses_floats else 0.0  # final float operations
    assert err <= res.abs_error_bound + rounding


@pytest.mark.parametrize("prof, s", [(CERTIFY, 1 + 1e-13j), (CERTIFY, 1 + 9e-13),
                                     (PrecisionProfile(100, 1e-95), 1)])
def test_cancelled_pole_meets_tolerance(prof, s):
    # off s = 1 the pole expansion needs orders past u^1, and at 100 digits
    # the shift must grow before the corrections reach the tolerance
    res = f_eval(s, PeriodicFunction(2, (1, -1)), 1, prof)
    assert res.abs_error_bound <= prof.target_tolerance
    with mp.workdps(prof.working_digits + 10):
        err = abs(mp.mpc(res.value) - mpmath.altzeta(mp.mpc(s)))
    assert err <= res.abs_error_bound


def test_cancelled_pole_raises_when_tolerance_missed(monkeypatch):
    # without shift doubling 100 digits stop at a bound of 6e-72
    monkeypatch.setattr(zeta, "_MAX_SHIFT_ESCALATIONS", 1)
    with pytest.raises(PrecisionExhausted):
        f_eval(1, PeriodicFunction(2, (1, -1)), 1, PrecisionProfile(100, 1e-95))


def test_class_tails_sum_to_abs_tail():
    f = PeriodicFunction(3, (1, -2, 0))
    for prof in (EXPLORE, CERTIFY):
        parts = [class_tail(f, 0.3, 1.5, 7, r, prof) for r in range(3)]
        total, bound = abs_tail_with_bound(f, 0.3, 1.5, 7, prof)
        assert abs(sum(v for v, _ in parts) - total) <= 1e-14 * total
        assert sum(b for _, b in parts) == pytest.approx(bound)
    val, bound = class_tail(f, 0.3, 2.5, 7, 1, EXPLORE)
    direct = 2 * math.fsum((n + 0.3) ** -2.5 for n in range(10, 10**6, 3))
    assert abs(val - direct) < 1e-9 + bound
    assert class_tail(f, 0.3, 2.5, 7, 2, EXPLORE) == (0.0, 0.0)
    with pytest.raises(DivergesAtOne):
        class_tail(f, 0.3, 1.0, 7, 0, EXPLORE)


def test_abs_tail_examples():
    assert abs(abs_tail_with_bound(ONE, 1.0, 2.0, 0)[0] - (math.pi**2 / 6 - 1)) < 1e-12
    # single-class split equals the lone Hurwitz tail
    f = PeriodicFunction(2, (0, 2))
    t = abs_tail_with_bound(f, 0.5, 2.0, 4)[0]
    direct = 2 * sum((n + 0.5) ** -2.0 for n in range(5, 200001) if n % 2 == 1)
    assert abs(t - direct) < 1e-4
    big = abs_tail_with_bound(ONE, 1.0, 1.0001, 10**7)[0]
    approx = (10**7) ** (-0.0001) / 0.0001
    assert abs(big - approx) / approx < 0.05


def test_abs_tail_divergence_monotone():
    for f in (ONE, PeriodicFunction(3, (1, 0, -2)), PeriodicFunction(2, (0.5, 0.25))):
        prev = None
        for k in range(1, 7):
            t = abs_tail_with_bound(f, 0.37, 1 + 10.0**-k, 0)[0]
            if prev is not None:
                assert t > prev
            prev = t
    with pytest.raises(DivergesAtOne):
        abs_tail_with_bound(ONE, 1.0, 1.0, 0)


def test_class_cut_is_partial_sum_and_tail():
    f = PeriodicFunction(3, (1, -2, 0))
    for prof in (EXPLORE, CERTIFY):
        for N, r in ((7, 0), (7, 2), (1, 2)):
            assert class_cut(f, 0.3, 1.5, N, r, prof) == (
                class_partial_sum(f, 0.3, 1.5, N, r, prof), class_tail(f, 0.3, 1.5, N, r, prof))
    with pytest.raises(DivergesAtOne):
        class_cut(f, 0.3, 1.0, 7, 0, EXPLORE)


def test_class_partial_sum_matches_direct():
    f = PeriodicFunction(3, (1, 1, 1))
    val, bound = class_partial_sum(f, 0.3, 1.7, 100, 2, EXPLORE)
    direct = sum((n + 0.3) ** -1.7 for n in range(0, 101) if n % 3 == 2)
    assert abs(val - direct) < 1e-10 + bound


def test_large_t_against_mpmath():
    s = complex(1.5, 180.0)
    r = hurwitz_zeta(s, 0.37)
    ref = complex(mpmath.zeta(mpmath.mpc(1.5, 180.0), 0.37))
    assert abs(r.value - ref) <= r.abs_error_bound + 1e-12 * abs(ref)


def test_f_eval_high_precision_complex():
    from fractions import Fraction

    f = PeriodicFunction(3, (1, -1, 2))
    prof = PrecisionProfile(40, 1e-30)
    with mp.workdps(60):
        s = mp.mpc("2.2", "7.5")
        res = f_eval(s, f, Fraction(2, 7), prof)
        alpha = mp.mpf(2) / 7
        direct = mp.mpf(3) ** (-s) * sum(
            f(r) * mp.zeta(s, (r + alpha) / 3) for r in range(3)
        )
        assert abs(res.value - direct) < mp.mpf(10) ** -38


def test_precision_profile_validation():
    with pytest.raises(ValueError):
        PrecisionProfile(10, 1e-12)
    with pytest.raises(ValueError):
        PrecisionProfile(15, 1e-30)
    prof = PrecisionProfile(15, 1e-12)
    assert prof.uses_floats
    assert not CERTIFY.uses_floats


def test_f_eval_non_dyadic_coefficient_at_working_precision():
    # f = (1/3, 1) at alpha = 1: F(2) = (zeta(2, 1/2)/3 + zeta(2)) / 4 = pi^2/12;
    # a coefficient rounded through a float would be off by about 2e-17
    res = f_eval(2, PeriodicFunction(2, (THIRD, 1)), Fraction(1), PrecisionProfile(40, 1e-35))
    with mp.workdps(60):
        ref = (mp.zeta(2, mp.mpf(1) / 2) / 3 + mp.zeta(2)) / 4
        assert abs(res.value - ref) <= res.abs_error_bound


def test_cancelled_pole_non_dyadic_coefficients():
    # f = (1/3, -1/3) at alpha = 1 is eta/3, which is ln(2)/3 at s = 1
    res = f_eval(1, PeriodicFunction(2, (THIRD, -THIRD)), 1, PrecisionProfile(30, 1e-25))
    with mp.workdps(40):
        assert abs(res.value - mp.log(2) / 3) <= res.abs_error_bound


PARITY_F = PeriodicFunction(3, (THIRD, Fraction(-2, 7), Fraction(5, 11)))


@pytest.mark.parametrize("alpha", [Fraction(2, 7), 0.37, 1])
@pytest.mark.parametrize("s, sigma", [(complex(1.7, 4.2), 1.7), (Fraction(7, 3), Fraction(7, 3)),
                                      (complex(-0.5, 11), 2.2)])
def test_tiers_agree_within_float_bound(alpha, s, sigma):
    def pair(result):
        return (result.value, result.abs_error_bound) if isinstance(result, EvalResult) else result

    calls = [
        lambda prof: pair(hurwitz_zeta(s, alpha, prof)),
        lambda prof: pair(f_eval(s, PARITY_F, alpha, prof)),
        lambda prof: class_tail(PARITY_F, alpha, sigma, 20, 1, prof),
        lambda prof: class_partial_sum(PARITY_F, alpha, sigma, 20, 2, prof),
        lambda prof: abs_tail_with_bound(PARITY_F, alpha, sigma, 20, prof),
    ]
    for call in calls:
        low, low_bound = call(EXPLORE)
        high, high_bound = call(PrecisionProfile(30, 1e-25))
        with mp.workdps(40):
            assert abs(mp.mpc(low) - mp.mpc(high)) <= low_bound + high_bound


# sigma in [-3, 4], t <= 200, x in [0.02, 2], plus a point where the phase
# rounding of (n+a)^(-s) at |t| ~ 187 exceeded the former 8 eps magsum
_rng = random.Random(7)
HONESTY_GRID = [(_rng.uniform(-3, 4), _rng.uniform(0, 200), _rng.uniform(0.02, 2))
                for _ in range(60)]
HONESTY_GRID.append((3.4623916867085445, 187.13827714302673, 0.10454476984765128))


@pytest.mark.parametrize("prof", [EXPLORE, PrecisionProfile(30, 1e-25), CERTIFY])
def test_error_bound_strictly_honest_on_grid(prof):
    for sigma, t, x in HONESTY_GRID:
        res = hurwitz_zeta(complex(sigma, t), x, prof)
        with mp.workdps(70):
            ref = mp.zeta(mp.mpc(sigma, t), mp.mpf(x))
            assert abs(mp.mpc(res.value) - ref) <= res.abs_error_bound, (sigma, t, x)


def test_bernoulli_table_built_once(monkeypatch):
    calls = []

    def counted(ctx, name):
        inner = getattr(ctx, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(ctx, name, wrapper)

    for ctx in (mpmath.fp, mp):
        counted(ctx, "factorial")
        counted(ctx, "bernoulli")
    eta = PeriodicFunction(2, (1, -1))
    profiles = (EXPLORE, PrecisionProfile(30, 1e-25), CERTIFY)
    for prof in profiles:  # one warm-up evaluation per tier and precision
        hurwitz_zeta(2.5, 0.3, prof)
    calls.clear()
    for prof in profiles:
        hurwitz_zeta(complex(0.5, 14), 0.3, prof)
        f_eval(complex(1.5, 3), PARITY_F, Fraction(2, 7), prof)
        f_eval(1, eta, 1, prof)  # cancelled pole
    assert calls == []


P30 = PrecisionProfile(30, 1e-25)
RECORDED_BOUNDS = [  # (profile, s, x, abs_error_bound.hex()) recorded before the tier carried ctx.eps/eps
    (EXPLORE, 2, 0.3, "0x1.87da5be75bbdap-44"),
    (EXPLORE, complex(0.5, 14.134725), 1, "0x1.0c3e8e0fef6a9p-42"),
    (EXPLORE, complex(3, -2), Fraction(3, 4), "0x1.6b1364aed596ap-46"),
    (EXPLORE, complex(1.5, 100), 0.2, "0x1.7de36fbef3374p-38"),
    (CERTIFY, 2, 0.3, "0x1.6e8db630b6307p-160"),
    (CERTIFY, complex(0.5, 14.134725), 1, "0x1.04f400fe417fap-149"),
    (CERTIFY, complex(3, -2), Fraction(3, 4), "0x1.3d8142bca46d0p-162"),
    (CERTIFY, complex(1.5, 100), 0.2, "0x1.8e61339bb7845p-160"),
    (P30, 2, 0.3, "0x1.f0bb22f5a37c0p-94"),
    (P30, complex(1.5, 100), 0.2, "0x1.0cf69a4892b9bp-93"),
]
RECORDED_F_BOUNDS = [  # (profile, f values, alpha, s, abs_error_bound.hex()), as above
    (EXPLORE, (1, -2), 1, complex(1.3, 5), "0x1.67a7e36cf71cdp-45"),
    (EXPLORE, (1, -1), Fraction(1, 2), complex(1 + 1e-13, 0), "0x1.407f3d371fa79p-45"),
    (EXPLORE, (THIRD, 0, -2), 0.7, complex(2, 40), "0x1.53db3aeefe0eap-43"),
    (CERTIFY, (1, -2), 1, complex(1.3, 5), "0x1.efad20656c11bp-162"),
    (CERTIFY, (1, -1), Fraction(1, 2), complex(1 + 1e-13, 0), "0x1.7b81c5ff3a779p-161"),
    (CERTIFY, (THIRD, 0, -2), 0.7, complex(2, 40), "0x1.e3260fa4145dcp-155"),
    (P30, (1, -1), Fraction(1, 2), complex(1 + 1e-13, 0), "0x1.b5e2ef9af1b2bp-95"),
]


@pytest.mark.parametrize("prof, s, x, bound", RECORDED_BOUNDS)
def test_hurwitz_bound_bit_identical_to_record(prof, s, x, bound):
    assert hurwitz_zeta(s, x, prof).abs_error_bound == float.fromhex(bound)


@pytest.mark.parametrize("prof, values, alpha, s, bound", RECORDED_F_BOUNDS)
def test_f_eval_bound_bit_identical_to_record(prof, values, alpha, s, bound):
    f = PeriodicFunction(len(values), values)
    assert f_eval(s, f, alpha, prof).abs_error_bound == float.fromhex(bound)


@pytest.mark.parametrize("prof", [EXPLORE, P30, CERTIFY], ids=["fp", "mp30", "mp50"])
def test_rounding_bound_per_tier_constant(prof):
    # the tier's ctx.eps/eps gives the bound float(ctx.eps / eps) gave per
    # call, also where the phase term wins (|s| log w past 8 / (4 ctx.eps/eps))
    ctx, rounding, precision = zeta._tier(prof)
    assert zeta._tier(prof)[1] is rounding  # built once per tier and digits
    with precision:
        for s in (ctx.mpc(2, 0), ctx.mpc(0.5, 1e4), ctx.mpc(3, 1e13)):
            a, w, magsum = ctx.mpf(0.3), ctx.mpf(40), ctx.mpf(7)
            eps = rounding.eps
            log_span = max(abs(math.log(float(a))), math.log(float(w)))
            old = eps * float(magsum) * max(8, 4 * float(ctx.eps / eps) * float(abs(s)) * log_span)
            assert zeta._rounding_bound(rounding, s, a, w, magsum) == old
