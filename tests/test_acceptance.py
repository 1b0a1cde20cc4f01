"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion builds a deterministic report dict (no timestamps); the
determinism criterion rebuilds each one from scratch and compares the
canonical JSON byte-for-byte.
"""

import cmath
import json
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from ghzeta.arith import FactorCache, PeriodicFunction
from ghzeta.construction import ConstructionProfile, Unreachable, bohr_solve, run_construction
from ghzeta.density import WindowSpec, density_sweep, private_prime_scan, sweep_results
from ghzeta.ideals import ideal_factorize, norm_value
from ghzeta.structure import (
    IS_PL,
    NOT_PL,
    RESIDUE_OBSTRUCTION,
    decompose,
    detect_pl_form,
    rational_series,
)
from ghzeta.zeros import Rectangle, decomposition_evaluator, zero_search, winding_number
from ghzeta.zeta import f_eval, hurwitz_zeta
from oracles import fixtures, hurwitz_evaluator, prime_ideals_above, recomposed_norm, root_mod_power

ALPHA = fixtures()
ONE = PeriodicFunction(1, (1,))
LOG2_3 = math.log2(3)
T_STEP = 2 * math.pi / math.log(2)

_LINES = []


def _record(num, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {label} ({elapsed:.1f}s / budget {budget:.0f}s)"
    _LINES.append(line)
    print(line, flush=True)


def canon(report) -> str:
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# criterion builders (deterministic report dicts)


def build_criterion1():
    report = {}
    r = hurwitz_zeta(2.0, 1.0)
    report["zeta_2_1_err"] = abs(r.value - math.pi**2 / 6)
    import mpmath

    report["zeta_3_half_err"] = abs(hurwitz_zeta(3.0, 0.5).value - 7 * float(mpmath.zeta(3)))
    report["zeta_0_errs"] = [
        abs(hurwitz_zeta(0.0, k / 10).value - (0.5 - k / 10)) for k in range(1, 10)
    ]
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(20):
        q = rng.randrange(1, 7)
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(q)]
        if all(abs(v) < 1e-9 for v in vals):
            vals[0] = 1.0
        f = PeriodicFunction(q, tuple(vals))
        alpha = rng.uniform(0.05, 1.0)
        for _ in range(5):
            s = complex(rng.uniform(1.5001, 3.5), rng.uniform(-15, 15))
            whole = f_eval(s, f, alpha)
            split = sum(
                f(r_) * complex(hurwitz_zeta(s, (r_ + alpha) / q).value)
                for r_ in range(q)
            ) * q ** (-s)
            worst = max(worst, abs(complex(whole.value) - split))
    report["split_worst"] = worst
    ok = (
        report["zeta_2_1_err"] < 1e-12
        and report["zeta_3_half_err"] < 1e-10
        and max(report["zeta_0_errs"]) < 1e-10
        and worst < 1e-9
    )
    return ok, report


def build_criterion2():
    report = {}
    c1 = detect_pl_form(rational_series(ONE, Fraction(1, 3))[0])
    report["one_third"] = {
        "verdict": c1.verdict, "proof": c1.proof_kind, "obstruction": list(c1.obstruction),
    }
    ok1 = c1.verdict == NOT_PL and c1.proof_kind == RESIDUE_OBSTRUCTION

    b_alt = rational_series(PeriodicFunction(2, (1, -1)), Fraction(1))[0]
    c2 = detect_pl_form(b_alt)
    poly2 = {n: complex(c) for n, c in c2.polynomial_support}
    report["alternating"] = {
        "verdict": c2.verdict,
        "polynomial": {str(n): [z.real, z.imag] for n, z in sorted(poly2.items())},
        "conductor": c2.character.modulus if c2.character else None,
    }
    ok2 = (
        c2.verdict == IS_PL
        and c2.character.modulus == 1
        and poly2 == {1: 1 + 0j, 2: -2 + 0j}
    )

    f_chi = PeriodicFunction(2, (1, -1))
    g = rational_series(f_chi, Fraction(1, 2))[0]
    c3 = detect_pl_form(g)
    poly3 = {n: complex(c) for n, c in c3.polynomial_support}
    report["chi4_half"] = {
        "verdict": c3.verdict,
        "conductor": c3.character.modulus if c3.character else None,
        "polynomial": {str(n): [z.real, z.imag] for n, z in sorted(poly3.items())},
        "prefactor": 2,
    }
    ok3 = c3.verdict == IS_PL and c3.character.modulus == 4 and poly3 == {1: 1 + 0j}

    # reconvolution exactness re-checked from the reported certificates
    def reconvolves(cert, series):
        poly = dict(cert.polynomial_support)
        chi = cert.character
        from ghzeta.cyclo import Cyclo

        for m in range(1, cert.verification_period + 1):
            total = Cyclo.zero()
            for n, c in poly.items():
                if m % n == 0:
                    total = total + c * chi.cyclo(m // n)
            re, im = series.exact(m)
            if not (total == Cyclo.from_rational(re, im)):
                return False
        return True

    ok4 = reconvolves(c2, b_alt) and reconvolves(c3, g)
    report["reconvolution_exact"] = ok4
    return ok1 and ok2 and ok3 and ok4, report


def build_criterion3():
    n_max, p_max = 10**4, 100
    cache = FactorCache()
    table = {}
    recompose_ok = True
    for n in range(n_max + 1):
        rec = ideal_factorize(ALPHA, n, cache)
        table[n] = dict(rec.admissible_part)
        if recomposed_norm(rec) != norm_value(ALPHA, n):
            recompose_ok = False

    law_ok = True
    keys_checked = 0
    for p in range(3, p_max + 1):
        from ghzeta.arith import is_prime
        from ghzeta.ideals import is_admissible_prime

        if not is_prime(p) or not is_admissible_prime(ALPHA, p):
            continue
        for key in prime_ideals_above(ALPHA, p):
            keys_checked += 1
            v = 1
            while key.p**v <= n_max:
                rv = root_mod_power(ALPHA, key, v)
                for n in range(n_max + 1):
                    if (table[n].get(key, 0) >= v) != (n % key.p**v == rv):
                        law_ok = False
                v += 1

    inert_ok = True
    inert_primes = []
    for p in range(3, p_max + 1):
        from ghzeta.arith import is_prime
        from ghzeta.ideals import is_admissible_prime

        if not is_prime(p) or not is_admissible_prime(ALPHA, p):
            continue
        if not prime_ideals_above(ALPHA, p):
            inert_primes.append(p)
            for n in range(n_max + 1):
                if norm_value(ALPHA, n) % p == 0:
                    inert_ok = False
    report = {
        "n_max": n_max,
        "recomposition_ok": recompose_ok,
        "root_class_law_ok": law_ok,
        "prime_ideals_checked": keys_checked,
        "inert_primes": inert_primes,
        "inert_never_divide": inert_ok,
    }
    return recompose_ok and law_ok and inert_ok and 5 in inert_primes, report


def build_criterion4():
    n_list = [round(10 ** (7 + 2 * i / 19)) for i in range(20)]
    cache = FactorCache()
    report = {"theta": "1/1000000", "window_starts": n_list, "sweeps": {}}
    ok = True
    sound = True
    for q in (1, 2, 3):
        reports = density_sweep(ALPHA, n_list, Fraction(1, 10**6), q, cache)
        for rep in reports:
            for n, key in rep.eligible:
                hits = list(range(key.root, rep.window.end + 1, key.p))
                if hits != [n]:
                    sound = False
        js = sweep_results(q, Fraction(1, 10**6), [r.to_json() for r in reports])
        report["sweeps"][str(q)] = {
            "mean_fraction": js["mean_fraction"],
            "pass_fraction": js["pass_fraction"],
            "flagged": js["flagged"],
            "windows": [
                {
                    "N": r.window.N, "b": r.window.b, "members": r.members,
                    "count_A": r.count_A, "fraction": r.fraction,
                    "smooth": r.smooth_count, "rho": r.rho,
                }
                for r in reports
            ],
            "dickman_reference": js["dickman_reference"],
        }
        if js["mean_fraction"] < 0.54:
            ok = False
    report["eligible_all_sound"] = sound
    return ok and sound, report


def build_criterion5():
    cache = FactorCache()
    profile = ConstructionProfile.desk(1)
    run_report, state, log_rows = run_construction(ONE, ALPHA, profile, 10, cache)
    stages_ok = all(s["induction_ok"] for s in run_report["stages"])
    classes_ok = all(c["class_bound_ok"] for s in run_report["stages"] for c in s["classes"])
    unimodular_ok = True
    with mp.workdps(60):
        for p, root, re_s, im_s in log_rows:
            z = mp.mpc(mp.mpf(re_s), mp.mpf(im_s))
            if abs(abs(z) - 1) > 1e-14:
                unimodular_ok = False
    recomputation_ok = run_report["recomputation_delta"] < 1e-40

    # canonical-profile single-stage window measurement
    w = WindowSpec(10**7, Fraction(1, 10**6), 1, 0)
    scan = private_prime_scan(ALPHA, w, cache=cache)
    canonical_check = {
        "N1": 10**7,
        "M": w.M,
        "count_A": scan.count_A,
        "requirement": 5,
        "meets_requirement": scan.count_A >= 5,
    }

    report = {
        "sigma_certificate": run_report["sigma_certificate"],
        "stages": run_report["stages"],
        "final_sum_abs": run_report["final_sum_abs"],
        "envelope_ok": run_report["envelope_ok"],
        "recomputation_delta": run_report["recomputation_delta"],
        "phi_nontrivial": run_report["phi_nontrivial"],
        "phi_total": run_report["phi_total"],
        "canonical_window": canonical_check,
    }
    ok = (
        run_report["sigma_certificate"]["certified"]
        and stages_ok
        and classes_ok
        and unimodular_ok
        and recomputation_ok
        and run_report["envelope_ok"]
    )
    return ok, report


def build_criterion6():
    report = {}
    series = rational_series(PeriodicFunction(2, (1, -2)), Fraction(1))[0]
    F = decomposition_evaluator(decompose(series))
    res = zero_search(F, Rectangle(1.3, 1.9, 0, 30), (4, 16))
    expected_ts = [0.0, T_STEP, 2 * T_STEP, 3 * T_STEP]
    zeros_ok = len(res.zeros) == 4 and all(
        abs(z.real - LOG2_3) < 1e-6 and abs(z.imag - t_exp) < 1e-5
        for z, t_exp in zip(res.zeros, expected_ts)
    )
    report["fixture_zeros"] = [[z.real, z.imag] for z in res.zeros]
    report["fixture_zeros_ok"] = zeros_ok

    wind = winding_number(hurwitz_evaluator(1.0), Rectangle(1.2, 2.0, 0.0, 30.0))
    report["zeta_winding"] = wind.winding
    zeta_ok = wind.winding == 0

    rng = random.Random(20260809)
    worst_resid = 0.0
    feasible_ok = True
    for _ in range(1000):
        k = rng.randrange(2, 13)
        radii = [rng.uniform(0.05, 4.0) for _ in range(k)]
        total = sum(radii)
        inner = max(0.0, 2 * max(radii) - total)
        mag = rng.uniform(inner, total)
        ang = rng.uniform(0, 2 * math.pi)
        z = mag * cmath.exp(1j * ang)
        try:
            units = bohr_solve(radii, z)
        except Unreachable:
            feasible_ok = False
            continue
        resid = abs(sum(r * u for r, u in zip(radii, units)) - z)
        worst_resid = max(worst_resid, float(resid) / total)
    rejected = 0
    for _ in range(200):
        k = rng.randrange(2, 13)
        radii = [rng.uniform(0.05, 4.0) for _ in range(k)]
        total = sum(radii)
        inner = max(0.0, 2 * max(radii) - total)
        if rng.random() < 0.5 or inner <= 1e-9:
            mag = total * rng.uniform(1.001, 2.0)
        else:
            mag = inner * rng.uniform(0.0, 0.999) if inner > 0 else total * 1.5
        z = mag * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        try:
            bohr_solve(radii, z)
        except Unreachable:
            rejected += 1
    bohr_ok = feasible_ok and worst_resid < 1e-10 and rejected == 200
    report["bohr_worst_relative_residual"] = worst_resid
    report["bohr_infeasible_rejected"] = rejected
    return zeros_ok and zeta_ok and bohr_ok, report


# ---------------------------------------------------------------------------
# the tests


@pytest.fixture(scope="module")
def crit1():
    t0 = time.perf_counter()
    ok, report = build_criterion1()
    return ok, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit2():
    t0 = time.perf_counter()
    ok, report = build_criterion2()
    return ok, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit3():
    t0 = time.perf_counter()
    ok, report = build_criterion3()
    return ok, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit4():
    t0 = time.perf_counter()
    ok, report = build_criterion4()
    return ok, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit5():
    t0 = time.perf_counter()
    ok, report = build_criterion5()
    return ok, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit6():
    t0 = time.perf_counter()
    ok, report = build_criterion6()
    return ok, report, time.perf_counter() - t0


def test_criterion_1_evaluation_identities(crit1):
    ok, report, dt = crit1
    _record(1, "evaluation identities", ok and dt < 10, dt, 10)
    assert ok, report
    assert dt < 10


def test_criterion_2_structure_decisions(crit2):
    ok, report, dt = crit2
    _record(2, "structure decisions", ok and dt < 30, dt, 30)
    assert ok, report
    assert dt < 30


def test_criterion_3_ideal_arithmetic(crit3):
    ok, report, dt = crit3
    _record(3, "ideal arithmetic", ok and dt < 60, dt, 60)
    assert ok, report
    assert dt < 60


def test_criterion_4_density_at_canonical_scale(crit4):
    ok, report, dt = crit4
    _record(4, "density at canonical scale", ok and dt < 600, dt, 600)
    assert ok, {q: s["mean_fraction"] for q, s in report["sweeps"].items()}
    assert dt < 600


def test_criterion_5_construction_contraction(crit5):
    ok, report, dt = crit5
    _record(5, "construction contraction", ok and dt < 900, dt, 900)
    assert ok, report["sigma_certificate"]
    assert report["canonical_window"]["count_A"] >= 0  # measured and recorded
    assert dt < 900


def test_criterion_6_zero_location(crit6):
    ok, report, dt = crit6
    _record(6, "zero location", ok and dt < 300, dt, 300)
    assert ok, report
    assert dt < 300


def test_criterion_7_determinism(crit2, crit3, crit4, crit5, crit6):
    t0 = time.perf_counter()
    builders = {
        2: (build_criterion2, crit2),
        3: (build_criterion3, crit3),
        4: (build_criterion4, crit4),
        5: (build_criterion5, crit5),
        6: (build_criterion6, crit6),
    }
    ok = True
    detail = {}
    for num, (builder, first) in builders.items():
        _, report2 = builder()
        same = canon(first[1]) == canon(report2)
        detail[num] = same
        ok = ok and same
    dt = time.perf_counter() - t0
    _record(7, "determinism of criteria 2-6", ok, dt, 1800)
    assert ok, detail


def teardown_module(module):
    print()
    for line in _LINES:
        print(line)
