import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st
from mpmath import mp

from ghzeta.arith import PeriodicFunction
from ghzeta.cyclo import Cyclo
from ghzeta.structure import (
    IS_PL,
    MULTIPLE_CHARACTERS,
    NOT_PL,
    RESIDUE_OBSTRUCTION,
    UnsupportedAlpha,
    VERDICT_INFINITE,
    VERDICT_ZERO_FREE_FORM,
    VERDICT_ZEROS_FROM_POLY,
    decompose,
    detect_pl_form,
    nonvanishing_verdict,
    rational_series,
)
from ghzeta.zeta import f_eval
from oracles import fixtures

ONE = PeriodicFunction(1, (1,))


def series_coefficient(dec, m):
    return complex(dec.coefficient(m))


def test_rational_series_domain():
    for alpha in (0, Fraction(0), Fraction(5, 3), Fraction(-1, 2)):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            rational_series(ONE, alpha)
    for alpha in (0.5, fixtures()):
        with pytest.raises(UnsupportedAlpha, match="structure decisions need a rational alpha"):
            rational_series(ONE, alpha)
    f = PeriodicFunction(2, (1, -2))
    assert rational_series(f, 1) == rational_series(f, Fraction(1))


def test_lift_examples():
    g = rational_series(ONE, Fraction(1, 3))[0]
    assert [complex(*map(float, g.exact(m))) for m in range(3)] == [0, 1, 0]
    g2 = rational_series(PeriodicFunction(2, (1, 2)), Fraction(1, 2))[0]
    vals = [complex(*map(float, g2.exact(m))) for m in range(4)]
    assert vals == [0, 1, 0, 2]
    g3 = rational_series(ONE, Fraction(1, 2))[0]
    assert [complex(*map(float, g3.exact(m))) for m in range(2)] == [0, 1]

    # the definition: c(b n + a) = f(n), and c vanishes off the class a mod b
    f = PeriodicFunction(3, (2, Fraction(-1, 2), 1j))
    q = f.period
    for alpha in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)):
        a, b = alpha.numerator, alpha.denominator
        c, prefactor = rational_series(f, alpha)
        assert prefactor == b and c.period == b * q
        for n in range(3 * q):
            assert c.exact(b * n + a) == f.exact(n)
        for m in range(3 * b * q):
            if m % b != a % b:
                assert c.exact(m) == (0, 0)


def test_lift_numeric_identity():
    # b^s * sum c(m) m^-s must reproduce F(s, f, a/b) at s = 3; the lifted
    # sum over the classes r mod P = b q is P^-s sum_r c(r) zeta(s, r/P)
    rng = random.Random(5)
    for a, b, q in ((1, 3, 1), (1, 2, 2), (2, 5, 3), (1, 1, 3)):
        vals = tuple(rng.randrange(-3, 4) or 1 for _ in range(q))
        f = PeriodicFunction(q, vals)
        c, prefactor = rational_series(f, Fraction(a, b))
        P = c.period
        direct = f_eval(3.0, f, a / b)
        lifted = prefactor**3.0 * P**-3.0 * math.fsum(
            c(r).real * float(mp.zeta(3, mp.mpf(r) / P)) for r in range(1, P + 1)
        )
        assert abs(direct.value - lifted) < 1e-10


def test_decompose_one_third():
    dec = decompose(rational_series(ONE, Fraction(1, 3))[0])
    by_conductor = {chi.modulus: dict(poly) for chi, poly in dec.terms}
    assert sorted(by_conductor) == [1, 3]
    assert by_conductor[1][1] == Cyclo.from_rational(Fraction(1, 2))
    assert by_conductor[1][3] == Cyclo.from_rational(Fraction(-1, 2))
    assert by_conductor[3][1] == Cyclo.from_rational(Fraction(1, 2))
    assert dec.verified


def test_decompose_primitive_character_series():
    # coefficients equal to the primitive character mod 4: single L term
    f = PeriodicFunction(2, (1, -1))
    g = rational_series(f, Fraction(1, 2))[0]
    dec = decompose(g)
    assert len(dec.terms) == 1
    chi, poly = dec.terms[0]
    assert chi.modulus == 4
    assert dict(poly)[1] == 1


def test_decompose_alternating():
    dec = decompose(rational_series(PeriodicFunction(2, (1, -1)), Fraction(1))[0])
    assert len(dec.terms) == 1
    chi, poly = dec.terms[0]
    assert chi.modulus == 1
    assert dict(poly) == {1: Cyclo.from_rational(1), 2: Cyclo.from_rational(-2)}


def test_decompose_matches_f_eval():
    rng = random.Random(17)
    for trial in range(4):
        q = rng.randrange(1, 4)
        b = rng.choice([2, 3, 4])
        a = rng.choice([x for x in range(1, b) if math.gcd(x, b) == 1])
        vals = tuple(rng.randrange(-2, 3) or 1 for _ in range(q))
        f = PeriodicFunction(q, vals)
        g = rational_series(f, Fraction(a, b))[0]
        dec = decompose(g)
        for _ in range(3):
            s = complex(rng.uniform(1.6, 3.0), rng.uniform(-5, 5))
            from ghzeta.zeros import decomposition_evaluator

            F = decomposition_evaluator(dec, prefactor=b)
            direct = f_eval(s, f, a / b)
            assert abs(F(s) - complex(direct.value)) < 1e-8


def test_detect_residue_obstruction():
    cert = detect_pl_form(rational_series(ONE, Fraction(1, 3))[0])
    assert cert.verdict == NOT_PL
    assert cert.proof_kind == RESIDUE_OBSTRUCTION
    assert cert.obstruction == (1, 3)


def test_detect_chi4_product():
    f = PeriodicFunction(2, (1, -1))
    cert = detect_pl_form(rational_series(f, Fraction(1, 2))[0])
    assert cert.verdict == IS_PL
    assert cert.character.modulus == 4
    assert dict(cert.polynomial_support) == {1: Cyclo.from_rational(1)}


def test_detect_alternating_and_deconvolution():
    cert = detect_pl_form(rational_series(PeriodicFunction(2, (1, -1)), Fraction(1))[0])
    assert cert.verdict == IS_PL
    assert cert.character.modulus == 1
    assert dict(cert.polynomial_support) == {1: Cyclo.from_rational(1), 2: Cyclo.from_rational(-2)}

    cert2 = detect_pl_form(rational_series(PeriodicFunction(2, (1, -2)), Fraction(1))[0])
    assert cert2.verdict == IS_PL
    assert dict(cert2.polynomial_support) == {1: Cyclo.from_rational(1), 2: Cyclo.from_rational(-3)}


def test_detect_reconvolution_is_exact():
    cert = detect_pl_form(rational_series(PeriodicFunction(2, (1, -2)), Fraction(1))[0])
    chi = cert.character
    poly = dict(cert.polynomial_support)
    b = rational_series(PeriodicFunction(2, (1, -2)), Fraction(1))[0]
    for m in range(1, cert.verification_period + 1):
        total = Cyclo.zero()
        for n, c in poly.items():
            if m % n == 0:
                total = total + c * chi.cyclo(m // n)
        re, im = b.exact(m)
        assert total == Cyclo.from_rational(re, im)


@given(
    st.integers(min_value=0, max_value=11),
    st.sampled_from([3, 4, 5, 6, 7]),
    st.integers(min_value=1, max_value=6),
)
def test_obstructed_support_never_is_pl(seed, r, width):
    """Coefficients supported on one coprime class mod r (r > 2) can never
    be a P(s)L(s,chi); the detector must refuse IsPL."""
    rng = random.Random(seed)
    h = rng.choice([x for x in range(1, r) if math.gcd(x, r) == 1])
    values = [0] * (r * width)
    placed = False
    for m in range(1, r * width + 1):
        if m % r == h and rng.random() < 0.7:
            values[m % (r * width)] = rng.randrange(1, 5)
            placed = True
    if not placed:
        values[h] = 1
    series = PeriodicFunction(r * width, tuple(values))
    cert = detect_pl_form(series)
    assert cert.verdict != IS_PL


# Primitive characters of small conductor as value tables built without
# ghzeta: Kronecker symbols for the real ones, chi(2) = i^j mod 5.
_I_POW = (1, 1j, -1, -1j)
_DLOG5 = {1: 0, 2: 1, 4: 2, 3: 3}
PLANT_CHARACTERS = [
    (1,),
    (0, 1, -1),
    (0, 1, 0, -1),
    *(tuple(0 if m == 0 else _I_POW[j * _DLOG5[m] % 4] for m in range(5)) for j in (1, 2, 3)),
    (0, 1, 0, -1, 0, -1, 0, 1),
    (0, 1, 0, 1, 0, -1, 0, -1),
]


def planted_f(chi, poly, alpha):
    """f with F(s, f, alpha) = P(s) L(s, chi) up to the lift prefactor, for
    alpha in {1, 1/2}; f(n) = b(n + 1) or b(2n + 1), b = poly * chi."""
    k = len(chi)
    period = k * math.lcm(*poly)
    b = [sum(a * chi[(m // n) % k] for n, a in poly.items() if m % n == 0)
         for m in range(1, period + 1)]
    if alpha == 1:
        return PeriodicFunction(period, tuple(b))
    assert not any(b[1::2]), "alpha = 1/2 needs b to vanish on even m"
    return PeriodicFunction(period // 2, tuple(b[0::2]))


def unit_twist_refutes(g):
    """True when g (one period, g[m - 1] = g(m)) cannot be P(s)L(s,chi): a
    prime p beyond the support of P gives g(p m) = chi(p) g(m), and primes
    meet every unit class u mod the period, so g(u m) must be one fixed
    unimodular multiple of g(m)."""
    P = len(g)
    for u in range(2, P):
        if math.gcd(u, P) != 1:
            continue
        pairs = [(g[m - 1], g[u * m % P - 1]) for m in range(1, P + 1)]
        ratios = {b / a for a, b in pairs if a}
        if any(b and not a for a, b in pairs) or len(ratios) > 1:
            return True
        if ratios and abs(ratios.pop()) != 1:
            return True
    return False


_GAUSSIAN = st.tuples(st.integers(-3, 3), st.integers(-1, 1)).filter(any).map(lambda z: complex(*z))


@given(
    st.sampled_from(PLANT_CHARACTERS),
    st.sampled_from([Fraction(1), Fraction(1, 2)]),
    st.data(),
)
def test_planted_pl_forms_are_recovered(chi, alpha, data):
    """P(s) L(s,chi) with chi of conductor 1, 3, 4, 5 or 8 and one to three
    polynomial terms comes back IsPL with the planted character and the
    exact planted polynomial.  At alpha = 1/2 the series must vanish on
    even m, so an odd-support Q is planted and, for odd conductors,
    P = Q(s) (1 - chi(2) 2^-s)."""
    k = len(chi)
    keys = [1, 2, 3, 4] if alpha == 1 else [1, 3, 9]
    poly = data.draw(st.dictionaries(st.sampled_from(keys), _GAUSSIAN, min_size=1, max_size=3))
    if alpha != 1 and k % 2:
        poly = {**poly, **{2 * n: -chi[2 % k] * a for n, a in poly.items()}}
    f = planted_f(chi, poly, alpha)
    series = rational_series(f, alpha)[0]
    cert = detect_pl_form(series)
    assert cert.verdict == IS_PL
    assert cert.character.modulus == k
    assert all(cert.character.cyclo(m) == Cyclo.from_complex_exact(complex(chi[m]))
               for m in range(k))
    got = dict(cert.polynomial_support)
    assert sorted(got) == sorted(poly)
    assert all(got[n] == Cyclo.from_complex_exact(a) for n, a in poly.items())


@given(
    st.sampled_from([Fraction(1), Fraction(1, 2)]),
    st.lists(st.integers(-2, 2), min_size=1, max_size=24),
)
def test_unit_twist_refuted_series_are_not_pl(alpha, values):
    """Random series with period P <= 24 that the unit-twist test refutes
    come back NotPL; a multiple-character proof names at least two terms."""
    if alpha != 1:
        values = values[:12]
    assume(any(values))
    q = len(values)
    if alpha == 1:
        g = [Fraction(values[(m - 1) % q]) for m in range(1, q + 1)]
    else:
        g = [Fraction(values[(m - 1) // 2]) if m % 2 else Fraction(0) for m in range(1, 2 * q + 1)]
    assume(unit_twist_refutes(g))
    f = PeriodicFunction(q, tuple(values))
    series = rational_series(f, alpha)[0]
    cert = detect_pl_form(series)
    assert cert.verdict == NOT_PL
    if cert.proof_kind == MULTIPLE_CHARACTERS:
        assert len(cert.conductors) >= 2


def test_multiple_characters_evidence():
    # b = (1, 2, 1) mod 3 is a combination of the trivial character and
    # the one mod 3; u = 2 maps b(1) = 1 to b(2) = 2, so no P*L form fits
    rep = nonvanishing_verdict(PeriodicFunction(3, (1, 2, 1)), Fraction(1))
    assert rep["verdict"] == VERDICT_INFINITE
    assert rep["certificate"]["proof"] == MULTIPLE_CHARACTERS
    assert rep["certificate"]["conductors"] == [1, 3]
    assert "conductors [1, 3]" in rep["evidence"][1]


def test_verdict_one_third():
    rep = nonvanishing_verdict(ONE, Fraction(1, 3))
    assert rep["verdict"] == VERDICT_INFINITE
    assert rep["certificate"]["proof"] == RESIDUE_OBSTRUCTION
    assert rep["lift_prefactor"] == 3


def test_verdict_alternating():
    rep = nonvanishing_verdict(PeriodicFunction(2, (1, -1)), Fraction(1))
    assert rep["verdict"] == VERDICT_ZERO_FREE_FORM
    assert rep["certificate"]["verdict"] == IS_PL
    assert rep["polynomial_zeros"] == []


def test_verdict_zeros_from_polynomial():
    rep = nonvanishing_verdict(PeriodicFunction(2, (1, -2)), Fraction(1))
    assert rep["verdict"] == VERDICT_ZEROS_FROM_POLY
    assert rep["polynomial_zeros"]
    sigma, t = rep["polynomial_zeros"][0]
    assert abs(sigma - math.log2(3)) < 1e-6
    assert abs(t) < 1e-5


def test_verdict_chi4_half():
    f = PeriodicFunction(2, (1, -1))
    rep = nonvanishing_verdict(f, Fraction(1, 2))
    assert rep["verdict"] == VERDICT_ZERO_FREE_FORM
    assert rep["lift_prefactor"] == 2
    assert rep["certificate"]["character_modulus"] == 4


def test_verdict_shifted_character_fixture():
    # f(n) = chi(n+1) for the primitive character mod 4: the alpha = 1
    # series is exactly L(s, chi), a nonvanishing product form
    f = PeriodicFunction(4, (1, 0, -1, 0))
    rep = nonvanishing_verdict(f, Fraction(1))
    assert rep["verdict"] == VERDICT_ZERO_FREE_FORM
    assert rep["certificate"]["verdict"] == IS_PL
    assert rep["certificate"]["character_modulus"] == 4
    assert rep["certificate"]["polynomial"] == {"1": Cyclo.from_rational(1).to_json()}


def test_verdict_algebraic_and_untyped():
    rep = nonvanishing_verdict(ONE, fixtures())
    assert rep["verdict"] == VERDICT_INFINITE
    with pytest.raises(UnsupportedAlpha):
        nonvanishing_verdict(ONE, 0.3333)
