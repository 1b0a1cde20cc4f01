import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ghzeta.arith import FactorizationOverflow
from ghzeta.ideals import (
    AlgebraicAlpha,
    _is_irreducible,
    PrimeIdealKey,
    count_real_roots,
    ideal_factorize,
    is_admissible_prime,
    norm_value,
    poly_discriminant,
)
from oracles import (
    congruence_check,
    conjugate_norm_check,
    divides,
    fixtures,
    prime_ideals_above,
    recomposed_norm,
    root_mod_power,
)

ALPHA = fixtures()  # sqrt(2) - 1, minpoly x^2 + 2x - 1


def test_alpha_validation():
    with pytest.raises(ValueError):  # reducible
        AlgebraicAlpha((1, 0, -1), (Fraction(1, 3), Fraction(1, 2)))
    with pytest.raises(ValueError):  # interval contains no root
        AlgebraicAlpha((1, 2, -1), (Fraction(1, 10), Fraction(2, 10)))
    with pytest.raises(ValueError):  # content > 1
        AlgebraicAlpha((2, 4, -2), (Fraction(2, 5), Fraction(1, 2)))
    with pytest.raises(ValueError):  # negative leading coefficient
        AlgebraicAlpha((-1, -2, 1), (Fraction(2, 5), Fraction(1, 2)))
    with pytest.raises(ValueError):  # degree 1
        AlgebraicAlpha((2, -1), (Fraction(2, 5), Fraction(3, 5)))


def test_isolating_interval_checked_once_per_key(monkeypatch):
    import ghzeta.ideals as ideals

    calls = []

    def counting(coeffs, lo, hi):
        calls.append((coeffs, lo, hi))
        return count_real_roots(coeffs, lo, hi)

    monkeypatch.setattr(ideals, "count_real_roots", counting)
    ideals._isolates_one_root.cache_clear()
    alpha = AlgebraicAlpha((1, 2, -1), (Fraction(2, 5), Fraction(1, 2)))
    alpha.with_q(2).with_q(3)
    AlgebraicAlpha((1, 2, -1), (Fraction(2, 5), Fraction(1, 2)), q_context=5)
    assert calls == [((1, 2, -1), Fraction(2, 5), Fraction(1, 2))]
    for _ in range(2):  # a cached refusal still raises
        with pytest.raises(ValueError, match="interval must isolate exactly one real root"):
            AlgebraicAlpha((1, 2, -1), (Fraction(1, 10), Fraction(2, 10)))
    assert len(calls) == 2
    ideals._isolates_one_root.cache_clear()


@pytest.mark.parametrize("coeffs, interval", [
    ((2, 5, -3), (Fraction(2, 5), Fraction(3, 5))),        # (2x - 1)(x + 3)
    ((1, 2, -4, -6, 3), (Fraction(2, 5), Fraction(1, 2))),  # (x^2 + 2x - 1)(x^2 - 3)
])
def test_reducible_minpoly_rejected(coeffs, interval):
    # both isolate a root in their interval, so only irreducibility fails
    assert count_real_roots(coeffs, *interval) == 1
    with pytest.raises(ValueError, match="minimal polynomial must be irreducible"):
        AlgebraicAlpha(coeffs, interval)


@pytest.mark.parametrize("coeffs, interval", [
    ((1, 0, -10, 0, 1), (Fraction(3, 10), Fraction(2, 5))),  # sqrt(3) - sqrt(2)
    ((3, 0, 1, -1), (Fraction(1, 2), Fraction(3, 5))),       # non-monic cubic
])
def test_irreducible_minpoly_accepted(coeffs, interval):
    alpha = AlgebraicAlpha(coeffs, interval)
    root = alpha.value(17)
    assert interval[0] < root < interval[1]
    assert abs(sum(c * root ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))) < 1e-12


@pytest.mark.parametrize("coeffs, irreducible", [
    ((1, 0, -2), True),
    ((9, 0, -4), False),              # (3x - 2)(3x + 2)
    ((2, -1, 2, -1), False),          # (2x - 1)(x^2 + 1), non-monic cubic
    ((2, 0, 0, -1), True),
    ((1, 0, -10, 0, 1), True),        # reducible mod every prime
    ((1, 0, 0, 0, 1), True),
    ((1, 0, 0, 0, 4), False),         # (x^2 + 2x + 2)(x^2 - 2x + 2), no rational root
    ((4, 0, 0, 0, 1), False),         # (2x^2 + 2x + 1)(2x^2 - 2x + 1), non-monic 2+2
    ((1, 0, -4, 0, 4), False),        # (x^2 - 2)^2, zero discriminant
    ((1, 2, -4, -6, 3), False),       # (x^2 + 2x - 1)(x^2 - 3)
    ((6, -5, -2, 1, 0), False),       # x (6x^3 - 5x^2 - 2x + 1)
])
def test_irreducibility_certificate(coeffs, irreducible):
    assert _is_irreducible(coeffs) is irreducible


def test_irreducibility_certified_up_to_degree_4():
    with pytest.raises(ValueError, match=r"degree must be in \[2, 4\], got 5"):
        AlgebraicAlpha((2, 0, 0, 0, 0, -1), (Fraction(4, 5), Fraction(9, 10)))
    with pytest.raises(ValueError, match="certified up to degree 4"):
        _is_irreducible((2, 0, 0, 0, 0, -1))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_poly(degree):
    coeff = st.integers(-30, 30)
    return st.tuples(coeff.filter(bool), *[coeff] * degree)


@given(st.integers(1, 2).flatmap(
    lambda d: st.tuples(_int_poly(d), st.integers(1, 4 - d).flatmap(_int_poly))))
def test_products_are_reducible(factors):
    assert not _is_irreducible(_poly_mul(*factors))


@given(st.integers(2, 4), st.sampled_from([2, 3, 5, 7]), st.data())
def test_eisenstein_polynomials_are_irreducible(degree, p, data):
    lead = data.draw(st.integers(-50, 50).filter(lambda c: c % p))
    middle = [p * data.draw(st.integers(-20, 20)) for _ in range(degree - 1)]
    const = p * data.draw(st.integers(-20, 20).filter(lambda c: c % p))
    assert _is_irreducible([lead, *middle, const])


def test_alpha_value_precision():
    v = ALPHA.value(17)
    assert abs(v - (2**0.5 - 1)) < 1e-15
    from mpmath import mp

    with mp.workdps(60):
        v50 = ALPHA.value(50)
        assert abs(v50 - (mp.sqrt(2) - 1)) < mp.mpf(10) ** -49


def test_sturm_root_counts():
    poly = [1, 2, -1]  # roots -1 +- sqrt(2)
    assert count_real_roots(poly, Fraction(0), Fraction(1)) == 1
    assert count_real_roots(poly, Fraction(-3), Fraction(0)) == 1
    assert count_real_roots(poly, Fraction(1), Fraction(2)) == 0


def test_discriminant():
    assert poly_discriminant([1, 2, -1]) == 8
    assert poly_discriminant([1, 0, 1]) == -4
    assert poly_discriminant([1, 0, 2, -1]) == -4 * 8 - 27  # x^3 + 2x - 1


def test_norm_examples():
    assert norm_value(ALPHA, 4) == 7
    assert norm_value(ALPHA, 0) == 1
    assert norm_value(ALPHA, 13) == 142
    with pytest.raises(ValueError):
        norm_value(ALPHA, -1)


def test_norm_overflow():
    with pytest.raises(FactorizationOverflow):
        norm_value(ALPHA, 2**64)


def test_ideal_factorize_examples():
    rec = ideal_factorize(ALPHA, 4)
    assert rec.admissible_part == ((PrimeIdealKey(7, 4), 1),)
    assert rec.residual_norm == 1
    rec = ideal_factorize(ALPHA, 1)
    assert rec.admissible_part == ()
    assert rec.residual_norm == 2
    rec = ideal_factorize(ALPHA, 13)
    assert rec.admissible_part == ((PrimeIdealKey(71, 13), 1),)
    assert rec.residual_norm == 2


@pytest.mark.parametrize("root", [-1, 7, 8])
def test_prime_ideal_key_rejects_a_non_canonical_root(root):
    with pytest.raises(ValueError, match="^root must be a canonical residue mod p$"):
        PrimeIdealKey(7, root)


def test_prime_ideal_key_contract():
    # the key hashes as the tuple (p, root), so dicts and sets of keys keep
    # their iteration order; it reads back, prints and sorts by (p, root)
    pairs = [(71, 13), (7, 4), (7, 0), (2**61 - 1, 5), (3, 2), (71, 2)]
    keys = [PrimeIdealKey(p, r) for p, r in pairs]
    for key, (p, r) in zip(keys, pairs):
        assert hash(key) == hash((p, r))
        assert (key.p, key.root) == (p, r)
        assert key == PrimeIdealKey(p, r)
    assert repr(PrimeIdealKey(7, 4)) == "PrimeIdealKey(p=7, root=4)"
    assert [(k.p, k.root) for k in sorted(keys)] == sorted(pairs)


def test_congruence_examples():
    key = PrimeIdealKey(7, 4)
    assert congruence_check(ALPHA, key, 1, 4, 11)
    assert congruence_check(ALPHA, key, 2, 11, 60)
    with pytest.raises(ValueError, match="not divisible"):
        congruence_check(ALPHA, key, 1, 4, 5)


def test_multiplicativity_of_norms():
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randrange(0, 10**6)
        rec = ideal_factorize(ALPHA, n)
        assert recomposed_norm(rec) == norm_value(ALPHA, n)


def test_root_class_law_small_scale():
    from ghzeta.arith import is_prime

    n_max, p_max = 2000, 50
    table = {n: dict(ideal_factorize(ALPHA, n).admissible_part) for n in range(n_max + 1)}
    for p in range(3, p_max + 1):
        if not is_prime(p) or not is_admissible_prime(ALPHA, p):
            continue
        keys = prime_ideals_above(ALPHA, p)
        for key in keys:
            v = 1
            while key.p**v <= n_max:
                rv = root_mod_power(ALPHA, key, v)
                for n in range(n_max + 1):
                    has = table[n].get(key, 0) >= v
                    assert has == (n % key.p**v == rv), (n, key, v)
                v += 1


def test_inert_primes_never_divide():
    for p in (5, 13):
        assert prime_ideals_above(ALPHA, p) == []
        for n in range(2000):
            assert norm_value(ALPHA, n) % p != 0


def test_admissibility():
    assert not is_admissible_prime(ALPHA, 2)  # divides the discriminant
    assert is_admissible_prime(ALPHA, 7)
    assert not is_admissible_prime(ALPHA.with_q(7), 7)


def test_bad_modulus_cached_per_instance():
    alpha = AlgebraicAlpha((1, 2, -1), (Fraction(2, 5), Fraction(1, 2)))
    alpha3 = alpha.with_q(3)
    assert alpha3.bad_modulus == 3 * alpha.bad_modulus == 24
    assert vars(alpha3)["bad_modulus"] == 24  # stored on the instance that computed it
    # the cache is no dataclass field: eq, hash and repr ignore it
    fresh = AlgebraicAlpha(alpha.minpoly, alpha.interval, 3)
    assert "bad_modulus" not in vars(fresh)
    assert fresh == alpha3 and hash(fresh) == hash(alpha3) and repr(fresh) == repr(alpha3)


def test_conjugate_consistency():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(0, 10**5)
        assert conjugate_norm_check(ALPHA, n) < 1e-6


def test_divides_and_lifts():
    key = PrimeIdealKey(7, 4)
    assert root_mod_power(ALPHA, key, 2) == 11
    assert divides(ALPHA, key, 1, 4)
    assert divides(ALPHA, key, 2, 60)
    assert not divides(ALPHA, key, 2, 4)
    with pytest.raises(ValueError, match="no unique root class"):
        root_mod_power(ALPHA, PrimeIdealKey(7, 3), 1)


def test_cubic_alpha():
    cubic = AlgebraicAlpha((1, 0, 2, -1), (Fraction(2, 5), Fraction(1, 2)))
    # root of x^3 + 2x - 1 near 0.4534
    v = cubic.value(17)
    assert abs(v**3 + 2 * v - 1) < 1e-14
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(0, 5000)
        rec = ideal_factorize(cubic, n)
        assert recomposed_norm(rec) == norm_value(cubic, n)
    # 17 splits completely for this field
    keys = prime_ideals_above(cubic, 17)
    assert [k.root for k in keys] == [3, 5, 9]
    for key in keys:
        assert divides(cubic, key, 1, key.root)
