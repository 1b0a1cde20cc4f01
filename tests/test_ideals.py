import random
from fractions import Fraction

import pytest

from ghzeta.arith import FactorizationOverflow
from ghzeta.ideals import (
    AlgebraicAlpha,
    PreconditionViolated,
    PrimeIdealKey,
    congruence_check,
    conjugate_norm_check,
    count_real_roots,
    divides,
    fixtures,
    ideal_factorize,
    is_admissible_prime,
    norm_value,
    poly_discriminant,
    prime_ideals_above,
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


def test_congruence_examples():
    key = PrimeIdealKey(7, 4)
    assert congruence_check(ALPHA, key, 1, 4, 11)
    assert congruence_check(ALPHA, key, 2, 11, 60)
    with pytest.raises(PreconditionViolated):
        congruence_check(ALPHA, key, 1, 4, 5)


def test_multiplicativity_of_norms():
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randrange(0, 10**6)
        rec = ideal_factorize(ALPHA, n)
        assert rec.norm() == norm_value(ALPHA, n)


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
    with pytest.raises(PreconditionViolated):
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
        assert rec.norm() == norm_value(cubic, n)
    # 17 splits completely for this field
    keys = prime_ideals_above(cubic, 17)
    assert [k.root for k in keys] == [3, 5, 9]
    for key in keys:
        assert divides(cubic, key, 1, key.root)
