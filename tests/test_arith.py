import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import fp

from ghzeta import arith
from ghzeta.arith import (
    FactorCache,
    Factorization,
    FactorizationOverflow,
    PeriodicFunction,
    factorize,
    factorize_many,
    is_prime,
)
from ghzeta.zeta import abs_coefficient


def trial_division(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# psi_k: the least odd composite that is a strong pseudoprime to each of the
# first k prime bases (Jaeschke 1993; Sorenson and Webster 2017)
PSI = {
    1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
    6: 3474749660383, 7: 341550071728321, 8: 341550071728321,
    9: 3825123056546413051, 10: 3825123056546413051, 11: 3825123056546413051,
    12: 318665857834031151167461, 13: 3317044064679887385961981,
}
PSI_12 = PSI[12]
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    """n passes the strong Fermat test to base a (n odd, n > a)."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(r))


@pytest.mark.parametrize("k", sorted(PSI))
def test_is_prime_rejects_every_psi(k):
    n = PSI[k]
    assert all(strong_probable_prime(n, a) for a in FIRST_PRIMES[:k])
    assert not is_prime(n)


def test_factorize_psi_12():
    # the 12 bases 2..37 all pass psi_12; it used to be reported as a prime
    assert factorize(PSI_12).factors == ((399165290221, 1), (798330580441, 1))


def test_is_prime_agrees_with_twelve_bases_below_psi_12():
    rng = random.Random(12)
    corpus = [v for k, v in PSI.items() if k < 12]
    for _ in range(3000):
        n = rng.randrange(2, 10 ** rng.randint(2, 23)) | 1
        corpus += [n, n + 2]
    for _ in range(300):  # semiprimes with balanced factors
        p, q = (rng.randrange(3, 10**11) | 1 for _ in range(2))
        corpus.append(p * q)
    for n in corpus:
        assert n < PSI_12
        small = next((p for p in FIRST_PRIMES if n % p == 0), None)
        expect = n == small if small else all(
            strong_probable_prime(n, a) for a in FIRST_PRIMES[:12])
        assert is_prime(n) == expect, n


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(9998).factors == ((2, 1), (4999, 1))
    assert factorize(10199).factors == ((7, 1), (31, 1), (47, 1))
    # oracle sanity for the example claims
    assert trial_division(9998) == ((2, 1), (4999, 1))
    assert all(4999 % p for p in range(2, 71))


def test_factorize_matches_trial_division_oracle():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        assert factorize(n).factors == trial_division(n)


@given(st.integers(min_value=1, max_value=2**64 - 1))
def test_factorize_recomposition(n):
    fact = factorize(n)
    prod = 1
    for p, e in fact.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


@pytest.mark.parametrize("n", [4999**2, 5003**2, 5003 * 5009, 25000009, 2 * 4999**2])
def test_factorize_past_the_small_primes(n):
    # trial division runs out of primes below 5000 on each of these
    assert factorize(n).factors == trial_division(n)


PRIMES_BELOW_5000 = [p for p in range(2, 5000) if trial_division(p) == ((p, 1),)]


def small_prime_trial_division(n):
    """Reference for factorize's small-prime stage: divide by every prime
    below 5000 in turn; a cofactor below 5000^2 is then 1 or a prime, and
    a larger one goes to the shared Pollard-rho splitter."""
    out = {}
    for p in PRIMES_BELOW_5000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n >= 5000**2:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d = arith._brent_rho((m,))[0]
                stack += [d, m // d]
    elif n > 1:
        out[n] = 1
    return tuple(sorted(out.items()))


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_factorize_small_primes_by_one_gcd():
    primes = PRIMES_BELOW_5000
    near_2_127 = [2**127 + k for k in (-1, 0, 1)] + [
        s * next_prime(2**127 // s) for s in (2, 210, 4999, 4993 * 4999, 2**20 * 3**5)
    ]
    corpus = [1, 4999 * 5003, 5003**2, 2**60, *primes, *(p * p for p in primes), *near_2_127]
    rng = random.Random(669)
    for _ in range(1500):
        small = 1
        for _ in range(rng.randrange(0, 6)):
            small *= rng.choice(primes) ** rng.randint(1, 3)
        large = rng.choice([1, next_prime(rng.randrange(5000, 10**6)),
                            next_prime(rng.randrange(2**40, 2**64)), rng.randrange(1, 10**12)])
        if small * large < 2**128:
            corpus.append(small * large)
    for n in corpus:
        assert factorize(n).factors == small_prime_trial_division(n), n
    for n in corpus:  # the reference itself, where full trial division is cheap
        if n < 10**8:
            assert small_prime_trial_division(n) == trial_division(n), n


def test_factorize_trusts_trial_division(monkeypatch):
    # once p^2 exceeds the cofactor, the cofactor is prime: no primality test
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert factorize(2 * 4993).factors == ((2, 1), (4993, 1))
    assert factorize(3**4 * 7 * 1009).factors == ((3, 4), (7, 1), (1009, 1))
    assert factorize(4999**2).factors == ((4999, 2),)
    assert calls == []


def test_factorize_large_semiprime():
    p, q = 1000000007, 999999937
    fact = factorize(p * q)
    assert fact.factors == ((q, 1), (p, 1))


def test_factorize_bounds():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**128 + 1)


def brent_walk(n, c):
    """Reference: the divisor the one-number Brent walk x -> x^2 + c from 2
    ends on (n itself when the walk closes on n), with gcds every 128 steps
    and the backtrack from the last block start."""
    y, g, r, q = 2, 1, 1, 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += 128
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g


@st.composite
def odd_composite_lanes(draw):
    """Products of two primes from a small pool: semiprimes, prime squares
    and lanes sharing a prime; then some lanes again as duplicates."""
    pool = draw(st.lists(st.integers(5003, 2**31).map(next_prime), min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    ns = draw(st.lists(st.tuples(pick, pick).map(math.prod), min_size=1, max_size=6))
    return ns + draw(st.lists(st.sampled_from(ns), max_size=2))


@settings(max_examples=25, deadline=None)
@given(odd_composite_lanes())
def test_rho_lanes_match_one_lane_runs(ns):
    lanes = arith._brent_rho(tuple(ns))
    assert lanes == [arith._brent_rho((n,))[0] for n in ns]
    assert lanes == [next(d for c in range(1, 100) if (d := brent_walk(n, c)) != n) for n in ns]
    assert factorize_many(ns) == [factorize(n) for n in ns]


# the c = 1 walk closes on n itself for these, so they split with c = 2, 3, ...
RHO_RETRIES = (1389524029, 213912053, 143, 391)


def test_rho_retry_lanes_split_inside_a_group():
    assert all(brent_walk(n, 1) == n for n in RHO_RETRIES)
    assert 1389524029 == 28513 * 48733 and 213912053 == 8929 * 23957
    ordinary = [next_prime(10**6 + 7 * i) * next_prime(10**7 + 3 * i) for i in range(4)]
    group = (ordinary[0], *RHO_RETRIES[:2], ordinary[1], ordinary[2], *RHO_RETRIES[2:], ordinary[3])
    for n, d in zip(group, arith._brent_rho(group)):
        assert d == next(g for c in range(1, 100) if (g := brent_walk(n, c)) != n), n
    # the two above the trial-division bound reach rho through factorize_many
    assert factorize_many(group[:4]) == [Factorization(n, trial_division(n)) for n in group[:4]]


def test_factorize_many_cache_lines_match_per_n(tmp_path):
    ns = [10199, *RHO_RETRIES[:2], 4999 * 5003, 9998, 2**61 - 1, 10199, 1,
          next_prime(10**9) * next_prime(10**8)]
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    for path in (one, many):
        path.write_text("9998,2^1 4999^1\n")  # a hit among the misses
    per_n = FactorCache(one)
    expect = [factorize(n, per_n) for n in ns]
    assert factorize_many(ns, FactorCache(many)) == expect
    assert many.read_bytes() == one.read_bytes()


@pytest.mark.parametrize("bad, error", [(0, ValueError), (-5, ValueError),
                                        (2**128 + 1, FactorizationOverflow)])
def test_factorize_many_rejects_a_bad_entry_like_factorize(bad, error):
    with pytest.raises(error) as alone:
        factorize(bad)
    with pytest.raises(error) as in_batch:
        factorize_many([9998, 1389524029, bad, 10199])
    assert str(in_batch.value) == str(alone.value)


def test_is_prime_deterministic_band():
    known = {2, 3, 5, 7, 11, 101, 4999, 10007, 2**61 - 1}
    for n in known:
        assert is_prime(n)
    for n in (1, 9, 4999 * 7, 2**62):
        assert not is_prime(n)


def test_factorization_recomposition_guard():
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)))


def test_periodic_function_basics():
    f = PeriodicFunction(2, (1, -1))
    assert f(0) == 1 and f(1) == -1 and f(7) == -1 and f(-1) == -1
    with pytest.raises(ValueError):
        PeriodicFunction(2, (0, 0))
    with pytest.raises(ValueError):
        PeriodicFunction(3, (1, 2))
    g = PeriodicFunction(2, (0.5, 1 + 2j))
    re, im = g.exact(1)
    assert (float(re), float(im)) == (1.0, 2.0)


def test_periodic_function_sum_and_abs():
    f = PeriodicFunction(3, (1, -1, 0))
    re, im = f.coefficient_sum()
    assert re == 0 and im == 0
    assert [abs_coefficient(f, r, fp) for r in range(3)] == [1.0, 1.0, 0.0]


def test_factor_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.csv"
    cache = FactorCache(path)
    f1 = factorize(9998, cache)
    factorize(9998, cache)  # idempotent insert
    assert len(cache) == 1
    fresh = FactorCache(path)
    assert fresh.get(9998) == f1
    assert (path.read_text().strip().splitlines()) == ["9998,2^1 4999^1"]


@pytest.mark.parametrize("bad, n", [
    ("34,34", 34),  # a composite "prime" that recomposes n
    ("34,x", 34),  # malformed
    ("x,2 17", None),
    ("4,2 2", 4),  # a repeated prime
    ("34,2 17 3^0", 34),  # a zero exponent
    ("34,2 3", 34),  # factors that miss n
    (f"{PSI_12},{PSI_12}", PSI_12),  # a strong pseudoprime to bases 2..37 as "prime"
])
def test_factor_cache_skips_bad_lines(tmp_path, capsys, bad, n):
    path = tmp_path / "cache.csv"
    path.write_text(f"{bad}\n9998,2^1 4999^1\n")
    cache = FactorCache(path)
    assert len(cache) == 1 and cache.get(9998) == factorize(9998)
    err = capsys.readouterr().err
    assert f"skipped 1 malformed or unverified line(s) of factor cache {path}" in err
    if n is not None:
        assert factorize(n, cache) == factorize(n)  # factored afresh, not read back


def test_coefficient_sum_computed_once():
    f = PeriodicFunction(3, (Fraction(1, 3), -1, 2j))
    assert f.coefficient_sum() == (Fraction(-2, 3), Fraction(2))
    assert f.coefficient_sum() is f.coefficient_sum()
    assert f == PeriodicFunction(3, (Fraction(1, 3), -1, 2j))
