import random
from fractions import Fraction

import pytest

from ghzeta import density
from ghzeta.arith import FactorCache, factorize
from ghzeta.density import (
    DICKMAN_REFERENCE,
    EmptyWindow,
    WindowSpec,
    density_sweep,
    private_key_candidates,
    private_prime_scan,
    sweep_results,
    window_records,
)
from ghzeta.ideals import ideal_factorize, ideal_factorize_many, norm_value
from oracles import divides, fixtures, rescan_soundness

ALPHA = fixtures()


def test_window_spec_validation():
    w = WindowSpec(100, Fraction(1, 10), 1, 0)
    assert w.M == 10 and w.end == 110
    assert w.members() == list(range(101, 111))
    with pytest.raises(ValueError):
        WindowSpec(100, Fraction(1, 10), 101, 0)
    with pytest.raises(ValueError):
        WindowSpec(100, Fraction(1, 10), 2, 2)
    with pytest.raises(ValueError):
        WindowSpec(5, Fraction(1, 10), 1, 0)


def test_scan_examples():
    w = WindowSpec(100, Fraction(1, 10), 1, 0)
    rep = private_prime_scan(ALPHA, w)
    chosen = dict(rep.eligible)
    assert 101 in chosen and chosen[101].p == 4999
    assert 102 not in chosen
    assert 107 in chosen and chosen[107].p == 137
    assert rep.count_A == len(rep.eligible)
    assert rep.threshold == pytest.approx(5.4)


def test_not_eligible_102_reason():
    # 10199 = 7 * 31 * 47, all <= 102: every residue class has company
    rec = ideal_factorize(ALPHA, 102)
    assert sorted(k.p for k, _ in rec.admissible_part) == [7, 31, 47]
    assert private_key_candidates(rec, 100, 10) == []


def test_eligible_rescan_soundness():
    w = WindowSpec(100, Fraction(1, 10), 1, 0)
    rep = private_prime_scan(ALPHA, w)
    for n, key in rep.eligible:
        assert rescan_soundness(ALPHA, key, n, w.end)


def test_shortcut_equivalence_random_cases():
    """The arithmetic privacy criterion p > max(n, N+M-n) agrees with a
    full divisibility rescan over every m <= N+M."""
    rng = random.Random(41)
    checked = 0
    for _ in range(100):
        N = rng.randrange(30, 400)
        M = max(1, int(N * 0.1))
        n = rng.randrange(N + 1, N + M + 1)
        rec = ideal_factorize(ALPHA, n)
        for key, _e in rec.admissible_part:
            shortcut = key.p > max(n, N + M - n)
            brute = all(
                not divides(ALPHA, key, 1, m)
                for m in range(0, N + M + 1)
                if m != n
            )
            assert shortcut == brute, (n, key)
            checked += 1
    assert checked > 50


def test_smooth_count_examples():
    w = WindowSpec(100, Fraction(1, 10), 1, 0)
    rep = private_prime_scan(ALPHA, w)
    # every window value carries a large admissible prime power (101: 4999 >= 10)
    assert rep.smooth_count == 0 and rep.rho == 0
    # vacuous membership: a value with no admissible primes at all
    w2 = WindowSpec(2, Fraction(1, 2), 1, 0)
    rec = ideal_factorize(ALPHA, 3)
    assert rec.admissible_part == ()
    assert w2.members() == [3]
    assert private_prime_scan(ALPHA, w2).smooth_count == 1


def test_empty_window():
    with pytest.raises(EmptyWindow):
        private_prime_scan(ALPHA, WindowSpec(100, Fraction(1, 50), 5, 3))


def test_report_shape_and_rho():
    w = WindowSpec(1000, Fraction(1, 20), 3, 1)
    records = window_records(ALPHA.with_q(3), 1000, 50)
    rep = private_prime_scan(ALPHA, w, records=records)
    assert rep.members == len(w.members())
    assert rep.rho == pytest.approx(3 * rep.smooth_count / 50)
    js = rep.to_json()
    assert js["N"] == 1000 and js["q"] == 3 and js["b"] == 1
    assert len(js["eligible"]) == rep.count_A


def test_density_sweep_classes_and_aggregate():
    cache = FactorCache()
    reports = density_sweep(ALPHA, [3000, 5000], Fraction(1, 50), 3, cache)
    assert len(reports) == 6  # two windows x three classes
    for rep in reports:
        assert rep.threshold == pytest.approx(0.54 * rep.window.M / 3)
    js = sweep_results(3, Fraction(1, 50), [rep.to_json() for rep in reports])
    assert 0 <= js["mean_fraction"] <= 1
    assert js["dickman_reference"] == DICKMAN_REFERENCE
    flagged_set = {(N, b) for N, b in js["flagged"]}
    for rep in reports:
        assert ((rep.window.N, rep.window.b) in flagged_set) == (not rep.passed)


def test_canonical_window_shape():
    w = WindowSpec(2 * 10**7, Fraction(1, 10**6), 1, 0)
    assert w.M == 20
    rep = private_prime_scan(ALPHA, w)
    assert rep.members == 20


@pytest.mark.parametrize("q, b", [(1, 0), (2, 1), (3, 2)])
def test_scan_factors_members_only(monkeypatch, q, b):
    # without records a scan factors its own class, and chooses the same
    # keys as a scan over the whole window's records
    w = WindowSpec(3000, Fraction(1, 50), q, b)
    full = private_prime_scan(ALPHA, w, records=window_records(ALPHA.with_q(q), w.N, w.M))
    factored = []

    def counted(alpha, ns, cache=None):
        factored.extend(ns)
        return ideal_factorize_many(alpha, ns, cache)

    monkeypatch.setattr(density, "ideal_factorize_many", counted)
    rep = private_prime_scan(ALPHA, w)
    assert sorted(factored) == w.members()
    assert rep.eligible == full.eligible and rep.smooth_count == full.smooth_count


def test_window_cache_file_matches_per_n_factorize(tmp_path):
    # a window's norms reach rho in lockstep groups, but its records and
    # cache lines are those of factoring the members one by one, in order
    N, M = 10**9, 40
    members = range(N + 1, N + M + 1)
    window, per_n = tmp_path / "window.csv", tmp_path / "per_n.csv"
    records = window_records(ALPHA, N, M, FactorCache(window))
    cache = FactorCache(per_n)
    for n in members:
        factorize(norm_value(ALPHA, n), cache)
    assert window.read_bytes() == per_n.read_bytes()
    assert list(records.values()) == [ideal_factorize(ALPHA, n) for n in members]
