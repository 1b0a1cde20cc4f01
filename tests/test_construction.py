import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import fp, mp

from ghzeta import construction, zeta
from ghzeta.arith import FactorCache, PeriodicFunction
from ghzeta.construction import (
    ConstructionProfile,
    PhiAssignment,
    StageState,
    ThinClass,
    Unreachable,
    _aim_private,
    _class_sums,
    _recompute_from_scratch,
    bohr_solve,
    run_construction,
    select_sigma,
    stage_advance,
)
from ghzeta.density import WindowSpec, private_prime_scan
from ghzeta.ideals import (
    AlgebraicAlpha,
    IdealFactorizationRecord,
    PrimeIdealKey,
    ideal_factorize,
)
from oracles import (
    fixtures,
    member_weights_reference,
    recompute_from_scratch_reference,
    twisted_sum_reference,
)

ALPHA = fixtures()
ONE = PeriodicFunction(1, (1,))


def linkage_sum(radii, units):
    return sum(r * u for r, u in zip(radii, units))


def test_bohr_boundary_alignment():
    units = bohr_solve([1, 1, 1, 1, 1], 5 + 0j)
    assert all(abs(u - 1) < 1e-12 for u in units)


def test_bohr_symmetric_zero():
    radii = [1, 1, 1, 1, 1]
    units = bohr_solve(radii, 0j)
    assert abs(linkage_sum(radii, units)) < 1e-12


def test_bohr_inner_boundary():
    units = bohr_solve([3, 1, 1], 1 + 0j)
    assert abs(units[0] - 1) < 1e-12
    assert abs(units[1] + 1) < 1e-12
    assert abs(units[2] + 1) < 1e-12


def test_bohr_random_feasible():
    rng = random.Random(101)
    for _ in range(300):
        k = rng.randrange(2, 13)
        radii = [rng.uniform(0.1, 5) for _ in range(k)]
        total = sum(radii)
        inner = max(0.0, 2 * max(radii) - total)
        mag = rng.uniform(inner, total)
        ang = rng.uniform(0, 2 * math.pi)
        z = mag * cmath.exp(1j * ang)
        units = bohr_solve(radii, z)
        assert abs(linkage_sum(radii, units) - z) < 1e-10 * total


def test_bohr_infeasible_rejected():
    with pytest.raises(Unreachable):
        bohr_solve([1, 1], 3 + 0j)
    with pytest.raises(Unreachable):
        bohr_solve([3, 1], 0.5j)
    with pytest.raises(Unreachable):
        bohr_solve([2], 1 + 0j)
    with pytest.raises(Unreachable):
        bohr_solve([3, 1], 0j)


def test_bohr_mp_context():
    with mp.workdps(60):
        radii = [mp.mpf(1), mp.mpf("1.5"), mp.mpf("0.25"), mp.mpf(2)]
        z = mp.mpc("1.25", "-0.5")
        units = bohr_solve(radii, z)
        resid = abs(sum(r * u for r, u in zip(radii, units)) - z)
        assert resid < mp.mpf(10) ** -50


DESK_WINDOW_CASES = ["inside", "outer", "zero", "inner"]


def desk_window_linkage(where):
    """(radii, target, total) at the current mp precision: 250 links
    (n+alpha)^-sigma over a desk window, as many as a construct stage
    solves.  Their inner radius is 0, so a dominant first link is put in
    to give the "inner" case a positive inner boundary."""
    a = ALPHA.value(mp.dps)
    sigma = 1 + mp.mpf(1) / 2**7
    radii = [(n + a) ** (-sigma) for n in range(4000, 4250)]
    if where == "inner":
        radii[0] = mp.mpf(5) / 4 * mp.fsum(radii[1:])
    total = mp.fsum(radii)
    inner = 2 * radii[0] - total if where == "inner" else 0
    mag = {"inside": total / 3, "outer": total, "zero": 0, "inner": inner}[where]
    return radii, mag * mp.expjpi(mp.mpf(2) / 7), total


@pytest.mark.parametrize("where", DESK_WINDOW_CASES)
@pytest.mark.parametrize("ctx", [mp, fp], ids=["mp", "fp"])
def test_bohr_desk_window_links(ctx, where):
    with mp.workdps(60):
        radii, z, total = desk_window_linkage(where)
        if ctx is fp:
            radii, z, total = [float(r) for r in radii], complex(z), float(total)
        units = bohr_solve(radii, z)
        reached = mp.fsum(r * mp.mpc(u) for r, u in zip(radii, units))
        resid = abs(reached - z)
    assert resid < (mp.mpf(10) ** -50 if ctx is mp else 1e-12) * total


@pytest.mark.parametrize("where", DESK_WINDOW_CASES)
def test_bohr_units_unimodular(where):
    with mp.workdps(60):
        radii, z, _ = desk_window_linkage(where)
        units = bohr_solve(radii, z)
        assert len(units) == len(radii)
        assert max(abs(abs(u) - 1) for u in units) < mp.mpf(10) ** -50


@pytest.mark.parametrize("where", ["inside", "outer", "inner"])
def test_bohr_desk_window_links_exactly_collinear(where):
    # every link but the closing pair lies on the target's line, so it is
    # +-z/|z| at working precision, not tilted by a cosine rounded near 1
    # (a zero target has no line; its last free link must turn)
    with mp.workdps(60):
        radii, z, _ = desk_window_linkage(where)
        units = bohr_solve(radii, z)
        d = z / abs(z)
        order = sorted(range(len(radii)), key=lambda i: (-radii[i], i))
        tilt = max(min(abs(units[i] - d), abs(units[i] + d)) for i in order[:-2])
    assert tilt < mp.mpf(10) ** -50


def turning_linkages():
    """(radii, target) pairs whose links must turn: [5, 4, 1] -> 5, and a
    seeded family in which each link outweighs all shorter ones, so the
    remaining inner radius is positive at every link."""
    yield [5, 4, 1], 5
    rng = random.Random(514)
    for _ in range(40):
        radii = [rng.uniform(1, 2)]
        for _ in range(rng.randrange(2, 9)):
            radii.append(radii[-1] * rng.uniform(0.2, 0.45))
        rng.shuffle(radii)
        total = sum(radii)
        inner = 2 * max(radii) - total
        mag = rng.uniform(inner, total)
        yield radii, mag * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


@pytest.mark.parametrize("ctx", [mp, fp], ids=["mp", "fp"])
def test_bohr_turning_links(ctx):
    turned = []  # per linkage, the links before the closing pair that turn
    with mp.workdps(60):
        eps = mp.mpf(10) ** -50 if ctx is mp else 1e-12
        for radii, z in turning_linkages():
            units = bohr_solve(radii, z)
            reached = mp.fsum(r * mp.mpc(u) for r, u in zip(radii, units))
            assert abs(reached - z) < eps * sum(radii)
            assert max(abs(abs(mp.mpc(u)) - 1) for u in units) < eps
            w, turns = mp.mpc(z), 0
            for i in sorted(range(len(radii)), key=lambda i: -radii[i])[:-2]:
                u, d = mp.mpc(units[i]), w / abs(w)
                turns += min(abs(u - d), abs(u + d)) > 1e-6
                w -= radii[i] * u
            turned.append(turns)
    assert turned[0] == 1  # [5, 4, 1] -> 5 turns its first link
    assert sum(t > 0 for t in turned) >= 30


def test_profile_consistency_guard():
    ConstructionProfile.desk(1)
    ConstructionProfile.canonical(2)
    with pytest.raises(ValueError):
        ConstructionProfile(theta=Fraction(1, 5), n1=10)  # window too fat


def test_phi_assignment_write_once():
    phi = PhiAssignment()
    key = PrimeIdealKey(7, 4)
    phi.set_phase(key, -1)
    with pytest.raises(RuntimeError):
        phi.set_phase(key, 1j)
    with pytest.raises(RuntimeError):
        phi.ensure_one(key)
    phi.ensure_one(PrimeIdealKey(7, 5))
    phi.ensure_one(PrimeIdealKey(7, 5))
    assert phi.get(PrimeIdealKey(7, 5)) == 1
    assert phi.get(PrimeIdealKey(71, 13)) == 1  # implicit default
    with pytest.raises(ValueError):
        phi.set_phase(PrimeIdealKey(17, 2), 1.5)  # not unimodular
    with pytest.raises(ValueError):
        phi.set_phase(PrimeIdealKey(17, 3), 1 + 1e-10)
    with mp.workdps(60):
        with pytest.raises(ValueError):
            phi.set_phase(PrimeIdealKey(17, 4), mp.mpc(1 + mp.mpf(10) ** -10, 0))
        phi.set_phase(PrimeIdealKey(17, 5), mp.expjpi(mp.mpf(1) / 3))
        with pytest.raises(RuntimeError):
            phi.set_phase(PrimeIdealKey(17, 5), mp.expjpi(mp.mpf(1) / 3))


def test_phi_assignment_exact_one_is_trivial_everywhere():
    # triviality is decided when a phase is written: an mpc exactly 1 is 1
    phi = PhiAssignment()
    one, other = PrimeIdealKey(23, 3), PrimeIdealKey(29, 4)
    with mp.workdps(60):
        phi.set_phase(one, mp.mpc(1))
        phi.set_phase(other, mp.expj(mp.mpf("0.3")))
        assert phi.nontrivial_count() == 1
        assert phi.ensure_one(one) is False  # already pinned, and trivially
        assert phi.ensure_one(PrimeIdealKey(31, 7)) is True
        rec = IdealFactorizationRecord(1, ((one, 2),), 1)
        assert type(phi.phase_of_record(rec)) is int  # nothing multiplied in
        rec = IdealFactorizationRecord(1, ((one, 1), (other, 2)), 1)
        assert phi.phase_of_record(rec) == phi.get(other) ** 2
        rows = {(p, r): (re, im) for p, r, re, im in phi.log_rows(50)}
        assert rows[(23, 3)] == ("1", "0")
        assert rows[(29, 4)] != ("1", "0")
    with pytest.raises(RuntimeError):
        phi.ensure_one(other)


def test_phi_assignment_unimodular_at_phase_precision():
    # the tolerance follows the phase's own precision, not a fixed 1e-14
    phi = PhiAssignment()
    with mp.workdps(60):
        with pytest.raises(ValueError):
            phi.set_phase(PrimeIdealKey(19, 2), mp.mpc(1 + mp.mpf(10) ** -20, 0))
        with pytest.raises(ValueError):
            phi.set_phase(PrimeIdealKey(19, 3), mp.expj(1) * (1 + mp.mpf(10) ** -40))
        phi.set_phase(PrimeIdealKey(19, 4), mp.expj(mp.mpf(2) / 7))
    phi.set_phase(PrimeIdealKey(19, 5), cmath.exp(2j / 7))
    with pytest.raises(ValueError):
        phi.set_phase(PrimeIdealKey(19, 6), cmath.exp(2j / 7) * (1 + 1e-13))


@pytest.mark.parametrize("ctx", [mp, fp], ids=["mp", "fp"])
def test_phi_assignment_unit_check_in_ulps(ctx):
    # re^2 + im^2 - 1 is checked against 2 _UNIT_ULPS eps: a phase 8 ulps
    # off unit passes, one 40 ulps off does not, complex or real
    phi = PhiAssignment()
    with mp.workdps(60):
        eps = ctx.eps
        for i, base in enumerate([ctx.expj(ctx.mpf(2) / 7), ctx.mpf(-1)]):
            phi.set_phase(PrimeIdealKey(37, 2 * i), base * (1 + 8 * eps))
            with pytest.raises(ValueError, match="not unimodular"):
                phi.set_phase(PrimeIdealKey(37, 2 * i + 1), base * (1 + 40 * eps))
    assert phi.nontrivial_count() == 2


@pytest.mark.parametrize("phase, trivial", [
    (mp.mpc(1), True), (mp.expj(0), True), (mp.mpf(1), True), (1, True), (1 + 0j, True),
    (mp.mpc(-1), False), (mp.mpf(-1), False), (-1, False), (1j, False),
], ids=["mpc_1", "expj_0", "mpf_1", "int_1", "complex_1",
        "mpc_-1", "mpf_-1", "int_-1", "complex_i"])
def test_set_phase_decides_triviality(phase, trivial):
    # exactly 1, whatever its type, is trivial; libmp's fnone (-1) is not
    phi = PhiAssignment()
    key = PrimeIdealKey(41, 5)
    with mp.workdps(60):
        phi.set_phase(key, phase)
    assert phi.get(key) is phase
    assert (key in phi.nontrivial) is not trivial


@pytest.mark.parametrize("phase", [mp.mpc(2), mp.mpf("0.5"), mp.mpc(0), 1.5, 0])
def test_set_phase_rejects_non_unimodular(phase):
    phi = PhiAssignment()
    with mp.workdps(60), pytest.raises(ValueError, match="not unimodular"):
        phi.set_phase(PrimeIdealKey(41, 5), phase)
    assert len(phi) == 0 and phi.nontrivial_count() == 0


def test_aim_private_higher_prime_power():
    # private keys at exponents 1, 2 and 3, one member also carrying an
    # already-assigned phase: the placed class terms must sum to the target
    P = [PrimeIdealKey(p, 1) for p in (101, 103, 107, 109)]
    other = PrimeIdealKey(113, 5)
    members = [1, 2, 3, 4]
    records = {
        1: IdealFactorizationRecord(1, ((P[0], 2),), 1),
        2: IdealFactorizationRecord(2, ((P[1], 1), (other, 1)), 1),
        3: IdealFactorizationRecord(3, ((P[2], 3),), 1),
        4: IdealFactorizationRecord(4, ((P[3], 2), (other, 2)), 1),
    }
    eligible = dict(zip(members, P))
    with mp.workdps(60):
        phi = PhiAssignment()
        phi.set_phase(other, mp.expj(mp.mpf("0.7")))
        state = StageState(1, 0, None, None, [], phi)
        fb = mp.mpc("1.2", "-1.6")
        weight = {n: mp.mpf(1) / (n + 2) for n in members}
        target = mp.mpc("0.3", "0.45")
        _aim_private(state, fb, eligible, records, members, target, weight)
        placed = mp.fsum(fb * phi.phase_of_record(records[n]) * weight[n] for n in members)
        assert abs(placed - target) < mp.mpf(10) ** -50
        assert all(abs(abs(phi.get(k)) - 1) < mp.mpf(10) ** -50 for k in P)


def test_select_sigma_tiny_example():
    golden = AlgebraicAlpha((1, 1, -1), (Fraction(3, 5), Fraction(7, 10)))
    profile = ConstructionProfile(theta=Fraction(1, 20), n1=20)
    cert = select_sigma(ONE, golden, profile)
    assert cert.certified
    assert 1 < float(cert.sigma) <= 1.003


def test_select_sigma_canonical_scale():
    profile = ConstructionProfile.canonical(1)
    cert = select_sigma(ONE, ALPHA, profile)
    assert cert.certified
    assert 1e-5 < float(cert.sigma) - 1 < 1e-3


def test_stage_zero_drift_cancels_exactly():
    # window (102, 107]: every member owns a private prime, so a zero
    # incoming drift stays zero after the stage
    profile = ConstructionProfile(theta=Fraction(5, 102), n1=102, digits=50)
    with mp.workdps(60):
        state = StageState(1, 102, mp.mpf("1.2"), ALPHA.value(50),
                           [mp.mpc(0)], PhiAssignment())
        new_state, report = stage_advance(state, ALPHA, ONE, profile)
        cls = report["classes"][0]
        assert cls["count_B"] == 0
        assert cls["achieved_abs"] < profile.tolerance
        assert abs(new_state.class_sums[0]) < profile.tolerance


def test_stage_thin_class():
    profile = ConstructionProfile(theta=Fraction(1, 20), n1=40, digits=30)
    with mp.workdps(40):
        state = StageState(1, 40, mp.mpf("1.1"), ALPHA.value(30),
                           [mp.mpc(0)], PhiAssignment())
        with pytest.raises(ThinClass):
            stage_advance(state, ALPHA, ONE, profile)


def test_desk_run_two_stages():
    cache = FactorCache()
    report, state, log = run_construction(ONE, ALPHA, ConstructionProfile.desk(1), 2, cache)
    assert report["sigma_certificate"]["certified"]
    assert all(s["induction_ok"] for s in report["stages"])
    assert all(c["class_bound_ok"] for s in report["stages"] for c in s["classes"])
    assert report["recomputation_delta"] < 1e-40
    assert report["envelope_ok"]
    # phases all unimodular
    with mp.workdps(60):
        for p, root, re, im in log:
            z = mp.mpc(mp.mpf(re), mp.mpf(im))
            assert abs(abs(z) - 1) < 1e-14


def test_desk_run_q2():
    alpha2 = ALPHA.with_q(2)
    f = PeriodicFunction(2, (1, -1))
    report, state, log = run_construction(f, alpha2, ConstructionProfile.desk(2), 2)
    assert all(s["induction_ok"] for s in report["stages"])
    for s in report["stages"]:
        assert len(s["classes"]) == 2


def test_desk_run_zero_coefficient_class():
    # f(1) = 0: class 1 sums to nothing, so its private phases are pinned
    # to 1 and the other classes' certificates hold around it
    profile = ConstructionProfile.desk(3)
    f = PeriodicFunction(3, (1, 0, -2))
    report, state, _ = run_construction(f, ALPHA, profile, 2)
    assert all(s["induction_ok"] for s in report["stages"])
    assert all(c["class_bound_ok"] for s in report["stages"] for c in s["classes"])
    assert report["recomputation_delta"] < 1e-40
    assert report["envelope_ok"]
    alpha3 = ALPHA.with_q(3)
    for s in report["stages"]:
        scan = private_prime_scan(alpha3, WindowSpec(s["N_j"], profile.theta, 3, 0),
                                  all_classes=True)
        keys = [key for n, key in scan.eligible if n % 3 == 1]
        assert len(keys) == s["classes"][1]["count_A"] >= 5
        for key in keys:
            assert state.phi.get(key, None) == 1  # pinned, not defaulted
            assert key not in state.phi.nontrivial


def test_desk_run_exact_thirds():
    # coefficients that are not dyadic floats: certificates stay exact
    f = PeriodicFunction(2, (Fraction(1, 3), Fraction(2, 3)))
    report, _, _ = run_construction(f, ALPHA.with_q(2), ConstructionProfile.desk(2), 2)
    assert all(s["induction_ok"] for s in report["stages"])
    assert report["recomputation_delta"] < 1e-40


def test_canonical_single_stage():
    report, state, _ = run_construction(ONE, ALPHA, ConstructionProfile.canonical(1), 1)
    stage = report["stages"][0]
    assert stage["M_j"] == 10
    assert stage["classes"][0]["count_A"] >= 5
    assert stage["induction_ok"]
    assert state.n_current == 10**7 + 10
    assert report["recomputation_delta"] < 1e-40


def test_ratio_check_recorded():
    report, _, _ = run_construction(ONE, ALPHA, ConstructionProfile.desk(1), 1)
    cls = report["stages"][0]["classes"][0]
    if cls["count_B"] <= 0.46 * report["stages"][0]["M_j"]:
        assert cls["ratio_check"] is True
    s3, s2 = cls["free_weight_S3"], cls["locked_weight_S2"]
    assert s3 - s2 > (s3 + s2) / 100


def test_recompute_head_is_independent_of_class_sums(monkeypatch):
    # a fault in the incremental head route must show in the from-scratch
    # value at any N1 (a large one included), not cancel against itself
    original = zeta.class_partial_sum

    def shifted(*args, **kwargs):
        value, bound = original(*args, **kwargs)
        return value + mp.mpf(10) ** -30, bound

    monkeypatch.setattr(zeta, "class_partial_sum", shifted)
    n1 = 300_000
    profile = ConstructionProfile(theta=Fraction(1, 20), n1=n1)
    alpha_val = ALPHA.value(profile.digits)
    with mp.workdps(profile.digits + 10):
        sigma = 1 + mp.mpf(2) ** -12
        sums = _class_sums(ONE, alpha_val, sigma, n1, profile.precision())[0]
        scratch = _recompute_from_scratch(ONE, alpha_val, sigma, n1, n1, PhiAssignment(), {})
        assert abs(mp.fsum(sums) - scratch) >= 1e-31


@pytest.mark.parametrize("f, n1", [
    (ONE, 2000),
    (PeriodicFunction(2, (1, -1)), 1999),
    (PeriodicFunction(3, (Fraction(1, 3), 0, -2)), 2000),
    (PeriodicFunction(3, (1, -2, 3)), 1),  # class 2 has no member n <= N1
])
def test_closed_form_head_matches_direct_sum(f, n1):
    # with a trivial phi every window correction is 0, so the value at any
    # n_top is the closed form Q(n_top) alone
    q = f.period
    alpha = ALPHA.with_q(q)
    alpha_val = alpha.value(50)
    with mp.workdps(60):
        sigma = 1 + mp.mpf(2) ** -20
        coeff = [zeta.to_ctx(mp, f.exact(b)) for b in range(q)]
        for n_top in (n1, n1 + 1, n1 + 61):
            direct = mp.fsum(coeff[n % q] * (n + alpha_val) ** -sigma for n in range(n_top + 1))
            members = {n: (ideal_factorize(alpha, n), (n + alpha_val) ** -sigma)
                       for n in range(n1 + 1, n_top + 1)}
            value = _recompute_from_scratch(f, alpha_val, sigma, n1, n_top, PhiAssignment(), members)
            assert abs(value - direct) < mp.mpf(10) ** -50
            assert members == {}  # consumed


def desk_run_with(monkeypatch, weight_fault=None, after_stage=None, stages=1):
    """A desk q = 1 run whose stages are tampered with: `weight_fault(weight,
    alpha, sigma)` edits each window's weights before the stage uses them,
    and `after_stage(state)` runs on the state each stage returns."""
    if weight_fault is not None:
        original = construction._member_weights

        def faulty(records, a_val, sigma):
            weight = original(records, a_val, sigma)
            weight_fault(weight, a_val, sigma)
            return weight

        monkeypatch.setattr(construction, "_member_weights", faulty)
    if after_stage is not None:
        advance = construction.stage_advance

        def tampered(*args, **kwargs):
            state, report = advance(*args, **kwargs)
            after_stage(state)
            return state, report

        monkeypatch.setattr(construction, "stage_advance", tampered)
    return run_construction(ONE, ALPHA, ConstructionProfile.desk(1), stages)[0]


def _one_weight_at_n_plus_1(weight, a, sigma):
    n = min(weight) + 7
    weight[n] = (n + 1 + a) ** (-sigma)


def _one_weight_off_by_1e_30(weight, a, sigma):
    weight[min(weight) + 7] *= 1 + mp.mpf(10) ** -30


def _all_weights_at_30_digits(weight, a, sigma):
    with mp.workdps(30):
        for n in weight:
            weight[n] = +weight[n]


@pytest.mark.parametrize("fault", [
    _one_weight_at_n_plus_1, _one_weight_off_by_1e_30, _all_weights_at_30_digits,
], ids=["at_n_plus_1", "relative_1e-30", "all_30_digits"])
def test_recompute_catches_faulty_stage_weight(monkeypatch, fault):
    # the stage sums and the correction terms share the faulty weights, but
    # the closed form does not: the fault shows in the delta (30-digit
    # weights give about 1e-33, which a 1e-20 threshold would pass)
    report = desk_run_with(monkeypatch, weight_fault=fault)
    assert report["recomputation_delta"] >= 1e-40


def test_recompute_catches_phase_written_after_its_stage(monkeypatch):
    # a defaulted key of a first-window member gets a phase once that
    # window's terms are summed: the recomputation re-reads phi and differs
    def poke(state):
        if state.j == 2:
            key = next(key for n, (rec, _) in sorted(state.members.items())
                       for key, _ in rec.admissible_part if key not in state.phi.nontrivial)
            with mp.workdps(60):  # a unit at the desk working precision
                state.phi.nontrivial[key] = mp.expj(1)

    report = desk_run_with(monkeypatch, after_stage=poke, stages=2)
    assert report["recomputation_delta"] >= 1e-40


def test_recompute_names_a_missing_member(monkeypatch):
    def drop(state):
        del state.members[4010]

    with pytest.raises(ValueError, match="n = 4010 has no stage record"):
        desk_run_with(monkeypatch, after_stage=drop)


def test_recompute_rejects_foreign_and_leftover_records():
    alpha_val = ALPHA.value(50)
    with mp.workdps(60):
        sigma = 1 + mp.mpf(2) ** -7
        rec = ideal_factorize(ALPHA, 12)
        with pytest.raises(ValueError, match="record of n = 11 factors n = 12"):
            _recompute_from_scratch(ONE, alpha_val, sigma, 10, 11, PhiAssignment(),
                                    {11: (rec, mp.mpf(1))})
        with pytest.raises(ValueError, match="outside \\(10, 11\\], first n = 12"):
            _recompute_from_scratch(ONE, alpha_val, sigma, 10, 11, PhiAssignment(),
                                    {11: (ideal_factorize(ALPHA, 11), mp.mpf(1)),
                                     12: (rec, mp.mpf(1))})


def test_libmp_loops_match_operator_forms(monkeypatch):
    # a desk q = 2 run with f = 2,-3 (two classes, a coefficient whose unit
    # is -1): every stage's member weights, every twisted class sum and the
    # from-scratch value carry, bit for bit, the raw parts of the mpf/mpc
    # operator forms, at the 60 digits the stages work at
    checked = Counter()
    originals = {name: getattr(construction, name)
                 for name in ("_member_weights", "_twisted_sum", "_recompute_from_scratch")}

    def member_weights(records, a_val, sigma):
        assert mp.dps == 60
        out = originals["_member_weights"](records, a_val, sigma)
        ref = member_weights_reference(records, a_val, sigma)
        assert {n: w._mpf_ for n, w in out.items()} == {n: w._mpf_ for n, w in ref.items()}
        checked["weights"] += len(out)
        return out

    def twisted_sum(fb, phi, records, weight, members):
        out = originals["_twisted_sum"](fb, phi, records, weight, members)
        assert out._mpc_ == twisted_sum_reference(fb, phi, records, weight, members)._mpc_
        checked["twisted"] += len(members)
        return out

    def recompute(f, alpha_val, sigma, n1, n_top, phi, members):
        ref = recompute_from_scratch_reference(f, alpha_val, sigma, n1, n_top, phi, members)
        checked["nontrivial"] += sum(phi.phase_of_record(rec) != 1 for rec, _ in members.values())
        out = originals["_recompute_from_scratch"](f, alpha_val, sigma, n1, n_top, phi, members)
        assert out._mpc_ == ref._mpc_
        checked["recompute"] += 1
        return out

    monkeypatch.setattr(construction, "_member_weights", member_weights)
    monkeypatch.setattr(construction, "_twisted_sum", twisted_sum)
    monkeypatch.setattr(construction, "_recompute_from_scratch", recompute)
    f = PeriodicFunction(2, (2, -3))
    report = run_construction(f, ALPHA, ConstructionProfile.desk(2), 2)[0]
    assert report["recomputation_delta"] < 1e-40
    assert checked["recompute"] == 1 and checked["nontrivial"] > 100
    assert checked["weights"] == checked["twisted"] == report["stages"][-1]["N_next"] - 8000


def test_each_mp_value_evaluated_once(monkeypatch):
    # select_sigma's tails, the first stage's class sums, each stage's
    # induction tail and the final envelope reuse what was evaluated
    original = zeta._eval_hurwitz
    seen = []

    def counting(s, x, prof, ctx, eps):
        if not prof.uses_floats:
            seen.append((s, x))
        return original(s, x, prof, ctx, eps)

    monkeypatch.setattr(zeta, "_eval_hurwitz", counting)
    f = PeriodicFunction(2, (1, -1))
    report, _, _ = run_construction(f, ALPHA.with_q(2), ConstructionProfile.desk(2), 2)
    assert report["envelope_ok"]
    assert seen and len(set(seen)) == len(seen)


SCREEN_CASES = [
    (ONE, ALPHA, ConstructionProfile.desk(1)),
    (PeriodicFunction(1, (-2,)), ALPHA, ConstructionProfile.desk(1)),
    (PeriodicFunction(2, (1, -1)), ALPHA.with_q(2), ConstructionProfile.desk(2)),
    (PeriodicFunction(2, (complex(1, 2), -3)), ALPHA.with_q(2), ConstructionProfile.desk(2)),
    (PeriodicFunction(3, (1, -2, 3)), ALPHA.with_q(3), ConstructionProfile.desk(3)),
    (PeriodicFunction(3, (Fraction(1, 3), 0, complex(0, -1))), ALPHA.with_q(3),
     ConstructionProfile.desk(3)),
    (ONE, ALPHA, ConstructionProfile.canonical(1)),
    (ONE, AlgebraicAlpha((1, 1, -1), (Fraction(3, 5), Fraction(7, 10))),
     ConstructionProfile(theta=Fraction(1, 20), n1=20)),
]
SCREEN_IDS = ["q1", "q1_negative", "q2", "q2_complex", "q3", "q3_thirds_zero_imaginary",
              "canonical", "golden_tiny"]


def mp_hurwitz_counter(monkeypatch):
    """Patch zeta._eval_hurwitz to record the (s, x) of every call at a
    precision above the float tier; returns the list it fills."""
    original = zeta._eval_hurwitz
    seen = []

    def counting(s, x, prof, ctx, rounding):
        if not prof.uses_floats:
            seen.append((s, x))
        return original(s, x, prof, ctx, rounding)

    monkeypatch.setattr(zeta, "_eval_hurwitz", counting)
    return seen


def assert_same_certificate(cert, ref):
    # the dataclass compares sigma, head, head_bound, tail, tail_bound
    # and contraction; the first stage's class sums are compared apart
    assert cert == ref
    assert [c._mpc_ for c in cert.class_sums] == [c._mpc_ for c in ref.class_sums]


@pytest.mark.parametrize("f, alpha, profile", SCREEN_CASES, ids=SCREEN_IDS)
def test_select_sigma_screen_changes_no_certificate(monkeypatch, f, alpha, profile):
    # a screen that never refutes certifies every step at full precision,
    # as select_sigma did before the screen: the certificate is the same
    screen = construction._screen_refutes
    refuted = []

    def recording(*args):
        refuted.append(screen(*args))
        return refuted[-1]

    monkeypatch.setattr(construction, "_screen_refutes", recording)
    cert = select_sigma(f, alpha, profile)
    assert cert.certified
    assert any(refuted) and not refuted[-1]  # it skipped steps, not the last
    monkeypatch.setattr(construction, "_screen_refutes", lambda *args: False)
    assert_same_certificate(cert, select_sigma(f, alpha, profile))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_select_sigma_certifies_at_full_precision_once(monkeypatch, q):
    # in a desk run, only the step the screen leaves open runs at 60 digits
    # in select_sigma: one class_cut, two Hurwitz values, per class
    seen = mp_hurwitz_counter(monkeypatch)
    select = construction.select_sigma
    during = []

    def counted(*args):
        before = len(seen)
        cert = select(*args)
        during.append(len(seen) - before)
        return cert

    monkeypatch.setattr(construction, "select_sigma", counted)
    f = PeriodicFunction(q, (1, -2, 3)[:q])
    report, _, _ = run_construction(f, ALPHA.with_q(q), ConstructionProfile.desk(q), 2)
    assert report["sigma_certificate"]["certified"]
    assert during == [2 * q]
    assert len(seen) == 2 * q + 2 * q  # and one class_tail per class and stage


def test_select_sigma_float_failure_falls_through(monkeypatch):
    # a float tier that raises screens nothing: every step reaches the
    # working precision, and the certificate is the one it gives alone
    f, alpha, profile = SCREEN_CASES[2]
    original = construction._class_sums
    with monkeypatch.context() as patch:
        patch.setattr(construction, "_screen_refutes", lambda *args: False)
        seen = mp_hurwitz_counter(patch)
        ref = select_sigma(f, alpha, profile)
        unscreened = len(seen)

    def failing(f, alpha_val, sigma, n_top, prec):
        if prec.uses_floats:
            raise zeta.PrecisionExhausted("float tier refused")
        return original(f, alpha_val, sigma, n_top, prec)

    monkeypatch.setattr(construction, "_class_sums", failing)
    seen = mp_hurwitz_counter(monkeypatch)
    assert_same_certificate(select_sigma(f, alpha, profile), ref)
    assert len(seen) == unscreened > 2 * f.period


def test_select_sigma_near_pole_is_not_screened(monkeypatch):
    # sigma - 1 = 5e-13 is below the float tier's pole tolerance: the step
    # goes to the working precision even when the float tier would refute it
    original = construction._class_sums
    float_calls = []

    def refuting(f, alpha_val, sigma, n_top, prec):
        if prec.uses_floats:
            float_calls.append(sigma)
            return [], 1e300, 0.0, 0.0, 0.0
        return original(f, alpha_val, sigma, n_top, prec)

    monkeypatch.setattr(construction, "_class_sums", refuting)
    golden = AlgebraicAlpha((1, 1, -1), (Fraction(3, 5), Fraction(7, 10)))
    profile = ConstructionProfile(theta=Fraction(1, 20), n1=20, delta=1e-12)
    cert = select_sigma(ONE, golden, profile)
    assert cert.certified
    assert float_calls == []
    with mp.workdps(60):
        assert cert.sigma == 1 + mp.mpf(1e-12) / 2
    # a refuting float tier does skip a step it may screen
    with mp.workdps(60):
        assert construction._screen_refutes(ONE, golden.value(50), 1 + mp.mpf(2) ** -30, 20, 0.01)
    assert len(float_calls) == 1


def generic_phase_of_record(phi, record):
    """phi(n) as the product 1 * ph1**e1 * ph2**e2 * ..., the reference the
    shortcuts of PhiAssignment.phase_of_record must reproduce bit for bit."""
    total = 1
    for key, e in record.admissible_part:
        ph = phi.nontrivial.get(key)
        if ph is not None:
            total = total * ph**e
    return total


@pytest.mark.parametrize("phase_dps", [60, 80], ids=["at_working", "wider"])
def test_phase_of_record_matches_generic_product(phase_dps):
    keys = [PrimeIdealKey(p, 3) for p in (41, 43, 47, 53, 59)]
    phi = PhiAssignment()
    with mp.workdps(phase_dps):
        phases = [mp.expj(mp.mpf("0.3")), mp.expj(mp.mpf(-2) / 7), mp.mpc(-1), mp.mpc(0, 1)]
    with mp.workdps(60):
        for key, ph in zip(keys, phases):
            phi._table[key] = phi.nontrivial[key] = ph  # as stored, not re-checked
        trivial = keys[4]
        phi.ensure_one(trivial)
        parts = [
            ((keys[0], 1),),  # one key, e = 1
            ((keys[1], 1), (trivial, 1)),  # one key among trivial ones
            ((keys[0], 1), (keys[1], 1)),  # two keys
            ((keys[1], 2),),  # e = 2
            ((keys[0], 3), (keys[1], 1)),
            ((keys[2], 1),), ((keys[3], 1),), ((keys[3], 2), (keys[2], 1)),  # -1 and i
        ]
        for part in parts:
            rec = IdealFactorizationRecord(1, part, 1)
            got, ref = phi.phase_of_record(rec), generic_phase_of_record(phi, rec)
            assert got._mpc_ == ref._mpc_, part
        rec = IdealFactorizationRecord(1, ((trivial, 1),), 1)
        assert phi.phase_of_record(rec) == 1 and type(phi.phase_of_record(rec)) is int


def double_rounding_phase(digits):
    """A unit phase at digits + 30 digits whose real part mp.nstr writes
    differently once it is rounded to digits + 10 digits first, as
    mp.mpc(ph) rounds it: a part just below where nstr(., digits) steps,
    found by bisection, that rounds to past that step."""
    for k in range(100):
        with mp.workdps(digits + 30):
            ulp = mp.mpf(10) ** -digits  # of `digits` significant digits in [0.1, 1)
            lo = mp.mpf(1) / 10 + (12345 + k + mp.mpf("0.4")) * ulp
            hi = lo + ulp / 5
            for _ in range(120):
                mid = (lo + hi) / 2
                if mp.nstr(mid, digits) == mp.nstr(lo, digits):
                    lo = mid
                else:
                    hi = mid
            z = mp.mpc(lo, mp.sqrt(1 - lo * lo))
        with mp.workdps(digits + 10):
            if mp.nstr(+lo, digits) != mp.nstr(lo, digits):
                return z
    raise AssertionError("no double-rounding case found")


@pytest.mark.parametrize("digits", [30, 50])
def test_log_rows_match_nstr(digits):
    # the stored parts formatted directly give the strings mp.nstr gave
    # after an mpc copy, which rounds to digits + 10 digits; tiny components
    # exercise the exponent form
    def phases():
        yield mp.mpc(-1)
        yield mp.mpc(0, 1)
        yield mp.mpc(0, -1)
        for theta in ("1e-45", "1e-70", "0.3"):
            yield mp.expj(mp.mpf(theta))
            yield mp.expj(mp.mpf(theta)) * mp.mpc(0, 1)  # the tiny part in re
        yield double_rounding_phase(digits)

    for phase_dps in (digits + 10, 60):
        phi = PhiAssignment()
        expected = []
        with mp.workdps(phase_dps):
            for i, ph in enumerate(phases()):
                phi.set_phase(PrimeIdealKey(61, i), ph)
        phi.set_phase(PrimeIdealKey(67, 0), mp.mpc(1))  # trivial
        with mp.workdps(digits + 10):
            for key, ph in phi.items():
                if key in phi.nontrivial:
                    z = mp.mpc(ph)
                    expected.append((key.p, key.root, mp.nstr(mp.re(z), digits),
                                     mp.nstr(mp.im(z), digits)))
                else:
                    expected.append((key.p, key.root, "1", "0"))
        rows = phi.log_rows(digits)
        assert rows == expected
        assert any("e-45" in row[2] for row in rows) and any("e-70" in row[3] for row in rows)
