import cmath
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghzeta.arith import PeriodicFunction
from ghzeta import zeros as zeros_module
from ghzeta.structure import decompose, rational_series
from ghzeta.zeros import (
    BoundaryTooCloseToZero,
    Rectangle,
    UnresolvedZeros,
    ZeroSearchResult,
    _evaluated_once,
    _polynomial_zero_free,
    decomposition_evaluator,
    dirichlet_polynomial_zeros,
    periodic_series_evaluator,
    polished_zero,
    polynomial_evaluator,
    polynomial_sigma_bound,
    winding_number,
    zero_search,
)
from oracles import hurwitz_evaluator, winding_reference

LOG2_3 = math.log2(3)
T_STEP = 2 * math.pi / math.log(2)


def closed_form_fixture():
    """F(s) = (1 - 3*2^-s) zeta(s), realized through the decomposition."""
    series = rational_series(PeriodicFunction(2, (1, -2)), Fraction(1))[0]
    return decomposition_evaluator(decompose(series))


FIX = closed_form_fixture()


def explicit_fixture(s):
    sc = complex(s)
    # independent closed form for cross-checks
    import mpmath

    return (1 - 3 * 2**-sc) * complex(mpmath.zeta(mpmath.mpc(sc.real, sc.imag)))


def test_fixture_against_closed_form():
    rng = random.Random(2)
    for _ in range(12):
        s = complex(rng.uniform(1.2, 2.5), rng.uniform(-20, 20))
        assert abs(FIX(s) - explicit_fixture(s)) < 1e-9


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(2, 1, 0, 1)
    r = Rectangle(1, 2, 3, 4)
    assert r.contains(complex(1.5, 3.5))
    assert not r.contains(complex(0.5, 3.5))


def test_winding_zeta_zero_free():
    res = winding_number(hurwitz_evaluator(1.0), Rectangle(1.2, 2.0, 0.0, 30.0))
    assert res.winding == 0
    assert res.min_boundary_modulus > 0
    assert res.samples > 100


def test_winding_fixture_cells():
    assert winding_number(FIX, Rectangle(1.4, 1.8, 8, 10)).winding == 1
    assert winding_number(FIX, Rectangle(1.4, 1.8, 2, 7)).winding == 0


def test_winding_additivity():
    rng = random.Random(77)
    for _ in range(50):
        s0 = rng.uniform(1.2, 1.9)
        w = rng.uniform(0.2, 0.5)
        t0 = rng.uniform(0.5, 35)
        h = rng.uniform(0.8, 4)
        rect = Rectangle(s0, s0 + w, t0, t0 + h)
        frac = rng.uniform(0.3, 0.7)
        mid = t0 + frac * h
        try:
            whole = winding_number(FIX, rect).winding
            lower = winding_number(FIX, Rectangle(s0, s0 + w, t0, mid)).winding
            upper = winding_number(FIX, Rectangle(s0, s0 + w, mid, t0 + h)).winding
        except BoundaryTooCloseToZero:
            continue  # a split line grazed a zero; additivity needs clean boundaries
        assert whole == lower + upper


def test_zero_search_fixture():
    res = zero_search(FIX, Rectangle(1.3, 1.9, 0, 30), (4, 16))
    assert isinstance(res, ZeroSearchResult)
    assert len(res.zeros) == 4
    expected_ts = [0.0, T_STEP, 2 * T_STEP, 3 * T_STEP]
    for z, t_exp in zip(res.zeros, expected_ts):
        assert abs(z.real - LOG2_3) < 1e-6
        assert abs(z.imag - t_exp) < 1e-5
    for cell in res.cells:
        for z, resid in cell.refined_zeros:
            assert resid < 1e-8
            assert cell.rectangle.contains(z, slack=0.05)


def test_zero_search_hurwitz_half_zero_free():
    res = zero_search(hurwitz_evaluator(0.5), Rectangle(1.1, 2.0, 0, 50), (3, 10))
    assert res.zeros == []


def test_zero_search_requires_half_plane():
    with pytest.raises(ValueError):
        zero_search(FIX, Rectangle(0.9, 2.0, 0, 5), (2, 2))


@pytest.mark.parametrize("sigma_min", [0.5, 1.0])
def test_zero_free_seam_does_not_lift_the_half_plane_rule(sigma_min):
    # a seam that bounds every cell leaves none to wind, so the rule must be
    # checked on the region before the first cell
    seen = []

    def series(z):
        seen.append(z)
        return 1.0

    with pytest.raises(ValueError, match="zero searches live strictly in sigma > 1"):
        zero_search(series, Rectangle(sigma_min, 1.9, 0, 5), (1, 1), lambda cell: seen.append(cell) or 1.0)
    assert seen == []


def test_polished_zero_reaches_the_float_floor():
    poly = {1: 1, 2: -3}
    P = polynomial_evaluator(poly)
    for k in range(3):
        w = complex(LOG2_3, k * T_STEP)
        z = polished_zero(poly, w + complex(3e-9, -2e-9))
        assert abs(z - w) < 1e-13 and abs(P(z)) < 1e-14


def test_polished_zero_keeps_a_point_newton_carries_away():
    # Newton from 1e-3 off log2 3 converges there, but farther than
    # ZERO_TOL from the start, so the start is kept
    start = complex(LOG2_3 + 1e-3, 0.0)
    assert polished_zero({1: 1, 2: -3}, start) == start


@pytest.mark.parametrize("grid", [(0, 4), (3, -1), (0, 0)])
def test_zero_search_rejects_non_positive_grid(grid):
    # (3, -1) used to give no cells at all, hiding the zero at log2(3)
    with pytest.raises(ValueError, match="grid dimensions must be positive"):
        zero_search(FIX, Rectangle(1.3, 1.9, 0, 30), grid)


def test_conjugate_symmetry():
    lower = zero_search(FIX, Rectangle(1.3, 1.9, -30, 0), (4, 16))
    upper = zero_search(FIX, Rectangle(1.3, 1.9, 0, 30), (4, 16))
    lows = sorted(round(-z.imag, 5) for z in lower.zeros)
    ups = sorted(round(z.imag, 5) for z in upper.zeros)
    assert lows == ups
    assert len(lower.zeros) == 4


def test_boundary_zero_raises_and_search_recovers():
    # zero exactly on the t = 0 edge
    with pytest.raises(BoundaryTooCloseToZero):
        winding_number(FIX, Rectangle(LOG2_3 - 0.1, LOG2_3 + 0.1, 0.0, 1.0))
    res = zero_search(FIX, Rectangle(1.5, 1.7, 0.0, 1.0), (2, 2))
    assert len(res.zeros) == 1
    assert abs(res.zeros[0] - complex(LOG2_3, 0)) < 1e-6


def test_polynomial_sigma_bound_and_zeros():
    poly = {1: 1, 2: -3}
    bound = polynomial_sigma_bound(poly)
    assert bound > LOG2_3
    P = polynomial_evaluator(poly)
    assert abs(P(complex(LOG2_3, 0))) < 1e-12
    zeros, region = dirichlet_polynomial_zeros(poly, t_max=30)
    assert len(zeros) == 4
    assert all(abs(z.real - LOG2_3) < 1e-6 for z in zeros)


def test_polynomial_complex_coefficients_scan_both_signs():
    # 1 - c 2^-s with complex c: zeros at log2|c| + i (arg c + 2 pi k)/ln 2,
    # not conjugate-symmetric, so negative heights must be scanned too
    c = 3 * cmath.exp(1j * 0.8)
    zeros, region = dirichlet_polynomial_zeros({1: 1, 2: -c}, t_max=12)
    assert region[2] == -12
    t0 = 0.8 / math.log(2)
    expected = sorted(t0 + k * T_STEP for k in (-1, 0, 1))
    assert len(zeros) == 3
    for z, t_exp in zip(sorted(zeros, key=lambda w: w.imag), expected):
        assert abs(z.real - LOG2_3) < 1e-6
        assert abs(z.imag - t_exp) < 1e-5


def test_polynomial_no_zeros_in_half_plane():
    zeros, _ = dirichlet_polynomial_zeros({1: 1, 2: -1}, t_max=20)  # 1 - 2^(1-s), zeros on sigma = 1
    assert zeros == []
    zeros2, _ = dirichlet_polynomial_zeros({1: 1}, t_max=20)
    assert zeros2 == []


def test_exploratory_scan_near_one():
    # alpha = 1/3 close to the sigma = 1 line: the scan must run cleanly
    # and report whatever it finds (no effective bound says where the
    # first zero lives, so no location is asserted)
    dec = decompose(rational_series(PeriodicFunction(1, (1,)), Fraction(1, 3))[0])
    F = decomposition_evaluator(dec, prefactor=3)
    res = zero_search(F, Rectangle(1.001, 1.2, 0, 8), (2, 4))
    assert len(res.cells) == 8
    assert all(c.winding >= 0 for c in res.cells)
    for z in res.zeros:
        assert abs(F(z)) < 1e-8


def test_periodic_series_evaluator_matches_decomposition():
    f = PeriodicFunction(2, (1, -2))
    direct = periodic_series_evaluator(f, 1.0)
    rng = random.Random(4)
    for _ in range(6):
        s = complex(rng.uniform(1.3, 2.2), rng.uniform(0, 25))
        assert abs(direct(s) - FIX(s)) < 1e-9


def test_lifted_decomposition_evaluator():
    # alpha = 1/3: F = 3^s * combination; compare against per-class evaluation
    dec = decompose(rational_series(PeriodicFunction(1, (1,)), Fraction(1, 3))[0])
    F = decomposition_evaluator(dec, prefactor=3)
    direct = periodic_series_evaluator(PeriodicFunction(1, (1,)), 1 / 3)
    rng = random.Random(6)
    for _ in range(5):
        s = complex(rng.uniform(1.4, 2.5), rng.uniform(-10, 10))
        assert abs(F(s) - direct(s)) < 1e-8


def counting(series):
    """series plus the exact bits of every point it was called at."""
    calls = []

    def F(s):
        calls.append(struct.pack("<2d", s.real, s.imag))
        return series(s)

    return F, calls


def test_zero_search_evaluates_each_point_once(monkeypatch):
    F, calls = counting(FIX)
    region = Rectangle(1.3, 1.9, 0, 30)
    res = zero_search(F, region, (2, 4))
    # the zero on the t = 0 edge made one cell retry with padding
    assert any(c.rectangle.t_min < region.t_min for c in res.cells)
    assert len(res.zeros) == len(res.residuals) >= 3
    assert len(calls) == len(set(calls))
    for z, resid in zip(res.zeros, res.residuals):
        assert resid == abs(FIX(z)) < 1e-8
    # without the table, neighbouring cells evaluate shared points again
    monkeypatch.setattr(zeros_module, "_evaluated_once", lambda series: series)
    G, repeated = counting(FIX)
    again = zero_search(G, region, (2, 4))
    assert set(repeated) == set(calls) and len(repeated) > len(calls)
    assert again == res


def test_zero_search_cells_match_lone_winding():
    res = zero_search(FIX, Rectangle(1.3, 1.9, 0, 30), (2, 4))
    for cell in res.cells:
        alone = winding_number(FIX, cell.rectangle)
        assert (cell.winding, cell.min_boundary_modulus, cell.samples) == (
            alone.winding, alone.min_boundary_modulus, alone.samples)


def test_signed_zero_points_evaluated_apart():
    F, calls = counting(lambda s: complex(math.copysign(1.0, s.imag), 0))
    table = _evaluated_once(F)
    assert table(complex(1.5, 0.0)) == 1
    assert table(complex(1.5, -0.0)) == -1
    assert table(complex(1.5, 0.0)) == 1 and table(complex(1.5, -0.0)) == -1
    assert len(calls) == 2


def planted_poly(c, d):
    """(1 - c 2^-s)(1 - d 3^-s) as a coefficient dict."""
    return {1: 1, 2: -c, 3: -d, 6: c * d}


def planted_product(c, d, t_max):
    """(1 - c 2^-s)(1 - d 3^-s) for real c, d > 1, and its zeros
    log_n(a) + 2 pi i k / ln n with 0 <= t <= t_max."""
    poly = planted_poly(c, d)
    zeros = [complex(math.log(a, n), 2 * math.pi * k / math.log(n))
             for a, n in ((c, 2), (d, 3)) for k in range(int(t_max * math.log(n) / (2 * math.pi)) + 1)]
    return polynomial_evaluator(poly), zeros


@pytest.mark.parametrize("c, d", [(3.0, 3**1.3), (2.5, 5.0)])
@pytest.mark.parametrize("grid", [(1, 3), (1, 6), (2, 7), (3, 5)])
def test_every_cell_accounts_for_its_winding(c, d, grid):
    # (1, 3) and (1, 6) put the two zeros at t = 0 in one cell; (2, 7) and
    # (3, 5) used to lose zeros whose secant ended in a neighbouring cell
    P, planted = planted_product(c, d, 20)
    res = zero_search(P, Rectangle(1.1, 1.9, -1, 20), grid)
    if grid[0] == 1:
        assert any(cell.winding >= 2 for cell in res.cells)
    for cell in res.cells:
        assert len(cell.refined_zeros) + cell.unresolved == cell.winding
        assert cell.unresolved == 0
    assert len(res.zeros) == len(planted) == sum(cell.winding for cell in res.cells)
    for w in planted:
        assert sum(abs(z - w) < 1e-6 for z in res.zeros) == 1


def test_double_zero_cell_is_unresolved_not_dropped():
    P = polynomial_evaluator({1: 1, 2: -6, 4: 9})  # (1 - 3 2^-s)^2
    res = zero_search(P, Rectangle(1.3, 1.9, -1, 10), (1, 2))
    assert [cell.winding for cell in res.cells] == [2, 2]
    for cell in res.cells:
        assert cell.unresolved >= 1
        assert len(cell.refined_zeros) + cell.unresolved == cell.winding
    for z in res.zeros:  # |F| ~ distance^2 here, so 1e-8 residuals place it to ~1e-4
        assert abs(z.real - LOG2_3) < 1e-4


def test_secant_ending_outside_its_cell_falls_back_to_quadrants():
    # from the cell centre the secant runs to b, a zero just outside the
    # cell; the zero a the cell winds around must be found all the same
    a, b = complex(1.25, 0.2), complex(1.9, 2.0)
    F, calls = counting(lambda s: (s - a) * (s - b))
    res = zero_search(F, Rectangle(1.2, 1.8, 0, 4), (1, 1))
    assert any(abs(complex(*struct.unpack("<2d", p)) - b) < 1e-6 for p in calls)
    (cell,) = res.cells
    assert (cell.winding, cell.unresolved) == (1, 0)
    assert len(res.zeros) == 1 and abs(res.zeros[0] - a) < 1e-8


def test_polynomial_scan_with_only_unresolved_cells_raises(monkeypatch):
    monkeypatch.setattr(zeros_module, "_refine",
                        lambda series, cell, winding, depth=0: ([], winding))
    with pytest.raises(UnresolvedZeros, match=r"cell \(1\.5075, 2\.005, -0\.25, 1\.2625\) winds 1 times"):
        dirichlet_polynomial_zeros({1: 1, 2: -3}, t_max=30)


# ---------------------------------------------------------------------------
# the lean winding loop against the reference, and zero-free cells


COLUMN_EDGE = 2 ** (1.01 + (3.0 - 1.01) / 4)  # 1 - c 2^-s with its zeros on a column boundary


def wind_outcome(wind, series, rect):
    """(winding, min modulus bits, samples), or the exception's type and text."""
    try:
        res = wind(series, rect)
    except BoundaryTooCloseToZero as exc:
        return type(exc), str(exc)
    return res.winding, struct.pack("<d", res.min_boundary_modulus), res.samples


coefficient = st.one_of(
    st.floats(-8, 8).filter(lambda x: abs(x) > 0.05),
    st.builds(cmath.rect, st.floats(0.05, 8), st.floats(-math.pi, math.pi)),
)


@st.composite
def poly_and_cell(draw, log_size=(-2.0, 0.7)):
    """A 2-4 term polynomial whose terms are of one size near a drawn sigma,
    and a rectangle in sigma > 1 at or near that sigma, so that the cell
    often winds around or passes close to zeros."""
    sigma = draw(st.floats(1.2, 3.5))
    ns = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True))
    poly = {n: draw(coefficient) * n ** sigma for n in ns}
    s0 = max(1.01, sigma + draw(st.floats(-1.0, 0.5)))
    t0 = draw(st.floats(-5.0, 40.0))
    w, h = (10 ** draw(st.floats(*log_size)) for _ in range(2))
    return poly, Rectangle(s0, s0 + w, t0, t0 + h)


@settings(max_examples=300)
@given(poly_and_cell())
def test_lean_winding_matches_reference(case):
    poly, rect = case
    P = polynomial_evaluator(poly)
    assert wind_outcome(winding_number, P, rect) == wind_outcome(winding_reference, P, rect)


@pytest.mark.parametrize("series, rect", [
    (polynomial_evaluator({1: 1, 2: -3}), Rectangle(1.5, 1.7, 0.0, 1.0)),  # edge through log2 3
    (polynomial_evaluator({1: 1, 2: -3}), Rectangle(LOG2_3, 1.8, -0.5, 0.5)),
    (polynomial_evaluator({1: 1, 2: -3}), Rectangle(LOG2_3, 1.8, 0.0, 0.5)),
    (FIX, Rectangle(LOG2_3 - 0.1, LOG2_3 + 0.1, 0.0, 1.0)),
    (FIX, Rectangle(1.3, 1.9, 0, 30)),
    (hurwitz_evaluator(1.0), Rectangle(1.2, 2.0, 0.0, 30.0)),
])
def test_lean_winding_matches_reference_on_fixed_cells(series, rect):
    assert wind_outcome(winding_number, series, rect) == wind_outcome(winding_reference, series, rect)


@pytest.mark.parametrize("poly, kinds", [
    ({1: 1, 2: -COLUMN_EDGE}, {0, 1, BoundaryTooCloseToZero}),
    ({1: 1, 2: -6, 4: 9}, {0, 1, 2}),
    ({1: 1, 2: -3 * cmath.exp(1j * 0.8)}, {0, 1}),
])
def test_lean_winding_matches_reference_through_whole_scans(monkeypatch, poly, kinds):
    # every cell, padded retry and refinement quadrant of a scan that winds
    # every cell, with its zeros on cell edges and inside cells
    outcomes = []

    def both(series, rect):
        lean = wind_outcome(winding_number, series, rect)
        assert lean == wind_outcome(winding_reference, series, rect)
        outcomes.append(lean)
        return winding_number(series, rect)

    monkeypatch.setattr(zeros_module, "winding_number", both)
    monkeypatch.setattr(zeros_module, "_polynomial_zero_free", lambda poly: lambda cell: None)
    try:
        dirichlet_polynomial_zeros(poly, t_max=12)
    except UnresolvedZeros:
        pass
    assert {o[0] for o in outcomes} == kinds


def test_double_zero_cell_still_aliases_in_both_loops():
    # (1 - 3 2^-s)^2 has a double zero at log2 3 inside this cell; both
    # loops read 1 (the known aliasing of 8 samples per edge), not 2
    P = polynomial_evaluator({1: 1, 2: -6, 4: 9})
    rect = Rectangle(1.525, 1.6, -0.3125, 0.375)
    lean = wind_outcome(winding_number, P, rect)
    assert lean == wind_outcome(winding_reference, P, rect)
    assert lean[0] == 1


def assert_exclusion_sound(poly, rect):
    m = _polynomial_zero_free(poly)(rect)
    if m is None:
        return False
    res = winding_reference(polynomial_evaluator(poly), rect)
    assert res.winding == 0
    assert res.min_boundary_modulus >= m * (1 - 1e-12)
    return True


@settings(max_examples=200)
@given(poly_and_cell(log_size=(-5.0, 0.5)))
def test_zero_free_exclusion_is_sound(case):
    assert_exclusion_sound(*case)


@given(st.sampled_from([2, 3, 5]), coefficient, st.floats(-6, -1), st.booleans(),
       st.floats(-5.0, 40.0), st.floats(-5.0, -0.7), st.floats(-5.0, 0.0))
def test_zero_free_exclusion_is_sound_next_to_the_zero_line(n, c, log_gap, right, t0, log_w, log_h):
    # 1 - c n^-s vanishes on sigma = log_n |c|; put the cell 10^log_gap
    # to its right or left, with |c| chosen so that line is in sigma > 1
    c = c / abs(c) * n ** (1.5 + abs(c) / 4)
    line = math.log(abs(c), n)
    w, h = 10 ** log_w, 10 ** log_h
    s0 = line + 10 ** log_gap if right else line - 10 ** log_gap - w
    assert_exclusion_sound({1: 1, n: -c}, Rectangle(s0, s0 + w, t0, t0 + h))


def test_zero_free_exclusion_reaches_its_floors():
    # small cells beside 1 - 3 2^-s are excluded down to m ~ 1e-6 M, and
    # each one is sound; a cell straddling the zero line never is
    poly = {1: 1, 2: -3}
    excluded = [assert_exclusion_sound(poly, Rectangle(LOG2_3 + g, LOG2_3 + g + 1e-5, 3.0, 3.0 + 1e-5))
                for g in (1e-7, 2e-6, 4e-6, 1e-4)]
    assert excluded == [False, False, True, True]  # m / M ~ 0.7e-6, 1.4e-6 at 2e-6, 4e-6
    assert _polynomial_zero_free(poly)(Rectangle(LOG2_3 - 1e-3, LOG2_3 + 1e-3, 0.0, 1e-3)) is None


@pytest.mark.parametrize("poly, t_max", [
    ({1: 1, 3: -4}, 30.0),
    ({1: 1, 3: -6}, 30.0),
    ({1: 1, 2: 3}, 30.0),
    ({1: 1, 2: -3}, 30.0),
    ({1: 1, 2: -3 * cmath.exp(1j * 0.8)}, 12.0),
    (planted_poly(3.0, 3**1.3), 30.0),
    ({1: 1, 2: -COLUMN_EDGE}, 30.0),
])
def test_polynomial_scan_matches_winding_every_cell(monkeypatch, poly, t_max):
    zeros, region = dirichlet_polynomial_zeros(poly, t_max=t_max)
    monkeypatch.setattr(zeros_module, "_polynomial_zero_free", lambda poly: lambda cell: None)
    every_zeros, every_region = dirichlet_polynomial_zeros(poly, t_max=t_max)
    assert region == every_region
    bits = [struct.pack("<2d", z.real, z.imag) for z in zeros]
    assert bits == [struct.pack("<2d", z.real, z.imag) for z in every_zeros]
    assert zeros


def test_polynomial_scan_winds_only_the_zero_line_column(monkeypatch):
    seen = []

    def recording(*args):
        seen.append(zero_search(*args))
        return seen[-1]

    monkeypatch.setattr(zeros_module, "zero_search", recording)
    dirichlet_polynomial_zeros({1: 1, 2: -3}, t_max=30)
    (res,) = seen
    wound = {c.rectangle.sigma_min for c in res.cells if c.samples}
    assert wound == {1.5075}  # the column [1.5075, 2.005] holds sigma = log2 3
    for cell in res.cells:
        if not cell.samples:
            assert cell.winding == 0 and cell.min_boundary_modulus > 0
