"""Zero location in sigma > 1 by boundary argument tracking.

The winding number of F around a rectangle counts interior zeros with
multiplicity (F is analytic and pole-free in the searched half-plane).
Argument increments are accumulated along adaptively refined boundary
samples; a step is accepted only when the local phase change stays below
pi/2, which pins the branch.  Each winding cell is refined (`_refine`)
into located zeros plus an `unresolved` count that add up to its winding.

A search may skip cells certified zero-free: the Dirichlet polynomial scan
bounds |P| from below over each cell (`_polynomial_zero_free`) and winds
only the cells it cannot bound, which gives the same zeros.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass, field

from .arith import PeriodicFunction
from .zeta import EXPLORE, f_eval, hurwitz_zeta

REL_MODULUS_FLOOR = 1e-12
MAX_EDGE_DEPTH = 20
_PHASE_CAP = math.pi / 2


class BoundaryTooCloseToZero(ArithmeticError):
    """|F| collapsed on the boundary (or the phase kept jumping after full
    subdivision); perturb the rectangle and retry."""


class UnresolvedZeros(ArithmeticError):
    """A scan found winding it could not turn into located zeros."""


@dataclass(frozen=True)
class Rectangle:
    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float

    def __post_init__(self):
        if not (self.sigma_min < self.sigma_max and self.t_min < self.t_max):
            raise ValueError("rectangle must have positive area")

    def corners(self):
        return (
            complex(self.sigma_min, self.t_min),
            complex(self.sigma_max, self.t_min),
            complex(self.sigma_max, self.t_max),
            complex(self.sigma_min, self.t_max),
        )

    def contains(self, z, slack=0.0):
        return (self.sigma_min - slack <= z.real <= self.sigma_max + slack
                and self.t_min - slack <= z.imag <= self.t_max + slack)

    def padded(self, d_sigma, d_t):
        return Rectangle(self.sigma_min - d_sigma, self.sigma_max + d_sigma,
                         self.t_min - d_t, self.t_max + d_t)

    def as_tuple(self):
        return (self.sigma_min, self.sigma_max, self.t_min, self.t_max)


@dataclass
class WindingResult:
    """The winding of F around one cell.  A cell that `zero_search` skipped
    as certified zero-free has `samples` 0, and its `min_boundary_modulus`
    is the certified lower bound on |F| over the whole cell."""

    rectangle: Rectangle
    winding: int
    min_boundary_modulus: float
    samples: int
    refined_zeros: list = field(default_factory=list)  # (zero, |F(zero)|)
    unresolved: int = 0  # winding not accounted for by refined_zeros


def require_half_plane(rect: Rectangle):
    """Raise ValueError unless the rectangle lies in sigma > 1: a pole at
    s = 1 inside it would cancel the winding of a zero."""
    if rect.sigma_min <= 1:
        raise ValueError("zero searches live strictly in sigma > 1")


def winding_number(series, rect: Rectangle) -> WindingResult:
    """Track arg F around the rectangle boundary, counterclockwise.

    `series` is any callable s -> complex.  The rectangle must lie in
    sigma > 1 (`require_half_plane`, checked before any evaluation), so
    every wound rectangle, retry padding included, stays off the pole.
    The total phase change must close up to a multiple of 2*pi within
    1e-6; the winding is that multiple.  Raises BoundaryTooCloseToZero when
    |F| dips under 1e-12 of the boundary maximum or a phase jump survives
    20 subdivision levels.

    Each edge is first sampled at `_edge_steps` equal steps; only a step
    whose phase change is not under pi/2 (or that meets an exact zero) is
    handed to `_tracked_delta` to be halved.
    """
    require_half_plane(rect)
    corners = rect.corners()
    probed = [complex(series(z)) for z in corners]
    total = 0.0
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        n0 = _edge_steps(abs(z1 - z0))
        zs = [z0] + [z0 + (z1 - z0) * k / n0 for k in range(1, n0)] + [z1]
        inner = [complex(series(z)) for z in zs[1:-1]]
        probed += inner
        vs = [probed[i]] + inner + [probed[(i + 1) % 4]]
        for k in range(n0):
            va, vb = vs[k], vs[k + 1]
            if va and vb:
                d = cmath.phase(vb / va)
                if -_PHASE_CAP < d < _PHASE_CAP:
                    total += d
                    continue
            total += _tracked_delta(series, probed, zs[k], zs[k + 1], va, vb, 0, rect)

    moduli = [abs(v) for v in probed]
    lo, hi = min(moduli), max(moduli)
    if lo < REL_MODULUS_FLOOR * hi:
        raise BoundaryTooCloseToZero(
            f"min |F| = {lo:.3e} on the boundary of {rect.as_tuple()}"
        )
    k = round(total / (2 * math.pi))
    if abs(total - 2 * math.pi * k) > 1e-6:
        raise BoundaryTooCloseToZero(
            f"argument failed to close around {rect.as_tuple()}: {total}"
        )
    return WindingResult(rect, int(k), lo, len(probed))


def _edge_steps(length):
    """Number of equal first-pass steps `winding_number` takes along an edge."""
    return max(8, int(length * 8))


def _tracked_delta(series, probed, za, zb, va, vb, depth, rect):
    """Phase change from za to zb, halving the step until each piece turns
    by less than pi/2; every midpoint value is appended to `probed`."""
    if va == 0 or vb == 0:
        raise BoundaryTooCloseToZero(f"exact boundary zero near {za} on {rect.as_tuple()}")
    d = cmath.phase(vb / va)
    if abs(d) < _PHASE_CAP:
        return d
    if depth >= MAX_EDGE_DEPTH:
        raise BoundaryTooCloseToZero(
            f"phase jump persisted after {MAX_EDGE_DEPTH} subdivisions near {za}"
        )
    zm = (za + zb) / 2
    vm = complex(series(zm))
    probed.append(vm)
    return (_tracked_delta(series, probed, za, zm, va, vm, depth + 1, rect)
            + _tracked_delta(series, probed, zm, zb, vm, vb, depth + 1, rect))


# ---------------------------------------------------------------------------
# search + refinement


@dataclass
class ZeroSearchResult:
    cells: list
    zeros: list  # refined, deduplicated; each inside the (padded) cell that wound it
    residuals: list  # |F(zero)| for each of `zeros`


RESIDUAL_TARGET = 1e-8
MAX_REFINE_DEPTH = 6
ZERO_TOL = 1e-6  # zeros closer than this are one; a zero this far out of a cell is in it
MAX_POLISH_STEPS = 8

_point_bits = struct.Struct("<2d").pack


def _evaluated_once(series):
    """`series` behind a table that evaluates each sample point once.

    The key is the exact bits of the point, so +0.0 and -0.0 parts stay
    apart; the table lives as long as the returned callable."""
    table = {}

    def F(z):
        key = _point_bits(z.real, z.imag)
        v = table.get(key)
        if v is None:
            v = table[key] = complex(series(z))
        return v

    return F


def zero_search(series, region: Rectangle, grid=(4, 8), zero_free=None) -> ZeroSearchResult:
    """Cover the region with a grid of cells, wind each, and refine every
    winding cell to its zeros.  Cells whose boundary passes too close to a
    zero are retried with slight outward padding, so zeros sitting on grid
    lines (or on the region boundary itself) are still caught; duplicates
    from overlapping padded cells are merged at the end.

    `zero_free(cell)`, when given, returns a certified lower bound m on
    |F| over the closed cell, or None.  A cell with a bound is not wound:
    it is recorded as `WindingResult(cell, 0, m, 0)`.  The predicate must
    only bound cells that `winding_number` would wind to 0 without raising.
    The region must lie in sigma > 1 (`require_half_plane`, checked before
    the first cell), so a cell the predicate bounds is held to it too.

    Adjacent cells share corners and edge samples, so the whole search
    reads `series` through one table (`_evaluated_once`): each distinct
    point is evaluated once, while each cell's `samples` still counts every
    sample its boundary used."""
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise ValueError(f"grid dimensions must be positive, got {nx}x{ny}")
    require_half_plane(region)
    dx = (region.sigma_max - region.sigma_min) / nx
    dy = (region.t_max - region.t_min) / ny
    series = _evaluated_once(series)
    cells = []
    found = []
    for i in range(nx):
        for j in range(ny):
            cell = Rectangle(
                region.sigma_min + i * dx, region.sigma_min + (i + 1) * dx,
                region.t_min + j * dy, region.t_min + (j + 1) * dy,
            )
            m = zero_free(cell) if zero_free else None
            if m is not None:
                cells.append(WindingResult(cell, 0, m, 0))
                continue
            res = _wind_with_retries(series, cell, dx, dy)
            if res.winding > 0:
                zeros, res.unresolved = _refine(series, res.rectangle, res.winding)
                res.refined_zeros = [(z, abs(series(z))) for z in zeros]
                found.extend(zeros)
            cells.append(res)
    zeros = _dedupe(found)
    return ZeroSearchResult(cells, zeros, [abs(series(z)) for z in zeros])


def _wind_with_retries(series, cell, dx, dy):
    """Wind the cell, padded outward a little more after each boundary
    failure; sigma is padded by at most half the cell's distance to 1."""
    pad = 0.0
    for attempt in range(6):
        rect = cell.padded(min(pad, (cell.sigma_min - 1) / 2), pad) if pad else cell
        try:
            return winding_number(series, rect)
        except BoundaryTooCloseToZero:
            pad = (pad + 0.013 * min(dx, dy)) * 1.7
    raise BoundaryTooCloseToZero(
        f"cell {cell.as_tuple()} unusable even after boundary perturbation"
    )


def _refine(series, cell, winding, depth=0):
    """(zeros, unresolved) of a cell that winds `winding` times; the two
    add up to `winding`.

    A cell that winds once runs a complex secant iteration from its centre
    (abandoned when a step leaves the cell padded by its own size plus 0.5);
    the end point counts if |F| < RESIDUAL_TARGET there and it lies in the
    cell, not a neighbour.  Otherwise the cell is split into quadrants, and
    each quadrant that winds is refined in turn.  Winding still without a
    zero after MAX_REFINE_DEPTH splits (a multiple zero, a quadrant that
    cannot be wound) is unresolved."""
    width, height = cell.sigma_max - cell.sigma_min, cell.t_max - cell.t_min
    if winding == 1:
        z0 = complex((cell.sigma_min + cell.sigma_max) / 2, (cell.t_min + cell.t_max) / 2)
        z1 = z0 + complex(width, height) * 0.07
        f0, f1 = series(z0), series(z1)
        bail = cell.padded(width, height)
        for _ in range(80):
            if (abs(f1) < RESIDUAL_TARGET and abs(f1) <= abs(f0)) or f1 == f0:
                break
            z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
            if not bail.contains(z2, slack=0.5):
                break
            z0, f0, z1 = z1, f1, z2
            f1 = series(z1)
        if abs(f1) < RESIDUAL_TARGET and cell.contains(z1, ZERO_TOL):
            return [z1], 0
    found = []
    if depth < MAX_REFINE_DEPTH:
        w, h = width / 2, height / 2
        for i in range(2):
            for j in range(2):
                quad = Rectangle(cell.sigma_min + i * w, cell.sigma_min + (i + 1) * w,
                                 cell.t_min + j * h, cell.t_min + (j + 1) * h)
                try:
                    res = _wind_with_retries(series, quad, w, h)
                except BoundaryTooCloseToZero:
                    continue  # its winding stays unaccounted, so unresolved
                if res.winding > 0:
                    found += _refine(series, res.rectangle, res.winding, depth + 1)[0]
    zeros = [z for z in _dedupe(found) if cell.contains(z, ZERO_TOL)][:winding]
    return zeros, winding - len(zeros)


def _dedupe(found):
    """Zeros sorted by (t, sigma), keeping the first of zeros within ZERO_TOL."""
    out = []
    for z in sorted(found, key=lambda z: (z.imag, z.real)):
        if all(abs(z - w) > ZERO_TOL for w in out):
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# evaluators


def periodic_series_evaluator(f: PeriodicFunction, alpha):
    """s -> F(s, f, alpha) by per-class Euler-Maclaurin (any real shift)."""

    def F(s):
        return complex(f_eval(s, f, alpha, EXPLORE).value)

    return F


def decomposition_evaluator(decomp, prefactor: int = 1):
    """s -> prefactor^s * sum_chi P_chi(s) L(s, chi) from a DecompositionResult.

    Each L(s, chi) is k^-s sum_r chi(r) zeta(s, r/k) over the residues r
    of its conductor k with chi(r) != 0 (r = k taken as shift 1.0), so it
    costs conductor-many Hurwitz evaluations; for rational shifts this is
    the preferred evaluator, as the character count is small."""
    pieces = []
    for chi, poly in decomp.terms:
        k = chi.modulus
        residues = [(chi(r), r / k if r < k else 1.0) for r in range(1, k + 1) if chi(r) != 0]
        pieces.append((k, residues, [(n, complex(c)) for n, c in poly]))

    def F(s):
        sc = complex(s)
        total = 0j
        for k, residues, coeffs in pieces:
            p = sum(c * n ** (-sc) for n, c in coeffs)
            L = 0j
            for c, x in residues:
                L += c * complex(hurwitz_zeta(sc, x, EXPLORE).value)
            total += p * (k ** (-sc) * L)
        if prefactor != 1:
            total *= prefactor**sc
        return total

    return F


def polynomial_evaluator(poly: dict):
    """s -> sum a_n n^(-s) for a finite coefficient dict."""
    items = sorted((n, complex(c)) for n, c in poly.items())

    def P(s):
        sc = complex(s)
        return sum(c * n ** (-sc) for n, c in items)

    return P


def polished_zero(poly: dict, z):
    """A zero z of P(s) = sum c_n n^-s located by `_refine`, polished by
    Newton steps with the exact P'(s) = -sum c_n log n n^-s while |P|
    keeps decreasing; z itself if the polished point moved more than
    ZERO_TOL (it would then be another zero's)."""
    items = [(n, complex(c), math.log(n)) for n, c in poly.items()]

    def value_and_slope(s):
        terms = [(c * n ** -s, log_n) for n, c, log_n in items]
        return sum(v for v, _ in terms), -sum(v * log_n for v, log_n in terms)

    best, (p, dp) = z, value_and_slope(z)
    for _ in range(MAX_POLISH_STEPS):
        if not dp:
            break
        w = best - p / dp
        pw, dpw = value_and_slope(w)
        if not abs(pw) < abs(p):
            break
        best, p, dp = w, pw, dpw
    return best if abs(best - z) <= ZERO_TOL else z


def polynomial_sigma_bound(poly: dict) -> float:
    """A sigma beyond which the least-index term dominates, so the
    polynomial cannot vanish; zeros with sigma > 1 all sit below this.

    It is the first sigma on the grid 1.5, 2, ..., 79.5 at which the other
    terms together weigh at most half the least-index one (80.0 if none)."""
    items = sorted((n, abs(complex(c))) for n, c in poly.items())
    n1, a1 = items[0]
    sigma = 1.5
    while sigma < 80:
        tail = sum(a * (n / n1) ** (-sigma) for n, a in items[1:])
        if tail <= 0.5 * a1:
            return sigma
        sigma += 0.5
    return 80.0


_ZERO_FREE_FLOOR = 1e-6  # least m / M for which a cell is excluded
_ZERO_FREE_TURN = 4.0  # most phase change h*L/m of a first-pass step (< 3*pi/2)
_BOUND_ROUNDING = 1e-13  # of M: float rounding of the bound and of P's samples


def _polynomial_zero_free(poly: dict):
    """cell -> a certified lower bound m on |P| over the closed cell, or
    None, for P(s) = sum c_n n^-s; the `zero_free` seam of `zero_search`.

    Over sigma in [s0, s1], |P| >= n_i^-s1 * g_i for each index i, where
    g_i = |c_i| - sum_{j != i} |c_j| max((n_i/n_j)^s0, (n_i/n_j)^s1); m is
    the best such bound with positive g_i, less a rounding allowance.  With
    M = sum |c_n| n^-s0 >= |P| and L = sum |c_n| log n n^-s0 >= |P'|, a cell
    is bounded only when m >= 1e-6 M and h L <= 4 m, h being the longest
    first-pass step of `winding_number`.  Then |P| stays far above its
    1e-12 M floor, and each step turns by at most 4 < 3 pi / 2, so every
    phase it accepts is the true change (at most two halvings) and the
    changes close to 0: `winding_number` would return winding 0."""
    items = sorted((n, abs(complex(c))) for n, c in poly.items())

    def bound(cell):
        s0, s1 = cell.sigma_min, cell.sigma_max
        M = sum(a * n ** -s0 for n, a in items)
        L = sum(a * math.log(n) * n ** -s0 for n, a in items)
        m = -math.inf
        for ni, ai in items:
            g = ai - sum(a * max((ni / n) ** s0, (ni / n) ** s1) for n, a in items if n != ni)
            if g > 0:
                m = max(m, ni ** -s1 * g)
        m -= _BOUND_ROUNDING * M
        w, h = s1 - s0, cell.t_max - cell.t_min
        step = max(w / _edge_steps(w), h / _edge_steps(h))
        if m >= _ZERO_FREE_FLOOR * M and step * L <= _ZERO_FREE_TURN * m:
            return m
        return None

    return bound


def dirichlet_polynomial_zeros(poly: dict, t_max: float = 30.0):
    """All zeros of the Dirichlet polynomial in [1.01, sigma_bound] x
    [0, t_max], found by winding; returns (zeros, region tuple).  Raises
    UnresolvedZeros when cells wind but no zero was located.

    Real-coefficient polynomials have conjugate-symmetric zeros, so their
    scan only dips slightly below t = 0 (to catch real zeros) and reports
    the t >= 0 representatives; complex coefficients get the full
    symmetric t range."""
    sigma_min = 1.01
    if len(poly) <= 1:
        return [], (sigma_min, sigma_min, 0.0, t_max)
    real_coeffs = all(abs(complex(c).imag) < 1e-15 for c in poly.values())
    sigma_hi = polynomial_sigma_bound(poly)
    pad_below = 0.25 if real_coeffs else t_max
    region = Rectangle(sigma_min, sigma_hi, -pad_below, t_max)
    nx = max(2, int((sigma_hi - sigma_min) / 0.4))
    ny = max(4, int((t_max + pad_below) / 1.5))
    result = zero_search(polynomial_evaluator(poly), region, (nx, ny), _polynomial_zero_free(poly))
    zeros = [z for z in result.zeros if z.imag >= -1e-6] if real_coeffs else result.zeros
    stuck = next((c for c in result.cells if c.unresolved), None)
    if stuck and not zeros:  # P vanishes there, so "no zeros found" would be false
        raise UnresolvedZeros(f"cell {stuck.rectangle.as_tuple()} winds {stuck.winding} times "
                              f"but {stuck.unresolved} of its zeros could not be located")
    return zeros, region.as_tuple()
