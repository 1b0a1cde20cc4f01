"""Prime ideal arithmetic for shifts by an algebraic irrational.

An algebraic alpha in (0,1) is carried as its integer minimal polynomial
plus an isolating interval.  For n >= 0 the ideal (n+alpha)*a (a the
denominator ideal, of norm equal to the leading coefficient) is integral
with norm |minpoly(-n)|, so divisibility questions reduce to factoring
plain integers: for an admissible prime p (coprime to leading coefficient,
discriminant and the ambient period q) dividing that norm, the whole
p-valuation sits on the one degree-1 prime ideal above p, keyed by
(p, n mod p).  Inadmissible primes
are swept into the residual norm and never carry phase information.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt

from mpmath import mp

from .arith import (
    FactorCache,
    FactorizationOverflow,
    factorize,
    factorize_many,
    poly_derivative,
    poly_eval,
)

NORM_BIT_CAP = 127
MAX_DEGREE = 4  # irreducibility is certified up to degree 4 only


def _content(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    return g


def _sturm_chain(coeffs):
    chain = [[Fraction(c) for c in coeffs]]
    chain.append([Fraction(c) for c in poly_derivative(coeffs)])
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _poly_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        f = a[0] / b[0]
        for i, cb in enumerate(b):
            a[i] -= f * cb
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _sign_changes(chain, x):
    signs = []
    for poly in chain:
        v = poly_eval(poly, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def count_real_roots(coeffs, lo, hi):
    """Number of distinct real roots in (lo, hi], by Sturm's theorem."""
    chain = _sturm_chain(coeffs)
    return _sign_changes(chain, Fraction(lo)) - _sign_changes(chain, Fraction(hi))


def _sylvester_resultant(a, b):
    """Resultant of two integer polynomials (descending coeffs), exactly."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(a) + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(b) + [0] * (size - n - 1 - i))
    return _int_det(rows)


def _int_det(rows):
    # fraction-free Bareiss elimination
    mat = [list(map(int, r)) for r in rows]
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[-1][-1]


def poly_discriminant(coeffs):
    """disc(P) = (-1)^(d(d-1)/2) Res(P, P') / lead(P), exactly."""
    d = len(coeffs) - 1
    res = _sylvester_resultant(coeffs, poly_derivative(coeffs))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // coeffs[0]


@lru_cache(maxsize=None)
def _isolates_one_root(coeffs, lo, hi):
    """Whether (lo, hi] holds exactly one real root of the integer
    polynomial `coeffs` (a tuple); exact, and cached like the
    irreducibility certificate, since every `with_q` re-checks it."""
    return count_real_roots(coeffs, lo, hi) == 1


def _is_irreducible(coeffs):
    return _is_irreducible_cached(tuple(int(c) for c in coeffs))


@lru_cache(maxsize=None)
def _is_irreducible_cached(coeffs):
    """Exact irreducibility over Q of an integer polynomial of degree 2 to 4.

    Works on the monic integer Q(y) = lead^(d-1) P(y/lead), which factors
    over Q exactly when P does, and by Gauss's lemma then into monic
    integer factors.  A repeated factor shows as a zero discriminant.  A
    linear factor is an integer root of Q; the only other split, 2+2 at
    degree 4, is found through the integer roots of the resolvent cubic."""
    d = len(coeffs) - 1
    if d > 4:
        raise ValueError(f"irreducibility is certified up to degree 4 only, got degree {d}")
    lead = coeffs[0]
    monic = tuple(c * lead ** (i - 1) if i else 1 for i, c in enumerate(coeffs))
    if poly_discriminant(list(monic)) == 0 or _integer_roots(monic):
        return False
    return d < 4 or not _splits_into_quadratics(monic)


def _integer_roots(monic):
    """Integer roots of a squarefree monic integer polynomial, by bisecting
    (-B, B] over the integers with Sturm counts (B the Cauchy bound)."""
    chain = _sturm_chain(monic)
    bound = 1 + max(abs(c) for c in monic[1:])
    roots = []
    todo = [(-bound, _sign_changes(chain, -bound), bound, _sign_changes(chain, bound))]
    while todo:
        lo, v_lo, hi, v_hi = todo.pop()
        if v_lo == v_hi:  # no root in (lo, hi]
            continue
        if hi - lo == 1:
            if poly_eval(monic, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = _sign_changes(chain, mid)
        todo += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return roots


def _splits_into_quadratics(monic):
    """Is y^4 + a y^3 + b y^2 + c y + d = (y^2 + p y + r)(y^2 + s y + u) over
    the integers?  Then theta = r + u is an integer root of the resolvent
    cubic (squarefree: its discriminant is the quartic's), r, u are the
    roots of X^2 - theta X + d and p, s those of X^2 - a X + (b - theta).
    Such a product has the coefficients a, b and d, so of the two pairings
    the one whose y coefficient p u + s r is c is the factorization."""
    _, a, b, c, d = monic
    resolvent = (1, -b, a * c - 4 * d, -(a * a * d - 4 * b * d + c * c))
    for theta in _integer_roots(resolvent):
        ru = _integer_root_pair(theta, d)
        ps = _integer_root_pair(a, b - theta)
        if ru and ps:
            (r, u), (p, s) = ru, ps
            if c in (p * u + s * r, p * r + s * u):
                return True
    return False


def _integer_root_pair(total, product):
    """The integer roots of X^2 - total X + product, or None.  A square
    discriminant root^2 = total^2 - 4 product has the parity of total."""
    disc = total * total - 4 * product
    if disc < 0:
        return None
    root = isqrt(disc)
    if root * root != disc:
        return None
    return (total + root) // 2, (total - root) // 2


@dataclass(frozen=True)
class AlgebraicAlpha:
    """An algebraic irrational shift in (0,1): minimal polynomial with
    integer coefficients (descending, content 1, positive leading term)
    plus an isolating interval containing exactly one real root."""

    minpoly: tuple
    interval: tuple  # (lo, hi) Fractions, 0 < lo < hi < 1
    q_context: int = 1

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.minpoly)
        object.__setattr__(self, "minpoly", coeffs)
        lo, hi = (Fraction(v) for v in self.interval)
        object.__setattr__(self, "interval", (lo, hi))
        d = len(coeffs) - 1
        if not 2 <= d <= MAX_DEGREE:
            raise ValueError(f"degree must be in [2, {MAX_DEGREE}], got {d}")
        if coeffs[0] <= 0:
            raise ValueError("leading coefficient must be positive")
        if _content(coeffs) != 1:
            raise ValueError("minimal polynomial must have content 1")
        if not (0 <= lo < hi <= 1):
            raise ValueError("isolating interval must lie inside (0, 1)")
        if not _isolates_one_root(coeffs, lo, hi):
            raise ValueError("interval must isolate exactly one real root")
        if self.q_context < 1:
            raise ValueError("q_context must be positive")
        if not _is_irreducible(coeffs):
            raise ValueError("minimal polynomial must be irreducible")

    @property
    def degree(self):
        return len(self.minpoly) - 1

    @property
    def lead(self):
        return self.minpoly[0]

    @cached_property
    def negated_poly(self):
        """Coefficients of minpoly(-x); its roots mod p^v are the residue
        classes of n with p^v | (n+alpha)a.  Computed once per instance."""
        d = self.degree
        return tuple(c if (d - i) % 2 == 0 else -c for i, c in enumerate(self.minpoly))

    @property
    def discriminant(self):
        return poly_discriminant(list(self.minpoly))

    @cached_property
    def bad_modulus(self):
        """Primes outside the admissible set divide this.  Computed once per
        instance: `with_q` makes a new instance for a new `q_context`."""
        return abs(self.lead * self.discriminant * self.q_context)

    def with_q(self, q: int) -> "AlgebraicAlpha":
        if q == self.q_context:
            return self
        return AlgebraicAlpha(self.minpoly, self.interval, q)

    def value(self, dps: int = 17):
        """The isolated root as an mpf at `dps` digits (float if dps <= 17)."""
        lo, hi = self.interval
        with mp.workdps(dps + 10):
            a = mp.mpf(lo.numerator) / lo.denominator
            b = mp.mpf(hi.numerator) / hi.denominator
            fa = poly_eval(self.minpoly, a)
            for _ in range(mp.prec + 4):
                mid = (a + b) / 2
                fm = poly_eval(self.minpoly, mid)
                if fm == 0:
                    a = b = mid
                    break
                if (fm < 0) == (fa < 0):
                    a, fa = mid, fm
                else:
                    b = mid
            root = (a + b) / 2
            return float(root) if dps <= 17 else +root

    def __str__(self):
        return f"root of {list(self.minpoly)} in ({self.interval[0]}, {self.interval[1]})"


class PrimeIdealKey(namedtuple("PrimeIdealKey", "p root")):
    """A degree-1 prime ideal above p, identified by the residue class of n
    (mod p) for which it divides (n+alpha)a.

    A tuple (p, root): it hashes as hash((p, root)), compares and sorts by
    (p, root), all in C, since every phase lookup of a construction hashes
    one."""

    __slots__ = ()

    def __new__(cls, p: int, root: int):
        if not 0 <= root < p:
            raise ValueError("root must be a canonical residue mod p")
        return tuple.__new__(cls, (p, root))


@dataclass(frozen=True)
class IdealFactorizationRecord:
    n: int
    admissible_part: tuple  # ((PrimeIdealKey, exponent), ...)
    residual_norm: int


def norm_value(alpha: AlgebraicAlpha, n: int) -> int:
    """|minpoly(-n)| = absolute norm of (n+alpha)a, always a positive integer."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = abs(poly_eval(alpha.negated_poly, n))
    if v.bit_length() > NORM_BIT_CAP:
        raise FactorizationOverflow(f"norm of n={n} exceeds 2^{NORM_BIT_CAP}")
    return v


def is_admissible_prime(alpha: AlgebraicAlpha, p: int) -> bool:
    return alpha.bad_modulus % p != 0


def ideal_factorize(alpha: AlgebraicAlpha, n: int,
                    cache: FactorCache | None = None) -> IdealFactorizationRecord:
    """Factor (n+alpha)a into admissible degree-1 prime ideals and a
    residual ideal collecting everything outside the admissible set."""
    return _ideal_record(alpha, n, factorize(norm_value(alpha, n), cache))


def ideal_factorize_many(alpha: AlgebraicAlpha, ns,
                         cache: FactorCache | None = None) -> list:
    """[ideal_factorize(alpha, n, cache) for n in ns], with the norms
    factored together (`arith.factorize_many`)."""
    facts = factorize_many([norm_value(alpha, n) for n in ns], cache)
    return [_ideal_record(alpha, n, fact) for n, fact in zip(ns, facts)]


def _ideal_record(alpha, n, fact):
    admissible = []
    residual = 1
    for p, e in fact.factors:
        if is_admissible_prime(alpha, p):
            # p | minpoly(-n) with p coprime to lead and disc forces n mod p
            # to be a (simple) root, and the whole p-valuation sits on the
            # single matching degree-1 ideal.
            admissible.append((PrimeIdealKey(p, n % p), e))
        else:
            residual *= p**e
    return IdealFactorizationRecord(n, tuple(admissible), residual)
