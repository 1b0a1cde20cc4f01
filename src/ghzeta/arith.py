"""Exact integer arithmetic shared by everything else.

Deterministic primality testing (Miller-Rabin with prime base sets that
are proven below 3.3e24), factorization (trial division by the primes
below 5000, then Brent-cycle Pollard rho run in lockstep over a group of
cofactors, so a window's norms share the interpreter's cost per step),
integer polynomial evaluation, divisor lists, and the
periodic coefficient container used by the series evaluators.
"""

from __future__ import annotations

import math
import os
import random
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

MAX_FACTOR_BITS = 128  # factorization targets are capped at 2**128

_SMALL_PRIME_LIMIT = 5000


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i, v in enumerate(flags) if v]


SMALL_PRIMES = _sieve(_SMALL_PRIME_LIMIT)
_SMALL_PRIMORIAL = math.prod(SMALL_PRIMES)

# Miller-Rabin with the first k prime bases is a proven primality test below
# psi_k, the least odd composite that is a strong pseudoprime to all of them
# (Jaeschke 1993; Sorenson and Webster 2017).  (psi_k, k) for the k that
# raise psi_k: psi_8 = psi_7 and psi_10 = psi_11 = psi_9.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
_MR_RANDOM_ROUNDS = 40


class FactorizationOverflow(ValueError):
    """Raised when a factorization target exceeds the 128-bit cap."""


def _mr_witness(n, a):
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: proven below psi_13 ~ 3.3e24, where n runs the
    first k prime bases for the least psi_k above it (2..41 at most); 40
    strong probable-prime rounds (seeded by n, hence deterministic) above."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:20]:
        if n % p == 0:
            return n == p
    for psi, k in _MR_PSI:
        if n < psi:
            bases = _MR_BASES[:k]
            break
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 2) for _ in range(_MR_RANDOM_ROUNDS)]
    return not any(_mr_witness(n, a % n) for a in bases if a % n not in (0, 1, n - 1))


def _brent_rho(ns):
    """A proper divisor of each odd composite in ns: Brent's rho walks
    x -> x^2 + c from 2 (c = 1, 2, ... until one ends on a proper divisor)
    with gcds every 128 steps, run in lockstep modulo the product of the
    lanes still walking.  That reduces to each lane's own walk, gcds and
    backtrack, so a lane gets the divisor a one-lane run gets."""
    found, todo = [0] * len(ns), list(range(len(ns)))
    for c in range(1, 100):
        live, todo = todo, []
        if not live:
            return found
        P = math.prod(ns[i] for i in live)
        y, m, r, q = 2, 128, 1, 1
        x = ys = y
        while live:
            x = y
            for _ in range(r):
                y = (y * y + c) % P
            k = 0
            while k < r and live:
                ys = y
                steps = min(m, r - k)
                if steps & 1:
                    y = (y * y + c) % P
                    q = q * (x - y) % P
                for _ in range(steps >> 1):  # two steps, one reduction of q
                    y1 = (y * y + c) % P
                    y = (y1 * y1 + c) % P
                    q = q * (x - y1) * (x - y) % P
                k += m
                g = math.gcd(q, P)
                if g == 1:
                    continue
                for i in live[:]:
                    n = ns[i]
                    d = math.gcd(g, n)
                    if d == 1:
                        continue
                    if d == n:  # backtrack this lane from the block start
                        yb, xb, d = ys % n, x % n, 1
                        while d == 1:
                            yb = (yb * yb + c) % n
                            d = math.gcd(xb - yb, n)
                    found[i] = d
                    if d == n:
                        todo.append(i)  # retry with the next c
                    live.remove(i)
                    P //= n
                x, y, q = x % P, y % P, q % P
            r <<= 1
    raise ArithmeticError(f"rho failed to split {[ns[i] for i in todo]}")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of a positive integer as (prime, exponent) pairs."""

    target: int
    factors: tuple  # ((p, e), ...) sorted by p

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.target:
            raise ValueError("factors do not recompose the target")

    def __str__(self):
        return " ".join(f"{p}^{e}" for p, e in self.factors) if self.factors else "1"


_RHO_LANES = 8  # cofactors per lockstep rho run: 6 to 24 measured alike, 4 slower


def factorize(n: int, cache: "FactorCache | None" = None) -> Factorization:
    """Fully factor n (1 <= n < 2**128). n=1 yields an empty factor list."""
    return factorize_many((n,), cache)[0]


def factorize_many(ns, cache: "FactorCache | None" = None) -> list:
    """[factorize(n, cache) for n in ns], with the cofactors that trial
    division leaves split by rho in lockstep groups of _RHO_LANES; a cache
    gets the new factorizations in the order of ns."""
    for n in ns:
        if n < 1:
            raise ValueError(f"factorization target must be positive, got {n}")
        if n.bit_length() > MAX_FACTOR_BITS:
            raise FactorizationOverflow(f"{n} exceeds the 2^{MAX_FACTOR_BITS} cap")
    done = {}
    parts = {}  # n -> {p: e} of each n factored here
    todo = []  # (n, cofactor of n that is not known to be prime)
    for n in dict.fromkeys(ns):
        hit = cache.get(n) if cache is not None else None
        if hit is not None:
            done[n] = hit
            continue
        m = n
        out = parts[n] = {}
        # the small primes dividing n are those of g; trial-divide g only
        g = math.gcd(m, _SMALL_PRIMORIAL)
        for p in SMALL_PRIMES:
            if g == 1:
                break
            if p * p > g:
                p = g  # no prime below p divides g, so g is a prime
            if g % p == 0:
                g //= p
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                out[p] = e
        if m >= _SMALL_PRIME_LIMIT**2:
            todo.append((n, m))
        elif m > 1:  # no prime below the limit divides m, so m is a prime
            out[m] = 1
    while todo:
        composite = []
        for n, m in todo:
            if is_prime(m):
                parts[n][m] = parts[n].get(m, 0) + 1
            else:
                composite.append((n, m))
        todo = []
        for i in range(0, len(composite), _RHO_LANES):
            group = composite[i:i + _RHO_LANES]
            for (n, m), d in zip(group, _brent_rho(tuple(m for _, m in group))):
                todo += [(n, d), (n, m // d)]
    for n, out in parts.items():
        done[n] = fact = Factorization(n, tuple(sorted(out.items())))
        if cache is not None:
            cache.put(fact)
    return [done[n] for n in ns]


def _cache_line(fact):
    return f"{fact.target},{fact}\n"


def _verified_cache_line(line):
    """The Factorization a cache line records, or None when the line is
    malformed or does not hold a factorization into distinct primes."""
    key, _, body = line.partition(",")
    try:
        factors = []
        for item in body.split():
            p, _, e = item.partition("^")
            factors.append((int(p), int(e) if e else 1))
        fact = Factorization(int(key), tuple(sorted(factors)))
    except ValueError:  # not an integer, or the factors miss the target
        return None
    distinct = len({p for p, _ in fact.factors}) == len(fact.factors)
    if not distinct or any(e < 1 or not is_prime(p) for p, e in fact.factors):
        return None
    return fact


def write_atomic(path, data: bytes):
    """Replace the file at `path` by `data` through a temp file and a rename,
    so readers see the old or the new bytes, never a part."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class FactorCache:
    """Append-only factorization cache, optionally persisted as CSV lines
    ``n,p1^e1 p2^e2 ...``.  Behaves as a function: re-inserting an entry is a
    no-op, and all access is lock-protected.

    A loaded line is used only when it parses and its distinct factors are
    primes with positive exponents that recompose n; other lines are
    skipped (their n is factored afresh and appended) with one warning on
    stderr that counts them, and the file is rewritten once, atomically,
    with only the verified entries, so the next load finds none to skip."""

    def __init__(self, path=None):
        self._lock = threading.Lock()
        self._table = {}
        self._path = Path(path) if path else None
        if self._path is not None and self._path.exists():
            skipped = 0
            for line in self._path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                fact = _verified_cache_line(line)
                if fact is None:
                    skipped += 1
                else:
                    self._table[fact.target] = fact
            if skipped:
                sys.stderr.write(
                    f"warning: skipped {skipped} malformed or unverified line(s) "
                    f"of factor cache {self._path}; rewrote it without them\n"
                )
                write_atomic(self._path, "".join(
                    _cache_line(fact) for fact in self._table.values()).encode())

    def get(self, n):
        with self._lock:
            return self._table.get(n)

    def put(self, fact: Factorization):
        with self._lock:
            if fact.target in self._table:
                return
            self._table[fact.target] = fact
            if self._path is not None:
                with self._path.open("a") as fh:
                    fh.write(_cache_line(fact))

    def __len__(self):
        with self._lock:
            return len(self._table)


# ---------------------------------------------------------------------------
# polynomials over Z (evaluation, derivative) and divisors


def poly_eval(coeffs, x):
    """Evaluate a polynomial given by descending coefficients [c_d, ..., c_0]."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    d = len(coeffs) - 1
    return [c * (d - i) for i, c in enumerate(coeffs[:-1])]


def divisors(n: int):
    """Sorted divisors of n."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# periodic coefficient functions


def _as_exact(z):
    """Exact complex value as a (Fraction, Fraction) pair; floats convert
    exactly (they are dyadic rationals)."""
    if isinstance(z, Fraction):
        return (z, Fraction(0))
    if isinstance(z, (int,)):
        return (Fraction(z), Fraction(0))
    if isinstance(z, float):
        return (Fraction(z), Fraction(0))
    if isinstance(z, complex):
        return (Fraction(z.real), Fraction(z.imag))
    if isinstance(z, tuple) and len(z) == 2:
        return (Fraction(z[0]), Fraction(z[1]))
    raise TypeError(f"unsupported coefficient value {z!r}")


@dataclass(frozen=True)
class PeriodicFunction:
    """Coefficients f(n) of period q; evaluation depends only on n mod q.

    Values are stored exactly as (real, imag) Fraction pairs, so integers,
    Fractions, floats and complex floats are all accepted losslessly.
    """

    period: int
    values: tuple = field(default=())

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if len(self.values) != self.period:
            raise ValueError("need exactly one value per residue class")
        exact = tuple(_as_exact(z) for z in self.values)
        object.__setattr__(self, "values", exact)
        if all(re == 0 and im == 0 for re, im in exact):
            raise ValueError("coefficient function must not be identically zero")

    def exact(self, n: int):
        return self.values[n % self.period]

    def __call__(self, n: int) -> complex:
        re, im = self.values[n % self.period]
        return complex(re, im)

    def cached(self, key, build):
        """build(), called once per instance and `key` (say, the values
        converted to one number type)."""
        table = self._cached
        out = table.get(key)
        if out is None:
            out = table[key] = build()
        return out

    @cached_property
    def _cached(self):
        # per instance, so a lookup neither hashes nor compares the values
        return {}

    def coefficient_sum(self):
        """Sum of one period of values, exactly."""
        return self._coefficient_sum

    @cached_property
    def _coefficient_sum(self):
        # computed once per instance; no dataclass field, so eq/hash/repr are unchanged
        re = sum((v[0] for v in self.values), Fraction(0))
        im = sum((v[1] for v in self.values), Fraction(0))
        return (re, im)
