"""Window experiments: private prime ideals and smooth windows.

A window (N, N+M] with M = floor(theta*N) is scanned by factoring the
norm of every (n+alpha)*a it contains.  An integer n owns a *private*
prime ideal when some admissible prime power in its factorization has
p exceeding both n and N+M-n: the ideal's residue class n mod p then
meets [0, N+M] in the single point n, so the ideal divides no other
(m+alpha)*a in range.  That arithmetic shortcut is applied and then
re-checked directly by enumerating the residue class.

The smooth complement keeps windows honest: n is smooth-flagged when all
its admissible prime powers stay below M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log

from .arith import FactorCache
from .ideals import AlgebraicAlpha, IdealFactorizationRecord, PrimeIdealKey, ideal_factorize_many

DENSITY_FLOOR = 0.54
DICKMAN_REFERENCE = log(2)  # 1 - rho(2): expected private-prime density for quadratic norms


class EmptyWindow(RuntimeError):
    """No integers of the requested class fall inside the window."""


@dataclass(frozen=True)
class WindowSpec:
    """Window (N, N+M], M = floor(theta*N), restricted to n = b (mod q)."""

    N: int
    theta: Fraction
    q: int = 1
    b: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        if self.N <= self.q:
            raise ValueError("window start must exceed the period")
        if not 0 <= self.b < self.q:
            raise ValueError("class b must satisfy 0 <= b < q")
        if self.M < 1:
            raise ValueError("window is empty: floor(theta*N) < 1")

    @property
    def M(self) -> int:
        return int(self.theta * self.N)

    @property
    def end(self) -> int:
        return self.N + self.M

    def members(self, all_classes=False):
        ns = range(self.N + 1, self.end + 1)
        if all_classes:
            return list(ns)
        return [n for n in ns if n % self.q == self.b]


@dataclass
class DensityReport:
    window: WindowSpec
    members: int
    eligible: tuple  # ((n, PrimeIdealKey), ...)
    count_A: int
    threshold: float
    passed: bool
    smooth_count: int
    rho: float
    fraction: float  # count_A / members
    fraction_Mq: float  # count_A / (M/q)

    def to_json(self):
        return {
            "N": self.window.N,
            "M": self.window.M,
            "q": self.window.q,
            "b": self.window.b,
            "members": self.members,
            "count_A": self.count_A,
            "threshold": self.threshold,
            "passed": self.passed,
            "fraction": self.fraction,
            "fraction_Mq": self.fraction_Mq,
            "smooth_count": self.smooth_count,
            "rho": self.rho,
            "eligible": [[n, key.p, key.root] for n, key in self.eligible],
        }


def window_records(alpha: AlgebraicAlpha, N: int, M: int,
                   cache: FactorCache | None = None):
    """Ideal factorizations of every n in (N, N+M]."""
    ns = range(N + 1, N + M + 1)
    return dict(zip(ns, ideal_factorize_many(alpha, ns, cache)))


def private_key_candidates(record: IdealFactorizationRecord, N: int, M: int):
    """Admissible primes of the record large enough to be private in
    [0, N+M]: p > max(n, N+M-n)."""
    n = record.n
    cut = max(n, N + M - n)
    out = []
    for key, e in record.admissible_part:
        if key.p > cut:
            out.append((key, e))
    return out


def _verify_private(key: PrimeIdealKey, n: int, end: int) -> bool:
    """Direct residue-class check: the only m in [0, end] with
    m = root (mod p) must be n itself."""
    hits = list(range(key.root, end + 1, key.p))
    return hits == [n]


def private_prime_scan(alpha: AlgebraicAlpha, w: WindowSpec, *, all_classes=False,
                       cache: FactorCache | None = None, records=None) -> DensityReport:
    """Classify window members by private prime ownership.

    The chosen key per eligible n is the largest private prime, preferring
    exponent one, and every choice is re-verified by direct residue-class
    enumeration.
    """
    alpha = alpha.with_q(w.q)
    M, end = w.M, w.end  # each read of w.M multiplies Fractions
    members = w.members(all_classes=all_classes)
    if not members:
        raise EmptyWindow(f"no n = {w.b} (mod {w.q}) in ({w.N}, {end}]")
    if records is None:  # factor the members only, not the other classes
        records = dict(zip(members, ideal_factorize_many(alpha, members, cache)))
    eligible = []
    smooth = 0
    for n in members:
        rec = records[n]
        cands = private_key_candidates(rec, w.N, M)
        if cands:
            cands.sort(key=lambda ke: (ke[1] != 1, -ke[0].p))
            key = cands[0][0]
            if not _verify_private(key, n, end):
                raise AssertionError(
                    f"privacy shortcut contradicted for n={n}, p={key.p}"
                )
            eligible.append((n, key))
        if all(key.p**e < M for key, e in rec.admissible_part):
            smooth += 1
    count = len(eligible)
    threshold = DENSITY_FLOOR * M / w.q
    return DensityReport(
        window=w,
        members=len(members),
        eligible=tuple(eligible),
        count_A=count,
        threshold=threshold,
        passed=count >= threshold,
        smooth_count=smooth,
        rho=w.q * smooth / M,
        fraction=count / len(members),
        fraction_Mq=count / (M / w.q),
    )


def sweep_results(q: int, theta, windows):
    """A sweep's report results from its window dicts, aggregates included:
    the mean fraction, the share of windows that pass and the (N, b) of the
    windows under the floor."""
    return {
        "q": q,
        "theta": str(theta),
        "windows": windows,
        "mean_fraction": sum(w["fraction"] for w in windows) / len(windows),
        "pass_fraction": sum(1 for w in windows if w["passed"]) / len(windows),
        "flagged": [[w["N"], w["b"]] for w in windows if not w["passed"]],
        "dickman_reference": DICKMAN_REFERENCE,
    }


def density_sweep(alpha: AlgebraicAlpha, n_list, theta, q: int,
                  cache: FactorCache | None = None) -> list:
    """Per-(N, b) DensityReports over a list of window starts, in (N, b)
    order; sweep_results aggregates their dicts.

    Windows under the floor are flagged, not failed: the stage count
    where the floor provably kicks in is not effective, so the sweep
    measures rather than certifies."""
    if not n_list:
        raise ValueError("need at least one window start")
    theta = Fraction(theta)
    alpha = alpha.with_q(q)
    reports = []
    for N in n_list:
        M = int(theta * N)
        records = window_records(alpha, N, M, cache)
        for b in range(q):
            w = WindowSpec(N, theta, q, b)
            reports.append(private_prime_scan(alpha, w, records=records, cache=cache))
    return reports
