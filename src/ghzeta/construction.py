"""Inductive construction of a unimodular completely multiplicative twist
that drives the twisted partial sums of F toward zero.

Stage j covers the window (N_j, N_j + M_j] with M_j = floor(theta * N_j).
Window members split per residue class b mod q into those owning a private
prime ideal (free phase slot) and the rest.  Phases of non-private new
primes default to one; the private phases are then aimed, by Bohr's
addition of convex curves, so every class sum cancels as much of its
accumulated drift as the free weight allows.  Each stage certifies, in
high-precision interval style arithmetic, that the twisted partial sum
stays under the contraction fraction of the remaining absolute tail.

All certified sums run at a fixed working precision (50 digits by
default); phases are exact unit complex numbers at that precision and are
recorded write-once.  The per-member loops call libmp with mp's precision
and rounding, the same calls the mpf/mpc operators make, so their results
are bit-identical to the operator forms without the operators' conversions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from mpmath import fp, mp
from mpmath.libmp import (
    fnone, fone, from_int, fzero, mpc_add, mpc_mul, mpc_mul_int, mpc_mul_mpf, mpc_sub_mpf,
    mpf_abs, mpf_add, mpf_cmp, mpf_mul, mpf_pos, mpf_pow, round_nearest, to_str,
)

from .arith import FactorCache, PeriodicFunction
from .density import DENSITY_FLOOR, WindowSpec, private_prime_scan, window_records
from .ideals import AlgebraicAlpha
from .zeta import (
    EXPLORE,
    POLE_TOLERANCE,
    PrecisionExhausted,
    PrecisionProfile,
    _tier,
    abs_coefficient,
    class_cut,
    class_tail,
    to_ctx,
)


class Unreachable(ValueError):
    """Bohr target outside the reachable annulus of the given radii."""


class ThinClass(RuntimeError):
    """A window class owns fewer private primes than MIN_A_SIZE."""


# the twisted partial sum must stay under this fraction of the remaining tail
CONTRACTION = Fraction(1, 100)
# private primes each window class must own
MIN_A_SIZE = 5


@dataclass(frozen=True)
class ConstructionProfile:
    """Window geometry and certification constants.

    The consistency inequality
        (floor/(1-floor)) * (1/(1+theta))^(1+delta) > (1+c)/(1-c)
    ties the density floor (density.DENSITY_FLOOR), the window ratio and
    the contraction constant c (CONTRACTION) together: with it, a window
    meeting the floor strictly shrinks the drift bound from stage to stage.
    """

    theta: Fraction
    n1: int
    q: int = 1
    delta: float = 0.5
    digits: int = 50
    name: str = "custom"

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise ValueError("theta must be in (0,1)")
        if self.n1 < 1 or self.q < 1:
            raise ValueError("n1 and q must be positive")
        c = float(CONTRACTION)
        lhs = (DENSITY_FLOOR / (1 - DENSITY_FLOOR)) * (
            1.0 / (1.0 + float(self.theta))
        ) ** (1.0 + self.delta)
        rhs = (1 + c) / (1 - c)
        if lhs <= rhs:
            raise ValueError(
                f"inconsistent profile: density/window/contraction give {lhs:.4f} <= {rhs:.4f}"
            )

    @classmethod
    def desk(cls, q: int = 1):
        """Small-scale profile: multi-stage runs finish in seconds."""
        return cls(theta=Fraction(1, 20), n1=4000 * q, q=q, name="desk")

    @classmethod
    def canonical(cls, q: int = 1):
        """The full-scale constants; single windows are feasible, long
        inductions are not."""
        return cls(theta=Fraction(1, 10**6), n1=10**7 * q, q=q, name="canonical")

    def window_length(self, n: int) -> int:
        return int(self.theta * n)

    @property
    def tolerance(self):
        return 10.0 ** (-(self.digits // 2))

    def precision(self) -> PrecisionProfile:
        return PrecisionProfile(self.digits, 10.0 ** (-(self.digits - 10)))


# ---------------------------------------------------------------------------
# Bohr targeting


def bohr_solve(radii, target):
    """Unit complex numbers u_i (mpc), one per radius in input order, with
    sum_i r_i u_i = target exactly at working precision: every step runs
    in mp at the caller's precision, whatever the type of the inputs.

    The reachable set of a linkage with positive link lengths is the
    annulus max(0, 2 max r - sum r) <= |z| <= sum r.  Links are placed
    longest first: each link turns just far enough that the residual
    target stays reachable for the remaining links, and the final two
    links close the triangle exactly.  The residual is carried as a real
    modulus |w| and a unit direction d.  A link whose residual distance
    rho is | |w| - r | lies on the residual's line: u = d exactly, and d
    flips when r > |w|, in real arithmetic.  Only a link that must turn
    (rho above | |w| - r |, to stay outside the remaining inner radius)
    and the closing pair take the cosine c the law of cosines gives,
    u = d (c + i sqrt(1 - c^2)), so no angle is ever formed.  Collinear
    phases are therefore exact at working precision; where a cosine is
    near +-1, sqrt(1 - c^2) turns its rounding into about half as many
    correct digits.  One sort, then a linear sweep: the remaining links
    are a suffix of the sorted radii, so their longest is the next radius
    and their sum is read from suffix sums built once.  O(k log k),
    deterministic.
    """
    if not radii:
        raise ValueError("need at least one radius")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    radii_c = [mp.mpf(r) for r in radii]
    order = sorted(range(len(radii_c)), key=lambda i: (-radii_c[i], i))
    sorted_r = [radii_c[i] for i in order]
    k = len(sorted_r)
    zero = mp.mpf(0)
    suffix = [zero] * (k + 1)  # suffix[i] = sum(sorted_r[i:])
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sorted_r[i]

    z = mp.mpc(target)
    total = suffix[0]
    inner = max(zero, 2 * sorted_r[0] - total)
    tol = 1e-9 * float(total)
    if abs(z) > total + tol or abs(z) < inner - tol:
        raise Unreachable(
            f"|target| = {abs(z)} outside the reachable annulus [{inner}, {total}]"
        )
    # clamp rounding-level overshoot exactly onto the annulus so the link
    # invariants below hold
    if abs(z) > total:
        z = z * (total / abs(z))
    elif 0 < abs(z) < inner:
        z = z * (inner / abs(z))
    elif abs(z) == 0 and inner > 0:
        raise Unreachable("zero target with a positive inner radius")

    units = [None] * k

    def turn(aw, r, rho):
        # the rotation e of d with |aw - r e| = rho, counterclockwise
        c = (aw * aw + r * r - rho * rho) / (2 * aw * r)
        c = max(-1, min(1, c))
        return mp.mpc(c, mp.sqrt(1 - c * c))

    # the residual w = aw * d, with d a unit (1 for a zero target)
    aw = abs(z)
    d = z / aw if aw != 0 else mp.mpc(1)
    for i in range(k - 2):
        r = sorted_r[i]
        R = suffix[i + 1]
        inner_rest = max(zero, 2 * sorted_r[i + 1] - R)
        gap = abs(aw - r)
        if gap >= inner_rest:
            # on the residual's line, w - r d = (aw - r) d; a gap past the
            # remaining reach R by rounding lands here too, as its cosine
            # would clamp to 1 (gap >= r > 0 when aw is 0)
            units[i] = d
            if r > aw:
                d = -d
            aw = gap
        else:
            hi = min(R, aw + r)
            # inner_rest <= hi always holds here
            rho = inner_rest if inner_rest <= hi else (inner_rest + hi) / 2
            e = turn(aw, r, rho)
            units[i] = d * e
            v = aw - r * e  # w - r u = d v
            aw = abs(v)
            if aw != 0:
                d = d * (v / aw)

    if k == 1:
        if abs(aw - sorted_r[0]) > tol:
            raise Unreachable("single link cannot reach the target")
        units[0] = d
    else:
        ra, rb = sorted_r[k - 2], sorted_r[k - 1]
        if aw == 0:
            # closes only when the last two links cancel
            if abs(ra - rb) > tol:
                raise Unreachable("zero residual with unequal closing links")
            ua, ub = mp.mpc(1), mp.mpc(-1)
        else:
            e = turn(aw, ra, rb)
            ua = d * e
            v = aw - ra * e
            av = abs(v)
            ub = d * (v / av) if av != 0 else mp.mpc(1)
        units[k - 2], units[k - 1] = ua, ub

    out = [None] * k
    for slot, i in enumerate(order):
        out[i] = units[slot]
    return out


# ---------------------------------------------------------------------------
# phase bookkeeping


# rounding slack of a computed unit phase, in units of its epsilon
_UNIT_ULPS = 16
# the raw (re, im) parts of an mpc exactly 1
_MPC_ONE = (fone, fzero)


@cache
def _unit_slack(prec):
    """2 _UNIT_ULPS mp.eps at binary precision `prec`, as a raw mpf."""
    with mp.workprec(prec):
        return (2 * _UNIT_ULPS * mp.eps)._mpf_


class PhiAssignment:
    """Write-once map from prime ideal keys to unit phases.

    Unassigned keys (and the residual ideal part) act as phase 1, so only
    informative phases are materialized; `ensure_one` pins a key to the
    default explicitly and is idempotent, while `set_phase` never allows a
    second write.  Whether a phase is trivial (exactly 1) is decided once,
    when it is written: only nontrivial phases enter `nontrivial`, and
    readers never compare a phase with 1.
    """

    def __init__(self):
        self._table = {}
        self.nontrivial = {}  # the keys whose phase is not exactly 1

    def set_phase(self, key, phase):
        """Record `phase` for `key`, checked unimodular to the precision it
        carries: |re^2 + im^2 - 1| <= 2 _UNIT_ULPS eps (|z|^2 - 1 is about
        twice |z| - 1), with eps = mp.eps (the caller's working precision)
        for an mpmath number, summed exactly without a square root, and the
        float epsilon otherwise."""
        if key in self._table:
            raise RuntimeError(f"phase for {key} already assigned (write-once)")
        if isinstance(phase, (mp.mpf, mp.mpc)):
            re, im = phase._mpc_ if isinstance(phase, mp.mpc) else (phase._mpf_, fzero)
            excess = mpf_add(mpf_add(mpf_mul(re, re), mpf_mul(im, im)), fnone)
            off = mpf_cmp(mpf_abs(excess), _unit_slack(mp.prec)) > 0
            one = (re, im) == _MPC_ONE
        else:
            z = complex(phase)
            off = abs(z.real * z.real + z.imag * z.imag - 1) > 2 * _UNIT_ULPS * fp.eps
            one = z == 1
        if off:
            raise ValueError(f"phase for {key} is not unimodular")
        self._table[key] = phase
        if not one:
            self.nontrivial[key] = phase

    def ensure_one(self, key):
        """Pin `key` to phase 1; True when the key was not assigned yet."""
        if key in self.nontrivial:
            raise RuntimeError(f"{key} already carries a nontrivial phase")
        if key in self._table:
            return False
        self._table[key] = 1
        return True

    def get(self, key, default=1):
        return self._table.get(key, default)

    def phase_of_record(self, record):
        """phi(n) for an ideal factorization record: product of assigned
        phases to their exponents; residual part contributes 1 (the int 1
        when no nontrivial phase enters)."""
        total = None
        for key, e in record.admissible_part:
            ph = self.nontrivial.get(key)
            if ph is not None:
                power = +ph if e == 1 else ph**e  # ph**1 rounds like +ph
                # a first factor is 1 * power, which rounds like power itself
                total = power if total is None else total * power
        return 1 if total is None else total

    def items(self):
        return sorted(self._table.items(), key=lambda kv: (kv[0].p, kv[0].root))

    def nontrivial_count(self):
        return len(self.nontrivial)

    def __len__(self):
        return len(self._table)

    def log_rows(self, digits=30):
        """(p, root, re, im) per key: each part of a nontrivial phase
        rounded to digits + 10 digits, as mp.mpc(ph) rounds it, and written
        as mp.nstr(part, digits) writes it, by libmp's to_str (which nstr
        calls) on the raw parts."""
        rows = []
        with mp.workdps(digits + 10):
            prec = mp.prec
            for key, ph in self.items():
                if key not in self.nontrivial:
                    rows.append((key.p, key.root, "1", "0"))
                else:
                    parts = ph._mpc_ if isinstance(ph, mp.mpc) else mp.mpc(ph)._mpc_
                    re, im = (to_str(mpf_pos(x, prec, round_nearest), digits) for x in parts)
                    rows.append((key.p, key.root, re, im))
        return rows


# ---------------------------------------------------------------------------
# sigma selection


@dataclass(frozen=True)
class SigmaCertificate:
    sigma: object  # mpf
    head: float
    head_bound: float
    tail: float
    tail_bound: float
    contraction: float
    # per class b, f(b) sum_{n <= N1, n = b (q)} (n+alpha)^-sigma at working
    # precision: the first stage's class sums, not part of the report
    class_sums: tuple = field(default=(), repr=False, compare=False)

    @property
    def certified(self):
        return self.head + self.head_bound < self.contraction * (self.tail - self.tail_bound)


# a float-tier head this far past the contraction share of the tail refutes
# a halving step: the 1% covers the screen's own float arithmetic
_SCREEN_MARGIN = 1.01


def select_sigma(f: PeriodicFunction, alpha, profile: ConstructionProfile) -> SigmaCertificate:
    """Smallest halving step sigma = 1 + delta/2^k whose head/tail
    inequality holds with certified bounds:

        sum_{n <= N1} |f(n)| (n+alpha)^-sigma
            < contraction * sum_{n > N1} |f(n)| (n+alpha)^-sigma.

    Such a sigma exists because the right side blows up as sigma -> 1+
    while the left side stays bounded.

    Each step is screened at the float tier first (`_screen_refutes`) and
    certified at the working precision only if the screen leaves it open.
    The screen skips a step only when the float head, less its bound, is
    at least 1.01 * contraction * (tail + its bound): the true head is then
    at least contraction times the true tail, which no precision can
    certify, so a skip never changes the sigma chosen or its certificate.
    The 1% margin covers the rounding of the float sums and bounds
    themselves.  A step whose float evaluation raises, or whose sigma - 1
    is below POLE_TOLERANCE (too close to the pole for floats), is not
    screened and goes to the working precision as it is."""
    n1 = profile.n1
    prec = profile.precision()
    alpha_val = alpha.value(profile.digits)
    contraction = float(CONTRACTION)
    with mp.workdps(profile.digits + 10):
        for k in range(1, 80):
            sigma = 1 + mp.mpf(profile.delta) / 2**k
            if sigma - 1 < mp.mpf(10) ** (-(profile.digits - 10)):
                break
            if _screen_refutes(f, alpha_val, sigma, n1, contraction):
                continue
            sums, head, head_b, tail, tail_b = _class_sums(f, alpha_val, sigma, n1, prec)
            cert = SigmaCertificate(
                sigma, float(head), head_b, float(tail), tail_b, contraction, tuple(sums)
            )
            if cert.certified:
                return cert
    raise PrecisionExhausted(
        "no sigma in (1, 1+delta) certified the head/tail inequality at this precision"
    )


def _screen_refutes(f, alpha_val, sigma, n1, contraction):
    """True when _class_sums at EXPLORE puts the head, less its bound, at
    _SCREEN_MARGIN * contraction * (tail + its bound) or above, which
    refutes sigma (select_sigma says why); False otherwise, and without a
    float evaluation when sigma - 1 < POLE_TOLERANCE, or when it raises."""
    if sigma - 1 < POLE_TOLERANCE:
        return False
    try:
        _, head, head_b, tail, tail_b = _class_sums(f, alpha_val, sigma, n1, EXPLORE)
    except ArithmeticError:
        return False
    return head - head_b >= _SCREEN_MARGIN * contraction * (tail + tail_b)


def _class_sums(f, alpha_val, sigma, n_top, prec):
    """(sums, head, head_bound, tail, tail_bound) at the cut n_top, from one
    class_cut per class b with f(b) != 0, in the tier of `prec`
    (zeta._tier): sums[b] = f(b) sum_{0 <= n <= n_top, n = b (mod q)}
    (n+alpha)^-sigma (every phase there is 1), head = sum_{n <= n_top}
    |f(n)| (n+alpha)^-sigma and tail = sum_{n > n_top} |f(n)|
    (n+alpha)^-sigma, each with its certified bound."""
    ctx, _, precision = _tier(prec)
    sums = []
    with precision:
        head, head_bound = ctx.mpf(0), 0.0
        tail, tail_bound = ctx.mpf(0), 0.0
        for b in range(f.period):
            w = abs_coefficient(f, b, ctx)
            if w == 0:
                sums.append(ctx.mpc(0))
                continue
            (val, vb), (t, tb) = class_cut(f, alpha_val, sigma, n_top, b, prec)
            sums.append(to_ctx(ctx, f.exact(b)) * val)
            head += w * val
            head_bound += float(w) * vb
            tail += t
            tail_bound += tb
    return sums, head, head_bound, tail, tail_bound


# ---------------------------------------------------------------------------
# stages


@dataclass
class StageState:
    j: int
    n_current: int
    sigma: object
    alpha_val: object
    class_sums: list  # per b: running sum_{n<=N_j, n=b (q)} f(n) phi(n) (n+alpha)^-sigma
    phi: PhiAssignment
    # (value, bound) of sum_{n > N_j} |f(n)| (n+alpha)^-sigma, once known
    tail: tuple | None = None
    # run-level memo n -> (ideal factorization record, (n+alpha)^-sigma) of
    # every window member so far, shared from stage to stage like phi and
    # consumed by the from-scratch check
    members: dict = field(default_factory=dict)


def stage_advance(state: StageState, alpha: AlgebraicAlpha, f: PeriodicFunction,
                  profile: ConstructionProfile, cache: FactorCache | None = None):
    """One induction step: scan the next window, default the non-private
    phases, aim the private ones, and certify both the per-class bound and
    the contraction inequality at the new truncation point.  Returns the
    next StageState and the stage's report dict."""
    q = profile.q
    n_j = state.n_current
    m_j = profile.window_length(n_j)
    if m_j < 1:
        raise ValueError("window is empty; increase n1 or theta")
    n_next = n_j + m_j
    digits = profile.digits
    tol = profile.tolerance
    prec = profile.precision()

    reports = []
    alpha_q = alpha.with_q(q)
    records = window_records(alpha_q, n_j, m_j, cache)
    scan = private_prime_scan(
        alpha_q, WindowSpec(n_j, Fraction(profile.theta), q, 0), all_classes=True,
        records=records, cache=cache,
    )
    eligible = {n: key for n, key in scan.eligible}

    class_a = {b: [] for b in range(q)}
    class_b = {b: [] for b in range(q)}
    for n in sorted(records):
        (class_a if n in eligible else class_b)[n % q].append(n)
    for b in range(q):
        if len(class_a[b]) < MIN_A_SIZE:
            raise ThinClass(
                f"stage {state.j}: class {b} mod {q} has {len(class_a[b])} private "
                f"primes, below the floor {MIN_A_SIZE}"
            )

    # case 3: every new admissible prime that is not a chosen private slot
    private_keys = {eligible[n] for n in eligible}
    new_defaults = 0
    for n in sorted(records):
        for key, _ in records[n].admissible_part:
            if key not in private_keys and key not in state.phi.nontrivial:
                new_defaults += state.phi.ensure_one(key)

    with mp.workdps(digits + 10):
        sigma = state.sigma
        a_val = state.alpha_val
        # (n+alpha)^-sigma once per member; every use below, and the
        # from-scratch check, reads it
        weight = _member_weights(records, a_val, sigma)
        state.members.update((n, (records[n], weight[n])) for n in records)
        c = to_ctx(mp, CONTRACTION)
        new_sums = list(state.class_sums)
        tail, tail_bound = mp.mpf(0), 0.0  # abs tail past n_next, summed over the classes
        for b in range(q):
            fb = to_ctx(mp, f.exact(b))  # every member of the class shares it
            fb_abs = abs_coefficient(f, b, mp)
            members_a, members_b = class_a[b], class_b[b]
            # drift: everything in the class that is already pinned down
            locked = _twisted_sum(fb, state.phi, records, weight, members_b)
            drift = state.class_sums[b] + locked

            s1 = abs(state.class_sums[b])
            s2 = fb_abs * mp.fsum(weight[n] for n in members_b)
            s3 = fb_abs * mp.fsum(weight[n] for n in members_a)
            s4, s4_bound = class_tail(f, a_val, sigma, n_next, b, prec)
            tail += s4
            tail_bound += s4_bound

            if fb_abs == 0:
                for n in members_a:
                    state.phi.set_phase(eligible[n], 1)
                placed = target = mp.mpc(0)
                limit = abs(drift)
            else:
                if abs(drift) <= s3:
                    target = -drift
                else:
                    target = -s3 * drift / abs(drift)
                _aim_private(state, fb, eligible, records, members_a, target, weight)
                placed = _twisted_sum(fb, state.phi, records, weight, members_a)
                limit = max(mp.mpf(0), abs(drift) - s3)
            new_sums[b] = drift + placed
            achieved = abs(new_sums[b])

            bound_ok = achieved <= limit + tol
            dens_limit = (1 - DENSITY_FLOOR) * m_j / q
            ratio_applicable = len(members_b) <= dens_limit and s2 > 0
            ratio_ok = (s3 - s2 > c * (s3 + s2)) if ratio_applicable else None
            reports.append({
                "b": b,
                "count_A": len(members_a),
                "count_B": len(members_b),
                "density_ok": len(members_a) >= DENSITY_FLOOR * m_j / q,
                "partial_abs_S1": float(s1),
                "locked_weight_S2": float(s2),
                "free_weight_S3": float(s3),
                "tail_weight_S4": float(s4),
                "drift_re": float(mp.re(drift)),
                "drift_im": float(mp.im(drift)),
                "target_re": float(mp.re(target)),
                "target_im": float(mp.im(target)),
                "achieved_abs": float(achieved),
                "class_bound": float(limit),
                "class_bound_ok": bool(bound_ok),
                "ratio_check": ratio_ok if ratio_ok is None else bool(ratio_ok),
            })
            if not bound_ok:
                raise AssertionError(
                    f"class bound failed at stage {state.j}, class {b}: "
                    f"{achieved} > {limit} + {tol}"
                )

        lhs = abs(mp.fsum(new_sums))
        rhs = c * (tail - tail_bound)
        induction_ok = bool(lhs + tol < rhs)

    new_state = StageState(state.j + 1, n_next, state.sigma, state.alpha_val,
                           new_sums, state.phi, (tail, tail_bound), state.members)
    report = {
        "stage": state.j,
        "N_j": n_j,
        "M_j": m_j,
        "N_next": n_next,
        "classes": reports,
        "induction_lhs": float(lhs),
        "induction_rhs": float(rhs),
        "induction_ok": induction_ok,
        "new_private_phases": len(private_keys),
        "new_default_phases": new_defaults,
    }
    return new_state, report


def _member_weights(records, a_val, sigma):
    """(n+alpha)^-sigma for every window member n, at the working precision:
    the mpf_add and mpf_pow calls of (n + a_val) ** -sigma, on raw parts."""
    prec, rnd = mp._prec_rounding
    a, neg_sigma = a_val._mpf_, (-sigma)._mpf_
    make = mp.make_mpf
    return {n: make(mpf_pow(mpf_add(a, from_int(n), prec, rnd), neg_sigma, prec, rnd))
            for n in records}


def _twisted_sum(fb, phi, records, weight, members):
    """sum of fb * phi(n) * w(n) over `members`, in their order, from 0: the
    libmp calls of that operator form, on raw parts (phi(n) is the int 1 or
    an mpc)."""
    prec, rnd = mp._prec_rounding
    fbv = fb._mpc_
    total = (fzero, fzero)
    for n in members:
        ph = phi.phase_of_record(records[n])
        if type(ph) is int:
            t = mpc_mul_int(fbv, ph, prec, rnd)
        else:
            t = mpc_mul(fbv, ph._mpc_, prec, rnd)
        total = mpc_add(total, mpc_mul_mpf(t, weight[n]._mpf_, prec, rnd), prec, rnd)
    return mp.make_mpc(total)


def _aim_private(state, fb, eligible, window_records, members_a, target, weight):
    """Choose phases of the private primes so the class-A terms sum to the
    target; the fixed factor of each term (the class coefficient's unit
    times phi(n) so far) is rotated out before solving, unless it is
    exactly 1.  phi(n) so far omits the private key: it is first assigned
    here, as its p exceeds n, so no earlier member shares its class."""
    fb_abs = abs(fb)
    fb_unit = fb / fb_abs
    fb_is_one = fb_unit == 1
    radii = []
    fixed_units = []  # None for a fixed factor that is exactly 1
    exps = []
    for n in members_a:
        rec = window_records[n]
        u = state.phi.phase_of_record(rec)  # the int 1 or an mpc
        radii.append(fb_abs * weight[n])
        if type(u) is not int:
            fixed_units.append(fb_unit * u)
        else:
            fixed_units.append(None if fb_is_one else fb_unit)
        exps.append(dict(rec.admissible_part)[eligible[n]])
    units = bohr_solve(radii, target)
    for n, u, unit_fix, e_key in zip(members_a, units, fixed_units, exps):
        # the term r * unit_fix * phase^e must equal r * u: strip the fixed
        # unit, and for a higher prime power take an e-th root (any branch
        # works, the private phase is free)
        phase = u if unit_fix is None else u * mp.conj(unit_fix)
        if e_key > 1:
            phase = mp.expj(mp.arg(phase) / e_key)
        state.phi.set_phase(eligible[n], phase)


# ---------------------------------------------------------------------------
# the full run


def run_construction(f: PeriodicFunction, alpha: AlgebraicAlpha,
                     profile: ConstructionProfile, stages: int,
                     cache: FactorCache | None = None):
    """select sigma, run `stages` induction steps, and certify the final
    envelope; returns (results, StageState, phi log rows), where results
    is the dict a construct-phi report carries as its `results`.

    The report never claims the infinite limit: it records the certified
    finite-stage contraction and the write-once phase log."""
    if stages < 1:
        raise ValueError("need at least one stage")
    q = profile.q
    if f.period != q:
        raise ValueError("profile q must match the coefficient period")
    alpha = alpha.with_q(q)  # admissibility must track the ambient period
    digits = profile.digits
    cert = select_sigma(f, alpha, profile)
    sigma = cert.sigma
    alpha_val = alpha.value(digits)

    phi = PhiAssignment()
    state = StageState(1, profile.n1, sigma, alpha_val, list(cert.class_sums), phi)
    stage_logs = []
    for _ in range(stages):
        state, rep = stage_advance(state, alpha, f, profile, cache)
        stage_logs.append(rep)

    with mp.workdps(digits + 10):
        incremental = mp.fsum(state.class_sums)
        scratch = _recompute_from_scratch(f, alpha_val, sigma, profile.n1,
                                          state.n_current, phi, state.members)
        delta = float(abs(incremental - scratch))
        tail, tail_b = state.tail  # the last stage's tail past state.n_current
        envelope = float(abs(incremental)) < float(CONTRACTION) * float(tail - tail_b)
        frac = float(abs(incremental) / tail)
        sigma_str = mp.nstr(sigma, digits)
        final_abs = float(abs(incremental))

    results = {
        "profile": profile.name,
        "q": q,
        "N1": profile.n1,
        "sigma": sigma_str,
        "sigma_certificate": {
            "sigma": sigma_str,
            "head": cert.head, "head_bound": cert.head_bound,
            "tail": cert.tail, "tail_bound": cert.tail_bound,
            "certified": cert.certified,
        },
        "stages": stage_logs,
        "final_sum_abs": final_abs,
        "final_tail_fraction": frac,
        "envelope_ok": bool(envelope),
        "recomputation_delta": delta,
        "phi_nontrivial": phi.nontrivial_count(),
        "phi_total": len(phi),
    }
    return results, state, phi.log_rows(digits)


def _recompute_from_scratch(f, alpha_val, sigma, n1, n_top, phi, members):
    """Re-evaluation of sum_{n <= n_top} f(n) phi(n) (n+alpha)^-sigma as

        Q(n_top) + sum_{n1 < n <= n_top} f(n) (phi(n) - 1) w(n),

    Q(n_top) = sum_{n <= n_top} f(n) (n+alpha)^-sigma in closed form by
    mpmath's own Hurwitz zeta, not ghzeta's Euler-Maclaurin:
    q^-sigma sum_b f(b) [zeta(sigma, x_b) - zeta(sigma, x_b + count_b)],
    x_b = (b+alpha)/q, count_b the class members n <= n_top.  Each zeta is
    about 1/(sigma-1) and the difference cancels that much, so it runs
    with log10(1/(sigma-1)) guard digits.

    On the head n <= n1 the twist is provably 1: a private prime assigned
    in any stage exceeds its window member m, so its residue class meets
    [0, p) only at m > n1, and every other assigned phase defaults to 1.
    Past n1, `members` maps each window member n to its (factorization
    record, w(n)), the weight the stages summed; phi(n) is re-read from
    the final assignment, and a member with phi(n) = 1 adds no term; a term
    is the libmp calls of c * (phi(n) - 1) * w(n), on raw parts.  The
    incremental sum carries each w(n) with phi(n) and the correction with
    phi(n) - 1, so their difference compares the plain sum of the stage
    weights with mpmath's zeta: a faulty weight still shows.

    `members` is consumed; a missing member, a record of another n or a
    member outside (n1, n_top] raises ValueError."""
    q = f.period
    coeff = [to_ctx(mp, f.exact(b)) for b in range(q)]
    nonzero = [any(f.exact(b)) for b in range(q)]  # coeff[b] != 0, exactly
    with mp.extradps(max(0, int(-mp.log10(sigma - 1))) + 1):
        closed = mp.mpc(0)
        for b in range(min(q, n_top + 1)):
            if nonzero[b]:
                x = (b + alpha_val) / q
                closed += coeff[b] * (mp.zeta(sigma, x) - mp.zeta(sigma, x + (n_top - b) // q + 1))
        closed *= mp.mpf(q) ** (-sigma)
    terms = [closed]
    prec, rnd = mp._prec_rounding
    make = mp.make_mpc
    for n in range(n1 + 1, n_top + 1):
        entry = members.pop(n, None)
        if entry is None:
            raise ValueError(f"from-scratch check: window member n = {n} has no stage record")
        rec, w = entry
        if rec.n != n:
            raise ValueError(f"from-scratch check: the record of n = {n} factors n = {rec.n}")
        if not nonzero[n % q]:
            continue
        phi_n = phi.phase_of_record(rec)
        # phi_n is the int 1 or an mpc (construction phases are mpc)
        if type(phi_n) is not int and phi_n._mpc_ != _MPC_ONE:
            d = mpc_sub_mpf(phi_n._mpc_, fone, prec, rnd)
            t = mpc_mul(coeff[n % q]._mpc_, d, prec, rnd)
            terms.append(make(mpc_mul_mpf(t, w._mpf_, prec, rnd)))
    if members:
        raise ValueError(
            f"from-scratch check: {len(members)} stage record(s) outside ({n1}, {n_top}], "
            f"first n = {min(members)}"
        )
    return mp.fsum(terms)
