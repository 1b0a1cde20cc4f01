"""Seeded inputs and independent output oracles for the four workloads.

Every op is a plain argv list for ``ghzeta.cli.main``; the program sees
nothing else.  One *pass* is the op list a seed generates; a run repeats
the same pass, so every repetition must write the same bytes.

The oracles never call ghzeta.  They recompute what each report claims
from first principles: Kronecker symbols, Dirichlet convolutions, a unit
twist test for P*L structure, integer norms, the analytic zeros of
planted (1 - c 2^-s) factors, and Hurwitz zeta values from mpmath.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm

from mpmath import mp

WORKLOADS = ("classify", "zeros", "density", "construct")

MINPOLY = "1,2,-1"  # alpha = sqrt(2) - 1
INTERVAL = "0.4,0.5"


class Op:
    """One CLI invocation plus what its oracle needs to know."""

    def __init__(self, kind, argv, outputs, expect):
        self.kind = kind
        self.argv = argv + ["--output", outputs[0]]
        self.outputs = outputs  # files the op writes; the first is the report
        self.expect = expect

    def to_json(self):
        return {"kind": self.kind, "argv": self.argv}


def _fmt(values):
    return "--f=" + ",".join(str(v) for v in values)


def _nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


# ---------------------------------------------------------------------------
# arithmetic the oracles share


def kronecker(d, m):
    """Kronecker symbol (d/m) for m >= 1."""
    if m == 0:
        return 1 if abs(d) == 1 else 0
    result = 1
    while m % 2 == 0:
        m //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    a = d % m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def lifted_series(f_values, alpha):
    """g(1..P) with F(s, f, alpha) = b^s sum g(m) m^-s for alpha = a/b."""
    q = len(f_values)
    a, b = alpha.numerator, alpha.denominator
    if b == 1:
        return [Fraction(f_values[(m - 1) % q]) for m in range(1, q + 1)]
    P = b * q
    return [Fraction(f_values[((m - a) // b) % q]) if m % b == a % b else Fraction(0)
            for m in range(1, P + 1)]


def unit_twist_refutes_pl(g):
    """True when g (one period, g[m-1] = g(m)) cannot be P(s)L(s, chi).

    If g = a * chi with a finitely supported, then for a prime p beyond
    the support, g(p m) = chi(p) g(m) for every m.  Primes run through
    every unit class u mod P (Dirichlet), so g(u m) must be a fixed
    unimodular multiple of g(m).  One unit class where it is not refutes
    the form."""
    P = len(g)
    for u in range(2, P):
        if gcd(u, P) != 1:
            continue
        ratio = None
        for m in range(1, P + 1):
            gm, gum = g[m - 1], g[(u * m - 1) % P]
            if gm == 0 and gum == 0:
                continue
            if gm == 0 or gum == 0:
                return True
            if ratio is None:
                ratio = gum / gm
                if abs(ratio) != 1:
                    return True
            elif gum != ratio * gm:
                return True
    return False


def residue_obstruction_holds(g, h, r):
    support = [m for m in range(1, len(g) + 1) if g[m - 1] != 0]
    return r >= 3 and gcd(h, r) == 1 and all(m % r == h % r for m in support)


def convolve(poly, d, m):
    """(a * chi_d)(m) for a finite polynomial {n: a_n}."""
    return sum(a * kronecker(d, m // n) for n, a in poly.items() if m % n == 0)


def is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt2_norm(n):
    """|minpoly(-n)| for minpoly x^2 + 2x - 1."""
    return abs(n * n - 2 * n - 1)


def two_term_zeros(a1, n, an, t_lo, t_hi):
    """Zeros of a1 + an n^-s with t in [t_lo, t_hi]."""
    w = complex(-an / a1)
    sigma = math.log(abs(w)) / math.log(n)
    step = 2 * math.pi / math.log(n)
    base = cmath.phase(w) / math.log(n)
    k0 = math.ceil((t_lo - base) / step)
    out = []
    k = k0
    while base + k * step <= t_hi:
        out.append(complex(sigma, base + k * step))
        k += 1
    return out


# ---------------------------------------------------------------------------
# generators


def build(workload, seed, out_dir):
    """(warm-up op, pass ops) for the workload, generated from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "classify": _classify_ops,
        "zeros": _zeros_ops,
        "density": _density_ops,
        "construct": _construct_ops,
    }[workload](rng, out_dir)


def _report(out_dir, tag):
    return f"{out_dir}/{tag}.json"


def _random_unobstructed(rng, q, alpha):
    """Integer f of period q whose lift the unit twist test refutes."""
    while True:
        f = [_nonzero(rng, -4, 4) for _ in range(q)]
        if unit_twist_refutes_pl(lifted_series(f, alpha)):
            return f


# (discriminant d, polynomial support, alpha) for planted P(s) L(s, chi_d)
_PLANTED = (
    (1, (1, 2), Fraction(1)),
    (1, (1, 3), Fraction(1)),
    (-3, (1, 2), Fraction(1)),
    (-4, (1,), Fraction(1)),
    (5, (1,), Fraction(1)),
    (-3, (1,), Fraction(1)),
    (-4, (1,), Fraction(1, 2)),
    (-4, (1, 3), Fraction(1, 2)),
)

# (alpha, q, command) for series that need the full conductor search
_SEARCHED = (
    (Fraction(1), 8, "classify"),
    (Fraction(1, 2), 4, "classify"),
    (Fraction(1), 7, "decompose"),
    (Fraction(1), 6, "decompose"),
)


def _planted(rng, d, support, alpha):
    poly = {1: 1}
    for n in support[1:]:
        poly[n] = rng.choice((-1, 1)) * rng.randint(n + 1, n + 4)
    k = abs(d)
    L = 1
    for n in support:
        L = lcm(L, n * k)
    if alpha == 1:
        f = [convolve(poly, d, j + 1) for j in range(L)]
    else:  # alpha = 1/2: g(2j+1) = f(j); chi_d(2) = 0 keeps g off the evens
        q = L // 2 if L % 2 == 0 else L
        f = [convolve(poly, d, 2 * j + 1) for j in range(q)]
    return poly, f


def _classify_ops(rng, out_dir):
    ops = []
    for i, (alpha, q, command) in enumerate(_SEARCHED):
        f = _random_unobstructed(rng, q, alpha)
        ops.append(Op(f"search-{command}", [command, "--alpha", _alpha_arg(alpha), _fmt(f),
                                            "--q", str(q)],
                      [_report(out_dir, f"s{i}")],
                      {"f": f, "alpha": str(alpha)}))
    for i, (d, support, alpha) in enumerate(_PLANTED):
        poly, f = _planted(rng, d, support, alpha)
        ops.append(Op("planted", ["classify", "--alpha", _alpha_arg(alpha), _fmt(f),
                                  "--q", str(len(f))],
                      [_report(out_dir, f"p{i}")],
                      {"f": f, "alpha": str(alpha), "d": d,
                       "poly": {str(n): a for n, a in poly.items()}}))
    for i in range(36):
        # the (b, q) with 3 <= b <= 7, 1 <= q <= 4 in turn, so the mix is the
        # same for every seed; most are classify, so the median op falls
        # inside this block rather than between two kinds of op
        b, q = 3 + i % 5, 1 + (i // 5) % 4
        a = rng.choice([a for a in range(1, b) if gcd(a, b) == 1])
        f = [_nonzero(rng, -4, 4) for _ in range(q)]
        command = "decompose" if i % 9 == 8 else "classify"
        ops.append(Op(f"obstructed-{command}",
                      [command, "--alpha", f"{a}/{b}", _fmt(f), "--q", str(q)],
                      [_report(out_dir, f"o{i}")],
                      {"f": f, "alpha": f"{a}/{b}"}))
    rng.shuffle(ops)
    warm = Op("obstructed-classify", ["classify", "--alpha", "1/3", "--f=1,2", "--q", "2"],
              [_report(out_dir, "warmup")], {"f": [1, 2], "alpha": "1/3"})
    return warm, ops


def _alpha_arg(alpha):
    return "1" if alpha == 1 else f"{alpha.numerator}/{alpha.denominator}"


# b(m) = chi_d(m) - c chi_d(m/2) [2 | m]  <=>  F = (1 - c 2^-s) L(s, chi_d)
_PLANTED_C = [Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(4), Fraction(9, 2),
              Fraction(-5, 2), Fraction(-3), Fraction(-7, 2), Fraction(-4)]


def planted_factor_zeros(c, t_lo, t_hi):
    """Zeros of 1 - c 2^-s with t in [t_lo, t_hi]."""
    return two_term_zeros(1, 2, -float(c), t_lo, t_hi)


def _zeros_ops(rng, out_dir):
    ops = []
    for i in range(12):
        d = (1, -3)[i % 2]
        c = rng.choice(_PLANTED_C)
        k = abs(d)
        poly = {1: 1, 2: -c}  # period 2k
        f = [convolve(poly, d, j + 1) for j in range(2 * k)]
        zs = planted_factor_zeros(c, 0.0, 40.0)
        z = zs[rng.randrange(min(3, len(zs)))]
        # place the zero inside one cell of the 2x4 grid, away from its edges
        w, h = 0.5, 4.0
        cx, cy = rng.randrange(2), rng.randrange(4)
        fx, fy = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)
        if z.real - (cx + fx) * w / 2 <= 1.05:  # keep the rectangle in sigma > 1
            cx = 0
        s1 = z.real - (cx + fx) * w / 2
        t1 = z.imag - (cy + fy) * h / 4
        rect = [round(s1, 6), round(s1 + w, 6), round(t1, 6), round(t1 + h, 6)]
        ops.append(Op("planted", ["zeros", "--alpha", "1", _fmt(f), "--q", str(len(f)),
                                  "--rect", ",".join(map(str, rect)), "--grid", "2x4"],
                      [_report(out_dir, f"z{i}")],
                      {"c": str(c), "rect": rect}))
    for i in range(12):
        alpha = round(rng.uniform(0.3, 0.95), 6)
        q = 2 + i % 2
        f = [1] + [_nonzero(rng, -4, 4) for _ in range(q - 1)]
        s1 = round(rng.uniform(1.1, 1.6), 6)
        t1 = round(rng.uniform(0.0, 30.0), 6)
        rect = [s1, round(s1 + 0.5, 6), t1, round(t1 + 4.0, 6)]
        ops.append(Op("float-alpha", ["zeros", "--alpha", str(alpha), _fmt(f), "--q", str(q),
                                      "--rect", ",".join(map(str, rect)), "--grid", "2x4"],
                      [_report(out_dir, f"u{i}")],
                      {"alpha": alpha, "f": f, "rect": rect}))
    rng.shuffle(ops)
    warm = Op("float-alpha", ["zeros", "--alpha", "0.5", "--f=1,-3", "--q", "2",
                              "--rect", "1.2,1.7,0,4", "--grid", "2x4"],
              [_report(out_dir, "warmup")], {"alpha": 0.5, "f": [1, -3],
                                             "rect": [1.2, 1.7, 0.0, 4.0]})
    return warm, ops


def _density_op(tag, out_dir, N, theta, q):
    return Op("window", ["density", "--minpoly", MINPOLY, "--interval", INTERVAL,
                         "--q", str(q), "--theta", str(theta), "--N", str(N)],
              [_report(out_dir, tag)], {"N": N, "theta": str(theta), "q": q})


SHORT_WINDOWS = 80


def _density_ops(rng, out_dir):
    # the canonical theta = 1/10^6 windows (M = 100 and M = 1000) at both q
    ops = [_density_op(f"c{N}-{q}", out_dir, N, Fraction(1, 10**6), q)
           for N in (10**8, 10**9) for q in (1, 2)]
    for i in range(SHORT_WINDOWS):
        # one window per slot of a grid over [10^7, 10^12) in log N, denser
        # at small N, with fewer members where norms cost more: per-norm
        # factoring time is heavy-tailed, so this keeps the pass time steady
        u = ((i + rng.random()) / SHORT_WINDOWS) ** 2
        N = int(10 ** (7 + 5 * u))
        members = max(1, round(8 * 16 ** -u))
        q = 1 if members < 2 else rng.choice((1, 2))
        ops.append(_density_op(f"w{i}", out_dir, N, Fraction(1, N // members), q))
    rng.shuffle(ops)
    warm = _density_op("warmup", out_dir, 10**6, Fraction(1, 10**5), 1)
    return warm, ops


def _construct_op(tag, out_dir, q, stages, f):
    report, phi = _report(out_dir, tag), f"{out_dir}/{tag}-phi.csv"
    return Op("construct", ["construct-phi", "--minpoly", MINPOLY, "--interval", INTERVAL,
                            "--q", str(q), "--profile", "desk", "--stages", str(stages),
                            _fmt(f), "--phi-csv", phi],
              [report, phi], {"stages": stages})


def _construct_ops(rng, out_dir):
    ops = [
        _construct_op("k1", out_dir, 1, 10, [_nonzero(rng, -3, 3)]),
        _construct_op("k2", out_dir, 2, 8, [_nonzero(rng, -3, 3) for _ in range(2)]),
    ]
    warm = _construct_op("warmup", out_dir, 1, 1, [1])
    return warm, ops


# ---------------------------------------------------------------------------
# oracles: each returns a list of problems (empty when the output is right)


def check(workload, op, files):
    report = json.loads(files[0])
    if report.get("command") != op.argv[0]:
        return [f"report command {report.get('command')!r} != {op.argv[0]!r}"]
    return {
        "classify": _check_structure,
        "zeros": _check_zeros,
        "density": _check_density,
        "construct": _check_construct,
    }[workload](op, report["results"], files)


def _check_structure(op, res, files):
    alpha = Fraction(op.expect["alpha"])
    g = lifted_series(op.expect["f"], alpha)
    problems = []
    prefactor = res.get("lift_prefactor", res.get("prefactor"))
    if prefactor != alpha.denominator:
        problems.append(f"prefactor {prefactor} != {alpha.denominator}")
    cert = res.get("certificate", res.get("pl_certificate"))
    if op.argv[0] == "decompose":
        problems += _check_decomposition(res, g)
    if op.kind.startswith("obstructed"):
        if cert["verdict"] != "NotPL" or cert["proof"] != "ResidueObstruction":
            problems.append(f"obstructed support came back {cert['verdict']}/{cert['proof']}")
        elif not residue_obstruction_holds(g, *cert["obstruction"]):
            problems.append(f"obstruction {cert['obstruction']} does not hold")
    elif op.kind.startswith("search"):
        if cert["verdict"] != "NotPL":
            problems.append(f"refuted P*L form came back {cert['verdict']}")
    else:  # planted P(s) L(s, chi_d)
        problems += _check_planted(op, res, cert)
    return problems


def _check_decomposition(res, g):
    """Terms recombine to g, and (Saias-Weingartner) one term iff P*L."""
    problems = []
    terms = res["terms"]
    V = min(res["verification_period"], 4 * len(g))
    for m in range(1, V + 1):
        total = 0j
        for term in terms:
            k = term["conductor"]
            for n, c in term["polynomial"].items():
                n = int(n)
                angle = term["character_angles"][(m // n) % k] if m % n == 0 else None
                if angle is not None:
                    total += complex(c["re"], c["im"]) * cmath.exp(
                        2j * math.pi * float(Fraction(angle)))
        if abs(total - float(g[(m - 1) % len(g)])) > 1e-9:
            problems.append(f"decomposition misses coefficient {m}")
            break
    is_pl = res["pl_certificate"]["verdict"] == "IsPL"
    if is_pl != (len(terms) == 1):
        problems.append(f"{len(terms)} terms but P*L verdict {is_pl}")
    return problems


def _check_planted(op, res, cert):
    problems = []
    poly = {int(n): a for n, a in op.expect["poly"].items()}
    if cert["verdict"] != "IsPL":
        return [f"planted P*L form came back {cert['verdict']}"]
    if cert.get("character_modulus") != abs(op.expect["d"]):
        problems.append(f"character modulus {cert.get('character_modulus')} "
                        f"!= {abs(op.expect['d'])}")
    got = {int(n): complex(c["re"], c["im"]) for n, c in cert["polynomial"].items()}
    if set(got) != set(poly) or any(abs(got[n] - poly[n]) > 1e-12 for n in poly):
        problems.append(f"certificate polynomial {got} != planted {poly}")
        return problems
    if len(poly) == 1:
        if res["verdict"] != "no zeros found; consistent with zero-free form":
            problems.append(f"single-term P gave verdict {res['verdict']!r}")
        return problems
    zeros = [complex(*z) for z in res.get("polynomial_zeros", [])]
    for z in zeros:
        value = sum(a * n ** (-z) for n, a in poly.items())
        if abs(value) > 1e-6:
            problems.append(f"reported zero {z} has |P| = {abs(value):.2e}")
    if len(poly) == 2:
        (n1, a1), (n2, a2) = sorted(poly.items())
        s_lo, s_hi, _, t_hi = res["scan_region"]
        for z in two_term_zeros(a1, n2, a2, 0.0, t_hi - 1e-3):
            if s_lo + 1e-3 < z.real < s_hi - 1e-3 and not any(abs(z - w) < 1e-6 for w in zeros):
                problems.append(f"analytic zero {z} of P not reported")
    expect = ("zeros exist (from the Dirichlet polynomial factor)" if zeros
              else "no zeros found; consistent with zero-free form")
    if res["verdict"] != expect:
        problems.append(f"verdict {res['verdict']!r} with {len(zeros)} zeros")
    return problems


def _check_zeros(op, res, files):
    problems = []
    zeros = [complex(z["sigma"], z["t"]) for z in res["zeros"]]
    for z in res["zeros"]:
        if not z["residual"] <= 1e-7:
            problems.append(f"zero {z['sigma']}+{z['t']}i has residual {z['residual']:.2e}")
    s1, s2, t1, t2 = op.expect["rect"]
    if op.kind == "planted":
        c = Fraction(op.expect["c"])
        analytic = planted_factor_zeros(c, t1 - 10.0, t2 + 10.0)
        for z in zeros:
            if not any(abs(z - w) < 1e-6 for w in analytic):
                problems.append(f"reported zero {z} is not a zero of 1 - {c} 2^-s")
        for w in analytic:
            inside = s1 + 1e-6 < w.real < s2 - 1e-6 and t1 + 1e-6 < w.imag < t2 - 1e-6
            if inside and not any(abs(z - w) < 1e-6 for z in zeros):
                problems.append(f"planted zero {w} not found")
    else:
        for z in zeros:
            value = _hurwitz_series(op.expect["f"], op.expect["alpha"], z)
            if value > 1e-7:
                problems.append(f"zero {z} has independent |F| = {value:.2e}")
    return problems


def _hurwitz_series(f, alpha, z):
    """|sum_n f(n) (n + alpha)^-z| via mpmath's Hurwitz zeta."""
    with mp.workdps(30):
        s = mp.mpc(z.real, z.imag)
        q = len(f)
        a = mp.mpf(repr(alpha))
        total = sum(f[r] * mp.zeta(s, (r + a) / q) for r in range(q))
        return float(abs(mp.mpf(q) ** (-s) * total))


def _check_density(op, res, files):
    problems = []
    N, q = op.expect["N"], op.expect["q"]
    M = int(Fraction(op.expect["theta"]) * N)
    windows = res["windows"]
    if [(w["N"], w["b"]) for w in windows] != [(N, b) for b in range(q)]:
        return [f"windows {[(w['N'], w['b']) for w in windows]} != classes of N={N}"]
    for w in windows:
        b = w["b"]
        members = sum(1 for n in range(N + 1, N + M + 1) if n % q == b)
        if w["M"] != M or w["members"] != members:
            problems.append(f"window N={N} b={b}: M={w['M']} members={w['members']}")
        if w["count_A"] != len(w["eligible"]):
            problems.append(f"window N={N} b={b}: count_A != len(eligible)")
        for n, p, root in w["eligible"]:
            ok = (N < n <= N + M and n % q == b and sqrt2_norm(n) % p == 0
                  and p > max(n, N + M - n) and n % p == root and is_prime(p))
            if not ok:
                problems.append(f"window N={N}: ({n}, {p}, {root}) is not a private prime")
                break
    return problems


def _check_construct(op, res, files):
    problems = []
    if len(res["stages"]) != op.expect["stages"]:
        problems.append(f"{len(res['stages'])} stages reported")
    for st in res["stages"]:
        if not st["induction_ok"]:
            problems.append(f"stage {st['stage']}: induction_ok is false")
        for cls in st["classes"]:
            if not cls["class_bound_ok"]:
                problems.append(f"stage {st['stage']} class {cls['b']}: class bound fails")
    if not res["envelope_ok"]:
        problems.append("envelope_ok is false")
    if not res["recomputation_delta"] < 1e-20:
        problems.append(f"recomputation_delta {res['recomputation_delta']:.2e}")
    rows = files[1].decode().splitlines()
    if rows[0] != "p,root,phase_re,phase_im" or len(rows) - 1 != res["phi_total"]:
        problems.append(f"phase log has {len(rows) - 1} rows, report says {res['phi_total']}")
    with localcontext() as ctx:
        ctx.prec = 60
        for row in rows[1:]:
            p, root, re, im = row.split(",")
            gap = abs(Decimal(re) ** 2 + Decimal(im) ** 2 - 1)
            if gap > Decimal("1e-25"):
                problems.append(f"phase of ({p}, {root}) is off the unit circle by {gap:.1e}")
                break
    return problems
