"""Command-line front end: every experiment behind one reproducible surface.

Reports are JSON envelopes {schema, command, config, seed, timestamp,
results} written atomically (temp file + rename); repeated runs with the
same config and seed are byte-identical except for the timestamp.  CSV
side-products (factor tables, per-n outcomes, phase logs, zero lists) are
documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import datetime
import functools
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from mpmath import mp

from .arith import FactorCache, FactorizationOverflow, PeriodicFunction, write_atomic
from .construction import (
    ConstructionProfile,
    ThinClass,
    Unreachable,
    run_construction,
)
from .density import EmptyWindow, WindowSpec, density_sweep, private_prime_scan, sweep_results
from .ideals import AlgebraicAlpha, ideal_factorize, ideal_factorize_many, norm_value
from .structure import (
    IS_PL,
    UnsupportedAlpha,
    decompose,
    detect_pl_form,
    nonvanishing_verdict,
    rational_series,
)
from .zeros import (
    BoundaryTooCloseToZero,
    Rectangle,
    ZERO_TOL,
    UnresolvedZeros,
    _polynomial_zero_free,
    decomposition_evaluator,
    periodic_series_evaluator,
    polished_zero,
    polynomial_evaluator,
    require_half_plane,
    winding_number,
    zero_search,
)
from .zeta import (
    DivergesAtOne,
    PoleAtOne,
    PrecisionExhausted,
    PrecisionProfile,
    f_eval,
)

SCHEMA_VERSION = 5


class SchemaMismatch(Exception):
    """A report written under a payload schema this version does not read."""


DOMAIN_ERRORS = (
    ThinClass, Unreachable, EmptyWindow, PoleAtOne, DivergesAtOne,
    PrecisionExhausted, FactorizationOverflow, BoundaryTooCloseToZero,
    UnsupportedAlpha, SchemaMismatch, UnresolvedZeros,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, domain errors exit 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _positive_int(text):
    """argparse type for counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _finite_float(text):
    """argparse type for real values: a finite float, so inf and nan are
    usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _rect(text):
    """argparse type for --rect: (sigma1, sigma2, t1, t2), four finite numbers."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"rect must be sigma1,sigma2,t1,t2, got {text!r}")
    return tuple(_finite_float(x) for x in parts)


def _n_range(text):
    """argparse type for --range: (A, B) from A..B, integers with 0 <= A <= B."""
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        lo, hi = 1, 0
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(
            f"range must be A..B with integers 0 <= A <= B, got {text!r}")
    return lo, hi


def _grid_dims(text):
    """(A, B) of a grid written AxB or A×B, both positive integers."""
    try:
        nx, ny = (int(x) for x in text.lower().replace("×", "x").split("x"))
    except ValueError:
        nx = ny = 0
    if nx < 1 or ny < 1:
        raise argparse.ArgumentTypeError(f"grid must be AxB with positive integers, got {text!r}")
    return nx, ny


def _grid(text):
    """argparse type for --grid: checked, but kept as written, because the
    report records it."""
    _grid_dims(text)
    return text


def _number(text, kind=Fraction):
    """`text` read as `kind` (Fraction by default, or float or complex); a
    zero denominator, or a value whose float is not finite, is a ValueError
    that names the text."""
    try:
        value = kind(text)
        if not cmath.isfinite(complex(value)):
            raise OverflowError
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"must be a finite number, got {text!r}") from None
    return value


def _parse_values(text):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "/" in chunk:
            out.append(_number(chunk))
        elif "j" in chunk or "i" in chunk:
            out.append(_number(chunk, lambda t: complex(t.replace("i", "j"))))
        else:
            out.append(_number(chunk, Fraction if "." not in chunk else float))
    return tuple(out)


def _parse_f(args) -> PeriodicFunction:
    values = _parse_values(args.f)
    q = args.q if args.q else len(values)
    if len(values) != q:
        raise ValueError(f"need exactly q={q} coefficient values, got {len(values)}")
    return PeriodicFunction(q, values)


def _format_f(f: PeriodicFunction):
    out = []
    for re, im in f.values:
        if im == 0:
            out.append(str(re.numerator) if re.denominator == 1 else str(re))
        else:
            out.append(str(complex(re, im)))
    return out


def _parse_alpha(args, *, allow_float=False):
    """Returns one of: Fraction (rational), AlgebraicAlpha, float (untyped).

    Untyped floats are accepted only where the arithmetic type does not
    drive a theorem-level claim (eval, zeros)."""
    if getattr(args, "minpoly", None):
        coeffs = tuple(int(c) for c in args.minpoly.split(","))
        if not args.interval:
            raise ValueError("--minpoly requires --interval lo,hi")
        lo, hi = (_number(x) for x in args.interval.split(","))
        return AlgebraicAlpha(coeffs, (lo, hi), q_context=args.q or 1)
    text = args.alpha
    if text is None:
        raise ValueError("no alpha given (use --alpha or --minpoly/--interval)")
    if "/" in text:
        frac = _number(text)
        if not 0 < frac <= 1:
            raise ValueError("rational alpha must lie in (0, 1]")
        return frac
    if text.strip() in {"1", "1.0"}:
        return Fraction(1)
    value = _number(text, float)
    if not allow_float:
        raise UnsupportedAlpha(
            "this command needs a typed alpha: a/b or --minpoly/--interval"
        )
    if not 0 < value <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    return value


def _alpha_config(alpha):
    if isinstance(alpha, AlgebraicAlpha):
        return {
            "kind": "algebraic",
            "minpoly": list(alpha.minpoly),
            "interval": [str(alpha.interval[0]), str(alpha.interval[1])],
        }
    if isinstance(alpha, Fraction):
        return {"kind": "rational", "value": f"{alpha.numerator}/{alpha.denominator}"}
    return {"kind": "untyped-float", "value": alpha}


def _alpha_from_config(config):
    """The alpha a report's config records: the inverse of _alpha_config."""
    cfg = config["alpha"]
    if cfg["kind"] == "algebraic":
        return AlgebraicAlpha(tuple(cfg["minpoly"]), tuple(_number(x) for x in cfg["interval"]),
                              q_context=config.get("q", 1))
    if cfg["kind"] == "rational":
        return _number(cfg["value"])
    return cfg["value"]


def _f_from_config(config):
    """The coefficient function a report's config records."""
    return PeriodicFunction(config["q"], _parse_values(",".join(config["f"])))


def _alpha_real(alpha, digits=17):
    """An algebraic alpha as a number at `digits`; zeta takes the others as they are."""
    return alpha.value(digits) if isinstance(alpha, AlgebraicAlpha) else alpha


def make_report(command, config, results, seed):
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "results": results,
    }


def report_bytes(report) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def _emit(args, report):
    data = report_bytes(report)
    if args.output:
        write_atomic(args.output, data)
    else:
        sys.stdout.write(data.decode())


def _write_csv(path, header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode())


def _cache_from(args):
    """The factor cache file of --cache or HURWITZ_CACHE, or None: a run
    factors each norm once, so an in-memory cache would never be read back."""
    path = args.cache or os.environ.get("HURWITZ_CACHE")
    return FactorCache(path) if path else None


# ---------------------------------------------------------------------------
# subcommands


def _eval_results(f, alpha, sigma, t, digits):
    """The `results` of an `eval` report: F(sigma + i t) at `digits`, computed
    with at least 15 working digits and tolerance 10^-(working digits - 5)."""
    working = max(15, digits)
    prof = PrecisionProfile(working, 10.0 ** (-(working - 5)))
    res = f_eval(complex(sigma, t), f, _alpha_real(alpha, max(digits, 17)), prof)
    if res.pole_flag:
        return {"pole": True}
    results = {
        "value_re": float(res.value.real),
        "value_im": float(res.value.imag),
        "error_bound": res.abs_error_bound,
        "pole": False,
    }
    if digits > 17:
        results["value_str"] = [mp.nstr(res.value.real, digits), mp.nstr(res.value.imag, digits)]
    return results


def cmd_eval(args, seed):
    f = _parse_f(args)
    alpha = _parse_alpha(args, allow_float=True)
    digits = args.digits
    config = {
        "sigma": args.sigma, "t": args.t, "alpha": _alpha_config(alpha),
        "f": _format_f(f), "q": f.period, "digits": digits,
    }
    return make_report("eval", config, _eval_results(f, alpha, args.sigma, args.t, digits), seed)


def _value_strs_agree(reported, rebuilt, digits):
    """Whether two `eval` results printed at `digits` can hold the same value:
    each part of `value_str` within both error bounds plus the rounding of
    both printed strings (at most |x| 10^(1-digits) / 2 each)."""
    with mp.workdps(digits + 10):
        for a, b in zip(reported["value_str"], rebuilt["value_str"]):
            x, y = mp.mpf(a), mp.mpf(b)
            slack = (abs(x) + abs(y)) * mp.mpf(10) ** (1 - digits) / 2
            if abs(x - y) > reported["error_bound"] + rebuilt["error_bound"] + slack:
                return False
    return True


def cmd_decompose(args, seed):
    return _decompose_report(_parse_f(args), _parse_alpha(args), seed)


def _decompose_report(f, alpha, seed):
    series, prefactor = rational_series(f, alpha)
    dec = decompose(series)
    cert = detect_pl_form(series, dec)
    config = {"alpha": _alpha_config(alpha), "f": _format_f(f), "q": f.period}
    results = {
        "prefactor": prefactor,
        "verified": dec.verified,
        "verification_period": dec.verification_period,
        "terms": [
            {
                "conductor": chi.modulus,
                "character_angles": [str(a) if a is not None else None for a in chi.angles],
                "polynomial": {str(n): c.to_json() for n, c in poly},
            }
            for chi, poly in dec.terms
        ],
        "pl_certificate": {
            "verdict": cert.verdict,
            "proof": cert.proof_kind,
            "obstruction": list(cert.obstruction) if cert.obstruction else None,
            "polynomial": {str(n): c.to_json() for n, c in cert.polynomial_support}
            if cert.verdict == "IsPL" else None,
            "character_modulus": cert.character.modulus if cert.character else None,
            "verification_period": cert.verification_period,
        },
    }
    return make_report("decompose", config, results, seed)


def cmd_classify(args, seed):
    return _classify_report(_parse_f(args), _parse_alpha(args), args.tmax, seed)


def _classify_report(f, alpha, tmax, seed):
    config = {
        "alpha": _alpha_config(alpha), "f": _format_f(f),
        "q": f.period, "tmax": tmax,
    }
    return make_report("classify", config, nonvanishing_verdict(f, alpha, tmax), seed)


def cmd_factor_ideals(args, seed):
    alpha = _parse_alpha(args)
    if not isinstance(alpha, AlgebraicAlpha):
        raise UnsupportedAlpha("factor-ideals needs --minpoly/--interval")
    lo, hi = args.range
    cache = _cache_from(args)
    rows = []
    for rec in ideal_factorize_many(alpha, range(lo, hi + 1), cache):
        n = rec.n
        admissible = " ".join(f"{k.p}^{e}@{k.root}" for k, e in rec.admissible_part)
        rows.append((n, norm_value(alpha, n), admissible, rec.residual_norm))
    config = {
        "alpha": _alpha_config(alpha), "q": args.q or 1,
        "range": [lo, hi],
    }
    if args.csv:
        _write_csv(args.csv, ("n", "norm", "admissible", "residual"), rows)
    results = {"rows": [[n, v, adm, res] for n, v, adm, res in rows]}
    return make_report("factor-ideals", config, results, seed)


def cmd_density(args, seed):
    alpha = _parse_alpha(args)
    if not isinstance(alpha, AlgebraicAlpha):
        raise UnsupportedAlpha("density needs --minpoly/--interval")
    n_list = [int(x) for x in args.N.split(",")]
    theta = _number(args.theta)
    cache = _cache_from(args)
    q = args.q or 1
    if args.b is None:
        reports = density_sweep(alpha, n_list, theta, q, cache)
        results = sweep_results(q, theta, [rep.to_json() for rep in reports])
    else:  # class b of each listed window
        reports = [private_prime_scan(alpha, WindowSpec(N, theta, q, args.b), cache=cache)
                   for N in n_list]
        results = {"windows": [rep.to_json() for rep in reports]}
    if args.csv:
        _write_csv(args.csv, ("N", "q", "b", "n", "eligible", "p", "root"), _per_n_rows(reports))
    config = {
        "alpha": _alpha_config(alpha), "q": q, "theta": str(theta),
        "N": n_list, "b": args.b,
    }
    return make_report("density", config, results, seed)


def _per_n_rows(reports):
    rows = []
    for rep in reports:
        chosen = dict(rep.eligible)
        for n in rep.window.members():
            key = chosen.get(n)
            rows.append((
                rep.window.N, rep.window.q, rep.window.b, n,
                int(key is not None),
                key.p if key else "", key.root if key is not None else "",
            ))
    return rows


PROFILES = {"desk": ConstructionProfile.desk, "canonical": ConstructionProfile.canonical}


def cmd_construct_phi(args, seed):
    alpha = _parse_alpha(args)
    if not isinstance(alpha, AlgebraicAlpha):
        raise UnsupportedAlpha("construct-phi needs --minpoly/--interval")
    q = args.q or 1
    profile = PROFILES[args.profile](q)
    if args.n1 or args.digits:
        profile = dataclasses.replace(profile, n1=args.n1 or profile.n1,
                                      digits=args.digits or profile.digits)
    f = _parse_f(args) if args.f else PeriodicFunction(q, tuple([1] * q))
    results, _, log_rows = run_construction(f, alpha, profile, args.stages, _cache_from(args))
    if args.phi_csv:
        _write_csv(args.phi_csv, ("p", "root", "phase_re", "phase_im"), log_rows)
    config = {
        "alpha": _alpha_config(alpha), "q": q, "profile": args.profile,
        "stages": args.stages, "n1": profile.n1, "digits": profile.digits,
        "f": _format_f(f),
    }
    return make_report("construct-phi", config, results, seed)


def _zero_evaluator(f, alpha):
    """(F, P): the series evaluator, and for a rational alpha whose series
    is b^s P(s) L(s, chi) the coefficients {n: c_n} of P, else None.  In
    sigma > 1, b^s and L (an absolutely convergent Euler product) do not
    vanish, so F and P have the same zeros and the same winding."""
    if isinstance(alpha, Fraction):
        series, prefactor = rational_series(f, alpha)
        dec = decompose(series)
        F = decomposition_evaluator(dec, prefactor)
        cert = detect_pl_form(series, dec)
        if cert.verdict == IS_PL:
            return F, {n: complex(c) for n, c in cert.polynomial_support}
        return F, None
    return periodic_series_evaluator(f, _alpha_real(alpha)), None


def cmd_zeros(args, seed):
    f = _parse_f(args)
    alpha = _parse_alpha(args, allow_float=True)
    rect = Rectangle(*args.rect)
    F, poly = _zero_evaluator(f, alpha)
    config = {
        "alpha": _alpha_config(alpha), "f": _format_f(f),
        "q": f.period, "rect": list(args.rect), "grid": args.grid,
    }
    if poly is None:
        searched, zero_free, label = F, None, "series"
    else:
        require_half_plane(rect)  # before F is read outside sigma > 1
        # F at the corner of largest |t| keeps F's input domain (a t past
        # the Euler-Maclaurin head cap is refused) before P is wound
        F(max(rect.corners(), key=lambda z: (abs(z.imag), -z.real)))
        searched, zero_free, label = (polynomial_evaluator(poly), _polynomial_zero_free(poly),
                                      "polynomial factor")
    if args.grid:
        search = zero_search(searched, rect, _grid_dims(args.grid), zero_free)
        zeros, residuals = search.zeros, search.residuals
        if poly is not None:  # polished on P, each residual still |F|
            zeros = [polished_zero(poly, z) for z in zeros]
            residuals = [abs(F(z)) for z in zeros]
        results = {
            "searched": label,
            "cells": [
                {
                    "rect": list(c.rectangle.as_tuple()),
                    "winding": c.winding,
                    "min_boundary_modulus": c.min_boundary_modulus,
                    "samples": c.samples,
                    "unresolved": c.unresolved,
                }
                for c in search.cells
            ],
            "zeros": [
                {"sigma": z.real, "t": z.imag, "residual": r}
                for z, r in zip(zeros, residuals)
            ],
        }
        if args.csv:
            _write_csv(args.csv, ("sigma", "t", "residual"),
                       [(z.real, z.imag, r) for z, r in zip(zeros, residuals)])
    else:
        res = winding_number(searched, rect)
        results = {
            "searched": label,
            "winding": res.winding,
            "min_boundary_modulus": res.min_boundary_modulus,
            "samples": res.samples,
        }
    return make_report("zeros", config, results, seed)


def cmd_verify(args, seed):
    """Recompute a random sample of a report's rows (default 1%, at least
    one row) and fail loudly on any mismatch.

    A report of another schema is a domain error (exit 2); a payload that
    is not a report, or lacks the fields its command needs, is malformed
    input (exit 1)."""
    payload = json.loads(Path(args.report).read_text())
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError(f"{args.report} is not a ghzeta report: no schema field")
    if payload["schema"] != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"{args.report} has schema {payload['schema']!r}; "
            f"this version reads schema {SCHEMA_VERSION}"
        )
    try:
        checked, mismatches = _recheck(payload, args.fraction, seed)
    except (KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        command = payload.get("command")
        raise ValueError(f"malformed {command} report: {type(exc).__name__} {exc}") from exc

    results = {"checked": checked, "mismatches": mismatches, "ok": not mismatches}
    rep = make_report("verify", {"report": str(args.report), "fraction": args.fraction},
                      results, seed)
    if mismatches:
        _emit(args, rep)
        sys.exit(2)
    return rep


def _recheck(payload, fraction, seed):
    """(rows checked, mismatching rows) for one report payload."""
    rng = random.Random(seed)
    command = payload.get("command")
    config = payload.get("config", {})
    results = payload.get("results", {})
    checked, mismatches = 0, []

    def sample(rows):
        k = max(1, int(len(rows) * fraction))
        return rng.sample(list(rows), min(k, len(rows)))

    if command == "factor-ideals":
        alpha = _alpha_from_config(config)
        for row in sample(results["rows"]):
            n, norm, adm, residual = row
            rec = ideal_factorize(alpha, n)
            expect = " ".join(f"{k.p}^{e}@{k.root}" for k, e in rec.admissible_part)
            checked += 1
            if norm_value(alpha, n) != norm or expect != adm or rec.residual_norm != residual:
                mismatches.append(n)
    elif command == "density":
        alpha, theta = _alpha_from_config(config), _number(config["theta"])
        windows = results.get("windows", [])
        classes = range(config["q"]) if config["b"] is None else [config["b"]]
        listed = [[wj["N"], wj["b"]] for wj in windows]
        checked += 1  # the windows the config asks for, each listed once, in order
        if listed != [[N, b] for N in config["N"] for b in classes]:
            mismatches.append(["windows", listed])
        elif config["b"] is None:  # a sweep's aggregates, from the listed windows
            checked += 1
            if sweep_results(config["q"], config["theta"], windows) != results:
                mismatches.append(["aggregates"])
        for wj in sample(windows):
            rep = private_prime_scan(alpha, WindowSpec(wj["N"], theta, wj["q"], wj["b"]))
            checked += 1
            if rep.to_json() != wj:
                mismatches.append((wj["N"], wj["b"]))
    elif command == "eval":
        digits = config["digits"]
        rebuilt = _eval_results(_f_from_config(config), _alpha_from_config(config),
                                config["sigma"], config["t"], digits)
        checked += 1
        if results.get("pole") or rebuilt["pole"]:
            if bool(results.get("pole")) != rebuilt["pole"]:
                mismatches.append("pole")
        elif abs(complex(rebuilt["value_re"], rebuilt["value_im"])
                 - complex(results["value_re"], results["value_im"])) > 1e-9:
            mismatches.append("value")
        elif "value_str" in rebuilt and not _value_strs_agree(results, rebuilt, digits):
            mismatches.append("value_str")
    elif command == "zeros":
        require_half_plane(Rectangle(*config["rect"]))  # whatever cells are sampled
        F, _ = _zero_evaluator(_f_from_config(config), _alpha_from_config(config))
        zeros = [complex(zj["sigma"], zj["t"]) for zj in results.get("zeros", [])]
        for z in sample(zeros):
            checked += 1
            if abs(complex(F(z))) > 1e-7:
                mismatches.append([z.real, z.imag])
        cells = results.get("cells") or [{"rect": config["rect"], "winding": results["winding"]}]
        for cell in sample(cells):  # the winding a cell claims, wound again
            checked += 1
            try:
                winding = winding_number(F, Rectangle(*cell["rect"])).winding
            except BoundaryTooCloseToZero:
                winding = None
            if winding != cell["winding"]:
                mismatches.append(["winding", cell["rect"]])
        if config["grid"]:
            rects = [(Rectangle(*cell["rect"]), cell) for cell in cells]
            for rect, cell in rects:  # a winding no listed zero or unresolved count covers
                checked += 1
                located = sum(rect.contains(z, ZERO_TOL) for z in zeros)
                if located + cell["unresolved"] < cell["winding"]:
                    mismatches.append(["account", cell["rect"]])
            for z in zeros:  # a zero in no winding cell
                checked += 1
                if not any(c["winding"] and r.contains(z, ZERO_TOL) for r, c in rects):
                    mismatches.append(["outside", [z.real, z.imag]])
    elif command == "construct-phi":
        # re-reads each sampled stage's own induction_ok flag; no phase or
        # sum is recomputed, so this checks the report, not the construction
        for stage in sample(payload["results"]["stages"]):
            checked += 1
            if not stage["induction_ok"]:
                mismatches.append(stage["stage"])
    elif command in ("decompose", "classify"):
        f, alpha = _f_from_config(config), _alpha_from_config(config)
        if command == "decompose":
            rebuilt = _decompose_report(f, alpha, seed)
        else:
            rebuilt = _classify_report(f, alpha, config.get("tmax", 30.0), seed)
        checked += 1
        if json.dumps(rebuilt["results"], sort_keys=True) != json.dumps(results, sort_keys=True):
            mismatches.append("results")
    else:
        raise ValueError(f"verify does not support command {command!r}")
    return checked, mismatches


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built on first use and then reused: parsing
    keeps no state in it, and building it costs milliseconds per call."""
    parser = _Parser(prog="ghzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=True, coeffs=True):
        p.add_argument("--output", help="write the JSON report here (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cache", help="factorization cache CSV (or HURWITZ_CACHE)")
        p.add_argument("--q", type=_positive_int, default=None, help="coefficient period")
        if alpha:
            p.add_argument("--alpha", help="rational a/b, 1, or a decimal (where allowed)")
            p.add_argument("--minpoly", help="algebraic alpha: c_d,...,c_0")
            p.add_argument("--interval", help="isolating interval lo,hi")
        if coeffs:
            p.add_argument("--f", help="comma-separated period values, e.g. 1,-1")

    p = sub.add_parser("eval", help="evaluate F(sigma+it, f, alpha)")
    common(p)
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--digits", type=_positive_int, default=15)

    p = sub.add_parser("decompose", help="L-function decomposition + P*L certificate")
    common(p)

    p = sub.add_parser("classify", help="zero/nonvanishing verdict for F")
    common(p)
    p.add_argument("--tmax", type=_finite_float, default=30.0, help="t depth of the P zero scan")

    p = sub.add_parser("factor-ideals", help="ideal factorizations over an n range")
    common(p, coeffs=False)
    p.add_argument("--range", type=_n_range, required=True, help="N1..N2")
    p.add_argument("--csv", help="also write CSV rows here")

    p = sub.add_parser("density", help="private-prime window scans")
    common(p, coeffs=False)
    p.add_argument("--theta", required=True, help="window ratio, e.g. 1/1000000")
    p.add_argument("--N", required=True, help="comma-separated window starts")
    p.add_argument("--b", type=int, default=None, help="single residue class")
    p.add_argument("--csv", help="per-n outcome CSV")

    p = sub.add_parser("construct-phi", help="run the phase construction")
    common(p)
    p.add_argument("--profile", default="desk", choices=list(PROFILES))
    p.add_argument("--stages", type=_positive_int, default=1)
    p.add_argument("--n1", type=_positive_int, default=None, help="override the profile N1")
    p.add_argument("--digits", type=_positive_int, default=None)
    p.add_argument("--phi-csv", help="write the phase log CSV here")

    p = sub.add_parser("zeros", help="winding-number zero location")
    common(p)
    p.add_argument("--rect", type=_rect, required=True, help="sigma1,sigma2,t1,t2")
    p.add_argument("--grid", type=_grid, help="cells as AxB, e.g. 4x16")
    p.add_argument("--csv", help="zero list CSV")

    p = sub.add_parser("verify", help="recompute a sample of a report's rows")
    p.add_argument("report")
    p.add_argument("--fraction", type=_finite_float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write the verification report here")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    seed = getattr(args, "seed", 0)
    # looked up per call, not bound into the cached parser, so a handler
    # replaced after the first call is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        report = handler(args, seed)
    except DOMAIN_ERRORS as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(args, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
