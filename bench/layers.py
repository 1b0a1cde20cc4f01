"""Which ghzeta functions the traced run wraps, and the per-layer metrics
computed from what the wrappers record.

Layers are ghzeta's modules.  Every value is per traced pass (the mean
over the traced passes of a run); pass 0 is traced and cold, so work
that process-wide caches absorb later shows up there.
"""

from __future__ import annotations

import json
import math
import os
import statistics

# layers whose self time is reported as <layer>.self_s (cli's is cli.self_s)
LAYER_SELF = ("zeta", "zeros", "structure", "characters", "ideals", "arith",
              "density", "construction")


def _bound_over_tol(prof_index, default_prof):
    def hook(tracer, args, kwargs, result, dur):
        prof = args[prof_index] if len(args) > prof_index else kwargs.get("prof", default_prof)
        bound = result.abs_error_bound
        if math.isfinite(bound):
            tracer.sample("zeta.bound_over_tol", bound / prof.target_tolerance)
    return hook


def _em_tier(args, kwargs):
    prof = args[2] if len(args) > 2 else kwargs["prof"]
    return "zeta.em_eval.float" if prof.uses_floats else "zeta.em_eval.mp"


def _ideal_bucket(tracer, args, kwargs, result, dur):
    n = args[1] if len(args) > 1 else kwargs["n"]
    decade = round(math.log10(n)) if n >= 1 else 0  # N1e12: 10^11.5 <= n < 10^12.5
    if 7 <= decade <= 12:
        tracer.add(f"ideals.n1e{decade}.calls")
        tracer.counts[f"ideals.n1e{decade}.s"] += dur


def _cache_get(tracer, args, kwargs, result, dur):
    if result is not None:
        tracer.add("arith.factor_cache.hits")


def _decomposition(tracer, args, kwargs, result, dur):
    tracer.add("structure.verification_period.sum", result.verification_period)


def _certificate(tracer, args, kwargs, result, dur):
    if result.proof_kind == "DeconvolutionCertificate":
        searched = result.character.modulus  # the search stopped at this conductor
    else:
        searched = result.searched_conductors
    tracer.add("structure.conductors_searched", searched)
    tracer.add("structure.verification_period.sum", result.verification_period)


def _window(tracer, args, kwargs, result, dur):
    tracer.add("density.members", result.members)
    tracer.add("density.count_A", result.count_A)


def _bohr(tracer, args, kwargs, result, dur):
    k = len(args[0])
    tracer.add("construction.bohr_links.sum", k)
    tracer.counts["construction.bohr_links.max"] = max(
        tracer.counts["construction.bohr_links.max"], k)


def _counting_evaluator(tracer):
    def make(series):
        def F(s):
            tracer.add("zeros.series_evals")
            return series(s)
        return F
    return make


def after_op(tracer, op):
    """Counts read from a traced op's report."""
    report = op.outputs[0]
    tracer.add("cli.report_bytes", os.path.getsize(report))
    if op.argv[0] == "zeros":
        with open(report) as fh:
            tracer.add("zeros.cells", len(json.load(fh)["results"]["cells"]))


def instrument(tracer):
    """Register every wrapper; Tracer.install applies them."""
    from ghzeta import (arith, characters, cli, construction, cyclo, density, ideals,
                        structure, zeros, zeta)

    tracer.span(zeta, "hurwitz_zeta", "zeta.hurwitz_zeta", _bound_over_tol(2, zeta.EXPLORE))
    tracer.span(zeta, "f_eval", "zeta.f_eval", _bound_over_tol(3, zeta.EXPLORE))
    tracer.span(zeta, "_eval_hurwitz", _em_tier)
    tracer.span(zeta, "abs_tail_with_bound", "zeta.abs_tail_with_bound")
    tracer.span(zeta, "class_partial_sum", "zeta.class_partial_sum")

    tracer.span(zeros, "winding_number", "zeros.winding_number")
    tracer.span(zeros, "zero_search", "zeros.zero_search")
    tracer.span(zeros, "dirichlet_polynomial_zeros", "zeros.dirichlet_polynomial_zeros")
    for factory in ("decomposition_evaluator", "periodic_series_evaluator"):
        # only the evaluators the CLI builds, so polynomial scans are not counted
        tracer.wrap_result(cli, factory, _counting_evaluator(tracer))

    tracer.span(structure, "decompose", "structure.decompose", _decomposition)
    tracer.span(structure, "detect_pl_form", "structure.detect_pl_form", _certificate)
    tracer.span(structure, "nonvanishing_verdict", "structure.nonvanishing_verdict")
    tracer.span(characters, "characters_mod", "characters.characters_mod")
    tracer.count(cyclo.Cyclo, "__add__", "cyclo.ops")
    tracer.count(cyclo.Cyclo, "__mul__", "cyclo.ops")

    tracer.span(ideals, "ideal_factorize", "ideals.ideal_factorize", _ideal_bucket)
    tracer.span(arith, "factorize", "arith.factorize")
    tracer.count(arith, "is_prime", "arith.is_prime.calls")
    tracer.count(arith, "_brent_rho", "arith.brent_rho.calls")
    tracer.count(arith.FactorCache, "get", "arith.factor_cache.lookups", _cache_get)

    tracer.span(density, "window_records", "density.window_records")
    tracer.span(density, "private_prime_scan", "density.private_prime_scan", _window)
    tracer.span(density, "density_sweep", "density.density_sweep")

    tracer.span(construction, "run_construction", "construction.run_construction")
    tracer.span(construction, "select_sigma", "construction.select_sigma")
    tracer.span(construction, "stage_advance", "construction.stage_advance")
    tracer.span(construction, "bohr_solve", "construction.bohr_solve", _bohr)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, phase):
    """Per traced pass values of every per-layer metric."""
    traced = [p for p in phase["passes"] if p["traced"]]
    untraced = [p for p in phase["passes"][1:] if not p["traced"]]
    warm_traced = traced[1:]
    n = len(traced)
    calls, busy, selfs, counts = tracer.calls, tracer.busy, tracer.self_s, tracer.counts

    def per(x):
        return x / n

    em_float, em_mp = "zeta.em_eval.float", "zeta.em_eval.mp"
    mp_names = ("zeta.abs_tail_with_bound", "zeta.class_partial_sum")
    cells = counts["zeros.cells"]
    m = {
        "zeta.hurwitz_zeta.calls": per(calls["zeta.hurwitz_zeta"]),
        "zeta.hurwitz_zeta.busy_s": per(busy["zeta.hurwitz_zeta"]),
        "zeta.f_eval.calls": per(calls["zeta.f_eval"]),
        "zeta.f_eval.busy_s": per(busy["zeta.f_eval"]),
        "zeta.mp.calls": per(sum(calls[x] for x in mp_names)),
        "zeta.mp.busy_s": per(sum(busy[x] for x in mp_names)),
        "zeta.us_per_eval.float": 1e6 * _ratio(busy[em_float], calls[em_float]),
        "zeta.us_per_eval.mp50": 1e6 * _ratio(busy[em_mp], calls[em_mp]),
        "zeta.bound_over_tol.p50": (statistics.median(tracer.samples["zeta.bound_over_tol"])
                                    if tracer.samples["zeta.bound_over_tol"] else 0.0),
        "zeros.winding_number.calls": per(calls["zeros.winding_number"]),
        "zeros.winding_number.failed": per(tracer.failed["zeros.winding_number"]),
        "zeros.winding_number.self_s": per(selfs["zeros.winding_number"]),
        "zeros.series_evals": per(counts["zeros.series_evals"]),
        "zeros.evals_per_cell": _ratio(counts["zeros.series_evals"], cells),
        "zeros.dirichlet_polynomial_zeros.busy_s": per(busy["zeros.dirichlet_polynomial_zeros"]),
        "structure.detect_pl_form.calls": per(calls["structure.detect_pl_form"]),
        "structure.detect_pl_form.busy_s": per(busy["structure.detect_pl_form"]),
        "structure.decompose.busy_s": per(busy["structure.decompose"]),
        "structure.conductors_searched": per(counts["structure.conductors_searched"]),
        "structure.verification_period.sum": per(counts["structure.verification_period.sum"]),
        "cyclo.ops": per(counts["cyclo.ops"]),
        "characters.characters_mod.busy_s": per(busy["characters.characters_mod"]),
        "ideals.ideal_factorize.calls": per(calls["ideals.ideal_factorize"]),
        "ideals.ideal_factorize.busy_s": per(busy["ideals.ideal_factorize"]),
    }
    for d in range(7, 13):
        m[f"ideals.us_per_call.N1e{d}"] = 1e6 * _ratio(counts[f"ideals.n1e{d}.s"],
                                                      counts[f"ideals.n1e{d}.calls"])
    lookups = counts["arith.factor_cache.lookups"]
    scan_busy = busy["density.window_records"] + busy["density.private_prime_scan"]
    m.update({
        "arith.factorize.calls": per(calls["arith.factorize"]),
        "arith.brent_rho.calls": per(counts["arith.brent_rho.calls"]),
        "arith.is_prime.calls": per(counts["arith.is_prime.calls"]),
        "arith.factor_cache.hits": per(counts["arith.factor_cache.hits"]),
        "arith.factor_cache.hit_ratio": _ratio(counts["arith.factor_cache.hits"], lookups),
        "density.window_records.busy_s": per(busy["density.window_records"]),
        "density.private_prime_scan.self_s": per(selfs["density.private_prime_scan"]),
        "density.members_per_s": _ratio(counts["density.members"], scan_busy),
        "density.eligible_ratio": _ratio(counts["density.count_A"], counts["density.members"]),
        "construction.select_sigma.busy_s": per(busy["construction.select_sigma"]),
        "construction.stage_advance.self_s": per(selfs["construction.stage_advance"]),
        "construction.bohr_solve.calls": per(calls["construction.bohr_solve"]),
        "construction.bohr_solve.busy_s": per(busy["construction.bohr_solve"]),
        "construction.bohr_links.max": counts["construction.bohr_links.max"],
        "construction.bohr_links.sum": per(counts["construction.bohr_links.sum"]),
        "construction.run_construction.self_s": per(selfs["construction.run_construction"]),
        "cli.self_s": per(selfs["cli.main"]),
        "cli.report_bytes": per(counts["cli.report_bytes"]),
    })
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = per(tracer.layer_self[layer])
    warm = statistics.median(p["scaled_wall_s"] for p in warm_traced) if warm_traced else 0.0
    base = statistics.median(p["scaled_wall_s"] for p in untraced) if untraced else 0.0
    m["trace.overhead_frac"] = _ratio(warm, base) - 1 if base else 0.0
    return m


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith(("_ratio", "_frac", ".p50")):
        return "ratio"
    if name.endswith("report_bytes"):
        return "bytes"
    return "count"
