"""One workload run in a fresh process: set up, then time passes of ops.

Started by run.py.  Prints ``READY`` once set-up is done (the parent
times process start to that line as one set-up sample); with
``--setup-only`` it exits there.  Otherwise it times passes of the op
list until ``--seconds`` of op time have accumulated, checks every op
against the oracles outside the timed region, and writes result.json
into ``--run-dir``.

Each op is one in-process ``ghzeta.cli.main(argv)`` call: parse,
compute, build the report and write it atomically.  One caller runs one
op at a time (closed loop, no threads).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from calibration import InOpSampler, scale_factors, slowdown, slowdown_median  # noqa: E402

MIN_PASSES = 2
MIN_TRACED_PASSES = 3  # traced cold pass, untraced pass, traced warm pass
PASS_DEADLINE_S = 110.0  # no pass starts after this much timed-phase wall time


def _import_ghzeta():
    src = ROOT / "src"
    if not (src / "ghzeta" / "__init__.py").is_file():
        raise SystemExit(f"no ghzeta sources under {src}")
    sys.path.insert(0, str(src))
    import ghzeta

    if Path(ghzeta.__file__).resolve().parent != (src / "ghzeta").resolve():
        raise SystemExit(f"imported ghzeta from {ghzeta.__file__}, not from {src}")


def machine_facts():
    import mpmath.libmp

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def _output_digest(op):
    """sha256 over the files an op wrote, with the report's timestamp removed."""
    blobs = []
    for path in op.outputs:
        data = Path(path).read_bytes()
        if path.endswith(".json"):
            report = json.loads(data)
            report.pop("timestamp", None)
            data = json.dumps(report, sort_keys=True).encode()
        blobs.append(data)
    return hashlib.sha256(b"\0".join(blobs)).hexdigest(), blobs


def run_op(cli_main, op, tracer=None, sampler=None):
    """(exit code or None, wall s, cpu s, stderr text) of one op; time the
    sampler spends inside the op is taken off both clocks."""
    err = io.StringIO()
    sampler = sampler or InOpSampler()
    t0, c0 = perf_counter(), process_time()
    try:
        with sampler, redirect_stderr(err):
            if tracer is None:
                rc = cli_main(op.argv)
            else:
                rc = tracer.call("cli.main", cli_main, (op.argv,), {})
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    c1, t1 = process_time(), perf_counter()
    return rc, t1 - t0 - sampler.wall, c1 - c0 - sampler.cpu, err.getvalue()


def judge(workload, op, rc, stderr, first=None):
    """(digest, problems) for a finished op.  The first run of an op goes
    through the oracle; a repeat must write the same bytes as `first`
    and then inherits its verdict."""
    if rc != 0:
        return None, [f"exit code {rc}: {stderr.strip()[-300:]}"]
    try:
        digest, blobs = _output_digest(op)
    except (OSError, ValueError) as exc:
        return None, [f"unreadable output: {exc}"]
    if first is not None:
        if digest != first[0]:
            return digest, ["wrote different bytes than the first pass"]
        return first
    try:
        return digest, workloads.check(workload, op, blobs)
    except Exception:
        return digest, ["oracle raised: " + traceback.format_exc(limit=3)]


def timed_phase(cli_main, workload, ops, seconds, tracer, namespaces):
    """Passes over the op list until `seconds` of op wall time; with a
    tracer, even passes are traced and odd passes are not.  The
    calibration kernels are timed before every op and after the last."""
    passes = []
    first = [None] * len(ops)
    attempted = failed = 0
    failures = []
    min_passes = MIN_TRACED_PASSES if tracer else MIN_PASSES
    total_wall = 0.0
    p = 0
    while True:
        traced = tracer is not None and p % 2 == 0
        if traced:
            tracer.install(namespaces)
        walls, cpus, marks, spans, inside = [], [], [], [], []
        for i, op in enumerate(ops):
            if traced:
                tracer.op = f"{p}:{i}"
            marks.append((perf_counter(), slowdown()))
            sampler = InOpSampler()
            start = perf_counter()
            rc, dt, dc, stderr = run_op(cli_main, op, tracer if traced else None, sampler)
            spans.append((start, perf_counter()))
            inside.append(sampler.samples)
            walls.append(dt)
            cpus.append(dc)
            attempted += 1
            if traced and rc == 0:
                layers.after_op(tracer, op)
            verdict = judge(workload, op, rc, stderr, first[i])
            if first[i] is None:
                first[i] = verdict
            problems = verdict[1]
            if problems:
                failed += 1
                if len(failures) < 20:
                    failures.append({"pass": p, "op": i, "argv": op.argv,
                                     "problems": problems[:5]})
        marks.append((perf_counter(), slowdown()))
        if traced:
            tracer.uninstall()
        scale = scale_factors(marks, spans, inside)
        passes.append({
            "traced": traced, "ops": len(ops),
            "wall_s": sum(walls), "cpu_s": sum(cpus),
            "scaled_wall_s": sum(w * k for w, k in zip(walls, scale)),
            "scaled_cpu_s": sum(c * k for c, k in zip(cpus, scale)),
            "op_wall_s": walls, "op_scaled_s": [w * k for w, k in zip(walls, scale)],
            "slowdown": [x for _, x in marks], "slowdown_inside": inside,
        })
        total_wall += sum(walls)
        p += 1
        if p >= min_passes and total_wall >= seconds:
            break
        if total_wall + sum(walls) > PASS_DEADLINE_S:
            break
    digests = "".join(f[0] or "-" for f in first)
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "report_digest": hashlib.sha256(digests.encode()).hexdigest(),
    }


def end_to_end(phase):
    """End-to-end metrics, times scaled to the reference speed, plus the
    raw wall-clock figures they come from."""
    passes = phase["passes"]
    scaled_ms = sorted(1000 * x for p in passes for x in p["op_scaled_s"])
    raw_ms = sorted(1000 * x for p in passes for x in p["op_wall_s"])
    out = {
        "ops_per_s": statistics.median(p["ops"] / p["scaled_wall_s"] for p in passes),
        "cpu_s": statistics.median(p["scaled_cpu_s"] for p in passes),
        "op_p50_ms": statistics.median(scaled_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "failed_frac": phase["failed"] / phase["attempted"],
        "ops_per_run": len(scaled_ms),
        "passes": len(passes),
        "raw_ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in passes),
        "raw_cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "raw_op_p50_ms": statistics.median(raw_ms),
    }
    if len(scaled_ms) >= 100:
        extra["op_p90_ms"] = statistics.quantiles(scaled_ms, n=10)[-1]
        extra["raw_op_p90_ms"] = statistics.quantiles(raw_ms, n=10)[-1]
    return out, extra


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    slow_start = slowdown_median(3)

    os.chdir(ROOT)
    os.environ.pop("HURWITZ_CACHE", None)  # every op starts from an empty factor cache
    run_dir = Path(args.run_dir)
    out_dir = run_dir.relative_to(ROOT) / "ops"
    out_dir.mkdir(parents=True, exist_ok=True)

    # --- set-up: imports, inputs from the seed, alpha, one warm-up op
    _import_ghzeta()
    from ghzeta import cli
    from ghzeta.ideals import AlgebraicAlpha

    warm, ops = workloads.build(args.workload, args.seed, str(out_dir))
    AlgebraicAlpha(tuple(int(c) for c in workloads.MINPOLY.split(",")),
                   tuple(workloads.INTERVAL.split(",")))
    rc, _, _, stderr = run_op(cli.main, warm)
    _, warm_problems = judge(args.workload, warm, rc, stderr)
    print(f"READY {slow_start} {slowdown_median(3)}", flush=True)
    if args.setup_only:
        return 0

    (run_dir / "argv.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "warmup": warm.to_json(),
         "ops": [op.to_json() for op in ops]}, indent=1) + "\n")

    tracer = namespaces = None
    if args.trace:
        from tracer import Tracer, ghzeta_namespaces

        tracer = Tracer()
        layers.instrument(tracer)
        namespaces = ghzeta_namespaces()

    slow_before = slowdown_median(9)
    phase = timed_phase(cli.main, args.workload, ops, args.seconds, tracer, namespaces)
    slow_after = slowdown_median(9)

    if warm_problems:  # the warm-up op counts as one more op
        phase["attempted"] += 1
        phase["failed"] += 1
        phase["failures"].insert(0, {"pass": "warm-up", "argv": warm.argv,
                                     "problems": warm_problems[:5]})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "failures": phase["failures"],
        "report_digest": phase["report_digest"],
        "passes": phase["passes"],
        "machine": dict(machine_facts(), slowdown_before=slow_before, slowdown_after=slow_after),
    }
    if args.trace:
        result["per_layer"] = layers.per_layer(tracer, phase)
        tracer.write_spans(run_dir / "spans.jsonl")
        result["spans_kept"], result["spans_dropped"] = len(tracer.spans), tracer.dropped
    else:
        result["end_to_end"], result["extra"] = end_to_end(phase)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
