"""ghzeta benchmark: one seeded workload run, end to end or traced.

    python3 bench/run.py --workload classify --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; ghzeta is imported from the
checkout's ``src/`` (nothing is installed).  Set-up is timed SETUP_SAMPLES
times, each in a fresh process (SETUP_SAMPLES - 1 set-up-only probes,
then the measuring worker), and ``setup_s`` is their median.  The worker
then runs the workload's op list in passes for ``--seconds`` of op time
and checks every op against an independent oracle.

Human-readable lines go first; the last line of stdout is the JSON
result.  With ``--trace 0`` its metrics are the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  Everything a run writes lands in
``.bench_runs/<workload>-seed<seed>-trace<t>/`` of the checkout: the
generated argv lists (argv.json), the reports, result.json and, for
traced runs, spans.jsonl.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("cpu_s", "s"),
              ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))


def _launch(args, run_dir, setup_only, deadline):
    """Start a worker; returns (process, (raw, scaled) seconds until it
    printed READY, kill timer)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                dt = perf_counter() - t0
                # the worker's slowdown at the start and at the end of its set-up
                slow_start, slow_end = (float(x) for x in line.split()[1:3])
                return proc, (dt, dt * 2 / (slow_start + slow_end)), timer
        proc.wait()
        raise RuntimeError(f"worker exited with {proc.returncode} before set-up finished")
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise


def _finish(proc, timer):
    try:
        proc.stdout.read()
        return proc.wait()
    finally:
        timer.cancel()


def run(args):
    if not (ROOT / "src" / "ghzeta" / "__init__.py").is_file():
        raise RuntimeError(f"no ghzeta sources under {ROOT / 'src'}")
    deadline = perf_counter() + RUN_TIMEOUT_S
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, dt, timer = _launch(args, run_dir, True, deadline)
        if _finish(proc, timer) != 0:
            raise RuntimeError("set-up probe failed")
        setups.append(dt)
    proc, dt, timer = _launch(args, run_dir, False, deadline)
    setups.append(dt)
    if _finish(proc, timer) != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads((run_dir / "result.json").read_text())
    result["setup_samples_s"] = [raw for raw, _ in setups]
    result["setup_scaled_samples_s"] = [scaled for _, scaled in setups]
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    m = result["machine"]
    print(f"machine: python {m['python']}, mpmath backend {m['mpmath_backend']}, "
          f"nproc {m['nproc']}, cpu {m['cpu_model']}, calibration slowdown "
          f"{m['slowdown_before']:.3f} before / {m['slowdown_after']:.3f} after the run")
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} ops "
          f"in {len(result['passes'])} passes, {result['failed']} failed, "
          f"report_digest {result['report_digest']}")
    for failure in result["failures"]:
        print(f"FAILED op: {json.dumps(failure)}")

    if args.trace:
        metrics = {name: {"value": value, "unit": layers.unit(name)}
                   for name, value in result["per_layer"].items()}
    else:
        values = dict(result["end_to_end"],
                      setup_s=statistics.median(result["setup_scaled_samples_s"]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra = result["extra"]
        notes = [f"failed_frac = {extra['failed_frac']:.4f}"]
        if "op_p90_ms" in extra:
            notes.append(f"op_p90_ms = {extra['op_p90_ms']:.4f} ms "
                         f"(raw {extra['raw_op_p90_ms']:.4f} ms)")
        else:
            notes.append(f"op_p90_ms omitted: {extra['ops_per_run']} ops per run (< 100)")
        notes.append(f"raw wall clock: setup_s {statistics.median(result['setup_samples_s']):.4f}"
                     f", ops_per_s {extra['raw_ops_per_s']:.4f}, cpu_s {extra['raw_cpu_s']:.4f}"
                     f", op_p50_ms {extra['raw_op_p50_ms']:.4f}")
        print("; ".join(notes))
    for name, metric in metrics.items():
        print(f"{args.workload:9s} {name} = {metric['value']:.6g} {metric['unit']}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args)
    except (RuntimeError, OSError, ValueError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
