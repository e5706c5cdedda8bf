"""riccisym benchmark: closed-loop solve workloads, end-to-end metrics, and
an outside-in per-layer trace.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One client runs whole passes over the workload's fixed instance list; the
seed only permutes the order within each pass.  With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics; with --trace 1,
passes alternate untraced/traced and the JSON holds the per-layer metrics.
`--workload all` runs every workload in its own process and prints a table.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracer as tracing
from refkernel import REF_SECONDS, SPEED_EXPONENT, time_kernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("origin_scan", "long_span", "expr_heavy", "cli_roundtrip")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
REF_WINDOW = 8  # kernel timings per scale factor: 4 before an operation, 4 after

END_TO_END = (
    ("ops_per_s", "1/s"), ("op_s_p50", "s"), ("op_s_tail", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MiB"), ("res_rr_max", "abs"), ("res_tt_max", "abs"), ("res_ode_max", "abs"),
)
SPAN_BUSY = (
    "potential.check_global", "potential.integrate_separatrix", "potential.solve_n2",
    "rotsym.definiteness_check", "reconstruct.reconstruct_profile", "reconstruct.verify_ricci",
    "cli.write_csv",
)
SPAN_SELF = ("pipeline.solve", "cli.solve", "cli.verify")


def per_layer_units():
    units = {f"exprfn.eval_jet2.calls.{c}": "count" for c in tracing.JET_CALLERS}
    units["exprfn.eval_jet2.us_per_call"] = "us"
    units["exprfn.eval_jet2.busy_s"] = "s"
    units.update({f"{s}.busy_s": "s" for s in SPAN_BUSY})
    units.update({f"{s}.self_s": "s" for s in SPAN_SELF})
    units["potential.check_global.surface_evals"] = "count"
    units["potential.integrate_separatrix.surface_evals"] = "count"
    units["potential.samples"] = "count"
    units["potential.samples_per_surface_eval"] = "ratio"
    units["reconstruct.verify_ricci.calls"] = "count"
    units["cli.write_csv.bytes"] = "bytes"
    units["trace_overhead_frac"] = "ratio"
    return units


def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# set-up and metadata


def measure_setup(workload: str) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload, str(workdir)],
            capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "riccisym").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when ROOT is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def versions():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the (n - TAIL_BEYOND)-th smallest sample, or the median when that lies
    below it.  Returns (value, percentile, samples beyond)."""
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND
    median = statistics.median(xs)
    if rank < 1 or xs[rank - 1] < median:
        return median, 50.0, len(xs) // 2
    return xs[rank - 1], 100.0 * rank / len(xs), TAIL_BEYOND


# ---------------------------------------------------------------------------
# the closed loop


def run_op(op, tracer, op_id):
    span = tracer.begin(op.name, op=op_id) if tracer else None
    t0 = perf_counter()
    try:
        result, error = op.run(), None
    except Exception as err:  # an operation that raises counts as failed
        result, error = None, f"{type(err).__name__}: {err}"
    dt = perf_counter() - t0
    if span:
        tracer.end(span)
    outcome = op.check(result) if error is None else None
    return dt, error, outcome


class Record(NamedTuple):
    pass_no: int
    traced: bool
    name: str
    seconds: float
    ref: float  # reference-kernel seconds, timed just before the operation
    ok: bool
    reason: str
    outcome: object  # workloads.Outcome, or None when the operation raised


def closed_loop(ops, rng, seconds, tracer=None, setup=None):
    """Whole passes until `seconds` of passes have elapsed.  With a tracer,
    passes alternate untraced/traced and the loop ends on a traced pass.

    With `setup` (a callable), SETUP_REPEATS set-up timings are taken
    between passes, spread over the run, so that they see the same phases
    of machine speed as the operations; their time is not loop time."""
    records, setups = [], []
    start = perf_counter()
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 1
        order = list(ops)
        rng.shuffle(order)
        if traced:
            tracer.install(pass_no)
        try:
            for op in order:
                ref = time_kernel()
                dt, error, outcome = run_op(op, tracer if traced else None, len(records))
                ok = error is None and outcome.ok
                reason = error or ("" if ok else outcome.reason)
                records.append(Record(pass_no, traced, op.name, dt, ref, ok, reason, outcome))
        finally:
            if traced:
                tracer.uninstall()
        pass_no += 1
        elapsed = perf_counter() - start
        if setup is not None and len(setups) < SETUP_REPEATS * elapsed / seconds:
            t_setup = perf_counter()
            setups.append(setup())
            start += perf_counter() - t_setup
        if elapsed >= seconds and (tracer is None or pass_no % 2 == 0):
            while setup is not None and len(setups) < SETUP_REPEATS:
                setups.append(setup())
            return records, pass_no, time_kernel(), setups


def run_probes(workload):
    import workloads

    results = {}
    for spec in workloads.PROBES.get(workload, ()):
        op = workloads.SolveOp(spec)
        _, error, outcome = run_op(op, None, 0)
        results[spec.name] = "pass" if error is None and outcome.ok else f"fail: {error or outcome.reason}"
    return results


def latency(records, seconds):
    """ops_per_s, op_s_p50 and op_s_tail over `seconds` (one per record).

    Latency is taken per instance and then combined: the instances of a
    workload differ in cost by 2-50x, so a percentile of the pooled times
    lands in the gap between two instances and jumps from run to run."""
    by_instance = {}
    for r, dt in zip(records, seconds):
        if r.ok:
            by_instance.setdefault(r.name, []).append(dt)
    medians = {name: statistics.median(xs) for name, xs in by_instance.items()}
    ratios = [x / medians[name] for name, xs in by_instance.items() for x in xs]
    p50 = statistics.median(medians.values()) if medians else math.nan
    ratio, pct, beyond = tail(ratios) if ratios else (math.nan, math.nan, 0)
    metrics = {"ops_per_s": len(ratios) / sum(seconds), "op_s_p50": p50, "op_s_tail": p50 * ratio}
    samples = {"op_s_p50": {"percentile": 50, "samples": len(ratios), "instance_medians_s": medians},
               "op_s_tail": {"percentile": pct, "samples": len(ratios), "beyond": beyond,
                             "ratio_to_instance_median": ratio}}
    return metrics, samples


def end_to_end_metrics(records, last_ref, setup):
    """Operation times at reference speed (see refkernel.py), the raw ones
    to meta.  Each operation is scaled with the median kernel time over the
    REF_WINDOW timings nearest to it: one ~10 ms timing varies by up to 2x
    within a second, the machine's speed over seconds.  setup_s stays raw:
    set-up is imports (file reads, dynamic loading), which the kernel does
    not track; scaling it by the run's median kernel time doubled its
    run-to-run spread."""
    refs = [r.ref for r in records] + [last_ref]
    half = REF_WINDOW // 2
    local = [statistics.median(refs[max(0, i - half + 1):i + half + 1]) for i in range(len(records))]
    scaled = [r.seconds * (REF_SECONDS / ref) ** SPEED_EXPONENT for r, ref in zip(records, local)]
    metrics, samples = latency(records, scaled)
    raw, _ = latency(records, [r.seconds for r in records])
    raw["ref_kernel_s"] = statistics.median(refs)
    metrics["setup_s"] = statistics.median(setup)
    done = [r.outcome for r in records if r.ok and math.isfinite(r.outcome.res_rr)]
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "res_rr_max": max((o.res_rr for o in done), default=math.nan),
        "res_tt_max": max((o.res_tt for o in done), default=math.nan),
        "res_ode_max": max((o.res_ode for o in done), default=math.nan),
    })
    samples["setup_s"] = {"percentile": 50, "samples": len(setup)}
    return {k: metrics[k] for k, _ in END_TO_END}, raw, samples


def per_layer_metrics(tracer, records):
    """Per-pass busy/self times (median over traced passes) and per-pass
    counts (which must repeat exactly from pass to pass)."""
    by_pass = {}
    for span in tracer.spans:
        by_pass.setdefault(span.pass_no, []).append(span)
    rows = []
    for pass_no in sorted(by_pass):
        spans = by_pass[pass_no]
        row = {}

        def add(key, value):
            row[key] = row.get(key, 0) + value

        for s in spans:
            add(f"{s.name}.busy_s", s.duration)
            add(f"{s.name}.self_s", s.duration - s.child)
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.surface_evals", s.surface_evals)
            add("potential.samples", s.samples)
            add("cli.write_csv.bytes", s.bytes)
        row.update(tracer.jets_by_pass[pass_no])
        rows.append(row)

    units = per_layer_units()
    counts = [k for k, u in units.items() if u in ("count", "bytes")]
    repeat = all(all(r.get(k, 0) == rows[0].get(k, 0) for k in counts) for r in rows)
    metrics = {}
    for key, unit in units.items():
        if unit in ("count", "bytes"):
            metrics[key] = rows[0].get(key, 0)
        elif unit == "s":
            metrics[key] = statistics.median(r.get(key, 0.0) for r in rows)
    jet_calls = sum(sum(r.get(f"exprfn.eval_jet2.calls.{c}", 0) for c in tracer.jet_calls) for r in rows)
    jet_time = sum(r["exprfn.eval_jet2.busy_s"] for r in rows)
    metrics["exprfn.eval_jet2.us_per_call"] = 1e6 * jet_time / jet_calls if jet_calls else 0.0
    evals = metrics["potential.integrate_separatrix.surface_evals"]
    metrics["potential.samples_per_surface_eval"] = metrics["potential.samples"] / evals if evals else 0.0
    wall = {}
    for r in records:
        wall[r.traced, r.pass_no] = wall.get((r.traced, r.pass_no), 0.0) + r.seconds
    on = statistics.median(v for (traced, _), v in wall.items() if traced)
    off = statistics.median(v for (traced, _), v in wall.items() if not traced)
    metrics["trace_overhead_frac"] = on / off - 1.0
    return {k: metrics[k] for k in units}, units, repeat, len(rows)


# ---------------------------------------------------------------------------


def run_workload(args):
    if not (SRC / "riccisym" / "__init__.py").is_file():
        fail(f"no riccisym package under {SRC}")
    sys.path.insert(0, str(SRC))
    import riccisym
    import workloads

    if Path(riccisym.__file__).resolve().parent != (SRC / "riccisym").resolve():
        fail(f"riccisym imported from {riccisym.__file__}, not from {SRC}")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, workdir)
        rng = random.Random(args.seed)
        tracer = tracing.Tracer() if args.trace else None
        probe = None if args.trace else lambda: measure_setup(args.workload)
        records, passes, last_ref, setup = closed_loop(ops, rng, args.seconds, tracer, probe)
        probes = run_probes(args.workload)
        digests = {n: d for op in ops for n, d in (getattr(op, "digests", None) or {}).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(r.name, r.reason) for r in records if not r.ok]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), **versions(),
        "passes": passes, "ops_per_pass": len(ops), "fail_frac": len(failures) / len(records),
        "failures": sorted(set(failures))[:10], "known_defect_probes": probes, "output_sha256": digests,
    }
    if args.trace:
        metrics, units, repeat, traced = per_layer_metrics(tracer, records)
        meta.update(traced_passes=traced, counts_repeat_exactly=repeat)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([s.as_dict() for s in tracer.spans]))
        correct = not failures and repeat
    else:
        metrics, meta["raw"], meta["samples"] = end_to_end_metrics(records, last_ref, setup)
        units = dict(END_TO_END)
        correct = not failures
    result = {
        "correct": bool(correct), "attempted": len(records), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta}, indent=1))
    for k, v in metrics.items():
        print(f"{args.workload:14s} {k:46s} {v if isinstance(v, int) else format(v, '.6g')} {units[k]}")
    for k, v in meta.get("raw", {}).items():
        print(f"{args.workload:14s} {'raw ' + k:46s} {v:.6g} {'1/s' if k == 'ops_per_s' else 's'}")
    print(f"{args.workload:14s} fail_frac {meta['fail_frac']:.4g} ({len(failures)} of {len(records)} ops)")
    for name, status in probes.items():
        print(f"{args.workload:14s} known-defect probe {name}: {status}")
    print("meta: " + json.dumps(meta))
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process; a table of all metrics."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(line for line in proc.stdout.splitlines() if not line.startswith(("meta:", "{"))))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload:14s} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}\n")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        sys.exit(run_all(args))
    run_workload(args)


if __name__ == "__main__":
    main()
