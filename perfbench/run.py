#!/usr/bin/env python3
"""Benchmark of the bioassay package: one command, two workloads.

    python3 perfbench/run.py --workload dose-response-cli --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each workload is a
closed loop with one client in one process: a fixed batch of operations,
generated from ``--seed``, is repeated in rounds for about ``--seconds``.
Round 0 is checked against independent references outside the timed
region.  With ``--trace 1`` rounds alternate untraced/traced; the traced
ones record a span around every call the benchmark makes into a package
module and give the per-layer metrics.  The last stdout line is one JSON
object: correct, attempted, failed and the metrics.  See README.md.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # one client on tiny matrices: BLAS threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import harness  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")  # generated inputs, removed at exit
OUT = os.path.join(ROOT, ".perfbench_out")  # span dumps of traced runs

# Each workload runs the batches of two modules as one.  Two workloads, not
# four, so that a run can last long enough to be steady on a shared machine;
# each pair puts layers that one optimization touches beside layers it
# does not (fisher/models/lowdose/cli versus tables/simplex/birthdeath).
WORKLOADS = {
    "dose-response-cli": ("dose_response", "cli_batch"),
    "polyptych-replicates": ("polyptych", "replicate_studies"),
}
SETUP_PROBES = 5

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SPAN_LAYERS = (
    "fisher.total_info",
    "fitting.fit_least_squares",
    "models.evaluate.grid",
    "models.gradient.grid",
    "models.evaluate.point",
    "lowdose.percentile.closed",
    "lowdose.percentile.bisect",
    "lowdose.vsd_upper_limit",
    "tables.polyptych_from_json",
    "tables.check_consistency.small",
    "tables.check_consistency.large",
    "tables.classify_empty",
    "birthdeath.simulate_replicates.extinction",
    "birthdeath.simulate_replicates.onset",
    "birthdeath.empirical_hazard",
    "birthdeath.ad_hazard_fit",
    "fitting.weibull_mle",
    "fitting.ks_test",
    "covariates.omission_experiment",
    "cli.main.fit",
    "cli.main.lp",
    "cli.main.fisher",
    "cli.main.curves",
    "cli.main.eff",
    "cli.main.tables",
    "cli.main.simulate-bd",
)
SPAN_STATS = {"calls": "count", "busy_s": "s", "p50_us": "us", "failed": "count"}
COUNTS = {  # name -> unit; counts per batch, read from the round-0 outputs
    "fitting.fit_least_squares.iterations_mean": "count",
    "fitting.fit_least_squares.converged_share": "ratio",
    "tables.consistent_share": "ratio",
    "birthdeath.outcome.extinct": "count",
    "birthdeath.outcome.onset": "count",
    "birthdeath.outcome.censored": "count",
    "birthdeath.outcome.truncated": "count",
    "fitting.weibull_mle.iterations_mean": "count",
    "covariates.omission_experiment.resampled": "count",
    "cli.exit.0": "count",
    "cli.exit.2": "count",
    "cli.exit.3": "count",
}
DERIVED = {
    "birthdeath.simulate_replicates.us_per_replicate": "us",
    "op.self_s": "s",  # time inside operations that no module span covers, per round
    "trace.overhead_share": "ratio",  # traced over untraced operation time, minus 1
}


def per_layer_units() -> dict:
    units = {f"{layer}.{stat}": unit for layer in SPAN_LAYERS for stat, unit in SPAN_STATS.items()}
    units.update(COUNTS)
    units.update(DERIVED)
    return units


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import bioassay from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bioassay", "__init__.py")):
        fail(f"no bioassay package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import bioassay

    if os.path.dirname(os.path.dirname(os.path.abspath(bioassay.__file__))) != SRC:
        fail(f"bioassay imported from {bioassay.__file__}, not from {SRC}")
    return bioassay


def load(workload: str):
    return harness.Mix(importlib.import_module(name) for name in WORKLOADS[workload])


def workdir_for(workload: str) -> str:
    path = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# -- set-up probe: a fresh process that imports the package and builds the inputs -----


def probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import_package()
    if "cli_batch" in WORKLOADS[workload]:
        import bioassay.cli  # noqa: F401 - the cli module is not imported by the package
    imported = time.perf_counter() - start
    mod = load(workload)  # benchmark code: not timed
    workdir = workdir_for(workload)
    try:
        start = time.perf_counter()
        ops = mod.generate(seed, workdir)
        built = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": imported + built, "ops": len(ops)}))


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# -- provenance -------------------------------------------------------------------------


def provenance(workload: str, seed: int, batch: int) -> dict:
    import numpy
    import scipy

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bioassay")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
        "ops_per_batch": batch,
    }


# -- per-layer assembly -------------------------------------------------------------------


def reduce_counts(per_op: list[dict]) -> dict:
    """Sum counts over the batch; names ending in _mean or _share are averaged."""
    seen: dict[str, list] = {}
    for counts in per_op:
        for name, value in counts.items():
            seen.setdefault(name, []).append(value)
    return {
        name: (statistics.fmean(vals) if name.endswith(("_mean", "_share")) else sum(vals))
        for name, vals in seen.items()
    }


def layer_metrics(result, counts: dict) -> tuple[dict, dict]:
    n_traced = len(result.rounds_traced)
    stats = harness.layer_stats(result.tracer.spans, n_traced)
    metrics = {}
    for layer in SPAN_LAYERS:
        s = stats.get(layer)
        for stat in SPAN_STATS:
            metrics[f"{layer}.{stat}"] = s[stat] if s else 0
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    reps = counts.get("birthdeath.simulate_replicates.replicates", 0)
    sim_busy = sum(stats[k]["busy_s"] for k in stats if k.startswith("birthdeath.simulate_replicates."))
    metrics["birthdeath.simulate_replicates.us_per_replicate"] = 1e6 * sim_busy / reps if reps else 0
    metrics["op.self_s"] = stats["op"]["self_s"]
    # per-operation minima, traced over untraced; rounds alternate, so leaving
    # out round 0 (checked, first calls) gives both sides the same count
    traced: dict[int, list] = {}
    for s in result.tracer.spans:
        if s.name == "op" and not s.failed:
            traced.setdefault(s.op, []).append(s.end - s.start)
    untraced = sum(min(result.records[i].latencies[1:] or result.records[i].latencies) for i in traced)
    metrics["trace.overhead_share"] = sum(min(v) for v in traced.values()) / untraced - 1.0
    return metrics, stats


def write_spans(workload: str, seed: int, tracer) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    selfs = harness.self_times(tracer.spans)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (s, own) in enumerate(zip(tracer.spans, selfs)):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end, "self": own,
                                 "parent": s.parent, "op": s.op, "round": s.round, "failed": s.failed}) + "\n")
    return path


# -- main ------------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    import_package()
    setup = measure_setup(args.workload, args.seed)
    mod = load(args.workload)
    workdir = workdir_for(args.workload)
    try:
        ops = mod.generate(args.seed, workdir)
        result = harness.run_rounds(mod, ops, args.seconds, trace=bool(args.trace))
        counts = reduce_counts(result.op_counts)
        for i, message in mod.check_batch(ops, result.op_counts).items():
            result.records[i].error = result.records[i].error or message
            result.failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    e2e = harness.batch_metrics(result)
    e2e["setup_s"] = statistics.median(setup)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    batch = len(ops)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {batch} ops per batch, "
          f"{len(result.rounds_untraced)} untraced and {len(result.rounds_traced)} traced rounds")
    notes = {
        "op_tail_ms": f"(p{e2e['tail_percentile']:.1f} of {e2e['tail_samples']} per-op minima, "
                      f"{harness.TAIL_BEYOND} beyond)",
        "setup_s": f"(median of {SETUP_PROBES} fresh processes: " + ", ".join(f"{v:.3f}" for v in setup) + ")",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<14}{e2e[name]:>14.6g} {unit:<5} {notes.get(name, '')}")
    failed_ops = result.failed_ops()
    known = [r.known_defect for r in result.records if r.known_defect and r.error is None]
    errors = [r.error for r in result.records if r.error]
    print(f"  {'fail_share':<14}{harness.fail_share(failed_ops, batch):>14.6g} ratio "
          f"({failed_ops} of {batch} ops: {len(known)} known defect, {len(errors)} unexpected)")
    for message in sorted(set(known)):
        print(f"    known defect, {known.count(message)} ops: {message}")
    for message in errors[:10]:
        print(f"    FAILED: {message}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, batch)))

    if args.trace:
        metrics, stats = layer_metrics(result, counts)
        path = write_spans(args.workload, args.seed, result.tracer)
        print(f"  spans: {len(result.tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        print(f"  {'span':<44}{'calls':>8}{'busy_s':>11}{'self_s':>11}{'p50_us':>11}{'failed':>7}")
        for name, s in sorted(stats.items()):
            print(f"  {name:<44}{s['calls']:>8g}{s['busy_s']:>11.5f}{s['self_s']:>11.5f}{s['p50_us']:>11.1f}{s['failed']:>7g}")
        print(f"  trace overhead: {100 * metrics['trace.overhead_share']:+.2f}% of untraced operation time")
        units = per_layer_units()
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
        units = END_TO_END
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
