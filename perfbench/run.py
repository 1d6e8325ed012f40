"""Benchmark of the ordercraft engine, driven from outside like its users do.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lattice_sweep --seed 1 --seconds 30 --trace 0

One run is one closed loop in one process and one thread: set-up makes the
workload's inputs from the seed and writes them as JSON (three times, timed),
then the fixed job list runs back to back, pass after pass, until the next
pass would end after ``--seconds``. The first pass is a warm-up and is left
out of the timings. Every job starts from its input file and its output is
checked (see workloads.py); a job that raises or fails its check is counted
and recorded, and the run goes on.

The end-to-end times are in seconds at a reference host speed: a probe
sampled through the whole run (speed.py) gives the host's speed around each
job and each set-up, whose time is scaled by it. A slower program moves these
times; a slower host does not. The raw times go to the results file.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` untraced and traced passes alternate,
and the metrics are the per-layer self times and call counts of the traced
passes (tracing.py), the tracing overhead, and the cold start of one CLI call.
Per-layer times are raw, and a probe that lands inside a traced call counts
in its span (about 2% of the run). A results file with the environment goes to perfbench/out/results/, and the
spans of a traced run to perfbench/out/spans/.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from random import Random
from types import SimpleNamespace

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3

# per-layer metrics: "<module>.<function>" gets .self_s and .calls
TRACED = (
    "semilattice.structure_report", "poset.join_table", "poset.meet_table",
    "poset.width", "poset.is_isomorphic", "poset.build", "poset.cover_pairs",
    "downsets.enumerate_downsets", "downsets.family_poset",
    "downsets.downset_lattice", "semilattice.find_independent_set",
    "semilattice.is_independent", "semilattice.embedding_search",
    "semilattice.phi_quotient", "semilattice.delta_from_hom",
    "semilattice.f_vee", "semilattice.check_flag",
    "constructions.thm8_pipeline", "constructions.ramsey_extract",
    "constructions.dichotomy_extract",
    "constructions.independent_from_separating",
    "constructions.certificate_valid", "families.generate",
    "suites.run_suite", "cli.main",
)
# the job in which structure_report is known to dominate
HOT_JOB = "pipeline O(delta 4) k=5"


class EngineMissing(Exception):
    pass


def import_engine():
    """Import ordercraft afresh from the checkout's src/, so every set-up
    repetition pays the import."""
    if not os.path.isfile(os.path.join(SRC, "ordercraft", "__init__.py")):
        raise EngineMissing(f"no ordercraft package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "ordercraft" or m.startswith("ordercraft.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ordercraft")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise EngineMissing(f"ordercraft imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{
        layer: importlib.import_module(f"ordercraft.{layer}")
        for layer in tracing.LAYERS})


def quantile(values, q: int):
    """The q-th percentile (q in 1..99), interpolated between ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, jobs: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": jobs,
    }


def run_pass(eng, jobs, tracer, seed, pass_no, failures):
    """Run the job list once; returns the (start, end) of every job."""
    spans = []
    for name, func, kwargs in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                func(eng, **kwargs)
            else:
                tracer.root(f"job:{name}", func, eng, **kwargs)
        except Exception as exc:  # a failing job is recorded, the run goes on
            failures.append({"job": name, "seed": seed, "pass": pass_no,
                             "error": f"{type(exc).__name__}: {exc}",
                             "traceback": traceback.format_exc(limit=-3)})
        spans.append((t0, time.perf_counter()))
    return spans


def cold_start(eng) -> tuple:
    """One `python -m ordercraft.cli generate --family m5` subprocess in the
    caller's environment with src/ put on PYTHONPATH; returns (seconds, ok)."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    want = eng.poset.to_json_dict(eng.families.generate(eng.families.FamilySpec("m5", {})))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ordercraft.cli", "generate", "--family", "m5"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        return elapsed, proc.returncode == 0 and json.loads(proc.stdout) == want
    except (subprocess.TimeoutExpired, ValueError):
        return time.perf_counter() - t0, False


def layer_metrics(tracer, setup_span_range, traced_passes) -> dict:
    """Median over traced passes of each layer's self time and counts, with
    the traced set-up added to every pass (families.generate runs there)."""
    setup = tracing.self_times(tracer.spans, *setup_span_range)
    per_pass = [tracing.self_times(tracer.spans, lo, hi) for lo, hi in traced_passes]

    def med(pick):
        return statistics.median(pick(setup) + pick(p) for p in per_pass)

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = (med(lambda t: t[0].get(name, 0.0)), "s")
        metrics[f"{name}.calls"] = (med(lambda t: t[1].get(name, 0)), "count")
    metrics["downsets.enumerate_downsets.produced"] = (
        med(lambda t: t[2].get("downsets.enumerate_downsets", 0)), "count")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (med(lambda t: sum(
            v for k, v in t[0].items() if k.startswith(layer + "."))), "s")
    return metrics


def hot_spot(tracer, traced_passes) -> dict:
    """structure_report calls and share of the job's time in HOT_JOB, from
    the first traced pass."""
    spans = tracer.spans
    lo, hi = traced_passes[0]
    for idx in range(lo, hi):
        if spans[idx][0] == f"job:{HOT_JOB}":
            job_ns = spans[idx][2] - spans[idx][1]
            inner = [s for s in spans[idx:hi]
                     if s[4] == idx and s[0] == "semilattice.structure_report"]
            return {"job": HOT_JOB, "calls": len(inner),
                    "share": sum(s[2] - s[1] for s in inner) / job_ns}
    return {"job": HOT_JOB, "calls": 0, "share": 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        return measure(args, work)
    except EngineMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str) -> int:
    with speed.Sampler() as sampler:
        state = run_workload(args, work)
    setups, passes = state["setups"], state["passes"]
    setup_times = [sampler.scaled(*span)[1] for span in setups]
    pass_walls, job_times = {False: [], True: []}, []
    for traced, spans in passes:
        scaled = [sampler.scaled(*span)[1] for span in spans]
        pass_walls[traced].append(sum(scaled))
        job_times.extend(scaled)
    extra = {
        "raw_setup_s": [sampler.scaled(*span)[0] for span in setups],
        "raw_pass_s": [sum(sampler.scaled(*span)[0] for span in spans)
                       for _traced, spans in [(False, state["warmup"])] + passes],
        "probes": {"count": len(sampler.durations),
                   "median_s": statistics.median(sampler.durations),
                   "reference_s": speed.PROBE_REF_S},
    }
    return report(args, state, setup_times, pass_walls, job_times, extra)


def run_workload(args, work: str) -> dict:
    """Set up three times, then run passes of the job list until
    ``args.seconds`` are up; returns the (start, end) of every set-up and
    job, and what the report needs."""
    setup = workloads.WORKLOADS[args.workload]
    setups, tracer, setup_spans = [], None, None
    for rep in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        eng = import_engine()
        os.makedirs(work)
        if args.trace and rep == SETUP_REPS - 1:
            tracer = tracing.Tracer()
            tracer.install()
            jobs = tracer.root("setup", setup, eng, Random(args.seed), work)
            setup_spans = (0, len(tracer.spans))
        else:
            jobs = setup(eng, Random(args.seed), work)
        setups.append((t0, time.perf_counter()))

    # Interleave the kinds of job: the machine's speed drifts over seconds,
    # and a kind run as one block would sample a single stretch of it.
    Random(args.seed).shuffle(jobs)
    if tracer is not None:
        tracer.uninstall()
    failures, passes, traced_passes = [], [], []
    started = time.perf_counter()
    # Pass 0 warms up and stays out of the timings: it grows the heap that
    # later passes reuse.
    warmup = run_pass(eng, jobs, None, args.seed, 0, failures)
    longest = warmup[-1][1] - warmup[0][0]
    while True:
        pass_no = 1 + len(passes)
        traced = bool(args.trace) and pass_no % 2 == 0
        if traced:
            tracer.install()
            lo = len(tracer.spans)
        spans = run_pass(eng, jobs, tracer if traced else None,
                         args.seed, pass_no, failures)
        if traced:
            tracer.uninstall()
            traced_passes.append((lo, len(tracer.spans)))
        passes.append((traced, spans))
        longest = max(longest, spans[-1][1] - spans[0][0])
        if (len(traced_passes) >= args.trace
                and time.perf_counter() - started + longest > args.seconds):
            break
    return {"eng": eng, "jobs": jobs, "setups": setups, "warmup": warmup,
            "passes": passes, "failures": failures, "tracer": tracer,
            "setup_spans": setup_spans, "traced_passes": traced_passes,
            "attempted": len(jobs) * (1 + len(passes))}


def report(args, state, setup_times, pass_walls, job_times, extra) -> int:
    """Print the result line and write the results file."""
    eng, jobs, failures = state["eng"], state["jobs"], state["failures"]
    tracer, traced_passes = state["tracer"], state["traced_passes"]
    attempted = state["attempted"]
    if args.trace:
        cold_s, cold_ok = cold_start(eng)
        attempted += 1
        if not cold_ok:
            failures.append({"job": "cli cold start", "seed": args.seed, "pass": None,
                             "error": "generate --family m5 failed or printed a wrong poset"})
        metrics = layer_metrics(tracer, state["setup_spans"], traced_passes)
        metrics["tracing.overhead_frac"] = (
            statistics.median(pass_walls[True]) / statistics.median(pass_walls[False]) - 1,
            "frac")
        metrics["cli.cold_start_s"] = (cold_s, "s")
        hot = hot_spot(tracer, traced_passes)
        metrics["hot_job.structure_report.calls"] = (hot["calls"], "count")
        metrics["hot_job.structure_report.share"] = (hot["share"], "frac")
        extra["hot_spot"] = hot
        extra["spans_file"] = write_spans(args, tracer)
    else:
        metrics = {
            "wall_s": (statistics.median(pass_walls[False]), "s"),
            "job_p50_s": (quantile(job_times, 50), "s"),
            "job_p90_s": (quantile(job_times, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "ok_frac": (1 - len(failures) / attempted, "frac"),
        }

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_results(args, result, failures, pass_walls, setup_times, jobs,
                  job_times, extra)
    for f in failures[:20]:
        print(f"FAILED {f['job']} (seed {f['seed']}, pass {f['pass']}): {f['error']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


def write_results(args, result, failures, pass_walls, setup_times, jobs,
                  job_times, extra):
    per_job = {name: statistics.median(job_times[i::len(jobs)])
               for i, (name, _f, _kw) in enumerate(jobs)}
    doc = {
        "environment": environment(args, len(jobs)),
        "result": result,
        "passes": {"untraced_wall_s": pass_walls[False], "traced_wall_s": pass_walls[True]},
        "setup_s_samples": setup_times,
        "job_median_s": per_job,
        "failures": failures,
        **extra,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def write_spans(args, tracer) -> str:
    """One JSON array per line, after a header line naming the fields."""
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    path = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.jsonl.gz")
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": tracing.FIELDS}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
