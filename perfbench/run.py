"""spfem benchmark: one workload per invocation, results checked.

    python3 perfbench/run.py --workload study --seed 0 --seconds 28 --trace 0

Run from the root of a source tree; the benchmark imports ``spfem`` from
``src/`` of that tree and refuses to run without it.  BLAS is pinned to
one thread.  The workload is run in passes until ``--seconds`` would be
exceeded (at least one pass; two for ``study`` and for traced runs);
each pass is timed, then its results are checked outside the timed
region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones; ``trace.overhead_s`` is the traced minus the untraced
median pass time.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the machine
record, every pass and (when traced) every span go to
``perfbench/results/``.  The exit code is 1 when any check fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before anything imports numpy

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

WORKLOAD_NAMES = ("study", "solve-m20", "wide-window", "sweep-m8")
SETUP_SAMPLES = 3

# manufactured problems each workload builds in its set-up, as
# (example, mu, N0); Boltzmann with f0 = 1 throughout
PROBLEMS = {
    "study": [(1, 0.1, 100.0), (2, 0.1, 100.0)],
    "solve-m20": [(1, 0.1, 100.0)],
    "wide-window": [(1, 0.04, 100.0)],
    "sweep-m8": [(ex, 0.1, n0) for ex in (1, 2)
                 for n0 in (100.0, 1000.0, 3000.0)],
}


def import_spfem():
    """Import spfem from this tree's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "spfem", "__init__.py")):
        sys.exit(f"error: no spfem sources under {SRC}")
    sys.path.insert(0, SRC)
    import spfem
    if os.path.dirname(os.path.dirname(spfem.__file__)) != SRC:
        sys.exit(f"error: spfem imported from {spfem.__file__}, not {SRC}")
    return spfem


def build_problems(workload):
    """Set-up: manufactured problems keyed by (example, mu, N0)."""
    from spfem.occupancy import DistributionParams
    from spfem import oracle
    return {key: oracle.manufactured_problem(
                key[0], DistributionParams(mu=key[1], N0=key[2]))
            for key in PROBLEMS[workload]}


def setup_probe(workload):
    """Time one cold set-up: import spfem and build the problems."""
    t0 = time.perf_counter()
    import_spfem()
    build_problems(workload)
    print(repr(time.perf_counter() - t0))


def setup_samples(workload):
    """Set-up times of fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# --- machine and build record -----------------------------------------

def _openblas_threads():
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and ".so" in line})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _git_commit():
    """HEAD of the tree when it is a git checkout, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_dir = os.path.join(SRC, "spfem")
    digest, lines = hashlib.sha256(), 0
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as f:
                data = f.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _openblas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# --- passes -----------------------------------------------------------

def run_passes(workload, ctx, seconds, trace):
    """Timed passes, each checked right after; traced every other pass
    when ``trace``.  Another pass starts only while the mean pass fits
    in the ``seconds`` left, so a run stays near ``seconds`` long however
    fast the machine is.  Returns one dict per pass."""
    import tracing
    import workloads
    run, check, min_passes = workloads.WORKLOADS[workload]
    if trace:
        min_passes = max(min_passes, 2)     # one untraced, one traced
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = tracing.Tracer()
        if traced:
            with tracing.instrument(tracer), tracer.span("bench.pass") as root:
                out = run(ctx)
            elapsed = root["t1"] - root["t0"]
        else:
            t0 = time.perf_counter()
            out = run(ctx)
            elapsed = time.perf_counter() - t0
        solves, digest = check(ctx, out)
        del out     # so the next pass's peak memory does not include it
        if digest and ctx.digests and digest != ctx.digests[0]:
            for s in solves:
                s.failures.append("output bytes differ from the first pass")
        ctx.digests.append(digest)
        passes.append({"seconds": elapsed, "traced": traced,
                       "solves": solves, "spans": tracer.spans})
        shutil.rmtree(ctx.tmpdir)
        os.makedirs(ctx.tmpdir)
        used = time.perf_counter() - start
        if len(passes) >= min_passes and used + used / len(passes) > seconds:
            return passes


def end_to_end(passes, setup):
    """The end-to-end metrics with their sample counts."""
    times = [p["seconds"] for p in passes]
    solves = [s for p in passes for s in p["solves"]]
    per_pass_iters = [sum(s.iterations for s in p["solves"]) for p in passes]

    def worst(key):
        vals = [getattr(s, key) for s in solves
                if s.solved and s.recorded_converged]
        return max(vals) if vals else None     # null: the run failed

    solved = sum(s.solved for s in solves)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "solve_s": (statistics.median(times), len(times)),
        "scf_iters": (statistics.median(per_pass_iters), len(per_pass_iters)),
        "solved_rate": (solved / len(solves), len(solves)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "err_v1": (worst("err_v1"), solved),
        "err_n0": (worst("err_n0"), solved),
    }


def declared(kind):
    """The metrics BENCHMARK.json declares, as {name: unit}, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def per_layer(passes, setup_spans):
    """Median per-layer metrics of the traced passes, with the trace
    overhead and the self-time accounting of each traced pass."""
    import tracing
    traced = [p for p in passes if p["traced"]]
    plain = [p["seconds"] for p in passes if not p["traced"]]
    rows = [tracing.layer_metrics(p["spans"], setup_spans) for p in traced]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(p["seconds"] for p in traced)
        - statistics.median(plain))
    # the wrappers' own cost, which the pass-time difference above
    # cannot resolve from the pass-to-pass scatter
    metrics["trace.span_cost_s"] = tracing.span_cost() * statistics.median(
        len(p["spans"]) for p in traced)
    accounting = []
    for p in traced:
        spans = p["spans"]
        own = tracing.self_by_name(spans)
        accounting.append({
            "pass_s": p["seconds"],
            "self_sum_s": sum(own.values()),
            "self_s": dict(sorted(own.items(), key=lambda kv: -kv[1])),
            "nesting_errors": tracing.nesting_errors(spans),
        })
    return metrics, accounting


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_spfem()
    import tracing
    import workloads
    setup_tracer = tracing.Tracer()
    if args.trace:
        with tracing.instrument(setup_tracer), setup_tracer.span("bench.setup"):
            problems = build_problems(args.workload)
    else:
        problems = build_problems(args.workload)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS_DIR)
    ctx = workloads.Context(args.seed, problems, tmpdir,
                            workloads.REFERENCE[args.workload])
    try:
        passes = run_passes(args.workload, ctx, args.seconds, args.trace)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    solves = [s for p in passes for s in p["solves"]]
    failed = [s for s in solves if s.failures]
    problems_found = [f"{s.label}: {msg}" for s in failed
                      for msg in s.failures]
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "machine": machine_record(),
              "passes": [{"seconds": p["seconds"], "traced": p["traced"],
                          "digest": d,
                          "solves": [asdict(s) for s in p["solves"]]}
                         for p, d in zip(passes, ctx.digests)]}

    print(f"spfem benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  passes={len(passes)}")
    print("machine " + json.dumps(result["machine"]))
    if args.trace:
        metrics, accounting = per_layer(passes, setup_tracer.spans)
        result["accounting"] = accounting
        result["setup_spans"] = setup_tracer.spans
        result["spans"] = [p["spans"] for p in passes if p["traced"]]
        for acc in accounting:
            problems_found += [f"trace: {e}" for e in acc["nesting_errors"]]
            print(f"traced pass {acc['pass_s']:.4f} s = sum of self times "
                  f"{acc['self_sum_s']:.4f} s:")
            for name, t in acc["self_s"].items():
                print(f"  {name:24s} self {t:10.4f} s")
        report = {k: {"value": metrics[k], "unit": u}
                  for k, u in declared("per_layer").items()}
        for k, v in report.items():
            print(f"  {k:28s} {v['value']!r} {v['unit']}")
    else:
        setup = setup_samples(args.workload)
        metrics = end_to_end(passes, setup)
        report = {k: {"value": metrics[k][0], "unit": u}
                  for k, u in declared("end_to_end").items()}
        for k, v in report.items():
            print(f"  {k:12s} {v['value']!r} {v['unit']}  (n={metrics[k][1]})")
        print(f"  fail_rate    {len(solves) - sum(s.solved for s in solves)}"
              f" of {len(solves)} solves did not converge or failed a check")
    for msg in problems_found:
        print(f"CHECK FAILED {msg}")

    result["metrics"] = report
    with open(os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)
    correct = not problems_found
    print(json.dumps({"correct": correct, "attempted": len(solves),
                      "failed": len(failed), "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
