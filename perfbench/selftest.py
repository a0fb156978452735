"""Self-test of the benchmark harness on a tiny m = 4 solve.

    python3 perfbench/selftest.py

Checks that a deliberately failed check lands in the failure count and
lowers ``solved_rate``, that traced spans nest (children within their
parents, self times >= 0, self times summing to the traced pass), that
the trace wrappers are all removed after a traced pass so untraced
passes run the unmodified functions, and that the benchmark refuses to
run in a tree without ``src/spfem``.  Exits 1 if any of these fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

import run


def _snapshot():
    """Every (owner, attribute) the tracer patches, with its object."""
    import tracing
    names = {}
    for mod in tracing._spfem_modules():
        for key, value in vars(mod).items():
            if callable(value):
                names[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    names[(mod.__name__, key, attr)] = member
    return names


def main():
    run.import_spfem()
    import tracing
    import workloads
    from spfem import mesh, scf

    problems = run.build_problems("study")
    problem = problems[(1, 0.1, 100.0)]
    cfg = scf.ScfConfig(seed=0)

    def tiny():
        msh = mesh.build_structured_mesh(4)
        report = scf.fixed_point_solve(
            msh, scf.ScfModel(problem.V0, problem.n_D, problem.params), cfg)
        return report, workloads._errors(msh, report, problem)

    def check(report, errors, ref):
        s = workloads.Solve("tiny", err_v1=errors[0], err_n0=errors[1])
        workloads.check_report(s, report, problem.params.N0, cfg, ref)
        return s

    failures = []
    before = _snapshot()
    t0 = time.perf_counter()
    report, errors = tiny()
    plain = time.perf_counter() - t0
    ref = {"converged": True, "iterations": len(report.iterations),
           "err_v1": errors[0], "err_n0": errors[1]}

    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.span("bench.pass") as root:
        traced_report, traced_errors = tiny()
    traced = root["t1"] - root["t0"]

    # the untraced program is the original program
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed:
        failures.append(f"attributes not restored: {changed}")

    # spans
    spans = tracer.spans
    failures += tracing.nesting_errors(spans)
    own = tracing.self_times(spans)
    if abs(sum(own) - traced) > 1e-9 * len(spans):
        failures.append(f"self times sum to {sum(own)!r}, pass {traced!r}")
    metrics = tracing.layer_metrics(spans, [])
    for name in ("linsolve.eig_calls", "scf.poisson_calls",
                 "occupancy.fermi_calls", "fem.load_calls",
                 "mesh.build_calls", "fem.error_calls"):
        if not metrics[name] >= 1:
            failures.append(f"{name} = {metrics[name]} in a traced solve")
    if metrics["linsolve.eig_dense_calls"] != metrics["linsolve.eig_calls"]:
        failures.append("m = 4 should use the dense eigen path only")

    # checks: the good reference passes, the traced pass agrees with the
    # untraced one, a deliberately wrong reference fails
    good = check(report, errors, ref)
    same = check(traced_report, traced_errors, ref)
    wrong = check(report, errors, dict(ref, err_v1=ref["err_v1"] * 1.01))
    for s in (good, same):
        if s.failures or not s.solved:
            failures.append(f"clean solve failed: {s.failures}")
    if not wrong.failures:
        failures.append("a wrong recorded err_v1 was not caught")
    passes = [{"seconds": plain, "traced": False, "solves": [good]},
              {"seconds": traced, "traced": False, "solves": [wrong]}]
    rate = run.end_to_end(passes, [0.0])["solved_rate"][0]
    if rate != 0.5:
        failures.append(f"solved_rate {rate} with one failed check of 2")

    # no sources, no result
    os.makedirs(run.RESULTS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS_DIR) as tree:
        bench = os.path.join(tree, "perfbench")
        os.makedirs(bench)
        for name in os.listdir(run.BENCH_DIR):
            if name.endswith((".py", ".json")):
                shutil.copy(os.path.join(run.BENCH_DIR, name), bench)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tree)
        proc = subprocess.run(
            [sys.executable, os.path.join(bench, "run.py"),
             "--workload", "study", "--seconds", "1"],
            cwd=tree, capture_output=True, text=True, timeout=120)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            failures.append("ran without src/spfem: "
                            f"exit {proc.returncode}, {proc.stdout!r}")

    for msg in failures:
        print(f"SELF-TEST FAILED {msg}")
    print(f"self-test: {len(spans)} spans, plain {plain:.3f} s, traced "
          f"{traced:.3f} s, {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
