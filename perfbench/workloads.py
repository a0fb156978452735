"""The benchmark's four workloads and the checks on their results.

Each workload has a timed ``run`` and an untimed ``check``.  ``run``
calls spfem only through module attributes (``scf.fixed_point_solve``),
so the trace wrappers that ``tracing.instrument`` installs see every
call.  ``check`` turns the outputs into one ``Solve`` per SCF solve.

A solve *fails a check* when it raises, loses conservation at some
iteration, returns eigen residuals above ``eig_tol``, misses a solve
that is recorded as converging, takes more iterations than recorded
(plus ``ITER_SLACK``), or lands off the recorded errors by more than
``ERR_RTOL``.  A solve recorded as not converging may converge: a
better solver is not a wrong one.  Recorded values are in
``reference.json`` (seed 0); every run writes the same fields per solve
to its results file.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np
from spfem import cli, fem, lab, mesh, scf
from spfem.quadrature import tet_rule

# conservation bounds of acceptance criterion 5, as shares of N0
OCC_RTOL = 1e-10
DENSITY_RTOL = 1e-9
# recorded errors must be met to this relative tolerance: far above the
# seed-to-seed spread (start vectors change only rounding), far below
# any change in the discrete solution
ERR_RTOL = 1e-5
# a solve may take one iteration more than recorded: a rounding-level
# change can move the last increment across tol_rel
ITER_SLACK = 1

ERROR_RULE_DEGREE = 5

with open(os.path.join(os.path.dirname(__file__), "reference.json")) as f:
    REFERENCE = json.load(f)

STUDY_MESHES = [4, 8, 16]
SWEEP_DAMPING = (1.0, 0.5)
SWEEP_MAX_ITER = 60


@dataclass
class Solve:
    label: str
    converged: bool = False
    iterations: int = 0
    err_v1: float | None = None
    err_n0: float | None = None
    failures: list = field(default_factory=list)
    # the errors are reported over the solves recorded as converging, so
    # a solver that newly converges a hard case does not raise them
    recorded_converged: bool = False

    @property
    def solved(self):
        return self.converged and not self.failures


@dataclass
class Context:
    """What one run shares between its passes."""

    seed: int
    problems: dict
    tmpdir: str
    reference: dict
    digests: list = field(default_factory=list)   # one per pass


def check_report(solve, report, N0, cfg, ref):
    """Conservation, residual, convergence and recorded-value checks."""
    f = solve.failures
    solve.converged = bool(report.converged)
    solve.iterations = len(report.iterations)
    for rec in report.iterations:
        if rec.occupation_error > OCC_RTOL * N0:
            f.append(f"iteration {rec.iteration}: occupation error "
                     f"{rec.occupation_error:.3e} > {OCC_RTOL:g} N0")
        if rec.density_integral_error > DENSITY_RTOL * N0:
            f.append(f"iteration {rec.iteration}: density integral error "
                     f"{rec.density_integral_error:.3e} > {DENSITY_RTOL:g} N0")
    resid = float(np.max(report.density.spectral.residual_norms))
    if not resid <= cfg.eig_tol:
        f.append(f"eigen residual {resid:.3e} > eig_tol {cfg.eig_tol:g}")
    if ref is None:
        f.append("no recorded values for this solve")
        return
    solve.recorded_converged = ref["converged"]
    if ref["converged"] and not solve.converged:
        f.append("recorded as converging, did not converge")
    if not solve.converged and solve.iterations != cfg.max_iter:
        f.append(f"stopped after {solve.iterations} of {cfg.max_iter} "
                 "iterations without converging")
    if solve.converged and ref["converged"]:
        if solve.iterations > ref["iterations"] + ITER_SLACK:
            f.append(f"{solve.iterations} iterations, recorded "
                     f"{ref['iterations']}")
        for key in ("err_v1", "err_n0"):
            got, want = getattr(solve, key), ref[key]
            if got is None or not abs(got - want) <= ERR_RTOL * want:
                f.append(f"{key} {got!r}, recorded {want!r}")


def _errors(msh, report, problem):
    rule = tet_rule(ERROR_RULE_DEGREE)
    return (fem.h1_error(msh, report.potential, problem.V_exact, rule),
            fem.l2_norm_error(msh, report.density, problem.n_exact, rule))


def _run_guarded(label, fn):
    """Run fn(); an exception becomes a failed solve, not a crash."""
    try:
        return fn(), None
    except Exception as exc:     # every solve is reported, even a raising one
        return None, Solve(label, failures=[f"raised {exc!r}"])


# --- study: the acceptance study, both benchmarks on m = 4, 8, 16 ------

def run_study(ctx):
    cfg = scf.ScfConfig(seed=ctx.seed)
    out = []
    for ex in (1, 2):
        def one():
            problem = ctx.problems[(ex, 0.1, 100.0)]
            rows, reports = lab.run_study(ex, problem.params, STUDY_MESHES,
                                          cfg, deterministic=True,
                                          return_reports=True)
            path = os.path.join(ctx.tmpdir, f"study-ex{ex}.csv")
            lab.emit_csv(rows, path)
            return rows, reports, path
        out.append((ex, cfg) + _run_guarded(f"ex{ex}", one))
    return out


def check_study(ctx, out):
    solves, digest = [], hashlib.sha256()
    for ex, cfg, result, failed in out:
        if failed is not None:
            solves += [Solve(f"ex{ex}-m{m}", failures=failed.failures)
                       for m in STUDY_MESHES]
            continue
        rows, reports, path = result
        with open(path, "rb") as f:
            digest.update(f.read())
        N0 = ctx.problems[(ex, 0.1, 100.0)].params.N0
        for m, row, report in zip(STUDY_MESHES, rows, reports):
            label = f"ex{ex}-m{m}"
            s = Solve(label, err_v1=row.e_v1, err_n0=row.e_n0)
            check_report(s, report, N0, cfg, ctx.reference.get(label))
            solves.append(s)
    return solves, digest.hexdigest()


# --- solve-m20: `spfem solve --m 20` in-process, with field dumps -------

def run_solve_m20(ctx):
    prefix = os.path.join(ctx.tmpdir, "run")
    captured = []
    solve_fn = cli.fixed_point_solve

    def probe(msh, model, cfg=None, V_init=None):
        # hands the report to the checks; the CLI prints only a summary
        report = solve_fn(msh, model, cfg, V_init)
        captured.append((msh, model, cfg, report))
        return report

    stdout = io.StringIO()
    cli.fixed_point_solve = probe
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(["solve", "--m", "20", "--seed", str(ctx.seed),
                           "--out", prefix])
    except Exception as exc:     # a raising CLI is a failed solve
        rc = repr(exc)
    finally:
        cli.fixed_point_solve = solve_fn
    return rc, stdout.getvalue(), prefix, captured


def check_solve_m20(ctx, out):
    rc, text, prefix, captured = out
    s = Solve("ex1-m20")
    if rc != 0:
        s.failures.append(f"spfem solve exit code {rc!r}")
    if len(captured) != 1:
        s.failures.append(f"{len(captured)} SCF solves captured, expected 1")
        return [s], ""
    msh, model, cfg, report = captured[0]
    N0 = model.params.N0
    s.err_v1, s.err_n0 = _errors(msh, report, ctx.problems[(1, 0.1, 100.0)])
    check_report(s, report, N0, cfg, ctx.reference.get(s.label))
    if f"{len(report.iterations)} iterations, converged=True" not in text:
        s.failures.append("summary line missing from stdout")

    # the dumps are the CLI's output: read them back
    digest = hashlib.sha256()
    paths = [prefix + "_potential.txt", prefix + "_density.txt"]
    for path in paths:
        with open(path, "rb") as f:
            digest.update(f.read())
    pot = np.loadtxt(paths[0])
    if not (np.array_equal(pot[:, :3], msh.vertices)
            and np.array_equal(pot[:, 3], report.potential.coeffs)):
        s.failures.append("potential dump differs from the solution")
    rule = tet_rule(2)
    dens = np.loadtxt(paths[1])
    values = dens[:, 3].reshape(msh.n_tets, len(rule.weights))
    if not np.array_equal(dens[:, :3].reshape(-1, 3),
                          msh.physical_points(rule).reshape(-1, 3)):
        s.failures.append("density dump points are not the quadrature points")
    integral = float((values @ rule.weights) @ msh.volumes)
    if abs(integral - N0) > DENSITY_RTOL * N0:
        s.failures.append(f"dumped density integrates to {integral!r}, "
                          f"N0 = {N0:g}")
    return [s], digest.hexdigest()


# --- wide-window: mu = 0.04 at m = 16, many levels per eigensolve -------

def run_wide_window(ctx):
    problem = ctx.problems[(1, 0.04, 100.0)]
    cfg = scf.ScfConfig(seed=ctx.seed)

    def one():
        msh = mesh.build_structured_mesh(16)
        report = scf.fixed_point_solve(
            msh, scf.ScfModel(problem.V0, problem.n_D, problem.params), cfg)
        return report, _errors(msh, report, problem)
    return (problem, cfg) + _run_guarded("ex1-m16-mu0.04", one)


def check_wide_window(ctx, out):
    problem, cfg, result, failed = out
    if failed is not None:
        return [failed], ""
    report, (e_v1, e_n0) = result
    s = Solve("ex1-m16-mu0.04", err_v1=e_v1, err_n0=e_n0)
    check_report(s, report, problem.params.N0, cfg,
                 ctx.reference.get(s.label))
    return [s], ""


# --- sweep-m8: 12 dense-path solves across feedback strength ------------

def _sweep_cases():
    return [(ex, n0, d) for ex in (1, 2) for n0 in (100.0, 1000.0, 3000.0)
            for d in SWEEP_DAMPING]


def run_sweep_m8(ctx):
    msh = mesh.build_structured_mesh(8)
    out = []
    for ex, n0, d in _sweep_cases():
        problem = ctx.problems[(ex, 0.1, n0)]
        cfg = scf.ScfConfig(seed=ctx.seed, max_iter=SWEEP_MAX_ITER,
                            damping=d)
        label = f"ex{ex}-N0={n0:g}-damping={d:g}"
        result, failed = _run_guarded(label, lambda: scf.fixed_point_solve(
            msh, scf.ScfModel(problem.V0, problem.n_D, problem.params), cfg))
        out.append((label, problem, cfg, result, failed))
    return msh, out


def check_sweep_m8(ctx, out):
    msh, runs = out
    solves = []
    for label, problem, cfg, report, failed in runs:
        if failed is not None:
            solves.append(failed)
            continue
        s = Solve(label)
        if report.converged:
            s.err_v1, s.err_n0 = _errors(msh, report, problem)
        check_report(s, report, problem.params.N0, cfg,
                     ctx.reference.get(label))
        solves.append(s)
    return solves, ""


# (timed pass, check, least passes per run); study makes two passes so
# that its CSVs can be compared byte for byte within every run
WORKLOADS = {
    "study": (run_study, check_study, 2),
    "solve-m20": (run_solve_m20, check_solve_m20, 1),
    "wide-window": (run_wide_window, check_wide_window, 1),
    "sweep-m8": (run_sweep_m8, check_sweep_m8, 1),
}
