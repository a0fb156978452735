"""Convergence studies over mesh sequences, with CSV and table output."""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .mesh import build_structured_mesh, mesh_size
from .oracle import manufactured_problem
from .quadrature import tet_rule
from .scf import ScfConfig, ScfModel, fixed_point_solve

CSV_HEADER = "Ne,h,eV0,orderV0,eV1,orderV1,en0,orderN0,Lh,fermiH,iters,seconds"


@dataclass
class StudyRow:
    ne: int
    h: float
    e_v0: float
    order_v0: float | None
    e_v1: float
    order_v1: float | None
    e_n0: float
    order_n0: float | None
    level_count: int
    fermi: float
    iters: int
    seconds: float
    converged: bool = field(default=True, compare=False)

    @property
    def m(self):
        return round((self.ne / 6) ** (1.0 / 3.0))


def estimated_order(e_coarse, e_fine, h_coarse, h_fine):
    """ln(e_coarse/e_fine) / ln(h_coarse/h_fine), or None if undefined."""
    if e_coarse > 0 and e_fine > 0 and h_coarse != h_fine:
        return math.log(e_coarse / e_fine) / math.log(h_coarse / h_fine)
    return None


def run_study(example, p, mesh_sizes, cfg=None, deterministic=False,
              return_reports=False):
    """SCF over a refinement sequence with errors against the exact
    solution; non-converged meshes are flagged and the study continues.

    In deterministic mode the wall-clock column is zeroed so repeated
    runs emit byte-identical CSV.  With ``return_reports`` the full
    per-mesh ScfReports are returned alongside the rows.
    """
    sizes = list(mesh_sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("mesh sizes must be strictly increasing")
    cfg = cfg or ScfConfig()
    problem = manufactured_problem(example, p)
    rule = tet_rule(5)

    rows = []
    reports = []
    prev = None
    for m in sizes:
        t0 = time.perf_counter()
        mesh = build_structured_mesh(m)
        report = fixed_point_solve(
            mesh, ScfModel(problem.V0, problem.n_D, p), cfg)
        e_v0, semi = fem._error_norms(mesh, report.potential,
                                      problem.V_exact, rule, True, True)
        e_v1 = float(np.hypot(e_v0, semi))
        e_n0 = fem.l2_norm_error(mesh, report.density, problem.n_exact, rule)
        h = mesh_size(mesh)
        seconds = 0.0 if deterministic else time.perf_counter() - t0
        row = StudyRow(
            ne=mesh.n_tets, h=h,
            e_v0=e_v0,
            order_v0=estimated_order(prev.e_v0, e_v0, prev.h, h) if prev else None,
            e_v1=e_v1,
            order_v1=estimated_order(prev.e_v1, e_v1, prev.h, h) if prev else None,
            e_n0=e_n0,
            order_n0=estimated_order(prev.e_n0, e_n0, prev.h, h) if prev else None,
            level_count=report.occupation.level_count,
            fermi=report.occupation.fermi_level,
            iters=len(report.iterations),
            seconds=seconds,
            converged=report.converged,
        )
        rows.append(row)
        reports.append(report)
        prev = row
    if return_reports:
        return rows, reports
    return rows


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def emit_csv(rows, path):
    """Write rows in shortest round-trip decimals; absent orders empty."""
    if not rows:
        raise ValueError("no rows to emit")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.ne), _fmt(r.h),
            _fmt(r.e_v0), _fmt(r.order_v0),
            _fmt(r.e_v1), _fmt(r.order_v1),
            _fmt(r.e_n0), _fmt(r.order_n0),
            str(r.level_count), _fmt(r.fermi),
            str(r.iters), _fmt(r.seconds),
        ]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def parse_csv(path):
    """Inverse of emit_csv (converged flag is not serialized)."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized study CSV header")
    rows = []
    for ln in lines[1:]:
        c = ln.split(",")
        rows.append(StudyRow(
            ne=int(c[0]), h=float(c[1]),
            e_v0=float(c[2]), order_v0=float(c[3]) if c[3] else None,
            e_v1=float(c[4]), order_v1=float(c[5]) if c[5] else None,
            e_n0=float(c[6]), order_n0=float(c[7]) if c[7] else None,
            level_count=int(c[8]), fermi=float(c[9]),
            iters=int(c[10]), seconds=float(c[11]),
        ))
    return rows


def format_table(rows):
    """Aligned plain-text table of errors and estimated orders."""
    header = (f"{'Ne':>9} {'eV0':>11} {'order':>6} {'eV1':>11} {'order':>6} "
              f"{'en0':>11} {'order':>6} {'Lh':>5} {'iters':>6}")
    out = [header]
    for r in rows:
        def order(o):
            return f"{o:6.2f}" if o is not None else "   ---"
        flag = "" if r.converged else "  [not converged]"
        out.append(
            f"{r.ne:>9d} {r.e_v0:>11.3e} {order(r.order_v0)} "
            f"{r.e_v1:>11.3e} {order(r.order_v1)} "
            f"{r.e_n0:>11.3e} {order(r.order_n0)} "
            f"{r.level_count:>5d} {r.iters:>6d}{flag}")
    return "\n".join(out)
