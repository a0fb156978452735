"""Command-line entry point.

Subcommands: ``solve`` (single-mesh SCF with field dumps), ``study``
(convergence table to CSV), ``oracle-check`` (manufactured-solution
residual self-checks), ``eigs`` (spectrum of a fixed potential).

Configuration comes from an optional line-oriented ``key = value`` file
plus flags, flags winning.  Exit codes: 0 success, 1 invalid
configuration, 2 numerical non-convergence.
"""

import argparse
import gzip
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .lab import emit_csv, format_table, run_study
from .mesh import build_structured_mesh, mesh_size, write_rows
from .occupancy import BOLTZMANN, FERMI_DIRAC, DistributionParams
from .oracle import manufactured_problem
from .quadrature import tet_rule
from .scf import ScfConfig, ScfModel, fixed_point_solve
from .spectrum import SpectrumSolver


class ConfigError(ValueError):
    def __init__(self, key, message):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


@dataclass
class RunConfig:
    example: int = 1
    distribution: str = BOLTZMANN
    f0: float = 1.0
    mu: float = 0.1
    N0: float = 100.0
    m: int = 8
    meshes: list = field(default_factory=lambda: [4, 8, 16])
    tol_rel: float = 1e-8
    max_iter: int = 200
    damping: float = 1.0
    L_max: int = 512
    seed: int = 0
    deterministic: bool = False
    out: str | None = None

    def params(self):
        try:
            return DistributionParams(kind=self.distribution, f0=self.f0,
                                      mu=self.mu, N0=self.N0)
        except ValueError as exc:
            key = _offending_key(str(exc))
            raise ConfigError(key, str(exc)) from None

    def scf_config(self):
        try:
            return ScfConfig(tol_rel=self.tol_rel, max_iter=self.max_iter,
                             damping=self.damping, L_max=self.L_max,
                             seed=self.seed)
        except ValueError as exc:
            key = _offending_key(str(exc))
            raise ConfigError(key, str(exc)) from None


def _offending_key(message):
    for key in ("f0", "mu", "N0", "tol_rel", "damping", "max_iter", "L_max",
                "kind"):
        if key in message:
            return "distribution" if key == "kind" else key
    return "?"


_PARSERS = {
    "example": int, "distribution": str, "f0": float, "mu": float,
    "N0": float, "m": int,
    "meshes": lambda s: [int(v) for v in s.split(",") if v],
    "tol_rel": float, "max_iter": int, "damping": float, "L_max": int,
    "seed": int,
    "deterministic": lambda s: s.strip().lower() in ("1", "true", "yes"),
    "out": str,
}


def parse_config(path=None, overrides=None):
    """RunConfig from defaults, an optional file, then flag overrides."""
    values = {}
    if path is not None:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("?", f"line {lineno} is not 'key = value'")
                key, _, text = line.partition("=")
                key = key.strip()
                if key not in _PARSERS:
                    raise ConfigError(key, "unknown key")
                try:
                    values[key] = _PARSERS[key](text.strip())
                except ValueError:
                    raise ConfigError(key, f"cannot parse {text.strip()!r}") \
                        from None
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val

    cfg = RunConfig(**values)
    if cfg.example not in (1, 2):
        raise ConfigError("example", "must be 1 or 2")
    if cfg.distribution not in (BOLTZMANN, FERMI_DIRAC):
        raise ConfigError("distribution",
                          f"must be {BOLTZMANN} or {FERMI_DIRAC}")
    if cfg.m < 1:
        raise ConfigError("m", "must be >= 1")
    if any(v < 1 for v in cfg.meshes) or not cfg.meshes:
        raise ConfigError("meshes", "need positive mesh sizes")
    if cfg.seed < 0:
        raise ConfigError("seed", "must be >= 0")
    cfg.params()
    cfg.scf_config()
    return cfg


def _open_out(path, use_gzip):
    if use_gzip:
        return gzip.open(path + ".gz", "wt")
    return open(path, "w")


def dump_potential(field_, path, use_gzip=False):
    """One 'x y z value' line per mesh vertex."""
    mesh = field_.mesh
    with _open_out(path, use_gzip) as f:
        write_rows(f, np.column_stack([mesh.vertices, field_.coeffs]))


def dump_density(density, path, use_gzip=False):
    """One 'x y z value' line per quadrature point (degree-2 rule)."""
    mesh = density.mesh
    rule = tet_rule(2)
    pts = mesh.physical_points(rule).reshape(-1, 3)
    vals = density.element_values(mesh, rule).reshape(-1, 1)
    with _open_out(path, use_gzip) as f:
        write_rows(f, np.hstack([pts, vals]))


def _add_common(sub):
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--example", type=int)
    sub.add_argument("--distribution", choices=[BOLTZMANN, FERMI_DIRAC])
    sub.add_argument("--f0", type=float)
    sub.add_argument("--mu", type=float)
    sub.add_argument("--N0", type=float)
    sub.add_argument("--tol-rel", dest="tol_rel", type=float)
    sub.add_argument("--max-iter", dest="max_iter", type=int)
    sub.add_argument("--damping", type=float)
    sub.add_argument("--L-max", dest="L_max", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--deterministic", action="store_const", const=True)
    sub.add_argument("--out")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spfem",
        description="Schrodinger-Poisson finite element solver on the "
                    "unit cube")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="single-mesh SCF run with dumps")
    _add_common(solve)
    solve.add_argument("--m", type=int)
    solve.add_argument("--gzip", action="store_true")

    study = subs.add_parser("study", help="convergence study to CSV")
    _add_common(study)
    study.add_argument("--meshes", type=str,
                       help="comma-separated cells-per-axis, e.g. 4,8,16")

    oracle = subs.add_parser("oracle-check",
                             help="manufactured-solution residual checks")
    _add_common(oracle)

    eigs = subs.add_parser("eigs", help="spectrum of a fixed potential")
    _add_common(eigs)
    eigs.add_argument("--m", type=int)
    eigs.add_argument("--levels", type=int, default=10)
    eigs.add_argument("--potential", choices=["zero", "example1", "example2"],
                      default="zero")
    return parser


def _overrides(args):
    keys = ("example", "distribution", "f0", "mu", "N0", "tol_rel",
            "max_iter", "damping", "L_max", "seed", "deterministic", "out",
            "m")
    over = {k: getattr(args, k, None) for k in keys}
    meshes = getattr(args, "meshes", None)
    if meshes is not None:
        over["meshes"] = _PARSERS["meshes"](meshes)
    return over


def _cmd_solve(cfg, args):
    mesh = build_structured_mesh(cfg.m)
    report = fixed_point_solve(mesh, _model(cfg), cfg.scf_config())
    last = report.iterations[-1]
    print(f"mesh m={cfg.m} (h={mesh_size(mesh):.6g}), "
          f"{len(report.iterations)} iterations, "
          f"converged={report.converged}")
    print(f"fermi level {last.fermi_level!r}, levels kept "
          f"{last.level_count}, final H1 increment {last.increment_h1:.3e}")
    prefix = cfg.out or "solve"
    dump_potential(report.potential, f"{prefix}_potential.txt",
                   use_gzip=args.gzip)
    dump_density(report.density, f"{prefix}_density.txt", use_gzip=args.gzip)
    suffix = ".gz" if args.gzip else ""
    print(f"wrote {prefix}_potential.txt{suffix} and "
          f"{prefix}_density.txt{suffix}")
    return 0 if report.converged else 2


def _model(cfg):
    problem = manufactured_problem(cfg.example, cfg.params())
    return ScfModel(problem.V0, problem.n_D, cfg.params())


def _cmd_study(cfg, args):
    rows = run_study(cfg.example, cfg.params(), cfg.meshes,
                     cfg.scf_config(), deterministic=cfg.deterministic)
    print(format_table(rows))
    out = cfg.out or "study.csv"
    emit_csv(rows, out)
    print(f"wrote {out}")
    return 0 if all(r.converged for r in rows) else 2


def _cmd_oracle_check(cfg, args):
    rng = np.random.default_rng(cfg.seed)
    points = 0.05 + 0.9 * rng.random((100, 3))
    worst = 0.0
    for example in (1, 2):
        problem = manufactured_problem(example, cfg.params())
        resid = problem.residual_check(points)
        bound = 1e-6 * (1.0 + np.abs(problem.n_exact(points)))
        ok = bool(np.all(resid <= bound))
        print(f"example {example}: max residual {resid.max():.3e} "
              f"(bound {bound.min():.3e}) -> {'ok' if ok else 'FAIL'}")
        worst = max(worst, float((resid / bound).max()))
        if not ok:
            return 2
    print(f"worst residual/bound ratio {worst:.3e}")
    return 0


def _cmd_eigs(cfg, args):
    mesh = build_structured_mesh(cfg.m)
    if args.potential == "zero":
        V0 = None
    else:
        example = 1 if args.potential == "example1" else 2
        V0 = manufactured_problem(example, cfg.params()).V0
    L = min(args.levels, mesh.n_interior)
    spectral = SpectrumSolver(mesh, V0, seed=cfg.seed).solve(None, L)
    print(f"lowest {L} eigenvalues on m={cfg.m} "
          f"(potential: {args.potential})")
    for idx, (val, res) in enumerate(
            zip(spectral.eigenvalues, spectral.residual_norms), 1):
        print(f"{idx:4d} {float(val)!r}  residual {res:.2e}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        over = _overrides(args)
        cfg = parse_config(args.config, over)
        if args.command == "solve":
            return _cmd_solve(cfg, args)
        if args.command == "study":
            return _cmd_study(cfg, args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(cfg, args)
        if args.command == "eigs":
            return _cmd_eigs(cfg, args)
        raise AssertionError(args.command)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
