"""Command-line entry point.

Subcommands: ``solve`` (single-mesh SCF with field dumps), ``study``
(convergence table to CSV), ``oracle-check`` (manufactured-solution
residual self-checks), ``eigs`` (spectrum of a fixed potential).

Configuration comes from an optional line-oriented ``key = value`` file
plus flags, flags winning.  ``_PARSERS`` lists every key once, with the
object that owns it: ``RunConfig`` for the CLI's own keys, its
``params`` (``DistributionParams``) and ``scf`` (``ScfConfig``) for the
rest, whose defaults and checks apply unchanged; a value its owner
rejects raises ``ConfigError`` naming the key.  Exit codes: 0 success,
1 invalid configuration or command line, 2 numerical non-convergence.
"""

import argparse
import gzip
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericsError
from .fem import slab_blocks
from .lab import emit_csv, format_table, run_study
from .mesh import build_structured_mesh, mesh_size, write_rows
from .occupancy import DistributionParams
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
    """The CLI's own keys plus the occupation model and SCF settings,
    which keep their defaults and checks in their own classes."""

    example: int = 1
    m: int = 8
    meshes: list = field(default_factory=lambda: [4, 8, 16])
    deterministic: bool = False
    out: str | None = None
    params: DistributionParams = field(default_factory=DistributionParams)
    scf: ScfConfig = field(default_factory=ScfConfig)

    def __post_init__(self):
        if self.example not in (1, 2):
            raise ValueError("example must be 1 or 2")
        # a mesh needs an interior vertex
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if not self.meshes or any(v < 2 for v in self.meshes):
            raise ValueError("mesh sizes must be >= 2")
        if any(b <= a for a, b in zip(self.meshes, self.meshes[1:])):
            raise ValueError("mesh sizes must be strictly increasing")


# config key -> (RunConfig field holding it or None, field name, parser);
# each key is also the flag --key with '_' written as '-'
_PARSERS = {
    "example": (None, "example", int),
    "distribution": ("params", "kind", str),
    "f0": ("params", "f0", float),
    "mu": ("params", "mu", float),
    "N0": ("params", "N0", float),
    "m": (None, "m", int),
    "meshes": (None, "meshes", lambda s: [int(v) for v in s.split(",") if v]),
    "tol_rel": ("scf", "tol_rel", float),
    "max_iter": ("scf", "max_iter", int),
    "damping": ("scf", "damping", float),
    "L_max": ("scf", "L_max", int),
    "seed": ("scf", "seed", int),
    "deterministic": (None, "deterministic",
                      lambda s: s.strip().lower() in ("1", "true", "yes")),
    "out": (None, "out", str),
}


def _parse(key, text):
    if key not in _PARSERS:
        raise ConfigError(key, "unknown key")
    try:
        return _PARSERS[key][2](text)
    except ValueError:
        raise ConfigError(key, f"cannot parse {text!r}") from None


def parse_config(path=None, overrides=None):
    """RunConfig from defaults, an optional file, then flag overrides.

    Each key is applied to the object that owns it, whose own check
    failing raises ConfigError naming that key."""
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
                values[key.strip()] = _parse(key.strip(), text.strip())
    for key, val in (overrides or {}).items():
        if key not in _PARSERS:
            raise ConfigError(key, "unknown key")
        if val is not None:
            values[key] = val

    cfg = RunConfig()
    for key, val in values.items():
        owner, name, _ = _PARSERS[key]
        try:
            if owner is None:
                cfg = replace(cfg, **{name: val})
            else:
                part = replace(getattr(cfg, owner), **{name: val})
                cfg = replace(cfg, **{owner: part})
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
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
    """One 'x y z value' line per quadrature point (degree-2 rule),
    written one slab block at a time."""
    mesh = density.mesh
    rule = tet_rule(2)
    with _open_out(path, use_gzip) as f:
        for slabs in slab_blocks(mesh, rule):
            pts = mesh.physical_points(rule, slabs).reshape(-1, 3)
            vals = density.element_values(mesh, rule, slabs).reshape(-1, 1)
            write_rows(f, np.hstack([pts, vals]))


def _add_common(sub, mesh_key=None):
    """--config plus one string flag per config key, parsed later like a
    file value; of the mesh keys only ``mesh_key`` is offered."""
    sub.add_argument("--config", help="key = value configuration file")
    for key in _PARSERS:
        if key in ("m", "meshes") and key != mesh_key:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "deterministic":
            sub.add_argument(flag, action="store_const", const="true")
        else:
            sub.add_argument(flag, dest=key)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a bad command line is an invalid configuration (exit 1), not
        # argparse's exit 2, which spfem keeps for non-convergence
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _build_parser():
    parser = _ArgumentParser(
        prog="spfem",
        description="Schrodinger-Poisson finite element solver on the "
                    "unit cube")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="single-mesh SCF run with dumps")
    _add_common(solve, "m")
    solve.add_argument("--gzip", action="store_true")

    study = subs.add_parser("study", help="convergence study to CSV")
    _add_common(study, "meshes")

    oracle = subs.add_parser("oracle-check",
                             help="manufactured-solution residual checks")
    _add_common(oracle)

    eigs = subs.add_parser("eigs", help="spectrum of a fixed potential")
    _add_common(eigs, "m")
    eigs.add_argument("--levels", type=int, default=10)
    eigs.add_argument("--potential", choices=["zero", "example1", "example2"],
                      default="zero")
    return parser


def _overrides(args):
    return {key: _parse(key, getattr(args, key)) for key in _PARSERS
            if getattr(args, key, None) is not None}


def _cmd_solve(cfg, args):
    mesh = build_structured_mesh(cfg.m)
    report = fixed_point_solve(mesh, _model(cfg), cfg.scf)
    last = report.iterations[-1]
    print(f"mesh m={cfg.m} (h={mesh_size(mesh):.6g}), "
          f"{len(report.iterations)} iterations, "
          f"converged={report.converged}")
    print(f"fermi level {last.fermi_level!r}, levels kept "
          f"{last.level_count}, final H1 increment {last.increment_h1:.3e}, "
          f"increment ratio {last.increment_ratio:.3g}")
    solves = sum(rec.eig_solves for rec in report.iterations)
    print(f"last sweep: eigen tolerance {last.eig_tol:.3g}, "
          f"levels solved {last.levels}; {solves} eigensolves in "
          f"{len(report.iterations)} sweeps")
    prefix = cfg.out or "solve"
    dump_potential(report.potential, f"{prefix}_potential.txt",
                   use_gzip=args.gzip)
    dump_density(report.density, f"{prefix}_density.txt", use_gzip=args.gzip)
    suffix = ".gz" if args.gzip else ""
    print(f"wrote {prefix}_potential.txt{suffix} and "
          f"{prefix}_density.txt{suffix}")
    return 0 if report.converged else 2


def _model(cfg):
    problem = manufactured_problem(cfg.example, cfg.params)
    return ScfModel(problem.V0, problem.n_D, cfg.params)


def _cmd_study(cfg, args):
    rows = run_study(cfg.example, cfg.params, cfg.meshes, cfg.scf,
                     deterministic=cfg.deterministic)
    print(format_table(rows))
    out = cfg.out or "study.csv"
    emit_csv(rows, out)
    print(f"wrote {out}")
    return 0 if all(r.converged for r in rows) else 2


def _cmd_oracle_check(cfg, args):
    rng = np.random.default_rng(cfg.scf.seed)
    points = 0.05 + 0.9 * rng.random((100, 3))
    worst = 0.0
    for example in (1, 2):
        problem = manufactured_problem(example, cfg.params)
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
        V0 = manufactured_problem(example, cfg.params).V0
    L = min(args.levels, mesh.n_interior)
    spectral = SpectrumSolver(mesh, V0, seed=cfg.scf.seed).solve(None, L)
    print(f"lowest {L} eigenvalues on m={cfg.m} "
          f"(potential: {args.potential})")
    for idx, (val, res) in enumerate(
            zip(spectral.eigenvalues, spectral.residual_norms), 1):
        print(f"{idx:4d} {float(val)!r}  residual {res:.2e}")
    return 0


_COMMANDS = {"solve": _cmd_solve, "study": _cmd_study,
             "oracle-check": _cmd_oracle_check, "eigs": _cmd_eigs}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = parse_config(args.config, _overrides(args))
        return _COMMANDS[args.command](cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
