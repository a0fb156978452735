import gzip
import math

import numpy as np
import pytest

from spfem.cli import (ConfigError, dump_density, dump_potential, main,
                       parse_config)
from spfem.fem import FeField
from spfem.mesh import build_structured_mesh
from spfem.occupancy import BOLTZMANN, DensityField, DistributionParams
from spfem.quadrature import tet_rule
from spfem.scf import ScfConfig
from spfem.spectrum import SpectrumSolver


def test_defaults_from_empty_file(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg.example == 1
    assert cfg.params.kind == BOLTZMANN
    assert (cfg.params.f0 == 1.0 and cfg.params.mu == 0.1
            and cfg.params.N0 == 100.0)
    assert cfg.meshes == [4, 8, 16]
    assert cfg.scf.tol_rel == 1e-8 and cfg.scf.damping == 1.0


def test_defaults_are_the_owners_defaults():
    cfg = parse_config(None)
    assert cfg.params == DistributionParams()
    assert cfg.scf == ScfConfig()


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mu = 0.2\nmeshes = 2,4\n# comment\nexample = 2\n")
    cfg = parse_config(path)
    assert cfg.params.mu == 0.2 and cfg.meshes == [2, 4] and cfg.example == 2
    cfg = parse_config(path, {"mu": 0.3})
    assert cfg.params.mu == 0.3  # flags win


def test_invalid_values_name_the_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mu = -1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.key == "mu"
    path.write_text("volume = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.key == "volume"
    path.write_text("mu == oops\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_slow_decay_regime_flags():
    cfg = parse_config(None, {"mu": 2.2e-3, "f0": 4.4e-6})
    assert cfg.params.mu == pytest.approx(2.2e-3)
    assert cfg.params.f0 == pytest.approx(4.4e-6)


def test_oracle_check_fermi_dirac():
    assert main(["oracle-check", "--distribution", "fermi_dirac"]) == 0


def test_exit_code_for_bad_flag(capsys):
    assert main(["study", "--mu", "-1"]) == 1
    assert "mu" in capsys.readouterr().err


# one invalid value per validated key, as (file text, typed override)
_INVALID = {
    "example": ("3", 3),
    "distribution": ("gauss", "gauss"),
    "f0": ("0", 0.0),
    "mu": ("-1", -1.0),
    "N0": ("-5", -5.0),
    "m": ("0", 0),
    "meshes": ("4,0", [4, 0]),
    "tol_rel": ("0", 0.0),
    "max_iter": ("0", 0),
    "damping": ("1.5", 1.5),
    "L_max": ("0", 0),
    "seed": ("-1", -1),
}


@pytest.mark.parametrize("key", sorted(_INVALID))
def test_every_invalid_key_is_named(tmp_path, capsys, key):
    text, value = _INVALID[key]
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {text}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.key == key
    with pytest.raises(ConfigError) as err:
        parse_config(None, {key: value})
    assert err.value.key == key
    command = "study" if key == "meshes" else "solve"
    flag = "--" + key.replace("_", "-")
    assert main([command, flag, text]) == 1
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,key", [("--f0", "f0"), ("--mu", "mu"),
                                      ("--N0", "N0"),
                                      ("--tol-rel", "tol_rel")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_settings_are_named(capsys, flag, key, value):
    # none reaches the solve: NaN used to hang the exact-density series,
    # inf to raise from it or to stop the loop after one sweep
    assert main(["solve", "--m", "4", "--max-iter", "2", flag, value]) == 1
    assert f"config key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("eig_tol", [0.0, -1e-9, math.nan, math.inf])
def test_eig_tol_must_be_finite_and_positive(eig_tol):
    with pytest.raises(ValueError, match="eig_tol"):
        ScfConfig(eig_tol=eig_tol)


@pytest.mark.parametrize("meshes", ["8,4", "4,4"])
def test_meshes_must_increase_strictly(capsys, meshes):
    assert main(["study", "--meshes", meshes]) == 1
    assert "config key 'meshes'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["eigs", "--m", "1"], "m"),
    (["solve", "--m", "1"], "m"),
    (["study", "--meshes", "1,4"], "meshes"),
])
def test_a_mesh_without_interior_vertices_is_named(capsys, argv, key):
    # m = 1 has no interior unknown; it used to reach the numerics
    assert main(argv) == 1
    assert f"config key '{key}'" in capsys.readouterr().err
    with pytest.raises(ConfigError) as err:
        parse_config(None, {key: 1 if key == "m" else [1, 4]})
    assert err.value.key == key


@pytest.mark.parametrize("argv", [["solve", "--mu", "abc"],
                                  ["solve", "--bogus"]])
def test_bad_command_line_exits_one(capsys, argv):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


def test_oracle_check_exit_zero(capsys):
    assert main(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert "example 1" in out and "example 2" in out


def test_eigs_subcommand(capsys):
    assert main(["eigs", "--m", "4", "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "eigenvalues" in out
    assert out.count("residual") == 3


def test_study_subcommand(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["study", "--meshes", "4,8", "--out", str(out),
                 "--deterministic"])
    assert code == 0
    text = out.read_text()
    assert text.startswith("Ne,h,eV0")
    assert len(text.splitlines()) == 3


def test_solve_deterministic_dumps_identical(tmp_path, capsys):
    dumps = []
    for run in (1, 2):
        prefix = tmp_path / f"run{run}"
        code = main(["solve", "--m", "4", "--deterministic",
                     "--out", str(prefix)])
        assert code == 0
        dumps.append((
            (tmp_path / f"run{run}_potential.txt").read_bytes(),
            (tmp_path / f"run{run}_density.txt").read_bytes()))
    assert dumps[0] == dumps[1]
    # plausible vertex-line format
    first = dumps[0][0].decode().splitlines()[0].split()
    assert len(first) == 4


def test_solve_summary_counts_eigensolves(tmp_path, capsys):
    assert main(["solve", "--m", "4", "--out", str(tmp_path / "m4")]) == 0
    lines = capsys.readouterr().out.splitlines()
    sweeps = int(lines[0].split(", ")[1].split()[0])
    third = lines[2]
    assert third.startswith("last sweep: eigen tolerance")
    solves = int(third.split("; ")[1].split()[0])
    assert third.endswith(f"eigensolves in {sweeps} sweeps")
    assert solves >= sweeps


def test_solve_gzip(tmp_path):
    prefix = tmp_path / "z"
    assert main(["solve", "--m", "4", "--gzip", "--out", str(prefix)]) == 0
    with gzip.open(str(prefix) + "_potential.txt.gz", "rt") as f:
        assert len(f.readline().split()) == 4


def test_truncation_overflow_exit_code(capsys):
    code = main(["solve", "--m", "4", "--mu", "2.2e-3", "--f0", "4.4e-6",
                 "--L-max", "64"])
    assert code == 2
    assert "window" in capsys.readouterr().err


def test_non_convergence_exit_code(capsys, tmp_path):
    code = main(["solve", "--m", "4", "--max-iter", "2",
                 "--out", str(tmp_path / "m4")])
    assert code == 2
    out = capsys.readouterr().out
    assert "2 iterations, converged=False" in out
    ratio = out.split("increment ratio ")[1].split()[0]
    assert 0.0 < float(ratio) < float("inf")


def test_solve_keeps_every_interior_level(tmp_path):
    # the window reaches all 8 interior levels of m = 3, the last one
    # unoccupied
    assert main(["solve", "--m", "3", "--mu", "0.021544346900318832",
                 "--out", str(tmp_path / "m3")]) == 0


def _per_line_dumps(field, density, prefix):
    """Reference: the per-line f-string writers the chunked writer
    replaced."""
    mesh = field.mesh
    with open(f"{prefix}_potential.txt", "w") as f:
        for (x, y, z), v in zip(mesh.vertices, field.coeffs):
            f.write(f"{float(x)!r} {float(y)!r} {float(z)!r} {float(v)!r}\n")
    rule = tet_rule(2)
    pts = mesh.physical_points(rule)
    vals = density.element_values(mesh, rule)
    with open(f"{prefix}_density.txt", "w") as f:
        for elem_pts, elem_vals in zip(pts, vals):
            for (x, y, z), v in zip(elem_pts, elem_vals):
                f.write(f"{float(x)!r} {float(y)!r} {float(z)!r} "
                        f"{float(v)!r}\n")


@pytest.mark.parametrize("use_gzip", [False, True])
def test_dumps_match_per_line_writer(tmp_path, use_gzip):
    mesh = build_structured_mesh(3)
    spectral = SpectrumSolver(mesh, None).solve(None, 8)
    density = DensityField(spectral, np.linspace(3.0, 0.5, 8), 8)
    coeffs = np.random.default_rng(3).standard_normal(mesh.n_vertices)
    coeffs[mesh.boundary_mask] = 0.0
    coeffs[mesh.interior_vertices[0]] = -0.0      # keeps its sign
    field = FeField(mesh, coeffs)
    ref = tmp_path / "ref"
    _per_line_dumps(field, density, ref)
    out = tmp_path / "out"
    dump_potential(field, f"{out}_potential.txt", use_gzip)
    dump_density(density, f"{out}_density.txt", use_gzip)
    for kind in ("potential", "density"):
        path = f"{out}_{kind}.txt"
        if use_gzip:
            with gzip.open(path + ".gz", "rb") as f:
                got = f.read()
        else:
            with open(path, "rb") as f:
                got = f.read()
        with open(f"{ref}_{kind}.txt", "rb") as f:
            assert got == f.read()
