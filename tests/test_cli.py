import gzip

import pytest

from spfem.cli import ConfigError, main, parse_config
from spfem.occupancy import BOLTZMANN


def test_defaults_from_empty_file(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg.example == 1
    assert cfg.distribution == BOLTZMANN
    assert cfg.f0 == 1.0 and cfg.mu == 0.1 and cfg.N0 == 100.0
    assert cfg.meshes == [4, 8, 16]
    assert cfg.tol_rel == 1e-8 and cfg.damping == 1.0


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mu = 0.2\nmeshes = 2,4\n# comment\nexample = 2\n")
    cfg = parse_config(path)
    assert cfg.mu == 0.2 and cfg.meshes == [2, 4] and cfg.example == 2
    cfg = parse_config(path, {"mu": 0.3})
    assert cfg.mu == 0.3  # flags win


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
    assert cfg.mu == pytest.approx(2.2e-3)
    assert cfg.f0 == pytest.approx(4.4e-6)


def test_exit_code_for_bad_flag(capsys):
    assert main(["study", "--mu", "-1"]) == 1
    assert "mu" in capsys.readouterr().err


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


def test_solve_keeps_every_interior_level(tmp_path):
    # the window reaches all 8 interior levels of m = 3, the last one
    # unoccupied
    assert main(["solve", "--m", "3", "--mu", "0.021544346900318832",
                 "--out", str(tmp_path / "m3")]) == 0
