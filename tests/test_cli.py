import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sirsupport
from sirsupport.cli import main
from sirsupport.dataio import CURVE_HEADER, emit_matrix_csv
from sirsupport.version import __version__


def _lines(path):
    return path.read_text().splitlines()


class TestSimulate:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--p", "6", "--s", "2", "--n", "50", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        assert len(_lines(out / "dataset.csv")) == 51
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3
        assert manifest["version"] == __version__
        assert manifest["config"]["p"] == 6
        assert manifest["config_path"] is None
        assert set(manifest) == {
            "command", "config_path", "output_dir", "seed", "version", "config",
        }
        assert (out / "manifest.json").read_text().endswith("\n")
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"wrote {out / 'dataset.csv'}", f"wrote {out / 'manifest.json'}"]

    def test_same_seed_same_bytes(self, tmp_path):
        argv = ["simulate", "--p", "5", "--s", "2", "--n", "20", "--seed", "8"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


class TestCurve:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "curve",
                "--p", "8",
                "--sparsity", "2",
                "--model", "linear",
                "--noise-sd", "0.5",
                "--method", "dt-sir",
                "--H", "4",
                "--gamma-grid", "1,8",
                "--reps", "3",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = _lines(out / "curve.csv")
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["method"] == "dt_sir"
        assert manifest["config"]["gamma_grid"] == [1.0, 8.0]
        assert manifest["config"]["lambda"] is None


class TestDiagnose:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "diagnose",
                "--model", "linear",
                "--h-grid", "2,4",
                "--mc-n", "4000",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        # header plus one row per (H, slice): 2 + 4
        assert len(_lines(out / "diagnostic.csv")) == 7


class TestRecover:
    @pytest.fixture()
    def data_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        y = x[:, 0] + 0.1 * rng.standard_normal(40)
        lines = ["y,a,b,c"]
        for i in range(40):
            lines.append(",".join(repr(float(v)) for v in (y[i], *x[i])))
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_end_to_end(self, tmp_path, data_csv):
        out = tmp_path / "run"
        rc = main(
            ["recover", "--data", str(data_csv), "--s", "1", "--H", "4", "--out", str(out)]
        )
        assert rc == 0
        lines = _lines(out / "recovery.csv")
        assert lines[0] == "variable,score,rank,selected,sign"
        assert len(lines) == 4
        assert lines[1].startswith("a,")

    def test_non_utf8_byte_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,a\n1,2\n3,\xff\n5,6\n")
        rc = main(["recover", "--data", str(path), "--s", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.csv: byte 0xff at row 3 is not UTF-8 text" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "recovery.csv").exists()

    def test_rank_deficient_is_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "fat.csv"
        path.write_text("y,a,b,c,d\n1,2,3,4,5\n6,7,8,9,10\n3,1,4,1,5\n")
        rc = main(["recover", "--data", str(path), "--s", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err


class TestSdpSolve:
    @pytest.fixture()
    def matrix_csv(self, tmp_path):
        path = tmp_path / "a.csv"
        emit_matrix_csv(np.diag([2.0, 1.0]), path)
        return path

    def test_explicit_penalty(self, tmp_path, matrix_csv):
        out = tmp_path / "run"
        rc = main(
            ["sdp-solve", "--matrix", str(matrix_csv), "--lambda", "0", "--out", str(out)]
        )
        assert rc == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["objective"] == pytest.approx(2.0, abs=1e-6)
        assert diag["lambda"] == 0.0
        assert diag["duality_gap"] == pytest.approx(0.0, abs=1e-6)
        z = np.loadtxt(out / "z.csv", delimiter=",")
        assert z.shape == (2, 2)
        assert (out / "manifest.json").exists()

    def test_penalty_derived_from_sparsity(self, tmp_path, matrix_csv):
        out = tmp_path / "run"
        rc = main(["sdp-solve", "--matrix", str(matrix_csv), "--s", "1", "--out", str(out)])
        assert rc == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["lambda"] == pytest.approx(1.0)

    def test_needs_lambda_or_s(self, tmp_path, matrix_csv, capsys):
        rc = main(["sdp-solve", "--matrix", str(matrix_csv), "--out", str(tmp_path)])
        assert rc == 1
        assert "--lambda" in capsys.readouterr().err


    def test_non_finite_matrix_exits_two(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("1,nan\nnan,1\n")
        rc = main(["sdp-solve", "--matrix", str(path), "--lambda", "0.1", "--out", str(tmp_path)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n"], ids=["empty", "blank-line"])
    def test_matrix_file_without_data_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "a.csv"
        path.write_text(text)
        rc = main(["sdp-solve", "--matrix", str(path), "--lambda", "0.1",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert f"{path}: file holds no matrix" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        ("text", "code", "message"),
        [("1,2\n\n3,nan\n", 2, "non-finite entry nan at row 3, column 2"),
         ("1,2\n\n3,4,5\n", 1, "columns changed from 2 to 3 at row 3"),
         ("1,2\n3,4,5\n6,x\n", 1, "columns changed from 2 to 3 at row 2")],
        ids=["non-finite", "width", "width-before-a-later-cell"],
    )
    def test_matrix_fault_cites_the_file_row(self, tmp_path, capsys, text, code, message):
        path = tmp_path / "a.csv"
        path.write_text(text)
        rc = main(["sdp-solve", "--matrix", str(path), "--lambda", "0.1",
                   "--out", str(tmp_path / "run")])
        assert rc == code
        assert capsys.readouterr().err.rstrip("\n").endswith(message)

    def test_hash_in_a_cell_exits_one(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("1,2#junk\n3,4\n")
        rc = main(["sdp-solve", "--matrix", str(path), "--lambda", "0.1", "--out", str(tmp_path)])
        assert rc == 1
        assert "2#junk" in capsys.readouterr().err


class TestConfigFile:
    def test_ini_supplies_options(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\np = 6\ns = 2\nn = 40\nseed = 9\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(ini), "--out", str(out)])
        assert rc == 0
        assert len(_lines(out / "dataset.csv")) == 41
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 40
        assert manifest["config_path"] == str(ini)

    def test_flags_override_ini(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\np = 6\ns = 2\nn = 40\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(ini), "--n", "20", "--out", str(out)])
        assert rc == 0
        assert len(_lines(out / "dataset.csv")) == 21

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--config", str(tmp_path / "nope.ini"),
                "--p", "4", "--s", "1", "--n", "10",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["curve", "recover"])
    def test_ini_sets_slice_count(self, tmp_path, command):
        _matrix_and_data(tmp_path)
        section = {
            "curve": "p = 8\nsparsity = 2\ngamma-grid = 8\nreps = 2\n",
            "recover": f"data = {tmp_path / 'data.csv'}\ns = 1\n",
        }[command]
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{command}]\nH = 3\n{section}")
        out = tmp_path / "run"
        assert main([command, "--config", str(ini), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["H"] == 3

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[curve]\np = 8\ngama = 9\ngamma-grid = 8\n")
        rc = main(["curve", "--config", str(ini), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'gama'" in err and "[curve]" in err
        assert not (tmp_path / "run").exists()

    def test_default_keys_a_command_lacks_are_ignored(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[DEFAULT]\np = 8\nseed = 4\n[diagnose]\nh-grid = 2,4\nmc-n = 4000\n")
        out = tmp_path / "run"
        assert main(["diagnose", "--config", str(ini), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 4

    def test_bad_ini_value_names_the_flag(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\np = abc\ns = 1\nn = 10\n")
        assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == 1
        assert "--p" in capsys.readouterr().err


def _matrix_and_data(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    y = x[:, 0] + 0.1 * rng.standard_normal(40)
    rows = "".join(",".join(repr(float(v)) for v in (y[i], *x[i])) + "\n" for i in range(40))
    (tmp_path / "data.csv").write_text("y,a,b,c\n" + rows)
    emit_matrix_csv(np.diag([2.0, 1.0]), tmp_path / "a.csv")
    emit_matrix_csv(np.zeros((0, 0)), tmp_path / "empty.csv")


# Each command's flags and the manifest ``config`` they gave before the
# INI reader moved onto argparse defaults; the INI form must give the same.
PINNED_MANIFESTS = {
    "simulate": (
        ["--p", "6", "--s", "2", "--n", "30", "--seed", "3", "--model", "atan2",
         "--noise-sd", "0.5", "--beta-scheme", "random_uniform"],
        {"beta_scheme": "random_uniform", "model": "atan2", "n": 30, "noise_sd": 0.5,
         "out": "run", "p": 6, "s": 2, "seed": 3},
    ),
    "curve": (
        ["--p", "8", "--sparsity", "2", "--method", "dt-sir", "--mode", "raw", "--H", "4",
         "--gamma-grid", "2,8", "--reps", "3", "--seed", "5", "--lambda", "0.5",
         "--noise-sd", "0.5"],
        {"H": 4, "beta_scheme": "fixed", "gamma_grid": [2.0, 8.0], "lambda": 0.5,
         "method": "dt_sir", "mode": "raw", "model": "linear", "noise_sd": 0.5, "out": "run",
         "p": 8, "reps": 3, "seed": 5, "sparsity": 2, "workers": 1},
    ),
    "diagnose": (
        ["--model", "sinh", "--h-grid", "2,4", "--mc-n", "4000", "--seed", "1"],
        {"h_grid": [2, 4], "mc_n": 4000, "model": "sinh", "noise_sd": 1.0, "out": "run",
         "seed": 1},
    ),
    "recover": (
        ["--data", "data.csv", "--s", "1", "--H", "4", "--method", "sdp", "--y-column", "y",
         "--seed", "2"],
        {"H": 4, "data": "data.csv", "method": "sdp", "out": "run", "s": 1, "seed": 2,
         "y_column": "y"},
    ),
    "sdp-solve": (
        ["--matrix", "a.csv", "--lambda", "0.1", "--tol", "1e-6", "--max-iter", "500"],
        {"lambda": 0.1, "matrix": "a.csv", "max_iter": 500, "out": "run", "s": None,
         "tol": 1e-06},
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_MANIFESTS))
def test_manifest_config_from_flags_and_ini(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    _matrix_and_data(tmp_path)
    argv, expected = PINNED_MANIFESTS[command]
    assert main([command, *argv, "--out", "run"]) == 0
    flags = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert flags["config"] == expected
    assert flags["seed"] == expected.get("seed")

    pairs = zip(argv[::2], argv[1::2])
    section = "".join(f"{flag[2:]} = {value}\n" for flag, value in pairs)
    (tmp_path / "run.ini").write_text(f"[{command}]\n{section}out = run\n")
    shutil.move(tmp_path / "run", tmp_path / "flags")
    assert main([command, "--config", "run.ini"]) == 0
    ini = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert ini["config"] == expected
    assert ini["config_path"] == "run.ini"
    artifacts = sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert artifacts == sorted(p.name for p in (tmp_path / "run").iterdir())
    for name in set(artifacts) - {"manifest.json"}:
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def _overflowing_csv() -> str:
    """A well-formed dataset whose sample covariance overflows: x2 is scaled by 1e200."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 5))
    x[:, 1] *= 1e200
    rows = np.column_stack((x[:, 0] + rng.standard_normal(200), x)).tolist()
    return "y,x1,x2,x3,x4,x5\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


class TestErrorHandling:
    def test_missing_required_option(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path)])
        assert rc == 1
        assert "--p" in capsys.readouterr().err

    def test_bad_value(self, tmp_path, capsys):
        rc = main(["simulate", "--p", "abc", "--s", "1", "--n", "10", "--out", str(tmp_path)])
        assert rc == 1
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--p", "4", "--s", "1", "--n", "10"],
            ["curve", "--p", "8", "--sparsity", "2", "--gamma-grid", "8", "--reps", "1"],
            ["diagnose", "--h-grid", "2", "--mc-n", "2000"],
            ["recover", "--data", "data.csv", "--s", "1", "--H", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        _matrix_and_data(tmp_path)
        rc = main([*argv, "--seed", "-1", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("grid", ["nan", "1,inf"])
    def test_non_finite_gamma_exits_one(self, tmp_path, capsys, grid):
        rc = main(["curve", "--p", "8", "--gamma-grid", grid, "--out", str(tmp_path)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--p", "5", "--s", "2", "--n", "10"],
            ["curve", "--p", "8", "--sparsity", "2", "--gamma-grid", "8", "--reps", "1"],
            ["diagnose", "--h-grid", "2", "--mc-n", "2000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_infinite_noise_exits_one(self, tmp_path, capsys, argv):
        rc = main([*argv, "--noise-sd", "inf", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "noise_sd must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["recover", "--data", str(tmp_path / "nope.csv"), "--s", "1"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--p", "8", "--sparsity", "2", "--gamma-grid", "8", "--reps", "1",
             "--workers", "0"],
            ["recover", "--data", "nope.csv", "--s", "1"],
            ["recover", "--data", "data.csv", "--s", "9"],
            ["sdp-solve", "--matrix", "nope.csv", "--lambda", "0.1"],
            ["sdp-solve", "--matrix", "a.csv"],
            ["diagnose", "--h-grid", "1", "--mc-n", "2000"],
            ["simulate", "--p", "3", "--s", "5", "--n", "10"],
            ["sdp-solve", "--matrix", "a.csv", "--lambda", "0.1", "--tol", "inf"],
            ["curve", "--p", "8", "--sparsity", "2", "--gamma-grid", "8", "--reps", "1",
             "--lambda", "inf"],
            ["sdp-solve", "--matrix", "empty.csv", "--lambda", "0.1"],
            ["curve", "--p", "8", "--sparsity", "2", "--gamma-grid", "8", "--reps", "1",
             "--mode", "whitened"],
            ["recover", "--data", ".", "--s", "1"],
            ["sdp-solve", "--matrix", ".", "--lambda", "0.1"],
            ["recover", "--config", "."],
            ["curve", "--p", "20", "--sparsity", "2", "--gamma-grid", "1e308", "--reps", "1"],
        ],
        ids=["curve-workers", "recover-missing", "recover-s", "sdp-solve-missing",
             "sdp-solve-no-lambda", "diagnose-h", "simulate-s", "sdp-solve-tol", "curve-lambda",
             "sdp-solve-empty", "curve-whitened", "recover-data-dir", "sdp-solve-matrix-dir",
             "recover-config-dir", "curve-gamma-overflow"],
    )
    def test_rejected_input_leaves_no_output_folder(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        _matrix_and_data(tmp_path)
        rc = main([*argv, "--out", "run"])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("keep\n")
        rc = main(["simulate", "--p", "5", "--s", "2", "--n", "20", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "File exists" in err[0]
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize(
        ("name", "text", "argv"),
        [
            ("fat.csv", "y,a,b,c,d\n1,2,3,4,5\n6,7,8,9,10\n3,1,4,1,5\n",
             ["recover", "--data", "fat.csv", "--s", "1"]),
            ("flat.csv", "y,a,b\n" + "".join(f"{i % 5},{i * i % 7},1\n" for i in range(12)),
             ["recover", "--data", "flat.csv", "--s", "1", "--H", "2"]),
            ("nan.csv", "1,nan\nnan,1\n", ["sdp-solve", "--matrix", "nan.csv", "--lambda", "0.1"]),
            ("big.csv", _overflowing_csv(),
             ["recover", "--data", "big.csv", "--s", "2", "--method", "dt"]),
            ("big.csv", _overflowing_csv(),
             ["recover", "--data", "big.csv", "--s", "2", "--method", "sdp"]),
        ],
        ids=["recover-fat", "recover-constant-column", "sdp-solve-nan", "recover-dt-overflow",
             "recover-sdp-overflow"],
    )
    @pytest.mark.filterwarnings("error")  # a warning would print package source on stderr
    def test_numerical_failure_leaves_no_output_folder(
        self, tmp_path, monkeypatch, capsys, name, text, argv
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        rc = main([*argv, "--out", "run"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert not (tmp_path / "run").exists()

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--nope"])
        assert exc.value.code == 1

    def test_no_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this source tree."""
    src = Path(sirsupport.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )


class TestImportCost:
    """The package depends on numpy only, so importing it must not load scipy."""

    @staticmethod
    def _loads_scipy(module: str) -> str:
        proc = _python(f"import sys, {module}; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_imports_without_scipy(self):
        assert self._loads_scipy("sirsupport.cli") == "False"

    def test_package_imports_without_scipy(self):
        assert self._loads_scipy("sirsupport") == "False"

    def test_package_import_loads_no_numpy(self):
        proc = _python("import sys, sirsupport; print('numpy' in sys.modules)")
        assert proc.stdout.strip() == "False", proc.stderr

    def test_every_export_is_its_defining_modules_object(self):
        for name, module_name in sirsupport._MODULE_OF.items():
            module = importlib.import_module(f"sirsupport.{module_name}")
            value = getattr(sirsupport, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from sirsupport import *", namespace)
        assert set(sirsupport.__all__) <= set(namespace)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            sirsupport.nope  # noqa: B018


# Each argv is answered by the console front end alone: (argv, exit code, start of stdout).
NUMPY_FREE = [
    (["--version"], 0, f"sirsupport {__version__}\n"),
    (["--help"], 0, "usage: sirsupport [-h] [--version]"),
    (["curve", "--help"], 0, "usage: sirsupport curve [-h]"),
    (["simulate", "--bogus"], 1, ""),
    (["curve", "--bogus"], 1, ""),
]


class TestConsoleFrontEnd:
    PROBE = (
        "import sys\n"
        "from sirsupport.console import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print('numpy' in sys.modules, code, file=sys.stderr)\n"
    )

    @pytest.mark.parametrize(("argv", "code", "stdout"), NUMPY_FREE,
                             ids=[" ".join(a) for a, _, _ in NUMPY_FREE])
    def test_answers_without_numpy(self, argv, code, stdout):
        proc = _python(self.PROBE, *argv)
        assert proc.stderr.splitlines()[-1] == f"False {code}"
        assert proc.stdout.startswith(stdout)

    def test_unknown_flag_is_named(self):
        proc = _python(self.PROBE, "simulate", "--bogus")
        assert proc.stdout == ""
        assert "sirsupport: error: unrecognized arguments: --bogus" in proc.stderr

    def test_cli_reexports_main(self):
        from sirsupport import cli, console

        assert cli.main is console.main


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def console_script(tmp_path, monkeypatch):
    """Make a ``sirsupport`` executable reachable on ``PATH``.

    An installed script is used as it is. Without one (a run with only
    ``PYTHONPATH=src``), the wrapper pip would generate from
    ``[project.scripts]`` is written to ``tmp_path`` and put first on
    ``PATH``, so the declared entry point is still what runs.
    """
    if shutil.which("sirsupport") is not None:
        return
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sirsupport"]
    module, func = target.split(":")
    script = tmp_path / "sirsupport"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path), prepend=os.pathsep)


class TestInstalledEntryPoint:
    def test_subprocess_smoke(self, tmp_path):
        run = subprocess.run(
            [
                sys.executable, "-m", "sirsupport.cli",
                "simulate", "--p", "4", "--s", "1", "--n", "10", "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0
        assert (tmp_path / "dataset.csv").exists()

    def test_console_script_version(self, console_script):
        run = subprocess.run(
            ["sirsupport", "--version"], capture_output=True, text=True
        )
        assert run.returncode == 0
        assert __version__ in run.stdout
