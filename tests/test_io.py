import argparse
import functools
import json

import numpy as np
import pytest

import sirsupport.dataio
import sirsupport.dt
from sirsupport.cli import _write_outputs
from sirsupport.curves import CurveConfig, StabilityDiagnostic, run_curve, stability_diagnostic
from sirsupport.dataio import (
    CURVE_HEADER,
    IngestedTable,
    RecoveryRow,
    emit_curve_csv,
    emit_dataset_csv,
    emit_diagnostic_csv,
    emit_matrix_csv,
    emit_recovery_csv,
    ingest_csv,
    read_matrix_csv,
    recover_real,
)
from sirsupport.errors import (
    IngestError,
    InvalidArgumentError,
    NumericalError,
    RankDeficientError,
)
from sirsupport.models import Dataset, ModelSpec, generate_beta, sample_sim
from sirsupport.sdp import SdpConfig
from sirsupport.version import __version__


def _write(path, text):
    path.write_text(text)
    return path


class TestIngestCsv:
    def test_happy_path(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a,b\n1,2,3\n4,5,6\n")
        table = ingest_csv(path, "y")
        assert table.columns == ("a", "b")
        np.testing.assert_array_equal(table.y, [1.0, 4.0])
        np.testing.assert_array_equal(table.x, [[2.0, 3.0], [5.0, 6.0]])
        assert table.n == 2 and table.p == 2 and table.n_dropped == 0

    def test_returns_a_dataset(self, tmp_path):
        table = ingest_csv(_write(tmp_path / "t.csv", "y,a,b\n1,2,3\n4,5,6\n"), "y")
        assert issubclass(IngestedTable, Dataset)
        assert isinstance(table, Dataset)

    def test_response_column_anywhere(self, tmp_path):
        path = _write(tmp_path / "t.csv", "a,y,b\n2,1,3\n5,4,6\n")
        table = ingest_csv(path, "y")
        assert table.columns == ("a", "b")
        np.testing.assert_array_equal(table.y, [1.0, 4.0])
        np.testing.assert_array_equal(table.x, [[2.0, 3.0], [5.0, 6.0]])

    def test_header_whitespace_tolerated(self, tmp_path):
        path = _write(tmp_path / "t.csv", " y , a \n1,2\n3,4\n")
        assert ingest_csv(path, "y").columns == ("a",)

    def test_missing_cells_drop_rows(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a\n1,2\n,3\n4,nan\n5,NA\n6,7\n")
        table = ingest_csv(path, "y")
        assert table.n == 2 and table.n_dropped == 3
        np.testing.assert_array_equal(table.y, [1.0, 6.0])

    def test_non_numeric_cites_row_and_column(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a\n1,2\n3,oops\n")
        with pytest.raises(IngestError, match=r"row 3.*column 'a'"):
            ingest_csv(path, "y")

    def test_non_numeric_row_number_after_many_good_rows(self, tmp_path):
        good = "".join(f"{i},{i + 0.5}\n" for i in range(1000))
        path = _write(tmp_path / "t.csv", "y,a\n" + good + "7,x\n")
        with pytest.raises(IngestError, match=r"'x' at row 1002, column 'a'"):
            ingest_csv(path, "y")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", " +INF "])
    def test_infinite_cell_cites_row_and_column(self, tmp_path, cell):
        path = _write(tmp_path / "t.csv", f"y,a,b\n1,2,3\n,5,6\n4,{cell},6\n7,8,9\n")
        with pytest.raises(IngestError, match=r"infinite value .* row 4, column 'a'"):
            ingest_csv(path, "y")

    def test_nan_cells_drop_rows_whatever_the_spelling(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a\n1,2\n3,-nan\nNaN,4\n5, nan \n+nan,1\n6,7\n")
        table = ingest_csv(path, "y")
        assert table.n == 2 and table.n_dropped == 4
        np.testing.assert_array_equal(table.y, [1.0, 6.0])
        np.testing.assert_array_equal(table.x, [[2.0], [7.0]])

    def test_row_with_a_missing_cell_is_dropped_before_other_checks(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a,b\n1,2,3\n,oops,inf\nnan,inf,3\n4,5,6\n")
        table = ingest_csv(path, "y")
        assert table.n == 2 and table.n_dropped == 2

    def test_ragged_row_cites_row(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a\n1,2\n3\n")
        with pytest.raises(IngestError, match="row 3"):
            ingest_csv(path, "y")

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path / "t.csv", "")
        with pytest.raises(IngestError, match="empty"):
            ingest_csv(path, "y")

    def test_unknown_response_column(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a\n1,2\n3,4\n")
        with pytest.raises(IngestError, match="'z'"):
            ingest_csv(path, "z")

    def test_too_few_complete_rows(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a\n1,2\n,4\n")
        with pytest.raises(IngestError, match="at least 2"):
            ingest_csv(path, "y")

    @pytest.mark.parametrize(
        "raw, row, byte",
        [
            (b"y,a\n1,2\n3,\xff\n5,6\n", 3, "0xff"),
            (b"y,\xe9a\n1,2\n3,4\n", 1, "0xe9"),
            # a truncated two-byte sequence at the end of a long file
            (b"y,a\r\n" + b"1,2\r\n" * 600 + b"7,\xc3", 602, "0xc3"),
        ],
    )
    def test_non_utf8_byte_cites_row(self, tmp_path, raw, row, byte):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(IngestError, match=rf"t.csv: byte {byte} at row {row} is not UTF-8"):
            ingest_csv(path, "y")

    def test_utf8_text_is_read(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes("y,\u00e9a\n1,2\n3,4\n".encode("utf-8"))
        assert ingest_csv(path, "y").columns == ("\u00e9a",)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    model = ModelSpec(link="linear", noise_sd=0.5)
    beta = generate_beta(p=20, s=3, scheme="fixed", seed=0)
    data = sample_sim(model, beta, n=5000, seed=123)
    path = tmp_path_factory.mktemp("real") / "sim.csv"
    emit_dataset_csv(data, path)
    return ingest_csv(path, "y")


@pytest.fixture(scope="module")
def curve():
    cfg = CurveConfig(
        model=ModelSpec(link="linear", noise_sd=0.1),
        p=10,
        sparsity=2,
        gamma_grid=(0.1, 20.0),
        h=5,
        reps=3,
        master_seed=1,
    )
    return run_curve(cfg)


class TestIngestedTable:
    @pytest.mark.parametrize("columns", [("a",), ("a", "b", "c", "d"), ()])
    def test_rejects_a_column_count_other_than_p(self, columns):
        with pytest.raises(InvalidArgumentError, match=f"p=3 predictors, got {len(columns)} names"):
            IngestedTable(x=np.zeros((50, 3)), y=np.zeros(50), columns=columns, n_dropped=0)

    def test_runs_the_dataset_checks_first(self):
        with pytest.raises(InvalidArgumentError, match="one entry per row"):
            IngestedTable(x=np.zeros((50, 3)), y=np.zeros(49), columns=("a",), n_dropped=0)


class TestRecoverReal:
    @pytest.mark.parametrize("method", ["dt", "sdp"])
    def test_returns_a_tuple_of_rows_in_rank_order(self, table, method):
        rows = recover_real(table, s=3, method=method)
        assert type(rows) is tuple
        assert all(type(row) is RecoveryRow for row in rows)
        assert [row.rank for row in rows] == list(range(1, table.p + 1))
        assert sorted(row.variable for row in rows) == sorted(table.columns)

    def test_uncertified_sdp_solve_ranks_nothing(self, table, monkeypatch):
        monkeypatch.setattr(sirsupport.dataio, "SdpConfig", functools.partial(SdpConfig, max_iter=1))
        with pytest.raises(NumericalError, match=r"uncertified at iteration 1: duality gap \S+ > tolerance \S+"):
            recover_real(table, s=3, method="sdp")

    @pytest.mark.parametrize("method", ["dt", "sdp"])
    def test_planted_variables_rank_first(self, table, method):
        rows = recover_real(table, s=3, h=10, method=method, seed=0)
        top = [(r.variable, r.sign) for r in rows[:3]]
        assert top == [("x1", 1), ("x2", 1), ("x3", -1)]
        assert rows[3].sign == 0
        assert all(r.selected for r in rows[:3])
        assert not any(r.selected for r in rows[3:])

    @pytest.mark.parametrize("method", ["dt", "sdp"])
    def test_sign_is_nonzero_exactly_on_selected_rows(self, method):
        model = ModelSpec(link="atan2", noise_sd=1.0)
        beta = generate_beta(p=50, s=5, scheme="fixed", seed=0)
        columns = tuple(f"x{j + 1}" for j in range(50))
        for seed in range(12):
            data = sample_sim(model, beta, n=150, seed=seed)
            table = IngestedTable(columns=columns, x=data.x, y=data.y, n_dropped=0)
            for row in recover_real(table, s=5, method=method):
                assert (row.sign != 0) == (row.selected and row.score != 0), (seed, row)

    def test_sdp_decomposes_the_solution_once(self, table, monkeypatch):
        calls = []
        eigh = sirsupport.dt._eigh

        def counting_eigh(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(sirsupport.dt, "_eigh", counting_eigh)
        recover_real(table, s=3, method="sdp")
        assert calls == [(20, 20)]

    def test_ranks_are_a_permutation(self, table):
        rows = recover_real(table, s=3)
        assert sorted(r.rank for r in rows) == list(range(1, 21))
        scores = [r.score for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_rejects_fat_tables(self, tmp_path):
        lines = ["y," + ",".join(f"a{j}" for j in range(5))]
        for i in range(4):
            lines.append(",".join(str(float(i + j)) for j in range(6)))
        path = _write(tmp_path / "fat.csv", "\n".join(lines) + "\n")
        with pytest.raises(RankDeficientError):
            recover_real(ingest_csv(path, "y"), s=2, h=2)

    def test_rejects_bad_method_and_s(self, table):
        with pytest.raises(InvalidArgumentError):
            recover_real(table, s=3, method="ridge")
        with pytest.raises(InvalidArgumentError):
            recover_real(table, s=0)


class TestEmitCurveCsv:
    def test_golden_bytes(self, curve, tmp_path):
        path = tmp_path / "curve.csv"
        assert emit_curve_csv(curve, path) == str(path)
        expected = (
            CURVE_HEADER + "\n"
            "linear,10,2,dt_sir,centered,5,0.1,1,3,,,true\n"
            "linear,10,2,dt_sir,centered,5,20.0,84,3,3,1.0,false\n"
        )
        assert path.read_text() == expected

    def test_reemission_is_byte_identical(self, curve, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_curve_csv(curve, a)
        emit_curve_csv(curve, b)
        assert a.read_bytes() == b.read_bytes()


class TestDatasetCsvRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        model = ModelSpec(link="atan2", noise_sd=1.0)
        beta = generate_beta(p=3, s=2, scheme="random_uniform", seed=4)
        data = sample_sim(model, beta, n=7, seed=9)
        path = tmp_path / "sim.csv"
        emit_dataset_csv(data, path)
        assert path.read_text().splitlines()[0] == "y,x1,x2,x3"
        table = ingest_csv(path, "y")
        np.testing.assert_array_equal(table.x, data.x)
        np.testing.assert_array_equal(table.y, data.y)


    def test_bytes_match_per_cell_repr(self, tmp_path):
        specials = [-0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2, 1.0, -2.5, 1e-300,
                    1.7976931348623157e308, 123456789.123, 0.0001, 1e15 + 0.3]
        x = np.array(specials).reshape(3, 4)
        y = np.array([0.1 + 0.2, -0.0, 5e-324])
        data = Dataset(x=x, y=y)
        path = tmp_path / "sim.csv"
        emit_dataset_csv(data, path)
        expected = ["y,x1,x2,x3,x4"] + [
            ",".join([repr(float(y[i]))] + [repr(float(v)) for v in x[i]]) for i in range(3)
        ]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        table = ingest_csv(path, "y")
        assert table.x.tobytes() == x.tobytes()
        assert table.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("method", ["dt", "sdp"])
    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_changes_no_recovery(self, tmp_path, seed, method):
        model = ModelSpec(link="atan2", noise_sd=1.0)
        beta = generate_beta(p=50, s=5, scheme="fixed", seed=0)
        data = sample_sim(model, beta, n=400, seed=seed)
        path = tmp_path / "sim.csv"
        emit_dataset_csv(data, path)
        columns = tuple(f"x{j + 1}" for j in range(50))
        direct = IngestedTable(columns=columns, x=data.x, y=data.y, n_dropped=0)
        for name, table in (("ingested", ingest_csv(path, "y")), ("direct", direct)):
            emit_recovery_csv(recover_real(table, s=5, method=method), tmp_path / f"{name}.csv")
        assert (tmp_path / "ingested.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


class TestDiagnosticCsv:
    def test_layout(self, tmp_path):
        diag = stability_diagnostic(
            ModelSpec(link="linear", noise_sd=1.0), h_grid=(2,), mc_n=2000, seed=0
        )
        path = tmp_path / "diag.csv"
        emit_diagnostic_csv(diag, "linear", 2000, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,mc_n,H,slice,y_lo,y_hi,variance,sum_h,mean_decay"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "linear" and first[1] == "2000"
        assert first[2] == "2" and first[3] == "1"
        assert float(first[4]) <= float(first[5])

    def test_golden_bytes(self, tmp_path):
        # numpy float64 cells, as stability_diagnostic returns them, written as plain reprs
        diag = StabilityDiagnostic(
            h_grid=(2, 3),
            per_slice_variances=(np.array([0.1 + 0.2, 1e-300]), np.array([0.25, -0.0, 5e-324])),
            boundaries=(np.array([-2.5, 0.0, 1e16]), np.array([-2.5, -1.0 / 3.0, 1.0 / 3.0, 1e16])),
            sums=np.array([0.30000000000000004, 0.25]),
        )
        path = tmp_path / "diag.csv"
        assert emit_diagnostic_csv(diag, "sinh", 4000, path) == str(path)
        assert path.read_bytes() == (
            b"model,mc_n,H,slice,y_lo,y_hi,variance,sum_h,mean_decay\n"
            b"sinh,4000,2,1,-2.5,0.0,0.30000000000000004,0.30000000000000004,0.15000000000000002\n"
            b"sinh,4000,2,2,0.0,1e+16,1e-300,0.30000000000000004,0.15000000000000002\n"
            b"sinh,4000,3,1,-2.5,-0.3333333333333333,0.25,0.25,0.08333333333333333\n"
            b"sinh,4000,3,2,-0.3333333333333333,0.3333333333333333,-0.0,0.25,0.08333333333333333\n"
            b"sinh,4000,3,3,0.3333333333333333,1e+16,5e-324,0.25,0.08333333333333333\n"
        )


class TestRecoveryCsv:
    def test_layout(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,a,b\n" + "\n".join(
            f"{i},{i % 3},{(i * 7) % 5}" for i in range(12)
        ) + "\n")
        rows = recover_real(ingest_csv(path, "y"), s=1, h=2)
        out = tmp_path / "rec.csv"
        emit_recovery_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "variable,score,rank,selected,sign"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "1"

    def test_golden_bytes(self, tmp_path):
        rows = (
            RecoveryRow(variable="x2", score=np.float64(0.1 + 0.2), rank=1, selected=True, sign=-1),
            RecoveryRow(variable="a b", score=1e16, rank=2, selected=True, sign=1),
            RecoveryRow(variable="x1", score=-0.0, rank=3, selected=False, sign=0),
        )
        path = tmp_path / "rec.csv"
        assert emit_recovery_csv(rows, path) == str(path)
        assert path.read_bytes() == (
            b"variable,score,rank,selected,sign\n"
            b"x2,0.30000000000000004,1,true,-1\n"
            b"a b,1e+16,2,true,1\n"
            b"x1,-0.0,3,false,0\n"
        )


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        path = tmp_path / "m.csv"
        emit_matrix_csv(m, path)
        np.testing.assert_array_equal(read_matrix_csv(path), m)

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_matrix_csv(np.ones((2, 3)), path)
        with pytest.raises(IngestError, match="square"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, tmp_path, cell):
        path = _write(tmp_path / "m.csv", f"1,0\n0,{cell}\n")
        with pytest.raises(NumericalError, match="row 2, column 2"):
            read_matrix_csv(path)

    def test_rejects_garbage(self, tmp_path):
        path = _write(tmp_path / "m.csv", "1,2\nthree,4\n")
        with pytest.raises(IngestError):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        ("text", "row"), [("1,2\n3,x\n", 2), ("1,2\n\n3,x\n", 3), ("1_0,2\n\n\u0663,x\n", 3)]
    )
    def test_garbage_cites_the_file_row(self, tmp_path, text, row):
        path = _write(tmp_path / "m.csv", text)
        with pytest.raises(IngestError, match=f"'x' at row {row}, column 2"):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        ("text", "error", "message"),
        [("1,2\n\n3,nan\n", NumericalError, "non-finite entry nan at row 3, column 2"),
         ("1,2\n\n3,4,5\n", IngestError, "columns changed from 2 to 3 at row 3"),
         ("1,2\n3,4,5\n6,x\n", IngestError, "columns changed from 2 to 3 at row 2"),
         ("1,2\n\n1_0,nan\n", NumericalError, "non-finite entry nan at row 3, column 2"),
         (b"1,2\n\n3,\xff\n", IngestError, "byte 0xff at row 3 is not UTF-8 text")],
        ids=["non-finite", "width", "width-before-a-later-cell", "underscore-digits", "not-utf8"],
    )
    def test_every_fault_cites_the_file_row(self, tmp_path, text, error, message):
        path = tmp_path / "m.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(error, match=f"{message}$"):
            read_matrix_csv(path)

    def test_cells_convert_with_float(self, tmp_path):
        path = _write(tmp_path / "m.csv", "1_0, 2\n\n\u0663,+4e0\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[10.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text", ["1,2#junk\n3,4\n", "# a comment\n1,2\n3,4\n"])
    def test_hash_is_not_a_comment(self, tmp_path, text):
        path = _write(tmp_path / "m.csv", text)
        with pytest.raises(IngestError, match="#"):
            read_matrix_csv(path)


class TestManifest:
    def test_written_payload(self, tmp_path, capsys):
        args = argparse.Namespace(command="curve", config=None, seed=5, out=str(tmp_path), p=10,
                                  reps=3)
        _write_outputs(args, [])
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        assert payload["command"] == "curve"
        assert payload["config_path"] is None
        assert payload["seed"] == 5
        assert payload["version"] == __version__
        assert payload["config"] == {"seed": 5, "out": str(tmp_path), "p": 10, "reps": 3}
        assert set(payload) == {
            "command", "config_path", "output_dir", "seed", "version", "config",
        }
        assert path.read_text().endswith("\n")
        assert capsys.readouterr().out.splitlines() == [f"wrote {path}"]
