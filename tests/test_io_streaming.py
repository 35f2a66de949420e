"""Block-streamed CSV emit and ingest: same bytes and rules, bounded memory."""

import csv
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sirsupport import dataio
from sirsupport.dataio import _format_rows, emit_dataset_csv, emit_matrix_csv, ingest_csv
from sirsupport.errors import IngestError
from sirsupport.models import Dataset


def _reference_cell_is_missing(cell):
    text = cell.strip()
    if text.lower() in ("", "na"):
        return True
    try:
        return math.isnan(float(text))
    except ValueError:
        return False


def _reference_ingest(path, y_column):
    """The row-by-row ``csv.reader`` + ``float`` ingest that the block reader must match."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: file is empty, expected a header row") from None
        header = [name.strip() for name in header]
        if y_column not in header:
            raise IngestError(
                f"{path}: response column {y_column!r} not found; columns are {header}"
            )
        y_idx = header.index(y_column)
        rows, line_nos, dropped = [], [], 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                )
            try:
                rows.append(list(map(float, row)))
            except ValueError:
                if not any(_reference_cell_is_missing(cell) for cell in row):
                    for j, cell in enumerate(row):
                        try:
                            float(cell)
                        except ValueError:
                            raise IngestError(
                                f"{path}: non-numeric value {cell.strip()!r} at row {line_no}, "
                                f"column {header[j]!r}"
                            ) from None
                dropped += 1
                continue
            line_nos.append(line_no)
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    complete = ~np.isnan(table).any(axis=1)
    dropped += int(table.shape[0] - complete.sum())
    table = table[complete]
    infinite = np.argwhere(np.isinf(table))
    if infinite.size:
        i, j = infinite[0]
        line_no = np.asarray(line_nos)[complete][i]
        raise IngestError(
            f"{path}: infinite value {float(table[i, j])} at row {line_no}, "
            f"column {header[j]!r}"
        )
    if table.shape[0] < 2:
        raise IngestError(
            f"{path}: only {table.shape[0]} complete rows after dropping {dropped}; need at least 2"
        )
    mask = np.ones(len(header), dtype=bool)
    mask[y_idx] = False
    return table[:, mask], table[:, y_idx], dropped


ODD_CELLS = [
    " 1.5 ", "\t-2\t", " 7 ", "1_000", "٣", "0x1p3", "infinity", "-nan",
    "1e400", "-inf", "2#c", '"1.5"', '"1\n2"', "", "NA", " na ", "nan", "oops",
]
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(ODD_CELLS),
)


@st.composite
def csv_texts(draw):
    """A headed CSV of float rows with odd rows placed near block boundaries."""
    width = draw(st.integers(1, 3))
    block = draw(st.sampled_from([1, 2, 3, 5, dataio._BLOCK_ROWS]))
    n_rows = draw(st.integers(0, 2 * block + 3))
    lines = [",".join(repr(i + j / 8) for j in range(width)) for i in range(n_rows)]
    boundaries = [b * block + d for b in (1, 2) for d in (-1, 0, 1)]
    odd_row = st.one_of(
        st.lists(CELLS, min_size=width, max_size=width).map(",".join),
        st.lists(CELLS, min_size=width + 1, max_size=width + 1).map(",".join),
        st.sampled_from(["", " "]),
    )
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.sampled_from(boundaries) | st.integers(0, n_rows))
        lines.insert(min(max(pos, 0), len(lines)), draw(odd_row))
    header = ",".join(["y"] + [f"a{j}" for j in range(width - 1)])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([header] + lines) + draw(st.sampled_from([eol, ""]))
    return block, text


def _outcome(read, path):
    try:
        x, y, dropped = read(path)
    except Exception as exc:  # the error must match too, whatever it is
        return type(exc), str(exc)
    return x.shape, x.tobytes(), y.tobytes(), dropped


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_texts())
@example(case=(dataio._BLOCK_ROWS, "y,a\n1,2\n\n3,inf\n4,5\n"))
@example(case=(2, 'y,a\n1,2\n3,"4\n5"\n6,7\n'))
def test_ingest_matches_row_by_row_reference(tmp_path, case):
    block, text = case
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())

    def streamed(p):
        table = ingest_csv(p, "y")
        return table.x, table.y, table.n_dropped

    with mock.patch.object(dataio, "_BLOCK_ROWS", block):
        got = _outcome(streamed, path)
    assert got == _outcome(lambda p: _reference_ingest(p, "y"), path)


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
def test_dataset_bytes_equal_one_shot_format(tmp_path, blocks, extra):
    n = blocks * dataio._BLOCK_ROWS + extra
    rng = np.random.default_rng(n)
    data = Dataset(x=rng.standard_normal((n, 3)), y=rng.standard_normal(n))
    path = tmp_path / "d.csv"
    emit_dataset_csv(data, path)
    lines = ["y,x1,x2,x3"] + _format_rows(np.column_stack((data.y, data.x)))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    emit_matrix_csv(data.x, path)
    assert path.read_bytes() == ("\n".join(_format_rows(data.x)) + "\n").encode()


def test_streamed_csv_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.standard_normal((5000, 100)), y=rng.standard_normal(5000))
    path = tmp_path / "d.csv"
    tracemalloc.start()
    try:
        emit_dataset_csv(data, path)
        emit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = ingest_csv(path, "y")
        ingest_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = table.x.nbytes + table.y.nbytes
    assert emit_peak <= 1.5 * data.x.nbytes, emit_peak / data.x.nbytes
    assert ingest_peak <= 3 * table_bytes, ingest_peak / table_bytes
    assert table.x.tobytes() == data.x.tobytes() and table.y.tobytes() == data.y.tobytes()
