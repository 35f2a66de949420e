"""CSV ingestion, real-data recovery reports, and deterministic emitters.

Every CSV cell is written by one rule, ``_cell``: a float as its
``repr``, which round-trips IEEE doubles exactly, uses a decimal point
and never a thousands separator; a bool as true/false; None as an empty
cell.  Every JSON artifact is written by ``_write_json``.  Files are
written with "\\n" line endings so a rerun with the same inputs is
byte-identical.

Both ends of a dataset CSV work in blocks of ``_BLOCK_ROWS`` rows.  The
dataset and matrix emitters format and write one block at a time, so
writing holds the array plus one block of text.  ``ingest_csv`` parses
one block of lines at a time with numpy's C reader into float blocks,
so reading holds the parsed table plus one block of text; building the
returned arrays copies the table once more.  ``#`` has no special
meaning in any input: a cell ``2#c`` is non-numeric, not ``2``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dt import _top, dt_sir
from .errors import IngestError, InvalidArgumentError, NumericalError, _check_int, _first_non_utf8
from .models import Dataset
from .sdp import SdpConfig, _round, default_lambda, sdp_solve
from .sir import sir_matrix_whitened

if TYPE_CHECKING:
    from .curves import EfficiencyCurve, StabilityDiagnostic

__all__ = [
    "IngestedTable",
    "RecoveryRow",
    "RecoveryReport",
    "ingest_csv",
    "recover_real",
    "emit_curve_csv",
    "emit_dataset_csv",
    "emit_diagnostic_csv",
    "emit_recovery_csv",
    "emit_matrix_csv",
    "read_matrix_csv",
]

RECOVER_METHODS = ("dt", "sdp")

# Rows per block of a streamed dataset or matrix CSV, in both directions.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class IngestedTable:
    """A numeric table split into predictors and a response column.

    ``n_dropped`` counts the rows rejected because of missing values.
    """

    columns: tuple[str, ...]
    y_column: str
    x: np.ndarray
    y: np.ndarray
    n_dropped: int

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def p(self) -> int:
        return int(self.x.shape[1])


def _cell_is_missing(cell: str) -> bool:
    text = cell.strip()
    if text.lower() in ("", "na"):
        return True
    try:
        return math.isnan(float(text))
    except ValueError:
        return False


def _check_unconvertible_row(path, header: list[str], line_no: int, row: list[str]) -> None:
    """Cell-by-cell look at a row that failed to convert as a whole.

    Returns if the row has a missing cell (the caller drops it);
    otherwise raises for the first non-numeric cell.
    """
    if any(_cell_is_missing(cell) for cell in row):
        return
    for j, cell in enumerate(row):
        try:
            float(cell)
        except ValueError:
            raise IngestError(
                f"{path}: non-numeric value {cell.strip()!r} at row {line_no}, "
                f"column {header[j]!r}"
            ) from None


def _parse_block(lines: list[str], width: int):
    """Parse a block of lines with numpy's C reader, or return None.

    None unless every line gives one row of ``width`` numbers; a blank
    line or any cell the reader rejects sends the block cell by cell.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a block of blank lines holds no data
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    return block if block.shape == (len(lines), width) else None


def _parse_rows(path, header: list[str], line_no: int, lines: list[str], fh):
    """Convert a block of lines cell by cell with ``csv.reader`` and ``float``.

    The path for a block the C reader rejects.  ``line_no`` is the
    record number of the block's first line.  A quoted record still open
    at the end of the block reads its remaining lines from ``fh``.  A
    row with a missing cell comes back as all NaN, for ``ingest_csv`` to
    drop and count.  Returns the converted rows as an array, their record
    numbers and the next record number.
    """
    rows: list[list[float]] = []
    line_nos: list[int] = []
    reader = csv.reader(itertools.chain(lines, fh))
    for row in reader:
        if row:
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                )
            try:
                rows.append(list(map(float, row)))
            except ValueError:
                _check_unconvertible_row(path, header, line_no, row)
                rows.append([math.nan] * len(row))
            line_nos.append(line_no)
        line_no += 1
        if reader.line_num >= len(lines):
            break
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return table, np.array(line_nos, dtype=np.int64), line_no


def _read_blocks(path, y_column: str):
    """Read the header and the body blocks of a dataset CSV (see ``ingest_csv``).

    Returns the stripped header, the parsed float blocks and their record
    numbers.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise IngestError(f"{path}: file is empty, expected a header row")
        header = [name.strip() for name in header]
        if y_column not in header:
            raise IngestError(
                f"{path}: response column {y_column!r} not found; columns are {header}"
            )
        width = len(header)
        blocks = [np.empty((0, width))]
        block_line_nos = [np.empty(0, dtype=np.int64)]
        line_no = 2
        while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
            block = _parse_block(lines, width)
            if block is not None:
                nos = np.arange(line_no, line_no + len(lines))
                line_no += len(lines)
            else:
                block, nos, line_no = _parse_rows(path, header, line_no, lines, fh)
            blocks.append(block)
            block_line_nos.append(nos)
    return header, blocks, block_line_nos


def ingest_csv(path, y_column: str) -> IngestedTable:
    """Read a headed CSV of numbers, dropping rows with missing values.

    A cell is missing if it is empty, ``NA`` (any case) or parses to
    NaN (``nan``, ``NaN``, ``-nan``, ...).  Rows with a missing cell
    are dropped and counted rather than imputed.  In the remaining rows
    a non-numeric cell is an error, and so is a cell that parses to
    plus or minus infinity; both errors cite the file row number (the
    header is row 1, a blank line counts as a row) and the column name.
    Fewer than 2 complete rows is an error, and so is a byte that is not
    UTF-8 text, cited by its row.

    The body is read in blocks of ``_BLOCK_ROWS`` lines.  A block that
    numpy's C reader parses into one row of the header's width per line
    is taken as parsed; any other block (a missing, quoted, non-ASCII or
    otherwise unusual cell, a wrong-width row or a blank line) is
    converted cell by cell with ``float``, which decides every rule
    above.  Both paths give the same values, since every cell the C
    reader accepts converts to the same double under ``float``.
    """
    try:
        header, blocks, block_line_nos = _read_blocks(path, y_column)
    except UnicodeDecodeError:
        raise IngestError(_first_non_utf8(path)) from None
    y_idx = header.index(y_column)
    x_names = tuple(name for j, name in enumerate(header) if j != y_idx)
    table = np.concatenate(blocks)
    del blocks  # so the copies below never hold the table three times
    line_nos = np.concatenate(block_line_nos)
    complete = ~np.isnan(table).any(axis=1)
    dropped = int(table.shape[0] - complete.sum())
    table = table[complete]
    infinite = np.argwhere(np.isinf(table))
    if infinite.size:
        i, j = infinite[0]
        raise IngestError(
            f"{path}: infinite value {float(table[i, j])} at row {line_nos[complete][i]}, "
            f"column {header[j]!r}"
        )
    if table.shape[0] < 2:
        raise IngestError(
            f"{path}: only {table.shape[0]} complete rows after dropping {dropped}; need at least 2"
        )
    return IngestedTable(
        columns=x_names,
        y_column=y_column,
        x=np.delete(table, y_idx, axis=1),  # a C-ordered copy, so slicing gathers whole rows
        y=table[:, y_idx].copy(),  # a view would keep the whole table alive
        n_dropped=dropped,
    )


@dataclass(frozen=True)
class RecoveryRow:
    variable: str
    score: float
    rank: int
    selected: bool
    sign: int


@dataclass(frozen=True)
class RecoveryReport:
    method: str
    s: int
    h: int
    rows: tuple[RecoveryRow, ...]


def recover_real(table: IngestedTable, s: int, h: int = 10, method: str = "dt", seed: int = 0) -> RecoveryReport:
    """Rank all variables of an ingested table by a whitened slice-mean fit.

    Scores are the diagonal entries of the whitened matrix for "dt" and
    the principal-eigenvector magnitudes of the penalized solution for
    "sdp".  Rows are ranked and the top s selected by the rule of
    ``dt_sir`` (ties toward the earlier column).  A selected row's sign
    is ``dt_sir``'s for "dt" and its eigenvector entry's for "sdp", as
    ``sdp_sign_recover`` gives it; every other row's is 0.
    The whitened fit needs n > p and raises ``RankDeficientError`` otherwise.
    """
    if method not in RECOVER_METHODS:
        raise InvalidArgumentError(f"method must be one of {RECOVER_METHODS}, got {method!r}")
    p = table.p
    s = _check_int(s, "s", 1)
    if s > p:
        raise InvalidArgumentError(f"need 1 <= s <= p, got s={s}, p={p}")
    data = Dataset(x=table.x, y=table.y, seed_provenance={"source": "ingested"})
    v = sir_matrix_whitened(data, h, seed)
    if method == "dt":
        scores, signed = np.diag(v.v).copy(), dt_sir(v, s)
    else:
        scores, signed = _round(sdp_solve(v, SdpConfig(lam=default_lambda(v, s))), s)
    rows = []
    for rank_minus_one, j in enumerate(_top(scores, p)):
        rows.append(
            RecoveryRow(
                variable=table.columns[j],
                score=float(scores[j]),
                rank=rank_minus_one + 1,
                selected=rank_minus_one < s,
                sign=int(signed.signs[j]),
            )
        )
    return RecoveryReport(method=method, s=s, h=int(h), rows=tuple(rows))


CURVE_HEADER = "model,p,s,method,mode,H,gamma,n,reps,successes,success_rate,skipped"


def _write_lines(path, lines) -> str:
    """Write each string of ``lines`` followed by "\\n": every emitter's write path."""
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    return str(path)


def _cell(value) -> str:
    """One CSV cell: a float's ``repr``, true/false, empty for None, else ``str``."""
    if isinstance(value, bool):  # before the numbers: a bool is an int
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):  # float() first: numpy 2 writes repr(np.float64(x)) with its type
        return repr(float(value))
    return str(value)


def _emit_table(path, header: str, rows) -> str:
    """Write ``header``, then one comma-joined line of ``_cell``s per row."""
    return _write_lines(path, itertools.chain([header], (",".join(map(_cell, row)) for row in rows)))


def emit_curve_csv(curve: EfficiencyCurve, path) -> str:
    """Write one row per grid point, in gamma order, under a fixed header.

    Skipped points carry skipped=true with empty successes and
    success_rate.  Re-emitting the same curve is byte-identical.
    """
    cfg = curve.config
    head = (cfg.model.link, cfg.p, cfg.s, cfg.method, cfg.estimator_mode, cfg.h)
    return _emit_table(path, CURVE_HEADER, (
        (*head, pt.gamma, pt.n, pt.reps, pt.successes, pt.success_rate, pt.skipped)
        for pt in curve.points
    ))


def _format_rows(m: np.ndarray) -> list[str]:
    """One comma-joined line per row of a 2-d array: ``_cell``'s float rule on whole rows."""
    return [",".join(map(repr, row)) for row in np.asarray(m, dtype=float).tolist()]


def _row_blocks(*columns: np.ndarray):
    """The formatted lines of ``np.column_stack(columns)``, one block of rows at a time."""
    n = len(columns[0])
    for start in range(0, n, _BLOCK_ROWS):
        yield from _format_rows(np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns]))


def emit_dataset_csv(data: Dataset, path) -> str:
    """Write a dataset as y,x1,...,xp with exact float round-trip."""
    names = ["y"] + [f"x{j + 1}" for j in range(data.p)]
    return _write_lines(path, itertools.chain([",".join(names)], _row_blocks(data.y, data.x)))


def emit_diagnostic_csv(diag: StabilityDiagnostic, model_name: str, mc_n: int, path) -> str:
    """Write per-slice variances, one row per (H, slice)."""
    return _emit_table(path, "model,mc_n,H,slice,y_lo,y_hi,variance,sum_h,mean_decay", (
        (model_name, mc_n, h, k + 1, edges[k], edges[k + 1], variances[k], total, decay)
        for h, variances, edges, total, decay in zip(
            diag.h_grid, diag.per_slice_variances, diag.boundaries, diag.sums, diag.mean_decay
        )
        for k in range(h)
    ))


def emit_recovery_csv(report: RecoveryReport, path) -> str:
    return _emit_table(path, "variable,score,rank,selected,sign", (
        (row.variable, row.score, row.rank, row.selected, row.sign) for row in report.rows
    ))


def emit_matrix_csv(m: np.ndarray, path) -> str:
    m = np.asarray(m, dtype=float)
    # a matrix without rows is written as one empty line
    return _write_lines(path, _row_blocks(m) if len(m) else [""])


def _matrix_rows(path):
    """(file row from 1, floats) per matrix row; ``ValueError`` names the first parse fault."""
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        for row, line in enumerate(fh, start=1):
            cells = line.rstrip("\r\n").split(",")
            if cells == [""]:  # an empty line holds no row
                continue
            width = width or len(cells)
            if len(cells) != width:
                raise ValueError(f"the number of columns changed from {width} to {len(cells)} at row {row}")
            values = []
            for col, cell in enumerate(cells, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(f"non-numeric value {cell.strip()!r} at row {row}, column {col}") from None
            yield row, values


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless square numeric matrix, each line once.

    Cells convert with ``float``, as in ``ingest_csv``.  A row whose width
    differs from the first, a cell ``float`` rejects (``2#c`` included), a
    byte that is not UTF-8 text or a file without a number (empty, or
    blank lines only, as a 0 x 0 matrix is written) raises ``IngestError``;
    otherwise a NaN or infinite entry raises ``NumericalError``.  Each
    message cites the file row counted from 1, empty lines included.
    """
    try:
        parsed = list(_matrix_rows(path))
    except UnicodeDecodeError:  # before ValueError, its base class
        raise IngestError(_first_non_utf8(path)) from None
    except ValueError as exc:
        raise IngestError(f"{path}: could not parse a numeric matrix: {exc}") from None
    if not parsed:
        raise IngestError(f"{path}: file holds no matrix")
    m = np.array([values for _, values in parsed])
    if m.shape[0] != m.shape[1]:
        raise IngestError(f"{path}: matrix must be square, got shape {m.shape}")
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise NumericalError(f"{path}: non-finite entry {float(m[i, j])} at row {parsed[i][0]}, column {j + 1}")
    return m


def _write_json(payload: dict, path) -> str:
    """Every JSON artifact's write path: indented, keys sorted, NaN and infinity refused."""
    return _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)])

