"""Slice means are bit-identical to averaging the sorted design in one shot.

``slice_data`` averages slices through the sorted row indices a group at
a time.  The reference below builds the whole sorted n x p copy and
calls ``.mean(axis=1)``; every case compares the raw bytes.  The group
size is patched to 1, 2 and 3 design cells (one slice per group) and to
2000 cells (several slices per group, some with a short last group), and
kept at its real value.  The cases cover slice sizes at the edges of
numpy's pairwise-summation blocks (127, 128, 129 and >= 1000 rows),
p = 1, n not divisible by h, and Fortran-ordered, strided and reversed
designs.
"""

import numpy as np
import pytest

from sirsupport import sir
from sirsupport.models import Dataset

GROUP_CELLS = [1, 2, 3, 2000, None]  # None keeps the module's own value


def _reference(x, order, h, m):
    return x[order].reshape(h, m, x.shape[1]).mean(axis=1)


def _check(x, y, h, group_cells, monkeypatch, seed=0):
    if group_cells is not None:
        monkeypatch.setattr(sir, "_GATHER_CELLS", group_cells, raising=False)
    sliced = sir.slice_data(Dataset(x, y), h, seed)
    expected = _reference(x, sliced.order, sliced.h, sliced.m)
    assert sliced.slice_means.shape == expected.shape
    assert sliced.slice_means.dtype == expected.dtype
    assert sliced.slice_means.tobytes() == expected.tobytes()
    return sliced


def _draw(n, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * rng.uniform(0.1, 1e3, size=p)
    return x, rng.standard_normal(n)


@pytest.mark.parametrize("group_cells", GROUP_CELLS)
@pytest.mark.parametrize("m", [1, 127, 128, 129, 1000, 1031])
@pytest.mark.parametrize("p", [1, 3])
def test_slice_sizes(m, p, group_cells, monkeypatch):
    h = 2 if m == 1 else 3
    n = max(2 * h, h * m)
    x, y = _draw(n, p, seed=m * 10 + p)
    sliced = _check(x, y, h, group_cells, monkeypatch)
    assert sliced.m == (n // h)


@pytest.mark.parametrize("group_cells", GROUP_CELLS)
@pytest.mark.parametrize("n, h", [(103, 10), (1001, 7), (257, 2), (600, 25), (31, 15)])
def test_n_not_divisible_by_h(n, h, group_cells, monkeypatch):
    x, y = _draw(n, 4, seed=n + h)
    sliced = _check(x, y, h, group_cells, monkeypatch, seed=n)
    assert sliced.dropped == n % h


@pytest.mark.parametrize("group_cells", GROUP_CELLS)
@pytest.mark.parametrize("layout", ["fortran", "column_stride", "row_stride", "reversed"])
def test_non_contiguous_designs(layout, group_cells, monkeypatch):
    x, y = _draw(2 * 531, 14, seed=7)
    if layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "column_stride":
        x = x[:, ::2]
    elif layout == "row_stride":
        x, y = x[::2], y[::2]
    else:
        x, y = x[::-1, ::-1], y[::-1]
    assert not x.flags.c_contiguous
    _check(x, y, 9, group_cells, monkeypatch, seed=3)


@pytest.mark.parametrize("group_cells", GROUP_CELLS)
def test_ties_and_wide_design(group_cells, monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((400, 120))
    y = rng.integers(0, 5, size=400).astype(float)
    _check(x, y, 10, group_cells, monkeypatch)
