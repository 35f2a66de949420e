"""Slice-mean moment matrices.

Sorting a sample by its response and averaging the design within
equal-size slices turns the inverse regression curve E[X | Y] into a
small set of slice means; their average outer product concentrates on
the direction the response actually depends on.  This module computes
that matrix in three estimator modes:

- ``raw``: average outer product of the slice means,
- ``centered``: same after subtracting the grand mean of the slice means,
- ``whitened``: the centered matrix conjugated by the inverse square
  root of the sample covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalError,
    RankDeficientError,
    _check_int,
)
from .models import Dataset

__all__ = [
    "MODES",
    "SlicedSample",
    "SirMatrix",
    "slice_data",
    "sir_matrix",
    "inv_sqrt_sym",
    "sir_matrix_whitened",
    "as_matrix",
]

_SLICE_MODES = ("raw", "centered")  # sir_matrix's modes, and the modes of an efficiency curve
MODES = (*_SLICE_MODES, "whitened")

# Design cells (rows x columns) gathered per group when averaging slices:
# 256 rows at p = 100, never less than one slice.  Sized in cells, not
# rows, so a one-column design is not averaged in thousands of tiny groups.
_GATHER_CELLS = 256 * 100


@lru_cache(maxsize=8)
def _upper_mask(p: int) -> np.ndarray:
    """Read-only p x p mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((p, p), dtype=bool))
    mask.setflags(write=False)
    return mask


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy: mirror the upper triangle onto the lower.

    Bit for bit ``np.triu(m) + np.triu(m, 1).T``: every entry is an
    upper-triangle entry plus 0.0, which turns -0.0 into +0.0.
    """
    return np.where(_upper_mask(m.shape[0]), m, m.T) + 0.0


def _eigh(m: np.ndarray):
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def as_matrix(v, name: str = "matrix") -> np.ndarray:
    """The one gate for a matrix entering an estimator.

    A SirMatrix passes through unchanged: its constructor already took
    its matrix through this gate.  Any other array must be square and
    nonempty (else ``InvalidArgumentError``), finite (else
    ``NumericalError``) and symmetric up to rounding, max|a - a'| <=
    1e-10 * max(1, max|a|) (else ``InvalidArgumentError``); its exact
    mirror is returned.  ``SirMatrix`` and ``SdpSolution`` store their
    matrices through it too.  ``name`` is the argument the messages blame.
    """
    if isinstance(v, SirMatrix):
        return v.v
    a = np.asarray(v, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"{name} must be a square matrix")
    if a.size == 0:
        raise InvalidArgumentError(f"{name} must be nonempty")
    if not np.isfinite(a).all():
        raise NumericalError(f"{name} has non-finite entries (NaN or infinity)")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise InvalidArgumentError(f"{name} must be symmetric")
    return _mirror_upper(a)


@dataclass(frozen=True)
class SlicedSample:
    """A dataset sorted by response and cut into h slices of m rows each.

    ``order`` holds the original row indices actually used, in sorted
    order, so row k of slice h is ``x[order[h * m + k]]``.  ``dropped``
    counts the rows discarded (uniformly at random) to make n divisible
    by h.
    """

    h: int
    m: int
    slice_means: np.ndarray
    dropped: int
    order: np.ndarray


@dataclass(frozen=True)
class SirMatrix:
    """A finite, exactly symmetric p x p slice-mean moment matrix.

    ``v`` is stored as ``as_matrix(v, "v")`` returns it: a matrix
    symmetric up to rounding is kept as its exact mirror.
    """

    v: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidArgumentError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "v", as_matrix(self.v, "v"))

    @property
    def p(self) -> int:
        return int(self.v.shape[0])


def slice_data(data: Dataset, h: int, seed: int = 0) -> SlicedSample:
    """Sort rows by y (stably, ties by original index) and cut into h slices.

    With m = floor(n / h), the n - h*m surplus rows are discarded at
    positions chosen uniformly at random from the sorted sequence using
    ``seed``, and the remaining rows are cut into h consecutive slices
    of m rows each.

    The slice means are averaged straight from ``data.x`` through the
    sorted indices, a group of whole slices (about 200 KB of rows) at a
    time, so no sorted n x p copy of the design is ever built; the extra
    memory is one group, or one slice when that is larger, plus the h x p
    means.  Each group is reduced as ``.mean(axis=1)`` reduces the
    whole, so the means are bit-identical to averaging the sorted copy.

    Requires h >= 2 and n >= 2h.
    """
    h, seed = _check_int(h, "h", 2), _check_int(seed, "seed", 0)
    n = data.n
    if n < 2 * h:
        raise InvalidArgumentError(f"need n >= 2h to slice, got n={n}, h={h}")
    order = np.argsort(data.y, kind="stable")
    m = n // h
    dropped = n - h * m
    if dropped:
        rng = np.random.default_rng(seed)
        drop_pos = rng.choice(n, size=dropped, replace=False)
        keep = np.ones(n, dtype=bool)
        keep[drop_pos] = False
        order = order[keep]
    p = data.p
    group = max(1, _GATHER_CELLS // (m * max(p, 1)))
    means = np.empty((h, p))
    for lo in range(0, h, group):
        hi = min(lo + group, h)
        # one expression, so each group's rows are freed before the next is gathered
        np.add.reduce(data.x[order[lo * m : hi * m]].reshape(hi - lo, m, p), axis=1, out=means[lo:hi])
    means /= m
    return SlicedSample(h=h, m=int(m), slice_means=means, dropped=int(dropped), order=order)


def sir_matrix(sliced: SlicedSample, mode: str = "centered") -> SirMatrix:
    """Average outer product of the slice means, optionally centered.

    ``raw`` returns (1/h) * sum_h mean_h mean_h'; ``centered`` subtracts
    the grand mean of the slice means first.  ``SirMatrix`` stores the
    exact mirror; the result is positive semidefinite by construction.
    """
    if mode not in _SLICE_MODES:
        raise InvalidArgumentError(
            f"mode must be one of {_SLICE_MODES} here, got {mode!r}; "
            "use sir_matrix_whitened for the whitened estimator"
        )
    means = sliced.slice_means
    if mode == "centered":
        means = means - means.mean(axis=0)
    return SirMatrix(v=means.T @ means / sliced.h, mode=mode)


def inv_sqrt_sym(sigma) -> np.ndarray:
    """Inverse symmetric square root Q diag(w^-1/2) Q' of a positive definite matrix.

    Any eigenvalue below 1e-10 times the largest raises
    ``NotPositiveDefiniteError`` naming the offending eigenvalue.
    """
    w, q = _eigh(as_matrix(sigma, "sigma"))
    floor = 1e-10 * float(w[-1])
    if w[0] < floor or floor <= 0:
        raise NotPositiveDefiniteError(eigenvalue=float(w[0]), floor=floor)
    return _mirror_upper((q * w**-0.5) @ q.T)


def sir_matrix_whitened(data: Dataset, h: int, seed: int = 0) -> SirMatrix:
    """Centered slice-mean matrix conjugated by the inverse root of the sample covariance.

    The covariance is the maximum-likelihood estimate (1/n) sum_i
    (x_i - xbar)(x_i - xbar)'.  Requires n > p; otherwise the covariance
    is singular and a ``RankDeficientError`` is raised.
    """
    n, p = data.n, data.p
    if n <= p:
        raise RankDeficientError(
            f"sample covariance is rank deficient with n={n} <= p={p}; "
            "whitening needs n > p"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # inv_sqrt_sym reports non-finite sigma
        xc = data.x - data.x.mean(axis=0)
        sigma = xc.T @ xc / n  # inv_sqrt_sym mirrors it exactly
    del xc  # free the centred n x p copy before slicing
    w = inv_sqrt_sym(sigma)
    centered = sir_matrix(slice_data(data, h, seed), mode="centered").v
    return SirMatrix(v=w @ centered @ w, mode="whitened")
