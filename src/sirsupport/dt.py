"""Diagonal thresholding estimators for signed support recovery.

The diagonal of a slice-mean moment matrix is large exactly on the
coordinates the index direction loads on, so the s largest diagonal
entries estimate the support.  The signs are then read off the
principal eigenvector of the selected submatrix.  Recovery is defined
up to a global sign flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .sir import _eigh, as_matrix

__all__ = ["SignedSupport", "dt_select", "dt_sir", "signed_support_match"]


@dataclass(frozen=True)
class SignedSupport:
    """An elementwise sign pattern in {-1, 0, +1}."""

    signs: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs)
        if signs.ndim != 1 or signs.size < 1:
            raise InvalidArgumentError("signs must be a nonempty 1-d array")
        if not ((signs == -1) | (signs == 0) | (signs == 1)).all():
            raise InvalidArgumentError("signs must take values in {-1, 0, +1}")
        signs = signs.astype(np.int8)
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)

    @property
    def p(self) -> int:
        return int(self.signs.size)

    @property
    def s_hat(self) -> int:
        return int(np.count_nonzero(self.signs))


def dt_select(v, s: int) -> np.ndarray:
    """Indices (0-based, sorted ascending) of the s largest diagonal entries.

    Ties are broken toward the lower index.  Accepts a SirMatrix or a
    plain square symmetric array.
    """
    m = as_matrix(v)
    p = m.shape[0]
    if not (isinstance(s, (int, np.integer)) and 1 <= s <= p):
        raise InvalidArgumentError(f"need 1 <= s <= p, got s={s}, p={p}")
    diag = np.diag(m)
    # stable sort on the negated diagonal keeps lower indices first on ties
    top = np.argsort(-diag, kind="stable")[:s]
    return np.sort(top)


def _oriented_principal_eigenvector(m: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue, largest-|entry| made positive."""
    _, q = _eigh(m)
    vec = q[:, -1]
    lead = int(np.argmax(np.abs(vec)))
    if vec[lead] < 0:
        vec = -vec
    return vec


def dt_sir(v, s: int) -> SignedSupport:
    """Signed support from the diagonal selection and the principal eigenvector.

    Selects the s largest-diagonal coordinates, takes the principal
    eigenvector of the s x s selected submatrix, orients it so its
    largest-magnitude entry is positive, and reports its elementwise
    signs on the selected coordinates (0 elsewhere).  An exactly-zero
    eigenvector entry stays 0, so the reported support can be smaller
    than s.
    """
    m = as_matrix(v)
    idx = dt_select(m, s)
    vec = _oriented_principal_eigenvector(m[idx[:, None], idx])
    signs = np.zeros(m.shape[0], dtype=np.int8)
    signs[idx] = np.sign(vec)
    return SignedSupport(signs=signs)


def signed_support_match(a: SignedSupport, b: SignedSupport) -> bool:
    """True iff the two sign patterns are equal or exactly negated."""
    if not isinstance(a, SignedSupport) or not isinstance(b, SignedSupport):
        raise InvalidArgumentError("expected two SignedSupport values")
    if a.p != b.p:
        raise InvalidArgumentError(f"sign patterns differ in length: {a.p} vs {b.p}")
    return bool(np.array_equal(a.signs, b.signs) or np.array_equal(a.signs, -b.signs))
