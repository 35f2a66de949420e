"""An l1-penalized semidefinite relaxation for signed support recovery.

The relaxation maximizes tr(A Z) - lambda * sum_ij |Z_ij| over the
spectraplex {Z psd, tr Z = 1}.  It is solved by operator splitting
(scaled-dual ADMM) that alternates the spectraplex projection with
elementwise soft-thresholding at level lambda * step, step = 1 / ||A||.
The returned iterate is always feasible, even when the solver stops
without converging.

Optimality has one meaning: a weak-duality certificate.  The scaled dual
U = u / (lambda * step) of the splitting lies in the box [-1, 1], and
for any such symmetric U and any feasible Z, sum_ij |Z_ij| >= tr(U Z),
so lambda_max(A - lambda * U) bounds the optimal value from above (the
dual of d'Aspremont et al. 2007).  That bound minus the objective of the
iterate is the duality gap, a proof of how far the iterate can be from
the optimum.  The solver computes it every few iterations and stops once
it is at most tol * max(1, ||A||), a primal-dual stopping rule in the
sense of Boyd et al. 2011, section 3.3; a solve is ``converged`` exactly
when the gap it returns meets that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericalError, _check_int, _check_real
from .dt import SignedSupport, _oriented_principal_eigenvector, _top
from .sir import _eigh, _mirror_upper, as_matrix

__all__ = [
    "SdpConfig",
    "SdpSolution",
    "project_spectraplex",
    "sdp_solve",
    "sdp_sign_recover",
    "default_lambda",
]


@dataclass(frozen=True)
class SdpConfig:
    """Solver settings.

    ``lam`` is the l1 penalty level.  ``tol`` is the relative duality-gap
    tolerance: a solve stops, certified, once its duality gap is at most
    tol * max(1, spectral norm of A), or uncertified after ``max_iter``
    iterations.
    """

    lam: float
    max_iter: int = 20000
    tol: float = 1e-7

    def __post_init__(self):
        _check_real(self.lam, "lam")
        _check_int(self.max_iter, "max_iter", 1)
        if _check_real(self.tol, "tol") == 0:
            raise InvalidArgumentError("tol must be positive, got 0")


@dataclass(frozen=True)
class SdpSolution:
    """A feasible point of the spectraplex with its optimality certificate.

    ``dual`` is a symmetric matrix with entries in [-1, 1], and
    ``duality_gap`` = lambda_max(A - lam * dual) - objective.  Weak
    duality makes the first term an upper bound on the optimal value, so
    the objective is within ``duality_gap`` of the optimum.
    ``tolerance`` is the gap bound the solve was held to, tol * max(1,
    ||A||), and ``converged`` is derived from the two: True exactly when
    ``duality_gap`` <= ``tolerance``.  A non-finite objective, gap or
    tolerance proves nothing and raises ``NumericalError``.

    ``rank1_gap`` is derived from ``z``: 1 - (largest eigenvalue of z),
    zero for an exactly rank-one solution, close to one for a maximally
    spread one.

    ``z`` and ``dual`` are stored as ``as_matrix`` returns them: finite,
    and a matrix symmetric up to rounding is kept as its exact mirror.
    """

    z: np.ndarray
    objective: float
    iterations: int
    dual: np.ndarray
    duality_gap: float
    tolerance: float
    rank1_gap: float = field(init=False)

    def __post_init__(self):
        for name in ("objective", "duality_gap", "tolerance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NumericalError(f"{name} is {value}, so the solution has no certificate")
        z = as_matrix(self.z, "z")
        if abs(float(np.trace(z)) - 1.0) > 1e-8:
            raise InvalidArgumentError("z must have unit trace (within 1e-8)")
        eigenvalues = np.linalg.eigvalsh(z)
        if float(eigenvalues[0]) < -1e-8:
            raise InvalidArgumentError("z must be positive semidefinite (within 1e-8)")
        dual = as_matrix(self.dual, "dual")
        if dual.shape != z.shape:
            raise InvalidArgumentError(f"dual must have the shape of z {z.shape}, got {dual.shape}")
        if not np.all(np.abs(dual) <= 1.0):
            raise InvalidArgumentError("dual entries must lie in [-1, 1]")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "rank1_gap", min(max(1.0 - float(eigenvalues[-1]), 0.0), 1.0))

    @property
    def converged(self) -> bool:
        return self.duality_gap <= self.tolerance


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    sorted_desc = np.sort(w)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    ks = np.arange(1, w.size + 1)
    valid = sorted_desc - cumulative / ks > 0
    rho = int(np.max(ks[valid]))
    theta = cumulative[rho - 1] / rho
    return np.maximum(w - theta, 0.0)


def project_spectraplex(m) -> np.ndarray:
    """Frobenius projection onto {Z psd, tr Z = 1}.

    Eigendecomposes the (symmetric) input, projects the eigenvalues onto
    the probability simplex, and reassembles.
    """
    return _project_symmetric(as_matrix(m))


def _project_symmetric(a: np.ndarray) -> np.ndarray:
    """``project_spectraplex`` for an exactly symmetric array, unchecked."""
    w, q = _eigh(a)
    mu = _project_simplex(w)
    return _mirror_upper((q * mu) @ q.T)


def _soft(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


# iterations between duality-gap checks, each one eigvalsh of a p x p matrix
_GAP_EVERY = 10


def sdp_solve(a, cfg: SdpConfig) -> SdpSolution:
    """Maximize tr(A Z) - lam * sum|Z_ij| over the spectraplex.

    ``a`` is anything ``as_matrix`` accepts.  The returned iterate is
    always feasible, and ``duality_gap`` bounds its distance to the
    optimum; ``converged`` reports whether that gap met the tolerance
    within ``max_iter`` iterations.  A spectral norm of ``a`` that
    overflows a float raises ``NumericalError`` before any iteration.
    """
    a = as_matrix(a)
    if not isinstance(cfg, SdpConfig):
        raise InvalidArgumentError("cfg must be an SdpConfig")
    lam = cfg.lam
    norm = float(np.abs(np.linalg.eigvalsh(a)[[0, -1]]).max())  # the spectral norm
    if not math.isfinite(norm):
        raise NumericalError(f"the spectral norm of the matrix is not finite ({norm})")
    step = 1.0 / norm if norm > 0 else 1.0
    thr = lam * step
    tolerance = cfg.tol * max(1.0, norm)
    # a and every iterate are exactly symmetric, and so is any elementwise
    # combination of them, so each projection skips the symmetry check
    step_a = step * a
    z = _project_symmetric(step_a)
    w = z.copy()
    u = np.zeros_like(z)
    for it in range(1, cfg.max_iter + 1):
        z = _project_symmetric(w - u + step_a)
        w = _soft(z + u, thr)
        u = u + z - w
        if it % _GAP_EVERY == 0 or it == cfg.max_iter:
            # u = clip(z + u, -thr, thr) after every update, so the scaled
            # dual sits in [-1, 1]; the clip only removes rounding
            dual = np.clip(u / thr, -1.0, 1.0) if thr > 0 else np.zeros_like(z)
            # near the top of the float range these can overflow; an overflowed
            # bound proves nothing (LAPACK may not even converge on it), so the
            # gap stays infinite and SdpSolution refuses it
            with np.errstate(over="ignore", invalid="ignore"):
                objective = float(np.vdot(a, z) - lam * np.abs(z).sum())
                upper = a - lam * dual
            gap = math.inf
            if np.isfinite(upper).all():
                gap = float(np.linalg.eigvalsh(upper)[-1]) - objective
            if gap <= tolerance or not math.isfinite(gap):
                break
    return SdpSolution(z=z, objective=objective, iterations=it, dual=dual,
                       duality_gap=gap, tolerance=tolerance)


def _round(sol: SdpSolution, s: int) -> tuple[np.ndarray, SignedSupport]:
    """``sdp_sign_recover`` from one ``eigh``, with the magnitudes it ranks: (scores, signs)."""
    if not isinstance(sol, SdpSolution):
        raise InvalidArgumentError("sol must be an SdpSolution")
    vec = _oriented_principal_eigenvector(sol.z)
    scores = np.abs(vec)
    idx = _top(scores, s)
    signs = np.zeros(vec.size, dtype=np.int8)
    signs[idx] = np.sign(vec[idx])
    return scores, SignedSupport(signs=signs)


def sdp_sign_recover(sol: SdpSolution, s: int) -> SignedSupport:
    """Signs of the s largest-magnitude entries of the solution's principal eigenvector.

    The eigenvector is oriented so its largest-magnitude entry is
    positive, and its magnitudes are selected as ``dt_sir`` selects the
    diagonal; other coordinates, and a selected exact 0, get sign 0.
    """
    return _round(sol, s)[1]


def default_lambda(a, s: int) -> float:
    """Half the s-th largest diagonal entry of A.

    The diagonal of a slice-mean matrix estimates the per-coordinate
    signal, so this tracks (signal strength) / (2 s) without requiring
    the signal constant itself.
    """
    diag = np.diag(as_matrix(a))
    return float(diag[_top(diag, s)[-1]] / 2.0)
