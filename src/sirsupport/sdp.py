"""An l1-penalized semidefinite relaxation for signed support recovery.

The relaxation maximizes tr(A Z) - lambda * sum_ij |Z_ij| over the
spectraplex {Z psd, tr Z = 1}.  Two backends are provided:

- ``splitting``: an operator-splitting scheme (scaled-dual ADMM) that
  alternates the spectraplex projection with elementwise
  soft-thresholding at level lambda * step.  This is the default and
  scales to the dimensions used by the efficiency curves.
- ``conditional_gradient``: a corrective linearized method.  Each step
  adds the top eigenvector of the subgradient-adjusted matrix
  A - lambda * S(Z) as a new rank-one atom and re-optimizes the exact
  objective over the convex hull of the collected atoms with a linear
  program.  Intended as an independent cross-check on small problems.

Both backends always return a feasible iterate, even when they stop
without converging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateUndefinedError, InvalidArgumentError, NumericalError
from .dt import SignedSupport, _oriented_principal_eigenvector
from .sir import as_matrix

__all__ = [
    "BACKENDS",
    "SdpConfig",
    "SdpSolution",
    "project_spectraplex",
    "sdp_solve",
    "sdp_sign_recover",
    "check_rank1_certificate",
    "default_lambda",
]

BACKENDS = ("splitting", "conditional_gradient")


@dataclass(frozen=True)
class SdpConfig:
    """Solver settings.

    ``lam`` is the l1 penalty level.  ``step`` defaults to
    1 / (spectral norm of A) when None.
    """

    lam: float
    max_iter: int = 20000
    tol: float = 1e-7
    step: float | None = None
    backend: str = "splitting"

    def __post_init__(self):
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise InvalidArgumentError(f"lam must be a finite nonnegative real, got {self.lam}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise InvalidArgumentError(f"max_iter must be a positive integer, got {self.max_iter}")
        if not (self.tol > 0.0):
            raise InvalidArgumentError(f"tol must be positive, got {self.tol}")
        if self.step is not None and not (self.step > 0.0):
            raise InvalidArgumentError(f"step must be positive or None, got {self.step}")
        if self.backend not in BACKENDS:
            raise InvalidArgumentError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


@dataclass(frozen=True)
class SdpSolution:
    """A feasible point of the spectraplex with solver diagnostics.

    ``rank1_gap`` is 1 - (largest eigenvalue of z): zero for an exactly
    rank-one solution, close to one for a maximally spread one.
    """

    z: np.ndarray
    objective: float
    iterations: int
    converged: bool
    residual: float
    rank1_gap: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise InvalidArgumentError("z must be a square matrix")
        if not np.array_equal(z, z.T):
            raise InvalidArgumentError("z must be exactly symmetric")
        if abs(float(np.trace(z)) - 1.0) > 1e-8:
            raise InvalidArgumentError("z must have unit trace (within 1e-8)")
        if float(np.linalg.eigvalsh(z)[0]) < -1e-8:
            raise InvalidArgumentError("z must be positive semidefinite (within 1e-8)")
        if not (-1e-8 <= self.rank1_gap <= 1.0 + 1e-8):
            raise InvalidArgumentError("rank1_gap must lie in [0, 1] (within 1e-8)")
        object.__setattr__(self, "z", z)


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    sorted_desc = np.sort(w)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    ks = np.arange(1, w.size + 1)
    valid = sorted_desc - cumulative / ks > 0
    rho = int(np.max(ks[valid]))
    theta = cumulative[rho - 1] / rho
    return np.maximum(w - theta, 0.0)


def _mirror(m: np.ndarray) -> np.ndarray:
    return np.triu(m) + np.triu(m, 1).T


def project_spectraplex(m) -> np.ndarray:
    """Frobenius projection onto {Z psd, tr Z = 1}.

    Eigendecomposes the (symmetric) input, projects the eigenvalues onto
    the probability simplex, and reassembles.
    """
    a = _require_symmetric(as_matrix(m))
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    mu = _project_simplex(w)
    return _mirror((q * mu) @ q.T)


def _require_symmetric(a: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise InvalidArgumentError("matrix must be symmetric")
    return _mirror(a)


def _spectral_norm(a: np.ndarray) -> float:
    w = np.linalg.eigvalsh(a)
    return float(max(abs(w[0]), abs(w[-1])))


def _soft(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _objective(a: np.ndarray, lam: float, z: np.ndarray) -> float:
    return float(np.vdot(a, z) - lam * np.abs(z).sum())


def _solution(a, lam, z, iterations, converged, residual) -> SdpSolution:
    z = _mirror(z)
    top = float(np.linalg.eigvalsh(z)[-1])
    return SdpSolution(
        z=z,
        objective=_objective(a, lam, z),
        iterations=int(iterations),
        converged=bool(converged),
        residual=float(residual),
        rank1_gap=min(max(1.0 - top, 0.0), 1.0),
    )


def sdp_solve(a, cfg: SdpConfig) -> SdpSolution:
    """Maximize tr(A Z) - lam * sum|Z_ij| over the spectraplex.

    ``a`` may be a SirMatrix or a plain symmetric array.  The returned
    iterate is always feasible; ``converged`` reports whether the
    backend met its tolerance within ``max_iter`` iterations.  A matrix
    with a NaN or infinite entry raises ``NumericalError``.
    """
    mat = as_matrix(a)
    if not np.isfinite(mat).all():
        raise NumericalError("matrix has non-finite entries (NaN or infinity)")
    mat = _require_symmetric(mat)
    if not isinstance(cfg, SdpConfig):
        raise InvalidArgumentError("cfg must be an SdpConfig")
    if cfg.backend == "splitting":
        return _solve_splitting(mat, cfg)
    return _solve_conditional_gradient(mat, cfg)


def _solve_splitting(a: np.ndarray, cfg: SdpConfig) -> SdpSolution:
    lam = cfg.lam
    norm = _spectral_norm(a)
    step = cfg.step if cfg.step is not None else (1.0 / norm if norm > 0 else 1.0)
    thr = lam * step
    z = project_spectraplex(step * a)
    w = z.copy()
    u = np.zeros_like(z)
    residual = math.inf
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        z_prev = z
        z = project_spectraplex(w - u + step * a)
        w = _soft(z + u, thr)
        u = u + z - w
        residual = max(
            float(np.abs(z - z_prev).max()),
            float(np.abs(z - w).max()),
        )
        if residual < cfg.tol:
            converged = True
            break
    return _solution(a, lam, z, it, converged, residual)


def _clamped_subgradient(z: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    """Subgradient of sum|Z_ij| at z, with the free entries at zeros set to
    clamp(A_ij / lam, -1, 1) so the adjusted matrix A - lam*S is as flat
    as possible there."""
    zeps = 1e-11 * max(1.0, float(np.abs(z).max()))
    s = np.sign(z)
    free = np.abs(z) <= zeps
    s[free] = np.clip(a[free] / lam, -1.0, 1.0)
    return s


def _hull_lp(a: np.ndarray, lam: float, atoms: list[np.ndarray]) -> np.ndarray:
    """Maximize the exact objective over the convex hull of rank-one atoms.

    With Z(w) = sum_k w_k v_k v_k', the trace term is linear in w and the
    l1 term is a maximum of linear functions, so the hull problem is a
    linear program in (w, T) with T_ij >= |Z(w)_ij| on the upper triangle.
    """
    # imported here so that the default backend and the CLI start without scipy
    from scipy import sparse
    from scipy.optimize import linprog

    p = a.shape[0]
    k = len(atoms)
    iu, ju = np.triu_indices(p)
    mult = np.where(iu == ju, 1.0, 2.0)
    q = iu.size
    b_cols = np.stack([np.outer(v, v)[iu, ju] for v in atoms], axis=1)  # q x k
    c = np.concatenate([-np.array([v @ a @ v for v in atoms]), lam * mult])
    a_ub = sparse.bmat(
        [
            [sparse.csr_matrix(b_cols), -sparse.eye(q)],
            [sparse.csr_matrix(-b_cols), -sparse.eye(q)],
        ],
        format="csr",
    )
    b_ub = np.zeros(2 * q)
    a_eq = sparse.csr_matrix(
        (np.ones(k), (np.zeros(k, dtype=int), np.arange(k))), shape=(1, k + q)
    )
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * k + [(0.0, None)] * q,
        method="highs",
    )
    if not res.success:  # pragma: no cover - HiGHS failure on a tiny feasible LP
        raise NumericalError(f"hull linear program failed: {res.message}")
    w = np.clip(res.x[:k], 0.0, None)
    total = w.sum()
    if total <= 0:  # pragma: no cover
        raise NumericalError("hull linear program returned an empty combination")
    return w / total


def _rebuild(atoms: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    p = atoms[0].size
    z = np.zeros((p, p))
    for v, wk in zip(atoms, weights):
        if wk > 0:
            z += wk * np.outer(v, v)
    return _mirror(z)


def _add_atom(atoms: list[np.ndarray], v: np.ndarray) -> None:
    for u in atoms:
        if abs(float(u @ v)) > 1.0 - 1e-10:
            return
    atoms.append(v)


def _restricted_atom(a: np.ndarray, lam: float, t: np.ndarray) -> np.ndarray:
    """Top eigenvector of the sign-adjusted matrix on support t, embedded in R^p.

    A rank-one optimum v v' with sign pattern sigma on support t maximizes
    v' (A_tt - lam * sigma sigma') v, so with the right support this lands
    exactly on sparse rank-one solutions.  The sign pattern is iterated to a
    fixed point starting from the unpenalized restricted eigenvector.
    """
    block = a[np.ix_(t, t)]
    _, q = np.linalg.eigh(block)
    v = q[:, -1]
    sigma = np.sign(v)
    sigma[sigma == 0] = 1.0
    for _ in range(4):
        _, q = np.linalg.eigh(block - lam * np.outer(sigma, sigma))
        v = q[:, -1]
        fresh = np.sign(v)
        fresh[fresh == 0] = 1.0
        if np.array_equal(fresh, sigma) or np.array_equal(fresh, -sigma):
            break
        sigma = fresh
    full = np.zeros(a.shape[0])
    full[t] = v
    return full


def _restricted_atoms(a: np.ndarray, lam: float, levels: int, beam: int = 4) -> list[np.ndarray]:
    """Sparse candidate directions by beam search over support sets.

    Starting from the full support, each level drops one coordinate.  The
    beam keeps the best few supports per size (scored by the rank-one
    objective) and branches on the smallest-magnitude coordinates of each
    restricted eigenvector, so one early bad drop cannot hide a support.
    """
    p = a.shape[0]
    frontier = [tuple(range(p))]
    seen = {frontier[0]}
    out = []
    for _ in range(min(levels, p - 2) + 1):
        scored = []
        for t in frontier:
            idx = np.array(t)
            v = _restricted_atom(a, lam, idx)
            out.append(v)
            scored.append((_objective(a, lam, np.outer(v, v)), t, v))
        scored.sort(key=lambda r: -r[0])
        nxt = []
        for _, t, v in scored[:beam]:
            if len(t) <= 2:
                continue
            idx = np.array(t)
            drops = np.argsort(np.abs(v[idx]))[: (len(t) if p <= 16 else 4)]
            for d in drops:
                child = tuple(np.delete(idx, int(d)))
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if not nxt:
            break
        frontier = nxt
    return out


def _max_over_cross_term(a: np.ndarray, lam: float, base: np.ndarray, cross: np.ndarray,
                         c_lim: float) -> tuple[float, float]:
    """Exactly maximize f(base + c * cross) over c in [-c_lim, c_lim].

    f is concave and piecewise linear in c, so the maximum sits at an
    endpoint or where an entry of base + c * cross crosses zero.
    """
    lin_b = float(np.vdot(a, base))
    lin_c = float(np.vdot(a, cross))
    bf = base.ravel()
    cf = cross.ravel()
    mask = np.abs(cf) > 1e-18
    roots = -bf[mask] / cf[mask]
    roots = roots[(roots > -c_lim) & (roots < c_lim)]
    cands = np.unique(np.concatenate([[-c_lim, c_lim], roots]))
    vals = lin_b + cands * lin_c - lam * np.abs(
        bf[None, :] + cands[:, None] * cf[None, :]
    ).sum(axis=1)
    k = int(np.argmax(vals))
    return float(cands[k]), float(vals[k])


def _best_on_span(a: np.ndarray, lam: float, q1: np.ndarray, q2: np.ndarray,
                  iters: int = 70) -> tuple[np.ndarray, float]:
    """Exact maximization over unit-trace PSD matrices on span{q1, q2}.

    Rank-one atom hulls cannot express optima whose entrywise zeros come
    from cancellation between eigenvector pairs; this in-face step can.
    The cross-term subproblem is exact and the mixing weight is found by
    ternary search, valid because a partial maximum of a concave
    function is concave.  q1, q2 must be orthonormal.
    """
    p11 = np.outer(q1, q1)
    p22 = np.outer(q2, q2)
    p12 = np.outer(q1, q2)
    p12 = p12 + p12.T

    def best_cross(y1: float) -> tuple[float, float]:
        base = y1 * p11 + (1.0 - y1) * p22
        c_lim = math.sqrt(max(0.0, y1 * (1.0 - y1)))
        if c_lim == 0.0:
            return 0.0, float(np.vdot(a, base)) - lam * float(np.abs(base).sum())
        return _max_over_cross_term(a, lam, base, p12, c_lim)

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if best_cross(m1)[1] < best_cross(m2)[1]:
            lo = m1
        else:
            hi = m2
    y1 = (lo + hi) / 2.0
    c, val = best_cross(y1)
    zr = _mirror(y1 * p11 + (1.0 - y1) * p22 + c * p12)
    return zr, val


def _rank2_refine(a: np.ndarray, lam: float, z: np.ndarray,
                  extra: list[np.ndarray] | None = None) -> tuple[np.ndarray, float]:
    """Best unit-trace PSD matrix on two-dimensional faces anchored at z.

    Tries the span of the top two eigenvectors of z, then the top
    eigenvector paired with each extra direction (orthonormalized).
    """
    w, q = np.linalg.eigh(z)
    if w.size < 2:
        return z, _objective(a, lam, z)
    q1 = q[:, -1]
    zb, best = _best_on_span(a, lam, q1, q[:, -2])
    for v in extra or []:
        u = v - (q1 @ v) * q1
        nrm = float(np.linalg.norm(u))
        if nrm < 1e-8:
            continue
        zr, val = _best_on_span(a, lam, q1, u / nrm)
        if val > best:
            zb, best = zr, val
    return zb, best


def _orth_pair(q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q1 = q1 / np.linalg.norm(q1)
    q2 = q2 - (q1 @ q2) * q1
    return q1, q2 / np.linalg.norm(q2)


def _span_ascent(a: np.ndarray, lam: float, z: np.ndarray,
                 sweeps: int = 6) -> tuple[np.ndarray, float]:
    """Rotate the two-dimensional face of z toward the optimum.

    Atom hulls stall when the optimal span is a fraction of a degree away
    from any span the pool can express.  Coordinate ascent over Givens
    rotations against the orthogonal complement, with the exact face
    maximizer as the objective, closes that last gap.
    """
    w, q = np.linalg.eigh(z)
    if w.size < 2:
        return z, _objective(a, lam, z)
    q1, q2 = _orth_pair(q[:, -1].copy(), q[:, -2].copy())
    best = _best_on_span(a, lam, q1, q2, iters=32)[1]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(sweeps):
        improved = False
        basis = np.linalg.svd(np.column_stack([q1, q2]))[0][:, 2:]
        for u in basis.T:
            u = u - (q1 @ u) * q1 - (q2 @ u) * q2
            nu = float(np.linalg.norm(u))
            if nu < 1e-12:
                continue
            u = u / nu
            for which in (0, 1):
                def val(theta: float) -> float:
                    if which == 0:
                        a1, a2 = _orth_pair(math.cos(theta) * q1 + math.sin(theta) * u, q2)
                    else:
                        a1, a2 = _orth_pair(q1, math.cos(theta) * q2 + math.sin(theta) * u)
                    return _best_on_span(a, lam, a1, a2, iters=32)[1]

                lo, hi = -0.3, 0.3
                c = hi - gr * (hi - lo)
                d = lo + gr * (hi - lo)
                fc, fd = val(c), val(d)
                for _ in range(28):
                    if fc > fd:
                        hi, d, fd = d, c, fc
                        c = hi - gr * (hi - lo)
                        fc = val(c)
                    else:
                        lo, c, fc = c, d, fd
                        d = lo + gr * (hi - lo)
                        fd = val(d)
                theta = (lo + hi) / 2.0
                cand = val(theta)
                if cand > best + 1e-14:
                    best = cand
                    if which == 0:
                        q1, q2 = _orth_pair(math.cos(theta) * q1 + math.sin(theta) * u, q2)
                    else:
                        q1, q2 = _orth_pair(q1, math.cos(theta) * q2 + math.sin(theta) * u)
                    improved = True
        if not improved:
            break
    return _best_on_span(a, lam, q1, q2)


def _solve_conditional_gradient(a: np.ndarray, cfg: SdpConfig) -> SdpSolution:
    lam = cfg.lam
    p = a.shape[0]
    try:
        w_a, q_a = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if lam == 0.0:
        # the objective is linear, so the top eigenvector is exact
        v = q_a[:, -1]
        return _solution(a, lam, np.outer(v, v), 1, True, 0.0)
    atoms: list[np.ndarray] = []
    seed_count = p if p <= 40 else 8
    for j in range(1, seed_count + 1):
        _add_atom(atoms, q_a[:, -j])
    for v in _restricted_atoms(a, lam, p - 2 if p <= 40 else 8):
        _add_atom(atoms, v)
    weights = _hull_lp(a, lam, atoms)
    z = _rebuild(atoms, weights)
    best = _objective(a, lam, z)
    gap_tol = cfg.tol * max(1.0, float(abs(w_a[-1])))
    gap = math.inf
    stall = 0
    it = 0
    max_outer = min(cfg.max_iter, 2000)
    converged = False
    while it < max_outer:
        it += 1
        g = a - lam * _clamped_subgradient(z, a, lam)
        w_g, q_g = np.linalg.eigh(g)
        gap = float(w_g[-1]) - float(np.vdot(g, z))
        if gap <= gap_tol:
            converged = True
            break
        _add_atom(atoms, q_g[:, -1])
        if w_g[-1] - w_g[-2] < 1e-8 * max(1.0, abs(w_g[-1])):
            _add_atom(atoms, q_g[:, -2])
        if p <= 16 or it % 3 == 0:
            # supports suggested by the current iterate, smallest entries cut first
            zh = _oriented_principal_eigenvector(z)
            order = np.argsort(np.abs(zh))
            for drop in range(1, (p - 1 if p <= 16 else 6)):
                _add_atom(atoms, _restricted_atom(a, lam, np.sort(order[drop:])))
        # alternative subgradient choices keep the atom pool diverse when
        # the clamped choice stops producing new directions
        variant = it % 3
        if variant == 1:
            s_alt = np.sign(z)
        elif variant == 2:
            mu = max(1e-12, 10.0 ** (-2 - (it // 10) % 5)) * max(1.0, float(np.abs(z).max()))
            s_alt = np.clip(z / mu, -1.0, 1.0)
        else:
            s_alt = None
        if s_alt is not None:
            _add_atom(atoms, _oriented_principal_eigenvector(a - lam * s_alt))
        if it % 7 == 0:
            w_z, q_z = np.linalg.eigh(z)
            for j in range(p):
                if w_z[j] > 1e-10:
                    _add_atom(atoms, q_z[:, j])
        weights = _hull_lp(a, lam, atoms)
        z = _rebuild(atoms, weights)
        obj = _objective(a, lam, z)
        if p <= 16:
            zr, val = _rank2_refine(a, lam, z, extra=[q_g[:, -1], q_g[:, -2]])
            if val > obj:
                z, obj = zr, val
        if obj > best + 1e-3 * gap_tol:
            best = obj
            stall = 0
        else:
            stall += 1
        if len(atoms) > 8 * p:
            keep = [k for k in range(len(atoms)) if weights[k] > 1e-12]
            if keep:
                atoms = [atoms[k] for k in keep]
        if stall >= 20:
            break
    if not converged and p <= 16:
        zr, val = _span_ascent(a, lam, z)
        if val > _objective(a, lam, z):
            z = zr
            g = a - lam * _clamped_subgradient(z, a, lam)
            gap = float(np.linalg.eigvalsh(g)[-1]) - float(np.vdot(g, z))
            converged = gap <= gap_tol
    return _solution(a, lam, z, it, converged, gap)


def sdp_sign_recover(sol: SdpSolution, s: int) -> SignedSupport:
    """Signs of the principal eigenvector of the solution, small entries zeroed.

    The eigenvector is oriented so its largest-magnitude entry is
    positive; entries with magnitude below 1 / (2 sqrt(s)) map to 0.
    """
    if not isinstance(sol, SdpSolution):
        raise InvalidArgumentError("sol must be an SdpSolution")
    if not (isinstance(s, (int, np.integer)) and s >= 1):
        raise InvalidArgumentError(f"s must be a positive integer, got {s}")
    vec = _oriented_principal_eigenvector(sol.z)
    thr = 1.0 / (2.0 * math.sqrt(s))
    signs = np.where(np.abs(vec) < thr, 0, np.sign(vec)).astype(np.int8)
    return SignedSupport(signs=signs)


def check_rank1_certificate(a, lam: float, sol: SdpSolution, tol: float) -> bool:
    """Verify global optimality of a (numerically) rank-one solution.

    Builds the dual sign matrix U: sign(z_i) * sign(z_j) on the block
    where the principal eigenvector is nonzero, clamp(A_ij / lam, -1, 1)
    elsewhere.  Returns True iff every off-block entry satisfied
    |A_ij| <= lam * (1 + tol) before clamping and the eigenvector lies
    within angle tol (radians) of the top eigenspace of A - lam * U.

    Raises ``CertificateUndefinedError`` when sol.rank1_gap >= tol, since
    the certificate is only defined for rank-one solutions.
    """
    mat = _require_symmetric(as_matrix(a))
    if not isinstance(sol, SdpSolution):
        raise InvalidArgumentError("sol must be an SdpSolution")
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise InvalidArgumentError(f"lam must be a finite nonnegative real, got {lam}")
    if not (0.0 < tol < 1.0):
        raise InvalidArgumentError(f"tol must be in (0, 1), got {tol}")
    if not (sol.rank1_gap < tol):
        raise CertificateUndefinedError(
            f"certificate is undefined: rank1_gap={sol.rank1_gap:.3e} is not below tol={tol:.3e}"
        )
    zhat = _oriented_principal_eigenvector(sol.z)
    nz = np.abs(zhat) > tol * float(np.abs(zhat).max())
    sgn = np.where(nz, np.sign(zhat), 0.0)
    u = np.outer(sgn, sgn)
    off = ~np.outer(nz, nz)
    if np.any(np.abs(mat[off]) > lam * (1.0 + tol)):
        return False
    if lam > 0:
        u[off] = np.clip(mat[off] / lam, -1.0, 1.0)
    g = mat - lam * _mirror(u)
    w_g, q_g = np.linalg.eigh(g)
    # angle to the top eigenspace, so a degenerate top eigenvalue does not
    # spuriously fail the check
    near_top = w_g >= w_g[-1] - tol * max(1.0, abs(float(w_g[-1])))
    cos = float(np.linalg.norm(q_g[:, near_top].T @ zhat))
    angle = math.acos(min(1.0, cos))
    return bool(angle <= tol)


def default_lambda(a, s: int) -> float:
    """Half the s-th largest diagonal entry of A.

    The diagonal of a slice-mean matrix estimates the per-coordinate
    signal, so this tracks (signal strength) / (2 s) without requiring
    the signal constant itself.
    """
    mat = as_matrix(a)
    p = mat.shape[0]
    if not (isinstance(s, (int, np.integer)) and 1 <= s <= p):
        raise InvalidArgumentError(f"need 1 <= s <= p, got s={s}, p={p}")
    diag_sorted = np.sort(np.diag(mat))[::-1]
    return float(diag_sorted[s - 1] / 2.0)
