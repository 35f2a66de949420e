"""Correctness checks computed apart from the program.

Every check recomputes what the program should have produced with plain
numpy, from the program's inputs, and raises ``CheckFailed`` naming the
first disagreement.  None of them calls into ``sirsupport``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Stated tolerances.  Matrices the program and these checks compute by
# different summation orders agree to a few ulps of their largest entry.
MATRIX_RTOL = 1e-12
# The program promises unit trace and PSD within 1e-8 (SdpSolution).
FEASIBILITY_TOL = 1e-8
OBJECTIVE_RTOL = 1e-9
# Both bounds on the objective hold exactly for a feasible Z; this share of
# the spectral norm of A covers the 1e-8 feasibility slack allowed above.
OPTIMALITY_RTOL = 1e-6
# Scores are written with repr, so they round-trip; only the two
# eigendecompositions differ.
SCORE_RTOL = 1e-8
RESIDUAL_MEAN_TOL = 0.1
RESIDUAL_SD_TOL = 0.1


class CheckFailed(AssertionError):
    """A program output disagrees with the independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fixed_beta(p: int, s: int) -> np.ndarray:
    """The ``fixed`` direction: s - 1 entries +1/sqrt(s), then one -1/sqrt(s)."""
    beta = np.zeros(p)
    beta[:s] = 1.0 / math.sqrt(s)
    beta[s - 1] = -beta[s - 1]
    return beta


def same_up_to_flip(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    return a.shape == b.shape and (bool(np.all(a == b)) or bool(np.all(a == -b)))


# --- slice-mean matrices and DT-SIR -----------------------------------------


def slice_means(x: np.ndarray, y: np.ndarray, h: int, seed: int) -> np.ndarray:
    """Slice means by the rule in ``slice_data``'s docstring.

    Rows are sorted stably by y; the n - h*m surplus rows are dropped at
    positions of the sorted sequence drawn by
    ``default_rng(seed).choice(n, n - h*m, replace=False)``; the rest are
    cut into h consecutive slices of m rows and averaged slice by slice.
    """
    n = y.size
    m = n // h
    order = np.argsort(y, kind="stable")
    if n - h * m:
        drop = np.random.default_rng(seed).choice(n, size=n - h * m, replace=False)
        order = np.delete(order, drop)
    return np.stack([x[order[k * m:(k + 1) * m]].sum(axis=0) / m for k in range(h)])


def centered_sir(x: np.ndarray, y: np.ndarray, h: int, seed: int) -> np.ndarray:
    means = slice_means(x, y, h, seed)
    c = means - means.sum(axis=0) / h
    return np.einsum("ki,kj->ij", c, c) / h


def check_centered_matrix(program_v: np.ndarray, reference_v: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(reference_v).max()))
    err = float(np.abs(np.asarray(program_v) - reference_v).max())
    require(
        err <= MATRIX_RTOL * scale,
        f"centered slice-mean matrix differs from the recomputation by {err:.3e} "
        f"(allowed {MATRIX_RTOL * scale:.3e})",
    )


def dt_signs(v: np.ndarray, s: int) -> np.ndarray:
    """Top-s diagonal, then the signs of the principal eigenvector of that block."""
    idx = np.sort(np.argpartition(-np.diag(v), s - 1)[:s])
    _, q = np.linalg.eigh(v[np.ix_(idx, idx)])
    signs = np.zeros(v.shape[0], dtype=int)
    signs[idx] = np.sign(q[:, -1]).astype(int)
    return signs


def check_dt_signs(program_signs: np.ndarray, reference_v: np.ndarray, s: int) -> None:
    expected = dt_signs(reference_v, s)
    require(
        same_up_to_flip(program_signs, expected),
        f"dt_sir signs {np.flatnonzero(program_signs).tolist()} do not match the "
        f"recomputed top-{s} diagonal and eigenvector signs up to a global flip",
    )


# --- the penalized SDP -------------------------------------------------------


def sdp_objective(a: np.ndarray, lam: float, z: np.ndarray) -> float:
    return float(np.sum(a * z) - lam * np.abs(z).sum())


def check_sdp_solution(a: np.ndarray, lam: float, z: np.ndarray, objective: float,
                       beta: np.ndarray) -> None:
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    require(z.shape == a.shape, f"Z has shape {z.shape}, expected {a.shape}")
    check_sdp_feasible(z)
    check_sdp_objective(a, lam, z, objective)
    check_sdp_bounds(a, lam, objective, beta)


def check_sdp_feasible(z: np.ndarray) -> None:
    """Z symmetric, of unit trace and positive semidefinite."""
    asym = float(np.abs(z - z.T).max())
    require(asym <= MATRIX_RTOL * float(np.abs(z).max()), f"Z is not symmetric ({asym:.3e})")
    trace = float(np.trace(z))
    require(abs(trace - 1.0) <= FEASIBILITY_TOL, f"Z has trace {trace!r}, expected 1")
    low = float(np.linalg.eigvalsh(z)[0])
    require(low >= -FEASIBILITY_TOL, f"Z has eigenvalue {low:.3e} < -{FEASIBILITY_TOL}")


def check_sdp_objective(a: np.ndarray, lam: float, z: np.ndarray, objective: float) -> None:
    recomputed = sdp_objective(a, lam, z)
    require(
        abs(recomputed - objective) <= OBJECTIVE_RTOL * max(1.0, abs(recomputed)),
        f"reported objective {objective!r} differs from tr(AZ) - lam*sum|Z| = {recomputed!r}",
    )


def check_sdp_bounds(a: np.ndarray, lam: float, objective: float, beta: np.ndarray) -> None:
    """The objective lies between feasible rank-one values and a dual bound.

    Lower bounds: the objective of the feasible points beta beta' and
    q1 q1' (q1 the top eigenvector of A).  Upper bound: weak duality,
    lambda_max(A - lam * U) with U = clip(A / lam, -1, 1), since
    tr(AZ) - lam * sum|Z_ij| <= tr((A - lam U) Z) for any |U_ij| <= 1.
    """
    w, q = np.linalg.eigh(a)
    tol = OPTIMALITY_RTOL * max(abs(float(w[0])), abs(float(w[-1])))
    for name, v in (("beta beta'", beta / np.linalg.norm(beta)), ("q1 q1'", q[:, -1])):
        candidate = sdp_objective(a, lam, np.outer(v, v))
        require(
            objective >= candidate - tol,
            f"objective {objective!r} is below the feasible {name} value {candidate!r} "
            f"by more than {tol:.3e}",
        )
    u = np.clip(a / lam, -1.0, 1.0) if lam > 0 else np.zeros_like(a)
    bound = float(np.linalg.eigvalsh(a - lam * u)[-1])
    require(
        objective <= bound + tol,
        f"objective {objective!r} exceeds the weak-duality bound {bound!r} by more than {tol:.3e}",
    )


# --- efficiency curves -------------------------------------------------------


def pooled_rate(curves, gamma: float) -> tuple[int, int]:
    """(successes, replicates) at one grid point, summed over curves."""
    hits = reps = 0
    for curve in curves:
        for pt in curve.points:
            if pt.gamma == gamma:
                require(not pt.skipped, f"grid point gamma={gamma} was skipped")
                hits += pt.successes
                reps += pt.reps
    require(reps > 0, f"no replicates ran at gamma={gamma}")
    return hits, reps


def check_rate_at_most(curves, gamma: float, ceiling: float) -> None:
    hits, reps = pooled_rate(curves, gamma)
    require(hits / reps <= ceiling,
            f"success rate at gamma={gamma} is {hits}/{reps}, above {ceiling}")


def check_rate_at_least(curves, gamma: float, floor: float) -> None:
    hits, reps = pooled_rate(curves, gamma)
    require(hits / reps >= floor,
            f"success rate at gamma={gamma} is {hits}/{reps}, below {floor}")


def point_successes(curve) -> tuple:
    return tuple(pt.successes for pt in curve.points)


# --- the CLI round trip ------------------------------------------------------


def read_table(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_dataset_csv(path, n: int, p: int, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape, finiteness, and a residual of mean ~0 and sd ~1 under beta."""
    header, table = read_table(path)
    require(header == ["y"] + [f"x{j + 1}" for j in range(p)], f"{path}: unexpected header")
    require(table.shape == (n, p + 1), f"{path}: shape {table.shape}, expected {(n, p + 1)}")
    require(bool(np.isfinite(table).all()), f"{path}: non-finite cells")
    y, x = table[:, 0], table[:, 1:]
    resid = y - 2.0 * np.arctan(x @ beta)
    mean, sd = float(resid.mean()), float(resid.std())
    require(abs(mean) <= RESIDUAL_MEAN_TOL, f"{path}: residual mean {mean:.4f} is not ~0")
    require(abs(sd - 1.0) <= RESIDUAL_SD_TOL, f"{path}: residual sd {sd:.4f} is not ~1")
    return x, y


def whitened_diagonal(x: np.ndarray, y: np.ndarray, h: int) -> np.ndarray:
    """diag(W M W) = sum_k (W c_k)^2 / h, W the inverse root of the MLE covariance.

    Needs h to divide n, so that no rows are dropped.
    """
    n = y.size
    require(n % h == 0, f"n={n} is not divisible by H={h}")
    xc = x - x.mean(axis=0)
    w, q = np.linalg.eigh(xc.T @ xc / n)
    inv_root = (q / np.sqrt(w)) @ q.T
    means = x[np.argsort(y, kind="stable")].reshape(h, n // h, -1).mean(axis=1)
    c = means - means.mean(axis=0)
    return ((c @ inv_root) ** 2).sum(axis=0) / h


def check_recovery_csv(path, p: int, s: int, expected_signs: np.ndarray,
                       dt_scores: np.ndarray | None = None) -> None:
    """Ranks, the selected signed support, and (for dt) the scores themselves."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == p, f"{path}: {len(rows)} rows, expected {p}")
    ranks = sorted(int(r["rank"]) for r in rows)
    require(ranks == list(range(1, p + 1)), f"{path}: ranks are not a permutation of 1..{p}")
    scores = [float(r["score"]) for r in sorted(rows, key=lambda r: int(r["rank"]))]
    require(all(a >= b for a, b in zip(scores, scores[1:])), f"{path}: scores do not fall with rank")
    chosen = [r for r in rows if r["selected"] == "true"]
    require(len(chosen) == s, f"{path}: {len(chosen)} rows selected, expected {s}")
    index = sorted(int(r["variable"][1:]) - 1 for r in chosen)
    require(index == list(np.flatnonzero(expected_signs)),
            f"{path}: selected {sorted(r['variable'] for r in chosen)}")
    signs = np.zeros(p, dtype=int)
    for r in chosen:
        signs[int(r["variable"][1:]) - 1] = int(r["sign"])
    require(same_up_to_flip(signs, expected_signs), f"{path}: selected signs are wrong")
    if dt_scores is not None:
        got = np.array([float(r["score"]) for r in sorted(rows, key=lambda r: int(r["variable"][1:]))])
        err = float(np.abs(got - dt_scores).max())
        require(err <= SCORE_RTOL * float(np.abs(dt_scores).max()),
                f"{path}: dt scores differ from the whitened diagonal by {err:.3e}")


def check_manifest(path, command: str, seed: int) -> None:
    with open(path) as fh:
        manifest = json.load(fh)
    require(manifest.get("command") == command,
            f"{path}: command {manifest.get('command')!r}, expected {command!r}")
    require(manifest.get("seed") == seed, f"{path}: seed {manifest.get('seed')!r}, expected {seed}")
