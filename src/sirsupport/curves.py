"""Monte-Carlo efficiency curves and sliced-stability diagnostics.

An efficiency curve sweeps the rescaled sample size
gamma = n / (s * log(p - s)) over a grid, runs seeded replicates of a
recovery method at each point, and records the exact signed-support
recovery rate.  The stability diagnostic estimates how fast the
per-slice conditional variances of the inverse regression curve decay
as the number of slices grows.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from .dt import SignedSupport, dt_sir, signed_support_match
from .errors import InvalidArgumentError, NumericalError, _check_int, _check_real
from .models import BETA_SCHEMES, Dataset, ModelSpec, _index_pairs, generate_beta, sample_sim
from .sdp import SdpConfig, default_lambda, sdp_sign_recover, sdp_solve
from .sir import _SLICE_MODES, sir_matrix, slice_data

__all__ = [
    "METHODS",
    "SPARSITY_RULES",
    "CurveConfig",
    "CurvePoint",
    "EfficiencyCurve",
    "StabilityDiagnostic",
    "gamma_to_n",
    "run_curve",
    "stability_diagnostic",
    "fit_decay_exponent",
]

METHODS = ("dt_sir", "sdp")
SPARSITY_RULES = ("sqrt_p", "log_p")

# each outer slice is subdivided this many times when estimating the
# inverse regression curve for the stability diagnostic
INNER_RESOLUTION = 50


def _resolve_sparsity(p: int, sparsity) -> int:
    if isinstance(sparsity, str):
        if sparsity == "sqrt_p":
            return int(round(math.sqrt(p)))
        if sparsity == "log_p":
            return int(round(math.log(p)))
        raise InvalidArgumentError(
            f"sparsity must be an integer or one of {SPARSITY_RULES}, got {sparsity!r}"
        )
    return _check_int(sparsity, "sparsity", 1)


@dataclass(frozen=True)
class CurveConfig:
    """Settings for one efficiency curve.

    ``sparsity`` is either an explicit integer or one of the rules
    "sqrt_p" (s = round(sqrt(p))) and "log_p" (s = round(log p)).
    ``sdp_lambda`` of None means the penalty is recomputed per replicate
    from the estimated matrix via ``default_lambda``.
    """

    model: ModelSpec
    p: int
    sparsity: int | str
    gamma_grid: tuple[float, ...]
    method: str = "dt_sir"
    beta_scheme: str = "fixed"
    h: int = 10
    reps: int = 500
    master_seed: int = 0
    estimator_mode: str = "centered"
    sdp_lambda: float | None = None

    def __post_init__(self):
        if not isinstance(self.model, ModelSpec):
            raise InvalidArgumentError("model must be a ModelSpec")
        _check_int(self.p, "p", 3)
        s = _resolve_sparsity(self.p, self.sparsity)
        if s > self.p - 2:
            raise InvalidArgumentError(f"resolved sparsity s={s} must satisfy s <= p - 2 (p={self.p})")
        grid = tuple(_check_real(g, "gamma") for g in self.gamma_grid)
        if len(grid) == 0:
            raise InvalidArgumentError("gamma_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidArgumentError("gamma_grid must be strictly increasing")
        if self.method not in METHODS:
            raise InvalidArgumentError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.beta_scheme not in BETA_SCHEMES:
            raise InvalidArgumentError(f"beta_scheme must be one of {BETA_SCHEMES}")
        _check_int(self.h, "h", 2)
        _check_int(self.reps, "reps", 1)
        _check_int(self.master_seed, "master_seed", 0)
        if self.estimator_mode not in _SLICE_MODES:
            raise InvalidArgumentError(f"estimator_mode must be one of {_SLICE_MODES}, got {self.estimator_mode!r}")
        if self.sdp_lambda is not None:
            _check_real(self.sdp_lambda, "sdp_lambda")
        object.__setattr__(self, "gamma_grid", grid)

    @property
    def s(self) -> int:
        return _resolve_sparsity(self.p, self.sparsity)


@dataclass(frozen=True)
class CurvePoint:
    """One grid point of an efficiency curve.

    Points with n < 2h are skipped: no replicates run, ``successes`` and
    ``success_rate`` are None and ``skipped`` is True.
    """

    gamma: float
    n: int
    successes: int | None
    reps: int
    success_rate: float | None
    skipped: bool


@dataclass(frozen=True)
class EfficiencyCurve:
    """The points of one curve, in grid order, and their compute times.

    ``wall_times[i]`` is the seconds spent running point i's replicates,
    summed over its blocks as timed inside the process that ran them
    (so with several workers it can exceed the curve's wall time); a
    skipped point gets 0.0.
    """

    config: CurveConfig
    points: tuple[CurvePoint, ...]
    wall_times: tuple[float, ...] = field(default=())


def gamma_to_n(gamma: float, s: int, p: int) -> int:
    """Sample size n = ceil(gamma * s * log(p - s)), natural log."""
    if p - s < 1:
        raise InvalidArgumentError(f"need p > s, got p={p}, s={s}")
    n = gamma * s * math.log(p - s)
    if not math.isfinite(n):
        raise InvalidArgumentError(f"gamma={gamma} gives a sample size too large for a float")
    return int(math.ceil(n))


def _replicate_seeds(master_seed: int, point_index: int, rep: int) -> tuple[int, int, int]:
    """Splittable per-replicate seeds: SeedSequence(master, spawn_key=(point, rep))."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(point_index), int(rep)))
    state = ss.generate_state(3, dtype=np.uint64)
    return int(state[0]), int(state[1]), int(state[2])


def _run_replicate(cfg: CurveConfig, point_index: int, rep: int, n: int) -> bool:
    """One seeded replicate; True on exact signed-support recovery."""
    beta_seed, data_seed, slice_seed = _replicate_seeds(cfg.master_seed, point_index, rep)
    s = cfg.s
    beta = generate_beta(cfg.p, s, cfg.beta_scheme, beta_seed)
    data = sample_sim(cfg.model, beta, n, data_seed)
    v = sir_matrix(slice_data(data, cfg.h, slice_seed), cfg.estimator_mode)
    truth = SignedSupport(beta.signs())
    if cfg.method == "dt_sir":
        estimate = dt_sir(v, s)
        return signed_support_match(estimate, truth)
    lam = cfg.sdp_lambda if cfg.sdp_lambda is not None else default_lambda(v, s)
    sol = sdp_solve(v, SdpConfig(lam=lam))
    if not sol.converged:
        return False
    return signed_support_match(sdp_sign_recover(sol, s), truth)


def _run_block(
    cfg: CurveConfig, point_index: int, lo: int, hi: int, n: int
) -> tuple[int, int, float]:
    """Replicates lo..hi-1 of one grid point: (point_index, successes, seconds).

    Module-level so process pools can pickle it; a worker sends back one
    count per block rather than one outcome per replicate.
    """
    start = time.perf_counter()
    successes = int(sum(_run_replicate(cfg, point_index, rep, n) for rep in range(lo, hi)))
    return point_index, successes, time.perf_counter() - start


def _require_picklable_link(model: ModelSpec) -> None:
    """Reject a custom link that cannot be sent to a worker process."""
    if model.link != "custom":
        return
    try:
        pickle.dumps(model.custom_link)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        name = getattr(model.custom_link, "__qualname__", repr(model.custom_link))
        raise InvalidArgumentError(
            f"custom link {name!r} cannot be pickled for worker processes ({exc}); "
            "use a module-level function or workers=1"
        ) from exc


def run_curve(cfg: CurveConfig, workers: int = 1) -> EfficiencyCurve:
    """Run every replicate of every nonskipped grid point (see ``CurvePoint``).

    Replicates are seeded independently from (master_seed, point index,
    replicate index), so results do not depend on execution order and
    are bitwise identical for any worker count.  With workers = 1 the
    points run in grid order in this process.  With workers > 1 the
    whole curve is one work queue on one process pool: every nonskipped
    point is cut into blocks of max(1, reps // (4 * workers))
    replicates, and the blocks are queued costliest first (larger n
    first), so no point waits for another to finish and the pool's tail
    is one small block.  No pool is started when every point is skipped.
    A custom link must then be picklable; otherwise InvalidArgumentError
    is raised before any worker starts.
    """
    workers = _check_int(workers, "workers", 1)
    ns = [gamma_to_n(gamma, cfg.s, cfg.p) for gamma in cfg.gamma_grid]
    run = [gi for gi, n in enumerate(ns) if n >= 2 * cfg.h]
    if workers == 1 or not run:
        results = [_run_block(cfg, gi, 0, cfg.reps, ns[gi]) for gi in run]
    else:
        from concurrent.futures import ProcessPoolExecutor  # most processes never start a pool

        _require_picklable_link(cfg.model)
        block = max(1, cfg.reps // (4 * workers))
        queue = [(cfg, gi, lo, min(lo + block, cfg.reps), ns[gi])
                 for gi in sorted(run, key=lambda gi: -ns[gi])
                 for lo in range(0, cfg.reps, block)]
        with ProcessPoolExecutor(max_workers=min(workers, len(queue))) as pool:
            results = list(pool.map(_run_block, *zip(*queue)))
    successes = dict.fromkeys(run, 0)
    seconds = [0.0] * len(ns)
    for gi, hits, elapsed in results:
        successes[gi] += hits
        seconds[gi] += elapsed
    points = []
    for gi, (gamma, n) in enumerate(zip(cfg.gamma_grid, ns)):
        hits = successes.get(gi)
        points.append(CurvePoint(gamma=gamma, n=n, successes=hits, reps=cfg.reps,
                                 success_rate=None if hits is None else hits / cfg.reps,
                                 skipped=hits is None))
    return EfficiencyCurve(config=cfg, points=tuple(points), wall_times=tuple(seconds))


@dataclass(frozen=True)
class StabilityDiagnostic:
    """Per-slice conditional variances of the inverse regression curve.

    For each H in ``h_grid``: ``per_slice_variances`` holds the H
    estimated variances Var[m(Y) | slice], ``boundaries`` the H + 1
    response values cutting the slices, ``sums`` their total, and
    ``mean_decay`` = sums / H.  A decaying mean_decay over growing H is
    what makes slicing informative at all.
    """

    h_grid: tuple[int, ...]
    per_slice_variances: tuple[np.ndarray, ...]
    boundaries: tuple[np.ndarray, ...]
    sums: np.ndarray
    mean_decay: np.ndarray


def stability_diagnostic(
    model: ModelSpec,
    h_grid: tuple[int, ...],
    mc_n: int = 200_000,
    seed: int = 0,
) -> StabilityDiagnostic:
    """Estimate the per-slice conditional variances of m(Y) = E[Z | Y].

    Draws mc_n scalar pairs (Z, Y) once.  For each H the sample is cut
    into H * INNER_RESOLUTION fine slices whose means estimate m(Y); the
    variance of those means within each group of INNER_RESOLUTION
    estimates Var[m(Y) | slice].

    Requires every H >= 2 and mc_n >= 1000 * max(h_grid).
    """
    h_grid = tuple(_check_int(h, "H", 2) for h in h_grid)
    if len(h_grid) == 0:
        raise InvalidArgumentError("h_grid must be nonempty")
    mc_n, seed = _check_int(mc_n, "mc_n", 1), _check_int(seed, "seed", 0)
    if mc_n < 1000 * max(h_grid):
        raise InvalidArgumentError(
            f"mc_n={mc_n} is too small: need mc_n >= 1000 * max(h_grid) = {1000 * max(h_grid)}"
        )
    z, y = _index_pairs(model, mc_n, seed)
    variances = []
    boundaries = []
    for h in h_grid:
        inner = h * INNER_RESOLUTION
        keep = z.size // inner * inner
        sliced = slice_data(Dataset(z[:keep, None], y[:keep]), inner)
        grouped = sliced.slice_means.reshape(h, INNER_RESOLUTION)
        variances.append(grouped.var(axis=1))
        ys = y[:keep][sliced.order]
        edges = np.empty(h + 1)
        edges[0] = ys[0]
        edges[1:h] = ys[np.arange(1, h) * (sliced.m * INNER_RESOLUTION)]
        edges[h] = ys[-1]
        boundaries.append(edges)
    sums = np.array([v.sum() for v in variances])
    return StabilityDiagnostic(
        h_grid=h_grid,
        per_slice_variances=tuple(variances),
        boundaries=tuple(boundaries),
        sums=sums,
        mean_decay=sums / np.array(h_grid, dtype=float),
    )


def fit_decay_exponent(diag: StabilityDiagnostic) -> float:
    """Least-squares slope kappa of log(sums) against log(H).

    The summed per-slice variances of a usable model grow strictly
    slower than H, i.e. kappa < 1.
    """
    if len(diag.h_grid) < 2:
        raise InvalidArgumentError("need at least two H values to fit a decay exponent")
    if np.any(diag.sums <= 0):
        raise NumericalError("summed per-slice variances must be positive to fit a decay")
    slope, _ = np.polyfit(np.log(np.array(diag.h_grid, dtype=float)), np.log(diag.sums), 1)
    return float(slope)
