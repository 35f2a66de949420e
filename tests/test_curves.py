import re

import numpy as np
import pytest

from sirsupport import curves
from sirsupport.curves import (
    METHODS,
    SPARSITY_RULES,
    CurveConfig,
    StabilityDiagnostic,
    fit_decay_exponent,
    gamma_to_n,
    run_curve,
    stability_diagnostic,
)
from sirsupport.errors import InvalidArgumentError, NumericalError
from sirsupport.models import ModelSpec

LINEAR = ModelSpec(link="linear", noise_sd=1.0)


def _cfg(**overrides):
    base = dict(
        model=LINEAR,
        p=10,
        sparsity=2,
        gamma_grid=(1.0, 2.0),
        h=5,
        reps=4,
    )
    base.update(overrides)
    return CurveConfig(**base)


class TestGammaToN:
    @pytest.mark.parametrize(
        "gamma, s, p, expected",
        [
            (2.0, 10, 100, 90),
            (30.0, 10, 100, 1350),
            (4.0, 10, 100, 180),
            (40.0, 10, 100, 1800),
            (0.5, 14, 200, 37),
            (0.0, 10, 100, 0),
        ],
    )
    def test_frozen_values(self, gamma, s, p, expected):
        assert gamma_to_n(gamma, s, p) == expected

    def test_rounds_up(self):
        # n must never undershoot gamma * s * log(p - s)
        for gamma in (0.3, 1.7, 5.2):
            n = gamma_to_n(gamma, 3, 50)
            assert n >= gamma * 3 * np.log(47)
            assert n - 1 < gamma * 3 * np.log(47)

    def test_rejects_an_n_beyond_a_float(self):
        with pytest.raises(InvalidArgumentError, match="too large"):
            gamma_to_n(1e308, 2, 20)


class TestCurveConfig:
    def test_sparsity_rules(self):
        assert SPARSITY_RULES == ("sqrt_p", "log_p")
        assert _cfg(p=100, sparsity="sqrt_p").s == 10
        assert _cfg(p=200, sparsity="sqrt_p").s == 14
        assert _cfg(p=200, sparsity="log_p").s == 5
        assert _cfg(p=30, sparsity=5).s == 5

    def test_methods_tuple(self):
        assert METHODS == ("dt_sir", "sdp")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"p": 2},
            {"sparsity": 0},
            {"p": 4, "sparsity": 3},
            {"sparsity": "cube_root_p"},
            {"gamma_grid": ()},
            {"gamma_grid": (-1.0, 2.0)},
            {"gamma_grid": (2.0, 2.0)},
            {"gamma_grid": (3.0, 1.0)},
            {"method": "lasso"},
            {"beta_scheme": "spiky"},
            {"h": 1},
            {"reps": 0},
            {"estimator_mode": "robust"},
            {"sdp_lambda": -0.5},
            {"gamma_grid": (float("nan"),)},
            {"gamma_grid": (1.0, float("inf"))},
            {"sdp_lambda": float("inf")},
            {"sdp_lambda": float("nan")},
            # a bool is not a number, and a string or None is no real
            {"reps": True},
            {"sparsity": True},
            {"gamma_grid": (True,)},
            {"sdp_lambda": True},
            {"gamma_grid": ("1.5",)},
            {"gamma_grid": ("x",)},
            {"gamma_grid": (None,)},
            {"sdp_lambda": "0.1"},
            # curves sample an isotropic design, so there is nothing to whiten
            {"estimator_mode": "whitened"},
            {"master_seed": -1},
            {"master_seed": True},
            {"sdp_lambda": 10**400},
            {"gamma_grid": (10**400,)},
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(InvalidArgumentError):
            _cfg(**overrides)

    def test_accepts_numpy_scalars(self):
        cfg = _cfg(p=np.int64(10), sparsity=np.int64(2), gamma_grid=(np.float64(1.5),),
                   h=np.int64(5), reps=np.int64(4), sdp_lambda=np.float64(0.1))
        assert (cfg.s, cfg.gamma_grid) == (2, (1.5,))

    def test_grid_normalized_to_floats(self):
        cfg = _cfg(gamma_grid=(1, 2))
        assert cfg.gamma_grid == (1.0, 2.0)
        assert all(isinstance(g, float) for g in cfg.gamma_grid)


class TestRunCurve:
    def test_small_sample_points_are_skipped(self):
        # gamma 0.1 gives n = ceil(0.1 * 2 * log 8) = 1 < 2h, unusable
        cfg = _cfg(gamma_grid=(0.1,), reps=3)
        curve = run_curve(cfg)
        (pt,) = curve.points
        assert pt.skipped
        assert pt.successes is None and pt.success_rate is None
        assert pt.n == gamma_to_n(0.1, 2, 10)
        assert pt.reps == 3

    def test_generous_sample_recovers_support(self):
        cfg = _cfg(
            model=ModelSpec(link="linear", noise_sd=0.1),
            gamma_grid=(20.0,),
            reps=8,
            master_seed=1,
        )
        curve = run_curve(cfg)
        (pt,) = curve.points
        assert not pt.skipped
        assert pt.n == gamma_to_n(20.0, 2, 10)
        assert pt.successes == 8 and pt.success_rate == 1.0

    def test_deterministic_across_calls(self):
        cfg = _cfg(gamma_grid=(3.0, 6.0), reps=5, master_seed=7)
        first = run_curve(cfg)
        second = run_curve(cfg)
        assert first.points == second.points

    def test_curve_carries_config_and_timings(self):
        cfg = _cfg(gamma_grid=(3.0,), reps=2)
        curve = run_curve(cfg)
        assert curve.config == cfg
        assert len(curve.wall_times) == len(curve.points) == 1
        assert curve.wall_times[0] >= 0.0

    def test_frozen_dt_sir_counts_at_the_benchmark_shape(self):
        # p=100, s=10 as in the benchmark curve, on a grid across the
        # transition; the counts come from the reference forms of the
        # per-replicate helpers (np.triu mirror, np.isin sign check, np.ix_
        # gather), so a change to any replicate's outcome moves them
        cfg = CurveConfig(
            model=ModelSpec(link="atan2", noise_sd=1.0),
            p=100,
            sparsity=10,
            gamma_grid=(6.0, 10.0, 14.0),
            beta_scheme="fixed",
            h=10,
            reps=40,
            master_seed=2026,
            estimator_mode="centered",
        )
        frozen = [(270, 1), (450, 11), (630, 32)]
        for workers in (1, 2):
            curve = run_curve(cfg, workers=workers)
            assert [(pt.n, pt.successes) for pt in curve.points] == frozen

    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidArgumentError):
            run_curve(_cfg(), workers=0)
        with pytest.raises(InvalidArgumentError):
            run_curve(_cfg(), workers=True)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def _inline_pool(tasks: list):
    """An in-process stand-in for ProcessPoolExecutor that records its tasks."""

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            batch = list(zip(*iterables))
            tasks.extend(batch)
            return [fn(*task) for task in batch]

    return InlinePool


def _module_level_link(u, eps):
    return u + eps


class TestScheduler:
    # p=10, s=2, h=5: gamma 0.1 and 0.5 give n=1 and n=3 < 2h
    MIXED = dict(gamma_grid=(0.1, 0.5, 4.0, 10.0), reps=7, master_seed=11)

    def test_mixed_skips_identical_for_any_worker_count(self):
        cfg = _cfg(**self.MIXED)
        curves_run = [run_curve(cfg, workers=w) for w in (1, 2, 3)]
        assert [pt.skipped for pt in curves_run[0].points] == [True, True, False, False]
        assert curves_run[0].points == curves_run[1].points == curves_run[2].points

    def test_wall_times_per_point_and_zero_when_skipped(self):
        cfg = _cfg(**self.MIXED)
        for workers in (1, 2):
            curve = run_curve(cfg, workers=workers)
            assert len(curve.wall_times) == len(curve.points)
            for pt, seconds in zip(curve.points, curve.wall_times):
                assert (seconds == 0.0) if pt.skipped else (seconds > 0.0)

    def test_block_count_equals_its_replicates(self):
        cfg = _cfg(gamma_grid=(3.0, 6.0), reps=9, master_seed=5)
        n = gamma_to_n(6.0, cfg.s, cfg.p)
        point, successes, seconds = curves._run_block(cfg, 1, 2, 8, n)
        assert point == 1 and seconds >= 0.0
        assert successes == sum(curves._run_replicate(cfg, 1, r, n) for r in range(2, 8))

    def test_queue_is_costliest_first_and_covers_every_replicate(self, monkeypatch):
        tasks = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _inline_pool(tasks))
        cfg = _cfg(**{**self.MIXED, "reps": 19})
        curve = run_curve(cfg, workers=2)
        assert curve.points == run_curve(cfg, workers=1).points
        ns = [n for _, _, _, _, n in tasks]
        assert ns == sorted(ns, reverse=True)
        # blocks of max(1, reps // (4 * workers)) = 2 replicates, the last one short
        assert [hi - lo for _, gi, lo, hi, _ in tasks if gi == 2] == [2] * 9 + [1]
        covered = sorted((gi, r) for _, gi, lo, hi, _ in tasks for r in range(lo, hi))
        assert covered == [(gi, r) for gi in (2, 3) for r in range(19)]

    def test_no_pool_when_every_point_is_skipped(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
        curve = run_curve(_cfg(gamma_grid=(0.1, 0.2), reps=3), workers=2)
        assert all(pt.skipped for pt in curve.points)
        assert curve.wall_times == (0.0, 0.0)

    def test_unpicklable_link_rejected_before_any_worker(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)

        def local_link(u, eps):
            return u + eps

        for link in (lambda u, eps: u + eps, local_link):
            cfg = _cfg(model=ModelSpec.custom(link), gamma_grid=(3.0,), reps=2)
            with pytest.raises(InvalidArgumentError, match=re.escape(link.__qualname__)):
                run_curve(cfg, workers=2)
            assert run_curve(cfg, workers=1).points[0].successes is not None

    def test_picklable_custom_link_runs_on_the_pool(self):
        cfg = _cfg(model=ModelSpec.custom(_module_level_link), gamma_grid=(3.0, 6.0), reps=4)
        assert run_curve(cfg, workers=2).points == run_curve(cfg, workers=1).points


class TestStabilityDiagnostic:
    def test_structure(self):
        diag = stability_diagnostic(LINEAR, h_grid=(2, 4), mc_n=4000, seed=0)
        assert diag.h_grid == (2, 4)
        for h, var, edges in zip(diag.h_grid, diag.per_slice_variances, diag.boundaries):
            assert var.shape == (h,)
            assert np.all(var >= 0)
            assert edges.shape == (h + 1,)
            assert np.all(np.diff(edges) >= 0)
        np.testing.assert_allclose(
            diag.sums, [v.sum() for v in diag.per_slice_variances], rtol=1e-12
        )
        np.testing.assert_allclose(diag.mean_decay, diag.sums / np.array([2.0, 4.0]))

    def test_deterministic_in_seed(self):
        a = stability_diagnostic(LINEAR, h_grid=(2, 4), mc_n=4000, seed=3)
        b = stability_diagnostic(LINEAR, h_grid=(2, 4), mc_n=4000, seed=3)
        np.testing.assert_array_equal(a.sums, b.sums)

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=(), mc_n=4000)
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=(1, 4), mc_n=4000)
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=(2.5, 4), mc_n=4000)
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=("2", 4), mc_n=4000)
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=(2, 4), mc_n=4000.0)
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=(2, 4), mc_n=None)
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=(2, 4), mc_n=4000, seed=-1)
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=(2, 4), mc_n=4000, seed=True)

    def test_rejects_small_mc_n(self):
        with pytest.raises(InvalidArgumentError):
            stability_diagnostic(LINEAR, h_grid=(2, 10), mc_n=9999)


class TestFitDecayExponent:
    def test_exact_on_synthetic_power_law(self):
        h_grid = (2, 4, 8, 16)
        sums = 3.0 * np.array(h_grid, dtype=float) ** 0.7
        diag = StabilityDiagnostic(
            h_grid=h_grid,
            per_slice_variances=tuple(np.zeros(h) for h in h_grid),
            boundaries=tuple(np.zeros(h + 1) for h in h_grid),
            sums=sums,
        )
        assert fit_decay_exponent(diag) == pytest.approx(0.7, abs=1e-12)

    def test_needs_two_points(self):
        diag = StabilityDiagnostic(
            h_grid=(4,),
            per_slice_variances=(np.ones(4),),
            boundaries=(np.zeros(5),),
            sums=np.array([4.0]),
        )
        with pytest.raises(InvalidArgumentError):
            fit_decay_exponent(diag)

    def test_rejects_nonpositive_sums(self):
        diag = StabilityDiagnostic(
            h_grid=(2, 4),
            per_slice_variances=(np.zeros(2), np.ones(4)),
            boundaries=(np.zeros(3), np.zeros(5)),
            sums=np.array([0.0, 4.0]),
        )
        with pytest.raises(NumericalError):
            fit_decay_exponent(diag)
