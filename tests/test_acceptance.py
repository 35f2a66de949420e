"""End-to-end acceptance checks.

One test per advertised guarantee, each asserting the stated tolerance;
run under ``pytest -v`` to get a single pass/fail line per criterion.
The heavier Monte-Carlo checks take a few minutes in total.
"""

import math
import time

import numpy as np

from sirsupport.curves import (
    CurveConfig,
    fit_decay_exponent,
    run_curve,
    stability_diagnostic,
)
from sirsupport.dataio import CURVE_HEADER, emit_curve_csv
from sirsupport.dt import dt_select, dt_sir, signed_support_match
from sirsupport.models import Dataset, ModelSpec, estimate_cv, generate_beta, sample_sim
from sirsupport.sdp import (
    SdpConfig,
    SignedSupport,
    sdp_solve,
)
from sirsupport.sir import sir_matrix, sir_matrix_whitened, slice_data


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    cos = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.acos(min(1.0, cos))


def _principal(z: np.ndarray) -> np.ndarray:
    _, q = np.linalg.eigh(z)
    return q[:, -1]


def test_01_dt_sir_phase_transition():
    t0 = time.time()
    cfg = CurveConfig(
        model=ModelSpec(link="atan2", noise_sd=1.0),
        p=100,
        sparsity=10,
        gamma_grid=(2.0, 30.0),
        method="dt_sir",
        beta_scheme="fixed",
        h=10,
        reps=200,
        master_seed=0,
        estimator_mode="centered",
    )
    curve = run_curve(cfg)
    low, high = curve.points
    elapsed = time.time() - t0
    assert low.success_rate <= 0.10
    assert high.success_rate >= 0.90
    assert elapsed < 300.0
    print(
        f"01 dt_sir phase transition PASS: rate@2={low.success_rate:.3f}<=0.10, "
        f"rate@30={high.success_rate:.3f}>=0.90, {elapsed:.1f}s"
    )


def test_02_sdp_phase_transition():
    t0 = time.time()
    cfg = CurveConfig(
        model=ModelSpec(link="atan2", noise_sd=1.0),
        p=100,
        sparsity=10,
        gamma_grid=(4.0, 40.0),
        method="sdp",
        beta_scheme="fixed",
        h=10,
        reps=50,
        master_seed=0,
        estimator_mode="centered",
        sdp_lambda=None,
    )
    curve = run_curve(cfg)
    low, high = curve.points
    elapsed = time.time() - t0
    assert low.success_rate <= 0.20
    assert high.success_rate >= 0.80
    assert elapsed < 1800.0
    print(
        f"02 sdp phase transition PASS: rate@4={low.success_rate:.3f}<=0.20, "
        f"rate@40={high.success_rate:.3f}>=0.80, {elapsed:.1f}s"
    )


def test_03_small_sample_lower_bound():
    rates = {}
    for method in ("dt_sir", "sdp"):
        cfg = CurveConfig(
            model=ModelSpec(link="linear", noise_sd=1.0),
            p=200,
            sparsity=14,
            gamma_grid=(0.5,),
            method=method,
            beta_scheme="fixed",
            h=10,
            reps=100,
            master_seed=0,
            estimator_mode="centered",
        )
        (pt,) = run_curve(cfg).points
        assert not pt.skipped
        rates[method] = pt.success_rate
        assert pt.success_rate <= 0.05
    print(
        f"03 small-sample lower bound PASS: dt_sir={rates['dt_sir']:.3f}, "
        f"sdp={rates['sdp']:.3f}, both <=0.05"
    )


def test_04_diagonal_separation():
    model = ModelSpec(link="linear", noise_sd=1.0)
    p, s, h, reps = 200, 5, 10, 100
    n = math.ceil(50 * s * math.log(p - s))
    hits = 0
    for rep in range(reps):
        seeds = np.random.SeedSequence(9001, spawn_key=(rep,)).generate_state(
            3, dtype=np.uint64
        )
        beta = generate_beta(p, s, "fixed", int(seeds[0]))
        data = sample_sim(model, beta, n, int(seeds[1]))
        v = sir_matrix(slice_data(data, h, int(seeds[2])), "raw")
        diag = np.diag(v.v)
        on = np.zeros(p, dtype=bool)
        on[list(beta.support)] = True
        if diag[on].min() > diag[~on].max():
            hits += 1
    assert hits >= 95
    print(f"04 diagonal separation PASS: {hits}/100 replicates separated (>=95)")


def test_05_signal_strength_oracle():
    t0 = time.time()
    errs = []
    for sigma in (0.5, 1.0, 2.0):
        est = estimate_cv(
            ModelSpec(link="linear", noise_sd=sigma),
            mc_n=1_000_000,
            oracle_slices=1000,
            seed=0,
        )
        err = abs(est - 1.0 / (1.0 + sigma**2))
        errs.append(err)
        assert err < 0.01
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        "05 signal strength oracle PASS: |err|="
        + ", ".join(f"{e:.2e}" for e in errs)
        + f" all <0.01, {elapsed:.1f}s"
    )


def test_06_sdp_solver_correctness():
    rng = np.random.default_rng(1234)
    mats = []
    for _ in range(50):
        g = rng.standard_normal((6, 6))
        mats.append((g @ g.T) / 6.0)
    worst_gap = 0.0
    worst_angle = 0.0
    for a in mats:
        w_a, q_a = np.linalg.eigh(a)
        for lam in (0.0, 0.01, 0.1):
            sol = sdp_solve(a, SdpConfig(lam=lam))
            assert sol.converged
            assert abs(float(np.trace(sol.z)) - 1.0) <= 1e-8
            assert float(np.linalg.eigvalsh(sol.z)[0]) >= -1e-8
            # weak duality: any symmetric dual with entries in [-1, 1] bounds
            # the optimum by lambda_max(A - lam * dual), so this gap bounds
            # the distance of sol.objective to the true optimum
            dual = sol.dual
            assert np.all(np.abs(dual) <= 1.0)
            assert np.array_equal(dual, dual.T)
            upper = float(np.linalg.eigvalsh(a - lam * dual)[-1])
            gap = upper - (float(np.trace(a @ sol.z)) - lam * float(np.abs(sol.z).sum()))
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-4
            if lam == 0.0 and (w_a[-1] - w_a[-2]) >= 0.1:
                ang = _angle(_principal(sol.z), q_a[:, -1])
                worst_angle = max(worst_angle, ang)
                assert ang <= 1e-5
    print(
        f"06 sdp solver correctness PASS: worst certified duality gap {worst_gap:.2e}<=1e-4 "
        f"over 150 solves, all certified, worst eigvec angle {worst_angle:.2e}<=1e-5"
    )


def test_07_invariance_suite():
    rng = np.random.default_rng(2024)

    # centering invariance: a constant shift of every row leaves the
    # centered slice-mean matrix unchanged
    model = ModelSpec(link="atan2", noise_sd=1.0)
    beta = generate_beta(8, 3, "fixed", 0)
    data = sample_sim(model, beta, 500, 11)
    shift = 5.0 * rng.standard_normal(8)
    shifted = Dataset(x=data.x + shift, y=data.y, seed_provenance={"source": "test"})
    v0 = sir_matrix(slice_data(data, 10), "centered").v
    v1 = sir_matrix(slice_data(shifted, 10), "centered").v
    centering_err = float(np.abs(v0 - v1).max())
    assert centering_err <= 1e-10

    # spectrum invariance of the whitened matrix under invertible maps
    beta10 = generate_beta(10, 3, "fixed", 0)
    data10 = sample_sim(ModelSpec(link="linear", noise_sd=1.0), beta10, 2000, 77)
    base_spec = np.linalg.eigvalsh(sir_matrix_whitened(data10, 10).v)
    spectrum_err = 0.0
    for _ in range(3):
        t = rng.standard_normal((10, 10))
        assert np.linalg.cond(t) < 1e4
        mapped = Dataset(x=data10.x @ t, y=data10.y, seed_provenance={"source": "test"})
        spec = np.linalg.eigvalsh(sir_matrix_whitened(mapped, 10).v)
        spectrum_err = max(spectrum_err, float(np.abs(spec - base_spec).max()))
    assert spectrum_err <= 1e-8

    # permutation equivariance: relabeling coordinates relabels the output
    g = rng.standard_normal((12, 12))
    v = (g @ g.T) / 12.0
    for _ in range(5):
        perm = rng.permutation(12)
        vp = v[np.ix_(perm, perm)]
        inv = np.argsort(perm)
        assert np.array_equal(dt_select(vp, 4), np.sort(inv[dt_select(v, 4)]))
        base = dt_sir(v, 4).signs
        moved = dt_sir(vp, 4).signs
        assert np.array_equal(moved, base[perm]) or np.array_equal(moved, -base[perm])
    g8 = rng.standard_normal((8, 8))
    a8 = (g8 @ g8.T) / 8.0
    perm8 = rng.permutation(8)
    ap = a8[np.ix_(perm8, perm8)]
    z = sdp_solve(a8, SdpConfig(lam=0.05)).z
    zp = sdp_solve(ap, SdpConfig(lam=0.05)).z
    sdp_perm_err = float(np.abs(zp - z[np.ix_(perm8, perm8)]).max())
    assert sdp_perm_err <= 1e-8

    # global sign flips never change a match verdict, exhaustively at p=3
    grid = [np.array([i, j, k]) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]
    for sa in grid:
        a = SignedSupport(signs=sa)
        na = SignedSupport(signs=-sa)
        assert signed_support_match(a, na)
        for sb in grid:
            b = SignedSupport(signs=sb)
            nb = SignedSupport(signs=-sb)
            verdict = signed_support_match(a, b)
            assert signed_support_match(na, b) == verdict
            assert signed_support_match(a, nb) == verdict
            assert signed_support_match(na, nb) == verdict
    print(
        f"07 invariance suite PASS: centering {centering_err:.1e}<=1e-10, "
        f"whitened spectrum {spectrum_err:.1e}<=1e-8, sdp permutation "
        f"{sdp_perm_err:.1e}<=1e-8, dt exact, flips exhaustive at p=3"
    )


def test_08_curve_determinism(tmp_path):
    cfg = CurveConfig(
        model=ModelSpec(link="atan2", noise_sd=1.0),
        p=30,
        sparsity="sqrt_p",
        gamma_grid=(1.0, 4.0, 12.0),
        method="dt_sir",
        beta_scheme="random_uniform",
        h=5,
        reps=24,
        master_seed=42,
        estimator_mode="centered",
    )
    paths = {}
    for label, workers in (("serial", 1), ("parallel", 4), ("again", 1)):
        path = tmp_path / f"{label}.csv"
        emit_curve_csv(run_curve(cfg, workers=workers), path)
        paths[label] = path.read_bytes()
    assert paths["serial"] == paths["parallel"] == paths["again"]
    expected = (
        CURVE_HEADER + "\n"
        "atan2,30,5,dt_sir,centered,5,1.0,17,24,0,0.0,false\n"
        "atan2,30,5,dt_sir,centered,5,4.0,65,24,0,0.0,false\n"
        "atan2,30,5,dt_sir,centered,5,12.0,194,24,15,0.625,false\n"
    ).encode()
    assert paths["serial"] == expected
    print("08 curve determinism PASS: workers {1,4} byte-identical and match frozen rows")


def test_09_sliced_stability_decay():
    h_grid = (5, 10, 20, 40)
    n_seeds = 6
    summary = []
    for link in ("sin_plus_identity", "atan2", "cubic", "sinh"):
        model = ModelSpec(link=link, noise_sd=1.0)
        diags = [
            stability_diagnostic(model, h_grid, mc_n=200_000, seed=seed)
            for seed in range(n_seeds)
        ]
        decays = np.array([d.mean_decay for d in diags])
        mean = decays.mean(axis=0)
        se = decays.std(axis=0, ddof=1) / math.sqrt(n_seeds)
        for k in range(len(h_grid) - 1):
            slack = 2.0 * math.sqrt(se[k] ** 2 + se[k + 1] ** 2)
            assert mean[k + 1] - mean[k] <= slack
        kappas = [fit_decay_exponent(d) for d in diags]
        assert all(k < 1.0 for k in kappas)
        summary.append(f"{link}: kappa in [{min(kappas):+.2f}, {max(kappas):+.2f}]")
    print("09 sliced stability PASS: mean decay nonincreasing within 2 SE; " + "; ".join(summary))
