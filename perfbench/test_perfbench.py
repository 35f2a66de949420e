"""Tests of the benchmark itself.

Each workload runs briefly with every check on, and each check is shown
to fail when it is fed a perturbed program output.  Run with

    PYTHONPATH=src python -m pytest -q perfbench
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from tracing import Tracer
from sirsupport.cli import main as cli_main
from sirsupport.curves import CurveConfig, CurvePoint, EfficiencyCurve
from sirsupport.dt import dt_sir
from sirsupport.models import ModelSpec, generate_beta, sample_sim
from sirsupport.sdp import SdpConfig, default_lambda, sdp_solve
from sirsupport.sir import sir_matrix, slice_data

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("dtsir-grid", "sdp-curve", "cli-roundtrip")


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_with_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    env = json.loads(lines[-2])["environment"]
    assert env["seed"] == 0 and env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "dtsir-grid", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- each check fails on a perturbed output ----------------------------------


@pytest.fixture(scope="module")
def replicate():
    beta = generate_beta(100, 10, "fixed")
    data = sample_sim(ModelSpec("atan2"), beta, 1000 + 7, seed=5)  # 7 rows dropped
    v = sir_matrix(slice_data(data, 10, seed=9), "centered")
    return data, v


def test_centered_matrix_check(replicate):
    data, v = replicate
    reference = checks.centered_sir(data.x, data.y, 10, 9)
    checks.check_centered_matrix(v.v, reference)
    bumped = v.v.copy()
    bumped[3, 4] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_centered_matrix(bumped, reference)
    with pytest.raises(checks.CheckFailed):  # another drop seed
        checks.check_centered_matrix(v.v, checks.centered_sir(data.x, data.y, 10, 10))


def test_dt_sign_check(replicate):
    data, v = replicate
    reference = checks.centered_sir(data.x, data.y, 10, 9)
    signs = dt_sir(v, 10).signs.astype(int)
    checks.check_dt_signs(signs, reference, 10)
    checks.check_dt_signs(-signs, reference, 10)
    flipped = signs.copy()
    flipped[np.flatnonzero(flipped)[0]] *= -1
    with pytest.raises(checks.CheckFailed):
        checks.check_dt_signs(flipped, reference, 10)


@pytest.fixture(scope="module")
def solve(replicate):
    _, v = replicate
    lam = default_lambda(v, 10)
    sol = sdp_solve(v, SdpConfig(lam=lam))
    assert sol.converged
    return v.v, lam, sol


def test_sdp_check_accepts_the_solver(solve):
    a, lam, sol = solve
    checks.check_sdp_solution(a, lam, sol.z, sol.objective, checks.fixed_beta(100, 10))


@pytest.mark.parametrize("perturb", ["trace", "asymmetric", "indefinite", "objective"])
def test_sdp_check_rejects(solve, perturb):
    a, lam, sol = solve
    z, objective = sol.z.copy(), sol.objective
    if perturb == "trace":
        z = z * 1.01
    elif perturb == "asymmetric":
        z[0, 1] += 1e-6
    elif perturb == "indefinite":
        # same trace, but a negative diagonal entry
        shift = z[50, 50] + 1e-3
        z[50, 50] -= shift
        z[0, 0] += shift
    else:
        objective += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_sdp_solution(a, lam, z, objective, checks.fixed_beta(100, 10))


def test_sdp_bounds_reject(solve):
    a, lam, sol = solve
    beta = checks.fixed_beta(100, 10)
    _, q = np.linalg.eigh(a)
    candidate = checks.sdp_objective(a, lam, np.outer(q[:, -1], q[:, -1]))
    with pytest.raises(checks.CheckFailed, match="below the feasible"):
        checks.check_sdp_bounds(a, lam, candidate - 1e-3, beta)
    with pytest.raises(checks.CheckFailed, match="weak-duality"):
        checks.check_sdp_bounds(a, lam, sol.objective + 1e-3, beta)


def _curve(successes):
    cfg = CurveConfig(model=ModelSpec("atan2"), p=100, sparsity=10, gamma_grid=(2.0, 30.0),
                      reps=100)
    points = tuple(CurvePoint(gamma=g, n=0, successes=k, reps=100, success_rate=k / 100,
                              skipped=False) for g, k in zip((2.0, 30.0), successes))
    return EfficiencyCurve(config=cfg, points=points)


def test_rate_checks():
    good = _curve((5, 95))
    checks.check_rate_at_most([good], 2.0, 0.10)
    checks.check_rate_at_least([good], 30.0, 0.90)
    with pytest.raises(checks.CheckFailed):
        checks.check_rate_at_most([good, _curve((20, 95))], 2.0, 0.10)
    with pytest.raises(checks.CheckFailed):
        checks.check_rate_at_least([_curve((5, 80))], 30.0, 0.90)


# --- the CLI outputs ---------------------------------------------------------

P, S, N, H = 12, 3, 600, 10


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    data = str(out / "sim" / "dataset.csv")
    common = ["--s", str(S), "--seed", "4"]
    assert cli_main(["simulate", "--p", str(P), "--n", str(N), "--model", "atan2",
                     "--out", str(out / "sim")] + common) == 0
    for method in ("dt", "sdp"):
        assert cli_main(["recover", "--data", data, "--H", str(H), "--method", method,
                         "--out", str(out / method)] + common) == 0
    return out


def _expected():
    beta = checks.fixed_beta(P, S)
    return beta, np.sign(beta).astype(int)


def _rewrite(path, dest, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(dest, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dest


def test_cli_checks_accept_the_program(cli_run):
    beta, signs = _expected()
    x, y = checks.check_dataset_csv(cli_run / "sim" / "dataset.csv", N, P, beta)
    scores = checks.whitened_diagonal(x, y, H)
    checks.check_recovery_csv(cli_run / "dt" / "recovery.csv", P, S, signs, scores)
    checks.check_recovery_csv(cli_run / "sdp" / "recovery.csv", P, S, signs)
    checks.check_manifest(cli_run / "sim" / "manifest.json", "simulate", 4)
    checks.check_manifest(cli_run / "dt" / "manifest.json", "recover", 4)


def _shuffle_scores(rows):
    scores = [r[1] for r in rows[1:]]
    scores[0], scores[-1] = scores[-1], scores[0]
    for r, sc in zip(rows[1:], scores):
        r[1] = sc


def _swap_two_scores(rows):
    # keeps the order by rank but gives two variables each other's score
    rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
    rows[1][0], rows[2][0] = rows[2][0], rows[1][0]
    rows[1][3], rows[2][3] = rows[2][3], rows[1][3]
    rows[1][4], rows[2][4] = rows[2][4], rows[1][4]


def _flip_one_sign(rows):
    chosen = next(r for r in rows[1:] if r[3] == "true")
    chosen[4] = str(-int(chosen[4]))


def _select_another(rows):
    rows[S][3], rows[S + 1][3] = "false", "true"


def _duplicate_rank(rows):
    rows[2][2] = rows[1][2]


@pytest.mark.parametrize("edit", [_shuffle_scores, _swap_two_scores, _flip_one_sign,
                                  _select_another, _duplicate_rank])
def test_recovery_check_rejects(cli_run, tmp_path, edit):
    beta, signs = _expected()
    x, y = checks.check_dataset_csv(cli_run / "sim" / "dataset.csv", N, P, beta)
    scores = checks.whitened_diagonal(x, y, H)
    bad = _rewrite(cli_run / "dt" / "recovery.csv", tmp_path / "recovery.csv", edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_recovery_csv(bad, P, S, signs, scores)


def _nan_cell(rows):
    rows[5][3] = "nan"


def _shift_y(rows):
    for r in rows[1:]:
        r[0] = repr(float(r[0]) + 1.0)


def _drop_row(rows):
    del rows[-1]


@pytest.mark.parametrize("edit", [_nan_cell, _shift_y, _drop_row])
def test_dataset_check_rejects(cli_run, tmp_path, edit):
    beta, _ = _expected()
    bad = _rewrite(cli_run / "sim" / "dataset.csv", tmp_path / "dataset.csv", edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_dataset_csv(bad, N, P, beta)


def test_manifest_check_rejects(cli_run):
    with pytest.raises(checks.CheckFailed):
        checks.check_manifest(cli_run / "sim" / "manifest.json", "simulate", 5)
    with pytest.raises(checks.CheckFailed):
        checks.check_manifest(cli_run / "dt" / "manifest.json", "simulate", 4)


# --- spans -------------------------------------------------------------------


def test_self_time_excludes_children_and_checks():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    wrapped = tracer.wrap(inner, "sir.inner", check=lambda a, k, r: sum(range(20000)))
    with tracer.span("curves.run_curve"):
        wrapped()
        wrapped()
    (outer,) = tracer.durations("curves.run_curve")
    assert len(tracer.durations("sir.inner")) == 2
    covered = sum(tracer.durations("sir.inner")) + sum(tracer.durations("bench.check"))
    assert tracer.self_time("curves.run_curve") == pytest.approx(outer - covered)
    assert tracer.check_time("curves.run_curve") == pytest.approx(
        sum(tracer.durations("bench.check")))
