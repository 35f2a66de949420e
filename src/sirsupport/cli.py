"""The commands behind ``sirsupport``: each ``_cmd_*`` computes, ``_write_outputs`` writes.

``sirsupport.console`` parses the arguments and imports this module only
for a command that runs, so this is where numpy and the estimator layers
load.  ``main`` is re-exported from there, so ``python -m sirsupport.cli``
and ``from sirsupport.cli import main`` keep working.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .console import main
from .curves import CurveConfig, run_curve, stability_diagnostic
from .dataio import (
    RunManifest,
    _write_json,
    emit_curve_csv,
    emit_dataset_csv,
    emit_diagnostic_csv,
    emit_matrix_csv,
    emit_recovery_csv,
    ingest_csv,
    read_matrix_csv,
    recover_real,
    write_manifest,
)
from .errors import InvalidArgumentError
from .models import ModelSpec, generate_beta, sample_sim
from .sdp import SdpConfig, default_lambda, sdp_solve
from .version import __version__


def _require(args, *dests: str) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            raise InvalidArgumentError(f"missing required option --{dest.replace('_', '-')}")


def _write_outputs(args, seed: int | None, artifacts) -> None:
    """Create ``--out``, write each artifact in order, then the manifest.

    Each ``_cmd_*`` function only computes: it returns the manifest seed
    and its artifacts, (file name, writer of a path) pairs, and ``main``
    calls this after it returns, so a rejected run leaves no output
    folder behind.
    """
    os.makedirs(args.out, exist_ok=True)
    for name, write in artifacts:
        print(f"wrote {write(os.path.join(args.out, name))}")
    manifest = RunManifest(
        command=args.command,
        config_path=args.config,
        output_dir=args.out,
        seed=seed,
        version=__version__,
    )
    # a seed of None (sdp-solve) keeps --seed out of the manifest
    skip = {"command", "config"} | ({"seed"} if seed is None else set())
    effective = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(args).items() if k not in skip
    }
    print(f"wrote {write_manifest(manifest, effective, os.path.join(args.out, 'manifest.json'))}")


def _cmd_simulate(args):
    _require(args, "p", "s", "n")
    model = ModelSpec(link=args.model, noise_sd=args.noise_sd)
    # independent child seeds for the direction and the sample
    beta_seed, data_seed = (int(v) for v in np.random.SeedSequence(args.seed).generate_state(2, dtype=np.uint64))
    beta = generate_beta(args.p, args.s, args.beta_scheme, beta_seed)
    data = sample_sim(model, beta, args.n, data_seed)
    return args.seed, [("dataset.csv", lambda path: emit_dataset_csv(data, path))]


def _cmd_curve(args):
    _require(args, "p", "gamma_grid")
    cfg = CurveConfig(
        model=ModelSpec(link=args.model, noise_sd=args.noise_sd),
        p=args.p,
        sparsity=args.sparsity,
        gamma_grid=args.gamma_grid,
        method=args.method,
        beta_scheme=args.beta_scheme,
        h=args.H,
        reps=args.reps,
        master_seed=args.seed,
        estimator_mode=args.mode,
        sdp_lambda=getattr(args, "lambda"),
    )
    curve = run_curve(cfg, workers=args.workers)
    return args.seed, [("curve.csv", lambda path: emit_curve_csv(curve, path))]


def _cmd_diagnose(args):
    model = ModelSpec(link=args.model, noise_sd=args.noise_sd)
    diag = stability_diagnostic(model, args.h_grid, args.mc_n, args.seed)
    return args.seed, [
        ("diagnostic.csv", lambda path: emit_diagnostic_csv(diag, args.model, args.mc_n, path))
    ]


def _cmd_recover(args):
    _require(args, "data", "s")
    table = ingest_csv(args.data, args.y_column)
    if table.n_dropped:
        print(f"dropped {table.n_dropped} rows with missing values", file=sys.stderr)
    report = recover_real(table, args.s, args.H, args.method, args.seed)
    return args.seed, [("recovery.csv", lambda path: emit_recovery_csv(report, path))]


def _cmd_sdp_solve(args):
    _require(args, "matrix")
    a = read_matrix_csv(args.matrix)
    lam = getattr(args, "lambda")
    if lam is None:
        if args.s is None:
            raise InvalidArgumentError("provide --lambda, or --s to derive the penalty")
        lam = default_lambda(a, args.s)
    sol = sdp_solve(a, SdpConfig(lam=lam, max_iter=args.max_iter, tol=args.tol))
    diagnostics = {
        "objective": sol.objective,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "rank1_gap": sol.rank1_gap,
        "duality_gap": sol.duality_gap,
        "lambda": lam,
    }
    # sdp-solve accepts --seed but draws nothing random, so it records no seed
    return None, [
        ("z.csv", lambda path: emit_matrix_csv(sol.z, path)),
        ("diagnostics.json", lambda path: _write_json(diagnostics, path)),
    ]


if __name__ == "__main__":
    sys.exit(main())
