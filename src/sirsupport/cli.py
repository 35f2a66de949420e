"""Command line interface.

Subcommands: simulate, curve, diagnose, recover, sdp-solve.  Options can
come from a ``--config`` INI file with one section per command; explicit
command-line flags always win.  Exit codes: 0 on success, 1 on
configuration or input-format errors, 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from .curves import CurveConfig, run_curve, stability_diagnostic
from .dataio import (
    RunManifest,
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
from .errors import IngestError, InvalidArgumentError, NumericalError, SirSupportError
from .models import ModelSpec, generate_beta, sample_sim
from .sdp import SdpConfig, default_lambda, sdp_solve
from .version import __version__


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap to 1 (configuration error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _as_int(text: str) -> int:
    return int(text)


def _as_float(text: str) -> float:
    return float(text)


def _as_str(text: str) -> str:
    return text


def _as_name(text: str) -> str:
    """Accept hyphenated spellings of underscored names (dt-sir, log-p)."""
    return text.replace("-", "_")


def _as_floats(text: str) -> tuple[float, ...]:
    parts = [t for t in text.replace(",", " ").split() if t]
    return tuple(float(t) for t in parts)


def _as_ints(text: str) -> tuple[int, ...]:
    parts = [t for t in text.replace(",", " ").split() if t]
    return tuple(int(t) for t in parts)


def _as_sparsity(text: str):
    if text in ("sqrt_p", "log_p"):
        return text
    return int(text)


class _Resolver:
    """Layered option lookup: command line, then config file, then default."""

    def __init__(self, args: argparse.Namespace, section: dict[str, str]):
        self.args = args
        self.section = section
        self.effective: dict = {}

    def get(self, key: str, convert, default=None, required: bool = False):
        attr = key.replace("-", "_")
        raw = getattr(self.args, attr, None)
        if raw is None:
            # reserved words (lambda) get a trailing underscore as dest
            raw = getattr(self.args, attr + "_", None)
        if raw is None:
            raw = self.section.get(key)
        if raw is None:
            if required:
                raise InvalidArgumentError(f"missing required option --{key}")
            value = default
        else:
            try:
                value = convert(raw)
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(f"bad value for --{key}: {raw!r} ({exc})") from None
        self.effective[key.replace("-", "_")] = value
        return value


def _load_section(config_path: str | None, section: str) -> dict[str, str]:
    if config_path is None:
        return {}
    parser = configparser.ConfigParser()
    with open(config_path) as fh:
        parser.read_file(fh)
    if parser.has_section(section):
        return dict(parser.items(section))
    return {}


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _manifest(command: str, args, out: str, seed, resolver: _Resolver) -> None:
    manifest = RunManifest(
        command=command,
        config_path=args.config,
        output_dir=out,
        seed=seed,
        version=__version__,
    )
    effective = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in resolver.effective.items()
    }
    path = write_manifest(manifest, effective, os.path.join(out, "manifest.json"))
    print(f"wrote {path}")


def _cmd_simulate(args) -> int:
    res = _Resolver(args, _load_section(args.config, "simulate"))
    model_name = res.get("model", _as_str, "linear")
    noise_sd = res.get("noise-sd", _as_float, 1.0)
    p = res.get("p", _as_int, required=True)
    s = res.get("s", _as_int, required=True)
    n = res.get("n", _as_int, required=True)
    scheme = res.get("beta-scheme", _as_str, "fixed")
    seed = res.get("seed", _as_int, 0)
    out = _ensure_out(res.get("out", _as_str, "."))
    model = ModelSpec(link=model_name, noise_sd=noise_sd)
    # independent child seeds for the direction and the sample
    beta_seed, data_seed = (int(v) for v in np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64))
    beta = generate_beta(p, s, scheme, beta_seed)
    data = sample_sim(model, beta, n, data_seed)
    path = emit_dataset_csv(data, os.path.join(out, "dataset.csv"))
    print(f"wrote {path}")
    _manifest("simulate", args, out, seed, res)
    return 0


def _cmd_curve(args) -> int:
    res = _Resolver(args, _load_section(args.config, "curve"))
    model_name = res.get("model", _as_str, "linear")
    noise_sd = res.get("noise-sd", _as_float, 1.0)
    p = res.get("p", _as_int, required=True)
    sparsity = res.get("sparsity", _as_sparsity, "sqrt_p")
    method = res.get("method", _as_name, "dt_sir")
    mode = res.get("mode", _as_str, "centered")
    h = res.get("H", _as_int, 10)
    gamma_grid = res.get("gamma-grid", _as_floats, required=True)
    reps = res.get("reps", _as_int, 500)
    scheme = res.get("beta-scheme", _as_str, "fixed")
    seed = res.get("seed", _as_int, 0)
    lam = res.get("lambda", _as_float, None)
    workers = res.get("workers", _as_int, 1)
    out = _ensure_out(res.get("out", _as_str, "."))
    cfg = CurveConfig(
        model=ModelSpec(link=model_name, noise_sd=noise_sd),
        p=p,
        sparsity=sparsity,
        gamma_grid=gamma_grid,
        method=method,
        beta_scheme=scheme,
        h=h,
        reps=reps,
        master_seed=seed,
        estimator_mode=mode,
        sdp_lambda=lam,
    )
    curve = run_curve(cfg, workers=workers)
    path = emit_curve_csv(curve, os.path.join(out, "curve.csv"))
    print(f"wrote {path}")
    _manifest("curve", args, out, seed, res)
    return 0


def _cmd_diagnose(args) -> int:
    res = _Resolver(args, _load_section(args.config, "diagnose"))
    model_name = res.get("model", _as_str, "linear")
    noise_sd = res.get("noise-sd", _as_float, 1.0)
    h_grid = res.get("h-grid", _as_ints, (5, 10, 20, 40))
    mc_n = res.get("mc-n", _as_int, 200_000)
    seed = res.get("seed", _as_int, 0)
    out = _ensure_out(res.get("out", _as_str, "."))
    model = ModelSpec(link=model_name, noise_sd=noise_sd)
    diag = stability_diagnostic(model, h_grid, mc_n, seed)
    path = emit_diagnostic_csv(diag, model_name, mc_n, os.path.join(out, "diagnostic.csv"))
    print(f"wrote {path}")
    _manifest("diagnose", args, out, seed, res)
    return 0


def _cmd_recover(args) -> int:
    res = _Resolver(args, _load_section(args.config, "recover"))
    data_path = res.get("data", _as_str, required=True)
    y_column = res.get("y-column", _as_str, "y")
    s = res.get("s", _as_int, required=True)
    h = res.get("H", _as_int, 10)
    method = res.get("method", _as_str, "dt")
    seed = res.get("seed", _as_int, 0)
    out = _ensure_out(res.get("out", _as_str, "."))
    table = ingest_csv(data_path, y_column)
    if table.n_dropped:
        print(f"dropped {table.n_dropped} rows with missing values", file=sys.stderr)
    report = recover_real(table, s, h, method, seed)
    path = emit_recovery_csv(report, os.path.join(out, "recovery.csv"))
    print(f"wrote {path}")
    _manifest("recover", args, out, seed, res)
    return 0


def _cmd_sdp_solve(args) -> int:
    res = _Resolver(args, _load_section(args.config, "sdp-solve"))
    matrix_path = res.get("matrix", _as_str, required=True)
    lam = res.get("lambda", _as_float, None)
    s = res.get("s", _as_int, None)
    tol = res.get("tol", _as_float, 1e-7)
    max_iter = res.get("max-iter", _as_int, 20000)
    out = _ensure_out(res.get("out", _as_str, "."))
    a = read_matrix_csv(matrix_path)
    if lam is None:
        if s is None:
            raise InvalidArgumentError("provide --lambda, or --s to derive the penalty")
        lam = default_lambda(a, s)
    sol = sdp_solve(a, SdpConfig(lam=lam, max_iter=max_iter, tol=tol))
    z_path = emit_matrix_csv(sol.z, os.path.join(out, "z.csv"))
    print(f"wrote {z_path}")
    diagnostics = {
        "objective": sol.objective,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "residual": sol.residual,
        "rank1_gap": sol.rank1_gap,
        "duality_gap": sol.duality_gap,
        "lambda": lam,
    }
    diag_path = os.path.join(out, "diagnostics.json")
    with open(diag_path, "w", newline="\n") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {diag_path}")
    _manifest("sdp-solve", args, out, None, res)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sirsupport", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sirsupport {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="INI config file with a section per command")
        sp.add_argument("--seed", help="master seed")
        sp.add_argument("--out", help="output directory (default: current directory)")

    sp = sub.add_parser("simulate", help="emit a synthetic single index dataset")
    common(sp)
    sp.add_argument("--p", help="dimension")
    sp.add_argument("--s", help="sparsity")
    sp.add_argument("--n", help="sample size")
    sp.add_argument("--model", help="link name")
    sp.add_argument("--noise-sd", help="noise standard deviation")
    sp.add_argument("--beta-scheme", help="fixed or random_uniform")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("curve", help="run a seeded efficiency curve")
    common(sp)
    sp.add_argument("--p", help="dimension")
    sp.add_argument("--sparsity", help="integer, sqrt_p, or log_p")
    sp.add_argument("--model", help="link name")
    sp.add_argument("--noise-sd")
    sp.add_argument("--beta-scheme")
    sp.add_argument("--method", help="dt-sir or sdp")
    sp.add_argument("--mode", help="raw, centered, or whitened")
    sp.add_argument("--H", help="number of slices")
    sp.add_argument("--gamma-grid", help="comma-separated rescaled sample sizes")
    sp.add_argument("--reps", help="replicates per grid point")
    sp.add_argument("--lambda", dest="lambda_", help="fixed penalty for the sdp method")
    sp.add_argument("--workers", help="parallel worker count")
    sp.set_defaults(func=_cmd_curve)

    sp = sub.add_parser("diagnose", help="sliced-stability diagnostic for a model")
    common(sp)
    sp.add_argument("--model")
    sp.add_argument("--noise-sd")
    sp.add_argument("--h-grid", help="comma-separated slice counts")
    sp.add_argument("--mc-n", help="Monte-Carlo sample size")
    sp.set_defaults(func=_cmd_diagnose)

    sp = sub.add_parser("recover", help="rank variables of a CSV dataset")
    common(sp)
    sp.add_argument("--data", help="input CSV path")
    sp.add_argument("--y-column", help="response column name (default y)")
    sp.add_argument("--s", help="number of variables to select")
    sp.add_argument("--H", help="number of slices")
    sp.add_argument("--method", help="dt or sdp")
    sp.set_defaults(func=_cmd_recover)

    sp = sub.add_parser("sdp-solve", help="solve the penalized relaxation on a matrix")
    common(sp)
    sp.add_argument("--matrix", help="CSV path of a square symmetric matrix")
    sp.add_argument("--lambda", dest="lambda_", help="penalty level")
    sp.add_argument("--s", help="sparsity used to derive the penalty when --lambda is absent")
    sp.add_argument("--tol", help="convergence tolerance")
    sp.add_argument("--max-iter", help="iteration cap")
    sp.set_defaults(func=_cmd_sdp_solve)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SirSupportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
