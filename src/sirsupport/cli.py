"""Command line interface.

Subcommands: simulate, curve, diagnose, recover, sdp-solve.  Options can
also come from a ``--config`` INI file with one section per command.  A
key is the long flag without its dashes (``noise-sd``, ``gamma-grid``,
``H``, ``lambda``), matched case-insensitively.  The section's values
become the command's defaults, so explicit flags always win.  A key in
the section that names none of the command's options is an error; keys
inherited from ``[DEFAULT]`` that the command lacks are ignored.  Exit
codes: 0 on success, 1 on configuration or input-format errors, 2 on
numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from .curves import SPARSITY_RULES, CurveConfig, run_curve, stability_diagnostic
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


class _CommandParser(_Parser):
    """Raise on a bad option value (flag or INI key), so ``main`` returns 1."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _underscored(text: str) -> str:
    """Accept hyphenated spellings of underscored names (dt-sir)."""
    return text.replace("-", "_")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _sparsity(text: str) -> int | str:
    return text if text in SPARSITY_RULES else int(text)


def _require(args, *dests: str) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            raise InvalidArgumentError(f"missing required option --{dest.replace('_', '-')}")


def _ini_defaults(path: str, command: argparse.ArgumentParser, section: str) -> dict[str, str]:
    """The command's section of an INI file, keyed by option dest.

    A key is a long flag without its dashes.  configparser lower-cases
    keys, so they match flags case-insensitively.  A key the section
    sets itself must name an option; one it inherits from [DEFAULT] and
    the command lacks is ignored.
    """
    ini = configparser.ConfigParser()
    with open(path) as fh:
        ini.read_file(fh)
    if not ini.has_section(section):
        return {}
    dests = {
        flag[2:].lower(): action.dest
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and action.dest not in ("help", "config")
    }
    defaults = {}
    for key, value in ini.items(section):
        if key in dests:
            defaults[dests[key]] = value
        elif key not in ini.defaults():
            raise InvalidArgumentError(f"{path}: unknown key {key!r} in section [{section}]")
    return defaults


def _ensure_out(out: str) -> str:
    # called once a command's input is checked and its result computed,
    # so a rejected run leaves no output folder behind
    os.makedirs(out, exist_ok=True)
    return out


def _manifest(args, out: str, seed: int | None) -> None:
    manifest = RunManifest(
        command=args.command,
        config_path=args.config,
        output_dir=out,
        seed=seed,
        version=__version__,
    )
    # sdp-solve accepts --seed but draws nothing random, so it records no seed
    skip = {"command", "func", "config"} | ({"seed"} if seed is None else set())
    effective = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(args).items() if k not in skip
    }
    path = write_manifest(manifest, effective, os.path.join(out, "manifest.json"))
    print(f"wrote {path}")


def _cmd_simulate(args) -> int:
    _require(args, "p", "s", "n")
    model = ModelSpec(link=args.model, noise_sd=args.noise_sd)
    # independent child seeds for the direction and the sample
    beta_seed, data_seed = (int(v) for v in np.random.SeedSequence(args.seed).generate_state(2, dtype=np.uint64))
    beta = generate_beta(args.p, args.s, args.beta_scheme, beta_seed)
    data = sample_sim(model, beta, args.n, data_seed)
    out = _ensure_out(args.out)
    path = emit_dataset_csv(data, os.path.join(out, "dataset.csv"))
    print(f"wrote {path}")
    _manifest(args, out, args.seed)
    return 0


def _cmd_curve(args) -> int:
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
    out = _ensure_out(args.out)
    path = emit_curve_csv(curve, os.path.join(out, "curve.csv"))
    print(f"wrote {path}")
    _manifest(args, out, args.seed)
    return 0


def _cmd_diagnose(args) -> int:
    model = ModelSpec(link=args.model, noise_sd=args.noise_sd)
    diag = stability_diagnostic(model, args.h_grid, args.mc_n, args.seed)
    out = _ensure_out(args.out)
    path = emit_diagnostic_csv(diag, args.model, args.mc_n, os.path.join(out, "diagnostic.csv"))
    print(f"wrote {path}")
    _manifest(args, out, args.seed)
    return 0


def _cmd_recover(args) -> int:
    _require(args, "data", "s")
    table = ingest_csv(args.data, args.y_column)
    if table.n_dropped:
        print(f"dropped {table.n_dropped} rows with missing values", file=sys.stderr)
    report = recover_real(table, args.s, args.H, args.method, args.seed)
    out = _ensure_out(args.out)
    path = emit_recovery_csv(report, os.path.join(out, "recovery.csv"))
    print(f"wrote {path}")
    _manifest(args, out, args.seed)
    return 0


def _cmd_sdp_solve(args) -> int:
    _require(args, "matrix")
    a = read_matrix_csv(args.matrix)
    lam = getattr(args, "lambda")
    if lam is None:
        if args.s is None:
            raise InvalidArgumentError("provide --lambda, or --s to derive the penalty")
        lam = default_lambda(a, args.s)
    sol = sdp_solve(a, SdpConfig(lam=lam, max_iter=args.max_iter, tol=args.tol))
    out = _ensure_out(args.out)
    z_path = emit_matrix_csv(sol.z, os.path.join(out, "z.csv"))
    print(f"wrote {z_path}")
    diagnostics = {
        "objective": sol.objective,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "rank1_gap": sol.rank1_gap,
        "duality_gap": sol.duality_gap,
        "lambda": lam,
    }
    diag_path = os.path.join(out, "diagnostics.json")
    with open(diag_path, "w", newline="\n") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {diag_path}")
    _manifest(args, out, None)
    return 0


def _build_parser() -> tuple[_Parser, dict[str, _CommandParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = _Parser(prog="sirsupport", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sirsupport {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(name, func, summary):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="INI config file with a section per command")
        sp.add_argument("--seed", type=_seed, default=0, help="master seed")
        sp.add_argument("--out", default=".", help="output directory (default: current directory)")
        sp.set_defaults(func=func)
        return sp

    def model(sp):
        sp.add_argument("--model", default="linear", help="link name")
        sp.add_argument("--noise-sd", type=float, default=1.0, help="noise standard deviation")

    sp = command("simulate", _cmd_simulate, "emit a synthetic single index dataset")
    sp.add_argument("--p", type=int, help="dimension")
    sp.add_argument("--s", type=int, help="sparsity")
    sp.add_argument("--n", type=int, help="sample size")
    model(sp)
    sp.add_argument("--beta-scheme", default="fixed", help="fixed or random_uniform")

    sp = command("curve", _cmd_curve, "run a seeded efficiency curve")
    sp.add_argument("--p", type=int, help="dimension")
    sp.add_argument("--sparsity", type=_sparsity, default="sqrt_p", help="integer, sqrt_p, or log_p")
    model(sp)
    sp.add_argument("--beta-scheme", default="fixed")
    sp.add_argument("--method", type=_underscored, default="dt_sir", help="dt-sir or sdp")
    sp.add_argument("--mode", default="centered", help="raw, centered, or whitened")
    sp.add_argument("--H", type=int, default=10, help="number of slices")
    sp.add_argument("--gamma-grid", type=_floats, help="comma-separated rescaled sample sizes")
    sp.add_argument("--reps", type=int, default=500, help="replicates per grid point")
    sp.add_argument("--lambda", type=float, help="fixed penalty for the sdp method")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes; results identical for any count")

    sp = command("diagnose", _cmd_diagnose, "sliced-stability diagnostic for a model")
    model(sp)
    sp.add_argument("--h-grid", type=_ints, default=(5, 10, 20, 40), help="comma-separated slice counts")
    sp.add_argument("--mc-n", type=int, default=200_000, help="Monte-Carlo sample size")

    sp = command("recover", _cmd_recover, "rank variables of a CSV dataset")
    sp.add_argument("--data", help="input CSV path")
    sp.add_argument("--y-column", default="y", help="response column name (default y)")
    sp.add_argument("--s", type=int, help="number of variables to select")
    sp.add_argument("--H", type=int, default=10, help="number of slices")
    sp.add_argument("--method", default="dt", help="dt or sdp")

    sp = command("sdp-solve", _cmd_sdp_solve, "solve the penalized relaxation on a matrix")
    sp.add_argument("--matrix", help="CSV path of a square symmetric matrix")
    sp.add_argument("--lambda", type=float, help="penalty level")
    sp.add_argument("--s", type=int, help="sparsity used to derive the penalty when --lambda is absent")
    sp.add_argument("--tol", type=float, default=1e-7, help="relative duality-gap tolerance")
    sp.add_argument("--max-iter", type=int, default=20000, help="iteration cap")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # INI values become string defaults, which argparse converts with each option's type
            command = commands[args.command]
            command.set_defaults(**_ini_defaults(args.config, command, args.command))
            args = parser.parse_args(argv)
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
