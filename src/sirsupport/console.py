"""Command line interface.

Subcommands: simulate, curve, diagnose, recover, sdp-solve.  Options can
also come from a ``--config`` INI file with one section per command.  A
key is the long flag without its dashes (``noise-sd``, ``gamma-grid``,
``H``, ``lambda``), matched case-insensitively.  The section's values
become the command's defaults, so explicit flags always win.  A key in
the section that names none of the command's options is an error; keys
inherited from ``[DEFAULT]`` that the command lacks are ignored.  Exit
codes: 0 on success, 1 on configuration, input-format or file-system
errors, 2 on numerical failures.
"""

# No numpy and no estimator layer here: ``--version``, ``--help`` and a bad
# flag are answered before ``main`` imports ``sirsupport.cli``.

from __future__ import annotations

import argparse
import configparser
import sys

from .errors import IngestError, InvalidArgumentError, NumericalError, SirSupportError
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
    """An integer, else the text as a rule name for ``CurveConfig`` to check."""
    try:
        return int(text)
    except ValueError:
        return text


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


def _build_parser() -> tuple[_Parser, dict[str, _CommandParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = _Parser(prog="sirsupport", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sirsupport {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(name, summary):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="INI config file with a section per command")
        sp.add_argument("--seed", type=_seed, default=0, help="master seed")
        sp.add_argument("--out", default=".", help="output directory (default: current directory)")
        return sp

    def model(sp):
        sp.add_argument("--model", default="linear", help="link name")
        sp.add_argument("--noise-sd", type=float, default=1.0, help="noise standard deviation")

    sp = command("simulate", "emit a synthetic single index dataset")
    sp.add_argument("--p", type=int, help="dimension")
    sp.add_argument("--s", type=int, help="sparsity")
    sp.add_argument("--n", type=int, help="sample size")
    model(sp)
    sp.add_argument("--beta-scheme", default="fixed", help="fixed or random_uniform")

    sp = command("curve", "run a seeded efficiency curve")
    sp.add_argument("--p", type=int, help="dimension")
    sp.add_argument("--sparsity", type=_sparsity, default="sqrt_p", help="integer, sqrt_p, or log_p")
    model(sp)
    sp.add_argument("--beta-scheme", default="fixed")
    sp.add_argument("--method", type=_underscored, default="dt_sir", help="dt-sir or sdp")
    sp.add_argument("--mode", default="centered", help="raw or centered")
    sp.add_argument("--H", type=int, default=10, help="number of slices")
    sp.add_argument("--gamma-grid", type=_floats, help="comma-separated rescaled sample sizes")
    sp.add_argument("--reps", type=int, default=500, help="replicates per grid point")
    sp.add_argument("--lambda", type=float, help="fixed penalty for the sdp method")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes; results identical for any count")

    sp = command("diagnose", "sliced-stability diagnostic for a model")
    model(sp)
    sp.add_argument("--h-grid", type=_ints, default=(5, 10, 20, 40), help="comma-separated slice counts")
    sp.add_argument("--mc-n", type=int, default=200_000, help="Monte-Carlo sample size")

    sp = command("recover", "rank variables of a CSV dataset")
    sp.add_argument("--data", help="input CSV path")
    sp.add_argument("--y-column", default="y", help="response column name (default y)")
    sp.add_argument("--s", type=int, help="number of variables to select")
    sp.add_argument("--H", type=int, default=10, help="number of slices")
    sp.add_argument("--method", default="dt", help="dt or sdp")

    sp = command("sdp-solve", "solve the penalized relaxation on a matrix")
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
        from . import cli  # numpy and the estimator layers load only for a command that runs

        run = getattr(cli, "_cmd_" + args.command.replace("-", "_"))
        cli._write_outputs(args, *run(args))
        return 0
    except (InvalidArgumentError, IngestError, OSError, configparser.Error) as exc:
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
