"""Command-line front end.

Configuration is assembled in three layers: defaults (or a figure preset),
then a JSON config file, then the flags given, each of which sets the
ExperimentConfig field named by its ``dest``; later layers win. Exit codes:
0 success, 2 validation error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .config import ExperimentConfig, preset, PRESET_NAMES, FORMATS
from .errors import NumericalError
from .runner import run

__all__ = ["main", "build_parser"]


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _n_max(text: str) -> int | None:
    if text.lower() in ("auto", "none", "null"):
        return None
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # an absent flag leaves no attribute, so only the flags given override
    parser = argparse.ArgumentParser(
        prog="antizeno",
        argument_default=argparse.SUPPRESS,
        description=(
            "Simulate repeated qubit measurements on an ultrastrongly coupled "
            "qubit-resonator system and emit plot-ready CSV/JSON."
        ),
    )
    parser.add_argument("--version", action="version", version=f"antizeno {__version__}")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="start from a built-in figure preset")
    parser.add_argument("--config", help="JSON config file (keys = ExperimentConfig fields)")
    parser.add_argument("--omega", type=float, help="resonator frequency (GHz; runs read only omega0/omega)")
    parser.add_argument("--omega0", type=float, help="qubit splitting (GHz)")
    parser.add_argument("--g", dest="g_values", type=_float_list, metavar="G[,G...]",
                        help="couplings g/omega (comma-separated)")
    parser.add_argument("--epsilon", dest="epsilon_values", type=_float_list, metavar="E[,E...]",
                        help="detector do-nothing probabilities (comma-separated)")
    parser.add_argument("--n-max", type=_n_max, metavar="N|auto",
                        help="Fock cutoff, or 'auto' to converge it")
    parser.add_argument("--omega-t1", dest="omega_t1_values", type=_float_list, metavar="X[,X...]",
                        help="dimensionless omega*T1 values (comma-separated)")
    parser.add_argument("--ratio", type=float, help="T2/T1 period ratio")
    parser.add_argument("--n-measurements", type=int, help="events per schedule")
    parser.add_argument("--jitter", dest="jitter_width", type=float, metavar="W",
                        help="jitter half-window as dimensionless omega*dt")
    parser.add_argument("--runs", type=int, help="jitter ensemble size")
    parser.add_argument("--seed", type=int, help="base seed (any integer >= 0)")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=FORMATS, help="output format")
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = vars(args)
    config = preset(flags.pop("preset")) if "preset" in flags else ExperimentConfig()
    if "config" in flags:
        with open(flags.pop("config"), encoding="utf-8") as handle:
            file_values = json.load(handle)
        if not isinstance(file_values, dict):
            raise ValueError("config file must contain a JSON object")
        config = ExperimentConfig.from_dict({**config.to_dict(), **file_values})
    return dataclasses.replace(config, **flags)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's refusal (2, usage on stderr), --help or --version (0)
        return exc.code
    try:
        config = _assemble_config(args)
        result = run(config)
    except ValueError as exc:
        print(f"antizeno: validation error [{_origin(exc)}]: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"antizeno: numerical failure [{_origin(exc)}]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"antizeno: i/o error: {exc}", file=sys.stderr)
        return 4
    for path in result.paths:
        print(path)
    return 0


def _origin(exc: Exception) -> str:
    module = type(exc).__module__
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    if tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", module)
    return module


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
