"""Command-line front end.

Subcommands: ``mortality`` (hazard path dump), ``coeffs`` (affine coefficient
curves), ``policy`` (one policy decision), ``simulate`` (base scenario),
``compare`` (hedged vs unhedged), ``sweep`` (sensitivity in theta1 or phi).

``main`` parses a known subcommand first with that subcommand's own parser,
``pendraw <command>``, alone, built without the parser above it, which would
hand it everything after the subcommand anyway. An argument it leaves over,
and any other command line, goes to ``build_parser`` given ``argv[0]``, which
reports it; with no subcommand, an unknown one or ``-h`` first that parser
has all six. All of them parse, print help and report usage errors alike.

Each command loads the config once, with its own ``[experiment] kind`` and
the values of ``--seed``, ``--paths``, ``--out``, ``--var`` and ``--values``
in place of the file's keys (``config.load_config``): ``simulate`` runs as
``base``, ``compare`` and ``sweep`` as themselves, and ``policy``,
``mortality`` and ``coeffs`` load as ``base``, so a file's sweep keys matter
to a sweep only.

Exit codes: 0 success, 1 configuration, usage or I/O error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import (SWEEP_VARS, ExperimentConfig, default_config_path,
                     load_config, parse_sweep_values)
from .control import optimal_policy
from .experiments import format_number, run_experiment, write_csv
from .mortality import ConfigError, baseline_hazard, simulate_paths
from .numerics import NumericalFailure, TimeGrid
from .pricing import LATTICE_STEP, _end_node, _lattice_span, _tau_table

# maturities after the anchor in one ``coeffs`` file (it writes one more
# row, s = t): bounds its size and its rows' reads of the tau pass; the pass
# itself, (s_max - t) / LATTICE_STEP nodes, is bounded by the config's t_max,
# the longest span that ``coeffs`` accepts
MAX_COEFF_ROWS = 10_000


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); argparse would exit 2,
    the code reserved for numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _join_values(argv: list) -> list:
    """Bind the operand of ``--values`` to the flag: argparse takes a negative
    list such as ``-0.0015,-0.003`` for an option, ``--values=...`` it parses."""
    if "--values" in argv[:-1]:
        i = argv.index("--values")
        argv = argv[:i] + [f"--values={argv[i + 1]}"] + argv[i + 2:]
    return argv


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=default_config_path(),
                   help="experiment config file (default: shipped table1.cfg)")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="random seed override")
    p.add_argument("--paths", type=int, default=None, help="path count override")


# subcommands and their help, in help order
_COMMANDS = {"mortality": "simulate hazard paths and dump CSV",
             "coeffs": "affine coefficient curves as CSV",
             "policy": "print one policy decision as CSV",
             "simulate": "base scenario CSVs",
             "compare": "hedged vs unhedged improvement CSVs",
             "sweep": "sensitivity sweep CSVs"}


def _add_command(p: argparse.ArgumentParser, name: str) -> None:
    """The arguments of subcommand ``name``, added to its parser ``p``."""
    _add_common(p)
    if name == "coeffs":
        p.add_argument("--t", type=float, default=0.0,
                       help="anchor time (years)")
        p.add_argument("--s-max", type=float, default=None,
                       help="last maturity (default: horizon), at most "
                            "t_max after --t")
        p.add_argument("--s-step", type=float, default=1.0,
                       help="maturity spacing (years); at most "
                            f"{MAX_COEFF_ROWS} maturities after --t")
    elif name == "policy":
        p.add_argument("--t", type=float, default=0.0)
        p.add_argument("--lambda1", type=float, default=None,
                       help="hazard of population 1 (default: its baseline "
                            "hazard at --t)")
        p.add_argument("--lambda2", type=float, default=None)
        p.add_argument("--wealth", type=float, default=None,
                       help="current wealth (default: scenario y0)")
    elif name == "sweep":
        p.add_argument("--var", choices=SWEEP_VARS, default=None)
        p.add_argument("--values", type=str, default=None,
                       help="comma-separated sweep values")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser; given a subcommand's name, with that
    subcommand's parser only.

    A parser of one subcommand parses that subcommand's arguments as the full
    parser does, and its usage line names all six subcommands, so usage
    errors read the same; any other ``command`` gives the full parser, whose
    help and errors list every subcommand.
    """
    parser = _Parser(
        prog="pendraw",
        description="Stochastic-mortality pension drawdown with a rolling "
                    "longevity bond")
    if command in _COMMANDS:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        _add_command(sub.add_parser(command, help=_COMMANDS[command]),
                     command)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for name in _COMMANDS:
            _add_command(sub.add_parser(name, help=_COMMANDS[name]), name)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """``argv`` parsed: a known subcommand first by its own parser alone, to
    which ``build_parser``'s would hand everything after it; an argument
    left over, and any other ``argv``, by ``build_parser``'s, which parses
    it or reports it."""
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"pendraw {argv[0]}")
        _add_command(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser(argv[0] if argv else None).parse_args(argv)


def _load(args, kind: str = "base") -> ExperimentConfig:
    """The config of a command of experiment kind ``kind``, each flag given
    in place of its key (an unset flag is None, which leaves the key)."""
    values = getattr(args, "values", None)
    flags = {"scheme": {"seed": args.seed, "n_paths": args.paths},
             "experiment": {"kind": kind, "out_dir": args.out,
                            "sweep_var": getattr(args, "var", None),
                            "sweep_values": None if values is None else
                            parse_sweep_values(values, "--values")}}
    return load_config(args.config, flags)


def _cmd_mortality(args) -> int:
    cfg = _load(args)
    sc = cfg.scenario
    grid = TimeGrid(0.0, sc.horizon, sc.dt)
    paths = simulate_paths(cfg.model, grid, sc.n_paths, sc.seed,
                           keep_shocks=False)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # one row per (path, time), path-major
    times = grid.nodes
    # one column per factor's hazard, the second blank for one population
    hazards = [lam.ravel() for lam in paths.hazards]
    hazards += [""] * (2 - len(hazards))
    path = write_csv([np.tile(times, sc.n_paths),
                      np.repeat(np.arange(sc.n_paths), times.size),
                      *hazards, paths.survival.ravel()],
                     ["time", "path_id", "lambda1", "lambda2", "survival"],
                     out / "paths.csv")
    print(f"wrote {path}")
    return 0


def _cmd_coeffs(args) -> int:
    cfg = _load(args)
    model = cfg.model
    s_max = args.s_max if args.s_max is not None else cfg.scenario.horizon
    if not args.t <= s_max:
        raise ConfigError(f"--s-max ({s_max}) must be >= --t ({args.t})")
    if s_max - args.t > cfg.scenario.t_max:
        raise ConfigError(f"--s-max - --t ({s_max - args.t}) must be at most "
                          f"t_max ({cfg.scenario.t_max})")
    if not args.s_step > 0:
        raise ConfigError(f"--s-step must be > 0, got {args.s_step}")
    # the printed s is the repeated sum, rounding and all; the row s = t is
    # the terminal condition, all zeros. The slack past s_max absorbs the
    # sum's rounding; it is a small fraction of the step, so the maturity a
    # step past s_max is never written
    end = s_max + min(1e-9, 1e-3 * args.s_step)
    maturities = [args.t]
    s = args.t + args.s_step
    while s <= end and len(maturities) <= MAX_COEFF_ROWS:
        if s == maturities[-1]:
            raise ConfigError(f"--s-step {args.s_step} does not advance s "
                              f"past {s!r}")
        maturities.append(s)
        s += args.s_step
    if s <= end:
        raise ConfigError(f"--s-step {args.s_step} gives more than "
                          f"{MAX_COEFF_ROWS} maturities after --t")
    # every row is the last node of the table from t to its s, read off the
    # one tau pass, grown once to the last node of the table to s_max
    tt = _tau_table(model, LATTICE_STEP).grow(_lattice_span(args.t, s_max)[0])
    values = [(0.0,) * (1 + model.n_factors)]
    for s in maturities[1:]:
        c, k0 = _end_node(model, tt, args.t, min(s, s_max))
        values.append((k0, *c))
    columns = [[args.t] * len(maturities), maturities, *zip(*values)]
    if model.n_factors == 1:
        columns.append("")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(columns, ["t", "s", "A0_or_C0", "A1_or_C1", "C2"],
                     out / "coeffs.csv")
    print(f"wrote {path}")
    return 0


def _cmd_policy(args) -> int:
    cfg = _load(args)
    model = cfg.model
    if args.lambda2 is not None and model.n_factors == 1:
        raise ConfigError(f"--lambda2 needs a two-population model kind, "
                          f"not {cfg.model_kind}")
    # one hazard per factor: its baseline at t unless --lambda<k> gives it
    lam = [baseline_hazard(args.t, gm) if given is None else given
           for gm, given in zip(model.factors[2], (args.lambda1, args.lambda2))]
    wealth = args.wealth if args.wealth is not None else cfg.scenario.y0
    decision = optimal_policy(model, cfg.scenario, cfg.market, args.t,
                              np.array(lam), wealth)
    f = format_number
    print("t,lambda1,lambda2,wealth,G,withdraw_rate,stock_weight,bond_weight,"
          "cash_weight")
    lam2 = f(lam[1]) if len(lam) > 1 else ""
    print(",".join([f(args.t), f(lam[0]), lam2, f(wealth), f(decision.g),
                    f(decision.withdraw_rate), f(decision.stock_weight),
                    f(decision.bond_weight), f(decision.cash_weight)]))
    return 0


def _cmd_experiment(args, kind: str) -> int:
    print(run_experiment(_load(args, kind)).summary)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(_join_values(argv))
        if args.command == "mortality":
            return _cmd_mortality(args)
        if args.command == "coeffs":
            return _cmd_coeffs(args)
        if args.command == "policy":
            return _cmd_policy(args)
        return _cmd_experiment(args, {"simulate": "base"}.get(args.command,
                                                              args.command))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
