"""Experiment suites: base scenario, hedging comparison, sensitivity sweeps.

The hedging comparison and both sweeps run one loop (``_reports``): one G
surface, one reference arm simulated once, and each arm compared with it on
the same paths, its file written before the next arm is simulated. The
comparison is the theta1 sweep of one arm at the configured theta_1.

Every CSV is written by ``write_csv`` from columns, not rows. A column is
either an equal-length 1-D array or list, or a ``str`` constant repeated on
every row (the blank ``lambda2`` of a single-population dump). One format
rule, ``_code``, maps a column's numpy dtype kind to its ``%``-code: floats
``%.9g`` (9 significant digits), integers and bools ``%d``, strings ``%s``;
``format_number`` applies it to one value, for ``policy`` and for every
value the writer's kernel leaves to it.

The writer formats numbers in numpy with the ``%.9g`` kernel of
``csvkernel``, for float, int, uint and bool columns alike (an integer
below 1e9 in magnitude prints the same under ``%.9g`` as under ``%d``), in
blocks of ``_BLOCK_ROWS`` rows, so memory stays bounded however long the
file is. The kernel certifies zero and magnitudes from 1e-299 to the
largest double, except where the scaled mantissa lies within 1e-6 of a
rounding half-way point, well beyond its scaling's 2.3e-7 error. A row
holding any other value (nan, inf, magnitudes below 1e-299, integers from
1e9 on) or a string is formatted field by field with ``format_number``, so
every byte is that of the ``%`` rule. Lines end in LF, so identical inputs
produce byte-identical outputs. The printed summary (seed, runtime,
discounted totals and improvements) is not part of the CSV contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from .config import EXPERIMENT_KINDS, SWEEP_VARS, ExperimentConfig
from .mortality import ConfigError, death_time_distribution, simulate_paths
from .numerics import TimeGrid
from .scheme import (NO_BOND, OPTIMAL, ComparisonReport, discounted_totals,
                     g_surface, simulate_scheme)

_N_SAMPLE_PATHS = 3

# rows per block: the block's slots, masks, temporaries and compaction
# indices (3.8 MB for a hazard dump's rows of 160 slot bytes) stay small next
# to the arrays they are read from, so a long file costs no more memory than
# a short one; numpy's per-call cost is spread over enough rows, and a hazard
# dump was written no faster in blocks of 8 192 and 8% slower in 2 048
_BLOCK_ROWS = 4096


def _code(kind: str) -> str:
    """The ``%``-code for values of numpy dtype kind ``kind``."""
    if kind == "f":
        return "%.9g"
    if kind in "iub":
        return "%d"
    if kind in "US":
        return "%s"
    raise ConfigError(f"cannot write values of dtype kind {kind!r} to CSV")


def format_number(value) -> str:
    """One value formatted as ``write_csv`` formats it in a column: the
    ``%``-code of its dtype kind (``_code``), or a ``str`` verbatim."""
    if isinstance(value, str):
        return value
    return _code(np.asarray(value).dtype.kind) % value


def write_csv(columns: Sequence[Union[np.ndarray, Sequence, str]],
              schema: Sequence[str], path) -> Path:
    """Comma-separated output with a header row and LF endings.

    ``columns[j]`` fills field ``schema[j]``: an array or list gives one value
    per row, a ``str`` is written verbatim on every row. Every array or list
    must have the same length, and at least one must be given.

    A row's bytes are laid out once (``csvkernel._row_layout``): the texts
    between fields (separators, ``str`` constants, the line end) in place,
    and slots for every field. Each block of rows fills the slots and their
    masks column by column (``csvkernel._g9``), and one compaction of the
    bytes under the mask writes the block. A row holding a value that the
    kernel does not certify, or a string, is formatted field by field with
    ``format_number`` and spliced in its place.
    """
    if len(columns) != len(schema):
        raise ConfigError(f"{len(columns)} columns do not match schema "
                          f"of length {len(schema)}")
    texts, arrays = [""], []            # texts[j] precedes field j
    for j, col in enumerate(columns):
        sep = "," if j else ""
        if isinstance(col, str):
            texts[-1] += sep + col
            continue
        arr = np.asarray(col)
        if arr.ndim != 1:
            raise ConfigError(f"a column must be 1-D, got shape {arr.shape}")
        _code(arr.dtype.kind)
        texts[-1] += sep
        texts.append("")
        arrays.append(arr)
    texts[-1] += "\n"
    if not arrays:
        raise ConfigError("at least one column must be an array or list")
    lengths = {arr.shape[0] for arr in arrays}
    if len(lengths) != 1:
        raise ConfigError(f"columns must have one common length, got "
                          f"{sorted(lengths)}")
    n_rows = lengths.pop()
    from . import csvkernel     # compiled at the first write, not at import
    block = max(1, min(n_rows, _BLOCK_ROWS))
    out, keep, fields = csvkernel._row_layout(texts, block)
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write((",".join(schema) + "\n").encode())
        for start in range(0, n_rows, block):
            n = min(block, n_rows - start)
            ok = np.ones(n, bool)
            for arr, (cols, tail) in zip(arrays, fields):
                if arr.dtype.kind in "US":
                    ok[:] = False
                    continue
                x = arr[start:start + n].astype(np.float64)
                ok &= csvkernel._g9(x, out[:n, cols], keep[:n, cols], tail)
                if arr.dtype.kind in "iu":
                    ok &= np.abs(x) < 1e9
            _write_block(fh, out[:n].view(np.uint8), keep[:n].view(bool), ok,
                         texts, arrays, start)
    return path


def _write_block(fh, out, keep, ok, texts, arrays, start) -> None:
    """Writes the bytes of ``out`` under ``keep``, with every row not ``ok``
    formatted by ``format_number`` in its place."""
    if ok.all():
        fh.write(np.compress(keep.ravel(), out.ravel()))
        return
    keep = keep & ok[:, None]
    data = np.compress(keep.ravel(), out.ravel())
    ends = np.cumsum(keep.sum(axis=1))
    done = 0
    for i in np.flatnonzero(~ok).tolist():
        fields = [format_number(arr[start + i].item()) for arr in arrays]
        text = texts[0] + "".join(map(str.__add__, fields, texts[1:]))
        fh.write(data[done:ends[i]])
        fh.write(text.encode())
        done = ends[i]
    fh.write(data[done:])


def _column_means(a: np.ndarray) -> np.ndarray:
    """``a[:, k].mean()`` for every k, bit for bit: each mean reduces one
    contiguous row of the transpose, as the strided column would be reduced
    (``a.mean(axis=0)`` sums in another order)."""
    return np.ascontiguousarray(a.T).mean(axis=1)


@dataclass
class ExperimentResult:
    files: List[Path]
    summary: str


_MORTALITY_SCHEMA = ["time", "survival_path1", "survival_path2", "survival_path3",
                     "mean_survival", "mean_death_cdf", "mean_death_density"]

_TRAJECTORY_SCHEMA = ["time", "mean_wealth", "mean_withdraw", "mean_compensation",
                      "w_stock", "w_bond", "w_cash", "mean_survival"]


def _weight_columns(traj) -> list:
    return [_column_means(traj.stock_weight), _column_means(traj.bond_weight),
            _column_means(traj.cash_weight)]


def _check_inputs(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment kind must be one of {EXPERIMENT_KINDS}, "
                          f"got {cfg.experiment!r}")
    if cfg.experiment == "sweep" and (cfg.sweep_var not in SWEEP_VARS
                                      or not cfg.sweep_values):
        raise ConfigError(f"a sweep needs --var and --values, or [experiment] "
                          f"sweep_var and sweep_values (sweep_var one of "
                          f"{SWEEP_VARS})")
    if cfg.experiment == "sweep":
        for value in cfg.sweep_values:
            _arm_inputs(cfg.sweep_var, value, cfg.scenario, cfg.market)


def _arm_inputs(var: str, value, scenario, market):
    """(scenario, market) of the arm at ``value`` of ``var``; building them
    runs the classes' own checks of the value."""
    if var == "theta1":
        return scenario, replace(market, theta_1=value)
    return replace(scenario, phi=value), market


def _reports(var: str, values, model, scenario, market, paths):
    """(value, arm, report against the reference arm) for each value of
    ``var``, one arm at a time.

    The reference arm is simulated once: the no-bond policy (theta1) or no
    risk sharing, phi = 0 (phi). Every arm shares one G surface, since
    neither theta1 nor phi enters its pieces.
    """
    surface = g_surface(model, scenario, market, paths)

    def arm(value, kind=OPTIMAL):
        scen, mkt = _arm_inputs(var, value, scenario, market)
        return simulate_scheme(model, scen, mkt, kind, paths, surface=surface)

    ref = arm(market.theta_1, NO_BOND) if var == "theta1" else arm(0.0)
    for value in values:
        traj = arm(value)
        yield value, traj, ComparisonReport.of(ref, traj, market.r)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured suite; returns written files and a text summary.
    The experiment's inputs are checked before any output is made."""
    _check_inputs(cfg)
    t_start = time.perf_counter()
    model = cfg.model
    scenario = cfg.scenario
    market = cfg.market
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    grid = TimeGrid(0.0, scenario.horizon, scenario.dt)
    paths = simulate_paths(model, grid, scenario.n_paths, scenario.seed)
    files: List[Path] = []
    lines = [f"experiment: {cfg.experiment}",
             f"model: {cfg.model_kind}",
             f"paths: {scenario.n_paths}  seed: {scenario.seed}"]

    if cfg.experiment == "base":
        dist = death_time_distribution(paths)
        n_sample = min(_N_SAMPLE_PATHS, paths.n_paths)
        blanks = [""] * (_N_SAMPLE_PATHS - n_sample)
        files.append(write_csv(
            [grid.nodes, *paths.survival[:n_sample], *blanks,
             _column_means(paths.survival), dist.mean_cdf, dist.mean_density],
            _MORTALITY_SCHEMA, out / "mortality.csv"))
        traj = simulate_scheme(model, scenario, market, OPTIMAL, paths)
        weights = _weight_columns(traj)
        files.append(write_csv([grid.nodes, *weights],
                               ["time", "w_stock", "w_bond", "w_cash"],
                               out / "weights.csv"))
        files.append(write_csv(
            [grid.nodes, _column_means(traj.wealth),
             _column_means(traj.withdraw), _column_means(traj.compensation),
             *weights, _column_means(traj.survival)],
            _TRAJECTORY_SCHEMA, out / "trajectory.csv"))
        totals = discounted_totals(traj, market.r)
        lines.append(f"mean discounted benefit: {totals.mean_benefit:.6g}")
        lines.append(f"mean discounted compensation: {totals.mean_compensation:.6g}")

    elif cfg.experiment == "compare":
        [(_, _, report)] = _reports("theta1", [market.theta_1], model,
                                    scenario, market, paths)
        n_sample = min(_N_SAMPLE_PATHS, scenario.n_paths)
        schema = (["time"]
                  + [f"withdraw_gain_path{i+1}" for i in range(n_sample)]
                  + [f"compensation_gain_path{i+1}" for i in range(n_sample)]
                  + ["mean_withdraw_gain", "mean_compensation_gain"])
        files.append(write_csv(
            [report.times, *report.withdraw_gain[:n_sample],
             *report.compensation_gain[:n_sample], report.mean_withdraw_gain,
             report.mean_compensation_gain],
            schema, out / "comparison.csv"))
        totals = (report.totals_a, report.totals_b)
        files.append(write_csv(
            [["no_bond", "optimal"], [t.mean_benefit for t in totals],
             [t.mean_compensation for t in totals]],
            ["arm", "mean_discounted_benefit", "mean_discounted_compensation"],
            out / "totals.csv"))
        lines.append(f"discounted benefit improvement: "
                     f"{report.benefit_improvement:+.4%}")
        lines.append(f"discounted compensation improvement: "
                     f"{report.compensation_improvement:+.4%}")

    else:
        summary_rows = []
        # each arm's file is written before the next arm is simulated
        for i, (value, traj, report) in enumerate(_reports(
                cfg.sweep_var, cfg.sweep_values, model, scenario, market,
                paths)):
            files.append(write_csv(
                [report.times, format_number(value), *_weight_columns(traj),
                 report.mean_withdraw_gain, report.mean_compensation_gain],
                ["time", "value", "w_stock", "w_bond", "w_cash",
                 "mean_withdraw_gain", "mean_compensation_gain"],
                out / f"sweep_{cfg.sweep_var}_{i}.csv"))
            summary_rows.append((value, report.totals_b.mean_benefit,
                                 report.totals_b.mean_compensation,
                                 report.benefit_improvement,
                                 report.compensation_improvement))
            lines.append(f"{cfg.sweep_var} = {value:g}: benefit improvement "
                         f"{report.benefit_improvement:+.4%}, compensation "
                         f"improvement {report.compensation_improvement:+.4%}")
        files.append(write_csv(
            list(zip(*summary_rows)),
            ["value", "mean_discounted_benefit", "mean_discounted_compensation",
             "benefit_improvement", "compensation_improvement"],
            out / f"sweep_{cfg.sweep_var}_summary.csv"))

    lines.append(f"runtime: {time.perf_counter() - t_start:.2f}s")
    lines.append("files: " + ", ".join(str(f) for f in files))
    return ExperimentResult(files=files, summary="\n".join(lines))
