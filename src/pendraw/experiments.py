"""Experiment suites: base scenario, hedging comparison, sensitivity sweeps.

Every suite writes CSV files with a fixed 9-significant-digit decimal format
and LF line endings, so identical inputs produce byte-identical outputs. The
printed summary (seed, runtimes, floor-hit diagnostics) is not part of the
CSV contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, List, Sequence

import numpy as np

from .config import ExperimentConfig, build_model
from .mortality import ConfigError, death_time_distribution, simulate_paths
from .numerics import TimeGrid
from .scheme import (NO_BOND, OPTIMAL, ComparisonReport, SchemeTrajectory,
                     compare_strategies, discounted_totals, g_surface,
                     simulate_scheme)

_N_SAMPLE_PATHS = 3


def format_number(value) -> str:
    """Fixed CSV number formatting: 9 significant digits for floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def write_csv(rows: Iterable[Sequence], schema: Sequence[str], path) -> Path:
    """Comma-separated output with a header row and LF endings."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(schema) + "\n")
        for row in rows:
            if len(row) != len(schema):
                raise ConfigError(
                    f"row of length {len(row)} does not match schema "
                    f"of length {len(schema)}")
            fh.write(",".join(format_number(v) for v in row) + "\n")
    return path


@dataclass
class ExperimentResult:
    files: List[Path]
    summary: str


def _mortality_rows(paths, dist):
    times = paths.grid.nodes
    n_sample = min(_N_SAMPLE_PATHS, paths.n_paths)
    for k, t in enumerate(times):
        sample = [paths.survival[i, k] for i in range(n_sample)]
        sample += [""] * (_N_SAMPLE_PATHS - n_sample)
        yield (t, *sample, paths.survival[:, k].mean(),
               dist.mean_cdf[k], dist.mean_density[k])


_MORTALITY_SCHEMA = ["time", "survival_path1", "survival_path2", "survival_path3",
                     "mean_survival", "mean_death_cdf", "mean_death_density"]

_TRAJECTORY_SCHEMA = ["time", "mean_wealth", "mean_withdraw", "mean_compensation",
                      "w_stock", "w_bond", "w_cash", "mean_survival"]


def _trajectory_rows(traj: SchemeTrajectory):
    times = traj.grid.nodes
    for k, t in enumerate(times):
        yield (t, traj.wealth[:, k].mean(), traj.withdraw[:, k].mean(),
               traj.compensation[:, k].mean(), traj.stock_weight[:, k].mean(),
               traj.bond_weight[:, k].mean(), traj.cash_weight[:, k].mean(),
               traj.survival[:, k].mean())


def _weights_rows(traj: SchemeTrajectory):
    times = traj.grid.nodes
    for k, t in enumerate(times):
        yield (t, traj.stock_weight[:, k].mean(), traj.bond_weight[:, k].mean(),
               traj.cash_weight[:, k].mean())


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured suite; returns written files and a text summary."""
    t_start = time.perf_counter()
    model = build_model(cfg)
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
    floor_hits = 0

    if cfg.experiment == "base":
        dist = death_time_distribution(paths)
        files.append(write_csv(_mortality_rows(paths, dist), _MORTALITY_SCHEMA,
                               out / "mortality.csv"))
        traj = simulate_scheme(model, scenario, market, OPTIMAL, paths)
        floor_hits = traj.floor_hits
        files.append(write_csv(_weights_rows(traj), ["time", "w_stock", "w_bond",
                                                     "w_cash"],
                               out / "weights.csv"))
        files.append(write_csv(_trajectory_rows(traj), _TRAJECTORY_SCHEMA,
                               out / "trajectory.csv"))
        totals = discounted_totals(traj, market.r)
        lines.append(f"mean discounted benefit: {totals.mean_benefit:.6g}")
        lines.append(f"mean discounted compensation: {totals.mean_compensation:.6g}")

    elif cfg.experiment == "compare":
        report = compare_strategies(model, scenario, market, NO_BOND, OPTIMAL,
                                    paths=paths)
        floor_hits = report.traj_a.floor_hits + report.traj_b.floor_hits
        n_sample = min(_N_SAMPLE_PATHS, scenario.n_paths)

        def rows():
            for k, t in enumerate(report.times):
                per_path = [report.withdraw_gain[i, k] for i in range(n_sample)]
                per_path += [report.compensation_gain[i, k] for i in range(n_sample)]
                yield (t, *per_path, report.mean_withdraw_gain[k],
                       report.mean_compensation_gain[k])

        schema = (["time"]
                  + [f"withdraw_gain_path{i+1}" for i in range(n_sample)]
                  + [f"compensation_gain_path{i+1}" for i in range(n_sample)]
                  + ["mean_withdraw_gain", "mean_compensation_gain"])
        files.append(write_csv(rows(), schema, out / "comparison.csv"))
        files.append(write_csv(
            [("no_bond", report.totals_a.mean_benefit,
              report.totals_a.mean_compensation),
             ("optimal", report.totals_b.mean_benefit,
              report.totals_b.mean_compensation)],
            ["arm", "mean_discounted_benefit", "mean_discounted_compensation"],
            out / "totals.csv"))
        lines.append(f"discounted benefit improvement: "
                     f"{report.benefit_improvement:+.4%}")
        lines.append(f"discounted compensation improvement: "
                     f"{report.compensation_improvement:+.4%}")

    elif cfg.experiment == "sweep":
        if cfg.sweep_var is None or not cfg.sweep_values:
            raise ConfigError("sweep requires sweep_var and sweep_values")
        # every arm is compared with one reference arm, simulated once: the
        # no-bond policy (theta1) or no risk sharing (phi)
        if cfg.sweep_var == "theta1":
            surface = g_surface(model, scenario, market, paths)
            ref = simulate_scheme(model, scenario, market, NO_BOND, paths,
                                  surface=surface)
        else:
            ref = simulate_scheme(model, replace(scenario, phi=0.0), market,
                                  OPTIMAL, paths)
        floor_hits = ref.floor_hits
        summary_rows = []
        for i, value in enumerate(cfg.sweep_values):
            if cfg.sweep_var == "theta1":
                traj = simulate_scheme(model, scenario,
                                       replace(market, theta_1=value), OPTIMAL,
                                       paths, surface=surface)
            else:
                traj = simulate_scheme(model, replace(scenario, phi=value),
                                       market, OPTIMAL, paths)
            report = ComparisonReport.of(ref, market.r, traj, market.r)
            floor_hits += traj.floor_hits

            def rows():
                for k, t in enumerate(report.times):
                    yield (t, value, traj.stock_weight[:, k].mean(),
                           traj.bond_weight[:, k].mean(),
                           traj.cash_weight[:, k].mean(),
                           report.mean_withdraw_gain[k],
                           report.mean_compensation_gain[k])

            files.append(write_csv(
                rows(),
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
            summary_rows,
            ["value", "mean_discounted_benefit", "mean_discounted_compensation",
             "benefit_improvement", "compensation_improvement"],
            out / f"sweep_{cfg.sweep_var}_summary.csv"))
    else:
        raise ConfigError(f"unknown experiment kind {cfg.experiment!r}")

    lines.append(f"floor hits: {floor_hits}")
    lines.append(f"runtime: {time.perf_counter() - t_start:.2f}s")
    lines.append("files: " + ", ".join(str(f) for f in files))
    return ExperimentResult(files=files, summary="\n".join(lines))
