"""The four benchmark workloads and the checks on their outputs.

A workload object is driven by ``worker.py`` in this order:

- ``setup()`` loads the workload's config(s) and builds its model(s); it is
  part of ``setup_s``;
- ``prepare()`` draws the inputs from the seed and computes the references
  that do not depend on the timed code (untimed);
- ``run_round()`` is one round of operations, outputs checked; the worker
  times it. It returns the operation count and one list of failure messages
  per operation;
- ``after_round()`` releases the round's outputs (untimed);
- ``finish()`` makes the checks that run once per run (untimed) and returns
  the same pair as ``run_round()``.

The checks are module-level functions of parsed outputs, so that the
self-test can feed them corrupted copies.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import oracles

KINDS = ("ou-single", "cir-single", "ou-sub", "cir-sub")

# 9 significant digits in every printed number: relative rounding <= 5e-9.
PRINT_ROUNDING = 5e-9
Failures = List[List[str]]


def write_config(pendraw, path: Path, kind: str, **scheme) -> Path:
    """The shipped config with another model kind and scheme overrides."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(pendraw.default_config_path())
    cp["model"]["kind"] = kind
    for key, value in scheme.items():
        cp["scheme"][key] = repr(value)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


def run_cli(pendraw, argv: Sequence[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pendraw.cli.main(list(argv))
    return code, out.getvalue()


def read_csv(data: bytes) -> Tuple[List[str], np.ndarray]:
    """Header fields and the numeric body of a CSV written by pendraw."""
    head, _, body = data.partition(b"\n")
    rows = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    return head.decode().split(","), rows


def close(actual, expected, rel: float, scale=None) -> np.ndarray:
    """|actual - expected| <= rel * scale, elementwise; scale defaults to
    |expected|."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.abs(expected) if scale is None else scale
    return np.abs(actual - expected) <= rel * scale


class Workload:
    name = ""

    def __init__(self, pendraw, work: Path, seed: int, tiny: bool):
        self.pd = pendraw
        self.work = work
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def run_round(self) -> Tuple[int, Failures]:
        raise NotImplementedError

    def after_round(self) -> None:
        pass

    def finish(self) -> Tuple[int, Failures]:
        return 0, []


# ---------------------------------------------------------------------------
# policy-cold
# ---------------------------------------------------------------------------

POLICY_FIELDS = ["t", "lambda1", "lambda2", "wealth", "G", "withdraw_rate",
                 "stock_weight", "bond_weight", "cash_weight"]
# The CLI's G against the outer quadrature: on all four kinds at t = 30, with
# hazards drawn as in prepare(), the table lattice and the oracle agreed to
# <= 1.8e-9, and printing adds 5e-9.
G_REL_TOL = 2e-8
# Analytic gradient against oracles.central_gradient, whose truncation
# measured <= 1.5e-8 of the largest component.
GRADIENT_REL_TOL = 1e-6


def parse_policy(stdout: str) -> Optional[Dict[str, float]]:
    lines = stdout.strip().splitlines()
    if len(lines) != 2 or lines[0].split(",") != POLICY_FIELDS:
        return None
    values = lines[1].split(",")
    if len(values) != len(POLICY_FIELDS):
        return None
    try:
        return {k: float(v) if v else math.nan
                for k, v in zip(POLICY_FIELDS, values)}
    except ValueError:
        return None


def check_decision(code: int, dec: Optional[Dict[str, float]], wealth: float,
                   stock_weight: float) -> List[str]:
    """Exact policy facts: beta * G = wealth, weights sum to one, stock weight
    theta_S / sigma_S; every printed number carries 5e-9 rounding."""
    if code != 0:
        return [f"policy exited with {code}"]
    if dec is None:
        return ["policy output is not one CSV row under the expected header"]
    errors = []
    if not (math.isfinite(dec["G"]) and dec["G"] > 0):
        errors.append(f"G = {dec['G']} is not positive")
    if not close(dec["withdraw_rate"] * dec["G"], wealth, 3 * PRINT_ROUNDING):
        errors.append(f"withdraw_rate * G = {dec['withdraw_rate'] * dec['G']!r}"
                      f" != wealth {wealth!r}")
    weights = [dec["stock_weight"], dec["bond_weight"], dec["cash_weight"]]
    if not close(sum(weights), 1.0, 2 * PRINT_ROUNDING,
                 sum(abs(w) for w in weights)):
        errors.append(f"weights sum to {sum(weights)!r}")
    if not close(dec["stock_weight"], stock_weight, 2 * PRINT_ROUNDING):
        errors.append(f"stock weight {dec['stock_weight']!r} != "
                      f"theta_S/sigma_S = {stock_weight!r}")
    return errors


def check_oracle_G(g_cli: float, g_ref: float) -> List[str]:
    if not close(g_cli, g_ref, G_REL_TOL):
        return [f"G = {g_cli!r} but the outer quadrature gives {g_ref!r}"]
    return []


def check_gradient(grad, fd) -> List[str]:
    grad, fd = np.asarray(grad, dtype=float), np.asarray(fd, dtype=float)
    if grad.shape != fd.shape or not np.all(
            close(grad, fd, GRADIENT_REL_TOL, np.max(np.abs(fd)))):
        return [f"gradient {grad.tolist()} but central differences give "
                f"{fd.tolist()}"]
    return []


class PolicyCold(Workload):
    """One ``pendraw policy`` call per (model kind, anchor time)."""

    name = "policy-cold"
    ANCHORS = (0.0, 10.0, 20.0, 30.0)
    HAZARD_SPREAD = 0.2   # log-sd of the drawn hazards around the baseline

    def setup(self):
        self.anchors = (30.0,) if self.tiny else self.ANCHORS
        scheme = {"t_max": 40.0} if self.tiny else {}
        self.configs, self.cfgs, self.models = {}, {}, {}
        for kind in KINDS:
            path = write_config(self.pd, self.work / f"{kind}.cfg", kind, **scheme)
            self.configs[kind] = path
            self.cfgs[kind] = self.pd.load_config(path)
            self.models[kind] = self.pd.build_model(self.cfgs[kind])

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.states = {}
        for kind in KINDS:
            model = self.models[kind]
            gms = [model.gm] if model.n_factors == 1 else [model.gm1, model.gm2]
            for t in self.anchors:
                lam = [float(self.pd.baseline_hazard(t, gm))
                       * math.exp(self.HAZARD_SPREAD * rng.standard_normal())
                       for gm in gms]
                wealth = 100.0 * math.exp(0.5 * rng.standard_normal())
                self.states[(kind, t)] = (lam, wealth)
        # the oracle check sits at the last anchor, where the G integral is
        # shortest; its hazard state still comes from the seed
        self.oracle_anchor = self.anchors[-1]
        self.decisions = {}

    def argv(self, kind, t, lam, wealth):
        argv = ["policy", "--config", str(self.configs[kind]), "--t", repr(t),
                "--lambda1", repr(lam[0]), "--wealth", repr(wealth)]
        if len(lam) == 2:
            argv += ["--lambda2", repr(lam[1])]
        return argv

    def run_round(self):
        failures = []
        for kind in KINDS:
            market = self.cfgs[kind].market
            stock = market.theta_s / market.sigma_s
            for t in self.anchors:
                lam, wealth = self.states[(kind, t)]
                code, out = run_cli(self.pd, self.argv(kind, t, lam, wealth))
                dec = parse_policy(out)
                self.decisions[(kind, t)] = dec
                failures.append([f"{kind} t={t}: {e}" for e in
                                 check_decision(code, dec, wealth, stock)])
        return len(failures), failures

    def finish(self):
        failures = []
        t = self.oracle_anchor
        for kind in KINDS:
            cfg, model = self.cfgs[kind], self.models[kind]
            lam, _ = self.states[(kind, t)]
            dec = self.decisions[(kind, t)]
            if dec is None:
                failures.append([f"{kind} t={t}: no decision to check"])
                continue
            g_ref = oracles.annuity_value(self.pd.pricing, model, cfg.scenario,
                                          cfg.market, t, lam)
            grad = self.pd.annuity_G_gradient(model, cfg.scenario, cfg.market,
                                              t, lam)
            fd = oracles.central_gradient(self.pd.annuity_G, model,
                                          cfg.scenario, cfg.market, t, lam)
            failures.append([f"{kind} t={t}: {e}" for e in
                             check_oracle_G(dec["G"], g_ref)
                             + check_gradient(grad, fd)])
        return len(failures), failures


# ---------------------------------------------------------------------------
# ou-sub-sweep
# ---------------------------------------------------------------------------

SWEEP_HEADER = ["time", "value", "w_stock", "w_bond", "w_cash",
                "mean_withdraw_gain", "mean_compensation_gain"]


def check_sweep(code: int, tables: Sequence[Tuple[List[str], np.ndarray]],
                values: Sequence[float], times: np.ndarray, a1_maturity: float,
                sigma1: float, stock_weight: float) -> List[str]:
    """Per-arm CSV facts and the exact theta1 shift of the mean bond weight.

    The bond weight is -(theta1 + loading * G_l1 / G) / (A1(T) sigma1) and G
    does not depend on theta1, so at every time two arms' mean bond weights
    differ by -(theta1_a - theta1_b) / (A1(T) sigma1) on shared paths.
    """
    if code != 0:
        return [f"sweep exited with {code}"]
    if len(tables) != len(values):
        return [f"{len(tables)} sweep files for {len(values)} values"]
    errors = []
    for (header, rows), value in zip(tables, values):
        if header != SWEEP_HEADER:
            errors.append(f"sweep header {header}")
            continue
        if rows.shape != (times.size, len(SWEEP_HEADER)):
            errors.append(f"sweep file has shape {rows.shape}")
            continue
        if not np.all(close(rows[:, 0], times, PRINT_ROUNDING)):
            errors.append("time column is not the simulation grid")
        if not np.all(rows[:, 1] == value):
            errors.append(f"value column is not {value!r}")
        ws, wb, wc = rows[:, 2], rows[:, 3], rows[:, 4]
        if not np.all(close(ws, stock_weight, 2 * PRINT_ROUNDING)):
            errors.append(f"theta1={value}: w_stock != theta_S/sigma_S")
        total = np.abs(ws) + np.abs(wb) + np.abs(wc)
        if not np.all(close(ws + wb + wc, 1.0, 2 * PRINT_ROUNDING, total)):
            errors.append(f"theta1={value}: weights do not sum to 1")
    if errors:
        return errors
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            wb_i, wb_j = tables[i][1][:, 3], tables[j][1][:, 3]
            shift = -(values[i] - values[j]) / (a1_maturity * sigma1)
            if not np.all(close(wb_i - wb_j, shift, 2 * PRINT_ROUNDING,
                                np.abs(wb_i) + np.abs(wb_j))):
                worst = float(np.max(np.abs(wb_i - wb_j - shift)))
                errors.append(f"theta1 {values[i]} vs {values[j]}: bond "
                              f"weights differ from {shift!r} by up to {worst!r}")
    return errors


class OuSubSweep(Workload):
    """``pendraw sweep --var theta1`` on ou-sub at the shipped grid."""

    name = "ou-sub-sweep"
    VALUES = (-0.0015, -0.003)
    PATHS = 100

    def setup(self):
        scheme = {"horizon": 2.0} if self.tiny else {}
        self.config = write_config(self.pd, self.work / "ou-sub.cfg", "ou-sub",
                                   **scheme)
        self.cfg = self.pd.load_config(self.config)
        self.model = self.pd.build_model(self.cfg)

    def prepare(self):
        sc, market = self.cfg.scenario, self.cfg.market
        self.times = self.pd.TimeGrid(0.0, sc.horizon, sc.dt).nodes
        self.a1_maturity = oracles.a1_ou(self.cfg.b1, market.maturity)
        self.stock_weight = market.theta_s / market.sigma_s
        self.out = self.work / "sweep"
        self.paths = 4 if self.tiny else self.PATHS

    def run_round(self):
        shutil.rmtree(self.out, ignore_errors=True)
        code, _ = run_cli(self.pd, [
            "sweep", "--config", str(self.config), "--var", "theta1",
            "--values=" + ",".join(repr(v) for v in self.VALUES),
            "--paths", str(self.paths), "--seed", str(self.seed),
            "--out", str(self.out)])
        self.tables = []
        if code == 0:
            for i in range(len(self.VALUES)):
                self.tables.append(read_csv(
                    (self.out / f"sweep_theta1_{i}.csv").read_bytes()))
        errors = check_sweep(code, self.tables, self.VALUES, self.times,
                             self.a1_maturity, self.cfg.sigma1,
                             self.stock_weight)
        return 1, [errors]


# ---------------------------------------------------------------------------
# mc-survival
# ---------------------------------------------------------------------------

MC_HORIZONS = (5.0, 15.0, 25.0, 35.0)
MC_SE_MULTIPLE = 4.0
# Euler bias of the mean survival, relative to the closed form: measured at
# 200 000 cir-sub paths as 3.2e-3 .. 4.0e-3 * dt * Lambda(s), Lambda = -ln S,
# at s = 5, 15, 25, 35 for dt = 0.1, and about half of that at dt = 0.05
# (first order in dt). The allowance is twice the largest coefficient.
EULER_ALLOWANCE = 8e-3
STITCHED = ("lambda1", "lambda2", "survival", "shocks1", "shocks2")


def check_mc_survival(paths_mean: np.ndarray, paths_se: np.ndarray,
                      exact: np.ndarray, dt: float) -> List[str]:
    """Mean survival within 4 SE plus the O(dt) Euler allowance."""
    allowance = EULER_ALLOWANCE * dt * (-np.log(exact)) * exact
    bound = MC_SE_MULTIPLE * paths_se + allowance
    bad = np.abs(paths_mean - exact) > bound
    return [f"mean survival {m!r} vs closed form {e!r} (bound {b!r})"
            for m, e, b in zip(paths_mean[bad], exact[bad], bound[bad])]


def check_mc_paths(lambda1, lambda2, survival, cdf) -> List[str]:
    """CIR hazards >= 0, survival non-increasing, CDF in [0, 1] and
    non-decreasing; row blocks keep the temporaries small."""
    errors = []
    for lo in range(0, survival.shape[0], 2048):
        rows = slice(lo, lo + 2048)
        if np.any(lambda1[rows] < 0) or np.any(lambda2[rows] < 0):
            errors.append("negative CIR hazard")
        if np.any(np.diff(survival[rows], axis=1) > 0):
            errors.append("survival increases")
        c = cdf[rows]
        if np.any(c < 0) or np.any(c > 1):
            errors.append("death CDF outside [0, 1]")
        if np.any(np.diff(c, axis=1) < 0):
            errors.append("death CDF decreases")
        if errors:
            break
    return errors


def block_digest(paths, hashers=None) -> Dict[str, object]:
    """SHA-256 per array, fed row block by row block, so that digests of two
    stitched half blocks equal the digest of the full block."""
    hashers = hashers or {k: hashlib.sha256() for k in STITCHED}
    for key in STITCHED:
        hashers[key].update(np.ascontiguousarray(getattr(paths, key)).tobytes())
    return hashers


def check_stitched(full: Dict[str, str], halves: Dict[str, str]) -> List[str]:
    return [f"stitched half blocks differ from the full block in {k}"
            for k in STITCHED if full.get(k) != halves.get(k)]


class McSurvival(Workload):
    """``simulate_paths`` on cir-sub with shocks kept, then
    ``death_time_distribution``."""

    name = "mc-survival"
    PATHS = 20000

    def setup(self):
        self.cfg = self.pd.load_config(
            write_config(self.pd, self.work / "cir-sub.cfg", "cir-sub"))
        self.model = self.pd.build_model(self.cfg)

    def prepare(self):
        sc = self.cfg.scenario
        self.grid = self.pd.TimeGrid(0.0, sc.horizon, sc.dt)
        self.n_paths = 400 if self.tiny else self.PATHS
        lam0 = [self.pd.initial_hazard(self.model.gm1),
                self.pd.initial_hazard(self.model.gm2)]
        self.idx = [round(s / sc.dt) for s in MC_HORIZONS]
        self.exact = np.array([
            self.pd.survival_expectation(
                self.pd.coeffs_two_pop(self.model, 0.0, s), lam0)
            for s in MC_HORIZONS])
        self.digest = None
        self.last = None

    def run_round(self):
        paths = self.pd.simulate_paths(self.model, self.grid, self.n_paths,
                                       self.seed, keep_shocks=True)
        dist = self.pd.death_time_distribution(paths)
        at = paths.survival[:, self.idx]
        errors = check_mc_survival(at.mean(axis=0),
                                   at.std(axis=0) / math.sqrt(self.n_paths),
                                   self.exact, self.grid.step)
        errors += check_mc_paths(paths.lambda1, paths.lambda2, paths.survival,
                                 dist.cdf)
        self.last = (paths, dist)
        return 1, [errors]

    def after_round(self):
        if self.digest is None:
            self.digest = {k: h.hexdigest()
                           for k, h in block_digest(self.last[0]).items()}
        self.last = None

    def finish(self):
        half = self.n_paths // 2
        hashers = None
        for offset, count in ((0, half), (half, self.n_paths - half)):
            part = self.pd.simulate_paths(self.model, self.grid, count,
                                          self.seed, path_offset=offset,
                                          keep_shocks=True)
            hashers = block_digest(part, hashers)
            del part
        halves = {k: h.hexdigest() for k, h in hashers.items()}
        return 1, [check_stitched(self.digest, halves)]


# ---------------------------------------------------------------------------
# mortality-dump
# ---------------------------------------------------------------------------

DUMP_HEADER = ["time", "path_id", "lambda1", "lambda2", "survival"]


def check_dump(code: int, data: bytes, n_paths: int, times: np.ndarray,
               previous_sha: Optional[str]) -> List[str]:
    """Header, row count, grid and path columns, the survival column against
    exp(-trapezoid of the printed lambda2), and byte identity with the
    previous round's file."""
    if code != 0:
        return [f"mortality exited with {code}"]
    errors = []
    if previous_sha is not None and hashlib.sha256(data).hexdigest() != previous_sha:
        errors.append("CSV bytes differ from the previous round's")
    header, rows = read_csv(data)
    if header != DUMP_HEADER:
        return errors + [f"header {header}"]
    n = times.size
    if rows.shape != (n_paths * n, len(DUMP_HEADER)):
        return errors + [f"{rows.shape[0]} rows for {n_paths} paths x {n} times"]
    if not np.all(close(rows[:, 0], np.tile(times, n_paths), PRINT_ROUNDING)):
        errors.append("time column is not the simulation grid")
    if not np.array_equal(rows[:, 1], np.repeat(np.arange(n_paths), n)):
        errors.append("path_id column is not 0..n-1 in blocks")
    lam2 = rows[:, 3].reshape(n_paths, n)
    surv = rows[:, 4].reshape(n_paths, n)
    dt = np.diff(times)
    cum = np.zeros_like(lam2)
    cum_abs = np.zeros_like(lam2)
    cum[:, 1:] = np.cumsum(0.5 * dt * (lam2[:, :-1] + lam2[:, 1:]), axis=1)
    cum_abs[:, 1:] = np.cumsum(0.5 * dt * (np.abs(lam2[:, :-1])
                                           + np.abs(lam2[:, 1:])), axis=1)
    expected = np.exp(-cum)
    # printed survival rounds by 5e-9; printed lambda2 moves the integral by
    # at most 5e-9 * cum_abs; the tolerance is twice that sum
    if not np.all(close(surv, expected, 2 * PRINT_ROUNDING,
                        expected * (1.0 + cum_abs))):
        worst = float(np.max(np.abs(surv / expected - 1.0)))
        errors.append(f"survival column differs from exp(-int lambda2) by up "
                      f"to {worst!r} relative")
    return errors


class MortalityDump(Workload):
    """``pendraw mortality`` on ou-sub: the path dump CSV."""

    name = "mortality-dump"
    PATHS = 1000

    def setup(self):
        self.config = write_config(self.pd, self.work / "ou-sub.cfg", "ou-sub")
        self.cfg = self.pd.load_config(self.config)
        self.model = self.pd.build_model(self.cfg)

    def prepare(self):
        sc = self.cfg.scenario
        self.times = self.pd.TimeGrid(0.0, sc.horizon, sc.dt).nodes
        self.n_paths = 10 if self.tiny else self.PATHS
        self.out = self.work / "mortality"
        self.sha = None

    def run_round(self):
        shutil.rmtree(self.out, ignore_errors=True)
        code, _ = run_cli(self.pd, [
            "mortality", "--config", str(self.config),
            "--paths", str(self.n_paths), "--seed", str(self.seed),
            "--out", str(self.out)])
        self.data = (self.out / "paths.csv").read_bytes() if code == 0 else b""
        errors = check_dump(code, self.data, self.n_paths, self.times, self.sha)
        self.sha = hashlib.sha256(self.data).hexdigest()
        return 1, [errors]

    def after_round(self):
        self.data = None


WORKLOADS = {w.name: w for w in (PolicyCold, OuSubSweep, McSurvival,
                                 MortalityDump)}
