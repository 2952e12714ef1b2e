"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria fix the path counts, seeds and tolerances they state;
expected values come from the stated independent oracles (analytic formulas,
finite differences, raw Monte Carlo of the defining expectations), computed
in-test rather than hard-coded from rounded figures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pendraw.config import build_model, default_config_path, load_config
from pendraw.control import (SchemeScenario, annuity_G, annuity_G_gradient,
                             optimal_policy)
from pendraw.experiments import run_experiment
from pendraw.mortality import (GompertzMakehamParams, SinglePopModel,
                               TwoPopModel, baseline_hazard, initial_hazard,
                               simulate_paths)
from pendraw.numerics import TimeGrid
from pendraw.pricing import (MarketParams, a1_cir, a1_ou, c1_ou,
                             coeffs_single, coeffs_two_pop,
                             rolling_bond_volatility, survival_expectation)
from pendraw.scheme import (OPTIMAL, ComparisonReport, g_surface,
                            simulate_scheme)

# Table-style parameters, modal life spans as printed (model time) and
# shifted to years since retirement (calendar age minus 65)
POP1_RAW = GompertzMakehamParams(0.0009944, 11.4, 86.4515)
POP2_RAW = GompertzMakehamParams(0.0009944, 12.9374, 89.18)
POP1 = GompertzMakehamParams(0.0009944, 11.4, 86.4515 - 65.0)
POP2 = GompertzMakehamParams(0.0009944, 12.9374, 89.18 - 65.0)

B1, SIGMA1 = 0.561, 0.0035
B21, B22, SIGMA21, SIGMA22 = 0.0028, 0.65, 0.004, 0.005
MARKET = MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15, theta_1=-0.0005,
                      maturity=20.0)
SCEN = SchemeScenario(phi=0.8)

MODEL_VARIANTS = {
    "ou-single": SinglePopModel("ou", POP1, B1, SIGMA1),
    "cir-single": SinglePopModel("cir", POP1, B1, SIGMA1),
    "ou-sub": TwoPopModel("ou", POP1, POP2, B1, B21, B22, SIGMA1, SIGMA21,
                          SIGMA22),
    "cir-sub": TwoPopModel("cir", POP1, POP2, B1, B21, B22, SIGMA1, SIGMA21,
                           SIGMA22),
}


def _mc_survival(model, marks, n_total, seed, block=20_000):
    """Per-mark (mean, SE) of the members' survival index over Euler paths."""
    grid = TimeGrid(0.0, max(marks), 0.1)
    idx = [round(m / 0.1) for m in marks]
    sums = np.zeros(len(marks))
    sumsq = np.zeros(len(marks))
    for offset in range(0, n_total, block):
        n = min(block, n_total - offset)
        paths = simulate_paths(model, grid, n, seed, path_offset=offset,
                               keep_shocks=False)
        values = paths.survival[:, idx]
        sums += values.sum(axis=0)
        sumsq += (values * values).sum(axis=0)
    mean = sums / n_total
    var = (sumsq - n_total * mean ** 2) / (n_total - 1)
    return mean, np.sqrt(var / n_total)


def test_criterion_01_closed_form_vs_monte_carlo_survival():
    started = time.perf_counter()
    marks = [5.0, 15.0, 35.0]
    n = 100_000

    single = SinglePopModel("ou", POP1_RAW, B1, SIGMA1)
    mean, se = _mc_survival(single, marks, n, seed=1001)
    lam0 = initial_hazard(POP1_RAW)
    for k, s in enumerate(marks):
        closed = survival_expectation(coeffs_single(single, 0.0, s), lam0)
        assert abs(mean[k] - closed) < 3.0 * se[k], \
            f"single OU s={s}: MC {mean[k]:.6f} vs closed {closed:.6f} " \
            f"(3SE={3 * se[k]:.2e})"

    two = TwoPopModel("ou", POP1_RAW, POP2_RAW, B1, B21, B22, SIGMA1, SIGMA21,
                      SIGMA22)
    mean2, se2 = _mc_survival(two, marks, n, seed=1002)
    lam = [initial_hazard(POP1_RAW), initial_hazard(POP2_RAW)]
    for k, s in enumerate(marks):
        closed = survival_expectation(coeffs_two_pop(two, 0.0, s), lam)
        assert abs(mean2[k] - closed) < 3.0 * se2[k], \
            f"two-pop OU s={s}: MC {mean2[k]:.6f} vs closed {closed:.6f} " \
            f"(3SE={3 * se2[k]:.2e})"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    print(f"criterion 01 PASS: survival MC matches closed forms at "
          f"s={marks} within 3 SE ({elapsed:.1f}s)")


def test_criterion_02_riccati_residuals():
    rng = np.random.default_rng(2024)
    h = 1e-5
    ou2 = MODEL_VARIANTS["ou-sub"]
    cir2 = MODEL_VARIANTS["cir-sub"]
    worst = 0.0
    worst_c2 = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 20.0)
        s = t + rng.uniform(0.2, 25.0)
        tau = s - t

        a1 = float(a1_ou(B1, tau))
        da1 = (float(a1_ou(B1, tau - h)) - float(a1_ou(B1, tau + h))) / (2 * h)
        worst = max(worst, abs(-da1 + B1 * a1 - 1.0))

        a1c = float(a1_cir(B1, SIGMA1, tau))
        da1c = (float(a1_cir(B1, SIGMA1, tau - h))
                - float(a1_cir(B1, SIGMA1, tau + h))) / (2 * h)
        worst = max(worst, abs(-da1c + B1 * a1c
                               + 0.5 * SIGMA1 ** 2 * a1c ** 2 - 1.0))

        c1 = float(c1_ou(ou2, tau))
        c2 = float(a1_ou(B22, tau))
        dc1 = (float(c1_ou(ou2, tau - h)) - float(c1_ou(ou2, tau + h))) / (2 * h)
        dc2 = (float(a1_ou(B22, tau - h)) - float(a1_ou(B22, tau + h))) / (2 * h)
        worst = max(worst, abs(-dc1 + B1 * c1 + B21 * c2))
        worst = max(worst, abs(-dc2 + B22 * c2 - 1.0))

        up = coeffs_two_pop(cir2, t + h, s, ode_step=0.01)
        dn = coeffs_two_pop(cir2, t - h, s, ode_step=0.01)
        mid = coeffs_two_pop(cir2, t, s, ode_step=0.01)
        dc1 = (up.c1 - dn.c1) / (2 * h)
        dc2 = (up.c2 - dn.c2) / (2 * h)
        worst = max(worst, abs(
            -dc1 + B1 * mid.c1 + B21 * mid.c2 + 0.5 * SIGMA1 ** 2 * mid.c1 ** 2
            + 0.5 * SIGMA21 ** 2 * mid.c2 ** 2 + SIGMA1 * SIGMA21 * mid.c1 * mid.c2))
        worst = max(worst, abs(-dc2 + B22 * mid.c2
                               + 0.5 * SIGMA22 ** 2 * mid.c2 ** 2 - 1.0))
        # decoupled scalar Riccati solves the CIR C2 equation analytically
        worst_c2 = max(worst_c2, abs(mid.c2 - float(a1_cir(B22, SIGMA22, tau))))

    assert worst < 1e-6, f"worst Riccati residual {worst:.2e}"
    assert worst_c2 < 1e-6, f"CIR C2 vs scalar analytic {worst_c2:.2e}"
    print(f"criterion 02 PASS: Riccati residuals < 1e-6 at 100 random (t,s) "
          f"(worst {worst:.1e}); CIR C2 vs analytic {worst_c2:.1e}")


def test_criterion_03_gradient_check():
    rng = np.random.default_rng(33)
    h = 1e-6
    worst = {}
    for name, model in MODEL_VARIANTS.items():
        worst[name] = 0.0
        for _ in range(20):
            t = rng.uniform(0.0, 30.0)
            base = [float(baseline_hazard(t, POP1)),
                    float(baseline_hazard(t, POP2))][: model.n_factors]
            lam = np.array(base) * rng.uniform(0.6, 1.6, model.n_factors)
            grad = annuity_G_gradient(model, SCEN, MARKET, t, lam)
            for k in range(model.n_factors):
                up, dn = lam.copy(), lam.copy()
                up[k] += h
                dn[k] -= h
                fd = (annuity_G(model, SCEN, MARKET, t, up)
                      - annuity_G(model, SCEN, MARKET, t, dn)) / (2 * h)
                rel = abs(grad[k] - fd) / max(abs(fd), 1e-12)
                worst[name] = max(worst[name], rel)
        assert worst[name] < 1e-4, \
            f"{name}: gradient relative error {worst[name]:.2e}"
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    print(f"criterion 03 PASS: analytic gradient vs central differences "
          f"rel err < 1e-4 at 20 states per variant ({detail})")


def test_criterion_04_g_monte_carlo_oracle():
    model = SinglePopModel("ou", POP1_RAW, B1, SIGMA1)
    lam0 = initial_hazard(POP1_RAW)
    g = annuity_G(model, SCEN, MARKET, 0.0, lam0)

    n_total, block = 100_000, 10_000
    grid = TimeGrid(0.0, SCEN.t_max, 0.1)
    disc = np.exp(-MARKET.r * grid.nodes)
    sums = sumsq = 0.0
    for offset in range(0, n_total, block):
        paths = simulate_paths(model, grid, block, seed=44, path_offset=offset,
                               keep_shocks=False)
        integrand = (SCEN.phi * paths.hazards[0] + 1.0) * disc[None, :] \
            * paths.survival
        x = np.trapezoid(integrand, grid.nodes, axis=1)
        sums += x.sum()
        sumsq += (x * x).sum()
    mean = sums / n_total
    se = np.sqrt((sumsq - n_total * mean ** 2) / (n_total - 1) / n_total)
    assert abs(mean - g) < 3.0 * se, \
        f"G {g:.5f} vs MC {mean:.5f} +- {se:.5f}"
    print(f"criterion 04 PASS: G = {g:.5f} matches the defining expectation "
          f"MC {mean:.5f} (SE {se:.1e}) within 3 SE")


def test_criterion_05_exact_policy_facts():
    model = MODEL_VARIANTS["ou-single"]
    states = [(0.0, 0.0144, 100.0), (7.3, 0.021, 63.0), (20.0, 0.08, 31.0),
              (34.9, 0.29, 4.0)]
    for t, lam, wealth in states:
        d = optimal_policy(model, SCEN, MARKET, t, lam, wealth)
        assert d.stock_weight == MARKET.theta_s / MARKET.sigma_s
        assert d.stock_weight == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert d.stock_weight + d.bond_weight + d.cash_weight == 1.0
        doubled = optimal_policy(model, SCEN, MARKET, t, lam, 2.0 * wealth)
        assert doubled.withdraw_rate == 2.0 * d.withdraw_rate
        assert doubled.bond_weight == d.bond_weight
    print("criterion 05 PASS: stock weight = theta_s/sigma_s = 1/3 at all "
          "states; withdrawals linear in wealth; weights sum to one exactly")


def test_criterion_06_degenerate_closed_forms():
    # zero volatility collapses the survival expectation to the
    # deterministic exponential
    model = SinglePopModel("ou", POP1, B1, 0.0)
    t, s = 2.0, 32.0
    value = survival_expectation(coeffs_single(model, t, s),
                                 float(baseline_hazard(t, POP1)))
    integral = POP1.nu * (s - t) + (np.exp((s - POP1.m) / POP1.delta)
                                    - np.exp((t - POP1.m) / POP1.delta))
    assert value == pytest.approx(np.exp(-integral), abs=1e-6)

    # frozen hazard, phi = 0: temporary annuity in closed form
    lam0 = 1.0390e-3
    gm = GompertzMakehamParams(lam0, 1.0, 1e6)
    frozen = SinglePopModel("ou", gm, B1, 0.0)
    scen = SchemeScenario(phi=0.0)
    g = annuity_G(frozen, scen, MARKET, 0.0, lam0)
    annuity = (1.0 - np.exp(-(MARKET.r + lam0) * scen.t_max)) / (MARKET.r + lam0)
    assert g == pytest.approx(annuity, abs=0.01), \
        f"G {g:.5f} vs analytic annuity {annuity:.5f}"
    print(f"criterion 06 PASS: sigma=0 survival matches deterministic "
          f"exponential (1e-6); frozen-hazard G = {g:.4f} matches the "
          f"analytic annuity {annuity:.4f} within 0.01")


def test_criterion_07_premium_magnitudes():
    model = MODEL_VARIANTS["ou-single"]
    sigma_l = rolling_bond_volatility(model, MARKET)
    premium = abs(sigma_l * MARKET.theta_1)
    quoted = 4.4563e-6
    ratio = premium / quoted
    assert 0.5 < ratio < 2.0, f"longevity premium {premium:.4e} vs {quoted:.4e}"
    assert MARKET.stock_premium == 7.5e-3
    print(f"criterion 07 PASS: |sigma_L(0)*theta_1| = {premium:.4e} within a "
          f"factor 2 of 4.4563e-6 (ratio {ratio:.3f}); stock premium exactly "
          f"7.5e-3")


def _annual(series, dt=0.1):
    """Calendar-year bucket means of a node series on a 0.1-year grid."""
    per_year = round(1.0 / dt)
    n_years = (series.size - 1) // per_year
    return series[: n_years * per_year].reshape(n_years, per_year).mean(axis=1)


def test_criterion_08_figure_reproduction():
    started = time.perf_counter()
    cfg = load_config(default_config_path())
    model = build_model(cfg)
    scen, market = cfg.scenario, cfg.market
    grid = TimeGrid(0.0, scen.horizon, scen.dt)
    paths = simulate_paths(model, grid, scen.n_paths, scen.seed)
    surface = g_surface(model, scen, market, paths)
    traj = simulate_scheme(surface, scen, market, OPTIMAL)

    # (a) bond weight decreasing, > 40% at t=0 even without a risk premium
    traj0 = simulate_scheme(surface, scen, replace(market, theta_1=0.0),
                            OPTIMAL)
    for arm in (traj, traj0):
        annual_bond = _annual(arm.bond_weight.mean(axis=0))
        assert np.all(np.diff(annual_bond) < 0.0), "bond weight not decreasing"
    w0 = traj0.bond_weight[:, 0].mean()
    assert w0 > 0.40, f"bond weight at t=0 with theta_1=0 is {w0:.3f}"

    # (b) average wealth decreasing over the horizon
    annual_wealth = _annual(traj.wealth.mean(axis=0))
    assert np.all(np.diff(annual_wealth) < 0.0), "wealth not decreasing"

    # (c) average withdraw-proportion 1/G increasing
    annual_prop = _annual((traj.withdraw / traj.wealth).mean(axis=0))
    assert np.all(np.diff(annual_prop) > 0.0), "withdraw proportion not rising"

    # (d) average compensation peaks strictly inside [14, 24] years
    annual_comp = _annual(traj.compensation.mean(axis=0))
    peak_year = float(np.argmax(annual_comp)) + 0.5
    assert 14.0 <= peak_year <= 24.0, f"compensation peak at {peak_year}"
    assert 0 < np.argmax(annual_comp) < annual_comp.size - 1

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 8 runtime {elapsed:.1f}s exceeds 120s"
    print(f"criterion 08 PASS: bond weight decreasing from "
          f"{traj.bond_weight[:, 0].mean():.3f} (theta_1=0 start {w0:.3f} > "
          f"0.40); wealth decreasing; 1/G rising "
          f"{annual_prop[0]:.3f}->{annual_prop[-1]:.3f}; compensation peak at "
          f"year {peak_year:.1f} in [14, 24] ({elapsed:.1f}s)")


def test_criterion_09_phi_sweep_reproduction():
    cfg = load_config(default_config_path())
    model = build_model(cfg)
    sc = cfg.scenario
    paths = simulate_paths(model, TimeGrid(0.0, sc.horizon, sc.dt),
                           sc.n_paths, sc.seed)
    # the phi = 0 and phi = 1 arms on one G surface, as the phi sweep runs them
    surface = g_surface(model, sc, cfg.market, paths)
    arm0, arm1 = (simulate_scheme(surface, replace(sc, phi=phi), cfg.market,
                                  OPTIMAL)
                  for phi in (0.0, 1.0))
    report = ComparisonReport.of(arm0, arm1)
    benefit = report.benefit_improvement
    comp = report.compensation_improvement
    print(f"criterion 09 measured: discounted benefit improvement "
          f"{benefit:+.4%}, compensation improvement {comp:+.4%} "
          f"(reference magnitudes +4.71% and +12.82%)")
    assert comp > benefit, "compensation improvement must be the larger"
    assert 0.01 <= comp <= 0.25, f"compensation improvement {comp:+.4%}"
    assert benefit > 0.0, f"benefit improvement {benefit:+.4%} not positive"
    assert 0.01 <= benefit <= 0.25, f"benefit improvement {benefit:+.4%}"
    print("criterion 09 PASS: phi=1 vs phi=0 improvements positive, "
          "compensation larger, magnitudes in [1%, 25%]")


def test_criterion_10_determinism(tmp_path):
    cfg = load_config(default_config_path())
    run_a = run_experiment(replace(cfg, out_dir=str(tmp_path / "a")))
    run_b = run_experiment(replace(cfg, out_dir=str(tmp_path / "b")))
    names = sorted(p.name for p in run_a.files)
    assert names == sorted(p.name for p in run_b.files)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), f"{name} differs"

    # worker-count independence: stream keying makes any block split of the
    # path range reproduce the monolithic run exactly
    model = build_model(cfg)
    grid = TimeGrid(0.0, 5.0, 0.1)
    whole = simulate_paths(model, grid, 40, cfg.scenario.seed)
    part1 = simulate_paths(model, grid, 25, cfg.scenario.seed)
    part2 = simulate_paths(model, grid, 15, cfg.scenario.seed, path_offset=25)
    def arrays(paths):
        return [*paths.hazards, paths.survival, *paths.shocks]

    stitched = [np.vstack(pair) for pair in zip(arrays(part1), arrays(part2))]
    assert len(arrays(whole)) == len(stitched) == 2 * model.n_factors + 1
    for a, b in zip(arrays(whole), stitched):
        assert np.array_equal(a, b)
    print(f"criterion 10 PASS: repeated base experiment byte-identical "
          f"({len(names)} files); block-split paths equal the monolithic run")
