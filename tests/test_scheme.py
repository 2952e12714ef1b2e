import dataclasses

import numpy as np
import pytest

from pendraw import pricing, scheme
from pendraw.control import (MarketParams, SchemeScenario,
                             UnsupportedConfiguration, g_and_gradient,
                             optimal_policy)
from pendraw.mortality import (ConfigError, GompertzMakehamParams,
                               SinglePopModel, TwoPopModel, simulate_paths)
from pendraw.numerics import TimeGrid, WS_STREAM_OFFSET, normal_block
from pendraw.pricing import a1_ou
from pendraw.scheme import (CUSTOM, NO_BOND, OPTIMAL, compare_strategies,
                            discounted_totals, g_surface, simulate_scheme)

POP1 = GompertzMakehamParams(0.0009944, 11.4, 86.4515 - 65.0)
POP2 = GompertzMakehamParams(0.0009944, 12.9374, 89.18 - 65.0)
MARKET = MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15, theta_1=-0.0005,
                      maturity=20.0)


def ou_model(sigma=0.0035):
    return SinglePopModel("ou", POP1, 0.561, sigma)


def scenario(**kw):
    defaults = dict(phi=0.8, y0=100.0, horizon=35.0, dt=0.1, n_paths=20,
                    seed=42)
    defaults.update(kw)
    return SchemeScenario(**defaults)


def make_paths(model, scen):
    grid = TimeGrid(0.0, scen.horizon, scen.dt)
    return simulate_paths(model, grid, scen.n_paths, scen.seed)


class TestSimulateScheme:
    def test_deterministic_growth(self):
        # no premia, no noise, no withdrawal: pure money-market growth
        model = ou_model(sigma=0.0)
        market = MarketParams(r=0.04, theta_s=0.0, sigma_s=0.15, theta_1=0.0,
                              maturity=20.0)
        scen = scenario(n_paths=3, dt=0.01)
        paths = make_paths(model, scen)

        def hold_cash(t, lam, wealth):
            zero = np.zeros_like(wealth)
            return zero, zero, zero

        traj = simulate_scheme(model, scen, market, CUSTOM, paths,
                               policy_fn=hold_cash)
        expected = scen.y0 * np.exp(market.r * 35.0)
        assert traj.wealth[:, -1] == pytest.approx(expected, rel=1e-3)

    def test_withdraw_rate_is_wealth_over_g(self):
        model = ou_model()
        scen = scenario(n_paths=5)
        paths = make_paths(model, scen)
        traj = simulate_scheme(model, scen, MARKET, OPTIMAL, paths)
        for k in (0, 100, 350):
            lam = paths.lambda1[:, k][:, None]
            g, _ = g_and_gradient(model, scen, MARKET, paths.grid.nodes[k], lam)
            assert np.array_equal(traj.withdraw[:, k], traj.wealth[:, k] / g)

    def test_weights_sum_to_one(self):
        model = ou_model()
        scen = scenario(n_paths=5)
        traj = simulate_scheme(model, scen, MARKET, OPTIMAL,
                               make_paths(model, scen))
        total = traj.stock_weight + traj.bond_weight + traj.cash_weight
        assert np.all(total == 1.0)

    def test_self_financing_identity(self):
        # rebuild each Euler step from the stored (weights, withdraw) and the
        # reconstructed noise; the step must close to float roundoff
        model = ou_model()
        scen = scenario(n_paths=4, horizon=5.0)
        paths = make_paths(model, scen)
        traj = simulate_scheme(model, scen, MARKET, OPTIMAL, paths)
        xi_s = normal_block(paths.seed, WS_STREAM_OFFSET, scen.n_paths,
                            paths.grid.n_steps)
        dt = scen.dt
        sigma_l = -float(a1_ou(model.b, MARKET.maturity)) * model.sigma
        for k in range(paths.grid.n_steps):
            y = traj.wealth[:, k]
            drift = (MARKET.r * y
                     + traj.stock_weight[:, k] * y * MARKET.sigma_s * MARKET.theta_s
                     + traj.bond_weight[:, k] * y * sigma_l * MARKET.theta_1
                     - traj.withdraw[:, k])
            diffusion = (traj.stock_weight[:, k] * y * MARKET.sigma_s
                         * np.sqrt(dt) * xi_s[:, k]
                         + traj.bond_weight[:, k] * y * sigma_l
                         * np.sqrt(dt) * paths.shocks1[:, k])
            resid = traj.wealth[:, k + 1] - y - drift * dt - diffusion
            assert np.all(np.abs(resid) <= 1e-10 * np.maximum(y, 1.0))

    def test_wealth_scale_invariance(self):
        # doubling the initial wealth doubles every path exactly
        model = ou_model()
        scen1 = scenario(n_paths=5)
        scen2 = scenario(n_paths=5, y0=200.0)
        paths = make_paths(model, scen1)
        t1 = simulate_scheme(model, scen1, MARKET, OPTIMAL, paths)
        t2 = simulate_scheme(model, scen2, MARKET, OPTIMAL, paths)
        assert np.array_equal(t2.wealth, 2.0 * t1.wealth)
        assert np.array_equal(t2.withdraw, 2.0 * t1.withdraw)
        assert np.array_equal(t2.compensation, 2.0 * t1.compensation)
        assert np.array_equal(t2.bond_weight, t1.bond_weight)

    def test_determinism(self):
        model = ou_model()
        scen = scenario(n_paths=6, horizon=5.0)
        a = simulate_scheme(model, scen, MARKET, OPTIMAL, make_paths(model, scen))
        b = simulate_scheme(model, scen, MARKET, OPTIMAL, make_paths(model, scen))
        assert np.array_equal(a.wealth, b.wealth)

    @pytest.mark.parametrize("change", [
        dict(scenario=scenario(n_paths=3, horizon=2.0, phi=1.5)),
        dict(scenario=scenario(n_paths=3, horizon=2.0, t_max=150.0)),
        dict(market=dataclasses.replace(MARKET, r=0.03)),
        dict(model=ou_model(sigma=0.004)),
        dict(paths=make_paths(ou_model(), scenario(n_paths=3, horizon=2.0))),
    ])
    def test_surface_for_other_inputs_rejected(self, change):
        model = ou_model()
        scen = scenario(n_paths=3, horizon=2.0)
        paths = make_paths(model, scen)
        surface = g_surface(model, scen, MARKET, paths)
        args = dict(model=model, scenario=scen, market=MARKET, paths=paths)
        args.update(change)
        with pytest.raises(ConfigError):
            simulate_scheme(args["model"], args["scenario"], args["market"],
                            OPTIMAL, args["paths"], surface=surface)

    def test_floor_freezing(self):
        model = ou_model()
        scen = scenario(n_paths=3, horizon=5.0)
        paths = make_paths(model, scen)

        def drain(t, lam, wealth):
            return 50.0 * wealth, np.zeros_like(wealth), np.zeros_like(wealth)

        traj = simulate_scheme(model, scen, MARKET, CUSTOM, paths,
                               policy_fn=drain)
        floor = 1e-9 * scen.y0
        assert traj.floor_hits == 3
        assert np.all(traj.wealth[:, -1] == floor)
        assert np.all(traj.wealth > 0.0)

    def test_grid_mismatch_rejected(self):
        model = ou_model()
        paths = make_paths(model, scenario(n_paths=2, horizon=10.0))
        with pytest.raises(ConfigError):
            simulate_scheme(model, scenario(n_paths=2, horizon=35.0), MARKET,
                            OPTIMAL, paths)

    def test_missing_shocks_rejected(self):
        model = ou_model()
        scen = scenario(n_paths=2, horizon=2.0)
        grid = TimeGrid(0.0, 2.0, 0.1)
        paths = simulate_paths(model, grid, 2, scen.seed, keep_shocks=False)
        with pytest.raises(ConfigError):
            simulate_scheme(model, scen, MARKET, OPTIMAL, paths)

    def test_pi_not_one_rejected(self):
        model = ou_model()
        scen = scenario(n_paths=2, horizon=2.0, pi=0.5)
        paths = make_paths(model, scen)
        with pytest.raises(UnsupportedConfiguration):
            simulate_scheme(model, scen, MARKET, OPTIMAL, paths)

    def test_two_pop_compensation_uses_members(self):
        model = TwoPopModel("ou", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035,
                            0.004, 0.005)
        scen = scenario(n_paths=3, horizon=2.0)
        paths = make_paths(model, scen)
        traj = simulate_scheme(model, scen, MARKET, OPTIMAL, paths)
        assert np.array_equal(traj.compensation, paths.lambda2 * traj.wealth)

    def test_cir_self_financing_identity(self):
        # CIR wealth dynamics scale the bond volatility and the longevity
        # price of risk by sqrt(lambda1)
        from pendraw.pricing import a1_cir

        model = SinglePopModel("cir", POP1, 0.561, 0.0035)
        scen = scenario(n_paths=4, horizon=3.0)
        paths = make_paths(model, scen)
        traj = simulate_scheme(model, scen, MARKET, OPTIMAL, paths)
        xi_s = normal_block(paths.seed, WS_STREAM_OFFSET, scen.n_paths,
                            paths.grid.n_steps)
        dt = scen.dt
        a1_t = float(a1_cir(model.b, model.sigma, MARKET.maturity))
        for k in range(paths.grid.n_steps):
            y = traj.wealth[:, k]
            sq = np.sqrt(np.maximum(paths.lambda1[:, k], 0.0))
            sigma_l = -a1_t * model.sigma * sq
            theta_eff = MARKET.theta_1 * sq
            drift = (MARKET.r * y
                     + traj.stock_weight[:, k] * y * MARKET.sigma_s * MARKET.theta_s
                     + traj.bond_weight[:, k] * y * sigma_l * theta_eff
                     - traj.withdraw[:, k])
            diffusion = (traj.stock_weight[:, k] * y * MARKET.sigma_s
                         * np.sqrt(dt) * xi_s[:, k]
                         + traj.bond_weight[:, k] * y * sigma_l
                         * np.sqrt(dt) * paths.shocks1[:, k])
            resid = traj.wealth[:, k + 1] - y - drift * dt - diffusion
            assert np.all(np.abs(resid) <= 1e-10 * np.maximum(y, 1.0))


class TestOneTauPass:
    """Every anchor's coefficient table reads the one cached tau pass of its
    model and t_max."""

    def test_cold_cir_sub_simulation_at_dt_025(self):
        model = TwoPopModel("cir", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035,
                            0.004, 0.005)
        scen = scenario(n_paths=20, dt=0.25)
        paths = make_paths(model, scen)
        pricing._tau_table.cache_clear()
        simulate_scheme(model, scen, MARKET, OPTIMAL, paths)
        info = pricing._tau_table.cache_info()
        assert (info.misses, info.hits) == (1, paths.grid.n_steps)

    def test_off_lattice_policy_reads_the_pass_of_t0(self):
        model = SinglePopModel("cir", POP1, 0.561, 0.0035)
        scen = scenario()
        pricing._tau_table.cache_clear()
        optimal_policy(model, scen, MARKET, 0.0, 0.0144, 100.0)
        optimal_policy(model, scen, MARKET, 12.34, 0.05, 100.0)
        info = pricing._tau_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestDiscountedTotals:
    def _flat_withdraw(self, rate, horizon, r, dt=0.1):
        model = ou_model(sigma=0.0)
        scen = scenario(n_paths=1, horizon=horizon, dt=dt)
        market = MarketParams(r=r, theta_s=0.0, sigma_s=0.15, theta_1=0.0,
                              maturity=20.0)
        paths = make_paths(model, scen)

        def policy(t, lam, wealth):
            return np.full_like(wealth, rate), np.zeros_like(wealth), \
                np.zeros_like(wealth)

        traj = simulate_scheme(model, scen, market, CUSTOM, paths,
                               policy_fn=policy)
        return discounted_totals(traj, r)

    def test_unit_rate_no_discount(self):
        totals = self._flat_withdraw(1.0, horizon=1.0, r=0.0)
        assert totals.mean_benefit == pytest.approx(1.0, abs=1e-12)

    def test_unit_rate_discounted(self):
        # analytic antiderivative: (1 - e^{-0.04*35}) / 0.04
        totals = self._flat_withdraw(1.0, horizon=35.0, r=0.04)
        expected = (1.0 - np.exp(-1.4)) / 0.04
        assert totals.mean_benefit == pytest.approx(expected, abs=1e-3)

    def test_linear_in_withdrawals(self):
        one = self._flat_withdraw(1.0, horizon=10.0, r=0.04)
        two = self._flat_withdraw(2.0, horizon=10.0, r=0.04)
        assert two.mean_benefit == pytest.approx(2.0 * one.mean_benefit,
                                                 rel=1e-12)


class TestCompareStrategies:
    def test_identical_arms_zero_gain(self):
        model = ou_model()
        scen = scenario(n_paths=10, horizon=5.0)
        report = compare_strategies(model, scen, MARKET, OPTIMAL, OPTIMAL)
        assert np.all(report.withdraw_gain == 0.0)
        assert np.all(report.compensation_gain == 0.0)
        assert report.benefit_improvement == 0.0

    def test_bond_improves_on_average(self):
        model = ou_model()
        scen = scenario(n_paths=100)
        report = compare_strategies(model, scen, MARKET, NO_BOND, OPTIMAL)
        # improvements positive over the majority of the horizon
        positive = np.count_nonzero(report.mean_withdraw_gain > 0)
        assert positive > 0.6 * report.mean_withdraw_gain.size
        positive_c = np.count_nonzero(report.mean_compensation_gain > 0)
        assert positive_c > 0.6 * report.mean_compensation_gain.size

    @pytest.mark.parametrize("scen_b, market_b, shared", [
        (scenario(n_paths=4, horizon=3.0), dataclasses.replace(
            MARKET, theta_1=-0.003), True),
        (scenario(n_paths=4, horizon=3.0, phi=1.5), MARKET, False),
        (scenario(n_paths=4, horizon=3.0), dataclasses.replace(MARKET, r=0.03),
         False),
    ])
    def test_surface_shared_only_when_g_inputs_agree(self, monkeypatch, scen_b,
                                                     market_b, shared):
        # G depends on phi, t_max and r but not on theta_1 or the policy
        model = ou_model()
        scen_a = scenario(n_paths=4, horizon=3.0)
        paths = make_paths(model, scen_a)
        alone_a = simulate_scheme(model, scen_a, MARKET, NO_BOND, paths)
        alone_b = simulate_scheme(model, scen_b, market_b, OPTIMAL, paths)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return g_and_gradient(*args, **kwargs)

        monkeypatch.setattr(scheme, "g_and_gradient", counted)
        report = compare_strategies(model, scen_a, MARKET, NO_BOND, OPTIMAL,
                                    scenario_b=scen_b, market_b=market_b,
                                    paths=paths)
        n_nodes = paths.grid.n_steps + 1
        assert len(calls) == (1 if shared else 2) * n_nodes
        for got, alone in ((report.traj_a, alone_a), (report.traj_b, alone_b)):
            for name in ("wealth", "withdraw", "compensation", "stock_weight",
                         "bond_weight", "cash_weight", "floor_hit"):
                assert np.array_equal(getattr(got, name), getattr(alone, name))
        assert report.totals_b.mean_benefit == \
            discounted_totals(alone_b, market_b.r).mean_benefit

    def test_mismatched_grids_rejected(self):
        model = ou_model()
        scen_a = scenario(n_paths=4, horizon=5.0)
        scen_b = scenario(n_paths=4, horizon=10.0)
        with pytest.raises(ConfigError):
            compare_strategies(model, scen_a, MARKET, OPTIMAL, OPTIMAL,
                               scenario_b=scen_b)

    def test_phi_comparison_raises_compensation(self):
        model = ou_model()
        scen0 = scenario(n_paths=50, phi=0.0)
        scen1 = scenario(n_paths=50, phi=1.0)
        report = compare_strategies(model, scen0, MARKET, OPTIMAL, OPTIMAL,
                                    scenario_b=scen1)
        assert report.compensation_improvement > 0.0
        assert report.compensation_improvement > report.benefit_improvement
