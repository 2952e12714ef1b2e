import dataclasses
import sys

import numpy as np
import pytest

from pendraw import control, pricing, scheme
from pendraw.control import (MarketParams, SchemeScenario,
                             bond_weight_arrays, g_and_gradient,
                             optimal_policy)
from pendraw.mortality import (ConfigError, GompertzMakehamParams,
                               SinglePopModel, TwoPopModel, baseline_hazard,
                               simulate_paths)
from pendraw.numerics import TimeGrid, WS_STREAM_OFFSET, normal_block
from pendraw.pricing import a1_ou, rolling_bond_volatility
from pendraw.scheme import (NO_BOND, OPTIMAL, ComparisonReport,
                            SchemeTrajectory, discounted_totals, g_surface,
                            simulate_scheme)

POP1 = GompertzMakehamParams(0.0009944, 11.4, 86.4515 - 65.0)
POP2 = GompertzMakehamParams(0.0009944, 12.9374, 89.18 - 65.0)
MARKET = MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15, theta_1=-0.0005,
                      maturity=20.0)
EPS = np.finfo(float).eps


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


def step_loop(model, scen, market, paths, policy):
    """The reference wealth engine: the exact log step of the coefficients
    frozen at each step's start, taken one step at a time, on the noise
    ``simulate_scheme`` uses, under ``policy(t, lam (n_paths, n_factors),
    wealth (n_paths,)) -> (withdraw_rate, stock_weight, bond_weight)``. The
    policy may read the wealth."""
    grid = paths.grid
    n, dt = grid.n_steps, grid.step
    sqdt = np.sqrt(dt)
    xi_s = normal_block(paths.seed, WS_STREAM_OFFSET + paths.path_offset,
                        paths.n_paths, n)
    shape = (paths.n_paths, n + 1)
    wealth, withdraw = np.empty(shape), np.empty(shape)
    w_stock, w_bond = np.empty(shape), np.empty(shape)
    wealth[:, 0] = scen.y0

    for k in range(n + 1):
        y = wealth[:, k]
        withdraw[:, k], w_stock[:, k], w_bond[:, k] = policy(
            grid.nodes[k], scheme._hazard_state(paths, k), y)
        if k == n:
            break
        beta, ws, wb = withdraw[:, k], w_stock[:, k], w_bond[:, k]
        lam1 = paths.hazards[0][:, k]
        sigma_l = rolling_bond_volatility(model, market, lam1)
        theta_eff = market.theta_1 * (np.sqrt(lam1) if model.kind == "cir"
                                      else 1.0)
        drift = (market.r * y + ws * y * market.sigma_s * market.theta_s
                 + wb * y * sigma_l * theta_eff - beta)
        diffusion = (ws * y * market.sigma_s * sqdt * xi_s[:, k]
                     + wb * y * sigma_l * sqdt * paths.shocks[0][:, k])
        var = (ws * market.sigma_s) ** 2 + (wb * sigma_l) ** 2
        wealth[:, k + 1] = y * np.exp((drift / y - var / 2) * dt
                                      + diffusion / y)
    return SchemeTrajectory(
        grid=grid, policy_kind="step-loop", wealth=wealth, withdraw=withdraw,
        compensation=paths.members_hazard * wealth, stock_weight=w_stock,
        bond_weight=w_bond, cash_weight=1.0 - (w_stock + w_bond),
        survival=paths.survival)


def loop_reference(model, scen, market, kind, paths):
    """``step_loop`` driven by the withdrawals and weights of the policy
    ``kind`` (``OPTIMAL`` or ``NO_BOND``)."""
    g, grad1 = g_surface(model, scen, market, paths).at(scen.phi)
    stock = market.theta_s / market.sigma_s
    w_bond = (bond_weight_arrays(model, market, g, grad1)
              if kind == OPTIMAL else np.zeros_like(g))

    def same_policy(t, lam, wealth):
        k = round(t / scen.dt)
        return wealth / g[:, k], np.full_like(wealth, stock), w_bond[:, k]

    return step_loop(model, scen, market, paths, same_policy)


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

        traj = step_loop(model, scen, market, paths, hold_cash)
        # the log step is exact here: only the rounding of each step's
        # exp and product is left, at most 2 roundings per step
        expected = scen.y0 * np.exp(market.r * paths.grid.nodes)
        rel = 2 * paths.grid.n_steps * EPS
        assert np.all(np.abs(traj.wealth / expected - 1.0) <= rel)

    def test_deterministic_withdrawal_is_exact(self):
        # no noise and no risky holding: over a step with G frozen, wealth
        # grows at exactly r - 1/G, so the product form is y0 times the
        # exponential of the running sum of (r - 1/G_k) dt
        model = ou_model(sigma=0.0)
        market = dataclasses.replace(MARKET, theta_s=0.0)
        scen = scenario(n_paths=3)
        paths = make_paths(model, scen)
        traj = simulate_scheme(g_surface(model, scen, market, paths), scen,
                               market, NO_BOND)
        g = np.column_stack([
            g_and_gradient(model, scen, market, t, lam[:, None])[0]
            for t, lam in zip(paths.grid.nodes, paths.hazards[0].T)])
        log_growth = np.zeros_like(g)
        np.cumsum((market.r - 1.0 / g[:, :-1]) * scen.dt, axis=1,
                  out=log_growth[:, 1:])
        expected = scen.y0 * np.exp(log_growth)
        assert np.all(np.abs(traj.wealth / expected - 1.0) <= 1e-13)

    def test_withdraw_rate_is_wealth_over_g(self):
        model = ou_model()
        scen = scenario(n_paths=5)
        paths = make_paths(model, scen)
        traj = simulate_scheme(g_surface(model, scen, MARKET, paths), scen,
                               MARKET, OPTIMAL)
        for k in (0, 100, 350):
            lam = paths.hazards[0][:, k][:, None]
            g, _ = g_and_gradient(model, scen, MARKET, paths.grid.nodes[k], lam)
            assert np.array_equal(traj.withdraw[:, k], traj.wealth[:, k] / g)

    def test_weights_sum_to_one(self):
        model = ou_model()
        scen = scenario(n_paths=5)
        traj = simulate_scheme(
            g_surface(model, scen, MARKET, make_paths(model, scen)), scen,
            MARKET, OPTIMAL)
        total = traj.stock_weight + traj.bond_weight + traj.cash_weight
        assert np.all(total == 1.0)

    @staticmethod
    def log_step(traj, k, sigma_l, theta_eff, xi_s, xi_1, dt):
        """log(Y_{k+1}/Y_k) of the exact log step, rebuilt from the stored
        weights and withdrawal and the reconstructed noise."""
        y = traj.wealth[:, k]
        vol_s = traj.stock_weight[:, k] * MARKET.sigma_s
        vol_l = traj.bond_weight[:, k] * sigma_l
        mu = (MARKET.r + vol_s * MARKET.theta_s + vol_l * theta_eff
              - traj.withdraw[:, k] / y)
        return ((mu - (vol_s ** 2 + vol_l ** 2) / 2) * dt
                + np.sqrt(dt) * (vol_s * xi_s[:, k] + vol_l * xi_1[:, k]))

    # the stored log increment rounds in the running sum, the exp, the
    # ratio and the log, at log-wealth of order 1 on these short horizons
    LOG_STEP_TOL = 16 * EPS

    def test_self_financing_identity(self):
        # each step's log increment closes to float roundoff
        model = ou_model()
        scen = scenario(n_paths=4, horizon=5.0)
        paths = make_paths(model, scen)
        traj = simulate_scheme(g_surface(model, scen, MARKET, paths), scen,
                               MARKET, OPTIMAL)
        xi_s = normal_block(paths.seed, WS_STREAM_OFFSET, scen.n_paths,
                            paths.grid.n_steps)
        dt = scen.dt
        sigma_l = -float(a1_ou(model.b, MARKET.maturity)) * model.sigma
        for k in range(paths.grid.n_steps):
            step = self.log_step(traj, k, sigma_l, MARKET.theta_1, xi_s,
                                 paths.shocks[0], dt)
            resid = np.log(traj.wealth[:, k + 1] / traj.wealth[:, k]) - step
            assert np.all(np.abs(resid) <= self.LOG_STEP_TOL)

    def test_wealth_scale_invariance(self):
        # doubling the initial wealth doubles every path exactly
        model = ou_model()
        scen1 = scenario(n_paths=5)
        scen2 = scenario(n_paths=5, y0=200.0)
        paths = make_paths(model, scen1)
        t1 = simulate_scheme(g_surface(model, scen1, MARKET, paths), scen1,
                             MARKET, OPTIMAL)
        t2 = simulate_scheme(g_surface(model, scen2, MARKET, paths), scen2,
                             MARKET, OPTIMAL)
        assert np.array_equal(t2.wealth, 2.0 * t1.wealth)
        assert np.array_equal(t2.withdraw, 2.0 * t1.withdraw)
        assert np.array_equal(t2.compensation, 2.0 * t1.compensation)
        assert np.array_equal(t2.bond_weight, t1.bond_weight)

    def test_determinism(self):
        model = ou_model()
        scen = scenario(n_paths=6, horizon=5.0)
        a, b = (simulate_scheme(g_surface(model, scen, MARKET,
                                          make_paths(model, scen)),
                                scen, MARKET, OPTIMAL) for _ in range(2))
        assert np.array_equal(a.wealth, b.wealth)

    @pytest.mark.parametrize("change", [
        # phi is not in the surface's key: this arm shares it
        dict(scenario=scenario(n_paths=3, horizon=2.0, phi=1.5), shares=True),
        dict(scenario=scenario(n_paths=3, horizon=2.0, t_max=150.0)),
        dict(market=dataclasses.replace(MARKET, r=0.03)),
    ])
    def test_surface_for_other_inputs_rejected(self, change):
        # the surface fixes the model and the paths; another model or other
        # paths make another surface, which a report will not pair with this
        # one (TestCompareStrategies)
        model = ou_model()
        scen = scenario(n_paths=3, horizon=2.0)
        paths = make_paths(model, scen)
        surface = g_surface(model, scen, MARKET, paths)
        args = dict(scenario=scen, market=MARKET)
        args.update(change)
        arm = (args["scenario"], args["market"], OPTIMAL)
        if not args.get("shares"):
            with pytest.raises(ConfigError):
                simulate_scheme(surface, *arm)
            return
        shared = simulate_scheme(surface, *arm)
        alone = simulate_scheme(g_surface(model, *arm[:2], paths), *arm)
        for name in ("wealth", "withdraw", "compensation", "bond_weight",
                     "cash_weight"):
            assert np.array_equal(getattr(shared, name), getattr(alone, name))

    def test_heavy_withdrawal_keeps_wealth_positive(self):
        # withdrawing 50 times the wealth a year drains it as
        # y0 exp((r - 50) t), to 1e-107 of y0 by t = 5, yet never to zero;
        # the exponent's rounding grows with its size, 155 eps at -250
        model = ou_model()
        scen = scenario(n_paths=3, horizon=5.0)
        paths = make_paths(model, scen)

        def drain(t, lam, wealth):
            return 50.0 * wealth, np.zeros_like(wealth), np.zeros_like(wealth)

        traj = step_loop(model, scen, MARKET, paths, drain)
        expected = scen.y0 * np.exp((MARKET.r - 50.0) * paths.grid.nodes)
        assert np.all(np.abs(traj.wealth / expected - 1.0) <= 1e-12)
        assert np.all(traj.wealth > 0.0)

    def test_grid_mismatch_rejected(self):
        model = ou_model()
        paths = make_paths(model, scenario(n_paths=2, horizon=10.0))
        scen = scenario(n_paths=2, horizon=35.0)
        with pytest.raises(ConfigError):
            simulate_scheme(g_surface(model, scen, MARKET, paths), scen,
                            MARKET, OPTIMAL)

    def test_missing_shocks_rejected(self):
        model = ou_model()
        scen = scenario(n_paths=2, horizon=2.0)
        grid = TimeGrid(0.0, 2.0, 0.1)
        paths = simulate_paths(model, grid, 2, scen.seed, keep_shocks=False)
        surface = g_surface(model, scen, MARKET, paths)
        with pytest.raises(ConfigError):
            simulate_scheme(surface, scen, MARKET, OPTIMAL)

    def test_two_pop_compensation_uses_members(self):
        model = TwoPopModel("ou", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035,
                            0.004, 0.005)
        scen = scenario(n_paths=3, horizon=2.0)
        paths = make_paths(model, scen)
        traj = simulate_scheme(g_surface(model, scen, MARKET, paths), scen,
                               MARKET, OPTIMAL)
        assert np.array_equal(traj.compensation,
                              paths.hazards[1] * traj.wealth)

    def test_cir_self_financing_identity(self):
        # CIR wealth dynamics scale the bond volatility and the longevity
        # price of risk by sqrt(lambda1)
        from pendraw.pricing import a1_cir

        model = SinglePopModel("cir", POP1, 0.561, 0.0035)
        scen = scenario(n_paths=4, horizon=3.0)
        paths = make_paths(model, scen)
        traj = simulate_scheme(g_surface(model, scen, MARKET, paths), scen,
                               MARKET, OPTIMAL)
        xi_s = normal_block(paths.seed, WS_STREAM_OFFSET, scen.n_paths,
                            paths.grid.n_steps)
        dt = scen.dt
        a1_t = float(a1_cir(model.b, model.sigma, MARKET.maturity))
        for k in range(paths.grid.n_steps):
            sq = np.sqrt(np.maximum(paths.hazards[0][:, k], 0.0))
            step = self.log_step(traj, k, -a1_t * model.sigma * sq,
                                 MARKET.theta_1 * sq, xi_s, paths.shocks[0],
                                 dt)
            resid = np.log(traj.wealth[:, k + 1] / traj.wealth[:, k]) - step
            assert np.all(np.abs(resid) <= self.LOG_STEP_TOL)


def two_pop_model(kind):
    return TwoPopModel(kind, POP1, POP2, 0.561, 0.0028, 0.65, 0.0035, 0.004,
                       0.005)


KIND_MODELS = {"ou-single": ou_model,
               "cir-single": lambda: SinglePopModel("cir", POP1, 0.561, 0.0035),
               "ou-sub": lambda: two_pop_model("ou"),
               "cir-sub": lambda: two_pop_model("cir")}


class TestProductRecurrence:
    """The optimal and no-bond arms step wealth as a running product of step
    factors; ``step_loop``, driven by the same withdrawals and weights, is
    the reference."""

    # The running sum of log F and the loop's product of exps round
    # differently in every step, so the worst case grows linearly in the
    # steps: 4 roundings per step of 350 (measured: 6.3e-15 at the shipped
    # market, 1.2e-13 at theta_1 = -2, where log-wealth spans the widest range)
    REL = 4 * 350 * np.finfo(float).eps

    @classmethod
    def assert_matches(cls, got, ref):
        for name in ("wealth", "withdraw"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.all(np.abs(a - b) <= cls.REL * np.abs(b)), name
        for name in ("stock_weight", "bond_weight", "cash_weight"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))

    def check(self, model, market, kind):
        scen = scenario(n_paths=20)
        paths = make_paths(model, scen)
        got = simulate_scheme(g_surface(model, scen, market, paths), scen,
                              market, kind)
        self.assert_matches(got, loop_reference(model, scen, market, kind,
                                                paths))
        assert np.all(np.isfinite(got.wealth))
        assert np.all(got.wealth > 0.0)

    @pytest.mark.parametrize("arm", [OPTIMAL, NO_BOND])
    @pytest.mark.parametrize("kind", sorted(KIND_MODELS))
    def test_matches_the_step_loop(self, kind, arm):
        self.check(KIND_MODELS[kind](), MARKET, arm)

    @pytest.mark.parametrize("kind", sorted(KIND_MODELS))
    def test_matches_the_step_loop_with_positive_wealth_under_heavy_leverage(
            self, kind):
        # a longevity risk price of -2 makes the bond weight about 320, and
        # an Euler factor 1 + mu dt + ... falls below zero on some steps; the
        # log step's factor stays positive on every path
        market = dataclasses.replace(MARKET, theta_1=-2.0)
        self.check(KIND_MODELS[kind](), market, OPTIMAL)


class TestObjective:
    """The closed-form withdrawal against the objective it maximises. With
    log utility and a subjective discount equal to r, G is the wealth
    coefficient of the value function of

        J = E[ int_0^H e^{-rt} S (log beta + phi lambda log Y) dt
               + e^{-rH} S_H G_H log Y_H ],

    S the members' survival index and lambda their hazard. So withdrawing
    c Y/G, with the optimal weights and on common random numbers, must give
    a lower J at c = 0.95 and at c = 1.05 than at c = 1, by more than the
    paired standard error (measured gaps 0.014 to 0.018, with standard errors
    of 6e-4 or less)."""

    @staticmethod
    def pathwise_j(model, scen, paths, g, w_bond, c):
        stock = MARKET.theta_s / MARKET.sigma_s

        def scaled(t, lam, wealth):
            k = round(t / scen.dt)
            return (c * wealth / g[:, k], np.full_like(wealth, stock),
                    w_bond[:, k])

        traj = step_loop(model, scen, MARKET, paths, scaled)
        nodes = paths.grid.nodes
        disc_s = np.exp(-MARKET.r * nodes) * paths.survival
        log_y = np.log(traj.wealth)
        running = disc_s * (np.log(traj.withdraw)
                            + scen.phi * paths.members_hazard * log_y)
        return (np.trapezoid(running, nodes, axis=1)
                + disc_s[:, -1] * g[:, -1] * log_y[:, -1])

    @pytest.mark.parametrize("kind", sorted(KIND_MODELS))
    def test_withdrawing_wealth_over_g_maximises_j(self, kind):
        model = KIND_MODELS[kind]()
        scen = scenario(n_paths=200)
        paths = make_paths(model, scen)
        g, grad1 = g_surface(model, scen, MARKET, paths).at(scen.phi)
        w_bond = bond_weight_arrays(model, MARKET, g, grad1)
        j_1 = self.pathwise_j(model, scen, paths, g, w_bond, 1.0)
        for c in (0.95, 1.05):
            gap = j_1 - self.pathwise_j(model, scen, paths, g, w_bond, c)
            assert gap.mean() > 3.0 * gap.std(ddof=1) / np.sqrt(gap.size)


class TestOneTauPass:
    """Every anchor's G reads the one cached tau pass of its model and
    t_max, looked up once per G evaluation."""

    def test_cold_cir_sub_simulation_at_dt_025(self):
        model = TwoPopModel("cir", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035,
                            0.004, 0.005)
        scen = scenario(n_paths=20, dt=0.25)
        paths = make_paths(model, scen)
        pricing._tau_table.cache_clear()
        simulate_scheme(g_surface(model, scen, MARKET, paths), scen, MARKET,
                        OPTIMAL)
        info = pricing._tau_table.cache_info()
        # one G surface over all 141 anchors: one lookup, a miss
        assert (info.misses, info.hits) == (1, 0)

    def test_off_lattice_policy_reads_the_pass_of_t0(self):
        model = SinglePopModel("cir", POP1, 0.561, 0.0035)
        scen = scenario()
        pricing._tau_table.cache_clear()
        optimal_policy(model, scen, MARKET, 0.0, 0.0144, 100.0)
        optimal_policy(model, scen, MARKET, 12.34, 0.05, 100.0)
        info = pricing._tau_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("kind", sorted(KIND_MODELS))
    def test_anchor_order_changes_no_float(self, kind):
        # a later anchor's rule is cut earlier, so t = 30, 20, 10, 0 grows
        # the pass at every call, each growth resuming the last one
        model, scen = KIND_MODELS[kind](), scenario()
        times = (0.0, 10.0, 20.0, 30.0)
        lam = {t: np.array([float(baseline_hazard(t, gm))
                            for gm in model.factors[2]]) for t in times}
        runs, lengths = [], []
        for order in (times, times[::-1]):
            pricing._tau_table.cache_clear()
            run = {}
            for t in order:
                run[t] = (optimal_policy(model, scen, MARKET, t, lam[t], 100.0),
                          *g_and_gradient(model, scen, MARKET, t, lam[t][None]))
                # a lookup is a hit here, never a miss
                lengths.append(pricing._tau_table(model,
                                                  pricing.LATTICE_STEP).n)
            assert pricing._tau_table.cache_info().misses == 1
            runs.append(run)
        backward = lengths[len(times):]
        assert backward == sorted(set(backward))
        for t in times:
            forward, reverse = runs[0][t], runs[1][t]
            assert forward[0] == reverse[0], t
            for a, b in zip(forward[1:], reverse[1:]):
                assert np.array_equal(a, b), t

    def test_emptied_caches_drop_the_pass(self, monkeypatch):
        # emptying every functools cache in pendraw, as the benchmark does
        # before each round, makes the next policy build the pass again
        # from its first node: a cache kept in another form would survive
        model, scen = KIND_MODELS["cir-sub"](), scenario()
        grown = []
        real = pricing._TauTable.grow
        monkeypatch.setattr(pricing._TauTable, "grow",
                            lambda tt, n: grown.append(tt.n) or real(tt, n))
        optimal_policy(model, scen, MARKET, 0.0, [0.0105, 0.006], 100.0)
        assert grown[0] == 0
        for mod in [m for name, m in list(sys.modules.items())
                    if name == "pendraw" or name.startswith("pendraw.")]:
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
        grown.clear()
        optimal_policy(model, scen, MARKET, 0.0, [0.0105, 0.006], 100.0)
        info = pricing._tau_table.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        assert grown[0] == 0

    @pytest.mark.parametrize("kind", ["ou-single", "cir-sub"])
    def test_warm_pass_is_read_as_it_stands(self, kind, monkeypatch):
        # once the pass closes an anchor's rule, a call at that anchor or a
        # later one, whose rule is cut earlier, neither grows the pass nor
        # guesses a cut
        model, scen = KIND_MODELS[kind](), scenario()
        lam = {t: np.array([[float(baseline_hazard(t, gm))
                             for gm in model.factors[2]]]) for t in (0.0, 10.0)}
        pricing._tau_table.cache_clear()
        g_and_gradient(model, scen, MARKET, 0.0, lam[0.0])
        calls = []
        guess, grow = control._cut_guess, pricing._TauTable.grow
        monkeypatch.setattr(control, "_cut_guess",
                            lambda *a: calls.append("guess") or guess(*a))
        monkeypatch.setattr(pricing._TauTable, "grow",
                            lambda tt, n: calls.append("grow") or grow(tt, n))
        try:
            for t in (0.0, 10.0):
                g_and_gradient(model, scen, MARKET, t, lam[t])
        finally:
            pricing._tau_table.cache_clear()
        assert calls == []


class TestDiscountedTotals:
    def _flat_withdraw(self, rate, horizon, r, dt=0.1):
        grid = TimeGrid(0.0, horizon, dt)
        shape = (1, grid.n_steps + 1)
        zero = np.zeros(shape)
        traj = SchemeTrajectory(grid=grid, policy_kind="flat", wealth=zero,
                                withdraw=np.full(shape, rate),
                                compensation=zero, stock_weight=zero,
                                bond_weight=zero, cash_weight=np.ones(shape),
                                survival=np.ones(shape))
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
    """Reports on two arms simulated on one set of paths and one G surface,
    as ``experiments.run_experiment`` pairs every arm with its reference."""

    @staticmethod
    def report(model, scen, arm_a, arm_b):
        """ComparisonReport of two (scenario, market, policy kind) arms on
        the paths of ``scen``."""
        paths = make_paths(model, scen)
        surface = g_surface(model, scen, MARKET, paths)
        traj_a, traj_b = (simulate_scheme(surface, *arm)
                          for arm in (arm_a, arm_b))
        return ComparisonReport.of(traj_a, traj_b)

    def test_identical_arms_zero_gain(self):
        model = ou_model()
        scen = scenario(n_paths=10, horizon=5.0)
        report = self.report(model, scen, (scen, MARKET, OPTIMAL),
                             (scen, MARKET, OPTIMAL))
        assert np.all(report.withdraw_gain == 0.0)
        assert np.all(report.compensation_gain == 0.0)
        assert report.benefit_improvement == 0.0

    def test_bond_improves_on_average(self):
        model = ou_model()
        scen = scenario(n_paths=100)
        report = self.report(model, scen, (scen, MARKET, NO_BOND),
                             (scen, MARKET, OPTIMAL))
        # improvements positive over the majority of the horizon
        positive = np.count_nonzero(report.mean_withdraw_gain > 0)
        assert positive > 0.6 * report.mean_withdraw_gain.size
        positive_c = np.count_nonzero(report.mean_compensation_gain > 0)
        assert positive_c > 0.6 * report.mean_compensation_gain.size

    @pytest.mark.parametrize("scen_b, market_b, shared", [
        (scenario(n_paths=4, horizon=3.0), dataclasses.replace(
            MARKET, theta_1=-0.003), True),
        (scenario(n_paths=4, horizon=3.0, phi=1.5), MARKET, True),
        (scenario(n_paths=4, horizon=3.0), dataclasses.replace(MARKET, r=0.03),
         False),
    ])
    def test_surface_shared_only_when_g_inputs_agree(self, monkeypatch, scen_b,
                                                     market_b, shared):
        # G's pieces depend on t_max and r but not on phi, theta_1 or the
        # policy: the no-bond arm's surface serves arm b, or is rejected
        model = ou_model()
        scen_a = scenario(n_paths=4, horizon=3.0)
        paths = make_paths(model, scen_a)
        alone_a = simulate_scheme(g_surface(model, scen_a, MARKET, paths),
                                  scen_a, MARKET, NO_BOND)
        alone_b = simulate_scheme(g_surface(model, scen_b, market_b, paths),
                                  scen_b, market_b, OPTIMAL)
        # the anchors of each G surface evaluation, one entry per surface
        calls = []
        g_pieces_at = scheme._g_pieces_at

        def counted(*args, **kwargs):
            calls.append(len(args[3]))
            return g_pieces_at(*args, **kwargs)

        monkeypatch.setattr(scheme, "_g_pieces_at", counted)
        surface = g_surface(model, scen_a, MARKET, paths)
        traj_a = simulate_scheme(surface, scen_a, MARKET, NO_BOND)
        if not shared:
            with pytest.raises(ConfigError):
                simulate_scheme(surface, scen_b, market_b, OPTIMAL)
            return
        traj_b = simulate_scheme(surface, scen_b, market_b, OPTIMAL)
        report = ComparisonReport.of(traj_a, traj_b)
        assert calls == [paths.grid.n_steps + 1]
        for got, alone in ((report.traj_a, alone_a), (report.traj_b, alone_b)):
            for name in ("wealth", "withdraw", "compensation", "stock_weight",
                         "bond_weight", "cash_weight"):
                assert np.array_equal(getattr(got, name), getattr(alone, name))
        assert report.totals_b.mean_benefit == \
            discounted_totals(alone_b, market_b.r).mean_benefit

    @pytest.mark.parametrize("other", [
        dict(accepted=True),            # a second surface of equal key
        dict(model=ou_model(sigma=0.004)),
        dict(paths=True),               # equal floats, another object
        dict(scenario=scenario(n_paths=3, horizon=2.0, t_max=150.0)),
        dict(market=dataclasses.replace(MARKET, r=0.03)),
        dict(by_hand=True),
    ])
    def test_report_pairs_arms_of_one_paths_object_and_key(self, other):
        model = ou_model()
        scen = scenario(n_paths=3, horizon=2.0)
        paths = make_paths(model, scen)
        traj_a = simulate_scheme(g_surface(model, scen, MARKET, paths), scen,
                                 MARKET, NO_BOND)
        model_b = other.get("model", model)
        scen_b = other.get("scenario", scen)
        market_b = other.get("market", MARKET)
        paths_b = make_paths(model, scen) if "paths" in other else paths
        traj_b = simulate_scheme(g_surface(model_b, scen_b, market_b, paths_b),
                                 scen_b, market_b, OPTIMAL)
        if "by_hand" in other:
            traj_b = dataclasses.replace(traj_b, surface=None)
        if not other.get("accepted"):
            with pytest.raises(ConfigError):
                ComparisonReport.of(traj_a, traj_b)
            return
        report = ComparisonReport.of(traj_a, traj_b)
        assert report.totals_b.mean_benefit == \
            discounted_totals(traj_b, MARKET.r).mean_benefit

    def test_phi_comparison_raises_compensation(self):
        model = ou_model()
        scen0 = scenario(n_paths=50, phi=0.0)
        scen1 = scenario(n_paths=50, phi=1.0)
        report = self.report(model, scen0, (scen0, MARKET, OPTIMAL),
                             (scen1, MARKET, OPTIMAL))
        assert report.compensation_improvement > 0.0
        assert report.compensation_improvement > report.benefit_improvement
