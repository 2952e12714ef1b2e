import dataclasses
import math

import numpy as np
import pytest

from pendraw.mortality import (GompertzMakehamParams, SinglePopModel,
                               TwoPopModel, baseline_hazard, drift_a,
                               initial_hazard, simulate_paths)
from pendraw.control import SchemeScenario, g_and_gradient
from pendraw.numerics import NumericalFailure, TimeGrid, integrate, solve_ode
from pendraw import numerics, pricing
from pendraw.scheme import OPTIMAL, g_surface, simulate_scheme
from pendraw.pricing import (AffineCoeffs1, AffineCoeffs2, MarketParams,
                             a1_cir, a1_ou, build_coefficient_table, c1_ou,
                             coeffs_single, coeffs_two_pop,
                             rolling_bond_volatility, survival_expectation,
                             tilde_mean)

POP1_AGE = GompertzMakehamParams(0.0009944, 11.4, 86.4515)
POP1 = GompertzMakehamParams(0.0009944, 11.4, 86.4515 - 65.0)
POP2 = GompertzMakehamParams(0.0009944, 12.9374, 89.18 - 65.0)

MARKET = MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15, theta_1=-0.0005,
                      maturity=20.0)


def ou_single(gm=POP1):
    return SinglePopModel("ou", gm, 0.561, 0.0035)


def cir_single(gm=POP1):
    return SinglePopModel("cir", gm, 0.561, 0.0035)


def ou_two():
    return TwoPopModel("ou", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035, 0.004,
                       0.005)


def cir_two():
    return TwoPopModel("cir", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035, 0.004,
                       0.005)


ALL_MODELS = [ou_single(), cir_single(), ou_two(), cir_two()]
# the arrays of a tau pass (``pricing._TauTable``)
CURVES = ("c", "k0_level", "k0_gompertz")


def assert_ou_two_pop_matches_moment_odes(model):
    """OU two-population E~ against RK4, step 0.005, on the shifted-drift
    mean ODEs written out with the closed-form C1 and C2."""
    t, s = 0.5, 20.5
    lam = np.array([0.016, 0.014])

    def rhs(u, y):
        c1u = float(c1_ou(model, s - u))
        c2u = float(a1_ou(model.b22, s - u))
        d1 = float(drift_a(u, POP1, model.b1)) \
            - model.sigma1 ** 2 * c1u - model.sigma1 * model.sigma21 * c2u \
            - model.b1 * y[0]
        d2 = float(drift_a(u, POP2, model.b22)) \
            - model.sigma1 * model.sigma21 * c1u \
            - (model.sigma21 ** 2 + model.sigma22 ** 2) * c2u \
            - model.b21 * y[0] - model.b22 * y[1]
        return np.array([d1, d2])

    _, ys = solve_ode(rhs, t, s, lam, step=0.005)
    np.testing.assert_allclose(tilde_mean(model, t, s, lam), ys[-1],
                               rtol=1e-12, atol=0)


class TestClosedForms:
    def test_a1_ou_value(self):
        # analytic formula; cross-oracle: backward RK4 of dA1/dt = b*A1 - 1
        expected = (1.0 - np.exp(-0.561)) / 0.561
        assert float(a1_ou(0.561, 1.0)) == pytest.approx(expected, abs=1e-12)
        _, ys = solve_ode(lambda t, y: 0.561 * y - 1.0, 1.0, 0.0, [0.0],
                          step=0.001)
        assert float(a1_ou(0.561, 1.0)) == pytest.approx(ys[-1, 0], abs=1e-9)

    def test_a1_cir_value(self):
        # sigma^2 correction is tiny at this scale
        value = float(a1_cir(0.561, 0.0035, 1.0))
        assert value == pytest.approx(float(a1_ou(0.561, 1.0)), abs=1e-4)
        b, sig = 0.3, 0.2
        _, ys = solve_ode(lambda t, y: b * y + 0.5 * sig * sig * y * y - 1.0,
                          2.0, 0.0, [0.0], step=0.001)
        assert float(a1_cir(b, sig, 2.0)) == pytest.approx(ys[-1, 0], abs=1e-9)

    @pytest.mark.parametrize("b, sigma", [(40.0, 0.0035), (40.0, 2.0),
                                          (0.561, 40.0), (1.0, 0.0)])
    def test_a1_cir_past_the_exp_overflow(self, b, sigma):
        # eta * tau runs to 800, past 709.8 where e^{eta tau} overflows;
        # against RK4 of dA1/dtau = 1 - b A1 - sigma^2 A1^2 / 2 at
        # eta * step = 0.05, whose error is at most 5.3e-8 of the value
        def rhs(_tau, y):
            return 1.0 - b * y - 0.5 * sigma * sigma * y * y

        eta = math.sqrt(b * b + 2.0 * sigma * sigma)
        taus, ys = solve_ode(rhs, 0.0, 800.0 / eta, [0.0], step=0.05 / eta)
        got = a1_cir(b, sigma, taus)
        np.testing.assert_allclose(got, ys[:, 0], rtol=1e-7, atol=0)
        assert got[-1] == pytest.approx(2.0 / (b + eta), rel=1e-15)
        # and the growing form where that is finite, to rounding
        tau = np.linspace(0.0, 700.0 / eta, 201)
        e = np.expm1(eta * tau)
        np.testing.assert_allclose(a1_cir(b, sigma, tau),
                                   2.0 * e / ((b + eta) * e + 2.0 * eta),
                                   rtol=1e-14, atol=0)

    def test_c2_value(self):
        assert coeffs_two_pop(ou_two(), 0.0, 1.0).c2 == \
            pytest.approx((1.0 - np.exp(-0.65)) / 0.65, abs=1e-12)

    def test_c1_terminal_and_ode(self):
        slower_pop1 = TwoPopModel("ou", POP1, POP2, 0.3, 0.0028, 0.65, 0.0035,
                                  0.004, 0.005)  # b1 < b22
        equal = TwoPopModel("ou", POP1, POP2, 0.65, 0.0028, 0.65, 0.0035,
                            0.004, 0.005)  # b1 == b22
        for model in (ou_two(), slower_pop1, equal):
            assert float(c1_ou(model, 0.0)) == pytest.approx(0.0, abs=1e-15)
            # residual of -dC1/dt + b1*C1 + b21*C2 at random (t, s)
            rng = np.random.default_rng(3)
            for _ in range(20):
                t = rng.uniform(0.0, 30.0)
                s = t + rng.uniform(0.01, 40.0)
                h = 1e-5
                dc1_dt = (c1_ou(model, s - t - h)
                          - c1_ou(model, s - t + h)) / (2 * h)
                res = -dc1_dt + model.b1 * c1_ou(model, s - t) \
                    + model.b21 * a1_ou(model.b22, s - t)
                assert abs(res) < 1e-6


class TestCoeffs:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_terminal_condition(self, model):
        if model.n_factors == 1:
            c = coeffs_single(model, 3.0, 3.0)
            assert (c.a0, c.a1) == (0.0, 0.0)
        else:
            c = coeffs_two_pop(model, 3.0, 3.0)
            assert (c.c0, c.c1, c.c2) == (0.0, 0.0, 0.0)

    def test_order_rejected(self):
        with pytest.raises(ValueError):
            coeffs_single(ou_single(), 2.0, 1.0)
        with pytest.raises(ValueError):
            coeffs_two_pop(ou_two(), 2.0, 1.0)

    def test_a0_against_quadrature_of_tilde_free_form(self):
        # A0 for sigma = 0 reduces to -int a(u) A1(u, s) du
        model = SinglePopModel("ou", POP1, 0.561, 0.0)
        c = coeffs_single(model, 0.0, 10.0)
        direct = -integrate(lambda u: float(drift_a(u, POP1, 0.561))
                            * float(a1_ou(0.561, 10.0 - u)), 0.0, 10.0)
        assert c.a0 == pytest.approx(direct, rel=1e-9)

    def test_two_pop_decouples_without_cross_terms(self):
        # b21 = 0 and sigma21 = 0: population 2 behaves as a single population
        model = TwoPopModel("ou", POP1, POP2, 0.561, 0.0, 0.65, 0.0035, 0.0,
                            0.005)
        single2 = SinglePopModel("ou", POP2, 0.65, 0.005)
        c = coeffs_two_pop(model, 1.0, 21.0)
        ref = coeffs_single(single2, 1.0, 21.0)
        assert c.c1 == pytest.approx(0.0, abs=1e-15)
        assert c.c2 == pytest.approx(ref.a1, rel=1e-12)
        assert c.c0 == pytest.approx(ref.a0, rel=1e-8)

    def test_cir_two_pop_c2_matches_scalar_riccati(self):
        model = cir_two()
        for s in (1.0, 5.0, 20.0, 60.0):
            c = coeffs_two_pop(model, 0.0, s)
            assert c.c2 == pytest.approx(float(a1_cir(0.65, 0.005, s)), abs=1e-6)

    def test_riccati_residuals(self):
        # finite-difference d/dt of each coefficient plugged into its ODE
        rng = np.random.default_rng(5)
        h = 1e-5
        ou1, cir1, ou2, cir2 = ALL_MODELS
        for _ in range(25):
            t = rng.uniform(0.0, 20.0)
            s = t + rng.uniform(0.5, 30.0)

            a1 = float(a1_ou(ou1.b, s - t))
            d = (float(a1_ou(ou1.b, s - t - h)) - float(a1_ou(ou1.b, s - t + h))) / (2 * h)
            assert abs(-d + ou1.b * a1 - 1.0) < 1e-6

            a1c = float(a1_cir(cir1.b, cir1.sigma, s - t))
            d = (float(a1_cir(cir1.b, cir1.sigma, s - t - h))
                 - float(a1_cir(cir1.b, cir1.sigma, s - t + h))) / (2 * h)
            assert abs(-d + cir1.b * a1c + 0.5 * cir1.sigma ** 2 * a1c ** 2
                       - 1.0) < 1e-6

            c2 = float(a1_ou(ou2.b22, s - t))
            d = (float(a1_ou(ou2.b22, s - t - h))
                 - float(a1_ou(ou2.b22, s - t + h))) / (2 * h)
            assert abs(-d + ou2.b22 * c2 - 1.0) < 1e-6


class TestSurvivalExpectation:
    def test_terminal_is_one(self):
        assert survival_expectation(AffineCoeffs1(0.0, 0.0), 0.013) == 1.0
        assert survival_expectation(AffineCoeffs2(0.0, 0.0, 0.0),
                                    [0.014, 0.013]) == 1.0

    def test_positive(self):
        assert survival_expectation(AffineCoeffs1(-3.0, 2.0), 1.5) > 0.0

    def test_zero_noise_reduces_to_deterministic_exponential(self):
        model = SinglePopModel("ou", POP1, 0.561, 0.0)
        t, s = 2.0, 30.0
        c = coeffs_single(model, t, s)
        value = survival_expectation(c, float(baseline_hazard(t, POP1)))
        # deterministic hazard integrates in closed form
        integral = POP1.nu * (s - t) + (np.exp((s - POP1.m) / POP1.delta)
                                        - np.exp((t - POP1.m) / POP1.delta))
        assert value == pytest.approx(np.exp(-integral), abs=1e-6)

    def test_monte_carlo_oracle_single_ou(self):
        model = ou_single(POP1_AGE)  # slow hazard keeps the Euler bias small
        n = 30_000
        grid = TimeGrid(0.0, 35.0, 0.1)
        paths = simulate_paths(model, grid, n, seed=101, keep_shocks=False)
        mc = paths.survival[:, -1]
        closed = survival_expectation(coeffs_single(model, 0.0, 35.0),
                                      initial_hazard(POP1_AGE))
        assert abs(mc.mean() - closed) < 3.0 * mc.std(ddof=1) / np.sqrt(n)


class TestRollingBond:
    def test_volatility_value(self):
        value = rolling_bond_volatility(ou_single(), MARKET)
        expected = -float(a1_ou(0.561, 20.0)) * 0.0035
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-6.2388e-3, abs=1e-6)
        assert value < 0.0

    def test_zero_sigma_gives_zero(self):
        model = SinglePopModel("ou", POP1, 0.561, 0.0)
        assert rolling_bond_volatility(model, MARKET) == 0.0

    def test_short_maturity_vanishes(self):
        tiny = MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15, theta_1=-0.0005,
                            maturity=1e-9)
        assert abs(rolling_bond_volatility(ou_single(), tiny)) < 1e-11

    def test_cir_scaling_and_domain(self):
        model = cir_single()
        v = rolling_bond_volatility(model, MARKET, lambda1=0.04)
        assert v == pytest.approx(-float(a1_cir(0.561, 0.0035, 20.0)) * 0.0035
                                  * 0.2, rel=1e-12)
        with pytest.raises(ValueError):
            rolling_bond_volatility(model, MARKET, lambda1=-1e-3)
        with pytest.raises(ValueError):
            rolling_bond_volatility(model, MARKET, np.array([0.01, -1e-12]))
        with pytest.raises(ValueError):
            rolling_bond_volatility(model, MARKET)

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    def test_arrays_match_numbers(self, make_model):
        model = make_model()
        lam = np.array([[0.0, 0.0144], [0.04, 0.3]])
        # OU's loading is one number whatever the hazards
        got = np.broadcast_to(rolling_bond_volatility(model, MARKET, lam),
                              lam.shape)
        want = [[rolling_bond_volatility(model, MARKET, x) for x in row]
                for row in lam.tolist()]
        assert np.array_equal(got, want)
        # at lambda1 = 1 both kinds give the loading per unit sqrt(lambda1)
        unit = rolling_bond_volatility(model, MARKET, 1.0)
        scale = np.sqrt(lam) if model.kind == "cir" else np.ones_like(lam)
        assert np.array_equal(got, unit * scale)


class TestTildeMean:
    def test_terminal_returns_current(self):
        for model in ALL_MODELS:
            lam = [0.014, 0.013][: model.n_factors]
            assert np.allclose(tilde_mean(model, 4.0, 4.0, lam), lam)

    def test_zero_noise_constant_drift(self):
        # constant a: closed form lam*e^{-b tau} + (a/b)(1 - e^{-b tau})
        lam0 = 0.02
        gm = GompertzMakehamParams(lam0, 1.0, 1e6)  # a(t) == b * lam0
        model = SinglePopModel("ou", gm, 0.5, 0.0)
        got = tilde_mean(model, 0.0, 4.0, lam0)[0]
        assert got == pytest.approx(lam0, rel=1e-9)
        model2 = SinglePopModel("cir", gm, 0.5, 0.0)
        assert tilde_mean(model2, 0.0, 4.0, lam0)[0] == pytest.approx(lam0, rel=1e-9)

    def test_ou_single_against_moment_ode(self):
        # independent route: RK4 on dE/du = a - sigma^2*A1(u,s) - b*E
        model = ou_single()
        t, s, lam = 1.0, 26.0, 0.02
        def rhs(u, y):
            return np.array([float(drift_a(u, POP1, model.b))
                             - model.sigma ** 2 * float(a1_ou(model.b, s - u))
                             - model.b * y[0]])
        _, ys = solve_ode(rhs, t, s, [lam], step=0.005)
        assert tilde_mean(model, t, s, lam)[0] == pytest.approx(ys[-1, 0], rel=1e-8)

    def test_ou_two_pop_against_moment_odes(self):
        # measured 1.7e-14; the kernel form was 1.8e-8 off before its
        # dropped -kap s1^2 C1 term was restored
        assert_ou_two_pop_matches_moment_odes(ou_two())

    @pytest.mark.parametrize("eps", [1e-4, 1e-9, 0.0])
    def test_ou_two_pop_against_moment_odes_near_equal_speeds(self, eps):
        # b22 -> b1 is no special case of the kernel K (measured <= 1.5e-14
        # for eps in {1e-2, 1e-6, 1e-10, 1e-14, 0} as well)
        base = ou_two()
        assert_ou_two_pop_matches_moment_odes(
            dataclasses.replace(base, b22=base.b1 * (1.0 + eps)))

    def test_monte_carlo_importance_oracle(self):
        # E[lam(s) e^{-I}] / E[e^{-I}] estimated from paths
        model = ou_single(POP1_AGE)
        t, s = 0.0, 10.0
        n = 30_000
        grid = TimeGrid(0.0, s, 0.1)
        paths = simulate_paths(model, grid, n, seed=113, keep_shocks=False)
        weights = paths.survival[:, -1]
        lam_end = paths.hazards[0][:, -1]
        ratio = float(np.mean(lam_end * weights) / np.mean(weights))
        infl = (lam_end * weights - ratio * weights) / weights.mean()
        se = infl.std(ddof=1) / np.sqrt(n)
        got = tilde_mean(model, t, s, initial_hazard(POP1_AGE))[0]
        assert abs(got - ratio) < 3.0 * se

    def test_monte_carlo_importance_oracle_cir_two_pop(self):
        # same identity for the members' hazard in the two-population CIR
        # model; finer step keeps the Euler bias inside the 3 SE window
        model = cir_two()
        s, n = 10.0, 10_000
        grid = TimeGrid(0.0, s, 0.05)
        paths = simulate_paths(model, grid, n, seed=127, keep_shocks=False)
        weights = paths.survival[:, -1]
        lam_end = paths.hazards[1][:, -1]
        ratio = float(np.mean(lam_end * weights) / np.mean(weights))
        infl = (lam_end * weights - ratio * weights) / weights.mean()
        se = infl.std(ddof=1) / np.sqrt(n)
        lam0 = [initial_hazard(POP1), initial_hazard(POP2)]
        got = tilde_mean(model, 0.0, s, lam0)[1]
        assert abs(got - ratio) < 3.0 * se


def _forward_hazard(tab, idx, lam):
    """-d/ds log S(t, s) at lattice node idx, which E~ equals: a 5-point
    central difference of the table's k0 - lam . k on its 0.05 lattice."""
    log_s = tab.k0[idx - 2:idx + 3] - lam @ tab.k[:, idx - 2:idx + 3]
    return -(log_s[0] - 8.0 * log_s[1] + 8.0 * log_s[3] - log_s[4]) \
        / (12.0 * 0.05)


class TestForwardMeasureIdentity:
    """E~ is the survival-forward-measure mean: tilde_mean equals
    -d/ds log survival_expectation, both from the scalar routes."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_tilde_mean_is_minus_log_survival_slope(self, model):
        gms = [model.gm] if model.n_factors == 1 else [model.gm1, model.gm2]
        coeffs = coeffs_single if model.n_factors == 1 else coeffs_two_pop
        h = 1e-3
        for t in (0.0, 17.3, 34.0):
            lam = 1.2 * np.array([float(baseline_hazard(t, gm)) for gm in gms])
            for tau in (1.0, 10.0, 30.0):
                s = t + tau
                up, dn = (np.log(survival_expectation(coeffs(model, t, x), lam))
                          for x in (s + h, s - h))
                want = tilde_mean(model, t, s, lam)[-1]
                assert -(up - dn) / (2.0 * h) == pytest.approx(want, rel=1e-6), \
                    (t, tau)


class TestCoefficientTable:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_table_matches_scalar_routes(self, model):
        t = 2.0
        tab = build_coefficient_table(model, t, 80.0, step=0.05)
        lam = np.array([0.016, 0.014])[: model.n_factors]
        for idx in (10, 180, 700, 1500):
            s = float(tab.s[idx])
            if model.n_factors == 1:
                c = coeffs_single(model, t, s)
                assert tab.k0[idx] == pytest.approx(c.a0, abs=5e-7)
                assert tab.k[0][idx] == pytest.approx(c.a1, abs=5e-7)
            else:
                c = coeffs_two_pop(model, t, s)
                assert tab.k0[idx] == pytest.approx(c.c0, abs=5e-7)
                assert tab.k[0][idx] == pytest.approx(c.c1, abs=5e-7)
                assert tab.k[1][idx] == pytest.approx(c.c2, abs=5e-7)
            ref = tilde_mean(model, t, s, lam)[-1]
            assert _forward_hazard(tab, idx, lam) == pytest.approx(
                ref, rel=1e-5, abs=1e-9)

    def test_anchors_on_the_lattice_share_one_tau_pass(self):
        model = cir_two()
        pricing._tau_table.cache_clear()
        tables = [build_coefficient_table(model, t, 120.0, step=0.05)
                  for t in (0.0, 10.0, 20.0, 30.0)]
        info = pricing._tau_table.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        # a later anchor's curves are the leading slice of an earlier one's
        assert np.array_equal(tables[3].k[0], tables[0].k[0][:tables[3].s.size])

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_pass_is_prefix_stable(self, model):
        # a pass's length changes none of its floats at the nodes it shares
        # with a longer one, so one pass serves anchors and ``coeffs`` rows
        # of any span (``pricing._tau_table``)
        full = pricing._TauTable(model, 0.05).grow(2400)
        for n in (1, 2, 7, 40, 399, 700, 1354, 2000):
            part = pricing._TauTable(model, 0.05).grow(n)
            for name in CURVES:
                assert np.array_equal(getattr(part, name),
                                      getattr(full, name)[..., :n + 1]), \
                    (n, name)
        # nor does growing it in pieces: the CIR loop and the cumulative
        # integrals resume from their last floats
        for pieces in ((1, 7, 40, 2400), (1354, 2400), (3, 4, 5, 1000, 2400)):
            grown = pricing._TauTable(model, 0.05)
            for n in pieces:
                grown.grow(n)
            assert grown.n == 2400
            for name in CURVES:
                assert np.array_equal(getattr(grown, name),
                                      getattr(full, name)), (pieces, name)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    @pytest.mark.parametrize("t, t_max, nodes", [
        (12.34, 80.0, (10, 180, 700, 1300)),   # off the lattice: end node at t_max
        (2.0, 35.3, (10, 180, 400, 666)),      # t_max = horizon + 0.3
    ])
    def test_off_lattice_and_short_tables_match_scalar_routes(
            self, model, t, t_max, nodes):
        tab = build_coefficient_table(model, t, t_max, step=0.05)
        assert tab.s[-1] == pytest.approx(t_max, abs=1e-12)
        # the same lattice two nodes further, for the stencil at the last node
        wide = build_coefficient_table(model, t, t_max + 0.2, step=0.05)
        lam = np.array([0.016, 0.014])[: model.n_factors]
        for idx in nodes:
            s = float(tab.s[idx])
            if model.n_factors == 1:
                c = coeffs_single(model, t, s)
                got, want = (tab.k0[idx], tab.k[0][idx]), (c.a0, c.a1)
            else:
                c = coeffs_two_pop(model, t, s)
                got = (tab.k0[idx], tab.k[0][idx], tab.k[1][idx])
                want = (c.c0, c.c1, c.c2)
            assert got == pytest.approx(want, abs=5e-7)
            ref = tilde_mean(model, t, s, lam)[-1]
            assert _forward_hazard(wide, idx, lam) == pytest.approx(
                ref, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_resumed_pass_continues_the_pass(self, model):
        # the end node at t_max resumes the pass from a lattice node; from
        # node 30 of a 40-step pass, 10 more steps must retrace it
        full = pricing._TauTable(model, 0.05).grow(40)
        tail = pricing._TauTable(model, 0.05, 30 * 0.05, full.c[:, 30]).grow(10)
        np.testing.assert_allclose(tail.c, full.c[:, 30:], rtol=0, atol=1e-15)
        for name in ("k0_level", "k0_gompertz"):
            whole = getattr(full, name)
            np.testing.assert_allclose(whole[..., 30:31] + getattr(tail, name),
                                       whole[..., 30:], rtol=0, atol=1e-14,
                                       err_msg=name)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_cold_table_does_not_call_solve_ode(self, model, monkeypatch):
        # nor any other scalar oracle: cold tables, G and a whole simulation
        # run on the tau pass alone
        def refuse(*args, **kwargs):
            raise AssertionError("the scalar routes serve as oracles only")

        pricing._tau_table.cache_clear()
        for module, name in [(pricing, "solve_ode"), (pricing, "integrate"),
                             (pricing, "tilde_mean"), (pricing, "coeffs_single"),
                             (pricing, "coeffs_two_pop"),
                             (numerics, "solve_ode"), (numerics, "integrate")]:
            monkeypatch.setattr(module, name, refuse)
        tab = build_coefficient_table(model, 0.0, 120.0)
        assert np.all(np.isfinite(tab.k0)) and np.all(np.isfinite(tab.k))

        pricing._tau_table.cache_clear()
        scen = SchemeScenario(phi=0.8, horizon=2.0, dt=0.25, n_paths=3)
        grid = TimeGrid(0.0, scen.horizon, scen.dt)
        paths = simulate_paths(model, grid, scen.n_paths, seed=7)
        traj = simulate_scheme(g_surface(model, scen, MARKET, paths), scen,
                               MARKET, OPTIMAL)
        assert np.all(np.isfinite(traj.wealth))
        lam = np.array([0.016, 0.014])[: model.n_factors] \
            * np.array([[0.5], [1.0], [1.5]])
        g, grad = g_and_gradient(model, scen, MARKET, 5.0, lam)
        assert np.all(g > 0.0) and np.all(np.isfinite(grad))

    def test_a1_flow_property(self):
        # A1(t,s) = A1(t,u) + e^{-b(u-t)} A1(u,s) for time-homogeneous b
        b = 0.561
        t, u, s = 1.0, 7.0, 31.0
        lhs = float(a1_ou(b, s - t))
        rhs = float(a1_ou(b, u - t)) + np.exp(-b * (u - t)) * float(a1_ou(b, s - u))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _quarter_cm(model, h, n, tau0=0.0):
    """The members' exact C_m (``a1_cir``) at the quarter steps
    tau0 + (h/4) k, k = 0..4n, of an n-node pass."""
    big_b, big_s, _ = model.factors
    return a1_cir(big_b[-1, -1], big_s[-1, -1],
                  tau0 + 0.25 * h * np.arange(4 * n + 1))


def _factor1_loop(big_b, big_s, h, cm, c1):
    """Reference for ``pricing._cir_tau_pass`` float for float: RK4 on
    factor 1's row dC_1 = -b1 C_1 - b21 C_m - (s1 C_1 + s21 C_m)^2 / 2, steps
    of h/2 from c1, written stage by stage, with C_m at the stage taus from
    ``cm`` (quarter steps: tau, tau + h/4, tau + h/4, tau + h/2)."""
    (b1, _), (b21, _) = big_b.tolist()
    (s1, _), (s21, _) = big_s.tolist()

    def slope(c, m):
        q = s1 * c + s21 * m
        return -(b1 * c + b21 * m) - 0.5 * q * q

    dt = 0.5 * h
    out, cm = [c1], cm.tolist()
    for j in range(0, len(cm) - 1, 2):
        u = slope(c1, cm[j])
        v = slope(c1 + 0.5 * dt * u, cm[j + 1])
        w = slope(c1 + 0.5 * dt * v, cm[j + 1])
        z = slope(c1 + dt * w, cm[j + 2])
        c1 += dt / 6.0 * (u + 2.0 * v + 2.0 * w + z)
        out.append(c1)
    return np.array(out, dtype=float)


def _factor1_solve_ode(big_b, big_s, h, cm, c1):
    """Reference for ``pricing._cir_tau_pass`` from tau = 0: factor 1's row
    stepped by ``solve_ode`` at h/2, its C_m from ``a1_cir`` at the stage
    times ``solve_ode`` forms (``cm`` only sets the number of steps)."""
    (b1, _), (b21, b22) = big_b.tolist()
    (s1, _), (s21, s22) = big_s.tolist()

    def rhs(tau, y):
        m = float(a1_cir(b22, s22, tau))
        q = s1 * y[0] + s21 * m
        return np.array([-(b1 * y[0] + b21 * m) - 0.5 * q * q])

    _, y = solve_ode(rhs, 0.0, (cm.size - 1) // 4 * h, [c1], step=0.5 * h)
    return y[:, 0]


CIR_MODELS = [cir_single(), cir_two()]


class TestCirTauPass:
    """The members' C_m is the closed form at the pass's taus; a
    two-population pass steps factor 1 alone."""

    @pytest.mark.parametrize("model", CIR_MODELS, ids=["cir-single", "cir-sub"])
    @pytest.mark.parametrize("h, n, resume", [
        (0.05, 2400, None), (67.66 / 1354, 1354, None),
        (0.0123, 1, 1354)],   # a short last step resumed at node 1354
        ids=["lattice", "off-lattice", "resumed"])
    def test_members_c_is_the_closed_form(self, model, h, n, resume):
        # at the nodes tau0 + j h, bit for bit, however the pass starts
        args, tau0 = (model, h), 0.0
        if resume is not None:
            tau0 = resume * 0.05
            args += (tau0, pricing._TauTable(model, 0.05).grow(2400)
                     .c[:, resume])
        tt = pricing._TauTable(*args).grow(n)
        assert np.array_equal(tt.c[-1], _quarter_cm(model, h, n, tau0)[::4])

    @pytest.mark.parametrize("h, n", [(0.05, 2400), (67.66 / 1354, 1354)],
                             ids=["lattice", "off-lattice"])
    def test_factor1_loop_matches_solve_ode(self, h, n, monkeypatch):
        got = pricing._TauTable(cir_two(), h).grow(n)
        monkeypatch.setattr(pricing, "_cir_tau_pass", _factor1_solve_ode)
        want = pricing._TauTable(cir_two(), h).grow(n)
        # C and every cumulative curve built from it
        for name in CURVES:
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=0, atol=1e-14, err_msg=name)

    @pytest.mark.parametrize("h, n, resume", [
        (0.05, 2400, None), (67.66 / 1354, 1354, None),
        (0.0123, 1, 1354)],   # a short last step resumed at node 1354
        ids=["lattice", "off-lattice", "resumed"])
    def test_factor1_loop_is_bit_identical_to_reference(self, h, n, resume,
                                                        monkeypatch):
        model = cir_two()
        args = (model, h)
        if resume is not None:
            full = pricing._TauTable(model, 0.05).grow(2400)
            args += (resume * 0.05, full.c[:, resume])
        got = pricing._TauTable(*args).grow(n)
        monkeypatch.setattr(pricing, "_cir_tau_pass", _factor1_loop)
        want = pricing._TauTable(*args).grow(n)
        for name in CURVES:
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name

    def test_one_population_runs_no_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a one-population pass steps nothing")

        want = pricing._TauTable(cir_single(), 0.05).grow(2400)
        monkeypatch.setattr(pricing, "_cir_tau_pass", refuse)
        got = pricing._TauTable(cir_single(), 0.05).grow(2400)
        for name in CURVES:
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name

    def test_one_population_stays_finite_at_any_step(self):
        # no step to blow up: at h = 50 every node holds the closed form,
        # the fixed point 2 / (b + eta) from node 2, tau = 100, on
        model = cir_single()
        tt = pricing._TauTable(model, 50.0).grow(40)
        eta = np.hypot(model.b, np.sqrt(2.0) * model.sigma)
        assert np.isfinite(tt.k0_level).all() and np.isfinite(tt.c).all()
        assert tt.c[0, 2:] == pytest.approx(2.0 / (model.b + eta), rel=1e-15)

    def test_blow_up_reports_first_non_finite_node(self):
        # RK4 on factor 1 at h/2 = 25 is unstable (b1 h/2 = 14); the first
        # non-finite half step of the reference loop is where it fails
        model = cir_two()
        big_b, big_s, _ = model.factors
        ref = _factor1_loop(big_b, big_s, 50.0, _quarter_cm(model, 50.0, 40),
                            0.0)
        at = 25.0 * int(np.argmin(np.isfinite(ref)))
        assert at == 125.0
        with pytest.raises(NumericalFailure) as err:
            pricing._TauTable(model, 50.0).grow(40)
        assert err.value.at_time == at
        # reached by growth, the same node fails, and the pass keeps the
        # whole nodes before it (node 2, tau = 100)
        tt = pricing._TauTable(model, 50.0).grow(1)
        for _ in range(2):
            with pytest.raises(NumericalFailure) as err:
                tt.grow(40)
            assert err.value.at_time == at
            assert tt.n == 2 and np.isfinite(tt.c).all()


class TestRiccatiResidual:
    """The production CIR pass against its own Riccati system
    dC = e_m - B^T C - (S^T C)^2 / 2, by five-point central differences of
    its nodes at a step h of 0.01. The differences err by h^4 / 30 times
    C's fifth derivative, which for C_m is b^4 - 11 sigma^2 b^2 + 4 sigma^4
    at tau = 0, at most eta^4 = (b^2 + 2 sigma^2)^2, and falls from there
    like e^{-eta tau}; factor 1's is a b21-weighted share of it. Rounding
    adds 1.5 eps max|C| / h."""

    @pytest.mark.parametrize("model", CIR_MODELS, ids=["cir-single", "cir-sub"])
    def test_pass_solves_its_riccati_system(self, model):
        h = 0.01
        big_b, big_s, _ = model.factors
        c = pricing._TauTable(model, h).grow(6000).c
        diff = (c[:, :-4] - 8.0 * c[:, 1:-3] + 8.0 * c[:, 3:-1]
                - c[:, 4:]) / (12.0 * h)
        mid = c[:, 2:-2]
        q = big_s.T @ mid
        rhs = np.eye(model.n_factors)[-1][:, None] - big_b.T @ mid \
            - 0.5 * q * q
        eta2 = big_b[-1, -1] ** 2 + 2.0 * big_s[-1, -1] ** 2
        bound = h ** 4 / 30.0 * eta2 ** 2 \
            + 1.5 * np.finfo(float).eps * np.abs(c).max() / h
        assert np.abs(diff - rhs).max() <= bound


def _former_tau_curves(model, h, n):
    """Reference for ``pricing._TauTable`` from the origin: the former
    pass, which also stepped the members' row p of the mean transition beside
    C and integrated p for the shifted hazard mean. OU steps both by the
    doubling map of blockdiag(B, B). CIR's C is the members' closed form
    (``_quarter_cm``) with factor 1 from ``_factor1_loop``; its p, which no
    k0 curve reads, is left zero. Returns (C, k0_level, k0_gompertz)."""
    big_b, big_s, gms = model.factors
    nf = big_b.shape[0]
    w = 0.5 * h * np.arange(2 * n + 1)
    e_m, zero = np.eye(nf)[-1], np.zeros(nf)
    y0 = np.concatenate((zero, e_m))
    if model.kind == "cir":
        cm = _quarter_cm(model, h, n)
        y = np.zeros((w.size, 2 * nf))
        y[:, nf - 1] = cm[::2]
        if nf == 2:
            y[:, 0] = _factor1_loop(big_b, big_s, h, cm, 0.0)
        noise = np.zeros((w.size, 2))
    else:
        base = np.concatenate((e_m, zero))
        hl = 0.5 * h * np.kron(np.eye(2), big_b)
        q = np.eye(2 * nf) - hl / 2 + hl @ hl / 6 - hl @ hl @ hl / 24
        step_map, offset = np.eye(2 * nf) - hl @ q, 0.5 * h * base @ q
        y = np.empty((w.size, 2 * nf))
        y[0] = y0
        m = 1
        while m < w.size:
            y[m:2 * m] = y[:min(m, w.size - m)] @ step_map + offset
            offset = offset @ step_map + offset
            step_map, m = step_map @ step_map, 2 * m
        qc, qp = y[:, :nf] @ big_s, y[:, nf:] @ big_s
        noise = np.column_stack((0.5 * np.sum(qc * qc, axis=1),
                                 -np.sum(qp * qc, axis=1)))
    c, p = y[:, :nf], y[:, nf:]
    decay = np.exp(-w[:, None] / np.array([gm.delta for gm in gms]))
    cum = pricing._cum_simpson(np.hstack((c, c * decay, p, p * decay, noise)),
                               h).T
    level = np.array([big_b[k, k] * gm.nu for k, gm in enumerate(gms)])
    gompertz = np.array([[float(drift_a(gm.m, gm, big_b[k, k])) - level[k]]
                         for k, gm in enumerate(gms)])
    return (np.ascontiguousarray(c[::2].T), cum[-2] - level @ cum[:nf],
            -gompertz * cum[nf:2 * nf])


class TestFormerPass:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_c_and_k0_curves_are_bit_identical(self, model):
        # C's stages never read p, so dropping p changes no C or k0 float
        tt = pricing._TauTable(model, 0.05).grow(2400)
        want = _former_tau_curves(model, 0.05, 2400)
        for name, ref in zip(("c", "k0_level", "k0_gompertz"), want):
            assert np.array_equal(getattr(tt, name), ref), name
