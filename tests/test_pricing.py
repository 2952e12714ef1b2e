import numpy as np
import pytest

from pendraw.mortality import (GompertzMakehamParams, SinglePopModel,
                               TwoPopModel, baseline_hazard, drift_a,
                               initial_hazard, simulate_paths)
from pendraw.numerics import NumericalFailure, TimeGrid, integrate, solve_ode
from pendraw import pricing
from pendraw.pricing import (AffineCoeffs1, AffineCoeffs2, MarketParams,
                             a1_cir, a1_ou, build_coefficient_table, c1_ou,
                             c2_ou, coeffs_single, coeffs_two_pop,
                             replication_weights, rolling_bond_volatility,
                             survival_expectation, tilde_mean)

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

    def test_c2_value(self):
        assert float(c2_ou(0.65, 1.0)) == \
            pytest.approx((1.0 - np.exp(-0.65)) / 0.65, abs=1e-12)

    def test_c1_terminal_and_ode(self):
        slower_pop1 = TwoPopModel("ou", POP1, POP2, 0.3, 0.0028, 0.65, 0.0035,
                                  0.004, 0.005)  # b1 < b22 branch
        for model in (ou_two(), slower_pop1):
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
                    + model.b21 * c2_ou(model.b22, s - t)
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

            c2 = float(c2_ou(ou2.b22, s - t))
            d = (float(c2_ou(ou2.b22, s - t - h))
                 - float(c2_ou(ou2.b22, s - t + h))) / (2 * h)
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
        value = rolling_bond_volatility(ou_single(), MARKET, 0.0)
        expected = -float(a1_ou(0.561, 20.0)) * 0.0035
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-6.2388e-3, abs=1e-6)
        assert value < 0.0

    def test_zero_sigma_gives_zero(self):
        model = SinglePopModel("ou", POP1, 0.561, 0.0)
        assert rolling_bond_volatility(model, MARKET, 0.0) == 0.0

    def test_short_maturity_vanishes(self):
        tiny = MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15, theta_1=-0.0005,
                            maturity=1e-9)
        assert abs(rolling_bond_volatility(ou_single(), tiny, 0.0)) < 1e-11

    def test_cir_scaling_and_domain(self):
        model = cir_single()
        v = rolling_bond_volatility(model, MARKET, 0.0, lambda1=0.04)
        assert v == pytest.approx(-float(a1_cir(0.561, 0.0035, 20.0)) * 0.0035
                                  * 0.2, rel=1e-12)
        with pytest.raises(ValueError):
            rolling_bond_volatility(model, MARKET, 0.0, lambda1=-1e-3)
        with pytest.raises(ValueError):
            rolling_bond_volatility(model, MARKET, 0.0)

    def test_replication_extremes(self):
        model = ou_single()
        assert replication_weights(model, MARKET, 3.0, 23.0) == (0.0, 1.0)
        assert replication_weights(model, MARKET, 3.0, 3.0) == (1.0, 0.0)

    def test_replication_weights_sum(self):
        model = cir_two()
        for s in (0.5, 5.0, 20.0, 45.0):
            cash, roll = replication_weights(model, MARKET, 0.0, s)
            assert cash + roll == pytest.approx(1.0, abs=1e-15)

    def test_replication_undefined_without_volatility(self):
        model = SinglePopModel("ou", POP1, 0.561, 0.0)
        with pytest.raises(ValueError):
            replication_weights(model, MARKET, 0.0, 10.0)


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
        model = ou_two()
        t, s = 0.5, 20.5
        lam = np.array([0.016, 0.014])

        def rhs(u, y):
            c1u = float(c1_ou(model, s - u))
            c2u = float(c2_ou(model.b22, s - u))
            d1 = float(drift_a(u, POP1, model.b1)) \
                - model.sigma1 ** 2 * c1u - model.sigma1 * model.sigma21 * c2u \
                - model.b1 * y[0]
            d2 = float(drift_a(u, POP2, model.b22)) \
                - model.sigma1 * model.sigma21 * c1u \
                - (model.sigma21 ** 2 + model.sigma22 ** 2) * c2u \
                - model.b21 * y[0] - model.b22 * y[1]
            return np.array([d1, d2])

        _, ys = solve_ode(rhs, t, s, lam, step=0.005)
        got = tilde_mean(model, t, s, lam)
        assert np.allclose(got, ys[-1], rtol=1e-7)

    def test_monte_carlo_importance_oracle(self):
        # E[lam(s) e^{-I}] / E[e^{-I}] estimated from paths
        model = ou_single(POP1_AGE)
        t, s = 0.0, 10.0
        n = 30_000
        grid = TimeGrid(0.0, s, 0.1)
        paths = simulate_paths(model, grid, n, seed=113, keep_shocks=False)
        weights = paths.survival[:, -1]
        lam_end = paths.lambda1[:, -1]
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
        lam_end = paths.lambda2[:, -1]
        ratio = float(np.mean(lam_end * weights) / np.mean(weights))
        infl = (lam_end * weights - ratio * weights) / weights.mean()
        se = infl.std(ddof=1) / np.sqrt(n)
        lam0 = [initial_hazard(POP1), initial_hazard(POP2)]
        got = tilde_mean(model, 0.0, s, lam0)[1]
        assert abs(got - ratio) < 3.0 * se


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
                eng = tab.j[0][idx] * lam[0] + tab.psi[idx]
                ref = tilde_mean(model, t, s, lam[:1])[0]
            else:
                c = coeffs_two_pop(model, t, s)
                assert tab.k0[idx] == pytest.approx(c.c0, abs=5e-7)
                assert tab.k[0][idx] == pytest.approx(c.c1, abs=5e-7)
                assert tab.k[1][idx] == pytest.approx(c.c2, abs=5e-7)
                eng = tab.j[0][idx] * lam[0] + tab.j[1][idx] * lam[1] + tab.psi[idx]
                ref = tilde_mean(model, t, s, lam)[1]
            assert eng == pytest.approx(ref, rel=1e-5, abs=1e-9)

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
    @pytest.mark.parametrize("t, t_max, nodes", [
        (12.34, 80.0, (10, 180, 700, 1300)),   # off the lattice: end node at t_max
        (2.0, 35.3, (10, 180, 400, 666)),      # t_max = horizon + 0.3
    ])
    def test_off_lattice_and_short_tables_match_scalar_routes(
            self, model, t, t_max, nodes):
        tab = build_coefficient_table(model, t, t_max, step=0.05)
        assert tab.s[-1] == pytest.approx(t_max, abs=1e-12)
        lam = np.array([0.016, 0.014])[: model.n_factors]
        for idx in nodes:
            s = float(tab.s[idx])
            if model.n_factors == 1:
                c = coeffs_single(model, t, s)
                got, want = (tab.k0[idx], tab.k[0][idx]), (c.a0, c.a1)
                eng = tab.j[0][idx] * lam[0] + tab.psi[idx]
            else:
                c = coeffs_two_pop(model, t, s)
                got = (tab.k0[idx], tab.k[0][idx], tab.k[1][idx])
                want = (c.c0, c.c1, c.c2)
                eng = tab.j[0][idx] * lam[0] + tab.j[1][idx] * lam[1] + tab.psi[idx]
            assert got == pytest.approx(want, abs=5e-7)
            ref = tilde_mean(model, t, s, lam)[-1]
            assert eng == pytest.approx(ref, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_resumed_pass_continues_the_pass(self, model):
        # the end node at t_max resumes the pass from a lattice node; from
        # node 30 of a 40-step pass, 10 more steps must retrace it
        full = pricing._tau_curves(model, 0.05, 40)
        start = np.concatenate((full.c[:, 30], full.p[:, 30]))
        tail = pricing._tau_curves(model, 0.05, 10, 30 * 0.05, start)
        for name in ("c", "p"):
            np.testing.assert_allclose(getattr(tail, name),
                                       getattr(full, name)[:, 30:], rtol=0,
                                       atol=1e-15, err_msg=name)
        for name in ("k0_level", "psi_level", "k0_gompertz", "psi_gompertz"):
            whole = getattr(full, name)
            np.testing.assert_allclose(whole[..., 30:31] + getattr(tail, name),
                                       whole[..., 30:], rtol=0, atol=1e-14,
                                       err_msg=name)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.n_factors}")
    def test_cold_table_does_not_call_solve_ode(self, model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ode serves the scalar oracles only")

        pricing._tau_table.cache_clear()
        monkeypatch.setattr(pricing, "solve_ode", refuse)
        tab = build_coefficient_table(model, 0.0, 120.0)
        assert np.all(np.isfinite(tab.k0)) and np.all(np.isfinite(tab.psi))

    def test_a1_flow_property(self):
        # A1(t,s) = A1(t,u) + e^{-b(u-t)} A1(u,s) for time-homogeneous b
        b = 0.561
        t, u, s = 1.0, 7.0, 31.0
        lhs = float(a1_ou(b, s - t))
        rhs = float(a1_ou(b, u - t)) + np.exp(-b * (u - t)) * float(a1_ou(b, s - u))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _lin_matrix_cir_pass(big_b, big_s, h, n, start):
    """Reference for ``pricing._cir_tau_pass``: the (C, p) row under the
    matrix right-hand side dy = (e_m, 0) - y L - (1/2, 1) z (S^T C, S^T C),
    z = (S^T C, S^T p), stepped by ``solve_ode`` from ``start``."""
    nf = big_b.shape[0]
    e_m = np.eye(nf)[-1]
    base = np.concatenate((e_m, np.zeros(nf)))
    lin = np.hstack((np.kron(np.eye(2), big_b), np.kron(np.eye(2), big_s),
                     np.kron([[1.0, 1.0], [0.0, 0.0]], big_s)))
    weight = np.repeat([0.5, 1.0], nf)
    nn = 2 * nf

    def rhs(_tau, y):
        r = y @ lin
        return base - r[:nn] - weight * r[nn:2 * nn] * r[2 * nn:]

    _, y = solve_ode(rhs, 0.0, n * h, start, step=0.5 * h)
    return y


def _padded_cir_tau_pass(big_b, big_s, h, n, start):
    """Reference for ``pricing._cir_tau_pass`` float for float: the former
    pass, which stepped (C1, C2, p1, p2) with a single population padded to
    factor 2 behind a zero factor 1, with the stage slopes from ``rhs``."""
    nf = big_b.shape[0]
    pad = 2 - nf
    (b1, _), (b21, b22) = np.pad(big_b, (pad, 0)).tolist()
    (s1, _), (s21, s22) = np.pad(big_s, (pad, 0)).tolist()

    def rhs(c1, c2, p1, p2):
        q1, q2 = s1 * c1 + s21 * c2, s22 * c2
        return (-(b1 * c1 + b21 * c2) - 0.5 * q1 * q1,
                1.0 - b22 * c2 - 0.5 * q2 * q2,
                -(b1 * p1 + b21 * p2) - (s1 * p1 + s21 * p2) * q1,
                -b22 * p2 - s22 * p2 * q2)

    dt = 0.5 * h
    half, sixth = 0.5 * dt, dt / 6.0
    y = np.empty((2 * n + 1, 4))
    padded = np.zeros(4)
    padded[2 - nf:2], padded[4 - nf:] = start[:nf], start[nf:]
    c1, c2, p1, p2 = map(float, padded)
    y[0] = c1, c2, p1, p2
    for k in range(1, 2 * n + 1):
        u1, u2, u3, u4 = rhs(c1, c2, p1, p2)
        v1, v2, v3, v4 = rhs(c1 + half * u1, c2 + half * u2,
                             p1 + half * u3, p2 + half * u4)
        w1, w2, w3, w4 = rhs(c1 + half * v1, c2 + half * v2,
                             p1 + half * v3, p2 + half * v4)
        z1, z2, z3, z4 = rhs(c1 + dt * w1, c2 + dt * w2,
                             p1 + dt * w3, p2 + dt * w4)
        c1 += sixth * (u1 + 2.0 * v1 + 2.0 * w1 + z1)
        c2 += sixth * (u2 + 2.0 * v2 + 2.0 * w2 + z2)
        p1 += sixth * (u3 + 2.0 * v3 + 2.0 * w3 + z3)
        p2 += sixth * (u4 + 2.0 * v4 + 2.0 * w4 + z4)
        y[k] = c1, c2, p1, p2
    return np.hstack((y[:, 2 - nf:2], y[:, 4 - nf:]))


CIR_MODELS = [cir_single(), cir_two()]


class TestCirTauPass:
    @pytest.mark.parametrize("model", CIR_MODELS, ids=["cir-single", "cir-sub"])
    @pytest.mark.parametrize("h, n", [(0.05, 2400), (67.66 / 1354, 1354)],
                             ids=["lattice", "off-lattice"])
    def test_float_kernel_matches_matrix_reference(self, model, h, n,
                                                   monkeypatch):
        got = pricing._tau_table.__wrapped__(model, h, n)
        monkeypatch.setattr(pricing, "_cir_tau_pass", _lin_matrix_cir_pass)
        want = pricing._tau_table.__wrapped__(model, h, n)
        # C, p and every cumulative curve built from them
        for name, ref in vars(want).items():
            np.testing.assert_allclose(getattr(got, name), ref, rtol=0,
                                       atol=1e-14, err_msg=name)

    @pytest.mark.parametrize("model", CIR_MODELS, ids=["cir-single", "cir-sub"])
    @pytest.mark.parametrize("h, n, resume", [
        (0.05, 2400, None), (67.66 / 1354, 1354, None),
        (0.0123, 1, 1354)],   # a short last step resumed at node 1354
        ids=["lattice", "off-lattice", "resumed"])
    def test_pass_is_bit_identical_to_padded_pass(self, model, h, n, resume,
                                                  monkeypatch):
        # stepping only the factors the model has changes no float operation
        # of the members' (C, p), nor of factor 1's in a two-population model
        args = (model, h, n)
        if resume is not None:
            full = pricing._tau_curves(model, 0.05, 2400)
            start = np.concatenate((full.c[:, resume], full.p[:, resume]))
            args += (resume * 0.05, start)
        got = pricing._tau_curves(*args)
        monkeypatch.setattr(pricing, "_cir_tau_pass", _padded_cir_tau_pass)
        want = pricing._tau_curves(*args)
        for name, ref in vars(want).items():
            assert np.array_equal(getattr(got, name), ref), name

    @pytest.mark.parametrize("model", CIR_MODELS, ids=["cir-single", "cir-sub"])
    def test_members_c_matches_closed_form(self, model):
        # C (single) and C2 (two-population) solve the one-factor Riccati
        # equation; 1e-9 bounds RK4's global error at step 0.025
        b, sigma = ((model.b, model.sigma) if model.n_factors == 1
                    else (model.b22, model.sigma22))
        tt = pricing._tau_table.__wrapped__(model, 0.05, 2400)
        tau = 0.05 * np.arange(2401)
        np.testing.assert_allclose(tt.c[-1], a1_cir(b, sigma, tau), rtol=0,
                                   atol=1e-9)

    @pytest.mark.parametrize("model", CIR_MODELS, ids=["cir-single", "cir-sub"])
    def test_blow_up_reports_first_non_finite_node(self, model):
        with pytest.raises(NumericalFailure) as err:
            pricing._tau_table(model, 50.0, 40)
        assert err.value.at_time == 100.0
