import dataclasses

import numpy as np
import pytest

from pendraw.control import (LATTICE_STEP, PolicyDecision, SchemeScenario,
                             UnsupportedConfiguration, annuity_G,
                             annuity_G_gradient, g_and_gradient,
                             no_bond_policy, optimal_policy)
from pendraw.mortality import (GompertzMakehamParams, SinglePopModel,
                               TwoPopModel, baseline_hazard, initial_hazard)
from pendraw.numerics import integrate
from pendraw.pricing import (MarketParams, build_coefficient_table,
                             coeffs_two_pop, survival_expectation)

POP1 = GompertzMakehamParams(0.0009944, 11.4, 86.4515 - 65.0)
POP2 = GompertzMakehamParams(0.0009944, 12.9374, 89.18 - 65.0)
MARKET = MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15, theta_1=-0.0005,
                      maturity=20.0)
SCEN = SchemeScenario(phi=0.8)


def ou_single():
    return SinglePopModel("ou", POP1, 0.561, 0.0035)


def cir_single():
    return SinglePopModel("cir", POP1, 0.561, 0.0035)


def ou_two():
    return TwoPopModel("ou", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035, 0.004,
                       0.005)


def cir_two():
    return TwoPopModel("cir", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035, 0.004,
                       0.005)


class TestAnnuityG:
    def test_frozen_hazard_analytic_annuity(self):
        # constant hazard, no noise, phi = 0: plain temporary annuity
        lam0 = 1.0390e-3
        gm = GompertzMakehamParams(lam0, 1.0, 1e6)  # drift holds lambda flat
        model = SinglePopModel("ou", gm, 0.561, 0.0)
        scen = SchemeScenario(phi=0.0)
        g = annuity_G(model, scen, MARKET, 0.0, lam0)
        expected = (1.0 - np.exp(-(MARKET.r + lam0) * scen.t_max)) \
            / (MARKET.r + lam0)
        assert g == pytest.approx(expected, abs=0.01)

    def test_phi_zero_two_pop_reduces_to_survival_integral(self):
        model = ou_two()
        scen = SchemeScenario(phi=0.0)
        lam = np.array([0.016, 0.014])
        g = annuity_G(model, scen, MARKET, 2.0, lam)
        direct = integrate(
            lambda s: np.exp(-MARKET.r * (s - 2.0))
            * survival_expectation(coeffs_two_pop(model, 2.0, s), lam),
            2.0, 60.0)  # integrand is survival-dead past s = 60 here
        assert g == pytest.approx(direct, rel=1e-5)

    def test_positive_and_decreasing_in_members_hazard(self):
        for model in (ou_single(), ou_two()):
            lam = np.array([0.016, 0.014][: model.n_factors])
            g = annuity_G(model, SCEN, MARKET, 1.0, lam)
            grad = annuity_G_gradient(model, SCEN, MARKET, 1.0, lam)
            assert g > 0.0
            assert grad[-1] < 0.0  # members' component

    def test_phi_zero_single_gradient_negative(self):
        scen = SchemeScenario(phi=0.0)
        grad = annuity_G_gradient(ou_single(), scen, MARKET, 0.0, 0.0144)
        assert grad[0] < 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        for model in (ou_single(), cir_single(), ou_two(), cir_two()):
            for _ in range(5):
                t = rng.uniform(0.0, 30.0)
                lam = baseline_hazard(t, POP1) * rng.uniform(0.6, 1.6,
                                                             model.n_factors)
                grad = annuity_G_gradient(model, SCEN, MARKET, t, lam)
                for k in range(model.n_factors):
                    h = 1e-6
                    up, dn = lam.copy(), lam.copy()
                    up[k] += h
                    dn[k] -= h
                    fd = (annuity_G(model, SCEN, MARKET, t, up)
                          - annuity_G(model, SCEN, MARKET, t, dn)) / (2 * h)
                    assert grad[k] == pytest.approx(fd, rel=1e-4)

    def test_gradient_vanishes_at_truncation_horizon(self):
        model = ou_single()
        grad = annuity_G_gradient(model, SCEN, MARKET, SCEN.t_max, 0.02)
        assert np.all(grad == 0.0)
        assert annuity_G(model, SCEN, MARKET, SCEN.t_max, 0.02) == 0.0

    def test_truncation_stability(self):
        lam = 0.016
        for gm in (POP1, GompertzMakehamParams(0.0009944, 11.4, 86.4515)):
            model = SinglePopModel("ou", gm, 0.561, 0.0035)
            g120 = annuity_G(model, SchemeScenario(phi=0.8, t_max=120.0),
                             MARKET, 0.0, lam)
            g200 = annuity_G(model, SchemeScenario(phi=0.8, t_max=200.0),
                             MARKET, 0.0, lam)
            assert abs(g200 - g120) / g120 < 1e-4

    @pytest.mark.parametrize("t", [0.0, 20.0])
    def test_near_equal_mean_reversion_speeds(self, t):
        # b22 -> b1: G and its gradient are smooth in b22, so across
        # b22 = b1 (1 + eps) they may move by about eps relative (measured
        # <= 0.88 eps from eps = 1e-13 to 1e-4) and never blow up
        base = ou_two()
        lam = np.array([[initial_hazard(POP1), initial_hazard(POP2)]])
        values = {}
        for eps in (1e-4, 1e-8, 1e-11, 1e-13):
            model = dataclasses.replace(base, b22=base.b1 * (1.0 + eps))
            g, grad = g_and_gradient(model, SCEN, MARKET, t, lam)
            assert np.all(np.isfinite(g)) and g[0] > 0.0
            # lambda1 lowers the members' drift (b21 > 0); lambda2 shortens life
            assert grad[0, 0] > 0.0 and grad[0, 1] < 0.0
            values[eps] = np.concatenate((g, grad[0]))
        ref = values[1e-13]
        for eps, v in values.items():
            assert np.all(np.abs(v / ref - 1.0) <= eps + 1e-12), (eps, v, ref)

    def test_batch_matches_scalar(self):
        model = ou_two()
        lam = np.array([[0.016, 0.014], [0.02, 0.018], [0.005, 0.006]])
        g, grad = g_and_gradient(model, SCEN, MARKET, 3.0, lam)
        for i in range(3):
            # summation order differs between batch shapes, so allow roundoff
            assert g[i] == pytest.approx(
                annuity_G(model, SCEN, MARKET, 3.0, lam[i]), rel=1e-13)
            assert grad[i] == pytest.approx(
                annuity_G_gradient(model, SCEN, MARKET, 3.0, lam[i]), rel=1e-12)


def _kept_nodes(tab) -> int:
    """Lattice nodes before the survival-underflow cut (k0 < -80), kept at an
    odd count of at least 3 for Simpson's rule."""
    dead = np.nonzero(tab.k0 < -80.0)[0]
    if not dead.size:
        return tab.s.size
    cut = int(dead[0])
    return min(tab.s.size, max(3, cut + 1 + cut % 2))


def reference_g_and_gradient(model, scenario, market, t, lam):
    """G and its gradient node by node from the survival factor
    surv = exp(k0 - sum_i lam_i k_i) and the lift 1 + phi E~, on the lattice
    and underflow cut of ``g_and_gradient``."""
    tab = build_coefficient_table(model, t, scenario.t_max, LATTICE_STEP)
    n_keep = _kept_nodes(tab)
    sl = slice(0, n_keep)
    w = np.full(n_keep, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    base = w * (tab.s[1] - tab.s[0]) / 3.0 * np.exp(-market.r * tab.tau[sl])
    ks = [k[sl] for k in (tab.k1, tab.k2)[:model.n_factors]]
    js = [j[sl] for j in (tab.j1, tab.j2)[:model.n_factors]]
    g = np.empty(lam.shape[0])
    grad = np.empty(lam.shape)
    for i, state in enumerate(lam):
        expo = tab.k0[sl] - sum(l * k for l, k in zip(state, ks))
        etil = tab.psi[sl] + sum(l * j for l, j in zip(state, js))
        surv = np.exp(expo)
        lift = 1.0 + scenario.phi * etil
        g[i] = (surv * lift) @ base
        for f, (k, j) in enumerate(zip(ks, js)):
            grad[i, f] = (surv * (-k * lift + scenario.phi * j)) @ base
    return g, grad


class TestMomentForm:
    """``g_and_gradient`` sums moments of the survival factor; the reference
    sums the integrand node by node."""

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    @pytest.mark.parametrize("phi", [0.0, 0.8, 5.0])
    def test_matches_per_node_reference(self, make_model, phi):
        model = make_model()
        gms = ([model.gm] if model.n_factors == 1 else [model.gm1, model.gm2])
        cases = [(120.0, t) for t in (0.0, 17.3, 119.85)]
        # at t_max = 190, t = 187.5 the underflow cut keeps 3 of 51 nodes
        cases.append((190.0, 187.5))
        tab = build_coefficient_table(model, 187.5, 190.0, LATTICE_STEP)
        assert _kept_nodes(tab) == 3 and tab.s.size == 51
        for t_max, t in cases:
            scen = SchemeScenario(phi=phi, t_max=t_max)
            base = np.array([initial_hazard(gm) for gm in gms])
            lam = base * np.array([[1.0], [0.3], [2.5]])
            if model.kind == "ou":
                lam[1, 0] = -0.004      # an OU hazard below zero
            g, grad = g_and_gradient(model, scen, MARKET, t, lam)
            g_ref, grad_ref = reference_g_and_gradient(model, scen, MARKET, t,
                                                       lam)
            assert g == pytest.approx(g_ref, rel=1e-13), (t_max, t)
            assert grad.ravel() == pytest.approx(grad_ref.ravel(),
                                                 rel=1e-12), (t_max, t)


class TestPolicies:
    def test_stock_weight_constant(self):
        model = ou_single()
        seen = set()
        for t, lam, wealth in [(0.0, 0.0144, 100.0), (10.0, 0.03, 55.0),
                               (30.0, 0.2, 7.0)]:
            d = optimal_policy(model, SCEN, MARKET, t, lam, wealth)
            assert d.stock_weight == MARKET.theta_s / MARKET.sigma_s
            assert d.stock_weight == pytest.approx(1.0 / 3.0, abs=1e-15)
            seen.add(d.stock_weight)
        assert len(seen) == 1

    def test_weights_sum_exactly(self):
        model = ou_single()
        for t in (0.0, 15.0, 34.0):
            d = optimal_policy(model, SCEN, MARKET, t, 0.02, 80.0)
            assert d.stock_weight + d.bond_weight + d.cash_weight == 1.0

    def test_withdraw_linear_in_wealth(self):
        model = ou_single()
        d1 = optimal_policy(model, SCEN, MARKET, 5.0, 0.02, 70.0)
        d2 = optimal_policy(model, SCEN, MARKET, 5.0, 0.02, 140.0)
        assert d2.withdraw_rate == pytest.approx(2.0 * d1.withdraw_rate,
                                                 rel=1e-15)
        assert d2.bond_weight == d1.bond_weight

    def test_no_bond_weights(self):
        model = ou_single()
        d = no_bond_policy(model, SCEN, MARKET, 0.0, 0.0144, 100.0)
        assert d.stock_weight == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert d.bond_weight == 0.0
        assert d.cash_weight == pytest.approx(2.0 / 3.0, abs=1e-15)
        same = no_bond_policy(model, SCEN, MARKET, 0.0, 0.0144, 100.0)
        ref = optimal_policy(model, SCEN, MARKET, 0.0, 0.0144, 100.0)
        assert same.withdraw_rate == ref.withdraw_rate

    def test_no_premium_no_loading_gives_zero_bond(self):
        model = SinglePopModel("ou", POP1, 0.561, 0.0)
        market = MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15, theta_1=0.0,
                              maturity=20.0)
        d = optimal_policy(model, SCEN, market, 0.0, 0.0144, 100.0)
        assert d.bond_weight == 0.0

    def test_premium_without_loading_rejected(self):
        model = SinglePopModel("ou", POP1, 0.561, 0.0)
        with pytest.raises(ValueError):
            optimal_policy(model, SCEN, MARKET, 0.0, 0.0144, 100.0)

    def test_pi_not_one_rejected(self):
        scen = SchemeScenario(phi=0.8, pi=0.7)
        with pytest.raises(UnsupportedConfiguration):
            optimal_policy(ou_single(), scen, MARKET, 0.0, 0.0144, 100.0)
        with pytest.raises(UnsupportedConfiguration):
            no_bond_policy(ou_single(), scen, MARKET, 0.0, 0.0144, 100.0)

    def test_nonpositive_wealth_rejected(self):
        with pytest.raises(ValueError):
            optimal_policy(ou_single(), SCEN, MARKET, 0.0, 0.0144, 0.0)

    def test_cir_bond_weight_continuous_at_zero_hazard(self):
        # sqrt(lambda1) factors cancel between premium, hedge and volatility
        model = cir_single()
        w_small = optimal_policy(model, SCEN, MARKET, 0.0, 1e-12, 100.0)
        w_ref = optimal_policy(model, SCEN, MARKET, 0.0, 1e-4, 100.0)
        assert np.isfinite(w_small.bond_weight)
        assert w_small.bond_weight == pytest.approx(w_ref.bond_weight, rel=5e-2)

    def test_bond_weight_dominates_early_single_population(self):
        model = ou_single()
        d0 = optimal_policy(model, SCEN, MARKET, 0.0,
                            initial_hazard(POP1), 100.0)
        d35 = optimal_policy(model, SCEN, MARKET, 35.0,
                             float(baseline_hazard(35.0, POP1)), 10.0)
        assert d0.bond_weight > d0.stock_weight
        assert d35.bond_weight < d0.bond_weight

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            SchemeScenario(phi=-0.1)
        with pytest.raises(ValueError):
            SchemeScenario(phi=0.5, pi=1.5)
        with pytest.raises(ValueError):
            SchemeScenario(phi=0.5, t_max=30.0)  # below the horizon

    def test_policy_decision_fields(self):
        d = PolicyDecision(4.0, 0.3, 0.5, 0.2)
        assert (d.withdraw_rate, d.stock_weight, d.bond_weight, d.cash_weight) \
            == (4.0, 0.3, 0.5, 0.2)
