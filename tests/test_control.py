import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from pendraw import control, pricing
from pendraw.control import (LATTICE_STEP, PolicyDecision, SchemeScenario,
                             annuity_G, annuity_G_gradient, g_and_gradient,
                             optimal_policy)
from pendraw.mortality import (GompertzMakehamParams, SinglePopModel,
                               TwoPopModel, _diffusion, baseline_hazard,
                               drift_a, initial_hazard, simulate_paths)
from pendraw.numerics import TimeGrid, integrate
from pendraw.pricing import (MarketParams, build_coefficient_table,
                             coeffs_single, coeffs_two_pop,
                             survival_expectation, tilde_mean)
from pendraw.scheme import g_surface

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

    @pytest.mark.parametrize("make_model, lam", [
        (ou_single, [0.02]), (cir_two, [0.02, 0.018])])
    def test_zero_where_t_rounds_to_t_max(self, make_model, lam):
        # G is evaluated at t rounded to 9 decimals, and 119.9999999999
        # rounds to t_max itself
        g, grad = g_and_gradient(make_model(), SCEN, MARKET, 119.9999999999,
                                 np.array([lam]))
        assert np.all(g == 0.0) and np.all(grad == 0.0)

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
        # b22 = b1 (1 + eps) they may move by about eps relative to b22 = b1
        # (measured <= 0.92 eps from eps = 1e-13 to 1e-4, OU and CIR) and
        # never blow up
        lam = np.array([[initial_hazard(POP1), initial_hazard(POP2)]])
        for base in (ou_two(), cir_two()):
            values = {}
            for eps in (1e-4, 1e-8, 1e-11, 1e-13, 0.0):
                model = dataclasses.replace(base, b22=base.b1 * (1.0 + eps))
                g, grad = g_and_gradient(model, SCEN, MARKET, t, lam)
                assert np.all(np.isfinite(g)) and g[0] > 0.0
                # lambda1 lowers the members' drift (b21 > 0); lambda2
                # shortens life
                assert grad[0, 0] > 0.0 and grad[0, 1] < 0.0
                values[eps] = np.concatenate((g, grad[0]))
            ref = values[0.0]
            for eps, v in values.items():
                assert np.all(np.abs(v / ref - 1.0) <= eps + 1e-12), \
                    (base.kind, eps, v, ref)

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


# Gregory's coefficients: the trapezoid rule's left end is corrected by
# sum_m (-1)^(m+1) GREGORY[m-1] * (forward difference)^m f_0 (Press et al.,
# Numerical Recipes, section 4.1; Fornberg, SIAM Review 63(1), 2021)
GREGORY = (Fraction(1, 12), Fraction(1, 24), Fraction(19, 720),
           Fraction(3, 160), Fraction(863, 60480), Fraction(275, 24192),
           Fraction(33953, 3628800))
STRIDE, ORDER = 10, 8


def _exact_solve(a, b):
    """Gauss-Jordan elimination on Fractions."""
    a = [row[:] + [v] for row, v in zip(a, b)]
    n = len(a)
    for i in range(n):
        piv = next(r for r in range(i, n) if a[r][i] != 0)
        a[i], a[piv] = a[piv], a[i]
        for r in range(n):
            if r != i and a[r][i] != 0:
                f = a[r][i] / a[i][i]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return [a[i][n] / a[i][i] for i in range(n)]


def _rule_weights(m, delta):
    """Unit-spacing weights on nodes 0..m [and m + delta] from the
    difference form of Gregory's rule; the end panel's weights integrate the
    polynomial through the last q nodes and m + delta, solved exactly."""
    q = min(ORDER, m + 1)
    w = [Fraction(0)] * (m + 1 + (delta > 0))
    for j in range(m + 1):
        w[j] += Fraction(1, 2) if j in (0, m) and m else (1 if m else 0)
    for order in range(1, q):
        sign = (-1) ** (order + 1) * GREGORY[order - 1]
        for i in range(order + 1):
            coef = sign * (-1) ** (order - i) * math.comb(order, i)
            w[i] += coef
            w[m - i] += coef          # the mirrored backward differences
    if delta > 0:
        d = Fraction(delta)
        v = [Fraction(i) for i in range(1 - q, 1)] + [d]
        e = _exact_solve([[x ** p for x in v] for p in range(q + 1)],
                         [d ** (p + 1) / (p + 1) for p in range(q + 1)])
        for i, ei in enumerate(e):
            w[m + 1 - q + i] += ei
    return np.array([float(x) for x in w])


def _rule_rows(tab, rate=MARKET.r):
    """Rows and weights of G's outer rule on a coefficient table: every
    stride-th lattice node (at most STRIDE) up to the first one past the
    k0 < _CUT_K0 cut, or to t_max with a short end panel. The stride keeps
    rate * spacing <= 0.06 and gives at least ORDER - 1 strides where it
    can."""
    h = LATTICE_STEP
    partial = abs(tab.tau[-1] - (tab.s.size - 1) * h) > 1e-9
    n = tab.s.size - 1 - partial
    dead = np.nonzero(tab.k0[:n + 1] < control._CUT_K0)[0]
    last = int(dead[0]) if dead.size else n
    stride = STRIDE
    while stride > 1 and (stride * h * rate > 0.06
                          or last < (ORDER - 1) * stride):
        stride -= 1
    m = math.ceil(last / stride)
    if m * stride <= n and (dead.size or not partial):
        return stride * np.arange(m + 1), _rule_weights(m, 0.0) * stride * h
    m = n // stride
    rows = np.append(stride * np.arange(m + 1), tab.s.size - 1)
    delta = (tab.tau[-1] - m * stride * h) / (stride * h)
    return rows, _rule_weights(m, delta) * stride * h


def _node_by_node(model, phi, market, tab, rows, w, lam):
    """G and its gradient in the by-parts form, summed node by node: the
    survival factor surv = exp(k0 - sum_i lam_i k_i) and surv k_i on the
    rule's nodes, plus the end term D = e^{-r(T-t)} surv(T) at the last."""
    disc = np.exp(-market.r * tab.tau[rows])
    base = w * disc
    ks = [k[rows] for k in tab.k]
    lead = 1.0 - phi * market.r
    g = np.empty(lam.shape[0])
    grad = np.empty(lam.shape)
    for i, state in enumerate(lam):
        surv = np.exp(tab.k0[rows] - sum(l * k for l, k in zip(state, ks)))
        end = disc[-1] * surv[-1]
        g[i] = lead * (surv @ base) + phi * (1.0 - end)
        for f, k in enumerate(ks):
            grad[i, f] = phi * end * k[-1] - lead * ((surv * k) @ base)
    return g, grad


def reference_g_and_gradient(model, scenario, market, t, lam):
    """G and its gradient node by node on the lattice, rule and underflow
    cut of ``g_and_gradient``."""
    tab = build_coefficient_table(model, t, scenario.t_max, LATTICE_STEP)
    gm = model.gm if model.n_factors == 1 else model.gm2
    rows, w = _rule_rows(tab, market.r + baseline_hazard(t, gm))
    return _node_by_node(model, scenario.phi, market, tab, rows, w, lam)


def simpson_g_and_gradient(model, scenario, market, t, lam, step=0.0125):
    """The by-parts form with composite Simpson on every node of a finer
    lattice, no cut: T = t_max."""
    tab = build_coefficient_table(model, t, scenario.t_max, step)
    n = tab.s.size - 1
    assert n % 2 == 0 and abs(tab.tau[-1] - n * step) < 1e-9
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return _node_by_node(model, scenario.phi, market, tab, np.arange(n + 1),
                         w * step / 3.0, lam)


class TestMomentForm:
    """``g_and_gradient`` sums moments of the survival factor; the reference
    sums the by-parts form node by node."""

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    @pytest.mark.parametrize("phi", [0.0, 0.8, 5.0])
    def test_matches_per_node_reference(self, make_model, phi):
        model = make_model()
        gms = ([model.gm] if model.n_factors == 1 else [model.gm1, model.gm2])
        cases = [(120.0, t) for t in (0.0, 17.3, 119.85)]
        # at t_max = 190, t = 187.5 the underflow cut keeps the 2 or 3 of 51
        # nodes up to the first one with k0 < _CUT_K0
        cases.append((190.0, 187.5))
        tab = build_coefficient_table(model, 187.5, 190.0, LATTICE_STEP)
        dead = int(np.nonzero(tab.k0 < control._CUT_K0)[0][0])
        assert dead <= 2 and tab.s.size == 51
        assert _rule_rows(tab)[0].tolist() == list(range(dead + 1))
        # end panels: 1.3 years at stride 3 end 2 steps past the last
        # stride; 33.33 years end 0.03 past the last lattice node
        cases += [(35.3, 34.0), (35.33, 2.0)]
        # a high hazard shortens the stride: 1 (single), 2 (two-population)
        cases.append((120.0, 45.0))
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


class TestSurfaceRoute:
    """``scheme.g_surface`` evaluates every grid node in one call of
    ``control``'s batched route; at each node it must give what the
    node-by-node reference gives at that anchor."""

    GRIDS = {
        # off-lattice anchors: most spans end a partial step past the
        # lattice, in the RK4 tail node (no cut before t_max = 20)
        "dt-0.03": dict(horizon=1.5, dt=0.03, t_max=20.0),
        # spans of 0.3 to 3.3 years: short spans, reduced strides and end
        # panels, no cut
        "t_max-horizon+0.3": dict(horizon=3.0, dt=0.1, t_max=3.3),
        # anchors past t = 22 have a largest stride below 10; all are cut
        "horizon-45": dict(horizon=45.0, dt=0.5),
    }
    # what the reference rule shows on each grid, over the four kinds
    CASES = {"dt-0.03": {"tail", "stride 10"},
             "t_max-horizon+0.3": {"panel", "short", "stride < 10"},
             "horizon-45": {"cut", "stride 10", "stride < 10"}}

    @staticmethod
    def rule_cases(tab, rows):
        """The features of one anchor's reference rule."""
        step = rows[1] - rows[0]
        partial = abs(tab.tau[-1] - (tab.s.size - 1) * LATTICE_STEP) > 1e-9
        cases = {"stride 10" if step == STRIDE else "stride < 10"}
        if tab.k0[rows[-1]] < control._CUT_K0:
            cases.add("cut")
        elif rows[-1] - rows[-2] != step:
            cases.add("tail" if partial else "panel")
        if tab.s.size - 1 < (ORDER - 1) * STRIDE:
            cases.add("short")
        return cases

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_matches_node_by_node_reference(self, make_model, grid):
        model = make_model()
        gm = model.gm if model.n_factors == 1 else model.gm2
        scen = SchemeScenario(phi=0.8, n_paths=4, **self.GRIDS[grid])
        paths = simulate_paths(model, TimeGrid(0.0, scen.horizon, scen.dt),
                               scen.n_paths, 7)
        g, grad1 = g_surface(model, scen, MARKET, paths).at(scen.phi)
        seen = set()
        for k, t in enumerate(paths.grid.nodes):
            t = control._anchor(t)
            lam = np.column_stack([h[:, k] for h in paths.hazards])
            g_ref, grad_ref = reference_g_and_gradient(model, scen, MARKET, t,
                                                       lam)
            assert g[:, k] == pytest.approx(g_ref, rel=1e-13), t
            assert grad1[:, k] == pytest.approx(grad_ref[:, 0],
                                                rel=1e-12), t
            tab = build_coefficient_table(model, t, scen.t_max, LATTICE_STEP)
            seen |= self.rule_cases(
                tab, _rule_rows(tab, MARKET.r + baseline_hazard(t, gm))[0])
        assert self.CASES[grid] <= seen

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    @pytest.mark.parametrize("grid", sorted(GRIDS) + ["shipped"])
    def test_surface_is_the_one_anchor_route_bit_for_bit(self, make_model,
                                                         grid, monkeypatch):
        """Anchors of one rule shape go through one stacked product; each
        value must still be the float ``g_and_gradient`` gives at that
        anchor alone."""
        model = make_model()
        scen = SchemeScenario(phi=0.8, n_paths=4, **self.GRIDS.get(grid, {}))
        paths = simulate_paths(model, TimeGrid(0.0, scen.horizon, scen.dt),
                               scen.n_paths, 7)
        runs = []
        moments = control._moments

        def counted(states, *args):
            runs.append(states.shape[0])
            return moments(states, *args)

        monkeypatch.setattr(control, "_moments", counted)
        surface = g_surface(model, scen, MARKET, paths)
        g, grad1 = surface.at(scen.phi)
        # every anchor once; the shipped grid has runs of equal shape
        assert sum(runs) == paths.grid.nodes.size
        if grid == "shipped":
            assert max(runs) > 1
        for k, t in enumerate(paths.grid.nodes):
            lam = np.column_stack([h[:, k] for h in paths.hazards])
            g_k, grad_k = g_and_gradient(model, scen, MARKET, t, lam)
            assert np.array_equal(g[:, k], g_k), t
            assert np.array_equal(grad1[:, k], grad_k[:, 0]), t
            # D is below e^-50 at a cut, too small to show in G
            mom, d, k_end = control._g_pieces_at(model, scen, MARKET, (t,),
                                                 lam[None])
            assert np.array_equal(surface.a[:, k], mom[0, :, 0]), t
            assert np.array_equal(surface.d[:, k], d[0]), t
            assert np.array_equal(surface.m1[:, k], mom[0, :, 1]), t
            assert surface.k1_end[k] == k_end[0, 0], t

    @pytest.mark.parametrize("make_model", [ou_single, cir_two])
    def test_run_of_one_shape_needs_consecutive_anchors(self, make_model):
        """The two anchors at t = 5 that come first in their stride group
        share a rule shape but sit at indices 0 and 2, with an empty anchor
        past t_max between them: each must still get its own pieces."""
        model = make_model()
        gms = model.factors[2]
        times = (5.0, 130.0, 5.0, 7.0, 5.0)
        states = np.array([[[baseline_hazard(t, gm) * (1 + 0.1 * i + 0.3 * j)
                             for gm in gms] for j in range(3)]
                           for i, t in enumerate(times)])
        mom, d, k_end = control._g_pieces_at(model, SCEN, MARKET, times,
                                             states)
        for i, t in enumerate(times):
            one = control._g_pieces_at(model, SCEN, MARKET, (t,),
                                       states[i:i + 1])
            for piece, alone in zip((mom, d, k_end), one):
                assert np.array_equal(piece[i], alone[0]), (i, t)


def _rule_errors(model, t, phi):
    """Largest relative G error and gradient error (relative to the largest
    component) of ``g_and_gradient`` against composite Simpson on the 0.0125
    lattice, over hazards of 0.5 to 1.5 times the baseline."""
    gms = [model.gm] if model.n_factors == 1 else [model.gm1, model.gm2]
    base = np.array([baseline_hazard(t, gm) for gm in gms])
    mult = [[0.5], [1.0], [1.5]] + ([[0.5, 1.5], [1.5, 0.5]]
                                     if model.n_factors == 2 else [])
    lam = np.vstack([base * np.array(m) for m in mult])
    scen = SchemeScenario(phi=phi)
    g, grad = g_and_gradient(model, scen, MARKET, t, lam)
    g_ref, grad_ref = simpson_g_and_gradient(model, scen, MARKET, t, lam)
    grad_err = (np.abs(grad - grad_ref).max(axis=1)
                / np.abs(grad_ref).max(axis=1))
    return float(np.max(np.abs(g / g_ref - 1.0))), float(grad_err.max())


class TestOuterRule:
    """Trapezoid rule with Gregory end corrections on every 10th lattice
    node."""

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    def test_within_stated_tolerance_of_fine_simpson(self, make_model):
        model = make_model()
        for t in (0.0, 17.3, 34.0):
            for phi in (0.0, 0.8, 5.0):
                g_err, grad_err = _rule_errors(model, t, phi)
                assert g_err <= control.G_REL_TOL, (t, phi, g_err)
                assert grad_err <= control.GRAD_REL_TOL, (t, phi, grad_err)

    @pytest.mark.parametrize("name, value, make_model, t, margin", [
        ("GREGORY_STRIDE", 11, cir_single, 17.3, 1.0),
        ("GREGORY_RATE_STEP", 0.07, ou_two, 35.0, control.RATE_STEP_MARGIN)])
    def test_coarser_strides_miss_the_tolerance(self, name, value, make_model,
                                                t, margin, monkeypatch):
        # the stride must meet both tolerances, the rate step both within
        # its margin (``control``)
        monkeypatch.setattr(control, name, value)
        errors = np.array([_rule_errors(make_model(), t, phi)
                           for phi in (0.0, 0.8, 5.0)])
        assert (errors[:, 0].max() > margin * control.G_REL_TOL
                or errors[:, 1].max() > margin * control.GRAD_REL_TOL)

    @pytest.mark.parametrize("make_model, t", [
        (cir_single, 54.0),    # the largest G error at 0.06
        (cir_two, 36.0),       # the largest gradient error at 0.06
        (ou_two, 35.0)])       # the largest G error at 0.07
    def test_rate_step_keeps_its_margin(self, make_model, t):
        # GREGORY_RATE_STEP's rule at the worst anchors of t = 34..54: a
        # coarser constant would fail here
        errors = np.array([_rule_errors(make_model(), t, phi)
                           for phi in (0.0, 0.8, 5.0)])
        assert errors[:, 0].max() <= control.RATE_STEP_MARGIN \
            * control.G_REL_TOL
        assert errors[:, 1].max() <= control.RATE_STEP_MARGIN \
            * control.GRAD_REL_TOL

    @pytest.mark.parametrize("make_model", [ou_single, ou_two])
    @pytest.mark.parametrize("t", [45.0, 60.0])
    def test_late_anchors_beat_simpson_on_every_node(self, make_model, t):
        model = make_model()
        gms = [model.gm] if model.n_factors == 1 else [model.gm1, model.gm2]
        lam = np.array([[baseline_hazard(t, gm) for gm in gms]])
        scen = SchemeScenario(phi=0.8)
        g, grad = g_and_gradient(model, scen, MARKET, t, lam)
        g_ref, grad_ref = simpson_g_and_gradient(model, scen, MARKET, t, lam)
        g_simp, grad_simp = simpson_g_and_gradient(model, scen, MARKET, t, lam,
                                                   step=LATTICE_STEP)
        assert abs(g[0] - g_ref[0]) < abs(g_simp[0] - g_ref[0])
        assert (np.abs(grad - grad_ref).max()
                < np.abs(grad_simp - grad_ref).max())

    def test_stride_follows_the_hazard(self):
        # rate * spacing <= GREGORY_RATE_STEP with rate = r + baseline hazard
        model = ou_single()
        strides = [control._max_stride(model.gm, MARKET.r, t)
                   for t in (0.0, 20.0, 22.5, 34.0, 38.0, 44.0, 90.0)]
        assert strides == [10, 10, 8, 3, 2, 1, 1]

    def test_order_8_is_the_highest_with_positive_weights(self, monkeypatch):
        assert np.all(control._gregory_weights(30, 0.0) > 0.0)
        monkeypatch.setattr(control, "GREGORY_ORDER", 9)
        assert np.any(control._gregory_weights(30, 0.0) < 0.0)

    @pytest.mark.parametrize("make_model", [ou_single, cir_two])
    def test_stride_shrinks_on_short_spans(self, make_model):
        # 1.3 years: 26 lattice steps give stride 3 (7 strides of 8 nodes)
        tab = build_coefficient_table(make_model(), 34.0, 35.3, LATTICE_STEP)
        rows, w = _rule_rows(tab)
        assert rows.tolist() == list(range(0, 25, 3)) + [26]
        assert w.sum() == pytest.approx(1.3, rel=1e-14)

    @staticmethod
    def short_spans(monkeypatch):
        """Record (largest stride, result) of every ``_short_span`` call."""
        calls = []
        short_span = control._short_span

        def recorded(tt, t_max, r, span, stride, gm):
            calls.append((stride, short_span(tt, t_max, r, span, stride, gm)))
            return calls[-1][1]

        monkeypatch.setattr(control, "_short_span", recorded)
        return calls

    @pytest.mark.parametrize("t, stride, short", [(18.0, 10, 9),
                                                  (18.5, 10, 7),
                                                  (19.0, 7, 6)])
    def test_stride_shrinks_before_an_early_cut(self, t, stride, short,
                                                monkeypatch):
        # a Gompertz curve of delta = 0.3 years cuts the span within 4 years,
        # at fewer than ORDER nodes of the largest stride
        gm = GompertzMakehamParams(0.0, 0.3, 20.0)
        model = SinglePopModel("ou", gm, 0.561, 0.0035)
        scen = SchemeScenario(phi=0.8, t_max=40.0)
        calls = self.short_spans(monkeypatch)
        lam = np.array([[baseline_hazard(t, gm) * f] for f in (0.5, 1.0, 1.5)])
        g, grad = g_and_gradient(model, scen, MARKET, t, lam)
        assert control._max_stride(gm, MARKET.r, t) == stride
        [(largest, (new, cut, *_))] = calls
        assert (largest, new) == (stride, short) and cut >= 0
        g_ref, grad_ref = reference_g_and_gradient(model, scen, MARKET, t, lam)
        assert g == pytest.approx(g_ref, rel=1e-13)
        assert grad.ravel() == pytest.approx(grad_ref.ravel(), rel=1e-12)

    def test_no_short_span_at_stride_1(self, monkeypatch):
        # at t = 187.5 the cut leaves 2 or 3 nodes on stride 1, which no
        # smaller stride can lengthen
        calls = self.short_spans(monkeypatch)
        scen = SchemeScenario(phi=0.8, t_max=190.0)
        g, _ = g_and_gradient(ou_single(), scen, MARKET, 187.5,
                              np.array([[0.5]]))
        assert control._max_stride(POP1, MARKET.r, 187.5) == 1
        assert calls == [] and g[0] > 0.0


class TestEndPanel:
    """Anchors whose G integral reaches t_max: the table's last node sits at
    t_max and comes from one RK4 step resumed at the last lattice node."""

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    @pytest.mark.parametrize("t, t_max", [(119.85, 120.0), (187.5, 190.0),
                                          (35.0, 35.3), (34.97, 35.3),
                                          (2.0, 35.33)])
    def test_last_node_matches_scalar_routes(self, make_model, t, t_max):
        model = make_model()
        tab = build_coefficient_table(model, t, t_max, LATTICE_STEP)
        assert tab.s[-1] == t_max
        lam = np.array([0.016, 0.014])[:model.n_factors]
        if model.n_factors == 1:
            c = coeffs_single(model, t, t_max)
            got, want = (tab.k0[-1], tab.k[0][-1]), (c.a0, c.a1)
        else:
            c = coeffs_two_pop(model, t, t_max)
            got = (tab.k0[-1], tab.k[0][-1], tab.k[1][-1])
            want = (c.c0, c.c1, c.c2)
        assert got == pytest.approx(want, rel=1e-7, abs=5e-9)
        # E~ = -d/ds log S at t_max: a 5-point central difference of the last
        # nodes of tables whose end moves by -2h .. 2h
        h = 1e-3
        log_s = [end.k0[-1] - lam @ end.k[:, -1]
                 for end in (build_coefficient_table(model, t, t_max + j * h,
                                                     LATTICE_STEP)
                             for j in (-2, -1, 1, 2))]
        eng = -(log_s[0] - 8.0 * log_s[1] + 8.0 * log_s[2] - log_s[3]) \
            / (12.0 * h)
        assert eng == pytest.approx(tilde_mean(model, t, t_max, lam)[-1],
                                    rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    @pytest.mark.parametrize("t", [34.0, 34.97, 35.0])
    def test_g_matches_defining_integral(self, make_model, t):
        # t_max = 35.3: 1.3, 0.33 and 0.3 years of integrand, all of them
        # before the survival-underflow cut
        model = make_model()
        scen = SchemeScenario(phi=0.8, t_max=35.3)
        gms = [model.gm] if model.n_factors == 1 else [model.gm1, model.gm2]
        lam = np.array([baseline_hazard(t, gm) for gm in gms])

        def integrand(s):
            c = (coeffs_single(model, t, s) if model.n_factors == 1
                 else coeffs_two_pop(model, t, s, ode_step=0.005))
            mean = tilde_mean(model, t, s, lam, ode_step=0.005)[-1]
            return (np.exp(-MARKET.r * (s - t)) * survival_expectation(c, lam)
                    * (1.0 + scen.phi * mean))

        direct = integrate(integrand, t, scen.t_max)
        g = annuity_G(model, scen, MARKET, t, lam)
        assert g == pytest.approx(direct, rel=1e-8)


def gauss_legendre_g(model, scenario, market, t, lam, panel):
    """G from its defining integrand over the scalar routes and
    ``tilde_mean``, free of the tables and of the by-parts form: 12-point
    Gauss-Legendre panels of ``panel`` years in s, stopped after the first
    panel that adds less than 1e-12 of the running total, as the benchmark's
    oracle does (CIR routes at RK4 step 0.1)."""
    x, wts = np.polynomial.legendre.leggauss(12)
    total, a = 0.0, t
    while a < scenario.t_max:
        b = min(a + panel, scenario.t_max)
        part = 0.0
        for xk, wk in zip(x, wts):
            s = a + 0.5 * (b - a) * (xk + 1.0)
            c = (coeffs_single(model, t, s) if model.n_factors == 1
                 else coeffs_two_pop(model, t, s, ode_step=0.1))
            mean = tilde_mean(model, t, s, lam, ode_step=0.1)[-1]
            part += wk * math.exp(-market.r * (s - t)) \
                * survival_expectation(c, lam) * (1.0 + scenario.phi * mean)
        part *= 0.5 * (b - a)
        total += part
        if part < 1e-12 * total:
            break
        a = b
    return total


class TestDirectIntegrand:
    """G against its defining E~ integrand over whole spans."""

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    def test_long_span_matches_gauss_legendre_oracle(self, make_model):
        # t = 34 to t_max = 120 at phi = 5, 10-year panels: measured within
        # 1.7e-9 (cir-sub, where the oracle's RK4 step 0.1 dominates)
        model = make_model()
        scen = SchemeScenario(phi=5.0, t_max=120.0)
        gms = [model.gm] if model.n_factors == 1 else [model.gm1, model.gm2]
        lam = np.array([baseline_hazard(34.0, gm) for gm in gms])
        g = annuity_G(model, scen, MARKET, 34.0, lam)
        assert g == pytest.approx(
            gauss_legendre_g(model, scen, MARKET, 34.0, lam, 10.0),
            rel=control.G_REL_TOL)

    @pytest.mark.parametrize("t", [0.0, 30.0])
    def test_equal_mean_reversion_speeds_match_gauss_legendre_oracle(self, t):
        # ou-sub at b22 == b1, baseline hazards: measured 2.1e-13 at t = 0
        # and 1.3e-10 at t = 30
        base = ou_two()
        model = dataclasses.replace(base, b22=base.b1)
        lam = np.array([baseline_hazard(t, gm) for gm in (POP1, POP2)])
        g = annuity_G(model, SCEN, MARKET, t, lam)
        assert g == pytest.approx(
            gauss_legendre_g(model, SCEN, MARKET, t, lam, 10.0), rel=1e-9)

    @pytest.mark.parametrize("make_model", [ou_single, ou_two])
    @pytest.mark.parametrize("t", [100.0, 110.0, 119.85])
    def test_high_hazards_stay_within_three_percent(self, make_model, t):
        # baseline hazards of 86 to 490 a year, far beyond the 0.05 lattice:
        # the phi term is exact and A's quadrature measured at most 2.0% off
        # (ou-single at t = 119.85) against 0.01-year panels, which agree
        # with 0.005-year ones to 1e-6; the direct-form rule was +36% to
        # +820% off on ou-single
        model = make_model()
        gms = [model.gm] if model.n_factors == 1 else [model.gm1, model.gm2]
        lam = np.array([baseline_hazard(t, gm) for gm in gms])
        g = annuity_G(model, SCEN, MARKET, t, lam)
        assert g == pytest.approx(
            gauss_legendre_g(model, SCEN, MARKET, t, lam, 0.01), rel=0.03)



def pde_residual(model, t, lam, step=1e-3):
    """(residual, rounding bound) of G's PDE at (t, lam), both divided by
    1 + phi lam_m, from central differences of ``annuity_G`` alone with
    h_t = step and h_k = step |lam_k|.

    Each G value is taken as within 64 ulp of its own; the bound is what that
    error becomes in each difference quotient: 1/h_t in G_t, |mu_k|/h_k in
    the drift term, 2 (Σ Σᵀ)_kk/h_k² and |(Σ Σᵀ)_kl|/(h_k h_l) in the
    diffusion term, r + lam_m in the discount term.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    h, eye = step * np.abs(lam), np.eye(n)

    def g(dt=0.0, *shifts):
        dlam = sum((sign * h[k] * eye[k] for k, sign in shifts), np.zeros(n))
        return annuity_G(model, SCEN, MARKET, t + dt, lam + dlam)

    g0 = g()
    g_t = (g(step) - g(-step)) / (2 * step)
    grad, hess = np.zeros(n), np.zeros((n, n))
    for k in range(n):
        up, down = g(0.0, (k, 1)), g(0.0, (k, -1))
        grad[k] = (up - down) / (2 * h[k])
        hess[k, k] = (up - 2 * g0 + down) / h[k] ** 2
        for m in range(k):
            hess[k, m] = hess[m, k] = (
                g(0.0, (k, 1), (m, 1)) - g(0.0, (k, 1), (m, -1))
                - g(0.0, (k, -1), (m, 1)) + g(0.0, (k, -1), (m, -1))) \
                / (4 * h[k] * h[m])
    big_b, big_s, gms = model.factors
    mu = np.array([drift_a(t, gm, big_b[k, k]) for k, gm in enumerate(gms)]) \
        - big_b @ lam
    sigma = big_s * _diffusion(model, lam)[0]
    cov = sigma @ sigma.T
    rate = MARKET.r + lam[-1]
    residual = (g_t + mu @ grad + 0.5 * np.sum(cov * hess) - rate * g0
                + 1.0 + SCEN.phi * lam[-1])
    scale = (1.0 / step + np.sum(np.abs(mu) / h)
             + np.sum(np.abs(cov) * (1.0 + 3.0 * eye) / np.outer(h, h)) / 2
             + rate)
    rounding = 64 * np.finfo(float).eps / 2 * abs(g0) * scale
    return residual / (1.0 + SCEN.phi * lam[-1]), \
        rounding / (1.0 + SCEN.phi * lam[-1])


class TestFeynmanKac:
    """G against the model, not against the scalar routes. With A the
    discounted annuity and D the discounted survival to T, G = (1 - phi r) A
    + phi (1 - D) solves

        G_t + (a(t) - B lam)·grad G + tr(Σ Σᵀ hess G)/2 - (r + lam_m) G
            + 1 + phi lam_m = 0,

    Σ = S diag(v(lam)) from ``factors`` and ``_diffusion``, lam_m the
    members' hazard (the last factor). This is also the G equation of the
    log-utility HJB whose objective ``TestObjective`` states. It reads
    dG/dlam2, which no other test does.
    """

    # Beyond the rounding bound, the residual holds the differences'
    # truncation, O(step²): up to 3.1e-9 at t = 60, where it quadruples
    # when the step doubles; and G's own rule error, which does not move
    # with the step: up to 9e-9 on ou-sub at t = 20 with the members'
    # hazard 2 sigma above baseline, where the stride set from the baseline
    # hazard is coarse for it. Past t = 60 G's rule error grows (ROADMAP
    # item 12): -4.3e-6 at t = 80 on the one-population kinds.
    TOL = 2e-8

    # mid-cell anchors of the 0.05 lattice: t and t ± h_t share the
    # lattice cell and G's stride
    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    @pytest.mark.parametrize("t", [0.525, 10.025, 29.975, 45.025, 59.975])
    def test_residual_within_the_difference_step(self, make_model, t):
        model = make_model()
        big_b, big_s, gms = model.factors
        for dt in (-1e-3, 1e-3):
            assert control._max_stride(gms[-1], MARKET.r, t + dt) \
                == control._max_stride(gms[-1], MARKET.r, t)
            assert pricing._lattice_span(t + dt, SCEN.t_max)[0] \
                == pricing._lattice_span(t, SCEN.t_max)[0]
        base = np.array([baseline_hazard(t, gm) for gm in gms])
        # each factor's stationary spread about its baseline
        spread = np.linalg.norm(big_s, axis=1) \
            * _diffusion(model, base)[0] / np.sqrt(2.0 * np.diag(big_b))
        rng = np.random.default_rng(round(1000 * t))
        for _ in range(6):
            lam = base + rng.uniform(-2.0, 2.0, base.size) * spread
            residual, rounding = pde_residual(model, t, lam)
            assert abs(residual) <= rounding + self.TOL, (lam, residual)


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

    @pytest.mark.parametrize("make_model", [ou_single, cir_single, ou_two,
                                            cir_two])
    def test_bond_weight_is_the_negated_quotient_bit_for_bit(self,
                                                             make_model):
        # dividing by sigma_L(1) = -A1(T) sigma1 negates the quotient
        # -(...) / (A1(T) sigma1) exactly
        model = make_model()
        lam = np.array([[0.0144, 0.013], [0.05, 0.04], [0.2, 0.3]])
        lam = lam[:, :model.n_factors]
        g, grad = g_and_gradient(model, SCEN, MARKET, 3.0, lam)
        big_s = model.factors[1]
        b1, sigma1 = model.factors[0][0, 0], model.factors[1][0, 0]
        a1 = float(pricing.a1_ou(b1, MARKET.maturity) if model.kind == "ou"
                   else pricing.a1_cir(b1, sigma1, MARKET.maturity))
        want = -(MARKET.theta_1 + float(big_s[:, 0].sum()) * grad[:, 0] / g) \
            / (a1 * float(big_s[0, 0]))
        got = control.bond_weight_arrays(model, MARKET, g, grad[:, 0])
        assert np.array_equal(got, want)

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

    def test_nonpositive_wealth_rejected(self):
        with pytest.raises(ValueError):
            optimal_policy(ou_single(), SCEN, MARKET, 0.0, 0.0144, 0.0)

    @pytest.mark.parametrize("policy", [optimal_policy])
    @pytest.mark.parametrize("make_model, t, lam, wealth", [
        (ou_single, 120.0, 0.0144, 100.0),         # t = t_max, where G = 0
        (cir_two, 130.0, [0.0144, 0.013], 100.0),
        (ou_single, math.inf, 0.0144, 100.0),
        (ou_single, -math.inf, 0.0144, 100.0),
        (ou_single, math.nan, 0.0144, 100.0),
        (ou_single, 0.0, 0.0144, math.nan),
        (ou_single, 0.0, 0.0144, math.inf),
        (ou_single, 0.0, 0.0144, -1.0),
        (ou_single, 0.0, math.nan, 100.0),
        (cir_single, 0.0, math.inf, 100.0),
        (ou_two, 0.0, [0.0144, math.nan], 100.0),
        (cir_single, 0.0, -0.01, 100.0),
        (cir_two, 0.0, [0.0144, -0.5], 100.0),
    ])
    def test_invalid_state_rejected(self, policy, make_model, t, lam, wealth):
        with pytest.raises(ValueError):
            policy(make_model(), SCEN, MARKET, t, lam, wealth)

    @pytest.mark.parametrize("policy", [optimal_policy])
    def test_t_rounding_to_t_max_rejected(self, policy):
        # below t_max, but G is evaluated at t rounded to 9 decimals: 120.0
        with pytest.raises(ValueError, match="rounds to 120.0"):
            policy(ou_single(), SCEN, MARKET, 119.9999999999, 0.0144, 100.0)

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
            SchemeScenario(phi=0.5, t_max=30.0)  # below the horizon

    @pytest.mark.parametrize("seed", [-5, 2 ** 64])
    def test_scenario_rejects_seed_outside_key_range(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            SchemeScenario(phi=0.5, seed=seed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("base, field", [
        *[(SCEN, name) for name in ("phi", "y0", "horizon", "dt", "t_max")],
        *[(MARKET, f.name) for f in dataclasses.fields(MarketParams)],
    ], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    def test_non_finite_parameter_rejected(self, base, field, bad):
        # a NaN phi would otherwise give all-NaN wealth, an infinite
        # theta_1 an infinite bond weight
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(base, **{field: bad})

    def test_policy_decision_fields(self):
        d = PolicyDecision(4.0, 0.3, 0.5, 0.2, 25.0)
        assert (d.withdraw_rate, d.stock_weight, d.bond_weight, d.cash_weight,
                d.g) == (4.0, 0.3, 0.5, 0.2, 25.0)
