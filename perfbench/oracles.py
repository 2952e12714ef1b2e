"""Independent computations the workload outputs are checked against.

None of these use the coefficient tables or the G lattice that the workloads
time: G comes from an outer Gauss-Legendre quadrature over the scalar
defining-integral routes, its gradient from central differences, and the
bond loading from the OU closed form written out here.
"""

from __future__ import annotations

import math

import numpy as np

# Outer quadrature for G: 12-point Gauss-Legendre panels of 10 years in s,
# stopped after the first panel that adds less than STOP_SHARE of the running
# total; the Gompertz hazard makes the integrand fall super-exponentially, so
# what is left beyond is smaller still. At t = 30 with hazards drawn as in
# policy-cold, 5-year 16-point panels with STOP_SHARE = 1e-14 moved the OU
# results by about 1e-11 relative; 20-year 10-point panels were off by 1e-7.
GL_POINTS = 12
PANEL_YEARS = 10.0
STOP_SHARE = 1e-12
# RK4 step of the scalar CIR routes: against step 0.05, step 0.1 moves the
# cir-sub oracle G at t = 30 by about 1.5e-9 relative and halves the cost.
ORACLE_ODE_STEP = 0.1
# Relative step of the central differences; the O(h^2) truncation measured
# <= 1.5e-8 of the largest gradient component.
FD_REL_STEP = 1e-3


def annuity_value(pricing, model, scenario, market, t, lam) -> float:
    """G(t, lam) = int_t^tmax e^{-r(s-t)} S(t,s) (1 + phi E~[lambda(s)]) ds."""
    x, w = np.polynomial.legendre.leggauss(GL_POINTS)
    total = 0.0
    a = t
    while a < scenario.t_max:
        b = min(a + PANEL_YEARS, scenario.t_max)
        half = 0.5 * (b - a)
        panel = 0.0
        for xk, wk in zip(x, w):
            s = a + half * (xk + 1.0)
            if model.n_factors == 1:
                coeffs = pricing.coeffs_single(model, t, s)
            else:
                coeffs = pricing.coeffs_two_pop(model, t, s,
                                                ode_step=ORACLE_ODE_STEP)
            surv = pricing.survival_expectation(coeffs, lam)
            # the members' measure-changed hazard mean is the last component
            mean = pricing.tilde_mean(model, t, s, lam,
                                      ode_step=ORACLE_ODE_STEP)[-1]
            panel += wk * math.exp(-market.r * (s - t)) * surv \
                * (1.0 + scenario.phi * mean)
        total += half * panel
        if half * panel < STOP_SHARE * total:
            break
        a = b
    return total


def a1_ou(b: float, tau: float) -> float:
    """OU bond loading A1(tau) = (1 - e^{-b tau}) / b."""
    return -math.expm1(-b * tau) / b


def central_gradient(annuity_G, model, scenario, market, t, lam) -> np.ndarray:
    """Central differences of G in each hazard component."""
    lam = np.asarray(lam, dtype=float)
    grad = np.empty(lam.size)
    for k in range(lam.size):
        h = FD_REL_STEP * abs(lam[k])
        up, down = lam.copy(), lam.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (annuity_G(model, scenario, market, t, up)
                   - annuity_G(model, scenario, market, t, down)) / (2.0 * h)
    return grad
