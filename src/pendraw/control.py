"""Annuity-like scheme value G and the optimal withdrawal/investment policy.

G(t, lambda) is the expected discounted stream of survival-weighted payouts

    G = E_t[ int_t^inf (phi*lambda_members(s) + 1)
             * exp(-int_t^s (r + lambda_members(u)) du) ds ],

truncated at the scenario's ``t_max``. With the exponential-affine
survival expectation and the shifted hazard mean E~ (affine in the current
hazard) the integrand is known in closed form given the coefficient curves:

    G = int_t^tmax e^{-r(s-t)} * e^{K0 - K1*lam1 [- K2*lam2]}
        * (1 + phi * E~_t[lambda_members(s)]) ds.

The hazard gradient differentiates under the integral sign: each factor is
either exponential-affine or linear in the current hazard. On the Simpson
lattice s_n (weights w_n e^{-r(s_n - t)}) the integrand is surv * lift with

    surv = exp(k0 - sum_i lam_i k_i),   lift = 1 + phi (psi + sum_m lam_m j_m),

so G and every gradient component are linear in the moments
S[x] = sum_n w_n e^{-r(s_n - t)} surv_n x_n of x in {1, psi, j_i, k_i,
k_i psi, k_i j_m}:

    G          = S[1] + phi (S[psi] + sum_m lam_m S[j_m]),
    dG/dlam_i  = phi S[j_i] - S[k_i] - phi (S[k_i psi] + sum_m lam_m S[k_i j_m]).

A batch of states then costs one exp of the (states x nodes) exponent and
one product with the (nodes x moments) matrix: 6 moments for one hazard
factor, 12 for two.

The optimal policy withdraws wealth/G, holds theta_s/sigma_s of wealth in the
stock, and hedges with the rolling longevity bond through the first hazard
factor's loading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .mortality import Model, SinglePopModel, OU
from .pricing import MarketParams, a1_cir, a1_ou, build_coefficient_table

LATTICE_STEP = 0.05


class UnsupportedConfiguration(ValueError):
    """The closed-form optimal policy does not cover this configuration."""


@dataclass(frozen=True)
class SchemeScenario:
    """Risk-sharing weight, initial wealth and simulation settings.

    ``pi`` is kept in the data model, but the optimal policy is only available
    for ``pi = 1`` (full compensation of the departing members' balances).
    ``t_max`` truncates the infinite-horizon integrals.
    """

    phi: float
    y0: float = 100.0
    pi: float = 1.0
    horizon: float = 35.0
    dt: float = 0.1
    n_paths: int = 100
    seed: int = 42
    t_max: float = 120.0

    def __post_init__(self):
        if self.phi < 0:
            raise ValueError(f"phi must be >= 0, got {self.phi}")
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError(f"pi must lie in [0, 1], got {self.pi}")
        if self.y0 <= 0:
            raise ValueError(f"y0 must be > 0, got {self.y0}")
        if self.horizon <= 0 or self.dt <= 0:
            raise ValueError("horizon and dt must be > 0")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.t_max <= self.horizon:
            raise ValueError(f"t_max ({self.t_max}) must exceed the horizon "
                             f"({self.horizon})")


@dataclass(frozen=True)
class PolicyDecision:
    """Withdrawal rate (currency/year) and portfolio weights (sum to one)."""

    withdraw_rate: float
    stock_weight: float
    bond_weight: float
    cash_weight: float


def _simpson_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def g_and_gradient(model: Model, scenario: SchemeScenario, market: MarketParams,
                   t: float, lam: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """G and its hazard gradient for a batch of states at one time.

    ``lam`` has shape (n, n_factors); returns (G (n,), gradient (n, n_factors)).
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    n_states, n_fac = lam.shape
    if n_fac != model.n_factors:
        raise ValueError(f"expected {model.n_factors} hazard component(s), got {n_fac}")
    if t >= scenario.t_max:
        return np.zeros(n_states), np.zeros((n_states, n_fac))

    tab = build_coefficient_table(model, round(float(t), 9), scenario.t_max,
                                  LATTICE_STEP)
    # nodes past the survival underflow point contribute < 1e-30 of G;
    # keep an even interval count for the Simpson weights
    n_keep = tab.s.size
    dead = np.nonzero(tab.k0 < -80.0)[0]
    if dead.size:
        cut = int(dead[0])
        n_keep = min(n_keep, max(3, cut + 1 + cut % 2))
    sl = slice(0, n_keep)
    w = _simpson_weights(n_keep, tab.s[1] - tab.s[0])
    base = w * np.exp(-market.r * tab.tau[sl])

    k = np.array([c[sl] for c in (tab.k1, tab.k2)[:n_fac]])    # (n_fac, nodes)
    j = np.array([c[sl] for c in (tab.j1, tab.j2)[:n_fac]])
    psi = tab.psi[sl]
    # moment columns: 1, psi, j_i, k_i, k_i psi, k_i j_m (row-major in i, m)
    moments = np.concatenate((np.ones((1, n_keep)), psi[None, :], j, k,
                              k * psi, (k[:, None, :] * j[None, :, :])
                              .reshape(n_fac * n_fac, n_keep))) * base
    s = np.exp(tab.k0[sl] - lam @ k) @ moments.T      # (n, 2 + n_fac*(3+n_fac))
    s_j = s[:, 2:2 + n_fac]
    s_k = s[:, 2 + n_fac:2 + 2 * n_fac]
    s_kpsi = s[:, 2 + 2 * n_fac:2 + 3 * n_fac]
    s_kj = s[:, 2 + 3 * n_fac:].reshape(n_states, n_fac, n_fac)

    phi = scenario.phi
    g = s[:, 0] + phi * (s[:, 1] + np.sum(lam * s_j, axis=1))
    grad = phi * s_j - s_k - phi * (s_kpsi + np.sum(s_kj * lam[:, None, :],
                                                    axis=2))
    return g, grad


def annuity_G(model: Model, scenario: SchemeScenario, market: MarketParams,
              t: float, lam) -> float:
    """Scheme value G(t, lambda); strictly positive for t < t_max."""
    g, _ = g_and_gradient(model, scenario, market, t,
                          np.atleast_1d(np.asarray(lam, dtype=float))[None, :])
    return float(g[0])


def annuity_G_gradient(model: Model, scenario: SchemeScenario,
                       market: MarketParams, t: float, lam) -> np.ndarray:
    """dG/d(lambda_k) at (t, lambda), one entry per hazard factor."""
    _, grad = g_and_gradient(model, scenario, market, t,
                             np.atleast_1d(np.asarray(lam, dtype=float))[None, :])
    return grad[0]


def _hedge_loadings(model: Model) -> Tuple[float, float]:
    """(sigma1, hedgeable loading sigma1 [+ sigma21]) of the first factor."""
    if isinstance(model, SinglePopModel):
        return model.sigma, model.sigma
    return model.sigma1, model.sigma1 + model.sigma21


def _a1_maturity(model: Model, market: MarketParams) -> float:
    if isinstance(model, SinglePopModel):
        b, sig = model.b, model.sigma
    else:
        b, sig = model.b1, model.sigma1
    if model.kind == OU:
        return float(a1_ou(b, market.maturity))
    return float(a1_cir(b, sig, market.maturity))


def bond_weight_arrays(model: Model, scenario: SchemeScenario,
                       market: MarketParams, g: np.ndarray,
                       grad1: np.ndarray) -> np.ndarray:
    """Bond weight for batches of (G, dG/dlambda1).

    Both the market price of longevity risk and the hedge term carry the same
    sqrt(lambda1) factor as the bond volatility under CIR dynamics, so those
    factors cancel and one expression serves both kinds:

        w_L = -(theta_1 + loading * G_l1 / G) / (A1(T) * sigma1).
    """
    sigma1, loading = _hedge_loadings(model)
    if sigma1 == 0.0:
        if market.theta_1 == 0.0:
            return np.zeros_like(g)
        raise ValueError("sigma1 = 0 leaves no bond volatility to carry the "
                         "longevity risk premium")
    a1_t = _a1_maturity(model, market)
    return -(market.theta_1 + loading * grad1 / g) / (a1_t * sigma1)


def _check_policy_inputs(scenario: SchemeScenario, wealth: float) -> None:
    if scenario.pi != 1.0:
        raise UnsupportedConfiguration(
            f"the optimal policy is derived for pi = 1 only, got pi = {scenario.pi}")
    if wealth <= 0:
        raise ValueError(f"wealth must be > 0, got {wealth}")


def optimal_policy(model: Model, scenario: SchemeScenario, market: MarketParams,
                   t: float, lam, wealth: float) -> PolicyDecision:
    """Optimal withdrawal rate and portfolio weights at one state."""
    _check_policy_inputs(scenario, wealth)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    g, grad = g_and_gradient(model, scenario, market, t, lam[None, :])
    w_bond = float(bond_weight_arrays(model, scenario, market, g, grad[:, 0])[0])
    w_stock = market.theta_s / market.sigma_s
    return PolicyDecision(withdraw_rate=wealth / float(g[0]),
                          stock_weight=w_stock,
                          bond_weight=w_bond,
                          cash_weight=1.0 - (w_stock + w_bond))


def no_bond_policy(model: Model, scenario: SchemeScenario, market: MarketParams,
                   t: float, lam, wealth: float) -> PolicyDecision:
    """Policy when the bond is excluded: same withdrawal, zero bond weight."""
    _check_policy_inputs(scenario, wealth)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    g, _ = g_and_gradient(model, scenario, market, t, lam[None, :])
    w_stock = market.theta_s / market.sigma_s
    return PolicyDecision(withdraw_rate=wealth / float(g[0]),
                          stock_weight=w_stock,
                          bond_weight=0.0,
                          cash_weight=1.0 - w_stock)
