"""Annuity-like scheme value G and the optimal withdrawal/investment policy.

G(t, lambda) is the expected discounted stream of survival-weighted payouts

    G = E_t[ int_t^inf (phi*lambda_members(s) + 1)
             * exp(-int_t^s (r + lambda_members(u)) du) ds ],

truncated at the scenario's ``t_max``. With the exponential-affine
survival expectation and the shifted hazard mean E~ (affine in the current
hazard) the integrand is known in closed form given the coefficient curves:

    G = int_t^tmax e^{-r(s-t)} * e^{K0 - K1*lam1 [- K2*lam2]}
        * (1 + phi * E~_t[lambda_members(s)]) ds.

The outer integral is a quadrature over nodes s_n of the coefficient table,
which is the one cached tau pass shared by every anchor (``pricing``): the
trapezoid rule on every 4th lattice node, with Gregory end corrections that
make it exact for polynomials of degree below 8. The rule stops at the
survival-underflow point, or ends in a short panel at t_max; anchors with a
high hazard or a short span use a smaller stride.

The hazard gradient differentiates under the integral sign: each factor is
either exponential-affine or linear in the current hazard. On the nodes s_n
(weights w_n e^{-r(s_n - t)}) the integrand is surv * lift with

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
from functools import lru_cache
from typing import Tuple

import numpy as np

from .mortality import Model, SinglePopModel, OU, baseline_hazard
from .pricing import (LATTICE_STEP, MarketParams, _lattice_span, a1_cir, a1_ou,
                      build_coefficient_table)

# G's outer integral is the trapezoid rule on every GREGORY_STRIDE-th node of
# the coefficient lattice, with GREGORY_ORDER-point Gregory end corrections.
# Against composite Simpson on a lattice four times finer, for all four model
# kinds, t in {0, 17.3, 34}, phi in {0, 0.8, 5} and hazards of 0.5 to 1.5
# times the baseline, G must stay within G_REL_TOL and its gradient within
# GRAD_REL_TOL of its largest component. G_REL_TOL leaves room inside the
# 2e-8 at which the benchmark checks G against an outer quadrature (printing
# adds 5e-9, the quadrature about 2e-9), and GRAD_REL_TOL inside its 1e-6
# gradient check; both sit far below the Euler wealth error at dt = 0.1.
# The order costs nothing, so it is the highest whose weights are all
# positive (order 9 has a negative one). The stride sets the cost: 4 is the
# largest that meets both tolerances (at stride 4 the worst case measures
# 2.1e-9 and 1.2e-7; stride 5 gives 2.54e-7 on the two-population kinds at
# t = 34; Simpson on every node measured 6.4e-9 and 2.4e-7).
# Later anchors have a higher hazard, so a faster-decaying integrand: the
# stride also keeps (r + members' baseline hazard at t) * spacing at most
# GREGORY_RATE_STEP, the largest such product that kept strides 1 to 4
# within both tolerances from t = 34 to 55 (0.07 lets stride 4 through on
# ou-sub at t = 42: 7e-9). Past t = 60 even stride 1 misses them, but up to
# t = 80 the rule stays ahead of Simpson on every node
# (tests/test_control.py).
G_REL_TOL = 5e-9
GRAD_REL_TOL = 2.5e-7
GREGORY_STRIDE = 4
GREGORY_ORDER = 8
GREGORY_RATE_STEP = 0.06
# Bernoulli numbers B_2 .. B_8 (numerator, denominator) for the Gregory
# corrections
_BERNOULLI = {2: (1, 6), 4: (-1, 30), 6: (1, 42), 8: (-1, 30)}


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


@lru_cache(maxsize=None)
def _gregory_corrections(q: int) -> np.ndarray:
    """Left-end corrections c_0..c_{q-1}, in units of the node spacing, that
    make the trapezoid rule exact for polynomials of degree below q.

    By Euler-Maclaurin the trapezoid rule's error on a polynomial is
    sum_k B_2k/(2k)! (f^(2k-1)(b) - f^(2k-1)(a)), so c must reproduce those
    end terms: sum_j c_j j^m = B_{m+1}/(m+1) for odd m and 0 for even m,
    m < q. It is solved in exact rationals: c_j is that functional applied to
    the Lagrange basis polynomial of node j, prod_{i != j} (x - i) / (j - i),
    whose numerator has integer coefficients.
    """
    from fractions import Fraction   # kept out of `import pendraw`
    rhs = {m: Fraction(*_BERNOULLI[m + 1]) / (m + 1) for m in range(1, q, 2)}
    out = np.empty(q)
    for j in range(q):
        coef, scale = [1], 1             # ascending powers of x
        for i in range(q):
            if i != j:
                coef = [a - i * b for a, b in zip([0] + coef, coef + [0])]
                scale *= j - i
        out[j] = float(sum(coef[m] * v for m, v in rhs.items()) / scale)
    return out


def _gregory_weights(m: int, delta: float) -> np.ndarray:
    """Weights, in units of the spacing, for the nodes 0..m [and m + delta].

    The trapezoid rule on 0..m with q-point Gregory corrections at both ends,
    q = min(GREGORY_ORDER, m + 1), plus, when delta > 0, the integral over
    [m, m + delta] of the polynomial through the last q nodes and m + delta.
    The rule is exact for polynomials of degree below q.
    """
    q = min(GREGORY_ORDER, m + 1)
    w = np.zeros(m + 1 + (delta > 0))
    if m:
        w[:m + 1] = 1.0
        w[0] = w[m] = 0.5
    c = _gregory_corrections(q)
    w[:q] += c
    w[m + 1 - q:m + 1] += c[::-1]
    if delta > 0:
        v = np.append(np.arange(1.0 - q, 1.0), delta)
        for i in range(q + 1):
            others = np.delete(v, i)
            basis = np.poly(others) / np.prod(v[i] - others)
            w[m + 1 - q + i] += np.polyval(np.polyint(basis), delta)
    return w


def _g_nodes(tab, n: int, partial: bool, max_stride: int):
    """Table rows and weights of G's outer rule (see ``GREGORY_STRIDE``).

    The rule spans [t, t_max], or up to the first node on its stride at or
    past the survival-underflow point (k0 < -80, where the integrand is below
    e^-80 of its start). Its stride is at most ``max_stride`` lattice steps,
    and a span of fewer than (GREGORY_ORDER - 1) strides takes the largest
    stride that still gives that many, down to one lattice step. A span that
    ends between strides ends with a short panel to the table's last node,
    t_max.
    """
    dead = np.flatnonzero(tab.k0[:n + 1] < -80.0)
    last = int(dead[0]) if dead.size else n       # in lattice steps
    stride = max(1, min(max_stride, last // (GREGORY_ORDER - 1)))
    m = -(-last // stride)
    if m * stride <= n and (dead.size or not partial):
        return stride * np.arange(m + 1), _gregory_weights(m, 0.0) \
            * (stride * LATTICE_STEP)
    m = n // stride
    rows = np.append(stride * np.arange(m + 1), tab.s.size - 1)
    delta = (tab.tau[-1] - tab.tau[m * stride]) / (stride * LATTICE_STEP)
    return rows, _gregory_weights(m, delta) * (stride * LATTICE_STEP)


def _max_stride(model: Model, market: MarketParams, t: float) -> int:
    """GREGORY_STRIDE, or fewer lattice steps where the integrand's initial
    decay rate r + (members' baseline hazard at t) makes rate * spacing
    exceed GREGORY_RATE_STEP."""
    gm = model.gm if isinstance(model, SinglePopModel) else model.gm2
    rate = market.r + float(baseline_hazard(t, gm))
    return max(1, min(GREGORY_STRIDE,
                      int(GREGORY_RATE_STEP / (rate * LATTICE_STEP))))


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

    t = round(float(t), 9)
    tab = build_coefficient_table(model, t, scenario.t_max)
    rows, w = _g_nodes(tab, *_lattice_span(t, scenario.t_max),
                       _max_stride(model, market, t))
    n_keep = rows.size
    base = w * np.exp(-market.r * tab.tau[rows])

    k = np.array([c[rows] for c in (tab.k1, tab.k2)[:n_fac]])    # (n_fac, nodes)
    j = np.array([c[rows] for c in (tab.j1, tab.j2)[:n_fac]])
    psi = tab.psi[rows]
    # moment columns: 1, psi, j_i, k_i, k_i psi, k_i j_m (row-major in i, m)
    moments = np.concatenate((np.ones((1, n_keep)), psi[None, :], j, k,
                              k * psi, (k[:, None, :] * j[None, :, :])
                              .reshape(n_fac * n_fac, n_keep))) * base
    s = np.exp(tab.k0[rows] - lam @ k) @ moments.T      # (n, 2 + n_fac*(3+n_fac))
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
