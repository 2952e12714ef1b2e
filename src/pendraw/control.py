"""Annuity-like scheme value G and the optimal withdrawal/investment policy.

G(t, lambda) is the expected discounted stream of survival-weighted payouts

    G = E_t[ int_t^inf (phi*lambda_members(s) + 1)
             * exp(-int_t^s (r + lambda_members(u)) du) ds ],

truncated at the scenario's ``t_max``. With the exponential-affine
survival expectation S(t,s) = exp(K0 - K1*lam1 [- K2*lam2]) (``pricing``;
not the volatility matrix S of ``factors``) and the shifted hazard mean E~ the
integrand is known given the coefficient curves:

    G = int_t^tmax e^{-r(s-t)} S(t,s) (1 + phi * E~_t[lambda_members(s)]) ds.

E~ is the mean under the survival-forward measure, so, as the forward rate
is the forward-measure mean of the short rate (Geman, El Karoui & Rochet,
J. Appl. Probab. 32(2), 1995; Biffis, Insurance Math. Econ. 37(3), 2005),

    E~_t[lambda_members(s)] = -d/ds log S(t,s),    S E~ = -dS/ds.

Integrating the phi term by parts up to T, the outer rule's last node, gives

    G          = (1 - phi r) A + phi (1 - D),
    dG/dlam_i  = -(1 - phi r) int_t^T e^{-r(s-t)} S k_i ds + phi D k_i(T),

with A = int_t^T e^{-r(s-t)} S ds, D = e^{-r(T-t)} S(t,T) and k_i = K_i(t, .),
since dS/dlam_i = -k_i S. The phi term is exact, so G needs the survival
curve alone and only A and its gradient a quadrature. 1 - phi r turns
negative once phi r > 1, yet G stays above A: phi (1 - D - r A) =
phi int_t^T e^{-r(s-t)} (-dS/ds) ds, which is positive while S falls.

The quadrature runs over nodes s_n of the coefficient table, which is the
one cached tau pass shared by every anchor (``pricing``): the trapezoid rule
on every 10th lattice node, with Gregory end corrections that make it exact
for polynomials of degree below 8. The rule stops at the survival-underflow
point, or ends in a short panel at t_max; anchors with a high hazard or a
short span use a smaller stride. On the nodes (weights w_n) A and the
gradient's integrals are the moments M[x] = sum_n w_n e^{-r(s_n - t)} surv_n
x_n of x in {1, k_i}, surv = exp(k0 - sum_i lam_i k_i). A batch of states
then costs one exp of the (states x nodes) exponent and one product with the
(nodes x (1 + n_factors)) moment matrix, plus the end values D and k(T).
None of these pieces depends on phi (``g_pieces``), so one set of them gives
G and its gradient at every phi (``scheme.g_surface`` shares them between
arms).

The optimal policy withdraws wealth/G, holds theta_s/sigma_s of wealth in the
stock, and hedges with the rolling longevity bond through the first hazard
factor's loading. Everything model-specific here is read off the model's
``factors`` (B, S, gms): the bond's sigma1 = S[0, 0] and A1 (``pricing``), the
hazards' loading on W1 (S's first column) and the members' curve gms[-1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .mortality import CIR, Model
from .pricing import (LATTICE_STEP, MarketParams, _lattice_span,
                      build_coefficient_table, rolling_bond_volatility)

# A and its gradient are the trapezoid rule on every GREGORY_STRIDE-th node
# of the coefficient lattice, with GREGORY_ORDER-point Gregory end
# corrections. Against the same by-parts form with composite Simpson on a
# lattice four times finer, for all four model kinds, t in {0, 17.3, 34}, phi
# in {0, 0.8, 5} and hazards of 0.5 to 1.5 times the baseline, G must stay
# within G_REL_TOL and its gradient within GRAD_REL_TOL of its largest
# component. G_REL_TOL leaves room inside the 2e-8 at which the benchmark
# checks G against an outer quadrature (printing adds 5e-9, the quadrature
# about 2e-9), and GRAD_REL_TOL inside its 1e-6 gradient check; both sit far
# below the error of freezing G and the weights over each 0.1-year wealth
# step.
# The order costs nothing, so it is the highest whose weights are all
# positive (order 9 has a negative one). The stride sets the cost: 10 is the
# largest that meets both tolerances (at stride 10 the worst case measures
# 4.6e-9 and 2.2e-7, on cir-single at t = 17.3 and phi = 0; stride 11 gives
# 9.2e-9 there).
# Later anchors have a higher hazard, so a faster-decaying integrand: the
# stride also keeps (r + members' baseline hazard at t) * spacing at most
# GREGORY_RATE_STEP, the largest such product, in steps of 0.01, that kept
# the strides it picks within both tolerances at t = 34, 35, ..., 54 (0.07
# lets stride 6 through on cir-sub at t = 35: 5.008e-9). At t = 55 even
# stride 1 gives 5.6e-9 on the single-population kinds, and it misses more
# past t = 60, but up to t = 80 the rule stays ahead of Simpson on every
# node (tests/test_control.py).
G_REL_TOL = 5e-9
GRAD_REL_TOL = 2.5e-7
GREGORY_STRIDE = 10
GREGORY_ORDER = 8
GREGORY_RATE_STEP = 0.06
# Bernoulli numbers B_2 .. B_8 (numerator, denominator) for the Gregory
# corrections
_BERNOULLI = {2: (1, 6), 4: (-1, 30), 6: (1, 42), 8: (-1, 30)}


@dataclass(frozen=True)
class SchemeScenario:
    """Risk-sharing weight, initial wealth and simulation settings.

    The departing members' balances are compensated in full (the paper's
    pi = 1), the only case the optimal policy is derived for. ``t_max``
    truncates the infinite-horizon integrals.
    """

    phi: float
    y0: float = 100.0
    horizon: float = 35.0
    dt: float = 0.1
    n_paths: int = 100
    seed: int = 42
    t_max: float = 120.0

    def __post_init__(self):
        for name in ("phi", "y0", "horizon", "dt", "t_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.phi < 0:
            raise ValueError(f"phi must be >= 0, got {self.phi}")
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
    """Withdrawal rate (currency/year) and portfolio weights (sum to one).

    ``g`` is the scheme value G(t, lambda) the withdrawal rate divides the
    wealth by, as ``annuity_G`` gives it.
    """

    withdraw_rate: float
    stock_weight: float
    bond_weight: float
    cash_weight: float
    g: float


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

    The trapezoid rule on 0..m with q-point Gregory end corrections at both
    ends, q = min(GREGORY_ORDER, m + 1) (see ``_gregory_rule``). The array is
    cached and read-only.
    """
    return _gregory_rule(m, delta, min(GREGORY_ORDER, m + 1))


@lru_cache(maxsize=4096)
def _gregory_rule(m: int, delta: float, q: int) -> np.ndarray:
    """The trapezoid rule on 0..m with q-point Gregory corrections at both
    ends plus, when delta > 0, the integral over [m, m + delta] of the
    polynomial through the last q nodes and m + delta. The rule is exact for
    polynomials of degree below q.
    """
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
    w.setflags(write=False)
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
    gm = model.factors[2][-1]
    # capped below math.exp's overflow; any rate that large gives stride 1
    growth = math.exp(min((t - gm.m) / gm.delta, 700.0))
    rate = market.r + (gm.nu + growth / gm.delta)
    return max(1, min(GREGORY_STRIDE,
                      int(GREGORY_RATE_STEP / (rate * LATTICE_STEP))))


def _anchor(t) -> float:
    """The time G is evaluated at: t rounded to 9 decimals, so that grid
    nodes such as 0.1 * k sit on the coefficient lattice. Every check
    against t_max tests this value."""
    return round(float(t), 9)


def g_pieces(model: Model, scenario: SchemeScenario, market: MarketParams,
             t: float, lam: np.ndarray):
    """The phi-free pieces of G and its gradient for a batch of states at one
    time: (A (n,), D (n,), M (n, n_factors), k(T) (n_factors,)).

    A = M[1] and M[k_i] are the outer rule's moments and D = e^{-r(T-t)}
    S(t,T) (see the module docstring). They depend on the scenario's t_max
    but not on its phi, so one set serves every phi (``_compose_g``). At
    t >= t_max the span is empty: T = t, so D = 1 and the rest is zero.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    n_states, n_fac = lam.shape
    if n_fac != model.n_factors:
        raise ValueError(f"expected {model.n_factors} hazard component(s), got {n_fac}")
    t = _anchor(t)
    if t >= scenario.t_max:
        return (np.zeros(n_states), np.ones(n_states),
                np.zeros((n_states, n_fac)), np.zeros(n_fac))

    tab = build_coefficient_table(model, t, scenario.t_max)
    rows, w = _g_nodes(tab, *_lattice_span(t, scenario.t_max),
                       _max_stride(model, market, t))
    disc = np.exp(-market.r * tab.tau[rows])
    # (n_fac, nodes), row-major: tab.k[:, rows] would be column-major
    k = tab.k.take(rows, axis=1)
    surv = np.exp(tab.k0[rows] - lam @ k)                # (n, nodes)
    # the moments M[1], M[k_i], and D = e^{-r(T-t)} S(t,T) at the last node
    mom = surv @ (np.vstack((np.ones(rows.size), k)) * (w * disc)).T
    return mom[:, 0], disc[-1] * surv[:, -1], mom[:, 1:], k[:, -1]


def _compose_g(phi: float, r: float, a, d, m, k_end):
    """G = (1 - phi r) A + phi (1 - D) and dG/dlam = phi D k(T) - (1 - phi r) M
    from the pieces of ``g_pieces``, for any shapes that broadcast."""
    lead = 1.0 - phi * r
    return lead * a + phi * (1.0 - d), phi * d * k_end - lead * m


def g_and_gradient(model: Model, scenario: SchemeScenario, market: MarketParams,
                   t: float, lam: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """G and its hazard gradient for a batch of states at one time.

    ``lam`` has shape (n, n_factors); returns (G (n,), gradient (n, n_factors)).
    """
    a, d, m, k_end = g_pieces(model, scenario, market, t, lam)
    g, grad = _compose_g(scenario.phi, market.r, a[:, None], d[:, None], m,
                         k_end)
    return g[:, 0], grad


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


def bond_weight_arrays(model: Model, scenario: SchemeScenario,
                       market: MarketParams, g: np.ndarray,
                       grad1: np.ndarray) -> np.ndarray:
    """Bond weight for batches of (G, dG/dlambda1).

    Both the market price of longevity risk and the hedge term carry the same
    sqrt(lambda1) factor as the bond volatility under CIR dynamics, so those
    factors cancel and one expression serves both kinds:

        w_L = (theta_1 + loading * G_l1 / G) / sigma_L(lambda1 = 1),

    with sigma_L(1) = -A1(T) sigma1 the bond's loading per unit
    sqrt(lambda1) (``rolling_bond_volatility``), sigma1 = S[0, 0], and the
    loading here the hazards' total exposure to W1, the sum of S's first
    column (sigma1 [+ sigma21]).
    """
    big_s = model.factors[1]
    if big_s[0, 0] == 0.0:
        if market.theta_1 == 0.0:
            return np.zeros_like(g)
        raise ValueError("sigma1 = 0 leaves no bond volatility to carry the "
                         "longevity risk premium")
    loading = float(big_s[:, 0].sum())
    return (market.theta_1 + loading * grad1 / g) \
        / rolling_bond_volatility(model, market, 1.0)


def _check_policy_inputs(model: Model, scenario: SchemeScenario, t: float,
                         lam, wealth: float) -> None:
    """The policy needs a finite t whose anchor (``_anchor``) is before t_max
    (where G > 0), finite hazards, non-negative under CIR, and finite
    positive wealth."""
    if not (math.isfinite(t) and t < scenario.t_max):
        raise ValueError(f"t must be finite and below t_max = {scenario.t_max},"
                         f" got {t}")
    if _anchor(t) >= scenario.t_max:
        raise ValueError(f"t = {t!r} rounds to {_anchor(t)!r} at 9 decimals, "
                         f"where G is evaluated; it must be below t_max = "
                         f"{scenario.t_max}")
    if not np.isfinite(lam).all():
        raise ValueError(f"hazards must be finite, got {lam}")
    if model.kind == CIR and (lam < 0).any():
        raise ValueError(f"CIR hazards must be >= 0, got {lam}")
    if not 0 < wealth < math.inf:
        raise ValueError(f"wealth must be finite and > 0, got {wealth}")


def optimal_policy(model: Model, scenario: SchemeScenario, market: MarketParams,
                   t: float, lam, wealth: float) -> PolicyDecision:
    """Optimal withdrawal rate and portfolio weights at one state."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    _check_policy_inputs(model, scenario, t, lam, wealth)
    g, grad = g_and_gradient(model, scenario, market, t, lam[None, :])
    w_bond = float(bond_weight_arrays(model, scenario, market, g, grad[:, 0])[0])
    w_stock = market.theta_s / market.sigma_s
    g = float(g[0])
    return PolicyDecision(withdraw_rate=wealth / g,
                          stock_weight=w_stock,
                          bond_weight=w_bond,
                          cash_weight=1.0 - (w_stock + w_bond),
                          g=g)
