"""Monte Carlo simulation of the scheme wealth under a withdrawal/investment
policy, discounted outcome metrics, and the report comparing two arms.

Wealth follows (with pi = 1 the mortality credit and the manager's
compensation offset exactly, so no hazard term remains in the drift):

    dY = [ r*Y + alpha_S*sigma_S*theta_S + alpha_L*sigma_L*theta_1_eff
           - beta ] dt + alpha_S*sigma_S dW_S + alpha_L*sigma_L dW_1,

where alpha_S, alpha_L are currency positions, sigma_L is the rolling bond's
volatility loading (``pricing.rolling_bond_volatility``) and theta_1_eff is
theta_1 v(lambda1), with the diffusion scale v (``mortality._diffusion``) 1
under OU and sqrt(lambda1) under CIR; both read the same v(lambda1), taken
once over the whole grid. W_1 reuses the Brownian increments the mortality
paths retain for factor 1, ``shocks[0]``; W_S comes from a dedicated stream
offset, so paired comparisons see identical noise (common random numbers).

Both policies, the optimal one and the one without the bond, withdraw Y/G
and hold fixed fractions of wealth (w_S = theta_S/sigma_S in the stock, w_L
in the bond, w_L = 0 without it), hedging through dG/dlambda1 (Merton, J.
Econ. Theory 3(4), 1971). So over one step with its coefficients frozen at
the step's start, wealth is a geometric Brownian motion, and its exact step
multiplies Y by a factor that does not depend on Y (Glasserman, *Monte Carlo
Methods in Financial Engineering*, 2004, section 3.2):

    Y_{k+1} = Y_k F_k,
    log F_k = (mu_k - v_k/2) dt + w_S sigma_S sqrt(dt) xi_S
              + w_L sigma_L sqrt(dt) xi_1,
    mu_k = r + w_S sigma_S theta_S + w_L sigma_L theta_1_eff - 1/G,
    v_k = (w_S sigma_S)^2 + (w_L sigma_L)^2.

F_k is positive, so wealth is too, by construction. Each arm's wealth is
y0 times the exponential of the running sum of log F, built for the whole
(paths x steps) grid at once. This is the only wealth engine; the tests keep
a step-by-step loop of the same log step as its reference.

G depends on the hazard paths and on (model, phi, t_max, r) only, not on
wealth, theta_1 or the policy kind, and it is affine in phi:
G = (1 - phi r) A + phi (1 - D) (``control``). ``g_surface`` computes the
phi-free pieces on the whole grid once, keyed on (model, t_max, r), and each
arm composes its own G and dG/dlambda1 from them. So every arm on the same
paths that agrees on t_max and r shares one surface, whatever its phi,
theta_1 or policy kind. ``ComparisonReport`` pairs two such arms, a
reference and another, and discounts both at the surface's r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .control import (MarketParams, SchemeScenario, bond_weight_arrays,
                      _check_policy_inputs, _compose_g, _g_pieces_at)
from .mortality import ConfigError, Model, MortalityPaths, _diffusion
from .numerics import TimeGrid, WS_STREAM_OFFSET, normal_block
from .pricing import rolling_bond_volatility

OPTIMAL = "optimal"
NO_BOND = "no_bond"


@dataclass
class SchemeTrajectory:
    """Per-path wealth, withdrawals, compensation, weights and survival."""

    grid: TimeGrid
    policy_kind: str
    wealth: np.ndarray          # (n_paths, n_nodes)
    withdraw: np.ndarray        # (n_paths, n_nodes), currency / year
    compensation: np.ndarray    # (n_paths, n_nodes), lambda_members * wealth
    stock_weight: np.ndarray    # (n_paths, n_nodes)
    bond_weight: np.ndarray     # (n_paths, n_nodes)
    cash_weight: np.ndarray     # (n_paths, n_nodes)
    survival: np.ndarray        # (n_paths, n_nodes)

    @property
    def n_paths(self) -> int:
        return self.wealth.shape[0]


@dataclass(frozen=True)
class GSurface:
    """G's phi-free pieces (``control._g_pieces_at``) at every (path, grid
    node) of one set of paths.

    ``key`` holds the inputs they depend on besides the paths:
    (model, t_max, r). ``at`` composes G and dG/dlambda1 at any phi with the
    expressions of ``g_and_gradient``, so both are bit-identical to it.
    """

    key: tuple
    paths: MortalityPaths
    a: np.ndarray               # (n_paths, n_nodes), A
    d: np.ndarray               # (n_paths, n_nodes), D = e^{-r(T-t)} S(t,T)
    m1: np.ndarray              # (n_paths, n_nodes), M[k_1]
    k1_end: np.ndarray          # (n_nodes,), k_1(T)

    def at(self, phi: float) -> Tuple[np.ndarray, np.ndarray]:
        """(G, dG/dlambda1), each (n_paths, n_nodes), at risk-sharing weight
        phi."""
        _, _, r = self.key
        return _compose_g(phi, r, self.a, self.d, self.m1, self.k1_end)


def _surface_key(model: Model, scenario: SchemeScenario,
                 market: MarketParams) -> tuple:
    return (model, scenario.t_max, market.r)


def _hazard_state(paths: MortalityPaths, k: int) -> np.ndarray:
    """(n_paths, n_factors) hazards at grid node k, the policy's state."""
    return np.column_stack([lam[:, k] for lam in paths.hazards])


def g_surface(model: Model, scenario: SchemeScenario, market: MarketParams,
              paths: MortalityPaths) -> GSurface:
    """G's phi-free pieces on the whole grid, from one ``control`` routine
    call over every grid node as an anchor (``control._g_pieces_at``, the
    route ``g_and_gradient`` takes at one anchor).

    The hazards are stacked node-major once, so that each node's state is
    one contiguous (n_paths, n_factors) block.
    """
    states = np.stack([lam.T for lam in paths.hazards], axis=-1)
    a, d, m, k_end = _g_pieces_at(model, scenario, market, paths.grid.nodes,
                                  states)
    return GSurface(_surface_key(model, scenario, market), paths, a, d, m[0],
                    k_end[0])


def simulate_scheme(model: Model, scenario: SchemeScenario, market: MarketParams,
                    policy_kind: str, paths: MortalityPaths,
                    surface: Optional[GSurface] = None) -> SchemeTrajectory:
    """Wealth paths under the policy ``OPTIMAL`` or ``NO_BOND``, stepped by
    the exact log step of frozen coefficients (module docstring).

    G comes from ``surface`` when it is given (built by ``g_surface`` for
    this model, these paths and the same t_max and r; anything else is
    rejected) and is computed otherwise.
    """
    grid = paths.grid
    if abs(grid.step - scenario.dt) > 1e-12 or abs(grid.t1 - scenario.horizon) > 1e-9:
        raise ConfigError("mortality paths were generated on a different grid "
                          "than the scenario requests")
    if not paths.shocks:
        raise ConfigError("scheme simulation needs the retained Brownian "
                          "increments (simulate with keep_shocks=True)")
    if policy_kind not in (OPTIMAL, NO_BOND):
        raise ConfigError(f"unknown policy kind {policy_kind!r}")
    _check_policy_inputs(model, scenario, grid.t0, _hazard_state(paths, 0),
                         scenario.y0)

    n = grid.n_steps
    n_paths = paths.n_paths
    xi_s = normal_block(paths.seed, WS_STREAM_OFFSET + paths.path_offset,
                        n_paths, n)

    if surface is None:
        surface = g_surface(model, scenario, market, paths)
    elif (surface.paths is not paths
          or surface.key != _surface_key(model, scenario, market)):
        raise ConfigError("G surface was built for other paths or another "
                          "(model, t_max, r)")
    g, grad1 = surface.at(scenario.phi)
    stock = market.theta_s / market.sigma_s
    w_stock = np.full((n_paths, n + 1), stock)
    if policy_kind == OPTIMAL:
        w_bond = bond_weight_arrays(model, market, g, grad1)
    else:
        w_bond = np.zeros((n_paths, n + 1))

    # log F_k, built in place in the log-wealth array's columns 1..n
    dt, sqdt = grid.step, np.sqrt(grid.step)
    vol_s = stock * market.sigma_s
    # the bond's loading and the longevity risk price both carry v(lambda1)
    v1, _ = _diffusion(model, paths.hazards[0][:, :n])
    vol_l = w_bond[:, :n] * (rolling_bond_volatility(model, market, 1.0) * v1)
    theta_eff = market.theta_1 * v1
    wealth = np.empty((n_paths, n + 1))
    wealth[:, 0] = 0.0
    f = wealth[:, 1:]
    np.multiply(paths.shocks[0], sqdt, out=f)
    f += theta_eff * dt
    f -= (0.5 * dt) * vol_l
    f *= vol_l
    xi_s *= vol_s * sqdt
    f += xi_s
    f -= np.divide(dt, g[:, :n], out=xi_s)
    f += (market.r + vol_s * (market.theta_s - 0.5 * vol_s)) * dt
    # Y_k = y0 exp(log F_0 + ... + log F_{k-1})
    np.cumsum(wealth, axis=1, out=wealth)
    np.exp(wealth, out=wealth)
    wealth *= scenario.y0
    withdraw = wealth / g

    compensation = paths.members_hazard * wealth
    # cash = 1 - (stock + bond): the sum closes to exactly one while
    # stock + bond >= 0, and to within the rounding of 1 - (stock + bond) below
    return SchemeTrajectory(grid=grid, policy_kind=policy_kind, wealth=wealth,
                            withdraw=withdraw, compensation=compensation,
                            stock_weight=w_stock, bond_weight=w_bond,
                            cash_weight=1.0 - (w_stock + w_bond),
                            survival=paths.survival)


@dataclass
class DiscountedTotals:
    """Trapezoidal discounted totals over the horizon, per path and averaged."""

    benefit: np.ndarray
    compensation: np.ndarray

    @property
    def mean_benefit(self) -> float:
        return float(self.benefit.mean())

    @property
    def mean_compensation(self) -> float:
        return float(self.compensation.mean())


def discounted_totals(traj: SchemeTrajectory, r: float) -> DiscountedTotals:
    """int_0^horizon e^{-r s} beta(s) ds and the same for compensation."""
    disc = np.exp(-r * traj.grid.nodes)
    return DiscountedTotals(
        benefit=np.trapezoid(disc * traj.withdraw, traj.grid.nodes, axis=1),
        compensation=np.trapezoid(disc * traj.compensation, traj.grid.nodes, axis=1))


@dataclass
class ComparisonReport:
    """Paired comparison of two policy arms on identical noise."""

    times: np.ndarray
    traj_a: SchemeTrajectory
    traj_b: SchemeTrajectory
    withdraw_gain: np.ndarray       # (n_paths, n_nodes), arm_b - arm_a
    compensation_gain: np.ndarray
    totals_a: DiscountedTotals
    totals_b: DiscountedTotals

    @classmethod
    def of(cls, traj_a: SchemeTrajectory, traj_b: SchemeTrajectory,
           r: float) -> "ComparisonReport":
        """Report on two arms simulated on the same paths, both discounted
        at the rate r their shared G surface was built for."""
        return cls(times=traj_a.grid.nodes, traj_a=traj_a, traj_b=traj_b,
                   withdraw_gain=traj_b.withdraw - traj_a.withdraw,
                   compensation_gain=traj_b.compensation - traj_a.compensation,
                   totals_a=discounted_totals(traj_a, r),
                   totals_b=discounted_totals(traj_b, r))

    @property
    def mean_withdraw_gain(self) -> np.ndarray:
        return self.withdraw_gain.mean(axis=0)

    @property
    def mean_compensation_gain(self) -> np.ndarray:
        return self.compensation_gain.mean(axis=0)

    @property
    def benefit_improvement(self) -> float:
        """Relative gain of the average discounted benefit total."""
        return self.totals_b.mean_benefit / self.totals_a.mean_benefit - 1.0

    @property
    def compensation_improvement(self) -> float:
        return (self.totals_b.mean_compensation
                / self.totals_a.mean_compensation - 1.0)

