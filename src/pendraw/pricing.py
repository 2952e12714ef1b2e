"""Exponential-affine survival expectations and longevity-bond quantities.

For an affine hazard model the conditional survival expectation is

    S(t,s) = E_t[exp(-int_t^s lambda_members du)]
           = exp(K0(t,s) - K1(t,s)*lambda1(t) [- K2(t,s)*lambda2(t)])

with coefficients solving Riccati-type ODEs in t, terminal value zero at
t = s. Single-population models use (A0, A1); two-population models use
(C0, C1, C2). The rolling zero-coupon longevity bond keeps a constant time to
maturity and its volatility loading is -A1(t, t+T)*sigma1 times the
diffusion scale v(lambda1), sqrt(lambda1) under CIR
(``rolling_bond_volatility``); A1 and sigma1 = S[0, 0] are those of factor
1, the bond's reference population, in the model's ``factors`` (B, S,
gms). The measure-changed hazard means E~ of the annuity value come from a
hazard-proportional drift adjustment; they are the survival-forward-measure
means, E~_t[lambda_members(s)] = -d/ds log S(t,s) (S(t,s) always with its
arguments, apart from the volatility matrix S), so the annuity value needs
S(t,s) alone (``control``) and ``tilde_mean`` serves as their oracle.

Two routes compute these. The scalar functions (``coeffs_single``,
``coeffs_two_pop``, ``tilde_mean``) follow the defining integrals and ODE
systems at one (t, s) with closed forms, composite Gauss-Legendre
quadrature and RK4; they are the oracles. The two-population OU closed forms
go through one convolution kernel K(tau) = int_0^tau e^{-b1(tau-w)}
e^{-b22 w} dw, evaluated without dividing by b1 - b22, so b1 = b22 is no
special case; the two-population CIR means come from one backward RK4
system for the Riccati coefficients, the propagator of the mean ODEs and its
drift term (``tilde_mean``). The tau pass behind the annuity evaluator and
the coefficient tables uses the affine structure of the model's
``factors``: mean reversion and volatilities are constant, so K1 and K2 are
functions of tau = s - t alone, and the Gompertz-Makeham drift
a_k(u) = level_k + g_k exp((u - m_k)/delta_k) enters K0 only through

    int_t^s a_k(u) f(s-u) du = level_k int_0^tau f(w) dw
                               + g_k e^{(s - m_k)/delta_k} int_0^tau f(w) e^{-w/delta_k} dw.

One cached pass in tau per model, at the lattice step ``LATTICE_STEP``,
gives the Riccati coefficients C and the cumulative Simpson integrals above
on the half-step lattice. Under OU it is RK4, one fixed affine map per step.
Under CIR the members' curve C_m solves dC = 1 - b C - (s C)^2 / 2, with b
and s constant, which never involves factor 1: it is the closed form
``a1_cir`` at each tau (Cox, Ingersoll & Ross, 1985), exact, so a
one-population pass steps nothing, and a two-population pass steps only
the bond's reference factor C_1 by RK4, reading the exact C_m at its stage
taus (``_cir_tau_pass``). The pass grows on demand, each growth resuming
the last one exactly, to the last node its readers read (``_TauTable``); it
is read as a prefix. The table at any anchor t is slices of that pass at
the nodes t + j*step plus a Gompertz-weighted sum for K0; when t_max - t is
not a whole number of steps, one more step of the pass resumed from C at
the last node gives the values at t_max (``_end_node``, which
``pendraw coeffs`` reads for each of its rows). The tables serve the tests'
oracles; the annuity evaluator (``control``) reads the pass at its own
rule's nodes alone, with the same floats.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .mortality import (CIR, OU, Model, SinglePopModel, TwoPopModel,
                        _check_finite, _diffusion, drift_a)
from .numerics import NumericalFailure, integrate, solve_ode

# spacing in s of the coefficient tables, and the step of their tau pass
LATTICE_STEP = 0.05


@dataclass(frozen=True)
class MarketParams:
    """Financial market constants.

    ``r``: risk-free rate; ``theta_s``: stock market price of risk;
    ``sigma_s``: stock volatility; ``theta_1``: market price of longevity
    risk; ``maturity``: constant time to maturity of the rolling bond (years,
    20 by default).
    """

    r: float
    theta_s: float
    sigma_s: float
    theta_1: float
    maturity: float = 20.0

    def __post_init__(self):
        _check_finite(self, [f.name for f in fields(self)])
        if self.sigma_s <= 0:
            raise ValueError(f"sigma_s must be > 0, got {self.sigma_s}")
        if self.maturity <= 0:
            raise ValueError(f"maturity must be > 0, got {self.maturity}")

    @property
    def stock_premium(self) -> float:
        return self.theta_s * self.sigma_s


@dataclass(frozen=True)
class AffineCoeffs1:
    """Single-population affine coefficients evaluated at one (t, s)."""

    a0: float
    a1: float


@dataclass(frozen=True)
class AffineCoeffs2:
    """Two-population affine coefficients evaluated at one (t, s)."""

    c0: float
    c1: float
    c2: float


# ---------------------------------------------------------------------------
# closed forms in tau = s - t
# ---------------------------------------------------------------------------

def a1_ou(b: float, tau):
    """(1 - exp(-b*tau)) / b."""
    return (1.0 - np.exp(-b * np.asarray(tau, dtype=float))) / b


def a1_cir(b: float, sigma: float, tau):
    """Riccati solution 2(e^{eta*tau}-1) / ((b+eta)(e^{eta*tau}-1) + 2*eta),
    eta = sqrt(b^2 + 2 sigma^2) (Cox, Ingersoll & Ross, Econometrica 53(2),
    1985), taken over e^{-eta*tau} as 2x / ((b - eta) x + 2 eta) with
    x = 1 - e^{-eta*tau}: no exponential grows, and the denominator is at
    least b + eta, so it is finite for every b > 0, sigma >= 0, tau >= 0."""
    eta = np.sqrt(b * b + 2.0 * sigma * sigma)
    x = -np.expm1(-eta * np.asarray(tau, dtype=float))
    return 2.0 * x / ((b - eta) * x + 2.0 * eta)


def _ou_kernel(b1: float, b22: float, tau):
    """K(tau) = int_0^tau e^{-b1(tau-w)} e^{-b22 w} dw, symmetric in b1 and
    b22, as tau e^{-min(b1, b22) tau} (1 - e^{-x})/x with x = |b1 - b22| tau:
    the ratio is 1 at x = 0, so nothing divides by b1 - b22."""
    tau = np.asarray(tau, dtype=float)
    x = abs(b1 - b22) * tau
    with np.errstate(invalid="ignore"):
        ratio = np.where(x == 0.0, 1.0, -np.expm1(-x) / x)
    return tau * np.exp(-min(b1, b22) * tau) * ratio


def c1_ou(model: TwoPopModel, tau):
    """Cross coefficient solving -dC1/dt + b1*C1 + b21*C2 = 0, C1(s,s) = 0:
    C1 = -b21 int_0^tau e^{-b1(tau-w)} C2(w) dw with C2 = a1_ou(b22, .)."""
    return -(model.b21 / model.b22) * (a1_ou(model.b1, tau)
                                        - _ou_kernel(model.b1, model.b22, tau))


def _cir2_tau_rhs(model: TwoPopModel):
    s1, s21, s22 = model.sigma1, model.sigma21, model.sigma22
    b1, b21, b22 = model.b1, model.b21, model.b22

    def rhs(_tau, y):
        c1, c2 = y
        dc1 = -(b1 * c1 + b21 * c2 + 0.5 * s1 * s1 * c1 * c1
                + 0.5 * s21 * s21 * c2 * c2 + s1 * s21 * c1 * c2)
        dc2 = 1.0 - b22 * c2 - 0.5 * s22 * s22 * c2 * c2
        return np.array([dc1, dc2])
    return rhs


# ---------------------------------------------------------------------------
# scalar coefficient evaluation
# ---------------------------------------------------------------------------

def coeffs_single(model: SinglePopModel, t: float, s: float) -> AffineCoeffs1:
    """A0, A1 at (t, s); A0 by composite Gauss-Legendre quadrature of the
    defining integrand."""
    if t > s:
        raise ValueError(f"need t <= s, got t={t}, s={s}")
    if t == s:
        return AffineCoeffs1(0.0, 0.0)
    b, sig, gm = model.b, model.sigma, model.gm
    if model.kind == OU:
        a1 = float(a1_ou(b, s - t))

        def integrand(u):
            a1u = a1_ou(b, s - u)
            return drift_a(u, gm, b) * a1u - 0.5 * sig * sig * a1u * a1u
    else:
        a1 = float(a1_cir(b, sig, s - t))

        def integrand(u):
            return drift_a(u, gm, b) * a1_cir(b, sig, s - u)

    a0 = -integrate(integrand, t, s)
    return AffineCoeffs1(a0, a1)


def coeffs_two_pop(model: TwoPopModel, t: float, s: float,
                   ode_step: float = 0.01) -> AffineCoeffs2:
    """C0, C1, C2 at (t, s).

    OU uses the closed forms for C1 and C2 with C0 by composite
    Gauss-Legendre quadrature; CIR integrates the full Riccati system
    backward from the terminal condition with classical RK4.
    """
    if t > s:
        raise ValueError(f"need t <= s, got t={t}, s={s}")
    if t == s:
        return AffineCoeffs2(0.0, 0.0, 0.0)
    if model.kind == OU:
        s1, s21, s22 = model.sigma1, model.sigma21, model.sigma22

        def integrand(u):
            c1u = c1_ou(model, s - u)
            c2u = a1_ou(model.b22, s - u)
            return (drift_a(u, model.gm1, model.b1) * c1u
                    + drift_a(u, model.gm2, model.b22) * c2u
                    - 0.5 * s1 * s1 * c1u * c1u
                    - 0.5 * (s21 * s21 + s22 * s22) * c2u * c2u
                    - s1 * s21 * c1u * c2u)

        c0 = -integrate(integrand, t, s)
        return AffineCoeffs2(c0, float(c1_ou(model, s - t)),
                             float(a1_ou(model.b22, s - t)))

    rhs_tau = _cir2_tau_rhs(model)

    def rhs(u, y):
        # y = (C0, C1, C2) along fixed s; d/du flips the tau derivative
        dc = -rhs_tau(s - u, y[1:])
        dc0 = drift_a(u, model.gm1, model.b1) * y[1] \
            + drift_a(u, model.gm2, model.b22) * y[2]
        return np.array([dc0, dc[0], dc[1]])

    _, ys = solve_ode(rhs, s, t, np.zeros(3), step=ode_step)
    return AffineCoeffs2(*ys[-1])


def survival_expectation(coeffs: Union[AffineCoeffs1, AffineCoeffs2],
                         lam) -> float:
    """exp(A0 - A1*lam) or exp(C0 - C1*lam1 - C2*lam2); strictly positive."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if isinstance(coeffs, AffineCoeffs1):
        return float(np.exp(coeffs.a0 - coeffs.a1 * lam[0]))
    return float(np.exp(coeffs.c0 - coeffs.c1 * lam[0] - coeffs.c2 * lam[1]))


# ---------------------------------------------------------------------------
# rolling bond
# ---------------------------------------------------------------------------

def rolling_bond_volatility(model: Model, market: MarketParams,
                            lambda1=None):
    """Volatility loading sigma_L of the rolling bond: -A1(T)*sigma1 times
    the diffusion scale v(lambda1) (``mortality._diffusion``: 1 under OU,
    sqrt(lambda1) under CIR), where A1 is the closed form of factor 1 (the
    bond's reference population) with b = B[0, 0] and sigma1 = S[0, 0].
    Negative whenever sigma1 > 0.

    A1 depends on the time to maturity T alone, so the loading is the same
    at every t. Under CIR ``lambda1`` may be a number or an array, and the
    loading has its shape; OU's loading is one number and ignores it. At
    lambda1 = 1 both kinds give the loading per unit v(lambda1),
    -A1(T)*sigma1.
    """
    big_b, big_s, _ = model.factors
    b, sigma1 = big_b[0, 0], float(big_s[0, 0])
    a1 = a1_ou(b, market.maturity) if model.kind == OU \
        else a1_cir(b, sigma1, market.maturity)
    return -float(a1) * sigma1 * _diffusion(model, lambda1)[0]


# ---------------------------------------------------------------------------
# measure-changed hazard means
# ---------------------------------------------------------------------------

def tilde_mean(model: Model, t: float, s: float, lam,
               ode_step: float = 0.01) -> np.ndarray:
    """Expected hazards at s under the survival-weighted measure change.

    Returns one value per population. The means solve the linear ODEs

        dE/du = a(u) - M(u) E,   E(t) = lam,

    in which the survival weighting shifts the drift by the coefficients
    C = C(s - u), with B and S the model's factors: under OU the level a by
    -S S^T C (M = B), under CIR the reversion to M = B + S diag(S^T C).

    OU solves them by variation of constants. With the kernel
    K(tau) = int_0^tau e^{-b1(tau-w)} e^{-b22 w} dw and the shifted drifts
    adj1 = a1 - s1^2 C1 - s1 s21 C2, adj2 = a2 - s1 s21 C1 - (s21^2 + s22^2) C2,

        E1 = lam1 e^{-b1 tau} + int_t^s e^{-b1(s-u)} adj1 du,
        E2 = lam2 e^{-b22 tau} - b21 lam1 K(tau)
             + int_t^s [e^{-b22(s-u)} adj2 - b21 K(s-u) adj1] du,

    with tau = s - t and the integrals by composite Gauss-Legendre; b1 = b22
    is no special case. Two-population CIR makes one backward RK4 pass from s
    to t on (C1, C2, P, q): the Riccati coefficients, the propagator P with
    dP/du = P M, P(s) = I, and dq/du = -P a, q(s) = 0, so that
    E(s) = P(t) lam + q(t). Single-population CIR steps E forward.
    """
    if t > s:
        raise ValueError(f"need t <= s, got t={t}, s={s}")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if t == s:
        return lam.copy()

    if isinstance(model, SinglePopModel):
        b, sig, gm = model.b, model.sigma, model.gm
        if model.kind == OU:
            decay = np.exp(-b * (s - t))
            part = integrate(
                lambda u: (drift_a(u, gm, b) - sig * sig * a1_ou(b, s - u))
                * np.exp(-b * (s - u)), t, s)
            return np.array([lam[0] * decay + part])

        def rhs(u, y):
            c = b + sig * sig * a1_cir(b, sig, s - u)
            return np.array([drift_a(u, gm, b) - c * y[0]])

        _, ys = solve_ode(rhs, t, s, np.array([lam[0]]), step=ode_step)
        return np.array([ys[-1, 0]])

    b1, b21, b22 = model.b1, model.b21, model.b22
    s1, s21, s22 = model.sigma1, model.sigma21, model.sigma22
    if model.kind == OU:
        def adj(u):
            c1, c2 = c1_ou(model, s - u), a1_ou(b22, s - u)
            return (drift_a(u, model.gm1, b1) - s1 * s1 * c1 - s1 * s21 * c2,
                    drift_a(u, model.gm2, b22) - s1 * s21 * c1
                    - (s21 * s21 + s22 * s22) * c2)

        def members(u):
            adj1, adj2 = adj(u)
            return (np.exp(-b22 * (s - u)) * adj2
                    - b21 * _ou_kernel(b1, b22, s - u) * adj1)

        e1 = lam[0] * np.exp(-b1 * (s - t)) \
            + integrate(lambda u: np.exp(-b1 * (s - u)) * adj(u)[0], t, s)
        e2 = lam[1] * np.exp(-b22 * (s - t)) \
            - b21 * lam[0] * _ou_kernel(b1, b22, s - t) + integrate(members, t, s)
        return np.array([e1, e2])

    rhs_tau = _cir2_tau_rhs(model)

    def rhs(u, y):
        # y = (C1, C2, P11, P21, P22, q1, q2) along fixed s
        c1, c2, p11, p21, p22 = y[:5]
        m11 = b1 + s1 * s1 * c1 + s1 * s21 * c2
        m21 = b21 + s1 * s21 * c1 + s21 * s21 * c2
        m22 = b22 + s22 * s22 * c2
        a1, a2 = drift_a(u, model.gm1, b1), drift_a(u, model.gm2, b22)
        return np.concatenate((-rhs_tau(s - u, y[:2]), [
            p11 * m11, p21 * m11 + p22 * m21, p22 * m22,
            -p11 * a1, -(p21 * a1 + p22 * a2)]))

    _, ys = solve_ode(rhs, s, t, [0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
                      step=ode_step)
    _, _, p11, p21, p22, q1, q2 = ys[-1]
    return np.array([p11 * lam[0] + q1, p21 * lam[0] + p22 * lam[1] + q2])


# ---------------------------------------------------------------------------
# coefficient tables: one tau pass per model, sliced per anchor
# ---------------------------------------------------------------------------

@dataclass
class CoefficientTable:
    """Affine coefficient curves on a lattice anchored at t.

    ``k0 - lam @ k`` is the log survival expectation to each lattice node,
    for the hazard vector lam in the model's factor order; ``k`` has one row
    per factor.
    """

    t: float
    s: np.ndarray
    tau: np.ndarray
    k0: np.ndarray
    k: np.ndarray        # (n_factors, nodes)


def _cum_simpson(f_fine: np.ndarray, h: float,
                 start: Optional[np.ndarray] = None) -> np.ndarray:
    """Cumulative Simpson integrals along axis 0 at coarse nodes from values
    on the half-step lattice (2n+1 rows -> n+1 rows). ``start`` resumes the
    integrals from their values at the first node, in cumsum's order, so a
    pass grown in pieces sums every panel as one grown at once."""
    seg = (h / 6.0) * (f_fine[0:-2:2] + 4.0 * f_fine[1::2] + f_fine[2::2])
    out = np.empty((seg.shape[0] + 1,) + seg.shape[1:])
    if start is not None:
        seg[0] += start
    out[0] = 0.0 if start is None else start
    np.cumsum(seg, axis=0, out=out[1:])
    return out


def _ou_tau_pass(big_b: np.ndarray, h: float, size: int,
                 y0: np.ndarray) -> np.ndarray:
    """OU's C on ``size`` nodes of step h/2 from y0, one row per node.

    C as a row obeys the affine dC = e_m - C B: an RK4 step of size h/2 is
    the fixed map C -> C (I - hB Q) + h e_m Q with hB = h B / 2,
    Q = I - hB/2 + (hB)^2/6 - (hB)^3/24. m steps map C_j to C_j R^m + c_m:
    doubling m fills every row, each from the same rows at any ``size``.
    """
    nf = big_b.shape[0]
    hl = 0.5 * h * big_b
    q = np.eye(nf) - hl / 2 + hl @ hl / 6 - hl @ hl @ hl / 24
    step_map, offset = np.eye(nf) - hl @ q, 0.5 * h * np.eye(nf)[-1] @ q
    c = np.empty((size, nf))
    c[0] = y0
    m = 1
    while m < size:
        c[m:2 * m] = c[:min(m, size - m)] @ step_map + offset
        offset = offset @ step_map + offset
        step_map, m = step_map @ step_map, 2 * m
    return c


def _cir_tau_pass(big_b: np.ndarray, big_s: np.ndarray, h: float,
                  cm: np.ndarray, c1: float) -> np.ndarray:
    """Factor 1's C_1 of a two-population CIR pass: RK4 in tau on Python
    floats, steps of h/2 from c1. Returns c1, then C_1 at each step's end.

    In the lower-triangular Riccati system the bond factor's row

        dC_1 = -b1 C_1 - b21 C_m - (s1 C_1 + s21 C_m)^2 / 2

    reads the members' C_m, which never involves factor 1 and is exact
    (``a1_cir``). So the stages read ``cm``, C_m at every quarter step from
    the first: tau, tau + h/4 (twice) and tau + h/2 per step. A state that
    overflows stays non-finite (inf and nan propagate through +, -, *), so
    one check of the values finds it.
    """
    (b1, b21), (s1, s21) = big_b[:, 0].tolist(), big_s[:, 0].tolist()
    dt = 0.5 * h
    half, sixth = 0.5 * dt, dt / 6.0
    cm = cm.tolist()
    # C doubles: a list of float objects would take four times the memory
    out = array("d", (c1,))
    for cu, cv, cz in zip(cm[0:-1:2], cm[1::2], cm[2::2]):
        q = s1 * c1 + s21 * cu
        u1 = -(b1 * c1 + b21 * cu) - 0.5 * q * q
        cs = c1 + half * u1
        q = s1 * cs + s21 * cv
        v1 = -(b1 * cs + b21 * cv) - 0.5 * q * q
        cs = c1 + half * v1
        q = s1 * cs + s21 * cv
        w1 = -(b1 * cs + b21 * cv) - 0.5 * q * q
        cs = c1 + dt * w1
        q = s1 * cs + s21 * cz
        z1 = -(b1 * cs + b21 * cz) - 0.5 * q * q
        c1 += sixth * (u1 + 2.0 * v1 + 2.0 * w1 + z1)
        out.append(c1)
    return np.frombuffer(out)


class _TauTable:
    """Anchor-free curves on the tau-lattice tau0 + j*h, j = 0..n, grown on
    demand (``grow``). Its arrays are read-only; growth replaces them with
    longer ones, so a reader that grows the pass reads them afresh.

    ``m``/``delta`` are the factors' Gompertz parameters; ``c`` holds
    C_k(tau), one row per factor k. An anchor t with s = t + tau reads

        k0 = k0_level(tau) + sum_k e^{(s - m_k)/delta_k} k0_gompertz_k(tau).

    The pass starts from ``y0`` = C at tau0 (default: the origin, C = 0 at
    tau0 = 0), and its k0 curves hold the increments from tau0; under CIR
    the members' C_m is the closed form at tau0 + j*h, so y0's last entry
    must be that value, as a node of another pass is. Growth resumes it
    exactly: CIR's C_m and the decay exponent at the nodes' global indices,
    CIR's factor-1 loop from its last float, the cumulative Simpson
    integrals from their last values (``_cum_simpson``); the OU pass, a
    fixed map per step, is recomputed at the new length, and the k0 curves
    are rebuilt from the integrals of the whole pass. So the pass holds the
    same floats however it grew, and a longer pass those of a shorter one at
    every node they share (prefix-stable).
    """

    def __init__(self, model: Model, h: float, tau0: float = 0.0,
                 y0: Optional[np.ndarray] = None):
        big_b, _, gms = model.factors
        nf = big_b.shape[0]
        self.model, self.h, self.tau0 = model, h, tau0
        self.m = np.array([gm.m for gm in gms])
        self.delta = np.array([gm.delta for gm in gms])
        self._level = np.array([big_b[k, k] * gm.nu
                                for k, gm in enumerate(gms)])
        self._gompertz = np.array(
            [[float(drift_a(gm.m, gm, big_b[k, k])) - self._level[k]]
             for k, gm in enumerate(gms)])
        self._y0 = np.zeros(nf) if y0 is None else np.asarray(y0, dtype=float)
        # the cumulative integrals of C, C e^{-w/delta} and the noise, one
        # row per node
        self._cum = np.zeros((1, 2 * nf + 1))
        self._hold(self._y0[:, None].copy())

    @property
    def n(self) -> int:
        """The last node."""
        return self.c.shape[1] - 1

    def _hold(self, c: np.ndarray) -> None:
        """Keep C and the k0 curves of the integrals, all read-only."""
        nf = c.shape[0]
        cum = self._cum.T
        self.c = c
        self.k0_level = cum[-1] - self._level @ cum[:nf]
        self.k0_gompertz = -self._gompertz * cum[nf:2 * nf]
        for arr in (self.c, self.k0_level, self.k0_gompertz):
            arr.setflags(write=False)

    def grow(self, n: int) -> "_TauTable":
        """Extend the pass to node n, if it ends before it, with C at the
        half steps w = tau0 + j*h/2 and cumulative Simpson on the panels of
        h. Returns the pass.

        dC/dtau = e_m - B^T C [- (S^T C)^2 / 2 under CIR]; OU's noise enters
        k0 additively instead, as +|S^T C|^2 / 2. No step divides by
        b1 - b22. The OU pass is RK4 at h/2, one fixed matrix map per step
        (``_ou_tau_pass``). The CIR pass reads the members' C_m from
        ``a1_cir`` at the quarter steps, w among them, and steps factor 1, if
        the model has it, by RK4 at h/2 on Python floats
        (``_cir_tau_pass``); neither calls ``solve_ode``, which integrates
        the scalar oracles only. Raises NumericalFailure at the first CIR
        state that is not finite, which only factor 1's loop can reach; the
        pass then keeps the whole nodes before it.
        """
        j0 = self.n
        if n <= j0:
            return self
        big_b, big_s, _ = self.model.factors
        w = self.tau0 + 0.5 * self.h * np.arange(2 * j0, 2 * n + 1)
        failure = None
        if self.model.kind == CIR:
            # C_m, exact, at every quarter step: its even entries are at w
            # (0.25h * 4j and 0.5h * 2j round alike), and factor 1's RK4
            # stages read them all
            cm = a1_cir(big_b[-1, -1], big_s[-1, -1], self.tau0 + 0.25
                        * self.h * np.arange(4 * j0, 4 * n + 1))
            c = cm[::2, None]
            if big_b.shape[0] == 2:
                c = np.column_stack((_cir_tau_pass(
                    big_b, big_s, self.h, cm, float(self.c[0, j0])), c))
            bad = ~np.isfinite(c).all(axis=1)
            if bad.any():
                first = int(np.argmax(bad))
                at = float(w[first])
                failure = NumericalFailure(
                    f"non-finite ODE state at tau={at}", at_time=at)
                n = j0 + (first - 1) // 2
                c, w = c[:2 * (n - j0) + 1], w[:2 * (n - j0) + 1]
            noise = np.zeros((w.size, 1))
        else:
            c = _ou_tau_pass(big_b, self.h, 2 * n + 1, self._y0)
            qc = c @ big_s
            noise = 0.5 * np.sum(qc * qc, axis=1, keepdims=True)[2 * j0:]
            c = c[2 * j0:]
        if n > j0:
            decay = np.exp(-w[:, None] / self.delta)
            cum = _cum_simpson(np.hstack((c, c * decay, noise)), self.h,
                               self._cum[-1] if j0 else None)
            self._cum = np.concatenate((self._cum, cum[1:]))
            # C-contiguous rows, one per factor, as the rule's take reads
            # them fastest (hstack with the transposed rows gives F order)
            self._hold(np.ascontiguousarray(np.hstack((self.c, c[2::2].T))))
        if failure is not None:
            raise failure
        return self


@lru_cache(maxsize=16)
def _tau_table(model: Model, h: float) -> _TauTable:
    """The pass of ``model`` at step h from the origin, cached. It starts
    at node 0 and its readers grow it to the last node they read: G's rule
    (``control``) until every anchor's rule is closed, a coefficient table,
    ``_end_node`` and ``pendraw coeffs`` to the node before t_max. Every
    anchor t >= 0 of one model reads this pass, whatever its t_max."""
    return _TauTable(model, h)


def _lattice_span(t: float, t_max: float, step: float = LATTICE_STEP):
    """(n, partial): the lattice t + j*step reaches t_max after n whole steps,
    and ``partial`` says whether a last step shorter than ``step`` is left.
    Remainders below 1e-9 steps count as none, except that a table always
    has a step."""
    ratio = (t_max - t) / step
    n = int(math.floor(ratio + 1e-9))
    return n, n == 0 or ratio - n > 1e-9


def _k0(tt: _TauTable, s, level: np.ndarray, gompertz) -> np.ndarray:
    """K0 at the values s from its curves there, in place in ``level``:
    level + sum_k e^{(s - m_k)/delta_k} gompertz_k, summed factor by factor
    (``gompertz`` yields one array per factor). gompertz_k is 0 at tau = 0
    alone, where the term is 0 whatever the exponent, so the exponent is
    zeroed there, and an e^{(s - m_k)/delta_k} of inf cannot meet it; past
    exp's overflow elsewhere the term, and K0, take their infinite limit.
    Where two terms overflow with opposite signs, the limit's sign is that
    of the term of larger log-magnitude (s - m_k)/delta_k + log|gompertz_k|,
    the one that grows faster."""
    gompertz = list(gompertz)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, delta, k0_gm in zip(tt.m, tt.delta, gompertz):
            x = s - m
            x /= delta
            np.copyto(x, 0.0, where=k0_gm == 0.0)
            np.exp(x, out=x)
            x *= k0_gm
            level += x
    # one term cannot clash with itself
    clash = np.isnan(level) if len(gompertz) > 1 else np.False_
    if clash.any():
        terms = np.array([np.broadcast_to(k0_gm, level.shape)[clash]
                          for k0_gm in gompertz])
        at = np.broadcast_to(s, level.shape)[clash]
        logs = (at - tt.m[:, None]) / tt.delta[:, None] + np.log(np.abs(terms))
        lead = np.argmax(logs, axis=0)
        level[clash] = np.copysign(np.inf, terms[lead, np.arange(lead.size)])
    return level


def _lattice_nodes(tt: _TauTable, t, t_max: float, end, idx,
                   step: float = LATTICE_STEP):
    """(s, K0) at the lattice nodes ``idx`` of anchors t, both broadcast
    against ``idx``: s = t + step*j, or t_max at node ``end``, the last node
    n of a span with no partial step (``_lattice_span``; -1 for none)."""
    s = np.where(idx == end, t_max, t + step * idx)
    return s, _k0(tt, s, tt.k0_level[idx],
                  (k0_gm[idx] for k0_gm in tt.k0_gompertz))


def _end_node(model: Model, tt: _TauTable, t: float, t_max: float,
              step: float = LATTICE_STEP):
    """(C, K0) at t_max for the anchor t, from the pass ``tt``, grown to the
    span's last lattice node n: that node when t_max - t is n whole steps,
    else one short step of a tau pass resumed from C at node n, whose C_m
    under CIR is the closed form at its own global taus."""
    n, partial = _lattice_span(t, t_max, step)
    tt.grow(n)
    if not partial:
        _, k0 = _lattice_nodes(tt, t, t_max, n, np.array([n]), step)
        return tt.c[:, n], k0[0]
    tail = _TauTable(model, t_max - (t + step * n), n * step,
                     tt.c[:, n]).grow(1)
    level = np.array([tt.k0_level[n] + tail.k0_level[1]])
    gompertz = (tt.k0_gompertz[:, n] + tail.k0_gompertz[:, 1])[:, None]
    return tail.c[:, 1], _k0(tt, np.array([t_max]), level, gompertz)[0]


def build_coefficient_table(model: Model, t: float, t_max: float,
                            step: float = LATTICE_STEP) -> CoefficientTable:
    """Coefficient curves at the lattice nodes s = t + j*step in [t, t_max]
    and at t_max, the last node.

    Every anchor reads the one cached tau pass of this step
    (``_tau_table``), grown to the span's last lattice node n. The node at
    t_max is the pass's own node n when t_max - t is a whole number of
    steps, and otherwise comes from one more step of that pass, resumed at
    node n from C alone (``_end_node``).
    """
    if t_max <= t:
        raise ValueError(f"need t < t_max, got t={t}, t_max={t_max}")
    n, partial = _lattice_span(t, t_max, step)
    tt = _tau_table(model, float(step)).grow(n)
    # the lattice nodes before the one at t_max
    lattice = np.arange(n + partial)
    s, k0 = _lattice_nodes(tt, t, t_max, -1, lattice, step)
    c_end, k0_end = _end_node(model, tt, t, t_max, step)
    s = np.append(s, t_max)
    return CoefficientTable(t, s, s - t, np.append(k0, k0_end),
                            np.hstack((tt.c[:, lattice], c_end[:, None])))
