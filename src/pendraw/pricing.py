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

One cached RK4 pass in tau per model and t_max, at the lattice step
``LATTICE_STEP``, gives the Riccati coefficients C and the cumulative
Simpson integrals above; it steps the factors the model has, the bond's
reference factor only when there is one, since the members' curve never
involves it. The table at any anchor t is slices of that pass at the nodes
t + j*step plus a Gompertz-weighted sum for K0; when t_max - t is not a whole
number of steps, one more RK4 step resumed from C at the last node gives the
values at t_max (``_end_node``, which ``pendraw coeffs`` reads for each of
its rows). The tables serve the tests' oracles; the annuity evaluator
(``control``) reads the pass at its own rule's nodes alone, with the same
floats.
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
    risk; ``maturity``: constant time to maturity of the rolling bond (years).
    """

    r: float
    theta_s: float
    sigma_s: float
    theta_1: float
    maturity: float

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
    """Riccati solution 2(e^{eta*tau}-1) / ((b+eta)(e^{eta*tau}-1) + 2*eta)."""
    eta = np.sqrt(b * b + 2.0 * sigma * sigma)
    e = np.expm1(eta * np.asarray(tau, dtype=float))
    return 2.0 * e / ((b + eta) * e + 2.0 * eta)


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


@dataclass(frozen=True)
class _TauTable:
    """Anchor-free curves on the tau-lattice j*h, j = 0..n (read-only).

    ``m``/``delta`` are the factors' Gompertz parameters; ``c`` holds
    C_k(tau), one row per factor k. An anchor t with s = t + tau reads

        k0 = k0_level(tau) + sum_k e^{(s - m_k)/delta_k} k0_gompertz_k(tau).
    """

    m: np.ndarray
    delta: np.ndarray
    c: np.ndarray
    k0_level: np.ndarray
    k0_gompertz: np.ndarray


def _cum_simpson(f_fine: np.ndarray, h: float) -> np.ndarray:
    """Cumulative Simpson integrals along axis 0 at coarse nodes from values
    on the half-step lattice (2n+1 rows -> n+1 rows)."""
    seg = (h / 6.0) * (f_fine[0:-2:2] + 4.0 * f_fine[1::2] + f_fine[2::2])
    out = np.empty((seg.shape[0] + 1,) + seg.shape[1:])
    out[0] = 0.0
    np.cumsum(seg, axis=0, out=out[1:])
    return out


def _cir_tau_pass(big_b: np.ndarray, big_s: np.ndarray, h: float, n: int,
                  y0: np.ndarray) -> np.ndarray:
    """RK4 in tau, 2n steps of h/2, on Python floats: one row C per node,
    laid out as ``y0`` (C = 0 at tau = 0).

    The lower-triangular Riccati system, members as the last factor m, is

        dC = e_m - B^T C - (S^T C)^2 / 2.

    The members' C_m never involves factor 1, so it is stepped alone; a
    two-population model steps the bond factor's C_1 beside it at the same
    four stage states. Raises NumericalFailure at the first node whose state
    is not finite (inf and nan propagate through +, -, *, so the check runs
    once).
    """
    nf = big_b.shape[0]
    two = nf == 2
    # the members' entries, and factor 1's column of B and S (with one
    # factor the same entries again, unused)
    bm, sm = float(big_b[-1, -1]), float(big_s[-1, -1])
    (b1, b21), (s1, s21) = big_b[[0, -1], 0].tolist(), big_s[[0, -1], 0].tolist()
    dt = 0.5 * h
    half, sixth = 0.5 * dt, dt / 6.0
    y = y0.tolist()
    c1, c = y[0], y[-1]
    # the rows, flat, as C doubles: a list of row tuples of float objects
    # would take 6 to 8 times the memory
    rows = array("d", y)
    for _ in range(2 * n):
        # the members' stage slopes u, v, w, z of C_m
        q = sm * c
        uc = 1.0 - bm * c - 0.5 * q * q
        cv = c + half * uc
        q = sm * cv
        vc = 1.0 - bm * cv - 0.5 * q * q
        cw = c + half * vc
        q = sm * cw
        wc = 1.0 - bm * cw - 0.5 * q * q
        cz = c + dt * wc
        q = sm * cz
        zc = 1.0 - bm * cz - 0.5 * q * q
        if two:
            # factor 1's slopes of C_1
            q = s1 * c1 + s21 * c
            u1 = -(b1 * c1 + b21 * c) - 0.5 * q * q
            cs = c1 + half * u1
            q = s1 * cs + s21 * cv
            v1 = -(b1 * cs + b21 * cv) - 0.5 * q * q
            cs = c1 + half * v1
            q = s1 * cs + s21 * cw
            w1 = -(b1 * cs + b21 * cw) - 0.5 * q * q
            cs = c1 + dt * w1
            q = s1 * cs + s21 * cz
            z1 = -(b1 * cs + b21 * cz) - 0.5 * q * q
            c1 += sixth * (u1 + 2.0 * v1 + 2.0 * w1 + z1)
        c += sixth * (uc + 2.0 * vc + 2.0 * wc + zc)
        rows.extend((c1, c) if two else (c,))
    y = np.frombuffer(rows).reshape(-1, nf)
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        at = dt * float(np.argmax(bad))
        raise NumericalFailure(f"non-finite ODE state at tau={at}", at_time=at)
    return y


def _tau_curves(model: Model, h: float, n: int, tau0: float = 0.0,
                y0: Optional[np.ndarray] = None) -> _TauTable:
    """RK4 in tau from tau0, 2n steps of h/2, for C, then cumulative Simpson
    on the n panels of h.

    dC/dtau = e_m - B^T C [- (S^T C)^2 / 2 under CIR]; OU's noise enters k0
    additively instead, as +|S^T C|^2 / 2. No step divides by b1 - b22.

    ``y0`` = C at tau0 resumes a pass (default: the origin C = 0 at
    tau0 = 0); the k0 curves then hold the increments from tau0. The OU pass
    is affine, so its RK4 step is one fixed matrix map; the CIR pass is a
    loop on Python floats over the model's own factors (``_cir_tau_pass``).
    Neither calls ``solve_ode``, which integrates the scalar oracles only.
    """
    big_b, big_s, gms = model.factors
    nf = big_b.shape[0]
    w = tau0 + 0.5 * h * np.arange(2 * n + 1)
    if y0 is None:
        y0 = np.zeros(nf)
    if model.kind == CIR:
        c = _cir_tau_pass(big_b, big_s, h, n, y0)
        noise = np.zeros((w.size, 1))
    else:
        # C as a row obeys the affine dC = e_m - C B: an RK4 step of size
        # h/2 is the fixed map C -> C (I - hB Q) + h e_m Q with hB = h B / 2,
        # Q = I - hB/2 + (hB)^2/6 - (hB)^3/24
        hl = 0.5 * h * big_b
        q = np.eye(nf) - hl / 2 + hl @ hl / 6 - hl @ hl @ hl / 24
        step_map, offset = np.eye(nf) - hl @ q, 0.5 * h * np.eye(nf)[-1] @ q
        c = np.empty((w.size, nf))
        c[0] = y0
        # m steps map C_j to C_j R^m + c_m: doubling m fills every row
        m = 1
        while m < w.size:
            c[m:2 * m] = c[:min(m, w.size - m)] @ step_map + offset
            offset = offset @ step_map + offset
            step_map, m = step_map @ step_map, 2 * m
        qc = c @ big_s
        noise = 0.5 * np.sum(qc * qc, axis=1, keepdims=True)
    deltas = np.array([gm.delta for gm in gms])
    decay = np.exp(-w[:, None] / deltas)
    # one row per curve from here on, so that anchors read contiguous rows
    cum = _cum_simpson(np.hstack((c, c * decay, noise)), h).T
    level = np.array([big_b[k, k] * gm.nu for k, gm in enumerate(gms)])
    gompertz = np.array([[float(drift_a(gm.m, gm, big_b[k, k])) - level[k]]
                         for k, gm in enumerate(gms)])
    return _TauTable(m=np.array([gm.m for gm in gms]), delta=deltas,
                     c=np.ascontiguousarray(c[::2].T),
                     k0_level=cum[-1] - level @ cum[:nf],
                     k0_gompertz=-gompertz * cum[nf:2 * nf])


@lru_cache(maxsize=16)
def _tau_table(model: Model, h: float, n: int) -> _TauTable:
    """The pass of ``_tau_curves`` from the origin, cached and read-only."""
    tab = _tau_curves(model, h, n)
    for arr in vars(tab).values():
        arr.setflags(write=False)
    return tab


def _lattice_span(t: float, t_max: float, step: float = LATTICE_STEP):
    """(n, partial): the lattice t + j*step reaches t_max after n whole steps,
    and ``partial`` says whether a last step shorter than ``step`` is left.
    Remainders below 1e-9 steps count as none, except that a table always
    has a step."""
    ratio = (t_max - t) / step
    n = int(math.floor(ratio + 1e-9))
    return n, n == 0 or ratio - n > 1e-9


def _tau_pass(model: Model, t: float, t_max: float,
              step: float = LATTICE_STEP) -> _TauTable:
    """The cached tau pass that anchors from t on read up to t_max. It
    reaches tau = t_max from t = 0, or from t if that is earlier, so every
    anchor t >= 0 of one (model, t_max) reads the same pass. The pass is
    prefix-stable: a longer one holds the same floats at every node of a
    shorter one, so its length changes no value."""
    n, _ = _lattice_span(t, t_max, step)
    return _tau_table(model, float(step), max(n, int(t_max / step + 1e-9)))


def _k0(tt: _TauTable, s, level: np.ndarray, gompertz) -> np.ndarray:
    """K0 at the values s from its curves there, in place in ``level``:
    level + sum_k e^{(s - m_k)/delta_k} gompertz_k, summed factor by factor
    (``gompertz`` yields one array per factor). gompertz_k is 0 at tau = 0
    alone, where the term is 0 whatever the exponent, so the exponent is
    zeroed there, and an e^{(s - m_k)/delta_k} of inf cannot meet it; past
    exp's overflow elsewhere the term, and K0, take their infinite limit."""
    for m, delta, k0_gm in zip(tt.m, tt.delta, gompertz):
        x = s - m
        x /= delta
        np.copyto(x, 0.0, where=k0_gm == 0.0)
        with np.errstate(over="ignore"):
            np.exp(x, out=x)
        x *= k0_gm
        level += x
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
    """(C, K0) at t_max for the anchor t, from a pass that covers its span:
    lattice node n when t_max - t is n whole steps, else one RK4 step of the
    tau pass resumed from C at lattice node n."""
    n, partial = _lattice_span(t, t_max, step)
    if not partial:
        _, k0 = _lattice_nodes(tt, t, t_max, n, np.array([n]), step)
        return tt.c[:, n], k0[0]
    tail = _tau_curves(model, t_max - (t + step * n), 1, n * step, tt.c[:, n])
    level = np.array([tt.k0_level[n] + tail.k0_level[1]])
    gompertz = (tt.k0_gompertz[:, n] + tail.k0_gompertz[:, 1])[:, None]
    return tail.c[:, 1], _k0(tt, np.array([t_max]), level, gompertz)[0]


def build_coefficient_table(model: Model, t: float, t_max: float,
                            step: float = LATTICE_STEP) -> CoefficientTable:
    """Coefficient curves at the lattice nodes s = t + j*step in [t, t_max]
    and at t_max, the last node.

    Every anchor reads the one cached tau pass of this step that reaches
    tau = t_max from t = 0 (``_tau_pass``). The node at t_max is the pass's
    own lattice node when t_max - t is a whole number of steps, and
    otherwise comes from one more RK4 step of that pass, resumed at the last
    lattice node from C alone (``_end_node``).
    """
    if t_max <= t:
        raise ValueError(f"need t < t_max, got t={t}, t_max={t_max}")
    n, partial = _lattice_span(t, t_max, step)
    tt = _tau_pass(model, t, t_max, step)
    # the lattice nodes before the one at t_max
    lattice = np.arange(n + partial)
    s, k0 = _lattice_nodes(tt, t, t_max, -1, lattice, step)
    c_end, k0_end = _end_node(model, tt, t, t_max, step)
    s = np.append(s, t_max)
    return CoefficientTable(t, s, s - t, np.append(k0, k0_end),
                            np.hstack((tt.c[:, lattice], c_end[:, None])))
