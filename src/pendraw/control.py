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

The quadrature reads the one cached tau pass of the model (``pricing``),
which every anchor shares, at its rule's nodes only: the trapezoid rule on
every 10th node s_n = t + 0.05 n of the lattice, with Gregory end
corrections that make it exact for polynomials of degree below 8. The rule
stops at the survival-underflow cut, the first rule node with k0 < -50
(``_CUT_K0``), or ends in a short panel at t_max, whose node
``pricing._end_node`` reads; anchors with a high hazard or a short span use
a smaller stride. The pass grows only until every anchor's rule is closed
(``_rule_nodes``): at t = 0 on the shipped parameters that is 1 340 of the
2 401 nodes up to t_max = 120 for one population and 1 510 for the
sub-population, fewer at later anchors. On the nodes (weights w_n) A and the gradient's integrals
are the moments
M[x] = sum_n w_n e^{-r(s_n - t)} surv_n x_n of x in {1, k_i},
surv = exp(k0 - sum_i lam_i k_i). A batch of states then costs one exp of
the (states x nodes) exponent and one product with the
(nodes x (1 + n_factors)) moment matrix, plus the end values D and k(T).
Consecutive anchors of one rule shape (``_rule_shape``: stride and last
node) read the same C columns and weights, so they take these steps
together, as stacked products that make one product per anchor; k0 and
the discount stay per anchor.
None of these pieces depends on phi (``_g_pieces_at``), so one set of them
gives G and its gradient at every phi. ``g_and_gradient`` computes them at
one anchor, and ``scheme.g_surface`` at every grid node in one call of the
same route, sharing them between arms. The coefficient tables
(``pricing.build_coefficient_table``) hold the same floats on every lattice
node; they serve the tests' node-by-node oracles, not G.

The optimal policy withdraws wealth/G, holds theta_s/sigma_s of wealth in the
stock, and hedges with the rolling longevity bond through the first hazard
factor's loading. Everything model-specific here is read off the model's
``factors`` (B, S, gms): the bond's sigma1 = S[0, 0] and A1 (``pricing``), the
hazards' loading on W1 (S's first column) and the members' curve gms[-1];
the kind enters only through ``mortality._diffusion``, whose scale v(lambda1)
cancels from the bond weight and whose floor bounds the policy's hazards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .mortality import Model, _check_finite, _diffusion
from .numerics import NumericalFailure, _check_seed
from .pricing import (LATTICE_STEP, MarketParams, _end_node,
                      _lattice_nodes, _lattice_span, _tau_table,
                      rolling_bond_volatility)

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
# largest that meets both tolerances (at stride 10 the worst cases measure
# 4.6e-9 on ou-single and 2.2e-7 on cir-sub, both at t = 17.3 and phi = 0;
# stride 11 gives 9.2e-9 on cir-single there).
# Later anchors have a higher hazard, so a faster-decaying integrand: the
# stride also keeps (r + members' baseline hazard at t) * spacing at most
# GREGORY_RATE_STEP, the largest such product, in steps of 0.01, whose
# strides keep both errors at t = 34, 35, ..., 54 within RATE_STEP_MARGIN of
# their tolerances. 0.06 gives at most 4.17e-9 (cir-single, t = 54) and
# 3.3e-8 (cir-sub, t = 36); 0.07 gives 4.995e-9 on ou-sub at t = 35, inside
# G_REL_TOL by 0.1% only, and 0.08 misses it (1.52e-8). At t = 55 even
# stride 1 gives 5.6e-9 on the single-population kinds, and it misses more
# past t = 60, but up to t = 80 the rule stays ahead of Simpson on every
# node (tests/test_control.py).
G_REL_TOL = 5e-9
GRAD_REL_TOL = 2.5e-7
GREGORY_STRIDE = 10
GREGORY_ORDER = 8
GREGORY_RATE_STEP = 0.06
RATE_STEP_MARGIN = 0.9
# the survival-underflow cut: G's rule ends at its first node where k0 falls
# below it. The survival factor there is below e^-50 = 1.9e-22 of its start,
# and the hazard grows along the span, so the integrand past it falls at
# least about as fast as before: the tail the rule drops is of order e^-50 of
# A and of each moment, a millionth of the half ulp (1.1e-16) at which they
# round. Cuts at -50 and -80 give bit-identical G and gradients on all four
# kinds (t = 0, 0.5, ..., 60, hazards 0.5 to 2 times the baseline).
_CUT_K0 = -50.0
# (states x rule nodes) entries that ``_g_pieces_at`` takes through one
# stacked product and exp, over consecutive anchors of one rule shape: timed
# on ``scheme.g_surface`` at the shipped config and 100 paths (about 150
# nodes per rule, so 4 anchors at a time), 65 536 to 2**20 run alike, 32 768
# about 13% slower and 16 384, one anchor at a time, 20% slower; the buffer
# takes 512 kB
_BATCH_ENTRIES = 65536
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
        _check_finite(self, ("phi", "y0", "horizon", "dt", "t_max"))
        if self.phi < 0:
            raise ValueError(f"phi must be >= 0, got {self.phi}")
        if self.y0 <= 0:
            raise ValueError(f"y0 must be > 0, got {self.y0}")
        if self.horizon <= 0 or self.dt <= 0:
            raise ValueError("horizon and dt must be > 0")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        _check_seed(self.seed)
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


def _max_stride(gm, r: float, t: float) -> int:
    """GREGORY_STRIDE, or fewer lattice steps where the integrand's initial
    decay rate r + (baseline hazard at t of the members' curve gm) makes
    rate * spacing exceed GREGORY_RATE_STEP."""
    # capped below math.exp's overflow; any rate that large gives stride 1
    growth = math.exp(min((t - gm.m) / gm.delta, 700.0))
    spacing = (r + (gm.nu + growth / gm.delta)) * LATTICE_STEP
    # a rate of zero (r = nu = 0 with the Gompertz term underflowed) or one
    # this small needs no smaller stride, and must not reach the division
    if 0.0 <= spacing * GREGORY_STRIDE <= GREGORY_RATE_STEP:
        return GREGORY_STRIDE
    return max(1, min(GREGORY_STRIDE, int(GREGORY_RATE_STEP / spacing)))


def _anchor(t) -> float:
    """The time G is evaluated at: t rounded to 9 decimals, so that grid
    nodes such as 0.1 * k sit on the coefficient lattice. Every check
    against t_max tests this value."""
    return round(float(t), 9)


def _stride_nodes(tt, t_max: float, spans, stride: int, n_cols: int):
    """(k0, tau) at the lattice nodes min(j * stride, n), j < n_cols, of the
    anchors ``spans`` = [(t, n, partial), ...], one row per anchor, as
    ``pricing.build_coefficient_table`` gives them. Columns stop one past the
    last stride node of the pass ``tt``: that column reads the pass's last
    node, or a row's node n before it, and later ones could read no other
    node (``_rule_nodes``)."""
    t = np.array([[t] for t, _, _ in spans])
    n = np.array([[n] for _, n, _ in spans])
    n_cols = min(n_cols, tt.n // stride + 2)
    idx = np.minimum(stride * np.arange(n_cols), np.minimum(n, tt.n))
    end = np.array([[-1 if partial else n] for _, n, partial in spans])
    s, k0 = _lattice_nodes(tt, t, t_max, end, idx)
    s -= t
    return k0, s


def _first_dead(k0: np.ndarray, n: np.ndarray, stride: int) -> np.ndarray:
    """Per row of ``_stride_nodes``' k0, the first column j with
    j * stride <= n where k0 < _CUT_K0 (the survival factor is below e^-50
    of its start there), or -1. The columns past n // stride repeat node n,
    so the first dead column lies past them only when none up to them is."""
    dead = k0 < _CUT_K0
    first = dead.argmax(axis=1)
    return np.where(dead[np.arange(first.size), first] & (first * stride <= n),
                    first, -1)


def _cut_guess(gm, t0: float, fall: float, stride: int) -> float:
    """A guess of G's rule cut, in lattice nodes from t0, on the stride: one
    stride past the node where the members' Gompertz hazard (gm, without its
    Makeham term), integrated from t0, reaches ``fall``, which it does
    delta log(1 + fall e^{(m - t0)/delta}) years on (inf past overflow)."""
    v = (math.log(fall) if fall > 0 else -math.inf) + (gm.m - t0) / gm.delta
    # log(1 + e^v), without overflow
    log1pexp = v + math.log1p(math.exp(-v)) if v > 0 \
        else math.log1p(math.exp(v))
    nodes = gm.delta * log1pexp / (stride * LATTICE_STEP)
    return stride * (math.ceil(nodes) + 1) if nodes < 1e9 else math.inf


def _rule_nodes(tt, t_max: float, spans, stride: int, n_cols: int, gm):
    """``_stride_nodes`` and each row's cut (``_first_dead``), growing the
    pass ``tt`` only until every row's rule is closed: at its cut, or at the
    last node its columns read, min(n, (n_cols - 1) * stride). A row's
    columns past its cut may read another node; the rule reads none of them.

    The pass is read as it stands, and each growth aims at the farthest
    open row's guessed cut (``_cut_guess``) for the rest of the fall from
    the last stride node read; on a pass of one node, as ``_tau_table``
    starts it, that is node 0, where k0 = 0. The guesses set how many
    growths it takes, never a value: growth resumes the pass exactly
    (``pricing._TauTable``). A CIR pass that blows up keeps its finite
    nodes, and raises NumericalFailure only when an open row needs a node
    past them.
    """
    last = np.minimum([n for _, n, _ in spans], (n_cols - 1) * stride)
    goal = 0
    while True:
        if goal > tt.n:
            before = tt.n
            try:
                tt.grow(int(goal))
            except NumericalFailure:
                if tt.n == before:
                    raise
        k0, tau = _stride_nodes(tt, t_max, spans, stride, n_cols)
        top = tt.n
        cut = _first_dead(k0, np.minimum(last, top), stride)
        rows = np.flatnonzero((cut < 0) & (last > top))
        if not rows.size:
            return k0, tau, cut
        j = top // stride
        goal = min(last[rows].max(), j * stride + max(
            _cut_guess(gm, spans[i][0] + tau[i, j], k0[i, j] - _CUT_K0,
                       stride) for i in rows))


def _short_span(tt, t_max: float, r: float, span, stride: int, gm):
    """The stride of a span with fewer than GREGORY_ORDER nodes on its
    largest stride before its cut or end: the largest, at most ``stride``,
    that gives GREGORY_ORDER - 1 strides up to the first lattice node with
    k0 < _CUT_K0, or to n. Returns (stride, cut, k0, tau, disc) on the new
    stride, the rows one row long as ``_rule_nodes`` gives them, or None
    when the stride stays."""
    n = span[1]
    _, _, dead = _rule_nodes(tt, t_max, [span], 1,
                             min(n, GREGORY_ORDER * stride) + 1, gm)
    last = int(dead[0]) if dead[0] >= 0 else n
    short = max(1, min(stride, last // (GREGORY_ORDER - 1)))
    if short == stride:
        return None
    k0, tau, cut = _rule_nodes(tt, t_max, [span], short, -(-n // short) + 1,
                               gm)
    return short, int(cut[0]), k0, tau, np.exp(-r * tau)


def _rule_shape(span, stride: int, cut: int):
    """(m, panel, short) of G's outer rule at one anchor: its nodes are
    0..m on the stride, up to the cut or to n; ``panel`` adds an end panel
    at t_max when n is not on the stride or the span ends in a partial step;
    ``short`` marks a span with too few nodes for a stride above 1
    (``_short_span``). Anchors of one stride and m, with neither, read the
    same C columns and weights; their k0 and discount differ."""
    _, n, partial = span
    if cut >= 0:
        return cut, False, 1 < stride and cut < GREGORY_ORDER
    m = n // stride
    return m, bool(partial or n % stride), 1 < stride and m < GREGORY_ORDER - 1


def _rule(model: Model, tt, t_max: float, r: float, span, stride: int,
          cut: int, k0: np.ndarray, tau: np.ndarray, disc: np.ndarray):
    """G's outer rule (``_rule_shape``) at a run of anchors of one shape,
    ``span`` the first's, from their k0, tau and discount rows on the stride
    nodes. An end panel, which only a run of one anchor has, ends delta
    strides past node m at t_max, whose node ``pricing._end_node`` reads.

    Returns (c, k0, disc, w) on the rule's nodes: ``c`` holds C, one row per
    factor, k0 and disc one row per anchor, ``w`` the weights.
    """
    t = span[0]
    m, panel, _ = _rule_shape(span, stride, cut)
    c = tt.c.take(stride * np.arange(m + 1), axis=1)
    k0, disc, delta = k0[:, :m + 1], disc[:, :m + 1], 0.0
    if panel:
        c_end, k0_end = _end_node(model, tt, t, t_max)
        c = np.column_stack((c, c_end))
        k0 = np.append(k0, [[k0_end]], axis=1)
        disc = np.append(disc, np.exp([[-r * (t_max - t)]]), axis=1)
        delta = (t_max - t - tau[0, m]) / (stride * LATTICE_STEP)
    return c, k0, disc, _gregory_weights(m, delta) * (stride * LATTICE_STEP)


def _moments(states: np.ndarray, c: np.ndarray, k0: np.ndarray,
             disc: np.ndarray, w: np.ndarray, buf: np.ndarray,
             mom: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The pieces at a run of anchors of one rule shape: ``states`` is
    (anchors, n_states, n_factors), ``c`` C on the rule's nodes (``_rule``),
    k0 and disc (anchors, nodes), w the weights. Writes A, M[k_1], ... into
    ``mom`` (anchors, n_states, 1 + n_factors) and D into ``d``; returns
    the scratch buffer ``buf``, replaced when the run needs a larger one.

    Each float is the one the anchor alone gives: a stacked product makes
    one product per anchor, and the rest is elementwise. On one factor a
    broadcast product forms the single product per entry of a matmul.
    """
    runs, n_states, n_fac = states.shape
    size = runs * n_states * w.size
    if buf.size < size:
        buf = np.empty(size)
    surv = buf[:size].reshape(runs, n_states, w.size)
    if n_fac == 1:
        np.multiply(states, c, out=surv)
    else:
        np.matmul(states, c, out=surv)
    np.subtract(k0[:, None], surv, out=surv)
    np.exp(surv, out=surv)
    # [1, C] scaled by the weights and the discount, per anchor
    wk = np.empty((runs, 1 + n_fac, w.size))
    np.multiply(w, disc, out=wk[:, 0])
    np.multiply(c, wk[:, :1], out=wk[:, 1:])
    np.matmul(surv, wk.transpose(0, 2, 1), out=mom)
    np.multiply(disc[:, -1:], surv[:, :, -1], out=d)
    return buf


# an overflowing survival expectation leaves A non-finite, which raises below
@np.errstate(over="ignore", invalid="ignore")
def _g_pieces_at(model: Model, scenario: SchemeScenario, market: MarketParams,
                 times, states: np.ndarray):
    """The phi-free pieces of G and its gradient at many anchors:
    ``states[i]`` is the (n_states, n_factors) batch at ``times[i]``.
    Returns them node-major, as ``_moments`` writes them: A and the moments
    M[k_f] side by side as (n_anchors, n_states, 1 + n_factors), D as
    (n_anchors, n_states) and k(T) as (n_anchors, n_factors).

    A = M[1] and M[k_i] are the outer rule's moments and D = e^{-r(T-t)}
    S(t,T) (see the module docstring). They depend on the scenario's t_max
    but not on its phi, so one set serves every phi (``_compose_g``). An
    anchor at or past t_max has an empty span: T = t, so D = 1 and the rest
    is zero.

    Anchors that share a largest stride (``_max_stride``) read k0 on their
    stride nodes off the cached tau pass in one ``_rule_nodes`` call, which
    settles each one's rule shape (``_rule_shape``). A short span takes a
    smaller stride (``_short_span``). Every anchor goes through ``_moments``
    in a run: consecutive anchors of one shape, which read C and the weights
    once, at most _BATCH_ENTRIES (states x nodes) entries at a time; an end
    panel or a short span is a run of one. Every value is the float the
    anchor's coefficient table would give, and the float the anchor alone
    gives.
    Raises NumericalFailure at the first anchor whose survival expectation
    overflows on the rule's nodes.
    """
    n_anchors, n_states, n_fac = states.shape
    t_max, r, gm = scenario.t_max, market.r, model.factors[2][-1]
    groups, empty = {}, []
    for i, t in enumerate(times):
        t = _anchor(t)
        if t >= t_max:
            empty.append(i)
            continue
        n, partial = _lattice_span(t, t_max)
        groups.setdefault(_max_stride(gm, r, t),
                          []).append((i, (t, n, partial)))
    mom = np.zeros((n_anchors, n_states, 1 + n_fac))
    d = np.zeros((n_anchors, n_states))
    k_end = np.zeros((n_anchors, n_fac))
    d[empty] = 1.0      # T = t: D = 1 and the rest is zero
    tt = _tau_table(model, LATTICE_STEP) if groups else None
    buf = np.empty(0)
    for stride, members in groups.items():
        spans = [span for _, span in members]
        n_cols = max(-(-n // stride) for _, n, _ in spans) + 1
        k0, tau, first = _rule_nodes(tt, t_max, spans, stride, n_cols, gm)
        disc = np.exp(-r * tau)
        shapes = [_rule_shape(span, stride, int(cut))
                  for span, cut in zip(spans, first)]
        row = 0
        while row < len(members):
            i, span = members[row]
            m, panel, short = shapes[row]
            end = row + 1
            if not (panel or short):
                # the anchors after it that read the same C and weights
                most = _BATCH_ENTRIES // max(1, n_states * (m + 1))
                while (end < len(members) and end - row < most
                       and members[end][0] == i + end - row
                       and shapes[end] == shapes[row]):
                    end += 1
            nodes = (stride, int(first[row]), k0[row:end], tau[row:end],
                     disc[row:end])
            if short:
                nodes = _short_span(tt, t_max, r, span, stride, gm) or nodes
            c, k0_i, disc_i, w = _rule(model, tt, t_max, r, span, *nodes)
            run = slice(i, i + end - row)
            buf = _moments(states[run], c, k0_i, disc_i, w, buf, mom[run],
                           d[run])
            k_end[run] = c[:, -1]
            row = end
    # A weighs the survival at every rule node, so it is not finite where
    # any of them overflows
    finite = np.isfinite(mom[:, :, 0]).all(axis=1)
    if not finite.all():
        at = float(times[int(np.argmin(finite))])
        raise NumericalFailure(f"G is not finite at t = {at}: its survival "
                               f"expectation overflows", at_time=at)
    return mom, d, k_end


def _compose_g(phi: float, r: float, a, d, m, k_end):
    """G = (1 - phi r) A + phi (1 - D) and dG/dlam = phi D k(T) - (1 - phi r) M
    from the pieces of ``_g_pieces_at``, for any shapes that broadcast."""
    lead = 1.0 - phi * r
    return lead * a + phi * (1.0 - d), phi * d * k_end - lead * m


def g_and_gradient(model: Model, scenario: SchemeScenario, market: MarketParams,
                   t: float, lam: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """G and its hazard gradient for a batch of states at one time.

    ``lam`` has shape (n, n_factors); returns (G (n,), gradient (n, n_factors)).
    The phi-free pieces come from ``_g_pieces_at`` at the one anchor t, the
    route ``scheme.g_surface`` takes for the whole grid. At t >= t_max the
    span is empty: T = t, so D = 1 and G and the gradient are zero.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    if lam.shape[1] != model.n_factors:
        raise ValueError(f"expected {model.n_factors} hazard component(s), "
                         f"got {lam.shape[1]}")
    mom, d, k_end = _g_pieces_at(model, scenario, market, (t,), lam[None])
    g, grad = _compose_g(scenario.phi, market.r, mom[0, :, :1], d.T,
                         mom[0, :, 1:], k_end[0])
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


def bond_weight_arrays(model: Model, market: MarketParams, g: np.ndarray,
                       grad1: np.ndarray) -> np.ndarray:
    """Bond weight for batches of (G, dG/dlambda1).

    Both the market price of longevity risk and the hedge term carry the same
    diffusion scale v(lambda1) as the bond volatility (sqrt(lambda1) under
    CIR, 1 under OU), so v(lambda1) cancels and one expression serves both
    kinds:

        w_L = (theta_1 + loading * G_l1 / G) / sigma_L(lambda1 = 1),

    with sigma_L(1) = -A1(T) sigma1 the bond's loading per unit v(lambda1)
    (``rolling_bond_volatility``), sigma1 = S[0, 0], and the
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
    (where G > 0), finite hazards, none below the model's floor
    (``mortality._diffusion``: non-negative under CIR), and finite positive
    wealth."""
    if not (math.isfinite(t) and t < scenario.t_max):
        raise ValueError(f"t must be finite and below t_max = {scenario.t_max},"
                         f" got {t}")
    if _anchor(t) >= scenario.t_max:
        raise ValueError(f"t = {t!r} rounds to {_anchor(t)!r} at 9 decimals, "
                         f"where G is evaluated; it must be below t_max = "
                         f"{scenario.t_max}")
    if not np.isfinite(lam).all():
        raise ValueError(f"hazards must be finite, got {lam}")
    _diffusion(model, lam)     # rejects hazards below the model's floor
    if not 0 < wealth < math.inf:
        raise ValueError(f"wealth must be finite and > 0, got {wealth}")


def optimal_policy(model: Model, scenario: SchemeScenario, market: MarketParams,
                   t: float, lam, wealth: float) -> PolicyDecision:
    """Optimal withdrawal rate and portfolio weights at one state."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    _check_policy_inputs(model, scenario, t, lam, wealth)
    g, grad = g_and_gradient(model, scenario, market, t, lam[None, :])
    w_bond = float(bond_weight_arrays(model, market, g, grad[:, 0])[0])
    w_stock = market.theta_s / market.sigma_s
    g = float(g[0])
    return PolicyDecision(withdraw_rate=wealth / g,
                          stock_weight=w_stock,
                          bond_weight=w_bond,
                          cash_weight=1.0 - (w_stock + w_bond),
                          g=g)
