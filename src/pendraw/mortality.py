"""Force-of-mortality models and path simulation.

The hazard of each population mean-reverts around a Gompertz-Makeham curve

    lambda_bar(t) = nu + (1/delta) * exp((t - m) / delta),

which solves d(lambda)/dt = a(t) - b*lambda exactly for the drift level

    a(t) = b * (nu + (1/delta) * (1 + 1/(b*delta)) * exp((t - m) / delta)).

Time is measured in years since retirement. Modal life-span parameters quoted
as calendar ages (Table-style inputs) must be shifted by the retirement age
before building a model; the configuration loader does this.

Dynamics (single population, two-population analogous):

    OU :  d lambda = (a(t) - b*lambda) dt + sigma dW
    CIR:  d lambda = (a(t) - b*lambda) dt + sigma*sqrt(lambda) dW

In the two-population case the members (population 2) are a sub-population of
the bond's reference population (population 1):

    d lambda1 = (a1(t) - b1*lambda1) dt + sigma1 [sqrt(lambda1)] dW1
    d lambda2 = (a2(t) - b21*lambda1 - b22*lambda2) dt
                + sigma21 [sqrt(lambda1)] dW1 + sigma22 [sqrt(lambda2)] dW2

Both are one affine model of dimension 1 or 2 in the hazard vector lam, the
bond's reference population first and the members last:

    d lam = (a(t) - B lam) dt + S diag(v) dW,  v_k = 1 (OU), sqrt(lam_k) (CIR),

with B and S lower-triangular and factor k's drift level
drift_a(t, gms[k], B[k, k]). Each model states (B, S, gms) once, as its
``factors``; simulation, pricing and control read that instead of the class.
The diffusion scale v and CIR's hazard floor 0 are the only difference
between the kinds' dynamics (Duffie & Kan, Math. Finance 6(4), 1996),
stated once in ``_diffusion``, which the Euler step, the bond loading, the
wealth drift and the policy's input check all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .numerics import TimeGrid, W2_STREAM_OFFSET, normal_block

OU = "ou"
CIR = "cir"
_KINDS = (OU, CIR)


class ConfigError(ValueError):
    """Invalid model or scenario configuration."""


def _check_finite(params, names) -> None:
    """Reject NaN and inf in the float fields ``names``: either would pass
    the ordered checks after this one and give all-NaN paths."""
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class GompertzMakehamParams:
    """Baseline hazard curve: ``nu`` (1/year), ``delta`` (years), ``m`` (years)."""

    nu: float
    delta: float
    m: float

    def __post_init__(self):
        _check_finite(self, ("nu", "delta", "m"))
        if self.delta <= 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if self.m <= 0:
            raise ConfigError(f"m must be > 0, got {self.m}")
        if self.nu < 0:
            raise ConfigError(f"nu must be >= 0, got {self.nu}")


def initial_hazard(gm: GompertzMakehamParams) -> float:
    """Hazard at t = 0: nu + (1/delta) * exp(-m/delta)."""
    return gm.nu + np.exp(-gm.m / gm.delta) / gm.delta


def baseline_hazard(t, gm: GompertzMakehamParams):
    """Gompertz-Makeham curve nu + (1/delta)*exp((t-m)/delta); the noiseless path."""
    return gm.nu + np.exp((np.asarray(t, dtype=float) - gm.m) / gm.delta) / gm.delta


def drift_a(t, gm: GompertzMakehamParams, b: float):
    """Drift level a(t) that makes the Gompertz-Makeham curve the attractor."""
    if b <= 0:
        raise ConfigError(f"mean-reversion speed must be > 0, got {b}")
    t = np.asarray(t, dtype=float)
    return b * (gm.nu + (1.0 / gm.delta) * (1.0 + 1.0 / (b * gm.delta))
                * np.exp((t - gm.m) / gm.delta))


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ConfigError(f"kind must be one of {_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class SinglePopModel:
    """One population; the longevity bond references the members themselves."""

    kind: str
    gm: GompertzMakehamParams
    b: float
    sigma: float

    def __post_init__(self):
        _check_kind(self.kind)
        _check_finite(self, ("b", "sigma"))
        if self.b <= 0:
            raise ConfigError(f"b must be > 0, got {self.b}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def n_factors(self) -> int:
        return 1

    @property
    def factors(self):
        """(B, S, gms) of the one-factor model (see the module docstring)."""
        return np.array([[self.b]]), np.array([[self.sigma]]), (self.gm,)


@dataclass(frozen=True)
class TwoPopModel:
    """Members (population 2) are a sub-population of the bond's population 1."""

    kind: str
    gm1: GompertzMakehamParams
    gm2: GompertzMakehamParams
    b1: float
    b21: float
    b22: float
    sigma1: float
    sigma21: float
    sigma22: float

    def __post_init__(self):
        _check_kind(self.kind)
        _check_finite(self, ("b1", "b21", "b22", "sigma1", "sigma21",
                             "sigma22"))
        if self.b1 <= 0:
            raise ConfigError(f"b1 must be > 0, got {self.b1}")
        if self.b22 <= 0:
            raise ConfigError(f"b22 must be > 0, got {self.b22}")
        for name in ("sigma1", "sigma21", "sigma22"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    @property
    def n_factors(self) -> int:
        return 2

    @property
    def factors(self):
        """(B, S, gms) with population 1 first, the members last."""
        return (np.array([[self.b1, 0.0], [self.b21, self.b22]]),
                np.array([[self.sigma1, 0.0], [self.sigma21, self.sigma22]]),
                (self.gm1, self.gm2))


Model = Union[SinglePopModel, TwoPopModel]


def _diffusion(model: Model, lam, out=None):
    """(v(lam), floor): the diffusion scale at the hazards ``lam`` and the
    hazard floor of the model's kind.

    OU: v = 1 and no floor (-inf). v is the number 1.0, or ``out`` as it is
    when given (a buffer of ones); ``lam`` is not read. CIR: v = sqrt(lam),
    into ``out`` when given, and the floor is 0, the full-truncation Euler
    step emitting max(x, 0) (Lord, Koekkoek & van Dijk, Quant. Finance
    10(2), 2010); hazards below it, or NaN, raise ConfigError. Only the
    Euler step passes ``out``, with hazards it has floored itself, so those
    are not checked: the check would cost a tenth of a 100-path CIR step.
    """
    if model.kind == OU:
        return (1.0 if out is None else out), -math.inf
    if out is None and not (np.asarray(lam, dtype=float) >= 0.0).all():
        raise ConfigError(f"CIR hazards must be >= 0, got {lam}")
    return np.sqrt(lam, out=out), 0.0


# Euler steps per time-major chunk of ``simulate_paths``. Widths 16 to 64
# timed alike at 20 000 cir-sub paths; at 32 the chunk buffers hold about 0.4
# of one (n_paths, n_nodes) array.
_CHUNK = 32


@dataclass
class MortalityPaths:
    """Simulated hazard paths with the members' survival index and raw shocks.

    ``hazards`` holds one (n_paths, n_nodes) array per factor, in the order
    of the model's ``factors``: the bond's reference population first, the
    members last. ``survival`` integrates the members' hazard by the
    trapezoidal rule, so it agrees with the exponential-affine pricing
    formulas path by path. Under an OU model the hazard can make small
    negative excursions, and the index then rises slightly; CIR paths are
    nonnegative and the index is monotone. ``shocks`` holds one
    (n_paths, n_steps) array of standard-normal increments per factor
    (dW = sqrt(dt) * shock) for common-random-number reuse, and is empty
    when they are not kept.
    """

    grid: TimeGrid
    hazards: Tuple[np.ndarray, ...]   # per factor, (n_paths, n_nodes)
    survival: np.ndarray              # (n_paths, n_nodes), members' population
    shocks: Tuple[np.ndarray, ...]    # per factor, (n_paths, n_steps), or ()
    seed: int
    path_offset: int

    @property
    def n_paths(self) -> int:
        return self.hazards[0].shape[0]

    @property
    def members_hazard(self) -> np.ndarray:
        return self.hazards[-1]

    # Read-only aliases by the former slot names: a factor's entry, or None
    # past the factor count or with no shocks kept. perfbench/ is their only
    # reader.
    lambda1 = property(lambda self: _entry(self.hazards, 0))
    lambda2 = property(lambda self: _entry(self.hazards, 1))
    shocks1 = property(lambda self: _entry(self.shocks, 0))
    shocks2 = property(lambda self: _entry(self.shocks, 1))


def _entry(arrays: Tuple[np.ndarray, ...], i: int) -> Optional[np.ndarray]:
    return arrays[i] if i < len(arrays) else None


def simulate_paths(model: Model, grid: TimeGrid, n_paths: int, seed: int,
                   path_offset: int = 0, keep_shocks: bool = True) -> MortalityPaths:
    """Euler-Maruyama hazard paths on ``grid`` with keyed noise streams.

    Every factor starts at its baseline hazard at ``grid.t0``. One step of
    factor f, with xp = max(x, floor) the emitted hazards and
    dw_i = sqrt(dt) xi_i:

        x_f += (drift_a(t, gms[f], B[f, f]) - sum_{i<=f} B[f, i] xp_i) dt
               + sum_{i<=f} S[f, i] v(xp_i) dw_i,

    the sums taken in the order i = 0..f, with v and the floor from
    ``_diffusion``. Under OU there is no floor, so xp is the state. Under CIR
    this is the full-truncation scheme: the negative part of the state is
    clamped to zero inside every drift and diffusion evaluation, and the
    emitted hazard is the clamped state. Stream
    ``f * W2_STREAM_OFFSET + path_offset + p`` drives factor f of path
    ``p``, so blocks of paths can be simulated independently.

    The loop runs on chunks of ``_CHUNK`` steps held time-major, one
    contiguous row of all paths per node, and copies each chunk into the
    path-major outputs once. The survival index is exp(-cumsum) of the
    members' trapezoid increments, summed on in the chunk node by node in
    ``cumsum``'s order. No array of the paths' size is built besides the noise
    blocks and the outputs.
    """
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    n = grid.n_steps
    dt = grid.step
    sqdt = np.sqrt(dt)
    big_b, big_s, gms = model.factors
    big_b, big_s = big_b.tolist(), big_s.tolist()
    n_f = len(gms)
    levels = [drift_a(grid.nodes[:-1], gm, big_b[f][f])
              for f, gm in enumerate(gms)]

    xi = [normal_block(seed, f * W2_STREAM_OFFSET + path_offset, n_paths, n)
          for f in range(n_f)]
    lam = [np.empty((n_paths, n + 1)) for _ in gms]
    survival = np.empty((n_paths, n + 1))
    survival[:, 0] = 1.0
    width = min(_CHUNK, n)
    dw = np.empty((n_f, width, n_paths))
    # emitted hazards of a chunk's nodes, row 0 holding its first node
    hz = np.empty((n_f, width + 1, n_paths))
    x = np.empty((n_f, n_paths))            # the states, before any floor
    x[:] = [[baseline_hazard(grid.t0, gm)] for gm in gms]
    hz[:, 0] = x                            # >= 0, so above any floor
    for f in range(n_f):
        lam[f][:, 0] = x[f]
    scale = np.ones((n_f, n_paths))         # v(xp), all ones under OU
    drift = np.empty(n_paths)
    term = np.empty(n_paths)
    integral = np.zeros(n_paths)            # members' hazard to node k0

    # each factor's rows, bound once: at a hundred paths a step's indexing
    # costs about as much as its arithmetic
    rows = list(zip(big_b, big_s, x, levels))
    v = list(scale)
    for k0 in range(0, n, width):
        w = min(width, n - k0)
        for f in range(n_f):
            np.multiply(sqdt, xi[f][:, k0:k0 + w].T, out=dw[f, :w])
        for j in range(w):
            xp, dwj = hz[:, j], dw[:, j]
            _, floor = _diffusion(model, xp, out=scale)
            for f, (b_row, s_row, x_f, level) in enumerate(rows):
                np.multiply(b_row[0], xp[0], out=drift)
                np.subtract(level[k0 + j], drift, out=drift)
                for i in range(1, f + 1):
                    np.multiply(b_row[i], xp[i], out=term)
                    np.subtract(drift, term, out=drift)
                drift *= dt
                x_f += drift
                for i in range(f + 1):
                    np.multiply(s_row[i], v[i], out=term)
                    term *= dwj[i]
                    x_f += term
            np.maximum(x, floor, out=hz[:, j + 1])
        for f in range(n_f):
            lam[f][:, k0 + 1:k0 + w + 1] = hz[f, 1:w + 1].T

        # survival: trapezoid increments, in noise rows this chunk is done
        # with, summed on from the last node in cumsum's order
        members = hz[-1]
        s = dw[0, :w]
        np.add(members[:w], members[1:w + 1], out=s)
        s *= 0.5 * dt
        s[0] += integral
        np.cumsum(s, axis=0, out=s)
        integral[:] = s[-1]
        np.negative(s, out=s)
        np.exp(s, out=s)
        survival[:, k0 + 1:k0 + w + 1] = s.T
        hz[:, 0] = hz[:, w]

    return MortalityPaths(grid=grid, hazards=tuple(lam), survival=survival,
                          shocks=tuple(xi) if keep_shocks else (), seed=seed,
                          path_offset=path_offset)


@dataclass
class DeathTimeDistribution:
    """Per-path and averaged distribution of the death time on the grid."""

    times: np.ndarray
    cdf: np.ndarray           # (n_paths, n_nodes)
    density: np.ndarray       # (n_paths, n_nodes)
    mean_cdf: np.ndarray
    mean_density: np.ndarray


def death_time_distribution(paths: MortalityPaths) -> DeathTimeDistribution:
    """Death-time CDF and density along each path.

    The CDF is 1 minus the survival index rebuilt from the hazard floored at
    zero, which guarantees a valid (non-decreasing) CDF even when OU paths dip
    negative. Without a negative hazard the floor changes nothing, so the
    stored index is that survival exactly and is used as it is (always so for
    CIR paths). The density uses centered differences inside the grid and
    one-sided differences at the ends. Both are computed in their own arrays,
    with no other temporary of the paths' size.
    """
    dt = paths.grid.step
    members = paths.members_hazard
    cdf = np.empty_like(members)
    density = np.empty_like(members)
    p = paths.survival
    if members.min() < 0.0:
        # the survival is rebuilt in the cdf array, from the floored hazard
        # held in the density array until its own turn
        hz = np.maximum(members, 0.0, out=density)
        p = cdf
        p[:, 0] = 1.0
        s = p[:, 1:]
        np.add(hz[:, :-1], hz[:, 1:], out=s)
        s *= 0.5 * dt
        np.cumsum(s, axis=1, out=s)
        np.negative(s, out=s)
        np.exp(s, out=s)
    np.subtract(1.0, p, out=cdf)

    np.subtract(cdf[:, 2:], cdf[:, :-2], out=density[:, 1:-1])
    density[:, 1:-1] /= 2.0 * dt
    density[:, 0] = (cdf[:, 1] - cdf[:, 0]) / dt
    density[:, -1] = (cdf[:, -1] - cdf[:, -2]) / dt

    return DeathTimeDistribution(times=paths.grid.nodes, cdf=cdf, density=density,
                                 mean_cdf=cdf.mean(axis=0),
                                 mean_density=density.mean(axis=0))
