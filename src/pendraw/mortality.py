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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .numerics import TimeGrid, W2_STREAM_OFFSET, normal_block

OU = "ou"
CIR = "cir"
_KINDS = (OU, CIR)


class ConfigError(ValueError):
    """Invalid model or scenario configuration."""


@dataclass(frozen=True)
class GompertzMakehamParams:
    """Baseline hazard curve: ``nu`` (1/year), ``delta`` (years), ``m`` (years)."""

    nu: float
    delta: float
    m: float

    def __post_init__(self):
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
        if self.b <= 0:
            raise ConfigError(f"b must be > 0, got {self.b}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def n_factors(self) -> int:
        return 1


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
        if self.b1 <= 0:
            raise ConfigError(f"b1 must be > 0, got {self.b1}")
        if self.b22 <= 0:
            raise ConfigError(f"b22 must be > 0, got {self.b22}")
        if self.b1 == self.b22:
            raise ConfigError(
                "b1 == b22 makes the cross-coefficient formula singular; "
                "perturb one of the mean-reversion speeds")
        for name in ("sigma1", "sigma21", "sigma22"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    @property
    def n_factors(self) -> int:
        return 2


Model = Union[SinglePopModel, TwoPopModel]


@dataclass
class MortalityPaths:
    """Simulated hazard paths with the members' survival index and raw shocks.

    ``survival`` integrates the simulated members' hazard by the trapezoidal
    rule, so it agrees with the exponential-affine pricing formulas path by
    path. Under an OU model the hazard can make small negative excursions,
    and the index then rises slightly; CIR paths are nonnegative and the index
    is monotone. ``shocks1``/``shocks2`` hold the standard-normal increments
    (dW = sqrt(dt) * shock) for common-random-number reuse.
    """

    grid: TimeGrid
    lambda1: np.ndarray               # (n_paths, n_nodes)
    lambda2: Optional[np.ndarray]     # (n_paths, n_nodes) or None
    survival: np.ndarray              # (n_paths, n_nodes), members' population
    shocks1: Optional[np.ndarray]     # (n_paths, n_steps) or None
    shocks2: Optional[np.ndarray]
    seed: int
    path_offset: int

    @property
    def n_paths(self) -> int:
        return self.lambda1.shape[0]

    @property
    def members_hazard(self) -> np.ndarray:
        return self.lambda2 if self.lambda2 is not None else self.lambda1


def simulate_paths(model: Model, grid: TimeGrid, n_paths: int, seed: int,
                   path_offset: int = 0, keep_shocks: bool = True) -> MortalityPaths:
    """Euler-Maruyama hazard paths on ``grid`` with keyed noise streams.

    CIR dynamics use the full-truncation scheme: the negative part of the
    state is clamped to zero inside every drift and diffusion evaluation, and
    the emitted hazard is the clamped state. Stream ``path_offset + i`` drives
    factor 1 of path ``i``; factor 2 uses the same index shifted by
    ``W2_STREAM_OFFSET``, so blocks of paths can be simulated independently.
    """
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    n = grid.n_steps
    dt = grid.step
    sqdt = np.sqrt(dt)
    times = grid.nodes
    is_cir = model.kind == CIR

    xi1 = normal_block(seed, path_offset, n_paths, n)
    if isinstance(model, TwoPopModel):
        xi2 = normal_block(seed, W2_STREAM_OFFSET + path_offset, n_paths, n)
    else:
        xi2 = None

    def clamp(x):
        return np.maximum(x, 0.0) if is_cir else x

    def vol(sig, x):
        return sig * np.sqrt(np.maximum(x, 0.0)) if is_cir else sig

    if isinstance(model, SinglePopModel):
        lam1 = np.empty((n_paths, n + 1))
        x = np.full(n_paths, initial_hazard(model.gm))
        lam1[:, 0] = clamp(x)
        for k in range(n):
            xp = clamp(x)
            x = x + (drift_a(times[k], model.gm, model.b) - model.b * xp) * dt \
                + vol(model.sigma, x) * sqdt * xi1[:, k]
            lam1[:, k + 1] = clamp(x)
        lam2 = None
        members = lam1
    else:
        lam1 = np.empty((n_paths, n + 1))
        lam2 = np.empty((n_paths, n + 1))
        x1 = np.full(n_paths, initial_hazard(model.gm1))
        x2 = np.full(n_paths, initial_hazard(model.gm2))
        lam1[:, 0] = clamp(x1)
        lam2[:, 0] = clamp(x2)
        for k in range(n):
            x1p, x2p = clamp(x1), clamp(x2)
            dw1 = sqdt * xi1[:, k]
            dw2 = sqdt * xi2[:, k]
            x1 = x1 + (drift_a(times[k], model.gm1, model.b1) - model.b1 * x1p) * dt \
                + vol(model.sigma1, x1p) * dw1
            x2 = x2 + (drift_a(times[k], model.gm2, model.b22)
                       - model.b21 * x1p - model.b22 * x2p) * dt \
                + vol(model.sigma21, x1p) * dw1 + vol(model.sigma22, x2p) * dw2
            lam1[:, k + 1] = clamp(x1)
            lam2[:, k + 1] = clamp(x2)
        members = lam2

    # survival index of the members' population, trapezoid on the grid
    survival = np.empty((n_paths, n + 1))
    survival[:, 0] = 1.0
    increments = 0.5 * dt * (members[:, :-1] + members[:, 1:])
    survival[:, 1:] = np.exp(-np.cumsum(increments, axis=1))

    return MortalityPaths(grid=grid, lambda1=lam1, lambda2=lam2,
                          survival=survival,
                          shocks1=xi1 if keep_shocks else None,
                          shocks2=xi2 if keep_shocks else None,
                          seed=seed, path_offset=path_offset)


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
    one-sided differences at the ends.
    """
    dt = paths.grid.step
    p = paths.survival
    if paths.members_hazard.min() < 0.0:
        hz = np.maximum(paths.members_hazard, 0.0)
        increments = 0.5 * dt * (hz[:, :-1] + hz[:, 1:])
        p = np.empty_like(hz)
        p[:, 0] = 1.0
        p[:, 1:] = np.exp(-np.cumsum(increments, axis=1))
    cdf = 1.0 - p

    density = np.empty_like(cdf)
    density[:, 1:-1] = (cdf[:, 2:] - cdf[:, :-2]) / (2.0 * dt)
    density[:, 0] = (cdf[:, 1] - cdf[:, 0]) / dt
    density[:, -1] = (cdf[:, -1] - cdf[:, -2]) / dt

    return DeathTimeDistribution(times=paths.grid.nodes, cdf=cdf, density=density,
                                 mean_cdf=cdf.mean(axis=0),
                                 mean_density=density.mean(axis=0))
