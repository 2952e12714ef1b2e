"""Deterministic numerical kernel: Gauss-Legendre quadrature, RK4 stepping, keyed
Gaussian streams.

All routines are pure functions of their inputs, so they can be called from any
number of workers without coordination. Random streams are counter-based
(Philox) and keyed by ``(seed, stream_index)``; the position within a stream
plays the role of the step index, so draws are reproducible regardless of
scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

_U64 = (1 << 64) - 1

# Stream-index offsets. Mortality factor 1 uses the bare path index; the second
# mortality factor and the stock driver live in disjoint regions of the index
# space so that all streams for one scenario come from a single seed.
W2_STREAM_OFFSET = 1 << 62
WS_STREAM_OFFSET = 1 << 63

# longest panel of ``integrate`` (years, at every caller)
_GL_PANEL = 5.0


class NumericalFailure(RuntimeError):
    """A numerical routine met a non-finite value.

    Carries the time at which the state stopped being finite (ODE stepping).
    """

    def __init__(self, message: str, at_time: float | None = None):
        super().__init__(message)
        self.at_time = at_time


DEFAULT_ODE_STEP = 0.01


@dataclass(frozen=True)
class TimeGrid:
    """Uniform observation grid on [t0, t1] with spacing ``step`` (years)."""

    t0: float
    t1: float
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.t1 < self.t0:
            raise ValueError(f"need t0 <= t1, got [{self.t0}, {self.t1}]")
        n = round((self.t1 - self.t0) / self.step)
        if n < 1 or abs(self.t0 + n * self.step - self.t1) > 1e-9 * max(1.0, abs(self.t1)):
            raise ValueError(
                f"[{self.t0}, {self.t1}] is not an integer number of steps of {self.step}")

    @property
    def n_steps(self) -> int:
        return round((self.t1 - self.t0) / self.step)

    @property
    def nodes(self) -> np.ndarray:
        # linspace keeps both endpoints exact
        return np.linspace(self.t0, self.t1, self.n_steps + 1)


@lru_cache(maxsize=None)
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] and weights of the 12-point Gauss-Legendre rule."""
    from numpy.polynomial.legendre import leggauss   # kept out of `import pendraw`
    return leggauss(12)


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Composite Gauss-Legendre integral of ``f`` over [a, b].

    [a, b] is cut into the fewest equal panels no longer than ``_GL_PANEL``
    (5) and each panel takes the 12-point rule, which is exact for
    polynomials up to degree 23 and converges geometrically on analytic
    integrands. ``f`` is called with one float at a time, at interior nodes
    only; a non-finite value raises ``NumericalFailure``.
    """
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    x, w = _gauss_legendre()
    n = math.ceil((b - a) / _GL_PANEL)
    half = 0.5 * (b - a) / n
    mids = a + half * (2.0 * np.arange(n) + 1.0)
    nodes = (mids[:, None] + half * x).ravel().tolist()
    vals = np.array([f(u) for u in nodes], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure(f"non-finite integrand on [{a}, {b}]")
    return half * float(np.sum(vals.reshape(n, -1) @ w))


def solve_ode(rhs: Callable[[float, np.ndarray], np.ndarray], t_start: float,
              t_end: float, y_start: np.ndarray,
              step: float = DEFAULT_ODE_STEP) -> Tuple[np.ndarray, np.ndarray]:
    """Classical RK4 on a uniform grid from ``t_start`` to ``t_end``.

    ``t_end < t_start`` integrates backward (sign-flipped steps). Returns the
    node times and the state at every node, shape ``(n+1,)`` and
    ``(n+1, dim)``.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    y0 = np.atleast_1d(np.asarray(y_start, dtype=float))
    span = t_end - t_start
    if span == 0.0:
        return np.array([t_start]), y0[None, :].copy()
    n = max(1, round(abs(span) / step))
    h = span / n
    times = t_start + h * np.arange(n + 1)
    times[-1] = t_end
    ys = np.empty((n + 1, y0.size))
    ys[0] = y0
    y = y0.copy()
    for k in range(n):
        t = times[k]
        k1 = np.asarray(rhs(t, y), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NumericalFailure(f"non-finite ODE state at t={times[k + 1]}",
                                   at_time=float(times[k + 1]))
        ys[k + 1] = y
    return times, ys


def _check_seed(seed: int) -> None:
    """A seed is the first 64-bit word of the Philox key, so it must lie in
    [0, 2**64): reducing it would give two seeds the same streams."""
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def gaussian_stream(seed: int, stream_index: int) -> np.random.Generator:
    """Standard-normal stream fully determined by ``(seed, stream_index)``.

    Backed by the counter-based Philox generator with key
    ``(seed, stream_index)``; distinct indices give statistically independent
    streams and the k-th draw of a stream is the same however the caller is
    scheduled.
    """
    _check_seed(seed)
    key = np.array([seed, stream_index & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_block(seed: int, first_index: int, n_streams: int,
                 n_draws: int) -> np.ndarray:
    """Matrix of draws, row ``i`` being the first ``n_draws`` of stream
    ``first_index + i``. Shape ``(n_streams, n_draws)``.

    One Philox bit generator serves every row: before each stream it is
    re-keyed to ``(seed, stream_index)`` with its counter and buffer reset,
    the state ``gaussian_stream`` starts from, so the rows equal those
    streams' draws without building a generator per stream.

    The re-key sets a state dict whose counter, key and buffer are Python
    lists: the state setter reads them element by element, which takes 6 ms
    per 20 000 streams from lists and 14 ms from the ndarrays
    ``bitgen.state`` returns (2-core Xeon). The setter casts each element
    to the same uint64 word either way, so the state, and every draw, is
    the one the ndarray state gave.
    """
    _check_seed(seed)
    out = np.empty((n_streams, n_draws))
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    fresh["state"] = {k: v.tolist() for k, v in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    for i in range(n_streams):
        key[1] = (first_index + i) & _U64
        bitgen.state = fresh
        gen.standard_normal(out=out[i])
    return out
