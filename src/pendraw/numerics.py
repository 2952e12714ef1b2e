"""Deterministic numerical kernel: quadrature, RK4 stepping, keyed Gaussian streams.

All routines are pure functions of their inputs, so they can be called from any
number of workers without coordination. Random streams are counter-based
(Philox) and keyed by ``(seed, stream_index)``; the position within a stream
plays the role of the step index, so draws are reproducible regardless of
scheduling or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

_U64 = (1 << 64) - 1

# Stream-index offsets. Mortality factor 1 uses the bare path index; the second
# mortality factor and the stock driver live in disjoint regions of the index
# space so that all streams for one scenario come from a single seed.
W2_STREAM_OFFSET = 1 << 62
WS_STREAM_OFFSET = 1 << 63


class NumericalFailure(RuntimeError):
    """An iterative routine failed to reach its accuracy target.

    Carries the last estimate (quadrature) or the time at which the state
    stopped being finite (ODE stepping).
    """

    def __init__(self, message: str, last_estimate: float | None = None,
                 at_time: float | None = None):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.at_time = at_time


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance and halving budget of composite-Simpson quadrature."""

    rel_tol: float = 1e-8
    max_refinements: int = 20

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_refinements < 1:
            raise ValueError(f"max_refinements must be >= 1, got {self.max_refinements}")


DEFAULT_TOLERANCE = Tolerance()
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


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Composite-Simpson integral of ``f`` over [a, b], refined by halving.

    Successive Simpson estimates are compared until they agree to
    ``tol.rel_tol`` in relative terms (with an absolute floor at roundoff
    scale so that integrals that cancel to zero still converge). Exact for
    polynomials up to degree three from the first estimate on.
    """
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0

    fa, fb = f(a), f(b)
    f_scale = max(abs(fa), abs(fb))
    if not np.isfinite(fa) or not np.isfinite(fb):
        raise NumericalFailure(f"non-finite integrand on [{a}, {b}]")

    width = b - a
    trap = 0.5 * width * (fa + fb)
    n = 1
    simpson_prev = None
    for _ in range(tol.max_refinements):
        # midpoints of the current n intervals
        h = width / n
        mids = a + (np.arange(n) + 0.5) * h
        fm = np.array([f(x) for x in mids], dtype=float)
        if not np.all(np.isfinite(fm)):
            raise NumericalFailure(f"non-finite integrand on [{a}, {b}]",
                                   last_estimate=simpson_prev)
        f_scale = max(f_scale, float(np.max(np.abs(fm))))
        trap_next = 0.5 * trap + 0.5 * h * float(fm.sum())
        simpson = (4.0 * trap_next - trap) / 3.0
        trap = trap_next
        n *= 2
        if simpson_prev is not None:
            # absolute floor: roundoff of the node sum can never be beaten
            floor = 64.0 * np.finfo(float).eps * width * f_scale
            if abs(simpson - simpson_prev) <= tol.rel_tol * abs(simpson) + floor:
                return simpson
        simpson_prev = simpson
    raise NumericalFailure(
        f"quadrature on [{a}, {b}] did not converge after {tol.max_refinements} refinements",
        last_estimate=simpson_prev)


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
    """
    _check_seed(seed)
    out = np.empty((n_streams, n_draws))
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    for i in range(n_streams):
        key[1] = (first_index + i) & _U64
        bitgen.state = fresh
        gen.standard_normal(out=out[i])
    return out
