import math

import numpy as np
import pytest

from pendraw import numerics, pricing
from pendraw.config import default_config_path, loads_config
from pendraw.mortality import initial_hazard
from pendraw.numerics import (W2_STREAM_OFFSET, WS_STREAM_OFFSET,
                              NumericalFailure, TimeGrid, gaussian_stream,
                              integrate, normal_block, solve_ode)


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(0.0, 35.0, 0.1)
        nodes = grid.nodes
        assert grid.n_steps == 350
        assert nodes[0] == 0.0 and nodes[-1] == 35.0
        assert np.all(np.diff(nodes) > 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.05, 0.1)  # not an integer number of steps


class TestIntegrate:
    def test_linear_exact(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_cubic_exact_first_pass(self):
        # Gauss-Legendre integrates cubics exactly
        assert integrate(lambda x: x**3 - 2 * x ** 2 + 4, 0.0, 2.0) == \
            pytest.approx(4 - 16 / 3 + 8, abs=1e-12)

    def test_exponential(self):
        assert integrate(lambda x: np.exp(x), 0.0, 1.0) == \
            pytest.approx(np.e - 1.0, rel=1e-8)

    def test_discount_factor(self):
        # analytic antiderivative: (1 - e^{-0.8}) / 0.04
        expected = (1.0 - np.exp(-0.8)) / 0.04
        assert integrate(lambda s: np.exp(-0.04 * s), 0.0, 20.0) == \
            pytest.approx(expected, rel=1e-8)

    def test_empty_interval(self):
        assert integrate(lambda x: np.exp(x), 2.0, 2.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_zero_integrand(self):
        assert integrate(lambda x: 0.0, 0.0, 3.0) == 0.0

    def test_cancelling_integrand(self):
        assert integrate(lambda x: np.sin(x), -2.0, 2.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f = lambda x: np.exp(-0.3 * x)
        g = lambda x: np.sin(x) + x ** 2
        for _ in range(5):
            al, be = rng.normal(size=2)
            combined = integrate(lambda x: al * f(x) + be * g(x), 0.0, 2.0)
            parts = al * integrate(f, 0.0, 2.0) + be * integrate(g, 0.0, 2.0)
            assert combined == pytest.approx(parts, rel=1e-7, abs=1e-10)

    def test_non_finite_integrand(self):
        # the rule never samples the endpoints: the first node of [0, 1]
        # lies at 0.0092
        with pytest.raises(NumericalFailure):
            integrate(lambda x: np.inf if x < 0.01 else 1.0 / x, 0.0, 1.0)


def shipped_model(kind):
    return loads_config(default_config_path().read_text()
                        .replace("kind = ou-single", f"kind = {kind}")).model


def halved_panels(f, a, b):
    """``integrate`` on panels half as long as its own: each half of one of
    its panels is a single panel of its own."""
    edges = np.linspace(a, b, 2 * math.ceil((b - a) / numerics._GL_PANEL) + 1)
    return sum(integrate(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def oracle_routes():
    ous, cirs, oub = (shipped_model(kind)
                      for kind in ("ou-single", "cir-single", "ou-sub"))
    lam1 = [initial_hazard(ous.gm)]
    lam2 = [initial_hazard(oub.gm1), initial_hazard(oub.gm2)]
    routes = []
    for t, s in [(0.0, 120.0), (34.0, 120.0), (2.0, 2.3)]:
        routes += [
            (f"A0 ou-single [{t}, {s}]",
             lambda t=t, s=s: pricing.coeffs_single(ous, t, s).a0),
            (f"A0 cir-single [{t}, {s}]",
             lambda t=t, s=s: pricing.coeffs_single(cirs, t, s).a0),
            (f"C0 ou-sub [{t}, {s}]",
             lambda t=t, s=s: pricing.coeffs_two_pop(oub, t, s).c0),
            (f"E~ ou-single [{t}, {s}]",
             lambda t=t, s=s: pricing.tilde_mean(ous, t, s, lam1)[-1]),
            (f"E~ ou-sub [{t}, {s}]",
             lambda t=t, s=s: pricing.tilde_mean(oub, t, s, lam2)[-1]),
        ]
    return routes


class TestGaussLegendre:
    @pytest.mark.parametrize("f, a, b, exact", [
        (np.exp, 0.0, 1.0, math.e - 1.0),
        (lambda s: math.exp(-0.04 * s), 0.0, 20.0,
         (1.0 - math.exp(-0.8)) / 0.04),
    ])
    def test_closed_forms_to_roundoff(self, f, a, b, exact):
        assert integrate(f, a, b) == pytest.approx(exact, rel=1e-14)

    def test_degree_23_exact_on_one_panel(self):
        coef = np.random.default_rng(5).uniform(0.5, 1.5, size=24)
        exact = float(np.sum(coef / np.arange(24, 0, -1)))  # highest first
        assert integrate(lambda x: np.polyval(coef, x), 0.0, 1.0) == \
            pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_at_a_node_raises(self, bad):
        # [0, 10] is two panels; only nodes of the second lie past 7
        with pytest.raises(NumericalFailure):
            integrate(lambda x: bad if x > 7.0 else 1.0, 0.0, 10.0)

    def test_oracle_routes_agree_with_half_length_panels(self, monkeypatch):
        routes = oracle_routes()
        got = [fn() for _, fn in routes]
        monkeypatch.setattr(pricing, "integrate", halved_panels)
        for (name, fn), value in zip(routes, got):
            assert value == pytest.approx(fn(), rel=1e-13, abs=0), name


class TestSolveOde:
    def test_exponential_growth(self):
        _, ys = solve_ode(lambda t, y: y, 0.0, 1.0, [1.0], step=0.01)
        assert ys[-1, 0] == pytest.approx(np.e, abs=1e-6)

    def test_exponential_decay(self):
        _, ys = solve_ode(lambda t, y: -0.561 * y, 0.0, 1.0, [1.0], step=0.01)
        assert ys[-1, 0] == pytest.approx(np.exp(-0.561), abs=1e-6)

    def test_constant(self):
        ts, ys = solve_ode(lambda t, y: np.zeros_like(y), 0.0, 2.0, [3.5], step=0.1)
        assert np.all(ys[:, 0] == 3.5)
        assert ts[0] == 0.0 and ts[-1] == 2.0

    def test_backward(self):
        # integrate y' = y backward from y(1) = e gives y(0) = 1
        _, ys = solve_ode(lambda t, y: y, 1.0, 0.0, [np.e], step=0.01)
        assert ys[-1, 0] == pytest.approx(1.0, abs=1e-6)

    def test_fourth_order_convergence(self):
        def err(step):
            _, ys = solve_ode(lambda t, y: 0.8 * y, 0.0, 2.0, [1.0], step=step)
            return abs(ys[-1, 0] - np.exp(1.6))

        ratio = err(0.1) / err(0.05)
        assert 12.0 < ratio < 20.0  # halving the step cuts the error ~16x

    def test_vector_state(self):
        # harmonic oscillator keeps its energy
        def rhs(t, y):
            return np.array([y[1], -y[0]])

        _, ys = solve_ode(rhs, 0.0, 2.0 * np.pi, [1.0, 0.0], step=0.01)
        assert ys[-1] == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_non_finite_state_reports_time(self):
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure) as err:
            solve_ode(lambda t, y: y * y, 0.0, 2.0, [1.0], step=0.01)
        assert err.value.at_time is not None
        assert 0.0 < err.value.at_time <= 2.0

    def test_bad_step(self):
        with pytest.raises(ValueError):
            solve_ode(lambda t, y: y, 0.0, 1.0, [1.0], step=0.0)


class TestGaussianStream:
    def test_reproducible(self):
        a = gaussian_stream(42, 3).standard_normal(1000)
        b = gaussian_stream(42, 3).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_indices(self):
        a = gaussian_stream(42, 0).standard_normal(100)
        b = gaussian_stream(42, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds(self):
        a = gaussian_stream(1, 0).standard_normal(100)
        b = gaussian_stream(2, 0).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_moments(self):
        draws = gaussian_stream(7, 0).standard_normal(1_000_000)
        assert abs(draws.mean()) < 4e-3
        assert abs(draws.var() - 1.0) < 1e-2

    def test_split_consumption_invariant(self):
        # consuming k draws is reproducible regardless of chunking
        gen = gaussian_stream(5, 9)
        chunked = np.concatenate([gen.standard_normal(7) for _ in range(10)])
        whole = gaussian_stream(5, 9).standard_normal(70)
        assert np.array_equal(chunked, whole)

    def test_normal_block_matches_streams(self):
        # ordinary indices, both sides of the stream-region offsets, and the
        # top of the 64-bit index space
        for first in (4, W2_STREAM_OFFSET - 2, WS_STREAM_OFFSET - 2,
                      2**64 - 3):
            block = normal_block(13, first, 3, 25)
            for i in range(3):
                assert np.array_equal(
                    block[i], gaussian_stream(13, first + i).standard_normal(25))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_key_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            gaussian_stream(seed, 0)
        with pytest.raises(ValueError, match="seed"):
            normal_block(seed, 0, 2, 3)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_key_range_ends_accepted(self, seed):
        block = normal_block(seed, 5, 2, 3)
        assert np.array_equal(block[1], gaussian_stream(seed, 6).standard_normal(3))
