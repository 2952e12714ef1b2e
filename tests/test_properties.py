"""Properties over the valid parameter space, checked with hypothesis under
the deterministic profile of ``conftest.py``."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import (HealthCheck, example, given, settings,  # noqa: E402
                        strategies as st)

from pendraw.control import MarketParams, SchemeScenario, g_and_gradient  # noqa: E402
from pendraw.mortality import (GompertzMakehamParams, SinglePopModel,  # noqa: E402
                               TwoPopModel, simulate_paths)
from pendraw.numerics import TimeGrid  # noqa: E402
from pendraw.scheme import (NO_BOND, OPTIMAL, _hazard_state, g_surface,  # noqa: E402
                            simulate_scheme)
import test_config_cli  # noqa: E402
import test_scheme  # noqa: E402

POP1 = GompertzMakehamParams(0.0009944, 11.4, 86.4515 - 65.0)
POP2 = GompertzMakehamParams(0.0009944, 12.9374, 89.18 - 65.0)
MODELS = {
    "ou-single": SinglePopModel("ou", POP1, 0.561, 0.0035),
    "cir-single": SinglePopModel("cir", POP1, 0.561, 0.0035),
    "ou-sub": TwoPopModel("ou", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035,
                          0.004, 0.005),
    "cir-sub": TwoPopModel("cir", POP1, POP2, 0.561, 0.0028, 0.65, 0.0035,
                           0.004, 0.005),
}
# a short grid keeps each example to a few milliseconds
SCENARIO = SchemeScenario(phi=0.8, horizon=1.0, dt=0.1, n_paths=4, seed=7)
EPS = np.finfo(float).eps


# paths of the product-recurrence property: enough that at its low theta_1
# end an Euler factor 1 + mu dt + ... would fall below zero on the short grid
LOOP_PATHS = 32


@lru_cache(maxsize=None)
def paths_of(kind, n_paths=SCENARIO.n_paths):
    return simulate_paths(MODELS[kind], TimeGrid(0.0, SCENARIO.horizon,
                                                 SCENARIO.dt),
                          n_paths, SCENARIO.seed)


@given(kind=st.sampled_from(sorted(MODELS)), phi=st.floats(0.0, 5.0),
       r=st.floats(0.01, 0.5), theta1=st.floats(-0.05, 0.05),
       y0=st.floats(1e-3, 1e6), t_max=st.floats(1.05, 120.0))
@example(kind="cir-single", phi=5.0, r=0.5, theta1=0.05, y0=1e6,
         t_max=120.0)
@example(kind="ou-sub", phi=0.0, r=0.01, theta1=-0.05, y0=1e-3, t_max=1.05)
def test_shared_surface_is_g_and_gradient_at_every_phi(kind, phi, r, theta1,
                                                       y0, t_max):
    # phi r reaches 2.5, where the weight 1 - phi r of A is negative; a
    # t_max close to the horizon leaves D = e^{-r(T-t)} S(t,T) near 1. The
    # surface is built at another phi and y0 than the arm it serves.
    model, paths = MODELS[kind], paths_of(kind)
    market = MarketParams(r=r, theta_s=0.05, sigma_s=0.15, theta_1=theta1,
                          maturity=20.0)
    base = dataclasses.replace(SCENARIO, t_max=t_max)
    surface = g_surface(model, base, market, paths)
    scen = dataclasses.replace(base, phi=phi, y0=y0)
    g, grad1 = surface.at(phi)
    # at every (path, node) G is a finite positive annuity value and its
    # gradient is finite, whatever the sign of 1 - phi r
    assert np.all(np.isfinite(g)) and np.all(g > 0.0)
    assert np.all(np.isfinite(grad1))
    for k, t in enumerate(paths.grid.nodes):
        g_k, grad_k = g_and_gradient(model, scen, market, t,
                                     _hazard_state(paths, k))
        assert np.array_equal(g[:, k], g_k)
        assert np.array_equal(grad1[:, k], grad_k[:, 0])

    traj = simulate_scheme(surface, scen, market, OPTIMAL)
    risky = traj.stock_weight + traj.bond_weight
    total = risky + traj.cash_weight
    # cash = 1 - risky closes the sum exactly while risky >= 0; below 0,
    # 1 - risky is rounded and no cash value can close it, so the sum is
    # within the rounding of 1 - risky
    assert np.all(total[risky >= 0.0] == 1.0)
    assert np.all(np.abs(total - 1.0) <= EPS * (1.0 + np.abs(risky)))


@given(kind=st.sampled_from(sorted(MODELS)),
       arm=st.sampled_from([OPTIMAL, NO_BOND]), phi=st.floats(0.0, 5.0),
       theta1=st.floats(-2.0, 0.05), r=st.floats(0.01, 0.5))
@example(kind="ou-single", arm=OPTIMAL, phi=0.8, theta1=-2.0, r=0.04)
@example(kind="ou-sub", arm=OPTIMAL, phi=5.0, theta1=-2.0, r=0.5)
@example(kind="cir-sub", arm=NO_BOND, phi=5.0, theta1=0.05, r=0.5)
def test_product_recurrence_matches_the_step_loop(kind, arm, phi, theta1, r):
    model, paths = MODELS[kind], paths_of(kind, LOOP_PATHS)
    market = MarketParams(r=r, theta_s=0.05, sigma_s=0.15, theta_1=theta1,
                          maturity=20.0)
    scen = dataclasses.replace(SCENARIO, phi=phi, n_paths=LOOP_PATHS)
    got = simulate_scheme(g_surface(model, scen, market, paths), scen, market,
                          arm)
    test_scheme.TestProductRecurrence.assert_matches(
        got, test_scheme.loop_reference(model, scen, market, arm, paths))
    # theta_1 = -2 makes the OU bond weight about 320, yet the log step's
    # factors keep wealth finite and positive on every path
    assert np.all(np.isfinite(got.wealth))
    assert np.all(got.wealth > 0.0)


# any double: by value, and by bit pattern, which spreads the exponents
DOUBLES = st.one_of(
    st.floats(width=64),
    st.integers(0, 2**64 - 1).map(
        lambda b: float(np.array(b, np.uint64).view(np.float64))))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(DOUBLES, min_size=1, max_size=64),
       st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64))
def test_csv_fields_of_any_doubles_and_ints(tmp_path, floats, ints):
    # write_csv's field kernel and its fallback give format_number's text
    n = min(len(floats), len(ints))
    x = np.array(floats[:n])
    with np.errstate(over="ignore"):       # float32 of a large double is inf
        x32 = x.astype(np.float32)
    columns = [x, np.array(ints[:n], np.int64), x32]
    assert test_config_cli._matches_reference(tmp_path, columns)
