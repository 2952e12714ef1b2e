import numpy as np
import pytest

from pendraw.mortality import (ConfigError, GompertzMakehamParams,
                               SinglePopModel, TwoPopModel, baseline_hazard,
                               death_time_distribution, drift_a,
                               initial_hazard, simulate_paths)
from pendraw.numerics import TimeGrid, solve_ode
from pendraw.pricing import coeffs_single, survival_expectation

# Base parameterisation; modal ages quoted as calendar ages
POP1_AGE = GompertzMakehamParams(nu=0.0009944, delta=11.4, m=86.4515)
POP2_AGE = GompertzMakehamParams(nu=0.0009944, delta=12.9374, m=89.18)
# Same curves shifted to years-since-retirement (retirement at 65)
POP1 = GompertzMakehamParams(nu=0.0009944, delta=11.4, m=86.4515 - 65.0)
POP2 = GompertzMakehamParams(nu=0.0009944, delta=12.9374, m=89.18 - 65.0)

B1, SIGMA1 = 0.561, 0.0035
B21, B22, SIGMA21, SIGMA22 = 0.0028, 0.65, 0.004, 0.005


def ou_single(gm=POP1, sigma=SIGMA1):
    return SinglePopModel("ou", gm, B1, sigma)


def cir_single(gm=POP1, sigma=SIGMA1):
    return SinglePopModel("cir", gm, B1, sigma)


def ou_two(gm1=POP1, gm2=POP2, sigma21=SIGMA21):
    return TwoPopModel("ou", gm1, gm2, B1, B21, B22, SIGMA1, sigma21, SIGMA22)


def cir_two():
    return TwoPopModel("cir", POP1, POP2, B1, B21, B22, SIGMA1, SIGMA21,
                       SIGMA22)


class TestGompertzMakeham:
    def test_initial_hazard_population1(self):
        expected = POP1_AGE.nu + np.exp(-POP1_AGE.m / POP1_AGE.delta) / POP1_AGE.delta
        value = initial_hazard(POP1_AGE)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(1.0390e-3, abs=1e-7)

    def test_initial_hazard_population2(self):
        assert initial_hazard(POP2_AGE) == pytest.approx(1.0728e-3, abs=1e-7)

    def test_initial_hazard_degenerate(self):
        assert initial_hazard(GompertzMakehamParams(0.0, 1.0, 1e-300)) == \
            pytest.approx(1.0, rel=1e-12)

    def test_drift_level_at_zero(self):
        expected = B1 * (POP1_AGE.nu + (1 / POP1_AGE.delta)
                         * (1 + 1 / (B1 * POP1_AGE.delta))
                         * np.exp(-POP1_AGE.m / POP1_AGE.delta))
        value = float(drift_a(0.0, POP1_AGE, B1))
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(5.868e-4, abs=1e-7)

    def test_drift_monotone(self):
        assert drift_a(10.0, POP1_AGE, B1) > drift_a(0.0, POP1_AGE, B1)
        ts = np.linspace(0.0, 50.0, 40)
        assert np.all(np.diff(drift_a(ts, POP1, B1)) > 0)

    def test_drift_at_modal_age(self):
        # exponent vanishes at t = m
        gm = GompertzMakehamParams(0.0, 9.0, 21.0)
        b = 0.4
        assert float(drift_a(gm.m, gm, b)) == \
            pytest.approx(b * (1 / gm.delta) * (1 + 1 / (b * gm.delta)), rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            GompertzMakehamParams(0.001, -1.0, 80.0)
        with pytest.raises(ConfigError):
            GompertzMakehamParams(-0.001, 1.0, 80.0)
        with pytest.raises(ConfigError):
            drift_a(0.0, POP1, b=0.0)


class TestModelValidation:
    def test_kind_checked(self):
        with pytest.raises(ConfigError):
            SinglePopModel("garch", POP1, B1, SIGMA1)

    def test_equal_mean_reversion_rejected(self):
        with pytest.raises(ConfigError):
            TwoPopModel("ou", POP1, POP2, 0.65, B21, 0.65, SIGMA1, SIGMA21, SIGMA22)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            SinglePopModel("ou", POP1, B1, -0.1)


class TestSimulatePaths:
    def test_zero_noise_matches_ode(self):
        # with sigma = 0 the Euler path tracks the drift ODE (fine grid)
        grid = TimeGrid(0.0, 35.0, 0.01)
        model = ou_single(sigma=0.0)
        paths = simulate_paths(model, grid, 1, seed=1, keep_shocks=False)
        _, ys = solve_ode(lambda t, y: drift_a(t, POP1, B1) - B1 * y,
                          0.0, 35.0, [initial_hazard(POP1)], step=0.01)
        assert np.max(np.abs(paths.lambda1[0] - ys[:, 0])) < 1e-4

    def test_zero_noise_tracks_baseline_curve(self):
        grid = TimeGrid(0.0, 35.0, 0.01)
        paths = simulate_paths(ou_single(sigma=0.0), grid, 1, seed=1)
        assert np.max(np.abs(paths.lambda1[0] - baseline_hazard(grid.nodes, POP1))) < 1e-4

    def test_determinism_and_path_offset(self):
        grid = TimeGrid(0.0, 5.0, 0.1)
        a = simulate_paths(ou_single(), grid, 10, seed=3)
        b = simulate_paths(ou_single(), grid, 10, seed=3)
        assert np.array_equal(a.lambda1, b.lambda1)
        # block split reproduces the monolithic run
        c = simulate_paths(ou_single(), grid, 4, seed=3, path_offset=6)
        assert np.array_equal(a.lambda1[6:], c.lambda1)

    def test_cir_paths_nonnegative(self):
        grid = TimeGrid(0.0, 35.0, 0.1)
        paths = simulate_paths(cir_single(), grid, 500, seed=9)
        assert paths.lambda1.min() >= 0.0
        assert paths.survival.min() > 0.0
        assert np.all(np.diff(paths.survival, axis=1) <= 0.0)

    def test_cir_two_pop_nonnegative(self):
        grid = TimeGrid(0.0, 35.0, 0.1)
        model = TwoPopModel("cir", POP1, POP2, B1, B21, B22, SIGMA1, SIGMA21,
                            SIGMA22)
        paths = simulate_paths(model, grid, 200, seed=9)
        assert paths.lambda1.min() >= 0.0
        assert paths.lambda2.min() >= 0.0

    def test_survival_multiplicativity(self):
        grid = TimeGrid(0.0, 10.0, 0.1)
        paths = simulate_paths(ou_single(), grid, 20, seed=5)
        lam = paths.members_hazard
        k0, k1 = 30, 80
        manual = np.exp(-np.trapezoid(lam[:, k0:k1 + 1],
                                      grid.nodes[k0:k1 + 1], axis=1))
        assert np.allclose(paths.survival[:, k1] / paths.survival[:, k0],
                           manual, rtol=1e-12)

    def test_ou_mean_matches_ode_mean(self):
        grid = TimeGrid(0.0, 35.0, 0.1)
        n = 10_000
        paths = simulate_paths(ou_single(), grid, n, seed=11, keep_shocks=False)
        # the Euler mean follows the deterministic Euler recursion exactly
        mean_path = simulate_paths(ou_single(sigma=0.0), grid, 1, seed=0,
                                   keep_shocks=False).lambda1[0]
        se = paths.lambda1.std(axis=0, ddof=1) / np.sqrt(n)
        err = np.abs(paths.lambda1.mean(axis=0) - mean_path)
        assert np.all(err[1:] < 3.0 * se[1:])

    def test_mc_survival_matches_closed_form(self):
        # mortality-side oracle: affine closed form at s = 35 within 3 SE
        model = ou_single(POP1_AGE)  # slow-hazard curve keeps Euler bias tiny
        grid = TimeGrid(0.0, 35.0, 0.1)
        n = 10_000
        paths = simulate_paths(model, grid, n, seed=17, keep_shocks=False)
        mc = paths.survival[:, -1]
        coeffs = coeffs_single(model, 0.0, 35.0)
        closed = survival_expectation(coeffs, initial_hazard(POP1_AGE))
        se = mc.std(ddof=1) / np.sqrt(n)
        assert abs(mc.mean() - closed) < 3.0 * se

    def test_uncoupled_increments_uncorrelated(self):
        grid = TimeGrid(0.0, 20.0, 0.1)
        n = 400
        paths = simulate_paths(ou_two(sigma21=0.0), grid, n, seed=23)
        d1 = np.diff(paths.lambda1, axis=1).ravel()
        d2 = np.diff(paths.lambda2, axis=1).ravel()
        corr = np.corrcoef(d1, d2)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(d1.size)

    def test_coupled_increments_correlated(self):
        grid = TimeGrid(0.0, 20.0, 0.1)
        paths = simulate_paths(ou_two(sigma21=0.004), grid, 400, seed=23)
        d1 = np.diff(paths.lambda1, axis=1).ravel()
        d2 = np.diff(paths.lambda2, axis=1).ravel()
        assert np.corrcoef(d1, d2)[0, 1] > 0.5

    def test_invalid_path_count(self):
        with pytest.raises(ConfigError):
            simulate_paths(ou_single(), TimeGrid(0.0, 1.0, 0.1), 0, seed=1)


def _floored_death_time(paths):
    """Death-time CDF and density from the survival index rebuilt on every
    path from the members' hazard floored at zero."""
    dt = paths.grid.step
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
    return cdf, density


class TestDeathTimeDistribution:
    def test_cdf_properties(self):
        grid = TimeGrid(0.0, 35.0, 0.1)
        paths = simulate_paths(ou_single(), grid, 50, seed=31)
        dist = death_time_distribution(paths)
        assert np.all(dist.cdf[:, 0] == 0.0)
        assert np.all(np.diff(dist.cdf, axis=1) >= 0.0)
        assert np.all(dist.cdf <= 1.0)

    def test_density_peak_in_window(self):
        # average death-time density peaks near the modal life span
        grid = TimeGrid(0.0, 35.0, 0.1)
        paths = simulate_paths(ou_single(), grid, 1000, seed=37,
                               keep_shocks=False)
        dist = death_time_distribution(paths)
        peak = dist.times[np.argmax(dist.mean_density)]
        assert 15.0 <= peak <= 25.0

    @pytest.mark.parametrize("model, dips", [
        (cir_two(), False),
        (ou_single(), False),
        (ou_single(sigma=0.02), True),      # OU excursions below zero
    ], ids=["cir-sub", "ou-no-dip", "ou-dip"])
    def test_matches_floored_rebuild(self, model, dips):
        grid = TimeGrid(0.0, 35.0, 0.1)
        paths = simulate_paths(model, grid, 200, seed=43, keep_shocks=False)
        assert bool((paths.members_hazard < 0.0).any()) == dips
        dist = death_time_distribution(paths)
        cdf, density = _floored_death_time(paths)
        assert np.array_equal(dist.cdf, cdf)
        assert np.array_equal(dist.density, density)
        assert np.array_equal(dist.mean_cdf, cdf.mean(axis=0))
        assert np.array_equal(dist.mean_density, density.mean(axis=0))

    def test_matches_survival_for_cir(self):
        grid = TimeGrid(0.0, 20.0, 0.1)
        paths = simulate_paths(cir_single(), grid, 30, seed=41)
        dist = death_time_distribution(paths)
        assert np.allclose(dist.cdf, 1.0 - paths.survival, atol=1e-12)
