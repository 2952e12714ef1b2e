import dataclasses
import tracemalloc

import numpy as np
import pytest

from pendraw.mortality import (_CHUNK, _COPY_PATHS, ConfigError,
                               GompertzMakehamParams, SinglePopModel,
                               TwoPopModel, baseline_hazard,
                               death_time_distribution, drift_a,
                               initial_hazard, simulate_paths)
from pendraw.numerics import TimeGrid, W2_STREAM_OFFSET, normal_block, solve_ode
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

    @pytest.mark.parametrize("kind", ["ou", "cir"])
    def test_equal_mean_reversion_accepted(self, kind):
        # b1 == b22 is an ordinary model: it constructs and simulates
        model = TwoPopModel(kind, POP1, POP2, 0.65, B21, 0.65, SIGMA1,
                            SIGMA21, SIGMA22)
        big_b, _, _ = model.factors
        assert big_b[0, 0] == big_b[1, 1] == 0.65
        paths = simulate_paths(model, TimeGrid(0.0, 5.0, 0.1), 4, seed=3)
        assert np.all(np.isfinite(paths.hazards[1]))
        assert np.all(np.isfinite(paths.survival))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            SinglePopModel("ou", POP1, B1, -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("base, field", [
        *[(POP1, f.name) for f in dataclasses.fields(GompertzMakehamParams)],
        *[(ou_single(), name) for name in ("b", "sigma")],
        *[(ou_two(), name) for name in ("b1", "b21", "b22", "sigma1",
                                        "sigma21", "sigma22")],
    ], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    def test_non_finite_parameter_rejected(self, base, field, bad):
        # a NaN would pass every ordered check and give all-NaN hazards
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            dataclasses.replace(base, **{field: bad})


class TestSimulatePaths:
    def test_zero_noise_matches_ode(self):
        # with sigma = 0 the Euler path tracks the drift ODE (fine grid)
        grid = TimeGrid(0.0, 35.0, 0.01)
        model = ou_single(sigma=0.0)
        paths = simulate_paths(model, grid, 1, seed=1, keep_shocks=False)
        _, ys = solve_ode(lambda t, y: drift_a(t, POP1, B1) - B1 * y,
                          0.0, 35.0, [initial_hazard(POP1)], step=0.01)
        assert np.max(np.abs(paths.hazards[0][0] - ys[:, 0])) < 1e-4

    def test_zero_noise_tracks_baseline_curve(self):
        grid = TimeGrid(0.0, 35.0, 0.01)
        paths = simulate_paths(ou_single(sigma=0.0), grid, 1, seed=1)
        assert np.max(np.abs(paths.hazards[0][0]
                             - baseline_hazard(grid.nodes, POP1))) < 1e-4

    @pytest.mark.parametrize("make_model", [ou_single, cir_two])
    def test_paths_start_at_the_first_grid_node(self, make_model):
        # each factor starts at its baseline hazard at grid.t0, which is
        # the initial hazard, bit for bit, when t0 = 0
        model = make_model()
        gms = model.factors[2]
        paths = simulate_paths(model, TimeGrid(10.0, 45.0, 0.1), 3, seed=1)
        assert len(paths.hazards) == len(gms)
        for lam, gm in zip(paths.hazards, gms):
            assert np.all(lam[:, 0] == baseline_hazard(10.0, gm))
        at0 = simulate_paths(model, TimeGrid(0.0, 1.0, 0.1), 1, seed=1)
        for lam, gm in zip(at0.hazards, gms):
            assert lam[0, 0] == initial_hazard(gm)

    def test_determinism_and_path_offset(self):
        grid = TimeGrid(0.0, 5.0, 0.1)
        a = simulate_paths(ou_single(), grid, 10, seed=3)
        b = simulate_paths(ou_single(), grid, 10, seed=3)
        assert np.array_equal(a.hazards[0], b.hazards[0])
        # block split reproduces the monolithic run
        c = simulate_paths(ou_single(), grid, 4, seed=3, path_offset=6)
        assert np.array_equal(a.hazards[0][6:], c.hazards[0])

    def test_cir_paths_nonnegative(self):
        grid = TimeGrid(0.0, 35.0, 0.1)
        paths = simulate_paths(cir_single(), grid, 500, seed=9)
        assert paths.hazards[0].min() >= 0.0
        assert paths.survival.min() > 0.0
        assert np.all(np.diff(paths.survival, axis=1) <= 0.0)

    def test_cir_two_pop_nonnegative(self):
        grid = TimeGrid(0.0, 35.0, 0.1)
        model = TwoPopModel("cir", POP1, POP2, B1, B21, B22, SIGMA1, SIGMA21,
                            SIGMA22)
        paths = simulate_paths(model, grid, 200, seed=9)
        assert paths.hazards[0].min() >= 0.0
        assert paths.hazards[1].min() >= 0.0

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
                                   keep_shocks=False).hazards[0][0]
        se = paths.hazards[0].std(axis=0, ddof=1) / np.sqrt(n)
        err = np.abs(paths.hazards[0].mean(axis=0) - mean_path)
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
        d1 = np.diff(paths.hazards[0], axis=1).ravel()
        d2 = np.diff(paths.hazards[1], axis=1).ravel()
        corr = np.corrcoef(d1, d2)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(d1.size)

    def test_coupled_increments_correlated(self):
        grid = TimeGrid(0.0, 20.0, 0.1)
        paths = simulate_paths(ou_two(sigma21=0.004), grid, 400, seed=23)
        d1 = np.diff(paths.hazards[0], axis=1).ravel()
        d2 = np.diff(paths.hazards[1], axis=1).ravel()
        assert np.corrcoef(d1, d2)[0, 1] > 0.5

    def test_invalid_path_count(self):
        with pytest.raises(ConfigError):
            simulate_paths(ou_single(), TimeGrid(0.0, 1.0, 0.1), 0, seed=1)


def _two_loop_paths(model, grid, n_paths, seed, path_offset=0):
    """(hazards, survival, shocks) from the former ``simulate_paths``, which
    kept one Euler loop per model class."""
    n, dt, times = grid.n_steps, grid.step, grid.nodes
    sqdt = np.sqrt(dt)
    is_cir = model.kind == "cir"
    xi1 = normal_block(seed, path_offset, n_paths, n)
    xi2 = None
    if isinstance(model, TwoPopModel):
        xi2 = normal_block(seed, W2_STREAM_OFFSET + path_offset, n_paths, n)

    def clamp(x):
        return np.maximum(x, 0.0) if is_cir else x

    def vol(sig, x):
        return sig * np.sqrt(np.maximum(x, 0.0)) if is_cir else sig

    lam1 = np.empty((n_paths, n + 1))
    if isinstance(model, SinglePopModel):
        x = np.full(n_paths, initial_hazard(model.gm))
        lam1[:, 0] = clamp(x)
        for k in range(n):
            xp = clamp(x)
            x = x + (drift_a(times[k], model.gm, model.b) - model.b * xp) * dt \
                + vol(model.sigma, x) * sqdt * xi1[:, k]
            lam1[:, k + 1] = clamp(x)
        hazards = (lam1,)
    else:
        lam2 = np.empty((n_paths, n + 1))
        x1 = np.full(n_paths, initial_hazard(model.gm1))
        x2 = np.full(n_paths, initial_hazard(model.gm2))
        lam1[:, 0], lam2[:, 0] = clamp(x1), clamp(x2)
        for k in range(n):
            x1p, x2p = clamp(x1), clamp(x2)
            dw1, dw2 = sqdt * xi1[:, k], sqdt * xi2[:, k]
            x1 = x1 + (drift_a(times[k], model.gm1, model.b1) - model.b1 * x1p) * dt \
                + vol(model.sigma1, x1p) * dw1
            x2 = x2 + (drift_a(times[k], model.gm2, model.b22)
                       - model.b21 * x1p - model.b22 * x2p) * dt \
                + vol(model.sigma21, x1p) * dw1 + vol(model.sigma22, x2p) * dw2
            lam1[:, k + 1], lam2[:, k + 1] = clamp(x1), clamp(x2)
        hazards = (lam1, lam2)
    members = hazards[-1]
    survival = np.empty((n_paths, n + 1))
    survival[:, 0] = 1.0
    increments = 0.5 * dt * (members[:, :-1] + members[:, 1:])
    survival[:, 1:] = np.exp(-np.cumsum(increments, axis=1))
    return hazards, survival, (xi1, xi2)[:len(hazards)]


def _column_loop_paths(model, grid, n_paths, seed, path_offset=0):
    """(hazards, survival, shocks) from the former ``simulate_paths``, which
    stepped all paths one node column at a time on the path-major outputs."""
    n, dt, times = grid.n_steps, grid.step, grid.nodes
    sqdt = np.sqrt(dt)
    is_cir = model.kind == "cir"
    big_b, big_s, gms = model.factors
    big_b, big_s = big_b.tolist(), big_s.tolist()

    def clamp(x):
        return np.maximum(x, 0.0) if is_cir else x

    def vol(sig, x):
        return sig * np.sqrt(x) if is_cir else sig

    xi = [normal_block(seed, f * W2_STREAM_OFFSET + path_offset, n_paths, n)
          for f in range(len(gms))]
    lam = [np.empty((n_paths, n + 1)) for _ in gms]
    x = [np.full(n_paths, initial_hazard(gm)) for gm in gms]
    xp = [clamp(v) for v in x]
    for f, v in enumerate(xp):
        lam[f][:, 0] = v
    for k in range(n):
        dw = [sqdt * z[:, k] for z in xi]
        for f, (b_row, s_row) in enumerate(zip(big_b, big_s)):
            drift = drift_a(times[k], gms[f], b_row[f])
            for i in range(f + 1):
                drift = drift - b_row[i] * xp[i]
            x[f] = x[f] + drift * dt
            for i in range(f + 1):
                x[f] = x[f] + vol(s_row[i], xp[i]) * dw[i]
        xp = [clamp(v) for v in x]
        for f, v in enumerate(xp):
            lam[f][:, k + 1] = v
    members = lam[-1]
    survival = np.empty((n_paths, n + 1))
    survival[:, 0] = 1.0
    increments = 0.5 * dt * (members[:, :-1] + members[:, 1:])
    survival[:, 1:] = np.exp(-np.cumsum(increments, axis=1))
    return tuple(lam), survival, tuple(xi)


PATH_FIELDS = ("hazards", "survival", "shocks")


def _path_arrays(hazards, survival, shocks):
    """Every array of a path set by name, the tuples' entries by index."""
    return {**{f"hazards[{f}]": a for f, a in enumerate(hazards)},
            "survival": survival,
            **{f"shocks[{f}]": a for f, a in enumerate(shocks)}}


def _arrays_of(paths):
    return _path_arrays(*(getattr(paths, name) for name in PATH_FIELDS))
DIST_FIELDS = ("cdf", "density", "mean_cdf", "mean_density")
MODELS = {"ou-single": ou_single(), "cir-single": cir_single(),
          "ou-sub": ou_two(), "cir-sub": cir_two(),
          "ou-dip": ou_single(sigma=0.02),
          "cir-clamp": TwoPopModel("cir", POP1, POP2, B1, B21, B22, 0.2, 0.1,
                                   0.2)}


# (n_steps, n_paths): step counts across the chunk boundaries, and path
# counts across the noise copy's block, on more than one chunk
CHUNK_CASES = ([(n_steps, n_paths)
                for n_steps in (1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 350)
                for n_paths in (1, 60)]
               + [(n_steps, n_paths) for n_steps in (_CHUNK + 1, 350)
                  for n_paths in (_COPY_PATHS - 1, _COPY_PATHS,
                                  _COPY_PATHS + 1)])


class TestTimeMajorChunks:
    """The chunked loop against the column loop, across chunk boundaries
    and the noise copy's path blocks, and the death-time arrays against the
    floored rebuild. The "ou-dip" runs of 60 paths or more and more than one
    step make negative OU excursions, and the "cir-clamp" runs of 60 paths
    or more clamp both factors' CIR states at zero."""

    @pytest.mark.parametrize("path_offset", [0, 2 ** 40])
    @pytest.mark.parametrize("n_steps,n_paths", CHUNK_CASES)
    @pytest.mark.parametrize("kind", ["ou-single", "cir-single", "ou-sub",
                                      "cir-sub", "ou-dip", "cir-clamp"])
    def test_bit_identical_to_column_loop(self, kind, n_steps, n_paths,
                                          path_offset):
        model = MODELS[kind]
        grid = TimeGrid(0.0, 0.1 * n_steps, 0.1)
        paths = simulate_paths(model, grid, n_paths, seed=5,
                               path_offset=path_offset)
        got = _arrays_of(paths)
        want = _path_arrays(*_column_loop_paths(model, grid, n_paths, seed=5,
                                                path_offset=path_offset))
        assert got.keys() == want.keys()
        for name, a in got.items():
            b = want[name]
            assert a.shape == b.shape and np.array_equal(a, b), name
            assert a.flags.c_contiguous and a.flags.owndata, name
        if kind == "ou-dip" and n_paths >= 60 and n_steps > 1:
            assert paths.hazards[0].min() < 0.0
        if kind == "cir-clamp" and n_paths >= 60:
            assert all((lam == 0.0).any() for lam in paths.hazards)
        dist = death_time_distribution(paths)
        cdf, density = _floored_death_time(paths)
        want = (cdf, density, cdf.mean(axis=0), density.mean(axis=0))
        for name, b in zip(DIST_FIELDS, want):
            a = getattr(dist, name)
            assert np.array_equal(a, b), name
            assert a.flags.c_contiguous, name


def _traced_peak(fn, *args):
    """(result, peak bytes traced during ``fn(*args)`` above what was
    traced before the call)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemory:
    """Neither routine holds a full-size temporary: the Euler loop's chunk
    buffers stay under half a path array, and the death-time arrays are
    computed in their two outputs."""

    N_PATHS = 2000
    GRID = TimeGrid(0.0, 35.0, 0.1)

    def test_simulate_paths_peak(self):
        # a process's first call also traces one-time lazy set-up
        simulate_paths(cir_two(), TimeGrid(0.0, 0.1, 0.1), 1, 42)
        paths, peak = _traced_peak(simulate_paths, cir_two(), self.GRID,
                                   self.N_PATHS, 42)
        unit = paths.survival.nbytes
        outputs = sum(a.nbytes for a in _arrays_of(paths).values())
        assert peak <= outputs + 0.5 * unit, peak / unit

    @pytest.mark.parametrize("kind", ["cir-sub", "ou-dip"])
    def test_death_time_distribution_peak(self, kind):
        paths = simulate_paths(MODELS[kind], self.GRID, self.N_PATHS, 42,
                               keep_shocks=False)
        dist, peak = _traced_peak(death_time_distribution, paths)
        unit = paths.survival.nbytes
        assert peak <= 2 * unit + 0.05 * unit, peak / unit
        assert dist.cdf.nbytes + dist.density.nbytes == 2 * unit


def _uncoupled(kind):
    return TwoPopModel(kind, POP1, POP2, B1, 0.0, B22, SIGMA1, 0.0, SIGMA22)


class TestOneEulerLoop:
    """The single Euler loop over the factor structure against the former
    per-class loops (``_two_loop_paths``)."""

    GRID = TimeGrid(0.0, 35.0, 0.1)

    def test_factor_structure(self):
        big_b, big_s, gms = cir_two().factors
        assert np.array_equal(big_b, [[B1, 0.0], [B21, B22]])
        assert np.array_equal(big_s, [[SIGMA1, 0.0], [SIGMA21, SIGMA22]])
        assert gms == (POP1, POP2)
        big_b, big_s, gms = ou_single().factors
        assert (big_b.tolist(), big_s.tolist(), gms) == ([[B1]], [[SIGMA1]],
                                                          (POP1,))

    @pytest.mark.parametrize("model", [ou_two(), cir_two(), _uncoupled("ou"),
                                       _uncoupled("cir")],
                             ids=["ou-sub", "cir-sub", "ou-sub-uncoupled",
                                  "cir-sub-uncoupled"])
    def test_two_population_identical(self, model):
        paths = simulate_paths(model, self.GRID, 60, seed=5, path_offset=7)
        got = _arrays_of(paths)
        want = _path_arrays(*_two_loop_paths(model, self.GRID, 60, seed=5,
                                             path_offset=7))
        assert got.keys() == want.keys()
        for name, a in got.items():
            assert np.array_equal(a, want[name]), name

    @pytest.mark.parametrize("model", [ou_single(), cir_single()],
                             ids=["ou-single", "cir-single"])
    def test_single_population_to_last_bits(self, model):
        # the former loop multiplied (vol * sqrt(dt)) * xi, this one
        # vol * (sqrt(dt) * xi): the hazards differ in the last bits only
        paths = simulate_paths(model, self.GRID, 60, seed=5, path_offset=7)
        (lam1,), survival, (xi1,) = _two_loop_paths(model, self.GRID, 60,
                                                    seed=5, path_offset=7)
        assert len(paths.hazards) == len(paths.shocks) == 1
        assert np.all(np.abs(paths.hazards[0] - lam1) <= 1e-14 * np.abs(lam1))
        assert np.all(np.abs(paths.survival - survival) <= 1e-14 * survival)
        assert np.array_equal(paths.shocks[0], xi1)

    @pytest.mark.parametrize("kind", ["ou", "cir"])
    def test_single_population_is_population1_of_two(self, kind):
        single = SinglePopModel(kind, POP1, B1, SIGMA1)
        two = TwoPopModel(kind, POP1, POP2, B1, B21, B22, SIGMA1, SIGMA21,
                          SIGMA22)
        a = simulate_paths(single, self.GRID, 60, seed=5, path_offset=7)
        b = simulate_paths(two, self.GRID, 60, seed=5, path_offset=7)
        assert np.array_equal(a.hazards[0], b.hazards[0])
        assert np.array_equal(a.shocks[0], b.shocks[0])

    def test_shocks_dropped(self):
        paths = simulate_paths(cir_two(), self.GRID, 5, seed=5,
                               keep_shocks=False)
        assert paths.shocks == ()
        assert len(paths.hazards) == 2


class TestSlotAliases:
    """perfbench/ reads the former slot names ``lambda1``, ``lambda2``,
    ``shocks1`` and ``shocks2``: each is its tuple entry, or None past the
    factor count or with no shocks kept. This goes with the aliases once
    perfbench/ reads ``hazards`` and ``shocks``."""

    @pytest.mark.parametrize("keep_shocks", [True, False])
    @pytest.mark.parametrize("model", [ou_single(), cir_two()],
                             ids=["ou-single", "cir-sub"])
    def test_aliases_are_the_tuple_entries(self, model, keep_shocks):
        paths = simulate_paths(model, TimeGrid(0.0, 1.0, 0.1), 5, seed=5,
                               keep_shocks=keep_shocks)
        n_f = model.n_factors
        assert len(paths.hazards) == n_f
        assert len(paths.shocks) == (n_f if keep_shocks else 0)
        for alias, arrays, i in [("lambda1", paths.hazards, 0),
                                 ("lambda2", paths.hazards, 1),
                                 ("shocks1", paths.shocks, 0),
                                 ("shocks2", paths.shocks, 1)]:
            got = getattr(paths, alias)
            if i < len(arrays):
                assert got is arrays[i], alias
            else:
                assert got is None, alias
        with pytest.raises(AttributeError):
            paths.lambda1 = paths.hazards[0]


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
