import configparser
import io
import os
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pendraw
from pendraw import cli, experiments, pricing, scheme
from pendraw.cli import MAX_COEFF_ROWS, main
from pendraw.config import (MODEL_KINDS, build_model, default_config_path,
                            load_config, loads_config)
from pendraw.control import (MarketParams, SchemeScenario, annuity_G,
                             g_and_gradient)
from pendraw.experiments import format_number, run_experiment, write_csv
from pendraw.mortality import (ConfigError, GompertzMakehamParams,
                               SinglePopModel, TwoPopModel, baseline_hazard,
                               simulate_paths)
from pendraw.numerics import NumericalFailure, TimeGrid, WS_STREAM_OFFSET
from pendraw.pricing import (build_coefficient_table, coeffs_single,
                             coeffs_two_pop)

MINIMAL = """
[model]
kind = ou-single

[population1]
nu = 0.0009944
delta = 11.4
m = 86.4515
b = 0.561
sigma = 0.0035

[market]
r = 0.04
theta_s = 0.05
sigma_s = 0.15
theta_1 = -0.0005

[scheme]
phi = 0.8
"""


def shipped_text(kind="ou-single"):
    """The shipped config with another model kind."""
    return default_config_path().read_text() \
        .replace("kind = ou-single", f"kind = {kind}")


class TestLoadConfig:
    def test_shipped_config_is_verbatim(self):
        # modal ages shifted by the retirement age, 65
        gm1 = GompertzMakehamParams(0.0009944, 11.4, 86.4515 - 65.0)
        gm2 = GompertzMakehamParams(0.0009944, 12.9374, 89.18 - 65.0)
        for kind in MODEL_KINDS:
            cfg = loads_config(shipped_text(kind))
            assert cfg.model_kind == kind
            factor = kind.split("-")[0]
            if kind.endswith("-single"):
                assert cfg.model == SinglePopModel(factor, gm1, 0.561, 0.0035)
            else:
                assert cfg.model == TwoPopModel(factor, gm1, gm2, 0.561,
                                                0.0028, 0.65, 0.0035, 0.004,
                                                0.005)
            assert (cfg.b1, cfg.sigma1) == (0.561, 0.0035)
        cfg = load_config(default_config_path())
        assert cfg.model_kind == "ou-single"
        assert (cfg.market.r, cfg.market.theta_s, cfg.market.sigma_s) == \
            (0.04, 0.05, 0.15)
        assert cfg.market.theta_1 == -0.0005
        assert cfg.market.maturity == 20.0
        assert (cfg.scenario.phi, cfg.scenario.y0) == (0.8, 100.0)
        assert (cfg.scenario.horizon, cfg.scenario.dt) == (35.0, 0.1)
        assert (cfg.scenario.n_paths, cfg.scenario.seed) == (100, 42)
        assert cfg.scenario.t_max == 120.0
        assert (cfg.experiment, cfg.out_dir) == ("base", "out")

    def test_values_read_as_configparser_gives_them(self):
        # a [DEFAULT] key is in every section, also a required one; keys are
        # case-blind, and an inline comment is cut
        text = "[DEFAULT]\ny0 = 50\ntheta_1 = -0.001\n" + MINIMAL \
            .replace("theta_1 = -0.0005\n", "") \
            .replace("phi = 0.8", "PHI = 0.5  # half")
        cfg = loads_config(text)
        assert (cfg.scenario.phi, cfg.scenario.y0) == (0.5, 50.0)
        assert cfg.market.theta_1 == -0.001

    def test_defaults_applied(self):
        cfg = loads_config(MINIMAL)
        assert cfg.scenario.horizon == 35.0
        assert cfg.scenario.dt == 0.1
        assert cfg.market.maturity == 20.0
        assert cfg.scenario.t_max == 120.0
        assert cfg.scenario.n_paths == 100
        assert cfg.scenario.seed == 42

    def test_unset_keys_take_the_classes_defaults(self):
        # the loader passes only the keys a file sets, so an unset key gets
        # the default its class states
        cfg = loads_config(MINIMAL)
        assert cfg.scenario == SchemeScenario(phi=0.8)
        assert cfg.market == MarketParams(r=0.04, theta_s=0.05, sigma_s=0.15,
                                          theta_1=-0.0005)

    def test_empty_config_lists_required_keys(self):
        with pytest.raises(ConfigError) as err:
            loads_config("")
        message = str(err.value)
        assert "[model] kind" in message
        assert "[population1] nu" in message
        assert "[scheme] phi" in message

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.cfg")

    def test_equal_mean_reversion_speeds_accepted(self, tmp_path, capsys):
        # b22 == b1 is no singular case: the config loads, and ``policy``
        # prints the G of the annuity evaluator (which the Gauss-Legendre
        # oracle checks at b22 == b1 in tests/test_control.py)
        text = (default_config_path().read_text()
                .replace("kind = ou-single", "kind = ou-sub")
                .replace("b22 = 0.65", "b22 = 0.561"))
        cfg = loads_config(text)
        assert cfg.model.b1 == cfg.model.b22 == 0.561
        cfg_path = tmp_path / "equal.cfg"
        cfg_path.write_text(text)
        for t in (0.0, 30.0):
            lam = [float(baseline_hazard(t, gm)) for gm in cfg.model.factors[2]]
            code = main(["policy", "--config", str(cfg_path), "--t", repr(t),
                         "--lambda1", repr(lam[0]), "--lambda2", repr(lam[1])])
            assert code == 0
            row = capsys.readouterr().out.splitlines()[1].split(",")
            g = annuity_G(cfg.model, cfg.scenario, cfg.market, t,
                          np.array(lam))
            assert row[4] == format_number(g)

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError) as err:
            loads_config(MINIMAL.replace("r = 0.04", "r = banana"))
        assert "[market] r" in str(err.value)

    def test_sweep_requires_values(self):
        text = MINIMAL + "\n[experiment]\nkind = sweep\nsweep_var = phi\n"
        with pytest.raises(ConfigError):
            loads_config(text)

    @pytest.mark.parametrize("line, bad, key", [
        ("phi = 0.8", "phi = nan", "[scheme] phi"),
        ("theta_1 = -0.0005", "theta_1 = nan", "[market] theta_1"),
        ("r = 0.04", "r = inf", "[market] r"),
        ("sigma = 0.0035", "sigma = -inf", "[population1] sigma"),
        ("phi = 0.8", "phi = 0.8\nt_max = inf", "[scheme] t_max"),
    ])
    def test_non_finite_value_rejected(self, line, bad, key):
        with pytest.raises(ConfigError) as err:
            loads_config(MINIMAL.replace(line, bad))
        assert key in str(err.value) and "finite" in str(err.value)

    @pytest.mark.parametrize("values", ["0.0, nan", "inf", "0.5, -inf"])
    def test_non_finite_sweep_value_rejected(self, values):
        text = MINIMAL + ("\n[experiment]\nkind = sweep\nsweep_var = phi\n"
                          f"sweep_values = {values}\n")
        with pytest.raises(ConfigError) as err:
            loads_config(text)
        assert "[experiment] sweep_values" in str(err.value)

    def test_round_trip(self):
        # a config read and written back by configparser, as a tool that
        # edits one does, loads to an equal configuration
        for text in [*map(shipped_text, MODEL_KINDS), MINIMAL]:
            cp = configparser.ConfigParser(interpolation=None)
            cp.read_string(text)
            buf = io.StringIO()
            cp.write(buf)
            assert loads_config(buf.getvalue()) == loads_config(text)

    def test_build_model_shifts_modal_age(self):
        cfg = load_config(default_config_path())
        model = build_model(cfg)
        assert model is cfg.model
        assert isinstance(model, SinglePopModel)
        assert model.gm.m == pytest.approx(86.4515 - 65.0)
        model2 = build_model(loads_config(shipped_text("cir-sub")))
        assert isinstance(model2, TwoPopModel)
        assert model2.kind == "cir"
        assert model2.gm2.m == pytest.approx(89.18 - 65.0)
        kept = loads_config(shipped_text("cir-sub").replace(
            "retirement_age = 65", "retirement_age = 0"))
        assert (kept.model.gm1.m, kept.model.gm2.m) == (86.4515, 89.18)

    def test_pi_loads_only_as_one(self):
        assert loads_config(MINIMAL.replace("phi = 0.8", "phi = 0.8\npi = 1")) \
            == loads_config(MINIMAL)
        with pytest.raises(ConfigError, match=r"\[scheme\] pi must be 1"):
            loads_config(MINIMAL.replace("phi = 0.8", "phi = 0.8\npi = 0.5"))

    def test_single_kind_reads_no_population2_key(self):
        text = shipped_text().replace("b22 = 0.65", "b22 = banana")
        assert loads_config(text) == loads_config(shipped_text())
        with pytest.raises(ConfigError, match=r"\[population2\] b22"):
            loads_config(text.replace("kind = ou-single", "kind = ou-sub"))

    @pytest.mark.parametrize("line, bad, section", [
        ("phi = 0.8", "phi = -1", "[scheme]"),
        ("phi = 0.8", "phi = 0.8\nn_paths = 0", "[scheme]"),
        ("phi = 0.8", "phi = 0.8\nhorizon = 0", "[scheme]"),
        ("phi = 0.8", "phi = 0.8\nt_max = 35", "[scheme]"),
        # 35 is no whole number of steps of 0.3: the simulation grid
        ("phi = 0.8", "phi = 0.8\ndt = 0.3", "[scheme]"),
        ("sigma_s = 0.15", "sigma_s = 0", "[market]"),
        ("theta_1 = -0.0005", "theta_1 = -0.0005\nmaturity = 0", "[market]"),
        # 60 is before the retirement age
        ("m = 86.4515", "m = 60", "[population1]"),
    ])
    def test_rejected_value_names_its_section(self, line, bad, section):
        with pytest.raises(ConfigError) as err:
            loads_config(MINIMAL.replace(line, bad))
        assert str(err.value).startswith(section)

    def test_overrides(self):
        cfg = load_config(default_config_path())
        cfg2 = load_config(default_config_path(),
                           {"scheme": {"seed": 7, "n_paths": 12},
                            "experiment": {"out_dir": "elsewhere"}})
        assert cfg2.out_dir == "elsewhere"
        assert cfg2.scenario.seed == 7
        assert cfg2.scenario.n_paths == 12
        assert cfg2.market == cfg.market

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_key_range_rejected(self, seed):
        # the streams are keyed by the seed as one 64-bit word; reducing it
        # would make -1 and 2**64 - 1 (or 2**64 and 0) one seed
        with pytest.raises(ConfigError, match="seed"):
            loads_config(MINIMAL.replace("phi = 0.8", f"phi = 0.8\nseed = {seed}"))
        with pytest.raises(ConfigError, match="seed"):
            loads_config(MINIMAL, {"scheme": {"seed": seed}})

    @pytest.mark.parametrize("override", [dict(n_paths=0), dict(seed=-1)])
    def test_rejected_override_names_its_section(self, override):
        with pytest.raises(ConfigError) as err:
            loads_config(MINIMAL, {"scheme": override})
        assert str(err.value).startswith("[scheme]")

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_key_range_ends_accepted(self, seed):
        cfg = loads_config(MINIMAL.replace("phi = 0.8", f"phi = 0.8\nseed = {seed}"))
        assert cfg.scenario.seed == seed
        assert loads_config(MINIMAL, {"scheme": {"seed": seed}}) \
            .scenario.seed == seed

    def test_percent_in_number_is_an_invalid_value(self):
        with pytest.raises(ConfigError, match=r"\[population1\] nu"):
            loads_config(MINIMAL.replace("nu = 0.0009944", "nu = 0.0001%"))

    def test_percent_in_out_dir_is_literal(self):
        text = MINIMAL + "\n[experiment]\nout_dir = runs/100%/%(x)s\n"
        cfg = loads_config(text)
        assert cfg.out_dir == "runs/100%/%(x)s"

    def test_sweep_keys_read_for_a_sweep_only(self):
        sweep = ("\n[experiment]\nkind = {}\nsweep_var = kappa\n"
                 "sweep_values = x\n")
        cfg = loads_config(MINIMAL + sweep.format("base"))
        assert (cfg.sweep_var, cfg.sweep_values) == (None, ())
        with pytest.raises(ConfigError, match=r"\[experiment\] sweep_values"):
            loads_config(MINIMAL + sweep.format("sweep"))

    def test_override_replaces_an_unparsed_file_value(self):
        text = MINIMAL.replace("phi = 0.8", "phi = 0.8\nseed = banana")
        with pytest.raises(ConfigError, match=r"\[scheme\] seed"):
            loads_config(text)
        assert loads_config(text, {"scheme": {"seed": 7}}).scenario.seed == 7
        # None leaves the file's key, as an unset flag does
        five = MINIMAL.replace("phi = 0.8", "phi = 0.8\nn_paths = 5")
        assert loads_config(MINIMAL, {"scheme": {"seed": None, "n_paths": 5},
                                      "experiment": {"out_dir": None}}) \
            == loads_config(five)

    def test_each_sweep_value_checked_by_the_config(self):
        # for library callers too, not only by run_experiment
        cfg = loads_config(MINIMAL)
        with pytest.raises(ValueError, match="phi must be >= 0"):
            replace(cfg, experiment="sweep", sweep_var="phi",
                    sweep_values=(0.5, -1.0))
        with pytest.raises(ValueError, match="theta_1 must be finite"):
            replace(cfg, experiment="sweep", sweep_var="theta1",
                    sweep_values=(0.0, float("nan")))
        # the values matter to a sweep only
        base = replace(cfg, sweep_var="phi", sweep_values=(-1.0,))
        assert base.sweep_values == (-1.0,)


def _reference_csv(columns, schema) -> bytes:
    """A CSV written one ``format_number`` call per field."""
    n = next(len(c) for c in columns if not isinstance(c, str))
    cols = [[c] * n if isinstance(c, str) else np.asarray(c).tolist()
            for c in columns]
    lines = [",".join(schema)]
    lines += [",".join(map(format_number, row)) for row in zip(*cols)]
    return ("\n".join(lines) + "\n").encode()


def _matches_reference(tmp_path, columns) -> bool:
    """Whether ``write_csv`` gives ``_reference_csv``'s bytes."""
    schema = [f"c{j}" for j in range(len(columns))]
    path = write_csv(columns, schema, tmp_path / "k.csv")
    return path.read_bytes() == _reference_csv(columns, schema)


def _edge_floats() -> np.ndarray:
    """Doubles at the kernel's edges, each with both signs."""
    tiny = np.finfo(float).tiny
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               1e-310, tiny, np.nextafter(tiny, 0.0), 1e-300, 1e-299,
               np.nextafter(1e-299, 0.0), 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 0.5, 1.5, 2.5, 1 / 3]
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    near = [np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    # 9-digit half-way values (k + 1/2) 10^j, and their neighbours
    halves = np.array([float(f"{k}.5e{j}")
                       for k in (100000000, 123456789, 500000000, 999999999)
                       for j in range(-310, 300, 7)])
    # the %g switch to exponent notation near 1e-4 and 1e9, both sides of
    # the 9-digit rounding
    switch = [9.9999999949e-5, 9.999999995e-5, 9.99999999e-5, 1e-4,
              1.00000000049e-4, 999999999.0, 999999999.4999, 999999999.5,
              1e9, 1000000000.5, 99999.99995, 0.000999999999]
    switch += [np.nextafter(v, d) for v in switch for d in (0.0, np.inf)]
    out = np.concatenate([special, powers, *near, halves,
                          np.nextafter(halves, 0.0), np.nextafter(halves, np.inf),
                          switch])
    return np.concatenate([out, -out])


class TestWriteCsv:
    def test_header_only(self, tmp_path):
        path = write_csv([[], []], ["a", "b"], tmp_path / "empty.csv")
        assert path.read_bytes() == b"a,b\n"

    def test_byte_identical(self, tmp_path):
        columns = [[0.1, 2.5], [1, 3], ["x", "y"]]
        p1 = write_csv(columns, ["t", "n", "tag"], tmp_path / "a.csv")
        p2 = write_csv(columns, ["t", "n", "tag"], tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes() == b"t,n,tag\n0.1,1,x\n2.5,3,y\n"

    def test_nine_significant_digits(self, tmp_path):
        assert format_number(1.0 / 3.0) == "0.333333333"
        assert format_number(1) == "1"
        path = write_csv([[1.0 / 3.0]], ["x"], tmp_path / "c.csv")
        assert path.read_text() == "x\n0.333333333\n"

    def test_format_number_edge_values(self):
        expected = [(-0.0, "-0"), (float("nan"), "nan"), (float("inf"), "inf"),
                    (-float("inf"), "-inf"), (5e-324, "4.94065646e-324"),
                    (1e300, "1e+300"), (2**63 - 1, "9223372036854775807"),
                    (np.int64(-3), "-3"), (np.bool_(True), "1"), (False, "0"),
                    (np.float32(0.1), "0.100000001"), ("", "")]
        for value, text in expected:
            assert format_number(value) == text

    def test_column_kinds_match_format_number(self, tmp_path):
        floats = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300,
                           1.0 / 3.0, 2.5])
        ints = np.array([2**63 - 1, -2**63, 0, 1, -1, 7, 10**12, 3],
                        dtype=np.int64)
        columns = [floats, ints, ints.astype(np.int32), ints.view(np.uint64),
                   np.arange(8) % 3 == 0, list(floats), list(ints),
                   [np.bool_(k % 2) for k in range(8)],
                   [f"tag{k}" for k in range(8)], "", "50%,x"]
        schema = [f"c{j}" for j in range(len(columns))]
        path = write_csv(columns, schema, tmp_path / "kinds.csv")
        lines = [",".join(schema)]
        for k in range(8):
            lines.append(",".join(col if isinstance(col, str)
                                  else format_number(col[k])
                                  for col in columns))
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_column_count_checked(self, tmp_path):
        with pytest.raises(ConfigError):
            write_csv([[1.0], [2.0]], ["x"], tmp_path / "d.csv")
        with pytest.raises(ConfigError):
            write_csv([[1.0]], ["x", "y"], tmp_path / "d.csv")

    @pytest.mark.parametrize("columns", [[[1.0, 2.0], [3.0]],
                                         [np.zeros(3), np.zeros(4), ""],
                                         ["", "only constants"],
                                         [np.zeros((2, 2)), np.zeros(2)],
                                         [[1.0, None], [2.0, 3.0]]])
    def test_bad_columns_rejected(self, tmp_path, columns):
        with pytest.raises(ConfigError):
            write_csv(columns, [f"c{j}" for j in range(len(columns))],
                      tmp_path / "e.csv")

    def test_edge_floats(self, tmp_path):
        assert _matches_reference(tmp_path, [_edge_floats()])

    @pytest.mark.parametrize("column", [
        np.array([-2**63, 2**63 - 1, 0, -1, 1, 10**9 - 1, -(10**9 - 1),
                  10**9, -10**9, 2**53 + 1, 123456789], dtype=np.int64),
        np.array([2**64 - 1, 2**63, 0, 10**9 - 1, 10**9], dtype=np.uint64),
        np.array([-2**31, 2**31 - 1, 0, 7], dtype=np.int32),
        np.array([0, 255, 17], dtype=np.uint8),
        np.array([True, False, True]),
        [np.bool_(True), False, 3],
        np.array([0.1, 3.4028235e38, 1e-45, -2.5, np.nan], dtype=np.float32),
        np.array([0.1, 65504.0, 6e-8, -0.0], dtype=np.float16),
        np.array([0.1, 1e-300, 2.5], dtype=np.longdouble),
        np.zeros(5), -np.zeros(5), np.full(5, np.nan), np.full(5, -np.inf),
        [1, 2.5, 3], [], ["a,b", "", "100%"],
        np.array([b"x", b"yz"]),
    ], ids=lambda c: str(np.asarray(c).dtype))
    def test_column_kinds(self, tmp_path, column):
        assert _matches_reference(tmp_path, [column])

    def test_kernel_leaves_its_input_unchanged(self):
        # ``write_csv`` hands the kernel a float64 column's own block, not a
        # copy of it
        from pendraw import csvkernel
        x = np.concatenate([_edge_floats(), [1.0 / 3.0, -2.5, 0.0, -0.0]])
        before = x.tobytes()
        words, masks, [(cols, tail)] = csvkernel._row_layout(["", "\n"],
                                                             x.size)
        csvkernel._g9(x, words[:, cols], masks[:, cols], tail)
        assert x.tobytes() == before

    def test_fallback_rows_across_blocks(self, tmp_path, monkeypatch):
        # blocks of 7 rows, fallback rows at block starts and ends, a str
        # constant first and between columns, and a string column
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 7)
        n = 40
        x = np.linspace(-3.0, 3.0, n) ** 3
        x[[0, 6, 7, 13, 20, 39]] = [np.nan, np.inf, -np.inf, 5e-324,
                                   float("1.0000000005"), np.nan]
        ids = np.arange(n) * 10**8         # from 10^9 on, past the kernel
        tags = np.array([f"é{k}" for k in range(n)])
        for columns in ([x, ids], ["lead", x, "mid,x", ids, ""],
                        [x, tags, ids]):
            assert _matches_reference(tmp_path, columns)

    def test_kernel_formats_ordinary_values(self, tmp_path, monkeypatch):
        # the fallback sees the values that need it, and no others
        seen = []

        def counted(value):
            seen.append(value)
            return format_number(value)

        monkeypatch.setattr(experiments, "format_number", counted)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2000) * 10.0 ** rng.integers(-290, 290, 2000)
        ids = rng.integers(-10**9 + 1, 10**9, 2000)
        assert _matches_reference(tmp_path, [x, ids, "c"])
        assert seen == []
        x[5] = np.nan
        assert _matches_reference(tmp_path, [x, ids])
        assert len(seen) == 2 and np.isnan(seen[0]) and seen[1] == ids[5]


def _reference_field(value) -> str:
    """The per-field rule the columnar writer must reproduce."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _reference_dump_rows(paths):
    """The hazard dump written one field at a time."""
    for i in range(paths.n_paths):
        for k, t in enumerate(paths.grid.nodes):
            lam = [h[i, k] for h in paths.hazards] + [""]
            yield (t, i, lam[0], lam[1], paths.survival[i, k])


# an OU dump whose hazards dip below zero, and below 1e-4 in magnitude: the
# members' and the bond population's volatilities raised tenfold
OU_DIPS = ("ou-sub", {"sigma = 0.0035": "sigma = 0.035",
                      "sigma22 = 0.0050": "sigma22 = 0.05"})


class TestMortalityDumpBytes:
    @pytest.mark.parametrize("kind, edits", [
        ("ou-single", {}), ("ou-sub", {}), ("cir-sub", {}), OU_DIPS],
        ids=["ou-single", "ou-sub", "cir-sub", "ou-sub-dips"])
    def test_dump_over_several_blocks_matches_per_field(self, tmp_path, kind,
                                                        edits):
        text = shipped_text(kind)
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg_path = tmp_path / "kind.cfg"
        cfg_path.write_text(text)
        n_paths = 25
        assert main(["mortality", "--config", str(cfg_path), "--paths",
                     str(n_paths), "--seed", "5",
                     "--out", str(tmp_path / "m")]) == 0
        cfg = load_config(cfg_path)
        sc = cfg.scenario
        paths = simulate_paths(build_model(cfg),
                               TimeGrid(0.0, sc.horizon, sc.dt), n_paths, 5)
        lines = ["time,path_id,lambda1,lambda2,survival"]
        lines += [",".join(map(_reference_field, row))
                  for row in _reference_dump_rows(paths)]
        assert len(lines) - 1 > experiments._BLOCK_ROWS
        got = (tmp_path / "m" / "paths.csv").read_text().split("\n")
        # the first line that differs, not a diff of the whole file
        assert got[-1] == "" and len(got) - 1 == len(lines)
        assert next(((k, g, w) for k, (g, w) in enumerate(zip(got, lines))
                     if g != w), None) is None
        if edits:
            # negative hazards, and exponent notation, in real output
            hazards = [row.split(",")[2:4] for row in lines[1:]]
            assert any(h.startswith("-") for row in hazards for h in row)
            assert any("e-" in h for row in hazards for h in row)


class TestSuiteCsvBytes:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_suite_file_matches_per_field(self, tmp_path, monkeypatch,
                                                kind):
        written = []

        def checked(columns, schema, path):
            out = write_csv(columns, schema, path)
            assert out.read_bytes() == _reference_csv(columns, schema)
            written.append(out.name)
            return out

        monkeypatch.setattr(experiments, "write_csv", checked)
        monkeypatch.setattr(cli, "write_csv", checked)
        cfg_path = tmp_path / "k.cfg"
        cfg_path.write_text(shipped_text(kind))
        common = ["--config", str(cfg_path), "--paths", "6",
                  "--out", str(tmp_path / "o")]
        for argv in (["simulate"], ["compare"],
                     ["sweep", "--var", "theta1", "--values=-0.0015,-0.003"],
                     ["sweep", "--var", "phi", "--values=0.5,1"],
                     ["coeffs", "--t", "7.31", "--s-step", "0.5"]):
            assert main(argv + common) == 0
        assert len(written) == 3 + 2 + 3 + 3 + 1


def small_config(tmp_path, extra=""):
    text = MINIMAL + f"\n[experiment]\nkind = base\nout_dir = {tmp_path}/out\n" \
        + extra
    text = text.replace("phi = 0.8", "phi = 0.8\nn_paths = 8\n")
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(text)
    return cfg_path


class TestRunExperiment:
    def test_base_outputs_and_determinism(self, tmp_path):
        cfg = load_config(small_config(tmp_path),
                          {"experiment": {"out_dir": str(tmp_path / "run1")}})
        result = run_experiment(cfg)
        names = sorted(p.name for p in result.files)
        assert names == ["mortality.csv", "trajectory.csv", "weights.csv"]
        cfg2 = replace(cfg, out_dir=str(tmp_path / "run2"))
        run_experiment(cfg2)
        for name in names:
            assert (tmp_path / "run1" / name).read_bytes() == \
                (tmp_path / "run2" / name).read_bytes()
        assert "seed" in result.summary
        # the stock-weight column is the constant ratio theta_s / sigma_s
        weight_rows = (tmp_path / "run1" / "weights.csv").read_text() \
            .splitlines()[1:]
        assert {row.split(",")[1] for row in weight_rows} == {"0.333333333"}

    def test_compare_outputs(self, tmp_path):
        cfg = load_config(small_config(tmp_path),
                          {"experiment": {"kind": "compare",
                                          "out_dir": str(tmp_path / "cmp")}})
        result = run_experiment(cfg)
        names = sorted(p.name for p in result.files)
        assert names == ["comparison.csv", "totals.csv"]

    def test_compare_is_the_one_arm_theta1_sweep(self, tmp_path, monkeypatch):
        cfg = load_config(small_config(tmp_path), {"scheme": {"n_paths": 5}})
        # the anchors of each G surface evaluation, one entry per surface
        g_calls = []
        g_pieces_at = scheme._g_pieces_at

        def counted_g(*args, **kwargs):
            g_calls.append(len(args[3]))
            return g_pieces_at(*args, **kwargs)

        monkeypatch.setattr(scheme, "_g_pieces_at", counted_g)
        n_nodes = round(cfg.scenario.horizon / cfg.scenario.dt) + 1
        run_experiment(replace(cfg, experiment="compare",
                               out_dir=str(tmp_path / "cmp")))
        # both arms, no-bond and optimal, share one G surface over every node
        assert g_calls == [n_nodes]
        run_experiment(replace(cfg, experiment="sweep", sweep_var="theta1",
                               sweep_values=(cfg.market.theta_1,),
                               out_dir=str(tmp_path / "sw")))
        assert g_calls == [n_nodes, n_nodes]

        def columns(name, fields):
            header, *rows = (tmp_path / name).read_text().splitlines()
            at = [header.split(",").index(f) for f in fields]
            return [[row.split(",")[i] for i in at] for row in rows]

        gains = ["mean_withdraw_gain", "mean_compensation_gain"]
        assert columns("cmp/comparison.csv", gains) == \
            columns("sw/sweep_theta1_0.csv", gains)
        totals = ["arm", "mean_discounted_benefit",
                  "mean_discounted_compensation"]
        no_bond, optimal = columns("cmp/totals.csv", totals)
        assert (no_bond[0], optimal[0]) == ("no_bond", "optimal")
        assert optimal[1:] == columns("sw/sweep_theta1_summary.csv",
                                      totals[1:])[0]

    def test_sweep_draws_the_stock_noise_once(self, tmp_path, monkeypatch):
        cfg = load_config(small_config(tmp_path), {"scheme": {"n_paths": 5}})
        offsets = []
        normal_block = scheme.normal_block

        def counted(seed, offset, *args):
            offsets.append(offset)
            return normal_block(seed, offset, *args)

        monkeypatch.setattr(scheme, "normal_block", counted)
        run_experiment(replace(cfg, experiment="sweep", sweep_var="theta1",
                               sweep_values=(0.0, -0.003),
                               out_dir=str(tmp_path / "sw")))
        # three arms, the no-bond reference and two values, on one surface
        assert offsets == [WS_STREAM_OFFSET]

    @pytest.mark.parametrize("change", [
        dict(experiment="bogus"),
        dict(experiment="sweep", sweep_var=None, sweep_values=(0.5,)),
        dict(experiment="sweep", sweep_var="kappa", sweep_values=(0.5,)),
        dict(experiment="sweep", sweep_var="phi", sweep_values=()),
    ], ids=["kind", "no-var", "unknown-var", "no-values"])
    def test_bad_experiment_rejected_before_any_output(self, tmp_path, change):
        with pytest.raises(ConfigError, match="experiment"):
            run_experiment(replace(load_config(small_config(tmp_path)),
                                   out_dir=str(tmp_path / "never"), **change))
        assert not (tmp_path / "never").exists()

    def test_theta1_sweep_monotone_bond_weight(self, tmp_path):
        cfg = load_config(small_config(tmp_path), {
            "experiment": {"kind": "sweep", "sweep_var": "theta1",
                           "sweep_values": (0.0, -0.0015, -0.003),
                           "out_dir": str(tmp_path / "sw")}})
        result = run_experiment(cfg)
        first_weights = []
        for i in range(3):
            lines = (tmp_path / "sw" / f"sweep_theta1_{i}.csv").read_text() \
                .splitlines()
            first_weights.append(float(lines[1].split(",")[3]))
        assert first_weights[0] < first_weights[1] < first_weights[2]
        assert (tmp_path / "sw" / "sweep_theta1_summary.csv").exists()

    def test_two_population_base_runs(self, tmp_path):
        text = (default_config_path().read_text()
                .replace("kind = ou-single", "kind = ou-sub")
                .replace("n_paths = 100", "n_paths = 6"))
        cfg_path = tmp_path / "sub.cfg"
        cfg_path.write_text(text)
        cfg = load_config(cfg_path,
                          {"experiment": {"out_dir": str(tmp_path / "sub")}})
        run_experiment(cfg)
        lines = (tmp_path / "sub" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 352  # header + 351 grid nodes

    def test_sweep_determinism(self, tmp_path):
        cfg = load_config(small_config(tmp_path), {
            "scheme": {"n_paths": 6},
            "experiment": {"kind": "sweep", "sweep_var": "theta1",
                           "sweep_values": (0.0, -0.003)}})
        run_experiment(replace(cfg, out_dir=str(tmp_path / "x")))
        run_experiment(replace(cfg, out_dir=str(tmp_path / "y")))
        for name in ("sweep_theta1_0.csv", "sweep_theta1_1.csv",
                     "sweep_theta1_summary.csv"):
            assert (tmp_path / "x" / name).read_bytes() == \
                (tmp_path / "y" / name).read_bytes()

    def test_phi_sweep_monotone_compensation(self, tmp_path):
        cfg = load_config(small_config(tmp_path), {
            "experiment": {"kind": "sweep", "sweep_var": "phi",
                           "sweep_values": (0.0, 0.5, 1.0),
                           "out_dir": str(tmp_path / "swp")}})
        run_experiment(cfg)
        rows = (tmp_path / "swp" / "sweep_phi_summary.csv").read_text() \
            .splitlines()[1:]
        improvements = [float(r.split(",")[4]) for r in rows]
        assert improvements[0] == pytest.approx(0.0, abs=1e-12)
        assert improvements[0] < improvements[1] < improvements[2]

    @pytest.mark.parametrize("var", ["theta1", "phi"])
    def test_sweep_simulates_reference_arm_once(self, tmp_path, monkeypatch,
                                                var):
        values = (0.0, -0.003) if var == "theta1" else (0.5, 1.0)
        cfg = load_config(small_config(tmp_path), {
            "scheme": {"n_paths": 3},
            "experiment": {"kind": "sweep", "sweep_var": var,
                           "sweep_values": values,
                           "out_dir": str(tmp_path / "sw")}})
        g_calls, arms = [], []
        g_pieces_at = scheme._g_pieces_at
        simulate_scheme = experiments.simulate_scheme

        def counted_g(*args, **kwargs):
            g_calls.append(len(args[3]))
            return g_pieces_at(*args, **kwargs)

        def counted_arm(*args, **kwargs):
            traj = simulate_scheme(*args, **kwargs)
            arms.append(traj)
            return traj

        monkeypatch.setattr(scheme, "_g_pieces_at", counted_g)
        monkeypatch.setattr(experiments, "simulate_scheme", counted_arm)
        run_experiment(cfg)
        n_nodes = round(cfg.scenario.horizon / cfg.scenario.dt) + 1
        assert len(arms) == len(values) + 1
        # every arm, theta1 and phi alike, shares one G surface, evaluated
        # once over every node
        assert g_calls == [n_nodes]

    @pytest.mark.parametrize("var", ["theta1", "phi"])
    def test_sweep_discounts_each_arm_once(self, tmp_path, monkeypatch, var):
        values = (0.0, -0.003, -0.006) if var == "theta1" else (0.5, 1.0)
        cfg = load_config(small_config(tmp_path), {
            "scheme": {"n_paths": 3},
            "experiment": {"kind": "sweep", "sweep_var": var,
                           "sweep_values": values,
                           "out_dir": str(tmp_path / "sw")}})
        discounted = []
        totals = scheme.discounted_totals
        monkeypatch.setattr(scheme, "discounted_totals",
                            lambda traj, r: discounted.append(traj)
                            or totals(traj, r))
        run_experiment(cfg)
        # the reference arm once, for every report, and each arm once
        assert len(discounted) == len(values) + 1
        assert len({id(traj) for traj in discounted}) == len(values) + 1

    def test_sweep_releases_each_arm_before_the_next(self, tmp_path,
                                                     monkeypatch):
        cfg = load_config(small_config(tmp_path), {
            "scheme": {"n_paths": 3},
            "experiment": {"kind": "sweep", "sweep_var": "theta1",
                           "sweep_values": (0.0, -0.003),
                           "out_dir": str(tmp_path / "sw")}})
        arms, alive = [], []
        simulate_scheme = experiments.simulate_scheme

        def watched_arm(*args, **kwargs):
            # calls: the reference arm, the first arm, the second arm
            alive.extend(arm() is not None for arm in arms[1:])
            traj = simulate_scheme(*args, **kwargs)
            arms.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(experiments, "simulate_scheme", watched_arm)
        run_experiment(cfg)
        assert len(arms) == 3
        # the first arm is gone when the second is simulated
        assert alive == [False]

    @pytest.mark.parametrize("var", ["theta1", "phi"])
    def test_sweep_matches_independent_arms(self, tmp_path, var):
        values = (0.0, -0.003) if var == "theta1" else (0.5, 1.0)
        cfg = load_config(small_config(tmp_path), {
            "scheme": {"n_paths": 3},
            "experiment": {"kind": "sweep", "sweep_var": var,
                           "sweep_values": values,
                           "out_dir": str(tmp_path / "sw")}})
        run_experiment(cfg)
        model, sc, market = build_model(cfg), cfg.scenario, cfg.market
        paths = simulate_paths(model, TimeGrid(0.0, sc.horizon, sc.dt),
                               sc.n_paths, sc.seed)
        # each arm on its own surface: equal keys on the same paths
        if var == "theta1":
            ref = scheme.simulate_scheme(
                scheme.g_surface(model, sc, market, paths), sc, market,
                scheme.NO_BOND)
        else:
            ref_sc = replace(sc, phi=0.0)
            ref = scheme.simulate_scheme(
                scheme.g_surface(model, ref_sc, market, paths), ref_sc,
                market, scheme.OPTIMAL)
        summary = []
        for i, value in enumerate(values):
            if var == "theta1":
                arm = (sc, replace(market, theta_1=value))
            else:
                arm = (replace(sc, phi=value), market)
            traj = scheme.simulate_scheme(
                scheme.g_surface(model, *arm, paths), *arm, scheme.OPTIMAL)
            report = scheme.ComparisonReport.of(ref, traj)
            columns = [paths.grid.nodes, [value] * paths.grid.nodes.size,
                       traj.stock_weight.mean(axis=0),
                       traj.bond_weight.mean(axis=0),
                       traj.cash_weight.mean(axis=0),
                       report.mean_withdraw_gain,
                       report.mean_compensation_gain]
            name = f"sweep_{var}_{i}.csv"
            write_csv(columns, ["time", "value", "w_stock", "w_bond", "w_cash",
                             "mean_withdraw_gain", "mean_compensation_gain"],
                      tmp_path / name)
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / "sw" / name).read_bytes()
            summary.append((value, report.totals_b.mean_benefit,
                            report.totals_b.mean_compensation,
                            report.benefit_improvement,
                            report.compensation_improvement))
        name = f"sweep_{var}_summary.csv"
        write_csv(list(zip(*summary)), ["value", "mean_discounted_benefit",
                            "mean_discounted_compensation",
                            "benefit_improvement", "compensation_improvement"],
                  tmp_path / name)
        assert (tmp_path / name).read_bytes() == \
            (tmp_path / "sw" / name).read_bytes()


class TestCli:
    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nkind = nope\n")
        assert main(["simulate", "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_smoke(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(small_config(tmp_path)),
                     "--out", str(tmp_path / "o"), "--paths", "5"])
        assert code == 0
        assert (tmp_path / "o" / "trajectory.csv").exists()

    def test_mortality_dump(self, tmp_path, capsys):
        code = main(["mortality", "--config", str(small_config(tmp_path)),
                     "--out", str(tmp_path / "m"), "--paths", "3"])
        assert code == 0
        header = (tmp_path / "m" / "paths.csv").read_text().splitlines()[0]
        assert header == "time,path_id,lambda1,lambda2,survival"

    def test_coeffs_csv(self, tmp_path, capsys):
        code = main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(tmp_path / "c"), "--t", "0", "--s-max", "5",
                     "--s-step", "1"])
        assert code == 0
        lines = (tmp_path / "c" / "coeffs.csv").read_text().splitlines()
        assert lines[0] == "t,s,A0_or_C0,A1_or_C1,C2"
        assert len(lines) == 7  # header + s in {0..5}
        # terminal condition on the first row
        assert [float(x) for x in lines[1].split(",")[:4]] == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_coeffs_rejects_non_positive_step(self, tmp_path, capsys, step):
        out = tmp_path / "c"
        code = main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--s-max", "5", "--s-step", step])
        assert code == 1
        assert "--s-step" in capsys.readouterr().err
        assert not (out / "coeffs.csv").exists()

    def test_coeffs_rejects_row_count_over_limit(self, tmp_path, capsys):
        out = tmp_path / "c"
        start = time.perf_counter()
        code = main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--s-step", "1e-300"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "--s-step" in capsys.readouterr().err
        assert not out.exists()

    def test_coeffs_rejects_a_span_past_t_max(self, tmp_path, capsys):
        # 10 maturities, but a tau pass of 2e7 nodes; a span of t_max is
        # the longest that passes
        out = tmp_path / "c"
        code = main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--s-max", "1e6", "--s-step", "1e5"])
        assert code == 1
        assert "--s-max" in capsys.readouterr().err
        assert not out.exists()
        assert main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--t", "0.5", "--s-max", "120.5",
                     "--s-step", "40"]) == 0
        assert len((out / "coeffs.csv").read_text().splitlines()) == 5

    def test_coeffs_bound_counts_the_rows_written(self, tmp_path, capsys):
        # (s_max - t) / s_step = 1000, but at t = 30 a step of 1e-15 is
        # below half a unit in the last place, so the repeated sum never
        # moves past t
        out = tmp_path / "c"
        code = main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--t", "30", "--s-max",
                     "30.000000000001", "--s-step", "1e-15"])
        assert code == 1
        assert "--s-step" in capsys.readouterr().err
        assert not out.exists()

    def test_coeffs_names_a_step_that_does_not_advance_s(self, tmp_path,
                                                         capsys):
        out = tmp_path / "c"
        code = main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--t", "30", "--s-max",
                     "30.000000000001", "--s-step", "1e-15"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--s-step 1e-15 does not advance s past 30.0" in err
        assert "maturities" not in err
        assert not out.exists()

    @pytest.mark.parametrize("step, n_after", [("1e-12", 100),
                                               ("1e-13", 1000)])
    def test_coeffs_steps_below_1e_9_end_at_s_max(self, tmp_path, step,
                                                  n_after):
        out = tmp_path / "c"
        assert main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--t", "0", "--s-max", "1e-10",
                     "--s-step", step]) == 0
        rows = [line.split(",") for line in
                (out / "coeffs.csv").read_text().splitlines()[1:]]
        assert len(rows) == 1 + n_after
        s = [float(row[1]) for row in rows]
        assert s == sorted(s)
        assert s[-1] == pytest.approx(1e-10, rel=1e-9)
        # each row's coefficients are those of its own maturity
        assert len({tuple(row[2:]) for row in rows}) == len(rows)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_coeffs_default_maturities_are_whole_years(self, tmp_path, kind):
        cfg_path = tmp_path / "k.cfg"
        cfg_path.write_text(shipped_text(kind))
        assert main(["coeffs", "--config", str(cfg_path),
                     "--out", str(tmp_path / "c")]) == 0
        lines = (tmp_path / "c" / "coeffs.csv").read_text().splitlines()
        # s = t = 0 and every whole year up to the 35-year horizon
        assert [line.split(",")[1] for line in lines[1:]] == \
            [str(s) for s in range(36)]

    def test_coeffs_writes_the_largest_request(self, tmp_path):
        out = tmp_path / "c"
        assert main(["coeffs", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--t", "0", "--s-max", "1",
                     "--s-step", str(1.0 / MAX_COEFF_ROWS)]) == 0
        lines = (out / "coeffs.csv").read_text().splitlines()
        # the header, the row s = t and MAX_COEFF_ROWS maturities after it
        assert len(lines) == 2 + MAX_COEFF_ROWS
        assert lines[-1].split(",")[1] == "1"

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("extra", [
        ["--t", "0"], ["--t", "2.5", "--s-step", "0.1", "--s-max", "10"]])
    def test_coeffs_csv_matches_scalar_routes(self, tmp_path, capsys, kind,
                                              extra):
        cfg_path = tmp_path / "k.cfg"
        cfg_path.write_text(shipped_text(kind))
        assert main(["coeffs", "--config", str(cfg_path),
                     "--out", str(tmp_path / "c"), *extra]) == 0
        model = load_config(cfg_path).model
        lines = (tmp_path / "c" / "coeffs.csv").read_text().splitlines()
        assert lines[1].split(",")[2:4] == ["0", "0"]  # the row s = t
        for line in lines[1:]:
            t, s, *got = line.split(",")
            if model.n_factors == 1:
                c = coeffs_single(model, float(t), float(s))
                want = (c.a0, c.a1)
                assert got[2] == ""
            else:
                c = coeffs_two_pop(model, float(t), float(s))
                want = (c.c0, c.c1, c.c2)
            assert [float(x) for x in got[:len(want)]] == \
                pytest.approx(want, rel=1e-7, abs=5e-9)

    def test_coeffs_csv_two_population(self, tmp_path, capsys):
        text = default_config_path().read_text() \
            .replace("kind = ou-single", "kind = ou-sub")
        cfg_path = tmp_path / "sub.cfg"
        cfg_path.write_text(text)
        code = main(["coeffs", "--config", str(cfg_path),
                     "--out", str(tmp_path / "c2"), "--s-max", "3"])
        assert code == 0
        lines = (tmp_path / "c2" / "coeffs.csv").read_text().splitlines()
        last = lines[-1].split(",")
        assert float(last[4]) > 0.0  # C2 column populated

    def test_policy_row(self, tmp_path, capsys):
        code = main(["policy", "--config", str(small_config(tmp_path)),
                     "--t", "0", "--wealth", "100"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("t,lambda1,")
        values = out[1].split(",")
        assert float(values[6]) == pytest.approx(1.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("kind, extra", [
        ("ou-single", ["--t", "120"]),
        ("ou-single", ["--t", "130.5"]),
        ("cir-sub", ["--t", "120"]),
        ("ou-single", ["--t", "inf"]),
        ("ou-single", ["--t", "nan"]),
        ("ou-single", ["--wealth", "nan"]),
        ("ou-single", ["--wealth", "inf"]),
        ("ou-single", ["--wealth", "0"]),
        ("ou-single", ["--lambda1", "nan"]),
        ("cir-single", ["--lambda1", "inf"]),
        ("ou-sub", ["--lambda2", "nan"]),
        ("cir-single", ["--lambda1", "-0.01"]),
        ("cir-sub", ["--lambda2", "-0.5"]),
    ])
    def test_policy_rejects_invalid_state(self, tmp_path, capsys, kind, extra):
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(default_config_path().read_text()
                            .replace("kind = ou-single", f"kind = {kind}"))
        code = main(["policy", "--config", str(cfg_path), *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_policy_accepts_negative_ou_hazard(self, tmp_path, capsys):
        # an OU hazard is Gaussian and may be negative; only CIR's is not
        code = main(["policy", "--config", str(small_config(tmp_path)),
                     "--lambda1", "-0.001"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[1].split(",")[1] == "-0.001"

    @pytest.mark.parametrize("kind", ["ou-single", "cir-single"])
    @pytest.mark.parametrize("value", ["nan", "0.02"])
    def test_policy_rejects_lambda2_on_one_population(self, tmp_path, capsys,
                                                      kind, value):
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(shipped_text(kind))
        code = main(["policy", "--config", str(cfg_path), "--lambda2", value])
        captured = capsys.readouterr()
        assert code == 1
        assert "--lambda2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["ou-single", "cir-sub"])
    def test_policy_defaults_hazards_to_their_baseline_at_t(self, tmp_path,
                                                            capsys, kind):
        # an unset --lambda<k> is factor k's baseline hazard at --t, not its
        # value at t = 0
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(shipped_text(kind))
        assert main(["policy", "--config", str(cfg_path), "--t", "30"]) == 0
        values = capsys.readouterr().out.splitlines()[1].split(",")
        cfg = load_config(cfg_path)
        lam = [baseline_hazard(30.0, gm) for gm in cfg.model.factors[2]]
        want = [format_number(v) for v in lam] + [""] * (2 - len(lam))
        assert values[1:3] == want
        g = annuity_G(cfg.model, cfg.scenario, cfg.market, 30.0,
                      np.array(lam))
        assert values[4] == format_number(g)

    def test_policy_rejects_t_that_rounds_to_t_max(self, tmp_path, capsys):
        code = main(["policy", "--config", str(small_config(tmp_path)),
                     "--t", "119.9999999999"])
        captured = capsys.readouterr()
        assert code == 1
        assert "rounds to 120.0" in captured.err
        assert captured.out == ""

    def test_policy_at_a_zero_decay_rate(self, tmp_path, capsys):
        # r = 0, nu = 0 and a Gompertz term that underflows at t = 0 give
        # G's integrand a decay rate of exactly zero, which needs no smaller
        # stride
        text = (default_config_path().read_text().replace("r = 0.04", "r = 0")
                .replace("nu = 0.0009944", "nu = 0", 1)
                .replace("delta = 11.4", "delta = 0.02"))
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(text)
        code = main(["policy", "--config", str(cfg_path), "--t", "0",
                     "--lambda1", "0.01"])
        assert code == 0
        values = capsys.readouterr().out.splitlines()[1].split(",")
        assert np.isfinite(float(values[4])) and float(values[4]) > 0.0

    @pytest.mark.parametrize("kind", ["cir-single", "cir-sub"])
    def test_policy_at_a_fast_cir_reversion(self, tmp_path, capsys, kind):
        # b = 40 puts eta T = 800 into the bond's A1(T), past exp's overflow
        # at 709.8: the growing form of ``a1_cir`` printed a bond weight of
        # nan and exited 0. A1(T) is now the fixed point 2 / (b + eta).
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(shipped_text(kind).replace("b = 0.561", "b = 40"))
        assert main(["policy", "--config", str(cfg_path), "--t", "10"]) == 0
        values = capsys.readouterr().out.splitlines()[1].split(",")
        cfg = load_config(cfg_path)
        lam = [float(v) for v in values[1:3] if v]
        g, grad = g_and_gradient(cfg.model, cfg.scenario, cfg.market, 10.0,
                                 np.array([lam]))
        big_s = cfg.model.factors[1]
        eta = np.hypot(40.0, np.sqrt(2.0) * big_s[0, 0])
        a1 = 2.0 / (40.0 + eta)
        want = (cfg.market.theta_1 + big_s[:, 0].sum() * grad[0, 0] / g[0]) \
            / (-a1 * big_s[0, 0])
        assert float(values[7]) == pytest.approx(want, rel=1e-8)
        assert np.isfinite(float(values[8]))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("t", [36.0, 60.0, 119.0])
    def test_policy_past_the_gompertz_overflow(self, tmp_path, capsys, kind,
                                               t):
        # at delta = 0.02, e^{(s - m)/delta} overflows for every s past
        # m + 709.8 delta = 35.65 in population 1's curve; its k0 term is
        # zero at tau = 0, so an exponent of inf there gave G = NaN
        text = (shipped_text(kind).replace("r = 0.04", "r = 0")
                .replace("nu = 0.0009944", "nu = 0", 1)
                .replace("delta = 11.4", "delta = 0.02"))
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(text)
        code = main(["policy", "--config", str(cfg_path), "--t", str(t),
                     "--lambda1", "0.01"])
        captured = capsys.readouterr()
        cfg = load_config(cfg_path)
        # --lambda2 defaults to the members' baseline hazard at t
        lam = [0.01] + [float(baseline_hazard(t, gm))
                        for gm in cfg.model.factors[2][1:]]
        args = (cfg.model, cfg.scenario, cfg.market, t, np.array([lam]))
        if code == 0:
            g = float(captured.out.splitlines()[1].split(",")[4])
            assert np.isfinite(g) and g > 0.0
            assert np.isfinite(g_and_gradient(*args)[1]).all()
        else:
            # the members' survival expectation overflows
            assert code == 2 and "numerical failure" in captured.err
            assert captured.out == ""
            with pytest.raises(NumericalFailure):
                g_and_gradient(*args)
        if cfg.model.n_factors == 1:
            assert code == 0

    @pytest.mark.parametrize("kind, deltas", [
        *((kind, ("11.4",)) for kind in MODEL_KINDS),
        # both populations' terms overflow, with opposite signs, from
        # s = 24.89: population 1's grows e^{2730} times faster there, so
        # it sets the limit, where inf - inf gave NaN
        ("ou-sub", ("11.4", "12.9374")), ("cir-sub", ("11.4", "12.9374"))],
        ids=[*MODEL_KINDS, "ou-sub-both", "cir-sub-both"])
    def test_coeffs_past_the_gompertz_overflow(self, tmp_path, kind, deltas):
        # at delta = 0.001, e^{(s - m)/delta} overflows for every s past
        # m + 709.8 delta = 22.16 in population 1's curve: K0 reaches its
        # infinite limit there, where a capped exponent left a plateau
        text = shipped_text(kind).replace("r = 0.04", "r = 0")
        for delta in deltas:
            text = text.replace(f"delta = {delta}", "delta = 0.001")
        cfg_path = tmp_path / "k.cfg"
        cfg_path.write_text(text)
        assert main(["coeffs", "--config", str(cfg_path), "--s-max", "40",
                     "--out", str(tmp_path / "o")]) == 0
        rows = [row.split(",") for row in
                (tmp_path / "o" / "coeffs.csv").read_text().splitlines()[1:]]
        a0 = np.array([float(row[2]) for row in rows])
        assert not np.isnan(a0).any()
        finite = a0[np.isfinite(a0)]
        assert np.unique(finite).size == finite.size == 23
        # one population: the survival factor falls to 0; two: population
        # 1's term in the members' K0 grows without bound
        limit = "-inf" if load_config(cfg_path).model.n_factors == 1 else "inf"
        assert [row[2] for row in rows[23:]] == [limit] * (len(rows) - 23)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("extra", [
        ["--t", "7.31", "--s-step", "0.37", "--s-max", "20"],
        ["--t", "0", "--s-step", "0.05", "--s-max", "3"]])
    def test_coeffs_reads_one_tau_pass(self, tmp_path, monkeypatch, kind,
                                       extra):
        # every row is the last node of the table from t to its s, read off
        # one pass: the per-maturity tables would each miss the cache
        cfg_path = tmp_path / "k.cfg"
        cfg_path.write_text(shipped_text(kind))
        written = []
        monkeypatch.setattr(cli, "write_csv",
                            lambda columns, *rest: written.append(columns)
                            or write_csv(columns, *rest))
        pricing._tau_table.cache_clear()
        assert main(["coeffs", "--config", str(cfg_path),
                     "--out", str(tmp_path / "c"), *extra]) == 0
        info = pricing._tau_table.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        model = load_config(cfg_path).model
        (t, s, *k), = written
        s_max = float(extra[-1])
        for i in range(1, len(s)):
            tab = build_coefficient_table(model, t[i], min(s[i], s_max))
            assert [c[i] for c in k[:1 + model.n_factors]] == \
                [tab.k0[-1], *tab.k[:, -1]]

    def test_sweep_leaves_numpy_ma_unloaded(self, tmp_path):
        # numpy.ma (loaded by np.unique, among others) adds about 2 MB of
        # resident memory to every run that imports it
        code = ("import sys; from pendraw.cli import main; "
                f"code = main(['sweep', '--config', {str(small_config(tmp_path))!r}, "
                f"'--out', {str(tmp_path / 's')!r}, '--var', 'theta1', "
                "'--values=0,-0.003', '--paths', '3']); "
                "print(code, 'numpy.ma' in sys.modules)")
        src = str(Path(pendraw.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "0 False"

    def test_sweep_needs_var(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(small_config(tmp_path)),
                     "--out", str(tmp_path / "never")]) == 1
        # the message names both the flags and the config keys
        err = capsys.readouterr().err
        assert "--var" in err and "[experiment] sweep_var" in err
        assert not (tmp_path / "never").exists()

    def test_sweep_smoke(self, tmp_path):
        code = main(["sweep", "--config", str(small_config(tmp_path)),
                     "--out", str(tmp_path / "s"), "--var", "phi",
                     "--values", "0,1", "--paths", "5"])
        assert code == 0
        assert (tmp_path / "s" / "sweep_phi_summary.csv").exists()

    @pytest.mark.parametrize("values", ["--values=nan,inf", "--values=0,nan",
                                        "--values=-inf"])
    def test_sweep_rejects_non_finite_values(self, tmp_path, capsys, values):
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--var", "phi", values])
        assert code == 1
        assert "--values value must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_out_of_range_value_before_any_output(
            self, tmp_path, capsys):
        # SchemeScenario's own rule on phi, met before any arm is simulated
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--var", "phi", "--values=0.5,-1"])
        assert code == 1
        assert "phi must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_config_value_exits_1(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text()
                            .replace("phi = 0.8", "phi = nan"))
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert "[scheme] phi must be finite" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_pi_other_than_one_exits_1_before_any_output(self, tmp_path,
                                                         capsys):
        cfg_path = small_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text()
                            .replace("phi = 0.8", "phi = 0.8\npi = 0.5"))
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert "[scheme] pi must be 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_sweep_negative_values_both_forms(self, tmp_path, monkeypatch):
        import pendraw.cli as cli

        seen = []

        def record(cfg):
            seen.append(cfg.sweep_values)
            return type("Result", (), {"summary": ""})

        monkeypatch.setattr(cli, "run_experiment", record)
        for values in (["--values", "-0.0015,-0.003"],
                       ["--values=-0.0015,-0.003"]):
            assert main(["sweep", "--config", str(small_config(tmp_path)),
                         "--var", "theta1", *values]) == 0
        assert seen == [(-0.0015, -0.003)] * 2

    def test_each_flag_replaces_its_key(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg)
                            or type("Result", (), {"summary": ""}))
        cfg_path = tmp_path / "keys.cfg"
        cfg_path.write_text(
            MINIMAL.replace("phi = 0.8", "phi = 0.8\nn_paths = 8\nseed = 3")
            + f"\n[experiment]\nkind = sweep\nout_dir = {tmp_path / 'file'}\n"
            "sweep_var = theta1\nsweep_values = 0, -0.003\n")
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--seed", "7",
                     "--paths", "5", "--out", str(tmp_path / "flag"),
                     "--var", "phi", "--values", "0.5,1"]) == 0
        file, flags = [(c.scenario.seed, c.scenario.n_paths, c.out_dir,
                        c.sweep_var, c.sweep_values) for c in seen]
        assert file == (3, 8, str(tmp_path / "file"), "theta1", (0.0, -0.003))
        assert flags == (7, 5, str(tmp_path / "flag"), "phi", (0.5, 1.0))

    @pytest.mark.parametrize("seed", ["-1", "banana"])
    def test_file_value_a_flag_replaces_is_never_parsed(self, tmp_path,
                                                        monkeypatch, seed):
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg)
                            or type("Result", (), {"summary": ""}))
        cfg_path = small_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace(
            "n_paths = 8", f"n_paths = 8\nseed = {seed}"))
        assert main(["simulate", "--config", str(cfg_path),
                     "--seed", "7"]) == 0
        assert [cfg.scenario.seed for cfg in seen] == [7]
        # without the flag, the file's own value is read and rejected
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert len(seen) == 1

    def test_file_sweep_kind_binds_only_a_sweep(self, tmp_path, capsys):
        # a file whose [experiment] kind is sweep but that sets no sweep key:
        # each command sets its own kind, so only a sweep needs the keys
        text = default_config_path().read_text()
        assert "kind = base" in text and "sweep_" not in text
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(text.replace("kind = base", "kind = sweep"))
        common = ["--config", str(cfg_path), "--paths", "3"]
        for argv in (["policy"], ["mortality"], ["coeffs"], ["simulate"],
                     ["compare"], ["sweep", "--var", "phi", "--values=0,1"]):
            assert main(argv + common + ["--out", str(tmp_path / "o")]) == 0, \
                argv
        capsys.readouterr()
        assert main(["sweep", *common, "--out", str(tmp_path / "never")]) == 1
        err = capsys.readouterr().err
        assert "--var" in err and "[experiment] sweep_var" in err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("kind", ["ou-single", "cir-sub"])
    def test_policy_evaluates_g_once(self, tmp_path, capsys, monkeypatch,
                                     kind):
        from pendraw import control

        calls = []
        real = control.g_and_gradient

        def counted(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(default_config_path().read_text()
                            .replace("kind = ou-single", f"kind = {kind}"))
        monkeypatch.setattr(control, "g_and_gradient", counted)
        assert main(["policy", "--config", str(cfg_path), "--t", "3"]) == 0
        assert calls == [3.0]
        values = capsys.readouterr().out.splitlines()[1].split(",")
        cfg = load_config(cfg_path)
        lam = [float(values[1])] + ([float(values[2])] if values[2] else [])
        g = control.annuity_G(build_model(cfg), cfg.scenario, cfg.market, 3.0,
                              lam)
        assert values[4] == format_number(g)

    @pytest.mark.parametrize("argv", [
        ["-h"], [], ["bogus"], ["--config", "x", "policy"], ["-h", "policy"],
        ["policy", "--bogus"], ["policy", "--t", "soon"], ["policy", "extra"],
        ["policy", "--he"], ["coeffs", "--", "--t", "1"],
        ["sweep", "--var", "kappa"],
        ["sweep", "--values", "-0.0015,-0.003", "--config", "missing.cfg"],
        *([name, "-h"] for name in ("mortality", "coeffs", "policy",
                                    "simulate", "compare", "sweep"))])
    def test_parser_of_one_command_reads_as_the_full_parser(
            self, argv, capsys, monkeypatch):
        import pendraw.cli as cli

        def run():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        got = run()
        full = cli.build_parser
        # every argv through the full parser alone
        monkeypatch.setattr(cli, "_parse",
                            lambda argv: full().parse_args(argv))
        assert got == run()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_key_range_exit_code(self, tmp_path, capsys, seed):
        out = tmp_path / "m"
        code = main(["mortality", "--config", str(small_config(tmp_path)),
                     "--out", str(out), "--paths", "2", "--seed", seed])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_percent_in_config_value_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "pct.cfg"
        cfg_path.write_text(MINIMAL.replace("nu = 0.0009944", "nu = 0.0001%"))
        assert main(["policy", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid value for "
                                       "[population1] nu")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [[], ["sweep", "--var", "kappa"],
                                      ["simulate", "--paths", "many"],
                                      ["policy", "--bogus"]])
    def test_usage_error_exit_code(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from pendraw.numerics import NumericalFailure
        import pendraw.cli as cli

        def boom(cfg):
            raise NumericalFailure("quadrature blew up")

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = main(["simulate", "--config", str(small_config(tmp_path))])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
