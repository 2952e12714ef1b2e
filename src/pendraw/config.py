"""Experiment configuration: INI-style key=value files with sections.

Loading builds the model once. Modal life-span parameters ``m`` in the
population sections are calendar ages (as usually tabulated);
``scheme.retirement_age`` (default 65) is subtracted from them at load, since
model time runs in years since retirement. Setting ``retirement_age = 0``
keeps the values as-is. A single-population kind reads ``[population1]``
only; the ``-sub`` kinds read ``[population2]`` too.

The loader takes the command line's values as one optional mapping of
section to ``{key: value}``. Each value replaces the file's key before any
class is built, so every check runs once, on the values the run uses, and a
file value that is replaced is never parsed. The ``[experiment]`` sweep keys
are read for a sweep only. ``arm_inputs`` states what a sweep variable
changes, for the config's check of each sweep value and for the sweep itself.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Tuple, Union

from .control import SchemeScenario
from .mortality import (ConfigError, GompertzMakehamParams, Model,
                        SinglePopModel, TwoPopModel)
from .numerics import TimeGrid
from .pricing import MarketParams

MODEL_KINDS = ("ou-single", "cir-single", "ou-sub", "cir-sub")
EXPERIMENT_KINDS = ("base", "compare", "sweep")
SWEEP_VARS = ("theta1", "phi")

_REQUIRED = (
    ("model", "kind"),
    ("population1", "nu"), ("population1", "delta"), ("population1", "m"),
    ("population1", "b"), ("population1", "sigma"),
    ("market", "r"), ("market", "theta_s"), ("market", "sigma_s"),
    ("market", "theta_1"),
    ("scheme", "phi"),
)
_REQUIRED_POP2 = ("nu", "delta", "m", "b21", "b22", "sigma21", "sigma22")


def arm_inputs(var: str, value, scenario, market):
    """(scenario, market) of a sweep's arm at ``value`` of ``var``: theta1
    sets the market's theta_1, phi the scenario's phi. Building them runs the
    classes' own checks of the value."""
    if var == "theta1":
        return scenario, replace(market, theta_1=value)
    return replace(scenario, phi=value), market


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    model: Model
    market: MarketParams
    scenario: SchemeScenario
    experiment: str = "base"
    out_dir: str = "out"
    sweep_var: Optional[str] = None
    sweep_values: Tuple[float, ...] = ()

    def __post_init__(self):
        # the values come from a file's [experiment] keys or from flags
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"[experiment] kind must be one of "
                              f"{EXPERIMENT_KINDS}, got {self.experiment!r}")
        if self.sweep_var not in (None, *SWEEP_VARS):
            raise ConfigError(f"[experiment] sweep_var must be one of "
                              f"{SWEEP_VARS}, got {self.sweep_var!r}")
        if self.experiment != "sweep":
            return
        if not (self.sweep_var and self.sweep_values):
            raise ConfigError("a sweep needs --var and --values, or "
                              "[experiment] sweep_var and sweep_values")
        # every arm is checked before any output is made
        for value in self.sweep_values:
            _in_section("experiment", arm_inputs, self.sweep_var, value,
                        self.scenario, self.market)

    @property
    def b1(self) -> float:
        """Mean-reversion speed of factor 1, the bond's reference population."""
        return float(self.model.factors[0][0, 0])

    @property
    def sigma1(self) -> float:
        """Volatility of factor 1, the bond's reference population."""
        return float(self.model.factors[1][0, 0])


def default_config_path() -> Path:
    """Path of the shipped base-parameterisation config."""
    return Path(__file__).parent / "data" / "table1.cfg"


def _finite(value: float, what: str) -> float:
    """``value``, if finite: NaN would pass every ordered check after it."""
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def _getfloat(ini, section, key):
    try:
        value = float(ini[section][key])
    except ValueError as exc:
        raise ConfigError(f"invalid value for [{section}] {key}: {exc}") from exc
    return _finite(value, f"[{section}] {key}")


def parse_sweep_values(raw: str, source: str) -> Tuple[float, ...]:
    """The finite floats of a comma-separated list; ``source`` names the
    list (a config key or a flag) in errors."""
    try:
        values = tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid {source}: {exc}") from exc
    return tuple(_finite(v, f"{source} value") for v in values)


def _getint(ini, section, key):
    try:
        return int(ini[section][key])
    except ValueError as exc:
        raise ConfigError(f"invalid value for [{section}] {key}: {exc}") from exc


def _in_section(section: str, cls, *args, **fields):
    """``cls(*args, **fields)``; the ValueError of a rejected value becomes a
    ConfigError naming the config section."""
    try:
        return cls(*args, **fields)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def loads_config(text: str,
                 overrides: Optional[Mapping] = None) -> ExperimentConfig:
    """Parse configuration text (see ``load_config``)."""
    # values are verbatim: no % interpolation
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    # each section's values as a plain dict, [DEFAULT]'s among them, as
    # configparser gives them: one lookup through it costs more than the
    # float read off it
    ini = {section: dict(parser.items(section, raw=True))
           for section in parser.sections()}

    missing = [f"[{sec}] {key}" for sec, key in _REQUIRED
               if key not in ini.get(sec, {})]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    kind = ini["model"]["kind"].strip().lower()
    if kind not in MODEL_KINDS:
        raise ConfigError(f"[model] kind must be one of {MODEL_KINDS}, got {kind!r}")

    if kind.endswith("-sub"):
        missing2 = [f"[population2] {k}" for k in _REQUIRED_POP2
                    if k not in ini.get("population2", {})]
        if missing2:
            raise ConfigError("missing required keys: " + ", ".join(missing2))

    def given(section, *keys, cast=_getfloat):
        """The values of those of ``keys`` that ``overrides`` or the file
        sets, an override in place of the file's; the classes built from them
        state every other key's default."""
        over = (overrides or {}).get(section, {})
        file = ini.get(section, {})
        return {key: cast(ini, section, key) if over.get(key) is None
                else over[key] for key in keys
                if over.get(key) is not None or key in file}

    # the optimal policy is derived for pi = 1 only: the departing members'
    # balances are compensated in full
    pi = given("scheme", "pi").get("pi", 1.0)
    if pi != 1.0:
        raise ConfigError(f"[scheme] pi must be 1 (full compensation), got {pi}")

    shift = given("scheme", "retirement_age").get("retirement_age", 65.0)

    def gompertz(section):
        return _in_section(section, GompertzMakehamParams,
                           nu=_getfloat(ini, section, "nu"),
                           delta=_getfloat(ini, section, "delta"),
                           m=_getfloat(ini, section, "m") - shift)

    factor_kind = "ou" if kind.startswith("ou") else "cir"
    b1 = _getfloat(ini, "population1", "b")
    sigma1 = _getfloat(ini, "population1", "sigma")
    if kind.endswith("-sub"):
        model = TwoPopModel(
            kind=factor_kind, gm1=gompertz("population1"),
            gm2=gompertz("population2"), b1=b1, sigma1=sigma1,
            **{k: _getfloat(ini, "population2", k)
               for k in ("b21", "b22", "sigma21", "sigma22")})
    else:
        model = SinglePopModel(kind=factor_kind, gm=gompertz("population1"),
                               b=b1, sigma=sigma1)

    market = _in_section("market", MarketParams,
                         **given("market", "r", "theta_s", "sigma_s",
                                 "theta_1", "maturity"))
    scenario = _in_section("scheme", SchemeScenario,
                           **given("scheme", "phi", "y0", "horizon", "dt"),
                           **given("scheme", "n_paths", "seed", cast=_getint),
                           **given("scheme", "t_max"))
    # the simulation grid, checked by its own rule before any command runs
    _in_section("scheme", TimeGrid, t0=0.0, t1=scenario.horizon,
                step=scenario.dt)

    def word(ini, section, key):
        return ini[section][key].strip().lower()

    def values(ini, section, key):
        return parse_sweep_values(ini[section][key], f"[{section}] {key}")

    experiment = {**given("experiment", "kind", cast=word),
                  **given("experiment", "out_dir", cast=lambda ini, section,
                          key: ini[section][key].strip())}
    if experiment.get("kind") == "sweep":
        experiment.update(given("experiment", "sweep_var", cast=word),
                          **given("experiment", "sweep_values", cast=values))
    if "kind" in experiment:
        experiment["experiment"] = experiment.pop("kind")
    return ExperimentConfig(model_kind=kind, model=model, market=market,
                            scenario=scenario, **experiment)


def load_config(path: Union[str, Path],
                overrides: Optional[Mapping] = None) -> ExperimentConfig:
    """Load and validate an experiment configuration file.

    ``overrides`` maps a section to ``{key: value}``, each value typed as its
    class takes it (``{"scheme": {"seed": 7}}``), in place of the file's key
    before any class is built; a value of None leaves the file's key. Any
    key of ``[market]``, ``[scheme]`` and ``[experiment]`` can be replaced;
    a required key must still be in the file.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return loads_config(path.read_text(), overrides)


def build_model(cfg: ExperimentConfig) -> Model:
    """The config's model, as loaded: the loader has already shifted the
    modal ages to years since retirement, so this only returns
    ``cfg.model``. It is kept for perfbench's callers until the ``[benchmark]``
    change of ROADMAP item 1."""
    return cfg.model
