"""Declarative experiment configuration.

Configs are YAML mappings with a grid section, exactly one model section
(affine or quadratic), and optional markowitz, mc, sweep, check and
output sections.  Each section is read by ``_read`` against its schema,
which declares every key once, with its reader and its default, so a
malformed file fails before any computation or output with the offending
key named.
"""

import os
from functools import partial
from types import SimpleNamespace

import numpy as np
import yaml

from .affine import AffineModel
from .errors import ConfigError, InvalidArgumentError, check_memory
from .grid import TimeGrid, g0_nodes, make_grid
from .kernels import ConstantKernel, DiagonalKernel, ExponentialKernel, FractionalKernel
from .quadratic import QuadraticModel, two_asset_model

# The default of a key that must be given.
REQUIRED = object()
# Bytes a run holds per grid node and state factor before any other memory check, rounded up from affine-solve
# peaks of 101 (one factor) and 203 (two) traced at n = 4000-8000, a kernel band's Python list of about 32 included.
_NODE_BYTES = 128


def _section(obj, where: str, allowed=None) -> dict:
    """obj when it is a mapping whose keys all lie in ``allowed`` (any keys when None), else a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"section '{where}' must be a mapping, got {type(obj).__name__}")
    unknown = set(obj).difference(allowed) if allowed is not None else ()
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in section '{where}'; "
                          f"allowed: {sorted(allowed)}")
    return obj


def _read(obj, where: str, schema: dict) -> dict:
    """Section ``obj`` read through ``schema``, {key: (reader, default)}, as {key: value}.

    Keys outside the schema are refused.  A key that is absent or null takes
    its default, and is a ConfigError when that is ``REQUIRED``; any other
    value is ``reader(value, "<where>.<key>")``.  The top level is read with
    ``where`` empty, and its keys are named as sections.
    """
    section = _section(obj, where or "<top level>", schema)
    values = {}
    for key, (reader, default) in schema.items():
        name = f"{where}.{key}" if where else key
        if section.get(key) is not None:
            values[key] = reader(section[key], name)
        elif default is REQUIRED:
            raise ConfigError(f"'{name}' is required" if where else f"missing required section '{name}'")
        else:
            values[key] = default
    return values


def _has_boolean(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_has_boolean, value)))


def _number(value, where: str, cast=float):
    """cast(value) when it is finite, else a ConfigError naming the key.

    It fails on non-numeric values, on YAML booleans (also inside lists),
    on NaN and infinities, and on infinities cast to integers.
    """
    message = f"'{where}' must be a finite number, got {value!r}"
    if _has_boolean(value):
        raise ConfigError(message)
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(message) from None
    if not (isinstance(number, int) or np.all(np.isfinite(number))):
        raise ConfigError(message)
    return number


def _boolean(value, where: str) -> bool:
    """A YAML boolean, or a ConfigError naming the key."""
    if not isinstance(value, bool):
        raise ConfigError(f"'{where}' must be true or false, got {value!r}")
    return value


def _integer(value, where: str, low: int = None, high: int = None) -> int:
    """int(value) in [low, high], or a ConfigError naming the key; never truncates."""
    number = _number(value, where, int)
    if isinstance(value, float) and value != number:
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    if low is not None and number < low:
        raise ConfigError(f"'{where}' must be at least {low}, got {value!r}")
    if high is not None and number > high:
        raise ConfigError(f"'{where}' must be at most {high}, got {value!r}")
    return number


def _horizon(value, where: str) -> float:
    """A positive finite horizon, or a ConfigError naming the key."""
    horizon = _number(value, where)
    if horizon <= 0:
        raise ConfigError(f"'{where}' must be a positive number, got {value!r}")
    return horizon


def mc_paths(value, where: str = "mc.paths", antithetic: bool = False) -> int:
    """Monte Carlo path count, at least 2 (the sample variance needs two); under
    antithetic sampling an even count of at least 4, so there are two pairs."""
    paths = _integer(value, where, 4 if antithetic else 2)
    if antithetic and paths % 2:
        raise ConfigError(f"'{where}' must be even under 'mc.antithetic', got {value!r}")
    return paths


def mc_seed(value, where: str = "mc.seed") -> int:
    """Monte Carlo seed: an integer key that np.random.Philox accepts, [-2^63, 2^64)."""
    return _integer(value, where, -(2**63), 2**64 - 1)


def out_directory(path: str, where: str = "output.directory") -> str:
    """An output directory that can be made: a nonempty path with no existing file on it."""
    if not path:
        raise ConfigError(f"'{where}' must name a directory, got an empty path")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"'{where}' must name a directory, got {path!r}: {probe!r} is an existing file")
    return path


def _array(value, where: str) -> np.ndarray:
    return _number(value, where, lambda v: np.asarray(v, dtype=float))


def _text(value, where: str) -> str:
    return str(value)


def _list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{where}' must be a nonempty list")
    return value


def _targets(value, where: str) -> tuple:
    """A number or a nonempty list of numbers, as a tuple."""
    targets = tuple(_number(v, where) for v in (value if isinstance(value, list) else [value]))
    if not targets:
        raise ConfigError(f"'{where}' must be a number or nonempty list")
    return targets


def _pair(value, where: str) -> tuple:
    pair = _array(value, where)
    if pair.shape not in ((), (2,)):
        raise ConfigError(f"'{where}' must be a number or a pair of numbers, got {value!r}")
    return tuple(float(v) for v in np.broadcast_to(pair, (2,)))


def _preset(value, where: str) -> str:
    if value != "two_asset":
        raise ConfigError(f"unknown quadratic preset {value!r}; only 'two_asset' exists")
    return value


def _kernels(value, where: str) -> tuple:
    """A nonempty list of scalar kernel specs, as a tuple of kernels."""
    return tuple(_kernel(spec, f"{where}[{i}]") for i, spec in enumerate(_list(value, where)))


# Kernel specs, type: (builder, schema); every spec also has its 'type'.
_KERNELS = {
    "fractional": (FractionalKernel, {"h": (_number, REQUIRED), "scale": (_number, 1.0)}),
    "exponential": (ExponentialKernel, {"beta": (_number, REQUIRED), "scale": (_number, 1.0)}),
    "constant": (lambda value: ConstantKernel(value), {"value": (_number, 1.0)}),
}
# The explicit quadratic state kernel may also be diagonal, or constant with a matrix in place of its value.
_STATE_KERNELS = {**_KERNELS, "diagonal": (DiagonalKernel, {"components": (_kernels, REQUIRED)})}
_CONSTANT_MATRIX = (ConstantKernel, {"matrix": (_array, REQUIRED)})


def _kernel(spec, where: str, state: bool = False):
    """The kernel a spec names: a scalar kernel, or with ``state`` the quadratic state kernel."""
    ktype = _section(spec, where).get("type")
    kinds = _STATE_KERNELS if state else _KERNELS
    if not isinstance(ktype, str) or ktype not in kinds:
        *most, last = kinds
        raise ConfigError(f"'{where}.type' must be {', '.join(most)} or {last}, got {ktype!r}")
    build, schema = _CONSTANT_MATRIX if state and ktype == "constant" and "matrix" in spec else kinds[ktype]
    params = _read(spec, where, {"type": (_text, REQUIRED), **schema})
    del params["type"]
    return build(**params)


_TOP = {"grid": (_section, REQUIRED), "affine": (_section, None), "quadratic": (_section, None),
        "markowitz": (_section, {}), "mc": (_section, {}), "sweep": (_section, None), "check": (_section, {}),
        "output": (_section, {})}
_GRID = {"T": (_horizon, REQUIRED), "n": (partial(_integer, low=2), None)}  # n None: 200 max(1, T), in load_config
_MARKOWITZ = {"m": (_targets, (1.05,)), "x0": (_number, 1.0)}
_MC = {"paths": (mc_paths, 10000), "seed": (mc_seed, 0), "antithetic": (_boolean, False),
       "dump_paths": (partial(_integer, low=0), 0), "chunk": (partial(_integer, low=1), 4096)}
_SWEEP = {"parameter": (_text, REQUIRED), "values": (_list, REQUIRED)}
_CHECK = {"p": (_number, 3.0), "a": (_number, None), "coarse_n": (partial(_integer, low=2), 20), "c": (_number, 1.0)}
_OUTPUT = {"directory": (_text, "out")}
_AFFINE = {"kernels": (_kernels, REQUIRED), "drift": (_array, None), "nu": (_array, 1.0), "rho": (_array, 0.0),
           "theta": (_array, REQUIRED), "g0": (_array, 0.04), "rate": (_number, 0.0)}
_QUADRATIC = {"kernel": (partial(_kernel, state=True), REQUIRED), "theta": (_array, REQUIRED),
              "eta": (_array, REQUIRED), "corr": (_array, REQUIRED), "drift": (_array, None), "g0": (_array, 0.0),
              "rate": (_number, 0.0), "enforce_psd": (_boolean, True)}
_TWO_ASSET = {"preset": (_preset, REQUIRED), "hurst": (_pair, (0.08, 0.4)), "eta": (_pair, (1.0, 1.0)),
              "leverage": (_pair, (-0.7, -0.7)), "stock_corr": (_number, 0.7), "theta": (_pair, (0.65, 0.65)),
              "y0": (_pair, (0.3, 0.3)), "rate": (_number, 0.0)}


def _model_schema(kind: str, sec) -> tuple:
    """(builder, schema) of a model section: affine, the two_asset preset or explicit quadratic."""
    if kind == "affine":
        return AffineModel, _AFFINE
    if "preset" in sec:
        return (lambda preset, **params: two_asset_model(**params)), _TWO_ASSET
    return QuadraticModel, _QUADRATIC


def model_from_section(kind: str, sec):
    """The model of a raw model section, built by keyword from its schema."""
    build, schema = _model_schema(kind, sec)
    return build(**_read(sec, kind, schema))


def load_config(path: str, n: int = None) -> SimpleNamespace:
    """Parse and validate a config file and build its models; raises ConfigError on any defect.

    ``n``, the ``--grid-n`` flag, overrides ``grid.n``.  The model and
    one ``(horizon, model)`` pair per sweep value (``sweep.runs``) are built
    here, once, and every ``g0`` is checked against the final grid, so a
    defect fails before any computation or output; a grid too large for
    ``_NODE_BYTES`` per node and state factor raises MemoryCapError first.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    top = _read(raw if raw is not None else {}, "", _TOP)
    grid_sec = _read(top["grid"], "grid", _GRID)
    horizon = grid_sec["T"]
    grid_n = grid_sec["n"] if grid_sec["n"] is not None else _number(200 * max(1.0, horizon), "grid.n", round)

    if (top["affine"] is None) == (top["quadratic"] is None):
        raise ConfigError("exactly one of the sections 'affine' or 'quadratic' is required")
    model_kind = "affine" if top["affine"] is not None else "quadratic"
    model_sec = top[model_kind]
    mk = _read(top["markowitz"], "markowitz", _MARKOWITZ)
    mc = SimpleNamespace(**_read(top["mc"], "mc", _MC))
    mc.paths = mc_paths(mc.paths, "mc.paths", mc.antithetic)  # the pair rule of antithetic runs

    sweep = None
    if top["sweep"] is not None:
        sweep = SimpleNamespace(**_read(top["sweep"], "sweep", _SWEEP), runs=[])
        valid = {"T", *_model_schema(model_kind, model_sec)[1]}
        if sweep.parameter not in valid:
            raise ConfigError(
                f"'sweep.parameter' = {sweep.parameter!r} does not name an existing config key; "
                f"valid here: {sorted(valid)}"
            )

    check = SimpleNamespace(**_read(top["check"], "check", _CHECK))
    out = _read(top["output"], "output", _OUTPUT)
    model = model_from_section(model_kind, model_sec)  # model values fail here, before any output
    for i, v in enumerate(sweep.values if sweep else []):
        if sweep.parameter == "T":
            sweep.runs.append((_horizon(v, f"sweep.values[{i}]"), model))
            continue
        try:
            sweep.runs.append((horizon, model_from_section(model_kind, {**model_sec, sweep.parameter: v})))
        except ConfigError as exc:
            raise ConfigError(f"'sweep.values[{i}]': {exc}") from None
    if n is None:
        n = grid_n
    elif n < 2:
        raise ConfigError("--grid-n must be at least 2")
    # a g0 table has one row per node, so it is checked on the final grid
    grid = make_grid(horizon, n)
    swept = [(f"sweep.values[{i}]", m) for i, (_, m) in enumerate(sweep.runs if sweep else [])]
    for where, m in [(f"{model_kind}.g0", model)] + swept:
        dim = m.dim if model_kind == "affine" else m.n_state
        check_memory(f"a grid of {n} cells x {dim} state factors", _NODE_BYTES * (n + 1) * dim,
                     "use a smaller grid.n")  # before the first node-sized array
        try:
            g0_nodes(m.g0, grid, dim)
        except InvalidArgumentError as exc:
            raise ConfigError(f"'{where}': {exc}") from None

    return SimpleNamespace(
        horizon=horizon,
        n=n,
        model_kind=model_kind,
        model=model,
        m_values=mk["m"],
        x0=mk["x0"],
        mc=mc,
        sweep=sweep,
        check=check,
        out_dir=out["directory"],
    )


def build_grid(cfg: SimpleNamespace) -> TimeGrid:
    return make_grid(cfg.horizon, cfg.n)


def build_model(cfg: SimpleNamespace):
    """The configured model, built by ``load_config``; returns (kind, model)."""
    return cfg.model_kind, cfg.model


def wealth_x0(cfg: SimpleNamespace, model) -> float:
    """The initial wealth, ``markowitz.x0``, the same for every model."""
    return float(cfg.x0)
