"""Declarative experiment configuration.

Configs are YAML mappings with a grid section, exactly one model section
(affine or quadratic), and optional markowitz, mc, sweep, check and
output sections.  Everything is validated up front with the offending
key named, so a malformed file fails before any computation or output.
"""

import os
from types import SimpleNamespace

import numpy as np
import yaml

from .affine import AffineModel
from .errors import ConfigError, InvalidArgumentError
from .grid import TimeGrid, g0_nodes, make_grid
from .kernels import ConstantKernel, DiagonalKernel, ExponentialKernel, FractionalKernel
from .quadratic import QuadraticModel, two_asset_model

_TOP_KEYS = {"grid", "affine", "quadratic", "markowitz", "mc", "sweep", "check", "output"}
_GRID_KEYS = {"T", "n"}
_AFFINE_KEYS = {"kernels", "drift", "nu", "rho", "theta", "g0", "rate", "x0"}
_QUAD_PRESET_KEYS = {"preset", "hurst", "eta", "leverage", "stock_corr", "theta", "y0", "rate", "x0"}
_QUAD_EXPLICIT_KEYS = {"kernel", "theta", "eta", "corr", "drift", "g0", "rate", "x0", "enforce_psd"}
_MARKOWITZ_KEYS = {"m", "x0"}
_MC_KEYS = {"paths", "seed", "antithetic", "dump_paths", "chunk"}
_SWEEP_KEYS = {"parameter", "values"}
_CHECK_KEYS = {"p", "a", "coarse_n", "c"}
_OUTPUT_KEYS = {"directory"}
_KERNEL_KEYS = {
    "fractional": {"type", "h", "scale"},
    "exponential": {"type", "beta", "scale"},
    "constant": {"type", "value"},
    "diagonal": {"type", "components"},
}


def _section(obj, where: str, allowed: set = None) -> dict:
    """obj when it is a mapping whose keys all lie in ``allowed`` (any keys when None), else a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"section '{where}' must be a mapping, got {type(obj).__name__}")
    unknown = set(obj) - allowed if allowed is not None else ()
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section '{where}'; allowed: {sorted(allowed)}")
    return obj


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


def _scalar_kernel(spec: dict, where: str):
    ktype = _section(spec, where).get("type")
    if ktype not in ("fractional", "exponential", "constant"):
        raise ConfigError(f"'{where}.type' must be fractional, exponential or constant, got {ktype!r}")
    _section(spec, where, _KERNEL_KEYS[ktype])
    if ktype == "fractional":
        if "h" not in spec:
            raise ConfigError(f"'{where}' needs key 'h'")
        return FractionalKernel(_number(spec["h"], f"{where}.h"),
                                scale=_number(spec.get("scale", 1.0), f"{where}.scale"))
    if ktype == "exponential":
        if "beta" not in spec:
            raise ConfigError(f"'{where}' needs key 'beta'")
        return ExponentialKernel(_number(spec["beta"], f"{where}.beta"),
                                 scale=_number(spec.get("scale", 1.0), f"{where}.scale"))
    return ConstantKernel(_number(spec.get("value", 1.0), f"{where}.value"))


def _matrix_kernel(spec: dict, where: str):
    ktype = _section(spec, where).get("type")
    if ktype == "diagonal":
        _section(spec, where, _KERNEL_KEYS["diagonal"])
        comps = spec.get("components")
        if not isinstance(comps, list) or not comps:
            raise ConfigError(f"'{where}.components' must be a nonempty list")
        return DiagonalKernel([_scalar_kernel(c, f"{where}.components[{i}]") for i, c in enumerate(comps)])
    if ktype == "constant" and "matrix" in spec:
        _section(spec, where, _KERNEL_KEYS["constant"] | {"matrix"})
        return ConstantKernel(_array(spec["matrix"], f"{where}.matrix"))
    return _scalar_kernel(spec, where)


def load_config(path: str, n: int = None) -> SimpleNamespace:
    """Parse and validate a config file and build its models; raises ConfigError on any defect.

    ``n``, the ``--grid-n`` flag, overrides ``grid.n``.  The model and
    one ``(horizon, model)`` pair per sweep value (``sweep.runs``) are built
    here, once, and every ``g0`` is checked against the final grid, so a
    defect fails before any computation or output.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    raw = _section(raw if raw is not None else {}, "<top level>", _TOP_KEYS)
    if "grid" not in raw:
        raise ConfigError("missing required section 'grid'")
    grid_sec = _section(raw["grid"], "grid", _GRID_KEYS)
    if "T" not in grid_sec:
        raise ConfigError("'grid.T' is required")
    horizon = _horizon(grid_sec["T"], "grid.T")
    if grid_sec.get("n") is None:
        grid_n = _number(200 * max(1.0, horizon), "grid.n", round)
    else:
        grid_n = _integer(grid_sec["n"], "grid.n", 2)

    model_kind = "affine" if "affine" in raw else "quadratic"
    if ("affine" in raw) == ("quadratic" in raw):
        raise ConfigError("exactly one of the sections 'affine' or 'quadratic' is required")
    model_sec = _section(raw[model_kind], model_kind)
    if model_kind == "affine":
        _section(model_sec, "affine", _AFFINE_KEYS)
        for key in ("kernels", "theta"):
            if key not in model_sec:
                raise ConfigError(f"'affine.{key}' is required")
        if not isinstance(model_sec["kernels"], list) or not model_sec["kernels"]:
            raise ConfigError("'affine.kernels' must be a nonempty list")
    elif "preset" in model_sec:
        _section(model_sec, "quadratic", _QUAD_PRESET_KEYS)
        if model_sec["preset"] != "two_asset":
            raise ConfigError(f"unknown quadratic preset {model_sec['preset']!r}; only 'two_asset' exists")
    else:
        _section(model_sec, "quadratic", _QUAD_EXPLICIT_KEYS)
        for key in ("kernel", "theta", "eta", "corr"):
            if key not in model_sec:
                raise ConfigError(f"'quadratic.{key}' is required (or use preset: two_asset)")

    mk = _section(raw.get("markowitz", {}), "markowitz", _MARKOWITZ_KEYS)
    m_raw = mk.get("m", 1.05)
    m_values = [_number(v, "markowitz.m") for v in (m_raw if isinstance(m_raw, list) else [m_raw])]
    if not m_values:
        raise ConfigError("'markowitz.m' must be a number or nonempty list")
    mk_x0 = None if mk.get("x0") is None else _number(mk["x0"], "markowitz.x0")

    mc = _section(raw.get("mc", {}), "mc", _MC_KEYS)
    antithetic = _boolean(mc.get("antithetic", False), "mc.antithetic")
    mc_ns = SimpleNamespace(
        paths=mc_paths(mc.get("paths", 10000), "mc.paths", antithetic),
        seed=mc_seed(mc.get("seed", 0)),
        antithetic=antithetic,
        dump_paths=_integer(mc.get("dump_paths", 0), "mc.dump_paths", 0),
        chunk=_integer(mc.get("chunk", 4096), "mc.chunk", 1),
    )

    sweep = None
    if "sweep" in raw:
        sw = _section(raw["sweep"], "sweep", _SWEEP_KEYS)
        if "parameter" not in sw or "values" not in sw:
            raise ConfigError("'sweep' needs both 'parameter' and 'values'")
        if not isinstance(sw["values"], list) or not sw["values"]:
            raise ConfigError("'sweep.values' must be a nonempty list")
        param = str(sw["parameter"])
        valid = {"T"} | set(model_sec.keys())
        if model_kind == "quadratic" and "preset" in model_sec:
            valid |= _QUAD_PRESET_KEYS - {"preset"}
        if param not in valid:
            raise ConfigError(
                f"'sweep.parameter' = {param!r} does not name an existing config key; "
                f"valid here: {sorted(valid)}"
            )
        sweep = SimpleNamespace(parameter=param, values=list(sw["values"]), runs=[])

    chk = _section(raw.get("check", {}), "check", _CHECK_KEYS)
    check_ns = SimpleNamespace(
        p=_number(chk.get("p", 3.0), "check.p"),
        a=(None if chk.get("a") is None else _number(chk["a"], "check.a")),
        coarse_n=_integer(chk.get("coarse_n", 20), "check.coarse_n", 2),
        c=_number(chk.get("c", 1.0), "check.c"),
    )

    out = _section(raw.get("output", {}), "output", _OUTPUT_KEYS)
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
        try:
            g0_nodes(m.g0, grid, m.dim if model_kind == "affine" else m.n_state)
        except InvalidArgumentError as exc:
            raise ConfigError(f"'{where}': {exc}") from None

    return SimpleNamespace(
        horizon=horizon,
        n=n,
        model_kind=model_kind,
        model=model,
        m_values=m_values,
        mk_x0=mk_x0,
        mc=mc_ns,
        sweep=sweep,
        check=check_ns,
        out_dir=str(out.get("directory", "out")),
    )


def build_grid(cfg: SimpleNamespace) -> TimeGrid:
    return make_grid(cfg.horizon, cfg.n)


def _affine_from_section(sec: dict) -> AffineModel:
    kernels = [_scalar_kernel(k, f"affine.kernels[{i}]") for i, k in enumerate(sec["kernels"])]
    d = len(kernels)
    return AffineModel(
        kernels=tuple(kernels),
        drift=_array(sec.get("drift", np.zeros((d, d))), "affine.drift"),
        nu=_array(sec.get("nu", 1.0), "affine.nu"),
        rho=_array(sec.get("rho", 0.0), "affine.rho"),
        theta=_array(sec["theta"], "affine.theta"),
        g0=_array(sec.get("g0", 0.04), "affine.g0"),
        rate=_number(sec.get("rate", 0.0), "affine.rate"),
        x0=_number(sec.get("x0", 1.0), "affine.x0"),
    )


def _quadratic_from_section(sec: dict) -> QuadraticModel:
    if "preset" in sec:
        kwargs = {}
        for key in ("hurst", "eta", "leverage", "theta", "y0"):
            if key in sec:
                val = _array(sec[key], f"quadratic.{key}")
                if val.shape not in ((), (2,)):
                    raise ConfigError(f"'quadratic.{key}' must be a number or a pair of numbers, got {sec[key]!r}")
                kwargs[key] = tuple(float(v) for v in np.broadcast_to(val, (2,)))
        for key in ("stock_corr", "rate", "x0"):
            if key in sec:
                kwargs[key] = _number(sec[key], f"quadratic.{key}")
        return two_asset_model(**kwargs)
    kernel = _matrix_kernel(sec["kernel"], "quadratic.kernel")
    return QuadraticModel(
        kernel=kernel,
        theta=_array(sec["theta"], "quadratic.theta"),
        eta=_array(sec["eta"], "quadratic.eta"),
        corr=_array(sec["corr"], "quadratic.corr"),
        drift=(None if sec.get("drift") is None else _array(sec["drift"], "quadratic.drift")),
        g0=_array(sec.get("g0", 0.0), "quadratic.g0"),
        rate=_number(sec.get("rate", 0.0), "quadratic.rate"),
        x0=_number(sec.get("x0", 1.0), "quadratic.x0"),
        enforce_psd=_boolean(sec.get("enforce_psd", True), "quadratic.enforce_psd"),
    )


def model_from_section(kind: str, sec: dict):
    """Instantiate a model from a raw config section."""
    if kind == "affine":
        return _affine_from_section(sec)
    return _quadratic_from_section(sec)


def build_model(cfg: SimpleNamespace):
    """The configured model, built by ``load_config``; returns (kind, model)."""
    return cfg.model_kind, cfg.model


def wealth_x0(cfg: SimpleNamespace, model) -> float:
    return float(cfg.mk_x0) if cfg.mk_x0 is not None else float(model.x0)
