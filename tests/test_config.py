"""Config kernel specs build the library kernel, bad specs name their key, and no value at any key escapes as an untyped error."""

import re

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmk import (
    ConfigError,
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    VmkError,
    folded_cells,
    make_grid,
)
from vmk.cli import main
from vmk.config import build_model, load_config

BODY = """\
grid:
  T: 1.0
  n: 8
quadratic:
  kernel: %s
  theta: %s
  eta: %s
  corr: %s
"""


def load_kernel(tmp_path, spec, dim):
    eye = np.eye(dim).tolist()
    path = tmp_path / "cfg.yaml"
    path.write_text(BODY % (spec, eye, eye, np.zeros((dim, dim)).tolist()))
    return build_model(load_config(str(path)))[1].kernel


@pytest.mark.parametrize("spec, kernel", [
    ("{type: fractional, h: 0.3, scale: 0.7}", FractionalKernel(0.3, scale=0.7)),
    ("{type: exponential, beta: 2.0}", ExponentialKernel(2.0)),
    ("{type: constant, value: 1.5}", ConstantKernel(1.5)),
    ("{type: constant, matrix: [[1.0, 0.5], [0.0, 2.0]]}", ConstantKernel([[1.0, 0.5], [0.0, 2.0]])),
    ("{type: diagonal, components: [{type: fractional, h: 0.3}, {type: exponential, beta: 2.0, scale: 0.5}]}",
     DiagonalKernel([FractionalKernel(0.3), ExponentialKernel(2.0, scale=0.5)])),
    ("{type: diagonal, components: [{type: constant, value: 0.4}]}", DiagonalKernel([ConstantKernel(0.4)])),
])
def test_spec_matches_library_kernel(tmp_path, spec, kernel):
    got = load_kernel(tmp_path, spec, kernel.dim)
    g = make_grid(1.0, 8)
    np.testing.assert_array_equal(folded_cells(got, g), folded_cells(kernel, g))


@pytest.mark.parametrize("spec, key", [
    ("{type: fractional, scale: 0.7}", "'quadratic.kernel' needs key 'h'"),
    ("{type: exponential}", "'quadratic.kernel' needs key 'beta'"),
    ("{type: gaussian}", "quadratic.kernel.type"),
    ("{type: diagonal, components: []}", "quadratic.kernel.components"),
    ("{type: diagonal, components: [{type: exponential}]}", "quadratic.kernel.components[0]"),
    ("{type: diagonal, components: [{type: constant, matrix: [[5.0]]}]}",
     "['matrix'] in section 'quadratic.kernel.components[0]'"),
])
def test_bad_spec_names_key(tmp_path, spec, key):
    with pytest.raises(ConfigError) as info:
        load_kernel(tmp_path, spec, 1)
    assert key in str(info.value)


def test_affine_scalar_kernel_refuses_matrix(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("grid:\n  T: 1.0\n  n: 8\naffine:\n  kernels: [{type: constant, matrix: [[5.0]]}]\n  theta: 1.0\n")
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert "['matrix'] in section 'affine.kernels[0]'" in str(info.value)


PROPERTY_BASES = {
    "affine": {
        "affine": {"kernels": [{"type": "fractional", "h": 0.3}], "drift": [[-0.5]], "nu": 0.3, "rho": -0.5,
                   "theta": 0.4, "g0": 0.04, "rate": 0.01, "x0": 1.0},
        "sweep": {"parameter": "theta", "values": [0.5]},
    },
    "explicit": {
        "quadratic": {"kernel": {"type": "exponential", "beta": 1.0}, "theta": [[0.5]], "eta": [[1.0]],
                      "corr": [[-0.3]], "drift": [[-0.2]], "g0": 0.3, "rate": 0.0, "x0": 1.0, "enforce_psd": True},
    },
    "preset": {
        "quadratic": {"preset": "two_asset", "hurst": [0.1, 0.4], "eta": [1.0, 1.0], "leverage": [-0.7, -0.7],
                      "stock_corr": 0.5, "theta": [0.65, 0.65], "y0": [0.3, 0.3], "rate": 0.0, "x0": 1.0},
    },
}
PROPERTY_COMMON = {
    "grid": {"T": 1.0, "n": 8},
    "mc": {"paths": 100, "seed": 1, "antithetic": False, "dump_paths": 0, "chunk": 64},
    "check": {"p": 3.0, "a": 0.1, "coarse_n": 10, "c": 1.0},
}
# (base, section, key): every grid, model, mc and check key of each base, and the sweep values
PROPERTY_SLOTS = [
    (base, section, key)
    for base, sections in PROPERTY_BASES.items()
    for section, body in {**PROPERTY_COMMON, **sections}.items()
    for key in body
    if section != "sweep" or key == "values"
]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
VALUES = st.one_of(SCALARS, st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)), max_size=3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # models warn on some accepted values
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(slot=st.sampled_from(PROPERTY_SLOTS), value=VALUES)
@example(slot=("affine", "affine", "nu"), value=[])
@example(slot=("affine", "affine", "rho"), value=[])
@example(slot=("affine", "affine", "theta"), value=[])
@example(slot=("affine", "sweep", "values"), value=[0.5, [[1, 2], [3, 4]]])
@example(slot=("preset", "quadratic", "hurst"), value=[-1, 0.4])
@example(slot=("preset", "quadratic", "hurst"), value=1.0e308)
def test_any_value_at_any_key_loads_or_fails_typed(tmp_path_factory, slot, value):
    base, section, key = slot
    raw = {name: dict(body) for name, body in {**PROPERTY_COMMON, **PROPERTY_BASES[base]}.items()}
    raw[section][key] = value
    path = tmp_path_factory.getbasetemp() / "property.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    try:
        build_model(load_config(str(path)))
    except VmkError:
        pass


@pytest.mark.parametrize("key, value", [("theta", True), ("rate", True), ("drift", [[True]])])
def test_affine_boolean_is_not_a_number(tmp_path, key, value):
    # the grid, markowitz, mc and quadratic keys are rows of test_cli's test_non_numeric_value_named
    raw = {name: dict(body) for name, body in {**PROPERTY_COMMON, **PROPERTY_BASES["affine"]}.items()}
    raw["affine"][key] = value
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"'affine\.{key}' must be a finite number"):
        load_config(str(path))


def _config_text(base, edit):
    """The property base ``base`` with ``edit`` applied to a copy of its raw mapping, as YAML."""
    raw = {name: dict(body) for name, body in {**PROPERTY_COMMON, **PROPERTY_BASES[base]}.items()}
    edit(raw)
    return yaml.safe_dump(raw)


def _drop(section, key):
    return lambda raw: raw[section].pop(key)


def _set(section, key, value):
    return lambda raw: raw[section].__setitem__(key, value)


# (config text, or None for no file; a pattern the error message must match, naming the offending key)
LOAD_REFUSALS = {
    "unreadable-file": (None, r"cannot read config file \S*cfg\.yaml"),
    "invalid-yaml": ("grid: [1, 2\n", r"config file \S*cfg\.yaml is not valid YAML"),
    "missing-grid": (_config_text("affine", lambda raw: raw.pop("grid")), r"missing required section 'grid'"),
    "missing-grid-T": (_config_text("affine", _drop("grid", "T")), r"'grid\.T' is required"),
    "missing-affine-kernels": (_config_text("affine", _drop("affine", "kernels")), r"'affine\.kernels' is required"),
    "missing-affine-theta": (_config_text("affine", _drop("affine", "theta")), r"'affine\.theta' is required"),
    "empty-affine-kernels": (_config_text("affine", _set("affine", "kernels", [])),
                             r"'affine\.kernels' must be a nonempty list"),
    **{f"missing-quadratic-{key}": (_config_text("explicit", _drop("quadratic", key)),
                                    rf"'quadratic\.{key}' is required") for key in ("kernel", "theta", "eta", "corr")},
    "unknown-preset": (_config_text("preset", _set("quadratic", "preset", "three_asset")),
                       r"unknown quadratic preset 'three_asset'"),
    "empty-markowitz-m": (_config_text("affine", lambda raw: raw.__setitem__("markowitz", {"m": []})),
                          r"'markowitz\.m' must be a number or nonempty list"),
    "sweep-without-parameter": (_config_text("affine", _drop("sweep", "parameter")),
                                r"'sweep' needs both 'parameter' and 'values'"),
    "sweep-without-values": (_config_text("affine", _drop("sweep", "values")),
                             r"'sweep' needs both 'parameter' and 'values'"),
    "sweep-empty-values": (_config_text("affine", _set("sweep", "values", [])),
                           r"'sweep\.values' must be a nonempty list"),
    "sweep-bad-parameter": (_config_text("affine", _set("sweep", "parameter", "zeta")),
                            r"'sweep\.parameter' = 'zeta' does not name an existing config key"),
}


@pytest.mark.parametrize("text, pattern", LOAD_REFUSALS.values(), ids=LOAD_REFUSALS.keys())
def test_load_config_refusal_named(tmp_path, capsys, text, pattern):
    path = tmp_path / "cfg.yaml"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.search(r"^error: .*" + pattern, captured.err), captured.err


TWO_FACTORS = [{"type": "fractional", "h": 0.3}, {"type": "exponential", "beta": 1.0}]
# model refusals a config can reach: (base, edit of the raw mapping, pattern naming the key)
MODEL_REFUSALS = {
    "affine-drift-shape": ("affine", _set("affine", "drift", [[-0.5, 0.0], [0.0, -0.5]]),
                           r"drift matrix must be \(1, 1\)"),
    "affine-drift-off-diagonal": ("affine", lambda raw: raw["affine"].update(
        kernels=TWO_FACTORS, drift=[[-0.5, -0.1], [0.0, -0.5]]), r"off-diagonal drift entries must be nonnegative"),
    "affine-nu-length": ("affine", _set("affine", "nu", [0.3, 0.3]), r"nu must be a number or a length-1 list"),
    "affine-rho-length": ("affine", _set("affine", "rho", [0.1, 0.2, 0.3]), r"rho must be a number or a length-1 list"),
    "affine-theta-length": ("affine", _set("affine", "theta", [[0.4, 0.4]]),
                            r"theta must be a number or a length-1 list"),
    "affine-nu-negative": ("affine", _set("affine", "nu", -0.3), r"nu must be nonnegative"),
    "affine-rho-range": ("affine", _set("affine", "rho", 1.5), r"rho \(leverage correlations\) must lie in \[-1, 1\]"),
    "quadratic-theta-shape": ("explicit", _set("quadratic", "theta", [[0.5, 0.5]]), r"theta must be \(d, 1\)"),
    "quadratic-eta-shape": ("explicit", _set("quadratic", "eta", [[1.0, 0.0]]), r"eta must be \(1, 1\)"),
    "quadratic-corr-shape": ("explicit", _set("quadratic", "corr", [[-0.3, 0.1]]), r"corr must be \(1, 1\)"),
    "quadratic-drift-shape": ("explicit", _set("quadratic", "drift", [[-0.2], [0.0]]), r"drift must be \(1, 1\)"),
    "quadratic-indefinite": ("explicit", lambda raw: raw["quadratic"].update(
        kernel={"type": "diagonal", "components": TWO_FACTORS}, theta=[[0.5, 0.5]], eta=np.eye(2).tolist(),
        corr=[[0.8], [0.8]], drift=None), r"driver covariance .* not positive semidefinite .*enforce_psd=False"),
}


@pytest.mark.parametrize("base, edit, pattern", MODEL_REFUSALS.values(), ids=MODEL_REFUSALS.keys())
def test_model_refusal_named(tmp_path, capsys, base, edit, pattern):
    path = tmp_path / "cfg.yaml"
    path.write_text(_config_text(base, edit), encoding="utf-8")
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.search(r"^error: " + pattern, captured.err), captured.err
