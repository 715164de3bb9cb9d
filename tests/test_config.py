"""Config kernel specs build the library kernel, bad specs name their key, and no value at any key escapes as an untyped error."""

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
