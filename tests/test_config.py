"""Config kernel specs: each spec builds the library kernel, bad specs name their key."""

import numpy as np
import pytest

from vmk import (
    ConfigError,
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
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
