"""Random valid configs of both model families through every command: each run succeeds or fails typed.

A command exits 0, or exits 2 with an ``error:`` line on stderr; an
exception that escapes ``main`` fails the test.
"""

import contextlib
import io

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmk.cli import main

DRIFTS = [0.0, -1.0, -50.0, 2.0]
POSITIVE = st.floats(1e-6, 20.0)


def scalar_kernels():
    return st.one_of(
        st.builds(lambda h, scale: {"type": "fractional", "h": h, "scale": scale},
                  st.floats(1e-3, 1.0), st.floats(0.1, 2.0)),
        st.builds(lambda beta, scale: {"type": "exponential", "beta": beta, "scale": scale},
                  st.floats(0.0, 5.0), st.floats(0.1, 2.0)),
        st.builds(lambda value: {"type": "constant", "value": value}, st.floats(0.1, 2.0)),
    )


@st.composite
def affine_sections(draw):
    d = draw(st.integers(1, 2))
    drift = draw(st.sampled_from(DRIFTS))
    return "affine", "theta", {
        "kernels": draw(st.lists(scalar_kernels(), min_size=d, max_size=d)),
        "drift": [[drift if i == j else 0.0 for j in range(d)] for i in range(d)],
        "nu": draw(st.floats(0.0, 2.0)),
        "rho": draw(st.floats(-1.0, 1.0)),
        "theta": draw(POSITIVE),
        "g0": draw(st.floats(0.01, 1.0)),
        "rate": draw(st.floats(0.0, 0.1)),
    }


@st.composite
def quadratic_sections(draw):
    n_state = draw(st.integers(1, 2))
    kernel = draw(st.one_of(
        scalar_kernels() if n_state == 1 else st.nothing(),
        st.lists(scalar_kernels(), min_size=n_state, max_size=n_state).map(
            lambda parts: {"type": "diagonal", "components": parts}),
        st.lists(st.floats(0.1, 2.0), min_size=n_state, max_size=n_state).map(
            lambda diag: {"type": "constant", "matrix": [[v if i == j else 0.0 for j, v in enumerate(diag)]
                                                         for i in range(n_state)]}),
    ))
    drift = draw(st.sampled_from(DRIFTS))
    return "quadratic", "theta", {
        "kernel": kernel,
        "theta": [draw(st.lists(POSITIVE, min_size=n_state, max_size=n_state))],
        "eta": [[draw(st.floats(0.0, 2.0)) if i == j else 0.0 for j in range(n_state)] for i in range(n_state)],
        "corr": [[draw(st.floats(-0.7, 0.7))] for _ in range(n_state)],
        "drift": [[drift if i == j else 0.0 for j in range(n_state)] for i in range(n_state)],
        "g0": draw(st.floats(0.0, 1.0)),
        "rate": draw(st.floats(0.0, 0.1)),
        "enforce_psd": draw(st.booleans()),
    }


def preset_sections():
    return st.builds(lambda hurst, theta, stock_corr: ("quadratic", "hurst", {
        "preset": "two_asset", "hurst": hurst, "theta": theta, "stock_corr": stock_corr}),
        st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=2), st.lists(POSITIVE, min_size=2, max_size=2),
        st.floats(-0.9, 0.9))


@st.composite
def configs(draw):
    family, parameter, section = draw(st.one_of(affine_sections(), quadratic_sections(), preset_sections()))
    horizon = draw(st.floats(1e-4, 30.0))
    antithetic = draw(st.booleans())
    paths = draw(st.integers(2, 32)) * 2 if antithetic else draw(st.integers(4, 64))
    swept = draw(st.sampled_from(["T", parameter]))
    values = [horizon / 2, horizon] if swept == "T" else [section[parameter]] * 2
    return {
        "grid": {"T": horizon, "n": draw(st.integers(2, 40))},
        family: section,
        "markowitz": {"m": draw(st.floats(0.5, 2.0))},
        "mc": {"paths": paths, "seed": draw(st.integers(0, 2**32)), "antithetic": antithetic,
               "dump_paths": draw(st.integers(0, 3)), "chunk": draw(st.integers(1, 64))},
        "sweep": {"parameter": swept, "values": values},
    }


# the explicit quadratic model whose factorization fails to roundoff at n = 20, 40 and 80
ROUNDOFF = {
    "grid": {"T": 14.2, "n": 20},
    "quadratic": {"kernel": {"type": "exponential", "beta": 0.416}, "theta": [[1.11]], "eta": [[0.0048]],
                  "corr": [[0.536]], "drift": [[-19.15]], "g0": 0.547, "rate": 0.194},
    "mc": {"paths": 8},
    "sweep": {"parameter": "T", "values": [7.1, 14.2]},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # models warn on some valid values
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(cfg=configs())
@example(cfg=ROUNDOFF)
def test_every_command_exits_typed(tmp_path_factory, cfg):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    solve = "affine-solve" if "affine" in cfg else "quadratic-solve"
    for command in (solve, "frontier", "simulate", "sweep", "check"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(base / "fuzz-out")])
        assert code == 0 or (code == 2 and err.getvalue().startswith("error:")), (command, code, err.getvalue())
