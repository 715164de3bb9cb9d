"""End-to-end command line runs against temporary configs."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vmk.cli
import vmk.config
import vmk.errors
import vmk.montecarlo
import vmk.quadratic
from vmk.affine import AffineEvaluator
from vmk.cli import _CSV_ROWS, _write_csv, main
from vmk.montecarlo import chunk_bytes
from vmk.quadratic import two_asset_model, volatility_matrix

from oracles import write_csv_rows

AFFINE_CFG = """\
grid:
  T: 1.0
  n: 200
affine:
  kernels:
    - {type: constant, value: 1.0}
  drift: [[0.0]]
  nu: 1.4142135623730951
  rho: 0.0
  theta: 1.0
  g0: 0.8
markowitz:
  m: 1.1
  x0: 1.0
output:
  directory: "%s"
"""

QUADRATIC_CFG = """\
grid:
  T: 0.5
  n: 100
quadratic:
  kernel: {type: constant, value: 1.0}
  theta: [[1.0]]
  eta: [[1.0]]
  corr: [[0.0]]
  drift: [[0.0]]
  g0: 1.0
markowitz:
  m: 1.1
  x0: 1.0
output:
  directory: "%s"
"""


TWO_FACTOR_CFG = """\
grid:
  T: 1.0
  n: 20
affine:
  kernels:
    - {type: fractional, h: 0.2}
    - {type: exponential, beta: 1.0}
  drift: [[-1.0, 0.0], [0.0, -0.5]]
  nu: [0.4, 0.3]
  rho: [-0.5, 0.3]
  theta: [0.6, 0.4]
  g0: [0.1, 0.05]
  rate: 0.03
mc:
  paths: 300
  seed: 4
  chunk: 128
  dump_paths: 3
sweep:
  parameter: rho
  values: [[-0.5, 0.3], [0.0, 0.0]]
output:
  directory: "%s"
"""

PRESET_CFG = 'grid:\n  T: 0.5\n  n: 20\nquadratic:\n  preset: two_asset\n  hurst: %s\noutput:\n  directory: "%%s"\n'


def write_cfg(tmp_path, body, name="cfg.yaml"):
    out_dir = tmp_path / "out"
    path = tmp_path / name
    path.write_text(body % str(out_dir))
    return str(path), out_dir


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolveCommands:
    def test_affine_solve_outputs(self, tmp_path):
        cfg, out = write_cfg(tmp_path, AFFINE_CFG)
        assert main(["affine-solve", "--config", cfg]) == 0
        header, rows = read_csv(out / "riccati.csv")
        assert header == ["t", "psi_1"]
        assert len(rows) == 201
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][1]) == pytest.approx(-math.tanh(1.0), abs=1e-5)
        s_header, s_rows = read_csv(out / "strategy.csv")
        assert s_header == ["t", "alpha_1", "pi_1"]
        assert len(s_rows) == 201
        alpha = [float(r[1]) for r in s_rows]
        pi = [float(r[2]) for r in s_rows]
        assert all(a != 0.0 for a in alpha)
        for a, p in zip(alpha, pi):
            assert p == pytest.approx(a / math.sqrt(0.8), rel=1e-9)

    def test_quadratic_solve_outputs(self, tmp_path):
        cfg, out = write_cfg(tmp_path, QUADRATIC_CFG)
        assert main(["quadratic-solve", "--config", cfg]) == 0
        header, rows = read_csv(out / "riccati.csv")
        assert header == ["t", "phi", "phidot", "p_11"]
        assert len(rows) == 101
        assert float(rows[0][1]) == pytest.approx(-0.115790661104173, abs=2e-3)
        assert float(rows[0][3]) == pytest.approx(-0.4305285857902738, abs=2e-3)
        assert float(rows[-1][1]) == 0.0
        assert float(rows[-1][3]) == pytest.approx(0.0, abs=1e-12)
        s_header, s_rows = read_csv(out / "strategy.csv")
        assert s_header == ["t", "alpha_1", "pi_1"]
        assert len(s_rows) == 101

    def test_rerun_is_byte_identical(self, tmp_path):
        for body, command, files in [
            (QUADRATIC_CFG, "quadratic-solve", ["riccati.csv"]),
            (TWO_FACTOR_CFG, "simulate", ["mc.csv", "paths.csv"]),  # two factors, dumped paths
            (TWO_FACTOR_CFG, "sweep", ["sweep.csv"]),  # list-valued sweep values
        ]:
            cfg, out = write_cfg(tmp_path, body)
            assert main([command, "--config", cfg]) == 0
            first = {name: (out / name).read_bytes() for name in files}
            assert main([command, "--config", cfg]) == 0
            assert {name: (out / name).read_bytes() for name in files} == first, command

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, AFFINE_CFG)
        assert main(["quadratic-solve", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "riccati.csv").exists()

    def test_out_override(self, tmp_path):
        cfg, out = write_cfg(tmp_path, QUADRATIC_CFG)
        other = tmp_path / "elsewhere"
        assert main(["quadratic-solve", "--config", cfg, "--grid-n", "20", "--out", str(other)]) == 0
        _, rows = read_csv(other / "riccati.csv")
        assert len(rows) == 21
        assert not out.exists()

    @pytest.mark.parametrize("command", ["affine-solve", "frontier", "simulate", "sweep"])
    @pytest.mark.parametrize("target", ["empty", "file", "under-file"])
    def test_unusable_out_named_before_solve(self, tmp_path, capsys, monkeypatch, command, target):
        calls = count_calls(monkeypatch, vmk.cli, ["solve_riccati_volterra"])
        cfg, out = write_cfg(tmp_path, AFFINE_CFG + T_SWEEP)
        taken = tmp_path / "taken.csv"
        taken.write_text("keep")
        flag = {"empty": "", "file": str(taken), "under-file": str(taken / "out")}[target]
        assert main([command, "--config", cfg, "--out", flag]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'--out'" in err and "Traceback" not in err
        assert calls["solve_riccati_volterra"] == 0
        assert taken.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "taken.csv"]

    def test_unusable_output_directory_named(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, AFFINE_CFG)
        Path(cfg).write_text(Path(cfg).read_text().replace(f'directory: "{out}"', 'directory: ""'))
        assert main(["affine-solve", "--config", cfg]) == 2
        assert "'output.directory'" in capsys.readouterr().err
        assert main(["check", "--config", cfg]) == 0

    def test_grid_override(self, tmp_path):
        cfg, out = write_cfg(tmp_path, QUADRATIC_CFG)
        assert main(["quadratic-solve", "--config", cfg, "--grid-n", "40"]) == 0
        _, rows = read_csv(out / "riccati.csv")
        assert len(rows) == 41

    def test_dense_solve_over_memory_refused(self, tmp_path, capsys, monkeypatch):
        limit = 100000  # bytes; the n = 100 solve needs 240000 (DENSE_ARRAYS = 3 arrays of 80000)
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", limit)
        cfg, out = write_cfg(tmp_path, QUADRATIC_CFG)
        assert main(["quadratic-solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(limit) in err
        assert not (out / "riccati.csv").exists()

    def test_preset_short_horizon_end_to_end(self, tmp_path):
        body = """\
grid:
  T: 0.5
quadratic:
  preset: two_asset
  hurst: [0.08, 0.4]
  eta: [1.0, 1.0]
  leverage: [-0.7, -0.7]
  stock_corr: 0.0
markowitz:
  m: 1.05
output:
  directory: "%s"
"""
        cfg, out = write_cfg(tmp_path, body)
        assert main(["quadratic-solve", "--config", cfg, "--grid-n", "100"]) == 0
        header, rows = read_csv(out / "strategy.csv")
        assert header == ["t", "alpha_1", "alpha_2", "pi_1", "pi_2"]
        assert len(rows) == 101
        vals = [float(v) for r in rows for v in r[1:3]]
        assert all(math.isfinite(v) for v in vals)
        assert any(v != 0.0 for v in vals)


class TestColumnWriter:
    def test_bytes_equal_per_value_csv_writer(self, tmp_path):
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 1.0 / 3.0, 1e-300, 123456789012345.0, 2.0])
        ints = np.array([0, -1, 2**62, 7, -(2**63), 3, 10, 11], dtype=np.int64)
        mixed = [3, np.int64(-4), 0.1, "", [0.08, 0.4], "a,b", 'say "hi"', "two\nlines"]
        text = ["", "plain", "x\ry", (1, 2), np.float64(-0.0), np.uint8(200), None, "[1]"]
        header = ["f", "i", "mixed,quoted", 'q"t']
        columns = [floats, ints, mixed, text]
        _write_csv(str(tmp_path / "columns.csv"), header, [columns])
        write_csv_rows(str(tmp_path / "rows.csv"), header, [list(row) for row in zip(*columns)])
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("extra", [-1, 0, 1, _CSV_ROWS + 1])
    def test_row_blocks_keep_the_bytes(self, tmp_path, extra):
        n_rows = _CSV_ROWS + extra
        rng = np.random.default_rng(extra + 2)
        floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
        floats[::97] = np.nan
        ints = rng.integers(-(2**62), 2**62, n_rows)
        text = [["a,b", 'q"t', "", 0.5, 7][i % 5] for i in range(n_rows)]
        header = ["f", "i", "text"]
        _write_csv(str(tmp_path / "columns.csv"), header, [[floats, ints, text]])
        write_csv_rows(str(tmp_path / "rows.csv"), header, list(zip(floats, ints, text)))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_block_that_raises_leaves_no_file(self, tmp_path):
        def blocks():
            yield [np.arange(3.0)]
            assert (tmp_path / "out" / "t.csv.tmp").is_file()  # the first block is on disk
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            _write_csv(str(tmp_path / "out" / "t.csv"), ["x"], blocks())
        assert list((tmp_path / "out").iterdir()) == []


class TestFrontier:
    def test_rows_and_closed_form_value(self, tmp_path):
        body = QUADRATIC_CFG.replace("m: 1.1", "m: [1.0, 1.05, 1.1]").replace("n: 100", "n: 400")
        cfg, out = write_cfg(tmp_path, body)
        assert main(["frontier", "--config", cfg]) == 0
        header, rows = read_csv(out / "frontier.csv")
        assert header == ["m", "std", "variance", "xi_star", "gamma0"]
        assert [float(r[0]) for r in rows] == [1.0, 1.05, 1.1]
        gamma0 = float(rows[0][4])
        for r in rows:
            m, std, var, xi = (float(v) for v in r[:4])
            assert std == pytest.approx(math.sqrt(var), rel=1e-9)
            assert xi == pytest.approx((m - gamma0) / (1.0 - gamma0), rel=1e-9)
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows[2][2]) == pytest.approx(0.0137576, rel=1e-2)


class TestSimulate:
    def test_mc_table_schema_and_targets(self, tmp_path):
        cfg, out = write_cfg(tmp_path, AFFINE_CFG)
        assert main(["simulate", "--config", cfg, "--paths", "2000", "--seed", "9"]) == 0
        header, rows = read_csv(out / "mc.csv")
        assert header == ["quantity", "value", "se"]
        table = {r[0]: r[1:] for r in rows}
        assert list(table) == [
            "paths", "seed", "m", "xi_star", "mean_XT", "target_m",
            "var_XT", "target_V", "gamma0_mc", "gamma0_closed",
        ]
        assert table["paths"][0] == "2000"
        assert table["seed"][0] == "9"
        assert table["m"] == ["1.1", ""]
        mean, se = float(table["mean_XT"][0]), float(table["mean_XT"][1])
        assert abs(mean - 1.1) <= 4.0 * se
        gmc, gse = float(table["gamma0_mc"][0]), float(table["gamma0_mc"][1])
        closed = float(table["gamma0_closed"][0])
        assert abs(gmc - closed) <= 4.0 * gse
        assert table["target_V"][1] == ""

    def test_path_dump(self, tmp_path):
        body = AFFINE_CFG + "mc:\n  paths: 50\n  dump_paths: 3\n"
        cfg, out = write_cfg(tmp_path, body)
        assert main(["simulate", "--config", cfg, "--grid-n", "20"]) == 0
        header, rows = read_csv(out / "paths.csv")
        assert header == ["path_id", "t", "X", "alpha_1", "pi_1", "Y_1"]
        assert len(rows) == 3 * 21
        assert {r[0] for r in rows} == {"0", "1", "2"}
        terminal = [r for r in rows if float(r[1]) == 1.0]
        assert len(terminal) == 3
        for r in terminal:
            assert r[3] == "nan"
        interior = [r for r in rows if float(r[1]) < 1.0]
        for r in interior:
            assert math.isfinite(float(r[3]))

    @pytest.mark.parametrize("body, grid, command", [(AFFINE_CFG, "  T: 1.0\n  n: 200\n", "affine-solve"),
                                                     (QUADRATIC_CFG, "  T: 0.5\n  n: 100\n", "quadratic-solve")],
                             ids=["affine", "quadratic"])
    def test_oversized_default_grid_refused(self, tmp_path, capsys, monkeypatch, body, grid, command):
        # T = 10^7 and no grid.n: the default n = 2 10^9 is refused before the g0 check samples a node
        limit = 10**9
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", limit)
        monkeypatch.setattr(vmk.config, "g0_nodes", lambda *a, **k: pytest.fail("sampled g0 over the limit"))
        assert grid in body
        cfg, out = write_cfg(tmp_path, body.replace(grid, "  T: 10000000\n"))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "grid of 2000000000 cells" in err and "grid.n" in err and str(limit) in err
        assert not out.exists()

    def test_premium_map_over_memory_refused(self, tmp_path, capsys, monkeypatch):
        limit = 400000  # bytes; the n = 100 solve needs 240000, the premium map 400008 (MAP_ARRAYS = 2)
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", limit)
        monkeypatch.setattr(vmk.quadratic, "_premium_map", lambda *a: pytest.fail("map built over the limit"))
        cfg, out = write_cfg(tmp_path, QUADRATIC_CFG + "mc:\n  paths: 10\n")
        assert main(["quadratic-solve", "--config", cfg]) == 0
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "premium map" in err and str(limit) in err
        assert not (out / "mc.csv").exists()

    def test_mc_chunk_over_memory_refused(self, tmp_path, capsys, monkeypatch):
        limit = 100000  # bytes; one 64-path chunk at n = 200 needs 1027584
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", limit)
        monkeypatch.setattr(vmk.montecarlo, "simulate_drivers", lambda *a, **k: pytest.fail("drew over the limit"))
        cfg, out = write_cfg(tmp_path, AFFINE_CFG + "mc:\n  paths: 100\n  chunk: 64\n")
        assert main(["affine-solve", "--config", cfg]) == 0
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "Monte Carlo chunk" in err and "mc.chunk" in err and str(limit) in err
        assert not (out / "mc.csv").exists()

    def test_oversized_dump_refused_before_the_first_draw(self, tmp_path, capsys, monkeypatch):
        # one budget for the 16-path chunk and the 50 kept paths of 100
        cfg, out = write_cfg(tmp_path, AFFINE_CFG + "mc:\n  paths: 100\n  chunk: 16\n  dump_paths: 50\n")
        c = vmk.config.load_config(cfg)
        _, model = vmk.config.build_model(c)
        need = chunk_bytes(AffineEvaluator(model, vmk.config.build_grid(c)), 16, 50, paths=100)
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", need)
        assert main(["simulate", "--config", cfg]) == 0
        _, rows = read_csv(out / "paths.csv")
        assert len(rows) == 50 * 201
        for name in ("mc.csv", "paths.csv"):
            (out / name).unlink()
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", need - 1)
        monkeypatch.setattr(vmk.montecarlo, "simulate_drivers", lambda *a, **k: pytest.fail("drew over the limit"))
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "mc.dump_paths" in err and str(need) in err and str(need - 1) in err
        assert not (out / "mc.csv").exists() and not (out / "paths.csv").exists()

    def test_dump_that_fits_runs(self, tmp_path, monkeypatch):
        # 20000 dumped paths at n = 100 in 256-path chunks: the whole
        # command traces at 51.4 MB.  Counting every dumped path's kept and
        # written floats, 145440000 bytes, refused it at 1.25 times that peak
        limit = int(1.25 * 51.4e6)
        cfg, out = write_cfg(tmp_path, AFFINE_CFG + "mc:\n  paths: 20000\n  chunk: 256\n  dump_paths: 20000\n")
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", limit)
        assert main(["simulate", "--config", cfg, "--grid-n", "100"]) == 0
        assert (out / "paths.csv").stat().st_size > 0

    def test_path_dump_written_a_block_at_a_time(self, tmp_path, monkeypatch):
        # The writer's traced peak per dumped path and node, taken as the
        # slope between two dump sizes so that one block's columns and
        # formatted rows cancel: the kept wealth, amounts and state (3.02)
        # and nothing per path beside them.  Whole-dump columns read 7.02
        # (7.17 at 20000 dumped paths taken alone).
        n, sizes = 100, (500, 2500)
        peaks = []
        write = vmk.cli._write_paths_csv

        def traced_write(*args):
            tracemalloc.reset_peak()
            write(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])

        cfgs = [write_cfg(tmp_path, AFFINE_CFG + f"mc:\n  paths: {paths}\n  dump_paths: {paths}\n",
                          name=f"cfg{paths}.yaml")[0] for paths in sizes]
        assert main(["simulate", "--config", cfgs[0], "--grid-n", str(n)]) == 0  # first-call allocations
        monkeypatch.setattr(vmk.cli, "_write_paths_csv", traced_write)
        for cfg in cfgs:
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", cfg, "--grid-n", str(n)]) == 0
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / ((sizes[1] - sizes[0]) * (n + 1) * 8) <= 3.5

    def test_path_positions_match_strategy(self, tmp_path):
        y0 = (1.0e-14, 0.3)
        body = """\
grid:
  T: 0.5
  n: 20
quadratic:
  preset: two_asset
  y0: [1.0e-14, 0.3]
mc:
  paths: 8
  dump_paths: 2
output:
  directory: "%s"
"""
        cfg, out = write_cfg(tmp_path, body)
        assert main(["quadratic-solve", "--config", cfg]) == 0
        assert main(["simulate", "--config", cfg]) == 0
        _, s_rows = read_csv(out / "strategy.csv")
        header, p_rows = read_csv(out / "paths.csv")
        assert header[3:] == ["alpha_1", "alpha_2", "pi_1", "pi_2", "Y_1", "Y_2"]
        strategy_nan = [math.isnan(float(v)) for v in s_rows[0][3:5]]
        assert any(strategy_nan)
        model = two_asset_model(y0=y0)
        for r in p_rows:
            t = float(r[1])
            alpha, pi, y = (np.array([float(v) for v in r[i : i + 2]]) for i in (3, 5, 7))
            if t == 0.0:
                assert tuple(y) == y0
                assert [math.isnan(v) for v in pi] == strategy_nan
            elif t < 0.5:
                sigma = volatility_matrix(model, y)
                np.testing.assert_allclose(sigma.T @ pi, alpha, rtol=1e-10, atol=1e-10)


class TestSweep:
    def test_horizon_sweep_row_count(self, tmp_path):
        body = QUADRATIC_CFG + "sweep:\n  parameter: T\n  values: [0.4, 0.6]\n"
        cfg, out = write_cfg(tmp_path, body)
        assert main(["sweep", "--config", cfg, "--grid-n", "40"]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["parameter", "value", "asset", "t", "alpha"]
        assert len(rows) == 2 * 41
        assert {r[0] for r in rows} == {"T"}
        assert {r[1] for r in rows} == {"0.4", "0.6"}
        long_rows = [r for r in rows if r[1] == "0.6"]
        assert float(long_rows[-1][3]) == pytest.approx(0.6)

    def test_model_parameter_sweep(self, tmp_path):
        body = AFFINE_CFG + "sweep:\n  parameter: theta\n  values: [0.5, 1.0]\n"
        cfg, out = write_cfg(tmp_path, body)
        assert main(["sweep", "--config", cfg, "--grid-n", "50"]) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2 * 51
        by_theta = {}
        for r in rows:
            by_theta.setdefault(r[1], []).append(float(r[4]))
        # larger premia scale the amounts up at the start of the horizon
        assert abs(by_theta["1"][0]) > abs(by_theta["0.5"][0])

    def test_preset_pair_sweep_writes_json_values(self, tmp_path):
        body = """\
grid:
  T: 0.5
quadratic:
  preset: two_asset
  hurst: [0.08, 0.4]
sweep:
  parameter: hurst
  values: [[0.08, 0.4], [0.2, 0.3]]
output:
  directory: "%s"
"""
        cfg, out = write_cfg(tmp_path, body)
        assert main(["sweep", "--config", cfg, "--grid-n", "20"]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["parameter", "value", "asset", "t", "alpha"]
        assert len(rows) == 2 * 2 * 21
        assert rows[0][:3] == ["hurst", "[0.08, 0.4]", "1"]
        assert {r[1] for r in rows} == {"[0.08, 0.4]", "[0.2, 0.3]"}

    @pytest.mark.parametrize("param, values, key", [
        ("theta", "[0.5, abc]", "'sweep.values[1]': 'affine.theta'"),
        ("T", "[0.5, -1.0]", "sweep.values[1]"),
    ])
    def test_bad_sweep_value_fails_before_output(self, tmp_path, capsys, param, values, key):
        body = AFFINE_CFG + f"sweep:\n  parameter: {param}\n  values: {values}\n"
        cfg, out = write_cfg(tmp_path, body)
        assert main(["sweep", "--config", cfg, "--grid-n", "20"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not out.exists()

    def test_missing_sweep_section(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, QUADRATIC_CFG)
        assert main(["sweep", "--config", cfg]) == 2
        assert "sweep" in capsys.readouterr().err


class TestCheck:
    def test_quadratic_report(self, tmp_path, capsys):
        body = QUADRATIC_CFG + "check:\n  p: 3.0\n  coarse_n: 15\n"
        cfg, _ = write_cfg(tmp_path, body)
        assert main(["check", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "model: quadratic" in text
        assert "h1_condition_0_lt_gamma0_lt_bound: True" in text
        assert "m0_min_eig:" in text
        assert "contraction.kappa_hat:" in text
        assert "covariance.lambda1:" in text
        assert "a_of_p(p=3):" in text

    def test_covariance_spectrum_on_fine_coarse_grid(self, tmp_path, capsys):
        # 2 N n^2 = 3600 at coarse_n = 30: the operator is never assembled
        body = 'grid:\n  T: 0.5\n  n: 40\nquadratic:\n  preset: two_asset\ncheck:\n  coarse_n: 30\noutput:\n  directory: "%s"\n'
        cfg, _ = write_cfg(tmp_path, body)
        assert main(["check", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "covariance.dim: 3600" in text.splitlines()

    def test_affine_report(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, AFFINE_CFG)
        assert main(["check", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "model: affine" in text
        assert "theta_condition.satisfied:" in text
        assert "gamma0_bound_exp_2intr: 1" in text


    # theta 1e-7 leaves 1 - Gamma_0 e^(-2 int r) = 8.9e-16 below DEGENERACY_TOL, theta 0 leaves 0
    DEGENERATE_CFG = ('grid:\n  T: 1.0\n  n: 50\naffine:\n  kernels: [{type: fractional, h: 0.1}]\n  drift: -1.0\n'
                      '  nu: 0.4\n  rho: -0.5\n  theta: %s\n  g0: 0.16\nmarkowitz:\n  m: 1.1\n')

    @pytest.mark.parametrize("theta", ["1e-7", "0"])
    def test_degenerate_market_reported_in_full(self, tmp_path, capsys, theta):
        path = tmp_path / "cfg.yaml"
        path.write_text(self.DEGENERATE_CFG % theta)
        assert main(["check", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("h1_condition_0_lt_gamma0_lt_bound: False", "xi_star(m=1.1): nan", "value_V(m=1.1): nan"):
            assert line in lines
        assert lines[-1].startswith("mean_reversion_a_bound[1]: ")


T_SWEEP = "sweep:\n  parameter: T\n  values: [0.4, 0.6]\n"


def count_calls(monkeypatch, module, names):
    """Replace each named global of ``module`` with a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


class TestOneResolvedRun:
    """Each run validates, builds and solves once, and a failing run leaves no output directory."""

    @pytest.mark.parametrize("body, command", [
        (AFFINE_CFG, "quadratic-solve"),
        (QUADRATIC_CFG, "sweep"),
        (AFFINE_CFG.replace("theta: 1.0", "theta: 0.0"), "frontier"),
    ], ids=["kind-mismatch", "missing-sweep", "degenerate-market"])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys, body, command):
        cfg, out = write_cfg(tmp_path, body)
        assert main([command, "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, sweep, builds", [
        ("affine-solve", "", 1),
        ("frontier", "", 1),
        ("simulate", "", 1),
        ("check", "", 1),
        ("sweep", T_SWEEP, 1),
        ("sweep", "sweep:\n  parameter: theta\n  values: [0.5, 1.0]\n", 3),
    ], ids=["affine-solve", "frontier", "simulate", "check", "sweep-T", "sweep-theta"])
    def test_one_model_build_per_run_and_swept_value(self, tmp_path, monkeypatch, command, sweep, builds):
        calls = count_calls(monkeypatch, vmk.config, ["model_from_section"])
        cfg, _ = write_cfg(tmp_path, AFFINE_CFG + sweep)
        assert main([command, "--config", cfg, "--grid-n", "20", "--paths", "200"]) == 0
        assert calls["model_from_section"] == builds

    TRACED = ("solve_riccati_volterra", "gamma0_affine", "solve_operator_riccati", "run_mc")

    @pytest.mark.parametrize("family, command, counts", [
        ("affine", "affine-solve", (1, 1, 0, 0)),
        ("affine", "frontier", (1, 1, 0, 0)),
        ("affine", "check", (1, 1, 0, 0)),
        ("affine", "simulate", (1, 1, 0, 1)),
        ("affine", "sweep", (2, 2, 0, 0)),
        ("quadratic", "quadratic-solve", (0, 0, 1, 0)),
        ("quadratic", "frontier", (0, 0, 1, 0)),
        ("quadratic", "check", (0, 0, 1, 0)),
        ("quadratic", "simulate", (0, 0, 1, 1)),
        ("quadratic", "sweep", (0, 0, 2, 0)),
    ])
    def test_solver_and_mc_called_through_cli_globals(self, tmp_path, monkeypatch, family, command, counts):
        # the benchmark's traced run times each layer by wrapping these names in vmk.cli
        calls = count_calls(monkeypatch, vmk.cli, self.TRACED)
        cfg, _ = write_cfg(tmp_path, (AFFINE_CFG if family == "affine" else QUADRATIC_CFG) + T_SWEEP)
        assert main([command, "--config", cfg, "--grid-n", "20", "--paths", "200"]) == 0
        assert calls == dict(zip(self.TRACED, counts))


class TestNumpyOnlyRuntime:
    """Every CLI path runs on numpy alone: a fresh interpreter never loads scipy."""

    SCRIPT = (
        "import sys\n"
        "from vmk.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )

    @pytest.mark.parametrize("command, family", [
        ("quadratic-solve", "quadratic"),
        ("simulate", "affine"),
        ("simulate", "quadratic"),
        ("check", "affine"),
        ("check", "quadratic"),
    ])
    def test_no_scipy_module_loaded(self, tmp_path, command, family):
        cfg, _ = write_cfg(tmp_path, AFFINE_CFG if family == "affine" else QUADRATIC_CFG)
        src = str(Path(vmk.quadratic.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, command, "--config", cfg, "--paths", "200", "--grid-n", "40"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 []"


class TestConfigErrors:
    def test_unknown_key_named(self, tmp_path, capsys):
        body = QUADRATIC_CFG.replace("g0: 1.0", "g0: 1.0\n  vol_of_vol: 2.0")
        cfg, out = write_cfg(tmp_path, body)
        assert main(["quadratic-solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "vol_of_vol" in err
        assert not out.exists()

    def test_two_model_sections_rejected(self, tmp_path, capsys):
        body = QUADRATIC_CFG + "affine:\n  kernels: [{type: constant}]\n"
        cfg, _ = write_cfg(tmp_path, body)
        assert main(["quadratic-solve", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_model_assumption_prints_hint(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, QUADRATIC_CFG.replace("corr: [[0.0]]", "corr: 1.5"))
        assert main(["quadratic-solve", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: correlation rows must satisfy |C_k| <= 1")
        assert err[1].startswith("hint: check the correlation rows")
        assert not out.exists()

    @pytest.mark.parametrize("kind, old, new", [
        ("affine", "theta: 1.0\n  g0: 0.8", "theta: 60.0\n  g0: 0.5"),
        ("quadratic", "theta: [[1.0]]", "theta: [[2000.0]]"),
    ])
    def test_gamma_underflow_is_a_model_limit(self, tmp_path, capsys, kind, old, new):
        body = {"affine": AFFINE_CFG.replace("nu: 1.4142135623730951", "nu: 0.0"), "quadratic": QUADRATIC_CFG}[kind]
        cfg, out = write_cfg(tmp_path, body.replace(old, new))
        assert main([f"{kind}-solve", "--config", cfg, "--grid-n", "50"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: strategy value Gamma = exp(") and "underflows double precision" in err[0]
        assert err[1].startswith("hint: ") and "correlation" not in err[1] and "enforce_psd" not in err[1]
        assert len(err) == 2 and not out.exists()

    def test_bad_grid_override(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, QUADRATIC_CFG)
        assert main(["quadratic-solve", "--config", cfg, "--grid-n", "1"]) == 2
        assert "grid-n" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("T: 0.5", "T: abc", "grid.T"),
        ("n: 100", "n: many", "grid.n"),
        ("theta: [[1.0]]", "theta: [[one]]", "quadratic.theta"),
        ("g0: 1.0", "g0: high", "quadratic.g0"),
        ("value: 1.0}", "value: x}", "quadratic.kernel.value"),
        ("m: 1.1", "m: [1.1, up]", "markowitz.m"),
        ("n: 100", "n: .inf", "grid.n"),
        ("T: 0.5\n  n: 100", "T: 1.0e308", "grid.n"),
        ("output:", "mc:\n  paths: .inf\noutput:", "mc.paths"),
        ("n: 100", "n: 100.5", "grid.n"),
        ("output:", "mc:\n  paths: 4.9\noutput:", "mc.paths"),
        ("output:", "mc:\n  seed: 0.5\noutput:", "mc.seed"),
        ("output:", "mc:\n  chunk: 2.5\noutput:", "mc.chunk"),
        ("output:", "mc:\n  dump_paths: 1.5\noutput:", "mc.dump_paths"),
        ("output:", "check:\n  coarse_n: 20.5\noutput:", "check.coarse_n"),
        ("output:", "mc:\n  dump_paths: -3\noutput:", "mc.dump_paths"),
        ("output:", "mc:\n  chunk: 0\noutput:", "mc.chunk"),
        ("output:", "mc:\n  seed: 1.0e+30\noutput:", "mc.seed"),
        ("output:", "mc:\n  seed: 18446744073709551616\noutput:", "mc.seed"),
        ("output:", "mc:\n  seed: -9223372036854775809\noutput:", "mc.seed"),
        ("m: 1.1", "m: .nan", "markowitz.m"),
        ("m: 1.1", "m: .inf", "markowitz.m"),
        ("x0: 1.0", "x0: .nan", "markowitz.x0"),
        ("g0: 1.0", "g0: .nan", "quadratic.g0"),
        ("theta: [[1.0]]", "theta: [[-.inf]]", "quadratic.theta"),
        ("value: 1.0}", "value: .inf}", "quadratic.kernel.value"),
        ("output:", "mc:\n  antithetic: \"false\"\noutput:", "mc.antithetic"),
        ("output:", "mc:\n  antithetic: 0.5\noutput:", "mc.antithetic"),
        ("g0: 1.0", "g0: 1.0\n  enforce_psd: \"false\"", "quadratic.enforce_psd"),
        ("T: 0.5", "T: true", "grid.T"),
        ("m: 1.1", "m: true", "markowitz.m"),
        ("m: 1.1", "m: [1.1, true]", "markowitz.m"),
        ("x0: 1.0", "x0: true", "markowitz.x0"),
        ("theta: [[1.0]]", "theta: [[true]]", "quadratic.theta"),
        ("g0: 1.0", "g0: true", "quadratic.g0"),
        ("g0: 1.0", "g0: 1.0\n  rate: true", "quadratic.rate"),
        ("value: 1.0}", "value: true}", "quadratic.kernel.value"),
        ("output:", "mc:\n  seed: true\noutput:", "mc.seed"),
        ("output:", "mc:\n  dump_paths: true\noutput:", "mc.dump_paths"),
        ("output:", "mc:\n  chunk: true\noutput:", "mc.chunk"),
    ])
    def test_non_numeric_value_named(self, tmp_path, capsys, old, new, key):
        cfg, out = write_cfg(tmp_path, QUADRATIC_CFG.replace(old, new))
        assert main(["quadratic-solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("family, body, key", [
        ("affine", AFFINE_CFG.replace("nu: 1.4142135623730951", "nu: []"), "nu must be"),
        ("affine", AFFINE_CFG.replace("rho: 0.0", "rho: []"), "rho must be"),
        ("affine", AFFINE_CFG.replace("theta: 1.0", "theta: []"), "theta must be"),
        ("affine", AFFINE_CFG + "sweep:\n  parameter: theta\n  values: [0.5, [[1, 2], [3, 4]]]\n", "theta must be"),
        ("quadratic", PRESET_CFG % "[-1, 0.4]", "hurst must be"),
        ("quadratic", PRESET_CFG % "1.0e+308", "hurst must be"),
    ], ids=["nu-empty", "rho-empty", "theta-empty", "sweep-theta-matrix", "hurst-negative", "hurst-huge"])
    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_bad_model_shape_or_range_named(self, tmp_path, capsys, family, body, key, command):
        cfg, out = write_cfg(tmp_path, body)
        assert main([f"{family}-solve" if command == "solve" else command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command, body, key", [
        (command, AFFINE_CFG.replace("g0: 0.8", "g0: [[1, 2], [3, 4]]"), "'affine.g0'")
        for command in ("affine-solve", "check")
    ] + [
        (command, QUADRATIC_CFG.replace("g0: 1.0", "g0: [1, 2, 3]"), "'quadratic.g0'")
        for command in ("quadratic-solve", "check")
    ] + [
        ("sweep", AFFINE_CFG + "sweep:\n  parameter: g0\n  values: [0.5, [1, 2]]\n", "'sweep.values[1]'"),
    ])
    def test_bad_g0_shape_fails_before_output(self, tmp_path, capsys, command, body, key):
        cfg, out = write_cfg(tmp_path, body)
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and key in captured.err
        assert not out.exists()

    def test_g0_table_checked_against_grid_override(self, tmp_path, capsys):
        table = "[" + ", ".join(["[0.8]"] * 11) + "]"
        cfg, _ = write_cfg(tmp_path, AFFINE_CFG.replace("n: 200", "n: 10").replace("g0: 0.8", f"g0: {table}"))
        assert main(["affine-solve", "--config", cfg]) == 0
        assert main(["affine-solve", "--config", cfg, "--grid-n", "20", "--out", str(tmp_path / "o2")]) == 2
        assert "'affine.g0'" in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--paths", "-5"),
        ("--paths", "1"),
        ("--seed", "18446744073709551616"),
        ("--seed", "-9223372036854775809"),
    ])
    def test_bad_mc_flag_named(self, tmp_path, capsys, flag, value):
        cfg, out = write_cfg(tmp_path, AFFINE_CFG)
        assert main(["simulate", "--config", cfg, flag, value]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("mc, flags, key", [
        ("mc:\n  paths: 9\n  antithetic: true\n", [], "'mc.paths' must be even"),
        ("mc:\n  paths: 2\n  antithetic: true\n", [], "'mc.paths' must be at least 4"),
        ("mc:\n  paths: 10\n  antithetic: true\n", ["--paths", "7"], "'--paths' must be even"),
    ])
    def test_odd_paths_refused_under_antithetic(self, tmp_path, capsys, mc, flags, key):
        cfg, out = write_cfg(tmp_path, AFFINE_CFG.replace("output:", mc + "output:"))
        assert main(["simulate", "--config", cfg] + flags) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["18446744073709551615", "-9223372036854775808"])
    def test_seed_range_ends_run(self, tmp_path, seed):
        body = AFFINE_CFG.replace("n: 200", "n: 10")
        cfg, out = write_cfg(tmp_path, body)
        assert main(["simulate", "--config", cfg, "--seed", seed, "--paths", "4"]) == 0
        _, rows = read_csv(out / "mc.csv")
        assert dict((r[0], r[1]) for r in rows)["seed"] == seed
