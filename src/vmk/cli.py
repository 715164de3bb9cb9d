"""Command-line entry point.

Subcommands share one config file: affine-solve and quadratic-solve dump
the Riccati solution and the deterministic strategy profile, frontier
tabulates the mean-variance tradeoff, simulate runs the Monte Carlo
consistency pipeline, sweep re-solves across one parameter, and check
prints admissibility diagnostics without writing files.

A run is resolved once: ``config.load_config`` validates the config and
the grid flag and builds the model, ``_run`` solves it, and each
subcommand reads that solved run.  All CSV output is written atomically
(temp file then rename) after the full computation succeeds, and the
output directory is checked before the solve and made just before the
first file, so a failing run leaves neither partial files nor an empty
directory.  Reruns with the same config and seed are byte identical.
"""

import argparse
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import config as cfgmod
from .affine import (
    AffineEvaluator,
    gamma0_affine,
    mean_reversion_a_bound,
    premium_loading,
    solve_riccati_volterra,
    theta_condition_check_affine,
)
from .errors import (ConfigError, DegenerateMarketError, GammaUnderflowError, InvalidArgumentError,
                     ModelAssumptionError, RiccatiBlowUpError, VmkError)
from .grid import g0_nodes, make_grid
from .markowitz import a_of_p, frontier, integrated_rate, value_v, xi_star
from .montecarlo import run_mc
from .quadratic import (
    QuadraticEvaluator,
    asset_positions,
    contraction_report,
    lambda_max_covariance,
    solve_operator_riccati,
)

# Rows per block of _write_csv: a block's values as Python objects take
# about 32 bytes each on top of the 8 of the array, so they are formatted
# a block at a time.
_CSV_ROWS = 4096


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (list, tuple)):
        return json.dumps(list(value))
    return str(value)


def _quote(text: str) -> str:
    """A field as the csv module's default (excel) dialect writes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: str, header, blocks) -> None:
    """Write a table given as an iterable of row blocks, each column by column, one ``%`` format per row.

    A float array is printed with ``%.12g`` and an integer array with
    ``%d``, as ``_fmt`` prints their values; any other column goes through
    ``_fmt`` value by value and is quoted as ``csv.writer`` quotes.  For a
    table of two or more columns the bytes are those of ``csv.writer``
    given the ``_fmt`` strings.  Rows are formatted ``_CSV_ROWS`` at a
    time and a block is read only once the rows before it are written, so
    a generator can build the columns block by block.  A block that raises
    leaves no file behind; the file's directory is made if missing.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(_quote(h) for h in header) + "\r\n")
            for columns in blocks:
                numeric = [isinstance(col, np.ndarray) and col.dtype.kind in "fiu" for col in columns]
                row_fmt = ",".join(("%.12g" if col.dtype.kind == "f" else "%d") if num else "%s"
                                   for col, num in zip(columns, numeric)) + "\r\n"
                n_rows = min((len(col) for col in columns), default=0)
                for r0 in range(0, n_rows, _CSV_ROWS):
                    values = [col[r0 : r0 + _CSV_ROWS].tolist() if num
                              else [_quote(_fmt(v)) for v in col[r0 : r0 + _CSV_ROWS]]
                              for col, num in zip(columns, numeric)]
                    fh.writelines(row_fmt % row for row in zip(*values))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _run(kind: str, model, grid, cfg) -> SimpleNamespace:
    """Solve one model on one grid and resolve what the subcommands read.

    Holds the affine ``psi`` or the quadratic ``solution`` (the other is
    None), ``gamma0``, the deterministic premium profile ``premium`` (n+1, d)
    along the state curve ``curve`` (n+1, dim), the wealth ``x0`` and
    ``int_r``, the trapezoid value of int_0^T r.
    """
    solution = psi = None
    if kind == "affine":
        psi = solve_riccati_volterra(model, grid)
        gamma0 = gamma0_affine(model, grid, psi)
        curve = g0_nodes(model.g0, grid, model.dim)
        premium = premium_loading(model, psi, grid, np.arange(grid.n + 1)) * np.sqrt(np.maximum(curve, 0.0))
    else:
        solution = solve_operator_riccati(model, grid)
        gamma0, curve, premium = solution.gamma0, solution.g0s, solution.premium_profile
    return SimpleNamespace(kind=kind, model=model, grid=grid, psi=psi, solution=solution, gamma0=gamma0,
                           premium=premium, curve=curve, x0=cfgmod.wealth_x0(cfg, model),
                           int_r=integrated_rate(model.rate, grid))


def _amounts(run, m_value: float) -> np.ndarray:
    """The (n+1, d) amounts of the deterministic strategy for target m."""
    return run.premium * xi_star(run.gamma0, run.x0, m_value, run.int_r)


def _positions(run, states, alpha):
    """Asset positions for rows of state and amount; NaN where undefined.

    Affine: alpha / sqrt(V+), NaN where V+ = 0.  Quadratic: the solution of
    sigma(Y)' pi = alpha, NaN where sigma(Y) is numerically singular or the
    model has no stock loadings.
    """
    if run.kind == "quadratic" and run.model.loadings is not None:
        return asset_positions(run.model, states, alpha)
    out = np.full_like(alpha, np.nan)
    if run.kind == "affine":
        vol = np.sqrt(np.maximum(states, 0.0))
        np.divide(alpha, vol, out=out, where=vol > 0.0)
    return out


def _cmd_solve(run, cfg, out_dir: str) -> None:
    nodes = run.grid.nodes
    if run.kind == "affine":
        ric_header = ["t"] + [f"psi_{i + 1}" for i in range(run.model.dim)]
        ric_cols = [nodes, *run.psi.T]
    else:
        sol, N = run.solution, run.model.n_state
        ric_header = ["t", "phi", "phidot"] + [f"p_{i + 1}{j + 1}" for i in range(N) for j in range(N)]
        ric_cols = [nodes, sol.phi, sol.phidot, *sol.p_path.reshape(run.grid.n + 1, N * N).T]
    alpha = _amounts(run, cfg.m_values[0])
    pi = _positions(run, run.curve, alpha)
    d = alpha.shape[1]
    s_header = ["t"] + [f"alpha_{i + 1}" for i in range(d)] + [f"pi_{i + 1}" for i in range(d)]
    _write_csv(os.path.join(out_dir, "riccati.csv"), ric_header, [ric_cols])
    _write_csv(os.path.join(out_dir, "strategy.csv"), s_header, [[nodes, *alpha.T, *pi.T]])


def _cmd_frontier(run, cfg, out_dir: str) -> None:
    points = frontier(run.gamma0, run.x0, cfg.m_values, run.int_r)
    table = np.array([[p.m, p.std, p.variance, p.xi_star, p.gamma0] for p in points])
    _write_csv(os.path.join(out_dir, "frontier.csv"),
               ["m", "std", "variance", "xi_star", "gamma0"], [table.T])


def _cmd_simulate(run, cfg, out_dir: str) -> None:
    m_value = cfg.m_values[0]
    xi = xi_star(run.gamma0, run.x0, m_value, run.int_r)
    target_v = value_v(run.gamma0, run.x0, m_value, run.int_r)
    if run.kind == "affine":
        evaluator = AffineEvaluator(run.model, run.grid, psi=run.psi)
    else:
        evaluator = QuadraticEvaluator(run.model, run.grid, solution=run.solution)
    result = run_mc(evaluator, cfg.mc.paths, cfg.mc.seed, run.x0, xi,
                    antithetic=cfg.mc.antithetic, chunk=cfg.mc.chunk,
                    keep_paths=cfg.mc.dump_paths)
    rows = [
        ["paths", cfg.mc.paths, ""],
        ["seed", cfg.mc.seed, ""],
        ["m", m_value, ""],
        ["xi_star", xi, ""],
        ["mean_XT", result.wealth.mean, result.wealth.se_mean],
        ["target_m", m_value, ""],
        ["var_XT", result.wealth.variance, result.wealth.se_variance],
        ["target_V", target_v, ""],
        ["gamma0_mc", result.gamma.mean, result.gamma.se_mean],
        ["gamma0_closed", run.gamma0, ""],
    ]
    _write_csv(os.path.join(out_dir, "mc.csv"), ["quantity", "value", "se"], [list(zip(*rows))])
    if cfg.mc.dump_paths > 0:
        _write_paths_csv(os.path.join(out_dir, "paths.csv"), run, result.kept)


def _write_paths_csv(path: str, run, kept) -> None:
    """One row per kept path and node; amounts and positions are NaN at the horizon.

    Written about ``_CSV_ROWS`` rows at a time: a block of paths has its
    columns built and its positions solved just before it is formatted,
    so beyond the kept arrays only one block's columns exist at once.
    """
    n = run.grid.n
    P, _, d = kept.alpha.shape
    n_state = kept.state.shape[2]
    header = (["path_id", "t", "X"]
              + [f"alpha_{i + 1}" for i in range(d)]
              + [f"pi_{i + 1}" for i in range(d)]
              + [f"Y_{j + 1}" for j in range(n_state)])

    def blocks():
        step = max(1, _CSV_ROWS // (n + 1))
        for p0 in range(0, P, step):
            block = slice(p0, min(p0 + step, P))
            m = block.stop - p0
            alpha, pi = np.full((2, m, n + 1, d), np.nan)
            alpha[:, :n] = kept.alpha[block]
            pi[:, :n] = _positions(run, kept.state[block, :n].reshape(-1, n_state),
                                   kept.alpha[block].reshape(-1, d)).reshape(m, n, d)
            rows = m * (n + 1)
            yield [np.repeat(np.arange(p0, block.stop), n + 1), np.tile(run.grid.nodes, m),
                   kept.x[block].reshape(rows), *alpha.reshape(rows, d).T, *pi.reshape(rows, d).T,
                   *kept.state[block].reshape(rows, n_state).T]

    _write_csv(path, header, blocks())


def _cmd_sweep(cfg, kind: str, out_dir: str) -> None:
    if cfg.sweep is None:
        raise ConfigError("subcommand 'sweep' needs a 'sweep' section in the config")
    values, assets, times, amounts = [], [], [], []
    for value, (horizon, model) in zip(cfg.sweep.values, cfg.sweep.runs):
        grid = make_grid(horizon, cfg.n)
        alpha = _amounts(_run(kind, model, grid, cfg), cfg.m_values[0])
        d = alpha.shape[1]
        values += [value] * alpha.size
        assets.append(np.repeat(np.arange(1, d + 1), grid.n + 1))
        times.append(np.tile(grid.nodes, d))
        amounts.append(alpha.T.ravel())
    _write_csv(os.path.join(out_dir, "sweep.csv"), ["parameter", "value", "asset", "t", "alpha"],
               [[[cfg.sweep.parameter] * len(values), values, np.concatenate(assets), np.concatenate(times),
                 np.concatenate(amounts)]])


def _cmd_check(cfg, kind: str, model, grid) -> None:
    chk = cfg.check
    print(f"model: {kind}")
    print(f"grid: T={_fmt(grid.horizon)} n={grid.n}")
    corr = np.diag(model.rho) if kind == "affine" else model.corr
    a_frob = a_of_p(chk.p, corr, norm="frobenius")
    a_sq = a_of_p(chk.p, corr, norm="squared-frobenius")
    a_used = chk.a if chk.a is not None else a_frob
    print(f"a_of_p(p={_fmt(chk.p)}): frobenius={_fmt(a_frob)} squared-frobenius={_fmt(a_sq)}")
    print(f"a_used: {_fmt(a_used)}")
    run = _run(kind, model, grid, cfg)
    gamma0, bound = run.gamma0, float(np.exp(2.0 * run.int_r))
    print(f"gamma0: {_fmt(gamma0)}")
    print(f"gamma0_bound_exp_2intr: {_fmt(bound)}")
    m_value = cfg.m_values[0]
    args = (gamma0, run.x0, m_value, run.int_r)
    try:  # H1 is the rule xi_star and value_V apply; where it fails, a degenerate market, they print nan
        xi, target_v, h1 = xi_star(*args), value_v(*args), True
    except (DegenerateMarketError, InvalidArgumentError):
        xi, target_v, h1 = float("nan"), float("nan"), False
    print(f"h1_condition_0_lt_gamma0_lt_bound: {h1}")
    print(f"xi_star(m={_fmt(m_value)}): {_fmt(xi)}")
    print(f"value_V(m={_fmt(m_value)}): {_fmt(target_v)}")
    if kind == "affine":
        report = theta_condition_check_affine(model, grid, run.psi, a_used, chk.p)
        for key in sorted(report):
            print(f"theta_condition.{key}: {_fmt(report[key])}")
        kappas = -np.diag(model.drift)
        for i, (kap, nu) in enumerate(zip(kappas, model.nu)):
            if kap > 0.0 and nu > 0.0:
                print(f"mean_reversion_a_bound[{i + 1}]: {_fmt(mean_reversion_a_bound(kap, nu))}")
        return
    print(f"m0_min_eig: {_fmt(model.m0_min_eig)}")
    print(f"psd_violated: {model.psd_violated}")
    report = contraction_report(model, grid, c=chk.c)
    for key in sorted(report):
        print(f"contraction.{key}: {_fmt(report[key])}")
    coarse = make_grid(grid.horizon, chk.coarse_n)
    cov = lambda_max_covariance(model, coarse, a_used)
    for key in sorted(cov):
        print(f"covariance.{key}: {_fmt(cov[key])}")


_HINTS = (
    (GammaUnderflowError,
     "hint: Gamma underflows when the risk premium is large over the whole horizon; "
     "shorten grid.T or reduce theta"),
    (ModelAssumptionError,
     "hint: check the correlation rows (|C_k| <= 1) and the deflated driver "
     "covariance; set enforce_psd: false only if the indefinite case is intended"),
    (RiccatiBlowUpError,
     "hint: the Riccati solution explodes before maturity; shorten grid.T or "
     "reduce theta / eta (see the 'check' subcommand for the contraction bounds)"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vmk",
        description="Mean-variance strategies under Volterra stochastic volatility",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("affine-solve", "quadratic-solve", "frontier", "simulate", "sweep", "check"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--paths", type=int, default=None)
        sp.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    args = parser.parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config, args.grid_n)
        if args.seed is not None:
            cfg.mc.seed = cfgmod.mc_seed(args.seed, "--seed")
        if args.paths is not None:
            cfg.mc.paths = cfgmod.mc_paths(args.paths, "--paths", cfg.mc.antithetic)
        command = args.command
        if command != "check":
            out_dir = (cfgmod.out_directory(cfg.out_dir) if args.out is None
                       else cfgmod.out_directory(args.out, "--out"))
        kind, model = cfgmod.build_model(cfg)
        grid = cfgmod.build_grid(cfg)
        if command == "check":
            _cmd_check(cfg, kind, model, grid)
        elif command == "sweep":
            _cmd_sweep(cfg, kind, out_dir)
        elif command.endswith("-solve") and command != f"{kind}-solve":
            raise ConfigError(f"subcommand '{command}' needs a '{command.removesuffix('-solve')}' model section, "
                              f"config has '{kind}'")
        else:
            run = _run(kind, model, grid, cfg)
            if command == "frontier":
                _cmd_frontier(run, cfg, out_dir)
            elif command == "simulate":
                _cmd_simulate(run, cfg, out_dir)
            else:
                _cmd_solve(run, cfg, out_dir)
        return 0
    except VmkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        hint = next((hint for klass, hint in _HINTS if isinstance(exc, klass)), None)
        if hint is not None:
            print(hint, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
