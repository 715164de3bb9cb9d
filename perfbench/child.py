"""One benchmark operation per process; run.py starts and times these.

    child.py setup CONFIG
        import vmk, load the config, build the model and grid
    child.py lib CONFIG OUT_JSON
        a direct solver call, then the MC stage by stage under spans,
        compared bit for bit with run_mc
    child.py cli-trace COMMAND CONFIG OUT_DIR OUT_JSON
        the vmk CLI, with spans around the calls it makes into each layer

The untraced CLI operation is ``python -m vmk.cli`` itself, not this file.
"""

import functools
import hashlib
import json
import sys

import numpy as np

from spans import Tracer, staged_run_mc


def _load(cfg_path):
    from vmk import config as cfgmod

    cfg = cfgmod.load_config(cfg_path)
    kind, model = cfgmod.build_model(cfg)
    return cfg, kind, model, cfgmod.build_grid(cfg), cfgmod.wealth_x0(cfg, model)


def _solve(kind, model, grid):
    from vmk import affine, quadratic

    if kind == "affine":
        psi = affine.solve_riccati_volterra(model, grid)
        return psi, affine.gamma0_affine(model, grid, psi)
    sol = quadratic.solve_operator_riccati(model, grid)
    return sol, sol.gamma0


def _solution_counts(rec, sol):
    """Attach the solution's array bytes and its Cholesky health margin to a span."""
    arrays = [v for v in (*vars(sol).values(), *vars(sol.disc).values()) if isinstance(v, np.ndarray)]
    rec["mb"] = sum(a.nbytes for a in arrays) / 2**20
    rec["min_rcond"] = float(sol.min_rcond)


def _mc_summary(res, m_value, target_v, gamma0):
    """The quantities mc.csv holds, under the same names."""
    return {"mean_XT": res.wealth.mean, "se_mean_XT": res.wealth.se_mean, "target_m": m_value,
            "var_XT": res.wealth.variance, "se_var_XT": res.wealth.se_variance,
            "target_V": target_v, "gamma0_mc": res.gamma.mean,
            "se_gamma0_mc": res.gamma.se_mean, "gamma0_closed": gamma0}


def lib(cfg_path, out_path):
    from vmk.affine import AffineEvaluator
    from vmk.markowitz import integrated_rate, value_v, xi_star
    from vmk.montecarlo import run_mc
    from vmk.quadratic import QuadraticEvaluator

    cfg, kind, model, grid, x0 = _load(cfg_path)
    solved, gamma0 = _solve(kind, model, grid)
    int_r = integrated_rate(model.rate, grid)
    m_value = cfg.m_values[0]
    xi = xi_star(gamma0, x0, m_value, int_r)
    if kind == "affine":
        evaluator = AffineEvaluator(model, grid, psi=solved)
    else:
        evaluator = QuadraticEvaluator(model, grid, solution=solved)
    mc = cfg.mc
    args = (evaluator, mc.paths, mc.seed, x0, xi)
    kwargs = dict(antithetic=mc.antithetic, chunk=mc.chunk, keep_paths=mc.dump_paths)
    tracer = Tracer()
    res = staged_run_mc(tracer, *args, **kwargs)
    ref = run_mc(*args, **kwargs)
    out = {
        "gamma0": gamma0,
        "spans": tracer.spans,
        "mc_match": (res.terminal.tobytes() == ref.terminal.tobytes()
                     and res.gamma_samples.tobytes() == ref.gamma_samples.tobytes()),
        "stats": _mc_summary(res, m_value, value_v(gamma0, x0, m_value, int_r), gamma0),
        "terminal_sha256": hashlib.sha256(res.terminal.tobytes()).hexdigest(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def cli_trace(command, cfg_path, out_dir, out_path):
    import vmk.affine
    import vmk.cli
    import vmk.config
    import vmk.quadratic

    tracer = Tracer()
    tracer.wrap(vmk.config, "load_config", "config.load_config")
    tracer.wrap(vmk.cli, "solve_operator_riccati", "quadratic.solve_operator_riccati",
                on_result=_solution_counts)
    tracer.wrap(vmk.quadratic, "_discretize", "quadratic.discretize")
    tracer.wrap(vmk.quadratic, "folded_cells", "kernels.folded_cells")
    for module in (vmk.quadratic, vmk.affine):
        tracer.wrap(module, "band_coefficients", "kernels.band_coefficients")
    tracer.wrap(vmk.cli, "solve_riccati_volterra", "affine.solve_riccati_volterra")
    tracer.wrap(vmk.cli, "gamma0_affine", "affine.gamma0_affine")
    getattr(vmk.cli, "run_mc")
    vmk.cli.run_mc = functools.partial(staged_run_mc, tracer)
    rc = vmk.cli.main([command, "--config", cfg_path, "--out", out_dir])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans}, fh)
    return rc


def main(argv):
    mode, *rest = argv
    if mode == "setup":
        _load(rest[0])
        return 0
    if mode == "lib":
        return lib(*rest)
    if mode == "cli-trace":
        return cli_trace(*rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
