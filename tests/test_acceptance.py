"""Acceptance gate: one pass/fail line per shipped guarantee.

Each test prints ``ACCEPTANCE <k>: PASS/FAIL (...)`` through the capture
bypass so the verdicts appear inline in any pytest run.
"""

import math
import time

import numpy as np
import pytest

from vmk import (
    AffineEvaluator,
    AffineModel,
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    QuadraticModel,
    gamma0_affine,
    integrated_rate,
    make_grid,
    run_mc,
    solve_operator_riccati,
    solve_riccati_volterra,
    two_asset_model,
    value_v,
    wishart_model,
    xi_star,
)
from vmk.affine import gamma_affine
from vmk.grid import g0_nodes
from vmk.markowitz import tail_rate_integrals
from vmk.quadratic import QuadraticEvaluator, gamma_quadratic

from oracles import (IntegralOperator, boundary_relation_residual, cell_table, discretize, invert_id_minus,
                     markovian_riccati_ode, psi_full_matrix, resolvent, riccati_derivative_residual, sigma_operator,
                     star)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def scalar_markovian(theta=1.0, corr=0.0, drift=0.0, g0=1.0, rate=0.0):
    return QuadraticModel(
        kernel=ConstantKernel(np.eye(1)),
        theta=np.array([[theta]]),
        eta=np.eye(1),
        corr=np.array([[corr]]),
        drift=np.array([[drift]]),
        g0=g0,
        rate=rate,
    )


@pytest.fixture(scope="module")
def scalar_routes():
    model = scalar_markovian()
    grid = make_grid(0.5, 500)
    t0 = time.time()
    sol = solve_operator_riccati(model, grid)
    elapsed = time.time() - t0
    _, p_ode, phi_ode = markovian_riccati_ode(
        model.theta, model.eta, model.corr, model.drift, model.u_mat, 0.0, 0.5, 500
    )
    return {
        "p_op": float(sol.p_path[0, 0, 0]),
        "phi_op": float(sol.phi[0]),
        "p_ode": float(p_ode[0, 0, 0]),
        "phi_ode": float(phi_ode[0]),
        "elapsed": elapsed,
    }


def test_criterion_01_operator_vs_ode_initial_value(scalar_routes, capsys):
    r = scalar_routes
    rel = abs(r["p_op"] - r["p_ode"]) / abs(r["p_ode"])
    ok = rel <= 1e-3 and r["elapsed"] < 30.0
    report(
        capsys, 1, ok,
        f"P_0 operator {r['p_op']:.6f} vs ODE {r['p_ode']:.6f}, rel diff {rel:.2e} "
        f"<= 1e-3, solve {r['elapsed']:.1f}s < 30s",
    )


def test_criterion_02_log_factor_agreement(scalar_routes, capsys):
    r = scalar_routes
    rel = abs(r["phi_op"] - r["phi_ode"]) / abs(r["phi_ode"])
    ok = rel <= 1e-3
    report(
        capsys, 2, ok,
        f"phi_0 operator {r['phi_op']:.6f} vs ODE {r['phi_ode']:.6f}, rel diff {rel:.2e} <= 1e-3",
    )


def test_criterion_03_gamma_closed_form_vs_monte_carlo(capsys):
    grid = make_grid(0.5, 500)
    details = []
    ok = True
    cases = [
        ("markovian", scalar_markovian()),
        (
            "fractional",
            QuadraticModel(
                kernel=FractionalKernel(0.25),
                theta=np.array([[0.7]]),
                eta=np.eye(1),
                corr=np.array([[-0.5]]),
                drift=np.array([[0.0]]),
                g0=0.3,
            ),
        ),
    ]
    for name, model in cases:
        sol = solve_operator_riccati(model, grid)
        ev = QuadraticEvaluator(model, grid, solution=sol)
        res = run_mc(ev, 10000, 0, 1.0, xi_star(sol.gamma0, 1.0, 1.05))
        dev = abs(res.gamma.mean - sol.gamma0) / res.gamma.se_mean
        ok = ok and dev <= 3.0
        details.append(f"{name}: closed {sol.gamma0:.5f}, mc {res.gamma.mean:.5f}, {dev:.2f} se")
    report(capsys, 3, ok, "; ".join(details) + "; both <= 3 se at 10^4 paths")


def test_criterion_04_constant_kernel_riccati_value(capsys):
    model = AffineModel(
        kernels=(ConstantKernel(np.array([[1.0]])),),
        drift=np.zeros((1, 1)),
        nu=math.sqrt(2.0),
        rho=0.0,
        theta=1.0,
        g0=0.3,
    )
    psi = solve_riccati_volterra(model, make_grid(1.0, 1000))
    err = abs(psi[-1, 0] + math.tanh(1.0))
    ok = err <= 1e-4
    report(capsys, 4, ok, f"psi(1) = {psi[-1, 0]:.8f} vs -tanh(1), err {err:.2e} <= 1e-4 at n=1000")


def test_criterion_05_wealth_targets_both_model_classes(capsys):
    m_target = 1.05
    details = []
    ok = True

    affine = AffineModel(
        kernels=(FractionalKernel(0.6),),
        drift=np.array([[-1.0]]),
        nu=0.4,
        rho=-0.5,
        theta=0.8,
        g0=0.16,
        rate=0.02,
    )
    grid = make_grid(0.5, 300)
    psi = solve_riccati_volterra(affine, grid)
    gam = gamma0_affine(affine, grid, psi)
    int_r = integrated_rate(affine.rate, grid)
    xi = xi_star(gam, affine.x0, m_target, int_r)
    tv = value_v(gam, affine.x0, m_target, int_r)
    res = run_mc(AffineEvaluator(affine, grid, psi=psi), 10000, 1, affine.x0, xi)
    dm = abs(res.wealth.mean - m_target) / res.wealth.se_mean
    dv = abs(res.wealth.variance - tv) / res.wealth.se_variance
    ok = ok and dm <= 3.0 and dv <= 3.0
    details.append(f"affine: mean dev {dm:.2f} se, var dev {dv:.2f} se")

    quad = scalar_markovian(theta=1.0, corr=-0.4, drift=-0.5, g0=0.6, rate=0.02)
    sol = solve_operator_riccati(quad, grid)
    int_r = integrated_rate(quad.rate, grid)
    xi = xi_star(sol.gamma0, quad.x0, m_target, int_r)
    tv = value_v(sol.gamma0, quad.x0, m_target, int_r)
    res = run_mc(QuadraticEvaluator(quad, grid, solution=sol), 10000, 0, quad.x0, xi)
    dm = abs(res.wealth.mean - m_target) / res.wealth.se_mean
    dv = abs(res.wealth.variance - tv) / res.wealth.se_variance
    ok = ok and dm <= 3.0 and dv <= 3.0
    details.append(f"quadratic: mean dev {dm:.2f} se, var dev {dv:.2f} se")

    report(capsys, 5, ok, "; ".join(details) + "; all <= 3 se at 10^4 paths")


def test_criterion_06_operator_identity_suite(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        horizon = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(20, 50))
        grid = make_grid(horizon, n)
        kind = rng.integers(0, 4)
        if kind == 0:
            a = discretize(FractionalKernel(float(rng.uniform(0.1, 1.0)), scale=float(rng.uniform(0.2, 1.0))), grid)
        elif kind == 1:
            a = discretize(ExponentialKernel(beta=float(rng.uniform(0.0, 3.0))), grid)
        elif kind == 2:
            N = int(rng.integers(1, 4))
            m = rng.standard_normal((N, N)) * 0.4
            full = np.broadcast_to(m, (n, n, N, N))
            a = discretize(ConstantKernel(m), grid) if rng.integers(0, 2) else cell_table(grid, full, volterra=False)
        else:
            a = cell_table(grid, rng.standard_normal((n, n)) * 0.4)
        r = resolvent(a)
        res1 = np.max(np.abs(r.kernel - a.kernel - a.kernel @ r.kernel))
        inv = invert_id_minus(a)
        ident = IntegralOperator(a.grid, a.dim, -a.kernel, np.eye(a.dim))
        res2 = np.max(np.abs(star(ident, inv).kernel))
        res3 = np.max(np.abs(a.kernel @ r.kernel - r.kernel @ a.kernel))
        worst = max(worst, res1, res2, res3)
    ok = worst <= 1e-10
    report(capsys, 6, ok, f"20 random instances, worst identity residual {worst:.2e} <= 1e-10")


RESIDUAL_INSTANCES = [
    ("markovian", lambda: scalar_markovian(), 0.5),
    ("leveraged", lambda: scalar_markovian(theta=0.8, corr=-0.5, drift=-0.4, g0=0.3), 0.5),
    (
        "two-factor",
        lambda: QuadraticModel(
            kernel=DiagonalKernel(
                [ExponentialKernel(beta=1.0), ExponentialKernel(beta=0.5, scale=0.8)]
            ),
            theta=np.array([[0.5, 0.3]]),
            eta=np.eye(2),
            corr=np.array([[-0.4], [0.2]]),
            drift=np.array([[-0.5, 0.1], [0.0, -0.3]]),
            g0=0.25,
        ),
        0.8,
    ),
]


def test_criterion_07_derivative_relation_first_order(capsys):
    details = []
    ok = True
    for name, make, horizon in RESIDUAL_INSTANCES:
        model = make()
        res = [
            riccati_derivative_residual(model, make_grid(horizon, n), n // 2)
            for n in (40, 80, 160)
        ]
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        good = all(o >= 0.85 for o in orders) and res[2] < res[0]
        ok = ok and good
        details.append(f"{name}: orders {orders[0]:.2f}/{orders[1]:.2f}")
    report(capsys, 7, ok, "; ".join(details) + "; halving the step keeps order >= 0.85")


BOUNDARY_INSTANCES = [
    ("correlated", lambda: scalar_markovian(theta=0.9, corr=0.6, drift=0.0, g0=0.4), 0.5),
] + RESIDUAL_INSTANCES[1:]


def test_criterion_08_boundary_relation_refinement(capsys):
    details = []
    ok = True
    for name, make, horizon in BOUNDARY_INSTANCES:
        model = make()
        res = []
        for n in (40, 80, 160):
            grid = make_grid(horizon, n)
            f = np.stack(
                [np.cos((j + 1) * grid.nodes[:-1]) for j in range(model.n_state)], axis=1
            )
            res.append(boundary_relation_residual(model, grid, n // 4, f))
        decreasing = res[0] > res[1] > res[2] and res[2] < res[0] / 2.5
        ok = ok and decreasing
        details.append(f"{name}: {res[0]:.2e} -> {res[1]:.2e} -> {res[2]:.2e}")
    report(capsys, 8, ok, "; ".join(details) + "; residual decreases under refinement")


def preset_amounts(theta, stock_corr, horizon, n, eta=(1.0, 1.0)):
    model = two_asset_model(theta=theta, stock_corr=stock_corr, eta=eta)
    sol = solve_operator_riccati(model, make_grid(horizon, n))
    xi = xi_star(sol.gamma0, 1.0, 1.05, 0.0)
    return sol.premium_profile[:-1] * xi


def test_criterion_09_allocation_regimes(capsys):
    details = []
    ok = True

    t0 = time.time()
    a = preset_amounts((0.65, 0.30), 0.7, 2.1, 420)
    frac = float(np.mean((a[:, 0] > 0.0) & (a[:, 1] < 0.0)))
    el_a = time.time() - t0
    good = frac >= 0.8 and el_a < 120.0
    ok = ok and good
    details.append(f"a: long-rough/short-smooth on {frac:.0%} of nodes (>= 80%)")

    t0 = time.time()
    short = preset_amounts((0.65, 0.65), 0.0, 0.5, 100)
    rough_short = np.abs(short[:, 0]) > np.abs(short[:, 1])
    long_run = preset_amounts((0.65, 0.65), 0.0, 2.4, 480)
    rough_long = np.abs(long_run[:, 0]) > np.abs(long_run[:, 1])
    el_b = time.time() - t0
    good = (
        rough_short.mean() > 0.7
        and bool(rough_short[50:].all())
        and (~rough_long).mean() > 0.7
        and bool((~rough_long)[:240].all())
        and bool(rough_long[456:].all())
        and el_b < 240.0
    )
    ok = ok and good
    details.append(
        f"b: rough dominates {rough_short.mean():.0%} at T=0.5, smooth "
        f"{(~rough_long).mean():.0%} at T=2.4 with rough near maturity"
    )

    t0 = time.time()
    high = preset_amounts((1.4, 1.4), 0.0, 2.1, 420, eta=(1.8, 1.8))
    low = preset_amounts((1.4, 1.4), 0.0, 2.1, 420, eta=(0.01, 0.01))
    rough_high = float(np.mean(np.abs(high[:, 0]) > np.abs(high[:, 1])))
    rough_low = float(np.mean(np.abs(low[:, 0]) > np.abs(low[:, 1])))
    el_c = time.time() - t0
    good = rough_high >= 0.6 and rough_low <= 0.25 and el_c < 240.0
    ok = ok and good
    details.append(f"c: rough fraction {rough_high:.2f} at eta=1.8 vs {rough_low:.2f} at eta=0.01")

    report(capsys, 9, ok, "; ".join(details))


def test_criterion_10_structural_invariants(capsys):
    checks = []
    ok = True

    quad_models = [
        ("markovian", scalar_markovian(rate=0.03), 0.5, 50, True),
        (
            "fractional",
            QuadraticModel(
                kernel=FractionalKernel(0.25),
                theta=np.array([[0.7]]),
                eta=np.eye(1),
                corr=np.array([[-0.5]]),
                drift=np.array([[0.0]]),
                g0=0.3,
            ),
            0.5,
            50,
            True,
        ),
        (
            "wishart",
            wishart_model(
                ExponentialKernel(beta=1.0),
                theta=np.array([[0.5, 0.1], [0.0, 0.4]]),
                eta=0.3 * np.eye(2),
                rho=np.array([-0.3, -0.2]),
                g0_mat=0.2 * np.eye(2),
            ),
            0.5,
            30,
            True,
        ),
        ("two-asset preset", two_asset_model(), 0.5, 50, False),
    ]
    for name, model, horizon, n, check_psd in quad_models:
        grid = make_grid(horizon, n)
        sol = solve_operator_riccati(model, grid)
        good = True
        if check_psd:
            for k in (0, n // 2, n):
                pf = psi_full_matrix(model, grid, k)
                good = good and np.linalg.eigvalsh(0.5 * (pf + pf.T)).max() <= 1e-8
        tails = tail_rate_integrals(model.rate, grid)
        g_rows = sol.g0s[:n]
        gams = gamma_quadratic(sol, range(n + 1), g_rows)
        for k in range(n + 1):
            good = good and 0.0 < gams[k] <= math.exp(2.0 * tails[k]) * (1.0 + 1e-9)
        good = good and np.max(np.abs(sigma_operator(model, grid, n).kernel)) == 0.0
        ok = ok and good
        checks.append(f"{name}: {'ok' if good else 'violated'}")

    affine_models = [
        (
            "affine constant",
            AffineModel(
                kernels=(ConstantKernel(np.array([[1.0]])),),
                drift=np.zeros((1, 1)),
                nu=math.sqrt(2.0),
                rho=0.0,
                theta=1.0,
                g0=0.3,
                rate=0.01,
            ),
        ),
        (
            "affine fractional",
            AffineModel(
                kernels=(FractionalKernel(0.25),),
                drift=np.array([[-1.0]]),
                nu=0.5,
                rho=-0.5,
                theta=0.8,
                g0=0.1,
            ),
        ),
    ]
    for name, model in affine_models:
        grid = make_grid(0.5, 80)
        psi = solve_riccati_volterra(model, grid)
        good = bool(np.all(psi[0] == 0.0))
        curve = g0_nodes(model.g0, grid, model.dim)
        tails = tail_rate_integrals(model.rate, grid)
        for k in range(grid.n + 1):
            gam = gamma_affine(model, grid, psi, curve, k)
            good = good and 0.0 < gam <= math.exp(2.0 * tails[k]) * (1.0 + 1e-9)
        ok = ok and good
        checks.append(f"{name}: {'ok' if good else 'violated'}")

    report(
        capsys, 10, ok,
        "negativity, value bounds, terminal covariance and initial condition hold; "
        + "; ".join(checks),
    )
