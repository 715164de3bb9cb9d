"""Monte Carlo driver generation, wealth simulation, and estimators."""

import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vmk.affine
import vmk.errors
import vmk.montecarlo
from vmk import (
    AffineEvaluator,
    AffineModel,
    ConstantKernel,
    ExponentialKernel,
    FractionalKernel,
    InvalidArgumentError,
    MemoryCapError,
    QuadraticEvaluator,
    QuadraticModel,
    make_grid,
    mc_stats,
    run_mc,
    simulate_drivers,
    simulate_wealth,
    two_asset_model,
    wishart_model,
)
from vmk.affine import gamma0_affine
from vmk.markowitz import integrated_rate, xi_star
from vmk.montecarlo import (_BLOCK_FLOATS, _MAP_ROWS, _WEALTH_ROWS, chunk_bytes, chunk_workspace, correlate_into,
                            gamma_factors)

from oracles import (child_peak_rss, correlate_drivers, correlate_slots, staged_mc, step_wealth,
                     whole_chunk_premium_paths)


def premium_free_model(rate=0.0):
    return AffineModel(
        kernels=(ConstantKernel(np.array([[1.0]])),),
        drift=np.zeros((1, 1)),
        nu=0.3,
        rho=0.0,
        theta=0.0,
        g0=0.04,
        rate=rate,
    )


def quad_simulate_model():
    """The quad-simulate benchmark's model: one rough factor with drift."""
    return QuadraticModel(kernel=FractionalKernel(0.25), theta=0.7, eta=1.0, corr=-0.5, drift=-0.3, g0=0.3)


def risky_model():
    return AffineModel(
        kernels=(ConstantKernel(np.array([[1.0]])),),
        drift=np.zeros((1, 1)),
        nu=math.sqrt(2.0),
        rho=0.0,
        theta=1.0,
        g0=0.09,
    )


class TestDrivers:
    def test_deterministic_per_seed(self):
        g = make_grid(1.0, 16)
        a = simulate_drivers(g, 3, paths=8, seed=42)
        b = simulate_drivers(g, 3, paths=8, seed=42)
        np.testing.assert_array_equal(a, b)
        c = simulate_drivers(g, 3, paths=8, seed=43)
        assert np.any(a != c)

    def test_large_seeds_key_their_own_streams(self):
        # seeds past 2^63 must not round through float64 onto other keys
        g = make_grid(1.0, 4)
        draws = {s: simulate_drivers(g, 1, paths=2, seed=s)
                 for s in (0, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)}
        seeds = list(draws)
        for i, a in enumerate(seeds):
            for b in seeds[i + 1:]:
                assert np.any(draws[a] != draws[b]), (a, b)
        np.testing.assert_array_equal(simulate_drivers(g, 1, paths=2, seed=-1), draws[2**64 - 1])

    def test_start_offset_addresses_paths_not_draws(self):
        g = make_grid(1.0, 16)
        full = simulate_drivers(g, 2, paths=10, seed=7)
        tail = simulate_drivers(g, 2, paths=4, seed=7, start=6)
        np.testing.assert_array_equal(full[6:], tail)

    def test_antithetic_pairs_negate_exactly(self):
        g = make_grid(1.0, 16)
        z = simulate_drivers(g, 2, paths=6, seed=1, antithetic=True)
        for i in range(0, 6, 2):
            np.testing.assert_array_equal(z[i + 1], -z[i])

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("start", [0, 1, 6, 13])
    def test_matches_a_fresh_generator_per_path(self, start, antithetic):
        g = make_grid(1.0, 16)
        # one path block, and two whose second is scaled by sqrt(dt) on its own
        for paths in (9, _BLOCK_FLOATS // (16 * 3) + 2):
            z = simulate_drivers(g, 3, paths=paths, seed=5, antithetic=antithetic, start=start)
            for p in range(paths):
                idx = start + p
                gen = np.random.Generator(np.random.Philox(key=[5, idx // 2 if antithetic else idx]))
                want = math.sqrt(g.dt) * gen.standard_normal((16, 3))
                if antithetic and idx % 2 == 1:
                    want = -want
                np.testing.assert_array_equal(z[p], want)

    def test_increment_scaling(self):
        g = make_grid(2.0, 32)
        z = simulate_drivers(g, 1, paths=4000, seed=3)
        assert z.shape == (4000, 32, 1)
        var = z.var()
        assert var == pytest.approx(g.dt, rel=0.05)
        assert abs(z.mean()) < 3.0 * math.sqrt(g.dt / z.size)


class TestWealth:
    def test_no_premium_compounds_at_the_short_rate(self):
        rate = 0.04
        model = premium_free_model(rate)
        g = make_grid(1.0, 50)
        res = run_mc(AffineEvaluator(model, g), paths=64, seed=0, x0=1.0, xi_star_val=2.0)
        want = math.exp(rate)
        assert res.wealth.mean == pytest.approx(want, rel=1e-12)
        assert res.wealth.variance == pytest.approx(0.0, abs=1e-24)
        assert res.gamma.mean == pytest.approx(math.exp(2.0 * rate), rel=1e-12)

    def test_terminal_wealth_is_gap_plus_target(self):
        g = make_grid(1.0, 8)
        rng = np.random.default_rng(5)
        P = 6
        db = rng.standard_normal((P, 8, 1)) * math.sqrt(g.dt)
        lam = np.full((P, 8, 1), 0.4)
        prem = np.full((P, 8, 1), 0.4)
        w = simulate_wealth(g, 0.0, 1.0, 1.5, db, lam, prem)
        assert w.x.shape == (P, 9)
        assert w.alpha.shape == (P, 8, 1)
        np.testing.assert_allclose(w.x[:, -1], w.terminal)
        np.testing.assert_allclose(w.x[:, 0], 1.0, atol=1e-14)
        # the hedged part of terminal wealth equals the target shift
        gap0 = 1.0 - 1.5
        growth = w.x[:, -1] - 1.5
        assert np.all(np.sign(growth) == np.sign(gap0))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("paths", [1, 7])
    @pytest.mark.parametrize("rate", [0.03, lambda t: 0.02 + 0.01 * math.sin(3.0 * t)], ids=["constant", "callable"])
    def test_bit_identical_to_step_by_step_loop(self, d, paths, rate):
        g = make_grid(1.3, 37)
        rng = np.random.default_rng(11 * d + paths)
        db = rng.standard_normal((paths, g.n, d)) * math.sqrt(g.dt)
        lam = rng.standard_normal((paths, g.n, d))
        prem = 0.5 * rng.standard_normal((paths, g.n, d))
        prem[0, 3] = 0.0
        got = simulate_wealth(g, rate, 1.0, 1.2, db, lam, prem)
        want = step_wealth(g, rate, 1.0, 1.2, db, lam, prem)
        for field in ("x", "alpha", "terminal"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)

    def test_amounts_proportional_to_gap(self):
        g = make_grid(1.0, 4)
        db = np.zeros((1, 4, 1))
        lam = np.full((1, 4, 1), 0.5)
        prem = np.full((1, 4, 1), 0.5)
        w = simulate_wealth(g, 0.0, 1.0, 2.0, db, lam, prem)
        gaps = w.x[:, :-1] - 2.0
        np.testing.assert_allclose(w.alpha[0, :, 0], -0.5 * gaps[0], rtol=1e-12)

    def test_gamma_factors_closed_form(self):
        g = make_grid(1.0, 4)
        prem = np.full((2, 4, 1), 0.3)
        got = gamma_factors(g, 0.02, prem)
        want = math.exp(2.0 * 0.02 - 0.09)
        np.testing.assert_allclose(got, want, rtol=1e-13)


class TestRunMC:
    def test_chunking_does_not_change_draws(self):
        model = risky_model()
        g = make_grid(0.5, 20)
        ev = AffineEvaluator(model, g)
        a = run_mc(ev, paths=50, seed=11, x0=1.0, xi_star_val=1.8, chunk=7)
        b = run_mc(ev, paths=50, seed=11, x0=1.0, xi_star_val=1.8, chunk=4096)
        np.testing.assert_array_equal(a.terminal, b.terminal)
        np.testing.assert_array_equal(a.gamma_samples, b.gamma_samples)
        assert a.wealth.mean == b.wealth.mean
        assert a.gamma.se_mean == b.gamma.se_mean

    def test_two_factor_one_row_chunks_are_bit_identical(self):
        # a one-row chunk once took another BLAS route for the drift product
        model = AffineModel(
            kernels=(ExponentialKernel(beta=2.0), FractionalKernel(0.75)),
            drift=np.array([[-1.0, 0.3], [0.2, -0.5]]),
            nu=[0.4, 0.3], rho=[-0.5, 0.2], theta=[0.5, 0.4], g0=[0.2, 0.1],
        )
        ev = AffineEvaluator(model, make_grid(0.5, 20))
        a = run_mc(ev, paths=777, seed=3, x0=1.0, xi_star_val=1.8, chunk=1, keep_paths=5)
        b = run_mc(ev, paths=777, seed=3, x0=1.0, xi_star_val=1.8, chunk=4096, keep_paths=5)
        np.testing.assert_array_equal(a.terminal, b.terminal)
        np.testing.assert_array_equal(a.gamma_samples, b.gamma_samples)
        np.testing.assert_array_equal(a.kept.state, b.kept.state)

    def test_quadratic_chunking_agrees_to_roundoff(self):
        # chunks below _MAP_ROWS paths: BLAS sums depend on the row count
        ev = QuadraticEvaluator(quad_simulate_model(), make_grid(0.5, 20))
        a = run_mc(ev, paths=50, seed=11, x0=1.0, xi_star_val=1.8, chunk=7, keep_paths=10)
        b = run_mc(ev, paths=50, seed=11, x0=1.0, xi_star_val=1.8, chunk=4096, keep_paths=10)
        np.testing.assert_allclose(a.terminal, b.terminal, rtol=1e-12)
        np.testing.assert_allclose(a.gamma_samples, b.gamma_samples, rtol=1e-12)
        np.testing.assert_allclose(a.kept.state, b.kept.state, rtol=1e-12)

    def test_kept_paths_cover_requested_prefix(self):
        model = risky_model()
        g = make_grid(0.5, 20)
        ev = AffineEvaluator(model, g)
        res = run_mc(ev, paths=30, seed=2, x0=1.0, xi_star_val=1.8, chunk=8, keep_paths=10)
        assert res.kept.x.shape == (10, 21)
        assert res.kept.alpha.shape == (10, 20, 1)
        assert res.kept.state.shape[0] == 10
        again = run_mc(ev, paths=30, seed=2, x0=1.0, xi_star_val=1.8, keep_paths=10)
        np.testing.assert_array_equal(res.kept.x, again.kept.x)

    def test_antithetic_halves_agree_on_symmetric_stats(self):
        model = risky_model()
        g = make_grid(0.5, 20)
        ev = AffineEvaluator(model, g)
        res = run_mc(ev, paths=40, seed=4, x0=1.0, xi_star_val=1.8, antithetic=True)
        assert res.wealth.paths == 40
        assert np.all(np.isfinite(res.terminal))

    def test_antithetic_variance_over_all_paths(self):
        ev = AffineEvaluator(risky_model(), make_grid(0.5, 20))
        res = run_mc(ev, paths=40, seed=4, x0=1.0, xi_star_val=1.8, antithetic=True)
        every = mc_stats(res.terminal)
        assert res.wealth.variance == every.variance
        assert res.wealth.mean == pytest.approx(every.mean, rel=1e-14)

    @pytest.mark.parametrize("paths", [41, 2])
    def test_antithetic_needs_two_or_more_pairs(self, paths):
        ev = AffineEvaluator(risky_model(), make_grid(0.5, 20))
        with pytest.raises(InvalidArgumentError, match="even path count"):
            run_mc(ev, paths=paths, seed=4, x0=1.0, xi_star_val=1.8, antithetic=True)


def calibration_evaluators():
    """The one-factor quadratic and affine benchmark models at n = 20, with their xi* for m = 1.05."""
    quad = QuadraticEvaluator(quad_simulate_model(), make_grid(0.5, 20))
    aff_model = AffineModel(kernels=(FractionalKernel(0.1),), drift=-1.0, nu=0.4, rho=-0.5, theta=0.8, g0=0.16,
                            rate=0.02)
    aff = AffineEvaluator(aff_model, make_grid(1.0, 20))
    aff_gamma0 = gamma0_affine(aff_model, aff.grid, aff.psi)
    return {
        "quadratic": (quad, xi_star(quad.solution.gamma0, 1.0, 1.05)),
        "affine": (aff, xi_star(aff_gamma0, 1.0, 1.05, integrated_rate(0.02, aff.grid))),
    }


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("family", ["quadratic", "affine"])
def test_standard_errors_calibrated(family, antithetic):
    # seed-to-seed spread of each estimate over the mean reported standard
    # error, 300 seeds of 64 paths; dependent antithetic pairs read 1.33/1.23
    # (quadratic) and 0.74/0.67 (affine) when fed to mc_stats as 64 samples
    ev, xi = calibration_evaluators()[family]
    runs = [run_mc(ev, 64, seed, 1.0, xi, antithetic=antithetic, chunk=32) for seed in range(300)]
    for stat in ("wealth", "gamma"):
        est = np.array([getattr(r, stat).mean for r in runs])
        se = np.array([getattr(r, stat).se_mean for r in runs])
        assert 0.85 <= est.std(ddof=1) / se.mean() <= 1.2, stat


def gemm_models():
    """One- and two-factor affine models, which the tests step on grids of many stepper blocks."""
    one = AffineModel(kernels=(FractionalKernel(0.1),), drift=-1.0, nu=0.4, rho=-0.5, theta=0.8, g0=0.16)
    two = AffineModel(
        kernels=(ExponentialKernel(beta=2.0), FractionalKernel(0.75)),
        drift=np.array([[-1.0, 0.3], [0.2, -0.5]]),
        nu=[0.4, 0.3], rho=[-0.5, 0.2], theta=[0.5, 0.4], g0=[0.2, 0.1],
    )
    return {"one": one, "two": two}


def route_evaluator(family, n):
    """A one- or two-factor affine evaluator on ``gemm_models``, or the quad-simulate model's, at n steps."""
    g = make_grid(1.0, n)
    if family == "quadratic":
        return QuadraticEvaluator(quad_simulate_model(), g)
    return AffineEvaluator(gemm_models()[family], g)


class TestQuadraticChunkWidth:
    """Quadratic chunks take at most ``max_chunk`` = ``_MAP_ROWS`` paths, one premium map product each."""

    PATHS = 1100  # two full products and a ragged one

    @pytest.fixture(scope="class", params=["quad-simulate", "two-asset"])
    def ev(self, request):
        if request.param == "two-asset":
            return QuadraticEvaluator(two_asset_model(), make_grid(0.5, 100))
        return QuadraticEvaluator(quad_simulate_model(), make_grid(0.5, 250))

    def run(self, ev, chunk, antithetic=False):
        return run_mc(ev, paths=self.PATHS, seed=3, x0=1.0, xi_star_val=1.8, antithetic=antithetic, chunk=chunk,
                      keep_paths=600)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_samples_bit_identical_from_one_product_up(self, ev, antithetic):
        # a chunk of 700 paths took products of 512 and 188 rows, which round apart from 512-row ones
        want = self.run(ev, _MAP_ROWS, antithetic)
        for chunk in (700, 4096):
            got = self.run(ev, chunk, antithetic)
            np.testing.assert_array_equal(got.terminal, want.terminal)
            np.testing.assert_array_equal(got.gamma_samples, want.gamma_samples)
            for field in ("x", "alpha", "state"):
                np.testing.assert_array_equal(getattr(got.kept, field), getattr(want.kept, field), err_msg=field)

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_smaller_chunks_move_samples_by_roundoff(self, ev, chunk):
        # quad-simulate: chunks of 256, 64, 7 and 1 moved 6, 38, 113 and 694 of the 1100 terminal samples, by up
        # to 2.2e-16, 7.8e-16, 1.4e-13 and 1.5e-14 of themselves, and 1 to 184 Gamma samples by up to 4.4e-16;
        # the kept state moved only in one-path chunks (3.1e-15), where BLAS takes gemv
        want, got = self.run(ev, 4096), self.run(ev, chunk)
        np.testing.assert_allclose(got.terminal, want.terminal, rtol=1e-12)
        np.testing.assert_allclose(got.gamma_samples, want.gamma_samples, rtol=1e-14)
        np.testing.assert_allclose(got.kept.state, want.kept.state, rtol=0, atol=1e-13)


class TestAffineChunkInvariance:
    """The stepper's history GEMM gives every path the same bits whatever its chunk."""

    N = 100
    FULL = 4096
    PREFIX = 30

    @pytest.fixture(scope="class", params=["one", "two"])
    def case(self, request):
        ev = AffineEvaluator(gemm_models()[request.param], make_grid(1.0, self.N))
        return ev, run_mc(ev, paths=self.FULL, seed=7, x0=1.0, xi_star_val=1.8, keep_paths=self.PREFIX)

    # every residue of the chunk size mod 8, and one path per chunk
    @pytest.mark.parametrize("chunk", range(1, 10))
    def test_small_chunks_match_one_full_chunk(self, case, chunk):
        ev, full = case
        got = run_mc(ev, paths=self.PREFIX, seed=7, x0=1.0, xi_star_val=1.8, chunk=chunk,
                     keep_paths=self.PREFIX)
        np.testing.assert_array_equal(got.terminal, full.terminal[: self.PREFIX])
        np.testing.assert_array_equal(got.gamma_samples, full.gamma_samples[: self.PREFIX])
        np.testing.assert_array_equal(got.kept.state, full.kept.state)
        np.testing.assert_array_equal(got.kept.x, full.kept.x)

    # at and above the cap, against the same chunks uncapped (one 4096-path chunk, or 1031-path ones)
    @pytest.mark.parametrize("chunk", [AffineEvaluator.max_chunk, AffineEvaluator.max_chunk + 7, FULL])
    def test_capped_chunks_match_uncapped_ones(self, case, chunk):
        ev, _ = case
        uncapped = copy.copy(ev)
        uncapped.max_chunk = np.inf
        want, got = (run_mc(e, paths=self.FULL, seed=7, x0=1.0, xi_star_val=1.8, chunk=chunk, keep_paths=self.PREFIX)
                     for e in (uncapped, ev))
        np.testing.assert_array_equal(got.terminal, want.terminal)
        np.testing.assert_array_equal(got.gamma_samples, want.gamma_samples)
        for field in ("x", "alpha", "state"):
            np.testing.assert_array_equal(getattr(got.kept, field), getattr(want.kept, field), err_msg=field)

    @pytest.mark.parametrize("factors", ["one", "two"])
    def test_stale_workspace_steps_as_a_fresh_one(self, factors):
        # 20 paths padded to 24 in a 24-path workspace holding infinities:
        # stale padding would reach the stepper as inf - inf
        ev = AffineEvaluator(gemm_models()[factors], make_grid(1.0, 40))
        work = chunk_workspace(ev, 24)
        for buf in (work.draws, work.drivers, work.db):
            buf.fill(np.inf)
        z = simulate_drivers(ev.grid, ev.n_factors, 20, 3)
        with np.errstate(all="raise"):
            got = ev.premium_paths(simulate_drivers(ev.grid, ev.n_factors, 20, 3, out=work.draws), work)
        for a, b in zip(got, ev.premium_paths(z)):
            np.testing.assert_array_equal(a, b)

    SCRIPT = (
        "import hashlib, sys\n"
        "from vmk import AffineEvaluator, make_grid, run_mc\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_montecarlo import gemm_models\n"
        "for model in gemm_models().values():\n"
        "    ev = AffineEvaluator(model, make_grid(1.0, 100))\n"
        "    res = run_mc(ev, paths=4096, seed=7, x0=1.0, xi_star_val=1.8, keep_paths=8)\n"
        "    for a in (res.terminal, res.gamma_samples, res.kept.state):\n"
        "        print(hashlib.sha256(a.tobytes()).hexdigest())\n"
    )

    def test_blas_thread_count_does_not_change_samples(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in (None, "1", "2"):
            env = dict(base) if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", self.SCRIPT, str(Path(__file__).parent)],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1] == digests[2]


class TestRunMCMemory:
    @pytest.mark.parametrize("family", ["affine", "quadratic"])
    def test_finished_chunk_freed_before_next(self, family):
        g = make_grid(1.0, 100)
        if family == "affine":
            ev = AffineEvaluator(gemm_models()["one"], g)
        else:
            ev = QuadraticEvaluator(quad_simulate_model(), g)
        run_mc(ev, paths=64, seed=1, x0=1.0, xi_star_val=1.5, chunk=64)  # first-call allocations
        peaks = []
        for paths in (512, 1024):
            tracemalloc.start()
            try:
                run_mc(ev, paths=paths, seed=1, x0=1.0, xi_star_val=1.5, chunk=512)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a second chunk that still held the first alive read 1.7-1.8x
        assert peaks[1] <= 1.2 * peaks[0]

    def test_one_chunk_holds_under_five_variance_arrays(self):
        # the workspace (4.0: the draws buffer, which later holds the
        # curve and premium, the driver buffer, which later holds lambda,
        # and dB) and one wealth block (4.16; 4.25 in 256-row blocks).  With the stages' own
        # arrays and z dropped once correlated it read 4.38, with z held
        # for the whole chunk 5.38, with whole-chunk wealth, dW and
        # sqrt(V+) 8.1.  The evaluator's cap is lifted to run one P-path chunk
        P, n = 4096, 400
        ev = AffineEvaluator(gemm_models()["one"], make_grid(1.0, n))
        ev.max_chunk = np.inf
        run_mc(ev, paths=64, seed=1, x0=1.0, xi_star_val=1.5, chunk=64)  # first-call allocations
        tracemalloc.start()
        try:
            run_mc(ev, paths=P, seed=1, x0=1.0, xi_star_val=1.5, chunk=P, keep_paths=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.3 * P * n * 8

    def test_quadratic_chunk_holds_its_workspace(self):
        # N = d = 1: in 4096-path chunks, the workspace (4.0: the draws
        # buffer, which later holds the premium map's product, the driver
        # buffer, dW and then lambda, and dB) with one wealth block read
        # 4.12 (4.22 in 256-row blocks); allocating z, dW, the product and lambda as the chunk went
        # 5.01, with z held next to lambda 5.34; in _MAP_ROWS chunks 0.62
        P, n = 4096, 250
        ev = QuadraticEvaluator(quad_simulate_model(), make_grid(0.5, n))
        run_mc(ev, paths=64, seed=1, x0=1.0, xi_star_val=1.5, chunk=64)  # first-call allocations
        tracemalloc.start()
        try:
            run_mc(ev, paths=P, seed=1, x0=1.0, xi_star_val=1.5, chunk=P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * P * n * 8

    @staticmethod
    def assert_peak_flat(ev, cap):
        """4096 paths at ``mc.chunk`` 4096 trace at most 2 P samples and the kept rows above ``mc.chunk`` ``cap``."""
        P, K, n = 4096, 64, ev.grid.n
        run_mc(ev, paths=64, seed=1, x0=1.0, xi_star_val=1.5, chunk=64)  # first-call allocations
        small, big = (traced_peak(run_mc, ev, paths=P, seed=1, x0=1.0, xi_star_val=1.5, chunk=chunk, keep_paths=K)
                      for chunk in (cap, 4096))
        assert big <= small + 8 * (2 * P + K * (2 * (n + 1) + n))

    def test_quadratic_peak_does_not_grow_with_the_chunk(self):
        # chunks of _MAP_ROWS paths: both peaks read 5.46 MB (6.23 in 256-row wealth blocks), where 4096-path
        # chunks read 34.9 MB
        self.assert_peak_flat(QuadraticEvaluator(quad_simulate_model(), make_grid(0.5, 250)), _MAP_ROWS)

    def test_affine_peak_does_not_grow_with_the_chunk(self):
        # chunks of 1024 paths, the affine cap: both peaks read 15.2 MB at n = 400, where 4096-path chunks read 55.7 MB
        self.assert_peak_flat(AffineEvaluator(gemm_models()["one"], make_grid(1.0, 400)), 1024)

    def test_dumped_rows_held_once(self):
        # the kept wealth, amounts and state are 3 floats per kept path and
        # node (2.98); per-block copies concatenated at the end read 5.1
        n, kept = 50, 2000
        ev = AffineEvaluator(gemm_models()["one"], make_grid(1.0, n))
        run_mc(ev, paths=64, seed=1, x0=1.0, xi_star_val=1.5, chunk=64, keep_paths=64)  # first-call allocations
        peaks = []
        for keep in (0, kept):
            tracemalloc.start()
            try:
                run_mc(ev, paths=kept, seed=1, x0=1.0, xi_star_val=1.5, chunk=250, keep_paths=keep)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3.5 * kept * (n + 1) * 8

    @pytest.mark.parametrize("paths", [100, 10])
    @pytest.mark.parametrize("family", ["affine", "quadratic"])
    def test_oversized_chunk_refused_before_the_first_draw(self, family, paths, monkeypatch):
        g = make_grid(0.5, 20)
        ev = AffineEvaluator(risky_model(), g) if family == "affine" else QuadraticEvaluator(quad_simulate_model(), g)
        need = chunk_bytes(ev, min(64, paths), paths=paths)
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", need)
        assert run_mc(ev, paths=paths, seed=1, x0=1.0, xi_star_val=1.5, chunk=64).wealth.paths == paths
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", need - 1)
        monkeypatch.setattr(vmk.montecarlo, "simulate_drivers", lambda *a, **k: pytest.fail("drew over the limit"))
        # both families are told both remedies: their chunks are capped, so fewer paths may be the one that helps
        with pytest.raises(MemoryCapError, match="use a smaller mc.chunk or fewer mc.paths$") as exc:
            run_mc(ev, paths=paths, seed=1, x0=1.0, xi_star_val=1.5, chunk=64)
        assert exc.value.limit == need - 1 and "mc.dump_paths" not in str(exc.value)

    # A chunk is the affine-simulate benchmark's (n = 400, 4096 paths, one
    # rough factor) or the quad-simulate benchmark's (n = 250, 4096 paths).
    # Three chunks peak 0.025 affine and 0.03-0.07 quadratic driver arrays
    # (P n (d + N) floats) above one; with affine z freed per chunk, and the
    # later chunks' arrays on the heap, 0.34
    RSS_SCRIPT = (
        "from vmk import AffineEvaluator, AffineModel, FractionalKernel, QuadraticEvaluator, QuadraticModel,"
        " make_grid, run_mc\n"
        "ev = {evaluator}\n"
        "run_mc(ev, paths={paths}, seed=1, x0=1.0, xi_star_val=1.5, chunk=4096)\n"
    )
    QUAD_SIMULATE = ("QuadraticEvaluator(QuadraticModel(kernel=FractionalKernel(0.25), theta=0.7, eta=1.0,"
                     " corr=-0.5, drift=-0.3, g0=0.3), make_grid(0.5, 250))")
    AFFINE_SIMULATE = ("AffineEvaluator(AffineModel(kernels=(FractionalKernel(0.1),), drift=-1.0, nu=0.4, rho=-0.5,"
                       " theta=0.8, g0=0.16), make_grid(1.0, 400))")
    EVALUATORS = {AFFINE_SIMULATE: 4096 * 400 * 2, QUAD_SIMULATE: 4096 * 250 * 2}

    @pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "1"}])
    def test_premium_map_product_stays_near_its_workspace(self, env):
        # BLAS working memory lies outside tracemalloc: 4096 paths over 64
        # read 5.3-5.5 MB in chunks of _MAP_ROWS paths (a 4.1 MB workspace);
        # in one 4096-path chunk 35 MB, 2.3-2.5 MB above its workspace, and
        # 9.4-9.6 MB above it with the map applied to the chunk as one product
        ev = QuadraticEvaluator(quad_simulate_model(), make_grid(0.5, 250))
        one, small = (child_peak_rss(self.RSS_SCRIPT.format(evaluator=self.QUAD_SIMULATE, paths=paths), env=env)
                      for paths in (4096, 64))
        assert one - small <= 8 * sum(ev.workspace_floats(ev.max_chunk)) + 4e6

    @pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "1"}])
    def test_affine_chunk_stays_near_its_workspace(self, env):
        # the affine-simulate model: 4096 paths over 64 read 14.5-15.0 MB in chunks of max_chunk paths (a 13.1 MB
        # workspace), and 54.9-55.0 MB in one 4096-path chunk
        ev = route_evaluator("one", 400)  # the model AFFINE_SIMULATE builds
        assert ev.max_chunk < 4096
        one, small = (child_peak_rss(self.RSS_SCRIPT.format(evaluator=self.AFFINE_SIMULATE, paths=paths), env=env)
                      for paths in (4096, 64))
        assert one - small <= 8 * sum(ev.workspace_floats(ev.max_chunk)) + 4e6

    def test_later_chunks_do_not_raise_the_peak_rss(self):
        for evaluator, driver_floats in self.EVALUATORS.items():
            one, three = (child_peak_rss(self.RSS_SCRIPT.format(evaluator=evaluator, paths=paths))
                          for paths in (4096, 3 * 4096))
            assert three - one <= 0.25 * driver_floats * 8, evaluator


def sweep_evaluator(name, n):
    """``route_evaluator``, or one on the two-asset preset or a d = 2 Wishart model, at n steps."""
    if name == "two-asset":
        return QuadraticEvaluator(two_asset_model(), make_grid(0.5, n))
    if name == "wishart":
        model = wishart_model(ExponentialKernel(beta=1.0), theta=[[0.5, 0.1], [0.0, 0.4]], eta=0.3 * np.eye(2),
                              rho=[-0.3, -0.2], g0_mat=0.2 * np.eye(2))
        return QuadraticEvaluator(model, make_grid(0.5, n))
    return route_evaluator(name, n)


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """One budget, ``chunk_bytes``, holds a run's chunk workspace and its kept paths together."""

    def test_chunk_and_kept_paths_checked_together(self, monkeypatch):
        # 8192 paths at n = 100 and mc.chunk 4096 run in chunks of max_chunk
        # = 1024 paths, which count 4593536 bytes, under the limit, and 3200
        # kept paths 7731200 bytes of kept floats.  Checked apart, each fits
        # that limit, while run_mc traces at 11.7 MB
        limit = 2**23
        ev = AffineEvaluator(gemm_models()["one"], make_grid(1.0, 100))
        args = dict(paths=8192, seed=1, x0=1.0, xi_star_val=1.5, chunk=4096, keep_paths=3200)
        assert chunk_bytes(ev, ev.max_chunk, 0, 8192) <= limit and 8 * 3200 * (101 * 2 + 100) <= limit
        run_mc(ev, paths=64, seed=1, x0=1.0, xi_star_val=1.5, chunk=64)  # first-call allocations
        assert traced_peak(run_mc, ev, **args) > 1.2 * limit
        monkeypatch.setattr(vmk.errors, "PHYS_MEM_BYTES", limit)
        monkeypatch.setattr(vmk.montecarlo, "simulate_drivers", lambda *a, **k: pytest.fail("drew over the limit"))
        with pytest.raises(MemoryCapError, match="mc.paths or mc.dump_paths") as exc:
            run_mc(ev, **args)
        assert str(chunk_bytes(ev, ev.max_chunk, 3200, 8192)) in str(exc.value)

    # (model, n, chunk W, kept paths K): one- and two-factor affine, the
    # quad-simulate model, the two-asset preset and a d = 2 Wishart model
    SWEEP = [
        ("one", 20, 2, 0), ("one", 200, 2, 0), ("one", 400, 256, 0), ("one", 20, 256, 20000),
        ("one", 100, 4096, 2383), ("two", 400, 2, 0), ("two", 50, 256, 20000), ("two", 200, 1024, 0),
        ("quadratic", 200, 2, 0), ("quadratic", 250, 4096, 0), ("quadratic", 50, 256, 20000),
        ("two-asset", 400, 1024, 0), ("two-asset", 20, 256, 20000), ("two-asset", 100, 64, 500),
        ("wishart", 100, 1024, 0), ("wishart", 20, 4096, 2383), ("wishart", 100, 7, 500),
        ("quadratic", 40, 900, 0),  # chunks of 512 and 388 paths, one path block each
        ("quadratic", 100, 900, 0),  # the same chunks, each a path block of 327 paths and a ragged one
        ("one", 400, 2, 500), ("one", 1600, 2, 500), ("two", 400, 2, 500),
        # affine mc.chunk above the 1024-path cap: the stepper's step buffers at full width
        ("one", 400, 4096, 0), ("one", 100, 1031, 64), ("two", 200, 2048, 0),
    ]

    @pytest.mark.parametrize("name, n, width, keep", SWEEP)
    def test_budget_holds_the_traced_peak(self, name, n, width, keep):
        # numpy's ufunc buffers, counted as a fixed two of np.getbufsize()
        # floats, are most of the peak at small chunks: without them the
        # budget read up to 0.108 MB short (n = 400, one factor, 1 path)
        ev = sweep_evaluator(name, n)
        paths = max(width, keep)
        run_mc(ev, paths=16, seed=1, x0=1.0, xi_star_val=1.5, chunk=8, keep_paths=8)  # first-call allocations
        peak = traced_peak(run_mc, ev, paths=paths, seed=1, x0=1.0, xi_star_val=1.5, chunk=width, keep_paths=keep)
        budget = chunk_bytes(ev, min(width, ev.max_chunk), keep, paths)  # the width run_mc checks
        assert budget >= peak


class TestPathBlocks:
    """Cache-sized path blocks give the bits of the slot-blocked correlation and the whole-chunk read-off."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", ["one", "two", "quadratic", "two-asset", "wishart"])
    def test_premium_paths_match_whole_chunk_stages(self, name, antithetic):
        ev = sweep_evaluator(name, 20)
        block = _BLOCK_FLOATS // (ev.grid.n * ev.n_factors)
        work = chunk_workspace(ev, 4096)
        for P in (1, 7, block + 1, _MAP_ROWS + 1, 2 * _MAP_ROWS + 7, 4096):
            z = simulate_drivers(ev.grid, ev.n_factors, P, 11, antithetic=antithetic)
            want = whole_chunk_premium_paths(ev, z)
            got = ev.premium_paths(simulate_drivers(ev.grid, ev.n_factors, P, 11, antithetic=antithetic,
                                                    out=work.draws), work)
            for field, a, b in zip(("dB", "lambda", "premium", "state"), got, want):
                np.testing.assert_array_equal(a, b, err_msg=f"{field} at P = {P}")

    @pytest.mark.parametrize("n", [20, 250])
    @pytest.mark.parametrize("name", ["quadratic", "two-asset"])
    def test_row_blocks_match_one_chunk_wide_product(self, name, n):
        # the blocks move a value by roundoff only: up to 1.8e-15, 4.4e-16 of the largest value, at n = 250
        ev = sweep_evaluator(name, n)
        P = 2 * _MAP_ROWS + 7
        z = simulate_drivers(ev.grid, ev.n_factors, P, 5)
        _, dw = correlate_drivers(z, ev.model.corr)
        want = dw.reshape(P, -1) @ ev.lmap + ev.c0
        _, _, prem, state = ev.premium_paths(z)
        got = np.concatenate([state.reshape(P, -1), prem.reshape(P, -1)], axis=1)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d, N", [(1, 1), (2, 2), (2, 3), (3, 2), (1, 2)])
    def test_correlation_matches_slot_blocks(self, d, N):
        rng = np.random.default_rng(d + 10 * N)
        n = 50
        P = _BLOCK_FLOATS // (n * (d + N)) + 1
        z, corr = rng.standard_normal((P, n, d + N)), rng.uniform(-0.6, 0.6, (N, d)) / d
        got, want = (np.empty((P, n, d)), np.empty((P, n, N))), (np.empty((P, n, d)), np.empty((P, n, N)))
        correlate_into(z, corr, *got)
        correlate_slots(z, corr, *want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("db_shape, dw_shape", [((5, 20, 1), (4, 20, 1)), ((5, 19, 1), (5, 20, 1)),
                                                    ((6, 20, 1), (5, 20, 1)), ((5, 20, 1), (5, 21, 1))])
    def test_outputs_must_match_the_draws(self, db_shape, dw_shape):
        with pytest.raises(InvalidArgumentError, match=r"\(5, 20\)"):
            correlate_into(np.zeros((5, 20, 2)), np.array([[0.5]]), np.empty(db_shape), np.empty(dw_shape))


class TestStageRefusals:
    """Each Monte Carlo stage refuses inputs of the wrong size before it writes anything."""

    def test_buffer_too_small_refused(self):
        with pytest.raises(InvalidArgumentError, match="a buffer of 12 floats cannot hold 12 from float 1 on"):
            vmk.montecarlo.take_floats(np.empty(12), (3, 4), 1)

    @pytest.mark.parametrize("n_factors, paths", [(0, 4), (2, 0)])
    def test_empty_draws_refused(self, n_factors, paths):
        with pytest.raises(InvalidArgumentError, match="paths and n_factors must be positive"):
            simulate_drivers(make_grid(1.0, 4), n_factors, paths, 0)

    def test_factor_count_must_match_the_correlation(self):
        with pytest.raises(InvalidArgumentError, match="need 2 driving factors, got 3"):
            correlate_into(np.zeros((5, 20, 3)), np.array([[0.5]]), np.empty((5, 20, 1)), np.empty((5, 20, 1)))

    @pytest.mark.parametrize("lam_shape, grid_n, message", [
        ((4, 6, 1), 6, "db, lam and prem must share a common shape"),
        ((4, 5, 1), 6, "paths built for 5 steps, grid has 6"),
    ])
    def test_wealth_inputs_must_match(self, lam_shape, grid_n, message):
        db, prem = np.zeros((4, 5, 1)), np.zeros((4, 5, 1))
        with pytest.raises(InvalidArgumentError, match=message):
            simulate_wealth(make_grid(1.0, grid_n), 0.0, 1.0, 1.5, db, np.zeros(lam_shape), prem)


class TestOneChunkRoute:
    """Both evaluators run every chunk in the workspace run_mc takes before its first draw."""

    @staticmethod
    def recorded(fn, calls):
        def call(*args, **kwargs):
            calls.append(fn(*args, **kwargs))
            return calls[-1]

        return call

    @pytest.mark.parametrize("family", ["one", "two", "quadratic"])
    def test_every_chunk_runs_in_the_first_workspace(self, family, monkeypatch):
        ev = route_evaluator(family, 40)
        works, draws, outputs = [], [], []
        monkeypatch.setattr(vmk.montecarlo, "simulate_drivers", self.recorded(simulate_drivers, draws))
        monkeypatch.setattr(vmk.montecarlo, "chunk_workspace", self.recorded(chunk_workspace, works))
        monkeypatch.setattr(ev, "premium_paths", self.recorded(ev.premium_paths, outputs))
        res = run_mc(ev, paths=50, seed=3, x0=1.0, xi_star_val=1.8, chunk=20, keep_paths=5)
        assert len(works) == 1 and len(draws) == len(outputs) == 3 and res.wealth.paths == 50
        work = works[0]
        for z, (db, lam, prem, state) in zip(draws, outputs):
            for a, buf in ((z, work.draws), (db, work.db), (lam, work.drivers), (prem, work.draws),
                           (state, work.draws)):
                assert np.shares_memory(a, buf)

    @pytest.mark.parametrize("family", ["one", "two", "quadratic"])
    def test_a_new_workspace_gives_the_same_bits(self, family):
        ev = route_evaluator(family, 40)
        work = chunk_workspace(ev, 24)
        got = ev.premium_paths(simulate_drivers(ev.grid, ev.n_factors, 20, 3, out=work.draws), work)
        for a, b in zip(got, ev.premium_paths(simulate_drivers(ev.grid, ev.n_factors, 20, 3))):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(5, 21, 2), (5, 20)])
    @pytest.mark.parametrize("family", ["one", "quadratic"])  # both read d + N = 2 factors
    def test_malformed_draws_refused(self, family, shape):
        with pytest.raises(InvalidArgumentError, match=r"\(P, 20, 2\)"):
            route_evaluator(family, 20).premium_paths(np.zeros(shape))


class TestRunMCMatchesStages:
    """run_mc's wealth row blocks give the samples of the stages called on whole chunks."""

    CHUNK = _WEALTH_ROWS + 44  # not a multiple of the row block
    KEEP = _WEALTH_ROWS + 9  # crosses a row-block boundary

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("family", ["quadratic", "affine", "affine-two"])
    def test_bit_identical(self, family, antithetic):
        # two factors, and a last chunk of 20 paths padded to 24 in the
        # workspace the first chunk's lambda was written into
        if family == "affine-two":
            ev, xi = AffineEvaluator(gemm_models()["two"], make_grid(1.0, 100)), 1.8
        else:
            ev, xi = calibration_evaluators()[family]
        args = dict(paths=2 * self.CHUNK + 20, seed=9, x0=1.0, xi_star_val=xi, antithetic=antithetic,
                    chunk=self.CHUNK, keep_paths=self.KEEP)
        got = run_mc(ev, **args)
        want = staged_mc(ev, **args)
        np.testing.assert_array_equal(got.terminal, want.terminal)
        np.testing.assert_array_equal(got.gamma_samples, want.gamma_samples)
        for field in ("x", "alpha", "state"):
            assert getattr(got.kept, field).shape[0] == self.KEEP
            np.testing.assert_array_equal(getattr(got.kept, field), getattr(want.kept, field), err_msg=field)


class TestStats:
    def test_moments_on_known_samples(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        s = mc_stats(x)
        assert s.paths == 4
        assert s.mean == pytest.approx(2.5)
        assert s.variance == pytest.approx(5.0 / 3.0)
        assert s.se_mean == pytest.approx(math.sqrt(5.0 / 12.0))
        mu4 = np.mean((x - 2.5) ** 4)
        want_sev = math.sqrt((mu4 - (5.0 / 3.0) ** 2 * (1.0 / 3.0)) / 4.0)
        assert s.se_variance == pytest.approx(want_sev, rel=1e-12)

    def test_constant_samples(self):
        s = mc_stats(np.full(10, 3.0))
        assert s.variance == 0.0
        assert s.se_mean == 0.0

    def test_single_sample_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mc_stats(np.array([1.0]))
