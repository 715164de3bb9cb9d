"""Monte Carlo validation layer.

Drivers are generated per path from a counter-based generator keyed by
(seed, global path index), so reruns are bit-for-bit reproducible and the
draws do not depend on chunking.  Affine samples are chunk-invariant bit
for bit as well, for any chunk size, number of factors and BLAS thread
count (see ``affine.simulate_forward_variance``), and so are quadratic
samples for every chunk of at least ``_MAP_ROWS`` paths (one premium map
product); smaller chunks move them by roundoff, as BLAS results depend on
the rows a product is given.

``run_mc`` streams the paths in chunks of at most the evaluator's
``max_chunk`` paths (1024 affine, ``_MAP_ROWS`` quadratic) through one
workspace, which ``chunk_workspace`` allocates once it has checked the
run's one budget, ``chunk_bytes``, before the first draw, and which every
chunk reuses: the raw drivers z (m, n, d + N) are drawn into its draws
buffer and correlated into its dB and driver buffers (``correlate_into``),
and the evaluator writes the state and premium paths over z and lambda
over the drivers once it has read them, so no chunk after the first
allocates any of them; the drawing, the correlation and the evaluators'
reads of lambda and the premium run over cache-sized ``path_blocks``.
Wealth is advanced in blocks of ``_WEALTH_ROWS`` paths, so the (m, n+1)
wealth and the (m, n, d) amounts never exist for the whole chunk; only the
terminal wealth, the Gamma samples and the kept paths leave it.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import InvalidArgumentError, check_memory
from .grid import TimeGrid, g0_nodes
from .markowitz import tail_rate_integrals

# Paths per block of the wealth stage in run_mc, whose arrays are allocated per block.  In a fresh process over
# 8192 paths it took 44 ms (affine-simulate model) and 28-29 ms (quad-simulate) at 128 rows, and 70-73 and 37-39 ms
# at 256, where glibc handed each block its 0.5-0.8 MB arrays as new pages (17529 and 9440 minor page faults against
# 336 and 60; medians of 10 to 16, 2-core Xeon).  A warm 4096-path chunk read 31-39 ms from 64 to 4096 rows.
_WEALTH_ROWS = 128
# Paths per quadratic chunk and premium map product, whose OpenBLAS working memory grows with them: a 4096-path
# quad-simulate product peaked at 75.5, 76.2, 77.2, 79.4 and 83.4 MB RSS at 256, 512, 1024, 2048 and 4096 rows,
# and 512 rows took 1 ms of 16 more there, 2-3% on the two-asset preset at n = 300 (256: 5%; 2-core Xeon).
_MAP_ROWS = 512
# Slots per block of the affine forward-variance stepper, and per history block.  A block adds earlier steps as one
# GEMM per factor (at a history block's first block, the steps before it for the whole history block) and then steps
# its own slots elementwise, work that grows with the block.  On 1024-path chunks the stepper took 12.4 ms at n = 400
# and 122 at n = 1600 in 8-slot blocks alone, 10.4 and 82 with 16-slot history blocks (32 and 64: 9.7-10.7 and 66-67,
# but a GEMM's copied kernel rows take n floats per row), and 13.1-15.3 and 87 in 32-slot blocks (medians of 15,
# 2-core Xeon).  Blocks of 12 to 24 slots moved a truncating test path 1.6e-10 off the whole-curve stepper, past its
# 1e-10 bound, where 8-slot blocks moved it 2.8e-11.
_SLOT_BLOCK = 8
_HISTORY_BLOCK = 16
# The affine stepper pads the path axis with zero paths to a multiple of this, so OpenBLAS computes
# each path's GEMM column with one kernel whatever the chunk size (other column counts reach its
# edge kernels or, for one path, gemv, whose sums round differently).
_PATH_PAD = 8
# Floats of raw draws per ``path_blocks`` block (81 paths at n = 400, two drivers per step), which stays in cache
# while drawn, correlated and read off: correlating 4096 paths took 16-22 ms at 16-256 paths a block, 41 by 32 slots.
_BLOCK_FLOATS = 2**16


def take_floats(buf, shape, offset: int = 0) -> np.ndarray:
    """A new float array of ``shape``, or, given a flat buffer, its floats from ``offset`` on viewed as one."""
    if buf is None:
        return np.empty(shape)
    size = math.prod(shape)
    if offset + size > buf.size:
        raise InvalidArgumentError(f"a buffer of {buf.size} floats cannot hold {size} from float {offset} on")
    return buf[offset : offset + size].reshape(shape)


def _padded(width: int) -> int:
    """``width`` paths rounded up to a multiple of ``_PATH_PAD``."""
    return -(-width // _PATH_PAD) * _PATH_PAD


def path_blocks(paths: int, floats: int):
    """Slices of ``range(paths)`` in blocks of ``_BLOCK_FLOATS // floats`` paths (at least one), ``floats`` per path."""
    rows = max(_BLOCK_FLOATS // floats, 1)
    return [slice(p0, min(p0 + rows, paths)) for p0 in range(0, paths, rows)]


def chunk_bytes(evaluator, width: int, keep: int = 0, paths: int = 0) -> int:
    """Bytes of a ``run_mc`` run of ``paths`` paths (at least ``width`` and ``keep``) in chunks of ``width``.

    In floats: the evaluator's ``workspace_floats(width)``; 2 samples per path; (n + 1)(1 + S) + n d
    per kept path, with d = ``n_assets`` and S = ``n_state``; and the largest temporaries: two
    ``path_blocks`` of raw draws (dW and dB C', or the quadratic state lambda is read off, with
    numpy's ufunc buffers), the affine stepper's step buffers (``_SLOT_BLOCK`` + 2 slots of the S state
    drivers), a ``_HISTORY_BLOCK``-slot history product with its copied kernel rows (n per slot) and the
    n S kernel weights, two ``_WEALTH_ROWS``-row wealth blocks, or the sample statistics' 3 per path
    (traced at 2, 2.5 with antithetic pairs); and two ufunc buffers of ``np.getbufsize()`` floats,
    which numpy adds to a small ufunc's result (up to 0.108 MB traced at chunks of under 256 paths).
    README reads it against traced peaks.  BLAS working memory is outside it and tracemalloc (see
    ``_MAP_ROWS``).
    """
    n, d, S = evaluator.grid.n, evaluator.n_assets, evaluator.n_state
    total = max(paths, width, keep)
    kept = keep * ((n + 1) * (1 + S) + n * d)
    first = path_blocks(width, n * evaluator.n_factors)[0]
    path_floats = 2 * (first.stop - first.start) * n * evaluator.n_factors
    slot_blocks = (_SLOT_BLOCK + 2) * S * _padded(width) + _HISTORY_BLOCK * (_padded(width) + n) + S * n
    wealth_blocks = 2 * min(width, _WEALTH_ROWS) * (n + 1) * (d + 2)
    temporaries = max(path_floats, slot_blocks, wealth_blocks, 3 * total)
    return 8 * (sum(evaluator.workspace_floats(width)) + 2 * total + kept + temporaries + 2 * np.getbufsize())


def chunk_workspace(evaluator, width: int, keep: int = 0, paths: int = 0) -> SimpleNamespace:
    """The flat draws, drivers and dB buffers that every chunk of up to ``width`` paths reuses; raises MemoryCapError,
    before allocating anything, when ``chunk_bytes`` of the run would not fit in physical memory."""
    check_memory(f"a run of {max(paths, width, keep)} paths at n = {evaluator.grid.n} in Monte Carlo chunks of "
                 f"{width}, keeping {keep} paths", chunk_bytes(evaluator, width, keep, paths),
                 "use a smaller mc.chunk or fewer mc.paths" + (" or mc.dump_paths" if keep else ""))
    draws, drivers, db = (np.empty(size) for size in evaluator.workspace_floats(width))
    return SimpleNamespace(draws=draws, drivers=drivers, db=db)


def simulate_drivers(grid: TimeGrid, n_factors: int, paths: int, seed: int,
                     antithetic: bool = False, start: int = 0, out: np.ndarray = None) -> np.ndarray:
    """Brownian increments of shape (paths, n, n_factors), step variance dt.

    Path p draws from its own Philox stream keyed by (seed, start + p);
    with ``antithetic`` consecutive global indices share a stream and the
    odd one is negated, so the draws are chunk-invariant either way.  One
    generator is re-keyed per path through its state (counter 0, key
    (seed, stream), empty buffer), which draws exactly what a fresh
    ``Generator(Philox(key=[seed, stream]))`` would.  The key is built as
    uint64 from seed mod 2^64, never through float64, so no seed below 2^64
    is rounded onto another seed's key; a negative seed names the stream of
    seed + 2^64.

    With ``out``, a flat float buffer, the draws are written into its
    leading paths * n * n_factors floats and returned as a view of them;
    the values are the same either way.
    """
    if paths < 1 or n_factors < 1:
        raise InvalidArgumentError("paths and n_factors must be positive")
    out = take_floats(out, (paths, grid.n, n_factors))
    key = np.array([seed % 2**64, start // 2 if antithetic else start], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for blk in path_blocks(paths, grid.n * n_factors):
        for p in range(blk.start, blk.stop):
            idx = start + p
            state["state"]["key"][1] = idx // 2 if antithetic else idx
            bitgen.state = state
            gen.standard_normal(out=out[p])
            if antithetic and idx % 2 == 1:
                np.negative(out[p], out=out[p])
        out[blk] *= math.sqrt(grid.dt)  # while the block is in cache
    return out


def correlate_into(z: np.ndarray, corr: np.ndarray, db: np.ndarray, dw: np.ndarray) -> None:
    """Map raw increments z (P, n, d + N) to stock and state drivers, written into db (P, n, d) and dw (P, n, N).

    dW = dB C' + sqrt(1 - |C_k|^2) dB_perp row by row, with C the (N, d)
    correlation matrix; the affine family passes diag(rho).  Each of the
    ``path_blocks`` takes dB C' as one matrix product and is written into
    dw, which may be any view, such as the affine stepper's slot-major
    buffer transposed.
    """
    N, d = corr.shape
    if z.shape[2] != d + N:
        raise InvalidArgumentError(f"need {d + N} driving factors, got {z.shape[2]}")
    if db.shape[:2] != z.shape[:2] or dw.shape[:2] != z.shape[:2]:
        raise InvalidArgumentError(f"db and dw must lead with z's (P, n) {z.shape[:2]}, got {db.shape} and {dw.shape}")
    scale = np.sqrt(np.maximum(1.0 - np.sum(corr * corr, axis=1), 0.0))
    for blk in path_blocks(len(z), z[0].size):
        b = db[blk]
        b[...] = z[blk, :, :d]
        w = np.multiply(z[blk, :, d:], scale)  # then dB C' added: IEEE addition commutes
        w += np.dot(b.reshape(-1, d), corr.T).reshape(w.shape)  # dot: np.matmul takes gemv for N = 1, 3x slower
        dw[blk] = w  # written in dw's memory order, so a slot-major dw is written in runs of paths


@dataclass(frozen=True)
class SampleStats:
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    paths: int


def mc_stats(samples: np.ndarray) -> SampleStats:
    """Mean and unbiased variance with standard errors for both.

    The standard error of the variance uses the fourth central moment,
    Var(s^2) = (mu4 - sigma^4 (n-3)/(n-1)) / n, which reads low for heavy-tailed samples at small n:
    at 64 paths the seed-to-seed spread of the terminal wealth variance is 1.89 (quadratic) and
    1.42 (affine) times it.  Only the standard error of the mean is calibrated there.  Where the
    samples' moment index s* <= 4 the fourth moment is infinite and se_variance is no standard
    error at any n: quadratic terminal wealth has s* 3.56 (quad-simulate), 2.32 (two-asset, T 1.5).
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise InvalidArgumentError("need at least two samples")
    mean = math.fsum(x) / n
    c = x - mean
    m2 = math.fsum(c * c) / n
    m4 = math.fsum(c**4) / n
    var = m2 * n / (n - 1)
    se_mean = math.sqrt(max(var, 0.0) / n)
    var_of_var = (m4 - (var**2) * (n - 3) / (n - 1)) / n
    return SampleStats(mean, var, se_mean, math.sqrt(max(var_of_var, 0.0)), n)


def _pair_stats(samples: np.ndarray) -> SampleStats:
    """``mc_stats`` for antithetic samples, where paths 2i and 2i + 1 share one draw.

    The two paths of a pair are dependent, so the mean and its standard
    error come from the P/2 pair averages, and the standard error of the
    variance (still taken over all paths) from the pair averages of the
    squared deviations.
    """
    full = mc_stats(samples)
    pairs = mc_stats(0.5 * (samples[0::2] + samples[1::2]))
    sq = (samples - full.mean) ** 2
    spread = mc_stats(0.5 * (sq[0::2] + sq[1::2]))
    return SampleStats(pairs.mean, full.variance, pairs.se_mean, spread.se_mean, full.paths)


def simulate_wealth(grid: TimeGrid, rate, x0: float, xi_star_val: float,
                    db: np.ndarray, lam: np.ndarray, prem: np.ndarray) -> SimpleNamespace:
    """Wealth paths under the optimal feedback control.

    The discounted gap Xg_t = X_t - xi* e^{-int_t^T r} follows a
    path-dependent geometric dynamics with drift r + lambda'A and
    exposure A = -premium per unit gap, advanced exactly:

        Xg_{k+1} = Xg_k exp((r_k + lambda_k'A_k - |A_k|^2/2) dt + A_k'dB_k).

    Returns x (paths, n+1), the invested amounts alpha (paths, n, d) with
    alpha_k = A_k Xg_k, and the terminal wealth x[:, n].  Every path is
    computed on its own, so a block of rows gives those rows' values bit
    for bit.
    """
    P, n, d = db.shape
    if lam.shape != (P, n, d) or prem.shape != (P, n, d):
        raise InvalidArgumentError("db, lam and prem must share a common shape")
    if n != grid.n:
        raise InvalidArgumentError(f"paths built for {n} steps, grid has {grid.n}")
    rn = g0_nodes(rate, grid, name="rate")
    tails = tail_rate_integrals(rate, grid)
    # All n steps at once, with the per-step expressions in the per-step
    # order; the cumulative product is the same left-to-right product, so
    # every sample is bit-identical to stepping k = 0, ..., n-1 in turn.
    # A is held in alpha, the exponents and then the gap in x, and x is
    # shifted to wealth last, so the only temporary is one (P, n) buffer.
    alpha = np.negative(prem)
    x = np.empty((P, n + 1))
    expo = x[:, 1:]
    drift = np.einsum("pkd,pkd->pk", lam, alpha)
    drift += rn[:n]
    np.einsum("pkd,pkd->pk", alpha, alpha, out=expo)
    expo *= 0.5
    drift -= expo
    drift *= grid.dt
    np.einsum("pkd,pkd->pk", alpha, db, out=expo)
    np.add(drift, expo, out=expo)
    del drift
    np.exp(expo, out=expo)
    x[:, 0] = x0 - xi_star_val * math.exp(-tails[0])
    np.cumprod(x, axis=1, out=x)
    alpha *= x[:, :n, None]
    x += xi_star_val * np.exp(-tails)
    return SimpleNamespace(x=x, alpha=alpha, terminal=x[:, n])


def gamma_factors(grid: TimeGrid, rate, prem: np.ndarray) -> np.ndarray:
    """Per-path samples exp(int (2r - |premium|^2)); their mean estimates Gamma_0."""
    rn = g0_nodes(rate, grid, name="rate")
    expo = grid.dt * (2.0 * np.sum(rn[: grid.n]) - np.einsum("pkd,pkd->p", prem, prem))
    return np.exp(expo)


def run_mc(evaluator, paths: int, seed: int, x0: float, xi_star_val: float,
           antithetic: bool = False, chunk: int = 4096, keep_paths: int = 0) -> SimpleNamespace:
    """Stream the full pipeline and collect terminal-wealth and Gamma samples.

    ``evaluator`` provides n_factors, what ``chunk_bytes`` reads, max_chunk
    (the most paths a chunk takes, whatever ``chunk``) and
    premium_paths(z, workspace) -> (dB, lambda, premium, state paths),
    views of the ``chunk_workspace`` every chunk's draws are written into;
    MemoryCapError is raised before the first draw when the run's budget
    would not fit in physical memory.  Chunking does not change any draw;
    the samples are bit-for-bit chunk-invariant (see the module docstring).
    The first ``keep_paths`` paths are returned in full (wealth, amounts,
    state) for dumping, copied block by block into arrays allocated once.
    With ``antithetic`` the path count must be even and at least 4, and the
    standard errors come from the antithetic pairs.
    """
    if antithetic and (paths % 2 or paths < 4):
        raise InvalidArgumentError(f"antithetic sampling needs an even path count of at least 4, got {paths}")
    grid = evaluator.grid
    rate = evaluator.model.rate
    keep = min(max(keep_paths, 0), paths)
    width = min(chunk, paths, evaluator.max_chunk)
    work = chunk_workspace(evaluator, width, keep, paths)
    terminal = np.empty(paths)
    gamma = np.empty(paths)
    kept = None
    done = 0
    while done < paths:
        m = min(width, paths - done)
        z = simulate_drivers(grid, evaluator.n_factors, m, seed, antithetic=antithetic, start=done, out=work.draws)
        db, lam, prem, state = evaluator.premium_paths(z, work)
        gamma[done : done + m] = gamma_factors(grid, rate, prem)
        for r0 in range(0, m, _WEALTH_ROWS):
            r1 = min(r0 + _WEALTH_ROWS, m)
            w = simulate_wealth(grid, rate, x0, xi_star_val, db[r0:r1], lam[r0:r1], prem[r0:r1])
            terminal[done + r0 : done + r1] = w.terminal
            take = min(keep - done, r1) - r0
            if take > 0:
                rows = {"x": w.x, "alpha": w.alpha, "state": state[r0:r1]}
                if kept is None:
                    kept = SimpleNamespace(**{name: np.empty((keep,) + a.shape[1:])
                                              for name, a in rows.items()})
                for name, a in rows.items():
                    getattr(kept, name)[done + r0 : done + r0 + take] = a[:take]
                del rows
            del w  # freed before the next block allocates its own
        done += m
    stats = _pair_stats if antithetic else mc_stats
    return SimpleNamespace(
        wealth=stats(terminal),
        gamma=stats(gamma),
        terminal=terminal,
        gamma_samples=gamma,
        kept=kept,
    )
