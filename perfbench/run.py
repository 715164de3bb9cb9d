"""vmk benchmark: three CLI workloads, end-to-end and per-layer times.

Run from the repository root:

    python3 perfbench/run.py --workload quad-solve --seed 0 --seconds 30 --trace 0

Every operation is one closed-loop child process started after the previous
one ends.  With ``--trace 0`` the run alternates set-ups (fresh interpreters that
import vmk and build the model) with the workload's ``vmk`` CLI command, and
reports end-to-end medians.  With ``--trace 1`` it repeats a cycle of the
plain CLI command, the same command with spans around its layer calls, and
a library run that calls the solver and the MC stages directly, and
reports per-layer numbers.
Every operation passes the correctness gates or is counted as failed.  The
last stdout line is the JSON result; a table of every metric with its
median, tail percentile and sample count, and the environment, come
before it.  Files go to ``.bench_work/`` in the repository root.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import workloads as wl
from spans import self_times

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
SETUP_REPS = 3
# Every child is killed once the run has lasted this long, so that a hung
# operation still ends the run within its 180 s limit.
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


def z_scores(stats):
    """Sample-minus-target in standard errors for the wealth mean, variance and Gamma."""
    return {
        "mean_z": (stats["mean_XT"] - stats["target_m"]) / stats["se_mean_XT"],
        "var_z": (stats["var_XT"] - stats["target_V"]) / stats["se_var_XT"],
        "gamma_z": (stats["gamma0_mc"] - stats["gamma0_closed"]) / stats["se_gamma0_mc"],
    }


def read_mc_csv(path):
    """mc.csv as the stats mapping the library run writes."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = {r[0]: r[1:] for r in list(csv.reader(fh))[1:]}
    stats = {}
    for name, se_name in (("mean_XT", "se_mean_XT"), ("var_XT", "se_var_XT"),
                          ("gamma0_mc", "se_gamma0_mc")):
        stats[name] = float(rows[name][0])
        stats[se_name] = float(rows[name][1])
    for name in ("target_m", "target_V", "gamma0_closed"):
        stats[name] = float(rows[name][0])
    return stats


def check_csvs(out_dir, expected):
    """Errors for CSV files missing, or with another header or row count."""
    errors = []
    for name, (header, n_rows) in expected.items():
        path = out_dir / name
        if not path.is_file():
            errors.append(f"{name} missing")
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            errors.append(f"{name} header {rows[0] if rows else None} != {header}")
        elif len(rows) - 1 != n_rows:
            errors.append(f"{name} has {len(rows) - 1} rows, expected {n_rows}")
        elif name == "mc.csv" and [r[0] for r in rows[1:]] != wl.MC_QUANTITIES:
            errors.append(f"mc.csv quantities {[r[0] for r in rows[1:]]}")
    return errors


def tail_percentile(samples):
    """(p, value) for the highest of p50/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def _git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Run:
    """One benchmark invocation: its config, its child processes and its gates."""

    def __init__(self, root, workload, seed, trace, size="full", pin=None):
        self.root = root
        self.command = wl.COMMANDS[workload]
        self.cfg = wl.make_config(workload, seed, size)
        self.expected = wl.expected_csvs(workload, self.cfg)
        self.pin = wl.GAMMA0_PINS[(workload, size)] if pin is None else pin
        self.work = root / ".bench_work" / f"{workload}-{size}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg_path = self.work / "config.yaml"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=1, sort_keys=True) + "\n")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failures = []
        self.n_ops = 0
        self.t_start = time.perf_counter()

    def _spawn(self, argv, tag):
        """Run one child; returns (wall seconds, exit code, peak RSS MB, log path)."""
        self.n_ops += 1
        log = self.work / f"{self.n_ops:03d}-{tag}.log"
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.t_start))
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fh, stderr=subprocess.STDOUT,
                                    cwd=self.root, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, log

    def _gate(self, tag, errors):
        self.attempted += 1
        if errors:
            self.failures.append(f"{tag}: " + "; ".join(errors))
        return not errors

    def _result_errors(self, gamma0, stats):
        errors = []
        bound = wl.gamma0_bound(self.cfg)
        if not 0.0 < gamma0 <= bound:
            errors.append(f"Gamma_0 {gamma0!r} outside (0, {bound!r}]")
        if not abs(gamma0 - self.pin) <= wl.GAMMA0_RTOL * abs(self.pin):
            errors.append(f"Gamma_0 {gamma0!r} differs from the pin {self.pin!r}")
        for name, z in z_scores(stats).items():
            if name in wl.Z_GATED and not abs(z) <= wl.Z_GROSS:
                errors.append(f"{name} = {z!r} beyond {wl.Z_GROSS} se")
        return errors

    def setup_op(self):
        wall, rc, _, log = self._spawn([CHILD, "setup", str(self.cfg_path)], "setup")
        return wall if self._gate("setup", [] if rc == 0 else [f"exit {rc}, see {log}"]) else None

    def cli_op(self, traced=False, reference=None):
        """The workload's CLI command; ``reference`` is an output dir it must equal byte for byte."""
        tag = "cli-trace" if traced else "cli"
        out = self.work / f"out-{self.n_ops + 1:03d}"
        spans_path = self.work / f"{self.n_ops + 1:03d}-spans.json"
        if traced:
            argv = [CHILD, "cli-trace", self.command, str(self.cfg_path), str(out), str(spans_path)]
        else:
            argv = ["-m", "vmk.cli", self.command, "--config", str(self.cfg_path), "--out", str(out)]
        wall, rc, rss, log = self._spawn(argv, tag)
        errors = [] if rc == 0 else [f"exit {rc}, see {log}"]
        stats = spans = None
        if rc == 0:
            errors += check_csvs(out, self.expected)
        if not errors and "mc.csv" in self.expected:
            stats = read_mc_csv(out / "mc.csv")
            errors += self._result_errors(stats["gamma0_closed"], stats)
        if not errors and reference is not None:
            errors += [f"{name} differs from the untraced run's" for name in self.expected
                       if (out / name).read_bytes() != (reference / name).read_bytes()]
        if not errors and traced:
            spans = json.loads(spans_path.read_text())["spans"]
        ok = self._gate(tag, errors)
        return SimpleNamespace(ok=ok, wall=wall, rss=rss, out=out, stats=stats, spans=spans)

    def lib_op(self):
        """Direct solver call and staged MC, whose samples must equal run_mc's bit for bit."""
        out_json = self.work / f"{self.n_ops + 1:03d}-lib.json"
        _, rc, _, log = self._spawn([CHILD, "lib", str(self.cfg_path), str(out_json)], "lib")
        data = None
        errors = [f"exit {rc}, see {log}"] if rc != 0 else []
        if rc == 0:
            data = json.loads(out_json.read_text())
            errors += self._result_errors(data["gamma0"], data["stats"])
            if not data["mc_match"]:
                errors.append("staged MC samples differ from run_mc's")
        ok = self._gate("lib", errors)
        return SimpleNamespace(ok=ok, data=data)

    def environment(self):
        import platform

        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {
            "git_commit": _git_commit(self.root),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "config_sha256": {self.cfg_path.name: hashlib.sha256(self.cfg_path.read_bytes()).hexdigest()},
        }


def measure_end_to_end(run, seconds):
    """SETUP_REPS set-ups, then set-up and CLI runs in turn for ``seconds``.

    Set-ups are spread over the run because the machine's speed drifts
    within it.
    """
    samples = {"run_s": [], "setup_s": [], "peak_rss_mb": []}

    def setup():
        wall = run.setup_op()
        if wall is not None:
            samples["setup_s"].append(wall)

    for _ in range(SETUP_REPS):
        setup()
    t0 = time.perf_counter()
    while True:
        setup()
        op = run.cli_op()
        if op.ok:
            samples["run_s"].append(op.wall)
            samples["peak_rss_mb"].append(op.rss)
        shutil.rmtree(op.out, ignore_errors=True)
        if time.perf_counter() - t0 >= seconds:
            return samples


def cycle_layers(cli, traced, lib):
    """Per-layer numbers of one trace cycle: plain CLI, traced CLI, traced library run."""
    spans = traced.spans

    def total(span_list, name, inclusive=False):
        st = self_times(span_list)
        return sum((s["end"] - s["start"]) if inclusive else st[s["id"]]
                   for s in span_list if s["name"] == name)

    out = {
        "config.load_config_s": total(spans, "config.load_config"),
        "kernels.band_coefficients_s": total(spans, "kernels.band_coefficients"),
        "kernels.folded_cells_s": total(spans, "kernels.folded_cells"),
        "quadratic.discretize_s": total(spans, "quadratic.discretize", inclusive=True),
        "quadratic.solve_operator_riccati_s": total(spans, "quadratic.solve_operator_riccati", inclusive=True),
        "affine.solve_riccati_volterra_s": total(spans, "affine.solve_riccati_volterra"),
        "affine.gamma0_affine_s": total(spans, "affine.gamma0_affine"),
    }
    out["quadratic.sweep_s"] = out["quadratic.solve_operator_riccati_s"] - out["quadratic.discretize_s"]
    solves = [s for s in spans if s["name"] == "quadratic.solve_operator_riccati"]
    out["quadratic.solution_mb"] = sum(s["mb"] for s in solves)
    out["quadratic.min_rcond"] = min((s["min_rcond"] for s in solves), default=0.0)
    # The MC layers come from the CLI run when its command simulates, and
    # from the library run's validation MC otherwise (quad-solve).
    if traced.stats is not None:
        mc_spans, stats = spans, traced.stats
    else:
        mc_spans, stats = lib.data["spans"], lib.data["stats"]
    for name in ("quadratic.premium_paths", "affine.premium_paths", "montecarlo.simulate_drivers",
                 "montecarlo.simulate_wealth", "montecarlo.gamma_factors", "montecarlo.mc_stats"):
        out[name + "_s"] = total(mc_spans, name)
    out["montecarlo.driver_mb"] = max(s["mb"] for s in mc_spans if s["name"] == "montecarlo.simulate_drivers")
    out.update({"montecarlo." + k: v for k, v in z_scores(stats).items()})
    # Taken inside the traced run: across runs the solve alone varies by more
    # than the I/O time, so run_s minus traced times can read negative.
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    out["cli.io_s"] = traced.wall - roots
    out["trace.overhead_s"] = traced.wall - cli.wall
    accounted = sum(self_times(spans).values()) + out["cli.io_s"]
    check = {"run_s": cli.wall, "self_plus_io_s": accounted, "residual_s": accounted - cli.wall,
             "within_overhead": abs(accounted - cli.wall) <= abs(out["trace.overhead_s"]) + 1e-9}
    return out, check


def measure_layers(run, seconds):
    """Repeat trace cycles for ``seconds`` (at least one); per-layer samples per cycle."""
    samples = {}
    checks, last_spans = [], None
    t0 = time.perf_counter()
    while True:
        cli = run.cli_op()
        traced = run.cli_op(traced=True, reference=cli.out if cli.ok else None)
        lib = run.lib_op()
        shutil.rmtree(cli.out, ignore_errors=True)
        shutil.rmtree(traced.out, ignore_errors=True)
        if cli.ok and traced.ok and lib.ok:
            values, check = cycle_layers(cli, traced, lib)
            for name, value in values.items():
                samples.setdefault(name, []).append(value)
            checks.append(check)
            last_spans = {"cli": traced.spans, "lib": lib.data["spans"]}
        if time.perf_counter() - t0 >= seconds:
            return samples, checks, last_spans


def report(units, samples, attempted, failed):
    """Print the metric table; return the result line's metrics, or None if one has no sample."""
    print(f"{'metric':38s} {'median':>14s} {'tail':>20s} {'n':>4s}  unit")
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            print(f"{name:38s} {'no sample':>14s}")
            continue
        med = statistics.median(values)
        tail = tail_percentile(values)
        tail_txt = f"p{tail[0]}={tail[1]:.6g}" if tail else "- (<20 samples)"
        print(f"{name:38s} {med:14.6g} {tail_txt:>20s} {len(values):4d}  {unit}")
        metrics[name] = {"value": med, "unit": unit}
    print(f"{'failed_ratio':38s} {failed / attempted:14.6g} {'':>20s} {attempted:4d}  ratio")
    return metrics if len(metrics) == len(units) else None


def run_benchmark(root, workload, seed, seconds, trace, size="full", pin=None):
    """Run one workload; prints the table and returns the result mapping, or None."""
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    run = Run(root, workload, seed, trace, size=size, pin=pin)
    if trace:
        samples, checks, spans = measure_layers(run, seconds)
    else:
        samples, checks, spans = measure_end_to_end(run, seconds), [], None
    failed = len(run.failures)
    env = run.environment()
    print(f"workload {workload} seed {seed} size {size} trace {trace}: "
          f"{run.attempted} operations, {failed} failed")
    for failure in run.failures:
        print(f"FAILED {failure}")
    metrics = report(units, samples, run.attempted, failed)
    for check in checks:
        print("accounting: self times + cli.io_s = {self_plus_io_s:.6g} s against run_s "
              "{run_s:.6g} s, residual {residual_s:.3g} s, within trace overhead: "
              "{within_overhead}".format(**check))
    print("env " + json.dumps(env, sort_keys=True))
    with open(run.work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "samples": samples, "failures": run.failures,
                   "accounting": checks, "metrics": metrics}, fh, indent=1)
    if spans is not None:
        with open(run.work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    if metrics is None:
        return None
    return {"correct": failed == 0 and all(c["within_overhead"] for c in checks),
            "attempted": run.attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny (n = 20, 64 paths) is for the benchmark's own tests")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "vmk" / "cli.py").is_file():
        print(f"error: no vmk sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    result = run_benchmark(root, args.workload, args.seed, args.seconds, args.trace, size=args.size)
    if result is None:
        print("error: a metric has no successful sample", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
