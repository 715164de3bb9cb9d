"""The benchmark's workloads: generated configs, expected outputs and pins.

The seed reaches only ``mc.seed``, so each workload's model, grid and
closed-form Gamma_0 are fixed and Gamma_0 is pinned below.  ``tiny`` sizes
(n = 20, 64 paths) exist for the benchmark's own tests.
"""

import math

COMMANDS = {
    "quad-solve": "quadratic-solve",
    "quad-simulate": "simulate",
    "affine-simulate": "simulate",
}

# Closed-form Gamma_0 of the seed code, per (workload, size).  Algebraically
# equal solver routes must reproduce these to GAMMA0_RTOL.
GAMMA0_PINS = {
    ("quad-solve", "full"): 0.18427635016792152,
    ("quad-solve", "tiny"): 0.23918554674206077,
    ("quad-simulate", "full"): 0.8154582435369251,
    ("quad-simulate", "tiny"): 0.8210087394110435,
    ("affine-simulate", "full"): 0.9728978183517105,
    ("affine-simulate", "tiny"): 0.9740099004008669,
}
GAMMA0_RTOL = 1e-10

# A Monte Carlo z-score beyond this is a gross break, not sampling noise.
# affine-simulate sits near -3.8 se on Gamma by a known discretization bias.
# Only the mean and Gamma z-scores are gated: the variance's standard error
# comes from the sample fourth moment, which small heavy-tailed samples
# underestimate (var_z reads -10 at 64 paths on correct code).
Z_GROSS = 10.0
Z_GATED = ("mean_z", "gamma_z")

MC_QUANTITIES = ["paths", "seed", "m", "xi_star", "mean_XT", "target_m",
                 "var_XT", "target_V", "gamma0_mc", "gamma0_closed"]


def make_config(workload, seed, size="full"):
    """Config mapping for one workload; written as JSON, which YAML reads."""
    tiny = size == "tiny"
    if workload == "quad-solve":
        # The d n = 600 dense sweep; mc is read only by the library run's
        # validation MC, never by the quadratic-solve command.
        return {
            "grid": {"T": 1.5, "n": 20 if tiny else 300},
            "quadratic": {"preset": "two_asset", "theta": [0.65, 0.30], "stock_corr": 0.7},
            "mc": {"paths": 64 if tiny else 256, "seed": seed},
        }
    if workload == "quad-simulate":
        return {
            "grid": {"T": 0.5, "n": 20 if tiny else 250},
            "quadratic": {"kernel": {"type": "fractional", "h": 0.25}, "theta": 0.7,
                          "eta": 1.0, "corr": -0.5, "drift": -0.3, "g0": 0.3},
            "mc": {"paths": 64 if tiny else 8192, "chunk": 32 if tiny else 4096, "seed": seed},
        }
    if workload == "affine-simulate":
        return {
            "grid": {"T": 1.0, "n": 20 if tiny else 400},
            "affine": {"kernels": [{"type": "fractional", "h": 0.1}], "drift": -1.0,
                       "nu": 0.4, "rho": -0.5, "theta": 0.8, "g0": 0.16, "rate": 0.02},
            "mc": {"paths": 64 if tiny else 8192, "chunk": 32 if tiny else 4096,
                   "seed": seed, "dump_paths": 8 if tiny else 64},
        }
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(COMMANDS)}")


def gamma0_bound(cfg):
    """e^{2 int_0^T r} for the constant rate of the config."""
    model = cfg.get("affine") or cfg.get("quadratic")
    return math.exp(2.0 * float(model.get("rate", 0.0)) * cfg["grid"]["T"])


def expected_csvs(workload, cfg):
    """Map of CSV file name to (header, data row count) the command must write."""
    n = cfg["grid"]["n"]
    if workload == "quad-solve":
        return {
            "riccati.csv": (["t", "phi", "phidot", "p_11", "p_12", "p_21", "p_22"], n + 1),
            "strategy.csv": (["t", "alpha_1", "alpha_2", "pi_1", "pi_2"], n + 1),
        }
    out = {"mc.csv": (["quantity", "value", "se"], len(MC_QUANTITIES))}
    dump = cfg["mc"].get("dump_paths", 0)
    if dump:
        out["paths.csv"] = (["path_id", "t", "X", "alpha_1", "pi_1", "Y_1"], dump * (n + 1))
    return out
