"""The benchmark's own checks, run at tiny sizes (n = 20, 64 paths).

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import run
import workloads as wl
from spans import self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.COMMANDS))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.COMMANDS)


def test_tampered_gamma0_pin_is_a_failure():
    pin = wl.GAMMA0_PINS[("quad-simulate", "tiny")] * (1.0 + 1e-9)
    bench = run.Run(ROOT, "quad-simulate", 0, 0, size="tiny", pin=pin)
    assert not bench.cli_op().ok
    assert not bench.lib_op().ok
    assert bench.attempted == 2 and len(bench.failures) == 2
    assert all("differs from the pin" in f for f in bench.failures)


@pytest.mark.parametrize("workload", sorted(wl.COMMANDS))
def test_traced_mc_matches_run_mc(workload):
    bench = run.Run(ROOT, workload, 0, 1, size="tiny")
    op = bench.lib_op()
    assert op.ok, bench.failures
    assert op.data["mc_match"] is True
    names = {s["name"] for s in op.data["spans"]}
    assert {"montecarlo.simulate_drivers", "montecarlo.simulate_wealth",
            "montecarlo.gamma_factors", "montecarlo.mc_stats"} <= names


def test_seeds_change_the_draws_but_not_gamma0():
    data = []
    for seed in (0, 1):
        op = run.Run(ROOT, "affine-simulate", seed, 1, size="tiny").lib_op()
        assert op.ok
        data.append(op.data)
    assert data[0]["terminal_sha256"] != data[1]["terminal_sha256"]
    assert data[0]["gamma0"] == data[1]["gamma0"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 0, "start": 5.0, "end": 6.0},
        {"id": 3, "name": "d", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
