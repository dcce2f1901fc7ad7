"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke_check.py        # or: python3 -m pytest perfbench/smoke_check.py

Checks that task generation is deterministic per seed with a fixed mix per
block and per cycle, that the edge inputs that fail at the seed commit stay out
of the timed stream, that BENCHMARK.json keeps to its format, that the one command prints
every metric it names with its unit, that a tiny run of each workload passes
its checks, that per-layer counts repeat exactly across two traced runs, and
that the command fails without printing a result where there are no sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import wl_cli  # noqa: E402
import wl_oracle  # noqa: E402
import wl_trajectory  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MODULES = {"trajectory": wl_trajectory, "cli_artifacts": wl_cli, "oracle": wl_oracle}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 1


def run(workload: str, trace: int, seed: int = SEED, max_tasks: int = 2, cwd: Path = ROOT):
    argv = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--max-tasks", str(max_tasks)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_task_generation_is_deterministic_with_a_fixed_mix():
    for mod in MODULES.values():
        for seed in (1, 2):
            for cycle in (0, 1):
                tasks = mod.cycle_tasks(seed, cycle)
                assert tasks == mod.cycle_tasks(seed, cycle)
                assert len(tasks) == mod.CYCLE_LEN
        assert mod.cycle_tasks(1, 0) != mod.cycle_tasks(2, 0)
        assert mod.cycle_tasks(1, 0) != mod.cycle_tasks(1, 1)
    for seed in (1, 2, 3):
        traj = wl_trajectory.cycle_tasks(seed, 0)
        assert sorted((t["r"], t["tau_max"]) for t in traj) == sorted(
            (r, tau) for r in wl_trajectory.R_VALUES for tau in wl_trajectory.TAU_MAX_VALUES)
        for block in _blocks(wl_trajectory, traj):
            assert sorted(t["tau_max"] for t in block) == list(wl_trajectory.TAU_MAX_VALUES)
        cli = wl_cli.cycle_tasks(seed, 0)
        for block in _blocks(wl_cli, cli):
            assert sorted((t["format"], t["grid"]) for t in block) == sorted(
                (f, n) for f in wl_cli.FORMATS for n in wl_cli.GRID_EDGES)
        assert sorted(t["edge"] for t in cli if t["edge"]) == sorted(wl_cli.EDGE_KINDS)
        oracle = wl_oracle.cycle_tasks(seed, 0)
        assert sorted((t["state"], t["dim"]) for t in oracle) == sorted(
            (k, d) for k in wl_oracle.KINDS for d in wl_oracle.DIMS)
        for block in _blocks(wl_oracle, oracle):
            assert sorted(t["dim"] for t in block) == list(wl_oracle.DIMS)
        assert all(61 <= t["edge"] <= 81 for t in oracle)


def _blocks(mod, tasks: list[dict]) -> list[list[dict]]:
    assert len(tasks) % mod.BLOCK_LEN == 0
    return [tasks[i:i + mod.BLOCK_LEN] for i in range(0, len(tasks), mod.BLOCK_LEN)]


def test_failing_edge_inputs_stay_out_of_the_timed_stream():
    assert not set(wl_cli.EDGE_KINDS) & set(wl_cli.PROBED_EDGES)
    for seed in (1, 2):
        probe = wl_cli.edge_tasks(seed)
        assert probe == wl_cli.edge_tasks(seed)
        assert [t["edge"] for t in probe] == list(wl_cli.PROBED_EDGES)
        for cycle in (0, 1):
            assert not any(t["edge"] in wl_cli.PROBED_EDGES for t in wl_cli.cycle_tasks(seed, cycle))


def test_benchmark_json_keeps_its_format():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert BENCH["paths"] == ["perfbench"] and (ROOT / "perfbench").is_dir()
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    names = [w["name"] for w in BENCH["workloads"]]
    assert 2 <= len(names) and set(names) <= set(MODULES)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)


def test_each_workload_prints_every_metric_and_passes_its_checks():
    for workload in MODULES:
        timed = last_json(run(workload, 0))
        _assert_metrics(timed, BENCH["end_to_end"])
        assert timed["failed"] == 0
        for m in BENCH["end_to_end"]:
            assert timed["metrics"][m["name"]]["value"] != 0, m["name"]


def test_traced_counts_repeat_exactly():
    timed_units = {"s", "MB/s"}
    for workload in MODULES:
        procs = [run(workload, 1) for _ in range(2)]
        first, second = (last_json(p) for p in procs)
        _assert_metrics(first, BENCH["per_layer"])
        probed = len(wl_cli.PROBED_EDGES) if workload == "cli_artifacts" else 0
        assert procs[0].stdout.count("edge input ") == probed
        for m in BENCH["per_layer"]:
            if m["unit"] not in timed_units:
                a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
                assert a == b, (workload, m["name"], a, b)


def test_fails_without_the_program_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("trajectory", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip().endswith("}")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}", flush=True)
