#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise its run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads trajectory,oracle]
        [--trace-seed 1] [--compare old.json] [--out summary.json]

For each workload it runs the command in BENCHMARK.json once per seed, one run
at a time, and reports each end-to-end metric's median, quartiles (as
`statistics.quantiles(values, n=4)` gives them) and spread, the quartile
distance as a share of the median, against the metric's bound.  With
`--trace-seed` it also makes the traced run twice on that seed and checks
that every per-layer count repeats exactly.  With `--compare` it checks that
no median is worse than the earlier summary's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer values that are timings or rates, so not expected to repeat exactly.
TIMED_UNITS = {"s", "MB/s"}


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run, and the results file it wrote."""
    argv = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = ROOT / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            json.loads(report.read_text(encoding="utf-8")))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float], bound: float, better: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "better": better, "within_bound": spread <= bound,
            "within_third": spread < bound / 3}


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative if better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    summary: dict = {"seeds": seeds, "run_seconds": BENCH["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, report = run_once(workload, seed, 0)
            failures = [{"id": f["id"], "edge": f["task"].get("edge"), "detail": f["detail"]}
                        for f in report["failures"]]
            runs.append({"seed": seed, **result, "failures": failures,
                         "tail_percentile": report["task_tail_percentile"]})
            summary.setdefault("provenance", report["provenance"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        entry = {"runs": runs, "metrics": {}}
        for m in BENCH["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            entry["metrics"][m["name"]] = summarise(values, m["bound"], m["better"])
        if args.trace_seed is not None:
            (first, report), (second, _) = (run_once(workload, args.trace_seed, 1)
                                            for _ in range(2))
            units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
            differ = [name for name, unit in units.items() if unit not in TIMED_UNITS
                      and first["metrics"][name]["value"] != second["metrics"][name]["value"]]
            entry["traced"] = {"seed": args.trace_seed, "counts_repeat_exactly": not differ,
                               "differing": differ,
                               "edge_probe": [{"edge": e["task"]["edge"], "ok": e["ok"],
                                               "detail": e["detail"]}
                                              for e in report["edge_probe"]],
                               "metrics": {k: v["value"] for k, v in first["metrics"].items()},
                               "second_run": {k: v["value"] for k, v in second["metrics"].items()}}
        summary["workloads"][workload] = entry

    ok = True
    old = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None
    for workload, entry in summary["workloads"].items():
        for name, s in entry["metrics"].items():
            line = (f"{workload:14s} {name:16s} median {s['median']:<12.6g} "
                    f"spread {s['spread']:.4f} / bound {s['bound']}")
            # setup_s is held to its bound on the median only, not on the spread.
            if name != "setup_s" and not s["within_bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif name != "setup_s" and not s["within_third"]:
                line += "  (over a third of the bound)"
            if old is not None:
                prev = old["workloads"].get(workload, {}).get("metrics", {}).get(name)
                if prev is not None:
                    w = worse_by(s["median"], prev["median"], s["better"])
                    line += f"  vs earlier median {prev['median']:.6g}: {w:+.4f}"
                    if w > s["bound"]:
                        ok = False
                        line += "  WORSE THAN BOUND"
            print(line)
        traced = entry.get("traced")
        if traced is not None:
            print(f"{workload:14s} traced counts repeat exactly: {traced['counts_repeat_exactly']}"
                  f" {traced['differing'] or ''}")
            ok = ok and traced["counts_repeat_exactly"]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
