#!/usr/bin/env python3
"""Benchmark of qbrownian: seeded workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

Workloads are `trajectory`, `cli_artifacts` and `oracle` (see the `wl_*.py`
modules for what each runs and why).  Each is a closed loop with one client
in this process, with one BLAS thread.  Task times are CPU time of this
process (see `CLOCK`), reported in reference seconds: scaled by a host-speed
kernel timed before each task (see `hostspeed.py`).  The seed generates the
task stream, which is made of
cycles of blocks, each block a fixed mix of task shapes; the loop runs the
whole first cycle and then stops at the first block boundary after
`--seconds` of task wall time.  Output checks run after each task, outside
the timed region.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the first
cycles of the stream (a fixed task list, so its counts repeat exactly) once
plain and once with spans around every layer, and prints the per-layer
metrics; it also runs, untraced, the edge inputs that fail at the seed
commit, outside `attempted` and `failed`, and counts those that still fail.
The last line of standard output is one JSON object; a results
file with provenance and per-task records goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = {"trajectory": "wl_trajectory", "cli_artifacts": "wl_cli", "oracle": "wl_oracle"}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Task, span and set-up times are CPU seconds of the process doing the work
# (user + system, all threads).  On a shared host the hypervisor gives this
# guest's CPUs to others at times (steal time); wall time then swung by up to
# 1.7x between runs minutes apart, while CPU time leaves that out.  The loop is
# single-threaded with one BLAS thread, so on an idle machine CPU time and wall
# time agree.  Wall time is kept per task in the results file.  CPU time still
# moves with the host's own speed; hostspeed.py scales that out.
CLOCK = time.process_time

# Fresh interpreters started per run to time set-up and `import qbrownian.cli`;
# their median is reported, since process start-up varies from one to the next.
# Set-up probes are spread over the timed run, between tasks, so that they see
# the same drift in machine speed as the tasks do.
SETUP_PROBES = 7
IMPORT_PROBES = 5
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("tasks_per_s", "1/s"),
    ("completed_frac", "ratio"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)


def _layer(span: str, *fields: tuple[str, str]) -> list[tuple[str, str]]:
    return [(f"{span}.{name}", unit) for name, unit in fields]


CALLS, SELF, POINTS = ("calls", "count"), ("self_s", "s"), ("points", "count")
PER_LAYER = (
    _layer("coefficients.coefficient_grid", CALLS, POINTS, SELF)
    + _layer("coefficients.delta_big_gamma", CALLS, SELF)
    + _layer("coefficients.scalar", CALLS, SELF)
    + _layer("coefficients.classify_lindblad", CALLS, SELF)
    + _layer("quadrature.integrate_adaptive", CALLS, SELF, ("evaluations", "count"),
             ("evals_per_call", "count"), ("unconverged", "count"))
    + _layer("gaussian.evolve_trajectory", CALLS, POINTS, SELF)
    + _layer("gaussian.frames", SELF)
    + _layer("gaussian.detect_squeezing_intervals", SELF)
    + _layer("gaussian.oscillation_period", SELF)
    + _layer("gaussian.propagate", CALLS, SELF)
    + _layer("wigner.wigner_gaussian", CALLS, POINTS, SELF)
    + _layer("wigner.wigner_by_convolution", CALLS, SELF, ("kernel_evals", "count"),
             ("row_bytes", "B"))
    + _layer("wigner.grid_moments", SELF)
    + _layer("fock.prepare", SELF)
    + _layer("fock.integrate_me", CALLS, SELF, ("rk4_steps", "count"), ("rhs_evals", "count"),
             ("max_trace_drift", "1"), ("min_eigenvalue", "1"))
    + _layer("fock.fock_to_wigner", CALLS, SELF, ("recurrence_steps", "count"))
    + [("cli.import_s", "s")]
    + _layer("cli.coeffs", SELF) + _layer("cli.moments", SELF)
    + _layer("cli.wigner", SELF) + _layer("cli.classify", SELF)
    + [("cli.bytes_written", "B"), ("cli.files_written", "count"),
       ("cli.write_mb_per_s", "MB/s"), ("cli.exceptions", "count"),
       ("cli.edge_inputs_failed", "count")]
    + _layer("bench.task", SELF)
    + [("trace.tasks", "count"), ("trace.task_p50_s", "s"), ("trace.untraced_task_p50_s", "s"),
       ("trace.overhead_s", "s"), ("trace.task_mean_s", "s"), ("trace.unaccounted_s", "s")]
)
# Values a check reports once per task, and how the traced run combines them.
CHECK_COUNTERS = {
    "fock.integrate_me.min_eigenvalue": min,
    "fock.integrate_me.max_trace_drift": max,
    "cli.bytes_written": sum,
    "cli.files_written": sum,
    "cli.exceptions": sum,
}


def cap_blas_threads() -> int:
    """Set BLAS/OpenMP to one thread (before numpy loads); return the usable CPU count.

    The Fock matrices are at most 60 x 60: a second BLAS thread made `oracle`
    tasks no faster in wall time and spent CPU time spinning, which would
    count in the process CPU time the benchmark measures.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def load_program(module: str = "qbrownian") -> float:
    """Import `module` from the checkout's src/ and return the import CPU time.

    Refuses to run against a qbrownian installed anywhere else.
    """
    if not (SRC / "qbrownian" / "__init__.py").is_file():
        raise SystemExit(f"error: no qbrownian sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = CLOCK()
    importlib.import_module(module)
    seconds = CLOCK() - t0
    origin = Path(sys.modules["qbrownian"].__file__).resolve().parent
    if origin != SRC / "qbrownian":
        raise SystemExit(f"error: imported qbrownian from {origin}, not {SRC}")
    return seconds


def probe(kind: str, workload: str, seed: int) -> None:
    """Body of a fresh probe interpreter.

    An import probe prints the CPU time `import qbrownian.cli` took; a set-up
    probe does what a run does before its first task and prints the CPU time
    the process had used, from its start, when it was ready.
    """
    if kind == "import":
        print(repr(load_program("qbrownian.cli")))
        return
    load_program()
    mod = importlib.import_module(WORKLOADS[workload])
    mod.cycle_tasks(seed, 0)
    wl = mod.Workload(scratch_dir("probe"))
    try:
        wl.warm_up()
    finally:
        wl.close()
    print(repr(CLOCK()))


def run_probes(kind: str, workload: str, seed: int, count: int) -> list[float]:
    """Start `count` fresh probe interpreters one after another; return their times."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(count):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def scratch_dir(tag: str) -> Path:
    return OUT / f"tmp-{tag}-{os.getpid()}"


@dataclass
class Record:
    """One attempted task: CPU and wall time, verdict and what the check measured."""

    task_id: str
    task: dict
    seconds: float
    wall: float
    check: object

    def as_json(self) -> dict:
        return {"id": self.task_id, "seconds": self.seconds, "wall_s": self.wall,
                "ok": self.check.ok,
                "wrong": self.check.wrong, "rel_err": self.check.err,
                "detail": self.check.detail, "task": self.task}


def attempt(wl, task_id: str, task: dict, runner=None) -> Record:
    """Run one task (timed) and check it (untimed); nothing escapes."""
    from common import Check  # common imports qbrownian, found once load_program() ran

    t0, w0 = CLOCK(), time.perf_counter()
    try:
        out = runner(task_id, wl.run, task) if runner else wl.run(task)
    except Exception as exc:
        return Record(task_id, task, CLOCK() - t0, time.perf_counter() - w0,
                      Check(False, None, f"raised {exc!r}"))
    seconds, wall = CLOCK() - t0, time.perf_counter() - w0
    try:
        check = wl.check(task, out)
    except Exception as exc:
        check = Check(False, None, f"check raised {exc!r}: {traceback.format_exc(limit=3)}",
                      wrong=True)
    return Record(task_id, task, seconds, wall, check)


def timed_run(mod, wl, seed: int, seconds: float, max_tasks: int | None,
              probe_setup, speed) -> tuple[list[Record], list[float]]:
    """Attempt whole blocks until `seconds` of task wall time, always the whole first cycle.

    The run's length is counted in wall time, so that it stays bounded when
    the host is slow; the tasks are timed in CPU time.  The host-speed kernel
    is timed before each task.  Between tasks, `probe_setup()` is timed
    SETUP_PROBES times at even steps of task wall time; the probes a short run
    has not reached are made at the end.
    """
    records: list[Record] = []
    setup: list[float] = []
    timed = 0.0
    stream = ((c, i, t) for c in itertools.count() for i, t in enumerate(mod.cycle_tasks(seed, c)))
    for cycle, i, task in stream:
        done = cycle > 0 and timed >= seconds and i % mod.BLOCK_LEN == 0
        if done or max_tasks and len(records) >= max_tasks:
            break
        if len(setup) < SETUP_PROBES and timed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe_setup())
        speed.sample()
        rec = attempt(wl, f"{cycle}.{i}", task)
        records.append(rec)
        timed += rec.wall
    setup += [probe_setup() for _ in range(SETUP_PROBES - len(setup))]
    return records, setup


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def block_rates(records: list[Record], block_len: int) -> list[float]:
    """Passed tasks per CPU second of the block's tasks, for each whole block.

    Every block holds the same mix of task shapes, so the median over blocks
    is steady against a single slow task in the way a mean over the run is
    not.
    """
    blocks = [records[i:i + block_len] for i in range(0, len(records) - block_len + 1, block_len)]
    return [sum(r.check.ok for r in b) / sum(r.seconds for r in b) for b in blocks]


def scale(metrics: dict, spec, factor: float) -> None:
    """Turn CPU seconds (and rates per CPU second) into reference seconds, in place."""
    for name, unit in spec:
        if unit == "s":
            metrics[name] *= factor
        elif unit in ("1/s", "MB/s"):
            metrics[name] /= factor


def end_to_end(records: list[Record], setup: list[float], cycle_len: int,
               block_len: int, speed) -> tuple[dict, dict]:
    from common import digits

    ok = [r.seconds for r in records if r.check.ok]
    if not ok:
        raise RuntimeError("no task completed")
    tail_s, tail_pct = tail(ok)
    rates = block_rates(records, block_len) or [len(ok) / sum(r.seconds for r in records)]
    # Verdicts and accuracy come from the first cycle, the same tasks in every
    # run of a seed, so that they repeat exactly; timings use every task.
    first = records[:cycle_len]
    checked = [r.check.err for r in first if r.check.err is not None]
    metrics = {
        "setup_s": statistics.median(setup),
        "task_p50_s": statistics.median(ok),
        "task_tail_s": tail_s,
        "tasks_per_s": statistics.median(rates),
        "completed_frac": sum(r.check.ok for r in first) / len(first),
        "accuracy_digits": min(digits(e) for e in checked) if checked else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = dict(metrics)
    scale(metrics, END_TO_END, speed.factor())
    extra = {
        "raw_metrics": raw,
        "host_speed": speed.as_json(),
        "failed_frac": 1.0 - metrics["completed_frac"],
        "failed_frac_all_tasks": 1.0 - len(ok) / len(records),
        "task_tail_percentile": tail_pct,
        "timed_samples": len(ok),
        "blocks": len(rates),
        "setup_probes_s": setup,
        "accuracy_tasks": len(checked),
    }
    return metrics, extra


def traced_run(mod, wl, seed: int, max_tasks: int | None, workload: str, speed):
    from tracing import TASK_SPAN, Tracer

    tasks = [(f"{c}.{i}", t) for c in range(mod.TRACE_CYCLES)
             for i, t in enumerate(mod.cycle_tasks(seed, c))][:max_tasks]
    import_s = run_probes("import", workload, seed, IMPORT_PROBES)
    tracer = Tracer()
    plain, traced = [], []
    # Each task runs once plain and once traced, in alternating order, so that
    # drift in machine speed does not read as tracing overhead.
    for j, (tid, task) in enumerate(tasks):
        speed.sample()
        for use_tracer in (j % 2 == 1, j % 2 == 0):
            if not use_tracer:
                plain.append(attempt(wl, tid, task))
                continue
            tracer.install(mod.lib)
            try:
                traced.append(attempt(wl, tid, task, tracer.run_task))
            finally:
                tracer.uninstall()

    n = len(tasks)
    totals, durations = tracer.self_times()
    counts = tracer.counts
    checks = {key: [r.check.counters[key] for r in traced if key in r.check.counters]
              for key in CHECK_COUNTERS}
    metrics: dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        metrics[name] = (totals.get(span, 0.0) / n if field == "self_s"
                         else counts.get(span, {}).get(field, 0))
    for key, combine in CHECK_COUNTERS.items():
        metrics[key] = combine(checks[key]) if checks[key] else 0
    adaptive = counts.get("quadrature.integrate_adaptive", {})
    conv = counts.get("wigner.wigner_by_convolution", {})
    cli_self = sum(totals.get(f"cli.{sub}", 0.0) for sub in ("coeffs", "moments", "wigner",
                                                            "classify"))
    untraced_p50 = statistics.median(r.seconds for r in plain)
    mean = statistics.fmean(durations)
    edges = [attempt(wl, f"edge.{i}", task)
             for i, task in enumerate(getattr(mod, "edge_tasks", lambda seed: [])(seed))]
    metrics.update({
        "quadrature.integrate_adaptive.evals_per_call":
            adaptive.get("evaluations", 0) / adaptive["calls"] if adaptive.get("calls") else 0,
        "wigner.wigner_by_convolution.row_bytes":
            conv.get("row_bytes", 0) / conv["calls"] if conv.get("calls") else 0,
        "cli.import_s": statistics.median(import_s),
        "cli.write_mb_per_s": metrics["cli.bytes_written"] / 1e6 / cli_self if cli_self else 0,
        "trace.tasks": n,
        "trace.task_p50_s": statistics.median(durations),
        "trace.untraced_task_p50_s": untraced_p50,
        "trace.overhead_s": statistics.median(durations) - untraced_p50,
        "trace.task_mean_s": mean,
        "trace.unaccounted_s": mean - sum(totals.values()) / n,
        "cli.edge_inputs_failed": sum(not r.check.ok for r in edges),
    })
    raw = dict(metrics)
    scale(metrics, PER_LAYER, speed.factor())
    spans_path = OUT / "results" / f"{workload}-seed{seed}-spans.csv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    extra = {
        "raw_metrics": raw,
        "host_speed": speed.as_json(),
        "import_probes_s": import_s,
        "records_plain": [r.as_json() for r in plain],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "task_span": TASK_SPAN,
        "edge_probe": [r.as_json() for r in edges],
    }
    return metrics, extra, traced


def provenance(nproc: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    import numpy

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="task wall-time seconds per run (ignored by --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="stop after this many tasks (smoke tests)")
    parser.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    if args.probe:
        probe(args.probe, args.workload, args.seed)
        return 0
    load_program()

    from hostspeed import HostSpeed

    mod = importlib.import_module(WORKLOADS[args.workload])
    wl = mod.Workload(scratch_dir("run"))
    speed = HostSpeed()
    try:
        wl.warm_up()
        if args.trace:
            metrics, extra, records = traced_run(mod, wl, args.seed, args.max_tasks, args.workload,
                                                 speed)
            spec = PER_LAYER
        else:
            records, setup = timed_run(
                mod, wl, args.seed, args.seconds, args.max_tasks,
                lambda: run_probes("setup", args.workload, args.seed, 1)[0], speed)
            rerun = wl.rerun_check()
            if rerun is not None and not rerun.ok:
                records[0].check = rerun
            metrics, extra = end_to_end(records, setup, mod.CYCLE_LEN, mod.BLOCK_LEN, speed)
            extra["rerun_check"] = None if rerun is None else rerun.detail
            spec = END_TO_END
    finally:
        wl.close()

    failures = [r.as_json() for r in records if not r.check.ok]
    result = {
        "correct": not any(r.check.wrong for r in records),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tasks": len(records),
        **extra,
        "provenance": provenance(nproc),
        "metrics": result["metrics"],
        "failures": failures,
        "records": [r.as_json() for r in records],
    }
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    for name, unit in spec:
        print(f"{name:48s} {metrics[name]!r} {unit}")
    for f in failures:
        print(f"failed task {f['id']}: {f['detail']}")
    for e in extra.get("edge_probe", []):
        print(f"edge input {e['task']['edge']} (untraced, not counted): "
              f"{'passed' if e['ok'] else 'failed'}: {e['detail']}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
