#!/usr/bin/env python3
"""modehb benchmark: drive the real `modehb` CLI on one named workload.

    python3 perfbench/run.py --workload zdt1_ref --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  `--trace 0` measures the end-to-end metrics through the CLI with
tracing off.  `--trace 1` runs the same experiment in process, once plain
and once with every public modehb function wrapped in a span, and reports
the per-layer metrics.  `--trace all` does both.  Metric names and units
come from BENCHMARK.json at the repository root.

Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The exit code
is 0 when every operation and output check passed, 1 when one failed and 2
when the checkout holds no modehb source to measure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from outputs import (
    check_report,
    check_run,
    check_same_runs,
    hv_gaps,
    read_archive,
    run_files,
    witness,
)
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI = "import sys; from modehb.cli import main; sys.exit(main())"
# Set-up is timed as the median of this many fresh interpreters.
SETUP_REPEATS = 3
# `report` is short (1.6 s on zdt2_deep, mostly interpreter set-up) and
# the host's speed swings by +-15%, so each pass samples it this often.
REPORT_REPEATS = 3
IMPORT_PROBE_REPEATS = 3


class Ops:
    """Attempted and failed operations; an operation fails on a non-zero
    exit, an exception or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {name}: {p}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path):
    """Run a child to completion.

    Returns (wall seconds, exit code, peak RSS in MB, captured stdout).
    """
    with log.open("wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=err
        )
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout


def exit_problems(rc: int, log: Path) -> list[str]:
    if rc == 0:
        return []
    tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
    return [f"exit code {rc}: {' | '.join(tail)}"]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_config(wl: Workload, offset: int, path: Path, out: Path) -> str:
    path.write_text(json.dumps(wl.config(offset, str(out)), indent=2), encoding="utf-8")
    return str(path)


def make_benchmark(wl: Workload):
    from modehb import bench
    from modehb.scheduler import build_ladder

    ladder = build_ladder(wl.ladder["b_min"], wl.ladder["b_max"], wl.ladder["eta"])
    params = {k: v for k, v in wl.benchmark.items() if k != "name"}
    return bench.make_benchmark(wl.benchmark["name"], ladder, **params)


def time_setup(work: Path, ops: Ops) -> list[float]:
    """Fresh interpreter until modehb.cli is imported, several times."""
    argv = [sys.executable, "-c", "import modehb.cli"]
    spawn(argv, work / "setup.log")  # compiles bytecode once, untimed
    samples = []
    for _ in range(SETUP_REPEATS):
        wall, rc, _, _ = spawn(argv, work / "setup.log")
        ops.record("setup", exit_problems(rc, work / "setup.log"))
        samples.append(wall)
    return samples


# ---------------------------------------------------------------- end to end


def measure_end_to_end(wl: Workload, offset: int, seconds: float, ops: Ops, info: dict) -> dict:
    """Repeat passes of run, run --workers 2 and report until `seconds`
    have passed since set-up began; every pass finishes."""
    work = fresh_dir(OUT / wl.name)
    seeds = wl.seeds(offset)
    w1, w2 = work / "w1", work / "w2"
    cfg1 = write_config(wl, offset, work / "w1.json", w1)
    cfg2 = write_config(wl, offset, work / "w2.json", w2)
    true_hv = make_benchmark(wl).true_hv

    start = perf_counter()
    samples: dict[str, list[float]] = defaultdict(list)
    samples["setup_s"] = time_setup(work, ops)
    witnesses, gap_sets = set(), set()
    while not samples["run_s"] or perf_counter() - start < seconds:
        for path in (w1, w2):
            shutil.rmtree(path, ignore_errors=True)
        log = work / "cli.log"
        wall, rc, rss, _ = spawn([sys.executable, "-c", CLI, "run", cfg1, "--workers", "1"], log)
        samples["run_s"].append(wall)
        samples["run_peak_rss_mb"].append(rss)
        gaps, gap_problems = hv_gaps(w1, wl, seeds, true_hv)
        ops.record("run", exit_problems(rc, log) + check_run(w1, wl, seeds) + gap_problems)

        wall, rc, _, _ = spawn([sys.executable, "-c", CLI, "run", cfg2, "--workers", "2"], log)
        samples["run_w2_s"].append(wall)
        ops.record("run --workers 2", exit_problems(rc, log) + check_same_runs(w1, w2, wl, seeds))

        for _ in range(REPORT_REPEATS):
            wall, rc, _, _ = spawn([sys.executable, "-c", CLI, "report", str(w1)], log)
            samples["report_s"].append(wall)
            ops.record("report", exit_problems(rc, log) + check_report(w1, wl, seeds))

        witnesses.add(witness(w1, wl, seeds))
        gap_sets.add(tuple(sorted(gaps.items())))
    if len(witnesses) > 1 or len(gap_sets) > 1:
        ops.record("determinism", ["archives or hv_gap changed between repeats"])

    info["samples"] = {k: [round(v, 6) for v in vals] for k, vals in samples.items()}
    info["archive_sha256"] = " ".join(sorted(witnesses))
    info["hv_gap"] = dict(min(gap_sets))
    return {k: statistics.median(v) for k, v in samples.items()}


# ------------------------------------------------------------------ traced


def timed_op(ops: Ops, name: str, fn, *args):
    """Call a CLI entry point in process; returns wall seconds."""
    start = perf_counter()
    try:
        rc = fn(*args)
        problems = [] if rc == 0 else [f"returned {rc}"]
    except Exception:  # the benchmark must keep going and report the failure
        problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    wall = perf_counter() - start
    ops.record(name, problems)
    return wall


def import_probe(code: str, work: Path, ops: Ops, name: str) -> float:
    """Median seconds a fresh interpreter reports for the timed import."""
    samples = []
    for _ in range(IMPORT_PROBE_REPEATS):
        _, rc, _, stdout = spawn([sys.executable, "-c", code], work / "probe.log")
        problems = exit_problems(rc, work / "probe.log")
        if not problems:
            try:
                samples.append(float(stdout))
            except ValueError:
                problems = [f"unexpected output {stdout[:80]!r}"]
        ops.record(name, problems)
    return statistics.median(samples) if samples else 0.0


def archive_counts(run_dir: Path, wl: Workload, seeds: list[int]) -> dict:
    """Budget spread and duplicate evaluations of the MO-DEHB runs."""
    from modehb.space import decode

    benchmark = make_benchmark(wl)
    levels = benchmark.ladder.levels
    at_level: Counter = Counter()
    total = duplicates = 0
    for opt, _, archive, _ in run_files(wl, seeds):
        if not opt.startswith("modehb_"):
            continue
        rows = read_archive(run_dir / archive)
        geno = [i for i, col in enumerate(rows[0]) if col.startswith("genotype_")]
        seen = set()
        for row in rows[1:]:
            fidelity = float(row[1])
            at_level[levels.index(fidelity)] += 1
            config = decode(benchmark.space, [float(row[i]) for i in geno])
            key = (tuple(config.items()), fidelity)
            duplicates += key in seen
            seen.add(key)
            total += 1
    counts = {f"scheduler.evals_at_level.{i}": at_level[i] for i in range(5)}
    counts["optimizer.evals_bmax_share"] = at_level[len(levels) - 1] / total
    counts["optimizer.duplicate_eval_frac"] = duplicates / total
    return counts


def measure_layers(wl: Workload, offset: int, ops: Ops, info: dict) -> dict:
    import kernels
    import tracing
    from modehb import cli, pareto

    work = fresh_dir(OUT / f"{wl.name}_trace")
    seeds = wl.seeds(offset)
    plain, traced = work / "plain", work / "traced"
    cfg_plain = write_config(wl, offset, work / "plain.json", plain)
    cfg_traced = write_config(wl, offset, work / "traced.json", traced)

    run_plain = timed_op(ops, "plain run", cli.cmd_run, cfg_plain, 1)
    report_plain = timed_op(ops, "plain report", cli.cmd_report, str(plain))
    with tracing.Tracer() as tracer:
        run_traced = timed_op(ops, "traced run", cli.cmd_run, cfg_traced, 1)
        report_traced = timed_op(ops, "traced report", cli.cmd_report, str(traced))
    tracer.write_spans(work / "spans.csv")
    summary = tracing.summarize(tracer.spans)

    gaps, gap_problems = hv_gaps(traced, wl, seeds, make_benchmark(wl).true_hv)
    idle = [
        site
        for site in tracing.ALL_SITES
        if site not in wl.idle_sites and not summary.site_calls[site]
    ]
    ops.record(
        "traced outputs",
        check_run(traced, wl, seeds)
        + check_same_runs(plain, traced, wl, seeds)
        + check_report(traced, wl, seeds)
        + gap_problems
        + [f"wrapped {site} never fired" for site in idle],
    )

    m: dict[str, float] = {}
    for name in sorted(summary.calls):
        m[f"{name}.calls"] = summary.calls[name]
        m[f"{name}.s"] = summary.seconds[name]
    for *_, name in tracing.SITES:  # a name that never fired reads 0
        m.setdefault(f"{name}.calls", 0)
        m.setdefault(f"{name}.s", 0.0)
    nds_calls = summary.calls["pareto.non_dominated_sort"]
    m["pareto.non_dominated_sort.points_mean"] = tracer.nds_points / max(nds_calls, 1)
    m.update({f"de.selection.{k}": v for k, v in tracer.selection.items()})
    m["cli.write_archive_csv.bytes"] = tracer.archive_bytes
    m["cli.run.post_s"] = summary.root_s["run"] - (
        summary.seconds["optimizer.run"] + summary.seconds["optimizer.run_random_search"]
    )
    n_eval, eval_s = summary.evaluate_in_run
    m["optimizer.overhead_ms_per_eval"] = (
        (summary.seconds["optimizer.run"] - eval_s) / max(n_eval, 1) * 1e3
    )
    for phase, wall, prefix in (("run", run_traced, ""), ("report", report_traced, "report_")):
        attributed = 0.0
        for layer in tracing.LAYERS:
            m[f"{layer}.{prefix}self_s"] = summary.self_s[(phase, layer)]
            attributed += summary.self_s[(phase, layer)]
        m[f"trace.{prefix}unattributed_s"] = wall - attributed
    m["trace.run_s"] = run_traced
    m["trace.report_s"] = report_traced
    m["trace.overhead_run_s"] = run_traced - run_plain
    m["trace.overhead_report_s"] = report_traced - report_plain
    m["trace.spans"] = len(tracer.spans)
    span_cost = tracing.span_cost_s()
    m["trace.span_cost_us"] = span_cost * 1e6
    m["trace.overhead_est_s"] = span_cost * len(tracer.spans)
    m.update(archive_counts(traced, wl, seeds))
    m.update({f"hv_gap.{opt}": gap for opt, gap in gaps.items()})

    oracles = load_oracles()
    timings, problems = kernels.run_kernels(offset, pareto, oracles)
    for name in timings:
        ops.record(name, problems[name])
    m.update(timings)

    m["setup.import_numpy_jsonschema_s"] = import_probe(
        "import time; t = time.perf_counter(); import numpy, jsonschema; "
        "print(time.perf_counter() - t)",
        work, ops, "import numpy+jsonschema",
    )
    m["setup.import_scipy_s"] = import_probe(
        "import time, numpy, jsonschema; t = time.perf_counter(); import scipy.stats; "
        "print(time.perf_counter() - t)",
        work, ops, "import scipy.stats",
    )
    m["setup.import_modehb_cli_s"] = import_probe(
        "import time; t = time.perf_counter(); import modehb.cli; "
        "print(time.perf_counter() - t)",
        work, ops, "import modehb.cli",
    )
    digest = witness(traced, wl, seeds)
    if info.setdefault("archive_sha256", digest) != digest:
        ops.record("traced archives", ["differ from the CLI run's archives"])
    info["hv_gap"] = gaps
    info["spans_file"] = str((work / "spans.csv").relative_to(ROOT))
    return m


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -------------------------------------------------------------------- main


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed offset (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1", "all"), default="0")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "modehb" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no modehb source under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import modehb

    if Path(modehb.__file__).resolve().parent != SRC / "modehb":
        print(f"error: imported modehb from {modehb.__file__}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    ops = Ops()
    info: dict = {
        "workload": wl.name,
        "seeds": wl.seeds(args.seed),
        "machine": machine_info(),
    }
    values: dict[str, float] = {}
    wanted: list[dict] = []
    modes = []
    if args.trace in ("0", "all"):
        modes.append((spec["end_to_end"], measure_end_to_end, (args.seconds,)))
    if args.trace in ("1", "all"):
        modes.append((spec["per_layer"], measure_layers, ()))
    for metric_specs, measure, extra in modes:
        wanted += metric_specs
        try:
            values.update(measure(wl, args.seed, *extra, ops, info))
        except Exception:  # report the failure in the result line
            traceback.print_exc()
            ops.record(measure.__name__, ["raised; see the traceback on stderr"])

    missing = [m["name"] for m in wanted if m["name"] not in values | {"failed_frac": 0}]
    if missing:
        ops.record("metrics", [f"not measured: {', '.join(missing)}"])
    values["failed_frac"] = ops.failed / max(ops.attempted, 1)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        print(f"{wl.name:14s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print("details " + json.dumps(info, sort_keys=True))
    correct = ops.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
