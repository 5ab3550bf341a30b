"""Command-line interface: run experiments, report metrics, query oracles.

Exit codes: 0 success, 2 usage/configuration errors (nothing written),
3 runtime evaluation failure (nothing written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import bench, metrics, optimizer
from .errors import EmptyPopulationError, EvaluationError, MetricsError, ModehbError
from .de import DEParams
from .scheduler import build_ladder
from .optimizer import StoppingCriteria, tae_budget

OPTIMIZER_NAMES = ("modehb_nsga2", "modehb_epsnet", "random_search")

TIME_GRID_POINTS = 100

FLOAT_FMT = "%.17g"

# JSON type names by the Python type json.loads gives (a bool has none).
_JSON_TYPES = {type(None): "null", str: "string", list: "array", dict: "object"}
_POSITIVE = ("number", 0, math.inf)

# The config's rules, read by _check.  A (JSON types, low, high) tuple: "|"
# joins types, a number lies in (low, high], so an integer's low is one less
# than its least value.  A set: allowed strings.  [rule]: a non-empty array
# of distinct items.  {key: rule}: an object; "?" marks an optional key, and
# a "..." key admits unlisted ones.
CONFIG_RULES = {
    "benchmark": {"name": ("string",), "...": None},
    "optimizers": [
        {
            "name": frozenset(OPTIMIZER_NAMES),
            "scaling_factor?": ("number", 0, 2),
            "crossover_prob?": ("number", 0, 1),
        }
    ],
    "ladder": {"b_min": _POSITIVE, "b_max": _POSITIVE, "eta": ("integer", 1, math.inf)},
    "seeds": [("integer", -1, math.inf)],
    "stop?": {
        "max_tae?": ("integer|null", 0, math.inf),
        "max_wallclock?": ("number|null", 0, math.inf),
    },
    "output_dir": ("string",),
}


class _UsageError(Exception):
    """Configuration or request problem; maps to exit code 2."""


def _is(value, kind: str) -> bool:
    """JSON Schema's type test: a bool is not a number, 2.0 is an integer, and
    NaN and Infinity, which ``json.loads`` reads (1e999 too), are not numbers."""
    if type(value) in (int, float) and kind in ("number", "integer"):
        finite = abs(value) < math.inf  # exact for ints of any size
        return finite and (kind == "number" or type(value) is int or value.is_integer())
    return _JSON_TYPES.get(type(value)) == kind


def _check(value, rule, where: str):
    """Raise _UsageError where ``value``, found at ``where``, breaks ``rule``."""
    kinds = rule[0] if isinstance(rule, tuple) else _JSON_TYPES.get(type(rule), "string")
    if not any(_is(value, kind) for kind in kinds.split("|")):
        raise _UsageError(f"{where}: {value!r} is not of type {kinds!r}")
    if isinstance(rule, dict):
        fields = {key.rstrip("?"): sub for key, sub in rule.items()}
        for key in rule:
            if key[-1] not in "?." and key not in value:
                raise _UsageError(f"{where}: {key!r} is a required property")
        for key, item in value.items():
            if fields.get(key) is not None:
                _check(item, fields[key], f"{where}.{key}")
            elif "..." not in rule:
                raise _UsageError(f"{where}: {key!r} is not an allowed property")
    elif isinstance(rule, list):
        for i, item in enumerate(value):
            _check(item, rule[0], f"{where}[{i}]")
        if not value or any(a == b for i, a in enumerate(value) for b in value[:i]):
            raise _UsageError(f"{where}: {value!r} is empty or holds duplicates")
    elif isinstance(rule, tuple):
        if rule[1:] and value is not None and (value <= rule[1] or value > rule[2]):
            raise _UsageError(f"{where}: {value!r} is not in ({rule[1]}, {rule[2]}]")
    elif value not in rule:
        raise _UsageError(f"{where}: {value!r} is not one of {sorted(rule)}")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"{path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    _check(config, CONFIG_RULES, f"{path}: $")
    names = [o["name"] for o in config["optimizers"]]
    if len(set(names)) != len(names):
        raise _UsageError(f"{path}: $.optimizers: duplicate optimizer names")
    # The rules accept 1.0 as an integer; seeds name files and seed RNGs.
    config["seeds"] = [int(seed) for seed in config["seeds"]]
    return config


def _resolve(config: dict):
    """Materialize ladder, benchmark and stopping criteria from a config."""
    ladder_cfg = config["ladder"]
    try:
        ladder = build_ladder(ladder_cfg["b_min"], ladder_cfg["b_max"], ladder_cfg["eta"])
        params = {k: v for k, v in config["benchmark"].items() if k != "name"}
        benchmark = bench.make_benchmark(config["benchmark"]["name"], ladder, **params)
    except ModehbError as exc:
        raise _UsageError(str(exc)) from exc
    stop_cfg = config.get("stop", {})
    max_tae, max_wallclock = stop_cfg.get("max_tae"), stop_cfg.get("max_wallclock")
    if max_tae is None and max_wallclock is None:
        max_tae = tae_budget(len(benchmark.space))
    stop = StoppingCriteria(max_tae=max_tae, max_wallclock=max_wallclock)
    resolved = dict(config)
    resolved["stop"] = {
        "max_tae": stop.max_tae,
        "max_wallclock": stop.max_wallclock,
    }
    return ladder, benchmark, stop, resolved


def _execute_run(config: dict, opt_entry: dict, seed: int) -> metrics.RunTrajectory:
    """Execute one (optimizer, seed) pair; safe to call in a worker process."""
    ladder, benchmark, stop, _ = _resolve(config)
    name = opt_entry["name"]
    if name == "random_search":
        return optimizer.run_random_search(
            benchmark.space,
            ladder,
            benchmark.evaluate,
            stop,
            seed,
            benchmark_name=benchmark.name,
        )
    de_params = DEParams(
        scaling_factor=opt_entry.get("scaling_factor", 0.5),
        crossover_prob=opt_entry.get("crossover_prob", 0.5),
    )
    return optimizer.run(
        benchmark.space,
        ladder,
        name.removeprefix("modehb_"),
        benchmark.evaluate,
        stop,
        seed,
        objective_bounds=benchmark.objective_bounds,
        de_params=de_params,
        benchmark_name=benchmark.name,
    )


def _write_csv(path: Path, header: list[str], table):
    """CSV of a header and rows of floats, each value in FLOAT_FMT, which
    reads back bit for bit.  No field needs quoting, so each row is one
    ``%`` format; the bytes are those of ``csv.writer`` (CRLF line ends)."""
    row_fmt = ",".join([FLOAT_FMT] * len(header)) + "\r\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_fmt % tuple(row) for row in table)


def _archive_header(d: int) -> list[str]:
    head = ["seq", "fidelity", "cost_seconds", "cumulative_cost"]
    return head + ["objective_1", "objective_2"] + [f"genotype_{i + 1}" for i in range(d)]


def write_archive_csv(path: Path, run: metrics.RunTrajectory):
    """Archive CSV: one row per evaluation, seq first, then fidelity,
    cost, cumulative cost, the two objectives and the genotype."""
    seq = np.arange(1, len(run.cost) + 1)
    table = np.column_stack(
        [seq, run.fidelity, run.cost, np.cumsum(run.cost), run.objectives, run.genotypes]
    )
    _write_csv(path, _archive_header(run.genotypes.shape[1]), table.tolist())


def read_archive_csv(path: Path, metadata: metrics.RunMetadata) -> metrics.RunTrajectory:
    """Inverse of write_archive_csv.  ``run`` writes no archive without rows
    or with a header other than ``_archive_header(d)``, a row (blank or not)
    whose field count differs from the header's, a non-finite value or a seq
    column other than 1..n; each raises ValueError."""
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    d, rows = header.count(",") - 5, body.splitlines()
    if header.split(",") != _archive_header(d):
        raise ValueError(f"the header is not {','.join(_archive_header(1))},...")
    if not rows:
        raise ValueError("no evaluation rows")
    # Checked before loadtxt, whose message counts data rows, not file lines.
    for line, row in enumerate(rows, 2):
        if row.count(",") != 5 + d:
            raise ValueError(f"line {line}: {row.count(',') + 1} fields, the header has {6 + d}")
    table = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    if not np.isfinite(table).all():
        raise ValueError("non-finite value")
    if not np.array_equal(table[:, 0], np.arange(1, len(table) + 1)):
        raise ValueError("the seq column is not 1, 2, ..., n")
    columns = table[:, 1], table[:, 2], table[:, 4:6], table[:, 6:]
    return metrics.RunTrajectory(*columns, metadata=metadata)


def _run_filenames(opt_name: str, seed: int) -> tuple[str, str]:
    return f"{opt_name}_seed{seed}_archive.csv", f"{opt_name}_seed{seed}_metrics.json"


def cmd_run(config_path: str, workers: int = 1) -> int:
    if workers < 1:
        raise _UsageError(f"--workers: {workers} is below 1")
    config = _load_config(config_path)
    ladder, benchmark, stop, resolved = _resolve(config)
    # Checked before any run, so a path that mkdir would refuse wastes none.
    out_dir = Path(config["output_dir"])
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise _UsageError(f"{config_path}: $.output_dir: {existing} is not a directory")
    jobs = [
        (opt_entry, seed)
        for opt_entry in config["optimizers"]
        for seed in config["seeds"]
    ]
    # A pool forks all of its workers up front, so it gets no more than jobs.
    workers = min(workers, len(jobs))
    try:
        if workers > 1:
            # Imported here: it adds ~16 ms to every command that needs no pool.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_execute_run, repeat(config), *zip(*jobs)))
        else:
            results = [_execute_run(config, o, s) for o, s in jobs]
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    bounds = benchmark.objective_bounds
    try:
        best = metrics.empirical_best_hv(results, bounds)
    except EmptyPopulationError as exc:
        raise _UsageError(f"{config_path}: {exc}; raise stop.max_tae") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {
        "config": resolved,
        "empirical_best_hv": best,
        "optimizers": {},
        "runs": [],
    }
    per_seed = {o["name"]: {} for o in config["optimizers"]}
    for (opt_entry, seed), run in zip(jobs, results):
        name = opt_entry["name"]
        archive_name, metrics_name = _run_filenames(name, seed)
        write_archive_csv(out_dir / archive_name, run)
        final_hv = metrics.final_hv(run, bounds)
        diff = metrics.log_hv_diff(final_hv, best)
        run_info = {
            "optimizer": name,
            "seed": seed,
            "benchmark": benchmark.name,
            "ladder": dict(config["ladder"]),
            "stop_cause": run.metadata.stop_cause,
            "tae": len(run.cost),
            "cumulative_cost": float(np.cumsum(run.cost)[-1]),
            "final_hv": final_hv,
            "final_log_hv_diff": diff,
        }
        (out_dir / metrics_name).write_text(
            json.dumps(run_info, indent=2) + "\n", encoding="utf-8"
        )
        per_seed[name][str(seed)] = {"final_hv": final_hv, "log_hv_diff": diff}
        summary["runs"].append(
            {
                "optimizer": name,
                "seed": seed,
                "archive": archive_name,
                "metrics": metrics_name,
            }
        )
    for name, opt_seeds in per_seed.items():
        diffs = [v["log_hv_diff"] for v in opt_seeds.values()]
        summary["optimizers"][name] = {
            "log_hv_diff_mean": float(np.mean(diffs)),
            "log_hv_diff_std": float(np.std(diffs)),
            "per_seed": opt_seeds,
        }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


def _load_runs(out_dir: Path):
    """Optimizer names, seeds, empirical best HV, benchmark and archived runs."""
    summary_path = out_dir / "summary.json"
    if not summary_path.exists():
        raise _UsageError(f"{summary_path}: no summary found; run an experiment first")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        config = summary["config"]
        _check(config, CONFIG_RULES, f"{summary_path}: $.config")
        ladder, benchmark, _, _ = _resolve(config)
        opt_names = [o["name"] for o in config["optimizers"]]
        seeds, best = config["seeds"], float(summary["empirical_best_hv"])
        entries = [(e["optimizer"], e["seed"], e["archive"]) for e in summary["runs"]]
        listed = {(name, seed) for name, seed, _ in entries}
        for name in opt_names:
            for seed in seeds:
                if (name, seed) not in listed:
                    raise _UsageError(
                        f"{summary_path}: runs lists no {name} run for seed {seed}"
                    )
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{summary_path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(
            f"{summary_path}: malformed summary ({type(exc).__name__}: {exc})"
        ) from exc
    runs = {}
    for name, seed, archive in entries:
        meta = metrics.RunMetadata(
            seed=seed,
            optimizer=name,
            benchmark=benchmark.name,
            ladder=ladder,
            stop_cause=None,
        )
        try:
            run = read_archive_csv(out_dir / archive, meta)
        except OSError as exc:
            raise _UsageError(f"{out_dir / archive}: {exc.strerror}") from exc
        except ValueError as exc:
            raise _UsageError(f"{out_dir / archive}: malformed archive ({exc})") from exc
        runs[(name, seed)] = run
    return opt_names, seeds, best, benchmark, runs


def cmd_report(out_dir: str, attainment: str | None = None) -> int:
    out = Path(out_dir)
    opt_names, seeds, best, benchmark, runs = _load_runs(out)
    bounds = benchmark.objective_bounds
    n_runs_per_opt = len(seeds)

    if attainment is None:
        ks = sorted({1, (n_runs_per_opt + 1) // 2, max(n_runs_per_opt - 1, 1)})
    else:
        try:
            ks = [int(part) for part in attainment.split(",") if part.strip()]
        except ValueError as exc:
            raise _UsageError(f"--attainment: {exc}") from exc
        if not ks:
            raise _UsageError("--attainment: no levels given")
    for k in ks:
        if not 1 <= k <= n_runs_per_opt:
            raise _UsageError(
                f"--attainment: k={k} out of range [1, {n_runs_per_opt}]"
            )

    series = {key: metrics.hv_trajectory(run, bounds) for key, run in runs.items()}
    t_lo = min(float(s.cumulative_cost[0]) for s in series.values())
    t_hi = max(float(s.cumulative_cost[-1]) for s in series.values())
    grid = np.geomspace(t_lo, t_hi, TIME_GRID_POINTS)
    # A run's HV at time t is that of its last record by cost t, 0 before its first.
    on_grid = {
        key: np.append(0.0, s.hv)[np.searchsorted(s.cumulative_cost, grid, side="right")]
        for key, s in series.items()
    }
    # One (time, seed) matrix per optimizer.
    hv = np.array(
        [np.column_stack([on_grid[(name, s)] for s in seeds]) for name in opt_names]
    )

    header = ["time"] + [f"seed_{s}" for s in seeds] + ["mean"]
    for name, opt_hv in zip(opt_names, hv):
        diffs = [[metrics.log_hv_diff(h, best) for h in row] for row in opt_hv]
        for prefix, table in (("hv", opt_hv), ("loghvdiff", diffs)):
            mean = [np.mean(row) for row in table]
            rows = np.column_stack([grid, table, mean]).tolist()
            _write_csv(out / f"report_{prefix}_{name}.csv", header, rows)

        opt_runs = [runs[(name, s)] for s in seeds]
        for k in ks:
            try:
                surface = metrics.attainment_surface(opt_runs, k, bounds)
            except MetricsError as exc:
                raise _UsageError(str(exc)) from exc
            path = out / f"report_attainment_{name}_k{k}.csv"
            _write_csv(path, ["f1", "f2"], surface.tolist())

    # Average rank per seed, 1 = highest HV: count above + (count tied + 1) / 2.
    above = (hv[None] > hv[:, None]).sum(axis=1)
    tied = (hv[None] == hv[:, None]).sum(axis=1)
    ranks = (above + (tied + 1) / 2).sum(axis=2) / len(seeds)
    rank_rows = np.column_stack([grid, ranks.T]).tolist()
    _write_csv(out / "report_rank.csv", ["time"] + list(opt_names), rank_rows)
    return 0


def cmd_bench_oracle(
    name: str,
    d: int = 6,
    k: int = 4,
    ladder_spec: str = "1,27,3",
    samples: int = 20001,
) -> int:
    if samples < 1:
        raise _UsageError(f"--samples: {samples} is below 1")
    try:
        b_min, b_max, eta = ladder_spec.split(",")
        ladder = build_ladder(float(b_min), float(b_max), int(eta))
        params = {"k": k} if name == "toy_grid" else {"d": d}
        benchmark = bench.make_benchmark(name, ladder, **params)
        true_hv = bench.true_front_hv(benchmark)
    except (ModehbError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc
    print(f"benchmark: {benchmark.name}")
    print(f"objective_bounds: {benchmark.objective_bounds}")
    print(f"true_front_hv: {FLOAT_FMT % true_hv}")
    if benchmark.front is not None:
        table = bench.toy_table(k)
        front_set = {tuple(p) for p in benchmark.front}
        print(f"cells: {k * k}")
        print("i,j,f1,f2,on_front")
        for i in range(k):
            for j in range(k):
                f1, f2 = i / (k - 1), table[i, j]
                mark = int((f1, f2) in front_set)
                print(f"{i},{j},{FLOAT_FMT % f1},{FLOAT_FMT % f2},{mark}")
        print(f"front_size: {len(benchmark.front)}")
    if benchmark.front_curve is not None:
        from .pareto import hypervolume

        dense = benchmark.front_curve(samples)
        sampled = hypervolume(
            metrics.normalize(dense, benchmark.objective_bounds),
            metrics.REF,
        )
        print(f"sampled_front_hv: {FLOAT_FMT % sampled} ({samples} points)")
        print(f"abs_error: {FLOAT_FMT % abs(sampled - true_hv)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modehb",
        description="Multi-objective multi-fidelity optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every (optimizer, seed) pair")
    p_run.add_argument("config", help="experiment config JSON")
    p_run.add_argument("--workers", type=int, default=1, help="parallel runs (>= 1)")

    p_report = sub.add_parser("report", help="derive metric CSVs from run outputs")
    p_report.add_argument("output_dir", help="directory written by `run`")
    p_report.add_argument(
        "--attainment",
        default=None,
        help="comma-separated attainment levels (default: 1, median, n-1)",
    )

    p_oracle = sub.add_parser("bench-oracle", help="print a benchmark's true front")
    p_oracle.add_argument("name", help="benchmark name")
    p_oracle.add_argument("--d", type=int, default=6, help="dimension (zdt*)")
    p_oracle.add_argument("--k", type=int, default=4, help="grid size (toy_grid)")
    p_oracle.add_argument("--ladder", default="1,27,3", help="b_min,b_max,eta")
    p_oracle.add_argument("--samples", type=int, default=20001)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, workers=args.workers)
        if args.command == "report":
            return cmd_report(args.output_dir, args.attainment)
        return cmd_bench_oracle(
            args.name, d=args.d, k=args.k, ladder_spec=args.ladder, samples=args.samples
        )
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
