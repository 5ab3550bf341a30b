"""Checks and derived numbers on the files `modehb run` / `modehb report` write.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Workload

TIME_GRID_ROWS = 100
HV_GAP_FLOOR = -1e-12


def run_files(wl: Workload, seeds: list[int]) -> list[tuple[str, int, str, str]]:
    """(optimizer, seed, archive name, metrics name) for every run."""
    return [
        (opt, seed, f"{opt}_seed{seed}_archive.csv", f"{opt}_seed{seed}_metrics.json")
        for opt in wl.optimizers
        for seed in seeds
    ]


def read_archive(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_run(out: Path, wl: Workload, seeds: list[int]) -> list[str]:
    """Each archive holds exactly max_tae rows and the run stopped on max_tae."""
    problems = []
    for opt, seed, archive, metrics in run_files(wl, seeds):
        try:
            rows = len(read_archive(out / archive)) - 1
            info = json.loads((out / metrics).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{opt} seed {seed}: {exc}")
            continue
        if rows != wl.max_tae or info.get("tae") != wl.max_tae:
            problems.append(f"{archive}: {rows} rows, tae {info.get('tae')}, want {wl.max_tae}")
        if info.get("stop_cause") != "max_tae":
            problems.append(f"{metrics}: stop cause {info.get('stop_cause')!r}")
    return problems


def check_same_runs(a: Path, b: Path, wl: Workload, seeds: list[int]) -> list[str]:
    """Archives and per-run metrics JSONs are byte-identical in both dirs."""
    problems = []
    for _, _, archive, metrics in run_files(wl, seeds):
        for name in (archive, metrics):
            try:
                same = (a / name).read_bytes() == (b / name).read_bytes()
            except OSError as exc:
                problems.append(str(exc))
                continue
            if not same:
                problems.append(f"{name} differs between {a.name} and {b.name}")
    return problems


def attainment_levels(n_seeds: int) -> list[int]:
    """The CLI's default attainment levels: 1, median and n - 1."""
    return sorted({1, (n_seeds + 1) // 2, max(n_seeds - 1, 1)})


def check_report(out: Path, wl: Workload, seeds: list[int]) -> list[str]:
    """Every expected report CSV exists; time-grid tables hold 100 rows."""
    grid = ["report_rank.csv"]
    other = []
    for opt in wl.optimizers:
        grid += [f"report_hv_{opt}.csv", f"report_loghvdiff_{opt}.csv"]
        other += [f"report_attainment_{opt}_k{k}.csv" for k in attainment_levels(len(seeds))]
    problems = [f"{name} missing" for name in other if not (out / name).is_file()]
    for name in grid:
        try:
            rows = len(read_archive(out / name)) - 1
        except OSError as exc:
            problems.append(str(exc))
            continue
        if rows != TIME_GRID_ROWS:
            problems.append(f"{name}: {rows} rows, want {TIME_GRID_ROWS}")
    return problems


def hv_gaps(out: Path, wl: Workload, seeds: list[int], true_hv: float):
    """({optimizer: true-front HV minus mean final HV}, problems)."""
    finals: dict[str, list[float]] = {opt: [] for opt in wl.optimizers}
    problems = []
    for opt, _, _, metrics in run_files(wl, seeds):
        try:
            info = json.loads((out / metrics).read_text(encoding="utf-8"))
            finals[opt].append(float(info["final_hv"]))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{metrics}: {exc}")
    gaps = {
        opt: true_hv - sum(v) / len(v) for opt, v in finals.items() if len(v) == len(seeds)
    }
    problems += [
        f"hv_gap.{opt} = {gap!r} below {HV_GAP_FLOOR}"
        for opt, gap in gaps.items()
        if gap < HV_GAP_FLOOR
    ]
    return gaps, problems


def witness(out: Path, wl: Workload, seeds: list[int]) -> str:
    """SHA-256 over the workload's archive CSVs, in run order."""
    digest = hashlib.sha256()
    for _, _, archive, _ in run_files(wl, seeds):
        path = out / archive
        digest.update(archive.encode() + b"\0")
        digest.update(path.read_bytes() if path.is_file() else b"<missing>")
    return digest.hexdigest()
