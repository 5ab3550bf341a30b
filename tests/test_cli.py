"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modehb
from modehb import bench, cli
from modehb.metrics import RunMetadata, RunTrajectory
from modehb.optimizer import StoppingCriteria, run_random_search
from modehb.scheduler import build_ladder


def base_config(out_dir: Path) -> dict:
    return {
        "benchmark": {"name": "toy_grid", "k": 4},
        "optimizers": [
            {"name": "modehb_nsga2"},
            {"name": "modehb_epsnet"},
            {"name": "random_search"},
        ],
        "ladder": {"b_min": 1, "b_max": 4, "eta": 2},
        "seeds": [0, 1],
        "stop": {"max_tae": 20},
        "output_dir": str(out_dir),
    }


def write_config(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One executed experiment shared by the report tests."""
    tmp = tmp_path_factory.mktemp("experiment")
    out = tmp / "out"
    cfg = write_config(tmp, base_config(out))
    assert cli.main(["run", str(cfg)]) == 0
    return out


# ---------------------------------------------------------------- cmd run


def test_run_writes_archives_metrics_and_summary(run_dir):
    names = [f"{o}_seed{s}" for o in cli.OPTIMIZER_NAMES for s in (0, 1)]
    for stem in names:
        assert (run_dir / f"{stem}_archive.csv").exists()
        assert (run_dir / f"{stem}_metrics.json").exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["config"]["stop"] == {"max_tae": 20, "max_wallclock": None}
    assert set(summary["optimizers"]) == set(cli.OPTIMIZER_NAMES)
    assert len(summary["runs"]) == 6
    best = summary["empirical_best_hv"]
    for opt_info in summary["optimizers"].values():
        for seed_info in opt_info["per_seed"].values():
            assert seed_info["final_hv"] <= best + 1e-12
    metrics_doc = json.loads(
        (run_dir / "modehb_nsga2_seed0_metrics.json").read_text()
    )
    assert metrics_doc["tae"] == 20
    assert metrics_doc["stop_cause"] == "max_tae"


def test_archive_rows_are_complete(run_dir):
    with (run_dir / "modehb_nsga2_seed0_archive.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "seq", "fidelity", "cost_seconds", "cumulative_cost",
        "objective_1", "objective_2", "genotype_1", "genotype_2",
    ]
    assert len(rows) == 21
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 21)]


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cfg = write_config(tmp_path, base_config(out))
        assert cli.main(["run", str(cfg)]) == 0
    for name in ("modehb_nsga2", "modehb_epsnet", "random_search"):
        a = (out_a / f"{name}_seed0_archive.csv").read_bytes()
        b = (out_b / f"{name}_seed0_archive.csv").read_bytes()
        assert a == b


def test_parallel_workers_match_sequential(tmp_path, run_dir):
    out = tmp_path / "par"
    cfg = write_config(tmp_path, base_config(out))
    assert cli.main(["run", str(cfg), "--workers", "2"]) == 0
    for entry in json.loads((out / "summary.json").read_text())["runs"]:
        assert (out / entry["archive"]).read_bytes() == (
            run_dir / entry["archive"]
        ).read_bytes()


def test_workers_are_capped_at_the_number_of_runs(tmp_path, monkeypatch):
    # A pool forks every worker up front: --workers 6 on two runs must ask
    # for two processes, and on one run for none.
    import concurrent.futures

    real_pool = concurrent.futures.ProcessPoolExecutor
    pools = []

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    for seeds, expected in (([0, 1], [2]), ([0], [])):
        config = base_config(tmp_path / "serial")
        config["optimizers"] = [{"name": "modehb_nsga2"}]
        config["seeds"] = seeds
        assert cli.main(["run", str(write_config(tmp_path, config))]) == 0
        config["output_dir"] = str(tmp_path / "pooled")
        assert cli.main(["run", str(write_config(tmp_path, config)), "--workers", "6"]) == 0
        assert pools == expected
        pools.clear()
        for path in sorted((tmp_path / "serial").iterdir()):
            pooled = (tmp_path / "pooled" / path.name).read_bytes()
            if path.name == "summary.json":
                pooled = pooled.replace(b"pooled", b"serial")
            assert pooled == path.read_bytes()


def test_default_stop_uses_budget_formula(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    del config["stop"]
    config["optimizers"] = [{"name": "random_search"}]
    config["seeds"] = [0]
    cfg = write_config(tmp_path, config)
    assert cli.main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # ceil(20 + 80 * sqrt(2)) for the two toy parameters.
    assert summary["config"]["stop"]["max_tae"] == 134


def test_wallclock_only_stop_keeps_no_default_tae(tmp_path):
    # zdt1_mf d=6 would default to 216 evaluations, which cost 1,278 s on
    # this ladder; a lone max_wallclock must be the limit that stops the run.
    out = tmp_path / "out"
    config = base_config(out)
    config["benchmark"] = {"name": "zdt1_mf", "d": 6}
    config["ladder"] = {"b_min": 1, "b_max": 27, "eta": 3}
    config["optimizers"] = [{"name": "modehb_nsga2"}]
    config["seeds"] = [0]
    config["stop"] = {"max_wallclock": 2000}
    assert cli.main(["run", str(write_config(tmp_path, config))]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["stop"] == {"max_tae": None, "max_wallclock": 2000}
    metrics_doc = json.loads((out / "modehb_nsga2_seed0_metrics.json").read_text())
    assert metrics_doc["stop_cause"] == "max_wallclock"
    assert metrics_doc["cumulative_cost"] >= 2000
    assert metrics_doc["tae"] > 216
    assert cli.main(["report", str(out)]) == 0


def test_run_usage_errors(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.json"
    assert cli.main(["run", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    bad = tmp_path / "bad.json"
    bad.write_text('{"benchmark": \n oops', encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    assert ":2:" in capsys.readouterr().err  # line of the JSON error

    config = base_config(tmp_path / "out")
    config["optimizers"] = [{"name": "sgd"}]
    assert cli.main(["run", str(write_config(tmp_path, config))]) == 2

    config = base_config(tmp_path / "out")
    config["optimizers"] = [{"name": "random_search"}, {"name": "random_search"}]
    assert cli.main(["run", str(write_config(tmp_path, config))]) == 2
    assert "duplicate" in capsys.readouterr().err

    config = base_config(tmp_path / "out")
    config["ladder"] = {"b_min": 1, "b_max": 5, "eta": 2}
    assert cli.main(["run", str(write_config(tmp_path, config))]) == 2
    capsys.readouterr()

    # Fewer than one worker is refused before anything runs.
    for workers in ("0", "-3"):
        config = base_config(tmp_path / "out")
        path = str(write_config(tmp_path, config))
        assert cli.main(["run", path, "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # An output_dir that is a file, lies under one, or is a dangling link is
    # refused before anything runs.
    blocker = tmp_path / "blocker"
    blocker.write_text("keep", encoding="utf-8")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    for out in (blocker, blocker / "sub" / "out", dangling):
        path = str(write_config(tmp_path, base_config(out)))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_execute_run", lambda *args: pytest.fail("ran"))
            assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "output_dir" in err and "not a directory" in err
        assert blocker.read_text(encoding="utf-8") == "keep"

    # Three evaluations never reach b_max: nothing to report, nothing written.
    config = base_config(tmp_path / "out")
    config["optimizers"] = [{"name": "modehb_nsga2"}]
    config["stop"] = {"max_tae": 3}
    assert cli.main(["run", str(write_config(tmp_path, config))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


_DELETE = object()


def _edited(out_dir: Path, keys: list, value) -> dict:
    """base_config with the value under ``keys`` replaced (or deleted)."""
    config = base_config(out_dir)
    node = config
    for key in keys[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return config


# (JSON path named in the error, keys of the edited value, new value)
REJECTED_CONFIGS = [
    *[("$", [key], _DELETE) for key in ("benchmark", "optimizers", "ladder", "seeds", "output_dir")],
    ("$.benchmark", ["benchmark", "name"], _DELETE),
    ("$.optimizers[0]", ["optimizers", 0, "name"], _DELETE),
    *[("$.ladder", ["ladder", key], _DELETE) for key in ("b_min", "b_max", "eta")],
    ("$", ["extra"], 1),
    ("$.optimizers[0]", ["optimizers", 0, "extra"], 1),
    ("$.ladder", ["ladder", "extra"], 1),
    ("$.stop", ["stop", "extra"], 1),
    ("$.ladder.eta", ["ladder", "eta"], True),
    ("$.seeds[0]", ["seeds"], [True]),
    ("$.stop.max_tae", ["stop", "max_tae"], True),
    ("$.ladder.b_min", ["ladder", "b_min"], True),
    ("$.optimizers[0].scaling_factor", ["optimizers", 0, "scaling_factor"], True),
    ("$.optimizers[0].crossover_prob", ["optimizers", 0, "crossover_prob"], True),
    ("$.stop.max_wallclock", ["stop", "max_wallclock"], True),
    ("$.ladder.eta", ["ladder", "eta"], 2.5),
    ("$.seeds[1]", ["seeds"], [0, 0.5]),
    ("$.ladder.b_max", ["ladder", "b_max"], None),
    ("$.optimizers[0].scaling_factor", ["optimizers", 0, "scaling_factor"], None),
    ("$.seeds", ["seeds"], [1, 1.0]),
    # Equal entries fail the list rule above; equal names alone fail here.
    ("$.optimizers", ["optimizers"],
     [{"name": "modehb_nsga2"}, {"name": "modehb_nsga2", "scaling_factor": 0.7}]),
    ("$.optimizers[0].scaling_factor", ["optimizers", 0, "scaling_factor"], 0),
    ("$.stop.max_tae", ["stop", "max_tae"], 0),
    # Random search uses no DE setting, so it takes none.
    ("$.optimizers[2]", ["optimizers", 2, "scaling_factor"], 0.5),
    ("$.optimizers[2]", ["optimizers", 2, "crossover_prob"], 0.5),
    # Benchmark parameters are typed here; their factories check the ranges.
    ("$.benchmark", ["benchmark", "any_key"], 1),
    ("$.benchmark.bias", ["benchmark", "bias"], "x"),
    ("$.benchmark.bias", ["benchmark", "bias"], None),
    ("$.benchmark.bias", ["benchmark", "bias"], True),
    ("$.benchmark.k", ["benchmark", "k"], 4.5),
    ("$.benchmark.k", ["benchmark", "k"], True),
    ("$.benchmark.k", ["benchmark", "k"], "4"),
    ("$.benchmark.d", ["benchmark", "d"], True),
    ("$.benchmark.d", ["benchmark", "d"], 3.5),
]


@pytest.mark.parametrize(
    "path, keys, value",
    REJECTED_CONFIGS,
    ids=[f"{'.'.join(map(str, k))}={'del' if v is _DELETE else v!r}" for _, k, v in REJECTED_CONFIGS],
)
def test_config_rules_reject(tmp_path, capsys, path, keys, value):
    config = _edited(tmp_path / "out", keys, value)
    assert cli.main(["run", str(write_config(tmp_path, config))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f": {path}: " in err, err
    assert not (tmp_path / "out").exists()


ACCEPTED_CONFIGS = [
    (["ladder", "eta"], 2.0),
    (["seeds"], [1.0]),
    (["stop", "max_tae"], None),
    (["stop", "max_wallclock"], None),
    (["benchmark", "k"], 4.0),
    (["benchmark", "bias"], 0.25),
    (["benchmark", "bias"], 1),
    (["optimizers", 0, "scaling_factor"], 2),
    (["optimizers", 0, "crossover_prob"], 1),
]


@pytest.mark.parametrize(
    "keys, value",
    ACCEPTED_CONFIGS,
    ids=[f"{'.'.join(map(str, k))}={v!r}" for k, v in ACCEPTED_CONFIGS],
)
def test_config_rules_accept(tmp_path, keys, value):
    config = _edited(tmp_path / "out", keys, value)
    assert cli._load_config(str(write_config(tmp_path, config))) == config


# JSON has no NaN or Infinity, but json.loads reads them, and 1e999 as
# Infinity.  Unchecked, such a max_wallclock never stops a run, and the other
# values fail with a traceback.  Checked at load time, so no run can hang.
NON_FINITE_CONFIGS = [
    ("$.stop.max_wallclock", ["stop"], {"max_wallclock": "X"}, "NaN"),
    ("$.stop.max_wallclock", ["stop"], {"max_wallclock": "X"}, "Infinity"),
    ("$.stop.max_wallclock", ["stop"], {"max_wallclock": "X"}, "1e999"),
    ("$.stop.max_tae", ["stop"], {"max_tae": "X"}, "NaN"),
    ("$.ladder.b_max", ["ladder", "b_max"], "X", "Infinity"),
    ("$.ladder.b_max", ["ladder", "b_max"], "X", "NaN"),
    ("$.ladder.b_min", ["ladder", "b_min"], "X", "-Infinity"),
    ("$.ladder.eta", ["ladder", "eta"], "X", "Infinity"),
    ("$.seeds[0]", ["seeds"], ["X"], "NaN"),
    ("$.optimizers[0].scaling_factor", ["optimizers", 0, "scaling_factor"], "X", "NaN"),
    ("$.optimizers[0].crossover_prob", ["optimizers", 0, "crossover_prob"], "X", "NaN"),
]


@pytest.mark.parametrize(
    "path, keys, value, literal",
    NON_FINITE_CONFIGS,
    ids=[f"{'.'.join(map(str, k))}={lit}" for _, k, _, lit in NON_FINITE_CONFIGS],
)
def test_config_rules_reject_non_finite_numbers(tmp_path, path, keys, value, literal):
    config = _edited(tmp_path / "out", keys, value)
    text = json.dumps(config).replace('"X"', literal)
    (tmp_path / "config.json").write_text(text, encoding="utf-8")
    with pytest.raises(cli._UsageError, match="is not of type") as caught:
        cli._load_config(str(tmp_path / "config.json"))
    assert f": {path}: " in str(caught.value)


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_benchmark_exits_3_and_cleans_up(tmp_path, monkeypatch, workers):
    def exploding(ladder, **params):
        bm = bench.toy_grid(4, ladder)

        def boom(genotype, fidelity):
            raise ValueError("synthetic failure")

        return bench.Benchmark(
            name="exploding",
            space=bm.space,
            ladder=ladder,
            objective_bounds=bm.objective_bounds,
            evaluate=boom,
        )

    monkeypatch.setitem(bench.BENCHMARKS, "exploding", exploding)
    out = tmp_path / "out"
    config = base_config(out)
    config["benchmark"] = {"name": "exploding"}
    config["optimizers"] = [{"name": "modehb_nsga2"}]
    cfg = write_config(tmp_path, config)
    assert cli.main(["run", str(cfg), "--workers", str(workers)]) == 3
    assert not out.exists()


def test_integral_float_seeds_and_eta_run(tmp_path):
    # The rules accept 1.0 as an integer; it seeds the run and names its files
    # as 1, and every output, summary.json's "max_tae": 30 included, is byte
    # for byte that of the integer config.
    out = tmp_path / "out"
    written = []
    for number in (int, float):
        config = base_config(out)
        config["optimizers"] = [{"name": "modehb_nsga2"}]
        config["seeds"] = [number(1)]
        config["ladder"]["eta"] = number(2)
        config["stop"] = {"max_tae": number(30)}
        assert cli.main(["run", str(write_config(tmp_path, config))]) == 0
        assert (out / "modehb_nsga2_seed1_archive.csv").exists()
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        shutil.rmtree(out)
    assert written[0] == written[1]
    assert b'"max_tae": 30,' in written[1]["summary.json"]


@pytest.mark.parametrize("name, key, value", [("toy_grid", "k", 4), ("zdt1_mf", "d", 6)])
def test_integral_float_benchmark_parameters_run(tmp_path, name, key, value):
    # "k": 4.0 and "d": 6.0 reach the benchmark's factory as 4 and 6, and
    # every output is byte for byte that of the integer config.
    out = tmp_path / "out"
    written = []
    for number in (int, float):
        config = base_config(out)
        config["benchmark"] = {"name": name, key: number(value)}
        config["optimizers"] = [{"name": "modehb_nsga2"}]
        config["stop"] = {"max_tae": 30}
        assert cli.main(["run", str(write_config(tmp_path, config))]) == 0
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        shutil.rmtree(out)
    assert written[0] == written[1]
    assert f'"{key}": {value}\n'.encode() in written[1]["summary.json"]


def test_unwritable_output_exits_2_with_one_line(tmp_path, run_dir, capsys):
    # A directory where `run` writes its first archive: nothing after it is written.
    out = tmp_path / "out"
    blocked = out / "modehb_nsga2_seed0_archive.csv"
    blocked.mkdir(parents=True)
    assert cli.main(["run", str(write_config(tmp_path, base_config(out)))]) == 2
    assert capsys.readouterr().err == f"error: {blocked}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == [blocked.name]

    # A directory where `report` writes its last table: the tables before it stay.
    out = shutil.copytree(run_dir, tmp_path / "reported")
    blocked = out / "report_rank.csv"
    blocked.unlink(missing_ok=True)
    blocked.mkdir()
    assert cli.main(["report", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {blocked}: Is a directory\n"
    assert (out / "report_hv_modehb_nsga2.csv").exists()


# ------------------------------------------------------------- cmd report


def test_report_reads_the_normalized_config(tmp_path):
    # `run` reads seed 0.0 as 0 and eta 3.0 as 3; so does `report`.
    out = tmp_path / "out"
    config = base_config(out)
    config["ladder"] = {"b_min": 1, "b_max": 9, "eta": 3}
    config["seeds"] = [0]
    assert cli.main(["run", str(write_config(tmp_path, config))]) == 0
    written = []
    for edit in (False, True):
        if edit:
            summary = json.loads((out / "summary.json").read_text("utf-8"))
            summary["config"]["seeds"] = [0.0]
            summary["config"]["ladder"]["eta"] = 3.0
            (out / "summary.json").write_text(json.dumps(summary), "utf-8")
        assert cli.main(["report", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.glob("report_*.csv")})
    assert written[0] == written[1]
    assert written[1]["report_hv_modehb_nsga2.csv"].startswith(b"time,seed_0,mean\r\n")


def test_report_writes_expected_tables(run_dir):
    assert cli.main(["report", str(run_dir)]) == 0
    for name in cli.OPTIMIZER_NAMES:
        for kind in ("hv", "loghvdiff"):
            path = run_dir / f"report_{kind}_{name}.csv"
            with path.open() as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["time", "seed_0", "seed_1", "mean"]
            assert len(rows) == 1 + cli.TIME_GRID_POINTS
        # Two seeds collapse the default attainment levels onto k=1.
        assert (run_dir / f"report_attainment_{name}_k1.csv").exists()
        assert not (run_dir / f"report_attainment_{name}_k2.csv").exists()


def test_report_hv_columns_are_monotone(run_dir):
    with (run_dir / "report_hv_modehb_nsga2.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    hv = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.all(np.diff(hv, axis=0) >= -1e-15)


def test_report_attainment_is_a_staircase(run_dir):
    assert cli.main(["report", str(run_dir), "--attainment", "1,2"]) == 0
    for k in (1, 2):
        path = run_dir / f"report_attainment_random_search_k{k}.csv"
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["f1", "f2"]
        pts = np.array([[float(a), float(b)] for a, b in rows[1:]])
        assert len(pts) >= 1
        assert np.all(np.diff(pts[:, 0]) > 0)
        assert np.all(np.diff(pts[:, 1]) < 0)


def test_report_rank_rows_sum_to_constant(run_dir):
    with (run_dir / "report_rank.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time"] + list(cli.OPTIMIZER_NAMES)
    for row in rows[1:]:
        assert sum(float(v) for v in row[1:]) == pytest.approx(6.0)


def test_report_usage_errors(tmp_path, run_dir, capsys):
    assert cli.main(["report", str(tmp_path / "nowhere")]) == 2
    assert cli.main(["report", str(run_dir), "--attainment", "5"]) == 2
    assert cli.main(["report", str(run_dir), "--attainment", "x"]) == 2
    capsys.readouterr()
    assert cli.main(["report", str(run_dir), "--attainment", ","]) == 2
    assert capsys.readouterr().err == "error: --attainment: no levels given\n"

    def broken_copy(name, break_it):
        out = shutil.copytree(run_dir, tmp_path / name)
        break_it(out)
        assert cli.main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    archive = "random_search_seed1_archive.csv"
    broken_copy("no_archive", lambda out: (out / archive).unlink())
    broken_copy("bad_json", lambda out: (out / "summary.json").write_text("{", "utf-8"))
    broken_copy("no_key", lambda out: (out / "summary.json").write_text("{}", "utf-8"))

    def edit_summary(change):
        def break_it(out):
            summary = json.loads((out / "summary.json").read_text("utf-8"))
            change(summary)
            (out / "summary.json").write_text(json.dumps(summary), "utf-8")
        return break_it

    # Runs that omit a pair the config names, and a stop no run could use.
    no_last_run = edit_summary(lambda summary: summary["runs"].pop())
    assert "summary.json" in broken_copy("no_last_run", no_last_run)
    zero_max_tae = edit_summary(lambda summary: summary["config"]["stop"].update(max_tae=0))
    assert "summary.json" in broken_copy("zero_max_tae", zero_max_tae)
    # A config that `run` would refuse is blamed on the summary, not on a flag.
    empty_seeds = edit_summary(lambda summary: summary["config"].update(seeds=[]))
    assert "summary.json: $.config.seeds" in broken_copy("empty_seeds", empty_seeds)
    # So is a second entry of one optimizer, with its runs, and a DE setting
    # on random search, which uses none.
    def twice(summary):
        summary["config"]["optimizers"].append({"name": "modehb_nsga2", "scaling_factor": 0.7})
        summary["runs"] += [e for e in summary["runs"] if e["optimizer"] == "modehb_nsga2"]

    err = broken_copy("twice", edit_summary(twice))
    assert err.endswith("summary.json: $.config.optimizers: duplicate optimizer names\n")
    de_setting = edit_summary(
        lambda summary: summary["config"]["optimizers"][2].update(crossover_prob=0.5))
    err = broken_copy("de_setting", de_setting)
    assert err.endswith("summary.json: $.config.optimizers[2]: random_search takes no 'crossover_prob'\n")
    # A row of the wrong length is named by its file line, as a blank one is.
    appended_line = len((run_dir / archive).read_text("utf-8").splitlines()) + 1
    for name, row in (("bad_row", "3,4,oops"), ("short_row", "3,4")):
        err = broken_copy(name, lambda out: (out / archive).write_text(
            (out / archive).read_text("utf-8") + row + "\n", "utf-8"))
        assert f"line {appended_line}: " in err and "usecols" not in err
    # An empty archive and one holding only its header name the file.
    assert archive in broken_copy("empty", lambda out: (out / archive).write_text("", "utf-8"))
    assert archive in broken_copy("header_only", lambda out: (out / archive).write_text(
        (out / archive).read_text("utf-8").splitlines(keepends=True)[0], "utf-8"))

    # A header unlike the writer's, rows out of seq order, and a blank row.
    def third_objective(out):
        text = (out / archive).read_text("utf-8")
        (out / archive).write_text(text.replace("genotype_1", "objective_3", 1), "utf-8")

    def swap_rows(out):
        lines = (out / archive).read_text("utf-8").splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        (out / archive).write_text("".join(lines), "utf-8")

    assert archive in broken_copy("three_objectives", third_objective)
    assert archive in broken_copy("swapped_rows", swap_rows)
    assert archive in broken_copy("blank_row", lambda out: (out / archive).write_text(
        (out / archive).read_text("utf-8").replace("\n", "\n\n", 2), "utf-8"))

    # `run` never writes a non-finite value, so one marks a malformed archive,
    # whether or not the row is at b_max.
    def first_row(name, fidelity, column, value):
        def break_it(out):
            with (out / name).open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[1][1] == fidelity
            rows[1][column] = value
            with (out / name).open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        return break_it

    assert archive in broken_copy("nan_b_max", first_row(archive, "4", 4, "nan"))
    low = "modehb_nsga2_seed0_archive.csv"
    assert low in broken_copy("inf_b_min", first_row(low, "1", 4, "inf"))
    # `run` writes cost = fidelity, a ladder level; the time grid is geometric.
    for name, column, value in (("zero_cost", 2, "0"), ("negative_cost", 2, "-1"),
                                ("off_ladder", 1, "3")):
        assert low in broken_copy(name, first_row(low, "1", column, value))

    # A row shorter than the header, below b_max, is malformed too.
    def cut_row(name, index, n_fields):
        def break_it(out):
            with (out / name).open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[index][1] != "4"
            rows[index] = rows[index][:n_fields]
            with (out / name).open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        return break_it

    assert low in broken_copy("no_last_genotype", cut_row(low, 5, -1))
    assert low in broken_copy("cut_after_objective_1", cut_row(low, 6, 5))


def test_report_reads_only_the_runs_its_config_names(tmp_path, run_dir, capsys):
    # An unconfigured seed would stretch the time grid, and a pair listed
    # twice would silently take the later archive; both are refused.
    extra = {"optimizer": "modehb_nsga2", "seed": 7,
             "archive": "modehb_nsga2_seed1_archive.csv",
             "metrics": "modehb_nsga2_seed1_metrics.json"}
    twice = dict(extra, seed=0)
    for name, entry in (("unconfigured", extra), ("twice", twice)):
        out = shutil.copytree(run_dir, tmp_path / name)
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        summary["runs"].append(entry)
        (out / "summary.json").write_text(json.dumps(summary), "utf-8")
        assert cli.main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {out / 'summary.json'}: runs must list each (optimizer, seed)"
            " pair of the config once\n"
        )


# ------------------------------------------------------- python -m modehb


def _python(*args):
    env = dict(os.environ)
    src = str(Path(modehb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "modehb", "bench-oracle", "toy_grid", "--k", "4")
    assert proc.returncode == 0, proc.stderr
    assert "front_size: 2" in proc.stdout


def test_import_does_not_load_scipy():
    proc = _python("-c", "import sys, modehb; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_report_does_not_load_numpy_ma(tmp_path):
    config = base_config(tmp_path / "out")
    config["benchmark"] = {"name": "zdt1_mf", "d": 4}
    config["ladder"] = {"b_min": 1, "b_max": 9, "eta": 3}
    config["stop"] = {"max_tae": 60}
    assert cli.main(["run", str(write_config(tmp_path, config))]) == 0
    proc = _python(
        "-c",
        "import sys; from modehb import cli; "
        f"code = cli.main(['report', {str(tmp_path / 'out')!r}]); "
        "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    # numpy.random costs about 17 ms to import; only runs draw from it.
    assert proc.stdout.strip() == "0 False False"


def test_import_does_not_load_jsonschema_or_process_pools():
    proc = _python(
        "-c",
        "import sys, modehb; "
        "modules = ('jsonschema', 'concurrent.futures.process', 'csv', 'numpy.random'); "
        "print([m in sys.modules for m in modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False]"


# -------------------------------------------------------------- round trip


def _csv_writer_bytes(run) -> bytes:
    """An archive as csv.writer writes it, with "%.17g" per value."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(
        ["seq", "fidelity", "cost_seconds", "cumulative_cost"]
        + [f"objective_{i + 1}" for i in range(run.objectives.shape[1])]
        + [f"genotype_{i + 1}" for i in range(run.genotypes.shape[1])]
    )
    cumulative = 0.0
    columns = zip(run.fidelity, run.cost, run.objectives, run.genotypes, strict=True)
    for seq, (fidelity, cost, objectives, genotype) in enumerate(columns, 1):
        cumulative += cost
        values = [fidelity, cost, cumulative, *objectives, *genotype]
        writer.writerow([str(seq)] + ["%.17g" % v for v in values])
    return buf.getvalue().encode("utf-8")


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _hand_built_run(ladder) -> RunTrajectory:
    awkward = np.array([-0.0, 5e-324, 1 / 3, 1e16, 2.0**53 + 1, 3.0, 0.0, 1.0, -2.0])
    i = np.arange(len(awkward))
    metadata = RunMetadata(
        seed=0, optimizer="modehb_nsga2", benchmark="hand_built", ladder=ladder,
        stop_cause=None,
    )
    return RunTrajectory(
        fidelity=np.array(ladder.levels)[i % len(ladder.levels)],
        cost=awkward[(i + 5) % len(awkward)],
        objectives=np.column_stack([awkward[(i + 3) % len(awkward)], awkward]),
        genotypes=np.column_stack([awkward, awkward[::-1], np.full(len(awkward), 0.5)]),
        metadata=metadata,
    )


def test_archive_round_trip_is_lossless(tmp_path):
    ladder = build_ladder(1, 4, 2)
    bm = bench.toy_grid(4, ladder)
    sampled = run_random_search(
        bm.space, ladder, bm.evaluate, StoppingCriteria(max_tae=15), 3,
        benchmark_name=bm.name,
    )
    for run in (sampled, _hand_built_run(ladder)):
        path = tmp_path / "archive.csv"
        cli.write_archive_csv(path, run)
        assert path.read_bytes() == _csv_writer_bytes(run)
        loaded = cli.read_archive_csv(path, run.metadata)
        assert len(loaded.cost) == len(run.cost)
        for column in ("fidelity", "cost", "objectives", "genotypes"):
            a, b = getattr(run, column), getattr(loaded, column)
            assert a.shape == b.shape and _bits(a) == _bits(b)


# ------------------------------------------------------------ bench-oracle


def test_bench_oracle_toy_grid(capsys):
    assert cli.main(["bench-oracle", "toy_grid", "--k", "4", "--ladder", "1,4,2"]) == 0
    out = capsys.readouterr().out
    assert "front_size: 2" in out
    assert "true_front_hv: 0.97087824783622" in out
    cells = [line.split(",") for line in out.splitlines() if line.count(",") == 4][1:]
    assert len(cells) == 16
    # Each cell prints as f1 = i / (k - 1) and f2 = the toy table's entry.
    table = bench.toy_table(4)
    for i, j, f1, f2, _ in cells:
        i, j = int(i), int(j)
        assert (f1, f2) == (cli.FLOAT_FMT % (i / 3), cli.FLOAT_FMT % table[i, j])


def test_bench_oracle_zdt1_sampling_error(capsys):
    assert cli.main(["bench-oracle", "zdt1_mf", "--d", "6"]) == 0
    out = capsys.readouterr().out
    error_line = next(l for l in out.splitlines() if l.startswith("abs_error:"))
    assert float(error_line.split()[1]) < 1e-4


def test_bench_oracle_usage_errors(capsys):
    assert cli.main(["bench-oracle", "nope"]) == 2
    assert cli.main(["bench-oracle", "zdt1_mf", "--ladder", "1,20,3"]) == 2
    capsys.readouterr()
    # Non-finite ladder bounds are usage errors too, named as such.
    for ladder in ("1,inf,3", "nan,9,3"):
        assert cli.main(["bench-oracle", "zdt1_mf", "--ladder", ladder]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err
    # No sampled front at all, and one that would print a sampled HV of 0.
    for samples in ("-1", "0"):
        assert cli.main(["bench-oracle", "zdt1_mf", "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --samples: {samples} is below 1\n"
