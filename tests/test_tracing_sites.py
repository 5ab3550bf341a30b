"""Guard for the benchmark's tracer: every site it wraps exists and is reached.

`perfbench/tracing.py` wraps package functions by (module, attribute) at
call time.  A refactor that inlines one of them (say `mutate_rand1` in the
optimizer's draw loop) leaves that span empty, and the traced benchmark
counts the run as failed.  These tests catch that in tier-1.  The tracer is
loaded from its file and only used, never edited.
"""

import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from modehb import bench, cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists(tracing):
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracing.SITES
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
    assert "evaluate" in {f.name for f in dataclasses.fields(bench.Benchmark)}


def test_every_traced_site_is_called_through_its_module(tracing, tmp_path):
    # toy_grid builds its front with the bench-level kernels, and all three
    # optimizers plus `report` reach every other site.
    config = {
        "benchmark": {"name": "toy_grid", "k": 4},
        "optimizers": [{"name": name} for name in cli.OPTIMIZER_NAMES],
        "ladder": {"b_min": 1, "b_max": 4, "eta": 2},
        "seeds": [0],
        "stop": {"max_tae": 64},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with tracing.Tracer() as tracer:
        assert cli.main(["run", str(path)]) == 0
        assert cli.main(["report", str(tmp_path / "out")]) == 0
    reached = {span.site for span in tracer.spans}
    assert sorted(set(tracing.ALL_SITES) - reached) == []
