"""In-process span tracing of modehb's public functions, from outside the package.

`from .x import f` copies a function into the importing module, so every
function is wrapped where it is looked up (for example both
`modehb.de.non_dominated_sort` and `modehb.metrics.non_dominated_sort`).
Spans (name, start, end, parent) are kept in memory and written out once
the traced run has ended.  A layer's self time is the sum over its spans of
the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module the name is looked up in, attribute, metric name).  The metric
# name's first component is the layer the function belongs to.
SITES = (
    ("modehb.cli", "cmd_run", "cli.cmd_run"),
    ("modehb.cli", "cmd_report", "cli.cmd_report"),
    ("modehb.cli", "write_archive_csv", "cli.write_archive_csv"),
    ("modehb.cli", "read_archive_csv", "cli.read_archive_csv"),
    ("modehb.bench", "make_benchmark", "bench.make_benchmark"),
    ("modehb.bench", "non_dominated_sort", "pareto.non_dominated_sort"),
    ("modehb.bench", "hypervolume", "pareto.hypervolume"),
    ("modehb.optimizer", "run", "optimizer.run"),
    ("modehb.optimizer", "run_random_search", "optimizer.run_random_search"),
    ("modehb.optimizer", "evolve_rung", "optimizer.evolve_rung"),
    ("modehb.optimizer", "promote", "optimizer.promote"),
    ("modehb.optimizer", "mo_selection", "de.mo_selection"),
    ("modehb.optimizer", "mutate_rand1", "de.mutate_rand1"),
    ("modehb.optimizer", "crossover_binomial", "de.crossover_binomial"),
    ("modehb.optimizer", "rank_and_truncate", "pareto.rank_and_truncate"),
    ("modehb.optimizer", "encode_sample", "space.encode_sample"),
    ("modehb.optimizer", "dehb_iteration_plan", "scheduler.dehb_iteration_plan"),
    ("modehb.de", "non_dominated_sort", "pareto.non_dominated_sort"),
    ("modehb.de", "hv_contributions", "pareto.hv_contributions"),
    ("modehb.pareto", "non_dominated_sort", "pareto.non_dominated_sort"),
    ("modehb.pareto", "hypervolume", "pareto.hypervolume"),
    ("modehb.metrics", "non_dominated_sort", "pareto.non_dominated_sort"),
    ("modehb.metrics", "hypervolume", "pareto.hypervolume"),
    ("modehb.metrics", "hv_trajectory", "metrics.hv_trajectory"),
    ("modehb.metrics", "final_front", "metrics.final_front"),
    ("modehb.metrics", "attainment_surface", "metrics.attainment_surface"),
    ("modehb.metrics", "empirical_best_hv", "metrics.empirical_best_hv"),
)

# Benchmark evaluators are closures stored on the Benchmark object that
# make_benchmark returns, so they are wrapped there under this site.
EVALUATE_SITE = "modehb.bench.Benchmark.evaluate"
ALL_SITES = tuple(f"{mod}.{attr}" for mod, attr, _ in SITES) + (EVALUATE_SITE,)

LAYERS = ("cli", "optimizer", "de", "pareto", "space", "scheduler", "metrics", "bench")
ROOTS = {"cli.cmd_run": "run", "cli.cmd_report": "report"}


@dataclasses.dataclass
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int


class Tracer:
    """Installs span-recording wrappers on enter and restores on exit."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.nds_points = 0
        self.selection = {"replaced_parent": 0, "discarded": 0, "evicted_other": 0}
        self.archive_bytes = 0

    def _wrap(self, fn, name: str, site: str, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, site, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_nds(self, args, result):
        self.nds_points += len(args[0])

    def _after_selection(self, args, victim):
        parent, offspring = args[3], args[4]
        if victim == parent:
            self.selection["replaced_parent"] += 1
        elif victim == offspring:
            self.selection["discarded"] += 1
        else:
            self.selection["evicted_other"] += 1

    def _after_write(self, args, result):
        self.archive_bytes += Path(args[0]).stat().st_size

    def _after_make_benchmark(self, args, benchmark):
        # Benchmark is frozen; swap in a traced evaluator on the instance.
        traced = self._wrap(benchmark.evaluate, "bench.evaluate", EVALUATE_SITE)
        object.__setattr__(benchmark, "evaluate", traced)

    def __enter__(self):
        hooks = {
            "pareto.non_dominated_sort": self._after_nds,
            "de.mo_selection": self._after_selection,
            "cli.write_archive_csv": self._after_write,
            "bench.make_benchmark": self._after_make_benchmark,
        }
        for mod_name, attr, name in SITES:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            site = f"{mod_name}.{attr}"
            setattr(module, attr, self._wrap(original, name, site, hooks.get(name)))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def write_spans(self, path: Path):
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "site", "start", "end", "parent"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, s.site, repr(s.start), repr(s.end), s.parent])


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds to a plain call of a no-op function."""

    def noop():
        return None

    traced = Tracer()._wrap(noop, "calibration", "calibration")
    start = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        traced()
    return (perf_counter() - start - bare) / calls


@dataclasses.dataclass
class Summary:
    """Aggregates of one traced run, by span name, site, layer and phase."""

    calls: dict
    seconds: dict
    site_calls: dict
    self_s: dict  # (phase, layer) -> seconds
    root_s: dict  # phase -> summed root span seconds
    evaluate_in_run: tuple[int, float]  # evaluations and their seconds in optimizer.run


def summarize(spans: list[Span]) -> Summary:
    calls: dict = defaultdict(int)
    seconds: dict = defaultdict(float)
    site_calls: dict = defaultdict(int)
    child_s = [0.0] * len(spans)
    phase = [""] * len(spans)
    in_run = [False] * len(spans)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] += 1
        seconds[s.name] += dur
        site_calls[s.site] += 1
        if s.parent >= 0:
            child_s[s.parent] += dur
            phase[i] = phase[s.parent]
            in_run[i] = in_run[s.parent] or s.name == "optimizer.run"
        else:
            phase[i] = ROOTS.get(s.name, "other")
            in_run[i] = s.name == "optimizer.run"
    self_s: dict = defaultdict(float)
    root_s: dict = defaultdict(float)
    n_eval, eval_s = 0, 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        self_s[(phase[i], s.name.split(".", 1)[0])] += dur - child_s[i]
        if s.parent < 0:
            root_s[phase[i]] += dur
        if s.name == "bench.evaluate" and in_run[i]:
            n_eval += 1
            eval_s += dur
    return Summary(calls, seconds, site_calls, self_s, root_s, (n_eval, eval_s))
