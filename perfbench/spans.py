"""Per-layer tracing by substituting timing wrappers for swarmguide functions.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, each
public function that ``swarmguide.cli``, ``swarmguide.engine`` and
``swarmguide.synthesis`` call with a wrapper that records a span (name,
start, end, parent) and, for some layers, counts of work done.  Spans stay
in memory; ``layer_metrics`` turns them into per-layer self times, call
counts and waste ratios.  A layer's self time is its span minus its child
spans, so the self times of one call tree add up to the root span.

Metric names are ``<module>.<function>``; the leading underscore of the
private modules ``_kernels`` and ``_rng`` is dropped (``kernels.``,
``rng.``) because metric names start with a letter.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

SETUP_END = ("synthesis.dsmc_recurrent", "synthesis.validate_markov")
COUNTING = "trace.counting"


def _count_columns(counts, args, result):
    counts["synthesis.columns"] += result.shape[1]
    counts["synthesis.identity_columns"] += int(np.count_nonzero(np.diagonal(result) == 1.0))


def _count_matrix(counts, args, result, last, run):
    # A matrix counts as distinct when its content differs from the one the
    # same run audited just before: the audits a one-entry cache could not
    # skip.
    previous = last.get(run)
    if previous is None or not np.array_equal(previous, args[0]):
        counts["synthesis.distinct_matrices"] += 1
    last[run] = np.array(args[0], copy=True)


def _count_agents(counts, args, result):
    counts["kernels.agents_advanced"] += args[0].size
    counts["kernels.agents_moved"] += int(np.count_nonzero(result != args[0]))


def _count_draws(counts, args, result):
    counts["rng.draws"] += result.size


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._last_matrix: dict[int, np.ndarray] = {}

    def _open(self, name: str) -> int:
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int, start: float):
        self.spans[index][1:3] = start, time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start)
            if count is not None:
                # Counting is traced as its own layer so that it is not
                # charged to the caller's self time.
                index = self._open(COUNTING)
                start = time.perf_counter()
                count(self.counts, args, result)
                self._close(index, start)
            return result

        return traced

    @contextmanager
    def installed(self):
        import swarmguide._kernels as kernels
        import swarmguide.cli as cli
        import swarmguide.engine as engine
        import swarmguide.synthesis as synthesis

        def count_matrix(counts, args, result):
            # The root span on the stack names the CLI run.
            _count_matrix(counts, args, result, self._last_matrix, self.stack[0])

        # (metric name, namespaces the callers look the name up in, attribute, counter)
        targets = [
            ("graph.build_grid_topology", [engine], "build_grid_topology", None),
            ("graph.partition_states", [engine], "partition_states", None),
            ("graph.laplacian_of", [engine], "laplacian_of", None),
            ("synthesis.choose_d_chsn", [engine], "choose_d_chsn", None),
            ("synthesis.transient_matrix", [engine, synthesis], "transient_matrix", None),
            ("synthesis.metropolis_hastings", [engine], "metropolis_hastings", None),
            ("synthesis.dsmc_recurrent", [engine], "dsmc_recurrent", _count_columns),
            ("synthesis.assemble", [engine, synthesis], "assemble", None),
            ("synthesis.validate_markov", [engine], "validate_markov", count_matrix),
            ("kernels.synth_recurrent", [kernels], "synth_recurrent", None),
            ("kernels.advance_agents", [kernels], "advance_agents", _count_agents),
            ("rng.uniform_stream", [engine], "uniform_stream", _count_draws),
            ("engine.initial_swarm", [engine], "initial_swarm", None),
            ("engine.step_agents", [engine], "step_agents", None),
            ("engine.propagate_density", [engine], "propagate_density", None),
            ("engine.apply_event", [engine], "apply_event", None),
            ("engine.run_scenario", [cli], "run_scenario", None),
            ("engine.MetricsSeries.to_csv", [engine.MetricsSeries], "to_csv", None),
            ("density.empirical_density", [engine], "empirical_density", None),
            ("density.total_variation", [engine], "total_variation", None),
            ("cli.load_scenario", [cli], "load_scenario", None),
            ("cli.snapshot_csv", [cli], "_snapshot_csv", None),
            ("cli.write_text", [cli], "_write_text", None),
        ]
        saved = []
        try:
            for name, spaces, attr, count in targets:
                original = getattr(spaces[0], attr)
                wrapper = self.wrap(name, original, count)
                for space in spaces:
                    if getattr(space, attr) is not original:
                        raise RuntimeError(f"{space.__name__}.{attr} is not the function {name} names")
                    saved.append((space, attr, original))
                    setattr(space, attr, wrapper)
            yield self
        finally:
            for space, attr, original in reversed(saved):
                setattr(space, attr, original)


LAYERS = (
    "graph.build_grid_topology",
    "graph.partition_states",
    "graph.laplacian_of",
    "synthesis.choose_d_chsn",
    "synthesis.transient_matrix",
    "synthesis.metropolis_hastings",
    "synthesis.dsmc_recurrent",
    "synthesis.assemble",
    "synthesis.validate_markov",
    "kernels.synth_recurrent",
    "kernels.advance_agents",
    "rng.uniform_stream",
    "engine.initial_swarm",
    "engine.step_agents",
    "engine.propagate_density",
    "engine.apply_event",
    "engine.run_scenario",
    "engine.MetricsSeries.to_csv",
    "density.empirical_density",
    "density.total_variation",
    "cli.main",
    "cli.load_scenario",
    "cli.snapshot_csv",
    "cli.write_text",
    COUNTING,
)

COUNTS = (
    "synthesis.columns",
    "synthesis.identity_columns",
    "synthesis.distinct_matrices",
    "kernels.agents_advanced",
    "kernels.agents_moved",
    "rng.draws",
)

# name -> (numerator, denominator); each ratio is reported next to its base.
RATIOS = {
    "kernels.moved_per_advanced": ("kernels.agents_moved", "kernels.agents_advanced"),
    "synthesis.identity_per_column": ("synthesis.identity_columns", "synthesis.columns"),
    "synthesis.validate_markov_per_matrix": ("synthesis.validate_markov.calls", "synthesis.distinct_matrices"),
}


def layer_metrics(tracer: Tracer, runs: int, wall: float) -> dict[str, float]:
    """Per-run layer metrics of one traced round of ``runs`` CLI runs.

    ``wall`` is the time the benchmark measured around those runs.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    calls = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        self_time[name] += end - start - child_time[index]
        calls[name] += 1

    setup = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        if name == "engine.run_scenario":
            first = min(s[1] for s in spans[index:] if s[0] in SETUP_END and s[1] <= end)
            setup += first - start

    out = {}
    for name in LAYERS:
        out[f"{name}_s"] = self_time[name] / runs
        out[f"{name}.calls"] = calls[name] / runs
    for name in COUNTS:
        out[name] = tracer.counts[name] / runs
    out["engine.setup_s"] = setup / runs
    for name, (num, den) in RATIOS.items():
        out[name] = out[num] / out[den] if out[den] else 0.0
    out["trace.run_s"] = wall / runs
    out["trace.self_time_share"] = sum(self_time.values()) / wall
    return out
