"""The per-layer benchmark's tracer still fits the program.

``perfbench/spans.py`` wraps functions by name and ends each run's set-up
span at the first per-step synthesis (or the one baseline audit).  A
renamed or bypassed seam would otherwise surface only when the benchmark
runs.
"""
from __future__ import annotations

import importlib.util
import time
from dataclasses import replace
from pathlib import Path

import pytest

import swarmguide.cli as cli
from swarmguide import load_scenario, render_scenario

REPO = Path(__file__).resolve().parent.parent
LETTER_E = REPO / "scenarios" / "letter_e.txt"

_spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("mode", ["monte-carlo", "deterministic"])
@pytest.mark.parametrize("algorithm", ["dsmc", "mh"])
def test_tracer_wraps_live_names_and_finds_the_set_up(tmp_path, algorithm, mode):
    steps = 3
    scenario = replace(load_scenario(LETTER_E), steps=steps, events=(), algorithm=algorithm, mode=mode)
    path = tmp_path / "scenario.txt"
    path.write_text(render_scenario(scenario), encoding="utf-8")
    tracer = spans.Tracer()
    main = tracer.wrap("cli.main", cli.main)
    start = time.perf_counter()
    # installed() raises when a wrapped name does not resolve to the function it names.
    with tracer.installed():
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    metrics = spans.layer_metrics(tracer, 1, time.perf_counter() - start)
    assert metrics["engine.setup_s"] > 0.0
    assert metrics["engine.run_scenario.calls"] == 1
    synthesized = steps if algorithm == "dsmc" else 0
    assert metrics["synthesis.dsmc_recurrent.calls"] == metrics["kernels.synth_recurrent.calls"] == synthesized
    monte_carlo = mode == "monte-carlo"
    assert metrics["kernels.advance_agents.calls"] == metrics["engine.step_agents.calls"] == (steps if monte_carlo else 0)
    # Placement and every move round, each hashed once, however the engine
    # blocks its rounds: the draw count compares across versions.
    assert metrics["rng.draws"] == (scenario.agents * (steps + 1) if monte_carlo else 0)
    # Every matrix a run steps through passes the one audit: each feedback
    # matrix, or the fixed baseline once.
    assert metrics["synthesis.validate_markov.calls"] == (steps if algorithm == "dsmc" else 1)
    # A deterministic run steps through the library's own density step.
    assert metrics["engine.propagate_density.calls"] == (0 if monte_carlo else steps)
    # The dense builders are traced but no run calls them.
    for name in ("graph.laplacian_of", "synthesis.transient_matrix", "synthesis.metropolis_hastings", "synthesis.assemble"):
        assert metrics[f"{name}.calls"] == 0, name
