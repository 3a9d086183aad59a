"""End-to-end acceptance gate.

Each test checks one release criterion at a pinned tolerance and records a
single pass/fail line; conftest replays the lines in the terminal summary so
the verdicts are visible in any pytest run.  The expensive letter-E
simulations are shared module-scoped fixtures; every matrix they synthesize
is audited on the fly and the audits are asserted here as their own
criterion.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swarmguide
import swarmguide._kernels as _kernels
import swarmguide.engine as engine
from swarmguide import (
    Scenario,
    SynthesisParams,
    build_grid_topology,
    choose_d_chsn,
    contraction_certificate,
    convergence_rate_bounds,
    dsmc_column,
    laplacian_of,
    linear_error_update,
    load_scenario,
    render_scenario,
    run_scenario,
    validate_markov,
)

from testutil import (
    advance_by_bin_oracle,
    dense_dsmc,
    local_recurrent_oracle,
    positive_density,
    random_connected_topology,
    random_density,
    zero_sum_vector,
)

REPO = Path(__file__).resolve().parent.parent
LETTER_E = REPO / "scenarios" / "letter_e.txt"
RING = REPO / "scenarios" / "cycle4.txt"

# One audit accumulator across all runs made by this module, and the
# verdict lines replayed by conftest at the end of the session.
AUDITS: list = []
VERDICTS: list = []


def _cli_run(scenario: str, out, **env) -> subprocess.CompletedProcess:
    """``python -m swarmguide run`` in a fresh interpreter that imports the
    same package as this process, installed or not.  ``env`` adds variables
    to the child's environment only; a None value removes one."""
    package_root = str(Path(swarmguide.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    child = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run(
        [sys.executable, "-m", "swarmguide", "run", "--scenario", scenario, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        env={key: value for key, value in child.items() if value is not None},
    )


def _openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return platform.machine().lower() in ("x86_64", "amd64") and "openblas" in str(blas.get("name", "")).lower()


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def _auditing_hook(topology):
    def hook(step, matrix):
        AUDITS.append(validate_markov(matrix, topology))

    return hook


@pytest.fixture(scope="module")
def letter_e_runs():
    scenario = load_scenario(LETTER_E)
    topology = build_grid_topology(scenario.rows, scenario.cols, scenario.hop)
    hook = _auditing_hook(topology)
    dsmc_metrics, _ = run_scenario(scenario, matrix_hook=hook)
    mh_metrics, _ = run_scenario(replace(scenario, algorithm="mh"), matrix_hook=hook)
    return {"scenario": scenario, "dsmc": dsmc_metrics, "mh": mh_metrics}


def test_criterion_01_ring_one_step_density():
    scenario = load_scenario(RING)
    topology = build_grid_topology(2, 2, 1)
    _, snapshots = run_scenario(scenario, snapshot_steps=(1,), matrix_hook=_auditing_hook(topology))
    got = snapshots[1].density
    expected = np.array([0.25, 0.15, 0.3, 0.3])
    worst = float(np.abs(got - expected).max())
    _report(
        "criterion-01 ring one-step density",
        worst <= 1e-12,
        f"max per-entry error {worst:.3e}, tolerance 1e-12",
    )


def test_criterion_02_ring_linear_contraction_constant():
    view = laplacian_of(build_grid_topology(2, 2, 1))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        e = zero_sum_vector(rng, 4)
        e /= np.linalg.norm(e)
        for _ in range(30):
            nxt = linear_error_update(e, view, 3.0)
            worst = max(worst, abs(float(nxt @ nxt) - float(e @ e) / 9.0))
            e = nxt
    _report(
        "criterion-02 ring squared error shrinks ninefold per step",
        worst <= 1e-12,
        f"max deviation from one-ninth {worst:.3e}, tolerance 1e-12",
    )


_GRAPHS: list = []


def _hundred_graphs():
    # Built once so the spectral criteria below run on the same graphs.
    if not _GRAPHS:
        rng = np.random.default_rng(777)
        _GRAPHS.extend(
            random_connected_topology(rng, int(rng.integers(2, 51))) for _ in range(100)
        )
    return _GRAPHS


def test_criterion_03_rate_bound_sandwich_on_random_graphs():
    rng = np.random.default_rng(778)
    worst_low = worst_high = 0.0
    for topo in _hundred_graphs():
        view = laplacian_of(topo)
        d = float(view.max_degree + 1)
        lower, upper = convergence_rate_bounds(view, d)
        for _ in range(10):
            e = zero_sum_vector(rng, topo.m)
            before = float(e @ e)
            nxt = linear_error_update(e, view, d)
            shrink = (before - float(nxt @ nxt)) / before
            worst_low = max(worst_low, lower - shrink)
            worst_high = max(worst_high, shrink - upper)
    ok = worst_low <= 1e-9 and worst_high <= 1e-9
    _report(
        "criterion-03 shrink sandwiched by spectral bounds",
        ok,
        f"worst lower-bound breach {worst_low:.3e}, worst upper-bound breach {worst_high:.3e}, tolerance 1e-9",
    )


def test_criterion_04_spectral_certificates_on_random_graphs():
    worst_excess = -np.inf
    worst_radius = 0.0
    for topo in _hundred_graphs():
        view = laplacian_of(topo)
        report = contraction_certificate(view, float(view.max_degree + 1))
        worst_excess = max(worst_excess, float(report.laplacian_eigs[-1]) - 2.0 * view.max_degree)
        worst_radius = max(worst_radius, report.zero_sum_radius)
        assert report.connected
    ok = worst_excess <= 1e-9 and worst_radius < 1.0
    _report(
        "criterion-04 eigenvalue cap and contraction radius",
        ok,
        f"worst eig excess over twice max degree {worst_excess:.3e} (tol 1e-9), worst radius {worst_radius:.6f} < 1",
    )


def test_criterion_05_letter_e_convergence_and_recovery(letter_e_runs):
    dsmc = letter_e_runs["dsmc"].total_variation
    mh = letter_e_runs["mh"].total_variation
    halved = dsmc[250] < 0.5 * dsmc[0]
    beats_baseline = dsmc[250] < mh[250]
    recovers = dsmc[750] < dsmc[250] + 0.05
    _report(
        "criterion-05 letter-E convergence, baseline gap, recovery",
        halved and beats_baseline and recovers,
        f"tv0 {dsmc[0]:.4f}, tv250 {dsmc[250]:.4f} (mh {mh[250]:.4f}), tv750 {dsmc[750]:.4f}",
    )


def test_criterion_06_converged_swarm_nearly_stops_moving(letter_e_runs):
    dsmc = letter_e_runs["dsmc"]
    mh = letter_e_runs["mh"]
    window_dsmc = dsmc.cumulative_transitions[250] - dsmc.cumulative_transitions[200]
    window_mh = mh.cumulative_transitions[250] - mh.cumulative_transitions[200]
    ratio = window_dsmc / window_mh
    _report(
        "criterion-06 transitions in steps 200-250 below a tenth of baseline",
        ratio < 0.10,
        f"feedback {window_dsmc:.0f} vs baseline {window_mh:.0f}, ratio {ratio:.4f}",
    )


def test_criterion_07_transient_mass_absorbed_in_exactly_layer_count_steps():
    # A 1x6 path with the target on the far end: four transient layers.
    scenario = Scenario(
        rows=1, cols=6, hop=1, agents=100, steps=5, algorithm="dsmc", seed=1,
        mode="deterministic",
        weights=((0, 0, 0, 0, 1, 1),),
        init_weights=((1, 0, 0, 0, 0, 0),),
    )
    topology = build_grid_topology(1, 6, 1)
    _, snapshots = run_scenario(
        scenario, snapshot_steps=(3, 4), matrix_hook=_auditing_hook(topology)
    )
    recurrent = [4, 5]
    mass_before = float(snapshots[3].density[recurrent].sum())
    mass_after = float(snapshots[4].density[recurrent].sum())
    ok = mass_before < 1.0 - 1e-12 and abs(mass_after - 1.0) <= 1e-12
    _report(
        "criterion-07 four-layer path absorbs in exactly four steps",
        ok,
        f"recurrent mass after 3 steps {mass_before:.6f}, after 4 steps 1{mass_after - 1.0:+.3e}",
    )


def test_criterion_08_local_columns_equal_global_matrix():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(200):
        topo = random_connected_topology(rng, int(rng.integers(2, 51)))
        m = topo.m
        v = positive_density(rng, m)
        x = random_density(rng, m, zero_frac=0.25)
        params = choose_d_chsn(laplacian_of(topo))
        full = dense_dsmc(x, v, topo, params)
        j = int(rng.integers(0, m))
        neighbors = np.nonzero(topo.adjacency[:, j] & (np.arange(m) != j))[0]
        col = dsmc_column(
            j,
            np.concatenate([[x[j]], x[neighbors]]),
            np.concatenate([[v[j]], v[neighbors]]),
            neighbors,
            params,
            m,
        )
        worst = max(worst, float(np.abs(col - full[:, j]).max()))
    _report(
        "criterion-08 bin-local column synthesis matches global",
        worst <= 1e-12,
        f"max column mismatch over 200 instances {worst:.3e}, tolerance 1e-12",
    )


def test_criterion_09_every_synthesized_matrix_is_valid(letter_e_runs):
    # letter_e_runs and the earlier scenario tests filled the audit log; the
    # engine also refuses to advance through an invalid matrix, so a pass
    # here covers every matrix used anywhere above.
    assert letter_e_runs is not None
    count = len(AUDITS)
    worst_dev = max(a.max_column_sum_deviation for a in AUDITS)
    worst_entry = min(a.min_entry for a in AUDITS)
    violations = sum(len(a.mask_violations) for a in AUDITS)
    ok = count >= 1500 and worst_dev <= 1e-9 and worst_entry >= 0.0 and violations == 0
    _report(
        "criterion-09 all synthesized matrices audited valid",
        ok,
        f"{count} matrices, worst column-sum deviation {worst_dev:.3e} (tol 1e-9), "
        f"min entry {worst_entry:.3e}, mask violations {violations}",
    )


def test_criterion_10_metrics_bytes_identical_cli_in_process_oracle(letter_e_runs, tmp_path, monkeypatch):
    # The CLI in a fresh interpreter, the in-process run, and an in-process
    # run whose synthesis and sampling are swapped for bin-local oracles (one
    # dsmc_column per bin, one binary search per occupied bin) must write the
    # same metrics bytes.
    out = tmp_path / "cli"
    proc = _cli_run(str(LETTER_E), out)
    assert proc.returncode == 0, proc.stderr
    cli = (out / "metrics.csv").read_bytes()
    in_process = letter_e_runs["dsmc"].to_csv().encode("utf-8")
    monkeypatch.setattr(engine, "dsmc_recurrent", local_recurrent_oracle)
    monkeypatch.setattr(_kernels, "advance_agents", advance_by_bin_oracle)
    oracle_metrics, _ = run_scenario(letter_e_runs["scenario"])
    oracle = oracle_metrics.to_csv().encode("utf-8")
    ok = cli == in_process == oracle
    _report(
        "criterion-10 byte-identical metrics across CLI, in-process and bin-local oracle runs",
        ok,
        f"{len(cli)} bytes, subprocess==in-process: {cli == in_process}, "
        f"in-process==oracle: {in_process == oracle}",
    )


def test_criterion_10_mh_metrics_bytes_identical_cli_in_process_oracle(letter_e_runs, tmp_path, monkeypatch):
    # The same three-way byte check for the fixed baseline chain, whose
    # sampling runs on the stencil values gathered once at set-up.
    scenario = replace(letter_e_runs["scenario"], algorithm="mh")
    path = tmp_path / "letter_e_mh.txt"
    path.write_text(render_scenario(scenario), encoding="utf-8")
    out = tmp_path / "cli"
    proc = _cli_run(str(path), out)
    assert proc.returncode == 0, proc.stderr
    cli = (out / "metrics.csv").read_bytes()
    in_process = letter_e_runs["mh"].to_csv().encode("utf-8")
    monkeypatch.setattr(_kernels, "advance_agents", advance_by_bin_oracle)
    oracle_metrics, _ = run_scenario(scenario)
    oracle = oracle_metrics.to_csv().encode("utf-8")
    ok = cli == in_process == oracle
    _report(
        "criterion-10 byte-identical mh metrics across CLI, in-process and bin-local oracle runs",
        ok,
        f"{len(cli)} bytes, subprocess==in-process: {cli == in_process}, "
        f"in-process==oracle: {in_process == oracle}",
    )


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs numpy on OpenBLAS, on x86-64")
@pytest.mark.parametrize("algorithm", ["dsmc", "mh"])
def test_deterministic_bytes_do_not_depend_on_the_blas_kernel(tmp_path, algorithm):
    # OPENBLAS_CORETYPE makes OpenBLAS use another CPU's kernels, which sum
    # a matrix-vector product in another order; deterministic steps sum over
    # the stencil in a fixed order instead, so the files keep their bytes.
    scenario = replace(load_scenario(LETTER_E), algorithm=algorithm, mode="deterministic")
    path = tmp_path / "letter_e.txt"
    path.write_text(render_scenario(scenario), encoding="utf-8")
    outputs = []
    for coretype in (None, "Nehalem"):
        out = tmp_path / str(coretype)
        proc = _cli_run(str(path), out, OPENBLAS_CORETYPE=coretype)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("metrics.csv", "final_snapshot.csv")])
    assert outputs[0] == outputs[1]
