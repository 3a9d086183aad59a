import builtins
import io
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from swarmguide import (
    Event,
    Scenario,
    ScenarioFormatError,
    build_grid_topology,
    load_scenario,
    metropolis_hastings,
    parse_scenario,
    partition_states,
    render_scenario,
)
import swarmguide.cli as cli
import swarmguide.engine as engine
from swarmguide.engine import SETTINGS, Snapshot, run_scenario
from swarmguide.cli import MAX_AGENTS, MAX_BINS, MAX_STENCIL_SLOTS, MAX_VERIFY_BINS, main

from testutil import brute_force_grid_adjacency, dense_dsmc, dense_mh_oracle, snapshot_csv_oracle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINI = """\
rows=2
cols=2
hop=1
agents=40
steps=3
algorithm=dsmc
seed=5
mode=monte-carlo
map:
11
6c
"""


def test_parse_minimal_scenario():
    s = parse_scenario(MINI)
    assert (s.rows, s.cols, s.hop) == (2, 2, 1)
    assert (s.agents, s.steps, s.seed) == (40, 3, 5)
    assert s.algorithm == "dsmc"
    assert s.mode == "monte-carlo"
    assert s.weights == ((1, 1), (6, 12))
    assert s.init_weights is None
    assert s.events == ()


def test_parse_shipped_scenarios():
    ring = load_scenario(SCENARIOS / "cycle4.txt")
    assert ring.weights == ((1, 1), (6, 12))
    assert ring.init_weights == ((13, 7), (0, 0))
    assert ring.mode == "deterministic"

    letter = load_scenario(SCENARIOS / "letter_e.txt")
    assert letter.rows == letter.cols == 20
    assert letter.agents == 5000
    assert letter.steps == 750
    assert letter.events == (Event(step=250, kind="remove_fraction", fraction=0.3333),)
    # The desired support is the 92 marked cells.
    assert sum(sum(1 for w in row if w) for row in letter.weights) == 92


def test_parse_weight_charset():
    s = parse_scenario(MINI.replace("11\n6c", "0.\n9z"))
    assert s.weights == ((0, 0), (9, 35))


def test_round_trip_parse_render():
    cases = [
        parse_scenario(MINI),
        load_scenario(SCENARIOS / "cycle4.txt"),
        load_scenario(SCENARIOS / "letter_e.txt"),
        Scenario(
            3, 4, 2, 7, 9, "mh", 123, "deterministic",
            weights=tuple(tuple(range(4)) for _ in range(3)),
            init_weights=tuple(tuple([1, 0, 35, 2]) for _ in range(3)),
            events=(
                Event(step=2, kind="remove_fraction", fraction=0.125),
                Event(step=9, kind="remove_fraction", fraction=0.3333),
            ),
        ),
    ]
    for s in cases:
        assert parse_scenario(render_scenario(s)) == s


def test_blank_lines_ignored_between_keys():
    s = parse_scenario(MINI.replace("agents=40\n", "agents=40\n\n\n"))
    assert s.agents == 40


@pytest.mark.parametrize(
    "mutate,fragment,lineno",
    [
        (lambda t: t.replace("hop=1\n", ""), "missing required keys: hop", None),
        (lambda t: t.replace("map:\n11\n6c\n", ""), "missing map", None),
        (lambda t: t.replace("agents=40", "agents=forty"), "agents must be an integer", 4),
        (lambda t: t.replace("seed=5", "seed=5\nseed=6"), "duplicate key", 8),
        (lambda t: t.replace("seed=5", "colour=red\nseed=5"), "unknown key", 7),
        (lambda t: t.replace("11\n6c", "111\n6c"), "must have 2 characters", 10),
        (lambda t: t.replace("11\n6c", "11\n6!"), "invalid weight character", 11),
        (lambda t: t.replace("11\n6c\n", "11"), "file ended", None),
        (lambda t: t.replace("algorithm=dsmc", "algorithm=magic"), "unknown algorithm", 6),
        (lambda t: t.replace("mode=monte-carlo", "mode=psychic"), "unknown mode", 8),
        (lambda t: t.replace("seed=5", "event=remove_fraction,9,0.5\nseed=5"), "outside", 7),
        (lambda t: t.replace("seed=5", "event=remove_fraction,1\nseed=5"), "event must be", 7),
        (lambda t: t.replace("seed=5", "event=remove_fraction,x,0.5\nseed=5"), "malformed event", 7),
        (lambda t: t.replace("seed=5", "event=remove_fraction,1,1.5\nseed=5"), "fraction must be in (0, 1), got 1.5", 7),
        (lambda t: t.replace("seed=5", "seed 5"), "expected key=value", 7),
        (lambda t: "map:\n" + t, "before rows= and cols=", 1),
        (lambda t: t + "map:\n11\n6c\n", "duplicate map", 12),
        # A grid section with no positive weight is refused at its header.
        (lambda t: t.replace("11\n6c", "..\n00"), "map must be positive on at least one bin", 9),
        (lambda t: t + "init_map:\n..\n.0\n", "init_map must be positive on at least one bin", 12),
    ],
)
def test_parse_errors_carry_line_numbers(mutate, fragment, lineno):
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(mutate(MINI))
    assert fragment in str(err.value)
    if lineno is not None:
        assert f"line {lineno}:" in str(err.value)


def test_parse_refuses_oversized_grids_and_swarms():
    # A 5000x5000 grid is refused at its cols= line, before the 25-million
    # character map is read or any m x m table is allocated.
    huge = MINI.replace("rows=2", "rows=5000").replace("cols=2", "cols=5000")
    huge = huge.replace("map:\n11\n6c\n", "map:\n" + ("#" * 5000 + "\n") * 5000)
    with pytest.raises(ScenarioFormatError, match=f"line 2: a 5000x5000 grid has 25000000 bins, above the limit of {MAX_BINS}"):
        parse_scenario(huge)
    with pytest.raises(ScenarioFormatError, match=f"line 4: agents={MAX_AGENTS + 1} exceeds the limit"):
        parse_scenario(MINI.replace("agents=40", f"agents={MAX_AGENTS + 1}"))
    assert parse_scenario(MINI.replace("agents=40", f"agents={MAX_AGENTS}")).agents == MAX_AGENTS
    # Whichever of rows= and cols= comes second carries the error.
    with pytest.raises(ScenarioFormatError, match=f"line 2: a 2x{MAX_BINS // 2 + 1} grid"):
        parse_scenario(MINI.replace("rows=2\ncols=2", f"cols={MAX_BINS // 2 + 1}\nrows=2"))


def test_parse_refuses_grids_whose_stencil_does_not_fit():
    # 100x100 bins at hop 198 pass the bin limit, but set-up would lay out
    # 10^4 bins x 199^2 offsets.  Refused at whichever of rows=, cols= and
    # hop= comes last, before anything is built.
    wide = MINI.replace("rows=2", "rows=100").replace("cols=2", "cols=100").replace("hop=1", "hop=198")
    slots = 10_000 * 199**2
    message = f"a 100x100 grid at hop 198 has {slots} stencil slots, above the limit of {MAX_STENCIL_SLOTS}"
    with pytest.raises(ScenarioFormatError, match=f"^line 3: {message}$"):
        parse_scenario(wide)
    with pytest.raises(ScenarioFormatError, match="^line 3: a 100x100 grid at hop 198"):
        parse_scenario(wide.replace("rows=100\ncols=100\nhop=198", "hop=198\nrows=100\ncols=100"))
    # At hop 2 the same grid fits; what is refused next is the 2x2 map.
    with pytest.raises(ScenarioFormatError, match="map row must have 100 characters"):
        parse_scenario(wide.replace("hop=198", "hop=2"))


@pytest.mark.parametrize("rows,cols,hop", [(1, 1, 1), (1, 7, 3), (5, 2, 9), (4, 6, 2), (9, 9, 4), (3, 8, 30)])
def test_stencil_limit_counts_the_offsets_that_fit_the_grid(monkeypatch, rows, cols, hop):
    # The offsets (dr, dc) within hop, clipped to the grid, are the
    # neighbours of the centre bin of a (2 rows - 1) x (2 cols - 1) grid.
    centre = brute_force_grid_adjacency(2 * rows - 1, 2 * cols - 1, hop)[(rows - 1) * (2 * cols - 1) + cols - 1]
    slots = rows * cols * int(centre.sum())
    text = MINI.replace("rows=2", f"rows={rows}").replace("cols=2", f"cols={cols}").replace("hop=1", f"hop={hop}")
    text = text.replace("map:\n11\n6c\n", "map:\n" + ("#" * cols + "\n") * rows)
    monkeypatch.setattr(engine, "MAX_STENCIL_SLOTS", slots)
    assert parse_scenario(text).hop == hop
    monkeypatch.setattr(engine, "MAX_STENCIL_SLOTS", slots - 1)
    with pytest.raises(ScenarioFormatError, match=f"^line 3: .* has {slots} stencil slots"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "old,new,lineno",
    [
        ("rows=2", "rows=-2", 1),
        ("rows=2", "rows=-1", 1),
        ("cols=2", "cols=-3", 2),
        ("hop=1", "hop=0", 3),
        ("agents=40", "agents=0", 4),
        ("steps=3", "steps=-1", 5),
    ],
)
def test_parse_refuses_sizes_below_one_at_their_line(tmp_path, capsys, old, new, lineno):
    # A negative row count once sent the map parser back over earlier lines
    # (a duplicate key or map: section), a negative column count blamed the
    # map rows, hop=0 parsed and failed only once the run started, and
    # agents or steps below 1 were refused with no line number.
    key, _, value = new.partition("=")
    text = MINI.replace(old, new)
    with pytest.raises(ScenarioFormatError, match=f"^line {lineno}: {key} must be at least 1, got {value}$"):
        parse_scenario(text)
    path = tmp_path / "scenario.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"line {lineno}: {key} must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_settings_table_is_the_scenario_scalar_fields_in_order():
    assert SETTINGS == tuple(f.name for f in fields(Scenario) if f.type in ("int", "str"))
    # Every key differs from MINI's and from every other key's value.
    s = Scenario(
        3, 5, 2, 11, 13, "mh", 17, "deterministic",
        weights=((1, 0, 2, 0, 35),) * 3,
        init_weights=((0, 9, 0, 0, 10),) * 3,
        events=(Event(step=4, kind="remove_fraction", fraction=0.25),),
    )
    text = render_scenario(s)
    assert text.splitlines()[: len(SETTINGS)] == [f"{key}={getattr(s, key)}" for key in SETTINGS]
    assert parse_scenario(text) == s


_SETTINGS_OK = dict(rows=2, cols=2, hop=1, agents=40, steps=3, algorithm="dsmc", seed=5, mode="monte-carlo")


@pytest.mark.parametrize(
    "changes",
    [
        dict(steps=0),
        dict(agents=MAX_AGENTS + 1),
        dict(algorithm="magic"),
        dict(mode="psychic"),
        dict(rows=101, cols=100),
        dict(rows=100, cols=100, hop=198),
    ],
)
def test_scenario_and_parser_refuse_a_bad_setting_with_one_message(changes):
    # One rule per case: sizes below 1, the agent limit, the two choices,
    # the bin limit and the stencil limit.  Each setting the parser refuses
    # is refused at its own line, before the map is read.
    settings = {**_SETTINGS_OK, **changes}
    text = "".join(f"{key}={settings[key]}\n" for key in SETTINGS) + "map:\n##\n##\n"
    with pytest.raises(ScenarioFormatError) as parsed:
        parse_scenario(text)
    lineno, message = re.fullmatch(r"line (\d+): (.*)", str(parsed.value)).groups()
    assert int(lineno) == 1 + SETTINGS.index(max(changes, key=SETTINGS.index))
    with pytest.raises(ValueError) as built:
        Scenario(**settings, weights=((1, 1), (1, 1)))
    assert str(built.value) == message


def _read(path: Path) -> str:
    data = path.read_bytes()
    assert b"\r" not in data
    return data.decode("utf-8")


def test_cmd_run_writes_metrics_snapshot_and_resolved_scenario(tmp_path, capsys):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "final_total_variation=" in captured

    metrics = _read(out / "metrics.csv").splitlines()
    assert metrics[0] == "step,total_variation,transitions,cumulative_transitions,num_agents"
    assert len(metrics) == 5  # header + steps 0..3
    assert metrics[1].split(",")[4] == "40"

    snapshot = _read(out / "final_snapshot.csv").splitlines()
    assert snapshot[0] == "bin,row,col,desired,count,density"
    assert len(snapshot) == 5
    counts = [float(line.split(",")[4]) for line in snapshot[1:]]
    assert sum(counts) == 40

    resolved = _read(out / "resolved_scenario.txt")
    assert parse_scenario(resolved) == parse_scenario(MINI)


def test_cmd_run_seed_override_changes_resolved_scenario(tmp_path):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "a"), "--seed", "99"]) == 0
    resolved = parse_scenario(_read(tmp_path / "a" / "resolved_scenario.txt"))
    assert resolved.seed == 99


def test_cmd_run_is_deterministic(tmp_path):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "a")])
    main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()


def test_cmd_run_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cmd_run_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(MINI.replace("hop=1\n", ""), encoding="utf-8")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "missing required keys" in capsys.readouterr().err


def test_cmd_run_refuses_a_disconnected_support_at_set_up(tmp_path, capsys):
    # The map parses; the run's set-up refuses it, with exit code 1.
    scenario = tmp_path / "split.txt"
    scenario.write_text(
        MINI.replace("rows=2\ncols=2", "rows=3\ncols=3").replace("11\n6c\n", "#.#\n...\n...\n"),
        encoding="utf-8",
    )
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: bins with positive desired density must form a connected subgraph\n"
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_cmd_run_exits_1_when_a_matrix_fails_its_audit(tmp_path, capsys, monkeypatch):
    synthesize = engine.dsmc_recurrent
    monkeypatch.setattr(engine, "dsmc_recurrent", lambda *args: synthesize(*args) * 1.2)
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert "failed validation at step 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_cmd_compare_writes_per_algorithm_metrics_and_summary(tmp_path):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario), "--algorithms", "dsmc,mh", "--out", str(out)]) == 0
    summary = _read(out / "summary.csv").splitlines()
    assert summary[0] == "algorithm,step,total_variation,cumulative_transitions"
    # Default checkpoints clamp to the horizon: steps 0 and 3 for each algorithm.
    assert [row.split(",")[:2] for row in summary[1:]] == [
        ["dsmc", "0"], ["dsmc", "3"], ["mh", "0"], ["mh", "3"],
    ]
    for algo in ("dsmc", "mh"):
        lines = _read(out / f"metrics_{algo}.csv").splitlines()
        assert len(lines) == 5
    # Identical seeds: both algorithms start from the same placement.
    d0 = float(summary[1].split(",")[2])
    m0 = float(summary[3].split(",")[2])
    assert d0 == m0


def test_cmd_compare_custom_checkpoints(tmp_path):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    out = tmp_path / "cmp"
    assert main([
        "compare", "--scenario", str(scenario), "--algorithms", "dsmc",
        "--out", str(out), "--checkpoints", "1,2",
    ]) == 0
    rows = _read(out / "summary.csv").splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["1", "2"]


def test_cmd_compare_rejects_bad_inputs(tmp_path, capsys):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario), "--algorithms", "dsmc,magic", "--out", str(out)]) == 2
    assert "unknown algorithm" in capsys.readouterr().err
    assert main([
        "compare", "--scenario", str(scenario), "--algorithms", "dsmc",
        "--out", str(out), "--checkpoints", "9",
    ]) == 2
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--algorithms", ","], "error: no algorithms given\n"),
        (["--checkpoints", "0,x"], "error: checkpoints must be comma-separated integers, got '0,x'\n"),
    ],
)
def test_cmd_compare_refuses_empty_algorithms_and_bad_checkpoints(tmp_path, capsys, flags, message):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_cmd_verify_ring_fixture(capsys):
    assert main(["verify", "--fixture", "cycle4"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert values["fixture"] == "cycle4"
    assert values["bins"] == "4"
    assert float(values["zero_sum_radius"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert float(values["rate_lower"]) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert float(values["rate_upper"]) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert values["certificates_ok"] == "true"


def test_cmd_verify_grid(capsys):
    assert main(["verify", "--rows", "4", "--cols", "4", "--hop", "1"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert values["bins"] == "16"
    assert values["max_degree"] == "4"
    assert values["d_chsn_used"] == "5.0"


def test_cmd_verify_disconnected_fixture_fails(capsys):
    # The report is printed, and its lambda_2 flag decides connectivity.
    assert main(["verify", "--fixture", "disconnected2"]) == 1
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert values["bins"] == "2"
    assert values["connected"] == "false"
    assert values["contraction_ok"] == "false"
    assert values["certificates_ok"] == "false"


def test_cmd_verify_refuses_oversized_grids_before_building_them(monkeypatch, capsys):
    # Only grids within the limit get as far as building a topology; an
    # oversized one is refused with exit code 2 and nothing allocated for it.
    class Built(Exception):
        pass

    def build(rows, cols, hop):
        raise Built

    monkeypatch.setattr(cli, "build_grid_topology", build)
    tracemalloc.start()
    try:
        code = main(["verify", "--rows", "1000", "--cols", "1000", "--hop", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1e6
    assert f"a 1000x1000 grid has 1000000 bins, above the verify limit of {MAX_VERIFY_BINS}" in capsys.readouterr().err
    # 60x60 bins fit the verify limit, but not at a hop that reaches across the grid.
    assert main(["verify", "--rows", "60", "--cols", "60", "--hop", "118"]) == 2
    assert f"a 60x60 grid at hop 118 has {3600 * 119**2} stencil slots" in capsys.readouterr().err
    with pytest.raises(Built):
        main(["verify", "--rows", "1", "--cols", str(MAX_VERIFY_BINS), "--hop", "1"])


@pytest.mark.parametrize(
    "args,flag,value",
    [
        (["--rows", "-100", "--cols", "-100", "--hop", "1"], "--rows", -100),
        (["--rows", "0", "--cols", "5", "--hop", "1"], "--rows", 0),
        (["--rows", "5", "--cols", "-1", "--hop", "1"], "--cols", -1),
        (["--rows", "5", "--cols", "5", "--hop", "0"], "--hop", 0),
    ],
)
def test_cmd_verify_refuses_sizes_below_one(capsys, args, flag, value):
    # Refused as usage errors before the bin count is read: (-100) x (-100)
    # is not a 10000-bin grid.
    assert main(["verify", *args]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"


def test_cmd_verify_usage_errors(capsys):
    assert main(["verify"]) == 2
    assert "needs" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify", "--fixture", "bogus"])  # argparse rejects the choice


def test_cmd_export_matrix_first_step_matches_library(tmp_path):
    out = tmp_path / "m0.csv"
    assert main([
        "export-matrix", "--scenario", str(SCENARIOS / "cycle4.txt"),
        "--step", "0", "--out", str(out),
    ]) == 0
    got = np.array([[float(v) for v in line.split(",")] for line in _read(out).splitlines()])
    topo = build_grid_topology(2, 2, 1)
    expected = dense_dsmc(
        np.array([0.65, 0.35, 0.0, 0.0]),
        np.array([0.05, 0.05, 0.3, 0.6]),
        topo,
        3.0,
    )
    assert np.array_equal(got, expected)


def test_cmd_export_matrix_baseline_is_metropolis(tmp_path):
    scenario = tmp_path / "mh.txt"
    scenario.write_text(MINI.replace("algorithm=dsmc", "algorithm=mh"), encoding="utf-8")
    out = tmp_path / "m1.csv"
    assert main(["export-matrix", "--scenario", str(scenario), "--step", "1", "--out", str(out)]) == 0
    got = np.array([[float(v) for v in line.split(",")] for line in _read(out).splitlines()])
    topo = build_grid_topology(2, 2, 1)
    v = np.array([1.0, 1.0, 6.0, 12.0]) / 20.0
    expected = dense_mh_oracle(v, brute_force_grid_adjacency(2, 2, 1), partition_states(topo, v))
    assert np.array_equal(got, expected)
    assert np.array_equal(got, metropolis_hastings(v, topo))


def test_cmd_export_matrix_step_out_of_range(tmp_path, capsys):
    assert main([
        "export-matrix", "--scenario", str(SCENARIOS / "cycle4.txt"),
        "--step", "2", "--out", str(tmp_path / "m.csv"),
    ]) == 2
    assert "outside" in capsys.readouterr().err


def test_unwritable_outputs_are_usage_errors(tmp_path, capsys):
    # A directory where the matrix should go, and a regular file where the
    # run's output directory should go: each an OSError, reported as usage.
    cycle4 = str(SCENARIOS / "cycle4.txt")
    assert main(["export-matrix", "--scenario", cycle4, "--step", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    assert main(["run", "--scenario", cycle4, "--out", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_export_matrix_to_stdout_writes_only_the_matrix(tmp_path):
    # With stdout redirected to a file and the matrix written to /dev/stdout,
    # the status line goes to stderr instead of over the matrix.
    argv = ["export-matrix", "--scenario", str(SCENARIOS / "cycle4.txt"), "--step", "0"]
    assert main([*argv, "--out", str(tmp_path / "file.csv")]) == 0
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    with open(tmp_path / "redirected.csv", "wb") as stdout:
        done = subprocess.run(
            [sys.executable, "-m", "swarmguide", *argv, "--out", "/dev/stdout"],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
        )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "wrote /dev/stdout (4x4)\n"
    assert (tmp_path / "redirected.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


def test_write_text_rewrites_the_same_file_to_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out" / "a.csv"
    cli._write_text(path, "0123456789\n" * 3)
    path.chmod(0o640)
    inode = path.stat().st_ino
    # Over a longer file, over a shorter one, and to nothing.
    for text in ("short\n", "a longer text than the one before it, \u00e9\n" * 2, ""):
        cli._write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert path.stat().st_ino == inode
        assert path.stat().st_mode & 0o777 == 0o640


def test_write_text_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old contents, longer than the new ones\n", encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    cli._write_text(link, "new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"new\n"


def test_write_text_never_truncates_a_non_regular_target(tmp_path, monkeypatch):
    cuts = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length) or ftruncate(fd, length))
    # The spy sees a longer regular file cut ...
    cli._write_text(tmp_path / "a.csv", "xyz")
    cli._write_text(tmp_path / "a.csv", "x")
    assert cuts == [1]
    # ... and never the device, even when it reports a size above the new bytes.
    cli._write_text(Path(os.devnull), "x" * 100)
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(fstat(fd)[:6] + (10**6,) + fstat(fd)[7:]))
    cli._write_text(Path(os.devnull), "x")
    assert cuts == [1]


def test_outputs_are_rewritten_without_truncating_opens_or_renames(tmp_path, monkeypatch):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(MINI, encoding="utf-8")
    out = tmp_path / "out"
    opened, written = [], []
    os_open, io_open = os.open, io.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((Path(path), flags))
        return os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and set(mode) & set("wax+"):
            written.append(Path(file))
        return io_open(file, mode, *args, **kwargs)

    def forbid(*args, **kwargs):
        raise AssertionError(f"an output was renamed over: {args}")

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(io, "open", spy_open)
    monkeypatch.setattr(os, "replace", forbid)
    monkeypatch.setattr(os, "rename", forbid)
    commands = [
        ["run", "--scenario", str(scenario), "--out", str(out / "run")],
        ["compare", "--scenario", str(scenario), "--out", str(out / "cmp")],
        ["export-matrix", "--scenario", str(scenario), "--step", "1", "--out", str(out / "m.csv")],
    ]
    for _ in range(2):  # the second time over the first time's files
        for argv in commands:
            assert main(argv) == 0
    outputs = [
        out / "run" / "metrics.csv", out / "run" / "final_snapshot.csv", out / "run" / "resolved_scenario.txt",
        out / "cmp" / "metrics_dsmc.csv", out / "cmp" / "metrics_mh.csv", out / "cmp" / "summary.csv",
        out / "m.csv",
    ]
    mine = [(path, flags) for path, flags in opened if out in path.parents]
    assert [path for path, _ in mine] == outputs * 2
    assert not [path for path, flags in mine if flags & os.O_TRUNC]
    assert not [path for path in written if out in path.parents]


def test_rerun_into_a_used_directory_matches_a_fresh_run(tmp_path):
    letter_e = str(SCENARIOS / "letter_e.txt")
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    assert main(["run", "--scenario", letter_e, "--out", str(fresh)]) == 0
    names = ("metrics.csv", "final_snapshot.csv", "resolved_scenario.txt")
    used.mkdir()
    for name in names:
        (used / name).write_bytes(b"junk," * ((fresh / name).stat().st_size // 5 + 100))
    for _ in range(2):
        assert main(["run", "--scenario", letter_e, "--out", str(used)]) == 0
        for name in names:
            assert (used / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("mode", ["monte-carlo", "deterministic"])
def test_snapshot_csv_matches_the_per_bin_writer(mode):
    # Both modes' real snapshots: integral counts in Monte Carlo mode,
    # fractional ones in deterministic mode.
    scenario = load_scenario(SCENARIOS / "letter_e.txt")
    scenario = replace(scenario, mode=mode, steps=3, events=())
    _, snapshots = run_scenario(scenario, snapshot_steps=(0, 3))
    for snapshot in snapshots.values():
        assert cli._snapshot_csv(scenario, snapshot) == snapshot_csv_oracle(scenario, snapshot)
    # Values whose text is easy to get wrong, each twice: signed zeros,
    # subnormals, 1e-05 (where repr switches to an exponent) and 1e-04, 1e16
    # (an integral count past 2^53), integral and fractional counts.
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e-04, 1e16, 3.0, 2.5, 1.0 / 3.0]
    grid = replace(scenario, rows=4, cols=5, hop=1, weights=((1, 0, 2, 0, 3),) * 4, init_weights=None)
    snapshot = Snapshot(step=0, counts=np.array(special * 2), density=np.array(special[::-1] * 2))
    text = cli._snapshot_csv(grid, snapshot)
    assert text == snapshot_csv_oracle(grid, snapshot)
    assert text.splitlines()[4:11] == [
        "3,0,3,0.0,2.2250738585072014e-308,1e+16",
        "4,0,4,0.125,1e-05,0.0001",
        "5,1,0,0.041666666666666664,0.0001,1e-05",
        "6,1,1,0.0,10000000000000000,2.2250738585072014e-308",
        "7,1,2,0.08333333333333333,3,5e-324",
        "8,1,3,0.0,2.5,-0.0",
        "9,1,4,0.125,0.3333333333333333,0.0",
    ]


def test_texts_formats_by_bit_pattern_in_the_input_shape():
    matrix = np.array([[0.0, -0.0, 0.0], [1e-05, 5e-324, 1e-05]])
    assert cli._texts(matrix) == [["0.0", "-0.0", "0.0"], ["1e-05", "5e-324", "1e-05"]]
    calls = []
    assert cli._texts(np.array([2.0, 2.0, -0.0, 0.5]), lambda v: calls.append(v) or repr(v)) == ["2.0", "2.0", "-0.0", "0.5"]
    assert sorted(calls) == [-0.0, 0.5, 2.0]
