"""The paired-benchmark script's statistics and verdicts on fixed numbers,
and its run reader on a stand-in command; no benchmark is run."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, quartiles 1.225 and 1.675


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((1.225, 1.45, 1.675))
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert bench_pairs.quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)


@pytest.mark.parametrize(
    "change,bound,better,expected",
    [
        # The spread, 0.45 / 1.45 = 31% of the median, is wider than a 25%
        # bound: a median 10% higher is unresolved, and one 40% higher worse.
        ([v * 1.1 for v in PARENT], 0.25, "lower", "unresolved"),
        ([v * 1.4 for v in PARENT], 0.25, "lower", "worse"),
        # Inside a 35% bound the same 10% is not worse, 40% still worse.
        ([v * 1.1 for v in PARENT], 0.35, "lower", "not worse"),
        ([v * 1.4 for v in PARENT], 0.35, "lower", "worse"),
        # Every run of the change below every run of the parent.
        ([v * 0.5 for v in PARENT], 0.25, "lower", "not worse"),
        # Where higher is better, the same numbers read the other way.
        ([v * 0.5 for v in PARENT], 0.35, "higher", "worse"),
        ([v * 2.0 for v in PARENT], 0.25, "higher", "not worse"),
        ([v * 0.9 for v in PARENT], 0.35, "higher", "not worse"),
        ([v * 0.9 for v in PARENT], 0.25, "higher", "unresolved"),
        # The same runs again are not worse, but a zero bound cannot be
        # resolved over a spread.
        (PARENT, 0.0, "lower", "unresolved"),
    ],
)
def test_verdict_on_fixed_runs(change, bound, better, expected):
    assert bench_pairs.verdict(PARENT, change, bound, better) == expected


def test_verdict_on_runs_without_spread_and_on_a_zero_median():
    assert bench_pairs.verdict([1.0] * 10, [1.0] * 10, 0.0, "lower") == "not worse"
    assert bench_pairs.verdict([1.0] * 10, [1.0] * 9 + [2.0], 0.0, "lower") == "not worse"
    assert bench_pairs.verdict([1.0] * 10, [1.0] * 4 + [2.0] * 6, 0.5, "lower") == "worse"
    assert bench_pairs.verdict([0.0] * 4, [0.0] * 4, 0.1, "lower") == "not worse"
    assert bench_pairs.verdict([0.0] * 4, [0.0, 0.0, 1.0, 1.0], 0.1, "lower") == "worse"
    assert bench_pairs.verdict([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], 0.1, "lower") == "unresolved"


def test_verdict_refuses_an_unknown_direction_and_an_empty_side():
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT, 0.25, "faster")
    with pytest.raises(ValueError):
        bench_pairs.verdict([], PARENT, 0.25, "lower")


def test_summary_counts_wins_and_ties_for_neither_side():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 3.5, 3.0]  # won, tie, lost, won
    summary = bench_pairs.summarize(parent, change, 0.25, "lower")
    assert (summary["change_won"], summary["ties"], summary["pairs"]) == (2, 1, 4)
    assert summary["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert summary["change"] == {"median": 2.5, "q1": 1.625, "q3": 3.125}
    assert summary["verdict"] == "unresolved"
    assert bench_pairs.summarize(parent, change, 0.25, "higher")["change_won"] == 1


def test_a_run_passes_the_workload_alone_and_reads_the_json_last_line(tmp_path):
    script = (
        "import json, sys; print('a log line'); print(json.dumps({'correct': True, 'attempted': 3, "
        "'failed': 0, 'metrics': {'argv': {'value': sys.argv[1:], 'unit': 'list'}}}))"
    )
    record = bench_pairs.run_once([sys.executable, "-c", script], tmp_path, "letter_e")
    assert record == {
        "exit": 0, "correct": True, "attempted": 3, "failed": 0, "metrics": {"argv": ["--workload", "letter_e"]},
    }


def test_a_run_without_a_result_is_not_correct(tmp_path):
    script = "import sys; print('no result', file=sys.stderr); sys.exit(3)"
    record = bench_pairs.run_once([sys.executable, "-c", script], tmp_path, "letter_e")
    assert record == {"exit": 3, "correct": False, "stderr_tail": ["no result"]}


@pytest.mark.parametrize("flag", ["--seed", "--seconds", "--pairs"])
def test_the_seed_run_length_and_pair_count_are_not_options(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["parent", "change", "--out", "out.json", flag, "4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# A stand-in benchmark: each run prints the metrics its directory's
# ``metrics.json`` holds as its JSON last line.
STAND_IN = (
    "import json; metrics = json.load(open('metrics.json')); "
    "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, "
    "'metrics': {k: {'value': v} for k, v in metrics.items()}}))"
)


# The stand-in parent's source: 3 + 2 lines in ``src/swarmguide/*.py``,
# beside files ``wc -l src/swarmguide/*.py`` does not count.  The stand-in
# change has no source.
PARENT_SOURCE = {
    "src/swarmguide/a.py": "x = 1\ny = 2\nz = 3\n",
    "src/swarmguide/b.py": "def f():\n    return 1\n",
    "src/swarmguide/notes.txt": "not\ncounted\n",
    "src/swarmguide/sub/c.py": "not counted\n",
}


# The stand-in benchmark's files: ``BENCHMARK.json`` declares ``bench``, and
# each tree's ``bench/__pycache__`` holds bytes of its own, never compared.
BENCH_FILES = {"bench/run.py": "print()\n", "bench/data/sizes.txt": "10\n"}


def _stand_in_trees(tmp_path, parent_metrics, change_metrics, change_bench=BENCH_FILES):
    spec = {
        "command": [sys.executable, "-c", STAND_IN],
        "paths": ["bench"],
        "workloads": [{"name": "small"}, {"name": "large"}],
        "end_to_end": [
            {"name": "run_s", "bound": 0.25, "better": "lower"},
            {"name": "final_tv", "bound": 0.25, "better": "lower"},
        ],
    }
    trees = []
    for side, metrics in (("parent", parent_metrics), ("change", change_metrics)):
        tree = tmp_path / side
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        (tree / "metrics.json").write_text(json.dumps(metrics), encoding="utf-8")
        bench = BENCH_FILES if side == "parent" else change_bench
        files = {**bench, f"bench/__pycache__/run.{side}.pyc": side, **(PARENT_SOURCE if side == "parent" else {})}
        for name, text in files.items():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_text(text, encoding="utf-8")
        trees.append(str(tree))
    return trees


def test_main_exits_1_and_names_each_worse_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    trees = _stand_in_trees(tmp_path, {"run_s": 1.0, "final_tv": 0.1}, {"run_s": 1.5, "final_tv": 0.1})
    assert bench_pairs.main([*trees, "--out", str(tmp_path / "out.json")]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == ["worse: small run_s", "worse: large run_s"]
    assert out.splitlines()[-2:] == ["benchmark files identical", "src_lines parent 5 -> change 0"]
    record = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert record["src_lines"] == {"parent": 5, "change": 0}
    assert record["benchmark_same"] is True
    summary = record["summary"]
    assert summary["small"]["metrics"]["final_tv"]["verdict"] == "not worse"
    assert summary["large"]["metrics"]["run_s"]["verdict"] == "worse"


def test_main_exits_0_when_no_run_is_bad_and_no_verdict_worse(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    trees = _stand_in_trees(tmp_path, {"run_s": 1.0, "final_tv": 0.1}, {"run_s": 0.9, "final_tv": 0.1})
    assert bench_pairs.main([*trees, "--out", str(tmp_path / "out.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-2:] == ["benchmark files identical", "src_lines parent 5 -> change 0"]
    record = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert (record["src_lines"], record["benchmark_same"]) == ({"parent": 5, "change": 0}, True)


@pytest.mark.parametrize(
    "change_bench,differing",
    [
        ({**BENCH_FILES, "bench/run.py": "print(1)\n"}, "bench/run.py"),
        ({"bench/run.py": "print()\n"}, "bench/data/sizes.txt"),
        ({**BENCH_FILES, "bench/data/extra.txt": "\n"}, "bench/data/extra.txt"),
    ],
)
def test_main_names_differing_benchmark_files_and_keeps_its_exit_code(
    tmp_path, monkeypatch, capsys, change_bench, differing
):
    # A file changed, gone or added under a declared path differs; the
    # verdicts alone decide the exit code.
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    trees = _stand_in_trees(tmp_path, {"run_s": 1.0, "final_tv": 0.1}, {"run_s": 0.9, "final_tv": 0.1}, change_bench)
    assert bench_pairs.main([*trees, "--out", str(tmp_path / "out.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-2:] == [f"benchmark files differ: {differing}", "src_lines parent 5 -> change 0"]
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["benchmark_same"] is False
