"""Paired benchmark runs of two source trees, the parent and the change.

Usage::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out FILE

Each directory is a full source checkout, for instance a ``git archive`` of
the parent commit and a copy of the change.  For every workload that
``BENCHMARK.json`` in PARENT_DIR declares, the script runs that file's
``command`` with ``--workload W`` and no other flag in each directory, so
the seed and run length are the benchmark's own.  It runs one process at a
time, ``PAIRS`` times per workload, alternating which side runs first (even
pairs start with the parent), and reads each run's result from the JSON
last line of its output.

FILE receives every run, and per workload and end-to-end metric each
side's median and quartiles, the pairs the change won and the tied
pairs (a tie counts for neither side), and a verdict from that metric's
``bound`` and ``better`` in ``BENCHMARK.json`` (see ``verdict``).  A run that
exits non-zero, prints no result or reports ``correct: false`` is listed
under ``bad_runs``.  The script exits 1 when any run is bad or any verdict
is ``worse``, and names each worse workload and metric on stderr.  It
also records each tree's source size, ``src_lines`` (see ``src_lines``).
It imports nothing from ``perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` reads than ``parent``, as a fraction of
    ``parent``: positive when worse, negative when better.  A zero parent
    gives 0 for an equal change and infinity either way otherwise."""
    diff = change - parent if better == "lower" else parent - change
    if parent == 0.0:
        return 0.0 if diff == 0.0 else diff * float("inf")
    return diff / abs(parent)


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """``"worse"``, ``"unresolved"`` or ``"not worse"`` for one metric on
    one workload, from each side's runs.

    The change is not worse when every run of it reads better than every
    run of the parent.  Otherwise it is worse when its median reads worse
    than the parent's by more than ``bound`` (a fraction of the parent's
    median), and unresolved when the parent's own quartile spread is wider
    than ``bound``, since the runs then cannot tell a change of that size
    from noise.  Else it is not worse.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not parent or not change:
        raise ValueError("each side needs at least one run")
    if better == "lower" and max(change) < min(parent) or better == "higher" and min(change) > max(parent):
        return "not worse"
    q1, median, q3 = quartiles(parent)
    if worse_by(median, statistics.median(change), better) > bound:
        return "worse"
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    return "not worse"


def summarize(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    """Each side's median and quartiles, the pairs the change won and the
    ties, and the verdict, for runs paired by index."""
    sides = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"median": median, "q1": q1, "q3": q3}
    won = sum(worse_by(p, c, better) < 0.0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    return {
        **sides,
        "pairs": len(parent),
        "change_won": won,
        "ties": ties,
        "bound": bound,
        "better": better,
        "verdict": verdict(parent, change, bound, better),
    }


def src_lines(tree: Path) -> int:
    """Newlines in ``tree``'s ``src/swarmguide/*.py``, as ``wc -l`` counts
    them; 0 where the tree has no such file."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "swarmguide").glob("*.py"))


def run_once(command: list[str], directory: Path, workload: str) -> dict:
    """One benchmark process in ``directory``; its exit code and JSON result."""
    proc = subprocess.run([*command, "--workload", workload], cwd=directory, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    record = {"exit": proc.returncode, "correct": bool(result and result.get("correct"))}
    if result is not None:
        record.update(
            attempted=result.get("attempted"),
            failed=result.get("failed"),
            metrics={k: m["value"] for k, m in result.get("metrics", {}).items()},
        )
    else:
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    dirs = dict(zip(SIDES, (args.parent, args.change)))

    runs, bad, summary = [], [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                record = run_once(spec["command"], dirs[side], workload)
                record.update(workload=workload, pair=pair, side=side, first=order[0])
                runs.append(record)
                print(f"{workload} pair {pair} {side}: exit {record['exit']} correct {record['correct']}", flush=True)
                if record["exit"] != 0 or not record["correct"]:
                    bad.append(record)
        mine = [r for r in runs if r["workload"] == workload and "metrics" in r]
        summary[workload] = {"operations": {}, "metrics": {}}
        for side in SIDES:
            ran = [r for r in mine if r["side"] == side]
            summary[workload]["operations"][side] = {
                "attempted": sum(r["attempted"] or 0 for r in ran),
                "failed": sum(r["failed"] or 0 for r in ran),
            }
        by_pair = {(r["pair"], r["side"]): r["metrics"] for r in mine}
        complete = [pair for pair in range(PAIRS) if all((pair, side) in by_pair for side in SIDES)]
        for metric in spec["end_to_end"] if complete else ():
            name = metric["name"]
            parent, change = ([by_pair[pair, side][name] for pair in complete] for side in SIDES)
            summary[workload]["metrics"][name] = summarize(parent, change, metric["bound"], metric["better"])

    record = {
        "command": " ".join([*spec["command"], "--workload", "<workload>"]),
        "parent": str(args.parent),
        "change": str(args.change),
        "pairs": PAIRS,
        "method": "one process at a time, alternating which side runs first (even pairs: parent first)",
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
        "summary": summary,
        "bad_runs": bad,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    worse = False
    for workload, parts in summary.items():
        for name, s in parts["metrics"].items():
            print(f"{workload} {name}: parent {s['parent']['median']!r} -> change {s['change']['median']!r}, "
                  f"change won {s['change_won']}/{s['pairs']}, {s['verdict']}")
            if s["verdict"] == "worse":
                print(f"worse: {workload} {name}", file=sys.stderr)
                worse = True
    if bad:
        print(f"{len(bad)} runs failed or were not correct", file=sys.stderr)
    return 1 if bad or worse else 0


if __name__ == "__main__":
    sys.exit(main())
