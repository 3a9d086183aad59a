"""End-to-end and per-layer benchmark of swarmguide runs.

Run from the root of a source checkout::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload letter_e --seed 3 --seconds 15 --trace 0

With ``--workload NAME`` one workload runs in this process: it writes the
workload's scenario files, runs them through ``swarmguide.cli.main(["run",
...])`` in whole rounds until ``--seconds`` have passed, checks every output
and prints one metric per line, then a JSON result as the last line.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` times the same
rounds with per-layer spans and reports the layer metrics instead.  Without
``--workload`` (or with ``all``) each workload runs in its own child
process, one after the other; the exit code is non-zero when any check
fails.

The program is imported from ``src/`` of the current directory and sees
only the generated scenario files.  Scratch files go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from workloads import WORKLOADS, render_spec

HERE = Path(__file__).resolve().parent
SCRATCH = Path(".perfbench")
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 7
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_tv": "fraction",
    "agent_moves": "count",
}


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns the cap.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "git_commit": commit,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def cli_run(main, scenario: Path, out: Path) -> tuple[int, float]:
    """One ``swarmguide run`` in-process; returns (exit code, wall seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = main(["run", "--scenario", str(scenario), "--out", str(out)])
        elapsed = time.perf_counter() - start
    return code, elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import numpy as np

    import swarmguide.cli as cli
    from swarmguide.engine import run_scenario

    import checks
    import spans

    workload = WORKLOADS[name]
    specs = workload.scenarios(seed)
    files = []
    for r, spec in enumerate(specs):
        files.append(work / f"scenario_{r}.txt")
        files[-1].write_text(render_spec(spec), encoding="utf-8")
    problems: list[str] = []
    attempted = failed = 0

    # Audit run: the first scenario in-process with a matrix hook and
    # snapshots around the drain step; untimed.
    first = specs[0]
    layers = int(checks.bfs_layers(first).max())
    keep = checks.RULE_STEPS if first.mode == "deterministic" and first.algorithm == "dsmc" else 0
    audit = checks.MatrixAudit(first, keep=keep)
    hook_metrics, snapshots = run_scenario(
        cli.load_scenario(files[0]), snapshot_steps=(layers - 1, layers), matrix_hook=audit
    )
    attempted += 1
    problems += audit.check(first)
    problems += checks.check_drain(first, snapshots)
    if keep:
        problems += checks.check_column_rule(first, audit.kept, hook_metrics.to_csv())
    del audit, snapshots

    setup_times = []
    if not trace:
        setup_file = work / "setup.txt"
        setup_file.write_text(render_spec(replace(first, steps=1, events=())), encoding="utf-8")
        started = time.perf_counter()
        while len(setup_times) < SETUP_MIN_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
            code, elapsed = cli_run(cli.main, setup_file, work / "setup_out")
            attempted += 1
            if code != 0:
                failed += 1
                problems.append(f"set-up run exited {code}")
            setup_times.append(elapsed)

    outputs: dict[int, tuple[str, str]] = {}
    run_times: list[float] = []
    layer_rounds: list[dict] = []
    rounds = 0
    started = time.perf_counter()
    while rounds == 0 or time.perf_counter() - started < seconds:
        rounds += 1
        tracer = spans.Tracer() if trace else None
        main = tracer.wrap("cli.main", cli.main) if trace else cli.main
        round_wall = 0.0
        with tracer.installed() if trace else contextlib.nullcontext():
            for r, (spec, scenario) in enumerate(zip(specs, files)):
                out = work / f"out_{r}"
                code, elapsed = cli_run(main, scenario, out)
                attempted += 1
                if code != 0:
                    failed += 1
                    problems.append(f"swarmguide run exited {code} on scenario {r}")
                    continue
                run_times.append(elapsed)
                round_wall += elapsed
                result = ((out / "metrics.csv").read_text(), (out / "final_snapshot.csv").read_text())
                if r not in outputs:
                    outputs[r] = result
                    problems += [f"scenario {r}: {p}" for p in checks.check_outputs(spec, workload.moves, *result)]
                elif result != outputs[r]:
                    problems.append(f"scenario {r}: outputs differ between rounds under one seed")
        if trace:
            layer_rounds.append(spans.layer_metrics(tracer, len(specs), round_wall))
            last_spans = tracer.spans

    if 0 in outputs and outputs[0][0] != hook_metrics.to_csv():
        problems.append("metrics.csv of the CLI differs from the in-process run of the same scenario")

    if trace:
        metrics = {
            key: statistics.median(r[key] for r in layer_rounds) for key in layer_rounds[0]
        }
        share = metrics["trace.self_time_share"]
        if not 0.99 <= share <= 1.0:
            problems.append(f"layer self times cover {share:.4f} of the traced wall time")
    else:
        finals = [checks.metrics_table(outputs[r][0]) for r in sorted(outputs)]
        metrics = {
            "run_s": statistics.median(run_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_tv": float(np.mean([t["total_variation"][-1] for t in finals])),
            "agent_moves": float(np.mean([t["cumulative_transitions"][-1] for t in finals])),
        }
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "run_times": run_times,
        "setup_times": setup_times,
        "bfs_layers": layers,
        "spans": last_spans if trace else None,
    }


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or "_per_" in name:
        return "ratio"
    return "count"


def single(args) -> int:
    nproc = limit_blas_threads()
    root = Path.cwd()
    if not (root / "src" / "swarmguide" / "__init__.py").is_file():
        print("error: run from the root of a swarmguide checkout (src/swarmguide not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = SCRATCH / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(nproc)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcome['run_times'])} timed runs, {outcome['attempted']} attempted, BFS layers {outcome['bfs_layers']}")
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    for key, value in outcome["metrics"].items():
        print(f"{key} {value!r} {unit_of(key)}")
    result = {
        "correct": not outcome["problems"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in outcome["metrics"].items()},
    }
    results = SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, problems=outcome["problems"],
                  run_times=outcome["run_times"], setup_times=outcome["setup_times"])
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if outcome["spans"] is not None:
        # The last traced round, one [name, start, end, parent index] per span.
        stem.with_suffix(".spans.json").write_text(json.dumps(outcome["spans"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def every_workload(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("CHECK FAILED", "environment", "workload")):
                print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit code {proc.returncode})")
            worst = max(worst, proc.returncode or 1)
            continue
        for key, metric in result["metrics"].items():
            print(f"[{name}] {key} = {metric['value']!r} {metric['unit']}")
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return every_workload(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
