"""Command-line interface and the line-oriented scenario file format.

A scenario file is `key=value` lines followed by one or two character-grid
sections::

    rows=20
    cols=20
    hop=1
    agents=5000
    steps=750
    algorithm=dsmc
    seed=42
    mode=monte-carlo
    event=remove_fraction,250,0.3333
    map:
    ....################
    ...

``map:`` gives the desired-density weights, one text row per grid row:
``.`` or ``0`` mean weight zero, ``#`` means 1, ``1``-``9`` their digit, and
``a``-``z`` weights 10-35.  Weights are normalized into a density.  An
optional ``init_map:`` section with the same syntax gives the initial
density; without it agents start uniformly over all bins.  ``event`` lines
may repeat.  Blank lines are ignored outside the grid sections.  Sizes and
counts below 1, grids of more than ``MAX_BINS`` bins or ``MAX_STENCIL_SLOTS``
stencil slots and swarms of more than ``MAX_AGENTS`` agents are refused at
their line while parsing, before anything is allocated for them.

Commands: ``run`` simulates one scenario, ``compare`` runs several
algorithms on the same scenario, ``verify`` prints spectral certificates
for a topology of at most ``MAX_VERIFY_BINS`` bins, ``export-matrix`` dumps
one synthesized matrix.  All output files are UTF-8 with LF line endings and
``.`` decimal separators.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import contraction_certificate
from .density import total_variation
from .engine import ALGORITHMS, Event, Scenario, _cell, run_scenario
from .graph import _grid_offsets, build_grid_topology, laplacian_of, make_topology
from .synthesis import choose_d_chsn

__all__ = [
    "MAX_AGENTS",
    "MAX_BINS",
    "MAX_STENCIL_SLOTS",
    "MAX_VERIFY_BINS",
    "ScenarioFormatError",
    "parse_scenario",
    "load_scenario",
    "render_scenario",
    "main",
]

# Size limits.  A run without a matrix hook holds nothing larger than the
# bins' stencil, O(m w) for m bins of at most w destinations (set-up of
# 100x100 bins at hop 2 peaks at 6 MB).  Set-up lays the grid out as the m
# bins times the offsets within ``hop`` that fit it, as counted by
# ``graph._grid_offsets``, and ``MAX_STENCIL_SLOTS`` bounds that product: a
# one-step run peaks at 30-48 bytes a slot under tracemalloc (largest
# measured: 100x100 bins at hop 20, 8.4e6 slots, 405 MB).  Extrapolated, not
# measured: about 1 GB at the limit, 11.5 GB for 100x100 bins at full reach.
# What bounds ``MAX_BINS`` is the hook, as ``export-matrix`` uses it: a dense
# float matrix, 8 bytes per bin pair (0.8 GB at the limit).  Each agent
# costs about 100 bytes per step, 1 GB at the limit.  ``verify`` takes one
# O(m^3) eigenvalue solve of the dense float Laplacian: at its limit of
# 60x60 bins it takes about 2-3 s and 0.33 GB peak RSS on 2 vCPUs.
MAX_BINS = 10_000
MAX_STENCIL_SLOTS = 20_000_000
MAX_AGENTS = 10_000_000
MAX_VERIFY_BINS = 3_600

_REQUIRED_KEYS = ("rows", "cols", "hop", "agents", "steps", "algorithm", "seed", "mode")
_INT_KEYS = ("rows", "cols", "hop", "agents", "steps", "seed")
_WEIGHT_CHARS = {".": 0, "#": 1}
_WEIGHT_CHARS.update({str(d): d for d in range(10)})
_WEIGHT_CHARS.update({chr(ord("a") + i): 10 + i for i in range(26)})


class ScenarioFormatError(ValueError):
    """Scenario file violation, carrying the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _check_stencil(rows: int, cols: int, hop: int, line: int | None = None):
    """Refuse a grid whose set-up stencil exceeds ``MAX_STENCIL_SLOTS``."""
    slots = rows * cols * _grid_offsets(rows, cols, hop)[0].size
    if slots > MAX_STENCIL_SLOTS:
        message = f"a {rows}x{cols} grid at hop {hop} has {slots} stencil slots, above the limit of {MAX_STENCIL_SLOTS}"
        raise ScenarioFormatError(message, line)


def _parse_grid(lines, start: int, rows: int, cols: int, label: str):
    grid = []
    for r in range(rows):
        lineno = start + r
        if lineno > len(lines):
            raise ScenarioFormatError(f"{label} needs {rows} rows, file ended after {r}", len(lines))
        text = lines[lineno - 1]
        if len(text) != cols:
            raise ScenarioFormatError(f"{label} row must have {cols} characters, got {len(text)}", lineno)
        row = []
        for ch in text:
            if ch not in _WEIGHT_CHARS:
                raise ScenarioFormatError(f"invalid weight character {ch!r} in {label} row", lineno)
            row.append(_WEIGHT_CHARS[ch])
        grid.append(tuple(row))
    # Return the last consumed line so the caller's increment lands past it.
    return tuple(grid), start + rows - 1


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioFormatError with a line number."""
    lines = text.split("\n")
    values: dict[str, str] = {}
    events: list[Event] = []
    grids: dict[str, tuple] = {}
    lineno = 0
    total = len(lines)
    while lineno < total:
        lineno += 1
        raw = lines[lineno - 1]
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped in ("map:", "init_map:"):
            label = stripped[:-1]
            if label in grids:
                raise ScenarioFormatError(f"duplicate {stripped} section", lineno)
            if "rows" not in values or "cols" not in values:
                raise ScenarioFormatError(f"{stripped} section before rows= and cols=", lineno)
            grids[label], lineno = _parse_grid(lines, lineno + 1, int(values["rows"]), int(values["cols"]), label)
            continue
        if "=" not in stripped:
            raise ScenarioFormatError(f"expected key=value, got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "event":
            parts = value.split(",")
            if len(parts) != 3 or parts[0] != "remove_fraction":
                raise ScenarioFormatError(
                    f"event must be remove_fraction,<step>,<fraction>, got {value!r}", lineno
                )
            try:
                step, fraction = int(parts[1]), float(parts[2])
            except ValueError:
                raise ScenarioFormatError(f"malformed event numbers in {value!r}", lineno) from None
            try:
                events.append(Event(step=step, kind="remove_fraction", fraction=fraction))
            except ValueError as exc:
                raise ScenarioFormatError(str(exc), lineno) from None
            continue
        if key not in _REQUIRED_KEYS:
            raise ScenarioFormatError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
        if key in _INT_KEYS:
            try:
                int(value)
            except ValueError:
                raise ScenarioFormatError(f"{key} must be an integer, got {value!r}", lineno) from None
        values[key] = value
        if key in ("rows", "cols", "hop", "agents", "steps") and int(value) < 1:
            raise ScenarioFormatError(f"{key} must be at least 1, got {value}", lineno)
        if key == "agents" and int(value) > MAX_AGENTS:
            raise ScenarioFormatError(f"agents={value} exceeds the limit of {MAX_AGENTS} agents", lineno)
        if key in ("rows", "cols") and "rows" in values and "cols" in values:
            bins = int(values["rows"]) * int(values["cols"])
            if bins > MAX_BINS:
                raise ScenarioFormatError(
                    f"a {values['rows']}x{values['cols']} grid has {bins} bins, above the limit of {MAX_BINS}",
                    lineno,
                )
        if key in ("rows", "cols", "hop") and all(k in values for k in ("rows", "cols", "hop")):
            _check_stencil(int(values["rows"]), int(values["cols"]), int(values["hop"]), lineno)

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ScenarioFormatError(f"missing required keys: {', '.join(missing)}")
    if "map" not in grids:
        raise ScenarioFormatError("missing map: section")
    try:
        return Scenario(
            rows=int(values["rows"]),
            cols=int(values["cols"]),
            hop=int(values["hop"]),
            agents=int(values["agents"]),
            steps=int(values["steps"]),
            algorithm=values["algorithm"],
            seed=int(values["seed"]),
            mode=values["mode"],
            weights=grids["map"],
            init_weights=grids.get("init_map"),
            events=tuple(events),
        )
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


_RENDER_CHARS = {0: ".", 1: "#"}
_RENDER_CHARS.update({d: str(d) for d in range(2, 10)})
_RENDER_CHARS.update({10 + i: chr(ord("a") + i) for i in range(26)})


def render_scenario(scenario: Scenario) -> str:
    """Serialize a scenario so that parse_scenario(render_scenario(s)) == s."""
    lines = [
        f"rows={scenario.rows}",
        f"cols={scenario.cols}",
        f"hop={scenario.hop}",
        f"agents={scenario.agents}",
        f"steps={scenario.steps}",
        f"algorithm={scenario.algorithm}",
        f"seed={scenario.seed}",
        f"mode={scenario.mode}",
    ]
    for ev in scenario.events:
        lines.append(f"event={ev.kind},{ev.step},{repr(ev.fraction)}")
    for label, grid in (("map", scenario.weights), ("init_map", scenario.init_weights)):
        if grid is not None:
            lines.append(f"{label}:")
            lines.extend("".join(_RENDER_CHARS[w] for w in row) for row in grid)
    return "\n".join(lines) + "\n"


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _snapshot_csv(scenario: Scenario, snapshot) -> str:
    desired = scenario.desired_density()
    lines = ["bin,row,col,desired,count,density"]
    for b in range(desired.size):
        r, c = divmod(b, scenario.cols)
        density = repr(float(snapshot.density[b]))
        lines.append(f"{b},{r},{c},{repr(float(desired[b]))},{_cell(snapshot.counts[b])},{density}")
    return "\n".join(lines) + "\n"


def cmd_run(scenario_path, out_dir, seed=None) -> int:
    scenario = load_scenario(scenario_path)
    if seed is not None:
        scenario = replace(scenario, seed=int(seed))
    out = Path(out_dir)
    metrics, snapshots = run_scenario(scenario, snapshot_steps=(scenario.steps,))
    _write_text(out / "metrics.csv", metrics.to_csv())
    _write_text(out / "final_snapshot.csv", _snapshot_csv(scenario, snapshots[scenario.steps]))
    _write_text(out / "resolved_scenario.txt", render_scenario(scenario))
    print(f"final_total_variation={repr(metrics.total_variation[-1])}")
    print(f"wrote {out / 'metrics.csv'}")
    return 0


def cmd_compare(scenario_path, algorithms, out_dir, checkpoints=None) -> int:
    scenario = load_scenario(scenario_path)
    algos = [a.strip() for a in algorithms.split(",") if a.strip()]
    if not algos:
        raise ScenarioFormatError("no algorithms given")
    for a in algos:
        if a not in ALGORITHMS:
            raise ScenarioFormatError(f"unknown algorithm {a!r}, expected one of {ALGORITHMS}")
    if checkpoints is None:
        marks = sorted({min(s, scenario.steps) for s in (0, 250, 750)})
    else:
        try:
            marks = sorted({int(s) for s in checkpoints.split(",")})
        except ValueError:
            raise ScenarioFormatError(f"checkpoints must be comma-separated integers, got {checkpoints!r}") from None
        for s in marks:
            if not 0 <= s <= scenario.steps:
                raise ScenarioFormatError(f"checkpoint {s} outside [0, {scenario.steps}]")
    out = Path(out_dir)
    summary = ["algorithm,step,total_variation,cumulative_transitions"]
    for algo in algos:
        metrics, _ = run_scenario(replace(scenario, algorithm=algo))
        _write_text(out / f"metrics_{algo}.csv", metrics.to_csv())
        for s in marks:
            summary.append(f"{algo},{s},{repr(metrics.total_variation[s])},{_cell(metrics.cumulative_transitions[s])}")
        print(f"{algo}: final_total_variation={repr(metrics.total_variation[-1])}")
    _write_text(out / "summary.csv", "\n".join(summary) + "\n")
    print(f"wrote {out / 'summary.csv'}")
    return 0


_FIXTURES = {
    "cycle4": lambda: build_grid_topology(2, 2, 1),
    "disconnected2": lambda: make_topology(np.eye(2, dtype=bool)),
}


def cmd_verify(rows=None, cols=None, hop=None, fixture=None) -> int:
    if fixture is not None:
        if fixture not in _FIXTURES:
            print(f"error: unknown fixture {fixture!r}, expected one of {sorted(_FIXTURES)}", file=sys.stderr)
            return 2
        topology = _FIXTURES[fixture]()
        print(f"fixture={fixture}")
    else:
        if rows is None or cols is None or hop is None:
            print("error: verify needs --rows, --cols and --hop, or --fixture", file=sys.stderr)
            return 2
        for flag, value in (("--rows", rows), ("--cols", cols), ("--hop", hop)):
            if value < 1:
                raise ScenarioFormatError(f"{flag} must be at least 1, got {value}")
        if rows * cols > MAX_VERIFY_BINS:
            raise ScenarioFormatError(f"a {rows}x{cols} grid has {rows * cols} bins, above the verify limit of {MAX_VERIFY_BINS}")
        _check_stencil(rows, cols, hop)
        topology = build_grid_topology(rows, cols, hop)
        print(f"topology={rows}x{cols} hop={hop}")
    print(f"bins={topology.m}")
    try:
        view = laplacian_of(topology)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = choose_d_chsn(view)
    report = contraction_certificate(view, params.d_chsn)
    for key, value in report.key_values():
        print(f"{key}={value}")
    return 0 if report.certificates_ok else 1


def cmd_export_matrix(scenario_path, step, out_path) -> int:
    scenario = load_scenario(scenario_path)
    if not 0 <= step < scenario.steps:
        raise ScenarioFormatError(f"step {step} outside [0, {scenario.steps})")
    # Run only up to the wanted step; the last matrix the hook sees drives it.
    head = replace(scenario, steps=step + 1, events=tuple(ev for ev in scenario.events if ev.step <= step + 1))
    last = {}

    def hook(k, matrix):
        last["matrix"] = matrix

    run_scenario(head, matrix_hook=hook)
    matrix = last["matrix"]
    lines = [",".join(repr(float(v)) for v in row) for row in matrix]
    _write_text(Path(out_path), "\n".join(lines) + "\n")
    print(f"wrote {out_path} ({matrix.shape[0]}x{matrix.shape[1]})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="swarmguide", description="Swarm density guidance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_cmp = sub.add_parser("compare", help="run several algorithms on one scenario")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--algorithms", default="dsmc,mh")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--checkpoints", default=None, help="comma-separated steps for summary.csv")

    p_ver = sub.add_parser("verify", help="print spectral certificates for a topology")
    p_ver.add_argument("--rows", type=int)
    p_ver.add_argument("--cols", type=int)
    p_ver.add_argument("--hop", type=int)
    p_ver.add_argument("--fixture", choices=sorted(_FIXTURES))

    p_exp = sub.add_parser("export-matrix", help="dump one synthesized transition matrix as CSV")
    p_exp.add_argument("--scenario", required=True)
    p_exp.add_argument("--step", type=int, required=True)
    p_exp.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.out, seed=args.seed)
        if args.command == "compare":
            return cmd_compare(args.scenario, args.algorithms, args.out, checkpoints=args.checkpoints)
        if args.command == "verify":
            return cmd_verify(rows=args.rows, cols=args.cols, hop=args.hop, fixture=args.fixture)
        if args.command == "export-matrix":
            return cmd_export_matrix(args.scenario, args.step, args.out)
        parser.error(f"unknown command {args.command!r}")
    except (ScenarioFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
