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
may repeat.  Blank lines are ignored outside the grid sections.  The
parser checks the syntax and hands each setting at its line to
``swarmguide.engine._check_setting``, the validator of ``Scenario`` and
``compare``: sizes below 1, more than ``MAX_BINS`` bins, ``MAX_STENCIL_SLOTS``
stencil slots or ``MAX_AGENTS`` agents and an unknown ``algorithm`` or
``mode`` are refused at their line, before anything is allocated for them,
as are an event step outside [0, ``steps``] and a grid section with no
positive weight.

Commands: ``run`` simulates one scenario, ``compare`` runs several
algorithms on the same scenario, ``verify`` prints spectral certificates
for a topology of at most ``MAX_VERIFY_BINS`` bins, ``export-matrix`` dumps
one synthesized matrix.  All output files are UTF-8 with LF line endings and
``.`` decimal separators.  Floats are written as their ``repr`` and integral
counts as integers; the snapshot and matrix writers format each distinct
value once.  A rerun rewrites each output file in place (``_write_text``).
"""
from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import contraction_certificate
from .density import total_variation
from .engine import (
    MAX_AGENTS,
    MAX_BINS,
    MAX_STENCIL_SLOTS,
    SETTINGS,
    Event,
    Scenario,
    _CHOICES,
    _cell,
    _check_setting,
    _require_some_weight,
    check_grid_size,
    run_scenario,
)
from .graph import build_grid_topology, make_topology
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

# ``verify`` takes one O(m^3) eigenvalue solve of the dense float
# Laplacian: at its limit of 60x60 bins it takes about 2-3 s and 0.23 GB
# peak RSS on 2 vCPUs.  The limits of a run are in ``swarmguide.engine``.
MAX_VERIFY_BINS = 3_600

# Weight w is written as character w; ``0`` and ``1`` also read as 0 and 1.
_RENDER_CHARS = ".#23456789abcdefghijklmnopqrstuvwxyz"
_WEIGHT_CHARS = {ch: w for w, ch in enumerate(_RENDER_CHARS)} | {"0": 0, "1": 1}


class ScenarioFormatError(ValueError):
    """Scenario file violation, carrying the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@contextmanager
def _at_line(line: int | None):
    """Report a ValueError raised inside as a ScenarioFormatError at ``line``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioFormatError(str(exc), line) from None


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
    with _at_line(start - 1):
        _require_some_weight(label, grid)
    # Return the last consumed line so the caller's increment lands past it.
    return tuple(grid), start + rows - 1


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioFormatError with a line number."""
    lines = text.split("\n")
    values: dict[str, int | str] = {}
    events: list[Event] = []
    event_lines: list[int] = []
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
            grids[label], lineno = _parse_grid(lines, lineno + 1, values["rows"], values["cols"], label)
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
            with _at_line(lineno):
                events.append(Event(step=step, kind="remove_fraction", fraction=fraction))
            event_lines.append(lineno)
            continue
        if key not in SETTINGS:
            raise ScenarioFormatError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
        if key not in _CHOICES:  # every setting but a choice is an integer
            try:
                value = int(value)
            except ValueError:
                raise ScenarioFormatError(f"{key} must be an integer, got {value!r}", lineno) from None
        values[key] = value
        with _at_line(lineno):
            _check_setting(key, values)

    missing = [k for k in SETTINGS if k not in values]
    if missing:
        raise ScenarioFormatError(f"missing required keys: {', '.join(missing)}")
    if "map" not in grids:
        raise ScenarioFormatError("missing map: section")
    for ev, line in zip(events, event_lines):
        with _at_line(line):
            ev.require_within(values["steps"])
    with _at_line(None):
        return Scenario(**values, weights=grids["map"], init_weights=grids.get("init_map"), events=tuple(events))


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def render_scenario(scenario: Scenario) -> str:
    """Serialize a scenario so that parse_scenario(render_scenario(s)) == s."""
    lines = [f"{key}={getattr(scenario, key)}" for key in SETTINGS]
    for ev in scenario.events:
        lines.append(f"event={ev.kind},{ev.step},{repr(ev.fraction)}")
    for label, grid in (("map", scenario.weights), ("init_map", scenario.init_weights)):
        if grid is not None:
            lines.append(f"{label}:")
            lines.extend("".join(_RENDER_CHARS[w] for w in row) for row in grid)
    return "\n".join(lines) + "\n"


def _write_text(path: Path, text: str):
    """Write ``text`` as UTF-8 to ``path``, rewriting an existing file in place.

    The open never truncates: cutting a file to zero makes a rerun wait on
    the file system for the previous run's blocks, and a rename over it
    waits the same way.  A regular file longer than the new bytes is cut
    to their length after they are written; a device or pipe, such as
    ``/dev/stdout``, is only written.  The file, its permissions and a
    symlink to it stay.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        left = memoryview(data)
        while left:
            left = left[os.write(fd, left):]
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _texts(values, fmt=repr) -> list:
    """``fmt(float(v))`` for every entry of ``values``, as nested lists of
    its shape.  ``fmt`` runs once per distinct value, keyed by bit pattern
    so that -0.0 and 0.0 stay apart: a snapshot or a dense matrix repeats
    few values over many entries."""
    values = np.asarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    text = np.array([fmt(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return text[inverse].reshape(values.shape).tolist()


def _snapshot_csv(scenario: Scenario, snapshot) -> str:
    desired = scenario.desired_density()
    rows, cols = scenario.rows, scenario.cols
    # Column by column: each distinct row, column and value is formatted once.
    columns = (
        map(str, range(desired.size)),
        [r for r in map(str, range(rows)) for _ in range(cols)],
        [str(c) for c in range(cols)] * rows,
        _texts(desired),
        _texts(snapshot.counts, _cell),
        _texts(snapshot.density),
    )
    return "\n".join(["bin,row,col,desired,count,density", *map(",".join, zip(*columns))]) + "\n"


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
        with _at_line(None):
            _check_setting("algorithm", {"algorithm": a})
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
        with _at_line(None):
            check_grid_size(rows, cols, hop)
        topology = build_grid_topology(rows, cols, hop)
        print(f"topology={rows}x{cols} hop={hop}")
    print(f"bins={topology.m}")
    report = contraction_certificate(topology, choose_d_chsn(topology))
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
    _write_text(Path(out_path), "\n".join(map(",".join, _texts(matrix))) + "\n")
    # With the matrix written to stdout's own file, as ``--out /dev/stdout >
    # m.csv`` does, a status line on stdout would land over it.
    status = sys.stderr if os.path.samestat(os.fstat(1), os.stat(out_path)) else sys.stdout
    print(f"wrote {out_path} ({matrix.shape[0]}x{matrix.shape[1]})", file=status)
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
        # export-matrix: argparse requires one of the four commands.
        return cmd_export_matrix(args.scenario, args.step, args.out)
    except (ScenarioFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
