"""Benchmark workloads, generated from the shipped letter-E scenario and a seed.

The benchmark reads and writes scenario files with its own small parser, so
the program under test only ever sees the generated text.  Every workload
derives its scenario seeds from the benchmark's ``--seed``; the same seed
always gives the same files.
"""
from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

LETTER_E = Path("scenarios") / "letter_e.txt"


@dataclass(frozen=True)
class Spec:
    """One scenario file: its keys, removal events and weight grids as text."""

    rows: int
    cols: int
    hop: int
    agents: int
    steps: int
    algorithm: str
    seed: int
    mode: str
    events: tuple[tuple[int, str], ...]
    map_rows: tuple[str, ...]
    init_rows: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        return self.rows * self.cols


_INT_KEYS = ("rows", "cols", "hop", "agents", "steps", "seed")


def parse_spec(text: str) -> Spec:
    values: dict[str, str] = {}
    events: list[tuple[int, str]] = []
    grids: dict[str, tuple[str, ...]] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line in ("map:", "init_map:"):
            rows = int(values["rows"])
            grids[line[:-1]] = tuple(lines[i:i + rows])
            i += rows
            continue
        key, _, value = line.partition("=")
        if key == "event":
            kind, step, fraction = value.split(",")
            if kind != "remove_fraction":
                raise ValueError(f"unsupported event {value!r}")
            events.append((int(step), fraction))
        else:
            values[key] = value
    fields = {k: int(values[k]) if k in _INT_KEYS else values[k] for k in values}
    return Spec(events=tuple(events), map_rows=grids["map"], init_rows=grids.get("init_map"), **fields)


def render_spec(spec: Spec) -> str:
    lines = [
        f"rows={spec.rows}",
        f"cols={spec.cols}",
        f"hop={spec.hop}",
        f"agents={spec.agents}",
        f"steps={spec.steps}",
        f"algorithm={spec.algorithm}",
        f"seed={spec.seed}",
        f"mode={spec.mode}",
    ]
    lines += [f"event=remove_fraction,{step},{fraction}" for step, fraction in spec.events]
    lines += ["map:", *spec.map_rows]
    if spec.init_rows is not None:
        lines += ["init_map:", *spec.init_rows]
    return "\n".join(lines) + "\n"


def _upscaled(spec: Spec) -> Spec:
    # Each letter-E cell becomes a 2x2 block: 40x40 bins, and with hop=2 the
    # 13-bin stencil keeps the same number of BFS layers as the original.
    # 20 steps with a removal halfway keep the run near 6 s and 400 MB.
    grid = tuple(row for row in spec.map_rows for _ in range(2))
    grid = tuple("".join(ch * 2 for ch in row) for row in grid)
    return replace(
        spec,
        rows=spec.rows * 2,
        cols=spec.cols * 2,
        hop=2,
        agents=20000,
        steps=20,
        events=((10, spec.events[0][1]),),
        map_rows=grid,
    )


@dataclass(frozen=True)
class Workload:
    """A scenario shape plus how many scenario seeds one round runs.

    ``replicates`` > 1 where the end state depends on the random draws: the
    reported accuracy and movement are means over that many seeds.
    ``moves`` names the movement property the method must show:
    ``settle`` (feedback stops moving a converged swarm), ``persist`` (the
    fixed chain keeps moving it) or None (too few steps to tell).
    """

    name: str
    why: str
    replicates: int
    moves: str | None
    shape: Callable[[Spec], Spec]

    def scenarios(self, seed: int) -> list[Spec]:
        base = self.shape(parse_spec(LETTER_E.read_text(encoding="utf-8")))
        return [replace(base, seed=scenario_seed(seed, r)) for r in range(self.replicates)]


def scenario_seed(seed: int, replicate: int) -> int:
    digest = hashlib.sha256(f"{seed}/{replicate}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "letter_e",
            "the paper's headline run: dsmc, Monte Carlo, 5000 agents, 750 steps; agent sampling dominates",
            replicates=5,
            moves="settle",
            shape=lambda s: s,
        ),
        Workload(
            "letter_e_det",
            "letter-E in deterministic mode: synthesis, assembly and audit only, no sampling or RNG",
            replicates=1,
            moves="settle",
            shape=lambda s: replace(s, mode="deterministic"),
        ),
        Workload(
            "letter_e_mh",
            "letter-E with the fixed Metropolis-Hastings matrix: no per-step synthesis, agents never stop",
            replicates=4,
            moves="persist",
            shape=lambda s: replace(s, algorithm="mh"),
        ),
        Workload(
            "wide_grid",
            "letter-E upscaled to 40x40 bins, hop 2, 20k agents: dense m*n sampling and m^2 set-up",
            replicates=1,
            moves=None,
            shape=_upscaled,
        ),
    )
}
