"""Byte-identity guard: SHA-256 digests of the CLI's output files.

A change that claims to keep outputs identical (a faster sampler, a faster
writer) must leave every digest below as it is.  The digests were recorded
from ``run`` on the shipped scenarios in all four algorithm x mode pairs,
and from ``export-matrix`` on letter-E.  ``wide_grid`` is letter-E upscaled
to 40x40 bins at hop 2 with 20 000 agents, the shape the benchmark's
``wide_grid`` workload generates, with letter-E's seed.  A deliberate
change of output bytes updates these digests and says why.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from swarmguide import load_scenario, render_scenario
from swarmguide.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (scenario, algorithm, mode) -> (metrics.csv, final_snapshot.csv)
RUN_DIGESTS = {
    ("letter_e", "dsmc", "monte-carlo"): (
        "d224efbe87c10480c2e80efce378f4ac4b063cb2974f3948a408bb7b3d7789b5",
        "bf0e3adb0497c284c9fcdde599b736a4dd3cf40e2000bb84d2e11948808ecc39",
    ),
    ("letter_e", "dsmc", "deterministic"): (
        "92310e0051f1303f41b032bb4474f72947e97321dc0d64ec6730f04919df8cff",
        "138be67ee56e0f01ced51326651d7f6295ffbd4c9a2f6c6ffaaa2f0590e03691",
    ),
    ("letter_e", "mh", "monte-carlo"): (
        "24495451df0a29b006e63cc5fb8fe4006798f4d318ccaca58c762cd5355df4a5",
        "ed209adf397f42bdb4bd0d1ffe8d66175b42f6d6819309e3a48ef7bedebe58fb",
    ),
    ("letter_e", "mh", "deterministic"): (
        "d09d2f65c4c18f51d1ee37a43aacae251dfa9cdfe3750c53b8b9fa6b3af8c598",
        "3b908b7239ec463361fc42a9b3ced2212c131fde0f15755499781c4fde54d8af",
    ),
    ("cycle4", "dsmc", "monte-carlo"): (
        "141c8bbc68ba492fe97055c92e6461d25317139dbfae6158b4112ac6e868d87d",
        "c76b89e3a8eec7ebcebb24f6ed1ee1a04e1ac71d064293ffeb38ba485c47d8d7",
    ),
    ("cycle4", "dsmc", "deterministic"): (
        "745ffb7a218b216ceaaef110548664491769e778d7dd2f01fd0796ae0bcedbaa",
        "ac5e7b73ca44a8a7a78024969e353db1bf09db6b3aaa8d6c61cdb5acc3b3916a",
    ),
    ("cycle4", "mh", "monte-carlo"): (
        "4d0b3c1c72565fe7bb80097438864d7631618f6c9ecb9c03a2693fe4b1d9cf1f",
        "6acf8658a69d1ad89003761ed825c78108fc4430a21f8b4fa43375f801218c02",
    ),
    ("cycle4", "mh", "deterministic"): (
        "708f00f96f56bfbbb38af4c321554d8fcbc0d19f885fe40dba6a67b1b9a90502",
        "012377942c3d3a22990a59861e2be58121ae3fce467af7ac93a8341263f17171",
    ),
    ("wide_grid", "dsmc", "monte-carlo"): (
        "06e291dde1a5f9e62c8929d5c5d53c3fa8a98fd8f5c85be63ba480de9e168d52",
        "614ac9acf1b64cef6bf7fc04470ec47b8887af0c3df4c42fc2c428db045ddb58",
    ),
    ("wide_grid", "dsmc", "deterministic"): (
        "fa5cc2b9286b1ee65dde3e2c04f85037118113f48947d8ef499691fe394c5805",
        "f5f6a6a2a6d07b92c97cddd48a3811935a93b1ae68f64be45ada99487d93b540",
    ),
    ("wide_grid", "mh", "monte-carlo"): (
        "7cbe2d014a871a48c71114937d22baedfb0be3d7f551b113c28e23d7bc530c0c",
        "2427aabd97cee9b5c3e3055ecc32b721411da51aff3b6335dc26bb1476c34204",
    ),
    ("wide_grid", "mh", "deterministic"): (
        "f6e8addbd089d57a5c92e09621f43068d081a892b40e699f0cf90a1f7934e843",
        "7bcaaae6c1173c9d118689ec985ab7a294a45f6bab135d2ef195627f6512db18",
    ),
}

# (algorithm, step, mode) -> the letter-E export-matrix CSV.  The baseline
# chain is the same matrix in both modes.
EXPORT_DIGESTS = {
    ("dsmc", 0, "monte-carlo"): "0c35688f9de08ef1c009b75a2cfd691abf0dc224efabbef926f50407d0ae3afe",
    ("dsmc", 0, "deterministic"): "b5e39ae386c7eba7036c78da794812a9fb9e17574248cab6f2daeb5f563d1529",
    ("dsmc", 500, "monte-carlo"): "a1b486ddd016e370595176c08e0af6be8e3b4dd411f8ddd2c3ba70b108d4b653",
    ("dsmc", 500, "deterministic"): "2fad0cd5291cf8653b5f1b61a8a25a6311f67705057e3447bf354fe41b52ea68",
    ("mh", 1, "monte-carlo"): "ed9ab0678271291c65d042d3f23533a683a3cb374ecfe8f8ea360d2a397d1535",
    ("mh", 1, "deterministic"): "ed9ab0678271291c65d042d3f23533a683a3cb374ecfe8f8ea360d2a397d1535",
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _scenario_file(tmp_path: Path, name: str, algorithm: str, mode: str) -> Path:
    scenario = replace(load_scenario(SCENARIOS / f"{name}.txt"), algorithm=algorithm, mode=mode)
    path = tmp_path / "scenario.txt"
    path.write_text(render_scenario(scenario), encoding="utf-8")
    return path


@pytest.mark.parametrize("name, algorithm, mode", sorted(RUN_DIGESTS))
def test_run_outputs_match_their_digests(tmp_path, name, algorithm, mode):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(_scenario_file(tmp_path, name, algorithm, mode)), "--out", str(out)]) == 0
    assert (_digest(out / "metrics.csv"), _digest(out / "final_snapshot.csv")) == RUN_DIGESTS[name, algorithm, mode]


@pytest.mark.parametrize("algorithm, step, mode", sorted(EXPORT_DIGESTS))
def test_export_matrix_matches_its_digest(tmp_path, algorithm, step, mode):
    out = tmp_path / "matrix.csv"
    path = _scenario_file(tmp_path, "letter_e", algorithm, mode)
    assert main(["export-matrix", "--scenario", str(path), "--step", str(step), "--out", str(out)]) == 0
    assert _digest(out) == EXPORT_DIGESTS[algorithm, step, mode]
