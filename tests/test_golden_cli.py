"""Byte-identity guard for the CLI outputs ``test_golden`` does not pin.

SHA-256 digests of ``resolved_scenario.txt`` from ``run``, of
``summary.csv`` from ``compare`` (default algorithms and checkpoints, both
modes), and of ``export-matrix`` at steps 0, 1 and 5 (0 and 1 for
``cycle4``, a two-step run) for every shipped scenario in all four
algorithm x mode pairs, less the letter-E exports ``test_golden`` already
pins.  ``compare``'s ``metrics_{dsmc,mh}.csv`` must match ``run``'s
``metrics.csv``, as ``test_golden.RUN_DIGESTS`` records it.  ``verify`` is
left out: its eigenvalues come from LAPACK, whose last bits can differ
between builds.  A deliberate change of output bytes updates these digests
and says why.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from swarmguide.cli import main
from test_golden import EXPORT_DIGESTS, RUN_DIGESTS, SCENARIOS, _digest, _scenario_file

# scenario -> resolved_scenario.txt of ``run`` on the shipped file.
RESOLVED_DIGESTS = {
    "cycle4": "7607dd7d2a6687159f620b0c17baf014c994a83859e576aae38a89b1d8fa1f99",
    "letter_e": "6c084e701d3ac07fe1016066ecd63907b3a1d600d0249d818d794faea22869c2",
    "wide_grid": "33906b006706bd90b300b0d275ae766abfdd9d43c6358c99787a03fd9110e673",
}

# (scenario, mode) -> summary.csv of ``compare`` with its defaults.
SUMMARY_DIGESTS = {
    ("cycle4", "deterministic"): "3d1e9280bc2a364bdbd57e31fc1ff07663fda3d72f9ab44aaaee9ab674851c19",
    ("cycle4", "monte-carlo"): "6475ef47e752eece10a7b9312ba25e98d3ba3767e7f497a808fec110225d6c93",
    ("letter_e", "deterministic"): "9a05c8d34fe43875d552daa47049af5b21ecc55e0f98aa80e72ad9c20e1b5772",
    ("letter_e", "monte-carlo"): "814ca2c6f723dbf29b32b8a9bb164289546189a23174eae4fce5a8895d8bc3e0",
    ("wide_grid", "deterministic"): "ba360774462df19f3489cf94f0535656adc5cf903f02b8fa06738ddb61772419",
    ("wide_grid", "monte-carlo"): "09fcc3684d477b2bb098c29cb44dbb8cc3b1a8711471a2c20f4d763a6c479ede",
}

# (scenario, algorithm, step, mode) -> the export-matrix CSV.
MATRIX_DIGESTS = {
    ("cycle4", "dsmc", 0, "deterministic"): "0e20d1253de13dea58b5ad187b82e96f7659dca927c3175b3c676273632b81d2",
    ("cycle4", "dsmc", 0, "monte-carlo"): "2a40e1df4dc9d0784b380adbdbca968f54eb160ef9233f45fc2bc662f9c65e68",
    ("cycle4", "dsmc", 1, "deterministic"): "f26704802a8e2eef473cc0865cfc7203e2509ce78b95c442c46d61270e4ec1e0",
    ("cycle4", "dsmc", 1, "monte-carlo"): "5bd36ac7737e5b6f8035db2b776f11f95ca18fade94a4f94734520a709525d3b",
    ("cycle4", "mh", 0, "deterministic"): "50ccccaa2eeb320cf161a447f8f9b0285e78bfaf29b5f667bc2fea50009027d5",
    ("cycle4", "mh", 0, "monte-carlo"): "50ccccaa2eeb320cf161a447f8f9b0285e78bfaf29b5f667bc2fea50009027d5",
    ("cycle4", "mh", 1, "deterministic"): "50ccccaa2eeb320cf161a447f8f9b0285e78bfaf29b5f667bc2fea50009027d5",
    ("cycle4", "mh", 1, "monte-carlo"): "50ccccaa2eeb320cf161a447f8f9b0285e78bfaf29b5f667bc2fea50009027d5",
    ("letter_e", "dsmc", 1, "deterministic"): "a0494d1dd21f54b9bb25dd677f419c9df336df124a9a7674f10f29017cc3d74e",
    ("letter_e", "dsmc", 1, "monte-carlo"): "34d4dfdba75ac503ea4b93e2a3861e3c444e67ee0661e657a1878ca8d8e1c990",
    ("letter_e", "dsmc", 5, "deterministic"): "5f855aed3ad86758de94da75d8e8b9a5c26070ad9a8b1522b384ca8a8a94b185",
    ("letter_e", "dsmc", 5, "monte-carlo"): "955a49c53c26c17c1b21b777a7cbd2afe7979fbad39dab349a952f0d49cdf0be",
    ("letter_e", "mh", 0, "deterministic"): "ed9ab0678271291c65d042d3f23533a683a3cb374ecfe8f8ea360d2a397d1535",
    ("letter_e", "mh", 0, "monte-carlo"): "ed9ab0678271291c65d042d3f23533a683a3cb374ecfe8f8ea360d2a397d1535",
    ("letter_e", "mh", 5, "deterministic"): "ed9ab0678271291c65d042d3f23533a683a3cb374ecfe8f8ea360d2a397d1535",
    ("letter_e", "mh", 5, "monte-carlo"): "ed9ab0678271291c65d042d3f23533a683a3cb374ecfe8f8ea360d2a397d1535",
    ("wide_grid", "dsmc", 0, "deterministic"): "6f66696257c914424abdff41244e69bc0b1c578785ffe94c4dfcc0d21d634325",
    ("wide_grid", "dsmc", 0, "monte-carlo"): "1640f59b72fef34986babace7a521e7d23b24a6fb9bbe0a82df86ae26916b920",
    ("wide_grid", "dsmc", 1, "deterministic"): "c65243a83bb783162c9d4c5e3cfd93c6a2570f08479d68ff30d971cdeb4343be",
    ("wide_grid", "dsmc", 1, "monte-carlo"): "b454fc1bd2f05b3f9db06bb4912466fe516b348296f695ba06bb306ecdf1f4f1",
    ("wide_grid", "dsmc", 5, "deterministic"): "13cde5299f0f84bd30c83fd35d6e8fe4beb58eda4d89ff3692377e580ba7adf3",
    ("wide_grid", "dsmc", 5, "monte-carlo"): "635f924d21ef426cc9a6b435a55f24e2446aff00685fbe70dc00922667687eb4",
    ("wide_grid", "mh", 0, "deterministic"): "1f18aa58332a46102e6bcc7a0085d206ea6a18d69db5424614a13078f8b1a3dd",
    ("wide_grid", "mh", 0, "monte-carlo"): "1f18aa58332a46102e6bcc7a0085d206ea6a18d69db5424614a13078f8b1a3dd",
    ("wide_grid", "mh", 1, "deterministic"): "1f18aa58332a46102e6bcc7a0085d206ea6a18d69db5424614a13078f8b1a3dd",
    ("wide_grid", "mh", 1, "monte-carlo"): "1f18aa58332a46102e6bcc7a0085d206ea6a18d69db5424614a13078f8b1a3dd",
    ("wide_grid", "mh", 5, "deterministic"): "1f18aa58332a46102e6bcc7a0085d206ea6a18d69db5424614a13078f8b1a3dd",
    ("wide_grid", "mh", 5, "monte-carlo"): "1f18aa58332a46102e6bcc7a0085d206ea6a18d69db5424614a13078f8b1a3dd",
}


@pytest.mark.parametrize("name", sorted(RESOLVED_DIGESTS))
def test_run_resolved_scenario_matches_its_digest(tmp_path, name):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(SCENARIOS / f"{name}.txt"), "--out", str(out)]) == 0
    assert _digest(out / "resolved_scenario.txt") == RESOLVED_DIGESTS[name]


@pytest.mark.parametrize("name, mode", sorted(SUMMARY_DIGESTS))
def test_compare_outputs_match_their_digests(tmp_path, name, mode):
    out = tmp_path / "out"
    path = _scenario_file(tmp_path, name, "dsmc", mode)
    assert main(["compare", "--scenario", str(path), "--out", str(out)]) == 0
    assert _digest(out / "summary.csv") == SUMMARY_DIGESTS[name, mode]
    for algorithm in ("dsmc", "mh"):
        assert _digest(out / f"metrics_{algorithm}.csv") == RUN_DIGESTS[name, algorithm, mode][0]


@pytest.mark.parametrize("name, algorithm, step, mode", sorted(MATRIX_DIGESTS))
def test_export_matrix_matches_its_digest(tmp_path, name, algorithm, step, mode):
    out = tmp_path / "matrix.csv"
    path = _scenario_file(tmp_path, name, algorithm, mode)
    assert main(["export-matrix", "--scenario", str(path), "--step", str(step), "--out", str(out)]) == 0
    assert _digest(out) == MATRIX_DIGESTS[name, algorithm, step, mode]


def test_no_export_is_pinned_twice():
    pinned = {("letter_e", algorithm, step, mode) for algorithm, step, mode in EXPORT_DIGESTS}
    assert not pinned & set(MATRIX_DIGESTS)
    assert {path.stem for path in Path(SCENARIOS).glob("*.txt")} == set(RESOLVED_DIGESTS)
