"""Frozen CLI outputs: every command below must reproduce tests/golden/ byte for byte.

The goldens pin the exact plans, seat counts and CSVs that a given seed
produces, so a refactor of the tree builder or the analysis layer cannot
change results unnoticed.  When a change is meant to alter outputs,
regenerate them and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mmdistrict import cli, tree
from mmdistrict.model import load_state
from mmdistrict.voters import generate_voter_file, load_voter_file
from conftest import needs_fork, save_voter_file

GOLDEN = Path(__file__).resolve().parent / "golden"

#: state file name -> synth flags; the states are goldens too.
STATES = {
    "state16.json": ["--blocks", "16", "--seats", "4", "--r-share", "0.4",
                     "--corr", "1", "--seed", "3"],
    "state72.json": ["--blocks", "72", "--seats", "6", "--r-share", "0.45",
                     "--corr", "2", "--seed", "8"],
    "state144.json": ["--blocks", "144", "--seats", "6", "--r-share", "0.4",
                      "--corr", "2", "--seed", "5"],
}

#: case name -> (command, state file, flags, output name).  An output name
#: with a suffix is a file; one without is a directory the command fills.
#: The stv cases read frozen plans, plan72_*.json, so that their outputs pin
#: the election code alone and do not move when the tree builder changes.
CASES = {
    "sweep16": ("sweep", "state16.json",
                ["--k", "all", "--sigma", "0", "--seed", "1", "--root-samples", "6",
                 "--internal-samples", "2", "--ensemble-size", "10"], "metrics.csv"),
    "sweep72": ("sweep", "state72.json",
                ["--k", "all", "--rule", "pav", "--seed", "2", "--root-samples", "10",
                 "--internal-samples", "2", "--ensemble-size", "20"], "metrics.csv"),
    "optimize16_fair": ("optimize", "state16.json",
                        ["--k", "2", "--objective", "fair", "--sigma", "0", "--seed", "2",
                         "--root-samples", "8", "--internal-samples", "3"], "plan"),
    "optimize16_max_r": ("optimize", "state16.json",
                         ["--k", "2", "--objective", "max-r", "--sigma", "0", "--seed", "2",
                          "--root-samples", "8", "--internal-samples", "3"], "plan"),
    "optimize72_fair": ("optimize", "state72.json",
                        ["--k", "4", "--objective", "fair", "--seed", "3",
                         "--root-samples", "8", "--internal-samples", "3"], "plan"),
    "optimize72_max_r": ("optimize", "state72.json",
                         ["--k", "6", "--objective", "max-r", "--seed", "3",
                          "--root-samples", "8", "--internal-samples", "3"], "plan"),
    "optimize144_fair": ("optimize", "state144.json",
                         ["--k", "6", "--objective", "fair", "--seed", "4",
                          "--root-samples", "12", "--internal-samples", "3"], "plan"),
    "optimize72_max_d": ("optimize", "state72.json",
                         ["--k", "6", "--objective", "max-d", "--seed", "3",
                          "--root-samples", "8", "--internal-samples", "3"], "plan"),
    "ensemble16": ("ensemble", "state16.json",
                   ["--k", "2", "--seed", "4",
                    "--root-samples", "6", "--internal-samples", "2"], "ensemble.csv"),
    "diversity16": ("diversity", "state16.json",
                    ["--k", "1,4", "--seed", "6", "--voters-per-block", "8",
                     "--ensemble-size", "2", "--root-samples", "5",
                     "--internal-samples", "2"], "diversity.csv"),
    "diversity72": ("diversity", "state72.json",
                    ["--k", "2,3", "--seed", "7", "--voters-per-block", "4",
                     "--ensemble-size", "2", "--root-samples", "4",
                     "--internal-samples", "2"], "diversity.csv"),
    "stv72_partisan": ("stv", "state72.json",
                       ["--plan", str(GOLDEN / "plan72_max_r.json"),
                        "--mode", "partisan_score", "--seed", "9", "--voters-per-block", "10",
                        "--verbose"], "election"),
    "stv72_geographic": ("stv", "state72.json",
                         ["--plan", str(GOLDEN / "plan72_max_r.json"),
                          "--mode", "geographic", "--seed", "9", "--voters-per-block", "10",
                          "--per-party", "4", "--verbose"], "election"),
    # Two-seat districts, so the round logs carry surplus transfers.
    "stv72_fair": ("stv", "state72.json",
                   ["--plan", str(GOLDEN / "plan72_fair.json"),
                    "--seed", "4", "--voters-per-block", "6", "--verbose"], "election"),
}


def synth(name, out_dir):
    path = out_dir / name
    assert cli.main(["synth", *STATES[name], "--out", str(path)]) == 0
    return path


def run_case(name, out_dir, extra=()):
    """Run one case on the golden state; returns the directory holding its outputs."""
    command, state, flags, output = CASES[name]
    case_dir = out_dir / name
    case_dir.mkdir(parents=True)
    argv = [command, "--state", str(GOLDEN / state), *flags, *extra,
            "--out", str(case_dir / output)]
    assert cli.main(argv) == 0, argv
    return case_dir


def files(directory):
    return sorted(p.relative_to(directory) for p in directory.rglob("*") if p.is_file())


@pytest.mark.parametrize("name", sorted(STATES))
def test_synth_matches_golden_state(name, tmp_path):
    assert synth(name, tmp_path).read_bytes() == (GOLDEN / name).read_bytes()


def save_voters72(path):
    """The voter file that stv72_partisan generates, written as CSV."""
    save_voter_file(generate_voter_file(load_state(GOLDEN / "state72.json"), 10, 0.5, seed=9),
                    path)
    return path


def test_generated_voter_file_matches_golden(tmp_path):
    assert save_voters72(tmp_path / "voters72.csv").read_bytes() == \
        (GOLDEN / "voters72.csv").read_bytes()


def test_golden_voter_file_loads_and_saves_to_the_same_bytes(tmp_path):
    path = tmp_path / "voters72.csv"
    save_voter_file(load_voter_file(GOLDEN / "voters72.csv"), path)
    assert path.read_bytes() == (GOLDEN / "voters72.csv").read_bytes()


def assert_matches_golden(name, out_dir, extra=()):
    got = run_case(name, out_dir, extra)
    want = GOLDEN / name
    assert files(got) == files(want)
    for rel in files(want):
        assert (got / rel).read_bytes() == (want / rel).read_bytes(), f"{name}/{rel} differs"


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_matches_golden_outputs(name, tmp_path):
    assert_matches_golden(name, tmp_path)


def test_stv_reading_the_golden_voter_file_matches_the_generated_run(tmp_path):
    # The same voters, read from CSV instead of generated, elect the same winners.
    assert_matches_golden("stv72_partisan", tmp_path,
                          ["--voter-file", str(GOLDEN / "voters72.csv")])


@needs_fork
@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if case[0] != "stv"))
def test_command_matches_golden_outputs_with_two_workers(name, tmp_path, monkeypatch):
    # Most golden builds are too small to be pooled; this forces every one into
    # a pool of the caller and one worker, which must write a serial build's bytes.
    monkeypatch.setattr(tree, "_pool_size", lambda work, n_samples: 2)
    assert_matches_golden(name, tmp_path)


def test_optimize_fair_matches_golden_under_python_O(tmp_path):
    # -O strips assert statements; the fair optimizer must not depend on them.
    name = "optimize16_fair"
    command, state, flags, output = CASES[name]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mmdistrict.cli", command, "--state", str(GOLDEN / state),
         *flags, "--out", str(tmp_path / output)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for rel in files(GOLDEN / name):
        assert (tmp_path / rel).read_bytes() == (GOLDEN / name / rel).read_bytes()


def regenerate():
    """Rewrite the states, the voter file and every case's outputs; the frozen plans stay."""
    GOLDEN.mkdir(exist_ok=True)
    for name in STATES:
        synth(name, GOLDEN)
    save_voters72(GOLDEN / "voters72.csv")
    for name in CASES:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        run_case(name, GOLDEN)


if __name__ == "__main__":
    regenerate()
