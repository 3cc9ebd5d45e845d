import argparse
import contextlib
import copy
import csv
import functools
import io
import json
import multiprocessing
import multiprocessing.process
import operator
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmdistrict.tree as tree_mod
from mmdistrict import analysis, cli
from mmdistrict.model import (Block, StateFormatError, StateInstance, load_plan, load_state,
                              save_state, validate_plan)
from mmdistrict.voters import generate_voter_file
from conftest import make_path_state, needs_fork, save_voter_file


GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def state_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "state.json"
    assert run(["synth", "--blocks", "16", "--seats", "4", "--r-share", "0.4",
                "--corr", "1", "--seed", "3", "--out", str(path)]) == 0
    return path


def read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


def test_synth_writes_loadable_state(state_file):
    state = load_state(state_file)
    assert state.total_seats == 4
    assert len(state.blocks) == 16


def test_synth_is_byte_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        run(["synth", "--blocks", "16", "--seats", "4", "--r-share", "0.4",
             "--corr", "1", "--seed", "3", "--out", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("corr", ["1", "3"])
def test_synth_smooths_a_one_block_state_as_corr_0_leaves_it(tmp_path, corr):
    # The lone block has no neighbours to average with, so it keeps its value;
    # a mean over no neighbours was NaN, with two RuntimeWarnings.
    paths = [tmp_path / "flat.json", tmp_path / "smoothed.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path, c in zip(paths, ["0", corr]):
            assert run(["synth", "--blocks", "1", "--seats", "1", "--r-share", "0.4",
                        "--corr", c, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def run_module(argv, **kwargs):
    """``python -m mmdistrict`` with ``argv`` in a child process, this checkout's package first."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "mmdistrict", *argv],
                          env=env, capture_output=True, text=True, timeout=120, **kwargs)


def test_python_m_mmdistrict_writes_what_cli_main_writes(tmp_path):
    flags = ["synth", "--blocks", "16", "--seats", "4", "--r-share", "0.4", "--corr", "1",
             "--seed", "3"]
    assert run([*flags, "--out", str(tmp_path / "main.json")]) == 0
    proc = run_module([*flags, "--out", str(tmp_path / "module.json")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_synth_requires_flags(capsys):
    assert run(["synth", "--blocks", "16", "--seats", "4"]) == 1
    assert capsys.readouterr().err == "error: synth requires --r-share, --out\n"


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        run(["plot"])


def test_sweep_all_k_default_rule(state_file, tmp_path):
    out = tmp_path / "metrics.csv"
    assert run(["sweep", "--state", str(state_file), "--k", "all", "--sigma", "0",
                "--seed", "1", "--root-samples", "6", "--internal-samples", "2",
                "--ensemble-size", "10", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "rule", "statistic", "seats_r", "seat_share_r", "gap"]
    body = rows[1:]
    assert {r[0] for r in body} == {"1", "2", "3", "4"}
    assert {r[1] for r in body} == {"stv"}  # default rule
    # at k=1 the single-district count obeys the proportionality bound
    state = load_state(state_file)
    y = state.statewide_vote_share()
    for r in body:
        if r[0] == "1":
            assert abs(float(r[3]) - y * 4) < 1
            assert float(r[5]) < 1 / 4


def test_sweep_rejects_out_of_range_k(state_file, tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert run(["sweep", "--state", str(state_file), "--k", "9", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: k values [9] outside 1..4\n"
    assert not out.exists()


def test_sweep_missing_state_file_fails(tmp_path):
    assert run(["sweep", "--state", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "m.csv")]) == 1


@pytest.mark.parametrize("field, reason", [
    ("id", "block 3.5: id 3.5 is not an integer"),
    ("population", "block 3: population 1000.5 is not an integer"),
    ("neighbors", "block 3: neighbor id 2.5 is not an integer"),
], ids=["id", "population", "neighbor"])
def test_sweep_rejects_a_state_number_that_is_not_whole(state_file, tmp_path, capsys,
                                                         field, reason):
    # Each value truncates to the one it replaces, so a truncating load
    # would run the sweep on the original state.
    data = json.loads(state_file.read_text())
    block = data["blocks"][3]
    if field == "neighbors":
        block["neighbors"] = [b + 0.5 if b == 2 else b for b in block["neighbors"]]
    else:
        block[field] += 0.5
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(data))
    assert run(["sweep", "--state", str(bad), "--k", "2", "--root-samples", "2",
                "--internal-samples", "1", "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: malformed block record" in err and reason in err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("edit, reason", [
    (lambda d: d.update(total_seats=4.5), "total_seats 4.5 is not an integer"),
    (lambda d: d.update(total_seats=True), "total_seats True is not an integer"),
    (lambda d: d.update(total_seats="4"), "total_seats '4' is not an integer"),
    (lambda d: d.update(total_seats=None), "total_seats None is not an integer"),
    (lambda d: d["blocks"][3].update(id="3"), "block 3: id '3' is not an integer"),
    (lambda d: d["blocks"][3].update(population=True), "block 3: population True is not an integer"),
    (lambda d: d["blocks"][3].update(votes_r="12"), "block 3: votes_r '12' is not a number"),
], ids=["seats_fraction", "seats_bool", "seats_string", "seats_null", "id_string",
        "population_bool", "votes_string"])
def test_sweep_rejects_a_state_number_of_the_wrong_type(state_file, tmp_path, capsys,
                                                        edit, reason):
    # int() and float() would take each of these, or crash on it.
    data = json.loads(state_file.read_text())
    edit(data)
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(data))
    assert run(["sweep", "--state", str(bad), "--k", "1", "--root-samples", "2",
                "--internal-samples", "1", "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and reason in err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("blocks", [True, None, 5], ids=["bool", "null", "number"])
def test_sweep_rejects_blocks_that_are_not_a_list(state_file, tmp_path, capsys, blocks):
    data = json.loads(state_file.read_text())
    data["blocks"] = blocks
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(data))
    assert run(["sweep", "--state", str(bad), "--k", "1", "--root-samples", "2",
                "--internal-samples", "1", "--out", str(tmp_path / "m.csv")]) == 1
    assert f"error: {bad}: blocks {blocks!r} is not a list" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command, k", [("sweep", "1,2"), ("optimize", "2")])
def test_a_state_whose_summed_votes_overflow_is_rejected(tmp_path, capsys, command, k):
    # Each count is finite, but their sum is not.  The statewide share and
    # every share that summed past the largest float read NaN: on this state
    # sweep crashed, and optimize wrote NaN into its JSON summary.
    data = json.loads((GOLDEN / "state16.json").read_text())
    for block in data["blocks"][:3]:
        block["votes_r"] = 1e308
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(data))
    assert run([command, "--state", str(bad), "--k", k, "--root-samples", "3",
                "--internal-samples", "2", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "R and" in err and "are not finite" in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_a_block_that_lists_itself_as_a_neighbor(tmp_path, capsys):
    # The tree builder's contiguity check took such a block for its own
    # neighbour and let a cut block leave its child.
    data = json.loads((GOLDEN / "state16.json").read_text())
    data["blocks"][5]["neighbors"].append(5)
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(data))
    assert run(["sweep", "--state", str(bad), "--k", "1,2", "--root-samples", "3",
                "--internal-samples", "2", "--out", str(tmp_path / "m.csv")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: block 5 lists itself as a neighbor\n"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("field, reason", [
    ("votes_r", "malformed block record"), ("votes_d", "malformed block record"),
    ("x", "malformed block record"), ("y", "malformed block record"),
    ("population", "total population is too large for a float"),
])
def test_sweep_rejects_a_number_a_float_cannot_hold(tmp_path, capsys, field, reason):
    # float() of the vote or coordinate overflowed while loading; the population
    # loaded and overflowed a float when the tree builder drew a center.
    data = json.loads((GOLDEN / "state16.json").read_text())
    data["blocks"][3][field] = 10 ** 400
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(data))
    assert run(["sweep", "--state", str(bad), "--k", "1,2", "--root-samples", "3",
                "--internal-samples", "2", "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {reason}")
    if field != "population":
        assert err.endswith(f": block 3: {field} is too large for a float\n")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("text, reason", [
    (lambda t: t.replace('"population": 1000', '"population": 1' + "0" * 5000, 1),
     "Exceeds the limit (4300 digits)"),
    (lambda t: t.replace('"x": 0.0', '"x": "\xe9"', 1).encode("latin-1"), "can't decode byte 0xe9"),
], ids=["digits", "not_utf8"])
def test_sweep_names_a_state_file_that_json_cannot_read(tmp_path, capsys, text, reason):
    # Both are ValueErrors, not JSONDecodeErrors, and were printed without the file.
    bad = tmp_path / "state.json"
    data = text(json.dumps(json.loads((GOLDEN / "state16.json").read_text())))
    bad.write_bytes(data if isinstance(data, bytes) else data.encode())
    assert run(["sweep", "--state", str(bad), "--k", "1", "--root-samples", "2",
                "--internal-samples", "1", "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid JSON: ") and reason in err


@pytest.mark.parametrize("which", ["state", "plan", "config"])
def test_deeply_nested_json_is_invalid_json_naming_the_file(
        state_file, plan_file, tmp_path, capsys, which):
    bad = tmp_path / f"{which}.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    out = ["--out", str(tmp_path / "x")]
    argv = {"state": ["sweep", "--state", str(bad), "--k", "1", *out],
            "plan": ["stv", "--state", str(state_file), "--plan", str(bad), *out],
            "config": ["optimize", "--state", str(state_file), "--config", str(bad), *out]}
    assert run(argv[which]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON: ")


@pytest.mark.parametrize("total_seats", [1e308, 10 ** 30, 16001], ids=["1e308", "1e30", "one_more"])
def test_load_state_rejects_more_seats_than_people(state_file, tmp_path, total_seats):
    # Every block of the 16-block state holds 1,000 people.  Read as whole
    # numbers, these seat counts would make a sweep's per-leaf seat tables
    # grow without bound.
    data = json.loads(state_file.read_text())
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps({**data, "total_seats": 16000}))
    assert load_state(bad).total_seats == 16000
    bad.write_text(json.dumps({**data, "total_seats": total_seats}))
    with pytest.raises(StateFormatError) as err:
        load_state(bad)
    assert str(err.value) == (f"{bad}: total_seats {int(total_seats)} exceeds the total "
                              f"population 16000")


def _isolate_block_3(data):
    for block in data["blocks"]:
        block["neighbors"] = [] if block["id"] == 3 else [b for b in block["neighbors"] if b != 3]


@pytest.mark.parametrize("edit, reason", [
    (lambda d: d.update(total_seats=0), "total_seats must be >= 1, got 0"),
    (lambda d: d["blocks"][3].update(id=2), "duplicate block id 2"),
    (lambda d: d["blocks"][3]["neighbors"].append(99), "block 3 lists unknown neighbor 99"),
    (lambda d: d["blocks"][3].update(neighbors=d["blocks"][3]["neighbors"][1:]),
     "adjacency not symmetric"),
    (_isolate_block_3, "block graph is disconnected"),
], ids=["zero_seats", "duplicate_id", "unknown_neighbor", "asymmetric", "disconnected"])
def test_sweep_names_the_state_file_for_an_invalid_state(state_file, tmp_path, capsys,
                                                         edit, reason):
    # The records parse, but the state they describe is invalid.
    data = json.loads(state_file.read_text())
    edit(data)
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(data))
    assert run(["sweep", "--state", str(bad), "--k", "1", "--root-samples", "2",
                "--internal-samples", "1", "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and reason in err
    assert not (tmp_path / "m.csv").exists()


def test_optimize_objectives_bracket(state_file, tmp_path):
    values = {}
    for objective in ("max-r", "fair", "max-d"):
        out = tmp_path / objective
        assert run(["optimize", "--state", str(state_file), "--k", "2",
                    "--objective", objective, "--sigma", "0", "--seed", "2",
                    "--root-samples", "8", "--internal-samples", "3",
                    "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        values[objective] = summary["seats_r"]
        plan = load_plan(out / "plan.json")
        assert validate_plan(load_state(state_file), plan).ok
    assert values["max-r"] >= values["fair"] >= values["max-d"]


def test_optimize_fair_summary_matches_rescoring(state_file, tmp_path):
    out = tmp_path / "fair"
    run(["optimize", "--state", str(state_file), "--k", "2", "--objective", "fair",
         "--sigma", "0", "--seed", "2", "--root-samples", "8",
         "--internal-samples", "3", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    state = load_state(state_file)
    from mmdistrict.analysis import plan_deterministic_seats
    from mmdistrict.rules import STV
    seats = plan_deterministic_seats(load_plan(out / "plan.json"), state, STV)
    assert summary["seats_r"] == seats
    assert summary["proportionality_gap"] == pytest.approx(
        abs(seats / state.total_seats - state.statewide_vote_share()))


def test_ensemble_csv(state_file, tmp_path):
    out = tmp_path / "ens.csv"
    assert run(["ensemble", "--state", str(state_file), "--k", "2",
                "--seed", "4", "--root-samples", "6",
                "--internal-samples", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r[2] for r in rows[1:]] == ["min", "q1", "median", "q3", "max"]


def test_stv_command_reproducible_and_verbose(state_file, tmp_path):
    plan_dir = tmp_path / "planout"
    run(["optimize", "--state", str(state_file), "--k", "2", "--objective", "fair",
         "--seed", "2", "--root-samples", "8", "--internal-samples", "3",
         "--out", str(plan_dir)])
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert run(["stv", "--state", str(state_file), "--plan", str(plan_dir / "plan.json"),
                    "--seed", "5", "--voters-per-block", "8", "--mode", "partisan_score",
                    "--verbose", "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "election.json").read_bytes() == (outs[1] / "election.json").read_bytes()
    assert (outs[0] / "rounds.jsonl").read_bytes() == (outs[1] / "rounds.jsonl").read_bytes()
    election = json.loads((outs[0] / "election.json").read_text())
    assert election["seats_r"] + election["seats_d"] == 4
    first = json.loads((outs[0] / "rounds.jsonl").read_text().splitlines()[0])
    assert "counts" in first and "round" in first


def test_stv_names_its_files_for_a_district_without_voters(tmp_path, capsys):
    # The voter file keeps only the voters of the plan's district 0.
    plan = GOLDEN / "plan72_fair.json"
    kept = load_plan(plan).districts[0].block_ids
    header, *lines = (GOLDEN / "voters72.csv").read_text().splitlines()
    voters = tmp_path / "voters.csv"
    voters.write_text("".join(f"{line}\n" for line in [header] + [
        line for line in lines if int(line.split(",")[1]) in kept]))
    out = tmp_path / "election"
    assert run(["stv", "--state", str(GOLDEN / "state72.json"), "--plan", str(plan),
                "--voter-file", str(voters), "--out", str(out)]) == 1
    assert (f"error: {plan}: district 1 has no voters in {voters}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_stv_rejects_invalid_plan(state_file, tmp_path):
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps({"districts": [{"seats": 4, "blocks": [0, 1]}]}))
    assert run(["stv", "--state", str(state_file), "--plan", str(bad),
                "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("field, change", [
    ("seats", lambda v: v + 0.7),
    ("seats", str),
    ("seats", lambda v: True),
    ("block id", lambda v: v + 0.5),
    ("block id", str),
], ids=["seats_fraction", "seats_string", "seats_bool", "block_fraction", "block_string"])
def test_stv_rejects_a_plan_number_of_the_wrong_type(state_file, plan_file, tmp_path, capsys,
                                                     field, change):
    # int() would truncate each fraction and take each string or bool; the
    # fractions and strings would then run the election on the original plan.
    data = json.loads(plan_file.read_text())
    district = data["districts"][0]
    if field == "seats":
        district["seats"] = value = change(district["seats"])
    else:
        district["blocks"][0] = value = change(district["blocks"][0])
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps(data))
    assert run(["stv", "--state", str(state_file), "--plan", str(bad),
                "--out", str(tmp_path / "x")]) == 1
    assert (f"error: {bad}: malformed plan: district 0: {field} {value!r} is not an integer"
            in capsys.readouterr().err)


def test_stv_names_a_plan_file_without_districts(state_file, tmp_path, capsys):
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps({"districts": []}))
    assert run(["stv", "--state", str(state_file), "--plan", str(bad),
                "--out", str(tmp_path / "x")]) == 1
    assert (f"error: {bad}: malformed plan: plan must contain at least one district"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, value, reason", [
    ("seats", 0, "district seats must be >= 1, got 0"),
    ("blocks", [], "district must contain at least one block"),
], ids=["zero_seats", "no_blocks"])
def test_stv_names_the_district_a_plan_file_gets_wrong(state_file, plan_file, tmp_path, capsys,
                                                       field, value, reason):
    data = json.loads(plan_file.read_text())
    data["districts"][1][field] = value
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps(data))
    assert run(["stv", "--state", str(state_file), "--plan", str(bad),
                "--out", str(tmp_path / "x")]) == 1
    assert (f"error: {bad}: malformed plan: district 1: {reason}"
            in capsys.readouterr().err)


def test_stv_reports_an_impossible_seat_count_as_a_violation(state_file, plan_file, tmp_path,
                                                              capsys):
    # The district's population target, people x seats / 4, overflows a float.
    data = json.loads(plan_file.read_text())
    data["districts"][0]["seats"] = 1e308
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps(data))
    assert run(["stv", "--state", str(state_file), "--plan", str(bad),
                "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: plan failed validation:")
    assert f"district 0: {int(1e308)} seats exceed the state's 4" in err


def test_stv_reports_invalid_plan_json_with_its_path(state_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["stv", "--state", str(state_file), "--plan", str(bad),
                "--out", str(tmp_path / "x")]) == 1
    assert f"error: {bad}: invalid JSON" in capsys.readouterr().err


def test_diversity_csv(state_file, tmp_path):
    out = tmp_path / "div.csv"
    assert run(["diversity", "--state", str(state_file), "--k", "1,4", "--seed", "6",
                "--voters-per-block", "8", "--ensemble-size", "2",
                "--root-samples", "5", "--internal-samples", "2",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "party", "winner_score_stddev",
                       "coalition_score_stddev", "coalition_geo_km"]
    assert {r[0] for r in rows[1:]} == {"1", "4"}


@pytest.mark.parametrize("argv", [
    ["synth", "--blocks", "4", "--seats", "2", "--r-share", "0.4"],
    ["sweep", "--k", "1,2", "--root-samples", "4", "--internal-samples", "2"],
    ["ensemble", "--k", "2", "--root-samples", "4", "--internal-samples", "2"],
    ["diversity", "--k", "1", "--voters-per-block", "4", "--ensemble-size", "1"],
], ids=lambda argv: argv[0])
def test_out_file_in_a_missing_directory_is_written(state_file, tmp_path, argv):
    out = tmp_path / "new" / "dir" / "out"
    state = [] if argv[0] == "synth" else ["--state", str(state_file)]
    assert run([*argv, *state, "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_config_file_supplies_defaults_but_flags_win(state_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": "1", "seed": 11, "root_samples": 5,
                                  "internal_samples": 2, "ensemble_size": 5,
                                  "sigma": 0.0}))
    out_config = tmp_path / "from_config.csv"
    assert run(["sweep", "--state", str(state_file), "--config", str(config),
                "--out", str(out_config)]) == 0
    assert {r[0] for r in read_csv(out_config)[1:]} == {"1"}
    out_flag = tmp_path / "flag_wins.csv"
    assert run(["sweep", "--state", str(state_file), "--config", str(config),
                "--k", "2", "--out", str(out_flag)]) == 0
    assert {r[0] for r in read_csv(out_flag)[1:]} == {"2"}


#: subcommand -> every flag it accepts, besides -h/--help.
CLI_SURFACE = {
    "synth": {"--config", "--seed", "--out", "--blocks", "--seats", "--r-share", "--corr"},
    "sweep": {"--config", "--seed", "--out", "--state", "--rule", "--k", "--sigma",
              "--ensemble-size", "--root-samples", "--internal-samples"},
    "optimize": {"--config", "--seed", "--out", "--state", "--rule", "--k", "--sigma",
                 "--objective", "--root-samples", "--internal-samples"},
    "ensemble": {"--config", "--seed", "--out", "--state", "--rule", "--k",
                 "--root-samples", "--internal-samples"},
    "stv": {"--config", "--seed", "--out", "--state", "--plan", "--voters-per-block",
            "--score-spread", "--voter-file", "--mode", "--per-party", "--verbose"},
    "diversity": {"--config", "--seed", "--out", "--state", "--k", "--ensemble-size",
                  "--voters-per-block", "--score-spread", "--voter-file", "--mode",
                  "--per-party", "--root-samples", "--internal-samples"},
}


def test_cli_surface_is_exactly_the_documented_flags():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(CLI_SURFACE)
    for name, sub in subparsers.choices.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == CLI_SURFACE[name], name


@pytest.fixture(scope="module")
def plan_file(state_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("plan")
    assert run(["optimize", "--state", str(state_file), "--k", "2", "--seed", "2",
                "--root-samples", "8", "--internal-samples", "3", "--out", str(out)]) == 0
    return out / "plan.json"


def _corrupt(lines, i, row):
    return lines[:i] + [row] + lines[i + 1:]


def _set_field(row, i, value):
    fields = row.split(",")
    return ",".join(fields[:i] + [str(value)] + fields[i + 1:])


@pytest.mark.parametrize("corrupt, line, reason", [
    (lambda lines: [], 1, "voter_id header"),
    (lambda lines: _corrupt(lines, 2, lines[2].rsplit(",", 2)[0]), 3, "6 fields"),
    (lambda lines: _corrupt(lines, 1, lines[1].replace(",D,", ",X,").replace(",R,", ",X,")),
     2, "party R or D"),
    (lambda lines: _corrupt(lines, 1, _set_field(lines[1], 0, 10 ** 30)), 2,
     f"voter_id {10 ** 30} is outside the int64 range"),
    (lambda lines: _corrupt(lines, 1, _set_field(lines[1], 1, 10 ** 30)), 2,
     f"block_id {10 ** 30} is outside the int64 range"),
    (lambda lines: _corrupt(lines, 2, _set_field(lines[2], 3, "1" * 131073)), 3,
     "field larger than field limit"),
    (lambda lines: _corrupt(lines, 0, "voter_id,foo,bar,baz,qux,quux"), 1, "voter_id header"),
    (lambda lines: _corrupt(lines, 0, "voter_id,block_id,party,partisan_score,y,x"), 1,
     "voter_id header"),
], ids=["empty", "short_row", "unknown_party", "voter_id_past_int64", "block_id_past_int64",
        "field_past_csv_limit", "header_other_columns", "header_reordered"])
def test_stv_rejects_malformed_voter_file_naming_path_and_line(
        state_file, plan_file, tmp_path, capsys, corrupt, line, reason):
    voters = tmp_path / "voters.csv"
    save_voter_file(generate_voter_file(load_state(state_file), 4, 0.5, seed=1), voters)
    voters.write_text("".join(f"{row}\n" for row in corrupt(voters.read_text().splitlines())))
    assert run(["stv", "--state", str(state_file), "--plan", str(plan_file),
                "--voter-file", str(voters), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"error: {voters}: line {line}: " in err and reason in err


def test_stv_names_the_line_of_a_voter_file_byte_that_is_not_utf8(
        state_file, plan_file, tmp_path, capsys):
    # Line 500 of about 640 lies past the first 8 KiB a text reader decodes at once.
    voters = tmp_path / "voters.csv"
    save_voter_file(generate_voter_file(load_state(state_file), 40, 0.5, seed=1), voters)
    lines = voters.read_bytes().splitlines(keepends=True)
    lines[499] = lines[499].replace(b",", b",\xff", 1)
    voters.write_bytes(b"".join(lines))
    assert run(["stv", "--state", str(state_file), "--plan", str(plan_file),
                "--voter-file", str(voters), "--out", str(tmp_path / "x")]) == 1
    assert f"error: {voters}: line 500: " in capsys.readouterr().err


def voters_in_a_block_the_state_lacks(state_file, tmp_path):
    """A voter file of the state in which voters 2 to 6 sit in block 999."""
    path = tmp_path / "voters.csv"
    save_voter_file(generate_voter_file(load_state(state_file), 4, 0.5, seed=1), path)
    lines = path.read_text().splitlines()
    for i in range(3, 8):
        voter_id, _, rest = lines[i].split(",", 2)
        lines[i] = f"{voter_id},999,{rest}"
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


def test_stv_rejects_voters_in_a_block_the_state_lacks(state_file, plan_file, tmp_path, capsys):
    voters = voters_in_a_block_the_state_lacks(state_file, tmp_path)
    assert run(["stv", "--state", str(state_file), "--plan", str(plan_file),
                "--voter-file", str(voters), "--out", str(tmp_path / "x")]) == 1
    assert (f"error: {voters}: voter 2 is in block 999, which the state does not have"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_diversity_rejects_voters_in_a_block_the_state_lacks(state_file, tmp_path, capsys):
    voters = voters_in_a_block_the_state_lacks(state_file, tmp_path)
    out = tmp_path / "div.csv"
    assert run(["diversity", "--state", str(state_file), "--k", "1,2", "--seed", "6",
                "--ensemble-size", "1", "--root-samples", "3", "--internal-samples", "1",
                "--voter-file", str(voters), "--out", str(out)]) == 1
    assert (f"error: {voters}: voter 2 is in block 999, which the state does not have"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["stv", "diversity"])
def test_election_commands_reject_a_block_id_outside_int64(tmp_path, capsys, command):
    # load_state takes the id and optimize writes its plan; the voter file cannot hold it.
    ids = [0, 1, 2, 2 ** 63]  # a path
    state_path = tmp_path / "state.json"
    save_state(StateInstance(
        [Block(b, 100, 40.0, 40.0, float(i), 0.0) for i, b in enumerate(ids)],
        {b: {ids[j] for j in (i - 1, i + 1) if 0 <= j < len(ids)} for i, b in enumerate(ids)},
        2), state_path)
    common = ["--state", str(state_path), "--k", "1", "--root-samples", "2",
              "--internal-samples", "1"]
    assert run(["optimize", *common, "--out", str(tmp_path / "plan")]) == 0
    argv = (["stv", "--state", str(state_path), "--plan", str(tmp_path / "plan" / "plan.json")]
            if command == "stv" else ["diversity", *common, "--ensemble-size", "1"])
    assert run([*argv, "--out", str(tmp_path / "x")]) == 1
    assert (f"error: block id {2 ** 63} is outside the int64 range"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_config_must_be_a_json_object(state_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps([["k", "1"]]))
    assert run(["sweep", "--state", str(state_file), "--config", str(config),
                "--out", str(tmp_path / "m.csv")]) == 1
    assert f"error: {config}: config must be a JSON object" in capsys.readouterr().err


def test_config_rejects_keys_that_are_not_flags_of_the_command(state_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    # "sed" is a typo of "seed"; "objective" is a flag of optimize, not of sweep.
    config.write_text(json.dumps({"sed": 3, "objective": "fair", "k": "1"}))
    out = tmp_path / "m.csv"
    assert run(["sweep", "--state", str(state_file), "--config", str(config),
                "--out", str(out)]) == 1
    assert "['objective', 'sed']" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_take_the_flag_type(state_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"root_samples": "5", "internal_samples": 2}))
    from_config, from_flags = tmp_path / "config", tmp_path / "flags"
    base = ["optimize", "--state", str(state_file), "--k", "2", "--seed", "2"]
    assert run(base + ["--config", str(config), "--out", str(from_config)]) == 0
    assert run(base + ["--root-samples", "5", "--internal-samples", "2",
                       "--out", str(from_flags)]) == 0
    for name in ("plan.json", "summary.json"):
        assert (from_config / name).read_bytes() == (from_flags / name).read_bytes()


@pytest.mark.parametrize("values, reason", [
    ({"root_samples": "five"}, "root_samples: invalid literal for int()"),
    ({"root_samples": 2.5}, "root_samples: invalid literal for int()"),
    ({"rule": "borda"}, "rule: 'borda' is not one of"),
    # checked even though the --out flag wins over it
    ({"out": ["plan"]}, "out: ['plan'] is not a string or a number"),
], ids=["not_an_int", "float_for_int", "unknown_rule", "list_for_out"])
def test_config_rejects_values_the_flag_would_reject(state_file, tmp_path, capsys,
                                                     values, reason):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "plan"
    assert run(["optimize", "--state", str(state_file), "--k", "2", "--config", str(config),
                "--out", str(out)]) == 1
    assert f"error: {config}: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verbose", ["no", 0])
def test_config_verbose_must_be_true_or_false(state_file, plan_file, tmp_path, capsys, verbose):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"verbose": verbose}))
    out = tmp_path / "stv"
    assert run(["stv", "--state", str(state_file), "--plan", str(plan_file),
                "--config", str(config), "--out", str(out)]) == 1
    assert f"error: {config}: verbose: {verbose!r} is not true or false" in capsys.readouterr().err
    assert not out.exists()


def test_config_number_names_a_file_not_standard_input(state_file, tmp_path):
    # {"state": 0} is the text "0", as --state 0 would be: a file named 0,
    # which the working directory lacks, not the state piped to stdin.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"state": 0}))
    out = tmp_path / "m.csv"
    with open(state_file) as stdin:
        proc = run_module(["sweep", "--config", str(config), "--k", "1", "--out", str(out)],
                          stdin=stdin, cwd=tmp_path)
    assert proc.returncode == 1
    assert "No such file or directory: '0'" in proc.stderr
    assert not out.exists()


def test_diversity_keeps_every_k_that_built(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert run(["synth", "--blocks", "64", "--seats", "6", "--r-share", "0.4", "--corr", "2",
                "--seed", "3", "--out", str(state)]) == 0
    base = ["diversity", "--state", str(state), "--root-samples", "30",
            "--internal-samples", "4", "--voters-per-block", "4", "--ensemble-size", "1"]
    out = tmp_path / "div.csv"
    # No 4-district tree of this state builds from these samples; k=1 and k=2 do.
    assert run(base + ["--k", "1,2,4", "--out", str(out)]) == 0
    assert {r[0] for r in read_csv(out)[1:]} == {"1", "2"}
    assert "k=4 failed to build" in capsys.readouterr().err
    assert run(base + ["--k", "4", "--out", str(tmp_path / "none.csv")]) == 1


@pytest.mark.parametrize("command", ["sweep", "diversity"])
def test_k_list_without_a_value_is_an_error(state_file, tmp_path, capsys, command):
    out = tmp_path / "m.csv"
    assert run([command, "--state", str(state_file), "--k", ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --k ',' names no district count\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,name", [("--root-samples", "root_samples"),
                                       ("--internal-samples", "internal_samples")])
@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_zero_sample_count_is_an_error(state_file, tmp_path, capsys, command, flag, name):
    out = tmp_path / "out"
    assert run([command, "--state", str(state_file), "--k", "2", flag, "0",
                "--out", str(out)]) == 1
    assert f"error: {name} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_diversity_rejects_an_empty_ensemble(state_file, tmp_path, capsys):
    out = tmp_path / "div.csv"
    assert run(["diversity", "--state", str(state_file), "--k", "2", "--ensemble-size", "0",
                "--root-samples", "4", "--internal-samples", "2", "--out", str(out)]) == 1
    assert "error: --ensemble-size must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-3", "0"])
@pytest.mark.parametrize("command", ["stv", "diversity"])
def test_per_party_below_one_is_an_error(state_file, tmp_path, capsys, command, value):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"districts": [{"seats": 4, "blocks": list(range(16))}]}))
    out = tmp_path / "out"
    argv = {"stv": ["--plan", str(plan)], "diversity": ["--k", "1"]}[command]
    assert run([command, "--state", str(state_file), *argv, "--per-party", value,
                "--out", str(out)]) == 1
    assert f"error: --per-party must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_negative_seed_is_an_error_naming_the_flag(state_file, tmp_path, capsys, command):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"districts": [{"seats": 4, "blocks": list(range(16))}]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "out"
    argv = {"synth": ["--blocks", "16", "--seats", "4", "--r-share", "0.4"],
            "stv": ["--state", str(state_file), "--plan", str(plan)]}.get(
                command, ["--state", str(state_file), "--k", "2"])
    for source in (["--seed", "-1"], ["--config", str(config)]):
        assert run([command, *argv, *source, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()


@pytest.mark.parametrize("value", ["all", "2.5"])
@pytest.mark.parametrize("command", ["optimize", "ensemble"])
def test_k_that_is_not_one_whole_count_is_an_error(state_file, tmp_path, capsys, command,
                                                    value):
    out = tmp_path / "out"
    assert run([command, "--state", str(state_file), "--k", value, "--out", str(out)]) == 1
    assert f"error: --k must be a whole district count, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def worker_starts(monkeypatch):
    """Every child process started while the test runs."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    return started


@needs_fork
def test_one_sweep_forks_one_pool_and_writes_the_serial_bytes(state_file, tmp_path, monkeypatch,
                                                               worker_starts):
    argv = ["sweep", "--state", str(state_file), "--k", "all", "--seed", "1",
            "--root-samples", "6", "--internal-samples", "2", "--ensemble-size", "10"]
    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 1)
    assert run(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
    assert worker_starts == []
    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 2)
    assert run(argv + ["--out", str(tmp_path / "pooled.csv")]) == 0
    assert len(worker_starts) == 1  # the caller is the pool's second process
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_k_that_fails_to_build_keeps_the_pool_for_later_k(tmp_path, monkeypatch,
                                                            worker_starts):
    # On this path no two-district split balances, but three districts do.
    state = tmp_path / "path.json"
    save_state(make_path_state([1, 1, 2, 2], [0.6, 0.4, 0.5, 0.3], seats=6), state)
    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 2)
    out = tmp_path / "metrics.csv"
    assert run(["sweep", "--state", str(state), "--k", "1,2,3", "--seed", "1",
                "--root-samples", "6", "--internal-samples", "2", "--ensemble-size", "10",
                "--out", str(out)]) == 0
    built = {row[0] for row in read_csv(out)[1:] if row[2] != "failed"}
    failed = {row[0] for row in read_csv(out)[1:] if row[2] == "failed"}
    assert (built, failed) == ({"1", "3"}, {"2"})
    assert len(worker_starts) == 1  # the caller is the pool's second process
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_worker_exception_ends_the_command_and_its_pool(state_file, tmp_path, monkeypatch,
                                                          worker_starts):
    def fail(*args, **kwargs):
        raise RuntimeError("split failed in a worker")

    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 2)
    monkeypatch.setattr(tree_mod, "split_region", fail)
    with pytest.raises(RuntimeError, match="split failed in a worker"):
        run(["sweep", "--state", str(state_file), "--k", "all", "--root-samples", "6",
             "--internal-samples", "2", "--out", str(tmp_path / "metrics.csv")])
    assert len(worker_starts) == 1  # the caller is the pool's second process
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("die, reads", [(lambda: os._exit(9), "exited with code 9"),
                                        (lambda: os.kill(os.getpid(), signal.SIGKILL),
                                         "was killed by signal 9")], ids=["exit", "signal"])
def test_a_dead_worker_is_an_error_not_a_traceback(state_file, tmp_path, monkeypatch, capsys,
                                                   worker_starts, die, reads):
    parent, split_region = os.getpid(), tree_mod.split_region

    def die_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            die()
        time.sleep(0.01)  # the caller runs samples too; this lets the worker claim one
        return split_region(*args, **kwargs)

    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 2)
    monkeypatch.setattr(tree_mod, "split_region", die_in_a_worker)
    out = tmp_path / "plan"
    assert run(["optimize", "--state", str(state_file), "--k", "2", "--root-samples", "8",
                "--internal-samples", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: root-sample worker {worker_starts[0].pid} {reads}\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


@needs_fork
def test_an_exception_between_trees_ends_the_command_and_its_pool(state_file, tmp_path,
                                                                  monkeypatch, worker_starts):
    score_leaves = analysis.score_leaves
    scored = []

    def fail_at_the_second_k(tree, *args, **kwargs):
        scored.append(tree.root.n_districts)
        if len(scored) == 2:
            raise RuntimeError("scoring failed")
        return score_leaves(tree, *args, **kwargs)

    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 2)
    monkeypatch.setattr(analysis, "score_leaves", fail_at_the_second_k)
    with pytest.raises(RuntimeError, match="scoring failed"):
        run(["sweep", "--state", str(state_file), "--k", "all", "--root-samples", "6",
             "--internal-samples", "2", "--out", str(tmp_path / "metrics.csv")])
    assert scored == [1, 2]
    assert len(worker_starts) == 1  # the caller is the pool's second process
    assert multiprocessing.active_children() == []


DIVERSITY_FLAGS = ["--k", "1,2,4", "--seed", "2", "--voters-per-block", "5",
                   "--ensemble-size", "3", "--root-samples", "6", "--internal-samples", "2"]


@needs_fork
def test_one_diversity_forks_one_pool_and_writes_the_serial_bytes(state_file, tmp_path,
                                                                  monkeypatch, worker_starts):
    argv = ["diversity", "--state", str(state_file), *DIVERSITY_FLAGS]
    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 1)
    assert run(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
    assert worker_starts == []
    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 2)
    assert run(argv + ["--out", str(tmp_path / "pooled.csv")]) == 0
    assert len(worker_starts) == 1  # the caller is the pool's second process
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors via /proc")
def test_an_exception_in_the_elections_ends_the_diversity_command_and_its_pool(
        state_file, tmp_path, monkeypatch, worker_starts):
    intra_party_analysis = analysis.intra_party_analysis
    analysed = []

    def fail_at_the_second_k(state, plans, *args, **kwargs):
        analysed.append(len(plans[0].districts))
        if len(analysed) == 2:
            raise RuntimeError("election failed")
        return intra_party_analysis(state, plans, *args, **kwargs)

    monkeypatch.setattr(tree_mod, "_pool_size", lambda n_samples: 2)
    monkeypatch.setattr(analysis, "intra_party_analysis", fail_at_the_second_k)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(RuntimeError, match="election failed"):
        run(["diversity", "--state", str(state_file), *DIVERSITY_FLAGS,
             "--out", str(tmp_path / "diversity.csv")])
    assert analysed == [1, 2]
    assert len(worker_starts) == 1  # the caller is the pool's second process
    assert multiprocessing.active_children() == []
    for p in worker_starts:  # the fixture keeps each Process, and so its two sentinel pipe ends
        p.close()
    assert len(os.listdir("/proc/self/fd")) == before


@needs_fork
def test_a_command_pools_whenever_two_cpus_fork_and_two_root_samples_allow(tmp_path, monkeypatch,
                                                                           worker_starts):
    # A tiny build still pools: no estimate of its work holds it back.
    argv = ["optimize", "--state", str(GOLDEN / "state16.json"), "--k", "2", "--seed", "1"]
    runs = {"two_cpus": ({0, 1}, "2", ["fork"], 1), "one_cpu": ({0}, "2", ["fork"], 0),
            "one_sample": ({0, 1}, "1", ["fork"], 0), "no_fork": ({0, 1}, "2", ["spawn"], 0)}
    for name, (cpus, root_samples, methods, forked) in runs.items():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        started = len(worker_starts)
        assert run(argv + ["--root-samples", root_samples, "--out", str(tmp_path / name)]) == 0
        assert len(worker_starts) - started == forked, name
        assert multiprocessing.active_children() == []
    for output in ["plan.json", "summary.json"]:
        assert len({(tmp_path / name / output).read_bytes() for name in runs}) == 1, output


#: What the input fuzz puts in place of a value.
FUZZ_VALUES = [True, None, "x", [1, 2], 0.5, 10 ** 400, 1e308]


def _json_paths(node, at=()):
    """The key path of every value inside a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _json_paths(value, at + (key,))


def _mutate_json(data, draw):
    """One value of ``data`` replaced or deleted, or one list record duplicated."""
    data = copy.deepcopy(data)
    action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    *head, key = draw(st.sampled_from([
        p for p in _json_paths(data) if action != "duplicate" or isinstance(p[-1], int)]))
    parent = functools.reduce(operator.getitem, head, data)
    if action == "replace":
        parent[key] = draw(st.sampled_from(FUZZ_VALUES))
    elif action == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return json.dumps(data)


def _mutate_csv(rows, draw):
    """One field of the rows replaced (by a value's JSON text) or deleted, or one row duplicated."""
    rows = [list(row) for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if action == "replace":
        rows[i][j] = json.dumps(draw(st.sampled_from(FUZZ_VALUES)))
    elif action == "delete":
        del rows[i][j]
    else:
        rows.insert(i, rows[i])
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_input_files_exit_0_or_1_naming_the_file(tmp_path_factory, data):
    # The config file is left out: a huge root_samples or corr asks for that
    # much work, which is a bound to decide, not a malformed input.
    tmp = tmp_path_factory.mktemp("fuzz")
    stv = ["stv", "--state", str(GOLDEN / "state72.json"), "--out", str(tmp / "out")]
    which = data.draw(st.sampled_from(["state16.json", "plan72_fair.json", "voters72.csv"]))
    bad = tmp / which
    if which == "voters72.csv":
        with open(GOLDEN / which, newline="") as f:
            bad.write_text(_mutate_csv(list(csv.reader(f)), data.draw))
        argv = [*stv, "--plan", str(GOLDEN / "plan72_fair.json"), "--voter-file", str(bad)]
    else:
        bad.write_text(_mutate_json(json.loads((GOLDEN / which).read_text()), data.draw))
        argv = (["sweep", "--state", str(bad), "--k", "1,2", "--root-samples", "2",
                 "--internal-samples", "2", "--out", str(tmp / "m.csv")]
                if which == "state16.json" else
                [*stv, "--plan", str(bad), "--voter-file", str(GOLDEN / "voters72.csv")])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1)
    if code == 1:
        assert f"error: {bad}: " in err.getvalue()
