import argparse
import csv
import json
import multiprocessing
import multiprocessing.process

import pytest

import mmdistrict.tree as tree_mod
from mmdistrict import analysis, cli
from mmdistrict.model import load_plan, load_state, save_state, validate_plan
from mmdistrict.voters import generate_voter_file, save_voter_file
from conftest import make_path_state, needs_fork


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


def test_synth_requires_flags():
    with pytest.raises(SystemExit):
        run(["synth", "--blocks", "16", "--seats", "4"])


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


def test_sweep_rejects_out_of_range_k(state_file, tmp_path):
    with pytest.raises(SystemExit):
        run(["sweep", "--state", str(state_file), "--k", "9",
             "--out", str(tmp_path / "m.csv")])


def test_sweep_missing_state_file_fails(tmp_path):
    assert run(["sweep", "--state", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "m.csv")]) == 1


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


def test_stv_rejects_invalid_plan(state_file, tmp_path):
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps({"districts": [{"seats": 4, "blocks": [0, 1]}]}))
    assert run(["stv", "--state", str(state_file), "--plan", str(bad),
                "--out", str(tmp_path / "x")]) == 1


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


@pytest.mark.parametrize("corrupt, line, reason", [
    (lambda lines: [], 1, "voter_id header"),
    (lambda lines: _corrupt(lines, 2, lines[2].rsplit(",", 2)[0]), 3, "6 fields"),
    (lambda lines: _corrupt(lines, 1, lines[1].replace(",D,", ",X,").replace(",R,", ",X,")),
     2, "party R or D"),
], ids=["empty", "short_row", "unknown_party"])
def test_stv_rejects_malformed_voter_file_naming_path_and_line(
        state_file, plan_file, tmp_path, capsys, corrupt, line, reason):
    voters = tmp_path / "voters.csv"
    save_voter_file(generate_voter_file(load_state(state_file), 4, 0.5, seed=1), voters)
    voters.write_text("".join(f"{row}\n" for row in corrupt(voters.read_text().splitlines())))
    assert run(["stv", "--state", str(state_file), "--plan", str(plan_file),
                "--voter-file", str(voters), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"error: {voters}: line {line}: " in err and reason in err


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
], ids=["not_an_int", "float_for_int", "unknown_rule"])
def test_config_rejects_values_the_flag_would_reject(state_file, tmp_path, capsys,
                                                     values, reason):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "plan"
    assert run(["optimize", "--state", str(state_file), "--k", "2", "--config", str(config),
                "--out", str(out)]) == 1
    assert f"error: {config}: {reason}" in capsys.readouterr().err
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
def test_k_list_without_a_value_is_an_error(state_file, tmp_path, command):
    out = tmp_path / "m.csv"
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--state", str(state_file), "--k", ",", "--out", str(out)])
    assert exit_info.value.code == "error: --k ',' names no district count"
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
    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 1)
    assert run(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
    assert worker_starts == []
    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 2)
    assert run(argv + ["--out", str(tmp_path / "pooled.csv")]) == 0
    assert len(worker_starts) == 2
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_k_that_fails_to_build_keeps_the_pool_for_later_k(tmp_path, monkeypatch,
                                                            worker_starts):
    # On this path no two-district split balances, but three districts do.
    state = tmp_path / "path.json"
    save_state(make_path_state([1, 1, 2, 2], [0.6, 0.4, 0.5, 0.3], seats=6), state)
    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 2)
    out = tmp_path / "metrics.csv"
    assert run(["sweep", "--state", str(state), "--k", "1,2,3", "--seed", "1",
                "--root-samples", "6", "--internal-samples", "2", "--ensemble-size", "10",
                "--out", str(out)]) == 0
    built = {row[0] for row in read_csv(out)[1:] if row[2] != "failed"}
    failed = {row[0] for row in read_csv(out)[1:] if row[2] == "failed"}
    assert (built, failed) == ({"1", "3"}, {"2"})
    assert len(worker_starts) == 2
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_worker_exception_ends_the_command_and_its_pool(state_file, tmp_path, monkeypatch,
                                                          worker_starts):
    def fail(*args, **kwargs):
        raise RuntimeError("split failed in a worker")

    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 2)
    monkeypatch.setattr(tree_mod, "split_region", fail)
    with pytest.raises(RuntimeError, match="split failed in a worker"):
        run(["sweep", "--state", str(state_file), "--k", "all", "--root-samples", "6",
             "--internal-samples", "2", "--out", str(tmp_path / "metrics.csv")])
    assert len(worker_starts) == 2
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

    monkeypatch.setattr(tree_mod, "_pool_size", lambda work, n_samples: 2)
    monkeypatch.setattr(analysis, "score_leaves", fail_at_the_second_k)
    with pytest.raises(RuntimeError, match="scoring failed"):
        run(["sweep", "--state", str(state_file), "--k", "all", "--root-samples", "6",
             "--internal-samples", "2", "--out", str(tmp_path / "metrics.csv")])
    assert scored == [1, 2]
    assert len(worker_starts) == 2
    assert multiprocessing.active_children() == []
