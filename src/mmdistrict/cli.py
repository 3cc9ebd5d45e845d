"""Command-line entry point: synth, sweep, optimize, ensemble, stv, diversity.

Outputs are plain JSON/CSV.  Every command is deterministic given its full
flag set including --seed.  An optional JSON config file can supply any of
the subcommand's flags; explicit flags win on conflict.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import analysis, model, tree as tree_mod, voters as voters_mod
from .model import load_plan, load_state, save_plan, save_state, validate_plan
from .rules import RULES, UncertaintyModel, get_rule
# run_stv is not called here; it stays bound in this module because
# perfbench/tracer.py times the calls made through this name.
from .stv import partisan_split, run_stv  # noqa: F401


def _parse_k(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--k must be a whole district count, got {text!r}") from None


def _parse_k_set(text: str, n_seats: int):
    if text == "all":
        return list(range(1, n_seats + 1))
    ks = sorted({_parse_k(part) for part in text.split(",") if part})
    if not ks:
        raise SystemExit(f"error: --k {text!r} names no district count")
    bad = [k for k in ks if not 1 <= k <= n_seats]
    if bad:
        raise SystemExit(f"error: k values {bad} outside 1..{n_seats}")
    return ks


def _options(args):
    """Layer the command's defaults, then --config values, then explicit flags."""
    _, _, defaults, required = COMMANDS[args.command]
    opts = dict(defaults)
    if args.config:
        opts.update(_config(args.config, args.command, defaults))
    opts.update((key, val) for key, val in vars(args).items()
                if key in defaults and val is not None)
    missing = ["--" + key.replace("_", "-") for key in required if opts[key] is None]
    if missing:
        raise SystemExit(f"error: {args.command} requires {', '.join(missing)}")
    if opts["seed"] < 0:
        raise ValueError(f"--seed must be >= 0, got {opts['seed']}")
    if opts.get("per_party") is not None and opts["per_party"] < 1:
        raise ValueError(f"--per-party must be >= 1, got {opts['per_party']}")
    return opts


def _config(path, command, defaults):
    """A config file's flag values, each checked by the flag's own type and choices:
    a JSON string or number, used as its text, or for ``verbose`` a JSON bool."""
    config = model.read_json(path)
    if not isinstance(config, dict):
        raise model.StateFormatError(f"{path}: config must be a JSON object")
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise model.StateFormatError(f"{path}: not flags of {command}: {unknown}")
    for key, val in config.items():
        spec = FLAGS[key]
        try:
            if "action" in spec:
                if type(val) is not bool:
                    raise ValueError(f"{val!r} is not true or false")
            elif type(val) not in (str, int, float):
                raise ValueError(f"{val!r} is not a string or a number")
            else:
                # The flag sees the value as argparse sees a command-line one: as text.
                config[key] = val = spec.get("type", str)(str(val))
            if "choices" in spec and val not in spec["choices"]:
                raise ValueError(f"{val!r} is not one of {spec['choices']}")
        except ValueError as e:
            raise model.StateFormatError(f"{path}: {key}: {e}") from e
    return config


def _build(opts, state):
    """The tree of the one district count that --k gives."""
    return tree_mod.build_tree(state, _parse_k(opts["k"]), opts["seed"], opts["root_samples"],
                               opts["internal_samples"])


def _voter_file(opts, state):
    path = opts["voter_file"]
    if not path:
        return voters_mod.generate_voter_file(
            state, opts["voters_per_block"], opts["score_spread"], opts["seed"])
    vfile = voters_mod.load_voter_file(path)
    stray = [rows[0] for b, rows in vfile.block_rows.items() if b not in state.block_map]
    if stray:
        row = min(stray)
        raise model.StateFormatError(f"{path}: voter {vfile.columns.id[row]} is in block "
                                     f"{vfile.block_id[row]}, which the state does not have")
    return vfile


def _write_csv(path, header, rows):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _metric_rows(records):
    return [[r.k, r.rule, r.statistic, repr(r.seats_r), repr(r.seat_share_r),
             repr(r.proportionality_gap)] for r in records]


METRICS_HEADER = ["k", "rule", "statistic", "seats_r", "seat_share_r", "gap"]


def cmd_synth(opts):
    state = model.generate_synthetic_state(
        opts["blocks"], opts["seats"], opts["r_share"], opts["corr"], opts["seed"])
    Path(opts["out"]).parent.mkdir(parents=True, exist_ok=True)
    save_state(state, opts["out"])
    return 0


def cmd_sweep(opts):
    state = load_state(opts["state"])
    rule = get_rule(opts["rule"])
    k_set = _parse_k_set(opts["k"], state.total_seats)
    records, failures = analysis.sweep_k(
        state, rule, k_set, UncertaintyModel(opts["sigma"]), seed=opts["seed"],
        root_samples=opts["root_samples"], internal_samples=opts["internal_samples"])
    rows = _metric_rows(records)
    for k, reason in sorted(failures.items()):
        rows.append([k, rule.name, "failed", "", "", reason])
    _write_csv(opts["out"], METRICS_HEADER, rows)
    if failures:
        print(f"warning: {len(failures)} k values failed to build", file=sys.stderr)
    return 1 if len(failures) == len(k_set) else 0


def cmd_optimize(opts):
    state = load_state(opts["state"])
    rule = get_rule(opts["rule"])
    built = _build(opts, state)
    scores = analysis.score_leaves(built, state, rule, UncertaintyModel(opts["sigma"]))
    y = state.statewide_vote_share()
    objective = opts["objective"]
    if objective == "fair":
        leaves, value, _gap = analysis.optimize_fair(
            built, analysis.seat_histograms(built, scores), y)
    else:
        leaves, value = analysis.optimize_partisan(built, scores, "R" if objective == "max-r" else "D")
    plan = tree_mod.plan_from_leaves(leaves)
    report = validate_plan(state, plan)
    if not report.ok:
        print("error: optimized plan failed validation:", report.violations, file=sys.stderr)
        return 1
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_plan(plan, out / "plan.json")
    seats = sum(scores[leaf.node_id].deterministic_r_seats for leaf in leaves)
    summary = {
        "objective": objective, "rule": rule.name, "k": built.root.n_districts,
        "statewide_vote_share_r": y, "optimized_value": value,
        "seats_r": seats, "seat_share_r": seats / state.total_seats,
        "proportionality_gap": abs(seats / state.total_seats - y),
    }
    model.write_json(summary, out / "summary.json")
    return 0


def cmd_ensemble(opts):
    state = load_state(opts["state"])
    rule = get_rule(opts["rule"])
    built = _build(opts, state)
    scores = analysis.score_leaves(built, state, rule)
    records = analysis.ensemble_metrics(built, state, rule,
                                        analysis.seat_histograms(built, scores))
    _write_csv(opts["out"], METRICS_HEADER, _metric_rows(records))
    return 0


def cmd_stv(opts):
    state = load_state(opts["state"])
    plan = load_plan(opts["plan"])
    report = validate_plan(state, plan)
    if not report.ok:
        print(f"error: {opts['plan']}: plan failed validation:", report.violations, file=sys.stderr)
        return 1
    vfile = _voter_file(opts, state)
    districts_out = []
    log_lines = []
    for i, district in enumerate(plan.districts):
        candidates, _, result = analysis.elect(district, vfile, opts["mode"],
                                               opts["per_party"], opts["seed"] + i)
        if result is None:
            raise ValueError(f"{opts['plan']}: district {i} has no voters in "
                             f"{opts['voter_file'] or 'the generated voter file'}")
        split = partisan_split(result, candidates)
        districts_out.append({
            "district": i, "seats": district.seats, "quota": result.quota,
            "winners": result.winners,
            "winner_parties": [next(c.party for c in candidates if c.id == w)
                               for w in result.winners],
            "seats_r": split.seats_r, "seats_d": split.seats_d,
        })
        if opts["verbose"]:
            for entry in result.round_log():
                entry["district"] = i
                log_lines.append(json.dumps(entry, sort_keys=True))
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    model.write_json({"districts": districts_out,
                      "seats_r": sum(d["seats_r"] for d in districts_out),
                      "seats_d": sum(d["seats_d"] for d in districts_out)},
                     out / "election.json")
    if opts["verbose"]:
        with open(out / "rounds.jsonl", "w") as f:
            f.write("\n".join(log_lines) + "\n")
    return 0


def cmd_diversity(opts):
    state = load_state(opts["state"])
    k_set = _parse_k_set(opts["k"], state.total_seats)
    if opts["ensemble_size"] < 1:
        raise ValueError(f"--ensemble-size must be >= 1, got {opts['ensemble_size']}")
    vfile = _voter_file(opts, state)
    seed = opts["seed"]
    rows, failed = [], []
    for k, built in tree_mod.build_trees(state, k_set, seed, opts["root_samples"],
                                         opts["internal_samples"]):
        if isinstance(built, tree_mod.TreeBuildError):
            print(f"warning: k={k} failed to build: {built}", file=sys.stderr)
            failed.append(k)
            continue
        plans = tree_mod.sample_plans(built, opts["ensemble_size"], seed=seed + k)
        records = analysis.intra_party_analysis(
            state, plans, vfile, opts["mode"], opts["per_party"], seed=seed + k)
        for r in records:
            rows.append([k, r.party, repr(r.winner_score_stddev),
                         repr(r.coalition_score_stddev), repr(r.coalition_geo_dispersion)])
    _write_csv(opts["out"], ["k", "party", "winner_score_stddev",
                             "coalition_score_stddev", "coalition_geo_km"], rows)
    return 1 if len(failed) == len(k_set) else 0


#: flag dest -> argparse kwargs; the flag itself is the dest with dashes.
FLAGS = {
    "config": {"help": "JSON config file of flag values; explicit flags win"},
    "seed": {"type": int},
    "out": {},
    "blocks": {"type": int},
    "seats": {"type": int},
    "r_share": {"type": float},
    "corr": {"type": float},
    "state": {},
    "plan": {},
    "rule": {"choices": sorted(RULES)},
    "k": {"help": "district count; sweep and diversity take a comma-separated list or 'all'"},
    "sigma": {"type": float, "help": "vote-share noise; moves only the max-R/max-D picks"},
    "objective": {"choices": ["max-r", "max-d", "fair"]},
    "ensemble_size": {"type": int, "help": "plans sampled per k by diversity; "
                                           "sweep accepts it and ignores it"},
    "voters_per_block": {"type": int},
    "score_spread": {"type": float},
    "voter_file": {},
    "mode": {"choices": list(voters_mod.RANKING_MODES)},
    "per_party": {"type": int, "help": "candidates per party in each district (default seats + 2); "
                                       "a value below a district's seats is raised to its seats"},
    "verbose": {"action": "store_const", "const": True},
    "root_samples": {"type": int},
    "internal_samples": {"type": int},
}

COMMON = {"seed": 0, "out": None}
TREE = {"root_samples": None, "internal_samples": None}
ELECTION = {"voters_per_block": 20, "score_spread": 0.5, "voter_file": None,
            "mode": "partisan_score", "per_party": None}

#: subcommand -> (function, help, flag defaults, required flags).  Every
#: subcommand also takes --config.
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic state file",
              {**COMMON, "blocks": None, "seats": None, "r_share": None, "corr": 0.0},
              ("blocks", "seats", "r_share", "out")),
    "sweep": (cmd_sweep, "metrics across district counts",
              {**COMMON, "state": None, "rule": "stv", "k": "all", "sigma": 0.05,
               "ensemble_size": None, **TREE},
              ("state", "out")),
    "optimize": (cmd_optimize, "extract an optimized plan",
                 {**COMMON, "state": None, "rule": "stv", "k": None, "sigma": 0.05,
                  "objective": "fair", **TREE},
                 ("state", "k", "out")),
    "ensemble": (cmd_ensemble, "exact R-seat quantiles over every plan of one district count",
                 {**COMMON, "state": None, "rule": "stv", "k": None, **TREE},
                 ("state", "k", "out")),
    "stv": (cmd_stv, "simulate full STV elections for a plan",
            {**COMMON, "state": None, "plan": None, **ELECTION, "verbose": None},
            ("state", "plan", "out")),
    "diversity": (cmd_diversity, "intra-party diversity over ensemble plans",
                  {**COMMON, "state": None, "k": "all", "ensemble_size": 3, **ELECTION, **TREE},
                  ("state", "out")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmdistrict",
        description="Multi-member redistricting: map sampling, seat-share scoring, "
                    "optimization, and STV simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in ("config", *defaults):
            p.add_argument("--" + key.replace("_", "-"), dest=key, **FLAGS[key])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](_options(args))
    except (model.StateFormatError, tree_mod.TreeBuildError, tree_mod.WorkerExitError, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
