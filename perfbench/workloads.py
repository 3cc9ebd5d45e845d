"""The benchmark's workloads: the CLI command each one runs and how its outputs are checked.

Every check returns a list of problems; an empty list means the command's
outputs are correct.  ``check_builds`` applies to every workload.  ``state`` is the ``StateFile`` the command read and
``tracer`` the ``Tracer`` that was active while it ran.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

METRICS_HEADER = ["k", "rule", "statistic", "seats_r", "seat_share_r", "gap"]
SWEEP_STATISTICS = {"max_R", "max_D", "min_gap", "median"}
DIVERSITY_HEADER = ["k", "party", "winner_score_stddev", "coalition_score_stddev",
                    "coalition_geo_km"]
TOL = 1e-9


@dataclass
class StateFile:
    """A synthesized state file and the facts the checks need, read from its JSON."""
    path: Path
    total_seats: int
    vote_share_r: float

    @classmethod
    def read(cls, path):
        data = json.loads(Path(path).read_text())
        r = sum(b["votes_r"] for b in data["blocks"])
        total = r + sum(b["votes_d"] for b in data["blocks"])
        return cls(Path(path), int(data["total_seats"]), 0.5 if total == 0 else r / total)


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _number(text, what, problems):
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what}: {text!r} is not a number")
        return None
    if not math.isfinite(value):
        problems.append(f"{what}: {text!r} is not finite")
        return None
    return value


def _ks(spec, n_seats):
    return list(range(1, n_seats + 1)) if spec == "all" else [int(k) for k in spec.split(",")]


def check_builds(tracer, expected):
    """One tree per requested k, each built by exactly one (wrapped) call."""
    calls = sum(1 for span in tracer.spans if span[1] == "tree.build_tree")
    trees = len(tracer.notes_of("tree.build_tree"))
    if calls != expected or trees != expected:
        return [f"{calls} build_tree calls returned {trees} trees; expected {expected} of each"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple  # synth flags besides --seed and --out
    flags: tuple  # command flags besides --state, --seed and --out
    case_s: float  # seconds one case (two syntheses and runs) took on a 2-vCPU VM

    def cases(self, seconds):
        """Cases in a run of about ``seconds``: a fixed number, at least two,
        so that a faster program is timed on the same inputs, not on more."""
        return max(2, round(seconds / self.case_s))

    def outputs(self, out: Path):
        return [out]

    def argv(self, state: Path, out: Path, seed: int):
        return [self.command, "--state", str(state), *self.flags,
                "--seed", str(seed), "--out", str(out)]

    def flag(self, name):
        return self.flags[self.flags.index(name) + 1]

    def builds(self, state):
        """Trees the command builds: one per requested k."""
        return len(_ks(self.flag("--k"), state.total_seats))


class Sweep(Workload):
    command = "sweep"

    def check(self, out, state, tracer):
        """Every k has its four statistics, none failed, and the numbers agree."""
        problems = []
        rows = _read_csv(out)
        if not rows or rows[0] != METRICS_HEADER:
            return [f"header {rows[:1]} != {METRICS_HEADER}"]
        n, y = state.total_seats, state.vote_share_r
        gaps = {}
        seen = {}
        for row in rows[1:]:
            if len(row) != len(METRICS_HEADER):
                problems.append(f"malformed row {row}")
                continue
            k, rule, stat = row[0], row[1], row[2]
            if stat == "failed":
                problems.append(f"k={k} failed: {row[5]}")
                continue
            if rule != self.flag("--rule"):
                problems.append(f"k={k} {stat}: rule {rule!r}")
            seen.setdefault(k, []).append(stat)
            seats, share, gap = (_number(row[i], f"k={k} {stat} {METRICS_HEADER[i]}", problems)
                                 for i in (3, 4, 5))
            if None in (seats, share, gap):
                continue
            if not 0 <= seats <= n:
                problems.append(f"k={k} {stat}: {seats} seats outside 0..{n}")
            if abs(share - seats / n) > TOL or abs(gap - abs(seats / n - y)) > TOL:
                problems.append(f"k={k} {stat}: share {share} / gap {gap} disagree with {seats} seats")
            gaps[k, stat] = gap
        for k in map(str, _ks(self.flag("--k"), n)):
            if sorted(seen.get(k, [])) != sorted(SWEEP_STATISTICS):
                problems.append(f"k={k}: statistics {seen.get(k, [])}")
            elif gaps[k, "min_gap"] > min(gaps[k, "max_R"], gaps[k, "max_D"]) + TOL:
                problems.append(f"k={k}: min_gap is not the smallest gap of the tree's plans")
        extra = set(seen) - set(map(str, _ks(self.flag("--k"), n)))
        if extra:
            problems.append(f"rows for unrequested k {sorted(extra)}")
        return problems


class Optimize(Workload):
    command = "optimize"

    def outputs(self, out):
        return [out / "plan.json", out / "summary.json"]

    def check(self, out, state, tracer):
        """The plan passes validate_plan and the summary matches it."""
        from mmdistrict.model import load_plan, load_state, validate_plan

        problems = []
        k, n, y = int(self.flag("--k")), state.total_seats, state.vote_share_r
        plan = load_plan(out / "plan.json")
        report = validate_plan(load_state(state.path), plan)
        problems += [f"plan: {v}" for v in report.violations]
        if len(plan.districts) != k:
            problems.append(f"plan has {len(plan.districts)} districts, expected {k}")
        summary = json.loads((out / "summary.json").read_text())
        seats = summary.get("seats_r")
        if summary.get("k") != k or summary.get("objective") != self.flag("--objective"):
            problems.append(f"summary k/objective {summary.get('k')}/{summary.get('objective')}")
        if not isinstance(seats, int) or not 0 <= seats <= n:
            problems.append(f"summary seats_r {seats!r} outside 0..{n}")
        elif (abs(summary.get("seat_share_r", -1) - seats / n) > TOL
              or abs(summary.get("proportionality_gap", -1) - abs(seats / n - y)) > TOL
              or abs(summary.get("statewide_vote_share_r", -1) - y) > TOL):
            problems.append(f"summary {summary} disagrees with {seats} seats and vote share {y}")
        return problems


class Diversity(Workload):
    command = "diversity"

    def check(self, out, state, tracer):
        """Each k has a record for exactly the parties that won a seat at that k."""
        problems = []
        won, pending = {}, set()
        for span, note in tracer.notes:
            if span == "stv.run_stv":
                pending.update(note["winner_parties"])
            elif span == "analysis.intra_party_analysis":
                won[str(note)] = pending
                pending = set()
        rows = _read_csv(out)
        if not rows or rows[0] != DIVERSITY_HEADER:
            return [f"header {rows[:1]} != {DIVERSITY_HEADER}"]
        parties = {}
        for row in rows[1:]:
            if len(row) != len(DIVERSITY_HEADER):
                problems.append(f"malformed row {row}")
                continue
            parties.setdefault(row[0], []).append(row[1])
            for i in (2, 3, 4):
                value = _number(row[i], f"k={row[0]} {row[1]} {DIVERSITY_HEADER[i]}", problems)
                if value is not None and value < 0:
                    problems.append(f"k={row[0]} {row[1]}: negative {DIVERSITY_HEADER[i]}")
        for k in map(str, _ks(self.flag("--k"), state.total_seats)):
            if k not in won:
                problems.append(f"k={k}: no elections observed")
            elif sorted(parties.get(k, [])) != sorted(won[k]):
                problems.append(f"k={k}: records for {parties.get(k, [])}, winners from {sorted(won[k])}")
        return problems


def _synth(blocks, seats):
    return ("--blocks", str(blocks), "--seats", str(seats), "--r-share", "0.4", "--corr", "2")


# Why each workload (measured when the benchmark was defined):
# - sweep-144 is the paper's main sweep over k = 1..6 with many small
#   regions; about 93% of it is tree building, and 14% of its k=6 leaves are
#   duplicate regions, so a leaf dedupe cache or a root-sample pool shows
#   here.  It is the only workload with real leaf-scoring, DP and ensemble load.
# - optimize-1600 has few splits, each of a very large region: contiguity
#   checks in repair are about a third of it and the n^1.7 scaling of tree
#   building shows.  It has no duplicate leaves and <1% analysis, so dedupe or
#   DP changes should read "no change" here.  Loading and validating the
#   1,600-block state also lands here.  It uses 5 root samples rather than 20
#   so that a 30 s run holds 20 cases: a case's time varies widely with its
#   seed, and more cases average that out.
# - diversity-64 spends ~85% in voters and stv (ballots, candidate slates,
#   run_stv), which no other workload touches; its tree share is ~14%.
WORKLOADS = {
    "sweep-144": Sweep("sweep-144", _synth(144, 6), (
        "--k", "all", "--rule", "stv", "--sigma", "0.05", "--root-samples", "60",
        "--internal-samples", "8", "--ensemble-size", "200"), 10.7),
    "optimize-1600": Optimize("optimize-1600", _synth(1600, 6), (
        "--objective", "fair", "--k", "6", "--root-samples", "5",
        "--internal-samples", "2"), 1.5),
    "diversity-64": Diversity("diversity-64", _synth(64, 4), (
        "--k", "1,2,4", "--mode", "partisan_score", "--voters-per-block", "20",
        "--root-samples", "30", "--internal-samples", "4", "--ensemble-size", "20"), 2.8),
}

#: The same commands at tiny sizes, for --smoke.
SMOKE = {
    "sweep-144": Sweep("sweep-144", _synth(36, 4), (
        "--k", "all", "--rule", "stv", "--sigma", "0.05", "--root-samples", "4",
        "--internal-samples", "2", "--ensemble-size", "20"), 0.1),
    "optimize-1600": Optimize("optimize-1600", _synth(100, 4), (
        "--objective", "fair", "--k", "4", "--root-samples", "3",
        "--internal-samples", "2"), 0.1),
    "diversity-64": Diversity("diversity-64", _synth(16, 4), (
        "--k", "1,2,4", "--mode", "partisan_score", "--voters-per-block", "5",
        "--root-samples", "3", "--internal-samples", "2", "--ensemble-size", "3"), 0.1),
}
