"""Leaf scoring, tree dynamic programs, ensemble metrics, and diversity analysis.

The sample tree is scored once per rule and then traversed by two exact
dynamic programs: a max-sum over expected seats for partisan optimization,
and an achievable-seat-total DP whose root pick minimizes the
proportionality gap.  Ensemble and intra-party metrics are computed on
plans drawn from the same tree.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import voters as voters_mod
from .model import BalanceTolerance, district_vote_share, vote_share
from .rules import SeatShareRule, UncertaintyModel, deterministic_seats, expected_seats
from .stv import run_stv
from .tree import (SampleTree, TreeBuildError, build_tree, plan_from_leaves, sample_plans,
                   walk_nodes)


@dataclass(frozen=True)
class LeafScore:
    leaf_id: int
    vote_share: float
    seats: int
    expected_r_seats: float
    deterministic_r_seats: int


@dataclass(frozen=True)
class MetricsRecord:
    k: int
    rule: str
    statistic: str
    seats_r: float
    seat_share_r: float
    proportionality_gap: float


@dataclass(frozen=True)
class DiversityRecord:
    party: str
    winner_score_stddev: float
    coalition_score_stddev: float
    coalition_geo_dispersion: float


def score_leaves(tree: SampleTree, state, rule: SeatShareRule,
                 u: UncertaintyModel = UncertaintyModel()) -> dict:
    """Score every leaf district: vote share, expected and deterministic R seats."""
    scores = {}
    for node in walk_nodes(tree):
        if not node.is_leaf or node.node_id in scores:
            continue
        y = vote_share(state.block_map[bid] for bid in node.region)
        scores[node.node_id] = LeafScore(
            leaf_id=node.node_id, vote_share=y, seats=node.seats,
            expected_r_seats=expected_seats(y, node.seats, rule, u),
            deterministic_r_seats=deterministic_seats(y, node.seats, rule).seats_r)
    return scores


def optimize_partisan(tree: SampleTree, scores: dict, party: str):
    """Plan maximizing the target party's summed expected leaf seats.

    Internal node value is the max over sampled partitions of the children's
    value sum; the witness plan is recovered by backtracking the argmax.
    Returns (leaf nodes, value).
    """
    if party not in ("R", "D"):
        raise ValueError(f"party must be R or D, got {party!r}")
    value, choice = {}, {}

    def leaf_value(node):
        s = scores[node.node_id]
        return s.expected_r_seats if party == "R" else node.seats - s.expected_r_seats

    def solve(node):
        if node.node_id in value:
            return value[node.node_id]
        if node.is_leaf:
            v = leaf_value(node)
        else:
            if not node.samples:
                raise ValueError("empty tree node")
            best, best_i = -math.inf, 0
            for i, sample in enumerate(node.samples):
                total = sum(solve(child) for child in sample)
                if total > best:
                    best, best_i = total, i
            v = best
            choice[node.node_id] = best_i
        value[node.node_id] = v
        return v

    total = solve(tree.root)
    leaves = []

    def backtrack(node):
        if node.is_leaf:
            leaves.append(node)
            return
        for child in node.samples[choice[node.node_id]]:
            backtrack(child)

    backtrack(tree.root)
    return leaves, total


def optimize_fair(tree: SampleTree, scores: dict, y_r: float):
    """Plan whose deterministic R-seat total is closest to proportional.

    Computes the set of achievable R-seat totals per node (union over
    samples of children's Minkowski sums), picks the root total minimizing
    |total/N - y_r| with ties toward fewer R seats, and backtracks a
    witness plan.  Returns (leaf nodes, total R seats, gap).
    """
    sets = {}

    def solve(node):
        if node.node_id in sets:
            return sets[node.node_id]
        if node.is_leaf:
            result = {scores[node.node_id].deterministic_r_seats}
        else:
            result = set()
            for sample in node.samples:
                partial = {0}
                for child in sample:
                    child_set = solve(child)
                    partial = {a + b for a in partial for b in child_set}
                result |= partial
        sets[node.node_id] = result
        return result

    achievable = solve(tree.root)
    if not achievable:
        raise ValueError("empty tree")
    n = tree.root.seats
    best = min(sorted(achievable), key=lambda t: (abs(t / n - y_r), t))

    leaves = []

    def witness(node, target):
        if node.is_leaf:
            leaves.append(node)
            return True
        for sample in node.samples:
            split = _find_split(sample, target, sets)
            if split is not None:
                for child, t in zip(sample, split):
                    if not witness(child, t):
                        return False
                return True
        return False

    if not witness(tree.root, best):
        raise RuntimeError(f"no witness plan for the achievable R-seat total {best}")
    return leaves, best, abs(best / n - y_r)


def _find_split(children, target, sets):
    if len(children) == 1:
        return [target] if target in sets[children[0].node_id] else None
    head = children[0]
    for t in sorted(sets[head.node_id]):
        rest = _find_split(children[1:], target - t, sets)
        if rest is not None:
            return [t] + rest
    return None


def plan_deterministic_seats(plan, state, rule: SeatShareRule) -> int:
    """Deterministic R-seat total of a plan under the rule (no vote noise)."""
    return sum(
        deterministic_seats(district_vote_share(state, d), d.seats, rule).seats_r
        for d in plan.districts)


def ensemble_metrics(tree: SampleTree, state, rule: SeatShareRule, n_samples: int,
                     seed: int = 0):
    """Distribution of deterministic R seat share and gap over sampled plans."""
    y = state.statewide_vote_share()
    n = state.total_seats
    k = tree.root.n_districts
    plans = sample_plans(tree, n_samples, seed)
    seats = np.array([plan_deterministic_seats(p, state, rule) for p in plans], dtype=float)
    records = []
    for stat, q in (("min", 0.0), ("q1", 0.25), ("median", 0.5), ("q3", 0.75), ("max", 1.0)):
        s = float(np.quantile(seats, q))
        records.append(MetricsRecord(
            k=k, rule=rule.name, statistic=stat,
            seats_r=s, seat_share_r=s / n, proportionality_gap=abs(s / n - y)))
    return records


def sweep_k(state, rule: SeatShareRule, k_set, u: UncertaintyModel,
            seed: int = 0, ensemble_size: int = 200,
            root_samples=None, internal_samples=None):
    """Optimized and ensemble records for each requested district count.

    Returns (records, failures): one max_R / max_D / min_gap / median record
    per k that built, and a reason string per k that did not.
    """
    y = state.statewide_vote_share()
    n = state.total_seats
    records, failures = [], {}
    for k in sorted(k_set):
        try:
            tree = build_tree(state, k, BalanceTolerance(), seed=seed * 100003 + k,
                              root_samples=root_samples, internal_samples=internal_samples)
        except TreeBuildError as e:
            failures[k] = str(e)
            continue
        scores = score_leaves(tree, state, rule, u)
        for party, stat in (("R", "max_R"), ("D", "max_D")):
            leaves, _ = optimize_partisan(tree, scores, party)
            seats = plan_deterministic_seats(plan_from_leaves(leaves), state, rule)
            records.append(MetricsRecord(k, rule.name, stat, float(seats),
                                         seats / n, abs(seats / n - y)))
        leaves, total, gap = optimize_fair(tree, scores, y)
        records.append(MetricsRecord(k, rule.name, "min_gap", float(total), total / n, gap))
        median = [r for r in ensemble_metrics(tree, state, rule, ensemble_size,
                                              seed=seed * 100003 + k)
                  if r.statistic == "median"][0]
        records.append(median)
    return records, failures


# ---------------------------------------------------------------------------
# Intra-party diversity via full STV simulation

def _weighted_std(values, weights):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mean = np.average(values, weights=weights)
    return float(np.sqrt(np.average((values - mean) ** 2, weights=weights)))


def _district_centroid(state, district):
    pops = np.array([state.block_map[b].population for b in sorted(district.block_ids)], dtype=float)
    xs = np.array([state.block_map[b].x for b in sorted(district.block_ids)])
    ys = np.array([state.block_map[b].y for b in sorted(district.block_ids)])
    if pops.sum() == 0:
        pops = np.ones_like(pops)
    return float(np.average(xs, weights=pops)), float(np.average(ys, weights=pops))


def elect(district, voter_file, mode: str, per_party: int, seed: int):
    """One district's STV election with ``per_party`` (default seats + 2) candidates a party.

    Returns (candidates, district voters, result); the result is None when no
    voter lives in the district.
    """
    district_voters = voter_file.in_district(district)
    candidates = voters_mod.generate_candidates(
        district_voters, district.seats, max(per_party or district.seats + 2, district.seats))
    ballots = voters_mod.build_ballots(district_voters, candidates, mode)
    result = run_stv(ballots, candidates, district.seats, seed=seed) if ballots else None
    return candidates, district_voters, result


def intra_party_analysis(state, plans, voter_file, mode: str,
                         per_party: int, seed: int = 0):
    """Simulate STV for every district of every plan and summarize diversity.

    Per plan and party: the standard deviation of winning candidates'
    scores, the weighted score spread of each winner's supporting coalition
    (averaged over winners), and the weighted mean distance of supporters
    from the district centroid (averaged over winners).  Results are then
    averaged across plans; a party with no winners anywhere is omitted.
    """
    rng = random.Random(seed)
    voter_by_id = {v.id: v for v in voter_file.voters}
    per_plan = {"R": [], "D": []}

    for plan in plans:
        winner_scores = {"R": [], "D": []}
        coalition_score = {"R": [], "D": []}
        coalition_geo = {"R": [], "D": []}
        for district in plan.districts:
            candidates, _, result = elect(district, voter_file, mode, per_party,
                                          rng.randrange(2 ** 32))
            if result is None:
                continue
            cand_by_id = {c.id: c for c in candidates}
            cx, cy = _district_centroid(state, district)
            for winner_id in result.winners:
                cand = cand_by_id[winner_id]
                winner_scores[cand.party].append(cand.score)
                coalition = result.coalitions[winner_id]
                ids = sorted(coalition)
                weights = [coalition[i] for i in ids]
                scores = [voter_by_id[i].partisan_score for i in ids]
                dists = [math.hypot(voter_by_id[i].x - cx, voter_by_id[i].y - cy)
                         for i in ids]
                coalition_score[cand.party].append(_weighted_std(scores, weights))
                coalition_geo[cand.party].append(
                    float(np.average(dists, weights=weights)))
        for party in ("R", "D"):
            if winner_scores[party]:
                per_plan[party].append((
                    float(np.std(winner_scores[party])),
                    float(np.mean(coalition_score[party])),
                    float(np.mean(coalition_geo[party]))))

    records = []
    for party in ("R", "D"):
        if not per_plan[party]:
            continue
        arr = np.array(per_plan[party])
        records.append(DiversityRecord(
            party=party,
            winner_score_stddev=float(arr[:, 0].mean()),
            coalition_score_stddev=float(arr[:, 1].mean()),
            coalition_geo_dispersion=float(arr[:, 2].mean())))
    return records
