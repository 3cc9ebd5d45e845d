"""Leaf scoring, tree dynamic programs, ensemble metrics, and diversity analysis.

The sample tree is scored once per rule and then traversed by two exact
dynamic programs: a max-sum over expected seats for partisan optimization,
and a per-node histogram of plans by R-seat total, which gives both the plan
minimizing the proportionality gap and exact ensemble quantiles over every
encoded plan.  Intra-party metrics are computed on plans drawn from the tree.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import voters as voters_mod
from .model import district_vote_share, region_vote_share
from .rules import SeatShareRule, UncertaintyModel, deterministic_seats, expected_seats
from .stv import run_stv
from .tree import SampleTree, TreeBuildError, build_trees, descend, fold, walk_nodes
# build_tree and sample_plans are not called here; they stay bound in this
# module because perfbench/tracer.py times the calls made through these names.
from .tree import build_tree, sample_plans  # noqa: F401


@dataclass(frozen=True)
class LeafScore:
    vote_share: float
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
        if not node.is_leaf:
            continue
        y = region_vote_share(state, node.region)
        scores[node.node_id] = LeafScore(
            vote_share=y, expected_r_seats=expected_seats(y, node.seats, rule, u),
            deterministic_r_seats=deterministic_seats(y, node.seats, rule).seats_r)
    return scores


def optimize_partisan(tree: SampleTree, scores: dict, party: str):
    """Plan maximizing the target party's summed expected leaf seats.

    Internal node value is the max over sampled partitions of the children's
    value sum; the witness takes at each node the first sample whose sum,
    redone in the same order, equals it exactly.  Returns (leaf nodes, value).
    """
    if party not in ("R", "D"):
        raise ValueError(f"party must be R or D, got {party!r}")
    value = fold(tree.root, lambda n: scores[n.node_id].expected_r_seats if party == "R"
                 else n.seats - scores[n.node_id].expected_r_seats, operator.add, max)
    leaves = descend(tree.root, lambda n: next(s for s in n.samples if functools.reduce(
        operator.add, [value[c.node_id] for c in s]) == value[n.node_id]))
    return leaves, value[tree.root.node_id]


def _convolve(a: dict, b: dict) -> dict:
    """Table of the sums of one total from each table, counts multiplied."""
    out = {}
    for s, x in a.items():
        for t, y in b.items():
            out[s + t] = out.get(s + t, 0) + x * y
    return out


def _merge(tables) -> dict:
    """Table of every table's counts added up by total."""
    out = {}
    for total, count in itertools.chain.from_iterable(table.items() for table in tables):
        out[total] = out.get(total, 0) + count
    return out


def seat_histograms(tree: SampleTree, scores: dict) -> dict:
    """Per node id, {deterministic R-seat total: number of encoded plans}: a leaf
    counts its own total once, an internal node sums its samples' convolutions."""
    return fold(tree.root, lambda n: {scores[n.node_id].deterministic_r_seats: 1},
                _convolve, _merge)


def optimize_fair(tree: SampleTree, tables: dict, y_r: float):
    """Plan whose deterministic R-seat total is closest to proportional.

    Picks the root total of the ``seat_histograms`` tables minimizing
    |total/N - y_r|, ties toward fewer R seats, and descends to a witness: at
    each node the first sample reaching its target, split into the smallest
    feasible child totals in child order.  Returns (leaf nodes, total R
    seats, gap).
    """
    n = tree.root.seats
    best = min(sorted(tables[tree.root.node_id]), key=lambda t: (abs(t / n - y_r), t))
    targets = {tree.root.node_id: best}

    def pick(node):
        target = targets[node.node_id]
        for sample in node.samples:
            # rests[i]: the table of the sample's last i children
            rests = list(itertools.accumulate([tables[c.node_id] for c in reversed(sample)],
                                              _convolve, initial={0: 1}))
            if target in rests[-1]:
                for child, rest in zip(sample, reversed(rests[:-1])):
                    t = targets[child.node_id] = min(
                        t for t in tables[child.node_id] if target - t in rest)
                    target -= t
                return sample

    return descend(tree.root, pick), best, abs(best / n - y_r)


def plan_deterministic_seats(plan, state, rule: SeatShareRule) -> int:
    """Deterministic R-seat total of a plan under the rule (no vote noise)."""
    return sum(
        deterministic_seats(district_vote_share(state, d), d.seats, rule).seats_r
        for d in plan.districts)


def ensemble_metrics(tree: SampleTree, state, rule: SeatShareRule, tables: dict):
    """Exact R-seat quantiles over every encoded plan: the linear ``np.quantile``
    of all plans' totals, read off the root's ``seat_histograms`` counts."""
    y = state.statewide_vote_share()
    n = state.total_seats
    totals, counts = zip(*sorted(tables[tree.root.node_id].items()))
    cumulative = list(itertools.accumulate(counts))
    records = []
    for quarter, stat in enumerate(("min", "q1", "median", "q3", "max")):
        i, rem = divmod((cumulative[-1] - 1) * quarter, 4)  # linear index i + rem/4
        # The j-th smallest total (from 0) is the first whose cumulative count exceeds j.
        lo, hi = (totals[bisect.bisect_right(cumulative, j)] for j in (i, i + (rem > 0)))
        s = lo + (hi - lo) * (rem / 4)
        records.append(MetricsRecord(
            k=tree.root.n_districts, rule=rule.name, statistic=stat,
            seats_r=s, seat_share_r=s / n, proportionality_gap=abs(s / n - y)))
    return records


def sweep_k(state, rule: SeatShareRule, k_set, u: UncertaintyModel,
            seed: int = 0, root_samples=None, internal_samples=None):
    """Optimized and ensemble records for each requested district count.

    Returns (records, failures): one max_R / max_D / min_gap / median record
    per k that built, and a reason string per k that did not.  The trees
    come from ``build_trees``, whose pool workers build the next k's tree
    while the last k's tree is scored.
    """
    y = state.statewide_vote_share()
    n = state.total_seats
    records, failures = [], {}
    for k, tree in build_trees(state, sorted(k_set), seed, root_samples, internal_samples):
        if isinstance(tree, TreeBuildError):
            failures[k] = str(tree)
            continue
        scores = score_leaves(tree, state, rule, u)
        for party, stat in (("R", "max_R"), ("D", "max_D")):
            leaves, _ = optimize_partisan(tree, scores, party)
            seats = sum(scores[leaf.node_id].deterministic_r_seats for leaf in leaves)
            records.append(MetricsRecord(k, rule.name, stat, float(seats),
                                         seats / n, abs(seats / n - y)))
        tables = seat_histograms(tree, scores)
        leaves, total, gap = optimize_fair(tree, tables, y)
        records.append(MetricsRecord(k, rule.name, "min_gap", float(total), total / n, gap))
        records.append(next(r for r in ensemble_metrics(tree, state, rule, tables)
                            if r.statistic == "median"))
        # Freed before the next k's build, which would otherwise run with
        # this k's tree, scores and tables held (about 6 MB at 144 blocks, k = 6).
        del tree, scores, tables
    return records, failures


# ---------------------------------------------------------------------------
# Intra-party diversity via full STV simulation

def _average(values, weights):
    """``np.average(values, weights=weights)`` of 1-d floats: the same float work, unchecked."""
    return (values * weights).sum() / weights.sum()


def _weighted_std(values, weights):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mean = _average(values, weights)
    return float(np.sqrt(_average((values - mean) ** 2, weights)))


def _district_centroid(state, district):
    blocks = [state.block_map[b] for b in district.block_ids]
    pops = np.array([b.population for b in blocks], dtype=float)
    xs = np.array([b.x for b in blocks])
    ys = np.array([b.y for b in blocks])
    if pops.sum() == 0:
        pops = np.ones_like(pops)
    return float(_average(xs, pops)), float(_average(ys, pops))


def elect(district, voter_file, mode: str, per_party: int, seed: int):
    """One district's STV election with ``per_party`` (default seats + 2) candidates a party.

    Returns (candidates, the district's ``Voters`` columns, result); the
    result is None when no voter lives in the district.
    """
    district_voters = voter_file.in_district(district)
    candidates = voters_mod.generate_candidates(
        district_voters, district.seats, max(per_party or district.seats + 2, district.seats))
    ballots = voters_mod.build_ballots(district_voters, candidates, mode)
    result = run_stv(ballots, candidates, district.seats, seed=seed) if ballots else None
    return candidates, district_voters, result


def _winner_outcomes(state, district, voter_file, mode: str, per_party: int, seed: int):
    """One district's election, per winner in winner order: (party, score,
    coalition score spread, coalition distance from the district centroid).

    Also returns the count's ``tie_draws``.
    """
    candidates, voters, result = elect(district, voter_file, mode, per_party, seed)
    if result is None:
        return [], 0
    cand_by_id = {c.id: c for c in candidates}
    cx, cy = _district_centroid(state, district)
    dists = voters_mod.planar_distances(voters.x - cx, voters.y - cy)
    by_id = np.argsort(voters.id)
    outcomes = []
    for winner_id in result.winners:
        cand = cand_by_id[winner_id]
        # Voter ids are unique, so each member holds its group's weight.
        coalition = result.coalitions[winner_id]
        ids = np.fromiter(itertools.chain.from_iterable(g for g, _ in coalition),
                          dtype=np.int64)
        order = np.argsort(ids)
        weights = np.repeat([w for _, w in coalition], [len(g) for g, _ in coalition])[order]
        rows = by_id[np.searchsorted(voters.id, ids[order], sorter=by_id)]
        outcomes.append((cand.party, cand.score, _weighted_std(voters.score[rows], weights),
                         float(_average(dists[rows], weights))))
    return outcomes, result.tie_draws


def intra_party_analysis(state, plans, voter_file, mode: str,
                         per_party: int, seed: int = 0):
    """Simulate STV for every district of every plan and summarize diversity.

    Per plan and party: the standard deviation of winning candidates'
    scores, the weighted score spread of each winner's supporting coalition
    (averaged over winners), and the weighted mean distance of supporters
    from the district centroid (averaged over winners).  Results are then
    averaged across plans; a party with no winners anywhere is omitted.

    Each district occurrence draws its own election seed.  A district that
    repeats (same blocks and seats) is elected once: its per-winner outcomes
    are reused when its count broke no tie at random (``tie_draws == 0``),
    since such a count is the same for every seed.  A count that drew is run
    again, with the occurrence's own seed, wherever the district recurs.
    """
    rng = random.Random(seed)
    per_plan = {"R": [], "D": []}
    reusable = {}  # district -> outcomes of a count with no random draw

    for plan in plans:
        winners = {"R": [], "D": []}  # party -> (score, spread, dispersion) per winner
        for district in plan.districts:
            district_seed = rng.randrange(2 ** 32)  # drawn on reuse too, so later seeds stay
            outcomes = reusable.get(district)
            if outcomes is None:
                outcomes, tie_draws = _winner_outcomes(state, district, voter_file, mode,
                                                       per_party, district_seed)
                if tie_draws == 0:
                    reusable[district] = outcomes
            for party, *figures in outcomes:
                winners[party].append(figures)
        for party, rows in winners.items():
            if rows:
                scores, spreads, dispersions = zip(*rows)
                per_plan[party].append((float(np.std(scores)), float(np.mean(spreads)),
                                        float(np.mean(dispersions))))
    return [DiversityRecord(party, *(float(c.mean()) for c in np.array(rows).T))
            for party, rows in per_plan.items() if rows]
