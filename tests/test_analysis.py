import math

import numpy as np
import pytest

from mmdistrict.analysis import (
    _weighted_std,
    elect,
    ensemble_metrics,
    intra_party_analysis,
    optimize_fair,
    optimize_partisan,
    plan_deterministic_seats,
    score_leaves,
    seat_histograms,
    sweep_k,
)
from mmdistrict.model import District, Plan, district_vote_share, generate_synthetic_state
from mmdistrict.rules import RULES, STV, UncertaintyModel, deterministic_seats, expected_seats
from mmdistrict.tree import build_tree, enumerate_plans, plan_from_leaves, sample_plans
from mmdistrict.stv import run_stv
from mmdistrict.voters import VoterFile, build_ballots, generate_candidates, generate_voter_file

NO_NOISE = UncertaintyModel(0.0)


@pytest.fixture(scope="module")
def scored_tree(grid_state):
    tree = build_tree(grid_state, 2, seed=5, root_samples=12, internal_samples=3)
    return tree, score_leaves(tree, grid_state, STV, NO_NOISE)


def test_score_leaves_match_district_scores(grid_state, scored_tree):
    tree, scores = scored_tree
    from mmdistrict.tree import walk_nodes
    for node in walk_nodes(tree):
        if not node.is_leaf:
            continue
        s = scores[node.node_id]
        d = District(block_ids=node.region, seats=node.seats)
        y = district_vote_share(grid_state, d)
        assert s.vote_share == pytest.approx(y)
        assert s.deterministic_r_seats == deterministic_seats(y, node.seats, STV).seats_r
        assert s.expected_r_seats == expected_seats(y, node.seats, STV, NO_NOISE)


def brute_force(tree, state, rule, u):
    plans = enumerate_plans(tree)
    best_r = best_d = -math.inf
    best_gap = math.inf
    y = state.statewide_vote_share()
    n = state.total_seats
    for leaves in plans:
        exp_r = sum(expected_seats(
            district_vote_share(state, District(l.region, l.seats)), l.seats, rule, u)
            for l in leaves)
        det = sum(deterministic_seats(
            district_vote_share(state, District(l.region, l.seats)), l.seats, rule).seats_r
            for l in leaves)
        best_r = max(best_r, exp_r)
        best_d = max(best_d, sum(l.seats for l in leaves) - exp_r)
        best_gap = min(best_gap, abs(det / n - y))
    return best_r, best_d, best_gap


@pytest.mark.parametrize("rule_name", sorted(RULES))
def test_dynamic_programs_match_enumeration(grid_state, rule_name):
    rule = RULES[rule_name]
    tree = build_tree(grid_state, 2, seed=5, root_samples=12, internal_samples=3)
    scores = score_leaves(tree, grid_state, rule, NO_NOISE)
    y = grid_state.statewide_vote_share()
    oracle_r, oracle_d, oracle_gap = brute_force(tree, grid_state, rule, NO_NOISE)
    leaves_r, value_r = optimize_partisan(tree, scores, "R")
    leaves_d, value_d = optimize_partisan(tree, scores, "D")
    leaves_f, total_f, gap_f = optimize_fair(tree, seat_histograms(tree, scores), y)
    assert value_r == pytest.approx(oracle_r)
    assert value_d == pytest.approx(oracle_d)
    assert gap_f == pytest.approx(oracle_gap)
    # witnesses actually achieve the reported values
    plan_r = plan_from_leaves(leaves_r)
    assert sum(expected_seats(district_vote_share(grid_state, d), d.seats, rule, NO_NOISE)
               for d in plan_r.districts) == pytest.approx(value_r)
    assert plan_deterministic_seats(plan_from_leaves(leaves_f), grid_state, rule) == total_f


def test_optimizer_values_bracket_fair_plan(grid_state, scored_tree):
    tree, scores = scored_tree
    y = grid_state.statewide_vote_share()
    _, max_r = optimize_partisan(tree, scores, "R")
    leaves_d, max_d = optimize_partisan(tree, scores, "D")
    _, fair_total, _ = optimize_fair(tree, seat_histograms(tree, scores), y)
    n = tree.root.seats
    assert max_r >= fair_total >= n - max_d


def test_optimize_partisan_rejects_unknown_party(grid_state, scored_tree):
    tree, scores = scored_tree
    with pytest.raises(ValueError):
        optimize_partisan(tree, scores, "G")


def test_ensemble_metrics_are_ordered_quantiles(grid_state, scored_tree):
    tree, scores = scored_tree
    records = ensemble_metrics(tree, grid_state, STV, seat_histograms(tree, scores))
    stats = {r.statistic: r for r in records}
    assert list(stats) == ["min", "q1", "median", "q3", "max"]
    seats = [stats[s].seats_r for s in ("min", "q1", "median", "q3", "max")]
    assert seats == sorted(seats)
    y = grid_state.statewide_vote_share()
    for r in records:
        assert r.seat_share_r == pytest.approx(r.seats_r / grid_state.total_seats)


def test_plan_seat_total_consistent_with_rule(grid_state, scored_tree):
    tree, _ = scored_tree
    for plan in sample_plans(tree, 10, seed=1):
        total = plan_deterministic_seats(plan, grid_state, STV)
        assert total == sum(
            deterministic_seats(district_vote_share(grid_state, d), d.seats, STV).seats_r
            for d in plan.districts)
        assert 0 <= total <= grid_state.total_seats


def test_pigeonhole_extreme_district_shares(grid_state, scored_tree):
    tree, _ = scored_tree
    y = grid_state.statewide_vote_share()
    for plan in sample_plans(tree, 20, seed=2):
        shares = [district_vote_share(grid_state, d) for d in plan.districts]
        assert max(shares) >= y - 1e-12
        assert max(1 - s for s in shares) >= (1 - y) - 1e-12


def test_sweep_k_produces_all_statistics(grid_state):
    records, failures = sweep_k(grid_state, STV, [1, 2], NO_NOISE, seed=1,
                                root_samples=8, internal_samples=3)
    assert failures == {}
    y = grid_state.statewide_vote_share()
    by_k = {}
    for r in records:
        by_k.setdefault(r.k, set()).add(r.statistic)
        assert r.proportionality_gap == pytest.approx(abs(r.seat_share_r - y))
    assert by_k == {1: {"max_R", "max_D", "min_gap", "median"},
                    2: {"max_R", "max_D", "min_gap", "median"}}


def test_sweep_k_reports_infeasible_counts():
    state = generate_synthetic_state(10, 6, 0.5, 0, seed=0)
    records, failures = sweep_k(state, STV, [3], NO_NOISE, seed=0,
                                root_samples=3, internal_samples=2)
    assert records == []
    assert 3 in failures


def test_weighted_std_matches_numpy_when_uniform():
    vals = [1.0, 2.0, 5.0, 7.0]
    assert _weighted_std(vals, [1, 1, 1, 1]) == pytest.approx(float(np.std(vals)))


def test_unanimous_single_winner_coalition_spread(grid_state):
    # One district, one seat: every ballot backs the same winner at weight 1,
    # so the coalition score spread equals the plain population stddev.
    state = generate_synthetic_state(16, 1, 0.6, 0, seed=2)
    plan = Plan((District(block_ids=state.block_ids, seats=1),))
    vf = generate_voter_file(state, voters_per_block=8, score_spread=0.4, seed=3)
    records = intra_party_analysis(state, [plan], vf, "partisan_score", per_party=1, seed=0)
    assert len(records) == 1  # losing party has no winners and is omitted
    winner_party = records[0].party
    assert winner_party == "R"  # majority party's lone candidate sweeps round one
    supporters = [v.partisan_score for v in vf.voters if v.party == winner_party]
    assert records[0].coalition_score_stddev == pytest.approx(float(np.std(supporters)))
    assert records[0].winner_score_stddev == 0.0


def test_intra_party_analysis_reports_both_parties(grid_state):
    vf = generate_voter_file(grid_state, voters_per_block=15, score_spread=0.5, seed=4)
    tree = build_tree(grid_state, 2, seed=5, root_samples=6, internal_samples=2)
    plans = sample_plans(tree, 2, seed=1)
    records = intra_party_analysis(grid_state, plans, vf, "partisan_score",
                                   per_party=4, seed=0)
    parties = {r.party for r in records}
    assert parties == {"R", "D"}
    for r in records:
        assert r.coalition_geo_dispersion >= 0
        assert r.coalition_score_stddev >= 0


def test_elect_is_one_scan_of_the_voter_file_then_the_stv_count(grid_state, monkeypatch):
    vf = generate_voter_file(grid_state, voters_per_block=6, score_spread=0.5, seed=2)
    district = District(block_ids=frozenset(range(8)), seats=2)
    in_district = VoterFile.in_district
    scans = []
    monkeypatch.setattr(VoterFile, "in_district",
                        lambda self, d: scans.append(d) or in_district(self, d))
    candidates, voters, result = elect(district, vf, "geographic", None, seed=7)
    assert scans == [district]
    assert voters.id.tolist() == in_district(vf, district).id.tolist()
    assert candidates == generate_candidates(voters, 2, per_party=4)  # seats + 2
    ballots = build_ballots(voters, candidates, "geographic")
    assert result == run_stv(ballots, candidates, 2, seed=7)
    assert len(elect(district, vf, "geographic", 3, seed=7)[0]) == 6
    assert len(elect(district, vf, "geographic", 1, seed=7)[0]) == 4  # never below seats


def test_elect_without_voters_has_no_result(grid_state):
    vf = VoterFile(tuple(v for v in generate_voter_file(grid_state, 4, 0.5, seed=0).voters
                         if v.block_id != 0))
    candidates, voters, result = elect(District(frozenset({0}), 1), vf, "partisan_score", 0, 0)
    assert len(voters) == 0 and result is None
    assert {c.party for c in candidates} == {"R", "D"}
