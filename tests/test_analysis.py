import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmdistrict import analysis
from mmdistrict.analysis import (
    DiversityRecord,
    _average,
    _district_centroid,
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
from mmdistrict.model import (Block, District, Plan, StateInstance,
                              district_vote_share, generate_synthetic_state)
from mmdistrict.rules import RULES, STV, UncertaintyModel, deterministic_seats, expected_seats
from mmdistrict.tree import SampleTree, TreeNode, build_tree, plan_from_leaves, sample_plans
from mmdistrict.stv import run_stv
from mmdistrict.voters import (VoterFile, build_ballots, generate_candidates,
                               generate_voter_file, load_voter_file)

from conftest import enumerate_plans, save_voter_file

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
        assert s.vote_share == y
        assert s.deterministic_r_seats == deterministic_seats(y, node.seats, STV).seats_r
        assert s.expected_r_seats == expected_seats(y, node.seats, STV, NO_NOISE)


def test_equal_regions_score_alike_however_their_sets_iterate():
    # Blocks 0, 8 and 16 collide in a small set table, so these two equal
    # frozensets iterate in different orders; summed in iteration order,
    # their R shares differ in the last bit.
    blocks = [Block(id=b, population=100, votes_r=r, votes_d=1.0, x=float(b), y=0.0)
              for b, r in ((0, 0.1), (8, 0.2), (16, 0.3))]
    state = StateInstance(blocks, {0: {8}, 8: {0, 16}, 16: {8}}, 1)
    regions = frozenset([0, 8, 16]), frozenset([16, 8, 0])
    assert list(regions[0]) != list(regions[1])
    shares = []
    for region in regions:
        leaf = TreeNode(node_id=1, region=region, seats=1, n_small=1, n_large=0)
        tree = SampleTree(leaf, {})
        shares.append(score_leaves(tree, state, STV, NO_NOISE)[1].vote_share)
        shares.append(district_vote_share(state, District(region, 1)))
    assert shares == [shares[0]] * 4


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1e308, 1e308), min_size=n, max_size=n),
    st.lists(st.sampled_from([1.0, 0.5, 1e-5]) | st.floats(1e-5, 1e5), min_size=n, max_size=n))))
# Past eight values numpy sums in pairwise blocks, not left to right.
@example(([0.1 * i for i in range(20)], [1.0] * 20))
def test_average_equals_numpys_weighted_average(case):
    values, weights = map(np.array, case)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _average(values, weights), np.average(values, weights=weights)
    assert np.array_equal(got, want, equal_nan=True)


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
    supporters = vf.columns.score[vf.columns.party == winner_party]
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
    full = generate_voter_file(grid_state, 4, 0.5, seed=0)
    kept = full.block_id != 0
    vf = VoterFile(full.columns.take(kept), full.block_id[kept])
    candidates, voters, result = elect(District(frozenset({0}), 1), vf, "partisan_score", 0, 0)
    assert len(voters) == 0 and result is None
    assert {c.party for c in candidates} == {"R", "D"}


def rows_of(vf, voter_ids):
    """The rows of voters known to be in the file, by id."""
    by_id = np.argsort(vf.columns.id)
    return by_id[np.searchsorted(vf.columns.id, voter_ids, sorter=by_id)]


def elect_every_district(state, plans, vf, mode, per_party, seed):
    """Diversity records with every district occurrence elected on its own seed."""
    rng = random.Random(seed)
    per_plan = {"R": [], "D": []}
    for plan in plans:
        stats = {"R": [], "D": []}
        for district in plan.districts:
            candidates, _, result = elect(district, vf, mode, per_party, rng.randrange(2 ** 32))
            cx, cy = _district_centroid(state, district)
            for w in result.winners:
                cand = next(c for c in candidates if c.id == w)
                members = sorted((i, weight) for ids, weight in result.coalitions[w] for i in ids)
                rows = rows_of(vf, np.array([i for i, _ in members]))
                weights = [weight for _, weight in members]
                dists = [math.hypot(x - cx, y - cy)
                         for x, y in zip(vf.columns.x[rows].tolist(), vf.columns.y[rows].tolist())]
                stats[cand.party].append((cand.score,
                                          _weighted_std(vf.columns.score[rows], weights),
                                          float(np.average(dists, weights=weights))))
        for party, rows in stats.items():
            if rows:
                scores, spreads, dispersions = zip(*rows)
                per_plan[party].append((float(np.std(scores)), float(np.mean(spreads)),
                                        float(np.mean(dispersions))))
    return [DiversityRecord(party, *(float(col.mean()) for col in np.array(per_plan[party]).T))
            for party in ("R", "D") if per_plan[party]]


def test_diversity_reuses_only_counts_without_tie_draws(grid_state, monkeypatch):
    vf = generate_voter_file(grid_state, voters_per_block=6, score_spread=0.5, seed=19)
    west = District(frozenset(range(8)), 2)
    east = District(frozenset(range(8, 16)), 2)
    south = District(frozenset(b for b in range(16) if b % 4 < 2), 2)
    plans = [Plan((west, east)), Plan((east, west)), Plan((south, west)), Plan((west, east))]
    # west's count breaks ties at random, and its winners depend on the seed;
    # east and south never draw.
    assert elect(west, vf, "partisan_score", None, 0)[2].tie_draws > 0
    assert len({tuple(elect(west, vf, "partisan_score", None, s)[2].winners)
                for s in range(10)}) > 1
    assert elect(east, vf, "partisan_score", None, 0)[2].tie_draws == 0
    assert elect(south, vf, "partisan_score", None, 0)[2].tie_draws == 0

    calls = []
    count = analysis.run_stv
    monkeypatch.setattr(analysis, "run_stv", lambda ballots, candidates, seats, seed: (
        calls.append((frozenset(i for b in ballots for i in b.voter_ids), seed))
        or count(ballots, candidates, seats, seed)))
    records = intra_party_analysis(grid_state, plans, vf, "partisan_score", None, seed=9)

    rng = random.Random(9)
    voters_of = {d: frozenset(vf.in_district(d).id.tolist()) for d in (west, east, south)}
    expected, seen = [], set()
    for d in (d for plan in plans for d in plan.districts):
        seed = rng.randrange(2 ** 32)  # every occurrence draws its seed
        if d == west or d not in seen:
            expected.append((voters_of[d], seed))
        seen.add(d)
    assert calls == expected
    monkeypatch.undo()
    assert records == elect_every_district(grid_state, plans, vf, "partisan_score", None, 9)


@pytest.mark.parametrize("mode", ["partisan_score", "geographic"])
def test_diversity_gathers_coalitions_in_voter_id_order(grid_state, tmp_path, mode):
    # Generated files number voters by row; this one holds the same voters
    # under negative, sparse ids in shuffled rows, so id order is not file order.
    generated = generate_voter_file(grid_state, voters_per_block=12, score_spread=0.5, seed=6)
    rng = np.random.default_rng(1)
    rows = rng.permutation(len(generated.columns))
    ids = -rng.choice(10 ** 9, size=len(rows), replace=False)
    path = tmp_path / "voters.csv"
    save_voter_file(VoterFile(dataclasses.replace(generated.columns.take(rows), id=ids),
                              generated.block_id[rows]), path)
    vf = load_voter_file(path)
    tree = build_tree(grid_state, 2, seed=5, root_samples=6, internal_samples=2)
    plans = sample_plans(tree, 8, seed=2)
    assert (intra_party_analysis(grid_state, plans, vf, mode, None, seed=3)
            == elect_every_district(grid_state, plans, vf, mode, None, 3))
