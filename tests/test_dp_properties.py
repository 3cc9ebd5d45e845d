"""Property tests: the tree dynamic programs against full plan enumeration.

Random small grid states, district counts and sampling counts give trees
small enough to enumerate; every DP answer, witness plan and sampled plan
must match the enumerated plans.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mmdistrict.analysis import (ensemble_metrics, optimize_fair, optimize_partisan,
                                 score_leaves, seat_histograms)
from mmdistrict.model import generate_synthetic_state
from mmdistrict.rules import RULES, UncertaintyModel
from mmdistrict.tree import TreeBuildError, build_tree, count_plans, plan_from_leaves, sample_plans

from conftest import enumerate_plans

MAX_PLANS = 5000


@st.composite
def scored_trees(draw):
    """(state, tree, rule, leaf scores) for a tree of at most MAX_PLANS plans."""
    seats = draw(st.integers(2, 6))
    state = generate_synthetic_state(
        draw(st.integers(4, 36)), seats, draw(st.floats(0.2, 0.8)),
        draw(st.sampled_from([0.0, 1.0, 2.0])), seed=draw(st.integers(0, 10 ** 6)))
    try:
        # k counts down from the seat total: more districts, more distinct totals.
        # k = 1 is a single leaf, which the sweep and tree tests cover.
        tree = build_tree(state, seats - draw(st.integers(0, seats - 2)),
                          seed=draw(st.integers(0, 10 ** 6)),
                          root_samples=draw(st.integers(2, 12)),
                          internal_samples=draw(st.integers(1, 4)))
    except TreeBuildError:
        assume(False)
    assume(count_plans(tree.root) <= MAX_PLANS)
    rule = RULES[draw(st.sampled_from(sorted(RULES)))]
    sigma = draw(st.sampled_from([0.0, 0.05]))
    return state, tree, rule, score_leaves(tree, state, rule, UncertaintyModel(sigma))


@settings(max_examples=150, deadline=None)
@given(scored_trees(), st.integers(0, 10 ** 6))
def test_dynamic_programs_match_enumeration(case, draw_seed):
    state, tree, rule, scores = case
    plans = enumerate_plans(tree, limit=MAX_PLANS)
    leaf_ids = {tuple(leaf.node_id for leaf in plan) for plan in plans}
    totals = [sum(scores[leaf.node_id].deterministic_r_seats for leaf in plan) for plan in plans]
    table = seat_histograms(tree, scores)[tree.root.node_id]
    assert table == Counter(totals)
    assert tree.diagnostics["implicit_plan_count"] == sum(table.values()) == len(plans)

    encoded = {plan_from_leaves(plan) for plan in plans}
    assert all(plan in encoded for plan in sample_plans(tree, 20, seed=draw_seed))

    y, n = state.statewide_vote_share(), state.total_seats
    leaves, total, gap = optimize_fair(tree, seat_histograms(tree, scores), y)
    assert total == min(totals, key=lambda t: (abs(t / n - y), t))
    assert gap == min(abs(t / n - y) for t in totals)
    assert tuple(leaf.node_id for leaf in leaves) in leaf_ids
    assert sum(scores[leaf.node_id].deterministic_r_seats for leaf in leaves) == total

    quantiles = np.quantile(np.array(totals, dtype=float), [0.0, 0.25, 0.5, 0.75, 1.0])
    records = ensemble_metrics(tree, state, rule, seat_histograms(tree, scores))
    assert [r.seats_r for r in records] == list(quantiles)

    for party in ("R", "D"):
        def value(plan):
            return sum(scores[leaf.node_id].expected_r_seats if party == "R"
                       else leaf.seats - scores[leaf.node_id].expected_r_seats for leaf in plan)

        witness, best = optimize_partisan(tree, scores, party)
        assert best == pytest.approx(max(value(plan) for plan in plans), abs=1e-9)
        assert tuple(leaf.node_id for leaf in witness) in leaf_ids
        assert value(witness) == pytest.approx(best, abs=1e-9)
