import itertools
import math

import pytest

from mmdistrict.rules import (
    PAV,
    RULES,
    STV,
    THIELE_SQUARED,
    WTA,
    SeatShareRule,
    UncertaintyModel,
    deterministic_seats,
    expected_seats,
    get_rule,
    seat_thresholds,
)


def committee_oracle(y, m, lam):
    """Brute-force Thiele optimum over all size-m committees of 2m candidates.

    Candidates 0..m-1 are party R, m..2m-1 party D; a y fraction of voters
    approve the R slate and the rest the D slate.  Ties go to fewer R seats.
    """
    best_score, best_r = -1.0, None
    results = []
    for committee in itertools.combinations(range(2 * m), m):
        r = sum(1 for c in committee if c < m)
        score = (y * sum(lam(i) for i in range(1, r + 1))
                 + (1 - y) * sum(lam(i) for i in range(1, m - r + 1)))
        results.append((score, r))
    best_score = max(s for s, _ in results)
    tol = 1e-12 * max(1.0, abs(best_score))
    return min(r for s, r in results if s >= best_score - tol)


@pytest.mark.parametrize("rule", [WTA, PAV, THIELE_SQUARED])
def test_thiele_matches_committee_enumeration(rule):
    for m in range(1, 4):
        for i in range(0, 21):
            y = i / 20
            assert deterministic_seats(y, m, rule).seats_r == committee_oracle(y, m, rule.lam), \
                (rule.name, m, y)


def test_pav_matches_committee_enumeration_on_divisible_electorates():
    # The shares of acceptance criterion 1: n_r / v with (m + 1) dividing v,
    # seat boundaries included, where PAV's thresholds are n / (m + 1).
    for m in range(1, 6):
        for v in ((m + 1) * j for j in (1, 2, 3, 7)):
            for n_r in range(v + 1):
                y = n_r / v
                assert deterministic_seats(y, m, PAV).seats_r == committee_oracle(y, m, PAV.lam), \
                    (m, v, n_r)


def test_pav_two_seats_boundary_ties_favor_d():
    assert deterministic_seats(1 / 3, 2, PAV).seats_r == 0
    assert deterministic_seats(2 / 3, 2, PAV).seats_r == 1
    assert deterministic_seats(1 / 3 + 1e-6, 2, PAV).seats_r == 1
    assert deterministic_seats(2 / 3 + 1e-6, 2, PAV).seats_r == 2


def test_wta_is_winner_take_all():
    for m in (1, 3, 5):
        assert deterministic_seats(0.6, m, WTA).seats_r == m
        assert deterministic_seats(0.4, m, WTA).seats_r == 0
        assert deterministic_seats(0.5, m, WTA).seats_r == 0  # exact tie to D


def test_stv_seats_interval_formula():
    # n is the unique integer in [y(m+1) - 1, y(m+1))
    assert deterministic_seats(0.41, 4, STV).seats_r == 2
    assert deterministic_seats(0.55, 3, STV).seats_r == 2
    assert deterministic_seats(0.0, 5, STV).seats_r == 0
    assert deterministic_seats(1.0, 5, STV).seats_r == 5


def test_stv_integer_boundaries_resolve_to_d():
    for m in range(1, 8):
        for t in range(0, m + 2):
            y = t / (m + 1)
            expected = max(0, min(m, t - 1))
            assert deterministic_seats(y, m, STV).seats_r == expected, (m, t)


def test_stv_proportionality_bound():
    for m in range(1, 11):
        for i in range(0, 101):
            y = i / 100
            n = deterministic_seats(y, m, STV).seats_r
            assert abs(n - y * m) < 1, (y, m, n)


def test_stv_equals_pav_everywhere():
    for m in range(1, 11):
        for i in range(0, 200):
            y = i / 199
            assert (deterministic_seats(y, m, STV).seats_r
                    == deterministic_seats(y, m, PAV).seats_r), (y, m)


def test_seats_monotone_in_vote_share():
    for rule in RULES.values():
        for m in (1, 2, 4, 7):
            prev = 0
            for i in range(0, 101):
                n = deterministic_seats(i / 100, m, rule).seats_r
                assert n >= prev
                prev = n


def test_seat_thresholds_known_values():
    assert seat_thresholds(2, PAV) == [pytest.approx(1 / 3), pytest.approx(2 / 3)]
    assert seat_thresholds(3, STV) == [pytest.approx(n / 4) for n in (1, 2, 3)]
    assert seat_thresholds(2, THIELE_SQUARED) == [pytest.approx(0.2), pytest.approx(0.8)]
    assert seat_thresholds(2, WTA) == [0.5, 0.5]


def test_thresholds_consistent_with_deterministic_seats():
    for rule in RULES.values():
        for m in range(1, 9):
            ts = seat_thresholds(m, rule)
            for i in range(0, 100):
                y = i / 100 + 0.0037  # grid offset avoids exact threshold hits
                if y >= 1:
                    continue
                expected = sum(1 for t in ts if y > t)
                assert deterministic_seats(y, m, rule).seats_r == expected, (rule.name, m, y)


def test_expected_seats_degenerates_without_noise():
    u = UncertaintyModel(0.0)
    for rule in RULES.values():
        for y in (0.1, 0.44, 0.9):
            assert expected_seats(y, 4, rule, u) == deterministic_seats(y, 4, rule).seats_r


def test_expected_seats_smooth_and_bounded():
    u = UncertaintyModel(0.05)
    prev = 0.0
    for i in range(0, 101):
        v = expected_seats(i / 100, 5, STV, u)
        assert 0.0 <= v <= 5.0
        assert v >= prev - 1e-12
        prev = v
    # noise blurs the outcome toward the neighboring counts without jumping a seat
    assert abs(expected_seats(0.35, 5, STV, u) - deterministic_seats(0.35, 5, STV).seats_r) < 1


def test_expected_seats_tightens_as_sigma_shrinks():
    y, m = 0.43, 3
    det = deterministic_seats(y, m, STV).seats_r
    wide = abs(expected_seats(y, m, STV, UncertaintyModel(0.2)) - det)
    tight = abs(expected_seats(y, m, STV, UncertaintyModel(0.01)) - det)
    assert tight < wide


def test_uncertainty_model_rejects_negative_sigma():
    with pytest.raises(ValueError):
        UncertaintyModel(-0.01)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_uncertainty_model_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match=f"sigma must be finite and >= 0, got {sigma}"):
        UncertaintyModel(sigma)


def test_get_rule_lookup():
    assert get_rule("stv") is STV
    assert get_rule("pav") is PAV
    with pytest.raises(ValueError):
        get_rule("borda")


def test_rule_constructor_validation():
    with pytest.raises(ValueError):
        SeatShareRule("x", "plurality")
    with pytest.raises(ValueError):
        SeatShareRule("x", "thiele")


def test_degenerate_arguments_rejected():
    with pytest.raises(ValueError):
        deterministic_seats(0.5, 0, STV)
    with pytest.raises(ValueError):
        deterministic_seats(0.5, 0, PAV)
    with pytest.raises(ValueError):
        seat_thresholds(0, PAV)
