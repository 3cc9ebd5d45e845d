"""Closed-form partisan seat shares for Thiele-family rules and STV.

Under party-line voting only the partisan split of a winning committee
matters, so every rule reduces to its m seat thresholds: R wins n or more
seats exactly when y_R > t_n.  Ties at a threshold resolve in favor of
party D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

#: Absolute slack on the vote share within which a share counts as tied with
#: a threshold (the float threshold can sit an ulp off the exact one).
TIE_EPS = 1e-12


@dataclass(frozen=True)
class SeatOutcome:
    seats_r: int
    seats_d: int

    @property
    def total(self):
        return self.seats_r + self.seats_d


@dataclass(frozen=True)
class UncertaintyModel:
    """Gaussian vote-share noise used for robust expected seat counts."""
    sigma: float = 0.05

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class SeatShareRule:
    """A named social-choice rule: a Thiele weight family or STV."""
    name: str
    kind: str  # "thiele" or "stv"
    lam: object = None  # weight function on 1..m for Thiele rules

    def __post_init__(self):
        if self.kind not in ("thiele", "stv"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "thiele" and self.lam is None:
            raise ValueError("thiele rule requires a weight function")


WTA = SeatShareRule("wta", "thiele", lambda i: 1.0)
PAV = SeatShareRule("pav", "thiele", lambda i: 1.0 / i)
THIELE_SQUARED = SeatShareRule("thiele2", "thiele", lambda i: 1.0 / (i * i))
STV = SeatShareRule("stv", "stv")

RULES = {r.name: r for r in (WTA, PAV, STV, THIELE_SQUARED)}


def get_rule(name: str) -> SeatShareRule:
    try:
        return RULES[name]
    except KeyError:
        raise ValueError(f"unknown rule {name!r}; expected one of {sorted(RULES)}") from None


def seat_thresholds(m: int, rule: SeatShareRule):
    """Ascending t_1..t_m with seats_r(y) >= n iff y > t_n (ties to D).

    For STV and PAV the thresholds are n / (m + 1); for a general Thiele
    rule t_n solves y * lam(n) = (1 - y) * lam(m - n + 1).  PAV keeps the
    closed form because the general formula misses n / (m + 1) in the last
    bit for some (m, n).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if rule.kind == "stv" or rule.name == "pav":
        return [n / (m + 1) for n in range(1, m + 1)]
    return [rule.lam(m - n + 1) / (rule.lam(n) + rule.lam(m - n + 1))
            for n in range(1, m + 1)]


def deterministic_seats(y_r: float, m: int, rule: SeatShareRule) -> SeatOutcome:
    """R seats without vote noise: the number of thresholds that y_r exceeds by
    more than TIE_EPS, so a share at a threshold gives the seat to D."""
    n = sum(1 for t in seat_thresholds(m, rule) if y_r > t + TIE_EPS)
    return SeatOutcome(n, m - n)


def expected_seats(y_r: float, m: int, rule: SeatShareRule,
                   u: UncertaintyModel = UncertaintyModel()) -> float:
    """Expected R seats with Gaussian vote-share noise of scale u.sigma.

    Sums P(Y > t_n) over the seat thresholds; sigma = 0 degenerates to the
    deterministic count.
    """
    if u.sigma == 0:
        return float(deterministic_seats(y_r, m, rule).seats_r)
    scale = u.sigma * math.sqrt(2.0)
    return sum(0.5 * math.erfc((t - y_r) / scale) for t in seat_thresholds(m, rule))
