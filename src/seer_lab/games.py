"""Seeded Monte Carlo simulation of the prediction games.

Each game is a ``GamePayoff``, contexts with a weight each and the outcomes
that win there (the two-time game is the n = 3 ring payoff with the
preparation as wing A), and the strategy gives every context its outcome
distribution (Born rule, the foil tables, or an optimal classical strategy).
The reported win count is drawn exactly in two levels: context counts from a
multinomial over the context weights, then each context's outcome counts
from a multinomial over its outcome distribution.  That has the law of
playing the trials one by one, costs nothing per trial, and is bit-identical
for a fixed seed (one counter-based Philox stream keyed by the seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import classical, scenario
from .classical import MAX_N

GAME_KINDS = ("seer_ncycle", "bipartite_os", "odd_cycle", "diachronic")
STRATEGIES = ("classical_best", "quantum", "foil")

_MASK64 = (1 << 64) - 1
# numpy draws counts as int64.
MAX_TRIALS = (1 << 63) - 1


@dataclass(frozen=True)
class GameSpec:
    kind: str
    strategy: str
    trials: int
    seed: int
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in GAME_KINDS:
            raise ValueError(f"unknown game kind {self.kind!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"at most {MAX_TRIALS} trials (2**63 - 1)")
        if self.kind == "diachronic":
            if self.n not in (None, 3):
                raise ValueError("the diachronic game is defined for n=3 only")
            object.__setattr__(self, "n", 3)
        elif self.n is None or self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"{self.kind} needs odd n >= 3")
        elif self.n > MAX_N:
            raise ValueError(f"games are limited to n <= {MAX_N}")


class GameResult(NamedTuple):
    kind: str
    strategy: str
    n: int
    trials: int
    seed: int
    wins: int
    empirical_rate: float
    expected_rate: float
    std_error: float
    sigma_distance: float


class _SamplingModel(NamedTuple):
    """Context weights, per-context outcome distribution, win mask."""

    weights: np.ndarray  # (contexts,)
    outcome_probs: np.ndarray  # (contexts, outcomes)
    win: np.ndarray  # (contexts, outcomes) boolean
    expected: float


def _build_model(spec: GameSpec) -> _SamplingModel:
    """The context weights, rows and win masks of the kind's payoff, under the
    strategy's table.

    In the seer's game the quantum seer measures the opened pair on the
    star-polygon state (a both-0 Born probability of order 1/n^2); the
    classical seer prepares the one-correlated-pair valuation at a random
    position and filling, so the suitor wins with probability 1/(2n); the
    foil's anti-correlation never shows two empty boxes.  The diachronic
    game's quantum table is the n = 3 ring's (``quantum.diachronic_quantum``)
    and its classical strategy the best trit-oblivious encoding.
    """
    kind, n, strategy = spec.kind, spec.n, spec.strategy
    seer = kind == "seer_ncycle"
    payoff = {"seer_ncycle": classical.seer_payoff, "odd_cycle": classical.odd_cycle_payoff}.get(
        kind, classical.os_ring_payoff)(n)
    if strategy == "quantum":
        from . import quantum  # only the quantum strategy needs it

        if seer:
            table = quantum.klyachko_table(n)  # its (1, 2) row gives quantum.seer_game_win_probability(n)
        else:
            ops = quantum.odd_cycle_observables(n) if kind == "odd_cycle" else (quantum.ring_observables(n),) * 2
            table = quantum.born_table(payoff, *ops)
        expected = table.prob((1, 2), (0, 0)) if seer else payoff.value(table)
    elif strategy == "foil":
        table = scenario.build_os_ncycle(n) if seer else scenario.foil_table(payoff)
        expected = table.prob((1, 2), (0, 0)) if seer else 1.0
    elif seer:
        table = scenario.payoff_table(payoff, np.tile([1, n - 1, n - 1, 1], (n, 1)) / (2 * n))
        expected = 1 / (2 * n)
    elif kind == "diachronic":
        pnc = classical.pnc_bound_diachronic()
        name = max(pnc.per_encoding, key=lambda k: (pnc.per_encoding[k], k))
        table = scenario.pnc_response_table(name, pnc.best_responses[name])
        expected = float(pnc.per_encoding[name])
    else:
        bound = classical.local_bound(payoff)
        table = scenario.deterministic_table(scenario.payoff_scenario(payoff), bound.witness_a + bound.witness_b)
        expected = bound.value
    return _SamplingModel(payoff.weights / payoff.denom, table.rows(payoff.contexts), payoff.wins, expected)


def _draw_counts(model: _SamplingModel, trials: int, seed: int) -> np.ndarray:
    """Outcome counts per context over ``trials`` plays, shape (contexts, outcomes)."""
    rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    context_counts = rng.multinomial(trials, model.weights)
    return rng.multinomial(context_counts, model.outcome_probs)


def simulate(spec: GameSpec) -> GameResult:
    """Run the game and compare the empirical rate with the analytic value."""
    model = _build_model(spec)
    wins = int(_draw_counts(model, spec.trials, spec.seed)[model.win].sum())
    empirical = wins / spec.trials
    expected = model.expected
    std_error = math.sqrt(max(expected * (1 - expected), 0.0) / spec.trials)
    if std_error > 0:
        sigma = abs(empirical - expected) / std_error
    else:
        sigma = 0.0 if empirical == expected else math.inf
    return GameResult(
        kind=spec.kind,
        strategy=spec.strategy,
        n=spec.n,
        trials=spec.trials,
        seed=spec.seed,
        wins=wins,
        empirical_rate=empirical,
        expected_rate=expected,
        std_error=std_error,
        sigma_distance=sigma,
    )


class EnsembleResult(NamedTuple):
    n: int
    suitors: int
    strategy: str
    p_single: float
    p_any_win: float


def suitor_ensemble(n: int, suitors: int, strategy: str) -> EnsembleResult:
    """Chance that at least one of `suitors` independent players wins the
    n-box adjacent-pair game: 1 - (1 - p)^suitors for the win probability p
    that `simulate` expects of the seer_ncycle game."""
    if suitors < 0:
        raise ValueError("suitor count must be nonnegative")
    p = _build_model(GameSpec("seer_ncycle", strategy, trials=1, seed=0, n=n)).expected
    p_any = -math.expm1(suitors * math.log1p(-p)) if p > 0 else 0.0
    return EnsembleResult(n, suitors, strategy, p, p_any)
