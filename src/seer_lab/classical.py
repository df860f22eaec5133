"""Classical bounds by exhaustive enumeration of deterministic strategies.

Covers the noncontextual bound for anti-correlation cycles, Bell-local bounds
for the two-wing prediction games, the preparation-noncontextual bound for
the two-time game, and algebraic (parity) satisfiability of sign constraints
around a cycle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

_CHUNK = 1 << 22
# Largest per-wing setting count for local_bound, set from a 1 s / 0.5 GB
# budget: it holds a few int64 rows of n entries per A strategy.  Whole
# process on a 2-core host: n = 17 0.2 s / 100 MB, n = 19 0.8 s / 339 MB,
# n = 20 1.5 s / 679 MB, n = 21 3.4 s / 1.4 GB peak RSS.
MAX_LOCAL_SETTINGS = 19


def _assignment_bits(value: int, n: int) -> tuple[int, ...]:
    """Bits (X_1..X_n) of an assignment encoded with X_1 as the most significant bit."""
    return tuple((value >> (n - a)) & 1 for a in range(1, n + 1))


@dataclass(frozen=True)
class KsBoundResult:
    n: int
    max_anticorrelated: int
    r_nc: float
    s_nc: float
    r_nc_exact: Fraction
    witness: tuple[int, ...]


def ks_bound_ncycle(n: int) -> KsBoundResult:
    """Best anti-correlated adjacent-pair count over all 2^n valuations of an odd cycle.

    The enumerated optimum is n-1 pairs, i.e. R = 1 - 1/n and S = -(n-2);
    ties are broken toward the lexicographically first assignment bit-string.
    """
    if n % 2 == 0:
        raise ValueError("the cycle bound is only nontrivial for odd n")
    if not 3 <= n <= 25:
        raise ValueError("supported cycle sizes are odd 3..25")
    best = -1
    witness_code = 0
    mask = np.uint32((1 << n) - 1)
    for start in range(0, 1 << n, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.uint32)
        # Bit k of `codes` holds X_{n-k}; a cyclic shift pairs each X_a with
        # X_{a+1}, so the popcount of code XOR shift counts anti-correlated
        # adjacent pairs.
        shifted = ((codes >> np.uint32(1)) | ((codes & np.uint32(1)) << np.uint32(n - 1))) & mask
        anti = np.bitwise_count(codes ^ shifted)
        top = int(anti.max())
        if top > best:
            best = top
            witness_code = int(codes[int(np.argmax(anti == top))])
    r_exact = Fraction(best, n)
    return KsBoundResult(
        n=n,
        max_anticorrelated=best,
        r_nc=float(r_exact),
        s_nc=float(n - 2 * best),
        r_nc_exact=r_exact,
        witness=_assignment_bits(witness_code, n),
    )


def algebraic_contradiction(cycle_signs: Sequence[int]) -> bool:
    """Satisfiability of Xbar_a Xbar_{a+1} = s_a around a cycle.

    Multiplying all constraints gives +1 on the left, so the system is
    satisfiable exactly when the product of the signs is +1.
    """
    signs = [int(s) for s in cycle_signs]
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1")
    if len(signs) < 3:
        raise ValueError("a cycle needs at least three constraints")
    prod = 1
    for s in signs:
        prod *= s
    return prod == 1


def brute_force_cycle_satisfiable(cycle_signs: Sequence[int]) -> bool:
    """Independent oracle: try all 2^n signed valuations."""
    n = len(cycle_signs)
    for bits in itertools.product((1, -1), repeat=n):
        if all(bits[a] * bits[(a + 1) % n] == cycle_signs[a] for a in range(n)):
            return True
    return False


# --------------------------------------------------------------------------
# Two-wing games


@dataclass(frozen=True)
class PayoffCell:
    a: int
    b: int
    weight: Fraction
    wins: frozenset  # winning (X_A, X_B) outcome pairs


@dataclass(frozen=True)
class GamePayoff:
    """Weighted per-context success predicates for a two-wing game."""

    n_a: int
    n_b: int
    cells: tuple[PayoffCell, ...]

    def __post_init__(self):
        total = sum(c.weight for c in self.cells)
        if total != 1:
            raise ValueError(f"cell weights sum to {total}, not 1")
        if any(c.weight < 0 for c in self.cells):
            raise ValueError("cell weights must be nonnegative")
        if not all(1 <= c.a <= self.n_a and 1 <= c.b <= self.n_b and c.wins <= _OUTCOMES
                   for c in self.cells):
            raise ValueError("cells need settings 1..n_a, 1..n_b and win pairs of bits")

    def context(self, cell: PayoffCell) -> tuple[int, int]:
        """The measurements a cell names in a two-wing table: wing A's
        settings are measurements 1..n_a and wing B's setting b is n_a + b."""
        return (cell.a, self.n_a + cell.b)

    def value(self, table) -> float:
        """Winning probability of a two-wing correlation table under this payoff.

        The weights are put on a common denominator, so the sum runs over
        integer multiples of the winning masses and a table that wins every
        cell scores exactly 1.
        """
        denom = math.lcm(*(c.weight.denominator for c in self.cells))
        total = math.fsum(
            c.weight.numerator * (denom // c.weight.denominator) * table.prob(self.context(c), xy)
            for c in self.cells
            for xy in c.wins
        )
        return total / denom


_OUTCOMES = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
_EQUAL = frozenset({(0, 0), (1, 1)})
_DIFFER = frozenset({(0, 1), (1, 0)})


def os_ring_payoff(n: int) -> GamePayoff:
    """Match on equal settings, anti-match on adjacent ones; other cells weight 0."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the ring game needs odd n >= 3")
    w = Fraction(1, 3 * n)
    cells = []
    for a in range(1, n + 1):
        cells.append(PayoffCell(a, a, w, _EQUAL))
        cells.append(PayoffCell(a, a % n + 1, w, _DIFFER))
        cells.append(PayoffCell(a % n + 1, a, w, _DIFFER))
    return GamePayoff(n, n, tuple(cells))


def odd_cycle_payoff(n: int) -> GamePayoff:
    """One-sided variant: Bob's setting is either equal or one step ahead."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the odd-cycle game needs odd n >= 3")
    w = Fraction(1, 2 * n)
    cells = []
    for a in range(1, n + 1):
        cells.append(PayoffCell(a, a, w, _EQUAL))
        cells.append(PayoffCell(a, a % n + 1, w, _DIFFER))
    return GamePayoff(n, n, tuple(cells))


@dataclass(frozen=True)
class LocalBoundResult:
    value: float
    value_exact: Fraction
    witness_a: tuple[int, ...]
    witness_b: tuple[int, ...]


def local_bound(game: Union[str, GamePayoff], n: Optional[int] = None) -> LocalBoundResult:
    """Maximum payoff over all pairs of deterministic wing strategies.

    For a fixed A strategy the payoff splits over B's measurements, so B's
    best response is chosen bit by bit; every A strategy is scored at once in
    integer units of the weights' common denominator.  Ties break toward the
    lexicographically first strategies (B bits prefer 0).
    """
    if isinstance(game, str):
        if game == "os3":
            payoff = os_ring_payoff(3)
        elif game == "os_ring":
            payoff = os_ring_payoff(_require_n(n))
        elif game == "odd_cycle":
            payoff = odd_cycle_payoff(_require_n(n))
        else:
            raise ValueError(f"unknown game {game!r}")
    else:
        payoff = game
    n_a, n_b = payoff.n_a, payoff.n_b
    if n_a > MAX_LOCAL_SETTINGS or n_b > MAX_LOCAL_SETTINGS:
        raise ValueError(f"local bounds are limited to {MAX_LOCAL_SETTINGS} settings per wing")

    denom = math.lcm(*(c.weight.denominator for c in payoff.cells))
    if denom >= 1 << 62:
        raise ValueError("the cell weights need a common denominator below 2**62")
    # score[x_b, x_a, a, b]: weight won at settings (a, b) on outcomes (x_a, x_b).
    score = np.zeros((2, 2, n_a, n_b), dtype=np.int64)
    for c in payoff.cells:
        for xa, xb in c.wins:
            score[xb, xa, c.a - 1, c.b - 1] += c.weight.numerator * (denom // c.weight.denominator)
    # Row k holds the bits of A strategy k, X_1 the most significant.
    bits_a = (np.arange(1 << n_a)[:, None] >> np.arange(n_a - 1, -1, -1)) & 1
    s0, s1 = (score[xb, 0].sum(axis=0) + bits_a @ (score[xb, 1] - score[xb, 0]) for xb in (0, 1))
    best = int(np.argmax(np.maximum(s0, s1).sum(axis=1)))
    value = Fraction(int(np.maximum(s0[best], s1[best]).sum()), denom)
    witness_b = tuple(int(x) for x in s1[best] > s0[best])
    return LocalBoundResult(float(value), value, tuple(int(x) for x in bits_a[best]), witness_b)


def _require_n(n: Optional[int]) -> int:
    if n is None:
        raise ValueError("this game kind needs n")
    return n


def bell_s3(strategy_a: Sequence[int], strategy_b: Sequence[int]) -> int:
    """S_3 = sum_a <A_a B_a> - sum_{a != b} <A_a B_b> for deterministic strategies."""
    xa = [1 - 2 * int(b) for b in strategy_a]
    xb = [1 - 2 * int(b) for b in strategy_b]
    if len(xa) != 3 or len(xb) != 3:
        raise ValueError("strategies must assign three bits each")
    total = sum(xa[a] * xb[a] for a in range(3))
    total -= sum(xa[a] * xb[b] for a in range(3) for b in range(3) if a != b)
    return total


def s3_local_bound() -> LocalBoundResult:
    """Enumerated maximum of S_3 over the 2^3 x 2^3 deterministic strategies (= 5)."""
    best = None
    for ba in itertools.product((0, 1), repeat=3):
        for bb in itertools.product((0, 1), repeat=3):
            value = bell_s3(ba, bb)
            if best is None or value > best[0]:
                best = (value, ba, bb)
    value, ba, bb = best
    return LocalBoundResult(float(value), Fraction(value), ba, bb)


def s3_of_table(table) -> float:
    """S_3 evaluated from a bipartite 3x3 correlation table's correlators."""
    total = 0.0
    for a in range(1, 4):
        for b in range(1, 4):
            dist = table.probs[(a, 3 + b)]
            corr = sum(p * (1 - 2 * xa) * (1 - 2 * xb) for (xa, xb), p in dist.items())
            total += corr if a == b else -corr
    return total


# --------------------------------------------------------------------------
# Preparation-noncontextual bound for the two-time game


def c_function(y: int, t: int, b: int) -> int:
    """Target output: the stored bit when queried at the encoded position, else its flip."""
    return b if t == y else 1 - b


_ENCODINGS: dict[str, Callable[[int, int], int]] = {
    "b": lambda t, b: b,
    "c1": lambda t, b: c_function(1, t, b),
    "c2": lambda t, b: c_function(2, t, b),
    "c3": lambda t, b: c_function(3, t, b),
}


@dataclass(frozen=True)
class PncBoundResult:
    bound: float
    bound_exact: Fraction
    per_encoding: dict[str, Fraction]
    best_responses: dict[str, tuple[int, ...]]


def pnc_bound_diachronic() -> PncBoundResult:
    """Optimal success of trit-oblivious one-bit encodings in the two-time game.

    The ontic state must be one of the four trit-oblivious functions of
    (t, b); for each, every deterministic response map from (state, query) to
    an output bit is enumerated.  The per-encoding optima are {2/3, 7/9, 7/9,
    7/9}, so the overall bound is 7/9.
    """
    per: dict[str, Fraction] = {}
    responses: dict[str, tuple[int, ...]] = {}
    for name, enc in _ENCODINGS.items():
        best = Fraction(-1)
        best_resp = None
        for resp in itertools.product((0, 1), repeat=6):
            wins = sum(
                1
                for t in (1, 2, 3)
                for b in (0, 1)
                for y in (1, 2, 3)
                if resp[enc(t, b) * 3 + (y - 1)] == c_function(y, t, b)
            )
            value = Fraction(wins, 18)
            if value > best:
                best, best_resp = value, resp
        per[name] = best
        responses[name] = best_resp
    bound = max(per.values())
    return PncBoundResult(float(bound), bound, per, responses)


def pnc_stochastic_response_value(
    encoding: str, response_probs: Sequence[float]
) -> float:
    """Success rate of a stochastic response map p(X=1 | state, query).

    Used to spot-check that randomized responses never beat the deterministic
    optimum (the payoff is linear in the response probabilities).
    """
    enc = _ENCODINGS[encoding]
    total = 0.0
    for t in (1, 2, 3):
        for b in (0, 1):
            for y in (1, 2, 3):
                p1 = response_probs[enc(t, b) * 3 + (y - 1)]
                target = c_function(y, t, b)
                total += p1 if target == 1 else 1 - p1
    return total / 18
