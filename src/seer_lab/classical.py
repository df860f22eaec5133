"""Classical bounds: optima over deterministic strategies.

Covers the game payoffs with their noncontextual and Bell-local bounds (each
one ``max_sum`` call, a max-sum elimination over deterministic valuations, on
the payoff's win units: the anti-correlation cycle's ``ks_bound_ncycle``, the
two-wing games' ``local_bound``) and the preparation-noncontextual bound for
the two-time game (by best responses over a payoff's cells).  It imports no
other module of the package: ``quantum`` and ``scenario`` build on it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

# Largest n of the cycle bound and the games, set from a 5 s budget: the
# quantum tables cost O(n), and the slowest kind, bipartite_os, takes 0.34 s
# (77 MB peak RSS) at n = 10,001 for the whole `seer-lab game` process on a
# 2-core host (odd_cycle 0.32 s, seer_ncycle 0.26 s; median of seven).
MAX_N = 10_001

# Most int64 entries that max_sum's scope tables, kept for the decode, may hold
# in all (the messages between them add at most half as much).  Set from a
# 0.5 GB budget, in-process on a 2-core host, at the cap with every B setting
# reading every A setting: 0.42-0.46 s and 304 MB peak RSS for 23 x 1 settings,
# 0.64-0.70 s and 430 MB for 18 x 63, 1.0-1.3 s and 460 MB for 12 x 4,095.
MAX_LOCAL_TABLE = 1 << 25


class KsBoundResult(NamedTuple):
    n: int
    max_anticorrelated: int
    r_nc: float
    s_nc: float
    r_nc_exact: Fraction
    witness: tuple[int, ...]


def ks_bound_ncycle(n: int) -> KsBoundResult:
    """Best anti-correlated adjacent-pair count over the 2^n valuations of an odd cycle.

    ``max_sum`` on ``anticorrelation_payoff(n)``, whose local bound is R, with
    the lexicographically first optimal valuation as witness; S = n - 2 * (the
    count), the gamma = (-1, ..., -1) case of the n-cycle inequalities (Araujo
    et al., PRA 88, 022118 (2013)).
    """
    if n % 2 == 0:
        raise ValueError("the cycle bound is only nontrivial for odd n")
    if not 3 <= n <= MAX_N:
        raise ValueError(f"supported cycle sizes are odd 3..{MAX_N}")
    won, witness = _max_win(anticorrelation_payoff(n))
    return KsBoundResult(n, won, won / n, float(n - 2 * won), Fraction(won, n), witness)


# --------------------------------------------------------------------------
# Max-sum over deterministic valuations


def max_sum(k: int, contexts: Sequence[tuple[int, ...]], units: Sequence[np.ndarray]) -> tuple[int, tuple[int, ...]]:
    """Maximum over x in {0,1}^k of sum_c units_c[x restricted to c], with the
    lexicographically first optimal x.

    Each context is a nonempty increasing tuple of labels 0..k-1, its units an
    integer array of shape (2,) * |c| over its bits in order; sums run in int64.
    Max-sum bucket elimination (Dechter, Artif. Intell. 113, 41 (1999)), last
    label first: a bucket's functions add into one table over their labels
    (its scope), whose best over the bucket's label goes to the bucket of the
    scope's next label.  Decoding first to last, a label takes 1 only where
    that scores strictly more; a label no context names is 0.  ValueError
    before the scope tables, which the decode keeps, pass ``MAX_LOCAL_TABLE``
    entries in all.
    """
    buckets: list[list] = [[] for _ in range(k)]
    for c, u in zip(contexts, units, strict=True):
        c, u = tuple(c), np.asarray(u, dtype=np.int64)
        if not c or u.shape != (2,) * len(c) or not all(map(operator.lt, (-1,) + c, c + (k,))):
            raise ValueError(f"context {c} needs increasing labels 0..{k - 1} and units of shape {(2,) * len(c)}")
        buckets[c[-1]].append((c, u))
    # Each bucket's scope, found before any table is built.
    scopes: list = [{x for c, _ in bucket for x in c} for bucket in buckets]
    kept = 0
    for v in reversed(range(k)):
        if scopes[v]:
            scopes[v] = scope = sorted(scopes[v])
            kept += 1 << len(scope)
            if kept > MAX_LOCAL_TABLE:
                raise ValueError(f"max-sum tables are limited to {MAX_LOCAL_TABLE} entries in all; "
                                 f"the tables down to label {v} (2^{len(scope)} of its own) need {kept}")
            if len(scope) > 1:
                scopes[scope[-2]].update(scope[:-1])
    value, tables = 0, [None] * k
    for v in reversed(range(k)):
        bucket, scope = buckets.pop(), scopes[v]  # bucket v, freed once summed
        if scope:
            tables[v] = table = functools.reduce(operator.add, [u.reshape([2 if x in c else 1 for x in scope])
                                                                 for c, u in bucket])
            best = np.maximum(table[..., 0], table[..., 1])
            if len(scope) > 1:
                buckets[scope[-2]].append((scope[:-1], best))
            else:
                value += int(best)
    bits = [0] * k
    for v, table in enumerate(tables):
        if table is not None:
            low, high = table[tuple([bits[x] for x in scopes[v][:-1]])].tolist()
            bits[v] = int(high > low)
    return value, tuple(bits)


# --------------------------------------------------------------------------
# Game payoffs


@dataclass(frozen=True, eq=False)
class GamePayoff:
    """Weighted per-context success predicates over measurements 1..n, one row per cell.

    Cell i reads measurements ``contexts[i] = (m, m')``, m < m', has weight
    ``weights[i] / denom`` and wins on outcome (x_m, x_m') where ``wins[i, 2 x_m
    + x_m']``.  A two-wing payoff carries its ``wing_split``: wing A's settings
    are measurements 1..wing_split, each cell reads one of each wing, and
    ``n_a``, ``n_b`` and ``settings`` read it (ValueError without).  Arrays are
    read-only copies; a payoff compares and hashes by identity.
    """

    n_measurements: int
    contexts: np.ndarray  # (cells, 2) int
    weights: np.ndarray  # (cells,) int64, nonnegative units of 1/denom
    denom: int
    wins: np.ndarray  # (cells, 4) bool
    wing_split: Optional[int] = None

    def __post_init__(self):
        contexts, weights, wins = map(np.asarray, (self.contexts, self.weights, self.wins))
        integral = {contexts.dtype.kind, weights.dtype.kind} <= {"i", "u"}
        if not (integral and contexts.ndim == 2 and contexts.shape[1] == 2
                and weights.shape == contexts.shape[:1] and wins.shape == (len(weights), 4)):
            raise ValueError("a payoff needs (cells, 2) integer contexts, (cells,) integer weights and "
                             "(cells, 4) win masks")
        if not isinstance(self.denom, (int, np.integer)) or self.denom < 1:
            raise ValueError("the cell weights need an integer denominator of at least 1")
        if self.denom >= 1 << 62:
            raise ValueError("the cell weights need a common denominator below 2**62")
        total = sum(weights.tolist())  # Python ints cannot overflow
        if total != self.denom:
            raise ValueError(f"cell weights sum to {Fraction(total, self.denom)}, not 1")
        if weights.min() < 0:
            raise ValueError("cell weights must be nonnegative")
        first, second = contexts.T
        in_range = (1 <= first).all() and (first < second).all() and (second <= self.n_measurements).all()
        if not (in_range and (wins.dtype == bool or ((wins == 0) | (wins == 1)).all())):
            raise ValueError("cells need increasing pairs of measurements 1..n and win pairs of bits")
        split = self.wing_split
        if split is not None and not ((first <= split) & (split < second)).all():
            raise ValueError("a wing split needs one setting of each wing in every cell")
        # Frozen copies; int64 contexts keep the index arithmetic in range.
        frozen = contexts.astype(np.int64), weights.astype(np.int64), wins != 0
        for name, array in zip(("contexts", "weights", "wins"), frozen):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "denom", int(self.denom))

    @property
    def n_a(self) -> int:
        if self.wing_split is None:
            raise ValueError("this payoff has no wing split")
        return self.wing_split

    @property
    def n_b(self) -> int:
        return self.n_measurements - self.n_a

    @property
    def settings(self) -> np.ndarray:
        """The setting pair (a, b) of each cell, both counted from 1."""
        return self.contexts - (0, self.n_a)

    def value(self, table) -> float:
        """Winning probability of a correlation table under this payoff.

        The sum runs over integer multiples of the winning masses, one exactly
        rounded ``math.fsum``, so a table that wins every cell scores exactly 1.
        """
        units = self.weights[:, None] * self.wins * table.rows(self.contexts)
        return math.fsum(units.ravel().tolist()) / self.denom


# The cells (a, a), (a, a + 1), (a + 1, a) of one step of a ring, as offsets
# from (a - 1, a - 1), and their win masks over the outcomes 00, 01, 10, 11.
_RING_STEP = np.array([[0, 0], [0, 1], [1, 0]])
_RING_WINS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0]], dtype=bool)


def _ring_payoff(n: int, steps: int, game: str) -> GamePayoff:
    """The first ``steps`` cells of each ring step, a = 1..n in turn, at equal weights."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the {game} needs odd n >= 3")
    cells = ((np.arange(n)[:, None, None] + _RING_STEP[:steps]) % n + (1, n + 1)).reshape(-1, 2)
    return GamePayoff(2 * n, cells, np.ones(steps * n, int), steps * n, np.tile(_RING_WINS[:steps], (n, 1)), n)


def os_ring_payoff(n: int) -> GamePayoff:
    """Match on equal settings, anti-match on adjacent ones; other cells weight 0.
    The cells are (a, a), (a, a + 1), (a + 1, a) for a = 1..n in turn."""
    return _ring_payoff(n, 3, "ring game")


def odd_cycle_payoff(n: int) -> GamePayoff:
    """One-sided variant: Bob's setting is either equal or one step ahead,
    the cells (a, a), (a, a + 1) for a = 1..n in turn."""
    return _ring_payoff(n, 2, "odd-cycle game")


def _cycle_payoff(n: int, wins: list[bool], game: str) -> GamePayoff:
    """The adjacent pairs of boxes, the contexts of ``scenario.cycle_scenario(n)``
    sorted ((1, 2), (1, n), (2, 3), ..., (n - 1, n)), each at weight 1/n, won on ``wins``."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the {game} needs odd n >= 3")
    cells = [(1, 2), (1, n), *((a, a + 1) for a in range(2, n))]
    return GamePayoff(n, cells, np.ones(n, int), n, np.tile(wins, (n, 1)))


def seer_payoff(n: int) -> GamePayoff:
    """The seer's game: the suitor opens one adjacent pair and wins if both boxes are empty (00)."""
    return _cycle_payoff(n, [True, False, False, False], "seer's game")


def anticorrelation_payoff(n: int) -> GamePayoff:
    """The n-cycle anti-correlation game, won when the pair's outcomes differ (01 or 10)."""
    return _cycle_payoff(n, [False, True, True, False], "anti-correlation game")


class LocalBoundResult(NamedTuple):
    value: float
    value_exact: Fraction
    witness_a: tuple[int, ...]
    witness_b: tuple[int, ...]


def local_bound(game: Union[str, GamePayoff], n: Optional[int] = None) -> LocalBoundResult:
    """Maximum payoff of a two-wing game over all pairs of deterministic wing strategies.

    ``max_sum`` over the n_a + n_b measurements on the cells' win units,
    split at the wing boundary: the first optimal A strategy in lexicographic
    order with B's best response, bits preferring 0.  Each B setting leaves
    the better of its answers as a function of the A settings it shares cells
    with, at most three in the ring and odd-cycle games, so the work grows
    linearly with n.  Wings of more than ``MAX_N`` settings and payoffs past
    ``max_sum``'s cap raise ValueError.
    """
    payoff = game
    if isinstance(game, str):
        if game not in ("os3", "os_ring", "odd_cycle"):
            raise ValueError(f"unknown game {game!r}")
        if n is None and game != "os3":
            raise ValueError("this game kind needs n")
        payoff = odd_cycle_payoff(n) if game == "odd_cycle" else os_ring_payoff(3 if game == "os3" else n)
    n_a, n_b = payoff.n_a, payoff.n_b
    if n_a > MAX_N or n_b > MAX_N:
        raise ValueError(f"local bounds are limited to {MAX_N} settings per wing")
    won, bits = _max_win(payoff)
    value = Fraction(won, payoff.denom)
    return LocalBoundResult(float(value), value, bits[:n_a], bits[n_a:])


def _max_win(payoff: GamePayoff) -> tuple[int, tuple[int, ...]]:
    """``max_sum`` on a payoff's win units of 1/denom; a cell that wins nothing reads nothing."""
    units = (payoff.weights[:, None] * payoff.wins).reshape(-1, 2, 2)
    live = units.any(axis=(1, 2))
    return max_sum(payoff.n_measurements, (payoff.contexts[live] - 1).tolist(), units[live])


def bell_s3(strategy_a: Sequence[int], strategy_b: Sequence[int]) -> int:
    """S_3 = sum_a <A_a B_a> - sum_{a != b} <A_a B_b> for deterministic strategies,
    which is 18 P - 9 for the n=3 ring game's payoff P: its nine cells cover
    every setting pair with weight 1/9, and each correlator is 2 p(win) - 1."""
    bits_a = tuple(int(b) for b in strategy_a)
    bits_b = tuple(int(b) for b in strategy_b)
    if len(bits_a) != 3 or len(bits_b) != 3 or not set(bits_a + bits_b) <= {0, 1}:
        raise ValueError("strategies must assign three bits each")
    payoff = os_ring_payoff(3)
    a, b = payoff.settings.T - 1
    won = payoff.weights @ payoff.wins[np.arange(len(a)), 2 * np.array(bits_a)[a] + np.array(bits_b)[b]]
    return 18 * int(won) // payoff.denom - 9


def s3_local_bound() -> LocalBoundResult:
    """Maximum of S_3 over deterministic strategies: 18 * 7/9 - 9 = 5."""
    ring = local_bound("os3")
    value = 18 * ring.value_exact - 9
    return LocalBoundResult(float(value), value, ring.witness_a, ring.witness_b)


def s3_of_table(table) -> float:
    """S_3 of a bipartite 3x3 correlation table, 18 P - 9."""
    return 18 * os_ring_payoff(3).value(table) - 9


# --------------------------------------------------------------------------
# Preparation-noncontextual bound for the two-time game
#
# The two-time game is the n = 3 ring payoff with the preparation as wing A
# (trit t the setting, bit b the outcome) and the query y with its answer X as
# wing B: the target X = c_y(t, b) makes (b, X) equal when t = y and differ
# otherwise, which is exactly the ring game's win rule.


def c_function(y, t, b):
    """Target output: the stored bit when queried at the encoded position, else
    its flip (elementwise on arrays)."""
    return b ^ (t != y)


_T, _B = np.arange(1, 4)[:, None], np.arange(2)
# The trit-oblivious one-bit encodings e(t, b) of a preparation, as arrays
# indexed [t - 1, b]: the stored bit itself, or the target output of query k.
ENCODINGS = {"b": np.broadcast_to(_B, (3, 2)), **{f"c{k}": c_function(k, _T, _B) for k in (1, 2, 3)}}


class PncBoundResult(NamedTuple):
    bound: float
    bound_exact: Fraction
    per_encoding: dict[str, Fraction]
    best_responses: dict[str, tuple[int, ...]]


def pnc_bound_diachronic() -> PncBoundResult:
    """Optimal success of trit-oblivious one-bit encodings in the two-time game.

    The ontic state s = e(t, b) is one of the four trit-oblivious encodings,
    and a deterministic response map gives the answer to query y in state s
    at index 3 s + y - 1.  For a fixed encoding the ring payoff splits over
    those six answers, so the best response is chosen answer by answer; ties
    prefer 0, which picks the lexicographically first optimal map.  The
    per-encoding optima are {2/3, 7/9, 7/9, 7/9}, so the overall bound is 7/9.
    """
    payoff = os_ring_payoff(3)
    t, y = payoff.settings.T
    units = (payoff.weights[:, None] * payoff.wins).reshape(-1, 2, 2)  # [cell, b, x]
    per: dict[str, Fraction] = {}
    responses: dict[str, tuple[int, ...]] = {}
    for name, enc in ENCODINGS.items():
        # score[s, y - 1, x]: units of 1/(2 denom) won by answering x to query
        # y in state s, the stored bit being uniform.
        score = np.zeros((2, 3, 2), dtype=np.int64)
        np.add.at(score, (enc[t - 1], (y - 1)[:, None]), units)
        per[name] = Fraction(int(score.max(axis=-1).sum()), 2 * payoff.denom)
        responses[name] = tuple(int(x) for x in (score[..., 1] > score[..., 0]).ravel())
    bound = max(per.values())
    return PncBoundResult(float(bound), bound, per, responses)
