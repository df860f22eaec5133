"""Classical bounds: optima over deterministic strategies.

Covers the noncontextual bound for anti-correlation cycles (in closed form),
Bell-local bounds for the two-wing prediction games (by max-plus elimination
over one wing's settings) and the preparation-noncontextual bound for the
two-time game (by best responses over a payoff's cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

# Largest n of the cycle bound and the games, set from a 5 s budget: the
# quantum tables cost O(n), and the slowest kind, bipartite_os, takes 0.88 s
# (120 MB peak RSS) at n = 10,001 for the whole `seer-lab game` process on a
# 2-core host (odd_cycle 0.73 s, seer_ncycle 0.59 s; median of seven).
MAX_N = 10_001

# Largest local_bound elimination table, in int64 entries: 2^width scope
# assignments x (2 answers per B setting + 1), about 11.4 bytes each.  Set
# from a 0.5 GB budget: a one-block payoff of 19 x 31 settings whose B
# settings each read all of A (2^19 x 63 entries) took 0.25 s and 411 MB
# peak RSS, 2^24 x 3 entries 0.79 s and 547 MB (in-process, 2-core host).
MAX_LOCAL_TABLE = 1 << 25

# Wing-A settings per local_bound elimination block.  The ring and odd-cycle
# games at n <= 7, the sizes the game sampler plays, are one block.  A ring
# block also reads four settings of earlier blocks, so its table has
# 2^(_BLOCK + 4) rows: in-process on a 2-core host the ring at n = 10,001 took
# 0.25 s with blocks of 5 settings, 0.33 s with 7, 0.39-0.48 s with 8 and
# 0.79 s with 9, and the twelve games at n = 3..13 took 2-3 ms with any of them.
_BLOCK = 7


@dataclass(frozen=True)
class KsBoundResult:
    n: int
    max_anticorrelated: int
    r_nc: float
    s_nc: float
    r_nc_exact: Fraction
    witness: tuple[int, ...]


def ks_bound_ncycle(n: int) -> KsBoundResult:
    """Best anti-correlated adjacent-pair count over the 2^n valuations of an odd cycle.

    An odd cycle cannot alternate all the way round, so at most n-1 adjacent
    pairs differ: R = 1 - 1/n and S = -(n-2), the gamma = (-1, ..., -1) case
    of the n-cycle inequalities (Araujo et al., PRA 88, 022118 (2013)).  The
    witness 0, 0, 1, 0, 1, ..., 0, 1 is the lexicographically first optimum:
    an optimum has one equal adjacent pair, and X_1 = X_2 = 0 puts it first.
    """
    if n % 2 == 0:
        raise ValueError("the cycle bound is only nontrivial for odd n")
    if not 3 <= n <= MAX_N:
        raise ValueError(f"supported cycle sizes are odd 3..{MAX_N}")
    r_exact = Fraction(n - 1, n)
    return KsBoundResult(
        n=n,
        max_anticorrelated=n - 1,
        r_nc=float(r_exact),
        s_nc=float(2 - n),
        r_nc_exact=r_exact,
        witness=(0,) + (0, 1) * ((n - 1) // 2),
    )


# --------------------------------------------------------------------------
# Two-wing games


@dataclass(frozen=True, eq=False)
class GamePayoff:
    """Weighted per-context success predicates for a two-wing game, one row per cell.

    Cell i sits at settings ``settings[i] = (a, b)``, counted from 1, has weight
    ``weights[i] / denom`` and wins on outcome (x_a, x_b) where
    ``wins[i, 2 x_a + x_b]``.  The arrays are read-only copies, and a payoff
    compares and hashes by identity, since arrays have no single-valued ==.
    """

    n_a: int
    n_b: int
    settings: np.ndarray  # (cells, 2) int
    weights: np.ndarray  # (cells,) int64, nonnegative units of 1/denom
    denom: int
    wins: np.ndarray  # (cells, 4) bool

    def __post_init__(self):
        settings, weights, wins = map(np.asarray, (self.settings, self.weights, self.wins))
        integral = {settings.dtype.kind, weights.dtype.kind} <= {"i", "u"}
        if not (integral and settings.ndim == 2 and settings.shape[1] == 2
                and weights.shape == settings.shape[:1] and wins.shape == (len(weights), 4)):
            raise ValueError("a payoff needs (cells, 2) integer settings, (cells,) integer weights and "
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
        in_range = (settings >= 1).all() and (settings <= (self.n_a, self.n_b)).all()
        if not (in_range and (wins.dtype == bool or ((wins == 0) | (wins == 1)).all())):
            raise ValueError("cells need settings 1..n_a, 1..n_b and win pairs of bits")
        # Frozen copies; int64 settings keep the context arithmetic in range.
        frozen = settings.astype(np.int64), weights.astype(np.int64), wins != 0
        for name, array in zip(("settings", "weights", "wins"), frozen):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "denom", int(self.denom))

    @property
    def contexts(self) -> np.ndarray:
        """The measurements each cell names in a two-wing table, one row per cell:
        wing A's settings are measurements 1..n_a and wing B's setting b is n_a + b."""
        return self.settings + (0, self.n_a)

    def value(self, table) -> float:
        """Winning probability of a two-wing correlation table under this payoff.

        The sum runs over integer multiples of the winning masses, one exactly
        rounded ``math.fsum``, so a table that wins every cell scores exactly 1.
        """
        units = self.weights[:, None] * self.wins * table.rows(self.contexts)
        return math.fsum(units.ravel().tolist()) / self.denom

    def operator(self, ops_a: Sequence[np.ndarray], ops_b: Sequence[np.ndarray]) -> np.ndarray:
        """Sum over cells of weight * sum over winning (x, y) of Pi_a^x (x) Pi_b^y,
        with Pi^x = (1 + (-1)^x O)/2 for the wing observable O at each setting
        (outcome 0 is eigenvalue +1); for +-1 observables its expectation in a
        state is the state's winning probability.  Wings that share one stack
        share its projectors.  Two matmuls over the cells: B's projectors
        weighted by each cell's won units, then paired with A's."""
        if len(ops_a) != self.n_a or len(ops_b) != self.n_b:
            raise ValueError(f"the payoff needs {self.n_a} and {self.n_b} wing observables")
        proj_a = _outcome_projectors(ops_a)
        proj_b = proj_a if ops_b is ops_a else _outcome_projectors(ops_b)
        (a, b), da, db = self.settings.T - 1, proj_a.shape[-1], proj_b.shape[-1]
        units = (self.weights[:, None] * self.wins).reshape(-1, 2, 2)
        # half[cell, x]: the B operator won with A's outcome x at that cell.
        half = units @ proj_b[b].reshape(-1, 2, db * db)
        out = proj_a[a].reshape(-1, da * da).T @ half.reshape(-1, db * db)
        return out.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, -1) / self.denom


def _outcome_projectors(ops: Sequence[np.ndarray]) -> np.ndarray:
    """(1 + O)/2 and (1 - O)/2 for each observable O, stacked as (settings, 2, d, d),
    real for a float64 stack."""
    from .numkit import as_operand  # only quantum operators need it

    ops = as_operand(ops)
    eye = np.eye(ops.shape[-1])
    return np.stack([(eye + ops) / 2, (eye - ops) / 2], axis=1)


# The cells (a, a), (a, a + 1), (a + 1, a) of one step of a ring, as offsets
# from (a - 1, a - 1), and their win masks over the outcomes 00, 01, 10, 11.
_RING_STEP = np.array([[0, 0], [0, 1], [1, 0]])
_RING_WINS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0]], dtype=bool)


def os_ring_payoff(n: int) -> GamePayoff:
    """Match on equal settings, anti-match on adjacent ones; other cells weight 0.
    The cells are (a, a), (a, a + 1), (a + 1, a) for a = 1..n in turn."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the ring game needs odd n >= 3")
    cells = ((np.arange(n)[:, None, None] + _RING_STEP) % n + 1).reshape(-1, 2)
    return GamePayoff(n, n, cells, np.ones(3 * n, int), 3 * n, np.tile(_RING_WINS, (n, 1)))


def odd_cycle_payoff(n: int) -> GamePayoff:
    """One-sided variant: Bob's setting is either equal or one step ahead,
    the cells (a, a), (a, a + 1) for a = 1..n in turn."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the odd-cycle game needs odd n >= 3")
    cells = ((np.arange(n)[:, None, None] + _RING_STEP[:2]) % n + 1).reshape(-1, 2)
    return GamePayoff(n, n, cells, np.ones(2 * n, int), 2 * n, np.tile(_RING_WINS[:2], (n, 1)))


@dataclass(frozen=True)
class LocalBoundResult:
    value: float
    value_exact: Fraction
    witness_a: tuple[int, ...]
    witness_b: tuple[int, ...]


def local_bound(game: Union[str, GamePayoff], n: Optional[int] = None) -> LocalBoundResult:
    """Maximum payoff over all pairs of deterministic wing strategies.

    For a fixed A strategy the payoff splits over B's settings: setting b adds
    the better of its two answers, a function of the A settings that share a
    cell with b.  The sum of those functions is maximised by max-plus (bucket)
    elimination over A's settings (Dechter, Artif. Intell. 113, 41 (1999)),
    in blocks of ``_BLOCK`` settings, the last block first.  A block scores
    every assignment of its own settings and of the earlier ones that its
    functions and incoming messages read (its separator), in integer units of
    the weights' common denominator, and passes the best score for each
    separator assignment to the block of the separator's last setting.  A
    wing of at most ``_BLOCK`` settings is one block, which scores all 2^n_a
    strategies at once.  Fixing the blocks first to last, each to its first
    best assignment given the settings already fixed, gives the
    lexicographically first optimal A strategy (X_1 most significant); B bits
    then prefer 0.  In the ring and odd-cycle games each function reads at
    most three settings, so the work grows linearly with n.
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
    if n_a > MAX_N or n_b > MAX_N:
        raise ValueError(f"local bounds are limited to {MAX_N} settings per wing")
    # units[cell, x_a, x_b]: units of 1/denom won on (x_a, x_b); a cell that
    # wins nothing reads nothing.
    units = (payoff.weights[:, None] * payoff.wins).reshape(-1, 2, 2)
    live = units.any(axis=(1, 2))
    units, (a, b) = units[live], payoff.settings[live].T - 1
    # B setting b's function belongs to the block of the last A setting it
    # reads.  The cells go block by block, each block's B settings in turn.
    last = np.full(n_b, -1, dtype=np.int64)
    np.maximum.at(last, b, a)
    home = last[b] // _BLOCK
    order = np.lexsort((b, home))
    units, a, b, home = units[order], a[order], b[order], home[order]
    column = np.zeros(len(b), dtype=np.int64)  # the cell's B setting, counted over the blocks in turn
    np.cumsum(b[1:] != b[:-1], out=column[1:])
    n_blocks = -(-n_a // _BLOCK)
    ends = np.searchsorted(home, np.arange(n_blocks + 1)).tolist()
    # Per block: the messages (separator, best score per separator assignment)
    # sent to it, and (separator, own settings, best own assignment per
    # separator assignment) for fixing its settings.
    inbox: list[list] = [[] for _ in range(n_blocks)]
    choices: list = [None] * n_blocks
    for k in reversed(range(n_blocks)):
        own = range(k * _BLOCK, min(n_a, (k + 1) * _BLOCK))
        cells = slice(ends[k], ends[k + 1])
        sep = sorted(set(a[cells].tolist()).union(*(s for s, _ in inbox[k])).difference(own))
        scope = sep + list(own)  # increasing: the first setting is the most significant bit
        cols = column[cells] - column[cells][:1]
        width, n_cols = len(scope), int(cols.max(initial=-1)) + 1
        if (1 << width) * (2 * n_cols + 1) > MAX_LOCAL_TABLE:
            raise ValueError(f"local bounds are limited to elimination tables of {MAX_LOCAL_TABLE} entries; "
                             f"this payoff needs 2^{width} x {2 * n_cols + 1}")
        # won[i, x_a, j, x_b]: units won at scope setting i and the block's B setting j.
        won = np.zeros((width, 2, n_cols, 2), dtype=np.int64)
        np.add.at(won, (np.searchsorted(scope, a[cells]), slice(None), cols), units[cells])
        # score[r, j, y]: units won by answer y at B setting j under scope
        # assignment r, built by doubling from the last scope setting (bit 0).
        score = np.empty((1 << width, n_cols, 2), dtype=np.int64)
        score[0] = won[:, 0].sum(axis=0)
        for i, step in enumerate(won[::-1, 1] - won[::-1, 0]):
            np.add(score[:1 << i], step, out=score[1 << i:2 << i])
        table = np.maximum(score[..., 0], score[..., 1]).sum(axis=1)
        grid = table.reshape((2,) * width)
        for s, message in inbox[k]:
            grid += message.reshape([2 if x in s else 1 for x in scope])
        table = table.reshape(1 << len(sep), -1)
        choices[k] = sep, own, table.argmax(axis=1)
        if sep:
            inbox[sep[-1] // _BLOCK].append((sep, table.max(axis=1)))
    bits_a = [0] * n_a
    for sep, own, choice in choices:
        best = int(choice[sum(bits_a[x] << i for i, x in enumerate(reversed(sep)))])
        bits_a[own.start:own.stop] = map(int, format(best, f"0{len(own)}b"))
    won_b = np.zeros((n_b, 2), dtype=np.int64)
    np.add.at(won_b, b, units[np.arange(len(b)), np.array(bits_a, dtype=np.int64)[a]])
    value = Fraction(int(np.maximum(won_b[:, 0], won_b[:, 1]).sum()), payoff.denom)
    witness_b = tuple((won_b[:, 1] > won_b[:, 0]).astype(int).tolist())
    return LocalBoundResult(float(value), value, tuple(bits_a), witness_b)


def _require_n(n: Optional[int]) -> int:
    if n is None:
        raise ValueError("this game kind needs n")
    return n


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
_ENCODINGS = {"b": np.broadcast_to(_B, (3, 2)), **{f"c{k}": c_function(k, _T, _B) for k in (1, 2, 3)}}


@dataclass(frozen=True)
class PncBoundResult:
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
    for name, enc in _ENCODINGS.items():
        # score[s, y - 1, x]: units of 1/(2 denom) won by answering x to query
        # y in state s, the stored bit being uniform.
        score = np.zeros((2, 3, 2), dtype=np.int64)
        np.add.at(score, (enc[t - 1], (y - 1)[:, None]), units)
        per[name] = Fraction(int(score.max(axis=-1).sum()), 2 * payoff.denom)
        responses[name] = tuple(int(x) for x in (score[..., 1] > score[..., 0]).ravel())
    bound = max(per.values())
    return PncBoundResult(float(bound), bound, per, responses)


def pnc_response_table(encoding: str, response_probs: Sequence[float]):
    """Two-time statistics p(b, X | t, y) = p(X | e(t, b), y) / 2 of an encoding
    and a response map p(X = 1 | state, query) (index 3 state + query - 1), as
    a table over the n = 3 ring payoff's cells."""
    from .scenario import payoff_table  # scenario imports this module

    p1 = np.asarray(response_probs, dtype=float).reshape(2, 3)
    answers = np.stack([1 - p1, p1], axis=-1) / 2  # [state, y - 1, x]
    # dist[t - 1, y - 1, b, x] = answers[e(t, b), y - 1, x]
    dist = answers[_ENCODINGS[encoding][:, None, :], np.arange(3)[None, :, None]]
    payoff = os_ring_payoff(3)
    t, y = payoff.settings.T - 1
    return payoff_table(payoff, dist[t, y])


def pnc_stochastic_response_value(
    encoding: str, response_probs: Sequence[float]
) -> float:
    """Success rate of a stochastic response map p(X=1 | state, query).

    Used to spot-check that randomized responses never beat the deterministic
    optimum (the payoff is linear in the response probabilities).
    """
    return os_ring_payoff(3).value(pnc_response_table(encoding, response_probs))
