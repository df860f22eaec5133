"""Classical bounds: optima over deterministic strategies.

Covers the noncontextual bound for anti-correlation cycles (in closed form),
Bell-local bounds for the two-wing prediction games and the
preparation-noncontextual bound for the two-time game (both by best
responses over a payoff's cells).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

# Largest per-wing setting count for local_bound, set from a 1 s / 0.5 GB
# budget: it holds a few int64 rows of n entries per A strategy.  Whole
# process on a 2-core host: n = 17 0.2 s / 100 MB, n = 19 0.8 s / 339 MB,
# n = 20 1.5 s / 679 MB, n = 21 3.4 s / 1.4 GB peak RSS.
MAX_LOCAL_SETTINGS = 19


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
    from .games import MAX_N  # games imports this module

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

    def _win_units(self) -> np.ndarray:
        """Units of 1/denom won at settings (a, b) on (x_a, x_b), as ``won[a - 1, x_a, b - 1, x_b]``."""
        a, b = self.settings.T - 1
        won = np.zeros((self.n_a, 2, self.n_b, 2), dtype=np.int64)
        np.add.at(won, (a, slice(None), b), (self.weights[:, None] * self.wins).reshape(-1, 2, 2))
        return won

    def operator(self, ops_a: Sequence[np.ndarray], ops_b: Sequence[np.ndarray]) -> np.ndarray:
        """Sum over cells of weight * sum over winning (x, y) of Pi_a^x (x) Pi_b^y,
        with Pi^x = (1 + (-1)^x O)/2 for the wing observable O at each setting
        (outcome 0 is eigenvalue +1); for +-1 observables its expectation in a
        state is the state's winning probability."""
        if len(ops_a) != self.n_a or len(ops_b) != self.n_b:
            raise ValueError(f"the payoff needs {self.n_a} and {self.n_b} wing observables")
        operands = self._win_units(), _outcome_projectors(ops_a), _outcome_projectors(ops_b)
        path = _operator_path(*(op.shape for op in operands))
        out = np.einsum(_OPERATOR_SUBSCRIPTS, *operands, optimize=path)
        return out.reshape(out.shape[0] * out.shape[1], -1) / self.denom


_OPERATOR_SUBSCRIPTS = "axby,axij,bykl->ikjl"


@functools.lru_cache(maxsize=32)
def _operator_path(*shapes: tuple[int, ...]) -> list:
    """The contraction order that np.einsum(optimize=True) searches for
    GamePayoff.operator's operands, which it picks from their shapes alone."""
    return np.einsum_path(_OPERATOR_SUBSCRIPTS, *(np.broadcast_to(0.0, shape) for shape in shapes),
                          optimize=True)[0]


def _outcome_projectors(ops: Sequence[np.ndarray]) -> np.ndarray:
    """(1 + O)/2 and (1 - O)/2 for each observable O, stacked as (settings, 2, d, d)."""
    ops = np.asarray(ops, dtype=complex)
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

    won, denom = payoff._win_units(), payoff.denom
    # score[x_b, x_a, a, b]: weight won at settings (a, b) on outcomes (x_a, x_b).
    score = won.transpose(3, 1, 0, 2)
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
    won, denom = payoff._win_units(), payoff.denom
    per: dict[str, Fraction] = {}
    responses: dict[str, tuple[int, ...]] = {}
    for name, enc in _ENCODINGS.items():
        # score[s, y - 1, x]: units of 1/(2 denom) won by answering x to query
        # y in state s, the stored bit being uniform.
        score = np.einsum("tbs,tbyx->syx", np.eye(2, dtype=np.int64)[enc], won)
        per[name] = Fraction(int(score.max(axis=-1).sum()), 2 * denom)
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
