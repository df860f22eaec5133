"""Measurement scenarios, correlation tables and joint-distribution feasibility.

A scenario is a set of binary measurements plus the contexts (subsets) that
can be measured jointly.  A correlation table attaches a probability
distribution over outcome tuples to every context.  The central question it
answers: does a single joint distribution over all measurements reproduce
every context's statistics as marginals?  That is a linear feasibility
problem over the 2^n deterministic atoms; for perfectly (anti)correlated pairs
it is the balance of their signed graph.  Any other table is checked for
consistency first: two contexts must agree, in exact sums, on every marginal
they share.  A consistent table goes to nonnegative least squares on those
shared marginals, and each infeasible verdict comes with an integer Farkas
vector that scores every atom at most 0 and the table above 0 in exact
arithmetic; a residual too small for one leaves the table undecided, and
RuntimeError says so.  ``signet`` is imported where a signed graph is decided
or built, so building tables does not load it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import classical
from .tolerances import NUM_TOL, PROB_FLOOR, STRUCT_TOL

Context = tuple[int, ...]
Outcome = tuple[int, ...]

# Largest n for the 2^n-atom marginal problem, set from a 2 GB peak-RSS budget
# when HiGHS solved it; tables decided on their signed graph are not capped.
# It bounds the atoms, not the rows: _NNLS_BYTES bounds the matrix.
# Measured on tables without zero entries, which keep every atom (2-core
# host, scipy 1.17, one process each).  With HiGHS on the outcome rows:
# odd_cycle_table(9), 18 measurements, 3.9 s and 0.77 GB; klyachko_table(19)
# mixed with 10% white noise, 8.0 s and 1.54 GB.  With nnls on the
# shared-marginal rows: 2.4-3.2 s and 0.29 GB (infeasible, Farkas vector
# included), and 13-17 s and 0.48 GB (feasible).  An infeasible
# 20-measurement pair table took 27 s and 3.3 GB under HiGHS.  Enumerating
# only the allowed atoms does not lift the cap: a table without zero entries,
# like these, still gets a weight for every atom.
MAX_JOINT_MEASUREMENTS = 19

# Largest dense shared-marginal matrix, rows x allowed atoms in float64, that
# the marginal problem builds.  nnls holds one copy of it besides, so a solve
# at the limit needs about 2 GB.  Pair tables stay far below it:
# klyachko_table(19), 39 rows by 2^19 atoms, needs 0.16 GB.  One fully
# supported context of 14 measurements would need 2.1 GB.
_NNLS_BYTES = 1 << 30

# Context lists whose layout is kept, and cycle scenarios kept.  A sweep over
# sign patterns builds hundreds of tables over a handful of context lists.
_CACHE_SIZE = 32


@dataclass(frozen=True)
class Scenario:
    """n binary measurements (labelled 1..n) and the jointly measurable subsets.

    ``wing_split = k`` marks a bipartite scenario: measurements 1..k sit on
    wing A and k+1..n on wing B.
    """

    n_measurements: int
    contexts: tuple[Context, ...]
    wing_split: Optional[int] = None

    def __post_init__(self):
        n = self.n_measurements
        if n < 1:
            raise ValueError("need at least one measurement")
        canon = tuple(tuple(sorted(map(int, ctx))) for ctx in self.contexts)
        # Each context's first position: a context found elsewhere is a duplicate.
        first = dict(zip(reversed(canon), range(len(canon) - 1, -1, -1)))
        faulty = [i for ctx, i in first.items()
                  if not (ctx and 0 < ctx[0] and ctx[-1] <= n and len(set(ctx)) == len(ctx))]
        if faulty or len(first) < len(canon):
            raise ValueError(_context_error(canon, first, min(faulty, default=len(canon))))
        object.__setattr__(self, "contexts", canon)
        if self.wing_split is not None and not 1 <= self.wing_split < self.n_measurements:
            raise ValueError("wing split must cut the measurement range in two")

    def is_bipartite(self) -> bool:
        if self.wing_split is None:
            return False
        k = self.wing_split
        return all(
            len(ctx) == 2 and ctx[0] <= k < ctx[1] for ctx in self.contexts
        )


def _context_error(canon: tuple[Context, ...], first: dict[Context, int], faulty: int) -> str:
    """The complaint about the first context, in order, that is empty, repeats a
    measurement, leaves 1..n or repeats an earlier context; the earliest faulty
    context is at ``faulty`` unless a duplicate comes first."""
    dup = next((i for i, ctx in enumerate(canon) if first[ctx] != i), len(canon))
    if dup < faulty:
        return f"duplicate context {canon[dup]}"
    ctx = canon[faulty]
    if not ctx:
        return "contexts must be nonempty"
    if len(set(ctx)) != len(ctx):
        return f"repeated measurement in context {ctx}"
    return f"context {ctx} outside measurement range"


def _in_order(context: Context, outcome: Outcome) -> tuple[Context, Outcome]:
    """The context's measurements in increasing order, each outcome bit moved
    along with its measurement."""
    return tuple(zip(*sorted(zip(context, outcome, strict=True))))


class _Layout(NamedTuple):
    """Where the blocks of a context list sit in a table vector, shared read-only
    by every table over that list."""

    contexts: tuple[Context, ...]  # sorted
    start: dict[Context, int]  # each block's first entry; no caller mutates it
    offsets: np.ndarray  # the block starts in sorted order
    index: np.ndarray  # the entry of the listed vector at each entry of the sorted one


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _layout(contexts: tuple[Context, ...]) -> _Layout:
    """The layout of contexts listed in this order; a list that names one context
    twice gets a start map with fewer keys than contexts."""
    order = sorted(range(len(contexts)), key=contexts.__getitem__)
    in_order = tuple(contexts[i] for i in order)
    sizes = np.array([1 << len(ctx) for ctx in contexts], dtype=np.int64)
    ends = np.cumsum(sizes)
    sizes = sizes[order]
    offsets = np.cumsum(sizes) - sizes
    index = np.repeat(ends[order] - sizes - offsets, sizes) + np.arange(sizes.sum())
    offsets.flags.writeable = index.flags.writeable = False
    return _Layout(in_order, dict(zip(in_order, offsets.tolist())), offsets, index)


def _index(outcome: Outcome) -> int:
    """Position of an outcome in its context's block, the first bit most significant."""
    if not all(b in (0, 1) for b in outcome):
        raise ValueError(f"outcome bits must be 0 or 1, got {tuple(outcome)}")
    return int("".join(str(int(b)) for b in outcome), 2)


class CorrelationTable:
    """Per-context outcome distributions for a scenario.

    Absent contexts mean "no constraint".  ``contexts`` holds the present
    contexts in sorted order and ``vector`` their distributions: each
    context's 2^|ctx| outcome probabilities in turn, the first measurement the
    most significant bit of the outcome's index.  That is the right-hand side
    of the marginal LP without its normalisation row.  Probabilities within
    PROB_FLOOR of zero are clamped; each context must be normalized within
    STRUCT_TOL.
    """

    def __init__(self, scenario: Scenario, probs: Mapping[Context, Mapping[Outcome, float]]):
        """A table from {context: {outcome: p}}, outcome bits in the order the context lists them."""
        contexts, rows = [], [np.zeros(0)]
        for given, dist in probs.items():
            contexts.append(tuple(sorted(given)))
            if len(given) > MAX_JOINT_MEASUREMENTS:
                raise ValueError(f"context {contexts[-1]} exceeds {MAX_JOINT_MEASUREMENTS} measurements")
            rows.append(np.zeros(1 << len(given)))
            for outcome, p in dist.items():
                rows[-1][_index(_in_order(given, outcome)[1])] = float(p)
        self._store(scenario, tuple(contexts), np.concatenate(rows))

    @classmethod
    def from_vector(cls, scenario: Scenario, contexts: Sequence[Context], vector) -> "CorrelationTable":
        """A table from sorted contexts and their outcome rows, or the vector the rows ravel to."""
        table = cls.__new__(cls)
        table._store(scenario, tuple(contexts), np.asarray(vector, dtype=float).ravel())
        return table

    def _store(self, scenario: Scenario, contexts: tuple[Context, ...], vector: np.ndarray) -> None:
        """Sort the contexts with their blocks, then check and clamp a copy of the vector."""
        self.scenario = scenario
        layout = _layout(contexts)
        self.contexts, self._start, offsets = layout.contexts, layout.start, layout.offsets
        if vector.size != layout.index.size:
            raise ValueError(f"the contexts need {layout.index.size} probabilities, got {vector.size}")
        if len(self._start) < len(contexts):
            raise ValueError("two keys name one context")
        # The scenario's own context tuple, which every builder passes, holds
        # only its contexts.
        if contexts is not scenario.contexts:
            unknown = self._start.keys() - set(scenario.contexts)
            if unknown:
                raise ValueError(f"context {min(unknown)} is not part of the scenario")
        vector = vector[layout.index]
        top = vector.max(initial=0.0)
        # NaN fails both tests.
        if not (vector.min(initial=0.0) >= PROB_FLOOR and top < math.inf):
            bad = np.flatnonzero(~((vector >= PROB_FLOOR) & (vector < math.inf)))[0]
            ctx = self.contexts[np.searchsorted(offsets, bad, side="right") - 1]
            raise ValueError(f"negative or non-finite probability {vector[bad]} in context {ctx}")
        vector[vector < 0.0] = 0.0
        if top > 2.0:  # a total may overflow to inf, which is not normalized either
            with np.errstate(over="ignore"):
                totals = np.add.reduceat(vector, offsets)
        else:
            totals = np.add.reduceat(vector, offsets) if vector.size else vector
        off = np.flatnonzero(np.abs(totals - 1.0) > STRUCT_TOL)
        if off.size:
            raise ValueError(f"context {self.contexts[off[0]]} is not normalized (sum={totals[off[0]]})")
        vector.flags.writeable = False
        self.vector = vector

    def rows(self, contexts) -> np.ndarray:
        """The outcome probabilities of present contexts of one size, each sorted, one row each;
        the contexts come as tuples or as an int array of one context per row."""
        if isinstance(contexts, np.ndarray):
            contexts = list(map(tuple, contexts.tolist()))
        if len({len(ctx) for ctx in contexts}) > 1:
            raise ValueError("rows need contexts of one size")
        starts = np.array([self._start[ctx] for ctx in contexts], dtype=np.int64)
        return self.vector[starts[:, None] + np.arange(1 << len(contexts[0]) if contexts else 0)]

    def prob(self, context: Context, outcome: Outcome) -> float:
        """p(outcome | context); the outcome bits follow the context's measurement order."""
        context, outcome = _in_order(context, outcome)
        return float(self.vector[self._start[context] + _index(outcome)])

    @property
    def probs(self) -> dict[Context, dict[Outcome, float]]:
        """The table as context -> {outcome: p}, nonzero outcomes only."""
        values = iter(self.vector.tolist())
        outcomes = (itertools.product((0, 1), repeat=len(ctx)) for ctx in self.contexts)
        return {c: {o: p for o, p in zip(each, values) if p} for c, each in zip(self.contexts, outcomes)}

    def marginal(self, context: Context, measurement: int) -> dict[int, float]:
        """Distribution of one measurement's outcome inside a given context."""
        ctx = tuple(sorted(context))
        row, shift = self.rows([ctx])[0], len(ctx) - 1 - ctx.index(measurement)
        return {x: float(row[np.arange(row.size) >> shift & 1 == x].sum()) for x in (0, 1)}

    # ---- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "n": self.scenario.n_measurements,
            "contexts": [list(c) for c in self.scenario.contexts],
            "probs": {
                ",".join(map(str, ctx)): {"".join(map(str, outcome)): p for outcome, p in dist.items()}
                for ctx, dist in self.probs.items()
            },
        }
        if self.scenario.wing_split is not None:
            doc["wings"] = self.scenario.wing_split
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "CorrelationTable":
        """A table from its JSON document; any malformed document raises ValueError."""
        from .signet import _json_int

        if not isinstance(doc, Mapping) or not {"n", "contexts", "probs"} <= doc.keys():
            raise ValueError('a table document is an object with "n", "contexts" and "probs"')
        contexts, wings = doc["contexts"], doc.get("wings")
        if not isinstance(contexts, list) or not all(isinstance(c, list) for c in contexts):
            raise ValueError('"contexts" must be a list of lists of measurements')
        scenario = Scenario(
            _json_int(doc["n"], "n"),
            tuple(tuple(_json_int(i, "context index") for i in c) for c in contexts),
            None if wings is None else _json_int(wings, "wings"),
        )
        probs = doc["probs"]
        if not isinstance(probs, Mapping) or not all(isinstance(d, Mapping) for d in probs.values()):
            raise ValueError('"probs" must map each context to an object of outcome probabilities')
        bad = [p for dist in probs.values() for p in dist.values() if type(p) not in (int, float)]
        if bad:
            raise ValueError(f"probabilities must be JSON numbers, got {bad[0]!r}")
        # An integer probability is 0 or 1; any other would fail later, or overflow float().
        bad = [p for dist in probs.values() for p in dist.values() if type(p) is int and p not in (0, 1)]
        if bad:
            raise ValueError(f"probability {bad[0]} is outside [0, 1]")
        table = {
            tuple(int(t) for t in key.split(",")): {tuple(map(int, xs)): p for xs, p in dist.items()}
            for key, dist in probs.items()
        }
        if len(table) < len(probs):
            raise ValueError("two keys name one context")
        return cls(scenario, table)

    @classmethod
    def from_json(cls, text: str) -> "CorrelationTable":
        return cls.from_json_dict(json.loads(text))


@dataclass
class JointDistribution:
    """Weights over the 2^n deterministic valuations (atoms are bit tuples)."""

    n_measurements: int
    atoms: dict[Outcome, float]

    def __post_init__(self):
        total = sum(self.atoms.values())
        if not abs(total - 1.0) <= NUM_TOL:  # a NaN weight makes the sum NaN
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        if any(w < -1e-12 for w in self.atoms.values()):
            raise ValueError("negative atom weight")

    def context_marginal(self, context: Context) -> dict[Outcome, float]:
        ctx = tuple(sorted(context))
        out: dict[Outcome, float] = {}
        for atom, w in self.atoms.items():
            key = tuple(atom[i - 1] for i in ctx)
            out[key] = out.get(key, 0.0) + w
        return out


# --------------------------------------------------------------------------
# Builders


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def cycle_scenario(n: int) -> Scenario:
    """n measurements whose contexts are the adjacent pairs (a, a + 1) of an
    n-cycle, (n, 1) closing it; built once per n and shared, as a Scenario is
    frozen."""
    return Scenario(n, tuple((a, a % n + 1) for a in range(1, n + 1)))


def build_os_ncycle(n: int) -> CorrelationTable:
    """Perfect anti-correlation with uniform marginals on every adjacent pair.

    Contexts are the adjacent pairs of an n-cycle; each assigns probability
    1/2 to the outcomes (0,1) and (1,0).  Requires odd n >= 3: for even n an
    alternating valuation satisfies every pair, so nothing is ruled out.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("the anti-correlation cycle needs odd n >= 3")
    return cycle_correlation_table((-1,) * n)


# Outcome rows (00, 01, 10, 11) of a perfectly correlated and an anti-correlated pair.
_CORRELATED = (0.5, 0.0, 0.0, 0.5)
_ANTICORRELATED = (0.0, 0.5, 0.5, 0.0)
# The balanced candidate's row of a dashed (0) and a solid (1) pair.
_CANDIDATE_ROWS = np.array([_ANTICORRELATED, _CORRELATED])


def cycle_correlation_table(signs: Sequence[int]) -> CorrelationTable:
    """Perfectly correlated (+1, ``signet.SOLID``) or anti-correlated (-1,
    ``signet.DASHED``) adjacent pairs on a cycle."""
    scenario = cycle_scenario(len(signs))
    bad = [s for s in signs if s not in (1, -1)]
    if bad:
        raise ValueError(f"bad sign {bad[0]!r}")
    rows = [_CORRELATED if s == 1 else _ANTICORRELATED for s in signs]
    return CorrelationTable.from_vector(scenario, scenario.contexts, rows)


def _signed_pairs(table: CorrelationTable) -> Optional[tuple[np.ndarray, list[tuple[int, int, int]]]]:
    """For a table whose present contexts are all perfectly (anti)correlated
    pairs, which of them are solid (perfectly correlated), and their signed
    edges (a, b, sign) in context order; None for any other table."""
    if any(len(ctx) != 2 for ctx in table.contexts):
        return None
    rows = table.vector.reshape(-1, 4)
    # Columns p(00) + p(11) and p(01) + p(10): solid where the first is 1, dashed where the second is.
    perfect = np.abs(rows[:, :2] + rows[:, :1:-1] - 1.0) < STRUCT_TOL
    solid = perfect[:, 0]
    if not (solid | perfect[:, 1]).all():
        return None
    from .signet import DASHED, SOLID

    return solid, [(a, b, SOLID if s else DASHED) for (a, b), s in zip(table.contexts, solid.tolist())]


def table_signed_graph(table: CorrelationTable):
    """Signed graph of a table whose contexts are perfectly (anti)correlated
    pairs, a ``signet.SignedGraph``; None for any other table."""
    pairs = _signed_pairs(table)
    if pairs is None:
        return None
    from . import signet

    return signet.SignedGraph(table.scenario.n_measurements, tuple(pairs[1]))


def deterministic_table(scenario: Scenario, assignment: Sequence[int]) -> CorrelationTable:
    """Point table induced by one deterministic valuation of all measurements."""
    bits = tuple(int(b) for b in assignment)
    if len(bits) != scenario.n_measurements or any(b not in (0, 1) for b in bits):
        raise ValueError("assignment must give one bit per measurement")
    sizes = np.array([1 << len(ctx) for ctx in scenario.contexts], dtype=np.int64)
    codes = np.array([_index([bits[i - 1] for i in ctx]) for ctx in scenario.contexts], dtype=np.int64)
    vector = np.zeros(sizes.sum())
    vector[np.cumsum(sizes) - sizes + codes] = 1
    return CorrelationTable.from_vector(scenario, scenario.contexts, vector)


def payoff_scenario(payoff: classical.GamePayoff) -> Scenario:
    """Two-wing scenario whose contexts are the cells of a game payoff, in cell
    order (one context for cells that share their settings)."""
    contexts = dict.fromkeys(map(tuple, payoff.contexts.tolist()))
    return Scenario(payoff.n_a + payoff.n_b, tuple(contexts), wing_split=payoff.n_a)


def payoff_table(payoff: classical.GamePayoff, rows) -> CorrelationTable:
    """Table over a payoff's cells, row i of ``rows`` (cells x 4, or cells x
    2 x 2) being cell i's distribution over outcomes (x_A, x_B)."""
    scenario = payoff_scenario(payoff)
    if len(scenario.contexts) < len(payoff.wins):
        raise ValueError("a payoff table needs one cell per pair of settings")
    # With one context per cell, the scenario lists them in cell order.
    return CorrelationTable.from_vector(scenario, scenario.contexts, rows)


def foil_table(payoff: classical.GamePayoff) -> CorrelationTable:
    """Each cell uniform over its winning outcomes, so the game is won with
    certainty."""
    return payoff_table(payoff, payoff.wins / payoff.wins.sum(axis=1, keepdims=True))


def build_bipartite_table(kind: str, n: Optional[int] = None) -> CorrelationTable:
    """Two-wing foil correlation tables.

    ``nonlocal_os_3``: all nine setting pairs, perfectly correlated on the
    diagonal and anti-correlated off it.  ``nonlocal_os_n``: the n-ring
    version constraining only b=a (correlated) and adjacent settings
    (anti-correlated); other cells are absent, i.e. unconstrained.
    ``pr_box``: two settings per wing with A1=B1, A1=B2, A2=B1^1, A2=B2.
    """
    if kind == "nonlocal_os_3":
        return build_bipartite_table("nonlocal_os_n", 3)
    if kind == "nonlocal_os_n":
        if n is None or n < 3 or n % 2 == 0:
            raise ValueError("nonlocal_os_n needs odd n >= 3")
        return foil_table(classical.os_ring_payoff(n))
    if kind == "pr_box":
        # Settings: A1, A2 are measurements 1, 2; B1, B2 are 3, 4.
        scenario = Scenario(4, ((1, 3), (1, 4), (2, 3), (2, 4)), wing_split=2)
        return CorrelationTable.from_vector(
            scenario, scenario.contexts, [_CORRELATED, _CORRELATED, _ANTICORRELATED, _CORRELATED]
        )
    raise ValueError(f"unknown bipartite table kind {kind!r}")


# --------------------------------------------------------------------------
# Shared marginals


class _Subsets(NamedTuple):
    """Every nonempty subset S of every present context, once per context that
    names it, sorted by S and then by context."""

    members: np.ndarray  # S's measurements in decreasing order, 0s after them, one row each
    contexts: np.ndarray  # the naming context's position in table.contexts
    cells: np.ndarray  # the table entry of that context's outcome reading 1 on S alone
    values: np.ndarray  # P(every measurement of S reads 1) in that context, in float64
    first: np.ndarray  # True at the first context naming each S


def _blocks(table: CorrelationTable) -> dict[int, tuple[list[int], np.ndarray]]:
    """The present contexts of each size: their positions in table.contexts
    and the table entries of their blocks, one block per row."""
    by_size: dict[int, list[int]] = {}
    for i, ctx in enumerate(table.contexts):
        by_size.setdefault(len(ctx), []).append(i)
    starts = [table._start[ctx] for ctx in table.contexts]
    return {size: (index, np.array([starts[i] for i in index])[:, None] + np.arange(1 << size))
            for size, index in by_size.items()}


def _bit_sums(rows: np.ndarray, into: int) -> np.ndarray:
    """Each row's entry M replaced, in place, by the sum of its entries at the
    indices whose bits include M's (``into`` 0) or lie within M's (``into`` 1)."""
    bit = 1
    while bit < rows.shape[1]:
        view = rows.reshape(rows.shape[0], -1, 2, bit)
        view[:, :, into] += view[:, :, 1 - into]
        bit <<= 1
    return rows


def _subsets(table: CorrelationTable) -> _Subsets:
    """The subsets of the present contexts and their marginals, one
    superset-sum pass over the blocks of each size.  The rows of members sort
    as the sets' bitmasks would (the largest measurement first, a missing one
    below any present one), at any measurement label."""
    width = max(map(len, table.contexts), default=0)
    parts = [(np.zeros((0, width), dtype=np.int64),) + (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
    for size, (index, entries) in _blocks(table).items():
        sums = _bit_sums(table.vector[entries], 0)
        # Bit j of an outcome index is measurement ctx[size - 1 - j], so the
        # set bits of a local index, lowest first, list S in decreasing order.
        local = np.arange(1, 1 << size)
        picked = (local[:, None] >> np.arange(size)) & 1 == 1
        order = np.argsort(~picked, axis=1, kind="stable")
        chosen = np.array([table.contexts[i] for i in index], dtype=np.int64)[:, ::-1][:, order]
        chosen[:, np.arange(size) >= picked.sum(axis=1, keepdims=True)] = 0
        members = np.pad(chosen.reshape(-1, size), ((0, 0), (0, width - size)))
        parts.append((members, np.repeat(index, local.size), entries[:, 1:].ravel(), sums[:, 1:].ravel()))
    members, contexts, cells, values = map(np.concatenate, zip(*parts))
    order = np.lexsort((contexts, *members.T[::-1]))
    members = members[order]
    first = np.ones(len(members), dtype=bool)
    first[1:] = (members[1:] != members[:-1]).any(axis=1)
    return _Subsets(members, contexts[order], cells[order], values[order], first)


def _reading_ones(table: CorrelationTable, context: int, cell: int) -> np.ndarray:
    """The entries of a present context's block whose outcome reads 1 wherever
    the outcome at entry ``cell`` of that block does."""
    start = table._start[table.contexts[context]]
    index, local = np.arange(1 << len(table.contexts[context])), cell - start
    return start + index[(index & local) == local]


def _spreads(subsets: _Subsets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each distinct set's run of naming contexts starts and ends in
    ``subsets``, and how far its float marginals spread."""
    starts = np.flatnonzero(subsets.first)
    ends = np.append(starts[1:], subsets.contexts.size)
    if not starts.size:
        return starts, ends, np.zeros(0)
    return starts, ends, np.maximum.reduceat(subsets.values, starts) - np.minimum.reduceat(subsets.values, starts)


def _disagreements(table: CorrelationTable, subsets: _Subsets, screen: float):
    """Each set that two or more present contexts name and whose float
    marginals spread by more than ``screen``: its measurements in decreasing
    order, the positions in ``subsets`` of the contexts naming it, and their
    marginals as exact ``Fraction`` sums of the table's floats.  A float
    marginal sums at most 2^19 entries in [0, 1] along at most 19 additions, so
    it is within 1e-14 of the exact one, and a screen of half a tolerance
    misses no exact gap above the tolerance."""
    starts, ends, spread = _spreads(subsets)
    for g in np.flatnonzero((ends - starts > 1) & (spread > screen)).tolist():
        at = range(starts[g], ends[g])
        exact = [
            sum(map(Fraction, table.vector[_reading_ones(table, subsets.contexts[j], subsets.cells[j])].tolist()),
                Fraction(0))
            for j in at
        ]
        yield tuple(m for m in subsets.members[starts[g]].tolist() if m), at, exact


# --------------------------------------------------------------------------
# No-signaling


@dataclass
class NoSignalingReport:
    max_violation: float
    offenders: list[tuple] = field(default_factory=list)

    def passed(self) -> bool:
        return self.max_violation <= STRUCT_TOL


def check_no_signaling(table: CorrelationTable) -> NoSignalingReport:
    """Largest shift of a wing marginal under a remote setting change.

    These are the consistency gaps of ``_lp_feasible``'s first step: two
    contexts of a bipartite table share at most one measurement m, and their
    gap is P(m reads 1) in one minus the other.  ``max_violation`` is the
    largest gap in float sums, within 1e-14 of the exact one.  The offenders
    are (m, context, context, gap) for each pair of contexts, in context
    order, whose gap summed exactly passes STRUCT_TOL."""
    if not table.scenario.is_bipartite():
        raise ValueError("no-signaling check requires a bipartite table")
    subsets = _subsets(table)
    offenders = []
    for shared, at, exact in _disagreements(table, subsets, STRUCT_TOL / 2):
        named = [table.contexts[subsets.contexts[j]] for j in at]
        for (ctx, p), (other, q) in itertools.combinations(zip(named, exact), 2):
            if abs(p - q) > STRUCT_TOL:
                offenders.append((*shared, ctx, other, float(abs(p - q))))
    return NoSignalingReport(float(_spreads(subsets)[2].max(initial=0.0)), offenders)


# --------------------------------------------------------------------------
# Joint-distribution feasibility (nonnegative least squares over atom weights)


def nnls(*args, **kwargs):
    """``scipy.optimize.nnls``, imported on the first marginal-problem solve
    so that importing the package does not load scipy."""
    from scipy import optimize

    return optimize.nnls(*args, **kwargs)


@dataclass
class FeasibilityResult:
    """A verdict on the marginal problem.  ``certificate`` is None for a
    feasible table.  An infeasible one carries ("odd-parity cycle", cycle) from
    its signed graph, or ("farkas", y) from ``_lp_feasible``: integers y, one
    per table entry and one for normalisation, that score every atom at most 0
    and the table above 0, both in exact arithmetic.  It is None only when the
    table's zeros admit no atom or a single one, which is decided without a
    solve."""

    feasible: bool
    distribution: Optional[JointDistribution]
    certificate: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.feasible


def joint_distribution_feasible(table: CorrelationTable) -> FeasibilityResult:
    """Search for a joint distribution reproducing every context marginal.

    A table whose present contexts are all perfectly (anti)correlated pairs
    is decided on its signed graph first, at any n: one solid/dashed mask over
    its rows gives the edges, and ``signet.two_coloring`` runs on them.  A
    frustrated graph is infeasible, with the odd cycle as the certificate:
    every atom breaks an edge of that cycle, whose wrong-sign mass in the
    table is below STRUCT_TOL.  A balanced graph's valuation x gives the
    candidate 1/2 (x + not x), which is the answer when it reproduces every
    row to NUM_TOL.  Every other table, and a balanced one whose rows the
    candidate misses (non-uniform marginals), goes to ``_lp_feasible``: an
    exact consistency check, then nonnegative least squares on the shared
    marginals, whose infeasible verdicts carry an exact Farkas vector and
    which raises RuntimeError where the residual is too small to certify, and
    ValueError past MAX_JOINT_MEASUREMENTS.  It loads scipy on its first
    solve; a table that is inconsistent, or whose zeros admit no atom or only
    one, is decided without one.
    """
    pairs = _signed_pairs(table)
    if pairs is not None:
        from .signet import two_coloring

        solid, edges = pairs
        report = two_coloring(edges)
        if report.frustrated:
            return FeasibilityResult(False, None, ("odd-parity cycle", report.witness))
        # x satisfies every edge, so 1/2 (x + not x) gives each pair half its
        # sign's two outcomes: (1/2, 0, 0, 1/2) solid, (0, 1/2, 1/2, 0) dashed.
        candidate = _CANDIDATE_ROWS.take(solid, axis=0)
        if np.abs(candidate - table.vector.reshape(-1, 4)).max(initial=0.0) <= NUM_TOL:
            n = table.scenario.n_measurements
            x = tuple(report.valuation.get(m, 0) for m in range(1, n + 1))
            atoms = {x: 0.5, tuple(1 - bit for bit in x): 0.5}
            return FeasibilityResult(True, JointDistribution(n, atoms))
    # No signed graph, or a balanced one: an infeasible verdict has no odd cycle.
    return _lp_feasible(table)


def _bits(atoms: np.ndarray, n: int) -> np.ndarray:
    """Bit m-1 of each atom in row m-1, for measurements 1..n."""
    return (atoms >> np.arange(n, dtype=np.int32)[:, None]) & 1


def _rows(bits: np.ndarray, ctx: Context, start: int) -> np.ndarray:
    """Each atom's row in the context's block: its outcome on ctx, read as a
    binary number first measurement first, after the block's start."""
    code = bits[ctx[0] - 1]
    for m in ctx[1:]:
        code = (code << 1) | bits[m - 1]
    return start + code


def _allowed_atoms(table: CorrelationTable) -> np.ndarray:
    """The atoms whose outcome on every present context has nonzero
    probability, each measurement that no present context names at 0,
    increasing, as int32 (atom i sets measurement m to bit m-1 of i).

    Assignments to the named measurements grow by one measurement at a time,
    in increasing order, and one is dropped as soon as a context it completes
    meets an exact zero (-0.0 is zero, 1e-16 is not).  The extensions setting
    measurement m to 1 follow those setting it to 0, which keeps the order
    increasing.  An unnamed measurement's bit changes no row of A w = b, so
    setting it to 1 as well would only repeat every column."""
    closing: dict[int, list[tuple[Context, int]]] = {}
    for ctx, start in table._start.items():
        closing.setdefault(ctx[-1], []).append((ctx, start))
    atoms = np.zeros(1, dtype=np.int32)
    for m in sorted({m for ctx in table._start for m in ctx}):
        atoms = np.concatenate([atoms, atoms | (1 << (m - 1))])
        if m in closing:
            bits = _bits(atoms, m)
            atoms = atoms[np.logical_and.reduce([table.vector[_rows(bits, *each)] != 0 for each in closing[m]])]
    return atoms


def _column_rows(table: CorrelationTable, bits: np.ndarray) -> np.ndarray:
    """The rows of the 1s in each atom's column of A, one atom per row (its
    bits a column of ``bits``): one per context block, in increasing row
    order, then the normalisation row."""
    rows = [_rows(bits, ctx, start) for ctx, start in table._start.items()]
    rows.append(np.full(bits.shape[1], table.vector.size, dtype=np.int32))
    return np.stack(rows, axis=1)


def _valuation(atom: int, n: int) -> Outcome:
    return tuple(atom >> j & 1 for j in range(n))


def _lp_feasible(table: CorrelationTable) -> FeasibilityResult:
    """The marginal problem over the allowed atoms, every infeasible verdict
    past the shortcuts proved in exact arithmetic.

    The unknowns are nonnegative weights w of the atoms (atom i sets
    measurement m to bit m-1 of i), and the table asks A w = b, one row per
    context outcome and a normalisation row.  Only the atoms whose outcome on
    every present context has nonzero probability and that set each
    measurement no present context names to 0 get a weight
    (``_allowed_atoms``): where b_r = 0, every atom with a 1 in row r has
    weight 0 in every solution, and an unnamed measurement's bit changes no
    row.  A table whose zeros admit no atom is infeasible.  With one atom
    left, the normalisation row forces its weight to 1: the table is
    feasible, with that atom alone, iff the atom's column matches every row to
    NUM_TOL.  Neither shortcut solves anything or carries a certificate.

    With two or more atoms:

    1. Consistency.  Two present contexts that name a set S must agree on
       P(every measurement of S reads 1).  Where the largest gap, in exact
       ``Fraction`` sums, passes NUM_TOL, the table is infeasible: y is +1 on
       the higher context's entries that read 1 on all of S and -1 on the
       lower one's, so every atom scores exactly 0 and b.y is the gap.
    2. Rows.  One row per distinct nonempty subset S of a present context,
       "every measurement of S reads 1", valued from the first context naming
       it, and the normalisation row, as a dense float64 0/1 matrix over the
       allowed atoms.  A pair table gets (named measurements + contexts + 1)
       rows instead of (4 contexts + 1).
    3. Solve.  ``nnls`` (Lawson-Hanson) on those rows.  The table is feasible
       iff the weights reproduce every row of A w = b to NUM_TOL; every atom of
       positive weight is in the distribution.
    4. Certificate.  Otherwise the NNLS residual r scores no allowed atom
       above 0, to rounding, and b.r = |r|^2.  Each subset's residual goes
       onto its source context's entries that read 1 on all of the subset;
       the vector is scaled so that sum |y| fits an int64 and rounded, the
       normalisation entry lowered by the largest score of an allowed atom,
       and every entry where b is exactly 0 set to -sum |y|, which scores
       every atom at most 0 in exact integers.  The table is infeasible, with
       ("farkas", y), iff b.y > 0 exactly.  If not, the residual is too small
       to tell from rounding and RuntimeError names it: the undecided band,
       3e-9 to 3e-8 outside the boundary of mermin_table(3) and (5) and
       klyachko_table(5) and (7) mixed with white noise.

    A scenario of more than MAX_JOINT_MEASUREMENTS measurements raises
    ValueError, and so does a consistent table whose matrix in step 2 would
    pass _NNLS_BYTES.  The solve's time grows with the support: Lawson-Hanson
    adds about one atom per iteration, so a fully supported context of 10
    measurements takes about a second and one of 11 about ten (2-core host).
    """
    n = table.scenario.n_measurements
    if n > MAX_JOINT_MEASUREMENTS:
        raise ValueError(f"atom count 2^{n} exceeds the supported limit 2^{MAX_JOINT_MEASUREMENTS}")
    atoms = _allowed_atoms(table)
    if not atoms.size:
        return FeasibilityResult(False, None)
    b = np.append(table.vector, 1.0)
    bits = _bits(atoms, n)
    codes = _column_rows(table, bits)
    if atoms.size == 1:
        column = np.zeros(b.size)
        column[codes] = 1.0
        if np.abs(column - b).max() > NUM_TOL:
            return FeasibilityResult(False, None)
        return FeasibilityResult(True, JointDistribution(n, {_valuation(int(atoms[0]), n): 1.0}))
    subsets = _subsets(table)
    certificate = _consistency_certificate(table, subsets)
    if certificate is not None:
        return FeasibilityResult(False, None, certificate)
    source = np.flatnonzero(subsets.first)
    if (source.size + 1) * atoms.size * 8 > _NNLS_BYTES:
        raise ValueError(f"the shared-marginal matrix, {source.size + 1} rows by {atoms.size} atoms, "
                         f"exceeds the supported {_NNLS_BYTES >> 20} MB")
    a, shared = _shared_rows(subsets, source, bits)
    w, norm = nnls(a, shared)
    fit = np.bincount(codes.ravel(), weights=np.repeat(w, codes.shape[1]), minlength=b.size)
    off = float(np.abs(fit - b).max())
    if off <= NUM_TOL:
        support = np.flatnonzero(w > 0)
        dist = {_valuation(i, n): float(w[k]) for k, i in zip(support.tolist(), atoms[support].tolist())}
        return FeasibilityResult(True, JointDistribution(n, dist))
    certificate = _residual_certificate(table, subsets, source, shared - a @ w, codes)
    if certificate is None:
        raise RuntimeError(
            f"marginal problem undecided: the least-squares weights miss the table by {off:.3e}, "
            f"and their residual (norm {norm:.3e}) is no Farkas vector"
        )
    return FeasibilityResult(False, None, certificate)


def _consistency_certificate(table: CorrelationTable, subsets: _Subsets) -> Optional[tuple]:
    """Step 1 of ``_lp_feasible``: the certificate of the first shared set whose
    exact marginals spread by more than NUM_TOL, or None."""
    for _, at, exact in _disagreements(table, subsets, NUM_TOL / 2):
        if max(exact) - min(exact) > NUM_TOL:
            y = np.zeros(table.vector.size + 1, dtype=np.int64)
            for extreme, sign in ((max, 1), (min, -1)):
                j = at[exact.index(extreme(exact))]
                y[_reading_ones(table, subsets.contexts[j], subsets.cells[j])] = sign
            return "farkas", tuple(y.tolist())
    return None


def _shared_rows(subsets: _Subsets, source: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step 2 of ``_lp_feasible``: A over the atoms whose bits are the columns
    of ``bits``, and b, for the subsets whose first naming context sits at
    ``source``."""
    a = np.empty((source.size + 1, bits.shape[1]))
    row: dict[tuple[int, ...], int] = {}
    for r, members in enumerate(map(tuple, subsets.members[source].tolist())):
        top, rest = members[0], members[1:] + (0,)
        # S less its largest measurement is a smaller subset of the same context, so an earlier row.
        if rest[0]:
            np.multiply(a[row[rest]], bits[top - 1], out=a[r])
        else:
            a[r] = bits[top - 1]
        row[members] = r
    a[-1] = 1.0
    return a, np.append(subsets.values[source], 1.0)


def _residual_certificate(table: CorrelationTable, subsets: _Subsets, source: np.ndarray,
                          residual: np.ndarray, codes: np.ndarray) -> Optional[tuple]:
    """Step 4 of ``_lp_feasible``: the certificate from the residual of the
    shared rows, or None.  ``codes`` holds each allowed atom's table entries
    and the normalisation entry, one atom per row."""
    b = np.append(table.vector, 1.0)
    # Each subset's residual at the entry reading 1 on it alone, spread by a
    # subset-sum pass over every entry that reads 1 on all of it.
    y = np.zeros(b.size)
    y[subsets.cells[source]] = residual[:-1]
    for _, entries in _blocks(table).values():
        y[entries] = _bit_sums(y[entries], 1)
    y[-1] = residual[-1]
    top = np.abs(y).max()
    # |y| <= 2^K after scaling, so sum |y| stays below 2^62 once the
    # normalisation entry has moved by at most one atom's score.
    y = np.rint(y * (math.ldexp(1.0, 61 - b.size.bit_length()) / top if top else 0.0)).astype(np.int64)
    zero = b == 0.0
    y[zero] = 0
    y[-1] -= y[codes].sum(axis=1).max()
    y[zero] = -np.abs(y).sum()
    score = sum((Fraction(p) * k for p, k in zip(b.tolist(), y.tolist()) if k), Fraction(0))
    return ("farkas", tuple(y.tolist())) if score > 0 else None
