"""Measurement scenarios, correlation tables and joint-distribution feasibility.

A scenario is a set of binary measurements plus the contexts (subsets) that
can be measured jointly.  A correlation table attaches a probability
distribution over outcome tuples to every context.  The central question it
answers: does a single joint distribution over all measurements reproduce
every context's statistics as marginals?  That is a linear feasibility
problem over the 2^n deterministic atoms; for perfectly (anti)correlated pairs
it is the balance of their signed graph.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import classical, signet
from .tolerances import NUM_TOL, PROB_FLOOR, STRUCT_TOL

Context = tuple[int, ...]
Outcome = tuple[int, ...]

# Largest n for the 2^n-atom feasibility LP, set from a 2 GB peak-RSS budget.
# Measured on tables without zero entries, whose LP keeps every atom column
# (2-core host, HiGHS via scipy 1.17): odd_cycle_table(9), 18 measurements,
# 4.7 s and 0.80 GB (3.7-5.1 s and 0.77 GB with the allowed atoms enumerated
# directly, 3.6-5.1 s and 0.80 GB before, alternating runs); klyachko_table(19)
# mixed with 10% white noise, 11.8 s and 1.59 GB.  An infeasible
# 20-measurement pair table took 27 s and 3.3 GB.
# Enumerating only the allowed atoms does not lift the cap: a table without
# zero entries, like these, still gets a column for every atom.
MAX_JOINT_MEASUREMENTS = 19

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
        unknown = self._start.keys() - set(scenario.contexts)
        if unknown:
            raise ValueError(f"context {min(unknown)} is not part of the scenario")
        vector = vector[layout.index]
        # NaN fails both tests.
        if not (vector.min(initial=0.0) >= PROB_FLOOR and vector.max(initial=0.0) < math.inf):
            bad = np.flatnonzero(~((vector >= PROB_FLOOR) & (vector < math.inf)))[0]
            ctx = self.contexts[np.searchsorted(offsets, bad, side="right") - 1]
            raise ValueError(f"negative or non-finite probability {vector[bad]} in context {ctx}")
        vector[vector < 0.0] = 0.0
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
        wings = doc.get("wings")
        scenario = Scenario(
            signet._json_int(doc["n"], "n"),
            tuple(tuple(signet._json_int(i, "context index") for i in c) for c in doc["contexts"]),
            None if wings is None else signet._json_int(wings, "wings"),
        )
        probs = doc["probs"]
        if not isinstance(probs, Mapping) or not all(isinstance(d, Mapping) for d in probs.values()):
            raise ValueError('"probs" must map each context to an object of outcome probabilities')
        bad = [p for dist in probs.values() for p in dist.values() if type(p) not in (int, float)]
        if bad:
            raise ValueError(f"probabilities must be JSON numbers, got {bad[0]!r}")
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
    return cycle_correlation_table((signet.DASHED,) * n)


# Outcome rows (00, 01, 10, 11) of a perfectly correlated and an anti-correlated pair.
_CORRELATED = (0.5, 0.0, 0.0, 0.5)
_ANTICORRELATED = (0.0, 0.5, 0.5, 0.0)


def cycle_correlation_table(signs: Sequence[int]) -> CorrelationTable:
    """Perfectly correlated (+1) or anti-correlated (-1) adjacent pairs on a cycle."""
    scenario = cycle_scenario(len(signs))
    bad = [s for s in signs if s not in (signet.SOLID, signet.DASHED)]
    if bad:
        raise ValueError(f"bad sign {bad[0]!r}")
    rows = [_CORRELATED if s == signet.SOLID else _ANTICORRELATED for s in signs]
    return CorrelationTable.from_vector(scenario, scenario.contexts, rows)


def table_signed_graph(table: CorrelationTable) -> Optional[signet.SignedGraph]:
    """Signed graph of a table whose contexts are perfectly (anti)correlated pairs."""
    if any(len(ctx) != 2 for ctx in table.contexts):
        return None
    rows = table.vector.reshape(-1, 4)
    solid = np.abs(rows[:, 0] + rows[:, 3] - 1.0) < STRUCT_TOL
    dashed = np.abs(rows[:, 1] + rows[:, 2] - 1.0) < STRUCT_TOL
    if not (solid | dashed).all():
        return None
    signs = np.where(solid, signet.SOLID, signet.DASHED).tolist()
    edges = tuple((a, b, sign) for (a, b), sign in zip(table.contexts, signs))
    return signet.SignedGraph(table.scenario.n_measurements, edges)


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
# No-signaling


@dataclass
class NoSignalingReport:
    max_violation: float
    offenders: list[tuple] = field(default_factory=list)

    def passed(self, tol: float = STRUCT_TOL) -> bool:
        return self.max_violation <= tol


def check_no_signaling(table: CorrelationTable) -> NoSignalingReport:
    """Largest L-infinity shift of a wing marginal under a remote setting change."""
    scen = table.scenario
    if not scen.is_bipartite():
        raise ValueError("no-signaling check requires a bipartite table")
    worst, offenders = 0.0, []
    rows = table.rows(table.contexts).reshape(-1, 2, 2)  # [context, x_A, x_B]
    ends = np.array(table.contexts, dtype=int).reshape(-1, 2)
    for side in (0, 1):
        margs = rows.sum(axis=2 - side)  # the marginal of each context's wing-`side` measurement
        high = np.full((scen.n_measurements + 1, 2), -1.0)
        low = np.full_like(high, 2.0)
        np.maximum.at(high, ends[:, side], margs)
        np.minimum.at(low, ends[:, side], margs)
        gaps = np.maximum(high - low, 0.0).max(axis=1)  # 0 for a measurement in no context
        worst = max(worst, float(gaps.max()))
        for m in np.flatnonzero(gaps > STRUCT_TOL).tolist():
            for i, j in itertools.combinations(np.flatnonzero(ends[:, side] == m).tolist(), 2):
                gap = float(np.abs(margs[i] - margs[j]).max())
                if gap > STRUCT_TOL:
                    offenders.append((m, table.contexts[i], table.contexts[j], gap))
    return NoSignalingReport(worst, offenders)


# --------------------------------------------------------------------------
# Joint-distribution feasibility (linear program over atom weights)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first marginal-problem LP
    so that importing the package does not load scipy."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


@dataclass
class FeasibilityResult:
    feasible: bool
    distribution: Optional[JointDistribution]
    certificate: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.feasible


def joint_distribution_feasible(table: CorrelationTable) -> FeasibilityResult:
    """Search for a joint distribution reproducing every context marginal.

    A table of perfectly (anti)correlated pairs is decided on its signed graph
    first.  A frustrated graph is infeasible, with the odd cycle as the
    certificate: every atom breaks an edge of that cycle, whose wrong-sign
    mass in the table is below STRUCT_TOL.  A balanced graph's valuation x
    gives the candidate 1/2 (x + not x), which is the answer when it
    reproduces every row to NUM_TOL.  Every other table, and a balanced one
    whose rows the candidate misses (non-uniform marginals), goes to the
    linear program over the atoms that give every present context an outcome
    of nonzero probability.  It loads scipy on its first solve; a table whose
    zeros admit no atom, or only one, is decided without one.
    """
    n = table.scenario.n_measurements
    if n > MAX_JOINT_MEASUREMENTS:
        raise ValueError(f"atom count 2^{n} exceeds the supported limit 2^{MAX_JOINT_MEASUREMENTS}")
    graph = table_signed_graph(table)
    if graph is not None:
        report = signet.is_frustrated(graph)
        if report.frustrated:
            return FeasibilityResult(False, None, ("odd-parity cycle", report.witness))
        # x satisfies every edge, so 1/2 (x + not x) gives each pair half its
        # sign's two outcomes: (1/2, 0, 0, 1/2) solid, (0, 1/2, 1/2, 0) dashed.
        dashed = np.array([sign == signet.DASHED for _, _, sign in graph.edges], dtype=bool)
        candidate = np.where(dashed[:, None], [0, 0.5, 0.5, 0], [0.5, 0, 0, 0.5])
        if np.abs(candidate.ravel() - table.vector).max(initial=0.0) <= NUM_TOL:
            x = report.valuation
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
    probability, increasing, as int32 (atom i sets measurement m to bit m-1 of i).

    Assignments to measurements 1..m grow by one measurement at a time, and one
    is dropped as soon as a context it completes meets an exact zero (-0.0 is
    zero, 1e-16 is not).  The extensions setting measurement m to 1 follow
    those setting it to 0, which keeps the order increasing."""
    closing: dict[int, list[tuple[Context, int]]] = {}
    for ctx, start in table._start.items():
        closing.setdefault(ctx[-1], []).append((ctx, start))
    atoms = np.zeros(1, dtype=np.int32)
    for m in range(1, table.scenario.n_measurements + 1):
        atoms = np.concatenate([atoms, atoms | (1 << (m - 1))])
        if m in closing:
            bits = _bits(atoms, m)
            atoms = atoms[np.logical_and.reduce([table.vector[_rows(bits, *each)] != 0 for each in closing[m]])]
    return atoms


def _column_rows(table: CorrelationTable, atoms: np.ndarray) -> np.ndarray:
    """The rows of the 1s in each atom's column of A, column after column: one
    per context block, in increasing row order, then the normalisation row."""
    bits = _bits(atoms, table.scenario.n_measurements)
    rows = [_rows(bits, ctx, start) for ctx, start in table._start.items()]
    rows.append(np.full(atoms.size, table.vector.size, dtype=np.int32))
    return np.stack(rows, axis=1).ravel()


def _valuation(atom: int, n: int) -> Outcome:
    return tuple(atom >> j & 1 for j in range(n))


def _lp_feasible(table: CorrelationTable) -> FeasibilityResult:
    """The marginal problem as one linear program, whatever the table.

    One zero-cost LP over nonnegative weights w of the atoms (atom i sets
    measurement m to bit m-1 of i): A w = b, with one row per context outcome
    and a normalisation row.  An atom gets a column only when its outcome on
    every present context has nonzero probability (``_allowed_atoms``): where
    b_r = 0, every atom with a 1 in row r has weight 0 in every solution.
    Every row stays.  A table whose zeros admit no atom is infeasible without a
    solve.  With one atom left, the normalisation row forces its weight to 1:
    the table is feasible, with that atom alone, iff the atom's column matches
    every row to NUM_TOL, again without a solve.  Otherwise HiGHS status 0 is
    feasible, and the weights are re-checked against every row to NUM_TOL;
    status 2 is infeasible.  Infeasible verdicts carry no certificate.  The
    caller bounds n.
    """
    n = table.scenario.n_measurements
    atoms = _allowed_atoms(table)
    if not atoms.size:
        return FeasibilityResult(False, None)
    b_eq = np.append(table.vector, 1.0)
    indices = _column_rows(table, atoms)
    if atoms.size == 1:
        column = np.zeros(b_eq.size)
        column[indices] = 1.0
        if np.abs(column - b_eq).max() > NUM_TOL:
            return FeasibilityResult(False, None)
        return FeasibilityResult(True, JointDistribution(n, {_valuation(int(atoms[0]), n): 1.0}))
    from scipy import sparse

    indptr = np.arange(0, indices.size + 1, len(table._start) + 1, dtype=np.int32)
    a_eq = sparse.csc_array((np.ones(indices.size), indices, indptr), shape=(b_eq.size, atoms.size))
    # HiGHS presolve costs these LPs more time than it saves.
    res = linprog(np.zeros(atoms.size), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"presolve": False})
    if res.status == 0:
        residual = float(np.max(np.abs(a_eq @ res.x - b_eq)))
        if residual > NUM_TOL:
            raise RuntimeError(
                f"solver reported feasibility but marginals are off by {residual:.3e}"
            )
        support = np.flatnonzero(res.x > 1e-15)
        dist = {_valuation(i, n): float(res.x[k]) for k, i in zip(support.tolist(), atoms[support].tolist())}
        return FeasibilityResult(True, JointDistribution(n, dist))
    if res.status != 2:
        raise RuntimeError(f"linear program failed: {res.message}")
    return FeasibilityResult(False, None)


# --------------------------------------------------------------------------
# Forced form of the anti-correlation statistics


def solve_anticorrelation_constraints(n: int = 3) -> CorrelationTable:
    """Derive the unique pair statistics compatible with perfect anti-correlation.

    Writing p(0,1) = q_a on the cycle context (a, a+1), consistency of the
    single-measurement marginals forces q_a + q_{a+1} = 1 around the cycle;
    for odd n the unique solution is q_a = 1/2 everywhere.  The resulting
    table equals build_os_ncycle(n).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("the elimination applies to odd n >= 3")
    # q_a + q_{a+1} = 1 as a circulant linear system (I + shift) q = 1.
    system = np.eye(n) + np.roll(np.eye(n), -1, axis=1)
    q = np.linalg.solve(system, np.ones(n))
    if np.max(np.abs(q - 0.5)) > STRUCT_TOL:
        raise AssertionError("elimination did not force q = 1/2")
    scenario = cycle_scenario(n)
    rows = np.stack([np.zeros(n), q, 1 - q, np.zeros(n)], axis=1)
    return CorrelationTable.from_vector(scenario, scenario.contexts, rows)
