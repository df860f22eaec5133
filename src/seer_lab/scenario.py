"""Measurement scenarios, correlation tables and joint-distribution feasibility.

A scenario is a set of binary measurements plus the contexts (subsets) that
can be measured jointly.  A correlation table attaches a probability
distribution over outcome tuples to every context.  The central question it
answers: does a single joint distribution over all measurements reproduce
every context's statistics as marginals?  That is a linear feasibility
problem over the 2^n deterministic atoms.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import classical, signet
from .tolerances import NUM_TOL, PROB_FLOOR, STRUCT_TOL

Context = tuple[int, ...]
Outcome = tuple[int, ...]

# Largest n for the 2^n-atom feasibility LP, set from a 2 GB peak-RSS budget.
# Measured on build_os_ncycle (2-core host, HiGHS via scipy 1.17): n=17 2.3 s
# and 0.46 GB, n=19 12.2 s and 1.6 GB; an infeasible 20-measurement pair
# table took 27 s and 3.3 GB.
MAX_JOINT_MEASUREMENTS = 19


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
        if self.n_measurements < 1:
            raise ValueError("need at least one measurement")
        canon = []
        seen = set()
        for ctx in self.contexts:
            ctx = tuple(sorted(int(i) for i in ctx))
            if not ctx:
                raise ValueError("contexts must be nonempty")
            if len(set(ctx)) != len(ctx):
                raise ValueError(f"repeated measurement in context {ctx}")
            if ctx[0] < 1 or ctx[-1] > self.n_measurements:
                raise ValueError(f"context {ctx} outside measurement range")
            if ctx in seen:
                raise ValueError(f"duplicate context {ctx}")
            seen.add(ctx)
            canon.append(ctx)
        object.__setattr__(self, "contexts", tuple(canon))
        if self.wing_split is not None and not 1 <= self.wing_split < self.n_measurements:
            raise ValueError("wing split must cut the measurement range in two")

    def is_bipartite(self) -> bool:
        if self.wing_split is None:
            return False
        k = self.wing_split
        return all(
            len(ctx) == 2 and ctx[0] <= k < ctx[1] for ctx in self.contexts
        )


def _in_order(context: Context, outcome: Outcome) -> tuple[Context, Outcome]:
    """The context's measurements in increasing order, each outcome bit moved
    along with its measurement."""
    return tuple(zip(*sorted(zip(context, outcome, strict=True))))


class CorrelationTable:
    """Per-context outcome distributions for a scenario.

    Absent contexts mean "no constraint".  Probabilities within PROB_FLOOR of
    zero are clamped; each context must be normalized within STRUCT_TOL.  A
    context may list its measurements in any order, the outcome bits in the
    same order; the table stores each context sorted.
    """

    def __init__(self, scenario: Scenario, probs: Mapping[Context, Mapping[Outcome, float]]):
        self.scenario = scenario
        clean: dict[Context, dict[Outcome, float]] = {}
        known = set(scenario.contexts)
        for given, dist in probs.items():
            ctx = tuple(sorted(given))
            if ctx not in known:
                raise ValueError(f"context {ctx} is not part of the scenario")
            total = 0.0
            table: dict[Outcome, float] = {}
            for outcome, p in dist.items():
                outcome = tuple(int(b) for b in outcome)
                if len(outcome) != len(ctx) or any(b not in (0, 1) for b in outcome):
                    raise ValueError(f"bad outcome {outcome} for context {ctx}")
                outcome = outcome if ctx == given else _in_order(given, outcome)[1]
                p = float(p)
                if not PROB_FLOOR <= p < math.inf:  # NaN fails every comparison
                    raise ValueError(f"negative or non-finite probability {p} at {ctx}/{outcome}")
                table[outcome] = max(p, 0.0)
                total += table[outcome]
            if abs(total - 1.0) > STRUCT_TOL:
                raise ValueError(f"context {ctx} is not normalized (sum={total!r})")
            clean[ctx] = table
        self.probs = clean

    def prob(self, context: Context, outcome: Outcome) -> float:
        dist = self.probs.get(tuple(context))  # the stored contexts are sorted
        if dist is None:
            context, outcome = _in_order(context, outcome)
            dist = self.probs[context]
        return dist.get(tuple(outcome), 0.0)

    def contexts_present(self) -> tuple[Context, ...]:
        return tuple(sorted(self.probs))

    def marginal(self, context: Context, measurement: int) -> dict[int, float]:
        """Distribution of one measurement's outcome inside a given context."""
        ctx = tuple(sorted(context))
        pos = ctx.index(measurement)
        out = {0: 0.0, 1: 0.0}
        for outcome, p in self.probs[ctx].items():
            out[outcome[pos]] += p
        return out

    # ---- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "n": self.scenario.n_measurements,
            "contexts": [list(c) for c in self.scenario.contexts],
            "probs": {
                ",".join(map(str, ctx)): {
                    "".join(map(str, outcome)): p for outcome, p in sorted(dist.items())
                }
                for ctx, dist in sorted(self.probs.items())
            },
        }
        if self.scenario.wing_split is not None:
            doc["wings"] = self.scenario.wing_split
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "CorrelationTable":
        scenario = Scenario(
            int(doc["n"]),
            tuple(tuple(c) for c in doc["contexts"]),
            doc.get("wings"),
        )
        probs = {
            tuple(int(t) for t in key.split(",")): {
                tuple(int(ch) for ch in bits): float(p) for bits, p in dist.items()
            }
            for key, dist in doc["probs"].items()
        }
        return cls(scenario, probs)

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


def cycle_scenario(n: int) -> Scenario:
    """n measurements whose contexts are the adjacent pairs (a, a + 1) of an
    n-cycle, (n, 1) closing it."""
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


def cycle_correlation_table(signs: Sequence[int]) -> CorrelationTable:
    """Perfectly correlated (+1) or anti-correlated (-1) adjacent pairs on a cycle."""
    scenario = cycle_scenario(len(signs))
    probs = {}
    for ctx, s in zip(scenario.contexts, signs):
        if s == signet.SOLID:
            probs[ctx] = {(0, 0): 0.5, (1, 1): 0.5}
        elif s == signet.DASHED:
            probs[ctx] = {(0, 1): 0.5, (1, 0): 0.5}
        else:
            raise ValueError(f"bad sign {s!r}")
    return CorrelationTable(scenario, probs)


def table_signed_graph(table: CorrelationTable) -> Optional[signet.SignedGraph]:
    """Signed graph of a table whose contexts are perfectly (anti)correlated pairs."""
    edges = []
    for ctx, dist in table.probs.items():
        if len(ctx) != 2:
            return None
        corr = dist.get((0, 0), 0.0) + dist.get((1, 1), 0.0)
        anti = dist.get((0, 1), 0.0) + dist.get((1, 0), 0.0)
        if abs(corr - 1.0) < STRUCT_TOL:
            edges.append((ctx[0], ctx[1], signet.SOLID))
        elif abs(anti - 1.0) < STRUCT_TOL:
            edges.append((ctx[0], ctx[1], signet.DASHED))
        else:
            return None
    return signet.SignedGraph(table.scenario.n_measurements, tuple(edges))


def deterministic_table(scenario: Scenario, assignment: Sequence[int]) -> CorrelationTable:
    """Point table induced by one deterministic valuation of all measurements."""
    bits = tuple(int(b) for b in assignment)
    if len(bits) != scenario.n_measurements or any(b not in (0, 1) for b in bits):
        raise ValueError("assignment must give one bit per measurement")
    probs = {
        ctx: {tuple(bits[i - 1] for i in ctx): 1.0} for ctx in scenario.contexts
    }
    return CorrelationTable(scenario, probs)


def payoff_scenario(payoff: classical.GamePayoff) -> Scenario:
    """Two-wing scenario whose contexts are the cells of a game payoff (one
    context for cells that share their settings)."""
    return Scenario(
        payoff.n_a + payoff.n_b,
        tuple(dict.fromkeys(payoff.context(cell) for cell in payoff.cells)),
        wing_split=payoff.n_a,
    )


def payoff_table(
    payoff: classical.GamePayoff,
    cell_dist: Callable[[classical.PayoffCell], Mapping[Outcome, float]],
) -> CorrelationTable:
    """Table over a payoff's cells, with ``cell_dist(cell)`` as each cell's
    outcome distribution."""
    probs = {payoff.context(cell): cell_dist(cell) for cell in payoff.cells}
    if len(probs) < len(payoff.cells):
        raise ValueError("a payoff table needs one cell per pair of settings")
    return CorrelationTable(payoff_scenario(payoff), probs)


def foil_table(payoff: classical.GamePayoff) -> CorrelationTable:
    """Each cell uniform over its winning outcomes, so the game is won with
    certainty."""
    return payoff_table(payoff, lambda cell: {xy: 1 / len(cell.wins) for xy in sorted(cell.wins)})


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
        corr = {(0, 0): 0.5, (1, 1): 0.5}
        anti = {(0, 1): 0.5, (1, 0): 0.5}
        contexts = ((1, 3), (1, 4), (2, 3), (2, 4))
        probs = {(1, 3): dict(corr), (1, 4): dict(corr), (2, 3): dict(anti), (2, 4): dict(corr)}
        scenario = Scenario(4, contexts, wing_split=2)
        return CorrelationTable(scenario, probs)
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
    k = scen.wing_split
    worst = 0.0
    offenders: list[tuple] = []
    present = table.contexts_present()
    for side, local in ((0, range(1, k + 1)), (1, range(k + 1, scen.n_measurements + 1))):
        for m in local:
            ctxs = [c for c in present if c[side] == m]
            margs = [table.marginal(c, m) for c in ctxs]
            for (c1, m1), (c2, m2) in itertools.combinations(zip(ctxs, margs), 2):
                gap = max(abs(m1[x] - m2[x]) for x in (0, 1))
                if gap > worst:
                    worst = gap
                if gap > STRUCT_TOL:
                    offenders.append((m, c1, c2, gap))
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

    One zero-cost linear program over nonnegative weights w of the 2^n atoms
    (atom i sets measurement m to bit m-1 of i): A w = b, with one row per
    context outcome and a normalisation row.  HiGHS status 0 is feasible, and
    the weights are re-checked against every marginal to NUM_TOL; status 2 is
    infeasible, and for tables of perfectly (anti)correlated pairs the
    offending odd cycle is the certificate.
    """
    from scipy import sparse

    n = table.scenario.n_measurements
    if n > MAX_JOINT_MEASUREMENTS:
        raise ValueError(f"atom count 2^{n} exceeds the supported limit 2^{MAX_JOINT_MEASUREMENTS}")
    atoms = np.arange(1 << n, dtype=np.int32)
    rows = []
    rhs = []
    for ctx, dist in sorted(table.probs.items()):
        # The atom's outcome on ctx, read as a binary number first
        # measurement first, indexes the context's block of rows.
        code = np.zeros_like(atoms)
        for m in ctx:
            code = (code << 1) | ((atoms >> (m - 1)) & 1)
        rows.append(len(rhs) + code)
        rhs.extend(dist.get(outcome, 0.0) for outcome in itertools.product((0, 1), repeat=len(ctx)))
    rows.append(np.full_like(atoms, len(rhs)))
    rhs.append(1.0)
    # Every column holds one 1 per row block, in increasing row order.
    indices = np.stack(rows, axis=1).ravel()
    indptr = np.arange(0, indices.size + 1, len(rows), dtype=np.int32)
    a_eq = sparse.csc_array((np.ones(indices.size), indices, indptr), shape=(len(rhs), atoms.size))
    b_eq = np.asarray(rhs)
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
        dist = {
            tuple(int(i >> j) & 1 for j in range(n)): float(res.x[i]) for i in support
        }
        return FeasibilityResult(True, JointDistribution(n, dist))
    if res.status != 2:
        raise RuntimeError(f"linear program failed: {res.message}")
    certificate = None
    graph = table_signed_graph(table)
    if graph is not None:
        report = signet.is_frustrated(graph)
        if report.frustrated:
            certificate = ("odd-parity cycle", report.witness)
    return FeasibilityResult(False, None, certificate)


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
    probs = {
        ctx: {(0, 1): float(qa), (1, 0): float(1 - qa)}
        for ctx, qa in zip(scenario.contexts, q)
    }
    return CorrelationTable(scenario, probs)
