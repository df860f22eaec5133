"""Small functions only the tests call: the two-wing ring operator, whose top
eigenvalue bounds the ring-game value, a unit-norm test for one ket, the
anti-correlation cycle derived from its forced pair statistics, the complex128
route of the Born tables that their real arithmetic must equal bit for bit,
brute-force checks of the marginal problem's Farkas vectors and context
consistency, and arbitrary JSON documents for the loaders."""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from seer_lab import classical, quantum, scenario
from seer_lab.numkit import as_ket, born_overlap
from seer_lab.tolerances import STRUCT_TOL


def bell_ring_operator(n: int) -> np.ndarray:
    """The two-wing operator whose spectrum bounds the ring-game value."""
    ops = quantum.ring_observables(n)
    return quantum._ring_correlator(ops, ops)


def is_normalized(ket) -> bool:
    ket = as_ket(ket)
    return abs(np.vdot(ket, ket).real - 1.0) < STRUCT_TOL and abs(np.vdot(ket, ket).imag) < STRUCT_TOL


def solve_anticorrelation_constraints(n: int = 3) -> scenario.CorrelationTable:
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
    cycle = scenario.cycle_scenario(n)
    rows = np.stack([np.zeros(n), q, 1 - q, np.zeros(n)], axis=1)
    return scenario.CorrelationTable.from_vector(cycle, cycle.contexts, rows)


# The Born tables in complex128 throughout: the oracle that their float64
# route must equal bit for bit.


def complex_outcome_projectors(ops) -> np.ndarray:
    """classical._outcome_projectors on complex operands."""
    ops = np.asarray(ops, dtype=complex)
    eye = np.eye(ops.shape[-1])
    return np.stack([(eye + ops) / 2, (eye - ops) / 2], axis=1)


def complex_wing_lift(ops_a, ops_b) -> tuple[np.ndarray, np.ndarray]:
    """quantum._wing_lift on complex operands."""
    ops_a, ops_b = np.asarray(ops_a, dtype=complex), np.asarray(ops_b, dtype=complex)
    da, db = ops_a.shape[-1], ops_b.shape[-1]
    abar = ops_a[..., :, None, :, None] * np.eye(db, dtype=complex)[:, None, :]
    bbar = np.eye(da, dtype=complex)[:, None, :, None] * ops_b[..., None, :, None, :]
    return abar.reshape(*abar.shape[:-4], da * db, -1), bbar.reshape(*bbar.shape[:-4], da * db, -1)


def complex_joint_born(state, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """quantum._joint_born on a complex state and complex effects."""
    psi = np.asarray(state, dtype=complex)
    products = first[:, :, None] @ second[:, None, :]
    return born_overlap(psi, products @ psi)


def complex_born_table(payoff, ops_a, ops_b) -> scenario.CorrelationTable:
    """quantum._born_table in complex128."""
    eff_a, eff_b = complex_wing_lift(complex_outcome_projectors(ops_a), complex_outcome_projectors(ops_b))
    a, b = payoff.settings.T - 1
    return scenario.payoff_table(payoff, complex_joint_born(quantum.BELL_STATE, eff_a[a], eff_b[b]))


def complex_klyachko_table(n: int) -> scenario.CorrelationTable:
    """quantum.klyachko_table in complex128."""
    poly = quantum.star_polygon(n)
    kets = poly.kets.astype(complex)
    projs = kets[:, :, None] * kets.conj()[:, None, :]
    effects = np.stack([np.eye(3) - projs, projs], axis=1)
    scen = scenario.cycle_scenario(n)
    first, second = (effects[[ctx[i] - 1 for ctx in scen.contexts]] for i in (0, 1))
    p = complex_joint_born(quantum.symmetry_axis_state(poly), first, second)
    return scenario.CorrelationTable.from_vector(scen, scen.contexts, np.where(p > 1e-15, p, 0.0))


def complex_tables(n: int) -> dict[str, scenario.CorrelationTable]:
    """The ring, odd-cycle and star-polygon tables at n by the complex route."""
    ring = quantum.ring_observables(n)
    return {
        "mermin": complex_born_table(classical.os_ring_payoff(n), ring, ring),
        "odd_cycle": complex_born_table(classical.odd_cycle_payoff(n), *quantum.odd_cycle_observables(n)),
        "klyachko": complex_klyachko_table(n),
    }


# The marginal problem checked by brute force, in exact arithmetic.


def assert_farkas(table: scenario.CorrelationTable, certificate) -> None:
    """``certificate`` is ("farkas", y) with one int per table entry and one for
    normalisation, every one of the 2^n atoms scores at most 0 on y (its
    entry in each present context plus the normalisation entry), and the
    table scores above 0 (b.y with b the table's floats and 1), all in exact
    arithmetic: so no nonnegative weights of the atoms reproduce the table."""
    kind, y = certificate
    assert kind == "farkas" and len(y) == table.vector.size + 1 and all(type(v) is int for v in y)
    n = table.scenario.n_measurements
    assert n <= 12, "2^n atoms are scored one by one"
    atoms = np.arange(1 << n)
    entries = np.array(y, dtype=object)
    scores = np.full(atoms.size, y[-1], dtype=object)
    for ctx, start in table._start.items():
        code = np.zeros_like(atoms)
        for m in ctx:
            code = (code << 1) | ((atoms >> (m - 1)) & 1)
        scores = scores + entries[start + code]
    assert max(scores) <= 0
    assert sum(Fraction(p) * v for p, v in zip(table.vector.tolist(), y)) + y[-1] > 0


def max_consistency_gap(table: scenario.CorrelationTable) -> Fraction:
    """The largest |P(every measurement of S reads 1)| difference between two
    present contexts over the nonempty sets S they share, as exact sums."""
    def marginal(ctx, shared):
        rows = itertools.product((0, 1), repeat=len(ctx))
        return sum((Fraction(table.prob(ctx, o)) for o in rows if all(o[ctx.index(m)] for m in shared)), Fraction(0))

    gap = Fraction(0)
    for first, second in itertools.combinations(table.contexts, 2):
        common = sorted(set(first) & set(second))
        for size in range(1, len(common) + 1):
            for shared in itertools.combinations(common, size):
                gap = max(gap, abs(marginal(first, shared) - marginal(second, shared)))
    return gap


# Arbitrary JSON documents, for the loaders that must refuse malformed input
# with ValueError (the CLI's usage error).
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["+", "-", "solid", "dashed", 0, 1, -1, 1.0])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
