"""Small functions only the tests call: the two-wing ring operator, whose top
eigenvalue bounds the ring-game value, a unit-norm test for one ket, and the
anti-correlation cycle derived from its forced pair statistics."""

import numpy as np

from seer_lab import quantum, scenario
from seer_lab.numkit import as_ket
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
