"""Small functions only the tests call: the two-wing ring operator, whose top
eigenvalue bounds the ring-game value, and a unit-norm test for one ket."""

import numpy as np

from seer_lab import quantum
from seer_lab.numkit import as_ket
from seer_lab.tolerances import STRUCT_TOL


def bell_ring_operator(n: int) -> np.ndarray:
    """The two-wing operator whose spectrum bounds the ring-game value."""
    ops = quantum.ring_observables(n)
    return quantum._ring_correlator(ops, ops)


def is_normalized(ket) -> bool:
    ket = as_ket(ket)
    return abs(np.vdot(ket, ket).real - 1.0) < STRUCT_TOL and abs(np.vdot(ket, ket).imag) < STRUCT_TOL
