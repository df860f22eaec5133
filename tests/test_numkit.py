from unittest import mock

import numpy as np
import pytest

from seer_lab import numkit, quantum
from seer_lab.numkit import (
    PAULI_Z,
    eig_extrema,
    projector,
)


def test_inner_product_adjacent_star_polygon_rays():
    kets = quantum.star_polygon(5).kets
    for a in range(5):
        assert abs(np.vdot(kets[a], kets[(a + 1) % 5])) < 1e-12


def test_tensor_identities():
    # The two-wing lift puts wing A's factor first, varying slowest.
    abar, bbar = quantum._wing_lift([np.eye(2), PAULI_Z], [np.eye(2), PAULI_Z])
    assert np.array_equal(abar[0] @ bbar[0], np.eye(4))
    assert np.array_equal(abar[1], np.diag([1, 1, -1, -1]))
    assert np.array_equal(bbar[1], np.diag([1, -1, 1, -1]))


def test_tensor_on_bell_state():
    abar, bbar = quantum._wing_lift([PAULI_Z], [PAULI_Z])
    zz = abar[0] @ bbar[0]
    assert np.vdot(quantum.BELL_STATE, zz @ quantum.BELL_STATE).real == pytest.approx(1.0)


def test_eig_extrema_pauli_and_identity():
    lo, hi, vec = eig_extrema(PAULI_Z)
    assert (lo, hi) == (-1.0, 1.0)
    assert numkit.is_normalized(vec)
    lo, hi, _ = eig_extrema(np.eye(4))
    assert (lo, hi) == (1.0, 1.0)


def test_eig_extrema_rejects_non_hermitian_and_oversize():
    with pytest.raises(ValueError):
        eig_extrema(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        eig_extrema(np.eye(17))


def test_eig_extrema_phase_is_deterministic():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m = m + m.conj().T
    v1 = eig_extrema(m).max_eigvec
    v2 = eig_extrema(np.exp(0j) * m).max_eigvec
    assert np.allclose(v1, v2)
    pivot = np.argmax(np.abs(v1))
    assert v1[pivot].imag == pytest.approx(0, abs=1e-12)
    assert v1[pivot].real > 0


def test_eigenvalue_sandwich_over_random_states():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4, 8):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m + m.conj().T
        lo, hi, _ = eig_extrema(m)
        for _ in range(100):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            value = np.vdot(psi, m @ psi).real
            assert lo - 1e-9 <= value <= hi + 1e-9


def test_projector_idempotent_unit_trace():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    p = projector(psi)
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.trace(p).real == pytest.approx(1, abs=1e-10)


def test_hermitian_psd_unitary_predicates():
    assert numkit.is_hermitian(PAULI_Z)
    assert not numkit.is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert numkit.is_psd(projector(np.array([1, 0])))
    assert not numkit.is_psd(PAULI_Z)
    assert numkit.is_unitary(numkit.PAULI_X)


def test_eig_extrema_on_two_wing_ring_operator():
    from seer_lab.quantum import bell_ring_operator

    extrema = eig_extrema(bell_ring_operator(3))
    assert extrema.max_eigenvalue == pytest.approx(6.0, abs=1e-9)


def test_born_probability_clamps_noise():
    psi = np.array([1.0, 0.0])
    effect = np.diag([-1e-13, 1.0])
    assert numkit.born_probability(psi, effect) == 0.0


def test_pauli_dot_takes_a_stack_of_vectors():
    v = np.random.default_rng(8).normal(size=(4, 5, 3))
    stack = numkit.pauli_dot(v)
    assert stack.shape == (4, 5, 2, 2)
    for idx in np.ndindex(4, 5):
        x, y, z = v[idx]
        single = x * numkit.PAULI_X + y * numkit.PAULI_Y + z * numkit.PAULI_Z
        assert stack[idx].tobytes() == single.tobytes() == numkit.pauli_dot(v[idx]).tobytes()
    assert numkit.pauli_dot([1.0, 2.0, 3.0]).tolist() == [[3, 1 - 2j], [1 + 2j, -3]]
    for bad in (1.0, [1.0, 2.0], np.zeros((3, 2))):
        with pytest.raises(ValueError, match="3-vector"):
            numkit.pauli_dot(bad)


def test_stacked_projectors_equal_np_outer_bit_for_bit():
    rng = np.random.default_rng(17)
    kets = rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    stacks = [kets, np.array(quantum.star_polygon(51).kets), np.array(quantum.build_hardy(1.7).up_a)]
    for stack in stacks:
        projs = projector(stack)
        assert projs.shape == stack.shape + stack.shape[-1:]
        for idx in np.ndindex(stack.shape[:-1]):
            ket = stack[idx].astype(complex)
            assert projs[idx].tobytes() == np.outer(ket, ket.conj()).tobytes()
    bad = kets.copy()
    bad[2, 1] *= 1.001
    with pytest.raises(ValueError, match="normalized"):
        projector(bad)
    with pytest.raises(ValueError, match="nonempty"):
        projector(np.zeros((3, 0)))


def _table_images(n):
    """The (state, images) pairs that the ring, odd-cycle and Klyachko tables at n
    finish with born_overlap."""
    with mock.patch.object(quantum, "born_overlap", wraps=numkit.born_overlap) as finish:
        quantum.mermin_table(n), quantum.odd_cycle_table(n), quantum.klyachko_table(n)
    return [call.args for call in finish.call_args_list]


def test_born_overlap_of_a_stack_is_each_entry_alone():
    rng = np.random.default_rng(19)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    images = rng.normal(size=(6, 2, 4)) + 1j * rng.normal(size=(6, 2, 4))
    images[0, 0] = -1e-13 * psi  # noise below zero is clamped
    for state, stack in [(psi, images), *_table_images(1001)]:
        stacked = numkit.born_overlap(state, stack)
        assert stacked.shape == stack.shape[:-1]
        for idx in np.ndindex(stacked.shape):
            p = float(np.vdot(state, stack[idx]).real)
            expected = 0.0 if -1e-12 < p < 0 else p
            alone = numkit.born_overlap(state, stack[idx])
            assert type(alone) is float
            assert np.float64(alone).tobytes() == np.float64(expected).tobytes() == stacked[idx].tobytes()
    stacked = numkit.born_overlap(psi, images)
    assert stacked[0, 0] == 0.0 and not np.signbit(stacked[0, 0])
