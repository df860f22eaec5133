import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seer_lab import numkit
from seer_lab.povm import (
    PRESET_AXES,
    JointPOVM,
    NoisySpinSet,
    anticorrelation_value,
    eta_necessary,
    eta_sufficient,
    m_vectors,
    nc_bound_noisy,
    simulating_povm,
)

SQRT3 = math.sqrt(3)


def test_m_vectors_orthogonal_pair():
    ms = m_vectors("orthogonal2")
    assert all(np.linalg.norm(m) == pytest.approx(math.sqrt(2)) for m in ms.values())


def test_m_vectors_trine_triple():
    lengths = sorted(np.linalg.norm(m) for m in m_vectors("trine3").values())
    assert lengths[0] == pytest.approx(0, abs=1e-12)
    assert lengths[1] == pytest.approx(0, abs=1e-12)
    assert all(l == pytest.approx(2, abs=1e-12) for l in lengths[2:])


def test_m_vectors_single_axis():
    ms = m_vectors([(0.0, 0.0, 1.0)])
    assert sorted(np.linalg.norm(m) for m in ms.values()) == pytest.approx([1, 1])


def test_m_vectors_subset():
    ms = m_vectors("orthogonal3", subset=(0, 1))
    assert len(ms) == 4
    assert all(np.linalg.norm(m) == pytest.approx(math.sqrt(2)) for m in ms.values())


def test_thresholds_match_known_values():
    assert eta_necessary("orthogonal2") == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert eta_necessary("orthogonal3") == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert eta_sufficient("trine2") == pytest.approx(SQRT3 - 1, abs=1e-12)
    assert eta_necessary("trine3") == pytest.approx(2 / 3, abs=1e-12)
    assert eta_sufficient("trine3") == pytest.approx(2 / 3, abs=1e-12)
    assert eta_sufficient("orthogonal2") == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_threshold_single_axis_is_one():
    assert eta_necessary([(0.0, 0.0, 1.0)]) == pytest.approx(1.0)
    assert eta_sufficient([(0.0, 0.0, 1.0)]) == pytest.approx(1.0)


def test_pairwise_triplewise_gap_for_both_triples():
    for preset in ("orthogonal3", "trine3"):
        axes = PRESET_AXES[preset]
        pair = min(
            eta_sufficient([axes[j], axes[k]])
            for j, k in itertools.combinations(range(3), 2)
        )
        assert pair > eta_sufficient(preset) + 1e-6


def test_noisy_spin_set_effects():
    spins = NoisySpinSet(PRESET_AXES["trine3"], eta=0.6)
    spins.validate()
    plus = spins.effect(0, 1)
    assert numkit.is_psd(plus)
    assert np.trace(plus).real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        NoisySpinSet(PRESET_AXES["trine3"], eta=1.2)


def test_simulating_povm_orthogonal_pair_square():
    povm = simulating_povm("orthogonal2")
    assert povm.completeness_defect() < 1e-10
    assert povm.marginal_defect() < 1e-10
    for eff in povm.effects.values():
        assert np.trace(eff).real == pytest.approx(0.5, abs=1e-12)
        # Each effect is half a rank-one projector on a square vertex.
        proj = 2 * eff
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_simulating_povm_trine_pair_weights():
    povm = simulating_povm("trine2")
    w = {signs: povm.weight(signs) for signs in povm.effects}
    assert w[(1, 1)] == pytest.approx(1 / (SQRT3 + 1), abs=1e-12)
    assert w[(-1, -1)] == pytest.approx(1 / (SQRT3 + 1), abs=1e-12)
    assert w[(1, -1)] == pytest.approx(SQRT3 / (SQRT3 + 1), abs=1e-12)
    assert w[(-1, 1)] == pytest.approx(SQRT3 / (SQRT3 + 1), abs=1e-12)


def test_simulating_povm_trine_triple_hexagon():
    povm = simulating_povm("trine3")
    weights = {signs: povm.weight(signs) for signs in povm.effects}
    assert weights[(1, 1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert weights[(-1, -1, -1)] == pytest.approx(0.0, abs=1e-12)
    others = [w for signs, w in weights.items() if abs(sum(signs)) == 1]
    assert len(others) == 6
    assert all(w == pytest.approx(1 / 3, abs=1e-12) for w in others)


def test_simulating_povm_marginals_reproduce_noisy_spins():
    for preset in ("orthogonal2", "orthogonal3", "trine2", "trine3"):
        povm = simulating_povm(preset)
        spins = NoisySpinSet(PRESET_AXES[preset], eta_sufficient(preset))
        for k in range(len(spins.axes)):
            for sign in (1, -1):
                gap = np.max(np.abs(povm.marginal(k, sign) - spins.effect(k, sign)))
                assert gap < 1e-10


def test_anticorrelation_values():
    assert anticorrelation_value("orthogonal") == pytest.approx(0.5, abs=1e-12)
    assert anticorrelation_value("trine") == pytest.approx(SQRT3 / (SQRT3 + 1), abs=1e-12)
    assert anticorrelation_value("trine") == pytest.approx(0.63397, abs=5e-6)


def test_anticorrelation_coarse_graining_is_flat():
    povm = simulating_povm("trine2")
    anti = povm.effects[(1, -1)] + povm.effects[(-1, 1)]
    scale = SQRT3 / (SQRT3 + 1)
    assert np.max(np.abs(anti - scale * np.eye(2))) < 1e-12


def test_anticorrelation_state_independence():
    rng = np.random.default_rng(61)
    povm = simulating_povm("trine2")
    anti = povm.effects[(1, -1)] + povm.effects[(-1, 1)]
    values = []
    for _ in range(20):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        values.append(numkit.born_probability(psi, anti))
    assert np.var(values) < 1e-20


def test_nc_bound_values():
    assert nc_bound_noisy(1 / math.sqrt(2)) == pytest.approx(0.76430, abs=1e-5)
    assert nc_bound_noisy(SQRT3 - 1) == pytest.approx(0.75598, abs=1e-5)
    assert nc_bound_noisy(1.0, verify=False) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        nc_bound_noisy(1.5)


@settings(max_examples=200, deadline=None)
@given(eta=st.floats(0, 1), alpha_at=st.fractions(0, 1), delta_at=st.fractions(0, 1))
def test_nc_bound_is_the_exact_maximum(eta, alpha_at, delta_at):
    assert nc_bound_noisy(eta) == 1 - eta / 3
    # Any feasible decomposition scores at most the bound, in exact rationals.
    e = Fraction(eta)
    lo = max(Fraction(0), 2 * e - 1)
    alpha = lo + alpha_at * (e - lo)
    delta = delta_at * (1 - 2 * e + alpha)
    assert Fraction(2, 3) * alpha + 1 - e - delta <= 1 - e / 3


def test_quantum_anticorrelation_below_nc_bound():
    assert anticorrelation_value("orthogonal") < nc_bound_noisy(1 / math.sqrt(2), verify=False)
    assert anticorrelation_value("trine") < nc_bound_noisy(SQRT3 - 1, verify=False)


@st.composite
def random_axes(draw):
    n_axes = draw(st.integers(min_value=1, max_value=3))
    axes = []
    for _ in range(n_axes):
        raw = [
            draw(st.floats(-1, 1, allow_nan=False, allow_infinity=False))
            for _ in range(3)
        ]
        v = np.asarray(raw)
        norm = np.linalg.norm(v)
        if norm < 1e-3:
            v = np.array([0.0, 0.0, 1.0])
            norm = 1.0
        axes.append(tuple(v / norm))
    return axes


@settings(max_examples=40, deadline=None)
@given(random_axes())
def test_sufficient_never_exceeds_necessary(axes):
    assert eta_sufficient(axes) <= eta_necessary(axes) + 1e-12
    # For unit axes the two expressions coincide identically:
    # sum_X |m_X|^2 = 2^N * N, since cross terms cancel over sign tuples.
    assert abs(eta_sufficient(axes) - eta_necessary(axes)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(random_axes())
def test_simulating_povm_checks_pass_on_random_axes(axes):
    povm = simulating_povm(axes)
    assert povm.completeness_defect() < 1e-10
    assert povm.marginal_defect() < 1e-10


def test_joint_povm_weight_and_marginal_api():
    povm = simulating_povm("orthogonal2")
    assert isinstance(povm, JointPOVM)
    total = sum(povm.weight(s) for s in povm.effects)
    assert total == pytest.approx(2.0, abs=1e-12)  # trace of the identity


def test_m_vectors_rejects_empty_subset():
    with pytest.raises(ValueError):
        m_vectors("trine3", subset=())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_axes_rejected(bad):
    # abs(nan - 1) > tol is False, so a NaN axis would pass the unit-length test.
    for fn in (eta_necessary, eta_sufficient, simulating_povm):
        with pytest.raises(ValueError, match="non-finite"):
            fn([(0.0, 0.0, bad), (1.0, 0.0, 0.0)])


def test_non_unit_axes_rejected():
    with pytest.raises(ValueError):
        eta_necessary([(0.0, 0.0, 2.0)])
    with pytest.raises(ValueError):
        simulating_povm([(1.0, 1.0, 0.0)])
