import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_povm
from seer_lab import numkit
from seer_lab.povm import (
    MAX_AXES,
    PRESET_AXES,
    JointPOVM,
    anticorrelation_value,
    eta_necessary,
    eta_sufficient,
    m_vectors,
    nc_bound_noisy,
    simulating_povm,
)

SQRT3 = math.sqrt(3)


def weights(povm: JointPOVM) -> dict:
    """Trace of each effect, keyed by its sign tuple."""
    traces = np.trace(povm.effects, axis1=1, axis2=2).real
    return dict(zip(map(tuple, povm.signs.tolist()), traces.tolist()))


def test_m_vectors_orthogonal_pair():
    signs, ms = m_vectors("orthogonal2")
    assert signs.tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    assert all(np.linalg.norm(m) == pytest.approx(math.sqrt(2)) for m in ms)


def test_m_vectors_trine_triple():
    lengths = sorted(np.linalg.norm(m) for m in m_vectors("trine3")[1])
    assert lengths[0] == pytest.approx(0, abs=1e-12)
    assert lengths[1] == pytest.approx(0, abs=1e-12)
    assert all(l == pytest.approx(2, abs=1e-12) for l in lengths[2:])


def test_m_vectors_single_axis():
    signs, ms = m_vectors([(0.0, 0.0, 1.0)])
    assert signs.tolist() == [[1], [-1]]
    assert ms.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]


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


def test_simulating_povm_orthogonal_pair_square():
    povm = simulating_povm("orthogonal2")
    assert povm.completeness_defect() < 1e-10
    assert povm.marginal_defect() < 1e-10
    for eff in povm.effects:
        assert np.trace(eff).real == pytest.approx(0.5, abs=1e-12)
        # Each effect is half a rank-one projector on a square vertex.
        proj = 2 * eff
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_simulating_povm_trine_pair_weights():
    w = weights(simulating_povm("trine2"))
    assert w[(1, 1)] == pytest.approx(1 / (SQRT3 + 1), abs=1e-12)
    assert w[(-1, -1)] == pytest.approx(1 / (SQRT3 + 1), abs=1e-12)
    assert w[(1, -1)] == pytest.approx(SQRT3 / (SQRT3 + 1), abs=1e-12)
    assert w[(-1, 1)] == pytest.approx(SQRT3 / (SQRT3 + 1), abs=1e-12)


def test_simulating_povm_trine_triple_hexagon():
    w = weights(simulating_povm("trine3"))
    assert w[(1, 1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert w[(-1, -1, -1)] == pytest.approx(0.0, abs=1e-12)
    others = [weight for signs, weight in w.items() if abs(sum(signs)) == 1]
    assert len(others) == 6
    assert all(w == pytest.approx(1 / 3, abs=1e-12) for w in others)


def test_simulating_povm_marginals_reproduce_noisy_spins():
    for preset in ("orthogonal2", "orthogonal3", "trine2", "trine3"):
        povm = simulating_povm(preset)
        eta = eta_sufficient(preset)
        for k, axis in enumerate(PRESET_AXES[preset]):
            for sign in (1, -1):
                marginal = povm.effects[povm.signs[:, k] == sign].sum(axis=0)
                target = (numkit.ID2 + sign * eta * numkit.pauli_dot(axis)) / 2
                assert numkit.is_psd(target)
                assert np.max(np.abs(marginal - target)) < 1e-10


def test_anticorrelation_values():
    assert anticorrelation_value("orthogonal") == pytest.approx(0.5, abs=1e-12)
    assert anticorrelation_value("trine") == pytest.approx(SQRT3 / (SQRT3 + 1), abs=1e-12)
    assert anticorrelation_value("trine") == pytest.approx(0.63397, abs=5e-6)


def anti_effect(povm: JointPOVM) -> np.ndarray:
    """F_(1,-1) + F_(-1,1) of a two-axis joint POVM."""
    effects = dict(zip(map(tuple, povm.signs.tolist()), povm.effects))
    return effects[(1, -1)] + effects[(-1, 1)]


def test_anticorrelation_coarse_graining_is_flat():
    anti = anti_effect(simulating_povm("trine2"))
    scale = SQRT3 / (SQRT3 + 1)
    assert np.max(np.abs(anti - scale * np.eye(2))) < 1e-12


def test_nc_bound_values():
    assert nc_bound_noisy(1 / math.sqrt(2)) == pytest.approx(0.76430, abs=1e-5)
    assert nc_bound_noisy(SQRT3 - 1) == pytest.approx(0.75598, abs=1e-5)
    assert nc_bound_noisy(1.0) == pytest.approx(2 / 3)
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
    assert anticorrelation_value("orthogonal") < nc_bound_noisy(1 / math.sqrt(2))
    assert anticorrelation_value("trine") < nc_bound_noisy(SQRT3 - 1)


@st.composite
def random_axes(draw, max_axes=3):
    n_axes = draw(st.integers(min_value=1, max_value=max_axes))
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
    povm = simulating_povm("orthogonal3")
    assert isinstance(povm, JointPOVM)
    assert povm.signs.shape == (8, 3) and povm.effects.shape == (8, 2, 2)
    assert sum(weights(povm).values()) == pytest.approx(2.0, abs=1e-12)  # trace of the identity
    # The +1 marginal of the first (z) axis is 1/2 + (eta/2) sigma_z.
    plus_z = povm.effects[povm.signs[:, 0] == 1].sum(axis=0)
    assert np.max(np.abs(plus_z - np.diag([1 + povm.eta, 1 - povm.eta]) / 2)) < 1e-12


def test_m_vectors_rejects_empty_axes():
    with pytest.raises(ValueError, match="at least one axis"):
        m_vectors([])


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


def assert_matches_dict_route(axes):
    signs, m = m_vectors(axes)
    ref = dict_povm.m_vectors(axes)
    assert [tuple(row) for row in signs.tolist()] == list(ref)
    assert m.tobytes() == np.array(list(ref.values())).tobytes()
    assert eta_necessary(axes) == dict_povm.eta_necessary(axes)
    # eta_sufficient is capped at 1, as the oracle's own simulating POVM eta is.
    assert eta_sufficient(axes) == min(dict_povm.eta_sufficient(axes), 1.0)
    povm, ref_povm = simulating_povm(axes), dict_povm.simulating_povm(axes)
    assert povm.effects.tobytes() == np.array(list(ref_povm.effects.values())).tobytes()
    assert povm.eta == ref_povm.eta
    assert povm.completeness_defect() == ref_povm.completeness_defect()
    assert povm.marginal_defect() == ref_povm.marginal_defect()
    if signs.shape[1] >= 2:
        assert anticorrelation_value(axes) == dict_povm.anticorrelation_value(axes)


@pytest.mark.parametrize("preset", sorted(PRESET_AXES))
def test_array_route_equals_dict_route_on_presets(preset):
    assert_matches_dict_route(preset)


@st.composite
def axis_families(draw):
    """1-6 unit axes, each a fresh random axis or a copy or negation of an earlier one."""
    axes = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["new", "repeat", "opposite"])) if axes else "new"
        if kind == "new":
            axes.extend(draw(random_axes(max_axes=1)))
        else:
            axis = draw(st.sampled_from(axes))
            axes.append(axis if kind == "repeat" else tuple(-x for x in axis))
    return axes


def seeded_family(n_axes: int, seed: int) -> list:
    """n_axes unit axes from a seeded generator; every third is a copy or a
    negation of an earlier one."""
    rng = np.random.default_rng(seed)
    axes = []
    for i in range(n_axes):
        if i % 3 == 2:
            axis = axes[rng.integers(i)]
            axes.append(axis if i % 2 else tuple(-x for x in axis))
        else:
            v = rng.normal(size=3)
            axes.append(tuple((v / np.linalg.norm(v)).tolist()))
    return axes


@settings(max_examples=100, deadline=None)
@given(axis_families())
# The sign blocks that marginal_defect sums change layout with the axis index,
# so some families go beyond the 1-6 axes that axis_families draws.
@example(seeded_family(8, 8))
@example(seeded_family(9, 9))
@example(seeded_family(10, 10))
def test_array_route_equals_dict_route(axes):
    assert_matches_dict_route(axes)


@settings(max_examples=50, deadline=None)
@given(axis_families())
@example([tuple(axis) for axis in PRESET_AXES["orthogonal3"]])
@example([tuple(axis) for axis in PRESET_AXES["trine3"]])
def test_anticorrelation_state_independence(axes):
    # The random-state oracle for the flatness check: every pair's Born
    # anti-correlation on random states is its JointPOVM.anticorrelation.
    rng = np.random.default_rng(61)
    for pair in itertools.combinations(axes, 2):
        joint = simulating_povm(pair)
        anti = anti_effect(joint)
        for _ in range(20):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            assert abs(numkit.born_probability(psi, anti) - joint.anticorrelation) < 1e-10


def test_anticorrelation_rejects_effects_that_are_not_flat():
    # A sharp z readout: outcome (1, -1) on spin up and (-1, -1) on spin
    # down, so the anti-correlated effects sum to the projector |0><0|.
    up, down = numkit.projector([1, 0]), numkit.projector([0, 1])
    zero = np.zeros((2, 2), dtype=complex)
    signs, _ = m_vectors("orthogonal2")
    joint = JointPOVM(PRESET_AXES["orthogonal2"], signs, np.ones(4), np.array([zero, up, zero, down]))
    with pytest.raises(AssertionError, match="anti-correlated coarse-graining is not flat"):
        joint.anticorrelation


def test_marginal_defect_memory_at_the_axis_cap():
    joint = simulating_povm(seeded_family(MAX_AXES, 14))
    tracemalloc.start()
    try:
        assert joint.marginal_defect() < 1e-10
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
