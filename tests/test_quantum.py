import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bell_ring_operator,
    complex_born_table,
    complex_klyachko_table,
    complex_tables,
    is_normalized,
)
from seer_lab import classical, games, numkit, quantum, scenario
from seer_lab.quantum import (
    BELL_STATE,
    StarPolygon,
    build_hardy,
    clifton_check,
    diachronic_quantum,
    hardy_chain_constraints,
    hardy_closed_form_sqrt3,
    hardy_optimize,
    hardy_value,
    heptagon_chain_rank,
    klyachko_closed_form,
    klyachko_decomposition_residual,
    klyachko_table,
    klyachko_value,
    mermin_closed_form,
    mermin_value,
    odd_cycle_game_value,
    relative_state_chain,
    relative_state_partner,
    purification_state,
    ring_observables,
    seer_game_win_probability,
    sos_certificate_bell,
    sos_certificate_klyachko,
    star_polygon,
    symmetry_axis_state,
    transitivity_chain_klyachko,
)
from seer_lab.tolerances import CertificateError

# ---------------------------------------------------------------------------
# Star polygon geometry


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_star_polygon_adjacent_orthogonality(n):
    kets = star_polygon(n).kets
    for a in range(n):
        assert abs(kets[a] @ kets[(a + 1) % n]) < 1e-12
        assert abs(kets[a] @ kets[a] - 1) < 1e-12


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_star_polygon_symmetry_axis(n):
    poly = star_polygon(n)
    psi = symmetry_axis_state(poly)
    overlaps = [(k @ psi) ** 2 for k in poly.kets]
    assert max(overlaps) - min(overlaps) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 21, 201, 2001])
def test_symmetry_axis_of_star_polygon_is_exactly_z(n):
    assert np.array_equal(symmetry_axis_state(star_polygon(n)), [0.0, 0.0, 1.0])


def test_symmetry_axis_follows_a_rotated_polygon():
    poly = star_polygon(7)
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    turned = StarPolygon(7, poly.theta, poly.phis, tuple(rotation @ k for k in poly.kets))
    assert np.allclose(symmetry_axis_state(turned), rotation @ [0.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [3, 5, 7, 51, 201, 1001])
def test_star_polygon_rays_equal_the_per_ray_construction(n):
    poly = star_polygon(n)
    st, ct = math.sin(poly.theta), math.cos(poly.theta)
    phis = [(n - 1) * math.pi * a / n for a in range(1, n + 1)]
    rays = np.array([[st * math.cos(phi), st * math.sin(phi), ct] for phi in phis])
    assert poly.kets.shape == (n, 3)
    assert poly.phis.tobytes() == np.array(phis).tobytes()
    assert poly.kets.tobytes() == rays.tobytes()


def test_star_polygon_rejects_even():
    with pytest.raises(ValueError):
        star_polygon(4)


# ---------------------------------------------------------------------------
# Cycle anti-correlation values


def test_klyachko_five_matches_known_values():
    result = klyachko_value(5)
    assert result.r == pytest.approx(2 / math.sqrt(5), abs=1e-10)
    assert result.s == pytest.approx(5 - 4 * math.sqrt(5), abs=1e-10)
    assert result.per_pair_anticorrelation == pytest.approx(2 / math.sqrt(5), abs=1e-10)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_klyachko_value_matches_closed_form(n):
    result = klyachko_value(n)
    r_exp, s_exp = klyachko_closed_form(n)
    assert result.r == pytest.approx(r_exp, abs=1e-10)
    assert result.s == pytest.approx(s_exp, abs=1e-10)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_klyachko_beats_noncontextual_bound(n):
    assert klyachko_value(n).r > classical.ks_bound_ncycle(n).r_nc


@pytest.mark.parametrize("n", [51, 101])
def test_klyachko_quadratic_asymptote(n):
    r, _ = klyachko_closed_form(n)
    assert abs(r - (1 - math.pi**2 / (4 * n * n))) < 1 / n**3


def test_klyachko_three_is_rejected_with_explanation():
    with pytest.raises(ValueError, match="jointly diagonalizable"):
        klyachko_value(3)


def _per_pair_joint_probs(state, proj_a, proj_b):
    """Oracle: the four effects of a commuting projector pair as separate
    products, each entry by numkit.born_probability (outcome 1 = the projector
    fires)."""
    assert np.max(np.abs(proj_a @ proj_b - proj_b @ proj_a)) < 1e-12
    eye = np.eye(proj_a.shape[0])
    effects = {
        (1, 1): proj_a @ proj_b,
        (1, 0): proj_a @ (eye - proj_b),
        (0, 1): (eye - proj_a) @ proj_b,
        (0, 0): (eye - proj_a) @ (eye - proj_b),
    }
    return {xy: numkit.born_probability(state, eff) for xy, eff in effects.items()}


def _pair_dist(psi, kets, a, b):
    """The builder's joint distribution of rays a and b (zero-based) on psi."""
    effects = quantum._ray_effects(kets)
    return quantum._joint_born(psi, effects[[a]], effects[[b]])[0]


def test_joint_measurement_marginal_consistency():
    # Coarse-grained joint statistics must reproduce single-projector Born
    # statistics for arbitrary states.
    rng = np.random.default_rng(29)
    kets = star_polygon(5).kets
    projs = [numkit.projector(k) for k in kets]
    for _ in range(50):
        psi = rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        for a in range(5):
            dist = _pair_dist(psi, kets, a, (a + 1) % 5)
            single = numkit.born_probability(psi, projs[a])
            assert dist[(1, 0)] + dist[(1, 1)] == pytest.approx(single, abs=1e-10)
            partner = numkit.born_probability(psi, projs[(a + 1) % 5])
            assert dist[(0, 1)] + dist[(1, 1)] == pytest.approx(partner, abs=1e-10)


def test_joint_born_refuses_effects_that_do_not_commute():
    # Rays at 45 degrees are neither parallel nor orthogonal: no joint measurement.
    kets = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]) / math.sqrt(2)]
    with pytest.raises(AssertionError, match="do not commute"):
        _pair_dist(np.array([0.0, 0.0, 1.0]), kets, 0, 1)


def test_klyachko_tables_equal_the_per_pair_born_rule_exactly():
    # The seer_ncycle sampler reads these rows, so equality is exact.
    for n in range(3, 202, 2):
        poly = star_polygon(n)
        psi = symmetry_axis_state(poly)
        projs = [numkit.projector(k) for k in poly.kets]
        table = klyachko_table(n)
        assert table.contexts == tuple(sorted(scenario.cycle_scenario(n).contexts))
        for ctx in table.contexts:
            dist = _per_pair_joint_probs(psi, projs[ctx[0] - 1], projs[ctx[1] - 1])
            for xy, p in dist.items():
                assert table.prob(ctx, xy) == (p if p > 1e-15 else 0.0)


def test_wing_lift_equals_kron_exactly():
    rng = np.random.default_rng(61)
    ops_a = rng.normal(size=(3, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2))
    ops_b = rng.normal(size=(3, 2, 3, 3)) + 1j * rng.normal(size=(3, 2, 3, 3))
    abar, bbar = quantum._wing_lift(ops_a, ops_b)
    for idx in np.ndindex(3, 2):
        assert np.array_equal(abar[idx], np.kron(ops_a[idx], np.eye(3)))
        assert np.array_equal(bbar[idx], np.kron(np.eye(2), ops_b[idx]))


def test_klyachko_table_is_valid_and_symmetric():
    table = klyachko_table(5)
    for dist in table.probs.values():
        assert sum(dist.values()) == pytest.approx(1, abs=1e-12)
        assert dist.get((1, 1), 0.0) == 0.0


# ---------------------------------------------------------------------------
# Cycle certificate


@pytest.mark.parametrize("n", [*range(5, 52, 2), 401, 1001])
def test_cycle_certificate(n):
    report = sos_certificate_klyachko(n)
    cos = math.cos(math.pi / n)
    assert report.residual < 1e-9
    assert report.min_coefficient >= -1e-12
    assert report.extremal_eigenvalue == pytest.approx(
        n - 4 * n * cos / (1 + cos), abs=1e-9
    )


def test_certified_report_keeps_each_figure():
    report = quantum._certified("test", 7, 0.0, 2.0, 2.0, -1e-12)
    assert report == quantum.SosCertificateReport(7, 0.0, 2.0, 2.0, -1e-12)


@pytest.mark.parametrize(
    "residual, min_coeff, extremum, shown",
    [
        (1e-9, 0.0, 2.0, "residual=1.000e-09,"),
        (float("nan"), 0.0, 2.0, "residual=nan,"),
        (0.0, -1.1e-12, 2.0, "min coefficient=-1.100e-12,"),
        (0.0, 0.0, 2.0 + 1e-9, "extremum=2.000000001 vs bound=2.0"),
        (0.0, 0.0, 2.0 - 1e-9, "extremum=1.999999999 vs bound=2.0"),
    ],
)
def test_certified_raises_when_one_condition_fails(residual, min_coeff, extremum, shown):
    with pytest.raises(CertificateError, match="^test certificate failed at n=7: ") as failure:
        quantum._certified("test", 7, residual, 2.0, extremum, min_coeff)
    assert shown in str(failure.value)


@pytest.mark.parametrize("n", range(5, 52, 2))
def test_cycle_certificate_equals_the_unshared_route_exactly(n):
    # The report reuses the residual's cycle operator; rebuilt apart, every
    # figure is the same bits.
    report = sos_certificate_klyachko(n)
    xbars = np.array([2 * np.outer(k, k) - np.eye(3) for k in star_polygon(n).kets], dtype=complex)
    cycle = (xbars @ np.roll(xbars, -1, axis=0)).sum(axis=0)
    lam1, lam2 = quantum.klyachko_certificate_coefficients(n)
    assert report.residual == klyachko_decomposition_residual(xbars)
    assert report.extremal_eigenvalue == numkit.eig_extrema(cycle).min_eigenvalue
    assert report.min_coefficient == min(min(lam1), min(lam2))


def test_cycle_certificate_lambda_edge_cases():
    lam1, lam2 = quantum.klyachko_certificate_coefficients(5)
    assert lam1[-1] == pytest.approx(0.0, abs=1e-12)  # j = n term vanishes
    assert min(lam2) >= -1e-12


def test_cycle_decomposition_holds_for_generic_commuting_operators():
    # Diagonal matrices commute pairwise and have no dichotomy constraint, so
    # this exercises every term of the identity.
    rng = np.random.default_rng(31)
    for n in (5, 7):
        xbars = [np.diag(rng.normal(size=4)).astype(complex) for _ in range(n)]
        assert klyachko_decomposition_residual(xbars) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_cycle_decomposition_holds_for_every_cycle_length(n):
    rng = np.random.default_rng(n)
    xbars = [np.diag(rng.normal(size=3)).astype(complex) for _ in range(n)]
    assert klyachko_decomposition_residual(xbars) < 1e-9


@pytest.mark.parametrize("n", [0, 1, 2])
def test_cycle_decomposition_refuses_fewer_than_three_operators(n):
    with pytest.raises(ValueError):
        klyachko_decomposition_residual([np.eye(2)] * n)


def _loop_cycle_residual(xbars):
    """The identity written term by term, with the Fourier squares over
    v_j = sum_a omega^(j a) X_a (a = 1..n, omega = exp(-2 pi i/n)) summed mode
    by mode."""
    n = len(xbars)
    d = xbars[0].shape[0]
    eye = np.eye(d, dtype=complex)
    sec = 1 / math.cos(math.pi / n)
    cos = math.cos(math.pi / n)
    cycle = sum(xbars[a] @ xbars[(a + 1) % n] for a in range(n))
    lhs = cycle - n * (1 - 4 * cos / (1 + cos)) * eye
    rhs = np.zeros((d, d), dtype=complex)
    rhs += 0.25 * (2 - sec) * sum(eye - xb @ xb for xb in xbars)
    rhs += 0.25 * sum(
        eye - np.linalg.matrix_power(xbars[a] @ xbars[(a + 1) % n], 2) for a in range(n)
    )
    rhs += 0.25 * sec * sum(
        xbars[a] @ xbars[(a + 2) % n] @ (eye - xbars[(a + 1) % n] @ xbars[(a + 1) % n])
        for a in range(n)
    )
    v0 = n * (3 - 2 / math.cos(math.pi / (2 * n)) ** 2) * eye + cycle
    rhs += (1 + sec) / (4 * n) * (v0.conj().T @ v0)
    omega = np.exp(-2j * math.pi / n)
    lam1, lam2 = quantum.klyachko_certificate_coefficients(n)
    for j in range(1, n + 1):
        v1 = sum(omega ** (j * a) * xbars[a - 1] for a in range(1, n + 1))
        rhs += lam1[j - 1] / n * (v1.conj().T @ v1)
    for j in range(1, n):
        v2 = sum(omega ** (j * a) * xbars[a - 1] @ xbars[a % n] for a in range(1, n + 1))
        rhs += lam2[j - 1] / n * (v2.conj().T @ v2)
    return float(np.linalg.norm(lhs - rhs))


def _random_hermitian_family(seed, n, d):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return list((m + m.conj().transpose(0, 2, 1)) / 2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 15), d=st.integers(2, 4))
def test_cycle_residual_matches_the_mode_by_mode_sum(seed, n, d):
    # Adjacent members do not commute, so the residual is O(1) or larger and
    # every term of the identity shows in it.
    xbars = _random_hermitian_family(seed, n, d)
    reference = _loop_cycle_residual(xbars)
    assert reference > 1e-3
    assert klyachko_decomposition_residual(xbars) == pytest.approx(reference, rel=1e-9)


# ---------------------------------------------------------------------------
# Transitivity chain and the eight-ray coloring


def test_transitivity_chain_values():
    result = transitivity_chain_klyachko()
    assert result.implications_hold
    assert result.p_start == pytest.approx(1 - 2 / math.sqrt(5), abs=1e-10)


def test_forced_implication_is_state_independent():
    # X_a = 1 forces X_{a+1} = 0 for any state: orthogonal projectors never
    # both fire.
    rng = np.random.default_rng(37)
    kets = star_polygon(5).kets
    for _ in range(20):
        psi = rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        dist = _pair_dist(psi, kets, 0, 1)
        assert dist[(1, 1)] == pytest.approx(0, abs=1e-12)


def test_pentagram_chain_equals_the_per_pair_born_rule_exactly():
    result = transitivity_chain_klyachko()
    kets = star_polygon(5).kets
    projs = [numkit.projector(k) for k in kets]
    for a, b in ((1, 2), (3, 4)):  # zero-based: pairs (l2,l3) and (l4,l5)
        expected = _per_pair_joint_probs(result.psi2, projs[a], projs[b])
        dist = _pair_dist(result.psi2, kets, a, b)
        assert all(dist[xy] == p for xy, p in expected.items())
        assert expected[(0, 1)] / (expected[(0, 1)] + expected[(0, 0)]) == pytest.approx(1, abs=1e-10)


def test_heptagon_has_no_common_ray():
    assert heptagon_chain_rank() == 3


def test_clifton_eight_ray_report():
    report = clifton_check()
    # Pairs and triples in index order over l1..l5, chi, chi', psi2.
    assert report.edges == (
        ("l1", "l2"), ("l1", "l5"), ("l2", "l3"), ("l2", "chi"), ("l3", "l4"), ("l3", "chi"),
        ("l4", "l5"), ("l4", "chi'"), ("l5", "chi'"), ("chi", "psi2"), ("chi'", "psi2"),
    )
    assert report.triples == (("l2", "l3", "chi"), ("l4", "l5", "chi'"))
    assert report.n_valid_colorings == 14
    assert report.n_colorings_start_and_psi2 == 0
    assert report.n_colorings_l1_zero == 11


# ---------------------------------------------------------------------------
# Two-wing ring game


def test_mermin_three_and_s3():
    assert mermin_value(3) == pytest.approx(5 / 6, abs=1e-10)
    assert classical.s3_of_table(quantum.mermin_table(3)) == pytest.approx(6, abs=1e-9)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_mermin_value_matches_closed_form(n):
    assert mermin_value(n) == pytest.approx(mermin_closed_form(n), abs=1e-10)


def test_mermin_five_specific_value():
    assert mermin_value(5) == pytest.approx(1 / 3 + 2 / 3 * math.cos(math.pi / 10) ** 2, abs=1e-10)
    assert mermin_value(5) == pytest.approx(0.9363389981249825, abs=1e-10)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_mermin_beats_local_bound(n):
    assert mermin_value(n) > classical.local_bound("os_ring", n).value


def test_ring_observables_square_to_identity():
    for op in ring_observables(5):
        assert np.max(np.abs(op @ op - np.eye(2))) < 1e-12


def _same_bits(x, y) -> bool:
    """Equal arrays, signs of zero included."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_stacked_spins_equal_scalar_spins_bit_for_bit():
    # Only cos and sin round: the rest multiplies them by 0 and +-1 and adds.  So
    # the scalar spin_observable is compared in full at every odd n <= 201 and at
    # games.MAX_N, and through its cos and sin entries at every odd n <= 2001.
    for n in [*range(3, 2002, 2), games.MAX_N]:
        ring = [(n - 1) * math.pi * (a - 1) / n for a in range(1, n + 1)]
        shifted = [phi + math.pi / (2 * n) for phi in ring]
        ops_a, ops_b = quantum.odd_cycle_observables(n)
        assert _same_bits(ops_a, ring_observables(n)), n
        for stacked, angles in ((ops_a, ring), (ops_b, shifted)):
            if n <= 201 or n == games.MAX_N:
                assert _same_bits(stacked, [numkit.spin_observable(phi) for phi in angles]), n
            else:
                assert _same_bits(stacked[:, 0, 0].real, list(map(np.cos, angles))), n
                assert _same_bits(stacked[:, 0, 1].real, list(map(np.sin, angles))), n


@pytest.mark.parametrize("n", [*range(3, 52, 2), 2001, 10_001])
def test_ring_certificate(n):
    report = sos_certificate_bell(n)
    assert report.residual < 1e-9
    closed = n * (4 * math.cos(math.pi / (2 * n)) ** 2 - 1)
    assert report.extremal_eigenvalue == pytest.approx(closed, abs=1e-9)
    assert report.min_coefficient >= -1e-12


@pytest.mark.parametrize("n", range(3, 52, 2))
def test_ring_certificate_equals_the_unshared_route_exactly(n):
    # The report builds the observables and the ring operator once for both
    # checks; through the public functions, every figure is the same bits.
    report = sos_certificate_bell(n)
    ops = ring_observables(n)
    lams = 1 - 2 * np.cos(2 * np.pi * np.arange(n) / n)
    assert report.residual == quantum.bell_decomposition_residual(ops, ops)
    assert report.extremal_eigenvalue == numkit.eig_extrema(bell_ring_operator(n)).max_eigenvalue
    assert report.min_coefficient == min((lams.max() + lams).min(), (lams.max() - lams).min())


@pytest.mark.parametrize("n", range(3, 52, 2))
def test_ring_certificate_keeps_its_bits_with_one_shared_stack(n):
    # The wings share one ring stack: it is coerced to complex once and its
    # projectors are built once.  Two equal stacks, each coerced and projected
    # on its own, give the same residual and extremum to the bit.
    ops = ring_observables(n)
    with mock.patch.object(quantum, "_outcome_projectors", wraps=quantum._outcome_projectors) as built:
        report = sos_certificate_bell(n)
    assert built.call_count == 1
    residual, correlator = quantum._bell_residual(ops, ops.copy())
    assert report.residual == residual
    assert report.extremal_eigenvalue == numkit.eig_extrema(correlator).max_eigenvalue


def test_ring_certificate_n3_bound_is_six():
    assert sos_certificate_bell(3).certified_bound == pytest.approx(6.0, abs=1e-12)


def test_ring_decomposition_holds_for_generic_observables():
    rng = np.random.default_rng(43)
    for n in (3, 5):
        ops_a = [np.diag(rng.normal(size=2)).astype(complex) for _ in range(n)]
        ops_b = [np.diag(rng.normal(size=2)).astype(complex) for _ in range(n)]
        assert quantum.bell_decomposition_residual(ops_a, ops_b) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(range(3, 16, 2)), d=st.integers(2, 3))
def test_ring_decomposition_holds_for_noncommuting_observables(seed, n, d):
    ops = _random_hermitian_family(seed, 2 * n, d)
    assert quantum.bell_decomposition_residual(ops[:n], ops[n:]) < 1e-9


# ---------------------------------------------------------------------------
# Odd-cycle game


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_cycle_game_value(n):
    assert odd_cycle_game_value(n) == pytest.approx(
        math.cos(math.pi / (4 * n)) ** 2, abs=1e-10
    )


def test_odd_cycle_payoff_operator_top_eigenvalue_is_game_value():
    for n in range(3, 52, 2):
        op = quantum.payoff_operator(classical.odd_cycle_payoff(n), *quantum.odd_cycle_observables(n))
        top = np.linalg.eigvalsh(op)[-1]
        assert abs(top - math.cos(math.pi / (4 * n)) ** 2) < 1e-12


def test_odd_cycle_specific_values():
    assert odd_cycle_game_value(3) == pytest.approx(0.9330127018922193, abs=1e-10)
    assert odd_cycle_game_value(5) == pytest.approx(0.9755282581475768, abs=1e-10)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_cycle_quantum_beats_local(n):
    assert 1 - 1 / (2 * n) < odd_cycle_game_value(n)


# ---------------------------------------------------------------------------
# One payoff per game scores every table of that game


def _per_cell_born_table(payoff, ops_a, ops_b):
    """Oracle: each cell's four effects as np.kron products of the wing
    projectors, each entry by numkit.born_probability."""
    probs = {}
    for a, b in payoff.settings.tolist():
        pa = [(numkit.ID2 + s * ops_a[a - 1]) / 2 for s in (1, -1)]
        pb = [(numkit.ID2 + s * ops_b[b - 1]) / 2 for s in (1, -1)]
        probs[a, payoff.n_a + b] = {
            (i, j): numkit.born_probability(BELL_STATE, np.kron(pa[i], pb[j]))
            for i in (0, 1)
            for j in (0, 1)
        }
    return probs


@pytest.mark.parametrize("n", [*range(3, 52, 2), 201])
def test_born_tables_equal_the_per_cell_born_rule_exactly(n):
    # The sampler reads these rows, so a same-seed game can change with any last
    # bit: the tables must equal the per-effect Born rule exactly, not closely.
    ops = ring_observables(n)
    for table, payoff, (ops_a, ops_b) in (
        (quantum.mermin_table(n), classical.os_ring_payoff(n), (ops, ops)),
        (quantum.odd_cycle_table(n), classical.odd_cycle_payoff(n), quantum.odd_cycle_observables(n)),
    ):
        expected = _per_cell_born_table(payoff, ops_a, ops_b)
        assert table.contexts == tuple(sorted(expected))
        for ctx, dist in expected.items():
            for xy, p in dist.items():
                assert table.prob(ctx, xy) == p


@pytest.mark.parametrize("kind, n, wins", [("bipartite_os", 7, 966636), ("odd_cycle", 9, 992513)])
def test_same_seed_quantum_games_keep_their_win_counts(kind, n, wins):
    spec = games.GameSpec(kind, "quantum", trials=1_000_000, seed=2024, n=n)
    assert games.simulate(spec).wins == wins


def test_payoff_scores_quantum_foil_and_witness_tables():
    for n in range(3, 52, 2):
        ring, odd = classical.os_ring_payoff(n), classical.odd_cycle_payoff(n)
        assert abs(ring.value(quantum.mermin_table(n)) - mermin_closed_form(n)) < 1e-10
        assert abs(odd.value(quantum.odd_cycle_table(n)) - math.cos(math.pi / (4 * n)) ** 2) < 1e-10
        assert ring.value(scenario.build_bipartite_table("nonlocal_os_n", n)) == 1.0
        for payoff in (ring, odd):
            assert payoff.value(scenario.foil_table(payoff)) == 1.0
    for n in range(3, 14, 2):
        for game, payoff in (
            ("os_ring", classical.os_ring_payoff(n)),
            ("odd_cycle", classical.odd_cycle_payoff(n)),
        ):
            bound = classical.local_bound(game, n)
            witness = scenario.deterministic_table(
                scenario.payoff_scenario(payoff), bound.witness_a + bound.witness_b
            )
            assert abs(payoff.value(witness) - bound.value) < 1e-12


# ---------------------------------------------------------------------------
# Real constructions in real arithmetic, with the complex route's bits


@pytest.mark.parametrize("n", [*range(3, 52, 2), 101, 1001])
def test_real_born_tables_equal_the_complex_route_bit_for_bit(n):
    expected = complex_tables(n)
    tables = {"mermin": quantum.mermin_table(n), "odd_cycle": quantum.odd_cycle_table(n),
              "klyachko": klyachko_table(n)}
    for name, table in tables.items():
        assert table.vector.tobytes() == expected[name].vector.tobytes(), name
    assert mermin_value(n) == classical.os_ring_payoff(n).value(expected["mermin"])
    assert odd_cycle_game_value(n) == classical.odd_cycle_payoff(n).value(expected["odd_cycle"])
    if n > 3:
        ring = expected["klyachko"]
        r = float(np.mean(ring.rows(ring.scenario.contexts)[:, 1:3].sum(axis=1)))
        assert klyachko_value(n) == quantum.KlyachkoValue(n, r, n - 2 * n * r, r)


@pytest.mark.parametrize("kind", games.GAME_KINDS)
def test_games_equal_the_complex_born_route(kind, monkeypatch):
    specs = [games.GameSpec(kind, strategy, trials=100_000, seed=5, n=n)
             for n in ((3,) if kind == "diachronic" else (3, 5, 7, 11, 101)) for strategy in games.STRATEGIES]
    real = [games.simulate(spec).to_dict() for spec in specs]
    monkeypatch.setattr(quantum, "born_table", complex_born_table)
    monkeypatch.setattr(quantum, "klyachko_table", complex_klyachko_table)
    assert [games.simulate(spec).to_dict() for spec in specs] == real


def _born_images(build):
    """The (state, images) pairs that `build` finishes with born_overlap."""
    with mock.patch.object(quantum, "born_overlap", wraps=numkit.born_overlap) as finish:
        build()
    return [call.args for call in finish.call_args_list]


def test_ring_cycle_and_star_polygon_constructions_are_float64():
    ops = ring_observables(7)
    poly = star_polygon(7)
    lifts = quantum._wing_lift(quantum._outcome_projectors(ops), quantum._outcome_projectors(ops))
    arrays = [ops, *quantum.odd_cycle_observables(7), poly.kets, symmetry_axis_state(poly), BELL_STATE,
              quantum._outcome_projectors(ops), quantum._ray_effects(poly.kets), *lifts]
    for build in (lambda: quantum.mermin_table(7), lambda: quantum.odd_cycle_table(7), lambda: klyachko_table(7),
                  transitivity_chain_klyachko):
        arrays += [array for args in _born_images(build) for array in args]
    assert all(array.dtype == np.float64 for array in arrays)
    with mock.patch.object(quantum, "_fourier_squares", wraps=quantum._fourier_squares) as squares:
        sos_certificate_klyachko(7)
    assert squares.call_args.args[0].dtype == np.float64


def test_pauli_dot_relative_states_hardy_and_the_ring_certificate_stay_complex():
    rho, u = np.diag([0.7, 0.3]), np.eye(2)
    chain = relative_state_chain(rho, u, np.array([0.6, 0.8]), 2).chain
    arrays = [numkit.pauli_dot([0.0, 0.0, 1.0]), *chain, relative_state_partner(rho, u, np.array([0.6, 0.8])),
              purification_state(rho, u), build_hardy(1.5).state]
    ops = ring_observables(7)
    with mock.patch.object(quantum, "_fourier_squares", wraps=quantum._fourier_squares) as squares:
        sos_certificate_bell(7)
    arrays += [squares.call_args.args[0], quantum._ring_correlator(ops, ops), bell_ring_operator(7)]
    assert all(array.dtype == np.complex128 for array in arrays)


def test_born_table_builds_one_projector_stack_for_shared_wings():
    with mock.patch.object(quantum, "_outcome_projectors", wraps=quantum._outcome_projectors) as build:
        quantum.mermin_table(5)
        games.simulate(games.GameSpec("diachronic", "quantum", trials=10, seed=0))
        assert build.call_count == 2
        quantum.odd_cycle_table(5)
        assert build.call_count == 4


def test_payoff_operator_and_born_table_build_projectors_through_one_name(monkeypatch):
    # One module attribute builds every outcome projector stack, so one patch
    # reaches the operator and the table; shared wings build one stack.
    built = []
    build = quantum._outcome_projectors
    monkeypatch.setattr(quantum, "_outcome_projectors", lambda ops: built.append(len(ops)) or build(ops))
    ring, ops = classical.os_ring_payoff(5), ring_observables(5)
    quantum.payoff_operator(ring, ops, ops)
    quantum.born_table(ring, ops, ops)
    assert built == [5, 5]
    odd = classical.odd_cycle_payoff(7)
    quantum.payoff_operator(odd, *quantum.odd_cycle_observables(7))
    quantum.born_table(odd, *quantum.odd_cycle_observables(7))
    assert built == [5, 5, 7, 7, 7, 7]


def test_cycle_certificate_computes_its_coefficients_once():
    with mock.patch.object(quantum, "klyachko_certificate_coefficients",
                           wraps=quantum.klyachko_certificate_coefficients) as coefficients:
        sos_certificate_klyachko(9)
    assert coefficients.call_count == 1


# ---------------------------------------------------------------------------
# Hardy chain


def test_hardy_value_at_sqrt3():
    assert hardy_value(math.sqrt(3)) == pytest.approx(hardy_closed_form_sqrt3(), abs=1e-10)
    assert hardy_closed_form_sqrt3() == pytest.approx(0.17443, abs=5e-6)


def test_hardy_chain_constraints_vanish_for_various_eta():
    for eta in (0.3, 0.9, math.sqrt(3), 2.5, 4.0):
        worst = max(abs(v) for v in hardy_chain_constraints(build_hardy(eta)).values())
        assert worst < 1e-10


def _tensor_hardy_events(cfg):
    """Oracle: each chain link, then the contradicting event A1=1, B3=0, as
    numkit.born_probability of an np.kron product of wing effects."""
    pa = [numkit.projector(v) for v in cfg.up_a]
    pb = [numkit.projector(v) for v in cfg.up_b]
    eye = numkit.ID2

    def joint(ea, eb):
        return numkit.born_probability(cfg.state, np.kron(ea, eb))

    constraints = {
        "p(A1=1,B1=0)": joint(pa[0], eye - pb[0]),
        "p(A2=1,B1=1)": joint(pa[1], pb[0]),
        "p(A2=0,B2=1)": joint(eye - pa[1], pb[1]),
        "p(A3=0,B2=0)": joint(eye - pa[2], eye - pb[1]),
        "p(A3=1,B3=0)": joint(pa[2], eye - pb[2]),
    }
    return constraints, joint(pa[0], eye - pb[2])


@pytest.mark.parametrize(
    "eta", [1e-6, 0.3, 0.5, 0.9, 1.0, math.sqrt(3), 2.5, 4.0, 1e30, *np.linspace(0.5, 5, 19)]
)
def test_hardy_chain_equals_the_tensor_born_rule_exactly(eta):
    cfg = build_hardy(float(eta))
    constraints, value = _tensor_hardy_events(cfg)
    assert list(hardy_chain_constraints(cfg).items()) == list(constraints.items())
    assert hardy_value(float(eta)) == value


def test_hardy_state_normalized_and_kappas():
    cfg = build_hardy(math.sqrt(3))
    assert is_normalized(cfg.state)
    eta = math.sqrt(3)
    assert cfg.kappas == pytest.approx((eta**2.5, eta**0.5, eta**1.5))


def test_hardy_optimum_near_boschi_value():
    eta, value = hardy_optimize()
    assert value == pytest.approx(0.17455, abs=2e-5)
    assert 1.5 < eta < 2.0


def test_hardy_vanishes_for_product_state_limit():
    assert hardy_value(1e-6) < 1e-10


def test_hardy_rejects_nonpositive_eta():
    with pytest.raises(ValueError):
        hardy_value(0.0)


@pytest.mark.parametrize("eta", [quantum.HARDY_ETA_MAX, 1e200, math.inf, math.nan])
def test_hardy_rejects_eta_beyond_float_range(eta):
    with pytest.raises(ValueError, match="finite"):
        hardy_value(eta)


def test_hardy_just_below_eta_bound_is_finite(recwarn):
    value = hardy_value(math.nextafter(quantum.HARDY_ETA_MAX, 0))
    assert 0 <= value < 1e-100
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# Relative-state chains


def _random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _random_unitary(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(m)
    return q


def test_relative_state_chain_full_rank_has_support():
    rng = np.random.default_rng(47)
    rho = _random_density(rng, 3)
    u = _random_unitary(rng, 3)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    result = relative_state_chain(rho, u, phi, steps=5)
    assert result.overlap > 0
    assert len(result.chain) == 6


def test_relative_state_chain_kernel_case():
    # phi in the kernel of a real rho: the chain collapses and the initial
    # event itself has probability zero.
    phi = np.array([1.0, 0.0, 0.0])
    rho = np.diag([0.0, 0.4, 0.6])
    u = np.eye(3)
    result = relative_state_chain(rho, u, phi, steps=3)
    assert result.overlap == 0.0
    assert result.p_initial < 1e-10


def test_relative_state_chain_maximally_mixed_fixed_point():
    rng = np.random.default_rng(53)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    result = relative_state_chain(np.eye(4) / 4, np.eye(4), phi, steps=4)
    assert result.overlap == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(result.chain[0], result.chain[-1])


def test_relative_state_chain_validates_inputs():
    with pytest.raises(ValueError):
        relative_state_chain(np.diag([0.7, 0.6]), np.eye(2), [1, 0], 1)  # trace != 1
    with pytest.raises(ValueError):
        relative_state_chain(np.eye(2) / 2, np.array([[1, 1], [0, 1]]), [1, 0], 1)


def test_relative_state_inferences_are_certain_on_purification():
    # Finding phi on wing A forces the partner state on wing B, and finding
    # that partner on B forces rho^T phi on A: both checked by the Born rule
    # on the purified state.
    rng = np.random.default_rng(59)
    d = 3
    rho = _random_density(rng, d)
    u = _random_unitary(rng, d)
    psi = purification_state(rho, u)
    assert abs(np.vdot(psi, psi) - 1) < 1e-10
    phi = rng.normal(size=d) + 1j * rng.normal(size=d)
    phi /= np.linalg.norm(phi)
    partner = relative_state_partner(rho, u, phi)
    proj_phi = numkit.projector(phi)
    proj_partner = numkit.projector(partner)
    p_phi = numkit.born_probability(psi, np.kron(proj_phi, np.eye(d)))
    p_joint = numkit.born_probability(psi, np.kron(proj_phi, proj_partner))
    assert p_joint == pytest.approx(p_phi, abs=1e-10)  # p(partner | phi) = 1
    # Conditional on finding the partner on wing B, wing A collapses to
    # rho^T phi (the next chain element).
    nxt = rho.T @ phi
    nxt /= np.linalg.norm(nxt)
    p_partner = numkit.born_probability(psi, np.kron(np.eye(d), proj_partner))
    p_joint2 = numkit.born_probability(
        psi, np.kron(numkit.projector(nxt), proj_partner)
    )
    assert p_joint2 == pytest.approx(p_partner, abs=1e-10)


# ---------------------------------------------------------------------------
# Two-time protocol


def test_diachronic_value_and_obliviousness():
    result = diachronic_quantum()
    assert result.r == pytest.approx(5 / 6, abs=1e-10)
    assert result.obliviousness_defect < 1e-12


def _trine_eigenstates():
    """Reference route: |phi_{t,b}> from the eigenvectors of the trine
    observable t, b = 0 for eigenvalue +1."""
    states = {}
    for t in (1, 2, 3):
        _, vecs = np.linalg.eigh(numkit.spin_observable(2 * math.pi * (t - 1) / 3))
        states[t, 0], states[t, 1] = vecs[:, 1], vecs[:, 0]
    return states


def test_diachronic_same_and_cross_cases():
    """Prepare phi_{t,b}, measure trine y: (b, X) has probability
    |<psi_{y,X}|phi_{t,b}>|^2 / 2, and that is the two-time table entry."""
    states = _trine_eigenstates()
    table = quantum.mermin_table(3)
    for t, b, y in itertools.product((1, 2, 3), (0, 1), (1, 2, 3)):
        target = b if t == y else 1 - b
        success = abs(np.vdot(states[y, target], states[t, b])) ** 2
        assert success == pytest.approx(1 if t == y else 3 / 4, abs=1e-12)
        for x in (0, 1):
            prepared = abs(np.vdot(states[y, x], states[t, b])) ** 2 / 2
            assert table.prob((t, 3 + y), (b, x)) == pytest.approx(prepared, abs=1e-12)


def test_diachronic_beats_pnc_bound():
    assert diachronic_quantum().r > classical.pnc_bound_diachronic().bound


# ---------------------------------------------------------------------------
# Seer game helper


def test_seer_game_win_probability_order_n_squared():
    for n in (5, 11, 101):
        p = seer_game_win_probability(n)
        r, _ = klyachko_closed_form(n)
        assert p == pytest.approx(1 - r, abs=1e-10)
    assert seer_game_win_probability(101) < 3e-4


def test_bell_state_is_normalized():
    assert abs(np.vdot(BELL_STATE, BELL_STATE) - 1) < 1e-12


def test_two_qubit_joint_measurement_marginal_consistency():
    # The product joint measurement of two wings reproduces each wing's
    # single-observable Born statistics on random two-qubit states.
    rng = np.random.default_rng(71)
    ops = ring_observables(3)
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        for a in range(3):
            for b in range(3):
                pa = [(np.eye(2) + s * ops[a]) / 2 for s in (1, -1)]
                pb = [(np.eye(2) + s * ops[b]) / 2 for s in (1, -1)]
                dist = {
                    (i, j): numkit.born_probability(psi, np.kron(pa[i], pb[j]))
                    for i in (0, 1)
                    for j in (0, 1)
                }
                single = numkit.born_probability(psi, np.kron(pa[0], np.eye(2)))
                assert dist[(0, 0)] + dist[(0, 1)] == pytest.approx(single, abs=1e-10)


def test_klyachko_asymptote_holds_for_constructed_value():
    # Born-rule evaluation of the actual n=51 construction, not just the
    # closed form.
    n = 51
    value = klyachko_value(n)
    assert abs(value.r - (1 - math.pi**2 / (4 * n * n))) < 1 / n**3
