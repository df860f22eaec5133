"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from full_lp import full_lp_feasible
from seer_lab import classical, cli, games, povm, quantum, scenario, signet

SQRT3 = math.sqrt(3)
SQRT5 = math.sqrt(5)


def _report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_ks_cycle_bounds_exact():
    started = time.perf_counter()
    for n in (3, 5, 7, 9, 11):
        result = classical.ks_bound_ncycle(n)
        assert result.r_nc_exact == 1 - Fraction(1, n)
        assert result.max_anticorrelated == n - 1
        assert result.s_nc == -(n - 2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"enumerated (R,S) equal (1-1/n, -(n-2)) for n in 3..11 [{elapsed:.3f}s]")


def test_criterion_2_klyachko_values():
    started = time.perf_counter()
    five = quantum.klyachko_value(5)
    assert abs(five.r - 2 / SQRT5) < 1e-10
    assert abs(five.r - 0.894427191) < 1e-9
    assert abs(five.s - (5 - 4 * SQRT5)) < 1e-10
    for n in (7, 9, 11):
        result = quantum.klyachko_value(n)
        r_exp, s_exp = quantum.klyachko_closed_form(n)
        assert abs(result.r - r_exp) < 1e-10
        assert abs(result.s - s_exp) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"Born-rule R,S match closed forms for n in 5..11 [{elapsed:.3f}s]")


def test_criterion_3_sos_certificates():
    for n in (5, 7, 9):
        report = quantum.sos_certificate_klyachko(n)
        cos = math.cos(math.pi / n)
        assert report.residual < 1e-9
        assert abs(report.extremal_eigenvalue - (n - 4 * n * cos / (1 + cos))) < 1e-9
    for n in (3, 5, 7):
        report = quantum.sos_certificate_bell(n)
        bound = n * (4 * math.cos(math.pi / (2 * n)) ** 2 - 1)
        assert report.residual < 1e-9
        assert abs(report.extremal_eigenvalue - bound) < 1e-9
    _report(3, "both operator identities verified; certified extrema attained")


def test_criterion_4_bell_game():
    assert classical.local_bound("os3").value_exact == Fraction(7, 9)
    assert abs(quantum.mermin_value(3) - 5 / 6) < 1e-10
    for n in (3, 5, 7, 9):
        assert classical.local_bound("os_ring", n).value_exact == 1 - Fraction(2, 3 * n)
        closed = 1 / 3 + 2 / 3 * math.cos(math.pi / (2 * n)) ** 2
        assert abs(quantum.mermin_value(n) - closed) < 1e-10
    _report(4, "local bound 7/9, quantum 5/6, ring forms hold for n in 3..9")


def test_criterion_5_hardy():
    started = time.perf_counter()
    value = quantum.hardy_value(SQRT3)
    assert abs(value - 144 / (27 + SQRT3) ** 2) < 1e-10
    constraints = quantum.hardy_chain_constraints(quantum.build_hardy(SQRT3))
    for key in ("p(A1=1,B1=0)", "p(A2=0,B2=1)", "p(A2=1,B1=1)"):
        assert abs(constraints[key]) < 1e-10
    _, best = quantum.hardy_optimize()
    assert abs(best - 0.17455) <= 2e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(5, f"p_Hardy(sqrt3)=144/(27+sqrt3)^2, optimum 0.17455+-2e-5 [{elapsed:.3f}s]")


def test_criterion_6_transitivity_proof():
    chain = quantum.transitivity_chain_klyachko()
    assert abs(chain.p_start - (1 - 2 / SQRT5)) < 1e-10
    assert abs(chain.p_start - 0.105573) < 1e-6
    assert chain.implications_hold
    clifton = quantum.clifton_check()
    assert clifton.n_colorings_start_and_psi2 == 0
    assert quantum.heptagon_chain_rank() == 3
    _report(6, "p_start = 1-2/sqrt5; no coloring has v(psi2)=v(l1)=1; 7-cycle rank 3")


def test_criterion_7_pnc():
    assert classical.pnc_bound_diachronic().bound_exact == Fraction(7, 9)
    result = quantum.diachronic_quantum()
    assert abs(result.r - 5 / 6) < 1e-10
    assert result.obliviousness_defect < 1e-12
    _report(7, "PNC bound exactly 7/9; quantum 5/6 with obliviousness defect < 1e-12")


def test_criterion_8_povm():
    thresholds = {
        "orthogonal2": 1 / math.sqrt(2),
        "orthogonal3": 1 / math.sqrt(3),
        "trine2": SQRT3 - 1,
        "trine3": 2 / 3,
    }
    for preset, expected in thresholds.items():
        assert abs(povm.eta_necessary(preset) - expected) < 1e-12
        assert abs(povm.eta_sufficient(preset) - expected) < 1e-12
        joint = povm.simulating_povm(preset)
        assert joint.completeness_defect() < 1e-10
        assert joint.marginal_defect() < 1e-10
    import numpy as np

    rng = np.random.default_rng(67)
    for kind, expected in (("orthogonal", 0.5), ("trine", SQRT3 / (SQRT3 + 1))):
        value = povm.anticorrelation_value(kind, rng=rng)
        assert abs(value - expected) < 1e-10
    assert abs(povm.nc_bound_noisy(1 / math.sqrt(2)) - 0.76430) < 1e-5
    assert abs(povm.nc_bound_noisy(SQRT3 - 1) - 0.75598) < 1e-5
    _report(8, "thresholds, simulating POVMs, anti-correlation values, NC bounds all hold")


def assert_ring_certificate(result, n, odd):
    """An odd ring's certificate is the ring itself, its only cycle; an even
    ring has none."""
    if not odd:
        assert result.certificate is None
        return
    kind, cycle = result.certificate
    assert kind == "odd-parity cycle" and sorted(cycle) == list(range(1, n + 1))
    assert all((b - a) % n in (1, n - 1) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def test_criterion_9_lp_matches_parity_exhaustively():
    started = time.perf_counter()
    checked = 0
    for n in range(3, 10):
        for signs in itertools.product((1, -1), repeat=n):
            table = scenario.cycle_correlation_table(signs)
            # The LP over all 2^n atoms is the reference; the LP over the
            # atoms the table's zeros allow, and the public route, which
            # decides these tables on their signed graph, must agree with it.
            reference = full_lp_feasible(table)
            pruned = scenario._lp_feasible(table)
            result = scenario.joint_distribution_feasible(table)
            odd = signs.count(-1) % 2 == 1
            assert result.feasible == pruned.feasible == reference.feasible == (not odd)
            assert signet.is_frustrated(signet.cycle_graph(signs)).frustrated == odd
            assert_ring_certificate(result, n, odd)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == sum(2**n for n in range(3, 10))
    assert elapsed < 30.0
    _report(9, f"LP infeasibility == odd parity for all {checked} patterns, n<=9 [{elapsed:.1f}s]")


def test_criterion_10_monte_carlo(capsys):
    started = time.perf_counter()
    quantum_result = games.simulate(
        games.GameSpec("bipartite_os", "quantum", trials=1000000, seed=42, n=3)
    )
    assert quantum_result.sigma_distance < 5
    assert abs(quantum_result.expected_rate - 5 / 6) < 1e-10
    foil_result = games.simulate(
        games.GameSpec("bipartite_os", "foil", trials=1000000, seed=42, n=3)
    )
    assert foil_result.empirical_rate == 1.0

    argv = ["game", "bipartite_os", "--n", "3", "--strategy", "quantum",
            "--trials", "1000000", "--seed", "42", "--json"]
    assert cli.main(argv) == 0
    out1 = capsys.readouterr().out
    assert cli.main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    empirical = json.loads(out1)["results"]["empirical_rate"]
    assert empirical == pytest.approx(quantum_result.empirical_rate, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(10, f"seed-42 million-trial runs within 5 sigma, byte-identical [{elapsed:.1f}s]")
