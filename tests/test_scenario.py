import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from full_lp import full_lp_feasible
from helpers import JSON_SCALARS, JSON_VALUES, assert_farkas, max_consistency_gap, solve_anticorrelation_constraints
from loop_scenario import loop_contexts
from seer_lab import classical, quantum, scenario, signet
from seer_lab.scenario import (
    CorrelationTable,
    Scenario,
    build_bipartite_table,
    build_os_ncycle,
    check_no_signaling,
    cycle_correlation_table,
    deterministic_table,
    joint_distribution_feasible,
)
from seer_lab.tolerances import NUM_TOL, PROB_FLOOR, STRUCT_TOL


def test_os_ncycle_3_statistics():
    table = build_os_ncycle(3)
    assert set(table.scenario.contexts) == {(1, 2), (2, 3), (1, 3)}
    for ctx in table.scenario.contexts:
        assert table.prob(ctx, (0, 1)) == 0.5
        assert table.prob(ctx, (1, 0)) == 0.5
        assert table.prob(ctx, (0, 0)) == 0.0


def test_os_ncycle_singleton_marginals_uniform():
    table = build_os_ncycle(3)
    for ctx in table.scenario.contexts:
        for m in ctx:
            assert table.marginal(ctx, m) == {0: 0.5, 1: 0.5}


def test_os_ncycle_five_contexts_anticorrelated():
    table = build_os_ncycle(5)
    assert len(table.probs) == 5
    for ctx, dist in table.probs.items():
        assert sum(dist.get(o, 0) for o in ((0, 1), (1, 0))) == pytest.approx(1)


def test_os_ncycle_rejects_even_and_small():
    with pytest.raises(ValueError):
        build_os_ncycle(4)
    with pytest.raises(ValueError):
        build_os_ncycle(1)


def test_bipartite_os3_cells():
    table = build_bipartite_table("nonlocal_os_3")
    for a in range(1, 4):
        for b in range(1, 4):
            ctx = (a, 3 + b)
            if a == b:
                assert table.prob(ctx, (0, 0)) == 0.5
                assert table.prob(ctx, (1, 1)) == 0.5
            else:
                assert table.prob(ctx, (0, 1)) == 0.5
                assert table.prob(ctx, (1, 0)) == 0.5


def test_bipartite_ring_omits_unconstrained_cells():
    table = build_bipartite_table("nonlocal_os_n", 5)
    assert len(table.probs) == 15
    assert (1, 5 + 3) not in table.probs  # |a-b| = 2: unconstrained


def test_pr_box_table():
    table = build_bipartite_table("pr_box")
    # A1=B1, A1=B2, A2=B2 correlated; A2=B1 anti-correlated.
    assert table.prob((1, 3), (0, 0)) == 0.5
    assert table.prob((1, 4), (1, 1)) == 0.5
    assert table.prob((2, 4), (0, 0)) == 0.5
    assert table.prob((2, 3), (0, 1)) == 0.5
    assert table.prob((2, 3), (0, 0)) == 0.0


def test_no_signaling_passes_for_foil_tables():
    for table in (
        build_bipartite_table("nonlocal_os_3"),
        build_bipartite_table("nonlocal_os_n", 5),
        build_bipartite_table("pr_box"),
    ):
        assert check_no_signaling(table).max_violation < 1e-12


def test_cells_sharing_settings_have_one_context_and_no_payoff_table():
    # Two cells at settings (1, 1) that win on different outcomes: one
    # context, but no single distribution can stand for both cells.
    payoff = classical.GamePayoff(1, 1, [(1, 1), (1, 1)], [1, 1], 2, [(1, 0, 0, 0), (0, 0, 0, 1)])
    assert scenario.payoff_scenario(payoff).contexts == ((1, 2),)
    assert payoff.value(scenario.deterministic_table(scenario.payoff_scenario(payoff), (1, 1))) == 0.5
    with pytest.raises(ValueError, match="one cell per pair of settings"):
        scenario.foil_table(payoff)


def test_no_signaling_passes_for_quantum_tables():
    for table in (
        quantum.mermin_table(3),
        quantum.mermin_table(5),
        quantum.odd_cycle_table(3),
        quantum.odd_cycle_table(5),
    ):
        assert check_no_signaling(table).max_violation < 1e-12


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_quantum_tables_are_normalised_and_no_signaling(n):
    two_wing = [quantum.mermin_table(n), quantum.odd_cycle_table(n)]
    cycle = quantum.klyachko_table(n)
    for table in [cycle, *two_wing]:
        assert set(table.contexts) == set(table.scenario.contexts)
        for dist in table.probs.values():
            assert min(dist.values()) >= 0
            assert abs(sum(dist.values()) - 1) < 1e-12
    for table in two_wing:
        assert check_no_signaling(table).passed()
    # The star-polygon table has one wing, so check_no_signaling does not
    # apply; its analogue is that each measurement's marginal is the same in
    # both cycle contexts that contain it.
    for m in range(1, n + 1):
        first, second = (cycle.marginal(ctx, m) for ctx in cycle.scenario.contexts if m in ctx)
        assert max(abs(first[x] - second[x]) for x in (0, 1)) < 1e-12


def test_no_signaling_detects_maximal_signaling():
    scen = Scenario(3, ((1, 2), (1, 3)), wing_split=1)
    table = CorrelationTable(
        scen,
        {
            (1, 2): {(0, 0): 0.5, (0, 1): 0.5},  # p(A=0) = 1 under remote setting 2
            (1, 3): {(1, 0): 0.5, (1, 1): 0.5},  # p(A=0) = 0 under remote setting 3
        },
    )
    report = check_no_signaling(table)
    assert report.max_violation == pytest.approx(1.0)
    assert report.offenders


def test_no_signaling_lists_every_pair_of_contexts_that_disagree():
    # Measurement 1 reads 1 with probability 0.2, 0.2 and 0.7 under remote
    # settings 2, 3 and 4; measurement 2 agrees on one setting only.
    scen = Scenario(4, ((1, 2), (1, 3), (1, 4)), wing_split=1)
    table = CorrelationTable(scen, {
        (1, 2): {(0, 0): 0.8, (1, 0): 0.2},
        (1, 3): {(0, 1): 0.8, (1, 1): 0.2},
        (1, 4): {(0, 0): 0.3, (1, 0): 0.7},
    })
    report = check_no_signaling(table)
    assert report.max_violation == pytest.approx(0.5) and not report.passed()
    assert [entry[:3] for entry in report.offenders] == [(1, (1, 2), (1, 4)), (1, (1, 3), (1, 4))]
    assert [entry[3] for entry in report.offenders] == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("n", [33, 35])
def test_no_signaling_reads_measurements_past_64(n):
    # 2n measurements: wing B's labels run past 64, where a fixed-width
    # bitmask of a measurement set would wrap.
    for table in (quantum.mermin_table(n), quantum.odd_cycle_table(n), build_bipartite_table("nonlocal_os_n", n)):
        report = check_no_signaling(table)
        assert report.passed() and report.offenders == []
    # Only measurement 2n signals: it reads 1 under remote setting 1 and 0 under 2.
    scen = Scenario(2 * n, ((1, 2 * n - 1), (1, 2 * n), (2, 2 * n)), wing_split=n)
    table = CorrelationTable(scen, {
        (1, 2 * n - 1): {(0, 0): 1.0},
        (1, 2 * n): {(0, 1): 1.0},
        (2, 2 * n): {(0, 0): 0.5, (1, 0): 0.5},
    })
    report = check_no_signaling(table)
    assert report.max_violation == 1.0
    assert report.offenders == [(2 * n, (1, 2 * n), (2, 2 * n), 1.0)]


def test_no_signaling_requires_bipartite():
    with pytest.raises(ValueError):
        check_no_signaling(build_os_ncycle(3))


def test_os3_has_no_joint_distribution():
    result = joint_distribution_feasible(build_os_ncycle(3))
    assert not result.feasible
    assert result.certificate[0] == "odd-parity cycle"


def test_all_correlated_triangle_is_feasible():
    table = cycle_correlation_table([1, 1, 1])
    result = joint_distribution_feasible(table)
    assert result.feasible
    atoms = result.distribution.atoms
    # Supported only on the two constant valuations.
    assert set(atoms) <= {(0, 0, 0), (1, 1, 1)}
    assert sum(atoms.values()) == pytest.approx(1)


def test_pr_box_infeasible():
    result = joint_distribution_feasible(build_bipartite_table("pr_box"))
    assert not result.feasible


def test_feasible_distribution_round_trip():
    table = cycle_correlation_table([1, -1, -1, 1, 1])
    result = joint_distribution_feasible(table)
    assert result.feasible
    for ctx, dist in table.probs.items():
        recon = result.distribution.context_marginal(ctx)
        for outcome in itertools.product((0, 1), repeat=2):
            assert recon.get(outcome, 0.0) == pytest.approx(
                dist.get(outcome, 0.0), abs=1e-9
            )


def test_feasibility_matches_cycle_parity_small():
    for n in (3, 4, 5, 6):
        for signs in itertools.product((1, -1), repeat=n):
            table = cycle_correlation_table(signs)
            reference = full_lp_feasible(table)
            pruned = scenario._lp_feasible(table)
            result = joint_distribution_feasible(table)
            odd = signs.count(-1) % 2 == 1
            assert result.feasible == pruned.feasible == reference.feasible == (not odd)
            assert signet.is_frustrated(signet.cycle_graph(signs)).frustrated == odd
            if odd:
                assert result.certificate[0] == "odd-parity cycle"
                assert sorted(result.certificate[1]) == list(range(1, n + 1))
            else:
                assert result.certificate is None


@st.composite
def signed_pair_tables(draw):
    """Perfectly (anti)correlated pairs on 2 to 8 measurements: any graph,
    with isolated measurements, several components and absent contexts, whose
    rows are uniform, share one non-uniform weight q on the outcomes of a
    valuation y and of its complement (consistent marginals), or draw a
    weight per pair (marginals that may disagree)."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    present = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    absent = [p for p in pairs if p not in present and draw(st.booleans())]
    rows = draw(st.sampled_from(("uniform", "consistent", "per-pair")))
    weights = st.sampled_from((0.0, 0.2, 0.5, 0.7, 1.0))
    y = draw(st.tuples(*[st.integers(0, 1)] * n))
    q = draw(weights)
    probs = {}
    for a, b in present:
        if rows == "consistent":
            first, w = (y[a - 1], y[b - 1]), q
        else:
            first = (0, draw(st.integers(0, 1)))  # (0, 0) solid, (0, 1) dashed
            w = 0.5 if rows == "uniform" else draw(weights)
        probs[(a, b)] = {first: w, (1 - first[0], 1 - first[1]): 1 - w}
    return CorrelationTable(Scenario(n, tuple(present + absent)), probs)


@settings(max_examples=200, deadline=None)
@given(signed_pair_tables())
def test_signed_pair_route_matches_lp(table):
    reference = full_lp_feasible(table)
    pruned = scenario._lp_feasible(table)
    result = joint_distribution_feasible(table)
    assert result.feasible == pruned.feasible == reference.feasible
    _assert_certified(table, pruned)
    if result.feasible:
        for ctx, dist in table.probs.items():
            recon = result.distribution.context_marginal(ctx)
            for outcome in itertools.product((0, 1), repeat=2):
                assert abs(recon.get(outcome, 0.0) - dist.get(outcome, 0.0)) <= 1e-9
        assert result.certificate is None
    elif result.certificate is not None and result.certificate[0] == "odd-parity cycle":
        # A simple cycle of the table's graph with an odd number of dashed edges.
        signs = {frozenset((u, v)): s for u, v, s in scenario.table_signed_graph(table).edges}
        cycle = result.certificate[1]
        assert len(set(cycle)) == len(cycle) >= 3
        steps = [signs[frozenset(e)] for e in zip(cycle, cycle[1:] + cycle[:1])]
        assert steps.count(signet.DASHED) % 2 == 1
    else:
        _assert_certified(table, result)
    _assert_pair_route_matches_signed_graph(table)


def _assert_certified(table, result):
    """A feasible verdict carries no certificate, nor does an infeasible one
    decided on the table's zeros alone (at most one allowed atom); every other
    infeasible verdict of the numeric route carries a Farkas vector that holds
    on all 2^n atoms."""
    if result.feasible or scenario._allowed_atoms(table).size < 2:
        assert result.certificate is None
    else:
        assert_farkas(table, result.certificate)


def _assert_pair_route_matches_signed_graph(table):
    """The public route decides a table of perfectly (anti)correlated pairs as
    ``signet.is_frustrated`` decides its ``SignedGraph``: the same odd cycle,
    or for a balanced graph the valuation x, whose candidate 1/2 (x + not x)
    is the answer exactly when it reproduces every row, and the LP otherwise."""
    report = signet.is_frustrated(scenario.table_signed_graph(table))
    with mock.patch.object(scenario, "_lp_feasible", wraps=scenario._lp_feasible) as lp:
        result = joint_distribution_feasible(table)
    if report.frustrated:
        assert (result.feasible, result.certificate) == (False, ("odd-parity cycle", report.witness))
        assert lp.call_count == 0
        return
    x = [report.valuation.get(m, 0) for m in range(1, table.scenario.n_measurements + 1)]
    candidate = np.zeros((len(table.contexts), 4))
    for row, (a, b) in zip(candidate, table.contexts):
        row[[2 * x[a - 1] + x[b - 1], 3 - 2 * x[a - 1] - x[b - 1]]] = 0.5
    missed = np.abs(candidate.ravel() - table.vector).max(initial=0.0) > NUM_TOL
    assert lp.call_count == missed
    if missed:
        assert result.feasible == full_lp_feasible(table).feasible
    else:
        assert result.feasible and result.certificate is None
        assert list(result.distribution.atoms.items()) == [(tuple(x), 0.5), (tuple(1 - bit for bit in x), 0.5)]


def test_pair_route_matches_the_signed_graph_on_every_cycle_pattern():
    for n in range(3, 10):
        for signs in itertools.product((signet.SOLID, signet.DASHED), repeat=n):
            _assert_pair_route_matches_signed_graph(cycle_correlation_table(signs))


def _sign_product(table, cycle) -> int:
    """The product of the edge signs of the table's pairs around a cycle."""
    signs = {frozenset(ctx): signet.SOLID if table.prob(ctx, (0, 0)) + table.prob(ctx, (1, 1)) > 0.5
             else signet.DASHED for ctx in table.contexts}
    return math.prod(signs[frozenset(edge)] for edge in zip(cycle, cycle[1:] + cycle[:1]))


@pytest.mark.parametrize("n", [21, 1001])
def test_anticorrelation_cycles_past_the_lp_cap_are_infeasible(n):
    table = build_os_ncycle(n)
    with mock.patch.object(scenario, "_lp_feasible", side_effect=AssertionError("the LP ran")):
        result = joint_distribution_feasible(table)
    assert not result.feasible and result.distribution is None
    kind, cycle = result.certificate
    assert kind == "odd-parity cycle" and len(set(cycle)) == len(cycle) >= 3
    assert _sign_product(table, cycle) == -1


def test_balanced_cycle_past_the_lp_cap_is_two_atoms():
    n = 1001
    signs = [signet.DASHED if a % 4 == 0 else signet.SOLID for a in range(1, n + 1)]
    assert signs.count(signet.DASHED) % 2 == 0
    table = cycle_correlation_table(signs)
    with mock.patch.object(scenario, "_lp_feasible", side_effect=AssertionError("the LP ran")):
        result = joint_distribution_feasible(table)
    assert result.feasible and result.certificate is None
    assert sorted(result.distribution.atoms.values()) == [0.5, 0.5]
    for ctx, dist in table.probs.items():
        assert result.distribution.context_marginal(ctx) == dist


@st.composite
def tables_with_zeros(draw):
    """Pairs and triples on 3 to 10 measurements whose rows hold exact zeros:
    mixtures of two or three deterministic tables, or rows drawn entry by
    entry with zeros among the entries.  Some zero entries then become -0.0,
    which is still zero, and some 1e-16, which is not."""
    n = draw(st.integers(min_value=3, max_value=10))
    candidates = [*itertools.combinations(range(1, n + 1), 2), *itertools.combinations(range(1, n + 1), 3)]
    scen = Scenario(n, tuple(draw(st.lists(st.sampled_from(candidates), unique=True, min_size=1, max_size=8))))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
        points = [deterministic_table(scen, draw(st.tuples(*[st.integers(0, 1)] * n))) for _ in weights]
        contexts = points[0].contexts
        vector = sum(w * t.vector for w, t in zip(weights, points)) / sum(weights)
    else:
        contexts = scen.contexts
        rows = [
            draw(st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=1 << len(ctx), max_size=1 << len(ctx)).filter(any))
            for ctx in contexts
        ]
        vector = np.concatenate([np.array(row, dtype=float) / sum(row) for row in rows])
    for i in np.flatnonzero(vector == 0).tolist():
        vector[i] = draw(st.sampled_from((0.0, -0.0, 1e-16)))
    return CorrelationTable.from_vector(scen, contexts, vector)


def _brute_force_allowed(table) -> set:
    """Every atom, as its bits measurement 1 first, whose outcome on each
    present context has nonzero probability and that sets each measurement no
    present context names to 0."""
    n = table.scenario.n_measurements
    # probs keeps the nonzero outcomes of each context, 1e-16 included.
    probs = table.probs
    named = {m for ctx in probs for m in ctx}
    return {
        atom for atom in itertools.product((0, 1), repeat=n)
        if all(atom[m - 1] == 0 for m in range(1, n + 1) if m not in named)
        and all(tuple(atom[m - 1] for m in ctx) in dist for ctx, dist in probs.items())
    }


def _assert_enumerates(table, allowed):
    """The enumerated atoms are the allowed ones, unnamed measurements at 0,
    as increasing int32 (atom i sets measurement m to bit m-1 of i, so
    measurement n is most significant)."""
    n = table.scenario.n_measurements
    atoms = scenario._allowed_atoms(table)
    assert atoms.dtype == np.int32
    bits = [tuple(a >> j & 1 for j in range(n)) for a in atoms.tolist()]
    assert bits == sorted(allowed, key=lambda atom: atom[::-1])


@settings(max_examples=200, deadline=None)
@given(tables_with_zeros())
def test_pruned_lp_matches_full_lp_on_tables_with_zeros(table):
    allowed = _brute_force_allowed(table)
    _assert_enumerates(table, allowed)
    with mock.patch.object(scenario, "nnls", wraps=scenario.nnls) as solve:
        pruned = scenario._lp_feasible(table)
    # The solve runs, on a column per allowed atom, only when two or more atoms
    # are allowed and the contexts agree on every set they share.
    solved = len(allowed) > 1 and max_consistency_gap(table) <= NUM_TOL
    assert [call.args[0].shape[1] for call in solve.call_args_list] == ([len(allowed)] if solved else [])
    reference = full_lp_feasible(table)
    assert pruned.feasible == reference.feasible, table.to_json()
    _assert_certified(table, pruned)
    if pruned.feasible:
        assert set(pruned.distribution.atoms) <= allowed
        for ctx in table.contexts:
            recon = pruned.distribution.context_marginal(ctx)
            for outcome in itertools.product((0, 1), repeat=len(ctx)):
                assert abs(recon.get(outcome, 0.0) - table.prob(ctx, outcome)) <= NUM_TOL


@pytest.mark.parametrize("table", [
    *(quantum.mermin_table(n) for n in (3, 5, 7)),
    *(quantum.odd_cycle_table(n) for n in (3, 5)),
    *(quantum.klyachko_table(n) for n in (5, 7, 9)),
], ids=lambda t: f"{len(t.contexts)}-contexts-n{t.scenario.n_measurements}")
def test_pruned_lp_matches_full_lp_on_quantum_tables(table):
    _assert_enumerates(table, _brute_force_allowed(table))
    result = scenario._lp_feasible(table)
    assert result.feasible == full_lp_feasible(table).feasible
    if table.scenario.n_measurements <= 12:
        _assert_certified(table, result)
    else:
        assert result.certificate[0] == "farkas"


def test_point_tables_are_decided_without_a_solve():
    rng = np.random.default_rng(29)
    for n in (4, 7, 12, scenario.MAX_JOINT_MEASUREMENTS):
        scen = Scenario(n, tuple((a, a % n + 1, (a + 1) % n + 1) for a in range(1, n + 1)))
        bits = tuple(rng.integers(0, 2, size=n).tolist())
        with mock.patch.object(scenario, "nnls") as solve:
            result = joint_distribution_feasible(deterministic_table(scen, bits))
        assert solve.call_count == 0
        assert result.feasible and result.certificate is None
        assert result.distribution.atoms == {bits: 1.0}


@pytest.mark.parametrize("moved", [2e-9, 1e-8, 1e-7])
def test_point_table_with_mass_moved_off_its_atom_is_infeasible(moved):
    # Outcome (0, 0, 1) of context (1, 2, 3) gets the mass; context (2, 3, 4)
    # keeps measurement 3 at 0, so the point's atom is still the only one.
    scen = Scenario(4, ((1, 2, 3), (2, 3, 4)))
    vector = deterministic_table(scen, (0, 0, 0, 0)).vector.copy()
    vector[:2] += (-moved, moved)
    table = CorrelationTable.from_vector(scen, scen.contexts, vector)
    assert scenario._allowed_atoms(table).tolist() == [0]
    with mock.patch.object(scenario, "nnls") as solve:
        result = joint_distribution_feasible(table)
    assert solve.call_count == 0
    assert not result.feasible and result.distribution is None and result.certificate is None


def test_table_without_present_contexts_is_feasible():
    table = CorrelationTable(Scenario(3, ((1, 2), (2, 3))), {})
    result = joint_distribution_feasible(table)
    assert result.feasible
    assert result.certificate is None
    assert sum(result.distribution.atoms.values()) == pytest.approx(1)


def test_balanced_table_with_inconsistent_marginals_is_infeasible():
    # A solid path 1-2-3 whose two rows give measurement 2 the marginals 0.7 and 0.4.
    scen = Scenario(3, ((1, 2), (2, 3)))
    table = CorrelationTable(scen, {(1, 2): {(0, 0): 0.7, (1, 1): 0.3}, (2, 3): {(0, 0): 0.4, (1, 1): 0.6}})
    assert not signet.is_frustrated(scenario.table_signed_graph(table))
    with mock.patch.object(scenario, "nnls", side_effect=AssertionError("the solver ran")):
        result = joint_distribution_feasible(table)
    assert not result.feasible
    assert_farkas(table, result.certificate)
    # +1 on the rows of (2, 3) where measurement 2 reads 1, -1 on those of (1, 2).
    assert result.certificate[1] == (0, -1, 0, -1, 0, 0, 1, 1, 0)


def test_point_distributions_always_feasible():
    # Outcome-deterministic valuations induce tables with a joint distribution.
    rng = np.random.default_rng(17)
    for n in (3, 5, 7, 9):
        scen = scenario.Scenario(n, tuple((a, a % n + 1) for a in range(1, n + 1)))
        for _ in range(5):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            result = joint_distribution_feasible(deterministic_table(scen, bits))
            assert result.feasible
            assert result.distribution.atoms[bits] == pytest.approx(1.0, abs=1e-9)


def test_joint_feasibility_size_limit():
    # 20 is one past the measured cap: a table that reaches the LP is refused
    # before any atom is enumerated.  A balanced path of solid pairs whose rows
    # are not uniform misses the two-atom candidate; a triple has no signed graph.
    for n in (20, 21):
        path = Scenario(n, tuple((a, a + 1) for a in range(1, n)))
        skewed = CorrelationTable(path, {ctx: {(0, 0): 0.3, (1, 1): 0.7} for ctx in path.contexts})
        triple = CorrelationTable(Scenario(n, ((1, 2, 3),)), {(1, 2, 3): {(0, 1, 1): 1.0}})
        for table in (skewed, triple):
            with mock.patch.object(scenario, "_allowed_atoms", side_effect=AssertionError("atoms built")):
                with pytest.raises(ValueError, match="exceeds the supported limit"):
                    joint_distribution_feasible(table)


def test_marginal_problem_refuses_a_matrix_past_its_memory_budget():
    # A fully supported context of 14 measurements and a consistent pair that
    # shares measurement 14 with it: 2^14 + 1 subset rows and normalisation by
    # 2^15 atoms, 4.3 GB in float64, refused before the matrix is built.
    rng = np.random.default_rng(5)
    big = tuple(range(1, 15))
    block = rng.dirichlet(np.ones(1 << 14))
    p = float(block[1::2].sum())  # measurement 14 is the last bit of an outcome
    scen = Scenario(15, (big, (14, 15)))
    table = CorrelationTable.from_vector(scen, scen.contexts, np.append(block, [(1 - p) / 2] * 2 + [p / 2] * 2))
    with mock.patch.object(scenario, "_shared_rows", side_effect=AssertionError("matrix built")):
        with pytest.raises(ValueError, match="16386 rows by 32768 atoms"):
            joint_distribution_feasible(table)


@pytest.mark.parametrize("moved", [0.0, 1e-3])
def test_point_table_with_an_unnamed_measurement_is_decided_without_a_solve(moved):
    # Context (1, 4) is absent, so no present context names measurement 4:
    # atom 0 is the only one, and without moved mass the point's valuation.
    scen = Scenario(5, ((1, 2, 3), (2, 3, 5), (1, 4)))
    vector = np.zeros(16)
    vector[[0, 8]] = 1.0
    vector[:2] += (-moved, moved)
    table = CorrelationTable.from_vector(scen, scen.contexts[:2], vector)
    assert scenario._allowed_atoms(table).tolist() == [0]
    with mock.patch.object(scenario, "nnls", side_effect=AssertionError("the solver ran")):
        result = joint_distribution_feasible(table)
    assert result.feasible == full_lp_feasible(table).feasible == (moved == 0.0)
    assert result.certificate is None
    if result.feasible:
        assert result.distribution.atoms == {(0,) * 5: 1.0}


def test_infeasible_table_without_signed_graph_has_a_farkas_certificate():
    table = quantum.mermin_table(3)
    result = joint_distribution_feasible(table)
    assert not result.feasible and result.distribution is None
    assert_farkas(table, result.certificate)
    assert not hasattr(result, "objective")


def _noisy(table, v):
    """v of the table mixed with 1 - v of uniform noise on every present context."""
    noise = np.concatenate([np.full(1 << len(ctx), 0.5 ** len(ctx)) for ctx in table.contexts])
    return CorrelationTable.from_vector(table.scenario, table.contexts, v * table.vector + (1 - v) * noise)


def _cycle_threshold(table) -> float:
    """The largest v at which v of an n-cycle table whose correlators are all
    negative, mixed with noise, is noncontextual: (n - 2) / sum |c_i|
    (Araujo et al., PRA 88, 022118 (2013))."""
    rows = table.vector.reshape(-1, 4)
    return (len(table.contexts) - 2) / np.abs(rows[:, 0] + rows[:, 3] - rows[:, 1] - rows[:, 2]).sum()


@pytest.mark.parametrize("kind, n, v", [("pr_box", None, 0.75), ("nonlocal_os_n", 3, 0.9), ("nonlocal_os_n", 5, 0.9)])
def test_noisy_foil_tables_carry_farkas_certificates(kind, n, v):
    # Past the local bound, so no joint distribution; the noise leaves no zero
    # entry, so every atom is allowed and the table goes to the solve.
    table = _noisy(build_bipartite_table(kind, n), v)
    assert scenario._allowed_atoms(table).size == 1 << table.scenario.n_measurements
    result = joint_distribution_feasible(table)
    assert not result.feasible and not full_lp_feasible(table).feasible
    assert_farkas(table, result.certificate)


_BOUNDARY_STEPS = (1e-5, 3e-6, 1e-6, 3e-7, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 0.0, -1e-9, -1e-8, -3e-8, -1e-7)


@pytest.mark.parametrize("table, boundary", [
    (quantum.mermin_table(3), 0.8),
    *((quantum.klyachko_table(n), _cycle_threshold(quantum.klyachko_table(n))) for n in (5, 7)),
], ids=["mermin3", "klyachko5", "klyachko7"])
def test_noisy_tables_near_the_boundary_get_a_checked_verdict(table, boundary):
    # Inside the boundary every table is feasible, its weights reproducing
    # every row (mermin_table(3) at v = 0.7999999 once raised ValueError);
    # 1e-6 or more outside, infeasible with a Farkas vector that holds (v =
    # 0.80001).  Between, a verdict is checked the same way, and RuntimeError
    # marks a residual too small to certify; ValueError never comes.
    for step in _BOUNDARY_STEPS:
        noisy = _noisy(table, boundary + step)
        try:
            result = joint_distribution_feasible(noisy)
        except RuntimeError as exc:
            assert 0 < step < 1e-6 and "undecided" in str(exc), step
            continue
        assert result.feasible == (step <= 0) or 0 < step < 1e-6, step
        if result.feasible:
            for ctx in noisy.contexts:
                recon = result.distribution.context_marginal(ctx)
                for outcome in itertools.product((0, 1), repeat=len(ctx)):
                    assert abs(recon.get(outcome, 0.0) - noisy.prob(ctx, outcome)) <= NUM_TOL
        else:
            assert_farkas(noisy, result.certificate)


@pytest.mark.parametrize("moved", [2e-9, 1e-8, 5e-8, 1e-7])
def test_contexts_that_disagree_past_the_tolerance_are_inconsistent(moved):
    # The half-and-half mixture of the all-0 and all-1 point tables on
    # (1, 2, 3), (2, 3, 4), with mass moved from outcome 000 to 111 of the
    # first context: atoms 0 and 15 are allowed, and the contexts disagree on
    # P(2 and 3 read 1) by the moved mass, which passes NUM_TOL.
    scen = Scenario(4, ((1, 2, 3), (2, 3, 4)))
    vector = (deterministic_table(scen, (0,) * 4).vector + deterministic_table(scen, (1,) * 4).vector) / 2
    vector[[0, 7]] += (-moved, moved)
    table = CorrelationTable.from_vector(scen, scen.contexts, vector)
    assert scenario._allowed_atoms(table).tolist() == [0, 15]
    with mock.patch.object(scenario, "nnls", side_effect=AssertionError("the solver ran")):
        result = joint_distribution_feasible(table)
    assert not result.feasible and max_consistency_gap(table) > NUM_TOL
    assert_farkas(table, result.certificate)
    assert set(result.certificate[1]) == {-1, 0, 1}


@st.composite
def pair_triple_scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    candidates = list(itertools.combinations(range(1, n + 1), 2))
    candidates += itertools.combinations(range(1, n + 1), 3)
    contexts = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=12, unique=True))
    return Scenario(n, tuple(contexts))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mixtures_of_deterministic_tables_are_feasible(data):
    # A convex mixture of valuations is a joint distribution, so the LP must
    # find one; a single valuation is the deterministic case.
    scen = data.draw(pair_triple_scenarios())
    valuation = st.tuples(*[st.integers(0, 1)] * scen.n_measurements)
    valuations = data.draw(st.lists(valuation, min_size=1, max_size=4))
    weights = data.draw(st.lists(st.integers(1, 9), min_size=len(valuations), max_size=len(valuations)))
    probs = {}
    for ctx in scen.contexts:
        dist = probs.setdefault(ctx, {})
        for bits, w in zip(valuations, weights):
            outcome = tuple(bits[i - 1] for i in ctx)
            dist[outcome] = dist.get(outcome, 0.0) + w / sum(weights)
    table = CorrelationTable(scen, probs)
    result = joint_distribution_feasible(table)
    assert result.feasible
    for ctx, dist in table.probs.items():
        recon = result.distribution.context_marginal(ctx)
        for outcome in set(recon) | set(dist):
            assert abs(recon.get(outcome, 0.0) - dist.get(outcome, 0.0)) <= 1e-9


def test_solve_anticorrelation_constraints_forces_half():
    for n in (3, 5):
        table = solve_anticorrelation_constraints(n)
        reference = build_os_ncycle(n)
        assert table.probs == reference.probs
        for ctx in table.scenario.contexts:
            for m in ctx:
                assert table.marginal(ctx, m)[0] == pytest.approx(0.5)


def test_table_validation_rejects_bad_input():
    scen = Scenario(2, ((1, 2),))
    with pytest.raises(ValueError):
        CorrelationTable(scen, {(1, 2): {(0, 1): 0.6, (1, 0): 0.5}})
    with pytest.raises(ValueError):
        CorrelationTable(scen, {(1, 2): {(0, 1): -0.1, (1, 0): 1.1}})
    with pytest.raises(ValueError):
        Scenario(2, ((1, 2), (2, 1)))  # duplicate context after sorting


@st.composite
def context_lists(draw):
    """A measurement count and a list of contexts mixing valid ones with empty,
    repeated-measurement, out-of-range and (after sorting) duplicate ones."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(1, n), st.integers(-1, n + 2))
    pool = draw(st.lists(st.lists(entry, max_size=4), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=10))
    return n, tuple(tuple(draw(st.permutations(pool[i]))) for i in picks)


@settings(max_examples=400, deadline=None)
@given(context_lists())
def test_scenario_canonicalises_like_the_per_context_loop(case):
    n, contexts = case
    try:
        expected = loop_contexts(n, contexts)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Scenario(n, contexts)
        assert str(got.value) == str(exc)
    else:
        assert Scenario(n, contexts).contexts == expected


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_tables_and_joint_distributions_reject_non_finite_probabilities(p):
    with pytest.raises(ValueError):
        CorrelationTable.from_json(
            '{"n":2,"contexts":[[1,2]],"probs":{"1,2":{"00":%s}}}' % json.dumps(p)
        )
    with pytest.raises(ValueError):
        CorrelationTable(Scenario(2, ((1, 2),)), {(1, 2): {(0, 0): 1.0, (1, 1): p}})
    with pytest.raises(ValueError):
        scenario.JointDistribution(1, {(0,): 1.0, (1,): p})
    with pytest.raises(ValueError):
        scenario.JointDistribution(1, {(0,): p})


def test_out_of_order_context_keys_keep_each_bit_with_its_measurement():
    # Key (2, 1) with outcome (0, 1) means X2 = 0 and X1 = 1.
    table = CorrelationTable(Scenario(2, ((1, 2),)), {(2, 1): {(0, 1): 1.0}})
    assert table.probs == {(1, 2): {(1, 0): 1.0}}
    assert table.marginal((2, 1), 1) == {0: 0.0, 1: 1.0}
    assert table.marginal((1, 2), 2) == {0: 1.0, 1: 0.0}
    assert table.prob((2, 1), (0, 1)) == 1.0
    assert table.prob((1, 2), (1, 0)) == 1.0
    assert table.prob((2, 1), (1, 0)) == 0.0
    triple = CorrelationTable(Scenario(3, ((1, 2, 3),)), {(3, 1, 2): {(1, 0, 0): 1.0}})
    assert triple.probs == {(1, 2, 3): {(0, 0, 1): 1.0}}
    assert triple.prob((2, 3, 1), (0, 1, 0)) == 1.0


def test_two_keys_for_one_context_are_rejected():
    with pytest.raises(ValueError, match="two keys"):
        CorrelationTable(Scenario(2, ((1, 2),)), {(1, 2): {(0, 0): 1.0}, (2, 1): {(0, 1): 1.0}})
    with pytest.raises(ValueError, match="two keys"):
        CorrelationTable.from_json('{"n":2,"contexts":[[1,2]],"probs":{"1,2":{"00":1.0},"2,1":{"01":1.0}}}')


_JSON_TABLE = {"n": 2, "contexts": [[1, 2]], "probs": {"1,2": {"01": 0.5, "10": 0.5}}, "wings": 1}


@pytest.mark.parametrize("field, value", [
    ("n", 2.7), ("n", "2"), ("wings", True), ("contexts", [[1, 2.0]]),
    ("probs", []), ("probs", {"1,2": [1.0]}),
    ("probs", {"1,2": {"00": True}}), ("probs", {"1,2": {"00": "1"}}), ("probs", {"1,2": {"00": None}}),
])
def test_table_json_rejects_malformed_fields(field, value):
    assert CorrelationTable.from_json_dict(_JSON_TABLE).prob((1, 2), (0, 1)) == 0.5
    with pytest.raises(ValueError):
        CorrelationTable.from_json_dict({**_JSON_TABLE, field: value})


# Table documents near the accepted shape: small measurement counts, context
# keys and outcome keys that are often, but not always, well formed.
_CONTEXT_KEYS = st.sampled_from(["1,2", "2,1", "1", "2", "1,2,3", "1,1", "", "1,", "x"]) | st.text(max_size=4)
_OUTCOME_KEYS = st.sampled_from(["00", "01", "10", "11", "0", "1", "2", "", "-1"]) | st.text(max_size=3)
_PROBABILITIES = st.sampled_from([0, 1, 0.5, 1.0, 1e308]) | JSON_SCALARS
TABLE_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {
        "n": st.integers(0, 4) | JSON_VALUES,
        "contexts": JSON_VALUES | st.lists(st.lists(st.integers(0, 4) | JSON_SCALARS, max_size=3), max_size=3),
        "probs": JSON_VALUES | st.dictionaries(
            _CONTEXT_KEYS, JSON_VALUES | st.dictionaries(_OUTCOME_KEYS, _PROBABILITIES, max_size=4), max_size=3),
    },
    optional={"wings": st.integers(0, 3) | JSON_VALUES},
)


@settings(max_examples=300, deadline=None)
@given(doc=TABLE_DOCS)
@example(doc={"n": 2, "contexts": 5, "probs": {}})
@example(doc={"n": 2, "contexts": [[1, 2]]})
@example(doc=[1, 2])
@example(doc={"n": 2, "contexts": [[1, 2]], "probs": {"1,2": {"00": 1e308, "11": 1e308}}})
@example(doc={"n": 2, "contexts": [[1, 2]], "probs": {"1,2": {"00": 10**400}}})
@example(doc={"n": 2, "contexts": [[1, 2]], "probs": {"1,2": {"01": 0.5, "10": 0.5}}})
def test_table_json_refuses_every_malformed_document_with_value_error(doc):
    # Any other exception, or a RuntimeWarning (an error under this suite's
    # warning filters), fails the test.
    doc = json.loads(json.dumps(doc))
    try:
        table = CorrelationTable.from_json_dict(doc)
    except ValueError:
        return
    clone = CorrelationTable.from_json(table.to_json())
    assert clone.contexts == table.contexts and (clone.vector == table.vector).all()


def test_outcome_bits_outside_zero_one_are_rejected():
    # A bit of -1 or 0.5 once read or wrote another outcome's entry.
    table = build_os_ncycle(3)
    for bad in ((-1, 1), (0.5, 0), (2, 0)):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            table.prob((1, 2), bad)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        CorrelationTable(Scenario(2, ((1, 2),)), {(1, 2): {(0, 0): 0.5, (-1, 1): 0.5}})
    assert table.prob((1, 2), (0, 1)) == table.prob((1, 2), (False, True)) == 0.5


def test_mapping_tables_refuse_contexts_past_the_lp_cap():
    # A context's block holds 2^|ctx| probabilities.
    n = scenario.MAX_JOINT_MEASUREMENTS + 1
    scen = Scenario(n, (tuple(range(1, n + 1)),))
    with pytest.raises(ValueError, match="exceeds"):
        CorrelationTable(scen, {scen.contexts[0]: {(0,) * n: 1.0}})


def test_vector_tables_check_their_length():
    with pytest.raises(ValueError, match="need 8 probabilities"):
        CorrelationTable.from_vector(scenario.cycle_scenario(3), ((1, 2), (2, 3)), [0.25] * 4)


def test_only_foreign_context_lists_are_checked_against_the_scenario(monkeypatch):
    # The scenario's own context tuple names no context outside it, so its
    # tables build no membership set; any other list is still checked.
    scen = scenario.cycle_scenario(3)
    checked = []

    def spy(*args):
        checked.extend(arg is scen.contexts for arg in args)
        return set(*args)

    monkeypatch.setattr(scenario, "set", spy, raising=False)
    rows = np.tile([0.5, 0.0, 0.0, 0.5], (3, 1))
    own = CorrelationTable.from_vector(scen, scen.contexts, rows)
    assert checked == []
    copy = CorrelationTable.from_vector(scen, list(scen.contexts), rows)
    assert checked == [True] and np.array_equal(copy.vector, own.vector)
    with pytest.raises(ValueError, match=r"^context \(1, 3\) is not part of the scenario$"):
        CorrelationTable.from_vector(scenario.cycle_scenario(4), [(1, 3)], rows[0])


def test_tables_over_one_context_list_share_one_read_only_layout():
    assert scenario.cycle_scenario(7) is scenario.cycle_scenario(7)
    scen = scenario.cycle_scenario(7)
    rows = np.tile([0.5, 0.0, -1e-16, 0.5], (7, 1))
    first, second = cycle_correlation_table((-1,) * 7), CorrelationTable.from_vector(scen, scen.contexts, rows)
    layout = scenario._layout(scen.contexts)
    assert first._start is second._start is layout.start and first.contexts is second.contexts
    assert not layout.offsets.flags.writeable and not layout.index.flags.writeable
    # Each table checks and clamps a copy of its own.
    assert not np.shares_memory(second.vector, rows) and second.vector[2] == 0.0 and rows[0, 2] < 0
    assert quantum.mermin_table(5)._start is quantum.mermin_table(5)._start
    scenario._layout.cache_clear()
    scenario.cycle_scenario.cache_clear()
    rebuilt = cycle_correlation_table((-1,) * 7)
    assert rebuilt._start is not first._start and rebuilt.scenario is not first.scenario
    assert rebuilt.scenario == first.scenario and rebuilt.contexts == first.contexts
    assert list(rebuilt._start.items()) == list(first._start.items())
    assert rebuilt.vector.tobytes() == first.vector.tobytes()


def _dict_table(scen, probs):
    """Oracle: the mapping constructor from when a table was a dict of dicts,
    checking each entry in turn."""
    clean = {}
    known = set(scen.contexts)
    for given, dist in probs.items():
        ctx = tuple(sorted(given))
        if ctx not in known:
            raise ValueError(f"context {ctx} is not part of the scenario")
        total = 0.0
        table = {}
        for outcome, p in dist.items():
            outcome = tuple(int(b) for b in outcome)
            if len(outcome) != len(ctx) or any(b not in (0, 1) for b in outcome):
                raise ValueError(f"bad outcome {outcome} for context {ctx}")
            outcome = outcome if ctx == given else scenario._in_order(given, outcome)[1]
            p = float(p)
            if not PROB_FLOOR <= p < math.inf:
                raise ValueError(f"negative or non-finite probability {p}")
            table[outcome] = max(p, 0.0)
            total += table[outcome]
        if abs(total - 1.0) > STRUCT_TOL:
            raise ValueError(f"context {ctx} is not normalized")
        clean[ctx] = table
    return clean


def _dict_prob(clean, context, outcome):
    """Oracle: prob over that dict of dicts."""
    dist = clean.get(tuple(context))
    if dist is None:
        context, outcome = scenario._in_order(context, outcome)
        dist = clean[context]
    return dist.get(tuple(outcome), 0.0)


_SPECIAL_PROBS = [math.nan, math.inf, -math.inf, -0.0, PROB_FLOOR / 10, PROB_FLOOR * 10]


@st.composite
def dict_tables(draw):
    """Random tables as context -> {outcome: p}: pairs and triples, keys in any
    measurement order, outcomes in any order with zeros listed or left out,
    some rows scaled off normalisation and some entries non-finite or negative."""
    scen = draw(pair_triple_scenarios())
    probs = {}
    for ctx in draw(st.lists(st.sampled_from(scen.contexts), unique=True)):
        size = 1 << len(ctx)
        weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(sum))
        scale = draw(st.sampled_from([1.0, 1.0, 1.0, 0.5, 1 + 1e-9]))
        row = [scale * w / sum(weights) for w in weights]
        if draw(st.booleans()):
            # On an outcome of weight 0, -0.0 and noise above the floor leave the row normalised.
            zeros = [i for i, w in enumerate(weights) if w == 0]
            at = draw(st.sampled_from(zeros) if zeros and draw(st.booleans()) else st.integers(0, size - 1))
            row[at] = draw(st.sampled_from(_SPECIAL_PROBS))
        perm = draw(st.permutations(range(len(ctx))))
        dist = {
            tuple(outcome[i] for i in perm): p
            for outcome, p in zip(itertools.product((0, 1), repeat=len(ctx)), row)
            if p != 0 or draw(st.booleans())
        }
        order = draw(st.permutations(list(dist)))
        probs[tuple(ctx[i] for i in perm)] = {outcome: dist[outcome] for outcome in order}
    return scen, probs


@settings(max_examples=300, deadline=None)
@given(dict_tables())
def test_vector_tables_match_the_dict_oracle(case):
    scen, probs = case
    try:
        clean = _dict_table(scen, probs)
    except ValueError:
        with pytest.raises(ValueError):
            CorrelationTable(scen, probs)
        return
    table = CorrelationTable(scen, probs)
    assert table.contexts == tuple(sorted(clean))
    for key in probs:
        for outcome in itertools.product((0, 1), repeat=len(key)):
            assert table.prob(key, outcome) == _dict_prob(clean, key, outcome)
            assert table.prob(sorted(key), outcome) == _dict_prob(clean, sorted(key), outcome)
    assert table.probs == {ctx: {o: p for o, p in dist.items() if p} for ctx, dist in clean.items()}
    # The same rows handed over as one vector, the contexts in the keys' order.
    vector = [
        dist.get(o, 0.0) for ctx, dist in clean.items() for o in itertools.product((0, 1), repeat=len(ctx))
    ]
    same = CorrelationTable.from_vector(scen, list(clean), vector)
    assert np.array_equal(same.vector, table.vector)


def test_json_round_trip():
    for table in (build_os_ncycle(3), build_bipartite_table("nonlocal_os_n", 5)):
        clone = CorrelationTable.from_json(table.to_json())
        assert clone.probs == table.probs
        assert clone.scenario == table.scenario
    doc = build_os_ncycle(3).to_json_dict()
    assert doc["n"] == 3
    assert doc["probs"]["1,2"]["01"] == 0.5


def test_builder_outputs_are_normalized():
    tables = [
        build_os_ncycle(7),
        build_bipartite_table("pr_box"),
        build_bipartite_table("nonlocal_os_n", 7),
        solve_anticorrelation_constraints(5),
    ]
    for table in tables:
        for dist in table.probs.values():
            assert sum(dist.values()) == pytest.approx(1, abs=1e-12)
            assert all(p >= 0 for p in dist.values())


def test_quantum_tables_admit_no_joint_distribution():
    # The Born-rule statistics themselves violate the cycle bound R <= 1-1/n
    # (and the two-wing bound 7/9), so the atom LP must report infeasibility.
    assert not joint_distribution_feasible(quantum.klyachko_table(5)).feasible
    assert not joint_distribution_feasible(quantum.mermin_table(3)).feasible
    assert not joint_distribution_feasible(
        scenario.build_bipartite_table("nonlocal_os_3")
    ).feasible


def test_subcritical_anticorrelation_cycle_is_feasible():
    # Mixing the anti-correlation cycle toward uniform noise below the
    # noncontextual bound restores a joint distribution (R = 1-1/n exactly).
    n = 5
    scen = Scenario(n, tuple((a, a % n + 1) for a in range(1, n + 1)))
    r = 1 - 1 / n
    anti, corr = r / 2, (1 - r) / 2
    table = CorrelationTable(
        scen,
        {
            ctx: {(0, 1): anti, (1, 0): anti, (0, 0): corr, (1, 1): corr}
            for ctx in scen.contexts
        },
    )
    assert joint_distribution_feasible(table).feasible


def test_feasibility_boundary_is_tight():
    # Just above the bound R = 1-1/n the LP is infeasible; at the bound it
    # is feasible (tested above), pinning the threshold from both sides.
    n = 5
    scen = Scenario(n, tuple((a, a % n + 1) for a in range(1, n + 1)))
    r = 1 - 1 / n + 0.01
    anti, corr = r / 2, (1 - r) / 2
    table = CorrelationTable(
        scen,
        {
            ctx: {(0, 1): anti, (1, 0): anti, (0, 0): corr, (1, 1): corr}
            for ctx in scen.contexts
        },
    )
    assert not joint_distribution_feasible(table).feasible


def test_unknown_bipartite_kind_rejected():
    with pytest.raises(ValueError):
        build_bipartite_table("unknown_kind")
    with pytest.raises(ValueError):
        build_bipartite_table("nonlocal_os_n", 4)
