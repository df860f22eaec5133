import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seer_lab.signet import (
    DASHED,
    SOLID,
    Arc,
    DirectedImplicationGraph,
    SignedGraph,
    chained_cycle,
    check_implication_chain,
    cycle_graph,
    enumerate_frustrated_cycles,
    gauge_transform,
    is_frustrated,
)


def test_all_dashed_triangle_is_frustrated():
    report = is_frustrated(cycle_graph([DASHED, DASHED, DASHED]))
    assert report.frustrated
    assert len(report.witness) == 3


def test_two_dashed_triangle_is_not_frustrated():
    assert not is_frustrated(cycle_graph([DASHED, DASHED, SOLID])).frustrated


def test_square_with_one_dashed_edge_is_frustrated():
    assert is_frustrated(cycle_graph([DASHED, SOLID, SOLID, SOLID])).frustrated


def test_path_graph_is_not_frustrated():
    g = SignedGraph(4, ((1, 2, DASHED), (2, 3, DASHED), (3, 4, DASHED)))
    assert not is_frustrated(g).frustrated


def test_witness_cycle_has_odd_dashed_parity():
    g = SignedGraph(
        5,
        (
            (1, 2, SOLID),
            (2, 3, DASHED),
            (3, 1, SOLID),
            (3, 4, DASHED),
            (4, 5, DASHED),
            (5, 3, DASHED),
        ),
    )
    report = is_frustrated(g)
    assert report.frustrated
    cycle = report.witness
    signs = {}
    for u, v, s in g.edges:
        signs[(u, v)] = signs[(v, u)] = s
    dashed = sum(
        signs[(cycle[i], cycle[(i + 1) % len(cycle)])] == DASHED
        for i in range(len(cycle))
    )
    assert dashed % 2 == 1


def test_cycle_parity_rule_exhaustive():
    for n in range(3, 11):
        for signs in itertools.product((SOLID, DASHED), repeat=n):
            frustrated = is_frustrated(cycle_graph(signs)).frustrated
            assert frustrated == (signs.count(DASHED) % 2 == 1)


def test_graph_validation():
    with pytest.raises(ValueError):
        SignedGraph(3, ((1, 1, SOLID),))
    with pytest.raises(ValueError):
        SignedGraph(3, ((1, 2, SOLID), (2, 1, DASHED)))
    with pytest.raises(ValueError):
        SignedGraph(2, ((1, 3, SOLID),))


def test_gauge_transform_identity_and_flip():
    g = cycle_graph([DASHED, DASHED, DASHED])
    assert gauge_transform(g, set()).edges == g.edges
    flipped = gauge_transform(g, {1})
    signs = sorted(s for _, _, s in flipped.edges)
    assert signs.count(DASHED) == 1  # edges (1,2) and (1,3) flip, (2,3) stays
    assert is_frustrated(flipped).frustrated


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gauge_invariance_of_frustration(data):
    n = data.draw(st.integers(min_value=3, max_value=8))
    possible = list(itertools.combinations(range(1, n + 1), 2))
    chosen = data.draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    edges = tuple(
        (u, v, data.draw(st.sampled_from((SOLID, DASHED)))) for u, v in chosen
    )
    g = SignedGraph(n, edges)
    flips = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
    report = is_frustrated(g)
    assert is_frustrated(gauge_transform(g, flips)).frustrated == report.frustrated
    if not report.frustrated:
        # The balance valuation satisfies every edge: equal bits across a
        # solid edge, different bits across a dashed one.  It values only the
        # nodes that have edges.
        x = report.valuation
        assert x.keys() == g.adjacency().keys() and set(x.values()) <= {0, 1}
        assert all((x[u] ^ x[v]) == (s == DASHED) for u, v, s in g.edges)


def test_adjacency_lists_only_nodes_with_edges():
    # Isolated nodes close no cycle, so the frustration search never visits them.
    g = SignedGraph(10, ((7, 3, DASHED), (3, 5, SOLID)))
    assert g.adjacency() == {7: [(3, DASHED)], 3: [(7, DASHED), (5, SOLID)], 5: [(3, SOLID)]}
    assert not is_frustrated(g).frustrated


def test_json_round_trip():
    g = cycle_graph([DASHED, SOLID, DASHED, SOLID, DASHED])
    doc = g.to_json_dict()
    assert doc["edges"][0] == [1, 2, "-"]
    assert SignedGraph.from_json_dict(doc) == g


def test_enumerate_frustrated_cycles():
    report3 = enumerate_frustrated_cycles(3)
    assert report3.frustrated_patterns == 4
    assert report3.n_classes == 2
    assert all(s == DASHED for _, _, s in report3.canonical.edges)

    report4 = enumerate_frustrated_cycles(4)
    assert report4.frustrated_patterns == 8
    assert sum(s == DASHED for _, _, s in report4.canonical.edges) == 1

    report5 = enumerate_frustrated_cycles(5)
    assert report5.frustrated_patterns == 16
    assert is_frustrated(report5.canonical).frustrated


# ---------------------------------------------------------------------------
# Directed implication chains


def test_arc_reversal_follows_contrapositive():
    solid = Arc(1, 2, 1, "solid")  # X1=1 => X2=1
    rev = solid.reversed()  # X2=0 => X1=0
    assert (rev.source, rev.target, rev.base, rev.style) == (2, 1, 0, "solid")
    dashed = Arc(1, 2, 1, "dashed")  # X1=1 => X2=0
    rev = dashed.reversed()  # X2=1 => X1=0
    assert (rev.source, rev.target, rev.base, rev.style) == (2, 1, 1, "dashed")
    for arc in (solid, dashed):
        assert arc.reversed().reversed() == arc


def test_triangle_chain_contradiction():
    # s1 => not s2, not s2 => s3, s3 => not s1.
    g = DirectedImplicationGraph(
        3, (Arc(1, 2, 1, "dashed"), Arc(2, 3, 0, "dashed"), Arc(3, 1, 1, "dashed"))
    )
    report = check_implication_chain(g, 1, 1)
    assert report.contradiction
    assert report.derived[2] >= {0}
    assert report.trace[-1] == "X_1=0 denies X_1=1"


def test_pentagon_chain_contradiction_at_start():
    g = chained_cycle(["dashed"] * 5, start_base=1)
    report = check_implication_chain(g, 1, 1)
    assert report.contradiction
    assert report.trace[-1] == "X_1=0 denies X_1=1"


def test_consistent_solid_chain_has_no_contradiction():
    g = DirectedImplicationGraph(3, (Arc(1, 2, 1, "solid"), Arc(2, 3, 1, "solid")))
    report = check_implication_chain(g, 1, 1)
    assert not report.contradiction
    assert report.derived == {1: {1}, 2: {1}, 3: {1}}


def test_incompatible_start_value_raises():
    g = DirectedImplicationGraph(3, (Arc(1, 2, 1, "solid"), Arc(2, 3, 1, "solid")))
    with pytest.raises(ValueError):
        check_implication_chain(g, 1, 0)


@pytest.mark.parametrize("start", [0, 3, 5, -1])
def test_start_node_outside_the_graph_names_the_range(start):
    g = DirectedImplicationGraph(2, (Arc(1, 2, 1, "solid"),))
    with pytest.raises(ValueError, match=rf"start node {start} is outside the nodes 1\.\.2"):
        check_implication_chain(g, start, 1)


def test_contrapositive_propagation_runs_backwards():
    # X1=1 => X2=1; starting from X2=0 uses the contrapositive.
    g = DirectedImplicationGraph(2, (Arc(1, 2, 1, "solid"),))
    report = check_implication_chain(g, 2, 0)
    assert report.derived == {2: {0}, 1: {0}}


def test_chained_cycles_exhaustive_parity():
    # Odd dashed parity: the seam start (node 1 with the chain's base value)
    # derives a contradiction; even parity: no valid start ever does.
    for n in range(3, 9):
        for styles in itertools.product(("solid", "dashed"), repeat=n):
            dashed = styles.count("dashed")
            for base in (0, 1):
                g = chained_cycle(list(styles), start_base=base)
                if dashed % 2 == 1:
                    assert check_implication_chain(g, 1, base).contradiction
                valid_starts = {(a.source, a.base) for a in g.arcs}
                valid_starts |= {
                    (a.reversed().source, a.reversed().base) for a in g.arcs
                }
                for node, value in valid_starts:
                    result = check_implication_chain(g, node, value)
                    if dashed % 2 == 0:
                        assert not result.contradiction
                    if result.contradiction:
                        assert dashed % 2 == 1


def test_directed_json_round_trip():
    g = chained_cycle(["dashed", "solid", "dashed"], start_base=1)
    doc = g.to_json_dict()
    assert DirectedImplicationGraph.from_json_dict(doc) == g


def test_gauge_transform_rejects_unknown_nodes():
    with pytest.raises(ValueError):
        gauge_transform(cycle_graph([DASHED, DASHED, DASHED]), {7})


def test_enumerate_frustrated_cycles_bounds():
    with pytest.raises(ValueError):
        enumerate_frustrated_cycles(13)
    with pytest.raises(ValueError):
        enumerate_frustrated_cycles(2)


def test_gauge_invariance_thousand_random_trials():
    import numpy as np

    rng = np.random.default_rng(73)
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        take = rng.random(len(pairs)) < 0.6
        edges = tuple(
            (u, v, SOLID if rng.random() < 0.5 else DASHED)
            for (u, v), t in zip(pairs, take)
            if t
        )
        g = SignedGraph(n, edges)
        flips = {v for v in range(1, n + 1) if rng.random() < 0.5}
        assert is_frustrated(gauge_transform(g, flips)).frustrated == is_frustrated(g).frustrated
