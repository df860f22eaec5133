import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seer_lab import games, numkit, scenario
from seer_lab.classical import (
    MAX_LOCAL_SETTINGS,
    GamePayoff,
    PayoffCell,
    algebraic_contradiction,
    bell_s3,
    c_function,
    ks_bound_ncycle,
    local_bound,
    odd_cycle_payoff,
    os_ring_payoff,
    pnc_bound_diachronic,
    pnc_stochastic_response_value,
    s3_local_bound,
    s3_of_table,
)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_ks_bound_matches_closed_form_exactly(n):
    result = ks_bound_ncycle(n)
    assert result.max_anticorrelated == n - 1
    assert result.r_nc_exact == 1 - Fraction(1, n)
    assert result.s_nc == -(n - 2)


def test_ks_bound_witness_is_lexicographic_optimum():
    result = ks_bound_ncycle(5)
    assert result.witness == (0, 0, 1, 0, 1)
    anti = sum(
        result.witness[a] != result.witness[(a + 1) % 5] for a in range(5)
    )
    assert anti == 4


def _ks_enumeration(n):
    """Oracle: the best anti-correlated adjacent-pair count over all 2^n
    valuations, with the lexicographically first valuation attaining it."""
    best, code = -1, 0
    for start in range(0, 1 << n, 1 << 22):  # blocks of 2^22 bound the memory
        codes = np.arange(start, min(start + (1 << 22), 1 << n), dtype=np.uint32)
        # Bit k of a code holds X_{n-k}; a cyclic shift pairs each X_a with
        # X_{a+1}, so the popcount of code XOR shift counts anti-correlated pairs.
        shifted = ((codes >> 1) | ((codes & 1) << (n - 1))) & ((1 << n) - 1)
        anti = np.bitwise_count(codes ^ shifted)
        if anti.max() > best:
            best, code = int(anti.max()), int(codes[np.argmax(anti)])
    return best, tuple((code >> (n - a)) & 1 for a in range(1, n + 1))


@pytest.mark.parametrize("n", range(3, 26, 2))
def test_ks_bound_matches_enumeration(n):
    best, witness = _ks_enumeration(n)
    result = ks_bound_ncycle(n)
    assert (result.max_anticorrelated, result.witness) == (best, witness)
    assert result.r_nc_exact == Fraction(best, n)
    assert result.r_nc == float(Fraction(best, n))
    assert result.s_nc == float(n - 2 * best)


def test_ks_bound_witness_attains_the_bound_up_to_game_cap():
    for n in [*range(3, 1002, 2), *range(games.MAX_N - 10, games.MAX_N + 1, 2)]:
        result = ks_bound_ncycle(n)
        witness = np.array(result.witness)
        assert witness.size == n and set(result.witness) == {0, 1}
        assert np.count_nonzero(witness != np.roll(witness, -1)) == result.max_anticorrelated == n - 1


def test_ks_bound_rejects_even_n():
    with pytest.raises(ValueError):
        ks_bound_ncycle(4)


@pytest.mark.parametrize(
    "game,n,expected",
    [
        ("os3", None, Fraction(7, 9)),
        ("os_ring", 5, Fraction(13, 15)),
        ("os_ring", 7, 1 - Fraction(2, 21)),
        ("os_ring", 9, 1 - Fraction(2, 27)),
        ("os_ring", 11, 1 - Fraction(2, 33)),
        ("odd_cycle", 3, Fraction(5, 6)),
        ("odd_cycle", 5, Fraction(9, 10)),
        ("odd_cycle", 7, 1 - Fraction(1, 14)),
    ],
)
def test_local_bounds(game, n, expected):
    assert local_bound(game, n).value_exact == expected


def test_local_bound_witness_attains_value():
    bound = local_bound("os3")
    payoff = os_ring_payoff(3)
    value = sum(
        cell.weight
        for cell in payoff.cells
        if (bound.witness_a[cell.a - 1], bound.witness_b[cell.b - 1]) in cell.wins
    )
    assert value == bound.value_exact


@pytest.mark.parametrize("n", range(3, MAX_LOCAL_SETTINGS + 1, 2))
def test_local_bound_closed_forms_up_to_cap(n):
    assert local_bound("os_ring", n).value_exact == 1 - Fraction(2, 3 * n)
    assert local_bound("odd_cycle", n).value_exact == 1 - Fraction(1, 2 * n)


def test_local_bound_oversize_rejected():
    # The ring games need odd n, so the first ring past the cap is cap + 2;
    # a one-cell payoff puts cap + 1 settings on either wing.
    message = f"limited to {MAX_LOCAL_SETTINGS} settings per wing"
    with pytest.raises(ValueError, match=message):
        local_bound("os_ring", MAX_LOCAL_SETTINGS + 2)
    cell = PayoffCell(1, 1, Fraction(1), frozenset({(0, 0)}))
    for n_a, n_b in ((MAX_LOCAL_SETTINGS + 1, 1), (1, MAX_LOCAL_SETTINGS + 1)):
        with pytest.raises(ValueError, match=message):
            local_bound(GamePayoff(n_a, n_b, (cell,)))


def test_local_bound_gauge_invariance():
    # Relabeling outcomes of one A measurement (and flipping the win pairs of
    # its cells) leaves the optimal value unchanged.
    rng = np.random.default_rng(23)
    base = os_ring_payoff(5)
    for flip_a in (1, 3, 5):
        cells = []
        for cell in base.cells:
            wins = cell.wins
            if cell.a == flip_a:
                wins = frozenset((1 - xa, xb) for xa, xb in wins)
            cells.append(PayoffCell(cell.a, cell.b, cell.weight, wins))
        flipped = GamePayoff(base.n_a, base.n_b, tuple(cells))
        assert local_bound(flipped).value_exact == local_bound(base).value_exact
    del rng


def test_s3_local_bound_is_five():
    result = s3_local_bound()
    assert result.value == 5.0
    assert bell_s3(result.witness_a, result.witness_b) == 5


def test_s3_all_equal_strategy():
    assert bell_s3((0, 0, 0), (0, 0, 0)) == 3 - 6


def test_bell_s3_matches_literal_correlator_sum():
    def literal(bits_a, bits_b):
        xa = [1 - 2 * b for b in bits_a]
        xb = [1 - 2 * b for b in bits_b]
        return sum(xa[a] * xb[b] * (1 if a == b else -1) for a in range(3) for b in range(3))

    for bits_a in itertools.product((0, 1), repeat=3):
        for bits_b in itertools.product((0, 1), repeat=3):
            assert bell_s3(bits_a, bits_b) == literal(bits_a, bits_b)
    for bad in ((0, 1), (0, 1, 2), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            bell_s3(bad, (0, 0, 0))


def test_s3_of_foil_and_quantum_tables():
    from seer_lab import quantum

    foil = scenario.build_bipartite_table("nonlocal_os_3")
    assert s3_of_table(foil) == pytest.approx(9.0)
    assert s3_of_table(quantum.mermin_table(3)) == pytest.approx(6.0, abs=1e-10)


# Reference route for the two-time game: the win rule and the encodings
# written out over (t, b, y), independent of the ring payoff.
_PNC_ENCODINGS = {
    "b": lambda t, b: b,
    **{f"c{k}": (lambda t, b, k=k: b if t == k else 1 - b) for k in (1, 2, 3)},
}


def _pnc_success(encoding, response_probs):
    """Mean over the 18 (t, b, y) of the chance that the answer p(X=1 | state,
    query) hits the target c_y(t, b)."""
    enc = _PNC_ENCODINGS[encoding]
    total = 0.0
    for t, b, y in itertools.product((1, 2, 3), (0, 1), (1, 2, 3)):
        p1 = response_probs[enc(t, b) * 3 + (y - 1)]
        total += p1 if (b if t == y else 1 - b) == 1 else 1 - p1
    return total / 18


def _pnc_by_enumeration():
    """Every one of the 2^6 deterministic response maps of each encoding; the
    first optimum in lexicographic order is kept."""
    per, responses = {}, {}
    for name in _PNC_ENCODINGS:
        best, best_resp = Fraction(-1), None
        for resp in itertools.product((0, 1), repeat=6):
            value = Fraction(round(18 * _pnc_success(name, resp)), 18)
            if value > best:
                best, best_resp = value, resp
        per[name], responses[name] = best, best_resp
    return per, responses


def test_two_time_win_rule_is_the_n3_ring_payoff():
    cells = {(c.a, c.b): c for c in os_ring_payoff(3).cells}
    assert len(cells) == 9 and all(c.weight == Fraction(1, 9) for c in cells.values())
    for t, y, b, x in itertools.product((1, 2, 3), (1, 2, 3), (0, 1), (0, 1)):
        target = b if t == y else 1 - b
        assert c_function(y, t, b) == target
        assert ((b, x) in cells[t, y].wins) == (x == target)


def test_pnc_bound():
    result = pnc_bound_diachronic()
    assert result.bound_exact == Fraction(7, 9)
    assert result.per_encoding == {
        "b": Fraction(2, 3),
        "c1": Fraction(7, 9),
        "c2": Fraction(7, 9),
        "c3": Fraction(7, 9),
    }
    assert (result.per_encoding, result.best_responses) == _pnc_by_enumeration()


def test_pnc_stochastic_responses_never_beat_deterministic():
    rng = np.random.default_rng(41)
    for _ in range(200):
        name = rng.choice(["b", "c1", "c2", "c3"])
        probs = rng.random(6)
        value = pnc_stochastic_response_value(name, probs)
        assert value == pytest.approx(_pnc_success(name, probs), abs=1e-12)
        assert value <= 7 / 9 + 1e-12
    result = pnc_bound_diachronic()
    for name, resp in result.best_responses.items():
        assert pnc_stochastic_response_value(name, resp) == pytest.approx(
            float(result.per_encoding[name]), abs=1e-15
        )


@pytest.mark.parametrize(
    "signs,expected",
    [
        ((-1, -1, -1), False),
        ((-1, -1, 1), True),
        ((1, -1, -1, -1), False),  # PR-box sign pattern
    ],
)
def test_algebraic_contradiction_examples(signs, expected):
    assert algebraic_contradiction(signs) is expected


def _brute_force_cycle_satisfiable(cycle_signs):
    """Independent oracle: try all 2^n signed valuations."""
    n = len(cycle_signs)
    for bits in itertools.product((1, -1), repeat=n):
        if all(bits[a] * bits[(a + 1) % n] == cycle_signs[a] for a in range(n)):
            return True
    return False


def test_algebraic_contradiction_matches_brute_force():
    for n in range(3, 11):
        for signs in itertools.product((1, -1), repeat=n):
            assert algebraic_contradiction(signs) == _brute_force_cycle_satisfiable(signs)


def test_payoff_weight_validation():
    with pytest.raises(ValueError):
        GamePayoff(1, 1, (PayoffCell(1, 1, Fraction(1, 2), frozenset({(0, 0)})),))


@pytest.mark.parametrize(
    "cell",
    [
        PayoffCell(0, 1, Fraction(1), frozenset({(0, 0)})),
        PayoffCell(3, 1, Fraction(1), frozenset({(0, 0)})),
        PayoffCell(1, 3, Fraction(1), frozenset({(0, 0)})),
        PayoffCell(1, 1, Fraction(1), frozenset({(0, 2)})),
    ],
)
def test_payoff_cell_range_validation(cell):
    with pytest.raises(ValueError, match="cells need settings"):
        GamePayoff(2, 2, (cell,))


def test_local_bound_rejects_denominators_beyond_int64():
    # The strategies are scored in int64 units of the weights' common denominator.
    tiny = Fraction(1, 2**62)
    cells = (PayoffCell(1, 1, tiny, frozenset({(0, 0)})), PayoffCell(1, 1, 1 - tiny, frozenset()))
    with pytest.raises(ValueError, match="below 2\\*\\*62"):
        local_bound(GamePayoff(1, 1, cells))
    cells = (PayoffCell(1, 1, 2 * tiny, frozenset({(0, 0)})), PayoffCell(1, 1, 1 - 2 * tiny, frozenset()))
    assert local_bound(GamePayoff(1, 1, cells)).value_exact == 2 * tiny


def test_custom_payoff_local_bound():
    # Two settings per wing, all four cells weight 1/4, win on equal outcomes:
    # trivially winnable with constant strategies.
    cells = tuple(
        PayoffCell(a, b, Fraction(1, 4), frozenset({(0, 0), (1, 1)}))
        for a in (1, 2)
        for b in (1, 2)
    )
    assert local_bound(GamePayoff(2, 2, cells)).value == 1.0


def test_odd_cycle_payoff_weights():
    payoff = odd_cycle_payoff(5)
    assert len(payoff.cells) == 10
    assert sum(c.weight for c in payoff.cells) == 1


def test_ks_bound_larger_cycle_chunked_enumeration():
    result = ks_bound_ncycle(17)
    assert result.max_anticorrelated == 16
    assert result.r_nc_exact == Fraction(16, 17)
    assert result.s_nc == -15.0
    for n in (games.MAX_N + 2, games.MAX_N + 1, 26, 1, -1):
        with pytest.raises(ValueError):
            ks_bound_ncycle(n)


def test_algebraic_contradiction_input_validation():
    with pytest.raises(ValueError):
        algebraic_contradiction((1, 0, -1))
    with pytest.raises(ValueError):
        algebraic_contradiction((1, -1))


# --------------------------------------------------------------------------
# local_bound against an independent enumeration

_OUTCOMES = [(0, 0), (0, 1), (1, 0), (1, 1)]


@st.composite
def payoffs(draw):
    n_a, n_b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    size = draw(st.integers(1, 8))
    raw = draw(st.lists(st.fractions(0, 1, max_denominator=24), min_size=size, max_size=size)
               .filter(lambda ws: sum(ws) > 0))
    cells = tuple(
        PayoffCell(
            draw(st.integers(1, n_a)),
            draw(st.integers(1, n_b)),
            w / sum(raw),
            frozenset(draw(st.sets(st.sampled_from(_OUTCOMES)))),
        )
        for w in raw
    )
    return GamePayoff(n_a, n_b, cells)


def brute_force_local_bound(payoff):
    """All 2^(n_a + n_b) strategy pairs in exact Fractions, in lexicographic
    order, keeping the first strictly better pair."""
    best = None
    for bits_a in itertools.product((0, 1), repeat=payoff.n_a):
        for bits_b in itertools.product((0, 1), repeat=payoff.n_b):
            value = sum(
                (c.weight for c in payoff.cells if (bits_a[c.a - 1], bits_b[c.b - 1]) in c.wins),
                Fraction(0),
            )
            if best is None or value > best[0]:
                best = (value, bits_a, bits_b)
    return best


@settings(max_examples=100, deadline=None)
@given(payoffs())
def test_local_bound_matches_brute_force(payoff):
    bound = local_bound(payoff)
    assert (bound.value_exact, bound.witness_a, bound.witness_b) == brute_force_local_bound(payoff)
    assert bound.value == float(bound.value_exact)
    witness = scenario.deterministic_table(
        scenario.payoff_scenario(payoff), bound.witness_a + bound.witness_b
    )
    assert abs(payoff.value(witness) - float(bound.value_exact)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mixtures_of_deterministic_tables_score_within_local_bound(data):
    # The payoff is linear in the table, so no mixture of deterministic
    # strategies scores above the best one.
    n = data.draw(st.sampled_from([3, 5, 7, 9]))
    payoff = data.draw(st.sampled_from([os_ring_payoff(n), odd_cycle_payoff(n)]))
    strategy = st.tuples(*[st.integers(0, 1)] * (2 * n))
    strategies = data.draw(st.lists(strategy, min_size=1, max_size=6))
    weights = data.draw(st.lists(st.integers(1, 9), min_size=len(strategies), max_size=len(strategies)))

    def mixture(cell):
        dist = {}
        for bits, w in zip(strategies, weights):
            outcome = (bits[cell.a - 1], bits[n + cell.b - 1])
            dist[outcome] = dist.get(outcome, 0.0) + w / sum(weights)
        return dist

    value = payoff.value(scenario.payoff_table(payoff, mixture))
    assert 0 <= value <= local_bound(payoff).value + 1e-12


# ---------------------------------------------------------------------------
# Payoff operators


def _outcome_effect(op, x):
    return (np.eye(2) + (1 - 2 * x) * op) / 2


@settings(max_examples=100, deadline=None)
@given(
    make=st.sampled_from([os_ring_payoff, odd_cycle_payoff]),
    n=st.sampled_from([3, 5, 7, 9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_payoff_operator_expectation_is_born_table_value(make, n, seed):
    rng = np.random.default_rng(seed)
    payoff = make(n)
    ops_a, ops_b = ([numkit.pauli_dot(v / np.linalg.norm(v)) for v in rng.normal(size=(n, 3))]
                    for _ in range(2))
    psi = numkit.normalize(rng.normal(size=4) + 1j * rng.normal(size=4))

    def born(cell):
        op_a, op_b = ops_a[cell.a - 1], ops_b[cell.b - 1]
        return {
            (x, y): numkit.born_probability(psi, np.kron(_outcome_effect(op_a, x), _outcome_effect(op_b, y)))
            for x in (0, 1)
            for y in (0, 1)
        }

    table = scenario.payoff_table(payoff, born)
    expectation = np.vdot(psi, payoff.operator(ops_a, ops_b) @ psi)
    assert abs(expectation.imag) < 1e-12
    assert abs(expectation.real - payoff.value(table)) < 1e-12


def test_payoff_operator_needs_one_observable_per_setting():
    payoff = os_ring_payoff(3)
    ops = [numkit.PAULI_Z] * 3
    with pytest.raises(ValueError):
        payoff.operator(ops[:2], ops)
    with pytest.raises(ValueError):
        payoff.operator(ops, ops + [numkit.PAULI_X])
