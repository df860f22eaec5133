import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enum_local_bound import enumerated_local_bound
from seer_lab import classical, games, numkit, quantum, scenario, signet
from seer_lab.classical import (
    MAX_N,
    GamePayoff,
    bell_s3,
    c_function,
    ks_bound_ncycle,
    local_bound,
    odd_cycle_payoff,
    os_ring_payoff,
    pnc_bound_diachronic,
    s3_local_bound,
    s3_of_table,
)
from seer_lab.scenario import pnc_stochastic_response_value


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
    assert strategy_value(os_ring_payoff(3), bound.witness_a, bound.witness_b) == bound.value_exact


@pytest.mark.parametrize("n", [*range(3, 20, 2), 21, 101, 1_001, MAX_N])
def test_local_bound_closed_forms_up_to_cap(n):
    assert local_bound("os_ring", n).value_exact == 1 - Fraction(2, 3 * n)
    assert local_bound("odd_cycle", n).value_exact == 1 - Fraction(1, 2 * n)


@pytest.mark.parametrize("n", range(3, 14, 2))
@pytest.mark.parametrize("payoff_of", [os_ring_payoff, odd_cycle_payoff])
def test_local_bound_matches_enumeration(payoff_of, n):
    payoff = payoff_of(n)
    bound = local_bound(payoff)
    assert (bound.value_exact, bound.witness_a, bound.witness_b) == enumerated_local_bound(payoff)


@pytest.mark.parametrize("payoff_of", [os_ring_payoff, odd_cycle_payoff])
def test_local_bound_witness_scores_the_bound_at_large_n(payoff_of):
    payoff = payoff_of(1_001)
    bound = local_bound(payoff)
    witness = scenario.deterministic_table(scenario.payoff_scenario(payoff), bound.witness_a + bound.witness_b)
    assert payoff.value(witness) == bound.value


def _readers(n_a, n_b):
    """n_b B settings that each share a cell with every one of n_a A settings."""
    cells = [(a, b) for b in range(1, n_b + 1) for a in range(1, n_a + 1)]
    return GamePayoff(n_a, n_b, cells, [1] * len(cells), len(cells), [(True, False, False, False)] * len(cells))


def test_local_bound_oversize_rejected():
    # The ring games need odd n, so the first ring past the cap is cap + 2;
    # a one-cell payoff puts cap + 1 settings on either wing.
    message = f"limited to {MAX_N} settings per wing"
    with pytest.raises(ValueError, match=message):
        local_bound("os_ring", MAX_N + 2)
    for n_a, n_b in ((MAX_N + 1, 1), (1, MAX_N + 1)):
        with pytest.raises(ValueError, match=message):
            local_bound(GamePayoff(n_a, n_b, [(1, 1)], [1], 1, [(True, False, False, False)]))
    # 16 B settings that read 20 A settings need 2^20 x 33 entries, one reader
    # of 24 A settings 2^24 x 3, both past 2^25; neither is allocated.
    for n_a, n_b, need in ((20, 16, "2^20 x 33"), (24, 1, "2^24 x 3")):
        message = f"elimination tables of {classical.MAX_LOCAL_TABLE} entries; this payoff needs {need}"
        with pytest.raises(ValueError, match=re.escape(message)):
            local_bound(_readers(n_a, n_b))


def test_local_bound_cells_that_win_nothing_read_nothing():
    # One B setting shares cells with 24 A settings, which would need a
    # 2^24 x 3 table; all but the last cell have weight 0 or never win.
    cells = [(a, 1) for a in range(1, 25)]
    weights = [0] * 12 + [1] * 12
    wins = [(True, False, False, False)] * 12 + [(False,) * 4] * 11 + [(True, False, False, False)]
    bound = local_bound(GamePayoff(24, 1, cells, weights, 12, wins))
    assert (bound.value_exact, bound.witness_a, bound.witness_b) == (Fraction(1, 12), (0,) * 24, (0,))


def test_local_bound_table_cap_is_inclusive(monkeypatch):
    # One reader of 12 A settings needs 2^12 x 3 entries: a cap of exactly
    # that admits it, one entry fewer refuses it.
    payoff = _readers(12, 1)
    monkeypatch.setattr(classical, "MAX_LOCAL_TABLE", 3 << 12)
    assert local_bound(payoff).value_exact == 1
    monkeypatch.setattr(classical, "MAX_LOCAL_TABLE", (3 << 12) - 1)
    with pytest.raises(ValueError, match=re.escape("needs 2^12 x 3")):
        local_bound(payoff)


def test_local_bound_gauge_invariance():
    # Relabeling outcomes of one A measurement (and flipping x_a in the win
    # masks of its cells, outcome 2 x_a + x_b) leaves the optimal value unchanged.
    base = os_ring_payoff(5)
    for flip_a in (1, 3, 5):
        wins = base.wins.copy()
        at = base.settings[:, 0] == flip_a
        wins[at] = wins[at][:, [2, 3, 0, 1]]
        flipped = GamePayoff(base.n_a, base.n_b, base.settings, base.weights, base.denom, wins)
        assert local_bound(flipped).value_exact == local_bound(base).value_exact


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
    payoff = os_ring_payoff(3)
    cell = {(a, b): i for i, (a, b) in enumerate(payoff.settings.tolist())}
    assert len(cell) == 9 and payoff.weights.tolist() == [1] * 9 and payoff.denom == 9
    for t, y, b, x in itertools.product((1, 2, 3), (1, 2, 3), (0, 1), (0, 1)):
        target = b if t == y else 1 - b
        assert c_function(y, t, b) == target
        assert payoff.wins[cell[t, y], 2 * b + x] == (x == target)


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
    # The constraints are satisfiable exactly when the signed cycle is not frustrated.
    assert (not signet.is_frustrated(signet.cycle_graph(signs))) is expected


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
            satisfiable = not signet.is_frustrated(signet.cycle_graph(signs))
            assert satisfiable == _brute_force_cycle_satisfiable(signs)


def test_payoff_weight_validation():
    with pytest.raises(ValueError, match="sum to 1/2, not 1"):
        GamePayoff(1, 1, [(1, 1)], [1], 2, [(True, False, False, False)])


@pytest.mark.parametrize(
    "cell",  # (settings, win mask)
    [((0, 1), (1, 0, 0, 0)), ((3, 1), (1, 0, 0, 0)), ((1, 3), (1, 0, 0, 0)), ((1, 1), (1, 0, 0, 2))],
)
def test_payoff_cell_range_validation(cell):
    settings, wins = cell
    with pytest.raises(ValueError, match="cells need settings"):
        GamePayoff(2, 2, [settings], [1], 1, [wins])


_GOOD = {"settings": [(1, 1), (2, 1)], "weights": [1, 2], "denom": 3, "wins": [(1, 0, 0, 1), (0, 1, 1, 0)]}


@pytest.mark.parametrize("field, value, message", [
    ("settings", [(1, 1, 1), (2, 1, 1)], "needs \\(cells, 2\\)"),
    ("settings", [1, 2], "needs \\(cells, 2\\)"),
    ("settings", [(1.0, 1.0), (2.0, 1.0)], "integer settings"),
    ("weights", [3], "needs \\(cells, 2\\)"),
    ("weights", [1.0, 2.0], "integer weights"),
    ("wins", [(1, 0, 0, 1)], "\\(cells, 4\\) win masks"),
    ("wins", [(1, 0, 0), (0, 1, 1)], "\\(cells, 4\\) win masks"),
    ("weights", [4, -1], "must be nonnegative"),
    ("weights", [1, 1], "sum to 2/3, not 1"),
    ("denom", 0, "denominator of at least 1"),
    ("denom", 3.0, "integer denominator"),
    ("denom", 2**62, "below 2\\*\\*62"),
    ("settings", [(1, 1), (0, 1)], "cells need settings"),
    ("settings", [(1, 1), (1, 0)], "cells need settings"),
    ("settings", [(1, 1), (3, 1)], "cells need settings"),
    ("settings", [(1, 1), (1, 2)], "cells need settings"),
    ("wins", [(1, 0, 0, 1), (0, 1, -1, 0)], "win pairs of bits"),
])
def test_payoff_rejects_malformed_arrays(field, value, message):
    GamePayoff(2, 1, **_GOOD)
    with pytest.raises(ValueError, match=message):
        GamePayoff(2, 1, **{**_GOOD, field: value})


def test_payoff_arrays_are_frozen_copies():
    settings = np.array(_GOOD["settings"])
    payoff = GamePayoff(2, 1, settings, _GOOD["weights"], 3, _GOOD["wins"])
    settings[0] = (2, 1)
    assert payoff.settings.tolist() == [[1, 1], [2, 1]] and payoff.contexts.tolist() == [[1, 3], [2, 3]]
    assert payoff.weights.dtype == np.int64 and payoff.wins.dtype == bool
    for array in (payoff.settings, payoff.weights, payoff.wins):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_local_bound_rejects_denominators_beyond_int64():
    # The strategies are scored in int64 units of the weights' common
    # denominator, so the payoff refuses one of 2**62 when it is built.
    wins = [(True, False, False, False), (False,) * 4]
    with pytest.raises(ValueError, match="below 2\\*\\*62"):
        GamePayoff(1, 1, [(1, 1), (1, 1)], [1, 2**62 - 1], 2**62, wins)
    payoff = GamePayoff(1, 1, [(1, 1), (1, 1)], [1, 2**61 - 1], 2**61, wins)
    assert local_bound(payoff).value_exact == Fraction(1, 2**61)


def test_custom_payoff_local_bound():
    # Two settings per wing, all four cells weight 1/4, win on equal outcomes:
    # trivially winnable with constant strategies.
    settings = [(a, b) for a in (1, 2) for b in (1, 2)]
    payoff = GamePayoff(2, 2, settings, [1] * 4, 4, [(True, False, False, True)] * 4)
    assert local_bound(payoff).value == 1.0


def test_odd_cycle_payoff_weights():
    payoff = odd_cycle_payoff(5)
    assert len(payoff.weights) == 10
    assert payoff.weights.sum() == payoff.denom == 10


# The per-cell statement of the two games that the arrays replace: one
# (a, b, weight, winning (x_a, x_b) pairs) per cell, in cell order.
_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
_EQUAL, _DIFFER = frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})


def _per_cell_ring(n):
    w = Fraction(1, 3 * n)
    cells = []
    for a in range(1, n + 1):
        cells.append((a, a, w, _EQUAL))
        cells.append((a, a % n + 1, w, _DIFFER))
        cells.append((a % n + 1, a, w, _DIFFER))
    return cells


def _per_cell_odd_cycle(n):
    w = Fraction(1, 2 * n)
    cells = []
    for a in range(1, n + 1):
        cells.append((a, a, w, _EQUAL))
        cells.append((a, a % n + 1, w, _DIFFER))
    return cells


@pytest.mark.parametrize("n", [*range(3, 52, 2), 101, 1001, 10001])
def test_payoff_arrays_equal_the_per_cell_statement(n):
    for payoff, cells in ((os_ring_payoff(n), _per_cell_ring(n)), (odd_cycle_payoff(n), _per_cell_odd_cycle(n))):
        assert (payoff.n_a, payoff.n_b) == (n, n)
        assert payoff.settings.tolist() == [[a, b] for a, b, _, _ in cells]
        # The common denominator is the one the per-cell weights reduce to.
        assert payoff.denom == math.lcm(*(w.denominator for _, _, w, _ in cells))
        assert [Fraction(w, payoff.denom) for w in payoff.weights.tolist()] == [w for _, _, w, _ in cells]
        assert payoff.wins.tolist() == [[xy in wins for xy in _PAIRS] for _, _, _, wins in cells]


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
        signet.cycle_graph((1, 0, -1))
    with pytest.raises(ValueError):
        signet.cycle_graph((1, -1))


# --------------------------------------------------------------------------
# local_bound against an independent enumeration


@st.composite
def payoffs(draw):
    n_a, n_b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    size = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(0, 24), min_size=size, max_size=size).filter(lambda ws: sum(ws) > 0))
    settings = [(draw(st.integers(1, n_a)), draw(st.integers(1, n_b))) for _ in weights]
    wins = [draw(st.lists(st.booleans(), min_size=4, max_size=4)) for _ in weights]
    return GamePayoff(n_a, n_b, settings, weights, sum(weights), wins)


def strategy_value(payoff, bits_a, bits_b):
    """A deterministic strategy pair's payoff in exact Fractions, cell by cell."""
    cells = zip(payoff.settings.tolist(), payoff.weights.tolist(), payoff.wins.tolist())
    return sum(
        (Fraction(w, payoff.denom) for (a, b), w, wins in cells if wins[2 * bits_a[a - 1] + bits_b[b - 1]]),
        Fraction(0),
    )


def brute_force_local_bound(payoff):
    """All 2^(n_a + n_b) strategy pairs in exact Fractions, in lexicographic
    order, keeping the first strictly better pair."""
    best = None
    for bits_a in itertools.product((0, 1), repeat=payoff.n_a):
        for bits_b in itertools.product((0, 1), repeat=payoff.n_b):
            value = strategy_value(payoff, bits_a, bits_b)
            if best is None or value > best[0]:
                best = (value, bits_a, bits_b)
    return best


@settings(max_examples=100, deadline=None)
@given(payoffs())
def test_local_bound_matches_brute_force(payoff):
    bound = local_bound(payoff)
    assert (bound.value_exact, bound.witness_a, bound.witness_b) == brute_force_local_bound(payoff)
    assert (bound.value_exact, bound.witness_a, bound.witness_b) == enumerated_local_bound(payoff)
    assert bound.value == float(bound.value_exact)
    witness = scenario.deterministic_table(
        scenario.payoff_scenario(payoff), bound.witness_a + bound.witness_b
    )
    assert abs(payoff.value(witness) - float(bound.value_exact)) <= 1e-12


@st.composite
def wide_payoffs(draw):
    """Payoffs over more A settings than one elimination block, whose random
    cells tie settings of different blocks together."""
    n_a, n_b = draw(st.integers(classical._BLOCK + 1, 16)), draw(st.integers(1, 12))
    size = draw(st.integers(1, 24))
    weights = draw(st.lists(st.integers(0, 24), min_size=size, max_size=size).filter(lambda ws: sum(ws) > 0))
    settings = [(draw(st.integers(1, n_a)), draw(st.integers(1, n_b))) for _ in weights]
    wins = [draw(st.lists(st.booleans(), min_size=4, max_size=4)) for _ in weights]
    return GamePayoff(n_a, n_b, settings, weights, sum(weights), wins)


@settings(max_examples=60, deadline=None)
@given(wide_payoffs())
def test_local_bound_matches_enumeration_across_blocks(payoff):
    bound = local_bound(payoff)
    assert (bound.value_exact, bound.witness_a, bound.witness_b) == enumerated_local_bound(payoff)


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

    rows = np.zeros((len(payoff.weights), 4))
    for i, (a, b) in enumerate(payoff.settings.tolist()):
        for bits, w in zip(strategies, weights):
            rows[i, 2 * bits[a - 1] + bits[n + b - 1]] += w / sum(weights)

    value = payoff.value(scenario.payoff_table(payoff, rows))
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

    rows = [
        [
            numkit.born_probability(
                psi, np.kron(_outcome_effect(ops_a[a - 1], x), _outcome_effect(ops_b[b - 1], y))
            )
            for x in (0, 1)
            for y in (0, 1)
        ]
        for a, b in payoff.settings.tolist()
    ]
    table = scenario.payoff_table(payoff, rows)
    expectation = np.vdot(psi, quantum.payoff_operator(payoff, ops_a, ops_b) @ psi)
    assert abs(expectation.imag) < 1e-12
    assert abs(expectation.real - payoff.value(table)) < 1e-12


@pytest.mark.parametrize("n_a,n_b", [(1, 4), (2, 5), (5, 2), (3, 3), (7, 6), (6, 7), (30, 29), (29, 30), (51, 51)])
def test_payoff_operator_equals_the_per_cell_kron_sum(n_a, n_b):
    # Every setting pair is a cell, some of weight 0, with arbitrary win masks.
    rng = np.random.default_rng(n_a * 100 + n_b)
    cells = np.array(list(itertools.product(range(1, n_a + 1), range(1, n_b + 1))))
    weights = rng.integers(0, 5, size=len(cells))
    weights[0] += 1
    payoff = GamePayoff(n_a, n_b, cells, weights, int(weights.sum()), rng.integers(0, 2, size=(len(cells), 4)))
    ops_a, ops_b = (numkit.pauli_dot(v / np.linalg.norm(v, axis=1, keepdims=True)) for v in
                    (rng.normal(size=(n_a, 3)), rng.normal(size=(n_b, 3))))
    expected = sum(
        w / payoff.denom * np.kron(_outcome_effect(ops_a[a - 1], x), _outcome_effect(ops_b[b - 1], y))
        for (a, b), w, won in zip(payoff.settings.tolist(), payoff.weights.tolist(), payoff.wins.tolist())
        for x, y in itertools.product((0, 1), repeat=2)
        if won[2 * x + y]
    )
    got = quantum.payoff_operator(payoff, ops_a, ops_b)
    assert got.dtype == np.complex128
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_payoff_operator_needs_one_observable_per_setting():
    payoff = os_ring_payoff(3)
    ops = [numkit.PAULI_Z] * 3
    with pytest.raises(ValueError):
        quantum.payoff_operator(payoff, ops[:2], ops)
    with pytest.raises(ValueError):
        quantum.payoff_operator(payoff, ops, ops + [numkit.PAULI_X])
