import math

import numpy as np
import pytest
from scipy.stats import chi2

from seer_lab import classical, games, quantum
from seer_lab.games import (
    EnsembleResult,
    GameResult,
    GameSpec,
    _build_model,
    _draw_counts,
    simulate,
    suitor_ensemble,
)


def test_same_seed_is_bit_identical():
    spec = GameSpec("bipartite_os", "quantum", trials=200000, seed=1234, n=3)
    first, second = simulate(spec), simulate(spec)
    assert first == second


def test_different_seeds_differ():
    base = dict(kind="bipartite_os", strategy="quantum", trials=200000, n=3)
    a = simulate(GameSpec(seed=1, **base))
    b = simulate(GameSpec(seed=2, **base))
    assert a.wins != b.wins


def test_any_integer_seed_is_deterministic():
    base = dict(kind="odd_cycle", strategy="quantum", trials=100000, n=5)
    for seed in (-1, -(2**70), 2**70 + 3):
        assert simulate(GameSpec(seed=seed, **base)) == simulate(GameSpec(seed=seed, **base))


@pytest.mark.parametrize(
    "kind, n, strategy",
    [
        pytest.param("bipartite_os", 5, "quantum", id="bipartite_os-5"),
        pytest.param("odd_cycle", 5, "quantum", id="odd_cycle-5"),
        pytest.param("diachronic", None, "quantum", id="diachronic-None"),
        pytest.param("diachronic", None, "classical_best", id="diachronic-classical_best"),
    ],
)
def test_sampler_counts_fit_context_weights_and_table_rows(kind, n, strategy):
    spec = GameSpec(kind, strategy, trials=10**6, seed=29, n=n)
    model = _build_model(spec)
    counts = _draw_counts(model, spec.trials, spec.seed)
    assert counts.shape == model.outcome_probs.shape
    assert counts.sum() == spec.trials

    def pearson(observed, probs):
        keep = probs > 0
        assert not observed[~keep].any()
        expected = observed.sum(axis=-1, keepdims=True) * probs
        stat = ((observed - expected)[keep] ** 2 / expected[keep]).sum()
        dof = keep.sum() - np.atleast_2d(probs).shape[0]
        return chi2.sf(stat, dof)

    assert pearson(counts.sum(axis=1), model.weights) > 1e-3
    assert pearson(counts, model.outcome_probs) > 1e-3


def test_bipartite_quantum_rate_close_to_five_sixths():
    result = simulate(GameSpec("bipartite_os", "quantum", trials=1000000, seed=42, n=3))
    assert result.expected_rate == pytest.approx(5 / 6, abs=1e-10)
    assert result.sigma_distance < 5


def test_bipartite_foil_wins_every_trial():
    result = simulate(GameSpec("bipartite_os", "foil", trials=50000, seed=9, n=3))
    assert result.wins == result.trials
    assert result.empirical_rate == 1.0
    assert result.sigma_distance == 0.0


def test_bipartite_classical_best_rate():
    result = simulate(GameSpec("bipartite_os", "classical_best", trials=400000, seed=3, n=3))
    assert result.expected_rate == pytest.approx(7 / 9, abs=1e-12)
    assert result.sigma_distance < 5


def test_odd_cycle_strategies():
    quantum_result = simulate(GameSpec("odd_cycle", "quantum", trials=200000, seed=5, n=5))
    assert quantum_result.expected_rate == pytest.approx(
        math.cos(math.pi / 20) ** 2, abs=1e-10
    )
    assert quantum_result.sigma_distance < 5
    foil = simulate(GameSpec("odd_cycle", "foil", trials=20000, seed=5, n=5))
    assert foil.empirical_rate == 1.0
    classical = simulate(GameSpec("odd_cycle", "classical_best", trials=200000, seed=5, n=5))
    assert classical.expected_rate == pytest.approx(9 / 10, abs=1e-12)
    assert classical.sigma_distance < 5


def test_seer_game_strategies():
    quantum_result = simulate(GameSpec("seer_ncycle", "quantum", trials=400000, seed=11, n=5))
    assert quantum_result.expected_rate == pytest.approx(1 - 2 / math.sqrt(5), abs=1e-10)
    assert quantum_result.sigma_distance < 5
    classical = simulate(GameSpec("seer_ncycle", "classical_best", trials=400000, seed=11, n=5))
    assert classical.expected_rate == pytest.approx(1 / 10, abs=1e-12)
    assert classical.sigma_distance < 5
    foil = simulate(GameSpec("seer_ncycle", "foil", trials=20000, seed=11, n=5))
    assert foil.wins == 0  # perfect anti-correlation never shows two empty boxes


def test_diachronic_strategies():
    quantum_result = simulate(GameSpec("diachronic", "quantum", trials=400000, seed=13))
    assert quantum_result.expected_rate == pytest.approx(5 / 6, abs=1e-10)
    assert quantum_result.sigma_distance < 5
    classical = simulate(GameSpec("diachronic", "classical_best", trials=400000, seed=13))
    assert classical.expected_rate == pytest.approx(7 / 9, abs=1e-12)
    assert classical.sigma_distance < 5
    foil = simulate(GameSpec("diachronic", "foil", trials=10000, seed=13))
    assert foil.empirical_rate == 1.0


def test_empirical_error_shrinks_with_trials():
    gaps = []
    for trials in (1000, 10000, 100000, 1000000):
        result = simulate(GameSpec("bipartite_os", "quantum", trials=trials, seed=202, n=3))
        gaps.append(abs(result.empirical_rate - result.expected_rate))
        assert result.sigma_distance < 5
    assert gaps[-1] < gaps[0]


def test_spec_validation():
    with pytest.raises(ValueError):
        GameSpec("bipartite_os", "quantum", trials=0, seed=1, n=3)
    with pytest.raises(ValueError):
        GameSpec("bipartite_os", "quantum", trials=10, seed=1, n=4)
    with pytest.raises(ValueError):
        GameSpec("unknown", "quantum", trials=10, seed=1, n=3)
    with pytest.raises(ValueError):
        GameSpec("bipartite_os", "psychic", trials=10, seed=1, n=3)
    with pytest.raises(ValueError):
        GameSpec("diachronic", "quantum", trials=10, seed=1, n=5)
    with pytest.raises(ValueError):
        GameSpec("diachronic", "quantum", trials=2**63, seed=1)
    assert GameSpec("seer_ncycle", "foil", trials=10, seed=1, n=games.MAX_N).n == games.MAX_N
    with pytest.raises(ValueError, match="limited to n"):
        GameSpec("seer_ncycle", "foil", trials=10, seed=1, n=games.MAX_N + 2)


def test_trial_count_up_to_int64_costs_nothing_per_trial():
    result = simulate(GameSpec("bipartite_os", "quantum", trials=10**12, seed=8, n=3))
    assert result.sigma_distance < 5
    foil = simulate(GameSpec("odd_cycle", "foil", trials=2**63 - 1, seed=8, n=3))
    assert foil.wins == 2**63 - 1


def test_result_dict_round_trip():
    result = simulate(GameSpec("diachronic", "foil", trials=10, seed=1))
    doc = result.to_dict()
    assert doc["wins"] == 10
    assert doc["kind"] == "diachronic"
    assert isinstance(result, GameResult)


def test_suitor_ensemble_trivial_and_classical():
    assert suitor_ensemble(5, 100, "foil").p_any_win == 0.0
    classical = suitor_ensemble(101, 1000, "classical_best")
    assert classical.p_single == pytest.approx(1 / 202)
    assert classical.p_any_win == pytest.approx(1 - (1 - 1 / 202) ** 1000, rel=1e-12)
    assert classical.p_any_win == pytest.approx(0.993, abs=5e-4)


def test_suitor_ensemble_crossover_at_n_101():
    # n << suitors << n^2: classical reasoning says someone almost surely
    # wins; the exact Born value says it stays unlikely.
    classical = suitor_ensemble(101, 1000, "classical_best")
    quantum_side = suitor_ensemble(101, 1000, "quantum")
    assert quantum_side.p_single == pytest.approx(
        quantum.seer_game_win_probability(101), abs=1e-12
    )
    assert classical.p_any_win > 0.99
    assert quantum_side.p_any_win < 0.25
    assert classical.p_any_win > quantum_side.p_any_win + 0.7


def test_suitor_ensemble_result_type():
    assert isinstance(suitor_ensemble(5, 10, "quantum"), EnsembleResult)


def test_bipartite_ring_generalization_rates():
    result = simulate(GameSpec("bipartite_os", "quantum", trials=100000, seed=17, n=5))
    assert result.expected_rate == pytest.approx(
        1 / 3 + 2 / 3 * math.cos(math.pi / 10) ** 2, abs=1e-10
    )
    assert result.sigma_distance < 5


def test_suitor_ensemble_validation():
    with pytest.raises(ValueError):
        suitor_ensemble(5, -1, "quantum")
    with pytest.raises(ValueError):
        suitor_ensemble(5, 10, "telepathy")
    for strategy in games.STRATEGIES:
        for n in (0, 1, 4, 100, games.MAX_N + 2):
            with pytest.raises(ValueError):
                suitor_ensemble(n, 10, strategy)


@pytest.mark.parametrize("strategy", games.STRATEGIES)
@pytest.mark.parametrize("n", [3, 5, 101])
def test_suitor_ensemble_uses_the_simulated_win_probability(strategy, n):
    assert suitor_ensemble(n, 10, strategy).p_single == simulate(
        GameSpec("seer_ncycle", strategy, trials=1, seed=0, n=n)).expected_rate


def test_quantum_seer_game_builds_its_table_once(monkeypatch):
    calls = []
    build = quantum.klyachko_table
    monkeypatch.setattr(quantum, "klyachko_table", lambda n: calls.append(n) or build(n))
    result = simulate(GameSpec("seer_ncycle", "quantum", trials=10, seed=0, n=7))
    assert calls == [7]
    assert result.expected_rate == quantum.seer_game_win_probability(7)


@pytest.mark.parametrize("kind, n", [("bipartite_os", 5), ("odd_cycle", 5), ("diachronic", 3)])
def test_quantum_two_wing_game_builds_its_payoff_once(monkeypatch, kind, n):
    calls = []

    def counting(name):
        build = getattr(classical, name)
        return lambda n: calls.append((name, n)) or build(n)

    for name in ("os_ring_payoff", "odd_cycle_payoff"):
        # quantum holds its own names for the two builders.
        monkeypatch.setattr(classical, name, counting(name))
        monkeypatch.setattr(quantum, name, getattr(classical, name))
    result = simulate(GameSpec(kind, "quantum", trials=10, seed=0, n=n))
    odd = kind == "odd_cycle"
    assert calls == [("odd_cycle_payoff" if odd else "os_ring_payoff", n)]
    assert result.expected_rate == (quantum.odd_cycle_game_value(n) if odd else quantum.mermin_value(n))
