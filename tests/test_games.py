import hashlib
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
    doc = result._asdict()
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


# Every kind x strategy at one seed, recorded before the seer game became a
# payoff: (wins, expected_rate, std_error, sigma_distance) of
# simulate(...)._asdict(), and a sha256 of the sampler's weights,
# outcome_probs and win bytes.
_GOLDEN = {
    ("seer_ncycle", "classical_best", 3): (16644, 0.16666666666666666, 0.0011785113019775792, 0.19233304448272917,
     "8db91d7303c47d14b6a0353a139420b3a45dfa33cdc39f4535f288d12a220f79"),
    ("seer_ncycle", "classical_best", 5): (9997, 0.1, 0.0009486832980505138, 0.031622776601686164,
     "a93a8bdf7ad8aa3c833dca4ace463bb905f29decb7a425dd730f5a21abc633d6"),
    ("seer_ncycle", "classical_best", 7): (7121, 0.07142857142857142, 0.0008144110179279557, 0.26837975390795155,
     "91873a3e0a526e7e9cfe10fcf8e0d7dbf5705dfb869c1ccb10ae069e2824e08e"),
    ("seer_ncycle", "quantum", 3): (33393, 0.3333333333333332, 0.0014907119849998597, 0.40025616797255237,
     "381dfb6de143df542344a2249082d561cfd696acef73ab4227df6d287e5c3803"),
    ("seer_ncycle", "quantum", 5): (10675, 0.10557280900008421, 0.0009717365435132917, 1.2114302047957113,
     "e7399a5c19b7df906332d60a8e53d06d6c76787ca75c7244145a04ff7270d4ff"),
    ("seer_ncycle", "quantum", 7): (5134, 0.052095083601686944, 0.0007027174813978958, 1.0745194500994635,
     "b52ada443de32dd7fcf732c590fd195e4bf0db43f45fadbc6e387d7245ffa477"),
    ("seer_ncycle", "foil", 3): (0, 0.0, 0.0, 0.0,
     "58c699d79d0a1d8aadace1e86bbbbf52f3bb65bee88a0869e408d5a964817d12"),
    ("seer_ncycle", "foil", 5): (0, 0.0, 0.0, 0.0,
     "eb24eeb7837fe3123344ab5b3de6977418105ca861bca0f5ab5c01292d3b9677"),
    ("seer_ncycle", "foil", 7): (0, 0.0, 0.0, 0.0,
     "11b5d2246c2c9d99203be797f070eeb0fd82d5b1a6a4c5cb198d10c48bf32f49"),
    ("bipartite_os", "classical_best", 3): (77798, 0.7777777777777778, 0.0013146843962443591, 0.15381807436058434,
     "fe65beb1d8e125a15328520b3a43ce0148b906a2a35b451ffb7475f359d22a20"),
    ("bipartite_os", "classical_best", 5): (86677, 0.8666666666666667, 0.0010749676997731398, 0.09612691930664663,
     "d362fda3d79a812759ddb64c801aea5d8ed608f3acd4dcc2e15eaf03a004fd25"),
    ("bipartite_os", "classical_best", 7): (90483, 0.9047619047619048, 0.000928266128077044, 0.07335745217410779,
     "55c15c12c51cc226866eaa245a45836b1bdb2c3e112c4716b893d8e888955937"),
    ("bipartite_os", "quantum", 3): (83388, 0.8333333333333331, 0.0011785113019775796, 0.4638620484584935,
     "b2cba18747fd74b68ae9d580a5f390ec42d71ecac8ba17c8324bb5f828b512da"),
    ("bipartite_os", "quantum", 5): (93657, 0.9363389981249823, 0.0007720639786655421, 0.2992004307945415,
     "4c216cb85774c3894cb2494cad9ece8a6eaff0200adc4ebf3183ce08d4b5cef2"),
    ("bipartite_os", "quantum", 7): (96708, 0.9669896226341396, 0.0005649840028887891, 0.15996446872545025,
     "35f510eee4695672b6740ef8c7f429b80342078b11033d0bb36a09ace7c18470"),
    ("bipartite_os", "foil", 3): (100000, 1.0, 0.0, 0.0,
     "3724aa947c0b2dff283d4ec9cb5279d6448a0a67cb4570b73a96a511416230a7"),
    ("bipartite_os", "foil", 5): (100000, 1.0, 0.0, 0.0,
     "6e6d67abb4efe53e9e5be33a75497a30b9f2fe08cd49be59861d02620837edba"),
    ("bipartite_os", "foil", 7): (100000, 1.0, 0.0, 0.0,
     "845dda99404d4071d6316f05c3fe3f21424506bee4cf0fa498af83002ddd464a"),
    ("odd_cycle", "classical_best", 3): (83277, 0.8333333333333334, 0.0011785113019775792, 0.47800418408212886,
     "f3e5ffad8c8defb535e22322e5dcc5867a01eb96236d90fe60ab8432e0ccb0d3"),
    ("odd_cycle", "classical_best", 5): (89952, 0.9, 0.0009486832980505137, 0.5059644256269786,
     "9d85c7940c93d30b0d88e17fb2a2e0d0bb04b4c64e86365a8ae6a53eeccb8e82"),
    ("odd_cycle", "classical_best", 7): (92815, 0.9285714285714286, 0.0008144110179279556, 0.5174642313911487,
     "89ab5516bf7197e65cb5517a61102dbe6f6a27a3efd78d6eecfe7aa1f4326626"),
    ("odd_cycle", "quantum", 3): (93198, 0.9330127018922192, 0.0007905694150420955, 1.3062760493513,
     "d18aa9feccefef7af83bc504b195521c98e1faf70a461405c3d25a5704a2a763"),
    ("odd_cycle", "quantum", 5): (97493, 0.9755282581475766, 0.0004885987689621388, 1.224436461122141,
     "d1e7801367136a5a5b6fb62306b4a6b2871b46efe25530e5586bae752a03b876"),
    ("odd_cycle", "quantum", 7): (98811, 0.9874639560909115, 0.00035183648918493194, 1.836204967214014,
     "56f9d055b11f38cee8c865adf8ad5fa778134af26cf9ba0b4668a4ad9e155c96"),
    ("odd_cycle", "foil", 3): (100000, 1.0, 0.0, 0.0,
     "0a7ae6c9394fd8bb202ef1fa20ab81cc32ad5858b34628c0df6df4d7e66d81e5"),
    ("odd_cycle", "foil", 5): (100000, 1.0, 0.0, 0.0,
     "cb15ad1574ed96bf92a57e512f510947c9fdf70f9c759b5ad157e0c75fdef50c"),
    ("odd_cycle", "foil", 7): (100000, 1.0, 0.0, 0.0,
     "78625436f4f0ef29b98034e650c236e9c3f627b1da878ee704e4ef87dec2ab0c"),
    ("diachronic", "classical_best", 3): (77798, 0.7777777777777778, 0.0013146843962443591, 0.15381807436058434,
     "57682c7adc65989c33ebd215446031669bb61698510ae92054e842decbd0484e"),
    ("diachronic", "quantum", 3): (83388, 0.8333333333333331, 0.0011785113019775796, 0.4638620484584935,
     "b2cba18747fd74b68ae9d580a5f390ec42d71ecac8ba17c8324bb5f828b512da"),
    ("diachronic", "foil", 3): (100000, 1.0, 0.0, 0.0,
     "3724aa947c0b2dff283d4ec9cb5279d6448a0a67cb4570b73a96a511416230a7"),
}


@pytest.mark.parametrize("kind, strategy, n", list(_GOLDEN))
def test_simulate_and_model_bytes_match_the_recorded_ones(kind, strategy, n):
    wins, expected_rate, std_error, sigma, digest = _GOLDEN[kind, strategy, n]
    spec = GameSpec(kind, strategy, trials=100_000, seed=31, n=n)
    assert simulate(spec)._asdict() == {
        "kind": kind, "strategy": strategy, "n": n, "trials": 100_000, "seed": 31, "wins": wins,
        "empirical_rate": wins / 100_000, "expected_rate": expected_rate, "std_error": std_error,
        "sigma_distance": sigma,
    }
    model = _build_model(spec)
    sha = hashlib.sha256()
    for array in (model.weights, model.outcome_probs, model.win):
        sha.update(np.ascontiguousarray(array).tobytes())
    assert sha.hexdigest() == digest
