"""Independent references the benchmark checks every result against.

Each value here is a closed form or an exact count written out in this file,
not read from ``seer_lab``: a check that compared the program with itself
would pass whatever the program computed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class CheckFailed(AssertionError):
    """A program result disagreed with its independent reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual: float, expected: float, tol: float, what: str) -> None:
    expect(abs(float(actual) - expected) <= tol, f"{what}: {actual!r} != {expected!r} (tol {tol:g})")


# --------------------------------------------------------------------------
# Classical bounds (exact)


def ks_bound(n: int) -> Fraction:
    return 1 - Fraction(1, n)


def os_ring_bound(n: int) -> Fraction:
    return 1 - Fraction(2, 3 * n)


def odd_cycle_bound(n: int) -> Fraction:
    return 1 - Fraction(1, 2 * n)


PNC_BOUND = Fraction(7, 9)
S3_BOUND = Fraction(5)


# --------------------------------------------------------------------------
# Quantum values (closed forms)


def klyachko_r(n: int) -> float:
    c = math.cos(math.pi / n)
    return 2 * c / (1 + c)


def klyachko_s(n: int) -> float:
    c = math.cos(math.pi / n)
    return n - 4 * n * c / (1 + c)


def mermin(n: int) -> float:
    return 1 / 3 + 2 / 3 * math.cos(math.pi / (2 * n)) ** 2


def bell_ring_extremum(n: int) -> float:
    return n * (4 * math.cos(math.pi / (2 * n)) ** 2 - 1)


def odd_cycle_quantum(n: int) -> float:
    return math.cos(math.pi / (4 * n)) ** 2


def seer_quantum(n: int) -> float:
    """Both-empty probability of an adjacent pair of star-polygon rays
    measured on the symmetry-axis state: 1 - 2cos^2(theta)."""
    c = math.cos(math.pi / n)
    return (1 - c) / (1 + c)


def hardy(eta: float) -> float:
    """p(A1=1, B3=0) of the Hardy chain at state parameter eta, worked out by
    hand from the rays (k1, 1) and (1, -k1) with k1 = eta^(5/2)."""
    return eta**2 * (eta**4 - 1) ** 2 / ((1 + eta**5) ** 2 * (1 + eta**2))


HARDY_OPTIMUM = 0.17455
HARDY_OPTIMUM_TOL = 2e-5
DIACHRONIC_QUANTUM = 5 / 6


def game_rate(kind: str, strategy: str, n: int) -> float:
    """Exact winning probability of each game under each strategy."""
    if strategy == "foil":
        return 0.0 if kind == "seer_ncycle" else 1.0
    quantum = strategy == "quantum"
    if kind == "seer_ncycle":
        return seer_quantum(n) if quantum else 1 / (2 * n)
    if kind == "bipartite_os":
        return mermin(n) if quantum else float(os_ring_bound(n))
    if kind == "odd_cycle":
        return odd_cycle_quantum(n) if quantum else float(odd_cycle_bound(n))
    if kind == "diachronic":
        return DIACHRONIC_QUANTUM if quantum else float(PNC_BOUND)
    raise ValueError(kind)


def check_game(kind: str, strategy: str, n: int, trials: int, wins: int, empirical: float,
               expected: float) -> None:
    """Analytic rate to 1e-10, win count consistent with the rate, empirical
    rate within 5 sigma, and foils exactly 1 or 0."""
    p = game_rate(kind, strategy, n)
    what = f"{kind}/{strategy}/n={n}"
    close(expected, p, 1e-10, f"{what} expected rate")
    expect(0 <= wins <= trials, f"{what}: {wins} wins out of {trials}")
    close(empirical, wins / trials, 1e-11, f"{what} empirical rate vs wins")
    if strategy == "foil":
        expect(wins == round(p * trials), f"{what}: foil won {wins} of {trials}")
    else:
        sigma = math.sqrt(p * (1 - p) / trials)
        expect(abs(wins / trials - p) <= 5 * sigma, f"{what}: rate {wins / trials} is beyond 5 sigma of {p}")


# --------------------------------------------------------------------------
# Joint measurability of spin axes


POVM_THRESHOLDS = {
    "orthogonal2": 1 / math.sqrt(2),
    "orthogonal3": 1 / math.sqrt(3),
    "trine2": math.sqrt(3) - 1,
    "trine3": 2 / 3,
}
ANTICORRELATION = {"orthogonal": 0.5, "trine": math.sqrt(3) / (math.sqrt(3) + 1)}


def _norm(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def _m_lengths(axes) -> list[float]:
    return [
        _norm([sum(s * ax[i] for s, ax in zip(signs, axes)) for i in range(3)])
        for signs in itertools.product((1, -1), repeat=len(axes))
    ]


def eta_necessary(axes) -> float:
    lengths = _m_lengths(axes)
    return sum(x * x for x in lengths) / (len(axes) * sum(lengths))


def eta_sufficient(axes) -> float:
    return 2 ** len(axes) / sum(_m_lengths(axes))


def pair_anticorrelation(a, b) -> float:
    """Anti-correlated weight |a-b| / (|a+b| + |a-b|) of the pairwise
    simulating POVM; its Pauli parts cancel, so it is state-independent."""
    s = _norm([x + y for x, y in zip(a, b)])
    d = _norm([x - y for x, y in zip(a, b)])
    return d / (s + d)


# --------------------------------------------------------------------------
# Marginal problem


def cycle_feasible(signs) -> bool:
    """A cycle of perfect (anti)correlations has a joint distribution exactly
    when the product of its signs is +1."""
    return math.prod(signs) == 1


def check_witness_cycle(witness, edge_signs: dict, what: str) -> None:
    """An odd-cycle witness closes through edges of the graph with sign product -1."""
    cycle = [int(v) for v in witness]
    expect(len(cycle) >= 3, f"{what}: witness {cycle} is not a cycle")
    product = 1
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        sign = edge_signs.get(frozenset((u, v)))
        expect(sign is not None, f"{what}: witness step {u}-{v} is not an edge")
        product *= sign
    expect(product == -1, f"{what}: witness {cycle} has even sign parity")


def check_reproduces_marginals(table, distribution, what: str) -> None:
    """The returned atom weights form a distribution whose marginal on every
    context equals the table's statistics."""
    expect(distribution is not None, f"{what}: feasible verdict without a distribution")
    weights = distribution.atoms
    expect(all(w >= -1e-12 for w in weights.values()), f"{what}: negative atom weight")
    close(sum(weights.values()), 1.0, 1e-9, f"{what} total atom weight")
    for ctx, dist in table.probs.items():
        marginal: dict = {}
        for atom, w in weights.items():
            key = tuple(atom[i - 1] for i in ctx)
            marginal[key] = marginal.get(key, 0.0) + w
        for outcome in set(marginal) | set(dist):
            close(marginal.get(outcome, 0.0), dist.get(outcome, 0.0), 1e-9,
                  f"{what} marginal {ctx}/{outcome}")
