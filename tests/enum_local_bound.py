"""The 2^n_a enumeration that ``classical.local_bound``'s max-sum
elimination is checked against: every A strategy is scored at once in
integer units of the weights' common denominator, B's best response is
chosen bit by bit, and ties break toward the lexicographically first
strategies (X_1 most significant, B bits prefer 0)."""

from fractions import Fraction

import numpy as np


def enumerated_local_bound(payoff) -> tuple[Fraction, tuple[int, ...], tuple[int, ...]]:
    """(value, A witness, B witness) of a payoff with few A settings."""
    n_a, denom = payoff.n_a, payoff.denom
    # won[a - 1, x_a, b - 1, x_b]: units of 1/denom won at settings (a, b) on (x_a, x_b).
    a, b = payoff.settings.T - 1
    won = np.zeros((n_a, 2, payoff.n_b, 2), dtype=np.int64)
    np.add.at(won, (a, slice(None), b), (payoff.weights[:, None] * payoff.wins).reshape(-1, 2, 2))
    # score[x_b, x_a, a, b]: weight won at settings (a, b) on outcomes (x_a, x_b).
    score = won.transpose(3, 1, 0, 2)
    # Row k holds the bits of A strategy k, X_1 the most significant.
    bits_a = (np.arange(1 << n_a)[:, None] >> np.arange(n_a - 1, -1, -1)) & 1
    s0, s1 = (score[xb, 0].sum(axis=0) + bits_a @ (score[xb, 1] - score[xb, 0]) for xb in (0, 1))
    best = int(np.argmax(np.maximum(s0, s1).sum(axis=1)))
    value = Fraction(int(np.maximum(s0[best], s1[best]).sum()), denom)
    witness_b = tuple(int(x) for x in s1[best] > s0[best])
    return value, tuple(int(x) for x in bits_a[best]), witness_b
