"""The noisy-spin family keyed by sign tuples, kept as the reference for the
array route in ``seer_lab.povm``: each Bloch sum, effect and coarse-graining
is a left-to-right Python ``sum`` over a dict in ``itertools.product((1, -1))``
order, so the array route must reproduce it bit for bit."""

import itertools

import numpy as np

from seer_lab import numkit
from seer_lab.povm import _as_axes

SignTuple = tuple[int, ...]


def pauli_dot(v: np.ndarray) -> np.ndarray:
    """sigma . v for one real 3-vector."""
    return v[0] * numkit.PAULI_X + v[1] * numkit.PAULI_Y + v[2] * numkit.PAULI_Z


def m_vectors(axes) -> dict[SignTuple, np.ndarray]:
    """The 2^N Bloch sums m_X = sum_k X_k n_k over sign tuples X."""
    axes = _as_axes(axes)
    out = {}
    for signs in itertools.product((1, -1), repeat=len(axes)):
        out[signs] = sum(s * axes[k] for s, k in zip(signs, range(len(axes))))
    return out


def eta_necessary(axes) -> float:
    axes = _as_axes(axes)
    lengths = [float(np.linalg.norm(m)) for m in m_vectors(axes).values()]
    return sum(l * l for l in lengths) / (len(axes) * sum(lengths))


def eta_sufficient(axes) -> float:
    axes = _as_axes(axes)
    lengths = [float(np.linalg.norm(m)) for m in m_vectors(axes).values()]
    return 2 ** len(axes) / sum(lengths)


def effect(axes, eta: float, k: int, sign: int) -> np.ndarray:
    """E^k_sign = 1/2 + sign * (eta/2) sigma.n_k."""
    return (numkit.ID2 + sign * eta * pauli_dot(_as_axes(axes)[k])) / 2


class DictJointPOVM:
    def __init__(self, axes, effects: dict[SignTuple, np.ndarray], eta: float):
        self.axes, self.effects, self.eta = axes, effects, eta

    def completeness_defect(self) -> float:
        total = sum(self.effects.values())
        return float(np.max(np.abs(total - numkit.ID2)))

    def marginal(self, k: int, sign: int) -> np.ndarray:
        return sum(eff for signs, eff in self.effects.items() if signs[k] == sign)

    def marginal_defect(self) -> float:
        worst = 0.0
        for k in range(len(self.axes)):
            for sign in (1, -1):
                gap = np.max(np.abs(self.marginal(k, sign) - effect(self.axes, self.eta, k, sign)))
                worst = max(worst, float(gap))
        return worst


def simulating_povm(axes) -> DictJointPOVM:
    """F_X = (2|m_X| / sum|m|) [1/2 + sigma.m_hat/2], the zero effect where m_X vanishes."""
    axes = _as_axes(axes)
    ms = m_vectors(axes)
    lengths = {signs: float(np.linalg.norm(m)) for signs, m in ms.items()}
    total = sum(lengths.values())
    effects = {}
    for signs, m in ms.items():
        if lengths[signs] < 1e-14:
            effects[signs] = np.zeros((2, 2), dtype=complex)
        else:
            direction = m / lengths[signs]
            effects[signs] = (2 * lengths[signs] / total) * (
                numkit.ID2 + pauli_dot(direction)
            ) / 2
    return DictJointPOVM(axes, effects, eta=min(eta_sufficient(axes), 1.0))


def anticorrelation_value(axes) -> float:
    """Mean over axis pairs of half the trace of F_(1,-1) + F_(-1,1)."""
    axes = _as_axes(axes)
    pair_values = []
    for j, k in itertools.combinations(range(len(axes)), 2):
        povm = simulating_povm([axes[j], axes[k]])
        anti = povm.effects[(1, -1)] + povm.effects[(-1, 1)]
        pair_values.append(float(np.trace(anti).real) / 2)
    return float(np.mean(pair_values))
