"""Noisy spin observables: joint-measurability thresholds and simulating POVMs.

An eta-sharp spin observable along axis n_k has effects
E^k_(+-) = 1/2 (identity) +- (eta/2) sigma.n_k.  A family of such observables
is jointly measurable up to a sharpness threshold expressed through the
vector sums m = sum_k X_k n_k over sign tuples X; the extremal joint POVM
weights each Bloch direction m-hat by its length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import numkit
from .numkit import pauli_dot
from .tolerances import STRUCT_TOL

SignTuple = tuple[int, ...]

PRESET_AXES: dict[str, tuple[np.ndarray, ...]] = {
    "orthogonal2": (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])),
    "orthogonal3": (
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
    ),
    "trine2": (
        np.array([0.0, 0.0, 1.0]),
        np.array([-math.sqrt(3) / 2, 0.0, -0.5]),
    ),
    "trine3": (
        np.array([0.0, 0.0, 1.0]),
        np.array([math.sqrt(3) / 2, 0.0, -0.5]),
        np.array([-math.sqrt(3) / 2, 0.0, -0.5]),
    ),
}


# Largest axis count, set from a 5 s budget: the 2^N sign tuples make a
# `seer-lab povm` run on N axes take 1.9 s at N=13, 3.6-3.8 s at N=14 and
# 6.7-7.5 s at N=15 (whole process, 2-core host).
MAX_AXES = 14


def _as_axes(axes: Union[str, Iterable[Sequence[float]]]) -> tuple[np.ndarray, ...]:
    if isinstance(axes, str):
        try:
            return PRESET_AXES[axes]
        except KeyError:
            raise ValueError(f"unknown axis preset {axes!r}") from None
    out = []
    for ax in axes:
        if len(out) == MAX_AXES:
            raise ValueError(f"at most {MAX_AXES} axes are supported")
        try:
            v = np.asarray(ax, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"axis {ax!r} is not a vector of numbers") from None
        if v.shape != (3,):
            raise ValueError("axes must be 3-vectors")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"axis {v} has a non-finite entry")
        if abs(np.linalg.norm(v) - 1.0) > STRUCT_TOL:
            raise ValueError(f"axis {v} is not unit length")
        out.append(v)
    if not out:
        raise ValueError("need at least one axis")
    return tuple(out)


@dataclass(frozen=True)
class NoisySpinSet:
    """Axes and sharpness of a family of eta-sharp spin observables."""

    axes: tuple[np.ndarray, ...]
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "axes", _as_axes(self.axes))
        if not 0 <= self.eta <= 1:
            raise ValueError("sharpness eta must lie in [0, 1]")

    def effect(self, k: int, sign: int) -> np.ndarray:
        """E^k_sign = 1/2 + sign * (eta/2) sigma.n_k."""
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        return (numkit.ID2 + sign * self.eta * pauli_dot(self.axes[k])) / 2

    def validate(self) -> None:
        for k in range(len(self.axes)):
            plus, minus = self.effect(k, 1), self.effect(k, -1)
            if not (numkit.is_psd(plus) and numkit.is_psd(minus)):
                raise AssertionError("effects are not positive semidefinite")
            if np.max(np.abs(plus + minus - numkit.ID2)) > STRUCT_TOL:
                raise AssertionError("effects do not sum to the identity")


def m_vectors(
    axes: Union[str, Iterable[Sequence[float]]], subset: Optional[Sequence[int]] = None
) -> dict[SignTuple, np.ndarray]:
    """The 2^|subset| Bloch sums m_X = sum_k X_k n_k over sign tuples X."""
    axes = _as_axes(axes)
    if subset is None:
        subset = range(len(axes))
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    out = {}
    for signs in itertools.product((1, -1), repeat=len(subset)):
        out[signs] = sum(s * axes[k] for s, k in zip(signs, subset))
    return out


def eta_necessary(axes: Union[str, Iterable[Sequence[float]]]) -> float:
    """Necessary sharpness threshold sum|m|^2 / (N sum|m|)."""
    axes = _as_axes(axes)
    lengths = [float(np.linalg.norm(m)) for m in m_vectors(axes).values()]
    return sum(l * l for l in lengths) / (len(axes) * sum(lengths))


def eta_sufficient(axes: Union[str, Iterable[Sequence[float]]]) -> float:
    """Sufficient sharpness threshold 2^N / sum|m|."""
    axes = _as_axes(axes)
    lengths = [float(np.linalg.norm(m)) for m in m_vectors(axes).values()]
    return 2 ** len(axes) / sum(lengths)


@dataclass
class JointPOVM:
    """Joint POVM over sign-tuple outcomes with rank-one (or zero) effects."""

    axes: tuple[np.ndarray, ...]
    effects: dict[SignTuple, np.ndarray]
    eta: float  # sharpness of the marginals this POVM reproduces

    def weight(self, signs: SignTuple) -> float:
        return float(np.trace(self.effects[signs]).real)

    def completeness_defect(self) -> float:
        total = sum(self.effects.values())
        return float(np.max(np.abs(total - numkit.ID2)))

    def marginal(self, k: int, sign: int) -> np.ndarray:
        return sum(
            eff for signs, eff in self.effects.items() if signs[k] == sign
        )

    def marginal_defect(self) -> float:
        """Largest deviation of any coarse-grained marginal from the eta-sharp effect."""
        spins = NoisySpinSet(self.axes, self.eta)
        worst = 0.0
        for k in range(len(self.axes)):
            for sign in (1, -1):
                gap = np.max(np.abs(self.marginal(k, sign) - spins.effect(k, sign)))
                worst = max(worst, float(gap))
        return worst


def simulating_povm(axes: Union[str, Iterable[Sequence[float]]]) -> JointPOVM:
    """The extremal joint POVM F_X = (2|m_X| / sum|m|) [1/2 + sigma.m_hat/2].

    Zero-length m vectors get the zero effect (that outcome never occurs).
    The POVM is complete and its marginals reproduce the eta-sharp spin
    observables at eta = eta_sufficient(axes); both are asserted.
    """
    axes = _as_axes(axes)
    ms = m_vectors(axes)
    lengths = {signs: float(np.linalg.norm(m)) for signs, m in ms.items()}
    total = sum(lengths.values())
    if total <= 0:
        raise ValueError("all m vectors vanish; no simulating POVM")
    effects = {}
    for signs, m in ms.items():
        if lengths[signs] < 1e-14:
            effects[signs] = np.zeros((2, 2), dtype=complex)
        else:
            direction = m / lengths[signs]
            effects[signs] = (2 * lengths[signs] / total) * (
                numkit.ID2 + pauli_dot(direction)
            ) / 2
    povm = JointPOVM(axes, effects, eta=min(eta_sufficient(axes), 1.0))
    if povm.completeness_defect() > 1e-10:
        raise AssertionError("simulating POVM is not complete")
    if povm.marginal_defect() > 1e-10:
        raise AssertionError("simulating POVM marginals do not match the noisy spins")
    return povm


_ANTICORR_KIND = {"orthogonal": "orthogonal3", "trine": "trine3"}


def anticorrelation_value(
    axes: Union[str, Iterable[Sequence[float]]],
    check_states: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Average anti-correlation probability over pairwise joint measurements.

    For each pair of axes the anti-correlated effects of the pairwise
    simulating POVM coarse-grain to a multiple of the identity, so the value
    is state-independent; this is verified on random pure states.
    """
    if isinstance(axes, str):
        axes = _ANTICORR_KIND.get(axes, axes)
    axes = _as_axes(axes)
    if len(axes) < 2:
        raise ValueError("anti-correlation needs at least two axes")
    rng = rng or np.random.default_rng(20120521)
    pair_values = []
    for j, k in itertools.combinations(range(len(axes)), 2):
        povm = simulating_povm([axes[j], axes[k]])
        anti = povm.effects[(1, -1)] + povm.effects[(-1, 1)]
        scale = float(np.trace(anti).real) / 2
        if np.max(np.abs(anti - scale * numkit.ID2)) > STRUCT_TOL:
            raise AssertionError("anti-correlated coarse-graining is not flat")
        values = []
        for _ in range(check_states):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            values.append(numkit.born_probability(psi, anti))
        if max(values) - min(values) > 1e-10:
            raise AssertionError("anti-correlation value is state-dependent")
        pair_values.append(scale)
    return float(np.mean(pair_values))


def nc_bound_noisy(eta: float, verify: bool = True) -> float:
    """Anti-correlation ceiling 1 - eta/3 for noncontextual models of eta-sharp pairs.

    The joint response function decomposes into a sharp part (weight alpha),
    one-sided mixtures (beta = gamma), correlated noise (delta) and
    anti-correlated noise (epsilon), with alpha + beta = eta and total weight
    one.  The sharp part anti-correlates on at most two of the three pairs,
    so the payoff 2/3 alpha + 1/2 (beta+gamma) + epsilon = 2/3 alpha + 1 -
    eta - delta is maximized by beta = gamma = delta = 0.  With verify=True
    the maximum over the vertices of the feasible polygon max(0, 2 eta - 1)
    <= alpha <= eta, 0 <= delta <= 1 - 2 eta + alpha must be 1 - eta/3 in
    exact rationals.
    """
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0, 1]")
    if verify:
        e = Fraction(eta)
        best = max(
            Fraction(2, 3) * alpha + 1 - e - delta
            for alpha in (max(Fraction(0), 2 * e - 1), e)
            for delta in (Fraction(0), 1 - 2 * e + alpha)
        )
        if best != 1 - e / 3:
            raise AssertionError("vertex maximum differs from the analytic bound")
    return 1 - eta / 3
