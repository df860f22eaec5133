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
from .tolerances import POVM_TOL, STRUCT_TOL

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


# Largest axis count.  A whole-process `seer-lab povm` run on N axes takes
# 0.22 s and 34 MB peak RSS at N=13, 0.27 s and 37 MB at N=14, and 0.29 s and
# 45 MB at N=15 with the cap lifted (median of seven, 2-core host), inside the
# 5 s budget; raising the cap changes which inputs exit 2.
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
        # An entry beyond 1 already rules out unit length, and squaring one
        # near 1e154 would overflow in the norm.
        if np.max(np.abs(v)) > 1.0 + STRUCT_TOL or abs(np.linalg.norm(v) - 1.0) > STRUCT_TOL:
            raise ValueError(f"axis {v} is not unit length")
        out.append(v)
    if not out:
        raise ValueError("need at least one axis")
    return tuple(out)


def m_vectors(axes: Union[str, Iterable[Sequence[float]]]) -> tuple[np.ndarray, np.ndarray]:
    """The 2^N sign tuples X as rows of +-1 (first axis slowest, +1 first, as
    in itertools.product((1, -1))) and their Bloch sums m_X = sum_k X_k n_k."""
    axes = _as_axes(axes)
    n = len(axes)
    signs = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    m = np.zeros((1 << n, 3))
    for k, axis in enumerate(axes):
        m += signs[:, k, None] * axis
    return signs, m


@dataclass
class JointPOVM:
    """Joint POVM whose outcome signs[i] (a row of +-1, one per axis) has the
    rank-one or zero effect effects[i], of trace 2 lengths[i] / sum(lengths)."""

    axes: tuple[np.ndarray, ...]
    signs: np.ndarray  # (2^N, N)
    lengths: np.ndarray  # (2^N,) Bloch sum lengths |m_X|, which both thresholds read
    effects: np.ndarray  # (2^N, 2, 2)

    @property
    def eta(self) -> float:
        """Sufficient threshold 2^N / sum|m| capped at 1: the sharpness its marginals reproduce."""
        # Python's sum adds left to right; np.sum's pairwise order differs.
        return min(len(self.lengths) / sum(self.lengths.tolist()), 1.0)

    @property
    def eta_necessary(self) -> float:
        """Necessary threshold sum|m|^2 / (N sum|m|)."""
        squares = (self.lengths * self.lengths).tolist()
        return sum(squares) / (len(self.axes) * sum(self.lengths.tolist()))

    @property
    def anticorrelation(self) -> float:
        """Weight s of the anti-correlated outcomes of a two-axis POVM, whose
        effects sum to A = s 1 within STRUCT_TOL in every entry (asserted).

        The value is then state-independent with no state to check: for any
        unit psi, |<psi|A - s 1|psi>| <= ||A - s 1||_F <= 2 STRUCT_TOL.
        """
        anti = self.effects[self.signs[:, 0] != self.signs[:, 1]].sum(axis=0)
        scale = float(np.trace(anti).real) / 2
        if np.max(np.abs(anti - scale * numkit.ID2)) > STRUCT_TOL:
            raise AssertionError("anti-correlated coarse-graining is not flat")
        return scale

    def completeness_defect(self) -> float:
        return float(np.max(np.abs(self.effects.sum(axis=0) - numkit.ID2)))

    def marginal_defect(self) -> float:
        """Largest deviation of any coarse-grained marginal from the eta-sharp effect."""
        sign = np.array([1, -1])
        # marginals[k, s] sums, in row order, the effects whose k-th sign is
        # sign[s]: that sign is bit N-k-1 of the row, so blocks of 2^(N-k-1)
        # rows alternate between the two signs.
        marginals = np.array([
            self.effects.reshape(1 << k, 2, -1, 2, 2).swapaxes(0, 1).reshape(2, -1, 2, 2).sum(axis=1)
            for k in range(len(self.axes))
        ])
        # E^k_s = 1/2 + s (eta/2) sigma.n_k
        spins = pauli_dot(np.array(self.axes))[:, None]
        targets = (numkit.ID2 + (sign * self.eta)[:, None, None] * spins) / 2
        return float(np.max(np.abs(marginals - targets)))


def simulating_povm(axes: Union[str, Iterable[Sequence[float]]]) -> JointPOVM:
    """The extremal joint POVM F_X = (2|m_X| / sum|m|) [1/2 + sigma.m_hat/2].

    Zero-length m vectors get the zero effect (that outcome never occurs).
    The POVM is complete and its marginals reproduce the eta-sharp spin
    observables at eta = eta_sufficient(axes); both are asserted.
    """
    axes = _as_axes(axes)
    signs, m = m_vectors(axes)
    # Row by row, the BLAS dot that np.linalg.norm uses on one vector; a norm
    # over axis=1 or (m * m).sum(axis=1) can differ from it in the last bit.
    lengths = np.sqrt(np.vecdot(m, m))
    total = sum(lengths.tolist())  # > 0: unit axes give sum|m|^2 = N 2^N
    live = lengths >= 1e-14
    direction = m[live] / lengths[live, None]
    effects = np.zeros((len(signs), 2, 2), dtype=complex)
    effects[live] = (2 * lengths[live] / total)[:, None, None] * (
        numkit.ID2 + pauli_dot(direction)
    ) / 2
    povm = JointPOVM(axes, signs, lengths, effects)
    if povm.completeness_defect() > POVM_TOL:
        raise AssertionError("simulating POVM is not complete")
    if povm.marginal_defect() > POVM_TOL:
        raise AssertionError("simulating POVM marginals do not match the noisy spins")
    return povm


def eta_necessary(axes: Union[str, Iterable[Sequence[float]]]) -> float:
    """Necessary sharpness threshold sum|m|^2 / (N sum|m|)."""
    return simulating_povm(axes).eta_necessary


def eta_sufficient(axes: Union[str, Iterable[Sequence[float]]]) -> float:
    """Sufficient sharpness threshold 2^N / sum|m|, capped at 1."""
    return simulating_povm(axes).eta


_ANTICORR_KIND = {"orthogonal": "orthogonal3", "trine": "trine3"}


def anticorrelation_value(
    axes: Union[str, Iterable[Sequence[float]]],
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Average anti-correlation probability over pairwise joint measurements.

    Each pair's value is the ``JointPOVM.anticorrelation`` of its simulating
    POVM, which is state-independent.  ``rng`` is accepted for existing
    callers that pass one and is unused: no states are drawn.
    """
    if isinstance(axes, str):
        axes = _ANTICORR_KIND.get(axes, axes)
    axes = _as_axes(axes)
    if len(axes) < 2:
        raise ValueError("anti-correlation needs at least two axes")
    return _anticorrelation([simulating_povm(pair) for pair in itertools.combinations(axes, 2)])


def _anticorrelation(pairs: Sequence[JointPOVM]) -> float:
    """``anticorrelation_value`` of the pairs' simulating POVMs."""
    return float(np.mean([pair.anticorrelation for pair in pairs]))


def nc_bound_noisy(eta: float) -> float:
    """Anti-correlation ceiling 1 - eta/3 for noncontextual models of eta-sharp pairs.

    The joint response function decomposes into a sharp part (weight alpha),
    one-sided mixtures (beta = gamma), correlated noise (delta) and
    anti-correlated noise (epsilon), with alpha + beta = eta and total weight
    one.  The sharp part anti-correlates on at most two of the three pairs,
    so the payoff 2/3 alpha + 1/2 (beta+gamma) + epsilon = 2/3 alpha + 1 -
    eta - delta is maximized by beta = gamma = delta = 0.  The maximum over
    the vertices of the feasible polygon max(0, 2 eta - 1) <= alpha <= eta,
    0 <= delta <= 1 - 2 eta + alpha is checked to be 1 - eta/3 in exact
    rationals.
    """
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0, 1]")
    e = Fraction(eta)
    best = max(
        Fraction(2, 3) * alpha + 1 - e - delta
        for alpha in (max(Fraction(0), 2 * e - 1), e)
        for delta in (Fraction(0), 1 - 2 * e + alpha)
    )
    if best != 1 - e / 3:
        raise AssertionError("vertex maximum differs from the analytic bound")
    return 1 - eta / 3
