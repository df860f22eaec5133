"""Explicit quantum realizations, their Born-rule values and optimality certificates.

Contents: the odd-n star-polygon (KCBS-style) construction and its
sum-of-nonnegative-operators certificate; the transitivity-of-implication
chain on the pentagram with the Clifton eight-ray coloring argument; a game
payoff as an operator (``payoff_operator``) and as a Born table
(``born_table``); the trine-observable two-wing construction with its
sum-of-squares certificate; the Hardy-chain construction; relative-state
inference chains; the rotated odd-cycle game observables; and the two-time
(diachronic) protocol.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import numkit, scenario as scenario_mod
from .classical import GamePayoff, odd_cycle_payoff, os_ring_payoff
from .numkit import as_operand, born_overlap, projector, spin_observable
from .tolerances import CertificateError, CHAIN_TOL, NORM_TOL, NUM_TOL, ORTHO_TOL, RANK_TOL, STRUCT_TOL

BELL_STATE = np.zeros(4)
BELL_STATE[0] = BELL_STATE[3] = 1 / math.sqrt(2)


# --------------------------------------------------------------------------
# Star polygons and the cycle contextuality values


class StarPolygon(NamedTuple):
    """Cyclically ordered unit vectors in R^3 with adjacent members orthogonal.

    The a-th ray has polar angle theta with cos^2(theta) =
    cos(pi/n)/(1+cos(pi/n)) and azimuth (n-1)*pi*a/n, tracing an
    {n/((n-1)/2)} star polygon around the z axis.
    """

    n: int
    theta: float
    phis: np.ndarray  # (n,)
    kets: np.ndarray  # (n, 3), one ray per row


def star_polygon(n: int) -> StarPolygon:
    if n < 3 or n % 2 == 0:
        raise ValueError("star polygons are defined here for odd n >= 3")
    cos2 = math.cos(math.pi / n) / (1 + math.cos(math.pi / n))
    theta = math.acos(math.sqrt(cos2))
    st, ct = math.sin(theta), math.cos(theta)
    phis = (n - 1) * math.pi * np.arange(1, n + 1) / n
    kets = np.stack([st * np.cos(phis), st * np.sin(phis), np.full(n, ct)], axis=1)
    if np.max(np.abs(np.vecdot(kets, np.roll(kets, -1, axis=0)))) > STRUCT_TOL:
        raise AssertionError("adjacent rays failed orthogonality")
    return StarPolygon(n, theta, phis, kets)


def symmetry_axis_state(poly: StarPolygon) -> np.ndarray:
    """The state along the polygon's symmetry axis, the sum of its rays (equal
    overlap with every ray)."""
    total = np.sum(poly.kets, axis=0)
    # The transverse components cancel.  Their rounding residue, under
    # 5e-17 * n of the length for n up to 50001, is cleared so that the
    # state lies exactly on the axis.
    total[np.abs(total) < poly.n * STRUCT_TOL * np.linalg.norm(total)] = 0.0
    return total / np.linalg.norm(total)


def _ray_effects(kets: Sequence[np.ndarray]) -> np.ndarray:
    """[1 - P, P] for the projector P onto each ray, stacked as (rays, 2, d, d):
    outcome 1 means the projector fires."""
    projs = projector(kets)
    return np.stack([np.eye(projs.shape[-1]) - projs, projs], axis=1)


def _joint_born(state, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Born distributions p[context, x, y] of the joint measurements of two binary
    measurements, given their outcome effects stacked as (contexts, 2, D, D).

    Outcome (x, y) has the effect E_x F_y of effect x of `first` and y of
    `second`, which must commute; checking outcome 1 suffices, since each
    measurement's two effects sum to the identity.  Every product is applied
    to the state in one stacked matmul and the entries finished by one
    born_overlap call.
    """
    psi = numkit.as_ket(state)
    products = first[:, :, None] @ second[:, None, :]
    if np.max(np.abs(products[:, 1, 1] - second[:, 1] @ first[:, 1])) > STRUCT_TOL:
        raise AssertionError("effects do not commute; no joint measurement")
    images = products @ psi
    return born_overlap(psi, images)


@contextlib.contextmanager
def _born_rows():
    """Report a table check that fails on the package's own Born rows as a
    CertificateError: such rows mean a broken construction, not bad input."""
    try:
        yield
    except ValueError as exc:
        raise CertificateError(f"Born table: {exc}") from exc


class KlyachkoValue(NamedTuple):
    n: int
    r: float
    s: float
    per_pair_anticorrelation: float


def klyachko_value(n: int) -> KlyachkoValue:
    """Born-rule anti-correlation value of the star-polygon construction.

    Returns R (average anti-correlation probability over adjacent pairs) and
    S = n - 2nR; both match the closed forms 2cos(pi/n)/(1+cos(pi/n)) and
    n - 4n cos(pi/n)/(1+cos(pi/n))."""
    if n == 3:
        raise ValueError(
            "n=3 has no quantum advantage: three pairwise commuting projectors "
            "are all three jointly diagonalizable"
        )
    table = klyachko_table(n)
    antis = table.rows(table.scenario.contexts)[:, 1:3].sum(axis=1)
    r = float(np.mean(antis))
    if np.max(np.abs(antis - r)) > NUM_TOL:
        raise AssertionError("pair statistics are not symmetric")
    return KlyachkoValue(n, r, n - 2 * n * r, r)


def klyachko_closed_form(n: int) -> tuple[float, float]:
    c = math.cos(math.pi / n)
    r = 2 * c / (1 + c)
    return r, n - 4 * n * c / (1 + c)


def klyachko_table(n: int) -> scenario_mod.CorrelationTable:
    """Adjacent-pair outcome statistics of the star-polygon state as a table."""
    poly = star_polygon(n)
    scen = scenario_mod.cycle_scenario(n)
    effects = _ray_effects(poly.kets)
    first, second = (effects[[ctx[i] - 1 for ctx in scen.contexts]] for i in (0, 1))
    p = _joint_born(symmetry_axis_state(poly), first, second)
    with _born_rows():
        return scenario_mod.CorrelationTable.from_vector(scen, scen.contexts, np.where(p > 1e-15, p, 0.0))


def seer_game_win_probability(n: int) -> float:
    """Chance that an adjacent pair of the star-polygon construction is found
    both-empty, i.e. the suitor's both-0 prediction succeeds."""
    return klyachko_table(n).prob((1, 2), (0, 0))


# --------------------------------------------------------------------------
# Certificate for the cycle (KCBS-style) inequality


class SosCertificateReport(NamedTuple):
    n: int
    residual: float
    certified_bound: float
    extremal_eigenvalue: float
    min_coefficient: float


def _certified(
    what: str, n: int, residual: float, bound: float, extremum: float, min_coeff: float
) -> SosCertificateReport:
    """The report of a sum-of-squares certificate, or CertificateError unless the
    identity's residual is below NUM_TOL, no coefficient is below -STRUCT_TOL,
    and the operator's extremal eigenvalue attains the bound within NUM_TOL."""
    if not (residual < NUM_TOL and min_coeff >= -STRUCT_TOL and abs(extremum - bound) < NUM_TOL):
        raise CertificateError(
            f"{what} certificate failed at n={n}: residual={residual:.3e}, "
            f"min coefficient={min_coeff:.3e}, extremum={extremum!r} vs bound={bound!r}"
        )
    return SosCertificateReport(n, residual, bound, extremum, min_coeff)


def _fourier_squares(stack: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k c_k F_k^dagger F_k over the Fourier modes F_k = sum_m omega^(k m) W_m,
    omega = exp(-2 pi i/n), of a family stacked on axis 0; c has the stack's shape
    without the matrix axes.  A square of v_j = sum_a omega^(j a) W_a over
    a = 1..n is that of mode j mod n: v_j = omega^j F_(j mod n)."""
    dim = stack.shape[-1]
    modes = np.fft.fft(stack, axis=0).reshape(-1, dim, dim)
    return np.einsum("k,kji,kjl->il", np.ravel(coeffs), modes.conj(), modes)


def klyachko_decomposition_residual(xbars: Sequence[np.ndarray]) -> float:
    """Frobenius residual of the sum-of-nonnegative-terms identity for the
    cycle operator, valid for any Hermitian family of n >= 3 members with
    adjacent members commuting (no dichotomy assumption)."""
    if len(xbars) < 3:
        raise ValueError("the cycle identity needs at least three operators")
    return _klyachko_residual(xbars, klyachko_certificate_coefficients(len(xbars)))[0]


def _klyachko_residual(xbars, coefficients: tuple[list[float], list[float]]) -> tuple[float, np.ndarray]:
    """klyachko_decomposition_residual, given klyachko_certificate_coefficients(n),
    and the cycle operator sum_a X_a X_a+1 it checks; real for a float64 family."""
    xb = as_operand(xbars)
    n = len(xb)
    eye = np.eye(xb.shape[-1])
    sec = 1 / math.cos(math.pi / n)
    squares = xb @ xb
    prods = xb @ np.roll(xb, -1, axis=0)  # X_a X_a+1
    cycle = prods.sum(axis=0)
    lhs = cycle - klyachko_closed_form(n)[1] * eye
    sites = (
        (2 - sec) * (eye - squares)
        + (eye - prods @ prods)
        + sec * xb @ np.roll(xb, -2, axis=0) @ (eye - np.roll(squares, -1, axis=0))
    )
    rhs = 0.25 * sites.sum(axis=0)
    v0 = n * (3 - 2 / math.cos(math.pi / (2 * n)) ** 2) * eye + cycle
    rhs += (1 + sec) / (4 * n) * (v0.conj().T @ v0)
    # The squares of the members take lam1 over j = 1..n, those of the adjacent
    # products lam2 over j = 1..n-1; mode j mod n of each.
    lam1, lam2 = coefficients
    coeffs = np.stack([np.roll(lam1, 1), [0.0, *lam2]], axis=1) / n
    rhs = rhs + _fourier_squares(np.stack([xb, prods], axis=1), coeffs)
    return float(np.linalg.norm(lhs - rhs)), cycle


def klyachko_certificate_coefficients(n: int) -> tuple[list[float], list[float]]:
    sec = 1 / math.cos(math.pi / n)
    lam1 = [
        (1 + math.cos(2 * math.pi * j / n) * sec) * math.sin(math.pi * j / n) ** 2
        for j in range(1, n + 1)
    ]
    lam2 = [0.25 * (1 + math.cos(2 * math.pi * j / n) * sec) for j in range(1, n)]
    return lam1, lam2


def sos_certificate_klyachko(n: int) -> SosCertificateReport:
    """Verify the spectral lower bound on the cycle operator built from the
    star-polygon projectors: identity residual, coefficient nonnegativity,
    and attainment of the certified minimum eigenvalue."""
    if n < 5 or n % 2 == 0:
        raise ValueError("the certificate applies to odd n >= 5")
    xbars = 2 * _ray_effects(star_polygon(n).kets)[:, 1] - np.eye(3)
    lam1, lam2 = klyachko_certificate_coefficients(n)
    residual, cycle = _klyachko_residual(xbars, (lam1, lam2))
    bound = klyachko_closed_form(n)[1]
    extremum = numkit.eig_extrema(cycle).min_eigenvalue
    return _certified("cycle", n, residual, bound, extremum, min(min(lam1), min(lam2)))


# --------------------------------------------------------------------------
# Transitivity of implication on the pentagram; Clifton's eight rays


class TransitivityChainResult(NamedTuple):
    psi2: np.ndarray
    p_start: float
    implications_hold: bool


def intersection_ray(plane_a: tuple[np.ndarray, np.ndarray], plane_b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Unit vector spanning the intersection of two 2-planes in R^3."""
    ray = np.cross(np.cross(*plane_a), np.cross(*plane_b))
    norm = np.linalg.norm(ray)
    if norm < 1e-12:
        raise ValueError("planes are degenerate; no unique intersection ray")
    return ray / norm


def _pentagram_psi2(k: Sequence[np.ndarray]) -> np.ndarray:
    """The ray spanning span{l2,l3} and span{l4,l5}, signed to overlap l1 positively."""
    psi2 = intersection_ray((k[1], k[2]), (k[3], k[4]))
    return -psi2 if k[0] @ psi2 < 0 else psi2


def transitivity_chain_klyachko() -> TransitivityChainResult:
    """State supporting the pentagram implication chain with a nonzero start.

    psi2 spans the intersection of span{l2,l3} and span{l4,l5}; on it the two
    state-dependent inferences (X2=0 => X3=1 and X4=0 => X5=1) hold with
    certainty, while p(X1=1) = 1 - 2/sqrt(5) > 0 starts the chain.
    """
    k = star_polygon(5).kets
    psi2 = _pentagram_psi2(k)
    effects = _ray_effects(k)
    # The pairs (l2,l3) and (l4,l5), zero-based.
    dists = _joint_born(psi2, effects[[1, 3]], effects[[2, 4]])
    holds = all(abs(d[0, 1] / (d[0, 1] + d[0, 0]) - 1.0) < CHAIN_TOL for d in dists)
    p_start = float((k[0] @ psi2) ** 2)
    return TransitivityChainResult(psi2, p_start, holds)


def heptagon_chain_rank() -> int:
    """Rank of the stacked plane normals for the n=7 analogue (3 means no
    common ray, so the chain construction has no state there)."""
    k = star_polygon(7).kets
    normals = np.cross(k[1::2], k[2::2])  # of span{l2,l3}, span{l4,l5} and span{l6,l7}
    return int(np.linalg.matrix_rank(normals, tol=RANK_TOL))


class CliftonReport(NamedTuple):
    ray_names: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    triples: tuple[tuple[str, str, str], ...]
    n_valid_colorings: int
    n_colorings_start_and_psi2: int
    n_colorings_l1_zero: int


def clifton_check() -> CliftonReport:
    """Exhaustive 0/1 coloring of the eight-ray orthogonality graph.

    Rays: the five pentagram rays, the two plane normals chi (of span{l2,l3})
    and chi' (of span{l4,l5}), and psi2.  Valid colorings put exactly one 1 in
    each orthogonal triple and at most one 1 on each edge; none has both
    v(psi2)=1 and v(l1)=1.
    """
    k = star_polygon(5).kets
    chi = np.cross(k[1], k[2])
    chi /= np.linalg.norm(chi)
    chip = np.cross(k[3], k[4])
    chip /= np.linalg.norm(chip)
    rays = np.vstack([k, chi, chip, _pentagram_psi2(k)])
    names = ("l1", "l2", "l3", "l4", "l5", "chi", "chi'", "psi2")
    ortho = np.abs(rays @ rays.T) < ORTHO_TOL
    edge_idx = [(i, j) for i, j in itertools.combinations(range(8), 2) if ortho[i, j]]
    triple_idx = [
        t for t in itertools.combinations(range(8), 3)
        if all(ortho[x, y] for x, y in itertools.combinations(t, 2))
    ]
    valid = []
    for bits in itertools.product((0, 1), repeat=8):
        if any(bits[i] + bits[j] > 1 for i, j in edge_idx):
            continue
        if any(bits[i] + bits[j] + bits[k_] != 1 for i, j, k_ in triple_idx):
            continue
        valid.append(bits)
    i_l1, i_psi2 = names.index("l1"), names.index("psi2")
    return CliftonReport(
        names,
        tuple(tuple(names[x] for x in e) for e in edge_idx),
        tuple(tuple(names[x] for x in t) for t in triple_idx),
        len(valid),
        sum(1 for b in valid if b[i_l1] == 1 and b[i_psi2] == 1),
        sum(1 for b in valid if b[i_l1] == 0),
    )


# --------------------------------------------------------------------------
# Two-wing ring game: trine-style observables on a maximally entangled pair,
# and the payoff operator and Born table of any two-wing game


def _ring_angles(n: int) -> np.ndarray:
    """phi_a = (n-1) pi (a-1)/n for a = 1..n."""
    return (n - 1) * math.pi * np.arange(n) / n


def ring_observables(n: int) -> np.ndarray:
    """The +-1 observables cos(phi_a) sigma_z + sin(phi_a) sigma_x with
    phi_a = (n-1) pi (a-1)/n, for a = 1..n, stacked as (n, 2, 2)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the ring construction needs odd n >= 3")
    return spin_observable(_ring_angles(n))


def mermin_value(n: int) -> float:
    """Born-rule value of the two-wing ring game with trine-style observables;
    equals 1/3 + (2/3) cos^2(pi/2n)."""
    payoff, ops = os_ring_payoff(n), ring_observables(n)
    return payoff.value(born_table(payoff, ops, ops))


def mermin_closed_form(n: int) -> float:
    return 1 / 3 + 2 / 3 * math.cos(math.pi / (2 * n)) ** 2


def _outcome_projectors(ops: Sequence[np.ndarray]) -> np.ndarray:
    """(1 + O)/2 and (1 - O)/2 for each observable O, stacked as (settings, 2, d, d),
    real for a float64 stack."""
    ops = as_operand(ops)
    eye = np.eye(ops.shape[-1])
    return np.stack([(eye + ops) / 2, (eye - ops) / 2], axis=1)


def _wing_projectors(ops_a, ops_b) -> tuple[np.ndarray, np.ndarray]:
    """Both wings' outcome projectors, one stack when the wings share one."""
    proj_a = _outcome_projectors(ops_a)
    return proj_a, proj_a if ops_b is ops_a else _outcome_projectors(ops_b)


def payoff_operator(payoff: GamePayoff, ops_a, ops_b) -> np.ndarray:
    """Sum over cells of weight * sum over winning (x, y) of Pi_a^x (x) Pi_b^y,
    with Pi^x = (1 + (-1)^x O)/2 for the wing observable O at each setting
    (outcome 0 is eigenvalue +1); for +-1 observables its expectation in a
    state is the state's winning probability.  Two matmuls over the cells:
    B's projectors weighted by each cell's won units, then paired with A's."""
    if len(ops_a) != payoff.n_a or len(ops_b) != payoff.n_b:
        raise ValueError(f"the payoff needs {payoff.n_a} and {payoff.n_b} wing observables")
    proj_a, proj_b = _wing_projectors(ops_a, ops_b)
    (a, b), da, db = payoff.settings.T - 1, proj_a.shape[-1], proj_b.shape[-1]
    units = (payoff.weights[:, None] * payoff.wins).reshape(-1, 2, 2)
    # half[cell, x]: the B operator won with A's outcome x at that cell.
    half = units @ proj_b[b].reshape(-1, 2, db * db)
    out = proj_a[a].reshape(-1, da * da).T @ half.reshape(-1, db * db)
    return out.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, -1) / payoff.denom


def _wing_lift(ops_a, ops_b) -> tuple[np.ndarray, np.ndarray]:
    """A (x) 1 and 1 (x) B for stacks of wing operators (leading axes kept), the
    products np.kron takes, real for float64 stacks."""
    ops_a, ops_b = as_operand(ops_a), as_operand(ops_b)
    da, db = ops_a.shape[-1], ops_b.shape[-1]
    abar = ops_a[..., :, None, :, None] * np.eye(db, dtype=ops_a.dtype)[:, None, :]
    bbar = np.eye(da, dtype=ops_b.dtype)[:, None, :, None] * ops_b[..., None, :, None, :]
    return abar.reshape(*abar.shape[:-4], da * db, -1), bbar.reshape(*bbar.shape[:-4], da * db, -1)


def born_table(payoff: GamePayoff, ops_a, ops_b) -> scenario_mod.CorrelationTable:
    """Table of a payoff's cells, the wings measuring on the maximally entangled
    pair (outcome 0 <-> +1 eigenvalue)."""
    eff_a, eff_b = _wing_lift(*_wing_projectors(ops_a, ops_b))
    a, b = payoff.settings.T - 1
    dists = _joint_born(BELL_STATE, eff_a[a], eff_b[b])
    with _born_rows():
        return scenario_mod.payoff_table(payoff, dists)


def mermin_table(n: int) -> scenario_mod.CorrelationTable:
    """Bipartite correlation table of the ring construction on the ring
    game's cells (the other setting pairs are unconstrained)."""
    ops = ring_observables(n)
    return born_table(os_ring_payoff(n), ops, ops)


def _complex_wings(ops_a, ops_b) -> tuple[np.ndarray, np.ndarray]:
    """Both wings' stacks as complex128, one array when the wings share one."""
    complex_a = np.asarray(ops_a, dtype=complex)
    return complex_a, complex_a if ops_b is ops_a else np.asarray(ops_b, dtype=complex)


def _ring_correlator(ops_a: Sequence[np.ndarray], ops_b: Sequence[np.ndarray]) -> np.ndarray:
    """sum_a A_a B_a minus the adjacent-setting correlators: each ring cell is
    (1 +- A (x) B)/2 with weight 1/(3n), so this is 6n P - 3n for the payoff P.
    The certificate's operands are complex: real ones move its last bits."""
    n = len(ops_a)
    payoff = payoff_operator(os_ring_payoff(n), *_complex_wings(ops_a, ops_b))
    return 6 * n * payoff - 3 * n * np.eye(payoff.shape[0])


def _ring_certificate_coefficients(n: int) -> np.ndarray:
    """lam_k = 1 - 2cos(2 pi k/n) of Fourier mode k = 0..n-1."""
    return 1 - 2 * np.cos(2 * np.pi * np.arange(n) / n)


def bell_decomposition_residual(
    ops_a: Sequence[np.ndarray], ops_b: Sequence[np.ndarray]
) -> float:
    """Frobenius residual of the sum-of-squares identity for the two-wing ring
    operator, valid for arbitrary Hermitian wing observables."""
    return _bell_residual(ops_a, ops_b)[0]


def _bell_residual(ops_a, ops_b) -> tuple[float, np.ndarray]:
    """bell_decomposition_residual and the ring correlator it checks, both from
    complex operands as _ring_correlator's."""
    ops_a, ops_b = _complex_wings(ops_a, ops_b)
    n = len(ops_a)
    correlator = _ring_correlator(ops_a, ops_b)
    abar, bbar = _wing_lift(ops_a, ops_b)
    lams = _ring_certificate_coefficients(n)
    lam_star = lams.max()
    eye = np.eye(abar.shape[-1])
    lhs = n * lam_star * eye - correlator
    squares = sum(np.einsum("aij,ajk->ik", w, w) for w in (abar, bbar))
    rhs = 0.5 * lam_star * (2 * n * eye - squares)
    # (lam* + lam_k)|A - B|^2 and (lam* - lam_k)|A + B|^2 of mode k, over 4n.
    coeffs = np.stack([lam_star + lams, lam_star - lams], axis=1) / (4 * n)
    rhs += _fourier_squares(np.stack([abar - bbar, abar + bbar], axis=1), coeffs)
    return float(np.linalg.norm(lhs - rhs)), correlator


def sos_certificate_bell(n: int) -> SosCertificateReport:
    """Verify the spectral upper bound n(4cos^2(pi/2n)-1) on the ring operator
    and its attainment by the trine-style realization."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the certificate applies to odd n >= 3")
    lams = _ring_certificate_coefficients(n)
    lam_star = float(lams.max())
    closed = 4 * math.cos(math.pi / (2 * n)) ** 2 - 1
    if not abs(lam_star - closed) < NUM_TOL:
        raise CertificateError(
            f"ring certificate failed at n={n}: top coefficient={lam_star!r} vs closed form={closed!r}"
        )
    ops = ring_observables(n)
    residual, correlator = _bell_residual(ops, ops)
    extremum = numkit.eig_extrema(correlator).max_eigenvalue
    min_coeff = float(min((lam_star + lams).min(), (lam_star - lams).min()))
    return _certified("ring", n, residual, n * lam_star, extremum, min_coeff)


# --------------------------------------------------------------------------
# Odd-cycle game


def odd_cycle_observables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Wing observables for the odd-cycle game, each stacked as (n, 2, 2): Alice
    has the ring observables, and Bob's Bloch directions are rotated by pi/2n
    in the z-x plane (a state-space rotation by pi/4n), which makes every
    context succeed with probability cos^2(pi/4n)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the odd-cycle game needs odd n >= 3")
    angles = _ring_angles(n)
    ops_a, ops_b = spin_observable(np.stack([angles, angles + math.pi / (2 * n)]))
    return ops_a, ops_b


def odd_cycle_game_value(n: int) -> float:
    """Born-rule winning probability of the odd-cycle game; equals cos^2(pi/4n)."""
    payoff = odd_cycle_payoff(n)
    return payoff.value(born_table(payoff, *odd_cycle_observables(n)))


def odd_cycle_table(n: int) -> scenario_mod.CorrelationTable:
    return born_table(odd_cycle_payoff(n), *odd_cycle_observables(n))


# --------------------------------------------------------------------------
# Hardy chain construction


# Bound on eta: kappa_3 = eta^(5/2) is normalised through 1 + eta^5, which
# overflows a double near eta = 4.5e61.
HARDY_ETA_MAX = 1e61


class HardyConfig(NamedTuple):
    eta: float
    kappas: tuple[float, float, float]
    state: np.ndarray
    up_a: tuple[np.ndarray, ...]
    up_b: tuple[np.ndarray, ...]


def build_hardy(eta: float) -> HardyConfig:
    """Two-qubit state (|00> - eta|11>)/sqrt(1+eta^2) plus the three measurement
    rays per wing, with kappa_a = eta^(((a+1) mod 3) + 1/2)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not eta < HARDY_ETA_MAX:
        raise ValueError(f"eta must be finite and below {HARDY_ETA_MAX:g}")
    k1, k2, k3 = (eta ** (((a + 1) % 3) + 0.5) for a in (1, 2, 3))

    def unit(x, y):
        v = np.array([x, y], dtype=complex)
        return v / np.linalg.norm(v)

    up_a = (unit(k1, 1), unit(1, -k2), unit(1, k3))
    up_b = (unit(-k3, 1), unit(k2, 1), unit(1, -k1))
    state = np.zeros(4, dtype=complex)
    state[0], state[3] = 1.0, -eta
    state /= np.linalg.norm(state)
    return HardyConfig(eta, (k1, k2, k3), state, up_a, up_b)


# The chain's five links, which must not occur, then the event contradicting
# it: (A setting, B setting, A outcome, B outcome), outcome 1 = the ray fires.
_HARDY_EVENTS = ((1, 1, 1, 0), (2, 1, 1, 1), (2, 2, 0, 1), (3, 2, 0, 0), (3, 3, 1, 0), (1, 3, 1, 0))


def _hardy_events(cfg: HardyConfig) -> dict[str, float]:
    settings_a, settings_b, *_ = np.array(_HARDY_EVENTS).T - 1
    eff_a, eff_b = _wing_lift(_ray_effects(cfg.up_a), _ray_effects(cfg.up_b))
    dists = _joint_born(cfg.state, eff_a[settings_a], eff_b[settings_b])
    return {f"p(A{a}={x},B{b}={y})": d[x, y] for (a, b, x, y), d in zip(_HARDY_EVENTS, dists)}


def hardy_chain_constraints(cfg: HardyConfig) -> dict[str, float]:
    """The five probabilities that must vanish for the implication chain
    A1=1 => B1=1 => not A2 ... => B3=1 to hold."""
    events = _hardy_events(cfg)
    del events["p(A1=1,B3=0)"]
    return events


def hardy_value(eta: float) -> float:
    """Probability of the chain-contradicting event A1=1 and B3=0.

    Transitivity along the chain would force B3=1 whenever A1=1; this returns
    the Born probability of the opposite, after asserting that every link of
    the chain holds (all five conditional constraints vanish).
    """
    events = _hardy_events(build_hardy(eta))
    value = events.pop("p(A1=1,B3=0)")
    worst = max(abs(v) for v in events.values())
    if worst > CHAIN_TOL:
        raise ValueError(f"chain constraints fail at eta={eta!r} (worst residual {worst:.3e})")
    return value


def hardy_closed_form_sqrt3() -> float:
    return 144 / (27 + math.sqrt(3)) ** 2


def golden_section_maximize(f, lo: float, hi: float):
    """Golden-section search for a maximum of a unimodal function on [lo, hi],
    narrowed to a bracket of width at most 1e-8."""
    inv_phi = (math.sqrt(5) - 1) / 2
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-8:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
    mid = (lo + hi) / 2
    return mid, f(mid)


def hardy_optimize():
    """Maximize the chain-contradiction probability over the state parameter in [0.5, 5]."""
    return golden_section_maximize(hardy_value, 0.5, 5.0)


# --------------------------------------------------------------------------
# Relative-state inference chains


class RelativeStateChainResult(NamedTuple):
    overlap: float
    chain: tuple[np.ndarray, ...]
    p_initial: float


def relative_state_chain(
    rho: np.ndarray, u: np.ndarray, phi1: Sequence[complex], steps: int
) -> RelativeStateChainResult:
    """Iterate the relative-state map phi -> rho^T phi for `steps` rounds.

    For the bipartite state (1 x U sqrt(rho)) sum_k |k>|k>, finding phi on one
    side forces the relative state on the other, and chaining the inferences
    multiplies by rho^T each round.  The overlap |<phi1|phi^(N)>|^2 (with the
    chain state normalized) vanishes only if rho^T annihilates phi1, in which
    case the initial event itself has probability zero.
    """
    rho = numkit.as_matrix(rho)
    if not numkit.is_psd(rho) or abs(np.trace(rho).real - 1.0) > NORM_TOL:
        raise ValueError("rho must be positive semidefinite with unit trace")
    if not numkit.is_unitary(numkit.as_matrix(u)):
        raise ValueError("u must be unitary")
    if rho.shape != np.asarray(u).shape:
        raise ValueError("rho and u must act on the same space")
    if steps < 1:
        raise ValueError("need at least one step")
    phi = numkit.normalize(np.asarray(phi1, dtype=complex))
    rho_t = rho.T
    p_initial = float(np.real(np.vdot(phi, rho_t @ phi)))
    chain = [phi]
    collapsed = False
    for _ in range(steps):
        nxt = rho_t @ chain[-1]
        norm = np.linalg.norm(nxt)
        if norm < 1e-13:
            collapsed = True
            break
        chain.append(nxt / norm)
    overlap = 0.0 if collapsed else float(abs(np.vdot(chain[0], chain[-1])) ** 2)
    if overlap < 1e-12 and p_initial > CHAIN_TOL:
        raise AssertionError("chain denied its antecedent although the antecedent has support")
    return RelativeStateChainResult(overlap, tuple(chain), p_initial)


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix, rounding-negative eigenvalues clipped to 0."""
    vals, vecs = np.linalg.eigh(numkit.as_matrix(rho))
    return (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T


def relative_state_partner(
    rho: np.ndarray, u: np.ndarray, phi: Sequence[complex]
) -> np.ndarray:
    """The state of the far wing after finding phi locally: U sqrt(rho) phi*."""
    partner = numkit.as_matrix(u) @ _sqrt_psd(rho) @ np.conj(numkit.normalize(phi))
    norm = np.linalg.norm(partner)
    if norm < 1e-13:
        raise ValueError("phi has no support on the bipartite state")
    return partner / norm


def purification_state(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(1 x U sqrt(rho)) sum_k |k>|k> as a d^2 vector (normalized)."""
    # Entry (k, i) of the d^2 vector is (U sqrt(rho))[i, k].
    return (numkit.as_matrix(u) @ _sqrt_psd(rho)).T.ravel()


# --------------------------------------------------------------------------
# Two-time (diachronic) protocol


class DiachronicResult(NamedTuple):
    r: float
    obliviousness_defect: float


def diachronic_quantum() -> DiachronicResult:
    """Average two-time success (5/6) and the trit-obliviousness defect.

    Preparing the eigenstate phi_{t,b} of trine observable t (b = 0 for +1)
    and measuring trine observable y gives (b, X) with probability
    |<psi_{y,X}|phi_{t,b}>|^2 / 2 = <Phi+|Pi_t^b (x) Pi_y^X|Phi+>, because
    the trine projectors are real.  The trines are ring_observables(3), so the
    two-time table is mermin_table(3) and its success the n = 3 ring value.
    The defect is the largest trace distance between the unconditioned
    mixtures (Pi_t^0 + Pi_t^1)/2 for different t; all equal 1/2 identity, so
    it vanishes, and CertificateError is raised unless it is below STRUCT_TOL.
    """
    mixes = _outcome_projectors(ring_observables(3)).mean(axis=1)
    gaps = np.linalg.eigvalsh(mixes[:, None] - mixes[None, :])
    defect = 0.5 * float(np.abs(gaps).sum(axis=-1).max())
    if defect >= STRUCT_TOL:
        raise CertificateError(f"trit-obliviousness defect {defect:.3e}")
    return DiachronicResult(mermin_value(3), defect)
