"""The marginal LP over all 2^n atoms, solved by HiGHS: the independent oracle
for ``scenario._lp_feasible``, which runs nonnegative least squares on shared
marginals over only the atoms that the table's zero entries allow, so the
two-route check compares two solvers."""

import numpy as np
from scipy import optimize, sparse

from seer_lab.scenario import CorrelationTable, FeasibilityResult, JointDistribution
from seer_lab.tolerances import NUM_TOL


def full_lp_feasible(table: CorrelationTable) -> FeasibilityResult:
    """One zero-cost LP over nonnegative weights w of all 2^n atoms (atom i
    sets measurement m to bit m-1 of i): A w = b, with one row per context
    outcome and a normalisation row.  HiGHS status 0 is feasible, and the
    weights are re-checked against every marginal to NUM_TOL; status 2 is
    infeasible, without a certificate."""
    n = table.scenario.n_measurements
    atoms = np.arange(1 << n, dtype=np.int32)
    rows = []
    for ctx, start in table._start.items():
        # The atom's outcome on ctx, read as a binary number first
        # measurement first, indexes the context's block of rows.
        code = np.zeros_like(atoms)
        for m in ctx:
            code = (code << 1) | ((atoms >> (m - 1)) & 1)
        rows.append(start + code)
    b_eq = np.append(table.vector, 1.0)
    rows.append(np.full_like(atoms, b_eq.size - 1))
    # Every column holds one 1 per row block, in increasing row order.
    indices = np.stack(rows, axis=1).ravel()
    indptr = np.arange(0, indices.size + 1, len(rows), dtype=np.int32)
    a_eq = sparse.csc_array((np.ones(indices.size), indices, indptr), shape=(b_eq.size, atoms.size))
    res = optimize.linprog(np.zeros(atoms.size), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                           options={"presolve": False})
    if res.status == 0:
        residual = float(np.max(np.abs(a_eq @ res.x - b_eq)))
        if residual > NUM_TOL:
            raise RuntimeError(
                f"solver reported feasibility but marginals are off by {residual:.3e}"
            )
        support = np.flatnonzero(res.x > 1e-15)
        dist = {
            tuple(int(i >> j) & 1 for j in range(n)): float(res.x[i]) for i in support
        }
        return FeasibilityResult(True, JointDistribution(n, dist))
    if res.status != 2:
        raise RuntimeError(f"linear program failed: {res.message}")
    return FeasibilityResult(False, None)
