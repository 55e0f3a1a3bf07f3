"""Sparse solvers for the nonsymmetric discrete systems.

`solve` (A x = b) and `solve_transpose` (A^T g = e) share one path:
ILU-preconditioned GMRES, then a complete sparse LU when that misses
the tolerance, then `SolveError`.  Every accepted solution has its
residual recomputed from scratch before it is returned.  Each fallback
is logged at WARNING with its reason.

One factorization of A serves both directions: a transpose solve runs
its triangular solves transposed and never forms A^T.  Several
right-hand sides with one matrix, in either direction, can share one
ILU: build it with `ilu_factor` and pass it as `ilu=`.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolveReport",
    "SolveError",
    "solve",
    "solve_transpose",
    "ilu_factor",
]

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
# GMRES restarts of 50 iterations each before it gives up.
MAX_RESTARTS = 400


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    method: str


class SolveError(RuntimeError):
    """Raised when no solution path reaches the requested tolerance."""

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = best_residual


def _relative_residual(A, x, b):
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return 0.0
    return np.linalg.norm(b - A @ x) / nb


class _PermutedILU:
    """ILU of A[order][:, order] that solves with A itself (or A^T)."""

    def __init__(self, ilu, order):
        self.ilu = ilu
        self.order = order

    def solve(self, b, trans="N"):
        x = np.empty_like(b)
        x[self.order] = self.ilu.solve(b[self.order], trans)
        return x


def ilu_factor(A, order=None):
    """Incomplete LU of A, the GMRES preconditioner of both solve directions.

    With order None, spilu chooses the column ordering (COLAMD).  With
    a permutation `order` (such as `TensorMesh.dissection_order()`), it
    factors A[order][:, order] as given, without pivoting, and the
    returned object's `solve` permutes in and out.  Returns None when
    spilu fails; `solve` then factors again and falls back from there,
    as it does without a prebuilt factorization.
    """
    A = sp.csr_matrix(A)
    options = {}
    if order is not None:
        A = A[order][:, order]
        options = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}
    try:
        ilu = spla.spilu(A.tocsc(), drop_tol=1e-5, fill_factor=20, **options)
    except RuntimeError as exc:
        log.warning("spilu failed (%s); no ILU preconditioner", exc)
        return None
    return ilu if order is None else _PermutedILU(ilu, order)


def _gmres(op, b, tol, precondition):
    M = spla.LinearOperator(op.shape, precondition)
    count = [0]

    def cb(_):
        count[0] += 1

    x, info = spla.gmres(op, b, rtol=0.1 * tol, atol=0.0, restart=50,
                         maxiter=MAX_RESTARTS, M=M,
                         callback=cb, callback_type="pr_norm")
    if info != 0:
        log.warning("gmres stopped after %d iterations (info %d)", count[0],
                    info)
        return None, count[0]
    return x, count[0]


def solve(A, b, tol=DEFAULT_TOL, ilu=None):
    """Solve A x = b to relative residual <= tol.

    Runs GMRES+ILU, then a complete sparse LU; raises SolveError when
    neither reaches tol.  ilu: a prebuilt `ilu_factor(A)` to
    precondition GMRES with; None factors A here.  Deterministic: zero
    initial guess, no randomized components.  Returns (x, SolveReport),
    whose method names the path that succeeded.
    """
    return _solve(A, b, tol, ilu, "N")


def solve_transpose(A, e, tol=DEFAULT_TOL, ilu=None):
    """Solve A^T g = e; same contract as solve.

    ilu: a prebuilt `ilu_factor(A)`, the same one forward solves use.
    """
    return _solve(A, e, tol, ilu, "T")


def _solve(A, b, tol, ilu, trans):
    """The body of `solve` (trans "N") and `solve_transpose` (trans "T")."""
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != len(b):
        raise ValueError("A must be square and match b")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if np.linalg.norm(b) == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, "trivial")

    op = A.T if trans == "T" else A
    if ilu is None:
        ilu = ilu_factor(A)
    x = None
    if ilu is not None:
        x, iters = _gmres(op, b, tol, lambda r: ilu.solve(r, trans))
    best = np.inf
    if x is not None:
        res = _relative_residual(op, x, b)
        best = res
        if res <= tol:
            return x, SolveReport(iters, res, "gmres+ilu")
        log.warning("gmres+ilu residual %.3e above tol %g", res, tol)
    try:
        x = spla.splu(A.tocsc()).solve(b, trans)
    except RuntimeError as exc:
        log.warning("splu failed (%s)", exc)
    else:
        res = _relative_residual(op, x, b)
        best = min(best, res)
        if res <= tol:
            return x, SolveReport(1, res, "splu")
        log.warning("splu residual %.3e above tol %g", res, tol)
    raise SolveError(
        f"no solver reached tol={tol} (tried gmres+ilu and splu, "
        f"best residual {best:.3e})", best_residual=best)
