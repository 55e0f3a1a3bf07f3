"""Sparse solvers for the nonsymmetric discrete systems.

`solve` (A x = b) and `solve_transpose` (A^T g = e) share one path:
at most MAX_CYCLES `multigrid` V-cycles on the true residual, then a
complete sparse LU if its estimated memory fits, then `SolveError`;
with no multigrid they go straight to the LU.  Every accepted solution
has its relative residual, recomputed from scratch, at most TOL and is
logged at DEBUG; each fallback is logged at WARNING.  One multigrid of
A serves both directions and many right-hand sides.
"""

import logging
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

__all__ = ["SolveReport", "SolveError", "Multigrid", "coarsens", "multigrid",
           "solve", "solve_transpose"]

log = logging.getLogger(__name__)

TOL = 1e-10
# V-cycles a solve runs before it hands over to splu.
MAX_CYCLES = 50
# A level with at most this many unknowns is the coarsest one.
COARSE_LIMIT = 1000
# Share of physical memory the fallback splu may take, by `_splu_bytes`.
SPLU_MEMORY_SHARE = 0.5


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    method: str


class SolveError(RuntimeError):
    """Raised when no solution path reaches TOL."""

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = best_residual


def coarsens(shape):
    """Whether the multigrid of an (my, mx) interior grid has a coarser
    level, on the (my // 2, mx // 2) grid: both counts are odd and the
    level has more than COARSE_LIMIT unknowns."""
    my, mx = shape
    return my % 2 == 1 and mx % 2 == 1 and min(shape) >= 3 \
        and my * mx > COARSE_LIMIT


def _interpolation(m):
    """Linear interpolation from m to 2m + 1 interior nodes of an axis:
    coarse node k is fine node 2k + 1, and each fine node between takes
    half of each neighbour (boundary values are 0).  Exact on nested
    meshes, whose new fine nodes are the midpoints of coarse cells."""
    cols = np.repeat(np.arange(m), 3)
    rows = 2 * cols + np.tile([0, 1, 2], m)
    return sp.csr_matrix((np.tile([0.5, 1.0, 0.5], m), (rows, cols)),
                         shape=(2 * m + 1, m))


class Multigrid:
    """V(1,1) cycle of A on its (my, mx) interior grid; see `multigrid`.

    The coarsest level holds the splu factors `lu` of A; the others the
    interpolation P from `coarse`, the Multigrid of the next coarser
    level, and a zebra x-line smoother.  Grid rows (x-lines) of one
    colour, even or odd, couple only to rows of the other colour (`up`:
    even to odd, `down`: odd to even), so the lines of a colour form one
    tridiagonal system, zero at line ends; `lines` holds both factored.
    """

    def __init__(self, A, shape, coarse=None):
        self.A, self.shape, self.P, self.coarse = A, shape, None, None
        if not coarsens(shape):
            self.lu = spla.splu(A.tocsc())
            return
        my, mx = shape
        rows = np.arange(my * mx).reshape(shape)
        even, odd = rows[0::2].ravel(), rows[1::2].ravel()
        west, east = np.zeros((2, my * mx))
        west[1:], east[:-1] = A.diagonal(-1), A.diagonal(1)
        west[rows[:, 0]] = east[rows[:, -1]] = 0.0
        diag = A.diagonal()
        self.lines = []
        for c, colour in enumerate((even, odd)):
            *factors, info = lapack.dgttrf(west[colour][1:], diag[colour],
                                           east[colour][:-1])
            if info > 0:    # the 1-based zero pivot among the lines of c
                row, col = divmod(info - 1, mx)
                raise np.linalg.LinAlgError(
                    f"singular x-line: zero pivot in the {('even', 'odd')[c]}"
                    f" rows at interior node (row {2 * row + c}, column {col})")
            self.lines.append(factors)
        self.up, self.down = A[even][:, odd], A[odd][:, even]
        self.P = sp.kron(_interpolation(my // 2), _interpolation(mx // 2),
                         format="csr")
        self.P_even, self.P_odd = self.P[even], self.P[odd]
        self.coarse = coarse if coarse is not None else Multigrid(
            (self.P.T @ A @ self.P).tocsr(), (my // 2, mx // 2))

    @property
    def levels(self):
        """This grid and the coarser ones, fine to coarse."""
        return [self] + (self.coarse.levels if self.coarse else [])

    def solve(self, f, trans="N"):
        """One cycle applied to f; with trans "T", the cycle of A^T."""
        if self.coarse is None:
            return self.lu.solve(f, trans)
        up, down = ((self.down.T, self.up.T) if trans == "T"
                    else (self.up, self.down))

        def lines(colour, b):
            return lapack.dgttrs(*self.lines[colour], b, trans=trans)[0]

        F = np.reshape(f, self.shape)
        fe, fo = F[0::2].ravel(), F[1::2].ravel()
        # pre-smoothing from u = 0 leaves the odd rows solved, so only
        # the even rows carry a residual
        ue = lines(0, fe)
        uo = lines(1, fo - down @ ue)
        uo += self.P_odd @ self.coarse.solve(self.P_even.T @ -(up @ uo),
                                             trans)
        # the even half-sweep overwrites the even rows, so only the odd
        # part of the coarse-grid correction is added
        ue = lines(0, fe - up @ uo)
        uo = lines(1, fo - down @ ue)
        U = np.empty_like(F)
        U[0::2] = ue.reshape(-1, F.shape[1])
        U[1::2] = uo.reshape(-1, F.shape[1])
        return U.ravel()


def multigrid(A, shape, coarse=None):
    """Multigrid V(1,1) cycle of A on the (my, mx) interior grid.

    A couples each interior node (unknowns raveled with x fastest) to
    at most its eight grid neighbours.  Levels are coarsened while
    `coarsens` holds, through P = P_y (x) P_x, each 1D P linear
    interpolation from m to 2m + 1 nodes.  coarse is the Multigrid of
    the next coarser level, such as the matrix of the nested mesh with
    half the intervals; None forms it from the Galerkin operator
    P^T A P, and so on down.  One zebra x-line Gauss-Seidel sweep, even
    rows then odd rows, smooths before and after the coarse-grid
    correction.  Returns a Multigrid, or None with a WARNING when setup
    fails or runs out of memory.  (Gaspar, Clavero & Lisbona, J. Comput.
    Appl. Math. 138, 2002.)
    """
    A = sp.csr_matrix(A)
    if A.shape != (np.prod(shape),) * 2:
        raise ValueError(f"A does not match an interior grid {shape}")
    if coarse is not None and (not coarsens(shape) or coarse.shape
                               != (shape[0] // 2, shape[1] // 2)):
        raise ValueError(f"a coarse level on {coarse.shape} is not the "
                         f"coarsening of the interior grid {shape}")
    try:
        return Multigrid(A, shape, coarse)
    except (MemoryError, np.linalg.LinAlgError, RuntimeError) as exc:
        log.warning("multigrid setup failed (%r); no multigrid", exc)
        return None


def solve(A, b, mg=None, x0=None):
    """Solve A x = b to relative residual ||b - A x|| / ||b|| <= TOL.

    mg: a `multigrid(A, shape)` whose V-cycle, applied to the residual,
    corrects x until ||b - A x|| / ||b|| <= 0.1 TOL, for at most
    MAX_CYCLES cycles before the splu fallback; None goes straight to
    splu.  x0: the first iterate of the cycles, zero when None; splu
    ignores it.  Raises SolveError when no path reaches TOL or splu's
    estimated peak exceeds SPLU_MEMORY_SHARE of physical memory.
    Deterministic.  Returns (x, SolveReport), whose method names the
    path that succeeded and whose iterations counts its cycles.
    """
    return _solve(A, b, mg, x0, "N")


def solve_transpose(A, e, mg=None):
    """Solve A^T g = e; same contract as solve, from a zero guess.

    mg: a `multigrid(A, shape)`, the same one forward solves use.
    """
    return _solve(A, e, mg, None, "T")


def _splu_bytes(n, nnz):
    """Estimated peak bytes of splu: 16 per L+U entry, the COLAMD fill
    (1.5 log2 n - 9) nnz (measured 9.9, 13.0, 16.0 at n = 8,001 to 130,305)."""
    return 16.0 * max(1.5 * np.log2(n) - 9.0, 1.0) * nnz


def _accept(x, report, mg):
    log.debug("%s: n %d, levels %d, %d iterations, residual %.3e",
              report.method, len(x), len(mg.levels) if mg else 0,
              report.iterations, report.relative_residual)
    return x, report


def _solve(A, b, mg, x0, trans):
    """The body of `solve` (trans "N") and `solve_transpose` (trans "T")."""
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != len(b):
        raise ValueError("A must be square and match b")
    if x0 is not None and np.shape(x0) != b.shape:
        raise ValueError(f"x0 has shape {np.shape(x0)}, not {b.shape}")
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return _accept(np.zeros_like(b), SolveReport(0, 0.0, "trivial"), mg)
    op = A.T if trans == "T" else A
    best = np.inf
    if mg is not None:
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
        r = b - op @ x
        for cycles in range(1, MAX_CYCLES + 1):
            x += mg.solve(r, trans)
            r = b - op @ x
            res = np.linalg.norm(r) / norm_b
            best = min(best, res)       # min and <= both pass over NaN
            if res <= 0.1 * TOL:
                return _accept(x, SolveReport(cycles, res, "mg"), mg)
        log.warning("multigrid stopped after %d cycles, residual %.3e",
                    MAX_CYCLES, res)
    need, limit = _splu_bytes(len(b), A.nnz), SPLU_MEMORY_SHARE * \
        os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > limit:
        raise SolveError(f"splu of n = {len(b)} would need about {need:.3g} "
                         f"bytes, above {limit:.3g}", best_residual=best)
    try:
        x = spla.splu(A.tocsc()).solve(b, trans)
    except (MemoryError, RuntimeError) as exc:
        log.warning("splu failed (%r)", exc)
    else:
        res = np.linalg.norm(b - op @ x) / norm_b
        best = min(best, res)
        if res <= TOL:
            return _accept(x, SolveReport(1, res, "splu"), mg)
        log.warning("splu residual %.3e above TOL %g", res, TOL)
    raise SolveError(
        f"no solver reached TOL={TOL} (tried "
        f"{'mg and ' if mg else ''}splu, "
        f"best residual {best:.3e})", best_residual=best)
