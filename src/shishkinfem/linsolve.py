"""Sparse solvers for the nonsymmetric discrete systems.

`solve` (A x = b) and `solve_transpose` (A^T g = e) share one path:
at most MAX_CYCLES `multigrid` V-cycles on the true residual, then a
complete sparse LU if its estimated memory fits, then `SolveError`;
with no multigrid they go straight to the LU.  Every accepted solution
has its relative residual, recomputed from scratch in float64, at most
TOL and is logged at DEBUG; each fallback is logged at WARNING.  The
cycles only correct x and need only contract, so every level but the
coarsest, whose splu is float64, smooths in float32: iterative
refinement with a low-precision correction (Carson & Higham, SIAM J.
Sci. Comput. 40, 2018), each cycle given the residual scaled by a power
of 2 to a largest entry near 1, so any scale of b stays in float32's
range.  One multigrid of A serves both directions and
many right-hand sides, from any number of threads: no level stores a
transfer matrix, and a cycle keeps no state between calls.  Fallback
factorizations run one at a time.
"""

import logging
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

__all__ = ["SolveReport", "SolveError", "Multigrid", "coarsens", "multigrid",
           "prolong", "solve", "solve_transpose"]

log = logging.getLogger(__name__)

TOL = 1e-10
# V-cycles a solve runs before it hands over to splu.
MAX_CYCLES = 50
# A level with at most this many unknowns is the coarsest one.
COARSE_LIMIT = 1000
# Share of physical memory the fallback splu may take, by `_splu_bytes`.
SPLU_MEMORY_SHARE = 0.5
# One fallback splu at a time: SPLU_MEMORY_SHARE budgets for one.
_SPLU_LOCK = threading.Lock()
# Grid rows (x-lines) in a block of `_stencil`.
BLOCK_LINES = 32
# Stencil slots 3 (dy + 1) + dx + 1 of the couplings to grid rows l + dy,
# in the order of their DIA offsets in colour numbering (`_stencil`).
_CROSS = (0, 1, 2, 6, 7, 8)
# float32's smallest normal and largest finite value.
_TINY, _HUGE = np.finfo(np.float32).tiny, np.finfo(np.float32).max
_BEYOND = "A couples a node beyond its eight grid neighbours"
# Terms (offset, weight) of 1D interpolation: coarse k to fine 2k + offset.
_TERMS = ((2, 0.5), (1, 1.0), (0, 0.5))


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


def prolong(C):
    """The odd rows (cy, 2 cx + 1) of P C for C (cy, cx), summed as the
    CSR product is; P = P_y (x) P_x, each 1D P linear interpolation from
    m to 2m + 1 nodes (exact on nested meshes), in C's dtype.  No even
    row is formed: an even half-sweep, which follows the coarse-grid
    correction and starts every cycle, sets the even rows from the odd
    ones alone."""
    cy, cx = C.shape
    U = np.zeros((cy, 2 * cx + 1), dtype=C.dtype)
    for ox, wx in _TERMS:
        U[:, ox:ox + 2 * cx:2] += wx * C
    return U


def _restrict(E):
    """(P's even rows)^T E for the even rows E (cy + 1, 2 cx + 1) of a
    fine grid, summed as that CSC product is, in E's dtype."""
    cy, cx = E.shape[0] - 1, E.shape[1] // 2
    return sum(0.5 * wx * E[oy:oy + cy, ox:ox + 2 * cx:2]
               for oy in (0, 1) for ox, wx in _TERMS[::-1])


def _stencil(A, shape):
    """A's nine-point stencil on the (my, mx) interior grid (x fastest),
    read off its CSR rows BLOCK_LINES grid rows at a time: returns
    ((west, diag, east), (up, down, up^T, down^T)).  west, diag and east
    are the float64 same-row entries of every node, zero at line ends;
    up = A[even][:, odd] and down = A[odd][:, even], even and odd the
    nodes of the even and odd grid rows in colour numbering (node x of
    row l is node x of row l // 2 of its colour), are float32 DIA
    matrices with six diagonals, in ascending offset order, so that a
    product sums in column order; so are their transposes.

    Raises LinAlgError if A couples a node beyond its eight grid
    neighbours or float32 loses an entry: a nonzero turns zero or
    subnormal, or a finite one inf.
    """
    my, mx = shape
    # the slot 3 (dy + 1) + dx + 1 of column offset dy mx + dx, from
    # -mx - 1; 9 where no grid neighbour is
    slots = np.full(2 * mx + 3, 9, dtype=A.indices.dtype)
    for dy, dx in np.ndindex(3, 3):
        slots[dy * mx + dx] = 3 * dy + dx
    lines = np.empty((3, my * mx))
    counts = [len(range(c, my, 2)) for c in (0, 1)]     # grid rows a colour
    # the DIA data of the rows of colour c, columns the other colour's
    # nodes, and of its transpose, columns colour c's nodes
    fwd = [np.zeros((6, counts[1 - c], mx), np.float32) for c in (0, 1)]
    bwd = [np.empty((6, counts[c], mx), np.float32) for c in (0, 1)]
    S = np.empty((BLOCK_LINES * mx, 9))
    for l0 in range(0, my, BLOCK_LINES):
        l1 = min(l0 + BLOCK_LINES, my)
        ptr = A.indptr[l0 * mx:l1 * mx + 1]
        vals = A.data[ptr[0]:ptr[-1]].astype(float, copy=False)
        _check_float32(A, vals, ptr)
        col = np.repeat(np.arange(l0 * mx - mx - 1, l1 * mx - mx - 1,
                                  dtype=slots.dtype), np.diff(ptr))
        np.subtract(A.indices[ptr[0]:ptr[-1]], col, out=col)
        if len(col) and (col.min() < 0 or col.max() >= len(slots)):
            raise np.linalg.LinAlgError(_BEYOND)
        slot = np.take(slots, col)
        if len(slot) and slot.max() > 8:
            raise np.linalg.LinAlgError(_BEYOND)
        block = S[:len(ptr) - 1]
        block.fill(0.0)
        sp.csr_matrix((vals, slot, ptr - ptr[0]),
                      shape=block.shape).toarray(out=block)
        del col, slot
        rows = block.reshape(l1 - l0, mx, 9)
        # a column offset that wraps to a neighbouring grid row
        if rows[:, 0, 0::3].any() or rows[:, -1, 2::3].any():
            raise np.linalg.LinAlgError(_BEYOND)
        lines[:, l0 * mx:l1 * mx] = block[:, 3:6].T
        for c in (0, 1):
            part = rows[(l0 + c) % 2::2]    # the block's rows of colour c
            k0 = (l0 + (l0 + c) % 2) // 2   # the first one's colour row
            if not len(part):   # a last block of one grid row has one colour
                continue
            for d, s in enumerate(_CROSS):
                bwd[c][5 - d, k0:k0 + len(part)] = part[..., s]
                dy, dx = s // 3 - 1, s % 3 - 1
                k = k0 + (c + dy) // 2      # colour row of grid row l + dy
                lo, hi = max(k, 0), min(k + len(part), counts[1 - c])
                fwd[c][d, lo:hi, max(dx, 0):mx + min(dx, 0)] = \
                    part[lo - k:hi - k, max(-dx, 0):mx - max(dx, 0), s]
    n = [counts[c] * mx for c in (0, 1)]
    offsets = [np.array([(c + s // 3 - 1) // 2 * mx + s % 3 - 1
                         for s in _CROSS]) for c in (0, 1)]
    return tuple(lines), (
        *(sp.dia_matrix((fwd[c].reshape(6, -1), offsets[c]),
                        shape=(n[c], n[1 - c])) for c in (0, 1)),
        *(sp.dia_matrix((bwd[c].reshape(6, -1), -offsets[c][::-1]),
                        shape=(n[1 - c], n[c])) for c in (0, 1)))


def _check_float32(A, vals, ptr):
    """Raise LinAlgError if float32 loses an entry of vals, the entries
    of A's rows from ptr[0], ptr a slice of A.indptr."""
    a = np.abs(vals)
    if not len(a) or a.min() >= _TINY and a.max() <= _HUGE:
        return
    with np.errstate(over="ignore"):
        b = a.astype(np.float32)
    lost = np.flatnonzero((a != 0) & (b < _TINY)
                          | np.isfinite(a) & np.isinf(b))
    if lost.size:
        k = ptr[0] + lost[0]
        row = np.searchsorted(A.indptr, k, side="right") - 1
        raise np.linalg.LinAlgError(
            f"A[{row}, {A.indices[k]}] = {A.data[k]:.3g} is zero, subnormal"
            f" or inf in float32")


class Multigrid:
    """V(1,1) cycle of A on its (my, mx) interior grid; see `multigrid`.

    No level keeps A or a transfer matrix.  The coarsest holds the splu
    factors `lu` of A; the others `coarse`, the Multigrid of the next
    coarser level, and a zebra x-line smoother, and apply P as strided
    sums (`prolong`, `_restrict`).  `solve` keeps no state between calls,
    so threads may share one.  Grid rows (x-lines) of one colour, even or
    odd, couple only to rows of the other colour (`up`: even to odd,
    `down`: odd to even), so the lines of a colour form one tridiagonal
    system, zero at line ends; `lines` has both factored.  `up`, `down`,
    their transposes `up_t` and `down_t` (for the cycle of A^T) and
    `lines` are float32 (sgttrf), A's values rounded once; the four
    couplings are DIA matrices of six diagonals, read off A's rows in one
    blocked pass with the line diagonals (`_stencil`).
    """

    def __init__(self, A, shape, coarse=None):
        self.shape, self.coarse = shape, None
        if not coarsens(shape):
            _check_splu(A, MemoryError)
            self.lu = spla.splu(A.tocsc())
            return
        my, mx = shape
        (west, diag, east), couplings = _stencil(A, shape)
        # sgttrf pivots a zero row down its x-line, so a node whose row or
        # column of its line block is zero is looked for before factoring
        zero = np.flatnonzero(diag == 0)
        zero = zero[(west[zero] == 0) & (east[zero] == 0) | (
            east[zero - 1] == 0) & (west[(zero + 1) % len(diag)] == 0)]
        if zero.size:
            row, col = divmod(zero[0], mx)
            raise np.linalg.LinAlgError(
                f"singular x-line: zero pivot in the {('even', 'odd')[row % 2]}"
                f" rows at interior node (row {row}, column {col})")
        self.lines = []
        for c in (0, 1):
            dl, d, du = (v.reshape(shape)[c::2].astype(np.float32).ravel()
                         for v in (west, diag, east))
            *factors, info = lapack.sgttrf(dl[1:], d, du[:-1])
            if info > 0:    # the 1-based zero pivot among the lines of c
                raise np.linalg.LinAlgError(
                    f"singular x-line: zero pivot in the {('even', 'odd')[c]}"
                    f" rows on x-line (row {2 * ((info - 1) // mx) + c})")
            self.lines.append(factors)
        del west, east, diag        # checked and factored
        self.up, self.down, self.up_t, self.down_t = couplings
        if coarse is None:
            P = sp.kron(*[sp.csr_matrix(prolong(np.eye(m // 2)).T)
                          for m in shape], format="csr")
            coarse = Multigrid((P.T @ A @ P).tocsr(), (my // 2, mx // 2))
        self.coarse = coarse

    @property
    def levels(self):
        """This grid and the coarser ones, fine to coarse."""
        return [self] + (self.coarse.levels if self.coarse else [])

    def solve(self, f, trans="N"):
        """One cycle applied to f; with trans "T", the cycle of A^T.  It
        runs in float32 but on the coarsest level, whose splu is float64."""
        if self.coarse is None:
            return self.lu.solve(f, trans)
        up, down = ((self.down_t, self.up_t) if trans == "T"
                    else (self.up, self.down))

        def lines(colour, b):
            return lapack.sgttrs(*self.lines[colour], b, trans=trans)[0]

        F = np.reshape(f, self.shape)
        fe, fo = (F[c::2].astype(np.float32).ravel() for c in (0, 1))
        # pre-smoothing from u = 0 leaves the odd rows solved, so only
        # the even rows carry a residual
        ue = lines(0, fe)
        uo = lines(1, fo - down @ ue)
        r = _restrict(np.reshape(-(up @ uo), (-1, F.shape[1])))
        c = self.coarse.solve(r.ravel(), trans)
        uo += prolong(c.reshape(r.shape)).ravel()
        ue = lines(0, fe - up @ uo)
        uo = lines(1, fo - down @ ue)
        U = np.empty(F.shape, dtype=np.float32)
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
    correction, in float32 on every level but the coarsest (float64
    splu); the singular-line check runs on A's float64 diagonals.
    Returns a Multigrid, or None with a WARNING when setup fails or the
    coarsest splu would exceed SPLU_MEMORY_SHARE (Gaspar, Clavero &
    Lisbona, J. Comput. Appl. Math. 138, 2002).
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
    corrects x until ||b - A x|| / ||b|| <= 0.1 TOL, or <= TOL once a
    cycle reduces it by less than a factor 0.9 (rounding's floor), for
    at most MAX_CYCLES cycles before the splu fallback; None goes
    straight to splu.  x0: the first iterate of the cycles, zero when
    None; splu ignores it.  Raises SolveError when no path reaches TOL
    or splu's estimated peak exceeds SPLU_MEMORY_SHARE of physical
    memory.  Deterministic.  Returns (x, SolveReport), whose method names the
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


def _check_splu(A, error, **kwargs):
    """Raise error if `_splu_bytes` of A exceeds SPLU_MEMORY_SHARE of RAM."""
    need, limit = _splu_bytes(A.shape[0], A.nnz), SPLU_MEMORY_SHARE * \
        os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > limit:
        raise error(f"splu of n = {A.shape[0]} would need about "
                    f"{need:.3g} bytes, above {limit:.3g}", **kwargs)


def _norm(v):
    """2-norm of v by einsum's own loop: BLAS ddot can stall on threads."""
    return np.sqrt(np.einsum("i,i->", v, v))


def _accept(x, report, mg, stop="TOL"):
    log.debug("%s: n %d, levels %d, %d iterations, residual %.3e, at %s",
              report.method, len(x), len(mg.levels) if mg else 0,
              report.iterations, report.relative_residual, stop)
    return x, report


def _solve(A, b, mg, x0, trans):
    """The body of `solve` (trans "N") and `solve_transpose` (trans "T")."""
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != len(b):
        raise ValueError("A must be square and match b")
    if x0 is not None and np.shape(x0) != b.shape:
        raise ValueError(f"x0 has shape {np.shape(x0)}, not {b.shape}")
    norm_b = _norm(b)
    if norm_b == 0.0:
        return _accept(np.zeros_like(b), SolveReport(0, 0.0, "trivial"), mg)
    op = A.T if trans == "T" else A
    best = np.inf
    if mg is not None:
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
        r, res = b - op @ x, np.inf
        for cycles in range(1, MAX_CYCLES + 1):
            # scaled by a power of 2 into float32's range, so exactly
            s = np.ldexp(1.0, np.frexp(np.abs(r).max())[1])
            x += s * mg.solve(r / s, trans)
            r, last = b - op @ x, res
            res = _norm(r) / norm_b
            best = min(best, res)       # min and <= both pass over NaN
            floor = TOL >= res > 0.9 * last     # rounding's floor: no gain
            if res <= 0.1 * TOL or floor:
                return _accept(x, SolveReport(cycles, res, "mg"), mg,
                               "0.1 TOL" if res <= 0.1 * TOL else "the floor")
        log.warning("multigrid stopped after %d cycles, residual %.3e",
                    MAX_CYCLES, res)
    with _SPLU_LOCK:
        _check_splu(A, SolveError, best_residual=best)
        try:
            x = spla.splu(A.tocsc()).solve(b, trans)
        except (MemoryError, RuntimeError) as exc:
            log.warning("splu failed (%r)", exc)
        else:
            res = _norm(b - op @ x) / norm_b
            best = min(best, res)
            if res <= TOL:
                return _accept(x, SolveReport(1, res, "splu"), mg)
            log.warning("splu residual %.3e above TOL %g", res, TOL)
    raise SolveError(
        f"no solver reached TOL={TOL} (tried "
        f"{'mg and ' if mg else ''}splu, "
        f"best residual {best:.3e})", best_residual=best)
