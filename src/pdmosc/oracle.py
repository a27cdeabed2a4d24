"""Independent finite-difference verification of the closed-form results.

A symmetric second-order discretization of -d/dx (1/M) d/dx + V with
Dirichlet ends, eigenvalues from Sturm counts, eigenvectors from the same
pivots run once from each end (a twisted factorization), and
Gauss-Legendre overlaps.  The confined model is
solved without its scale, as H/omega0 in t = x/a, so that its spectrum is
of order n + 1/2 at any omega0 and every floor of the solver is relative
to that.  Its grid is uniform in s on (-1, 1) with t = sin(pi s/2), the
sin-type substitution of Sidi (1993): its states behave like powers of the
distance to a wall, which a grid uniform in x resolves only at an order
near that power, while in s the stencil converges at h^2 for every level.
The same map grades the quadrature rule of the norm column.  The
eigenvalue solver shares one set of brackets among all levels (each count
narrows every level's bracket, as LAPACK dstebz does), finishes each
isolated level with Newton steps on the characteristic polynomial, and
returns the midpoint of a bracket that Sturm counts certify to 1e-12
relative width.  Its counts stop at the row where they pass k, since any
count above k narrows the brackets alike; a Newton pass walks every row,
and costs about twice a full count.  So a Newton step below 1e-8 relative
that stays in the level's bracket lands: the level ends on the two counts
of its certificate, and only where they fail to hold it does it go on to
more counts and bisection.
A matrix that reads exactly the same reversed is solved as two
blocks of about half its rows, one for the even levels and one for the
odd; SineGrid places its points as exact mirror pairs, so that the
confined model at b = 0 assembles to such a matrix.
A report first solves two unreported pre-grids, an eighth and a quarter
the size of its coarsest grid, each when it holds the k levels; every
grid then starts from the polynomial in h^2 through the last three grids
solved before it (the quadratic), or through the two or one there are.
Nothing in here knows about the analytic solution route; that
independence is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Sequence

from . import oscillator, pct
from ._numpy import np
from .errors import ConvergenceError, DomainError, ParameterError
from .rosen_morse import RosenMorseParams, rm_energy, rm_nmax, rm_potential, rm_wavefunction
from .special_fn import gauss_legendre, is_int

# eigenvalues are bracketed to a width of _RTOL * max(1, |lambda|); the
# certificate's half-width stays just under half of that, so that rounding
# cannot widen a certified bracket past it
_RTOL = 1e-12
_CERT = 0.49 * _RTOL
# a Newton step of at most _LAND * max(1, |x|) that stays in its level's bracket lands:
# the iterate after it is off by about the step squared over the gap to the next level,
# so the certificate's two counts usually hold it, at less cost than one more Newton
# pass.  Weighing a Newton row as 1.9 count rows, 1e-8 walked the fewest rows of 3e-9 to
# 1e-7 on verify --A 208 at b = 0 and 0.001 together; 1e-7 walked 3 % fewer on the
# benchmark's verify jobs, but 7 % more there
_LAND = 1e-8

__all__ = [
    "Grid1D",
    "SineGrid",
    "SpectrumReport",
    "TridiagonalOperator",
    "discretize_bdd",
    "eigenvalues_sturm",
    "eigenvector",
    "overlap",
    "solve_constant_mass_numeric",
    "solve_pdm_numeric",
]


def _sine_map(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # t = sin(pi s/2) and dt/ds on (-1, 1): the one map behind SineGrid and the graded rule
    q = (0.5 * math.pi) * s
    return np.sin(q), (0.5 * math.pi) * np.cos(q)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n interior points on (lo, hi), Dirichlet ends.

    h is the spacing of the grid's coordinate s.  The points in s go
    through the grid's map to x, with dx/ds as the Jacobian: the identity
    here, so that x = s and the Jacobian is 1.
    """

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo >= self.hi:
            raise ParameterError(f"need finite lo < hi, got ({self.lo!r}, {self.hi!r})")
        if not is_int(self.n) or self.n < 3:
            raise ParameterError(f"need at least 3 interior points, got {self.n!r}")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n + 1)

    @staticmethod
    def _map(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return s, np.ones_like(s)

    def _s(self, offset: float, count: int) -> np.ndarray:
        return self.lo + self.h * (np.arange(count) + offset)

    def nodes(self) -> np.ndarray:
        return self._map(self._s(1.0, self.n))[0]

    def half_nodes(self) -> np.ndarray:
        """Midpoints x_{i +- 1/2}, the images of lo + h/2 to hi - h/2."""
        return self._map(self._s(0.5, self.n + 1))[0]


class SineGrid(Grid1D):
    """n interior points uniform in s on (-1, 1), at t = sin(pi s/2); Dirichlet ends at -+1.

    The grid of Grid1D(-1, 1, n) through the sine map.  The nodes crowd
    toward the walls, where the states of the confined model behave like
    powers of the distance to the wall; in s that power is smooth enough
    for the stencil to converge at h^2.

    Its points are placed as exact mirror pairs, s = h (i + offset - (n + 1)/2):
    the point at -s is the negation of the one at s, bit for bit, and so are
    their images under the map.  An even mass and potential then assemble to
    an operator that reads the same reversed, which eigenvalues_sturm folds.
    """

    def __init__(self, n: int) -> None:
        super().__init__(-1.0, 1.0, n)

    _map = staticmethod(_sine_map)

    def _s(self, offset: float, count: int) -> np.ndarray:
        # offset - (n + 1)/2 is a whole or half integer, so each sum is exact
        return self.h * (np.arange(count) + (offset - 0.5 * (self.n + 1)))


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix stored as main and off diagonals."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.off, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or len(e) != len(d) - 1 or len(d) < 1:
            raise ParameterError("need diag of length n >= 1 and off of length n - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise DomainError("non-finite matrix entries")
        d = d.copy()
        e = e.copy()
        d.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)

    @property
    def size(self) -> int:
        return len(self.diag)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


def discretize_bdd(
    mass_fn: Callable[[np.ndarray], np.ndarray],
    potential_fn: Callable[[np.ndarray], np.ndarray],
    grid: Grid1D,
) -> TridiagonalOperator:
    """Assemble -d/dx (1/M) d/dx + V on the grid, in the grid's coordinate s.

    With x = g(s) and J = g' the operator is G^-1/2 K G^-1/2, where
    K = -d/ds (1/(M J)) d/ds + J V and G holds J at the nodes, so that
    its eigenvalues are those of the x-space problem and its eigenvectors
    hold sqrt(J_i) psi(x_i).  w = 1/(M J) is
    sampled at half-grid points, which keeps the matrix symmetric and
    second-order consistent:
        diag_i = [w_{i-1/2} + w_{i+1/2}]/(h^2 J_i) + V(x_i)
        off_i  = -w_{i+1/2}/(h^2 sqrt(J_i J_{i+1}))
    On a plain Grid1D, J = 1 and this is the x-space stencil, bit for bit.
    mass_fn is called once, on the array of half-grid points, and
    potential_fn once, on the array of nodes.  Each returns the array of
    its values there, as pct.mass and rosen_morse.rm_potential do, or one
    value for every point.
    """
    xs, jac = grid._map(grid._s(1.0, grid.n))
    xh, jac_h = grid._map(grid._s(0.5, grid.n + 1))
    w = np.asarray(mass_fn(xh), dtype=float) * jac_h
    w = np.broadcast_to(1.0 / w, xh.shape)
    v = np.broadcast_to(np.asarray(potential_fn(xs), dtype=float), xs.shape)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        raise DomainError("mass or potential sampled to a non-finite value")
    h2 = grid.h * grid.h
    diag = (w[:-1] + w[1:]) / (h2 * jac) + v
    off = -w[1:-1] / (h2 * np.sqrt(jac[:-1] * jac[1:]))
    return TridiagonalOperator(diag=diag, off=off)


def _sturm_count(
    d: list[float], e2: list[float], lam: float, pivmin: float, cap: float = math.inf
) -> int:
    """Number of eigenvalues below lam, by the LDL^T sign count.

    The pass stops as soon as the count exceeds cap and returns that
    partial count: a number above cap, which is all a caller that only
    tells levels up to cap apart needs.  The count only grows along the
    rows, so it is the full count whenever that is at most cap.
    """
    # row 0 couples to no row before it: 0.0/1.0 leaves its pivot d[0] - lam
    q, count = 1.0, 0
    for di, ei in zip(d, chain((0.0,), e2)):
        q = di - lam - ei / q
        # a pivot within pivmin of zero is replaced by -pivmin (and counted)
        if q <= pivmin:
            count += 1
            if count > cap:
                return count
            if q >= -pivmin:
                q = -pivmin
    return count


def _sturm_newton(
    d: list[float], e2: list[float], lam: float, pivmin: float
) -> tuple[int, float]:
    """The count of _sturm_count at lam, and det'/det of T - lam from the same pass.

    With pivots q_i, det(T - lam) = prod q_i, so det'/det = sum q_i'/q_i.
    Each ratio r_i = q_i'/q_i follows from r_{i-1} and e2_{i-1}/q_{i-1},
    so no product is ever formed; an infinite or nan sum only means the
    Newton step is unusable.  Row 0 enters as _sturm_count's does, and its
    ratio (0 * 0 - 1)/q_0 is -1/q_0.
    """
    q, r, total, count = 1.0, 0.0, 0.0, 0
    for di, ei in zip(d, chain((0.0,), e2)):
        t = ei / q
        q = di - lam - t
        if q <= pivmin:
            count += 1
            if q >= -pivmin:
                q = -pivmin
        r = (t * r - 1.0) / q
        total += r
    return count, total


def _rows(op: TridiagonalOperator) -> tuple[list[float], list[float], float]:
    # a Sturm pass's input as Python floats: diag, off^2 and the pivot floor pivmin
    e2 = (op.off * op.off).tolist()
    return op.diag.tolist(), e2, 2.3e-308 * max(1.0, max(e2, default=1.0))


def _gershgorin(op: TridiagonalOperator) -> tuple[float, float]:
    d = op.diag
    r = np.zeros(op.size)
    r[:-1] += np.abs(op.off)
    r[1:] += np.abs(op.off)
    return float(np.min(d - r)), float(np.max(d + r))


def _mirror_halves(
    op: TridiagonalOperator,
) -> tuple[TridiagonalOperator, TridiagonalOperator] | None:
    """The even and odd blocks of a mirror-symmetric operator; None for any other.

    The operator qualifies when diag and off^2 read exactly the same
    reversed and no off^2 is zero.  The spectrum depends on off^2 alone, so
    take off <= 0: the matrix then commutes with the reversal, and each of
    its eigenvectors is even or odd under it.  Being irreducible, its level
    j's eigenvector changes sign exactly j times (the oscillation theorem
    of Jacobi matrices), so the even vectors hold levels 0, 2, 4, ... and
    the odd ones levels 1, 3, ...  Each block is the operator on the
    lower half of the rows, with the mirror image of the upper half put in:
    for n = 2m, both take rows m... and couplings off[m:], with a first
    diagonal entry d[m] - |off[m-1]| (even) or d[m] + |off[m-1]| (odd); for
    n = 2m + 1, the even block takes rows m... with a first coupling of
    sqrt(2) |off[m]| (the middle row scaled to keep the block symmetric),
    and the odd one rows m + 1..., since an odd vector is 0 at the middle.
    """
    d, off = op.diag, op.off
    e2 = off * off
    n = op.size
    if n < 2 or not (np.array_equal(d, d[::-1]) and np.array_equal(e2, e2[::-1]) and e2.all()):
        return None
    m = n // 2
    if n % 2:
        even_off = np.concatenate(((-math.sqrt(2.0) * abs(off[m]),), off[m + 1:]))
        return TridiagonalOperator(d[m:], even_off), TridiagonalOperator(d[m + 1:], off[m + 1:])
    even, odd = d[m:].copy(), d[m:].copy()
    even[0] -= abs(off[m - 1])
    odd[0] += abs(off[m - 1])
    return TridiagonalOperator(even, off[m:]), TridiagonalOperator(odd, off[m:])


def eigenvalues_sturm(
    op: TridiagonalOperator, k: int, starts: Sequence[float] | None = None
) -> list[float]:
    """The k smallest eigenvalues, each certified by Sturm counts.

    A mirror-symmetric operator (diag and off^2 exactly the same reversed,
    and no off^2 zero) is solved as two blocks of about n/2 rows, the
    even levels 0, 2, 4, ... on one and the odd levels on the other, whose
    values are interleaved; starts[0::2] go to the even block and
    starts[1::2] to the odd one.  Any other operator is solved whole.  The
    choice rests on the matrix alone, and the guarantee below holds on
    whichever matrix is solved.

    Each returned value is the midpoint of a bracket [lo, hi) of width at
    most 1e-12 * max(1, |lambda|) with count(lo) < j <= count(hi), so
    Sturm counts prove it holds level j.  Brackets start from the
    Gershgorin disc bounds, and every count at a shift mu narrows the
    bracket of every level at once, as in LAPACK dstebz: levels up to the
    count take mu as an upper end, the others as a lower end.  A count
    stops once it passes k, since it then bounds every level alike.

    A level is bisected until its bracket isolates it (counts j - 1 and j
    at the ends).  Then each iterate takes a Newton step on det(T - lam),
    computed in the same pass as its count.  A step that leaves the
    bracket, is not finite or fails to halve the previous one is replaced
    by the midpoint.  A step lands once it falls below tol/2 or below the
    rounding floor of the pivots (machine epsilon times the Gershgorin
    bound), or below 1e-8 * max(1, |lam|) with lam + step inside the
    bracket: the iterate after such a step is off by about the step
    squared, below tol/2 unless another level is near.  Two counts just
    inside lam + step -+ tol/2 then try to prove the final bracket, at
    less cost than one more Newton pass.  Where one fails, probes four
    times farther out find the other end, and bisection finishes the level.

    starts, if given, holds one first iterate per level, such as the
    eigenvalues of a coarser discretization of the same operator.  Each
    start in its level's bracket gets a pass before any level is worked
    on, and its Newton step is followed even if the level is not yet
    isolated; a start outside the bracket is ignored.  Starts change how
    many passes are made, not the guarantee.
    """
    if not is_int(k) or k < 1 or k > op.size:
        raise ParameterError(f"need 1 <= k <= {op.size}, got {k!r}")
    if starts is not None and len(starts) != k:
        raise ParameterError(f"need one start per level ({k}), got {len(starts)}")
    halves = _mirror_halves(op)
    if halves is None:
        return _levels(op, k, starts)
    out = [0.0] * k
    for parity, half in enumerate(halves[:k]):
        part = None if starts is None else starts[parity::2]
        out[parity::2] = _levels(half, len(out[parity::2]), part)
    return out


def _levels(op: TridiagonalOperator, k: int, starts: Sequence[float] | None) -> list[float]:
    # eigenvalues_sturm on one matrix, whole or one mirror block, after its checks
    d, e2, pivmin = _rows(op)
    glo, ghi = _gershgorin(op)
    # nudge outward so the bracket provably contains all eigenvalues
    glo -= 1e-12 * max(1.0, abs(glo))
    ghi += 1e-12 * max(1.0, abs(ghi))
    # a Newton step this small is rounding noise in the pivots
    floor = 2.2e-16 * max(abs(glo), abs(ghi))
    # level j (0-based) lies in [lo[j], hi[j]); clo/chi are the counts there
    lo, hi = [glo] * k, [ghi] * k
    clo, chi = [0] * k, [op.size] * k

    def narrow(mu: float, c: int) -> int:
        for i in range(min(c, k)):
            if mu < hi[i]:
                hi[i], chi[i] = mu, c
        for i in range(c, k):
            if mu > lo[i]:
                lo[i], clo[i] = mu, c
        return c

    def count(mu: float) -> int:
        # a count above k narrows nothing that one of k + 1 would not
        return narrow(mu, _sturm_count(d, e2, mu, pivmin, k))

    def newton_step(mu: float) -> float:
        c, s = _sturm_newton(d, e2, mu, pivmin)
        narrow(mu, c)
        return -1.0 / s if s != 0.0 and math.isfinite(s) else math.nan

    def certify(j: int, lam: float) -> None:
        # counts at lam -+ w; a count on the near side of level j moves that
        # probe four times farther out, until one lands beyond the level
        w = _CERT * max(1.0, abs(lam))
        for side in (-1.0, 1.0):
            dist = w
            while lo[j] < lam + side * dist < hi[j]:
                if (count(lam + side * dist) <= j) == (side < 0.0):
                    break
                dist *= 4.0

    # every start's count narrows the other levels' brackets before they begin
    first: list[tuple[float, float] | None] = [None] * k
    for j, x in enumerate(map(float, () if starts is None else starts)):
        if lo[j] < x < hi[j]:
            first[j] = (x, newton_step(x))

    out = []
    for j in range(k):
        x, step = first[j] or (None, math.nan)
        # last: size of the previous move, for the halving rule
        last, newton = math.inf, True
        while hi[j] - lo[j] > _RTOL * max(1.0, abs(lo[j]), abs(hi[j])):
            if x is None:
                x = 0.5 * (lo[j] + hi[j])
                if x <= lo[j] or x >= hi[j]:
                    break
                if not (newton and clo[j] == j and chi[j] == j + 1):
                    count(x)
                    x = None
                    continue
                last = 0.5 * (hi[j] - lo[j])
                step = newton_step(x)
            scale = max(1.0, abs(x))
            inside = lo[j] < x + step < hi[j]
            if abs(step) <= max(floor, _CERT * scale) or (inside and abs(step) <= _LAND * scale):
                certify(j, x + step)
                x, newton = None, False
            elif inside and abs(step) <= 0.5 * last:
                x, last = x + step, abs(step)
                step = newton_step(x)
            else:
                x = None
        out.append(0.5 * (lo[j] + hi[j]))
    return out


def _pivots(d: list[float], e2: list[float], lam: float, pivmin: float) -> list[float]:
    """The pivots of the LDL^T factorization of T - lam, row by row.

    Each is formed as in _sturm_count, a pivot within pivmin of zero
    replaced by -pivmin, so that the negative ones number
    _sturm_count(d, e2, lam, pivmin).
    """
    q, out = 1.0, []
    for di, ei in zip(d, chain((0.0,), e2)):
        q = di - lam - ei / q
        if -pivmin <= q <= pivmin:
            q = -pivmin
        out.append(q)
    return out


def eigenvector(op: TridiagonalOperator, lam: float, h: float = 1.0) -> np.ndarray:
    """Eigenvector for an eigenvalue estimate lam, from one twisted factorization.

    The pivots D+ of T - lam from the first row down and D- from the last
    row up give gamma_r = D+_r + D-_r - (d_r - lam), the last pivot of the
    factorization twisted at row r; (T - lam) z = gamma_r e_r for the z
    with z_r = 1 that the two factors' multipliers build outward from r.
    The twist is the row of least finite |gamma_r|, where the eigenvector
    is large (Parlett and Dhillon, Linear Algebra Appl. 267, 1997).  The
    result is normalized so that sum(v_i^2) * h = 1 (pass the grid spacing
    for a discrete L2 normalization, or leave h = 1 for a unit vector).  A
    vector that is not finite, or whose unit residual ||T v - lam v|| is
    above 1e-8 * max(1, |lam|), raises ConvergenceError: lam is then no
    eigenvalue of T.  The gate is relative, as eigenvalues_sturm's
    certificate of 1e-12 * max(1, |lam|) is.
    """
    if not math.isfinite(lam):
        raise ParameterError(f"lam must be finite, got {lam!r}")
    if not math.isfinite(h) or h <= 0.0:
        raise ParameterError(f"need h > 0, got {h!r}")
    d, e2, pivmin = _rows(op)
    top = np.array(_pivots(d, e2, lam, pivmin))
    bottom = np.array(_pivots(d[::-1], e2[::-1], lam, pivmin)[::-1])
    gamma = np.abs(top + bottom - (op.diag - lam))
    r = int(np.argmin(np.where(np.isfinite(gamma), gamma, np.inf)))
    # z_i = -(off_i/D+_i) z_{i+1} above r and z_{i+1} = -(off_i/D-_{i+1}) z_i below it
    above = np.cumprod((-op.off[:r] / top[:r])[::-1])[::-1]
    below = np.cumprod(-op.off[r:] / bottom[r + 1:])
    v = np.concatenate((above, (1.0,), below))
    norm = np.linalg.norm(v)
    if not math.isfinite(norm):
        raise ConvergenceError(f"non-finite eigenvector at lam = {lam!r}")
    v /= norm
    residual = np.linalg.norm(op.apply(v) - lam * v)
    gate = 1e-8 * max(1.0, abs(lam))
    if not residual <= gate:
        raise ConvergenceError(
            f"residual {residual:.3e} above {gate:.3e} at lam = {lam!r}; "
            "the shift may be inaccurate or not an eigenvalue"
        )
    return v / math.sqrt(h)


@lru_cache(maxsize=64)
def _graded_rule_arrays(rule_size: int) -> tuple[np.ndarray, np.ndarray]:
    # the Gauss-Legendre rule in s, at t = sin(pi s/2) with dt/ds folded into the weights
    s, weights = gauss_legendre(rule_size)
    nodes, dt = _sine_map(s)
    weights = weights * dt
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _rule_nodes(
    lo: float, hi: float, rule_size: int, graded: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    # overlap's rule on (lo, hi): its nodes in x, its weights and the half-width they scale by.
    # solve's norm column sums its rows on the graded one, as overlap does
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ParameterError(f"need finite lo < hi, got ({lo!r}, {hi!r})")
    nodes, weights = (_graded_rule_arrays if graded else gauss_legendre)(rule_size)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * nodes, weights, half


def overlap(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rule_size: int,
    graded: bool = False,
) -> float:
    """Gauss-Legendre approximation of the integral of f*g over (lo, hi).

    f and g each take the whole array of nodes and return the array of
    their values there, as the states' wavefunctions do.  Each is called
    once, and f alone when g is f.

    graded=True integrates over s instead, with x on the sine map of
    SineGrid: the rule_size nodes crowd toward lo and hi, where a product
    that behaves like a power of the distance to an end becomes smooth in
    s.  That is the shape of the confined model's states at the walls.
    """
    x, weights, half = _rule_nodes(lo, hi, rule_size, graded)
    fx = f(x)
    gx = fx if g is f else g(x)
    return half * float(np.dot(weights, fx * gx))


@dataclass(frozen=True)
class SpectrumReport:
    """Numeric-vs-analytic comparison for the k lowest levels.

    numeric holds the Richardson-extrapolated eigenvalues from the two
    finest grids; rel_err is measured against the analytic values; order
    holds per-level convergence-order estimates from a third, coarser grid
    when one was requested (None otherwise).  grid_sizes counts interior
    points, and spacings are the grids' h in their own coordinate: in s on
    solve_pdm_numeric's sine-mapped grids, in x on the constant-mass box.
    """

    analytic: tuple[float, ...]
    numeric: tuple[float, ...]
    rel_err: tuple[float, ...]
    grid_sizes: tuple[int, ...]
    spacings: tuple[float, ...]
    order: tuple[float, ...] | None


def _richardson(coarse: list[float], fine: list[float], r: float) -> list[float]:
    # exact grid ratio r = h_coarse/h_fine; eliminates the h^2 error term
    r2 = r * r
    return [(r2 * f - c) / (r2 - 1.0) for c, f in zip(coarse, fine)]


def _order_estimates(
    e0: list[float], e1: list[float], e2: list[float], r_eff: float
) -> tuple[float, ...]:
    out = []
    for c, m, f in zip(e0, e1, e2):
        num = abs(c - m)
        den = abs(m - f)
        # differences at rounding level carry no order information
        floor = 1e-9 * max(1.0, abs(f))
        if num < floor or den < floor:
            out.append(float("nan"))
        else:
            out.append(math.log(num / den) / math.log(r_eff))
    return tuple(out)


def _two_grid_report(
    mass_fn: Callable[[np.ndarray], np.ndarray],
    potential_fn: Callable[[np.ndarray], np.ndarray],
    make_grid: Callable[[int], Grid1D],
    analytic: list[float],
    n_grid: int,
    estimate_order: bool,
    unit: float,
) -> SpectrumReport:
    # the grids' eigenvalues are in units of unit, and so are the floors of the brackets
    # and of the order estimates; only the extrapolated values are scaled back
    k = len(analytic)
    sizes = ([n_grid // 2] if estimate_order else []) + [n_grid, 2 * n_grid]
    grids = [make_grid(n) for n in sizes]
    # two unreported pre-grids of sizes[0] // 8 and sizes[0] // 4 points,
    # each solved when it holds the k levels, so that the first reported
    # grid starts at least on the h^2 line through the two grids solved
    # before it.  Each grid starts from the polynomial in h^2, at the exact
    # spacings, through the last three grids solved before it: the
    # quadratic, which also takes out the h^4 term, once three are solved;
    # the line through two, or one grid's values, before that.  The starts
    # come only from these grids, never from the analytic values, which
    # would break the independence
    pre = [n for n in (sizes[0] // 8, sizes[0] // 4) if n >= max(k, 3)]
    solved = [make_grid(n) for n in pre] + grids
    eigs: list[list[float]] = []
    for i, g in enumerate(solved):
        # the Lagrange weights, at g's h^2, of the grids the starts come from
        u = [b.h * b.h for b in solved[max(0, i - 3):i]]
        weights = [math.prod((g.h * g.h - ub) / (ua - ub) for ub in u if ub != ua) for ua in u]
        starts = [sum(w * v for w, v in zip(weights, e)) for e in zip(*eigs[i - len(u):])] or None
        eigs.append(eigenvalues_sturm(discretize_bdd(mass_fn, potential_fn, g), k, starts=starts))
    eigs = eigs[-len(grids):]
    h_pair = (grids[-2].h, grids[-1].h)
    numeric = [unit * v for v in _richardson(eigs[-2], eigs[-1], h_pair[0] / h_pair[1])]
    order = None
    if estimate_order:
        r_eff = math.sqrt(grids[0].h / grids[-1].h)
        order = _order_estimates(eigs[0], eigs[1], eigs[2], r_eff)
    rel = tuple(abs(nu - an) / max(abs(an), 1e-300) for an, nu in zip(analytic, numeric))
    return SpectrumReport(
        analytic=tuple(analytic),
        numeric=tuple(numeric),
        rel_err=rel,
        grid_sizes=tuple(sizes),
        spacings=tuple(g.h for g in grids),
        order=order,
    )


def solve_pdm_numeric(
    p: oscillator.OscillatorParams | oscillator._Model,
    k: int,
    n_grid: int,
    estimate_order: bool = False,
) -> SpectrumReport:
    """Numeric spectrum of the confined model on (-a, a), paired with closed forms.

    Solves H/omega0 in t = x/a, on (-1, 1):
        -d/dt (1/(2 g M(t))) d/dt + (g/2)(t - t0)^2,
    with the unit mass profile M(t) = (1 - t^2)^-2, g = omega0 a^2/2 and
    t0 = 2b/(omega0 a).  Its eigenvalues are E/omega0, which depend on
    omega0 only through rounding at fixed A and b/shift_bound, so the
    solver's floors, relative to max(1, |lambda|), see a spectrum of order
    n + 1/2 at any omega0; the extrapolated values are multiplied by omega0.

    Solves on SineGrids (n_grid, 2 n_grid) and Richardson-extrapolates in
    h^2; a third grid of n_grid // 2 points feeds the order estimate when
    requested.  Two pre-grids, of an eighth and a quarter of the coarsest
    grid's points, each solved when it holds the k levels, only give the
    later grids their first iterates and are not reported: each grid starts
    from the quadratic in h^2 through the last three grids solved before it,
    or the line or the values of the grids there are.  Every level
    converges at order 2 on these grids; the CLI's n_grid, max(500, 16 A),
    held each level within 1.4e-6 of the closed forms over a sweep of A up
    to 210 at any admitted b.  Smaller grids are accepted for quick looks.
    An n_grid whose finest grid would place points within
    pct.BOUNDARY_MARGIN of a wall in t, where the mass is not sampled, is
    refused.

    p is an OscillatorParams, which is derived once here, or the
    oscillator._Model a caller has already derived, which is used as it
    is.  The analytic column is the model's spectrum.
    """
    if not is_int(n_grid) or n_grid < 8:
        raise ParameterError(f"need an integer n_grid >= 8, got {n_grid!r}")
    model = p if isinstance(p, oscillator._Model) else oscillator._model(p.omega0, p.A, p.b)
    profile = pct.MassProfile(1.0)
    # the finest grid's outermost midpoint, where the mass is sampled nearest a wall, put to
    # pct.mass's own test: its bits are the grid's own, and its mirror is its negation
    try:
        pct._check_x(profile, _sine_map(SineGrid(2 * n_grid)._s(2 * n_grid + 0.5, 1))[0])
    except DomainError:
        raise ParameterError(
            f"n_grid {n_grid} is too fine: its grid of {2 * n_grid} points would sample the "
            f"mass within {pct.BOUNDARY_MARGIN} a of the walls"
        ) from None
    if not is_int(k) or k < 1 or k > model.count:
        raise ParameterError(f"need 1 <= k <= {model.count} admitted levels, got {k!r}")
    # omega0 a stays in range wherever a^3 does, which map_parameters checked
    wa = model.omega0 * model.a
    g, t0 = 0.5 * wa * model.a, 2.0 * model.b / wa
    return _two_grid_report(
        lambda t: (2.0 * g) * pct.mass(profile, t),
        lambda t: (0.5 * g) * (t - t0) ** 2,
        SineGrid,
        model.spectrum()[:k],
        n_grid,
        estimate_order,
        model.omega0,
    )


def solve_constant_mass_numeric(
    p: RosenMorseParams,
    box: float,
    k: int,
    n_grid: int,
    estimate_order: bool = False,
) -> SpectrumReport:
    """Numeric spectrum of the hyperbolic well on (-box, box), paired with closed forms.

    The box must be wide enough that every requested state has decayed
    below 1e-10 at its ends (checked against the analytic wavefunctions).
    """
    if not is_int(n_grid) or n_grid < 8:
        raise ParameterError(f"need an integer n_grid >= 8, got {n_grid!r}")
    if not math.isfinite(box) or box <= 0.0:
        raise ParameterError(f"need box > 0, got {box!r}")
    count = rm_nmax(p) + 1
    if not is_int(k) or k < 1 or k > count:
        raise ParameterError(f"need 1 <= k <= {count} admitted levels, got {k!r}")
    for j in range(k):
        edge = np.abs(rm_wavefunction(p, j, np.array([-box, box]))).max()
        # Dirichlet truncation shifts an eigenvalue by roughly the boundary
        # density, so that is the quantity gated here
        if edge * edge >= 1e-10:
            raise ParameterError(
                f"box {box} too small: boundary density |phi_{j}|^2 = {edge * edge:.3e} "
                ">= 1e-10 at the ends"
            )
    analytic = rm_energy(p, range(k))
    return _two_grid_report(
        lambda x: 1.0,
        partial(rm_potential, p),
        partial(Grid1D, -box, box),
        analytic,
        n_grid,
        estimate_order,
        1.0,
    )
