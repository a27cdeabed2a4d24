"""Independent finite-difference verification of the closed-form results.

A symmetric second-order discretization of -d/dx (1/M) d/dx + V with
Dirichlet ends, eigenvalues from Sturm counts, eigenvectors by shifted
inverse iteration, and Gauss-Legendre overlaps.  The confined model is
solved on a grid uniform in s on (-1, 1) with x = a sin(pi s/2), the
sin-type substitution of Sidi (1993): its states behave like powers of the
distance to a wall, which a grid uniform in x resolves only at an order
near that power, while in s the stencil converges at h^2 for every level.
The map uses only the half-width a.  The same map grades the quadrature
rule of the norm column.  The eigenvalue solver
shares one set of brackets among all levels (each count narrows every
level's bracket, as LAPACK dstebz does), finishes each isolated level with
Newton steps on the characteristic polynomial, and returns the midpoint of
a bracket that Sturm counts certify to 1e-12 relative width.  A report
first solves an unreported pre-grid an eighth the size of its coarsest
grid, whose eigenvalues start that grid; every later grid starts from the
h^2 line through the two grids solved before it.  Nothing in here knows
about the analytic solution route; that independence is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from . import oscillator, pct
from .errors import ConvergenceError, DomainError, ParameterError
from .rosen_morse import RosenMorseParams, rm_energy, rm_nmax, rm_potential, rm_wavefunction
from .special_fn import gauss_legendre, is_int

# eigenvalues are bracketed to a width of _RTOL * max(1, |lambda|); the
# certificate's half-width stays just under half of that, so that rounding
# cannot widen a certified bracket past it
_RTOL = 1e-12
_CERT = 0.49 * _RTOL

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


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n interior points on (lo, hi), Dirichlet ends."""

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

    def nodes(self) -> np.ndarray:
        return self.lo + self.h * np.arange(1, self.n + 1)

    def half_nodes(self) -> np.ndarray:
        """Midpoints x_{i +- 1/2}, from lo + h/2 to hi - h/2."""
        return self.lo + self.h * (np.arange(0, self.n + 1) + 0.5)

    def jacobian(self) -> np.ndarray:
        """dx/ds at the nodes: 1 on a grid uniform in x."""
        return np.ones(self.n)

    def half_jacobian(self) -> np.ndarray:
        """dx/ds at the midpoints: 1 on a grid uniform in x."""
        return np.ones(self.n + 1)


def _sine_map(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # t = sin(pi s/2) and dt/ds on (-1, 1): the one map behind SineGrid and the graded rule
    q = (0.5 * math.pi) * s
    return np.sin(q), (0.5 * math.pi) * np.cos(q)


@dataclass(frozen=True)
class SineGrid:
    """n interior points uniform in s on (-1, 1), at x = a sin(pi s/2); Dirichlet ends at -+a.

    h is the spacing in s.  The nodes crowd toward the walls, where the
    states of the confined model behave like powers of the distance to the
    wall; in s that power is smooth enough for the stencil to converge at h^2.
    """

    a: float
    n: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.a) or self.a <= 0.0:
            raise ParameterError(f"need a finite half-width a > 0, got {self.a!r}")
        if not is_int(self.n) or self.n < 3:
            raise ParameterError(f"need at least 3 interior points, got {self.n!r}")

    @property
    def h(self) -> float:
        return 2.0 / (self.n + 1)

    def _s(self, offset: float, count: int) -> np.ndarray:
        return -1.0 + self.h * (np.arange(count) + offset)

    def nodes(self) -> np.ndarray:
        return self.a * _sine_map(self._s(1.0, self.n))[0]

    def half_nodes(self) -> np.ndarray:
        return self.a * _sine_map(self._s(0.5, self.n + 1))[0]

    def jacobian(self) -> np.ndarray:
        return self.a * _sine_map(self._s(1.0, self.n))[1]

    def half_jacobian(self) -> np.ndarray:
        return self.a * _sine_map(self._s(0.5, self.n + 1))[1]


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
    grid: Grid1D | SineGrid,
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
    On a Grid1D, J = 1 and this is the plain x-space stencil, bit for bit.
    mass_fn is called once, on the array of half-grid points, and
    potential_fn once, on the array of nodes.  Each returns the array of
    its values there, as pct.mass and rosen_morse.rm_potential do, or one
    value for every point.
    """
    xs = grid.nodes()
    xh = grid.half_nodes()
    jac = grid.jacobian()
    w = np.asarray(mass_fn(xh), dtype=float) * grid.half_jacobian()
    w = np.broadcast_to(1.0 / w, xh.shape)
    v = np.broadcast_to(np.asarray(potential_fn(xs), dtype=float), xs.shape)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        raise DomainError("mass or potential sampled to a non-finite value")
    h2 = grid.h * grid.h
    diag = (w[:-1] + w[1:]) / (h2 * jac) + v
    off = -w[1:-1] / (h2 * np.sqrt(jac[:-1] * jac[1:]))
    return TridiagonalOperator(diag=diag, off=off)


def _sturm_count(d: list[float], e2: list[float], lam: float, pivmin: float) -> int:
    """Number of eigenvalues below lam, by the LDL^T sign count."""
    q = d[0] - lam
    count = 0
    # a pivot within pivmin of zero is replaced by -pivmin (and counted)
    if q <= pivmin:
        count = 1
        if q >= -pivmin:
            q = -pivmin
    for di, ei in zip(islice(d, 1, None), e2):
        q = di - lam - ei / q
        if q <= pivmin:
            count += 1
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
    Newton step is unusable.
    """
    q = d[0] - lam
    count = 0
    if q <= pivmin:
        count = 1
        if q >= -pivmin:
            q = -pivmin
    r = -1.0 / q
    total = r
    for di, ei in zip(islice(d, 1, None), e2):
        t = ei / q
        q = di - lam - t
        if q <= pivmin:
            count += 1
            if q >= -pivmin:
                q = -pivmin
        r = (t * r - 1.0) / q
        total += r
    return count, total


def _gershgorin(op: TridiagonalOperator) -> tuple[float, float]:
    d = op.diag
    r = np.zeros(op.size)
    r[:-1] += np.abs(op.off)
    r[1:] += np.abs(op.off)
    return float(np.min(d - r)), float(np.max(d + r))


def eigenvalues_sturm(
    op: TridiagonalOperator, k: int, starts: Sequence[float] | None = None
) -> list[float]:
    """The k smallest eigenvalues, each certified by Sturm counts.

    Each returned value is the midpoint of a bracket [lo, hi) of width at
    most 1e-12 * max(1, |lambda|) with count(lo) < j <= count(hi), so
    Sturm counts prove it holds level j.  Brackets start from the
    Gershgorin disc bounds, and every count at a shift mu narrows the
    bracket of every level at once, as in LAPACK dstebz: levels up to the
    count take mu as an upper end, the others as a lower end.

    A level is bisected until its bracket isolates it (counts j - 1 and j
    at the ends).  Then each iterate takes a Newton step on det(T - lam),
    computed in the same pass as its count.  A step that leaves the
    bracket, is not finite or fails to halve the previous one is replaced
    by the midpoint.  Once a step falls below tol/2 or below the rounding
    floor of the pivots (machine epsilon times the Gershgorin bound), two
    counts just inside lam -+ tol/2 try to prove the final bracket.  Where
    one fails, probes four times farther out find the other end, and
    bisection finishes the level.

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
    d = op.diag.tolist()
    e2 = (op.off * op.off).tolist()
    pivmin = 2.3e-308 * max(1.0, max(e2, default=1.0))
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
        return narrow(mu, _sturm_count(d, e2, mu, pivmin))

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
    for j, x in enumerate(starts or ()):
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
            if abs(step) <= max(floor, _CERT * max(1.0, abs(x))):
                certify(j, x + step)
                x, newton = None, False
            elif lo[j] < x + step < hi[j] and abs(step) <= 0.5 * last:
                x, last = x + step, abs(step)
                step = newton_step(x)
            else:
                x = None
        out.append(0.5 * (lo[j] + hi[j]))
    return out


def _solve_shifted(op: TridiagonalOperator, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (T - lam I) x = rhs by elimination with partial pivoting.

    Row swaps introduce a second superdiagonal; zero pivots (the shift is
    meant to sit at an eigenvalue) are replaced by a tiny norm-scaled value.
    """
    n = op.size
    d = (op.diag - lam).astype(float)
    u1 = np.zeros(n)
    u1[: n - 1] = op.off
    u2 = np.zeros(n)
    y = rhs.astype(float).copy()
    scale = max(float(np.max(np.abs(d))), float(np.max(np.abs(op.off), initial=0.0)), 1e-300)
    tiny = 2.3e-16 * scale
    for i in range(n - 1):
        sub = float(op.off[i])
        if abs(d[i]) >= abs(sub):
            if d[i] == 0.0:
                d[i] = tiny
            m = sub / d[i]
            d[i + 1] -= m * u1[i]
            u1[i + 1] -= m * u2[i]
            y[i + 1] -= m * y[i]
        else:
            # swap rows i and i+1, then eliminate the old row i
            m = d[i] / sub
            row_u1, row_u2 = u1[i], u2[i]
            d[i], u1[i], u2[i] = sub, d[i + 1], u1[i + 1]
            d[i + 1] = row_u1 - m * u1[i]
            u1[i + 1] = row_u2 - m * u2[i]
            y[i], y[i + 1] = y[i + 1], y[i] - m * y[i + 1]
    if d[n - 1] == 0.0:
        d[n - 1] = tiny
    x = np.zeros(n)
    x[n - 1] = y[n - 1] / d[n - 1]
    if n >= 2:
        x[n - 2] = (y[n - 2] - u1[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (y[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / d[i]
    return x


def eigenvector(op: TridiagonalOperator, lam: float, h: float = 1.0) -> np.ndarray:
    """Eigenvector for an eigenvalue estimate lam, by inverse iteration.

    At most 5 iterations to a residual of 1e-8 * ||v||; the result is
    normalized so that sum(v_i^2) * h = 1 (pass the grid spacing for a
    discrete L2 normalization, or leave h = 1 for a unit vector).
    """
    if not math.isfinite(lam):
        raise ParameterError(f"lam must be finite, got {lam!r}")
    if not math.isfinite(h) or h <= 0.0:
        raise ParameterError(f"need h > 0, got {h!r}")
    rng = np.random.default_rng(171717)
    v = rng.uniform(-1.0, 1.0, op.size)
    v /= np.linalg.norm(v)
    for _ in range(5):
        w = _solve_shifted(op, lam, v)
        norm_w = np.linalg.norm(w)
        if not math.isfinite(norm_w) or norm_w == 0.0:
            raise ConvergenceError("inverse iteration produced a degenerate vector")
        v = w / norm_w
        residual = np.linalg.norm(op.apply(v) - lam * v)
        if residual <= 1e-8:
            return v / math.sqrt(h)
    raise ConvergenceError(
        f"inverse iteration did not reach residual 1e-8 in 5 steps (last {residual:.3e}); "
        "the shift may be inaccurate or inside a cluster"
    )


@lru_cache(maxsize=64)
def _rule_arrays(rule_size: int) -> tuple[np.ndarray, np.ndarray]:
    rule = gauss_legendre(rule_size)
    nodes, weights = np.array(rule.nodes), np.array(rule.weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=64)
def _graded_rule_arrays(rule_size: int) -> tuple[np.ndarray, np.ndarray]:
    # the Gauss-Legendre rule in s, at t = sin(pi s/2) with dt/ds folded into the weights
    s, weights = _rule_arrays(rule_size)
    nodes, dt = _sine_map(s)
    weights = weights * dt
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ParameterError(f"need finite lo < hi, got ({lo!r}, {hi!r})")
    nodes, weights = (_graded_rule_arrays if graded else _rule_arrays)(rule_size)
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * nodes
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
    make_grid: Callable[[int], Grid1D | SineGrid],
    analytic: list[float],
    n_grid: int,
    estimate_order: bool,
) -> SpectrumReport:
    k = len(analytic)
    sizes = ([n_grid // 2] if estimate_order else []) + [n_grid, 2 * n_grid]
    grids = [make_grid(n) for n in sizes]
    # an unreported pre-grid of sizes[0] // 8 points, when it holds the k
    # levels, gives the first grid its starts; every later grid starts on
    # the h^2 line, at the exact spacings, through the two grids before it.
    # The starts come only from these grids, never from the analytic
    # values, which would break the independence
    pre = sizes[0] // 8
    solved = ([make_grid(pre)] if pre >= max(k, 3) else []) + grids
    eigs: list[list[float]] = []
    for i, g in enumerate(solved):
        if i < 2:
            starts = eigs[-1] if eigs else None
        else:
            h0, h1 = solved[i - 2].h, solved[i - 1].h
            t = (g.h * g.h - h1 * h1) / (h1 * h1 - h0 * h0)
            starts = [e1 + (e1 - e0) * t for e0, e1 in zip(eigs[-2], eigs[-1])]
        eigs.append(eigenvalues_sturm(discretize_bdd(mass_fn, potential_fn, g), k, starts=starts))
    eigs = eigs[-len(grids):]
    h_pair = (grids[-2].h, grids[-1].h)
    numeric = _richardson(eigs[-2], eigs[-1], h_pair[0] / h_pair[1])
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
    p: oscillator.OscillatorParams,
    k: int,
    n_grid: int,
    estimate_order: bool = False,
) -> SpectrumReport:
    """Numeric spectrum of the confined model on (-a, a), paired with closed forms.

    Solves on SineGrids (n_grid, 2 n_grid), uniform in s with
    x = a sin(pi s/2), and Richardson-extrapolates in h^2; a third grid of
    n_grid // 2 points feeds the order estimate when requested.  A pre-grid
    of an eighth of the coarsest grid's points, when it holds the k levels,
    only gives that grid its first iterates and is not reported.  Every
    level converges at order 2 on these grids; the CLI's default n_grid,
    max(500, 16 A), held each level within 1.4e-6 of the closed forms over
    a sweep of A up to 210 at any admitted b.  Smaller grids are accepted
    for quick looks.  An n_grid whose
    finest grid would place points within pct.BOUNDARY_MARGIN a of a wall,
    where the mass is not sampled, is refused.
    """
    if not is_int(n_grid) or n_grid < 8:
        raise ParameterError(f"need an integer n_grid >= 8, got {n_grid!r}")
    model = oscillator._model(p)
    profile = pct.MassProfile(model.a)
    # the finest grid's midpoints, where the mass is sampled, put to pct.mass's own test
    try:
        pct._check_x(profile, SineGrid(model.a, 2 * n_grid).half_nodes())
    except DomainError:
        raise ParameterError(
            f"n_grid {n_grid} is too fine: its grid of {2 * n_grid} points would sample the "
            f"mass within {pct.BOUNDARY_MARGIN} a of the walls"
        ) from None
    if not is_int(k) or k < 1 or k > model.count:
        raise ParameterError(f"need 1 <= k <= {model.count} admitted levels, got {k!r}")
    x0 = 2.0 * p.b / p.omega0
    analytic = model.energies(range(k))
    return _two_grid_report(
        partial(pct.mass, profile),
        lambda x: 0.25 * p.omega0**2 * (x - x0) ** 2,
        partial(SineGrid, model.a),
        analytic,
        n_grid,
        estimate_order,
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
    analytic = [rm_energy(p, n) for n in range(k)]
    return _two_grid_report(
        lambda x: 1.0,
        partial(rm_potential, p),
        partial(Grid1D, -box, box),
        analytic,
        n_grid,
        estimate_order,
    )
