"""Shared generators for randomized suites, and the references they compare
against: exactla's null spaces and solvability test, the content-gcd
integer elimination that exactla's Bareiss elimination replaced, the
row-Hermite form, Bareiss elimination, the Smith form and the weak Popov
reduction on rows of rational polynomials that the integer-row eliminations
replaced, the minimal form with offsets U(1) c that the homogenized
reduction replaced, the affine least-squares solve that the data-driven
fits replaced, the two-decomposition completion that the one-SVD completion
replaced, the linearization by derivative trees that forward-mode
differentiation replaced, and det(I - A) of a lifted model, the exact
certificate of its eigenvalue at 1.

All randomness flows through explicitly seeded numpy generators so every
suite is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from atisys import (
    AffineKernelRep,
    AffineStateSpace,
    Poly,
    PolyMatrix,
    Trajectory,
    controllable,
    exactla,
    numerical_rank,
    pe_order_affine,
    polymatrix,
    simulate,
)
from atisys.errors import AmbiguousContinuation, Infeasible, NonFiniteEvaluation
from atisys.plants import Add, Const, Mul, Neg, Pow, Sub, Var
from atisys.polymatrix import PopovReduction, SmithDecomposition
from atisys.trajectories import default_rank_tolerance, rank_of


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_system(rng, n, m, p, spectral_radius=0.9) -> AffineStateSpace:
    A = rng.normal(size=(n, n))
    if n:
        top = np.max(np.abs(np.linalg.eigvals(A)))
        if top > 0:
            A *= spectral_radius / top
    return AffineStateSpace(
        A,
        rng.normal(size=(n, m)),
        rng.normal(size=(p, n)),
        rng.normal(size=(p, m)),
        rng.normal(size=n),
        rng.normal(size=p),
    )


def random_controllable_system(rng, n_max=4, m_max=2, p_max=2) -> AffineStateSpace:
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        p = int(rng.integers(1, p_max + 1))
        sys = random_system(rng, n, m, p)
        if controllable(sys):
            return sys


def observable(sys: AffineStateSpace) -> bool:
    if sys.n == 0:
        return True
    O = np.vstack([sys.C @ np.linalg.matrix_power(sys.A, k) for k in range(sys.n)])
    return numerical_rank(O).rank == sys.n


def random_minimal_integer_system(rng, n_max=3, m_max=2, p_max=2) -> AffineStateSpace:
    """Minimal (controllable and observable) model with small integer entries.

    Integer data keeps float simulation exact, so rational null-space
    computations downstream see the mathematically exact data matrix.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        p = int(rng.integers(1, p_max + 1))
        sys = AffineStateSpace(
            rng.integers(-1, 2, size=(n, n)).astype(float),
            rng.integers(-2, 3, size=(n, m)).astype(float),
            rng.integers(-2, 3, size=(p, n)).astype(float),
            rng.integers(-2, 3, size=(p, m)).astype(float),
            rng.integers(-2, 3, size=n).astype(float),
            rng.integers(-2, 3, size=p).astype(float),
        )
        if controllable(sys) and observable(sys):
            return sys


def pe_affine_input(rng, m, order, length, integer=False, max_tries=50) -> Trajectory:
    """Input sequence that is persistently exciting of ``order`` for class A."""
    for _ in range(max_tries):
        if integer:
            data = rng.integers(-3, 4, size=(length, m)).astype(float)
        else:
            data = rng.normal(size=(length, m))
        u = Trajectory.inputs(data)
        if pe_order_affine(u, order):
            return u
    raise AssertionError(f"no exciting input of order {order} found in {max_tries} tries")


def experiment(sys: AffineStateSpace, rng, u: Trajectory, x0=None):
    """Simulate and return (io trajectory, states, result)."""
    if x0 is None:
        x0 = rng.normal(size=sys.n)
    result = simulate(sys, x0, u)
    return result.io(u), result


def random_poly(rng, max_degree=2, zero_ok=True) -> Poly:
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = [int(rng.integers(-3, 4)) for _ in range(degree + 1)]
    if not zero_ok and all(c == 0 for c in coeffs):
        coeffs[-1] = 1
    return Poly(coeffs)


def random_poly_matrix(rng, g, q, max_degree=2) -> PolyMatrix:
    return PolyMatrix([[random_poly(rng, max_degree) for _ in range(q)] for _ in range(g)])


def random_unimodular(rng, size, ops=4, factor_degree=1) -> PolyMatrix:
    """Product of elementary row operations: swaps and polynomial shears."""
    U = PolyMatrix.identity(size)
    for _ in range(ops):
        kind = rng.integers(0, 2) if size > 1 else 1
        rows = [list(r) for r in U.rows]
        if kind == 0:
            i, j = rng.choice(size, size=2, replace=False)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = int(rng.integers(0, size))
            j = int(rng.integers(0, size))
            if i == j:
                scale = int(rng.choice([-2, -1, 2, 1]))
                rows[i] = [e.scale(scale) for e in rows[i]]
            else:
                f = random_poly(rng, factor_degree)
                rows[j] = [a + f * b for a, b in zip(rows[j], rows[i])]
        U = PolyMatrix(rows)
    return U


# -- exact references ----------------------------------------------------


def null_space(matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """exactla's canonical basis of the right null space, as Fractions: each
    vector has a 1 in its free column and 0 in the other free columns."""
    ncols = exactla._width(matrix) if ncols is None else ncols
    return [[Fraction(v, y[free]) for v in y] for free, y in exactla._null_vectors(matrix, ncols).items()]


def left_null_space(matrix, nrows: int | None = None) -> list[list[Fraction]]:
    """Basis of the left null space (row vectors v with v @ M = 0)."""
    rows = exactla._rows(matrix)
    if nrows is None:
        nrows = len(rows)
    return null_space(list(zip(*rows)), ncols=nrows)


def solvable(matrix, rhs) -> bool:
    """Whether M x = b has a solution: b's column is free in [M | b]."""
    n = exactla._width(matrix)
    augmented = [[*row, v] for row, v in zip(exactla._rows(matrix), exactla._rows(rhs))]
    return n in exactla._null_vectors(augmented, n + 1)


def echelon_reference(M: list[list[int]]) -> list[int]:
    """The content-gcd elimination that Bareiss elimination replaced in exactla.

    A row with entry f under the pivot p becomes (p/g) row - (f/g) top,
    g = gcd(p, f), with the multiplier p/g positive, and is then divided by
    its content; rows with a zero under the pivot are not touched.  Every row
    stays the primitive positive multiple of its rational row.
    """
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        p = M[r][c]
        top = M[r][c + 1 :]
        for i in range(r + 1, nrows):
            row = M[i]
            f = row[c]
            if not f:
                continue
            g = gcd(p, f)
            a, b = (p // g, f // g) if p > 0 else (-p // g, -f // g)
            new = [a * x - b * y if y else a * x for x, y in zip(row[c + 1 :], top)]
            content = gcd(*new)
            if content > 1:
                new = [v // content for v in new]
            row[c] = 0
            row[c + 1 :] = new
        pivots.append(c)
    return pivots


@dataclass(frozen=True)
class RowHermite:
    """Canonical staircase form H = U R with its unimodular transform."""

    H: PolyMatrix
    U: PolyMatrix
    pivot_columns: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_columns)


def _subtract_multiple(row, factor, other):
    return [a - factor * b if b else a for a, b in zip(row, other)]


def row_hermite(matrix: PolyMatrix) -> RowHermite:
    """Reduce to the canonical row-Hermite form using unimodular row ops.

    Runs on the rows of [R | I], so the identity columns build U.  Pivots
    are monic, entries above a pivot have degree strictly below the pivot's,
    nonzero rows come first in staircase order.  Full-row-rank matrices with
    equal row modules reduce to the identical canonical form.
    """
    g, q = matrix.shape
    M = [list(row) + list(unit) for row, unit in zip(matrix.rows, PolyMatrix.identity(g).rows)]

    pr = 0
    pivots = []
    for col in range(q):
        while True:
            candidates = [i for i in range(pr, g) if not M[i][col].is_zero]
            if not candidates:
                break
            best = min(candidates, key=lambda i: M[i][col].degree)
            M[best], M[pr] = M[pr], M[best]
            clean = True
            for i in range(pr + 1, g):
                if not M[i][col].is_zero:
                    quo, rem = divmod(M[i][col], M[pr][col])
                    M[i] = _subtract_multiple(M[i], quo, M[pr])
                    if not rem.is_zero:
                        clean = False
            if clean:
                break
        if pr < g and not M[pr][col].is_zero:
            pivots.append(col)
            pr += 1
            if pr == g:
                break
    # canonical normalization: monic pivots, reduced entries above
    for r, col in enumerate(pivots):
        lead = M[r][col].leading_coefficient
        if lead != 1:
            M[r] = [e.scale(1 / lead) for e in M[r]]
        for i in range(r):
            if not M[i][col].is_zero and M[i][col].degree >= M[r][col].degree:
                M[i] = _subtract_multiple(M[i], M[i][col] // M[r][col], M[r])
    H = PolyMatrix([row[:q] for row in M])
    return RowHermite(H, PolyMatrix([row[q:] for row in M]), tuple(pivots))


def bareiss_reference(matrix: PolyMatrix) -> tuple[int, int, Poly]:
    """Fraction-free forward elimination (Bareiss 1968) on Poly entries.

    Below and right of a minimum-degree pivot, a_ij becomes
    (pivot * a_ij - a_ic * a_rj) / previous pivot; every entry is then a
    minor of the input, so the division is exact.  Returns the rank, the
    sign of the row permutation and the last pivot (+-det when nonsingular).
    """
    g, q = matrix.shape
    M = [list(row) for row in matrix.rows]
    prev = Poly.one()
    sign = 1
    r = 0
    for col in range(q):
        if r == g:
            break
        candidates = [i for i in range(r, g) if not M[i][col].is_zero]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: M[i][col].degree)
        if best != r:
            M[r], M[best] = M[best], M[r]
            sign = -sign
        top = M[r]
        pivot = top[col]
        for i in range(r + 1, g):
            row = M[i]
            factor = row[col]
            for j in range(col + 1, q):
                e = pivot * row[j]
                if not factor.is_zero and not top[j].is_zero:
                    e = e - factor * top[j]
                row[j] = e.exact_div(prev)
        prev = pivot
        r += 1
    return r, sign, prev


def determinant_reference(matrix: PolyMatrix) -> Poly:
    """The determinant of a square matrix from :func:`bareiss_reference`."""
    rank, sign, last_pivot = bareiss_reference(matrix)
    if rank < matrix.shape[0]:
        return Poly.zero()
    return last_pivot if sign > 0 else -last_pivot


def char_poly_at_one_reference(lifted) -> Fraction:
    """det(I - A) of a lifted model's transition matrix, computed exactly on
    the rationals its floats encode; 0 certifies the eigenvalue at 1."""
    A = PolyMatrix([[Fraction(v) for v in row] for row in lifted.A.tolist()])
    return determinant_reference(PolyMatrix.identity(lifted.order) - A).coefficient(0)


def smith_form_reference(matrix: PolyMatrix) -> SmithDecomposition:
    """:func:`atisys.smith_form` on rows of rational polynomials: the same
    pivots and steps, with Poly division and Poly row operations on the rows
    of [M | I] over [I | 0].  The caller rules out the zero matrix."""
    g, q = matrix.shape
    zero = Poly.zero()
    M = [list(row) + list(unit) for row, unit in zip(matrix.rows, PolyMatrix.identity(g).rows)]
    M += [list(unit) + [zero] * g for unit in PolyMatrix.identity(q).rows]

    def col_swap(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]

    rank = 0
    for k in range(min(g, q)):
        nonzero = [(M[i][j].degree, i, j) for i in range(k, g) for j in range(k, q) if M[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        M[k], M[i] = M[i], M[k]
        col_swap(k, j)
        while True:
            i = next((i for i in range(g) if i != k and M[i][k]), None)
            if i is not None:
                quo, rem = divmod(M[i][k], M[k][k])
                M[i] = _subtract_multiple(M[i], quo, M[k])
                if rem:
                    M[k], M[i] = M[i], M[k]
                continue
            j = next((j for j in range(q) if j != k and M[k][j]), None)
            if j is not None:
                quo, rem = divmod(M[k][j], M[k][k])
                for row in M:
                    if row[k]:
                        row[j] = row[j] - quo * row[k]
                if rem:
                    col_swap(k, j)
                continue
            pivot = M[k][k]
            trailing = ((a, b) for a in range(k + 1, g) for b in range(k + 1, q))
            a = next((a for a, b in trailing if not pivot.divides(M[a][b])), None)
            if a is None:
                break
            M[k] = [e + f for e, f in zip(M[k], M[a])]
        rank += 1

    for k in range(rank):
        lead = M[k][k].leading_coefficient
        if lead != 1:
            M[k] = [e.scale(1 / lead) for e in M[k]]
    U = PolyMatrix([row[q:] for row in M[:g]])
    V = PolyMatrix([row[:q] for row in M[g:]])
    return SmithDecomposition(U, V, tuple(M[k][k] for k in range(rank)), matrix.shape)


def _leading(row, width):
    for part in (range(width), range(width, len(row))):
        degree = max((row[j].degree for j in part), default=-1)
        if degree >= 0:
            return degree, max(j for j in part if row[j].degree == degree)
    return None


def _weak_popov(rows, width):
    """Reference weak Popov reduction on rows of rational polynomials: of two
    rows leading at one position, the one of higher degree loses its leading
    term to a rational monomial multiple of the other."""
    lead = [_leading(row, width) for row in rows]
    owner = {}
    for i in range(len(rows)):
        while lead[i] is not None:
            j = lead[i][1]
            k = owner.setdefault(j, i)
            if k == i:
                break
            if lead[k][0] > lead[i][0]:
                owner[j], i, k = i, k, i
            factor = rows[i][j].leading_coefficient / rows[k][j].leading_coefficient
            monomial = Poly.x(lead[i][0] - lead[k][0]).scale(factor)
            rows[i] = _subtract_multiple(rows[i], monomial, rows[k])
            lead[i] = _leading(rows[i], width)


def _popov(rows, width):
    """Reference Popov step: each row reduced by the rational quotient of the
    first other row whose leading entry still reduces it, then made monic and
    sorted by leading position."""
    lead = [_leading(row, width) for row in rows]
    for i in range(len(rows)):
        while True:
            k = next((k for k, (d, j) in enumerate(lead) if k != i and rows[i][j].degree >= d), None)
            if k is None:
                break
            j = lead[k][1]
            rows[i] = _subtract_multiple(rows[i], rows[i][j] // rows[k][j], rows[k])
    return [
        [e.scale(1 / row[j].leading_coefficient) for e in row]
        for (_, j), row in sorted(zip(lead, rows), key=lambda pair: pair[0][1])
    ]


def _clear_denominators(polys):
    den = lcm(*(p.denominator for p in polys))
    rows = [[n * (den // p.denominator) for n in p.numerators] for p in polys]
    content = gcd(*(n for row in rows for n in row)) or 1
    return [Poly.from_numerators([n // content for n in row]) for row in rows]


def popov_reduction_reference(matrix: PolyMatrix) -> PopovReduction:
    """:meth:`PolyMatrix.popov_reduction` on rows of rational polynomials."""
    g, q = matrix.shape
    unit = PolyMatrix.identity(g).rows
    rows = [[*row, *e] for row, e in zip(matrix.rows, unit)]
    _weak_popov(rows, q)
    kept = _popov([row for row in rows if any(row[:q])], q)
    return PopovReduction(
        popov=tuple(tuple(row[:q]) for row in kept),
        syzygies=tuple(tuple(_clear_denominators(row[q:])) for row in rows if not any(row[:q])),
    )


def minimal_form_reference(rep: AffineKernelRep):
    """Consistency, R's syzygies and the minimal form, as ``kernelrep`` read
    them off the integer-row reduction of [R | I] alone.

    The Popov rows of U R are the minimal R, the offsets are U(1) c on their
    transform rows, and the verdict is lambda(1) c = 0 for every generator
    lambda, with c put over one denominator.  Returns (consistent, syzygies,
    minimal form), the minimal form None when inconsistent.
    """
    q = rep.q
    rows = [polymatrix._primitive(row[:-1]) for row in polymatrix._augmented(rep.R)]
    polymatrix._weak_popov(rows, q)
    kept = polymatrix._popov([row for row in rows if any(row[:q])], q)
    syzygies = [tuple(Poly.from_numerators(e) for e in row[q:]) for row in rows if not any(row[:q])]
    scale = lcm(*(v.denominator for v in rep.c))
    c = [v.numerator * (scale // v.denominator) for v in rep.c]
    if any(sum(sum(e.numerators) * v for e, v in zip(lam, c)) for lam in syzygies):
        return False, syzygies, None
    at_one = [[Fraction(sum(e), lead) for e in row[q:]] for lead, row in kept]
    R = PolyMatrix([[Poly.from_numerators(e, lead) for e in row[:q]] for lead, row in kept], ncols=q)
    offset = tuple(sum(u * v for u, v in zip(row, rep.c)) for row in at_one)
    return True, syzygies, AffineKernelRep(R, offset)


def weak_popov_degrees_reference(matrix: PolyMatrix) -> tuple[int, ...]:
    """:meth:`PolyMatrix.weak_popov_degrees` on rows of rational polynomials."""
    rows = [list(row) for row in matrix.rows]
    _weak_popov(rows, matrix.shape[1])
    return tuple(max((e.degree for e in row), default=-1) for row in rows)


# -- float references ----------------------------------------------------


def affine_lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimise ||A g - b|| subject to 1^T g = 1, on the full T-column matrix.

    The difference parametrisation g = e_1 + D z, D = [-1^T; I], makes every
    z feasible: the residual is (A[:, 1:] - A[:, :1]) z - (b - A[:, 0]), so z
    comes from one least-squares solve on the column differences.
    """
    g = np.zeros(A.shape[1])
    g[0] = 1.0
    if A.shape[1] > 1:
        z = np.linalg.lstsq(A[:, 1:] - A[:, :1], b - A[:, 0], rcond=None)[0]
        g[0] -= z.sum()
        g[1:] = z
    return g


def complete_reference(rep, w_ini, u_f, tol: float = 1e-8):
    """``datadriven.complete`` as it stood with two decompositions per query.

    The fit is ``np.linalg.lstsq`` on the matched rows C of H Q, with the rank
    cut of ``numerical_rank``; the ambiguity test then takes a second SVD, of
    the stacked [1^T; C] Q, and cuts it against its own largest singular value.
    Returns the future outputs, g and the residual, or raises ``Infeasible`` or
    ``AmbiguousContinuation`` as the solver does.
    """
    q, m, L = rep.q, rep.m, rep.depth
    t_ini = 0 if w_ini is None else w_ini.length
    Q, R = rep._qr
    M = R[:, 1:].T
    blocks = M.reshape(L, q, -1)
    C = np.vstack([M[: q * t_ini], blocks[t_ini:, :m].reshape(-1, M.shape[1])])
    prefix = [] if w_ini is None else [w_ini.data.ravel()]
    b = np.concatenate(prefix + [u_f.data.ravel()])
    Y = blocks[t_ini:, m:].reshape(-1, M.shape[1])
    y = np.zeros(C.shape[1])
    y[0] = 1 / R[0, 0]
    rcond = default_rank_tolerance((len(b) + 1, rep.columns))
    y[1:] = np.linalg.lstsq(C[:, 1:], b - C[:, 0] * y[0], rcond=rcond)[0]
    residual = float(np.linalg.norm(C @ y - b))
    if residual > tol * (1 + np.linalg.norm(b)):
        raise Infeasible(f"constraint residual {residual:.3e} exceeds the tolerance")
    S = np.vstack([R[:, 0], C])
    _, svals, Vt = np.linalg.svd(S, full_matrices=False)
    V = Vt[: rank_of(svals, (S.shape[0], rep.columns))]
    if V.shape[0] < S.shape[1]:
        spread = float(np.linalg.norm(Y - (Y @ V.T) @ V))
        if spread > tol * (1 + np.linalg.norm(Y)):
            raise AmbiguousContinuation(f"future outputs vary by {spread:.3e} over the solution set")
    return (M @ y).reshape(L, q)[t_ini:, m:], Q @ y, residual


# -- plant references ----------------------------------------------------


def evaluate_reference(expr, env: dict[str, float]):
    """An expression's value, one recursive walk per node kind."""
    match expr:
        case Const(value):
            return value
        case Var(name):
            return env[name]
        case Add(a, b):
            return evaluate_reference(a, env) + evaluate_reference(b, env)
        case Sub(a, b):
            return evaluate_reference(a, env) - evaluate_reference(b, env)
        case Mul(a, b):
            return evaluate_reference(a, env) * evaluate_reference(b, env)
        case Neg(a):
            return -evaluate_reference(a, env)
        case Pow(a, k):
            return evaluate_reference(a, env) ** k


def differentiate_reference(expr, name: str):
    """The derivative tree of an expression with respect to one variable."""
    match expr:
        case Const():
            return Const(0.0)
        case Var(var):
            return Const(1.0 if var == name else 0.0)
        case Add(a, b):
            return Add(differentiate_reference(a, name), differentiate_reference(b, name))
        case Sub(a, b):
            return Sub(differentiate_reference(a, name), differentiate_reference(b, name))
        case Mul(a, b):
            return Add(Mul(differentiate_reference(a, name), b), Mul(a, differentiate_reference(b, name)))
        case Neg(a):
            return Neg(differentiate_reference(a, name))
        case Pow(_, 0):
            return Const(0.0)
        case Pow(a, k):
            return Mul(Mul(Const(float(k)), Pow(a, k - 1)), differentiate_reference(a, name))


def linearize_reference(plant, xbar, ubar, ybar):
    """A..F of :func:`atisys.linearize` with every map and every derivative
    tree evaluated on its own, each evaluation raising
    :class:`NonFiniteEvaluation` on overflow or a non-finite value."""
    xbar, ubar, ybar = (np.asarray(v, dtype=float) for v in (xbar, ubar, ybar))
    z = np.concatenate([xbar, ubar])
    names = plant._names

    def at(exprs, point):
        env = dict(zip(names, map(float, point)))
        try:
            values = np.array([evaluate_reference(e, env) for e in exprs], dtype=float)
        except OverflowError:
            raise NonFiniteEvaluation("overflowed") from None
        if not np.all(np.isfinite(values)):
            raise NonFiniteEvaluation("evaluated to a non-finite value")
        return values

    def jacobian(exprs):
        trees = [differentiate_reference(e, v) for e in exprs for v in names]
        return at(trees, z).reshape(len(exprs), z.size)

    A, B = np.hsplit(jacobian(plant.f), [plant.n])
    C, D = np.hsplit(jacobian(plant.h), [plant.n])
    return A, B, C, D, at(plant.f, z) - xbar, at(plant.h, z) - ybar
