import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atisys import (
    AffineKernelRep,
    AffineStateSpace,
    Poly,
    PolyMatrix,
    lift,
    smith_form,
    syzygy_basis,
)
from atisys.errors import DimensionMismatch, ZeroMatrix
from atisys.scenario import reference_system
from conftest import (
    bareiss_reference,
    char_poly_at_one_reference,
    determinant_reference,
    random_poly,
    random_poly_matrix,
    random_system,
    random_unimodular,
    row_hermite,
    smith_form_reference,
)

X = Poly.x()


def worked_deficient_matrix() -> PolyMatrix:
    return PolyMatrix([[X + 1, X, X + 2], [X * X - 1, X * X - X, X * X + X - 2]])


def cofactor_determinant(M: PolyMatrix) -> Poly:
    """Reference determinant by cofactor expansion along the first column."""
    n = M.shape[0]
    if n == 0:
        return Poly.one()
    total = Poly.zero()
    for i in range(n):
        if M.rows[i][0].is_zero:
            continue
        minor = PolyMatrix([row[1:] for a, row in enumerate(M.rows) if a != i], ncols=n - 1)
        term = M.rows[i][0] * cofactor_determinant(minor)
        total = total + term if i % 2 == 0 else total - term
    return total


class TestShapes:
    def test_zero_row_results_keep_their_columns(self):
        empty = PolyMatrix.zeros(0, 3)
        for result in (empty + empty, empty - empty, empty.scale(2), empty.vstack(empty)):
            assert result.shape == (0, 3)
        assert (PolyMatrix.zeros(0, 2) @ PolyMatrix.zeros(2, 3)).shape == (0, 3)

    def test_vstack_requires_equal_column_counts(self):
        for top, bottom in [
            (PolyMatrix.zeros(0, 3), PolyMatrix([[1, 2]])),
            (PolyMatrix([[1, 2]]), PolyMatrix.zeros(0, 3)),
            (PolyMatrix([[1, 2]]), PolyMatrix([[1, 2, 3]])),
        ]:
            with pytest.raises(DimensionMismatch):
                top.vstack(bottom)
        assert PolyMatrix([[1, 2]]).vstack(PolyMatrix.zeros(0, 2)) == PolyMatrix([[1, 2]])


@st.composite
def rank_cases(draw):
    """A matrix up to 5 x 5 of degree at most 2, a unimodular product, or a
    singular square whose last row combines the others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, q = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["random", "unimodular", "singular"]))
    if kind == "random":
        return random_poly_matrix(rng, g, q)
    n = max(g, 1)
    if kind == "unimodular":
        return random_unimodular(rng, n, ops=int(rng.integers(1, 6)))
    rows = [list(row) for row in random_poly_matrix(rng, n - 1, n).rows]
    last = [Poly.zero()] * n
    for row in rows:
        factor = random_poly(rng, 1)
        last = [a + factor * b for a, b in zip(last, row)]
    return PolyMatrix(rows + [last])


class TestRank:
    @settings(max_examples=300, deadline=None)
    @given(rank_cases())
    def test_weak_popov_degrees_match_bareiss(self, M):
        """rank and is_unimodular read the weak Popov degrees; Bareiss elimination is the reference."""
        g, q = M.shape
        assert M.rank() == bareiss_reference(M)[0]
        det = determinant_reference(M) if g == q else Poly.zero()
        assert M.is_unimodular() == (det.is_constant and not det.is_zero)

    def test_full_row_rank_case(self):
        R = PolyMatrix([[1, 0, 0], [0, Poly([1, -1]), 0]])
        assert R.rank() == 2

    def test_deficient_case(self):
        assert worked_deficient_matrix().rank() == 1

    def test_zero_matrix(self):
        assert PolyMatrix.zeros(2, 3).rank() == 0

    def test_shifted_rows_are_dependent(self):
        row = [X + 1, 2 * X, Poly([1, 0, 3])]
        R = PolyMatrix([row, [X * e for e in row]])
        assert R.rank() == 1


@st.composite
def elimination_cases(draw):
    """A matrix up to 5 x 5, square half the time, of degree at most 3 with
    rational coefficients, or only its diagonal, whose pivots need not divide
    one another; it may have a row scaled by a rational, a last row that
    combines two others, and a zero row and column."""
    g = draw(st.integers(0, 5))
    q = g if draw(st.booleans()) else draw(st.integers(0, 5))
    coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    poly = st.lists(coefficient, max_size=4).map(Poly)
    diagonal = draw(st.booleans())
    rows = [[draw(poly) if i == j or not diagonal else Poly.zero() for j in range(q)]
            for i in range(g)]
    if g and draw(st.booleans()):
        scale = draw(coefficient.filter(bool))
        rows[0] = [e.scale(scale) for e in rows[0]]
    if g >= 3 and draw(st.booleans()):
        a, b = draw(coefficient), draw(coefficient)
        rows[-1] = [e.scale(a) + f.scale(b) for e, f in zip(rows[0], rows[1])]
    if g and q and draw(st.booleans()):
        i, j = draw(st.integers(0, g - 1)), draw(st.integers(0, q - 1))
        rows[i] = [Poly.zero()] * q
        for row in rows:
            row[j] = Poly.zero()
    return PolyMatrix(rows, ncols=q)


class TestEliminationOracle:
    @settings(max_examples=300, deadline=None)
    @given(elimination_cases())
    @example(PolyMatrix.zeros(0, 0))
    @example(PolyMatrix([[X, 0], [0, X + 1]]))
    @example(PolyMatrix([[X.scale(Fraction(1, 2)), 0, 0], [0, X + 1, 0], [0, 0, 3 * X + 6]]))
    def test_smith_and_determinant_match_poly_row_references(self, M):
        """The integer-row Smith form equals the Poly-row reference in U, V
        and the invariant factors, and on a square M the factors multiply to
        Bareiss's determinant, made monic."""
        if M.is_zero:
            with pytest.raises(ZeroMatrix):
                smith_form(M)
            return
        dec = smith_form(M)
        assert dec == smith_form_reference(M)
        if M.shape[0] == M.shape[1]:
            product = Poly.one() if dec.rank == M.shape[0] else Poly.zero()
            for d in dec.invariant_factors:
                product = product * d
            assert product == determinant_reference(M).monic()


class TestSmith:
    def test_already_diagonal(self):
        R = PolyMatrix([[X, 0], [0, X * X]])
        dec = smith_form(R)
        assert [str(d) for d in dec.invariant_factors] == ["x", "x^2"]

    def test_rectangular_case(self):
        R = PolyMatrix([[1, 0, 0], [0, Poly([1, -1]), 0]])
        dec = smith_form(R)
        assert dec.invariant_factors[0] == Poly.one()
        assert dec.invariant_factors[1] == Poly([-1, 1])  # monic unit multiple of 1 - x

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrix):
            smith_form(PolyMatrix.zeros(2, 2))

    def test_reconstruction_and_divisibility_randomized(self, rng):
        for _ in range(30):
            g = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            R = random_poly_matrix(rng, g, q, max_degree=2)
            if R.is_zero:
                continue
            dec = smith_form(R)
            assert (dec.U @ R @ dec.V) == dec.diagonal()
            assert dec.U.is_unimodular() and dec.V.is_unimodular()
            for d1, d2 in zip(dec.invariant_factors, dec.invariant_factors[1:]):
                assert d1.divides(d2)
            for d in dec.invariant_factors:
                assert d.leading_coefficient == 1
            assert dec.rank == R.rank()


    @pytest.mark.parametrize(
        "rows",
        [
            [[X, 0], [0, X + 1]],
            [[X * X, 0], [0, X + 1]],
            [[X, 0, 0], [0, X + 1, 0], [0, 0, X + 2]],
            [[X, 1], [0, X + 1]],
        ],
        ids=["x,x+1", "x2,x+1", "x,x+1,x+2", "triangular"],
    )
    def test_divisibility_repair(self, rows):
        # a pivot that does not divide the trailing entries: the chain
        # d_1 | d_2 | ... holds only once a trailing row is pulled into the pivot row
        R = PolyMatrix(rows)
        dec = smith_form(R)
        assert dec.U @ R @ dec.V == dec.diagonal()
        assert dec.U.is_unimodular() and dec.V.is_unimodular()
        factors = dec.invariant_factors
        assert all(d.leading_coefficient == 1 for d in factors)
        assert all(a.divides(b) for a, b in zip(factors, factors[1:]))
        product = Poly.one()
        for d in factors:
            product = product * d
        assert product == determinant_reference(R).monic()


class TestDeterminant:
    """The Bareiss reference determinant against cofactor expansion and the
    determinant's algebra: the oracle behind the rank and Smith checks above."""

    def test_known_two_by_two(self):
        R = PolyMatrix([[X, 1], [0, X]])
        assert determinant_reference(R) == Poly([0, 0, 1])

    def test_unimodular_products_have_constant_determinant(self, rng):
        for _ in range(20):
            U = random_unimodular(rng, int(rng.integers(1, 4)))
            d = determinant_reference(U)
            assert d.is_constant and not d.is_zero

    def test_multiplicativity(self, rng):
        for _ in range(10):
            A = random_poly_matrix(rng, 3, 3, max_degree=1)
            B = random_poly_matrix(rng, 3, 3, max_degree=1)
            assert determinant_reference(A @ B) == determinant_reference(A) * determinant_reference(B)

    def test_matches_cofactor_expansion(self, rng):
        for n in range(1, 6):
            for _ in range(6):
                R = random_poly_matrix(rng, n, n, max_degree=2)
                assert determinant_reference(R) == cofactor_determinant(R)
        singular = PolyMatrix([[X, X * X, 1], [1, X, 0], [X + 1, X * X + X, 1]])
        assert determinant_reference(singular) == cofactor_determinant(singular) == Poly.zero()

    def test_eight_by_eight_unimodular_product(self, rng):
        U = random_unimodular(rng, 8, ops=12) @ random_unimodular(rng, 8, ops=12)
        d = determinant_reference(U)
        assert d.is_constant and not d.is_zero
        assert d == cofactor_determinant(U)


class TestRowHermite:
    def test_transforms_are_mutual_inverses(self, rng):
        for _ in range(20):
            g = int(rng.integers(1, 4))
            R = random_poly_matrix(rng, g, int(rng.integers(1, 4)))
            red = row_hermite(R)
            assert (red.U @ R) == red.H
            assert red.U.is_unimodular()

    def test_canonical_under_unimodular_premultiplication(self, rng):
        for _ in range(20):
            g = int(rng.integers(1, 4))
            R = random_poly_matrix(rng, g, int(rng.integers(2, 4)))
            U = random_unimodular(rng, g)
            a = row_hermite(R)
            b = row_hermite(U @ R)
            assert a.H == b.H
            assert a.pivot_columns == b.pivot_columns

    def test_staircase_with_zero_rows_last(self):
        row = [X + 1, 2 * X, Poly([1, 0, 3])]
        R = PolyMatrix([row, row])
        red = row_hermite(R)
        assert red.rank == 1
        assert all(e.is_zero for e in red.H.rows[1])


class TestCopies:
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trip_keeps_value_and_drops_memo(self, duplicate):
        R = worked_deficient_matrix()
        syzygy_basis(R)
        assert R._reduced is not None
        rep = AffineKernelRep(R, (Fraction(1, 3), -2))
        for original in (Poly([Fraction(1, 2), 0, -3]), Poly.zero(), R, PolyMatrix.zeros(0, 3), rep):
            twin = duplicate(original)
            assert twin == original and hash(twin) == hash(original)
        twin = duplicate(R)
        assert twin.shape == R.shape
        assert twin._reduced is None
        assert syzygy_basis(twin) == syzygy_basis(R)


def _m(rows) -> PolyMatrix:
    """A matrix from ascending coefficient lists, one per entry."""
    return PolyMatrix([[Poly(e) for e in row] for row in rows])


class TestPinnedTransforms:
    """U, V, factors, H and pivots written out, so a reordered reduction shows."""

    CASES = [
        (
            worked_deficient_matrix(),
            (
                [[[-1], []], [[1, -1], [1]]],
                [[[-1], [0, -1], [-2, -1]], [[1], [1, 1], [2, 1]], [[], [], [1]]],
                [[1]],
            ),
            ([[[1, 1], [0, 1], [2, 1]], [[], [], []]], [[[1], []], [[1, -1], [1]]], (0,)),
        ),
        (
            _m([[[0, 1], [1]], [[], [0, 1]]]),
            ([[[1], []], [[0, 1], [-1]]], [[[], [1]], [[1], [0, -1]]], [[1], [0, 0, 1]]),
            ([[[0, 1], [1]], [[], [0, 1]]], [[[1], []], [[], [1]]], (0, 1)),
        ),
        (
            _m([[[1, 0, 1], [0, 1], [], [2]], [[0, 1], [1], [-1, 1], ["1/3"]]]),
            (
                [[["1/2"], []], [["-1/30"], ["1/5"]]],
                [
                    [[], [], [], [1]],
                    [[], [6], ["-1/5", "1/5"], ["1/5", "-6/5", "1/5"]],
                    [[], [1], ["-1/5", "1/30"], ["1/30", "-1/5", "1/30"]],
                    [[1], [0, -3], [0, "1/10", "-1/10"], ["-1/2", "-1/10", "1/10", "-1/10"]],
                ],
                [[1], [1]],
            ),
            (
                [[[1], [], [0, 1, -1], [2, "-1/3"]], [[], [1], [-1, 1, -1, 1], ["1/3", -2, "1/3"]]],
                [[[1], [0, -1]], [[0, -1], [1, 0, 1]]],
                (0, 1),
            ),
        ),
        (
            _m([[[0, 2], ["1/2"]], [[1, 1], [0, 1]], [[3], [0, 0, 1]]]),
            (
                [
                    [[2], [], []],
                    [[0, "32/101", "10/101"], ["-16/101", "-44/101", "-20/101"], ["39/101", "20/101"]],
                    [[0, "-75/202", "25/202", "25/202"], ["75/404", 0, 0, "-25/101"], ["-25/404", "-25/404", "25/101"]],
                ],
                [[[], [1]], [[1], [0, -4]]],
                [[1], [1]],
            ),
            (
                [[[1], []], [[], [1]], [[], []]],
                [
                    [[0, 0, "-2/3", "40/101", "88/303"], [0, 0, "-20/101", "-64/303", "-176/303"], ["1/3", 0, "20/303", "176/303"]],
                    [[2, "-120/101", "-88/101"], ["60/101", "64/101", "176/101"], ["-20/101", "-176/101"]],
                    [[0, "726/101", "-242/101", "-242/101"], ["-363/101", 0, 0, "484/101"], ["121/101", "121/101", "-484/101"]],
                ],
                (0, 1),
            ),
        ),
    ]

    @pytest.mark.parametrize("R, smith, hermite", CASES, ids=["rank-one", "jordan", "wide", "tall"])
    def test_smith_and_hermite(self, R, smith, hermite):
        dec = smith_form(R)
        U, V, factors = smith
        assert (dec.U, dec.V, dec.invariant_factors) == (_m(U), _m(V), tuple(map(Poly, factors)))
        red = row_hermite(R)
        assert (red.H, red.U, red.pivot_columns) == (_m(hermite[0]), _m(hermite[1]), hermite[2])

    def test_char_poly_at_one(self):
        """det(I - A) = 0 exactly on two pinned lifts."""
        model = AffineStateSpace([[0.5, 0.25], [0, -1.5]], [[1], [0]], [[1, 0]], [[0]], [0.75, -2], [1])
        for sys in (model, reference_system()):
            assert char_poly_at_one_reference(lift(sys)) == 0

    def test_char_poly_at_one_matches_the_determinant(self):
        """The structural zero against det(I - A), computed exactly from the
        rationals the floats encode, on lifts of order 2 to 6."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, m, p = int(rng.integers(1, 6)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
            assert char_poly_at_one_reference(lift(random_system(rng, n, m, p))) == 0
