from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atisys import DataDrivenRep, Trajectory, hankel, numerical_rank, restrict, shift
from atisys import exactla, trajectories
from conftest import echelon_reference, left_null_space, null_space, solvable
from atisys.errors import (
    DepthExceedsLength,
    DimensionMismatch,
    EmptyTrajectory,
    InvalidArgument,
    NonFiniteEntry,
    OutOfRange,
    ShiftTooLarge,
)


class TestTrajectory:
    def test_scalar_promotes_to_column(self):
        w = Trajectory([1, 2, 3])
        assert w.data.shape == (3, 1)
        assert w.length == 3 and w.q == 1 and w.m == 0 and w.p == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrajectory):
            Trajectory(np.zeros((0, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteEntry):
            Trajectory([1.0, np.nan])

    def test_bad_split_rejected(self):
        with pytest.raises(DimensionMismatch):
            Trajectory(np.zeros((3, 2)), m=3)

    def test_immutable(self):
        w = Trajectory([1, 2, 3])
        with pytest.raises(ValueError):
            w.data[0] = 5.0

    def test_sample_is_one_based(self):
        w = Trajectory(np.array([[1.0, 10.0], [2.0, 20.0]]), m=1)
        assert w.sample(1).tolist() == [1.0, 10.0]
        assert w.sample(2).tolist() == [2.0, 20.0]

    def test_sample_past_the_end_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            Trajectory(np.array([[1.0], [2.0]])).sample(3)


class TestHankel:
    def test_scalar_depth_two(self):
        H = hankel(Trajectory([1, 2, 3, 4]), 2)
        assert H.entries.tolist() == [[1, 2, 3], [2, 3, 4]]

    def test_single_window(self):
        H = hankel(Trajectory([1, 2, 3]), 3)
        assert H.entries.tolist() == [[1], [2], [3]]

    def test_reference_input_first_column(self):
        u = Trajectory([0.91, 0.41, -0.53, -0.99, -0.65, 0.20, 0.87, 0.97, 0.32])
        H = hankel(u, 2)
        assert H.entries.shape == (2, 8)
        assert H.column(1).tolist() == [0.91, 0.41]

    def test_depth_exceeds_length(self):
        with pytest.raises(DepthExceedsLength):
            hankel(Trajectory([1, 2]), 3)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_an_argument_error(self, depth):
        w = Trajectory(np.arange(8.0).reshape(4, 2), m=1)
        with pytest.raises(InvalidArgument, match="depth must be >= 1"):
            hankel(w, depth)
        with pytest.raises(InvalidArgument):
            DataDrivenRep(w, depth)

    def test_block_structure(self):
        w = Trajectory(np.arange(12.0).reshape(6, 2), m=1)
        H = hankel(w, 3)
        q = w.q
        for i in range(1, H.depth):
            for j in range(H.columns - 1):
                assert np.array_equal(
                    H.entries[i * q : (i + 1) * q, j],
                    H.entries[(i - 1) * q : i * q, j + 1],
                )

    def test_columns_reproduce_restrictions_exactly(self):
        w = Trajectory(np.random.default_rng(7).normal(size=(9, 3)), m=2)
        for L in (1, 2, 4):
            H = hankel(w, L)
            for j in range(1, H.columns + 1):
                window = restrict(w, j, j + L - 1)
                assert H.column(j).tolist() == window.data.ravel().tolist()


class TestRestrictShift:
    def test_restrict_basic(self):
        assert restrict(Trajectory([1, 2, 3, 4]), 2, 3).data.ravel().tolist() == [2, 3]

    def test_restrict_identity(self):
        assert restrict(Trajectory([5]), 1, 1).data.ravel().tolist() == [5]

    def test_restrict_out_of_range(self):
        with pytest.raises(OutOfRange):
            restrict(Trajectory([1, 2]), 1, 3)

    def test_restrict_keeps_partition(self):
        w = Trajectory(np.zeros((4, 3)), m=2, labels=("a", "b", "c"))
        r = restrict(w, 2, 4)
        assert r.m == 2 and r.q == 3 and r.labels == ("a", "b", "c")

    def test_shift_basic(self):
        assert shift(Trajectory([1, 2, 3]), 1).data.ravel().tolist() == [2, 3]

    def test_shift_identity(self):
        assert shift(Trajectory([1, 2, 3]), 0).data.ravel().tolist() == [1, 2, 3]

    def test_shift_too_large(self):
        with pytest.raises(ShiftTooLarge):
            shift(Trajectory([1, 2]), 2)

    @given(
        values=st.lists(st.integers(-100, 100), min_size=1, max_size=12),
        a=st.integers(0, 11),
        b=st.integers(0, 11),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_composes(self, values, a, b):
        w = Trajectory(values)
        if a + b >= w.length:
            return
        lhs = shift(shift(w, a), b)
        rhs = shift(w, a + b)
        assert lhs.data.tolist() == rhs.data.tolist()


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3), 1e-10).rank == 3

    def test_rank_one(self):
        assert numerical_rank([[1, 1], [1, 1]], 1e-10).rank == 1

    def test_tolerance_cutoff_vs_exact_rank(self):
        M = [[1, 0], [0, 1e-14]]
        assert numerical_rank(M, 1e-10).rank == 1
        # the same matrix is exactly rank 2 over the rationals
        assert exactla.rank(M) == 2

    def test_default_tolerance_zero_matrix(self):
        result = numerical_rank(np.zeros((3, 3)))
        assert result.rank == 0

    def test_nonfinite_entry(self):
        with pytest.raises(NonFiniteEntry):
            numerical_rank([[np.inf, 0], [0, 1]])

    def test_bad_tolerance(self):
        # nan and inf would otherwise cut every singular value: rank 0
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                numerical_rank(np.eye(2), tol=tol)

    def test_permutation_invariance(self, rng):
        M = rng.normal(size=(5, 7))
        M[:, 3] = M[:, 0] + M[:, 1]  # force a deficiency
        base = numerical_rank(M).rank
        for _ in range(5):
            rp = rng.permutation(5)
            cp = rng.permutation(7)
            assert numerical_rank(M[np.ix_(rp, cp)]).rank == base

    def test_rank_bound_over_hankel(self, rng):
        w = Trajectory(rng.normal(size=(10, 2)), m=1)
        for L in range(1, 11):
            H = hankel(w, L)
            assert numerical_rank(H.entries).rank <= min(w.q * L, w.length - L + 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 25), st.integers(1, 400), st.booleans(), st.integers(0, 2))
    def test_either_orientation_gives_the_same_spectrum(self, seed, short, long, wide, kind):
        """A wide matrix is decomposed as its transpose: the rank and, to
        1e-13 sigma_1, the singular values of an SVD of the matrix itself, on
        wide and tall matrices of full rank and of products of thin factors."""
        rng = np.random.default_rng(seed)
        rows, cols = (short, long) if wide else (long, short)
        r = int(rng.integers(0, min(rows, cols) + 1))
        if kind == 0:
            M = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-5, 6)
        elif kind == 1:
            M = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
        else:
            M = (rng.integers(-3, 4, (rows, r)) @ rng.integers(-3, 4, (r, cols))).astype(float)
        got = numerical_rank(M)
        svals = np.linalg.svd(M, compute_uv=False)
        assert got.rank == trajectories.rank_of(svals, M.shape)
        assert np.max(np.abs(got.singular_values - svals)) <= 1e-13 * svals[0]


small_entry = st.integers(-3, 3)


@st.composite
def integer_systems(draw):
    """Small integer M and b: square, tall or wide, often rank deficient.

    Deficiency comes from overwriting rows or columns with copies or
    negations of others, which keeps every entry in [-3, 3].
    """
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.one_of(st.just(nrows), st.integers(1, 6)))
    M = [draw(st.lists(small_entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        s = draw(st.sampled_from([-1, 1]))
        M[dst] = [s * v for v in M[src]]
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        s = draw(st.sampled_from([-1, 1]))
        for row in M:
            row[dst] = s * row[src]
    if draw(st.booleans()):
        b = [row[0] - row[-1] for row in M]  # consistent by construction
    else:
        b = draw(st.lists(small_entry, min_size=nrows, max_size=nrows))
    return M, b


def float_rank(rows) -> int:
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float)))


class TestExactElimination:
    """exactla against float references on integer data, where both are exact."""

    @settings(max_examples=300, deadline=None)
    @given(integer_systems())
    def test_against_float_references(self, case):
        M, b = case
        nrows, ncols = len(M), len(M[0])
        r = float_rank(M)
        assert exactla.rank(M) == r
        null = null_space(M)
        assert len(null) == ncols - r
        for v in null:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in M)
        left = left_null_space(M)
        assert len(left) == nrows - r
        for v in left:
            assert all(sum(v[i] * M[i][j] for i in range(nrows)) == 0 for j in range(ncols))
        assert solvable(M, b) == (float_rank([row + [v] for row, v in zip(M, b)]) == r)

    def test_integer_rows_read_like_integer_floats_and_stay_unchanged(self):
        # Python ints skip the float bridge; the elimination must still work on copies
        M = [[2, 4, 6], [0, 0, 0], [3, -9, 0], [1, 2, 3]]
        given_rows = [list(row) for row in M]
        floats = [[float(v) for v in row] for row in M]
        assert exactla._integer_rows(M) == exactla._integer_rows(floats) == [
            [1, 2, 3], [0, 0, 0], [1, -3, 0], [1, 2, 3]
        ]
        assert exactla.rank(M) == 2 and null_space(M) == null_space(floats)
        assert M == given_rows


# -- reference: elimination over Fractions --------------------------------
#
# The rational forward elimination and back-substitution exactla ran before
# it moved to integer rows, kept as the oracle for bit-identical results.


def _ref_matrix(rows):
    # Fraction keeps a numpy int64 numerator, which overflows; go through int
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    return [[Fraction(x) for x in row] for row in rows]


def _ref_echelon(M):
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        top = M[r][c:]
        inv = 1 / top[0]
        for i in range(r + 1, nrows):
            row = M[i]
            if row[c]:
                f = row[c] * inv
                row[c:] = [a - f * b if b else a for a, b in zip(row[c:], top)]
        pivots.append(c)
    return pivots


def _ref_back_substitute(R, pivots, x, rhs):
    ncols = len(x)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        row = R[r]
        acc = rhs[r] - sum(row[j] * x[j] for j in range(c + 1, ncols) if row[j] and x[j])
        x[c] = acc / row[c]
    return x


def ref_rank(matrix):
    return len(_ref_echelon(_ref_matrix(matrix)))


def ref_null_space(matrix, ncols=None):
    M = _ref_matrix(matrix)
    if ncols is None:
        ncols = len(M[0])
    pivots = _ref_echelon(M)
    zeros = [Fraction(0)] * len(pivots)
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            basis.append(_ref_back_substitute(M, pivots, v, zeros))
    return basis


def ref_left_null_space(matrix):
    M = _ref_matrix(matrix)
    return ref_null_space([list(col) for col in zip(*M)], ncols=len(M))


def ref_solve(matrix, rhs):
    M = _ref_matrix(matrix)
    ncols = len(M[0])
    rhs = rhs.tolist() if isinstance(rhs, np.ndarray) else rhs
    augmented = [row + [Fraction(v)] for row, v in zip(M, rhs)]
    pivots = _ref_echelon(augmented)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    return _ref_back_substitute(augmented, pivots, x, [row[ncols] for row in augmented])


BIG = 2**40  # the benchmark's bound on integer samples
ENTRY_KINDS = {
    "small": small_entry,
    "big": st.one_of(
        st.just(0), st.builds(lambda s, k: s * BIG + k, st.sampled_from([-1, 1]), small_entry)
    ),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=12),
    "float": st.one_of(
        st.sampled_from([0.0, 0.1, -0.1, 2.0**-30, -(2.0**-30), 1.5, 1e-14]),
        small_entry.map(float),
    ),
}


@st.composite
def mixed_systems(draw):
    """M and b of one entry kind, as nested lists or numpy arrays.

    Shapes are square, tall or wide, and half are very tall (at least three
    rows per column), where ``_null_vectors`` eliminates a leading block first.
    Copied and negated rows and columns make many of them rank deficient,
    and zero or repeated leading rows make the leading block miss rows.
    """
    kind = draw(st.sampled_from(sorted(ENTRY_KINDS)))
    entry = ENTRY_KINDS[kind]
    if draw(st.booleans()):
        ncols = draw(st.integers(1, 4))
        nrows = draw(st.integers(3 * ncols, 3 * ncols + 3))
    else:
        nrows = draw(st.integers(1, 5))
        ncols = draw(st.one_of(st.just(nrows), st.integers(1, 5)))
    M = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        M[dst] = [-v for v in M[src]] if draw(st.booleans()) else list(M[src])
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        for row in M:
            row[dst] = -row[src]
    for i in range(draw(st.integers(0, min(nrows, ncols + 1)))):
        M[i] = [0 * v for v in M[i]] if draw(st.booleans()) else list(M[0])
    if draw(st.booleans()):
        b = [row[0] - row[-1] for row in M]
    else:
        b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    if kind in ("small", "big") and draw(st.booleans()):
        M, b = np.array(M, dtype=np.int64), np.array(b, dtype=np.int64)
    elif kind == "float" and draw(st.booleans()):
        M, b = np.array(M, dtype=np.float64), np.array(b, dtype=np.float64)
    return M, b


def all_fractions(vectors) -> bool:
    return all(type(v) is Fraction for vec in vectors for v in vec)


class TestIntegerRowElimination:
    """exactla on integer rows against the rational reference, entry for entry."""

    def test_matches_rational_reference(self, monkeypatch):
        passes = []
        null_basis = exactla._null_basis

        def counting(M, ncols):
            passes.append(len(M))
            return null_basis(M, ncols)

        monkeypatch.setattr(exactla, "_null_basis", counting)
        seen = set()

        @settings(max_examples=400, deadline=None)
        @given(mixed_systems())
        def check(case):
            M, b = case
            nrows, ncols = len(M), len(M[0])
            assert exactla.rank(M) == ref_rank(M)
            passes.clear()
            null = null_space(M)
            assert null == ref_null_space(M) and all_fractions(null)
            if nrows > ncols + 1:
                # the leading block's basis either covered every row or missed some
                seen.add("missed" if len(passes) == 2 else "verified" if null else "full rank")
            # each integer null vector comes out primitive, with no division
            assert all(gcd(*y) == 1 for y in exactla._null_vectors(M, ncols).values())
            left = left_null_space(M)
            assert left == ref_left_null_space(M) and all_fractions(left)
            # [M | b]'s basis holds (-x, 1) when M x = b is consistent
            augmented = [[*row, v] for row, v in zip(exactla._rows(M), exactla._rows(b))]
            assert null_space(augmented, ncols + 1) == ref_null_space(augmented, ncols + 1)
            assert solvable(M, b) == (ref_solve(M, b) is not None)

        check()
        assert {"missed", "verified"} <= seen

    def test_tall_rank_and_solve_take_the_block_route(self, monkeypatch):
        # zero leading rows leave the block's basis everything, so the rows
        # after it are missed and a second elimination settles the answer,
        # for M and for [M | b]
        passes = []
        null_basis = exactla._null_basis

        def counting(M, ncols):
            passes.append(len(M))
            return null_basis(M, ncols)

        monkeypatch.setattr(exactla, "_null_basis", counting)
        rng = np.random.default_rng(3)
        for ncols in (1, 2, 3, 4):
            for _ in range(5):
                A = rng.integers(-BIG, BIG, size=(ncols, ncols))
                if ncols > 1 and rng.integers(2):
                    A[-1] = A[0]  # rank deficient
                M = np.vstack([np.zeros((ncols + 2, ncols), np.int64), A, A])
                consistent = M @ rng.integers(-3, 4, size=ncols)
                inconsistent = consistent + (np.arange(len(M)) == len(M) - 1)
                for call, reference in (
                    (lambda: exactla.rank(M), lambda: ref_rank(M)),
                    (lambda: solvable(M, consistent), lambda: ref_solve(M, consistent) is not None),
                    (lambda: solvable(M, inconsistent), lambda: ref_solve(M, inconsistent) is not None),
                ):
                    passes.clear()
                    assert call() == reference()
                    assert len(passes) == 2
                assert not solvable(M, inconsistent)

    def test_a_wide_matrix_is_ranked_as_its_transpose(self, monkeypatch):
        # the ones-augmented depth-6 window matrix of a 2000-sample integer
        # record with two channels: as given, 1982 of its 1995 columns are
        # free and each would be back-substituted; its transpose has none
        data = np.random.default_rng(0).integers(-3, 4, size=(2000, 2))
        H = trajectories.window_matrix(data, 6)
        M = np.vstack([H, np.ones((1, H.shape[1]), np.int64)])
        assert M.shape == (13, 1995) and M.dtype == np.int64
        free = []
        null_vector = exactla._null_vector
        monkeypatch.setattr(exactla, "_null_vector", lambda R, p, c, w: free.append(c) or null_vector(R, p, c, w))
        assert exactla.rank(M) == exactla.rank(M[:, :40].tolist()) == 13
        assert free == []

    def test_column_count_comes_from_the_shape(self):
        # a 0 x n array has n unknowns; a shapeless empty list is 0 x 0
        empty = np.zeros((0, 3))
        assert solvable(empty, np.zeros(0))
        assert exactla.rank(empty) == 0 and len(null_space(empty)) == 3
        assert solvable([], []) and null_space([]) == [] and exactla.rank([]) == 0

    def test_numpy_int64_entries_do_not_overflow(self):
        # eliminating either system forms BIG * BIG - 1, beyond int64
        M = np.array([[BIG, 1], [1, BIG]], dtype=np.int64)
        assert exactla.rank(M) == exactla.rank([list(row) for row in M]) == 2
        # the null vector keyed by b's column is (-x, 1)
        assert null_space(np.column_stack([M, [BIG + 1, BIG + 1]])) == [[-1, -1, 1]]
        scalars = [list(row) for row in M]  # numpy scalars
        assert null_space([[*row, v] for row, v in zip(scalars, [np.int64(BIG - 1), np.int64(1 - BIG)])]) == [
            [-1, 1, 1]
        ]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_entry_is_typed(self, bad):
        M = [[1.0, bad], [0.0, 2.0]]
        for call in (
            lambda: exactla.rank(M),
            lambda: solvable(M, [1, 1]),
            lambda: solvable([[1, 0], [0, 1]], [bad, 1]),
            lambda: null_space(M),
            lambda: left_null_space(M),
            lambda: exactla.rank(np.array(M)),
            # past the leading block, whose basis is empty: read, not eliminated
            lambda: exactla.rank(np.array([[1.0], [0.0], [0.0], [bad]])),
            lambda: exactla.rank([[1.0, 0.0, 0.0, bad]]),  # ranked as its transpose
        ):
            with pytest.raises(NonFiniteEntry):
                call()


rational_entry = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@st.composite
def rational_systems(draw):
    """M (up to 8 x 8, possibly 0 x n) and b of rational entries.

    M is drawn whole, as a rank-deficient product L R', or sparse, so that
    rows often have a zero under a pivot; then zero rows and columns are
    written in.  Half the right-hand sides are M x, the rest mostly
    inconsistent when M is rank deficient.  The column count comes along,
    since a 0 x n list of rows does not carry it.
    """
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["whole", "product", "sparse"]))
    if shape == "product":
        k = draw(st.integers(0, max(min(nrows, ncols) - 1, 0)))
        L = [draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)) for _ in range(nrows)]
        R = [draw(st.lists(rational_entry, min_size=ncols, max_size=ncols)) for _ in range(k)]
        M = [[sum((a * R[t][j] for t, a in enumerate(row)), Fraction(0)) for j in range(ncols)] for row in L]
    else:
        entry = rational_entry if shape == "whole" else st.one_of(st.just(Fraction(0)), rational_entry)
        M = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in draw(st.lists(st.integers(0, max(nrows - 1, 0)), max_size=2)) if nrows else ():
        M[i] = [Fraction(0)] * ncols
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in M:
            row[j] = Fraction(0)
    if draw(st.booleans()):
        x = draw(st.lists(rational_entry, min_size=ncols, max_size=ncols))
        b = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in M]
    else:
        b = draw(st.lists(rational_entry, min_size=nrows, max_size=nrows))
    return M, b, ncols


class TestBareissElimination:
    """Bareiss elimination against the content-gcd elimination it replaced:
    integer rows differ, but every rank, pivot and canonical basis agrees."""

    @staticmethod
    def answers(M, b, ncols):
        # [M | b]'s basis holds (-x, 1) when M x = b is consistent
        augmented = [[*row, v] for row, v in zip(M, b)]
        return exactla.rank(M), null_space(M, ncols), null_space(augmented, ncols + 1), solvable(M, b)

    def test_matches_the_content_gcd_elimination(self, monkeypatch):
        seen = set()

        @settings(max_examples=400, deadline=None)
        @given(rational_systems())
        def check(case):
            bareiss = self.answers(*case)
            with monkeypatch.context() as patched:
                patched.setattr(exactla, "_echelon", echelon_reference)
                assert self.answers(*case) == bareiss
            M, _, ncols = case
            rank, _, _, consistent = bareiss
            seen.add("empty" if not M else "deficient" if rank < min(len(M), ncols) else "full")
            if not consistent:
                seen.add("inconsistent")
            if len(M) > ncols + 1:
                seen.add("tall")

        check()
        assert {"empty", "deficient", "full", "inconsistent", "tall"} <= seen

    def test_rows_are_scaled_under_a_zero(self):
        # row 1 has a zero under the first pivot, yet it is scaled by that pivot,
        # and the second step divides by it: the last pivot is the determinant
        M = [[2, 1, 0], [0, 3, 1], [4, 0, 5]]
        reference = [list(row) for row in M]
        assert exactla._echelon(M) == echelon_reference(reference) == [0, 1, 2]
        assert M == [[2, 1, 0], [0, 6, 2], [0, 0, 34]]
        assert reference == [[2, 1, 0], [0, 3, 1], [0, 0, 1]]  # primitive rows

