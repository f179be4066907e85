import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atisys import (
    AffineKernelRep,
    OffsetSequence,
    Poly,
    PolyMatrix,
    behavior_apply,
    consistent_constant,
    consistent_sequence,
    consistent_sequence_report,
    controllable_kernel,
    equivalent,
    lag_of,
    minimize,
    smith_form,
    syzygy_basis,
)
from atisys import exactla, kernelrep, polymatrix
from atisys.errors import AtisysError, DimensionMismatch, InconsistentRepresentation, WindowTooShort
from conftest import (
    left_null_space,
    popov_reduction_reference,
    random_poly_matrix,
    random_unimodular,
    row_hermite,
    weak_popov_degrees_reference,
)

X = Poly.x()


def deficient_matrix() -> PolyMatrix:
    return PolyMatrix([[X + 1, X, X + 2], [X * X - 1, X * X - X, X * X + X - 2]])


def full_rank_matrix() -> PolyMatrix:
    return PolyMatrix([[1, 0, 0], [0, Poly([1, -1]), 0]])


def consistent_offset(R: PolyMatrix, anchor) -> tuple:
    """Offset realized by the constant trajectory ``anchor``: c = R(1) anchor."""
    values = R.evaluate(Fraction(1))
    return tuple(sum(row[j] * Fraction(anchor[j]) for j in range(len(anchor))) for row in values)


class TestSyzygies:
    def test_deficient_generator(self):
        basis = syzygy_basis(deficient_matrix())
        assert len(basis) == 1
        lam = basis[0]
        # the module is spanned by [1-x, 1]: mutual exact division
        unit = lam[1]
        assert unit.is_constant and not unit.is_zero
        assert lam[0] == unit * Poly([1, -1])

    def test_full_row_rank_empty(self):
        assert syzygy_basis(full_rank_matrix()) == []

    def test_duplicated_row(self):
        row = [X + 1, X, X + 2]
        basis = syzygy_basis(PolyMatrix([row, row]))
        assert len(basis) == 1
        lam = basis[0]
        assert (lam[0] + lam[1]).is_zero  # spans [1, -1]

    def test_rows_annihilate_exactly(self, rng):
        for _ in range(20):
            R = random_poly_matrix(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            if R.is_zero:
                continue
            for lam in syzygy_basis(R):
                product = PolyMatrix([lam]) @ R
                assert product.is_zero


class TestConsistencyConstant:
    def test_worked_false_case(self):
        assert not consistent_constant(AffineKernelRep(deficient_matrix(), (0, 1)))

    def test_full_row_rank_always_consistent(self, rng):
        for _ in range(10):
            c = tuple(int(v) for v in rng.integers(-5, 6, size=2))
            assert consistent_constant(AffineKernelRep(full_rank_matrix(), c))

    def test_zero_offset_always_consistent(self, rng):
        for _ in range(10):
            R = random_poly_matrix(rng, 2, 3)
            assert consistent_constant(AffineKernelRep(R, (0, 0)))

    def test_constructed_consistent_offset(self):
        c = consistent_offset(deficient_matrix(), [1, 2, -1])
        assert consistent_constant(AffineKernelRep(deficient_matrix(), c))


class TestConsistencySequence:
    def test_worked_true_case(self):
        c = OffsetSequence(
            tuple((Fraction((-1) ** t), Fraction(-2 * (-1) ** t)) for t in range(1, 7))
        )
        report = consistent_sequence_report(deficient_matrix(), c)
        assert report.consistent and report.certified
        assert report.syzygy_degree == 1

    def test_worked_false_case(self):
        c = OffsetSequence.constant([0, 1], 6)
        assert not consistent_sequence(deficient_matrix(), c)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            consistent_sequence(deficient_matrix(), OffsetSequence.constant([0, 0], 2))

    def test_agreement_with_constant_oracle(self, rng):
        # dual-route check on random instances, half with forced deficiency
        checked = 0
        for k in range(200):
            g = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            if k % 2:
                R = random_poly_matrix(rng, g, q, max_degree=2)
            else:
                base = random_poly_matrix(rng, 1, q, max_degree=1)
                mults = random_poly_matrix(rng, g, 1, max_degree=1)
                R = mults @ base
            if R.is_zero:
                continue
            c = tuple(int(v) for v in rng.integers(-3, 4, size=g))
            rep = AffineKernelRep(R, c)
            delta = max(
                (max(e.degree for e in lam) for lam in syzygy_basis(R)), default=-1
            )
            T = max(R.degree + 1, delta + 1)
            seq = OffsetSequence.constant(c, T)
            assert consistent_constant(rep) == consistent_sequence(R, seq)
            checked += 1
        assert checked >= 190


def block_toeplitz(R: PolyMatrix, window: int) -> list[list[Fraction]]:
    """Constant matrix acting on w(1..window+d) that stacks R(sigma) w over
    t = 1..window, with d = deg R."""
    g, q = R.shape
    d = R.degree
    blocks = R.coefficient_blocks()
    M = [[Fraction(0)] * (q * (window + d)) for _ in range(g * window)]
    for t in range(window):
        for k, block in enumerate(blocks):
            for i in range(g):
                for j in range(q):
                    M[t * g + i][(t + k) * q + j] = block[i][j]
    return M


def solvable(matrix, rhs) -> bool:
    """Whether M x = b has a solution: the Toeplitz-solve oracle."""
    return exactla.solve(matrix, rhs) is not None


small_int = st.integers(-3, 3)
small_poly = st.lists(small_int, min_size=1, max_size=3).map(Poly)


@st.composite
def small_matrices(draw):
    """Small integer R, often rank deficient."""
    g = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    rows = [draw(st.lists(small_poly, min_size=q, max_size=q)) for _ in range(g)]
    if g > 1 and draw(st.booleans()):
        # the last row is a polynomial combination of the others
        mults = draw(st.lists(small_poly, min_size=g - 1, max_size=g - 1))
        rows[-1] = list((PolyMatrix([mults]) @ PolyMatrix(rows[:-1])).rows[0])
    return PolyMatrix(rows)


@st.composite
def kernel_windows(draw):
    """Small integer R, often rank deficient, with a consistent or perturbed window."""
    R = draw(small_matrices())
    g, q = R.shape
    T = draw(st.integers(R.degree + 1, R.degree + 4))
    w = draw(st.lists(small_int, min_size=q * (T + R.degree), max_size=q * (T + R.degree)))
    c = [sum(a * b for a, b in zip(row, w)) for row in block_toeplitz(R, T)]
    if draw(st.booleans()):
        c[draw(st.integers(0, g * T - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    return R, OffsetSequence(tuple(tuple(c[t * g : (t + 1) * g]) for t in range(T)))


class TestConsistencyElimination:
    @settings(max_examples=150, deadline=None)
    @given(kernel_windows())
    def test_matches_two_rank_oracle(self, case):
        R, seq = case
        M = block_toeplitz(R, seq.length)
        rhs = [v for row in seq.values for v in row]
        augmented = [row + [v] for row, v in zip(M, rhs)]
        oracle = exactla.rank(M) == exactla.rank(augmented)
        assert consistent_sequence_report(R, seq).consistent == oracle


def toeplitz_null_increments(R: PolyMatrix, depth: int) -> list[int]:
    """dim left-null(M_N) - dim left-null(M_(N-1)) for N = 1..depth.

    A left null vector of the depth-N block-Toeplitz matrix is a syzygy of
    degree at most N-1, so for a minimal basis the N-th increment counts the
    generators of degree at most N-1.
    """
    g = R.shape[0]
    dims = [0] + [g * N - exactla.rank(block_toeplitz(R, N)) for N in range(1, depth + 1)]
    return [b - a for a, b in zip(dims, dims[1:])]


class TestSyzygyFilter:
    """The minimal-syzygy window filter against the block-Toeplitz solve."""

    def test_matches_toeplitz_solve(self):
        seen = set()

        @settings(max_examples=200, deadline=None)
        @given(kernel_windows())
        def check(case):
            R, seq = case
            rhs = [v for row in seq.values for v in row]
            verdict = solvable(block_toeplitz(R, seq.length), rhs)
            assert consistent_sequence_report(R, seq).consistent == verdict
            seen.add(verdict)

        check()
        assert seen == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(small_matrices())
    def test_basis_is_minimal(self, R):
        basis = syzygy_basis(R)
        assert len(basis) == R.shape[0] - R.rank()
        for lam in basis:
            assert (PolyMatrix([lam]) @ R).is_zero
        if not basis:
            return
        degrees = [max(e.degree for e in lam) for lam in basis]
        # row proper: the leading row-coefficient matrix has full row rank
        leading = [[e.coefficient(d) for e in lam] for lam, d in zip(basis, degrees)]
        assert exactla.rank(leading) == len(basis)
        # the degrees are the ones the Toeplitz null dimensions force
        increments = toeplitz_null_increments(R, max(degrees) + 2)
        assert increments == [
            sum(d <= N - 1 for d in degrees) for N in range(1, max(degrees) + 3)
        ]
        # a window certifies from one sample past the largest minimal degree on
        delta, zero = max(degrees), [0] * R.shape[0]
        for T in range(R.degree + 1, delta + 3):
            report = consistent_sequence_report(R, OffsetSequence.constant(zero, T))
            assert report.syzygy_degree == delta and report.certified == (T >= delta + 1)

    def test_long_window(self):
        # a 3x3 rank-2 R of degree 4 whose syzygy [a, b, -1] has degree 3
        r1 = [X + 1, X - 2, Poly([3])]
        r2 = [Poly([1]), 2 * X + 1, X - 1]
        a, b = Poly([1, -1, 0, 2]), Poly([2, 0, 1, -1])
        R = PolyMatrix([r1, r2, [a * u + b * v for u, v in zip(r1, r2)]])
        rng = np.random.default_rng(5)
        T = 1000
        w = rng.integers(-3, 4, size=(T + R.degree, 3)).tolist()
        blocks = R.coefficient_blocks()
        c = [
            [
                sum(blocks[k][i][j] * w[t + k][j] for k in range(len(blocks)) for j in range(3))
                for i in range(3)
            ]
            for t in range(T)
        ]
        good = consistent_sequence_report(R, OffsetSequence(tuple(map(tuple, c))))
        assert good == (True, True, 3, T)
        c[T - 1][0] += 1  # only the last shift of the filter sees this sample
        assert not consistent_sequence(R, OffsetSequence(tuple(map(tuple, c))))


class TestMinimize:
    def test_worked_reduction(self):
        c = consistent_offset(deficient_matrix(), [1, 2, -1])
        reduced = minimize(AffineKernelRep(deficient_matrix(), c))
        assert reduced.g == 1
        assert reduced.R.shape == (1, 3)

    def test_already_minimal_unchanged_up_to_normalization(self):
        rep = AffineKernelRep(full_rank_matrix(), (3, 4))
        reduced = minimize(rep)
        assert reduced.g == 2
        assert equivalent(rep, reduced)

    def test_zero_row_dropped(self):
        R = PolyMatrix([[X, 1], [0, 0]])
        reduced = minimize(AffineKernelRep(R, (5, 0)))
        assert reduced.g == 1

    def test_inconsistent_detected(self):
        with pytest.raises(InconsistentRepresentation):
            minimize(AffineKernelRep(deficient_matrix(), (0, 1)))


class TestEquivalent:
    def test_unimodular_invariance(self, rng):
        for _ in range(20):
            g = int(rng.integers(1, 3))
            q = int(rng.integers(g, 4))
            R = random_poly_matrix(rng, g, q, max_degree=2)
            anchor = [int(v) for v in rng.integers(-3, 4, size=q)]
            c = consistent_offset(R, anchor)
            U = random_unimodular(rng, g)
            u_at_one = U.evaluate(Fraction(1))
            c2 = tuple(
                sum(u_at_one[i][j] * c[j] for j in range(g)) for i in range(g)
            )
            rep1 = AffineKernelRep(R, c)
            rep2 = AffineKernelRep(U @ R, c2)
            assert equivalent(rep1, rep2)

    def test_offset_change_detected(self):
        R = full_rank_matrix()
        assert not equivalent(AffineKernelRep(R, (1, 2)), AffineKernelRep(R, (1, 3)))

    def test_appended_zero_row(self):
        R = PolyMatrix([[X, 1]])
        padded = PolyMatrix([[X, 1], [0, 0]])
        assert equivalent(AffineKernelRep(R, (2,)), AffineKernelRep(padded, (2, 0)))

    def test_inconsistent_inputs_rejected(self):
        good = AffineKernelRep(full_rank_matrix(), (0, 0))
        bad = AffineKernelRep(deficient_matrix(), (0, 1))
        with pytest.raises(InconsistentRepresentation):
            equivalent(good, bad)

    def test_is_an_equivalence_relation(self, rng):
        for _ in range(10):
            q = 3
            R = random_poly_matrix(rng, 2, q, max_degree=1)
            c = consistent_offset(R, [1, -1, 2])
            rep = AffineKernelRep(R, c)
            us = [random_unimodular(rng, 2) for _ in range(2)]
            reps = [rep]
            for U in us:
                u1 = U.evaluate(Fraction(1))
                c_new = tuple(sum(u1[i][j] * reps[-1].c[j] for j in range(2)) for i in range(2))
                reps.append(AffineKernelRep(U @ reps[-1].R, c_new))
            assert equivalent(reps[0], reps[0])
            assert equivalent(reps[0], reps[1]) and equivalent(reps[1], reps[0])
            if equivalent(reps[0], reps[1]) and equivalent(reps[1], reps[2]):
                assert equivalent(reps[0], reps[2])


@st.composite
def deficient_kernels(draw):
    """Small integer R whose last row is a polynomial combination of the
    others, with the offset of a constant trajectory, often perturbed."""
    g = draw(st.integers(2, 3))
    q = draw(st.integers(1, 3))
    rows = [draw(st.lists(small_poly, min_size=q, max_size=q)) for _ in range(g - 1)]
    mults = draw(st.lists(small_poly, min_size=g - 1, max_size=g - 1))
    rows.append(list((PolyMatrix([mults]) @ PolyMatrix(rows)).rows[0]))
    R = PolyMatrix(rows)
    c = list(consistent_offset(R, draw(st.lists(small_int, min_size=q, max_size=q))))
    if draw(st.booleans()):
        c[draw(st.integers(0, g - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    return AffineKernelRep(R, tuple(c))


class TestEquivalentConsistency:
    @settings(max_examples=150, deadline=None)
    @given(deficient_kernels())
    def test_rejects_exactly_the_inconsistent(self, rep):
        # minimize's zero-row offsets carry the syzygy constraints lambda(1) c = 0
        if consistent_constant(rep):
            assert equivalent(rep, rep)
        else:
            with pytest.raises(
                InconsistentRepresentation,
                match=r"^equivalence is defined for consistent representations$",
            ):
                equivalent(rep, rep)


def exact_answers(rep: AffineKernelRep) -> list:
    """Every exact procedure's answer on rep; a raised error counts by its type."""
    window = OffsetSequence.constant(rep.c, rep.degree + 2)
    calls = [
        lambda: syzygy_basis(rep.R),
        lambda: consistent_constant(rep),
        lambda: minimize(rep),
        lambda: equivalent(rep, rep),
        lambda: lag_of(rep),
        lambda: controllable_kernel(rep),
        lambda: consistent_sequence_report(rep.R, window),
    ]
    answers = []
    for call in calls:
        try:
            answers.append(call())
        except AtisysError as exc:
            answers.append(type(exc))
    return answers


class TestReductionMemo:
    """Each matrix instance is reduced once, and the memo never changes an answer."""

    def test_one_reduction_per_instance(self, monkeypatch):
        reduced = []
        reduce = polymatrix._reduce

        def counting(matrix):
            reduced.append(matrix)
            return reduce(matrix)

        monkeypatch.setattr(polymatrix, "_reduce", counting)
        R = deficient_matrix()
        rep = AffineKernelRep(R, consistent_offset(R, [1, 2, -1]))
        small = minimize(rep)
        for _ in range(2):
            for kernel in (rep, small):
                exact_answers(kernel)
                assert equivalent(kernel, small) and equivalent(rep, kernel)
        # the two kernels' matrices; the matrices that minimize returns and the
        # transposes controllable_kernel reduces are never kept
        instances = [rep.R, small.R]
        assert len(reduced) == len(instances)
        assert all(any(m is instance for m in reduced) for instance in instances)

    def test_one_minimal_form_per_rep(self, monkeypatch):
        minimized = []
        body = kernelrep._minimal_form

        def counting(rep):
            minimized.append(rep)
            return body(rep)

        monkeypatch.setattr(kernelrep, "_minimal_form", counting)
        R = deficient_matrix()
        rep = AffineKernelRep(R, consistent_offset(R, [1, 2, -1]))
        other = AffineKernelRep(PolyMatrix(R.rows), rep.c)
        assert minimize(rep) is minimize(rep)
        assert equivalent(rep, other) and equivalent(other, rep)
        assert lag_of(rep) == lag_of(other) == 1
        assert controllable_kernel(rep) and controllable_kernel(other)
        assert [id(r) for r in minimized] == [id(rep), id(other)]

    def test_copies_carry_no_minimal_form(self):
        R = deficient_matrix()
        rep = AffineKernelRep(R, consistent_offset(R, [1, 2, -1]))
        small = minimize(rep)
        for duplicate in (copy.copy(rep), copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
            assert duplicate == rep and hash(duplicate) == hash(rep)
            assert duplicate._minimal is None
            assert minimize(duplicate) == small and minimize(duplicate) is not small
        assert repr(rep) == repr(copy.copy(rep))

    def test_inconsistent_rep_raises_on_every_call(self, monkeypatch):
        calls = []
        body = kernelrep._minimal_form
        monkeypatch.setattr(kernelrep, "_minimal_form", lambda rep: calls.append(rep) or body(rep))
        rep = AffineKernelRep(deficient_matrix(), (0, 1))
        for _ in range(2):
            for decision in (minimize, lag_of, controllable_kernel, lambda r: equivalent(r, r)):
                with pytest.raises(InconsistentRepresentation):
                    decision(rep)
        assert len(calls) == 8 and rep._minimal is None

    def test_returned_basis_is_the_callers(self):
        R = deficient_matrix()
        basis = syzygy_basis(R)
        expected = list(basis)
        basis.append(basis[0])
        basis[0] = (X, X, X)
        assert syzygy_basis(R) == expected
        assert syzygy_basis(R) is not syzygy_basis(R)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            deficient_kernels(),
            small_matrices().map(lambda R: AffineKernelRep(R, (1,) * R.shape[0])),
        )
    )
    def test_memoised_and_fresh_agree(self, rep):
        first = exact_answers(rep)
        assert exact_answers(rep) == first  # answered from the memo
        fresh = AffineKernelRep(PolyMatrix(rep.R.rows), rep.c)
        assert fresh.R._reduced is None
        assert exact_answers(fresh) == first


@st.composite
def consistent_kernels(draw):
    """Small integer R, often rank deficient, with the offset of a constant trajectory."""
    R = draw(small_matrices())
    q = R.shape[1]
    return AffineKernelRep(R, consistent_offset(R, draw(st.lists(small_int, min_size=q, max_size=q))))


kernels = st.one_of(deficient_kernels(), consistent_kernels())


def mapped(rep: AffineKernelRep, U: PolyMatrix) -> AffineKernelRep:
    """(U R, U(1) c): the same trajectory set when U is unimodular."""
    u1 = U.evaluate(Fraction(1))
    return AffineKernelRep(U @ rep.R, tuple(sum(a * b for a, b in zip(row, rep.c)) for row in u1))


def row_proper(rows: list[list[Poly]]) -> list[list[Poly]]:
    """Reference: make rows of full row rank row proper by unimodular row operations.

    While the leading row-coefficient matrix is rank deficient, a combination
    of rows cancels the leading terms of the highest-degree row in its
    support, strictly lowering that row's degree; the other rows enter with
    polynomial factors, so the rows keep spanning the same module.  On exit
    the leading row-coefficient matrix has full row rank.
    """
    rows = [list(r) for r in rows]
    while rows:
        degrees = [max(e.degree for e in row) for row in rows]
        leading = [[e.coefficient(deg) for e in row] for row, deg in zip(rows, degrees)]
        null = left_null_space(leading)
        if not null:
            break
        alpha = null[0]
        support = [i for i, a in enumerate(alpha) if a != 0]
        j = max(support, key=lambda i: degrees[i])
        scale = 1 / alpha[j]
        new_row = list(rows[j])
        for i in support:
            if i != j:
                factor = Poly([alpha[i] * scale]).shift(degrees[j] - degrees[i])
                new_row = [a + factor * b for a, b in zip(new_row, rows[i])]
        rows[j] = new_row
    return rows


def leading_position(row) -> int:
    degree = max(e.degree for e in row)
    return max(j for j, e in enumerate(row) if e.degree == degree)


def is_popov(R: PolyMatrix) -> bool:
    """Monic leading entries in increasing columns, each of higher degree
    than every other entry of its column."""
    positions = [leading_position(row) for row in R.rows]
    if any(a >= b for a, b in zip(positions, positions[1:])):
        return False
    for i, j in enumerate(positions):
        pivot = R.rows[i][j]
        if pivot.leading_coefficient != 1:
            return False
        if any(row[j].degree >= pivot.degree for k, row in enumerate(R.rows) if k != i):
            return False
    return True


class TestReductionOracles:
    """The weak Popov reduction against Hermite, Smith and row-proper references."""

    def test_consistency_and_module_match_hermite(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(kernels)
        def check(rep):
            # the Hermite transform's rows against zero rows of U R span the syzygies
            reference = row_hermite(rep.R)
            offsets = [sum(u * v for u, v in zip(row, rep.c)) for row in reference.U.evaluate(1)]
            consistent = not any(offsets[reference.rank :])
            assert consistent_constant(rep) == consistent
            seen.add(consistent)
            if consistent:
                reduced = minimize(rep)
                assert reduced.g == reference.rank
                kept = row_hermite(reduced.R).H.rows
                assert kept == reference.H.rows[: reference.rank]

        check()
        assert seen == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(consistent_kernels(), st.integers(0, 2**32 - 1))
    def test_minimize_is_canonical_popov(self, rep, seed):
        U = random_unimodular(np.random.default_rng(seed), rep.g)
        reduced = minimize(rep)
        image = minimize(mapped(rep, U))
        assert image.R == reduced.R and image.c == reduced.c
        assert is_popov(reduced.R)

    def test_controllable_matches_smith(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(consistent_kernels())
        def check(rep):
            R = minimize(rep).R
            constant = R.shape[0] == 0 or all(f.is_constant for f in smith_form(R).invariant_factors)
            assert controllable_kernel(rep) == constant
            seen.add(constant)

        check()
        assert seen == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(consistent_kernels())
    def test_lag_matches_row_proper_hermite(self, rep):
        reference = row_hermite(rep.R)
        rows = row_proper(reference.H.rows[: reference.rank])
        assert lag_of(rep) == max((max(e.degree for e in row) for row in rows), default=0)

    def test_ten_by_ten_probe(self):
        # R = L R' with L 10x8 of degree <= 1 and R' 8x10 of degree <= 2, whose
        # Hermite transform reaches degree 87 with 2279-bit coefficients
        rng = np.random.default_rng(3)
        R = random_poly_matrix(rng, 10, 8, max_degree=1) @ random_poly_matrix(rng, 8, 10, max_degree=2)
        rank = R.rank()
        assert rank == 8
        basis = syzygy_basis(R)
        assert len(basis) == R.shape[0] - rank
        assert all((PolyMatrix([lam]) @ R).is_zero for lam in basis)
        rep = AffineKernelRep(R, consistent_offset(R, [1, -2, 0, 3, 1, -1, 2, 0, -3, 1]))
        assert minimize(rep).g == rank
        assert consistent_constant(rep)


def l_times_r(seed: int) -> PolyMatrix:
    """L R' with L size x (size - 2) and R' (size - 2) x size: rank deficient,
    with large transforms; size 10 for seed 3 up to 16 for seed 6."""
    rng = np.random.default_rng(seed)
    size = 2 * seed + 4
    return random_poly_matrix(rng, size, size - 2, max_degree=1) @ random_poly_matrix(
        rng, size - 2, size, max_degree=2
    )


class TestIntegerRowReduction:
    """The integer-row reduction against the reduction on rows of rational polynomials."""

    @staticmethod
    def assert_matches_reference(R: PolyMatrix):
        assert R.popov_reduction() == popov_reduction_reference(R)
        for M in (R, R.transpose()):
            assert M.weak_popov_degrees() == weak_popov_degrees_reference(M)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(small_matrices(), kernels.map(lambda rep: rep.R)))
    def test_matches_reference_on_small_matrices(self, R):
        self.assert_matches_reference(R)

    @settings(max_examples=100, deadline=None)
    @given(kernels)
    def test_matches_reference_on_minimal_forms(self, rep):
        if consistent_constant(rep):
            self.assert_matches_reference(minimize(rep).R)

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_matches_reference_on_products(self, seed):
        self.assert_matches_reference(l_times_r(seed))

    def test_matches_reference_on_ten_by_ten_probe(self):
        rng = np.random.default_rng(3)
        R = random_poly_matrix(rng, 10, 8, max_degree=1) @ random_poly_matrix(rng, 8, 10, max_degree=2)
        self.assert_matches_reference(R)

    def test_rational_rows_and_empty_shapes(self):
        for R in (
            PolyMatrix([[Poly(["1/2", 1]), Poly(["-2/3"])], [Poly([1, 2]), Poly([0, "3/4"])]]),
            PolyMatrix([[Poly(["1/2"]), Poly([1, "1/3"])], [Poly([1]), Poly([2, "2/3"])]]),
            PolyMatrix.zeros(2, 3),
            PolyMatrix([], ncols=2),
            PolyMatrix.zeros(2, 0),
        ):
            self.assert_matches_reference(R)


class TestBehaviorApply:
    def test_increment_law_zero_residual(self):
        rep = AffineKernelRep(PolyMatrix([[Poly([-1, 1])]]), (1,))
        assert behavior_apply(rep, np.array([3.0, 4.0, 5.0])).ravel().tolist() == [0.0, 0.0]

    def test_increment_law_violation(self):
        rep = AffineKernelRep(PolyMatrix([[Poly([-1, 1])]]), (1,))
        assert behavior_apply(rep, np.array([3.0, 4.0, 6.0])).ravel().tolist() == [0.0, 1.0]

    def test_flat_window_is_read_sample_by_sample(self):
        # w1(t+1) - w1(t) - w2(t) = 0 on the samples (0, 1), (1, 2), (3, 0)
        rep = AffineKernelRep(PolyMatrix([[Poly([-1, 1]), Poly([-1])]]), (0,))
        flat = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 0.0])
        assert behavior_apply(rep, flat).tolist() == [[0.0], [0.0]]
        assert behavior_apply(rep, flat + [0, 0, 0, 0, 1, 0]).tolist() == [[0.0], [1.0]]
        with pytest.raises(DimensionMismatch):
            behavior_apply(rep, flat[:5])

    def test_window_too_short(self):
        rep = AffineKernelRep(PolyMatrix([[Poly([-1, 0, 1])]]), (0,))
        with pytest.raises(WindowTooShort):
            behavior_apply(rep, np.array([1.0, 2.0]))

    def test_zero_residual_survives_minimization(self):
        # dependent rows carry no extra information: a window satisfying the
        # padded representation satisfies its minimized form exactly
        R = PolyMatrix([[Poly([-1, 1]), 0], [Poly([-2, 2]), 0]])
        rep = AffineKernelRep(R, (1, 2))
        w = np.array([[3.0, 9.0], [4.0, 7.0], [5.0, 5.0]])
        assert np.allclose(behavior_apply(rep, w), 0.0)
        reduced = minimize(rep)
        assert np.allclose(behavior_apply(reduced, w), 0.0)

    def test_matches_sample_loop(self, rng):
        # reference: sum_k R_k w(t+k) - c accumulated sample by sample; the
        # product sums in another order, so agreement is to rounding only
        for _ in range(20):
            g, q = (int(v) for v in rng.integers(1, 4, size=2))
            R = random_poly_matrix(rng, g, q)
            c = tuple(int(v) for v in rng.integers(-3, 4, size=g))
            w = rng.normal(size=(R.degree + 1 + int(rng.integers(0, 5)), q))
            blocks = [np.array(block, dtype=float) for block in R.coefficient_blocks()]
            expected = [
                sum(B @ w[t + k] for k, B in enumerate(blocks)) - np.array(c, dtype=float)
                for t in range(len(w) - R.degree)
            ]
            got = behavior_apply(AffineKernelRep(R, c), w)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_residual_preserved_by_unimodular_maps(self, rng):
        # windows satisfying (R, c) satisfy (U R, U(1) c) for any polynomial U
        R = PolyMatrix([[Poly([-1, 1]), 0], [0, Poly([-2, 1])]])
        c = (1, 0)
        rep = AffineKernelRep(R, c)
        w = np.array([[3.0, 1.0], [4.0, 2.0], [5.0, 4.0], [6.0, 8.0]])
        assert np.allclose(behavior_apply(rep, w), 0.0)
        for _ in range(5):
            U = random_unimodular(rng, 2)
            u1 = U.evaluate(Fraction(1))
            c2 = tuple(sum(u1[i][j] * Fraction(c[j]) for j in range(2)) for i in range(2))
            mapped = AffineKernelRep(U @ R, c2)
            if w.shape[0] >= mapped.degree + 1:
                assert np.allclose(behavior_apply(mapped, w), 0.0, atol=1e-9)


class TestControllableKernel:
    def test_increment_law_not_controllable(self):
        rep = AffineKernelRep(PolyMatrix([[Poly([-1, 1])]]), (1,))
        assert not controllable_kernel(rep)

    def test_coprime_row_controllable(self):
        rep = AffineKernelRep(PolyMatrix([[1, X]]), (0,))
        assert controllable_kernel(rep)

    def test_common_root_not_controllable(self):
        rep = AffineKernelRep(PolyMatrix([[X, 0], [0, X]]), (0, 0))
        assert not controllable_kernel(rep)


class TestLag:
    def test_increment_law(self):
        assert lag_of(AffineKernelRep(PolyMatrix([[Poly([-1, 1])]]), (1,))) == 1

    def test_unimodular_matrix_pins_single_trajectory(self):
        # det = 1: the representation solves uniquely, so the lag is 0
        R = PolyMatrix([[1, X], [X, X * X + 1]])
        rep = AffineKernelRep(R, consistent_offset(R, [2, 3]))
        assert lag_of(rep) == 0

    def test_dependent_row_dropped_before_reading_the_degree(self):
        # second row = x * first row: the minimized single row has degree 1
        R = PolyMatrix([[1, X], [X, X * X]])
        rep = AffineKernelRep(R, (2, 2))
        reduced = minimize(rep)
        assert reduced.g == 1
        assert lag_of(rep) == 1

    def test_row_combination_hides_lower_degree(self):
        # rows (x^2, x^2 + x) reduce to degrees (2, 1) in row-proper form
        R = PolyMatrix([[X * X, 0], [X * X, X]])
        rep = AffineKernelRep(R, (0, 0))
        assert lag_of(rep) == 2
        R2 = PolyMatrix([[X * X, X], [X * X, 0]])
        assert lag_of(AffineKernelRep(R2, (0, 0))) == 2
