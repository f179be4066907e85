import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atisys import (
    Trajectory,
    gape_check,
    gape_report,
    hankel,
    max_pe_order,
    min_data_length,
    numerical_rank,
    pe_order_affine,
    pe_order_linear,
    pe_profile,
    sampling_gap,
)
from atisys import excitation
from atisys.errors import DepthExceedsLength, DimensionMismatch, InvalidArgument
from atisys.scenario import reference_input, reference_system
from atisys import restrict, simulate

ALTERNATING = Trajectory.inputs([1, 2, 1, 2, 1, 2])


class TestLinearPE:
    def test_alternating_orders(self):
        # the alternating sequence has only two distinct windows per depth,
        # so the rank saturates at 2: exciting up to order 2 and no further
        assert pe_order_linear(ALTERNATING, 1)
        assert pe_order_linear(ALTERNATING, 2)
        assert not pe_order_linear(ALTERNATING, 3)

    def test_too_few_columns_forces_failure(self):
        assert not pe_order_linear(ALTERNATING, 4)

    def test_constant_order_one(self):
        assert pe_order_linear(Trajectory.inputs([1, 1, 1, 1, 1]), 1)

    def test_requires_input_sequence(self):
        w = Trajectory(np.ones((4, 2)), m=1)
        with pytest.raises(DimensionMismatch):
            pe_order_linear(w, 1)

    def test_depth_error_propagates(self):
        with pytest.raises(DepthExceedsLength):
            pe_order_linear(ALTERNATING, 7)


class TestAffinePE:
    def test_alternating_orders(self):
        # even-length windows of the alternating sequence share their sum,
        # which is an affine dependency, so the affine order stops at 1
        assert pe_order_affine(ALTERNATING, 1)
        assert not pe_order_affine(ALTERNATING, 2)
        assert not pe_order_affine(ALTERNATING, 3)

    def test_constant_fails_affine(self):
        assert not pe_order_affine(Trajectory.inputs([1, 1, 1, 1, 1]), 1)

    def test_reference_input_two(self):
        # two sinusoids without a constant component, all 8 printed samples
        assert pe_order_affine(reference_input("experiment-2"), 4)


class TestMaxOrder:
    def test_alternating(self):
        assert max_pe_order(ALTERNATING, "linear") == 2
        assert max_pe_order(ALTERNATING, "affine") == 1

    def test_zero_sequence(self):
        assert max_pe_order(Trajectory.inputs([0, 0, 0, 0]), "linear") == 0

    def test_random_scalar_reaches_bound(self, rng):
        # a length-9 generic scalar sequence is exciting up to order 5,
        # where the Hankel matrix is square, and cannot go further
        hits = 0
        for _ in range(20):
            u = Trajectory.inputs(rng.uniform(-1, 1, size=9))
            if max_pe_order(u, "linear") == 5:
                hits += 1
        assert hits == 20

    def test_equals_first_failure_of_profile(self, rng):
        # small alphabets and periodic pieces make the first failure land at
        # varying orders, including order 1 and none at all
        for _ in range(30):
            T = int(rng.integers(2, 12))
            m = int(rng.integers(1, 3))
            for data in (
                rng.integers(-1, 2, size=(T, m)).astype(float),
                rng.normal(size=(T, m)),
                np.tile(rng.normal(size=(2, m)), (T, 1))[:T],
            ):
                u = Trajectory.inputs(data)
                for model_class in ("linear", "affine"):
                    profile = pe_profile(u, model_class)
                    first_fail = profile.index(False) if False in profile else len(profile)
                    assert max_pe_order(u, model_class) == first_fail

    @settings(max_examples=400, deadline=None)
    @given(
        T=st.integers(1, 60),
        m=st.integers(1, 3),
        kind=st.sampled_from(["integer", "periodic", "normal", "offset"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_profile_scan(self, T, m, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "integer":
            data = rng.integers(-1, 2, size=(T, m)).astype(float)
        elif kind == "periodic":
            period = int(rng.integers(1, 6))
            data = np.tile(rng.normal(size=(period, m)), (T // period + 1, 1))[:T]
        elif kind == "normal":
            data = rng.normal(size=(T, m))
        else:
            data = 1e3 + 1e-3 * rng.integers(-2, 3, size=(T, m))
        u = Trajectory.inputs(data)
        for model_class in ("linear", "affine"):
            profile = pe_profile(u, model_class)
            first_fail = profile.index(False) if False in profile else len(profile)
            assert max_pe_order(u, model_class) == first_fail

    @pytest.mark.parametrize("model_class", ["linear", "affine"])
    @pytest.mark.parametrize("T,m", [(1, 1), (2, 1), (9, 1), (40, 2), (61, 3), (200, 1)])
    def test_rank_tests_bounded_by_bisection(self, monkeypatch, model_class, T, m):
        calls = []
        real = excitation.rank_verdict

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(excitation, "rank_verdict", counted)
        cap = (T + (model_class == "linear")) // (m + 1)
        inputs = (
            np.random.default_rng(T).normal(size=(T, m)),  # passes at the cap
            np.tile([[1.0] * m, [2.0] * m, [4.0] * m], (T, 1))[:T],  # fails below it
        )
        for data in inputs:
            calls.clear()
            max_pe_order(Trajectory.inputs(data), model_class)
            assert len(calls) <= (math.ceil(math.log2(cap)) + 1 if cap else 0)

    def test_long_generic_record_reaches_cap(self):
        u = Trajectory.inputs(np.random.default_rng(5).normal(size=2000))
        assert max_pe_order(u, "affine") == 1000

    def test_errors_typed_before_the_cap(self):
        # too short for order 1 (the cap is 0), yet the argument errors stay
        short = np.ones((1, 2))
        with pytest.raises(DimensionMismatch):
            max_pe_order(Trajectory(short, m=1), "affine")
        with pytest.raises(InvalidArgument):
            max_pe_order(Trajectory.inputs(short), "quadratic")
        with pytest.raises(InvalidArgument):
            max_pe_order(Trajectory.inputs(short), "affine", tol=0.0)
        assert max_pe_order(Trajectory.inputs(short), "affine") == 0

    def test_profile_reported_for_all_depths(self):
        profile = pe_profile(ALTERNATING, "affine")
        assert profile == [True, False, False, False, False, False]

    def test_bad_class_rejected(self):
        with pytest.raises(ValueError):
            max_pe_order(ALTERNATING, "quadratic")


class TestGape:
    def test_reference_experiment_two(self):
        sys = reference_system()
        u = restrict(reference_input("experiment-2"), 1, 7)
        result = simulate(sys, np.zeros(2), u)
        assert gape_check(result.io(u), 2, n=2)

    def test_constant_data_fails_for_positive_order(self):
        # a static affine map held at one operating point never reveals n >= 1
        w = Trajectory(np.tile([2.0, 5.0], (6, 1)), m=1)
        for L in (1, 2, 3):
            assert not gape_check(w, L, n=1)

    def test_general_form_matches_affine_hull_dimension(self, rng):
        # oracle: affine dimension of the window cloud = rank of the
        # centered window matrix, computed without the ones-row trick
        sys = reference_system()
        u = Trajectory.inputs(rng.normal(size=9))
        result = simulate(sys, rng.normal(size=2), u)
        w = result.io(u)
        for L in (1, 2, 3):
            cols = hankel(w, L).entries
            centered = cols - cols.mean(axis=1, keepdims=True)
            d_L = numerical_rank(centered).rank
            assert gape_check(w, L, d_L=d_L)

    def test_requires_order_or_dimension(self):
        w = Trajectory(np.ones((4, 2)), m=1)
        with pytest.raises(ValueError):
            gape_report(w, 2)
        with pytest.raises(InvalidArgument):
            gape_report(w, 2, 1, d_L=2)
        # an affine set has dimension at least 0, so no rank meets d_L + 1 <= 0
        for d_L in (-5, -1):
            with pytest.raises(InvalidArgument):
                gape_report(w, 2, d_L=d_L)

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_is_an_argument_error(self, order):
        w = Trajectory(np.ones((4, 2)), m=1)
        with pytest.raises(InvalidArgument):
            gape_report(w, order, 1)
        with pytest.raises(InvalidArgument):
            gape_report(w, order, d_L=1)


class TestGapRatio:
    def test_below_full_rank_is_the_gap_at_the_cut(self):
        report = excitation.rank_verdict(np.diag([4.0, 2.0, 1e-16]), 3)
        assert report.rank == 2 and not report.ok
        assert report.gap_ratio == pytest.approx(2.0 / 1e-16)
        report = excitation.ExcitationReport(False, 1, 2, np.array([3.0, 0.5, 0.25]))
        assert report.gap_ratio == 6.0  # sigma_1 / sigma_2

    def test_rank_zero_is_zero(self):
        report = excitation.rank_verdict(np.zeros((2, 3)), 1)
        assert report.rank == 0 and report.gap_ratio == 0.0

    def test_full_rank_is_infinite(self):
        report = excitation.rank_verdict(np.diag([4.0, 2.0]), 2)
        assert report.rank == 2 and report.gap_ratio == math.inf


class TestDataRequirements:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 3),
        L=st.integers(1, 6),
        model_class=st.sampled_from(["linear", "affine"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shortest_passing_record_is_min_data_length(self, m, L, model_class, seed):
        # oracle: grow a generic record one sample at a time until the rank
        # test passes at order L; the length it stops at is the minimal one
        u = np.random.default_rng(seed).normal(size=((m + 1) * L + 1, m))
        test = pe_order_linear if model_class == "linear" else pe_order_affine
        for T in range(L, len(u) + 1):
            if test(Trajectory.inputs(u[:T]), L):
                break
        assert T == min_data_length(m, L, model_class)

    def test_reference_values(self):
        assert min_data_length(1, 5) == 9
        assert min_data_length(1, 4, "affine") == 8
        assert sampling_gap(3) == 3

    def test_identities_exhaustive(self):
        for m in range(1, 11):
            assert sampling_gap(m) == m
            for L in range(1, 11):
                assert min_data_length(m, L, "linear") == (m + 1) * L - 1
                assert min_data_length(m, L, "affine") == (m + 1) * L

    def test_gap_is_length_difference_at_shifted_orders(self):
        for m in range(1, 11):
            for n in range(0, 5):
                for L in range(1, 6):
                    lhs = min_data_length(m, n + L + 1, "linear") - min_data_length(
                        m, n + L, "affine"
                    )
                    assert lhs == sampling_gap(m)


class TestImplications:
    def test_affine_implies_linear_and_shifted_converse(self, rng):
        # structured and random sequences, both one- and two-input
        cases = []
        for _ in range(40):
            T = int(rng.integers(4, 12))
            cases.append(rng.normal(size=(T, 1)))
            cases.append(rng.normal(size=(T, 2)))
            cases.append(np.ones((T, 1)))
            period = rng.integers(1, 4)
            cases.append(np.tile(rng.normal(size=(period, 1)), (T // period + 1, 1))[:T])
        for data in cases:
            u = Trajectory.inputs(data)
            for L in range(1, u.length):
                if pe_order_affine(u, L):
                    assert pe_order_linear(u, L)
                if L + 1 <= u.length and pe_order_linear(u, L + 1):
                    assert pe_order_affine(u, L)

    def test_zero_mean_sinusoids_have_equal_orders(self):
        # no constant component: the ones row stays independent as long as
        # the Hankel block itself is full, so the two orders coincide
        t = np.arange(1, 13)
        u = Trajectory.inputs(
            np.sin(2 * np.pi * t / 3) + 0.5 * np.sin(2 * np.pi * t / 4 + 0.3)
        )
        assert max_pe_order(u, "linear") == max_pe_order(u, "affine")
