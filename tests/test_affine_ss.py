import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atisys import (
    AffineStateSpace,
    Trajectory,
    char_poly_at_one,
    controllable,
    difference_system,
    lift,
    simulate,
)
from atisys.affine_ss import LiftedStateSpace
from atisys.errors import DimensionMismatch, InvalidArgument, NonFiniteEntry
from atisys.scenario import reference_input, reference_system
from conftest import random_system


class TestConstruction:
    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            AffineStateSpace(np.eye(2), np.ones((3, 1)), np.eye(2), np.zeros((2, 1)), np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            AffineStateSpace(np.eye(2), np.ones((2, 1)), np.eye(2), np.zeros((2, 1)), np.zeros(3), np.zeros(2))

    def test_order_zero_supported(self):
        sys = AffineStateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.0]], np.zeros(0), [3.0]
        )
        assert sys.n == 0 and sys.m == 1 and sys.p == 1


class TestSimulate:
    def test_reference_first_step(self):
        sys = reference_system()
        result = simulate(sys, np.zeros(2), reference_input("experiment-1"))
        assert np.allclose(result.x.sample(2), [1.91, 1.91])
        assert result.x.sample(1).tolist() == [0.0, 0.0]

    def test_zero_everything_stays_zero(self):
        sys = AffineStateSpace.linear(np.eye(2) * 0.5, np.ones((2, 1)), np.eye(2), np.zeros((2, 1)))
        result = simulate(sys, np.zeros(2), Trajectory.inputs(np.zeros(5)))
        assert not np.any(result.x.data) and not np.any(result.y.data)

    def test_static_affine_map(self):
        sys = AffineStateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.0]], np.zeros(0), [3.0]
        )
        result = simulate(sys, np.zeros(0), Trajectory.inputs([1.0, -1.0]))
        assert result.x is None
        assert result.y.data.ravel().tolist() == [5.0, 1.0]

    def test_final_state_is_one_past_the_horizon(self):
        sys = reference_system()
        u = reference_input("experiment-3")
        result = simulate(sys, np.zeros(2), u)
        expected = sys.A @ result.x.sample(6) + sys.B @ u.sample(6) + sys.E
        assert np.allclose(result.final_state, expected)
        assert result.x.length == u.length

    def test_input_width_checked(self):
        sys = reference_system()
        with pytest.raises(DimensionMismatch):
            simulate(sys, np.zeros(2), Trajectory(np.ones((4, 2)), m=2))

    def test_affine_combination_closure(self, rng):
        sys = random_system(rng, 3, 1, 2)
        u1 = Trajectory.inputs(rng.normal(size=8))
        u2 = Trajectory.inputs(rng.normal(size=8))
        r1 = simulate(sys, rng.normal(size=3), u1)
        r2 = simulate(sys, rng.normal(size=3), u2)
        alpha = 0.3
        u_mix = alpha * u1.data + (1 - alpha) * u2.data
        x_mix = alpha * r1.x.data + (1 - alpha) * r2.x.data
        y_mix = alpha * r1.y.data + (1 - alpha) * r2.y.data
        for t in range(7):
            x_next = sys.A @ x_mix[t] + sys.B @ u_mix[t] + sys.E
            assert np.linalg.norm(x_next - x_mix[t + 1]) < 1e-10
            y_now = sys.C @ x_mix[t] + sys.D @ u_mix[t] + sys.F
            assert np.linalg.norm(y_now - y_mix[t]) < 1e-10


def per_sample_reference(sys, x0, u_data):
    """The plain recursion, one sample at a time: states x(1..T+1) and outputs."""
    T = u_data.shape[0]
    x = np.empty((T + 1, sys.n))
    y = np.empty((T, sys.p))
    x[0] = x0
    for t in range(T):
        y[t] = sys.C @ x[t] + sys.D @ u_data[t] + sys.F
        x[t + 1] = sys.A @ x[t] + sys.B @ u_data[t] + sys.E
    return x, y


def normal_transition(rng, n, radius):
    """Q R Qᵀ with Q orthogonal and R block diagonal of scaled rotations and
    reals, the largest of modulus ``radius``: a normal matrix, so rounding is
    not amplified beyond the states' own growth."""
    R = np.zeros((n, n))
    i = 0
    while i < n:
        r = radius if i == 0 else rng.uniform(0, radius)
        if i + 1 < n and rng.random() < 0.5:
            angle = rng.uniform(0, np.pi)
            c, s = np.cos(angle), np.sin(angle)
            R[i : i + 2, i : i + 2] = r * np.array([[c, -s], [s, c]])
            i += 2
        else:
            R[i, i] = r * rng.choice([-1.0, 1.0])
            i += 1
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ R @ Q.T


def assert_close(got, want, rtol=1e-12):
    scale = np.max(np.abs(want)) if want.size else 0.0
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


class TestSimulateBlocks:
    """The block recursion against the per-sample loop (blocks are 64 samples)."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        p=st.integers(1, 2),
        radius=st.sampled_from([0.3, 0.9, 0.99, 1.0, 1.1, 1.2]),
        T=st.sampled_from([1, 2, 5, 63, 64, 65, 127, 128, 129, 200, 300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_sample_loop(self, n, m, p, radius, T, seed):
        rng = np.random.default_rng(seed)
        sys = AffineStateSpace(
            normal_transition(rng, n, radius),
            rng.normal(size=(n, m)),
            rng.normal(size=(p, n)),
            rng.normal(size=(p, m)),
            rng.normal(size=n),
            rng.normal(size=p),
        )
        u = rng.normal(size=(T, m))
        x0 = rng.normal(size=n)
        result = simulate(sys, x0, Trajectory.inputs(u))
        x_ref, y_ref = per_sample_reference(sys, x0, u)
        assert_close(np.vstack([result.x.data, result.final_state]), x_ref)
        assert_close(result.y.data, y_ref)

    def test_long_stable_record(self, rng):
        sys = random_system(rng, 3, 1, 2)
        u = rng.normal(size=(5000, 1))
        x0 = rng.normal(size=3)
        result = simulate(sys, x0, Trajectory.inputs(u))
        x_ref, y_ref = per_sample_reference(sys, x0, u)
        assert_close(np.vstack([result.x.data, result.final_state]), x_ref)
        assert_close(result.y.data, y_ref)

    @pytest.mark.parametrize("T", [1, 64, 100])
    def test_order_zero(self, rng, T):
        sys = AffineStateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), [[2.0, -1.0]], [], [3.0])
        u = rng.normal(size=(T, 2))
        result = simulate(sys, np.zeros(0), Trajectory.inputs(u))
        assert result.x is None and result.final_state.shape == (0,)
        assert_close(result.y.data, per_sample_reference(sys, np.zeros(0), u)[1])

    @pytest.mark.parametrize("T", [1, 64, 100])
    def test_no_outputs(self, rng, T):
        sys = AffineStateSpace(np.eye(2) * 0.5, rng.normal(size=(2, 1)), np.zeros((0, 2)), np.zeros((0, 1)), [1.0, -1.0], [])
        u = rng.normal(size=(T, 1))
        result = simulate(sys, [1.0, 2.0], Trajectory.inputs(u))
        assert result.y is None
        x_ref, _ = per_sample_reference(sys, [1.0, 2.0], u)
        assert_close(np.vstack([result.x.data, result.final_state]), x_ref)

    @pytest.mark.parametrize("T", [1, 64, 100])
    def test_no_inputs_with_horizon(self, rng, T):
        sys = AffineStateSpace(normal_transition(rng, 3, 1.1), np.zeros((3, 0)), rng.normal(size=(1, 3)), np.zeros((1, 0)), rng.normal(size=3), [0.5])
        x0 = rng.normal(size=3)
        result = simulate(sys, x0, horizon=T)
        x_ref, y_ref = per_sample_reference(sys, x0, np.zeros((T, 0)))
        assert result.x.length == T
        assert_close(np.vstack([result.x.data, result.final_state]), x_ref)
        assert_close(result.y.data, y_ref)
        with pytest.raises(InvalidArgument):
            simulate(sys, x0, Trajectory.inputs(np.zeros(T)))

    def test_horizon_with_inputs_is_refused(self):
        with pytest.raises(InvalidArgument):
            simulate(reference_system(), np.zeros(2), Trajectory.inputs(np.ones(3)), horizon=3)

    def test_zero_state_kept_when_powers_overflow(self):
        # A^64 overflows here; the plain recursion keeps x = 0 exactly
        sys = AffineStateSpace.linear([[1e6]], [[1.0]], [[1.0]], [[0.0]])
        result = simulate(sys, [0.0], Trajectory.inputs(np.zeros(100)))
        assert not np.any(result.x.data) and not np.any(result.y.data)
        assert result.final_state.tolist() == [0.0]


class TestControllable:
    def test_reference_pair(self):
        assert controllable(reference_system())

    def test_repeated_mode_single_column_fails(self):
        sys = AffineStateSpace.linear(np.eye(2), [[1.0], [0.0]], np.eye(2), np.zeros((2, 1)))
        assert not controllable(sys)

    def test_scalar(self):
        sys = AffineStateSpace.linear([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        assert controllable(sys)

    def test_order_zero_by_convention(self):
        sys = AffineStateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]], np.zeros(0), [0.0]
        )
        assert controllable(sys)

    def test_offsets_do_not_matter(self, rng):
        for _ in range(10):
            sys = random_system(rng, 3, 2, 1)
            assert controllable(sys) == controllable(difference_system(sys))


class TestDifferenceSystem:
    def test_reference_offsets_dropped(self):
        diff = difference_system(reference_system())
        assert not np.any(diff.E) and not np.any(diff.F)
        assert np.array_equal(diff.A, reference_system().A)

    def test_linear_fixed_point(self):
        sys = AffineStateSpace.linear(np.eye(2) * 0.5, np.ones((2, 1)), np.eye(2), np.zeros((2, 1)))
        diff = difference_system(sys)
        assert np.array_equal(diff.A, sys.A) and not np.any(diff.E)

    def test_differences_satisfy_offset_free_recursion(self, rng):
        sys = random_system(rng, 2, 1, 2)
        u1 = Trajectory.inputs(rng.normal(size=6))
        u2 = Trajectory.inputs(rng.normal(size=6))
        r1 = simulate(sys, rng.normal(size=2), u1)
        r2 = simulate(sys, rng.normal(size=2), u2)
        du = u1.data - u2.data
        dx = r1.x.data - r2.x.data
        dy = r1.y.data - r2.y.data
        for t in range(5):
            assert np.linalg.norm(sys.A @ dx[t] + sys.B @ du[t] - dx[t + 1]) < 1e-12
            assert np.linalg.norm(sys.C @ dx[t] + sys.D @ du[t] - dy[t]) < 1e-12


class TestLift:
    def test_reference_block_form(self):
        lifted = lift(reference_system())
        assert lifted.A.tolist() == [[1, 0, 1], [0, 2, 1], [0, 0, 1]]
        assert lifted.B.tolist() == [[1], [1], [0]]
        assert lifted.C.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_simulation_equivalence(self, rng):
        for _ in range(5):
            sys = random_system(rng, 3, 2, 2)
            u = Trajectory.inputs(rng.normal(size=(20, 2)))
            x0 = rng.normal(size=3)
            direct = simulate(sys, x0, u)
            lifted = lift(sys)
            via_lift = simulate(lifted.as_state_space(), lifted.initial_state(x0), u)
            scale = 1 + np.max(np.abs(direct.y.data))
            assert np.max(np.abs(via_lift.y.data - direct.y.data)) / scale < 1e-12

    def test_constant_internal_signal(self, rng):
        sys = random_system(rng, 2, 1, 1)
        lifted = lift(sys)
        u = Trajectory.inputs(rng.normal(size=10))
        result = simulate(lifted.as_state_space(), lifted.initial_state(rng.normal(size=2)), u)
        assert np.all(result.x.data[:, -1] == 1.0)

    def test_zero_offsets_reduce_to_linear(self, rng):
        sys = random_system(rng, 2, 1, 1)
        linear = difference_system(sys)
        lifted = lift(linear)
        u = Trajectory.inputs(rng.normal(size=8))
        x0 = rng.normal(size=2)
        a = simulate(linear, x0, u)
        b = simulate(lifted.as_state_space(), lifted.initial_state(x0), u)
        assert np.allclose(a.y.data, b.y.data, atol=1e-12)

    def test_eigenvalue_at_one_is_exact(self, rng):
        for _ in range(5):
            sys = random_system(rng, 3, 1, 2)
            assert char_poly_at_one(lift(sys)) == 0

    @pytest.mark.parametrize(
        "A, B",
        [([[np.nan, 1.0], [0.0, 1.0]], [[1.0], [0.0]]), ([[0.5, 1.0], [0.0, 1.0]], [[np.inf], [0.0]])],
        ids=["nan-in-A", "inf-in-B"],
    )
    def test_nonfinite_entries_refused(self, A, B):
        with pytest.raises(NonFiniteEntry, match="non-finite"):
            LiftedStateSpace(A, B, [[1.0, 0.0]], [[0.0]])

    def test_lifted_structure_checked(self):
        with pytest.raises(DimensionMismatch, match="last state constant"):
            LiftedStateSpace([[0.5, 1.0], [0.5, 1.0]], [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(DimensionMismatch, match="nonempty"):
            LiftedStateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[0.0]])
