import numpy as np
import pytest

from atisys import (
    AffineStateSpace,
    DataDrivenRep,
    Poly,
    Trajectory,
    behavior_apply,
    complete,
    gape_check,
    invariants_from_data,
    lag_of,
    membership,
    rank_condition_affine,
    rank_condition_affine_report,
    recover_kernel,
    restrict,
    simulate,
)
from atisys.errors import (
    AmbiguousContinuation,
    DimensionMismatch,
    ExcitationDeficient,
    InvalidArgument,
    NotConverged,
)
from atisys.scenario import reference_input, reference_system
from conftest import experiment, pe_affine_input, random_minimal_integer_system, random_system


def reference_data(name, length, rng=None, x0=None):
    sys = reference_system()
    u = restrict(reference_input(name), 1, length)
    result = simulate(sys, np.zeros(2) if x0 is None else x0, u)
    return sys, u, result


class TestRankCondition:
    def test_reference_experiments(self):
        for name, T in [("experiment-1", 9), ("experiment-2", 7), ("experiment-3", 6)]:
            _, u, result = reference_data(name, T)
            report = rank_condition_affine_report(result.x, u, 2)
            assert report.ok and report.rank == 5 and report.target == 5

    def test_zero_data_fails(self):
        sys = AffineStateSpace.linear(
            np.array([[0.5, 0.0], [0.0, 0.2]]), np.ones((2, 1)), np.eye(2), np.zeros((2, 1))
        )
        u = Trajectory.inputs(np.zeros(8))
        result = simulate(sys, np.zeros(2), u)
        assert not rank_condition_affine(result.x, u, 2)

    def test_length_mismatch(self):
        _, u, result = reference_data("experiment-1", 9)
        with pytest.raises(DimensionMismatch):
            rank_condition_affine(restrict(result.x, 1, 5), u, 2)


class TestMembership:
    def test_column_is_a_member(self):
        _, u, result = reference_data("experiment-1", 9)
        rep = DataDrivenRep(result.io(u), 2)
        col = rep.hankel.column(3)
        verdict = membership(rep, col)
        assert verdict.is_member and verdict.residual < 1e-10
        assert abs(verdict.g.sum() - 1) < 1e-12

    def test_midpoint_of_columns(self):
        _, u, result = reference_data("experiment-1", 9)
        rep = DataDrivenRep(result.io(u), 2)
        mid = 0.5 * (rep.hankel.column(1) + rep.hankel.column(2))
        verdict = membership(rep, mid)
        assert verdict.is_member and verdict.residual < 1e-10

    def test_fresh_window_is_a_member(self, rng):
        sys, u2, result2 = reference_data("experiment-2", 7)
        rep = DataDrivenRep(result2.io(u2), 2)
        fresh_u = Trajectory.inputs(rng.normal(size=2))
        fresh = simulate(sys, rng.normal(size=2), fresh_u)
        verdict = membership(rep, fresh.io(fresh_u).data.ravel())
        assert verdict.is_member and verdict.residual < 1e-8
        assert abs(verdict.g.sum() - 1) < 1e-12

    def test_non_member_rejected(self, rng):
        _, u, result = reference_data("experiment-1", 9)
        rep = DataDrivenRep(result.io(u), 2)
        outside = rng.normal(size=6) * 50
        verdict = membership(rep, outside)
        assert not verdict.is_member


class TestComplete:
    def test_copying_a_column_reproduces_it(self):
        _, u, result = reference_data("experiment-1", 9)
        w = result.io(u)
        rep = DataDrivenRep(w, 3)
        window = restrict(w, 2, 4)
        prefix = restrict(window, 1, 2)
        u_f = Trajectory.inputs(window.data[2:, : w.m])
        outcome = complete(rep, prefix, u_f)
        assert np.allclose(outcome.y_f.data, window.data[2:, w.m :], atol=1e-8)

    def test_matches_simulation_oracle(self, rng):
        sys, u1, result1 = reference_data("experiment-1", 9)
        rep = DataDrivenRep(result1.io(u1), 3)
        fresh_u = Trajectory.inputs(rng.normal(size=3))
        fresh = simulate(sys, rng.normal(size=2), fresh_u)
        w = fresh.io(fresh_u)
        outcome = complete(rep, restrict(w, 1, 2), Trajectory.inputs(fresh_u.data[2:]))
        assert np.allclose(outcome.y_f.data, fresh.y.data[2:], atol=1e-8)

    def test_empty_prefix_is_ambiguous(self):
        sys, u, result = reference_data("experiment-1", 9)
        rep = DataDrivenRep(result.io(u), 2)
        with pytest.raises(AmbiguousContinuation):
            complete(rep, None, Trajectory.inputs([[0.1], [0.2]]))

    def test_prefix_outside_the_behavior_is_infeasible(self):
        from atisys.errors import Infeasible

        _, u, result = reference_data("experiment-1", 9)
        w = result.io(u)
        rep = DataDrivenRep(w, 3)
        bad_prefix = Trajectory(np.full((2, 3), 1e6), m=1)
        with pytest.raises(Infeasible):
            complete(rep, bad_prefix, Trajectory.inputs([[0.0]]))


class TestResidualTolerance:
    # nan compares false and inf true against every residual, so either
    # would turn the residual test into a fixed answer
    BAD = [float("nan"), float("inf"), 0.0, -1.0]

    @pytest.mark.parametrize("tol", BAD)
    def test_membership_rejects_bad_tolerance(self, tol):
        _, u, result = reference_data("experiment-1", 9)
        rep = DataDrivenRep(result.io(u), 2)
        with pytest.raises(InvalidArgument):
            membership(rep, rep.hankel.column(3), tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_complete_rejects_bad_tolerance(self, tol):
        _, u, result = reference_data("experiment-1", 9)
        w = result.io(u)
        window = restrict(w, 2, 4)
        with pytest.raises(InvalidArgument):
            complete(
                DataDrivenRep(w, 3),
                restrict(window, 1, 2),
                Trajectory.inputs(window.data[2:, : w.m]),
                tol,
            )


class TestCompleteAmbiguityOracle:
    def test_matches_full_svd_null_basis(self, rng):
        """Ambiguous exactly when the outputs move along null [C; 1^T].

        The reference null basis comes from a full numpy SVD and
        ``np.linalg.matrix_rank``; prefixes shorter than the lag leave the
        outputs free, prefixes of at least the lag fix them.
        """
        tol = 1e-8
        verdicts = []
        for _ in range(8):
            n, m, p = (int(v) for v in rng.integers(1, 3, size=3))
            q, L = m + p, n + 2
            T = (m + 1) * L + n + 4
            w, _ = experiment(random_system(rng, n, m, p), rng, Trajectory.inputs(rng.normal(size=(T, m))))
            rep = DataDrivenRep(w, L)
            H = rep.hankel.entries
            for t_ini in range(L):
                start = int(rng.integers(1, T - L + 2))
                window = restrict(w, start, start + L - 1)
                prefix = restrict(window, 1, t_ini) if t_ini else None
                u_f = Trajectory.inputs(window.data[t_ini:, :m])
                matched = list(range(q * t_ini)) + [t * q + i for t in range(t_ini, L) for i in range(m)]
                outputs = [t * q + i for t in range(t_ini, L) for i in range(m, q)]
                S = np.vstack([H[matched], np.ones(H.shape[1])])
                null = np.linalg.svd(S)[2][np.linalg.matrix_rank(S) :]
                Y = H[outputs]
                ambiguous = np.linalg.norm(Y @ null.T) > tol * (1 + np.linalg.norm(Y))
                if ambiguous:
                    with pytest.raises(AmbiguousContinuation):
                        complete(rep, prefix, u_f, tol)
                else:
                    outcome = complete(rep, prefix, u_f, tol)
                    assert np.allclose(outcome.y_f.data, window.data[t_ini:, m:], atol=1e-6)
                verdicts.append(ambiguous)
        assert any(verdicts) and not all(verdicts)


class TestRecoverKernel:
    def test_exact_route_refuses_rounded_data(self):
        # the states of some integer systems grow until simulate rounds the
        # samples (|w| from 4.5e16 to 1.8e22 on draws 0, 1, 4, 6 and 19); read
        # as exact, those records gave a kernel with no rows
        rng = np.random.default_rng(1)
        refused = []
        for k in range(25):
            sys = random_minimal_integer_system(rng)
            u = Trajectory.inputs(rng.integers(-2, 3, (60, sys.m)))
            w = simulate(sys, rng.integers(-1, 2, sys.n), u).io(u)
            try:
                kernel = recover_kernel(DataDrivenRep(w, 4), method="exact")
            except InvalidArgument:
                refused.append(k)
                assert np.max(np.abs(w.data)) >= 2.0**53
            else:
                assert kernel.g > 0
        assert refused == [0, 1, 4, 6, 19]

    def test_exact_route_takes_no_tolerance(self):
        data = Trajectory(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]), m=1)
        with pytest.raises(InvalidArgument):
            recover_kernel(DataDrivenRep(data, 1), tol=1e-6, method="exact")

    def test_static_offset_map(self):
        data = Trajectory(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]), m=1)
        rep = DataDrivenRep(data, 1)
        kernel = recover_kernel(rep, n=0, method="exact")
        assert kernel.g == 1
        row = kernel.R.rows[0]
        # y = u + 1 up to row scaling: entries (a, -a), offset -a... or (-a, a), a
        ratio = row[0].coefficients[0] / row[1].coefficients[0]
        assert ratio == -1
        assert kernel.c[0] / row[1].coefficients[0] == 1

    @pytest.mark.parametrize("method", ["svd", "exact"])
    def test_rows_are_canonical_over_their_largest_entry(self, method):
        rng = np.random.default_rng(1)
        for _ in range(8):
            sys = random_minimal_integer_system(rng)
            u = Trajectory.inputs(rng.integers(-2, 3, (60, sys.m)))
            w = simulate(sys, rng.integers(-1, 2, sys.n), u).io(u)
            if np.max(np.abs(w.data)) >= 2.0**53:
                continue
            kernel = recover_kernel(DataDrivenRep(w, 4), n=sys.n, method=method)
            for row, c in zip(kernel.R.rows, kernel.c):
                # [R_0 ... R_3 | -c], each coefficient stored in lowest terms
                entries = [p.coefficient(k) for k in range(4) for p in row] + [-c]
                assert max(entries, key=abs) == 1
                assert all(p == Poly(p.coefficients) and p.denominator > 0 for p in row)

    def test_linear_data_has_vanishing_offset(self, rng):
        sys = AffineStateSpace.linear(
            np.array([[0.4, 0.3], [0.0, -0.5]]), np.array([[1.0], [0.5]]),
            np.array([[1.0, 0.0]]), np.array([[0.0]]),
        )
        u = pe_affine_input(rng, 1, 6, 24)
        result = simulate(sys, np.zeros(2), u)
        rep = DataDrivenRep(result.io(u), 4)
        kernel = recover_kernel(rep, n=2)
        assert np.max(np.abs(kernel.offset_floats())) < 1e-8

    def test_round_trip_annihilation(self, rng):
        sys = reference_system()
        # a short but rich experiment: the unstable mode grows fast, so keep
        # the horizon near the minimum the depth-4 rank condition allows
        u = pe_affine_input(rng, 1, 6, 12)
        result = simulate(sys, np.zeros(2), u)
        rep = DataDrivenRep(result.io(u), 4)
        kernel = recover_kernel(rep, n=2)
        assert kernel.g == 2 * 4 - 2  # p*L - n
        for _ in range(100):
            fresh_u = Trajectory.inputs(rng.normal(size=4))
            fresh = simulate(sys, rng.normal(size=2), fresh_u)
            residual = behavior_apply(kernel, fresh.io(fresh_u).data)
            assert np.max(np.abs(residual)) < 1e-8

    def test_excitation_deficiency_detected(self):
        _, u, result = reference_data("experiment-3", 6)
        w = result.io(u)
        rep = DataDrivenRep(w, 2)
        with pytest.raises(ExcitationDeficient):
            recover_kernel(rep, n=4)

    def test_membership_and_kernel_agree(self, rng):
        # the recovered representation and the span test accept and reject
        # exactly the same windows
        sys = reference_system()
        u = pe_affine_input(rng, 1, 5, 11)
        result = simulate(sys, np.zeros(2), u)
        rep = DataDrivenRep(result.io(u), 3)
        kernel = recover_kernel(rep, n=2)
        for k in range(30):
            if k % 2:
                fu = Trajectory.inputs(rng.normal(size=3))
                fresh = simulate(sys, rng.normal(size=2), fu)
                window = fresh.io(fu).data
            else:
                window = rng.normal(size=(3, 3)) * 5
            from atisys import behavior_apply

            accept_kernel = float(np.max(np.abs(behavior_apply(kernel, window)))) <= 1e-6
            accept_span = membership(rep, window.ravel(), tol=1e-6).is_member
            assert accept_kernel == accept_span


class TestInvariants:
    def test_increment_law_behavior(self):
        # scalar behavior advancing by one each step: order 1, no inputs
        inv = invariants_from_data(Trajectory([3, 4, 5, 6, 7]), 4)
        assert (inv.m, inv.n, inv.ell) == (0, 1, 1)
        assert inv.d_sequence == (1, 1, 1, 1)
        # the verbatim read-offs overshoot on this example: kept as a fixture
        assert inv.n_verbatim == 2
        assert inv.ell_verbatim == 2

    def test_unconstrained_scalar_behavior(self, rng):
        inv = invariants_from_data(Trajectory(rng.normal(size=9)), 3)
        assert (inv.m, inv.n, inv.ell) == (1, 0, 0)
        assert inv.n_verbatim == 0  # no laws, no overshoot
        assert inv.ell_verbatim == 1

    def test_reference_data_recovers_orders(self):
        _, u, result = reference_data("experiment-1", 9)
        inv = invariants_from_data(result.io(u), 3)
        assert (inv.m, inv.n, inv.ell) == (1, 2, 1)
        assert inv.d_sequence == (3, 4, 5)

    def test_not_converged_detected(self):
        _, u, result = reference_data("experiment-1", 9)
        with pytest.raises(NotConverged):
            invariants_from_data(result.io(u), 2)

    def test_matches_minimal_realization_and_kernel_lag(self, rng):
        for _ in range(5):
            sys = random_minimal_integer_system(rng)
            t_max = sys.n + 2
            T = (sys.m + 1) * (t_max + sys.n) + 10
            for _ in range(40):
                u = pe_affine_input(rng, sys.m, t_max + sys.n, T, integer=True)
                result = simulate(sys, rng.integers(-2, 3, size=sys.n).astype(float), u)
                w = result.io(u)
                if np.max(np.abs(w.data)) > 2**50:
                    continue
                if gape_check(w, t_max, sys.n) and gape_check(w, sys.n + 1, sys.n):
                    break
            else:
                pytest.fail("no sufficiently exciting integer experiment found")
            inv = invariants_from_data(w, t_max)
            assert (inv.m, inv.n) == (sys.m, sys.n)
            kernel = recover_kernel(DataDrivenRep(w, sys.n + 1), n=sys.n, method="exact")
            assert lag_of(kernel) == inv.ell
