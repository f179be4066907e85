"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) in addition to its assertions.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from atisys import (
    AffineKernelRep,
    DataDrivenRep,
    OffsetSequence,
    Poly,
    PolyMatrix,
    Trajectory,
    behavior_apply,
    complete,
    consistent_constant,
    consistent_sequence,
    equivalent,
    gape_check,
    invariants_from_data,
    lag_of,
    lift,
    membership,
    min_data_length,
    pe_order_affine,
    pe_order_linear,
    rank_condition_affine_report,
    recover_kernel,
    restrict,
    sampling_gap,
    simulate,
    syzygy_basis,
)
from atisys.scenario import reference_input, run_reference_experiments
from conftest import (
    pe_affine_input,
    random_controllable_system,
    random_minimal_integer_system,
    random_poly_matrix,
    random_unimodular,
)

X = Poly.x()


def report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_reference_reproduction():
    start = time.perf_counter()
    results = run_reference_experiments()
    elapsed = time.perf_counter() - start
    ok = len(results) == 3
    for row in results:
        ok = ok and row.ok and row.rank == 5 and row.target == 5
        ok = ok and row.gap_ratio >= 1e6
    ok = ok and elapsed < 1.0
    report("1 reference-scenario rank conditions", ok)


def test_criterion_2_excitation_classification():
    u1 = reference_input("experiment-1")
    u2 = reference_input("experiment-2")
    u3 = reference_input("experiment-3")
    ok = pe_order_linear(u1, 5)
    ok = ok and pe_order_affine(u2, 4)
    ok = ok and not pe_order_affine(u3, 4)
    # the weakly excited third record still passes the rank condition,
    # so the excitation condition is sufficient but not necessary
    ok = ok and run_reference_experiments()[2].ok
    report("2 excitation classification of the reference inputs", ok)


def test_criterion_3_data_requirement_identities():
    ok = True
    for m in range(1, 11):
        ok = ok and sampling_gap(m) == m
        for L in range(1, 11):
            ok = ok and min_data_length(m, L, "linear") == (m + 1) * L - 1
            ok = ok and min_data_length(m, L, "affine") == (m + 1) * L
    report("3 data-requirement identities", ok)


def test_criterion_4_excitation_implications():
    rng = np.random.default_rng(41)
    cases = 0
    counterexamples = 0
    while cases < 500:
        m = int(rng.integers(1, 3))
        T = int(rng.integers(4, 14))
        style = rng.integers(0, 4)
        if style == 0:
            data = rng.normal(size=(T, m))
        elif style == 1:
            data = np.cumsum(rng.normal(size=(T, m)), axis=0)
        elif style == 2:
            data = np.tile(rng.normal(size=(1, m)), (T, 1))
        else:
            period = int(rng.integers(1, 4))
            data = np.tile(rng.normal(size=(period, m)), (T // period + 1, 1))[:T]
        u = Trajectory.inputs(data)
        for L in range(1, T):
            if pe_order_affine(u, L) and not pe_order_linear(u, L):
                counterexamples += 1
            if L + 1 < T and pe_order_linear(u, L + 1) and not pe_order_affine(u, L):
                counterexamples += 1
        cases += 1
    report(
        "4 affine-implies-linear and shifted converse (500 sequences)",
        counterexamples == 0 and cases >= 500,
    )


def test_criterion_5_fundamental_lemma_round_trip():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    systems = 0
    ok = True
    while systems < 100:
        sys = random_controllable_system(rng, n_max=4, m_max=2, p_max=2)
        L = min(6, sys.n + 2)
        order = sys.n + L
        T = (sys.m + 1) * order + 5
        u = pe_affine_input(rng, sys.m, order, T)
        result = simulate(sys, rng.normal(size=sys.n), u)
        w = result.io(u)

        ok = ok and rank_condition_affine_report(result.x, u, L).ok

        rep = DataDrivenRep(w, L)
        kernel = recover_kernel(rep, n=sys.n)
        for _ in range(20):
            fu = Trajectory.inputs(rng.normal(size=(L, sys.m)))
            fresh = simulate(sys, rng.normal(size=sys.n), fu)
            fw = fresh.io(fu)
            verdict = membership(rep, fw.data.ravel(), tol=1e-6)
            ok = ok and verdict.is_member
        for _ in range(20):
            fu = Trajectory.inputs(rng.normal(size=(L, sys.m)))
            fresh = simulate(sys, rng.normal(size=sys.n), fu)
            fw = fresh.io(fu)
            ok = ok and float(np.max(np.abs(behavior_apply(kernel, fw.data)), initial=0.0)) <= 1e-6

        fu = Trajectory.inputs(rng.normal(size=(L, sys.m)))
        fresh = simulate(sys, rng.normal(size=sys.n), fu)
        fw = fresh.io(fu)
        t_ini = sys.n
        outcome = complete(
            rep,
            restrict(fw, 1, t_ini),
            Trajectory.inputs(fu.data[t_ini:]),
        )
        ok = ok and np.allclose(
            outcome.y_f.data, fresh.y.data[t_ini:], rtol=1e-8, atol=1e-8
        )
        systems += 1
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(
        "5 fundamental-lemma round trip (100 systems)",
        ok and systems >= 100 and elapsed < 60.0,
    )


def test_criterion_6_consistency_reproduction():
    rng = np.random.default_rng(43)
    R = PolyMatrix([[X + 1, X, X + 2], [X * X - 1, X * X - X, X * X + X - 2]])

    basis = syzygy_basis(R)
    target = (Poly([1, -1]), Poly([1]))
    ok = len(basis) == 1
    if ok:
        lam = basis[0]
        # mutual membership in the rank-one module by exact division
        unit = lam[1].exact_div(target[1])
        ok = unit.is_constant and not unit.is_zero and lam[0] == unit * target[0]

    alternating = OffsetSequence(
        tuple((Fraction((-1) ** t), Fraction(-2 * (-1) ** t)) for t in range(1, 7))
    )
    ok = ok and consistent_sequence(R, alternating)
    ok = ok and not consistent_sequence(R, OffsetSequence.constant([0, 1], 6))

    disagreements = 0
    checked = 0
    while checked < 200:
        g = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        if checked % 2:
            candidate = random_poly_matrix(rng, g, q, max_degree=2)
        else:
            candidate = random_poly_matrix(rng, g, 1, max_degree=1) @ random_poly_matrix(
                rng, 1, q, max_degree=1
            )
        if candidate.is_zero or candidate.degree > 2:
            continue
        c = tuple(int(v) for v in rng.integers(-3, 4, size=g))
        delta = max(
            (max(e.degree for e in lam) for lam in syzygy_basis(candidate)), default=-1
        )
        window = max(candidate.degree + 1, delta + 1)
        constant_verdict = consistent_constant(AffineKernelRep(candidate, c))
        sequence_verdict = consistent_sequence(
            candidate, OffsetSequence.constant(c, window)
        )
        if constant_verdict != sequence_verdict:
            disagreements += 1
        checked += 1
    report(
        "6 worked consistency instances and dual-oracle agreement (200 cases)",
        ok and disagreements == 0,
    )


def test_criterion_7_equivalence_suite():
    rng = np.random.default_rng(44)
    ok = True
    flips_checked = 0
    for _ in range(100):
        g = int(rng.integers(1, 3))
        q = int(rng.integers(g, 4))
        R = random_poly_matrix(rng, g, q, max_degree=2)
        anchor = [int(v) for v in rng.integers(-3, 4, size=q)]
        r_at_one = R.evaluate(Fraction(1))
        c = tuple(
            sum(row[j] * Fraction(anchor[j]) for j in range(q)) for row in r_at_one
        )
        rep = AffineKernelRep(R, c)
        U = random_unimodular(rng, g)
        while U.degree > 2:
            U = random_unimodular(rng, g, ops=3)
        u_at_one = U.evaluate(Fraction(1))
        mapped = AffineKernelRep(
            U @ R,
            tuple(sum(u_at_one[i][j] * c[j] for j in range(g)) for i in range(g)),
        )
        ok = ok and equivalent(rep, mapped)

        bump = [int(v) for v in rng.integers(-2, 3, size=g)]
        if not any(bump):
            bump[0] = 1
        perturbed = AffineKernelRep(R, tuple(a + b for a, b in zip(c, bump)))
        if tuple(perturbed.c) != tuple(rep.c) and consistent_constant(perturbed):
            ok = ok and not equivalent(rep, perturbed)
            flips_checked += 1
    report(
        "7 unimodular equivalence and offset separation (100 instances)",
        ok and flips_checked > 0,
    )


def test_criterion_8_lifting_equivalence():
    rng = np.random.default_rng(45)
    from conftest import char_poly_at_one_reference, random_system

    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_system(rng, n, m, p)
        u = Trajectory.inputs(rng.normal(size=(20, m)))
        x0 = rng.normal(size=n)
        direct = simulate(sys, x0, u)
        lifted = lift(sys)
        via = simulate(lifted.as_state_space(), lifted.initial_state(x0), u)
        scale = 1 + np.max(np.abs(direct.y.data))
        ok = ok and np.max(np.abs(via.y.data - direct.y.data)) / scale <= 1e-10
        ok = ok and char_poly_at_one_reference(lifted) == 0
    report("8 lifted simulation match and exact eigenvalue at one (100 systems)", ok)


def test_criterion_9_invariants_from_data():
    rng = np.random.default_rng(46)
    ok = True
    systems = 0
    while systems < 50:
        sys = random_minimal_integer_system(rng, n_max=3)
        t_max = sys.n + 2
        depth = sys.n + 1
        T = (sys.m + 1) * (t_max + sys.n) + 10
        found = False
        for _ in range(60):
            u = pe_affine_input(rng, sys.m, t_max + sys.n, T, integer=True)
            result = simulate(sys, rng.integers(-2, 3, size=sys.n).astype(float), u)
            w = result.io(u)
            if np.max(np.abs(w.data)) > 2**50:
                continue
            if gape_check(w, t_max, sys.n) and gape_check(w, depth, sys.n):
                found = True
                break
        if not found:
            continue
        inv = invariants_from_data(w, t_max)
        ok = ok and (inv.m, inv.n) == (sys.m, sys.n)
        kernel = recover_kernel(DataDrivenRep(w, depth), n=sys.n, method="exact")
        ok = ok and lag_of(kernel) == inv.ell
        systems += 1
        if not ok:
            break

    # known off-by-one of the verbatim read-offs, kept as fixtures
    increment_law = invariants_from_data(Trajectory([3, 4, 5, 6, 7]), 4)
    ok = ok and (increment_law.m, increment_law.n, increment_law.ell) == (0, 1, 1)
    ok = ok and increment_law.n_verbatim == 2 and increment_law.ell_verbatim == 2
    free_scalar = invariants_from_data(
        Trajectory(np.random.default_rng(7).normal(size=9)), 3
    )
    ok = ok and (free_scalar.m, free_scalar.n, free_scalar.ell) == (1, 0, 0)
    ok = ok and free_scalar.ell_verbatim == 1
    report(
        "9 integer invariants and kernel lag from certified data (50 systems)",
        ok and systems >= 50,
    )
