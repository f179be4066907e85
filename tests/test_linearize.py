import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atisys import NonlinearPlant, expr_from_json, input_var, linearize, state_var
from atisys.errors import DimensionMismatch, InvalidArgument, NonFiniteEvaluation
from atisys.plants import Add, Const, Mul, Neg, Pow, Sub, Var
from conftest import linearize_reference


def scalar_square_plant():
    x = state_var(1)
    return NonlinearPlant(f=(x * x,), h=(x,), n=1, m=1)


class TestExpressions:
    def test_json_round_trip(self):
        x, u = state_var(1), input_var(1)
        expr = (x * x - 2 * u) ** 2 + (-x)
        rebuilt = expr_from_json(expr.to_json())
        env = {"x1": 1.3, "u1": -0.4}
        assert rebuilt.evaluate(env) == expr.evaluate(env)

    @pytest.mark.parametrize(
        "node",
        [
            ["pow", ["var", "x1"], 2.5],
            ["pow", ["var", "x1"], True],
            ["+", ["var", "x1"]],
            ["neg", ["var", "x1"], ["var", "x1"]],
            ["const"],
            ["sin", ["var", "x1"]],
        ],
        ids=["pow-fraction", "pow-bool", "add-arity", "neg-arity", "const-arity", "sin"],
    )
    def test_malformed_json(self, node):
        # InvalidArgument is a ValueError, so callers catching ValueError still do
        with pytest.raises(InvalidArgument):
            expr_from_json(node)

    @pytest.mark.parametrize(
        "expr, doc, names",
        [
            (Const(1.5), ["const", 1.5], set()),
            (Var("x1"), ["var", "x1"], {"x1"}),
            (Add(Var("x1"), Const(2.0)), ["+", ["var", "x1"], ["const", 2.0]], {"x1"}),
            (Sub(Var("x1"), Var("u1")), ["-", ["var", "x1"], ["var", "u1"]], {"x1", "u1"}),
            (Mul(Var("x2"), Var("u1")), ["*", ["var", "x2"], ["var", "u1"]], {"x2", "u1"}),
            (Neg(Var("u2")), ["neg", ["var", "u2"]], {"u2"}),
            (Pow(Var("x1"), 3), ["pow", ["var", "x1"], 3], {"x1"}),
        ],
        ids=["const", "var", "+", "-", "*", "neg", "pow"],
    )
    def test_every_tag_round_trips(self, expr, doc, names):
        assert expr.to_json() == doc
        assert expr_from_json(expr.to_json()) == expr
        assert expr.variables() == names

    def test_integer_constant_reads_as_float(self):
        assert expr_from_json(["const", 2]).to_json() == ["const", 2.0]

    def test_exponent_must_be_a_nonnegative_integer(self):
        for exponent in (2.0, True, -1):
            with pytest.raises(InvalidArgument):
                Pow(state_var(1), exponent)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(DimensionMismatch):
            NonlinearPlant(f=(state_var(2),), h=(), n=1, m=0)

    def test_plant_without_external_variable_rejected(self):
        # m = p = 0 leaves linearize nothing to serve, so the constructor refuses it
        for f, n in [((Const(0.0),), 1), ((), 0)]:
            with pytest.raises(DimensionMismatch):
                NonlinearPlant(f=f, h=(), n=n, m=0)
        assert NonlinearPlant(f=(Const(0.0),), h=(), n=1, m=1).p == 0

    def test_unknown_variable_is_a_naming_error(self):
        with pytest.raises(DimensionMismatch, match="x9"):
            Var("x9").evaluate({"x1": 1.0})
        with pytest.raises(DimensionMismatch):
            (state_var(1) * input_var(2)).evaluate({"x1": 1.0, "u1": 2.0})

    def test_a_number_on_the_left_becomes_a_constant(self):
        for expr, node in ((2 + Var("x1"), Add), (2 - Var("x1"), Sub)):
            assert type(expr) is node and expr.to_json()[1:] == [["const", 2.0], ["var", "x1"]]


class TestLinearize:
    def test_scalar_square_away_from_equilibrium(self):
        sys = linearize(scalar_square_plant(), [2.0], [0.0], [2.0])
        assert sys.A.item() == pytest.approx(4.0)
        assert sys.E.item() == pytest.approx(2.0)  # f(2) - 2 = 4 - 2
        assert sys.C.item() == pytest.approx(1.0)
        assert sys.F.item() == pytest.approx(0.0)
        assert sys.B.item() == 0.0 and sys.D.item() == 0.0

    def test_equilibrium_gives_zero_offsets(self):
        x, u = state_var(1), input_var(1)
        plant = NonlinearPlant(f=(x * x - 2 * x + u,), h=(x,), n=1, m=1)
        # x = u = 0 is a fixed point, f(0, 0) = 0 = x, with output h(0) = 0 = y
        sys = linearize(plant, [0.0], [0.0], [0.0])
        assert sys.E.item() == 0.0 and sys.F.item() == 0.0

    def test_affine_plant_recovered_exactly(self):
        x1, x2, u1 = state_var(1), state_var(2), input_var(1)
        plant = NonlinearPlant(
            f=(2 * x1 - x2 + 3 * u1 + Const(1.0), x2 + u1 - Const(2.0)),
            h=(x1 + x2 + Const(0.5),),
            n=2,
            m=1,
        )
        sys = linearize(plant, [0.7, -0.3], [0.25], [0.0])
        assert np.allclose(sys.A, [[2, -1], [0, 1]])
        assert np.allclose(sys.B, [[3], [1]])
        assert np.allclose(sys.C, [[1, 1]])
        # offsets absorb both the written constants and the operating point
        xbar, ubar = np.array([0.7, -0.3]), np.array([0.25])
        f_val = np.array([2 * 0.7 + 0.3 + 3 * 0.25 + 1, -0.3 + 0.25 - 2])
        assert np.allclose(sys.E, f_val - xbar)

    def test_operating_point_sizes_checked(self):
        with pytest.raises(DimensionMismatch):
            linearize(scalar_square_plant(), [1.0, 2.0], [0.0], [0.0])

    def test_nonfinite_evaluation_surfaces(self):
        x = state_var(1)
        plant = NonlinearPlant(f=((x ** 30) ** 30,), h=(x,), n=1, m=0)
        with pytest.raises(NonFiniteEvaluation):
            linearize(plant, [1e300], [], [0.0])

    def test_product_that_overflows_to_inf_is_non_finite(self):
        # float multiplication overflows to inf without raising OverflowError
        x = state_var(1)
        assert (x * x).evaluate({"x1": 1e200}) == np.inf
        with pytest.raises(NonFiniteEvaluation):
            linearize(NonlinearPlant(f=(x * x,), h=(x,), n=1, m=0), [1e200], [], [0.0])


def _affine(row_x, row_u, const):
    """c + sum a_j x_j + sum b_k u_k, built as the records benchmark builds its plants."""
    expr = Const(float(const))
    for j, v in enumerate(row_x):
        expr = expr + Const(float(v)) * state_var(j + 1)
    for k, v in enumerate(row_u):
        expr = expr + Const(float(v)) * input_var(k + 1)
    return expr


x1, x2, u2 = state_var(1), state_var(2), input_var(2)

# plant, operating point, and A..F differentiated by hand; every number is
# dyadic, so the analytic Jacobians are exact
HAND_DERIVED = {
    # f1 = .5 + .25 x1 - x2 + 2 u1 + .75 x1 x2, f2 = x1 + .5 u1, h = x2
    "quadratic": (
        NonlinearPlant(
            f=(
                _affine([0.25, -1.0], [2.0], 0.5) + Const(0.75) * x1 * x2,
                _affine([1.0, 0.0], [0.5], 0.0),
            ),
            h=(_affine([0.0, 1.0], [0.0], 0.0),),
            n=2,
            m=1,
        ),
        ([0.5, -1.5], [0.25], [2.0]),
        (
            [[0.25 + 0.75 * -1.5, -1.0 + 0.75 * 0.5], [1.0, 0.0]],
            [[2.0], [0.5]],
            [[0.0, 1.0]],
            [[0.0]],
            [2.0625 - 0.5, 0.625 + 1.5],
            [-1.5 - 2.0],
        ),
    ),
    # f = -1 + .5 x1 + .5 u1 + .125 x1^3, h = 2 x1 + u1
    "cubic": (
        NonlinearPlant(
            f=(_affine([0.5], [0.5], -1.0) + Const(0.125) * x1 ** 3,),
            h=(_affine([2.0], [1.0], 0.0),),
            n=1,
            m=1,
        ),
        ([0.5], [0.25], [0.0]),
        (
            [[0.5 + 3 * 0.125 * 0.5 ** 2]],
            [[0.5]],
            [[2.0]],
            [[1.0]],
            [-0.609375 - 0.5],
            [1.25],
        ),
    ),
    # f = .5 x1 + u2, h = 1 + x1 + .5 u1 + 1.5 x1 u2
    "bilinear": (
        NonlinearPlant(
            f=(_affine([0.5], [0.0, 1.0], 0.0),),
            h=(_affine([1.0], [0.5, 0.0], 1.0) + Const(1.5) * x1 * u2,),
            n=1,
            m=2,
        ),
        ([-1.5], [0.25, 2.0], [1.0]),
        (
            [[0.5]],
            [[0.0, 1.0]],
            [[1.0 + 1.5 * 2.0]],
            [[0.5, 1.5 * -1.5]],
            [1.25 + 1.5],
            [-4.875 - 1.0],
        ),
    ),
}


@pytest.mark.parametrize("name", list(HAND_DERIVED))
def test_jacobians_match_hand_derivation(name):
    plant, point, expected = HAND_DERIVED[name]
    exact = linearize(plant, *point)
    for key, want in zip("ABCDEF", expected):
        assert getattr(exact, key).tolist() == want, key


def inexact(bound):
    """Floats in [-bound, bound] with full mantissas, so that a reordered
    product or sum rounds differently."""
    return st.integers(-1000 * bound, 1000 * bound).map(lambda v: v / 997)


def expressions(names):
    """Trees over every node kind: signed zeros among the constants, and
    ``pow`` exponents 0 to 4."""
    constants = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-4, 4) | inexact(4)
    leaves = constants.map(Const) | st.sampled_from(names).map(Var)
    return st.recursive(
        leaves,
        lambda inner: st.builds(Add, inner, inner)
        | st.builds(Sub, inner, inner)
        | st.builds(Mul, inner, inner)
        | st.builds(Neg, inner)
        | st.builds(Pow, inner, st.integers(0, 4)),
        max_leaves=12,
    )


@st.composite
def plants_at_points(draw):
    """A plant and an operating point, some of whose coordinates are large
    enough for a map or a derivative to overflow."""
    n, m, p = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
    names = [f"x{i}" for i in range(1, n + 1)] + [f"u{i}" for i in range(1, m + 1)]
    maps = draw(st.lists(expressions(names), min_size=n + p, max_size=n + p))
    coordinate = st.floats(-3, 3) | inexact(3) | st.sampled_from([0.0, -0.0, 1e80, -1e155])
    point = [draw(st.lists(coordinate, min_size=k, max_size=k)) for k in (n, m, p)]
    return NonlinearPlant(f=maps[:n], h=maps[n:], n=n, m=m), point


# the console-script check's plant: every node kind in one map
u1 = input_var(1)
EVERY_KIND = NonlinearPlant(f=(-(x1**3) - 2 * u1**0 + x1 * u1,), h=(x1 - u1,), n=1, m=1)


@settings(max_examples=200, deadline=None)
@given(plants_at_points())
@example((EVERY_KIND, [[2.0], [0.5], [1.0]]))
# 3 * a**2 times the base's gradient 0.1 rounds otherwise than 3 * (a**2 * 0.1)
@example((NonlinearPlant(f=((0.1 * x1) ** 3,), h=(x1,), n=1, m=0), [[1.3], [], [0.0]]))
def test_forward_mode_matches_derivative_trees(case):
    """The forward-mode Jacobian against the derivative-tree reference, byte
    for byte (signs of zeros included), and NonFiniteEvaluation exactly where
    it raises."""
    plant, point = case
    try:
        want = linearize_reference(plant, *point)
    except NonFiniteEvaluation:
        with pytest.raises(NonFiniteEvaluation):
            linearize(plant, *point)
        return
    got = linearize(plant, *point)
    for key, M in zip("ABCDEF", want):
        assert getattr(got, key).shape == M.shape and getattr(got, key).tobytes() == M.tobytes(), key
