"""Nonlinear plants in a closed arithmetic form, and their linearization.

Plant maps are expression trees over state variables ``x1..xn`` and input
variables ``u1..um``.  Keeping the language closed makes analytic
differentiation exact and the JSON plant format round-trippable; arbitrary
callables are deliberately not accepted.  Each node class names its JSON tag,
and a node is written as its tag followed by its fields: ``["const", c]``,
``["var", name]``, ``["+", a, b]``, ``["-", a, b]``, ``["*", a, b]``,
``["neg", a]`` and ``["pow", a, k]`` with k a nonnegative integer (``2.5``
and ``true`` are refused).  A plant is linearized at the stacked point
z = (x, u) through one exact Jacobian of each map with respect to z; its
first n columns give A (or C), the rest B (or D).  The Jacobian is forward
mode (Griewank & Walther, *Evaluating Derivatives*, SIAM, 2nd ed., 2008):
the walk that evaluates a map returns each node's value together with its
gradient over z.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .affine_ss import AffineStateSpace
from .errors import DimensionMismatch, InvalidArgument, NonFiniteEvaluation, _count


class Expr:
    """Base node.  A subclass is a frozen dataclass whose fields are its
    operands and payload, in JSON order; it names its JSON ``tag`` and
    implements ``_forward``."""

    tag: str

    def evaluate(self, env: dict[str, float]) -> float:
        return self._forward(env, {}, [])[0]

    def _forward(self, env: dict[str, float], seeds: dict[str, list], zero: list) -> tuple:
        """The value at ``env`` and the gradient, a list of floats, over the
        variables' ``seeds`` (``zero`` for a constant or an unseeded variable)."""
        raise NotImplementedError

    def _fields(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def variables(self) -> set[str]:
        return set().union(*(v.variables() for v in self._fields() if isinstance(v, Expr)))

    def to_json(self):
        return [self.tag, *(v.to_json() if isinstance(v, Expr) else v for v in self._fields())]

    def __add__(self, other):
        return Add(self, _wrap(other))

    def __radd__(self, other):
        return Add(_wrap(other), self)

    def __sub__(self, other):
        return Sub(self, _wrap(other))

    def __rsub__(self, other):
        return Sub(_wrap(other), self)

    def __mul__(self, other):
        return Mul(self, _wrap(other))

    def __rmul__(self, other):
        return Mul(_wrap(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, exponent: int):
        return Pow(self, exponent)


def _wrap(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


@dataclass(frozen=True)
class Const(Expr):
    value: float
    tag = "const"

    def _forward(self, env, seeds, zero):
        return self.value, zero


@dataclass(frozen=True)
class Var(Expr):
    name: str
    tag = "var"

    def _forward(self, env, seeds, zero):
        try:
            return env[self.name], seeds.get(self.name, zero)
        except KeyError:
            raise DimensionMismatch(f"unknown variable {self.name!r}") from None

    def variables(self):
        return {self.name}


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr
    tag = "+"

    def _forward(self, env, seeds, zero):
        a, da = self.left._forward(env, seeds, zero)
        b, db = self.right._forward(env, seeds, zero)
        return a + b, [x + y for x, y in zip(da, db)]


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr
    tag = "-"

    def _forward(self, env, seeds, zero):
        a, da = self.left._forward(env, seeds, zero)
        b, db = self.right._forward(env, seeds, zero)
        return a - b, [x - y for x, y in zip(da, db)]


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr
    tag = "*"

    def _forward(self, env, seeds, zero):
        a, da = self.left._forward(env, seeds, zero)
        b, db = self.right._forward(env, seeds, zero)
        return a * b, [x * b + a * y for x, y in zip(da, db)]


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr
    tag = "neg"

    def _forward(self, env, seeds, zero):
        a, da = self.operand._forward(env, seeds, zero)
        return -a, [-x for x in da]


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int
    tag = "pow"

    def __post_init__(self):
        object.__setattr__(self, "exponent", _count(self.exponent, "exponent"))

    def _forward(self, env, seeds, zero):
        a, da = self.base._forward(env, seeds, zero)
        k = self.exponent
        if k == 0:
            return a**k, zero
        slope = float(k) * a ** (k - 1)
        return a**k, [slope * x for x in da]


_NODES = {cls.tag: cls for cls in (Const, Var, Add, Sub, Mul, Neg, Pow)}


def _number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidArgument(f"constant must be a number, got {value!r}") from None


def expr_from_json(node) -> Expr:
    """Parse the list-based expression encoding used in plant JSON files.

    A node of unknown tag or arity, or a constant that is not a number,
    raises :class:`InvalidArgument`; so does a ``pow`` exponent that is not
    a nonnegative integer.
    """
    cls = None
    if isinstance(node, (list, tuple)) and node and isinstance(node[0], str):
        cls = _NODES.get(node[0])
    if cls is None or len(node) != 1 + len(fields(cls)):
        raise InvalidArgument(f"malformed expression node: {node!r}")
    return cls(*(_READ[f.type](arg) for f, arg in zip(fields(cls), node[1:])))


# field annotation (a string, annotations being postponed) -> reader of its
# JSON value; Pow checks its own exponent
_READ = {"Expr": expr_from_json, "float": _number, "str": str, "int": lambda v: v}


def state_var(i: int) -> Var:
    return Var(f"x{_count(i, 'i', 1)}")


def input_var(i: int) -> Var:
    return Var(f"u{_count(i, 'i', 1)}")


@dataclass(frozen=True)
class NonlinearPlant:
    """State-update and output maps as expression trees.

    ``f`` holds the n state-update expressions, ``h`` the p output
    expressions, all over the variables x1..xn and u1..um.
    """

    f: tuple[Expr, ...]
    h: tuple[Expr, ...]
    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "h", tuple(self.h))
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "m", _count(self.m, "m"))
        if len(self.f) != self.n:
            raise DimensionMismatch(f"expected {self.n} state updates, got {len(self.f)}")
        # the coordinates of the stacked point z = (x, u)
        names = tuple(f"x{i}" for i in range(1, self.n + 1)) + tuple(
            f"u{i}" for i in range(1, self.m + 1)
        )
        object.__setattr__(self, "_names", names)
        unknown = set().union(*(e.variables() for e in (*self.f, *self.h))) - set(names)
        if unknown:
            raise DimensionMismatch(f"expressions use undeclared variables {sorted(unknown)}")
        if self.m + len(self.h) == 0:
            raise DimensionMismatch("a plant needs at least one input or output (m + p > 0)")

    @property
    def p(self) -> int:
        return len(self.h)

    def _eval(self, exprs, z) -> tuple[np.ndarray, np.ndarray]:
        """The maps at z and, from the same walk, their Jacobian ∂exprs/∂z:
        one row per expression, one column per coordinate."""
        env = dict(zip(self._names, map(float, z)))
        width = len(self._names)
        # coordinate i is seeded with the i-th unit row
        seeds = {name: [float(i == j) for j in range(width)] for i, name in enumerate(self._names)}
        try:
            walks = [e._forward(env, seeds, [0.0] * width) for e in exprs]
            values = np.array([value for value, _ in walks], dtype=float)
            J = np.array([gradient for _, gradient in walks], dtype=float).reshape(len(exprs), width)
        except OverflowError:
            raise NonFiniteEvaluation("plant map overflowed") from None
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(J))):
            raise NonFiniteEvaluation("plant map or its Jacobian evaluated to a non-finite value")
        return values, J


def _check_point(plant: NonlinearPlant, xbar, ubar, ybar):
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    ubar = np.asarray(ubar, dtype=float).reshape(-1)
    ybar = np.asarray(ybar, dtype=float).reshape(-1)
    if xbar.size != plant.n or ubar.size != plant.m or ybar.size != plant.p:
        raise DimensionMismatch(
            f"operating point sizes ({xbar.size}, {ubar.size}, {ybar.size}) do not "
            f"match plant dimensions ({plant.n}, {plant.m}, {plant.p})"
        )
    return xbar, ubar, ybar


def linearize(plant: NonlinearPlant, xbar, ubar, ybar) -> AffineStateSpace:
    """Affine model of a plant around an operating point (not necessarily an
    equilibrium).

    A, B, C, D are the exact Jacobians of the maps at (xbar, ubar); the
    offsets are the map residuals E = f(xbar, ubar) - xbar and
    F = h(xbar, ubar) - ybar, which vanish exactly at an equilibrium.  A map
    or derivative that overflows or is not finite raises
    :class:`NonFiniteEvaluation`.
    """
    xbar, ubar, ybar = _check_point(plant, xbar, ubar, ybar)
    z = np.concatenate([xbar, ubar])
    fz, Jf = plant._eval(plant.f, z)
    hz, Jh = plant._eval(plant.h, z)
    A, B = np.hsplit(Jf, [plant.n])
    C, D = np.hsplit(Jh, [plant.n])
    return AffineStateSpace(A, B, C, D, fz - xbar, hz - ybar)
