from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atisys import (
    AffineKernelRep,
    OffsetSequence,
    Poly,
    PolyMatrix,
    consistent_constant,
    consistent_sequence,
    exactla,
    io_formats,
    poly_gcd,
)
from conftest import null_space
from atisys.errors import AtisysError, InvalidArgument, NonFiniteEntry, ZeroDivisor

coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=6)


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]).coefficients == (1, 2)
    assert Poly([0, 0]).is_zero
    assert Poly([]).degree == -1


def test_the_zero_polynomial_leads_with_zero():
    assert Poly.zero().leading_coefficient == 0 and Poly([0, 2]).leading_coefficient == 2


def test_constant_equals_its_number():
    assert Poly([3]) == 3 and Poly([Fraction(1, 2)]) == Fraction(1, 2)
    assert Poly([3]) != 4 and Poly([0, 1]) != 0


@pytest.mark.parametrize("value", [Poly([1, 2]), PolyMatrix([[Poly([1, 2])]])])
def test_comparison_with_a_string_is_not_implemented(value):
    assert value.__eq__("1 + 2x") is NotImplemented
    assert value != "1 + 2x"


def test_float_coercion_is_strict():
    assert Poly([2.0]).coefficients == (2,)
    with pytest.raises(InvalidArgument):
        Poly([0.1])


def test_str_forms():
    assert str(Poly([1, -1])) == "1 - x"
    assert str(Poly([0, 0, Fraction(1, 2)])) == "1/2*x^2"
    assert str(Poly.zero()) == "0"


def test_divmod_known_case():
    num = Poly([-1, 0, 1])  # x^2 - 1
    den = Poly([1, 1])      # x + 1
    q, r = divmod(num, den)
    assert q == Poly([-1, 1]) and r.is_zero
    assert num.exact_div(den) == q


@pytest.mark.parametrize(
    "operation",
    [divmod, lambda a, b: a // b, lambda a, b: a % b, lambda a, b: a.exact_div(b)],
    ids=["divmod", "floordiv", "mod", "exact_div"],
)
def test_division_by_the_zero_polynomial_is_typed(operation):
    for dividend in (Poly([1, 2]), Poly.zero()):
        with pytest.raises(ZeroDivisor) as raised:
            operation(dividend, Poly.zero())
        assert isinstance(raised.value, AtisysError) and isinstance(raised.value, ZeroDivisionError)


def test_the_zero_polynomial_divides_only_zero():
    # divides is a test, not a division: 0 | b exactly when b = 0
    assert Poly.zero().divides(Poly.zero())
    assert not Poly.zero().divides(Poly([1, 2]))


def test_exact_div_rejects_remainder():
    with pytest.raises(ValueError):
        Poly([1, 1, 1]).exact_div(Poly([0, 1]))


def test_evaluation_is_exact_on_fractions():
    p = Poly([Fraction(1, 3), 2, 1])
    assert p(Fraction(1, 2)) == Fraction(1, 3) + 1 + Fraction(1, 4)


def test_gcd_known_case():
    a = Poly([-1, 0, 1])  # (x-1)(x+1)
    b = Poly([-1, 1]) * Poly([2, 1])
    assert poly_gcd(a, b) == Poly([-1, 1])


@given(coeff_lists, coeff_lists)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b):
    pa, pb = Poly(a), Poly(b)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa - pb) + pb == pa


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=200, deadline=None)
def test_distributivity(a, b, c):
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(coeff_lists, coeff_lists)
@settings(max_examples=200, deadline=None)
def test_division_identity(a, b):
    pa, pb = Poly(a), Poly(b)
    if pb.is_zero:
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.is_zero or r.degree < pb.degree


@given(coeff_lists, coeff_lists)
@settings(max_examples=150, deadline=None)
def test_gcd_divides_both(a, b):
    pa, pb = Poly(a), Poly(b)
    g = poly_gcd(pa, pb)
    if g.is_zero:
        assert pa.is_zero and pb.is_zero
    else:
        assert g.divides(pa) and g.divides(pb)


# -- arithmetic results against a dict reference -----------------------------

fraction_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=0, max_size=5
)


def as_dict(p: Poly) -> dict:
    return {k: c for k, c in enumerate(p.coefficients)}


def from_dict(d: dict) -> tuple:
    """Reference coefficients: ascending, trailing zeros dropped."""
    top = max((k for k, c in d.items() if c != 0), default=-1)
    return tuple(d.get(k, Fraction(0)) for k in range(top + 1))


def dict_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * c
    return out


def dict_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return out


def exact_fractions(p: Poly) -> bool:
    return all(type(c) is Fraction for c in p.coefficients) and (
        not p.coefficients or p.coefficients[-1] != 0
    )


def test_trimming_after_cancellation():
    p = Poly([1, 2, 3])
    assert (p - p) == Poly.zero() and (p - p).coefficients == ()
    x = Poly.x()
    assert ((x + 1) - x).coefficients == (1,)
    assert (x + (-x)).coefficients == ()
    assert (3 - Poly([3])).coefficients == ()


@given(fraction_coeffs, fraction_coeffs, st.fractions(min_value=-3, max_value=3, max_denominator=5))
@settings(max_examples=200, deadline=None)
def test_results_match_dict_reference(a, b, s):
    pa, pb = Poly(a), Poly(b)
    da, db = as_dict(pa), as_dict(pb)
    cases = {
        "add": (pa + pb, from_dict(dict_add(da, db))),
        "sub": (pa - pb, from_dict(dict_add(da, db, -1))),
        "rsub": (1 - pa, from_dict(dict_add({0: Fraction(1)}, da, -1))),
        "neg": (-pa, from_dict({k: -c for k, c in da.items()})),
        "mul": (pa * pb, from_dict(dict_mul(da, db))),
        "scale": (pa.scale(s), from_dict({k: s * c for k, c in da.items()})),
        "shift": (pa.shift(2), from_dict({k + 2: c for k, c in da.items()})),
    }
    if not pb.is_zero:
        q, r = divmod(pa, pb)
        cases["divmod"] = (q * pb + r, from_dict(da))
        assert r.is_zero or r.degree < pb.degree
        assert exact_fractions(q) and exact_fractions(r)
    for name, (result, expected) in cases.items():
        assert result.coefficients == expected, name
        assert exact_fractions(result), name


# -- the integer representation against a Fraction reference -----------------

# small fractions, binary floats read exactly (denominators near 2**107) and
# integers near +-2**40
wide_coefficient = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.floats(min_value=2.0**-56, max_value=2.0**-50).map(Fraction),
    st.floats(min_value=-(2.0**-50), max_value=-(2.0**-56)).map(Fraction),
    st.integers(2**40 - 5, 2**40 + 5).map(Fraction),
    st.integers(-(2**40) - 5, -(2**40) + 5).map(Fraction),
)
wide_coeffs = st.lists(wide_coefficient, min_size=0, max_size=5)
wide_value = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.integers(2**40 - 3, 2**40 + 3),
    st.integers(-(2**40) - 3, -(2**40) + 3),
)


def dict_divmod(a: dict, b: dict) -> tuple[dict, dict]:
    """Schoolbook long division on Fraction coefficients."""
    top_b = max(k for k, c in b.items() if c)
    lead = b[top_b]
    quotient = {}
    remainder = {k: c for k, c in a.items() if c}
    while remainder and max(remainder) >= top_b:
        top = max(remainder)
        factor = remainder[top] / lead
        quotient[top - top_b] = factor
        for k, c in b.items():
            remainder[top - top_b + k] = remainder.get(top - top_b + k, Fraction(0)) - factor * c
        remainder = {k: c for k, c in remainder.items() if c}
    return quotient, remainder


def dict_eval(a: dict, value) -> Fraction:
    return sum((c * Fraction(value) ** k for k, c in a.items()), Fraction(0))


@given(wide_coeffs, wide_coeffs, wide_coefficient, wide_value)
@settings(max_examples=300, deadline=None)
def test_integer_storage_matches_fraction_reference(a, b, s, v):
    pa, pb = Poly(a), Poly(b)
    da, db = as_dict(pa), as_dict(pb)
    assert pa.coefficients == from_dict(dict(enumerate(a)))
    cases = {
        "add": (pa + pb, from_dict(dict_add(da, db))),
        "mul": (pa * pb, from_dict(dict_mul(da, db))),
        "scale": (pa.scale(s), from_dict({k: s * c for k, c in da.items()})),
    }
    if not pa.is_zero:
        lead = pa.coefficients[-1]
        cases["monic"] = (pa.monic(), from_dict({k: c / lead for k, c in da.items()}))
    if not pb.is_zero:
        q, r = divmod(pa, pb)
        dq, dr = dict_divmod(da, db)
        cases["quotient"] = (q, from_dict(dq))
        cases["remainder"] = (r, from_dict(dr))
        cases["exact_div"] = ((pa * pb).exact_div(pb), from_dict(da))
    for name, (result, expected) in cases.items():
        assert result.coefficients == expected, name
        assert exact_fractions(result), name
    value = pa(v)
    assert value == dict_eval(da, v) and type(value) is Fraction


@given(wide_coeffs, wide_coeffs)
@settings(max_examples=200, deadline=None)
def test_equal_polynomials_hash_equal(a, b):
    pa, pb = Poly(a), Poly(b)
    pairs = [
        (pa * pb, pb * pa),
        ((pa + pb) - pb, pa),
        (pa.scale(3).scale(Fraction(1, 3)), pa),
        (Poly.from_numerators([6 * n for n in pa.numerators], 6 * pa.denominator), pa),
    ]
    if not pb.is_zero:
        pairs.append(((pa * pb).exact_div(pb), pa))
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)
        assert (left.numerators, left.denominator) == (right.numerators, right.denominator)
        assert gcd(left.denominator, *left.numerators) == 1 and left.denominator > 0


# -- one reader for exact numbers ------------------------------------------


def _stored(p: Poly) -> tuple:
    """The numerator and denominator a constant polynomial stores."""
    return (*p.numerators, p.denominator)


def _fraction(f: Fraction) -> tuple:
    return f.numerator, f.denominator


def _evaluated(value) -> tuple:
    """The value of x at ``value``: evaluation reads its point by the one rule."""
    result = Poly.x()(value)
    assert type(result) is Fraction
    return _fraction(result)


def _exactla(value) -> tuple:
    assert exactla.rank([[value]]) == 1
    (y,) = null_space([[1, value]])  # (-value, 1)
    return _fraction(-y[0])


READERS = {
    "Poly": lambda v: _stored(Poly([v])),
    "PolyMatrix": lambda v: _stored(PolyMatrix([[v]]).entry(0, 0)),
    "from_coefficient_blocks": lambda v: _stored(
        PolyMatrix.from_coefficient_blocks([[[v]]]).entry(0, 0)
    ),
    "AffineKernelRep": lambda v: _fraction(AffineKernelRep(PolyMatrix([[1]]), [v]).c[0]),
    "OffsetSequence": lambda v: _fraction(OffsetSequence([[v]]).values[0][0]),
    "OffsetSequence.constant": lambda v: _fraction(OffsetSequence.constant([v], 2).values[1][0]),
    "Poly.__call__": _evaluated,
    "poly_matrix_from_json": lambda v: _stored(
        io_formats.poly_matrix_from_json({"rows": 1, "cols": 1, "entries": [[[v]]]}).entry(0, 0)
    ),
    "kernel_rep_from_json": lambda v: _fraction(
        io_formats.kernel_rep_from_json({"rows": 1, "cols": 1, "entries": [[[1]]], "c": [v]})[1][0]
    ),
    "exactla": _exactla,
}
PARSERS = {"poly_matrix_from_json", "kernel_rep_from_json"}
# each value with the (numerator, denominator) every reader stores, or the error it raises
VALUES = {
    "int": (3, (3, 1)),
    "bool": (True, (1, 1)),
    "int64": (np.int64(2**40), (2**40, 1)),
    "fraction-of-int64": (Fraction(np.int64(5)), (5, 1)),
    "fraction": (Fraction(3, 4), (3, 4)),
    "string": ("3/4", (3, 4)),
    "integer-float": (2.0, (2, 1)),
    "float": (0.1, InvalidArgument),
    "nan": (float("nan"), NonFiniteEntry),
    "inf": (float("inf"), NonFiniteEntry),
    "zero-denominator": ("1/0", InvalidArgument),
    "not-a-number": ("abc", InvalidArgument),
    "object": (object(), InvalidArgument),
}


@pytest.mark.parametrize(
    "reader, value, expected",
    [
        pytest.param(name, value, expected, id=f"{name}-{kind}")
        for name in READERS
        for kind, (value, expected) in VALUES.items()
        # exactla reads a binary float as the rational it encodes
        if not (name == "exactla" and isinstance(value, float))
    ],
)
@pytest.mark.filterwarnings("error")
def test_every_entry_point_reads_by_one_rule(reader, value, expected):
    read = READERS[reader]
    # a JSON true or false is not a number; the library readers take bool as int
    if isinstance(expected, tuple) and not (reader in PARSERS and type(value) is bool):
        stored = read(value)
        assert stored == expected and all(type(v) is int for v in stored)
        return
    error = io_formats.FormatError if reader in PARSERS else expected
    with pytest.raises(error):
        read(value)


@pytest.mark.filterwarnings("error")
def test_numpy_offsets_do_not_overflow():
    R = PolyMatrix([[1], [2**40]])  # the syzygy (2**40, -1) tests 2**40 c_1 = c_2
    offsets = [2**24 + 1, 2**40]
    assert not consistent_constant(AffineKernelRep(R, offsets))
    assert not consistent_constant(AffineKernelRep(R, np.array(offsets)))
    assert not consistent_sequence(R, OffsetSequence([offsets]))
    assert not consistent_sequence(R, OffsetSequence(np.array([offsets])))


@pytest.mark.filterwarnings("error")
def test_coefficient_blocks_store_python_integers():
    R = PolyMatrix.from_coefficient_blocks([np.array([[2**40]]), np.array([[1]])])
    e = R.entry(0, 0)
    assert (e * e).coefficient(0) == 2**80


def test_coefficient_blocks_from_one_array():
    R = PolyMatrix.from_coefficient_blocks(np.array([[[1, 2]], [[3, 4]]]))
    assert R == PolyMatrix([[Poly([1, 3]), Poly([2, 4])]])
