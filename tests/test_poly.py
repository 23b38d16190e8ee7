from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsuff.errors import InvalidInputError
from jetsuff.poly import Poly


def eval_exact(p, x):
    """p at the point x in Fraction arithmetic."""
    total = Fraction(0)
    for e, c in p.terms.items():
        for xi, ei in zip(x, e):
            c = c * Fraction(xi) ** ei
        total += c
    return total


def test_basic_algebra():
    x = Poly(2, {(1, 0): 1})
    y = Poly(2, {(0, 1): 1})
    p = x * x + y.scale(3)
    assert p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(3)}
    assert (p - p) == Poly.zero(2)


@pytest.mark.parametrize("exps", [(2.5, 0), (True, 0), (0, np.True_), (0, 1.0 + 1e-9)])
def test_exponents_must_be_integers(exps):
    # int() used to read (2.5, 0) as x1^2 and (True, 0) as x1
    with pytest.raises(InvalidInputError, match="exponents must be integers"):
        Poly(2, {exps: 1})


def test_integral_exponents_of_any_type():
    assert Poly(2, {(np.int64(2), 1.0): 3}).terms == {(2, 1): Fraction(3)}


def test_eval_matches_monomials():
    p = Poly(2, {(2, 1): Fraction(3, 2), (0, 3): -1})
    assert p.eval([2.0, 1.0]) == pytest.approx(1.5 * 4 - 1.0)


def test_deriv_is_exact():
    p = Poly(2, {(3, 2): 5})
    assert p.deriv(0).terms == {(2, 2): Fraction(15)}
    assert p.deriv(1).terms == {(3, 1): Fraction(10)}
    assert Poly.constant(2, 7).deriv(0) == Poly.zero(2)


def test_truncate():
    p = Poly(1, {(2,): 1, (3,): 1})
    assert p.truncated(2).terms == {(2,): Fraction(1)}


def test_shift_exact_rational():
    # (x+1)^2 = x^2 + 2x + 1 expanded around a = 1
    p = Poly(1, {(2,): 1})
    q = p.shifted([Fraction(1)])
    assert q.terms == {(2,): Fraction(1), (1,): Fraction(2), (0,): Fraction(1)}


def test_shift_of_float_point_is_exact():
    # floats are converted to Fraction exactly, so shifting back and forth
    # is the identity on the coefficients
    p = Poly(2, {(2, 1): Fraction(3), (1, 0): Fraction(-2)})
    a = [0.1, -0.3]
    back = p.shifted(a).shifted([-Fraction(v) for v in map(Fraction, a)])
    assert back == p


simple_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5).map(Fraction),
    max_size=6,
).map(lambda d: Poly(2, d))


@settings(max_examples=50, deadline=None)
@given(simple_polys, simple_polys, st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
def test_ring_homomorphism_under_eval(p, q, x):
    x = np.array(x)
    assert (p + q).eval(x) == pytest.approx(p.eval(x) + q.eval(x), abs=1e-9)
    assert (p * q).eval(x) == pytest.approx(p.eval(x) * q.eval(x), rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(simple_polys, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_shift_evaluates_consistently(p, a):
    a = [Fraction(v) for v in a]
    q = p.shifted(a)
    # q(u) = p(a + u) exactly
    for u in ([Fraction(0), Fraction(0)], [Fraction(1), Fraction(-2)]):
        assert eval_exact(q, u) == eval_exact(p, [ai + ui for ai, ui in zip(a, u)])


def test_eval_many_matches_eval():
    p = Poly(3, {(1, 2, 0): Fraction(2), (0, 0, 3): Fraction(-1, 2)})
    X = np.array([[0.5, 1.0, 2.0], [1.0, -1.0, 0.0]])
    out = p.eval_many(X)
    assert out == pytest.approx([p.eval(x) for x in X])
