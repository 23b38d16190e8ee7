import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jetsuff.errors import InvalidInputError
from jetsuff.germ import int_power
from jetsuff.poly import Poly, PolyStack
from oracles import gamma, jet_reference, poly_eval_pointwise, poly_eval_reference, same_bits


def eval_exact(p, x):
    """p at the point x in Fraction arithmetic."""
    total = Fraction(0)
    for e, c in p.terms.items():
        for xi, ei in zip(x, e):
            c = c * Fraction(xi) ** ei
        total += c
    return total


def test_basic_algebra():
    y = Poly(2, {(0, 1): 1})
    p = Poly(2, {(2, 0): 1}) + y.scale(3)
    assert p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(3)}
    assert (p - p) == Poly(2)


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
    assert Poly(2, {(0, 0): 7}).deriv(0) == Poly(2)


def test_truncate():
    p = Poly(1, {(2,): 1, (3,): 1})
    assert p.jet([0], 2).terms == {(2,): Fraction(1)}


def test_shift_exact_rational():
    # (x+1)^2 = x^2 + 2x + 1 expanded around a = 1
    p = Poly(1, {(2,): 1})
    q = p.jet([Fraction(1)], 2)
    assert q.terms == {(2,): Fraction(1), (1,): Fraction(2), (0,): Fraction(1)}


def test_shift_of_float_point_is_exact():
    # floats are converted to Fraction exactly, so shifting back and forth
    # is the identity on the coefficients
    p = Poly(2, {(2, 1): Fraction(3), (1, 0): Fraction(-2)})
    a = [0.1, -0.3]
    back = p.jet(a, 3).jet([-Fraction(v) for v in map(Fraction, a)], 3)
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
    assert (p - q).eval(x) == pytest.approx(p.eval(x) - q.eval(x), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(simple_polys, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_shift_evaluates_consistently(p, a):
    a = [Fraction(v) for v in a]
    q = p.jet(a, 6)
    # q(u) = p(a + u) exactly
    for u in ([Fraction(0), Fraction(0)], [Fraction(1), Fraction(-2)]):
        assert eval_exact(q, u) == eval_exact(p, [ai + ui for ai, ui in zip(a, u)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 6)] * n).filter(lambda e: sum(e) <= 6),
                    st.one_of(st.integers(-9, 9), st.floats(-8, 8)), max_size=8),
    st.lists(st.one_of(st.integers(-16, 16).map(lambda j: j / 8),  # dyadic
                       st.floats(-2, 2), st.sampled_from([0.0, -0.0, 1e-300])),
             min_size=n, max_size=n),
    st.integers(0, 8))))
def test_jet_is_taylors_formula(case):
    terms, a, k = case
    p = Poly(len(a), terms)
    got = p.jet(a, k)
    assert got == jet_reference(p, a, k)
    assert all(type(c) is Fraction for c in got.terms.values())


def test_eval_many_matches_eval():
    p = Poly(3, {(1, 2, 0): Fraction(2), (0, 0, 3): Fraction(-1, 2)})
    X = np.array([[0.5, 1.0, 2.0], [1.0, -1.0, 0.0]])
    out = p.eval_many(X)
    assert out == pytest.approx([p.eval(x) for x in X])


@pytest.mark.parametrize("make, message", [
    (lambda: Poly(0), "need at least one variable"),
    (lambda: Poly(2, {(1,): 1}), "bad exponent tuple"),
    (lambda: Poly(2, {(-1, 0): 1}), "bad exponent tuple"),
    (lambda: Poly(2) + Poly(3), "variable count mismatch"),
    (lambda: Poly(2) - Poly(3), "variable count mismatch"),
    (lambda: Poly(2).eval([1.0]), "point dimension"),
    # a short point raised IndexError, and extra coordinates were ignored
    (lambda: Poly(2).jet([0.5], 2), r"point dimension \(1,\) != \(2,\)"),
    (lambda: Poly(2).jet([0.5, 0.25, 1.0], 2), r"point dimension \(3,\) != \(2,\)"),
])
def test_errors_are_typed(make, message):
    # InvalidInputError is a ValueError, so older handlers still catch it
    with pytest.raises(InvalidInputError, match=message) as err:
        make()
    assert isinstance(err.value, ValueError)


# ----------------------------------------------------------------- PolyStack

X3, Y3 = Poly(2, {(3, 0): 1}), Poly(2, {(0, 1): 1})


def test_stack_of_zero_rows():
    # a reshape(0, -1) of the term table cannot infer its width
    for polys in ([X3, Y3], [Poly(2)], [Poly(2, {(9, 9): 2, (0, 0): 1})] * 3):
        out = PolyStack(2, polys).eval_many(np.zeros((0, 2)))
        assert out.shape == (0, len(polys)) and out.dtype == np.float64


def test_zero_polynomial_is_positive_zero_on_every_row():
    # its padding terms are 0 * 1, never 0 * x, so nan and inf rows give 0.0 too
    X = np.array([[0.5, -2.0], [np.nan, 1.0], [np.inf, -np.inf], [-0.0, 0.0]])
    out = PolyStack(2, [X3, Poly(2), Y3]).eval_many(X)
    assert same_bits(out[:, 1], np.zeros(4))
    assert same_bits(Poly(2).eval_many(X), np.zeros(4))
    # a sum from +0.0: -x^2 at 0 is +0.0, as numpy's dot products gave
    assert same_bits(Poly(2, {(2, 0): -1}).eval_many(X[3:]), [0.0])


def test_huge_exponent():
    x = np.array([0.5, 1.0, 2.0, -1.0, -2.0])
    want = [0.0, 1.0, np.inf, 1.0, np.inf]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert int_power(x, 2 ** 62).tolist() == want
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = Poly(2, {(2 ** 62, 1): 3}).eval_many(np.stack([x, np.full(5, 2.0)], axis=1))
    assert got.tolist() == [6 * v for v in want]


def test_nonfinite_rows_propagate_and_zero_exponents_stay_one():
    p = Poly(2, {(2, 0): 1, (0, 1): 3, (0, 0): 5})
    X = np.array([[np.nan, 1.0], [np.inf, 0.0], [1.0, np.inf], [-np.inf, -np.inf],
                  [1.0, np.nan], [2.0, -1.0]])
    want = [np.nan, np.inf, np.inf, np.nan, np.nan, 6.0]
    with np.errstate(invalid="ignore"):
        assert np.array_equal(p.eval_many(X), want, equal_nan=True)
        assert np.array_equal([poly_eval_reference(p, x) for x in X], want, equal_nan=True)
    # x^0 is 1 whatever x is: 2 y at (nan, 3) and (inf, 3) is 6
    two_y = Poly(2, {(0, 1): 2})
    assert two_y.eval_many(np.array([[np.nan, 3.0], [np.inf, 3.0]])).tolist() == [6.0, 6.0]
    assert int_power(np.array([np.nan, np.inf, -0.0]), 0).tolist() == [1.0, 1.0, 1.0]


@st.composite
def stacks(draw):
    """Up to 6 polynomials in n <= 5 variables, exponents <= 9, up to 10 terms
    each; when ``long`` is drawn the first has at least 8, the size from which
    numpy's own sums change their order."""
    n = draw(st.integers(1, 5))
    exponent = st.tuples(*[st.integers(0, 9)] * n)
    coeff = st.floats(-8, 8, allow_subnormal=False)
    long = draw(st.booleans())
    polys = [Poly(n, draw(st.dictionaries(exponent, coeff, min_size=8 if long and i == 0 else 0,
                                          max_size=10)))
             for i in range(draw(st.integers(1, 6)))]
    X = draw(arrays(np.float64, (draw(st.integers(1, 12)), n),
                    elements=st.floats(-3, 3, allow_subnormal=False)))
    return n, polys, X


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_each_row_gets_its_bits_alone_and_reversed(case):
    n, polys, X = case
    stack = PolyStack(n, polys)
    out = stack.eval_many(X)
    assert same_bits(out, [stack.eval_many(x[None, :])[0] for x in X])
    assert same_bits(out[::-1], stack.eval_many(X[::-1]))
    assert same_bits(out, np.stack([p.eval_many(X) for p in polys], axis=1))
    # and the per-point rule, which sums in term order
    assert same_bits(out, [[poly_eval_pointwise(p, x) for p in polys] for x in X])


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(0, 20), elements=st.floats(allow_subnormal=False)))
def test_int_power_is_the_stack_column(x):
    stack = PolyStack(1, [Poly(1, {(p,): 1}) for p in range(71)])
    with np.errstate(all="ignore"):
        table = stack.eval_many(x[:, None])
        for p in range(71):
            # a column is 0.0 + 1 * x^p, equal to x^p up to the sign of a zero
            assert np.array_equal(int_power(x, p), table[:, p], equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 6)] * n).filter(lambda e: sum(e) <= 6),
                    st.floats(-8, 8).filter(lambda c: c == 0 or abs(c) > 1e-6),
                    min_size=1, max_size=10),
    st.lists(st.floats(-2, 2).filter(lambda v: v == 0 or abs(v) > 1e-3), min_size=n, max_size=n))))
def test_rounding_within_the_product_bound(case):
    # |computed - exact| <= gamma_(M+T) sum_t |c_t m_t(x)|, with M the largest
    # total degree and T the number of terms (Higham 2002, sec. 3.1)
    terms, x = case
    p = Poly(len(x), terms)
    got = Fraction(float(p.eval_many(np.array([x]))[0]))
    monomials = {e: Fraction(c) * math.prod(Fraction(v) ** k for v, k in zip(x, e))
                 for e, c in p.terms.items()}
    M = max((sum(e) for e in p.terms), default=0)
    bound = Fraction(gamma(M + len(p.terms))) * sum(abs(t) for t in monomials.values())
    assert abs(got - sum(monomials.values())) <= bound
