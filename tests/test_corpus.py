"""The corpus of ``corpus.py`` against its ground truth, in exact arithmetic:
L^2 divides each planted germ, whose df loses rank at a rational point off Z,
and each healthy germ's gradient vanishes only on Z (only at 0 for the sums
of powers and the quadratic forms)."""

import itertools
from fractions import Fraction

import pytest

from corpus import corpus, mul
from jetsuff.poly import Poly

CASES = corpus()
PLANTED = [c for c in CASES if c.truth == "fails"]
HEALTHY = [c for c in CASES if c.truth == "holds"]


def value(p: Poly, point) -> Fraction:
    """p at a rational point, exactly: the constant term of its 0-jet there."""
    return p.jet(point, 0).terms.get((0,) * p.n, Fraction(0))


def quotient(p: Poly, d: Poly):
    """p / d when d divides p, else None: division by the lex-leading term, whose
    remainder is 0 exactly when d divides p, d being a single divisor."""
    lead, rest, q = max(d.terms), dict(p.terms), {}
    while rest:
        e = max(rest)
        shift = tuple(a - b for a, b in zip(e, lead))
        if min(shift) < 0:
            return None
        c = rest[e] / d.terms[lead]
        q[shift] = c
        for e2, c2 in d.terms.items():
            t = tuple(a + b for a, b in zip(shift, e2))
            rest[t] = rest.get(t, 0) - c * c2
            if rest[t] == 0:
                del rest[t]
    return Poly(p.n, q)


def off_z(z, point) -> bool:
    nonzero = [point[c - 1] != 0 for c in z.coords]
    return any(nonzero) if z.form == "subspace" else all(nonzero)


def det(M) -> Fraction:
    """Laplace expansion along the first row, exact."""
    if not M:
        return Fraction(1)
    return sum((-1) ** j * M[0][j] * det([r[:j] + r[j + 1:] for r in M[1:]])
               for j in range(len(M)))


def zero_patterns(f):
    """Every set S of coordinates such that a point whose zero coordinates are S
    may be a zero of the gradient, as far as the partials read exactly: a
    partial that is one term, or whose terms all have even exponents and
    coefficients of one sign, is 0 only where each term has a zero variable."""
    parts = [p.deriv(i) for p in f.components for i in range(f.n)]
    definite = [p for p in parts if len(p.terms) == 1 or (
        all(v % 2 == 0 for e in p.terms for v in e)
        and len({c > 0 for c in p.terms.values()}) == 1)]
    return [set(S) for r in range(f.n + 1) for S in itertools.combinations(range(f.n), r)
            if all(any(e[i] for i in S) for p in definite for e in p.terms)]


@pytest.mark.parametrize("case", PLANTED, ids=lambda c: c.name)
def test_planted(case):
    f = case.f
    assert case.point is not None or case.segment is not None
    if case.factor is not None:  # factor^2 divides the first component
        square = mul(case.factor, case.factor)
        q = quotient(f.components[0], square)
        assert q is not None and mul(square, q) == f.components[0]
    if case.point is not None:  # df(point) has rank < m, off Z
        assert off_z(case.z, case.point)
        if case.factor is not None:
            assert value(case.factor, case.point) == 0
        df = [[value(p.deriv(i), case.point) for i in range(f.n)] for p in f.components]
        assert all(det([[row[i] for i in cols] for row in df]) == 0
                   for cols in itertools.combinations(range(f.n), f.m))
    if case.segment is not None:  # the factor changes sign on a segment off Z
        a, b = case.segment
        assert value(case.factor, a) * value(case.factor, b) < 0
        assert any(a[c - 1] == b[c - 1] != 0 for c in case.z.coords)


@pytest.mark.parametrize("case", HEALTHY, ids=lambda c: c.name)
def test_healthy(case):
    f = case.f
    assert f.m == 1 and f.k >= (f.degree or 2)
    if case.name.startswith("positive definite"):  # gradient = H x, H > 0 by Sylvester
        H = [[value(f.components[0].deriv(i).deriv(j), (0,) * f.n) for j in range(f.n)]
             for i in range(f.n)]
        assert all(det([r[:s] for r in H[:s]]) > 0 for s in range(1, f.n + 1))
        return
    coords = {c - 1 for c in case.z.coords}
    patterns = zero_patterns(f)
    if case.name.startswith("bundled"):  # only on Z
        assert all(coords <= S if case.z.form == "subspace" else coords & S
                   for S in patterns)
    else:  # only at 0
        assert patterns == [set(range(f.n))]


def test_corpus_is_seeded():
    assert [c.name for c in corpus(0)] == [c.name for c in CASES]
    assert [c.f.components for c in corpus(1)] != [c.f.components for c in CASES]
    assert (len(PLANTED), len(HEALTHY)) == (59, 34)
