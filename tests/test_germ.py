import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jetsuff import germ as germ_module
from jetsuff.errors import InvalidInputError
from jetsuff.germ import (AnalyticZ, GermPair, PolyGermMap, SampledZ, germ_from_json,
                          int_power, jet_at, monomial_text, read_json, same_k_Z_jet,
                          scalar_powers)
from jetsuff.poly import Poly
from jetsuff.sampling import unit_shell_sample
from oracles import (axis_cloud, distance_reference, eval_reference, fd_jacobian,
                     jacobian_reference, norm_distance_reference, pow_formula_gap,
                     same_k_Z_jet_reference, sample_points)


def germ_x2(k=2):
    return PolyGermMap(2, 1, k, [Poly(2, {(2, 0): Fraction(1)})])


def germ(terms, n=2, m=1, k=2):
    comps = [Poly(n, t) for t in terms]
    return PolyGermMap(n, m, k, comps)


Z_HYP = AnalyticZ(n=2, form="subspace", coords=(1,))
Z_ORIGIN = AnalyticZ(n=2, form="subspace", coords=(1, 2))


class TestEval:
    def test_square(self):
        assert germ_x2().eval([0.1, 0.7]) == pytest.approx([0.01])

    def test_square_plus_cube(self):
        f = germ([{(2, 0): 1, (3, 0): 1}])
        assert f.eval([0.1, 0.0]) == pytest.approx([0.011])

    def test_two_components(self):
        f = germ([{(1, 1): 1}, {(2, 0): 1}], m=2)
        assert f.eval([2.0, 3.0]) == pytest.approx([6.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            germ_x2().eval([1.0])

    def test_must_vanish_at_origin(self):
        with pytest.raises(InvalidInputError):
            germ([{(0, 0): 1}])

    @pytest.mark.parametrize("n, m", [(1, 0), (2, 0), (1, 2)])
    def test_component_count_between_1_and_n(self, n, m):
        # m = 0 used to pass and end in a numpy reshape error in jacobian_many
        with pytest.raises(InvalidInputError, match=f"^need 1 <= m <= n, got m={m}, n={n}$"):
            PolyGermMap(n, m, 2, [Poly(n, {(2,) + (0,) * (n - 1): 1})] * m)


class TestDegree:
    @pytest.mark.parametrize("terms, n, m, degree", [
        ([{(2, 0): 1}], 2, 1, 2),
        ([{(2, 2): 1, (3, 1): Fraction(-1, 3), (0, 4): 0.5}], 2, 1, 4),
        ([{(2, 0, 0): 1, (0, 2, 0): -1}, {(1, 1, 0): 2}], 3, 2, 2),
        ([{(1, 0): 1}], 2, 1, 1),
        ([{(2, 0): 1, (0, 4): 1}], 2, 1, None),
        ([{(3, 0): 1}, {(1, 1): 1}], 2, 2, None),  # each homogeneous, of two degrees
        ([{}], 2, 1, None),
    ])
    def test_read_from_the_exponents(self, terms, n, m, degree):
        assert germ(terms, n=n, m=m).degree == degree


class TestJacobian:
    def test_square(self):
        J = germ_x2().jacobian([0.1, 0.7])
        np.testing.assert_allclose(J.entries, [[0.2, 0.0]])

    def test_two_components(self):
        f = germ([{(1, 1): 1}, {(2, 0): 1}], m=2)
        J = f.jacobian([2.0, 3.0])
        np.testing.assert_allclose(J.entries, [[3.0, 2.0], [4.0, 0.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            terms = {tuple(e): float(rng.uniform(-2, 2))
                     for e in rng.integers(0, 3, size=(5, 2)) if sum(e) > 0}
            f = germ([terms or {(1, 0): 1.0}])
            x = rng.uniform(-1, 1, size=2)
            J = f.jacobian(x).entries
            ref = fd_jacobian(f, x)
            assert np.linalg.norm(J - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


@st.composite
def germs_with_points(draw, terms_per_component):
    """A germ with the given number of terms per component and up to 16
    points in [-1, 1]^n."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    exponent = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) > 0)
    coeff = st.integers(-20, 20).filter(bool).map(lambda v: Fraction(v, 4))
    terms = st.dictionaries(exponent, coeff, min_size=1,
                            max_size=terms_per_component)
    f = germ([draw(terms) for _ in range(m)], n=n, m=m)
    X = draw(arrays(np.float64, (draw(st.integers(1, 16)), n),
                    elements=st.floats(-1, 1, allow_subnormal=False)))
    return f, X


class TestManyPoints:
    @settings(max_examples=100, deadline=None)
    @given(germs_with_points(1))
    def test_single_term_partials_exact(self, case):
        f, X = case
        assert np.array_equal(f.jacobian_many(X),
                              np.stack([f.jacobian(x).entries for x in X]))

    @settings(max_examples=100, deadline=None)
    @given(germs_with_points(5))
    # values in the subnormal range, where only pow_formula_gap's absolute
    # underflow term covers the pow formula's last bits
    @example((germ([{(1, 0, 3): Fraction(1, 2), (1, 1, 2): Fraction(1, 4)}], n=3),
              np.array([[float.fromhex("0x1.5725ddea9a228p-687")]
                        + [float.fromhex("0x1.00000000a639bp-126")] * 2])))
    @example((germ([{(0, 1, 2, 2): Fraction(3, 2), (0, 1, 1, 1): Fraction(1, 2)}], n=4),
              np.array([[float.fromhex("0x1.00b804baea71ep-2"), 2.0 ** -1022]
                        + [float.fromhex("0x1.00b804baea71ep-2")] * 2])))
    def test_matches_pointwise(self, case):
        # one squares table and one sum per row: a stack gives each row the
        # bits of that row alone and of the per-point rule, and stays within
        # rounding of the pow formula it replaced
        f, X = case
        J = f.jacobian_many(X)
        assert np.array_equal(J, np.stack([f.jacobian(x).entries for x in X]))
        assert np.array_equal(J, np.stack([jacobian_reference(f, x) for x in X]))
        values = f.eval_many(X)
        assert np.array_equal(values, np.stack([f.eval(x) for x in X]))
        assert np.array_equal(values, np.stack([eval_reference(f, x) for x in X]))
        for x, v, Jx in zip(X, values, J):
            assert all(pow_formula_gap(p, x, got) for p, got in zip(f.components, v))
            assert all(pow_formula_gap(p, x, got) for row, got_row in zip(f._partials, Jx)
                       for p, got in zip(row, got_row))

    def test_rejects_bad_shapes_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            germ_x2().jacobian_many([0.1, 0.2])
        with pytest.raises(InvalidInputError):
            germ_x2().eval_many(np.zeros((3, 3)))
        # (1e200)^2 overflows on purpose: the warning must not be silenced
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(InvalidInputError):
            germ([{(3, 0): 1}]).jacobian_many([[1e200, 0.0]])


class TestJets:
    def test_cube_has_trivial_2jet_on_axis(self):
        f = germ([{(3, 0): 1}])
        j = jet_at(f, (0.0, 0.4), 2)
        assert j[0].terms == {}

    def test_jet_of_low_degree_poly_is_itself(self):
        j = jet_at(germ_x2(), (0.0, 0.0), 2)
        assert j[0].terms == {(2, 0): Fraction(1)}

    def test_truncation(self):
        f = germ([{(2, 0): 1, (3, 0): 1}])
        j = jet_at(f, (0.0, 0.0), 2)
        assert j[0].terms == {(2, 0): Fraction(1)}

    def test_full_degree_jet_reproduces_polynomial(self):
        f = germ([{(2, 1): Fraction(3), (1, 0): Fraction(-2)}], k=3)
        a = (Fraction(1, 3), Fraction(-1, 2))
        j = jet_at(f, a, 3)
        back = j[0].jet([-v for v in a], 3)
        assert back == f.components[0]


class TestSameJet:
    def test_cube_difference_passes(self):
        pair = GermPair(f=germ_x2(), f1=germ([{(2, 0): 1, (3, 0): 1}]), z=Z_HYP)
        ok, witness = same_k_Z_jet(pair)
        assert ok and witness is None

    def test_x2y_difference_fails(self):
        pair = GermPair(f=germ_x2(), f1=germ([{(2, 0): 1, (2, 1): 1}]), z=Z_HYP)
        ok, witness = same_k_Z_jet(pair)
        assert not ok and witness == (0, (2, 1))

    def test_reflexive(self):
        pair = GermPair(f=germ_x2(), f1=germ_x2(), z=Z_HYP)
        ok, witness = same_k_Z_jet(pair)
        assert ok and witness is None

    def test_symmetric_and_transitive_on_sample_germs(self):
        f = germ_x2()
        g = germ([{(2, 0): 1, (3, 0): 1}])
        h = germ([{(2, 0): 1, (3, 0): 1, (4, 0): Fraction(1, 2)}])
        for a, b in [(f, g), (g, h), (f, h)]:
            ok_ab, _ = same_k_Z_jet(GermPair(f=a, f1=b, z=Z_HYP))
            ok_ba, _ = same_k_Z_jet(GermPair(f=b, f1=a, z=Z_HYP))
            assert ok_ab and ok_ba

    def test_tiny_difference_off_the_jet_fails(self):
        # 10^-13 x2 does not vanish on Z; the sampled check with its 1e-12
        # budget called these jets equal
        f1 = germ([{(2, 0): 1, (0, 1): Fraction(1, 10 ** 13)}])
        assert same_k_Z_jet(GermPair(f=germ_x2(), f1=f1, z=Z_HYP)) == (False, (0, (0, 1)))

    def test_cloud_checked_at_its_points(self):
        z = SampledZ(n=2, points=axis_cloud())  # the x2 axis, origin first
        assert same_k_Z_jet(GermPair(f=germ_x2(), f1=germ([{(2, 0): 1, (3, 0): 1}]),
                                     z=z)) == (True, None)
        for c in (Fraction(1, 10 ** 13), 1e-13):
            f1 = germ([{(2, 0): 1, (0, 1): c}])
            assert same_k_Z_jet(GermPair(f=germ_x2(), f1=f1, z=z)) == (False, (0.0, 0.0))

    def test_P_is_derived_once(self):
        pair = GermPair(f=germ_x2(), f1=germ([{(2, 0): 1, (3, 0): 1}]), z=Z_HYP)
        assert pair.P is pair.P
        assert pair.P.components == [Poly(2, {(3, 0): 1})]
        # P is neither compared nor shown
        assert pair == GermPair(f=pair.f, f1=pair.f1, z=Z_HYP) and "P=" not in repr(pair)

    def test_monomial_text(self):
        assert monomial_text((2, 1, 0)) == "x1^2 x2"
        assert monomial_text((0, 0, 7)) == "x3^7"
        assert monomial_text((0, 0)) == "1"


def _spread(draw, e, variables, total):
    """Add ``total`` to the exponents ``e`` one at a time, at drawn variables."""
    for _ in range(total):
        e[draw(st.sampled_from(variables))] += 1


@st.composite
def _monomial(draw, n, form, cols, k, inside):
    """Exponents of total degree 1 to 6 inside (or outside) the ideal of germs
    flat to order k along the AnalyticZ over the 0-based ``cols``, by
    construction: inside, a subspace's listed exponents sum to k + 1 or more
    and a union's each reach k + 1; outside, they sum to k at most, or one
    listed exponent stays at k at most."""
    e = [0] * n
    if form == "subspace":
        free = [i for i in range(n) if i not in cols]
        s = draw(st.integers(k + 1, 6) if inside else st.integers(0 if free else 1, k))
        _spread(draw, e, cols, s)
        if free:
            _spread(draw, e, free if not inside else list(range(n)),
                    draw(st.integers(0 if s else 1, 6 - s)))
    elif inside:
        for c in cols:
            e[c] = k + 1
        _spread(draw, e, list(range(n)), draw(st.integers(0, 6 - sum(e))))
    else:
        low = draw(st.sampled_from(cols))
        others = [i for i in range(n) if i != low]
        e[low] = draw(st.integers(0 if others else 1, k))
        if others:
            _spread(draw, e, others, draw(st.integers(0 if e[low] else 1, 6 - e[low])))
    return tuple(e)


_COEFFS = st.one_of(
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(1, 10 ** 6)),
    st.floats(-1e3, 1e3).filter(bool))


@st.composite
def _flat_or_not(draw):
    """(Z, k, components, witness): components built from monomials drawn
    inside or outside the ideal, and the witness that construction implies,
    the least outside exponents of the first component that has any."""
    n = draw(st.integers(1, 4))
    form = draw(st.sampled_from(["subspace", "union_hyperplanes"]))
    coords = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
    k = draw(st.integers(1, 4))
    cols = [c - 1 for c in coords]
    can_be_inside = form == "subspace" or (k + 1) * len(cols) <= 6
    comps, witness = [], None
    for i in range(draw(st.integers(1, min(n, 2)))):
        terms, outside = {}, []
        for _ in range(draw(st.integers(0, 3))):
            inside = can_be_inside and draw(st.booleans())
            e = draw(_monomial(n, form, cols, k, inside))
            terms[e] = draw(_COEFFS)
            if not inside:
                outside.append(e)
        if outside and witness is None:
            witness = (i, min(outside))
        comps.append(Poly(n, terms))
    return AnalyticZ(n=n, form=form, coords=coords), k, comps, witness


class TestIdealMembership:
    @settings(max_examples=80, deadline=None)
    @given(_flat_or_not())
    def test_verdict_and_witness_by_construction(self, case):
        z, k, comps, witness = case
        n, m = z.n, len(comps)
        assert z.jet_witness(PolyGermMap(n, m, max(k, 2), comps), k) == witness
        if k < 2:  # a germ's order exceeds 1
            return
        pair = GermPair(f=PolyGermMap(n, m, k, [Poly(n)] * m),
                        f1=PolyGermMap(n, m, k, comps), z=z)
        assert same_k_Z_jet(pair) == (witness is None, witness)
        if all(abs(c) >= 1e-6 for p in comps for c in p.terms.values()):
            assert same_k_Z_jet_reference(pair)[0] == (witness is None)


AXIS_CLOUD_12 = SampledZ(n=2, points=np.array(
    [[0.0, 0.0]] + [[0.0, s * j / 8] for j in range(1, 7) for s in (1, -1)]))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda e: 0 < sum(e) <= 6), st.integers(-9, 9), max_size=5), st.integers(0, 5))
def test_cloud_and_exponent_rules_agree_on_the_axis(terms, k):
    # P is flat to order k along {x1 = 0} when each partial of order <= k,
    # restricted to the axis, is the zero polynomial in x2; that restriction
    # has degree <= 6, so unless it is zero it vanishes at 6 of the 12 points
    # off the origin at most
    P = PolyGermMap(2, 1, 2, [Poly(2, terms)])
    assert ((AXIS_CLOUD_12.jet_witness(P, k) is None)
            == (AnalyticZ(2, "subspace", (1,)).jet_witness(P, k) is None))


class TestDistance:
    def test_hyperplane(self):
        assert Z_HYP.distance([0.3, -2.0]) == pytest.approx(0.3)

    def test_origin(self):
        assert Z_ORIGIN.distance([0.3, -0.4]) == pytest.approx(0.5)

    def test_union_of_axes(self):
        z = AnalyticZ(n=2, form="union_hyperplanes", coords=(1, 2))
        assert z.distance([0.2, 0.5]) == pytest.approx(0.2)

    def test_samples_variant_on_axes(self):
        ts = np.linspace(-1, 1, 2001)
        cloud = np.concatenate([np.stack([ts, np.zeros_like(ts)], axis=1),
                                np.stack([np.zeros_like(ts), ts], axis=1)])
        z = SampledZ(n=2, points=cloud)
        assert z.distance([0.2, 0.5]) == pytest.approx(0.2, abs=1e-3)

    def test_samples_equal_only_to_themselves(self):
        # equality and hashes used to read n alone, so that any two clouds,
        # and two pairs over them, compared equal
        a = SampledZ(n=2, points=[[0.0, 0.0], [1.0, 0.0]])
        b = SampledZ(n=2, points=[[0.0, 0.0], [0.0, 1.0]])
        assert a == a and hash(a) == hash(a)
        assert a != b and hash(a) != hash(b)
        f = germ_x2()
        assert GermPair(f=f, f1=f, z=a) == GermPair(f=f, f1=f, z=a)
        assert GermPair(f=f, f1=f, z=a) != GermPair(f=f, f1=f, z=b)

    def test_hyperplane_union_uses_only_listed_coords(self):
        z = AnalyticZ(n=2, form="union_hyperplanes", coords=(1,))
        assert z.distance([0.3, 0.1]) == 0.3
        pts = sample_points(z, 16, 0)
        assert np.all(pts[:, 0] == 0.0) and np.all(pts[:, 1] != 0.0)


class TestBadZ:
    def test_duplicate_coords_rejected(self):
        # {x1 = 0} listed twice used to give dist sqrt(2) |x1|
        with pytest.raises(InvalidInputError):
            germ_module.zspec_from_json(
                {"variant": "analytic", "form": "subspace", "coords": [1, 1]}, 2)

    @pytest.mark.parametrize("coords", [[1.5], [True], [1.0], [2, True], ["1"], [None], [1, "a"]])
    def test_non_integer_coords_rejected(self, coords):
        # [1.5] used to pass and fail later in np.take; [true] read as x1;
        # ["1"] and [null] failed the range test's comparison, [1, "a"] the sort's
        with pytest.raises(InvalidInputError, match="coordinates must be integers"):
            germ_module.zspec_from_json(
                {"variant": "analytic", "form": "subspace", "coords": coords}, 2)

    def test_empty_cloud_rejected(self):
        # used to end in numpy's "zero-size array to reduction operation minimum"
        with pytest.raises(InvalidInputError, match="^sample cloud must contain the origin$"):
            SampledZ(n=2, points=np.empty((0, 2)))

    def test_nonfinite_cloud_rejected(self):
        with pytest.raises(InvalidInputError):
            germ_module.zspec_from_json(
                {"variant": "samples", "points": [[0.0, 0.0], [float("nan"), 1.0]]}, 2)

    @pytest.mark.parametrize("doc", [
        {"variant": "analytic", "form": "subspace", "coords": "1"},
        {"variant": "analytic", "form": "subspace"},
        {"variant": "samples", "points": [[0.0, 0.0], [1.0]]},
    ])
    def test_malformed_document(self, doc):
        with pytest.raises(InvalidInputError, match="^malformed Z document: "):
            germ_module.zspec_from_json(doc, 2)

    @pytest.mark.parametrize("doc", [
        {"variant": "implicit"},
        {"variant": "implicit", "tol": "abc"},
        *({"variant": "implicit", "tol": tol} for tol in (1e-8, -1e-8, 0.0,
                                                          float("inf"), float("nan"))),
    ])
    def test_implicit_variant_rejected(self, doc):
        # the minimizer-located Z = {nu(df) = 0} is gone: its distance was
        # up to 245x too large on x2y2; Z is a closed form or a point cloud
        with pytest.raises(InvalidInputError,
                           match="^unknown ZSpec variant 'implicit'; use analytic or samples$"):
            germ_module.zspec_from_json(doc, 2)

    def test_implicit_variant_rejected_in_germ_document(self):
        doc = {"n": 2, "m": 1, "k": 2, "components": [[{"exponents": [2, 0], "coeff": "1"}]],
               "z": {"variant": "implicit"}}
        with pytest.raises(InvalidInputError, match="analytic or samples"):
            germ_from_json(doc)

    @pytest.mark.parametrize("points", [
        [[False, False], [False, True]],  # used to run as {(0, 0), (0, 1)}
        [["0", "0"], ["0", "0.5"]],  # used to be read as numbers
        [[0.0, 0.0], [None, 1.0]],
        [[0, 0], [0, "1e-1"]],
    ])
    def test_cloud_entries_must_be_json_numbers(self, points):
        with pytest.raises(InvalidInputError, match="^sample cloud points must be numbers"):
            germ_module.zspec_from_json({"variant": "samples", "points": points}, 2)

    def test_cloud_of_json_integers_and_floats(self):
        z = germ_module.zspec_from_json({"variant": "samples",
                                         "points": [[0, 0], [0, 1], [0.5, -2]]}, 2)
        assert z.points.dtype == float
        assert z.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.5, -2.0]]


def check_rows(z, X):
    """distance_many(X)[i] == distance(X[i]) for every row, bit for bit."""
    D = z.distance_many(X)
    assert D.shape == (len(X),)
    for x, d in zip(X, D):
        assert z.distance(x) == d
    return D


def check_sampled(cloud, X):
    """SampledZ on ``cloud`` equals the point-by-point scan of the least sum,
    bit for bit; and numpy's least norm, bit for bit up to n = 7 and within
    (n + 1) 2^-53 relative beyond."""
    z = SampledZ(n=X.shape[1], points=cloud)
    D = check_rows(z, X)
    assert D.tolist() == [distance_reference(z, x) for x in X]
    norms = np.array([norm_distance_reference(z, x) for x in X])
    if z.n <= 7:
        assert D.tolist() == norms.tolist()
    else:
        assert np.all(np.abs(D - norms) <= (z.n + 1) * 2.0 ** -53 * norms)


coords_in = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(1, n), min_size=1)))
scaled_points = st.integers(-20, 20).map(lambda e: 10.0 ** e)


def point_rows(n, max_rows=16):
    return arrays(np.float64, st.tuples(st.integers(1, max_rows), st.just(n)),
                  elements=st.floats(-1e3, 1e3))


class TestDistanceMany:
    @settings(max_examples=200, deadline=None)
    @given(coords_in, st.sampled_from(["subspace", "union_hyperplanes"]),
           scaled_points, st.data())
    def test_analytic_rows(self, n_coords, form, scale, data):
        n, coords = n_coords
        z = AnalyticZ(n=n, form=form, coords=tuple(coords))
        X = data.draw(point_rows(n)) * scale
        D = check_rows(z, X)
        assert D.tolist() == [distance_reference(z, x) for x in X]

    # SampledZ's distance is the root of the least left-to-right sum of
    # squares; numpy's norms sum in that order up to n = 7 and in another
    # beyond, so n runs up to 9 to meet both sides of the old scan.

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        arrays(np.float64, st.tuples(st.integers(0, 60), st.just(n)),
               elements=st.floats(-10, 10)),
        arrays(np.float64, st.tuples(st.integers(0, 40), st.just(n)),
               elements=st.floats(-10, 10)))), scaled_points)
    def test_sampled_random_clouds(self, cloud_X, scale):
        # from the origin alone (no other point) to 61 points, and no rows
        cloud, X = cloud_X
        check_sampled(np.vstack([np.zeros(X.shape[1]), cloud]) * scale, X * scale)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 24), st.integers(0, 3),
           st.integers(-30, 30), st.integers(0, 2 ** 32 - 1))
    def test_sampled_ties(self, n, count, copies, scale, seed):
        # each query is the center of a sphere of cloud points at one exact
        # distance: its gap vector with coordinates permuted and signs
        # flipped, some points repeated. The gaps are exact (26-bit entries
        # beside centers of +-8, times a power of two), so only the order of
        # summation moves the float distances apart, by ulps
        rng = np.random.default_rng(seed)
        centers = 8.0 * rng.choice([-1.0, 1.0], size=(16, n))
        spheres = []
        for c in centers:
            g = rng.integers(2 ** 25, 2 ** 26, n) / 2.0 ** 26
            signs = rng.choice([-1.0, 1.0], size=(count, n))
            spheres.append(c + signs * np.array([rng.permutation(g) for _ in range(count)]))
        cloud = np.vstack([np.zeros((1, n))] + spheres + [s[:copies] for s in spheres])
        near = centers + 1e-12 * rng.standard_normal(centers.shape)
        check_sampled(cloud * 2.0 ** scale, np.vstack([centers, near]) * 2.0 ** scale)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 40])
    def test_sampled_small_clouds(self, size, n):
        # the origin alone and clouds of fewer than four points, where every
        # point is a candidate, beside larger ones; and no rows at all
        rng = np.random.default_rng(size)
        cloud = np.vstack([np.zeros((1, n)), rng.uniform(-1, 1, (size - 1, n))])
        check_sampled(cloud, rng.uniform(-2, 2, (64, n)))
        assert SampledZ(n=n, points=cloud).distance_many(np.empty((0, n))).shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_sampled_extreme_rows(self, n):
        # squares past the float range for some or all cloud points, and
        # entries that are inf or nan, which take the whole-cloud scan
        rng = np.random.default_rng(n)
        cloud = np.vstack([np.zeros((1, n)), rng.uniform(-1, 1, (40, n)),
                           np.full((1, n), 1e150), np.full((1, n), -1e200)])
        X = np.array([np.full(n, v) for v in (1e153, 1e154, 1e160, 1e300, -1e200,
                                               np.inf, -np.inf, np.nan)]
                     + [np.r_[v, np.zeros(n - 1)] for v in (np.inf, np.nan, 1e300)])
        with np.errstate(over="ignore", invalid="ignore"):
            z = SampledZ(n=n, points=cloud)
            D = z.distance_many(X)
            np.testing.assert_array_equal(D, [distance_reference(z, x) for x in X])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sequential_sum_is_norm_bits(self, n):
        # up to n = 7 the left-to-right sum of squares is the sum
        # np.linalg.norm takes, so the survey's distances keep their bits
        rng = np.random.default_rng(n)
        D = rng.standard_normal((20000, n)) * 10.0 ** rng.uniform(-150, 150, (20000, 1))
        with np.errstate(over="ignore", under="ignore"):
            same = np.sqrt(germ_module._sum_sq(D.T.copy())) == np.linalg.norm(D, axis=1)
        assert same.all()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 9]), st.integers(300, 3000),
           st.sampled_from(["uniform", "clustered", "dyadic", "duplicated"]),
           scaled_points, st.integers(0, 2 ** 32 - 1))
    def test_sampled_multi_group_clouds(self, n, size, kind, scale, seed):
        # clouds past one group of leaves, so the group screen and the
        # padded last group both run; queries far, near and on cloud points
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            cloud = rng.uniform(-1, 1, (size, n))
        elif kind == "clustered":
            cloud = (rng.uniform(-1, 1, (5, n))[rng.integers(0, 5, size)]
                     + 1e-3 * rng.standard_normal((size, n)))
        elif kind == "dyadic":  # the survey cloud's octaves, on every half axis
            mags = 2.0 ** (-np.arange(size // (2 * n)) / 16)
            cloud = np.vstack([s * np.outer(mags, e) for e in np.eye(n) for s in (1.0, -1.0)])
        else:
            cloud = np.repeat(rng.uniform(-1, 1, (size // 4, n)), 4, axis=0)
        cloud = np.vstack([np.zeros((1, n)), rng.permutation(cloud)])
        near = cloud[rng.integers(0, len(cloud), 24)]
        X = np.vstack([rng.uniform(-2, 2, (24, n)), near,
                       near + 1e-6 * rng.standard_normal(near.shape)])
        check_sampled(cloud * scale, X * scale)

    @pytest.mark.parametrize("n", [8, 9])
    def test_sampled_norm_order_ties(self, n):
        # spheres as in test_sampled_ties, kept only where numpy's norm and a
        # left-to-right sum of squares pick different nearest points to the
        # center: the distance is the least sum's root, within the bound of
        # numpy's least norm
        rng = np.random.default_rng(n)
        centers, spheres = [], []
        while len(spheres) < 8:
            c = 8.0 * rng.choice([-1.0, 1.0], size=n)
            g = rng.integers(2 ** 25, 2 ** 26, n) / 2.0 ** 26
            gaps = rng.choice([-1.0, 1.0], size=(24, n)) * [rng.permutation(g) for _ in range(24)]
            sums = np.zeros(24)
            for col in gaps.T:
                sums = sums + col * col
            norms = np.linalg.norm(gaps, axis=1)
            if norms[sums == sums.min()].min() > norms.min() and not any(
                    (c == other).all() for other in centers):
                centers.append(c)
                spheres.append(c + gaps)
        check_sampled(np.vstack([np.zeros((1, n))] + spheres), np.array(centers))

    @pytest.mark.parametrize("n, count", [(2, 2000), (2, 13000), (9, 2000)],
                             ids=["2000", "13000", "n9-2000"])
    def test_sampled_crowded_rows(self, n, count):
        # a unit sphere of points about each query ties across more than
        # CROWD leaves (2,000 points) or groups (13,000), so those rows take
        # the whole-cloud scan, by the screened rows' sum; their nearest
        # point is rarely in the first leaf
        rng = np.random.default_rng(count)
        if n == 2:
            angles = rng.uniform(0, 2 * np.pi, count)
            sphere = np.stack([np.cos(angles), np.sin(angles)], 1)
        else:
            sphere = rng.standard_normal((count, n))
            sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        center = np.r_[0.0, 5.0, np.zeros(n - 2)]
        cloud = np.vstack([np.zeros((1, n)), center + sphere])
        X = np.vstack([center, center + 1e-12 * rng.standard_normal((7, n)),
                       rng.uniform(-2, 2, (8, n))])
        check_sampled(cloud, X)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_sampled_box_boundaries(self, n):
        # queries on the faces and corners of every leaf and group box, and
        # halfway between neighbouring leaves, on a grid cloud full of ties
        rng = np.random.default_rng(n)
        cloud = np.vstack([np.zeros((1, n)), rng.integers(-4, 5, (700, n)).astype(float)])
        z = SampledZ(n=n, points=cloud)
        (glo, ghi), (llo, lhi) = z._group_box, z._leaf_box
        lo = np.hstack([glo[..., 0], llo.transpose(0, 2, 1).reshape(n, -1)]).T  # by group
        hi = np.hstack([ghi[..., 0], lhi.transpose(0, 2, 1).reshape(n, -1)]).T
        X = np.vstack([lo, hi, (lo + hi) / 2, np.where(rng.random(lo.shape) < 0.5, lo, hi),
                       (hi[:-1] + lo[1:]) / 2])
        check_sampled(cloud, X)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_sampled_extreme_rows_multi_group(self, n):
        # the extreme rows of test_sampled_extreme_rows against 600 points
        rng = np.random.default_rng(n)
        cloud = np.vstack([np.zeros((1, n)), rng.uniform(-1, 1, (600, n)),
                           np.full((1, n), 1e150), np.full((1, n), -1e200)])
        X = np.array([np.full(n, v) for v in (1e153, 1e154, 1e160, 1e300, -1e200,
                                               np.inf, -np.inf, np.nan)]
                     + [np.r_[v, np.zeros(n - 1)] for v in (np.inf, np.nan, 1e300)])
        with np.errstate(over="ignore", invalid="ignore"):
            z = SampledZ(n=n, points=cloud)
            np.testing.assert_array_equal(z.distance_many(X),
                                          [distance_reference(z, x) for x in X])

    def test_sampled_rows_in_parts(self, monkeypatch):
        # a group screen held to fewer box sums takes the rows in parts, of
        # one row or of five and a short last one, with the bits of one call
        rng = np.random.default_rng(0)
        cloud = np.vstack([np.zeros((1, 3)), rng.uniform(-1, 1, (2000, 3))])
        X = np.vstack([rng.uniform(-1, 1, (40, 3)), [[np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0]]])
        z = SampledZ(n=3, points=cloud)
        whole = z.distance_many(X)
        np.testing.assert_array_equal(whole, [distance_reference(z, x) for x in X])
        for cells in (1, 3 * z._group_box[0].shape[1] * 5):
            monkeypatch.setattr(germ_module, "GROUP_CELLS", cells)
            assert z.distance_many(X).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_survey_cloud(self, seed):
        # the survey's Z cloud on its Sobol shells at every dyadic radius of
        # the estimator and of the violation search
        z = SampledZ(n=2, points=axis_cloud())
        shell = unit_shell_sample(2, 2048, seed)
        X = np.vstack([0.5 ** j * shell for j in range(1, 14)])
        assert z.distance_many(X).tolist() == [distance_reference(z, x) for x in X]



def test_scalar_powers_are_python_float_powers():
    # NumPy's array ** rounds some fractional powers differently from
    # Python's float ** (C pow); RK45's step control takes the latter
    rng = np.random.default_rng(0)
    v = rng.uniform(0, 1, 20000) * 10.0 ** rng.uniform(-6, 1, 20000)
    for p in (-1 / 5, 1 / 5):
        assert scalar_powers(v, p).tolist() == [x ** p for x in v.tolist()]
    # integer powers are products of repeated squares, not pow
    assert int_power(v, 3).tolist() == [x * (x * x) for x in v.tolist()]
    assert int_power(v, 3).tolist() != [x ** 3 for x in v.tolist()]


class TestJson:
    def test_rational_coefficients_read_exactly(self):
        doc = json.loads("""{"n": 2, "m": 1, "k": 3, "components": [[
            {"exponents": [1, 1], "coeff": "-7/5"},
            {"exponents": [2, 0], "coeff": "1/3"}]],
            "z": {"variant": "analytic", "form": "subspace", "coords": [1]}}""")
        g, z = germ_from_json(doc)
        f = germ([{(2, 0): Fraction(1, 3), (1, 1): Fraction(-7, 5)}], k=3)
        assert g.components[0] == f.components[0]
        assert (g.n, g.m, g.k) == (f.n, f.m, f.k)
        assert z.form == "subspace" and z.coords == (1,)

    def test_float_coefficients_survive(self):
        doc = json.loads('{"n": 2, "m": 1, "k": 2, "components": '
                         '[[{"exponents": [2, 0], "coeff": 0.1}]]}')
        g, z = germ_from_json(doc)
        assert g.components[0].terms[(2, 0)] == 0.1 and z is None

    def test_malformed_document(self):
        with pytest.raises(InvalidInputError):
            germ_from_json({"n": 2, "m": 1})

    @pytest.mark.parametrize("field, value, message", [
        ("exponents", [2.5, 0], "exponents must be integers, got 2.5"),  # ran as x1^2
        ("exponents", [2.0, 0], "exponents must be integers, got 2.0"),
        ("exponents", ["2", 0], "exponents must be integers, got '2'"),
        ("exponents", [True, 0], "exponents must be integers, got True"),
        ("n", 2.9, "n, m and k must be integers, got 2.9"),
        ("n", "2", "n, m and k must be integers, got '2'"),
        ("m", True, "n, m and k must be integers, got True"),
        ("k", 2.0, "n, m and k must be integers, got 2.0"),
        ("coeff", True, "non-string coefficients must be numbers, got True"),
        ("coeff", None, "non-string coefficients must be numbers, got None"),
        ("coeff", [1], "non-string coefficients must be numbers, got [1]"),
    ])
    def test_non_integer_fields_rejected(self, field, value, message):
        doc = {"n": 2, "m": 1, "k": 2, "components": [[{"exponents": [2, 0], "coeff": "1"}]]}
        if field in ("exponents", "coeff"):
            doc["components"][0][0][field] = value
        else:
            doc[field] = value
        with pytest.raises(InvalidInputError, match="^malformed germ document: ") as info:
            germ_from_json(doc)
        assert str(info.value).endswith(message)

    @pytest.mark.parametrize("text, line", [("{not json", 1), ('{"n": 2,\n\n}', 3),
                                            (b"\xd0\xff{}", 1)])
    def test_bad_json_names_file_and_line(self, tmp_path, text, line):
        # bytes that are not UTF-8 used to end in a UnicodeDecodeError traceback
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(InvalidInputError) as info:
            read_json(path)
        assert str(info.value) == f"{path}: invalid JSON at line {line}"

    def test_json_integers_and_numbers_accepted(self):
        doc = {"n": 2, "m": 1, "k": 3, "components": [[
            {"exponents": [2, 0], "coeff": 3}, {"exponents": [1, 1], "coeff": -0.5},
            {"exponents": [0, 2], "coeff": "2/3"}]]}
        f, z = germ_from_json(doc)
        assert (f.n, f.m, f.k) == (2, 1, 3) and z is None
        assert f.components[0].terms == {(2, 0): 3.0, (1, 1): -0.5, (0, 2): Fraction(2, 3)}

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        f, z = germ_from_json(json.loads(block))
        assert (f.n, f.m, f.k) == (2, 1, 2)
        assert f.components[0].terms == {(2, 0): Fraction(1)}
        assert z.form == "subspace" and z.coords == (1,)
