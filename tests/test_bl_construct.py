from fractions import Fraction

import numpy as np
import pytest

from jetsuff.bl_construct import (BumpFunction, assemble_F, choose_lambdas,
                                  verify_construction)
from jetsuff.errors import ConstructionError, InvalidInputError
from jetsuff.germ import AnalyticZ, PolyGermMap
from jetsuff.poly import Poly
from oracles import fd_hessian

Z_AXES = AnalyticZ(n=2, form="union_hyperplanes", coords=(1, 2))


def x2y2_germ():
    return PolyGermMap(2, 1, 4, [Poly(2, {(2, 2): Fraction(1)})])


def diagonal_sequence(N=5):
    """Points (3^-v, 3^-v), v = 1..N, and their distances to Z."""
    pts = np.array([[3.0 ** -v, 3.0 ** -v] for v in range(1, N + 1)])
    return pts, np.array([Z_AXES.distance(p) for p in pts])


class TestBump:
    def test_plateau_and_support(self):
        b = BumpFunction()
        assert b.value([0.0, 0.0]) == 1.0
        assert b.value([0.1, 0.0]) == 1.0
        assert b.value([0.3, 0.0]) == 0.0
        assert 0.0 < b.value([0.2, 0.0]) < 1.0

    def test_flat_at_center(self):
        b = BumpFunction()
        np.testing.assert_array_equal(b.gradient([0.0, 0.0]), [0.0, 0.0])
        np.testing.assert_array_equal(b.hessian([0.0, 0.0]), np.zeros((2, 2)))

    def test_bounded_by_one(self):
        b = BumpFunction()
        ss = np.linspace(0, 0.5, 257)
        assert all(0.0 <= b.value([s, 0.0]) <= 1.0 for s in ss)

    def test_gradient_matches_finite_differences(self):
        b = BumpFunction()
        for x in ([0.2, 0.05], [0.15, -0.1], [0.05, 0.0]):
            x = np.array(x)
            h = 1e-6
            fd = np.array([
                (b.value(x + [h, 0]) - b.value(x - [h, 0])) / (2 * h),
                (b.value(x + [0, h]) - b.value(x - [0, h])) / (2 * h)])
            np.testing.assert_allclose(b.gradient(x), fd, atol=1e-6)

    def test_hessian_matches_finite_differences(self):
        b = BumpFunction()
        x = np.array([0.18, 0.07])
        fd = fd_hessian(b.value, x, h=1e-4)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(b.hessian(x) - fd)) <= 1e-4 * scale


class TestChooseLambdas:
    def test_default_power(self):
        pts, dists = diagonal_sequence()
        lams = choose_lambdas(x2y2_germ(), pts, Z_AXES)
        for lam, d in zip(lams, dists):
            assert lam == pytest.approx(d ** 3, rel=2e-3)
            # the constraining ratio lambda / dist^(k-2) decays like dist
            assert lam / d ** 2 == pytest.approx(d, rel=2e-3)

    def test_eigenvalue_collision_nudged(self):
        # Hessian of x^2 + 3y^2 is diag(2, 6); dist to {x=0} at (2,5) is 2,
        # so the k=2 default lambda = 2 collides with the eigenvalue 2
        f = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): 1, (0, 2): 3})])
        z = AnalyticZ(n=2, form="subspace", coords=(1,))
        lam, = choose_lambdas(f, [[2.0, 5.0]], z)
        assert lam == pytest.approx(2.002, rel=1e-9)

    def test_rejects_points_on_Z(self):
        with pytest.raises(InvalidInputError):
            choose_lambdas(x2y2_germ(), [[0.0, 1.0]], Z_AXES)


@pytest.fixture(scope="module")
def pf():
    f = x2y2_germ()
    pts, dists = diagonal_sequence()
    return assemble_F(f, pts, dists, choose_lambdas(f, pts, Z_AXES))


class TestAssembly:
    def test_center_values_match(self, pf):
        for a in pf.centers:
            assert pf.value(a) == pytest.approx(float(pf.f.eval(a)[0]), rel=1e-14)

    def test_center_gradients_match(self, pf):
        for a in pf.centers:
            np.testing.assert_allclose(pf.gradient(a), pf.f.jacobian(a).entries[0],
                                       rtol=1e-14)

    def test_zero_outside_balls(self, pf):
        assert pf.value([0.5, 0.1]) == 0.0
        np.testing.assert_array_equal(pf.gradient([0.5, 0.1]), [0.0, 0.0])

    def test_vanishes_near_Z_points(self, pf):
        # F is identically zero in a ball around Z points away from the balls
        for z_pt in ([0.0, 0.2], [0.7, 0.0], [0.0, -0.5]):
            for shift in ([0.0, 0.0], [1e-3, -1e-3], [-2e-3, 1e-3]):
                assert pf.value(np.add(z_pt, shift)) == 0.0

    def test_hessian_identity_at_centers(self, pf):
        for a, lam in zip(pf.centers, pf.lambdas):
            want = pf.f.hessian(0, a) - lam * np.eye(2)
            np.testing.assert_allclose(pf.f.hessian(0, a) - pf.hessian(a), want,
                                       atol=1e-12)
            # finite-difference cross-check of the Hessian of f - F
            fd = fd_hessian(lambda x: float(pf.f.eval(x)[0]) - pf.value(x), a, h=1e-5)
            assert np.max(np.abs(fd - want)) <= 1e-7

    def test_derivatives_in_the_bump_transition(self, pf):
        # where RHO_IN < |x - a_v| / d_v < RHO_OUT the bump is not flat, so
        # its gradient and Hessian enter every derivative of F
        for a, d in zip(pf.centers, pf.dists):
            for s in (0.15, 0.19, 0.23):
                x = a + d * s * np.array([0.6, -0.8])
                h = 1e-6 * d
                fd = np.array([(pf.value(x + h * e) - pf.value(x - h * e)) / (2 * h)
                               for e in np.eye(2)])
                grad = pf.gradient(x)
                assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))
                fd = fd_hessian(pf.value, x, h=1e-4 * d)
                hess = pf.hessian(x)
                assert np.max(np.abs(hess - fd)) <= 1e-3 * np.max(np.abs(hess))

    def test_overlapping_balls_rejected(self):
        f = x2y2_germ()
        pts = np.array([[0.3, 0.3], [0.31, 0.31], [0.05, 0.05]])

        with pytest.raises((ConstructionError, InvalidInputError)):
            assemble_F(f, pts, [0.3, 0.14, 0.05], [0.1, 0.01, 0.001])

    def test_short_prefix_rejected(self):
        f = x2y2_germ()
        pts, dists = diagonal_sequence(2)
        with pytest.raises(InvalidInputError):
            assemble_F(f, pts, dists, [0.1, 0.01])

    def test_nonvanishing_jet_rejected(self):
        # x + x^2 has a nonzero 1-jet at 0, so the k = 2 hypothesis fails
        f = PolyGermMap(2, 1, 2, [Poly(2, {(1, 0): 1, (2, 0): 1})])
        pts, dists = diagonal_sequence()
        with pytest.raises(InvalidInputError):
            assemble_F(f, pts, dists, [0.1] * 5)


class TestVerification:
    def test_full_construction_passes(self):
        f = x2y2_germ()
        pts, dists = diagonal_sequence()
        pf = assemble_F(f, pts, dists, choose_lambdas(f, pts, Z_AXES))
        rep = verify_construction(pf, Z_AXES)
        assert rep.ok, rep.failures
        assert all(v <= 1e-12 for v in rep.value_residuals)
        assert all(g <= 1e-10 for g in rep.gradient_residuals)
        assert all(abs(d) > 0 for d in rep.hessian_dets)
        assert all(b < a for a, b in zip(rep.decay, rep.decay[1:]))

    def test_disjointness_margin(self):
        pts, dists = diagonal_sequence()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                gap = np.linalg.norm(pts[i] - pts[j])
                assert gap > (dists[i] + dists[j]) / 4.0
