import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import oracles
from jetsuff import bl_construct
from jetsuff.bl_construct import (RHO_IN, RHO_OUT, PerturbationF, _alpha, assemble_F, bump_many,
                                  choose_lambdas, verify_construction)
from jetsuff.errors import ConstructionError, InvalidInputError
from jetsuff.germ import AnalyticZ, PolyGermMap, load_germ
from jetsuff.lojasiewicz import find_violation_sequence
from jetsuff.poly import Poly
from oracles import (BUMP_REFERENCE, PerturbationReference, choose_lambdas_reference,
                     fd_hessian, hessian_reference, same_bits,
                     verify_construction_reference)

GERMS = Path(__file__).resolve().parent.parent / "germs"

Z_AXES = AnalyticZ(n=2, form="union_hyperplanes", coords=(1, 2))


def x2y2_germ():
    return PolyGermMap(2, 1, 4, [Poly(2, {(2, 2): Fraction(1)})])


def collision_germ():
    """x^2 + 3y^2 over {x = 0}, whose Hessian diag(2, 6) has lambda = 2 at (2, 5)."""
    f = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): 1, (0, 2): 3})])
    return f, AnalyticZ(n=2, form="subspace", coords=(1,))


def diagonal_sequence(N=5):
    """Points (3^-v, 3^-v), v = 1..N, and their distances to Z."""
    pts = np.array([[3.0 ** -v, 3.0 ** -v] for v in range(1, N + 1)])
    return pts, np.array([Z_AXES.distance(p) for p in pts])


def bump(x):
    """The bump's value, gradient and Hessian at one point: one row of many."""
    a, grad, hess = bump_many(np.asarray(x, dtype=float)[None, :])
    return a[0], grad[0], hess[0]


def perturbation(pf, x):
    """F, its gradient and its Hessian at one point: one row of many."""
    F, G, H = pf.many(np.asarray(x, dtype=float)[None, :])
    return F[0], G[0], H[0]


def germ_hessian(f, x):
    """The Hessian of the scalar germ ``f`` at one point: one row of
    ``hessian_many``."""
    return f.hessian_many(np.asarray(x, dtype=float)[None, :])[0, 0]


class TestBump:
    def test_plateau_and_support(self):
        assert bump([0.0, 0.0])[0] == 1.0
        assert bump([0.1, 0.0])[0] == 1.0
        assert bump([0.3, 0.0])[0] == 0.0
        assert 0.0 < bump([0.2, 0.0])[0] < 1.0

    def test_flat_at_center(self):
        _, grad, hess = bump([0.0, 0.0])
        np.testing.assert_array_equal(grad, [0.0, 0.0])
        np.testing.assert_array_equal(hess, np.zeros((2, 2)))

    def test_bounded_by_one(self):
        ss = np.linspace(0, 0.5, 257)
        a, _, _ = bump_many(np.stack([ss, np.zeros_like(ss)], axis=1))
        assert np.all((0.0 <= a) & (a <= 1.0))

    def test_gradient_matches_finite_differences(self):
        for x in ([0.2, 0.05], [0.15, -0.1], [0.05, 0.0]):
            x = np.array(x)
            h = 1e-6
            fd = np.array([
                (bump(x + [h, 0])[0] - bump(x - [h, 0])[0]) / (2 * h),
                (bump(x + [0, h])[0] - bump(x - [0, h])[0]) / (2 * h)])
            np.testing.assert_allclose(bump(x)[1], fd, atol=1e-6)

    def test_hessian_matches_finite_differences(self):
        x = np.array([0.18, 0.07])
        fd = fd_hessian(lambda y: bump(y)[0], x, h=1e-4)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(bump(x)[2] - fd)) <= 1e-4 * scale


class TestChooseLambdas:
    def test_default_power(self):
        pts, dists = diagonal_sequence()
        lams = choose_lambdas(x2y2_germ(), pts, dists)
        for lam, d in zip(lams, dists):
            assert lam == pytest.approx(d ** 3, rel=2e-3)
            # the constraining ratio lambda / dist^(k-2) decays like dist
            assert lam / d ** 2 == pytest.approx(d, rel=2e-3)

    def test_eigenvalue_collision_nudged(self):
        # Hessian of x^2 + 3y^2 is diag(2, 6); dist to {x=0} at (2,5) is 2,
        # so the k=2 default lambda = 2 collides with the eigenvalue 2. One
        # nudge leaves the gap 0.002, not above GAP_REL * 2.002; two clear it
        f, z = collision_germ()
        lam, = choose_lambdas(f, [[2.0, 5.0]], z.distance_many([[2.0, 5.0]]))
        assert lam == pytest.approx(2.004002, rel=1e-9)

    def test_rejects_points_on_Z(self):
        with pytest.raises(InvalidInputError):
            choose_lambdas(x2y2_germ(), [[0.0, 1.0]], Z_AXES.distance_many([[0.0, 1.0]]))

    def test_rejects_a_distance_per_point_mismatch(self):
        pts, dists = diagonal_sequence()
        with pytest.raises(InvalidInputError, match="^sequence lengths disagree$"):
            choose_lambdas(x2y2_germ(), pts, dists[:-1])


@pytest.fixture(scope="module")
def pf():
    f = x2y2_germ()
    pts, dists = diagonal_sequence()
    return assemble_F(f, pts, dists, choose_lambdas(f, pts, dists))


class TestAssembly:
    def test_center_values_match(self, pf):
        for a in pf.centers:
            assert pf.value(a) == pytest.approx(float(pf.f.eval(a)[0]), rel=1e-14)

    def test_center_gradients_match(self, pf):
        for a in pf.centers:
            np.testing.assert_allclose(perturbation(pf, a)[1], pf.f.jacobian(a).entries[0],
                                       rtol=1e-14)

    def test_zero_outside_balls(self, pf):
        assert pf.value([0.5, 0.1]) == 0.0
        np.testing.assert_array_equal(perturbation(pf, [0.5, 0.1])[1], [0.0, 0.0])

    def test_vanishes_near_Z_points(self, pf):
        # F is identically zero in a ball around Z points away from the balls
        for z_pt in ([0.0, 0.2], [0.7, 0.0], [0.0, -0.5]):
            for shift in ([0.0, 0.0], [1e-3, -1e-3], [-2e-3, 1e-3]):
                assert pf.value(np.add(z_pt, shift)) == 0.0

    def test_hessian_identity_at_centers(self, pf):
        for a, lam in zip(pf.centers, pf.lambdas):
            want = germ_hessian(pf.f, a) - lam * np.eye(2)
            np.testing.assert_allclose(germ_hessian(pf.f, a) - perturbation(pf, a)[2], want,
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
                grad = perturbation(pf, x)[1]
                assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))
                fd = fd_hessian(pf.value, x, h=1e-4 * d)
                hess = perturbation(pf, x)[2]
                assert np.max(np.abs(hess - fd)) <= 1e-3 * np.max(np.abs(hess))

    def test_overlapping_balls_rejected(self):
        f = x2y2_germ()
        pts = np.array([[0.3, 0.3], [0.31, 0.31], [0.05, 0.05]])

        with pytest.raises((ConstructionError, InvalidInputError)):
            assemble_F(f, pts, [0.3, 0.14, 0.05], [0.1, 0.01, 0.001])

    def test_first_overlapping_pair_named(self):
        # balls of radius dist/4 = 0.1, 0.04, 0.015, 0.005 on one line; the
        # pairs (0, 3), (1, 2) and (2, 3) overlap, and (0, 3) comes first
        # with i outer and j inner, (1, 2) with j outer
        f = x2y2_germ()
        pts = np.array([[x, 0.3] for x in (0.4, 0.568, 0.518, 0.5)])
        message = r"^balls 0 and 3 overlap \(centers 1\.000e-01 apart\)$"
        with pytest.raises(ConstructionError, match=message):
            assemble_F(f, pts, [0.4, 0.16, 0.06, 0.02], [0.1, 0.01, 0.001, 1e-4])

    def test_distances_that_do_not_halve_rejected(self):
        f = x2y2_germ()
        pts, dists = diagonal_sequence()
        dists[3] = 0.5 * dists[2]  # not below half
        with pytest.raises(InvalidInputError, match="^sequence distances must at least halve$"):
            assemble_F(f, pts, dists, [0.1] * 5)

    @pytest.mark.parametrize("drop", ["centers", "dists", "lambdas"])
    def test_sequence_lengths_must_agree(self, drop):
        pts, dists = diagonal_sequence()
        args = {"centers": pts, "dists": dists, "lambdas": [0.1] * 5}
        args[drop] = args[drop][:-1]
        with pytest.raises(InvalidInputError, match="^sequence lengths disagree$"):
            PerturbationF(x2y2_germ(), **args)

    def test_map_germ_rejected(self):
        f = PolyGermMap(2, 2, 2, [Poly(2, {(2, 0): 1}), Poly(2, {(0, 2): 1})])
        pts, dists = diagonal_sequence()
        with pytest.raises(InvalidInputError, match="^construction applies to scalar germs$"):
            PerturbationF(f, pts, dists, [0.1] * 5)

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

    def test_nonvanishing_jet_names_its_term(self):
        # f = (x1^3, x2) at k = 2: the second component's 1-jet is x2
        f = PolyGermMap(2, 2, 2, [Poly(2, {(3, 0): 1}), Poly(2, {(0, 1): 1})])
        pts, dists = diagonal_sequence()
        with pytest.raises(InvalidInputError, match=r"^the \(k-1\)-jet of f at 0 must vanish; "
                                                    r"component 2 has the term x2$"):
            assemble_F(f, pts, dists, [0.1] * 5)


class TestVerification:
    def test_full_construction_passes(self):
        # x1^3 at k = 2 over {x1 = 0}: the condition fails, a witness exists
        f = PolyGermMap(2, 1, 2, [Poly(2, {(3, 0): Fraction(1)})])
        z = AnalyticZ(n=2, form="subspace", coords=(1,))
        pts, _ = diagonal_sequence()
        dists = z.distance_many(pts)
        pf = assemble_F(f, pts, dists, choose_lambdas(f, pts, dists))
        rep = verify_construction(pf, z)
        assert rep.ok, rep.failures
        assert all(v <= 1e-12 for v in rep.value_residuals)
        assert all(g <= 1e-10 for g in rep.gradient_residuals)
        assert all(abs(d) > 0 for d in rep.hessian_dets)
        assert all(b < a for a, b in zip(rep.decay, rep.decay[1:]))

    def test_x2y2_diagonal_not_certified(self):
        # nu/dist^3 = 2 sqrt 2 along the diagonal, so the condition holds
        # there and the flat decay must not pass as a witness
        f = x2y2_germ()
        pts, dists = diagonal_sequence()
        rep = verify_construction(assemble_F(f, pts, dists, choose_lambdas(f, pts, dists)),
                                  Z_AXES)
        assert not rep.ok
        assert rep.failures == (
            f"decay slower than 1/nu at ball 1: {rep.decay[1]:.3e} > {rep.decay[0]:.3e}/2",)
        assert max(rep.decay) / min(rep.decay) < 1.01

    def test_disjointness_margin(self):
        pts, dists = diagonal_sequence()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                gap = np.linalg.norm(pts[i] - pts[j])
                assert gap > (dists[i] + dists[j]) / 4.0


# ----------------------------------------------------------------- stacked vs one point

@lru_cache
def x3_sequence(seed):
    """x^3 over {x1 = 0} and the violating sequence the CLI finds for ``seed``."""
    f, z = load_germ(GERMS / "x3.json")
    seq = find_violation_sequence(f, z, f.k, seed)
    return f, z, np.asarray(seq.points), np.asarray(seq.dists)


SEQUENCES = {
    "x2y2-diagonal": lambda: (x2y2_germ(), Z_AXES, *diagonal_sequence()),
    **{f"x3-seed{s}": (lambda s=s: x3_sequence(s)) for s in range(4)},
}


@lru_cache
def construction(name):
    """(f, z, seed, stacked F, one-point reference F) for one sequence."""
    f, z, pts, dists = SEQUENCES[name]()
    lams = choose_lambdas_reference(f, pts, z)
    seed = int(name.removeprefix("x3-seed")) if name.startswith("x3") else 0
    return (f, z, seed, assemble_F(f, pts, dists, lams),
            PerturbationReference(f, pts, dists, lams))


def unit_rows(rng, count, n):
    u = rng.standard_normal((count, n))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def probe_points(pf, per_ball=250, seed=0):
    """Per ball: the center, the RHO_IN and RHO_OUT spheres along the axes
    and diagonals, and random points of the plateau, the transition and
    just outside; then random points, almost all outside every ball."""
    rng = np.random.default_rng(seed)
    n = pf.n
    dirs = np.concatenate([np.eye(n), -np.eye(n), unit_rows(rng, 4, n)])
    rows = []
    for c, d in zip(pf.centers, pf.dists):
        radii = np.concatenate([[0.0], np.repeat([RHO_IN, RHO_OUT], len(dirs)),
                                rng.uniform(0.0, 0.3, per_ball)])
        units = np.concatenate([dirs[:1], dirs, dirs, unit_rows(rng, per_ball, n)])
        rows.append(c + d * radii[:, None] * units)
    rows.append(rng.uniform(-1.0, 1.0, (per_ball, n)))
    return np.concatenate(rows)


class TestStackedOracle:
    """The stacked negative side against the one-point code it replaced."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_bump_matches_reference(self, n):
        rng = np.random.default_rng(n)
        # the radii and one ulp inside each, where exp(-1/(1-u)) at RHO_IN
        # and exp(-1/u) at RHO_OUT underflow to 0
        radii = (RHO_IN, RHO_OUT, np.nextafter(RHO_IN, RHO_OUT), np.nextafter(RHO_OUT, RHO_IN))
        exact = np.concatenate([r * sign * np.eye(n) for r in radii for sign in (1.0, -1.0)])
        S = np.concatenate([np.zeros((1, n)), exact,
                            rng.uniform(0.0, 0.3, (2000, 1)) * unit_rows(rng, 2000, n)])
        a, grad, hess = bump_many(S)
        assert same_bits(a, [BUMP_REFERENCE.value(s) for s in S])
        assert same_bits(_alpha(S)[0], a)  # the alpha that F alone takes
        assert same_bits(grad, [BUMP_REFERENCE.gradient(s) for s in S])
        assert same_bits(hess, [BUMP_REFERENCE.hessian(s) for s in S])

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_perturbation_matches_reference(self, name):
        _, _, _, pf, ref = construction(name)
        X = probe_points(pf)
        F, G, H = pf.many(X)
        assert same_bits(F, [ref.value(x) for x in X])
        assert same_bits(G, [ref.gradient(x) for x in X])
        assert same_bits(H, [ref.hessian(x) for x in X])
        assert same_bits(pf.values(X), F)
        # a one-row call gives the bits of its row in the stack
        rows = range(0, len(X), 7)
        assert same_bits(F[rows], [pf.value(X[i]) for i in rows])
        assert same_bits(G[rows], [perturbation(pf, X[i])[1] for i in rows])
        assert same_bits(H[rows], [perturbation(pf, X[i])[2] for i in rows])

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_lambdas_and_report_match_reference(self, name):
        f, z, seed, pf, ref = construction(name)
        assert same_bits(choose_lambdas(f, pf.centers, pf.dists), ref.lambdas)
        assert (repr(verify_construction(pf, z, seed))
                == repr(verify_construction_reference(ref, z, seed)))

    @pytest.mark.parametrize("germ, points", [
        # one nudge allowed, and the collision needs two
        ("collision", None),
        ("x2y2", [[0.1, 0.1], [0.0, 0.05], [0.01, 0.01]]),
    ])
    def test_lambda_errors_match_reference(self, monkeypatch, germ, points):
        if points is None:
            for module in (bl_construct, oracles):
                monkeypatch.setattr(module, "MAX_RETRIES", 1)
            (f, z), points = collision_germ(), [[2.0, 5.0]]
        else:
            f, z = load_germ(GERMS / f"{germ}.json")
        with pytest.raises((ConstructionError, InvalidInputError)) as want:
            choose_lambdas_reference(f, points, z)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            choose_lambdas(f, points, z.distance_many(points))

    @pytest.mark.parametrize("germ", ["x3", "x2y2", "x2", "sum_of_squares"])
    def test_germ_hessians_match_reference(self, germ):
        f, _ = load_germ(GERMS / f"{germ}.json")
        X = np.random.default_rng(1).uniform(-1.0, 1.0, (500, f.n))
        H = f.hessian_many(X)
        assert H.shape == (500, 1, f.n, f.n)
        assert same_bits(H[:, 0], [hessian_reference(f, 0, x) for x in X])
        assert same_bits(H[:, 0], [germ_hessian(f, x) for x in X])

    def test_two_component_hessians(self):
        f = PolyGermMap(3, 2, 2, [Poly(3, {(2, 1, 0): 1, (0, 0, 3): -2}),
                                  Poly(3, {(1, 1, 1): 3, (0, 2, 0): 1})])
        X = np.random.default_rng(2).uniform(-1.0, 1.0, (200, 3))
        H = f.hessian_many(X)
        for i in range(2):
            assert same_bits(H[:, i], [hessian_reference(f, i, x) for x in X])

    def test_dist_squares_are_int_powers(self):
        # radii whose Python pow square differs from the product d * d
        d = np.random.default_rng(5).uniform(0.02, 0.05, 20000)
        d = d[np.array([v ** 2 for v in d]) != d * d][:3]
        assert len(d) == 3
        centers = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        pf = PerturbationF(x2y2_germ(), centers, d, [0.01, 0.02, 0.03])
        ref = PerturbationReference(x2y2_germ(), centers, d, [0.01, 0.02, 0.03])
        X = probe_points(pf, per_ball=100)
        assert same_bits(pf.many(X)[2], [ref.hessian(x) for x in X])

    def test_first_ball_in_center_order_wins(self):
        # two overlapping balls of radius 0.1: in the overlap F is ball 0's
        f = x2y2_germ()
        c0, c1, d = [0.3, 0.3], [0.32, 0.3], [0.4]
        both = PerturbationF(f, [c0, c1], d * 2, [0.01, 0.02])
        first = PerturbationF(f, [c0], d, [0.01])
        second = PerturbationF(f, [c1], d, [0.02])
        rng = np.random.default_rng(3)
        X = np.concatenate([c + rng.uniform(0.0, 0.1, (300, 1)) * unit_rows(rng, 300, 2)
                            for c in (c0, c1)])
        gap0, gap1 = (np.linalg.norm(X - c, axis=1) - 0.1 for c in (c0, c1))
        X = X[(np.abs(gap0) > 1e-9) & (np.abs(gap1) > 1e-9)]  # off both spheres
        in0 = np.linalg.norm(X - c0, axis=1) < 0.1
        for got, want0, want1 in zip(both.many(X), first.many(X), second.many(X)):
            assert same_bits(got[in0], want0[in0])
            assert same_bits(got[~in0], want1[~in0])
        overlap = X[in0 & (np.linalg.norm(X - c1, axis=1) < 0.1)]
        assert len(overlap) > 50
        assert not np.any(first.many(overlap)[0] == second.many(overlap)[0])
