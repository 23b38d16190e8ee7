import dataclasses
import warnings
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from jetsuff.errors import (CalibrationError, ConvergenceError, CoveringViolationError,
                            DomainExitError, FieldBoundError, InvalidInputError)
from jetsuff.germ import AnalyticZ, GermPair, PolyGermMap, SampledZ, load_germ
from jetsuff.linmap import row_norms
from jetsuff.lojasiewicz import estimate_condition
from jetsuff.poly import Poly
from jetsuff.sampling import ball_sample
from jetsuff.trivializer import (ON_Z, RK45, DeformationF, IsotopyResult,
                                 TrivializationConstants, VectorFieldW, _residuals,
                                 _smoothstep, backward_flow, build_F, calibrate_constants,
                                 flow, flow_many, gronwall_check, isotopy)
from oracles import (W_reference, _smoothstep_reference, calibrate_constants_scalar,
                     eval_reference, flow_reference, gronwall_reference, isotopy_reference,
                     jacobian_reference, pow_formula_gap, same_bits,
                     write_isotopy_csv_reference)

GERMS = Path(__file__).resolve().parent.parent / "germs"

Z_HYP = AnalyticZ(n=2, form="subspace", coords=(1,))
RADII = [0.5, 0.25, 0.125, 0.0625]


def make_pair(p_terms):
    f = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): Fraction(1)})])
    f1 = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): Fraction(1), **p_terms})])
    return GermPair(f=f, f1=f1, z=Z_HYP)


@pytest.fixture(scope="module")
def cubic_setup():
    pair = make_pair({(3, 0): Fraction(1)})
    rep = estimate_condition(pair.f, pair.z, 2, RADII, 512, 0)
    consts = calibrate_constants(pair, rep)
    vf = VectorFieldW(build_F(pair), consts)
    return pair, rep, consts, vf


class TestBuildF:
    def test_values(self, cubic_setup):
        pair, _, _, _ = cubic_setup
        F = build_F(pair)
        x = [0.1, 0.0]
        assert F.f.eval(x) + 1.0 * F.P.eval(x) == pytest.approx([0.011])
        assert F.f.eval(x) + 0.0 * F.P.eval(x) == pytest.approx(pair.f.eval(x))
        np.testing.assert_allclose(F.P_and_d_x([1.0], [[0.1, 0.0]])[1], [[[0.23, 0.0]]])

    def test_one_power_table_matches_pointwise(self):
        F = build_F(z2_pair_on_R3())
        rng = np.random.default_rng(3)
        X, xis = rng.uniform(-1, 1, size=(200, 3)), rng.uniform(-2, 2, size=200)
        P, A = F.P_and_d_x(xis, X)
        for x, xi, P_x, A_x in zip(X, xis, P, A):
            assert np.array_equal(P_x, eval_reference(F.P, x))
            assert np.array_equal(
                A_x, jacobian_reference(F.f, x) + xi * jacobian_reference(F.P, x))
            # within rounding of the pow formula the squares replaced
            assert all(pow_formula_gap(p, x, v) for p, v in zip(F.P.components, P_x))

    def test_rejects_distinct_jets(self):
        bad = make_pair({(2, 1): Fraction(1)})  # x^2 y changes the 2-jet on Z
        with pytest.raises(InvalidInputError):
            build_F(bad)

    def test_rejection_names_the_cloud_point(self):
        bad = make_pair({(0, 1): 1e-13})
        # the first cloud point in the unit ball; (0, 2) lies outside it
        z = SampledZ(n=2, points=[[0.0, 2.0], [0.0, 0.5], [0.0, 0.0]])
        bad = GermPair(f=bad.f, f1=bad.f1, z=z)
        with pytest.raises(InvalidInputError, match=r"^pair is not a common k-Z-jet: f1 - f "
                                                    r"has a nonzero k-jet at the cloud point "
                                                    r"\[0.0, 0.5\]$"):
            build_F(bad)


class TestCalibration:
    def test_cubic_radius_matches_hand_bound(self, cubic_setup):
        # |P| = |x|^3 <= (C/3)|x|^2 and |dP| = 3x^2 <= (C/3)|x| with C = 2
        # force radius <= 2/9; the sampled radius sits just below it
        _, _, consts, _ = cubic_setup
        assert consts.C == pytest.approx(2.0, abs=0.01)
        assert 0.15 < consts.U_radius <= 2.0 / 9.0 + 1e-12
        assert consts.C_dprime == pytest.approx(
            2 * 1 * consts.C * np.sqrt(2) / (3 * consts.C_prime), rel=1e-12)
        assert consts.r0 == pytest.approx(consts.U_radius * np.exp(-consts.C_dprime))

    def test_zero_perturbation_keeps_radius(self):
        pair = make_pair({})
        rep = estimate_condition(pair.f, pair.z, 2, RADII, 512, 0)
        consts = calibrate_constants(pair, rep)
        # the first 0.9^j at or below RADII[0] = 0.5, by seven multiplications
        assert consts.U_radius == 0.9 * 0.9 * 0.9 * 0.9 * 0.9 * 0.9 * 0.9 == 0.47829690000000014
        assert consts.C_dprime > 0

    def test_requires_holds_verdict(self):
        f3 = PolyGermMap(2, 1, 2, [Poly(2, {(3, 0): Fraction(1)})])
        pair = GermPair(f=f3, f1=f3, z=Z_HYP)
        rep = estimate_condition(f3, Z_HYP, 2, RADII, 512, 0)
        with pytest.raises(InvalidInputError):
            calibrate_constants(pair, rep)

    def test_refuses_a_report_of_another_k(self):
        # the k = 3 report (C_hat 4.04) used to calibrate the k = 2 pair to
        # U_radius 0.43, C'' 39,100 and r0 0.0, against 0.21, 2.34 and 0.0199
        pair = bundled_pair("x2", "x2_plus_x3")
        rep = estimate_condition(pair.f, pair.z, 3, RADII, 512, 0)
        assert rep.verdict == "holds"
        with pytest.raises(InvalidInputError,
                           match="^estimator report is for k = 3, the pair's k is 2$"):
            calibrate_constants(pair, rep)


def bundled_pair(name, pair_name):
    f, z = load_germ(GERMS / f"{name}.json")
    return GermPair(f=f, f1=load_germ(GERMS / f"{pair_name}.json")[0], z=z)


def z2_pair_on_R3():
    # (x1^2 - x2^2, 2 x1 x2) + (x1^3, x2^3) over Z = {x1 = x2 = 0}
    f = PolyGermMap(3, 2, 2, [Poly(3, {(2, 0, 0): 1, (0, 2, 0): -1}),
                              Poly(3, {(1, 1, 0): 2})])
    f1 = PolyGermMap(3, 2, 2, [Poly(3, {(2, 0, 0): 1, (0, 2, 0): -1, (3, 0, 0): 1}),
                               Poly(3, {(1, 1, 0): 2, (0, 3, 0): 1})])
    return GermPair(f=f, f1=f1, z=AnalyticZ(n=3, form="subspace", coords=(1, 2)))


ORACLE_PAIRS = {
    "x2/x2_plus_x3": lambda: bundled_pair("x2", "x2_plus_x3"),
    "x2/x2_plus_x4": lambda: bundled_pair("x2", "x2_plus_x4"),
    "x2/x2_plus_x": lambda: bundled_pair("x2", "x2_plus_x"),
    "z2/z2_plus_cubes on R^3": z2_pair_on_R3,
}


@lru_cache(maxsize=None)
def pair_with_report(name):
    pair = ORACLE_PAIRS[name]()
    return pair, estimate_condition(pair.f, pair.z, pair.f.k, RADII, 512, 0)


class TestCalibrationOracle:
    """The stacked calibration against the point-by-point loop it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["x2/x2_plus_x3", "x2/x2_plus_x4",
                                      "z2/z2_plus_cubes on R^3"])
    def test_constants_equal(self, name, seed):
        pair, rep = pair_with_report(name)
        assert (calibrate_constants(pair, rep, seed=seed)
                == calibrate_constants_scalar(pair, rep, seed=seed))

    def test_failure_message_equal(self):
        pair, rep = pair_with_report("x2/x2_plus_x")
        with pytest.raises(CalibrationError) as want:
            calibrate_constants_scalar(pair, rep, initial_radius=0.47829690000000014)
        with pytest.raises(CalibrationError) as got:
            calibrate_constants(pair, rep)
        assert str(got.value) == str(want.value)


class TestVectorField:
    def test_hand_cramer_single_minor(self, cubic_setup):
        # m = 1: (2a + 3 xi a^2) w = -a^3 along the x-axis
        _, _, _, vf = cubic_setup
        for xi, a in [(0.0, 0.1), (1.0, 0.05), (-1.5, -0.08)]:
            w = vf.eval(xi, [a, 0.0])
            assert w[1] == 0.0
            assert w[0] == pytest.approx(-a ** 3 / (2 * a + 3 * xi * a ** 2), rel=1e-12)

    def test_zero_on_Z(self, cubic_setup):
        _, _, _, vf = cubic_setup
        np.testing.assert_array_equal(vf.eval(0.7, [0.0, 0.12]), [0.0, 0.0])

    def test_bound_that_underflows(self):
        # x1^2 and x1^2 + x1^61 at k = 60: C' dist^59 is 0.0 at dist 1e-7, where
        # W used to return a ZeroDivisionError, which the CLI does not catch.
        # The one nonzero minor dominates, and W = -P/A = 0 as P underflows too
        f = PolyGermMap(2, 1, 60, [Poly(2, {(2, 0): 1})])
        f1 = PolyGermMap(2, 1, 60, [Poly(2, {(2, 0): 1, (61, 0): 1})])
        consts = TrivializationConstants(C=2.0, C_prime=1.0, C_dprime=1.0, U_radius=0.5, r0=0.1)
        vf = VectorFieldW(build_F(GermPair(f=f, f1=f1, z=Z_HYP)), consts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W, errors = vf.eval_many([0.5], [[1e-7, 0.1]])
        assert errors == [None] and same_bits(W, [[0.0, 0.0]])

    def test_smoothstep_matches_reference(self):
        # the ramp's ends and their neighbours, zeros, subnormals, infinities,
        # nan and a sweep across the ramp: raw bytes, with no warning
        s = [0.5, 1.0, 0.0, -0.0, 5e-324, 1e-310, 2.0, 1e300, -1.0, np.inf, -np.inf, np.nan]
        s += [np.nextafter(e, d) for e in (0.5, 1.0) for d in (0.0, 2.0)]
        s += np.random.default_rng(0).uniform(0.4, 1.1, 1000).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _smoothstep(np.array(s))
        assert got.tobytes() == np.array([_smoothstep_reference(v) for v in s]).tobytes()

    def test_field_bound_on_samples(self, cubic_setup):
        _, _, consts, vf = cubic_setup
        pts = ball_sample(2, 2048, 1, radius=consts.U_radius)
        rng = np.random.default_rng(1)
        for x in pts:
            d = Z_HYP.distance(x)
            if d < 1e-12:
                continue
            xi = rng.uniform(0.0, 1.0)
            w = vf.eval(xi, x)
            assert np.linalg.norm(w) <= consts.C_dprime * d * (1 + 1e-6)

    def test_linear_system_residual(self, cubic_setup):
        # VectorFieldW.eval guards this internally; check the residual directly too
        pair, _, _, vf = cubic_setup
        F = vf.F
        for x in ([0.1, 0.03], [-0.05, 0.1], [0.02, -0.14]):
            for xi in (0.0, 0.5, 1.0):
                w = vf.eval(xi, x)
                resid = F.P_and_d_x([xi], [x])[1][0] @ w + F.P.eval(x)
                assert np.linalg.norm(resid) <= 1e-9 * (1 + np.linalg.norm(F.P.eval(x)))

    def test_infinite_jacobian_entries(self, cubic_setup):
        # d_xF = 2 x1 + 3 xi x1^2 overflows far from the origin: a numerical
        # failure of W, not bad input
        _, _, _, vf = cubic_setup
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError,
                                                       match="^entries must be finite$"):
            vf.eval(1.0, [1e200, 0.0])

    def test_linear_system_residual_out_of_budget(self):
        # P = x1^3 (1 + x2): at xi = 1e-310 and x = (1/2, 0) the minor
        # xi x1^3 is subnormal, counts because C' dist underflows to 0, and
        # -P over it overflows, so A W misses -P by inf
        pair = make_pair({(3, 0): Fraction(1), (3, 1): Fraction(1)})
        consts = TrivializationConstants(C=2.0, C_prime=5e-324, C_dprime=1.0,
                                         U_radius=0.5, r0=0.1)
        vf = VectorFieldW(build_F(pair), consts)
        message = r"^linear system residual inf out of budget at x=\[0.5, 0.0\]$"
        with np.errstate(over="ignore", under="ignore"), pytest.raises(
                ConvergenceError, match=message):
            vf.eval(1e-310, [0.5, 0.0])

    def test_field_bound_violation_is_a_property_failure(self, cubic_setup):
        pair, _, consts, _ = cubic_setup
        tiny = TrivializationConstants(
            C=consts.C, C_prime=consts.C_prime, C_dprime=1e-3,
            U_radius=consts.U_radius, r0=consts.r0)
        vf_tiny = VectorFieldW(DeformationF(pair), tiny)
        with pytest.raises(FieldBoundError, match="field bound violated"):
            vf_tiny.eval(1.0, [0.1, 0.0])
        assert issubclass(FieldBoundError, CoveringViolationError)

    def test_covering_violation_reported(self, cubic_setup):
        pair, _, consts, _ = cubic_setup
        inflated = TrivializationConstants(
            C=consts.C, C_prime=1e6, C_dprime=consts.C_dprime,
            U_radius=consts.U_radius, r0=consts.r0)
        vf_bad = VectorFieldW(DeformationF(pair), inflated)
        with pytest.raises(CoveringViolationError):
            vf_bad.eval(0.0, [0.1, 0.0])


class TestFlow:
    def test_tableau_is_scipys(self):
        # flow_many takes scipy's steps only with scipy's coefficients; a
        # scipy release that changes them fails here
        import scipy.integrate
        ours, theirs = RK45, scipy.integrate.RK45
        for name in "CABEP":
            got, want = getattr(ours, name), getattr(theirs, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert (ours.error_estimator_order, ours.n_stages) == (
            theirs.error_estimator_order, theirs.n_stages)

    def test_start_on_Z_is_constant(self, cubic_setup):
        _, _, _, vf = cubic_setup
        states = flow(vf, [0.0, 0.1])
        assert states.shape == (17, 2) and np.all(states == np.array([0.0, 0.1]))

    def test_endpoint_solves_conservation_equation(self, cubic_setup):
        _, _, _, vf = cubic_setup
        endpoint = flow(vf, [0.1, 0.0], tol=1e-10)[-1]
        h = brentq(lambda t: t * t + t ** 3 - 0.01, 0.05, 0.15, xtol=1e-15)
        assert endpoint[0] == pytest.approx(h, abs=1e-5)
        assert endpoint[1] == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("inf"), float("nan")])
    def test_tolerance_must_be_finite_and_positive(self, cubic_setup, tol):
        _, _, _, vf = cubic_setup
        with pytest.raises(InvalidInputError, match="finite and positive"):
            flow_many(vf, [[0.1, 0.0]], tol=tol)

    def test_zero_perturbation_identity_flow(self):
        pair = make_pair({})
        rep = estimate_condition(pair.f, pair.z, 2, RADII, 512, 0)
        consts = calibrate_constants(pair, rep)
        vf = VectorFieldW(build_F(pair), consts)
        states = flow(vf, [0.1, 0.05], tol=1e-9)
        assert np.max(np.abs(states - np.array([0.1, 0.05]))) <= 1e-9


@pytest.fixture(scope="module")
def result(cubic_setup):
    _, _, consts, vf = cubic_setup
    grid = ball_sample(2, 30, 0, radius=0.15)
    grid = np.vstack([grid, [[0.0, 0.05], [0.0, -0.12]]])
    return grid, isotopy(vf, grid, tol=1e-9)


class TestIsotopy:
    def test_identity_at_t0(self, result):
        grid, res = result
        np.testing.assert_array_equal(res.forward[:, 0, :], grid)

    def test_Z_points_fixed_exactly(self, result):
        grid, res = result
        on_z = np.abs(grid[:, 0]) == 0.0
        assert np.all(res.forward[on_z] == grid[on_z][:, None, :])
        assert np.all(res.inverse_residuals[on_z] == 0.0)

    def test_conservation_and_inverse(self, result):
        _, res = result
        assert res.max_conservation <= 1e-6
        assert res.max_inverse_residual <= 1e-6

    def test_endpoint_injective_on_grid(self, result):
        _, res = result
        ends = res.forward[:, -1, :]
        d = np.linalg.norm(ends[:, None, :] - ends[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0

    def test_gronwall_band(self, result, cubic_setup):
        _, _, consts, _ = cubic_setup
        _, res = result
        rep = gronwall_check(res, consts, Z_HYP)
        assert rep.ok

    def test_gronwall_matches_pointwise(self, result, cubic_setup):
        _, _, consts, _ = cubic_setup
        _, res = result
        # reversed trajectories move the two points on Z off it
        swapped = IsotopyResult(grid=res.grid, times=res.times,
                                forward=res.forward[::-1].copy(),
                                conservation=res.conservation,
                                inverse_residuals=res.inverse_residuals)
        for r in (res, swapped):
            for eps in (0.05, 0.0, -0.5):
                rep = gronwall_check(r, consts, Z_HYP, eps=eps)
                assert ((rep.ok, rep.worst_margin, rep.violations)
                        == gronwall_reference(r, consts, Z_HYP, eps))

    def test_serialization(self, result, tmp_path):
        _, res = result
        res.write_csv(tmp_path / "iso.csv")
        lines = (tmp_path / "iso.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + res.grid.shape[0] * len(res.times)
        write_isotopy_csv_reference(res, tmp_path / "reference.csv")
        assert (tmp_path / "iso.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


LOCKSTEP_PAIRS = ["x2/x2_plus_x3", "z2/z2_plus_cubes on R^3"]
M3 = "(x1, x2, x3) on R^4"  # W's only m = 3 case: det-of-subminor numerators


@lru_cache(maxsize=None)
def lockstep_setup(name):
    if name == M3:
        # f = (x1, x2, x3) plus cubic P over Z = {0} at k = 2, constants set by
        # hand: at C' = 3 one to four column sets blend on the ball
        f = PolyGermMap(4, 3, 2, [Poly(4, {(1, 0, 0, 0): 1}), Poly(4, {(0, 1, 0, 0): 1}),
                                  Poly(4, {(0, 0, 1, 0): 1})])
        f1 = PolyGermMap(4, 3, 2, [
            Poly(4, {(1, 0, 0, 0): 1, (0, 0, 0, 3): 4}),
            Poly(4, {(0, 1, 0, 0): 1, (1, 1, 1, 0): -2, (0, 2, 0, 1): 4}),
            Poly(4, {(0, 0, 1, 0): 1, (2, 0, 0, 1): 4, (0, 0, 3, 0): 0.5})])
        pair = GermPair(f=f, f1=f1, z=AnalyticZ(n=4, form="subspace", coords=(1, 2, 3, 4)))
        consts = TrivializationConstants(C=1.0, C_prime=3.0, C_dprime=10.0,
                                         U_radius=0.5, r0=0.1)
        return pair, consts, VectorFieldW(build_F(pair), consts)
    pair, rep = pair_with_report(name)
    consts = calibrate_constants(pair, rep)
    return pair, consts, VectorFieldW(build_F(pair), consts)


def scaled(vf, **factors):
    """``vf`` with some constants multiplied by the given factors."""
    c = vf.constants
    return VectorFieldW(vf.F, dataclasses.replace(
        c, **{k: getattr(c, k) * v for k, v in factors.items()}))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLockStepOracle:
    """Stacked W, the lock-step flows and the batched isotopy against the
    one-point W, one ``solve_ivp`` per trajectory and the point-by-point
    loop, all equal bit for bit. No step may raise a RuntimeWarning: W does
    arithmetic on entries whose results it then discards."""

    @staticmethod
    def check_against_reference(vf, xis, X):
        """The failures among the rows of X, after checking every row's W or
        error against ``W_reference``."""
        W, errors = vf.eval_many(xis, X)
        failures = 0
        for x, xi, w, error in zip(X, xis, W, errors):
            try:
                want = W_reference(vf, xi, x)
            except (CoveringViolationError, ConvergenceError) as exc:
                failures += 1
                assert type(error) is type(exc) and str(error) == str(exc)
            else:
                assert error is None and same_bits(w, want)
        return failures

    @pytest.mark.parametrize("c_prime", [1.0, 6.0])
    @pytest.mark.parametrize("name", LOCKSTEP_PAIRS + [M3])
    def test_eval_many_matches_reference(self, name, c_prime):
        pair, consts, vf = lockstep_setup(name)
        vf = scaled(vf, C_prime=c_prime)
        X = ball_sample(pair.f.n, 2000, 1, radius=0.66 * consts.U_radius)
        X[::50] = 0.0      # on Z
        X[1::37, 1] = 0.0  # off Z with a zero coordinate: signed zeros in P
        xis = np.random.default_rng(1).uniform(-1.95, 1.95, len(X))
        assert (self.check_against_reference(vf, xis, X) > 1000) == (c_prime > 1.0)

    @pytest.mark.parametrize("name", LOCKSTEP_PAIRS + [M3])
    def test_rows_all_off_Z_and_good_match_reference(self, name):
        # the path with no row gather, no scatter and no error loop
        pair, consts, vf = lockstep_setup(name)
        X = ball_sample(pair.f.n, 300, 2, radius=0.66 * consts.U_radius)
        xis = np.random.default_rng(2).uniform(-1.95, 1.95, len(X))
        _, errors = vf.eval_many(xis, X)
        keep = (pair.z.distance_many(X) > ON_Z) & np.array([e is None for e in errors])
        X, xis = X[keep], xis[keep]
        assert len(X) > 250 and self.check_against_reference(vf, xis, X) == 0
        W, errors = vf.eval_many(xis, X)
        assert errors == [None] * len(X) and not np.shares_memory(W, X)

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 5)])
    def test_residuals_match_one_row_at_a_time(self, m, n):
        rng = np.random.default_rng(m)
        A = rng.standard_normal((3000, m, n))
        W, P = rng.standard_normal((3000, n)), rng.standard_normal((3000, m))
        want = [np.linalg.norm(a @ w + p) for a, w, p in zip(A, W, P)]
        assert np.array_equal(_residuals(A, W, P), want)

    @pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
    @pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-15])
    @pytest.mark.parametrize("name", LOCKSTEP_PAIRS)
    def test_flow_many_matches_reference(self, name, tol):
        pair, consts, vf = lockstep_setup(name)
        X0 = ball_sample(pair.f.n, 4, 2, radius=0.66 * consts.U_radius)
        X0[0] = 0.0
        forward, nfev, errors = flow_many(vf, X0, tol=tol, checkpoints=17)
        t = np.linspace(0.0, 1.0, 17)[7]
        back, back_nfev, back_errors = flow_many(vf, forward[:, 7], t_span=(t, 0.0),
                                                 tol=tol, checkpoints=2)
        assert errors == back_errors == [None] * len(X0)
        for p, x0 in enumerate(X0):
            states, k = flow_reference(vf, x0, tol=tol, checkpoints=17)
            assert same_bits(forward[p], states) and nfev[p] == k
            assert same_bits(flow(vf, x0, tol=tol), states)
            states, k = flow_reference(vf, forward[p, 7], t_span=(t, 0.0), tol=tol,
                                       checkpoints=2)
            assert same_bits(back[p], states) and back_nfev[p] == k
            assert same_bits(backward_flow(vf, forward[p, 7], t, tol=tol), states[-1])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", LOCKSTEP_PAIRS)
    def test_isotopy_matches_reference(self, name, seed):
        pair, consts, vf = lockstep_setup(name)
        grid = ball_sample(pair.f.n, 8, seed, radius=0.66 * consts.U_radius)
        got, want = isotopy(vf, grid), isotopy_reference(vf, grid)
        for key in ("forward", "conservation", "inverse_residuals"):
            assert same_bits(getattr(got, key), getattr(want, key)), key
        assert got.nfev_total == want.nfev_total

    @pytest.mark.parametrize("name, factors, error", [
        ("x2/x2_plus_x3", {"C_prime": 6.0}, CoveringViolationError),
        ("x2/x2_plus_x3", {"C_dprime": 1 / 50}, FieldBoundError),
        ("x2/x2_plus_x3", {"U_radius": 0.5}, DomainExitError),
        ("z2/z2_plus_cubes on R^3", {"C_prime": 6.0}, CoveringViolationError),
        ("z2/z2_plus_cubes on R^3", {"U_radius": 0.5}, DomainExitError),
    ])
    def test_doctored_constants_raise_the_reference_error(self, name, factors, error):
        pair, consts, vf = lockstep_setup(name)
        grid = ball_sample(pair.f.n, 8, 0, radius=0.66 * consts.U_radius)
        vf = scaled(vf, **factors)
        with pytest.raises(error) as want:
            isotopy_reference(vf, grid)
        with pytest.raises(error) as got:
            isotopy(vf, grid)
        assert type(got.value) is type(want.value) is error
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("ends, checkpoints", [(0.0, 2), (1.0, 5)])
    @pytest.mark.parametrize("name", LOCKSTEP_PAIRS)
    def test_flow_many_with_a_start_time_per_row(self, name, ends, checkpoints):
        pair, consts, vf = lockstep_setup(name)
        X0 = ball_sample(pair.f.n, 7, 3, radius=0.66 * consts.U_radius)
        X0[1] = 0.0  # on Z
        starts = np.linspace(0.0, 1.0, 17)[[3, 9, 0, 16, 7, 12, 9]]
        states, nfev, errors = flow_many(vf, X0, (starts, ends), checkpoints=checkpoints)
        assert errors == [None] * len(X0)
        for p, (x0, t0) in enumerate(zip(X0, starts)):
            if t0 == ends:  # stays put, as a row on Z does
                assert same_bits(states[p], np.tile(x0, (checkpoints, 1))) and nfev[p] == 0
                continue
            want, k = flow_reference(vf, x0, t_span=(t0, ends), checkpoints=checkpoints)
            assert same_bits(states[p], want) and nfev[p] == k
        assert np.flatnonzero(nfev == 0).tolist() == ([1, 2] if ends == 0.0 else [1, 3])

    def test_backward_flow_from_time_zero_is_a_copy(self):
        pair, consts, vf = lockstep_setup("x2/x2_plus_x3")
        y = ball_sample(2, 1, 0, radius=0.66 * consts.U_radius)[0]
        back = backward_flow(vf, y, 0.0)
        assert back is not y and not np.shares_memory(back, y) and same_bits(back, y)

    def test_first_failure_in_loop_order_wins(self):
        # each case fails the flows named by (point, checkpoint), the forward
        # flow where the checkpoint is None; the isotopy must raise the failure
        # a point-by-point loop meets first
        cases = [({(5, None), (2, 7)}, "backward flow of point 2 from checkpoint 7"),
                 ({(3, 7), (3, 3)}, "backward flow of point 3 from checkpoint 3"),
                 ({(4, 7), (4, None), (6, None)}, "forward flow of point 4")]
        pair, consts, vf = lockstep_setup("x2/x2_plus_x3")
        grid = ball_sample(2, 8, 0, radius=0.66 * consts.U_radius)
        times = np.linspace(0.0, 1.0, 17)
        forward = isotopy(vf, grid).forward
        assert np.all(pair.z.distance_many(grid) > 1e-14)
        starts = {}

        def injected(t, y):
            where = starts.get((float(t), tuple(np.asarray(y).tolist())))
            return where and DomainExitError(f"injected in the {where}")

        class Failing(VectorFieldW):
            def eval_many(self, xis, X):
                W, errors = super().eval_many(xis, X)
                return W, [injected(t, y) or e for t, y, e in zip(xis, X, errors)]

        def rhs(t, y):
            error = injected(t, y)
            if error:
                raise error
            return W_reference(vf, t, y)

        for fail, first in cases:
            starts.clear()
            for p, j in fail:
                if j is None:
                    starts[0.0, tuple(grid[p])] = f"forward flow of point {p}"
                    continue
                # the backward flow starts at H(x, t_j), or at x where the
                # forward flow of x failed and left x in place
                for y in (forward[p, j], grid[p]):
                    starts[times[j], tuple(y)] = (f"backward flow of point {p} "
                                                  f"from checkpoint {j}")
            with pytest.raises(DomainExitError) as want:
                isotopy_reference(vf, grid, rhs=rhs)
            with pytest.raises(DomainExitError) as got:
                isotopy(Failing(vf.F, consts), grid)
            assert str(got.value) == str(want.value) == f"injected in the {first}"


class TestStackedArithmetic:
    """The premise of the array-state RK45 in ``flow_many``: each stacked
    product over (N, 7, n) stages, and ``row_norms`` as the RMS norm, give
    every row the bits of scipy's one-row ``np.dot`` and ``norm``. A numpy
    or BLAS release that breaks it fails here, not as drift in H."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stacked_products_match_per_row_dot(self, n):
        rng = np.random.default_rng(n)
        K = rng.standard_normal((300, 7, n)) * np.exp(rng.uniform(-20, 2, (300, 1, 1)))
        Kt = K.transpose(0, 2, 1)
        for s in range(1, RK45.n_stages):  # the stage sums
            want = [np.dot(k[:s].T, RK45.A[s, :s]) for k in K]
            assert same_bits(np.matmul(Kt[:, :, :s], RK45.A[s, :s]), want), s
        assert same_bits(np.matmul(Kt[:, :, :-1], RK45.B), [np.dot(k[:-1].T, RK45.B) for k in K])
        assert same_bits(np.matmul(Kt, RK45.E), [np.dot(k.T, RK45.E) for k in K])
        assert same_bits(np.matmul(Kt, RK45.P), [k.T.dot(RK45.P) for k in K])
        x = K[:, 0] * 1e-3
        assert same_bits(row_norms(x) / n ** 0.5, [np.linalg.norm(v) / v.size ** 0.5 for v in x])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stacked_dense_output_matches_per_row_dot(self, n):
        # rows passing m checkpoints: their power tables by one cumprod, and
        # one stacked (n, 4) @ (4, m) product, as scipy's per-row tile and dot
        rng = np.random.default_rng(n)
        for m in (1, 2, 3, 5, 8, 17):
            Q = rng.standard_normal((400, n, 4)) * np.exp(rng.uniform(-20, 2, (400, 1, 1)))
            x = rng.uniform(0.0, 1.0, (400, m))
            tables = [np.cumprod(np.tile(v, (4, 1)), axis=0) for v in x]
            powers = np.cumprod(np.broadcast_to(x[:, None], (400, 4, m)), axis=1)
            assert same_bits(powers, tables), m
            assert same_bits(np.matmul(Q, powers), [np.dot(q, t) for q, t in zip(Q, tables)]), m


class StubField:
    """y' = g(t, y), entry by entry, in place of W: ``flow_many`` reads it
    from ``eval_many`` and ``flow_reference`` through its ``rhs`` hook. Where
    |y_0| exceeds ``limit`` the field fails, as W fails off its bound."""

    z = Z_HYP
    constants = TrivializationConstants(C=1.0, C_prime=1.0, C_dprime=0.2,
                                        U_radius=1e300, r0=1.0)

    def __init__(self, g, limit=np.inf):
        self.g, self.limit = g, limit

    def error(self, y):
        return FieldBoundError(f"|y_0| = {abs(y[0])!r} > {self.limit}")

    def rhs(self, t, y):
        if abs(y[0]) > self.limit:
            raise self.error(y)
        return self.g(t, y)

    def eval_many(self, xis, X):
        return (self.g(np.asarray(xis)[:, None], X),
                [self.error(y) if abs(y[0]) > self.limit else None for y in X])


def switched_on(t, y):
    """0 before t = 1/2, then y' = -40 y: the step over the switch fails."""
    return np.where(t < 0.5, 0.0, -40.0) * y


def blow_up(t, y):
    """y' = y^2, which leaves every bound at t = 1/y(0)."""
    return y * y


def decay(t, y):
    """y' = -y / 10: slow enough that a step of up to 1/2 passes several checkpoints."""
    return -0.1 * y


class TestStepControl:
    """Rejected attempts and the ``min_step`` failure, row by row against one
    ``solve_ivp`` per row on a stub field."""

    def test_rejected_steps_are_retried_as_scipy_retries_them(self):
        from scipy.integrate import solve_ivp
        vf = StubField(switched_on)
        X0 = np.array([[0.3, 0.2], [0.1, -0.4], [-2.0, 1e-3]])
        states, nfev, errors = flow_many(vf, X0)
        assert errors == [None] * len(X0)
        for p, x0 in enumerate(X0):
            want, k = flow_reference(vf, x0, rhs=vf.rhs)
            assert same_bits(states[p], want) and nfev[p] == k
            sol = solve_ivp(vf.rhs, (0.0, 1.0), x0, method="RK45", rtol=1e-9,
                            atol=1e-9, max_step=0.5)
            assert sol.nfev == k and len(sol.t) - 1 < (k - 2) / 6  # some rejected

    def test_min_step_failure_has_the_reference_message(self):
        vf = StubField(blow_up)
        x0 = np.array([0.1, 3.0])
        with pytest.raises(DomainExitError) as want:
            flow_reference(vf, x0, rhs=vf.rhs)
        states, nfev, (error,) = flow_many(vf, x0[None, :])
        assert type(error) is DomainExitError and str(error) == str(want.value)
        assert "Required step size is less than spacing" in str(error)
        assert same_bits(states[0], np.tile(x0, (17, 1))) and nfev[0] > 1000

    def test_mixed_batch_keeps_solo_bits(self):
        # row 1 fails its field inside a step attempt, row 3 the min_step
        # test; rows 0 and 2 still finish with the bits of their solo solves
        vf = StubField(blow_up, limit=5.0)
        X0 = np.array([[0.3, 0.2], [2.0, 0.5], [-0.6, 0.4], [0.1, 3.0]])
        states, nfev, errors = flow_many(vf, X0)
        for p in (0, 2):
            want, k = flow_reference(vf, X0[p], rhs=vf.rhs)
            assert errors[p] is None and same_bits(states[p], want) and nfev[p] == k
        for p, error in ((1, FieldBoundError), (3, DomainExitError)):
            with pytest.raises(error) as want:
                flow_reference(vf, X0[p], rhs=vf.rhs)
            assert type(errors[p]) is error and str(errors[p]) == str(want.value)
            assert same_bits(states[p], np.tile(X0[p], (17, 1)))
        assert (nfev[1] - 2) % 6 != 0  # in mid-attempt: not a step's last stage

    def test_steps_passing_several_checkpoints_keep_solo_bits(self):
        # the dense output of rows that pass different numbers of checkpoints
        # in one step; scipy's own step times count the checkpoints passed
        from scipy.integrate import solve_ivp
        vf = StubField(decay)
        X0 = np.array([[0.3, 0.2], [-2.0, 1e-3], [40.0, -7.0], [1e-5, 2e-6]])
        widest = 0
        for tol in (1e-9, 1e-6, 1e-3):
            for t_span, checkpoints in (((0.0, 1.0), 17), ((11 / 16, 0.0), 9)):
                states, nfev, errors = flow_many(vf, X0, t_span, tol, checkpoints)
                assert errors == [None] * len(X0)
                times = np.linspace(*t_span, checkpoints)
                for p, x0 in enumerate(X0):
                    want, k = flow_reference(vf, x0, t_span, tol, checkpoints, rhs=vf.rhs)
                    assert same_bits(states[p], want) and nfev[p] == k
                    sol = solve_ivp(vf.rhs, t_span, x0, method="RK45", rtol=tol, atol=tol,
                                    max_step=0.5)
                    reached = np.count_nonzero(np.sign(t_span[1] - t_span[0])
                                               * (times - sol.t[:, None]) <= 0, axis=1)
                    widest = max(widest, np.diff(reached).max())
        assert widest >= 2
