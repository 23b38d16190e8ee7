import dataclasses
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from jetsuff.errors import (CalibrationError, CoveringViolationError, DomainExitError,
                            FieldBoundError, InvalidInputError)
from jetsuff.germ import AnalyticZ, GermPair, PolyGermMap, load_germ
from jetsuff.lojasiewicz import estimate_condition
from jetsuff.poly import Poly
from jetsuff.sampling import ball_sample
from jetsuff.trivializer import (IsotopyResult, TrivializationConstants, VectorFieldW,
                                 _residuals, backward_flow, build_F,
                                 calibrate_constants, flow, flow_many, gronwall_check,
                                 isotopy)
from oracles import (W_reference, calibrate_constants_scalar, eval_reference,
                     flow_reference, gronwall_reference, isotopy_reference,
                     jacobian_reference)

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
        assert F.eval(1.0, [0.1, 0.0]) == pytest.approx([0.011])
        assert F.eval(0.0, [0.1, 0.0]) == pytest.approx(pair.f.eval([0.1, 0.0]))
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

    def test_rejects_distinct_jets(self):
        bad = make_pair({(2, 1): Fraction(1)})  # x^2 y changes the 2-jet on Z
        with pytest.raises(InvalidInputError):
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
        assert consts.U_radius == 1.0
        assert consts.C_dprime > 0

    def test_requires_holds_verdict(self):
        f3 = PolyGermMap(2, 1, 2, [Poly(2, {(3, 0): Fraction(1)})])
        pair = GermPair(f=f3, f1=f3, z=Z_HYP)
        rep = estimate_condition(f3, Z_HYP, 2, RADII, 512, 0)
        with pytest.raises(InvalidInputError):
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
            calibrate_constants_scalar(pair, rep)
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

    def test_field_bound_violation_is_a_property_failure(self, cubic_setup):
        pair, _, consts, _ = cubic_setup
        tiny = TrivializationConstants(
            C=consts.C, C_prime=consts.C_prime, C_dprime=1e-3,
            U_radius=consts.U_radius, r0=consts.r0)
        vf_tiny = VectorFieldW(build_F(pair, check_jets=False), tiny)
        with pytest.raises(FieldBoundError, match="field bound violated"):
            vf_tiny.eval(1.0, [0.1, 0.0])
        assert issubclass(FieldBoundError, CoveringViolationError)

    def test_covering_violation_reported(self, cubic_setup):
        pair, _, consts, _ = cubic_setup
        inflated = TrivializationConstants(
            C=consts.C, C_prime=1e6, C_dprime=consts.C_dprime,
            U_radius=consts.U_radius, r0=consts.r0)
        vf_bad = VectorFieldW(build_F(pair, check_jets=False), inflated)
        with pytest.raises(CoveringViolationError):
            vf_bad.eval(0.0, [0.1, 0.0])


class TestFlow:
    def test_start_on_Z_is_constant(self, cubic_setup):
        _, _, _, vf = cubic_setup
        traj = flow(vf, [0.0, 0.1])
        assert np.all(traj.states == np.array([0.0, 0.1]))

    def test_endpoint_solves_conservation_equation(self, cubic_setup):
        _, _, _, vf = cubic_setup
        traj = flow(vf, [0.1, 0.0], tol=1e-10)
        h = brentq(lambda t: t * t + t ** 3 - 0.01, 0.05, 0.15, xtol=1e-15)
        assert traj.endpoint[0] == pytest.approx(h, abs=1e-5)
        assert traj.endpoint[1] == 0.0

    def test_zero_perturbation_identity_flow(self):
        pair = make_pair({})
        rep = estimate_condition(pair.f, pair.z, 2, RADII, 512, 0)
        consts = calibrate_constants(pair, rep)
        vf = VectorFieldW(build_F(pair), consts)
        traj = flow(vf, [0.1, 0.05], tol=1e-9)
        assert np.max(np.abs(traj.states - np.array([0.1, 0.05]))) <= 1e-9


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
        res.write_json(tmp_path / "iso.json")
        res.write_csv(tmp_path / "iso.csv")
        lines = (tmp_path / "iso.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + res.grid.shape[0] * len(res.times)


LOCKSTEP_PAIRS = ["x2/x2_plus_x3", "z2/z2_plus_cubes on R^3"]


@lru_cache(maxsize=None)
def lockstep_setup(name):
    pair, rep = pair_with_report(name)
    consts = calibrate_constants(pair, rep)
    return pair, consts, VectorFieldW(build_F(pair), consts)


def scaled(vf, **factors):
    """``vf`` with some constants multiplied by the given factors."""
    c = vf.constants
    return VectorFieldW(vf.F, dataclasses.replace(
        c, **{k: getattr(c, k) * v for k, v in factors.items()}))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestLockStepOracle:
    """Stacked W, the lock-step flows and the batched isotopy against the
    one-point W, one ``solve_ivp`` per trajectory and the point-by-point
    loop, all equal bit for bit."""

    @pytest.mark.parametrize("c_prime", [1.0, 6.0])
    @pytest.mark.parametrize("name", LOCKSTEP_PAIRS)
    def test_eval_many_matches_reference(self, name, c_prime):
        pair, consts, vf = lockstep_setup(name)
        vf = scaled(vf, C_prime=c_prime)
        X = ball_sample(pair.f.n, 2000, 1, radius=0.66 * consts.U_radius)
        X[::50] = 0.0      # on Z
        X[1::37, 1] = 0.0  # off Z with a zero coordinate: signed zeros in P
        xis = np.random.default_rng(1).uniform(-1.95, 1.95, len(X))
        W, errors = vf.eval_many(xis, X)
        failures = 0
        for x, xi, w, error in zip(X, xis, W, errors):
            try:
                want = W_reference(vf, xi, x)
            except (CoveringViolationError, InvalidInputError) as exc:
                failures += 1
                assert type(error) is type(exc) and str(error) == str(exc)
            else:
                assert error is None and same_bits(w, want)
        assert (failures > 1000) == (c_prime > 1.0)

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

    def test_first_failure_in_loop_order_wins(self):
        # point 5 fails in its forward flow, point 2 in its backward flow from
        # checkpoint 7; a point-by-point loop meets point 2's failure first
        pair, consts, vf = lockstep_setup("x2/x2_plus_x3")
        grid = ball_sample(2, 8, 0, radius=0.66 * consts.U_radius)
        t7 = np.linspace(0.0, 1.0, 17)[7]
        y27 = isotopy(vf, grid).forward[2, 7]
        assert np.all(pair.z.distance_many(grid[[2, 5]]) > 1e-14)
        starts = {(0.0, tuple(grid[5])): "forward flow of point 5",
                  (t7, tuple(y27)): "backward flow of point 2 from checkpoint 7"}

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

        with pytest.raises(DomainExitError) as want:
            isotopy_reference(vf, grid, rhs=rhs)
        with pytest.raises(DomainExitError) as got:
            isotopy(Failing(vf.F, consts), grid)
        assert (str(got.value) == str(want.value)
                == "injected in the backward flow of point 2 from checkpoint 7")
