from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from jetsuff import lojasiewicz
from jetsuff.cli import _radii
from jetsuff.errors import ConvergenceError, InvalidInputError
from jetsuff.germ import AnalyticZ, GermPair, PolyGermMap, SampledZ, load_germ
from jetsuff.linmap import LinearMap, nu_many
from jetsuff.lojasiewicz import (POLISH, LojasiewiczReport, ViolationSequence,
                                 _dyadic_nelder_mead, _nelder_mead, _ratio_stats,
                                 check_corollary_hypotheses,
                                 estimate_condition, falls_like_inverse_nu,
                                 find_violation_sequence, fit_exponent)
from jetsuff.poly import Poly
from jetsuff.report import write_json
from jetsuff.sampling import unit_shell_sample
from oracles import (corollary_reference, find_violation_sequence_reference,
                     ratio_stats_reference, same_bits, sample_points, table_reference)

RADII = [0.5, 0.25, 0.125, 0.0625]
Z_HYP = AnalyticZ(n=2, form="subspace", coords=(1,))
Z_ORIGIN = AnalyticZ(n=2, form="subspace", coords=(1, 2))


def power_germ(p, k=2):
    return PolyGermMap(2, 1, k, [Poly(2, {(p, 0): Fraction(1)})])


class TestEstimate:
    def test_x2_ratio_is_two(self):
        rep = estimate_condition(power_germ(2), Z_HYP, 2, RADII, 512, 0)
        assert rep.verdict == "holds"
        assert rep.C_hat == pytest.approx(2.0, abs=0.01)

    def test_sum_of_squares_point_singularity(self):
        f = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): 1, (0, 2): 1})])
        rep = estimate_condition(f, Z_ORIGIN, 2, RADII, 512, 0)
        assert rep.verdict == "holds"
        assert rep.C_hat == pytest.approx(2.0, abs=0.01)

    def test_x3_with_k2_fails_linearly(self):
        rep = estimate_condition(power_germ(3), Z_HYP, 2, RADII, 512, 0)
        assert rep.verdict == "fails"
        # minima track the closed-form ratio 3|x|: halving with the radius
        for a, b in zip(rep.minima, rep.minima[1:]):
            assert b / a == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_inconclusive(self, seed):
        # x1^2 + x1 x2^2, whose ratio falls like |x2| along 2 x1 = -x2^2: the
        # minima fall below half the first, but not on every annulus
        f = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): 1, (1, 2): 1})])
        rep = estimate_condition(f, Z_HYP, 2, RADII, 512, seed)
        assert rep.verdict == "inconclusive"
        assert rep.C_hat < 0.5 * rep.minima[0]

    def test_bad_radii_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_condition(power_germ(2), Z_HYP, 2, [0.5, 0.25, 0.125], 512, 0)
        with pytest.raises(InvalidInputError):
            estimate_condition(power_germ(2), Z_HYP, 2, RADII, 100, 0)

    def test_density_stability(self):
        a = estimate_condition(power_germ(2), Z_HYP, 2, RADII, 512, 0)
        b = estimate_condition(power_germ(2), Z_HYP, 2, RADII, 1024, 0)
        assert abs(a.C_hat - b.C_hat) < 0.01 * a.C_hat

    def test_verdict_stable_across_seeds(self):
        verdicts = {estimate_condition(power_germ(2), Z_HYP, 2, RADII, 512, s).verdict
                    for s in range(10)}
        assert verdicts == {"holds"}

    @pytest.mark.parametrize("seed", range(4))
    def test_holds_is_monotone_in_k(self, seed):
        # for dist <= 1, nu/dist^k >= nu/dist^(k-1): the condition at k implies
        # it at k + 1, and so must the verdict on every bundled germ
        broken = []
        for path in sorted(GERMS.glob("*.json")):
            if path.stem == "x2y2_diagonal_seq":
                continue
            f, z = load_germ(path)
            holds = [estimate_condition(f, z, k, RADII, 512, seed).verdict == "holds"
                     for k in range(2, 8)]
            broken += [f"{path.stem}: holds at k={k}, not at k={k + 1}"
                       for k, (a, b) in enumerate(zip(holds, holds[1:]), start=2)
                       if a and not b]
        assert broken == []

    def test_report_roundtrip(self, tmp_path):
        rep = estimate_condition(power_germ(2), Z_HYP, 2, RADII, 512, 0)
        write_json(tmp_path / "r.json", rep.to_dict())
        rep.write_csv(tmp_path / "r.csv")
        assert (tmp_path / "r.json").exists()
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0].startswith("annulus,radius,min_ratio")
        assert len(lines) == 1 + len(RADII)


class TestFitExponent:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_power_germs(self, p):
        theta = fit_exponent(power_germ(p), Z_HYP, RADII, 512, 0)
        assert theta == pytest.approx(p - 1, abs=0.05)

    def test_radial_quadratic(self):
        f = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): 1, (0, 2): 1})])
        theta = fit_exponent(f, Z_ORIGIN, RADII, 512, 0)
        assert theta == pytest.approx(1.0, abs=0.05)

    def test_vanishing_nu_has_no_slope(self):
        # nu = 2e-20 |x1| stays below 1e-14 on every annulus
        f = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): 1e-20})])
        with pytest.raises(ConvergenceError, match="^nu vanished on every annulus"):
            fit_exponent(f, Z_HYP, RADII, 512, 0)


class TestFallsLikeInverseNu:
    def test_equality_at_the_bound_passes(self):
        assert falls_like_inverse_nu([6.0, 3.0, 2.0, 1.5])

    def test_slack_of_1e_15(self):
        assert falls_like_inverse_nu([1.0, 0.5 + 1e-15])
        assert not falls_like_inverse_nu([1.0, 0.5 + 4e-15])

    def test_flat_sequence_fails(self):
        # the per-ball decay of the x2y2 diagonal, where the condition holds
        assert not falls_like_inverse_nu([1.534576183200281, 1.5310598879004687,
                                          1.5298877894671978, 1.5294970899894407])

    def test_one_element_passes(self):
        assert falls_like_inverse_nu([2.5])


class TestViolationSequence:
    def test_x3_produces_decaying_sequence(self):
        seq = find_violation_sequence(power_germ(3), Z_HYP, 2, 0)
        assert seq is not None
        assert len(seq.points) >= 3
        # invariants re-checked here on top of the constructor's own checks
        for d0, d1 in zip(seq.dists, seq.dists[1:]):
            assert d1 < 0.5 * d0
        for r0, r1 in zip(seq.ratios, seq.ratios[1:]):
            assert r1 < r0
        # the closed-form minimizer sits near the Z hyperplane
        for p_, r_ in zip(seq.points, seq.ratios):
            assert r_ == pytest.approx(3 * abs(p_[0]), rel=1e-9)

    def test_x2_has_no_violation(self):
        assert find_violation_sequence(power_germ(2), Z_HYP, 2, 0) is None

    def test_invariant_enforcement(self):
        with pytest.raises(InvalidInputError):
            ViolationSequence(points=((0.1, 0), (0.06, 0)),
                              ratios=(1.0, 0.9), dists=(0.1, 0.06))

    @pytest.mark.parametrize("ratios, message", [
        ((1.0, 1.0, 0.3), "ratios must strictly decrease"),
        ((1.0, 0.6, 0.3), "ratios must decay at least like 1/nu"),
    ])
    def test_ratio_rules(self, ratios, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            ViolationSequence(points=((0.1, 0), (0.04, 0), (0.01, 0)), ratios=ratios,
                              dists=(0.1, 0.04, 0.01))

    @pytest.mark.parametrize("points, ratios, dists", [
        ((), (), ()),
        (((0.1, 0), (0.04, 0)), (1.0,), (0.1, 0.04)),
        (((0.1, 0),), (1.0, 0.4), (0.1,)),
        (((0.1, 0), (0.04, 0)), (1.0, 0.4), (0.1,)),
    ])
    def test_empty_or_ragged_fields_rejected(self, points, ratios, dists):
        with pytest.raises(InvalidInputError, match="nonempty and of one length"):
            ViolationSequence(points=points, ratios=ratios, dists=dists)

    def test_one_length_passes(self):
        seq = ViolationSequence(points=((0.1, 0), (0.04, 0)), ratios=(1.0, 0.4),
                                dists=(0.1, 0.04))
        assert len(seq.points) == len(seq.ratios) == len(seq.dists) == 2


class TestCorollary:
    def pair(self, extra_terms):
        f = power_germ(2)
        terms = {(2, 0): Fraction(1), **extra_terms}
        f1 = PolyGermMap(2, 1, 2, [Poly(2, terms)])
        return GermPair(f=f, f1=f1, z=Z_HYP)

    def test_quartic_perturbation_passes(self):
        rep = check_corollary_hypotheses(self.pair({(4, 0): Fraction(1)}),
                                         [0.25, 0.125, 0.0625, 0.03125], 512, 0)
        assert rep.passes and not rep.diverges
        assert rep.C == pytest.approx(2.0, abs=0.01)
        assert rep.C2 < 0.5

    def test_identical_pair_trivially_passes(self):
        rep = check_corollary_hypotheses(self.pair({}), RADII, 512, 0)
        assert rep.passes
        assert rep.C1 == 0.0 and rep.C2 == 0.0

    def test_linear_perturbation_diverges(self):
        rep = check_corollary_hypotheses(self.pair({(1, 0): Fraction(1)}),
                                         RADII, 512, 0)
        assert not rep.passes
        assert rep.diverges


GERMS = Path(__file__).resolve().parent.parent / "germs"
Z_R3 = AnalyticZ(n=3, form="subspace", coords=(1, 2))
# multi-term partials with non-dyadic coefficients, so the order of the
# floating-point sums matters
MULTI = PolyGermMap(2, 1, 2, [Poly(2, {
    (2, 0): 1, (3, 1): Fraction(3, 2), (2, 2): Fraction(-1, 3), (4, 0): 0.1,
    (1, 3): Fraction(-2, 7)})])
MULTI_R3 = PolyGermMap(3, 2, 2, [
    Poly(3, {(2, 0, 0): 1, (0, 2, 0): -1, (3, 0, 0): Fraction(1, 3), (1, 1, 1): -0.1}),
    Poly(3, {(1, 1, 0): 2, (0, 3, 0): Fraction(2, 7), (2, 0, 1): 1})])
Z2 = PolyGermMap(3, 2, 2, [Poly(3, {(2, 0, 0): 1, (0, 2, 0): -1}),
                           Poly(3, {(1, 1, 0): 2})])


def bundled(name):
    return load_germ(GERMS / f"{name}.json")


def axis_cloud():
    """The x2 axis of R^2 from 1 down to 2^-30, 8 points per octave, and 0."""
    mags = 2.0 ** -np.linspace(0, 30, 241)
    return np.vstack([[0.0, 0.0], np.stack([0 * mags, mags], axis=1),
                      np.stack([0 * mags, -mags], axis=1)])


ANNULUS_CASES = {
    **{name: lambda name=name: bundled(name)
       for name in ("x2", "sum_of_squares", "x2y2", "x3")},
    "x2 over an axis cloud": lambda: (bundled("x2")[0],
                                      SampledZ(n=2, points=axis_cloud())),
    "z2 on R^3": lambda: (Z2, Z_R3),
    "multi-term": lambda: (MULTI, Z_HYP),
    "multi-term on R^3": lambda: (MULTI_R3, Z_R3),
}


def plus(f, terms):
    """f with the given terms added, one dict per component."""
    comps = [p + Poly(f.n, t) for p, t in zip(f.components, terms)]
    return PolyGermMap(f.n, f.m, f.k, comps)


def bundled_pair(name, extra):
    f = bundled(name)[0]
    return GermPair(f=f, f1=plus(f, extra), z=Z_HYP)


COROLLARY_PAIRS = {
    "x2/x2_plus_x4": lambda: bundled_pair("x2", [{(4, 0): 1}]),
    "x2/x2_plus_x3": lambda: bundled_pair("x2", [{(3, 0): 1}]),
    "x3/x3_plus_x4": lambda: bundled_pair("x3", [{(4, 0): 1}]),
    "z2/z2_plus_cubes on R^3": lambda: GermPair(
        f=Z2, f1=plus(Z2, [{(3, 0, 0): 1}, {(0, 3, 0): 1}]), z=Z_R3),
    "multi-term": lambda: GermPair(
        f=MULTI, f1=plus(MULTI, [{(3, 2): Fraction(1, 5), (4, 0): Fraction(1, 3)}]),
        z=Z_HYP),
    "multi-term on R^3": lambda: GermPair(
        f=MULTI_R3, f1=plus(MULTI_R3, [{(3, 0, 0): 0.3}, {(1, 2, 0): Fraction(-1, 3)}]),
        z=Z_R3),
}


class TestBatchedAgainstPointwise:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(ANNULUS_CASES)), st.integers(0, 7),
           st.sampled_from([256, 512]), st.floats(1e-4, 1.0), st.integers(0, 3),
           st.booleans())
    def test_ratio_stats(self, name, seed, count, r, k_extra, only_Z):
        f, z = ANNULUS_CASES[name]()
        k = f.k + k_extra
        X = sample_points(z, 8, seed, radius=r)
        if not only_Z:
            X = np.vstack([r * unit_shell_sample(f.n, count, seed), X])
        got = _ratio_stats(f, z, k, X, z.distance_many(X), nu_many(f.jacobian_many(X)))
        want = ratio_stats_reference(f, z, k, X)
        if want is None:
            assert got is None
            return
        assert type(got[0]) is float and type(got[2]) is float
        assert (got[0], got[2], got[3], got[4]) == (want[0], want[2], want[3], want[4])
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(COROLLARY_PAIRS)), st.integers(0, 7),
           st.floats(1e-4, 0.5))
    def test_corollary(self, name, seed, r0):
        pair = COROLLARY_PAIRS[name]()
        radii = [r0 * 0.5 ** i for i in range(4)]
        rep = check_corollary_hypotheses(pair, radii, 256, seed)
        C, C1, c2, skipped = corollary_reference(pair, radii, 256, seed)
        assert (rep.C, rep.C1, rep.skipped) == (C, C1, skipped)
        # ||dP|| is linmap.norm2_many's closed form for m <= 2, the reference's an
        # SVD: within 4.4 eps of each other on random matrices, 8 eps is the bound
        assert rep.C2_per_annulus == pytest.approx(c2, rel=8 * np.finfo(float).eps, abs=0)
        assert rep.C2 == pytest.approx(max(c2), rel=8 * np.finfo(float).eps, abs=0)


SEARCH_CASES = ([("x3", s) for s in range(8)]
                + [(g, s) for g in ("x2y2", "x2", "x4", "z2", "x3 over an axis cloud")
                   for s in range(4)])


def search_germ(name):
    if name == "x4":  # x1^4 at k = 3 over {x1 = 0}: a squared Python power
        return power_germ(4, k=3), Z_HYP
    if name == "z2":  # m = 2: the SVD branch of nu_many
        return load_germ(GERMS.parent / "perfbench" / "germs" / "z2.json")
    if name == "x3 over an axis cloud":  # x3's Z = {x1 = 0} as a SampledZ
        return bundled("x3")[0], SampledZ(n=2, points=axis_cloud())
    return bundled(name)


def counted_search(search, name, seed):
    """``search`` on a fresh germ, and its number of ``jacobian_many`` calls."""
    f, z = search_germ(name)
    calls = []
    jacobian_many = f.jacobian_many
    f.jacobian_many = lambda X: calls.append(len(X)) or jacobian_many(X)
    return search(f, z, f.k, seed), len(calls)


@pytest.fixture(scope="module")
def reference():
    """The reference search on one case, run once per module."""
    cache = {}

    def get(name, seed):
        if (name, seed) not in cache:
            cache[name, seed] = counted_search(find_violation_sequence_reference,
                                               name, seed)
        return cache[name, seed]
    return get


class TestSearchAgainstReference:
    """The lock-step violation search against the scalar one, which ran one
    ``optimize.minimize`` per annulus and built a ``LinearMap`` for ``nu``
    at every Nelder-Mead evaluation."""

    @pytest.mark.parametrize("name, seed", SEARCH_CASES)
    def test_same_sequence(self, reference, name, seed):
        got, _ = counted_search(find_violation_sequence, name, seed)
        want, _ = reference(name, seed)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.to_dict() == want.to_dict()

    def test_objective_is_stacked(self, reference):
        # one stacked objective call per round for all annuli, in place of
        # one one-row call per Nelder-Mead evaluation
        got, calls = counted_search(find_violation_sequence, "x3", 0)
        want, one_row_calls = reference("x3", 0)
        assert got.to_dict() == want.to_dict()
        assert calls < one_row_calls / 4

    @pytest.mark.parametrize("name", ["x3", "z2", "x3 over an axis cloud"])
    def test_objective_row_independent(self, monkeypatch, name):
        # a row's value alone is its value among the 4 rows (one run, for the
        # homogeneous germs over an analytic Z) or the 4R rows (lock-step) of
        # each trial call
        calls = []
        polish = "_nelder_mead" if "cloud" in name else "_dyadic_nelder_mead"
        run = getattr(lojasiewicz, polish)

        def recording(objective, *args):
            def recorded(X, *which):
                calls.append((objective, X, which))
                return objective(X, *which)
            return run(recorded, *args)
        monkeypatch.setattr(lojasiewicz, polish, recording)
        f, z = search_germ(name)
        find_violation_sequence(f, z, f.k, 0)

        def trial(X, which):  # not the start or a shrink
            return np.all(np.bincount(which[0])[which[0]] == 4) if which else len(X) == 4
        trials = [call for call in calls[1:] if trial(*call[1:])]
        objective, X, which = trials[0]
        # the first trial rows again, some moved out of their annulus
        trials.append((objective, X * np.resize([1.0, 3.0, 0.3, 1.0], len(X))[:, None], which))
        values = []
        for objective, X, which in trials:
            together = objective(X, *which)
            alone = [objective(X[i:i + 1], *(w[i:i + 1] for w in which))[0]
                     for i in range(len(X))]
            assert same_bits(together, alone)
            values.extend(alone)
        # rows inside the trust region and outside it
        assert np.isfinite(values).any() and np.isinf(values).any()

    def test_builds_no_linear_map(self, monkeypatch):
        built = []
        post_init = LinearMap.__post_init__
        monkeypatch.setattr(LinearMap, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        f, z = bundled("x3")
        assert find_violation_sequence(f, z, f.k, 0) is not None
        assert built == []


class TestAnnulusTable:
    """Every annulus scan draws its shell and drops the rows near Z in one place."""

    def test_one_shell_per_scan(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(lojasiewicz, "unit_shell_sample",
                            lambda *args: drawn.append(args) or unit_shell_sample(*args))
        f, z = bundled("x3")
        scans = [lambda: estimate_condition(f, z, f.k, RADII, 512, 0),
                 lambda: fit_exponent(f, z, RADII, 512, 0),
                 lambda: check_corollary_hypotheses(COROLLARY_PAIRS["x3/x3_plus_x4"](),
                                                    RADII, 512, 0),
                 lambda: find_violation_sequence(f, z, f.k, 0)]
        for scan in scans:
            drawn.clear()
            scan()
            assert len(drawn) == 1

    @pytest.mark.parametrize("radii, count, message", [
        (RADII[:3], 512, "need >= 4 strictly decreasing positive radii"),
        (RADII[::-1], 512, "need >= 4 strictly decreasing positive radii"),
        (RADII, 128, "need >= 256 samples per annulus"),
        # nan fails every comparison and inf every difference; both used to
        # pass, and fail later as non-finite Jacobian entries
        ([0.5, 0.25, float("nan"), 0.0625], 512, "need >= 4 strictly decreasing positive radii"),
        ([float("inf"), 0.25, 0.125, 0.0625], 512, "need >= 4 strictly decreasing positive radii"),
    ])
    def test_every_scan_checks_its_radii(self, radii, count, message):
        f, z = bundled("x2")
        pair = COROLLARY_PAIRS["x2/x2_plus_x4"]()
        for scan in (lambda: estimate_condition(f, z, f.k, radii, count, 0),
                     lambda: fit_exponent(f, z, radii, count, 0),
                     lambda: check_corollary_hypotheses(pair, radii, count, 0)):
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                scan()

    @pytest.mark.parametrize("depth, count, message", [
        (3, 512, "need >= 4 strictly decreasing positive radii"),
        (12, 128, "need >= 256 samples per annulus"),
    ])
    def test_search_checks_its_radii(self, monkeypatch, depth, count, message):
        # the search scans SEARCH_DEPTH annuli of radius 1/2, 1/4, ...
        monkeypatch.setattr(lojasiewicz, "SEARCH_DEPTH", depth)
        monkeypatch.setattr(lojasiewicz, "SEARCH_SAMPLES", count)
        f, z = bundled("x3")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            find_violation_sequence(f, z, f.k, 0)

    def test_an_annulus_inside_Z_stops_every_scan(self):
        # a cloud holding the seed's whole shell at 2^-12, the search's last
        # radius: the search used to drop that annulus where the estimator raised
        f, _ = bundled("x3")
        r = 0.5 ** lojasiewicz.SEARCH_DEPTH
        shell = r * unit_shell_sample(2, lojasiewicz.SEARCH_SAMPLES, 0)
        z = SampledZ(n=2, points=np.vstack([[0.0, 0.0], shell]))
        for scan in (lambda: estimate_condition(f, z, f.k, [8 * r, 4 * r, 2 * r, r], 512, 0),
                     lambda: find_violation_sequence(f, z, f.k, 0)):
            with pytest.raises(InvalidInputError,
                               match=f"^all samples at radius {r} fell into Z$"):
                scan()

    @pytest.mark.parametrize("name", ["x3", "x2y2", "z2"])
    @pytest.mark.parametrize("seed", range(4))
    def test_search_starts_from_the_estimate_argmins(self, monkeypatch, name, seed):
        # the search's first four annuli are the estimate's, from one table;
        # its one run starts from the first, the others its dyadic copies
        starts = []
        run = lojasiewicz._dyadic_nelder_mead
        monkeypatch.setattr(lojasiewicz, "_dyadic_nelder_mead",
                            lambda objective, x0, *args: starts.append(x0)
                            or run(objective, x0, *args))
        f, z = search_germ(name)
        find_violation_sequence(f, z, f.k, seed)
        rep = estimate_condition(f, z, f.k, RADII, lojasiewicz.SEARCH_SAMPLES, seed)
        assert len(starts) == 1 and same_bits(starts[0], rep.argmins[0])
        assert same_bits(np.ldexp(starts[0], -np.arange(4)[:, None]), rep.argmins)


CLI_RADII = {"check": _radii(4), "corollary": _radii(4, r0=0.25), "check --annuli 6": _radii(6),
             "search": [0.5 ** j for j in range(1, lojasiewicz.SEARCH_DEPTH + 1)]}


@st.composite
def homogeneous_germs(draw):
    """A germ on R^n (n <= 4) with m <= 3 components, every term of one total
    degree, small integer or rational coefficients, and an analytic Z."""
    n = draw(st.integers(1, 4))
    m, degree = draw(st.integers(1, min(n, 3))), draw(st.integers(1, 4))
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 7))
    components = []
    for _ in range(m):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            e = [0] * n
            for i in draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree)):
                e[i] += 1
            terms[tuple(e)] = draw(coeffs)
        components.append(Poly(n, terms))
    coords = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    form = draw(st.sampled_from(["subspace", "union_hyperplanes"]))
    return PolyGermMap(n, m, 2, components), AnalyticZ(n=n, form=form, coords=tuple(coords))


def table_and_calls(f, z, k, radii, seed):
    """``_table``'s (radius, stats) rows, or its error, against
    ``table_reference``'s, and the jacobian_many calls ``_table`` made."""
    def table(scan):
        try:
            return list(zip(*scan(f, z, k, radii, 256, seed)))
        except InvalidInputError as exc:
            return str(exc)

    calls = []
    jacobian_many = PolyGermMap.jacobian_many
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PolyGermMap, "jacobian_many",
                   lambda self, X: calls.append(1) or jacobian_many(self, X))
        got = table(lojasiewicz._table)
    return got, table(table_reference), len(calls)


def same_table(got, want) -> bool:
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return len(got) == len(want) and all(
        r == s and a[3] == b[3] and all(same_bits(a[i], b[i]) for i in (0, 1, 2, 4))
        for (r, a), (s, b) in zip(got, want))


def scaled_z2(c):
    return PolyGermMap(3, 2, 2, [Poly(3, {(2, 0, 0): c, (0, 2, 0): -c}),
                                 Poly(3, {(1, 1, 0): 2 * c})])


# (f, z, radii) that each annulus is evaluated for
FALLBACKS = {
    "non-dyadic radii": lambda: (*bundled("x3"), [0.5, 0.3, 0.2, 0.1]),
    "a samples Z": lambda: (*ANNULUS_CASES["x2 over an axis cloud"](), RADII),
    "non-homogeneous": lambda: (PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): 1, (0, 4): 1})]),
                                Z_ORIGIN, RADII),
    # df near 2^-800: every row also falls within DIST_FLOOR of Z
    "radii near 2^-400": lambda: (*bundled("x3"), [0.5 ** j for j in range(397, 401)]),
    "a coefficient near 2^-440": lambda: (PolyGermMap(2, 1, 2, [Poly(2, {(3, 0): 2.0 ** -440})]),
                                          Z_HYP, RADII),
    # LAPACK rescales a matrix whose largest entry is below 2^-459, and the
    # singular values of the rescaled one are not the scaled ones: a bound of
    # 2^-500 would give this table other bits
    "df across 2^-459": lambda: (scaled_z2(2.0 ** -445), Z_R3, CLI_RADII["search"]),
}


class TestOneShell:
    """A homogeneous germ's annuli over an analytic Z are its outermost
    annulus scaled by powers of two, bit for bit; every other case evaluates
    each annulus."""

    @settings(max_examples=80, deadline=None)
    @given(homogeneous_germs(), st.integers(2, 6), st.integers(0, 7),
           st.sampled_from(sorted(CLI_RADII)))
    def test_scaled_table_is_the_full_table(self, germ, k, seed, radii):
        f, z = germ
        got, want, calls = table_and_calls(f, z, k, CLI_RADII[radii], seed)
        assert same_table(got, want)
        assert calls == 1

    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_fallbacks_evaluate_every_annulus(self, case):
        f, z, radii = FALLBACKS[case]()
        got, want, calls = table_and_calls(f, z, f.k, radii, 0)
        assert same_table(got, want)
        assert calls == len(radii)


def polishes(f, z, k, seed):
    """``find_violation_sequence``'s dict (or its error), and the name, result
    and objective row counts of each Nelder-Mead call it made, in order."""
    calls = []

    def recording(name):
        run = getattr(lojasiewicz, name)

        def recorded(objective, *args):
            rows = []
            out = run(lambda X, *which: rows.append(len(X)) or objective(X, *which), *args)
            calls.append((name, out, rows))
            return out
        return recorded

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_dyadic_nelder_mead", "_nelder_mead"):
            mp.setattr(lojasiewicz, name, recording(name))
        try:
            seq = find_violation_sequence(f, z, k, seed)
        except InvalidInputError as exc:
            return str(exc), calls
    return seq and seq.to_dict(), calls


def lock_step(f, z, k, seed):
    """``polishes`` of f with its degree unknown, so the table evaluates each
    annulus and the search polishes each in lock-step."""
    g = PolyGermMap(f.n, f.m, f.k, f.components)
    g.degree = None
    seq, calls = polishes(g, z, k, seed)
    assert [name for name, _, _ in calls] in ([], ["_nelder_mead"])
    return seq, calls


def same_polish(got, want) -> bool:
    return all(same_bits(a, b) for a, b in zip(got, want))


def on_x1_axis(n, count, seed):
    """The seed's shell turned onto the x1 axis: the rows (|x|, 0)."""
    return np.linalg.norm(unit_shell_sample(n, count, seed), axis=1)[:, None] * [1.0, 0.0]


def floor_in_the_last_trust_region():
    """x3 at k = 2 with DIST_FLOOR half the dist of the last annulus's argmin,
    the least dist on that annulus: the table keeps its argmins, and the
    last trust region reaches down to 0.45 times that dist."""
    f, z = bundled("x3")
    _, stats = lojasiewicz._table(f, z, 2, CLI_RADII["search"], lojasiewicz.SEARCH_SAMPLES, 0)
    return f, z, 2, {"DIST_FLOOR": stats[-1][4] / 2}


# (f, z, k, and the attributes of lojasiewicz to replace) whose search
# polishes every annulus in lock-step, after a one run for those marked
SEARCH_FALLBACKS = {
    "a zero coordinate in the start": lambda: (*bundled("x3"), 2,
                                               {"unit_shell_sample": on_x1_axis}),
    "DIST_FLOOR inside a trust region": lambda: floor_in_the_last_trust_region(),
    "non-homogeneous": lambda: (*bundled("x2_x4"), 2, {}),
    "a samples Z": lambda: (*search_germ("x3 over an axis cloud"), 2, {}),
    # one run: df at its rows falls below 2^-450 by the deepest annulus
    "one run, a coefficient near 2^-440": lambda: (
        PolyGermMap(2, 1, 2, [Poly(2, {(3, 0): 2.0 ** -440})]), Z_HYP, 2, {}),
}


class TestOneRun:
    """A homogeneous germ's search over an analytic Z polishes its outermost
    annulus with one Nelder-Mead run and scales it to the others, with the
    lock-step polish's bits; every other case polishes in lock-step."""

    @settings(max_examples=30, deadline=None)
    @given(homogeneous_germs(), st.integers(2, 6), st.integers(0, 7))
    def test_one_run_is_the_lock_step(self, germ, k, seed):
        f, z = germ
        got, calls = polishes(f, z, k, seed)
        want, lock = lock_step(f, z, k, seed)
        assert got == want
        if calls:
            assert same_polish(calls[-1][1], lock[0][1])  # S, F and nit of all 12 annuli

    def test_x3_takes_one_run(self):
        f, z = bundled("x3")
        _, calls = polishes(f, z, f.k, 0)
        (name, (S, F, nit), rows), = calls
        assert name == "_dyadic_nelder_mead" and max(rows) <= 4
        assert S.shape == (lojasiewicz.SEARCH_DEPTH, 3, 2)
        assert list(np.diff(nit)) == [-1] * (lojasiewicz.SEARCH_DEPTH - 1)  # the Baseline's steps

    @pytest.mark.parametrize("case", sorted(SEARCH_FALLBACKS))
    def test_fallbacks_polish_in_lock_step(self, monkeypatch, case):
        f, z, k, patch = SEARCH_FALLBACKS[case]()
        for name, value in patch.items():
            monkeypatch.setattr(lojasiewicz, name, value)
        got, calls = polishes(f, z, k, 0)
        want, lock = lock_step(f, z, k, 0)
        names = [name for name, _, _ in calls]
        assert names == ["_dyadic_nelder_mead"] * case.startswith("one run") + ["_nelder_mead"]
        assert got == want
        assert same_polish(calls[-1][1], lock[0][1])
        assert max(calls[-1][2]) > 4  # stacked over the annuli


def drive(funs, X0, one_run=False):
    """One ``_nelder_mead`` call from the rows of X0, or with ``one_run`` one
    ``_dyadic_nelder_mead`` call from each row (one copy, q = 0: the run
    itself), row i's points valued by the scalar ``funs[i]``: per row its
    result, under scipy's names, and the ``which`` of every objective call
    (all i in a call of the one run from row i)."""
    X0 = np.array(X0, dtype=float)
    calls = []

    def objective(X, which):
        calls.append(which.copy())
        return np.array([funs[i](x.copy()) for x, i in zip(X, which)], dtype=float)

    if one_run:
        S, F, nit = map(np.concatenate, zip(*[
            _dyadic_nelder_mead(lambda X, i=i: objective(X, np.full(len(X), i)), x0, 1, 0)
            for i, x0 in enumerate(X0)]))
    else:
        S, F, nit = _nelder_mead(objective, X0)
    return [SimpleNamespace(x=S[i, 0], fun=F[i].min(), nit=nit[i],
                            final_simplex=(S[i], F[i])) for i in range(len(X0))], calls


def ball_objective(center):
    """|x - center|^2 on the closed unit ball, inf outside it."""
    return lambda x: (float(np.sum((x - center) ** 2)) if np.linalg.norm(x) <= 1
                      else np.inf)


def assert_same_as_scipy(fun, x0, run=None):
    """``run`` (a result, the calls of its ``drive`` and its row there) is
    scipy's on x0 alone; without one, x0 runs alone, in lock-step and as the
    one run, and both are checked. Returns the (last) result and its number
    of shrinks.

    scipy asks for one or two points per iteration; ``_nelder_mead`` and
    ``_dyadic_nelder_mead`` ask for all four trial points in one call, so
    only the count differs: N + 1 for the start simplex, 4 per later
    iteration and N per shrink."""
    want = optimize.minimize(fun, x0, method="Nelder-Mead", options=POLISH)
    runs = [run] if run is not None else [
        (got[0], calls, 0) for got, calls in (drive([fun], [x0], one_run)
                                              for one_run in (False, True))]
    for got, calls, row in runs:
        assert np.array_equal(got.x, want.x)
        assert got.fun == want.fun
        assert got.nit == want.nit
        assert np.array_equal(got.final_simplex[0], want.final_simplex[0])
        assert np.array_equal(got.final_simplex[1], want.final_simplex[1])
        nfev = sum(int(np.count_nonzero(w == row)) for w in calls)
        shrinks = sum(row in w for w in calls) - got.nit  # beyond start and trial calls
        N = len(x0)
        assert nfev == N + 1 + 4 * (got.nit - 1) + N * shrinks
        # scipy's count: the same start and shrinks, and one or two points per iteration
        assert 0 <= want.nfev - (N + 1) - N * shrinks - (got.nit - 1) <= got.nit - 1
    return got, shrinks


MIXED_BATCH = [(optimize.rosen, [-1.2, 1.0]),
               (optimize.rosen, [0.5, -0.3]),
               (lambda x: abs(x[0]) + 10 * abs(x[1]), [1.0, 0.7]),
               (ball_objective(np.array([1.5, 0.5])), [0.5, 0.0]),     # reaches maxiter
               (ball_objective(np.array([1.25, 1.65])), [0.11, 0.23]),  # shrinks
               (lambda x: np.inf, [0.3, -0.2])]                          # inf everywhere


class TestNelderMeadReplay:
    """``_nelder_mead`` and the one run of ``_dyadic_nelder_mead`` are scipy's
    Nelder-Mead step for step, so a scipy release that changes it fails here
    instead of changing the sequences."""

    @pytest.mark.parametrize("fun, x0", [
        (optimize.rosen, [-1.2, 1.0]),
        (optimize.rosen, [-1.2, 1.0, 0.8]),
        (lambda x: abs(x[0]) + 10 * abs(x[1]), [1.0, 0.7]),
        # a shrink puts a nan vertex into the simplex, where sorted values no
        # longer give (fxr < f[0]) => (fxr < f[-2])
        (lambda x: np.nan if x[0] > 0.6 else float(np.sum((x - 0.9) ** 2)), [0.5, 0.2]),
    ])
    def test_smooth_and_kinked(self, fun, x0):
        assert_same_as_scipy(fun, x0)

    def test_stops_at_maxiter(self):
        # the minimum sits on the boundary of the region where fun is finite
        got, _ = assert_same_as_scipy(ball_objective(np.array([1.5, 0.5])), [0.5, 0.0])
        assert got.nit == POLISH["maxiter"]

    def test_shrinks(self):
        _, shrinks = assert_same_as_scipy(ball_objective(np.array([1.5, -0.5, 0.25])),
                                          [0.2, 0.1, 0.0])
        assert shrinks > 0

    def test_mixed_batch(self):
        # one lock-step call whose rows are in different phases at each
        # iteration, then one run from each row
        for one_run in (False, True):
            with np.errstate(invalid="ignore"):  # inf - inf in the fatol test, as in scipy
                runs, calls = drive([fun for fun, _ in MIXED_BATCH],
                                    [x0 for _, x0 in MIXED_BATCH], one_run)
                results = [assert_same_as_scipy(fun, x0, (got, calls, row))
                           for row, ((fun, x0), got) in enumerate(zip(MIXED_BATCH, runs))]
            (maxed, _), (_, shrinks) = results[3], results[4]
            assert maxed.nit == POLISH["maxiter"]
            assert shrinks > 0
            assert np.isinf(runs[5].fun)

    def test_at_most_two_calls_per_iteration(self):
        # after the start simplex, each iteration is one call with the four
        # trial points of every live run, then at most one with the shrinks
        with np.errstate(invalid="ignore"):
            runs, calls = drive([fun for fun, _ in MIXED_BATCH],
                                [x0 for _, x0 in MIXED_BATCH])
        nit = np.array([got.nit for got in runs])
        assert np.array_equal(calls[0], np.repeat(np.arange(len(runs)), 3))
        trials = [i for i, w in enumerate(calls) if i and np.all(np.bincount(w)[w] == 4)]
        assert len(trials) == nit.max() - 1
        for it, (i, j) in enumerate(zip(trials, trials[1:] + [len(calls)]), start=1):
            assert np.array_equal(calls[i], np.repeat(np.flatnonzero(nit > it), 4))
            assert j - i <= 2  # the shrinks, if any, of N = 2 points per run
            assert all(np.all(np.bincount(w)[w] == 2) for w in calls[i + 1:j])
        assert len(calls) > len(trials) + 1  # some iteration shrank

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([2, 3]), data=st.data())
    def test_random_trust_regions(self, n, data):
        coords = st.floats(-2.0, 2.0, allow_nan=False)
        center = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
        x0 = data.draw(st.lists(st.floats(-0.5, 0.5, allow_nan=False),
                                min_size=n, max_size=n))
        assert_same_as_scipy(ball_objective(center), x0)


class TestStackedSimplex:
    """The premise of the array-state ``_nelder_mead``: the row-wise sort, the
    stacked centroid and the weighted trial points give every simplex the
    bits of scipy's one-simplex ``argsort``/``take``, ``np.add.reduce`` and
    trial formulas. A numpy release that breaks it fails here, not as drift
    in the violation sequences."""

    @pytest.mark.parametrize("N", range(2, 7))
    def test_trial_points_match_scipys_formulas(self, N):
        rho, chi, psi = 1, 2, 0.5
        rng = np.random.default_rng(N)
        # coordinates from subnormal to near overflow, some exactly 0
        X0 = rng.standard_normal((2000, N)) * np.exp2(rng.uniform(-1074, 1021, (2000, N)))
        X0[rng.random((2000, N)) < 0.05] = 0.0
        F0 = rng.standard_normal((2000, N + 1))
        calls = []

        def objective(X, which):
            calls.append(X.copy())
            if len(calls) == 1:
                return F0.ravel()
            raise StopIteration  # after the first trial call

        with pytest.raises(StopIteration), np.errstate(over="ignore", invalid="ignore"):
            _nelder_mead(objective, X0)
        start, trial = calls[0].reshape(-1, N + 1, N), calls[1].reshape(-1, 4, N)
        for s, f, got in zip(start, F0, trial):
            sim = s.take(f.argsort(), 0)
            with np.errstate(over="ignore", invalid="ignore"):
                xbar = np.add.reduce(sim[:-1], 0) / N
                want = [(1 + rho) * xbar - rho * sim[-1],
                        (1 + rho * chi) * xbar - rho * chi * sim[-1],
                        (1 + psi * rho) * xbar - psi * rho * sim[-1],
                        (1 - psi) * xbar + psi * sim[-1]]
            assert same_bits(got, want)

    @pytest.mark.parametrize("N", range(2, 7))
    def test_rowwise_sort_matches_one_simplex_sort(self, N):
        rng = np.random.default_rng(N)
        # ties, infinities and nan among the values
        F = rng.choice([-1.0, 0.0, 0.5, 2.0, np.inf, -np.inf, np.nan], (2000, N + 1))
        F[::2] = rng.standard_normal((1000, N + 1))
        S = rng.standard_normal((2000, N + 1, N))
        ind = F.argsort(axis=1)
        got_S = np.take_along_axis(S, ind[:, :, None], 1)
        got_F = np.take_along_axis(F, ind, 1)
        for s, f, i, gs, gf in zip(S, F, ind, got_S, got_F):
            want = f.argsort()
            assert np.array_equal(i, want)
            assert same_bits(gs, s.take(want, 0))
            assert np.array_equal(gf, f.take(want), equal_nan=True)

    @pytest.mark.parametrize("N", range(2, 7))
    def test_stacked_centroid_matches_one_simplex_sum(self, N):
        rng = np.random.default_rng(N)
        S = rng.standard_normal((2000, N + 1, N)) * np.exp(rng.uniform(-30, 5, (2000, N + 1, 1)))
        want = [np.add.reduce(s[:-1], 0) / N for s in S]
        assert same_bits(np.add.reduce(S[:, :-1], 1) / N, want)
