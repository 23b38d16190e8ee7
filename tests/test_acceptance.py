"""Acceptance gate.

Each test covers one end-to-end guarantee at its stated tolerance and prints
one pass/fail line. Reference values come from independent oracles
(sphere-sampling minimization, closed-form calculus, scalar root finding),
never from the implementation under test.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from jetsuff.germ import AnalyticZ, GermPair, PolyGermMap
from jetsuff.linmap import (LinearMap, equivalence_constants_sample, g_prime,
                            nu, realify)
from jetsuff.lojasiewicz import (check_corollary_hypotheses, estimate_condition,
                                 fit_exponent)
from jetsuff.poly import Poly
from jetsuff.sampling import ball_sample
from jetsuff.trivializer import (VectorFieldW, build_F, calibrate_constants,
                                 gronwall_check, isotopy)
from jetsuff.bl_construct import assemble_F, choose_lambdas, verify_construction
from jetsuff.cli import main as cli_main
from oracles import nu_bruteforce

GERMS = Path(__file__).resolve().parent.parent / "germs"

Z_LINE = AnalyticZ(n=2, form="subspace", coords=(1,))
Z_AXES = AnalyticZ(n=2, form="union_hyperplanes", coords=(1, 2))
RADII = [0.5, 0.25, 0.125, 0.0625]

# regression fixtures: empirical nu/g' bands per (m, n), count=200, seed=7
EQUIV_BANDS = {
    (1, 2): (1.0000020850093578, 1.4020584089241164),
    (1, 4): (1.0064903863593002, 1.779381361469794),
    (2, 3): (0.6192853169228629, 1.3238649770101545),
    (2, 4): (0.6001596895450666, 1.5586384413058598),
    (3, 5): (0.5464798183252053, 1.2269074733527745),
    (3, 6): (0.6184015276043985, 1.3743908553395618),
}


def _report(label: str, ok: bool):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _random_maps(count: int, seed: int):
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        maps.append(rng.standard_normal((m, n)))
    return maps


@pytest.fixture(scope="module")
def trivialization():
    f = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): Fraction(1)})])
    f1 = PolyGermMap(2, 1, 2, [Poly(2, {(2, 0): Fraction(1),
                                        (3, 0): Fraction(1)})])
    pair = GermPair(f=f, f1=f1, z=Z_LINE)
    est = estimate_condition(f, Z_LINE, 2, RADII, 512, 0)
    consts = calibrate_constants(pair, est)
    vf = VectorFieldW(build_F(pair), consts)
    grid = np.vstack([
        ball_sample(2, 61, 11, radius=0.66 * consts.U_radius),
        [[0.1, 0.0], [0.0, 0.05], [0.0, -0.1]],
    ])
    return consts, vf, grid, isotopy(vf, grid, tol=1e-9)


def test_criterion_01_nu_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for A in _random_maps(500, seed=1):
        worst = max(worst, abs(nu(LinearMap(A)) - nu_bruteforce(A)))
    elapsed = time.monotonic() - t0
    _report(f"nu vs sphere-sampling oracle, 500 maps, worst {worst:.2e}, "
            f"{elapsed:.1f}s", worst <= 1e-3 and elapsed < 60)


def test_criterion_02_nu_lipschitz():
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, n))
        gap = abs(nu(LinearMap(A)) - nu(LinearMap(B)))
        if gap > np.linalg.norm(A - B, ord=2) + 1e-12:
            violations += 1
    _report(f"nu Lipschitz, 1000 pairs, {violations} violations",
            violations == 0)


def test_criterion_03_g_prime_sandwich():
    ok = True
    # rank deficiency: nu and g' vanish together
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(m, 7))
        A = rng.standard_normal((m, n))
        A[-1] = A[0]  # duplicated row forces rank < m
        lm = LinearMap(A)
        ok &= nu(lm) <= 1e-10 and g_prime(lm) <= 1e-10
        B = LinearMap(rng.standard_normal((m, n)))
        ok &= (nu(B) > 0) == (g_prime(B) > 0)
    # frozen per-(m, n) bands
    for dims, (lo, hi) in EQUIV_BANDS.items():
        got = equivalence_constants_sample(dims, 200, 7)
        ok &= got == (lo, hi) and 0 < lo <= hi < np.inf
    _report("g' sandwich: nu=0 iff g'=0, banded ratio fixtures stable", ok)


def test_criterion_04_realification():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 6))
        A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        sigma = np.sqrt(np.min(np.linalg.eigvalsh(A.conj().T @ A).clip(0)) if m > n
                        else np.min(np.linalg.eigvalsh(A @ A.conj().T).clip(0)))
        worst = max(worst, abs(nu(realify(A)) - sigma))
    _report(f"realification preserves sigma_min, 200 maps, worst {worst:.2e}",
            worst <= 1e-10)


def test_criterion_05_estimator_closed_forms():
    t0 = time.monotonic()
    x = Poly(1, {(1,): Fraction(1)})
    z0 = AnalyticZ(n=1, form="subspace", coords=(1,))
    f2 = PolyGermMap(1, 1, 2, [Poly(1, {(2,): 1})])
    f3 = PolyGermMap(1, 1, 2, [Poly(1, {(3,): 1})])
    r2 = estimate_condition(f2, z0, 2, RADII, 512, 0)
    r3 = estimate_condition(f3, z0, 2, RADII, 512, 0)
    ratios = [b / a for a, b in zip(r3.minima, r3.minima[1:])]
    theta2 = fit_exponent(f2, z0, RADII, 512, 0)
    theta3 = fit_exponent(f3, z0, RADII, 512, 0)
    elapsed = time.monotonic() - t0
    ok = (abs(r2.C_hat - 2.0) <= 0.02 and r2.verdict == "holds"
          and r3.verdict == "fails"
          and all(abs(r - 0.5) <= 0.05 for r in ratios)
          and abs(theta2 - 1.0) <= 0.05 and abs(theta3 - 2.0) <= 0.05
          and elapsed < 30)
    _report(f"estimator closed forms: C_hat={r2.C_hat:.3f}, decay ratios "
            f"{[round(r, 3) for r in ratios]}, exponents "
            f"({theta2:.3f}, {theta3:.3f}), {elapsed:.1f}s", ok)


def test_criterion_06_trivialization(trivialization):
    t0 = time.monotonic()
    consts, vf, grid, result = trivialization
    h_root = brentq(lambda h: h * h + h ** 3 - 0.01, 0.05, 0.1, xtol=1e-14)
    endpoint = result.forward[61, -1]  # grid row for x = (0.1, 0)
    z_rows = [62, 63]
    z_fixed = all(np.array_equal(result.forward[i, t], grid[i])
                  for i in z_rows for t in range(result.forward.shape[1]))
    elapsed = time.monotonic() - t0
    ok = (result.max_conservation <= 1e-6
          and result.max_inverse_residual <= 1e-6
          and z_fixed
          and abs(endpoint[0] - h_root) <= 1e-5 and abs(endpoint[1]) <= 1e-12
          and elapsed < 60)
    _report(f"trivialization on 64-point grid: conservation "
            f"{result.max_conservation:.2e}, inverse "
            f"{result.max_inverse_residual:.2e}, endpoint gap "
            f"{abs(endpoint[0] - h_root):.2e}", ok)


def test_criterion_07_field_bound_and_gronwall(trivialization):
    consts, vf, grid, result = trivialization
    bound_ok = True
    for i in range(result.forward.shape[0]):
        for t_idx, t in enumerate(result.times):
            x = result.forward[i, t_idx]
            d = Z_LINE.distance(x)
            w = np.linalg.norm(vf.eval(float(t), x))
            bound_ok &= w <= consts.C_dprime * d * (1 + 1e-6) + 1e-15
    gron = gronwall_check(result, consts, Z_LINE)
    _report(f"field bound on all trajectories and Gronwall band "
            f"(worst margin {gron.worst_margin:.3f})", bound_ok and gron.ok)


def test_criterion_08_counterexample_construction():
    # x1^3 at k = 2 over {x1 = 0} fails the condition (nu/dist = 3|x1|), so
    # the construction must certify it; x2y2 at k = 4 over the axes holds it
    # along the diagonal (nu/dist^3 = 2 sqrt 2), so no witness may pass there
    def construct(f, z):
        pts = np.array([[3.0 ** -v, 3.0 ** -v] for v in range(1, 6)])
        dists = np.array([z.distance(p) for p in pts])
        pf = assemble_F(f, pts, dists, choose_lambdas(f, pts, dists))
        return verify_construction(pf, z)

    t0 = time.monotonic()
    rep = construct(PolyGermMap(2, 1, 2, [Poly(2, {(3, 0): Fraction(1)})]), Z_LINE)
    elapsed = time.monotonic() - t0
    diagonal = construct(PolyGermMap(2, 1, 4, [Poly(2, {(2, 2): Fraction(1)})]), Z_AXES)
    ok = (rep.ok
          and max(rep.value_residuals) <= 1e-10
          and max(rep.gradient_residuals) <= 1e-10
          and min(abs(d) for d in rep.hessian_dets) > 0
          and all(a > b for a, b in zip(rep.decay, rep.decay[1:]))
          and elapsed < 30
          and not diagonal.ok)
    _report(f"counterexample construction: residuals <= "
            f"{max(rep.value_residuals + rep.gradient_residuals):.1e}, decay "
            f"{[round(d, 4) for d in rep.decay]}, {elapsed:.1f}s; x2y2 diagonal "
            f"refused ({'; '.join(diagonal.failures)})", ok)


def test_criterion_09_corollary_checker():
    x = Poly(1, {(1,): Fraction(1)})
    z0 = AnalyticZ(n=1, form="subspace", coords=(1,))
    f = PolyGermMap(1, 1, 2, [Poly(1, {(2,): 1})])
    radii = [0.25, 0.125, 0.0625, 0.03125]

    def run(extra):
        f1 = PolyGermMap(1, 1, 2, [Poly(1, {(2,): 1}) + extra])
        return check_corollary_hypotheses(GermPair(f=f, f1=f1, z=z0), radii,
                                          512, seed=5)

    good = run(Poly(1, {(4,): 1}))
    bad = run(x)
    good2 = run(Poly(1, {(4,): 1}))
    ok = (good.passes and good.C2 < 0.5
          and not bad.passes and bad.diverges
          and good.to_dict() == good2.to_dict())
    _report(f"corollary hypotheses: quartic C2={good.C2:.3f} passes, linear "
            f"diverges, deterministic", ok)


def test_criterion_10_cli_determinism(tmp_path):
    def strip(path):
        doc = json.loads(path.read_text())
        doc.pop("timestamp")
        return json.dumps(doc, sort_keys=True)

    ok = True
    for cmd, germ in [("check", "x2.json"), ("check", "x3.json"),
                      ("exponent", "x3.json")]:
        out = tmp_path / f"{cmd}_{germ}"
        args = ["--germ", str(GERMS / germ), "--cmd", cmd, "--seed", "9",
                "--out", str(out)]
        assert cli_main(args) in (0, 2)
        first = strip(out / "report.json")
        assert cli_main(args) in (0, 2)
        ok &= first == strip(out / "report.json")
    _report("CLI reports byte-identical across reruns (timestamp excluded)", ok)
