"""Independent reference computations used by several test modules.

The sphere-sampling minimizer below deliberately avoids any matrix
decomposition: it estimates inf |A^T phi| over unit phi by brute force on a
quasi-uniform sample, with a derivative-free polish in spherical angles for
m = 3. ``calibrate_constants_scalar`` is the point-by-point calibration
that the stacked ``trivializer.calibrate_constants`` replaced.

The ``*_reference`` functions are the one-point formulas that jetsuff used
before every quantity got one stacked implementation (polynomial values,
Jacobians, nu, dist(x, Z)), and the per-point loops built on them. The
stacked code must reproduce them bit for bit.
"""

import itertools

import numpy as np
from scipy.optimize import minimize

from jetsuff.errors import CalibrationError, InvalidInputError, MinorIdentityError
from jetsuff.germ import SampledZ
from jetsuff.linmap import LinearMap, g_prime, nu
from jetsuff.lojasiewicz import DIST_FLOOR
from jetsuff.sampling import ball_sample, sphere_sample, unit_shell_sample
from jetsuff.trivializer import DeformationF, TrivializationConstants


def nu_bruteforce(entries: np.ndarray, count: int = 100_000, seed: int = 0) -> float:
    A = np.asarray(entries, dtype=float)
    m = A.shape[0]
    if m == 1:
        return float(np.linalg.norm(A[0]))
    if m == 2:
        th = np.linspace(0.0, np.pi, count, endpoint=False)
        phis = np.stack([np.cos(th), np.sin(th)], axis=1)
        return float(np.min(np.linalg.norm(phis @ A, axis=1)))
    phis = sphere_sample(m, count, seed)
    vals = np.linalg.norm(phis @ A, axis=1)
    best = phis[np.argmin(vals)]

    def obj(ang):
        t, p = ang
        v = np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
        return np.linalg.norm(v @ A)

    t0 = np.arccos(np.clip(best[2], -1, 1))
    p0 = np.arctan2(best[1], best[0])
    res = minimize(obj, [t0, p0], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 500})
    return float(min(np.min(vals), res.fun))


def fd_jacobian(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a germ-like object's eval."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((f.eval(x + e) - f.eval(x - e)) / (2 * h))
    return np.stack(cols, axis=1)


def fd_hessian(value, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (value(x + ei + ej) - value(x + ei - ej)
                       - value(x - ei + ej) + value(x - ei - ej)) / (4 * h * h)
    return H


def minors_reference(A: np.ndarray, b: np.ndarray) -> list:
    """(I, M_I, h_I, w_I) for every m-column set I of A, lexicographic.

    Straight from the definitions: M_I = det A[:, I]; h_I is the largest
    |det| of A[:, I] with one row and one column deleted (1 when m = 1);
    w_I solves A[:, I] w = b, or is None when that block is singular or too
    ill-conditioned for a solution to be compared.
    """
    m, n = A.shape
    out = []
    for I in itertools.combinations(range(n), m):
        block = A[:, I]
        M_I = float(np.linalg.det(block))
        h_I = 1.0 if m == 1 else max(
            abs(float(np.linalg.det(np.delete(np.delete(block, j, 0), l, 1))))
            for j in range(m) for l in range(m))
        solvable = M_I != 0.0 and np.linalg.cond(block) < 1e4
        out.append((I, M_I, h_I, np.linalg.solve(block, b) if solvable else None))
    return out


def calibrate_constants_scalar(pair, report, initial_radius: float = 1.0,
                               sample_count: int = 2048, xi_count: int = 17,
                               shrink: float = 0.9,
                               seed: int = 0) -> TrivializationConstants:
    """Point-by-point calibration: one bound check and, per xi, one
    ``g_prime`` call on d_xF(xi, x) for each sample point."""
    if report.verdict != "holds":
        raise InvalidInputError("calibration requires a 'holds' estimator verdict")
    C = report.C_hat
    F = DeformationF(pair)
    k = pair.f.k
    z = pair.z
    unit = ball_sample(pair.f.n, sample_count, seed)
    radius = initial_radius
    worst_point = None
    for _ in range(200):
        ok = True
        for x in radius * unit:
            d = z.distance(x)
            if d < 1e-12:
                continue
            if (np.linalg.norm(F.P.eval(x)) > C / 3 * d ** k or
                    np.linalg.norm(F.P.jacobian(x).entries, ord=2) > C / 3 * d ** (k - 1)):
                ok = False
                worst_point = x
                break
        if ok:
            break
        radius *= shrink
    else:
        raise CalibrationError(
            f"no radius <= {initial_radius} satisfies the P bounds; "
            f"last offender {worst_point.tolist()}")

    xis = np.linspace(-1.95, 1.95, xi_count)
    C_prime = np.inf
    for x in radius * unit:
        d = z.distance(x)
        if d < 1e-12:
            continue
        for xi in xis:
            d_x = LinearMap(F.f.jacobian(x).entries + xi * F.P.jacobian(x).entries)
            C_prime = min(C_prime, g_prime(d_x) / d ** (k - 1))
    if not np.isfinite(C_prime) or C_prime <= 0:
        raise CalibrationError("minor ratio lower bound vanished on the sample")
    m, n = pair.f.m, pair.f.n
    C_dprime = 2 * m * C * np.sqrt(n) / (3 * C_prime)
    return TrivializationConstants(
        C=float(C), C_prime=float(C_prime), C_dprime=float(C_dprime),
        U_radius=float(radius), r0=float(radius * np.exp(-C_dprime)))


def poly_eval_reference(p, x) -> float:
    """p(x) from a power table of p's own terms and one ``@``."""
    x = np.asarray(x, dtype=float)
    if not p.terms:
        return 0.0
    exps = np.array(list(p.terms), dtype=np.int64)
    coeffs = np.array([float(c) for c in p.terms.values()])
    return float(np.prod(x[None, :] ** exps, axis=1) @ coeffs)


def eval_reference(f, x) -> np.ndarray:
    return np.array([poly_eval_reference(p, x) for p in f.components])


def jacobian_reference(f, x) -> np.ndarray:
    return np.array([[poly_eval_reference(d, x) for d in row] for row in f._partials])


def nu_reference(A) -> float:
    """np.linalg.norm of the row when m = 1, else the last singular value."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 1:
        return float(np.linalg.norm(A[0]))
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def equivalence_constants_reference(dims, count, seed, scale=1.0):
    """The band of ``linmap.equivalence_constants_sample``, one matrix per draw."""
    m, n = dims
    rng = np.random.default_rng(seed)
    c_low, c_high = np.inf, 0.0
    for _ in range(count):
        A = LinearMap(scale * rng.standard_normal((m, n)))
        g = g_prime(A)
        v = nu(A)
        if g == 0.0:
            if v >= 1e-12:
                raise MinorIdentityError(f"g' = 0 but nu = {v:.3e} > 0")
            continue
        r = v / g
        c_low = min(c_low, r)
        c_high = max(c_high, r)
    return float(c_low), float(c_high)


def distance_reference(z, x) -> float:
    """dist(x, Z) for an AnalyticZ or SampledZ, one point at a time."""
    x = np.asarray(x, dtype=float)
    if isinstance(z, SampledZ):
        return float(np.min(np.linalg.norm(z.points - x[None, :], axis=1)))
    sel = [c - 1 for c in z.coords]
    if z.form == "subspace":
        return float(np.linalg.norm(x[sel]))
    return float(np.min(np.abs(x[sel])))


def ratio_stats_reference(f, z, k, X):
    """(min ratio, argmin, min nu, skipped) over the rows of X, point by point."""
    best, arg, nu_min, skipped = np.inf, None, np.inf, 0
    for x in X:
        d = distance_reference(z, x)
        if d < DIST_FLOOR:
            skipped += 1
            continue
        v = nu_reference(jacobian_reference(f, x))
        nu_min = min(nu_min, v)
        r = v / d ** (k - 1)
        if r < best:
            best, arg = r, x
    if arg is None:
        return None
    return best, arg, nu_min, skipped


def corollary_reference(pair, radii, samples_per_annulus, seed):
    """(C, C1, C2 per annulus, skipped) of ``check_corollary_hypotheses``,
    point by point."""
    shell = unit_shell_sample(pair.f.n, samples_per_annulus, seed)
    P = pair.P
    C, C1, c2_annuli, skipped = np.inf, 0.0, [], 0
    for r in radii:
        c2_here = 0.0
        for x in r * shell:
            d = distance_reference(pair.z, x)
            if d < DIST_FLOOR:
                skipped += 1
                continue
            v = nu_reference(jacobian_reference(pair.f, x))
            if v < DIST_FLOOR:
                skipped += 1
                continue
            C = min(C, v / d)
            C1 = max(C1, float(np.linalg.norm(eval_reference(P, x))) / v ** 2)
            dP = float(np.linalg.norm(jacobian_reference(P, x), ord=2))
            c2_here = max(c2_here, dP / v)
        c2_annuli.append(c2_here)
    return C, C1, c2_annuli, skipped


def gronwall_reference(result, constants, z, eps: float = 0.05):
    """(ok, worst margin, violations) of ``gronwall_check``, point by point."""
    c = constants.C_dprime
    violations = []
    worst = np.inf
    for p in range(result.grid.shape[0]):
        d0 = distance_reference(z, result.grid[p])
        for j, t in enumerate(result.times):
            d = distance_reference(z, result.forward[p, j])
            lo = d0 * np.exp(-c * t) * (1 - eps)
            hi = d0 * np.exp(c * t) * (1 + eps)
            if d0 == 0.0:
                ok_here = d == 0.0
                margin = 0.0 if ok_here else -d
            else:
                ok_here = lo <= d <= hi
                margin = min(d - lo, hi - d)
            worst = min(worst, margin)
            if not ok_here:
                violations.append((p, float(t), float(d), float(lo), float(hi)))
    return not violations, float(worst), tuple(violations)
