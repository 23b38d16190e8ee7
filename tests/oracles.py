"""Independent reference computations used by several test modules.

The sphere-sampling minimizer below deliberately avoids any matrix
decomposition: it estimates inf |A^T phi| over unit phi by brute force on a
quasi-uniform sample, with a derivative-free polish in spherical angles for
m = 3. ``calibrate_constants_scalar`` is the point-by-point calibration
that the stacked ``trivializer.calibrate_constants`` replaced.
"""

import itertools

import numpy as np
from scipy.optimize import minimize

from jetsuff.errors import CalibrationError, InvalidInputError
from jetsuff.linmap import g_prime
from jetsuff.sampling import ball_sample, sphere_sample
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
    ``g_prime(F.d_x(xi, x))`` call for each sample point."""
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
            C_prime = min(C_prime, g_prime(F.d_x(xi, x)) / d ** (k - 1))
    if not np.isfinite(C_prime) or C_prime <= 0:
        raise CalibrationError("minor ratio lower bound vanished on the sample")
    m, n = pair.f.m, pair.f.n
    C_dprime = 2 * m * C * np.sqrt(n) / (3 * C_prime)
    return TrivializationConstants(
        C=float(C), C_prime=float(C_prime), C_dprime=float(C_dprime),
        U_radius=float(radius), r0=float(radius * np.exp(-C_dprime)))
