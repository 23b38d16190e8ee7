"""Closed-form answers that the benchmark checks jetsuff's outputs against.

Nothing here imports jetsuff: every reference value is recomputed with
numpy from the germ's formula. Each check returns a list of problems; an
empty list means the output agrees with the oracle.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9           # relative tolerance on recomputed ratios and constants
CONSERVATION = 1e-6  # |F(t, H(x, t)) - f(x)| budget along trajectories


def _close(a, b) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b), 1e-300)


# -------------------------------------------------------------- closed forms
# Each germ maps a point x to (nu(df(x)), dist(x, Z)); the CLI reports the
# ratio nu / dist^(k-1).

def _x2(x):
    return 2 * abs(x[0]), abs(x[0])


def _sum_of_squares(x):
    r = math.hypot(*x)
    return 2 * r, r


def _x2y2(x):
    return 2 * abs(x[0] * x[1]) * math.hypot(*x), min(abs(x[0]), abs(x[1]))


def _z2(x):
    # df = [[2x1, -2x2, 0], [2x2, 2x1, 0]]: both singular values are 2|(x1, x2)|
    rho = math.hypot(x[0], x[1])
    return 2 * rho, rho


def _x3(x):
    return 3 * x[0] ** 2, abs(x[0])


def x2_cloud(cloud: np.ndarray):
    """x2 with Z a finite point cloud; the distance by brute force."""
    return lambda x: (2 * abs(x[0]),
                      float(np.min(np.linalg.norm(cloud - np.asarray(x), axis=1))))


GERMS = {
    # name: (closed form, k, homogeneity degree of nu)
    "x2": (_x2, 2, 1),
    "sum_of_squares": (_sum_of_squares, 2, 1),
    "x2y2": (_x2y2, 4, 3),
    "z2": (_z2, 2, 1),
    "x3": (_x3, 2, 2),
}


# -------------------------------------------------------------- positive side

def check_estimate(est: dict, form, k: int, *, C=None, C_min=None, C_max=None,
                   verdict="holds") -> list[str]:
    """Verdict, C_hat, and the ratio recomputed at every reported argmin."""
    problems = []
    if est["verdict"] != verdict:
        problems.append(f"verdict {est['verdict']!r}, expected {verdict!r}")
    for i, (a, m) in enumerate(zip(est["argmins"], est["minima"])):
        nu, d = form(a)
        if not _close(m, nu / d ** (k - 1)):
            problems.append(f"annulus {i}: minimum {m!r} != closed form "
                            f"{nu / d ** (k - 1)!r} at argmin")
    c_hat = est["C_hat"]
    if c_hat != min(est["minima"]):
        problems.append("C_hat is not the least annulus minimum")
    if C is not None and not _close(c_hat, C):
        problems.append(f"C_hat {c_hat!r} != {C}")
    if C_min is not None and c_hat < C_min * (1 - REL):
        problems.append(f"C_hat {c_hat!r} < {C_min}")
    if C_max is not None and c_hat > C_max * (1 + REL):
        problems.append(f"C_hat {c_hat!r} > {C_max}")
    return problems


def check_exponent(doc: dict, degree: int) -> list[str]:
    # the annulus pattern is one shell rescaled, so min nu scales exactly
    # with the homogeneity degree of nu
    theta = doc["fitted_exponent"]
    if abs(theta - degree) > 1e-6:
        return [f"fitted exponent {theta!r} != {degree}"]
    if not doc["plausible"]:
        return ["exponent reported implausible"]
    return []


def check_corollary(rep: dict, *, C: float, c2_per_c1: float | None,
                    c2_scale: float) -> list[str]:
    """C = inf nu/dist; C2 per annulus scales by a fixed factor per halving;
    for the scalar pair C2 / C1 is a fixed constant (same argmax)."""
    problems = []
    if not _close(rep["C"], C):
        problems.append(f"C {rep['C']!r} != {C}")
    per = rep["C2_per_annulus"]
    for i in range(1, len(per)):
        if not _close(per[i] / per[i - 1], c2_scale):
            problems.append(f"C2 annulus {i} / {i - 1} = {per[i] / per[i - 1]!r}, "
                            f"expected {c2_scale}")
    if rep["C2"] != max(per):
        problems.append("C2 is not the largest annulus supremum")
    if c2_per_c1 is not None and not _close(rep["C2"], c2_per_c1 * rep["C1"]):
        problems.append(f"C2 {rep['C2']!r} != {c2_per_c1} * C1 {rep['C1']!r}")
    if rep["C2"] >= 0.5 or not rep["passes"] or rep["diverges"]:
        problems.append("hypotheses should pass: C2 < 1/2 and no divergence")
    return problems


def check_trajectories(grid, times, forward, conservation, f, F, dist,
                       consts: dict, *, eps: float = 0.05) -> list[str]:
    """Conservation |F(t, H) - f(x)|, the calibrated ball, the Gronwall band
    and the constants, recomputed from the trajectories.

    ``grid`` (N, n), ``forward`` (N, T, n) and ``conservation`` (N, T) come
    from the program; ``f(X)`` and ``F(t, X)`` are numpy closed forms giving
    (N, m) arrays on rows of X, and ``dist`` maps rows to distances to Z.
    """
    problems = []
    U, c = consts["U_radius"], consts["C_dprime"]
    steps = math.log(U) / math.log(0.9)
    if abs(steps - round(steps)) > 1e-9:
        problems.append(f"U_radius {U!r} is not a power of 0.9")
    if not _close(consts["r0"], U * math.exp(-c)):
        problems.append("r0 != U_radius exp(-C'')")
    fx = f(grid)
    worst = 0.0
    for j, t in enumerate(times):
        H = forward[:, j, :]
        res = np.linalg.norm(F(t, H) - fx, axis=1)
        worst = max(worst, float(np.max(res)))
        if np.any(np.abs(res - conservation[:, j]) > 1e-12):
            problems.append(f"reported conservation residual differs at t={t}")
        d0, d = dist(grid), dist(H)
        lo = d0 * math.exp(-c * t) * (1 - eps)
        hi = d0 * math.exp(c * t) * (1 + eps)
        if np.any((d < lo) | (d > hi)):
            problems.append(f"Gronwall band broken at t={t}")
        if np.any(np.linalg.norm(H, axis=1) > U * (1 + 1e-9)):
            problems.append(f"trajectory left the calibrated ball at t={t}")
    if worst > CONSERVATION:
        problems.append(f"conservation residual {worst:.3e} > {CONSERVATION}")
    if np.any(np.linalg.norm(grid, axis=1) > 0.66 * U * (1 + 1e-12)):
        problems.append("grid point outside 0.66 * U_radius")
    return problems


# -------------------------------------------------------------- negative side

def check_violation_sequence(seq: dict, form, k: int) -> list[str]:
    """Recomputed ratios and distances; distances halve; ratios fall like 1/nu."""
    problems = []
    pts, ratios, dists = seq["points"], seq["ratios"], seq["dists"]
    if len(pts) < 3:
        problems.append(f"sequence has {len(pts)} points, need >= 3")
    for i, (x, r, d) in enumerate(zip(pts, ratios, dists)):
        nu, dz = form(x)
        if not (_close(d, dz) and _close(r, nu / dz ** (k - 1))):
            problems.append(f"point {i}: reported (ratio, dist) = ({r!r}, {d!r}), "
                            f"closed form ({nu / dz ** (k - 1)!r}, {dz!r})")
    for i in range(1, len(pts)):
        if not dists[i] < 0.5 * dists[i - 1]:
            problems.append(f"distance does not halve at point {i}")
        if ratios[i] > ratios[0] / (i + 1) * (1 + REL):
            problems.append(f"ratio {i} does not fall like 1/nu")
    return problems


def check_construction(doc: dict, exit_code: int, hessian) -> list[str]:
    """Morse determinants from the closed-form Hessian of f - F at each
    center, and, when the run claims a witness (exit 0), per-ball decay of
    |F| / dist^k at least like 1/nu."""
    problems = []
    rep = doc["construction"]
    centers, lambdas = doc["sequence"]["points"], doc["lambdas"]
    for i, (a, lam, det) in enumerate(zip(centers, lambdas, rep["hessian_dets"])):
        want = float(np.linalg.det(hessian(a) - lam * np.eye(len(a))))
        if not math.isclose(det, want, rel_tol=1e-9, abs_tol=1e-300):
            problems.append(f"center {i}: Hessian det {det!r} != closed form {want!r}")
    if (exit_code == 0) != rep["ok"]:
        problems.append(f"exit {exit_code} disagrees with ok={rep['ok']}")
    if exit_code == 0:
        decay = rep["decay"]
        for i in range(1, len(decay)):
            if decay[i] > decay[0] / (i + 1):
                problems.append(
                    "witness claim contradicted: per-ball |F|/dist^k "
                    f"{' '.join(f'{v:.4f}' for v in decay)} does not fall like 1/nu "
                    f"(ball {i}: {decay[i]:.4f} > {decay[0]:.4f}/{i + 1})")
                break
    return problems


def hessian_x3(a):
    return np.array([[6 * a[0], 0.0], [0.0, 0.0]])


def hessian_x2y2(a):
    x, y = a
    return np.array([[2 * y * y, 4 * x * y], [4 * x * y, 2 * x * x]])


# -------------------------------------------------------------- deformations
# (f, F(t, .), dist) closed forms on rows of X for the trivialized pairs.

def _x2_plus_x3():
    def f(X):
        return X[:, :1] ** 2

    def F(t, X):
        return X[:, :1] ** 2 + t * X[:, :1] ** 3

    return f, F, lambda X: np.abs(X[:, 0])


def _z2_plus_cubes():
    def f(X):
        return np.stack([X[:, 0] ** 2 - X[:, 1] ** 2, 2 * X[:, 0] * X[:, 1]], axis=1)

    def F(t, X):
        return f(X) + t * np.stack([X[:, 0] ** 3, X[:, 1] ** 3], axis=1)

    return f, F, lambda X: np.hypot(X[:, 0], X[:, 1])


DEFORMATIONS = {"x2_plus_x3": _x2_plus_x3(), "z2_plus_cubes": _z2_plus_cubes()}
