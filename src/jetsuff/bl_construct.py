"""Perturbation of a scalar germ by localized Morse wells.

Given a sequence of points off Z approaching 0 whose gradient ratios decay,
the germ is perturbed inside pairwise-disjoint balls B_v (radius
RHO_OUT * dist(a_v, Z)) by a bump-localized quadratic matching value and
gradient at the center. The result f - F keeps the same jet data along Z but
has a nondegenerate critical point at every a_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InvalidInputError
from .germ import AnalyticZ, PolyGermMap, ZSpec, int_power, monomial_text, scalar_powers
from .linmap import row_norms
from .lojasiewicz import falls_like_inverse_nu, halves
from .report import Report
from .sampling import ball_sample

RHO_IN, RHO_OUT = 0.125, 0.25  # bump plateau and support radii, in units of dist
GAP_REL = 1e-3                  # least |Hessian eigenvalue - lambda| / lambda; Morse asks half
MAX_RETRIES = 50                # lambda nudges before giving up
SAMPLES_PER_BALL = 512          # decay samples per ball


# ----------------------------------------------------------------- bump

def _alpha(S):
    """The radial C-infinity cutoff alpha (1 inside RHO_IN, 0 outside RHO_OUT)
    at the rows of S (shape (N, n)); also their norms s, the transition rows
    ``mid``, u and 1 - u there stacked, and g at them.

    On the transition rows alpha(s) = psi(u), u = (RHO_OUT - s) / (RHO_OUT - RHO_IN),
    psi(u) = g(u) / (g(u) + g(1 - u)), g(u) = exp(-1/u). ``exp`` goes entry by
    entry through Python floats, whose libm bits numpy's ``exp`` does not always give.
    """
    s = row_norms(S)
    a = (s <= RHO_IN).astype(float)
    mid = (RHO_IN < s) & (s < RHO_OUT)
    # the width is a power of 2 and RHO_OUT - s is exact, so u and 1 - u lie in (0, 1)
    u = (RHO_OUT - s[mid]) / (RHO_OUT - RHO_IN)
    uv = np.concatenate([u, 1.0 - u])
    g = np.array([math.exp(v) for v in (-1.0 / uv).tolist()])
    p, q = np.split(g, 2)
    a[mid] = p / (p + q)
    return a, s, mid, uv, g


def bump_many(S) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_alpha``'s alpha, its gradient and its Hessian at the rows of S (shape
    (N, n)), shapes (N,), (N, n) and (N, n, n). The integer powers go entry by
    entry through Python floats, as ``exp`` does. The gradient is exactly 0
    where alpha' = 0, and the Hessian where alpha' = alpha'' = 0 (the center
    included).
    """
    S = np.asarray(S, dtype=float)
    N, n = S.shape
    a, s, mid, uv, g = _alpha(S)
    da, d2a = np.zeros(N), np.zeros(N)
    w = RHO_OUT - RHO_IN
    dg = g / scalar_powers(uv, 2)
    d2g = g * (1.0 / scalar_powers(uv, 4) - 2.0 / scalar_powers(uv, 3))
    (p, q), (dp, dq), (d2p, d2q) = (np.split(v, 2) for v in (g, dg, d2g))
    dq = -dq
    tot = p + q
    num = dp * q - p * dq
    tot2 = scalar_powers(tot, 2)
    da[mid] = -(num / tot2) / w
    d2a[mid] = ((d2p * q - p * d2q) / tot2
                - 2.0 * num * (dp + dq) / scalar_powers(tot, 3)) / w ** 2
    grad, hess = np.zeros((N, n)), np.zeros((N, n, n))
    on = da != 0.0
    grad[on] = da[on, None] * S[on] / s[on, None]
    on |= d2a != 0.0
    S, s = S[on], s[on]
    outer = S[:, :, None] * S[:, None, :]
    s1, s2, s3 = (v[:, None, None] for v in (s, int_power(s, 2), int_power(s, 3)))
    hess[on] = (d2a[on, None, None] * outer / s2
                + da[on, None, None] * (np.eye(n) / s1 - outer / s3))
    return a, grad, hess


# ----------------------------------------------------------------- lambdas

def choose_lambdas(f: PolyGermMap, a_list, dists) -> list[float]:
    """lambda_v = dist(a_v, Z)^(k-1), nudged off Hessian eigenvalues; ``dists``
    holds dist(a_v, Z) for the rows of ``a_list``.

    The default makes lambda_v / dist^(k-2) = dist -> 0, and a multiplicative
    nudge (1 + 1e-3) clears the Hessian spectrum of f at a_v by GAP_REL * lambda.
    """
    A = np.atleast_2d(np.asarray(a_list, dtype=float))
    dists = np.asarray(dists, dtype=float)
    if dists.shape != A.shape[:1]:
        raise InvalidInputError("sequence lengths disagree")
    out = []
    for a, d, eigs in zip(A, dists.tolist(),
                          np.linalg.eigvalsh(f.hessian_many(A)[:, 0])):
        if d <= 0.0:
            raise InvalidInputError(f"sequence point {a.tolist()} lies on Z")
        lam = d ** (f.k - 1)
        for _ in range(MAX_RETRIES):
            if np.min(np.abs(eigs - lam)) > GAP_REL * lam:
                break
            lam *= 1.001
        else:
            raise ConstructionError(
                f"could not avoid Hessian eigenvalue near {lam} at {a.tolist()}")
        out.append(float(lam))
    return out


# ----------------------------------------------------------------- assembly

class PerturbationF:
    """The assembled perturbation: bump-localized quadratics in balls B_v.

    A point belongs to the first ball, in center order, whose center is
    within RHO_OUT * dist of it; F vanishes outside every ball.
    """

    def __init__(self, f: PolyGermMap, centers: np.ndarray, dists: np.ndarray,
                 lambdas: list[float]):
        if f.m != 1:
            raise InvalidInputError("construction applies to scalar germs")
        self.f = f
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.dists = np.asarray(dists, dtype=float)
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.n = f.n
        if not (len(self.lambdas) == len(self.dists) == len(self.centers)):
            raise InvalidInputError("sequence lengths disagree")
        self._values = f.eval_many(self.centers)[:, 0]
        self._grads = f.jacobian_many(self.centers)[:, 0, :]

    def _local(self, X):
        """The rows of X (shape (N, n)) inside some ball and, for each of them,
        the first ball holding it, u = x - a_v, lambda_v and the quadratic."""
        X = np.asarray(X, dtype=float)
        N, n = X.shape
        gaps = (X[:, None, :] - self.centers).reshape(-1, n)
        near = row_norms(gaps).reshape(N, -1) <= self.dists * RHO_OUT
        rows = np.flatnonzero(near.any(axis=1))
        ball = near[rows].argmax(axis=1)  # the first ball holding the row
        lam = self.lambdas[ball]
        U = X[rows] - self.centers[ball]
        quad = self._values[ball] + np.vecdot(self._grads[ball], U) + 0.5 * lam * np.vecdot(U, U)
        return rows, ball, U, lam, quad

    def values(self, X) -> np.ndarray:
        """F at the rows of X (shape (N, n)), shape (N,)."""
        rows, ball, U, _, quad = self._local(X)
        F = np.zeros(len(X))
        F[rows] = _alpha(U / self.dists[ball, None])[0] * quad
        return F

    def many(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F, its gradient and its Hessian at the rows of X (shape (N, n)),
        shapes (N,), (N, n) and (N, n, n)."""
        rows, ball, U, lam, quad = self._local(X)
        N, n = len(X), self.n
        d = self.dists[ball, None]
        dquad = self._grads[ball] + lam[:, None] * U
        a, da, d2a = bump_many(U / d)
        da = da / d
        F, G, H = np.zeros(N), np.zeros((N, n)), np.zeros((N, n, n))
        F[rows] = a * quad
        G[rows] = da * quad[:, None] + a[:, None] * dquad
        H[rows] = (d2a / int_power(d, 2)[:, :, None] * quad[:, None, None]
                   + da[:, :, None] * dquad[:, None, :] + dquad[:, :, None] * da[:, None, :]
                   + (a * lam)[:, None, None] * np.eye(n))
        return F, G, H

    def value(self, x) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None, :])[0])


def assemble_F(f: PolyGermMap, points, dists, lambdas) -> PerturbationF:
    """Build F from a violation-style sequence (finite prefix, length >= 3):
    the rows of ``points`` and their distances to Z.

    The hypothesis that the (k-1)-jet of f at 0 vanishes is validated
    exactly before assembly, and the balls must be pairwise disjoint.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dists = np.asarray(dists, dtype=float)
    if points.shape[0] < 3:
        raise InvalidInputError("need a prefix of at least 3 sequence points")
    if w := AnalyticZ(f.n, "subspace", tuple(range(1, f.n + 1))).jet_witness(f, f.k - 1):
        raise InvalidInputError("the (k-1)-jet of f at 0 must vanish; component "
                                f"{w[0] + 1} has the term {monomial_text(w[1])}")
    if not halves(dists):
        raise InvalidInputError("sequence distances must at least halve")
    pf = PerturbationF(f, points, dists, lambdas)
    # exact disjointness: centers further apart than the radius sum
    i, j = np.triu_indices(len(points), 1)
    gaps = row_norms(points[i] - points[j])
    if len(over := np.flatnonzero(gaps <= (dists[i] + dists[j]) * RHO_OUT)):
        v = over[0]  # the first pair in (i, j) order
        raise ConstructionError(
            f"balls {i[v]} and {j[v]} overlap (centers {gaps[v]:.3e} apart)")
    return pf


# ----------------------------------------------------------------- verification

@dataclass(frozen=True)
class ConstructionReport(Report):
    value_residuals: tuple[float, ...]
    gradient_residuals: tuple[float, ...]
    hessian_dets: tuple[float, ...]
    decay: tuple[float, ...]          # per-ball max |F| / dist^k
    ok: bool
    failures: tuple[str, ...]


def verify_construction(pf: PerturbationF, z: ZSpec, seed: int = 0) -> ConstructionReport:
    """Check the per-center identities of f - F, Morse nondegeneracy and 1/nu decay.

    Decay sampling uses one fixed set of relative offsets scaled into each
    ball, so the per-ball maxima are directly comparable across scales.
    """
    f, k, n, centers = pf.f, pf.f.k, pf.n, pf.centers
    F, G, H = pf.many(centers)
    vals = np.abs(f.eval_many(centers)[:, 0] - F).tolist()
    grads = row_norms(f.jacobian_many(centers)[:, 0, :] - G).tolist()
    H = f.hessian_many(centers)[:, 0] - H
    dets = np.linalg.det(H).tolist()
    gaps = np.abs(np.linalg.eigvalsh(H)).min(axis=1).tolist()
    failures = []
    for i, (rv, rg, gap, lam) in enumerate(zip(vals, grads, gaps, pf.lambdas.tolist())):
        if rv > 1e-12:
            failures.append(f"value residual {rv:.3e} at center {i}")
        if rg > 1e-10:
            failures.append(f"gradient residual {rg:.3e} at center {i}")
        if not gap > GAP_REL / 2 * lam:
            failures.append(f"degenerate Hessian at center {i} (least |eigenvalue| {gap:.3e})")
    offsets = ball_sample(n, SAMPLES_PER_BALL, seed, radius=RHO_OUT)
    X = (centers[:, None, :] + pf.dists[:, None, None] * offsets).reshape(-1, n)
    dz = z.distance_many(X)
    keep = dz > 0.0
    ratio = np.zeros(len(X))  # |F| / dist^k >= 0, so 0 stands in for skipped rows
    ratio[keep] = np.abs(pf.values(X[keep])) / int_power(dz[keep], k)
    decay = ratio.reshape(len(centers), -1).max(axis=1).tolist()
    slow = [i for i in range(len(decay)) if not falls_like_inverse_nu(decay[:i + 1])]
    if slow:  # name the first ball that breaks the bound
        i = slow[0]
        failures.append(f"decay slower than 1/nu at ball {i}: {decay[i]:.3e} > {decay[0]:.3e}/{i + 1}")
    return ConstructionReport(
        value_residuals=tuple(vals), gradient_residuals=tuple(grads),
        hessian_dets=tuple(dets), decay=tuple(decay),
        ok=not failures, failures=tuple(failures))
