"""Perturbation of a scalar germ by localized Morse wells.

Given a sequence of points off Z approaching 0 whose gradient ratios decay,
the germ is perturbed inside pairwise-disjoint balls B_v (radius
dist(a_v, Z)/4) by a bump-localized quadratic matching value and gradient
at the center. The result f - F keeps the same jet data along Z but has a
nondegenerate critical point at every a_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InvalidInputError
from .germ import PolyGermMap, ZSpec, jet_at, scalar_powers
from .report import Report
from .sampling import ball_sample

RHO_IN, RHO_OUT = 0.125, 0.25  # bump plateau and support radii, in units of dist
EIG_GAP = 1e-8                  # least gap between lambda and a Hessian eigenvalue
MAX_RETRIES = 50                # lambda nudges before giving up
SAMPLES_PER_BALL = 512          # decay samples per ball


# ----------------------------------------------------------------- bump

def _g(u: float) -> float:
    return math.exp(-1.0 / u) if u > 0.0 else 0.0


def _transition(u: float) -> tuple[float, float, float]:
    """psi(u) = g(u)/(g(u)+g(1-u)) with first two derivatives.

    psi is 0 at u <= 0, 1 at u >= 1, C-infinity everywhere.
    """
    if u <= 0.0:
        return 0.0, 0.0, 0.0
    if u >= 1.0:
        return 1.0, 0.0, 0.0
    p, q = _g(u), _g(1.0 - u)
    dp = p / u ** 2
    dq = -q / (1.0 - u) ** 2
    d2p = p * (1.0 / u ** 4 - 2.0 / u ** 3)
    d2q = q * (1.0 / (1.0 - u) ** 4 - 2.0 / (1.0 - u) ** 3)
    s = p + q
    N = dp * q - p * dq
    psi = p / s
    dpsi = N / s ** 2
    d2psi = (d2p * q - p * d2q) / s ** 2 - 2.0 * N * (dp + dq) / s ** 3
    return psi, dpsi, d2psi


class BumpFunction:
    """Radially symmetric C-infinity cutoff: 1 inside RHO_IN, 0 outside RHO_OUT."""

    def _radial(self, s: float) -> tuple[float, float, float]:
        """alpha and its first two radial derivatives at |x| = s."""
        a, b = RHO_IN, RHO_OUT
        if s <= a:
            return 1.0, 0.0, 0.0
        if s >= b:
            return 0.0, 0.0, 0.0
        u = (b - s) / (b - a)
        psi, dpsi, d2psi = _transition(u)
        return psi, -dpsi / (b - a), d2psi / (b - a) ** 2

    def value(self, x) -> float:
        return self._radial(float(np.linalg.norm(x)))[0]

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s = float(np.linalg.norm(x))
        _, da, _ = self._radial(s)
        if da == 0.0:
            return np.zeros(x.shape)
        return da * x / s

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        s = float(np.linalg.norm(x))
        _, da, d2a = self._radial(s)
        if da == 0.0 and d2a == 0.0:
            return np.zeros((n, n))
        outer = np.outer(x, x)
        return d2a * outer / s ** 2 + da * (np.eye(n) / s - outer / s ** 3)


BUMP = BumpFunction()


# ----------------------------------------------------------------- lambdas

def choose_lambdas(f: PolyGermMap, a_list, z: ZSpec) -> list[float]:
    """lambda_v = dist(a_v, Z)^(k-1), nudged off Hessian eigenvalues.

    The default makes lambda_v / dist^(k-2) = dist -> 0, and a multiplicative
    nudge (1 + 1e-3) resolves collisions with the Hessian spectrum of f.
    """
    out = []
    for a in a_list:
        a = np.asarray(a, dtype=float)
        d = z.distance(a)
        if d <= 0.0:
            raise InvalidInputError(f"sequence point {a.tolist()} lies on Z")
        lam = d ** (f.k - 1)
        eigs = np.linalg.eigvalsh(f.hessian(0, a))
        for _ in range(MAX_RETRIES):
            if np.min(np.abs(eigs - lam)) > EIG_GAP:
                break
            lam *= 1.001
        else:
            raise ConstructionError(
                f"could not avoid Hessian eigenvalue near {lam} at {a.tolist()}")
        out.append(float(lam))
    return out


# ----------------------------------------------------------------- assembly

class PerturbationF:
    """The assembled perturbation: bump-localized quadratics in balls B_v."""

    def __init__(self, f: PolyGermMap, centers: np.ndarray, dists: np.ndarray,
                 lambdas: list[float]):
        if f.m != 1:
            raise InvalidInputError("construction applies to scalar germs")
        self.f = f
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.dists = np.asarray(dists, dtype=float)
        self.lambdas = [float(v) for v in lambdas]
        self.n = f.n
        N = self.centers.shape[0]
        if not (len(self.lambdas) == len(self.dists) == N):
            raise InvalidInputError("sequence lengths disagree")
        # exact disjointness: centers further apart than the radius sum
        for i in range(N):
            for j in range(i + 1, N):
                gap = np.linalg.norm(self.centers[i] - self.centers[j])
                if gap <= (self.dists[i] + self.dists[j]) / 4.0:
                    raise ConstructionError(
                        f"balls {i} and {j} overlap (centers {gap:.3e} apart)")
        self._values = f.eval_many(self.centers)[:, 0]
        self._grads = f.jacobian_many(self.centers)[:, 0, :]

    def _ball_index(self, x: np.ndarray) -> int | None:
        for i, (c, d) in enumerate(zip(self.centers, self.dists)):
            if np.linalg.norm(x - c) <= d / 4.0:
                return i
        return None

    def _local(self, x):
        """(u / d, d, lambda, quadratic, its gradient) of the ball holding x,
        with u = x - a_v; None outside every ball."""
        x = np.asarray(x, dtype=float)
        i = self._ball_index(x)
        if i is None:
            return None
        d, lam = self.dists[i], self.lambdas[i]
        u = x - self.centers[i]
        quad = self._values[i] + self._grads[i] @ u + 0.5 * lam * (u @ u)
        return u / d, d, lam, quad, self._grads[i] + lam * u

    def value(self, x) -> float:
        local = self._local(x)
        if local is None:
            return 0.0
        s, _, _, quad, _ = local
        return BUMP.value(s) * quad

    def gradient(self, x) -> np.ndarray:
        local = self._local(x)
        if local is None:
            return np.zeros(self.n)
        s, d, _, quad, dquad = local
        return BUMP.gradient(s) / d * quad + BUMP.value(s) * dquad

    def hessian(self, x) -> np.ndarray:
        local = self._local(x)
        if local is None:
            return np.zeros((self.n, self.n))
        s, d, lam, quad, dquad = local
        a = BUMP.value(s)
        da = BUMP.gradient(s) / d
        d2a = BUMP.hessian(s) / d ** 2
        return d2a * quad + np.outer(da, dquad) + np.outer(dquad, da) + a * lam * np.eye(self.n)


def assemble_F(f: PolyGermMap, points, dists, lambdas) -> PerturbationF:
    """Build F from a violation-style sequence (finite prefix, length >= 3):
    the rows of ``points`` and their distances to Z.

    The hypothesis that the (k-1)-jet of f at 0 vanishes is validated
    exactly before assembly.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dists = np.asarray(dists, dtype=float)
    if points.shape[0] < 3:
        raise InvalidInputError("need a prefix of at least 3 sequence points")
    jet = jet_at(f, (0.0,) * f.n, f.k - 1)
    if any(p.terms for p in jet.components):
        raise InvalidInputError("the (k-1)-jet of f at 0 must vanish")
    for d0, d1 in zip(dists, dists[1:]):
        if not d1 < 0.5 * d0:
            raise InvalidInputError("sequence distances must at least halve")
    return PerturbationF(f, points, dists, lambdas)


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
    """Check the per-center identities of f - F, Morse nondegeneracy and decay.

    Decay sampling uses one fixed set of relative offsets scaled into each
    ball, so the per-ball maxima are directly comparable across scales.
    """
    f, k = pf.f, pf.f.k
    failures = []
    vals, grads, dets, decay = [], [], [], []
    offsets = ball_sample(pf.n, SAMPLES_PER_BALL, seed, radius=RHO_OUT)
    f_vals = f.eval_many(pf.centers)[:, 0]
    f_grads = f.jacobian_many(pf.centers)[:, 0, :]
    for i, (a, d, lam) in enumerate(zip(pf.centers, pf.dists, pf.lambdas)):
        rv = abs(float(f_vals[i] - pf.value(a)))
        rg = float(np.linalg.norm(f_grads[i] - pf.gradient(a)))
        H = f.hessian(0, a) - pf.hessian(a)
        det = float(np.linalg.det(H))
        scale = max(1.0, float(np.linalg.norm(H, ord=2)) ** pf.n)
        vals.append(rv)
        grads.append(rg)
        dets.append(det)
        if rv > 1e-12:
            failures.append(f"value residual {rv:.3e} at center {i}")
        if rg > 1e-10:
            failures.append(f"gradient residual {rg:.3e} at center {i}")
        if abs(det) <= 1e-10 * scale:
            failures.append(f"degenerate Hessian at center {i} (det {det:.3e})")
        X = a + d * offsets
        dz = z.distance_many(X)
        X, dz = X[dz > 0.0], dz[dz > 0.0]
        F = np.array([abs(pf.value(x)) for x in X])
        decay.append(float((F / scalar_powers(dz, k)).max(initial=0.0)))
    for i in range(1, len(decay)):
        if not decay[i] < decay[i - 1]:
            failures.append(f"decay not strict between balls {i - 1} and {i}")
    return ConstructionReport(
        value_residuals=tuple(vals), gradient_residuals=tuple(grads),
        hessian_dets=tuple(dets), decay=tuple(decay),
        ok=not failures, failures=tuple(failures))
