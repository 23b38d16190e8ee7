"""Trivializing vector field and isotopy for a verified germ pair.

Given realizations f, f1 of one jet over Z with the condition verified,
the deformation F(xi, x) = f(x) + xi*P(x), P = f1 - f, is made independent
of xi by flowing along the field W that solves (d_xF) W^T = -P^T. W is
assembled by Cramer's rule over maximal minors, blended by a smooth
partition of unity supported where each minor dominates, and set to 0 on Z.
Integrating y' = W(t, y) yields the isotopy H and its inverse.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (CalibrationError, CoveringViolationError, DomainExitError,
                     FieldBoundError, InvalidInputError)
from .germ import GermPair, same_k_Z_jet, scalar_powers
from .linmap import g_prime_many, minor_table, row_norms
from .poly import PolyStack
from .report import Report
from .sampling import ball_sample

LINSYS_TOL = 1e-9      # residual budget for (d_xF) W^T + P^T
FIELD_BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class TrivializationConstants(Report):
    C: float           # condition constant from the estimator report
    C_prime: float     # minor-level lower bound constant
    C_dprime: float    # field bound constant, 2mC sqrt(n) / (3 C')
    U_radius: float    # calibrated working-ball radius (r1)
    r0: float          # guaranteed-safe start radius, r1 * exp(-C'')

    def __post_init__(self):
        if min(self.C, self.C_prime, self.C_dprime, self.U_radius) <= 0:
            raise InvalidInputError("constants must be positive")


class DeformationF:
    """F(xi, x) = f(x) + xi P(x) with exact Jacobian in x."""

    def __init__(self, pair: GermPair):
        self.pair = pair
        self.f = pair.f
        self.P = pair.P
        self.n = pair.f.n
        self.m = pair.f.m
        self.k = pair.f.k
        # P's components, then the partials of f and of P, row by row
        self._stack = PolyStack(self.n, self.P.components + [
            d for g in (self.f, self.P) for row in g._partials for d in row])

    def eval(self, xi: float, x) -> np.ndarray:
        return self.f.eval(x) + xi * self.P.eval(x)

    def P_and_d_x(self, xi: float, x) -> tuple[np.ndarray, np.ndarray]:
        """P(x) and the m x n matrix d_xF(xi, x) = Jf(x) + xi JP(x), read
        from one power table at x."""
        v = self._stack.eval_many(np.asarray(x, dtype=float)[None, :])[0]
        Jf, JP = v[self.m:].reshape(2, self.m, self.n)
        A = Jf + xi * JP
        if not np.all(np.isfinite(A)):
            raise InvalidInputError("entries must be finite")
        return v[:self.m], A


def build_F(pair: GermPair, check_jets: bool = True, seed: int = 0) -> DeformationF:
    if check_jets:
        ok, worst = same_k_Z_jet(pair, seed=seed)
        if not ok:
            raise InvalidInputError(
                f"pair is not a common k-Z-jet (worst residual {worst:.3e})")
    return DeformationF(pair)


def calibrate_constants(pair: GermPair, report, initial_radius: float = 1.0,
                        sample_count: int = 2048, xi_count: int = 17,
                        shrink: float = 0.9, seed: int = 0) -> TrivializationConstants:
    """Shrink the working ball until |P| <= (C/3) dist^k and
    ||dP|| <= (C/3) dist^(k-1) hold on a dense sample, then bound the
    minor ratio from below to get C' and the field constant C''.

    Both stages work on stacks of sample points. Each shrink step checks
    the P bounds in sample order, in chunks of 32, 64, 128, ... points,
    and stops at the first chunk holding an offender, so a failing step
    costs about as much as the offender's position in the sample. C' is
    the minimum of g'(Jf + xi JP) / dist^(k-1) with Jf and JP evaluated
    once per point, and g' taken over the whole stack once per xi.
    """
    if report.verdict != "holds":
        raise InvalidInputError("calibration requires a 'holds' estimator verdict")
    C = report.C_hat
    k = pair.f.k
    P = pair.P
    unit = ball_sample(pair.f.n, sample_count, seed)
    radius = initial_radius
    for _ in range(200):
        X, scale, offender = _p_bounds_check(P, pair.z, radius * unit, C, k)
        if offender is None:
            break
        radius *= shrink
    else:
        raise CalibrationError(
            f"no radius <= {initial_radius} satisfies the P bounds; "
            f"last offender {offender.tolist()}")

    Jf, JP = pair.f.jacobian_many(X), P.jacobian_many(X)
    xis = np.linspace(-1.95, 1.95, xi_count)
    ratios = np.array([g_prime_many(Jf + xi * JP) / scale for xi in xis])
    C_prime = ratios.min(initial=np.inf)
    if not np.isfinite(C_prime) or C_prime <= 0:
        raise CalibrationError("minor ratio lower bound vanished on the sample")
    m, n = pair.f.m, pair.f.n
    C_dprime = 2 * m * C * np.sqrt(n) / (3 * C_prime)
    return TrivializationConstants(
        C=float(C), C_prime=float(C_prime), C_dprime=float(C_dprime),
        U_radius=float(radius), r0=float(radius * np.exp(-C_dprime)))


def _p_bounds_check(P, z, X, C, k):
    """The P bounds of ``calibrate_constants`` on the rows of X, in order.

    Rows within 1e-12 of Z are dropped. Returns the remaining rows and
    their dist^(k-1), or the first row breaking a bound as the third item.
    """
    kept, scales = [X[:0]], [np.zeros(0)]
    start, size = 0, 32
    while start < len(X):
        rows = X[start:start + size]
        start, size = start + size, 2 * size
        d = z.distance_many(rows)
        far = ~(d < 1e-12)
        rows, d = rows[far], d[far]
        dk, dk1 = scalar_powers(d, k), scalar_powers(d, k - 1)
        norm_P = row_norms(P.eval_many(rows))
        norm_dP = np.linalg.norm(P.jacobian_many(rows), ord=2, axis=(1, 2))
        bad = (norm_P > C / 3 * dk) | (norm_dP > C / 3 * dk1)
        if bad.any():
            return None, None, rows[np.argmax(bad)]
        kept.append(rows)
        scales.append(dk1)
    return np.concatenate(kept), np.concatenate(scales), None


def _smoothstep(s: float) -> float:
    """C^2 ramp: 0 for s <= 1/2, 1 for s >= 1, quintic in between."""
    if s <= 0.5:
        return 0.0
    if s >= 1.0:
        return 1.0
    u = 2.0 * (s - 0.5)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)


class VectorFieldW:
    """Cramer-rule field blended over dominating minors; 0 on Z."""

    def __init__(self, F: DeformationF, constants: TrivializationConstants):
        self.F = F
        self.constants = constants
        self.z = F.pair.z

    def eval(self, xi: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = self.z.distance(x)
        if d <= 1e-14:
            return np.zeros(self.F.n)
        P, A = self.F.P_and_d_x(xi, x)
        negP = -P
        thresh = self.constants.C_prime * d ** (self.F.k - 1)
        cols, M_I, h_I, num = minor_table(A)
        b = negP.tolist()
        active = []  # (weight, field) per column set whose minor dominates
        for I, M, h, rows in zip(cols.tolist(), M_I.tolist(), h_I.tolist(), num.tolist()):
            w = _smoothstep(abs(M) / max(h, 1e-300) / thresh)
            if w > 0.0:
                # Cramer's rule on I: w_l = sum_j num[l, j] (-P)_j / M_I
                f = np.zeros(self.F.n)
                f[I] = [sum(v * bj for v, bj in zip(row, b)) / M for row in rows]
                active.append((w, f))
        if not active:
            raise CoveringViolationError(
                f"no active minor at xi={xi}, x={x.tolist()} (dist {d:.3e}); "
                "the minor lower bound fails here")
        total = sum(w for w, _ in active)
        W = sum((w / total) * f for w, f in active)
        resid = np.linalg.norm(A @ W + (-negP))
        if resid > LINSYS_TOL * (1.0 + np.linalg.norm(negP)):
            raise InvalidInputError(
                f"linear system residual {resid:.3e} out of budget at x={x.tolist()}")
        bound = self.constants.C_dprime * d * (1.0 + FIELD_BOUND_SLACK)
        if np.linalg.norm(W) > bound:
            raise FieldBoundError(
                f"field bound violated at x={x.tolist()}: |W|={np.linalg.norm(W):.3e} "
                f"> C'' dist = {bound:.3e}")
        return W


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)  # (T, n)
    nfev: int = 0

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def flow(vf: VectorFieldW, x0, t_span=(0.0, 1.0), tol: float = 1e-9,
         checkpoints: int = 17) -> Trajectory:
    """Integrate y' = W(t, y) from (t_span[0], x0) to t_span[1]."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    times = np.linspace(t_span[0], t_span[1], checkpoints)
    if vf.z.distance(x0) <= 1e-14:
        return Trajectory(times=times, states=np.tile(x0, (checkpoints, 1)), nfev=0)
    r1 = vf.constants.U_radius
    max_step = min(0.5, 0.1 / vf.constants.C_dprime) if vf.constants.C_dprime > 0 else 0.5

    sol = solve_ivp(vf.eval, t_span, x0, method="RK45", rtol=tol, atol=tol,
                    max_step=max_step, t_eval=times, dense_output=False)
    if not sol.success:
        raise DomainExitError(f"integration failed: {sol.message}")
    states = sol.y.T
    if np.any(np.linalg.norm(states, axis=1) > r1 * (1 + 1e-9)):
        raise DomainExitError("trajectory left the calibrated ball")
    return Trajectory(times=times, states=states, nfev=sol.nfev)


@dataclass(frozen=True)
class IsotopyResult(Report):
    grid: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    forward: np.ndarray = field(repr=False)      # (N, T, n): H(x, t)
    conservation: np.ndarray = field(repr=False)  # (N, T): |F(t,H) - f(x)|
    inverse_residuals: np.ndarray = field(repr=False)  # (N, T): |H~(H(x,t),t) - x|
    constants: TrivializationConstants = None
    nfev_total: int = 0

    @property
    def max_conservation(self) -> float:
        return float(np.max(self.conservation))

    @property
    def max_inverse_residual(self) -> float:
        return float(np.max(self.inverse_residuals))

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "times": self.times.tolist(),
            "forward": self.forward.tolist(),
            "max_conservation": self.max_conservation,
            "max_inverse_residual": self.max_inverse_residual,
            "constants": self.constants.to_dict() if self.constants else None,
            "nfev_total": self.nfev_total,
        }

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            n = self.grid.shape[1]
            w.writerow(["point", "t"]
                       + [f"x0_{i}" for i in range(n)]
                       + [f"H_{i}" for i in range(n)]
                       + ["conservation_residual"])
            for p in range(self.grid.shape[0]):
                for j, t in enumerate(self.times):
                    w.writerow([p, repr(float(t))]
                               + [repr(float(v)) for v in self.grid[p]]
                               + [repr(float(v)) for v in self.forward[p, j]]
                               + [repr(float(self.conservation[p, j]))])


def backward_flow(vf: VectorFieldW, y, t: float, tol: float = 1e-9) -> np.ndarray:
    """Inverse map: integrate from (t, y) back to time 0."""
    y = np.asarray(y, dtype=float)
    if vf.z.distance(y) <= 1e-14 or t == 0.0:
        return y.copy()
    traj = flow(vf, y, t_span=(t, 0.0), tol=tol, checkpoints=2)
    return traj.endpoint


def isotopy(vf: VectorFieldW, grid, tol: float = 1e-9,
            checkpoints: int = 17) -> IsotopyResult:
    """Forward flows on the grid plus inverse and conservation residuals."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    N = grid.shape[0]
    times = np.linspace(0.0, 1.0, checkpoints)
    forward = np.zeros((N, checkpoints, vf.F.n))
    conservation = np.zeros((N, checkpoints))
    inverse_res = np.zeros((N, checkpoints))
    nfev = 0
    for p in range(N):
        x0 = grid[p]
        traj = flow(vf, x0, tol=tol, checkpoints=checkpoints)
        nfev += traj.nfev
        forward[p] = traj.states
        fx = vf.F.f.eval(x0)
        for j, t in enumerate(times):
            y = traj.states[j]
            conservation[p, j] = np.linalg.norm(vf.F.eval(t, y) - fx)
            inverse_res[p, j] = np.linalg.norm(backward_flow(vf, y, t, tol=tol) - x0)
    return IsotopyResult(grid=grid, times=times, forward=forward,
                         conservation=conservation, inverse_residuals=inverse_res,
                         constants=vf.constants, nfev_total=nfev)


@dataclass(frozen=True)
class GronwallReport(Report):
    ok: bool
    worst_margin: float
    violations: tuple


def gronwall_check(result: IsotopyResult, constants: TrivializationConstants,
                   z, eps: float = 0.05) -> GronwallReport:
    """dist(H(x,t), Z) must stay in the band dist(x,Z) * exp(+-C'' t).

    Consequence of |d/dt dist| <= |W| <= C'' dist along trajectories.
    """
    c = constants.C_dprime
    N, T, n = result.forward.shape
    d0 = z.distance_many(result.grid)[:, None]
    d = z.distance_many(result.forward.reshape(N * T, n)).reshape(N, T)
    # one scalar exp per time, as for a single trajectory
    lo = d0 * np.array([np.exp(-c * t) for t in result.times]) * (1 - eps)
    hi = d0 * np.array([np.exp(c * t) for t in result.times]) * (1 + eps)
    on_Z = d0 == 0.0
    ok = np.where(on_Z, d == 0.0, (lo <= d) & (d <= hi))
    margin = np.where(on_Z, np.where(ok, 0.0, -d), np.minimum(d - lo, hi - d))
    violations = tuple((int(p), float(result.times[j]), float(d[p, j]),
                        float(lo[p, j]), float(hi[p, j]))
                       for p, j in zip(*np.nonzero(~ok)))
    return GronwallReport(ok=not violations, worst_margin=float(margin.min(initial=np.inf)),
                          violations=violations)
