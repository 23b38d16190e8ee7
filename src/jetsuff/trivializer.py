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
from scipy.integrate import RK45, solve_ivp  # solve_ivp: only for the benchmark tracer

from .errors import (CalibrationError, CoveringViolationError, DomainExitError,
                     FieldBoundError, InvalidInputError)
from .germ import GermPair, same_k_Z_jet, scalar_powers
from .linmap import g_prime_many, minor_table, row_norms
from .poly import PolyStack
from .report import Report
from .sampling import ball_sample

LINSYS_TOL = 1e-9      # residual budget for (d_xF) W^T + P^T
FIELD_BOUND_SLACK = 1e-6
# scipy's RK45 step control: safety factor, step change bounds, rtol floor
SAFETY, MIN_FACTOR, MAX_FACTOR, EPS = 0.9, 0.2, 10, np.finfo(float).eps


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

    def P_and_d_x(self, xis, X) -> tuple[np.ndarray, np.ndarray]:
        """P and d_xF(xi, x) = Jf(x) + xi JP(x) at the rows of X (shape
        (N, n)), one xi per row, read from one power table."""
        v = self._stack.eval_many(np.asarray(X, dtype=float))
        J = v[:, self.m:].reshape(-1, 2, self.m, self.n)
        return v[:, :self.m], J[:, 0] + np.asarray(xis, dtype=float)[:, None, None] * J[:, 1]


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


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C^2 ramp, entry by entry: 0 for s <= 1/2, 1 for s >= 1, quintic in
    between, its powers in Python float arithmetic as for one point."""
    out = np.where(s >= 1.0, 1.0, 0.0)
    mid = (s > 0.5) & (s < 1.0)
    u = 2.0 * (s[mid] - 0.5)
    out[mid] = scalar_powers(u, 3) * (10.0 - 15.0 * u + 6.0 * scalar_powers(u, 2))
    return out


def _residuals(A: np.ndarray, W: np.ndarray, P: np.ndarray) -> np.ndarray:
    """|A w + P| per row; a stacked matmul keeps each row's ``A @ w`` bits."""
    return row_norms(np.matmul(A, W[:, :, None])[:, :, 0] + P)


class VectorFieldW:
    """Cramer-rule field blended over dominating minors; 0 on Z."""

    def __init__(self, F: DeformationF, constants: TrivializationConstants):
        self.F = F
        self.constants = constants
        self.z = F.pair.z

    def eval(self, xi: float, x) -> np.ndarray:
        W, (error,) = self.eval_many([xi], np.asarray(x, dtype=float)[None, :])
        if error is not None:
            raise error
        return W[0]

    def eval_many(self, xis, X) -> tuple[np.ndarray, list]:
        """W(xi_i, x_i) at the rows of X (N, n), and per row the error ``eval``
        raises there, or None. Each row gets one point's arithmetic: sums from
        +0.0 in order, checks of finite entries, active minor, residual, bound."""
        xis, X = np.asarray(xis, dtype=float), np.asarray(X, dtype=float)
        W, errors, c = np.zeros(X.shape), [None] * len(X), self.constants
        d = self.z.distance_many(X)
        rows = np.flatnonzero(~(d <= 1e-14))  # W = 0 on Z
        P, A = self.F.P_and_d_x(xis[rows], X[rows])
        thresh = c.C_prime * scalar_powers(d[rows], self.F.k - 1)
        finite = np.isfinite(A).all(axis=(1, 2))
        ok = finite & (thresh != 0.0)
        A[~finite], thresh[~ok] = 0.0, 1.0  # placeholders in failed rows
        cols, M, h, num = minor_table(A)
        w = _smoothstep(np.abs(M) / np.maximum(h, 1e-300) / thresh[:, None])
        on, total, b = w > 0.0, sum(w.T), -P
        # Cramer's rule on each column set I: w_l = sum_j num[l, j] (-P)_j / M_I
        cramer = sum(num[..., j] * b[:, None, None, j] for j in range(b.shape[1]))
        cramer = np.divide(cramer, M[..., None], out=np.zeros_like(cramer), where=on[..., None])
        terms = np.divide(w, total[:, None], out=np.zeros_like(w), where=on)[..., None] * cramer
        blend = np.zeros((len(rows), X.shape[1]))
        for s, I in enumerate(cols):  # an inactive set adds +0.0, which changes no entry
            blend[:, I] += terms[:, s]
        active, resid, norm_W = on.any(axis=1), _residuals(A, blend, P), row_norms(blend)
        off_budget = resid > LINSYS_TOL * (1.0 + row_norms(b))
        bound = c.C_dprime * d[rows] * (1.0 + FIELD_BOUND_SLACK)
        good = ok & active & ~off_budget & ~(norm_W > bound)
        W[rows[good]] = blend[good]
        for r in np.flatnonzero(~good).tolist():
            i, x = rows[r], X[rows[r]].tolist()
            if not finite[r]:
                errors[i] = InvalidInputError("entries must be finite")
            elif not ok[r]:
                errors[i] = ZeroDivisionError("float division by zero")
            elif not active[r]:
                errors[i] = CoveringViolationError(
                    f"no active minor at xi={xis[i]}, x={x} (dist {d[i]:.3e}); "
                    "the minor lower bound fails here")
            elif off_budget[r]:
                errors[i] = InvalidInputError(
                    f"linear system residual {resid[r]:.3e} out of budget at x={x}")
            else:
                errors[i] = FieldBoundError(
                    f"field bound violated at x={x}: |W|={norm_W[r]:.3e} "
                    f"> C'' dist = {bound[r]:.3e}")
        return W, errors


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


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)  # (T, n)
    nfev: int = 0

    endpoint = property(lambda self: self.states[-1])


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(t0: float, y0: np.ndarray, t_bound: float, t_eval: np.ndarray,
          max_step: float, tol: float, radius: float):
    """``solve_ivp(method="RK45", t_eval=t_eval)`` for one trajectory in
    scipy's arithmetic and order, as a generator: it yields (t, y) for each
    right-hand side, takes W back by ``send``, and returns the states at
    ``t_eval`` (T, n) or raises DomainExitError as ``flow`` does."""
    C, A, B, E, P = RK45.C, RK45.A, RK45.B, RK45.E, RK45.P
    order, exponent = RK45.error_estimator_order, -1 / (RK45.error_estimator_order + 1)
    rtol, atol = max(tol, 100 * EPS), tol  # scipy raises rtol to 100 eps
    direction, interval = np.sign(t_bound - t0), abs(t_bound - t0)
    t, y = t0, y0
    f = yield t, y
    # initial step (Hairer, Norsett & Wanner, Solving ODEs I, II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = yield t0 + h0 * direction, y + h0 * direction * f
    d2 = _rms((f1 - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / (order + 1)))
    h_abs = min(100 * h0, h1, interval, max_step)
    K, ys, emitted = np.empty((RK45.n_stages + 1, y.size)), [], 0
    while not direction * (t - t_bound) >= 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise DomainExitError("integration failed: Required step size "
                                      "is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
                K[s] = yield t + c * h, y + np.dot(K[:s].T, a[:s]) * h
            y_new = y + h * np.dot(K[:-1].T, B)
            K[-1] = f_new = yield t + h, y_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, E) * h / scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** exponent))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        # the step's quartic interpolant at the checkpoints it passed
        # (t_eval runs in the direction of integration)
        passed = np.count_nonzero(direction * (t_eval - t) <= 0)
        if passed > emitted:
            step = t - t_old
            x = np.tile((t_eval[emitted:passed] - t_old) / step, (P.shape[1], 1))
            out = step * np.dot(K.T.dot(P), np.cumprod(x, axis=0))
            out += y_old[:, None]
            ys.append(out)
            emitted = passed
    states = np.hstack(ys).T
    if np.any(np.linalg.norm(states, axis=1) > radius * (1 + 1e-9)):
        raise DomainExitError("trajectory left the calibrated ball")
    return states


def flow_many(vf: VectorFieldW, X0, t_span=(0.0, 1.0), tol: float = 1e-9,
              checkpoints: int = 17) -> tuple[np.ndarray, np.ndarray, list]:
    """``flow`` for each row of X0 (N, n), in lock step: each row takes the
    RK45 steps ``solve_ivp`` takes for it alone, and the W values all live
    rows need next are one ``eval_many`` call. Returns the states (N, T, n),
    W calls per row (N,) and per row the error ``flow`` raises, or None; a
    failing row stops there."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    X0 = np.asarray(X0, dtype=float)
    t0, t1 = map(float, t_span)
    times = np.linspace(t_span[0], t_span[1], checkpoints)
    states = np.repeat(X0[:, None, :], checkpoints, axis=1)
    nfev, errors = np.zeros(len(X0), dtype=int), [None] * len(X0)
    max_step = min(0.5, 0.1 / vf.constants.C_dprime)
    runs = {p: _rk45(t0, X0[p], t1, times, max_step, tol, vf.constants.U_radius)
            for p in np.flatnonzero(~(vf.z.distance_many(X0) <= 1e-14)).tolist()}
    pending = {p: next(run) for p, run in runs.items()}
    while pending:
        rows = list(pending)
        W, errs = vf.eval_many([pending[p][0] for p in rows],
                               np.array([pending[p][1] for p in rows]))
        for p, w, error in zip(rows, W, errs):
            nfev[p] += 1
            try:
                if error is None:
                    pending[p] = runs[p].send(w)
                    continue
            except StopIteration as done:
                states[p] = done.value
            except DomainExitError as exc:
                error = exc
            errors[p] = error
            del pending[p]
    return states, nfev, errors


def flow(vf: VectorFieldW, x0, t_span=(0.0, 1.0), tol: float = 1e-9,
         checkpoints: int = 17) -> Trajectory:
    """Integrate y' = W(t, y) from (t_span[0], x0) to t_span[1]; on Z, stay."""
    states, nfev, (error,) = flow_many(vf, np.asarray(x0, dtype=float)[None, :],
                                       t_span, tol, checkpoints)
    if error is not None:
        raise error
    return Trajectory(np.linspace(t_span[0], t_span[1], checkpoints), states[0],
                      int(nfev[0]))


def backward_flow(vf: VectorFieldW, y, t: float, tol: float = 1e-9) -> np.ndarray:
    """Inverse map: integrate from (t, y) back to time 0."""
    y = np.asarray(y, dtype=float)
    return y.copy() if t == 0.0 else flow(vf, y, (t, 0.0), tol, checkpoints=2).endpoint


def isotopy(vf: VectorFieldW, grid, tol: float = 1e-9,
            checkpoints: int = 17) -> IsotopyResult:
    """Forward flows on the grid (one ``flow_many``), backward flows from
    each checkpoint (one ``flow_many`` per time), inverse and conservation
    residuals. A failure raises the error a point-by-point loop meets first:
    lowest grid point, forward before backward flows, checkpoints in order."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    N, n = grid.shape
    forward, nfev, errors = flow_many(vf, grid, tol=tol, checkpoints=checkpoints)
    failed = {p: e for p, e in enumerate(errors) if e is not None}
    times = np.linspace(0.0, 1.0, checkpoints)
    inverse = forward.copy()  # time 0 and points on Z map back to themselves
    for j, t in enumerate(times):
        todo = min(failed, default=N)  # later points cannot raise first
        if t != 0.0 and todo > 0:
            back, _, errors = flow_many(vf, forward[:todo, j], (t, 0.0), tol, 2)
            inverse[:todo, j] = back[:, -1]
            failed.update((p, e) for p, e in enumerate(errors) if e is not None)
    if failed:
        raise failed[min(failed)]
    Y, fx = forward.reshape(-1, n), np.repeat(vf.F.f.eval_many(grid), checkpoints, axis=0)
    F_Y = vf.F.f.eval_many(Y) + np.tile(times, N)[:, None] * vf.F.P.eval_many(Y)
    inverse_res = row_norms((inverse - grid[:, None]).reshape(-1, n))
    return IsotopyResult(grid=grid, times=times, forward=forward,
                         conservation=row_norms(F_Y - fx).reshape(N, -1),
                         inverse_residuals=inverse_res.reshape(N, -1),
                         constants=vf.constants, nfev_total=int(nfev.sum()))


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
