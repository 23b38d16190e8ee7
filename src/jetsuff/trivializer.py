"""Trivializing vector field and isotopy for a verified germ pair.

Given realizations f, f1 of one jet over Z with the condition verified,
the deformation F(xi, x) = f(x) + xi*P(x), P = f1 - f, is made independent
of xi by flowing along the field W that solves (d_xF) W^T = -P^T. W is
assembled by Cramer's rule over maximal minors, blended by a smooth
partition of unity supported where each minor dominates, and set to 0 on Z.
Integrating y' = W(t, y) gives the isotopy H and its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import (CalibrationError, ConvergenceError, CoveringViolationError,
                     DomainExitError, FieldBoundError, InvalidInputError)
from .germ import GermPair, SampledZ, int_power, monomial_text, same_k_Z_jet, scalar_powers
from .linmap import g_prime_many, minor_table, norm2_many, row_norms
from .poly import PolyStack
from .report import Report, write_table
from .sampling import ball_sample

LINSYS_TOL = 1e-9      # residual budget for (d_xF) W^T + P^T
FIELD_BOUND_SLACK = 1e-6
# scipy's RK45 step control: safety factor, step change bounds, rtol floor
SAFETY, MIN_FACTOR, MAX_FACTOR, EPS = 0.9, 0.2, 10, np.finfo(float).eps
# calibration: sample points in the unit ball, xi values on [-1.95, 1.95],
# and the factor by which the working ball shrinks from radius 1
CALIBRATION_SAMPLES, XI_COUNT, SHRINK = 2048, 17, 0.9
CHECKPOINTS = 17  # isotopy times on [0, 1]
ON_Z = 1e-14  # W = 0 this close to Z, so flow_many keeps a row that starts there fixed


class RK45:
    """The Dormand-Prince 5(4) tableau of scipy's ``RK45``, written as scipy
    writes it, so that every coefficient is the same float."""

    error_estimator_order, n_stages = 4, 6
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
    # the quartic dense output, with the optimum c_6 of Shampine (1986)
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608,
         -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933,
         87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304,
         -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def __getattr__(name):
    # only perfbench/tracing.py reads ``solve_ivp`` (to wrap it), so
    # scipy.integrate loads only then; ROADMAP item 5 retires it
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    def P_and_d_x(self, xis, X) -> tuple[np.ndarray, np.ndarray]:
        """P and d_xF(xi, x) = Jf(x) + xi JP(x) at the rows of X (shape
        (N, n)), one xi per row, read from one power table."""
        v = self._stack.eval_many(np.asarray(X, dtype=float))
        J = v[:, self.m:].reshape(-1, 2, self.m, self.n)
        return v[:, :self.m], J[:, 0] + np.asarray(xis, dtype=float)[:, None, None] * J[:, 1]


def build_F(pair: GermPair, seed: int = 0) -> DeformationF:
    """The deformation of ``pair``, once f and f1 are checked to share
    their k-jets along Z. ``seed`` is unused: the check draws nothing."""
    ok, witness = same_k_Z_jet(pair)
    if not ok:
        where = (f"a nonzero k-jet at the cloud point {list(witness)}"
                 if isinstance(pair.z, SampledZ) else
                 f"the term {monomial_text(witness[1])} in component {witness[0] + 1}")
        raise InvalidInputError(f"pair is not a common k-Z-jet: f1 - f has {where}")
    return DeformationF(pair)


def calibrate_constants(pair: GermPair, report, seed: int = 0) -> TrivializationConstants:
    """Shrink the working ball by SHRINK per step, from the first SHRINK^j at
    or below the estimator's outermost radius, where C_hat was measured, until
    |P| <= (C/3) dist^k and ||dP|| <= (C/3) dist^(k-1) hold on a dense
    sample, then bound the minor ratio from below to get C' and the field
    constant C''.

    Both stages work on stacks of sample points. Each shrink step checks
    the P bounds in sample order, in chunks of 32, 64, 128, ... points,
    and stops at the first chunk holding an offender, so a failing step
    costs about as much as the offender's position in the sample. C' is
    the minimum of g'(Jf + xi JP) / dist^(k-1) with Jf and JP evaluated
    once per point, and g' taken over the whole stack once per xi.
    """
    if report.verdict != "holds":
        raise InvalidInputError("calibration requires a 'holds' estimator verdict")
    C, k = report.C_hat, pair.f.k
    if report.k != k:
        raise InvalidInputError(f"estimator report is for k = {report.k}, the pair's k is {k}")
    P = pair.P
    unit = ball_sample(pair.f.n, CALIBRATION_SAMPLES, seed)
    radius = 1.0
    while radius > report.radii[0]:
        radius *= SHRINK
    start = radius
    for _ in range(200):
        X, scale, offender = _p_bounds_check(P, pair.z, radius * unit, C, k)
        if offender is None:
            break
        radius *= SHRINK
    else:
        raise CalibrationError(
            f"no radius <= {start} satisfies the P bounds; "
            f"last offender {offender.tolist()}")

    Jf, JP = pair.f.jacobian_many(X), P.jacobian_many(X)
    xis = np.linspace(-1.95, 1.95, XI_COUNT)
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
        dk, dk1 = int_power(d, k), int_power(d, k - 1)
        norm_P = row_norms(P.eval_many(rows))
        norm_dP = norm2_many(P.jacobian_many(rows))
        bad = (norm_P > C / 3 * dk) | (norm_dP > C / 3 * dk1)
        if bad.any():
            return None, None, rows[np.argmax(bad)]
        kept.append(rows)
        scales.append(dk1)
    return np.concatenate(kept), np.concatenate(scales), None


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C^2 ramp, entry by entry: 0 for s <= 1/2, 1 for s >= 1, quintic in
    between. s is clamped to [1/2, 1] (nan to 1/2), where the quintic is 0 and
    1 exactly; u^2 = u u and u^3 = u u^2 are ``int_power``'s products."""
    u = 2.0 * (np.minimum(np.fmax(s, 0.5), 1.0) - 0.5)
    u2 = u * u
    return u * u2 * (10.0 - 15.0 * u + 6.0 * u2)


def _residuals(A: np.ndarray, W: np.ndarray, P: np.ndarray) -> np.ndarray:
    """|A w + P| per row; a stacked matmul keeps each row's ``A @ w`` bits."""
    return row_norms(np.matmul(A, W[:, :, None])[:, :, 0] + P)


class VectorFieldW:
    """Cramer-rule field blended over dominating minors; 0 on Z."""

    def __init__(self, F: DeformationF, constants: TrivializationConstants):
        self.F, self.constants, self.z = F, constants, F.pair.z
        # spread[:, c]: where minor_table's flattened (set, column) pairs hold
        # column c, in set order; each column lies in as many sets
        cols = minor_table(np.zeros((0, F.m, F.n)))[0].ravel()
        self._spread = np.argsort(cols, kind="stable").reshape(F.n, -1).T

    def eval(self, xi: float, x) -> np.ndarray:
        W, (error,) = self.eval_many([xi], np.asarray(x, dtype=float)[None, :])
        if error is not None:
            raise error
        return W[0]

    def eval_many(self, xis, X) -> tuple[np.ndarray, list]:
        """W(xi_i, x_i) at the rows of X (N, n), and per row the error ``eval``
        raises there, or None. Each row gets one point's arithmetic: sums from
        +0.0 in order, checks of finite entries, active minor, residual, bound.
        With every row off Z there is no row gather; with every row also good,
        the blend is W itself, with no scatter and no error loop."""
        xis, X = np.asarray(xis, dtype=float), np.asarray(X, dtype=float)
        errors, c = [None] * len(X), self.constants
        d = self.z.distance_many(X)
        everywhere = not (d <= ON_Z).any()  # W = 0 on Z
        rows = slice(None) if everywhere else ~(d <= ON_Z)
        P, A = self.F.P_and_d_x(xis[rows], X[rows])
        thresh = c.C_prime * int_power(d[rows], self.F.k - 1)
        finite = np.isfinite(A).all(axis=(1, 2))
        A[~finite] = 0.0  # a placeholder in failed rows
        cols, M, h, num = minor_table(A)
        # where thresh underflows to 0 every nonzero minor dominates, and 0/0 weighs 0
        with np.errstate(divide="ignore", invalid="ignore"):
            w = _smoothstep(np.abs(M) / np.maximum(h, 1e-300) / thresh[:, None])
        on, total, b = w > 0.0, sum(w.T), -P
        # Cramer's rule on each column set I: w_l = sum_j num[l, j] (-P)_j / M_I,
        # where M_I != 0 as w > 0; every other set weighs +0.0
        cramer = sum(num[..., j] * b[:, None, None, j] for j in range(b.shape[1]))
        cramer = np.where(on[..., None], cramer / np.where(on, M, 1.0)[..., None], 0.0)
        terms = (w / np.where(total > 0.0, total, 1.0)[:, None])[..., None] * cramer
        blend = sum(terms.reshape(len(A), cols.size).take(self._spread, axis=1).swapaxes(0, 1))
        active, resid, norm_W = on.any(axis=1), _residuals(A, blend, P), row_norms(blend)
        off_budget = resid > LINSYS_TOL * (1.0 + row_norms(b))
        bound = c.C_dprime * d[rows] * (1.0 + FIELD_BOUND_SLACK)
        good = finite & active & ~off_budget & ~(norm_W > bound)
        if everywhere and good.all():
            return blend, errors
        W, at = np.zeros(X.shape), np.flatnonzero(~(d <= ON_Z))
        W[at[good]] = blend[good]
        for r in np.flatnonzero(~good).tolist():
            i, x = at[r], X[at[r]].tolist()
            if not finite[r]:
                errors[i] = ConvergenceError("entries must be finite")
            elif not active[r]:
                errors[i] = CoveringViolationError(
                    f"no active minor at xi={xis[i]}, x={x} (dist {d[i]:.3e}); "
                    "the minor lower bound fails here")
            elif off_budget[r]:
                errors[i] = ConvergenceError(
                    f"linear system residual {resid[r]:.3e} out of budget at x={x}")
            else:
                errors[i] = FieldBoundError(
                    f"field bound violated at x={x}: |W|={norm_W[r]:.3e} "
                    f"> C'' dist = {bound[r]:.3e}")
        return W, errors


@dataclass(frozen=True)
class IsotopyResult:
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

    def write_csv(self, path):
        n = self.grid.shape[1]
        # Python floats (one tolist each) repr faster than numpy scalars, same text
        grid = [[repr(v) for v in row] for row in self.grid.tolist()]
        forward, conservation = self.forward.tolist(), self.conservation.tolist()
        times = [repr(t) for t in self.times.tolist()]
        write_table(path, ["point", "t"] + [f"x0_{i}" for i in range(n)]
                    + [f"H_{i}" for i in range(n)] + ["conservation_residual"],
                    ([p, t] + grid[p] + [repr(v) for v in forward[p][j]]
                     + [repr(conservation[p][j])]
                     for p in range(len(grid)) for j, t in enumerate(times)))


def flow_many(vf: VectorFieldW, X0, t_span=(0.0, 1.0), tol: float = 1e-9,
              checkpoints: int = CHECKPOINTS) -> tuple[np.ndarray, np.ndarray, list]:
    """``flow`` for each row of X0 (N, n): each row takes the RK45 steps of
    ``solve_ivp(method="RK45", t_eval=...)`` for it alone, in scipy's
    arithmetic. Every step attempt costs every row 6 W calls, so all live
    rows are at one stage: t, h, y and the stages live in arrays, each stage
    is one ``eval_many`` call, and accept, reject, finish and fail are masks.
    A stage whose rows all get W takes it as returned, with no row check,
    and the finish and min-step checks run only on steps where some row
    needs them. ``t_span[0]`` is one start time or one per row (N,); a row
    within ON_Z of Z or starting at ``t_span[1]`` stays put. Returns the
    states (N, T, n), W calls per row (N,) and per row the error ``flow``
    raises, or None; a failing row stops there and keeps x0 as its states."""
    if not 0.0 < tol < np.inf:
        raise InvalidInputError("tol must be finite and positive")
    X0 = np.asarray(X0, dtype=float)
    starts, t1 = np.broadcast_to(np.asarray(t_span[0], float), len(X0)), float(t_span[1])
    states = np.repeat(X0[:, None, :], checkpoints, axis=1)
    nfev, errors = np.zeros(len(X0), dtype=int), [None] * len(X0)
    max_step = min(0.5, 0.1 / vf.constants.C_dprime)
    A, B, C, E, P = RK45.A, RK45.B, RK45.C, RK45.E, RK45.P
    order, exponent = RK45.error_estimator_order, -1 / (RK45.error_estimator_order + 1)
    rtol, atol = max(tol, 100 * EPS), tol  # scipy raises rtol to 100 eps
    n, bound = X0.shape[1], vf.constants.U_radius * (1 + 1e-9)
    r = SimpleNamespace()  # one array entry per live row; keep drops rows from all
    r.p = np.flatnonzero(~(vf.z.distance_many(X0) <= ON_Z) & (starts != t1))
    r.t, r.y = starts[r.p], X0[r.p]
    r.direction, r.interval = np.sign(t1 - r.t), np.abs(t1 - r.t)
    r.t_eval = np.linspace(r.t, t1, checkpoints, axis=1)

    def keep(mask):
        if not mask.all():
            vars(r).update({k: v[mask] for k, v in vars(r).items()})

    def stop(mask, errs):
        """End the rows in ``mask``, each with its error and x0 as its states."""
        for p, error in zip(r.p[mask].tolist(), errs):
            errors[p], states[p] = error, X0[p]
        keep(~mask)

    def rhs(t, Y):
        """W at the live rows; a row whose W fails stops with its error."""
        W, errs = vf.eval_many(t, Y) if len(Y) else (Y, [])
        nfev[r.p] += 1
        if errs.count(None) == len(errs):
            return W
        ok = np.array([e is None for e in errs], dtype=bool)
        stop(~ok, [e for e in errs if e is not None])
        return W[ok]

    def rms(x):
        return row_norms(x) / n ** 0.5

    # initial step (Hairer, Norsett & Wanner, Solving ODEs I, II.4)
    r.f = rhs(r.t, r.y)
    r.scale = atol + np.abs(r.y) * rtol
    d0, r.d1 = rms(r.y / r.scale), rms(r.f / r.scale)
    small = (d0 < 1e-5) | (r.d1 < 1e-5)
    r.h0 = np.minimum(np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, r.d1)), r.interval)
    f1 = rhs(r.t + r.h0 * r.direction, r.y + (r.h0 * r.direction)[:, None] * r.f)
    d2 = rms((f1 - r.f) / r.scale) / r.h0
    steep = ~((r.d1 <= 1e-15) & (d2 <= 1e-15))
    h1 = np.maximum(1e-6, r.h0 * 1e-3)
    h1[steep] = scalar_powers(0.01 / np.maximum(r.d1, d2)[steep], 1 / (order + 1))
    r.h_abs = np.minimum(np.minimum(np.minimum(100 * r.h0, h1), r.interval), max_step)
    r.K = np.empty((len(r.p), RK45.n_stages + 1, n))
    r.rejected, r.emitted = np.zeros(len(r.p), dtype=bool), np.zeros(len(r.p), dtype=int)
    while True:
        done = r.direction * (r.t - t1) >= 0
        if done.any():
            out = np.zeros_like(done)
            out[done] = np.any(np.linalg.norm(states[r.p[done]], axis=-1) > bound, axis=1)
            stop(out, [DomainExitError("trajectory left the calibrated ball") for _ in r.p[out]])
            keep(~done[~out])  # the rows that finished inside the ball
        # a new step starts where the last attempt was accepted
        min_step = 10 * np.abs(np.nextafter(r.t, r.direction * np.inf) - r.t)
        r.h_abs = np.where(r.rejected, r.h_abs, np.where(
            r.h_abs > max_step, max_step, np.maximum(r.h_abs, min_step)))
        tiny = r.h_abs < min_step
        if tiny.any():
            stop(tiny, [DomainExitError("integration failed: Required step size is less "
                                        "than spacing between numbers.") for _ in r.p[tiny]])
        if not len(r.p):
            return states, nfev, errors
        t_new = r.t + r.h_abs * r.direction
        r.t_new = np.where(r.direction * (t_new - t1) > 0, t1, t_new)
        r.h = r.t_new - r.t
        r.h_abs = np.abs(r.h)
        r.K[:, 0] = r.f
        for s in range(1, RK45.n_stages):
            dy = np.matmul(r.K[:, :s].transpose(0, 2, 1), A[s, :s]) * r.h[:, None]
            r.K[:, s] = rhs(r.t + C[s] * r.h, r.y + dy)
        r.y_new = r.y + r.h[:, None] * np.matmul(r.K[:, :-1].transpose(0, 2, 1), B)
        r.K[:, -1] = rhs(r.t + r.h, r.y_new)
        scale = atol + np.maximum(np.abs(r.y), np.abs(r.y_new)) * rtol
        err = rms(np.matmul(r.K.transpose(0, 2, 1), E) * r.h[:, None] / scale)
        # scipy's step-size factors, each power a scalar one (row bits)
        power = np.full(len(err), np.nan)
        power[err > 0] = scalar_powers(err[err > 0], exponent)
        grow = np.where(err == 0, MAX_FACTOR, np.fmin(MAX_FACTOR, SAFETY * power))
        accept = err < 1
        r.h_abs = r.h_abs * np.where(accept, np.where(r.rejected, np.fmin(1, grow), grow),
                                     np.fmax(MIN_FACTOR, SAFETY * power))
        r.rejected = ~accept
        t_old, y_old = r.t, r.y
        r.t = np.where(accept, r.t_new, r.t)
        r.y = np.where(accept[:, None], r.y_new, r.y)
        r.f = np.where(accept[:, None], r.K[:, -1], r.f)
        # each accepted step's quartic interpolant at the checkpoints it passed
        # (t_eval runs in the direction of integration); rows passing m
        # checkpoints share one stacked (n, 4) @ (4, m) product, scipy's shape
        passed = np.count_nonzero(r.direction[:, None] * (r.t_eval - r.t[:, None]) <= 0, axis=1)
        emit = np.flatnonzero(accept & (passed > r.emitted))
        Q, counts = np.matmul(r.K[emit].transpose(0, 2, 1), P), passed[emit] - r.emitted[emit]
        for m in set(counts.tolist()):  # not np.unique: its first call imports numpy.ma
            group = counts == m
            g = emit[group]
            cols, step = r.emitted[g, None] + np.arange(m), (r.t[g] - t_old[g])[:, None]
            x = (r.t_eval[g[:, None], cols] - t_old[g, None]) / step
            powers = np.cumprod(np.broadcast_to(x[:, None], (len(g), P.shape[1], m)), axis=1)
            Y = step[:, None] * np.matmul(Q[group], powers) + y_old[g, :, None]
            states[r.p[g, None], cols] = Y.transpose(0, 2, 1)
        r.emitted = np.where(accept, passed, r.emitted)


def flow(vf: VectorFieldW, x0, t_span=(0.0, 1.0), tol: float = 1e-9,
         checkpoints: int = CHECKPOINTS) -> np.ndarray:
    """Integrate y' = W(t, y) from (t_span[0], x0) to t_span[1]; on Z, stay.
    Returns the states at the checkpoints, shape (checkpoints, n)."""
    states, _, (error,) = flow_many(vf, np.asarray(x0, dtype=float)[None, :],
                                    t_span, tol, checkpoints)
    if error is not None:
        raise error
    return states[0]


def backward_flow(vf: VectorFieldW, y, t: float, tol: float = 1e-9) -> np.ndarray:
    """Inverse map: integrate from (t, y) back to time 0 (a new array)."""
    return flow(vf, y, (t, 0.0), tol, checkpoints=2)[-1]


def isotopy(vf: VectorFieldW, grid, tol: float = 1e-9) -> IsotopyResult:
    """Forward flows on the grid, then the backward flow of every (point,
    checkpoint) state from its own time to 0, each pass one ``flow_many``;
    inverse and conservation residuals. A failure raises the error a
    point-by-point loop meets first: lowest grid point, its forward flow
    before its backward flows, checkpoints in order."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    N, n = grid.shape
    times = np.linspace(0.0, 1.0, CHECKPOINTS)
    forward, nfev, errors = flow_many(vf, grid, tol=tol)
    Y, times_Y = forward.reshape(-1, n), np.tile(times, N)
    back, _, back_errors = flow_many(vf, Y, (times_Y, 0.0), tol, 2)
    failed = [e for p in range(N) for e in [errors[p], *back_errors[
        p * CHECKPOINTS:(p + 1) * CHECKPOINTS]] if e is not None]
    if failed:
        raise failed[0]
    fx = np.repeat(vf.F.f.eval_many(grid), CHECKPOINTS, axis=0)
    F_Y = vf.F.f.eval_many(Y) + times_Y[:, None] * vf.F.P.eval_many(Y)
    inverse_res = row_norms(back[:, -1] - np.repeat(grid, CHECKPOINTS, axis=0))
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
