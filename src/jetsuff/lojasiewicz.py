"""Sampling-based verification of nu(df(x)) >= C dist(x,Z)^(k-1) near Z.

The limit "as x -> 0" is operationalized on shrinking dyadic annuli: one
fixed quasi-random pattern in the shell 1/2 <= |x| <= 1 is rescaled to each
radius, so per-annulus statistics are exactly scale-equivariant and fully
determined by the seed. A germ whose terms share one total degree d, over an
analytic Z (a cone), is evaluated on the outermost annulus only, when every
radius is r_0 2^e: the others' dist and nu(df) are its own times 2^e and
2^(e(d-1)), bit for bit (``_evaluations``). Each annulus is evaluated for any
other germ, a ``samples`` Z, other radii, or values that would leave
[2^-450, 2^450] by the deepest annulus. On such a germ the minima are the
outermost's times 2^(e(d-k)), so "holds" rests on the infimum over one shell,
and the violation search polishes the outermost annulus with one Nelder-Mead
run whose dyadic copies are the other annuli's polishes
(``_dyadic_nelder_mead``); it polishes every annulus in lock-step
(``_nelder_mead``) otherwise. Both loops take scipy's start simplex from
``_start`` and its choice of trial point or shrink from ``_pick``.

Verdicts are heuristics by design: a finite sample cannot certify an
infimum. ``holds``: all annulus minima positive and >= half the outermost,
so growing ratios hold (for dist <= 1 the condition at k implies it at
larger k); ``fails``: monotone decay by a factor >= 2; else ``inconclusive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .germ import AnalyticZ, GermPair, ZSpec, int_power
from .linmap import norm2_many, nu_many, row_norms
from .report import Report, write_table
from .sampling import unit_shell_sample

DIST_FLOOR = 1e-9  # points closer to Z are excluded from ratio statistics
# find_violation_sequence: annuli of radius 1/2, 1/4, ..., points per annulus
SEARCH_DEPTH, SEARCH_SAMPLES = 12, 512
# the Nelder-Mead options of each annulus's polish
POLISH = {"maxiter": 400, "xatol": 1e-12, "fatol": 1e-14}


def __getattr__(name):
    # only perfbench/tracing.py reads ``optimize`` (for a ``minimize`` proxy
    # nothing calls), so scipy.optimize loads only then; ROADMAP item 5 retires it
    if name == "optimize":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class LojasiewiczReport(Report):
    radii: tuple[float, ...]
    minima: tuple[float, ...]
    argmins: tuple[tuple[float, ...], ...]
    C_hat: float
    verdict: str
    seed: int
    k: int
    samples_per_annulus: int
    skipped: int = 0

    def write_csv(self, path):
        write_table(path, ["annulus", "radius", "min_ratio", "argmin"],
                    ([i, repr(r), repr(m), " ".join(repr(v) for v in a)]
                     for i, (r, m, a) in enumerate(zip(self.radii, self.minima,
                                                       self.argmins))))


def falls_like_inverse_nu(values) -> bool:
    """The witness rule: the nu-th value (nu = 1, 2, ...) is at most the first over nu."""
    return all(v <= values[0] / i + 1e-15 for i, v in enumerate(values, start=1))


def halves(values) -> bool:
    """The sequence rule on distances: each value is below half the one before it."""
    return all(v1 < 0.5 * v0 for v0, v1 in zip(values, values[1:]))


@dataclass(frozen=True)
class ViolationSequence(Report):
    """Points off Z approaching 0 whose condition ratios decay to 0."""

    points: tuple[tuple[float, ...], ...]
    ratios: tuple[float, ...]
    dists: tuple[float, ...]

    def __post_init__(self):
        if not 0 < len(self.points) == len(self.ratios) == len(self.dists):
            raise InvalidInputError("points, ratios and dists must be nonempty and of one length")
        if not halves(self.dists):
            raise InvalidInputError("distances must at least halve")
        for r0, r1 in zip(self.ratios, self.ratios[1:]):
            if not r1 < r0:
                raise InvalidInputError("ratios must strictly decrease")
        if not falls_like_inverse_nu(self.ratios):
            raise InvalidInputError("ratios must decay at least like 1/nu")


def _ratio_stats(f, z: ZSpec, k: int, X: np.ndarray, d: np.ndarray, v: np.ndarray):
    """(min ratio, argmin, min nu, skipped, dist at the argmin) over the rows of
    X at least DIST_FLOOR from Z, given their dist ``d`` and nu(df) ``v``, or
    None. f and z go unused; the benchmark's tracer reads X and skipped."""
    far = ~(d < DIST_FLOOR)
    X, d, v = X[far], d[far], v[far]
    skipped = len(far) - len(X)
    if not len(X):
        return None
    with np.errstate(all="ignore"):  # dist^(k-1) may underflow to 0; see _require_finite
        r = v / int_power(d, k - 1)
    i = int(np.argmin(r))
    return float(r[i]), X[i], float(v.min()), skipped, d[i]


def _in_range(values, e: int) -> bool:
    """Whether every nonzero |value|, times 2^j for each j from 0 down to e,
    lies in [2^-450, 2^450]: normal, with normal squares, and inside LAPACK's
    unscaled range [2^-459, 2^459], so that scaling by 2^j rounds nothing."""
    a = np.abs(np.asarray(values, dtype=float))
    a = a[a != 0]
    return not len(a) or bool(a.max() <= 2.0 ** 450 and np.ldexp(a.min(), e) >= 2.0 ** -450)


def _df_scales(f, X, J, v, e: int) -> bool:
    """Whether df and nu(df) at the rows of X times 2^j, for each j from 0
    down to e, are ``J`` and ``v`` (their values at X) times 2^(j(D-1)), bit
    for bit, f homogeneous of degree D: no coordinate, monomial or term of
    df, entry of df or nu leaves [2^-450, 2^450] (0 aside) on the way."""
    p = f.degree - 1
    # a monomial of degree q <= p lies between a.min()^q and a.max()^q
    a = np.abs(X[X != 0])
    c = [abs(float(v)) for q in f.components for v in q.terms.values()]
    with np.errstate(all="ignore"):
        ends = np.array([a.min(), a.max()]) ** p
        terms = [min(c) * ends[0], f.degree * max(c) * ends[1]]  # df's coefficients times monomials
    return all(_in_range(values, j) for values, j in (
        (X, e), (ends, e * p), (terms, e * p), (J, e * p), (v, e * p)))


def _evaluations(f, z: ZSpec, radii, samples_per_annulus: int, seed: int):
    """(radius, X, dist(X, Z), nu(df(X))) on each annulus in turn, X the seed's
    one Sobol shell rescaled to the radius.

    Only the outermost annulus is evaluated when f is homogeneous of degree D
    over an AnalyticZ (a cone) and every other radius is r_0 2^e exactly: its
    dist and nu are then the outermost's times 2^e and 2^(e(D-1)), bit for bit,
    as long as no value the evaluation forms (coordinates, the monomials and
    terms of df, df, dist, nu) leaves [2^-450, 2^450] or 0 down to the deepest
    annulus. Any other germ, Z or radii, or a failed bound, evaluates each."""
    radii = [float(r) for r in radii]
    if len(radii) < 4 or not all(math.inf > a > b > 0 for a, b in zip(radii, radii[1:])):
        raise InvalidInputError("need >= 4 strictly decreasing positive radii")
    if samples_per_annulus < 256:
        raise InvalidInputError("need >= 256 samples per annulus")
    shell = unit_shell_sample(f.n, samples_per_annulus, seed)
    r0, X0 = radii[0], radii[0] * shell
    J0 = f.jacobian_many(X0)
    d0, v0 = z.distance_many(X0), nu_many(J0)
    yield r0, X0, d0, v0
    exps = [math.frexp(r / r0)[1] - 1 for r in radii[1:]]
    if f.degree is not None and isinstance(z, AnalyticZ) and all(
            math.ldexp(r0, e) == r for e, r in zip(exps, radii[1:])):
        e, p = exps[-1], f.degree - 1
        if _in_range(d0, e) and _df_scales(f, X0, J0, v0, e):
            for r, e in zip(radii[1:], exps):
                yield r, r * shell, np.ldexp(d0, e), np.ldexp(v0, e * p)
            return
    for r in radii[1:]:
        X = r * shell
        yield r, X, z.distance_many(X), nu_many(f.jacobian_many(X))


def _table(f, z: ZSpec, k: int, radii, samples_per_annulus: int, seed: int):
    """The radii and ``_ratio_stats`` on each annulus, each with a row off Z."""
    radii, stats = zip(*[(r, _ratio_stats(f, z, k, X, d, v))
                         for r, X, d, v in _evaluations(f, z, radii, samples_per_annulus, seed)])
    if None in stats:
        raise InvalidInputError(f"all samples at radius {radii[stats.index(None)]} fell into Z")
    return radii, stats


def _require_finite(k: int, radii, minima):
    # dist^(k-1) underflows to 0 near Z for a large k
    for r, m in zip(radii, minima):
        if not np.isfinite(m):
            raise InvalidInputError(f"k={k}: the minimum ratio at radius {r} is not finite")


def estimate_condition(f, z: ZSpec, k: int, radii, samples_per_annulus: int,
                       seed: int) -> LojasiewiczReport:
    """Per-annulus minima of nu(df)/dist^(k-1) and a verdict."""
    radii, stats = _table(f, z, k, radii, samples_per_annulus, seed)
    minima = [s[0] for s in stats]
    _require_finite(k, radii, minima)
    argmins = [tuple(float(v) for v in s[1]) for s in stats]
    skipped = sum(s[3] for s in stats)
    C_hat = float(min(minima))
    if C_hat > 0 and C_hat >= 0.5 * minima[0]:
        verdict = "holds"
    elif all(b < a for a, b in zip(minima, minima[1:])) and minima[-1] <= 0.5 * minima[0]:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return LojasiewiczReport(
        radii=tuple(radii), minima=tuple(minima), argmins=tuple(argmins),
        C_hat=C_hat, verdict=verdict, seed=seed, k=k,
        samples_per_annulus=samples_per_annulus, skipped=skipped)


def fit_exponent(f, z: ZSpec, radii, samples_per_annulus: int, seed: int) -> float:
    """Least-squares slope of log(min nu) against log(radius).

    A condition with exponent k-1 is plausible iff the slope is at most
    k - 1 + 0.1.
    """
    radii, stats = _table(f, z, 2, radii, samples_per_annulus, seed)
    mins = [s[2] for s in stats]
    if max(mins) < 1e-14:
        raise ConvergenceError("nu vanished on every annulus; regression degenerate")
    slope = np.polyfit(np.log(radii), np.log(mins), 1)[0]
    return float(slope)


# scipy's Nelder-Mead coefficients (not adaptive) and start-simplex steps
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZDELT, ZDELT = 0.05, 0.00025
# reflection, expansion, outside and inside contraction: a*xbar + b*worst,
# where b*worst is scipy's subtrahend negated, which is exact
TRIAL_A = np.array([1 + RHO, 1 + RHO * CHI, 1 + PSI * RHO, 1 - PSI])[:, None]
TRIAL_B = np.array([-RHO, -(RHO * CHI), -(PSI * RHO), PSI])[:, None]


def _sort(sim, fsim):
    """The simplices sim (R, N+1, N) and their values fsim (R, N+1), each
    row in the order of scipy's ``argsort`` of its values."""
    ind = fsim.argsort(axis=1)
    rows = np.arange(len(ind))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def _start(objective, X0):
    """scipy's start simplex from each row of X0 (R, N), its values from one
    ``objective`` call on the R(N+1) vertices, and scipy's two sorts."""
    R, N = X0.shape
    sim = np.repeat(X0[:, None], N + 1, axis=1)
    sim[:, np.arange(1, N + 1), np.arange(N)] = np.where(X0 != 0, (1 + NONZDELT) * X0, ZDELT)
    fsim = objective(sim.reshape(-1, N)).reshape(R, N + 1)
    for _ in range(2):  # scipy sorts twice before the first iteration
        sim, fsim = _sort(sim, fsim)
    return sim, fsim


def _pick(fxr, fxe, fxc, fxcc, fsim):
    """scipy's trial point, from the values of the reflection, expansion and
    outside and inside contraction and a sorted simplex's values fsim: its
    index 0-3 among the four, or None to shrink. Each test runs only where
    the ones before it failed, as in scipy: with a nan vertex in the simplex,
    fxr < fsim[0] does not imply fxr < fsim[-2]."""
    if fxr < fsim[0]:
        return 1 if fxe < fxr else 0
    if fxr < fsim[-2]:
        return 0
    if fxr < fsim[-1]:
        return 2 if fxc <= fxr else None
    return 3 if fxcc < fsim[-1] else None


def _nelder_mead(objective, X0):
    """scipy's Nelder-Mead (``optimize.minimize(method="Nelder-Mead")`` with
    ``options=POLISH``, no bounds, not adaptive) from every row of X0 at once.

    ``objective(X, which)`` returns the values at the rows of X, row i a point
    of the run from ``X0[which[i]]``, each row on its own. The live runs'
    simplices and values are arrays, all at one iteration, and each run takes
    scipy's steps with scipy's arithmetic, bit for bit: an iteration makes one
    stacked call for the four trial points of every live run (each
    ``a*xbar + b*worst`` with scipy's weights and operand order), moves each
    run that does not shrink to the point ``_pick`` chooses with one gather,
    and makes one more call for the shrinks, if any. Returns the final
    simplices (R, N+1, N), each sorted best vertex first, their values
    (R, N+1) and ``nit`` (R,); scipy's ``x`` and ``fun`` are ``S[:, 0]`` and
    ``F.min(1)``."""
    maxiter, xatol, fatol = POLISH["maxiter"], POLISH["xatol"], POLISH["fatol"]
    X0 = np.asarray(X0, dtype=float)
    R, N = X0.shape
    live = np.arange(R)  # the runs still iterating; sim and fsim hold their rows
    sim, fsim = _start(lambda X: objective(X, np.repeat(live, N + 1)), X0)
    S, F, nit = np.empty_like(sim), np.empty_like(fsim), np.full(R, maxiter)
    for it in range(1, maxiter):
        stop = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        if stop.any():
            S[live[stop]], F[live[stop]], nit[live[stop]] = sim[stop], fsim[stop], it
            live, sim, fsim = live[~stop], sim[~stop], fsim[~stop]
            if not len(live):
                return S, F, nit
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        trial = TRIAL_A * xbar[:, None] + TRIAL_B * sim[:, -1:]  # (L, 4, N)
        ftrial = objective(trial.reshape(-1, N), np.repeat(live, 4)).reshape(-1, 4)
        pick = [_pick(*t, f) for t, f in zip(ftrial.tolist(), fsim.tolist())]
        move = np.array([i for i, p in enumerate(pick) if p is not None], dtype=int)
        to = np.array([p for p in pick if p is not None], dtype=int)
        sim[move, -1], fsim[move, -1] = trial[move, to], ftrial[move, to]
        if len(move) < len(live):  # the others shrink toward their best vertex
            shrink = [i for i, p in enumerate(pick) if p is None]
            sim[shrink, 1:] = sim[shrink, :1] + SIGMA * (sim[shrink, 1:] - sim[shrink, :1])
            fsim[shrink, 1:] = objective(sim[shrink, 1:].reshape(-1, N),
                                         np.repeat(live[shrink], N)).reshape(-1, N)
        sim, fsim = _sort(sim, fsim)
    S[live], F[live] = sim, fsim  # the runs that reached maxiter
    return S, F, nit


def _dyadic_nelder_mead(objective, x0, copies: int, q: int):
    """``_nelder_mead``'s (S, F, nit) from the rows x0 2^-j, j < copies, of an
    objective whose value at x 2^-j is its value at x times 2^(-jq), by one
    run of scipy's Nelder-Mead from x0 on ``objective(X)``. That run, scaled,
    is each copy's as long as nothing under- or overflows (the caller's to
    check) and x0 has no zero coordinate (scipy's step for one is absolute);
    only the stop test is absolute, so copy j stops at the first iteration
    whose simplex and value spreads, so scaled, pass xatol and fatol. Its
    steps are ``_nelder_mead``'s at R = 1, with one ``_pick`` and no gather."""
    maxiter, xatol, fatol = POLISH["maxiter"], POLISH["xatol"], POLISH["fatol"]
    N = len(x0)
    (sim,), (fsim,) = _start(objective, np.asarray(x0, dtype=float)[None])
    j = np.arange(copies)
    S, F, nit = np.empty((copies, N + 1, N)), np.empty((copies, N + 1)), np.full(copies, maxiter)
    # the deepest live copy has the least simplex: no copy passes xatol unless it does
    live, deepest = np.ones(copies, dtype=bool), copies - 1
    for it in range(1, maxiter):
        dx = np.abs(sim[1:] - sim[0]).max()
        if math.ldexp(dx, -deepest) <= xatol:  # scipy's fatol half only where xatol holds
            stop = live & (np.ldexp(dx, -j) <= xatol)
            stop &= np.ldexp(np.abs(fsim[0] - fsim[1:]).max(), -q * j) <= fatol
            if stop.any():
                S[stop] = np.ldexp(sim, -j[stop, None, None])
                F[stop], nit[stop] = np.ldexp(fsim, -q * j[stop, None]), it
                live &= ~stop
                if not live.any():
                    return S, F, nit
                deepest = int(j[live][-1])
        xbar = np.add.reduce(sim[:-1], 0) / N
        trial = TRIAL_A * xbar + TRIAL_B * sim[-1]
        ftrial = objective(trial)
        pick = _pick(*ftrial.tolist(), fsim.tolist())
        if pick is None:
            sim[1:] = sim[0] + SIGMA * (sim[1:] - sim[0])
            fsim[1:] = objective(sim[1:])
        else:
            sim[-1], fsim[-1] = trial[pick], ftrial[pick]
        ind = fsim.argsort()  # scipy's one-simplex sort: _sort's bits, cheaper at R = 1
        sim, fsim = sim.take(ind, 0), fsim.take(ind)
    S[live] = np.ldexp(sim, -j[live, None, None])  # the copies that reached maxiter
    F[live] = np.ldexp(fsim, -q * j[live, None])
    return S, F, nit


def _search_objective(f, z: ZSpec, k: int, seen: list, X, r_lo, r_hi, d_lo, d_hi):
    """The search's nu(df)/dist^(k-1) at each row of X with r_lo <= |x| <= r_hi and
    d_lo <= dist(x, Z) <= d_hi (bounds per row or for all), else inf, row by row;
    appends the rows, and df, nu(df) and dist^(k-1) where it took them, to ``seen``."""
    norm, d = row_norms(X), z.distance_many(X)
    keep = ((r_lo <= norm) & (norm <= r_hi) & (d_lo <= d) & (d <= d_hi)).nonzero()[0]
    every = len(keep) == len(X)  # then no gathers and no inf fill
    J = f.jacobian_many(X if every else X.take(keep, 0))
    dk = int_power(d if every else d.take(keep), k - 1)
    v = nu_many(J)
    seen.append((X, J, v, dk))
    if every:
        return v / dk
    out = np.full(len(X), np.inf)
    out[keep] = v / dk
    return out


def find_violation_sequence(f, z: ZSpec, k: int, seed: int):
    """Search for a sequence witnessing failure of the condition.

    Greedy per-annulus minimizer of the ratio, polished by Nelder-Mead,
    then thinned until distances halve and ratios decay at least like
    1/nu. Returns None when the ratios stay bounded below.

    Each annulus's polish is scipy's Nelder-Mead on that annulus alone. For f
    homogeneous of degree D over an AnalyticZ, annulus j's is the outermost's
    with x times 2^-j and the ratio times 2^(-j(D-k)) when its start and dist
    there are the outermost's times 2^-j, the outermost start has no zero
    coordinate and no trust region reaches DIST_FLOOR: one
    ``_dyadic_nelder_mead`` run serves all, unless a value it formed would
    leave [2^-450, 2^450] (0 aside) by the deepest annulus. Otherwise
    ``_nelder_mead`` polishes every annulus in lock-step, each objective call
    stacked over the unfinished annuli; the objective is row-independent.
    """
    radius, stats = _table(f, z, k, [0.5 ** j for j in range(1, SEARCH_DEPTH + 1)],
                           SEARCH_SAMPLES, seed)
    radius, minima, args, _, _, d_args = (np.array(c) for c in (radius, *zip(*stats)))
    _require_finite(k, radius, minima)
    # trust region: stay in the annulus and keep dist comparable,
    # otherwise descent just chases dist -> 0 at every scale
    r_lo, r_hi, d_lo, d_hi = 0.45 * radius, 1.05 * radius, 0.45 * d_args, 2.0 * d_args
    bounds = np.array([r_lo, r_hi, np.maximum(d_lo, DIST_FLOOR), d_hi])  # DIST_FLOOR: off Z
    seen = []  # each call's rows, and df, nu(df) and dist^(k-1) where it took them
    objective = partial(_search_objective, f, z, k, seen)
    j = np.arange(len(radius))
    one_run = (f.degree is not None and isinstance(z, AnalyticZ) and np.all(args[0] != 0)
               and np.array_equal(np.ldexp(args[0], -j[:, None]), args)
               and np.array_equal(np.ldexp(d_args[0], -j), d_args) and d_lo[-1] >= DIST_FLOOR)
    if one_run:  # with Python-float bounds, cheaper to compare with
        first = bounds[:, 0].tolist()
        S, F, _ = _dyadic_nelder_mead(lambda X: objective(X, *first), args[0], len(j), f.degree - k)
        X, J, v, dk = (np.concatenate(c) for c in zip(*seen))
        e = -int(j[-1])  # the deepest annulus's
        one_run = _df_scales(f, X, J, v, e) and _in_range(dk, e * (k - 1))
    if not one_run:
        S, F, _ = _nelder_mead(lambda X, which: objective(X, *bounds[:, which]), args)
    f_nm = F.min(axis=1)
    better = np.isfinite(f_nm) & (f_nm < minima)
    x = np.where(better[:, None], S[:, 0], args)
    rats, dists = np.where(better, f_nm, minima).tolist(), z.distance_many(x).tolist()
    if rats[-1] > 0.5 * rats[0]:
        return None  # ratios bounded below on the sampled range

    kept = [0]
    for i in range(1, len(rats)):
        if dists[i] < 0.5 * dists[kept[-1]] and rats[i] < rats[kept[-1]]:
            kept.append(i)
    # thin until the 1/nu decay invariant is met
    for stride in (1, 2, 3, 4):
        sel = kept[::stride]
        if len(sel) >= 3 and falls_like_inverse_nu([rats[i] for i in sel]):
            return ViolationSequence(points=tuple(map(tuple, x[sel].tolist())),
                                     ratios=tuple(rats[i] for i in sel),
                                     dists=tuple(dists[i] for i in sel))
    return None


@dataclass(frozen=True)
class CorollaryReport(Report):
    """Empirical constants for the Lipschitz-differential hypotheses."""

    C: float            # inf nu(df)/dist
    C1: float           # sup |f - f1| / nu(df)^2
    C2: float           # sup ||df - df1|| / nu(df)
    C2_per_annulus: tuple[float, ...]
    passes: bool        # C2 < 1/2
    diverges: bool      # C2 annulus suprema grow as radius shrinks
    skipped: int
    seed: int


def check_corollary_hypotheses(pair: GermPair, radii, samples_per_annulus: int,
                               seed: int) -> CorollaryReport:
    """Empirical C, C1, C2 for the three Lipschitz-differential hypotheses."""
    P = pair.P
    C, C1, c2_annuli, skipped = np.inf, 0.0, [], 0
    for _, X, d, v in _evaluations(pair.f, pair.z, radii, samples_per_annulus, seed):
        keep = ~(d < DIST_FLOOR) & ~(v < DIST_FLOOR)  # off Z and where nu(df) does not vanish
        X, d, v = X[keep], d[keep], v[keep]
        skipped += len(keep) - len(X)
        C = min(C, (v / d).min(initial=np.inf))
        C1 = max(C1, (row_norms(P.eval_many(X)) / int_power(v, 2)).max(initial=0.0))
        dP = norm2_many(P.jacobian_many(X))
        c2_annuli.append(float((dP / v).max(initial=0.0)))
    if C == np.inf:
        raise InvalidInputError("every sample fell into Z or where nu(df) vanishes")
    C2 = max(c2_annuli)
    grow = [b > 1.5 * a for a, b in zip(c2_annuli, c2_annuli[1:])]
    diverges = all(grow) and len(grow) >= 2 and c2_annuli[0] > 0
    return CorollaryReport(C=float(C), C1=float(C1), C2=float(C2),
                           C2_per_annulus=tuple(float(v) for v in c2_annuli),
                           passes=bool(C2 < 0.5), diverges=diverges,
                           skipped=skipped, seed=seed)
