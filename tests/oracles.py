"""Independent reference computations used by several test modules.

The sphere-sampling minimizer below deliberately avoids any matrix
decomposition: it estimates inf |A^T phi| over unit phi by brute force on a
quasi-uniform sample, with a derivative-free polish in spherical angles for
m = 3. ``calibrate_constants_scalar`` is the point-by-point calibration
that the stacked ``trivializer.calibrate_constants`` replaced.
``minor_table_reference`` is the minor table whose m = 2 numerators were
gathered block by block. ``W_reference``, ``flow_reference`` and
``isotopy_reference`` are the one-point field, the one-trajectory
``solve_ivp`` flow and the point-by-point isotopy loop that
``VectorFieldW.eval_many`` and the lock-step ``trivializer.flow_many``
replaced; ``write_isotopy_csv_reference`` is the
numpy-scalar CSV writer that ``IsotopyResult.write_csv`` replaced.
``BumpReference``, ``PerturbationReference``, ``hessian_reference``,
``choose_lambdas_reference`` and ``verify_construction_reference`` are the
one-point negative side, and
``find_violation_sequence_reference`` is the violation search whose ratio
went through a ``LinearMap`` and ``nu`` at every Nelder-Mead evaluation, and
``search_objective_reference`` the stacked search objective before its one
lower dist bound, which tested DIST_FLOOR apart and gathered on every call.
``gaussian_directions_reference`` is the Gaussian map through scipy's
``ndtri``, which the standard library's AS241 quantile replaced; it is met
within a stated ulp bound rather than bit for bit. So is
``norm_distance_reference`` beyond n = 7: the least of numpy's norms over a
sampled cloud, which the root of the least left-to-right sum of squares
replaced (up to n = 7 they have the same bits). ``int_power_reference`` is
``int_power``'s product started from ones. ``poly_eval_reference`` is
the pow formula that ``PolyStack``'s repeated squares replaced;
``pow_formula_gap`` meets it within the two formulas' rounding bounds.
``directions_reference`` takes the Sobol direction numbers from the whole
table, loaded by ``np.load``, which reading only the columns in use
replaced. ``jet_reference`` is Taylor's formula in place of ``Poly.jet``'s
binomial expansion: the coefficients d^beta p(a) / beta! from
``Poly.deriv``, taken in Fraction arithmetic, so the two must agree exactly.
``table_reference`` is the annulus table that evaluated every annulus,
which scaling a homogeneous germ's outermost annulus replaced.
``same_k_Z_jet_reference`` is the sampled jet check that
``ZSpec.jet_witness`` replaced: it shifts f and f1 to ``sample_points`` of
Z and calls their jets equal when every float coefficient of the
difference is within JET_TOL. The one-point oracles take polynomial values by
``poly_eval_pointwise``, PolyStack's rule in Python floats, and integer
powers by ``int_power``, so they still match the stacked code bit for bit.

The ``*_reference`` functions are the one-point formulas that jetsuff used
before every quantity got one stacked implementation (polynomial values,
Jacobians, nu, dist(x, Z)), and the per-point loops built on them. The
stacked code must reproduce them bit for bit.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import optimize
from scipy.integrate import solve_ivp
from scipy.optimize import minimize
from scipy.special import ndtri

from jetsuff.bl_construct import (GAP_REL, MAX_RETRIES, RHO_IN, RHO_OUT,
                                  SAMPLES_PER_BALL, ConstructionReport)
from jetsuff.errors import (CalibrationError, ConstructionError, ConvergenceError,
                            CoveringViolationError, DomainExitError, FieldBoundError,
                            InvalidInputError, MinorIdentityError)
from jetsuff.germ import SampledZ, int_power, jet_at
from jetsuff.linmap import LinearMap, g_prime, nu, nu_many, row_norms
from jetsuff.lojasiewicz import (DIST_FLOOR, SEARCH_DEPTH, SEARCH_SAMPLES,
                                 ViolationSequence, _ratio_stats)
from jetsuff.poly import Poly
from jetsuff.report import write_table
from jetsuff.sampling import (_MSB_FIRST, SOBOL_BITS, SOBOL_TABLE, ball_sample, sphere_sample,
                              unit_shell_sample)
from jetsuff.trivializer import (FIELD_BOUND_SLACK, LINSYS_TOL, DeformationF,
                                 IsotopyResult, TrivializationConstants)


def same_bits(a, b) -> bool:
    """Equal shapes and values, with equal sign bits (so +0.0 != -0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def directions_reference(d: int) -> np.ndarray:
    """The unscrambled direction numbers of dimensions 0..d-1, (d, bits),
    from the whole table."""
    with np.load(SOBOL_TABLE) as table:
        poly, vinit = table["poly"][:d].tolist(), table["vinit"][:d].tolist()
    v = [[1] * SOBOL_BITS for _ in range(d)]
    for j in range(1, d):
        p, deg = poly[j], poly[j].bit_length() - 1
        v[j][:deg] = vinit[j][:deg]
        for i in range(deg, SOBOL_BITS):  # Bratley and Fox's recurrence
            v[j][i] = v[j][i - deg]
            for s in range(deg):
                if p >> (deg - 1 - s) & 1:
                    v[j][i] ^= v[j][i - s - 1] << (s + 1)
    return np.array(v, dtype=np.int64) << _MSB_FIRST


def gaussian_directions_reference(u: np.ndarray) -> np.ndarray:
    """Unit rows from Sobol coordinates through scipy's ``ndtri``."""
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


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
            if (np.linalg.norm(F.P.eval(x)) > C / 3 * int_power(d, k) or
                    np.linalg.norm(F.P.jacobian(x).entries, ord=2) > C / 3 * int_power(d, k - 1)):
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
            C_prime = min(C_prime, g_prime(d_x) / int_power(d, k - 1))
    if not np.isfinite(C_prime) or C_prime <= 0:
        raise CalibrationError("minor ratio lower bound vanished on the sample")
    m, n = pair.f.m, pair.f.n
    C_dprime = 2 * m * C * np.sqrt(n) / (3 * C_prime)
    return TrivializationConstants(
        C=float(C), C_prime=float(C_prime), C_dprime=float(C_dprime),
        U_radius=float(radius), r0=float(radius * np.exp(-C_dprime)))


def int_power_reference(x, p: int) -> np.ndarray:
    """x^p as the left-to-right product, from ones, of the squares the bits of p select."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    while p:
        out, p = out * x if p & 1 else out, p >> 1
        x = x * x if p else x
    return out


def poly_eval_reference(p, x) -> float:
    """p(x) by the pow formula PolyStack used before repeated squares: a
    power table ``x ** E`` of p's own terms and one ``@``."""
    x = np.asarray(x, dtype=float)
    if not p.terms:
        return 0.0
    exps = np.array(list(p.terms), dtype=np.int64)
    coeffs = np.array([float(c) for c in p.terms.values()])
    return float(np.prod(x[None, :] ** exps, axis=1) @ coeffs)


def poly_eval_pointwise(p, x) -> float:
    """p(x) by PolyStack's rule in Python floats: each term the left-to-right
    product of the repeated squares its exponent bits select (variable by
    variable, lowest bit first) times its coefficient, summed from +0.0 in
    term order."""
    total = 0.0
    for e, c in p.terms.items():
        term = 1.0
        for v, k in zip(np.asarray(x, dtype=float).tolist(), e):
            while k:
                if k & 1:
                    term *= v
                k >>= 1
                v *= v
        total += term * float(c)
    return total


def jet_reference(p, a, k: int):
    """The terms of degree <= k of p(a + u) by Taylor's formula: u^beta has
    the coefficient d^beta p(a) / beta!, each derivative by ``Poly.deriv`` of
    p with exact Fraction coefficients and evaluated at a in Fraction."""
    a = [Fraction(v) for v in a]
    d = {(0,) * p.n: Poly(p.n, {e: Fraction(c) for e, c in p.terms.items()})}
    for beta in sorted(itertools.product(range(k + 1), repeat=p.n), key=sum):
        if 0 < sum(beta) <= k:  # one derivative of a beta one lower
            i = next(i for i, b in enumerate(beta) if b)
            d[beta] = d[beta[:i] + (beta[i] - 1,) + beta[i + 1:]].deriv(i)
    return Poly(p.n, {beta: sum((c * math.prod(v ** e for v, e in zip(a, ex))
                                 for ex, c in q.terms.items()), Fraction(0))
                      / math.prod(math.factorial(b) for b in beta)
                      for beta, q in d.items()})


def gamma(j: int) -> float:
    """Higham's gamma_j = j u / (1 - j u), u = 2^-53."""
    u = 2.0 ** -53
    return j * u / (1 - j * u)


def term_magnitude(p, x) -> float:
    """sum_t |c_t m_t(x)|, in exact arithmetic rounded once."""
    x = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    return float(sum(abs(Fraction(float(c)) * math.prod(v ** k for v, k in zip(x, e)))
                     for e, c in p.terms.items()))


def pow_formula_gap(p, x, got: float) -> bool:
    """Whether PolyStack's ``got`` lies within both formulas' error bounds of
    ``poly_eval_reference``: gamma_(M+T) for repeated squares (M the largest
    total degree, T the term count) plus gamma_(3n+T) for the pow formula
    (n pows within 1 ulp each, n - 1 products, the coefficient, the sum),
    times sum_t |c_t m_t(x)|. Gradual underflow adds an absolute error of at
    most one subnormal ulp, 2^-1074, per product or pow (at most M + 3n per
    term), which the later factors scale by at most |c_t| prod max(1, |x_i|)^e_i:
    a relative bound alone fails where a term's value is subnormal."""
    M = max((sum(e) for e in p.terms), default=0)
    T, n = len(p.terms), len(x)
    bound = (gamma(M + T) + gamma(3 * n + T)) * term_magnitude(p, x)
    scale = sum(abs(float(c)) * math.prod(max(1.0, abs(float(v))) ** k for v, k in zip(x, e))
                for e, c in p.terms.items())
    bound += (M + 3 * n) * 2.0 ** -1074 * scale
    return abs(got - poly_eval_reference(p, x)) <= bound


def eval_reference(f, x) -> np.ndarray:
    return np.array([poly_eval_pointwise(p, x) for p in f.components])


def jacobian_reference(f, x) -> np.ndarray:
    return np.array([[poly_eval_pointwise(d, x) for d in row] for row in f._partials])


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
    """dist(x, Z) for an AnalyticZ or SampledZ, one point at a time; for a
    SampledZ, the root of the least left-to-right sum of squares over the cloud."""
    x = np.asarray(x, dtype=float)
    if isinstance(z, SampledZ):
        sums = np.zeros(len(z.points))
        for col in (z.points - x[None, :]).T:
            sums = sums + col * col
        return float(np.sqrt(np.min(sums)))
    sel = [c - 1 for c in z.coords]
    if z.form == "subspace":
        return float(np.linalg.norm(x[sel]))
    return float(np.min(np.abs(x[sel])))


def norm_distance_reference(z, x) -> float:
    """The least of numpy's norms over a SampledZ's cloud: the bits of
    distance_reference up to n = 7, where numpy's row sum adds left to right,
    and within (n + 1) 2^-53 relative of it beyond."""
    return float(np.min(np.linalg.norm(z.points - np.asarray(x, dtype=float), axis=1)))


JET_SAMPLES, JET_TOL = 32, 1e-12  # same_k_Z_jet_reference: Z points drawn, coefficient budget


def sample_points(z, count: int, seed: int, radius: float = 1.0) -> np.ndarray:
    """Deterministic sample of points on an AnalyticZ, or of cloud points of
    a SampledZ, inside the ball of ``radius``."""
    rng = np.random.default_rng(seed)
    if isinstance(z, SampledZ):
        inside = z.points[np.linalg.norm(z.points, axis=1) <= radius]
        if len(inside) == 0:
            raise InvalidInputError("no cloud points inside the requested ball")
        return inside[rng.integers(0, len(inside), size=count)]
    pts = rng.uniform(-radius, radius, size=(count, z.n))
    pts *= radius / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), radius)
    if z.form == "subspace":
        pts[:, z._cols] = 0.0
    else:
        which = z._cols[rng.integers(0, len(z._cols), size=count)]
        pts[np.arange(count), which] = 0.0
    return pts


def same_k_Z_jet_reference(pair, seed: int = 0) -> tuple[bool, float]:
    """Check that f and f1 have equal k-jets at a deterministic sample of
    JET_SAMPLES points of Z in the unit ball. Returns (verdict, worst
    coefficient residual), the verdict being worst <= JET_TOL.
    """
    k = pair.f.k
    worst = 0.0
    for a in sample_points(pair.z, JET_SAMPLES, seed):
        for p, q in zip(jet_at(pair.f, a, k), jet_at(pair.f1, a, k)):
            d = p - q
            for c in d.terms.values():
                worst = max(worst, abs(float(c)))
    return worst <= JET_TOL, worst


def axis_cloud() -> np.ndarray:
    """The survey workload's Z cloud, as ``perfbench/workloads.py`` builds it:
    the origin and 16 points per octave on each half of the x2 axis, from 1
    down to 2^-40."""
    base = 2.0 ** (-np.arange(16) / 16)
    mags = np.concatenate([base * 2.0 ** -o for o in range(41)])
    return np.array([(0.0, 0.0)] + [(0.0, s * v) for v in mags for s in (1.0, -1.0)])


def ratio_stats_reference(f, z, k, X):
    """(min ratio, argmin, min nu, skipped, dist at the argmin) over the rows
    of X, point by point."""
    best, arg, d_arg, nu_min, skipped = np.inf, None, None, np.inf, 0
    for x in X:
        d = distance_reference(z, x)
        if d < DIST_FLOOR:
            skipped += 1
            continue
        v = nu_reference(jacobian_reference(f, x))
        nu_min = min(nu_min, v)
        r = v / int_power(d, k - 1)
        if r < best:
            best, arg, d_arg = r, x, d
    if arg is None:
        return None
    return best, arg, nu_min, skipped, d_arg


def table_reference(f, z, k, radii, samples_per_annulus, seed):
    """``lojasiewicz._table`` with each annulus evaluated on its own: the rows
    of its shell at least DIST_FLOOR from Z and nu(df) on those rows give the
    radii and, per annulus, (min ratio, argmin, min nu, skipped, dist at the
    argmin); an annulus with no row off Z raises."""
    shell = unit_shell_sample(f.n, samples_per_annulus, seed)
    radii, stats = [float(r) for r in radii], []
    for r in radii:
        X = r * shell
        d = z.distance_many(X)
        far = ~(d < DIST_FLOOR)
        X, d = X[far], d[far]
        if not len(X):
            raise InvalidInputError(f"all samples at radius {r} fell into Z")
        v = nu_many(f.jacobian_many(X))
        with np.errstate(all="ignore"):
            ratio = v / int_power(d, k - 1)
        i = int(np.argmin(ratio))
        stats.append((float(ratio[i]), X[i], float(v.min()), len(far) - len(X), d[i]))
    return radii, stats


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
            C1 = max(C1, float(np.linalg.norm(eval_reference(P, x)) / int_power(v, 2)))
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


def _smoothstep_reference(s: float) -> float:
    """C^2 ramp: 0 for s <= 1/2 (and nan), 1 for s >= 1, quintic in between."""
    if not s > 0.5:
        return 0.0
    if s >= 1.0:
        return 1.0
    u = 2.0 * (s - 0.5)
    return int_power(u, 3) * (10.0 - 15.0 * u + 6.0 * int_power(u, 2))


def minor_table_reference(a: np.ndarray):
    """``linmap.minor_table`` before its m = 2 numerators became one gather
    of the entries: the index plan built here, M from the column sets moved
    into place, and every (m-1)-subminor block gathered by fancy indexing."""
    *batch, m, n = a.shape
    sets = list(itertools.combinations(range(n), m))
    subsets = list(itertools.combinations(range(n), m - 1))
    where = {J: s for s, J in enumerate(subsets)}
    drop = np.array([[where[I[:l] + I[l + 1:]] for l in range(m)] for I in sets])
    rows = np.array([[r for r in range(m) if r != j] for j in range(m)], dtype=int)
    sign = (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    cols, subsets = np.array(sets), np.array(subsets, dtype=int)
    if m == 1:
        return cols, a[..., 0, :], np.ones((*batch, n)), np.ones((*batch, n, 1, 1))
    M = np.linalg.det(np.moveaxis(a[..., cols], -3, -2))
    # (..., j, J, m-1, m-1): a without row j, restricted to the columns of J
    blocks = a[..., rows[:, None, :, None], subsets[None, :, None, :]]
    sub = blocks[..., 0, 0] if m == 2 else np.linalg.det(blocks)
    num = sign * np.moveaxis(sub[..., drop], -3, -1)
    return cols, M, np.abs(num).max(axis=(-2, -1)), num


def W_reference(vf, xi: float, x) -> np.ndarray:
    """W(xi, x) of ``vf`` at one point: Cramer sums and the blend as Python
    sums, checks in the order finite entries, active minor, residual, bound."""
    F = vf.F
    x = np.asarray(x, dtype=float)
    d = vf.z.distance(x)
    if d <= 1e-14:
        return np.zeros(F.n)
    v = F._stack.eval_many(x[None, :])[0]
    Jf, JP = v[F.m:].reshape(2, F.m, F.n)
    A = Jf + xi * JP
    if not np.all(np.isfinite(A)):
        raise ConvergenceError("entries must be finite")
    negP = -v[:F.m]
    thresh = vf.constants.C_prime * int_power(d, F.k - 1)
    cols, M_I, h_I, num = minor_table_reference(A)
    b = negP.tolist()
    active = []  # (weight, field) per column set whose minor dominates
    for I, M, h, rows in zip(cols.tolist(), M_I.tolist(), h_I.tolist(), num.tolist()):
        w = _smoothstep_reference(abs(M) / max(h, 1e-300) / thresh)
        if w > 0.0:
            # Cramer's rule on I: w_l = sum_j num[l, j] (-P)_j / M_I
            f = np.zeros(F.n)
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
        raise ConvergenceError(
            f"linear system residual {resid:.3e} out of budget at x={x.tolist()}")
    bound = vf.constants.C_dprime * d * (1.0 + FIELD_BOUND_SLACK)
    if np.linalg.norm(W) > bound:
        raise FieldBoundError(
            f"field bound violated at x={x.tolist()}: |W|={np.linalg.norm(W):.3e} "
            f"> C'' dist = {bound:.3e}")
    return W


def flow_reference(vf, x0, t_span=(0.0, 1.0), tol: float = 1e-9,
                   checkpoints: int = 17, rhs=None):
    """(states (T, n), nfev) of y' = W(t, y) from (t_span[0], x0) by one
    ``solve_ivp`` call; ``rhs`` replaces ``W_reference`` as the field."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    times = np.linspace(t_span[0], t_span[1], checkpoints)
    if vf.z.distance(x0) <= 1e-14:
        return np.tile(x0, (checkpoints, 1)), 0
    r1 = vf.constants.U_radius
    max_step = min(0.5, 0.1 / vf.constants.C_dprime) if vf.constants.C_dprime > 0 else 0.5
    if rhs is None:
        def rhs(t, y):
            return W_reference(vf, t, y)
    sol = solve_ivp(rhs, t_span, x0, method="RK45", rtol=tol, atol=tol,
                    max_step=max_step, t_eval=times, dense_output=False)
    if not sol.success:
        raise DomainExitError(f"integration failed: {sol.message}")
    states = sol.y.T
    if np.any(np.linalg.norm(states, axis=1) > r1 * (1 + 1e-9)):
        raise DomainExitError("trajectory left the calibrated ball")
    return states, sol.nfev


def backward_flow_reference(vf, y, t: float, tol: float = 1e-9, rhs=None) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if vf.z.distance(y) <= 1e-14 or t == 0.0:
        return y.copy()
    return flow_reference(vf, y, t_span=(t, 0.0), tol=tol, checkpoints=2, rhs=rhs)[0][-1]


def isotopy_reference(vf, grid, tol: float = 1e-9, checkpoints: int = 17,
                      rhs=None) -> IsotopyResult:
    """Forward flows on the grid plus inverse and conservation residuals,
    one grid point, then one checkpoint, at a time."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    N = grid.shape[0]
    times = np.linspace(0.0, 1.0, checkpoints)
    forward = np.zeros((N, checkpoints, vf.F.n))
    conservation = np.zeros((N, checkpoints))
    inverse_res = np.zeros((N, checkpoints))
    nfev = 0
    for p in range(N):
        x0 = grid[p]
        states, traj_nfev = flow_reference(vf, x0, tol=tol, checkpoints=checkpoints,
                                           rhs=rhs)
        nfev += traj_nfev
        forward[p] = states
        fx = vf.F.f.eval(x0)
        for j, t in enumerate(times):
            y = states[j]
            conservation[p, j] = np.linalg.norm(vf.F.f.eval(y) + t * vf.F.P.eval(y) - fx)
            inverse_res[p, j] = np.linalg.norm(
                backward_flow_reference(vf, y, t, tol=tol, rhs=rhs) - x0)
    return IsotopyResult(grid=grid, times=times, forward=forward,
                         conservation=conservation, inverse_residuals=inverse_res,
                         constants=vf.constants, nfev_total=nfev)


def write_isotopy_csv_reference(result, path):
    """``IsotopyResult.write_csv`` taking each value through ``repr(float(v))``
    on a numpy scalar."""
    n = result.grid.shape[1]
    write_table(path, ["point", "t"] + [f"x0_{i}" for i in range(n)]
                + [f"H_{i}" for i in range(n)] + ["conservation_residual"],
                ([p, repr(float(t))] + [repr(float(v)) for v in result.grid[p]]
                 + [repr(float(v)) for v in result.forward[p, j]]
                 + [repr(float(result.conservation[p, j]))]
                 for p in range(result.grid.shape[0])
                 for j, t in enumerate(result.times)))


# ----------------------------------------------------------------- negative side
# The one-point bump, the ball-by-ball perturbation, the per-entry germ
# Hessian and the per-point lambda and verification loops that
# ``bump_many``, ``PerturbationF.many``, ``PolyGermMap.hessian_many``
# and the stacked ``choose_lambdas``/``verify_construction`` replaced.

def hessian_reference(f, i: int, x) -> np.ndarray:
    """Hessian of component ``i`` at ``x``."""
    x = np.asarray(x, dtype=float)
    row = f._partials[i]
    return np.array([[row[a].deriv(b).eval(x) for b in range(f.n)]
                     for a in range(f.n)])


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


class BumpReference:
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
        return d2a * outer / int_power(s, 2) + da * (np.eye(n) / s - outer / int_power(s, 3))


BUMP_REFERENCE = BumpReference()


def choose_lambdas_reference(f, a_list, z) -> list[float]:
    """lambda_v = dist(a_v, Z)^(k-1), nudged off Hessian eigenvalues."""
    out = []
    for a in a_list:
        a = np.asarray(a, dtype=float)
        d = z.distance(a)
        if d <= 0.0:
            raise InvalidInputError(f"sequence point {a.tolist()} lies on Z")
        lam = d ** (f.k - 1)
        eigs = np.linalg.eigvalsh(hessian_reference(f, 0, a))
        for _ in range(MAX_RETRIES):
            if np.min(np.abs(eigs - lam)) > GAP_REL * lam:
                break
            lam *= 1.001
        else:
            raise ConstructionError(
                f"could not avoid Hessian eigenvalue near {lam} at {a.tolist()}")
        out.append(float(lam))
    return out


class PerturbationReference:
    """The assembled perturbation: bump-localized quadratics in balls B_v."""

    def __init__(self, f, centers: np.ndarray, dists: np.ndarray,
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
        return BUMP_REFERENCE.value(s) * quad

    def gradient(self, x) -> np.ndarray:
        local = self._local(x)
        if local is None:
            return np.zeros(self.n)
        s, d, _, quad, dquad = local
        return BUMP_REFERENCE.gradient(s) / d * quad + BUMP_REFERENCE.value(s) * dquad

    def hessian(self, x) -> np.ndarray:
        local = self._local(x)
        if local is None:
            return np.zeros((self.n, self.n))
        s, d, lam, quad, dquad = local
        a = BUMP_REFERENCE.value(s)
        da = BUMP_REFERENCE.gradient(s) / d
        d2a = BUMP_REFERENCE.hessian(s) / int_power(d, 2)
        return d2a * quad + np.outer(da, dquad) + np.outer(dquad, da) + a * lam * np.eye(self.n)


def verify_construction_reference(pf, z, seed: int = 0) -> ConstructionReport:
    """Per-center identities of f - F, Morse nondegeneracy and decay, one
    center and one decay sample at a time."""
    f, k = pf.f, pf.f.k
    failures = []
    vals, grads, dets, decay = [], [], [], []
    offsets = ball_sample(pf.n, SAMPLES_PER_BALL, seed, radius=RHO_OUT)
    f_vals = f.eval_many(pf.centers)[:, 0]
    f_grads = f.jacobian_many(pf.centers)[:, 0, :]
    for i, (a, d, lam) in enumerate(zip(pf.centers, pf.dists, pf.lambdas)):
        rv = abs(float(f_vals[i] - pf.value(a)))
        rg = float(np.linalg.norm(f_grads[i] - pf.gradient(a)))
        H = hessian_reference(f, 0, a) - pf.hessian(a)
        det = float(np.linalg.det(H))
        gap = float(np.abs(np.linalg.eigvalsh(H)).min())
        vals.append(rv)
        grads.append(rg)
        dets.append(det)
        if rv > 1e-12:
            failures.append(f"value residual {rv:.3e} at center {i}")
        if rg > 1e-10:
            failures.append(f"gradient residual {rg:.3e} at center {i}")
        if not gap > GAP_REL / 2 * lam:
            failures.append(f"degenerate Hessian at center {i} (least |eigenvalue| {gap:.3e})")
        X = a + d * offsets
        dz = z.distance_many(X)
        X, dz = X[dz > 0.0], dz[dz > 0.0]
        F = np.array([abs(pf.value(x)) for x in X])
        decay.append(float((F / int_power(dz, k)).max(initial=0.0)))
    for i, v in enumerate(decay):  # a witness's decay falls at least like 1/nu
        if not v <= decay[0] / (i + 1) + 1e-15:
            failures.append(f"decay slower than 1/nu at ball {i}: {v:.3e} > {decay[0]:.3e}/{i + 1}")
            break
    return ConstructionReport(
        value_residuals=tuple(vals), gradient_residuals=tuple(grads),
        hessian_dets=tuple(dets), decay=tuple(decay),
        ok=not failures, failures=tuple(failures))


# ----------------------------------------------------------------- violation search

def find_violation_sequence_reference(f, z, k: int, seed: int):
    """Search for a sequence witnessing failure of the condition.

    Greedy per-annulus minimizer of the ratio, polished by Nelder-Mead,
    then thinned until distances halve and ratios decay at least like
    1/nu. Returns None when the ratios stay bounded below.
    """
    shell = unit_shell_sample(f.n, SEARCH_SAMPLES, seed)

    def ratio(x, d):
        if d < DIST_FLOOR:
            return np.inf
        return nu(f.jacobian(x)) / int_power(d, k - 1)

    cands = []
    for j in range(SEARCH_DEPTH):
        r = 0.5 ** (j + 1)
        stats = _ratio_stats(f, z, k, r * shell, z.distance_many(r * shell),
                             nu_many(f.jacobian_many(r * shell)))
        if stats is None:
            continue
        arg = stats[1]
        d_arg = z.distance(arg)

        def objective(x, r=r, d_arg=d_arg):
            # trust region: stay in the annulus and keep dist comparable,
            # otherwise descent just chases dist -> 0 at every scale
            if not 0.45 * r <= np.linalg.norm(x) <= 1.05 * r:
                return np.inf
            d = z.distance(x)
            if not 0.45 * d_arg <= d <= 2.0 * d_arg:
                return np.inf
            return ratio(x, d)

        res = optimize.minimize(
            objective, arg, method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-12, "fatol": 1e-14})
        x_best = res.x if np.isfinite(res.fun) and res.fun < ratio(arg, d_arg) else arg
        d_best = z.distance(x_best)
        cands.append((np.asarray(x_best, dtype=float), ratio(x_best, d_best), d_best))
    if not cands:
        return None
    if cands[-1][1] > 0.5 * cands[0][1]:
        return None  # ratios bounded below on the sampled range

    pts, rats, dists = [cands[0][0]], [cands[0][1]], [cands[0][2]]
    for x, r_val, d in cands[1:]:
        if d < 0.5 * dists[-1] and r_val < rats[-1]:
            pts.append(x)
            rats.append(r_val)
            dists.append(d)
    # thin until the 1/nu decay invariant is met
    for stride in (1, 2, 3, 4):
        sel = list(range(0, len(pts), stride))
        rr = [rats[i] for i in sel]
        if all(rr[i] <= rr[0] / (i + 1) + 1e-15 for i in range(len(rr))) and len(rr) >= 3:
            return ViolationSequence(
                points=tuple(tuple(float(v) for v in pts[i]) for i in sel),
                ratios=tuple(float(rats[i]) for i in sel),
                dists=tuple(float(dists[i]) for i in sel))
    return None


def search_objective_reference(f, z, k: int, radius, d_args, floor: float, seen: list):
    """The search objective ``objective(X, which)`` as the lock-step and the
    one run (``which`` = 0) called it, with ``floor`` as DIST_FLOOR: the
    trust region from the annulus radii and argmin dists, a separate
    DIST_FLOOR test, and gathers and an inf fill on every call."""
    r_lo, r_hi, d_lo, d_hi = 0.45 * radius, 1.05 * radius, 0.45 * d_args, 2.0 * d_args

    def objective(X, which):
        norm, d = row_norms(X), z.distance_many(X)
        keep = ((r_lo[which] <= norm) & (norm <= r_hi[which]) & (d_lo[which] <= d)
                & (d <= d_hi[which]) & ~(d < floor))
        out = np.full(len(X), np.inf)
        J, dk = f.jacobian_many(X[keep]), int_power(d[keep], k - 1)
        v = nu_many(J)
        out[keep] = v / dk
        seen.append((X, J, v, dk))
        return out
    return objective
