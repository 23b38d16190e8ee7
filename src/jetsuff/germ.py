"""Polynomial mapping germs (R^n, 0) -> (R^m, 0) and the singular set Z.

Germs are lists of exact polynomials (see :mod:`jetsuff.poly`); Taylor
truncation and differentiation are symbolic, so jet comparisons can be made
exactly when coefficients are rational. The singular set is described by a
:class:`ZSpec` in one of three variants:

* ``analytic``  -- closed-form distance (coordinate subspaces and unions of
  coordinate hyperplanes);
* ``samples``   -- a point cloud, optionally refinable;
* ``implicit``  -- Z = {nu(df) = 0} located by local minimization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import optimize

from .errors import ConvergenceError, InvalidInputError
from .linmap import LinearMap, nu
from .poly import Poly

MEMBERSHIP_TOL = 1e-12


class PolyGermMap:
    """m polynomial components in n variables, vanishing at the origin."""

    def __init__(self, n: int, m: int, k: int, components: list[Poly]):
        if m > n:
            raise InvalidInputError(f"need m <= n, got m={m}, n={n}")
        if k <= 1:
            raise InvalidInputError("jet order k must exceed 1")
        if len(components) != m:
            raise InvalidInputError("component count != m")
        for p in components:
            if p.n != n:
                raise InvalidInputError("component variable count != n")
            if p.terms.get((0,) * n, 0) != 0:
                raise InvalidInputError("germ must vanish at the origin")
        self.n = n
        self.m = m
        self.k = k
        self.components = list(components)
        self._partials = [[p.deriv(i) for i in range(n)] for p in components]

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidInputError(f"point dimension {x.shape} != ({self.n},)")
        return np.array([p.eval(x) for p in self.components])

    def jacobian(self, x) -> LinearMap:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidInputError(f"point dimension {x.shape} != ({self.n},)")
        return LinearMap(np.array([[d.eval(x) for d in row] for row in self._partials]))

    def eval_many(self, X) -> np.ndarray:
        """Values at the rows of ``X`` (shape (N, n)), shape (N, m)."""
        X = self._points(X)
        return np.stack([p.eval_many(X) for p in self.components], axis=1)

    def jacobian_many(self, X) -> np.ndarray:
        """Jacobians at the rows of ``X`` (shape (N, n)), shape (N, m, n)."""
        X = self._points(X)
        J = np.array([[d.eval_many(X) for d in row] for row in self._partials])
        if not np.all(np.isfinite(J)):
            raise InvalidInputError("Jacobian entries must be finite")
        return np.moveaxis(J, -1, 0)

    def _points(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise InvalidInputError(f"points shape {X.shape} != (N, {self.n})")
        return X

    def hessian(self, i: int, x) -> np.ndarray:
        """Hessian of component ``i`` at ``x``."""
        x = np.asarray(x, dtype=float)
        row = self._partials[i]
        return np.array([[row[a].deriv(b).eval(x) for b in range(self.n)]
                         for a in range(self.n)])

    def __sub__(self, other: "PolyGermMap") -> "PolyGermMap":
        if (self.n, self.m) != (other.n, other.m):
            raise InvalidInputError("germ shapes differ")
        diff = [p - q for p, q in zip(self.components, other.components)]
        return PolyGermMap(self.n, self.m, self.k, diff)


@dataclass(frozen=True)
class JetPoly:
    """Degree-<=k Taylor data of a germ at a base point.

    ``components`` are polynomials in the shifted variable u = x - a.
    """

    base: tuple
    order: int
    components: tuple[Poly, ...]


def jet_at(f: PolyGermMap, a, k: int) -> JetPoly:
    """Exact k-jet of ``f`` at ``a``: shift, then truncate to degree k."""
    if k < 0:
        raise InvalidInputError("jet order must be nonnegative")
    a = tuple(a)
    comps = tuple(p.shifted(a).truncated(k) for p in f.components)
    return JetPoly(base=a, order=k, components=comps)


# --------------------------------------------------------------------- ZSpec

@dataclass(frozen=True)
class ZSpec:
    """Description of Z. Exactly one variant is populated.

    analytic forms (coords are 1-based):
      * ``subspace``: Z = {x_i = 0 for i in coords}; dist is the norm of the
        listed coordinates.  coords = all of 1..n gives Z = {0}.
      * ``union_hyperplanes``: Z = union of {x_i = 0}; dist = min_i |x_i|.
    """

    n: int
    variant: str
    form: str | None = None
    coords: tuple[int, ...] | None = None
    points: np.ndarray | None = field(default=None, repr=False)
    refine: object | None = field(default=None, repr=False)
    germ: object | None = field(default=None, repr=False)
    tol: float = 1e-8

    def __post_init__(self):
        if self.variant not in ("analytic", "samples", "implicit"):
            raise InvalidInputError(f"unknown variant {self.variant!r}")
        if self.variant == "analytic":
            if self.form not in ("subspace", "union_hyperplanes"):
                raise InvalidInputError(f"unknown analytic form {self.form!r}")
            if not self.coords or any(not 1 <= c <= self.n for c in self.coords):
                raise InvalidInputError("bad coordinate list")
            object.__setattr__(self, "coords", tuple(sorted(self.coords)))
        elif self.variant == "samples":
            pts = np.asarray(self.points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != self.n:
                raise InvalidInputError("sample cloud must be (N, n)")
            object.__setattr__(self, "points", pts)
            # 0 in Z is required; the cloud must witness it
            if float(np.min(np.linalg.norm(pts, axis=1))) > MEMBERSHIP_TOL:
                raise InvalidInputError("sample cloud must contain the origin")

    # ---------------------------------------------------------------- distance

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidInputError(f"point dimension {x.shape} != ({self.n},)")
        if self.variant == "analytic":
            if self.form == "subspace":
                sel = [c - 1 for c in self.coords]
                return float(np.linalg.norm(x[sel]))
            return float(np.min(np.abs(x)))
        if self.variant == "samples":
            d = float(np.min(np.linalg.norm(self.points - x[None, :], axis=1)))
            cloud = self.points
            level = 0
            while self.refine is not None and level < 12:
                level += 1
                cloud = np.asarray(self.refine(level), dtype=float)
                d_new = float(np.min(np.linalg.norm(cloud - x[None, :], axis=1)))
                if d - d_new <= 1e-3 * max(d_new, 1e-30):
                    return d_new
                d = d_new
            return d
        return self._implicit_distance(x)

    def _implicit_distance(self, x) -> float:
        germ = self.germ
        if germ is None:
            raise InvalidInputError("implicit variant needs a germ")

        def cost(y):
            return nu(germ.jacobian(y)) ** 2

        if cost(x) <= self.tol ** 2:
            return 0.0
        best = None
        rng = np.random.default_rng(0)
        for trial in range(8):
            start = x if trial == 0 else x * (1 + 0.3 * rng.standard_normal(self.n))
            res = optimize.minimize(cost, start, method="Powell",
                                    options={"xtol": 1e-12, "ftol": 1e-16,
                                             "maxiter": 4000})
            if res.fun <= self.tol ** 2:
                d = float(np.linalg.norm(res.x - x))
                best = d if best is None else min(best, d)
        if best is None:
            raise ConvergenceError(
                f"no zero of nu(df) found near {x.tolist()} (tol {self.tol})")
        return best

    def is_member(self, x) -> bool:
        if self.variant == "implicit":
            return nu(self.germ.jacobian(np.asarray(x, dtype=float))) <= self.tol
        return self.distance(x) <= MEMBERSHIP_TOL

    # ---------------------------------------------------------------- sampling

    def sample_points(self, count: int, seed: int, radius: float = 1.0) -> np.ndarray:
        """Deterministic sample of points on Z inside the ball of ``radius``."""
        rng = np.random.default_rng(seed)
        if self.variant == "analytic":
            pts = rng.uniform(-radius, radius, size=(count, self.n))
            pts *= radius / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), radius)
            if self.form == "subspace":
                for c in self.coords:
                    pts[:, c - 1] = 0.0
            else:
                which = rng.integers(0, self.n, size=count)
                pts[np.arange(count), which] = 0.0
            return pts
        if self.variant == "samples":
            inside = self.points[np.linalg.norm(self.points, axis=1) <= radius]
            if len(inside) == 0:
                raise InvalidInputError("no cloud points inside the requested ball")
            idx = rng.integers(0, len(inside), size=count)
            return inside[idx]
        out = []
        attempts = 0
        while len(out) < count and attempts < 20 * count:
            attempts += 1
            start = rng.uniform(-radius, radius, size=self.n)
            res = optimize.minimize(
                lambda y: nu(self.germ.jacobian(y)) ** 2, start,
                method="Powell", options={"xtol": 1e-12, "maxiter": 4000})
            if res.fun <= self.tol ** 2 and np.linalg.norm(res.x) <= radius:
                out.append(res.x)
        if len(out) < count:
            raise ConvergenceError("could not sample enough implicit Z points")
        return np.array(out)


@dataclass(frozen=True)
class GermPair:
    """Two realizations f, f1 of one jet over the same Z; P = f1 - f."""

    f: PolyGermMap
    f1: PolyGermMap
    z: ZSpec

    def __post_init__(self):
        if (self.f.n, self.f.m, self.f.k) != (self.f1.n, self.f1.m, self.f1.k):
            raise InvalidInputError("paired germs must share (n, m, k)")
        if self.z.n != self.f.n:
            raise InvalidInputError("ZSpec dimension mismatch")

    @property
    def P(self) -> PolyGermMap:
        return self.f1 - self.f


def same_k_Z_jet(pair: GermPair, validation_points=None, seed: int = 0,
                 auto_count: int = 32, radius: float = 1.0,
                 tol: float = 1e-12) -> tuple[bool, float]:
    """Check that f and f1 have equal k-jets at points of Z.

    Caller-provided points are validated for Z membership; an automatic
    deterministic sample of Z points in the ball of ``radius`` is always
    added. Returns (verdict, worst coefficient residual).
    """
    pts = []
    for a in (validation_points or []):
        a = np.asarray(a, dtype=float)
        if not pair.z.is_member(a):
            raise InvalidInputError(f"validation point {a.tolist()} is not on Z")
        pts.append(a)
    pts.extend(pair.z.sample_points(auto_count, seed, radius))
    k = pair.f.k
    worst = 0.0
    for a in pts:
        jf = jet_at(pair.f, a, k)
        jg = jet_at(pair.f1, a, k)
        for p, q in zip(jf.components, jg.components):
            d = p - q
            for c in d.terms.values():
                worst = max(worst, abs(float(c)))
    return worst <= tol, worst


# --------------------------------------------------------------------- JSON io

def _coeff_to_json(c):
    if isinstance(c, Fraction):
        return str(c)
    return float(c)


def germ_to_json(f: PolyGermMap, z: ZSpec | None = None) -> dict:
    doc = {
        "n": f.n,
        "m": f.m,
        "k": f.k,
        "components": [
            [{"exponents": list(e), "coeff": _coeff_to_json(c)}
             for e, c in sorted(p.terms.items())]
            for p in f.components
        ],
    }
    if z is not None:
        doc["z"] = zspec_to_json(z)
    return doc


def zspec_to_json(z: ZSpec) -> dict:
    if z.variant == "analytic":
        return {"variant": "analytic", "form": z.form, "coords": list(z.coords)}
    if z.variant == "samples":
        return {"variant": "samples", "points": z.points.tolist()}
    return {"variant": "implicit", "tol": z.tol}


def zspec_from_json(doc: dict, n: int, germ: PolyGermMap | None = None) -> ZSpec:
    variant = doc.get("variant")
    if variant == "analytic":
        return ZSpec(n=n, variant="analytic", form=doc["form"],
                     coords=tuple(doc["coords"]))
    if variant == "samples":
        return ZSpec(n=n, variant="samples", points=np.asarray(doc["points"]))
    if variant == "implicit":
        return ZSpec(n=n, variant="implicit", germ=germ,
                     tol=float(doc.get("tol", 1e-8)))
    raise InvalidInputError(f"unknown ZSpec variant {variant!r}")


def germ_from_json(doc: dict) -> tuple[PolyGermMap, ZSpec | None]:
    try:
        n, m, k = int(doc["n"]), int(doc["m"]), int(doc["k"])
        comps = []
        for terms in doc["components"]:
            poly_terms = {}
            for t in terms:
                e = tuple(int(v) for v in t["exponents"])
                c = t["coeff"]
                poly_terms[e] = Fraction(c) if isinstance(c, str) else float(c)
            comps.append(Poly(n, poly_terms))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed germ document: {exc}") from exc
    f = PolyGermMap(n, m, k, comps)
    z = zspec_from_json(doc["z"], n, germ=f) if "z" in doc else None
    return f, z


def load_germ(path) -> tuple[PolyGermMap, ZSpec | None]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    return germ_from_json(doc)


def save_germ(path, f: PolyGermMap, z: ZSpec | None = None):
    with open(path, "w") as fh:
        json.dump(germ_to_json(f, z), fh, indent=2, sort_keys=True)
        fh.write("\n")
