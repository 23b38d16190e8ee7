"""Polynomial mapping germs (R^n, 0) -> (R^m, 0) and the singular set Z.

Germs are lists of exact polynomials (see :mod:`jetsuff.poly`); Taylor
truncation and differentiation are symbolic, so jets are compared exactly.
The singular set is a :class:`ZSpec`, one of two classes (JSON ``variant``
in brackets), each with its own distance and jet-along-Z rule:

* :class:`AnalyticZ` (``analytic``) -- coordinate subspaces and unions of
  coordinate hyperplanes, in closed form;
* :class:`SampledZ` (``samples``) -- a point cloud; a k-d tree picks each
  point's few nearest candidates, and their numpy norms give the distance,
  the same bits as a scan over the whole cloud.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError
from .linmap import LinearMap, row_norms
from .poly import Poly, PolyStack

MEMBERSHIP_TOL = 1e-12


def _point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise InvalidInputError(f"point dimension {x.shape} != ({n},)")
    return x


def _rows(X, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise InvalidInputError(f"points shape {X.shape} != (N, {n})")
    return X


class PolyGermMap:
    """m polynomial components in n variables, vanishing at the origin."""

    def __init__(self, n: int, m: int, k: int, components: list[Poly]):
        if not 1 <= m <= n:
            raise InvalidInputError(f"need 1 <= m <= n, got m={m}, n={n}")
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
        self._values = PolyStack(n, self.components)
        self._jacobian = PolyStack(n, [d for row in self._partials for d in row])
        self._hessian = PolyStack(n, [d.deriv(b) for row in self._partials
                                      for d in row for b in range(n)])

    def eval(self, x) -> np.ndarray:
        return self.eval_many(_point(x, self.n)[None, :])[0]

    def jacobian(self, x) -> LinearMap:
        return LinearMap(self.jacobian_many(_point(x, self.n)[None, :])[0])

    def eval_many(self, X) -> np.ndarray:
        """Values at the rows of ``X`` (shape (N, n)), shape (N, m)."""
        return self._values.eval_many(_rows(X, self.n))

    def jacobian_many(self, X) -> np.ndarray:
        """Jacobians at the rows of ``X`` (shape (N, n)), shape (N, m, n)."""
        J = self._jacobian.eval_many(_rows(X, self.n)).reshape(-1, self.m, self.n)
        if not np.all(np.isfinite(J)):
            raise InvalidInputError("Jacobian entries must be finite")
        return J

    def hessian_many(self, X) -> np.ndarray:
        """Hessians at the rows of ``X`` (shape (N, n)), shape (N, m, n, n)."""
        H = self._hessian.eval_many(_rows(X, self.n))
        return H.reshape(-1, self.m, self.n, self.n)

    def __sub__(self, other: "PolyGermMap") -> "PolyGermMap":
        if (self.n, self.m) != (other.n, other.m):
            raise InvalidInputError("germ shapes differ")
        diff = [p - q for p, q in zip(self.components, other.components)]
        return PolyGermMap(self.n, self.m, self.k, diff)


def jet_at(f: PolyGermMap, a, k: int) -> tuple[Poly, ...]:
    """Exact k-jet of ``f`` at ``a``: each component shifted to the variable
    u = x - a, then truncated to degree k."""
    if k < 0:
        raise InvalidInputError("jet order must be nonnegative")
    a = tuple(a)
    return tuple(p.shifted(a).truncated(k) for p in f.components)


# --------------------------------------------------------------------- ZSpec

CANDIDATES, TIE_REL = 4, 1e-9  # SampledZ.distance_many: tree candidates, tie band


class ZSpec:
    """Z, a closed set in R^n containing 0. Each subclass gives
    ``distance_many`` on the rows of an (N, n) array; ``distance`` is a
    one-row call into it, so a point gets the same bits alone and among N.
    ``jet_witness(P, k)`` is None when the k-jet of P vanishes along Z, else
    the first witness against it."""

    def distance_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x) -> float:
        return float(self.distance_many(_point(x, self.n)[None, :])[0])


@dataclass(frozen=True)
class AnalyticZ(ZSpec):
    """Closed-form Z over the listed coordinates (1-based, no repeats).

    * ``subspace``: Z = {x_i = 0 for i in coords}; dist is the norm of the
      listed coordinates.  coords = all of 1..n gives Z = {0}.
    * ``union_hyperplanes``: Z = union of {x_i = 0 : i in coords}; dist = min |x_i|.
    """

    n: int
    form: str
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.form not in ("subspace", "union_hyperplanes"):
            raise InvalidInputError(f"unknown analytic form {self.form!r}")
        coords = tuple(sorted(self.coords or ()))
        if (not coords or any(not 1 <= c <= self.n for c in coords)
                or len(set(coords)) != len(coords)):
            raise InvalidInputError(f"bad coordinate list {self.coords!r}")
        if any(isinstance(c, bool) or not isinstance(c, int) for c in coords):
            raise InvalidInputError(f"coordinates must be integers, got {self.coords!r}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_cols", np.array(coords) - 1)

    def distance_many(self, X) -> np.ndarray:
        S = np.take(_rows(X, self.n), self._cols, axis=1)
        if self.form == "subspace":
            return row_norms(S)
        return np.abs(S).min(axis=1)

    def jet_witness(self, P: PolyGermMap, k: int):
        """Membership of P in the ideal of germs flat to order k along Z, term
        by term: (x_Z)^(k+1) for a subspace (the listed exponents sum to k + 1
        or more), (prod x_i)^(k+1) for a union (each reaches k + 1). None, or
        (component, exponents): the first component's least term outside."""
        need = sum if self.form == "subspace" else min
        for i, p in enumerate(P.components):
            outside = [e for e in p.terms if need(e[c - 1] for c in self.coords) <= k]
            if outside:
                return i, min(outside)
        return None


@dataclass(frozen=True)
class SampledZ(ZSpec):
    """Z given by a finite point cloud that contains the origin."""

    n: int
    points: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise InvalidInputError("sample cloud must be (N, n)")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("sample cloud points must be finite")
        object.__setattr__(self, "points", pts)
        # 0 in Z is required; the cloud must witness it
        if float(np.min(np.linalg.norm(pts, axis=1))) > MEMBERSHIP_TOL:
            raise InvalidInputError("sample cloud must contain the origin")
        from scipy.spatial import cKDTree  # only a sampled Z pays for its import
        object.__setattr__(self, "_tree", cKDTree(pts))

    def distance_many(self, X) -> np.ndarray:
        """min over the cloud of ``np.linalg.norm(p - x)`` for each row x,
        the bits of a scan over every cloud point.

        The tree only picks candidates; the values are numpy's. The tree's
        distance t(p) and numpy's |p - x| square the same differences and
        differ only in the order of summation, so they agree to a few ulps,
        far inside TIE_REL. The minimizer p* has |p* - x| at most the
        nearest candidate's norm, hence t(p*) <= (1 + TIE_REL) t0, t0 being
        the tree's nearest distance. So p* is among the CANDIDATES nearest
        points unless the last of them lies within (1 + TIE_REL) t0 as well;
        such near-tie rows, and rows whose squares overflow for a
        candidate, are scanned over the whole cloud. A row with an inf or
        nan entry is inf or nan from every cloud point, so any candidates
        serve; the tree, which rejects such rows, picks them for zeros.
        """
        X = _rows(X, self.n)
        count = len(self.points)
        k = min(CANDIDATES, count)
        t, idx = self._tree.query(np.where(np.isfinite(X), X, 0.0),
                                  k=list(range(1, k + 1)))
        # a candidate past the float range comes back as index `count`
        gaps = self.points[np.minimum(idx, count - 1)] - X[:, None, :]
        out = np.linalg.norm(gaps, axis=2).min(axis=1)
        scan = ~(t[:, -1] < np.inf)
        if k < count:
            scan |= t[:, -1] <= (1 + TIE_REL) * t[:, 0]
        for i in np.flatnonzero(scan).tolist():
            out[i] = np.linalg.norm(self.points - X[i], axis=1).min()
        return out

    def jet_witness(self, P: PolyGermMap, k: int):
        """The first cloud point a, |a| <= 1, where the exact k-jet of P has a
        term, as a tuple, or None; Z between and beyond these goes unchecked."""
        for a in self.points[np.linalg.norm(self.points, axis=1) <= 1].tolist():
            if any(p.terms for p in jet_at(P, a, k)):
                return tuple(a)
        return None


def int_power(x, p: int) -> np.ndarray:
    """``x ** p`` entry by entry (integer p >= 0) with a PolyStack column's bits, no pow:
    the left-to-right product of the squares x, x^2, x^4, ... the bits of p select."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)  # 1 * x is x, bit for bit
    while p:
        out, p = out * x if p & 1 else out, p >> 1
        x = x * x if p else x
    return out


def scalar_powers(values, p: float) -> np.ndarray:
    """``v ** p`` for each entry by Python's float ``pow``, which numpy's array
    ``**`` does not reproduce: RK45's two fractional step-control powers."""
    return np.array([v ** p for v in np.asarray(values, dtype=float).tolist()])


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


def same_k_Z_jet(pair: GermPair) -> tuple[bool, object]:
    """Whether f and f1 have equal k-jets along Z, and the witness against
    it from ``pair.z.jet_witness`` on P = f1 - f (None when they do)."""
    witness = pair.z.jet_witness(pair.P, pair.f.k)
    return witness is None, witness


def monomial_text(e) -> str:
    """Exponents ``e`` as ``x1^2 x2``: variables 1-based, no x^0 or ^1."""
    return " ".join(f"x{i + 1}" + (f"^{p}" if p > 1 else "")
                    for i, p in enumerate(e) if p) or "1"


# --------------------------------------------------------------------- JSON input

def _json_scalar(value, what: str, kind: str = "integers"):
    if type(value) not in ((int,) if kind == "integers" else (int, float)):
        raise InvalidInputError(f"{what} must be {kind}, got {value!r}")
    return value


def json_numbers(value, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array; bools, strings, nulls are rejected."""
    try:
        out = np.asarray(value, dtype=float)
    except OverflowError:
        raise InvalidInputError(f"{what} must lie in the float range") from None
    for v in np.asarray(value, dtype=object).flat:
        if type(v) not in (int, float):
            raise InvalidInputError(f"{what} must be numbers, got {v!r}")
    return out


def zspec_from_json(doc: dict, n: int) -> ZSpec:
    if not isinstance(doc, dict):
        raise InvalidInputError("malformed Z document: not a JSON object")
    variant = doc.get("variant")
    try:
        if variant == "analytic":
            return AnalyticZ(n=n, form=doc["form"], coords=tuple(doc["coords"]))
        if variant == "samples":
            return SampledZ(n=n, points=json_numbers(doc["points"], "sample cloud points"))
    except InvalidInputError:  # a ValueError that already names the fault
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed Z document: {exc}") from exc
    raise InvalidInputError(f"unknown ZSpec variant {variant!r}; use analytic or samples")


def germ_from_json(doc: dict) -> tuple[PolyGermMap, ZSpec | None]:
    try:
        n, m, k = (_json_scalar(doc[key], "n, m and k") for key in "nmk")
        comps = []
        for terms in doc["components"]:
            poly_terms = {}
            for t in terms:
                e = tuple(_json_scalar(v, "exponents") for v in t["exponents"])
                c = t["coeff"]
                poly_terms[e] = (Fraction(c) if isinstance(c, str)
                                 else float(_json_scalar(c, "non-string coefficients", "numbers")))
                if not np.isfinite(float(poly_terms[e])):  # PolyStack takes each as a float
                    raise ValueError(f"coefficients must be finite, got {c!r}")
            comps.append(Poly(n, poly_terms))
    except (OverflowError, ZeroDivisionError):  # "1/0", or a float() beyond its range
        raise InvalidInputError("malformed germ document: coefficient beyond the float range") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed germ document: {exc}") from exc
    f = PolyGermMap(n, m, k, comps)
    z = zspec_from_json(doc["z"], n) if "z" in doc else None
    return f, z


def read_json(path):
    """The document in ``path``; bad JSON names the file and line, bad UTF-8 reads as U+FFFD."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def load_germ(path) -> tuple[PolyGermMap, ZSpec | None]:
    return germ_from_json(read_json(path))
