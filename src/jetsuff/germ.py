"""Polynomial mapping germs (R^n, 0) -> (R^m, 0) and the singular set Z.

Germs are lists of exact polynomials (see :mod:`jetsuff.poly`); Taylor
truncation and differentiation are symbolic, so jets are compared exactly.
The singular set is a :class:`ZSpec`, one of two classes (JSON ``variant``
in brackets), each with its own distance and jet-along-Z rule:

* :class:`AnalyticZ` (``analytic``) -- coordinate subspaces and unions of
  coordinate hyperplanes, in closed form;
* :class:`SampledZ` (``samples``) -- a point cloud, packed into leaves of
  points and groups of leaves with their bounding boxes; a two-level box
  screen leaves each query point a few leaves to scan; the distance is the
  root of the least left-to-right sum of squares over the whole cloud.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError
from .linmap import LinearMap, row_norms
from .poly import Poly, PolyStack, _point

MEMBERSHIP_TOL = 1e-12


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
        # the total degree every term shares (f is homogeneous), read from the
        # exponents alone, else None
        degrees = {sum(e) for p in components for e in p.terms}
        self.degree = degrees.pop() if len(degrees) == 1 else None
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
    """Exact k-jet of ``f`` at ``a``: per component, ``Poly.jet``, the terms of
    degree <= k of p(a + u) in the variable u = x - a."""
    if k < 0:
        raise InvalidInputError("jet order must be nonnegative")
    a = tuple(a)
    return tuple(p.jet(a, k) for p in f.components)


# --------------------------------------------------------------------- ZSpec

LEAF, LEAVES = 24, 8  # SampledZ: most points per leaf, leaves per group
CROWD = 64  # SampledZ: most groups, or other leaves, one row's screen may pass
GROUP_CELLS = 1 << 21  # SampledZ: most coordinate gaps to group boxes held at once


def _sum_sq(parts) -> np.ndarray:
    """Left-to-right sum of squares over the first (coordinate) axis,
    computed in the space of ``parts``, which it overwrites."""
    parts *= parts
    total = parts[0]
    for p in parts[1:]:
        total += p
    return total


def _box_sq(T, lo, hi) -> np.ndarray:
    """_sum_sq of the gaps from points ``T`` to boxes [lo, hi], coordinates first."""
    gaps = lo - T
    np.maximum(gaps, T - hi, out=gaps)
    return _sum_sq(np.maximum(gaps, 0.0, out=gaps))


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
        if any(isinstance(c, bool) or not isinstance(c, int) for c in self.coords or ()):
            raise InvalidInputError(f"coordinates must be integers, got {self.coords!r}")
        coords = tuple(sorted(self.coords or ()))
        if (not coords or any(not 1 <= c <= self.n for c in coords)
                or len(set(coords)) != len(coords)):
            raise InvalidInputError(f"bad coordinate list {self.coords!r}")
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


@dataclass(frozen=True, eq=False)
class SampledZ(ZSpec):
    """Z given by a finite point cloud that contains the origin; equal only
    to itself."""

    n: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise InvalidInputError("sample cloud must be (N, n)")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("sample cloud points must be finite")
        object.__setattr__(self, "points", pts)
        # 0 in Z is required; the cloud must witness it
        if not len(pts) or float(np.min(np.linalg.norm(pts, axis=1))) > MEMBERSHIP_TOL:
            raise InvalidInputError("sample cloud must contain the origin")
        # sort-tile packing: groups of B * L points along the cloud's widest
        # coordinate, then leaves of L along each group's widest; copies of
        # the last point fill the last group. A small cloud takes fewer and
        # smaller leaves, so that copies do not outnumber it. Coordinates come
        # first, and the leaves of a gather last, next to the query rows.
        cols = pts.T.copy()
        L = min(LEAF, len(pts))
        B = min(LEAVES, -(-len(pts) // L))
        size = B * L
        order = np.argsort(cols[np.argmax(cols.max(axis=1) - cols.min(axis=1))])
        order = np.concatenate([order, np.full(-len(pts) % size, order[-1])])
        spans = np.take(cols, order.reshape(-1, size), axis=1)  # (n, group, size)
        wide = np.argmax(spans.max(axis=2) - spans.min(axis=2), axis=0)
        across = np.arange(len(wide))
        tiles = np.argsort(spans[wide, across], axis=1) + size * across[:, None]
        tiles = np.take(order, tiles).reshape(-1, B, L)  # (group, B, L)
        leaves = np.take(cols, tiles.T, axis=1)  # (n, L, B, group)
        lo, hi = leaves.min(axis=1), leaves.max(axis=1)
        object.__setattr__(self, "_leaves", leaves.reshape(self.n, L, -1))  # leaf b * G + g
        object.__setattr__(self, "_group_box", (lo.min(axis=1)[..., None], hi.max(axis=1)[..., None]))
        object.__setattr__(self, "_leaf_box", (lo, hi))

    def distance_many(self, X) -> np.ndarray:
        """The root of the least s(p) over the cloud for each row x, where
        s(p) is the left-to-right sum over coordinates of fl(p_i - x_i)^2;
        up to n = 7 that is the sum numpy's norm takes, and beyond it is
        within (n + 1) 2^-53 relative of numpy's least norm.

        The screen compares s(p) with b(Q), the same sum over the gaps from x
        to a box Q, each 0 where x_i lies within Q's range. The gap is at most
        |fl(p_i - x_i)| for every p in Q, and rounding is monotone, so
        b(Q) <= s(p) bit for bit. The group with the least b, and its leaf
        with the least b, give u, the least s over that leaf's points. The
        minimizer of s thus lies in a group and a leaf whose b are at most u,
        and every such leaf is scanned. Copies padding the last group change
        no minimum. A row with an inf or nan entry, whose u is not finite (its
        squares overflow), or that passes more than CROWD groups or other
        leaves is scanned over the whole cloud by the same sum. The gaps to
        every group box take memory in proportion to the groups, so the rows
        go through in parts of at most GROUP_CELLS gaps; the work per row
        still grows in proportion to the cloud.
        """
        X = _rows(X, self.n)
        (glo, ghi), (llo, lhi) = self._group_box, self._leaf_box
        G = glo.shape[1]
        part = max(1, GROUP_CELLS // (self.n * G))
        if len(X) > part:
            return np.concatenate([self.distance_many(X[i:i + part])
                                   for i in range(0, len(X), part)])
        T = X.T.copy()
        finite = np.isfinite(T).all(axis=0)
        T[:, ~finite] = 0.0
        T = T[:, None]  # (n, 1, N)
        with np.errstate(over="ignore", invalid="ignore"):
            group_sq = _box_sq(T, glo, ghi)  # (G, N)
            g = group_sq.argmin(axis=0)
            leaf_sq = _box_sq(T, np.take(llo, g, axis=2), np.take(lhi, g, axis=2))
            best = leaf_sq.argmin(axis=0) * G + g
            least = self._scan(T, best).min(axis=0)  # u
            band = np.where(finite & (least < np.inf), least, np.nan)
            # every other leaf within u of each row, in one scan; the best
            # group's leaf sums are at hand. A row passing more than CROWD
            # groups, then more than CROWD other leaves (ties over much of
            # the cloud), is scanned whole, so neither the boxes nor the scan
            # outgrow it
            band[(group_sq <= band).sum(axis=0) > CROWD] = np.nan
            rows, h = np.nonzero((group_sq <= band).T)
            sq, other = leaf_sq[:, rows], h != g[rows]
            sq[:, other] = _box_sq(np.take(T, rows[other], axis=2), np.take(llo, h[other], axis=2),
                                   np.take(lhi, h[other], axis=2))
            k, b = np.nonzero((sq <= band[rows]).T)
            rows, leaves = rows[k], b * G + h[k]
            keep = leaves != best[rows]
            band[np.bincount(rows[keep], minlength=len(X)) > CROWD] = np.nan
            keep &= ~np.isnan(band[rows])
            rows, leaves = rows[keep], leaves[keep]
            np.minimum.at(least, rows, self._scan(np.take(T, rows, axis=2), leaves).min(axis=0))
            for i in np.flatnonzero(np.isnan(band)).tolist():
                least[i] = _sum_sq(self.points.T - X[i][:, None]).min()
        return np.sqrt(least)

    def _scan(self, T, leaves) -> np.ndarray:
        """_sum_sq from each point of ``T`` (n, 1, K) to each point of its leaf, (L, K)."""
        gaps = np.take(self._leaves, leaves, axis=2)  # contiguous, unlike [..., leaves]
        gaps -= T
        return _sum_sq(gaps)

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
    ``**`` does not reproduce: RK45's two fractional step-control powers and
    the integer powers of the bump's transition profile."""
    return np.array([v ** p for v in np.asarray(values, dtype=float).tolist()])


@dataclass(frozen=True)
class GermPair:
    """Two realizations f, f1 of one jet over the same Z; P = f1 - f."""

    f: PolyGermMap
    f1: PolyGermMap
    z: ZSpec
    P: PolyGermMap = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.f.n, self.f.m, self.f.k) != (self.f1.n, self.f1.m, self.f1.k):
            raise InvalidInputError("paired germs must share (n, m, k)")
        if self.z.n != self.f.n:
            raise InvalidInputError("ZSpec dimension mismatch")
        object.__setattr__(self, "P", self.f1 - self.f)


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
        _json_scalar(v, what, "numbers")
    return out


def zspec_from_json(doc: dict, n: int) -> ZSpec:
    if not isinstance(doc, dict):
        raise InvalidInputError("malformed Z document: not a JSON object")
    variant = doc.get("variant")
    try:
        if variant == "analytic":
            form, coords = doc["form"], doc["coords"]
            if isinstance(coords, (str, dict)):  # tuple() would read its characters or keys
                raise InvalidInputError(f"malformed Z document: coords as {type(coords).__name__} "
                                        "not supported; use a list")
            return AnalyticZ(n=n, form=form, coords=tuple(coords))
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
